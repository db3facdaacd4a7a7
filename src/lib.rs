//! # DataBlinder (Rust reproduction)
//!
//! A from-scratch reproduction of *"DataBlinder: A distributed data
//! protection middleware supporting search and computation on encrypted
//! data"* (Heydari Beni et al., Middleware Industry '19).
//!
//! This facade crate re-exports the workspace members so applications can
//! depend on one crate:
//!
//! * [`core`] — the middleware itself (models, SPI, registry, engines),
//! * [`sse`], [`ope`], [`ore`], [`paillier`] — the cryptographic tactics,
//! * [`primitives`], [`bigint`] — the crypto substrate,
//! * [`codec`] — the one wire cursor pair and CRC frame,
//! * [`kvstore`], [`docstore`], [`kms`], [`netsim`] — the system substrate,
//! * [`fhir`], [`workload`] — the healthcare validation case and the
//!   evaluation harness.
//!
//! Start with `examples/quickstart.rs`; the architecture map lives in
//! `DESIGN.md` and the measured reproduction of the paper's evaluation in
//! `EXPERIMENTS.md`.
//!
//! # Examples
//!
//! ```
//! use datablinder::core::cloud::CloudEngine;
//! use datablinder::core::gateway::GatewayEngine;
//! use datablinder::core::model::*;
//! use datablinder::docstore::{Document, Value};
//! use datablinder::kms::Kms;
//! use datablinder::netsim::{Channel, LatencyModel};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), datablinder::core::CoreError> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let channel = Channel::connect(CloudEngine::new(), LatencyModel::lan());
//! let mut gateway = GatewayEngine::new("app", Kms::generate(&mut rng), channel, 7);
//! gateway.register_schema(datablinder::fhir::observation_schema())?;
//! let id = gateway.insert("observation", &datablinder::fhir::example_observation())?;
//! assert_eq!(
//!     gateway.get("observation", id)?.get("subject"),
//!     Some(&Value::from("John Doe"))
//! );
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
pub use datablinder_bigint as bigint;
pub use datablinder_codec as codec;
pub use datablinder_core as core;
pub use datablinder_docstore as docstore;
pub use datablinder_fhir as fhir;
pub use datablinder_kms as kms;
pub use datablinder_kvstore as kvstore;
pub use datablinder_netsim as netsim;
pub use datablinder_obs as obs;
pub use datablinder_ope as ope;
pub use datablinder_ore as ore;
pub use datablinder_paillier as paillier;
pub use datablinder_primitives as primitives;
pub use datablinder_sse as sse;
pub use datablinder_workload as workload;
