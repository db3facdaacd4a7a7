//! DataBlinder middleware core — the primary contribution of
//! *"DataBlinder: A distributed data protection middleware supporting
//! search and computation on encrypted data"* (Middleware Industry '19),
//! reproduced in Rust.
//!
//! A distributed data-access middleware providing **crypto agility** via
//! configurable fine-grained data protection:
//!
//! * [`model`] — the two abstraction models of §3: the data protection
//!   tactic model (leakage profiles + performance metrics per operation)
//!   and the data access model (protection classes C1..C5 + required
//!   operations per field);
//! * [`spi`] — the Service Provider Interfaces of Table 1, split into
//!   gateway and cloud halves;
//! * [`tactics`] — the built-in tactic implementations of Table 2 (DET,
//!   RND, Mitra, Sophos, BIEX-2Lev, BIEX-ZMF, OPE, ORE, Paillier);
//! * [`registry`] — adaptive tactic selection at runtime (strategy
//!   pattern over descriptors);
//! * [`metadata`] — schema persistence and document validation;
//! * [`gateway`] / [`cloud`] — the trusted-zone and untrusted-zone
//!   engines, connected through a `datablinder-netsim` channel;
//! * [`wire`] / [`cloudproto`] — the byte codecs crossing that channel.
//!
//! # Examples
//!
//! ```
//! use datablinder_core::cloud::CloudEngine;
//! use datablinder_core::gateway::GatewayEngine;
//! use datablinder_core::model::*;
//! use datablinder_docstore::{Document, Value};
//! use datablinder_kms::Kms;
//! use datablinder_netsim::{Channel, LatencyModel};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), datablinder_core::error::CoreError> {
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let channel = Channel::connect(CloudEngine::new(), LatencyModel::instant());
//! let mut gw = GatewayEngine::new("demo", Kms::generate(&mut rng), channel, 42);
//!
//! let schema = Schema::new("notes").sensitive_field(
//!     "author",
//!     FieldType::Text,
//!     true,
//!     FieldAnnotation::new(ProtectionClass::C2, vec![FieldOp::Insert, FieldOp::Equality]),
//! );
//! gw.register_schema(schema)?;
//!
//! let doc = Document::new("ignored").with("author", Value::from("alice"));
//! let id = gw.insert("notes", &doc)?;
//! let hits = gw.find_equal("notes", "author", &Value::from("alice"))?;
//! assert_eq!(hits.len(), 1);
//! assert_eq!(gw.get("notes", id)?.get("author"), Some(&Value::from("alice")));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
pub mod cloud;
pub mod cloudproto;
pub mod cluster;
pub mod durability;
pub mod error;
pub mod gateway;
pub mod leakage;
pub mod metadata;
pub mod model;
pub mod pool;
pub mod registry;
pub mod spi;
pub mod sync;
pub mod tactics;
pub mod wire;

pub use error::CoreError;
