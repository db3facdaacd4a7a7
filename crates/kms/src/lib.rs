//! Key management for the gateway's trusted zone.
//!
//! The paper's architecture exposes a *Keys* interface "to allow the system
//! to integrate with on-premise key management systems (e.g., HSM)" (§4).
//! This crate simulates such a system:
//!
//! * a **master key** that never leaves the KMS,
//! * **hierarchical derivation**: per-(application, field, tactic) subkeys
//!   via HKDF, so compromising one tactic key does not expose others,
//! * **key rotation** with versioning — the mechanism behind the paper's
//!   crypto-agility story (Sophos lists "key management" as its integration
//!   challenge in Table 2),
//! * **opaque secret storage** for tactics with non-derivable key material
//!   (Paillier keypairs, RSA trapdoors),
//! * an **audit counter** per scope.
//!
//! # Examples
//!
//! ```
//! use datablinder_kms::{Kms, KeyScope};
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(3);
//! let kms = Kms::generate(&mut rng);
//! let scope = KeyScope::new("ehealth", "observation.status", "mitra");
//! let k1 = kms.key_for(&scope);
//! assert_eq!(k1, kms.key_for(&scope), "stable until rotated");
//! kms.rotate(&scope);
//! assert_ne!(k1, kms.key_for(&scope));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
use std::collections::HashMap;
use std::sync::Arc;

use datablinder_primitives::keys::SymmetricKey;
use parking_lot::RwLock;
use rand::RngCore;

/// Identifies one derived key: application, field and tactic.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct KeyScope {
    /// Owning application (tenant).
    pub application: String,
    /// Qualified field name, e.g. `observation.status`.
    pub field: String,
    /// Tactic identifier, e.g. `mitra`.
    pub tactic: String,
}

impl KeyScope {
    /// Creates a scope.
    pub fn new(application: impl Into<String>, field: impl Into<String>, tactic: impl Into<String>) -> Self {
        KeyScope { application: application.into(), field: field.into(), tactic: tactic.into() }
    }

    fn label(&self, version: u64) -> Vec<u8> {
        let mut label = Vec::new();
        for part in [self.application.as_bytes(), self.field.as_bytes(), self.tactic.as_bytes()] {
            label.extend_from_slice(&(part.len() as u64).to_be_bytes());
            label.extend_from_slice(part);
        }
        label.extend_from_slice(&version.to_be_bytes());
        label
    }
}

/// Errors from the KMS.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KmsError {
    /// A named secret was not found.
    SecretNotFound(String),
}

impl std::fmt::Display for KmsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KmsError::SecretNotFound(name) => write!(f, "secret not found: {name}"),
        }
    }
}

impl std::error::Error for KmsError {}

#[derive(Default)]
struct KmsInner {
    versions: HashMap<KeyScope, u64>,
    secrets: HashMap<String, Vec<u8>>,
    requests: HashMap<KeyScope, u64>,
}

/// The key management system. Clone handles share state.
#[derive(Clone)]
pub struct Kms {
    master: Arc<SymmetricKey>,
    inner: Arc<RwLock<KmsInner>>,
}

impl Kms {
    /// Creates a KMS around an existing master key.
    pub fn new(master: SymmetricKey) -> Self {
        Kms { master: Arc::new(master), inner: Arc::default() }
    }

    /// Creates a KMS with a freshly generated 256-bit master key.
    pub fn generate<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        Kms::new(SymmetricKey::generate(rng, 32))
    }

    /// Derives the current key for `scope` (32 bytes).
    ///
    /// Stable across calls until [`Kms::rotate`] is invoked for the scope.
    pub fn key_for(&self, scope: &KeyScope) -> SymmetricKey {
        let version = {
            let mut inner = self.inner.write();
            *inner.requests.entry(scope.clone()).or_insert(0) += 1;
            *inner.versions.get(scope).unwrap_or(&0)
        };
        self.master.derive(&scope.label(version), 32)
    }

    /// Derives the key for a specific historical version (re-encryption
    /// during rotation needs both old and new).
    pub fn key_for_version(&self, scope: &KeyScope, version: u64) -> SymmetricKey {
        self.master.derive(&scope.label(version), 32)
    }

    /// Current version of a scope (0 if never rotated).
    pub fn current_version(&self, scope: &KeyScope) -> u64 {
        *self.inner.read().versions.get(scope).unwrap_or(&0)
    }

    /// Rotates the scope to a new version; returns the new version number.
    pub fn rotate(&self, scope: &KeyScope) -> u64 {
        let mut inner = self.inner.write();
        let v = inner.versions.entry(scope.clone()).or_insert(0);
        *v += 1;
        *v
    }

    /// Stores an opaque secret (e.g. a serialized Paillier keypair).
    pub fn put_secret(&self, name: &str, secret: Vec<u8>) {
        self.inner.write().secrets.insert(name.to_string(), secret);
    }

    /// Fetches an opaque secret.
    ///
    /// # Errors
    ///
    /// [`KmsError::SecretNotFound`] when absent.
    pub fn secret(&self, name: &str) -> Result<Vec<u8>, KmsError> {
        self.inner.read().secrets.get(name).cloned().ok_or_else(|| KmsError::SecretNotFound(name.to_string()))
    }

    /// Whether a named secret exists.
    pub fn has_secret(&self, name: &str) -> bool {
        self.inner.read().secrets.contains_key(name)
    }

    /// Number of `key_for` requests served for a scope (audit trail).
    pub fn audit_requests(&self, scope: &KeyScope) -> u64 {
        *self.inner.read().requests.get(scope).unwrap_or(&0)
    }
}

impl std::fmt::Debug for Kms {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.read();
        f.debug_struct("Kms").field("scopes", &inner.versions.len()).field("secrets", &inner.secrets.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn kms() -> Kms {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        Kms::generate(&mut rng)
    }

    #[test]
    fn derivation_is_scope_separated() {
        let kms = kms();
        let a = kms.key_for(&KeyScope::new("app", "f1", "det"));
        let b = kms.key_for(&KeyScope::new("app", "f2", "det"));
        let c = kms.key_for(&KeyScope::new("app", "f1", "rnd"));
        let d = kms.key_for(&KeyScope::new("other", "f1", "det"));
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn label_injective_on_boundaries() {
        // ("ab","c") vs ("a","bc") must not collide.
        let kms = kms();
        let a = kms.key_for(&KeyScope::new("ab", "c", "t"));
        let b = kms.key_for(&KeyScope::new("a", "bc", "t"));
        assert_ne!(a, b);
    }

    #[test]
    fn rotation_changes_keys_and_preserves_history() {
        let kms = kms();
        let scope = KeyScope::new("app", "f", "ope");
        let v0_key = kms.key_for(&scope);
        assert_eq!(kms.current_version(&scope), 0);
        assert_eq!(kms.rotate(&scope), 1);
        let v1_key = kms.key_for(&scope);
        assert_ne!(v0_key, v1_key);
        assert_eq!(kms.key_for_version(&scope, 0), v0_key);
        assert_eq!(kms.key_for_version(&scope, 1), v1_key);
        assert_eq!(kms.rotate(&scope), 2);
    }

    #[test]
    fn secrets_roundtrip() {
        let kms = kms();
        assert!(!kms.has_secret("paillier/app"));
        assert!(matches!(kms.secret("paillier/app"), Err(KmsError::SecretNotFound(_))));
        kms.put_secret("paillier/app", vec![1, 2, 3]);
        assert!(kms.has_secret("paillier/app"));
        assert_eq!(kms.secret("paillier/app").unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn audit_counts_requests() {
        let kms = kms();
        let scope = KeyScope::new("app", "f", "det");
        assert_eq!(kms.audit_requests(&scope), 0);
        kms.key_for(&scope);
        kms.key_for(&scope);
        assert_eq!(kms.audit_requests(&scope), 2);
    }

    #[test]
    fn clone_shares_state() {
        let kms = kms();
        let kms2 = kms.clone();
        kms.put_secret("s", vec![9]);
        assert_eq!(kms2.secret("s").unwrap(), vec![9]);
        let scope = KeyScope::new("a", "f", "t");
        kms.rotate(&scope);
        assert_eq!(kms2.current_version(&scope), 1);
    }
}
