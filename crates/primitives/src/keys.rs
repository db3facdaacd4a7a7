//! Symmetric key material.

use rand::RngCore;

/// A symmetric key with best-effort zeroization on drop.
///
/// Wraps raw key bytes so that keys are visibly distinct from ordinary
/// byte buffers in APIs ([C-NEWTYPE]) and never appear in `Debug` output.
///
/// # Examples
///
/// ```
/// use datablinder_primitives::keys::SymmetricKey;
/// let k = SymmetricKey::from_bytes(&[1u8; 16]);
/// assert_eq!(k.len(), 16);
/// assert_eq!(format!("{k:?}"), "SymmetricKey(16 bytes, redacted)");
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct SymmetricKey {
    bytes: Vec<u8>,
}

impl SymmetricKey {
    /// Copies key material from a slice.
    pub fn from_bytes(bytes: &[u8]) -> Self {
        SymmetricKey { bytes: bytes.to_vec() }
    }

    /// Generates a fresh random key of `len` bytes.
    pub fn generate<R: RngCore + ?Sized>(rng: &mut R, len: usize) -> Self {
        let mut bytes = vec![0u8; len];
        rng.fill_bytes(&mut bytes);
        SymmetricKey { bytes }
    }

    /// The raw key bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Key length in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the key is empty (zero-length).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Derives a labeled subkey of `len` bytes via HKDF.
    ///
    /// ```
    /// use datablinder_primitives::keys::SymmetricKey;
    /// let master = SymmetricKey::from_bytes(&[9u8; 32]);
    /// let a = master.derive(b"index", 32);
    /// let b = master.derive(b"payload", 32);
    /// assert_ne!(a.as_bytes(), b.as_bytes());
    /// ```
    pub fn derive(&self, label: &[u8], len: usize) -> SymmetricKey {
        let okm = crate::hmac::hkdf(b"datablinder/v1", &self.bytes, label, len);
        SymmetricKey { bytes: okm }
    }
}

impl Drop for SymmetricKey {
    #[allow(unsafe_code)]
    fn drop(&mut self) {
        // Best-effort wipe; the optimizer may elide this, acceptable for a
        // research reproduction.
        for b in self.bytes.iter_mut() {
            // SAFETY: `b` is a unique reference to one initialised byte.
            unsafe { std::ptr::write_volatile(b, 0) };
        }
    }
}

impl std::fmt::Debug for SymmetricKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SymmetricKey({} bytes, redacted)", self.bytes.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn generate_distinct() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let a = SymmetricKey::generate(&mut rng, 32);
        let b = SymmetricKey::generate(&mut rng, 32);
        assert_ne!(a, b);
        assert_eq!(a.len(), 32);
        assert!(!a.is_empty());
    }

    #[test]
    fn derive_is_deterministic() {
        let master = SymmetricKey::from_bytes(&[5u8; 32]);
        assert_eq!(master.derive(b"x", 16), master.derive(b"x", 16));
        assert_ne!(master.derive(b"x", 16), master.derive(b"y", 16));
    }

    #[test]
    fn debug_redacts() {
        let k = SymmetricKey::from_bytes(&[0xAA; 8]);
        assert!(!format!("{k:?}").contains("aa"));
    }
}
