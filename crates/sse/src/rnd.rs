//! Randomized encryption (RND) — protection class 1, leakage *Structure*.
//!
//! AES-GCM with a fresh random nonce per encryption, plus optional padding
//! to a bucket size so even plaintext lengths are hidden up to the bucket
//! granularity. The strongest tactic in Table 2 — and the least functional:
//! no search at all (the paper assigns it to `performer`, ops `[I]` only).

use datablinder_primitives::gcm::{AesGcm, NONCE_LEN, TAG_LEN};
use datablinder_primitives::keys::SymmetricKey;
use rand::RngCore;

use crate::SseError;

/// Probabilistic authenticated cipher with length bucketing.
///
/// # Examples
///
/// ```
/// use datablinder_sse::rnd::RndCipher;
/// use datablinder_primitives::keys::SymmetricKey;
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), datablinder_sse::SseError> {
/// let mut rng = rand::rngs::StdRng::seed_from_u64(5);
/// let rnd = RndCipher::new(&SymmetricKey::from_bytes(&[1u8; 32]))?;
/// let c1 = rnd.encrypt(&mut rng, b"John Smith");
/// let c2 = rnd.encrypt(&mut rng, b"John Smith");
/// assert_ne!(c1, c2, "probabilistic");
/// assert_eq!(rnd.decrypt(&c1)?, b"John Smith");
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct RndCipher {
    gcm: AesGcm,
    bucket: usize,
}

/// Default padding bucket (bytes). Plaintexts are padded to the next
/// multiple, hiding lengths within a bucket.
pub const DEFAULT_BUCKET: usize = 32;

impl RndCipher {
    /// Creates a cipher with the default padding bucket.
    ///
    /// # Errors
    ///
    /// Propagates key-schedule errors.
    pub fn new(key: &SymmetricKey) -> Result<Self, SseError> {
        Self::with_bucket(key, DEFAULT_BUCKET)
    }

    /// Creates a cipher with a custom padding bucket (`0` disables padding).
    ///
    /// # Errors
    ///
    /// Propagates key-schedule errors.
    pub fn with_bucket(key: &SymmetricKey, bucket: usize) -> Result<Self, SseError> {
        let enc = key.derive(b"rnd/enc", 32);
        Ok(RndCipher { gcm: AesGcm::new(&enc)?, bucket })
    }

    /// Encrypts with a fresh nonce: `nonce(12) || gcm(len(8) || padded)`,
    /// sealed straight into the output after the nonce.
    pub fn encrypt<R: RngCore + ?Sized>(&self, rng: &mut R, plaintext: &[u8]) -> Vec<u8> {
        let mut nonce = [0u8; NONCE_LEN];
        rng.fill_bytes(&mut nonce);
        let mut framed = Vec::with_capacity(8 + plaintext.len() + self.bucket);
        framed.extend_from_slice(&(plaintext.len() as u64).to_be_bytes());
        framed.extend_from_slice(plaintext);
        if self.bucket > 0 {
            let target = framed.len().div_ceil(self.bucket) * self.bucket;
            framed.resize(target, 0);
        }
        let mut out = Vec::with_capacity(NONCE_LEN + framed.len() + TAG_LEN);
        out.extend_from_slice(&nonce);
        self.gcm.seal_into(&nonce, b"rnd", &framed, &mut out);
        out
    }

    /// Decrypts, verifying the tag and stripping padding.
    ///
    /// # Errors
    ///
    /// [`SseError::Malformed`] for structurally bad input,
    /// [`SseError::Crypto`] for tag failures.
    pub fn decrypt(&self, ciphertext: &[u8]) -> Result<Vec<u8>, SseError> {
        if ciphertext.len() < NONCE_LEN {
            return Err(SseError::Malformed("rnd ciphertext"));
        }
        let (nonce_bytes, sealed) = ciphertext.split_at(NONCE_LEN);
        let mut nonce = [0u8; NONCE_LEN];
        nonce.copy_from_slice(nonce_bytes);
        let framed = self.gcm.open(&nonce, b"rnd", sealed)?;
        if framed.len() < 8 {
            return Err(SseError::Malformed("rnd frame"));
        }
        let len = u64::from_be_bytes(framed[..8].try_into().unwrap()) as usize;
        if framed.len() < 8 + len {
            return Err(SseError::Malformed("rnd frame length"));
        }
        Ok(framed[8..8 + len].to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn setup() -> (RndCipher, rand::rngs::StdRng) {
        (RndCipher::new(&SymmetricKey::from_bytes(&[4u8; 32])).unwrap(), rand::rngs::StdRng::seed_from_u64(1))
    }

    #[test]
    fn roundtrip_and_probabilism() {
        let (rnd, mut rng) = setup();
        for len in [0usize, 1, 31, 32, 33, 500] {
            let pt: Vec<u8> = (0..len as u32).map(|i| i as u8).collect();
            let c1 = rnd.encrypt(&mut rng, &pt);
            let c2 = rnd.encrypt(&mut rng, &pt);
            assert_ne!(c1, c2, "len {len}");
            assert_eq!(rnd.decrypt(&c1).unwrap(), pt);
            assert_eq!(rnd.decrypt(&c2).unwrap(), pt);
        }
    }

    #[test]
    fn padding_hides_lengths_within_bucket() {
        let (rnd, mut rng) = setup();
        // 1-byte and 20-byte plaintexts both fit the first 32-byte bucket
        // (with the 8-byte length frame), so ciphertext lengths match.
        let short = rnd.encrypt(&mut rng, b"x");
        let longer = rnd.encrypt(&mut rng, &[7u8; 20]);
        assert_eq!(short.len(), longer.len());
        // Crossing the bucket boundary changes the size.
        let big = rnd.encrypt(&mut rng, &[7u8; 40]);
        assert_ne!(short.len(), big.len());
    }

    #[test]
    fn unpadded_mode() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let rnd = RndCipher::with_bucket(&SymmetricKey::from_bytes(&[4u8; 32]), 0).unwrap();
        let c = rnd.encrypt(&mut rng, b"abc");
        assert_eq!(rnd.decrypt(&c).unwrap(), b"abc");
    }

    #[test]
    fn tamper_detected() {
        let (rnd, mut rng) = setup();
        let mut c = rnd.encrypt(&mut rng, b"secret");
        let mid = c.len() / 2;
        c[mid] ^= 1;
        assert!(matches!(rnd.decrypt(&c), Err(SseError::Crypto(_))));
    }

    #[test]
    fn short_input_rejected() {
        let (rnd, _) = setup();
        assert!(rnd.decrypt(&[0u8; 5]).is_err());
        assert!(rnd.decrypt(&[0u8; 12]).is_err());
    }
}
