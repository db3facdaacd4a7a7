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
    /// The associated data every seal starts with: `rnd`, then the context
    /// [`RndCipher::bound`] was given.
    label: Vec<u8>,
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
        Ok(RndCipher { gcm: AesGcm::new(&enc)?, bucket, label: b"rnd".to_vec() })
    }

    /// The same cipher with `context` appended to its associated data: a
    /// ciphertext sealed under one context does not open under another.
    #[must_use]
    pub fn bound(mut self, context: &[u8]) -> Self {
        self.label.extend_from_slice(context);
        self
    }

    /// [`RndCipher::encrypt_for`] with an empty item.
    pub fn encrypt<R: RngCore + ?Sized>(&self, rng: &mut R, plaintext: &[u8]) -> Vec<u8> {
        self.encrypt_for(rng, &[], plaintext)
    }

    /// Encrypts with a fresh nonce: `nonce(12) || gcm(len(8) || padded)`,
    /// sealed straight into the output after the nonce, under the
    /// associated data `label ‖ item`.
    pub fn encrypt_for<R: RngCore + ?Sized>(&self, rng: &mut R, item: &[u8], plaintext: &[u8]) -> Vec<u8> {
        let mut nonce = [0u8; NONCE_LEN];
        rng.fill_bytes(&mut nonce);
        // One buffer holds the associated data and, after it, the framed
        // plaintext.
        let aad_len = self.label.len() + item.len();
        let mut buf = Vec::with_capacity(aad_len + 8 + plaintext.len() + self.bucket);
        buf.extend_from_slice(&self.label);
        buf.extend_from_slice(item);
        buf.extend_from_slice(&(plaintext.len() as u64).to_be_bytes());
        buf.extend_from_slice(plaintext);
        if self.bucket > 0 {
            let framed = buf.len() - aad_len;
            buf.resize(aad_len + framed.div_ceil(self.bucket) * self.bucket, 0);
        }
        let (aad, framed) = buf.split_at(aad_len);
        let mut out = Vec::with_capacity(NONCE_LEN + framed.len() + TAG_LEN);
        out.extend_from_slice(&nonce);
        self.gcm.seal_into(&nonce, aad, framed, &mut out);
        out
    }

    /// [`RndCipher::decrypt_in`] with an empty item, into a new buffer.
    ///
    /// # Errors
    ///
    /// As [`RndCipher::decrypt_in`].
    pub fn decrypt(&self, ciphertext: &[u8]) -> Result<Vec<u8>, SseError> {
        Ok(self.decrypt_in(&[], ciphertext, &mut Vec::new())?.to_vec())
    }

    /// Verifies a ciphertext sealed for `item` and decrypts it inside
    /// `scratch`, which a caller reuses across many opens: `scratch` holds
    /// the associated data and the sealed bytes, GCM opens them in place,
    /// and the plaintext comes back as a slice of it with frame and padding
    /// cut off.
    ///
    /// # Errors
    ///
    /// [`SseError::Malformed`] for structurally bad input,
    /// [`SseError::Crypto`] for tag failures (a ciphertext sealed under
    /// another key, context or item among them).
    pub fn decrypt_in<'s>(
        &self,
        item: &[u8],
        ciphertext: &[u8],
        scratch: &'s mut Vec<u8>,
    ) -> Result<&'s [u8], SseError> {
        let Some((nonce, sealed)) = ciphertext.split_first_chunk::<NONCE_LEN>() else {
            return Err(SseError::Malformed("rnd ciphertext"));
        };
        scratch.clear();
        scratch.extend_from_slice(&self.label);
        scratch.extend_from_slice(item);
        let aad_len = scratch.len();
        scratch.extend_from_slice(sealed);
        let (aad, sealed) = scratch.split_at_mut(aad_len);
        let framed = self.gcm.open_in_place(nonce, aad, sealed)?;
        let Some((len, body)) = framed.split_first_chunk::<8>() else {
            return Err(SseError::Malformed("rnd frame"));
        };
        usize::try_from(u64::from_be_bytes(*len))
            .ok()
            .and_then(|len| body.get(..len))
            .ok_or(SseError::Malformed("rnd frame length"))
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
    fn a_ciphertext_opens_only_for_its_context_and_item() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let key = SymmetricKey::from_bytes(&[4u8; 32]);
        let here = RndCipher::new(&key).unwrap().bound(b"obs/performer");
        let c = here.encrypt_for(&mut rng, b"doc-1", b"secret");
        let mut scratch = Vec::new();
        assert_eq!(here.decrypt_in(b"doc-1", &c, &mut scratch).unwrap(), b"secret");
        assert!(matches!(here.decrypt_in(b"doc-2", &c, &mut scratch), Err(SseError::Crypto(_))));
        let elsewhere = RndCipher::new(&key).unwrap().bound(b"obs/subject");
        assert!(matches!(elsewhere.decrypt_in(b"doc-1", &c, &mut scratch), Err(SseError::Crypto(_))));
        assert!(matches!(RndCipher::new(&key).unwrap().decrypt(&c), Err(SseError::Crypto(_))));
    }

    #[test]
    fn short_input_rejected() {
        let (rnd, _) = setup();
        assert!(rnd.decrypt(&[0u8; 5]).is_err());
        assert!(rnd.decrypt(&[0u8; 12]).is_err());
    }
}
