//! Deterministic encryption (DET) — protection class 4, leakage
//! *Equalities*.
//!
//! SIV-style construction: the synthetic IV is `HMAC(k_mac, plaintext)`
//! truncated to 16 bytes; the body is AES-CTR under `k_enc` with that IV.
//! Identical plaintexts yield identical ciphertexts — that is exactly the
//! (useful) leakage: the cloud can index and equality-match ciphertexts
//! directly. Used five times in the paper's benchmark schema (`effective`,
//! `issued`, and friends).

use datablinder_primitives::aes::Aes;
use datablinder_primitives::ct::constant_time_eq;
use datablinder_primitives::ctr::ctr_xor;
use datablinder_primitives::hmac::HmacCtx;
use datablinder_primitives::keys::SymmetricKey;

use crate::SseError;

/// Deterministic authenticated cipher.
///
/// # Examples
///
/// ```
/// use datablinder_sse::det::DetCipher;
/// use datablinder_primitives::keys::SymmetricKey;
///
/// # fn main() -> Result<(), datablinder_sse::SseError> {
/// let det = DetCipher::new(&SymmetricKey::from_bytes(&[1u8; 32]))?;
/// let c1 = det.encrypt(b"final");
/// let c2 = det.encrypt(b"final");
/// assert_eq!(c1, c2, "determinism is the point");
/// assert_eq!(det.decrypt(&c1)?, b"final");
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct DetCipher {
    aes: Aes,
    // HMAC midstates for the SIV key, precomputed once: each encrypt/
    // decrypt skips key preparation and both pad compressions.
    mac: HmacCtx,
}

impl DetCipher {
    /// Derives the SIV subkeys from `key`.
    ///
    /// # Errors
    ///
    /// Propagates AES key-schedule errors (never for 32-byte input keys).
    pub fn new(key: &SymmetricKey) -> Result<Self, SseError> {
        let enc_key = key.derive(b"det/enc", 16);
        let mac_key = key.derive(b"det/mac", 32);
        Ok(DetCipher { aes: Aes::new(enc_key.as_bytes())?, mac: HmacCtx::new(mac_key.as_bytes()) })
    }

    /// Encrypts deterministically: `siv(16) || body`.
    pub fn encrypt(&self, plaintext: &[u8]) -> Vec<u8> {
        let tag = self.mac.mac(plaintext);
        let mut siv = [0u8; 16];
        siv.copy_from_slice(&tag[..16]);
        let mut out = Vec::with_capacity(16 + plaintext.len());
        out.extend_from_slice(&siv);
        out.extend_from_slice(plaintext);
        ctr_xor(&self.aes, &siv, &mut out[16..]);
        out
    }

    /// [`DetCipher::decrypt_in`] into a new buffer.
    ///
    /// # Errors
    ///
    /// As [`DetCipher::decrypt_in`].
    pub fn decrypt(&self, ciphertext: &[u8]) -> Result<Vec<u8>, SseError> {
        Ok(self.decrypt_in(ciphertext, &mut Vec::new())?.to_vec())
    }

    /// Decrypts inside `scratch`, which a caller reuses across many opens,
    /// and verifies the synthetic IV over the result before returning it.
    /// On a mismatch `scratch` is zeroed.
    ///
    /// # Errors
    ///
    /// [`SseError::Malformed`] for short inputs; [`SseError::Crypto`] when
    /// the recomputed SIV mismatches (tampering or wrong key).
    pub fn decrypt_in<'s>(&self, ciphertext: &[u8], scratch: &'s mut Vec<u8>) -> Result<&'s [u8], SseError> {
        let Some((siv, body)) = ciphertext.split_first_chunk::<16>() else {
            return Err(SseError::Malformed("det ciphertext"));
        };
        scratch.clear();
        scratch.extend_from_slice(body);
        ctr_xor(&self.aes, siv, scratch);
        let tag = self.mac.mac(scratch);
        if !constant_time_eq(&tag[..16], siv) {
            scratch.fill(0);
            return Err(SseError::Crypto(datablinder_primitives::CryptoError::AuthenticationFailed));
        }
        Ok(scratch)
    }

    /// The equality-search token for a value: its deterministic ciphertext.
    /// (Cloud-side equality search is ciphertext equality.)
    pub fn search_token(&self, value: &[u8]) -> Vec<u8> {
        self.encrypt(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn det() -> DetCipher {
        DetCipher::new(&SymmetricKey::from_bytes(&[9u8; 32])).unwrap()
    }

    #[test]
    fn deterministic_per_key() {
        let d = det();
        assert_eq!(d.encrypt(b"x"), d.encrypt(b"x"));
        let other = DetCipher::new(&SymmetricKey::from_bytes(&[8u8; 32])).unwrap();
        assert_ne!(d.encrypt(b"x"), other.encrypt(b"x"));
    }

    #[test]
    fn distinct_plaintexts_distinct_ciphertexts() {
        let d = det();
        assert_ne!(d.encrypt(b"a"), d.encrypt(b"b"));
        assert_ne!(d.encrypt(b""), d.encrypt(b"a"));
    }

    #[test]
    fn roundtrip_various_lengths() {
        let d = det();
        for len in [0usize, 1, 15, 16, 17, 1000] {
            let pt: Vec<u8> = (0..len as u32).map(|i| (i * 7) as u8).collect();
            assert_eq!(d.decrypt(&d.encrypt(&pt)).unwrap(), pt, "len {len}");
        }
    }

    #[test]
    fn tamper_detected() {
        let d = det();
        let mut c = d.encrypt(b"payload");
        c[20] ^= 1;
        assert!(matches!(d.decrypt(&c), Err(SseError::Crypto(_))));
        c[20] ^= 1;
        c[0] ^= 1; // IV tamper
        assert!(matches!(d.decrypt(&c), Err(SseError::Crypto(_))));
    }

    #[test]
    fn short_input_rejected() {
        let d = det();
        assert!(matches!(d.decrypt(&[0u8; 15]), Err(SseError::Malformed(_))));
    }

    #[test]
    fn search_token_matches_stored_ciphertext() {
        let d = det();
        assert_eq!(d.search_token(b"2012-05-12"), d.encrypt(b"2012-05-12"));
    }
}
