//! HMAC-SHA256 (RFC 2104) and HKDF (RFC 5869).
//!
//! [`HmacCtx`] precomputes the ipad/opad SHA-256 midstates once per key;
//! each subsequent MAC then skips key preparation and both pad
//! compressions (half the compression-function calls of a from-scratch
//! HMAC for short messages) and finishes straight from the two midstates.
//! [`hmac_sha256`] stays as a thin wrapper for one-off call sites.

use crate::sha256::{Sha256, BLOCK_LEN, DIGEST_LEN};

/// A reusable HMAC-SHA256 key context holding the ipad/opad midstates.
///
/// # Examples
///
/// ```
/// use datablinder_primitives::hmac::{hmac_sha256, HmacCtx};
/// let ctx = HmacCtx::new(b"key");
/// assert_eq!(ctx.mac(b"message"), hmac_sha256(b"key", b"message"));
/// ```
#[derive(Clone)]
pub struct HmacCtx {
    inner: Sha256,
    outer: Sha256,
}

impl HmacCtx {
    /// Prepares the key (any length; hashed down if long) and absorbs the
    /// ipad/opad blocks into two hasher midstates.
    pub fn new(key: &[u8]) -> Self {
        Self::over(Sha256::new(), key)
    }

    /// The same context with its hashers pinned to the portable tier.
    pub(crate) fn portable(key: &[u8]) -> Self {
        Self::over(Sha256::portable(), key)
    }

    /// Keys a context whose hashers are copies of the fresh hasher `h`.
    fn over(h: Sha256, key: &[u8]) -> Self {
        let mut block_key = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            block_key[..DIGEST_LEN].copy_from_slice(&h.digest_after(key));
        } else {
            block_key[..key.len()].copy_from_slice(key);
        }
        let (mut inner, mut outer) = (h.clone(), h);
        inner.update(&block_key.map(|b| b ^ 0x36));
        outer.update(&block_key.map(|b| b ^ 0x5c));
        HmacCtx { inner, outer }
    }

    /// Starts an incremental MAC from the stored midstates.
    pub fn begin(&self) -> HmacSha256 {
        HmacSha256 { inner: self.inner.clone(), outer: self.outer.clone() }
    }

    /// One-shot MAC of `message` under this key.
    pub fn mac(&self, message: &[u8]) -> [u8; DIGEST_LEN] {
        self.outer.digest_after(&self.inner.digest_after(message))
    }

    /// HKDF-Expand (RFC 5869 §2.3) with this context's key as the PRK.
    pub(crate) fn expand(&self, info: &[u8], len: usize) -> Vec<u8> {
        assert!(len <= 255 * DIGEST_LEN, "HKDF output too long");
        let mut okm = Vec::with_capacity(len.next_multiple_of(DIGEST_LEN));
        let mut counter = 1u8;
        while okm.len() < len {
            let mut mac = self.begin();
            mac.update(&okm[okm.len().saturating_sub(DIGEST_LEN)..]);
            mac.update(info);
            mac.update(&[counter]);
            okm.extend_from_slice(&mac.finalize());
            counter = counter.wrapping_add(1); // loop exits before a 256th block is needed
        }
        okm.truncate(len);
        okm
    }
}

/// Incremental HMAC-SHA256.
///
/// # Examples
///
/// ```
/// use datablinder_primitives::hmac::hmac_sha256;
/// let tag = hmac_sha256(b"key", b"message");
/// assert_eq!(tag.len(), 32);
/// ```
#[derive(Clone)]
pub struct HmacSha256 {
    inner: Sha256,
    outer: Sha256,
}

impl HmacSha256 {
    /// Creates a MAC context for `key` (any length; hashed down if long).
    ///
    /// Call sites that MAC repeatedly under one key should build an
    /// [`HmacCtx`] once and [`HmacCtx::begin`] per message instead.
    pub fn new(key: &[u8]) -> Self {
        HmacCtx::new(key).begin()
    }

    /// Absorbs message bytes.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Produces the 32-byte tag.
    pub fn finalize(self) -> [u8; DIGEST_LEN] {
        self.outer.digest_after(&self.inner.finalize())
    }
}

/// One-shot HMAC-SHA256.
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; DIGEST_LEN] {
    HmacCtx::new(key).mac(message)
}

/// HKDF-Extract (RFC 5869 §2.2).
pub fn hkdf_extract(salt: &[u8], ikm: &[u8]) -> [u8; DIGEST_LEN] {
    hmac_sha256(salt, ikm)
}

/// HKDF-Expand (RFC 5869 §2.3).
///
/// # Panics
///
/// Panics if `len > 255 * 32` (the RFC limit).
pub fn hkdf_expand(prk: &[u8], info: &[u8], len: usize) -> Vec<u8> {
    HmacCtx::new(prk).expand(info, len)
}

/// HKDF extract-then-expand in one call.
pub fn hkdf(salt: &[u8], ikm: &[u8], info: &[u8], len: usize) -> Vec<u8> {
    hkdf_expand(&hkdf_extract(salt, ikm), info, len)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap()).collect()
    }

    #[test]
    fn rfc4231_case1() {
        let key = [0x0b; 20];
        let tag = hmac_sha256(&key, b"Hi There");
        assert_eq!(hex(&tag), "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
    }

    #[test]
    fn rfc4231_case2() {
        let tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(hex(&tag), "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
    }

    #[test]
    fn rfc4231_case3_long_data() {
        let key = [0xaa; 20];
        let data = [0xdd; 50];
        let tag = hmac_sha256(&key, &data);
        assert_eq!(hex(&tag), "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
    }

    #[test]
    fn rfc4231_case6_long_key() {
        let key = [0xaa; 131];
        let tag = hmac_sha256(&key, b"Test Using Larger Than Block-Size Key - Hash Key First");
        assert_eq!(hex(&tag), "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
    }

    #[test]
    fn rfc5869_case1() {
        let ikm = [0x0b; 22];
        let salt = unhex("000102030405060708090a0b0c");
        let info = unhex("f0f1f2f3f4f5f6f7f8f9");
        let prk = hkdf_extract(&salt, &ikm);
        assert_eq!(hex(&prk), "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5");
        let okm = hkdf_expand(&prk, &info, 42);
        assert_eq!(hex(&okm), "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865");
    }

    #[test]
    fn incremental_equals_oneshot() {
        let mut mac = HmacSha256::new(b"k");
        mac.update(b"hello ");
        mac.update(b"world");
        assert_eq!(mac.finalize(), hmac_sha256(b"k", b"hello world"));
    }

    #[test]
    fn ctx_reuse_equals_fresh_key_prep() {
        // One context, many messages: every MAC must equal the from-scratch
        // computation, including for a long (hashed-down) key.
        for key in [&[0x0b; 20][..], b"Jefe", &[0xaa; 131][..]] {
            let ctx = HmacCtx::new(key);
            for msg in [&b""[..], b"Hi There", &[0xdd; 50][..], &[0x61; 200][..]] {
                assert_eq!(ctx.mac(msg), hmac_sha256(key, msg));
                let mut inc = ctx.begin();
                inc.update(msg);
                assert_eq!(inc.finalize(), hmac_sha256(key, msg));
            }
        }
    }

    #[test]
    fn expand_length_limits() {
        let prk = hkdf_extract(b"s", b"ikm");
        assert_eq!(hkdf_expand(&prk, b"", 0).len(), 0);
        assert_eq!(hkdf_expand(&prk, b"", 33).len(), 33);
        assert_eq!(hkdf_expand(&prk, b"", 255 * 32).len(), 255 * 32);
    }

    #[test]
    #[should_panic(expected = "too long")]
    fn expand_too_long_panics() {
        hkdf_expand(&[0u8; 32], b"", 255 * 32 + 1);
    }

    #[test]
    fn different_infos_differ() {
        let prk = hkdf_extract(b"s", b"ikm");
        assert_ne!(hkdf_expand(&prk, b"a", 32), hkdf_expand(&prk, b"b", 32));
    }
}
