//! AES-GCM authenticated encryption (NIST SP 800-38D) with GHASH over
//! GF(2^128).
//!
//! A tag is one GHASH pass over `aad ‖ ciphertext ‖ lengths` and one
//! counter pass that also encrypts `J0`, the tag's mask. Seal and open run
//! the same two passes in opposite order; [`AesGcm::open_in_place`] is the
//! one open, and the allocating [`AesGcm::open`] wraps it.
//!
//! GHASH runs on one of two tiers, chosen once in [`AesGcm::new`]:
//! carry-less multiplication where the CPU has PCLMULQDQ (`isa`; four
//! blocks per reduction over `h…h⁴`, computed once per key), and per-key
//! multiplication tables everywhere else, so absorbing a block costs 16
//! table lookups instead of the 128-round bit loop of the definition. The
//! AES tier is chosen independently by [`Aes`].

use std::sync::OnceLock;

use crate::aes::{Aes, BLOCK_LEN};
use crate::ct::constant_time_eq;
use crate::ctr::{counter_block, ctr_xor};
use crate::isa::Clmul;
use crate::keys::SymmetricKey;
use crate::CryptoError;

/// GCM nonce size in bytes (the recommended 96-bit size; other sizes are
/// not supported).
pub const NONCE_LEN: usize = 12;
/// GCM tag size in bytes.
pub const TAG_LEN: usize = 16;

/// The GHASH reduction polynomial constant (x^128 + x^7 + x^2 + x + 1 in
/// GCM's reflected representation).
const R: u128 = 0xE1u128 << 120;

/// Multiply by x in GCM's reflected representation (bit 127 = coefficient
/// of x^0, so "times x" is a right shift plus conditional reduction).
fn mulx(v: u128) -> u128 {
    let out = v >> 1;
    if v & 1 == 1 {
        out ^ R
    } else {
        out
    }
}

/// Key-independent reduction table for shifting a GHASH accumulator down
/// by one byte: `R8[b] = x^8 · b` where `b` occupies the low 8 bits of the
/// accumulator (the x^120..x^127 coefficients that fall off the end).
fn r8_table() -> &'static [u128; 256] {
    static TABLE: OnceLock<[u128; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = [0u128; 256];
        for (b, slot) in t.iter_mut().enumerate() {
            let mut v = b as u128;
            for _ in 0..8 {
                v = mulx(v);
            }
            *slot = v;
        }
        t
    })
}

/// Key-independent reduction table for shifting the accumulator down by
/// two bytes in one step: `R16LO[b] = x^16 · b` for `b` in the low 8 bits.
/// Together with [`r8_table`] this decomposes `x^16 · v` into three
/// independent lookups (see [`GhashTable::mul_h`]).
fn r16lo_table() -> &'static [u128; 256] {
    static TABLE: OnceLock<[u128; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let r8 = r8_table();
        let mut t = [0u128; 256];
        for (b, slot) in t.iter_mut().enumerate() {
            let v = r8[b];
            *slot = (v >> 8) ^ r8[(v & 0xff) as usize];
        }
        t
    })
}

/// Per-key GHASH multiplication tables: `t[b]` is the field product of the
/// hash subkey `h` with the one-byte polynomial `b` placed at the top of
/// the block (coefficients x^0..x^7), and `t8[b] = x^8 · t[b]` so the
/// Horner loop can consume two bytes per step. 2 × 256 × 16 bytes = 8 KiB
/// per key, built once in [`AesGcm::new`] on the portable tier only.
#[derive(Clone)]
struct GhashTable {
    t: Box<[u128; 256]>,
    t8: Box<[u128; 256]>,
}

impl GhashTable {
    fn new(h: u128) -> Self {
        let mut t = Box::new([0u128; 256]);
        // Single-bit entries by repeated halving: byte 0x80 is x^0 (whose
        // product is h itself), and each lower bit is one more power of x.
        let mut v = h;
        let mut bit = 0x80usize;
        while bit >= 1 {
            t[bit] = v;
            v = mulx(v);
            bit >>= 1;
        }
        // Remaining entries by linearity, combining the lowest set bit
        // with the (already filled) rest of the byte.
        for b in 2..256usize {
            if b & (b - 1) != 0 {
                let low = b & b.wrapping_neg();
                t[b] = t[low] ^ t[b ^ low];
            }
        }
        // The odd-byte companion: every entry shifted down one byte.
        let r8 = r8_table();
        let mut t8 = Box::new([0u128; 256]);
        for (e8, e) in t8.iter_mut().zip(t.iter()) {
            *e8 = (e >> 8) ^ r8[(e & 0xff) as usize];
        }
        GhashTable { t, t8 }
    }

    /// Multiplies the accumulator by `h`: Horner over the 16 bytes of `y`
    /// from the highest powers (bottom bytes) up, two bytes per step. The
    /// `x^16` shift is decomposed into three *independent* lookups
    /// (`v >> 16`, `R8` on the middle byte, `R16LO` on the low byte), so
    /// each step's serial dependency is a single XOR tree — roughly twice
    /// the throughput of the byte-at-a-time loop.
    fn mul_h(&self, y: u128) -> u128 {
        let r8 = r8_table();
        let r16 = r16lo_table();
        let bytes = y.to_be_bytes();
        let mut z = self.t[bytes[14] as usize] ^ self.t8[bytes[15] as usize];
        let mut j = 12;
        loop {
            z = (z >> 16)
                ^ r8[((z >> 8) & 0xff) as usize]
                ^ r16[(z & 0xff) as usize]
                ^ self.t[bytes[j] as usize]
                ^ self.t8[bytes[j + 1] as usize];
            if j == 0 {
                break;
            }
            j -= 2;
        }
        z
    }
}

/// The GHASH key in the form its tier multiplies by.
#[derive(Clone)]
enum Ghash {
    /// Portable tier.
    Tables(GhashTable),
    /// Hardware tier: the subkey's first four powers as
    /// [`Clmul::ghash_powers`] leaves them.
    Clmul(Clmul, [u128; 4]),
}

impl Ghash {
    fn new(hw: Option<Clmul>, h: u128) -> Self {
        match hw {
            Some(hw) => Ghash::Clmul(hw, hw.ghash_powers(h)),
            None => Ghash::Tables(GhashTable::new(h)),
        }
    }

    /// SP 800-38D's `S`: GHASH over `aad` and `ciphertext`, each zero-padded
    /// to whole blocks, then their bit lengths, in one pass.
    fn hash(&self, aad: &[u8], ciphertext: &[u8]) -> u128 {
        let blocks = blocks(aad, ciphertext);
        match self {
            Ghash::Clmul(hw, powers) => hw.ghash(powers, blocks),
            Ghash::Tables(table) => blocks.fold(0, |y, block| table.mul_h(y ^ block)),
        }
    }
}

/// The blocks GHASH absorbs for `S`, as big-endian integers.
fn blocks<'a>(aad: &'a [u8], ciphertext: &'a [u8]) -> impl Iterator<Item = u128> + 'a {
    let lengths = ((aad.len() as u128 * 8) << 64) | (ciphertext.len() as u128 * 8);
    let block = |chunk: &[u8]| match <[u8; BLOCK_LEN]>::try_from(chunk) {
        Ok(full) => u128::from_be_bytes(full),
        Err(_) => {
            let mut padded = [0u8; BLOCK_LEN];
            padded[..chunk.len()].copy_from_slice(chunk);
            u128::from_be_bytes(padded)
        }
    };
    aad.chunks(BLOCK_LEN).chain(ciphertext.chunks(BLOCK_LEN)).map(block).chain(std::iter::once(lengths))
}

/// GCM's counter pass: XORs the keystream of counters 2, 3, … under
/// `nonce` into `data` and returns the block of counter 1, `E(J0)`, which
/// masks the tag. On the AES-NI tier it rides in the first batch.
fn ctr_pass(aes: &Aes, nonce: &[u8; NONCE_LEN], data: &mut [u8]) -> u128 {
    let mut j0 = counter_block(nonce, 1);
    match aes.hw() {
        Some((hw, round_keys)) => j0 = hw.ctr_xor_after(round_keys, &j0, data),
        None => {
            ctr_xor(aes, &counter_block(nonce, 2), data);
            aes.encrypt_block(&mut j0);
        }
    }
    u128::from_be_bytes(j0)
}

/// An AES-GCM AEAD instance.
///
/// # Examples
///
/// ```
/// use datablinder_primitives::gcm::AesGcm;
/// use datablinder_primitives::keys::SymmetricKey;
///
/// # fn main() -> Result<(), datablinder_primitives::CryptoError> {
/// let cipher = AesGcm::new(&SymmetricKey::from_bytes(&[0u8; 32]))?;
/// let mut sealed = cipher.seal(&[0u8; 12], b"", b"secret");
/// assert_eq!(cipher.open_in_place(&[0u8; 12], b"", &mut sealed)?, b"secret");
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct AesGcm {
    aes: Aes,
    ghash: Ghash,
}

impl AesGcm {
    /// Creates a GCM instance from a 16/24/32-byte key.
    ///
    /// Builds the AES key schedule and the GHASH key once (on the portable
    /// tier an 8 KiB table, on the hardware tier four powers of the
    /// subkey); every subsequent seal/open reuses both.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidKeyLength`] for unsupported sizes.
    pub fn new(key: &SymmetricKey) -> Result<Self, CryptoError> {
        Ok(Self::over(Aes::new(key.as_bytes())?, Clmul::detect()))
    }

    /// The same cipher with AES and GHASH pinned to the portable tier.
    pub(crate) fn portable(key: &SymmetricKey) -> Result<Self, CryptoError> {
        Ok(Self::over(Aes::portable(key.as_bytes())?, None))
    }

    fn over(aes: Aes, hw: Option<Clmul>) -> Self {
        let mut h = [0u8; BLOCK_LEN];
        aes.encrypt_block(&mut h);
        AesGcm { aes, ghash: Ghash::new(hw, u128::from_be_bytes(h)) }
    }

    /// Encrypts `plaintext` with `nonce` and `aad`; output is
    /// `ciphertext || tag`.
    pub fn seal(&self, nonce: &[u8; NONCE_LEN], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(plaintext.len() + TAG_LEN);
        self.seal_into(nonce, aad, plaintext, &mut out);
        out
    }

    /// Appends `ciphertext || tag` to `out`, encrypting in place where the
    /// plaintext was copied; one `reserve` covers the whole sealed record,
    /// so callers that pre-size `out` pay zero allocator round trips here.
    pub fn seal_into(&self, nonce: &[u8; NONCE_LEN], aad: &[u8], plaintext: &[u8], out: &mut Vec<u8>) {
        out.reserve(plaintext.len() + TAG_LEN);
        let start = out.len();
        out.extend_from_slice(plaintext);
        let mask = ctr_pass(&self.aes, nonce, &mut out[start..]);
        let tag = self.ghash.hash(aad, &out[start..]) ^ mask;
        out.extend_from_slice(&tag.to_be_bytes());
    }

    /// Decrypts and verifies `ciphertext || tag` into a new buffer: a copy,
    /// then [`AesGcm::open_in_place`].
    ///
    /// # Errors
    ///
    /// Same contract as [`AesGcm::open_in_place`].
    pub fn open(&self, nonce: &[u8; NONCE_LEN], aad: &[u8], sealed: &[u8]) -> Result<Vec<u8>, CryptoError> {
        let mut buf = sealed.to_vec();
        let len = self.open_in_place(nonce, aad, &mut buf)?.len();
        buf.truncate(len);
        Ok(buf)
    }

    /// Verifies `ciphertext || tag`, held in `sealed`, and decrypts the
    /// ciphertext where it lies; returns the plaintext, the first
    /// `sealed.len() - TAG_LEN` bytes of `sealed`.
    ///
    /// GHASH reads the ciphertext before the counter pass overwrites it, and
    /// the tag is compared before anything is returned. On a mismatch the
    /// decrypted bytes are zeroed, so a failed open leaves no plaintext in
    /// `sealed`.
    ///
    /// # Errors
    ///
    /// [`CryptoError::MalformedCiphertext`] if shorter than a tag (`sealed`
    /// untouched), [`CryptoError::AuthenticationFailed`] if the tag does not
    /// verify.
    pub fn open_in_place<'b>(
        &self,
        nonce: &[u8; NONCE_LEN],
        aad: &[u8],
        sealed: &'b mut [u8],
    ) -> Result<&'b mut [u8], CryptoError> {
        let ct_len = sealed.len().checked_sub(TAG_LEN).ok_or(CryptoError::MalformedCiphertext)?;
        let (data, tag) = sealed.split_at_mut(ct_len);
        let hash = self.ghash.hash(aad, data);
        let expect = (hash ^ ctr_pass(&self.aes, nonce, data)).to_be_bytes();
        if !constant_time_eq(&expect, tag) {
            data.fill(0);
            return Err(CryptoError::AuthenticationFailed);
        }
        Ok(data)
    }

    /// GHASH over `aad` and `ciphertext`, the tag before its mask.
    ///
    /// Exposed for the differential tests; production callers go through
    /// seal/open.
    pub fn ghash(&self, aad: &[u8], ciphertext: &[u8]) -> [u8; BLOCK_LEN] {
        self.ghash.hash(aad, ciphertext).to_be_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn nist_test_case_1_empty() {
        // AES-128, zero key, zero IV, empty everything.
        let cipher = AesGcm::new(&SymmetricKey::from_bytes(&[0u8; 16])).unwrap();
        let sealed = cipher.seal(&[0u8; 12], b"", b"");
        assert_eq!(hex(&sealed), "58e2fccefa7e3061367f1d57a4e7455a");
    }

    #[test]
    fn nist_test_case_2_one_block() {
        let cipher = AesGcm::new(&SymmetricKey::from_bytes(&[0u8; 16])).unwrap();
        let sealed = cipher.seal(&[0u8; 12], b"", &[0u8; 16]);
        assert_eq!(hex(&sealed), "0388dace60b6a392f328c2b971b2fe78ab6e47d42cec13bdf53a67b21257bddf");
    }

    #[test]
    fn nist_test_case_13_aes256_empty() {
        // AES-256, zero key, zero IV, empty everything (SP 800-38D set).
        let cipher = AesGcm::new(&SymmetricKey::from_bytes(&[0u8; 32])).unwrap();
        let sealed = cipher.seal(&[0u8; 12], b"", b"");
        assert_eq!(hex(&sealed), "530f8afbc74536b9a963b4f1c4cb738b");
    }

    #[test]
    fn nist_test_case_14_aes256_one_block() {
        let cipher = AesGcm::new(&SymmetricKey::from_bytes(&[0u8; 32])).unwrap();
        let sealed = cipher.seal(&[0u8; 12], b"", &[0u8; 16]);
        assert_eq!(hex(&sealed), "cea7403d4d606b6e074ec5d3baf39d18d0d1c8a799996bf0265b98b5d48ab919");
    }

    #[test]
    fn nist_test_case_7_aes192_empty() {
        let cipher = AesGcm::new(&SymmetricKey::from_bytes(&[0u8; 24])).unwrap();
        let sealed = cipher.seal(&[0u8; 12], b"", b"");
        assert_eq!(hex(&sealed), "cd33b28ac773f74ba00ed1f312572435");
    }

    #[test]
    fn nist_test_case_8_aes192_one_block() {
        let cipher = AesGcm::new(&SymmetricKey::from_bytes(&[0u8; 24])).unwrap();
        let sealed = cipher.seal(&[0u8; 12], b"", &[0u8; 16]);
        assert_eq!(hex(&sealed), "98e7247c07f0fe411c267e4384b0f6002ff58d80033927ab8ef4d4587514f0fb");
    }

    #[test]
    fn roundtrip_with_aad() {
        let cipher = AesGcm::new(&SymmetricKey::from_bytes(&[3u8; 32])).unwrap();
        let nonce = [5u8; 12];
        for len in [0usize, 1, 15, 16, 17, 100] {
            let pt: Vec<u8> = (0..len as u32).map(|i| i as u8).collect();
            let sealed = cipher.seal(&nonce, b"context", &pt);
            assert_eq!(sealed.len(), len + TAG_LEN);
            assert_eq!(cipher.open(&nonce, b"context", &sealed).unwrap(), pt, "len {len}");
        }
    }

    #[test]
    fn open_in_place_returns_the_plaintext_or_nothing() {
        let cipher = AesGcm::new(&SymmetricKey::from_bytes(&[3u8; 16])).unwrap();
        let nonce = [5u8; 12];
        let sealed = cipher.seal(&nonce, b"aad", b"payload");
        let mut buf = sealed.clone();
        assert_eq!(cipher.open_in_place(&nonce, b"aad", &mut buf).unwrap(), b"payload");
        assert_eq!(&buf[..7], b"payload", "decrypted where it lay");
        let mut forged = sealed.clone();
        forged[0] ^= 1;
        assert_eq!(cipher.open_in_place(&nonce, b"aad", &mut forged), Err(CryptoError::AuthenticationFailed));
        assert_eq!(&forged[..7], &[0u8; 7], "a failed open leaves no plaintext behind");
        let mut short = [0u8; 15];
        assert_eq!(cipher.open_in_place(&nonce, b"aad", &mut short), Err(CryptoError::MalformedCiphertext));
    }

    #[test]
    fn tamper_detection() {
        let cipher = AesGcm::new(&SymmetricKey::from_bytes(&[3u8; 16])).unwrap();
        let nonce = [5u8; 12];
        let mut sealed = cipher.seal(&nonce, b"aad", b"payload");
        // Flip a ciphertext bit.
        sealed[0] ^= 1;
        assert_eq!(cipher.open(&nonce, b"aad", &sealed), Err(CryptoError::AuthenticationFailed));
        sealed[0] ^= 1;
        // Flip a tag bit.
        let last = sealed.len() - 1;
        sealed[last] ^= 1;
        assert_eq!(cipher.open(&nonce, b"aad", &sealed), Err(CryptoError::AuthenticationFailed));
        sealed[last] ^= 1;
        // Wrong AAD.
        assert_eq!(cipher.open(&nonce, b"other", &sealed), Err(CryptoError::AuthenticationFailed));
        // Wrong nonce.
        assert_eq!(cipher.open(&[6u8; 12], b"aad", &sealed), Err(CryptoError::AuthenticationFailed));
        // Intact opens fine.
        assert_eq!(cipher.open(&nonce, b"aad", &sealed).unwrap(), b"payload");
    }

    #[test]
    fn truncated_input_rejected() {
        let cipher = AesGcm::new(&SymmetricKey::from_bytes(&[3u8; 16])).unwrap();
        assert_eq!(cipher.open(&[0u8; 12], b"", &[0u8; 15]), Err(CryptoError::MalformedCiphertext));
    }
}
