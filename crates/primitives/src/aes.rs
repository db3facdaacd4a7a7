//! AES block cipher (FIPS 197), supporting 128/192/256-bit keys.
//!
//! Encryption runs on one of two tiers, chosen once when the key is
//! expanded: AES-NI where the CPU has it (`isa`), the T-table rounds below
//! everywhere else. Both produce the same bytes; only the portable tier's
//! timing depends on the data (table lookups indexed by key and state).
//!
//! The S-box is derived at first use from the GF(2^8) inverse + affine map
//! rather than transcribed, eliminating table-transcription errors. Only
//! the encrypt direction exists: CTR and GCM never run the block cipher
//! backwards.

use std::sync::OnceLock;

use crate::isa::AesNi;
use crate::CryptoError;

/// AES block size in bytes.
pub const BLOCK_LEN: usize = 16;

/// Round-function lookup tables for the encrypt direction ("T-tables").
///
/// `TE0[x]` packs the MixColumns column produced by an S-boxed byte in row
/// 0 as a big-endian word `[2S, S, S, 3S]`; `TEi` is `TE0` rotated right by
/// `8*i` bits, matching the byte landing in row `i`. One round then costs
/// 16 table lookups and 16 XORs instead of per-byte SubBytes + ShiftRows +
/// MixColumns passes. Derived from the computed S-box at first use, like
/// the S-box itself.
fn enc_tables() -> &'static [[u32; 256]; 4] {
    static TABLES: OnceLock<[[u32; 256]; 4]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let sbox = sbox();
        let mut te = [[0u32; 256]; 4];
        for x in 0..256usize {
            let s = sbox[x];
            let te0 = u32::from_be_bytes([xtime(s), s, s, gmul3(s)]);
            te[0][x] = te0;
            te[1][x] = te0.rotate_right(8);
            te[2][x] = te0.rotate_right(16);
            te[3][x] = te0.rotate_right(24);
        }
        te
    })
}

fn sbox() -> &'static [u8; 256] {
    static TABLE: OnceLock<[u8; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        // Multiplicative inverse in GF(2^8) via 3 as a generator:
        // 3^i enumerates all non-zero field elements.
        let mut log = [0u8; 256];
        let mut alog = [0u8; 256];
        let mut p: u8 = 1;
        for i in 0..255u16 {
            alog[i as usize] = p;
            log[p as usize] = i as u8;
            p = gmul3(p);
        }
        let mut sbox = [0u8; 256];
        for x in 0..256usize {
            let inv = if x == 0 { 0 } else { alog[(255 - log[x] as usize) % 255] };
            // Affine transform: b ^= rotl(b,1)^rotl(b,2)^rotl(b,3)^rotl(b,4) ^ 0x63
            let b = inv;
            let s = b ^ b.rotate_left(1) ^ b.rotate_left(2) ^ b.rotate_left(3) ^ b.rotate_left(4) ^ 0x63;
            sbox[x] = s;
        }
        sbox
    })
}

/// Multiply by 3 in GF(2^8) (x+1 times the input).
fn gmul3(a: u8) -> u8 {
    a ^ xtime(a)
}

/// Multiply by x (i.e. 2) in GF(2^8) with the AES polynomial 0x11B.
fn xtime(a: u8) -> u8 {
    (a << 1) ^ if a & 0x80 != 0 { 0x1B } else { 0 }
}

/// An expanded-key AES instance.
///
/// # Examples
///
/// ```
/// use datablinder_primitives::aes::Aes;
///
/// # fn main() -> Result<(), datablinder_primitives::CryptoError> {
/// let aes = Aes::new(&[0u8; 16])?;
/// let mut block = [0u8; 16];
/// aes.encrypt_block(&mut block);
/// assert_eq!(block[..4], [0x66, 0xe9, 0x4b, 0xd4]);
/// # Ok(())
/// # }
/// ```
#[derive(Clone)]
pub struct Aes {
    /// Round keys in FIPS 197 byte order; `rounds + 1` are in use. What
    /// the AES-NI tier consumes.
    round_keys: [[u8; 16]; MAX_ROUND_KEYS],
    /// The same round keys as big-endian column words, the layout the
    /// T-table encrypt path consumes directly.
    enc_keys: [[u32; 4]; MAX_ROUND_KEYS],
    rounds: usize,
    hw: Option<AesNi>,
}

/// Round keys of AES-256, the longest schedule.
const MAX_ROUND_KEYS: usize = 15;

impl Aes {
    /// Expands a 16-, 24- or 32-byte key.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::InvalidKeyLength`] for other key sizes.
    pub fn new(key: &[u8]) -> Result<Self, CryptoError> {
        Self::on(AesNi::detect(), key)
    }

    /// The same cipher pinned to the portable tier.
    pub(crate) fn portable(key: &[u8]) -> Result<Self, CryptoError> {
        Self::on(None, key)
    }

    fn on(hw: Option<AesNi>, key: &[u8]) -> Result<Self, CryptoError> {
        let (nk, rounds) = match key.len() {
            16 => (4usize, 10usize),
            24 => (6, 12),
            32 => (8, 14),
            n => return Err(CryptoError::InvalidKeyLength { expected: "16, 24 or 32", got: n }),
        };
        let sbox = sbox();
        let nwords = 4 * (rounds + 1);
        // The schedule as big-endian column words (a word is a register,
        // not four byte stores the next step must wait for).
        let mut w = [0u32; 4 * MAX_ROUND_KEYS];
        for (word, bytes) in w.iter_mut().zip(key.chunks_exact(4)) {
            *word = u32::from_be_bytes(bytes.try_into().expect("exact 4-byte word"));
        }
        let sub_word = |word: u32| u32::from_be_bytes(word.to_be_bytes().map(|b| sbox[b as usize]));
        let mut rcon: u8 = 1;
        for i in nk..nwords {
            let mut temp = w[i - 1];
            if i % nk == 0 {
                temp = sub_word(temp.rotate_left(8)) ^ u32::from(rcon) << 24;
                rcon = xtime(rcon);
            } else if nk > 6 && i % nk == 4 {
                temp = sub_word(temp);
            }
            w[i] = w[i - nk] ^ temp;
        }
        let mut round_keys = [[0u8; 16]; MAX_ROUND_KEYS];
        let mut enc_keys = [[0u32; 4]; MAX_ROUND_KEYS];
        for ((rk, words), w) in round_keys.iter_mut().zip(&mut enc_keys).zip(w.chunks_exact(4)) {
            words.copy_from_slice(w);
            for (bytes, word) in rk.chunks_exact_mut(4).zip(w) {
                bytes.copy_from_slice(&word.to_be_bytes());
            }
        }
        Ok(Aes { round_keys, enc_keys, rounds, hw })
    }

    /// The tier this cipher runs on and the round keys that tier takes.
    pub(crate) fn hw(&self) -> Option<(AesNi, &[[u8; 16]])> {
        self.hw.map(|hw| (hw, &self.round_keys[..=self.rounds]))
    }

    /// Encrypts one 16-byte block in place.
    pub fn encrypt_block(&self, block: &mut [u8; BLOCK_LEN]) {
        match self.hw() {
            Some((hw, round_keys)) => hw.encrypt_block(round_keys, block),
            None => self.encrypt_block_portable(block),
        }
    }

    /// The T-table round function: the state lives in four big-endian
    /// column words, and each round combines ShiftRows + SubBytes +
    /// MixColumns + AddRoundKey into four table-lookup XOR chains.
    pub(crate) fn encrypt_block_portable(&self, block: &mut [u8; BLOCK_LEN]) {
        let te = enc_tables();
        let rk = &self.enc_keys;
        let mut s0 = u32::from_be_bytes([block[0], block[1], block[2], block[3]]) ^ rk[0][0];
        let mut s1 = u32::from_be_bytes([block[4], block[5], block[6], block[7]]) ^ rk[0][1];
        let mut s2 = u32::from_be_bytes([block[8], block[9], block[10], block[11]]) ^ rk[0][2];
        let mut s3 = u32::from_be_bytes([block[12], block[13], block[14], block[15]]) ^ rk[0][3];
        for k in &rk[1..self.rounds] {
            let t0 = te[0][(s0 >> 24) as usize]
                ^ te[1][((s1 >> 16) & 0xff) as usize]
                ^ te[2][((s2 >> 8) & 0xff) as usize]
                ^ te[3][(s3 & 0xff) as usize]
                ^ k[0];
            let t1 = te[0][(s1 >> 24) as usize]
                ^ te[1][((s2 >> 16) & 0xff) as usize]
                ^ te[2][((s3 >> 8) & 0xff) as usize]
                ^ te[3][(s0 & 0xff) as usize]
                ^ k[1];
            let t2 = te[0][(s2 >> 24) as usize]
                ^ te[1][((s3 >> 16) & 0xff) as usize]
                ^ te[2][((s0 >> 8) & 0xff) as usize]
                ^ te[3][(s1 & 0xff) as usize]
                ^ k[2];
            let t3 = te[0][(s3 >> 24) as usize]
                ^ te[1][((s0 >> 16) & 0xff) as usize]
                ^ te[2][((s1 >> 8) & 0xff) as usize]
                ^ te[3][(s2 & 0xff) as usize]
                ^ k[3];
            (s0, s1, s2, s3) = (t0, t1, t2, t3);
        }
        // Final round: SubBytes + ShiftRows + AddRoundKey, no MixColumns.
        let sbox = sbox();
        let k = &rk[self.rounds];
        let sub = |a: u32, b: u32, c: u32, d: u32| -> u32 {
            (u32::from(sbox[(a >> 24) as usize]) << 24)
                | (u32::from(sbox[((b >> 16) & 0xff) as usize]) << 16)
                | (u32::from(sbox[((c >> 8) & 0xff) as usize]) << 8)
                | u32::from(sbox[(d & 0xff) as usize])
        };
        let t0 = sub(s0, s1, s2, s3) ^ k[0];
        let t1 = sub(s1, s2, s3, s0) ^ k[1];
        let t2 = sub(s2, s3, s0, s1) ^ k[2];
        let t3 = sub(s3, s0, s1, s2) ^ k[3];
        block[0..4].copy_from_slice(&t0.to_be_bytes());
        block[4..8].copy_from_slice(&t1.to_be_bytes());
        block[8..12].copy_from_slice(&t2.to_be_bytes());
        block[12..16].copy_from_slice(&t3.to_be_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unhex16(s: &str) -> [u8; 16] {
        let mut out = [0u8; 16];
        for i in 0..16 {
            out[i] = u8::from_str_radix(&s[2 * i..2 * i + 2], 16).unwrap();
        }
        out
    }

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap()).collect()
    }

    #[test]
    fn sbox_known_entries() {
        let sbox = sbox();
        assert_eq!(sbox[0x00], 0x63);
        assert_eq!(sbox[0x01], 0x7c);
        assert_eq!(sbox[0x53], 0xed);
        assert_eq!(sbox[0xff], 0x16);
    }

    #[test]
    fn fips197_appendix_c1_aes128() {
        let key = unhex("000102030405060708090a0b0c0d0e0f");
        let aes = Aes::new(&key).unwrap();
        let mut block = unhex16("00112233445566778899aabbccddeeff");
        aes.encrypt_block(&mut block);
        assert_eq!(block, unhex16("69c4e0d86a7b0430d8cdb78070b4c55a"));
    }

    #[test]
    fn fips197_appendix_c2_aes192() {
        let key = unhex("000102030405060708090a0b0c0d0e0f1011121314151617");
        let aes = Aes::new(&key).unwrap();
        let mut block = unhex16("00112233445566778899aabbccddeeff");
        aes.encrypt_block(&mut block);
        assert_eq!(block, unhex16("dda97ca4864cdfe06eaf70a0ec0d7191"));
    }

    #[test]
    fn fips197_appendix_c3_aes256() {
        let key = unhex("000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
        let aes = Aes::new(&key).unwrap();
        let mut block = unhex16("00112233445566778899aabbccddeeff");
        aes.encrypt_block(&mut block);
        assert_eq!(block, unhex16("8ea2b7ca516745bfeafc49904b496089"));
    }

    #[test]
    fn invalid_key_length() {
        assert!(matches!(Aes::new(&[0u8; 15]), Err(CryptoError::InvalidKeyLength { .. })));
        assert!(matches!(Aes::new(&[0u8; 0]), Err(CryptoError::InvalidKeyLength { .. })));
    }
}
