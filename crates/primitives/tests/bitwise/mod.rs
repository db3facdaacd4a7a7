//! The bitwise definitions both tiers of the symmetric kernels are checked
//! against: AES from FIPS 197 one byte at a time (S-box worked out from the
//! field inverse, no round tables), GF(2^128) multiplication by the 128-round shift-xor
//! loop of SP 800-38D, and CTR / GCM assembled from those one block at a
//! time. Slow and obvious on purpose; nothing here shares code with `src`.

#![allow(dead_code)] // each suite uses the subset it compares against

/// Multiply by x in GF(2^8) with the AES polynomial 0x11B.
fn xtime(a: u8) -> u8 {
    (a << 1) ^ if a & 0x80 != 0 { 0x1B } else { 0 }
}

/// GF(2^8) multiplication (Russian peasant).
fn gmul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    while b != 0 {
        if b & 1 != 0 {
            p ^= a;
        }
        a = xtime(a);
        b >>= 1;
    }
    p
}

/// FIPS 197 §5.1.1: the multiplicative inverse (a^254, with 0 ↦ 0)
/// followed by the affine transformation; worked out once per byte value.
fn sbox(a: u8) -> u8 {
    static SBOX: std::sync::OnceLock<[u8; 256]> = std::sync::OnceLock::new();
    SBOX.get_or_init(|| {
        std::array::from_fn(|a| {
            let inv = (0..254).fold(1u8, |inv, _| gmul(inv, a as u8));
            inv ^ inv.rotate_left(1) ^ inv.rotate_left(2) ^ inv.rotate_left(3) ^ inv.rotate_left(4) ^ 0x63
        })
    })[a as usize]
}

/// AES encryption straight from FIPS 197 §5.1–5.2.
pub struct Aes {
    round_keys: Vec<[u8; 16]>,
}

impl Aes {
    /// Key expansion for a 16-, 24- or 32-byte key.
    pub fn new(key: &[u8]) -> Self {
        assert!(matches!(key.len(), 16 | 24 | 32), "AES key of {} bytes", key.len());
        let nk = key.len() / 4;
        let rounds = nk + 6;
        let mut w: Vec<[u8; 4]> = key.chunks(4).map(|c| c.try_into().unwrap()).collect();
        let mut rcon = 1u8;
        for i in nk..4 * (rounds + 1) {
            let mut temp = w[i - 1];
            if i % nk == 0 {
                temp.rotate_left(1);
                temp = temp.map(sbox);
                temp[0] ^= rcon;
                rcon = xtime(rcon);
            } else if nk > 6 && i % nk == 4 {
                temp = temp.map(sbox);
            }
            w.push(std::array::from_fn(|j| w[i - nk][j] ^ temp[j]));
        }
        Aes { round_keys: w.chunks(4).map(|rk| rk.concat().try_into().unwrap()).collect() }
    }

    /// SubBytes → ShiftRows → MixColumns → AddRoundKey, one byte at a time.
    /// State layout: byte index = 4·column + row.
    pub fn encrypt_block(&self, state: &mut [u8; 16]) {
        let add_round_key = |state: &mut [u8; 16], rk: &[u8; 16]| {
            for (s, k) in state.iter_mut().zip(rk) {
                *s ^= k;
            }
        };
        let rounds = self.round_keys.len() - 1;
        add_round_key(state, &self.round_keys[0]);
        for r in 1..=rounds {
            *state = state.map(sbox);
            // Row `row` rotates left by `row` columns.
            let before = *state;
            for col in 0..4 {
                for row in 1..4 {
                    state[4 * col + row] = before[4 * ((col + row) % 4) + row];
                }
            }
            if r < rounds {
                for col in state.chunks_mut(4) {
                    let [a, b, c, d] = [col[0], col[1], col[2], col[3]];
                    col[0] = gmul(a, 2) ^ gmul(b, 3) ^ c ^ d;
                    col[1] = a ^ gmul(b, 2) ^ gmul(c, 3) ^ d;
                    col[2] = a ^ b ^ gmul(c, 2) ^ gmul(d, 3);
                    col[3] = gmul(a, 3) ^ b ^ c ^ gmul(d, 2);
                }
            }
            add_round_key(state, &self.round_keys[r]);
        }
    }
}

/// CTR with a 32-bit big-endian wrapping counter in the last four bytes,
/// one block and one byte at a time.
pub fn ctr_xor(aes: &Aes, iv: &[u8; 16], data: &mut [u8]) {
    let mut counter = *iv;
    for chunk in data.chunks_mut(16) {
        let mut keystream = counter;
        aes.encrypt_block(&mut keystream);
        for (d, k) in chunk.iter_mut().zip(keystream) {
            *d ^= k;
        }
        let next = u32::from_be_bytes(counter[12..].try_into().unwrap()).wrapping_add(1);
        counter[12..].copy_from_slice(&next.to_be_bytes());
    }
}

/// Multiplication in GF(2^128) with GCM bit ordering (SP 800-38D
/// algorithm 1): bit 127 of the integer is the coefficient of x^0.
pub fn gf_mul(x: u128, y: u128) -> u128 {
    const R: u128 = 0xE1 << 120;
    let mut z = 0u128;
    let mut v = y;
    for i in 0..128 {
        if (x >> (127 - i)) & 1 == 1 {
            z ^= v;
        }
        v = if v & 1 == 1 { (v >> 1) ^ R } else { v >> 1 };
    }
    z
}

/// GHASH (SP 800-38D algorithm 2) under hash subkey `h`.
pub fn ghash(h: u128, aad: &[u8], ciphertext: &[u8]) -> [u8; 16] {
    let mut y = 0u128;
    for part in [aad, ciphertext] {
        for chunk in part.chunks(16) {
            let mut block = [0u8; 16];
            block[..chunk.len()].copy_from_slice(chunk);
            y = gf_mul(y ^ u128::from_be_bytes(block), h);
        }
    }
    let lengths = ((aad.len() as u128 * 8) << 64) | (ciphertext.len() as u128 * 8);
    gf_mul(y ^ lengths, h).to_be_bytes()
}

/// The hash subkey: the encryption of the zero block.
pub fn hash_subkey(aes: &Aes) -> u128 {
    let mut h = [0u8; 16];
    aes.encrypt_block(&mut h);
    u128::from_be_bytes(h)
}

/// AES-GCM seal with a 96-bit nonce: `ciphertext || tag`.
pub fn seal(key: &[u8], nonce: &[u8; 12], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
    let aes = Aes::new(key);
    let counter_block = |count: u32| -> [u8; 16] {
        let mut block = [0u8; 16];
        block[..12].copy_from_slice(nonce);
        block[12..].copy_from_slice(&count.to_be_bytes());
        block
    };
    let mut out = plaintext.to_vec();
    ctr_xor(&aes, &counter_block(2), &mut out);
    let s = ghash(hash_subkey(&aes), aad, &out);
    let mut j0 = counter_block(1);
    aes.encrypt_block(&mut j0);
    out.extend((0..16).map(|i| s[i] ^ j0[i]));
    out
}
