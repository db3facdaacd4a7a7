//! SHA-256 (FIPS 180-4).

use crate::isa::ShaNi;

/// Output size of SHA-256 in bytes.
pub const DIGEST_LEN: usize = 32;
/// Internal block size in bytes.
pub const BLOCK_LEN: usize = 64;

pub(crate) const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5, 0xd807aa98,
    0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8,
    0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819,
    0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
    0xc67178f2,
];

const H0: [u32; 8] = [0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19];

/// Incremental SHA-256 hasher.
///
/// The compression function runs on one of two tiers, chosen when the
/// hasher is created: SHA-NI where the CPU has it (`isa`), the portable
/// scalar rounds below everywhere else. Digests are identical.
///
/// # Examples
///
/// ```
/// use datablinder_primitives::sha256::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"ab");
/// h.update(b"c");
/// let digest = h.finalize();
/// assert_eq!(digest, datablinder_primitives::sha256::digest(b"abc"));
/// ```
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; BLOCK_LEN],
    buffer_len: usize,
    total_len: u64,
    hw: Option<ShaNi>,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Self::on(ShaNi::detect())
    }

    /// A fresh hasher pinned to the portable tier.
    pub(crate) fn portable() -> Self {
        Self::on(None)
    }

    fn on(hw: Option<ShaNi>) -> Self {
        Sha256 { state: H0, buffer: [0; BLOCK_LEN], buffer_len: 0, total_len: 0, hw }
    }

    /// Absorbs `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut data = data;
        if self.buffer_len > 0 {
            let take = (BLOCK_LEN - self.buffer_len).min(data.len());
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&data[..take]);
            self.buffer_len += take;
            data = &data[take..];
            if self.buffer_len < BLOCK_LEN {
                return;
            }
            compress(&mut self.state, self.hw, std::slice::from_ref(&self.buffer));
            self.buffer_len = 0;
        }
        // Whole blocks go to the compression function where they lie.
        let (blocks, rest) = data.as_chunks::<BLOCK_LEN>();
        compress(&mut self.state, self.hw, blocks);
        self.buffer[..rest.len()].copy_from_slice(rest);
        self.buffer_len = rest.len();
    }

    /// Produces the digest, consuming the hasher.
    pub fn finalize(self) -> [u8; DIGEST_LEN] {
        finish(self.state, self.hw, &self.buffer[..self.buffer_len], self.total_len)
    }

    /// The digest of everything absorbed so far followed by `rest`, without
    /// copying the hasher: what a MAC under a prepared key needs from its
    /// midstate.
    ///
    /// # Panics
    ///
    /// Panics unless a whole number of blocks has been absorbed.
    pub(crate) fn digest_after(&self, rest: &[u8]) -> [u8; DIGEST_LEN] {
        assert_eq!(self.buffer_len, 0, "digest_after continues from a block boundary");
        let mut state = self.state;
        let (blocks, tail) = rest.as_chunks::<BLOCK_LEN>();
        compress(&mut state, self.hw, blocks);
        finish(state, self.hw, tail, self.total_len.wrapping_add(rest.len() as u64))
    }
}

/// Pads `tail` (the bytes after the last whole block, fewer than 64) as the
/// end of a `total_len`-byte message and returns the digest: `0x80`, zeros
/// and the bit length fill one block, or two when fewer than nine bytes are
/// free, in one call of the compression function.
fn finish(mut state: [u32; 8], hw: Option<ShaNi>, tail: &[u8], total_len: u64) -> [u8; DIGEST_LEN] {
    let mut last = [[0u8; BLOCK_LEN]; 2];
    let blocks = if tail.len() < BLOCK_LEN - 8 { 1 } else { 2 };
    last[0][..tail.len()].copy_from_slice(tail);
    last[0][tail.len()] = 0x80;
    last[blocks - 1][BLOCK_LEN - 8..].copy_from_slice(&total_len.wrapping_mul(8).to_be_bytes());
    compress(&mut state, hw, &last[..blocks]);
    let mut out = [0u8; DIGEST_LEN];
    for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
        bytes.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// The compression function over every block of `blocks`, on the tier the
/// hasher was created with.
fn compress(state: &mut [u32; 8], hw: Option<ShaNi>, blocks: &[[u8; BLOCK_LEN]]) {
    match hw {
        Some(hw) => hw.compress(state, blocks),
        None => blocks.iter().for_each(|block| compress_portable(state, block)),
    }
}

fn compress_portable(state: &mut [u32; 8], block: &[u8; BLOCK_LEN]) {
    let mut w = [0u32; 64];
    for (w, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
        *w = u32::from_be_bytes(bytes.try_into().expect("exact 4-byte word"));
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h.wrapping_add(s1).wrapping_add(ch).wrapping_add(K[i]).wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
        *s = s.wrapping_add(v);
    }
}

/// One-shot SHA-256.
///
/// ```
/// use datablinder_primitives::sha256::digest;
/// let d = digest(b"abc");
/// assert_eq!(d[0], 0xba);
/// ```
pub fn digest(data: &[u8]) -> [u8; DIGEST_LEN] {
    Sha256::new().digest_after(data)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn fips_vectors() {
        assert_eq!(hex(&digest(b"")), "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
        assert_eq!(hex(&digest(b"abc")), "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
        assert_eq!(
            hex(&digest(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(hex(&h.finalize()), "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0..1000u32).map(|i| i as u8).collect();
        for split in [0usize, 1, 63, 64, 65, 500, 999, 1000] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), digest(&data), "split at {split}");
        }
    }

    #[test]
    fn block_boundary_lengths() {
        // Lengths around padding edge cases: 55, 56, 63, 64.
        for len in [55usize, 56, 63, 64, 119, 120, 127, 128] {
            let data = vec![0xAB; len];
            let mut h = Sha256::new();
            for b in &data {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), digest(&data), "len {len}");
        }
    }
}
