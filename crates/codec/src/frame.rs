//! CRC-32 and the one integrity frame:
//!
//! ```text
//! len:u32 (BE) ‖ covered[len] ‖ crc32(covered):u32 (BE)
//! ```
//!
//! The WAL and snapshot files put a record body in `covered`; the TCP
//! transport puts `corr_id:u64 ‖ body` there. `len` counts `covered` only.

use std::ops::RangeInclusive;

use crate::clmul::Clmul;

/// The IEEE 802.3 CRC-32 polynomial, reflected: bit `i` is the coefficient
/// of `x^(31 - i)`, and `x^32` is implied.
pub(crate) const POLY: u32 = 0xEDB8_8320;

/// CRC-32 (IEEE 802.3, reflected) lookup tables for slicing-by-8, built at
/// compile time so the portable tier needs no crc crate.
/// `CRC32_TABLES[0]` is the classic byte table; `CRC32_TABLES[k][b]` is the
/// CRC state after byte `b` followed by `k` zero bytes, which is what lets
/// eight input bytes be folded with eight independent lookups.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE) of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_update(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// Which tier [`crc32`] and the frame functions run on in this process:
/// `"pclmulqdq"` (carry-less-multiply folding, x86-64 with the instruction)
/// or `"portable"` (slicing-by-8). Nothing selects a tier from outside.
pub fn crc_backend() -> &'static str {
    match Clmul::detect() {
        Some(_) => "pclmulqdq",
        None => "portable",
    }
}

/// Advances the running (pre-inversion) CRC state `c` over `data`. The state
/// is the whole carry, so splitting `data` anywhere gives the same result —
/// on either tier, and across them.
fn crc32_update(c: u32, data: &[u8]) -> u32 {
    match Clmul::detect() {
        Some(clmul) => clmul.crc32_update(c, data),
        None => crc32_update_portable(c, data),
    }
}

/// [`crc32_update`] by slicing-by-8: eight bytes per step, the up-to-seven
/// bytes left take the byte table. The only tier off x86-64, what the
/// folding tier finishes with, and the oracle it is tested against.
pub(crate) fn crc32_update_portable(mut c: u32, data: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// Frames the concatenation of `parts` as `len ‖ covered ‖ crc32(covered)`.
pub fn encode_frame(parts: &[&[u8]]) -> Vec<u8> {
    let mut out = Vec::with_capacity(parts.iter().map(|p| p.len()).sum::<usize>() + 8);
    encode_frame_into(&mut out, parts);
    out
}

/// [`encode_frame`] appended to `out`: the parts are copied once, straight
/// into a buffer the caller keeps.
pub fn encode_frame_into(out: &mut Vec<u8>, parts: &[&[u8]]) {
    let len: usize = parts.iter().map(|p| p.len()).sum();
    out.reserve(len + 8);
    out.extend_from_slice(&(len as u32).to_be_bytes());
    let mut crc = 0xFFFF_FFFF;
    for part in parts {
        out.extend_from_slice(part);
        crc = crc32_update(crc, part);
    }
    out.extend_from_slice(&(crc ^ 0xFFFF_FFFF).to_be_bytes());
}

/// What the front of a byte stream holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Split<'a> {
    /// A strict prefix of a frame: a torn tail on disk, a short read on a
    /// socket.
    NeedMore,
    /// One complete, CRC-valid frame occupying the first `total` bytes.
    Frame {
        /// The bytes the CRC covers.
        covered: &'a [u8],
        /// Frame size on the stream, header and CRC included.
        total: usize,
    },
    /// The announced length is outside the accepted range; decided from the
    /// header alone, before anything of that size is buffered.
    BadLength(u32),
    /// A complete frame whose CRC does not match.
    BadCrc,
}

/// Splits one frame off the front of `buf`, accepting announced lengths in
/// `lens` only.
pub fn split_frame(buf: &[u8], lens: RangeInclusive<u32>) -> Split<'_> {
    let Some((len, rest)) = buf.split_first_chunk::<4>() else { return Split::NeedMore };
    let len = u32::from_be_bytes(*len);
    if !lens.contains(&len) {
        return Split::BadLength(len);
    }
    let Some((covered, rest)) = rest.split_at_checked(len as usize) else { return Split::NeedMore };
    let Some((stored, _)) = rest.split_first_chunk::<4>() else { return Split::NeedMore };
    if crc32(covered) != u32::from_be_bytes(*stored) {
        return Split::BadCrc;
    }
    Split::Frame { covered, total: 8 + covered.len() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Published IEEE CRC-32 check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn frame_splits_back_and_parts_concatenate() {
        let frame = encode_frame(&[b"12345", b"6789"]);
        assert_eq!(frame, encode_frame(&[b"123456789"]));
        assert_eq!(frame[..4], [0, 0, 0, 9]);
        assert_eq!(frame[13..], 0xCBF4_3926u32.to_be_bytes());
        assert_eq!(split_frame(&frame, 0..=u32::MAX), Split::Frame { covered: b"123456789", total: 17 });
        let mut two = frame.clone();
        two.extend_from_slice(&frame);
        assert_eq!(split_frame(&two, 0..=u32::MAX), Split::Frame { covered: b"123456789", total: 17 });
    }

    #[test]
    fn every_strict_prefix_needs_more() {
        let frame = encode_frame(&[b"payload"]);
        for cut in 0..frame.len() {
            assert_eq!(split_frame(&frame[..cut], 0..=u32::MAX), Split::NeedMore, "cut {cut}");
        }
    }

    #[test]
    fn bad_length_is_decided_from_the_header_and_bad_crc_from_the_whole_frame() {
        assert_eq!(split_frame(&1_000_000u32.to_be_bytes(), 8..=64), Split::BadLength(1_000_000));
        assert_eq!(split_frame(&3u32.to_be_bytes(), 8..=64), Split::BadLength(3));
        let mut frame = encode_frame(&[b"payload"]);
        for pos in 4..frame.len() {
            frame[pos] ^= 0x5A;
            assert_eq!(split_frame(&frame, 0..=u32::MAX), Split::BadCrc, "flip at {pos}");
            frame[pos] ^= 0x5A;
        }
    }
}
