//! Differential oracle for the CRC-32: three opinions on every input.
//!
//! `crc32` is whatever tier this CPU runs (`crc_backend()` says which:
//! carry-less-multiply folding, or the tables), `portable::crc32` is
//! slicing-by-8 by name, and `crc32_bitwise` below is the IEEE polynomial's
//! definition, one bit per step. All three must agree at every length from
//! 0 to 1,024 (every count of whole blocks, quads of blocks and tail bytes
//! the fold distinguishes), around 4 KiB and 64 KiB, from every start
//! alignment, and with the CRC state carried across every split point of a
//! buffer — which is what `encode_frame(&[a, b])` does.

use datablinder_codec::{crc32, crc_backend, encode_frame, portable};

/// CRC-32 (IEEE, reflected) straight from its definition: no table, one bit
/// per step.
fn crc32_bitwise(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c ^= u32::from(b);
        for _ in 0..8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
        }
    }
    c ^ 0xFFFF_FFFF
}

/// xorshift64*: a fixed stream, so a failure names a reproducible input.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| (self.next() >> 32) as u8).collect()
    }
}

fn assert_three_agree(data: &[u8], what: std::fmt::Arguments<'_>) {
    let definition = crc32_bitwise(data);
    assert_eq!(portable::crc32(data), definition, "slicing-by-8, {what}");
    assert_eq!(crc32(data), definition, "{}, {what}", crc_backend());
}

#[test]
fn known_vectors_on_the_running_tier() {
    // The published check values, and one long enough to fold.
    assert_eq!(crc32(b""), 0);
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    let long = b"123456789".repeat(16);
    assert_eq!(crc32(&long), crc32_bitwise(&long));
    assert!(["pclmulqdq", "portable"].contains(&crc_backend()));
}

#[test]
fn every_length_up_to_1024_agrees() {
    let data = Stream(1).bytes(1024);
    for len in 0..=1024 {
        assert_three_agree(&data[..len], format_args!("len {len}"));
    }
}

#[test]
fn lengths_around_4_kib_and_64_kib_agree_from_every_start_alignment() {
    let data = Stream(2).bytes(64 * 1024 + 80);
    for around in [4 * 1024, 51_843, 64 * 1024] {
        for len in around - 17..=around + 17 {
            assert_three_agree(&data[..len], format_args!("len {len}"));
        }
        // The kernel loads unaligned: the same length from sixteen
        // different offsets into the allocation.
        for start in 0..16 {
            assert_three_agree(&data[start..start + around], format_args!("start {start}, len {around}"));
        }
    }
}

#[test]
fn random_inputs_up_to_64_kib_agree() {
    let mut stream = Stream(3);
    for round in 0..48 {
        let len = 1 + stream.next() as usize % ((64 * 1024) >> (round % 12));
        let data = stream.bytes(len);
        assert_three_agree(&data, format_args!("round {round}, len {len}"));
    }
}

#[test]
fn state_carried_across_every_split_point_gives_the_whole_buffers_crc() {
    // Long enough that both halves can be on the folding tier, one of them,
    // or neither, and that the cut falls at every position within a block
    // and a quad of blocks.
    let data = Stream(4).bytes(300);
    let expect = crc32_bitwise(&data).to_be_bytes();
    for cut in 0..=data.len() {
        let (a, b) = data.split_at(cut);
        let frame = encode_frame(&[a, b]);
        assert_eq!(frame[..4], (data.len() as u32).to_be_bytes());
        assert_eq!(frame[4..4 + data.len()], data[..]);
        assert_eq!(frame[4 + data.len()..], expect, "cut at {cut}");
    }
    // Three parts, the middle one sliding: the TCP response frame's shape
    // (`corr ‖ tag+len ‖ payload`).
    for first in 0..=24 {
        for second in 0..=16 {
            let (a, rest) = data.split_at(first);
            let (b, c) = rest.split_at(second);
            assert_eq!(encode_frame(&[a, b, c])[4 + data.len()..], expect, "cuts at {first} and {}", first + second);
        }
    }
}
