//! Differential oracle for the sliced CRC-32: `crc32` and the CRC trailer of
//! `encode_frame` must equal the bit-at-a-time definition of the IEEE
//! polynomial — at every short length, on random inputs up to 64 KiB, and
//! with frame parts cut at every offset modulo the eight-byte step, so the
//! state carried from one part to the next is exercised at each alignment.

use datablinder_codec::{crc32, encode_frame};

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

#[test]
fn every_length_up_to_64_matches_the_definition() {
    let data = Stream(1).bytes(64);
    for len in 0..=64 {
        assert_eq!(crc32(&data[..len]), crc32_bitwise(&data[..len]), "len {len}");
    }
}

#[test]
fn random_inputs_up_to_64_kib_match_the_definition() {
    let mut stream = Stream(2);
    for round in 0..48 {
        // The largest size first, then lengths spread over the orders of
        // magnitude below it.
        let len = if round == 0 { 64 * 1024 } else { 1 + stream.next() as usize % ((64 * 1024) >> (round % 12)) };
        let data = stream.bytes(len);
        assert_eq!(crc32(&data), crc32_bitwise(&data), "round {round}, len {len}");
    }
}

#[test]
fn frame_trailer_matches_at_every_part_boundary_mod_8() {
    let data = Stream(3).bytes(96);
    let expect = crc32_bitwise(&data).to_be_bytes();
    for first in 0..=24 {
        for second in 0..=16 {
            let (a, rest) = data.split_at(first);
            let (b, c) = rest.split_at(second);
            let frame = encode_frame(&[a, b, c]);
            assert_eq!(frame[..4], (data.len() as u32).to_be_bytes());
            assert_eq!(frame[4..4 + data.len()], data[..]);
            assert_eq!(frame[4 + data.len()..], expect, "parts cut at {first} and {}", first + second);
        }
    }
}
