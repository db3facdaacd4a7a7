//! AES-CTR stream encryption with a 32-bit big-endian block counter
//! (the same counter layout GCM uses).

use crate::aes::{Aes, BLOCK_LEN};

/// Keystream blocks generated per batch on the portable tier.
const BATCH_BLOCKS: usize = 8;
const BATCH_BYTES: usize = BATCH_BLOCKS * BLOCK_LEN;

/// Applies the CTR keystream for (`aes`, `iv_block`) to `data` in place.
///
/// `iv_block` is the full initial 16-byte counter block; the last 4 bytes
/// are incremented (big-endian, wrapping) per keystream block. Encryption
/// and decryption are the same operation.
///
/// Runs on the tier `aes` was built for: eight blocks in flight through
/// AES-NI, or the portable batches below.
pub fn ctr_xor(aes: &Aes, iv_block: &[u8; BLOCK_LEN], data: &mut [u8]) {
    match aes.hw() {
        Some((hw, round_keys)) => hw.ctr_xor(round_keys, iv_block, data),
        None => ctr_xor_portable(aes, iv_block, data),
    }
}

/// The portable tier: keystream is generated [`BATCH_BLOCKS`] blocks at a
/// time into a stack buffer and XORed in `u64` lanes, so the eight
/// independent T-table encryptions and the wide XOR both expose
/// instruction-level parallelism.
fn ctr_xor_portable(aes: &Aes, iv_block: &[u8; BLOCK_LEN], data: &mut [u8]) {
    let mut counter = *iv_block;
    let mut keystream = [0u8; BATCH_BYTES];
    let mut chunks = data.chunks_exact_mut(BATCH_BYTES);
    for chunk in &mut chunks {
        for block in keystream.chunks_exact_mut(BLOCK_LEN) {
            block.copy_from_slice(&counter);
            increment_counter(&mut counter);
        }
        for block in keystream.chunks_exact_mut(BLOCK_LEN) {
            aes.encrypt_block_portable(block.try_into().expect("exact 16-byte chunk"));
        }
        for (d, k) in chunk.chunks_exact_mut(8).zip(keystream.chunks_exact(8)) {
            let lane = u64::from_ne_bytes(d.try_into().expect("exact 8-byte lane"))
                ^ u64::from_ne_bytes(k.try_into().expect("exact 8-byte lane"));
            d.copy_from_slice(&lane.to_ne_bytes());
        }
    }
    for chunk in chunks.into_remainder().chunks_mut(BLOCK_LEN) {
        let mut block = counter;
        aes.encrypt_block_portable(&mut block);
        for (d, k) in chunk.iter_mut().zip(block.iter()) {
            *d ^= k;
        }
        increment_counter(&mut counter);
    }
}

/// Increments the low 32 bits of the counter block (big-endian, wrapping).
pub fn increment_counter(block: &mut [u8; BLOCK_LEN]) {
    let mut ctr = u32::from_be_bytes([block[12], block[13], block[14], block[15]]);
    ctr = ctr.wrapping_add(1);
    block[12..16].copy_from_slice(&ctr.to_be_bytes());
}

/// Builds a counter block from a 12-byte nonce with the given initial count.
pub fn counter_block(nonce: &[u8; 12], count: u32) -> [u8; BLOCK_LEN] {
    let mut block = [0u8; BLOCK_LEN];
    block[..12].copy_from_slice(nonce);
    block[12..16].copy_from_slice(&count.to_be_bytes());
    block
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_various_lengths() {
        let aes = Aes::new(&[0x42; 16]).unwrap();
        let iv = counter_block(&[9u8; 12], 1);
        for len in [0usize, 1, 15, 16, 17, 31, 32, 100] {
            let mut data: Vec<u8> = (0..len as u32).map(|i| i as u8).collect();
            let orig = data.clone();
            ctr_xor(&aes, &iv, &mut data);
            if len > 0 {
                assert_ne!(data, orig, "len {len}");
            }
            ctr_xor(&aes, &iv, &mut data);
            assert_eq!(data, orig, "len {len}");
        }
    }

    #[test]
    fn counter_wraps() {
        let mut block = counter_block(&[0u8; 12], u32::MAX);
        increment_counter(&mut block);
        assert_eq!(&block[12..], &[0, 0, 0, 0]);
    }

    #[test]
    fn distinct_ivs_distinct_streams() {
        let aes = Aes::new(&[0x42; 16]).unwrap();
        let mut a = vec![0u8; 32];
        let mut b = vec![0u8; 32];
        ctr_xor(&aes, &counter_block(&[1u8; 12], 1), &mut a);
        ctr_xor(&aes, &counter_block(&[2u8; 12], 1), &mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn keystream_is_block_aligned() {
        // Encrypting in one call or two calls over the same stream must
        // differ (each call restarts at the IV) — documents the API contract.
        let aes = Aes::new(&[7; 16]).unwrap();
        let iv = counter_block(&[3u8; 12], 1);
        let mut whole = vec![0u8; 32];
        ctr_xor(&aes, &iv, &mut whole);
        let mut first = vec![0u8; 16];
        ctr_xor(&aes, &iv, &mut first);
        assert_eq!(&whole[..16], &first[..]);
    }
}
