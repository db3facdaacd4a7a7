//! Property tests for the AEAD and cipher layer.

use datablinder_primitives::aes::Aes;
use datablinder_primitives::ctr::{counter_block, ctr_xor};
use datablinder_primitives::gcm::AesGcm;
use datablinder_primitives::keys::SymmetricKey;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

const CASES: u64 = 256;

/// Up to `max - 1` arbitrary bytes.
fn bytes(rng: &mut StdRng, max: usize) -> Vec<u8> {
    (0..rng.gen_range(0..max)).map(|_| rng.gen()).collect()
}

fn array<const N: usize>(rng: &mut StdRng) -> [u8; N] {
    let mut out = [0u8; N];
    rng.fill_bytes(&mut out);
    out
}

#[test]
fn gcm_roundtrip() {
    for case in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(case);
        let cipher = AesGcm::new(&SymmetricKey::from_bytes(&array::<16>(rng))).unwrap();
        let nonce: [u8; 12] = array(rng);
        let (aad, pt) = (bytes(rng, 32), bytes(rng, 256));
        let sealed = cipher.seal(&nonce, &aad, &pt);
        assert_eq!(cipher.open(&nonce, &aad, &sealed).unwrap(), pt, "case {case}");
    }
}

#[test]
fn gcm_any_single_bitflip_detected() {
    let cipher = AesGcm::new(&SymmetricKey::from_bytes(&[7u8; 16])).unwrap();
    let nonce = [3u8; 12];
    for case in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(case);
        let pt: Vec<u8> = (0..rng.gen_range(1..64)).map(|_| rng.gen()).collect();
        let mut sealed = cipher.seal(&nonce, b"aad", &pt);
        let bit = rng.gen_range(0..64usize) % (sealed.len() * 8);
        sealed[bit / 8] ^= 1 << (bit % 8);
        assert!(cipher.open(&nonce, b"aad", &sealed).is_err(), "case {case}: bit {bit} flipped unnoticed");
    }
}

#[test]
fn gcm_open_never_panics_on_garbage() {
    let cipher = AesGcm::new(&SymmetricKey::from_bytes(&[7u8; 32])).unwrap();
    for case in 0..CASES {
        let _ = cipher.open(&[0u8; 12], b"", &bytes(&mut StdRng::seed_from_u64(case), 128));
    }
}

#[test]
fn ctr_is_an_involution() {
    let aes = Aes::new(&[5u8; 16]).unwrap();
    for case in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(case);
        let data = bytes(rng, 200);
        let iv = counter_block(&[9u8; 12], rng.gen());
        let mut buf = data.clone();
        ctr_xor(&aes, &iv, &mut buf);
        ctr_xor(&aes, &iv, &mut buf);
        assert_eq!(buf, data, "case {case}");
    }
}
