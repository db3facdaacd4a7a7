//! Differential property tests for the symmetric kernels against the
//! bitwise definitions in `bitwise/`: the AES rounds, the CTR keystream,
//! GHASH and the whole seal pipeline must equal them byte for byte on
//! whichever tier this CPU selects (`isa_differential` pins the two tiers
//! to each other).

mod bitwise;

use datablinder_primitives::aes::Aes;
use datablinder_primitives::ctr::{counter_block, ctr_xor};
use datablinder_primitives::gcm::AesGcm;
use datablinder_primitives::hmac::{hmac_sha256, HmacCtx};
use datablinder_primitives::keys::SymmetricKey;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

const CASES: u64 = 256;

/// A 16-, 24- or 32-byte key.
fn any_key(rng: &mut StdRng) -> Vec<u8> {
    let mut key = vec![0u8; [16, 24, 32][rng.gen_range(0..3usize)]];
    rng.fill_bytes(&mut key);
    key
}

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
fn aes_matches_bytewise_definition() {
    for case in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(case);
        let key = any_key(rng);
        let aes = Aes::new(&key).unwrap();
        let mut fast: [u8; 16] = array(rng);
        let mut slow = fast;
        aes.encrypt_block(&mut fast);
        bitwise::Aes::new(&key).encrypt_block(&mut slow);
        assert_eq!(fast, slow, "case {case}");
    }
}

#[test]
fn ctr_matches_block_at_a_time_definition() {
    for case in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(case);
        let key = any_key(rng);
        let aes = Aes::new(&key).unwrap();
        let iv = counter_block(&array(rng), rng.gen());
        let mut fast = bytes(rng, 600);
        let mut slow = fast.clone();
        ctr_xor(&aes, &iv, &mut fast);
        bitwise::ctr_xor(&bitwise::Aes::new(&key), &iv, &mut slow);
        assert_eq!(fast, slow, "case {case}");
    }
}

#[test]
fn ghash_matches_bit_loop_definition() {
    for case in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(case);
        let key = any_key(rng);
        let (aad, ct) = (bytes(rng, 64), bytes(rng, 300));
        let cipher = AesGcm::new(&SymmetricKey::from_bytes(&key)).unwrap();
        let h = bitwise::hash_subkey(&bitwise::Aes::new(&key));
        assert_eq!(cipher.ghash(&aad, &ct), bitwise::ghash(h, &aad, &ct), "case {case}");
    }
}

#[test]
fn seal_matches_definition() {
    for case in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(case);
        let key = any_key(rng);
        let nonce: [u8; 12] = array(rng);
        let (aad, pt) = (bytes(rng, 32), bytes(rng, 300));
        let cipher = AesGcm::new(&SymmetricKey::from_bytes(&key)).unwrap();
        let fast = cipher.seal(&nonce, &aad, &pt);
        let slow = bitwise::seal(&key, &nonce, &aad, &pt);
        assert_eq!(&fast, &slow, "case {case}");
        assert_eq!(cipher.open(&nonce, &aad, &fast).unwrap(), pt, "case {case}");
    }
}

#[test]
fn seal_into_appends_without_disturbing_prefix() {
    let cipher = AesGcm::new(&SymmetricKey::from_bytes(&[9u8; 16])).unwrap();
    let nonce = [4u8; 12];
    for case in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(case);
        let (prefix, pt) = (bytes(rng, 32), bytes(rng, 120));
        let mut out = prefix.clone();
        cipher.seal_into(&nonce, b"a", &pt, &mut out);
        assert_eq!(&out[..prefix.len()], &prefix[..], "case {case}");
        assert_eq!(&out[prefix.len()..], &cipher.seal(&nonce, b"a", &pt)[..], "case {case}");
    }
}

#[test]
fn hmac_ctx_matches_oneshot() {
    for case in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(case);
        let key = bytes(rng, 100);
        let ctx = HmacCtx::new(&key);
        for _ in 0..rng.gen_range(1..6) {
            let msg = bytes(rng, 200);
            assert_eq!(ctx.mac(&msg), hmac_sha256(&key, &msg), "case {case}");
        }
    }
}
