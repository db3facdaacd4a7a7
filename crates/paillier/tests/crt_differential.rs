//! Differential tests of CRT decryption against the plain `λ` path, plus
//! the serialization format.
//!
//! The CRT decryptor is an *optimization* — every observable behavior must
//! be identical to the single-exponentiation path it replaced.

use datablinder_bigint::BigUint;
use datablinder_paillier::{Ciphertext, Keypair, PaillierError};
use rand::SeedableRng;

fn rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

#[test]
fn crt_and_plain_decrypt_agree_over_random_plaintexts() {
    for seed in [1u64, 2, 3] {
        let mut r = rng(seed);
        let kp = Keypair::generate(&mut r, 256);
        let n = kp.public().modulus().clone();
        for _ in 0..16 {
            let m = BigUint::random_below(&mut r, &n);
            let c = kp.public().encrypt(&mut r, &m).unwrap();
            let via_crt = kp.decrypt(&c).unwrap();
            let via_lambda = kp.decrypt_plain(&c).unwrap();
            assert_eq!(via_crt, via_lambda, "seed {seed}");
            assert_eq!(via_crt, m, "seed {seed}");
        }
    }
}

#[test]
fn boundary_plaintexts_agree() {
    let mut r = rng(7);
    let kp = Keypair::generate(&mut r, 256);
    let n = kp.public().modulus().clone();
    let boundary = [BigUint::zero(), BigUint::one(), &n - &BigUint::one(), &n - &BigUint::from(2u64)];
    for m in boundary {
        let c = kp.public().encrypt(&mut r, &m).unwrap();
        assert_eq!(kp.decrypt(&c).unwrap(), m);
        assert_eq!(kp.decrypt_plain(&c).unwrap(), m);
    }
}

#[test]
fn crt_decrypt_survives_homomorphic_pipelines() {
    let mut r = rng(11);
    let kp = Keypair::generate(&mut r, 256);
    let pk = kp.public().clone();
    // add + add_plain + mul_plain + rerandomize, decrypted both ways.
    let c1 = pk.encrypt_u64(&mut r, 1000);
    let c2 = pk.encrypt_u64(&mut r, 234);
    let mut c = pk.add(&c1, &c2);
    c = pk.add_plain(&c, &BigUint::from(6u64));
    c = pk.mul_plain(&c, &BigUint::from(3u64));
    c = pk.rerandomize(&mut r, &c);
    let expect = BigUint::from((1000u64 + 234 + 6) * 3);
    assert_eq!(kp.decrypt(&c).unwrap(), expect);
    assert_eq!(kp.decrypt_plain(&c).unwrap(), expect);
}

#[test]
fn v2_blobs_roundtrip_and_stay_stable() {
    let mut r = rng(31);
    let kp = Keypair::generate(&mut r, 256);
    let bytes = kp.to_bytes();
    let kp2 = Keypair::from_bytes(&bytes).unwrap();
    assert_eq!(kp2.to_bytes(), bytes, "v2 serialization is deterministic");
    let c = kp.public().encrypt_u64(&mut r, 424_242);
    assert_eq!(kp2.decrypt_u64(&c), Some(424_242));
}

#[test]
fn both_paths_reject_the_same_invalid_ciphertexts() {
    let mut r = rng(41);
    let kp = Keypair::generate(&mut r, 256);
    let n = kp.public().modulus().clone();
    let n2 = &n * &n;
    for bad in [BigUint::zero(), n.clone(), n2.clone(), &n2 + &BigUint::one()] {
        let c = Ciphertext::from_bytes(&bad.to_bytes_be());
        assert_eq!(kp.decrypt(&c).err(), Some(PaillierError::InvalidCiphertext), "crt path, bad={bad:?}");
        assert_eq!(kp.decrypt_plain(&c).err(), Some(PaillierError::InvalidCiphertext), "plain path, bad={bad:?}");
    }
}
