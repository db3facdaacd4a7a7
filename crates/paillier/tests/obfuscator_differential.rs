//! `Keypair::fresh_obfuscator` (two half-width powers through the factors)
//! against what it replaces on the gateway: `PublicKey::fresh_obfuscator`
//! (`r^n mod n²` for a uniform unit `r`).
//!
//! The factor route is an *optimization*: the obfuscators it draws must be
//! the same set with the same probabilities, or ciphertexts would stop
//! being Paillier ciphertexts of the documented distribution. The toy-key
//! test proves the identity by enumeration; the property tests pin what
//! every obfuscator must satisfy at real sizes.

use std::collections::BTreeSet;

use datablinder_bigint::BigUint;
use datablinder_paillier::Keypair;
use rand::rngs::mock::StepRng;
use rand::SeedableRng;

fn rng(seed: u64) -> rand::rngs::StdRng {
    rand::rngs::StdRng::seed_from_u64(seed)
}

/// The length-prefixed fields of a keypair blob: `n, λ, μ, p, q` after the
/// magic.
fn fields(blob: &[u8]) -> Vec<BigUint> {
    let mut blob = blob.strip_prefix(b"DBK2").expect("keypair magic");
    let mut out = Vec::new();
    while !blob.is_empty() {
        let len = u32::from_be_bytes(blob[..4].try_into().unwrap()) as usize;
        out.push(BigUint::from_bytes_be(&blob[4..4 + len]));
        blob = &blob[4 + len..];
    }
    out
}

fn pow_mod(mut base: u64, mut exp: u64, modulus: u64) -> u64 {
    let mut acc = 1;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = acc * base % modulus;
        }
        base = base * base % modulus;
        exp >>= 1;
    }
    acc
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// The distribution identity, exhaustively: on a 16-bit key, the sampler
/// run over every `(a, b) ∈ [1, p) × [1, q)` yields pairwise distinct
/// values, and their set is `{r^n mod n² : r ∈ Z*_n}` computed in plain
/// `u64` arithmetic. `r ↦ r^n mod n²` is itself injective on `Z*_n`
/// (that is what makes Paillier decryptable), so both are uniform over the
/// same `(p−1)(q−1)` elements.
///
/// The sampler draws `a` then `b`, each as the low bits of one `next_u64`;
/// `StepRng::new(a, b − a)` scripts exactly that pair. Were the draw order
/// ever to change, distinctness below would fail rather than pass vacuously.
#[test]
fn toy_key_sampler_enumerates_exactly_the_nth_residues() {
    let kp = Keypair::generate(&mut rng(16), 16);
    let parts: Vec<u64> = fields(&kp.to_bytes()).iter().map(|v| v.to_u64().unwrap()).collect();
    let (n, p, q) = (parts[0], parts[3], parts[4]);
    assert_eq!(p * q, n);
    let n2 = n * n;

    let mut sampled = BTreeSet::new();
    for a in 1..p {
        for b in 1..q {
            let rho = kp.fresh_obfuscator(&mut StepRng::new(a, b.wrapping_sub(a))).to_u64().unwrap();
            assert!(sampled.insert(rho), "(a, b) = ({a}, {b}) repeats obfuscator {rho}");
        }
    }
    let residues: BTreeSet<u64> = (1..n).filter(|&r| gcd(r, n) == 1).map(|r| pow_mod(r, n, n2)).collect();
    assert_eq!(residues.len() as u64, (p - 1) * (q - 1), "r ↦ r^n mod n² is injective on the units");
    assert_eq!(sampled, residues);
}

/// At real sizes: every obfuscator is an `n`-th residue (`ρ^λ ≡ 1 mod n²`
/// holds exactly for those), a unit, reduced, and completes encryptions
/// that both decryption routes open to the plaintext.
#[test]
fn sampled_obfuscators_are_nth_residues_and_encrypt_correctly() {
    for (bits, seed) in [(256usize, 3u64), (512, 4)] {
        let mut r = rng(seed);
        let kp = Keypair::generate(&mut r, bits);
        let pk = kp.public();
        let (n, n2) = (pk.modulus().clone(), pk.modulus_squared().clone());
        let lambda = fields(&kp.to_bytes())[1].clone();
        for round in 0..24 {
            let rho = kp.fresh_obfuscator(&mut r);
            assert!(rho < n2, "{bits} bits, round {round}: reduced");
            assert!(rho.gcd(&n).is_one(), "{bits} bits, round {round}: unit");
            assert!(pk.montgomery_ctx().modpow(&rho, &lambda).is_one(), "{bits} bits, round {round}: ρ^λ ≡ 1");
            for m in [BigUint::zero(), BigUint::one(), &n - &BigUint::one(), BigUint::random_below(&mut r, &n)] {
                let c = pk.encrypt_with(&m, &rho).unwrap();
                assert_eq!(kp.decrypt(&c).unwrap(), m, "{bits} bits, round {round}: CRT route");
                assert_eq!(kp.decrypt_plain(&c).unwrap(), m, "{bits} bits, round {round}: λ route");
            }
        }
    }
}

#[test]
fn keypair_encrypt_matches_public_encrypt_semantics() {
    let mut r = rng(5);
    let kp = Keypair::generate(&mut r, 256);
    let n = kp.public().modulus().clone();
    for m in [0u64, 1, 42, u64::MAX] {
        let c = kp.encrypt_u64(&mut r, m);
        assert_eq!(kp.decrypt_u64(&c), Some(m));
        assert_eq!(kp.decrypt_plain(&c).unwrap().to_u64(), Some(m));
    }
    let c1 = kp.encrypt_u64(&mut r, 7);
    let c2 = kp.encrypt_u64(&mut r, 7);
    assert_ne!(c1, c2, "still probabilistic");
    // Mixed provenance adds up: one ciphertext from each route.
    let mixed = kp.public().add(&c1, &kp.public().encrypt_u64(&mut r, 35));
    assert_eq!(kp.decrypt_u64(&mixed), Some(42));
    assert!(kp.encrypt(&mut r, &n).is_err(), "plaintext range is still checked");
}
