//! `PublicKey::sum` against the operation it streams: iterated
//! `PublicKey::add` over deserialized ciphertexts.
//!
//! The cloud's aggregate answers with the fold's bytes, so the two must
//! agree byte for byte — not merely decrypt alike — and hostile operands
//! must come out as the same group element without a panic.

use datablinder_bigint::BigUint;
use datablinder_paillier::{Ciphertext, Keypair};
use rand::{Rng, SeedableRng};

fn add_fold(kp: &Keypair, cts: &[Vec<u8>]) -> Option<Ciphertext> {
    cts.iter().map(|b| Ciphertext::from_bytes(b)).reduce(|acc, c| kp.public().add(&acc, &c))
}

#[test]
fn sum_is_iterated_add_byte_for_byte_and_decrypts_to_the_plain_sum() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x5E);
    for bits in [256usize, 512] {
        let kp = Keypair::generate(&mut rng, bits);
        let n = kp.public().modulus().clone();
        // Signed values the way the gateway encodes them: negatives in the
        // upper half of Z_n.
        let values: Vec<i64> = (0..300).map(|_| rng.gen_range(-1_000_000i64..1_000_000)).collect();
        let cts: Vec<Vec<u8>> = values
            .iter()
            .map(|&v| {
                let m = if v >= 0 { BigUint::from(v as u64) } else { &n - &BigUint::from(v.unsigned_abs()) };
                kp.public().encrypt(&mut rng, &m).unwrap().to_bytes()
            })
            .collect();
        assert_eq!(kp.public().sum(std::iter::empty()), None, "no ciphertexts, no sum");
        for count in [1usize, 2, 3, 17, 300] {
            let sum = kp.public().sum(cts[..count].iter().map(Vec::as_slice)).unwrap();
            assert_eq!(sum.to_bytes(), add_fold(&kp, &cts[..count]).unwrap().to_bytes(), "{bits} bits, {count}");
            let total: i64 = values[..count].iter().sum();
            let expect =
                if total >= 0 { BigUint::from(total as u64) } else { &n - &BigUint::from(total.unsigned_abs()) };
            assert_eq!(kp.decrypt(&sum).unwrap(), expect, "{bits} bits, {count} values sum to {total}");
        }
    }
}

#[test]
fn hostile_operands_reduce_like_add() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xBAD);
    let kp = Keypair::generate(&mut rng, 256);
    let n2 = kp.public().modulus_squared().clone();
    let honest = kp.public().encrypt_u64(&mut rng, 41).to_bytes();
    let hostile: Vec<Vec<u8>> = vec![
        n2.to_bytes_be(),                          // = n², i.e. zero
        (&n2 + &BigUint::one()).to_bytes_be(),     // ≡ 1
        vec![0xff; 1 << 12],                       // far wider than n²
        [vec![0u8; 100], honest.clone()].concat(), // leading-zero padded
        Vec::new(),                                // empty = zero
    ];
    for bad in &hostile {
        let cts = [honest.clone(), bad.clone(), honest.clone()];
        let sum = kp.public().sum(cts.iter().map(Vec::as_slice)).unwrap();
        assert_eq!(sum.to_bytes(), add_fold(&kp, &cts).unwrap().to_bytes(), "operand of {} bytes", bad.len());
        // Alone, the fold returns the reduced element where `add` was never applied.
        let alone = kp.public().sum([bad.as_slice()]).unwrap();
        assert_eq!(alone.to_bytes(), (&BigUint::from_bytes_be(bad) % &n2).to_bytes_be());
    }
    let padded = kp.public().sum([hostile[3].as_slice(), hostile[1].as_slice()]).unwrap();
    assert_eq!(kp.decrypt_u64(&padded), Some(41), "padding and a multiple of n² change nothing");
}
