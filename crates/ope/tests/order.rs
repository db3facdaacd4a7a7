//! Property tests for OPE: strict order preservation, determinism and
//! decryption inversion over arbitrary plaintext pairs; and the resumed
//! descent differential: one long-lived `Ope`, whose every call starts from
//! the levels its last call left, answers exactly as an `Ope` built fresh
//! for that one call, which starts cold.

use datablinder_ope::{Ope, OpeParams};
use datablinder_primitives::keys::SymmetricKey;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

const CASES: u64 = 256;
const DOMAIN: u64 = 1 << 48;

fn ope(seed: u8) -> Ope {
    Ope::new(SymmetricKey::from_bytes(&[seed; 32]), OpeParams { domain_bits: 48, range_bits: 72 })
}

/// Case `case`'s plaintext pair.
fn pair(case: u64) -> (u64, u64) {
    let rng = &mut StdRng::seed_from_u64(case);
    (rng.gen_range(0..DOMAIN), rng.gen_range(0..DOMAIN))
}

#[test]
fn order_preserved() {
    let o = ope(1);
    for case in 0..CASES {
        let (a, b) = pair(case);
        let (ca, cb) = (o.encrypt(a), o.encrypt(b));
        assert_eq!(a.cmp(&b), ca.cmp(&cb), "case {case}: plaintext vs ciphertext order");
    }
}

#[test]
fn deterministic_and_injective() {
    let o = ope(2);
    for case in 0..CASES {
        let (a, b) = pair(case);
        assert_eq!(o.encrypt(a), o.encrypt(a), "case {case}");
        if a != b {
            assert_ne!(o.encrypt(a), o.encrypt(b), "case {case}");
        }
    }
}

#[test]
fn decrypt_inverts_encrypt() {
    let o = ope(3);
    for case in 0..CASES {
        let (a, _) = pair(case);
        assert_eq!(o.decrypt(o.encrypt(a)), Some(a), "case {case}");
    }
}

#[test]
fn keys_produce_unrelated_mappings() {
    // Different keys must not systematically agree (weak but cheap
    // distinguisher sanity check).
    let (o1, o2) = (ope(4), ope(5));
    let agree = (0..CASES)
        .map(|case| StdRng::seed_from_u64(case).gen_range(1..DOMAIN))
        .filter(|&a| o1.encrypt(a) == o2.encrypt(a))
        .count();
    assert!(agree < CASES as usize / 2, "two keys map {agree} of {CASES} plaintexts alike");
}

const SCHEDULES: u64 = 1_000;
const STEPS: usize = 8;

/// A cold instance: built for one call, so it has no memo to resume from.
fn cold(seed: u8, params: OpeParams) -> Ope {
    Ope::new(SymmetricKey::from_bytes(&[seed; 32]), params)
}

#[test]
fn resumed_descents_match_cold_ones() {
    for case in 0..SCHEDULES {
        let rng = &mut StdRng::seed_from_u64(case);
        let seed = case as u8;
        let params = if case % 4 == 3 { OpeParams { domain_bits: 48, range_bits: 72 } } else { OpeParams::default() };
        let domain_max = u64::MAX >> (64 - params.domain_bits);
        let encrypt = |live: &Ope, m: u64| {
            let c = live.encrypt(m);
            assert_eq!(c, cold(seed, params).encrypt(m), "case {case}: encrypt({m:#x})");
            (m, c)
        };
        let mut live = cold(seed, params);
        let mut last = encrypt(&live, 0);
        for _ in 0..STEPS {
            match rng.gen_range(0..7u32) {
                // A monotone stream: time-ordered inserts.
                0 => {
                    let (start, step) = (rng.gen_range(0..domain_max / 2), rng.gen_range(1..86_400u64));
                    for i in 0..rng.gen_range(2..6u64) {
                        last = encrypt(&live, start + i * step);
                    }
                }
                // A range's two bounds.
                1 => {
                    let (lo, width_bits) = (rng.gen_range(0..domain_max / 2), rng.gen_range(0..40u32));
                    encrypt(&live, lo);
                    last = encrypt(&live, lo + rng.gen_range(0..1u64 << width_bits));
                }
                2 => last = encrypt(&live, rng.gen::<u64>()),
                3 => last = encrypt(&live, last.0),
                4 => last = encrypt(&live, [0, u64::MAX][rng.gen_range(0..2usize)]),
                // Decryption of the last ciphertext, its neighbours and a
                // random value, interleaved with the encryptions.
                5 => {
                    let (m, c) = last;
                    assert_eq!(live.decrypt(c), Some(m & domain_max), "case {case}: decrypt({c:#x})");
                    for c in [c.saturating_sub(1), c + 1, rng.gen::<u128>() >> (128 - params.range_bits)] {
                        assert_eq!(live.decrypt(c), cold(seed, params).decrypt(c), "case {case}: decrypt({c:#x})");
                    }
                }
                // A clone starts cold and answers alike; either may go on.
                _ => {
                    let copy = live.clone();
                    last = encrypt(&copy, last.0.wrapping_add(1));
                    if rng.gen::<u32>() % 2 == 0 {
                        live = copy;
                    }
                }
            }
        }
    }
}

#[test]
fn resumed_descents_match_cold_ones_exhaustively_on_an_8_bit_domain() {
    let params = OpeParams { domain_bits: 8, range_bits: 12 };
    let reference: Vec<u128> = (0..256).map(|m| cold(6, params).encrypt(m)).collect();
    let live = cold(6, params);
    let mut order: Vec<u64> = (0..256).collect();
    order.shuffle(&mut StdRng::seed_from_u64(6));
    let descending = (0..256).rev();
    for m in order.into_iter().chain(0..256).chain(descending) {
        assert_eq!(live.encrypt(m), reference[m as usize], "encrypt({m})");
    }
    for c in 0..1u128 << params.range_bits {
        assert_eq!(live.decrypt(c), cold(6, params).decrypt(c), "decrypt({c})");
    }
}

#[test]
fn two_threads_sharing_one_instance_match_cold_ones() {
    // While one thread descends, the other finds the memo taken and walks
    // cold; neither waits, and both get the cold answers.
    let live = cold(8, OpeParams::default());
    let streams: [Vec<u64>; 2] = [
        (0..64).map(|i| 1_900_000_000 + i * 60).collect(),
        (0..64).map(|i| StdRng::seed_from_u64(i).gen::<u64>()).collect(),
    ];
    let reference: Vec<Vec<u128>> =
        streams.iter().map(|s| s.iter().map(|&m| cold(8, OpeParams::default()).encrypt(m)).collect()).collect();
    std::thread::scope(|scope| {
        for (stream, want) in streams.iter().zip(&reference) {
            let live = &live;
            scope.spawn(move || {
                for _ in 0..4 {
                    for (&m, &c) in stream.iter().zip(want) {
                        assert_eq!(live.encrypt(m), c, "encrypt({m:#x})");
                        assert_eq!(live.decrypt(c), Some(m), "decrypt({c:#x})");
                    }
                }
            });
        }
    });
}
