//! Differential tests of the amortized modular-arithmetic kernels against
//! a trivially-correct square-and-multiply oracle.
//!
//! The cached-context kernels ([`MontgomeryCtx`], [`CrtCtx`]) replace the
//! per-call paths on every hot route; these tests pin them to the naive
//! division-based implementation over seeded random inputs — multi-limb
//! odd moduli, boundary exponents and `n - 1` bases included — so a kernel
//! regression cannot hide behind matching-but-wrong fast paths.

use datablinder_bigint::{BigUint, CrtCtx, MontgomeryCtx};
use rand::SeedableRng;

/// Trivially-correct oracle: left-to-right square-and-multiply with
/// division-based reduction after every step.
fn oracle_modpow(base: &BigUint, exp: &BigUint, m: &BigUint) -> BigUint {
    if m.is_one() {
        return BigUint::zero();
    }
    let mut acc = BigUint::one();
    let b = base % m;
    for i in (0..exp.bits()).rev() {
        acc = acc.modmul(&acc, m);
        if exp.bit(i) {
            acc = acc.modmul(&b, m);
        }
    }
    acc
}

fn random_odd(rng: &mut rand::rngs::StdRng, bits: usize) -> BigUint {
    let mut m = BigUint::random_bits(rng, bits);
    m.set_bit(0, true);
    m.set_bit(bits - 1, true);
    m
}

#[test]
fn cached_ctx_modpow_matches_oracle_across_widths() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xD1FF);
    // Single-limb through many-limb moduli, crossing every width class the
    // CIOS kernel handles differently.
    for bits in [16usize, 63, 64, 65, 128, 192, 256, 320, 512] {
        let m = random_odd(&mut rng, bits);
        let ctx = MontgomeryCtx::new(&m);
        for _ in 0..8 {
            let base = BigUint::random_below(&mut rng, &m);
            let exp = BigUint::random_bits(&mut rng, bits);
            let expect = oracle_modpow(&base, &exp, &m);
            assert_eq!(ctx.modpow(&base, &exp), expect, "cached ctx, {bits}-bit modulus");
            assert_eq!(base.modpow(&exp, &m), expect, "per-call path, {bits}-bit modulus");
            assert_eq!(base.modpow_ctx(&exp, &ctx), expect, "modpow_ctx entry point, {bits}-bit modulus");
        }
    }
}

#[test]
fn boundary_operands_match_oracle() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xB0DD);
    for bits in [64usize, 128, 256] {
        let m = random_odd(&mut rng, bits);
        let ctx = MontgomeryCtx::new(&m);
        let n_minus_1 = &m - &BigUint::one();
        let cases: &[(&BigUint, BigUint)] = &[
            (&n_minus_1, BigUint::random_bits(&mut rng, bits)), // base n-1
            (&n_minus_1, n_minus_1.clone()),                    // both n-1
            (&n_minus_1, BigUint::zero()),                      // exp 0
            (&n_minus_1, BigUint::one()),                       // exp 1
        ];
        for (base, exp) in cases {
            assert_eq!(ctx.modpow(base, exp), oracle_modpow(base, exp, &m), "{bits}-bit boundary case");
        }
        // Zero base.
        let exp = BigUint::random_bits(&mut rng, bits);
        assert_eq!(ctx.modpow(&BigUint::zero(), &exp), BigUint::zero());
    }
}

#[test]
fn mul_mod_matches_division_based_modmul() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x3A7);
    for bits in [64usize, 127, 256, 512] {
        let m = random_odd(&mut rng, bits);
        let ctx = MontgomeryCtx::new(&m);
        for _ in 0..16 {
            let a = BigUint::random_below(&mut rng, &m);
            let b = BigUint::random_below(&mut rng, &m);
            assert_eq!(ctx.mul_mod(&a, &b), a.modmul(&b, &m), "{bits}-bit mul_mod");
        }
        let n_minus_1 = &m - &BigUint::one();
        assert_eq!(ctx.mul_mod(&n_minus_1, &n_minus_1), n_minus_1.modmul(&n_minus_1, &m));
    }
}

#[test]
fn crt_modpow_matches_direct_full_width() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC27);
    for bits in [64usize, 128, 256] {
        // Random odd moduli are coprime with overwhelming probability;
        // retry the rare failures so the test stays deterministic per seed.
        let (m1, m2, crt) = loop {
            let m1 = random_odd(&mut rng, bits);
            let m2 = random_odd(&mut rng, bits);
            if let Ok(crt) = CrtCtx::new(&m1, &m2) {
                break (m1, m2, crt);
            }
        };
        let n = &m1 * &m2;
        for _ in 0..6 {
            let base = BigUint::random_below(&mut rng, &n);
            let e = BigUint::random_bits(&mut rng, bits);
            let x1 = oracle_modpow(&base, &e, &m1);
            let x2 = oracle_modpow(&base, &e, &m2);
            let combined = crt.combine(&x1, &x2);
            assert_eq!(&combined % &m1, x1, "{bits}-bit combine residue 1");
            assert_eq!(&combined % &m2, x2, "{bits}-bit combine residue 2");
            // With equal exponents the recombined value IS base^e mod m1·m2.
            assert_eq!(crt.modpow(&base, &e, &e), oracle_modpow(&base, &e, &n), "{bits}-bit full recombination");
            // modpow2 halves must equal the oracle residues.
            let (r1, r2) = crt.modpow2(&base, &e, &e);
            assert_eq!(r1, x1);
            assert_eq!(r2, x2);
        }
    }
}

#[test]
fn reduced_fast_paths_match_general_modadd_modsub() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xADD);
    for bits in [64usize, 256] {
        let m = random_odd(&mut rng, bits);
        for _ in 0..32 {
            let a = BigUint::random_below(&mut rng, &m);
            let b = BigUint::random_below(&mut rng, &m);
            assert_eq!(a.modadd_reduced(&b, &m), a.modadd(&b, &m));
            assert_eq!(a.modsub_reduced(&b, &m), a.modsub(&b, &m));
        }
    }
}

/// The decoder `from_bytes_be` replaced: shift the whole number left by one
/// byte and add, per input byte. Quadratic, kept here as the oracle only.
fn shift_and_add_from_bytes_be(bytes: &[u8]) -> BigUint {
    let mut out = BigUint::zero();
    for &b in bytes {
        out = &(&out << 8) + &BigUint::from(b as u64);
    }
    out
}

#[test]
fn from_bytes_be_matches_shift_and_add_for_every_length() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xBE);
    for len in 0..=300usize {
        let mut bytes = vec![0u8; len];
        rand::RngCore::fill_bytes(&mut rng, &mut bytes);
        for lead in [None, Some(0u8), Some(0xff)] {
            if let (Some(b), Some(first)) = (lead, bytes.first_mut()) {
                *first = b;
            }
            let v = BigUint::from_bytes_be(&bytes);
            assert_eq!(v, shift_and_add_from_bytes_be(&bytes), "length {len}, lead {lead:?}");
            // The minimal encoding is what the WAL, snapshots and the wire carry.
            let skip = bytes.iter().take_while(|&&b| b == 0).count();
            assert_eq!(v.to_bytes_be(), &bytes[skip..], "length {len}, lead {lead:?}");
        }
    }
}

#[test]
fn from_hex_str_matches_byte_decoder_across_limb_boundaries() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x4E);
    for len in 1..=80usize {
        let mut bytes = vec![0u8; len];
        rand::RngCore::fill_bytes(&mut rng, &mut bytes);
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        let expect = BigUint::from_bytes_be(&bytes);
        assert_eq!(BigUint::from_hex_str(&hex).unwrap(), expect, "{len} bytes");
        assert_eq!(BigUint::from_hex_str(&hex.to_uppercase()).unwrap(), expect, "{len} bytes, upper case");
        // An odd digit count puts the short chunk first.
        assert_eq!(BigUint::from_hex_str(&hex[1..]).unwrap(), expect.low_bits(8 * len - 4), "{len} bytes, odd");
        let mut bad = hex.clone().into_bytes();
        bad[len / 2] = b'g';
        assert!(BigUint::from_hex_str(std::str::from_utf8(&bad).unwrap()).is_err());
    }
}

#[test]
fn product_fold_matches_left_to_right_modmul() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xF01D);
    for bits in [64usize, 65, 128, 1024] {
        let m = random_odd(&mut rng, bits);
        let ctx = MontgomeryCtx::new(&m);
        let k_bytes = 8 * bits.div_ceil(64);
        // Boundary operands first, so every count above zero meets some.
        let mut operands: Vec<Vec<u8>> = vec![
            (&m - &BigUint::one()).to_bytes_be(),                       // n − 1
            [vec![0u8; 5], BigUint::from(7u64).to_bytes_be()].concat(), // leading zero bytes
            m.to_bytes_be(),                                            // = n
            (&m + &BigUint::from(12345u64)).to_bytes_be(),              // > n, same width
            vec![0xff; k_bytes + 1],                                    // wider than k limbs
            [vec![0u8; 3 * k_bytes], (&m - &BigUint::from(2u64)).to_bytes_be()].concat(), // long, but < n
        ];
        operands.extend((0..300).map(|_| BigUint::random_below(&mut rng, &m).to_bytes_be()));
        for count in [0usize, 1, 2, 3, 17, 300] {
            let expect = operands[..count]
                .iter()
                .fold(&BigUint::one() % &m, |acc, b| acc.modmul(&BigUint::from_bytes_be(b), &m));
            let got = ctx.product_be(operands[..count].iter().map(Vec::as_slice));
            assert_eq!(got, expect, "{bits}-bit modulus, {count} operands");
        }
        // A zero operand (empty or all-zero bytes) annihilates the product.
        for zero in [&[][..], &[0u8; 9][..]] {
            let with_zero = operands[..17].iter().map(Vec::as_slice).chain([zero]);
            assert_eq!(ctx.product_be(with_zero), BigUint::zero(), "{bits}-bit modulus, zero operand");
        }
    }
    assert_eq!(MontgomeryCtx::new(&BigUint::one()).product_be([&[5u8][..]]), BigUint::zero(), "modulus 1");
}

/// Every width the Montgomery kernel is compiled for (1 to 256 limbs, the
/// powers of two) and padded widths between them (a 3-limb modulus runs the
/// 4-limb kernel), each with a random modulus and one whose top limb is
/// `u64::MAX`, `n − 1` operands included. Above 16 limbs the exponents are
/// 64 bits, which keeps the oracle quick in debug builds.
#[test]
fn every_kernel_width_matches_oracle() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x1D7);
    for limbs in [1usize, 2, 3, 4, 5, 8, 9, 16, 17, 32, 64, 128, 256] {
        let bits = 64 * limbs;
        let exp_bits = if limbs <= 16 { bits } else { 64 };
        for full_top in [false, true] {
            let mut m = random_odd(&mut rng, bits);
            if full_top {
                (bits - 64..bits).for_each(|i| m.set_bit(i, true));
            }
            let what = format!("{limbs} limbs, top limb full: {full_top}");
            let ctx = MontgomeryCtx::new(&m);
            let n_minus_1 = &m - &BigUint::one();
            let (a, b) = (BigUint::random_below(&mut rng, &m), BigUint::random_below(&mut rng, &m));
            let exp = BigUint::random_bits(&mut rng, exp_bits);
            for base in [&a, &n_minus_1] {
                assert_eq!(ctx.modpow(base, &exp), oracle_modpow(base, &exp, &m), "modpow, {what}");
            }
            if limbs <= 16 {
                assert_eq!(ctx.modpow(&n_minus_1, &n_minus_1), oracle_modpow(&n_minus_1, &n_minus_1, &m), "{what}");
            }
            for (x, y) in [(&a, &b), (&n_minus_1, &a), (&n_minus_1, &n_minus_1)] {
                assert_eq!(ctx.mul_mod(x, y), x.modmul(y, &m), "mul_mod, {what}");
            }
            let operands = [n_minus_1.to_bytes_be(), a.to_bytes_be(), b.to_bytes_be(), n_minus_1.to_bytes_be()];
            let expect = a.modmul(&b, &m).modmul(&n_minus_1.modmul(&n_minus_1, &m), &m);
            assert_eq!(ctx.product_be(operands.iter().map(Vec::as_slice)), expect, "product_be, {what}");

            // CRT with this modulus as one half: each residue against the
            // oracle, which pins the recombined value below m·m2.
            let m2 = random_odd(&mut rng, bits);
            let Ok(crt) = CrtCtx::new(&m, &m2) else { continue };
            let base = BigUint::random_below(&mut rng, crt.modulus());
            let e2 = BigUint::random_bits(&mut rng, exp_bits);
            let x = crt.modpow(&base, &exp, &e2);
            assert!(&x < crt.modulus(), "CrtCtx::modpow range, {what}");
            assert_eq!(&x % &m, oracle_modpow(&base, &exp, &m), "CrtCtx::modpow residue 1, {what}");
            assert_eq!(&x % &m2, oracle_modpow(&base, &e2, &m2), "CrtCtx::modpow residue 2, {what}");
        }
    }
}

#[test]
#[should_panic(expected = "at most 256 limbs")]
fn montgomery_ctx_refuses_257_limbs() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x257);
    MontgomeryCtx::new(&random_odd(&mut rng, 64 * 257));
}

/// Past the widest kernel, `BigUint::modpow` still answers, through its
/// division-based loop.
#[test]
fn modpow_answers_past_the_widest_kernel() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x258);
    let m = random_odd(&mut rng, 64 * 257);
    let base = BigUint::random_below(&mut rng, &m);
    let exp = BigUint::random_bits(&mut rng, 24);
    assert_eq!(base.modpow(&exp, &m), oracle_modpow(&base, &exp, &m));
}

/// The lane tier against the scalar kernel, its oracle: every width the
/// lane kernel is compiled for, each at its widest modulus (`52·L − 2`
/// bits, so `4n` just fits `R`) and at a modulus whose top 64-bit limb is
/// `u64::MAX`; 1 to 8 bases, so partial and whole passes run; the bases 0, 1,
/// `n − 1` and one `≥ n`; the exponents 0, 1, `2^k − 1` and random ones;
/// and powers that are 0 under a square modulus.
/// Above 16 digits the exponents are 64 bits, which keeps debug builds
/// quick. On a CPU without the lane kernel `modpow_lanes` is the scalar
/// loop; the scalar half still runs, and stderr says the lane half did not.
#[test]
fn lanes_match_scalar_at_every_lane_width() {
    let tier = datablinder_bigint::lane_tier();
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x1A7E);
    let widths: Vec<usize> = if tier == "scalar" {
        eprintln!("kernels_differential: tier {tier}: no AVX-512 IFMA on this CPU, lane half skipped");
        vec![2, 10, 40]
    } else {
        eprintln!("kernels_differential: tier {tier}, widths {:?}", datablinder_bigint::LANE_WIDTHS);
        datablinder_bigint::LANE_WIDTHS.to_vec()
    };
    for &width in &widths {
        let widest = 52 * width - 2;
        let exp_bits = if width <= 16 { widest } else { 64 };
        let mut full_top = random_odd(&mut rng, widest / 64 * 64);
        (full_top.bits() - 64..full_top.bits()).for_each(|i| full_top.set_bit(i, true));
        for m in [random_odd(&mut rng, widest), full_top] {
            let what = format!("{tier}, {width} digits, {}-bit modulus", m.bits());
            let ctx = MontgomeryCtx::new(&m);
            if tier != "scalar" {
                assert_eq!(ctx.lane_width(), Some(width), "{what}: runs at its own width");
            }
            let n_minus_1 = &m - &BigUint::one();
            let bases = [
                BigUint::zero(),
                BigUint::one(),
                n_minus_1.clone(),
                &m + &BigUint::random_bits(&mut rng, 40),
                BigUint::random_below(&mut rng, &m),
                BigUint::random_below(&mut rng, &m),
                n_minus_1.clone(),
                BigUint::random_below(&mut rng, &m),
            ];
            let all_ones = &(&BigUint::one() << exp_bits) - &BigUint::one();
            let exps = [BigUint::zero(), BigUint::one(), all_ones, BigUint::random_bits(&mut rng, exp_bits)];
            for exp in &exps {
                let scalar: Vec<BigUint> = bases.iter().map(|base| ctx.modpow(base, exp)).collect();
                for count in 1..=bases.len() {
                    let lanes = ctx.modpow_lanes(&bases[..count], exp);
                    assert_eq!(lanes, scalar[..count], "{what}, {count} bases, {}-bit exponent", exp.bits());
                }
            }
            // Several passes, the last one partial.
            let many: Vec<BigUint> = (0..13).map(|_| BigUint::random_below(&mut rng, &m)).collect();
            let exp = &exps[3];
            let scalar: Vec<BigUint> = many.iter().map(|base| ctx.modpow(base, exp)).collect();
            assert_eq!(ctx.modpow_lanes(&many, exp), scalar, "{what}, 13 bases");
        }
        // Powers ≡ 0 (mod n): under n = f², the bases f and 3f from the
        // exponent 2 up. A ladder may end such a power at n, which the lanes
        // must read as 0.
        let f = random_odd(&mut rng, widest / 2);
        let m = &f * &f;
        let ctx = MontgomeryCtx::new(&m);
        let bases = [f.clone(), &f * &BigUint::from(3u64), BigUint::random_below(&mut rng, &m)];
        for exp in [BigUint::from(2u64), BigUint::from(15u64), BigUint::random_bits(&mut rng, 64)] {
            let scalar: Vec<BigUint> = bases.iter().map(|base| ctx.modpow(base, &exp)).collect();
            assert!(scalar[0].is_zero() && scalar[1].is_zero(), "{width} digits: f^e ≡ 0 mod f²");
            assert_eq!(ctx.modpow_lanes(&bases, &exp), scalar, "{tier}, {width} digits, n = f², exponent {exp}");
        }
    }
    // Past the widest lane width, and for the modulus 1, the scalar kernel
    // answers.
    let wide = random_odd(&mut rng, 52 * 80);
    let ctx = MontgomeryCtx::new(&wide);
    assert_eq!(ctx.lane_width(), None, "{} bits is past the widest lane width", wide.bits());
    let base = BigUint::random_below(&mut rng, &wide);
    let exp = BigUint::random_bits(&mut rng, 16);
    assert_eq!(ctx.modpow_lanes(std::slice::from_ref(&base), &exp), [ctx.modpow(&base, &exp)]);
    let one = MontgomeryCtx::new(&BigUint::one());
    assert_eq!(one.modpow_lanes(&[BigUint::from(5u64)], &exp), [BigUint::zero()]);
}
