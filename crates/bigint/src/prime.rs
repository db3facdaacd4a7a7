//! Primality testing and random prime generation.
//!
//! Uses trial division by small primes followed by Miller–Rabin with random
//! bases (plus the deterministic witness set for 64-bit inputs).

use rand::Rng;

use crate::modular::MontgomeryCtx;
use crate::uint::BigUint;

/// Small primes used for fast trial division before Miller–Rabin.
const SMALL_PRIMES: [u64; 46] = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109,
    113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199,
];

/// Number of random Miller–Rabin rounds for multi-precision candidates.
/// 40 rounds gives error probability below 2^-80.
const MR_ROUNDS: usize = 40;

/// Tests `n` for primality.
///
/// Deterministic and exact for `n < 2^64`; probabilistic (error < 2^-80)
/// above that.
///
/// # Panics
///
/// Panics for an `n` wider than [`MontgomeryCtx::new`] takes (16,384 bits)
/// that no small prime divides.
///
/// # Examples
///
/// ```
/// use datablinder_bigint::{BigUint, prime};
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// assert!(prime::is_prime(&BigUint::from(65537u64), &mut rng));
/// assert!(!prime::is_prime(&BigUint::from(65539u64 * 3), &mut rng));
/// ```
pub fn is_prime<R: Rng + ?Sized>(n: &BigUint, rng: &mut R) -> bool {
    if let Some(v) = n.to_u64() {
        return is_prime_u64(v);
    }
    for &p in &SMALL_PRIMES {
        if n.divrem_u64(p).1 == 0 {
            return false; // n > 2^64, so n != p
        }
    }
    let (d, s) = decompose(n);
    let n_minus_1 = n.sub_u64(1);
    let two = BigUint::from(2u64);
    let upper = &n_minus_1 - &BigUint::one(); // sample witnesses in [2, n-2]
                                              // One Montgomery context amortized across all 40 witness rounds; `n` is
                                              // odd here (even values were rejected by trial division above).
    let ctx = MontgomeryCtx::new(n);
    for _ in 0..MR_ROUNDS {
        let a = &BigUint::random_below(rng, &(&upper - &two)) + &two;
        if !miller_rabin_round(&ctx, &n_minus_1, &d, s, &a) {
            return false;
        }
    }
    true
}

/// Exact primality for `u64` using the deterministic witness set
/// {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37}.
pub fn is_prime_u64(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    for &p in &SMALL_PRIMES {
        if n == p {
            return true;
        }
        if n.is_multiple_of(p) {
            return false;
        }
    }
    let mut d = n - 1;
    let mut s = 0u32;
    while d.is_multiple_of(2) {
        d /= 2;
        s += 1;
    }
    'witness: for &a in &[2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        let mut x = modpow_u64(a % n, d, n);
        if x == 1 || x == n - 1 {
            continue;
        }
        for _ in 1..s {
            x = mulmod_u64(x, x, n);
            if x == n - 1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

fn mulmod_u64(a: u64, b: u64, m: u64) -> u64 {
    (a as u128 * b as u128 % m as u128) as u64
}

fn modpow_u64(mut b: u64, mut e: u64, m: u64) -> u64 {
    let mut r = 1u64 % m;
    b %= m;
    while e > 0 {
        if e & 1 == 1 {
            r = mulmod_u64(r, b, m);
        }
        b = mulmod_u64(b, b, m);
        e >>= 1;
    }
    r
}

/// Writes `n - 1 = d * 2^s` with `d` odd.
fn decompose(n: &BigUint) -> (BigUint, usize) {
    let n_minus_1 = n.sub_u64(1);
    let s = n_minus_1.trailing_zeros().expect("n > 1");
    (&n_minus_1 >> s, s)
}

/// One Miller–Rabin round with witness `a`; `true` means "probably prime".
/// Takes the candidate's cached Montgomery context so the per-witness
/// exponentiation skips the context build.
fn miller_rabin_round(ctx: &MontgomeryCtx, n_minus_1: &BigUint, d: &BigUint, s: usize, a: &BigUint) -> bool {
    let mut x = ctx.modpow(a, d);
    if x.is_one() || &x == n_minus_1 {
        return true;
    }
    for _ in 1..s {
        x = ctx.mul_mod(&x, &x);
        if &x == n_minus_1 {
            return true;
        }
    }
    false
}

/// Generates a random prime with exactly `bits` bits.
///
/// The top two bits are forced to 1 (so that products of two such primes
/// have exactly `2*bits` bits, as RSA/Paillier key generation expects) and
/// the low bit is forced to 1.
///
/// # Panics
///
/// Panics if `bits < 4`.
pub fn gen_prime<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> BigUint {
    assert!(bits >= 4, "prime size must be at least 4 bits");
    loop {
        let mut candidate = BigUint::random_bits(rng, bits);
        candidate.set_bit(bits - 1, true);
        candidate.set_bit(bits - 2, true);
        candidate.set_bit(0, true);
        if is_prime(&candidate, rng) {
            return candidate;
        }
    }
}

/// Generates a "safe-ish" prime pair `(p, q)` of `bits` bits each with
/// `p != q`, suitable for RSA/Paillier moduli in tests and benchmarks.
pub fn gen_prime_pair<R: Rng + ?Sized>(rng: &mut R, bits: usize) -> (BigUint, BigUint) {
    let p = gen_prime(rng, bits);
    loop {
        let q = gen_prime(rng, bits);
        if q != p {
            return (p, q);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(0xDB11)
    }

    #[test]
    fn small_primes_classified() {
        let primes: Vec<u64> = (0..100).filter(|&n| is_prime_u64(n)).collect();
        assert_eq!(
            primes,
            vec![2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97]
        );
    }

    #[test]
    fn u64_edge_cases() {
        assert!(!is_prime_u64(0));
        assert!(!is_prime_u64(1));
        assert!(is_prime_u64(2));
        assert!(is_prime_u64(18446744073709551557)); // largest prime < 2^64
        assert!(!is_prime_u64(18446744073709551555));
        // strong pseudoprime to several bases; MR with full witness set catches it
        assert!(!is_prime_u64(3215031751));
    }

    #[test]
    fn carmichael_numbers_rejected() {
        for n in [561u64, 1105, 1729, 2465, 2821, 6601, 8911] {
            assert!(!is_prime_u64(n), "{n} is Carmichael, not prime");
        }
    }

    #[test]
    fn multiprecision_known_prime() {
        let mut r = rng();
        // 2^89 - 1 is a Mersenne prime.
        let m89 = &(&BigUint::one() << 89) - &BigUint::one();
        assert!(is_prime(&m89, &mut r));
        // 2^87 - 1 = 3 * ... is composite.
        let m87 = &(&BigUint::one() << 87) - &BigUint::one();
        assert!(!is_prime(&m87, &mut r));
    }

    #[test]
    fn generated_primes_have_exact_bits() {
        let mut r = rng();
        for bits in [16usize, 32, 64, 128] {
            let p = gen_prime(&mut r, bits);
            assert_eq!(p.bits(), bits, "requested {bits} bits");
            assert!(p.is_odd());
            assert!(is_prime(&p, &mut r));
        }
    }

    #[test]
    fn prime_pair_distinct() {
        let mut r = rng();
        let (p, q) = gen_prime_pair(&mut r, 32);
        assert_ne!(p, q);
        // product has exactly 64 bits thanks to the forced top-two bits
        assert_eq!((&p * &q).bits(), 64);
    }
}
