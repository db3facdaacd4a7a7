//! Arbitrary-precision unsigned and signed integer arithmetic.
//!
//! This crate is the numeric substrate for the DataBlinder reproduction: the
//! [Paillier](https://en.wikipedia.org/wiki/Paillier_cryptosystem) partially
//! homomorphic cryptosystem and the Sophos trapdoor permutation (RSA) are
//! built on top of it. It deliberately has no dependencies beyond `rand`
//! (for prime generation) and implements:
//!
//! * [`BigUint`] — unsigned big integers with schoolbook + Karatsuba
//!   multiplication and Knuth Algorithm D division,
//! * [`BigInt`] — a thin signed wrapper used by the extended Euclidean
//!   algorithm,
//! * modular arithmetic: [`BigUint::modpow`], [`BigUint::modinv`],
//! * amortized contexts: [`MontgomeryCtx`] (cached Montgomery domain for
//!   one odd modulus, one CIOS kernel compiled per power-of-two width
//!   from 1 to 256 limbs, on stack arrays) and [`CrtCtx`]
//!   (two-prime residue systems for RSA/Paillier-style CRT),
//! * a lane tier: [`MontgomeryCtx::modpow_lanes`] raises up to four bases
//!   to one exponent per pass of an AVX-512 IFMA kernel on a CPU that has
//!   one ([`lane_tier`] says which tier runs), and through the scalar
//!   kernel everywhere else, with identical output,
//! * primality testing (Miller–Rabin) and random prime generation in
//!   [`prime`].
//!
//! # Examples
//!
//! ```
//! use datablinder_bigint::BigUint;
//!
//! let a = BigUint::from(123456789u64);
//! let b = BigUint::from(987654321u64);
//! let m = BigUint::from(1000000007u64);
//! let c = a.modpow(&b, &m);
//! assert_eq!(c, BigUint::from(652541198u64));
//! ```
//!
//! # Security note
//!
//! The implementation is value-correct but **not constant time**; it exists
//! to reproduce functionality and performance shape of the paper, not to
//! protect real keys.

#![warn(missing_docs)]
#![deny(unsafe_code)]
mod convert;
mod div;
mod modular;

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod ifma;

/// No lane tier off x86-64: the witness cannot exist, `detect` says so,
/// and the kernel behind it is unreachable.
#[cfg(not(target_arch = "x86_64"))]
mod ifma {
    use crate::uint::BigUint;

    pub(crate) const LANES: usize = 4;
    pub(crate) const DIGIT_BITS: usize = 52;
    pub(crate) const WIDTHS: &[usize] = &[];

    #[derive(Clone, Copy, Debug)]
    pub(crate) enum Ifma {}

    impl Ifma {
        pub(crate) fn detect() -> Option<Self> {
            None
        }
        pub(crate) fn modpow(self, _: &[u64], _: u64, _: &[u64], _: &mut [[u64; LANES]], _: &BigUint) {
            match self {}
        }
    }
}
pub mod prime;
mod signed;
mod uint;

pub use modular::{CrtCtx, MontgomeryCtx};
pub use signed::{BigInt, Sign};
pub use uint::BigUint;

/// The 52-bit digit counts the lane kernel is compiled for (empty off
/// x86-64); a modulus of `b` bits runs at the narrowest `L` with
/// `52·L ≥ b + 2`, and a wider one runs the scalar kernel.
pub const LANE_WIDTHS: &[usize] = ifma::WIDTHS;

/// Which tier [`MontgomeryCtx::modpow_lanes`] runs on this CPU:
/// `"avx512ifma"` (four lanes per pass) or `"scalar"`.
pub fn lane_tier() -> &'static str {
    if ifma::Ifma::detect().is_some() {
        "avx512ifma"
    } else {
        "scalar"
    }
}

/// Errors produced by this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BigIntError {
    /// Division or reduction by zero was attempted.
    DivisionByZero,
    /// A modular inverse was requested for a non-invertible element.
    NotInvertible,
    /// A string could not be parsed as an integer in the requested radix.
    ParseError(String),
}

impl std::fmt::Display for BigIntError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BigIntError::DivisionByZero => write!(f, "division by zero"),
            BigIntError::NotInvertible => write!(f, "element is not invertible modulo the given modulus"),
            BigIntError::ParseError(s) => write!(f, "invalid integer literal: {s}"),
        }
    }
}

impl std::error::Error for BigIntError {}
