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
#![forbid(unsafe_code)]
mod convert;
mod div;
mod modular;
pub mod prime;
mod signed;
mod uint;

pub use modular::{CrtCtx, MontgomeryCtx};
pub use signed::{BigInt, Sign};
pub use uint::BigUint;

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
