//! Cryptographic primitives for the DataBlinder reproduction.
//!
//! The original DataBlinder system used Bouncy Castle for AES/GCM,
//! HMAC-SHA256 and related building blocks. This crate rebuilds that
//! substrate from scratch:
//!
//! * [`sha256`] — FIPS 180-4 SHA-256,
//! * [`hmac`] — RFC 2104 HMAC-SHA256 and RFC 5869 HKDF,
//! * [`aes`] — FIPS 197 AES-128/192/256 block cipher,
//! * [`ctr`] — AES-CTR stream encryption,
//! * [`gcm`] — AES-GCM authenticated encryption (GHASH over GF(2^128)),
//! * [`prf`] — the keyed PRF abstraction tactics are built on,
//! * [`ct`] — constant-time comparison,
//! * [`keys`] — symmetric key material with best-effort zeroization.
//!
//! # Examples
//!
//! ```
//! use datablinder_primitives::gcm::AesGcm;
//! use datablinder_primitives::keys::SymmetricKey;
//!
//! # fn main() -> Result<(), datablinder_primitives::CryptoError> {
//! let key = SymmetricKey::from_bytes(&[7u8; 16]);
//! let cipher = AesGcm::new(&key)?;
//! let nonce = [1u8; 12];
//! let ct = cipher.seal(&nonce, b"attached data", b"hello world");
//! let pt = cipher.open(&nonce, b"attached data", &ct)?;
//! assert_eq!(pt, b"hello world");
//! # Ok(())
//! # }
//! ```
//!
//! # Two tiers
//!
//! AES, GHASH and the SHA-256 compression function each have two
//! implementations: a portable one compiled on every architecture, and on
//! x86-64 a hardware one (AES-NI, PCLMULQDQ, SHA-NI) in the private `isa`
//! module. Each context picks its tier once, when it is created, from what
//! the CPU reports; outputs are byte-identical, and [`backend`] says which
//! tier is running. Nothing selects a tier from outside.
//!
//! # Security note
//!
//! Faithful to the algorithms but **not audited and not constant time**
//! throughout (the portable tier's table-based AES and GHASH,
//! variable-time big-integer ops upstream; the hardware tier's AES and
//! GHASH instructions are data-independent). Do not reuse outside this
//! reproduction.

#![warn(missing_docs)]
#![deny(unsafe_code)]
pub mod aes;
pub mod ct;
pub mod ctr;
pub mod gcm;
pub mod hmac;
pub mod keys;
pub mod prf;
pub mod sha256;

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod isa;

/// No hardware tier off x86-64: the witnesses cannot exist, every `detect`
/// says so, and the methods behind them are unreachable.
#[cfg(not(target_arch = "x86_64"))]
mod isa {
    #[derive(Clone, Copy)]
    pub(crate) enum AesNi {}
    #[derive(Clone, Copy)]
    pub(crate) enum Clmul {}
    #[derive(Clone, Copy)]
    pub(crate) enum ShaNi {}

    impl AesNi {
        pub(crate) fn detect() -> Option<Self> {
            None
        }
        pub(crate) fn encrypt_block(self, _: &[[u8; 16]], _: &mut [u8; 16]) {
            match self {}
        }
        pub(crate) fn ctr_xor(self, _: &[[u8; 16]], _: &[u8; 16], _: &mut [u8]) {
            match self {}
        }
        pub(crate) fn ctr_xor_after(self, _: &[[u8; 16]], _: &[u8; 16], _: &mut [u8]) -> [u8; 16] {
            match self {}
        }
    }

    impl Clmul {
        pub(crate) fn detect() -> Option<Self> {
            None
        }
        pub(crate) fn ghash_powers(self, _: u128) -> [u128; 4] {
            match self {}
        }
        pub(crate) fn ghash(self, _: &[u128; 4], _: impl Iterator<Item = u128>) -> u128 {
            match self {}
        }
    }

    impl ShaNi {
        pub(crate) fn detect() -> Option<Self> {
            None
        }
        pub(crate) fn compress(self, _: &mut [u32; 8], _: &[[u8; 64]]) {
            match self {}
        }
    }
}

/// Which tier the symmetric kernels run on in this process: the hardware
/// kernels in use joined by `+` (`"aes-ni+pclmulqdq+sha-ni"` when all three
/// are), or `"portable"` when none is.
pub fn backend() -> &'static str {
    const NAMES: [&str; 8] = [
        "portable",
        "aes-ni",
        "pclmulqdq",
        "aes-ni+pclmulqdq",
        "sha-ni",
        "aes-ni+sha-ni",
        "pclmulqdq+sha-ni",
        "aes-ni+pclmulqdq+sha-ni",
    ];
    NAMES[backend_bits() as usize]
}

/// [`backend`] as a bit set: 1 AES-NI, 2 PCLMULQDQ, 4 SHA-NI; 0 is the
/// portable tier.
pub fn backend_bits() -> u8 {
    u8::from(isa::AesNi::detect().is_some())
        | u8::from(isa::Clmul::detect().is_some()) << 1
        | u8::from(isa::ShaNi::detect().is_some()) << 2
}

/// The portable tier by name, for `tests/isa_differential.rs`: the contexts
/// the public constructors build, pinned to the implementation every
/// architecture compiles. Not a configuration surface: nothing in the
/// product calls these, and no argument or variable switches a tier.
#[doc(hidden)]
pub mod portable {
    use crate::{aes::Aes, gcm::AesGcm, hmac::HmacCtx, keys::SymmetricKey, sha256::Sha256, CryptoError};

    /// [`Aes::new`] on the portable tier.
    pub fn aes(key: &[u8]) -> Result<Aes, CryptoError> {
        Aes::portable(key)
    }

    /// [`AesGcm::new`] on the portable tier.
    pub fn gcm(key: &SymmetricKey) -> Result<AesGcm, CryptoError> {
        AesGcm::portable(key)
    }

    /// [`Sha256::new`] on the portable tier.
    pub fn sha256() -> Sha256 {
        Sha256::portable()
    }

    /// [`HmacCtx::new`] on the portable tier.
    pub fn hmac(key: &[u8]) -> HmacCtx {
        HmacCtx::portable(key)
    }

    /// [`crate::hmac::hkdf`] on the portable tier.
    pub fn hkdf(salt: &[u8], ikm: &[u8], info: &[u8], len: usize) -> Vec<u8> {
        HmacCtx::portable(&HmacCtx::portable(salt).mac(ikm)).expand(info, len)
    }
}

/// Errors produced by the primitives crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CryptoError {
    /// Key material has an unsupported length for the requested algorithm.
    InvalidKeyLength {
        /// Acceptable lengths, human-readable.
        expected: &'static str,
        /// The length supplied.
        got: usize,
    },
    /// Ciphertext is malformed (too short, truncated tag, ...).
    MalformedCiphertext,
    /// Authentication tag verification failed.
    AuthenticationFailed,
    /// A nonce/IV had the wrong size.
    InvalidNonce {
        /// Required nonce length in bytes.
        expected: usize,
        /// The length supplied.
        got: usize,
    },
}

impl std::fmt::Display for CryptoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CryptoError::InvalidKeyLength { expected, got } => {
                write!(f, "invalid key length: expected {expected} bytes, got {got}")
            }
            CryptoError::MalformedCiphertext => write!(f, "malformed ciphertext"),
            CryptoError::AuthenticationFailed => write!(f, "authentication tag mismatch"),
            CryptoError::InvalidNonce { expected, got } => {
                write!(f, "invalid nonce length: expected {expected} bytes, got {got}")
            }
        }
    }
}

impl std::error::Error for CryptoError {}
