//! The keyed pseudorandom-function abstraction used as a building block by
//! the data protection tactics (paper §4.2, "cryptographic primitives as
//! building blocks, e.g. PRF").

use crate::hmac::HmacCtx;
use crate::keys::SymmetricKey;

/// A pseudorandom function family keyed by a [`SymmetricKey`].
///
/// The SSE tactics (Mitra, Sophos, 2Lev, BIEX) are generic over this trait
/// so alternative PRFs can be plugged in (crypto agility down to the
/// primitive level).
pub trait Prf: Send + Sync {
    /// Evaluates the PRF, producing 32 pseudorandom bytes.
    fn eval(&self, input: &[u8]) -> [u8; 32];

    /// Evaluates over multiple input parts without concatenation ambiguity
    /// (each part is length-prefixed).
    fn eval_parts(&self, parts: &[&[u8]]) -> [u8; 32] {
        let mut buf = Vec::with_capacity(parts.iter().map(|p| 8 + p.len()).sum());
        for p in parts {
            buf.extend_from_slice(&(p.len() as u64).to_be_bytes());
            buf.extend_from_slice(p);
        }
        self.eval(&buf)
    }

    /// Evaluates and truncates/expands to `len` bytes (counter-mode expand).
    fn eval_len(&self, input: &[u8], len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        let mut counter = 0u32;
        while out.len() < len {
            let mut msg = input.to_vec();
            msg.extend_from_slice(&counter.to_be_bytes());
            out.extend_from_slice(&self.eval(&msg));
            counter += 1;
        }
        out.truncate(len);
        out
    }
}

/// HMAC-SHA256 as a PRF — the standard instantiation.
///
/// # Examples
///
/// ```
/// use datablinder_primitives::prf::{HmacPrf, Prf};
/// use datablinder_primitives::keys::SymmetricKey;
///
/// let prf = HmacPrf::new(SymmetricKey::from_bytes(&[1u8; 32]));
/// assert_eq!(prf.eval(b"w"), prf.eval(b"w"));
/// assert_ne!(prf.eval(b"w"), prf.eval(b"x"));
/// ```
#[derive(Clone)]
pub struct HmacPrf {
    // The ipad/opad midstates are precomputed once here, so each eval
    // skips HMAC key preparation (an [`HmacCtx`] amortization; the
    // heaviest users — the ORE bit-position PRFs — call eval dozens of
    // times per encryption under one key).
    ctx: HmacCtx,
}

impl HmacPrf {
    /// Creates the PRF from a key.
    pub fn new(key: SymmetricKey) -> Self {
        HmacPrf { ctx: HmacCtx::new(key.as_bytes()) }
    }
}

impl Prf for HmacPrf {
    fn eval(&self, input: &[u8]) -> [u8; 32] {
        self.ctx.mac(input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prf() -> HmacPrf {
        HmacPrf::new(SymmetricKey::from_bytes(&[7u8; 32]))
    }

    #[test]
    fn deterministic_and_key_separated() {
        let a = HmacPrf::new(SymmetricKey::from_bytes(&[1u8; 32]));
        let b = HmacPrf::new(SymmetricKey::from_bytes(&[2u8; 32]));
        assert_eq!(a.eval(b"in"), a.eval(b"in"));
        assert_ne!(a.eval(b"in"), b.eval(b"in"));
    }

    #[test]
    fn eval_parts_is_injective_on_boundaries() {
        // ("ab","c") and ("a","bc") must map to different outputs.
        let p = prf();
        assert_ne!(p.eval_parts(&[b"ab", b"c"]), p.eval_parts(&[b"a", b"bc"]));
        assert_ne!(p.eval_parts(&[b"ab"]), p.eval(b"ab"));
    }

    #[test]
    fn eval_len_expands() {
        let p = prf();
        let out = p.eval_len(b"seed", 100);
        assert_eq!(out.len(), 100);
        // Prefix property: first 32 bytes equal the counter-0 block.
        let out2 = p.eval_len(b"seed", 32);
        assert_eq!(&out[..32], &out2[..]);
        assert_eq!(p.eval_len(b"seed", 0), Vec::<u8>::new());
    }
}
