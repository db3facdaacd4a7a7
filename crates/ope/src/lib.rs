//! Order-preserving encryption (OPE) in the style of Boldyreva, Chenette,
//! Lee and O'Neill (CT-RSA 2009 / ePrint 2012/624).
//!
//! The scheme maps a `domain_bits`-bit plaintext to a strictly larger
//! `range_bits`-bit ciphertext such that `a < b ⇒ Enc(a) < Enc(b)`. The
//! paper's DataBlinder system used the `aymanmadkour/ope` Java
//! implementation for its Range Query tactic (protection class 5, leakage
//! level *Order*).
//!
//! # Substitution note (recorded in DESIGN.md)
//!
//! The reference scheme samples from an exact hypergeometric distribution.
//! Like most practical implementations, we substitute a deterministic
//! normal-approximated binomial sampler seeded from HMAC-SHA256 coins.
//! Order preservation and determinism — the properties the middleware and
//! the evaluation rely on — are unaffected; only the exact ciphertext
//! distribution differs.
//!
//! # Resumed descents
//!
//! An encryption walks one tree level per domain bit, and each level's split
//! is a pure function of the key and the node. An [`Ope`] keeps the levels
//! of its last descent and a new one reuses every level whose node is the
//! node it stands at, sampling only from the first node where the paths
//! diverge. Close plaintexts share long prefixes (a range's two bounds,
//! time-ordered inserts), so they skip most of the work; the ciphertexts are
//! the ones a cold descent computes.
//!
//! # Examples
//!
//! ```
//! use datablinder_ope::{Ope, OpeParams};
//! use datablinder_primitives::keys::SymmetricKey;
//!
//! let ope = Ope::new(SymmetricKey::from_bytes(&[1u8; 32]), OpeParams::default());
//! let a = ope.encrypt(1000);
//! let b = ope.encrypt(2000);
//! assert!(a < b);
//! assert_eq!(ope.decrypt(a), Some(1000));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
use std::sync::Mutex;

use datablinder_primitives::hmac::HmacCtx;
use datablinder_primitives::keys::SymmetricKey;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Domain/range sizing for an [`Ope`] instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpeParams {
    /// Plaintext width in bits (max 64).
    pub domain_bits: u32,
    /// Ciphertext width in bits (max 127, must exceed `domain_bits`).
    pub range_bits: u32,
}

impl Default for OpeParams {
    /// 64-bit domain into a 96-bit range (CryptDB-like expansion).
    fn default() -> Self {
        OpeParams { domain_bits: 64, range_bits: 96 }
    }
}

/// A tree node: the domain window `dlo..=dhi` and the range window
/// `rlo..=rhi` it maps into.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Node {
    dlo: u128,
    dhi: u128,
    rlo: u128,
    rhi: u128,
}

/// One level of a descent: the node and its sampled split `(x, y)`.
struct Level {
    node: Node,
    split: (u128, u128),
}

/// A deterministic order-preserving cipher for unsigned integers.
pub struct Ope {
    // HMAC midstates for the coin-tape PRF, prepared once per key: an
    // encryption walks one tree level per domain bit and seeds a coin
    // tape at each, so skipping HMAC key preparation there compounds.
    mac: HmacCtx,
    params: OpeParams,
    // The levels of the last descent under this key, root first: about
    // `domain_bits` entries, never more than `range_bits` (each level halves
    // the range window). A level is reused only where its node is the node
    // the new descent stands at, so an entry is never stale.
    memo: Mutex<Vec<Level>>,
}

impl Clone for Ope {
    /// The copy starts with an empty memo.
    fn clone(&self) -> Self {
        Ope { mac: self.mac.clone(), params: self.params, memo: Mutex::default() }
    }
}

impl Ope {
    /// Creates an instance.
    ///
    /// # Panics
    ///
    /// Panics if `domain_bits > 64`, `range_bits > 127`, or
    /// `range_bits <= domain_bits`.
    pub fn new(key: SymmetricKey, params: OpeParams) -> Self {
        assert!(params.domain_bits >= 1 && params.domain_bits <= 64, "domain_bits must be 1..=64");
        assert!(params.range_bits <= 127, "range_bits must be <= 127");
        assert!(params.range_bits > params.domain_bits, "range must be strictly larger than domain");
        Ope { mac: HmacCtx::new(key.as_bytes()), params, memo: Mutex::default() }
    }

    /// The sizing parameters.
    pub fn params(&self) -> OpeParams {
        self.params
    }

    /// Encrypts `m`. Plaintexts wider than `domain_bits` are masked down.
    pub fn encrypt(&self, m: u64) -> u128 {
        let m = self.mask(m) as u128;
        let leaf = self.descend(|x, _| m <= x);
        self.final_sample(leaf)
    }

    /// Decrypts a ciphertext produced by [`Ope::encrypt`].
    ///
    /// Returns `None` if `c` is not a valid ciphertext of any plaintext
    /// (i.e. does not land on the sampled point for its bucket).
    pub fn decrypt(&self, c: u128) -> Option<u64> {
        if c >= self.range_size() {
            return None;
        }
        let leaf = self.descend(|_, y| c <= y);
        (self.final_sample(leaf) == c).then_some(leaf.dlo as u64)
    }

    /// Walks from the root to a leaf, going low at a node split at `(x, y)`
    /// wherever `low(x, y)` holds, and returns the leaf. Levels the last
    /// descent shares are taken from the memo; from the first node where
    /// the paths part, splits are sampled and overwrite the memo's tail. If
    /// another thread holds the memo, the walk runs cold on a local one
    /// rather than wait.
    fn descend(&self, low: impl Fn(u128, u128) -> bool) -> Node {
        let mut shared = self.memo.try_lock().ok();
        let mut local = Vec::new();
        let memo = shared.as_deref_mut().unwrap_or(&mut local);
        let mut node = Node { dlo: 0, dhi: self.domain_size() - 1, rlo: 0, rhi: self.range_size() - 1 };
        let mut depth = 0;
        while node.dlo != node.dhi {
            let (x, y) = match memo.get(depth) {
                Some(level) if level.node == node => level.split,
                _ => {
                    memo.truncate(depth);
                    let split = self.split(node);
                    memo.push(Level { node, split });
                    split
                }
            };
            if low(x, y) {
                node.dhi = x;
                node.rhi = y;
            } else {
                node.dlo = x + 1;
                node.rlo = y + 1;
            }
            depth += 1;
        }
        node
    }

    fn mask(&self, m: u64) -> u64 {
        if self.params.domain_bits == 64 {
            m
        } else {
            m & ((1u64 << self.params.domain_bits) - 1)
        }
    }

    fn domain_size(&self) -> u128 {
        1u128 << self.params.domain_bits
    }

    fn range_size(&self) -> u128 {
        1u128 << self.params.range_bits
    }

    /// Splits the current (domain, range) window: the range midpoint `y`
    /// and the deterministically sampled domain pivot `x`, such that
    /// plaintexts `<= x` map below `y` and the rest above.
    fn split(&self, Node { dlo, dhi, rlo, rhi }: Node) -> (u128, u128) {
        let dsize = dhi - dlo + 1;
        let rsize = rhi - rlo + 1;
        debug_assert!(rsize >= dsize && dsize >= 2);
        let y = rlo + (rsize / 2) - 1; // last slot of the lower half-range
        let lower_range = y - rlo + 1;
        // Valid pivot count k = number of domain points mapped at or below y:
        // k ∈ [max(0, dsize - (rsize - lower_range)), min(dsize, lower_range)]
        let upper_range = rsize - lower_range;
        let k_min = dsize.saturating_sub(upper_range);
        let k_max = dsize.min(lower_range);
        // Deterministic binomial(dsize, lower/rsize) sample via normal
        // approximation.
        let mut rng = self.coins([&dlo.to_be_bytes(), &dhi.to_be_bytes(), &rlo.to_be_bytes(), &rhi.to_be_bytes()]);
        let n = dsize as f64;
        let p = lower_range as f64 / rsize as f64;
        let mean = n * p;
        let sd = (n * p * (1.0 - p)).sqrt();
        // Box–Muller standard normal from two uniform draws.
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen::<f64>();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        let sample = (mean + sd * z).round();
        let k = if sample.is_finite() && sample >= 0.0 { sample as u128 } else { 0 };
        // Keep both branches non-degenerate: k ∈ [max(k_min,1), min(k_max, dsize-1)],
        // a sub-interval of [k_min, k_max] that is provably non-empty for
        // dsize >= 2 and rsize >= dsize.
        let k = k.clamp(k_min.max(1), k_max.min(dsize - 1));
        (dlo + k - 1, y)
    }

    /// Deterministic uniform sample from a leaf's range window, the bucket
    /// of its one plaintext `dlo`.
    fn final_sample(&self, Node { dlo, rlo, rhi, .. }: Node) -> u128 {
        let mut rng = self.coins([b"leaf", &(dlo as u64).to_be_bytes(), &rlo.to_be_bytes(), &rhi.to_be_bytes()]);
        rng.gen_range(0..=(rhi - rlo)) + rlo
    }

    /// PRF-seeded deterministic coin tape over four length-prefixed fields
    /// of at most 16 bytes each, laid out on the stack.
    fn coins(&self, parts: [&[u8]; 4]) -> StdRng {
        let mut buf = [0u8; 4 * (8 + 16)];
        let mut len = 0;
        for p in parts {
            buf[len..len + 8].copy_from_slice(&(p.len() as u64).to_be_bytes());
            buf[len + 8..len + 8 + p.len()].copy_from_slice(p);
            len += 8 + p.len();
        }
        StdRng::from_seed(self.mac.mac(&buf[..len]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ope() -> Ope {
        Ope::new(SymmetricKey::from_bytes(&[42u8; 32]), OpeParams { domain_bits: 32, range_bits: 48 })
    }

    #[test]
    fn order_preserved_on_sorted_inputs() {
        let o = ope();
        let inputs = [0u64, 1, 2, 10, 100, 1000, 65535, 65536, 1 << 20, (1 << 32) - 1];
        let cts: Vec<u128> = inputs.iter().map(|&m| o.encrypt(m)).collect();
        for w in cts.windows(2) {
            assert!(w[0] < w[1], "order violated: {} !< {}", w[0], w[1]);
        }
    }

    #[test]
    fn deterministic() {
        let o = ope();
        assert_eq!(o.encrypt(12345), o.encrypt(12345));
    }

    #[test]
    fn different_keys_differ() {
        let a = Ope::new(SymmetricKey::from_bytes(&[1u8; 32]), OpeParams { domain_bits: 32, range_bits: 48 });
        let b = Ope::new(SymmetricKey::from_bytes(&[2u8; 32]), OpeParams { domain_bits: 32, range_bits: 48 });
        assert_ne!(a.encrypt(777), b.encrypt(777));
    }

    #[test]
    fn decrypt_roundtrip() {
        let o = ope();
        for m in [0u64, 1, 500, 65535, (1 << 32) - 1] {
            let c = o.encrypt(m);
            assert_eq!(o.decrypt(c), Some(m), "m={m}");
        }
    }

    #[test]
    fn decrypt_rejects_non_ciphertexts() {
        let o = ope();
        let c = o.encrypt(1000);
        // Overwhelmingly likely that c+1 is not a valid ciphertext.
        let neighbors = [c - 1, c + 1];
        assert!(neighbors.iter().any(|&x| o.decrypt(x).is_none()));
        assert_eq!(o.decrypt(u128::MAX), None);
    }

    #[test]
    fn range_bound_respected() {
        let o = ope();
        let max = o.encrypt(u64::MAX); // masked to 32 bits
        assert!(max < 1u128 << 48);
    }

    #[test]
    fn small_domain_exhaustive_order() {
        let o = Ope::new(SymmetricKey::from_bytes(&[9u8; 32]), OpeParams { domain_bits: 8, range_bits: 16 });
        let mut prev = None;
        for m in 0u64..256 {
            let c = o.encrypt(m);
            if let Some(p) = prev {
                assert!(c > p, "violation at m={m}");
            }
            assert_eq!(o.decrypt(c), Some(m));
            prev = Some(c);
        }
    }

    #[test]
    fn memo_holds_one_descent() {
        let o = ope();
        for m in [0u64, u64::MAX, 7, 1 << 31, 8, 12345] {
            let c = o.encrypt(m);
            o.decrypt(c + 1);
            assert!(o.memo.lock().unwrap().len() <= o.params.range_bits as usize, "m={m}");
        }
        assert!(o.clone().memo.lock().unwrap().is_empty(), "a clone starts cold");
    }

    #[test]
    #[should_panic(expected = "range must be strictly larger")]
    fn bad_params_rejected() {
        Ope::new(SymmetricKey::from_bytes(&[0u8; 32]), OpeParams { domain_bits: 32, range_bits: 32 });
    }
}
