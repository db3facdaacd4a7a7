//! The Paillier partially homomorphic cryptosystem (Paillier, EUROCRYPT '99).
//!
//! DataBlinder uses Paillier for the *Sum* and *Average* aggregate tactics:
//! the cloud multiplies ciphertexts (homomorphic addition of plaintexts)
//! without learning the values; the gateway decrypts the final aggregate.
//! The original system used the Javallier library; this is a from-scratch
//! implementation over [`datablinder_bigint`].
//!
//! # Amortization
//!
//! The hot paths carry the same amortizations production Paillier
//! libraries (Javallier, python-paillier) ship:
//!
//! * every [`PublicKey`] caches a [`MontgomeryCtx`] for `n²`, so `encrypt`
//!   / `add` / `mul_plain` / `rerandomize` never rebuild the Montgomery
//!   domain (the `R² mod n²` division) per call;
//! * a [`Keypair`] generated by this crate keeps the factors `p`, `q` and
//!   decrypts via CRT — two half-width exponentiations with half-width
//!   exponents instead of one full-width `c^λ mod n²`, ~3–4× faster;
//! * the same factors draw the `r^n mod n²` obfuscators that dominate
//!   encryption ([`Keypair::fresh_obfuscator`]): two half-width powers and
//!   a Garner recombination, the same distribution at about a quarter of
//!   the work of [`PublicKey::fresh_obfuscator`], which stays as the route
//!   for whoever holds only the public key;
//! * a [`RandomizerPool`] batches those obfuscators off the per-value
//!   path, with hit/miss/precompute counters observable through a
//!   [`datablinder_obs::Recorder`];
//! * a refill draws its whole batch at once: every half-width power of a
//!   batch shares its modulus (`p²` or `q²`) and its exponent (`p` or `q`),
//!   so [`MontgomeryCtx::modpow_lanes`] runs them four at a time on a CPU
//!   with AVX-512 IFMA (about 2× the scalar throughput per power at a
//!   512-bit key, 2.7× at 2,048 bits; the tier
//!   is picked once per key, at run time, by `datablinder_bigint`), and
//!   through the scalar kernel elsewhere. The pool holds the same values
//!   in the same order as [`Keypair::fresh_obfuscator`] called once per
//!   slot from the same generator; a miss in [`RandomizerPool::take`]
//!   still computes one obfuscator on the scalar kernel.
//!
//! # Examples
//!
//! ```
//! use datablinder_paillier::Keypair;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let kp = Keypair::generate(&mut rng, 256); // small modulus for doctest speed
//! let c1 = kp.public().encrypt_u64(&mut rng, 20);
//! let c2 = kp.public().encrypt_u64(&mut rng, 22);
//! let sum = kp.public().add(&c1, &c2);
//! assert_eq!(kp.decrypt_u64(&sum), Some(42));
//! ```
//!
//! # Security note
//!
//! Key sizes below 2048 bits are insecure; small keys are supported so tests
//! and benchmarks finish quickly. Not constant-time.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use datablinder_bigint::{prime, BigUint, CrtCtx, MontgomeryCtx};
use datablinder_obs::Recorder;
use rand::Rng;

/// Magic prefix of the keypair serialization format (five fields `n, λ, μ,
/// p, q`). Its factor-less 3-field predecessor started with a `u32` length
/// and is rejected.
const KEYPAIR_MAGIC_V2: &[u8; 4] = b"DBK2";

/// Errors from Paillier operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PaillierError {
    /// The plaintext is not in `[0, n)`.
    PlaintextOutOfRange,
    /// A ciphertext was not in the valid range `[0, n^2)` or not invertible.
    InvalidCiphertext,
    /// Ciphertext bytes could not be decoded.
    MalformedCiphertext,
}

impl std::fmt::Display for PaillierError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PaillierError::PlaintextOutOfRange => write!(f, "plaintext out of range for modulus"),
            PaillierError::InvalidCiphertext => write!(f, "ciphertext outside the valid group"),
            PaillierError::MalformedCiphertext => write!(f, "malformed ciphertext encoding"),
        }
    }
}

impl std::error::Error for PaillierError {}

/// A Paillier ciphertext: an element of `Z*_{n^2}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ciphertext(BigUint);

impl Ciphertext {
    /// Serializes to big-endian bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.0.to_bytes_be()
    }

    /// Deserializes from big-endian bytes (range-checked lazily at use).
    pub fn from_bytes(bytes: &[u8]) -> Self {
        Ciphertext(BigUint::from_bytes_be(bytes))
    }
}

/// The public (encryption/evaluation) key.
///
/// Holds a cached [`MontgomeryCtx`] for `n²` behind an `Arc`, so clones
/// are cheap and every homomorphic operation reuses the precomputed
/// domain. Equality compares only the modulus.
#[derive(Debug, Clone)]
pub struct PublicKey {
    n: BigUint,
    n_squared: BigUint,
    ctx: Arc<MontgomeryCtx>,
}

impl PartialEq for PublicKey {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n
    }
}

impl Eq for PublicKey {}

impl PublicKey {
    /// Assembles a key from an odd modulus, building the cached `n²`
    /// Montgomery context once.
    fn assemble(n: BigUint) -> PublicKey {
        debug_assert!(n.is_odd());
        let n_squared = &n * &n;
        let ctx = Arc::new(MontgomeryCtx::new(&n_squared));
        PublicKey { n, n_squared, ctx }
    }

    /// The modulus `n`.
    pub fn modulus(&self) -> &BigUint {
        &self.n
    }

    /// The ciphertext-space modulus `n²`.
    pub fn modulus_squared(&self) -> &BigUint {
        &self.n_squared
    }

    /// The cached Montgomery context for `n²` (exposed so callers doing
    /// custom ciphertext algebra can share the amortized domain).
    pub fn montgomery_ctx(&self) -> &MontgomeryCtx {
        &self.ctx
    }

    /// Modulus size in bits.
    pub fn bits(&self) -> usize {
        self.n.bits()
    }

    /// Borrows `x` reduced mod `n²` (allocating only when out of range,
    /// e.g. for hostile deserialized ciphertexts).
    fn reduced<'a>(&self, x: &'a BigUint) -> Cow<'a, BigUint> {
        if x < &self.n_squared {
            Cow::Borrowed(x)
        } else {
            Cow::Owned(x % &self.n_squared)
        }
    }

    /// Encrypts `m ∈ [0, n)`.
    ///
    /// Uses the `g = n + 1` optimization: `c = (1 + m·n) · r^n mod n²`,
    /// with `r^n` computed through the cached Montgomery context.
    ///
    /// # Errors
    ///
    /// [`PaillierError::PlaintextOutOfRange`] if `m >= n`.
    pub fn encrypt<R: Rng + ?Sized>(&self, rng: &mut R, m: &BigUint) -> Result<Ciphertext, PaillierError> {
        let rn = self.fresh_obfuscator(rng);
        self.encrypt_with(m, &rn)
    }

    /// Completes an encryption from a precomputed obfuscator `r^n mod n²`
    /// (see [`RandomizerPool`]): one Montgomery multiply, no
    /// exponentiation.
    ///
    /// # Errors
    ///
    /// [`PaillierError::PlaintextOutOfRange`] if `m >= n`.
    pub fn encrypt_with(&self, m: &BigUint, obfuscator: &BigUint) -> Result<Ciphertext, PaillierError> {
        if m >= &self.n {
            return Err(PaillierError::PlaintextOutOfRange);
        }
        // m < n, so 1 + m·n < n² — already reduced.
        let gm = &(m * &self.n) + &BigUint::one();
        Ok(Ciphertext(self.ctx.mul_mod(&gm, &self.reduced(obfuscator))))
    }

    /// Computes a fresh obfuscator `r^n mod n²` for a random unit `r`.
    pub fn fresh_obfuscator<R: Rng + ?Sized>(&self, rng: &mut R) -> BigUint {
        let r = self.sample_unit(rng);
        self.ctx.modpow(&r, &self.n)
    }

    /// Encrypts a `u64` value.
    ///
    /// # Panics
    ///
    /// Panics if the modulus is smaller than 64 bits (never the case for
    /// supported key sizes).
    pub fn encrypt_u64<R: Rng + ?Sized>(&self, rng: &mut R, m: u64) -> Ciphertext {
        self.encrypt(rng, &BigUint::from(m)).expect("u64 always fits supported moduli")
    }

    /// Homomorphic addition: `Dec(add(c1, c2)) = Dec(c1) + Dec(c2) mod n`.
    pub fn add(&self, c1: &Ciphertext, c2: &Ciphertext) -> Ciphertext {
        Ciphertext(self.ctx.mul_mod(&self.reduced(&c1.0), &self.reduced(&c2.0)))
    }

    /// Homomorphic sum of serialized ciphertexts ([`Ciphertext::to_bytes`]
    /// form): what folding them with [`PublicKey::add`] gives, byte for
    /// byte, at one Montgomery pass per ciphertext and without
    /// materializing any of them. The result is always reduced mod `n²`,
    /// also for a single out-of-range operand. `None` when there are no
    /// ciphertexts.
    pub fn sum<'a>(&self, ciphertexts: impl IntoIterator<Item = &'a [u8]>) -> Option<Ciphertext> {
        let mut ciphertexts = ciphertexts.into_iter().peekable();
        ciphertexts.peek()?;
        Some(Ciphertext(self.ctx.product_be(ciphertexts)))
    }

    /// Adds a plaintext constant: `Dec(add_plain(c, k)) = Dec(c) + k mod n`.
    pub fn add_plain(&self, c: &Ciphertext, k: &BigUint) -> Ciphertext {
        let k = k % &self.n;
        let gk = &(&k * &self.n) + &BigUint::one();
        Ciphertext(self.ctx.mul_mod(&self.reduced(&c.0), &gk))
    }

    /// Multiplies the plaintext by a constant:
    /// `Dec(mul_plain(c, k)) = k · Dec(c) mod n`.
    pub fn mul_plain(&self, c: &Ciphertext, k: &BigUint) -> Ciphertext {
        Ciphertext(self.ctx.modpow(&c.0, k))
    }

    /// Fresh encryption of zero, useful for re-randomizing ciphertexts so
    /// repeated aggregates are unlinkable.
    pub fn rerandomize<R: Rng + ?Sized>(&self, rng: &mut R, c: &Ciphertext) -> Ciphertext {
        let rn = self.fresh_obfuscator(rng);
        self.rerandomize_with(c, &rn)
    }

    /// Re-randomizes with a precomputed obfuscator (pool-friendly).
    pub fn rerandomize_with(&self, c: &Ciphertext, obfuscator: &BigUint) -> Ciphertext {
        Ciphertext(self.ctx.mul_mod(&self.reduced(&c.0), &self.reduced(obfuscator)))
    }

    /// Encryption of zero with fresh randomness.
    pub fn encrypt_zero<R: Rng + ?Sized>(&self, rng: &mut R) -> Ciphertext {
        self.encrypt(rng, &BigUint::zero()).expect("zero is always in range")
    }

    /// Samples `r ∈ [1, n)` coprime to `n` (overwhelmingly likely first try).
    fn sample_unit<R: Rng + ?Sized>(&self, rng: &mut R) -> BigUint {
        loop {
            let r = random_nonzero_below(rng, &self.n);
            if r.gcd(&self.n).is_one() {
                return r;
            }
        }
    }
}

/// An amortized pool of precomputed encryption obfuscators `r^n mod n²`.
///
/// Computing `r^n` dominates Paillier encryption; the pool moves that cost
/// off the request path into refillable batches (the strategy Javallier
/// and python-paillier use for their obfuscator caches). `take` pops a
/// precomputed value (a *hit*) or, when drained, computes one on demand
/// (a *miss*). Every obfuscator is drawn through the factors, as
/// [`Keypair::fresh_obfuscator`] draws it; a refill draws its batch in
/// lanes (see the crate's "Amortization" notes).
/// Counters are kept in plain atomics and mirrored into an optional
/// [`Recorder`] under `paillier.pool.*`.
pub struct RandomizerPool {
    keypair: Keypair,
    batch: usize,
    pool: Mutex<Vec<BigUint>>,
    hits: AtomicU64,
    misses: AtomicU64,
    precomputed: AtomicU64,
    obs: Recorder,
}

/// Point-in-time counters of a [`RandomizerPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Takes served from the precomputed pool.
    pub hits: u64,
    /// Takes that had to compute an obfuscator on demand.
    pub misses: u64,
    /// Obfuscators precomputed by refills.
    pub precomputed: u64,
    /// Obfuscators currently pooled.
    pub size: usize,
}

impl std::fmt::Debug for RandomizerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("RandomizerPool").field("batch", &self.batch).field("stats", &s).finish()
    }
}

impl RandomizerPool {
    /// Creates an empty pool refilling to `batch` obfuscators (min 1) for
    /// `keypair`'s public key.
    pub fn new(keypair: Keypair, batch: usize) -> RandomizerPool {
        RandomizerPool {
            keypair,
            batch: batch.max(1),
            pool: Mutex::new(Vec::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            precomputed: AtomicU64::new(0),
            obs: Recorder::disabled(),
        }
    }

    /// Attaches an observability recorder; the pool mirrors its counters
    /// as `paillier.pool.hit` / `paillier.pool.miss` /
    /// `paillier.pool.precomputed` and the gauge `paillier.pool.size`.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.obs = recorder;
    }

    /// The public key the pool precomputes for.
    pub fn public(&self) -> &PublicKey {
        self.keypair.public()
    }

    /// Obfuscators currently pooled.
    pub fn len(&self) -> usize {
        self.pool.lock().expect("pool poisoned").len()
    }

    /// Whether the pool is drained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Tops the pool up to its batch size, computing the missing
    /// obfuscators on the calling thread as one batch: the values and
    /// their order are those of one [`Keypair::fresh_obfuscator`] call per
    /// missing slot, from the same generator.
    pub fn refill<R: Rng + ?Sized>(&self, rng: &mut R) {
        let need = {
            let pool = self.pool.lock().expect("pool poisoned");
            self.batch.saturating_sub(pool.len())
        };
        if need == 0 {
            return;
        }
        // Compute outside the lock: concurrent takers can keep draining.
        let fresh = self.keypair.crt.obfuscators(rng, need);
        let size = {
            let mut pool = self.pool.lock().expect("pool poisoned");
            pool.extend(fresh);
            pool.len()
        };
        self.precomputed.fetch_add(need as u64, Ordering::Relaxed);
        self.obs.count("paillier.pool.precomputed", need as u64);
        self.obs.gauge_set("paillier.pool.size", size as i64);
    }

    /// Pops a precomputed obfuscator (hit) or computes one on demand
    /// (miss). Never blocks on the exponentiation while holding the lock.
    pub fn take<R: Rng + ?Sized>(&self, rng: &mut R) -> BigUint {
        let popped = {
            let mut pool = self.pool.lock().expect("pool poisoned");
            let v = pool.pop();
            if v.is_some() {
                self.obs.gauge_set("paillier.pool.size", pool.len() as i64);
            }
            v
        };
        match popped {
            Some(v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.obs.count("paillier.pool.hit", 1);
                v
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                self.obs.count("paillier.pool.miss", 1);
                self.keypair.fresh_obfuscator(rng)
            }
        }
    }

    /// Current counters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            precomputed: self.precomputed.load(Ordering::Relaxed),
            size: self.len(),
        }
    }
}

/// The CRT trapdoor: factors of `n` plus every precomputable piece of the
/// two half-width decryptions. Deliberately not `Debug`: every field is
/// private key material.
#[derive(Clone)]
struct CrtDecryptor {
    p: BigUint,
    q: BigUint,
    /// Residue system over `(p², q²)` for the ciphertext exponentiations.
    squares: CrtCtx,
    /// Residue system over `(p, q)` recombining the half plaintexts.
    primes: CrtCtx,
    p_minus_1: BigUint,
    q_minus_1: BigUint,
    /// `hp = L_p(g^{p-1} mod p²)^{-1} mod p` (python-paillier's `hp`).
    hp: BigUint,
    hq: BigUint,
}

impl CrtDecryptor {
    /// Precomputes the CRT trapdoor; `None` for pathological factors
    /// (non-coprime squares, non-invertible L values, or
    /// `gcd(n, φ(n)) ≠ 1`, i.e. one prime dividing the other minus one —
    /// the textbook Paillier condition, which [`CrtDecryptor::obfuscator`]
    /// relies on).
    fn new(p: &BigUint, q: &BigUint) -> Option<CrtDecryptor> {
        if p.is_even() || q.is_even() || p == q {
            return None;
        }
        let squares = CrtCtx::new(&(p * p), &(q * q)).ok()?;
        let primes = CrtCtx::new(p, q).ok()?;
        let one = BigUint::one();
        let p_minus_1 = p - &one;
        let q_minus_1 = q - &one;
        if (&p_minus_1 % q).is_zero() || (&q_minus_1 % p).is_zero() {
            return None;
        }
        // With g = n + 1: g^(p-1) ≡ 1 + (p-1)·n (mod p²), so
        // L_p(g^(p-1)) = (p-1)·n/p mod p = (p-1)·q mod p.
        let hp = (&(&p_minus_1 * q) % p).modinv(p).ok()?;
        let hq = (&(&q_minus_1 * p) % q).modinv(q).ok()?;
        Some(CrtDecryptor { p: p.clone(), q: q.clone(), squares, primes, p_minus_1, q_minus_1, hp, hq })
    }

    /// Decrypts `c` (reduced, non-zero) to `m ∈ [0, n)`:
    /// `m_p = L_p(c^{p-1} mod p²)·hp mod p`, same for `q`, then Garner
    /// recombination. Two half-width exponentiations with half-width
    /// exponents ≈ 4× cheaper than `c^λ mod n²`.
    fn decrypt(&self, c: &BigUint) -> Result<BigUint, PaillierError> {
        let (xp, xq) = self.squares.modpow2(c, &self.p_minus_1, &self.q_minus_1);
        if xp.is_zero() || xq.is_zero() {
            // c shares a factor with n; no valid plaintext.
            return Err(PaillierError::InvalidCiphertext);
        }
        // L_p(xp) = (xp - 1)/p < p: half-width division, already reduced.
        let lp = &(&xp - &BigUint::one()) / &self.p;
        let lq = &(&xq - &BigUint::one()) / &self.q;
        let mp = self.primes.ctx1().mul_mod(&lp, &self.hp);
        let mq = self.primes.ctx2().mul_mod(&lq, &self.hq);
        Ok(self.primes.combine(&mp, &mq))
    }

    /// Draws `r^n mod n²` for a uniform unit `r` without ever forming `r`:
    /// `a^p mod p²` for uniform `a ∈ [1, p)`, `b^q mod q²` for uniform
    /// `b ∈ [1, q)`, recombined.
    ///
    /// Same distribution as [`PublicKey::fresh_obfuscator`]: the `n`-th
    /// residues mod `p²` are the cyclic subgroup of order `p − 1`;
    /// `x ↦ x^p` maps `Z*_p` onto it bijectively (and `r^p mod p²` depends
    /// on `r mod p` only); raising to `q` permutes it because
    /// `gcd(q, p − 1) = 1` ([`CrtDecryptor::new`] checks); and `r mod p`,
    /// `r mod q` are independent by CRT. Two half-width moduli with
    /// half-length exponents: about a quarter of the full-width power.
    fn obfuscator<R: Rng + ?Sized>(&self, rng: &mut R) -> BigUint {
        let xp = self.squares.ctx1().modpow(&random_nonzero_below(rng, &self.p), &self.p);
        let xq = self.squares.ctx2().modpow(&random_nonzero_below(rng, &self.q), &self.q);
        self.squares.combine(&xp, &xq)
    }

    /// `count` obfuscators, equal value for value and in order to what
    /// `count` calls of [`CrtDecryptor::obfuscator`] draw from the same
    /// generator: every `(a, b)` is drawn first, in that order, then the
    /// `p²` powers and the `q²` powers each run as one
    /// [`MontgomeryCtx::modpow_lanes`] batch (four per pass on a CPU with
    /// the lane kernel), and each pair is recombined.
    fn obfuscators<R: Rng + ?Sized>(&self, rng: &mut R, count: usize) -> Vec<BigUint> {
        let (a, b): (Vec<BigUint>, Vec<BigUint>) =
            (0..count).map(|_| (random_nonzero_below(rng, &self.p), random_nonzero_below(rng, &self.q))).unzip();
        let xp = self.squares.ctx1().modpow_lanes(&a, &self.p);
        let xq = self.squares.ctx2().modpow_lanes(&b, &self.q);
        xp.iter().zip(&xq).map(|(xp, xq)| self.squares.combine(xp, xq)).collect()
    }
}

/// Uniform in `[1, bound)`.
fn random_nonzero_below<R: Rng + ?Sized>(rng: &mut R, bound: &BigUint) -> BigUint {
    loop {
        let x = BigUint::random_below(rng, bound);
        if !x.is_zero() {
            return x;
        }
    }
}

/// A Paillier keypair (public key plus the private `λ`, `μ` trapdoor and
/// the CRT decryption trapdoor over the factors).
#[derive(Clone)]
pub struct Keypair {
    public: PublicKey,
    lambda: BigUint,
    mu: BigUint,
    crt: CrtDecryptor,
}

/// Shows the modulus size, never `λ`, `μ`, `p` or `q`: a keypair that ends
/// up in a log line or a panic message must not take the private key with
/// it.
impl std::fmt::Debug for Keypair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Keypair").field("bits", &self.public.bits()).finish_non_exhaustive()
    }
}

impl Keypair {
    /// Generates a keypair with an (approximately) `modulus_bits`-bit `n`.
    ///
    /// # Panics
    ///
    /// Panics if `modulus_bits < 16`.
    pub fn generate<R: Rng + ?Sized>(rng: &mut R, modulus_bits: usize) -> Keypair {
        assert!(modulus_bits >= 16, "modulus must be at least 16 bits");
        loop {
            let (p, q) = prime::gen_prime_pair(rng, modulus_bits / 2);
            let n = &p * &q;
            let lambda = (&p - &BigUint::one()).lcm(&(&q - &BigUint::one()));
            // μ = (L(g^λ mod n²))^{-1} mod n, with g = n+1:
            // g^λ mod n² = 1 + λ·n mod n², so L(·) = λ mod n.
            let l = &lambda % &n;
            let Ok(mu) = l.modinv(&n) else {
                continue; // pathological p, q; retry
            };
            let Some(crt) = CrtDecryptor::new(&p, &q) else {
                continue;
            };
            return Keypair { public: PublicKey::assemble(n), lambda, mu, crt };
        }
    }

    /// The public half.
    pub fn public(&self) -> &PublicKey {
        &self.public
    }

    /// Computes a fresh obfuscator `r^n mod n²` for a random unit `r`
    /// through the factors: the same distribution as
    /// [`PublicKey::fresh_obfuscator`], about 4× cheaper.
    pub fn fresh_obfuscator<R: Rng + ?Sized>(&self, rng: &mut R) -> BigUint {
        self.crt.obfuscator(rng)
    }

    /// Encrypts `m ∈ [0, n)` as [`PublicKey::encrypt`] does, drawing the
    /// obfuscator with [`Keypair::fresh_obfuscator`].
    ///
    /// # Errors
    ///
    /// [`PaillierError::PlaintextOutOfRange`] if `m >= n`.
    pub fn encrypt<R: Rng + ?Sized>(&self, rng: &mut R, m: &BigUint) -> Result<Ciphertext, PaillierError> {
        let rn = self.fresh_obfuscator(rng);
        self.public.encrypt_with(m, &rn)
    }

    /// Encrypts a `u64` value.
    ///
    /// # Panics
    ///
    /// As [`PublicKey::encrypt_u64`].
    pub fn encrypt_u64<R: Rng + ?Sized>(&self, rng: &mut R, m: u64) -> Ciphertext {
        self.encrypt(rng, &BigUint::from(m)).expect("u64 always fits supported moduli")
    }

    fn check_range(&self, c: &Ciphertext) -> Result<(), PaillierError> {
        if c.0.is_zero() || c.0 >= self.public.n_squared {
            return Err(PaillierError::InvalidCiphertext);
        }
        Ok(())
    }

    /// Decrypts a ciphertext to `m ∈ [0, n)` via CRT.
    ///
    /// # Errors
    ///
    /// [`PaillierError::InvalidCiphertext`] if the ciphertext is zero,
    /// out of range, or shares a factor with the modulus.
    pub fn decrypt(&self, c: &Ciphertext) -> Result<BigUint, PaillierError> {
        self.check_range(c)?;
        self.crt.decrypt(&c.0)
    }

    /// Decrypts through the single full-width exponentiation `c^λ mod n²`,
    /// ignoring the CRT trapdoor. Kept public as the differential oracle
    /// [`Keypair::decrypt`] is tested against.
    ///
    /// # Errors
    ///
    /// As [`Keypair::decrypt`].
    pub fn decrypt_plain(&self, c: &Ciphertext) -> Result<BigUint, PaillierError> {
        self.check_range(c)?;
        let x = self.public.ctx.modpow(&c.0, &self.lambda);
        if x.is_zero() {
            return Err(PaillierError::InvalidCiphertext);
        }
        // L(x) = (x - 1) / n
        let l = &(&x - &BigUint::one()) / &self.public.n;
        Ok(l.modmul(&self.mu, &self.public.n))
    }

    /// Decrypts to `u64` if the plaintext fits.
    pub fn decrypt_u64(&self, c: &Ciphertext) -> Option<u64> {
        self.decrypt(c).ok().and_then(|m| m.to_u64())
    }

    /// Serializes the keypair (private material — KMS storage only): magic
    /// `DBK2`, then five length-prefixed fields `n, λ, μ, p, q`.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = KEYPAIR_MAGIC_V2.to_vec();
        for part in [&self.public.n, &self.lambda, &self.mu, &self.crt.p, &self.crt.q] {
            let b = part.to_bytes_be();
            out.extend_from_slice(&(b.len() as u32).to_be_bytes());
            out.extend_from_slice(&b);
        }
        out
    }

    /// Deserializes a keypair produced by [`Keypair::to_bytes`].
    ///
    /// # Errors
    ///
    /// [`PaillierError::MalformedCiphertext`] on a missing magic (the
    /// factor-less 3-field format included), framing errors, an even
    /// modulus, or factors that do not multiply to `n` or that divide each
    /// other's predecessor (`gcd(n, φ(n)) ≠ 1`).
    pub fn from_bytes(buf: &[u8]) -> Result<Keypair, PaillierError> {
        let take = |buf: &mut &[u8]| -> Result<BigUint, PaillierError> {
            if buf.len() < 4 {
                return Err(PaillierError::MalformedCiphertext);
            }
            let len = u32::from_be_bytes(buf[..4].try_into().unwrap()) as usize;
            *buf = &buf[4..];
            if buf.len() < len {
                return Err(PaillierError::MalformedCiphertext);
            }
            let v = BigUint::from_bytes_be(&buf[..len]);
            *buf = &buf[len..];
            Ok(v)
        };
        let mut buf = buf.strip_prefix(KEYPAIR_MAGIC_V2).ok_or(PaillierError::MalformedCiphertext)?;
        let n = take(&mut buf)?;
        let lambda = take(&mut buf)?;
        let mu = take(&mut buf)?;
        let p = take(&mut buf)?;
        let q = take(&mut buf)?;
        if &p * &q != n {
            return Err(PaillierError::MalformedCiphertext);
        }
        let crt = CrtDecryptor::new(&p, &q).ok_or(PaillierError::MalformedCiphertext)?;
        if !buf.is_empty() || n.is_zero() || n.is_even() {
            return Err(PaillierError::MalformedCiphertext);
        }
        Ok(Keypair { public: PublicKey::assemble(n), lambda, mu, crt })
    }
}

impl PublicKey {
    /// Serializes (just the modulus).
    pub fn to_bytes(&self) -> Vec<u8> {
        self.n.to_bytes_be()
    }

    /// Deserializes from modulus bytes.
    ///
    /// # Errors
    ///
    /// [`PaillierError::MalformedCiphertext`] when the modulus is zero or
    /// even (every valid Paillier modulus is a product of odd primes).
    ///
    /// # Panics
    ///
    /// Panics when `n²` is wider than [`MontgomeryCtx::new`] takes (a
    /// modulus over 8,192 bits); a caller decoding untrusted bytes bounds
    /// their length first.
    pub fn from_bytes(bytes: &[u8]) -> Result<PublicKey, PaillierError> {
        let n = BigUint::from_bytes_be(bytes);
        if n.is_zero() || n.is_even() {
            return Err(PaillierError::MalformedCiphertext);
        }
        Ok(PublicKey::assemble(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(0xBA11E7)
    }

    fn keypair() -> (Keypair, rand::rngs::StdRng) {
        let mut r = rng();
        let kp = Keypair::generate(&mut r, 256);
        (kp, r)
    }

    #[test]
    fn encrypt_decrypt_roundtrip() {
        let (kp, mut r) = keypair();
        for m in [0u64, 1, 42, u64::MAX] {
            let c = kp.public().encrypt_u64(&mut r, m);
            assert_eq!(kp.decrypt_u64(&c), Some(m));
        }
    }

    #[test]
    fn probabilistic_encryption() {
        let (kp, mut r) = keypair();
        let c1 = kp.public().encrypt_u64(&mut r, 5);
        let c2 = kp.public().encrypt_u64(&mut r, 5);
        assert_ne!(c1, c2, "same plaintext must give different ciphertexts");
        assert_eq!(kp.decrypt_u64(&c1), kp.decrypt_u64(&c2));
    }

    #[test]
    fn homomorphic_addition() {
        let (kp, mut r) = keypair();
        let c1 = kp.public().encrypt_u64(&mut r, 1000);
        let c2 = kp.public().encrypt_u64(&mut r, 234);
        assert_eq!(kp.decrypt_u64(&kp.public().add(&c1, &c2)), Some(1234));
    }

    #[test]
    fn add_plain_and_mul_plain() {
        let (kp, mut r) = keypair();
        let c = kp.public().encrypt_u64(&mut r, 100);
        let c2 = kp.public().add_plain(&c, &BigUint::from(23u64));
        assert_eq!(kp.decrypt_u64(&c2), Some(123));
        let c3 = kp.public().mul_plain(&c, &BigUint::from(7u64));
        assert_eq!(kp.decrypt_u64(&c3), Some(700));
    }

    #[test]
    fn sum_of_many() {
        let (kp, mut r) = keypair();
        let values: Vec<u64> = (1..=50).collect();
        let mut acc = kp.public().encrypt_zero(&mut r);
        for &v in &values {
            let c = kp.public().encrypt_u64(&mut r, v);
            acc = kp.public().add(&acc, &c);
        }
        assert_eq!(kp.decrypt_u64(&acc), Some(values.iter().sum()));
    }

    #[test]
    fn rerandomize_preserves_plaintext() {
        let (kp, mut r) = keypair();
        let c = kp.public().encrypt_u64(&mut r, 77);
        let c2 = kp.public().rerandomize(&mut r, &c);
        assert_ne!(c, c2);
        assert_eq!(kp.decrypt_u64(&c2), Some(77));
    }

    #[test]
    fn plaintext_out_of_range_rejected() {
        let (kp, mut r) = keypair();
        let too_big = kp.public().modulus().clone();
        assert_eq!(kp.public().encrypt(&mut r, &too_big), Err(PaillierError::PlaintextOutOfRange));
    }

    #[test]
    fn invalid_ciphertexts_rejected() {
        let (kp, _) = keypair();
        assert_eq!(kp.decrypt(&Ciphertext(BigUint::zero())), Err(PaillierError::InvalidCiphertext));
        let n2 = kp.public().modulus() * kp.public().modulus();
        assert_eq!(kp.decrypt(&Ciphertext(n2)), Err(PaillierError::InvalidCiphertext));
        // c = n shares every factor with n: rejected, not a panic.
        let n = kp.public().modulus().clone();
        assert_eq!(kp.decrypt(&Ciphertext(n)), Err(PaillierError::InvalidCiphertext));
    }

    #[test]
    fn ciphertext_bytes_roundtrip() {
        let (kp, mut r) = keypair();
        let c = kp.public().encrypt_u64(&mut r, 555);
        let c2 = Ciphertext::from_bytes(&c.to_bytes());
        assert_eq!(kp.decrypt_u64(&c2), Some(555));
    }

    #[test]
    fn addition_wraps_modulo_n() {
        // (n - 1) + 2 ≡ 1 (mod n)
        let (kp, mut r) = keypair();
        let n_minus_1 = kp.public().modulus() - &BigUint::one();
        let c1 = kp.public().encrypt(&mut r, &n_minus_1).unwrap();
        let c2 = kp.public().encrypt_u64(&mut r, 2);
        let sum = kp.public().add(&c1, &c2);
        assert_eq!(kp.decrypt(&sum).unwrap(), BigUint::one());
    }

    #[test]
    fn crt_and_plain_decrypt_agree() {
        let (kp, mut r) = keypair();
        for m in [0u64, 1, 42, u64::MAX] {
            let c = kp.public().encrypt_u64(&mut r, m);
            assert_eq!(kp.decrypt(&c), kp.decrypt_plain(&c), "m={m}");
        }
        let top = kp.public().modulus() - &BigUint::one();
        let c = kp.public().encrypt(&mut r, &top).unwrap();
        assert_eq!(kp.decrypt(&c).unwrap(), top);
        assert_eq!(kp.decrypt_plain(&c).unwrap(), top);
    }

    #[test]
    fn keypair_bytes_roundtrip_keeps_crt() {
        let (kp, mut r) = keypair();
        let kp2 = Keypair::from_bytes(&kp.to_bytes()).unwrap();
        let c = kp.public().encrypt_u64(&mut r, 4242);
        assert_eq!(kp2.decrypt_u64(&c), Some(4242));
        assert_eq!(kp2.to_bytes(), kp.to_bytes());
    }

    /// The factor-less 3-field format that predates `DBK2` (`n, λ, μ`, no
    /// magic) is no longer an input format.
    #[test]
    fn three_field_keypair_blobs_are_rejected() {
        let (kp, _) = keypair();
        let v2 = kp.to_bytes();
        let mut fields = &v2[KEYPAIR_MAGIC_V2.len()..];
        let mut three = Vec::new();
        for _ in 0..3 {
            let len = 4 + u32::from_be_bytes(fields[..4].try_into().unwrap()) as usize;
            three.extend_from_slice(&fields[..len]);
            fields = &fields[len..];
        }
        assert_eq!(Keypair::from_bytes(&three).unwrap_err(), PaillierError::MalformedCiphertext);
        // Nor do three fields pass behind the magic.
        let behind_magic = [KEYPAIR_MAGIC_V2.as_slice(), &three].concat();
        assert_eq!(Keypair::from_bytes(&behind_magic).unwrap_err(), PaillierError::MalformedCiphertext);
    }

    #[test]
    fn malformed_keypair_blobs_rejected() {
        assert!(Keypair::from_bytes(b"").is_err());
        assert!(Keypair::from_bytes(b"DBK2").is_err());
        let (kp, _) = keypair();
        let mut bytes = kp.to_bytes();
        bytes.push(0); // trailing garbage
        assert!(Keypair::from_bytes(&bytes).is_err());
        // v2 with factors that do not multiply to n.
        assert!(Keypair::from_bytes(&v2_blob([3, 5, 7, 11, 13])).is_err());
    }

    /// A v2 keypair blob over small fields `n, λ, μ, p, q`.
    fn v2_blob(fields: [u64; 5]) -> Vec<u8> {
        let mut blob = KEYPAIR_MAGIC_V2.to_vec();
        for v in fields {
            let b = BigUint::from(v).to_bytes_be();
            blob.extend_from_slice(&(b.len() as u32).to_be_bytes());
            blob.extend_from_slice(&b);
        }
        blob
    }

    /// `gcd(n, φ(n)) = 1` is what makes `x ↦ x^n` a permutation of the
    /// n-th residues, which the factor-based obfuscator sampler relies on.
    /// `gen_prime_pair`'s equal-length primes satisfy it automatically; a
    /// v2 blob from the KMS is checked.
    #[test]
    fn factors_dividing_each_others_predecessor_are_rejected() {
        let big = |v: u64| BigUint::from(v);
        assert!(CrtDecryptor::new(&big(7), &big(29)).is_none(), "7 | 29 - 1");
        assert!(CrtDecryptor::new(&big(29), &big(7)).is_none(), "same pair, other order");
        assert!(CrtDecryptor::new(&big(7), &big(11)).is_some(), "7 ∤ 10 and 11 ∤ 6");

        // The same pair as a v2 blob: n = 203, λ = lcm(6, 28) = 84, and μ a
        // placeholder (84 shares the factor 7 with n, so λ⁻¹ does not exist).
        let blob = v2_blob([203, 84, 1, 7, 29]);
        assert_eq!(Keypair::from_bytes(&blob).unwrap_err(), PaillierError::MalformedCiphertext);
    }

    #[test]
    fn debug_output_carries_no_private_material() {
        let (kp, _) = keypair();
        let shown = format!("{kp:?} {kp:#?}");
        assert!(shown.contains("bits: 256"), "{shown}");
        for secret in [&kp.crt.p, &kp.crt.q, &kp.lambda, &kp.mu] {
            for digits in [format!("{secret}"), format!("{secret:x}")] {
                // Any 8-digit run of a secret would already be a leak.
                for window in digits.as_bytes().windows(8) {
                    let window = std::str::from_utf8(window).unwrap();
                    assert!(!shown.contains(window), "{shown} leaks {window}");
                }
            }
        }
    }

    #[test]
    fn randomizer_pool_hits_and_misses() {
        let (kp, mut r) = keypair();
        let pool = RandomizerPool::new(kp.clone(), 4);
        assert!(pool.is_empty());
        // Drained pool: take is a miss but still encrypts correctly.
        let obf = pool.take(&mut r);
        let c = kp.public().encrypt_with(&BigUint::from(9u64), &obf).unwrap();
        assert_eq!(kp.decrypt_u64(&c), Some(9));
        pool.refill(&mut r);
        assert_eq!(pool.len(), 4);
        for m in 0..4u64 {
            let obf = pool.take(&mut r);
            let c = kp.public().encrypt_with(&BigUint::from(m), &obf).unwrap();
            assert_eq!(kp.decrypt_u64(&c), Some(m));
        }
        let stats = pool.stats();
        assert_eq!(stats.hits, 4);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.precomputed, 4);
        assert_eq!(stats.size, 0);
    }

    #[test]
    fn randomizer_pool_reports_to_recorder() {
        let (kp, mut r) = keypair();
        let mut pool = RandomizerPool::new(kp.clone(), 2);
        let rec = Recorder::new();
        pool.set_recorder(rec.clone());
        pool.refill(&mut r);
        pool.take(&mut r);
        pool.take(&mut r);
        pool.take(&mut r); // miss
        let snap = rec.snapshot();
        assert_eq!(snap.counter("paillier.pool.hit"), 2);
        assert_eq!(snap.counter("paillier.pool.miss"), 1);
        assert_eq!(snap.counter("paillier.pool.precomputed"), 2);
    }

    #[test]
    fn pooled_encryption_stays_probabilistic() {
        let (kp, mut r) = keypair();
        let pool = RandomizerPool::new(kp.clone(), 8);
        pool.refill(&mut r);
        let c1 = kp.public().encrypt_with(&BigUint::from(5u64), &pool.take(&mut r)).unwrap();
        let c2 = kp.public().encrypt_with(&BigUint::from(5u64), &pool.take(&mut r)).unwrap();
        assert_ne!(c1, c2);
    }

    #[test]
    fn public_key_rejects_even_modulus() {
        assert!(PublicKey::from_bytes(&BigUint::from(42u64).to_bytes_be()).is_err());
        assert!(PublicKey::from_bytes(&[]).is_err());
    }
}
