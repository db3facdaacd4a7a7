//! Sophos (Σoφoς) — forward-private dynamic SSE (Bost, CCS 2016).
//!
//! Protection class 2, leakage *Identifiers*. Table 2 lists its challenge
//! as **key management**: the scheme needs an asymmetric trapdoor
//! permutation keypair, which the gateway stores in the KMS.
//!
//! Construction:
//!
//! * an RSA trapdoor permutation `π(x) = x^e mod N` with trapdoor
//!   `π^{-1}(x) = x^d mod N`;
//! * per keyword the client keeps `(ST_c, c)`; the first search token
//!   `ST_1` is random, and each update *inverts* the permutation:
//!   `ST_{c+1} = π^{-1}(ST_c)` — only the client can move forward, so the
//!   server cannot correlate a new update with past searches (forward
//!   privacy);
//! * update: `UT = H1(K_w, ST_c)`, `e = id ⊕ H2(K_w, ST_c)`; the server
//!   stores `UT → e`;
//! * search: the client reveals `(K_w, ST_c, c)`; the server walks
//!   *backwards* with the public direction `ST_{i-1} = π(ST_i)`, unmasking
//!   nothing — it returns the masked entries for the client to resolve.
//!
//! Deletions are not part of Sophos; DataBlinder layers a gateway-side
//! revocation list on top when needed (the middleware does this).

use std::collections::HashMap;
use std::sync::Arc;

use datablinder_bigint::{prime, BigUint, MontgomeryCtx};
use datablinder_kvstore::KvStore;
use datablinder_primitives::keys::SymmetricKey;
use datablinder_primitives::prf::{HmacPrf, Prf};
use datablinder_primitives::sha256::Sha256;
use rand::Rng;

use crate::{set_once, DocId, SseError};
use datablinder_codec::{Reader, Writer};

/// The public half of the trapdoor permutation (cloud side).
///
/// Caches a [`MontgomeryCtx`] for `N` behind an `Arc`, so the server's
/// chain walk (`count` successive `forward` calls per search) pays the
/// Montgomery domain setup once per key, not once per permutation step.
#[derive(Debug, Clone)]
pub struct SophosPublicKey {
    n: BigUint,
    e: BigUint,
    ctx: Arc<MontgomeryCtx>,
}

impl PartialEq for SophosPublicKey {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.e == other.e
    }
}

impl Eq for SophosPublicKey {}

impl SophosPublicKey {
    /// Assembles a key from an odd RSA modulus, building the cached
    /// Montgomery context once.
    fn assemble(n: BigUint, e: BigUint) -> Self {
        debug_assert!(n.is_odd());
        let ctx = Arc::new(MontgomeryCtx::new(&n));
        SophosPublicKey { n, e, ctx }
    }

    /// Applies the public direction `π`.
    pub fn forward(&self, x: &BigUint) -> BigUint {
        self.ctx.modpow(x, &self.e)
    }

    /// Modulus width in bytes (serialization width for search tokens).
    pub fn width(&self) -> usize {
        self.n.bits().div_ceil(8)
    }

    /// Serializes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.bytes(&self.n.to_bytes_be()).bytes(&self.e.to_bytes_be());
        w.finish()
    }

    /// Deserializes.
    ///
    /// # Errors
    ///
    /// [`SseError::Malformed`] on framing errors or a modulus that cannot
    /// be an RSA modulus (zero or even) or is over 1,024 bytes wide.
    pub fn decode(buf: &[u8]) -> Result<Self, SseError> {
        let mut r = Reader::new(buf);
        let n = decode_modulus(r.bytes()?)?;
        let e = BigUint::from_bytes_be(r.bytes()?);
        r.finish()?;
        Ok(SophosPublicKey::assemble(n, e))
    }
}

/// The full trapdoor keypair (gateway side; persisted via the KMS).
#[derive(Debug, Clone)]
pub struct SophosKeypair {
    public: SophosPublicKey,
    d: BigUint,
}

impl SophosKeypair {
    /// Generates an RSA trapdoor permutation with an approximately
    /// `modulus_bits`-bit modulus.
    pub fn generate<R: Rng + ?Sized>(rng: &mut R, modulus_bits: usize) -> Self {
        loop {
            let (p, q) = prime::gen_prime_pair(rng, modulus_bits / 2);
            let n = &p * &q;
            let phi = (&p - &BigUint::one()) * (&q - &BigUint::one());
            let e = BigUint::from(65537u64);
            if let Ok(d) = e.modinv(&phi) {
                return SophosKeypair { public: SophosPublicKey::assemble(n, e), d };
            }
        }
    }

    /// The public half.
    pub fn public(&self) -> &SophosPublicKey {
        &self.public
    }

    /// Applies the trapdoor direction `π^{-1}`, through the cached
    /// Montgomery context.
    pub fn backward(&self, x: &BigUint) -> BigUint {
        self.public.ctx.modpow(x, &self.d)
    }

    /// Serializes (private material included — KMS storage only).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.bytes(&self.public.n.to_bytes_be()).bytes(&self.public.e.to_bytes_be()).bytes(&self.d.to_bytes_be());
        w.finish()
    }

    /// Deserializes.
    ///
    /// # Errors
    ///
    /// [`SseError::Malformed`] on framing errors or a modulus
    /// [`SophosPublicKey::decode`] refuses.
    pub fn decode(buf: &[u8]) -> Result<Self, SseError> {
        let mut r = Reader::new(buf);
        let n = decode_modulus(r.bytes()?)?;
        let e = BigUint::from_bytes_be(r.bytes()?);
        let d = BigUint::from_bytes_be(r.bytes()?);
        r.finish()?;
        Ok(SophosKeypair { public: SophosPublicKey::assemble(n, e), d })
    }
}

/// Widest modulus (8,192 bits) a Sophos key may carry: the cloud decodes
/// keys off the wire, and each decode builds a Montgomery context, a
/// full-width square and division.
const MAX_MODULUS_BYTES: usize = 1024;

/// An RSA modulus from its big-endian bytes: nonzero, odd and at most
/// [`MAX_MODULUS_BYTES`] wide as sent.
fn decode_modulus(bytes: &[u8]) -> Result<BigUint, SseError> {
    let n = (bytes.len() <= MAX_MODULUS_BYTES).then(|| BigUint::from_bytes_be(bytes));
    // Zero is not odd.
    n.filter(BigUint::is_odd).ok_or(SseError::Malformed("sophos modulus"))
}

/// Hash H1 (update-token address) / H2 (payload mask), domain-separated.
fn h(tag: u8, k_w: &[u8; 32], st: &[u8]) -> [u8; 32] {
    let mut hasher = Sha256::new();
    hasher.update(b"sophos");
    hasher.update(&[tag]);
    hasher.update(k_w);
    hasher.update(st);
    hasher.finalize()
}

/// An update entry travelling gateway → cloud.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SophosUpdateToken {
    /// `H1(K_w, ST_c)` — where the server files the entry.
    pub ut: [u8; 32],
    /// Masked document id.
    pub masked_id: [u8; 16],
}

impl SophosUpdateToken {
    /// Serializes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.bytes(&self.ut).bytes(&self.masked_id);
        w.finish()
    }

    /// Deserializes.
    ///
    /// # Errors
    ///
    /// [`SseError::Malformed`] on framing errors.
    pub fn decode(buf: &[u8]) -> Result<Self, SseError> {
        let mut r = Reader::new(buf);
        let ut = r.array::<32>()?;
        let masked_id = r.array::<16>()?;
        r.finish()?;
        Ok(SophosUpdateToken { ut, masked_id })
    }
}

/// A search request: enough for the server to walk the whole chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SophosSearchToken {
    /// Per-keyword PRF key (revealed at search time, as in the paper).
    pub k_w: [u8; 32],
    /// Latest search token `ST_c` (big-endian, modulus width).
    pub st: Vec<u8>,
    /// Chain length `c`.
    pub count: u64,
}

impl SophosSearchToken {
    /// Serializes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.bytes(&self.k_w).bytes(&self.st).u64(self.count);
        w.finish()
    }

    /// Deserializes.
    ///
    /// # Errors
    ///
    /// [`SseError::Malformed`] on framing errors.
    pub fn decode(buf: &[u8]) -> Result<Self, SseError> {
        let mut r = Reader::new(buf);
        let k_w = r.array::<32>()?;
        let st = r.bytes()?;
        let count = r.u64()?;
        r.finish()?;
        Ok(SophosSearchToken { k_w, st: st.to_vec(), count })
    }
}

/// Per-keyword client state.
#[derive(Debug, Clone)]
struct KeywordState {
    st: BigUint,
    count: u64,
}

/// The gateway-side half.
pub struct SophosClient {
    keypair: SophosKeypair,
    prf: HmacPrf,
    state: HashMap<Vec<u8>, KeywordState>,
}

impl SophosClient {
    /// Creates a client from the symmetric key and trapdoor keypair.
    pub fn new(key: &SymmetricKey, keypair: SophosKeypair) -> Self {
        SophosClient { keypair, prf: HmacPrf::new(key.derive(b"sophos", 32)), state: HashMap::new() }
    }

    /// The public key the server needs.
    pub fn public_key(&self) -> &SophosPublicKey {
        &self.keypair.public
    }

    fn k_w(&self, keyword: &[u8]) -> [u8; 32] {
        self.prf.eval_parts(&[b"kw", keyword])
    }

    /// Produces the update token for `(keyword, id)`, advancing the chain.
    pub fn update_token<R: Rng + ?Sized>(&mut self, rng: &mut R, keyword: &[u8], id: DocId) -> SophosUpdateToken {
        let n = self.keypair.public.n.clone();
        let st = match self.state.get(keyword) {
            None => loop {
                let candidate = BigUint::random_below(rng, &n);
                if !candidate.is_zero() && candidate.gcd(&n).is_one() {
                    break candidate;
                }
            },
            Some(s) => self.keypair.backward(&s.st),
        };
        let count = self.state.get(keyword).map_or(0, |s| s.count) + 1;
        let width = self.keypair.public.width();
        let st_bytes = st.to_bytes_be_padded(width);
        let k_w = self.k_w(keyword);
        let ut = h(1, &k_w, &st_bytes);
        let mask = h(2, &k_w, &st_bytes);
        let mut masked_id = [0u8; 16];
        for i in 0..16 {
            masked_id[i] = id.0[i] ^ mask[i];
        }
        self.state.insert(keyword.to_vec(), KeywordState { st, count });
        SophosUpdateToken { ut, masked_id }
    }

    /// Produces the search token (empty-result shortcut when the keyword
    /// was never updated).
    pub fn search_token(&self, keyword: &[u8]) -> Option<SophosSearchToken> {
        let s = self.state.get(keyword)?;
        let width = self.keypair.public.width();
        Some(SophosSearchToken { k_w: self.k_w(keyword), st: s.st.to_bytes_be_padded(width), count: s.count })
    }

    /// Unmasks the server's results into document ids.
    ///
    /// The server returns `(st_bytes, masked_id)` pairs so the client does
    /// not need to re-walk the permutation chain.
    ///
    /// # Errors
    ///
    /// [`SseError::Malformed`] on wrong-size entries.
    pub fn resolve<B: AsRef<[u8]>>(&self, keyword: &[u8], entries: &[(B, B)]) -> Result<Vec<DocId>, SseError> {
        let k_w = self.k_w(keyword);
        let mut out = Vec::with_capacity(entries.len());
        for (st_bytes, masked) in entries {
            let (st_bytes, masked) = (st_bytes.as_ref(), masked.as_ref());
            if masked.len() != 16 {
                return Err(SseError::Malformed("sophos entry"));
            }
            let mask = h(2, &k_w, st_bytes);
            let mut id = [0u8; 16];
            for i in 0..16 {
                id[i] = masked[i] ^ mask[i];
            }
            out.push(DocId(id));
        }
        out.sort();
        out.dedup();
        Ok(out)
    }

    /// Chain length for a keyword.
    pub fn counter(&self, keyword: &[u8]) -> u64 {
        self.state.get(keyword).map_or(0, |s| s.count)
    }

    /// Exports per-keyword state for gateway persistence.
    pub fn export_state(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u32(self.state.len() as u32);
        let mut entries: Vec<_> = self.state.iter().collect();
        entries.sort_by(|a, b| a.0.cmp(b.0));
        for (kw, s) in entries {
            w.bytes(kw).bytes(&s.st.to_bytes_be()).u64(s.count);
        }
        w.finish()
    }

    /// Restores exported state.
    ///
    /// # Errors
    ///
    /// [`SseError::Malformed`] on framing errors.
    pub fn import_state(&mut self, state: &[u8]) -> Result<(), SseError> {
        let mut r = Reader::new(state);
        let count = r.u32()?;
        let mut map = HashMap::new();
        for _ in 0..count {
            let kw = r.bytes()?;
            let st = BigUint::from_bytes_be(r.bytes()?);
            let c = r.u64()?;
            map.insert(kw.to_vec(), KeywordState { st, count: c });
        }
        r.finish()?;
        self.state = map;
        Ok(())
    }
}

/// The cloud-side half.
pub struct SophosServer {
    kv: KvStore,
    prefix: Vec<u8>,
    public: SophosPublicKey,
}

impl SophosServer {
    /// Creates a server over `kv` with the client's public key.
    pub fn new(kv: KvStore, prefix: &[u8], public: SophosPublicKey) -> Self {
        SophosServer { kv, prefix: prefix.to_vec(), public }
    }

    /// Files one update entry. A replay of a filed entry is `Ok`.
    ///
    /// # Errors
    ///
    /// [`SseError::AddressTaken`] when the address holds a different entry,
    /// which stays.
    pub fn apply_update(&self, token: &SophosUpdateToken) -> Result<(), SseError> {
        set_once(&self.kv, &self.key(&token.ut), &token.masked_id)
    }

    /// Walks the permutation chain backwards, collecting
    /// `(st_bytes, masked_id)` pairs for the client to unmask.
    pub fn search(&self, token: &SophosSearchToken) -> Vec<(Vec<u8>, Vec<u8>)> {
        let width = self.public.width();
        let mut st = BigUint::from_bytes_be(&token.st);
        let mut out = Vec::with_capacity(token.count as usize);
        for _ in 0..token.count {
            let st_bytes = st.to_bytes_be_padded(width);
            let ut = h(1, &token.k_w, &st_bytes);
            if let Some(masked) = self.kv.get(&self.key(&ut)) {
                out.push((st_bytes.clone(), masked));
            }
            st = self.public.forward(&st);
        }
        out
    }

    /// Stored entry count under this prefix.
    pub fn entry_count(&self) -> usize {
        self.kv.keys_with_prefix(&self.prefix).len()
    }

    fn key(&self, ut: &[u8; 32]) -> Vec<u8> {
        let mut k = self.prefix.clone();
        k.extend_from_slice(ut);
        k
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn setup() -> (SophosClient, SophosServer, rand::rngs::StdRng) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x50F0);
        let keypair = SophosKeypair::generate(&mut rng, 256); // small modulus for test speed
        let key = SymmetricKey::from_bytes(&[6u8; 32]);
        let server = SophosServer::new(KvStore::new(), b"sophos:", keypair.public().clone());
        let client = SophosClient::new(&key, keypair);
        (client, server, rng)
    }

    fn id(n: u8) -> DocId {
        DocId([n; 16])
    }

    #[test]
    fn trapdoor_permutation_inverts() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let kp = SophosKeypair::generate(&mut rng, 128);
        let x = BigUint::from(123456789u64);
        let y = kp.backward(&x);
        assert_eq!(kp.public().forward(&y), x);
        assert_eq!(kp.public().forward(&kp.backward(&y)), y);
    }

    #[test]
    fn add_and_search() {
        let (mut client, server, mut rng) = setup();
        for n in 1..=4 {
            server.apply_update(&client.update_token(&mut rng, b"cancer", id(n))).unwrap();
        }
        server.apply_update(&client.update_token(&mut rng, b"flu", id(9))).unwrap();

        let token = client.search_token(b"cancer").unwrap();
        let results = server.search(&token);
        assert_eq!(results.len(), 4);
        let ids = client.resolve(b"cancer", &results).unwrap();
        assert_eq!(ids, vec![id(1), id(2), id(3), id(4)]);

        let ids = client.resolve(b"flu", &server.search(&client.search_token(b"flu").unwrap())).unwrap();
        assert_eq!(ids, vec![id(9)]);
    }

    #[test]
    fn an_address_is_written_once_and_a_replay_is_ok() {
        let (mut client, server, mut rng) = setup();
        let first = client.update_token(&mut rng, b"w", id(1));
        server.apply_update(&first).unwrap();
        server.apply_update(&first).unwrap();
        let other = SophosUpdateToken { masked_id: [0xAA; 16], ..first.clone() };
        assert_eq!(server.apply_update(&other), Err(SseError::AddressTaken));
        let ids = client.resolve(b"w", &server.search(&client.search_token(b"w").unwrap())).unwrap();
        assert_eq!(ids, vec![id(1)], "the acknowledged entry survives");
    }

    #[test]
    fn unknown_keyword_no_token() {
        let (client, _, _) = setup();
        assert!(client.search_token(b"nope").is_none());
    }

    #[test]
    fn forward_privacy_shape() {
        // Consecutive updates of the same keyword produce unlinkable UTs,
        // and a search token only unlocks entries made *before* it.
        let (mut client, server, mut rng) = setup();
        let t1 = client.update_token(&mut rng, b"w", id(1));
        let t2 = client.update_token(&mut rng, b"w", id(2));
        assert_ne!(t1.ut, t2.ut);
        server.apply_update(&t1).unwrap();
        server.apply_update(&t2).unwrap();
        let token_at_2 = client.search_token(b"w").unwrap();
        // New update after the search token was issued:
        server.apply_update(&client.update_token(&mut rng, b"w", id(3))).unwrap();
        // The old token cannot see the new entry (count = 2).
        let results = server.search(&token_at_2);
        let ids = client.resolve(b"w", &results).unwrap();
        assert_eq!(ids, vec![id(1), id(2)]);
        // A fresh token sees all three.
        let ids = client.resolve(b"w", &server.search(&client.search_token(b"w").unwrap())).unwrap();
        assert_eq!(ids, vec![id(1), id(2), id(3)]);
    }

    #[test]
    fn tokens_and_keys_encode_roundtrip() {
        let (mut client, _, mut rng) = setup();
        let up = client.update_token(&mut rng, b"w", id(1));
        assert_eq!(SophosUpdateToken::decode(&up.encode()).unwrap(), up);
        let st = client.search_token(b"w").unwrap();
        assert_eq!(SophosSearchToken::decode(&st.encode()).unwrap(), st);
        let pk = client.public_key().clone();
        assert_eq!(SophosPublicKey::decode(&pk.encode()).unwrap(), pk);
        assert!(SophosUpdateToken::decode(b"x").is_err());
    }

    #[test]
    fn keypair_encode_roundtrip_via_kms_bytes() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let kp = SophosKeypair::generate(&mut rng, 128);
        let kp2 = SophosKeypair::decode(&kp.encode()).unwrap();
        let x = BigUint::from(42u64);
        assert_eq!(kp.backward(&x), kp2.backward(&x));
        assert_eq!(kp.public(), kp2.public());
    }

    #[test]
    fn state_export_import_continues_chain() {
        let (mut client, server, mut rng) = setup();
        server.apply_update(&client.update_token(&mut rng, b"w", id(1))).unwrap();
        let state = client.export_state();
        let keypair = SophosKeypair::decode(&{
            // reuse same keypair bytes through encode/decode
            client.keypair.encode()
        })
        .unwrap();
        let key = SymmetricKey::from_bytes(&[6u8; 32]);
        let mut client2 = SophosClient::new(&key, keypair);
        client2.import_state(&state).unwrap();
        assert_eq!(client2.counter(b"w"), 1);
        server.apply_update(&client2.update_token(&mut rng, b"w", id(2))).unwrap();
        let ids = client2.resolve(b"w", &server.search(&client2.search_token(b"w").unwrap())).unwrap();
        assert_eq!(ids, vec![id(1), id(2)]);
    }
}
