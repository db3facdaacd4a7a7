//! BIEX — boolean SSE with worst-case sub-linear complexity (Kamara &
//! Moataz, EUROCRYPT 2017), in the two variants Table 2 integrates:
//!
//! * **BIEX-2Lev** (read-efficient): besides the global 2Lev index, setup
//!   precomputes *pair* entries — for co-occurring keywords `(w, w')` an
//!   encrypted posting list of `ids(w) ∩ ids(w')`. A conjunction
//!   `w1 ∧ … ∧ wk` streams the `(w1, wi)` pair entries and the client
//!   intersects them: bytes per query are proportional to result sizes.
//! * **BIEX-ZMF** (space-efficient): instead of materializing pairwise
//!   intersections, each keyword gets a *matryoshka* (Bloom) filter of
//!   PRF-tagged ids. A conjunction fetches `ids(w1)` plus the filters of
//!   `w2..wk` and the client tests membership — storage is one filter per
//!   keyword, at the cost of shipping filters and a tunable false-positive
//!   rate.
//!
//! Queries are in disjunctive normal form ([`BiexQuery`]); disjunction is
//! the union of its conjunctions' results. Protection class 3, leakage
//! *Predicates* (the structure of the boolean query is visible).

use datablinder_kvstore::KvStore;
use datablinder_primitives::gcm::AesGcm;
use datablinder_primitives::keys::SymmetricKey;
use datablinder_primitives::prf::{HmacPrf, Prf};
use rand::Rng;

use crate::bloom::BloomFilter;
use crate::inverted::InvertedIndex;
use crate::twolev::{TwoLevClient, TwoLevServer, TwoLevToken};
use crate::{DocId, SseError};
use datablinder_codec::{Reader, Writer};

/// A boolean query in disjunctive normal form: `OR of (AND of keywords)`.
///
/// # Examples
///
/// ```
/// use datablinder_sse::biex::BiexQuery;
///
/// // (cancer AND 2012) OR (flu)
/// let q = BiexQuery::dnf(vec![
///     vec![b"cancer".to_vec(), b"2012".to_vec()],
///     vec![b"flu".to_vec()],
/// ]);
/// assert_eq!(q.conjunctions().len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BiexQuery {
    dnf: Vec<Vec<Vec<u8>>>,
}

impl BiexQuery {
    /// Builds a query from DNF clauses; empty conjunctions are dropped.
    pub fn dnf(clauses: Vec<Vec<Vec<u8>>>) -> Self {
        BiexQuery { dnf: clauses.into_iter().filter(|c| !c.is_empty()).collect() }
    }

    /// A single-keyword query.
    pub fn keyword(w: &[u8]) -> Self {
        BiexQuery { dnf: vec![vec![w.to_vec()]] }
    }

    /// A single conjunction.
    pub fn conjunction(ws: Vec<Vec<u8>>) -> Self {
        BiexQuery::dnf(vec![ws])
    }

    /// The DNF clauses.
    pub fn conjunctions(&self) -> &[Vec<Vec<u8>>] {
        &self.dnf
    }
}

// ===================================================================
// BIEX-2Lev
// ===================================================================

/// Search token for one conjunction under BIEX-2Lev.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Biex2LevConjToken {
    /// Single keyword: fall through to the global index.
    Global(TwoLevToken),
    /// Multi keyword: pair-entry labels `(w1, wi)` for `i >= 2`.
    Pairs(Vec<[u8; 32]>),
}

/// Full token: one entry per conjunction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Biex2LevToken {
    /// Per-conjunction tokens, in query order.
    pub conjunctions: Vec<Biex2LevConjToken>,
}

impl Biex2LevToken {
    /// Serializes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u32(self.conjunctions.len() as u32);
        for c in &self.conjunctions {
            match c {
                Biex2LevConjToken::Global(t) => {
                    w.u8(0).bytes(&t.encode());
                }
                Biex2LevConjToken::Pairs(labels) => {
                    w.u8(1).list(&labels.iter().map(|l| l.to_vec()).collect::<Vec<_>>());
                }
            }
        }
        w.finish()
    }

    /// Deserializes.
    ///
    /// # Errors
    ///
    /// [`SseError::Malformed`] on framing errors.
    pub fn decode(buf: &[u8]) -> Result<Self, SseError> {
        let mut r = Reader::new(buf);
        let n = r.count()?;
        let mut conjunctions = Vec::with_capacity(n);
        for _ in 0..n {
            match r.u8()? {
                0 => conjunctions.push(Biex2LevConjToken::Global(TwoLevToken::decode(r.bytes()?)?)),
                1 => {
                    let labels = r
                        .list()?
                        .into_iter()
                        .map(|l| l.try_into().map_err(|_| SseError::Malformed("pair label")))
                        .collect::<Result<Vec<[u8; 32]>, _>>()?;
                    conjunctions.push(Biex2LevConjToken::Pairs(labels));
                }
                _ => return Err(SseError::Malformed("biex token kind")),
            }
        }
        r.finish()?;
        Ok(Biex2LevToken { conjunctions })
    }
}

/// Server response: per conjunction, the fetched encrypted blobs.
pub type Biex2LevResponse = Vec<Vec<Vec<u8>>>;

/// Serializes a [`Biex2LevResponse`] for the channel.
pub fn encode_2lev_response(response: &Biex2LevResponse) -> Vec<u8> {
    let mut w = Writer::new();
    w.u32(response.len() as u32);
    for conj in response {
        w.list(conj);
    }
    w.finish()
}

fn owned(list: Vec<&[u8]>) -> Vec<Vec<u8>> {
    list.into_iter().map(<[u8]>::to_vec).collect()
}

/// Deserializes a [`Biex2LevResponse`].
///
/// # Errors
///
/// [`SseError::Malformed`] on framing errors.
pub fn decode_2lev_response(buf: &[u8]) -> Result<Biex2LevResponse, SseError> {
    let mut r = Reader::new(buf);
    let n = r.count()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(owned(r.list()?));
    }
    r.finish()?;
    Ok(out)
}

/// The gateway-side half of BIEX-2Lev.
pub struct Biex2LevClient {
    global: TwoLevClient,
    prf: HmacPrf,
    master: SymmetricKey,
}

impl Biex2LevClient {
    /// Creates a client.
    pub fn new(key: &SymmetricKey) -> Self {
        Biex2LevClient {
            global: TwoLevClient::new(&key.derive(b"biex/global", 32)),
            prf: HmacPrf::new(key.derive(b"biex/pairs", 32)),
            master: key.derive(b"biex/enc", 32),
        }
    }

    fn pair_label(&self, w1: &[u8], w2: &[u8]) -> [u8; 32] {
        self.prf.eval_parts(&[b"pair-label", w1, w2])
    }

    /// Per-pair entry cipher: one derivation and key schedule per stored
    /// or resolved `(w1, w2)` entry.
    fn pair_cipher(&self, w1: &[u8], w2: &[u8]) -> Result<AesGcm, SseError> {
        let mut label = b"pair-enc/".to_vec();
        label.extend_from_slice(&(w1.len() as u64).to_be_bytes());
        label.extend_from_slice(w1);
        label.extend_from_slice(w2);
        Ok(AesGcm::new(&self.master.derive(&label, 32))?)
    }

    /// Builds global + pair structures and installs them on the server.
    ///
    /// # Errors
    ///
    /// Propagates crypto and storage failures.
    pub fn setup<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        index: &InvertedIndex,
        server: &Biex2LevServer,
    ) -> Result<(), SseError> {
        self.global.setup(rng, index, &server.global)?;
        // Pair entries for all ordered co-occurring keyword pairs.
        let keywords: Vec<&Vec<u8>> = index.keywords().collect();
        for w1 in &keywords {
            for w2 in &keywords {
                if w1 == w2 {
                    continue;
                }
                let inter = index.intersection(w1, w2);
                if inter.is_empty() {
                    continue;
                }
                let label = self.pair_label(w1, w2);
                let cipher = self.pair_cipher(w1, w2)?;
                let mut plain = Vec::with_capacity(inter.len() * 16);
                for id in &inter {
                    plain.extend_from_slice(&id.0);
                }
                let sealed = cipher.seal(&[0u8; 12], b"biex-pair", &plain);
                server.put_pair(&label, &sealed);
            }
        }
        Ok(())
    }

    /// Builds the token for a DNF query.
    pub fn search_token(&self, query: &BiexQuery) -> Biex2LevToken {
        let conjunctions = query
            .conjunctions()
            .iter()
            .map(|conj| {
                if conj.len() == 1 {
                    Biex2LevConjToken::Global(self.global.search_token(&conj[0]))
                } else {
                    let w1 = &conj[0];
                    Biex2LevConjToken::Pairs(conj[1..].iter().map(|wi| self.pair_label(w1, wi)).collect())
                }
            })
            .collect();
        Biex2LevToken { conjunctions }
    }

    /// Resolves the server's response into the matching document ids.
    ///
    /// # Errors
    ///
    /// Crypto failures on tampered blobs, malformed responses.
    pub fn resolve(&self, query: &BiexQuery, response: &Biex2LevResponse) -> Result<Vec<DocId>, SseError> {
        if response.len() != query.conjunctions().len() {
            return Err(SseError::Malformed("biex response arity"));
        }
        let mut union: Vec<DocId> = Vec::new();
        for (conj, blobs) in query.conjunctions().iter().zip(response.iter()) {
            let ids = if conj.len() == 1 {
                self.global.resolve(&conj[0], blobs)?
            } else {
                let w1 = &conj[0];
                let mut acc: Option<Vec<DocId>> = None;
                if blobs.len() != conj.len() - 1 {
                    return Err(SseError::Malformed("biex pair response arity"));
                }
                for (wi, blob) in conj[1..].iter().zip(blobs.iter()) {
                    let ids = if blob.is_empty() {
                        Vec::new() // absent pair entry: empty intersection
                    } else {
                        let cipher = self.pair_cipher(w1, wi)?;
                        let mut sealed = blob.clone();
                        let plain = cipher.open_in_place(&[0u8; 12], b"biex-pair", &mut sealed)?;
                        if plain.len() % 16 != 0 {
                            return Err(SseError::Malformed("biex pair entry"));
                        }
                        plain
                            .chunks(16)
                            .map(|c| {
                                let mut id = [0u8; 16];
                                id.copy_from_slice(c);
                                DocId(id)
                            })
                            .collect()
                    };
                    acc = Some(match acc {
                        None => ids,
                        Some(prev) => prev.into_iter().filter(|x| ids.contains(x)).collect(),
                    });
                }
                acc.unwrap_or_default()
            };
            union.extend(ids);
        }
        union.sort();
        union.dedup();
        Ok(union)
    }
}

/// The cloud-side half of BIEX-2Lev.
pub struct Biex2LevServer {
    global: TwoLevServer,
    kv: KvStore,
    prefix: Vec<u8>,
}

impl Biex2LevServer {
    /// Creates a server storing under `prefix`.
    pub fn new(kv: KvStore, prefix: &[u8]) -> Self {
        let mut gp = prefix.to_vec();
        gp.extend_from_slice(b"g:");
        Biex2LevServer { global: TwoLevServer::new(kv.clone(), &gp), kv, prefix: prefix.to_vec() }
    }

    fn pair_key(&self, label: &[u8; 32]) -> Vec<u8> {
        let mut k = self.prefix.clone();
        k.extend_from_slice(b"pair:");
        k.extend_from_slice(label);
        k
    }

    fn put_pair(&self, label: &[u8; 32], sealed: &[u8]) {
        self.kv.set(&self.pair_key(label), sealed);
    }

    /// Executes a token: per conjunction, global buckets or pair blobs
    /// (absent pairs yield empty blobs, meaning empty intersection).
    ///
    /// # Errors
    ///
    /// Propagates global-index failures.
    pub fn search(&self, token: &Biex2LevToken) -> Result<Biex2LevResponse, SseError> {
        token
            .conjunctions
            .iter()
            .map(|c| match c {
                Biex2LevConjToken::Global(t) => self.global.search(t),
                Biex2LevConjToken::Pairs(labels) => {
                    Ok(labels.iter().map(|l| self.kv.get(&self.pair_key(l)).unwrap_or_default()).collect())
                }
            })
            .collect()
    }

    /// Number of stored pair entries (the read-efficiency storage cost).
    pub fn pair_count(&self) -> usize {
        let mut k = self.prefix.clone();
        k.extend_from_slice(b"pair:");
        self.kv.keys_with_prefix(&k).len()
    }
}

// ===================================================================
// BIEX-ZMF
// ===================================================================

/// Search token for BIEX-ZMF.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BiexZmfToken {
    /// Per conjunction: the global token for the s-term plus the filter
    /// labels of the remaining keywords.
    pub conjunctions: Vec<(TwoLevToken, Vec<[u8; 32]>)>,
}

impl BiexZmfToken {
    /// Serializes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u32(self.conjunctions.len() as u32);
        for (t, labels) in &self.conjunctions {
            w.bytes(&t.encode());
            w.list(&labels.iter().map(|l| l.to_vec()).collect::<Vec<_>>());
        }
        w.finish()
    }

    /// Deserializes.
    ///
    /// # Errors
    ///
    /// [`SseError::Malformed`] on framing errors.
    pub fn decode(buf: &[u8]) -> Result<Self, SseError> {
        let mut r = Reader::new(buf);
        let n = r.count()?;
        let mut conjunctions = Vec::with_capacity(n);
        for _ in 0..n {
            let t = TwoLevToken::decode(r.bytes()?)?;
            let labels = r
                .list()?
                .into_iter()
                .map(|l| l.try_into().map_err(|_| SseError::Malformed("zmf label")))
                .collect::<Result<Vec<[u8; 32]>, _>>()?;
            conjunctions.push((t, labels));
        }
        r.finish()?;
        Ok(BiexZmfToken { conjunctions })
    }
}

/// Server response: per conjunction, the s-term buckets and the filters.
pub type BiexZmfResponse = Vec<(Vec<Vec<u8>>, Vec<Vec<u8>>)>;

/// Serializes a [`BiexZmfResponse`] for the channel.
pub fn encode_zmf_response(response: &BiexZmfResponse) -> Vec<u8> {
    let mut w = Writer::new();
    w.u32(response.len() as u32);
    for (buckets, filters) in response {
        w.list(buckets);
        w.list(filters);
    }
    w.finish()
}

/// Deserializes a [`BiexZmfResponse`].
///
/// # Errors
///
/// [`SseError::Malformed`] on framing errors.
pub fn decode_zmf_response(buf: &[u8]) -> Result<BiexZmfResponse, SseError> {
    let mut r = Reader::new(buf);
    let n = r.count()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let buckets = owned(r.list()?);
        let filters = owned(r.list()?);
        out.push((buckets, filters));
    }
    r.finish()?;
    Ok(out)
}

/// False-positive rate the matryoshka filters are sized for.
pub const ZMF_FP_RATE: f64 = 0.001;

/// The gateway-side half of BIEX-ZMF.
pub struct BiexZmfClient {
    global: TwoLevClient,
    prf: HmacPrf,
}

impl BiexZmfClient {
    /// Creates a client.
    pub fn new(key: &SymmetricKey) -> Self {
        BiexZmfClient {
            global: TwoLevClient::new(&key.derive(b"zmf/global", 32)),
            prf: HmacPrf::new(key.derive(b"zmf/prf", 32)),
        }
    }

    fn filter_label(&self, w: &[u8]) -> [u8; 32] {
        self.prf.eval_parts(&[b"filter-label", w])
    }

    fn tag(&self, w: &[u8], id: DocId) -> [u8; 32] {
        self.prf.eval_parts(&[b"tag", w, &id.0])
    }

    /// Builds the global index plus one matryoshka filter per keyword.
    ///
    /// # Errors
    ///
    /// Propagates crypto and storage failures.
    pub fn setup<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        index: &InvertedIndex,
        server: &BiexZmfServer,
    ) -> Result<(), SseError> {
        self.global.setup(rng, index, &server.global)?;
        for (w, postings) in index.iter() {
            let mut filter = BloomFilter::with_capacity(postings.len().max(1), ZMF_FP_RATE);
            for id in postings {
                filter.insert(&self.tag(w, *id));
            }
            server.put_filter(&self.filter_label(w), &filter.encode());
        }
        Ok(())
    }

    /// Builds the token for a DNF query.
    pub fn search_token(&self, query: &BiexQuery) -> BiexZmfToken {
        let conjunctions = query
            .conjunctions()
            .iter()
            .map(|conj| {
                let t = self.global.search_token(&conj[0]);
                let labels = conj[1..].iter().map(|w| self.filter_label(w)).collect();
                (t, labels)
            })
            .collect();
        BiexZmfToken { conjunctions }
    }

    /// Resolves the response: decrypt s-term postings, keep ids passing
    /// every filter. May contain Bloom false positives (rate
    /// [`ZMF_FP_RATE`]), which DataBlinder filters at document retrieval.
    ///
    /// # Errors
    ///
    /// Crypto/malformed failures on tampered blobs or filters.
    pub fn resolve(&self, query: &BiexQuery, response: &BiexZmfResponse) -> Result<Vec<DocId>, SseError> {
        if response.len() != query.conjunctions().len() {
            return Err(SseError::Malformed("zmf response arity"));
        }
        let mut union: Vec<DocId> = Vec::new();
        for (conj, (buckets, filter_blobs)) in query.conjunctions().iter().zip(response.iter()) {
            let candidates = self.global.resolve(&conj[0], buckets)?;
            if filter_blobs.len() != conj.len() - 1 {
                return Err(SseError::Malformed("zmf filter arity"));
            }
            let filters = filter_blobs
                .iter()
                .zip(conj[1..].iter())
                .map(|(blob, _)| {
                    if blob.is_empty() {
                        Ok(None) // unknown keyword: empty filter matches nothing
                    } else {
                        BloomFilter::decode(blob).map(Some)
                    }
                })
                .collect::<Result<Vec<_>, _>>()?;
            'candidate: for id in candidates {
                for (filter, w) in filters.iter().zip(conj[1..].iter()) {
                    match filter {
                        None => continue 'candidate,
                        Some(f) => {
                            if !f.contains(&self.tag(w, id)) {
                                continue 'candidate;
                            }
                        }
                    }
                }
                union.push(id);
            }
        }
        union.sort();
        union.dedup();
        Ok(union)
    }
}

/// The cloud-side half of BIEX-ZMF.
pub struct BiexZmfServer {
    global: TwoLevServer,
    kv: KvStore,
    prefix: Vec<u8>,
}

impl BiexZmfServer {
    /// Creates a server storing under `prefix`.
    pub fn new(kv: KvStore, prefix: &[u8]) -> Self {
        let mut gp = prefix.to_vec();
        gp.extend_from_slice(b"g:");
        BiexZmfServer { global: TwoLevServer::new(kv.clone(), &gp), kv, prefix: prefix.to_vec() }
    }

    fn filter_key(&self, label: &[u8; 32]) -> Vec<u8> {
        let mut k = self.prefix.clone();
        k.extend_from_slice(b"zmf:");
        k.extend_from_slice(label);
        k
    }

    fn put_filter(&self, label: &[u8; 32], encoded: &[u8]) {
        self.kv.set(&self.filter_key(label), encoded);
    }

    /// Executes a token: global buckets plus the requested filter blobs
    /// (absent filters yield empty blobs).
    ///
    /// # Errors
    ///
    /// Propagates global-index failures.
    pub fn search(&self, token: &BiexZmfToken) -> Result<BiexZmfResponse, SseError> {
        token
            .conjunctions
            .iter()
            .map(|(t, labels)| {
                let buckets = self.global.search(t)?;
                let filters = labels.iter().map(|l| self.kv.get(&self.filter_key(l)).unwrap_or_default()).collect();
                Ok((buckets, filters))
            })
            .collect()
    }

    /// Number of stored filters (the space-efficiency storage cost).
    pub fn filter_count(&self) -> usize {
        let mut k = self.prefix.clone();
        k.extend_from_slice(b"zmf:");
        self.kv.keys_with_prefix(&k).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn id(n: u16) -> DocId {
        let mut b = [0u8; 16];
        b[..2].copy_from_slice(&n.to_be_bytes());
        DocId(b)
    }

    /// docs: 0..10 have "red", 5..15 have "blue", evens have "even".
    fn index() -> InvertedIndex {
        let mut idx = InvertedIndex::new();
        for n in 0..10 {
            idx.add(b"red", id(n));
        }
        for n in 5..15 {
            idx.add(b"blue", id(n));
        }
        for n in (0..15).step_by(2) {
            idx.add(b"even", id(n));
        }
        idx
    }

    fn oracle_conj(idx: &InvertedIndex, conj: &[&[u8]]) -> Vec<DocId> {
        let mut acc = idx.postings(conj[0]);
        for w in &conj[1..] {
            let p = idx.postings(w);
            acc.retain(|x| p.contains(x));
        }
        acc
    }

    #[test]
    fn biex_2lev_single_keyword() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        let idx = index();
        let client = Biex2LevClient::new(&SymmetricKey::from_bytes(&[1u8; 32]));
        let server = Biex2LevServer::new(KvStore::new(), b"biex:");
        client.setup(&mut rng, &idx, &server).unwrap();

        let q = BiexQuery::keyword(b"red");
        let resp = server.search(&client.search_token(&q)).unwrap();
        assert_eq!(client.resolve(&q, &resp).unwrap(), idx.postings(b"red"));
    }

    #[test]
    fn biex_2lev_conjunctions_and_dnf() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(32);
        let idx = index();
        let client = Biex2LevClient::new(&SymmetricKey::from_bytes(&[1u8; 32]));
        let server = Biex2LevServer::new(KvStore::new(), b"biex:");
        client.setup(&mut rng, &idx, &server).unwrap();

        // red AND blue = 5..10
        let q = BiexQuery::conjunction(vec![b"red".to_vec(), b"blue".to_vec()]);
        let resp = server.search(&client.search_token(&q)).unwrap();
        assert_eq!(client.resolve(&q, &resp).unwrap(), oracle_conj(&idx, &[b"red", b"blue"]));

        // red AND blue AND even = {6, 8}
        let q = BiexQuery::conjunction(vec![b"red".to_vec(), b"blue".to_vec(), b"even".to_vec()]);
        let resp = server.search(&client.search_token(&q)).unwrap();
        assert_eq!(client.resolve(&q, &resp).unwrap(), oracle_conj(&idx, &[b"red", b"blue", b"even"]));

        // (red AND blue) OR (even) — union.
        let q = BiexQuery::dnf(vec![vec![b"red".to_vec(), b"blue".to_vec()], vec![b"even".to_vec()]]);
        let resp = server.search(&client.search_token(&q)).unwrap();
        let mut expect = oracle_conj(&idx, &[b"red", b"blue"]);
        expect.extend(idx.postings(b"even"));
        expect.sort();
        expect.dedup();
        assert_eq!(client.resolve(&q, &resp).unwrap(), expect);
    }

    #[test]
    fn biex_2lev_empty_intersection() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(33);
        let mut idx = InvertedIndex::new();
        idx.add(b"a", id(1));
        idx.add(b"b", id(2));
        let client = Biex2LevClient::new(&SymmetricKey::from_bytes(&[1u8; 32]));
        let server = Biex2LevServer::new(KvStore::new(), b"biex:");
        client.setup(&mut rng, &idx, &server).unwrap();
        let q = BiexQuery::conjunction(vec![b"a".to_vec(), b"b".to_vec()]);
        let resp = server.search(&client.search_token(&q)).unwrap();
        assert_eq!(client.resolve(&q, &resp).unwrap(), vec![]);
        assert_eq!(server.pair_count(), 0, "no co-occurrence, no pair entries");
    }

    #[test]
    fn biex_zmf_matches_oracle() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(34);
        let idx = index();
        let client = BiexZmfClient::new(&SymmetricKey::from_bytes(&[2u8; 32]));
        let server = BiexZmfServer::new(KvStore::new(), b"zmf:");
        client.setup(&mut rng, &idx, &server).unwrap();

        for conj in [
            vec![b"red".as_slice()],
            vec![b"red".as_slice(), b"blue".as_slice()],
            vec![b"red".as_slice(), b"blue".as_slice(), b"even".as_slice()],
        ] {
            let q = BiexQuery::conjunction(conj.iter().map(|w| w.to_vec()).collect());
            let resp = server.search(&client.search_token(&q)).unwrap();
            let got = client.resolve(&q, &resp).unwrap();
            let exact = oracle_conj(&idx, &conj);
            // Bloom filters admit false positives but never negatives.
            for e in &exact {
                assert!(got.contains(e), "false negative for {conj:?}");
            }
            assert!(got.len() <= exact.len() + 2, "fp explosion for {conj:?}");
        }
        assert_eq!(server.filter_count(), 3);
    }

    #[test]
    fn zmf_unknown_second_keyword_empty() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(35);
        let idx = index();
        let client = BiexZmfClient::new(&SymmetricKey::from_bytes(&[2u8; 32]));
        let server = BiexZmfServer::new(KvStore::new(), b"zmf:");
        client.setup(&mut rng, &idx, &server).unwrap();
        let q = BiexQuery::conjunction(vec![b"red".to_vec(), b"nope".to_vec()]);
        let resp = server.search(&client.search_token(&q)).unwrap();
        assert_eq!(client.resolve(&q, &resp).unwrap(), vec![]);
    }

    #[test]
    fn space_vs_read_tradeoff_is_visible() {
        // BIEX-2Lev materializes pair entries; ZMF stores one filter per
        // keyword. On a co-occurrence-heavy index the pair count exceeds
        // the filter count — the paper's "storage impl. complexity" vs
        // space efficiency contrast.
        let mut rng = rand::rngs::StdRng::seed_from_u64(36);
        let idx = index();
        let c1 = Biex2LevClient::new(&SymmetricKey::from_bytes(&[1u8; 32]));
        let s1 = Biex2LevServer::new(KvStore::new(), b"biex:");
        c1.setup(&mut rng, &idx, &s1).unwrap();
        let c2 = BiexZmfClient::new(&SymmetricKey::from_bytes(&[2u8; 32]));
        let s2 = BiexZmfServer::new(KvStore::new(), b"zmf:");
        c2.setup(&mut rng, &idx, &s2).unwrap();
        assert!(s1.pair_count() > s2.filter_count());
    }

    #[test]
    fn tokens_encode_roundtrip() {
        let client = Biex2LevClient::new(&SymmetricKey::from_bytes(&[1u8; 32]));
        let q = BiexQuery::dnf(vec![vec![b"a".to_vec()], vec![b"a".to_vec(), b"b".to_vec(), b"c".to_vec()]]);
        let t = client.search_token(&q);
        assert_eq!(Biex2LevToken::decode(&t.encode()).unwrap(), t);

        let zc = BiexZmfClient::new(&SymmetricKey::from_bytes(&[2u8; 32]));
        let zt = zc.search_token(&q);
        assert_eq!(BiexZmfToken::decode(&zt.encode()).unwrap(), zt);
        assert!(Biex2LevToken::decode(b"junk").is_err());
        assert!(BiexZmfToken::decode(b"junk").is_err());
    }
}
