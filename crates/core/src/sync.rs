//! Replica-state enumeration and digesting for cluster synchronization.
//!
//! Three cluster mechanisms need the same primitive — "give me the slice of
//! a node's state that routes into these hash ranges, in a canonical
//! encoding": rejoin resync (a rejoining node pulls the ranges it owns),
//! membership key handoff (a new owner pulls exactly the ranges
//! it gained) and Merkle anti-entropy (replicas compare per-leaf digests
//! and repair the keys that diverge). This module owns that primitive:
//!
//! * [`Domain`] classifies every piece of cloud state as *broadcast*
//!   (replicated everywhere: tactic public keys, BIEX base builds, index
//!   definitions, schema metadata) or *scoped* to a routing key (documents,
//!   per-scope tactic state) — mirroring exactly how
//!   [`cluster`](crate::cluster) routes writes, so ownership of stored
//!   state and ownership of the writes that created it always agree;
//! * [`export_entries`] walks a node's KV store + doc store once and emits
//!   canonical [`SyncEntry`]s for a [`Selector`];
//! * [`leaf_digests`] buckets those entries into ring-leaf intervals and
//!   hashes each bucket; [`MerkleTree`] folds leaf digests to a root and
//!   diffs two trees by descending only differing subtrees.
//!
//! The hash ring primitives (`mix64`, `hash_bytes`, leaf intervals) live
//! here too so the ring, the exports and the digests can never disagree on
//! what "the hash of a key" means.

use datablinder_codec::Writer;
use datablinder_docstore::DocStore;
use datablinder_kvstore::{KvStore, LogRecord};
use datablinder_primitives::sha256::Sha256;

use crate::cloudproto::{BlobList, RangeSelect, SyncEntry, ENTRY_DOC, ENTRY_INDEX, ENTRY_KV};

/// Finalizer from SplitMix64: bijective, well-mixed 64→64 bit hash.
pub(crate) fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Seeded FNV-1a over `bytes`, finished with [`mix64`] — the cluster's one
/// routing hash. Deterministic across runs and platforms.
pub(crate) fn hash_bytes(seed: u64, bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ seed;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    mix64(h)
}

/// The doc-routing key for `(collection, id)`: collection ‖ 0x00 ‖ id.
/// Doubles as the [`ENTRY_DOC`] entry key, so a doc's sync identity and its
/// ring placement are the same bytes by construction.
pub(crate) fn doc_key(collection: &str, id: &[u8]) -> Vec<u8> {
    let mut key = Vec::with_capacity(collection.len() + 1 + id.len());
    key.extend_from_slice(collection.as_bytes());
    key.push(0);
    key.extend_from_slice(id);
    key
}

/// Which replicas must hold a piece of state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Domain {
    /// Every node replicates it (setup keys, base builds, index defs).
    Broadcast,
    /// Owned by the ring replicas of this routing key.
    Scoped(Vec<u8>),
}

/// Classifies a KV key into its replication domain, mirroring
/// [`cluster`](crate::cluster)'s write routing: tactic scope state lives
/// under `t/<name>/<scope>/…` and routes by `tactic/<name>/<scope>` (the
/// same routing key scoped tactic *writes* use); `…/__pk__` public keys and
/// `…/b/…` BIEX base builds are written via broadcast routes (`setup`,
/// `kv/bulk_put`) and so replicate everywhere, as does everything outside
/// `t/` (schema metadata, misc engine state).
pub(crate) fn kv_domain(key: &[u8]) -> Domain {
    let Some(rest) = key.strip_prefix(b"t/") else {
        return Domain::Broadcast;
    };
    let Some(name_end) = rest.iter().position(|&b| b == b'/') else {
        return Domain::Broadcast;
    };
    let name = &rest[..name_end];
    let after = &rest[name_end + 1..];
    let scope = match after.iter().position(|&b| b == b'/') {
        // `t/ore/<scope>` — the whole remainder is the scope (one hash slot).
        None => after,
        Some(scope_end) => {
            let suffix = &after[scope_end + 1..];
            if suffix == b"__pk__" || suffix.starts_with(b"b/") {
                return Domain::Broadcast;
            }
            &after[..scope_end]
        }
    };
    let mut routing = Vec::with_capacity(7 + name.len() + 1 + scope.len());
    routing.extend_from_slice(b"tactic/");
    routing.extend_from_slice(name);
    routing.push(b'/');
    routing.extend_from_slice(scope);
    Domain::Scoped(routing)
}

/// Whether hash `h` falls in the half-open ring interval `(lo, hi]`,
/// wrapping through `u64::MAX` when `lo >= hi` (a single-point ring owns
/// the whole circle).
pub(crate) fn in_range(h: u64, (lo, hi): (u64, u64)) -> bool {
    if lo < hi {
        h > lo && h <= hi
    } else {
        h > lo || h <= hi
    }
}

/// Whether `h` falls in any of `ranges`.
pub(crate) fn in_any_range(h: u64, ranges: &[(u64, u64)]) -> bool {
    ranges.iter().any(|&r| in_range(h, r))
}

/// Whether document `id` of `collection` routes into one of `select`'s
/// ranges — the document filter of a ranged aggregate.
pub(crate) fn selects_doc(select: &RangeSelect, collection: &str, id: &str) -> bool {
    in_any_range(hash_bytes(select.seed, &doc_key(collection, id.as_bytes())), &select.ranges)
}

/// The ring leaf (shard) index owning hash `h` under the sorted vnode
/// `boundaries`: leaf `j` covers `(boundaries[j-1], boundaries[j]]`, leaf 0
/// wraps. Matches the ring's `partition_point` successor walk exactly.
pub(crate) fn leaf_of(h: u64, boundaries: &[u64]) -> usize {
    debug_assert!(!boundaries.is_empty());
    boundaries.partition_point(|&b| b < h) % boundaries.len()
}

/// Which slice of a node's state an export should emit.
pub(crate) enum Selector<'a> {
    /// Everything (digest computation).
    All,
    /// State whose routing hash falls in one of the ring ranges, plus the
    /// broadcast domain when asked (resync pulls, handoff pulls).
    Ranges {
        /// `(lo, hi]` hash intervals, wrapping when `lo >= hi`.
        ranges: &'a [(u64, u64)],
        /// Include broadcast-domain state.
        include_broadcast: bool,
    },
    /// Only state landing in dirty ring leaves (incremental digest
    /// recomputation: clean leaves skip value encoding entirely).
    DirtyLeaves {
        /// Sorted vnode hash points defining the leaves.
        boundaries: &'a [u64],
        /// Per-leaf dirty flags, index-aligned with `boundaries`.
        dirty: &'a [bool],
        /// Re-export the broadcast domain too.
        include_broadcast: bool,
    },
}

impl Selector<'_> {
    fn keep(&self, seed: u64, domain: &Domain) -> bool {
        match self {
            Selector::All => true,
            Selector::Ranges { ranges, include_broadcast } => match domain {
                Domain::Broadcast => *include_broadcast,
                Domain::Scoped(key) => in_any_range(hash_bytes(seed, key), ranges),
            },
            Selector::DirtyLeaves { boundaries, dirty, include_broadcast } => match domain {
                Domain::Broadcast => *include_broadcast,
                Domain::Scoped(key) => dirty[leaf_of(hash_bytes(seed, key), boundaries)],
            },
        }
    }
}

/// Walks the node's stores once and emits the selected state as canonical
/// `(entry, domain)` pairs, sorted by `(kind, key)` — equal state always
/// exports byte-identical entry streams, which is what makes digests
/// comparable across replicas.
///
/// Encodings: docs carry their full encoded document; KV keys carry the
/// [`LogRecord`] bodies that rebuild the slot from empty (a [`BlobList`]),
/// which canonicalizes hashes/sets/counters the same way the snapshot
/// format does; index entries carry the collection's sorted indexed-field
/// names and are only emitted when non-empty (a bare collection with no
/// indexes is not a divergence).
pub(crate) fn export_entries(
    kv: &KvStore,
    docs: &DocStore,
    seed: u64,
    selector: &Selector<'_>,
) -> Vec<(SyncEntry, Domain)> {
    let mut out = Vec::new();
    // KV slots: group the sorted export stream into per-key record lists.
    let records = kv.export_records();
    let mut i = 0;
    while i < records.len() {
        let key = record_key(&records[i]).to_vec();
        let mut items = Vec::new();
        while i < records.len() && record_key(&records[i]) == key.as_slice() {
            items.push(records[i].to_bytes());
            i += 1;
        }
        let domain = kv_domain(&key);
        if selector.keep(seed, &domain) {
            let value = BlobList { items }.encode();
            out.push((SyncEntry { kind: ENTRY_KV, key, value }, domain));
        }
    }
    // Documents + per-collection index definitions.
    let mut names = docs.collection_names();
    names.sort();
    for name in names {
        let coll = docs.collection(&name);
        let mut fields = coll.indexed_fields();
        fields.sort();
        if !fields.is_empty() && selector.keep(seed, &Domain::Broadcast) {
            let value = BlobList { items: fields.into_iter().map(String::into_bytes).collect() }.encode();
            out.push((SyncEntry { kind: ENTRY_INDEX, key: name.clone().into_bytes(), value }, Domain::Broadcast));
        }
        let mut ids = coll.ids();
        ids.sort();
        for id in ids {
            let key = doc_key(&name, id.as_bytes());
            let domain = Domain::Scoped(key.clone());
            if !selector.keep(seed, &domain) {
                continue;
            }
            let Some(doc) = coll.get(&id) else { continue };
            out.push((SyncEntry { kind: ENTRY_DOC, key, value: crate::wire::encode_document(&doc) }, domain));
        }
    }
    out.sort_by(|(a, _), (b, _)| (a.kind, &a.key).cmp(&(b.kind, &b.key)));
    out
}

fn record_key(rec: &LogRecord) -> &[u8] {
    match rec {
        LogRecord::Set { key, .. }
        | LogRecord::Del { key }
        | LogRecord::HSet { key, .. }
        | LogRecord::HDel { key, .. }
        | LogRecord::SAdd { key, .. }
        | LogRecord::SRem { key, .. }
        | LogRecord::Incr { key, .. } => key,
    }
}

/// Digest of one entry bucket: SHA-256 over the canonical entry encodings
/// in `(kind, key)` order. The empty bucket hashes to a fixed value, equal
/// on every node.
fn bucket_digest(entries: &[&SyncEntry]) -> [u8; 32] {
    let mut h = Sha256::new();
    let mut buf = Vec::new();
    for e in entries {
        buf.clear();
        let mut w = Writer::from(buf);
        e.encode_into(&mut w);
        buf = w.finish();
        h.update(&buf);
    }
    h.finalize()
}

/// Digest of an empty entry bucket — what a replica must report for every
/// leaf it does not own (anti-entropy flags anything else as stray state).
pub(crate) fn empty_bucket_digest() -> [u8; 32] {
    bucket_digest(&[])
}

/// Buckets an [`export_entries`]`(…, Selector::All)` stream into ring
/// leaves and digests each bucket, plus the broadcast-domain bucket.
/// Returns `(per-leaf digests, broadcast digest)`, index-aligned with
/// `boundaries`.
pub(crate) fn leaf_digests(
    entries: &[(SyncEntry, Domain)],
    seed: u64,
    boundaries: &[u64],
) -> (Vec<[u8; 32]>, [u8; 32]) {
    let mut leaves: Vec<Vec<&SyncEntry>> = vec![Vec::new(); boundaries.len().max(1)];
    let mut broadcast: Vec<&SyncEntry> = Vec::new();
    for (entry, domain) in entries {
        match domain {
            Domain::Broadcast => broadcast.push(entry),
            Domain::Scoped(key) => {
                if boundaries.is_empty() {
                    leaves[0].push(entry);
                } else {
                    leaves[leaf_of(hash_bytes(seed, key), boundaries)].push(entry);
                }
            }
        }
    }
    (leaves.iter().map(|b| bucket_digest(b)).collect(), bucket_digest(&broadcast))
}

/// What a mutation touched, for dirty-tracking the digest cache. Produced
/// by the engine's write paths; granularity mirrors the write-route
/// classification, so every journaled mutation maps to a scope.
#[derive(Debug, Clone)]
pub(crate) enum MutationScope {
    /// Conservative: invalidate everything (prefix deletes, retires).
    All,
    /// Broadcast-domain state changed (setups, index defs, base builds).
    Broadcast,
    /// State with this *routing key* changed (doc key, tactic scope key).
    Routing(Vec<u8>),
    /// The KV slot at this key changed; its domain is derived.
    KvKey(Vec<u8>),
}

/// Per-engine incremental digest state: leaf digests under one ring layout
/// plus dirty bits set by [`DigestCache::note`] on every mutation. A
/// digest request re-hashes only dirty leaves; a layout change (different
/// seed or boundaries, i.e. a membership change) rebuilds from scratch.
#[derive(Debug)]
pub(crate) struct DigestCache {
    seed: u64,
    boundaries: Vec<u64>,
    leaves: Vec<[u8; 32]>,
    broadcast: [u8; 32],
    dirty: Vec<bool>,
    broadcast_dirty: bool,
}

/// How much work one digest request did (for obs counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DigestWork {
    /// Everything clean: answered from cache.
    Cached,
    /// Re-hashed only the dirty leaves.
    Partial(u64),
    /// Cold or relaid-out: full rebuild.
    Full,
}

impl DigestCache {
    /// Marks the leaves a mutation touched as dirty. A `None` slot (no
    /// digest requested yet) has nothing to invalidate.
    pub(crate) fn note(slot: &mut Option<DigestCache>, scope: &MutationScope) {
        let Some(c) = slot else { return };
        match scope {
            MutationScope::All => {
                c.dirty.iter_mut().for_each(|d| *d = true);
                c.broadcast_dirty = true;
            }
            MutationScope::Broadcast => c.broadcast_dirty = true,
            MutationScope::Routing(key) => {
                let j = leaf_of(hash_bytes(c.seed, key), &c.boundaries);
                c.dirty[j] = true;
            }
            MutationScope::KvKey(key) => match kv_domain(key) {
                Domain::Broadcast => c.broadcast_dirty = true,
                Domain::Scoped(routing) => {
                    let j = leaf_of(hash_bytes(c.seed, &routing), &c.boundaries);
                    c.dirty[j] = true;
                }
            },
        }
    }

    /// Answers a digest request from the cache, re-hashing only what's
    /// dirty (or rebuilding on a layout change), and returns the response
    /// plus how much work it took.
    pub(crate) fn respond(
        slot: &mut Option<DigestCache>,
        kv: &KvStore,
        docs: &DocStore,
        seed: u64,
        boundaries: &[u64],
    ) -> (crate::cloudproto::DigestResponse, DigestWork) {
        let work = match slot {
            Some(c) if c.seed == seed && c.boundaries == boundaries => {
                let dirty_count = c.dirty.iter().filter(|&&d| d).count() as u64;
                if dirty_count == 0 && !c.broadcast_dirty {
                    DigestWork::Cached
                } else {
                    let sel =
                        Selector::DirtyLeaves { boundaries, dirty: &c.dirty, include_broadcast: c.broadcast_dirty };
                    let entries = export_entries(kv, docs, seed, &sel);
                    let (leaves, broadcast) = leaf_digests(&entries, seed, boundaries);
                    for (j, leaf) in leaves.iter().enumerate().take(c.dirty.len()) {
                        if c.dirty[j] {
                            c.leaves[j] = *leaf;
                            c.dirty[j] = false;
                        }
                    }
                    if c.broadcast_dirty {
                        c.broadcast = broadcast;
                        c.broadcast_dirty = false;
                    }
                    DigestWork::Partial(dirty_count)
                }
            }
            _ => {
                let entries = export_entries(kv, docs, seed, &Selector::All);
                let (leaves, broadcast) = leaf_digests(&entries, seed, boundaries);
                *slot = Some(DigestCache {
                    seed,
                    boundaries: boundaries.to_vec(),
                    dirty: vec![false; leaves.len()],
                    broadcast_dirty: false,
                    leaves,
                    broadcast,
                });
                DigestWork::Full
            }
        };
        let c = slot.as_ref().expect("cache populated");
        let resp = crate::cloudproto::DigestResponse {
            leaves: c.leaves.clone(),
            broadcast: c.broadcast,
            root: MerkleTree::build(&c.leaves).root(),
        };
        (resp, work)
    }
}

/// A binary Merkle tree over leaf digests. Parents hash their two children
/// (an odd node at the end of a level is promoted unchanged); `diff`
/// descends only subtrees whose hashes differ, so two almost-equal replicas
/// compare in O(log n) node visits per divergent leaf.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MerkleTree {
    /// `levels[0]` = leaves, last level = root (singleton).
    levels: Vec<Vec<[u8; 32]>>,
}

impl MerkleTree {
    /// Builds the tree bottom-up from leaf digests.
    pub fn build(leaves: &[[u8; 32]]) -> Self {
        let mut levels = vec![leaves.to_vec()];
        while levels.last().expect("nonempty").len() > 1 {
            let below = levels.last().expect("nonempty");
            let mut level = Vec::with_capacity(below.len().div_ceil(2));
            for pair in below.chunks(2) {
                match pair {
                    [a, b] => {
                        let mut h = Sha256::new();
                        h.update(a);
                        h.update(b);
                        level.push(h.finalize());
                    }
                    [a] => level.push(*a),
                    _ => unreachable!("chunks(2)"),
                }
            }
            levels.push(level);
        }
        MerkleTree { levels }
    }

    /// The root digest (zero for an empty tree).
    pub fn root(&self) -> [u8; 32] {
        self.levels.last().and_then(|l| l.first()).copied().unwrap_or([0; 32])
    }

    /// Leaf indices at which the two trees differ, found by descending
    /// only differing subtrees. Trees must cover the same leaf count.
    pub fn diff(&self, other: &MerkleTree) -> Vec<usize> {
        let leaves = self.levels.first().map_or(0, Vec::len);
        assert_eq!(leaves, other.levels.first().map_or(0, Vec::len), "tree shape mismatch");
        let mut out = Vec::new();
        if leaves == 0 {
            return out;
        }
        // (level, index) pairs, level counted from the top.
        let top = self.levels.len() - 1;
        let mut stack = vec![(top, 0usize)];
        while let Some((level, idx)) = stack.pop() {
            if self.levels[level][idx] == other.levels[level][idx] {
                continue;
            }
            if level == 0 {
                out.push(idx);
                continue;
            }
            let below = self.levels[level - 1].len();
            let left = idx * 2;
            if left < below {
                stack.push((level - 1, left));
            }
            if left + 1 < below {
                stack.push((level - 1, left + 1));
            }
        }
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use datablinder_docstore::Document;

    use super::*;

    #[test]
    fn kv_domains_mirror_write_routing() {
        // Scoped: per-scope tactic state routes like its writes.
        for (key, routing) in [
            (&b"t/mitra/notes:owner/w/3"[..], &b"tactic/mitra/notes:owner"[..]),
            (b"t/sophos/notes:owner/idx/xyz", b"tactic/sophos/notes:owner"),
            (b"t/ore/notes:eff", b"tactic/ore/notes:eff"),
            (b"t/biex-2lev/notes:flags/x/1", b"tactic/biex-2lev/notes:flags"),
        ] {
            assert_eq!(kv_domain(key), Domain::Scoped(routing.to_vec()), "{}", String::from_utf8_lossy(key));
        }
        // Broadcast: setup keys, base builds, non-tactic state.
        for key in
            [&b"t/sophos/notes:owner/__pk__"[..], b"t/biex-zmf/notes:flags/b/esk", b"meta/schema/notes", b"t/weird"]
        {
            assert_eq!(kv_domain(key), Domain::Broadcast, "{}", String::from_utf8_lossy(key));
        }
    }

    #[test]
    fn ranges_wrap_and_leaves_partition() {
        assert!(in_range(5, (3, 9)));
        assert!(!in_range(3, (3, 9)), "lo is exclusive");
        assert!(in_range(9, (3, 9)), "hi is inclusive");
        assert!(in_range(u64::MAX, (100, 5)), "wrapping range");
        assert!(in_range(2, (100, 5)));
        assert!(!in_range(50, (100, 5)));
        assert!(in_range(7, (42, 42)), "single-point ring owns everything");

        let boundaries = [100u64, 200, 300];
        assert_eq!(leaf_of(150, &boundaries), 1);
        assert_eq!(leaf_of(200, &boundaries), 1, "hi inclusive");
        assert_eq!(leaf_of(201, &boundaries), 2);
        assert_eq!(leaf_of(350, &boundaries), 0, "wraps to leaf 0");
        assert_eq!(leaf_of(50, &boundaries), 0);
        // Every hash lands in exactly the leaf whose range contains it.
        for h in [0u64, 100, 101, 250, 299, 300, 301, u64::MAX] {
            let j = leaf_of(h, &boundaries);
            let lo = boundaries[(j + boundaries.len() - 1) % boundaries.len()];
            assert!(in_range(h, (lo, boundaries[j])), "h={h} leaf={j}");
        }
    }

    #[test]
    fn export_is_canonical_and_selective() {
        let kv = KvStore::new();
        let docs = DocStore::new();
        kv.set(b"t/sophos/n:o/__pk__", b"pk");
        kv.hset(b"t/ore/n:e", b"f1", b"v1").unwrap();
        kv.hset(b"t/ore/n:e", b"f0", b"v0").unwrap();
        let coll = docs.collection("notes");
        coll.create_index("owner__det");
        coll.insert(Document::new("aa").with("x", datablinder_docstore::Value::from(1i64))).unwrap();

        let seed = 42;
        let all = export_entries(&kv, &docs, seed, &Selector::All);
        assert_eq!(all.len(), 4, "pk + ore hash + index def + doc");
        // Deterministic: same state, same bytes.
        let again = export_entries(&kv, &docs, seed, &Selector::All);
        assert_eq!(all, again);
        // Hash fields are canonicalized (sorted) regardless of insert order.
        let kv2 = KvStore::new();
        kv2.hset(b"t/ore/n:e", b"f0", b"v0").unwrap();
        kv2.hset(b"t/ore/n:e", b"f1", b"v1").unwrap();
        kv2.set(b"t/sophos/n:o/__pk__", b"pk");
        let all2 = export_entries(&kv2, &docs, seed, &Selector::All);
        assert_eq!(all, all2);

        // Range selection: only the ore scope's hash range, no broadcast.
        let h = hash_bytes(seed, b"tactic/ore/n:e");
        let sel = [(h.wrapping_sub(1), h)];
        let hits = export_entries(&kv, &docs, seed, &Selector::Ranges { ranges: &sel, include_broadcast: false });
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0.key, b"t/ore/n:e");
        // Broadcast flag pulls in pk + index definition.
        let hits = export_entries(&kv, &docs, seed, &Selector::Ranges { ranges: &sel, include_broadcast: true });
        assert_eq!(hits.len(), 3);
    }

    #[test]
    fn digest_cache_incremental_matches_full_rebuild() {
        let seed = 11;
        let boundaries: Vec<u64> = (1..=16).map(|i| i * (u64::MAX / 16)).collect();
        let kv = KvStore::new();
        let docs = DocStore::new();
        for i in 0..20 {
            docs.collection("c").insert(Document::new(format!("{i:02x}"))).unwrap();
        }
        kv.set(b"t/sophos/n:o/__pk__", b"pk");

        let mut slot = None;
        let (r1, w1) = DigestCache::respond(&mut slot, &kv, &docs, seed, &boundaries);
        assert_eq!(w1, DigestWork::Full);
        let (r2, w2) = DigestCache::respond(&mut slot, &kv, &docs, seed, &boundaries);
        assert_eq!(w2, DigestWork::Cached);
        assert_eq!(r1, r2);

        // Mutate one doc + the broadcast domain; only those re-hash, and the
        // result matches a from-scratch rebuild.
        docs.collection("c").delete("07").unwrap();
        DigestCache::note(&mut slot, &MutationScope::Routing(doc_key("c", b"07")));
        kv.set(b"t/sophos/n:o/__pk__", b"pk2");
        DigestCache::note(&mut slot, &MutationScope::KvKey(b"t/sophos/n:o/__pk__".to_vec()));
        let (r3, w3) = DigestCache::respond(&mut slot, &kv, &docs, seed, &boundaries);
        assert_eq!(w3, DigestWork::Partial(1));
        let mut fresh = None;
        let (r4, _) = DigestCache::respond(&mut fresh, &kv, &docs, seed, &boundaries);
        assert_eq!(r3, r4, "incremental digest equals full rebuild");
        assert_ne!(r2, r3);

        // A layout change (membership change) rebuilds.
        let wider: Vec<u64> = (1..=8).map(|i| i * (u64::MAX / 8)).collect();
        let (_, w5) = DigestCache::respond(&mut slot, &kv, &docs, seed, &wider);
        assert_eq!(w5, DigestWork::Full);
    }

    #[test]
    fn merkle_diff_finds_exactly_the_divergent_leaves() {
        let mut a: Vec<[u8; 32]> = (0..13u8).map(|i| [i; 32]).collect();
        let t1 = MerkleTree::build(&a);
        assert_eq!(t1.diff(&t1), Vec::<usize>::new());
        a[3] = [99; 32];
        a[12] = [98; 32];
        let t2 = MerkleTree::build(&a);
        assert_ne!(t1.root(), t2.root());
        assert_eq!(t1.diff(&t2), vec![3, 12]);
        assert_eq!(MerkleTree::build(&[]).root(), [0; 32]);
        assert_eq!(MerkleTree::build(&[]).diff(&MerkleTree::build(&[])), Vec::<usize>::new());
    }

    #[test]
    fn leaf_digests_localize_differences() {
        let seed = 7;
        let kv = KvStore::new();
        let docs = DocStore::new();
        for i in 0..32 {
            docs.collection("c").insert(Document::new(format!("{i:02x}"))).unwrap();
        }
        let boundaries: Vec<u64> = (1..=8).map(|i| i * (u64::MAX / 8)).collect();
        let all = export_entries(&kv, &docs, seed, &Selector::All);
        let (leaves, bcast) = leaf_digests(&all, seed, &boundaries);

        // A second identical store digests identically.
        let docs2 = DocStore::new();
        for i in 0..32 {
            docs2.collection("c").insert(Document::new(format!("{i:02x}"))).unwrap();
        }
        let all2 = export_entries(&kv, &docs2, seed, &Selector::All);
        let (leaves2, bcast2) = leaf_digests(&all2, seed, &boundaries);
        assert_eq!(leaves, leaves2);
        assert_eq!(bcast, bcast2);

        // Deleting one doc flips exactly that doc's leaf.
        docs2.collection("c").delete("05").unwrap();
        let all3 = export_entries(&kv, &docs2, seed, &Selector::All);
        let (leaves3, _) = leaf_digests(&all3, seed, &boundaries);
        let changed: Vec<usize> = (0..leaves.len()).filter(|&j| leaves[j] != leaves3[j]).collect();
        let expect = leaf_of(hash_bytes(seed, &doc_key("c", b"05")), &boundaries);
        assert_eq!(changed, vec![expect]);
        assert_eq!(MerkleTree::build(&leaves).diff(&MerkleTree::build(&leaves3)), vec![expect]);
    }
}
