//! Replica-state enumeration and digesting for cluster synchronization.
//!
//! Three cluster mechanisms need the same primitive — "give me the slice of
//! a node's state that routes into these hash ranges, in a canonical
//! encoding": rejoin resync (a rejoining node pulls the ranges it owns),
//! membership key handoff (a new owner pulls exactly the ranges
//! it gained) and anti-entropy (replicas compare per-leaf digests and
//! repair the keys that diverge). This module owns that primitive:
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
//!   hashes each bucket. A node computes them from its stores at each
//!   `sync/digest` request: nothing is cached, so a digest sees every
//!   change to the stores, whichever path made it.
//!
//! The hash ring primitives (`mix64`, `hash_bytes`, leaf intervals) live
//! here too so the ring, the exports and the digests can never disagree on
//! what "the hash of a key" means.

use datablinder_codec::Writer;
use datablinder_docstore::DocStore;
use datablinder_kvstore::KvStore;
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
}

impl Selector<'_> {
    fn keep(&self, seed: u64, domain: &Domain) -> bool {
        match self {
            Selector::All => true,
            Selector::Ranges { ranges, include_broadcast } => match domain {
                Domain::Broadcast => *include_broadcast,
                Domain::Scoped(key) => in_any_range(hash_bytes(seed, key), ranges),
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
/// [`LogRecord`](datablinder_kvstore::LogRecord) bodies that rebuild the
/// slot from empty (a [`BlobList`]), which canonicalizes
/// hashes/sets/counters the same way the snapshot format does; index
/// entries carry the collection's sorted indexed-field names and are only
/// emitted when non-empty (a bare collection with no indexes is not a
/// divergence).
pub(crate) fn export_entries(
    kv: &KvStore,
    docs: &DocStore,
    seed: u64,
    selector: &Selector<'_>,
) -> Vec<(SyncEntry, Domain)> {
    let mut out = Vec::new();
    // KV slots: each key's records, as one list.
    kv.export(|slots| {
        let mut scratch = Vec::new();
        for slot in slots {
            let domain = kv_domain(slot.key());
            if selector.keep(seed, &domain) {
                let mut items = Vec::with_capacity(slot.records());
                let Ok(()) = slot.bodies(&mut scratch, |body| {
                    items.push(body.to_vec());
                    Ok::<_, std::convert::Infallible>(())
                });
                let value = BlobList { items }.encode();
                out.push((SyncEntry { kind: ENTRY_KV, key: slot.key().to_vec(), value }, domain));
            }
        }
    });
    // Documents + per-collection index definitions, borrowed in id order.
    let mut names = docs.collection_names();
    names.sort();
    for name in names {
        docs.collection(&name).in_id_order(|fields, stored| {
            if !fields.is_empty() && selector.keep(seed, &Domain::Broadcast) {
                let value = BlobList { items: fields.iter().map(|f| f.as_bytes().to_vec()).collect() }.encode();
                out.push((SyncEntry { kind: ENTRY_INDEX, key: name.clone().into_bytes(), value }, Domain::Broadcast));
            }
            for doc in stored {
                let key = doc_key(&name, doc.id().as_bytes());
                let domain = Domain::Scoped(key.clone());
                if selector.keep(seed, &domain) {
                    out.push((SyncEntry { kind: ENTRY_DOC, key, value: crate::wire::encode_document(doc) }, domain));
                }
            }
        });
    }
    out.sort_by(|(a, _), (b, _)| (a.kind, &a.key).cmp(&(b.kind, &b.key)));
    out
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
    }
}
