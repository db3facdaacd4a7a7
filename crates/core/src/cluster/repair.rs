//! Anti-entropy: every live member's Merkle digests compared leaf by leaf
//! against the ring's owners, and what differs either reported
//! ([`ClusterCloud::replica_digests_converged`]) or repaired toward the
//! majority ([`ClusterCloud::run_anti_entropy`]). Also the idempotent
//! `sync/put` envelope every state transfer between members travels in.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::Ordering;
use std::sync::PoisonError;

use super::replica::Reply;
use super::{token16, ClusterCloud, Topology};
use crate::cloudproto::{
    BlobList, DigestRequest, DigestResponse, Idempotent, RangeSelect, SyncEntries, SyncEntry, ENTRY_DOC, ENTRY_INDEX,
    ENTRY_KV, IDEM_ROUTE,
};
use crate::sync::empty_bucket_digest;

/// The outcome of one anti-entropy pass.
#[derive(Debug, Default, Clone, Copy)]
pub struct AntiEntropyRound {
    /// Keys whose replicas disagreed (distinct values, or present/absent).
    pub divergent_keys: u64,
    /// Repair writes issued (one per lagging replica per divergent key).
    pub repairs: u64,
    /// Bytes of key+value shipped in repair writes.
    pub repaired_bytes: u64,
    /// Out-of-place leaves retired from nodes that do not own them.
    pub strays_retired: u64,
}

impl AntiEntropyRound {
    /// Whether the pass found nothing to fix — replicas were already
    /// converged.
    pub fn converged(&self) -> bool {
        self.divergent_keys == 0 && self.strays_retired == 0
    }
}

/// One place where the live members' digests contradict the ring.
enum Divergence {
    /// `members` disagree on the state in `ranges` (or, with `broadcast`,
    /// on the broadcast state every member holds).
    Group { members: Vec<usize>, ranges: Vec<(u64, u64)>, broadcast: bool },
    /// `member` holds state in a leaf it does not own (e.g. left by a
    /// membership change it slept through).
    Stray { member: usize, range: (u64, u64) },
}

/// The dedup/digest identity of a sync entry: `kind ‖ key`.
pub(super) fn entry_key(e: &SyncEntry) -> Vec<u8> {
    let mut k = Vec::with_capacity(1 + e.key.len());
    k.push(e.kind);
    k.extend_from_slice(&e.key);
    k
}

/// `entries` as one idempotent `sync/put` envelope, ready for
/// [`crate::cloudproto::IDEM_ROUTE`]. The token derives from `domain`,
/// `salt` and the entries themselves, so a put torn by a crash and sent
/// again applies exactly once.
pub(super) fn sync_put(domain: &[u8], salt: &[u8], entries: Vec<SyncEntry>) -> Vec<u8> {
    let payload = SyncEntries { entries }.encode();
    Idempotent { token: token16(&[domain, salt, &payload]), route: "sync/put".into(), payload }.encode()
}

/// Majority vote over the replica versions of one key. Present beats
/// absent on ties (an acked write survives a minority of missed deletes),
/// then the lexicographically smallest value wins so repair is
/// deterministic. Index definitions are additive: the union of advertised
/// fields wins.
fn vote_winner(kind: u8, key: &[u8], values: &[Option<&[u8]>]) -> Option<SyncEntry> {
    if kind == ENTRY_INDEX {
        let mut fields: BTreeSet<Vec<u8>> = BTreeSet::new();
        for v in values.iter().flatten() {
            if let Ok(list) = BlobList::decode(v) {
                fields.extend(list.items);
            }
        }
        if fields.is_empty() {
            return None;
        }
        let value = BlobList { items: fields.into_iter().collect() }.encode();
        return Some(SyncEntry { kind, key: key.to_vec(), value });
    }
    let mut counts: BTreeMap<Option<&[u8]>, usize> = BTreeMap::new();
    for v in values {
        *counts.entry(*v).or_default() += 1;
    }
    let (winner, _) = counts
        .iter()
        .max_by(|(va, ca), (vb, cb)| {
            ca.cmp(cb).then(va.is_some().cmp(&vb.is_some())).then_with(|| match (va, vb) {
                (Some(a), Some(b)) => b.cmp(a),
                _ => std::cmp::Ordering::Equal,
            })
        })
        .expect("at least one version");
    winner.map(|v| SyncEntry { kind, key: key.to_vec(), value: v.to_vec() })
}

/// The entry that erases a key on replicas holding a minority leftover
/// (`None` for index definitions, which only ever grow).
fn tombstone(kind: u8, key: &[u8]) -> Option<SyncEntry> {
    match kind {
        ENTRY_DOC => Some(SyncEntry { kind, key: key.to_vec(), value: Vec::new() }),
        ENTRY_KV => Some(SyncEntry { kind, key: key.to_vec(), value: BlobList { items: Vec::new() }.encode() }),
        _ => None,
    }
}

impl ClusterCloud {
    /// One anti-entropy pass: every live member reports its per-leaf
    /// Merkle digests over the ring's vnode boundaries, divergent leaves
    /// and the broadcast pseudo-leaf are diffed pairwise down to keys, and
    /// lagging replicas are repaired through the idempotent `sync/put`
    /// path. Leaves reported non-empty by a non-owner are retired as
    /// strays. Returns what the pass found and fixed.
    pub fn run_anti_entropy(&self) -> AntiEntropyRound {
        let _guard = self.membership.lock().unwrap_or_else(PoisonError::into_inner);
        let topo = self.topo.read().unwrap_or_else(PoisonError::into_inner);
        // Background repair gets its own root trace, detached from any
        // client operation in flight.
        let _root = self.obs.span_root("cluster.antientropy.round");
        let mut round = AntiEntropyRound::default();
        let (digests, _) = self.collect_digests(&topo);
        for divergence in divergences(&topo, &digests) {
            match divergence {
                Divergence::Group { members, ranges, broadcast } => {
                    self.repair_group(&topo, &members, ranges, broadcast, &mut round);
                }
                Divergence::Stray { member, range } => {
                    let sel = RangeSelect { seed: self.cfg.seed, ranges: vec![range], include_broadcast: false };
                    if let Reply::Answered(_) = topo.replica(member).call_background("sync/retire", &sel.encode()) {
                        round.strays_retired += 1;
                    }
                }
            }
        }
        self.ae_rounds.fetch_add(1, Ordering::Relaxed);
        self.obs.count("cluster.antientropy.rounds", 1);
        self.obs.count("cluster.antientropy.divergent_keys", round.divergent_keys);
        self.obs.count("cluster.antientropy.bytes_repaired", round.repaired_bytes);
        round
    }

    /// Whether every live member currently reports byte-identical Merkle
    /// state: owners of each leaf agree on its digest, non-owners report
    /// the empty-bucket digest, and the broadcast pseudo-leaf matches
    /// everywhere.
    pub fn replica_digests_converged(&self) -> bool {
        let _guard = self.membership.lock().unwrap_or_else(PoisonError::into_inner);
        let topo = self.topo.read().unwrap_or_else(PoisonError::into_inner);
        let (digests, every_live_member_answered) = self.collect_digests(&topo);
        every_live_member_answered && divergences(&topo, &digests).is_empty()
    }

    /// Every live member's `sync/digest` over the ring's leaves, by slot,
    /// and whether all of them gave a usable answer.
    fn collect_digests(&self, topo: &Topology) -> (BTreeMap<usize, DigestResponse>, bool) {
        let boundaries = topo.ring.boundaries();
        let leaves = boundaries.len();
        let req = DigestRequest { seed: self.cfg.seed, boundaries }.encode();
        let mut digests = BTreeMap::new();
        let mut complete = true;
        for member in topo.live_members() {
            let digest = match member.call_background("sync/digest", &req) {
                Reply::Answered(resp) => DigestResponse::decode(&resp).ok().filter(|d| d.leaves.len() == leaves),
                _ => None,
            };
            match digest {
                Some(d) => {
                    digests.insert(member.slot(), d);
                }
                None => complete = false,
            }
        }
        (digests, complete)
    }

    /// Diffs one leaf (or the broadcast pseudo-leaf) down to keys across
    /// `group` and repairs every lagging member toward the majority vote.
    fn repair_group(
        &self,
        topo: &Topology,
        group: &[usize],
        ranges: Vec<(u64, u64)>,
        broadcast: bool,
        round: &mut AntiEntropyRound,
    ) {
        let payload = RangeSelect { seed: self.cfg.seed, ranges, include_broadcast: broadcast }.encode();
        let mut responders: Vec<usize> = Vec::new();
        let mut versions: BTreeMap<Vec<u8>, BTreeMap<usize, SyncEntry>> = BTreeMap::new();
        for &m in group {
            let Reply::Answered(resp) = topo.replica(m).call_background("sync/entries", &payload) else { continue };
            let Ok(entries) = SyncEntries::decode(&resp) else { continue };
            responders.push(m);
            for e in entries.entries {
                versions.entry(entry_key(&e)).or_default().insert(m, e);
            }
        }
        if responders.len() < 2 {
            return;
        }
        for holders in versions.into_values() {
            let any = holders.values().next().expect("non-empty holder set");
            let (kind, raw_key) = (any.kind, any.key.clone());
            let values: Vec<Option<&[u8]>> =
                responders.iter().map(|m| holders.get(m).map(|e| e.value.as_slice())).collect();
            let distinct: BTreeSet<&Option<&[u8]>> = values.iter().collect();
            if distinct.len() <= 1 {
                continue;
            }
            round.divergent_keys += 1;
            let winner = vote_winner(kind, &raw_key, &values);
            let target = winner.as_ref().map(|e| e.value.as_slice());
            let lagging: Vec<usize> =
                responders.iter().zip(&values).filter(|(_, held)| **held != target).map(|(&m, _)| m).collect();
            let Some(entry) = winner.or_else(|| tombstone(kind, &raw_key)) else { continue };
            let shipped = (raw_key.len() + entry.value.len()) as u64;
            let put = sync_put(b"anti-entropy", &[], vec![entry]);
            for m in lagging {
                // A failed repair is retried by the next pass.
                if let Reply::Answered(_) = topo.replica(m).call_background(IDEM_ROUTE, &put) {
                    round.repairs += 1;
                    round.repaired_bytes += shipped;
                }
            }
        }
    }
}

/// Walks the broadcast pseudo-leaf and then every ring leaf, comparing the
/// digests its owners reported and flagging non-owners that reported
/// anything but the empty bucket.
fn divergences(topo: &Topology, digests: &BTreeMap<usize, DigestResponse>) -> Vec<Divergence> {
    let mut found = Vec::new();
    // Broadcast state lives on every member: one pseudo-leaf covers it.
    let bcast: BTreeSet<&[u8; 32]> = digests.values().map(|d| &d.broadcast).collect();
    if bcast.len() > 1 {
        found.push(Divergence::Group {
            members: digests.keys().copied().collect(),
            ranges: Vec::new(),
            broadcast: true,
        });
    }
    let empty = empty_bucket_digest();
    for j in 0..topo.ring.vnodes() {
        let owners = topo.ring.leaf_owners(j);
        let range = topo.ring.leaf_range(j);
        let present: Vec<usize> = owners.iter().copied().filter(|o| digests.contains_key(o)).collect();
        let leaf: BTreeSet<&[u8; 32]> = present.iter().map(|o| &digests[o].leaves[j]).collect();
        if leaf.len() > 1 {
            found.push(Divergence::Group { members: present, ranges: vec![range], broadcast: false });
        }
        for (&member, d) in digests {
            if !owners.contains(&member) && d.leaves[j] != empty {
                found.push(Divergence::Stray { member, range });
            }
        }
    }
    found
}

#[cfg(test)]
mod tests {
    use super::super::tests::insert_payload;
    use super::super::ClusterConfig;
    use super::*;
    use datablinder_netsim::CloudService;
    use datablinder_sse::DocId;

    #[test]
    fn anti_entropy_heals_a_tampered_replica_without_reads() {
        let cluster = ClusterCloud::new(ClusterConfig::volatile(3, 2, 2, 31)).unwrap();
        for i in 1..=8u8 {
            cluster.handle("doc/insert", &insert_payload("notes", i)).unwrap();
        }
        let id = DocId([5; 16]).to_hex();
        let replicas = cluster.doc_replicas("notes", &id);
        // Tamper before any digest request so the digest cache never saw
        // the pre-tamper state (behind-the-back writes bypass its
        // invalidation hooks by construction).
        cluster.with_node_engine(replicas[0], |e| e.docs().collection("notes").delete(&id).unwrap()).unwrap();
        assert!(!cluster.replica_digests_converged(), "tampering must show up in the digests");
        let round = cluster.run_anti_entropy();
        assert!(round.divergent_keys >= 1, "the tampered key is divergent: {round:?}");
        assert!(round.repairs >= 1, "the lagging replica got repaired: {round:?}");
        let mut rounds = 0;
        while !cluster.run_anti_entropy().converged() {
            rounds += 1;
            assert!(rounds < 8, "anti-entropy must converge");
        }
        assert!(cluster.replica_digests_converged());
        let healed =
            cluster.with_node_engine(replicas[0], |e| e.docs().collection("notes").get(&id).is_some()).unwrap();
        assert!(healed, "anti-entropy restored the majority value");
        assert_eq!(cluster.read_repairs(), 0, "no read repair was involved");
    }
}
