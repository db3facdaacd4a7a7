//! Membership transitions — kill, rejoin, add, remove — and the state
//! transfers that make them safe: a rejoining durable node streams its
//! peers' snapshots and WAL tails, a joining or inheriting node pulls the
//! hash ranges it gains. Every public entry point takes the membership lock;
//! add/remove also write-hold the topology for the handoff window.

use std::collections::HashSet;
use std::sync::atomic::Ordering;

use datablinder_codec::crc32;
use datablinder_docstore::DocStore;
use datablinder_kvstore::KvStore;
use datablinder_netsim::NetError;

use super::repair::{entry_key, sync_put};
use super::replica::{LocalNode, Replica};
use super::ring::{gained_ranges, lost_ranges, Ring};
use super::write::targets_node;
use super::{token16, ClusterCloud, Topology};
use crate::cloudproto::{
    BlobList, ChunkRequest, ChunkResponse, RangeSelect, SyncEntries, SyncEntry, TransferBegin, TransferInfo,
    WalTailRequest, IDEM_ROUTE,
};
use crate::durability::{apply_snapshot, WalRecord};
use crate::error::CoreError;
use crate::sync::{export_entries, Selector};

/// Snapshot stream chunk size: small enough that a mid-stream crash point
/// exercises the resumable framing, large enough to amortize per-call cost.
const SYNC_CHUNK_LEN: u32 = 16 * 1024;

/// Entries per idempotent `sync/put` envelope during a fill.
const SYNC_PUT_BATCH: usize = 32;

/// Why a state pull from one peer failed.
enum PullFailure {
    /// The peer went away or served a corrupt stream; other peers may still
    /// cover the same ranges.
    Peer,
    /// The pulling node itself failed to apply state; the whole resync
    /// aborts and the node stays down.
    Local(CoreError),
}

impl ClusterCloud {
    /// Marks node `idx` down and drops its engine (disk state stays).
    pub fn kill_node(&self, idx: usize) {
        let _guard = self.membership.lock();
        if let Some(replica) = self.topo.read().replicas.get(idx) {
            replica.kill();
        }
    }

    /// Restarts node `idx` from its own disk, resyncs it from live peers
    /// (snapshot stream + WAL tail) and marks it serving. Returns the
    /// number of replayed tail records; a member that is already serving is
    /// left alone (`Ok(0)`).
    ///
    /// # Errors
    ///
    /// Recovery/I-O failures, [`CoreError::UnsupportedOperation`] for a
    /// slot that is not a member, or [`CoreError::Storage`] when the node
    /// dies again mid-resync (it stays down; a later rejoin retries).
    pub fn rejoin_node(&self, idx: usize) -> Result<u64, CoreError> {
        let _guard = self.membership.lock();
        let topo = self.topo.read();
        if !topo.members.contains(&idx) {
            return Err(CoreError::UnsupportedOperation(format!("node {idx} is not a cluster member")));
        }
        let replica = topo.replica(idx);
        if replica.is_alive() {
            if !replica.node().crashed() {
                // Reopening would run WAL recovery (tail truncation
                // included) over a directory the running engine appends to.
                return Ok(0);
            }
            // Dead already, only nobody has called it since to notice.
            replica.kill();
        }
        let crash = self.rejoin_crash.lock().remove(&idx);
        replica.node().restart(&self.cfg, crash)?;
        match self.resync(&topo, idx) {
            Ok((filled, replayed)) => {
                replica.serve();
                replica.skip_breaker_cooldown();
                self.rejoins.fetch_add(1, Ordering::Relaxed);
                self.obs.count("cluster.rejoin", 1);
                self.obs.count("cluster.resync.replayed", replayed);
                self.obs.count("cluster.resync.filled", filled);
                Ok(replayed)
            }
            Err(e) => {
                // Died again mid-resync: stay down, disk keeps whatever the
                // crash point left (recovery truncates a torn tail on the
                // next rejoin).
                replica.node().kill();
                Err(e)
            }
        }
    }

    /// Brings a restarted node back to its owed state — fill-missing
    /// semantics: local state wins ties, the anti-entropy majority
    /// arbitrates divergence — then retires whatever the node holds outside
    /// its owned ranges. Returns `(entries filled, tail records replayed)`.
    fn resync(&self, topo: &Topology, idx: usize) -> Result<(u64, u64), CoreError> {
        // Background work: detach from whatever client operation triggered
        // the rejoin so the resync gets its own root trace.
        let mut root = self.obs.span_root("cluster.resync");
        root.set_detail(&format!("node{idx}"));
        let node = topo.replica(idx).node();
        let owned = topo.ring.ranges_of(idx, true);
        let out = if node.is_durable() {
            self.resync_from_snapshots_and_tails(topo, idx, &owned)
        } else {
            // No WAL on either side: refill the owned ranges directly.
            self.pull_ranges(topo, node, None, &owned, true, "cluster.resync.peer_failed").map(|(f, _)| (f, 0))
        };
        let out = out.and_then(|counts| {
            let unowned = topo.ring.ranges_of(idx, false);
            if !unowned.is_empty() {
                let sel = RangeSelect { seed: self.cfg.seed, ranges: unowned, include_broadcast: false };
                node.engine_call("sync/retire", &sel.encode())
                    .map_err(|e| CoreError::Storage(format!("node {idx} failed retiring unowned ranges: {e}")))?;
            }
            Ok(counts)
        });
        match &out {
            Ok((filled, replayed)) => {
                self.resync_filled.fetch_add(*filled, Ordering::Relaxed);
                self.resync_replayed.fetch_add(*replayed, Ordering::Relaxed);
            }
            Err(e) => {
                root.fail();
                root.set_detail(&e.to_string());
            }
        }
        out
    }

    /// The durable resync: every live durable peer's snapshot and WAL tail,
    /// so a peer that compacted its WAL leaves no gap.
    fn resync_from_snapshots_and_tails(
        &self,
        topo: &Topology,
        idx: usize,
        owned: &[(u64, u64)],
    ) -> Result<(u64, u64), CoreError> {
        let (mut filled, mut replayed) = (0u64, 0u64);
        let mut seen = topo.replica(idx).node().journaled_ids();
        // The resyncing node is not serving, so every live member is a peer.
        for peer in topo.live_members().filter(|peer| peer.node().is_durable()) {
            match self.pull_peer_state(topo, idx, peer, owned, &mut seen) {
                Ok((f, r)) => {
                    filled += f;
                    replayed += r;
                }
                Err(PullFailure::Peer) => {
                    self.obs.count("cluster.resync.peer_failed", 1);
                    if peer.node().wal_compacted() {
                        // Snapshot shipping normally closes the compaction
                        // gap; only a failed pull from a compacted peer
                        // can leave one open.
                        self.resync_wal_gaps.fetch_add(1, Ordering::Relaxed);
                        self.obs.count("cluster.resync.wal_gap", 1);
                    }
                }
                Err(PullFailure::Local(e)) => return Err(e),
            }
        }
        Ok((filled, replayed))
    }

    /// Pulls one peer's state into node `idx`: stream its pinned snapshot,
    /// install the owned subset the node is missing, then replay the
    /// peer's WAL tail above the snapshot sequence.
    fn pull_peer_state(
        &self,
        topo: &Topology,
        idx: usize,
        peer: &Replica,
        owned: &[(u64, u64)],
        seen: &mut HashSet<[u8; 16]>,
    ) -> Result<(u64, u64), PullFailure> {
        let node = topo.replica(idx).node();
        let token = self.transfer_token();
        let body = self.stream_snapshot(peer, token)?;
        let mut filled = 0u64;
        let mut snapshot_seq = 0u64;
        if !body.is_empty() {
            let kv = KvStore::new();
            let docs = DocStore::new();
            snapshot_seq = apply_snapshot(&kv, &docs, &body).map_err(|_| PullFailure::Peer)?;
            let sel = Selector::Ranges { ranges: owned, include_broadcast: true };
            let entries: Vec<SyncEntry> =
                export_entries(&kv, &docs, self.cfg.seed, &sel).into_iter().map(|(e, _)| e).collect();
            let held = RangeSelect { seed: self.cfg.seed, ranges: owned.to_vec(), include_broadcast: true };
            filled = self.fill_missing(node, &held.encode(), &entries, &token).map_err(PullFailure::Local)?;
        }
        let tail = peer
            .call_background("sync/tail", &WalTailRequest { from_seq: snapshot_seq }.encode())
            .answered()
            .ok_or(PullFailure::Peer)?;
        let list = BlobList::decode(&tail).map_err(|_| PullFailure::Peer)?;
        let mut replayed = 0u64;
        for item in &list.items {
            let Ok(rec) = WalRecord::decode(item) else { continue };
            // Sync-apply records are a peer's own resync history, not
            // client writes: every acked client write is carried as a
            // normal record by at least W original ackers.
            if seen.contains(&rec.id)
                || rec.route.starts_with("sync/")
                || !targets_node(topo, &rec.route, &rec.payload, idx)
            {
                continue;
            }
            seen.insert(rec.id);
            match node.engine_call(&rec.route, &rec.payload) {
                // Application errors are recorded history (e.g. a
                // duplicate insert whose first application was compacted
                // out of our own WAL) — not resync failures.
                Ok(_) | Err(NetError::Remote(_)) => replayed += 1,
                Err(_) => {
                    return Err(PullFailure::Local(CoreError::Storage(format!("node {idx} crashed during resync"))));
                }
            }
        }
        Ok((filled, replayed))
    }

    /// Streams a peer's pinned snapshot body in CRC-framed chunks, resuming
    /// each chunk once on a torn frame, and verifies the whole-body CRC
    /// advertised at `sync/begin`.
    fn stream_snapshot(&self, peer: &Replica, token: [u8; 16]) -> Result<Vec<u8>, PullFailure> {
        let transfer = TransferBegin { token }.encode();
        let begin = peer.call_background("sync/begin", &transfer).answered().ok_or(PullFailure::Peer)?;
        let info = TransferInfo::decode(&begin).map_err(|_| PullFailure::Peer)?;
        let mut body = Vec::with_capacity(info.total_len as usize);
        while (body.len() as u64) < info.total_len {
            let req = ChunkRequest { token, offset: body.len() as u64, max_len: SYNC_CHUNK_LEN };
            let chunk = self.fetch_chunk(peer, &req)?;
            body.extend_from_slice(&chunk);
        }
        peer.call_background("sync/end", &transfer);
        if crc32(&body) != info.crc {
            return Err(PullFailure::Peer);
        }
        Ok(body)
    }

    /// One chunk fetch with one resume retry: the transfer stays pinned
    /// peer-side, so the retry picks back up at the same offset.
    fn fetch_chunk(&self, peer: &Replica, req: &ChunkRequest) -> Result<Vec<u8>, PullFailure> {
        let mut attempts = 0;
        loop {
            attempts += 1;
            let chunk = peer
                .call_background("sync/chunk", &req.encode())
                .answered()
                .and_then(|resp| ChunkResponse::decode(&resp).ok())
                .filter(|c| c.offset == req.offset && !c.data.is_empty() && crc32(&c.data) == c.crc);
            match chunk {
                Some(c) => return Ok(c.data),
                None if attempts == 1 => self.obs.count("cluster.resync.chunk_retry", 1),
                None => return Err(PullFailure::Peer),
            }
        }
    }

    /// Installs the subset of `entries` the node does not already hold:
    /// local keys keep their local value (the anti-entropy majority vote
    /// arbitrates divergence later), missing keys are applied through the
    /// idempotent `sync/put` envelope so a torn fill replays exactly once.
    /// `selector` is the encoded [`RangeSelect`] the entries were chosen by:
    /// what the node holds is asked for within it, not as the node's whole
    /// state.
    fn fill_missing(
        &self,
        node: &LocalNode,
        selector: &[u8],
        entries: &[SyncEntry],
        salt: &[u8],
    ) -> Result<u64, CoreError> {
        if entries.is_empty() {
            return Ok(0);
        }
        let have: HashSet<Vec<u8>> = node
            .engine_call("sync/entries", selector)
            .ok()
            .and_then(|resp| SyncEntries::decode(&resp).ok())
            .map(|local| local.entries.iter().map(entry_key).collect())
            .unwrap_or_default();
        let missing: Vec<&SyncEntry> = entries.iter().filter(|e| !have.contains(&entry_key(e))).collect();
        let mut applied = 0u64;
        for (batch_idx, batch) in missing.chunks(SYNC_PUT_BATCH).enumerate() {
            let salt = [salt, &(batch_idx as u64).to_be_bytes()[..]].concat();
            let put = sync_put(b"cluster-fill", &salt, batch.iter().map(|&e| e.clone()).collect());
            match node.engine_call(IDEM_ROUTE, &put) {
                Ok(_) => applied += batch.len() as u64,
                Err(NetError::Remote(m)) => {
                    return Err(CoreError::Storage(format!("sync/put rejected during fill: {m}")));
                }
                Err(_) => return Err(CoreError::Storage("node crashed applying synced entries".into())),
            }
        }
        Ok(applied)
    }

    fn transfer_token(&self) -> [u8; 16] {
        let seq = self.transfer_seq.fetch_add(1, Ordering::Relaxed);
        token16(&[b"cluster-transfer", &self.cfg.seed.to_be_bytes(), &seq.to_be_bytes()])
    }

    /// Adds a member on a fresh slot: the new node pulls exactly the key
    /// ranges it gains from the current owners *before* the new ring
    /// serves, then the members that lost those ranges retire them.
    /// Returns the new slot id.
    ///
    /// Operations racing the change observe a typed
    /// [`NetError::Unavailable`] while the topology lock is write-held.
    ///
    /// # Errors
    ///
    /// I/O failures opening the node, or [`CoreError::Storage`] when the
    /// handoff pull dies: the ring stays unchanged and the slot is not
    /// installed (its partial on-disk state is recovered and reused by the
    /// next attempt).
    pub fn add_node(&self) -> Result<usize, CoreError> {
        let _guard = self.membership.lock();
        let mut topo = self.topo.write();
        let slot = topo.replicas.len();
        let crash = self.rejoin_crash.lock().remove(&slot);
        let node = LocalNode::open(&self.cfg, slot, crash)?;
        node.recorder().set_enabled(self.obs.is_enabled());
        let joiner = Replica::new(&self.cfg, slot, node, self.obs.clone(), self.kills.clone());
        let mut new_members = topo.members.clone();
        new_members.push(slot);
        let new_ring = Ring::new(&new_members, self.cfg.vnodes, self.cfg.replication, self.cfg.seed);
        self.hand_off(&topo, joiner.node(), None, &gained_ranges(&topo.ring, &new_ring, slot), true)?;
        for member in topo.live_members() {
            let lost = lost_ranges(&topo.ring, &new_ring, member.slot());
            if lost.is_empty() {
                continue;
            }
            let sel = RangeSelect { seed: self.cfg.seed, ranges: lost, include_broadcast: false };
            if member.node().engine_call("sync/retire", &sel.encode()).is_err() {
                member.kill();
            }
        }
        joiner.serve();
        topo.replicas.push(joiner);
        topo.members = new_members;
        topo.ring = new_ring;
        self.adds.fetch_add(1, Ordering::Relaxed);
        self.obs.count("cluster.node_added", 1);
        self.obs.gauge_set("cluster.nodes", topo.members.len() as i64);
        self.obs.gauge_set("cluster.ring.vnodes", topo.ring.vnodes() as i64);
        Ok(slot)
    }

    /// Removes member `idx`: every remaining live member first pulls the
    /// ranges it inherits (the leaving node is still a source), then the
    /// slot is decommissioned and the ring forgets it.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnsupportedOperation`] for a non-member or when the
    /// removal would leave fewer members than the replication factor;
    /// [`CoreError::Storage`] when a handoff pull dies (the ring stays
    /// unchanged).
    pub fn remove_node(&self, idx: usize) -> Result<(), CoreError> {
        let _guard = self.membership.lock();
        let mut topo = self.topo.write();
        if !topo.members.contains(&idx) {
            return Err(CoreError::UnsupportedOperation(format!("node {idx} is not a cluster member")));
        }
        if topo.members.len() <= self.cfg.replication {
            return Err(CoreError::UnsupportedOperation(format!(
                "removing node {idx} would leave {} members with {}-way replication",
                topo.members.len() - 1,
                self.cfg.replication
            )));
        }
        let new_members: Vec<usize> = topo.members.iter().copied().filter(|&m| m != idx).collect();
        let new_ring = Ring::new(&new_members, self.cfg.vnodes, self.cfg.replication, self.cfg.seed);
        // A dead member inherits its new ranges on rejoin, when its resync
        // consults the post-removal ring.
        for heir in topo.live_members().filter(|heir| heir.slot() != idx) {
            let gained = gained_ranges(&topo.ring, &new_ring, heir.slot());
            if let Err(e) = self.hand_off(&topo, heir.node(), Some(heir.slot()), &gained, false) {
                heir.kill();
                return Err(e);
            }
        }
        // The slot stays allocated (dead) so surviving slot ids keep their
        // meaning; only the ring forgets it.
        topo.replica(idx).decommission();
        topo.members = new_members;
        topo.ring = new_ring;
        self.removes.fetch_add(1, Ordering::Relaxed);
        self.obs.count("cluster.node_removed", 1);
        self.obs.gauge_set("cluster.nodes", topo.members.len() as i64);
        self.obs.gauge_set("cluster.ring.vnodes", topo.ring.vnodes() as i64);
        Ok(())
    }

    /// A membership change's pull of the ranges `target` gains: peer
    /// failures skip that peer — another replica covers the range — but at
    /// least one peer must source the handoff.
    fn hand_off(
        &self,
        topo: &Topology,
        target: &LocalNode,
        except: Option<usize>,
        ranges: &[(u64, u64)],
        include_broadcast: bool,
    ) -> Result<(), CoreError> {
        if ranges.is_empty() {
            return Ok(());
        }
        match self.pull_ranges(topo, target, except, ranges, include_broadcast, "cluster.handoff.peer_failed")? {
            (_, true) => Ok(()),
            (_, false) => Err(CoreError::Storage("no live peer could source the handoff ranges".into())),
        }
    }

    /// Pulls `ranges` into `target` from every live member but `except`
    /// (the target's own slot when it is already a member): each peer
    /// exports what it holds there and the target installs what it lacks.
    /// A peer that cannot answer counts in `peer_failed` and is skipped.
    /// Returns the entries installed and whether any peer answered.
    fn pull_ranges(
        &self,
        topo: &Topology,
        target: &LocalNode,
        except: Option<usize>,
        ranges: &[(u64, u64)],
        include_broadcast: bool,
        peer_failed: &str,
    ) -> Result<(u64, bool), CoreError> {
        let salt = self.transfer_token();
        let selector = RangeSelect { seed: self.cfg.seed, ranges: ranges.to_vec(), include_broadcast }.encode();
        let (mut filled, mut sourced) = (0u64, false);
        for peer in topo.live_members().filter(|peer| Some(peer.slot()) != except) {
            let exported = peer.call_background("sync/entries", &selector).answered();
            let Some(entries) = exported.and_then(|resp| SyncEntries::decode(&resp).ok()) else {
                self.obs.count(peer_failed, 1);
                continue;
            };
            filled += self.fill_missing(target, &selector, &entries.entries, &salt)?;
            sourced = true;
        }
        Ok((filled, sourced))
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::insert_payload;
    use super::super::ClusterConfig;
    use super::*;
    use crate::cloud::with_collection;
    use datablinder_netsim::CloudService;
    use datablinder_sse::DocId;

    #[test]
    fn add_node_hands_off_gained_ranges_before_serving() {
        let cluster = ClusterCloud::new(ClusterConfig::volatile(3, 2, 2, 21)).unwrap();
        for i in 1..=20u8 {
            cluster.handle("doc/insert", &insert_payload("notes", i)).unwrap();
        }
        let slot = cluster.add_node().unwrap();
        assert_eq!(slot, 3);
        assert_eq!(cluster.members(), vec![0, 1, 2, 3]);
        assert_eq!(cluster.nodes_added(), 1);
        // Every document is still fully replicated on its (new) replica set.
        for i in 1..=20u8 {
            let id = DocId([i; 16]).to_hex();
            for r in cluster.doc_replicas("notes", &id) {
                let held = cluster.with_node_engine(r, |e| e.docs().collection("notes").get(&id).is_some()).unwrap();
                assert!(held, "replica {r} of doc {i} holds it after the handoff");
            }
            let got = cluster.handle("doc/get", &with_collection("notes", id.as_bytes())).unwrap();
            assert!(!got.is_empty());
        }
        // The handoff itself must have given the new node some keys.
        let on_new = cluster.with_node_engine(slot, |e| e.docs().collection("notes").len()).unwrap();
        assert!(on_new > 0, "the new member took over part of the keyspace");
    }

    #[test]
    fn remove_node_hands_off_and_refuses_below_replication() {
        let cluster = ClusterCloud::new(ClusterConfig::volatile(4, 2, 2, 23)).unwrap();
        for i in 1..=20u8 {
            cluster.handle("doc/insert", &insert_payload("notes", i)).unwrap();
        }
        cluster.remove_node(1).unwrap();
        assert_eq!(cluster.members(), vec![0, 2, 3]);
        assert_eq!(cluster.nodes_removed(), 1);
        assert!(!cluster.node_alive(1));
        for i in 1..=20u8 {
            let id = DocId([i; 16]).to_hex();
            let replicas = cluster.doc_replicas("notes", &id);
            assert!(!replicas.contains(&1), "the ring forgot the removed member");
            for r in replicas {
                let held = cluster.with_node_engine(r, |e| e.docs().collection("notes").get(&id).is_some()).unwrap();
                assert!(held, "replica {r} of doc {i} holds it after the removal");
            }
        }
        // A second removal would leave 2 members with 2-way replication: ok.
        cluster.remove_node(2).unwrap();
        // A third would leave 1 member below the replication factor.
        let err = cluster.remove_node(3).unwrap_err();
        assert!(matches!(err, CoreError::UnsupportedOperation(_)), "got {err:?}");
        // Removing a non-member is typed, not a panic.
        let err = cluster.remove_node(1).unwrap_err();
        assert!(matches!(err, CoreError::UnsupportedOperation(_)), "got {err:?}");
    }
}
