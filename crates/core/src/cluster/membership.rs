//! Membership transitions — kill, rejoin, add, remove — and the state
//! transfers that make them safe: a rejoining node replays its peers' WAL
//! tails and then pulls the hash ranges it owns, a joining or inheriting
//! node pulls the ranges it gains. Every public entry point takes the
//! membership lock; add/remove also write-hold the topology for the handoff
//! window.

use std::collections::HashSet;
use std::sync::atomic::Ordering;
use std::sync::PoisonError;

use datablinder_netsim::NetError;

use super::repair::{entry_key, sync_put};
use super::replica::{LocalNode, Replica};
use super::ring::{gained_ranges, lost_ranges, Ring};
use super::write::targets_node;
use super::{token16, ClusterCloud, Topology, DEFAULT_VNODES};
use crate::cloudproto::{BlobList, RangeSelect, SyncEntries, SyncEntry, IDEM_ROUTE};
use crate::durability::WalRecord;
use crate::error::CoreError;

/// Entries per idempotent `sync/put` envelope during a fill.
const SYNC_PUT_BATCH: usize = 32;

impl ClusterCloud {
    /// Marks node `idx` down and drops its engine (disk state stays).
    pub fn kill_node(&self, idx: usize) {
        let _guard = self.membership.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(replica) = self.topo.read().unwrap_or_else(PoisonError::into_inner).replicas.get(idx) {
            replica.kill();
        }
    }

    /// Restarts node `idx` from its own disk, resyncs it from live peers
    /// (their WAL tails, then its owned ranges) and marks it serving.
    /// Returns the number of replayed tail records; a member that is
    /// already serving is left alone (`Ok(0)`).
    ///
    /// # Errors
    ///
    /// Recovery/I-O failures, [`CoreError::UnsupportedOperation`] for a
    /// slot that is not a member, or [`CoreError::Storage`] when the node
    /// dies again mid-resync (it stays down; a later rejoin retries).
    pub fn rejoin_node(&self, idx: usize) -> Result<u64, CoreError> {
        let _guard = self.membership.lock().unwrap_or_else(PoisonError::into_inner);
        let topo = self.topo.read().unwrap_or_else(PoisonError::into_inner);
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
        let crash = self.rejoin_crash.lock().unwrap_or_else(PoisonError::into_inner).remove(&idx);
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
    /// its owned ranges. Durable and volatile nodes take the same path (a
    /// volatile peer's tail is empty). Returns `(entries filled, tail
    /// records replayed)`.
    fn resync(&self, topo: &Topology, idx: usize) -> Result<(u64, u64), CoreError> {
        // Background work: detach from whatever client operation triggered
        // the rejoin so the resync gets its own root trace.
        let mut root = self.obs.span_root("cluster.resync");
        root.set_detail(&format!("node{idx}"));
        let node = topo.replica(idx).node();
        let owned = topo.ring.ranges_of(idx, true);
        // Tails before ranges. A replayed envelope must find its document
        // missing: filled first, it fails with `DuplicateId`, and the dedup
        // cache keeps that failure as the token's outcome for a retry.
        let out = self.replay_tails(topo, idx).and_then(|replayed| {
            let (filled, _) = self.pull_ranges(topo, node, None, &owned, true, "cluster.resync.peer_failed")?;
            let unowned = topo.ring.ranges_of(idx, false);
            if !unowned.is_empty() {
                let sel = RangeSelect { seed: self.cfg.seed, ranges: unowned, include_broadcast: false };
                node.engine_call("sync/retire", &sel.encode())
                    .map_err(|e| CoreError::Storage(format!("node {idx} failed retiring unowned ranges: {e}")))?;
            }
            Ok((filled, replayed))
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

    /// Replays into node `idx` every live peer's WAL records that target it
    /// and that it has not journaled itself. This is what carries the
    /// idempotency tokens of the writes it missed. Returns the records
    /// replayed.
    fn replay_tails(&self, topo: &Topology, idx: usize) -> Result<u64, CoreError> {
        let node = topo.replica(idx).node();
        let mut seen = node.journaled_ids();
        let mut replayed = 0u64;
        // The resyncing node is not serving, so every live member is a peer.
        for peer in topo.live_members() {
            let tail = peer.call_background("sync/tail", &[]).answered();
            let Some(list) = tail.and_then(|tail| BlobList::decode(&tail).ok()) else {
                self.obs.count("cluster.resync.peer_failed", 1);
                continue;
            };
            for item in &list.items {
                let Ok(rec) = WalRecord::decode(item) else { continue };
                // Sync-apply records are a peer's own resync history, not
                // client writes (`targets_node` skips them): every acked
                // client write is carried as a normal record by at least W
                // original ackers.
                if seen.contains(&rec.id) || !targets_node(topo, &rec.route, &rec.payload, idx) {
                    continue;
                }
                seen.insert(rec.id);
                match node.engine_call(&rec.route, &rec.payload) {
                    // A deterministic refusal is recorded history (e.g. a
                    // duplicate insert whose first application was compacted
                    // out of our own WAL) — not a resync failure. A storage
                    // refusal is this node failing to apply it.
                    Ok(_) => replayed += 1,
                    Err(NetError::Remote(kind, _)) if kind.is_deterministic() => replayed += 1,
                    Err(NetError::Remote(_, m)) => {
                        return Err(CoreError::Storage(format!("node {idx} failed replaying a peer's record: {m}")));
                    }
                    Err(_) => return Err(CoreError::Storage(format!("node {idx} crashed during resync"))),
                }
            }
        }
        Ok(replayed)
    }

    /// Installs the `entries` whose keys are not in `held`: local keys keep
    /// their local value (the anti-entropy majority vote arbitrates
    /// divergence later), missing keys are applied through the idempotent
    /// `sync/put` envelope so a torn fill replays exactly once. Installed
    /// keys join `held`; a key joins before its put lands, which is safe
    /// because a failed put aborts the whole pull.
    fn fill_missing(
        &self,
        node: &LocalNode,
        held: &mut HashSet<Vec<u8>>,
        entries: Vec<SyncEntry>,
        salt: &[u8],
    ) -> Result<u64, CoreError> {
        let missing: Vec<SyncEntry> = entries.into_iter().filter(|e| held.insert(entry_key(e))).collect();
        let mut applied = 0u64;
        for (batch_idx, batch) in missing.chunks(SYNC_PUT_BATCH).enumerate() {
            let salt = [salt, &(batch_idx as u64).to_be_bytes()[..]].concat();
            let put = sync_put(b"cluster-fill", &salt, batch.to_vec());
            node.engine_call(IDEM_ROUTE, &put)
                .map_err(|e| CoreError::Storage(format!("node failed applying synced entries: {e}")))?;
            applied += batch.len() as u64;
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
        let _guard = self.membership.lock().unwrap_or_else(PoisonError::into_inner);
        let mut topo = self.topo.write().unwrap_or_else(PoisonError::into_inner);
        let slot = topo.replicas.len();
        let crash = self.rejoin_crash.lock().unwrap_or_else(PoisonError::into_inner).remove(&slot);
        let node = LocalNode::open(&self.cfg, slot, crash)?;
        node.recorder().set_enabled(self.obs.is_enabled());
        let joiner = Replica::new(&self.cfg, slot, node, self.obs.clone(), self.kills.clone());
        let mut new_members = topo.members.clone();
        new_members.push(slot);
        let new_ring = Ring::new(&new_members, DEFAULT_VNODES, self.cfg.replication, self.cfg.seed);
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
        let _guard = self.membership.lock().unwrap_or_else(PoisonError::into_inner);
        let mut topo = self.topo.write().unwrap_or_else(PoisonError::into_inner);
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
        let new_ring = Ring::new(&new_members, DEFAULT_VNODES, self.cfg.replication, self.cfg.seed);
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
    /// What the target holds within `ranges` is asked once, before the
    /// first install. A peer that cannot answer counts in `peer_failed` and
    /// is skipped. Returns the entries installed and whether any peer
    /// answered.
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
        let mut held: Option<HashSet<Vec<u8>>> = None;
        let (mut filled, mut sourced) = (0u64, false);
        for peer in topo.live_members().filter(|peer| Some(peer.slot()) != except) {
            let exported = peer.call_background("sync/entries", &selector).answered();
            let Some(entries) = exported.and_then(|resp| SyncEntries::decode(&resp).ok()) else {
                self.obs.count(peer_failed, 1);
                continue;
            };
            sourced = true;
            if entries.entries.is_empty() {
                continue;
            }
            let held = held.get_or_insert_with(|| {
                target
                    .engine_call("sync/entries", &selector)
                    .ok()
                    .and_then(|resp| SyncEntries::decode(&resp).ok())
                    .map(|local| local.entries.iter().map(entry_key).collect())
                    .unwrap_or_default()
            });
            filled += self.fill_missing(target, held, entries.entries, &salt)?;
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
