//! The consistent-hash ring: which member slots own which keys, and which
//! hash ranges change owners when membership does. Pure — no node, lock or
//! I/O is named here; the same members, vnodes and seed give the same ring.

use std::collections::BTreeMap;

use crate::sync::{hash_bytes, mix64};

/// The consistent-hash ring over the current member slots: `(hash, slot)`
/// points sorted by hash. A member's vnode points depend only on its slot
/// id and the seed, so adding or removing a member moves the minimal set of
/// key ranges.
#[derive(Debug)]
pub(super) struct Ring {
    points: Vec<(u64, usize)>,
    replication: usize,
    seed: u64,
}

impl Ring {
    pub(super) fn new(members: &[usize], vnodes: usize, replication: usize, seed: u64) -> Self {
        let vnodes = vnodes.max(1);
        let mut points = Vec::with_capacity(members.len() * vnodes);
        for &n in members {
            for v in 0..vnodes {
                let point = mix64(seed ^ (((n as u64) << 20) | v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                points.push((point, n));
            }
        }
        points.sort_unstable();
        Ring { points, replication, seed }
    }

    /// The first `replication` distinct nodes clockwise from the key's hash.
    pub(super) fn replicas(&self, key: &[u8]) -> Vec<usize> {
        self.replicas_at(hash_bytes(self.seed, key))
    }

    /// Replica set of an already-hashed position.
    pub(super) fn replicas_at(&self, h: u64) -> Vec<usize> {
        let start = self.points.partition_point(|&(p, _)| p < h) % self.points.len();
        self.owners_from(start)
    }

    fn owners_from(&self, start: usize) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.replication);
        for i in 0..self.points.len() {
            let (_, node) = self.points[(start + i) % self.points.len()];
            if !out.contains(&node) {
                out.push(node);
                if out.len() == self.replication {
                    break;
                }
            }
        }
        out
    }

    /// Points on the ring: members × vnodes.
    pub(super) fn vnodes(&self) -> usize {
        self.points.len()
    }

    /// The sorted vnode hash points — the digest leaf boundaries every
    /// digest request carries, so replicas bucket identically.
    pub(super) fn boundaries(&self) -> Vec<u64> {
        self.points.iter().map(|&(p, _)| p).collect()
    }

    /// The `(lo, hi]` hash interval of leaf `j` (wraps for leaf 0).
    pub(super) fn leaf_range(&self, j: usize) -> (u64, u64) {
        let n = self.points.len();
        (self.points[(j + n - 1) % n].0, self.points[j].0)
    }

    /// The nodes owning leaf `j` — the distinct-node walk starting at its
    /// boundary point, identical to [`Ring::replicas_at`] for any hash
    /// inside the leaf.
    pub(super) fn leaf_owners(&self, j: usize) -> Vec<usize> {
        self.owners_from(j)
    }

    /// Every hash range `node` owns (`owned == true`) or does not own,
    /// merged into maximal `(lo, hi]` intervals. A node owning the whole
    /// circle collapses to one `(p, p)` interval, which range checks treat
    /// as everything.
    pub(super) fn ranges_of(&self, node: usize, owned: bool) -> Vec<(u64, u64)> {
        let mut segs = Vec::new();
        for j in 0..self.points.len() {
            if self.owners_from(j).contains(&node) == owned {
                segs.push(self.leaf_range(j));
            }
        }
        merge_segments(segs)
    }

    /// The hash ranges each node serves first: every leaf goes to the first
    /// of its owners that `is_alive`, and each node's leaves merge into
    /// maximal `(lo, hi]` intervals — one node per document, the one a
    /// partitioned read would ask. `None` when some leaf has no live owner.
    pub(super) fn first_live_ranges(
        &self,
        is_alive: impl Fn(usize) -> bool,
    ) -> Option<BTreeMap<usize, Vec<(u64, u64)>>> {
        let n = self.points.len();
        let mut per_node: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
        // The distinct dead owners met so far on one leaf's walk.
        let mut dead = Vec::with_capacity(self.replication);
        for j in 0..n {
            dead.clear();
            let mut walk = (0..n).map(|i| self.points[(j + i) % n].1);
            let first = walk.find(|&node| {
                if is_alive(node) {
                    return true;
                }
                if !dead.contains(&node) {
                    dead.push(node);
                }
                false
            });
            match first {
                Some(node) if dead.len() < self.replication => {
                    per_node.entry(node).or_default().push(self.leaf_range(j))
                }
                _ => return None,
            }
        }
        for segs in per_node.values_mut() {
            *segs = merge_segments(std::mem::take(segs));
        }
        Some(per_node)
    }
}

/// Merges adjacent ring segments (given in leaf order) into maximal
/// intervals, folding the wraparound join between the last and first.
fn merge_segments(segs: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    let mut out: Vec<(u64, u64)> = Vec::new();
    for seg in segs {
        match out.last_mut() {
            Some(last) if last.1 == seg.0 => last.1 = seg.1,
            _ => out.push(seg),
        }
    }
    if out.len() > 1 {
        let first = out[0];
        if out.last().expect("non-empty").1 == first.0 {
            let last = out.pop().expect("non-empty");
            out[0] = (last.0, first.1);
        }
    }
    out
}

/// The hash ranges `node` owns under `new` but not under `old`: exactly the
/// key ranges it must pull before the new ring serves. Computed over the
/// union of both rings' boundary points, so every returned interval has
/// constant ownership in both rings.
pub(super) fn gained_ranges(old: &Ring, new: &Ring, node: usize) -> Vec<(u64, u64)> {
    let mut bounds: Vec<u64> = old.boundaries();
    bounds.extend(new.boundaries());
    bounds.sort_unstable();
    bounds.dedup();
    let n = bounds.len();
    let mut segs = Vec::new();
    for j in 0..n {
        let hi = bounds[j];
        let lo = bounds[(j + n - 1) % n];
        if new.replicas_at(hi).contains(&node) && !old.replicas_at(hi).contains(&node) {
            segs.push((lo, hi));
        }
    }
    merge_segments(segs)
}

/// The hash ranges `node` owned under `old` but no longer owns under `new`:
/// what it retires after a handoff.
pub(super) fn lost_ranges(old: &Ring, new: &Ring, node: usize) -> Vec<(u64, u64)> {
    gained_ranges(new, old, node)
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::sync::{in_any_range, in_range};

    #[test]
    fn ring_is_deterministic_and_distinct() {
        let a = Ring::new(&[0, 1, 2, 3, 4], 16, 3, 42);
        let b = Ring::new(&[0, 1, 2, 3, 4], 16, 3, 42);
        for key in [b"alpha".as_slice(), b"beta", b"gamma", b""] {
            let reps = a.replicas(key);
            assert_eq!(reps, b.replicas(key), "same seed, same placement");
            assert_eq!(reps.len(), 3);
            let distinct: BTreeSet<_> = reps.iter().collect();
            assert_eq!(distinct.len(), 3, "replicas are distinct nodes");
        }
        let c = Ring::new(&[0, 1, 2, 3, 4], 16, 3, 43);
        let moved = (0u32..64).filter(|i| a.replicas(&i.to_be_bytes()) != c.replicas(&i.to_be_bytes())).count();
        assert!(moved > 0, "a different seed moves keys");
    }

    #[test]
    fn ring_spreads_keys_across_nodes() {
        let ring = Ring::new(&[0, 1, 2, 3], 16, 1, 7);
        let mut hits = [0usize; 4];
        for i in 0u32..256 {
            hits[ring.replicas(&i.to_be_bytes())[0]] += 1;
        }
        for (node, &h) in hits.iter().enumerate() {
            assert!(h > 0, "node {node} owns no keys: {hits:?}");
        }
    }

    #[test]
    fn adding_a_member_moves_keys_only_toward_it() {
        let old = Ring::new(&[0, 1, 2], 16, 2, 42);
        let new = Ring::new(&[0, 1, 2, 3], 16, 2, 42);
        let mut moved = 0usize;
        for i in 0u32..512 {
            let key = i.to_be_bytes();
            let before = old.replicas(&key);
            let after = new.replicas(&key);
            if before != after {
                moved += 1;
                assert!(
                    after.contains(&3),
                    "a changed replica set must involve the new member: {before:?} -> {after:?}"
                );
            }
        }
        assert!(moved > 0, "the new member takes over some keys");
        assert!(moved < 512, "membership change must not reshuffle everything");
    }

    #[test]
    fn gained_and_lost_ranges_match_ownership_diff() {
        let old = Ring::new(&[0, 1, 2], 16, 2, 42);
        let new = Ring::new(&[0, 1, 2, 3], 16, 2, 42);
        for node in 0..4usize {
            let gained = gained_ranges(&old, &new, node);
            let lost = lost_ranges(&old, &new, node);
            for i in 0u32..512 {
                let h = hash_bytes(42, &i.to_be_bytes());
                let owns_old = old.replicas_at(h).contains(&node);
                let owns_new = new.replicas_at(h).contains(&node);
                assert_eq!(
                    in_any_range(h, &gained),
                    owns_new && !owns_old,
                    "gained ranges of node {node} disagree at hash {h:#x}"
                );
                assert_eq!(
                    in_any_range(h, &lost),
                    owns_old && !owns_new,
                    "lost ranges of node {node} disagree at hash {h:#x}"
                );
            }
        }
    }

    #[test]
    fn owned_and_unowned_ranges_partition_the_circle() {
        let ring = Ring::new(&[0, 1, 2, 3, 4], 16, 3, 9);
        for node in 0..5usize {
            let owned = ring.ranges_of(node, true);
            let unowned = ring.ranges_of(node, false);
            for i in 0u32..512 {
                let h = hash_bytes(9, &i.to_be_bytes());
                let owns = ring.replicas_at(h).contains(&node);
                assert_eq!(in_any_range(h, &owned), owns);
                assert_eq!(in_any_range(h, &unowned), !owns);
            }
        }
    }

    #[test]
    fn leaf_owners_agree_with_replica_lookup() {
        let ring = Ring::new(&[0, 1, 2, 3], 16, 2, 77);
        let boundaries = ring.boundaries();
        for i in 0u32..256 {
            let h = hash_bytes(77, &i.to_be_bytes());
            let j = crate::sync::leaf_of(h, &boundaries);
            assert_eq!(ring.leaf_owners(j), ring.replicas_at(h));
            assert!(in_range(h, ring.leaf_range(j)), "hash falls inside its leaf's range");
        }
    }

    /// Every hash lands in the first-live ranges of exactly one node, the
    /// first live node of its replica set; with every owner of some leaf
    /// down there is no answer.
    #[test]
    fn first_live_ranges_pick_each_hash_s_first_live_replica() {
        let ring = Ring::new(&[0, 1, 2, 3, 4], 16, 3, 21);
        for dead in [vec![], vec![2], vec![0, 3]] {
            let alive = |node: usize| !dead.contains(&node);
            let per_node = ring.first_live_ranges(alive).unwrap();
            assert!(per_node.keys().all(|&node| alive(node)), "{dead:?}: a dead node serves");
            for i in 0u32..1024 {
                let h = hash_bytes(21, &i.to_be_bytes());
                let first = ring.replicas_at(h).into_iter().find(|&r| alive(r)).unwrap();
                let serving: Vec<usize> =
                    per_node.iter().filter(|(_, ranges)| in_any_range(h, ranges)).map(|(&node, _)| node).collect();
                assert_eq!(serving, vec![first], "{dead:?}: hash {h:#x}");
            }
        }
        // Alone, one node serves the whole circle as one interval.
        let whole = Ring::new(&[0, 1, 2], 16, 3, 21).first_live_ranges(|node| node == 1).unwrap();
        assert_eq!(whole.len(), 1);
        assert!(matches!(whole[&1][..], [(lo, hi)] if lo == hi));
        // Three of five down with R=3 leaves some leaf with no live owner.
        assert!(ring.first_live_ranges(|node| node > 2).is_none());
    }

    #[test]
    fn merged_ranges_round_trip_through_wrap() {
        assert_eq!(merge_segments(vec![(10, 20), (20, 30)]), vec![(10, 30)]);
        assert_eq!(merge_segments(vec![(90, 5), (5, 10), (40, 50)]), vec![(90, 10), (40, 50)]);
        // Trailing segment meets the leading one across the wrap point.
        assert_eq!(merge_segments(vec![(90, 10), (80, 90)]), vec![(80, 10)]);
        // Everything owned collapses to a full-circle (p, p) interval.
        let all = merge_segments(vec![(30, 10), (10, 20), (20, 30)]);
        assert_eq!(all, vec![(30, 30)]);
        assert!(in_range(123, all[0]));
    }
}
