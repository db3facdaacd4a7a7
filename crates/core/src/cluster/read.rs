//! The read path: a key's replicas probed with read repair, ids asked of
//! the replicas that hold them, collection-wide queries scattered over
//! every member and gathered here, and aggregates split by the ring ranges
//! each node serves first.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::Ordering;

use datablinder_codec::{Reader, Writer};
use datablinder_docstore::Value;
use datablinder_netsim::{NetError, Refusal};
use datablinder_sse::DocId;

use super::replica::Reply;
use super::{ClusterCloud, Topology};
use crate::cloud::{split_collection, with_collection};
use crate::cloudproto::{
    batch_items, check_inner, Fetch, GetMany, PaillierCombine, PaillierSum, PaillierSumResponse, RangeSelect,
    RangedRead, Route, FETCH_ROUTE, READ_BATCH_ROUTE,
};
use crate::error::CoreError;
use crate::sync::doc_key;
use crate::tactics::{decode_ids, encode_ids};
use crate::wire::decode_document;

/// A whole buffer as one count-prefixed list of byte fields: a node's
/// `get_many` answer.
fn byte_list(buf: &[u8]) -> Result<Vec<&[u8]>, NetError> {
    Ok(datablinder_codec::decode(buf, |r| Ok::<_, CoreError>(r.list()?))?)
}

impl ClusterCloud {
    pub(super) fn clustered_read(
        &self,
        topo: &Topology,
        route: Route<'_>,
        payload: &[u8],
    ) -> Result<Vec<u8>, NetError> {
        match route.name {
            "doc/get" => self.read_doc(topo, payload),
            "doc/get_many" => self.read_get_many(topo, &GetMany::decode(payload)?),
            FETCH_ROUTE => {
                let req = Fetch::decode(payload)?;
                let inner = check_inner(req.route, true)?;
                let ids = decode_ids(&self.clustered_read(topo, inner, req.payload)?)?;
                let hex: Vec<String> = ids.into_iter().map(DocId::to_hex).collect();
                let ids = hex.iter().map(String::as_bytes).collect();
                self.read_get_many(topo, &GetMany { collection: req.collection, ids, keep: req.keep })
            }
            "doc/count" => {
                let (collection, _) = split_collection(payload)?;
                let ids = self.union_ids(topo, collection)?;
                Ok((ids.len() as u64).to_be_bytes().to_vec())
            }
            "doc/list_ids" => {
                let (collection, _) = split_collection(payload)?;
                let ids = self.union_ids(topo, collection)?;
                let mut w = Writer::new();
                w.list(&ids);
                Ok(w.finish())
            }
            "doc/find_ids_eq" | "doc/find_ids_range" | "doc/find_ids_dnf" => {
                let mut union: BTreeSet<DocId> = BTreeSet::new();
                for resp in self.scatter(topo, route.name, payload)? {
                    union.extend(decode_ids(&resp)?);
                }
                Ok(encode_ids(&union.into_iter().collect::<Vec<_>>()))
            }
            "doc/extreme" => self.read_extreme(topo, payload),
            "doc/agg_plain" => self.read_agg_plain(topo, payload),
            READ_BATCH_ROUTE => {
                // Each item is answered as if it had come alone.
                let answers = batch_items(payload, true)?
                    .into_iter()
                    .map(|(route, payload)| self.clustered_read(topo, route, payload))
                    .collect::<Result<Vec<_>, _>>()?;
                let mut w = Writer::new();
                w.list(&answers);
                Ok(w.finish())
            }
            // A tactic's read goes to the replicas its scope's writes
            // clustered on, in ring order, failing over past dead nodes (a
            // Paillier sum to every node's share); any other to any node.
            _ => match route.tactic {
                Some(t) if (t.name, t.op) == ("paillier", "sum") => {
                    self.read_paillier_sum(topo, t.scope, route.name, payload)
                }
                Some(t) => self.first_live_of(topo, &topo.ring.replicas(t.key.as_bytes()), route.name, payload),
                None => self.first_live_of(topo, &topo.members.clone(), route.name, payload),
            },
        }
    }

    /// Probes every live replica of the document, answers with the majority
    /// value (lexicographically smallest on ties, so the answer is
    /// deterministic) and repairs divergent or missing replicas in place.
    fn read_doc(&self, topo: &Topology, payload: &[u8]) -> Result<Vec<u8>, NetError> {
        let (collection, id) = split_collection(payload)?;
        let replicas = topo.ring.replicas(&doc_key(collection, id));
        let replies: Vec<(usize, Reply)> =
            replicas.iter().map(|&i| (i, topo.replica(i).call("doc/get", payload))).collect();
        let mut counts: BTreeMap<&[u8], usize> = BTreeMap::new();
        for (_, reply) in &replies {
            if let Reply::Answered(body) = reply {
                *counts.entry(body.as_slice()).or_default() += 1;
            }
        }
        let Some(winner) = counts.iter().max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0))).map(|(body, _)| body.to_vec())
        else {
            // No replica produced the document: "not found" first, then
            // any other refusal, else nobody answered at all.
            let mut refusals = replies.iter().filter_map(|(_, reply)| match reply {
                Reply::Refused(kind, m) => Some((*kind, m)),
                _ => None,
            });
            let refusal = refusals.clone().find(|&(kind, _)| kind == Refusal::NotFound).or_else(|| refusals.next());
            return Err(match refusal {
                Some((kind, m)) => NetError::Remote(kind, m.clone()),
                None => NetError::Unavailable(format!("no live replica answered doc/get in {collection}")),
            });
        };
        for (i, reply) in &replies {
            let repair_route = match reply {
                Reply::Answered(body) if *body != winner => "doc/update",
                Reply::Refused(Refusal::NotFound, _) => "doc/insert",
                _ => continue,
            };
            if let Reply::Answered(_) = topo.replica(*i).call(repair_route, &with_collection(collection, &winner)) {
                self.read_repairs.fetch_add(1, Ordering::Relaxed);
                self.obs.count("cluster.read_repair", 1);
            }
        }
        Ok(winner)
    }

    /// Answers `get_many` from where the documents live: each id is asked of
    /// its first live replica only, with the request's keep list, an id
    /// that node does not return is asked of the id's next live replica, and
    /// the answer is the byte slices the nodes sent, spliced together in
    /// request order — no document is decoded or encoded here. Like one
    /// engine, it skips ids nobody holds; an id none of whose replicas
    /// answered at all is [`NetError::Unavailable`], since the document may
    /// exist.
    fn read_get_many(&self, topo: &Topology, req: &GetMany<'_>) -> Result<Vec<u8>, NetError> {
        /// One requested id still looking for its document.
        struct Want {
            /// Position in the request.
            pos: usize,
            /// Replicas not yet asked, in ring order.
            untried: std::vec::IntoIter<usize>,
            /// Whether any replica has answered for this id.
            answered: bool,
        }

        let (collection, requested) = (req.collection, &req.ids);
        // Non-UTF-8 ids name nothing, here as on one engine.
        let mut wanted: Vec<Want> = (0..requested.len())
            .filter(|&pos| std::str::from_utf8(requested[pos]).is_ok())
            .map(|pos| Want {
                pos,
                untried: topo.ring.replicas(&doc_key(collection, requested[pos])).into_iter(),
                answered: false,
            })
            .collect();

        // Node answers, and per requested position the answer and the place
        // in it where the document lies.
        let mut answers: Vec<Vec<u8>> = Vec::new();
        let mut found: Vec<Option<(usize, usize)>> = vec![None; requested.len()];
        while !wanted.is_empty() {
            let mut per_node: BTreeMap<usize, Vec<Want>> = BTreeMap::new();
            for mut want in wanted.drain(..) {
                match want.untried.find(|&node| topo.replica(node).is_alive()) {
                    Some(node) => per_node.entry(node).or_default().push(want),
                    None if want.answered => {}
                    None => {
                        let id = String::from_utf8_lossy(requested[want.pos]);
                        return Err(NetError::Unavailable(format!("every replica of document {id} is unreachable")));
                    }
                }
            }
            for (node, asked) in per_node {
                let ids = asked.iter().map(|want| requested[want.pos]).collect();
                let sub = GetMany { collection, ids, keep: req.keep.clone() };
                let reply = topo.replica(node).call("doc/get_many", &sub.encode());
                let Some(answer) = reply.decided() else {
                    wanted.extend(asked);
                    continue;
                };
                let answer = answer?;
                // The node answers in the order asked and leaves out what it
                // does not hold: one walk over both pairs them up.
                let docs = byte_list(&answer)?;
                let mut asked = asked.into_iter().map(|want| Want { answered: true, ..want });
                for (at, doc) in docs.iter().enumerate() {
                    let id = Reader::new(doc).bytes().map_err(CoreError::from)?;
                    loop {
                        let want = asked.next().ok_or_else(|| NetError::from(CoreError::Wire("get_many answer")))?;
                        if requested[want.pos] == id {
                            found[want.pos] = Some((answers.len(), at));
                            break;
                        }
                        wanted.push(want);
                    }
                }
                wanted.extend(asked);
                answers.push(answer);
            }
        }

        let answers: Vec<Vec<&[u8]>> = answers.iter().map(|answer| byte_list(answer)).collect::<Result<_, _>>()?;
        let mut w = Writer::new();
        w.list_with(found.into_iter().flatten(), |(answer, at), w| {
            w.raw(answers[answer][at]);
        });
        Ok(w.finish())
    }

    /// Scatter-gathers `extreme`: each node nominates its local extreme,
    /// the cluster fetches the candidates and compares their stored bytes
    /// (ties break toward the smaller id, so the answer is deterministic).
    fn read_extreme(&self, topo: &Topology, payload: &[u8]) -> Result<Vec<u8>, NetError> {
        let (collection, rest) = split_collection(payload)?;
        if rest.is_empty() {
            return Err(NetError::from(CoreError::Wire("extreme payload")));
        }
        let want_max = rest[0] == 1;
        let field = std::str::from_utf8(&rest[1..]).map_err(|_| NetError::from(CoreError::Wire("utf8 field")))?;
        let mut candidates: BTreeSet<String> = BTreeSet::new();
        for resp in self.scatter(topo, "doc/extreme", payload)? {
            if !resp.is_empty() {
                candidates.insert(String::from_utf8(resp).map_err(|_| NetError::from(CoreError::Wire("utf8 id")))?);
            }
        }
        let mut best: Option<(Vec<u8>, String)> = None;
        for id in candidates {
            let body = match self.read_doc(topo, &with_collection(collection, id.as_bytes())) {
                Ok(body) => body,
                // The candidate vanished between the scatter and the fetch.
                Err(NetError::Remote(Refusal::NotFound, _)) => continue,
                Err(e) => return Err(e),
            };
            let doc = decode_document(&body)?;
            let Some(bytes) = doc.get(field).and_then(Value::as_bytes).map(<[u8]>::to_vec) else {
                continue;
            };
            best = Some(match best {
                None => (bytes, id),
                Some(prev) => {
                    let challenger = (bytes, id);
                    let challenger_wins = match challenger.0.cmp(&prev.0) {
                        std::cmp::Ordering::Equal => challenger.1 < prev.1,
                        std::cmp::Ordering::Greater => want_max,
                        std::cmp::Ordering::Less => !want_max,
                    };
                    if challenger_wins {
                        challenger
                    } else {
                        prev
                    }
                }
            });
        }
        Ok(best.map(|(_, id)| id.into_bytes()).unwrap_or_default())
    }

    /// Distributes a plaintext aggregate: each node sums the documents in
    /// the ring ranges it serves first (`doc/agg_plain_ranges`), and the
    /// partial sums and counts are added here, in node order.
    fn read_agg_plain(&self, topo: &Topology, payload: &[u8]) -> Result<Vec<u8>, NetError> {
        let mut sum = 0.0f64;
        let mut count = 0u64;
        for (node, ranged) in self.first_live_reads(topo, payload)? {
            let resp = self.partial(topo, node, "doc/agg_plain_ranges", &ranged)?;
            let (s, c) =
                datablinder_codec::decode(&resp, |r| Ok::<_, CoreError>((f64::from_bits(r.u64()?), r.u64()?)))?;
            sum += s;
            count += c;
        }
        let mut out = sum.to_be_bytes().to_vec();
        out.extend_from_slice(&count.to_be_bytes());
        Ok(out)
    }

    /// Distributes a Paillier sum: each node folds its share under the
    /// public key the request carries, and one of them multiplies the
    /// partial ciphertexts together (`combine`) — the cluster never needs
    /// the secret key, preserving the tactic's security model, and no node
    /// needs to have seen the key before. A whole-collection sum asks each
    /// node for the ring ranges it serves first (`sum_ranges`), which the
    /// node carries between requests; a filtered one sends each id to its
    /// first live replica.
    fn read_paillier_sum(
        &self,
        topo: &Topology,
        scope: &str,
        route: &str,
        payload: &[u8],
    ) -> Result<Vec<u8>, NetError> {
        let req = PaillierSum::decode(payload)?;
        let (route, calls) = if req.ids.is_empty() {
            (format!("tactic/paillier/{scope}/sum_ranges"), self.first_live_reads(topo, payload)?)
        } else {
            let mut sub = PaillierSum { ids: Vec::new(), ..req.clone() };
            let per_node = self.partition_ids(topo, &req.collection, req.ids)?;
            let calls = per_node.into_iter().map(|(node, ids)| {
                sub.ids = ids;
                (node, sub.encode())
            });
            (route.to_string(), calls.collect())
        };
        let mut partials = Vec::with_capacity(calls.len());
        for (node, call) in &calls {
            partials.push(self.partial(topo, *node, &route, call)?);
        }
        let Some(&(at, _)) = calls.first() else {
            return Ok(PaillierSumResponse { ciphertext: Vec::new(), count: 0 }.encode());
        };
        if partials.len() == 1 {
            return Ok(partials.pop().expect("one partial"));
        }
        let combine = PaillierCombine { modulus: req.modulus, partials };
        // A node that just served a partial is reachable.
        self.partial(topo, at, &format!("tactic/paillier/{scope}/combine"), &combine.encode())
    }

    /// One node's part of a distributed aggregate; a node that does not
    /// answer fails the whole read.
    fn partial(&self, topo: &Topology, node: usize, route: &str, payload: &[u8]) -> Result<Vec<u8>, NetError> {
        topo.replica(node)
            .call(route, payload)
            .decided()
            .unwrap_or_else(|| Err(NetError::Unavailable(format!("{route} on node {node} unreachable"))))
    }

    /// `request` restricted, per live node, to the ring ranges that node
    /// serves first: one [`RangedRead`] each, together covering every
    /// document once, as `partition_ids` would.
    fn first_live_reads(&self, topo: &Topology, request: &[u8]) -> Result<Vec<(usize, Vec<u8>)>, NetError> {
        let per_node = topo.ring.first_live_ranges(|node| topo.replica(node).is_alive()).ok_or_else(|| {
            NetError::Unavailable("a ring range has no live replica: an aggregate would be partial".into())
        })?;
        Ok(per_node
            .into_iter()
            .map(|(node, ranges)| {
                let select = RangeSelect { seed: self.cfg.seed, ranges, include_broadcast: false };
                (node, RangedRead { request: request.to_vec(), select }.encode())
            })
            .collect())
    }

    /// Fans a read out to every live node. Fails with
    /// [`NetError::Unavailable`] when the unreachable set is large enough
    /// that some key could have *no* live replica (the union might miss
    /// documents) and propagates application errors conservatively.
    fn scatter(&self, topo: &Topology, route: &str, payload: &[u8]) -> Result<Vec<Vec<u8>>, NetError> {
        let mut out = Vec::with_capacity(topo.members.len());
        let mut unreachable = 0usize;
        let mut app_err: Option<NetError> = None;
        for &i in &topo.members {
            match topo.replica(i).call(route, payload) {
                Reply::Answered(resp) => out.push(resp),
                Reply::Refused(kind, m) => app_err = Some(NetError::Remote(kind, m)),
                Reply::Unreachable => unreachable += 1,
            }
        }
        if unreachable >= self.cfg.replication {
            return Err(NetError::Unavailable(format!(
                "{unreachable} of {} nodes unreachable with {}-way replication: scatter result would be partial",
                topo.members.len(),
                self.cfg.replication
            )));
        }
        if let Some(e) = app_err {
            return Err(e);
        }
        Ok(out)
    }

    /// Tries `candidates` in order; the first node that answers (success or
    /// deterministic refusal) decides.
    fn first_live_of(
        &self,
        topo: &Topology,
        candidates: &[usize],
        route: &str,
        payload: &[u8],
    ) -> Result<Vec<u8>, NetError> {
        for &i in candidates {
            if let Some(decision) = topo.replica(i).call(route, payload).decided() {
                return decision;
            }
        }
        Err(NetError::Unavailable(format!("no live replica for {route}")))
    }

    /// The distinct document ids of a collection across all live nodes.
    fn union_ids(&self, topo: &Topology, collection: &str) -> Result<Vec<String>, NetError> {
        let payload = with_collection(collection, &[]);
        let mut union: BTreeSet<String> = BTreeSet::new();
        for resp in self.scatter(topo, "doc/list_ids", &payload)? {
            let mut r = Reader::new(&resp);
            for id in r.list().map_err(CoreError::from)? {
                union.insert(String::from_utf8(id.to_vec()).map_err(|_| NetError::from(CoreError::Wire("utf8 id")))?);
            }
        }
        Ok(union.into_iter().collect())
    }

    /// Assigns each document id to the first live node of its replica set.
    fn partition_ids(
        &self,
        topo: &Topology,
        collection: &str,
        ids: Vec<String>,
    ) -> Result<BTreeMap<usize, Vec<String>>, NetError> {
        let mut per_node: BTreeMap<usize, Vec<String>> = BTreeMap::new();
        for id in ids {
            let replicas = topo.ring.replicas(&doc_key(collection, id.as_bytes()));
            let Some(&live) = replicas.iter().find(|&&r| topo.replica(r).is_alive()) else {
                return Err(NetError::Unavailable(format!("every replica of document {id} is down")));
            };
            per_node.entry(live).or_default().push(id);
        }
        Ok(per_node)
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::insert_payload;
    use super::super::ClusterConfig;
    use super::*;
    use datablinder_netsim::CloudService;

    #[test]
    fn read_repair_heals_a_stale_replica() {
        let cluster = ClusterCloud::new(ClusterConfig::volatile(3, 2, 1, 11)).unwrap();
        cluster.handle("doc/insert", &insert_payload("notes", 3)).unwrap();
        let id = DocId([3; 16]).to_hex();
        let replicas = cluster.doc_replicas("notes", &id);
        // Erase the document on one replica behind the cluster's back.
        cluster.with_node_engine(replicas[1], |e| e.docs().collection("notes").delete(&id).unwrap()).unwrap();
        cluster.handle("doc/get", &with_collection("notes", id.as_bytes())).unwrap();
        assert_eq!(cluster.read_repairs(), 1);
        let healed = cluster.with_node_engine(replicas[1], |e| e.docs().collection("notes").contains(&id)).unwrap();
        assert!(healed, "read repair reinserted the lost replica");
    }

    #[test]
    fn read_batch_answers_each_item_as_alone_and_refuses_writes_and_nesting() {
        use crate::cloudproto::{decode_batch_answer, encode_batch};
        use crate::spi::CloudCall;

        let cluster = ClusterCloud::new(ClusterConfig::volatile(4, 2, 2, 17)).unwrap();
        for i in 1..=5u8 {
            cluster.handle("doc/insert", &insert_payload("notes", i)).unwrap();
        }
        let count = CloudCall::new("doc/count", with_collection("notes", &[]));
        let get = CloudCall::new("doc/get", with_collection("notes", DocId([2; 16]).to_hex().as_bytes()));
        let out = cluster.handle(READ_BATCH_ROUTE, &encode_batch(&[count.clone(), get.clone()])).unwrap();
        let answers = decode_batch_answer(&out, 2).unwrap();
        assert_eq!(answers[0], cluster.handle(&count.route, &count.payload).unwrap());
        assert_eq!(answers[1], cluster.handle(&get.route, &get.payload).unwrap());

        let count_before = cluster.handle("doc/count", &count.payload).unwrap();
        let traced = datablinder_obs::trace::encode_traced(
            datablinder_obs::trace::TraceCtx { trace_id: 1, span_id: 1 },
            "doc/insert",
            &insert_payload("notes", 9),
        );
        for refused in [
            CloudCall::new("doc/insert", insert_payload("notes", 9)),
            CloudCall::new("batch", encode_batch(std::slice::from_ref(&count))),
            CloudCall::new(READ_BATCH_ROUTE, encode_batch(std::slice::from_ref(&count))),
            // A traced envelope would carry the write past the check to one
            // node, outside any quorum.
            CloudCall::new(datablinder_obs::trace::TRACED_ROUTE, traced),
        ] {
            let err = cluster.handle(READ_BATCH_ROUTE, &encode_batch(&[count.clone(), refused.clone()])).unwrap_err();
            assert!(matches!(&err, NetError::Remote(Refusal::Unsupported, _)), "{}: {err}", refused.route);
        }
        assert_eq!(cluster.handle("doc/count", &count.payload).unwrap(), count_before, "the write never ran");
    }

    #[test]
    fn fetch_refuses_an_inner_write_batch_or_envelope_before_it_runs() {
        use crate::cloudproto::{encode_batch, Fetch, FindIdsEq, Idempotent, FETCH_ROUTE};
        use crate::spi::CloudCall;
        use datablinder_obs::trace::{encode_traced, TraceCtx, TRACED_ROUTE};

        let cluster = ClusterCloud::new(ClusterConfig::volatile(5, 3, 2, 19)).unwrap();
        for i in 1..=4u8 {
            cluster.handle("doc/insert", &insert_payload("notes", i)).unwrap();
        }
        let find = FindIdsEq { collection: "notes".into(), field: "v".into(), value: Value::from(1i64) }.encode();
        let fetch =
            |route: &'static str, payload: &[u8]| Fetch { collection: "notes", keep: vec![], route, payload }.encode();
        let count = CloudCall::new("doc/count", with_collection("notes", &[]));
        let count_before = cluster.handle(&count.route, &count.payload).unwrap();
        let insert = insert_payload("notes", 99);
        let envelope = Idempotent { token: [5; 16], route: "doc/insert".into(), payload: insert.clone() };
        for (route, payload) in [
            ("doc/insert", insert.clone()),
            ("batch", encode_batch(std::slice::from_ref(&count))),
            (READ_BATCH_ROUTE, encode_batch(std::slice::from_ref(&count))),
            ("idem", envelope.encode()),
            (TRACED_ROUTE, encode_traced(TraceCtx { trace_id: 1, span_id: 1 }, "doc/insert", &insert)),
            (FETCH_ROUTE, fetch("doc/find_ids_eq", &find)),
        ] {
            let err = cluster.handle(FETCH_ROUTE, &fetch(route, &payload)).unwrap_err();
            assert!(matches!(&err, NetError::Remote(Refusal::Unsupported, _)), "{route}: {err}");
        }
        assert_eq!(cluster.handle(&count.route, &count.payload).unwrap(), count_before, "the write never ran");
    }

    #[test]
    fn scatter_reads_union_across_partitions() {
        let cluster = ClusterCloud::new(ClusterConfig::volatile(4, 1, 1, 13)).unwrap();
        for i in 1..=6u8 {
            cluster.handle("doc/insert", &insert_payload("notes", i)).unwrap();
        }
        // With R=1 every doc lives on exactly one node, so the count only
        // comes out right if the read really unions all partitions.
        let count = cluster.handle("doc/count", &with_collection("notes", &[])).unwrap();
        assert_eq!(u64::from_be_bytes(count[..8].try_into().unwrap()), 6);
        let ids = cluster.handle("doc/list_ids", &with_collection("notes", &[])).unwrap();
        let mut r = Reader::new(&ids);
        assert_eq!(r.list().unwrap().len(), 6);
    }
}
