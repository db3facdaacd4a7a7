//! The write path: where a write route lands on the ring, the quorum
//! fan-out that sends it there, and the decomposition of a sealed batch into
//! per-item quorum writes.

use datablinder_codec::{Reader, Writer};
use datablinder_netsim::NetError;

use super::replica::Reply;
use super::{token16, ClusterCloud, Topology};
use crate::cloud::split_collection;
use crate::cloudproto::{batch_items, Idempotent, Route, RouteClass, IDEM_ROUTE};
use crate::error::CoreError;
use crate::sync::doc_key;

/// Derives the idempotency token of batch item `idx` from the enclosing
/// envelope's token: deterministic, so a retried batch re-derives the same
/// per-item tokens and every replica's dedup cache absorbs the replay even
/// when the retry reaches a different subset of nodes.
fn sub_token(token: &[u8; 16], idx: u64) -> [u8; 16] {
    token16(&[token, &idx.to_be_bytes()])
}

/// The members a write lands on: the replicas of the one key a keyed write
/// changes — a document, or a tactic scope's index, so the scope's searches
/// read the replicas its updates wrote — or every member.
pub(super) fn write_replicas(topo: &Topology, route: Route<'_>, payload: &[u8]) -> Result<Vec<usize>, CoreError> {
    if route.class != RouteClass::KeyedWrite {
        return Ok(topo.members.clone());
    }
    if let Some(t) = route.tactic {
        return Ok(topo.ring.replicas(t.key.as_bytes()));
    }
    let (collection, rest) = split_collection(payload)?;
    // A delete names its id; an insert or update carries it as the
    // document's first field, by design, so routing never decodes the rest.
    let id = if route.name == "doc/delete" { rest } else { Reader::new(rest).bytes()? };
    Ok(topo.ring.replicas(&doc_key(collection, id)))
}

/// Whether a journaled `(route, payload)` belongs on node `idx` under the
/// given topology. A record that does not parse names nothing to replay,
/// and sync applies never transfer between nodes.
pub(super) fn targets_node(topo: &Topology, route: &str, payload: &[u8], idx: usize) -> bool {
    let Some((_, route, payload)) = Route::parse(route).and_then(|route| route.unseal(payload).ok()) else {
        return false;
    };
    if matches!(route.name, "sync/put" | "sync/retire") {
        return false;
    }
    write_replicas(topo, route, payload).map_or(true, |replicas| replicas.contains(&idx))
}

impl ClusterCloud {
    /// Sends one write to its replica set and succeeds once W replicas
    /// durably acked. Replicas are tried in ring order (deterministic);
    /// down nodes count as missing acks.
    pub(super) fn quorum_write(
        &self,
        topo: &Topology,
        replicas: &[usize],
        route: &str,
        payload: &[u8],
    ) -> Result<Vec<u8>, NetError> {
        let quorum = self.cfg.write_quorum.min(replicas.len()).max(1);
        let mut span = self.obs.quiet_span("cluster.quorum_write");
        span.set_detail(route);
        let started = self.obs.start();
        let mut acks = 0usize;
        let mut first: Option<Vec<u8>> = None;
        let mut app_err: Option<NetError> = None;
        for &i in replicas {
            match topo.replica(i).call(route, payload) {
                Reply::Answered(resp) => {
                    acks += 1;
                    first.get_or_insert(resp);
                }
                Reply::Refused(kind, m) => app_err = Some(NetError::Remote(kind, m)),
                Reply::Unreachable => {}
            }
        }
        if let Some(t0) = started {
            self.obs.observe("cluster.write.quorum_latency", t0.elapsed());
        }
        if acks >= quorum {
            self.obs.count("cluster.write.quorum_ok", 1);
            return Ok(first.unwrap_or_default());
        }
        if let Some(e) = app_err {
            // Deterministic engines fail identically on every replica: the
            // application error *is* the answer, not an availability issue.
            span.fail();
            span.set_detail(&e.to_string());
            return Err(e);
        }
        self.obs.count("cluster.write.quorum_fail", 1);
        let message = format!("write quorum not met: {acks}/{quorum} acks for {route}");
        span.fail();
        span.set_detail(&message);
        Err(NetError::Unavailable(message))
    }

    /// Decomposes a batch: every write item becomes its own quorum write
    /// under a token derived from the batch's (so cross-replica retries
    /// dedup), reads run through the clustered read paths, and responses
    /// keep the original order. Like the single-node engine, the batch
    /// aborts on the first failing item.
    pub(super) fn handle_batch(&self, topo: &Topology, token: &[u8; 16], batch: &[u8]) -> Result<Vec<u8>, NetError> {
        let items = batch_items(batch, false)?;
        let mut responses = Vec::with_capacity(items.len());
        for (idx, (route, payload)) in items.into_iter().enumerate() {
            let resp = if route.writes() {
                let replicas = write_replicas(topo, route, payload)?;
                let sub = Idempotent {
                    token: sub_token(token, idx as u64),
                    route: route.name.to_string(),
                    payload: payload.to_vec(),
                };
                self.quorum_write(topo, &replicas, IDEM_ROUTE, &sub.encode())?
            } else {
                self.clustered_read(topo, route, payload)?
            };
            responses.push(resp);
        }
        let mut w = Writer::new();
        w.list(&responses);
        Ok(w.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::insert_payload;
    use super::super::ClusterConfig;
    use super::*;
    use datablinder_netsim::CloudService;
    use datablinder_sse::DocId;

    use crate::cloud::with_collection;

    #[test]
    fn write_replicates_and_survives_replica_loss() {
        let cluster = ClusterCloud::new(ClusterConfig::volatile(5, 3, 2, 9)).unwrap();
        cluster.handle("doc/insert", &insert_payload("notes", 1)).unwrap();
        let id = DocId([1; 16]).to_hex();
        let replicas = cluster.doc_replicas("notes", &id);
        assert_eq!(replicas.len(), 3);
        for &r in &replicas {
            let held = cluster.with_node_engine(r, |e| e.docs().collection("notes").contains(&id)).unwrap();
            assert!(held, "replica {r} holds the document");
        }
        // Killing R-1 replicas leaves the read answerable.
        cluster.kill_node(replicas[0]);
        cluster.kill_node(replicas[1]);
        let got = cluster.handle("doc/get", &with_collection("notes", id.as_bytes())).unwrap();
        assert!(!got.is_empty());
    }

    #[test]
    fn unmet_quorum_is_typed_unavailable_not_a_hang() {
        let cluster = ClusterCloud::new(ClusterConfig::volatile(3, 3, 3, 5)).unwrap();
        cluster.kill_node(0);
        let err = cluster.handle("doc/insert", &insert_payload("notes", 2)).unwrap_err();
        assert!(matches!(err, NetError::Unavailable(_)), "got {err:?}");
    }

    #[test]
    fn batch_sub_tokens_are_deterministic_and_distinct() {
        let t = [7u8; 16];
        assert_eq!(sub_token(&t, 0), sub_token(&t, 0));
        assert_ne!(sub_token(&t, 0), sub_token(&t, 1));
        assert_ne!(sub_token(&t, 0), sub_token(&[8u8; 16], 0));
    }
}
