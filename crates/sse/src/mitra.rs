//! Mitra — forward and backward private dynamic SSE
//! (Ghareh Chamani, Papadopoulos, Papamanthou, Jalili; CCS 2018).
//!
//! Protection class 2, leakage *Identifiers*. Table 2 lists its integration
//! challenge as **local storage**: the client must keep a counter per
//! keyword, which [`MitraClient`] holds and can export/import so a gateway
//! can persist it.
//!
//! Construction (faithful to the paper's Mitra):
//!
//! * per keyword `w` the client keeps `FileCnt[w]`;
//! * update `(w, id, op)`: `c = FileCnt[w] += 1`;
//!   `addr = H(K_w, c || 0)`, `val = (id || op) ⊕ H(K_w, c || 1)`;
//!   the server stores the opaque `addr → val` pair;
//! * search `w`: the client sends all `addr_1..addr_c`; the server returns
//!   the values; the client unmasks and filters deletions locally.
//!
//! The server sees only random-looking addresses — updates leak nothing
//! about which keyword they touch (forward privacy), and deletions are
//! indistinguishable from additions (backward privacy type-II).

use std::collections::HashMap;

use datablinder_kvstore::KvStore;
use datablinder_primitives::keys::SymmetricKey;
use datablinder_primitives::prf::{HmacPrf, Prf};

use crate::{set_once, DocId, SseError, UpdateOp};
use datablinder_codec::{Reader, Writer};

/// One masked index entry travelling gateway → cloud.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MitraUpdateToken {
    /// Pseudorandom storage address.
    pub addr: [u8; 32],
    /// Masked `(id || op)` payload (17 bytes XOR keystream).
    pub val: [u8; 17],
}

impl MitraUpdateToken {
    /// Serializes for the channel.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::from(Vec::with_capacity(8 + 32 + 17));
        w.bytes(&self.addr).bytes(&self.val);
        w.finish()
    }

    /// Deserializes.
    ///
    /// # Errors
    ///
    /// [`SseError::Malformed`] on bad framing.
    pub fn decode(buf: &[u8]) -> Result<Self, SseError> {
        let mut r = Reader::new(buf);
        let addr = r.array::<32>()?;
        let val = r.array::<17>()?;
        r.finish()?;
        Ok(MitraUpdateToken { addr, val })
    }
}

/// A search request: the addresses of every version of the keyword's list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MitraSearchToken {
    /// Addresses `addr_1..addr_c`.
    pub addrs: Vec<[u8; 32]>,
}

impl MitraSearchToken {
    /// Serializes for the channel.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.list(&self.addrs.iter().map(|a| a.to_vec()).collect::<Vec<_>>());
        w.finish()
    }

    /// Deserializes.
    ///
    /// # Errors
    ///
    /// [`SseError::Malformed`] on bad framing.
    pub fn decode(buf: &[u8]) -> Result<Self, SseError> {
        let mut r = Reader::new(buf);
        let items = r.list()?;
        r.finish()?;
        let addrs = items
            .into_iter()
            .map(|v| v.try_into().map_err(|_| SseError::Malformed("mitra addr")))
            .collect::<Result<Vec<[u8; 32]>, _>>()?;
        Ok(MitraSearchToken { addrs })
    }
}

/// The gateway-side half: keys plus the per-keyword counter state.
pub struct MitraClient {
    prf: HmacPrf,
    counters: HashMap<Vec<u8>, u64>,
}

impl MitraClient {
    /// Creates a client with empty state.
    pub fn new(key: &SymmetricKey) -> Self {
        MitraClient { prf: HmacPrf::new(key.derive(b"mitra", 32)), counters: HashMap::new() }
    }

    /// Produces the update token for `(keyword, id, op)`, bumping the
    /// local counter.
    pub fn update_token(&mut self, keyword: &[u8], id: DocId, op: UpdateOp) -> MitraUpdateToken {
        // The keyword is copied only the first time it is seen.
        let c = match self.counters.get_mut(keyword) {
            Some(c) => {
                *c += 1;
                *c
            }
            None => *self.counters.entry(keyword.to_vec()).or_insert(1),
        };
        let addr = self.addr(keyword, c);
        let mask = self.prf.eval_parts(&[b"mask", keyword, &c.to_be_bytes()]);
        let mut val = [0u8; 17];
        val[..16].copy_from_slice(&id.0);
        val[16] = op.to_byte();
        for (v, m) in val.iter_mut().zip(mask.iter()) {
            *v ^= m;
        }
        MitraUpdateToken { addr, val }
    }

    /// Produces the search token for `keyword` (all current addresses).
    pub fn search_token(&self, keyword: &[u8]) -> MitraSearchToken {
        let c = self.counters.get(keyword).copied().unwrap_or(0);
        let addrs = (1..=c).map(|i| self.addr(keyword, i)).collect();
        MitraSearchToken { addrs }
    }

    /// Unmasks server results and resolves add/delete history into the
    /// live set of document ids.
    ///
    /// Zero-length entries mark addresses the server has no value for. That
    /// happens when an update was minted locally (advancing the counter) but
    /// its write never reached the cloud — e.g. an aborted batch tail or a
    /// dropped message. Such gaps are skipped so that a failed write degrades
    /// to "that update is missing" instead of poisoning every later search
    /// for the keyword.
    ///
    /// # Errors
    ///
    /// [`SseError::Malformed`] if a present entry has the wrong size or op
    /// byte.
    pub fn resolve<V: AsRef<[u8]>>(&self, keyword: &[u8], values: &[V]) -> Result<Vec<DocId>, SseError> {
        let mut live: Vec<DocId> = Vec::new();
        for (i, v) in values.iter().enumerate() {
            let v = v.as_ref();
            if v.is_empty() {
                continue;
            }
            if v.len() != 17 {
                return Err(SseError::Malformed("mitra entry size"));
            }
            let c = (i + 1) as u64;
            let mask = self.prf.eval_parts(&[b"mask", keyword, &c.to_be_bytes()]);
            let mut plain = [0u8; 17];
            for (j, p) in plain.iter_mut().enumerate() {
                *p = v[j] ^ mask[j];
            }
            let mut idb = [0u8; 16];
            idb.copy_from_slice(&plain[..16]);
            let id = DocId(idb);
            match UpdateOp::from_byte(plain[16]).ok_or(SseError::Malformed("mitra op byte"))? {
                UpdateOp::Add => live.push(id),
                UpdateOp::Delete => live.retain(|x| *x != id),
            }
        }
        live.sort();
        live.dedup();
        Ok(live)
    }

    /// Number of updates issued for `keyword`.
    pub fn counter(&self, keyword: &[u8]) -> u64 {
        self.counters.get(keyword).copied().unwrap_or(0)
    }

    /// Exports the counter state (the paper's "local storage" challenge) so
    /// the gateway can persist it.
    pub fn export_state(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u32(self.counters.len() as u32);
        let mut entries: Vec<_> = self.counters.iter().collect();
        entries.sort();
        for (k, v) in entries {
            w.bytes(k).u64(*v);
        }
        w.finish()
    }

    /// Restores exported state.
    ///
    /// # Errors
    ///
    /// [`SseError::Malformed`] on bad framing.
    pub fn import_state(&mut self, state: &[u8]) -> Result<(), SseError> {
        let mut r = Reader::new(state);
        let n = r.u32()?;
        let mut counters = HashMap::new();
        for _ in 0..n {
            let k = r.bytes()?;
            let v = r.u64()?;
            counters.insert(k.to_vec(), v);
        }
        r.finish()?;
        self.counters = counters;
        Ok(())
    }

    fn addr(&self, keyword: &[u8], c: u64) -> [u8; 32] {
        self.prf.eval_parts(&[b"addr", keyword, &c.to_be_bytes()])
    }
}

/// The cloud-side half: a dumb encrypted map over the KV store.
pub struct MitraServer {
    kv: KvStore,
    prefix: Vec<u8>,
}

impl MitraServer {
    /// Creates a server storing under `prefix` in `kv`.
    pub fn new(kv: KvStore, prefix: &[u8]) -> Self {
        MitraServer { kv, prefix: prefix.to_vec() }
    }

    /// Stores one masked entry. A replay of a stored entry is `Ok`.
    ///
    /// # Errors
    ///
    /// [`SseError::AddressTaken`] when the address holds a different entry,
    /// which stays.
    pub fn apply_update(&self, token: &MitraUpdateToken) -> Result<(), SseError> {
        set_once(&self.kv, &self.key(&token.addr), &token.val)
    }

    /// Fetches the values for a search token, in address order.
    /// Missing addresses yield empty entries (malformed tokens are the
    /// gateway's problem, surfaced at resolution).
    pub fn search(&self, token: &MitraSearchToken) -> Vec<Vec<u8>> {
        token.addrs.iter().map(|a| self.kv.get(&self.key(a)).unwrap_or_default()).collect()
    }

    /// Number of stored entries under this server's prefix.
    pub fn entry_count(&self) -> usize {
        self.kv.keys_with_prefix(&self.prefix).len()
    }

    fn key(&self, addr: &[u8; 32]) -> Vec<u8> {
        let mut k = self.prefix.clone();
        k.extend_from_slice(addr);
        k
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (MitraClient, MitraServer) {
        let key = SymmetricKey::from_bytes(&[3u8; 32]);
        (MitraClient::new(&key), MitraServer::new(KvStore::new(), b"mitra:"))
    }

    fn id(n: u8) -> DocId {
        DocId([n; 16])
    }

    #[test]
    fn add_and_search() {
        let (mut client, server) = setup();
        for n in 1..=3 {
            let t = client.update_token(b"cancer", id(n), UpdateOp::Add);
            server.apply_update(&t).unwrap();
        }
        server.apply_update(&client.update_token(b"diabetes", id(9), UpdateOp::Add)).unwrap();

        let token = client.search_token(b"cancer");
        let results = server.search(&token);
        let ids = client.resolve(b"cancer", &results).unwrap();
        assert_eq!(ids, vec![id(1), id(2), id(3)]);

        let ids = client.resolve(b"diabetes", &server.search(&client.search_token(b"diabetes"))).unwrap();
        assert_eq!(ids, vec![id(9)]);
    }

    #[test]
    fn an_address_is_written_once_and_a_replay_is_ok() {
        let (mut client, server) = setup();
        let first = client.update_token(b"w", id(1), UpdateOp::Add);
        server.apply_update(&first).unwrap();
        server.apply_update(&first).unwrap();
        // A client that lost its counters starts over at address 1.
        let key = SymmetricKey::from_bytes(&[3u8; 32]);
        let restarted = MitraClient::new(&key).update_token(b"w", id(2), UpdateOp::Add);
        assert_eq!(restarted.addr, first.addr);
        assert_eq!(server.apply_update(&restarted), Err(SseError::AddressTaken));
        let ids = client.resolve(b"w", &server.search(&client.search_token(b"w"))).unwrap();
        assert_eq!(ids, vec![id(1)], "the acknowledged entry survives");
    }

    #[test]
    fn delete_removes_from_results() {
        let (mut client, server) = setup();
        server.apply_update(&client.update_token(b"w", id(1), UpdateOp::Add)).unwrap();
        server.apply_update(&client.update_token(b"w", id(2), UpdateOp::Add)).unwrap();
        server.apply_update(&client.update_token(b"w", id(1), UpdateOp::Delete)).unwrap();
        let ids = client.resolve(b"w", &server.search(&client.search_token(b"w"))).unwrap();
        assert_eq!(ids, vec![id(2)]);
    }

    #[test]
    fn search_unknown_keyword_is_empty() {
        let (client, server) = setup();
        let token = client.search_token(b"never-seen");
        assert!(token.addrs.is_empty());
        assert!(server.search(&token).is_empty());
        assert_eq!(client.resolve(b"never-seen", &[] as &[&[u8]]).unwrap(), vec![]);
    }

    #[test]
    fn forward_privacy_shape_updates_look_random() {
        // Two updates for the same keyword share no address bytes pattern:
        // addresses must differ, and so must the masked values even for the
        // same document id.
        let (mut client, _) = setup();
        let t1 = client.update_token(b"w", id(1), UpdateOp::Add);
        let t2 = client.update_token(b"w", id(1), UpdateOp::Add);
        assert_ne!(t1.addr, t2.addr);
        assert_ne!(t1.val, t2.val);
    }

    #[test]
    fn tokens_encode_roundtrip() {
        let (mut client, _) = setup();
        let t = client.update_token(b"w", id(7), UpdateOp::Delete);
        assert_eq!(MitraUpdateToken::decode(&t.encode()).unwrap(), t);
        client.update_token(b"w", id(8), UpdateOp::Add);
        let s = client.search_token(b"w");
        assert_eq!(MitraSearchToken::decode(&s.encode()).unwrap(), s);
        assert!(MitraUpdateToken::decode(b"junk").is_err());
        assert!(MitraSearchToken::decode(&[0, 0, 0, 2, 0, 0, 0, 1, 9]).is_err());
    }

    #[test]
    fn state_export_import() {
        let (mut client, server) = setup();
        server.apply_update(&client.update_token(b"w", id(1), UpdateOp::Add)).unwrap();
        server.apply_update(&client.update_token(b"w", id(2), UpdateOp::Add)).unwrap();
        let state = client.export_state();

        // A fresh client (e.g. gateway restart) resumes from the state.
        let key = SymmetricKey::from_bytes(&[3u8; 32]);
        let mut client2 = MitraClient::new(&key);
        client2.import_state(&state).unwrap();
        assert_eq!(client2.counter(b"w"), 2);
        let ids = client2.resolve(b"w", &server.search(&client2.search_token(b"w"))).unwrap();
        assert_eq!(ids, vec![id(1), id(2)]);

        // Continue updating from restored state without address collisions.
        server.apply_update(&client2.update_token(b"w", id(3), UpdateOp::Add)).unwrap();
        let ids = client2.resolve(b"w", &server.search(&client2.search_token(b"w"))).unwrap();
        assert_eq!(ids, vec![id(1), id(2), id(3)]);
    }

    #[test]
    fn import_rejects_garbage() {
        let (mut client, _) = setup();
        assert!(client.import_state(&[1, 2, 3]).is_err());
    }

    #[test]
    fn resolve_rejects_bad_entries() {
        let (mut client, _) = setup();
        client.update_token(b"w", id(1), UpdateOp::Add);
        assert!(client.resolve(b"w", &[vec![0u8; 5]]).is_err());
    }

    #[test]
    fn resolve_skips_missing_entries() {
        // Counter advanced twice but only the second write reached the
        // server: the gap resolves to "update lost", not an error.
        let (mut client, server) = setup();
        let _lost = client.update_token(b"w", id(1), UpdateOp::Add);
        server.apply_update(&client.update_token(b"w", id(2), UpdateOp::Add)).unwrap();
        let ids = client.resolve(b"w", &server.search(&client.search_token(b"w"))).unwrap();
        assert_eq!(ids, vec![id(2)]);
    }
}
