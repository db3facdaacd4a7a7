//! Request/response payload codecs for the document-level cloud routes —
//! shared by gateway tactic adapters and the cloud engine.

use datablinder_codec::{decode, Malformed, Reader, Writer};
use datablinder_docstore::Value;
use datablinder_obs::trace::TRACED_ROUTE;

use crate::error::CoreError;
use crate::spi::CloudCall;
use crate::wire::{put_value, take_value};

/// `doc/find_ids_eq`: equality projection query over one stored field.
#[derive(Debug, Clone, PartialEq)]
pub struct FindIdsEq {
    /// Target collection.
    pub collection: String,
    /// Stored (shadow) field name.
    pub field: String,
    /// Stored value to match (ciphertext bytes for DET).
    pub value: Value,
}

impl FindIdsEq {
    /// Serializes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        put_value(&self.value, w.str(&self.collection).str(&self.field));
        w.finish()
    }

    /// Deserializes.
    ///
    /// # Errors
    ///
    /// [`CoreError::Wire`] on malformed input.
    pub fn decode(buf: &[u8]) -> Result<Self, CoreError> {
        decode(buf, |r| Ok(FindIdsEq { collection: r.str()?.into(), field: r.str()?.into(), value: take_value(r, 0)? }))
    }
}

/// `doc/find_ids_range`: inclusive range projection query.
#[derive(Debug, Clone, PartialEq)]
pub struct FindIdsRange {
    /// Target collection.
    pub collection: String,
    /// Stored (shadow) field name.
    pub field: String,
    /// Inclusive lower bound.
    pub lo: Value,
    /// Inclusive upper bound.
    pub hi: Value,
}

impl FindIdsRange {
    /// Serializes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        put_value(&self.lo, w.str(&self.collection).str(&self.field));
        put_value(&self.hi, &mut w);
        w.finish()
    }

    /// Deserializes.
    ///
    /// # Errors
    ///
    /// [`CoreError::Wire`] on malformed input.
    pub fn decode(buf: &[u8]) -> Result<Self, CoreError> {
        decode(buf, |r| {
            Ok(FindIdsRange {
                collection: r.str()?.into(),
                field: r.str()?.into(),
                lo: take_value(r, 0)?,
                hi: take_value(r, 0)?,
            })
        })
    }
}

/// `doc/find_ids_dnf`: boolean projection query in DNF over stored fields.
#[derive(Debug, Clone, PartialEq)]
pub struct FindIdsDnf {
    /// Target collection.
    pub collection: String,
    /// Disjunction of conjunctions of `(stored field, stored value)`.
    pub dnf: Vec<Vec<(String, Value)>>,
}

impl FindIdsDnf {
    /// Serializes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.str(&self.collection).u32(self.dnf.len() as u32);
        for conj in &self.dnf {
            w.u32(conj.len() as u32);
            for (f, v) in conj {
                put_value(v, w.str(f));
            }
        }
        w.finish()
    }

    /// Deserializes.
    ///
    /// # Errors
    ///
    /// [`CoreError::Wire`] on malformed input.
    pub fn decode(buf: &[u8]) -> Result<Self, CoreError> {
        decode(buf, |r| {
            let collection = r.str()?.into();
            let mut dnf = Vec::new();
            for _ in 0..r.count()? {
                let mut conj = Vec::new();
                for _ in 0..r.count()? {
                    conj.push((r.str()?.into(), take_value(r, 0)?));
                }
                dnf.push(conj);
            }
            Ok(FindIdsDnf { collection, dnf })
        })
    }
}

/// `doc/get_many`: the stored documents under `ids`, in request order,
/// skipping ids the cloud does not hold (an id that is not UTF-8 names
/// nothing).
///
/// With an empty `keep` list each document comes back whole and named
/// ([`crate::wire::encode_document`]). With a non-empty one — the stored
/// names the gateway opens, strictly ascending — each comes back by
/// position: its id, then per kept name the stored value or
/// [`crate::wire::ABSENT`], and no name or count. The list travels only
/// when it is non-empty, so a request without one is the same bytes as
/// before it existed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GetMany<'a> {
    /// Target collection.
    pub collection: &'a str,
    /// Document ids (the gateway's are hex).
    pub ids: Vec<&'a [u8]>,
    /// The keep list: stored names to answer by position, ascending.
    pub keep: Vec<&'a str>,
}

impl<'a> GetMany<'a> {
    /// Serializes.
    pub fn encode(&self) -> Vec<u8> {
        let len = self.ids.iter().map(|id| 4 + id.len()).sum::<usize>();
        let mut w = Writer::from(Vec::with_capacity(8 + self.collection.len() + len));
        w.str(self.collection).list(&self.ids);
        if !self.keep.is_empty() {
            w.list(&self.keep);
        }
        w.finish()
    }

    /// Deserializes, lending from `buf`.
    ///
    /// # Errors
    ///
    /// [`CoreError::Wire`] on malformed input, or a keep list that does not
    /// strictly ascend.
    pub fn decode(buf: &'a [u8]) -> Result<Self, CoreError> {
        decode(buf, |r| {
            let (collection, ids) = (r.str()?, r.list()?);
            let keep = match r.rest() {
                [] => Vec::new(),
                tail => decode(tail, |r| keep_list(r))?,
            };
            Ok(GetMany { collection, ids, keep })
        })
    }
}

/// A keep list: count-prefixed UTF-8 names, each above the one before, so
/// one merge walk against a document's sorted fields answers it.
fn keep_list<'a>(r: &mut Reader<'a>) -> Result<Vec<&'a str>, CoreError> {
    let names = r
        .list()?
        .into_iter()
        .map(|n| std::str::from_utf8(n).map_err(|_| CoreError::Wire("utf8 field")))
        .collect::<Result<Vec<_>, _>>()?;
    if names.windows(2).any(|pair| pair[0] >= pair[1]) {
        return Err(CoreError::Wire("keep list not strictly ascending"));
    }
    Ok(names)
}

/// Route of a fetch ([`Fetch`]): one read whose answer is an id list, and
/// the documents those ids name, in one round trip.
pub const FETCH_ROUTE: &str = "doc/fetch";

/// `doc/fetch`: runs `route` — a read whose answer is an encoded id list,
/// such as `doc/find_ids_eq` — and answers with the documents those ids
/// name, as `doc/get_many` over them with `keep` would. The gateway sends
/// one for a tactic that resolves in the cloud
/// ([`crate::spi::GatewayTactic::resolves_in_cloud`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fetch<'a> {
    /// Target collection of the documents.
    pub collection: &'a str,
    /// The keep list, as [`GetMany::keep`].
    pub keep: Vec<&'a str>,
    /// The inner read's route.
    pub route: &'a str,
    /// The inner read's payload.
    pub payload: &'a [u8],
}

impl<'a> Fetch<'a> {
    /// Serializes.
    pub fn encode(&self) -> Vec<u8> {
        let names = self.keep.iter().map(|n| 4 + n.len()).sum::<usize>();
        let mut w = Writer::from(Vec::with_capacity(16 + names + self.route.len() + self.payload.len()));
        w.str(self.collection).list(&self.keep).str(self.route).bytes(self.payload);
        w.finish()
    }

    /// Deserializes, lending from `buf`.
    ///
    /// # Errors
    ///
    /// [`CoreError::Wire`] on malformed input, or a keep list that does not
    /// strictly ascend.
    pub fn decode(buf: &'a [u8]) -> Result<Self, CoreError> {
        decode(buf, |r| {
            let (collection, keep) = (r.str()?, keep_list(r)?);
            Ok(Fetch { collection, keep, route: r.str()?, payload: r.bytes()? })
        })
    }
}

/// `tactic/paillier/<scope>/sum`: homomorphic sum over a stored ciphertext
/// field. The request names the key it is evaluated under, so the cloud
/// keeps nothing per scope and any node can answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PaillierSum {
    /// Target collection.
    pub collection: String,
    /// Stored (shadow) field with Paillier ciphertexts.
    pub field: String,
    /// The public modulus `n`, big-endian.
    pub modulus: Vec<u8>,
    /// Restrict to these document ids (hex); empty = whole collection.
    pub ids: Vec<String>,
}

impl PaillierSum {
    /// Serializes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.str(&self.collection).str(&self.field).bytes(&self.modulus).list(&self.ids);
        w.finish()
    }

    /// Deserializes.
    ///
    /// # Errors
    ///
    /// [`CoreError::Wire`] on malformed input.
    pub fn decode(buf: &[u8]) -> Result<Self, CoreError> {
        decode(buf, |r| {
            let (collection, field, modulus) = (r.str()?.into(), r.str()?.into(), r.bytes()?.to_vec());
            let ids = (0..r.count()?).map(|_| r.str().map(String::from)).collect::<Result<_, _>>()?;
            Ok(PaillierSum { collection, field, modulus, ids })
        })
    }
}

/// `tactic/paillier/<scope>/combine`: folds the partial sums of a clustered
/// cloud's partitions into one, under the key the partials were summed
/// under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PaillierCombine {
    /// The public modulus `n`, big-endian.
    pub modulus: Vec<u8>,
    /// Encoded [`PaillierSumResponse`]s, one per partition.
    pub partials: Vec<Vec<u8>>,
}

impl PaillierCombine {
    /// Serializes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.bytes(&self.modulus).list(&self.partials);
        w.finish()
    }

    /// Deserializes.
    ///
    /// # Errors
    ///
    /// [`CoreError::Wire`] on malformed input.
    pub fn decode(buf: &[u8]) -> Result<Self, CoreError> {
        decode(buf, |r| {
            let modulus = r.bytes()?.to_vec();
            Ok(PaillierCombine { modulus, partials: r.list()?.into_iter().map(<[u8]>::to_vec).collect() })
        })
    }
}

/// Response to a sum: accumulator ciphertext + number of contributing docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PaillierSumResponse {
    /// The homomorphic accumulator (empty when count is zero).
    pub ciphertext: Vec<u8>,
    /// Contributing document count.
    pub count: u64,
}

impl PaillierSumResponse {
    /// Serializes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u64(self.count).raw(&self.ciphertext);
        w.finish()
    }

    /// Deserializes.
    ///
    /// # Errors
    ///
    /// [`CoreError::Wire`] on malformed input.
    pub fn decode(buf: &[u8]) -> Result<Self, CoreError> {
        decode(buf, |r| Ok(PaillierSumResponse { count: r.u64()?, ciphertext: r.rest().to_vec() }))
    }
}

/// Route for idempotent write envelopes (see [`Idempotent`]).
pub const IDEM_ROUTE: &str = "idem";

/// Route of a batch: several calls in one round trip, executed in order,
/// aborting on the first failure, and answered as one list. A write; the
/// gateway seals it in one [`Idempotent`] envelope.
pub const BATCH_ROUTE: &str = "batch";

/// Route of a read-only batch: the independent reads one query needs, in
/// one round trip. It carries no write ([`Route::writes`]), so it is never
/// journaled, deduplicated or sealed, and an engine refuses any write item
/// inside it.
pub const READ_BATCH_ROUTE: &str = "batch/read";

/// What a route does to cloud state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteClass {
    /// Changes nothing: retried bare, never journaled.
    Read,
    /// Changes the state under one ring key — a document, or one tactic
    /// scope's index — on that key's replicas.
    KeyedWrite,
    /// Changes state every node holds: index definitions, setup keys, raw
    /// KV, a cluster's state transfers.
    BroadcastWrite,
    /// Carries other routes in its payload, and hides them from any check
    /// that reads only the outer route.
    Envelope,
}

/// The row prefix of a tactic route, `tactic/<name>/<scope>/<op>`: any
/// registered cloud tactic serves the ops its rows list.
const TACTIC_ROW: &str = "tactic/<name>/<scope>/";

/// Every route the cloud serves, and its class: the cloud column of the
/// paper's Table 1. A route not listed here is refused before anything
/// journals or fans it out.
#[rustfmt::skip]
pub const ROUTES: &[(&str, RouteClass)] = {
    use RouteClass::{BroadcastWrite, Envelope, KeyedWrite, Read};
    &[
        ("doc/insert", KeyedWrite), ("doc/update", KeyedWrite), ("doc/delete", KeyedWrite),
        ("doc/ensure_index", BroadcastWrite), ("doc/get", Read), ("doc/get_many", Read), (FETCH_ROUTE, Envelope),
        ("doc/count", Read), ("doc/extreme", Read), ("doc/list_ids", Read), ("doc/find_ids_eq", Read),
        ("doc/find_ids_range", Read), ("doc/find_ids_dnf", Read), ("doc/agg_plain", Read),
        ("doc/agg_plain_ranges", Read), ("kv/bulk_put", BroadcastWrite), ("kv/del_prefix", BroadcastWrite),
        ("tactic/<name>/<scope>/insert", KeyedWrite), ("tactic/<name>/<scope>/update", KeyedWrite),
        ("tactic/<name>/<scope>/delete", KeyedWrite), ("tactic/<name>/<scope>/setup", BroadcastWrite),
        ("tactic/<name>/<scope>/search", Read), ("tactic/<name>/<scope>/base_search", Read),
        ("tactic/<name>/<scope>/range", Read), ("tactic/<name>/<scope>/sum", Read),
        ("tactic/<name>/<scope>/sum_ranges", Read), ("tactic/<name>/<scope>/combine", Read),
        ("sync/tail", Read), ("sync/digest", Read), ("sync/entries", Read), ("sync/put", BroadcastWrite),
        ("sync/retire", BroadcastWrite), ("obs/snapshot", Read), (TRACED_ROUTE, Envelope), (IDEM_ROUTE, Envelope),
        (BATCH_ROUTE, Envelope), (READ_BATCH_ROUTE, Envelope),
    ]
};

/// A route parsed against [`ROUTES`], lent from the string it arrived as.
/// Everything that asks what a route is — engine dispatch, the journal, a
/// batch's checks, a cluster's read/write split — asks this value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Route<'a> {
    /// The route as sent; a route other than a tactic's is its row's name.
    pub name: &'a str,
    /// Its row's class.
    pub class: RouteClass,
    /// The segments of a tactic route.
    pub tactic: Option<TacticRoute<'a>>,
}

/// A request with its idempotent envelope, if it came in one, taken off:
/// the token it dedups on, and the route and payload it applies.
pub type Unsealed<'a> = (Option<[u8; 16]>, Route<'a>, &'a [u8]);

/// The segments of `tactic/<name>/<scope>/<op>`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TacticRoute<'a> {
    /// The cloud tactic that serves it.
    pub name: &'a str,
    /// Its `schema:field` scope.
    pub scope: &'a str,
    /// The operation, one of the tactic rows of [`ROUTES`].
    pub op: &'a str,
    /// `tactic/<name>/<scope>`: the ring key the scope's index clusters
    /// on, so its searches read the replicas its writes landed on.
    pub key: &'a str,
}

impl<'a> Route<'a> {
    /// The row of [`ROUTES`] `name` matches, allocating nothing; `None`
    /// for a route no row names.
    pub fn parse(name: &'a str) -> Option<Self> {
        let tactic = match name.strip_prefix("tactic/") {
            None => None,
            Some(rest) => {
                let mut segments = rest.split('/');
                let (tactic, scope, op) = (segments.next()?, segments.next()?, segments.next()?);
                if segments.next().is_some() {
                    return None;
                }
                let key = &name[..name.len() - op.len() - 1];
                Some(TacticRoute { name: tactic, scope, op, key })
            }
        };
        let &(_, class) = ROUTES.iter().find(|&&(row, _)| match tactic {
            None => row == name,
            Some(t) => row.strip_prefix(TACTIC_ROW) == Some(t.op),
        })?;
        Some(Route { name, class, tactic })
    }

    /// [`Route::parse`] for a route carried inside another (a batch item,
    /// the read a fetch wraps, an envelope's route).
    ///
    /// # Errors
    ///
    /// [`CoreError::UnsupportedOperation`] for a route no row names.
    pub fn carried(name: &'a str) -> Result<Self, CoreError> {
        Route::parse(name).ok_or_else(|| CoreError::UnsupportedOperation(format!("unknown route {name}")))
    }

    /// What a request applies: an idempotent envelope's token and the
    /// route and payload it carries ([`Idempotent::open`]), or the request
    /// itself.
    ///
    /// # Errors
    ///
    /// As [`Idempotent::open`].
    pub fn unseal(self, payload: &'a [u8]) -> Result<Unsealed<'a>, CoreError> {
        if self.name != IDEM_ROUTE {
            return Ok((None, self, payload));
        }
        let (token, route, payload) = Idempotent::open(payload)?;
        Ok((Some(token), route, payload))
    }

    /// Whether the route changes cloud state: a write, or an envelope that
    /// carries writes (`idem`, `batch`). Such a route is journaled before
    /// it applies, and sealed in an [`Idempotent`] envelope before it may
    /// be retried.
    pub fn writes(&self) -> bool {
        matches!(self.class, RouteClass::KeyedWrite | RouteClass::BroadcastWrite)
            || matches!(self.name, IDEM_ROUTE | BATCH_ROUTE)
    }
}

/// Encodes `calls` as the payload of either batch route: one list of
/// route, payload, route, payload, …
pub fn encode_batch(calls: &[CloudCall]) -> Vec<u8> {
    let len = calls.iter().map(|c| 8 + c.route.len() + c.payload.len()).sum::<usize>();
    let mut w = Writer::from(Vec::with_capacity(4 + len));
    w.u32(2 * calls.len() as u32);
    for c in calls {
        w.str(&c.route).bytes(&c.payload);
    }
    w.finish()
}

/// The `(route, payload)` items of a batch payload, all checked before any
/// runs: whole pairs, UTF-8 routes and each route one [`check_inner`]
/// passes. The one item decoder of both batch routes, on an engine and on a
/// cluster.
///
/// # Errors
///
/// [`CoreError::Wire`] on malformed input; [`CoreError::UnsupportedOperation`]
/// as [`check_inner`].
pub fn batch_items(payload: &[u8], read_only: bool) -> Result<Vec<(Route<'_>, &[u8])>, CoreError> {
    decode_calls(payload)?.into_iter().map(|(route, payload)| Ok((check_inner(route, read_only)?, payload))).collect()
}

/// Parses a route carried inside another — a batch item, or the read a
/// [`Fetch`] wraps (`read_only`) — before anything runs: a route of
/// [`ROUTES`], no envelope (a batch, a fetch, an idempotent or traced
/// envelope: each hides the route it carries) and, when `read_only`, no
/// write.
///
/// # Errors
///
/// [`CoreError::UnsupportedOperation`] on an unknown route, a nested
/// envelope, or a write where only reads may go.
pub fn check_inner(route: &str, read_only: bool) -> Result<Route<'_>, CoreError> {
    let route = Route::carried(route)?;
    if route.class == RouteClass::Envelope {
        return Err(CoreError::UnsupportedOperation(format!("nested {}", route.name)));
    }
    if read_only && route.writes() {
        return Err(CoreError::UnsupportedOperation(format!("write {} where only reads may go", route.name)));
    }
    Ok(route)
}

/// The `(route, payload)` pairs of an [`encode_batch`] list — a batch
/// payload, or a gateway journal entry.
///
/// # Errors
///
/// [`CoreError::Wire`] on trailing bytes, truncation, an odd field count
/// or a non-UTF-8 route.
pub fn decode_calls(payload: &[u8]) -> Result<Vec<(&str, &[u8])>, CoreError> {
    let fields = decode(payload, |r| Ok::<_, CoreError>(r.list()?))?;
    if fields.len() % 2 != 0 {
        return Err(CoreError::Wire("batch item count"));
    }
    fields
        .chunks(2)
        .map(|pair| Ok((std::str::from_utf8(pair[0]).map_err(|_| CoreError::Wire("utf8 route"))?, pair[1])))
        .collect()
}

/// The answers to a batch of `calls` items: exactly one list of that many
/// answers, and nothing after it.
///
/// # Errors
///
/// [`CoreError::Wire`] on trailing bytes, truncation or a wrong arity.
pub fn decode_batch_answer(answer: &[u8], calls: usize) -> Result<Vec<Vec<u8>>, CoreError> {
    let answers = decode(answer, |r| Ok::<_, CoreError>(r.list()?))?;
    if answers.len() != calls {
        return Err(CoreError::Wire("batch answer arity"));
    }
    Ok(answers.into_iter().map(<[u8]>::to_vec).collect())
}

/// An idempotent envelope around a chain-advancing write.
///
/// The gateway wraps every write route in one of these before sending it, so
/// a retried delivery (response lost, duplicate delivery) replays the
/// *envelope*, and the cloud's dedup cache returns the recorded outcome
/// instead of re-executing — an SSE insert that re-executes would double-add
/// index entries while the gateway's chain counter advanced only once, both a
/// correctness bug and extra leakage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Idempotent {
    /// Unique per *logical* request; identical across its retries.
    pub token: [u8; 16],
    /// The wrapped route.
    pub route: String,
    /// The wrapped payload.
    pub payload: Vec<u8>,
}

impl Idempotent {
    /// Serializes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::from(Vec::with_capacity(16 + 8 + self.route.len() + self.payload.len()));
        w.raw(&self.token).str(&self.route).bytes(&self.payload);
        w.finish()
    }

    /// Deserializes.
    ///
    /// # Errors
    ///
    /// [`CoreError::Wire`] on malformed input.
    pub fn decode(buf: &[u8]) -> Result<Self, CoreError> {
        let (token, route, payload) = Idempotent::parts(buf)?;
        Ok(Idempotent { token, route: route.into(), payload: payload.to_vec() })
    }

    /// The token, route and payload of an encoded envelope, lent from `buf`
    /// — for a router that only looks inside and forwards the envelope whole.
    ///
    /// # Errors
    ///
    /// [`CoreError::Wire`] on malformed input.
    pub fn parts(buf: &[u8]) -> Result<([u8; 16], &str, &[u8]), CoreError> {
        decode(buf, |r| Ok((r.raw()?, r.str()?, r.bytes()?)))
    }

    /// [`Idempotent::parts`] with the carried route parsed: a route of
    /// [`ROUTES`], and not another idempotent envelope.
    ///
    /// # Errors
    ///
    /// [`CoreError::Wire`] on malformed input;
    /// [`CoreError::UnsupportedOperation`] on an unknown or nested route.
    pub fn open(buf: &[u8]) -> Result<([u8; 16], Route<'_>, &[u8]), CoreError> {
        let (token, route, payload) = Idempotent::parts(buf)?;
        let route = Route::carried(route)?;
        if route.name == IDEM_ROUTE {
            return Err(CoreError::UnsupportedOperation("nested idem".into()));
        }
        Ok((token, route, payload))
    }
}

/// [`SyncEntry`] kind: one replicated document (`key` = collection ‖ 0x00 ‖
/// id, `value` = encoded document; empty value = tombstone/delete).
pub const ENTRY_DOC: u8 = b'd';
/// [`SyncEntry`] kind: one KV key's canonical state (`value` = length-
/// prefixed [`LogRecord`](datablinder_kvstore::LogRecord) bodies that
/// rebuild the slot from empty; an empty list = delete the slot).
pub const ENTRY_KV: u8 = b'k';
/// [`SyncEntry`] kind: a collection's indexed-field set (`key` = collection
/// name, `value` = length-prefixed field names). Repair is additive union —
/// `doc/ensure_index` never removes an index.
pub const ENTRY_INDEX: u8 = b'i';

/// One exported unit of replicated cloud state, the common currency of
/// rejoin resync, membership key handoff and anti-entropy repair. Entries
/// are self-describing (`kind` + entry key + canonical value bytes), so
/// "what do you hold for this key?" and "make your state for this key
/// exactly these bytes" are the same message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SyncEntry {
    /// One of [`ENTRY_DOC`], [`ENTRY_KV`], [`ENTRY_INDEX`].
    pub kind: u8,
    /// Entry key within the kind's namespace.
    pub key: Vec<u8>,
    /// Canonical value bytes (kind-specific encoding).
    pub value: Vec<u8>,
}

impl SyncEntry {
    /// Serializes into `w`.
    pub fn encode_into(&self, w: &mut Writer) {
        w.u8(self.kind).bytes(&self.key).bytes(&self.value);
    }

    fn take(r: &mut Reader) -> Result<Self, Malformed> {
        let kind = r.u8()?;
        if !matches!(kind, ENTRY_DOC | ENTRY_KV | ENTRY_INDEX) {
            return Err(Malformed("unknown entry kind"));
        }
        Ok(SyncEntry { kind, key: r.bytes()?.to_vec(), value: r.bytes()?.to_vec() })
    }
}

/// A batch of [`SyncEntry`]s: the `sync/entries` response and the
/// `sync/put` (apply) payload.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SyncEntries {
    /// The entries, sorted by `(kind, key)` when produced by an export.
    pub entries: Vec<SyncEntry>,
}

impl SyncEntries {
    /// Serializes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u32(self.entries.len() as u32);
        for e in &self.entries {
            e.encode_into(&mut w);
        }
        w.finish()
    }

    /// Deserializes.
    ///
    /// # Errors
    ///
    /// [`CoreError::Wire`] on malformed input.
    pub fn decode(buf: &[u8]) -> Result<Self, CoreError> {
        decode(buf, |r| {
            let entries = (0..r.count()?).map(|_| SyncEntry::take(r)).collect::<Result<_, _>>()?;
            Ok(SyncEntries { entries })
        })
    }
}

/// `sync/entries` and `sync/retire`: selects the slice of a node's state
/// whose routing hash falls in one of the given ring ranges. Ranges are
/// `(lo, hi]` half-open intervals on the hash circle; `lo >= hi` wraps
/// through `u64::MAX`. `seed` pins the hash function — a donor whose ring
/// seed differs would silently select the wrong keys, so it is part of the
/// request and validated by the server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangeSelect {
    /// Ring hash seed the ranges were computed under.
    pub seed: u64,
    /// `(lo_exclusive, hi_inclusive]` hash intervals, wrapping when `lo >= hi`.
    pub ranges: Vec<(u64, u64)>,
    /// Also select broadcast-domain state (setup keys, index definitions…).
    pub include_broadcast: bool,
}

impl RangeSelect {
    /// Serializes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.put(&mut w);
        w.finish()
    }

    fn put(&self, w: &mut Writer) {
        w.u64(self.seed).u8(self.include_broadcast as u8).u32(self.ranges.len() as u32);
        for &(lo, hi) in &self.ranges {
            w.u64(lo).u64(hi);
        }
    }

    /// Deserializes.
    ///
    /// # Errors
    ///
    /// [`CoreError::Wire`] on malformed input.
    pub fn decode(buf: &[u8]) -> Result<Self, CoreError> {
        decode(buf, RangeSelect::take)
    }

    fn take(r: &mut Reader) -> Result<Self, CoreError> {
        let seed = r.u64()?;
        let flag = r.u8()?;
        if flag > 1 {
            return Err(CoreError::Wire("select flag"));
        }
        let ranges = (0..r.count()?).map(|_| Ok((r.u64()?, r.u64()?))).collect::<Result<_, Malformed>>()?;
        Ok(RangeSelect { seed, ranges, include_broadcast: flag == 1 })
    }
}

/// `tactic/paillier/<scope>/sum_ranges` and `doc/agg_plain_ranges`: a
/// whole-collection aggregate restricted to the documents whose ring hash
/// falls in `select`'s ranges — the ranges one cluster node serves first,
/// so the nodes' partials cover every document exactly once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RangedRead {
    /// The unranged request's payload, unchanged (a [`PaillierSum`] without
    /// ids, or `doc/agg_plain`'s collection and field).
    pub request: Vec<u8>,
    /// Which documents count; `include_broadcast` selects nothing here.
    pub select: RangeSelect,
}

impl RangedRead {
    /// Serializes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::from(Vec::with_capacity(17 + self.request.len() + 16 * self.select.ranges.len()));
        w.bytes(&self.request);
        self.select.put(&mut w);
        w.finish()
    }

    /// Deserializes.
    ///
    /// # Errors
    ///
    /// [`CoreError::Wire`] on malformed input.
    pub fn decode(buf: &[u8]) -> Result<Self, CoreError> {
        decode(buf, |r| Ok(RangedRead { request: r.bytes()?.to_vec(), select: RangeSelect::take(r)? }))
    }
}

/// A length-prefixed list of opaque byte blobs: the `sync/tail` answer (one
/// encoded [`WalRecord`](crate::durability::WalRecord) each), and the value
/// of a KV or index [`SyncEntry`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BlobList {
    /// The blobs, in order.
    pub items: Vec<Vec<u8>>,
}

impl BlobList {
    /// Serializes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.list(&self.items);
        w.finish()
    }

    /// Deserializes.
    ///
    /// # Errors
    ///
    /// [`CoreError::Wire`] on malformed input.
    pub fn decode(buf: &[u8]) -> Result<Self, CoreError> {
        decode(buf, |r| Ok(BlobList { items: r.list()?.into_iter().map(<[u8]>::to_vec).collect() }))
    }
}

/// `sync/digest`: asks a node for its Merkle digests under the given ring
/// layout. Boundaries are the sorted vnode hash points; leaf `j` covers
/// `(boundaries[j-1], boundaries[j]]` with leaf 0 wrapping — the same
/// intervals the ring uses for ownership, so "per-shard root" and "ring
/// leaf digest" are the same thing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DigestRequest {
    /// Ring hash seed.
    pub seed: u64,
    /// Sorted vnode hash points defining the leaf intervals.
    pub boundaries: Vec<u64>,
}

impl DigestRequest {
    /// Serializes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::from(Vec::with_capacity(12 + self.boundaries.len() * 8));
        w.u64(self.seed).u32(self.boundaries.len() as u32);
        for &b in &self.boundaries {
            w.u64(b);
        }
        w.finish()
    }

    /// Deserializes.
    ///
    /// # Errors
    ///
    /// [`CoreError::Wire`] on malformed input.
    pub fn decode(buf: &[u8]) -> Result<Self, CoreError> {
        decode(buf, |r| {
            let seed = r.u64()?;
            let boundaries = (0..r.count()?).map(|_| r.u64()).collect::<Result<_, _>>()?;
            Ok(DigestRequest { seed, boundaries })
        })
    }
}

/// `sync/digest` response: one 32-byte digest per ring leaf, one for the
/// broadcast domain (state every node must replicate), and the Merkle root
/// over the leaves — two nodes with equal roots need no further exchange.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DigestResponse {
    /// Per-leaf digests, index-aligned with the request boundaries.
    pub leaves: Vec<[u8; 32]>,
    /// Digest over broadcast-domain state.
    pub broadcast: [u8; 32],
    /// Merkle root over `leaves`.
    pub root: [u8; 32],
}

impl DigestResponse {
    /// Serializes.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::from(Vec::with_capacity(68 + self.leaves.len() * 32));
        w.u32(self.leaves.len() as u32);
        for leaf in &self.leaves {
            w.raw(leaf);
        }
        w.raw(&self.broadcast).raw(&self.root);
        w.finish()
    }

    /// Deserializes.
    ///
    /// # Errors
    ///
    /// [`CoreError::Wire`] on malformed input.
    pub fn decode(buf: &[u8]) -> Result<Self, CoreError> {
        decode(buf, |r| {
            let leaves = (0..r.count()?).map(|_| r.raw()).collect::<Result<_, _>>()?;
            Ok(DigestResponse { leaves, broadcast: r.raw()?, root: r.raw()? })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_route_classification() {
        // Every row parses to itself; a tactic row is a tactic route.
        for &(row, class) in ROUTES {
            let route = Route::parse(row).unwrap_or_else(|| panic!("{row} does not parse"));
            assert_eq!((route.name, route.class), (row, class));
            assert_eq!(route.tactic.is_some(), row.starts_with(TACTIC_ROW), "{row}");
            let write = matches!(class, RouteClass::KeyedWrite | RouteClass::BroadcastWrite);
            assert_eq!(route.writes(), write || [IDEM_ROUTE, BATCH_ROUTE].contains(&row), "{row}");
        }
        for write in [
            "doc/insert",
            "doc/update",
            "doc/delete",
            "doc/ensure_index",
            "kv/bulk_put",
            "kv/del_prefix",
            "batch",
            "idem",
            "tactic/mitra/notes:owner/insert",
            "tactic/sophos/notes:owner/update",
            "tactic/ore/notes:eff/delete",
            "tactic/sophos/notes:owner/setup",
            "sync/put",
            "sync/retire",
        ] {
            assert!(Route::parse(write).is_some_and(|r| r.writes()), "{write} should be a write");
        }
        for read in [
            "doc/get",
            "doc/get_many",
            "doc/fetch",
            "doc/count",
            "doc/extreme",
            "doc/list_ids",
            "doc/find_ids_eq",
            "doc/find_ids_range",
            "doc/find_ids_dnf",
            "doc/agg_plain",
            "doc/agg_plain_ranges",
            "tactic/mitra/notes:owner/search",
            "tactic/biex2lev/notes:flags/base_search",
            "tactic/ore/notes:eff/range",
            "tactic/paillier/notes:value/sum",
            "tactic/paillier/notes:value/combine",
            "tactic/paillier/notes:value/sum_ranges",
            "sync/tail",
            "sync/digest",
            "sync/entries",
            "obs/snapshot",
            "obs/traced",
            "batch/read",
        ] {
            assert!(Route::parse(read).is_some_and(|r| !r.writes()), "{read} should be a read");
        }
        // Only the exact route: anything else is refused, never guessed.
        for refused in [
            "something/new",
            "batch/other",
            "kv/nope",
            "doc/nope",
            "doc/insert/x",
            "doc",
            "batch/",
            "idem/x",
            "tactic/mitra/s",
            "tactic/mitra/s/update/x",
            "tactic/mitra/s/op",
            "tactic/<name>/<scope>/",
        ] {
            assert_eq!(Route::parse(refused), None, "{refused}");
        }
        let search = Route::parse("tactic/mitra/notes:owner/search").unwrap().tactic.unwrap();
        let parts = (search.name, search.scope, search.op, search.key);
        assert_eq!(parts, ("mitra", "notes:owner", "search", "tactic/mitra/notes:owner"));
    }

    #[test]
    fn batch_payloads_round_trip_and_refuse_trailing_bytes() {
        let calls = [CloudCall::new("doc/count", b"c".to_vec()), CloudCall::new("tactic/mitra/s:f/search", vec![1, 2])];
        let payload = encode_batch(&calls);
        let items = batch_items(&payload, true).unwrap();
        let routes: Vec<(&str, &[u8])> = items.iter().map(|(route, payload)| (route.name, *payload)).collect();
        assert_eq!(routes, vec![("doc/count", &b"c"[..]), ("tactic/mitra/s:f/search", &[1u8, 2][..])]);
        let mut trailing = payload.clone();
        trailing.push(0);
        assert_eq!(batch_items(&trailing, false), Err(CoreError::Wire("trailing bytes")));
    }
}
