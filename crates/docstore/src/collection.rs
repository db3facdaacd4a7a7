//! Collections and the store root.

use std::borrow::Borrow;
use std::cell::Cell;
use std::cmp::Ordering;
use std::collections::{btree_map, BTreeMap, HashMap, HashSet};
use std::ops::Bound;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
use std::sync::{Arc, PoisonError, RwLock};

use crate::filter::{bounds_on, Filter};
use crate::value::{Document, FieldName, Value};
use crate::DocStoreError;

/// A stored index key: the value, and its [`Head`] kept beside it, so a
/// search down the index mostly compares the heads held in the tree's
/// nodes and reads few keys' heap bytes.
#[derive(Debug, Clone)]
struct IndexKey {
    head: Head,
    value: Value,
}

/// The first eight bytes of a byte string or a text, zero-padded and read
/// big-endian. Where two of one kind differ, the values order as they do
/// (a shorter value pads with zeros, and a prefix orders first); where
/// they tie, or the kinds differ, only [`Value::total_cmp`] can tell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Head {
    Bytes(u64),
    Str(u64),
    Other,
}

impl Head {
    fn of(value: &Value) -> Head {
        let first8 = |bytes: &[u8]| {
            let mut head = [0u8; 8];
            let n = bytes.len().min(8);
            head[..n].copy_from_slice(&bytes[..n]);
            u64::from_be_bytes(head)
        };
        match value {
            Value::Bytes(b) => Head::Bytes(first8(b)),
            Value::Str(s) => Head::Str(first8(s.as_bytes())),
            _ => Head::Other,
        }
    }
}

/// What an index is searched by: a stored key or a [`Probe`], both in
/// [`Value::total_cmp`] order.
trait Key {
    fn value(&self) -> &Value;
    fn head(&self) -> Head;
}

/// A borrowed value to search an index for, with its head worked out once:
/// a lookup clones nothing.
struct Probe<'a> {
    head: Head,
    value: &'a Value,
}

impl<'a> Probe<'a> {
    fn of(value: &'a Value) -> Self {
        Probe { head: Head::of(value), value }
    }
}

impl Key for Probe<'_> {
    fn value(&self) -> &Value {
        self.value
    }

    fn head(&self) -> Head {
        self.head
    }
}

impl Key for IndexKey {
    fn value(&self) -> &Value {
        &self.value
    }

    fn head(&self) -> Head {
        self.head
    }
}

impl<'a> Borrow<dyn Key + 'a> for IndexKey {
    fn borrow(&self) -> &(dyn Key + 'a) {
        self
    }
}

impl Ord for dyn Key + '_ {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self.head(), other.head()) {
            (Head::Bytes(a), Head::Bytes(b)) | (Head::Str(a), Head::Str(b)) if a != b => a.cmp(&b),
            _ => self.value().total_cmp(other.value()),
        }
    }
}

impl PartialOrd for dyn Key + '_ {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for dyn Key + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for dyn Key + '_ {}

impl Ord for IndexKey {
    fn cmp(&self, other: &Self) -> Ordering {
        (self as &dyn Key).cmp(other)
    }
}

impl PartialOrd for IndexKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for IndexKey {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for IndexKey {}

/// One secondary index: value -> the positions in `docs` of the documents
/// holding it, ascending, in [`Value::total_cmp`] order. A new document
/// takes the highest position, so an insert appends to its entry.
type Index = BTreeMap<IndexKey, Vec<usize>>;

/// Source of collection epochs, unique across every collection of the
/// process so that a [`Cursor`] taken from a dropped collection never
/// matches the one recreated under its name. Only uniqueness matters —
/// a collection's own epoch is published by its lock — so `Relaxed` does.
static NEXT_EPOCH: AtomicU64 = AtomicU64::new(1);

fn fresh_epoch() -> u64 {
    NEXT_EPOCH.fetch_add(1, AtomicOrdering::Relaxed)
}

/// How far a [`Collection::scan_from`] has read. It stays valid while the
/// collection it came from only gains documents; the default cursor is
/// valid nowhere and reads from the start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Cursor {
    epoch: u64,
    position: usize,
}

impl Cursor {
    /// How many documents lie before the cursor.
    pub fn position(self) -> usize {
        self.position
    }
}

struct CollectionInner {
    /// Documents in arrival order; `delete` moves the last one into the
    /// hole it leaves.
    docs: Vec<Document>,
    /// id -> position in `docs`
    positions: HashMap<String, usize>,
    /// field -> index; `delete` re-points the entries of the document it
    /// moves.
    indexes: HashMap<String, Index>,
    /// The field names the stored documents hold, one allocation each:
    /// every stored document holds these, not copies of its own.
    names: HashSet<FieldName>,
    /// The first [`HOT_NAMES`] names the table took in, sorted: a
    /// document's names, which ascend too, are found here by one merge
    /// walk, without hashing.
    hot: Vec<FieldName>,
    /// Renewed whenever a stored document changes, moves or leaves: within
    /// one epoch `docs` only grows at its end.
    epoch: u64,
}

impl Default for CollectionInner {
    fn default() -> Self {
        CollectionInner {
            docs: Vec::new(),
            positions: HashMap::new(),
            indexes: HashMap::new(),
            names: HashSet::new(),
            hot: Vec::new(),
            epoch: fresh_epoch(),
        }
    }
}

impl CollectionInner {
    fn doc(&self, id: &str) -> Option<&Document> {
        self.positions.get(id).map(|&position| &self.docs[position])
    }

    /// Stores `doc` as a new document: it takes the next position.
    fn push(&mut self, mut doc: Document) {
        self.adopt(&mut doc);
        let position = self.docs.len();
        for (field, index) in &mut self.indexes {
            if let Some(v) = doc.get(field) {
                enter(index, v, position);
            }
        }
        self.positions.insert(doc.id().to_string(), position);
        self.docs.push(doc);
    }

    /// Stores `doc` in place of the document at `position`.
    fn replace(&mut self, position: usize, mut doc: Document) {
        self.adopt(&mut doc);
        for (field, index) in &mut self.indexes {
            if let Some(v) = self.docs[position].get(field) {
                leave(index, v, position);
            }
            if let Some(v) = doc.get(field) {
                enter(index, v, position);
            }
        }
        let old = std::mem::replace(&mut self.docs[position], doc);
        self.release(old);
        self.epoch = fresh_epoch();
    }

    /// Makes `doc` hold the table's names: each one the table has replaces
    /// the document's own, and each one it lacks joins it.
    fn adopt(&mut self, doc: &mut Document) {
        let mut at = 0;
        for name in doc.names_mut() {
            let (hot, next) = walk(&self.hot, at, name);
            at = next;
            let shared = match hot {
                Some(hot) => hot,
                None => match self.names.get(&**name) {
                    Some(shared) => shared,
                    None => {
                        self.names.insert(name.clone());
                        if self.hot.len() < HOT_NAMES {
                            self.hot.insert(at, name.clone());
                            at += 1;
                        }
                        continue;
                    }
                },
            };
            if !Arc::ptr_eq(shared, name) {
                *name = shared.clone();
            }
        }
    }

    /// Drops a document that leaves the collection, and with it every
    /// table name no one else holds: the table keeps only names in use.
    fn release(&mut self, doc: Document) {
        for name in doc.names() {
            // Its holders, if no one else uses it: the table, `doc`, and
            // `hot` if the name is there.
            if Arc::strong_count(name) > 3 || !self.names.get(&**name).is_some_and(|shared| Arc::ptr_eq(shared, name)) {
                continue;
            }
            let hot = self.hot.binary_search_by(|hot| (**hot).cmp(name)).ok();
            if Arc::strong_count(name) == 2 + usize::from(hot.is_some()) {
                self.names.remove(&**name);
                if let Some(at) = hot {
                    self.hot.remove(at);
                }
            }
        }
    }

    /// The index entries that hold every document `filter` can match, in
    /// key order, when a conjunct of it is an equality or a range predicate
    /// on an indexed field: one key for an equality (preferred), else the
    /// keys inside the interval the range conjuncts on that field span.
    /// `None` when no index serves the filter and the caller must visit
    /// every document. The entries over-approximate — the caller still
    /// applies the whole filter.
    fn index_walk(&self, filter: &Filter) -> Option<btree_map::Range<'_, IndexKey, Vec<usize>>> {
        let conjuncts = filter.conjuncts();
        let indexed = |field: &String| self.indexes.get(field);
        let point = conjuncts.iter().find_map(|c| match c {
            Filter::Eq(f, v) => indexed(f).map(|index| (index, Bound::Included(v), Bound::Included(v))),
            _ => None,
        });
        let interval = || {
            conjuncts.iter().find_map(|c| match c {
                Filter::Gte(f, _) | Filter::Gt(f, _) | Filter::Lte(f, _) | Filter::Lt(f, _) => {
                    let (lo, hi) = bounds_on(&conjuncts, f);
                    indexed(f).map(|index| (index, lo, hi))
                }
                _ => None,
            })
        };
        let (index, lo, hi) = point.or_else(interval)?;
        // `BTreeMap::range` panics on an inverted interval and on an empty
        // open one; both hold no key.
        if let (Bound::Included(a) | Bound::Excluded(a), Bound::Included(b) | Bound::Excluded(b)) = (lo, hi) {
            let closed = matches!((lo, hi), (Bound::Included(_), Bound::Included(_)));
            match a.total_cmp(b) {
                Ordering::Greater => return Some(btree_map::Range::default()),
                Ordering::Equal if !closed => return Some(btree_map::Range::default()),
                _ => {}
            }
        }
        let (lo, hi) = (lo.map(Probe::of), hi.map(Probe::of));
        fn key<'p>(bound: &'p Bound<Probe<'_>>) -> Bound<&'p dyn Key> {
            bound.as_ref().map(|probe| probe as &dyn Key)
        }
        Some(index.range::<dyn Key, _>((key(&lo), key(&hi))))
    }
}

/// A named set of documents with optional secondary indexes.
///
/// Documents are kept in arrival order, which is what lets a reader that
/// folds the whole collection come back for only what arrived since
/// ([`Collection::scan_from`]). Cloning shares the underlying collection.
#[derive(Clone, Default)]
pub struct Collection {
    inner: Arc<RwLock<CollectionInner>>,
}

impl Collection {
    /// Creates an empty collection.
    pub fn new() -> Self {
        Collection::default()
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        self.inner.read().unwrap_or_else(PoisonError::into_inner).docs.len()
    }

    /// Whether the collection is empty.
    pub fn is_empty(&self) -> bool {
        self.inner.read().unwrap_or_else(PoisonError::into_inner).docs.is_empty()
    }

    /// Creates a secondary index on `field` (idempotent; backfills).
    pub fn create_index(&self, field: &str) {
        let mut inner = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        if inner.indexes.contains_key(field) {
            return;
        }
        let mut index = Index::new();
        for (position, doc) in inner.docs.iter().enumerate() {
            if let Some(v) = doc.get(field) {
                enter(&mut index, v, position);
            }
        }
        inner.indexes.insert(field.to_string(), index);
    }

    /// Runs `f` with the collection's table of field names under the read
    /// lock: a decoder resolves each name it reads against it, so a stored
    /// document shares the names the collection already holds. A storing
    /// write adds a name the table lacks; `f` adds none.
    pub fn names<R>(&self, f: impl FnOnce(&Names<'_>) -> R) -> R {
        let inner = self.inner.read().unwrap_or_else(PoisonError::into_inner);
        f(&Names { table: &inner.names, hot: &inner.hot, at: Cell::new(0) })
    }

    /// Makes room for `additional` more documents, so a restore that knows
    /// how many it brings grows nothing as it goes.
    pub fn reserve(&self, additional: usize) {
        let inner = &mut *self.inner.write().unwrap_or_else(PoisonError::into_inner);
        inner.docs.reserve(additional);
        inner.positions.reserve(additional);
    }

    /// Inserts a new document.
    ///
    /// # Errors
    ///
    /// [`DocStoreError::DuplicateId`] if the id exists.
    pub fn insert(&self, doc: Document) -> Result<(), DocStoreError> {
        let inner = &mut *self.inner.write().unwrap_or_else(PoisonError::into_inner);
        if inner.positions.contains_key(doc.id()) {
            return Err(DocStoreError::DuplicateId(doc.id().to_string()));
        }
        inner.push(doc);
        Ok(())
    }

    /// Fetches by id.
    pub fn get(&self, id: &str) -> Option<Document> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner).doc(id).cloned()
    }

    /// Whether a document with this id is stored.
    pub fn contains(&self, id: &str) -> bool {
        self.inner.read().unwrap_or_else(PoisonError::into_inner).positions.contains_key(id)
    }

    /// Replaces the document with the same id.
    ///
    /// # Errors
    ///
    /// [`DocStoreError::NotFound`] if the id does not exist.
    pub fn update(&self, doc: Document) -> Result<(), DocStoreError> {
        let inner = &mut *self.inner.write().unwrap_or_else(PoisonError::into_inner);
        let position = *inner.positions.get(doc.id()).ok_or_else(|| DocStoreError::NotFound(doc.id().to_string()))?;
        inner.replace(position, doc);
        Ok(())
    }

    /// Stores `doc`, replacing the document with the same id if there is
    /// one: an insert or an update under one write lock, so no other write
    /// can come between the lookup and the store.
    pub fn upsert(&self, doc: Document) {
        let inner = &mut *self.inner.write().unwrap_or_else(PoisonError::into_inner);
        match inner.positions.get(doc.id()) {
            Some(&position) => inner.replace(position, doc),
            None => inner.push(doc),
        }
    }

    /// Deletes by id.
    ///
    /// # Errors
    ///
    /// [`DocStoreError::NotFound`] if the id does not exist.
    pub fn delete(&self, id: &str) -> Result<(), DocStoreError> {
        let inner = &mut *self.inner.write().unwrap_or_else(PoisonError::into_inner);
        let position = inner.positions.remove(id).ok_or_else(|| DocStoreError::NotFound(id.to_string()))?;
        let last = inner.docs.len() - 1;
        let old = inner.docs.swap_remove(position);
        let moved = inner.docs.get(position);
        if let Some(moved) = moved {
            *inner.positions.get_mut(moved.id()).expect("every stored document has a position") = position;
        }
        for (field, index) in &mut inner.indexes {
            if let Some(v) = old.get(field) {
                leave(index, v, position);
            }
            if let Some(v) = moved.and_then(|moved| moved.get(field)) {
                leave(index, v, last);
                enter(index, v, position);
            }
        }
        inner.release(old);
        inner.epoch = fresh_epoch();
        Ok(())
    }

    /// Finds documents matching `filter` (cloned, id-sorted); see
    /// [`Collection::scan`] for which filters a secondary index serves.
    pub fn find(&self, filter: &Filter) -> Vec<Document> {
        let mut out: Vec<Document> = self.scan(filter, |hits| hits.cloned().collect());
        out.sort_by(|a, b| a.id().cmp(b.id()));
        out
    }

    /// Runs `f` over the documents matching `filter`, borrowed under the
    /// read lock: nothing is cloned, and the order is unspecified (a caller
    /// that needs id order sorts the references). `f` must not write to
    /// this collection.
    ///
    /// When a conjunct of `filter` is an equality or a range predicate
    /// (`>=`, `>`, `<=`, `<`) on an indexed field, only the index entries
    /// under that key or inside that interval are visited — O(log N + hits)
    /// — and the whole filter is still applied to each, so any other
    /// conjunct, mixed value types and several bounds on one field mean
    /// what they mean on a full scan. An interval no value can lie in
    /// (`lo > hi`, or `lo == hi` with a strict side) yields no documents.
    /// Every other filter visits every document.
    pub fn scan<R>(&self, filter: &Filter, f: impl FnOnce(&mut dyn Iterator<Item = &Document>) -> R) -> R {
        let inner = self.inner.read().unwrap_or_else(PoisonError::into_inner);
        match inner.index_walk(filter) {
            Some(entries) => f(&mut entries
                .flat_map(|(_, positions)| positions)
                .map(|&position| &inner.docs[position])
                .filter(|d| filter.matches(d))),
            None => f(&mut inner.docs.iter().filter(|d| filter.matches(d))),
        }
    }

    /// Runs `f` over the documents that arrived after `since` was handed
    /// out, in arrival order and borrowed under the read lock like
    /// [`Collection::scan`], and returns the cursor that resumes after
    /// them. `f` is also told how many documents that skipped — the ones a
    /// caller folding the collection has already seen. A `since` that is
    /// the default, from another collection (a dropped one of the same name
    /// included) or older than the last `update` or `delete` skips nothing:
    /// every document is visited, and whatever the caller derived from
    /// earlier visits is void.
    pub fn scan_from<R>(
        &self,
        since: Cursor,
        f: impl FnOnce(usize, &mut dyn Iterator<Item = &Document>) -> R,
    ) -> (Cursor, R) {
        let inner = self.inner.read().unwrap_or_else(PoisonError::into_inner);
        let fresh = match inner.docs.get(since.position..) {
            Some(fresh) if since.epoch == inner.epoch => fresh,
            _ => &inner.docs[..],
        };
        let out = f(inner.docs.len() - fresh.len(), &mut fresh.iter());
        (Cursor { epoch: inner.epoch, position: inner.docs.len() }, out)
    }

    /// Whether [`Collection::scan`] serves `filter` from a secondary index
    /// rather than by visiting every document.
    pub fn index_serves(&self, filter: &Filter) -> bool {
        self.inner.read().unwrap_or_else(PoisonError::into_inner).index_walk(filter).is_some()
    }

    /// Runs `f` over the documents with the given ids, in the order given
    /// and skipping unknown ids, borrowed under the read lock like
    /// [`Collection::scan`].
    pub fn lookup<'i, R>(
        &self,
        ids: impl IntoIterator<Item = &'i str>,
        f: impl FnOnce(&mut dyn Iterator<Item = &Document>) -> R,
    ) -> R {
        let inner = self.inner.read().unwrap_or_else(PoisonError::into_inner);
        f(&mut ids.into_iter().filter_map(|id| inner.doc(id)))
    }

    /// All document ids (unordered).
    pub fn ids(&self) -> Vec<String> {
        self.inner.read().unwrap_or_else(PoisonError::into_inner).docs.iter().map(|d| d.id().to_string()).collect()
    }

    /// Runs `f` over the sorted names of the indexed fields and every
    /// document in id order, all borrowed under one read lock: what a
    /// snapshot or a sync export writes, with nothing cloned. `f` must not
    /// write to this collection.
    pub fn in_id_order<R>(&self, f: impl FnOnce(&[&str], &[&Document]) -> R) -> R {
        let inner = self.inner.read().unwrap_or_else(PoisonError::into_inner);
        let mut fields: Vec<&str> = inner.indexes.keys().map(String::as_str).collect();
        fields.sort_unstable();
        let mut docs: Vec<&Document> = inner.docs.iter().collect();
        docs.sort_unstable_by(|a, b| a.id().cmp(b.id()));
        f(&fields, &docs)
    }
}

/// How many names a collection keeps in its sorted list for walking.
const HOT_NAMES: usize = 64;

/// Looks for `name` in the sorted `hot` from `at` on, as a merge of two
/// ascending lists does; returns it if there, and where the next, greater
/// name's walk starts.
fn walk<'h>(hot: &'h [FieldName], mut at: usize, name: &str) -> (Option<&'h FieldName>, usize) {
    while let Some(candidate) = hot.get(at) {
        match (**candidate).cmp(name) {
            Ordering::Less => at += 1,
            Ordering::Equal => return (Some(candidate), at + 1),
            Ordering::Greater => break,
        }
    }
    (None, at)
}

/// A collection's table of field names, lent by [`Collection::names`] for
/// decoding one document.
pub struct Names<'a> {
    table: &'a HashSet<FieldName>,
    hot: &'a [FieldName],
    /// Where the walk for the next name starts: a document's names ascend.
    at: Cell<usize>,
}

impl Names<'_> {
    /// `name` as the table holds it, or a new allocation when the table
    /// does not hold it. Names asked for in ascending order, as a
    /// document's are, are found without hashing.
    pub fn resolve(&self, name: &str) -> FieldName {
        let (hot, next) = walk(self.hot, self.at.get(), name);
        self.at.set(next);
        match hot.or_else(|| self.table.get(name)) {
            Some(shared) => shared.clone(),
            None => name.into(),
        }
    }

    /// How many names the table holds.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether the table holds no name.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }
}

/// Files `position` under `v`, cloning `v` only for a key the index lacks.
fn enter(index: &mut Index, v: &Value, position: usize) {
    let probe = Probe::of(v);
    match index.get_mut(&probe as &dyn Key) {
        Some(positions) => {
            if let Err(at) = positions.binary_search(&position) {
                positions.insert(at, position);
            }
        }
        None => {
            index.insert(IndexKey { head: probe.head, value: v.clone() }, vec![position]);
        }
    }
}

/// Takes `position` out of `v`'s entry, and the entry out when it empties.
fn leave(index: &mut Index, v: &Value, position: usize) {
    let probe = Probe::of(v);
    if let Some(positions) = index.get_mut(&probe as &dyn Key) {
        if let Ok(at) = positions.binary_search(&position) {
            positions.remove(at);
        }
        if positions.is_empty() {
            index.remove(&probe as &dyn Key);
        }
    }
}

impl std::fmt::Debug for Collection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Collection").field("len", &self.len()).finish()
    }
}

/// The store root: named collections.
#[derive(Clone, Default)]
pub struct DocStore {
    collections: Arc<RwLock<HashMap<String, Collection>>>,
}

impl DocStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        DocStore::default()
    }

    /// Gets or creates the named collection. Only the first use of a name
    /// takes the write lock (and allocates the name).
    pub fn collection(&self, name: &str) -> Collection {
        if let Some(existing) = self.collections.read().unwrap_or_else(PoisonError::into_inner).get(name) {
            return existing.clone();
        }
        self.collections.write().unwrap_or_else(PoisonError::into_inner).entry(name.to_string()).or_default().clone()
    }

    /// Names of existing collections.
    pub fn collection_names(&self) -> Vec<String> {
        self.collections.read().unwrap_or_else(PoisonError::into_inner).keys().cloned().collect()
    }

    /// Drops a collection; `true` if it existed.
    pub fn drop_collection(&self, name: &str) -> bool {
        self.collections.write().unwrap_or_else(PoisonError::into_inner).remove(name).is_some()
    }
}

impl std::fmt::Debug for DocStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DocStore").field("collections", &self.collection_names()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(id: &str, status: &str, value: i64) -> Document {
        Document::new(id).with("status", Value::from(status)).with("value", Value::from(value))
    }

    #[test]
    fn crud_lifecycle() {
        let c = Collection::new();
        c.insert(sample("1", "final", 10)).unwrap();
        assert_eq!(c.len(), 1);
        assert!(matches!(c.insert(sample("1", "x", 0)), Err(DocStoreError::DuplicateId(_))));
        assert_eq!(c.get("1").unwrap().get("status"), Some(&Value::from("final")));
        assert_eq!(c.get("nope"), None);

        c.update(sample("1", "amended", 11)).unwrap();
        assert_eq!(c.get("1").unwrap().get("status"), Some(&Value::from("amended")));
        assert!(matches!(c.update(sample("2", "x", 0)), Err(DocStoreError::NotFound(_))));

        c.delete("1").unwrap();
        assert!(c.is_empty());
        assert!(matches!(c.delete("1"), Err(DocStoreError::NotFound(_))));
    }

    #[test]
    fn find_with_filters() {
        let c = Collection::new();
        for i in 0..10 {
            c.insert(sample(&format!("d{i}"), if i % 2 == 0 { "final" } else { "draft" }, i)).unwrap();
        }
        assert_eq!(c.find(&Filter::eq("status", Value::from("final"))).len(), 5);
        assert_eq!(c.find(&Filter::between("value", Value::from(3i64), Value::from(6i64))).len(), 4);
        assert_eq!(c.find(&Filter::All).len(), 10);
        // Results are id-sorted for determinism.
        let hits = c.find(&Filter::All);
        let ids: Vec<&str> = hits.iter().map(|d| d.id()).collect();
        let mut sorted = ids.clone();
        sorted.sort();
        assert_eq!(ids, sorted);
    }

    #[test]
    fn index_consistency_through_mutations() {
        let c = Collection::new();
        c.insert(sample("a", "final", 1)).unwrap();
        c.create_index("status");
        c.insert(sample("b", "final", 2)).unwrap();
        c.insert(sample("c", "draft", 3)).unwrap();

        let finals = c.find(&Filter::eq("status", Value::from("final")));
        assert_eq!(finals.len(), 2, "backfilled + incremental");

        c.update(sample("a", "draft", 1)).unwrap();
        assert_eq!(c.find(&Filter::eq("status", Value::from("final"))).len(), 1);
        assert_eq!(c.find(&Filter::eq("status", Value::from("draft"))).len(), 2);

        c.delete("c").unwrap();
        assert_eq!(c.find(&Filter::eq("status", Value::from("draft"))).len(), 1);
    }

    #[test]
    fn indexed_find_respects_residual_filter() {
        let c = Collection::new();
        c.create_index("status");
        for i in 0..10 {
            c.insert(sample(&format!("d{i}"), "final", i)).unwrap();
        }
        let f = Filter::and(vec![Filter::eq("status", Value::from("final")), Filter::gte("value", Value::from(8i64))]);
        assert_eq!(c.find(&f).len(), 2);
    }

    #[test]
    fn range_conjuncts_walk_the_index_and_empty_intervals_hold_nothing() {
        let indexed = Collection::new();
        indexed.create_index("value");
        let plain = Collection::new();
        for i in 0..10 {
            indexed.insert(sample(&format!("d{i}"), "final", i)).unwrap();
            plain.insert(sample(&format!("d{i}"), "final", i)).unwrap();
        }
        let v = |i: i64| Value::from(i);
        let cases = [
            (Filter::between("value", v(3), v(6)), 4),
            (Filter::gt("value", v(7)), 2),
            (Filter::lte("value", v(0)), 1),
            (Filter::between("value", v(4), v(4)), 1),
            // `BTreeMap::range` would panic on each of these.
            (Filter::between("value", v(6), v(3)), 0),
            (Filter::and(vec![Filter::gt("value", v(4)), Filter::lt("value", v(4))]), 0),
            (Filter::and(vec![Filter::gte("value", v(4)), Filter::lt("value", v(4))]), 0),
            (Filter::and(vec![Filter::gt("value", v(4)), Filter::lte("value", v(4))]), 0),
            // Bounds of another type order by type rank, as on a full scan.
            (Filter::between("value", Value::from(false), Value::from("z")), 10),
            (Filter::between("value", Value::from("a"), Value::from("z")), 0),
        ];
        for (filter, hits) in &cases {
            assert!(indexed.index_serves(filter) && !plain.index_serves(filter), "{filter:?}");
            assert_eq!(indexed.find(filter).len(), *hits, "{filter:?}");
            assert_eq!(plain.find(filter), indexed.find(filter), "{filter:?}");
        }
        // An equality on an indexed field is preferred to a range on another.
        indexed.create_index("status");
        let mixed = Filter::and(vec![Filter::gte("value", v(8)), Filter::eq("status", Value::from("final"))]);
        assert_eq!(indexed.find(&mixed).len(), 2);
        assert!(!indexed.index_serves(&Filter::or(vec![Filter::gte("value", v(8))])));
    }

    #[test]
    fn index_keys_order_as_total_cmp_does() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // Few distinct bytes and lengths around eight: heads tie, pad and
        // differ past the eighth byte.
        let rng = &mut StdRng::seed_from_u64(7);
        let bytes = |rng: &mut StdRng| -> Vec<u8> {
            (0..rng.gen_range(0..12usize)).map(|_| [0u8, 1, 0x7f, 0xff][rng.gen_range(0..4usize)]).collect()
        };
        let value = |rng: &mut StdRng| match rng.gen_range(0..4) {
            0 => Value::Bytes(bytes(rng)),
            1 => Value::Str(bytes(rng).into_iter().map(|b| char::from(b'a' + b % 3)).collect()),
            2 => Value::from(rng.gen_range(-2i64..3)),
            _ => Value::from(rng.gen_range(-4i64..5) as f64 / 2.0),
        };
        for _ in 0..20_000 {
            let (a, b) = (value(rng), value(rng));
            let stored = IndexKey { head: Head::of(&a), value: a.clone() };
            assert_eq!((&Probe::of(&a) as &dyn Key).cmp(&Probe::of(&b)), a.total_cmp(&b), "{a:?} {b:?}");
            assert_eq!((&stored as &dyn Key).cmp(&Probe::of(&b)), a.total_cmp(&b), "{a:?} {b:?}");
        }
    }

    #[test]
    fn store_collections() {
        let s = DocStore::new();
        let c1 = s.collection("a");
        c1.insert(sample("1", "x", 1)).unwrap();
        // Same handle through a second lookup.
        assert_eq!(s.collection("a").len(), 1);
        assert_eq!(s.collection("b").len(), 0);
        let mut names = s.collection_names();
        names.sort();
        assert_eq!(names, vec!["a", "b"]);
        assert!(s.drop_collection("b"));
        assert!(!s.drop_collection("b"));
    }

    #[test]
    fn stored_documents_share_one_allocation_per_name() {
        let c = Collection::new();
        c.insert(sample("1", "x", 1)).unwrap();
        c.upsert(sample("2", "y", 2));
        let names_of = |id: &str| -> Vec<*const u8> {
            c.lookup([id], |docs| docs.next().unwrap().field_names().map(str::as_ptr).collect())
        };
        let shared = names_of("1");
        assert_eq!(names_of("2"), shared);
        // In ascending order or not.
        let resolved = c.names(|names| ["value", "status", "value"].map(|name| names.resolve(name).as_ptr()));
        assert_eq!(resolved, [shared[1], shared[0], shared[1]]);
        // A name the table lacks is allocated for the caller, not added.
        assert_eq!(c.names(|names| (names.resolve("extra").as_ptr() != shared[0], names.len())), (true, 2));
        // A refused write adds nothing; a stored one adds its new names,
        // and they go with the last document that holds them.
        assert!(c.insert(sample("1", "z", 3).with("extra", Value::Null)).is_err());
        assert!(c.update(sample("9", "z", 3).with("extra", Value::Null)).is_err());
        assert_eq!(c.names(|names| names.len()), 2);
        c.update(sample("2", "y", 2).with("extra", Value::Null)).unwrap();
        c.upsert(sample("3", "y", 2).with("extra", Value::Null));
        assert_eq!(c.names(|names| names.len()), 3);
        assert_eq!(names_of("3"), names_of("2"));
        assert_eq!(names_of("3")[1..], shared);
        c.delete("2").unwrap();
        c.upsert(sample("3", "y", 2));
        assert_eq!(c.names(|names| names.len()), 2);
        assert!(c.contains("3") && !c.contains("2"));
    }

    #[test]
    fn create_index_idempotent() {
        let c = Collection::new();
        c.insert(sample("1", "x", 1)).unwrap();
        c.create_index("status");
        c.create_index("status");
        assert_eq!(c.find(&Filter::eq("status", Value::from("x"))).len(), 1);
    }
}
