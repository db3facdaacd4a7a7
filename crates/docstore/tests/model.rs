//! Property tests: indexed `find` and `scan` must agree with a naive full
//! scan and with the predicate itself, for arbitrary filters — range
//! predicates of every shape in particular — and mutation sequences.
//! Case `n` draws from `StdRng::seed_from_u64(n)`; a failure names its case.

use std::collections::{BTreeMap, HashSet};

use datablinder_docstore::{Collection, Cursor, DocStore, Document, Filter, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 256;

/// `len` draws of `item`, `len` uniform in `lens`.
fn vec_of<T>(rng: &mut StdRng, lens: std::ops::Range<usize>, mut item: impl FnMut(&mut StdRng) -> T) -> Vec<T> {
    (0..rng.gen_range(lens)).map(|_| item(rng)).collect()
}

fn value(rng: &mut StdRng) -> Value {
    match rng.gen_range(0..3) {
        0 => Value::from(rng.gen_range(-50i64..50)),
        1 => Value::from(["a", "b", "c", "d"][rng.gen_range(0..4usize)]),
        _ => Value::from(rng.gen::<bool>()),
    }
}

/// [`value`] plus half-integer floats: a field then holds every type a
/// range bound can meet, and numerics compare across `I64` and `F64`.
fn mixed_value(rng: &mut StdRng) -> Value {
    if rng.gen_range(0..4) < 3 {
        value(rng)
    } else {
        Value::from(rng.gen_range(-100i64..100) as f64 / 2.0)
    }
}

/// A range predicate on `x` (indexed in one collection) or `y` (indexed in
/// none): `between`, one-sided, strict on either side, and — since the
/// bounds are independent draws — equal, inverted, of another type than
/// the stored values, or absent from the index.
fn range_filter(rng: &mut StdRng) -> Filter {
    let field = ["x", "y"][rng.gen_range(0..2usize)];
    let lo = mixed_value(rng);
    let hi = mixed_value(rng);
    let hi = if rng.gen() { lo.clone() } else { hi };
    let mut conjuncts = Vec::new();
    match rng.gen_range(0..4) {
        3 => return Filter::between(field, lo, hi),
        0 => {}
        1 => conjuncts.push(Filter::gte(field, lo)),
        _ => conjuncts.push(Filter::gt(field, lo)),
    }
    match rng.gen_range(0..3) {
        0 => {}
        1 => conjuncts.push(Filter::lte(field, hi)),
        _ => conjuncts.push(Filter::lt(field, hi)),
    }
    Filter::and(conjuncts)
}

/// A leaf predicate or, while `depth` lasts, a conjunction, disjunction or
/// negation of filters.
fn filter(rng: &mut StdRng, depth: u32) -> Filter {
    match rng.gen_range(0..if depth == 0 { 7 } else { 10 }) {
        0 => Filter::All,
        1 => Filter::eq("x", value(rng)),
        2 => Filter::lt("x", value(rng)),
        3 => Filter::lte("y", value(rng)),
        4 => Filter::gt("x", value(rng)),
        5 => Filter::gte("y", value(rng)),
        6 => Filter::Exists("x".into()),
        7 => Filter::and(vec_of(rng, 0..3, |rng| filter(rng, depth - 1))),
        8 => Filter::or(vec_of(rng, 0..3, |rng| filter(rng, depth - 1))),
        _ => Filter::not(filter(rng, depth - 1)),
    }
}

fn any_filter(rng: &mut StdRng) -> Filter {
    filter(rng, 2)
}

#[test]
fn indexed_find_equals_full_scan() {
    for case in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(case);
        let docs: Vec<Document> = (0..rng.gen_range(0..30))
            .map(|i| Document::new(format!("d{i}")).with("x", value(rng)).with("y", value(rng)))
            .collect();
        let filter = any_filter(rng);
        let indexed = Collection::new();
        indexed.create_index("x");
        let plain = Collection::new();
        for d in &docs {
            indexed.insert(d.clone()).unwrap();
            plain.insert(d.clone()).unwrap();
        }
        let a: Vec<String> = indexed.find(&filter).iter().map(|d| d.id().to_string()).collect();
        let b: Vec<String> = plain.find(&filter).iter().map(|d| d.id().to_string()).collect();
        assert_eq!(&a, &b, "case {case}");

        // The borrowing scan hands out exactly those documents (in any
        // order), judged against the predicate itself rather than `find`.
        let mut expect: Vec<Document> = docs.iter().filter(|d| filter.matches(d)).cloned().collect();
        expect.sort_by(|x, y| x.id().cmp(y.id()));
        for coll in [&indexed, &plain] {
            let mut seen: Vec<Document> = coll.scan(&filter, |hits| hits.cloned().collect());
            seen.sort_by(|x, y| x.id().cmp(y.id()));
            assert_eq!(&seen, &expect, "case {case}");
            assert_eq!(coll.find(&filter), expect, "case {case}");
        }
        // Point lookups keep the caller's order and skip unknown ids.
        let asked: Vec<String> = a.iter().rev().cloned().chain(["nope".to_string()]).collect();
        let got: Vec<String> =
            indexed.lookup(asked.iter().map(String::as_str), |hits| hits.map(|d| d.id().to_string()).collect());
        assert_eq!(got, a.iter().rev().cloned().collect::<Vec<_>>(), "case {case}");
    }
}

/// One step of [`index_survives_updates_and_deletes`]: a fresh document,
/// or an update or delete of a stored one, each holding `x` and `y` or
/// lacking one of them.
#[derive(Clone, Debug)]
enum Write {
    Insert(Option<Value>, Option<Value>),
    Update(usize, Option<Value>, Option<Value>),
    Delete(usize),
}

/// Adds the values of `fields` to `written`, each once.
fn note(written: &mut Vec<Value>, fields: [&Option<Value>; 2]) {
    for v in fields.into_iter().flatten() {
        if !written.iter().any(|w| w.total_cmp(v) == std::cmp::Ordering::Equal) {
            written.push(v.clone());
        }
    }
}

fn write(rng: &mut StdRng) -> Write {
    let field = |rng: &mut StdRng| (rng.gen_range(0..6) > 0).then(|| value(rng));
    match rng.gen_range(0..5) {
        0 | 1 => Write::Insert(field(rng), field(rng)),
        2 => Write::Update(rng.gen_range(0..64usize), field(rng), field(rng)),
        _ => Write::Delete(rng.gen_range(0..64usize)),
    }
}

/// Inserts, updates and deletes interleave, so a document `delete` moves
/// into a hole gets new neighbours before and after it. After every step,
/// on both indexed fields: the ids an equality finds for every value ever
/// written (stored or gone) are the oracle's, and every indexed scan — an
/// equality or a range, alone or with a residual conjunct — hands out what
/// a full scan of an unindexed twin does.
#[test]
fn index_survives_updates_and_deletes() {
    for case in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(case);
        let indexed = Collection::new();
        indexed.create_index("x");
        indexed.create_index("y");
        let plain = Collection::new();
        let mut oracle: BTreeMap<String, Document> = BTreeMap::new();
        let mut written: Vec<Value> = Vec::new();
        let mut minted = 0;
        for (n, step) in vec_of(rng, 1..80, write).into_iter().enumerate() {
            let doc = |id: &str, x: &Option<Value>, y: &Option<Value>| {
                let mut doc = Document::new(id);
                for (field, v) in [("x", x), ("y", y)] {
                    if let Some(v) = v {
                        doc.set(field, v.clone());
                    }
                }
                doc
            };
            let stored: Vec<String> = oracle.keys().cloned().collect();
            let pick = |i: usize| (!stored.is_empty()).then(|| stored[i % stored.len()].clone());
            match &step {
                Write::Insert(x, y) => {
                    let id = format!("d{minted}");
                    minted += 1;
                    for coll in [&indexed, &plain] {
                        coll.insert(doc(&id, x, y)).unwrap();
                    }
                    oracle.insert(id.clone(), doc(&id, x, y));
                    note(&mut written, [x, y]);
                }
                Write::Update(i, x, y) => {
                    let Some(id) = pick(*i) else { continue };
                    for coll in [&indexed, &plain] {
                        coll.update(doc(&id, x, y)).unwrap();
                    }
                    oracle.insert(id.clone(), doc(&id, x, y));
                    note(&mut written, [x, y]);
                }
                Write::Delete(i) => {
                    let Some(id) = pick(*i) else { continue };
                    for coll in [&indexed, &plain] {
                        coll.delete(&id).unwrap();
                    }
                    oracle.remove(&id);
                }
            }
            assert_eq!(indexed.len(), oracle.len(), "case {case}, step {n}");
            for field in ["x", "y"] {
                for v in &written {
                    let filter = Filter::eq(field, v.clone());
                    assert!(indexed.index_serves(&filter));
                    // Sorted, not a set: an entry left pointing at a moved
                    // document would show as a repeated id.
                    let mut found: Vec<String> =
                        indexed.scan(&filter, |hits| hits.map(|d| d.id().to_string()).collect());
                    found.sort();
                    let expect: Vec<String> = oracle
                        .values()
                        .filter(|d| d.get(field).is_some_and(|s| s.total_cmp(v) == std::cmp::Ordering::Equal))
                        .map(|d| d.id().to_string())
                        .collect();
                    assert_eq!(found, expect, "case {case}, step {n}, {field} = {v:?}");
                }
            }
            let probes = [Filter::eq("y", value(rng)), range_filter(rng)];
            let residual = any_filter(rng);
            for filter in probes.iter().cloned().chain([Filter::and(vec![probes[1].clone(), residual])]) {
                let mut seen: Vec<Document> = indexed.scan(&filter, |hits| hits.cloned().collect());
                seen.sort_by(|a, b| a.id().cmp(b.id()));
                assert_eq!(seen, plain.find(&filter), "case {case}, step {n}, {filter:?}");
            }
        }
    }
}

#[test]
fn range_scan_equals_predicate_through_mutations() {
    for case in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(case);
        let initial = vec_of(rng, 1..24, |rng| (mixed_value(rng), mixed_value(rng)));
        let updates = vec_of(rng, 0..16, |rng| (rng.gen_range(0..24usize), mixed_value(rng), mixed_value(rng)));
        let deletes = vec_of(rng, 0..8, |rng| rng.gen_range(0..24usize));
        let filters = vec_of(rng, 1..8, range_filter);
        let residual = any_filter(rng);
        let doc =
            |i: usize, x: &Value, y: &Value| Document::new(format!("d{i}")).with("x", x.clone()).with("y", y.clone());
        let indexed = Collection::new();
        indexed.create_index("x");
        let plain = Collection::new();
        let mut oracle: Vec<Option<Document>> = Vec::new();
        for (i, (x, y)) in initial.iter().enumerate() {
            for coll in [&indexed, &plain] {
                coll.insert(doc(i, x, y)).unwrap();
            }
            oracle.push(Some(doc(i, x, y)));
        }
        for (i, x, y) in &updates {
            if oracle.get(*i).is_some_and(Option::is_some) {
                for coll in [&indexed, &plain] {
                    coll.update(doc(*i, x, y)).unwrap();
                }
                oracle[*i] = Some(doc(*i, x, y));
            }
        }
        for i in &deletes {
            if oracle.get(*i).is_some_and(Option::is_some) {
                for coll in [&indexed, &plain] {
                    coll.delete(&format!("d{i}")).unwrap();
                }
                oracle[*i] = None;
            }
        }
        // Each range alone, then with an arbitrary second conjunct.
        let with_residual: Vec<Filter> =
            filters.iter().map(|f| Filter::and(vec![f.clone(), residual.clone()])).collect();
        for filter in filters.iter().chain(&with_residual) {
            let mut expect: Vec<Document> = oracle.iter().flatten().filter(|d| filter.matches(d)).cloned().collect();
            expect.sort_by(|a, b| a.id().cmp(b.id()));
            for coll in [&indexed, &plain] {
                let mut seen: Vec<Document> = coll.scan(filter, |hits| hits.cloned().collect());
                seen.sort_by(|a, b| a.id().cmp(b.id()));
                assert_eq!(&seen, &expect, "case {case}, scan, {filter:?}");
                assert_eq!(&coll.find(filter), &expect, "case {case}, find, {filter:?}");
            }
        }
    }
}

/// What one step of [`resumed_scans_see_each_document_once_until_a_stored_one_changes`]
/// does to the collection.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Op {
    /// A fresh document under a new id.
    Insert,
    Update,
    Delete,
    /// An insert under an id that may already be taken.
    Reinsert,
    Drop,
    Scan,
}

/// How many variants [`Op`] has.
const OP_KINDS: usize = 6;

/// One step: an op, the document index it targets and the value it writes.
fn step(rng: &mut StdRng) -> (Op, usize, Value) {
    let op = match rng.gen_range(0..10) {
        0..=3 => Op::Insert,
        4 => Op::Update,
        5 => Op::Delete,
        6 => Op::Reinsert,
        7 => Op::Drop,
        _ => Op::Scan,
    };
    (op, rng.gen_range(0..12usize), value(rng))
}

fn steps(case: u64) -> Vec<(Op, usize, Value)> {
    vec_of(&mut StdRng::seed_from_u64(case), 1..60, step)
}

/// A reader keeps what `scan_from` shows it, dropping everything when
/// told nothing was skipped. After every read that is exactly the
/// collection's content; a read skips everything already seen unless a
/// stored document was updated or deleted, or the collection dropped
/// and recreated, since the last one.
#[test]
fn resumed_scans_see_each_document_once_until_a_stored_one_changes() {
    for case in 0..CASES {
        let store = DocStore::new();
        let mut cursor = Cursor::default();
        let mut seen: Vec<Document> = Vec::new();
        let mut void = true;
        for (n, (op, i, x)) in steps(case).into_iter().enumerate() {
            let coll = store.collection("c");
            let id = format!("d{i}");
            match op {
                Op::Insert => {
                    let _ = coll.insert(Document::new(format!("d{i}-{n}")).with("x", x));
                }
                Op::Update => void |= coll.update(Document::new(id).with("x", x)).is_ok(),
                Op::Delete => void |= coll.delete(&id).is_ok(),
                Op::Reinsert => {
                    let _ = coll.insert(Document::new(id).with("x", x));
                }
                Op::Drop => void |= store.drop_collection("c"),
                Op::Scan => {
                    let (next, (skipped, fresh)) =
                        coll.scan_from(cursor, |skipped, docs| (skipped, docs.cloned().collect::<Vec<_>>()));
                    assert_eq!(skipped, if void { 0 } else { seen.len() }, "case {case}, step {n}");
                    seen.truncate(skipped);
                    seen.extend(fresh);
                    (cursor, void) = (next, false);
                    let mut stored = seen.clone();
                    stored.sort_by(|a, b| a.id().cmp(b.id()));
                    assert_eq!(stored, coll.find(&Filter::All), "case {case}, step {n}");
                }
            }
        }
    }
}

/// [`step`] is a hand-written `match`: an op it stopped drawing would leave
/// the suite above green and blind to that op.
#[test]
fn every_op_kind_is_generated() {
    let seen: HashSet<Op> = (0..CASES).flat_map(steps).map(|(op, _, _)| op).collect();
    assert_eq!(seen.len(), OP_KINDS, "{CASES} cases generated only {seen:?}");
}
