//! Property tests: indexed `find` and `scan` must agree with a naive full
//! scan and with the predicate itself, for arbitrary filters — range
//! predicates of every shape in particular — and mutation sequences.

use datablinder_docstore::{Collection, Cursor, DocStore, Document, Filter, Value};
use proptest::prelude::*;

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-50i64..50).prop_map(Value::from),
        prop::sample::select(vec!["a", "b", "c", "d"]).prop_map(Value::from),
        any::<bool>().prop_map(Value::from),
    ]
}

/// [`arb_value`] plus half-integer floats: a field then holds every type a
/// range bound can meet, and numerics compare across `I64` and `F64`.
fn arb_mixed_value() -> impl Strategy<Value = Value> {
    prop_oneof![3 => arb_value(), 1 => (-100i64..100).prop_map(|i| Value::from(i as f64 / 2.0))]
}

/// A range predicate on `x` (indexed in one collection) or `y` (indexed in
/// none): `between`, one-sided, strict on either side, and — since the
/// bounds are independent draws — equal, inverted, of another type than
/// the stored values, or absent from the index.
fn arb_range_filter() -> impl Strategy<Value = Filter> {
    let field = prop::sample::select(vec!["x", "y"]);
    (field, arb_mixed_value(), arb_mixed_value(), 0usize..4, 0usize..3, any::<bool>()).prop_map(
        |(field, lo, hi, lower, upper, equal)| {
            let hi = if equal { lo.clone() } else { hi };
            if lower == 3 {
                return Filter::between(field, lo, hi);
            }
            let mut conjuncts = Vec::new();
            match lower {
                0 => {}
                1 => conjuncts.push(Filter::gte(field, lo)),
                _ => conjuncts.push(Filter::gt(field, lo)),
            }
            match upper {
                0 => {}
                1 => conjuncts.push(Filter::lte(field, hi)),
                _ => conjuncts.push(Filter::lt(field, hi)),
            }
            Filter::and(conjuncts)
        },
    )
}

fn arb_doc(id: usize) -> impl Strategy<Value = Document> {
    (arb_value(), arb_value()).prop_map(move |(x, y)| Document::new(format!("d{id}")).with("x", x).with("y", y))
}

fn arb_filter() -> impl Strategy<Value = Filter> {
    let leaf = prop_oneof![
        Just(Filter::All),
        arb_value().prop_map(|v| Filter::eq("x", v)),
        arb_value().prop_map(|v| Filter::lt("x", v)),
        arb_value().prop_map(|v| Filter::lte("y", v)),
        arb_value().prop_map(|v| Filter::gt("x", v)),
        arb_value().prop_map(|v| Filter::gte("y", v)),
        Just(Filter::Exists("x".into())),
    ];
    leaf.prop_recursive(2, 8, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..3).prop_map(Filter::and),
            prop::collection::vec(inner.clone(), 0..3).prop_map(Filter::or),
            inner.prop_map(Filter::not),
        ]
    })
}

proptest! {
    #[test]
    fn indexed_find_equals_full_scan(
        docs in prop::collection::vec(arb_doc(0), 0..30).prop_map(|ds| {
            // Re-key with unique ids.
            ds.into_iter().enumerate().map(|(i, d)| {
                let mut nd = Document::new(format!("d{i}"));
                for (f, v) in d.iter() { nd.set(f.clone(), v.clone()); }
                nd
            }).collect::<Vec<_>>()
        }),
        filter in arb_filter(),
    ) {
        let indexed = Collection::new();
        indexed.create_index("x");
        let plain = Collection::new();
        for d in &docs {
            indexed.insert(d.clone()).unwrap();
            plain.insert(d.clone()).unwrap();
        }
        let a: Vec<String> = indexed.find(&filter).iter().map(|d| d.id().to_string()).collect();
        let b: Vec<String> = plain.find(&filter).iter().map(|d| d.id().to_string()).collect();
        prop_assert_eq!(&a, &b);

        // The borrowing scan hands out exactly those documents (in any
        // order), judged against the predicate itself rather than `find`.
        let mut expect: Vec<Document> = docs.iter().filter(|d| filter.matches(d)).cloned().collect();
        expect.sort_by(|x, y| x.id().cmp(y.id()));
        for coll in [&indexed, &plain] {
            let mut seen: Vec<Document> = coll.scan(&filter, |hits| hits.cloned().collect());
            seen.sort_by(|x, y| x.id().cmp(y.id()));
            prop_assert_eq!(&seen, &expect);
            prop_assert_eq!(coll.find(&filter), expect.clone());
        }
        // Point lookups keep the caller's order and skip unknown ids.
        let asked: Vec<String> = a.iter().rev().cloned().chain(["nope".to_string()]).collect();
        let got: Vec<String> =
            indexed.lookup(asked.iter().map(String::as_str), |hits| hits.map(|d| d.id().to_string()).collect());
        prop_assert_eq!(got, a.iter().rev().cloned().collect::<Vec<_>>());
    }

    #[test]
    fn index_survives_updates_and_deletes(
        initial in prop::collection::vec(arb_value(), 1..20),
        updates in prop::collection::vec((0usize..20, arb_value()), 0..20),
        deletes in prop::collection::vec(0usize..20, 0..10),
    ) {
        let coll = Collection::new();
        coll.create_index("x");
        let mut oracle: Vec<Option<Value>> = Vec::new();
        for (i, v) in initial.iter().enumerate() {
            coll.insert(Document::new(format!("d{i}")).with("x", v.clone())).unwrap();
            oracle.push(Some(v.clone()));
        }
        for (i, v) in &updates {
            if *i < oracle.len() && oracle[*i].is_some() {
                coll.update(Document::new(format!("d{i}")).with("x", v.clone())).unwrap();
                oracle[*i] = Some(v.clone());
            }
        }
        for i in &deletes {
            if *i < oracle.len() && oracle[*i].is_some() {
                coll.delete(&format!("d{i}")).unwrap();
                oracle[*i] = None;
            }
        }
        // Every oracle value must be findable through the index, and counts
        // must match exactly.
        for v in [Value::from(-1i64), Value::from("a"), Value::from(true)] {
            let hits = coll.find(&Filter::eq("x", v.clone())).len();
            let expect = oracle
                .iter()
                .filter(|o| matches!(o, Some(x) if x.total_cmp(&v) == std::cmp::Ordering::Equal))
                .count();
            prop_assert_eq!(hits, expect, "value {:?}", v);
        }
        prop_assert_eq!(coll.len(), oracle.iter().flatten().count());
    }

    #[test]
    fn range_scan_equals_predicate_through_mutations(
        initial in prop::collection::vec((arb_mixed_value(), arb_mixed_value()), 1..24),
        updates in prop::collection::vec((0usize..24, arb_mixed_value(), arb_mixed_value()), 0..16),
        deletes in prop::collection::vec(0usize..24, 0..8),
        filters in prop::collection::vec(arb_range_filter(), 1..8),
        residual in arb_filter(),
    ) {
        let doc = |i: usize, x: &Value, y: &Value| Document::new(format!("d{i}")).with("x", x.clone()).with("y", y.clone());
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
        let with_residual: Vec<Filter> = filters.iter().map(|f| Filter::and(vec![f.clone(), residual.clone()])).collect();
        for filter in filters.iter().chain(&with_residual) {
            let mut expect: Vec<Document> = oracle.iter().flatten().filter(|d| filter.matches(d)).cloned().collect();
            expect.sort_by(|a, b| a.id().cmp(b.id()));
            for coll in [&indexed, &plain] {
                let mut seen: Vec<Document> = coll.scan(filter, |hits| hits.cloned().collect());
                seen.sort_by(|a, b| a.id().cmp(b.id()));
                prop_assert_eq!(&seen, &expect, "scan, {:?}", filter);
                prop_assert_eq!(&coll.find(filter), &expect, "find, {:?}", filter);
            }
        }
    }

    /// A reader keeps what `scan_from` shows it, dropping everything when
    /// told nothing was skipped. After every read that is exactly the
    /// collection's content; a read skips everything already seen unless a
    /// stored document was updated or deleted, or the collection dropped
    /// and recreated, since the last one.
    #[test]
    fn resumed_scans_see_each_document_once_until_a_stored_one_changes(
        steps in prop::collection::vec((0usize..10, 0usize..12, arb_value()), 1..60),
    ) {
        let store = DocStore::new();
        let mut cursor = Cursor::default();
        let mut seen: Vec<Document> = Vec::new();
        let mut void = true;
        for (n, (op, i, x)) in steps.into_iter().enumerate() {
            let coll = store.collection("c");
            let id = format!("d{i}");
            match op {
                0..=3 => {
                    let _ = coll.insert(Document::new(format!("d{i}-{n}")).with("x", x));
                }
                4 => void |= coll.update(Document::new(id).with("x", x)).is_ok(),
                5 => void |= coll.delete(&id).is_ok(),
                6 => {
                    let _ = coll.insert(Document::new(id).with("x", x));
                }
                7 => void |= store.drop_collection("c"),
                _ => {
                    let (next, (skipped, fresh)) =
                        coll.scan_from(cursor, |skipped, docs| (skipped, docs.cloned().collect::<Vec<_>>()));
                    prop_assert_eq!(skipped, if void { 0 } else { seen.len() }, "step {}", n);
                    seen.truncate(skipped);
                    seen.extend(fresh);
                    (cursor, void) = (next, false);
                    let mut stored = seen.clone();
                    stored.sort_by(|a, b| a.id().cmp(b.id()));
                    prop_assert_eq!(stored, coll.find(&Filter::All), "step {}", n);
                }
            }
        }
    }
}
