//! Model-based property tests: random operation sequences against the
//! store must agree with a naive in-memory oracle, both in volatile mode
//! and across a semi-durable restart.

use std::collections::{HashMap, HashSet};

use datablinder_codec::encode_frame;
use datablinder_kvstore::{scan_frames, KvStore, LogRecord};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Set(u8, u8),
    Del(u8),
    HSet(u8, u8, u8),
    HDel(u8, u8),
    SAdd(u8, u8),
    SRem(u8, u8),
    Incr(u8, i8),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..8, any::<u8>()).prop_map(|(k, v)| Op::Set(k, v)),
        (0u8..8).prop_map(Op::Del),
        (8u8..12, 0u8..6, any::<u8>()).prop_map(|(k, f, v)| Op::HSet(k, f, v)),
        (8u8..12, 0u8..6).prop_map(|(k, f)| Op::HDel(k, f)),
        (12u8..16, 0u8..6).prop_map(|(k, m)| Op::SAdd(k, m)),
        (12u8..16, 0u8..6).prop_map(|(k, m)| Op::SRem(k, m)),
        (16u8..20, any::<i8>()).prop_map(|(k, v)| Op::Incr(k, v)),
    ]
}

/// The oracle: plain std collections. Key ranges are disjoint per kind so
/// type conflicts cannot occur (conflict behavior has dedicated unit tests).
#[derive(Default)]
struct Oracle {
    strings: HashMap<u8, u8>,
    hashes: HashMap<u8, HashMap<u8, u8>>,
    sets: HashMap<u8, HashSet<u8>>,
    counters: HashMap<u8, i64>,
}

fn apply(store: &KvStore, oracle: &mut Oracle, op: &Op) {
    match *op {
        Op::Set(k, v) => {
            store.set(&[k], &[v]);
            oracle.strings.insert(k, v);
        }
        Op::Del(k) => {
            store.del(&[k]);
            oracle.strings.remove(&k);
        }
        Op::HSet(k, f, v) => {
            store.hset(&[k], &[f], &[v]).unwrap();
            oracle.hashes.entry(k).or_default().insert(f, v);
        }
        Op::HDel(k, f) => {
            store.hdel(&[k], &[f]).unwrap();
            oracle.hashes.entry(k).or_default().remove(&f);
        }
        Op::SAdd(k, m) => {
            store.sadd(&[k], &[m]).unwrap();
            oracle.sets.entry(k).or_default().insert(m);
        }
        Op::SRem(k, m) => {
            store.srem(&[k], &[m]).unwrap();
            oracle.sets.entry(k).or_default().remove(&m);
        }
        Op::Incr(k, v) => {
            store.incr_by(&[k], v as i64).unwrap();
            *oracle.counters.entry(k).or_default() += v as i64;
        }
    }
}

fn check(store: &KvStore, oracle: &Oracle) {
    for k in 0u8..8 {
        assert_eq!(store.get(&[k]), oracle.strings.get(&k).map(|v| vec![*v]), "string {k}");
    }
    for k in 8u8..12 {
        for f in 0u8..6 {
            let expect = oracle.hashes.get(&k).and_then(|h| h.get(&f)).map(|v| vec![*v]);
            assert_eq!(store.hget(&[k], &[f]), expect, "hash {k}/{f}");
        }
    }
    for k in 12u8..16 {
        for m in 0u8..6 {
            let expect = oracle.sets.get(&k).is_some_and(|s| s.contains(&m));
            assert_eq!(store.sismember(&[k], &[m]), expect, "set {k}/{m}");
        }
    }
    for k in 16u8..20 {
        assert_eq!(store.counter(&[k]), *oracle.counters.get(&k).unwrap_or(&0), "counter {k}");
    }
}

/// Arbitrary keys/values/members, deliberately including the empty slice:
/// WAL replay must round-trip every encodable record, not just plausible
/// application keys.
fn arb_blob() -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(any::<u8>(), 0..48)
}

fn arb_record() -> impl Strategy<Value = LogRecord> {
    prop_oneof![
        (arb_blob(), arb_blob()).prop_map(|(key, value)| LogRecord::Set { key, value }),
        arb_blob().prop_map(|key| LogRecord::Del { key }),
        (arb_blob(), arb_blob(), arb_blob()).prop_map(|(key, field, value)| LogRecord::HSet { key, field, value }),
        (arb_blob(), arb_blob()).prop_map(|(key, field)| LogRecord::HDel { key, field }),
        (arb_blob(), arb_blob()).prop_map(|(key, member)| LogRecord::SAdd { key, member }),
        (arb_blob(), arb_blob()).prop_map(|(key, member)| LogRecord::SRem { key, member }),
        (arb_blob(), any::<i64>()).prop_map(|(key, by)| LogRecord::Incr { key, by }),
    ]
}

proptest! {
    #[test]
    fn log_record_roundtrips_through_encoding(rec in arb_record()) {
        let body = rec.to_bytes();
        let decoded = LogRecord::from_body(&body).expect("every encoded record decodes");
        prop_assert_eq!(decoded, rec);
    }

    #[test]
    fn framed_record_stream_roundtrips(recs in prop::collection::vec(arb_record(), 0..40)) {
        // The full WAL pipeline in miniature: bodies → CRC frames →
        // concatenated stream → scan → decode, identity end to end.
        let mut stream = Vec::new();
        for rec in &recs {
            stream.extend_from_slice(&encode_frame(&[&rec.to_bytes()]));
        }
        let scan = scan_frames(&stream).expect("a whole stream has no corrupt frames");
        prop_assert!(!scan.torn_tail);
        prop_assert_eq!(scan.valid_len as usize, stream.len());
        let decoded: Vec<LogRecord> =
            scan.frames.iter().map(|body| LogRecord::from_body(body).expect("frame body decodes")).collect();
        prop_assert_eq!(decoded, recs);
    }

    #[test]
    fn volatile_store_matches_oracle(ops in prop::collection::vec(arb_op(), 0..200)) {
        let store = KvStore::new();
        let mut oracle = Oracle::default();
        for op in &ops {
            apply(&store, &mut oracle, op);
        }
        check(&store, &oracle);
    }

    #[test]
    fn semi_durable_store_recovers_to_oracle(ops in prop::collection::vec(arb_op(), 0..100)) {
        let path = std::env::temp_dir().join(format!(
            "datablinder-kv-prop-{}-{:x}",
            std::process::id(),
            rand::random::<u64>()
        ));
        let _ = std::fs::remove_file(&path);
        let mut oracle = Oracle::default();
        {
            let store = KvStore::open_semi_durable(&path).unwrap();
            for op in &ops {
                apply(&store, &mut oracle, op);
            }
            check(&store, &oracle);
        } // drop flushes the log
        let recovered = KvStore::open_semi_durable(&path).unwrap();
        check(&recovered, &oracle);
        std::fs::remove_file(&path).unwrap();
    }
}
