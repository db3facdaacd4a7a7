//! Model-based property tests: random operation sequences against the
//! store must agree with a naive in-memory oracle, both in volatile mode
//! and across a semi-durable restart. Case `n` draws from
//! `StdRng::seed_from_u64(n)`; a failure names its case.

use std::collections::{HashMap, HashSet};

use datablinder_codec::encode_frame;
use datablinder_kvstore::{scan_frames, KvError, KvStore, LogRecord};
use datablinder_primitives::sha256;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 256;

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

fn op(rng: &mut StdRng) -> Op {
    match rng.gen_range(0..7) {
        0 => Op::Set(rng.gen_range(0..8), rng.gen()),
        1 => Op::Del(rng.gen_range(0..8)),
        2 => Op::HSet(rng.gen_range(8..12), rng.gen_range(0..6), rng.gen()),
        3 => Op::HDel(rng.gen_range(8..12), rng.gen_range(0..6)),
        4 => Op::SAdd(rng.gen_range(12..16), rng.gen_range(0..6)),
        5 => Op::SRem(rng.gen_range(12..16), rng.gen_range(0..6)),
        _ => Op::Incr(rng.gen_range(16..20), rng.gen::<u8>() as i8),
    }
}

fn ops(rng: &mut StdRng, max: usize) -> Vec<Op> {
    (0..rng.gen_range(0..max)).map(|_| op(rng)).collect()
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

fn check(case: u64, store: &KvStore, oracle: &Oracle) {
    for k in 0u8..8 {
        assert_eq!(store.get(&[k]), oracle.strings.get(&k).map(|v| vec![*v]), "case {case}, string {k}");
    }
    for k in 8u8..12 {
        for f in 0u8..6 {
            let expect = oracle.hashes.get(&k).and_then(|h| h.get(&f)).map(|v| vec![*v]);
            assert_eq!(store.hget(&[k], &[f]), expect, "case {case}, hash {k}/{f}");
        }
    }
    for k in 12u8..16 {
        for m in 0u8..6 {
            let expect = oracle.sets.get(&k).is_some_and(|s| s.contains(&m));
            assert_eq!(store.sismember(&[k], &[m]), expect, "case {case}, set {k}/{m}");
        }
    }
    for k in 16u8..20 {
        assert_eq!(store.counter(&[k]), *oracle.counters.get(&k).unwrap_or(&0), "case {case}, counter {k}");
    }
}

/// Arbitrary keys/values/members, deliberately including the empty slice:
/// WAL replay must round-trip every encodable record, not just plausible
/// application keys.
fn blob(rng: &mut StdRng) -> Vec<u8> {
    (0..rng.gen_range(0..48)).map(|_| rng.gen()).collect()
}

fn record(rng: &mut StdRng) -> LogRecord {
    let key = blob(rng);
    match rng.gen_range(0..7) {
        0 => LogRecord::Set { key, value: blob(rng) },
        1 => LogRecord::Del { key },
        2 => LogRecord::HSet { key, field: blob(rng), value: blob(rng) },
        3 => LogRecord::HDel { key, field: blob(rng) },
        4 => LogRecord::SAdd { key, member: blob(rng) },
        5 => LogRecord::SRem { key, member: blob(rng) },
        _ => LogRecord::Incr { key, by: rng.gen() },
    }
}

#[test]
fn log_record_roundtrips_through_encoding() {
    for case in 0..CASES {
        let rec = record(&mut StdRng::seed_from_u64(case));
        let body = rec.to_bytes();
        assert_eq!(LogRecord::from_body(&body).ok(), Some(rec), "case {case}");
    }
}

#[test]
fn framed_record_stream_roundtrips() {
    for case in 0..CASES {
        let rng = &mut StdRng::seed_from_u64(case);
        let recs: Vec<LogRecord> = (0..rng.gen_range(0..40)).map(|_| record(rng)).collect();
        // The full WAL pipeline in miniature: bodies → CRC frames →
        // concatenated stream → scan → decode, identity end to end.
        let mut stream = Vec::new();
        for rec in &recs {
            stream.extend_from_slice(&encode_frame(&[&rec.to_bytes()]));
        }
        let scan = scan_frames(&stream).expect("a whole stream has no corrupt frames");
        assert!(!scan.torn_tail, "case {case}");
        assert_eq!(scan.valid_len as usize, stream.len(), "case {case}");
        let decoded: Vec<LogRecord> =
            scan.frames.iter().map(|body| LogRecord::from_body(body).expect("frame body decodes")).collect();
        assert_eq!(decoded, recs, "case {case}");
    }
}

#[test]
fn volatile_store_matches_oracle() {
    for case in 0..CASES {
        let store = KvStore::new();
        let mut oracle = Oracle::default();
        for op in &ops(&mut StdRng::seed_from_u64(case), 200) {
            apply(&store, &mut oracle, op);
        }
        check(case, &store, &oracle);
    }
}

#[test]
fn semi_durable_store_recovers_to_oracle() {
    for case in 0..CASES {
        let path = std::env::temp_dir().join(format!("datablinder-kv-prop-{}-{case}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let mut oracle = Oracle::default();
        {
            let store = KvStore::open_semi_durable(&path).unwrap();
            for op in &ops(&mut StdRng::seed_from_u64(case), 100) {
                apply(&store, &mut oracle, op);
            }
            check(case, &store, &oracle);
        } // drop flushes the log
        let recovered = KvStore::open_semi_durable(&path).unwrap();
        check(case, &recovered, &oracle);
        std::fs::remove_file(&path).unwrap();
    }
}

fn log_path(name: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("datablinder-kv-{name}-{}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

/// The semi-durable log is stored output: a fixed script over every
/// write operation, failures and misses included, leaves these bytes.
#[test]
fn semi_durable_log_bytes_are_pinned() {
    let path = log_path("pinned");
    {
        let kv = KvStore::open_semi_durable(&path).unwrap();
        kv.set(b"s/1", b"one");
        kv.set(b"s/2", b"two");
        assert!(kv.set_nx(b"nx", b"first"));
        assert!(!kv.set_nx(b"nx", b"second"));
        assert!(kv.del(b"s/2"));
        assert!(!kv.del(b"missing"));
        kv.set(b"p/a", b"x");
        kv.set(b"p/b", b"y");
        assert_eq!(kv.del_prefix(b"p/"), 2);
        assert!(kv.hset(b"h", b"f1", b"v1").unwrap());
        assert!(kv.hset(b"h", b"f2", b"v2").unwrap());
        assert!(matches!(kv.hset(b"s/1", b"f", b"v"), Err(KvError::WrongType { .. })));
        assert!(kv.hdel(b"h", b"f1").unwrap());
        assert!(!kv.hdel(b"h", b"f1").unwrap());
        assert!(kv.sadd(b"set", b"m1").unwrap());
        assert!(kv.sadd(b"set", b"m2").unwrap());
        assert!(kv.srem(b"set", b"m1").unwrap());
        assert_eq!(kv.incr(b"c").unwrap(), 1);
        assert_eq!(kv.incr_by(b"c", -7).unwrap(), -6);
    }
    let bytes = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).unwrap();
    let hex: String = sha256::digest(&bytes).iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(hex, "f61881c0ec944131f1119be459dc2e1bd35ca913b78f7e59c4e785b7e13709b7");
}

/// Writers racing on a few keys: the log holds each key's writes in the
/// order they reached the map, so a reopen rebuilds exactly the state the
/// store held before it closed.
#[test]
fn racing_writes_are_logged_in_apply_order() {
    let path = log_path("race");
    let before = {
        let kv = KvStore::open_semi_durable(&path).unwrap();
        let start = std::sync::Arc::new(std::sync::Barrier::new(4));
        let threads: Vec<_> = (0..4u8)
            .map(|t| {
                let (kv, start) = (kv.clone(), start.clone());
                std::thread::spawn(move || {
                    let rng = &mut StdRng::seed_from_u64(t as u64);
                    start.wait();
                    for i in 0..2_000u32 {
                        let key = [b'k', rng.gen_range(0..4u8)];
                        let value = [t, (i % 251) as u8];
                        match rng.gen_range(0..4) {
                            0 => kv.set(&key, &value),
                            1 => {
                                kv.set_nx(&key, &value);
                            }
                            2 => {
                                let _ = kv.hset(&key, &[t], &value);
                            }
                            _ => {
                                kv.del(&key);
                            }
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        kv.export_records()
    };
    let reopened = KvStore::open_semi_durable(&path).unwrap();
    assert_eq!(reopened.export_records(), before);
    drop(reopened);
    std::fs::remove_file(&path).unwrap();
}
