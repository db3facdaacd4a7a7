//! Property tests: every SSE scheme's search results must equal a
//! plaintext oracle over random update sequences (the crate-level
//! correctness contract of searchable encryption). Case `n` draws its
//! updates from `StdRng::seed_from_u64(n)`; a failure names its case.

use std::collections::BTreeSet;

use datablinder_kvstore::KvStore;
use datablinder_primitives::keys::SymmetricKey;
use datablinder_sse::biex::{Biex2LevClient, Biex2LevServer, BiexQuery, BiexZmfClient, BiexZmfServer};
use datablinder_sse::inverted::InvertedIndex;
use datablinder_sse::mitra::{MitraClient, MitraServer};
use datablinder_sse::sophos::{SophosClient, SophosKeypair, SophosServer};
use datablinder_sse::twolev::{TwoLevClient, TwoLevServer};
use datablinder_sse::{DocId, UpdateOp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 24;

#[derive(Debug, Clone)]
enum Update {
    Add(u8, u8), // (keyword, doc)
    Delete(u8, u8),
}

/// Up to 59 updates, three adds to every delete.
fn updates(case: u64) -> Vec<Update> {
    let rng = &mut StdRng::seed_from_u64(case);
    (0..rng.gen_range(0..60))
        .map(|_| {
            let (add, k, d) = (rng.gen_range(0..4) < 3, rng.gen_range(0..6), rng.gen_range(0..30));
            if add {
                Update::Add(k, d)
            } else {
                Update::Delete(k, d)
            }
        })
        .collect()
}

fn kw(k: u8) -> Vec<u8> {
    format!("kw-{k}").into_bytes()
}

fn id(d: u8) -> DocId {
    DocId([d; 16])
}

/// Oracle semantics: per keyword, the live set after applying the
/// add/delete sequence in order.
fn oracle(updates: &[Update]) -> Vec<BTreeSet<u8>> {
    let mut sets = vec![BTreeSet::new(); 6];
    for u in updates {
        match *u {
            Update::Add(k, d) => {
                sets[k as usize].insert(d);
            }
            Update::Delete(k, d) => {
                sets[k as usize].remove(&d);
            }
        }
    }
    sets
}

#[test]
fn mitra_matches_oracle() {
    for case in 0..CASES {
        let updates = updates(case);
        let mut client = MitraClient::new(&SymmetricKey::from_bytes(&[1u8; 32]));
        let server = MitraServer::new(KvStore::new(), b"m:");
        for u in &updates {
            let token = match *u {
                Update::Add(k, d) => client.update_token(&kw(k), id(d), UpdateOp::Add),
                Update::Delete(k, d) => client.update_token(&kw(k), id(d), UpdateOp::Delete),
            };
            server.apply_update(&token).unwrap();
        }
        let expect = oracle(&updates);
        for k in 0u8..6 {
            let results = server.search(&client.search_token(&kw(k)));
            let got: BTreeSet<u8> = client.resolve(&kw(k), &results).unwrap().into_iter().map(|i| i.0[0]).collect();
            assert_eq!(&got, &expect[k as usize], "case {case}, keyword {k}");
        }
    }
}

#[test]
fn sophos_matches_oracle_on_adds() {
    for case in 0..CASES {
        let updates = updates(case);
        // Sophos is add-only at the scheme level: the oracle here counts
        // only additions (dedup by (k, d)).
        let mut rng = StdRng::seed_from_u64(9);
        let keypair = SophosKeypair::generate(&mut rng, 128);
        let server = SophosServer::new(KvStore::new(), b"s:", keypair.public().clone());
        let mut client = SophosClient::new(&SymmetricKey::from_bytes(&[2u8; 32]), keypair);
        let mut expect = vec![BTreeSet::new(); 6];
        for u in &updates {
            if let Update::Add(k, d) = *u {
                server.apply_update(&client.update_token(&mut rng, &kw(k), id(d))).unwrap();
                expect[k as usize].insert(d);
            }
        }
        for k in 0u8..6 {
            let got: BTreeSet<u8> = match client.search_token(&kw(k)) {
                None => BTreeSet::new(),
                Some(token) => {
                    client.resolve(&kw(k), &server.search(&token)).unwrap().into_iter().map(|i| i.0[0]).collect()
                }
            };
            assert_eq!(&got, &expect[k as usize], "case {case}, keyword {k}");
        }
    }
}

#[test]
fn static_schemes_match_oracle() {
    for case in 0..CASES {
        let updates = updates(case);
        // 2Lev / BIEX are static: build the index from the final oracle
        // state and verify single-keyword and conjunctive searches.
        let expect = oracle(&updates);
        let mut idx = InvertedIndex::new();
        for (k, set) in expect.iter().enumerate() {
            for &d in set {
                idx.add(&kw(k as u8), id(d));
            }
        }
        let mut rng = StdRng::seed_from_u64(10);

        // 2Lev single-keyword.
        let c2lev = TwoLevClient::new(&SymmetricKey::from_bytes(&[3u8; 32]));
        let s2lev = TwoLevServer::new(KvStore::new(), b"t:");
        c2lev.setup(&mut rng, &idx, &s2lev).unwrap();
        for k in 0u8..6 {
            let buckets = s2lev.search(&c2lev.search_token(&kw(k))).unwrap();
            let got: BTreeSet<u8> = c2lev.resolve(&kw(k), &buckets).unwrap().into_iter().map(|i| i.0[0]).collect();
            assert_eq!(&got, &expect[k as usize], "case {case}, 2lev keyword {k}");
        }

        // BIEX conjunction kw-0 AND kw-1 under both variants.
        let conj_expect: BTreeSet<u8> = expect[0].intersection(&expect[1]).copied().collect();
        let query = BiexQuery::conjunction(vec![kw(0), kw(1)]);

        let cb = Biex2LevClient::new(&SymmetricKey::from_bytes(&[4u8; 32]));
        let sb = Biex2LevServer::new(KvStore::new(), b"b:");
        cb.setup(&mut rng, &idx, &sb).unwrap();
        let resp = sb.search(&cb.search_token(&query)).unwrap();
        let got: BTreeSet<u8> = cb.resolve(&query, &resp).unwrap().into_iter().map(|i| i.0[0]).collect();
        assert_eq!(&got, &conj_expect, "case {case}, biex-2lev conjunction");

        let cz = BiexZmfClient::new(&SymmetricKey::from_bytes(&[5u8; 32]));
        let sz = BiexZmfServer::new(KvStore::new(), b"z:");
        cz.setup(&mut rng, &idx, &sz).unwrap();
        let resp = sz.search(&cz.search_token(&query)).unwrap();
        let got: BTreeSet<u8> = cz.resolve(&query, &resp).unwrap().into_iter().map(|i| i.0[0]).collect();
        // ZMF admits Bloom false positives: superset, bounded growth.
        assert!(got.is_superset(&conj_expect), "case {case}: zmf false negative");
        assert!(got.len() <= conj_expect.len() + 2, "case {case}: zmf fp explosion");
    }
}
