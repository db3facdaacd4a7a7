//! Crypto-kernel baseline: old-vs-new cost of the modular-arithmetic hot
//! paths, emitted as `BENCH_crypto.json` for CI trend tracking.
//!
//! ```sh
//! cargo run --release -p datablinder-bench --bin fig_crypto
//! cargo run --release -p datablinder-bench --bin fig_crypto -- --quick
//! cargo run --release -p datablinder-bench --bin fig_crypto -- --bits 1024 --out /tmp/BENCH_crypto.json
//! ```
//!
//! Four comparisons, each pinning one amortization introduced by the
//! kernel rework:
//!
//! * `modpow_per_call_ctx` vs `modpow_cached_ctx` — square-and-multiply
//!   through [`BigUint::modpow`] (rebuilds the Montgomery domain per call)
//!   against a long-lived [`MontgomeryCtx`];
//! * `encrypt_legacy` vs `encrypt_cached_ctx` vs `encrypt_keypair` vs
//!   `encrypt_pooled` — the pre-rework Paillier encrypt (per-call
//!   `r^n mod n²` with no cached context), the cached-context encrypt
//!   through the public key, the same through the keypair (obfuscator
//!   drawn by CRT from the factors), and completion from a
//!   [`RandomizerPool`] obfuscator;
//! * `decrypt_plain` vs `decrypt_crt` — full-width `c^λ mod n²` against
//!   the two half-width CRT exponentiations;
//! * `batch_sum` — the gateway aggregate path end to end: pooled
//!   encryption of a batch, cloud-side homomorphic sum, one CRT decrypt.
//!
//! Plus four symmetric rungs on the tier this host runs
//! (`datablinder_primitives::backend()`, reported as `"backend"`):
//!
//! * `ghash` — GHASH over a 4 KiB message;
//! * `ctr` — the CTR keystream over 64 KiB;
//! * `seal_many_per_field` — one `seal_many` call over a 64-field batch;
//! * `hmac_oneshot` vs `hmac_ctx_reuse` — per-call key preparation
//!   against reused ipad/opad midstates.
//!
//! The JSON document carries raw `ns_per_op` per kernel plus derived
//! speedups and two booleans (`crt_not_slower`, `cached_encrypt_faster`)
//! that `scripts/verify.sh` asserts on. The symmetric kernels have no
//! same-run rival any more: their other tier is compared for equality in
//! `crates/primitives/tests/isa_differential.rs`, and for speed by the
//! benchmark's `primitives.*` rungs across commits.

use std::time::Instant;

use datablinder_bigint::{BigUint, MontgomeryCtx};
use datablinder_paillier::{Keypair, RandomizerPool};
use rand::SeedableRng;

struct Args {
    quick: bool,
    bits: usize,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args { quick: false, bits: 512, out: "BENCH_crypto.json".to_string() };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => args.quick = true,
            "--bits" => args.bits = it.next().and_then(|v| v.parse().ok()).expect("--bits N"),
            "--out" => args.out = it.next().expect("--out PATH"),
            other => panic!("unknown flag {other}"),
        }
    }
    if args.quick {
        args.bits = args.bits.min(256);
    }
    args
}

/// One timed round: average ns/op over `iters` calls.
fn round_ns(iters: u64, f: &mut dyn FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        f();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// Races competing kernels: round-robins `rounds` timed rounds across all
/// of them and keeps each kernel's *minimum* round. Interleaving plus
/// min-of-rounds cancels clock drift and transient load, which on small
/// shared machines otherwise dwarfs few-percent deltas.
fn race(iters: u64, rounds: u64, fns: &mut [&mut dyn FnMut()]) -> Vec<f64> {
    for f in fns.iter_mut() {
        f(); // warmup
    }
    let mut best = vec![f64::INFINITY; fns.len()];
    for _ in 0..rounds {
        for (i, f) in fns.iter_mut().enumerate() {
            best[i] = best[i].min(round_ns(iters, *f));
        }
    }
    best
}

struct Kernel {
    name: &'static str,
    iters: u64,
    ns_per_op: f64,
}

fn main() {
    let args = parse_args();
    let (iters, rounds): (u64, u64) = if args.quick { (5, 3) } else { (10, 6) };
    let reps = iters * rounds;
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0FFEE);
    let mut kernels: Vec<Kernel> = Vec::new();
    let push = |kernels: &mut Vec<Kernel>, name: &'static str, iters: u64, ns: f64| {
        println!("{name:<24} {ns:>12.0} ns/op  ({iters} iters, min of rounds)");
        kernels.push(Kernel { name, iters, ns_per_op: ns });
    };

    // --- modpow: per-call context vs cached context -----------------------
    let mut m = BigUint::random_bits(&mut rng, args.bits);
    m.set_bit(0, true);
    m.set_bit(args.bits - 1, true);
    let base = BigUint::random_below(&mut rng, &m);
    let exp = BigUint::random_bits(&mut rng, args.bits);
    let ctx = MontgomeryCtx::new(&m);
    let timings = race(
        iters,
        rounds,
        &mut [
            &mut || {
                std::hint::black_box(base.modpow(&exp, &m));
            },
            &mut || {
                std::hint::black_box(ctx.modpow(&base, &exp));
            },
        ],
    );
    let (ns_old, ns_new) = (timings[0], timings[1]);
    push(&mut kernels, "modpow_per_call_ctx", reps, ns_old);
    push(&mut kernels, "modpow_cached_ctx", reps, ns_new);
    let speedup_modpow = ns_old / ns_new;

    // --- Paillier encrypt: legacy vs cached ctx vs pooled -----------------
    let kp = Keypair::generate(&mut rng, args.bits);
    let pk = kp.public().clone();
    let n = pk.modulus().clone();
    let n2 = pk.modulus_squared().clone();
    let m_plain = BigUint::from(123_456_789u64);
    // The legacy path, reproduced exactly: fresh unit r, r^n mod n² with no
    // cached context, then a division-based modular multiply.
    let mut rng_legacy = rand::rngs::StdRng::seed_from_u64(1);
    let mut rng_enc = rand::rngs::StdRng::seed_from_u64(1);
    let mut rng_kp = rand::rngs::StdRng::seed_from_u64(1);
    let mut rng_pool = rand::rngs::StdRng::seed_from_u64(1);
    let pool = RandomizerPool::new(kp.clone(), ((iters + 1) * rounds) as usize * 2);
    pool.refill(&mut rng);
    let timings = race(
        iters,
        rounds,
        &mut [
            &mut || {
                let r = loop {
                    let r = BigUint::random_below(&mut rng_legacy, &n);
                    if !r.is_zero() && r.gcd(&n).is_one() {
                        break r;
                    }
                };
                let rn = r.modpow(&n, &n2);
                let gm = &(&m_plain * &n) + &BigUint::one();
                std::hint::black_box(gm.modmul(&rn, &n2));
            },
            &mut || {
                std::hint::black_box(pk.encrypt(&mut rng_enc, &m_plain).unwrap());
            },
            &mut || {
                std::hint::black_box(kp.encrypt(&mut rng_kp, &m_plain).unwrap());
            },
            &mut || {
                let obf = pool.take(&mut rng_pool);
                std::hint::black_box(pk.encrypt_with(&m_plain, &obf).unwrap());
            },
        ],
    );
    let (ns_legacy, ns_cached, ns_keypair, ns_pooled) = (timings[0], timings[1], timings[2], timings[3]);
    push(&mut kernels, "encrypt_legacy", reps, ns_legacy);
    push(&mut kernels, "encrypt_cached_ctx", reps, ns_cached);
    push(&mut kernels, "encrypt_keypair", reps, ns_keypair);
    push(&mut kernels, "encrypt_pooled", reps, ns_pooled);
    assert_eq!(pool.stats().misses, 0, "pool sized to cover the whole run");
    let speedup_encrypt = ns_legacy / ns_cached;
    let speedup_encrypt_keypair = ns_cached / ns_keypair;
    let speedup_encrypt_pooled = ns_legacy / ns_pooled;

    // --- decrypt: plain λ path vs CRT ------------------------------------
    let ct = pk.encrypt(&mut rng, &m_plain).unwrap();
    let timings = race(
        iters,
        rounds,
        &mut [
            &mut || {
                std::hint::black_box(kp.decrypt_plain(&ct).unwrap());
            },
            &mut || {
                std::hint::black_box(kp.decrypt(&ct).unwrap());
            },
        ],
    );
    let (ns_plain, ns_crt) = (timings[0], timings[1]);
    push(&mut kernels, "decrypt_plain", reps, ns_plain);
    push(&mut kernels, "decrypt_crt", reps, ns_crt);
    assert_eq!(kp.decrypt(&ct).unwrap(), kp.decrypt_plain(&ct).unwrap(), "CRT and plain decrypt must agree");
    let speedup_decrypt = ns_plain / ns_crt;

    // --- batch sum: the gateway aggregate path end to end -----------------
    let batch: u64 = if args.quick { 16 } else { 64 };
    let sum_pool = RandomizerPool::new(kp.clone(), batch as usize);
    let timings = race(
        iters.max(3),
        rounds.min(3),
        &mut [&mut || {
            sum_pool.refill(&mut rng);
            let mut acc = pk.encrypt_with(&BigUint::zero(), &sum_pool.take(&mut rng)).unwrap();
            for v in 1..batch {
                let c = pk.encrypt_with(&BigUint::from(v), &sum_pool.take(&mut rng)).unwrap();
                acc = pk.add(&acc, &c);
            }
            let sum = kp.decrypt(&acc).unwrap();
            assert_eq!(sum, BigUint::from(batch * (batch - 1) / 2));
        }],
    );
    let ns_batch_per_element = timings[0] / batch as f64;
    push(&mut kernels, "batch_sum_per_element", iters.max(3) * rounds.min(3), ns_batch_per_element);
    let batch_sum_per_sec = 1e9 / ns_batch_per_element;

    // --- symmetric hot path: GHASH, CTR, batch seal, HMAC ------------------
    use datablinder_primitives::aes::Aes;
    use datablinder_primitives::ctr::{counter_block, ctr_xor};
    use datablinder_primitives::gcm::{AesGcm, NONCE_LEN};
    use datablinder_primitives::hmac::{hmac_sha256, HmacCtx};

    let sym_key = datablinder_primitives::keys::SymmetricKey::from_bytes(&[0x5Au8; 32]);
    let gcm = AesGcm::new(&sym_key).unwrap();
    let aes = Aes::new(&sym_key.as_bytes()[..16]).unwrap();
    let mib = |bytes: f64, ns: f64| bytes / (1024.0 * 1024.0) / (ns / 1e9);

    // GHASH over a 4 KiB message.
    let ghash_msg = vec![0xA7u8; 4096];
    let ns_ghash = race(
        iters,
        rounds,
        &mut [&mut || {
            std::hint::black_box(gcm.ghash(b"", &ghash_msg));
        }],
    )[0];
    push(&mut kernels, "ghash", reps, ns_ghash);
    let ghash_mib_s = mib(ghash_msg.len() as f64, ns_ghash);

    // CTR keystream over 64 KiB.
    let mut ctr_buf = vec![0x3Cu8; 64 * 1024];
    let iv = [0u8; 16];
    let ns_ctr = race(
        iters,
        rounds,
        &mut [&mut || {
            ctr_xor(&aes, &iv, &mut ctr_buf);
            std::hint::black_box(&ctr_buf);
        }],
    )[0];
    push(&mut kernels, "ctr", reps, ns_ctr);
    let ctr_mib_s = mib((64 * 1024) as f64, ns_ctr);

    // AEAD seal of a 64-field batch (64-byte fields) in one `seal_many`.
    let fields: u64 = 64;
    let field_bytes = vec![0x11u8; 64];
    let nonces: Vec<[u8; NONCE_LEN]> =
        (0..fields).map(|i| counter_block(&[7u8; 12], i as u32)[..NONCE_LEN].try_into().unwrap()).collect();
    let seal_items: Vec<(&[u8; NONCE_LEN], &[u8])> = nonces.iter().map(|n| (n, field_bytes.as_slice())).collect();
    let ns_seal = race(
        iters,
        rounds,
        &mut [&mut || {
            std::hint::black_box(gcm.seal_many(b"bench", &seal_items));
        }],
    )[0] / fields as f64;
    push(&mut kernels, "seal_many_per_field", reps, ns_seal);
    let seal_ops_s = 1e9 / ns_seal;

    // HMAC-SHA256 of a 64-byte message: one-shot (key prep per call) vs a
    // reused context (ipad/opad midstates prepared once).
    let hmac_key = [0x77u8; 32];
    let hmac_msg = [0x42u8; 64];
    let hmac_ctx = HmacCtx::new(&hmac_key);
    let hmac_iters = iters * 50;
    let timings = race(
        hmac_iters,
        rounds,
        &mut [
            &mut || {
                std::hint::black_box(hmac_sha256(&hmac_key, &hmac_msg));
            },
            &mut || {
                std::hint::black_box(hmac_ctx.mac(&hmac_msg));
            },
        ],
    );
    let (ns_hmac_oneshot, ns_hmac_ctx) = (timings[0], timings[1]);
    push(&mut kernels, "hmac_oneshot", hmac_iters * rounds, ns_hmac_oneshot);
    push(&mut kernels, "hmac_ctx_reuse", hmac_iters * rounds, ns_hmac_ctx);
    let speedup_hmac = ns_hmac_oneshot / ns_hmac_ctx;
    let hmac_oneshot_ops_s = 1e9 / ns_hmac_oneshot;
    let hmac_ctx_ops_s = 1e9 / ns_hmac_ctx;

    let crt_not_slower = ns_crt <= ns_plain;
    // The shipped encryption path completes from a pooled obfuscator over
    // the cached context; the per-call-context path is what it replaced.
    let cached_encrypt_faster = ns_pooled < ns_legacy && ns_cached < ns_legacy * 1.10;

    let mut json = String::new();
    json.push('{');
    json.push_str("\"bench\":\"crypto_kernels\",");
    json.push_str(&format!("\"quick\":{},", args.quick));
    json.push_str(&format!("\"modulus_bits\":{},", args.bits));
    json.push_str("\"kernels\":[");
    for (i, k) in kernels.iter().enumerate() {
        if i > 0 {
            json.push(',');
        }
        json.push_str(&format!("{{\"name\":\"{}\",\"iters\":{},\"ns_per_op\":{:.1}}}", k.name, k.iters, k.ns_per_op));
    }
    json.push_str("],");
    json.push_str(&format!("\"speedup_modpow_cached\":{speedup_modpow:.2},"));
    json.push_str(&format!("\"speedup_encrypt_cached\":{speedup_encrypt:.2},"));
    json.push_str(&format!("\"speedup_encrypt_keypair\":{speedup_encrypt_keypair:.2},"));
    json.push_str(&format!("\"speedup_encrypt_pooled\":{speedup_encrypt_pooled:.2},"));
    json.push_str(&format!("\"speedup_decrypt_crt\":{speedup_decrypt:.2},"));
    json.push_str(&format!("\"batch_sum_elements_per_sec\":{batch_sum_per_sec:.0},"));
    json.push_str(&format!("\"backend\":\"{}\",", datablinder_primitives::backend()));
    json.push_str(&format!("\"ghash_mib_per_sec\":{ghash_mib_s:.1},"));
    json.push_str(&format!("\"ctr_mib_per_sec\":{ctr_mib_s:.1},"));
    json.push_str(&format!("\"seal_ops_per_sec\":{seal_ops_s:.0},"));
    json.push_str(&format!("\"hmac_oneshot_ops_per_sec\":{hmac_oneshot_ops_s:.0},"));
    json.push_str(&format!("\"hmac_ctx_ops_per_sec\":{hmac_ctx_ops_s:.0},"));
    json.push_str(&format!("\"speedup_hmac_ctx\":{speedup_hmac:.2},"));
    json.push_str(&format!("\"crt_not_slower\":{crt_not_slower},"));
    json.push_str(&format!("\"cached_encrypt_faster\":{cached_encrypt_faster}"));
    json.push('}');

    std::fs::write(&args.out, &json).expect("write BENCH_crypto.json");
    println!(
        "\nspeedups: modpow cached {speedup_modpow:.2}x, encrypt cached {speedup_encrypt:.2}x, keypair over cached {speedup_encrypt_keypair:.2}x, encrypt pooled {speedup_encrypt_pooled:.2}x, CRT decrypt {speedup_decrypt:.2}x"
    );
    println!("batch sum: {batch_sum_per_sec:.0} elements/s");
    println!(
        "symmetric ({}): GHASH {ghash_mib_s:.0} MiB/s, CTR {ctr_mib_s:.0} MiB/s, seal {seal_ops_s:.0} ops/s, HMAC ctx {speedup_hmac:.2}x",
        datablinder_primitives::backend()
    );
    println!("wrote {}", args.out);
    println!("{json}");
}
