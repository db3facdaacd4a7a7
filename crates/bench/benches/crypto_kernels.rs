//! Criterion micro-benchmarks of the amortized modular-arithmetic kernels
//! introduced by the crypto rework — the statistical companion to the
//! machine-readable `fig_crypto` baseline.
//!
//! ```sh
//! cargo bench -p datablinder-bench --bench crypto_kernels
//! ```
//!
//! Pairs every amortized kernel with the path it replaced:
//! per-call-context [`BigUint::modpow`] vs a held [`MontgomeryCtx`],
//! plain `c^λ mod n²` decryption vs CRT, per-call obfuscators vs the
//! [`RandomizerPool`], and the homomorphic batch-sum throughput the
//! gateway aggregate path sees.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use datablinder_bigint::{BigUint, CrtCtx, MontgomeryCtx};
use datablinder_paillier::{Keypair, RandomizerPool};
use rand::SeedableRng;

fn bench_modpow_ctx(c: &mut Criterion) {
    let mut g = c.benchmark_group("modpow");
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    for bits in [512usize, 1024] {
        let mut m = BigUint::random_bits(&mut rng, bits);
        m.set_bit(0, true);
        m.set_bit(bits - 1, true);
        let base = BigUint::random_below(&mut rng, &m);
        let exp = BigUint::random_bits(&mut rng, bits);
        let ctx = MontgomeryCtx::new(&m);
        g.bench_with_input(BenchmarkId::new("per_call_ctx", bits), &bits, |b, _| {
            b.iter(|| base.modpow(&exp, &m));
        });
        g.bench_with_input(BenchmarkId::new("cached_ctx", bits), &bits, |b, _| {
            b.iter(|| ctx.modpow(&base, &exp));
        });
    }
    g.finish();
}

fn bench_crt_ctx(c: &mut Criterion) {
    let mut g = c.benchmark_group("crt_ctx");
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    let bits = 512usize;
    let mut p = BigUint::random_bits(&mut rng, bits);
    p.set_bit(0, true);
    p.set_bit(bits - 1, true);
    let mut q = BigUint::random_bits(&mut rng, bits);
    q.set_bit(0, true);
    q.set_bit(bits - 1, true);
    let n = &p * &q;
    let crt = CrtCtx::new(&p, &q).expect("random odd values are coprime with overwhelming probability");
    let full = MontgomeryCtx::new(&n);
    let base = BigUint::random_below(&mut rng, &n);
    let e = BigUint::random_bits(&mut rng, 2 * bits);
    let e1 = &e % &p;
    let e2 = &e % &q;
    g.bench_function("full_width_modpow", |b| {
        b.iter(|| full.modpow(&base, &e));
    });
    g.bench_function("two_half_width_modpow", |b| {
        b.iter(|| crt.modpow(&base, &e1, &e2));
    });
    g.finish();
}

fn bench_paillier_amortized(c: &mut Criterion) {
    let mut g = c.benchmark_group("paillier_amortized");
    g.sample_size(10);
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let kp = Keypair::generate(&mut rng, 512);
    let pk = kp.public().clone();
    let m = BigUint::from(123_456_789u64);

    g.bench_function("encrypt_cached_ctx", |b| {
        b.iter(|| pk.encrypt(&mut rng, &m).unwrap());
    });
    let pool = RandomizerPool::new(kp.clone(), 4096);
    pool.refill(&mut rng);
    g.bench_function("encrypt_pooled", |b| {
        b.iter(|| {
            let obf = pool.take(&mut rng);
            pk.encrypt_with(&m, &obf).unwrap()
        });
    });

    let ct = pk.encrypt(&mut rng, &m).unwrap();
    g.bench_function("decrypt_plain", |b| {
        b.iter(|| kp.decrypt_plain(&ct).unwrap());
    });
    g.bench_function("decrypt_crt", |b| {
        b.iter(|| kp.decrypt(&ct).unwrap());
    });

    let batch = 64u64;
    g.throughput(Throughput::Elements(batch));
    g.bench_function("batch_sum_64", |b| {
        let sum_pool = RandomizerPool::new(kp.clone(), batch as usize);
        b.iter(|| {
            sum_pool.refill(&mut rng);
            let mut acc = pk.encrypt_with(&BigUint::zero(), &sum_pool.take(&mut rng)).unwrap();
            for v in 1..batch {
                let c = pk.encrypt_with(&BigUint::from(v), &sum_pool.take(&mut rng)).unwrap();
                acc = pk.add(&acc, &c);
            }
            kp.decrypt(&acc).unwrap()
        });
    });
    g.finish();
}

criterion_group!(benches, bench_modpow_ctx, bench_crt_ctx, bench_paillier_amortized);
criterion_main!(benches);
