//! Throughput of the parallel `Batch` executor: the same benchmark
//! subset driven at jobs=1 vs jobs=N (N = available cores, capped), plus
//! a warm-cache column showing what the memoized elaboration saves when a
//! long-lived `Engine` is reused, and a packed-vs-explicit column
//! isolating the reachability engine itself on the largest registry
//! specification. Results are byte-identical across the columns — only
//! the wall clock moves.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use simap_bench::reexports::{
    benchmark, elaborate_with, Config, Engine, ReachConfig, ReachStrategy,
};

/// Medium-cost circuits, heaviest first (the work queue hands out names
/// in order, so a descending sort balances the pool): enough per-row work
/// for the pool to beat its spawn overhead, no single row dominating the
/// critical path (which is why `mr0` is excluded), small enough for a
/// bench harness.
const SUITE: [&str; 8] =
    ["tsend-bm", "mr1", "trimos-send", "mmu", "master-read", "pe-rcv-ifc", "nak-pa", "seq4"];

fn worker_count() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(2).clamp(2, 8)
}

fn config() -> Config {
    // Verification off: the bench tracks synthesis throughput, and the
    // verifier's composed-state exploration would dominate the timing.
    Config::builder().verify(false).build().expect("valid config")
}

fn bench_cold(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch/cold");
    group.sample_size(10);
    for jobs in [1, worker_count()] {
        group.bench_function(BenchmarkId::new("jobs", jobs), |b| {
            b.iter(|| {
                // A fresh engine per run: every elaboration is computed,
                // so the column isolates the worker-pool speedup.
                let engine = Engine::new(config());
                engine.batch(SUITE).limits([2]).jobs(jobs).run().expect("batch")
            })
        });
    }
    group.finish();
}

fn bench_warm(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch/warm_cache");
    group.sample_size(10);
    let jobs = worker_count();
    let engine = Engine::new(config());
    // Prime the elaboration cache once; every measured run then skips
    // STG→state-graph reachability entirely.
    engine.batch(SUITE).limits([2]).run().expect("warmup batch");
    group.bench_function(BenchmarkId::new("jobs", jobs), |b| {
        b.iter(|| engine.batch(SUITE).limits([2]).jobs(jobs).run().expect("batch"))
    });
    group.finish();
}

/// The memoization win in isolation: elaborating the widest Table 1
/// specifications (thousands of states) from scratch vs through a primed
/// engine cache. Unlike the pool columns this speedup is visible even on
/// a single-core host.
fn bench_elaborate(c: &mut Criterion) {
    let wide = ["mr0", "vbe10b", "wrdatab", "mmu"];
    let mut group = c.benchmark_group("elaborate/cold");
    group.sample_size(10);
    group.bench_function("wide4", |b| {
        b.iter(|| {
            let engine = Engine::new(config());
            for name in wide {
                engine.benchmark(name).elaborate().expect("elaborates");
            }
        })
    });
    group.finish();

    let mut group = c.benchmark_group("elaborate/cached");
    group.sample_size(10);
    let engine = Engine::new(config());
    for name in wide {
        engine.benchmark(name).elaborate().expect("elaborates");
    }
    group.bench_function("wide4", |b| {
        b.iter(|| {
            for name in wide {
                engine.benchmark(name).elaborate().expect("cache hit");
            }
        })
    });
    group.finish();
}

/// The reachability engine itself, isolated from the rest of the flow:
/// cold elaboration of `mr0` — the largest registry specification (4096
/// states, 20800 arcs) — under the packed-state engine vs the explicit
/// oracle. The packed arena + mask-compiled token game is the whole
/// difference (acceptance bar 2x or better).
fn bench_strategy(c: &mut Criterion) {
    let largest = "mr0";
    let stg = benchmark(largest).expect("known benchmark");
    let mut group = c.benchmark_group("elaborate/strategy");
    group.sample_size(10);
    for strategy in [ReachStrategy::Packed, ReachStrategy::Explicit] {
        let config = ReachConfig { strategy, ..ReachConfig::default() };
        group.bench_function(BenchmarkId::new(strategy.to_string(), largest), |b| {
            b.iter(|| elaborate_with(std::hint::black_box(&stg), &config).expect("elaborates"))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_cold, bench_warm, bench_elaborate, bench_strategy);
criterion_main!(benches);
