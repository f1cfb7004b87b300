//! Overhead of stepping through the staged `Synthesis` pipeline over the
//! one-shot `Synthesis::run`, on three Table 1 circuits. Both drive the
//! same flow — staged artifacts are moved, not recomputed — so the two
//! columns must coincide up to noise.

use criterion::{criterion_group, criterion_main, Criterion};
use simap_bench::benchmark_sg;
use simap_bench::reexports::{Config, Synthesis};

const CIRCUITS: [&str; 3] = ["hazard", "dff", "chu150"];

fn bench_one_shot(c: &mut Criterion) {
    let mut group = c.benchmark_group("flow/one_shot_run");
    group.sample_size(10);
    let config = Config::default();
    for name in CIRCUITS {
        let sg = benchmark_sg(name);
        group.bench_function(name, |b| {
            b.iter(|| {
                Synthesis::from_state_graph(std::hint::black_box(&sg).clone())
                    .config(&config)
                    .run()
                    .expect("flow")
            })
        });
    }
    group.finish();
}

fn bench_staged(c: &mut Criterion) {
    let mut group = c.benchmark_group("flow/staged_pipeline");
    group.sample_size(10);
    let config = Config::default();
    for name in CIRCUITS {
        let sg = benchmark_sg(name);
        group.bench_function(name, |b| {
            b.iter(|| {
                Synthesis::from_state_graph(std::hint::black_box(&sg).clone())
                    .config(&config)
                    .elaborate()
                    .expect("elaborates")
                    .covers()
                    .expect("CSC holds")
                    .decompose()
                    .expect("decomposes")
                    .map()
                    .verify()
                    .expect("speed-independent")
                    .into_report()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_one_shot, bench_staged);
criterion_main!(benches);
