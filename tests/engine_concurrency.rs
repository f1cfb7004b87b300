//! Concurrency torture of the shared [`simap::Engine`]: many threads
//! hammering one engine over mixed benchmarks and configurations must
//! produce reports byte-identical to a sequential baseline, while the
//! elaboration-cache counters stay sane and monotone.

use simap::core::report_json;
use simap::{Config, Engine};
use std::collections::HashMap;

const BENCHES: [&str; 4] = ["half", "hazard", "dff", "chu133"];
const LIMITS: [usize; 2] = [2, 3];
const THREADS: usize = 8;
const ROUNDS: usize = 2;

fn config_at(limit: usize) -> Config {
    Config::builder().literal_limit(limit).verify(false).build().expect("valid")
}

#[test]
fn threads_hammering_one_engine_match_sequential_reports() {
    // Sequential baseline on a fresh engine.
    let baseline_engine = Engine::new(config_at(2));
    let mut baseline: HashMap<(&str, usize), String> = HashMap::new();
    for name in BENCHES {
        for limit in LIMITS {
            let report = baseline_engine
                .with_config(config_at(limit))
                .synthesize(name)
                .expect("baseline run");
            baseline.insert((name, limit), report_json(&report));
        }
    }

    // The hammered engine. Every thread mixes benchmarks, limits and
    // repeat rounds; the (hits, misses) counters must be monotone from
    // every thread's point of view.
    let engine = Engine::new(config_at(2));
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let engine = engine.clone();
            let baseline = &baseline;
            scope.spawn(move || {
                let mut last = engine.cache_stats();
                for round in 0..ROUNDS {
                    // Interleave differently per thread so benchmarks and
                    // limits race in all orders.
                    for step in 0..BENCHES.len() * LIMITS.len() {
                        let i = (step + t + round) % BENCHES.len();
                        let limit = LIMITS[(step + t) % LIMITS.len()];
                        let name = BENCHES[i];
                        let report = engine
                            .with_config(config_at(limit))
                            .synthesize(name)
                            .expect("concurrent run");
                        assert_eq!(
                            report_json(&report),
                            baseline[&(name, limit)],
                            "{name}@{limit} diverged under concurrency (thread {t})"
                        );
                        let stats = engine.cache_stats();
                        assert!(stats.hits >= last.hits, "hits ran backwards: {stats:?} {last:?}");
                        assert!(
                            stats.misses >= last.misses,
                            "misses ran backwards: {stats:?} {last:?}"
                        );
                        assert!(
                            stats.hits + stats.misses > last.hits + last.misses,
                            "this thread's own elaboration must be counted"
                        );
                        last = stats;
                    }
                }
            });
        }
    });

    let total_runs = (THREADS * ROUNDS * BENCHES.len() * LIMITS.len()) as u64;
    let stats = engine.cache_stats();
    // Every elaboration was either a hit or a (stored) miss.
    assert_eq!(stats.hits + stats.misses, total_runs, "{stats:?}");
    // The literal limit is not part of the elaboration key, so the
    // distinct entries are exactly the benchmarks.
    assert_eq!(stats.entries, BENCHES.len(), "{stats:?}");
    // Lookup+store is not one atomic section, so concurrent first visits
    // may each miss — but never more than one miss per (thread, key).
    assert!(stats.misses >= BENCHES.len() as u64, "{stats:?}");
    assert!(stats.misses <= (THREADS * BENCHES.len()) as u64, "{stats:?}");
    assert!(stats.hits >= total_runs - (THREADS * BENCHES.len()) as u64, "{stats:?}");
}

#[test]
fn mixed_strategies_share_the_engine_without_cross_talk() {
    use simap::ReachStrategy;
    let engine = Engine::new(config_at(2));
    let strategies = [ReachStrategy::Packed, ReachStrategy::Explicit];
    let reference: Vec<String> = strategies
        .iter()
        .map(|&s| {
            let config = Config::builder().reach_strategy(s).verify(false).build().unwrap();
            report_json(&engine.with_config(config).synthesize("hazard").unwrap())
        })
        .collect();
    // Both strategies produce the same graph, costs and counts; only the
    // reported strategy name differs.
    for window in reference.windows(2) {
        let strip = |s: &str| s.split("\"strategy\"").next().unwrap().to_string();
        assert_eq!(strip(&window[0]), strip(&window[1]));
    }
    std::thread::scope(|scope| {
        for t in 0..6 {
            let engine = engine.clone();
            let reference = &reference;
            scope.spawn(move || {
                for i in 0..6 {
                    let s = strategies[(t + i) % strategies.len()];
                    let config = Config::builder().reach_strategy(s).verify(false).build().unwrap();
                    let report = engine.with_config(config).synthesize("hazard").unwrap();
                    assert_eq!(
                        report_json(&report),
                        reference[(t + i) % strategies.len()],
                        "strategy {s} report diverged under concurrency"
                    );
                }
            });
        }
    });
    // One cache entry per strategy (strategy is part of the key).
    assert_eq!(engine.cache_stats().entries, strategies.len());
}

#[test]
fn registry_shares_one_stg_across_threads() {
    let registry = simap::stg::BenchmarkRegistry::new();
    assert!(registry.contains("hazard"));
    assert!(!registry.contains("bogus"));
    assert!(registry.get("bogus").is_none());
    let handles: Vec<std::sync::Arc<simap::stg::Stg>> = std::thread::scope(|scope| {
        let workers: Vec<_> =
            (0..4).map(|_| scope.spawn(|| registry.get("hazard").expect("known"))).collect();
        workers.into_iter().map(|w| w.join().expect("no panic")).collect()
    });
    for pair in handles.windows(2) {
        assert!(std::sync::Arc::ptr_eq(&pair[0], &pair[1]), "all threads share one construction");
    }
}
