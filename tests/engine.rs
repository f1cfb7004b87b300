//! Integration tests of the execution layer shipped in 0.3: the
//! validated `Config`, the cache-carrying `Engine`, and the parallel
//! `Batch` executor — including the CI smoke test that parallel and
//! sequential batches emit byte-identical reports.

use simap::core::{report_json, to_csv, to_markdown};
use simap::{
    Config, Engine, Error, EventObserver, FlowEvent, ReachConfig, ReachStrategy, Stage, Synthesis,
};
use std::sync::{Arc, Mutex};

#[test]
fn config_is_validated_once_at_build() {
    let err = Config::builder().literal_limit(1).build().unwrap_err();
    assert!(matches!(err, Error::InvalidConfig { .. }), "{err}");
    assert_eq!(err.stage(), Stage::Configure);
    assert!(err.to_string().contains("[configure]"), "{err}");
    assert!(Config::builder().or_limit(1).build().is_err());
    assert!(Config::builder().literal_limit(2).or_limit(2).build().is_ok());
}

#[test]
fn engine_reuse_skips_elaboration() {
    let engine = Engine::new(Config::default());
    let first = engine.synthesize("hazard").expect("flow");
    let stats = engine.cache_stats();
    assert_eq!((stats.hits, stats.misses), (0, 1));

    let again = engine.synthesize("hazard").expect("flow");
    let stats = engine.cache_stats();
    assert_eq!((stats.hits, stats.misses), (1, 1), "second run must hit the cache");
    assert_eq!(first.inserted, again.inserted);
    assert_eq!(first.si_cost, again.si_cost);
    assert_eq!(first.verified, again.verified);
}

#[test]
fn engine_clones_and_config_variants_share_one_cache() {
    let engine = Engine::new(Config::builder().verify(false).build().unwrap());
    engine.clone().synthesize("half").expect("flow");
    // A different literal limit does not change elaboration: hit.
    let at3 = engine.with_config(Config::builder().literal_limit(3).build().unwrap());
    at3.synthesize("half").expect("flow");
    let stats = engine.cache_stats();
    assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
}

#[test]
fn staged_pipeline_through_engine_also_hits() {
    let engine = Engine::default();
    engine.benchmark("dff").elaborate().expect("elaborates");
    let covers = engine.benchmark("dff").elaborate().expect("cached").covers().expect("CSC");
    assert!(covers.mc().max_complexity() >= 2);
    assert_eq!(engine.cache_stats().hits, 1);
}

#[test]
fn parallel_batch_matches_sequential() {
    // The CI smoke test: markdown and CSV renderings must be
    // byte-identical between jobs=1 and jobs=4, rows in input order.
    let engine = Engine::new(Config::builder().verify(false).build().unwrap());
    let names = ["half", "hazard", "dff", "chu133", "chu150", "ebergen"];
    let limits = [2usize, 3];

    let sequential = engine.batch(names).limits(limits).jobs(1).run().expect("sequential");
    let parallel = engine.batch(names).limits(limits).jobs(4).run().expect("parallel");

    assert_eq!(to_markdown(&limits, &sequential), to_markdown(&limits, &parallel));
    assert_eq!(to_csv(&limits, &sequential), to_csv(&limits, &parallel));

    // The parallel run re-used every elaboration of the sequential one.
    let stats = engine.cache_stats();
    assert_eq!(stats.misses as usize, names.len());
    assert!(stats.hits as usize >= names.len() * limits.len());
}

#[test]
fn batch_without_engine_still_works() {
    let rows = simap::Batch::over_benchmarks(["half"]).jobs(2).run().expect("batch");
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].name, "half");
}

#[test]
fn engine_caches_g_sources_by_text() {
    let src = ".model ring\n.inputs a\n.outputs b\n.graph\n\
               a+ b+\nb+ a-\na- b-\nb- a+\n.marking { <b-,a+> }\n.end\n";
    let engine = Engine::default();
    engine.g_source(src).run().expect("flow");
    engine.g_source(src).run().expect("flow");
    let stats = engine.cache_stats();
    assert_eq!((stats.hits, stats.misses), (1, 1));
}

#[test]
fn cache_hits_emit_the_same_observer_stages_as_cold_runs() {
    use simap::core::RecordingObserver;
    use simap::FlowObserver;
    use std::sync::{Arc, Mutex};

    struct Shared(Arc<Mutex<RecordingObserver>>);
    impl FlowObserver for Shared {
        fn on_stage_start(&mut self, stage: Stage, spec: &str) {
            self.0.lock().unwrap().on_stage_start(stage, spec);
        }
    }

    let engine = Engine::default();
    let stg = simap::stg::benchmark("half").unwrap();
    let record = |engine: &Engine, stg: &simap::stg::Stg| {
        let rec = Arc::new(Mutex::new(RecordingObserver::default()));
        engine.stg(stg.clone()).observer(Shared(rec.clone())).elaborate().unwrap();
        let stages = rec.lock().unwrap().stages.clone();
        stages
    };
    let cold = record(&engine, &stg);
    let warm = record(&engine, &stg);
    assert_eq!(engine.cache_stats().hits, 1, "second elaboration must be a hit");
    assert_eq!(cold, warm, "cache hits must replay the cold stage stream");
    assert!(!cold.contains(&Stage::Load), "STG sources have no load stage");
}

#[test]
fn cache_hits_replay_csc_conflicts_and_repairs() {
    use simap::core::RecordingObserver;
    use simap::FlowObserver;
    use std::sync::{Arc, Mutex};

    struct Shared(Arc<Mutex<RecordingObserver>>);
    impl FlowObserver for Shared {
        fn on_csc_conflicts(&mut self, conflicts: &[simap::core::CscConflict]) {
            self.0.lock().unwrap().on_csc_conflicts(conflicts);
        }
        fn on_csc_repair(&mut self, signal: &str) {
            self.0.lock().unwrap().on_csc_repair(signal);
        }
    }

    // a+ ; b+ ; b- ; a- over two outputs: code 10 repeats, the textbook
    // CSC conflict, repairable with one state signal.
    let src = ".model cscdemo\n.outputs a b\n.graph\n\
               a+ b+\nb+ b-\nb- a-\na- a+\n.marking { <a-,a+> }\n.end\n";
    let engine = Engine::new(Config::builder().repair_csc(true).build().unwrap());
    let record = |engine: &Engine| {
        let rec = Arc::new(Mutex::new(RecordingObserver::default()));
        engine.g_source(src).observer(Shared(rec.clone())).elaborate().unwrap();
        let seen = rec.lock().unwrap();
        (seen.conflict_counts.clone(), seen.csc_insertions.clone())
    };
    let cold = record(&engine);
    let warm = record(&engine);
    assert_eq!(engine.cache_stats().hits, 1, "second elaboration must be a hit");
    assert!(!cold.1.is_empty(), "repair must have inserted a state signal");
    assert_eq!(cold, warm, "hits must replay conflict and repair events");
}

#[test]
fn reach_limit_is_honored_through_config() {
    let config = Config::builder().reach_max_states(4).build().unwrap();
    let err = Engine::new(config).synthesize("hazard").unwrap_err();
    assert!(matches!(err, Error::Elaborate(_)), "{err}");
    assert_eq!(err.stage(), Stage::Elaborate);
}

fn strategy_config(strategy: ReachStrategy) -> Config {
    Config::builder().reach_strategy(strategy).build().unwrap()
}

/// The whole flow runs on every reachability strategy and produces the
/// same circuit as the packed default.
#[test]
fn pipeline_runs_on_every_strategy() {
    let packed = Engine::new(Config::default());
    for strategy in [ReachStrategy::Explicit, ReachStrategy::Spill] {
        let engine = Engine::new(strategy_config(strategy));
        for name in ["hazard", "half", "dff"] {
            let s = engine.synthesize(name).unwrap_or_else(|e| panic!("{strategy} {name}: {e}"));
            let p = packed.synthesize(name).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(s.inserted, p.inserted, "{strategy} {name}");
            assert_eq!(s.si_cost, p.si_cost, "{strategy} {name}");
            assert_eq!(s.non_si_cost, p.non_si_cost, "{strategy} {name}");
            assert_eq!(s.verified, p.verified, "{strategy} {name}");
        }
    }
}

/// The strategy is part of the cache key, and hits replay the stats of
/// the run that filled the entry.
#[test]
fn engine_caches_each_strategy_separately() {
    let engine = Engine::new(strategy_config(ReachStrategy::Explicit));
    let first = engine.benchmark("half").elaborate().unwrap();
    assert_eq!(first.reach_stats().unwrap().strategy, ReachStrategy::Explicit);
    let again = engine.benchmark("half").elaborate().unwrap();
    assert_eq!(again.reach_stats().unwrap().strategy, ReachStrategy::Explicit);
    let stats = engine.cache_stats();
    assert_eq!((stats.hits, stats.misses), (1, 1));

    let packed = engine.with_config(Config::default());
    let other = packed.benchmark("half").elaborate().unwrap();
    assert_eq!(other.reach_stats().unwrap().strategy, ReachStrategy::Packed);
    let stats = engine.cache_stats();
    assert_eq!((stats.hits, stats.misses, stats.entries), (1, 2, 2));
}

/// The spill knobs key the cache only under the spill strategy: the
/// in-memory strategies ignore them, so a different budget is a hit.
#[test]
fn spill_knobs_key_the_cache_only_under_spill() {
    let engine = Engine::new(Config::default());
    engine.benchmark("half").elaborate().unwrap();
    let budget = |strategy, bytes| {
        Config::builder().reach_strategy(strategy).reach_memory_budget(bytes).build().unwrap()
    };
    engine.with_config(budget(ReachStrategy::Packed, 4096)).benchmark("half").elaborate().unwrap();
    let stats = engine.cache_stats();
    assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));

    let default_budget = ReachConfig::default().memory_budget;
    for bytes in [default_budget, 4096] {
        let spilled = engine.with_config(budget(ReachStrategy::Spill, bytes));
        let elaborated = spilled.benchmark("half").elaborate().unwrap();
        assert!(elaborated.reach_stats().unwrap().spill.is_some(), "budget {bytes}");
    }
    let stats = engine.cache_stats();
    assert_eq!((stats.hits, stats.misses, stats.entries), (1, 3, 3));
}

/// `Elaborated::reach_stats` names the strategy through the whole stack,
/// and every strategy's counters agree with the packed run's.
#[test]
fn reach_stats_flow_through_the_pipeline() {
    let packed = Engine::new(Config::default()).benchmark("vbe5b").elaborate().unwrap();
    let p = packed.reach_stats().unwrap();
    assert_eq!(p.strategy, ReachStrategy::Packed);
    assert!(p.spill.is_none());
    for strategy in [ReachStrategy::Explicit, ReachStrategy::Spill] {
        let other = Engine::new(strategy_config(strategy)).benchmark("vbe5b").elaborate().unwrap();
        let s = other.reach_stats().unwrap();
        assert_eq!(s.strategy, strategy);
        assert_eq!(s.spill.is_some(), strategy == ReachStrategy::Spill, "{strategy}");
        assert_eq!(
            (s.visited, s.interned, s.edges),
            (p.visited, p.interned, p.edges),
            "{strategy}"
        );
        assert_eq!(other.state_graph().state_count(), packed.state_graph().state_count());
    }
}

/// Runs one flow, returning the JSON report (or the error rendering) plus
/// the full observer event stream as JSON lines.
fn run_with_events(synthesis: Synthesis, config: &Config) -> (Result<String, String>, Vec<String>) {
    let events = Arc::new(Mutex::new(Vec::new()));
    let sink = events.clone();
    let result = synthesis
        .config(config)
        .observer(EventObserver::new(move |e: FlowEvent| sink.lock().unwrap().push(e.to_json())))
        .run()
        .map(|report| report_json(&report))
        .map_err(|e| format!("{e:?}"));
    let events = events.lock().expect("sink poisoned").clone();
    (result, events)
}

/// The canonical per-signal event order: within the Covers stage, one
/// `signal_synth` line per implementable signal, in signal-index order.
#[test]
fn signal_synth_events_replay_in_signal_index_order() {
    let elaborated = Synthesis::from_benchmark("hazard").elaborate().expect("elaborates");
    let expected: Vec<String> = {
        let sg = elaborated.state_graph();
        sg.implementable_signals().iter().map(|s| sg.signals()[s.0].name.clone()).collect()
    };
    let config = Config::builder().verify(false).build().expect("valid config");
    let (_, events) = run_with_events(Synthesis::from_benchmark("hazard"), &config);
    let covers_start = events
        .iter()
        .position(|e| e.contains("\"stage_start\",\"stage\":\"covers\""))
        .expect("covers stage starts");
    let synths: Vec<&String> =
        events.iter().filter(|e| e.starts_with("{\"event\":\"signal_synth\"")).collect();
    assert_eq!(synths.len(), expected.len(), "one event per signal");
    for (event, name) in synths.iter().zip(&expected) {
        assert!(event.contains(&format!("\"signal\":\"{name}\"")), "expected {name} in {event}");
    }
    // All of them belong to the Covers stage, after its start event.
    let first_synth = events
        .iter()
        .position(|e| e.starts_with("{\"event\":\"signal_synth\""))
        .expect("events fired");
    assert!(first_synth > covers_start, "synth events follow covers start");
}

/// A `.g` specification with a textbook CSC conflict (the code `10` is
/// visited twice with different futures), used to exercise the
/// conflict/repair replay path of the engine cache.
const CSC_CONFLICTED_G: &str = "\
.model cscdemo
.outputs a b
.graph
a+ b+
b+ b-
b- a-
a- a+
.marking { <a-,a+> }
.end
";

/// Cold and cached elaborations must emit identical event streams —
/// stage events, CSC conflicts, CSC repairs and per-signal progress all
/// replay in the same canonical order.
#[test]
fn cold_and_cached_event_streams_match() {
    let base = Config::builder().repair_csc(true).verify(false).build().expect("valid config");
    let engine = Engine::new(base.clone());
    let (cold_report, cold_events) = run_with_events(engine.g_source(CSC_CONFLICTED_G), &base);
    assert_eq!(engine.cache_stats().hits, 0, "first run is cold");
    let (cached_report, cached_events) = run_with_events(engine.g_source(CSC_CONFLICTED_G), &base);
    assert!(engine.cache_stats().hits >= 1, "second run replays from the cache");
    assert_eq!(cached_report, cold_report, "cached report");
    assert_eq!(cached_events, cold_events, "cached event stream");
    // The stream really exercised the conflict/repair replay.
    for kind in ["csc_conflicts", "csc_repair", "signal_synth"] {
        assert!(
            cold_events.iter().any(|e| e.starts_with(&format!("{{\"event\":\"{kind}\""))),
            "{cold_events:?}"
        );
    }
}

/// Suite-wide replay: for every embedded benchmark, a cached rerun
/// through the same engine yields the cold run's JSON report and event
/// stream byte for byte. Debug builds skip the circuits above 400
/// states (the release-mode CI conformance job covers the full suite).
#[test]
fn benchmark_suite_cold_and_cached_runs_match() {
    let config = Config::builder().verify(false).build().expect("valid config");
    for &name in simap::stg::benchmark_names() {
        // Warms the engine's cache; the flow below then replays from it.
        let engine = Engine::new(config.clone());
        let elaborated = engine.benchmark(name).elaborate().expect("benchmark elaborates");
        if cfg!(debug_assertions) && elaborated.state_graph().state_count() > 400 {
            continue;
        }
        let (cold_report, cold_events) = run_with_events(Synthesis::from_benchmark(name), &config);
        let (cached_report, cached_events) = run_with_events(engine.benchmark(name), &config);
        assert!(engine.cache_stats().hits >= 1, "{name}: rerun replays from the cache");
        assert_eq!(cached_report, cold_report, "{name}: cached report");
        assert_eq!(cached_events, cold_events, "{name}: cached event stream");
    }
}
