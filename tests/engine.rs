//! Integration tests of the execution layer: the validated `Config`, the
//! shared `Engine`, and the parallel `Batch` executor — including the CI
//! smoke test that parallel and sequential batches emit byte-identical
//! reports.

use simap::core::{report_json, to_csv, to_markdown};
use simap::{Config, Engine, Error, FlowEvent, ReachConfig, ReachStrategy, Stage, Synthesis};
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

/// Reusing an engine reproduces the first run's report byte for byte.
#[test]
fn engine_reuse_reproduces_reports() {
    let engine = Engine::new(Config::default());
    let first = engine.synthesize("hazard").expect("flow");
    let again = engine.synthesize("hazard").expect("flow");
    assert_eq!(report_json(&first), report_json(&again));
    assert_eq!(first.verified, Some(true));
}

/// A long-lived engine holds nothing per specification: once a run's
/// stage is dropped, the caller's handle is the only one left on its
/// state graph.
#[test]
fn long_lived_engine_keeps_nothing_per_spec() {
    let engine = Engine::default();
    let elaborated = engine.g_source(RING_G).elaborate().expect("elaborates");
    let sg = elaborated.state_graph_arc();
    drop(elaborated);
    assert_eq!(Arc::strong_count(&sg), 1, "the engine must not retain the graph");
}

#[test]
fn engine_clones_and_config_variants_agree() {
    let engine = Engine::new(Config::builder().verify(false).build().unwrap());
    let original = engine.synthesize("half").expect("flow");
    let cloned = engine.clone().synthesize("half").expect("flow");
    assert_eq!(report_json(&original), report_json(&cloned));
    // A sibling at another literal limit runs exactly as a fresh engine.
    let at3 = Config::builder().literal_limit(3).verify(false).build().unwrap();
    let sibling = engine.with_config(at3.clone()).synthesize("half").expect("flow");
    let fresh = Engine::new(at3).synthesize("half").expect("flow");
    assert_eq!(report_json(&sibling), report_json(&fresh));
}

#[test]
fn staged_pipeline_through_engine_matches_one_shot() {
    let engine = Engine::default();
    let covers = engine.benchmark("dff").elaborate().expect("elaborates").covers().expect("CSC");
    assert!(covers.mc().max_complexity() >= 2);
    let staged = covers.decompose().expect("decomposes").map().verify().expect("verifies");
    let one_shot = engine.synthesize("dff").expect("flow");
    assert_eq!(report_json(staged.report()), report_json(&one_shot));
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
}

#[test]
fn batch_without_engine_still_works() {
    let rows = simap::Batch::over_benchmarks(["half"]).jobs(2).run().expect("batch");
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].name, "half");
}

/// A two-signal handshake ring, the smallest `.g` source the flow maps.
const RING_G: &str = ".model ring\n.inputs a\n.outputs b\n.graph\n\
                      a+ b+\nb+ a-\na- b-\nb- a+\n.marking { <b-,a+> }\n.end\n";

#[test]
fn engine_reruns_g_sources_identically() {
    let engine = Engine::default();
    let first = engine.g_source(RING_G).run().expect("flow");
    let again = engine.g_source(RING_G).run().expect("flow");
    assert_eq!(report_json(&first), report_json(&again));
}

/// Runs `elaborate` on `synthesis` with a sink attached and returns the
/// events it collected.
fn elaborate_events(synthesis: Synthesis) -> Vec<FlowEvent> {
    let events = Arc::new(Mutex::new(Vec::new()));
    let sink = events.clone();
    synthesis.observer(move |e| sink.lock().unwrap().push(e)).elaborate().unwrap();
    let events = events.lock().unwrap().clone();
    events
}

#[test]
fn rerun_stg_sources_emit_the_same_stages() {
    let engine = Engine::default();
    let stg = simap::stg::benchmark("half").unwrap();
    let record = |engine: &Engine, stg: &simap::stg::Stg| {
        elaborate_events(engine.stg(stg.clone()))
            .into_iter()
            .filter_map(|e| match e {
                FlowEvent::StageStart { stage, .. } => Some(stage),
                _ => None,
            })
            .collect::<Vec<_>>()
    };
    let first = record(&engine, &stg);
    let again = record(&engine, &stg);
    assert_eq!(first, again, "a rerun must emit the same stage stream");
    assert_eq!(first, [Stage::Elaborate], "STG sources have no load stage");
}

#[test]
fn reruns_emit_the_same_csc_conflicts_and_repairs() {
    let engine = Engine::new(Config::builder().repair_csc(true).build().unwrap());
    let record = |engine: &Engine| {
        let (mut counts, mut repairs) = (Vec::new(), Vec::new());
        for event in elaborate_events(engine.g_source(CSC_CONFLICTED_G)) {
            match event {
                FlowEvent::CscConflicts { count } => counts.push(count),
                FlowEvent::CscRepair { signal } => repairs.push(signal),
                _ => {}
            }
        }
        (counts, repairs)
    };
    let first = record(&engine);
    let again = record(&engine);
    assert!(!first.1.is_empty(), "repair must have inserted a state signal");
    assert_eq!(first, again, "a rerun must emit the same conflict and repair events");
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

/// A `with_config` sibling elaborates with its own strategy, and the
/// original engine keeps its own.
#[test]
fn with_config_switches_the_reach_strategy() {
    let engine = Engine::new(strategy_config(ReachStrategy::Explicit));
    let first = engine.benchmark("half").elaborate().unwrap();
    assert_eq!(first.reach_stats().unwrap().strategy, ReachStrategy::Explicit);

    let packed = engine.with_config(Config::default());
    let other = packed.benchmark("half").elaborate().unwrap();
    assert_eq!(other.reach_stats().unwrap().strategy, ReachStrategy::Packed);
    let again = engine.benchmark("half").elaborate().unwrap();
    assert_eq!(again.reach_stats().unwrap().strategy, ReachStrategy::Explicit);
}

/// The spill knobs take effect only under the spill strategy: the
/// in-memory strategies ignore them and report no spill counters.
#[test]
fn spill_knobs_take_effect_only_under_spill() {
    let budget = |strategy, bytes| {
        Config::builder().reach_strategy(strategy).reach_memory_budget(bytes).build().unwrap()
    };
    let engine = Engine::new(Config::default());
    let packed = engine.with_config(budget(ReachStrategy::Packed, 4096));
    let elaborated = packed.benchmark("half").elaborate().unwrap();
    assert!(elaborated.reach_stats().unwrap().spill.is_none());

    let default_budget = ReachConfig::default().memory_budget;
    for bytes in [default_budget, 4096] {
        let spilled = engine.with_config(budget(ReachStrategy::Spill, bytes));
        let elaborated = spilled.benchmark("half").elaborate().unwrap();
        let spill = elaborated.reach_stats().unwrap().spill.expect("spill counters");
        assert_eq!(spill.budget, bytes as u64);
    }
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
/// the full event stream as JSON lines.
fn run_with_events(synthesis: Synthesis, config: &Config) -> (Result<String, String>, Vec<String>) {
    let events = Arc::new(Mutex::new(Vec::new()));
    let sink = events.clone();
    let result = synthesis
        .config(config)
        .observer(move |e: FlowEvent| sink.lock().unwrap().push(e.to_json()))
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
/// visited twice with different futures), repairable with one state
/// signal.
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

/// A run through an engine and a standalone run emit identical event
/// streams — stage events, CSC conflicts, CSC repairs and per-signal
/// progress, all in the same canonical order.
#[test]
fn engine_and_standalone_event_streams_match() {
    let base = Config::builder().repair_csc(true).verify(false).build().expect("valid config");
    let engine = Engine::new(base.clone());
    let (engine_report, engine_events) = run_with_events(engine.g_source(CSC_CONFLICTED_G), &base);
    let (standalone_report, standalone_events) =
        run_with_events(Synthesis::from_g_source(CSC_CONFLICTED_G), &base);
    assert_eq!(engine_report, standalone_report, "report");
    assert_eq!(engine_events, standalone_events, "event stream");
    // The stream really exercised conflict reporting and repair.
    for kind in ["csc_conflicts", "csc_repair", "signal_synth"] {
        assert!(
            engine_events.iter().any(|e| e.starts_with(&format!("{{\"event\":\"{kind}\""))),
            "{engine_events:?}"
        );
    }
}

/// Suite-wide: for every embedded benchmark, a run that resolves the STG
/// through an engine's registry yields the standalone run's JSON report
/// and event stream byte for byte. Debug builds skip the circuits above
/// 400 states (the release-mode CI conformance job covers the full
/// suite).
#[test]
fn benchmark_suite_engine_and_standalone_runs_match() {
    let config = Config::builder().verify(false).build().expect("valid config");
    let engine = Engine::new(config.clone());
    for &name in simap::stg::benchmark_names() {
        if cfg!(debug_assertions) {
            let elaborated = engine.benchmark(name).elaborate().expect("benchmark elaborates");
            if elaborated.state_graph().state_count() > 400 {
                continue;
            }
        }
        let (standalone_report, standalone_events) =
            run_with_events(Synthesis::from_benchmark(name), &config);
        let (engine_report, engine_events) = run_with_events(engine.benchmark(name), &config);
        assert_eq!(engine_report, standalone_report, "{name}: report");
        assert_eq!(engine_events, standalone_events, "{name}: event stream");
    }
}

/// Where the event-stream goldens live.
const EVENT_GOLDENS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");

/// Compares `actual` with the committed golden `file`, or rewrites it
/// under `UPDATE_GOLDEN=1`.
fn check_event_golden(file: &str, actual: &str) {
    let path = format!("{EVENT_GOLDENS}/{file}");
    if std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::write(&path, actual).expect("write golden");
        eprintln!("regenerated {path}");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read {path}: {e}\nregenerate it with: UPDATE_GOLDEN=1 cargo test --test \
             engine golden_event_streams"
        )
    });
    assert_eq!(
        actual, golden,
        "{file} drifted from the committed snapshot; if the change is intentional, regenerate \
         it with:\n    UPDATE_GOLDEN=1 cargo test --test engine golden_event_streams"
    );
}

/// The progress streams, byte for byte: the CLI's `-v` narration of
/// hazard, and the NDJSON event lines of hazard at limit 2 and of a CSC
/// repair run (the one stream with `csc_conflicts` and `csc_repair`).
///
/// ```text
/// UPDATE_GOLDEN=1 cargo test --test engine golden_event_streams
/// ```
#[test]
fn golden_event_streams_snapshot() {
    let cli = std::process::Command::new(env!("CARGO_BIN_EXE_simap"))
        .args(["map", "--bench", "hazard", "-v"])
        .output()
        .expect("binary runs");
    assert!(cli.status.success(), "{cli:?}");
    check_event_golden("events_hazard_verbose.txt", &String::from_utf8(cli.stderr).unwrap());

    let lines = |events: Vec<String>| events.iter().map(|e| format!("{e}\n")).collect::<String>();
    let hazard = Config::builder().literal_limit(2).build().expect("valid config");
    let (report, events) = run_with_events(Synthesis::from_benchmark("hazard"), &hazard);
    report.expect("hazard maps");
    check_event_golden("events_hazard.ndjson", &lines(events));

    let repair = Config::builder().repair_csc(true).build().expect("valid config");
    let (report, events) = run_with_events(Synthesis::from_g_source(CSC_CONFLICTED_G), &repair);
    report.expect("the conflict is repaired");
    check_event_golden("events_csc_repair.ndjson", &lines(events));
}
