//! Integration tests of the staged `Synthesis` pipeline: the typed error
//! paths (unknown benchmark, parse failure, CSC violation with repair
//! off, CSC repair failure, verification failure), the equivalence of the
//! staged and one-shot drivers, CSC repair, progress-event delivery and
//! batches.

use simap::sg::{Event, Signal, SignalId, SignalKind, StateGraph, StateGraphBuilder};
use simap::{Batch, Error, FlowEvent, Stage, Synthesis};
use std::sync::{Arc, Mutex};

/// a+ ; b+ ; b- ; a- over two *output* signals: the textbook CSC
/// conflict, repairable by one internal state signal.
fn conflicted(kind: SignalKind) -> StateGraph {
    let mut bd =
        StateGraphBuilder::new("csc-demo", vec![Signal::new("a", kind), Signal::new("b", kind)])
            .unwrap();
    let s0 = bd.add_state(0b00);
    let s1 = bd.add_state(0b01);
    let s2 = bd.add_state(0b11);
    let s3 = bd.add_state(0b01);
    bd.add_arc(s0, Event::rise(SignalId(0)), s1);
    bd.add_arc(s1, Event::rise(SignalId(1)), s2);
    bd.add_arc(s2, Event::fall(SignalId(1)), s3);
    bd.add_arc(s3, Event::fall(SignalId(0)), s0);
    bd.build(s0).unwrap()
}

/// A non-persistent specification: input `a+` disables output `b+` at the
/// initial state. Covers still synthesize, but the mapped circuit has a
/// hazard the verifier must refute.
fn non_persistent() -> StateGraph {
    let mut bd = StateGraphBuilder::new(
        "hazardous",
        vec![Signal::new("a", SignalKind::Input), Signal::new("b", SignalKind::Output)],
    )
    .unwrap();
    let s0 = bd.add_state(0b00);
    let s1 = bd.add_state(0b01); // a high, b+ no longer enabled
    let s2 = bd.add_state(0b10); // b high
    bd.add_arc(s0, Event::rise(SignalId(0)), s1);
    bd.add_arc(s1, Event::fall(SignalId(0)), s0);
    bd.add_arc(s0, Event::rise(SignalId(1)), s2);
    bd.add_arc(s2, Event::fall(SignalId(1)), s0);
    bd.build(s0).unwrap()
}

#[test]
fn unknown_benchmark_error() {
    let err = Synthesis::from_benchmark("not-a-circuit").run().unwrap_err();
    assert!(matches!(err, Error::UnknownBenchmark { ref name } if name == "not-a-circuit"));
    assert_eq!(err.stage(), Stage::Load);
    assert!(err.to_string().contains("[load]"), "{err}");
}

#[test]
fn parse_error_carries_line() {
    let err = Synthesis::from_g_source(".model x\n.inputs a\n.garbage\n").run().unwrap_err();
    let Error::Parse(inner) = &err else { panic!("expected Parse, got {err}") };
    assert!(inner.line > 0);
    assert_eq!(err.stage(), Stage::Load);
    // The crate-level error remains reachable through source().
    assert!(std::error::Error::source(&err).is_some());
}

#[test]
fn csc_violation_with_repair_off() {
    let err = Synthesis::from_state_graph(conflicted(SignalKind::Output))
        .elaborate()
        .expect("elaboration itself succeeds")
        .covers()
        .unwrap_err();
    let Error::CscViolation { ref signal, ref conflicts, .. } = err else {
        panic!("expected CscViolation, got {err}");
    };
    assert!(!signal.is_empty());
    assert!(!conflicts.is_empty(), "the original conflict list must be attached");
    assert_eq!(err.stage(), Stage::Covers);
    assert_eq!(err.csc_conflicts().len(), conflicts.len());
}

#[test]
fn csc_repair_failure_surfaces_conflicts() {
    // A zero insertion budget makes the (otherwise repairable) conflict
    // unrepairable — and the error must carry the original conflicts
    // instead of being swallowed.
    use simap::core::CscRepairConfig;
    let starved = simap::Config::builder()
        .repair_csc(true)
        .csc_repair_config(CscRepairConfig { max_insertions: 0 })
        .build()
        .unwrap();
    let err = Synthesis::from_state_graph(conflicted(SignalKind::Output))
        .config(&starved)
        .elaborate()
        .unwrap_err();
    let Error::CscRepairFailed { ref conflicts, .. } = err else {
        panic!("expected CscRepairFailed, got {err}");
    };
    assert!(!conflicts.is_empty(), "the original conflict list must be attached");
    assert_eq!(err.stage(), Stage::Elaborate);
    assert!(std::error::Error::source(&err).is_some(), "repair error is the source");
}

#[test]
fn verification_failure_is_typed() {
    let mapped = Synthesis::from_state_graph(non_persistent())
        .elaborate()
        .expect("elaborates")
        .covers()
        .expect("covers exist despite non-persistency")
        .decompose()
        .expect("nothing to decompose")
        .map();
    let err = mapped.verify().unwrap_err();
    assert!(matches!(err, Error::Verify { .. }), "expected Verify, got {err}");
    assert_eq!(err.stage(), Stage::Verify);
}

#[test]
fn run_reports_refutation_compatibly() {
    // The one-shot driver keeps the historical FlowReport contract:
    // refutation is data (`verified == Some(false)`), not an error.
    let report = Synthesis::from_state_graph(non_persistent()).run().expect("runs");
    assert_eq!(report.verified, Some(false));
}

#[test]
fn staged_matches_one_shot_on_benchmarks() {
    for name in ["half", "hazard", "chu133"] {
        let one_shot = Synthesis::from_benchmark(name).run().unwrap();
        let staged = Synthesis::from_benchmark(name)
            .elaborate()
            .unwrap()
            .covers()
            .unwrap()
            .decompose()
            .unwrap()
            .map()
            .verify()
            .unwrap()
            .into_report();
        assert_eq!(one_shot.inserted, staged.inserted, "{name}");
        assert_eq!(one_shot.inserted_names, staged.inserted_names, "{name}");
        assert_eq!(one_shot.si_cost, staged.si_cost, "{name}");
        assert_eq!(one_shot.non_si_cost, staged.non_si_cost, "{name}");
        assert_eq!(one_shot.verified, staged.verified, "{name}");
        assert_eq!(one_shot.initial_histogram, staged.initial_histogram, "{name}");
    }
}

#[test]
fn csc_repair_on_repairs_and_completes() {
    // The same conflict `csc_violation_with_repair_off` refuses is
    // repaired by one state signal, and the flow then verifies.
    let config = simap::Config::builder().repair_csc(true).build().unwrap();
    let report = Synthesis::from_state_graph(conflicted(SignalKind::Output))
        .config(&config)
        .run()
        .expect("repairs and flows");
    assert_eq!(report.verified, Some(true));
}

/// A sink collecting a run's events, and the shared vector it fills.
fn collector() -> (impl FnMut(FlowEvent) + Send + 'static, Arc<Mutex<Vec<FlowEvent>>>) {
    let events = Arc::new(Mutex::new(Vec::new()));
    let sink = events.clone();
    (move |e| sink.lock().unwrap().push(e), events)
}

/// The stages the events start and end, in order.
fn stage_bounds(events: &[FlowEvent]) -> (Vec<Stage>, Vec<Stage>) {
    let (mut starts, mut ends) = (Vec::new(), Vec::new());
    for event in events {
        match event {
            FlowEvent::StageStart { stage, .. } => starts.push(*stage),
            FlowEvent::StageEnd { stage } => ends.push(*stage),
            _ => {}
        }
    }
    (starts, ends)
}

#[test]
fn observer_streams_progress() {
    let (sink, events) = collector();
    let report = Synthesis::from_benchmark("hazard").observer(sink).run().expect("flow");
    let events = events.lock().unwrap();
    let steps = events.iter().filter(|e| matches!(e, FlowEvent::Step { .. })).count();
    assert_eq!(steps, report.inserted.unwrap());
    let verdicts: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            FlowEvent::Verdict { verified } => Some(*verified),
            _ => None,
        })
        .collect();
    assert_eq!(verdicts, [Some(true)]);
    let (stages, ends) = stage_bounds(&events);
    let expected = [Stage::Load, Stage::Elaborate, Stage::Covers, Stage::Decompose, Stage::Map];
    for stage in expected {
        assert!(stages.contains(&stage), "missing stage {stage}");
    }
    // Every started stage ends, even on the verify path.
    assert_eq!(stages, ends, "stage starts and ends must pair up");
    assert!(ends.contains(&Stage::Verify));
}

#[test]
fn observer_stages_balance_on_refutation() {
    let (sink, events) = collector();
    let err = Synthesis::from_state_graph(non_persistent())
        .observer(sink)
        .elaborate()
        .unwrap()
        .covers()
        .unwrap()
        .decompose()
        .unwrap()
        .map()
        .verify()
        .unwrap_err();
    assert!(matches!(err, Error::Verify { .. }));
    let (starts, ends) = stage_bounds(&events.lock().unwrap());
    assert_eq!(starts.len(), ends.len(), "stages must balance even when verify errors");
}

#[test]
fn verify_compat_reports_refutation_as_data() {
    let verified = Synthesis::from_state_graph(non_persistent())
        .elaborate()
        .unwrap()
        .covers()
        .unwrap()
        .decompose()
        .unwrap()
        .map()
        .verify_compat();
    assert_eq!(verified.verdict(), Some(false));
    assert!(!verified.circuit().gates().is_empty(), "the netlist stays exportable");
}

#[test]
fn batch_drives_multiple_benchmarks() {
    let rows = Batch::over_benchmarks(["half", "dff"]).limits([2, 3]).run().expect("batch");
    assert_eq!(rows.len(), 2);
    for row in &rows {
        assert_eq!(row.reports.len(), 2);
        assert!(row.reports.iter().all(|r| r.verified == Some(true)), "{}", row.name);
    }
    // The emitters accept batch rows directly.
    let md = simap::core::to_markdown(&[2, 3], &rows);
    assert!(md.contains("| half |") && md.contains("| dff |"), "{md}");
}
