//! The paper's flow through the staged `Synthesis` API, with a span around
//! each layer's stage, plus replays of layers that cannot be timed from
//! outside while they run inside another stage.

use crate::trace::Tracer;
use simap::boolean::MinimizeProblem;
use simap::core::FlowReport;
use simap::netlist::{verify_speed_independence, VerifyConfig};
use simap::sg::{Event, StateGraph};
use simap::{Synthesis, Verified};

/// The JSON body `simap map --json` (and so `POST /stg`) prints for a
/// flow report.
pub fn report_body(report: &FlowReport) -> String {
    format!("{}\n", simap::core::report_json(report))
}

/// Runs elaborate → covers → decompose → map → verify exactly as `simap map`
/// and `simap serve` do. With tracing on, each stage is a span under a
/// `flow` root and the layers' work counts are recorded for `item`.
pub fn run(t: &mut Tracer, item: usize, synthesis: Synthesis) -> Result<Verified, String> {
    t.span("flow", item, |t| {
        let elaborated = t.span("stg.reach", item, |_| synthesis.elaborate());
        let elaborated = elaborated.map_err(|e| e.to_string())?;
        if let Some(stats) = elaborated.reach_stats() {
            t.count("stg.states", item, stats.interned as f64);
            t.count("stg.edges", item, stats.edges as f64);
        }
        let covers =
            t.span("core.covers", item, |_| elaborated.covers()).map_err(|e| e.to_string())?;
        let literals: usize = covers.mc().signals.iter().map(|s| s.literal_count()).sum();
        t.count("core.initial_literals", item, literals as f64);
        let decomposed =
            t.span("core.decompose", item, |_| covers.decompose()).map_err(|e| e.to_string())?;
        t.count("core.insertions", item, decomposed.inserted().len() as f64);
        t.count("core.states_after", item, decomposed.state_graph().state_count() as f64);
        let mapped = t.span("netlist.map", item, |_| decomposed.map());
        Ok(t.span("netlist.verify", item, |_| mapped.verify_compat()))
    })
}

/// The layers a flow does not time on its own, replayed when tracing:
/// parsing the spec's `.g` text, the property check and CSC search on its
/// elaborated graph, the minimizer on its final graph, and the verifier
/// (whose work counter the flow's verify stage does not return).
pub fn replay_layers(t: &mut Tracer, item: usize, text: &str, verified: &Verified) {
    if !t.on() {
        return;
    }
    if let Ok(stg) = t.span("stg.parse", item, |_| simap::stg::parse_g(text)) {
        if let Ok(sg) = simap::stg::elaborate(&stg) {
            replay_checks(t, item, &sg);
        }
    }
    let outcome = &verified.report().outcome;
    if outcome.implementable {
        let config = VerifyConfig::default();
        if let Ok(stats) = verify_speed_independence(verified.circuit(), &outcome.sg, &config) {
            t.count("netlist.verify_states", item, stats.states as f64);
        }
    }
    replay_minimizer(t, item, verified.report());
}

/// Replays the two-level minimizer on the final graph's problems: per
/// signal the next-state ON/OFF split (minimized and complemented), and
/// per region cover the cover's split of the reachable codes (complemented,
/// the gate-complexity estimate). Problems are built before the span so it
/// times the minimizer alone.
fn replay_minimizer(t: &mut Tracer, item: usize, report: &FlowReport) {
    let sg = &report.outcome.sg;
    let nvars = sg.signal_count();
    let mut both = Vec::new();
    for signal in sg.implementable_signals() {
        let (mut on, mut off) = (Vec::new(), Vec::new());
        for s in sg.states() {
            let rise = sg.enabled(s, Event::rise(signal));
            let fall = sg.enabled(s, Event::fall(signal));
            if rise || (sg.value(s, signal) && !fall) {
                on.push(sg.code(s));
            } else {
                off.push(sg.code(s));
            }
        }
        if let Ok(problem) = MinimizeProblem::new(nvars, on, off) {
            both.push(problem);
        }
    }
    let universe = sg.reachable_codes();
    let mut complement_only = Vec::new();
    for signal in &report.outcome.mc.signals {
        for region in signal.covers() {
            let (on, off): (Vec<u64>, Vec<u64>) =
                universe.iter().partition(|&&code| region.cover.eval(code));
            if let Ok(problem) = MinimizeProblem::new(nvars, on, off) {
                complement_only.push(problem);
            }
        }
    }
    let calls = 2 * both.len() + complement_only.len();
    let off_codes: usize = both.iter().map(|p| 2 * p.off().len()).sum::<usize>()
        + complement_only.iter().map(|p| p.off().len()).sum::<usize>();
    t.span("boolean.minimize", item, |_| {
        for problem in &both {
            std::hint::black_box(problem.minimize());
            std::hint::black_box(problem.minimize_complement());
        }
        for problem in &complement_only {
            std::hint::black_box(problem.minimize_complement());
        }
    });
    t.count("boolean.minimize_calls", item, calls as f64);
    t.count("boolean.off_codes", item, off_codes as f64);
}

/// Replays the property check and the CSC conflict search on an
/// elaborated graph (the check path's two layers after reachability).
pub fn replay_checks(t: &mut Tracer, item: usize, sg: &StateGraph) -> bool {
    let report = t.span("sg.properties", item, |_| simap::sg::check_all(sg));
    let conflicts = t.span("core.csc", item, |_| simap::core::csc_conflicts(sg));
    report.is_ok() && conflicts.is_empty()
}
