//! Progress observation for the synthesis pipeline.
//!
//! A [`FlowObserver`] receives a callback at every stage boundary, every
//! committed decomposition step, every CSC-repair insertion and the final
//! verification verdict. It replaces ad-hoc printing inside the flow: the
//! library stays silent by default ([`NullObserver`]), the CLI's
//! `--verbose` attaches a [`StderrObserver`], and future progress UIs or
//! batch schedulers can attach their own implementation through
//! [`crate::pipeline::Synthesis::observer`].
//!
//! For consumers that forward progress across a process or wire boundary
//! — the `simap-serve` NDJSON streaming mode in particular — every
//! callback also has a serializable value form, [`FlowEvent`], with a
//! stable one-line JSON rendering ([`FlowEvent::to_json`]);
//! [`EventObserver`] adapts any `FnMut(FlowEvent)` sink into a
//! [`FlowObserver`].

use crate::csc::CscConflict;
use crate::decompose::DecomposeStep;
use crate::error::Stage;
use crate::json;

/// Callbacks fired as a synthesis run progresses. All methods have empty
/// default bodies: implement only what you need.
pub trait FlowObserver {
    /// A stage is starting for the named specification.
    fn on_stage_start(&mut self, stage: Stage, spec: &str) {
        let _ = (stage, spec);
    }

    /// A stage finished successfully.
    fn on_stage_end(&mut self, stage: Stage) {
        let _ = stage;
    }

    /// The elaborated specification has CSC conflicts (fired before any
    /// repair attempt; an empty run never fires this).
    fn on_csc_conflicts(&mut self, conflicts: &[CscConflict]) {
        let _ = conflicts;
    }

    /// CSC repair inserted a state signal.
    fn on_csc_repair(&mut self, signal: &str) {
        let _ = signal;
    }

    /// The decomposition loop committed one insertion.
    fn on_decompose_step(&mut self, step: &DecomposeStep) {
        let _ = step;
    }

    /// The Covers stage synthesized one signal's monotonous covers.
    /// Always fired in signal-index order, after all CSC callbacks of the
    /// run, from the finished implementation — so the stream is the same
    /// on every run of the same specification.
    fn on_signal_synth(&mut self, signal: &str, cubes: usize, literals: usize) {
        let _ = (signal, cubes, literals);
    }

    /// The final verification verdict (`None` = skipped or inconclusive).
    fn on_verdict(&mut self, verified: Option<bool>) {
        let _ = verified;
    }
}

/// One observer callback as a serializable value: what happened, with
/// the same payload the corresponding [`FlowObserver`] method receives.
#[derive(Debug, Clone)]
pub enum FlowEvent {
    /// A stage started for the named specification.
    StageStart {
        /// The stage that started.
        stage: Stage,
        /// The specification it runs on.
        spec: String,
    },
    /// A stage finished successfully.
    StageEnd {
        /// The stage that finished.
        stage: Stage,
    },
    /// The elaborated specification has CSC conflicts.
    CscConflicts {
        /// How many conflicting state pairs were found.
        count: usize,
    },
    /// CSC repair inserted a state signal.
    CscRepair {
        /// Name of the inserted state signal.
        signal: String,
    },
    /// The decomposition loop committed one insertion.
    Step {
        /// The committed step.
        step: DecomposeStep,
    },
    /// The Covers stage synthesized one signal's monotonous covers
    /// (always streamed in signal-index order).
    SignalSynth {
        /// Name of the synthesized signal.
        signal: String,
        /// Total cubes across its first-level covers.
        cubes: usize,
        /// Total literals across its first-level covers.
        literals: usize,
    },
    /// The final verification verdict.
    Verdict {
        /// `Some(true)` verified, `Some(false)` refuted, `None` skipped
        /// or inconclusive.
        verified: Option<bool>,
    },
    /// A gateway middleware decision on the request that carries this
    /// flow (emitted by `simap serve` ahead of the stage events, so a
    /// streaming client sees how its request traversed the gateway).
    Gateway {
        /// The deciding layer (`auth`, `ratelimit`, `breaker`,
        /// `rescache`).
        layer: String,
        /// The decision (`allow`, `reject`, `hit`, `miss`, …).
        decision: String,
        /// The client the decision applies to.
        client: String,
    },
}

impl FlowEvent {
    /// Renders the event as one line of JSON (no trailing newline): a
    /// `{"event":...}` object whose remaining keys depend on the variant.
    /// This is the NDJSON wire form `simap serve` streams to clients.
    pub fn to_json(&self) -> String {
        match self {
            FlowEvent::StageStart { stage, spec } => format!(
                "{{\"event\":\"stage_start\",\"stage\":{},\"spec\":{}}}",
                json::quote(&stage.to_string()),
                json::quote(spec)
            ),
            FlowEvent::StageEnd { stage } => {
                format!("{{\"event\":\"stage_end\",\"stage\":{}}}", json::quote(&stage.to_string()))
            }
            FlowEvent::CscConflicts { count } => {
                format!("{{\"event\":\"csc_conflicts\",\"count\":{count}}}")
            }
            FlowEvent::CscRepair { signal } => {
                format!("{{\"event\":\"csc_repair\",\"signal\":{}}}", json::quote(signal))
            }
            FlowEvent::Step { step } => format!(
                "{{\"event\":\"step\",\"signal\":{},\"divisor\":{},\"target\":{},\
                 \"excess_before\":{},\"excess_after\":{}}}",
                json::quote(&step.signal),
                json::quote(&step.divisor),
                json::quote(&step.target),
                step.excess.0,
                step.excess.1
            ),
            FlowEvent::SignalSynth { signal, cubes, literals } => format!(
                "{{\"event\":\"signal_synth\",\"signal\":{},\"cubes\":{},\"literals\":{}}}",
                json::quote(signal),
                cubes,
                literals
            ),
            FlowEvent::Verdict { verified } => {
                format!("{{\"event\":\"verdict\",\"verified\":{}}}", json::opt(*verified))
            }
            FlowEvent::Gateway { layer, decision, client } => format!(
                "{{\"event\":\"gateway\",\"layer\":{},\"decision\":{},\"client\":{}}}",
                json::quote(layer),
                json::quote(decision),
                json::quote(client)
            ),
        }
    }
}

/// Adapts a `FnMut(FlowEvent)` sink into a [`FlowObserver`]: every
/// callback is forwarded as the corresponding [`FlowEvent`] value. The
/// sink decides what to do with it — send it over a channel, write it to
/// a socket, collect it in a vector.
#[derive(Debug)]
pub struct EventObserver<F: FnMut(FlowEvent)> {
    sink: F,
}

impl<F: FnMut(FlowEvent)> EventObserver<F> {
    /// An observer forwarding every callback to `sink`.
    pub fn new(sink: F) -> Self {
        EventObserver { sink }
    }
}

impl<F: FnMut(FlowEvent)> FlowObserver for EventObserver<F> {
    fn on_stage_start(&mut self, stage: Stage, spec: &str) {
        (self.sink)(FlowEvent::StageStart { stage, spec: spec.to_string() });
    }

    fn on_stage_end(&mut self, stage: Stage) {
        (self.sink)(FlowEvent::StageEnd { stage });
    }

    fn on_csc_conflicts(&mut self, conflicts: &[CscConflict]) {
        (self.sink)(FlowEvent::CscConflicts { count: conflicts.len() });
    }

    fn on_csc_repair(&mut self, signal: &str) {
        (self.sink)(FlowEvent::CscRepair { signal: signal.to_string() });
    }

    fn on_decompose_step(&mut self, step: &DecomposeStep) {
        (self.sink)(FlowEvent::Step { step: step.clone() });
    }

    fn on_signal_synth(&mut self, signal: &str, cubes: usize, literals: usize) {
        (self.sink)(FlowEvent::SignalSynth { signal: signal.to_string(), cubes, literals });
    }

    fn on_verdict(&mut self, verified: Option<bool>) {
        (self.sink)(FlowEvent::Verdict { verified });
    }
}

/// The default observer: ignores everything.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullObserver;

impl FlowObserver for NullObserver {}

/// An observer that narrates the flow to standard error, one line per
/// event — what the CLI prints under `--verbose`.
#[derive(Debug, Default, Clone, Copy)]
pub struct StderrObserver;

impl FlowObserver for StderrObserver {
    fn on_stage_start(&mut self, stage: Stage, spec: &str) {
        eprintln!("[{stage}] {spec}");
    }

    fn on_csc_conflicts(&mut self, conflicts: &[CscConflict]) {
        eprintln!("  {} CSC conflict(s)", conflicts.len());
    }

    fn on_csc_repair(&mut self, signal: &str) {
        eprintln!("  inserted CSC state signal {signal}");
    }

    fn on_decompose_step(&mut self, step: &DecomposeStep) {
        eprintln!(
            "  inserted {} = {} targeting {} (excess {} -> {})",
            step.signal, step.divisor, step.target, step.excess.0, step.excess.1
        );
    }

    fn on_signal_synth(&mut self, signal: &str, cubes: usize, literals: usize) {
        eprintln!("  covers for {signal}: {cubes} cube(s), {literals} literal(s)");
    }

    fn on_verdict(&mut self, verified: Option<bool>) {
        eprintln!(
            "  speed-independent: {}",
            match verified {
                Some(true) => "verified",
                Some(false) => "REFUTED",
                None => "unchecked",
            }
        );
    }
}

/// An observer that records every event; useful in tests and as a model
/// for UI integrations.
#[derive(Debug, Default, Clone)]
pub struct RecordingObserver {
    /// Stages started, in order.
    pub stages: Vec<Stage>,
    /// Signals inserted by the decomposition loop, in commit order.
    pub steps: Vec<DecomposeStep>,
    /// Signals inserted by CSC repair.
    pub csc_insertions: Vec<String>,
    /// Conflict counts reported before repair.
    pub conflict_counts: Vec<usize>,
    /// Per-signal cover synthesis events `(signal, cubes, literals)`, in
    /// the order they were fired (canonically: signal-index order).
    pub signal_synths: Vec<(String, usize, usize)>,
    /// The final verdict, when the flow got that far.
    pub verdict: Option<Option<bool>>,
}

impl FlowObserver for RecordingObserver {
    fn on_stage_start(&mut self, stage: Stage, _spec: &str) {
        self.stages.push(stage);
    }

    fn on_csc_conflicts(&mut self, conflicts: &[CscConflict]) {
        self.conflict_counts.push(conflicts.len());
    }

    fn on_csc_repair(&mut self, signal: &str) {
        self.csc_insertions.push(signal.to_string());
    }

    fn on_decompose_step(&mut self, step: &DecomposeStep) {
        self.steps.push(step.clone());
    }

    fn on_signal_synth(&mut self, signal: &str, cubes: usize, literals: usize) {
        self.signal_synths.push((signal.to_string(), cubes, literals));
    }

    fn on_verdict(&mut self, verified: Option<bool>) {
        self.verdict = Some(verified);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_observer_forwards_a_full_run_as_json_lines() {
        let events = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let sink = events.clone();
        let report = crate::pipeline::Synthesis::from_benchmark("hazard")
            .observer(EventObserver::new(move |e: FlowEvent| {
                sink.lock().unwrap().push(e.to_json());
            }))
            .run()
            .unwrap();
        let lines = events.lock().unwrap();
        assert_eq!(
            lines.first().map(String::as_str),
            Some("{\"event\":\"stage_start\",\"stage\":\"load\",\"spec\":\"hazard\"}")
        );
        let steps = lines.iter().filter(|l| l.starts_with("{\"event\":\"step\"")).count();
        assert_eq!(steps, report.inserted.unwrap());
        assert!(
            lines.contains(&"{\"event\":\"verdict\",\"verified\":true}".to_string()),
            "{lines:?}"
        );
        // Every streamed line is a parseable JSON object with an `event` key.
        for line in lines.iter() {
            let parsed = crate::json::parse(line).expect("event lines are valid JSON");
            assert!(parsed.get("event").is_some(), "{line}");
        }
    }

    #[test]
    fn event_json_escapes_payloads() {
        let event = FlowEvent::CscRepair { signal: "a\"b".into() };
        assert_eq!(event.to_json(), "{\"event\":\"csc_repair\",\"signal\":\"a\\\"b\"}");
        assert_eq!(
            FlowEvent::Verdict { verified: None }.to_json(),
            "{\"event\":\"verdict\",\"verified\":null}"
        );
    }
}
