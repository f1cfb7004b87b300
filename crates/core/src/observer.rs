//! Progress events of the synthesis pipeline.
//!
//! A run reports its progress as a stream of [`FlowEvent`] values: one
//! at every stage boundary, CSC conflict report, CSC-repair insertion,
//! per-signal cover synthesis, committed decomposition step and final
//! verdict. The library stays silent by default; attach any
//! `FnMut(FlowEvent)` sink through
//! [`crate::pipeline::Synthesis::observer`] to receive them. The CLI's
//! `--verbose` narrates them to standard error, and the `simap-serve`
//! NDJSON streaming mode forwards their stable one-line JSON rendering
//! ([`FlowEvent::to_json`]).

use crate::decompose::DecomposeStep;
use crate::error::Stage;
use crate::json;

/// One progress event of a synthesis run.
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
    /// The elaborated specification has CSC conflicts (sent before any
    /// repair attempt; a conflict-free run never sends it).
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
    /// The Covers stage synthesized one signal's monotonous covers.
    /// Always sent in signal-index order, after all CSC events of the
    /// run, from the finished implementation, so the stream is the same
    /// on every run of the same specification.
    SignalSynth {
        /// Name of the synthesized signal.
        signal: String,
        /// Total cubes across its first-level covers.
        cubes: usize,
        /// Total literals across its first-level covers.
        literals: usize,
    },
    /// The final verification verdict (also sent when verification is
    /// skipped).
    Verdict {
        /// `Some(true)` verified, `Some(false)` refuted, `None` skipped
        /// or inconclusive.
        verified: Option<bool>,
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
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observer_receives_a_full_run_as_json_lines() {
        let events = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let sink = events.clone();
        let report = crate::pipeline::Synthesis::from_benchmark("hazard")
            .observer(move |e: FlowEvent| sink.lock().unwrap().push(e.to_json()))
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
