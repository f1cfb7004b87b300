//! Structural and behavioural analysis of STGs: safeness, dead
//! transitions, choice classification and the input-choice restriction
//! that speed-independent specifications rely on.

use crate::petri::{PlaceId, Stg, TransitionId};
use crate::reach::{explore, ReachConfig, ReachError};
use simap_sg::SignalKind;

/// Summary of an STG analysis run.
#[derive(Debug, Clone)]
pub struct StgAnalysis {
    /// Whether every reachable marking has at most one token per place.
    pub safe: bool,
    /// Transitions that never fire in the reachability graph.
    pub dead_transitions: Vec<TransitionId>,
    /// Places with more than one consumer (choice places).
    pub choice_places: Vec<PlaceId>,
    /// Whether every choice place is *free-choice*: it is the unique
    /// pre-place of each of its consumers.
    pub free_choice: bool,
    /// Whether every choice is resolved by the environment (all consumers
    /// of every choice place are input transitions) — the restriction
    /// under which output persistency is structurally guaranteed.
    pub input_choice_only: bool,
    /// Number of reachable markings explored.
    pub markings: usize,
}

/// Analyzes an STG.
///
/// The token game runs through the same exploration core as
/// [`crate::reach::elaborate_with`], honoring the configured
/// [`ReachConfig::strategy`] — so behavioural
/// observations (safeness, dead transitions, marking counts) and error
/// semantics are identical to elaboration's by construction.
///
/// # Errors
/// Propagates [`ReachError`] when the net is unbounded or too large.
pub fn analyze(stg: &Stg, config: &ReachConfig) -> Result<StgAnalysis, ReachError> {
    let exploration = explore(stg, config)?;
    let safe = exploration.safe;
    let n_transitions = stg.transitions().len();

    let dead_transitions: Vec<TransitionId> =
        (0..n_transitions).map(TransitionId).filter(|t| !exploration.fired[t.0]).collect();

    let choice_places: Vec<PlaceId> =
        (0..stg.places().len()).map(PlaceId).filter(|&p| stg.is_choice_place(p)).collect();

    let free_choice =
        choice_places.iter().all(|&p| stg.consumers(p).iter().all(|&t| stg.pre(t) == [p]));

    let input_choice_only = choice_places.iter().all(|&p| {
        stg.consumers(p).iter().all(|&t| {
            let sig = stg.transitions()[t.0].event.signal;
            stg.signals()[sig.0].kind == SignalKind::Input
        })
    });

    Ok(StgAnalysis {
        safe,
        dead_transitions,
        choice_places,
        free_choice,
        input_choice_only,
        markings: exploration.count,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_g;
    use crate::patterns::{celement, choice, sequencer, shared_output_choice};

    fn analyze_default(stg: &Stg) -> StgAnalysis {
        analyze(stg, &ReachConfig::default()).expect("bounded")
    }

    #[test]
    fn marked_graphs_are_safe_and_choice_free() {
        let a = analyze_default(&sequencer(4, None));
        assert!(a.safe);
        assert!(a.dead_transitions.is_empty());
        assert!(a.choice_places.is_empty());
        assert!(a.free_choice && a.input_choice_only);
        assert_eq!(a.markings, 8);
    }

    #[test]
    fn celement_is_safe() {
        let a = analyze_default(&celement(3));
        assert!(a.safe);
        assert!(a.dead_transitions.is_empty());
    }

    #[test]
    fn choice_pattern_is_free_and_input_resolved() {
        let a = analyze_default(&choice(3));
        assert_eq!(a.choice_places.len(), 1);
        assert!(a.free_choice);
        assert!(a.input_choice_only);
    }

    #[test]
    fn shared_output_keeps_input_choice() {
        let a = analyze_default(&shared_output_choice(2));
        assert!(a.input_choice_only, "the choice is among input requests");
    }

    #[test]
    fn output_choice_is_flagged() {
        // A place consumed by two *output* transitions: not input-resolved.
        let src = "\
.model oc
.inputs r
.outputs a b
.graph
p a+ b+
r+ p
a+ r-
b+ r-
r- a- b-
a- r+
b- r+
.marking { <a-,r+> }
.end
";
        // Note: this net has a dead branch depending on the token game;
        // the point is only the structural classification.
        let stg = parse_g(src).unwrap();
        let a = analyze(&stg, &ReachConfig::default());
        if let Ok(a) = a {
            assert!(!a.input_choice_only);
        }
    }

    #[test]
    fn dead_transition_detected() {
        let src = "\
.model dead
.inputs a b
.graph
p a+
a+ a-
a- p
q b+
b+ q
.marking { p }
.end
";
        let stg = parse_g(src).unwrap();
        let a = analyze_default(&stg);
        // b+ never fires: its place q is never marked.
        assert_eq!(a.dead_transitions.len(), 1);
        assert_eq!(stg.transition_label(a.dead_transitions[0]), "b+");
    }

    #[test]
    fn unsafe_net_detected() {
        let src = "\
.model unsafe2
.inputs a
.graph
p a+
a+ q q2
q a-
q2 a-
a- p
.marking { p=2 }
.end
";
        let stg = parse_g(src).unwrap();
        let a = analyze_default(&stg);
        assert!(!a.safe);
    }

    #[test]
    fn symbolic_strategy_analyzes_identically() {
        use crate::reach::ReachStrategy;
        let stg = crate::patterns::pipeline(3);
        let packed = analyze(&stg, &ReachConfig::default()).unwrap();
        let symbolic = analyze(
            &stg,
            &ReachConfig { strategy: ReachStrategy::Symbolic, ..ReachConfig::default() },
        )
        .unwrap();
        assert_eq!(packed.markings, symbolic.markings);
        assert_eq!(packed.safe, symbolic.safe);
        assert_eq!(packed.dead_transitions, symbolic.dead_transitions);
        assert_eq!(packed.choice_places, symbolic.choice_places);
    }

    #[test]
    fn every_benchmark_is_safe_and_live() {
        for b in crate::benchmarks::all_benchmarks() {
            let a = analyze(&b.stg, &ReachConfig::default())
                .unwrap_or_else(|e| panic!("{}: {e}", b.name));
            assert!(a.safe, "{} must be safe", b.name);
            assert!(a.dead_transitions.is_empty(), "{} has dead transitions", b.name);
            assert!(a.input_choice_only, "{} must resolve choice by inputs", b.name);
        }
    }
}
