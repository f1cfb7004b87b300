//! Implementability properties of state graphs (§2.1): consistency,
//! determinism, commutativity, output persistency and Complete State
//! Coding.

use crate::graph::{StateGraph, StateId};
use crate::signal::Event;
use std::collections::HashMap;
use std::fmt;

/// A violation of one of the SG properties, with enough context to debug a
/// specification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PropertyViolation {
    /// An arc whose source/target codes are not a single-bit change of the
    /// right polarity on the fired signal.
    Inconsistent {
        /// Source state.
        src: StateId,
        /// Fired event.
        event: Event,
        /// Target state.
        dst: StateId,
    },
    /// Two arcs with the same label leave a state towards different targets.
    NonDeterministic {
        /// The branching state.
        state: StateId,
        /// The ambiguous event.
        event: Event,
    },
    /// A commuting pair of events does not reconverge.
    NonCommutative {
        /// The state where both events are enabled.
        state: StateId,
        /// First event.
        first: Event,
        /// Second event.
        second: Event,
    },
    /// An enabled non-input event is disabled by another event.
    NonPersistent {
        /// State where `event` was enabled.
        state: StateId,
        /// The event that lost its enabling.
        event: Event,
        /// The event whose firing disabled it.
        disabled_by: Event,
    },
    /// Two states share a code but enable different non-input events.
    CscConflict {
        /// First state.
        a: StateId,
        /// Second state.
        b: StateId,
        /// The shared code.
        code: u64,
    },
    /// A state is not reachable from the initial state.
    Unreachable {
        /// The orphaned state.
        state: StateId,
    },
}

impl fmt::Display for PropertyViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PropertyViolation::Inconsistent { src, event, dst } => {
                write!(f, "inconsistent arc {}-{}->{}", src.0, event, dst.0)
            }
            PropertyViolation::NonDeterministic { state, event } => {
                write!(f, "non-deterministic event {event} at state {}", state.0)
            }
            PropertyViolation::NonCommutative { state, first, second } => {
                write!(f, "events {first},{second} do not commute from state {}", state.0)
            }
            PropertyViolation::NonPersistent { state, event, disabled_by } => {
                write!(f, "event {event} disabled by {disabled_by} at state {}", state.0)
            }
            PropertyViolation::CscConflict { a, b, code } => {
                write!(f, "CSC conflict between states {} and {} (code {code:b})", a.0, b.0)
            }
            PropertyViolation::Unreachable { state } => {
                write!(f, "state {} unreachable from the initial state", state.0)
            }
        }
    }
}

/// Summary of every property check (§2.1's implementability conditions).
#[derive(Debug, Clone, Default)]
pub struct PropertyReport {
    /// All detected violations.
    pub violations: Vec<PropertyViolation>,
}

impl PropertyReport {
    /// Whether the SG is consistent, deterministic, commutative,
    /// output-persistent, CSC-correct and fully reachable.
    pub fn is_ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Whether the SG is speed-independent (deterministic + commutative +
    /// output-persistent), disregarding CSC/reachability issues.
    pub fn is_speed_independent(&self) -> bool {
        !self.violations.iter().any(|v| {
            matches!(
                v,
                PropertyViolation::NonDeterministic { .. }
                    | PropertyViolation::NonCommutative { .. }
                    | PropertyViolation::NonPersistent { .. }
                    | PropertyViolation::Inconsistent { .. }
            )
        })
    }

    /// Whether CSC holds.
    pub fn has_csc(&self) -> bool {
        !self.violations.iter().any(|v| matches!(v, PropertyViolation::CscConflict { .. }))
    }
}

/// Checks labeling consistency: along every arc exactly the fired signal
/// toggles, with the polarity announced by the event.
pub fn check_consistency(sg: &StateGraph) -> Vec<PropertyViolation> {
    let mut out = Vec::new();
    for s in sg.states() {
        for &(e, t) in sg.succ(s) {
            let bit = 1u64 << e.signal.0;
            let (cs, ct) = (sg.code(s), sg.code(t));
            let src_ok = (cs & bit != 0) == e.pre_value();
            let dst_ok = (ct & bit != 0) == e.post_value();
            let others_ok = cs & !bit == ct & !bit;
            if !(src_ok && dst_ok && others_ok) {
                out.push(PropertyViolation::Inconsistent { src: s, event: e, dst: t });
            }
        }
    }
    out
}

/// Checks determinism: at most one target per (state, event).
pub fn check_determinism(sg: &StateGraph) -> Vec<PropertyViolation> {
    let mut out = Vec::new();
    for s in sg.states() {
        let mut seen: HashMap<Event, StateId> = HashMap::new();
        for &(e, t) in sg.succ(s) {
            if let Some(&prev) = seen.get(&e) {
                if prev != t {
                    out.push(PropertyViolation::NonDeterministic { state: s, event: e });
                }
            } else {
                seen.insert(e, t);
            }
        }
    }
    out
}

/// Checks commutativity: if `a` then `b` and `b` then `a` are both
/// executable from a state, they must reach the same state.
pub fn check_commutativity(sg: &StateGraph) -> Vec<PropertyViolation> {
    let mut out = Vec::new();
    for s in sg.states() {
        let succ = sg.succ(s);
        for (i, &(a, sa)) in succ.iter().enumerate() {
            for &(b, sb) in &succ[i + 1..] {
                if a == b {
                    continue;
                }
                let ab = sg.fire(sa, b);
                let ba = sg.fire(sb, a);
                if let (Some(t1), Some(t2)) = (ab, ba) {
                    if t1 != t2 {
                        out.push(PropertyViolation::NonCommutative {
                            state: s,
                            first: a,
                            second: b,
                        });
                    }
                }
            }
        }
    }
    out
}

/// Checks output persistency: an enabled non-input event stays enabled
/// after any *other* event fires (one-step check suffices by induction).
pub fn check_output_persistency(sg: &StateGraph) -> Vec<PropertyViolation> {
    let mut out = Vec::new();
    for s in sg.states() {
        for e in sg.enabled_non_input_events(s) {
            for &(other, t) in sg.succ(s) {
                if other == e || other.signal == e.signal {
                    continue;
                }
                if !sg.enabled(t, e) {
                    out.push(PropertyViolation::NonPersistent {
                        state: s,
                        event: e,
                        disabled_by: other,
                    });
                }
            }
        }
    }
    out
}

/// Checks Complete State Coding: states with equal codes enable the same
/// set of non-input events. Each code's states are compared with the
/// first of them, and the conflicts come in state order: by `a`, then `b`.
///
/// The states are grouped by sorting one flat `(code, state)` list. A map
/// of per-code state lists would cost one small allocation per code and
/// free them in hash order, which moves the heap's layout, and with it
/// the peak resident set, from one process to the next.
pub fn check_csc(sg: &StateGraph) -> Vec<PropertyViolation> {
    let mut by_code: Vec<(u64, StateId)> = sg.states().map(|s| (sg.code(s), s)).collect();
    by_code.sort_unstable();
    let mut conflicts = Vec::new();
    for group in by_code.chunk_by(|x, y| x.0 == y.0).filter(|g| g.len() > 1) {
        let (code, first) = group[0];
        let reference = sg.enabled_non_input_events(first);
        for &(_, s) in &group[1..] {
            if sg.enabled_non_input_events(s) != reference {
                conflicts.push((first, s, code));
            }
        }
    }
    conflicts.sort_unstable();
    conflicts
        .into_iter()
        .map(|(a, b, code)| PropertyViolation::CscConflict { a, b, code })
        .collect()
}

/// Checks that every state is reachable from the initial state.
pub fn check_reachability(sg: &StateGraph) -> Vec<PropertyViolation> {
    let mut seen = vec![false; sg.state_count()];
    let mut stack = vec![sg.initial()];
    seen[sg.initial().0] = true;
    while let Some(s) = stack.pop() {
        for &(_, t) in sg.succ(s) {
            if !seen[t.0] {
                seen[t.0] = true;
                stack.push(t);
            }
        }
    }
    seen.iter()
        .enumerate()
        .filter(|&(_, &v)| !v)
        .map(|(i, _)| PropertyViolation::Unreachable { state: StateId(i) })
        .collect()
}

/// Runs every check and aggregates the violations.
pub fn check_all(sg: &StateGraph) -> PropertyReport {
    let mut violations = Vec::new();
    violations.extend(check_consistency(sg));
    violations.extend(check_determinism(sg));
    violations.extend(check_commutativity(sg));
    violations.extend(check_output_persistency(sg));
    violations.extend(check_csc(sg));
    violations.extend(check_reachability(sg));
    PropertyReport { violations }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::StateGraphBuilder;
    use crate::signal::{Signal, SignalId, SignalKind};

    fn sig(name: &str, kind: SignalKind) -> Signal {
        Signal::new(name, kind)
    }

    /// a+ ; b+ ; a- ; b- ring: all properties hold.
    fn good_ring() -> StateGraph {
        let mut b = StateGraphBuilder::new(
            "ring",
            vec![sig("a", SignalKind::Input), sig("b", SignalKind::Output)],
        )
        .unwrap();
        let s = [b.add_state(0b00), b.add_state(0b01), b.add_state(0b11), b.add_state(0b10)];
        let (a, bb) = (SignalId(0), SignalId(1));
        b.add_arc(s[0], Event::rise(a), s[1]);
        b.add_arc(s[1], Event::rise(bb), s[2]);
        b.add_arc(s[2], Event::fall(a), s[3]);
        b.add_arc(s[3], Event::fall(bb), s[0]);
        b.build(s[0]).unwrap()
    }

    #[test]
    fn ring_is_clean() {
        let report = check_all(&good_ring());
        assert!(report.is_ok(), "violations: {:?}", report.violations);
        assert!(report.is_speed_independent());
        assert!(report.has_csc());
    }

    #[test]
    fn detects_inconsistency() {
        let mut b = StateGraphBuilder::new("bad", vec![sig("a", SignalKind::Output)]).unwrap();
        let s0 = b.add_state(0);
        let s1 = b.add_state(0); // a+ should lead to code 1
        b.add_arc(s0, Event::rise(SignalId(0)), s1);
        b.add_arc(s1, Event::fall(SignalId(0)), s0);
        let g = b.build(s0).unwrap();
        assert!(!check_consistency(&g).is_empty());
    }

    #[test]
    fn detects_nondeterminism() {
        let mut b = StateGraphBuilder::new("nd", vec![sig("a", SignalKind::Output)]).unwrap();
        let s0 = b.add_state(0);
        let s1 = b.add_state(1);
        let s2 = b.add_state(1);
        b.add_arc(s0, Event::rise(SignalId(0)), s1);
        b.add_arc(s0, Event::rise(SignalId(0)), s2);
        let g = b.build(s0).unwrap();
        assert!(!check_determinism(&g).is_empty());
    }

    #[test]
    fn detects_noncommutativity() {
        // Diamond where ab and ba diverge.
        let mut b = StateGraphBuilder::new(
            "nc",
            vec![
                sig("a", SignalKind::Input),
                sig("b", SignalKind::Input),
                sig("c", SignalKind::Input),
            ],
        )
        .unwrap();
        let s0 = b.add_state(0b000);
        let sa = b.add_state(0b001);
        let sb = b.add_state(0b010);
        let t1 = b.add_state(0b011);
        let t2 = b.add_state(0b111); // divergent: extra c bit (inconsistent too, but that's fine)
        let (a, bb) = (SignalId(0), SignalId(1));
        b.add_arc(s0, Event::rise(a), sa);
        b.add_arc(s0, Event::rise(bb), sb);
        b.add_arc(sa, Event::rise(bb), t1);
        b.add_arc(sb, Event::rise(a), t2);
        let g = b.build(s0).unwrap();
        assert!(!check_commutativity(&g).is_empty());
    }

    #[test]
    fn detects_nonpersistency() {
        // Output b+ enabled at s0, disabled after input a+ fires.
        let mut b = StateGraphBuilder::new(
            "np",
            vec![sig("a", SignalKind::Input), sig("b", SignalKind::Output)],
        )
        .unwrap();
        let s0 = b.add_state(0b00);
        let s1 = b.add_state(0b01);
        let s2 = b.add_state(0b10);
        let (a, bb) = (SignalId(0), SignalId(1));
        b.add_arc(s0, Event::rise(a), s1);
        b.add_arc(s0, Event::rise(bb), s2);
        // b+ not enabled at s1: persistency violation for b+.
        b.add_arc(s1, Event::fall(a), s0);
        let g = b.build(s0).unwrap();
        let v = check_output_persistency(&g);
        assert!(v.iter().any(|v| matches!(
            v,
            PropertyViolation::NonPersistent { event, .. } if *event == Event::rise(bb)
        )));
    }

    #[test]
    fn input_choice_is_allowed() {
        // Two inputs in choice: persistency only applies to outputs.
        let mut b = StateGraphBuilder::new(
            "choice",
            vec![sig("a", SignalKind::Input), sig("b", SignalKind::Input)],
        )
        .unwrap();
        let s0 = b.add_state(0b00);
        let s1 = b.add_state(0b01);
        let s2 = b.add_state(0b10);
        b.add_arc(s0, Event::rise(SignalId(0)), s1);
        b.add_arc(s0, Event::rise(SignalId(1)), s2);
        b.add_arc(s1, Event::fall(SignalId(0)), s0);
        b.add_arc(s2, Event::fall(SignalId(1)), s0);
        let g = b.build(s0).unwrap();
        assert!(check_output_persistency(&g).is_empty());
    }

    #[test]
    fn detects_csc_conflict() {
        // Two distinct states share code 0 but enable different outputs.
        let mut b = StateGraphBuilder::new(
            "csc",
            vec![sig("a", SignalKind::Input), sig("b", SignalKind::Output)],
        )
        .unwrap();
        let s0 = b.add_state(0b00);
        let s1 = b.add_state(0b01);
        let s2 = b.add_state(0b00); // same code as s0
        let s3 = b.add_state(0b10);
        let (a, bb) = (SignalId(0), SignalId(1));
        b.add_arc(s0, Event::rise(a), s1);
        b.add_arc(s1, Event::fall(a), s2);
        b.add_arc(s2, Event::rise(bb), s3);
        b.add_arc(s3, Event::fall(bb), s0);
        let g = b.build(s0).unwrap();
        let v = check_csc(&g);
        assert_eq!(v.len(), 1);
        assert!(matches!(v[0], PropertyViolation::CscConflict { code: 0, .. }));
    }

    #[test]
    fn csc_conflicts_come_in_state_order() {
        // s0/s2 share code 0b10 and s1/s3 share code 0b00; in each pair
        // only one state enables an output. The lower code's pair comes
        // second because its first state does.
        let mut b = StateGraphBuilder::new(
            "csc2",
            vec![sig("a", SignalKind::Input), sig("b", SignalKind::Output)],
        )
        .unwrap();
        let s = [b.add_state(0b10), b.add_state(0b00), b.add_state(0b10), b.add_state(0b00)];
        let (a, bb) = (SignalId(0), SignalId(1));
        b.add_arc(s[0], Event::fall(bb), s[1]);
        b.add_arc(s[1], Event::rise(a), s[2]);
        b.add_arc(s[2], Event::rise(a), s[3]);
        b.add_arc(s[3], Event::rise(bb), s[0]);
        let g = b.build(s[0]).unwrap();
        assert_eq!(
            check_csc(&g),
            vec![
                PropertyViolation::CscConflict { a: s[0], b: s[2], code: 0b10 },
                PropertyViolation::CscConflict { a: s[1], b: s[3], code: 0b00 },
            ]
        );
    }

    #[test]
    fn detects_unreachable() {
        let mut b = StateGraphBuilder::new("unreach", vec![sig("a", SignalKind::Input)]).unwrap();
        let s0 = b.add_state(0);
        let _orphan = b.add_state(1);
        let g = b.build(s0).unwrap();
        assert_eq!(check_reachability(&g).len(), 1);
    }
}
