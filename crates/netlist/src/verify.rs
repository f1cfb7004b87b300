//! Speed-independence verification of a gate-level circuit against its
//! specification, under the unbounded gate delay model.
//!
//! The verifier composes the circuit with the specification state graph
//! acting as its environment (inputs fire when the spec allows; outputs
//! must be expected by the spec) and explores every reachable composed
//! state checking **semi-modularity**: an excited gate may never return to
//! stability without firing — exactly Muller's hazard-freedom condition
//! the paper's implementations are verified with ("All the implementations
//! have been verified to be speed-independent", §4).
//!
//! The visited set is a [`simap_sg::PackedSet`], the one packed-state
//! interner packed STG reachability also runs on: a composed state is one
//! fixed-width row holding the specification state and the packed net
//! values, so it costs no heap key, and the breadth-first order (hence
//! [`VerifyStats`] and the first error found) is the row numbering.

use crate::circuit::Circuit;
use crate::composition::Composition;
use simap_sg::{PackedSet, StateGraph, StateId};
use std::fmt;

/// Exploration limits.
#[derive(Debug, Clone)]
pub struct VerifyConfig {
    /// Maximum number of composed (spec, net-values) states.
    pub max_states: usize,
}

impl Default for VerifyConfig {
    fn default() -> Self {
        VerifyConfig { max_states: 2_000_000 }
    }
}

/// Statistics of a successful verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyStats {
    /// Composed states explored.
    pub states: usize,
    /// Composed transitions explored.
    pub transitions: usize,
}

/// A speed-independence violation (or exploration failure).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyError {
    /// Gate `gate` was excited and became stable without firing after
    /// `by` occurred: a hazard.
    Disabled {
        /// Name of the disabled gate.
        gate: String,
        /// Description of the action that disabled it.
        by: String,
    },
    /// The circuit produced an output transition the specification does
    /// not allow in the current state.
    UnexpectedOutput {
        /// The offending event rendered as text.
        event: String,
    },
    /// No action is possible but the specification still expects events.
    Deadlock {
        /// Spec state where the composition got stuck.
        spec_state: usize,
    },
    /// A specification signal has no net in the circuit.
    MissingNet {
        /// The signal's name.
        signal: String,
    },
    /// Internal nets failed to stabilize in the initial state.
    UnstableInit,
    /// State limit exceeded — verification inconclusive.
    TooManyStates {
        /// The configured limit.
        limit: usize,
    },
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::Disabled { gate, by } => write!(f, "gate `{gate}` disabled by {by}"),
            VerifyError::UnexpectedOutput { event } => {
                write!(f, "unexpected output transition {event}")
            }
            VerifyError::Deadlock { spec_state } => {
                write!(f, "deadlock in spec state {spec_state}")
            }
            VerifyError::MissingNet { signal } => {
                write!(f, "specification signal `{signal}` has no net")
            }
            VerifyError::UnstableInit => write!(f, "internal nets do not stabilize initially"),
            VerifyError::TooManyStates { limit } => {
                write!(f, "exceeded {limit} composed states (inconclusive)")
            }
        }
    }
}

impl std::error::Error for VerifyError {}

/// Verifies that `circuit` is a speed-independent implementation of `sg`.
///
/// # Errors
/// Returns the first [`VerifyError`] found: a semi-modularity violation
/// (hazard), an unexpected output, a deadlock, or resource exhaustion.
pub fn verify_speed_independence(
    circuit: &Circuit,
    sg: &StateGraph,
    config: &VerifyConfig,
) -> Result<VerifyStats, VerifyError> {
    let comp = Composition::new(circuit, sg)?;
    let mut vals = comp.initial_values()?;

    // BFS over composed states, each one row `[spec state, net words…]`
    // numbered in discovery order: the row id is the queue position.
    let mut seen = PackedSet::new(1 + vals.words().len());
    let mut row = vec![sg.initial().0 as u64];
    row.extend_from_slice(vals.words());
    seen.insert(&row);
    let (mut excited, mut moves) = (Vec::new(), Vec::new());
    let mut transitions = 0usize;
    let mut head = 0;

    while head < seen.len() {
        let cur = seen.row(head);
        let spec = StateId(cur[0] as usize);
        vals.copy_from_words(&cur[1..]);
        head += 1;

        comp.excited_gates(&vals, &mut excited);
        comp.moves(spec, &vals, &excited, &mut moves)?;
        if moves.is_empty() {
            if !sg.succ(spec).is_empty() {
                return Err(VerifyError::Deadlock { spec_state: spec.0 });
            }
            continue;
        }

        for mv in &moves {
            vals.toggle(mv.net);
            comp.check_semi_modularity(&excited, &vals, mv)?;
            transitions += 1;
            row[0] = mv.spec_next.0 as u64;
            row[1..].copy_from_slice(vals.words());
            vals.toggle(mv.net);
            if seen.insert(&row).1 && seen.len() > config.max_states {
                return Err(VerifyError::TooManyStates { limit: config.max_states });
            }
        }
    }

    Ok(VerifyStats { states: seen.len(), transitions })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::sop_gate;
    use simap_boolean::{Cover, Cube, Literal};
    use simap_sg::{Event, Signal, SignalId, SignalKind, StateGraphBuilder};

    /// The a+ ; b+ ; a- ; b- handshake spec (a input, b output).
    fn handshake() -> StateGraph {
        let mut b = StateGraphBuilder::new(
            "handshake",
            vec![Signal::new("a", SignalKind::Input), Signal::new("b", SignalKind::Output)],
        )
        .unwrap();
        let s = [b.add_state(0b00), b.add_state(0b01), b.add_state(0b11), b.add_state(0b10)];
        b.add_arc(s[0], Event::rise(SignalId(0)), s[1]);
        b.add_arc(s[1], Event::rise(SignalId(1)), s[2]);
        b.add_arc(s[2], Event::fall(SignalId(0)), s[3]);
        b.add_arc(s[3], Event::fall(SignalId(1)), s[0]);
        b.build(s[0]).unwrap()
    }

    #[test]
    fn buffer_implements_handshake() {
        let sg = handshake();
        let mut c = Circuit::new();
        let a = c.add_net("a", Some(SignalId(0)));
        let b = c.add_net("b", Some(SignalId(1)));
        // b = a (a single-literal SOP gate, i.e. a buffer).
        let cover = Cover::literal(Literal::pos(0));
        c.add_gate(sop_gate("buf", &cover, |_| a, b)).unwrap();
        let stats =
            verify_speed_independence(&c, &sg, &VerifyConfig::default()).expect("buffer is SI");
        assert!(stats.states >= 4);
    }

    #[test]
    fn state_cap_is_exact() {
        let sg = handshake();
        let mut c = Circuit::new();
        let a = c.add_net("a", Some(SignalId(0)));
        let b = c.add_net("b", Some(SignalId(1)));
        c.add_gate(sop_gate("buf", &Cover::literal(Literal::pos(0)), |_| a, b)).unwrap();
        let stats = verify_speed_independence(&c, &sg, &VerifyConfig::default()).unwrap();
        let n = stats.states;
        let at = |max_states| verify_speed_independence(&c, &sg, &VerifyConfig { max_states });
        assert_eq!(at(n), Ok(stats));
        assert_eq!(at(n - 1), Err(VerifyError::TooManyStates { limit: n - 1 }));
    }

    #[test]
    fn inverted_buffer_is_rejected() {
        let sg = handshake();
        let mut c = Circuit::new();
        let a = c.add_net("a", Some(SignalId(0)));
        let b = c.add_net("b", Some(SignalId(1)));
        // b = !a : produces b+ when the spec does not expect it.
        let cover = Cover::from_cube(Cube::from_literals([Literal::neg(0)]).unwrap());
        c.add_gate(sop_gate("inv", &cover, |_| a, b)).unwrap();
        let err = verify_speed_independence(&c, &sg, &VerifyConfig::default()).unwrap_err();
        assert!(matches!(err, VerifyError::UnexpectedOutput { .. } | VerifyError::UnstableInit));
    }

    #[test]
    fn missing_net_reported() {
        let sg = handshake();
        let mut c = Circuit::new();
        let _a = c.add_net("a", Some(SignalId(0)));
        // No net for signal b.
        let err = verify_speed_independence(&c, &sg, &VerifyConfig::default()).unwrap_err();
        assert!(matches!(err, VerifyError::MissingNet { .. }));
    }

    #[test]
    fn stuck_circuit_deadlocks() {
        let sg = handshake();
        let mut c = Circuit::new();
        let _a = c.add_net("a", Some(SignalId(0)));
        let b = c.add_net("b", Some(SignalId(1)));
        // b = 0 forever: after a+ the spec expects b+ that never comes; the
        // constant gate is never excited, inputs exhaust, deadlock.
        let zero = Cover::zero();
        c.add_gate(crate::gate::Gate {
            name: "const0".into(),
            func: crate::gate::GateFunc::Sop(zero),
            fanin: vec![],
            output: b,
        })
        .unwrap();
        let err = verify_speed_independence(&c, &sg, &VerifyConfig::default()).unwrap_err();
        assert!(matches!(err, VerifyError::Deadlock { .. }), "{err}");
    }

    #[test]
    fn c_element_circuit_verifies() {
        // Spec: c rises after both a and b rise; falls after both fall.
        let mut bd = StateGraphBuilder::new(
            "c2",
            vec![
                Signal::new("a", SignalKind::Input),
                Signal::new("b", SignalKind::Input),
                Signal::new("c", SignalKind::Output),
            ],
        )
        .unwrap();
        // Rising phase: subsets of {a,b} high with c=0; falling mirrored.
        let s00 = bd.add_state(0b000);
        let s01 = bd.add_state(0b001);
        let s10 = bd.add_state(0b010);
        let s11 = bd.add_state(0b011);
        let t11 = bd.add_state(0b111);
        let t01 = bd.add_state(0b101);
        let t10 = bd.add_state(0b110);
        let t00 = bd.add_state(0b100);
        let (a, b, cc) = (SignalId(0), SignalId(1), SignalId(2));
        bd.add_arc(s00, Event::rise(a), s01);
        bd.add_arc(s00, Event::rise(b), s10);
        bd.add_arc(s01, Event::rise(b), s11);
        bd.add_arc(s10, Event::rise(a), s11);
        bd.add_arc(s11, Event::rise(cc), t11);
        bd.add_arc(t11, Event::fall(a), t10);
        bd.add_arc(t11, Event::fall(b), t01);
        bd.add_arc(t10, Event::fall(b), t00);
        bd.add_arc(t01, Event::fall(a), t00);
        bd.add_arc(t00, Event::fall(cc), s00);
        let sg = bd.build(s00).unwrap();

        let mut c = Circuit::new();
        let na = c.add_net("a", Some(a));
        let nb = c.add_net("b", Some(b));
        let nset = c.add_net("set", None);
        let nreset = c.add_net("reset", None);
        let nc = c.add_net("c", Some(cc));
        let set_cover =
            Cover::from_cube(Cube::from_literals([Literal::pos(0), Literal::pos(1)]).unwrap());
        let reset_cover =
            Cover::from_cube(Cube::from_literals([Literal::neg(0), Literal::neg(1)]).unwrap());
        let nets = [na, nb];
        c.add_gate(sop_gate("set", &set_cover, |v| nets[v], nset)).unwrap();
        c.add_gate(sop_gate("reset", &reset_cover, |v| nets[v], nreset)).unwrap();
        c.add_gate(crate::gate::Gate {
            name: "c".into(),
            func: crate::gate::GateFunc::CElement,
            fanin: vec![nset, nreset],
            output: nc,
        })
        .unwrap();
        let stats = verify_speed_independence(&c, &sg, &VerifyConfig::default())
            .expect("standard-C C-element implementation is SI");
        assert!(stats.states > 8);
    }
}
