//! The closed system "circuit ∥ specification-as-environment" under the
//! unbounded gate delay model — shared by the exhaustive verifier
//! ([`crate::verify`]) and the randomized simulator ([`crate::sim`]).

use crate::circuit::Circuit;
use crate::gate::{Gate, NetId};
use crate::verify::VerifyError;
use simap_sg::{Event, SignalKind, StateGraph, StateId};

/// A packed valuation of every net.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct NetValues(Vec<u64>);

impl NetValues {
    /// All-zero valuation for `n` nets.
    pub fn new(n: usize) -> Self {
        NetValues(vec![0; n.div_ceil(64)])
    }

    /// Value of a net.
    pub fn get(&self, n: NetId) -> bool {
        self.0[n.0 / 64] >> (n.0 % 64) & 1 == 1
    }

    /// Sets a net.
    pub fn set(&mut self, n: NetId, v: bool) {
        if v {
            self.0[n.0 / 64] |= 1 << (n.0 % 64);
        } else {
            self.0[n.0 / 64] &= !(1 << (n.0 % 64));
        }
    }

    /// Toggles a net.
    pub fn toggle(&mut self, n: NetId) {
        self.0[n.0 / 64] ^= 1 << (n.0 % 64);
    }

    /// The packed words, net `k` at bit `k % 64` of word `k / 64`.
    pub(crate) fn words(&self) -> &[u64] {
        &self.0
    }

    /// Overwrites the valuation with packed `words` of the same length.
    ///
    /// # Panics
    /// When the lengths differ.
    pub(crate) fn copy_from_words(&mut self, words: &[u64]) {
        self.0.copy_from_slice(words);
    }
}

/// One enabled action of the composition: one net toggles.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Move {
    /// Index of the firing gate, `None` for environment (input) moves.
    pub fired_gate: Option<usize>,
    /// The specification event the move performs, `None` for a gate
    /// driving an internal net.
    pub event: Option<Event>,
    /// The net that toggles.
    pub net: NetId,
    /// Specification state after the move.
    pub spec_next: StateId,
}

/// The composition context: net↔signal maps plus the gate list.
#[derive(Debug)]
pub struct Composition<'a> {
    /// The circuit under verification.
    pub circuit: &'a Circuit,
    /// The specification acting as environment.
    pub sg: &'a StateGraph,
    signal_net: Vec<NetId>,
    net_signal: Vec<Option<usize>>,
}

impl<'a> Composition<'a> {
    /// Builds the composition, checking that every specification signal
    /// has a net.
    ///
    /// # Errors
    /// [`VerifyError::MissingNet`] when a signal is unmapped.
    pub fn new(circuit: &'a Circuit, sg: &'a StateGraph) -> Result<Self, VerifyError> {
        let mut signal_net = Vec::with_capacity(sg.signal_count());
        for (i, sig) in sg.signals().iter().enumerate() {
            match circuit.net_of_signal(simap_sg::SignalId(i)) {
                Some(n) => signal_net.push(n),
                None => return Err(VerifyError::MissingNet { signal: sig.name.clone() }),
            }
        }
        let mut net_signal = vec![None; circuit.nets().len()];
        for (i, &n) in signal_net.iter().enumerate() {
            net_signal[n.0] = Some(i);
        }
        Ok(Composition { circuit, sg, signal_net, net_signal })
    }

    /// The initial valuation: signal nets pinned to the initial code,
    /// internal nets stabilized by bounded fixpoint sweeps.
    ///
    /// # Errors
    /// [`VerifyError::UnstableInit`] when the sweeps do not converge.
    pub fn initial_values(&self) -> Result<NetValues, VerifyError> {
        let mut init = NetValues::new(self.circuit.nets().len());
        let init_code = self.sg.code(self.sg.initial());
        for (i, &n) in self.signal_net.iter().enumerate() {
            init.set(n, init_code >> i & 1 == 1);
        }
        let gates = self.circuit.gates();
        for _ in 0..=gates.len() {
            let mut changed = false;
            for g in gates {
                if self.net_signal[g.output.0].is_some() {
                    continue;
                }
                let cur = init.get(g.output);
                let next = g.eval(&|n| init.get(n), cur);
                if next != cur {
                    init.set(g.output, next);
                    changed = true;
                }
            }
            if !changed {
                return Ok(init);
            }
        }
        Err(VerifyError::UnstableInit)
    }

    /// Whether a gate is excited (next output ≠ current output).
    pub fn excited(&self, vals: &NetValues, gate: &Gate) -> bool {
        gate.eval(&|n| vals.get(n), vals.get(gate.output)) != vals.get(gate.output)
    }

    /// Fills `out` with the indices of all excited gates.
    pub fn excited_gates(&self, vals: &NetValues, out: &mut Vec<usize>) {
        out.clear();
        let gates = self.circuit.gates();
        out.extend((0..gates.len()).filter(|&i| self.excited(vals, &gates[i])));
    }

    /// Fills `out` with every enabled move of the composition: the
    /// specification's input events first, then the `excited` gates (as
    /// [`Composition::excited_gates`] lists them for `vals`) in gate order.
    ///
    /// # Errors
    /// [`VerifyError::UnexpectedOutput`] when an excited gate would fire an
    /// output transition the specification does not allow.
    pub fn moves(
        &self,
        spec: StateId,
        vals: &NetValues,
        excited: &[usize],
        out: &mut Vec<Move>,
    ) -> Result<(), VerifyError> {
        out.clear();
        // Environment moves.
        for &(e, t) in self.sg.succ(spec) {
            if self.sg.signals()[e.signal.0].kind != SignalKind::Input {
                continue;
            }
            out.push(Move {
                fired_gate: None,
                event: Some(e),
                net: self.signal_net[e.signal.0],
                spec_next: t,
            });
        }
        // Circuit moves.
        for &gi in excited {
            let g = &self.circuit.gates()[gi];
            let (event, spec_next) = match self.net_signal[g.output.0] {
                Some(sig) => {
                    let ev = Event { signal: simap_sg::SignalId(sig), rising: !vals.get(g.output) };
                    match self.sg.fire(spec, ev) {
                        Some(t) => (Some(ev), t),
                        None => {
                            return Err(VerifyError::UnexpectedOutput {
                                event: self.sg.event_name(ev),
                            })
                        }
                    }
                }
                None => (None, spec),
            };
            out.push(Move { fired_gate: Some(gi), event, net: g.output, spec_next });
        }
        Ok(())
    }

    /// Renders a move for diagnostics: `input a+`, `output b-` or
    /// `internal g`.
    pub fn describe(&self, mv: &Move) -> String {
        match (mv.fired_gate, mv.event) {
            (None, Some(e)) => format!("input {}", self.sg.event_name(e)),
            (Some(_), Some(e)) => format!("output {}", self.sg.event_name(e)),
            (Some(gi), None) => format!("internal {}", self.circuit.gates()[gi].name),
            (None, None) => unreachable!("every environment move performs an event"),
        }
    }

    /// Semi-modularity check for one move: every excited gate other than
    /// the firing one must stay excited in `vals_next`, the valuation
    /// after `mv`. Only `mv.net` toggles, so a gate that neither reads
    /// nor drives it is still excited and is not evaluated again.
    ///
    /// # Errors
    /// [`VerifyError::Disabled`] naming the first disabled gate.
    pub fn check_semi_modularity(
        &self,
        excited_before: &[usize],
        vals_next: &NetValues,
        mv: &Move,
    ) -> Result<(), VerifyError> {
        for &gi in excited_before {
            let gate = &self.circuit.gates()[gi];
            if Some(gi) == mv.fired_gate || (gate.output != mv.net && !gate.fanin.contains(&mv.net))
            {
                continue;
            }
            if !self.excited(vals_next, gate) {
                return Err(VerifyError::Disabled {
                    gate: gate.name.clone(),
                    by: self.describe(mv),
                });
            }
        }
        Ok(())
    }
}
