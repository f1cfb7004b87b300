//! Randomized (Monte Carlo) simulation of the circuit ∥ specification
//! composition.
//!
//! The exhaustive verifier explores every interleaving; for circuits
//! whose composed state space is too large, repeated random walks with a
//! seeded scheduler still catch hazards, unexpected outputs and
//! deadlocks with high probability — the classic lightweight complement
//! used while debugging a mapper.

use crate::circuit::Circuit;
use crate::composition::Composition;
use crate::verify::VerifyError;
use simap_sg::StateGraph;

/// Configuration of a simulation campaign.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Number of independent random walks.
    pub runs: usize,
    /// Steps per walk.
    pub steps: usize,
    /// RNG seed (campaigns are fully deterministic given the seed).
    pub seed: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig { runs: 32, steps: 10_000, seed: 0x5eed_cafe_f00d_u64 }
    }
}

/// Statistics of a clean campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimStats {
    /// Total composed transitions executed.
    pub transitions: usize,
    /// Walks that were cut short because the specification terminated
    /// (possible only for acyclic specs).
    pub terminated_walks: usize,
}

/// A deterministic xorshift64* generator — enough for scheduling and
/// keeps the crate dependency-free.
#[derive(Debug, Clone)]
struct XorShift(u64);

impl XorShift {
    fn new(seed: u64) -> Self {
        XorShift(seed.max(1))
    }
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }
    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Runs a randomized campaign; every step is checked for semi-modularity,
/// conformance and deadlock exactly like the exhaustive verifier.
///
/// # Errors
/// The first [`VerifyError`] encountered on any walk.
pub fn simulate(
    circuit: &Circuit,
    sg: &StateGraph,
    config: &SimConfig,
) -> Result<SimStats, VerifyError> {
    let comp = Composition::new(circuit, sg)?;
    let init = comp.initial_values()?;
    let mut rng = XorShift::new(config.seed);
    let mut transitions = 0usize;
    let mut terminated = 0usize;
    let (mut excited, mut moves) = (Vec::new(), Vec::new());
    let mut vals = init.clone();

    for _ in 0..config.runs {
        let mut spec = sg.initial();
        vals.clone_from(&init);
        for _ in 0..config.steps {
            comp.excited_gates(&vals, &mut excited);
            comp.moves(spec, &vals, &excited, &mut moves)?;
            if moves.is_empty() {
                if !sg.succ(spec).is_empty() {
                    return Err(VerifyError::Deadlock { spec_state: spec.0 });
                }
                terminated += 1;
                break;
            }
            let mv = moves[rng.below(moves.len())];
            vals.toggle(mv.net);
            comp.check_semi_modularity(&excited, &vals, &mv)?;
            spec = mv.spec_next;
            transitions += 1;
        }
    }
    Ok(SimStats { transitions, terminated_walks: terminated })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::sop_gate;
    use crate::gate::{Gate, GateFunc};
    use simap_boolean::{Cover, Cube, Literal};
    use simap_sg::{Event, Signal, SignalId, SignalKind, StateGraphBuilder};

    fn handshake() -> StateGraph {
        let mut b = StateGraphBuilder::new(
            "hs",
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
    fn clean_circuit_simulates() {
        let sg = handshake();
        let mut c = Circuit::new();
        let a = c.add_net("a", Some(SignalId(0)));
        let b = c.add_net("b", Some(SignalId(1)));
        c.add_gate(sop_gate("buf", &Cover::literal(Literal::pos(0)), |_| a, b)).unwrap();
        let stats = simulate(&c, &sg, &SimConfig::default()).expect("clean");
        assert!(stats.transitions > 1000);
    }

    #[test]
    fn deterministic_given_seed() {
        let sg = handshake();
        let mut c = Circuit::new();
        let a = c.add_net("a", Some(SignalId(0)));
        let b = c.add_net("b", Some(SignalId(1)));
        c.add_gate(sop_gate("buf", &Cover::literal(Literal::pos(0)), |_| a, b)).unwrap();
        let cfg = SimConfig { runs: 4, steps: 500, seed: 7 };
        let s1 = simulate(&c, &sg, &cfg).expect("clean");
        let s2 = simulate(&c, &sg, &cfg).expect("clean");
        assert_eq!(s1, s2);
    }

    #[test]
    fn broken_circuit_caught_by_walks() {
        // An inverter in place of a buffer misfires immediately.
        let sg = handshake();
        let mut c = Circuit::new();
        let a = c.add_net("a", Some(SignalId(0)));
        let b = c.add_net("b", Some(SignalId(1)));
        let inv = Cover::from_cube(Cube::from_literals([Literal::neg(0)]).unwrap());
        c.add_gate(sop_gate("inv", &inv, |_| a, b)).unwrap();
        assert!(simulate(&c, &sg, &SimConfig::default()).is_err());
    }

    #[test]
    fn stuck_gate_deadlocks() {
        let sg = handshake();
        let mut c = Circuit::new();
        let _a = c.add_net("a", Some(SignalId(0)));
        let b = c.add_net("b", Some(SignalId(1)));
        c.add_gate(Gate {
            name: "zero".into(),
            func: GateFunc::Sop(Cover::zero()),
            fanin: vec![],
            output: b,
        })
        .unwrap();
        let err = simulate(&c, &sg, &SimConfig::default()).unwrap_err();
        assert!(matches!(err, VerifyError::Deadlock { .. }));
    }

    #[test]
    fn agrees_with_exhaustive_verifier_on_suite_circuit() {
        // The simulator and the verifier must agree on a known-good
        // decomposed circuit.
        let stg = simap_stg_free_celement();
        let sg = stg;
        let mc = build_mc(&sg);
        let circuit = build(&sg, &mc);
        let sim = simulate(&circuit, &sg, &SimConfig { runs: 8, steps: 2000, seed: 3 });
        assert!(sim.is_ok(), "{sim:?}");
    }

    // Minimal local stand-ins to avoid a dev-dependency cycle on
    // simap-core: a 2-input C element spec and its standard-C circuit.
    fn simap_stg_free_celement() -> StateGraph {
        let mut bd = StateGraphBuilder::new(
            "c2",
            vec![
                Signal::new("a", SignalKind::Input),
                Signal::new("b", SignalKind::Input),
                Signal::new("c", SignalKind::Output),
            ],
        )
        .unwrap();
        let s00 = bd.add_state(0b000);
        let s01 = bd.add_state(0b001);
        let s10 = bd.add_state(0b010);
        let s11 = bd.add_state(0b011);
        let t11 = bd.add_state(0b111);
        let t01 = bd.add_state(0b101);
        let t10 = bd.add_state(0b110);
        let t00 = bd.add_state(0b100);
        let (a, b, c) = (SignalId(0), SignalId(1), SignalId(2));
        bd.add_arc(s00, Event::rise(a), s01);
        bd.add_arc(s00, Event::rise(b), s10);
        bd.add_arc(s01, Event::rise(b), s11);
        bd.add_arc(s10, Event::rise(a), s11);
        bd.add_arc(s11, Event::rise(c), t11);
        bd.add_arc(t11, Event::fall(a), t10);
        bd.add_arc(t11, Event::fall(b), t01);
        bd.add_arc(t10, Event::fall(b), t00);
        bd.add_arc(t01, Event::fall(a), t00);
        bd.add_arc(t00, Event::fall(c), s00);
        bd.build(s00).unwrap()
    }

    struct MiniMc {
        set: Cover,
        reset: Cover,
    }

    fn build_mc(_sg: &StateGraph) -> MiniMc {
        MiniMc {
            set: Cover::from_cube(Cube::from_literals([Literal::pos(0), Literal::pos(1)]).unwrap()),
            reset: Cover::from_cube(
                Cube::from_literals([Literal::neg(0), Literal::neg(1)]).unwrap(),
            ),
        }
    }

    fn build(sg: &StateGraph, mc: &MiniMc) -> Circuit {
        let mut circuit = Circuit::new();
        let nets: Vec<_> = sg
            .signals()
            .iter()
            .enumerate()
            .map(|(i, s)| circuit.add_net(s.name.clone(), Some(SignalId(i))))
            .collect();
        let nset = circuit.add_net("set", None);
        let nreset = circuit.add_net("reset", None);
        circuit.add_gate(sop_gate("set", &mc.set, |v| nets[v], nset)).unwrap();
        circuit.add_gate(sop_gate("reset", &mc.reset, |v| nets[v], nreset)).unwrap();
        circuit
            .add_gate(Gate {
                name: "c".into(),
                func: GateFunc::CElement,
                fanin: vec![nset, nreset],
                output: nets[2],
            })
            .unwrap();
        circuit
    }
}
