//! Fault injection: mutate correct implementations in targeted ways and
//! assert that the speed-independence verifier refuses each mutant. This
//! is the negative side of the paper's "all implementations have been
//! verified" claim — the verifier must actually be able to fail.
//!
//! Every verdict is also checked against [`oracle`], a plain `HashMap`
//! breadth-first search over the public [`Composition`] API: the packed
//! verifier must return the same statistics or the same first error.

use simap::boolean::{Cover, Cube, Literal};
use simap::core::{build_circuit, decompose, synthesize_mc, DecomposeConfig, McImpl, SignalBody};
use simap::netlist::{
    verify_speed_independence, Circuit, Composition, NetValues, VerifyConfig, VerifyError,
    VerifyStats,
};
use simap::sg::{StateGraph, StateId};
use std::collections::HashMap;

fn sg_of(name: &str) -> StateGraph {
    let stg = simap::stg::benchmark(name).expect("known benchmark");
    simap::stg::elaborate(&stg).expect("elaborates")
}

/// The reference verifier: one `HashMap` entry per composed state, a
/// cloned valuation per move, the semi-modularity check spelled out. It
/// explores in the same breadth-first order as the packed verifier, so
/// both must agree on the statistics and on the first error.
fn oracle(
    circuit: &Circuit,
    sg: &StateGraph,
    max_states: usize,
) -> Result<VerifyStats, VerifyError> {
    let comp = Composition::new(circuit, sg)?;
    let init = comp.initial_values()?;
    let mut index: HashMap<(StateId, NetValues), usize> = HashMap::new();
    let mut queue: Vec<(StateId, NetValues)> = Vec::new();
    index.insert((sg.initial(), init.clone()), 0);
    queue.push((sg.initial(), init));
    let (mut excited, mut moves) = (Vec::new(), Vec::new());
    let mut transitions = 0usize;
    let mut head = 0;

    while head < queue.len() {
        let (spec, vals) = queue[head].clone();
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
            let mut next = vals.clone();
            next.toggle(mv.net);
            for &gi in &excited {
                let gate = &circuit.gates()[gi];
                if Some(gi) != mv.fired_gate && !comp.excited(&next, gate) {
                    return Err(VerifyError::Disabled {
                        gate: gate.name.clone(),
                        by: comp.describe(mv),
                    });
                }
            }
            transitions += 1;
            let key = (mv.spec_next, next);
            if !index.contains_key(&key) {
                if index.len() >= max_states {
                    return Err(VerifyError::TooManyStates { limit: max_states });
                }
                index.insert(key.clone(), queue.len());
                queue.push(key);
            }
        }
    }
    Ok(VerifyStats { states: queue.len(), transitions })
}

/// Verifies with the packed verifier and asserts that the oracle returns
/// the same statistics or the same error.
fn verify(circuit: &Circuit, sg: &StateGraph) -> Result<VerifyStats, VerifyError> {
    let config = VerifyConfig::default();
    let verdict = verify_speed_independence(circuit, sg, &config);
    assert_eq!(verdict, oracle(circuit, sg, config.max_states), "verifier and oracle disagree");
    verdict
}

fn mc_of(sg: &StateGraph) -> McImpl {
    synthesize_mc(sg).expect("CSC holds")
}

/// Baseline: the unmutated implementations verify.
#[test]
fn unmutated_implementations_verify() {
    for name in ["hazard", "dff", "half", "chu133", "ebergen", "vbe5b"] {
        let sg = sg_of(name);
        let circuit = build_circuit(&sg, &mc_of(&sg));
        verify(&circuit, &sg).unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

/// Widening a set cover beyond its region fires outputs early.
#[test]
fn widened_set_cover_is_refuted() {
    let sg = sg_of("dff");
    let mut mc = mc_of(&sg);
    for s in &mut mc.signals {
        if let SignalBody::StandardC { set, .. } = &mut s.body {
            // Drop one literal from the set cover: it now covers states
            // where the output must not rise.
            let cube = set[0].cover.cubes()[0];
            let lit = cube.literals().next().expect("non-trivial cover");
            set[0].cover = Cover::from_cube(cube.without_var(lit.var));
        }
    }
    let circuit = build_circuit(&sg, &mc);
    assert!(verify(&circuit, &sg).is_err(), "widened cover must be refuted");
}

/// Swapping set and reset networks inverts the protocol.
#[test]
fn swapped_set_reset_is_refuted() {
    let sg = sg_of("dff");
    let mut mc = mc_of(&sg);
    for s in &mut mc.signals {
        if let SignalBody::StandardC { set, reset } = &mut s.body {
            std::mem::swap(set, reset);
        }
    }
    let circuit = build_circuit(&sg, &mc);
    assert!(verify(&circuit, &sg).is_err(), "swapped networks must be refuted");
}

/// A combinational cover with an inverted literal produces wrong outputs.
#[test]
fn inverted_literal_is_refuted() {
    let sg = sg_of("chu133");
    let mut mc = mc_of(&sg);
    let mut mutated = false;
    for s in &mut mc.signals {
        if let SignalBody::Combinational { cover, .. } = &mut s.body {
            if let Some(&cube) = cover.cubes().first() {
                if let Some(lit) = cube.literals().next() {
                    let flipped = cube
                        .without_var(lit.var)
                        .with_literal(lit.complement())
                        .expect("flip stays consistent");
                    *cover = Cover::from_cube(flipped);
                    mutated = true;
                    break;
                }
            }
        }
    }
    assert!(mutated, "chu133 has a combinational signal to mutate");
    let circuit = build_circuit(&sg, &mc);
    assert!(verify(&circuit, &sg).is_err(), "inverted literal must be refuted");
}

/// The naive non-SI decomposition of a wide AND *as separate signals
/// without insertion* is exactly what the paper forbids: emulate the
/// hazard by splitting a cover into an unacknowledged intermediate gate.
#[test]
fn unacknowledged_decomposition_is_refuted() {
    // 3-input C element: set = a0·a1·a2. Implement set as
    // (a0·a1) AND-chained through an extra net WITHOUT inserting the
    // signal at the SG level. The intermediate gate's transitions are
    // unacknowledged: the verifier must find a disabling or an early fire.
    let stg = simap::stg::patterns::celement(3);
    let sg = simap::stg::elaborate(&stg).expect("elaborates");
    let c = sg.signal_by_name("c").expect("output c");
    let a = |i: usize| sg.signal_by_name(&format!("a{i}")).expect("input");

    let mut circuit = Circuit::new();
    let na: Vec<_> = (0..3).map(|i| circuit.add_net(format!("a{i}"), Some(a(i)))).collect();
    let nc = circuit.add_net("c", Some(c));
    let mid = circuit.add_net("mid", None);
    let nset = circuit.add_net("set", None);
    let nreset = circuit.add_net("reset", None);

    let and2 = |x, y| {
        Cover::from_cube(Cube::from_literals([Literal::pos(x), Literal::pos(y)]).expect("cube"))
    };
    let nand_inputs = [na[0], na[1]];
    circuit
        .add_gate(simap::netlist::sop_gate("mid", &and2(0, 1), |v| nand_inputs[v], mid))
        .expect("fresh");
    let set_inputs = [mid, na[2]];
    circuit
        .add_gate(simap::netlist::sop_gate("set", &and2(0, 1), |v| set_inputs[v], nset))
        .expect("fresh");
    let reset_cover = Cover::from_cube(
        Cube::from_literals([Literal::neg(0), Literal::neg(1), Literal::neg(2)]).expect("cube"),
    );
    circuit
        .add_gate(simap::netlist::sop_gate("reset", &reset_cover, |v| na[v], nreset))
        .expect("fresh");
    circuit
        .add_gate(simap::netlist::Gate {
            name: "c".into(),
            func: simap::netlist::GateFunc::CElement,
            fanin: vec![nset, nreset],
            output: nc,
        })
        .expect("fresh");

    let verdict = verify(&circuit, &sg);
    assert!(verdict.is_err(), "naive two-level split without SG insertion must exhibit a hazard");
}

/// The *correct* decomposition of the same circuit — produced by the
/// paper's algorithm — verifies, demonstrating the contrast.
#[test]
fn acknowledged_decomposition_verifies() {
    let stg = simap::stg::patterns::celement(3);
    let sg = simap::stg::elaborate(&stg).expect("elaborates");
    let result =
        simap::core::decompose(&sg, &simap::core::DecomposeConfig::with_limit(2)).expect("CSC");
    assert!(result.implementable);
    let circuit = build_circuit(&result.sg, &result.mc);
    verify(&circuit, &result.sg).expect("the SG-level decomposition is hazard-free");
}

/// Dropping the C element (treating a sequential signal as a wire from its
/// set network) deadlocks or misfires.
#[test]
fn missing_state_holding_is_refuted() {
    let sg = sg_of("dff");
    let mc = mc_of(&sg);
    let mut circuit = Circuit::new();
    let nets: Vec<_> = sg
        .signals()
        .iter()
        .enumerate()
        .map(|(i, s)| circuit.add_net(s.name.clone(), Some(simap::sg::SignalId(i))))
        .collect();
    for s in &mc.signals {
        if let SignalBody::StandardC { set, .. } = &s.body {
            // Drive the signal directly from its set cover: no hold state.
            let gate =
                simap::netlist::sop_gate("q_wrong", &set[0].cover, |v| nets[v], nets[s.signal.0]);
            circuit.add_gate(gate).expect("fresh");
        }
    }
    assert!(verify(&circuit, &sg).is_err(), "wire-instead-of-C must be refuted");
}

/// The packed verifier agrees with the oracle on the decomposed
/// implementation of every embedded circuit at limits 2, 3 and 4, and on
/// the state cap: each run passes again with the cap set to exactly the
/// composed states it needs, and at one fewer both stop with the same
/// `TooManyStates`. Debug builds check the
/// circuits of at most 400 states.
#[test]
fn verifier_matches_oracle_on_every_circuit() {
    for &name in simap::stg::benchmark_names() {
        let sg = sg_of(name);
        if cfg!(debug_assertions) && sg.state_count() > 400 {
            continue;
        }
        for limit in [2, 3, 4] {
            let result = decompose(&sg, &DecomposeConfig::with_limit(limit)).expect("CSC holds");
            let circuit = build_circuit(&result.sg, &result.mc);
            let stats =
                verify(&circuit, &result.sg).unwrap_or_else(|e| panic!("{name} at {limit}: {e}"));
            let exact = VerifyConfig { max_states: stats.states };
            let exact_verdict = verify_speed_independence(&circuit, &result.sg, &exact);
            assert_eq!(exact_verdict.as_ref(), Ok(&stats), "{name} at {limit}");
            let capped = VerifyConfig { max_states: stats.states - 1 };
            let too_many = Err(VerifyError::TooManyStates { limit: stats.states - 1 });
            assert_eq!(
                verify_speed_independence(&circuit, &result.sg, &capped),
                too_many,
                "{name} at {limit}"
            );
            let oracle_verdict = oracle(&circuit, &result.sg, capped.max_states);
            assert_eq!(oracle_verdict, too_many, "{name} at {limit}");
        }
    }
}
