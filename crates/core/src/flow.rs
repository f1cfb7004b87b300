//! End-to-end flow: specification → monotonous covers → decomposition →
//! standard-C netlist → cost accounting → speed-independence verification.

use crate::decompose::DecomposeResult;
use crate::mc::{McImpl, SignalBody};
use simap_netlist::{sop_gate, tech_decomp_literals, Circuit, Cost, Gate, GateFunc, NetId};
use simap_sg::{SignalKind, StateGraph};

/// Builds the standard-C architecture netlist for an implementation:
/// per-region cover gates, OR gates joining the one-hot covers, and a C
/// element per state-holding signal (combinational signals become a single
/// complex gate, Fig. 2b/c). Second-level OR gates keep their natural
/// fanin; see [`build_circuit_with_or_limit`] to split them.
pub fn build_circuit(sg: &StateGraph, mc: &McImpl) -> Circuit {
    build_circuit_with_or_limit(sg, mc, None)
}

/// Like [`build_circuit`], but when `or_limit` is given the second-level
/// OR gates joining multi-region covers are split into balanced trees of
/// at most `or_limit` inputs. The split is *free* with respect to
/// speed-independence: the first-level cover outputs are one-hot (§2.2:
/// "any valid Boolean decomposition of the second-level or gates will be
/// speed-independent").
pub fn build_circuit_with_or_limit(
    sg: &StateGraph,
    mc: &McImpl,
    or_limit: Option<usize>,
) -> Circuit {
    let mut circuit = Circuit::new();
    // One net per specification signal.
    let signal_nets: Vec<NetId> = sg
        .signals()
        .iter()
        .enumerate()
        .map(|(i, s)| circuit.add_net(s.name.clone(), Some(simap_sg::SignalId(i))))
        .collect();

    for simpl in &mc.signals {
        let sig_name = &sg.signals()[simpl.signal.0].name;
        let out_net = signal_nets[simpl.signal.0];
        match &simpl.body {
            SignalBody::Combinational { cover, .. } => {
                if cover.is_zero() || cover.is_one() {
                    // Constant signal: a degenerate gate.
                    let gate = Gate {
                        name: format!("{sig_name}_const"),
                        func: GateFunc::Sop(cover.clone()),
                        fanin: vec![],
                        output: out_net,
                    };
                    circuit.add_gate(gate).expect("fresh net");
                } else {
                    let gate =
                        sop_gate(format!("{sig_name}_cc"), cover, |v| signal_nets[v], out_net);
                    circuit.add_gate(gate).expect("fresh net");
                }
            }
            SignalBody::StandardC { set, reset } => {
                let mut side_net = |covers: &[crate::mc::RegionCover], side: &str| -> NetId {
                    let mut cover_nets = Vec::new();
                    for (j, rc) in covers.iter().enumerate() {
                        let net = circuit.add_net(format!("{sig_name}_{side}{j}"), None);
                        let gate = sop_gate(
                            format!("{sig_name}_{side}{j}_gate"),
                            &rc.cover,
                            |v| signal_nets[v],
                            net,
                        );
                        circuit.add_gate(gate).expect("fresh net");
                        cover_nets.push(net);
                    }
                    or_join(&mut circuit, cover_nets, sig_name, side, or_limit)
                };
                let set_net = side_net(set, "set");
                let reset_net = side_net(reset, "reset");
                let gate = Gate {
                    name: format!("{sig_name}_c"),
                    func: GateFunc::CElement,
                    fanin: vec![set_net, reset_net],
                    output: out_net,
                };
                circuit.add_gate(gate).expect("fresh net");
            }
        }
    }
    circuit
}

/// Joins one-hot cover nets with OR gates, optionally as a bounded-fanin
/// tree.
fn or_join(
    circuit: &mut Circuit,
    nets: Vec<NetId>,
    sig_name: &str,
    side: &str,
    or_limit: Option<usize>,
) -> NetId {
    let chunk_size = or_limit.unwrap_or(usize::MAX).max(2);
    let mut level = nets;
    if level.is_empty() {
        // A side with no excitation regions (degenerate): tie it to 0.
        let net = circuit.add_net(format!("{sig_name}_{side}_zero"), None);
        circuit
            .add_gate(Gate {
                name: format!("{sig_name}_{side}_zero"),
                func: GateFunc::Sop(simap_boolean::Cover::zero()),
                fanin: vec![],
                output: net,
            })
            .expect("fresh net");
        return net;
    }
    let mut counter = 0usize;
    while level.len() > 1 {
        let mut next = Vec::new();
        for chunk in level.chunks(chunk_size) {
            if chunk.len() == 1 {
                next.push(chunk[0]);
                continue;
            }
            let or_net = circuit.add_net(format!("{sig_name}_{side}_or{counter}"), None);
            counter += 1;
            let or_cover = simap_boolean::Cover::from_cubes((0..chunk.len()).map(|k| {
                simap_boolean::Cube::from_literals([simap_boolean::Literal::pos(k)])
                    .expect("literal cube")
            }));
            circuit
                .add_gate(Gate {
                    name: format!("{sig_name}_{side}_or{counter}"),
                    func: GateFunc::Sop(or_cover),
                    fanin: chunk.to_vec(),
                    output: or_net,
                })
                .expect("fresh net");
            next.push(or_net);
        }
        level = next;
    }
    level[0]
}

/// Builds the circuit with every cover gate *syntactically* decomposed
/// into a tree of at-most-`fanin_limit`-input gates (free input
/// inversions), with **no** state-graph insertion — the Siegel/De
/// Micheli-style baseline the paper compares against ("only decomposes
/// existing gates … without any further search of the implementation
/// space", §1) and the structural artifact behind the `tech_decomp`
/// cost model. The result is generally *not* speed-independent; feeding
/// it to [`simap_netlist::verify_speed_independence`] reproduces the
/// paper's Siegel column.
pub fn build_decomposed_circuit(sg: &StateGraph, mc: &McImpl, fanin_limit: usize) -> Circuit {
    assert!(fanin_limit >= 2);
    let mut circuit = Circuit::new();
    let signal_nets: Vec<NetId> = sg
        .signals()
        .iter()
        .enumerate()
        .map(|(i, s)| circuit.add_net(s.name.clone(), Some(simap_sg::SignalId(i))))
        .collect();

    // Realizes a factored tree as a gate network; returns the output net
    // and the phase with which it should be consumed.
    fn realize(
        tree: &simap_boolean::Factored,
        circuit: &mut Circuit,
        signal_nets: &[NetId],
        fanin_limit: usize,
        name: &str,
        counter: &mut usize,
    ) -> (NetId, bool) {
        use simap_boolean::{Cube, Factored, Literal};
        match tree {
            Factored::Literal(l) => (signal_nets[l.var], l.phase),
            Factored::Const(_) => {
                let net = circuit.add_net(format!("{name}_const{counter}"), None);
                *counter += 1;
                let cover = if matches!(tree, Factored::Const(true)) {
                    simap_boolean::Cover::one()
                } else {
                    simap_boolean::Cover::zero()
                };
                circuit
                    .add_gate(Gate {
                        name: format!("{name}_const"),
                        func: GateFunc::Sop(cover),
                        fanin: vec![],
                        output: net,
                    })
                    .expect("fresh net");
                (net, true)
            }
            Factored::And(children) | Factored::Or(children) => {
                let is_and = matches!(tree, Factored::And(_));
                let mut inputs: Vec<(NetId, bool)> = children
                    .iter()
                    .map(|c| realize(c, circuit, signal_nets, fanin_limit, name, counter))
                    .collect();
                // Chunk into a balanced tree of <=fanin_limit gates.
                while inputs.len() > 1 {
                    let mut next: Vec<(NetId, bool)> = Vec::new();
                    for chunk in inputs.chunks(fanin_limit) {
                        if chunk.len() == 1 {
                            next.push(chunk[0]);
                            continue;
                        }
                        let out = circuit.add_net(format!("{name}_n{counter}"), None);
                        *counter += 1;
                        let cover = if is_and {
                            simap_boolean::Cover::from_cube(
                                Cube::from_literals(
                                    chunk
                                        .iter()
                                        .enumerate()
                                        .map(|(k, &(_, phase))| Literal::new(k, phase)),
                                )
                                .expect("local vars distinct"),
                            )
                        } else {
                            simap_boolean::Cover::from_cubes(chunk.iter().enumerate().map(
                                |(k, &(_, phase))| {
                                    Cube::from_literals([Literal::new(k, phase)])
                                        .expect("single literal")
                                },
                            ))
                        };
                        circuit
                            .add_gate(Gate {
                                name: format!("{name}_g{counter}"),
                                func: GateFunc::Sop(cover),
                                fanin: chunk.iter().map(|&(n, _)| n).collect(),
                                output: out,
                            })
                            .expect("fresh net");
                        next.push((out, true));
                    }
                    inputs = next;
                }
                inputs[0]
            }
        }
    }

    let mut counter = 0usize;
    let emit = |cover: &simap_boolean::Cover,
                out: NetId,
                name: &str,
                circuit: &mut Circuit,
                counter: &mut usize| {
        let tree = simap_boolean::good_factor(cover);
        let (net, phase) = realize(&tree, circuit, &signal_nets, fanin_limit, name, counter);
        // Tie the realized net to the requested output with a buffer or
        // inverter (phase false).
        let cover = simap_boolean::Cover::from_cube(
            simap_boolean::Cube::from_literals([simap_boolean::Literal::new(0, phase)])
                .expect("single literal"),
        );
        circuit
            .add_gate(Gate {
                name: format!("{name}_out"),
                func: GateFunc::Sop(cover),
                fanin: vec![net],
                output: out,
            })
            .expect("fresh net");
    };

    for simpl in &mc.signals {
        let sig_name = sg.signals()[simpl.signal.0].name.clone();
        let out_net = signal_nets[simpl.signal.0];
        match &simpl.body {
            SignalBody::Combinational { cover, .. } => {
                emit(cover, out_net, &sig_name, &mut circuit, &mut counter);
            }
            SignalBody::StandardC { set, reset } => {
                let side = |covers: &[crate::mc::RegionCover],
                            label: &str,
                            circuit: &mut Circuit,
                            counter: &mut usize|
                 -> NetId {
                    let nets: Vec<NetId> = covers
                        .iter()
                        .enumerate()
                        .map(|(j, rc)| {
                            let n = circuit.add_net(format!("{sig_name}_{label}{j}"), None);
                            emit(&rc.cover, n, &format!("{sig_name}_{label}{j}"), circuit, counter);
                            n
                        })
                        .collect();
                    if nets.len() == 1 {
                        nets[0]
                    } else {
                        let or_net = circuit.add_net(format!("{sig_name}_{label}"), None);
                        let or_cover = simap_boolean::Cover::from_cubes((0..nets.len()).map(|k| {
                            simap_boolean::Cube::from_literals([simap_boolean::Literal::pos(k)])
                                .expect("single literal")
                        }));
                        circuit
                            .add_gate(Gate {
                                name: format!("{sig_name}_{label}_or"),
                                func: GateFunc::Sop(or_cover),
                                fanin: nets,
                                output: or_net,
                            })
                            .expect("fresh net");
                        or_net
                    }
                };
                let set_net = side(set, "set", &mut circuit, &mut counter);
                let reset_net = side(reset, "reset", &mut circuit, &mut counter);
                circuit
                    .add_gate(Gate {
                        name: format!("{sig_name}_c"),
                        func: GateFunc::CElement,
                        fanin: vec![set_net, reset_net],
                        output: out_net,
                    })
                    .expect("fresh net");
            }
        }
    }
    circuit
}

/// SI cost of an implementation in the §4 model: cover-gate literals (each
/// gate counted at its `min(F, F̄)` complexity) plus the pins of the OR
/// trees joining multi-region covers (decomposed to `fanin_limit`), plus
/// one C element per state-holding signal.
pub fn si_cost(mc: &McImpl, fanin_limit: usize) -> Cost {
    let mut literals = 0usize;
    let mut c_elements = 0usize;
    for s in &mc.signals {
        match &s.body {
            SignalBody::Combinational { complexity, .. } => literals += *complexity,
            SignalBody::StandardC { set, reset } => {
                c_elements += 1;
                for side in [set, reset] {
                    for rc in side {
                        literals += rc.complexity;
                    }
                    if side.len() > 1 {
                        literals += or_tree_pins(side.len(), fanin_limit);
                    }
                }
            }
        }
    }
    Cost { literals, c_elements }
}

/// Non-SI cost: every cover factored and decomposed to `fanin_limit`-input
/// gates with no hazard analysis (the SIS `tech_decomp` baseline).
pub fn non_si_cost(mc: &McImpl, fanin_limit: usize) -> Cost {
    let mut literals = 0usize;
    let mut c_elements = 0usize;
    for s in &mc.signals {
        match &s.body {
            SignalBody::Combinational { cover, .. } => {
                literals += tech_decomp_literals(cover, fanin_limit);
            }
            SignalBody::StandardC { set, reset } => {
                c_elements += 1;
                for side in [set, reset] {
                    for rc in side {
                        literals += tech_decomp_literals(&rc.cover, fanin_limit);
                    }
                    if side.len() > 1 {
                        literals += or_tree_pins(side.len(), fanin_limit);
                    }
                }
            }
        }
    }
    Cost { literals, c_elements }
}

fn or_tree_pins(k: usize, fanin_limit: usize) -> usize {
    if k <= 1 {
        k
    } else {
        k + (k - 1).div_ceil(fanin_limit.max(2) - 1) - 1
    }
}

/// Report of a full technology-mapping run on one specification.
#[derive(Debug, Clone)]
pub struct FlowReport {
    /// Specification name.
    pub name: String,
    /// Gate-complexity histogram of the initial MC implementation
    /// (`hist[n]` = gates with n literals).
    pub initial_histogram: Vec<usize>,
    /// Number of signals inserted, or `None` when not implementable at the
    /// limit (the paper's "n.i.").
    pub inserted: Option<usize>,
    /// Names of the inserted signals.
    pub inserted_names: Vec<String>,
    /// SI decomposition cost (only meaningful when implementable).
    pub si_cost: Cost,
    /// Non-SI `tech_decomp` baseline cost of the *initial* implementation.
    pub non_si_cost: Cost,
    /// Speed-independence verification verdict of the final circuit:
    /// `Some(true)` verified, `Some(false)` refuted, `None` skipped or
    /// inconclusive.
    pub verified: Option<bool>,
    /// Exploration counters of the STG→state-graph reachability run that
    /// elaborated the specification. `None` when the flow started from an
    /// already-elaborated state graph.
    pub reach: Option<simap_stg::ReachStats>,
    /// The decomposition outcome (final SG, covers, steps).
    pub outcome: DecomposeResult,
}

/// Internal signals of a state graph (the inserted ones plus any the spec
/// already had).
pub fn internal_signal_names(sg: &StateGraph) -> Vec<String> {
    sg.signals().iter().filter(|s| s.kind == SignalKind::Internal).map(|s| s.name.clone()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Synthesis;
    use simap_netlist::{verify_speed_independence, VerifyConfig};
    use simap_sg::{check_all, Event, Signal, SignalId, StateGraphBuilder};

    fn handshake_sg() -> StateGraph {
        let mut bd = StateGraphBuilder::new(
            "hs",
            vec![Signal::new("a", SignalKind::Input), Signal::new("b", SignalKind::Output)],
        )
        .unwrap();
        let s = [bd.add_state(0b00), bd.add_state(0b01), bd.add_state(0b11), bd.add_state(0b10)];
        bd.add_arc(s[0], Event::rise(SignalId(0)), s[1]);
        bd.add_arc(s[1], Event::rise(SignalId(1)), s[2]);
        bd.add_arc(s[2], Event::fall(SignalId(0)), s[3]);
        bd.add_arc(s[3], Event::fall(SignalId(1)), s[0]);
        bd.build(s[0]).unwrap()
    }

    fn celement_sg(k: usize) -> StateGraph {
        let mut bd = StateGraphBuilder::new(
            format!("c{k}"),
            (0..k)
                .map(|i| Signal::new(format!("a{i}"), SignalKind::Input))
                .chain(std::iter::once(Signal::new("c", SignalKind::Output)))
                .collect(),
        )
        .unwrap();
        let cbit = 1u64 << k;
        let full = (1u64 << k) - 1;
        let mut rising = std::collections::HashMap::new();
        let mut falling = std::collections::HashMap::new();
        for sub in 0..=full {
            rising.insert(sub, bd.add_state(sub));
            falling.insert(sub, bd.add_state(sub | cbit));
        }
        for sub in 0..=full {
            for i in 0..k {
                let bit = 1u64 << i;
                if sub & bit == 0 {
                    bd.add_arc(rising[&sub], Event::rise(SignalId(i)), rising[&(sub | bit)]);
                } else {
                    bd.add_arc(falling[&sub], Event::fall(SignalId(i)), falling[&(sub & !bit)]);
                }
            }
        }
        bd.add_arc(rising[&full], Event::rise(SignalId(k)), falling[&full]);
        bd.add_arc(falling[&0], Event::fall(SignalId(k)), rising[&0]);
        bd.build(rising[&0]).unwrap()
    }

    fn run(sg: &StateGraph) -> FlowReport {
        Synthesis::from_state_graph(sg.clone()).run().unwrap()
    }

    #[test]
    fn handshake_flow_verifies() {
        let sg = handshake_sg();
        let report = run(&sg);
        assert_eq!(report.inserted, Some(0));
        assert_eq!(report.verified, Some(true));
        assert!(report.si_cost.literals >= 1);
    }

    #[test]
    fn celement2_standard_c_verifies() {
        let sg = celement_sg(2);
        let report = run(&sg);
        assert_eq!(report.inserted, Some(0));
        assert_eq!(report.verified, Some(true), "standard-C C element must be SI");
        assert_eq!(report.si_cost.c_elements, 1);
        assert_eq!(report.si_cost.literals, 4);
    }

    #[test]
    fn celement3_decomposed_and_verified() {
        let sg = celement_sg(3);
        let report = run(&sg);
        assert!(report.inserted.unwrap_or(0) >= 1);
        assert_eq!(report.verified, Some(true), "decomposed C3 must stay SI");
        assert!(check_all(&report.outcome.sg).is_ok());
        // The final spec has inserted internal signals.
        assert!(!internal_signal_names(&report.outcome.sg).is_empty());
    }

    #[test]
    fn verifier_state_cap_makes_the_verdict_inconclusive() {
        // The decomposed C3 circuit needs more than two composed states.
        let config = crate::Config::builder().verify_max_states(2).build().unwrap();
        let report = Synthesis::from_state_graph(celement_sg(3)).config(&config).run().unwrap();
        assert!(report.outcome.implementable);
        assert_eq!(report.verified, None);
    }

    #[test]
    fn non_si_baseline_costs_initial_impl() {
        let sg = celement_sg(6);
        let config = crate::Config::builder().verify(false).build().unwrap();
        let report = Synthesis::from_state_graph(sg).config(&config).run().unwrap();
        // Initial implementation: set = 6-lit AND, reset = 6-lit AND.
        // tech_decomp at 2: 10 + 10 literals + 1 C.
        assert_eq!(report.non_si_cost, Cost { literals: 20, c_elements: 1 });
        assert_eq!(report.initial_histogram.get(6), Some(&2));
    }

    #[test]
    fn circuit_structure_matches_architecture() {
        let sg = celement_sg(2);
        let mc = crate::mc::synthesize_mc(&sg).unwrap();
        let circuit = build_circuit(&sg, &mc);
        // 2 cover gates + 1 C element; 3 signal nets + 2 cover nets.
        assert_eq!(circuit.gates().len(), 3);
        assert_eq!(circuit.c_element_count(), 1);
        assert_eq!(circuit.nets().len(), 5);
    }

    #[test]
    fn or_limit_splits_wide_joins() {
        // A 3-branch dispatcher whose output q is *held* until a separate
        // acknowledge: q+ has three excitation regions with distinct codes
        // (one cover each, joined by an OR3) and q is state-holding.
        let src = "\
.model orjoin
.inputs r1 r2 r3 s
.outputs q
.graph
p r1+ r2+ r3+
r1+ q+
q+ r1-
r1- s+
s+ q-
q- s-
s- p
r2+ q+/2
q+/2 r2-
r2- s+/2
s+/2 q-/2
q-/2 s-/2
s-/2 p
r3+ q+/3
q+/3 r3-
r3- s+/3
s+/3 q-/3
q-/3 s-/3
s-/3 p
.marking { p }
.end
";
        let stg = simap_stg::parse_g(src).expect("parses");
        let sg = simap_stg::elaborate(&stg).expect("elaborates");
        assert!(simap_sg::check_all(&sg).is_ok());
        let mc = crate::mc::synthesize_mc(&sg).expect("CSC holds");

        let wide = build_circuit(&sg, &mc);
        let narrow = build_circuit_with_or_limit(&sg, &mc, Some(2));
        let or_fanin = |c: &simap_netlist::Circuit| {
            c.gates()
                .iter()
                .filter(|g| g.name.contains("_or"))
                .map(|g| g.fanin.len())
                .max()
                .unwrap_or(0)
        };
        assert!(or_fanin(&wide) >= 3, "unsplit circuit has a wide OR");
        assert!(or_fanin(&narrow) <= 2, "split OR gates must be 2-input");
        // The split is free w.r.t. speed-independence (one-hot covers).
        for circuit in [&wide, &narrow] {
            verify_speed_independence(circuit, &sg, &VerifyConfig::default())
                .expect("both forms are SI");
        }
        assert!(narrow.logic_depth() >= wide.logic_depth());
    }

    #[test]
    fn or_tree_pin_math() {
        assert_eq!(or_tree_pins(1, 2), 1);
        assert_eq!(or_tree_pins(2, 2), 2);
        assert_eq!(or_tree_pins(3, 2), 4); // OR2+OR2 = 4 pins
        assert_eq!(or_tree_pins(4, 4), 4);
    }
}
