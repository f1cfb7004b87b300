//! Implementability properties of state graphs (§2.1): consistency,
//! determinism, commutativity, output persistency and Complete State
//! Coding.
//!
//! Every check is one linear pass over the states. Determinism,
//! commutativity and the persistency screen allocate nothing per state;
//! they rely on the arc order of [`StateGraph::succ`]: each slice is
//! sorted by `(Event, StateId)` and deduplicated.
//! * Determinism compares neighbouring arcs of a slice.
//! * Commutativity merges the slice of each successor with the state's
//!   own slice, both sorted by event, into one reused table of targets.
//! * Output persistency screens each state with two signal masks, the
//!   rising and the falling implementable events it enables. Only a state
//!   that fails the screen runs the exact loop, which names its violations
//!   in order; a persistent graph never runs it.
//!
//! The unit tests keep the straightforward bodies as oracles and compare
//! them, order included, on random violating graphs and on the embedded
//! circuits.

use crate::graph::{StateGraph, StateId};
use crate::signal::Event;
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

/// Checks determinism: at most one target per (state, event). Arcs with
/// the same event are adjacent in the sorted, deduplicated successor
/// slice, so every arc that shares its predecessor's event is a second
/// target of it.
pub fn check_determinism(sg: &StateGraph) -> Vec<PropertyViolation> {
    let mut out = Vec::new();
    for s in sg.states() {
        for w in sg.succ(s).windows(2) {
            if w[0].0 == w[1].0 {
                out.push(PropertyViolation::NonDeterministic { state: s, event: w[1].0 });
            }
        }
    }
    out
}

/// Checks commutativity: if `a` then `b` and `b` then `a` are both
/// executable from a state, they must reach the same state.
///
/// For a state with arcs `(e_0, t_0) .. (e_{d-1}, t_{d-1})` one reused
/// `d×d` table holds `fire(t_i, e_j)` at `(i, j)`. Row `i` is one merge of
/// `succ(t_i)` with `succ(s)`, both sorted by event; the merge keeps the
/// first arc of each event, as [`StateGraph::fire`] does.
pub fn check_commutativity(sg: &StateGraph) -> Vec<PropertyViolation> {
    let mut out = Vec::new();
    let mut table: Vec<Option<StateId>> = Vec::new();
    for s in sg.states() {
        let succ = sg.succ(s);
        let d = succ.len();
        if d < 2 {
            continue;
        }
        table.clear();
        for &(_, t) in succ {
            let next = sg.succ(t);
            let mut k = 0;
            for &(e, _) in succ {
                while k < next.len() && next[k].0 < e {
                    k += 1;
                }
                table.push(next.get(k).filter(|arc| arc.0 == e).map(|arc| arc.1));
            }
        }
        for (i, &(a, _)) in succ.iter().enumerate() {
            for (j, &(b, _)) in succ.iter().enumerate().skip(i + 1) {
                if a == b {
                    continue;
                }
                if let (Some(t1), Some(t2)) = (table[i * d + j], table[j * d + i]) {
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

/// The implementable events enabled at `s` as two signal masks: rising
/// and falling.
fn enabled_masks(sg: &StateGraph, implementable: u64, s: StateId) -> (u64, u64) {
    let (mut rising, mut falling) = (0u64, 0u64);
    for &(e, _) in sg.succ(s) {
        let bit = (1u64 << e.signal.0) & implementable;
        if e.rising {
            rising |= bit;
        } else {
            falling |= bit;
        }
    }
    (rising, falling)
}

/// Checks output persistency: an enabled non-input event stays enabled
/// after any *other* event fires (one-step check suffices by induction).
///
/// Each state is first screened with its `enabled_masks`: it is
/// persistent iff every arc `(other, t)` keeps the enabled implementable
/// events of the other signals enabled at `t`. Only the states that fail
/// the screen run the exact loop, which names each violation in order.
pub fn check_output_persistency(sg: &StateGraph) -> Vec<PropertyViolation> {
    let implementable = sg.implementable_signals().iter().fold(0u64, |m, a| m | (1 << a.0));
    let mut out = Vec::new();
    for s in sg.states() {
        let (rising, falling) = enabled_masks(sg, implementable, s);
        if rising | falling == 0 {
            continue;
        }
        let persistent = sg.succ(s).iter().all(|&(other, t)| {
            let keep = !(1u64 << other.signal.0);
            let (rising_t, falling_t) = enabled_masks(sg, implementable, t);
            rising & keep & !rising_t == 0 && falling & keep & !falling_t == 0
        });
        if !persistent {
            persistency_violations_at(sg, s, &mut out);
        }
    }
    out
}

/// The exact persistency loop at one state: every enabled non-input event
/// (in event order) against every arc of another signal.
fn persistency_violations_at(sg: &StateGraph, s: StateId, out: &mut Vec<PropertyViolation>) {
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
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;
    use std::collections::HashMap;

    /// Oracle of [`check_determinism`]: a map from event to first target
    /// per state.
    fn check_determinism_oracle(sg: &StateGraph) -> Vec<PropertyViolation> {
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

    /// Oracle of [`check_commutativity`]: two [`StateGraph::fire`] scans
    /// per pair of arcs.
    fn check_commutativity_oracle(sg: &StateGraph) -> Vec<PropertyViolation> {
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

    /// Oracle of [`check_output_persistency`]: the exact loop at every
    /// state, with no screen.
    fn check_output_persistency_oracle(sg: &StateGraph) -> Vec<PropertyViolation> {
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

    /// Asserts that every rewritten check, and [`check_all`], returns the
    /// oracle's violations in the oracle's order.
    fn assert_matches_oracles(sg: &StateGraph) {
        let name = sg.name();
        let determinism = check_determinism_oracle(sg);
        let commutativity = check_commutativity_oracle(sg);
        let persistency = check_output_persistency_oracle(sg);
        assert_eq!(check_determinism(sg), determinism, "{name}: determinism");
        assert_eq!(check_commutativity(sg), commutativity, "{name}: commutativity");
        assert_eq!(check_output_persistency(sg), persistency, "{name}: persistency");
        let mut all = check_consistency(sg);
        all.extend(determinism);
        all.extend(commutativity);
        all.extend(persistency);
        all.extend(check_csc(sg));
        all.extend(check_reachability(sg));
        assert_eq!(check_all(sg).violations, all, "{name}: check_all");
    }

    /// A small random graph rich in violations. It starts from a partial
    /// hypercube of consistent arcs over 1-4 signals of random kinds,
    /// which leaves outputs disabled, adds states that repeat a code, and
    /// then random arcs: inconsistent ones, second targets of an event,
    /// diamonds that do not reconverge, often several at one state.
    fn random_graph(seed: u64) -> StateGraph {
        let mut rng = TestRng::for_case("random_graph", seed);
        let nsig = rng.in_range(1, 5) as usize;
        let kinds = [SignalKind::Input, SignalKind::Output, SignalKind::Internal];
        let signals = (0..nsig)
            .map(|i| Signal::new(format!("x{i}"), kinds[rng.in_range(0, 3) as usize]))
            .collect();
        let mut b = StateGraphBuilder::new(format!("random{seed}"), signals).unwrap();
        let cube = 1u64 << nsig;
        let mut codes: Vec<u64> = (0..cube).collect();
        codes.extend((0..rng.in_range(0, 4)).map(|_| rng.in_range(0, cube)));
        b.add_states(codes.iter().copied());
        let n = codes.len() as u64;
        let keep = rng.in_range(2, 5);
        for (s, &code) in codes.iter().enumerate() {
            for i in 0..nsig {
                if rng.in_range(0, 4) < keep {
                    let event = Event { signal: SignalId(i), rising: code >> i & 1 == 0 };
                    b.add_arc(StateId(s), event, StateId((code ^ 1 << i) as usize));
                }
            }
        }
        for _ in 0..rng.in_range(0, 2 * n) {
            let src = StateId(rng.in_range(0, n) as usize);
            let event = Event {
                signal: SignalId(rng.in_range(0, nsig as u64) as usize),
                rising: rng.in_range(0, 2) == 0,
            };
            b.add_arc(src, event, StateId(rng.in_range(0, n) as usize));
        }
        b.build(StateId(0)).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The linear checks equal their oracles, order included, on
        /// small graphs full of violations.
        #[test]
        fn linear_checks_match_oracles_on_random_graphs(seed in 0u64..u64::MAX) {
            assert_matches_oracles(&random_graph(seed));
        }
    }

    /// The random graphs hold every kind of violation the rewritten
    /// checks report, clean states and states with several violations,
    /// so the property above exercises every branch.
    #[test]
    fn random_graphs_hold_every_violation_kind() {
        let (mut nd, mut nc, mut np, mut clean, mut crowded) = (0, 0, 0, 0, 0);
        for seed in 0..512 {
            let g = random_graph(seed);
            let d = check_determinism(&g).len();
            let c = check_commutativity(&g).len();
            let p = check_output_persistency(&g);
            (nd, nc, np) = (nd + d, nc + c, np + p.len());
            clean += usize::from(d + c + p.len() == 0);
            crowded += usize::from(p.windows(2).any(|w| match (&w[0], &w[1]) {
                (
                    PropertyViolation::NonPersistent { state: a, .. },
                    PropertyViolation::NonPersistent { state: b, .. },
                ) => a == b,
                _ => false,
            }));
        }
        assert!(nd > 0 && nc > 0 && np > 0, "{nd} {nc} {np}");
        assert!(clean > 0 && crowded > 0, "{clean} {crowded}");
    }

    /// Rebuilds a graph elaborated by `simap_stg` in this crate's types
    /// (`simap_stg` links the library build of this crate, a distinct
    /// crate from this test build). With `all_outputs`, every signal
    /// becomes an output, which turns input choices into persistency
    /// violations.
    fn elaborated(net: &simap_stg::Stg, all_outputs: bool) -> StateGraph {
        let g = simap_stg::elaborate(net).unwrap_or_else(|e| panic!("{}: {e}", net.name()));
        let signals = g
            .signals()
            .iter()
            .map(|s| {
                let kind = match format!("{:?}", s.kind).as_str() {
                    _ if all_outputs => SignalKind::Output,
                    "Input" => SignalKind::Input,
                    "Output" => SignalKind::Output,
                    _ => SignalKind::Internal,
                };
                Signal::new(s.name.clone(), kind)
            })
            .collect();
        let name = format!("{}{}", g.name(), if all_outputs { "/outputs" } else { "" });
        let mut b = StateGraphBuilder::with_capacity(name, signals, g.state_count(), g.arc_count())
            .unwrap();
        b.add_states(g.states().map(|s| g.code(s)));
        for s in g.states() {
            for &(e, t) in g.succ(s) {
                let event = Event { signal: SignalId(e.signal.0), rising: e.rising };
                b.add_arc(StateId(s.0), event, StateId(t.0));
            }
        }
        b.build(StateId(g.initial().0)).unwrap()
    }

    /// The linear checks equal their oracles on every embedded circuit,
    /// the `simap gen --seed 0` corpus and a 65,536-state product, each
    /// also with every signal made an output. Debug builds skip the
    /// graphs over 400 states.
    #[test]
    fn linear_checks_match_oracles_on_benchmarks_and_corpus() {
        let mut nets: Vec<simap_stg::Stg> = simap_stg::benchmark_names()
            .iter()
            .map(|name| simap_stg::benchmark(name).expect("known benchmark"))
            .collect();
        nets.extend(simap_stg::patterns::corpus(0, 240));
        let sequencers = vec![simap_stg::patterns::sequencer(2, None); 8];
        nets.push(simap_stg::patterns::parallel("grid8", &sequencers));
        let mut checked = 0;
        for net in &nets {
            for all_outputs in [false, true] {
                let g = elaborated(net, all_outputs);
                if cfg!(debug_assertions) && g.state_count() > 400 {
                    continue;
                }
                assert_matches_oracles(&g);
                checked += 1;
            }
        }
        assert!(checked >= 2 * 240);
    }

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
