//! The technology-mapping decomposition loop (§3).
//!
//! ```text
//! while circuit is not implementable do
//!     calculate monotonous covers for all events;
//!     a* = event with the most complex cover;
//!     D  = divisors of c(a*);                      (§3.1)
//!     for each f ∈ D: I-partition, progress check; (§3.2, §3.3)
//!     insert the best divisor's signal;            (Fig. 3)
//!     resynthesize the covers it affects;          (resynthesis)
//! ```
//!
//! There is one resynthesis per candidate, while it is evaluated, and it
//! covers only the signals the insertion can affect: the target, the new
//! signal and the owners of delayed events. Every other cover is kept
//! verbatim. It mentions neither the new signal nor a state whose region
//! classification moved, so it stays a valid monotonous cover of the new
//! graph. The commit takes the best candidate's graph and covers exactly
//! as evaluation built them. Recomputing the kept covers on the committed
//! graph never changed one, on the 32 embedded circuits at limits 2–4 and
//! on 840 `simap gen` specs. That is measured, not proven; the
//! commit-path test below checks that no kept cover costs more than a
//! fresh one.
//!
//! An insertion is committed only if the rebuilt state graph `A′` passes
//! all property checks and the resynthesized covers strictly reduce the
//! *excess* (sum over gates of `literals − limit`), which guarantees
//! termination. The winner is the minimum of `(excess, area, rank)` over
//! the candidates that pass both, and the two tests are ordered so that
//! most candidates pay for neither in full (branch and bound; Land and
//! Doig, *Econometrica* 28(3), 1960):
//!
//! 1. **Evaluate.** Each top-ranked candidate is inserted and its affected
//!    covers resynthesized, without the property check. Only its excess,
//!    area, rank and covers are kept; its graph is dropped.
//! 2. **Bound.** Excess is a sum of non-negative per-signal terms. The
//!    resynthesis adds them up as it goes, kept covers first, then the
//!    target, the delayed-exit owners and the new signal last, and stops
//!    once the partial sum reaches the current excess: such a candidate
//!    could never be accepted.
//! 3. **Sort.** The survivors are ordered by `(excess, area, rank)`.
//! 4. **Lazy check.** The survivors are re-inserted (insertion is
//!    deterministic) and checked in that order, and the first one whose
//!    graph passes is committed.
//!
//! The order cannot change the winner. The bound rejects only candidates
//! whose full excess would also reach the current one. Every survivor
//! sorted ahead of the committed one failed the property check and would
//! have been rejected by it. A failing candidate is never committed. So
//! the first passing survivor is the minimum over all passing candidates.
//! There is usually one property check per commit instead of one per
//! candidate.

use crate::insertion::{compute_insertion, insert_signal, Insertion};
use crate::mc::{synthesize_mc, synthesize_signal_in, McError, McImpl, SignalImpl};
use crate::progress::estimate_progress;
use simap_boolean::{generate_divisors, Cover, DivisorConfig};
use simap_sg::{check_all, SignalId, SignalKind, StateGraph};

/// How transitions of inserted signals may be acknowledged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckMode {
    /// The paper's method: any cover may acknowledge the new signal
    /// (sharing + global acknowledgment, Fig. 4).
    Global,
    /// The Siegel/De Micheli-style baseline: the new signal may only be
    /// acknowledged by the covers of the signal being decomposed
    /// (fanout 1, local acknowledgment).
    Local,
}

/// Configuration of the decomposition loop.
#[derive(Debug, Clone)]
pub struct DecomposeConfig {
    /// Gate complexity target `i`: every cover must fit `i` literals.
    pub literal_limit: usize,
    /// Hard cap on inserted signals.
    pub max_insertions: usize,
    /// How many top-ranked candidates are actually tried per iteration.
    pub max_candidates_tried: usize,
    /// Divisor-generation tuning.
    pub divisors: DivisorConfig,
    /// Acknowledgment policy.
    pub ack_mode: AckMode,
    /// Whether the Property 3.1/3.2 filter ranks candidates (ablation
    /// hook; with `false`, candidates are tried in generation order).
    pub use_progress_filter: bool,
    /// Whether each algebraic divisor is also tried in its boolean
    /// "C-element-ified" refinement `f ∨ (a*·⋁lits(f))` (§3.2/§5's
    /// refinement step; ablation hook — without it, wide C-element covers
    /// are typically not 2-input implementable).
    pub use_boolean_refinement: bool,
}

impl DecomposeConfig {
    /// Default configuration for a literal limit.
    pub fn with_limit(literal_limit: usize) -> Self {
        DecomposeConfig {
            literal_limit,
            max_insertions: 64,
            max_candidates_tried: 16,
            divisors: DivisorConfig::default(),
            ack_mode: AckMode::Global,
            use_progress_filter: true,
            use_boolean_refinement: true,
        }
    }
}

/// One committed decomposition step.
#[derive(Debug, Clone)]
pub struct DecomposeStep {
    /// Name given to the inserted signal.
    pub signal: String,
    /// The divisor function (rendered over the then-current signals).
    pub divisor: String,
    /// The event whose cover was being decomposed.
    pub target: String,
    /// Excess before → after.
    pub excess: (usize, usize),
}

/// Result of the decomposition loop.
#[derive(Debug, Clone)]
pub struct DecomposeResult {
    /// The final state graph (original plus inserted signals).
    pub sg: StateGraph,
    /// The final monotonous-cover implementation.
    pub mc: McImpl,
    /// Names of inserted signals, in insertion order.
    pub inserted: Vec<String>,
    /// Whether every gate now fits the literal limit.
    pub implementable: bool,
    /// The committed steps, for reporting.
    pub steps: Vec<DecomposeStep>,
}

/// Total amount by which gates exceed the literal limit.
pub fn excess(mc: &McImpl, limit: usize) -> usize {
    mc.signals.iter().map(|s| signal_excess(s, limit)).sum()
}

/// Amount by which one signal's gates exceed the literal limit.
fn signal_excess(s: &SignalImpl, limit: usize) -> usize {
    s.gates().map(|(_, _, c)| c.saturating_sub(limit)).sum()
}

/// Runs the decomposition loop on a specification.
///
/// # Errors
/// Returns [`McError`] when the input specification violates CSC (no
/// implementation exists at all). A specification that *has* covers but
/// cannot be decomposed to the limit is reported via
/// `DecomposeResult::implementable == false` (the paper's "n.i.").
pub fn decompose(sg: &StateGraph, config: &DecomposeConfig) -> Result<DecomposeResult, McError> {
    let mc = synthesize_mc(sg)?;
    Ok(decompose_from(sg.clone(), mc, config, &mut |_| {}))
}

/// The decomposition loop from `mc`, an implementation of `initial` that
/// the caller has already synthesized (the Covers stage holds one). It
/// cannot fail: a candidate whose resynthesis fails is rejected, and the
/// commit synthesizes nothing. `on_step` sees each committed step as the
/// loop commits it.
pub(crate) fn decompose_from(
    initial: StateGraph,
    mc: McImpl,
    config: &DecomposeConfig,
    on_step: &mut dyn FnMut(&DecomposeStep),
) -> DecomposeResult {
    decompose_loop(initial, mc, config, on_step, select)
}

/// Picks the candidate a round commits among its top-ranked candidates.
type Select = fn(&Round<'_>, &[(i64, Cover, Insertion)]) -> Option<Chosen>;

/// The loop itself, with the candidate choice `select` ([`select`] in
/// production; the tests also run it with the eager reference selection).
fn decompose_loop(
    initial: StateGraph,
    mut mc: McImpl,
    config: &DecomposeConfig,
    on_step: &mut dyn FnMut(&DecomposeStep),
    select: Select,
) -> DecomposeResult {
    // The graph after the last committed insertion; `initial` until then.
    let mut current: Option<StateGraph> = None;
    let mut inserted: Vec<String> = Vec::new();
    let mut steps: Vec<DecomposeStep> = Vec::new();

    let implementable = 'insertions: loop {
        let sg = current.as_ref().unwrap_or(&initial);
        let over = mc.gates_over(config.literal_limit);
        if over.is_empty() || inserted.len() >= config.max_insertions {
            break over.is_empty();
        }

        let excess_now = excess(&mc, config.literal_limit);

        // Try the most complex cover first, then the others (§3: "other
        // events different from a* can also be selected").
        for (target_signal, target_event, target_cover, _) in &over {
            // Generate and rank candidate divisors. Each algebraic divisor
            // f is tried both as-is and in its "C-element-ified" boolean
            // refinement f ∨ (a*·⋁lits(f)) — the new signal then holds its
            // value through the target's active phase, so its complement is
            // usable by the opposite cover (the paper's §3.2/§5 refinement
            // that yields sequential decompositions such as C-element
            // trees).
            let divisors = generate_divisors(target_cover, &config.divisors);
            let mut ranked: Vec<(i64, Cover, Insertion)> = Vec::new();
            let mut seen_partitions: Vec<Cover> = Vec::new();
            for base in divisors {
                let refined = if config.use_boolean_refinement {
                    c_elementify(&base, *target_signal, target_event.rising)
                } else {
                    None
                };
                let variants = [Some(base.clone()), refined];
                for partition in variants.into_iter().flatten() {
                    if seen_partitions.contains(&partition) {
                        continue;
                    }
                    seen_partitions.push(partition.clone());
                    let Ok(ins) = compute_insertion(sg, &partition) else { continue };
                    let score = if config.use_progress_filter {
                        let est = estimate_progress(sg, target_cover, &base, &ins);
                        if !est.makes_progress() {
                            continue;
                        }
                        est.score()
                    } else {
                        0
                    };
                    ranked.push((score, partition, ins));
                }
            }
            ranked.sort_by_key(|(score, f, _)| (std::cmp::Reverse(*score), f.literal_count()));
            ranked.truncate(config.max_candidates_tried);

            let name = format!("x{}", inserted.len());
            let round =
                Round { sg, mc: &mc, target: *target_signal, name: &name, excess_now, config };
            if let Some(chosen) = select(&round, &ranked) {
                // Commit the chosen candidate exactly as it was evaluated:
                // its graph and its covers, the affected ones resynthesized
                // on that graph and the others kept verbatim.
                let f = &ranked[chosen.rank].1;
                let step = DecomposeStep {
                    signal: name.clone(),
                    divisor: format!("{}", f.display_with(|v| sg.signals()[v].name.clone())),
                    target: sg.event_name(*target_event),
                    excess: (excess_now, chosen.excess),
                };
                on_step(&step);
                steps.push(step);
                current = Some(chosen.sg);
                mc = chosen.mc;
                inserted.push(name);
                continue 'insertions;
            }
        }

        // No target has a candidate that reduces the excess.
        break false;
    };
    let sg = current.unwrap_or(initial);
    DecomposeResult { sg, mc, inserted, implementable, steps }
}

/// One round of the loop: one target, the graph and covers it starts from.
struct Round<'a> {
    sg: &'a StateGraph,
    mc: &'a McImpl,
    target: SignalId,
    /// Name of the signal the round inserts.
    name: &'a str,
    /// Excess of `mc`; a candidate must end strictly below it.
    excess_now: usize,
    config: &'a DecomposeConfig,
}

/// The candidate a round commits.
struct Chosen {
    /// Its index in the ranked candidate list.
    rank: usize,
    /// Its excess after resynthesis.
    excess: usize,
    /// The graph with its signal inserted.
    sg: StateGraph,
    /// The covers its resynthesis built on `sg`.
    mc: McImpl,
}

impl Round<'_> {
    /// The round's graph with the candidate's signal inserted (Fig. 3).
    /// Deterministic: the same insertion always builds the same graph.
    fn insert(&self, ins: &Insertion) -> Option<StateGraph> {
        insert_signal(self.sg, ins, self.name, SignalKind::Internal).ok()
    }

    /// Resynthesizes the covers `candidate_sg` affects and returns
    /// `(excess, area, covers)`. `None` when the excess reaches `bound`,
    /// a resynthesis fails, or, under [`AckMode::Local`], another signal's
    /// cover acknowledges the new one.
    fn cost(&self, candidate_sg: &StateGraph, bound: usize) -> Option<(usize, usize, McImpl)> {
        let limit = self.config.literal_limit;
        let (mc, excess) = resynthesize_affected(candidate_sg, self.mc, self.target, limit, bound)?;
        if self.config.ack_mode == AckMode::Local {
            let x = SignalId(candidate_sg.signal_count() - 1);
            if !locally_acknowledged(&mc, self.target, x) {
                return None;
            }
        }
        let area = crate::flow::si_cost(&mc, limit.max(2)).area();
        Some((excess, area, mc))
    }
}

/// Picks the candidate to commit: the minimum of `(excess, area, rank)`
/// over the candidates whose graph passes every property check and whose
/// covers strictly lower the excess, by the evaluate, bound, sort and
/// lazy-check steps of the module doc. A survivor keeps its covers but
/// not its graph, which is rebuilt for the check: keeping every
/// survivor's graph alive until then raised the peak memory of a Table 1
/// run by a quarter (7.3 to 9.1 MB). Resynthesis thus also runs on graphs
/// that fail the check; it then fails or builds covers that are dropped.
fn select(round: &Round<'_>, ranked: &[(i64, Cover, Insertion)]) -> Option<Chosen> {
    let mut survivors: Vec<(usize, usize, usize, McImpl)> = ranked
        .iter()
        .enumerate()
        .filter_map(|(rank, (_, _, ins))| {
            let candidate_sg = round.insert(ins)?;
            let (excess, area, mc) = round.cost(&candidate_sg, round.excess_now)?;
            Some((excess, area, rank, mc))
        })
        .collect();
    survivors.sort_unstable_by_key(|&(excess, area, rank, _)| (excess, area, rank));
    survivors.into_iter().find_map(|(excess, _, rank, mc)| {
        let sg = round.insert(&ranked[rank].2).expect("the insertion succeeded when evaluated");
        check_all(&sg).is_ok().then_some(Chosen { rank, excess, sg, mc })
    })
}

/// Rebuilds an implementation for `candidate_sg` (which is `mc`'s graph
/// plus one inserted signal) by resynthesizing only the signals the
/// insertion can affect: the decomposition target, the new signal itself,
/// and every signal owning an event delayed by the grown excitation
/// regions (those events gain `x` as trigger and their covers change
/// category). All other covers mention neither `x` nor any state whose
/// region classification moved, so they stay valid verbatim. This is the
/// loop's only resynthesis: a committed candidate keeps these covers.
///
/// Returns the covers with their excess at `limit`, or `None` when a
/// resynthesis fails or the excess reaches `bound`. Excess is a sum of
/// non-negative gate terms, so the sum is taken in the order that stops
/// soonest: the kept covers (free), the target, the delayed-exit owners
/// and `x` last, and the rest is skipped once the partial sum reaches
/// `bound`.
fn resynthesize_affected(
    candidate_sg: &StateGraph,
    mc: &McImpl,
    target: SignalId,
    limit: usize,
    bound: usize,
) -> Option<(McImpl, usize)> {
    let x = SignalId(candidate_sg.signal_count() - 1);
    let mut affected = vec![false; candidate_sg.signal_count()];
    affected[target.0] = true;
    affected[x.0] = true;
    // Exact delayed-exit set: an event is delayed at a split state when it
    // is enabled after x fires but not before. Those events gain x as a
    // trigger — their owners must be resynthesized.
    for s in candidate_sg.states() {
        for ev in [simap_sg::Event::rise(x), simap_sg::Event::fall(x)] {
            if let Some(after) = candidate_sg.fire(s, ev) {
                for &(e, _) in candidate_sg.succ(after) {
                    if e.signal != x && !candidate_sg.enabled(s, e) {
                        affected[e.signal.0] = true;
                    }
                }
            }
        }
    }

    let signals = candidate_sg.implementable_signals();
    let kept = |signal: SignalId| {
        mc.signal_impl(signal).expect("unaffected signal existed before the insertion")
    };
    let mut total: usize =
        signals.iter().filter(|s| !affected[s.0]).map(|&s| signal_excess(kept(s), limit)).sum();
    let owners = signals.iter().copied().filter(|&s| affected[s.0] && s != target && s != x);
    let universe = candidate_sg.reachable_codes();
    let mut fresh: Vec<Option<SignalImpl>> = vec![None; candidate_sg.signal_count()];
    for signal in std::iter::once(target).chain(owners).chain(std::iter::once(x)) {
        if total >= bound {
            return None;
        }
        let synthesized = synthesize_signal_in(candidate_sg, &universe, signal).ok()?;
        total += signal_excess(&synthesized, limit);
        fresh[signal.0] = Some(synthesized);
    }
    if total >= bound {
        return None;
    }
    let signals = signals
        .into_iter()
        .map(|signal| fresh[signal.0].take().unwrap_or_else(|| kept(signal).clone()))
        .collect();
    Some((McImpl { signals }, total))
}

/// The boolean refinement of a divisor against its target: the bipartition
/// `f ∨ (a*·(l1 ∨ … ∨ lk))` over the literals of `f`, where `a*` is the
/// target literal (`a` when decomposing the set side, `ā` for the reset
/// side). The inserted signal rises with `f` and keeps its value until
/// *all* of `f`'s literals have withdrawn inside the target's active
/// phase — a C-element-like behaviour whose set *and* reset covers are
/// small and whose complement serves the opposite network.
fn c_elementify(f: &Cover, target: SignalId, target_rising: bool) -> Option<Cover> {
    use simap_boolean::{Cube, Literal};
    if f.support().contains(&target.0) {
        return None; // the target literal is already part of f
    }
    let mut any_literal = Cover::zero();
    for cube in f.cubes() {
        for lit in cube.literals() {
            any_literal.push(Cube::from_literals([lit]).expect("single literal"));
        }
    }
    any_literal.make_minimal_wrt_containment();
    let target_lit = Cover::literal(Literal::new(target.0, target_rising));
    Some(f.or(&target_lit.and(&any_literal)))
}

/// Local-acknowledgment constraint: the inserted signal `x` may appear
/// only in the covers of the target signal and of `x` itself.
fn locally_acknowledged(mc: &McImpl, target: SignalId, x: SignalId) -> bool {
    mc.signals
        .iter()
        .filter(|s| s.signal != target && s.signal != x)
        .flat_map(|s| s.gates())
        .all(|(_, cover, _)| !cover.support().contains(&x.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mc::synthesize_mc;
    use simap_sg::{Event, Signal, StateGraphBuilder};

    /// k-input C element spec as a state graph (inputs a0..ak-1, output c).
    fn celement_sg(k: usize) -> StateGraph {
        let mut bd = StateGraphBuilder::new(
            format!("c{k}"),
            (0..k)
                .map(|i| Signal::new(format!("a{i}"), SignalKind::Input))
                .chain(std::iter::once(Signal::new("c", SignalKind::Output)))
                .collect(),
        )
        .unwrap();
        // Rising phase: all subsets of inputs high, c = 0; falling phase
        // mirrored with c = 1.
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

    #[test]
    fn celement3_decomposes_to_two_input_gates() {
        let sg = celement_sg(3);
        assert!(check_all(&sg).is_ok());
        let result = decompose(&sg, &DecomposeConfig::with_limit(2)).unwrap();
        assert!(result.implementable, "steps: {:?}", result.steps);
        assert!(!result.inserted.is_empty(), "3-literal covers need insertion");
        assert!(result.mc.max_complexity() <= 2);
        // The decomposed spec still satisfies every SG property.
        assert!(check_all(&result.sg).is_ok());
    }

    #[test]
    fn already_simple_circuit_needs_nothing() {
        let sg = celement_sg(2);
        let result = decompose(&sg, &DecomposeConfig::with_limit(2)).unwrap();
        assert!(result.implementable);
        assert!(result.inserted.is_empty());
        assert!(result.steps.is_empty());
    }

    #[test]
    fn limit_three_easier_than_two() {
        let sg = celement_sg(4);
        let at3 = decompose(&sg, &DecomposeConfig::with_limit(3)).unwrap();
        let at2 = decompose(&sg, &DecomposeConfig::with_limit(2)).unwrap();
        assert!(at3.implementable);
        assert!(at2.implementable);
        assert!(at3.inserted.len() <= at2.inserted.len());
    }

    #[test]
    fn excess_metric() {
        let sg = celement_sg(3);
        let mc = synthesize_mc(&sg).unwrap();
        // Two 3-literal gates at limit 2: excess 2.
        assert_eq!(excess(&mc, 2), 2);
        assert_eq!(excess(&mc, 3), 0);
    }

    #[test]
    fn local_mode_still_handles_single_celement() {
        // The C-element tree lives entirely inside the target signal's
        // covers, so the signal-local policy suffices here.
        let sg = celement_sg(3);
        let mut config = DecomposeConfig::with_limit(2);
        config.ack_mode = AckMode::Local;
        let result = decompose(&sg, &config).unwrap();
        assert!(result.implementable);
        assert!(check_all(&result.sg).is_ok());
    }

    #[test]
    fn refinement_is_required_for_celements() {
        // Ablation C at unit level: pure algebraic divisors stall on the
        // §3.4 acknowledgment ping-pong.
        let sg = celement_sg(3);
        let mut config = DecomposeConfig::with_limit(2);
        config.use_boolean_refinement = false;
        let result = decompose(&sg, &config).unwrap();
        assert!(!result.implementable, "pure-AND divisors cannot finish at i=2");
    }

    #[test]
    fn max_insertions_caps_the_loop() {
        let sg = celement_sg(4);
        let mut config = DecomposeConfig::with_limit(2);
        config.max_insertions = 0;
        let result = decompose(&sg, &config).unwrap();
        assert!(!result.implementable);
        assert!(result.inserted.is_empty());
    }

    /// The commit keeps the covers of unaffected signals verbatim. The
    /// result must still validate on its own graph, and keeping a cover
    /// must never be costlier than recomputing it there: no signal may cost
    /// more than in a full resynthesis of the final graph. Its standard-C
    /// circuit must verify speed-independent, as the paper claims of all
    /// its implementations. The loop must also commit exactly what the
    /// eager reference selection commits: the same steps, signals and
    /// covers. Release builds check every embedded circuit at
    /// limits 2–4 and the first 240 nets of the `simap gen` corpus for
    /// seed 0; debug builds the circuits of at most 400 states at limits 2
    /// and 3.
    #[test]
    fn committed_covers_validate_and_beat_full_resynthesis() {
        let check = |name: &str, sg: &StateGraph, limit: usize| {
            let config = DecomposeConfig::with_limit(limit);
            let result =
                decompose(sg, &config).unwrap_or_else(|e| panic!("{name} at {limit}: {e}"));
            let mc = synthesize_mc(sg).expect("the input has CSC");
            let eager = decompose_loop(sg.clone(), mc, &config, &mut |_| {}, select_eager);
            assert_eq!(
                format!("{:?}", (&result.steps, &result.inserted, &result.mc)),
                format!("{:?}", (&eager.steps, &eager.inserted, &eager.mc)),
                "{name} at {limit}: the lazy selection differs from the eager one"
            );
            let complaints = crate::mc::validate_mc(&result.sg, &result.mc);
            assert!(complaints.is_empty(), "{name} at {limit}: {complaints:?}");
            let full = synthesize_mc(&result.sg).expect("the result keeps CSC");
            assert_eq!(full.signals.len(), result.mc.signals.len(), "{name} at {limit}");
            for (kept, fresh) in result.mc.signals.iter().zip(&full.signals) {
                assert_eq!(kept.signal, fresh.signal, "{name} at {limit}");
                assert!(
                    kept.cost() <= fresh.cost(),
                    "{name} at {limit}: {} costs {:?} > {:?}",
                    result.sg.signals()[kept.signal.0].name,
                    kept.cost(),
                    fresh.cost()
                );
            }
            let circuit = crate::flow::build_circuit(&result.sg, &result.mc);
            let config = simap_netlist::VerifyConfig::default();
            if let Err(e) = simap_netlist::verify_speed_independence(&circuit, &result.sg, &config)
            {
                panic!("{name} at {limit} does not verify: {e}");
            }
        };
        let release = !cfg!(debug_assertions);
        let limits: &[usize] = if release { &[2, 3, 4] } else { &[2, 3] };
        for &name in simap_stg::benchmark_names() {
            let stg = simap_stg::benchmark(name).expect("known benchmark");
            let sg = simap_stg::elaborate(&stg).expect("benchmark elaborates");
            if !release && sg.state_count() > 400 {
                continue;
            }
            for &limit in limits {
                check(name, &sg, limit);
            }
        }
        if release {
            for stg in simap_stg::patterns::corpus(0, 240) {
                let sg = simap_stg::elaborate(&stg).expect("corpus net elaborates");
                for &limit in limits {
                    check(stg.name(), &sg, limit);
                }
            }
        }
    }

    /// The eager reference selection: every candidate is inserted and
    /// checked with `check_all` before its resynthesis, which runs in full
    /// (no excess bound); the lowest `(excess, area)` among the candidates
    /// that strictly lower the excess wins, ties going to the earlier rank.
    fn select_eager(round: &Round<'_>, ranked: &[(i64, Cover, Insertion)]) -> Option<Chosen> {
        let mut best: Option<(usize, Chosen)> = None;
        for (rank, (_, _, ins)) in ranked.iter().enumerate() {
            let Some(sg) = round.insert(ins) else { continue };
            if !check_all(&sg).is_ok() {
                continue;
            }
            let Some((excess, area, mc)) = round.cost(&sg, usize::MAX) else { continue };
            if excess >= round.excess_now {
                continue;
            }
            if best.as_ref().is_none_or(|(a, c)| (excess, area) < (c.excess, *a)) {
                best = Some((area, Chosen { rank, excess, sg, mc }));
            }
        }
        best.map(|(_, chosen)| chosen)
    }

    /// The excess bound rejects exactly the candidates whose excess reaches
    /// it: one above a candidate's excess, the bounded resynthesis returns
    /// what the unbounded one does, and at that excess it returns nothing.
    #[test]
    fn excess_bound_rejects_exactly_at_the_bound() {
        let mut checked = 0;
        for k in [3, 4] {
            let sg = celement_sg(k);
            let mc = synthesize_mc(&sg).unwrap();
            let config = DecomposeConfig::with_limit(2);
            for (target, _, cover, _) in mc.gates_over(2) {
                let excess_now = excess(&mc, 2);
                let round =
                    Round { sg: &sg, mc: &mc, target, name: "x0", excess_now, config: &config };
                for f in generate_divisors(&cover, &config.divisors) {
                    let Ok(ins) = compute_insertion(&sg, &f) else { continue };
                    let Some(candidate_sg) = round.insert(&ins) else { continue };
                    let Some(full) = round.cost(&candidate_sg, usize::MAX) else { continue };
                    let e = full.0;
                    assert_eq!(e, excess(&full.2, 2));
                    let bounded = round.cost(&candidate_sg, e + 1);
                    assert_eq!(format!("{bounded:?}"), format!("{:?}", Some(full)));
                    assert!(round.cost(&candidate_sg, e).is_none());
                    checked += 1;
                }
            }
        }
        assert!(checked > 0);
    }

    /// With the property check lazy, resynthesis also runs on graphs that
    /// fail it. Editing one excitation region of a legal insertion into the
    /// paper's running example by one state (dropping a state, or adding
    /// one of its block) breaks output persistency in some of the graphs
    /// that still build. On each of them the resynthesis must return, and
    /// a selection that accepts any excess, so that the candidate survives
    /// to the lazy check, must not pick it.
    #[test]
    fn candidates_failing_the_property_check_are_never_selected() {
        let stg = simap_stg::benchmark("hazard").expect("known benchmark");
        let sg = simap_stg::elaborate(&stg).expect("benchmark elaborates");
        let mc = synthesize_mc(&sg).unwrap();
        let config = DecomposeConfig::with_limit(2);
        let (target, ..) = mc.gates_over(2)[0];
        let round =
            Round { sg: &sg, mc: &mc, target, name: "x0", excess_now: usize::MAX, config: &config };
        let n = sg.state_count();
        let (mut failing, mut survived) = (0, 0);
        for mask in 1..(1u32 << n) - 1 {
            let block = (0..n).filter(|i| mask >> i & 1 == 1).map(simap_sg::StateId);
            let s1 = simap_sg::StateSet::from_states(n, block);
            let Ok(ins) = crate::insertion::compute_insertion_from_block(&sg, s1) else { continue };
            let mut edits = Vec::new();
            for rising in [true, false] {
                for s in if rising { ins.s1.iter() } else { ins.s0.iter() } {
                    let mut edited = ins.clone();
                    let region = if rising { &mut edited.er_plus } else { &mut edited.er_minus };
                    if !region.remove(s) {
                        region.insert(s);
                    }
                    edits.push(edited);
                }
            }
            for edited in edits {
                let Some(candidate_sg) = round.insert(&edited) else { continue };
                if check_all(&candidate_sg).is_ok() {
                    continue;
                }
                failing += 1;
                if round.cost(&candidate_sg, usize::MAX).is_some() {
                    survived += 1;
                }
                let ranked = [(0, Cover::zero(), edited)];
                assert!(select(&round, &ranked).is_none());
                assert!(select_eager(&round, &ranked).is_none());
            }
        }
        assert!(survived > 0, "{failing} graphs fail check_all, none survives resynthesis");
    }

    #[test]
    fn steps_record_divisors() {
        let sg = celement_sg(3);
        let result = decompose(&sg, &DecomposeConfig::with_limit(2)).unwrap();
        assert_eq!(result.steps.len(), result.inserted.len());
        for step in &result.steps {
            assert!(step.excess.1 < step.excess.0);
            assert!(!step.divisor.is_empty());
        }
    }
}
