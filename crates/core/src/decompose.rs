//! The technology-mapping decomposition loop (§3).
//!
//! ```text
//! while circuit is not implementable do
//!     calculate monotonous covers for all events;
//!     a* = event with the most complex cover;
//!     D  = divisors of c(a*);                      (§3.1)
//!     for each f ∈ D: I-partition, progress check; (§3.2, §3.3)
//!     insert the best divisor's signal;            (Fig. 3)
//!     resynthesize every cover;                    (resynthesis)
//! ```
//!
//! Evaluating a candidate resynthesizes only the signals its insertion can
//! affect. Committing it resynthesizes the others and reuses the affected
//! signals' covers, which evaluation already built for the same graph,
//! instead of recomputing every cover from scratch.
//!
//! Every accepted insertion is committed only after the rebuilt state
//! graph `A′` passes all property checks and the resynthesized covers
//! strictly reduce the *excess* (sum over gates of `literals − limit`),
//! which guarantees termination.

use crate::insertion::{compute_insertion, insert_signal, Insertion};
use crate::mc::{synthesize_mc, synthesize_signal_in, McError, McImpl, SignalBody};
use crate::observer::{FlowObserver, NullObserver};
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
    let mut total = 0;
    for s in &mc.signals {
        match &s.body {
            SignalBody::Combinational { complexity, .. } => {
                total += complexity.saturating_sub(limit);
            }
            SignalBody::StandardC { set, reset } => {
                for c in set.iter().chain(reset.iter()) {
                    total += c.complexity.saturating_sub(limit);
                }
            }
        }
    }
    total
}

/// Runs the decomposition loop on a specification.
///
/// # Errors
/// Returns [`McError`] when the input specification violates CSC (no
/// implementation exists at all). A specification that *has* covers but
/// cannot be decomposed to the limit is reported via
/// `DecomposeResult::implementable == false` (the paper's "n.i.").
pub fn decompose(sg: &StateGraph, config: &DecomposeConfig) -> Result<DecomposeResult, McError> {
    decompose_with(sg, config, &mut NullObserver)
}

/// Like [`decompose`], but fires
/// [`FlowObserver::on_decompose_step`] for every committed insertion —
/// the hook behind [`crate::pipeline::Synthesis::observer`].
///
/// # Errors
/// See [`decompose`].
pub fn decompose_with(
    sg: &StateGraph,
    config: &DecomposeConfig,
    observer: &mut dyn FlowObserver,
) -> Result<DecomposeResult, McError> {
    let mc = synthesize_mc(sg)?;
    decompose_from(sg.clone(), mc, config, observer).map_err(|failed| failed.0)
}

/// The decomposition loop from `mc`, an implementation of `initial` that
/// the caller has already synthesized (the Covers stage holds one). On a
/// resynthesis failure the error comes back with `initial`, so the caller
/// can report that graph's CSC conflicts.
pub(crate) fn decompose_from(
    initial: StateGraph,
    mut mc: McImpl,
    config: &DecomposeConfig,
    observer: &mut dyn FlowObserver,
) -> Result<DecomposeResult, Box<(McError, StateGraph)>> {
    // The graph after the last committed insertion; `initial` until then.
    let mut current: Option<StateGraph> = None;
    let mut inserted: Vec<String> = Vec::new();
    let mut steps: Vec<DecomposeStep> = Vec::new();

    loop {
        let sg = current.as_ref().unwrap_or(&initial);
        let over = mc.gates_over(config.literal_limit);
        if over.is_empty() || inserted.len() >= config.max_insertions {
            let implementable = over.is_empty();
            let sg = current.unwrap_or(initial);
            return Ok(DecomposeResult { sg, mc, inserted, implementable, steps });
        }

        let excess_now = excess(&mc, config.literal_limit);
        let mut committed = false;

        // Try the most complex cover first, then the others (§3: "other
        // events different from a* can also be selected").
        'targets: for (target_signal, target_event, target_cover, _) in &over {
            // Generate and rank candidate divisors. Each algebraic divisor
            // f is tried both as-is and in its "C-element-ified" boolean
            // refinement f ∨ (a*·⋁lits(f)) — the new signal then holds its
            // value through the target's active phase, so its complement is
            // usable by the opposite cover (the paper's §3.2/§5 refinement
            // that yields sequential decompositions such as C-element
            // trees).
            let divisors = generate_divisors(target_cover, &config.divisors);
            let mut ranked: Vec<(i64, Cover, crate::insertion::Insertion)> = Vec::new();
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

            // Evaluate the top-ranked candidates exactly (insertion +
            // verification + resynthesis of the *affected* signals only —
            // covers that do not mention the new signal and whose events
            // are not delayed remain valid verbatim) and commit the best:
            // every candidate is tried, and the first strictly-better one
            // in ranked order wins.
            let name = format!("x{}", inserted.len());
            let evaluate = |f: &Cover, ins: &Insertion| {
                let candidate_sg = insert_signal(sg, ins, &name, SignalKind::Internal).ok()?;
                if !check_all(&candidate_sg).is_ok() {
                    return None;
                }
                let (candidate_mc, affected) =
                    resynthesize_affected(&candidate_sg, &mc, *target_signal).ok()?;
                if config.ack_mode == AckMode::Local {
                    let x = SignalId(candidate_sg.signal_count() - 1);
                    if !locally_acknowledged(&candidate_mc, *target_signal, x) {
                        return None;
                    }
                }
                let excess_after = excess(&candidate_mc, config.literal_limit);
                if excess_after >= excess_now {
                    return None;
                }
                let area = crate::flow::si_cost(&candidate_mc, config.literal_limit.max(2)).area();
                Some((excess_after, area, candidate_sg, candidate_mc, affected, f.clone()))
            };
            let mut best: Option<(usize, usize, StateGraph, McImpl, Vec<bool>, Cover)> = None;
            let tried = ranked.iter().take(config.max_candidates_tried);
            for candidate in tried.filter_map(|(_, f, ins)| evaluate(f, ins)) {
                let (excess_after, area, ..) = &candidate;
                if best.as_ref().map(|(e, a, ..)| (excess_after, area) < (e, a)).unwrap_or(true) {
                    best = Some(candidate);
                }
            }
            if let Some((_, _, candidate_sg, candidate_mc, affected, f)) = best {
                // Full resynthesis on commit ("the implementation of every
                // signal is recomputed at every step", §3) — keeping, per
                // signal, whichever implementation is cheaper. The affected
                // signals' covers were synthesized on this very graph while
                // the candidate was evaluated, so they are reused; only the
                // signals kept verbatim are resynthesized. In local mode the
                // partial implementation is kept as-is: the full
                // resynthesis could re-introduce sharing across signals.
                let merged = if config.ack_mode == AckMode::Local {
                    candidate_mc
                } else {
                    match resynthesize_unaffected(&candidate_sg, candidate_mc, &affected) {
                        Ok(merged) => merged,
                        Err(e) => return Err(Box::new((e, initial))),
                    }
                };
                let excess_after = excess(&merged, config.literal_limit);
                if excess_after < excess_now {
                    let name = format!("x{}", inserted.len());
                    let step = DecomposeStep {
                        signal: name.clone(),
                        divisor: format!("{}", f.display_with(|v| sg.signals()[v].name.clone())),
                        target: sg.event_name(*target_event),
                        excess: (excess_now, excess_after),
                    };
                    observer.on_decompose_step(&step);
                    steps.push(step);
                    current = Some(candidate_sg);
                    mc = merged;
                    inserted.push(name);
                    committed = true;
                    break 'targets;
                }
            }
        }

        if !committed {
            let sg = current.unwrap_or(initial);
            return Ok(DecomposeResult { sg, mc, inserted, implementable: false, steps });
        }
    }
}

/// Rebuilds an implementation for `candidate_sg` (which is `mc`'s graph
/// plus one inserted signal) by resynthesizing only the signals the
/// insertion can affect: the decomposition target, the new signal itself,
/// and every signal owning an event delayed by the grown excitation
/// regions (those events gain `x` as trigger and their covers change
/// category). All other covers mention neither `x` nor any state whose
/// region classification moved, so they stay valid verbatim. Returns the
/// implementation and the affected set, indexed by signal id.
fn resynthesize_affected(
    candidate_sg: &StateGraph,
    mc: &McImpl,
    target: SignalId,
) -> Result<(McImpl, Vec<bool>), McError> {
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

    let universe = candidate_sg.reachable_codes();
    let signals = candidate_sg
        .implementable_signals()
        .into_iter()
        .map(|signal| {
            if affected[signal.0] {
                synthesize_signal_in(candidate_sg, &universe, signal)
            } else {
                let previous =
                    mc.signal_impl(signal).expect("unaffected signal existed before the insertion");
                Ok(previous.clone())
            }
        })
        .collect::<Result<_, _>>()?;
    Ok((McImpl { signals }, affected))
}

/// Completes the full resynthesis of a committed candidate: resynthesizes
/// every signal `resynthesize_affected` kept verbatim and keeps, per
/// signal, the cheaper of the fresh and the kept body by
/// `SignalBody::cost` (ties go to the fresh one). The affected signals
/// were synthesized on this graph already and `synthesize_signal` is
/// deterministic, so their bodies are the ones a full pass would build.
fn resynthesize_unaffected(
    sg: &StateGraph,
    mc: McImpl,
    affected: &[bool],
) -> Result<McImpl, McError> {
    let universe = sg.reachable_codes();
    let signals = mc
        .signals
        .into_iter()
        .map(|kept| {
            if affected[kept.signal.0] {
                return Ok(kept);
            }
            let fresh = synthesize_signal_in(sg, &universe, kept.signal)?;
            Ok(if fresh.body.cost() <= kept.body.cost() { fresh } else { kept })
        })
        .collect::<Result<_, _>>()?;
    Ok(McImpl { signals })
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
    for s in &mc.signals {
        if s.signal == target || s.signal == x {
            continue;
        }
        let uses_x = |cover: &Cover| cover.support().contains(&x.0);
        let bad = match &s.body {
            SignalBody::Combinational { cover, .. } => uses_x(cover),
            SignalBody::StandardC { set, reset } => {
                set.iter().chain(reset.iter()).any(|c| uses_x(&c.cover))
            }
        };
        if bad {
            return false;
        }
    }
    true
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

    /// The commit path keeps, per signal, the cheaper of the fresh cover
    /// and the one candidate evaluation built: on every embedded circuit
    /// of at most 400 states the result must validate on its own graph
    /// and no signal may cost more than a full resynthesis of that graph.
    #[test]
    fn committed_covers_validate_and_beat_full_resynthesis() {
        for &name in simap_stg::benchmark_names() {
            let stg = simap_stg::benchmark(name).expect("known benchmark");
            let sg = simap_stg::elaborate(&stg).expect("benchmark elaborates");
            if sg.state_count() > 400 {
                continue;
            }
            for limit in [2, 3] {
                let result = decompose(&sg, &DecomposeConfig::with_limit(limit))
                    .unwrap_or_else(|e| panic!("{name} at {limit}: {e}"));
                let complaints = crate::mc::validate_mc(&result.sg, &result.mc);
                assert!(complaints.is_empty(), "{name} at {limit}: {complaints:?}");
                let full = synthesize_mc(&result.sg).expect("the result keeps CSC");
                assert_eq!(full.signals.len(), result.mc.signals.len(), "{name} at {limit}");
                for (kept, fresh) in result.mc.signals.iter().zip(&full.signals) {
                    assert_eq!(kept.signal, fresh.signal, "{name} at {limit}");
                    assert!(
                        kept.body.cost() <= fresh.body.cost(),
                        "{name} at {limit}: {} costs {:?} > {:?}",
                        result.sg.signals()[kept.signal.0].name,
                        kept.body.cost(),
                        fresh.body.cost()
                    );
                }
            }
        }
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
