//! Token-game reachability: elaborates an [`Stg`] into a
//! [`simap_sg::StateGraph`], inferring initial signal values from
//! consistency.
//!
//! # The packed-state engine
//!
//! Reachability is the hot path every synthesis pays first, so the
//! default [`ReachStrategy::Packed`] engine is built for throughput:
//!
//! * **Packed markings.** A marking is a fixed number of `u64` words;
//!   every place owns a fixed-width bit field inside them (wide enough
//!   for `max_tokens + 1` plus a SWAR guard bit). All markings live in
//!   one contiguous arena — no per-state heap allocation.
//! * **Interning.** States are deduplicated through an open-addressing
//!   hash-to-index table over the arena, so the visited set costs one
//!   probe sequence per successor instead of a `HashMap<Vec<u8>, _>`
//!   entry per state.
//! * **Mask-compiled transitions.** For every transition the engine
//!   precomputes per-word enable probes and fire deltas, turning
//!   `enabled()` into word-wise AND/ADD/compare (a SWAR all-fields-nonzero
//!   test) and firing into one wrapping subtract/add per word — no byte
//!   loops over places.
//!
//! The legacy explicit BFS survives as [`ReachStrategy::Explicit`]: one
//! `Vec<u8>` per marking, `HashMap` interning. It is deliberately simple
//! and serves as the differential-testing oracle for the packed engine
//! (see `tests/reach_differential.rs`); both strategies produce
//! byte-identical state graphs and identical [`ReachError`] values.
//!
//! # The symbolic engine
//!
//! [`ReachStrategy::Symbolic`] ([`crate::symbolic`]) never enumerates
//! markings at all: for 1-safe nets it encodes states as Boolean vectors,
//! compiles every transition into a BDD (guard, update) relation and runs
//! fixed-point image computation over the full reachable set. The exact
//! state count comes out of a BDD satisfy-count, so nets whose reachable
//! sets blow past [`ReachError::StateLimit`] for the enumerative engines
//! stay analyzable (count, per-signal regions, CSC verdict) through
//! [`crate::symbolic::reach_symbolic`]. An explicit [`StateGraph`] is
//! materialized — through the same packed core, so graphs stay
//! byte-identical across all three strategies and the independently
//! computed symbolic count cross-checks the enumerative one — only when
//! the state count is at most [`ReachConfig::materialize_limit`];
//! above it, elaboration reports [`ReachError::MaterializeLimit`] while
//! the summary API still answers. Nets that are not 1-safe are out of the
//! symbolic engine's scope and rejected as [`ReachError::NotSafe`].

use crate::petri::{PlaceId, Stg, TransitionId};
use simap_sg::{check_consistency, StateGraph, StateId};
use std::collections::HashMap;
use std::fmt;

pub use crate::extmem::SpillCounters;

/// How reachable markings are represented and explored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReachStrategy {
    /// Bit-packed markings in a contiguous arena, interned through a
    /// hash-to-index table, with mask-compiled enable/fire operations
    /// (the default).
    #[default]
    Packed,
    /// The legacy explicit BFS (`Vec<u8>` markings, `HashMap`
    /// interning). Slower, but simple enough to audit by eye — the
    /// differential oracle the packed engine is tested against.
    Explicit,
    /// BDD-based symbolic reachability for 1-safe nets
    /// ([`crate::symbolic`]): the exact reachable set as a Boolean
    /// function, counted without enumeration; the state graph is
    /// materialized (byte-identically to the other strategies) only up to
    /// [`ReachConfig::materialize_limit`].
    Symbolic,
    /// External-memory sharded reachability ([`crate::extmem`]): the
    /// packed engine's marking layout over a file-backed paged arena,
    /// hash-partitioned intern shards, and a spill-to-disk frontier and
    /// edge log, so peak resident memory is bounded by
    /// [`ReachConfig::memory_budget`] instead of the state count. Graphs
    /// and errors are byte-identical to [`ReachStrategy::Packed`].
    Spill,
}

impl fmt::Display for ReachStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ReachStrategy::Packed => "packed",
            ReachStrategy::Explicit => "explicit",
            ReachStrategy::Symbolic => "symbolic",
            ReachStrategy::Spill => "spill",
        })
    }
}

impl std::str::FromStr for ReachStrategy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "packed" => Ok(ReachStrategy::Packed),
            "explicit" => Ok(ReachStrategy::Explicit),
            "symbolic" => Ok(ReachStrategy::Symbolic),
            "spill" => Ok(ReachStrategy::Spill),
            other => Err(format!(
                "unknown reachability strategy `{other}` (packed|explicit|symbolic|spill)"
            )),
        }
    }
}

/// Limits and strategy for reachability exploration.
#[derive(Debug, Clone)]
pub struct ReachConfig {
    /// Maximum number of reachable markings explored.
    pub max_states: usize,
    /// Maximum tokens allowed in a place (boundedness guard).
    pub max_tokens: u8,
    /// The exploration engine (packed arena vs explicit oracle).
    pub strategy: ReachStrategy,
    /// Largest symbolically counted state space the symbolic strategy
    /// will materialize into an explicit [`StateGraph`]; above it,
    /// elaboration fails with [`ReachError::MaterializeLimit`] while
    /// [`crate::symbolic::reach_symbolic`] still reports the exact count
    /// and the CSC verdict. The enumerative strategies ignore this knob
    /// (their [`ReachConfig::max_states`] plays the same guarding role).
    pub materialize_limit: usize,
    /// Resident-memory budget in bytes for the spill strategy's working
    /// set (arena page cache, frontier buffers, edge log buffer). When
    /// the working set would exceed the budget, pages and run files move
    /// to [`ReachConfig::spill_dir`]. Ignored by the in-memory
    /// strategies. Default: 256 MiB.
    pub memory_budget: usize,
    /// Directory the spill strategy creates its run-scoped scratch
    /// directory in (`None`: the system temp dir). Every file is removed
    /// when the exploration ends — on success, error and panic alike.
    pub spill_dir: Option<std::path::PathBuf>,
    /// Number of hash partitions of the spill strategy's intern table
    /// and marking arena. More shards spread the arena page cache
    /// thinner but shrink each intern table. Default: 8.
    pub shards: usize,
    /// Checkpoint cadence of the spill strategy in BFS levels: every
    /// `checkpoint_every` completed levels the full exploration state is
    /// atomically snapshotted into [`ReachConfig::checkpoint_dir`], so a
    /// killed run can continue from the last snapshot via
    /// [`ReachConfig::resume`]. `0` (the default) disables
    /// checkpointing. Ignored by the in-memory strategies.
    pub checkpoint_every: usize,
    /// Durable directory the spill strategy writes its checkpoint
    /// generations into (required when [`ReachConfig::checkpoint_every`]
    /// is non-zero). Unlike [`ReachConfig::spill_dir`] scratch files,
    /// checkpoint artifacts survive the process; they are removed only
    /// when the exploration completes successfully.
    pub checkpoint_dir: Option<std::path::PathBuf>,
    /// Resume a spill exploration from the checkpoint previously written
    /// into this directory. The manifest is validated against the
    /// current net and configuration (refusing on any mismatch, naming
    /// both digests) and the level-synchronized BFS continues from the
    /// snapshot, producing a [`StateGraph`] byte-identical to an
    /// uninterrupted run. Ignored by the in-memory strategies.
    pub resume: Option<std::path::PathBuf>,
}

impl Default for ReachConfig {
    fn default() -> Self {
        ReachConfig {
            max_states: 500_000,
            max_tokens: 7,
            strategy: ReachStrategy::default(),
            materialize_limit: 1_000_000,
            memory_budget: 256 * 1024 * 1024,
            spill_dir: None,
            shards: 8,
            checkpoint_every: 0,
            checkpoint_dir: None,
            resume: None,
        }
    }
}

/// Counters of one reachability run (see [`elaborate_with_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReachStats {
    /// Markings whose successors were expanded (stats are reported for
    /// completed runs, where every interned marking was also visited).
    pub visited: usize,
    /// Distinct markings discovered and stored.
    pub interned: usize,
    /// Fired (marking, transition, marking) edges.
    pub edges: usize,
    /// The strategy that produced these counters.
    pub strategy: ReachStrategy,
    /// Disk-spill counters ([`ReachStrategy::Spill`] only; `None` for
    /// the in-memory strategies).
    pub spill: Option<SpillCounters>,
}

/// Errors during elaboration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReachError {
    /// A place exceeded the token bound: the net looks unbounded.
    Unbounded {
        /// Name of the offending place.
        place: String,
        /// The configured [`ReachConfig::max_tokens`] bound it exceeded.
        max_tokens: u8,
        /// Markings fully explored before the offending firing.
        visited: usize,
    },
    /// The exploration limit was hit.
    StateLimit {
        /// The configured [`ReachConfig::max_states`] limit.
        limit: usize,
        /// Markings fully explored when the limit was hit.
        visited: usize,
    },
    /// The STG is not consistent: some signal does not alternate.
    Inconsistent {
        /// Description of the first offending arc.
        detail: String,
    },
    /// The net is not 1-safe, so the symbolic engine's one-bit-per-place
    /// encoding cannot represent it (the enumerative strategies handle
    /// multi-token places up to [`ReachConfig::max_tokens`]).
    NotSafe {
        /// Name of the first place observed holding (or about to hold)
        /// more than one token.
        place: String,
    },
    /// The symbolically counted state space is real but too large to
    /// materialize as an explicit state graph
    /// ([`ReachConfig::materialize_limit`]). The count itself — and the
    /// region/CSC analysis — remains available through
    /// [`crate::symbolic::reach_symbolic`].
    MaterializeLimit {
        /// The exact symbolic state count.
        states: u64,
        /// The configured materialization threshold it exceeded.
        limit: usize,
    },
    /// The underlying state-graph builder failed (e.g. > 64 signals).
    Build(String),
    /// The spill strategy could not read or write its scratch files
    /// (disk full, permissions, a vanished [`ReachConfig::spill_dir`]).
    Spill {
        /// Description of the failed filesystem operation.
        detail: String,
    },
    /// A checkpoint could not be written, read or validated: an I/O
    /// failure in [`ReachConfig::checkpoint_dir`], a corrupt or
    /// truncated artifact (named in the detail), or a
    /// [`ReachConfig::resume`] against a different net or configuration
    /// (the detail names both digests).
    Checkpoint {
        /// Description of the failed operation, naming the offending
        /// artifact or the mismatched digests.
        detail: String,
    },
}

impl fmt::Display for ReachError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReachError::Unbounded { place, max_tokens, visited } => write!(
                f,
                "place `{place}` exceeds the token bound of {max_tokens} after {visited} \
                 marking(s) were explored: the net looks unbounded"
            ),
            ReachError::StateLimit { limit, visited } => write!(
                f,
                "more than {limit} reachable markings (state limit {limit} hit after {visited} \
                 marking(s) were fully explored; raise ReachConfig::max_states to go further)"
            ),
            ReachError::Inconsistent { detail } => write!(f, "inconsistent STG: {detail}"),
            ReachError::NotSafe { place } => write!(
                f,
                "place `{place}` can hold more than one token: the symbolic engine only \
                 supports 1-safe nets (use the packed or explicit strategy)"
            ),
            ReachError::MaterializeLimit { states, limit } => write!(
                f,
                "{states} reachable markings exceed the materialization threshold of {limit}; \
                 raise ReachConfig::materialize_limit or use the symbolic summary \
                 (simap_stg::symbolic::reach_symbolic) for counts without a graph"
            ),
            ReachError::Build(msg) => write!(f, "state graph construction failed: {msg}"),
            ReachError::Spill { detail } => write!(
                f,
                "spill storage failure: {detail} (check ReachConfig::spill_dir and free disk \
                 space)"
            ),
            ReachError::Checkpoint { detail } => {
                write!(f, "spill checkpoint failure: {detail}")
            }
        }
    }
}

impl std::error::Error for ReachError {}

/// Elaborates the STG into its reachability state graph with default
/// limits.
///
/// # Errors
/// See [`ReachError`].
pub fn elaborate(stg: &Stg) -> Result<StateGraph, ReachError> {
    elaborate_with(stg, &ReachConfig::default())
}

/// Elaborates the STG with explicit limits.
///
/// # Errors
/// See [`ReachError`].
pub fn elaborate_with(stg: &Stg, config: &ReachConfig) -> Result<StateGraph, ReachError> {
    elaborate_with_stats(stg, config).map(|(sg, _)| sg)
}

/// Elaborates the STG and reports the exploration counters.
///
/// Signal values are inferred from consistency: the first reachable
/// marking (in BFS order) that enables a transition of signal `s` fixes
/// the initial value of `s` to the transition's pre-value; values are then
/// propagated along the BFS tree and the full labeling is re-checked with
/// [`simap_sg::check_consistency`].
///
/// Both strategies explore markings in identical BFS order, so the
/// resulting graph (state numbering, codes, arcs) and any error are the
/// same whatever the [`ReachConfig::strategy`].
///
/// # Errors
/// See [`ReachError`].
pub fn elaborate_with_stats(
    stg: &Stg,
    config: &ReachConfig,
) -> Result<(StateGraph, ReachStats), ReachError> {
    let exploration = explore(stg, config)?;
    let n = exploration.count;
    let stats = ReachStats {
        visited: n,
        interned: n,
        edges: exploration.edge_arcs.len(),
        strategy: config.strategy,
        spill: exploration.spill,
    };

    // Infer initial signal values: the first BFS marking enabling each
    // signal fixes it. A transition is enabled at a marking exactly when
    // the exploration recorded an edge for it, and edges are produced
    // grouped by source in (source, transition) order, so the inference
    // walks edge runs instead of re-running the token game.
    let nsignals = stg.signals().len();
    let mut initial_value = vec![false; nsignals];
    let mut fixed = vec![false; nsignals];
    let mut remaining = nsignals;
    for src in 0..n {
        if remaining == 0 {
            break;
        }
        for &(ev, _) in
            &exploration.edge_arcs[exploration.edge_off[src]..exploration.edge_off[src + 1]]
        {
            let sig = ev.signal.0;
            if fixed[sig] {
                continue;
            }
            // Propagate back to the initial marking: along the BFS tree
            // path no transition of `sig` fired (it would have been
            // enabled at an earlier marking), so the value is unchanged.
            let mut value = ev.pre_value();
            let mut at = src;
            while let Some((p, t)) = exploration.parent[at] {
                if stg.transitions()[t.0].event.signal.0 == sig {
                    value = !value; // defensive; cannot happen per the invariant
                }
                at = p;
            }
            initial_value[sig] = value;
            fixed[sig] = true;
            remaining -= 1;
        }
    }

    // Codes along the BFS tree.
    let mut codes: Vec<u64> = vec![0; n];
    let mut init_code = 0u64;
    for (i, &v) in initial_value.iter().enumerate() {
        if v {
            init_code |= 1 << i;
        }
    }
    for i in 0..n {
        codes[i] = match exploration.parent[i] {
            None => init_code,
            Some((p, t)) => codes[p] ^ (1u64 << stg.transitions()[t.0].event.signal.0),
        };
    }

    // BFS emits event-labeled edges in CSR form already, so the graph
    // goes up through the raw bulk constructor with no conversion pass.
    let sg = StateGraph::from_csr_parts(
        stg.name(),
        stg.signals().to_vec(),
        codes,
        StateId(0),
        exploration.edge_off,
        exploration.edge_arcs,
    )
    .map_err(|e| ReachError::Build(e.to_string()))?;
    let violations = check_consistency(&sg);
    if let Some(v) = violations.first() {
        return Err(ReachError::Inconsistent { detail: v.to_string() });
    }
    Ok((sg, stats))
}

/// The strategy-independent outcome of the token game: the BFS tree and
/// edge list (markings themselves are not retained), plus the structural
/// observations [`crate::analysis`] needs.
#[derive(Debug)]
pub(crate) struct Exploration {
    /// Number of distinct markings discovered (BFS numbering `0..count`).
    pub(crate) count: usize,
    /// BFS-tree parent of each marking (`None` for the initial one).
    pub(crate) parent: Vec<Option<(usize, TransitionId)>>,
    /// Fired edges in CSR form: marking `s` fired
    /// `edge_arcs[edge_off[s]..edge_off[s + 1]]`, labeled with the
    /// transition's event and ordered by ascending transition id — ready
    /// for [`StateGraph::from_csr_parts`].
    pub(crate) edge_off: Vec<usize>,
    pub(crate) edge_arcs: Vec<(simap_sg::Event, StateId)>,
    /// Per transition: whether it fired anywhere.
    pub(crate) fired: Vec<bool>,
    /// Whether every reachable marking keeps at most one token per place.
    pub(crate) safe: bool,
    /// Disk-spill counters (set by the spill strategy only).
    pub(crate) spill: Option<SpillCounters>,
}

/// Runs the token game with the configured strategy.
pub(crate) fn explore(stg: &Stg, config: &ReachConfig) -> Result<Exploration, ReachError> {
    match config.strategy {
        ReachStrategy::Packed => explore_packed(stg, config),
        ReachStrategy::Explicit => explore_explicit(stg, config),
        ReachStrategy::Symbolic => crate::symbolic::explore_symbolic(stg, config),
        ReachStrategy::Spill => crate::extmem::explore_spill(stg, config),
    }
}

// ---------------------------------------------------------------------
// Explicit oracle: one Vec<u8> per marking, HashMap interning.
// ---------------------------------------------------------------------

fn explore_explicit(stg: &Stg, config: &ReachConfig) -> Result<Exploration, ReachError> {
    let n_transitions = stg.transition_count();
    let initial: Vec<u8> = stg.initial_marking().to_vec();

    let mut index: HashMap<Vec<u8>, usize> = HashMap::new();
    let mut markings: Vec<Vec<u8>> = Vec::new();
    let mut edge_off: Vec<usize> = Vec::new();
    let mut edge_arcs: Vec<(simap_sg::Event, StateId)> = Vec::new();
    let mut parent: Vec<Option<(usize, TransitionId)>> = Vec::new();
    let mut fired = vec![false; n_transitions];
    let mut safe = initial.iter().all(|&t| t <= 1);

    index.insert(initial.clone(), 0);
    markings.push(initial);
    parent.push(None);

    let mut head = 0;
    while head < markings.len() {
        let m = markings[head].clone();
        edge_off.push(edge_arcs.len());
        for t in 0..n_transitions {
            let t = TransitionId(t);
            if !stg.pre(t).iter().all(|p| m[p.0] > 0) {
                continue;
            }
            fired[t.0] = true;
            let mut next = m.clone();
            for p in stg.pre(t) {
                next[p.0] -= 1;
            }
            for p in stg.post(t) {
                // Bound check before the increment so a `u8` count can
                // never overflow (max_tokens may be 255).
                if next[p.0] >= config.max_tokens {
                    return Err(ReachError::Unbounded {
                        place: stg.places()[p.0].name.clone(),
                        max_tokens: config.max_tokens,
                        visited: head,
                    });
                }
                next[p.0] += 1;
            }
            let dst = match index.get(&next) {
                Some(&i) => i,
                None => {
                    let i = markings.len();
                    if i >= config.max_states {
                        return Err(ReachError::StateLimit {
                            limit: config.max_states,
                            visited: head,
                        });
                    }
                    if safe && next.iter().any(|&t| t > 1) {
                        safe = false;
                    }
                    index.insert(next.clone(), i);
                    markings.push(next);
                    parent.push(Some((head, t)));
                    i
                }
            };
            edge_arcs.push((stg.transitions()[t.0].event, StateId(dst)));
        }
        head += 1;
    }
    edge_off.push(edge_arcs.len());

    Ok(Exploration { count: markings.len(), parent, edge_off, edge_arcs, fired, safe, spill: None })
}

// ---------------------------------------------------------------------
// Packed engine: bit-packed markings, arena + intern table, SWAR masks.
// ---------------------------------------------------------------------

/// One word-level enabledness probe of a transition: "every pre field in
/// `word` is non-zero". A field `f < 2^(w-1)` is non-zero iff
/// `f + (2^(w-1) - 1)` sets its guard bit; the probe addition cannot
/// carry across fields.
#[derive(Clone, Copy)]
struct EnableCheck {
    word: u32,
    select: u64,
    probe: u64,
    high: u64,
}

/// One word-level fire delta of a transition: subtract the pre tokens,
/// add the post tokens, and flag any post field exceeding `max_tokens`
/// (`f > max` iff `f + (2^(w-1) - 1 - max)` reaches the guard bit).
#[derive(Clone, Copy)]
struct FireOp {
    word: u32,
    sub: u64,
    add: u64,
    select: u64,
    probe: u64,
    high: u64,
}

/// The mask-compiled net: field layout plus, per transition, the sparse
/// list of words its pre/post places actually touch — `enabled()` and
/// firing cost a handful of word operations each, independent of the
/// total place count.
pub(crate) struct PackedNet {
    /// `u64` words per marking (at least 1 so empty nets still intern).
    pub(crate) words: usize,
    /// Bits per place field (value range plus one SWAR guard bit).
    width: u32,
    /// The configured token bound (for the cold error path).
    max_tokens: u8,
    /// Per word: bits 1.. of every field (a field holds > 1 token iff it
    /// intersects this mask) — the safety observation.
    pub(crate) multi: Vec<u64>,
    /// Flattened per-transition enable probes; `enable_range[t]` indexes
    /// this transition's slice.
    enable: Vec<EnableCheck>,
    enable_range: Vec<(u32, u32)>,
    /// Flattened per-transition fire deltas, same indexing scheme.
    fire: Vec<FireOp>,
    fire_range: Vec<(u32, u32)>,
    /// `u64` words of one enabled-transition bitmask (at least 1).
    pub(crate) t_words: usize,
    /// Per transition, `t_words` words: the transitions whose enabledness
    /// *cannot* change when it fires (their pre-sets are disjoint from
    /// the fired transition's pre∪post places) — the incremental
    /// enabled-set carry-over mask.
    pub(crate) keep: Vec<u64>,
    /// Per transition: the (ascending) transitions to recheck after it
    /// fires, complementing `keep`.
    pub(crate) recheck: Vec<u32>,
    pub(crate) recheck_range: Vec<(u32, u32)>,
}

/// The narrowest field width able to hold the initial marking plus one
/// guard bit: the speculative first-attempt layout (1-safe nets — the
/// overwhelmingly common case — fit 2-bit fields, quartering the arena
/// against the worst-case layout).
pub(crate) fn narrow_width(stg: &Stg) -> u32 {
    let initial_max = stg.initial_marking().iter().copied().max().unwrap_or(0).max(1);
    64 - u64::from(initial_max).leading_zeros() + 1
}

/// The field width that can represent every legal token count up to
/// `max_tokens` (plus the transient `max_tokens + 1` the bound check
/// inspects) — the layout [`FireFault::Widen`] restarts with.
pub(crate) fn full_width(stg: &Stg, max_tokens: u8) -> u32 {
    let initial_max = stg.initial_marking().iter().copied().max().unwrap_or(0);
    let max_value = (u64::from(max_tokens) + 1).max(u64::from(initial_max));
    64 - max_value.leading_zeros() + 1
}

/// Why a firing could not complete.
pub(crate) enum FireFault {
    /// A post place truly exceeded `max_tokens`.
    Unbounded(PlaceId),
    /// A post place overflowed the speculative narrow field layout while
    /// still within `max_tokens`: the exploration must restart at
    /// [`full_width`].
    Widen,
}

impl PackedNet {
    pub(crate) fn compile(stg: &Stg, max_tokens: u8, width: u32) -> PackedNet {
        let n_places = stg.place_count();
        // Every field carries one SWAR guard bit above the value range,
        // so probe additions never carry across fields. `width` comes
        // from [`narrow_width`] / [`full_width`]; when it cannot
        // represent max_tokens + 1 the engine bounds fields at
        // `2^(width-1) - 1` and reports overflow as [`FireFault::Widen`].
        let per_word = (64 / width) as usize;
        let words = n_places.div_ceil(per_word).max(1);
        let field = |p: usize| -> (usize, u32) { (p / per_word, (p % per_word) as u32 * width) };
        let all = (1u64 << width) - 1; // every bit of a field
        let low = (1u64 << (width - 1)) - 1; // bits below the guard bit
        let eff = u64::from(max_tokens).min(low); // bound enforceable at this width

        let mut multi = vec![0u64; words];
        for p in 0..n_places {
            let (word, off) = field(p);
            multi[word] |= (all & !1) << off;
        }

        let n_transitions = stg.transition_count();
        let mut enable = Vec::new();
        let mut enable_range = Vec::with_capacity(n_transitions);
        let mut fire = Vec::new();
        let mut fire_range = Vec::with_capacity(n_transitions);
        // Scratch planes, rebuilt per transition and compacted into the
        // sparse lists (only words a transition touches survive).
        let mut scratch = vec![[0u64; 6]; words]; // [esel, eprobe, ehigh, sub, add, psel]
        for t in 0..n_transitions {
            for s in scratch.iter_mut() {
                *s = [0; 6];
            }
            for p in stg.pre(TransitionId(t)) {
                let (word, off) = field(p.0);
                scratch[word][0] |= all << off;
                scratch[word][1] |= low << off;
                scratch[word][2] |= 1u64 << (off + width - 1);
                scratch[word][3] += 1u64 << off;
            }
            for p in stg.post(TransitionId(t)) {
                let (word, off) = field(p.0);
                scratch[word][4] += 1u64 << off;
                scratch[word][5] |= all << off;
            }
            let estart = enable.len() as u32;
            let fstart = fire.len() as u32;
            for (word, s) in scratch.iter().enumerate() {
                let [esel, eprobe, ehigh, sub, add, psel] = *s;
                if esel != 0 {
                    enable.push(EnableCheck {
                        word: word as u32,
                        select: esel,
                        probe: eprobe,
                        high: ehigh,
                    });
                }
                if sub != 0 || add != 0 {
                    // The overflow probe/high cover the post fields only.
                    let mut probe = 0u64;
                    let mut high = 0u64;
                    for p in stg.post(TransitionId(t)) {
                        let (w, off) = field(p.0);
                        if w == word {
                            probe |= (low - eff) << off;
                            high |= 1u64 << (off + width - 1);
                        }
                    }
                    fire.push(FireOp { word: word as u32, sub, add, select: psel, probe, high });
                }
            }
            enable_range.push((estart, enable.len() as u32));
            fire_range.push((fstart, fire.len() as u32));
        }

        // Incremental enabled-set support: firing `t` only moves tokens in
        // pre(t) ∪ post(t), so only transitions consuming from those
        // places can change enabledness. Everything else carries over.
        let t_words = n_transitions.div_ceil(64).max(1);
        let mut consumers: Vec<Vec<u32>> = vec![Vec::new(); n_places];
        for t in 0..n_transitions {
            for p in stg.pre(TransitionId(t)) {
                consumers[p.0].push(t as u32);
            }
        }
        let mut keep = Vec::with_capacity(n_transitions * t_words);
        let mut recheck = Vec::new();
        let mut recheck_range = Vec::with_capacity(n_transitions);
        let mut affected = vec![0u64; t_words];
        for t in 0..n_transitions {
            for w in affected.iter_mut() {
                *w = 0;
            }
            let places = stg.pre(TransitionId(t)).iter().chain(stg.post(TransitionId(t)));
            for p in places {
                for &u in &consumers[p.0] {
                    affected[u as usize / 64] |= 1u64 << (u % 64);
                }
            }
            let start = recheck.len() as u32;
            for (w, &bits) in affected.iter().enumerate() {
                let mut bits = bits;
                while bits != 0 {
                    recheck.push(w as u32 * 64 + bits.trailing_zeros());
                    bits &= bits - 1;
                }
            }
            recheck_range.push((start, recheck.len() as u32));
            keep.extend(affected.iter().map(|&w| !w));
        }

        PackedNet {
            words,
            width,
            max_tokens,
            multi,
            enable,
            enable_range,
            fire,
            fire_range,
            t_words,
            keep,
            recheck,
            recheck_range,
        }
    }

    pub(crate) fn pack_into(&self, marking: &[u8], out: &mut [u64]) {
        let per_word = (64 / self.width) as usize;
        for w in out.iter_mut() {
            *w = 0;
        }
        for (p, &tokens) in marking.iter().enumerate() {
            out[p / per_word] |= u64::from(tokens) << ((p % per_word) as u32 * self.width);
        }
    }

    fn tokens(&self, packed: &[u64], p: usize) -> u64 {
        let per_word = (64 / self.width) as usize;
        packed[p / per_word] >> ((p % per_word) as u32 * self.width) & ((1 << self.width) - 1)
    }

    #[inline]
    fn checks(&self, t: TransitionId) -> &[EnableCheck] {
        let (start, end) = self.enable_range[t.0];
        &self.enable[start as usize..end as usize]
    }

    /// Sparse word-wise enabledness: every pre field non-zero, checked
    /// only on the words `t`'s pre places live in.
    #[inline]
    pub(crate) fn enabled(&self, m: &[u64], t: TransitionId) -> bool {
        self.checks(t)
            .iter()
            .all(|c| ((m[c.word as usize] & c.select).wrapping_add(c.probe)) & c.high == c.high)
    }

    /// Fires `t` (assumed enabled) into `out` — a marking copy plus one
    /// wrapping subtract/add per touched word — and reports the fault,
    /// if any: a post place truly exceeding `max_tokens` (named in arc
    /// order, exactly as the explicit oracle reports it), or an overflow
    /// of the speculative narrow field layout.
    #[inline]
    pub(crate) fn fire(
        &self,
        stg: &Stg,
        m: &[u64],
        t: TransitionId,
        out: &mut [u64],
    ) -> Option<FireFault> {
        out.copy_from_slice(m);
        let (start, end) = self.fire_range[t.0];
        let mut over = false;
        for op in &self.fire[start as usize..end as usize] {
            let next = m[op.word as usize].wrapping_sub(op.sub).wrapping_add(op.add);
            out[op.word as usize] = next;
            over |= ((next & op.select).wrapping_add(op.probe)) & op.high != 0;
        }
        if !over {
            return None;
        }
        // Cold path: the overflowed field holds its exact count (the
        // increment cannot carry past the guard bit), so decoding tells
        // a genuine bound violation apart from a too-narrow layout.
        match stg
            .post(t)
            .iter()
            .copied()
            .find(|&p| self.tokens(out, p.0) > u64::from(self.max_tokens))
        {
            Some(p) => Some(FireFault::Unbounded(p)),
            None => Some(FireFault::Widen),
        }
    }
}

/// Open-addressing hash-to-index table over the packed arena.
struct InternTable {
    /// Slot values are arena indices; `usize::MAX` marks an empty slot.
    slots: Vec<usize>,
    mask: usize,
    len: usize,
}

impl InternTable {
    fn with_capacity(n: usize) -> InternTable {
        let cap = (n.max(8) * 2).next_power_of_two();
        InternTable { slots: vec![usize::MAX; cap], mask: cap - 1, len: 0 }
    }

    #[inline]
    fn hash(words: &[u64]) -> u64 {
        // SplitMix64-style fold: cheap, well-distributed for dense words.
        // The 1- and 2-word layouts (every 1-safe net up to 32 and 64
        // places) take branch-free specializations.
        let mix = |h: u64, w: u64| {
            let mut z = h ^ w;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        const SEED: u64 = 0x9e37_79b9_7f4a_7c15;
        match *words {
            [a] => mix(SEED, a),
            [a, b] => mix(mix(SEED, a), b),
            ref ws => ws.iter().fold(SEED, |h, &w| mix(h, w)),
        }
    }

    /// Stride-specialized slice equality against the arena.
    #[inline]
    fn matches(arena: &[u64], stride: usize, i: usize, needle: &[u64]) -> bool {
        match *needle {
            [a] => arena[i] == a,
            [a, b] => {
                let base = i * 2;
                arena[base] == a && arena[base + 1] == b
            }
            ref ws => &arena[i * stride..(i + 1) * stride] == ws,
        }
    }

    /// Looks up the packed marking in the arena; on a miss, reserves the
    /// slot for `candidate` and returns `None` (the caller then appends
    /// the marking at index `candidate`).
    fn lookup_or_reserve(
        &mut self,
        arena: &[u64],
        stride: usize,
        needle: &[u64],
        candidate: usize,
    ) -> Option<usize> {
        if self.len * 3 >= self.slots.len() * 2 {
            self.grow(arena, stride);
        }
        let mut slot = (Self::hash(needle) as usize) & self.mask;
        loop {
            match self.slots[slot] {
                usize::MAX => {
                    self.slots[slot] = candidate;
                    self.len += 1;
                    return None;
                }
                i if Self::matches(arena, stride, i, needle) => return Some(i),
                _ => slot = (slot + 1) & self.mask,
            }
        }
    }

    fn grow(&mut self, arena: &[u64], stride: usize) {
        let cap = self.slots.len() * 2;
        let mut bigger = InternTable { slots: vec![usize::MAX; cap], mask: cap - 1, len: self.len };
        for &i in self.slots.iter().filter(|&&i| i != usize::MAX) {
            let words = &arena[i * stride..(i + 1) * stride];
            let mut slot = (Self::hash(words) as usize) & bigger.mask;
            while bigger.slots[slot] != usize::MAX {
                slot = (slot + 1) & bigger.mask;
            }
            bigger.slots[slot] = i;
        }
        *self = bigger;
    }
}

/// Why one packed exploration attempt stopped.
pub(crate) enum Abort {
    /// A real reachability error — propagate it.
    Error(ReachError),
    /// The speculative narrow field layout overflowed: restart the whole
    /// exploration at [`full_width`].
    Widen,
}

impl From<ReachError> for Abort {
    fn from(e: ReachError) -> Self {
        Abort::Error(e)
    }
}

/// The packed BFS state: marking arena, per-state enabled-transition
/// bitmasks (maintained incrementally), intern table and the outputs.
struct PackedExplorer<'a> {
    stg: &'a Stg,
    net: PackedNet,
    stride: usize,
    t_words: usize,
    max_states: usize,
    max_tokens: u8,
    /// Packed markings, `stride` words per state.
    arena: Vec<u64>,
    /// Enabled-transition bitmask per state, `t_words` words each,
    /// parallel to `arena`. Computed once per *new* state from its BFS
    /// parent's mask: carried-over bits plus the rechecked neighborhood
    /// of the fired transition.
    enabled: Vec<u64>,
    table: InternTable,
    /// Event label per transition, resolved once.
    events: Vec<simap_sg::Event>,
    parent: Vec<Option<(usize, TransitionId)>>,
    edge_off: Vec<usize>,
    edge_arcs: Vec<(simap_sg::Event, StateId)>,
    fired: Vec<bool>,
    safe: bool,
    scratch_en: Vec<u64>,
}

impl<'a> PackedExplorer<'a> {
    fn new(stg: &'a Stg, config: &ReachConfig, width: u32) -> PackedExplorer<'a> {
        let net = PackedNet::compile(stg, config.max_tokens, width);
        let stride = net.words;
        let t_words = net.t_words;
        let n_transitions = stg.transition_count();

        let mut initial = vec![0u64; stride];
        net.pack_into(stg.initial_marking(), &mut initial);
        let safe = net.multi.iter().zip(&initial).all(|(&m, &w)| w & m == 0);

        // The initial state's enabled set is the one full per-transition
        // scan; every other state derives its set incrementally.
        let mut en0 = vec![0u64; t_words];
        for t in 0..n_transitions {
            if net.enabled(&initial, TransitionId(t)) {
                en0[t / 64] |= 1u64 << (t % 64);
            }
        }

        let mut this = PackedExplorer {
            stg,
            stride,
            t_words,
            max_states: config.max_states,
            max_tokens: config.max_tokens,
            arena: Vec::with_capacity(stride * 4096),
            enabled: Vec::with_capacity(t_words * 4096),
            table: InternTable::with_capacity(2048),
            events: stg.transitions().iter().map(|t| t.event).collect(),
            parent: Vec::with_capacity(4096),
            edge_off: Vec::with_capacity(4096),
            edge_arcs: Vec::with_capacity(8192),
            fired: vec![false; n_transitions],
            safe,
            scratch_en: vec![0u64; t_words],
            net,
        };
        this.arena.extend_from_slice(&initial);
        this.enabled.extend_from_slice(&en0);
        let reserved = this.table.lookup_or_reserve(&this.arena, stride, &initial, 0);
        debug_assert!(reserved.is_none());
        this.parent.push(None);
        this
    }

    fn count(&self) -> usize {
        self.arena.len() / self.stride
    }

    fn fault(&self, fault: FireFault, src: usize) -> Abort {
        match fault {
            FireFault::Unbounded(p) => Abort::Error(ReachError::Unbounded {
                place: self.stg.places()[p.0].name.clone(),
                max_tokens: self.max_tokens,
                visited: src,
            }),
            FireFault::Widen => Abort::Widen,
        }
    }

    /// Interns one fired successor: dedup through the table, append to
    /// the arena on a miss (deriving its enabled set from the source's),
    /// record the edge.
    fn intern(&mut self, src: usize, t: TransitionId, next: &[u64]) -> Result<(), Abort> {
        let candidate = self.count();
        let dst = match self.table.lookup_or_reserve(&self.arena, self.stride, next, candidate) {
            Some(i) => i,
            None => {
                if candidate >= self.max_states {
                    return Err(Abort::Error(ReachError::StateLimit {
                        limit: self.max_states,
                        visited: src,
                    }));
                }
                if self.safe && self.net.multi.iter().zip(next).any(|(&m, &w)| w & m != 0) {
                    self.safe = false;
                }
                // Incremental enabled set: carry over every transition
                // whose pre-places `t` did not touch, recheck the rest.
                let en_src = &self.enabled[src * self.t_words..(src + 1) * self.t_words];
                let keep = &self.net.keep[t.0 * self.t_words..(t.0 + 1) * self.t_words];
                for (s, (&e, &k)) in self.scratch_en.iter_mut().zip(en_src.iter().zip(keep)) {
                    *s = e & k;
                }
                let (rs, re) = self.net.recheck_range[t.0];
                for &u in &self.net.recheck[rs as usize..re as usize] {
                    if self.net.enabled(next, TransitionId(u as usize)) {
                        self.scratch_en[u as usize / 64] |= 1u64 << (u % 64);
                    }
                }
                self.arena.extend_from_slice(next);
                self.enabled.extend_from_slice(&self.scratch_en);
                self.parent.push(Some((src, t)));
                candidate
            }
        };
        self.edge_arcs.push((self.events[t.0], StateId(dst)));
        Ok(())
    }

    /// Expands the frontier states `lo..hi` of one BFS level.
    fn expand_level(&mut self, lo: usize, hi: usize) -> Result<(), Abort> {
        let stride = self.stride;
        let mut cur = vec![0u64; stride];
        let mut cur_en = vec![0u64; self.t_words];
        let mut next = vec![0u64; stride];
        for src in lo..hi {
            self.edge_off.push(self.edge_arcs.len());
            // Local copies: the loop then reads stable buffers while the
            // arenas grow behind them.
            cur.copy_from_slice(&self.arena[src * stride..(src + 1) * stride]);
            cur_en.copy_from_slice(&self.enabled[src * self.t_words..(src + 1) * self.t_words]);
            for (w, &bits) in cur_en.iter().enumerate() {
                let mut bits = bits;
                while bits != 0 {
                    let t = TransitionId(w * 64 + bits.trailing_zeros() as usize);
                    bits &= bits - 1;
                    self.fired[t.0] = true;
                    if let Some(f) = self.net.fire(self.stg, &cur, t, &mut next) {
                        return Err(self.fault(f, src));
                    }
                    self.intern(src, t, &next)?;
                }
            }
        }
        Ok(())
    }
}

pub(crate) fn explore_packed(stg: &Stg, config: &ReachConfig) -> Result<Exploration, ReachError> {
    // Speculate on the narrow field layout first (1-safe nets, i.e. all
    // of practice, quarter their arena footprint this way); a layout
    // overflow restarts once at the width that can represent every legal
    // token count. Both attempts explore in identical BFS order, so the
    // restart is invisible in the output.
    let narrow = narrow_width(stg);
    let full = full_width(stg, config.max_tokens);
    match explore_packed_at(stg, config, narrow.min(full)) {
        Err(Abort::Widen) => {
            debug_assert!(narrow < full, "full-width runs cannot ask to widen");
            match explore_packed_at(stg, config, full) {
                Ok(exploration) => Ok(exploration),
                Err(Abort::Error(e)) => Err(e),
                Err(Abort::Widen) => unreachable!("full-width runs cannot ask to widen"),
            }
        }
        Ok(exploration) => Ok(exploration),
        Err(Abort::Error(e)) => Err(e),
    }
}

fn explore_packed_at(stg: &Stg, config: &ReachConfig, width: u32) -> Result<Exploration, Abort> {
    let mut explorer = PackedExplorer::new(stg, config, width);
    let mut level_start = 0usize;
    while level_start < explorer.count() {
        let level_end = explorer.count();
        explorer.expand_level(level_start, level_end)?;
        level_start = level_end;
    }
    explorer.edge_off.push(explorer.edge_arcs.len());
    Ok(Exploration {
        count: explorer.count(),
        parent: explorer.parent,
        edge_off: explorer.edge_off,
        edge_arcs: explorer.edge_arcs,
        fired: explorer.fired,
        safe: explorer.safe,
        spill: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_g;
    use simap_sg::check_all;

    const RING: &str = "\
.model ring
.inputs a
.outputs b
.graph
a+ b+
b+ a-
a- b-
b- a+
.marking { <b-,a+> }
.end
";

    fn both_strategies() -> [ReachConfig; 2] {
        [
            ReachConfig::default(),
            ReachConfig { strategy: ReachStrategy::Explicit, ..ReachConfig::default() },
        ]
    }

    #[test]
    fn ring_elaborates_to_four_states() {
        let stg = parse_g(RING).unwrap();
        for config in both_strategies() {
            let sg = elaborate_with(&stg, &config).unwrap();
            assert_eq!(sg.state_count(), 4, "{}", config.strategy);
            assert!(check_all(&sg).is_ok());
            // Initial: a+ enabled => a=0; b not yet enabled... b first
            // enabled after a+ with pre-value 0, so initial code is 00.
            assert_eq!(sg.code(sg.initial()), 0);
        }
    }

    #[test]
    fn concurrent_fork_join() {
        let src = "\
.model fj
.inputs a
.outputs b c d
.graph
a+ b+ c+
b+ d+
c+ d+
d+ a-
a- b- c-
b- d-
c- d-
d- a+
.marking { <d-,a+> }
.end
";
        let stg = parse_g(src).unwrap();
        for config in both_strategies() {
            let sg = elaborate_with(&stg, &config).unwrap();
            // Concurrency diamond on both phases: 10 reachable markings.
            assert_eq!(sg.state_count(), 10, "{}", config.strategy);
            let report = check_all(&sg);
            assert!(report.is_ok(), "{:?}", report.violations);
        }
    }

    #[test]
    fn initial_values_inferred() {
        // Start mid-cycle: marking after a+: b+ is enabled first; a starts 1.
        let src = "\
.model mid
.inputs a
.outputs b
.graph
a+ b+
b+ a-
a- b-
b- a+
.marking { <a+,b+> }
.end
";
        let stg = parse_g(src).unwrap();
        for config in both_strategies() {
            let sg = elaborate_with(&stg, &config).unwrap();
            let a = sg.signal_by_name("a").unwrap();
            let b = sg.signal_by_name("b").unwrap();
            assert!(sg.value(sg.initial(), a));
            assert!(!sg.value(sg.initial(), b));
        }
    }

    #[test]
    fn unbounded_detected_identically() {
        // A transition that only produces tokens.
        let src = "\
.model unb
.inputs a
.graph
p a+
a+ p q
q a-
a- p
.marking { p }
.end
";
        let stg = parse_g(src).unwrap();
        let errs: Vec<ReachError> = both_strategies()
            .map(|config| {
                elaborate_with(&stg, &ReachConfig { max_states: 10_000, max_tokens: 3, ..config })
                    .unwrap_err()
            })
            .into();
        assert!(
            matches!(errs[0], ReachError::Unbounded { .. } | ReachError::StateLimit { .. }),
            "{:?}",
            errs[0]
        );
        assert_eq!(errs[0], errs[1], "strategies must report the same error");
    }

    #[test]
    fn state_limit_enforced() {
        let stg = parse_g(RING).unwrap();
        for config in both_strategies() {
            let err = elaborate_with(&stg, &ReachConfig { max_states: 2, max_tokens: 1, ..config })
                .unwrap_err();
            assert!(
                matches!(err, ReachError::StateLimit { limit: 2, .. }),
                "{}: {err:?}",
                config.strategy
            );
        }
    }

    #[test]
    fn error_messages_name_the_context() {
        // Satellite pin: StateLimit reports the configured limit and the
        // progress made; Unbounded names the place and both bounds.
        let stg = parse_g(RING).unwrap();
        let err = elaborate_with(
            &stg,
            &ReachConfig { max_states: 2, max_tokens: 1, ..Default::default() },
        )
        .unwrap_err();
        assert_eq!(err, ReachError::StateLimit { limit: 2, visited: 1 });
        assert_eq!(
            err.to_string(),
            "more than 2 reachable markings (state limit 2 hit after 1 marking(s) were fully \
             explored; raise ReachConfig::max_states to go further)"
        );

        let unb = "\
.model unb
.inputs a
.graph
p a+
a+ p q
q a-
a- p
.marking { p }
.end
";
        let stg = parse_g(unb).unwrap();
        let err = elaborate_with(
            &stg,
            &ReachConfig { max_states: 10_000, max_tokens: 2, ..Default::default() },
        )
        .unwrap_err();
        let ReachError::Unbounded { ref place, max_tokens, visited } = err else {
            panic!("expected Unbounded, got {err:?}");
        };
        assert_eq!((place.as_str(), max_tokens), ("q", 2));
        assert_eq!(
            err.to_string(),
            format!(
                "place `q` exceeds the token bound of 2 after {visited} marking(s) were \
                 explored: the net looks unbounded"
            )
        );
    }

    #[test]
    fn inconsistent_stg_rejected() {
        // a+ twice in a row without a-.
        let src = "\
.model bad
.inputs a
.graph
a+ a+/2
a+/2 a-
a- a+
.marking { <a-,a+> }
.end
";
        let stg = parse_g(src).unwrap();
        for config in both_strategies() {
            let err = elaborate_with(&stg, &config).unwrap_err();
            assert!(matches!(err, ReachError::Inconsistent { .. }), "{}", config.strategy);
        }
    }

    #[test]
    fn stats_report_visited_and_interned() {
        let stg = parse_g(RING).unwrap();
        for config in both_strategies() {
            let (sg, stats) = elaborate_with_stats(&stg, &config).unwrap();
            assert_eq!(stats.visited, 4);
            assert_eq!(stats.interned, sg.state_count());
            assert_eq!(stats.edges, 4);
            assert_eq!(stats.strategy, config.strategy);
        }
    }

    #[test]
    fn packed_fields_hold_initial_tokens_beyond_the_bound() {
        // The oracle stores the initial marking unchecked and only bounds
        // increments; the packed layout must widen its fields accordingly.
        let src = "\
.model wide
.inputs a
.graph
p a+
a+ q
q a-
a- p
.marking { p=5 }
.end
";
        let stg = parse_g(src).unwrap();
        for config in both_strategies() {
            let result = elaborate_with(&stg, &ReachConfig { max_tokens: 3, ..config })
                .map(|sg| sg.state_count());
            let oracle = elaborate_with(
                &stg,
                &ReachConfig {
                    max_tokens: 3,
                    strategy: ReachStrategy::Explicit,
                    ..ReachConfig::default()
                },
            )
            .map(|sg| sg.state_count());
            assert_eq!(result, oracle, "{}", config.strategy);
        }
    }

    #[test]
    fn strategy_parses_and_displays() {
        assert_eq!("packed".parse::<ReachStrategy>().unwrap(), ReachStrategy::Packed);
        assert_eq!("explicit".parse::<ReachStrategy>().unwrap(), ReachStrategy::Explicit);
        assert_eq!("symbolic".parse::<ReachStrategy>().unwrap(), ReachStrategy::Symbolic);
        assert_eq!("spill".parse::<ReachStrategy>().unwrap(), ReachStrategy::Spill);
        assert!("fancy".parse::<ReachStrategy>().is_err());
        assert_eq!(ReachStrategy::Packed.to_string(), "packed");
        assert_eq!(ReachStrategy::Symbolic.to_string(), "symbolic");
        assert_eq!(ReachStrategy::Spill.to_string(), "spill");
        assert_eq!(ReachStrategy::default(), ReachStrategy::Packed);
    }

    #[test]
    fn symbolic_error_messages_name_the_context() {
        // Satellite pin: the symbolic-only error family names the place /
        // the counts and points at the escape hatch.
        let err = ReachError::NotSafe { place: "q".to_string() };
        assert_eq!(
            err.to_string(),
            "place `q` can hold more than one token: the symbolic engine only supports \
             1-safe nets (use the packed or explicit strategy)"
        );
        let err = ReachError::MaterializeLimit { states: 1 << 22, limit: 1000 };
        assert_eq!(
            err.to_string(),
            "4194304 reachable markings exceed the materialization threshold of 1000; raise \
             ReachConfig::materialize_limit or use the symbolic summary \
             (simap_stg::symbolic::reach_symbolic) for counts without a graph"
        );
    }
}
