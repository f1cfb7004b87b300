//! The State Graph (SG) model of §2.1.

use crate::signal::{Event, Signal, SignalId, SignalKind};
use std::collections::HashMap;
use std::fmt;

/// Index of a state within a [`StateGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StateId(pub usize);

/// A labeled directed graph whose nodes are states (each labeled with a
/// binary signal vector) and whose arcs are labeled with signal
/// transitions.
///
/// Codes assign bit `i` to signal `i`; up to 64 signals are supported.
///
/// Arcs are stored in compressed sparse row form — one flat, sorted arc
/// array per direction plus per-state offsets — so bulk construction
/// (reachability produces tens of thousands of arcs) costs two sorts
/// instead of one heap allocation per state, and traversals scan
/// contiguous memory.
#[derive(Debug, Clone)]
pub struct StateGraph {
    signals: Vec<Signal>,
    codes: Vec<u64>,
    /// `succ_arcs[succ_off[s]..succ_off[s+1]]` are the outgoing arcs of
    /// state `s`, sorted and deduplicated.
    succ_off: Vec<usize>,
    succ_arcs: Vec<(Event, StateId)>,
    /// Incoming arcs, same layout keyed by target state.
    pred_off: Vec<usize>,
    pred_arcs: Vec<(Event, StateId)>,
    initial: StateId,
    name: String,
}

/// Errors produced when building a state graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildSgError {
    /// More than 64 signals.
    TooManySignals(usize),
    /// A duplicate signal name.
    DuplicateSignal(String),
    /// The graph has no states.
    Empty,
    /// [`StateGraph::from_csr_parts`] was fed successor offsets that do
    /// not group the arcs by source state.
    UngroupedArcs,
}

impl fmt::Display for BuildSgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildSgError::TooManySignals(n) => write!(f, "too many signals: {n} (max 64)"),
            BuildSgError::DuplicateSignal(s) => write!(f, "duplicate signal name `{s}`"),
            BuildSgError::Empty => write!(f, "state graph has no states"),
            BuildSgError::UngroupedArcs => {
                write!(f, "successor offsets must rise monotonically and cover every arc")
            }
        }
    }
}

impl std::error::Error for BuildSgError {}

/// Incremental builder for [`StateGraph`].
///
/// The code→state index consulted by [`StateGraphBuilder::state_for_code`]
/// is built lazily on first use, so bulk construction paths that only call
/// [`StateGraphBuilder::add_state`] / [`StateGraphBuilder::add_states`] —
/// like the packed reachability engine, which already interns markings
/// itself — pay nothing for it.
#[derive(Debug, Clone)]
pub struct StateGraphBuilder {
    signals: Vec<Signal>,
    codes: Vec<u64>,
    arcs: Vec<(StateId, Event, StateId)>,
    by_code: Option<HashMap<u64, StateId>>,
    name: String,
}

impl StateGraphBuilder {
    /// Starts a builder with the given signal declarations.
    ///
    /// # Errors
    /// Fails if there are more than 64 signals or duplicate names.
    pub fn new(name: impl Into<String>, signals: Vec<Signal>) -> Result<Self, BuildSgError> {
        Self::with_capacity(name, signals, 0, 0)
    }

    /// Like [`StateGraphBuilder::new`], pre-reserving room for `states`
    /// states and `arcs` arcs (the bulk-construction entry point used when
    /// the caller — e.g. reachability — already knows both counts).
    ///
    /// # Errors
    /// Fails if there are more than 64 signals or duplicate names.
    pub fn with_capacity(
        name: impl Into<String>,
        signals: Vec<Signal>,
        states: usize,
        arcs: usize,
    ) -> Result<Self, BuildSgError> {
        validate_signals(&signals)?;
        Ok(StateGraphBuilder {
            signals,
            codes: Vec::with_capacity(states),
            arcs: Vec::with_capacity(arcs),
            by_code: None,
            name: name.into(),
        })
    }

    /// Adds a state labeled with `code`; states with equal codes are
    /// distinct nodes (needed before CSC holds).
    pub fn add_state(&mut self, code: u64) -> StateId {
        let id = StateId(self.codes.len());
        self.codes.push(code);
        if let Some(by_code) = &mut self.by_code {
            by_code.entry(code).or_insert(id);
        }
        id
    }

    /// Bulk-appends states labeled with `codes`, in order.
    pub fn add_states(&mut self, codes: impl IntoIterator<Item = u64>) {
        for code in codes {
            self.add_state(code);
        }
    }

    /// Returns an existing state with this code or adds one. Only sensible
    /// for graphs known to satisfy unique state coding per marking.
    pub fn state_for_code(&mut self, code: u64) -> StateId {
        let by_code = self.by_code.get_or_insert_with(|| {
            let mut map = HashMap::with_capacity(self.codes.len());
            for (i, &c) in self.codes.iter().enumerate() {
                map.entry(c).or_insert(StateId(i));
            }
            map
        });
        if let Some(&id) = by_code.get(&code) {
            return id;
        }
        let id = StateId(self.codes.len());
        self.codes.push(code);
        by_code.insert(code, id);
        id
    }

    /// Adds an arc `src --event--> dst`.
    pub fn add_arc(&mut self, src: StateId, event: Event, dst: StateId) {
        self.arcs.push((src, event, dst));
    }

    /// Finishes the graph with `initial` as initial state.
    ///
    /// # Errors
    /// Fails if no state was added.
    pub fn build(self, initial: StateId) -> Result<StateGraph, BuildSgError> {
        if self.codes.is_empty() {
            return Err(BuildSgError::Empty);
        }
        let n = self.codes.len();
        let (succ_off, succ_arcs) = csr(n, &self.arcs, |&(src, ev, dst)| (src.0, (ev, dst)));
        let (pred_off, pred_arcs) = csr(n, &self.arcs, |&(src, ev, dst)| (dst.0, (ev, src)));
        Ok(StateGraph {
            signals: self.signals,
            codes: self.codes,
            succ_off,
            succ_arcs,
            pred_off,
            pred_arcs,
            initial,
            name: self.name,
        })
    }
}

/// Shared signal validation of the state-graph constructors.
fn validate_signals(signals: &[Signal]) -> Result<(), BuildSgError> {
    if signals.len() > 64 {
        return Err(BuildSgError::TooManySignals(signals.len()));
    }
    let mut seen = std::collections::HashSet::new();
    for s in signals {
        if !seen.insert(s.name.as_str()) {
            return Err(BuildSgError::DuplicateSignal(s.name.clone()));
        }
    }
    Ok(())
}

/// Sorts every CSR segment and — only when duplicates actually exist —
/// compacts them out in place (`write` never overtakes the read index,
/// so the overwriting is safe). Duplicate-free input, the common case,
/// costs the sorts alone. `visit` sees every segment right after its
/// sort, while it is cache-hot (the pred builder counts degrees there).
fn sort_and_compact(
    n: usize,
    off: Vec<usize>,
    mut flat: Vec<(Event, StateId)>,
    mut visit: impl FnMut(&[(Event, StateId)]),
) -> (Vec<usize>, Vec<(Event, StateId)>) {
    let mut has_dup = false;
    for s in 0..n {
        let seg = &mut flat[off[s]..off[s + 1]];
        if seg.len() > 1 {
            seg.sort_unstable();
            has_dup |= seg.windows(2).any(|w| w[0] == w[1]);
        }
        visit(seg);
    }
    if !has_dup {
        return (off, flat);
    }
    let mut out_off = vec![0usize; n + 1];
    let mut write = 0usize;
    for s in 0..n {
        out_off[s] = write;
        let mut prev = None;
        for i in off[s]..off[s + 1] {
            let arc = flat[i];
            if prev != Some(arc) {
                flat[write] = arc;
                write += 1;
                prev = Some(arc);
            }
        }
    }
    out_off[n] = write;
    flat.truncate(write);
    (out_off, flat)
}

/// Builds one compressed-sparse-row direction by counting sort: count
/// per-key degrees, prefix-sum into offsets, scatter, then sort and
/// deduplicate each (small) segment in place. Linear in the arc count
/// plus the per-segment sorts — no global comparison sort, no per-state
/// allocation.
fn csr(
    n: usize,
    arcs: &[(StateId, Event, StateId)],
    key: impl Fn(&(StateId, Event, StateId)) -> (usize, (Event, StateId)),
) -> (Vec<usize>, Vec<(Event, StateId)>) {
    let mut off = vec![0usize; n + 1];
    if arcs.is_empty() {
        return (off, Vec::new());
    }
    for arc in arcs {
        off[key(arc).0 + 1] += 1;
    }
    for i in 0..n {
        off[i + 1] += off[i];
    }
    let mut flat = vec![key(&arcs[0]).1; arcs.len()];
    let mut cursor = off.clone();
    for arc in arcs {
        let (k, v) = key(arc);
        flat[cursor[k]] = v;
        cursor[k] += 1;
    }
    sort_and_compact(n, off, flat, |_| ())
}

impl StateGraph {
    /// The bulk constructor: per-state codes plus ready-made
    /// successor CSR parts (`succ_off[s]..succ_off[s+1]` indexing `arcs`;
    /// per-state arc order arbitrary). Sorts and deduplicates each
    /// segment and derives the predecessor direction, producing exactly
    /// the graph the equivalent [`StateGraphBuilder`] sequence would.
    ///
    /// # Errors
    /// The [`StateGraphBuilder::new`] validations, plus
    /// [`BuildSgError::UngroupedArcs`] when `succ_off` is not a monotone
    /// cover of `arcs` (wrong length, decreasing, or not ending at
    /// `arcs.len()`).
    pub fn from_csr_parts(
        name: impl Into<String>,
        signals: Vec<Signal>,
        codes: Vec<u64>,
        initial: StateId,
        succ_off: Vec<usize>,
        arcs: Vec<(Event, StateId)>,
    ) -> Result<StateGraph, BuildSgError> {
        validate_signals(&signals)?;
        if codes.is_empty() {
            return Err(BuildSgError::Empty);
        }
        let n = codes.len();
        if succ_off.len() != n + 1
            || succ_off[0] != 0
            || succ_off[n] != arcs.len()
            || succ_off.windows(2).any(|w| w[0] > w[1])
        {
            return Err(BuildSgError::UngroupedArcs);
        }
        // The successor sort pass doubles as the predecessor degree
        // count (each segment is cache-hot right after its sort).
        let before = arcs.len();
        let mut pred_off = vec![0usize; n + 1];
        let (succ_off, succ_arcs) = sort_and_compact(n, succ_off, arcs, |seg| {
            for &(_, dst) in seg {
                pred_off[dst.0 + 1] += 1;
            }
        });
        if succ_arcs.len() != before {
            // Duplicates were compacted away after the count: redo it.
            pred_off.iter_mut().for_each(|c| *c = 0);
            for &(_, dst) in &succ_arcs {
                pred_off[dst.0 + 1] += 1;
            }
        }
        for i in 0..n {
            pred_off[i + 1] += pred_off[i];
        }
        let mut pred_flat = vec![(Event::rise(SignalId(0)), StateId(0)); succ_arcs.len()];
        let mut cursor = pred_off.clone();
        for s in 0..n {
            for &(ev, dst) in &succ_arcs[succ_off[s]..succ_off[s + 1]] {
                pred_flat[cursor[dst.0]] = (ev, StateId(s));
                cursor[dst.0] += 1;
            }
        }
        let (pred_off, pred_arcs) = sort_and_compact(n, pred_off, pred_flat, |_| ());

        Ok(StateGraph {
            signals,
            codes,
            succ_off,
            succ_arcs,
            pred_off,
            pred_arcs,
            initial,
            name: name.into(),
        })
    }
    /// Name of the specification.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The declared signals.
    pub fn signals(&self) -> &[Signal] {
        &self.signals
    }

    /// Number of signals.
    pub fn signal_count(&self) -> usize {
        self.signals.len()
    }

    /// Number of states.
    pub fn state_count(&self) -> usize {
        self.codes.len()
    }

    /// All state ids.
    pub fn states(&self) -> impl Iterator<Item = StateId> {
        (0..self.codes.len()).map(StateId)
    }

    /// Number of (deduplicated) arcs.
    pub fn arc_count(&self) -> usize {
        self.succ_arcs.len()
    }

    /// The initial state.
    pub fn initial(&self) -> StateId {
        self.initial
    }

    /// The binary code labeling a state.
    pub fn code(&self, s: StateId) -> u64 {
        self.codes[s.0]
    }

    /// Value of `signal` in state `s`.
    pub fn value(&self, s: StateId, signal: SignalId) -> bool {
        self.codes[s.0] >> signal.0 & 1 == 1
    }

    /// Outgoing arcs of `s`, sorted by `(Event, StateId)` and free of
    /// duplicates, whichever constructor built the graph. Arcs with one
    /// event are therefore adjacent, and the first of them has the
    /// smallest target; the property checks merge these slices.
    pub fn succ(&self, s: StateId) -> &[(Event, StateId)] {
        &self.succ_arcs[self.succ_off[s.0]..self.succ_off[s.0 + 1]]
    }

    /// Incoming arcs of `s` as `(event, source)`, sorted by
    /// `(Event, StateId)` and free of duplicates, like [`Self::succ`].
    pub fn pred(&self, s: StateId) -> &[(Event, StateId)] {
        &self.pred_arcs[self.pred_off[s.0]..self.pred_off[s.0 + 1]]
    }

    /// Whether `event` is enabled (has an outgoing arc) at `s`.
    pub fn enabled(&self, s: StateId, event: Event) -> bool {
        self.succ(s).iter().any(|&(e, _)| e == event)
    }

    /// The target of `event` from `s`, if enabled (deterministic graphs
    /// have at most one).
    pub fn fire(&self, s: StateId, event: Event) -> Option<StateId> {
        self.succ(s).iter().find(|&&(e, _)| e == event).map(|&(_, t)| t)
    }

    /// Whether signal `a` is *excited* at `s` (some transition of `a` is
    /// enabled).
    pub fn excited(&self, s: StateId, signal: SignalId) -> bool {
        self.succ(s).iter().any(|&(e, _)| e.signal == signal)
    }

    /// Whether signal `a` is *stable* at `s` (not excited).
    pub fn stable(&self, s: StateId, signal: SignalId) -> bool {
        !self.excited(s, signal)
    }

    /// Events enabled at `s`.
    pub fn enabled_events(&self, s: StateId) -> Vec<Event> {
        let mut evs: Vec<Event> = self.succ(s).iter().map(|&(e, _)| e).collect();
        evs.sort();
        evs.dedup();
        evs
    }

    /// Output/internal events enabled at `s` (used by the CSC check).
    pub fn enabled_non_input_events(&self, s: StateId) -> Vec<Event> {
        self.enabled_events(s)
            .into_iter()
            .filter(|e| self.signals[e.signal.0].kind.is_implementable())
            .collect()
    }

    /// Looks a signal up by name.
    pub fn signal_by_name(&self, name: &str) -> Option<SignalId> {
        self.signals.iter().position(|s| s.name == name).map(SignalId)
    }

    /// The ids of all signals of a given kind.
    pub fn signals_of_kind(&self, kind: SignalKind) -> Vec<SignalId> {
        self.signals
            .iter()
            .enumerate()
            .filter(|(_, s)| s.kind == kind)
            .map(|(i, _)| SignalId(i))
            .collect()
    }

    /// All signals the circuit must implement (outputs + internals).
    pub fn implementable_signals(&self) -> Vec<SignalId> {
        self.signals
            .iter()
            .enumerate()
            .filter(|(_, s)| s.kind.is_implementable())
            .map(|(i, _)| SignalId(i))
            .collect()
    }

    /// Collects the distinct codes of all states (the reachable universe
    /// for two-level minimization).
    pub fn reachable_codes(&self) -> Vec<u64> {
        let mut codes = self.codes.clone();
        codes.sort_unstable();
        codes.dedup();
        codes
    }

    /// States whose code satisfies `pred`.
    pub fn states_where(&self, mut pred: impl FnMut(u64) -> bool) -> Vec<StateId> {
        self.states().filter(|&s| pred(self.code(s))).collect()
    }

    /// Renders an event with its signal name (`req+`).
    pub fn event_name(&self, e: Event) -> String {
        e.display_with(|s| self.signals[s.0].name.clone())
    }

    /// Renders a state as `name:code` with the code shown
    /// most-significant-signal first.
    pub fn state_label(&self, s: StateId) -> String {
        let code = self.code(s);
        let bits: String = (0..self.signal_count())
            .rev()
            .map(|i| if code >> i & 1 == 1 { '1' } else { '0' })
            .collect();
        format!("{}({})", s.0, bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> StateGraph {
        // Two signals a (input), b (output); cycle a+ b+ a- b-.
        let mut b = StateGraphBuilder::new(
            "toy",
            vec![Signal::new("a", SignalKind::Input), Signal::new("b", SignalKind::Output)],
        )
        .unwrap();
        let s00 = b.add_state(0b00);
        let s01 = b.add_state(0b01);
        let s11 = b.add_state(0b11);
        let s10 = b.add_state(0b10);
        let a = SignalId(0);
        let bb = SignalId(1);
        b.add_arc(s00, Event::rise(a), s01);
        b.add_arc(s01, Event::rise(bb), s11);
        b.add_arc(s11, Event::fall(a), s10);
        b.add_arc(s10, Event::fall(bb), s00);
        b.build(s00).unwrap()
    }

    #[test]
    fn basic_structure() {
        let g = toy();
        assert_eq!(g.state_count(), 4);
        assert_eq!(g.signal_count(), 2);
        assert_eq!(g.initial(), StateId(0));
        assert!(g.enabled(StateId(0), Event::rise(SignalId(0))));
        assert_eq!(g.fire(StateId(0), Event::rise(SignalId(0))), Some(StateId(1)));
        assert!(g.excited(StateId(1), SignalId(1)));
        assert!(g.stable(StateId(0), SignalId(1)));
    }

    #[test]
    fn signal_lookup_and_kinds() {
        let g = toy();
        assert_eq!(g.signal_by_name("b"), Some(SignalId(1)));
        assert_eq!(g.signal_by_name("zzz"), None);
        assert_eq!(g.implementable_signals(), vec![SignalId(1)]);
        assert_eq!(g.signals_of_kind(SignalKind::Input), vec![SignalId(0)]);
    }

    #[test]
    fn codes_and_values() {
        let g = toy();
        // state 1 has code 0b01: a=1, b=0.
        assert!(g.value(StateId(1), SignalId(0)));
        assert!(!g.value(StateId(1), SignalId(1)));
        assert_eq!(g.reachable_codes(), vec![0, 1, 2, 3]);
        assert_eq!(g.states_where(|c| c & 1 == 1).len(), 2);
    }

    #[test]
    fn builder_validation() {
        assert!(matches!(
            StateGraphBuilder::new(
                "dup",
                vec![Signal::new("x", SignalKind::Input), Signal::new("x", SignalKind::Output)]
            ),
            Err(BuildSgError::DuplicateSignal(_))
        ));
        let b = StateGraphBuilder::new("empty", vec![]).unwrap();
        assert!(matches!(b.build(StateId(0)), Err(BuildSgError::Empty)));
    }

    #[test]
    fn event_and_state_labels() {
        let g = toy();
        assert_eq!(g.event_name(Event::rise(SignalId(1))), "b+");
        assert_eq!(g.state_label(StateId(2)), "2(11)");
    }

    #[test]
    fn arc_count_counts_deduplicated_arcs() {
        let g = toy();
        assert_eq!(g.arc_count(), 4);
    }

    #[test]
    fn bulk_add_states_matches_incremental() {
        let mut b = StateGraphBuilder::with_capacity(
            "bulk",
            vec![Signal::new("a", SignalKind::Input)],
            3,
            2,
        )
        .unwrap();
        b.add_states([0b0, 0b1, 0b0]);
        b.add_arc(StateId(0), Event::rise(SignalId(0)), StateId(1));
        b.add_arc(StateId(1), Event::fall(SignalId(0)), StateId(2));
        let g = b.build(StateId(0)).unwrap();
        assert_eq!(g.state_count(), 3);
        assert_eq!(g.arc_count(), 2);
        assert_eq!(g.code(StateId(2)), 0);
    }

    /// Every constructor yields the documented arc order: successor and
    /// predecessor slices sorted by `(Event, StateId)` and deduplicated,
    /// however the arcs were fed in.
    #[test]
    fn constructors_sort_and_deduplicate_arcs() {
        let signals: Vec<Signal> =
            (0..3).map(|i| Signal::new(format!("x{i}"), SignalKind::Output)).collect();
        let codes: Vec<u64> = (0..8).collect();
        // Every single-bit toggle, plus a few extra arcs that reuse an
        // event towards another target (sorted after the consistent one
        // or before it).
        let mut arcs: Vec<(StateId, Event, StateId)> = Vec::new();
        for s in 0..8usize {
            for i in 0..3 {
                let rising = s >> i & 1 == 0;
                arcs.push((StateId(s), Event { signal: SignalId(i), rising }, StateId(s ^ 1 << i)));
            }
            arcs.push((StateId(s), Event::rise(SignalId(s % 3)), StateId(7 - s)));
        }
        // Shuffle deterministically and duplicate every third arc.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut fed = arcs.clone();
        fed.extend(arcs.iter().step_by(3).copied());
        for i in (1..fed.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            fed.swap(i, (state % (i as u64 + 1)) as usize);
        }

        let mut b = StateGraphBuilder::new("order", signals.clone()).unwrap();
        b.add_states(codes.iter().copied());
        for &(src, e, dst) in &fed {
            b.add_arc(src, e, dst);
        }
        let built = b.build(StateId(0)).unwrap();

        let mut succ_off = vec![0usize; codes.len() + 1];
        for &(src, _, _) in &fed {
            succ_off[src.0 + 1] += 1;
        }
        for i in 0..codes.len() {
            succ_off[i + 1] += succ_off[i];
        }
        let mut cursor = succ_off.clone();
        let mut flat = vec![(Event::rise(SignalId(0)), StateId(0)); fed.len()];
        for &(src, e, dst) in &fed {
            flat[cursor[src.0]] = (e, dst);
            cursor[src.0] += 1;
        }
        let from_csr =
            StateGraph::from_csr_parts("order", signals, codes, StateId(0), succ_off, flat)
                .unwrap();

        assert_eq!(built.arc_count(), arcs.len());
        for s in built.states() {
            for slice in [built.succ(s), built.pred(s)] {
                assert!(slice.windows(2).all(|w| w[0] < w[1]), "state {s:?}: {slice:?}");
            }
            let mut expected: Vec<(Event, StateId)> =
                arcs.iter().filter(|a| a.0 == s).map(|&(_, e, t)| (e, t)).collect();
            expected.sort_unstable();
            assert_eq!(built.succ(s), &expected[..]);
            assert_eq!(from_csr.succ(s), built.succ(s));
            assert_eq!(from_csr.pred(s), built.pred(s));
        }
    }

    #[test]
    fn state_for_code_sees_bulk_added_states() {
        // The lazy code index must cover states added before its first use
        // and stay consistent afterwards.
        let mut b =
            StateGraphBuilder::new("lazy", vec![Signal::new("a", SignalKind::Input)]).unwrap();
        let s0 = b.add_state(0b0);
        assert_eq!(b.state_for_code(0b0), s0, "existing state is found");
        let s1 = b.state_for_code(0b1);
        assert_eq!(b.state_for_code(0b1), s1, "new state is remembered");
        let s2 = b.add_state(0b10);
        assert_eq!(b.state_for_code(0b10), s2, "post-index additions are indexed too");
    }

    #[test]
    fn pred_mirrors_succ() {
        let g = toy();
        for s in g.states() {
            for &(e, t) in g.succ(s) {
                assert!(g.pred(t).contains(&(e, s)));
            }
        }
    }
}
