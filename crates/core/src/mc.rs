//! Monotonous-cover synthesis (§2.2): derives, for every implementable
//! signal, either a *complete cover* (combinational implementation, Fig.
//! 2b/c) or per-excitation-region set/reset covers for the standard-C
//! architecture (Fig. 2a).

use simap_boolean::{Cover, MinimizeProblem};
use simap_sg::{regions_of, Event, Region, SignalId, StateGraph, StateId, StateSet};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// A cover for one group of excitation regions of an event.
#[derive(Debug, Clone)]
pub struct RegionCover {
    /// The covered event (`a+` or `a-`).
    pub event: Event,
    /// Indices of the excitation regions this cover serves (usually one;
    /// several when shared codes force a merged cover).
    pub region_indices: Vec<usize>,
    /// The monotonous cover function over signal variables.
    pub cover: Cover,
    /// Gate complexity: `min(literals(F), literals(F̄))` (§4 model).
    pub complexity: usize,
}

/// Implementation body of one signal.
#[derive(Debug, Clone)]
pub enum SignalBody {
    /// The cover is *complete*: set and reset networks are complements, the
    /// C element degenerates to a wire and the signal is one combinational
    /// gate (which may feed back on itself for state-holding functions).
    Combinational {
        /// Next-state function of the signal.
        cover: Cover,
        /// `min(literals(F), literals(F̄))`.
        complexity: usize,
    },
    /// Standard-C: first-level covers per excitation region feeding the
    /// set/reset inputs of a C element through OR gates.
    StandardC {
        /// Covers of the rising excitation regions (set network).
        set: Vec<RegionCover>,
        /// Covers of the falling excitation regions (reset network).
        reset: Vec<RegionCover>,
    },
}

/// Implementation of one signal.
#[derive(Debug, Clone)]
pub struct SignalImpl {
    /// The implemented signal.
    pub signal: SignalId,
    /// Its body.
    pub body: SignalBody,
}

impl SignalImpl {
    /// The region covers of a standard-C body, set then reset; empty for a
    /// combinational body, whose one gate is its next-state cover.
    pub fn covers(&self) -> Vec<&RegionCover> {
        match &self.body {
            SignalBody::Combinational { .. } => Vec::new(),
            SignalBody::StandardC { set, reset } => set.iter().chain(reset.iter()).collect(),
        }
    }

    /// Every gate of this signal as `(event, cover, complexity)`: the one
    /// next-state gate of a combinational body (under the signal's rising
    /// event), or a standard-C body's set covers followed by its reset
    /// covers.
    pub(crate) fn gates(&self) -> impl Iterator<Item = (Event, &Cover, usize)> + '_ {
        let (combinational, set, reset): (_, &[RegionCover], &[RegionCover]) = match &self.body {
            SignalBody::Combinational { cover, complexity } => {
                (Some((Event::rise(self.signal), cover, *complexity)), &[], &[])
            }
            SignalBody::StandardC { set, reset } => (None, set, reset),
        };
        let regions = set.iter().chain(reset).map(|c| (c.event, &c.cover, c.complexity));
        combinational.into_iter().chain(regions)
    }

    /// The cost the synthesizer compares bodies by: first the most complex
    /// gate (the quantity the mapper must fit into the library), then the
    /// total area (a C element ≈ 3 literals, §4; a combinational body's C
    /// element degenerates to a wire).
    pub(crate) fn cost(&self) -> (usize, usize) {
        let c_element = if matches!(self.body, SignalBody::StandardC { .. }) { 3 } else { 0 };
        let area = self.gates().map(|(_, _, c)| c).sum::<usize>() + c_element;
        (self.max_complexity(), area)
    }

    /// The most complex gate of this signal (literals, §4 model).
    pub fn max_complexity(&self) -> usize {
        self.gates().map(|(_, _, c)| c).max().unwrap_or(0)
    }

    /// Total cubes across this signal's first-level covers (the single
    /// next-state cover for combinational signals, set plus reset region
    /// covers for standard-C ones).
    pub fn cube_count(&self) -> usize {
        self.gates().map(|(_, cover, _)| cover.cube_count()).sum()
    }

    /// Total literals across this signal's first-level covers.
    pub fn literal_count(&self) -> usize {
        self.gates().map(|(_, cover, _)| cover.literal_count()).sum()
    }
}

/// A monotonous-cover implementation of a whole specification.
#[derive(Debug, Clone)]
pub struct McImpl {
    /// Per-signal implementations, in signal-id order over implementable
    /// signals.
    pub signals: Vec<SignalImpl>,
}

impl McImpl {
    /// Histogram of gate complexities: `hist[n]` = number of gates needing
    /// exactly `n` literals.
    pub fn gate_histogram(&self) -> Vec<usize> {
        let mut hist = Vec::new();
        let mut bump = |n: usize| {
            if hist.len() <= n {
                hist.resize(n + 1, 0);
            }
            hist[n] += 1;
        };
        for (_, _, complexity) in self.signals.iter().flat_map(SignalImpl::gates) {
            bump(complexity);
        }
        hist
    }

    /// The most complex gate over the whole implementation.
    pub fn max_complexity(&self) -> usize {
        self.signals.iter().map(SignalImpl::max_complexity).max().unwrap_or(0)
    }

    /// All (signal, cover) gates exceeding `limit` literals, most complex
    /// first.
    pub fn gates_over(&self, limit: usize) -> Vec<(SignalId, Event, Cover, usize)> {
        let mut out = Vec::new();
        for s in &self.signals {
            for (event, cover, c) in s.gates().filter(|&(.., c)| c > limit) {
                out.push((s.signal, event, cover.clone(), c));
            }
        }
        out.sort_by_key(|&(_, _, _, c)| std::cmp::Reverse(c));
        out
    }

    /// The implementation of a given signal.
    pub fn signal_impl(&self, signal: SignalId) -> Option<&SignalImpl> {
        self.signals.iter().find(|s| s.signal == signal)
    }
}

/// Errors during monotonous-cover synthesis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum McError {
    /// Two states with the same code require different values of a cover:
    /// a Complete State Coding conflict.
    CscConflict {
        /// The signal whose cover conflicts.
        signal: String,
        /// The shared code.
        code: u64,
    },
}

impl fmt::Display for McError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            McError::CscConflict { signal, code } => {
                write!(f, "CSC conflict on signal `{signal}` at code {code:b}")
            }
        }
    }
}

impl std::error::Error for McError {}

/// Synthesizes monotonous covers for every implementable signal.
///
/// # Errors
/// Returns [`McError::CscConflict`] when the specification lacks CSC.
pub fn synthesize_mc(sg: &StateGraph) -> Result<McImpl, McError> {
    let universe = sg.reachable_codes();
    let signals = sg
        .implementable_signals()
        .into_iter()
        .map(|signal| synthesize_signal_in(sg, &universe, signal))
        .collect::<Result<_, _>>()?;
    Ok(McImpl { signals })
}

/// Synthesizes the implementation of one signal.
///
/// # Errors
/// Returns [`McError::CscConflict`] when the signal's next-state function
/// is ill-defined on some shared code.
pub fn synthesize_signal(sg: &StateGraph, signal: SignalId) -> Result<SignalImpl, McError> {
    synthesize_signal_in(sg, &sg.reachable_codes(), signal)
}

/// [`synthesize_signal`] with the graph's sorted reachable codes
/// ([`StateGraph::reachable_codes`]) computed once by the caller: every
/// cover is minimized over that one universe.
pub(crate) fn synthesize_signal_in(
    sg: &StateGraph,
    universe: &[u64],
    signal: SignalId,
) -> Result<SignalImpl, McError> {
    let name = sg.signals()[signal.0].name.as_str();
    let nvars = sg.signal_count();

    // Next-state partition of the reachable codes, in state order.
    let mut on: Vec<u64> = Vec::new();
    let mut off: Vec<u64> = Vec::new();
    for s in sg.states() {
        let excited_rise = sg.enabled(s, Event::rise(signal));
        let excited_fall = sg.enabled(s, Event::fall(signal));
        let v = sg.value(s, signal);
        if excited_rise || (v && !excited_fall) {
            on.push(sg.code(s));
        } else {
            off.push(sg.code(s));
        }
    }

    // CSC sanity: the full on/off split must be well-defined. The first
    // ON code in state order that is also an OFF code is reported.
    {
        let mut off_sorted = off.clone();
        off_sorted.sort_unstable();
        off_sorted.dedup();
        if let Some(&code) = on.iter().find(|c| off_sorted.binary_search(c).is_ok()) {
            return Err(McError::CscConflict { signal: name.to_string(), code });
        }
    }

    // Combinational candidate: project out the signal's own variable; if
    // the projected on/off sets are disjoint the next-state function does
    // not depend on the signal itself and one combinational gate suffices
    // (complete cover, Fig. 2b/c).
    let mask = !(1u64 << signal.0);
    let on_proj: Vec<u64> = on.iter().map(|c| c & mask).collect();
    let off_proj: Vec<u64> = off.iter().map(|c| c & mask).collect();
    let combinational = MinimizeProblem::new(nvars, on_proj, off_proj).ok().map(|problem| {
        let cover = problem.minimize();
        let complexity = cover.literal_count().min(problem.minimize_complement().literal_count());
        SignalImpl { signal, body: SignalBody::Combinational { cover, complexity } }
    });

    // A signal with no transitions at all is a constant: combinational by
    // construction.
    let has_transitions = sg
        .states()
        .any(|s| sg.enabled(s, Event::rise(signal)) || sg.enabled(s, Event::fall(signal)));
    if !has_transitions {
        return Ok(combinational.expect("constant signal has a trivial cover"));
    }

    // Standard-C candidate: per-region set/reset covers plus a C element,
    // all minimized over the one sorted universe of reachable codes.
    let set = region_covers(sg, universe, Event::rise(signal), name)?;
    let reset = region_covers(sg, universe, Event::fall(signal), name)?;
    let standard_c = SignalImpl { signal, body: SignalBody::StandardC { set, reset } };

    // Pick the cheaper body by `SignalImpl::cost`. Ties prefer the
    // combinational form, whose C element degenerates to a wire.
    Ok(match combinational {
        Some(comb) if comb.cost() <= standard_c.cost() => comb,
        _ => standard_c,
    })
}

/// A group of excitation regions of one event that share one cover:
/// initially a single region, merged with another group while a state of
/// that group shares a code with this group's ER.
struct RegionGroup {
    /// Indices of the member regions, in merge order.
    regions: Vec<usize>,
    /// Sorted, deduplicated codes of the ER states: the cover's ON set.
    er_codes: Vec<u64>,
    /// Sorted, deduplicated codes of the QR states: don't-cares.
    qr_codes: Vec<u64>,
    /// The ER and QR states.
    members: StateSet,
    /// The QR states.
    qr: StateSet,
}

impl RegionGroup {
    fn new(sg: &StateGraph, index: usize, region: &Region) -> Self {
        let mut members = region.er.clone();
        members.union_with(&region.qr);
        RegionGroup {
            regions: vec![index],
            er_codes: sorted_codes(sg, region.er.iter()),
            qr_codes: sorted_codes(sg, region.qr.iter()),
            members,
            qr: region.qr.clone(),
        }
    }

    /// Appends `other`'s regions to this group's.
    fn absorb(&mut self, other: RegionGroup) {
        self.regions.extend(other.regions);
        self.er_codes = sorted_union(&self.er_codes, &other.er_codes);
        self.qr_codes = sorted_union(&self.qr_codes, &other.qr_codes);
        self.members.union_with(&other.members);
        self.qr.union_with(&other.qr);
    }

    /// Whether `code` must be 1 (an ER code) and is not excused as a QR
    /// code of the group.
    fn requires(&self, code: u64) -> bool {
        self.er_codes.binary_search(&code).is_ok() && self.qr_codes.binary_search(&code).is_err()
    }

    /// Whether `code` is an ER or a QR code of the group.
    fn owns(&self, code: u64) -> bool {
        self.er_codes.binary_search(&code).is_ok() || self.qr_codes.binary_search(&code).is_ok()
    }
}

/// The sorted, deduplicated codes of `states`.
fn sorted_codes(sg: &StateGraph, states: impl Iterator<Item = StateId>) -> Vec<u64> {
    let mut codes: Vec<u64> = states.map(|s| sg.code(s)).collect();
    codes.sort_unstable();
    codes.dedup();
    codes
}

/// The union of two sorted, deduplicated code lists, sorted and
/// deduplicated.
fn sorted_union(a: &[u64], b: &[u64]) -> Vec<u64> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    out.extend_from_slice(a);
    out.extend_from_slice(b);
    out.sort_unstable();
    out.dedup();
    out
}

/// Synthesizes the covers for all excitation regions of `event`, merging
/// regions whose state codes overlap. `universe` is
/// [`StateGraph::reachable_codes`].
fn region_covers(
    sg: &StateGraph,
    universe: &[u64],
    event: Event,
    name: &str,
) -> Result<Vec<RegionCover>, McError> {
    let regions = regions_of(sg, event);
    let mut groups: Vec<RegionGroup> =
        regions.iter().enumerate().map(|(i, region)| RegionGroup::new(sg, i, region)).collect();

    // Merge on code conflicts: a state outside a group that shares a code
    // with the group's ER either belongs to another group of the same
    // event, which is merged in, or is a CSC conflict.
    'merge: loop {
        for (gi, group) in groups.iter().enumerate() {
            for s in sg.states() {
                let code = sg.code(s);
                if group.members.contains(s) || !group.requires(code) {
                    continue;
                }
                let Some(other) =
                    (0..groups.len()).find(|&gj| gj != gi && groups[gj].members.contains(s))
                else {
                    return Err(McError::CscConflict { signal: name.to_string(), code });
                };
                let merged = groups.remove(other.max(gi));
                groups[other.min(gi)].absorb(merged);
                continue 'merge;
            }
        }
        break;
    }

    let nvars = sg.signal_count();
    let mut covers = Vec::with_capacity(groups.len());
    for group in groups {
        let cover = synthesize_group_cover(sg, universe, &group, name)?;
        let complexity = cover_complexity(universe, &cover, nvars);
        covers.push(RegionCover { event, region_indices: group.regions, cover, complexity });
    }
    Ok(covers)
}

/// Minimizes a group cover and repairs monotonicity (condition 3): the
/// cover may fall at most once inside the quiescent region and may never
/// rise there.
fn synthesize_group_cover(
    sg: &StateGraph,
    universe: &[u64],
    group: &RegionGroup,
    name: &str,
) -> Result<Cover, McError> {
    let nvars = sg.signal_count();
    let off_codes = sorted_codes(
        sg,
        sg.states().filter(|&s| !group.members.contains(s) && !group.owns(sg.code(s))),
    );

    // QR codes forced into the OFF set by earlier repairs, sorted.
    let mut extra_off: Vec<u64> = Vec::new();
    for _ in 0..16 {
        let off = sorted_union(&off_codes, &extra_off);
        let problem = match MinimizeProblem::new(nvars, group.er_codes.clone(), off) {
            Ok(p) => p,
            Err(e) => return Err(McError::CscConflict { signal: name.to_string(), code: e.code }),
        };
        let cover = problem.minimize();
        // Monotonicity check: no rising edge of the cover into the QR.
        let mut violations = Vec::new();
        for s in group.members.iter() {
            for &(_, t) in sg.succ(s) {
                if group.qr.contains(t) && !cover.eval(sg.code(s)) && cover.eval(sg.code(t)) {
                    violations.push(sg.code(t));
                }
            }
        }
        if violations.is_empty() {
            return Ok(cover);
        }
        // Repair: once the cover has fallen it must stay 0 — force the
        // offending QR codes into the OFF set and re-minimize.
        let before = extra_off.len();
        extra_off = sorted_union(&extra_off, &violations);
        if extra_off.len() == before {
            break;
        }
    }

    // Fallback: the exact characteristic function of ER ∪ QR (covers the
    // whole region, changing zero times inside it — trivially monotonous).
    // The two lists partition the sorted universe.
    let on = sorted_union(&group.er_codes, &group.qr_codes);
    let off = universe.iter().copied().filter(|c| on.binary_search(c).is_err()).collect();
    Ok(MinimizeProblem::from_sorted(nvars, on, off).minimize())
}

/// Gate complexity of a synthesized cover: `min(lits(F), lits(F̄))` with
/// the complement minimized against the same reachable `universe`. The
/// cover splits the sorted universe into two sorted, disjoint lists, so
/// the complement problem is built directly from them.
fn cover_complexity(universe: &[u64], cover: &Cover, nvars: usize) -> usize {
    let (on, off): (Vec<u64>, Vec<u64>) = universe.iter().partition(|&&c| cover.eval(c));
    cover
        .literal_count()
        .min(MinimizeProblem::from_sorted(nvars, off, on).minimize().literal_count())
}

/// Validates that an implementation's covers satisfy the MC conditions on
/// the given state graph (the flow itself never calls it; the synthesis
/// tests, the benchmark suite and the decomposition commit-path test do).
/// Returns human-readable complaints.
pub fn validate_mc(sg: &StateGraph, mc: &McImpl) -> Vec<String> {
    let mut complaints = Vec::new();
    for simpl in &mc.signals {
        let signal = simpl.signal;
        match &simpl.body {
            SignalBody::Combinational { cover, .. } => {
                for s in sg.states() {
                    let excited_rise = sg.enabled(s, Event::rise(signal));
                    let excited_fall = sg.enabled(s, Event::fall(signal));
                    let v = sg.value(s, signal);
                    let want = excited_rise || (v && !excited_fall);
                    if cover.eval(sg.code(s)) != want {
                        complaints.push(format!(
                            "signal {} combinational cover wrong at state {}",
                            sg.signals()[signal.0].name,
                            sg.state_label(s)
                        ));
                    }
                }
            }
            SignalBody::StandardC { set, reset } => {
                for (event, covers) in [(Event::rise(signal), set), (Event::fall(signal), reset)] {
                    let regions = regions_of(sg, event);
                    check_region_covers(sg, &regions, covers, &mut complaints);
                }
            }
        }
    }
    complaints
}

fn check_region_covers(
    sg: &StateGraph,
    regions: &[Region],
    covers: &[RegionCover],
    complaints: &mut Vec<String>,
) {
    let mut covered: HashMap<usize, bool> = HashMap::new();
    for rc in covers {
        for &ri in &rc.region_indices {
            covered.insert(ri, true);
            let region = &regions[ri];
            // Condition 1: covers all ER states.
            for s in region.er.iter() {
                if !rc.cover.eval(sg.code(s)) {
                    complaints.push(format!(
                        "cover of {} misses ER state {}",
                        sg.event_name(rc.event),
                        sg.state_label(s)
                    ));
                }
            }
        }
        // Condition 2 (strengthened to the [8] form): 0 outside ER ∪ QR of
        // the covered group.
        let member: HashSet<StateId> = rc
            .region_indices
            .iter()
            .flat_map(|&ri| regions[ri].er.iter().chain(regions[ri].qr.iter()))
            .collect();
        let member_codes: HashSet<u64> = member.iter().map(|&s| sg.code(s)).collect();
        for s in sg.states() {
            if !member.contains(&s)
                && !member_codes.contains(&sg.code(s))
                && rc.cover.eval(sg.code(s))
            {
                complaints.push(format!(
                    "cover of {} is 1 outside its region at {}",
                    sg.event_name(rc.event),
                    sg.state_label(s)
                ));
            }
        }
        // Condition 3: no rise inside the QR.
        for &s in &member {
            for &(_, t) in sg.succ(s) {
                let t_in_qr = rc.region_indices.iter().any(|&ri| regions[ri].qr.contains(t));
                if t_in_qr && !rc.cover.eval(sg.code(s)) && rc.cover.eval(sg.code(t)) {
                    complaints.push(format!(
                        "cover of {} rises inside QR at {}",
                        sg.event_name(rc.event),
                        sg.state_label(t)
                    ));
                }
            }
        }
    }
    for (ri, _) in regions.iter().enumerate() {
        if !covered.contains_key(&ri) {
            complaints.push(format!("region {ri} has no cover"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simap_sg::{Signal, SignalKind, StateGraphBuilder};

    /// 2-input C element spec.
    fn celement_sg() -> StateGraph {
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

    /// Simple handshake: b is a buffer of a.
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

    #[test]
    fn buffer_is_combinational() {
        let sg = handshake_sg();
        let mc = synthesize_mc(&sg).unwrap();
        assert_eq!(mc.signals.len(), 1);
        match &mc.signals[0].body {
            SignalBody::Combinational { cover, complexity } => {
                assert_eq!(cover.literal_count(), 1, "b = a");
                assert_eq!(*complexity, 1);
            }
            other => panic!("expected combinational, got {other:?}"),
        }
        assert!(validate_mc(&sg, &mc).is_empty());
    }

    #[test]
    fn celement_needs_standard_c() {
        let sg = celement_sg();
        let mc = synthesize_mc(&sg).unwrap();
        match &mc.signals[0].body {
            SignalBody::StandardC { set, reset } => {
                assert_eq!(set.len(), 1);
                assert_eq!(reset.len(), 1);
                // set = a·b, reset = ā·b̄.
                assert_eq!(set[0].cover.literal_count(), 2);
                assert_eq!(reset[0].cover.literal_count(), 2);
                assert_eq!(set[0].complexity, 2);
            }
            other => panic!("expected standard-C, got {other:?}"),
        }
        let complaints = validate_mc(&sg, &mc);
        assert!(complaints.is_empty(), "{complaints:?}");
    }

    #[test]
    fn histogram_and_gates_over() {
        let sg = celement_sg();
        let mc = synthesize_mc(&sg).unwrap();
        let hist = mc.gate_histogram();
        assert_eq!(hist.get(2), Some(&2));
        assert_eq!(mc.max_complexity(), 2);
        assert!(mc.gates_over(2).is_empty());
        let over1 = mc.gates_over(1);
        assert_eq!(over1.len(), 2);
    }

    #[test]
    fn csc_conflict_detected() {
        // Two states with the same code, different next value of b.
        let mut bd = StateGraphBuilder::new(
            "csc",
            vec![Signal::new("a", SignalKind::Input), Signal::new("b", SignalKind::Output)],
        )
        .unwrap();
        let s0 = bd.add_state(0b00);
        let s1 = bd.add_state(0b01);
        let s2 = bd.add_state(0b00); // same code as s0, but b+ enabled here
        let s3 = bd.add_state(0b10);
        let (a, b) = (SignalId(0), SignalId(1));
        bd.add_arc(s0, Event::rise(a), s1);
        bd.add_arc(s1, Event::fall(a), s2);
        bd.add_arc(s2, Event::rise(b), s3);
        bd.add_arc(s3, Event::fall(b), s0);
        let sg = bd.build(s0).unwrap();
        let err = synthesize_mc(&sg).unwrap_err();
        assert!(matches!(err, McError::CscConflict { .. }));
    }

    #[test]
    fn dff_reset_cover_uses_feedback() {
        // d+ c+ q+ c- d- c+/2 q- c-/2 ring (codes d=bit0,c=bit1,q=bit2).
        let mut bd = StateGraphBuilder::new(
            "dff",
            vec![
                Signal::new("d", SignalKind::Input),
                Signal::new("c", SignalKind::Input),
                Signal::new("q", SignalKind::Output),
            ],
        )
        .unwrap();
        let codes = [0b000, 0b001, 0b011, 0b111, 0b101, 0b100, 0b110, 0b010];
        let st: Vec<StateId> = codes.iter().map(|&c| bd.add_state(c)).collect();
        let (d, c, q) = (SignalId(0), SignalId(1), SignalId(2));
        bd.add_arc(st[0], Event::rise(d), st[1]);
        bd.add_arc(st[1], Event::rise(c), st[2]);
        bd.add_arc(st[2], Event::rise(q), st[3]);
        bd.add_arc(st[3], Event::fall(c), st[4]);
        bd.add_arc(st[4], Event::fall(d), st[5]);
        bd.add_arc(st[5], Event::rise(c), st[6]);
        bd.add_arc(st[6], Event::fall(q), st[7]);
        bd.add_arc(st[7], Event::fall(c), st[0]);
        let sg = bd.build(st[0]).unwrap();
        let mc = synthesize_mc(&sg).unwrap();
        let complaints = validate_mc(&sg, &mc);
        assert!(complaints.is_empty(), "{complaints:?}");
        match &mc.signals[0].body {
            SignalBody::StandardC { set, reset } => {
                // set(q) = d·c (2 literals); reset(q) = d̄·c·(q) (3 literals
                // incl. feedback) or equivalent.
                assert_eq!(set[0].cover.literal_count(), 2);
                assert!(reset[0].cover.literal_count() >= 2);
            }
            other => panic!("expected standard-C, got {other:?}"),
        }
    }

    #[test]
    fn shared_codes_merge_region_covers() {
        // The shared-output dispatcher has two excitation regions of x+
        // whose quiescent states share codes: the synthesizer must merge
        // them into one cover (or prove each separable) and validate.
        let stg = simap_stg::patterns::shared_output_choice(2);
        let sg = simap_stg::elaborate(&stg).unwrap();
        let mc = synthesize_mc(&sg).unwrap();
        let complaints = validate_mc(&sg, &mc);
        assert!(complaints.is_empty(), "{complaints:?}");
    }

    #[test]
    fn all_small_benchmarks_validate() {
        for name in ["hazard", "half", "chu133", "chu150", "dff", "vbe5b", "nowick", "seqmix"] {
            let stg = simap_stg::benchmark(name).unwrap();
            let sg = simap_stg::elaborate(&stg).unwrap();
            let mc = synthesize_mc(&sg).unwrap_or_else(|e| panic!("{name}: {e}"));
            let complaints = validate_mc(&sg, &mc);
            assert!(complaints.is_empty(), "{name}: {complaints:?}");
        }
    }

    #[test]
    fn cheaper_body_wins_for_majority_like_signals() {
        // For the 2-input C element the standard-C body (2+2 literals + C)
        // beats the combinational majority (5-6 literals); the synthesizer
        // must pick standard-C.
        let sg = celement_sg();
        let mc = synthesize_mc(&sg).unwrap();
        assert!(matches!(mc.signals[0].body, SignalBody::StandardC { .. }));
        assert_eq!(mc.max_complexity(), 2);
    }

    #[test]
    fn gates_over_sorts_most_complex_first() {
        let stg = simap_stg::benchmark("mr1").unwrap();
        let sg = simap_stg::elaborate(&stg).unwrap();
        let mc = synthesize_mc(&sg).unwrap();
        let over = mc.gates_over(2);
        assert!(!over.is_empty());
        for w in over.windows(2) {
            assert!(w[0].3 >= w[1].3, "not sorted by complexity");
        }
    }

    #[test]
    fn constant_signal_is_constant_cover() {
        // Output z never switches (no z events at all).
        let mut bd = StateGraphBuilder::new(
            "const",
            vec![Signal::new("a", SignalKind::Input), Signal::new("z", SignalKind::Output)],
        )
        .unwrap();
        let s0 = bd.add_state(0b00);
        let s1 = bd.add_state(0b01);
        bd.add_arc(s0, Event::rise(SignalId(0)), s1);
        bd.add_arc(s1, Event::fall(SignalId(0)), s0);
        let sg = bd.build(s0).unwrap();
        let mc = synthesize_mc(&sg).unwrap();
        match &mc.signals[0].body {
            SignalBody::Combinational { cover, .. } => assert!(cover.is_zero()),
            other => panic!("expected combinational constant, got {other:?}"),
        }
    }
}
