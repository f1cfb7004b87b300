//! Monotonous-cover synthesis (§2.2): derives, for every implementable
//! signal, either a *complete cover* (combinational implementation, Fig.
//! 2b/c) or per-excitation-region set/reset covers for the standard-C
//! architecture (Fig. 2a).

use simap_boolean::{Cover, MinimizeProblem};
use simap_sg::{regions_of, Event, Region, SignalId, StateGraph, StateId};
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
    /// All first-level cover gates of this signal.
    pub fn covers(&self) -> Vec<&RegionCover> {
        match &self.body {
            SignalBody::Combinational { .. } => Vec::new(),
            SignalBody::StandardC { set, reset } => set.iter().chain(reset.iter()).collect(),
        }
    }

    /// The most complex gate of this signal (literals, §4 model).
    pub fn max_complexity(&self) -> usize {
        match &self.body {
            SignalBody::Combinational { complexity, .. } => *complexity,
            SignalBody::StandardC { set, reset } => {
                set.iter().chain(reset.iter()).map(|c| c.complexity).max().unwrap_or(0)
            }
        }
    }

    /// Total cubes across this signal's first-level covers (the single
    /// next-state cover for combinational signals, set plus reset region
    /// covers for standard-C ones).
    pub fn cube_count(&self) -> usize {
        match &self.body {
            SignalBody::Combinational { cover, .. } => cover.cube_count(),
            SignalBody::StandardC { set, reset } => {
                set.iter().chain(reset.iter()).map(|c| c.cover.cube_count()).sum()
            }
        }
    }

    /// Total literals across this signal's first-level covers.
    pub fn literal_count(&self) -> usize {
        match &self.body {
            SignalBody::Combinational { cover, .. } => cover.literal_count(),
            SignalBody::StandardC { set, reset } => {
                set.iter().chain(reset.iter()).map(|c| c.cover.literal_count()).sum()
            }
        }
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
        for s in &self.signals {
            match &s.body {
                SignalBody::Combinational { complexity, .. } => bump(*complexity),
                SignalBody::StandardC { set, reset } => {
                    for c in set.iter().chain(reset.iter()) {
                        bump(c.complexity);
                    }
                }
            }
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
            match &s.body {
                SignalBody::Combinational { cover, complexity } => {
                    if *complexity > limit {
                        out.push((s.signal, Event::rise(s.signal), cover.clone(), *complexity));
                    }
                }
                SignalBody::StandardC { set, reset } => {
                    for c in set.iter().chain(reset.iter()) {
                        if c.complexity > limit {
                            out.push((s.signal, c.event, c.cover.clone(), c.complexity));
                        }
                    }
                }
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
    let signals = sg
        .implementable_signals()
        .into_iter()
        .map(|signal| synthesize_signal(sg, signal))
        .collect::<Result<_, _>>()?;
    Ok(McImpl { signals })
}

/// Synthesizes the implementation of one signal.
///
/// # Errors
/// Returns [`McError::CscConflict`] when the signal's next-state function
/// is ill-defined on some shared code.
pub fn synthesize_signal(sg: &StateGraph, signal: SignalId) -> Result<SignalImpl, McError> {
    let name = sg.signals()[signal.0].name.clone();
    let nvars = sg.signal_count();

    // Next-state partition of the reachable codes.
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

    // CSC sanity: the full on/off split must be well-defined.
    {
        let off_set: HashSet<u64> = off.iter().copied().collect();
        if let Some(&code) = on.iter().find(|c| off_set.contains(c)) {
            return Err(McError::CscConflict { signal: name, code });
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
        SignalBody::Combinational { cover, complexity }
    });

    // A signal with no transitions at all is a constant: combinational by
    // construction.
    let has_transitions = sg
        .states()
        .any(|s| sg.enabled(s, Event::rise(signal)) || sg.enabled(s, Event::fall(signal)));
    if !has_transitions {
        let body = combinational.expect("constant signal has a trivial cover");
        return Ok(SignalImpl { signal, body });
    }

    // Standard-C candidate: per-region set/reset covers plus a C element.
    let set = region_covers(sg, signal, Event::rise(signal), &name)?;
    let reset = region_covers(sg, signal, Event::fall(signal), &name)?;
    let standard_c = SignalBody::StandardC { set, reset };

    // Pick the cheaper body: first by the most complex gate (the quantity
    // the mapper must fit into the library), then by total area (a C
    // element ≈ 3 literals, §4). Ties prefer the combinational form, whose
    // C element degenerates to a wire.
    let body = match combinational {
        None => standard_c,
        Some(comb) => {
            let key = |b: &SignalBody| -> (usize, usize) {
                match b {
                    SignalBody::Combinational { complexity, .. } => (*complexity, *complexity),
                    SignalBody::StandardC { set, reset } => {
                        let max =
                            set.iter().chain(reset.iter()).map(|c| c.complexity).max().unwrap_or(0);
                        let area: usize =
                            set.iter().chain(reset.iter()).map(|c| c.complexity).sum::<usize>() + 3;
                        (max, area)
                    }
                }
            };
            if key(&comb) <= key(&standard_c) {
                comb
            } else {
                standard_c
            }
        }
    };
    Ok(SignalImpl { signal, body })
}

/// Synthesizes the covers for all excitation regions of `event`, merging
/// regions whose state codes overlap.
fn region_covers(
    sg: &StateGraph,
    _signal: SignalId,
    event: Event,
    name: &str,
) -> Result<Vec<RegionCover>, McError> {
    let regions = regions_of(sg, event);
    if regions.is_empty() {
        return Ok(Vec::new());
    }
    let nvars = sg.signal_count();
    let all_states: Vec<StateId> = sg.states().collect();

    // Start with each region in its own group; merge on code conflicts.
    let mut groups: Vec<Vec<usize>> = (0..regions.len()).map(|i| vec![i]).collect();
    'merge: loop {
        for (gi, group) in groups.iter().enumerate() {
            let (on_codes, dc_codes) = group_on_dc(sg, &regions, group);
            let member_states = group_states(sg, &regions, group);
            for &s in &all_states {
                if member_states.contains(&s) {
                    continue;
                }
                let code = sg.code(s);
                if on_codes.contains(&code) && !dc_codes.contains(&code) {
                    // A state outside the group shares a code with the
                    // group's ER. If it belongs to another region of the
                    // same event, merge the groups; otherwise it is a CSC
                    // conflict.
                    if let Some(other) = (0..groups.len()).find(|&gj| {
                        gj != gi
                            && groups[gj]
                                .iter()
                                .any(|&rj| regions[rj].er.contains(s) || regions[rj].qr.contains(s))
                    }) {
                        let merged = groups.remove(other.max(gi));
                        let keep = other.min(gi);
                        groups[keep].extend(merged);
                        continue 'merge;
                    }
                    return Err(McError::CscConflict { signal: name.to_string(), code });
                }
            }
        }
        break;
    }

    let mut covers = Vec::new();
    for group in &groups {
        let cover = synthesize_group_cover(sg, &regions, group, nvars, name)?;
        let complexity = cover_complexity(sg, &regions, group, &cover, nvars);
        covers.push(RegionCover { event, region_indices: group.clone(), cover, complexity });
    }
    Ok(covers)
}

fn group_on_dc(
    sg: &StateGraph,
    regions: &[Region],
    group: &[usize],
) -> (HashSet<u64>, HashSet<u64>) {
    let mut on = HashSet::new();
    let mut dc = HashSet::new();
    for &ri in group {
        for s in regions[ri].er.iter() {
            on.insert(sg.code(s));
        }
        for s in regions[ri].qr.iter() {
            dc.insert(sg.code(s));
        }
    }
    (on, dc)
}

fn group_states(sg: &StateGraph, regions: &[Region], group: &[usize]) -> HashSet<StateId> {
    let _ = sg;
    let mut states = HashSet::new();
    for &ri in group {
        states.extend(regions[ri].er.iter());
        states.extend(regions[ri].qr.iter());
    }
    states
}

/// Minimizes a group cover and repairs monotonicity (condition 3): the
/// cover may fall at most once inside the quiescent region and may never
/// rise there.
fn synthesize_group_cover(
    sg: &StateGraph,
    regions: &[Region],
    group: &[usize],
    nvars: usize,
    name: &str,
) -> Result<Cover, McError> {
    let (on_codes, dc_codes) = group_on_dc(sg, regions, group);
    let member_states = group_states(sg, regions, group);
    let mut off_codes: HashSet<u64> = HashSet::new();
    for s in sg.states() {
        if !member_states.contains(&s) {
            let code = sg.code(s);
            if !on_codes.contains(&code) && !dc_codes.contains(&code) {
                off_codes.insert(code);
            }
        }
    }

    let in_er = |s: StateId| group.iter().any(|&ri| regions[ri].er.contains(s));
    let in_qr = |s: StateId| group.iter().any(|&ri| regions[ri].qr.contains(s));

    let mut extra_off: HashSet<u64> = HashSet::new();
    for _ in 0..16 {
        let on: Vec<u64> = on_codes.iter().copied().collect();
        let off: Vec<u64> = off_codes.iter().chain(extra_off.iter()).copied().collect();
        let problem = match MinimizeProblem::new(nvars, on, off) {
            Ok(p) => p,
            Err(e) => return Err(McError::CscConflict { signal: name.to_string(), code: e.code }),
        };
        let cover = problem.minimize();
        // Monotonicity check: no rising edge of the cover into the QR.
        let mut violations = Vec::new();
        for &s in &member_states {
            for &(_, t) in sg.succ(s) {
                if in_qr(t) && !cover.eval(sg.code(s)) && cover.eval(sg.code(t)) {
                    violations.push(sg.code(t));
                }
            }
        }
        let _ = in_er;
        if violations.is_empty() {
            return Ok(cover);
        }
        // Repair: once the cover has fallen it must stay 0 — force the
        // offending QR codes into the OFF set and re-minimize.
        let before = extra_off.len();
        extra_off.extend(violations);
        if extra_off.len() == before {
            break;
        }
    }

    // Fallback: the exact characteristic function of ER ∪ QR (covers the
    // whole region, changing zero times inside it — trivially monotonous).
    let on: Vec<u64> = on_codes.union(&dc_codes).copied().collect();
    let off: Vec<u64> = {
        let onset: HashSet<u64> = on.iter().copied().collect();
        sg.reachable_codes().into_iter().filter(|c| !onset.contains(c)).collect()
    };
    match MinimizeProblem::new(nvars, on, off) {
        Ok(p) => Ok(p.minimize()),
        Err(e) => Err(McError::CscConflict { signal: name.to_string(), code: e.code }),
    }
}

/// Gate complexity of a synthesized cover: `min(lits(F), lits(F̄))` with
/// the complement minimized against the same reachable universe.
fn cover_complexity(
    sg: &StateGraph,
    regions: &[Region],
    group: &[usize],
    cover: &Cover,
    nvars: usize,
) -> usize {
    let _ = (regions, group);
    let universe = sg.reachable_codes();
    let on: Vec<u64> = universe.iter().copied().filter(|&c| cover.eval(c)).collect();
    let off: Vec<u64> = universe.iter().copied().filter(|&c| !cover.eval(c)).collect();
    match MinimizeProblem::new(nvars, on, off) {
        Ok(p) => cover.literal_count().min(p.minimize_complement().literal_count()),
        Err(_) => cover.literal_count(),
    }
}

/// Validates that an implementation's covers satisfy the MC conditions on
/// the given state graph (used by tests and by the decomposition loop's
/// sanity checks). Returns human-readable complaints.
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
