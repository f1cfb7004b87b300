//! Two-level minimization against explicit ON/OFF minterm lists.
//!
//! State-graph synthesis problems enumerate the reachable state codes, so
//! the ON-set and OFF-set are given as explicit lists of minterm codes and
//! everything else (unreachable codes) is an implicit don't-care. This is
//! exactly the setting of espresso's `expand`/`irredundant`/`reduce` loop
//! with an OFF-set oracle, which we implement here in a compact form.
//!
//! # Bit-sliced expand
//!
//! `expand` drops a cube's literals one at a time, in the problem's
//! variable order, keeping a drop only while the widened cube still
//! avoids every OFF minterm. Each `minimize` call slices the sorted OFF
//! list once into one bitset per literal: bit `j` of literal `x̄ᵥ`'s set
//! is 1 iff OFF minterm `j` has `v = 0`. A cube contains OFF minterm `j`
//! iff bit `j` is set in the AND of its literals' sets, so every drop test
//! is a word-parallel AND over `⌈|OFF|/64⌉` words instead of a scan of the
//! OFF list.
//!
//! One pass over the variable order decides every literal. Before the
//! pass, the suffix ANDs of the cube's literal sets are precomputed; at
//! literal `i`, the kept prefix (the AND of the literals kept so far)
//! meets `suffix[i+1]` (the literals not yet tested) exactly on the OFF
//! minterms the cube would contain without literal `i`, so literal `i`
//! drops iff `kept_prefix & suffix[i+1] == 0`.
//!
//! One pass is enough because drop-legality is monotone: a cube only grows
//! during expansion, and a cube that contains an OFF minterm keeps
//! containing it as it grows. A drop refused once is refused forever, so
//! the classic formulation — repeat passes until none drops a literal —
//! makes the same decisions and stops after its second pass. The tests
//! keep that fixpoint loop as an oracle and compare the two.

use crate::cover::Cover;
use crate::cube::{Cube, MAX_VARS};

/// A two-level minimization problem: explicit ON and OFF minterm lists over
/// `nvars` variables; every other code is a don't-care.
#[derive(Debug, Clone)]
pub struct MinimizeProblem {
    nvars: usize,
    on: Vec<u64>,
    off: Vec<u64>,
    /// Variable expansion order, precomputed once: variables whose removal
    /// is least likely to collide with the OFF-set first.
    var_order: Vec<usize>,
}

/// Error returned when the ON and OFF sets overlap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConflictingMintermError {
    /// A code present in both the ON and OFF sets.
    pub code: u64,
}

impl std::fmt::Display for ConflictingMintermError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "minterm {:b} is in both the on-set and the off-set", self.code)
    }
}

impl std::error::Error for ConflictingMintermError {}

impl MinimizeProblem {
    /// Creates a problem; validates that ON and OFF are disjoint.
    ///
    /// # Errors
    /// Returns [`ConflictingMintermError`] with the first code of `on`, in
    /// the caller's order, that also appears in `off` (in state-graph
    /// terms: a CSC conflict).
    pub fn new(
        nvars: usize,
        mut on: Vec<u64>,
        mut off: Vec<u64>,
    ) -> Result<Self, ConflictingMintermError> {
        off.sort_unstable();
        off.dedup();
        if let Some(&code) = on.iter().find(|c| off.binary_search(c).is_ok()) {
            return Err(ConflictingMintermError { code });
        }
        on.sort_unstable();
        on.dedup();
        Ok(MinimizeProblem::from_sorted(nvars, on, off))
    }

    /// Creates a problem from lists that are already strictly increasing
    /// and disjoint, as when they partition a sorted universe. Debug
    /// builds check both properties; release builds trust the caller, and
    /// a violation there yields an unspecified (but memory-safe) cover.
    pub fn from_sorted(nvars: usize, on: Vec<u64>, off: Vec<u64>) -> Self {
        assert!(nvars <= MAX_VARS);
        debug_assert!(on.windows(2).all(|w| w[0] < w[1]), "ON must be strictly increasing");
        debug_assert!(off.windows(2).all(|w| w[0] < w[1]), "OFF must be strictly increasing");
        debug_assert!(
            on.iter().all(|c| off.binary_search(c).is_err()),
            "ON and OFF must be disjoint"
        );
        // Expansion order: for each variable, count how "split" the
        // OFF-set is on it — variables on which the OFF-set is one-sided
        // are cheap to drop and go first.
        let mut ones = vec![0usize; nvars];
        for &m in &off {
            for (v, count) in ones.iter_mut().enumerate() {
                *count += (m >> v & 1) as usize;
            }
        }
        let total = off.len();
        let mut var_order: Vec<usize> = (0..nvars).collect();
        var_order.sort_by_key(|&v| ones[v].min(total - ones[v]));
        MinimizeProblem { nvars, on, off, var_order }
    }

    /// The ON-set codes.
    pub fn on(&self) -> &[u64] {
        &self.on
    }

    /// The OFF-set codes.
    pub fn off(&self) -> &[u64] {
        &self.off
    }

    /// Number of variables.
    pub fn nvars(&self) -> usize {
        self.nvars
    }

    /// Minimizes and returns an SOP cover that is 1 on all ON codes and 0 on
    /// all OFF codes (don't-cares used freely).
    pub fn minimize(&self) -> Cover {
        if self.on.is_empty() {
            return Cover::zero();
        }
        if self.off.is_empty() {
            return Cover::one();
        }
        let mut expander = Expander::new(self);
        let expanded = self.expand_all(&mut expander);
        let mut cover = self.irredundant(&expanded, &mut expander);
        // One reduce/re-expand pass often removes an extra literal or cube.
        for _ in 0..2 {
            let reduced = self.reduce(&cover);
            let re_expanded: Vec<Cube> = reduced.iter().map(|c| expander.expand(*c)).collect();
            let candidate = self.irredundant(&re_expanded, &mut expander);
            if cost(&candidate) < cost(&cover) {
                cover = candidate;
            } else {
                break;
            }
        }
        debug_assert!(cover.covers_all(&self.on));
        debug_assert!(cover.avoids_all(&self.off));
        cover
    }

    /// Expands each ON minterm into a prime-like cube against the OFF list.
    fn expand_all(&self, expander: &mut Expander) -> Vec<Cube> {
        // The distinct cubes in first-expansion order, and the same cubes
        // sorted for the membership test.
        let mut cubes = Vec::new();
        let mut seen: Vec<Cube> = Vec::new();
        for &m in &self.on {
            let cube = expander.expand(Cube::minterm(m, self.nvars));
            if let Err(at) = seen.binary_search(&cube) {
                seen.insert(at, cube);
                cubes.push(cube);
            }
        }
        cubes
    }

    /// The scalar fixpoint expander, kept as the oracle for [`Expander`]:
    /// greedily removes literals from `cube` while it stays disjoint from
    /// the OFF-set, trying variables in the problem's precomputed order,
    /// and repeats until a pass drops nothing.
    #[cfg(test)]
    fn expand_cube_scalar(&self, cube: Cube) -> Cube {
        let mut cube = cube;
        let mut changed = true;
        while changed {
            changed = false;
            for &v in &self.var_order {
                if cube.phase_of(v).is_none() {
                    continue;
                }
                let widened = cube.without_var(v);
                if !self.off.iter().any(|&m| widened.eval(m)) {
                    cube = widened;
                    changed = true;
                }
            }
        }
        cube
    }

    /// Minimum-ish cover of the ON minterms by the candidate cubes:
    /// essential candidates first (sole cover of some minterm), then
    /// greedy set-cover on the rest.
    fn irredundant(&self, candidates: &[Cube], expander: &mut Expander) -> Cover {
        let mut uncovered = Uncovered::all(self.on.len());
        let mut chosen: Vec<Cube> = Vec::new();

        // Essential pass: a candidate covering a minterm nobody else
        // covers must be in every solution.
        for &m in &self.on {
            let mut covering = candidates.iter().filter(|c| c.eval(m));
            if let (Some(&only), None) = (covering.next(), covering.next()) {
                if !chosen.contains(&only) {
                    chosen.push(only);
                }
            }
        }
        for c in &chosen {
            uncovered.remove_covered(&self.on, c);
        }

        while let Some(first) = uncovered.first() {
            let mut best: Option<(usize, usize, Cube)> = None;
            for &c in candidates {
                let gain = uncovered.iter().filter(|&i| c.eval(self.on[i])).count();
                if gain == 0 {
                    continue;
                }
                let key = (gain, usize::MAX - c.literal_count());
                match &best {
                    Some((bg, bl, _)) if (*bg, *bl) >= key => {}
                    _ => best = Some((key.0, key.1, c)),
                }
            }
            // When no candidate covers a remaining minterm (possible after
            // an aggressive reduce pass), expand the first one directly.
            let cube = match best {
                Some((_, _, c)) => c,
                None => expander.expand(Cube::minterm(self.on[first], self.nvars)),
            };
            uncovered.remove_covered(&self.on, &cube);
            chosen.push(cube);
        }
        Cover::from_cubes(chosen)
    }

    /// Reduces each cube of `cover` to the smallest cube still covering the
    /// ON minterms only it covers (classic `reduce`).
    fn reduce(&self, cover: &Cover) -> Vec<Cube> {
        let cubes = cover.cubes();
        let mut reduced = Vec::with_capacity(cubes.len());
        for (i, c) in cubes.iter().enumerate() {
            // Smallest cube containing the ON minterms only `c` covers:
            // their supercube.
            let mut exclusive = false;
            let mut pos = u64::MAX;
            let mut neg = u64::MAX;
            for &m in &self.on {
                if c.eval(m) && !cubes.iter().enumerate().any(|(j, d)| j != i && d.eval(m)) {
                    exclusive = true;
                    pos &= m;
                    neg &= !m;
                }
            }
            if !exclusive {
                // Redundant cube; keep as-is (irredundant pass will drop it).
                reduced.push(*c);
                continue;
            }
            let mask = if self.nvars == MAX_VARS { u64::MAX } else { (1u64 << self.nvars) - 1 };
            let cube = Cube::from_masks(pos & mask, neg & mask).expect("supercube is consistent");
            reduced.push(cube);
        }
        reduced
    }

    /// Minimized complement: 1 on OFF codes, 0 on ON codes.
    pub fn minimize_complement(&self) -> Cover {
        MinimizeProblem::from_sorted(self.nvars, self.off.clone(), self.on.clone()).minimize()
    }
}

/// The ON minterms `irredundant` has yet to cover, as a bitmap over their
/// indices in the sorted ON list.
struct Uncovered {
    words: Vec<u64>,
}

impl Uncovered {
    fn all(n: usize) -> Self {
        let mut words = vec![u64::MAX; n / 64];
        let tail = n % 64;
        if tail > 0 {
            words.push((1u64 << tail) - 1);
        }
        Uncovered { words }
    }

    /// Indices of the uncovered minterms, in increasing order.
    fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(k, &word)| set_bits(word).map(move |b| 64 * k + b))
    }

    fn first(&self) -> Option<usize> {
        self.iter().next()
    }

    /// Marks every uncovered minterm of `on` that `cube` contains covered.
    fn remove_covered(&mut self, on: &[u64], cube: &Cube) {
        for (k, word) in self.words.iter_mut().enumerate() {
            for bit in set_bits(*word) {
                if cube.eval(on[64 * k + bit]) {
                    *word &= !(1u64 << bit);
                }
            }
        }
    }
}

/// The positions of the set bits of `word`, lowest first.
fn set_bits(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let bit = word.trailing_zeros() as usize;
            word &= word - 1;
            bit
        })
    })
}

/// The bit-sliced OFF-set oracle behind `expand` (see the module docs),
/// built once per [`MinimizeProblem::minimize`] call and reused for every
/// cube it expands.
struct Expander<'a> {
    problem: &'a MinimizeProblem,
    /// `u64` words per bitset over the OFF list.
    words: usize,
    /// `2 * nvars + 1` bitsets of `words` words each: the set of literal
    /// `x̄ᵥ` at row `2v`, of `xᵥ` at row `2v + 1` (`Literal::index`), then
    /// the full set (every OFF minterm) in the last row.
    rows: Vec<u64>,
    /// Rows `0..=n` hold the suffix ANDs of a cube's `n` literals, row
    /// `n + 1` the kept prefix; sized for `nvars` literals once.
    scratch: Vec<u64>,
}

impl<'a> Expander<'a> {
    fn new(problem: &'a MinimizeProblem) -> Self {
        let nvars = problem.nvars;
        let words = problem.off.len().div_ceil(64);
        let mut rows = vec![0u64; (2 * nvars + 1) * words];
        for (j, &m) in problem.off.iter().enumerate() {
            let (k, bit) = (j / 64, 1u64 << (j % 64));
            for v in 0..nvars {
                let row = 2 * v + usize::from(m >> v & 1 == 1);
                rows[row * words + k] |= bit;
            }
            rows[2 * nvars * words + k] |= bit;
        }
        Expander { problem, words, rows, scratch: vec![0; (nvars + 2) * words] }
    }

    /// Expands `cube` against the OFF-set in one pass over the problem's
    /// variable order; the same cube the scalar fixpoint loop returns.
    fn expand(&mut self, mut cube: Cube) -> Cube {
        let Expander { problem, words, rows, scratch } = self;
        let words = *words;
        let row = |r: usize| &rows[r * words..(r + 1) * words];
        // The cube's literals in expansion order, as (variable, row).
        let mut literals = [(0usize, 0usize); MAX_VARS];
        let mut n = 0;
        for &v in &problem.var_order {
            if let Some(phase) = cube.phase_of(v) {
                literals[n] = (v, 2 * v + usize::from(phase));
                n += 1;
            }
        }
        let (suffix, kept) = scratch.split_at_mut((n + 1) * words);
        let kept = &mut kept[..words];
        let full = row(2 * problem.nvars);
        suffix[n * words..].copy_from_slice(full);
        kept.copy_from_slice(full);
        for i in (0..n).rev() {
            let (head, tail) = suffix.split_at_mut((i + 1) * words);
            let lit = row(literals[i].1);
            for ((out, &next), &l) in head[i * words..].iter_mut().zip(&tail[..words]).zip(lit) {
                *out = next & l;
            }
        }
        for (i, &(v, r)) in literals[..n].iter().enumerate() {
            let rest = &suffix[(i + 1) * words..(i + 2) * words];
            if kept.iter().zip(rest).all(|(&k, &r)| k & r == 0) {
                cube = cube.without_var(v);
            } else {
                for (k, &l) in kept.iter_mut().zip(row(r)) {
                    *k &= l;
                }
            }
        }
        cube
    }
}

fn cost(cover: &Cover) -> (usize, usize) {
    (cover.cube_count(), cover.literal_count())
}

/// Gate complexity in the paper's §4 model: number of literals needed to
/// implement the function as a sum-of-products gate, *either complemented
/// or not* (e.g. a 2-input XOR counts 4 literals; `ab+ac+db+dc` counts 4 via
/// its complement-free factorization — we approximate that model with
/// `min(lits(F), lits(F̄))`).
pub fn gate_complexity(problem: &MinimizeProblem) -> usize {
    let f = problem.minimize();
    let g = problem.minimize_complement();
    f.literal_count().min(g.literal_count())
}

/// Convenience: minimize an ON/OFF split given as code lists.
///
/// # Errors
/// Returns [`ConflictingMintermError`] when the sets overlap.
pub fn minimize_onoff(
    nvars: usize,
    on: &[u64],
    off: &[u64],
) -> Result<Cover, ConflictingMintermError> {
    Ok(MinimizeProblem::new(nvars, on.to_vec(), off.to_vec())?.minimize())
}

/// Builds the cover that is exactly the characteristic function of `on`
/// against `off`, *without* expansion beyond what containment allows — i.e.
/// just the ON minterms merged by the minimizer. Useful as a safe fallback.
pub fn exact_characteristic(nvars: usize, on: &[u64]) -> Cover {
    Cover::from_cubes(on.iter().map(|&m| Cube::minterm(m, nvars)))
}

/// Returns `true` if the cover evaluates to 1 somewhere on the given codes.
pub fn intersects_codes(cover: &Cover, codes: &[u64]) -> bool {
    codes.iter().any(|&m| cover.eval(m))
}

/// Restricts a cover's truth table to an explicit universe, returning the
/// codes where it holds.
pub fn on_codes(cover: &Cover, universe: &[u64]) -> Vec<u64> {
    universe.iter().copied().filter(|&m| cover.eval(m)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cube::Literal;
    use std::collections::HashSet;

    #[test]
    fn rejects_conflicts() {
        let err = MinimizeProblem::new(2, vec![1], vec![1, 2]).unwrap_err();
        assert_eq!(err.code, 1);
    }

    #[test]
    fn reports_the_first_conflict_in_caller_order() {
        let err = MinimizeProblem::new(3, vec![5, 2, 7, 3], vec![3, 7, 0, 2]).unwrap_err();
        assert_eq!(err.code, 2);
        let err = MinimizeProblem::new(3, vec![7, 5, 2], vec![2, 0, 7]).unwrap_err();
        assert_eq!(err.code, 7);
    }

    #[test]
    fn irredundant_fallback_expands_the_first_uncovered_minterm() {
        // No candidate covers any ON minterm, so every cube comes from the
        // fallback. Expanding 1000 first leaves 1001 and 1101 for more
        // cubes; expanding 1101 first would cover all four at once. The
        // fallback must take the first uncovered minterm in sorted ON
        // order, the same way on every call.
        let on = vec![0b1101, 0b1000, 0b1100, 0b1001];
        let off = vec![0b0001, 0b0010, 0b0101, 0b0110, 0b1111];
        let p = MinimizeProblem::new(4, on.clone(), off.clone()).unwrap();
        let run = || p.irredundant(&[], &mut Expander::new(&p));
        let (first, second) = (run(), run());
        assert_eq!(first, second, "irredundant must not depend on hash order");
        assert!(first.covers_all(&on) && first.avoids_all(&off), "{first:?}");
        let lowest = Expander::new(&p).expand(Cube::minterm(0b1000, 4));
        assert!(first.cubes().contains(&lowest), "{first:?} lacks {lowest:?}");
        assert!(first.cube_count() > 1, "{first:?}");
    }

    #[test]
    fn constant_cases() {
        let p = MinimizeProblem::new(2, vec![], vec![0]).unwrap();
        assert!(p.minimize().is_zero());
        let p = MinimizeProblem::new(2, vec![0, 3], vec![]).unwrap();
        assert!(p.minimize().is_one());
    }

    #[test]
    fn single_literal_emerges() {
        // ON = {codes with bit0 = 1}, OFF = rest over 3 vars.
        let on: Vec<u64> = (0..8).filter(|c| c & 1 == 1).collect();
        let off: Vec<u64> = (0..8).filter(|c| c & 1 == 0).collect();
        let f = minimize_onoff(3, &on, &off).unwrap();
        assert_eq!(f.literal_count(), 1);
        assert_eq!(f.cubes()[0], Cube::from_literals([Literal::pos(0)]).unwrap());
    }

    #[test]
    fn xor_needs_four_literals() {
        // XOR over 2 vars: ON = {01,10}, OFF = {00,11}.
        let p = MinimizeProblem::new(2, vec![0b01, 0b10], vec![0b00, 0b11]).unwrap();
        let f = p.minimize();
        assert_eq!(f.literal_count(), 4);
        assert_eq!(gate_complexity(&p), 4);
    }

    #[test]
    fn dont_cares_are_used() {
        // 3 vars; ON = {111}, OFF = {000}; everything else DC => a single
        // literal suffices.
        let f = minimize_onoff(3, &[0b111], &[0b000]).unwrap();
        assert_eq!(f.literal_count(), 1);
    }

    #[test]
    fn correctness_on_random_partitions() {
        // Deterministic pseudo-random split of a 5-var space.
        let mut seed = 0x1234_5678_u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for _ in 0..20 {
            let mut on = Vec::new();
            let mut off = Vec::new();
            for code in 0..32u64 {
                match next() % 3 {
                    0 => on.push(code),
                    1 => off.push(code),
                    _ => {}
                }
            }
            let p = MinimizeProblem::new(5, on.clone(), off.clone()).unwrap();
            let f = p.minimize();
            assert!(f.covers_all(&on), "on-set must be covered");
            assert!(f.avoids_all(&off), "off-set must be avoided");
            let g = p.minimize_complement();
            assert!(g.covers_all(&off));
            assert!(g.avoids_all(&on));
        }
    }

    #[test]
    fn complement_cheaper_counts() {
        // f = majority-ish function where complement is simpler: OFF = {000}.
        let on: Vec<u64> = (1..8).collect();
        let p = MinimizeProblem::new(3, on, vec![0]).unwrap();
        // f = a + b + c (3 literals), f' = a'b'c' (3 literals).
        assert_eq!(gate_complexity(&p), 3);
    }

    #[test]
    fn essential_primes_are_kept() {
        // f over 4 vars with two essential primes: the classic two-lobe
        // function ON = {x3'x2'x1'} ∪ {x3 x2 x1} plus a bridging DC.
        // ON minterms 0000,0001 need cube x3'x2'x1'; 1110,1111 need
        // x3x2x1; nothing else covers them.
        let on = vec![0b0000, 0b0001, 0b1110, 0b1111];
        let off = vec![0b0100, 0b0010, 0b1011, 0b1101, 0b0110, 0b1001];
        let p = MinimizeProblem::new(4, on.clone(), off.clone()).unwrap();
        let f = p.minimize();
        assert!(f.covers_all(&on));
        assert!(f.avoids_all(&off));
        assert_eq!(f.cube_count(), 2, "two essential primes suffice: {f:?}");
    }

    /// Random-problem case count (`SIMAP_EXPAND_CASES` raises it for a
    /// deeper sweep).
    fn cases() -> usize {
        std::env::var("SIMAP_EXPAND_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(1)
    }

    fn xorshift(mut seed: u64) -> impl FnMut() -> u64 {
        move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        }
    }

    fn swapped(p: &MinimizeProblem) -> MinimizeProblem {
        MinimizeProblem::new(p.nvars, p.off.clone(), p.on.clone()).expect("disjoint")
    }

    /// Asserts that the bit-sliced expander returns the scalar oracle's
    /// cube for every cube `minimize` can hand it: each ON minterm, each
    /// cube of the reduce step, and every cube in `extra`.
    fn assert_expander_matches_oracle(p: &MinimizeProblem, extra: &[Cube]) {
        let mut expander = Expander::new(p);
        let mut cubes: Vec<Cube> = p.on.iter().map(|&m| Cube::minterm(m, p.nvars)).collect();
        if !p.on.is_empty() && !p.off.is_empty() {
            let expanded = p.expand_all(&mut expander);
            cubes.extend(p.reduce(&p.irredundant(&expanded, &mut expander)));
        }
        cubes.extend_from_slice(extra);
        for cube in cubes {
            assert_eq!(
                expander.expand(cube),
                p.expand_cube_scalar(cube),
                "nvars {} |on| {} |off| {} cube {cube:?}",
                p.nvars,
                p.on.len(),
                p.off.len()
            );
        }
    }

    #[test]
    fn bit_sliced_expand_matches_scalar_oracle() {
        let mut next = xorshift(0x9e37_79b9_7f4a_7c15);
        for _ in 0..cases() {
            for nvars in 1..=MAX_VARS {
                let mask = if nvars == MAX_VARS { u64::MAX } else { (1u64 << nvars) - 1 };
                // Codes vary on at most 10 variables around a random base,
                // so many literals matter and drops are often refused.
                let base = next() & mask;
                let mut free = 0u64;
                while free.count_ones() < nvars.min(10) as u32 {
                    free |= 1u64 << (next() % nvars as u64);
                }
                let space = 1usize << free.count_ones();
                // OFF lengths around the 64-bit word boundaries.
                for off_len in [0, 1, 63, 64, 65, 128, 129] {
                    let off_len = off_len.min(space - 1);
                    let on_len = 1 + (next() % 16) as usize;
                    let mut off = HashSet::new();
                    while off.len() < off_len {
                        off.insert(base ^ (next() & free));
                    }
                    let mut on = HashSet::new();
                    for _ in 0..4 * on_len {
                        let code = base ^ (next() & free);
                        if on.len() < on_len && !off.contains(&code) {
                            on.insert(code);
                        }
                    }
                    let p = MinimizeProblem::new(
                        nvars,
                        on.into_iter().collect(),
                        off.into_iter().collect(),
                    )
                    .expect("disjoint by construction");
                    // Sub-cubes of ON minterms: any cube, OFF-free or not.
                    let extra: Vec<Cube> = p
                        .on
                        .iter()
                        .map(|&m| {
                            let keep = next();
                            Cube::from_masks(m & mask & keep, !m & mask & keep).expect("consistent")
                        })
                        .collect();
                    assert_expander_matches_oracle(&p, &extra);
                    assert_expander_matches_oracle(&swapped(&p), &[]);
                }
            }
        }
    }

    /// Calls `check` on every two-level problem `synthesize_mc` (in
    /// `simap-core`) builds for `sg`, rebuilt here in the same order and
    /// with the same ON/OFF sets: per implementable signal the projected
    /// next-state split and its complement; per group of excitation
    /// regions the cover split, each monotonicity repair of it and the
    /// fallback; per group cover the complement of its split of the
    /// reachable codes (the gate-complexity estimate). Each split is
    /// checked before its cover feeds a later one, so the rebuild tracks
    /// the synthesizer for as long as the checks pass.
    fn for_each_synthesis_problem(
        sg: &simap_sg::StateGraph,
        check: &mut dyn FnMut(&MinimizeProblem),
    ) {
        use simap_sg::{regions_of, Event, Region, StateId};
        let nvars = sg.signal_count();
        let universe = sg.reachable_codes();
        let codes = |states: &mut dyn Iterator<Item = StateId>| -> HashSet<u64> {
            states.map(|s| sg.code(s)).collect()
        };
        for signal in sg.implementable_signals() {
            let (mut on, mut off) = (Vec::new(), Vec::new());
            for s in sg.states() {
                let rise = sg.enabled(s, Event::rise(signal));
                let fall = sg.enabled(s, Event::fall(signal));
                let code = sg.code(s) & !(1u64 << signal.0);
                if rise || (sg.value(s, signal) && !fall) {
                    on.push(code);
                } else {
                    off.push(code);
                }
            }
            if let Ok(p) = MinimizeProblem::new(nvars, on, off) {
                check(&p);
                check(&swapped(&p));
            }
            for event in [Event::rise(signal), Event::fall(signal)] {
                let regions: Vec<Region> = regions_of(sg, event);
                let members = |group: &[usize]| -> HashSet<StateId> {
                    group
                        .iter()
                        .flat_map(|&r| regions[r].er.iter().chain(regions[r].qr.iter()))
                        .collect()
                };
                let on_dc = |group: &[usize]| {
                    let on = codes(&mut group.iter().flat_map(|&r| regions[r].er.iter()));
                    let dc = codes(&mut group.iter().flat_map(|&r| regions[r].qr.iter()));
                    (on, dc)
                };
                // Merge groups whose ER codes reach a state of another group.
                let mut groups: Vec<Vec<usize>> = (0..regions.len()).map(|i| vec![i]).collect();
                'merge: loop {
                    for gi in 0..groups.len() {
                        let (on, dc) = on_dc(&groups[gi]);
                        let member = members(&groups[gi]);
                        for s in sg.states().filter(|s| !member.contains(s)) {
                            if on.contains(&sg.code(s)) && !dc.contains(&sg.code(s)) {
                                let other = (0..groups.len()).find(|&gj| {
                                    gj != gi
                                        && groups[gj].iter().any(|&r| {
                                            regions[r].er.contains(s) || regions[r].qr.contains(s)
                                        })
                                });
                                if let Some(other) = other {
                                    let merged = groups.remove(other.max(gi));
                                    groups[other.min(gi)].extend(merged);
                                    continue 'merge;
                                }
                            }
                        }
                    }
                    break;
                }
                for group in &groups {
                    let (on, dc) = on_dc(group);
                    let member = members(group);
                    let off: HashSet<u64> = codes(&mut sg.states().filter(|s| !member.contains(s)))
                        .into_iter()
                        .filter(|c| !on.contains(c) && !dc.contains(c))
                        .collect();
                    let in_qr = |s: StateId| group.iter().any(|&r| regions[r].qr.contains(s));
                    let mut extra_off: HashSet<u64> = HashSet::new();
                    let mut cover = None;
                    for _ in 0..16 {
                        let p = MinimizeProblem::new(
                            nvars,
                            on.iter().copied().collect(),
                            off.iter().chain(&extra_off).copied().collect(),
                        )
                        .expect("the embedded circuits have CSC");
                        check(&p);
                        let f = p.minimize();
                        let violations: Vec<u64> = member
                            .iter()
                            .flat_map(|&s| sg.succ(s).iter().map(move |&(_, t)| (s, t)))
                            .filter(|&(s, t)| in_qr(t) && !f.eval(sg.code(s)) && f.eval(sg.code(t)))
                            .map(|(_, t)| sg.code(t))
                            .collect();
                        if violations.is_empty() {
                            cover = Some(f);
                            break;
                        }
                        let before = extra_off.len();
                        extra_off.extend(violations);
                        if extra_off.len() == before {
                            break;
                        }
                    }
                    let cover = cover.unwrap_or_else(|| {
                        let all: HashSet<u64> = on.union(&dc).copied().collect();
                        let rest = universe.iter().copied().filter(|c| !all.contains(c)).collect();
                        let p = MinimizeProblem::new(nvars, all.into_iter().collect(), rest)
                            .expect("the embedded circuits have CSC");
                        check(&p);
                        p.minimize()
                    });
                    let (on, off) = universe.iter().partition(|&&c| cover.eval(c));
                    if let Ok(p) = MinimizeProblem::new(nvars, on, off) {
                        check(&swapped(&p));
                    }
                }
            }
        }
    }

    #[test]
    fn bit_sliced_expand_matches_scalar_oracle_on_state_graph_splits() {
        let mut problems = 0usize;
        for &name in simap_stg::benchmark_names() {
            let stg = simap_stg::benchmark(name).expect("known benchmark");
            let sg = simap_stg::elaborate(&stg).expect("benchmark elaborates");
            if cfg!(debug_assertions) && sg.state_count() > 400 {
                continue;
            }
            for_each_synthesis_problem(&sg, &mut |p| {
                problems += 1;
                assert_expander_matches_oracle(p, &[]);
            });
        }
        assert!(problems > 0);
    }

    /// `from_sorted` must build exactly the problem `new` builds from the
    /// same lists in any order: the trusted path skips only the checks.
    #[test]
    fn from_sorted_matches_new_on_state_graph_splits() {
        let mut problems = 0usize;
        let mut assert_same = |p: &MinimizeProblem| {
            let q = MinimizeProblem::from_sorted(p.nvars, p.on.clone(), p.off.clone());
            assert_eq!((&q.on, &q.off, &q.var_order), (&p.on, &p.off, &p.var_order));
            assert_eq!(q.minimize(), p.minimize());
            problems += 1;
        };
        for &name in simap_stg::benchmark_names() {
            let stg = simap_stg::benchmark(name).expect("known benchmark");
            let sg = simap_stg::elaborate(&stg).expect("benchmark elaborates");
            if cfg!(debug_assertions) && sg.state_count() > 400 {
                continue;
            }
            for_each_synthesis_problem(&sg, &mut |p| {
                assert_same(p);
                assert_same(&swapped(p));
            });
        }
        assert!(problems > 0);
    }

    #[test]
    fn exact_characteristic_covers() {
        let on = [0b101, 0b100];
        let f = exact_characteristic(3, &on);
        assert!(f.covers_all(&on));
        assert!(!f.eval(0b111));
    }
}
