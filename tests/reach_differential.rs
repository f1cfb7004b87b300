//! Differential testing of the reachability engines: for random safe
//! STGs, every registry benchmark, and every error family (unbounded,
//! state limit, inconsistency), the three strategies — `Packed` (the
//! default), `Explicit` (the legacy oracle) and `Spill` (the
//! external-memory engine, at the default budget and at a tiny budget
//! that forces genuine spilling) — must agree: byte-identical graphs and
//! equal errors.
//!
//! Case counts are environment-tunable so CI can run a deeper sweep:
//! `SIMAP_DIFF_CASES=256 cargo test --release --test reach_differential`.

use proptest::prelude::*;
use simap::sg::StateGraph;
use simap::stg::{
    benchmark, benchmark_names, elaborate_with, elaborate_with_stats, parse_g, patterns,
    ReachError, Stg,
};
use simap::{ReachConfig, ReachStrategy};

fn cases(default: u32) -> u32 {
    std::env::var("SIMAP_DIFF_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

fn explicit(config: &ReachConfig) -> ReachConfig {
    ReachConfig { strategy: ReachStrategy::Explicit, ..config.clone() }
}

/// The spill strategy at a given memory budget. Few shards so tiny
/// budgets overflow the per-shard arena caches too, not just the
/// frontier buffers.
fn spill(config: &ReachConfig, memory_budget: usize) -> ReachConfig {
    ReachConfig { strategy: ReachStrategy::Spill, memory_budget, shards: 4, ..config.clone() }
}

/// A budget at the engine's floor: every component buffer is at its
/// minimum, so any net with more than a few hundred edges spills.
const TINY_BUDGET: usize = 4096;

/// Structural byte-identity: same signals, state numbering, codes, arcs
/// and initial state (and therefore the same dot rendering).
fn assert_same_graph(packed: &StateGraph, oracle: &StateGraph, context: &str) {
    assert_eq!(packed.name(), oracle.name(), "{context}: name");
    assert_eq!(packed.signals(), oracle.signals(), "{context}: signals");
    assert_eq!(packed.state_count(), oracle.state_count(), "{context}: state count");
    assert_eq!(packed.initial(), oracle.initial(), "{context}: initial state");
    for s in packed.states() {
        assert_eq!(packed.code(s), oracle.code(s), "{context}: code of state {}", s.0);
        assert_eq!(packed.succ(s), oracle.succ(s), "{context}: successors of state {}", s.0);
        assert_eq!(packed.pred(s), oracle.pred(s), "{context}: predecessors of state {}", s.0);
    }
    assert_eq!(
        simap::sg::to_dot(packed, &Default::default()),
        simap::sg::to_dot(oracle, &Default::default()),
        "{context}: dot rendering"
    );
}

/// Elaborates under every strategy (packed, explicit, spill) and checks
/// the outcomes — graphs or errors — coincide.
fn assert_differential(stg: &Stg, config: &ReachConfig, context: &str) {
    let packed = elaborate_with(stg, config);
    let oracle = elaborate_with(stg, &explicit(config));
    match (&packed, &oracle) {
        (Ok(p), Ok(o)) => assert_same_graph(p, o, context),
        (Err(p), Err(o)) => assert_eq!(p, o, "{context}: packed error must equal the oracle's"),
        _ => panic!(
            "{context}: strategies disagree on success:\n  packed:   {packed:?}\n  \
             explicit: {oracle:?}"
        ),
    }

    // The spill engine is held to the same exactness as the enumerative
    // pair — byte-identical graphs and identical errors — at the default
    // budget (everything resident) and at the floor budget (arena pages,
    // frontier runs and the edge log all cycling through disk).
    for budget in [ReachConfig::default().memory_budget, TINY_BUDGET] {
        let spilled = elaborate_with(stg, &spill(config, budget));
        match (&spilled, &oracle) {
            (Ok(s), Ok(o)) => {
                assert_same_graph(s, o, &format!("{context} [spill budget={budget}]"));
            }
            (Err(s), Err(o)) => {
                assert_eq!(s, o, "{context} [spill budget={budget}]: error must equal oracle's");
            }
            _ => panic!(
                "{context} [spill budget={budget}]: spill disagrees on success:\n  \
                 spill:    {spilled:?}\n  explicit: {oracle:?}"
            ),
        }
    }
}

/// A recipe for one of the safe parametric specification families.
#[derive(Debug, Clone, Copy)]
struct Part {
    kind: u8,
    a: usize,
    b: usize,
}

fn build_part(part: Part) -> Stg {
    match part.kind % 6 {
        0 => patterns::sequencer(2 + part.a % 5, None),
        1 => patterns::celement(2 + part.a % 4),
        2 => patterns::fork_join(1 + part.a % 3, 1 + part.b % 2),
        3 => patterns::pipeline(1 + part.a % 4),
        4 => patterns::choice(2 + part.a % 3),
        _ => patterns::shared_output_choice(2 + part.a % 2),
    }
}

fn arb_part() -> impl Strategy<Value = Part> {
    proptest::collection::vec(0usize..16, 3).prop_map(|v| Part {
        kind: v[0] as u8,
        a: v[1],
        b: v[2],
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases(24)))]

    /// Random safe STGs — single patterns and parallel compositions —
    /// elaborate identically under Packed, Explicit and Spill.
    #[test]
    fn random_safe_stgs_elaborate_identically(parts in proptest::collection::vec(arb_part(), 1..3)) {
        let stg = if parts.len() == 1 {
            build_part(parts[0])
        } else {
            let built: Vec<Stg> = parts.iter().copied().map(build_part).collect();
            patterns::parallel("t", &built)
        };
        assert_differential(&stg, &ReachConfig::default(), &format!("{parts:?}"));
    }

    /// Tight state limits produce the same `ReachError::StateLimit` —
    /// same limit, same progress counter — under every strategy.
    #[test]
    fn state_limits_map_to_the_same_error(part in arb_part(), limit in 1usize..12) {
        let stg = build_part(part);
        let config = ReachConfig { max_states: limit, ..ReachConfig::default() };
        assert_differential(&stg, &config, &format!("{part:?} limit={limit}"));
    }

    /// Unbounded nets produce the same `ReachError::Unbounded` — same
    /// place, bound and progress counter — under every strategy.
    #[test]
    fn unbounded_nets_map_to_the_same_error(max_tokens in 1u8..5) {
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
        let stg = parse_g(src).expect("parses");
        let config = ReachConfig { max_tokens, max_states: 10_000, ..ReachConfig::default() };
        assert_differential(&stg, &config, &format!("unbounded max_tokens={max_tokens}"));
    }
}

/// Every registry benchmark elaborates identically under all three
/// strategies (Spill at both budgets), with matching exploration
/// counters. The tiny-budget spill run covers every benchmark in release
/// builds and the smaller ones in debug builds.
#[test]
fn all_registry_benchmarks_elaborate_identically() {
    for name in benchmark_names() {
        let stg = benchmark(name).expect("known benchmark");
        let config = ReachConfig::default();
        let (packed, pstats) =
            elaborate_with_stats(&stg, &config).unwrap_or_else(|e| panic!("{name}: {e}"));
        let (oracle, ostats) = elaborate_with_stats(&stg, &explicit(&config))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_same_graph(&packed, &oracle, name);
        assert_eq!(
            (pstats.visited, pstats.interned, pstats.edges),
            (ostats.visited, ostats.interned, ostats.edges),
            "{name}: exploration counters"
        );

        let (spilled, spstats) =
            elaborate_with_stats(&stg, &spill(&config, ReachConfig::default().memory_budget))
                .unwrap_or_else(|e| panic!("{name} [spill]: {e}"));
        assert_same_graph(&spilled, &oracle, &format!("{name} [spill]"));
        assert_eq!(
            (spstats.visited, spstats.interned, spstats.edges),
            (ostats.visited, ostats.interned, ostats.edges),
            "{name}: spill exploration counters"
        );
        assert!(pstats.spill.is_none(), "{name}: packed stats must not carry spill counters");
        let counters = spstats.spill.unwrap_or_else(|| panic!("{name}: spill counters missing"));
        assert_eq!(counters.shards, 4, "{name}: effective shard count");
        if !cfg!(debug_assertions) || oracle.state_count() <= 500 {
            let tiny = elaborate_with_stats(&stg, &spill(&config, TINY_BUDGET))
                .unwrap_or_else(|e| panic!("{name} [spill tiny]: {e}"));
            assert_same_graph(&tiny.0, &oracle, &format!("{name} [spill tiny]"));
            let tc = tiny.1.spill.expect("spill counters");
            if oracle.state_count() > 200 {
                assert!(
                    tc.spilled_bytes > 0 && tc.files_created > 0,
                    "{name}: a {TINY_BUDGET}-byte budget must force real spilling \
                     (got {tc:?})"
                );
            }
        }
    }
}

/// Inconsistent STGs are rejected with the same diagnostic by every
/// strategy.
#[test]
fn inconsistent_stgs_map_to_the_same_error() {
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
    let stg = parse_g(src).expect("parses");
    let config = ReachConfig::default();
    assert_differential(&stg, &config, "inconsistent");
    let oracle = elaborate_with(&stg, &explicit(&config)).unwrap_err();
    assert!(matches!(oracle, ReachError::Inconsistent { .. }), "{oracle}");
}

/// A bounded multi-token net whose signal also fails to alternate: every
/// engine finishes exploring and reports the same `Inconsistent` error.
#[test]
fn multi_token_inconsistent_nets_map_to_the_same_error() {
    let src = "\
.model mti
.inputs a b
.graph
a+ a+/2
a+/2 a-
a- a+
p b+
b+ b-
b- p
.marking { <a-,a+> p=2 }
.end
";
    let stg = parse_g(src).expect("parses");
    assert_differential(&stg, &ReachConfig::default(), "multi-token inconsistent");
    let oracle = elaborate_with(&stg, &explicit(&ReachConfig::default())).unwrap_err();
    assert!(matches!(oracle, ReachError::Inconsistent { .. }), "{oracle}");
}

/// The boundary token bound: at `max_tokens = 255` a token count can hit
/// the top of `u8`; both enumerative engines must still agree (the
/// explicit oracle bound-checks before incrementing, the packed engine
/// widens its fields) instead of overflowing.
#[test]
fn max_tokens_255_does_not_overflow() {
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
    let stg = parse_g(src).expect("parses");
    // The token-generating net climbs one token per cycle, so a state
    // budget past 2*255 markings lets `q` reach the u8 boundary.
    let config = ReachConfig { max_tokens: 255, max_states: 2000, ..ReachConfig::default() };
    assert_differential(&stg, &config, "max_tokens=255");
}

/// Registry benchmarks under tight limits hit the same `StateLimit`
/// under all three strategies (Spill at both budgets).
#[test]
fn benchmark_state_limits_match() {
    for (name, limit) in [("mmu", 5), ("vbe10b", 100), ("master-read", 17)] {
        let stg = benchmark(name).expect("known benchmark");
        let config = ReachConfig { max_states: limit, ..ReachConfig::default() };
        let packed = elaborate_with(&stg, &config).unwrap_err();
        let oracle = elaborate_with(&stg, &explicit(&config)).unwrap_err();
        assert_eq!(packed, oracle, "{name}");
        for budget in [ReachConfig::default().memory_budget, TINY_BUDGET] {
            let spilled = elaborate_with(&stg, &spill(&config, budget)).unwrap_err();
            assert_eq!(spilled, oracle, "{name} [spill budget={budget}]");
        }
    }
}

/// A product far past the state limit (4^16 markings) stops every
/// strategy at the same limit with the same progress counters.
#[test]
fn huge_products_stop_at_the_same_state_limit() {
    let parts: Vec<Stg> = (0..16).map(|_| patterns::sequencer(2, None)).collect();
    let stg = patterns::parallel("grid", &parts);
    let config = ReachConfig { max_states: 20_000, ..ReachConfig::default() };
    let oracle = elaborate_with(&stg, &explicit(&config)).unwrap_err();
    assert!(matches!(oracle, ReachError::StateLimit { limit: 20_000, .. }), "{oracle}");
    assert_eq!(elaborate_with(&stg, &config).unwrap_err(), oracle, "packed");
    for budget in [ReachConfig::default().memory_budget, TINY_BUDGET] {
        let spilled = elaborate_with(&stg, &spill(&config, budget)).unwrap_err();
        assert_eq!(spilled, oracle, "spill budget={budget}");
    }
}
