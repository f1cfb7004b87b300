//! # simap-bench
//!
//! Shared helpers for the table/figure harnesses that regenerate the
//! paper's evaluation (Table 1 and Figures 1–6) plus the ablations and
//! scaling sweeps described in DESIGN.md §4.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use simap_core::{build_decomposed_circuit, synthesize_mc, Engine, FlowReport};
use simap_netlist::verify_speed_independence;
use simap_netlist::{Cost, VerifyConfig};
use simap_sg::StateGraph;
use simap_stg::{benchmark, elaborate};

/// One row of the Table 1 reproduction.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Circuit name.
    pub name: String,
    /// Gate-complexity histogram of the initial MC implementation
    /// (`hist[n]` = gates of n literals).
    pub histogram: Vec<usize>,
    /// Signals inserted for i = 2, 3, 4 (`None` = not implementable).
    pub inserted: [Option<usize>; 3],
    /// Whether the Siegel/De Micheli-style baseline — syntactic gate
    /// splitting into 2-input trees with *no* state-graph insertion —
    /// yields a speed-independent circuit.
    pub siegel_two_input: bool,
    /// Non-SI `tech_decomp -a 2` cost of the initial implementation.
    pub non_si: Cost,
    /// SI decomposition cost at i = 2 (of the i=2 run; falls back to the
    /// initial implementation when n.i.).
    pub si: Cost,
    /// Final-circuit SI verification verdict at i = 2.
    pub verified: Option<bool>,
    /// Number of states of the elaborated specification.
    pub states: usize,
    /// The full flow reports for i = 2, 3, 4 (for structured emitters).
    pub reports: Vec<FlowReport>,
}

/// Elaborates a named benchmark into its state graph.
///
/// # Panics
/// Panics if the name is unknown or the specification fails to elaborate
/// (the embedded suite is machine-checked, so this indicates a build
/// error).
pub fn benchmark_sg(name: &str) -> StateGraph {
    let stg = benchmark(name).unwrap_or_else(|| panic!("unknown benchmark `{name}`"));
    elaborate(&stg).unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// Computes one Table 1 row (this is the expensive full flow: three
/// literal limits plus the local-ack baseline). The engine's elaboration
/// cache makes the three limits share one reachability pass.
pub fn table1_row(engine: &Engine, name: &str, verify: bool) -> Table1Row {
    let elaborated = engine.benchmark(name).elaborate().unwrap_or_else(|e| panic!("{name}: {e}"));
    let sg = elaborated.state_graph_arc();

    let flow_at = |limit: usize, verify: bool| -> FlowReport {
        let config = engine
            .config()
            .to_builder()
            .literal_limit(limit)
            .verify(verify)
            .verify_max_states(1_500_000)
            .build()
            .expect("valid table1 config");
        engine
            .with_config(config)
            .benchmark(name)
            .run()
            .unwrap_or_else(|e| panic!("{name}@{limit}: {e}"))
    };

    let at2 = flow_at(2, verify);
    let at3 = flow_at(3, false);
    let at4 = flow_at(4, false);

    // The Siegel baseline: split the initial covers syntactically into
    // 2-input trees (no SG insertion) and ask the verifier whether the
    // result happens to be hazard-free.
    let siegel = synthesize_mc(&sg)
        .map(|mc| {
            let circuit = build_decomposed_circuit(&sg, &mc, 2);
            verify_speed_independence(&circuit, &sg, &VerifyConfig { max_states: 1_500_000 })
                .is_ok()
        })
        .unwrap_or(false);

    Table1Row {
        name: name.to_string(),
        histogram: at2.initial_histogram.clone(),
        inserted: [at2.inserted, at3.inserted, at4.inserted],
        siegel_two_input: siegel,
        non_si: at2.non_si_cost,
        si: at2.si_cost,
        verified: at2.verified,
        states: sg.state_count(),
        reports: vec![at2, at3, at4],
    }
}

/// Converts table rows into the structured [`simap_core::BatchRow`] form
/// for the markdown/CSV emitters.
pub fn batch_rows(rows: &[Table1Row]) -> Vec<simap_core::BatchRow> {
    rows.iter()
        .map(|r| simap_core::BatchRow {
            name: r.name.clone(),
            states: r.states,
            reports: r.reports.clone(),
        })
        .collect()
}

/// Formats a histogram as the paper does: counts for n = 2..=7 (and a
/// trailing `+` bucket for anything larger).
pub fn format_histogram(hist: &[usize]) -> String {
    let mut cells: Vec<String> = Vec::new();
    for n in 2..=7 {
        let v = hist.get(n).copied().unwrap_or(0);
        cells.push(if v == 0 { ".".into() } else { v.to_string() });
    }
    let beyond: usize = hist.iter().skip(8).sum();
    if beyond > 0 {
        cells.push(format!("+{beyond}"));
    }
    cells.join(" ")
}

/// Formats an insertion count (`n.i.` when not implementable).
pub fn format_inserted(inserted: Option<usize>) -> String {
    match inserted {
        Some(n) => n.to_string(),
        None => "n.i.".to_string(),
    }
}

/// A compact one-line summary of a decomposition outcome, reused by the
/// figure binaries.
pub fn summarize_flow(report: &FlowReport) -> String {
    format!(
        "inserted={} si-cost={} non-si-cost={} verified={}",
        format_inserted(report.inserted),
        report.si_cost,
        report.non_si_cost,
        match report.verified {
            Some(true) => "yes",
            Some(false) => "NO",
            None => "skipped",
        }
    )
}

/// Re-exports used by the benches so they only depend on this crate.
pub mod reexports {
    pub use simap_core::{
        build_circuit, decompose, non_si_cost, si_cost, synthesize_mc, AckMode, Batch, Config,
        DecomposeConfig, Engine, Synthesis,
    };
    pub use simap_sg::check_all;
    pub use simap_stg::{
        all_benchmarks, benchmark, elaborate, elaborate_with, patterns, ReachConfig, ReachStrategy,
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_formatting() {
        assert_eq!(format_histogram(&[0, 0, 3, 1]), "3 1 . . . .");
        assert_eq!(format_inserted(None), "n.i.");
        assert_eq!(format_inserted(Some(4)), "4");
    }

    #[test]
    fn small_row_computes() {
        let engine = Engine::default();
        let row = table1_row(&engine, "half", true);
        assert!(row.inserted[0].is_some());
        assert_eq!(row.verified, Some(true));
        // One elaboration serves all three literal limits.
        let stats = engine.cache_stats();
        assert_eq!(stats.misses, 1);
        assert!(stats.hits >= 3, "limits 2/3/4 reuse the elaboration: {stats:?}");
    }
}
