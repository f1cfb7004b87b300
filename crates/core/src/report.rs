//! Structured emitters for flow results: markdown, CSV and JSON
//! renderings of Table 1-style batches, a machine-readable benchmark
//! registry listing, plus a per-circuit synthesis dossier.
//!
//! The JSON emitters are hand-rolled on [`crate::json`] (no serde — the
//! build environment is offline): deterministic key order, RFC
//! 8259-compliant string escaping, `null` for "not implementable" /
//! "unverified". Every document they produce parses with
//! [`crate::json::parse`], which is how the `simap-serve` wire protocol
//! reads them back.

use crate::engine::Engine;
use crate::error::Error;
use crate::flow::FlowReport;
use crate::json;
use simap_netlist::Cost;
use simap_stg::ReachStats;
use std::fmt::Write as _;

/// One row of a batch report (a named flow result at several limits).
#[derive(Debug, Clone)]
pub struct BatchRow {
    /// Circuit name.
    pub name: String,
    /// Number of states of the elaborated specification.
    pub states: usize,
    /// Reports per literal limit, in the same order as the batch header.
    pub reports: Vec<FlowReport>,
}

/// Renders a batch as a GitHub-flavoured markdown table.
pub fn to_markdown(limits: &[usize], rows: &[BatchRow]) -> String {
    let mut out = String::new();
    let mut header = String::from("| circuit | states |");
    let mut rule = String::from("|---|---|");
    for l in limits {
        let _ = write!(header, " i={l} |");
        rule.push_str("---|");
    }
    header.push_str(" non-SI | SI | verified |");
    rule.push_str("---|---|---|");
    let _ = writeln!(out, "{header}");
    let _ = writeln!(out, "{rule}");
    for row in rows {
        let _ = write!(out, "| {} | {} |", row.name, row.states);
        for r in &row.reports {
            match r.inserted {
                Some(n) => {
                    let _ = write!(out, " {n} |");
                }
                None => {
                    let _ = write!(out, " n.i. |");
                }
            }
        }
        let first = row.reports.first();
        let (non_si, si, verified) = match first {
            Some(r) => (
                r.non_si_cost.to_string(),
                r.si_cost.to_string(),
                match r.verified {
                    Some(true) => "yes",
                    Some(false) => "NO",
                    None => "-",
                }
                .to_string(),
            ),
            None => ("-".into(), "-".into(), "-".into()),
        };
        let _ = writeln!(out, " {non_si} | {si} | {verified} |");
    }
    out
}

/// Renders a batch as CSV (one line per circuit × limit).
pub fn to_csv(limits: &[usize], rows: &[BatchRow]) -> String {
    let mut out = String::from(
        "circuit,states,literal_limit,inserted,implementable,si_literals,si_celements,non_si_literals,non_si_celements,verified\n",
    );
    for row in rows {
        for (l, r) in limits.iter().zip(&row.reports) {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{},{},{},{}",
                row.name,
                row.states,
                l,
                r.inserted.map(|n| n.to_string()).unwrap_or_default(),
                r.inserted.is_some(),
                r.si_cost.literals,
                r.si_cost.c_elements,
                r.non_si_cost.literals,
                r.non_si_cost.c_elements,
                r.verified.map(|v| v.to_string()).unwrap_or_default(),
            );
        }
    }
    out
}

fn json_cost(cost: Cost) -> String {
    format!("{{\"literals\":{},\"c_elements\":{}}}", cost.literals, cost.c_elements)
}

fn json_reach(stats: Option<ReachStats>) -> String {
    match stats {
        Some(s) => {
            // Spill counters appear only for spill-strategy runs, so
            // documents from the in-memory strategies keep their exact
            // historical bytes.
            let spill = match s.spill {
                Some(c) => format!(
                    ",\"spill\":{{\"spilled_bytes\":{},\"files_created\":{},\
                     \"resident_peak\":{},\"table_bytes\":{},\"budget\":{},\"shards\":{},\
                     \"checkpoints_written\":{},\"checkpoint_bytes\":{},\"resume_level\":{}}}",
                    c.spilled_bytes,
                    c.files_created,
                    c.resident_peak,
                    c.table_bytes,
                    c.budget,
                    c.shards,
                    c.checkpoints_written,
                    c.checkpoint_bytes,
                    c.resume_level
                ),
                None => String::new(),
            };
            format!(
                "{{\"visited\":{},\"interned\":{},\"edges\":{},\"strategy\":{}{spill}}}",
                s.visited,
                s.interned,
                s.edges,
                json::quote(&s.strategy.to_string())
            )
        }
        None => "null".to_string(),
    }
}

/// Renders one flow report as a JSON object (what `simap map --json`
/// prints). `inserted` is `null` when not implementable at the limit,
/// `verified` is `null` when verification was skipped or inconclusive,
/// and `reach` is `null` when the flow started from an already-elaborated
/// state graph (no reachability ran).
pub fn report_json(report: &FlowReport) -> String {
    format!(
        "{{\"name\":{},\"initial_histogram\":{},\"implementable\":{},\"inserted\":{},\
         \"inserted_names\":{},\"si_cost\":{},\"non_si_cost\":{},\"verified\":{},\"reach\":{}}}",
        json::quote(&report.name),
        json::usize_array(&report.initial_histogram),
        report.inserted.is_some(),
        json::opt(report.inserted),
        json::string_array(&report.inserted_names),
        json_cost(report.si_cost),
        json_cost(report.non_si_cost),
        json::opt(report.verified),
        json_reach(report.reach),
    )
}

/// Renders a batch as one JSON document: the literal limits plus one
/// object per circuit whose `runs` align with `limits`.
pub fn to_json(limits: &[usize], rows: &[BatchRow]) -> String {
    let mut out = String::from("{\"limits\":");
    out.push_str(&json::usize_array(limits));
    out.push_str(",\"circuits\":[");
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":{},\"states\":{},\"runs\":[",
            json::quote(&row.name),
            row.states
        );
        for (j, (limit, report)) in limits.iter().zip(&row.reports).enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"literal_limit\":{limit},\"report\":{}}}", report_json(report));
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

/// Renders the embedded benchmark registry as one machine-readable JSON
/// document — the listing shared by `simap bench list --json` and the
/// service's `GET /benchmarks` (both must stay byte-identical).
///
/// Each entry is elaborated through the engine to report its signal and
/// state counts (the service computes the listing once and keeps it).
///
/// # Errors
/// The first elaboration failure, should any embedded benchmark fail
/// under the engine's configuration.
pub fn benchmarks_json(engine: &Engine) -> Result<String, Error> {
    let mut out = String::from("{\"benchmarks\":[");
    for (i, name) in engine.registry().names().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let elaborated = engine.benchmark(*name).elaborate()?;
        let sg = elaborated.state_graph();
        let _ = write!(
            out,
            "{{\"name\":{},\"signals\":{},\"states\":{}}}",
            json::quote(name),
            sg.signal_count(),
            sg.state_count()
        );
    }
    out.push_str("]}");
    Ok(out)
}

/// A human-readable synthesis dossier for one flow result: histogram,
/// steps and costs.
pub fn dossier(report: &FlowReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "circuit: {}", report.name);
    let hist: Vec<String> = report
        .initial_histogram
        .iter()
        .enumerate()
        .skip(1)
        .filter(|(_, &c)| c > 0)
        .map(|(n, &c)| format!("{c}x{n}lit"))
        .collect();
    let _ = writeln!(out, "initial gates: {}", hist.join(" "));
    match report.inserted {
        Some(n) => {
            let _ = writeln!(out, "implementable with {n} inserted signal(s)");
        }
        None => {
            let _ = writeln!(out, "not implementable at this limit (n.i.)");
        }
    }
    for step in &report.outcome.steps {
        let _ = writeln!(
            out,
            "  {} = {}  [target {}, excess {}->{}]",
            step.signal, step.divisor, step.target, step.excess.0, step.excess.1
        );
    }
    let _ = writeln!(
        out,
        "cost: SI {} vs non-SI {}; verified: {:?}",
        report.si_cost, report.non_si_cost, report.verified
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Synthesis;
    use simap_sg::{Event, Signal, SignalId, SignalKind, StateGraphBuilder};

    fn handshake_report() -> FlowReport {
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
        let sg = bd.build(s[0]).unwrap();
        let config = crate::Config::builder().literal_limit(2).build().unwrap();
        Synthesis::from_state_graph(sg).config(&config).run().unwrap()
    }

    #[test]
    fn markdown_shape() {
        let report = handshake_report();
        let rows = vec![BatchRow { name: "hs".into(), states: 4, reports: vec![report] }];
        let md = to_markdown(&[2], &rows);
        assert!(md.starts_with("| circuit |"));
        assert!(md.contains("| hs | 4 | 0 |"), "{md}");
        assert!(md.contains("yes"));
    }

    #[test]
    fn csv_shape() {
        let report = handshake_report();
        let rows = vec![BatchRow { name: "hs".into(), states: 4, reports: vec![report] }];
        let csv = to_csv(&[2], &rows);
        let mut lines = csv.lines();
        assert!(lines.next().unwrap().starts_with("circuit,states"));
        let data = lines.next().unwrap();
        assert!(data.starts_with("hs,4,2,0,true,"), "{data}");
    }

    #[test]
    fn json_shape() {
        let report = handshake_report();
        let single = report_json(&report);
        assert!(single.starts_with("{\"name\":\"hs\""), "{single}");
        assert!(single.contains("\"implementable\":true"));
        assert!(single.contains("\"verified\":true"));
        assert!(single.contains("\"si_cost\":{\"literals\":"));
        // The handshake report started from a pre-elaborated state graph:
        // no reachability ran, so the counters are null.
        assert!(single.ends_with("\"reach\":null}"), "{single}");

        let rows = vec![BatchRow { name: "hs".into(), states: 4, reports: vec![report] }];
        let doc = to_json(&[2], &rows);
        assert!(doc.starts_with("{\"limits\":[2],\"circuits\":["), "{doc}");
        assert!(doc.contains("\"runs\":[{\"literal_limit\":2,\"report\":{"));
        assert!(doc.ends_with("]}"));
        // The emitted document must parse with the crate's own parser and
        // carry the expected structure.
        let parsed = crate::json::parse(&doc).expect("emitters produce valid JSON");
        let circuits = parsed.get("circuits").and_then(crate::json::Json::as_array).unwrap();
        assert_eq!(circuits.len(), 1);
        assert_eq!(
            circuits[0].get("name").and_then(crate::json::Json::as_str),
            Some("hs"),
            "{doc}"
        );
    }

    #[test]
    fn json_reach_counters_for_elaborated_sources() {
        let config = crate::Config::builder().build().unwrap();
        let report = Synthesis::from_benchmark("half").config(&config).run().unwrap();
        let single = report_json(&report);
        assert!(single.contains("\"reach\":{\"visited\":6,\"interned\":6,\"edges\":"), "{single}");
        assert!(single.contains("\"strategy\":\"packed\""), "{single}");
    }

    #[test]
    fn benchmarks_json_lists_the_registry() {
        let engine = Engine::default();
        let doc = benchmarks_json(&engine).unwrap();
        let parsed = crate::json::parse(&doc).expect("valid JSON");
        let entries = parsed.get("benchmarks").and_then(crate::json::Json::as_array).unwrap();
        assert_eq!(entries.len(), engine.registry().names().len());
        let half = entries
            .iter()
            .find(|e| e.get("name").and_then(crate::json::Json::as_str) == Some("half"))
            .expect("half is embedded");
        assert_eq!(half.get("states").and_then(crate::json::Json::as_usize), Some(6));
        // The listing is a pure function of the registry.
        assert_eq!(benchmarks_json(&engine).unwrap(), doc);
    }

    #[test]
    fn json_null_for_skipped_verification() {
        let mut report = handshake_report();
        report.verified = None;
        report.inserted = None;
        let single = report_json(&report);
        assert!(single.contains("\"implementable\":false"));
        assert!(single.contains("\"inserted\":null"));
        assert!(single.contains("\"verified\":null"));
    }

    #[test]
    fn dossier_mentions_costs() {
        let report = handshake_report();
        let text = dossier(&report);
        assert!(text.contains("circuit: hs"));
        assert!(text.contains("cost: SI"));
    }
}
