//! `table1`: the paper's flow on the embedded circuits (all but mr0) at
//! the default literal limit 2, with verification, through the public
//! `Engine`/`Synthesis` API and a fresh `Engine` for each circuit.

use crate::flow;
use crate::stats;
use crate::trace::Tracer;
use crate::{Mean, Outcome, Passes};
use simap::{Config, Engine, Verified};
use std::collections::BTreeMap;
use std::time::Instant;

/// mr0 takes about a minute per map on a 2-vCPU x86-64 VM; it joins once
/// the minimizer is fast enough to fit the run.
const LEFT_OUT: &str = "mr0";

/// A circuit whose first run in a pass takes less than this runs
/// `REPEATS` times in that pass. The threshold sits in the gap between the
/// cheap circuits (under 10 ms on a 2-vCPU x86-64 VM) and the rest (over
/// 40 ms), so host drift does not change which circuits repeat.
const REPEAT_BELOW_S: f64 = 0.02;
const REPEATS: usize = 9;

/// Engine builds per `setup_s` sample.
const SETUP_BATCH: usize = 16;

/// The pinned state and arc counts of every embedded circuit.
const GOLDEN: &str = "tests/golden/benchmark_conformance.tsv";

pub fn run(seconds: f64, t: &mut Tracer) -> Result<Outcome, String> {
    let names: Vec<&'static str> =
        simap::stg::benchmark_names().iter().copied().filter(|n| *n != LEFT_OUT).collect();
    let golden = read_golden()?;
    let texts: Vec<String> = names
        .iter()
        .map(|n| simap::stg::benchmark(n).map(|stg| simap::stg::write_g(&stg)))
        .collect::<Option<_>>()
        .ok_or("an embedded circuit is missing")?;
    let mut out = Outcome::new(stats::digest(texts.iter().map(|s| s.as_bytes())));

    let mut flow_s: Vec<Vec<f64>> = vec![Vec::new(); names.len()];
    let mut traced_s: Vec<Vec<f64>> = vec![Vec::new(); names.len()];
    let mut first: Vec<Option<String>> = vec![None; names.len()];
    let mut setup = Vec::new();
    let mut rss = Vec::new();
    let mut passes = Passes::new(seconds, t.on());
    while passes.next() {
        stats::reset_peak_rss()?;
        // The traced run alternates traced and untraced passes: the spans
        // come from the first, the tracing overhead from the pair.
        let traced = t.on() && passes.index() % 2 == 1;
        for i in 0..names.len() {
            // Set-up: a fresh engine with every circuit's STG built in its
            // registry, for each circuit, so the median of its build time
            // is taken over the whole run. One build takes under a
            // millisecond, so a sample times a batch of them and divides.
            let start = Instant::now();
            let mut engine = fresh_engine(&names);
            for _ in 1..SETUP_BATCH {
                engine = std::hint::black_box(fresh_engine(&names));
            }
            setup.push(start.elapsed().as_secs_f64() / SETUP_BATCH as f64);
            // A cheap circuit runs again, with the engine's elaboration cache
            // cleared so every run is cold: its median then rests on many
            // samples.
            let mut first_run_s = 0.0;
            for repeat in 0..REPEATS {
                if repeat > 0 {
                    if first_run_s >= REPEAT_BELOW_S {
                        break;
                    }
                    engine.clear_cache();
                }
                out.attempted += 1;
                let (result, elapsed) = if traced {
                    let start = Instant::now();
                    let verified = flow::run(t, i, engine.benchmark(names[i]));
                    let elapsed = start.elapsed().as_secs_f64();
                    traced_s[i].push(elapsed);
                    if let Ok(verified) = &verified {
                        flow::replay_layers(t, i, &texts[i], verified);
                    }
                    (verified.map(Verified::into_report), elapsed)
                } else {
                    let start = Instant::now();
                    let report = engine.benchmark(names[i]).run().map_err(|e| e.to_string());
                    let elapsed = start.elapsed().as_secs_f64();
                    flow_s[i].push(elapsed);
                    (report, elapsed)
                };
                if repeat == 0 {
                    first_run_s = elapsed;
                }
                let report = match result {
                    Ok(report) => report,
                    Err(e) => {
                        out.fail(format!("{}: {e}", names[i]));
                        continue;
                    }
                };
                let json = flow::report_body(&report);
                // Every run must reproduce the first run's report exactly.
                match &first[i] {
                    None => first[i] = Some(json),
                    Some(expected) if *expected != json => {
                        out.fail(format!("{}: report differs between runs", names[i]));
                        continue;
                    }
                    Some(_) => {}
                }
                if report.verified != Some(true) {
                    out.fail(format!("{}: not verified speed-independent", names[i]));
                }
            }
        }
        rss.push(stats::peak_rss_mb(None)?);
    }

    // Independent checks, outside the timed region: the elaborated graphs
    // must match the pinned conformance counts.
    let engine = fresh_engine(&names);
    for name in &names {
        let sg = engine.benchmark(*name).elaborate().map_err(|e| e.to_string())?;
        let sg = sg.state_graph();
        if golden.get(*name) != Some(&(sg.state_count(), sg.arc_count())) {
            out.fail(format!(
                "{name}: {} states / {} arcs, golden {:?}",
                sg.state_count(),
                sg.arc_count(),
                golden.get(*name)
            ));
        }
    }

    let reports: Vec<simap::core::json::Json> = first
        .iter()
        .flatten()
        .map(|j| simap::core::json::parse(j.trim_end()).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    out.quality(&reports);
    out.record("passes", passes.index() as f64, "count");
    out.setup_s = stats::median(&setup);
    out.rss_mb = stats::median(&rss);
    if t.on() {
        out.traced_items(&flow_s, &traced_s)?;
        out.target_share = t.shares_under("flow").get("core.decompose").copied().unwrap_or(0.0);
    } else {
        out.items("suite_s", &flow_s, Mean::Geometric)?;
    }
    Ok(out)
}

/// An engine with every circuit's STG already built in its registry.
fn fresh_engine(names: &[&str]) -> Engine {
    let engine = Engine::new(Config::default());
    for name in names {
        engine.registry().get(name);
    }
    engine
}

fn read_golden() -> Result<BTreeMap<String, (usize, usize)>, String> {
    let text = std::fs::read_to_string(GOLDEN).map_err(|e| format!("{GOLDEN}: {e}"))?;
    let mut golden = BTreeMap::new();
    for line in text.lines().filter(|l| !l.starts_with('#') && !l.trim().is_empty()) {
        let fields: Vec<&str> = line.split('\t').collect();
        let count = |i: usize| fields.get(i).and_then(|f| f.parse::<usize>().ok());
        match (fields.first(), count(1), count(2)) {
            (Some(name), Some(states), Some(arcs)) => {
                golden.insert(name.to_string(), (states, arcs));
            }
            _ => return Err(format!("{GOLDEN}: bad line `{line}`")),
        }
    }
    Ok(golden)
}
