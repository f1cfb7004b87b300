//! `reach-grid`: the `simap check` path (parse → default-strategy
//! elaboration → CSC conflicts → property check) on generated concurrent
//! nets of 65k–262k states. No minimizer runs here.

use crate::gen::{self, GRID};
use crate::stats::{self, Rng};
use crate::trace::Tracer;
use crate::{flow, Mean, Outcome, Passes};
use simap::stg::Stg;
use simap::{Config, Synthesis};
use std::time::Instant;

/// Set-ups per `setup_s` sample. One set-up (generating and parsing the
/// four nets) takes well under a millisecond; a sample times this many in
/// a row so that it is not a timer-resolution figure.
const SETUP_BATCH: usize = 64;

pub fn run(seed: u64, seconds: f64, t: &mut Tracer) -> Result<Outcome, String> {
    // Set-up is building the inputs as the program's STGs: generating each
    // net's text and parsing it. It is repeated before every check so its
    // median is taken over the whole run rather than one moment of it.
    let setup_once = |t: &mut Tracer| -> Result<Vec<(gen::GridNet, Stg)>, String> {
        let mut rng = Rng::new(seed);
        GRID.iter()
            .enumerate()
            .map(|(i, rings)| {
                let net = gen::grid_net(&format!("grid{i}"), rings, &mut rng);
                let stg = t.span("stg.parse", i, |_| simap::stg::parse_g(&net.text));
                Ok((net, stg.map_err(|e| format!("grid{i}: {e}"))?))
            })
            .collect()
    };
    let mut setup = Vec::new();
    let mut time_setup = |t: &mut Tracer| -> Result<Vec<(gen::GridNet, Stg)>, String> {
        let start = Instant::now();
        let mut inputs = setup_once(t)?;
        for _ in 1..SETUP_BATCH {
            inputs = std::hint::black_box(setup_once(&mut Tracer::new(false))?);
        }
        setup.push(start.elapsed().as_secs_f64() / SETUP_BATCH as f64);
        Ok(inputs)
    };
    let inputs = time_setup(t)?;
    let mut out = Outcome::new(stats::digest(inputs.iter().map(|(n, _)| n.text.as_bytes())));
    let config = Config::default();

    let mut check_s: Vec<Vec<f64>> = vec![Vec::new(); inputs.len()];
    let mut traced_s: Vec<Vec<f64>> = vec![Vec::new(); inputs.len()];
    let mut rss = Vec::new();
    let mut passes = Passes::new(seconds, t.on());
    while passes.next() {
        stats::reset_peak_rss()?;
        let traced = t.on() && passes.index() % 2 == 1;
        for i in 0..inputs.len() {
            let built = time_setup(&mut Tracer::new(false))?;
            let (net, stg) = &built[i];
            out.attempted += 1;
            let start = Instant::now();
            let verdict = if traced { traced_check(t, i, stg, &config) } else { check(stg) };
            let elapsed = start.elapsed().as_secs_f64();
            match verdict {
                Ok((states, arcs, edges, ok)) => {
                    if (states, arcs, edges) != (net.states, net.arcs, net.arcs) {
                        out.fail(format!(
                            "grid{i}: {states} states / {arcs} arcs / {edges} edges, closed form {} / {}",
                            net.states, net.arcs
                        ));
                    } else if !ok {
                        out.fail(format!("grid{i}: property check failed"));
                    }
                }
                Err(e) => out.fail(format!("grid{i}: {e}")),
            }
            let samples = if traced { &mut traced_s } else { &mut check_s };
            samples[i].push(elapsed);
        }
        rss.push(stats::peak_rss_mb(None)?);
    }

    out.record("passes", passes.index() as f64, "count");
    out.setup_s = stats::median(&setup);
    out.rss_mb = stats::median(&rss);
    if t.on() {
        out.traced_items(&check_s, &traced_s)?;
        let shares = t.shares_under("check");
        out.target_share = ["stg.reach", "sg.properties", "core.csc"]
            .iter()
            .map(|layer| shares.get(layer).copied().unwrap_or(0.0))
            .sum();
    } else {
        out.items("check_s", &check_s, Mean::Arithmetic)?;
    }
    Ok(out)
}

/// The check path as `simap check` runs it after parsing. Returns (states,
/// arcs, fired edges, verdict).
fn check(stg: &Stg) -> Result<(usize, usize, usize, bool), String> {
    let elaborated = Synthesis::from_stg(stg.clone()).elaborate().map_err(|e| e.to_string())?;
    let report = elaborated.properties();
    let sg = elaborated.state_graph();
    let edges = elaborated.reach_stats().map_or(0, |s| s.edges);
    Ok((sg.state_count(), sg.arc_count(), edges, report.is_ok()))
}

/// The same path split at the layer boundaries, one span per layer.
fn traced_check(
    t: &mut Tracer,
    item: usize,
    stg: &Stg,
    config: &Config,
) -> Result<(usize, usize, usize, bool), String> {
    t.span("check", item, |t| {
        let (sg, stats) = t
            .span("stg.reach", item, |_| {
                simap::stg::elaborate_with_stats(stg, config.reach_config())
            })
            .map_err(|e| e.to_string())?;
        t.count("stg.states", item, stats.interned as f64);
        t.count("stg.edges", item, stats.edges as f64);
        let ok = flow::replay_checks(t, item, &sg);
        Ok((sg.state_count(), sg.arc_count(), stats.edges, ok))
    })
}
