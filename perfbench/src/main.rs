//! simap's benchmark: three workloads that stress different layers, an
//! untraced run for the end-to-end metrics and a traced run that times the
//! calls into each layer's public functions.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <table1|serve-stg|reach-grid> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run it from the repository root. It builds the `simap` binary (for
//! `serve-stg`), prints a run record (host facts, input digest, host-speed
//! probe before and after, the workload's named figures) and, as its last
//! line, one JSON object: `correct`, `attempted`, `failed` and `metrics` —
//! the end-to-end metrics untraced, the per-layer metrics traced.
//! `perfbench/METRICS.md` defines every metric.

mod flow;
mod gen;
mod grid;
mod serve;
mod stats;
mod table1;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

const WORKLOADS: [&str; 3] = ["table1", "serve-stg", "reach-grid"];

/// A reported metric: name, value, unit.
type Metric = (&'static str, f64, &'static str);

/// Counters and figures one workload run produces.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    digest: u64,
    pub setup_s: f64,
    pub rss_mb: f64,
    /// The workload's mean per-item time (see [`Outcome::items`]).
    item_ms: f64,
    /// Share of the workload's root-span self time in the layers it is
    /// meant to stress (traced runs).
    pub target_share: f64,
    layers: BTreeMap<&'static str, f64>,
    record: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    fn new(digest: u64) -> Self {
        Outcome {
            attempted: 0,
            failed: 0,
            digest,
            setup_s: 0.0,
            rss_mb: 0.0,
            item_ms: 0.0,
            target_share: 0.0,
            layers: BTreeMap::new(),
            record: Vec::new(),
        }
    }

    /// Counts a failed or wrong operation and says which.
    fn fail(&mut self, problem: String) {
        self.failed += 1;
        eprintln!("perfbench: FAILED {problem}");
    }

    fn record(&mut self, name: &str, value: f64, unit: &'static str) {
        self.record.push((name.to_string(), value, unit));
    }

    fn layer(&mut self, name: &'static str, value: f64) {
        self.layers.insert(name, value);
    }

    /// The end-to-end time of per-item samples: `item_ms`, the `mean` of
    /// each item's fastest time in the run. Other work on a shared host
    /// only ever slows an item down, so the fastest time is the one it
    /// moves least. The record also gets the sum, under the workload's own
    /// name, and both means.
    fn items(&mut self, name: &str, samples: &[Vec<f64>], mean: Mean) -> Result<(), String> {
        if samples.iter().any(Vec::is_empty) {
            return Err("an item was never measured".to_string());
        }
        let fastest: Vec<f64> =
            samples.iter().map(|s| s.iter().copied().fold(f64::INFINITY, f64::min)).collect();
        let total: f64 = fastest.iter().sum();
        let arithmetic_ms = 1e3 * total / fastest.len() as f64;
        let geometric_ms = 1e3 * stats::geomean(&fastest);
        self.record(name, total, "s");
        self.record("samples", samples.iter().map(Vec::len).sum::<usize>() as f64, "count");
        self.record("arithmetic_mean_ms", arithmetic_ms, "ms");
        self.record("geometric_mean_ms", geometric_ms, "ms");
        self.item_ms = match mean {
            Mean::Geometric => geometric_ms,
            Mean::Arithmetic => arithmetic_ms,
        };
        Ok(())
    }

    /// The tracing overhead: per-item median time with tracing against the
    /// same items' median time without it, over the items measured both
    /// ways, minus 1. It is a difference of two measured times, so when the
    /// overhead is below the host's noise it can come out negative.
    fn traced_items(&mut self, untraced: &[Vec<f64>], traced: &[Vec<f64>]) -> Result<(), String> {
        let (mut plain, mut with) = (0.0, 0.0);
        for (u, t) in untraced.iter().zip(traced) {
            if !u.is_empty() && !t.is_empty() {
                plain += stats::median(u);
                with += stats::median(t);
            }
        }
        if plain <= 0.0 {
            return Err("no item was measured both traced and untraced".to_string());
        }
        self.layer("trace.overhead_share", with / plain - 1.0);
        Ok(())
    }

    /// Quality of the produced circuits, from the flow reports' JSON.
    fn quality(&mut self, reports: &[simap::core::json::Json]) {
        let sum = |path: &[&str]| -> f64 {
            reports
                .iter()
                .filter_map(|r| path.iter().try_fold(r, |doc, key| doc.get(key)))
                .filter_map(simap::core::json::Json::as_usize)
                .sum::<usize>() as f64
        };
        let verified =
            reports.iter().filter(|r| r.get("verified").and_then(|v| v.as_bool()) == Some(true));
        let verified_share = verified.count() as f64 / reports.len().max(1) as f64;
        let decomposed = reports
            .iter()
            .filter(|r| r.get("inserted").and_then(simap::core::json::Json::as_usize) > Some(0));
        let decomposed_share = decomposed.count() as f64 / reports.len().max(1) as f64;
        self.record("decomposed_share", decomposed_share, "share");
        let quality = [
            ("netlist.si_literals", sum(&["si_cost", "literals"])),
            ("netlist.c_elements", sum(&["si_cost", "c_elements"])),
            ("core.inserted_signals", sum(&["inserted"])),
            ("netlist.verified_share", verified_share),
        ];
        for (name, value) in quality {
            self.layer(name, value);
            self.record(name, value, if name.ends_with("share") { "share" } else { "count" });
        }
    }
}

/// How a workload averages its per-item times into `item_ms`.
pub enum Mean {
    /// table1: its circuits' times span four orders of magnitude, and the
    /// geometric mean weighs every circuit the same, as the paper's table
    /// reports each circuit on its own row.
    Geometric,
    /// serve-stg and reach-grid: the wait per item of one caller that sends
    /// the items in turn (for serve-stg, the inverse of its throughput).
    Arithmetic,
}

/// Time-boxed passes over a workload's items: a pass starts only while at
/// least half of the longest pass so far still fits in the remaining time.
/// A traced run alternates traced and untraced passes, so it always runs at
/// least two.
pub struct Passes {
    seconds: f64,
    min: usize,
    start: Instant,
    started: usize,
    last: f64,
    longest: f64,
}

impl Passes {
    fn new(seconds: f64, traced: bool) -> Self {
        let min = if traced { 2 } else { 1 };
        Passes { seconds, min, start: Instant::now(), started: 0, last: 0.0, longest: 0.0 }
    }

    fn next(&mut self) -> bool {
        let now = self.start.elapsed().as_secs_f64();
        if self.started > 0 {
            self.longest = self.longest.max(now - self.last);
            if self.started >= self.min && now + self.longest / 2.0 > self.seconds {
                return false;
            }
        }
        self.started += 1;
        self.last = now;
        true
    }

    /// Passes started so far (1 during the first pass).
    fn index(&self) -> usize {
        self.started
    }
}

/// The per-layer metrics a traced run reports, in `BENCHMARK.json` order.
const LAYER_TIMES: [(&str, &str); 9] = [
    ("stg.parse_s", "stg.parse"),
    ("stg.reach_s", "stg.reach"),
    ("sg.properties_s", "sg.properties"),
    ("core.csc_s", "core.csc"),
    ("core.covers_s", "core.covers"),
    ("core.decompose_s", "core.decompose"),
    ("boolean.minimize_s", "boolean.minimize"),
    ("netlist.map_s", "netlist.map"),
    ("netlist.verify_s", "netlist.verify"),
];
const LAYER_COUNTS: [&str; 8] = [
    "stg.states",
    "stg.edges",
    "core.initial_literals",
    "core.insertions",
    "core.states_after",
    "boolean.minimize_calls",
    "boolean.off_codes",
    "netlist.verify_states",
];
/// Layer figures a workload sets itself; 0 where the workload does not
/// exercise the layer.
const LAYER_FIGURES: [(&str, &str); 9] = [
    ("netlist.si_literals", "count"),
    ("netlist.c_elements", "count"),
    ("core.inserted_signals", "count"),
    ("netlist.verified_share", "share"),
    ("serve.overhead_share", "share"),
    ("serve.hit_ratio", "share"),
    ("serve.hit_speedup", "x"),
    ("serve.rescache_stores", "count"),
    ("trace.overhead_share", "share"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => {
                return Err(format!("unknown workload `{value}` (one of {WORKLOADS:?})"))
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                seconds =
                    Some(value.parse::<f64>().ok().filter(|s| *s > 0.0).ok_or("bad --seconds")?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Builds the `simap` binary of the checkout (a no-op once built) and
/// returns its path; every workload does it, so the first run of any
/// workload pays for the build.
fn build_simap() -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_string());
    let status = Command::new(cargo)
        .args(["build", "--release", "--quiet", "--bin", "simap"])
        .env_remove("CARGO_MANIFEST_DIR")
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building simap failed ({status})"));
    }
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string());
    let bin = PathBuf::from(target).join("release").join("simap");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("no simap binary at {}", bin.display()))
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn run(args: &Args) -> Result<(Outcome, Vec<Metric>), String> {
    if !std::path::Path::new("crates").is_dir() {
        return Err("run from the root of a simap checkout".to_string());
    }
    let simap_bin = build_simap()?;
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "perfbench: workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("perfbench: host nproc {nproc}, {}", command_line("rustc", &["--version"]));
    println!("perfbench: commit {}", command_line("git", &["rev-parse", "HEAD"]));
    let probe_before = stats::host_probe_s();

    let mut tracer = trace::Tracer::new(args.trace);
    let mut out = match args.workload.as_str() {
        "table1" => table1::run(args.seconds, &mut tracer)?,
        "serve-stg" => serve::run(args.seed, args.seconds, &mut tracer, &simap_bin)?,
        _ => grid::run(args.seed, args.seconds, &mut tracer)?,
    };
    let probe_after = stats::host_probe_s();
    println!("perfbench: inputs digest {:016x}", out.digest);
    println!("perfbench: host probe {probe_before:.4} s before, {probe_after:.4} s after");
    let error_share = out.failed as f64 / out.attempted.max(1) as f64;
    out.record("error_share", error_share, "share");

    let mut metrics = Vec::new();
    if args.trace {
        let layer_s = tracer.layer_seconds();
        for (metric, span) in LAYER_TIMES {
            metrics.push((metric, layer_s.get(span).copied().unwrap_or(0.0), "s"));
        }
        for name in LAYER_COUNTS {
            metrics.push((name, tracer.total(name), "count"));
        }
        for (name, unit) in LAYER_FIGURES {
            metrics.push((name, out.layers.get(name).copied().unwrap_or(0.0), unit));
        }
        metrics.push(("trace.target_share", out.target_share, "share"));
        std::fs::create_dir_all(".perfbench-out").map_err(|e| e.to_string())?;
        let path = format!(".perfbench-out/trace-{}-{}.json", args.workload, args.seed);
        std::fs::write(&path, tracer.to_json()).map_err(|e| format!("{path}: {e}"))?;
        println!("perfbench: spans written to {path}");
    } else {
        metrics.push(("setup_s", out.setup_s, "s"));
        metrics.push(("peak_rss_mb", out.rss_mb, "MB"));
        metrics.push(("item_ms", out.item_ms, "ms"));
    }
    for (name, value, unit) in &out.record {
        println!("perfbench: {name} = {value} {unit}");
    }
    Ok((out, metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (out, metrics) = match run(&args) {
        Ok(result) => result,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut line = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        if !value.is_finite() {
            eprintln!("perfbench: metric {name} is not a number ({value})");
            return ExitCode::FAILURE;
        }
        let sep = if i > 0 { "," } else { "" };
        let _ = write!(line, "{sep}\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}");
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{line}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed
    );
    ExitCode::SUCCESS
}
