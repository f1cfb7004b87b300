//! `simap` — command-line front-end to the speed-independent technology
//! mapper.
//!
//! `simap <check|map|bench|gen|serve> ...`; `simap --help` (or `-h`, also
//! after any subcommand) prints the usage block kept in [`USAGE`] — the
//! subcommands and every flag each accepts — to stdout and exits 0.
//!
//! `simap serve` hosts the same flow as a long-running HTTP/1.1 service
//! over one shared engine; see the `simap_serve` crate docs for the wire
//! protocol and the gateway layers (auth, rate limiting, circuit
//! breaker, result cache). It shuts down gracefully — draining accepted
//! jobs — on SIGTERM or ctrl-c, and reloads the API keyfile in place on
//! SIGHUP.
//!
//! Unknown flags, flags missing their value and values that do not parse
//! are rejected with an error naming the flag (exit code 1) instead of
//! being silently ignored.

use simap::core::{benchmarks_json, dossier, report_json, to_csv, to_json, to_markdown};
use simap::netlist::to_verilog;
use simap::sg::DotOptions;
use simap::{Config, Engine, FlowEvent, Synthesis};
use std::error::Error;
use std::io::Write;
use std::process::ExitCode;

/// The usage block `-h`/`--help` prints.
const USAGE: &str = "\
simap check <spec.g> [options]      verify the specification's properties
simap map   <spec.g> [options]      run the full mapping flow
simap bench list [--json]           list the embedded Table 1 circuits
simap bench run [name ...] [opts]   batch the suite through one config
simap gen [options]                 emit seeded `.g` corpus specs
simap serve [options]               host the flow as an HTTP service
simap --help                        print this usage (also -h, after any subcommand)

engine options (check, map and bench run):
      --strategy <s>   reachability engine: packed (default) | explicit | spill
      --memory-budget <b>  spill: resident working-set cap (e.g. 256MiB)
      --spill-dir <d>  spill: scratch directory (default: system temp)
      --shards <n>     spill: hash partitions of the intern table
      --checkpoint-every <n>  spill: commit a durable checkpoint every n BFS levels
      --checkpoint-dir <d>    spill: directory the checkpoints are committed to
      --resume <d>     spill: continue from the last checkpoint in <d>

check options:
      --bench <name>   use an embedded benchmark instead of a file

map options:
  -l, --limit <n>      literal limit (default 2)
      --csc-repair     repair CSC violations by state-signal insertion
      --no-verify      skip the final speed-independence verification
      --or-limit <n>   split second-level OR gates to <= n inputs
  -v, --verbose        narrate stages and insertions to stderr
      --json           print the report as JSON instead of the dossier
      --verilog <f>    write the mapped netlist as structural Verilog
      --dot <f>        write the final state graph as Graphviz dot
      --bench <name>   use an embedded benchmark instead of a file

bench run options:
      --limits <a,b>   literal limits (default 2)
  -j, --jobs <n>       worker threads (default 1; results identical)
      --csc-repair     repair CSC violations by state-signal insertion
      --no-verify      skip speed-independence verification
      --json|--csv     emit JSON / CSV instead of the markdown table

gen options:
      --seed <n>       corpus seed (default 0); a fixed seed gives
                       byte-identical specs on every machine
      --count <n>      how many specs to produce (default 1)
      --out-dir <d>    write one `<name>.g` file per spec into <d>
                       (created if missing); default: print to stdout

serve options:
      --addr <a>       address to bind (default 127.0.0.1:7317)
  -j, --jobs <n>       synthesis worker threads (default: CPU count)
      --queue-limit <n> bounded job queue; full => 429 (default 64)
      --api-keys <f>   TSV keyfile (key<TAB>client<TAB>tier); without
                       it every caller is one anonymous client
      --rate-limit <r> base requests/sec per client (default 0 = off)
      --max-inflight <n> base in-flight jobs per client (default 0 = off)
      --cache-dir <d>  persistent result cache directory (default: off)
      --cache-limit <n> max cached results before LRU eviction (default 256)
      --breaker-threshold <n> worker failures in 10s that open the
                       circuit breaker (default 8; 0 disables)
      --breaker-cooldown <s> seconds the breaker stays open before a
                       half-open probe (default 5)
";

/// The error a `-h`/`--help` flag raises wherever it appears; [`main`]
/// answers it with [`USAGE`] on stdout and exit code 0.
#[derive(Debug)]
struct HelpRequested;

impl std::fmt::Display for HelpRequested {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("help requested")
    }
}

impl Error for HelpRequested {}

/// Writes to stdout. Every stdout write goes through here (via [`out!`]
/// and [`outln!`]), so a reader that closes the pipe early, as in
/// `simap bench list | head -1`, comes back as an `io::Error` that
/// [`main`] turns into a clean exit where `print!` would panic.
fn write_out(args: std::fmt::Arguments) -> std::io::Result<()> {
    std::io::stdout().lock().write_fmt(args)
}

/// `print!` through [`write_out`]; evaluates to its `io::Result`.
macro_rules! out {
    ($($arg:tt)*) => {
        write_out(format_args!($($arg)*))
    };
}

/// `println!` through [`write_out`]; evaluates to its `io::Result`.
macro_rules! outln {
    ($($arg:tt)*) => {
        write_out(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Whether `e` is stdout's reader having gone away, which ends the
/// output early but is not a failure.
fn is_broken_pipe(e: &(dyn Error + 'static)) -> bool {
    e.downcast_ref::<std::io::Error>().is_some_and(|e| e.kind() == std::io::ErrorKind::BrokenPipe)
}

fn is_help(arg: &str) -> bool {
    arg == "-h" || arg == "--help"
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) if e.is::<HelpRequested>() => {
            // Nothing is left to report if stdout is already closed.
            let _ = out!("{USAGE}");
            ExitCode::SUCCESS
        }
        Err(e) if is_broken_pipe(e.as_ref()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<ExitCode, Box<dyn Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => check(&args[1..]),
        Some("map") => map(&args[1..]),
        Some("bench") => bench(&args[1..]),
        Some("gen") => gen(&args[1..]),
        Some("serve") => serve(&args[1..]),
        Some(arg) if is_help(arg) => Err(HelpRequested.into()),
        _ => {
            eprintln!("usage: simap <check|map|bench|gen|serve> ...   (see simap --help)");
            Ok(ExitCode::FAILURE)
        }
    }
}

/// One accepted flag of a subcommand.
#[derive(Clone, Copy)]
struct FlagSpec {
    /// Canonical name (`--limit`).
    name: &'static str,
    /// Optional short alias (`-l`).
    alias: Option<&'static str>,
    /// Whether the flag consumes the following argument as its value.
    takes_value: bool,
}

const fn flag(name: &'static str) -> FlagSpec {
    FlagSpec { name, alias: None, takes_value: false }
}

const fn valued(name: &'static str) -> FlagSpec {
    FlagSpec { name, alias: None, takes_value: true }
}

const fn aliased(mut spec: FlagSpec, alias: &'static str) -> FlagSpec {
    spec.alias = Some(alias);
    spec
}

/// Strictly parsed arguments of one subcommand: every flag was declared,
/// every valued flag has its value.
struct Parsed {
    positionals: Vec<String>,
    flags: Vec<&'static str>,
    values: Vec<(&'static str, String)>,
}

impl Parsed {
    fn has(&self, name: &str) -> bool {
        self.flags.contains(&name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        // Last occurrence wins, matching common CLI conventions.
        self.values.iter().rev().find(|(n, _)| *n == name).map(|(_, v)| v.as_str())
    }

    /// The value of `name` parsed as a `T`, or `None` when the flag is
    /// absent.
    ///
    /// # Errors
    /// ``bad --<flag> `<value>`: <cause>`` when the value does not parse.
    fn value_as<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String>
    where
        T::Err: std::fmt::Display,
    {
        self.value(name)
            .map(|v| v.parse().map_err(|e| format!("bad {name} `{v}`: {e}")))
            .transpose()
    }
}

/// Parses `args` against the accepted `specs`.
///
/// # Errors
/// [`HelpRequested`] for `-h`/`--help`; otherwise an unknown flag, or a
/// valued flag with no following argument.
fn parse_flags(args: &[String], specs: &[FlagSpec]) -> Result<Parsed, Box<dyn Error>> {
    let mut parsed = Parsed { positionals: Vec::new(), flags: Vec::new(), values: Vec::new() };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if !arg.starts_with('-') || arg == "-" {
            parsed.positionals.push(arg.clone());
            continue;
        }
        if is_help(arg) {
            return Err(HelpRequested.into());
        }
        let spec = specs
            .iter()
            .find(|s| s.name == arg || s.alias == Some(arg.as_str()))
            .ok_or_else(|| format!("unknown flag `{arg}`"))?;
        if spec.takes_value {
            let value = iter.next().ok_or_else(|| format!("flag `{arg}` requires a value"))?;
            parsed.values.push((spec.name, value.clone()));
        } else {
            parsed.flags.push(spec.name);
        }
    }
    Ok(parsed)
}

/// Builds a [`Synthesis`] from the parsed source arguments: `--bench
/// <name>` takes precedence; otherwise the first positional argument is a
/// `.g` file path.
fn synthesis(parsed: &Parsed) -> Result<Synthesis, Box<dyn Error>> {
    if let Some(name) = parsed.value("--bench") {
        return Ok(Synthesis::from_benchmark(name));
    }
    let Some(path) = parsed.positionals.first() else {
        return Err("no specification given (pass a .g file or --bench <name>)".into());
    };
    let source = std::fs::read_to_string(path).map_err(|e| format!("cannot read `{path}`: {e}"))?;
    Ok(Synthesis::from_g_source(source))
}

/// Parses a byte-size value: a plain integer (bytes) optionally suffixed
/// with `K`/`KiB`, `M`/`MiB` or `G`/`GiB` (binary multiples; `KB`-style
/// decimal suffixes are accepted as their binary cousins for
/// forgiveness, since a memory *budget* is a bound, not a measurement).
fn parse_bytes(spec: &str) -> Result<usize, String> {
    let s = spec.trim();
    let split = s.find(|c: char| !c.is_ascii_digit()).unwrap_or(s.len());
    let (digits, suffix) = s.split_at(split);
    let value: usize =
        digits.parse().map_err(|_| format!("bad byte size `{spec}`: expected digits"))?;
    let shift = match suffix.trim().to_ascii_lowercase().as_str() {
        "" | "b" => 0,
        "k" | "kb" | "kib" => 10,
        "m" | "mb" | "mib" => 20,
        "g" | "gb" | "gib" => 30,
        other => return Err(format!("bad byte size `{spec}`: unknown suffix `{other}`")),
    };
    value.checked_mul(1 << shift).ok_or_else(|| format!("byte size `{spec}` overflows"))
}

/// The engine flags `check`, `map` and `bench run` all accept; each
/// subcommand's flag table extends this one, and [`reach_flags`] applies
/// them.
const ENGINE_FLAGS: &[FlagSpec] = &[
    valued("--strategy"),
    valued("--memory-budget"),
    valued("--spill-dir"),
    valued("--shards"),
    valued("--checkpoint-every"),
    valued("--checkpoint-dir"),
    valued("--resume"),
];

/// Applies the [`ENGINE_FLAGS`] to a configuration builder. `--resume`
/// implies the spill strategy (and refuses an explicit conflicting
/// `--strategy`).
fn reach_flags(
    parsed: &Parsed,
    mut builder: simap::ConfigBuilder,
) -> Result<simap::ConfigBuilder, Box<dyn Error>> {
    if let Some(strategy) = parsed.value("--strategy") {
        builder = builder.reach_strategy(strategy.parse::<simap::ReachStrategy>()?);
    }
    if let Some(budget) = parsed.value("--memory-budget") {
        builder = builder.reach_memory_budget(parse_bytes(budget)?);
    }
    if let Some(dir) = parsed.value("--spill-dir") {
        builder = builder.reach_spill_dir(Some(std::path::PathBuf::from(dir)));
    }
    if let Some(shards) = parsed.value_as("--shards")? {
        builder = builder.reach_shards(shards);
    }
    if let Some(every) = parsed.value_as("--checkpoint-every")? {
        builder = builder.reach_checkpoint_every(every);
    }
    if let Some(dir) = parsed.value("--checkpoint-dir") {
        builder = builder.reach_checkpoint_dir(Some(std::path::PathBuf::from(dir)));
    }
    if let Some(dir) = parsed.value("--resume") {
        if parsed.value("--strategy").is_some_and(|s| s != "spill") {
            return Err(
                "--resume requires the spill strategy (omit --strategy or pass `spill`)".into()
            );
        }
        builder = builder
            .reach_strategy(simap::ReachStrategy::Spill)
            .reach_resume(Some(std::path::PathBuf::from(dir)));
    }
    Ok(builder)
}

fn check(args: &[String]) -> Result<ExitCode, Box<dyn Error>> {
    let parsed = parse_flags(args, &[ENGINE_FLAGS, &[valued("--bench")]].concat())?;
    let config = reach_flags(&parsed, Config::builder())?.build()?;
    let elaborated = synthesis(&parsed)?.config(&config).elaborate()?;
    let sg = elaborated.state_graph();
    let report = elaborated.properties();
    outln!("{}: {} signals, {} states", sg.name(), sg.signal_count(), sg.state_count())?;
    if let Some(stats) = elaborated.reach_stats() {
        outln!(
            "  elaboration: {} markings visited, {} interned, {} edges ({})",
            stats.visited,
            stats.interned,
            stats.edges,
            stats.strategy
        )?;
        if let Some(spill) = stats.spill {
            outln!(
                "  spill: {} bytes spilled, {} files, resident peak {} of {} budget, {} shards",
                spill.spilled_bytes,
                spill.files_created,
                spill.resident_peak,
                spill.budget,
                spill.shards
            )?;
            if spill.checkpoints_written > 0 || spill.resume_level > 0 {
                outln!(
                    "  checkpoint: {} snapshots written, {} bytes, resumed from level {}",
                    spill.checkpoints_written,
                    spill.checkpoint_bytes,
                    spill.resume_level
                )?;
            }
        }
    }
    outln!("  speed-independent: {}", report.is_speed_independent())?;
    outln!("  complete state coding: {}", report.has_csc())?;
    for v in report.violations.iter().take(10) {
        outln!("  violation: {v}")?;
    }
    Ok(if report.is_ok() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn map(args: &[String]) -> Result<ExitCode, Box<dyn Error>> {
    let parsed = parse_flags(
        args,
        &[
            ENGINE_FLAGS,
            &[
                aliased(valued("--limit"), "-l"),
                valued("--or-limit"),
                valued("--verilog"),
                valued("--dot"),
                valued("--bench"),
                flag("--csc-repair"),
                flag("--no-verify"),
                flag("--json"),
                aliased(flag("--verbose"), "-v"),
            ],
        ]
        .concat(),
    )?;

    let mut builder = reach_flags(
        &parsed,
        Config::builder().repair_csc(parsed.has("--csc-repair")).verify(!parsed.has("--no-verify")),
    )?;
    if let Some(limit) = parsed.value_as("--limit")? {
        builder = builder.literal_limit(limit);
    }
    if let Some(limit) = parsed.value_as("--or-limit")? {
        builder = builder.or_limit(limit);
    }
    let config = builder.build()?;

    let mut synthesis = synthesis(&parsed)?.config(&config);
    if parsed.has("--verbose") {
        synthesis = synthesis.observer(narrate);
    }

    // Drive the stages explicitly so the mapped netlist is available for
    // the exporters without rebuilding it. Refutation is reported in the
    // dossier (`verified: Some(false)`), not raised as an error, so the
    // netlist exports below still run — matching the historical CLI.
    let mapped = synthesis.elaborate()?.covers()?.decompose()?.map();
    let verified = if config.verify() { mapped.verify_compat() } else { mapped.skip_verify() };
    let report = verified.report();
    let json = parsed.has("--json");
    if json {
        outln!("{}", report_json(report))?;
    } else {
        out!("{}", dossier(report))?;
    }
    // In JSON mode stdout carries exactly one JSON document; export
    // confirmations move to stderr so `--json --verilog f` stays parseable.
    let confirm = |path: &str| {
        if json {
            eprintln!("wrote {path}");
            Ok(())
        } else {
            outln!("wrote {path}")
        }
    };

    if let Some(path) = parsed.value("--verilog") {
        let module = report.name.clone();
        std::fs::write(path, to_verilog(verified.circuit(), &report.outcome.sg, &module))?;
        confirm(path)?;
    }
    if let Some(path) = parsed.value("--dot") {
        std::fs::write(
            path,
            simap::sg::to_dot(
                &report.outcome.sg,
                &DotOptions { show_codes: true, ..Default::default() },
            ),
        )?;
        confirm(path)?;
    }
    Ok(if report.inserted.is_some() { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

/// The `--verbose` narration: one stderr line per progress event.
fn narrate(event: FlowEvent) {
    match event {
        FlowEvent::StageStart { stage, spec } => eprintln!("[{stage}] {spec}"),
        FlowEvent::CscConflicts { count } => eprintln!("  {count} CSC conflict(s)"),
        FlowEvent::CscRepair { signal } => eprintln!("  inserted CSC state signal {signal}"),
        FlowEvent::Step { step } => eprintln!(
            "  inserted {} = {} targeting {} (excess {} -> {})",
            step.signal, step.divisor, step.target, step.excess.0, step.excess.1
        ),
        FlowEvent::SignalSynth { signal, cubes, literals } => {
            eprintln!("  covers for {signal}: {cubes} cube(s), {literals} literal(s)")
        }
        FlowEvent::Verdict { verified } => eprintln!(
            "  speed-independent: {}",
            match verified {
                Some(true) => "verified",
                Some(false) => "REFUTED",
                None => "unchecked",
            }
        ),
        FlowEvent::StageEnd { .. } | FlowEvent::Gateway { .. } => {}
    }
}

fn bench(args: &[String]) -> Result<ExitCode, Box<dyn Error>> {
    match args.first().map(String::as_str) {
        Some("list") => {
            let parsed = parse_flags(&args[1..], &[flag("--json")])?;
            let engine = Engine::default();
            if parsed.has("--json") {
                // The same machine-readable listing `simap serve` answers
                // on GET /benchmarks (byte-identical by construction).
                outln!("{}", benchmarks_json(&engine)?)?;
                return Ok(ExitCode::SUCCESS);
            }
            for name in engine.registry().names() {
                let sg = engine.benchmark(*name).elaborate()?;
                let sg = sg.state_graph();
                outln!("{name:15} {:2} signals {:5} states", sg.signal_count(), sg.state_count())?;
            }
            Ok(ExitCode::SUCCESS)
        }
        Some("run") => bench_run(&args[1..]),
        Some(arg) if is_help(arg) => Err(HelpRequested.into()),
        _ => {
            eprintln!("usage: simap bench <list|run> ...");
            Ok(ExitCode::FAILURE)
        }
    }
}

/// `simap gen`: emits `--count` specs of the seeded pattern-composition
/// corpus (`simap::stg::patterns::corpus`). The specs are a pure function
/// of `--seed`, so a fixed seed reproduces the same bytes on any machine
/// — the property the fuzz suite and serve load tests lean on. With
/// `--out-dir` each spec lands in its own `<name>.g` file; otherwise the
/// specs stream to stdout back to back (each is self-delimiting via its
/// `.end` line).
fn gen(args: &[String]) -> Result<ExitCode, Box<dyn Error>> {
    let parsed = parse_flags(args, &[valued("--seed"), valued("--count"), valued("--out-dir")])?;
    if let Some(p) = parsed.positionals.first() {
        return Err(format!("unexpected argument `{p}` (gen takes only flags)").into());
    }
    let seed: u64 = parsed.value_as("--seed")?.unwrap_or(0);
    let count: usize = parsed.value_as("--count")?.unwrap_or(1);
    let out_dir = parsed.value("--out-dir");
    if let Some(dir) = out_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("cannot create `{dir}`: {e}"))?;
    }
    let mut stdout = String::new();
    for stg in simap::stg::patterns::corpus(seed, count) {
        let text = simap::stg::write_g(&stg);
        match out_dir {
            Some(dir) => {
                let path = std::path::Path::new(dir).join(format!("{}.g", stg.name()));
                std::fs::write(&path, &text)
                    .map_err(|e| format!("cannot write `{}`: {e}", path.display()))?;
            }
            None => stdout.push_str(&text),
        }
    }
    out!("{stdout}")?;
    Ok(ExitCode::SUCCESS)
}

fn bench_run(args: &[String]) -> Result<ExitCode, Box<dyn Error>> {
    let parsed = parse_flags(
        args,
        &[
            ENGINE_FLAGS,
            &[
                valued("--limits"),
                aliased(valued("--jobs"), "-j"),
                flag("--csc-repair"),
                flag("--no-verify"),
                flag("--json"),
                flag("--csv"),
            ],
        ]
        .concat(),
    )?;

    let limits: Vec<usize> = match parsed.value("--limits") {
        Some(spec) => spec
            .split(',')
            .map(|s| s.trim().parse::<usize>())
            .collect::<Result<_, _>>()
            .map_err(|e| format!("bad --limits `{spec}`: {e}"))?,
        None => vec![2],
    };
    let jobs: usize = parsed.value_as("--jobs")?.unwrap_or(1);

    let config = reach_flags(
        &parsed,
        Config::builder().repair_csc(parsed.has("--csc-repair")).verify(!parsed.has("--no-verify")),
    )?
    .build()?;
    let engine = Engine::new(config);

    let batch = if parsed.positionals.is_empty() {
        engine.batch_all()
    } else {
        engine.batch(parsed.positionals.iter().cloned())
    };
    let rows = batch.limits(limits.clone()).jobs(jobs).run()?;

    if parsed.has("--json") {
        outln!("{}", to_json(&limits, &rows))?;
    } else if parsed.has("--csv") {
        out!("{}", to_csv(&limits, &rows))?;
    } else {
        out!("{}", to_markdown(&limits, &rows))?;
    }
    Ok(ExitCode::SUCCESS)
}

fn serve(args: &[String]) -> Result<ExitCode, Box<dyn Error>> {
    let parsed = parse_flags(
        args,
        &[
            valued("--addr"),
            aliased(valued("--jobs"), "-j"),
            valued("--queue-limit"),
            valued("--api-keys"),
            valued("--rate-limit"),
            valued("--max-inflight"),
            valued("--cache-dir"),
            valued("--cache-limit"),
            valued("--breaker-threshold"),
            valued("--breaker-cooldown"),
        ],
    )?;
    if let Some(extra) = parsed.positionals.first() {
        return Err(format!("serve takes no positional argument (got `{extra}`)").into());
    }
    // Flags override the library defaults; anything not given keeps
    // `ServeConfig::default()` so the CLI and library never diverge.
    let defaults = simap::serve::ServeConfig::default();
    let config = simap::serve::ServeConfig {
        addr: parsed.value("--addr").map(str::to_string).unwrap_or(defaults.addr),
        jobs: parsed.value_as("--jobs")?.unwrap_or(defaults.jobs),
        queue_limit: parsed.value_as("--queue-limit")?.unwrap_or(defaults.queue_limit),
        api_keys: parsed.value("--api-keys").map(std::path::PathBuf::from),
        rate_limit: parsed.value_as("--rate-limit")?.unwrap_or(defaults.rate_limit),
        max_inflight: parsed.value_as("--max-inflight")?.unwrap_or(defaults.max_inflight),
        cache_dir: parsed.value("--cache-dir").map(std::path::PathBuf::from),
        cache_limit: parsed.value_as("--cache-limit")?.unwrap_or(defaults.cache_limit),
        breaker_threshold: parsed
            .value_as("--breaker-threshold")?
            .unwrap_or(defaults.breaker_threshold),
        breaker_cooldown: parsed
            .value_as("--breaker-cooldown")?
            .map(std::time::Duration::from_secs)
            .unwrap_or(defaults.breaker_cooldown),
        job_expiry: defaults.job_expiry,
        config: defaults.config,
    };
    let server = simap::serve::Server::bind(config)?;
    let handle = server.handle();
    eprintln!("simap serve: listening on http://{}", server.local_addr());

    // Signal handling: the handler only latches a flag (the only
    // async-signal-safe option); this watcher turns the latches into
    // actions — SIGHUP re-reads the API keyfile in place, SIGINT/SIGTERM
    // drain gracefully. It also exits if the server stops some other way.
    simap::serve::shutdown_signal::install();
    let watcher = std::thread::spawn({
        let handle = handle.clone();
        move || {
            while !simap::serve::shutdown_signal::requested() && !handle.is_shutdown() {
                if simap::serve::shutdown_signal::reload_requested() {
                    match handle.reload_api_keys() {
                        Ok(n) => eprintln!("simap serve: reloaded API keys ({n} entries)"),
                        Err(e) => eprintln!("simap serve: keyfile reload failed: {e}"),
                    }
                }
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
            handle.shutdown();
        }
    });
    server.run()?;
    let _ = watcher.join();
    eprintln!("simap serve: drained and shut down cleanly");
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::parse_bytes;

    #[test]
    fn byte_sizes_parse_with_binary_suffixes() {
        assert_eq!(parse_bytes("4096"), Ok(4096));
        assert_eq!(parse_bytes("256MiB"), Ok(256 << 20));
        assert_eq!(parse_bytes("1G"), Ok(1 << 30));
        assert!(parse_bytes("1T").unwrap_err().contains("unknown suffix"));
    }

    #[test]
    fn byte_sizes_that_lose_high_bits_overflow() {
        // 2^34 GiB is exactly 2^64 bytes; one more GiB would wrap to 1 GiB.
        for spec in ["17179869184G", "17179869185G"] {
            assert!(parse_bytes(spec).unwrap_err().contains("overflows"), "{spec}");
        }
    }
}
