//! # simap — Speed-Independent circuit technology MAPping
//!
//! A production-quality reproduction of *"Technology Mapping of
//! Speed-Independent Circuits Based on Combinational Decomposition and
//! Resynthesis"* (Cortadella, Kishinevsky, Kondratyev, Lavagno, Yakovlev —
//! DATE 1997): multi-level logic synthesis for asynchronous
//! speed-independent circuits targeting bounded-fanin standard-cell
//! libraries.
//!
//! ## Three entry tiers
//!
//! The same flow is reachable at three altitudes — pick by how long your
//! process lives:
//!
//! 1. **One-shot CLI** — `simap map spec.g --json`, `simap check`,
//!    `simap bench run`: parse, synthesize, print, exit. Each invocation
//!    is a fresh process; nothing is shared.
//! 2. **Library [`Engine`]** — embed the flow in your own long-running
//!    program: one validated [`Config`], one thread-safe engine shared
//!    by every run (the quickstart below).
//! 3. **`simap serve`** — host the flow as an HTTP/1.1 service
//!    ([`serve`], `simap serve --addr --jobs --queue-limit`): many
//!    clients share ONE engine through a bounded job queue with
//!    backpressure (`429`), async polling (`GET /jobs/{id}`), NDJSON
//!    progress streaming and `/metrics`. Responses are byte-identical
//!    to the CLI's `--json` output for the same request, so tiers 1 and
//!    3 are interchangeable for consumers.
//!
//! ## Quickstart (tier 2: the library)
//!
//! Describe a run with one validated [`Config`], then execute it through
//! an [`Engine`] — the thread-safe, cheaply-cloneable front door that
//! owns the benchmark registry and the gate library:
//!
//! ```
//! use simap::{Config, Engine};
//!
//! let engine = Engine::new(Config::builder().literal_limit(2).build()?);
//! let report = engine.synthesize("hazard")?;
//! assert!(report.inserted.is_some(), "hazard is 2-input implementable");
//! assert_eq!(report.verified, Some(true), "and provably speed-independent");
//!
//! // Re-running on the same engine reproduces the report exactly:
//! assert_eq!(engine.synthesize("hazard")?.si_cost, report.si_cost);
//! # Ok::<(), simap::Error>(())
//! ```
//!
//! The service tier (3) is the same engine behind a socket — a client
//! POSTing `{"bench":"hazard"}` to `/synthesize` gets exactly the bytes
//! `simap map --bench hazard --json` prints, and with `--cache-dir`
//! repeated requests are answered from the persistent result cache:
//!
//! ```
//! use simap::serve::{ServeConfig, Server};
//!
//! let server = Server::bind(ServeConfig { addr: "127.0.0.1:0".into(), ..Default::default() })?;
//! let handle = server.handle();
//! let running = std::thread::spawn(move || server.run());
//! // ... serve traffic ...
//! handle.shutdown(); // graceful: accepted jobs drain first
//! running.join().unwrap()?;
//! # Ok::<(), std::io::Error>(())
//! ```
//!
//! ## Bring your own `.g`
//!
//! Specifications from outside the embedded suite enter through the same
//! hardened parser at every tier: `simap check`/`simap map my.g` on the
//! CLI, [`Engine::g_source`] in the library, and `POST /stg` against
//! `simap serve` — the body is either the raw `.g` text or a JSON
//! envelope `{"source": "...", ...}` with per-request knobs. The `/stg`
//! response is byte-identical to `simap map my.g --json` for the same
//! source, requests pass the same gateway layers (auth, rate limits,
//! breaker), and repeated submissions of the same bytes are answered
//! from the content-addressed result cache without enqueueing work.
//! Malformed input is rejected (HTTP `422`) with a 1-based line/column
//! ([`stg::ParseStgError`]), and resource caps bound what a hostile spec
//! can allocate before the parser gives up:
//! [`stg::MAX_LINE_BYTES`], [`stg::MAX_SIGNALS`],
//! [`stg::MAX_TRANSITIONS`], [`stg::MAX_PLACES`], [`stg::MAX_ARCS`].
//! For load testing there is a seeded, byte-reproducible spec generator:
//! `simap gen --seed 1 --count 100 --out-dir specs`
//! ([`stg::patterns::corpus`] in the library).
//!
//! ```
//! use simap::{Config, Engine};
//!
//! let source = "\
//! .model ring
//! .inputs a
//! .outputs b
//! .graph
//! a+ b+
//! b+ a-
//! a- b-
//! b- a+
//! .marking { <b-,a+> }
//! .end
//! ";
//! let engine = Engine::new(Config::default());
//! let report = engine.g_source(source).run()?;
//! assert_eq!(report.name, "ring");
//! assert_eq!(report.verified, Some(true));
//!
//! // Malformed text names the offending line and column.
//! let err = simap::stg::parse_g(".inputsx y\n.graph\n.end\n").unwrap_err();
//! assert_eq!(err.to_string(), "line 1, col 1: unknown directive `.inputsx`");
//! # Ok::<(), simap::Error>(())
//! ```
//!
//! Cold elaboration runs on one of three reachability strategies (see
//! [`simap_stg::reach`] for the full selection guide): the packed-state
//! default — bit-packed markings in a contiguous arena with
//! mask-compiled transitions; the legacy explicit
//! BFS ([`ReachStrategy::Explicit`]), an independent differential
//! oracle for validating changes to the hot path; and the external-memory
//! spill engine ([`ReachStrategy::Spill`]), which keeps the packed
//! engine's semantics and numbering but bounds the resident working set
//! by [`ConfigBuilder::reach_memory_budget`], cycling marking pages,
//! frontier runs and the edge log through scratch files
//! ([`ConfigBuilder::reach_spill_dir`]) so nets larger than RAM still
//! *materialize* — the door to synthesizing huge specifications:
//!
//! ```
//! use simap::{Config, Engine, ReachStrategy};
//!
//! let oracle = Config::builder().reach_strategy(ReachStrategy::Explicit).build()?;
//! let engine = Engine::new(oracle);
//! let elaborated = engine.benchmark("hazard").elaborate()?;
//! let stats = elaborated.reach_stats().expect("fresh elaboration");
//! assert_eq!(stats.interned, elaborated.state_graph().state_count());
//! # Ok::<(), simap::Error>(())
//! ```
//!
//! The spill engine builds the graph with a bounded resident set,
//! byte-identical to the packed default:
//!
//! ```
//! use simap::stg::{benchmark, elaborate_with_stats};
//! use simap::{ReachConfig, ReachStrategy};
//!
//! let stg = benchmark("mr0").expect("embedded benchmark");
//! let config = ReachConfig {
//!     strategy: ReachStrategy::Spill,
//!     memory_budget: 1024 * 1024, // 1 MiB forces real disk traffic here
//!     ..ReachConfig::default()
//! };
//! let (sg, stats) = elaborate_with_stats(&stg, &config)?;
//! let spill = stats.spill.expect("spill runs report their counters");
//! assert_eq!(sg.state_count(), 4096);
//! assert!(spill.spilled_bytes > 0 && spill.resident_peak <= spill.budget);
//! # Ok::<(), simap::stg::ReachError>(())
//! ```
//!
//! ## Long-running elaborations: checkpoint and resume
//!
//! A spill elaboration that runs for hours should not restart from
//! zero after a crash, an OOM kill or a preempted machine. With
//! [`ConfigBuilder::reach_checkpoint_every`] the engine atomically
//! snapshots its full exploration state — arena pages, shard intern
//! tables, pending frontier, edge log, all under a checksummed,
//! versioned manifest committed by temp-file-and-rename — into
//! [`ConfigBuilder::reach_checkpoint_dir`] every N BFS levels. `simap
//! check --resume <dir>` (and `map --resume`), or
//! [`ConfigBuilder::reach_resume`] programmatically, validates the
//! manifest against the current net and configuration — refusing with a
//! diagnostic that names the corrupt artifact or both mismatched
//! digests — and continues the level-synchronized BFS exactly where the
//! snapshot left it. The finished graph is **byte-identical** to an
//! uninterrupted run, so downstream synthesis, reports and caches never
//! know the run was interrupted.
//!
//! The cadence is a loss-window/overhead trade-off: `--checkpoint-every
//! 1` bounds the lost work to a single level but pays a write per
//! level; sparse cadences amortize the writes at the price of longer
//! re-exploration after a crash. Checkpoints are only ever cut at level
//! boundaries, and a run may resume under a different `memory_budget`
//! than it was started with — only `max_states`, `max_tokens` and
//! `shards` are pinned by the manifest's config digest.
//!
//! ```
//! use simap::stg::{benchmark, elaborate_with_stats};
//! use simap::{ReachConfig, ReachStrategy};
//!
//! let dir = std::env::temp_dir().join(format!("simap-doc-ckpt-{}", std::process::id()));
//! std::fs::create_dir_all(&dir).expect("create checkpoint dir");
//! let stg = benchmark("mr0").expect("embedded benchmark");
//! let config = ReachConfig {
//!     strategy: ReachStrategy::Spill,
//!     checkpoint_every: 4, // snapshot every 4 BFS levels
//!     checkpoint_dir: Some(dir.clone()),
//!     ..ReachConfig::default()
//! };
//! let (_, stats) = elaborate_with_stats(&stg, &config)?;
//! let spill = stats.spill.expect("spill counters");
//! assert!(spill.checkpoints_written > 0 && spill.checkpoint_bytes > 0);
//! assert_eq!(spill.resume_level, 0, "this run started cold");
//! // The run succeeded, so its checkpoints were cleaned away: nothing
//! // to resume, nothing leaked. After a crash the latest snapshot
//! // survives and `ReachConfig { resume: Some(dir), .. }` picks it up.
//! assert_eq!(std::fs::read_dir(&dir).expect("dir readable").count(), 0);
//! std::fs::remove_dir_all(&dir).expect("remove checkpoint dir");
//! # Ok::<(), simap::stg::ReachError>(())
//! ```
//!
//! [`Batch`] drives whole suites through one configuration — across a
//! worker pool with [`Batch::jobs`], with results byte-identical to a
//! sequential run:
//!
//! ```
//! use simap::{Config, Engine};
//!
//! let engine = Engine::new(Config::builder().verify(false).build()?);
//! let rows = engine.batch(["half", "hazard"]).limits([2, 3]).jobs(2).run()?;
//! println!("{}", simap::core::to_markdown(&[2, 3], &rows));
//! # Ok::<(), simap::Error>(())
//! ```
//!
//! Every synthesis run is single-threaded; the only parallelism is
//! between independent runs — [`Batch::jobs`] (CLI `bench run --jobs`)
//! within one process and `simap serve --jobs` across HTTP clients.
//!
//! Every intermediate artifact of the flow is a typed, `Send + 'static`
//! stage value that can be inspected, cached or moved across threads:
//!
//! ```
//! use simap::{Config, Engine};
//!
//! let engine = Engine::new(Config::default());
//! let elaborated = engine.benchmark("hazard").elaborate()?;
//! assert!(elaborated.properties().is_ok()); // §2.1 checks
//!
//! let covers = elaborated.covers()?; // §2.2 monotonous covers
//! assert!(covers.mc().max_complexity() > 2, "needs decomposition");
//!
//! let decomposed = covers.decompose()?; // §3 insertion loop
//! let mapped = decomposed.map(); // standard-C netlist + §4 costs
//! let verified = mapped.verify()?; // semi-modularity check
//! assert_eq!(verified.verdict(), Some(true));
//! # Ok::<(), simap::Error>(())
//! ```
//!
//! Failures of any stage surface as the unified [`Error`] enum with the
//! stage and the offending signals attached, and any `FnMut(FlowEvent)`
//! sink receives the run's progress as [`FlowEvent`] values
//! ([`Synthesis::observer`]).
//!
//! ## Crates
//!
//! This facade re-exports the workspace crates:
//!
//! * [`boolean`] — cube/SOP engine: minimization, algebraic division,
//!   kernels, factoring ([`simap_boolean`]);
//! * [`sg`] — state graphs, §2.1 property checks, §2.2 regions
//!   ([`simap_sg`]);
//! * [`stg`] — signal transition graphs, the `.g` format, reachability,
//!   generators and the 32-benchmark suite ([`simap_stg`]);
//! * [`netlist`] — standard-C circuits, cost model, the non-SI baseline
//!   and the semi-modularity verifier ([`simap_netlist`]);
//! * [`core`] — monotonous covers, SIP event insertion, progress analysis,
//!   the decomposition loop, the [`pipeline`] and the [`Engine`]
//!   ([`simap_core`]);
//! * [`serve`] — the dependency-free HTTP/1.1 synthesis service: job
//!   queue, worker pool, metrics, NDJSON streaming ([`simap_serve`]).
//!
//! ## Deprecation policy
//!
//! A public item slated for removal is first marked `#[deprecated]` with
//! a note naming its replacement, and is removed after one minor
//! release. The 0.2/0.3 configuration shims (the flow-level free
//! function and the per-stage `Synthesis`/`Batch` setters) were removed
//! in 0.12: configure runs through [`Config`] +
//! [`Synthesis::config`] / [`Batch::config`]. The BDD-based symbolic
//! reachability strategy was removed in 0.13 without a deprecation
//! cycle: no benchmark, workload or caller selected it, and the packed
//! engine was faster on every embedded benchmark. The engine's
//! elaboration cache was removed in 0.14 (it skipped only reachability
//! and CSC repair, which cost little next to decomposition);
//! [`Engine::clear_cache`] remains as a deprecated no-op until 0.15.
//! Also in 0.14, and also without a deprecation cycle, the seven-method
//! observer trait and its four adapters gave way to [`FlowEvent`] sinks
//! (with them went the observer variant of `decompose`), and the nested
//! flow configuration's four fields moved onto [`Config`]: a deprecated
//! forwarding shim would have kept a second code path.
//! Algorithm primitives
//! (`synthesize_mc`, `repair_csc`, `compute_insertion`, `build_circuit`,
//! …) are the stable substrate the pipeline is built on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use simap_boolean as boolean;
pub use simap_core as core;
pub use simap_netlist as netlist;
pub use simap_serve as serve;
pub use simap_sg as sg;
pub use simap_stg as stg;

pub use simap_core::pipeline;
pub use simap_core::{
    Batch, Config, ConfigBuilder, Covers, Decomposed, Elaborated, Engine, Error, FlowEvent, Mapped,
    Stage, Synthesis, Verified,
};
pub use simap_stg::{ReachConfig, ReachStats, ReachStrategy};
