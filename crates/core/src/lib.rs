//! # simap-core
//!
//! The paper's primary contribution: technology mapping of
//! speed-independent circuits by combinational decomposition and
//! resynthesis (Cortadella, Kishinevsky, Kondratyev, Lavagno, Yakovlev —
//! DATE 1997).
//!
//! The algorithmic layers:
//! 1. [`mc`] — monotonous-cover synthesis for the standard-C architecture;
//! 2. [`insertion`] — speed-independence-preserving event insertion
//!    (I-partitions, well-formed SIP excitation regions, the Fig. 3
//!    splitting scheme);
//! 3. [`progress`] — Property 3.1/3.2 filters ranking candidate divisors;
//! 4. [`mod@decompose`] — the main loop: pick the most complex cover, divide
//!    it (kernels / OR / AND decompositions), insert the best divisor's
//!    signal, resynthesize the covers that insertion affects;
//! 5. [`flow`] — netlist construction and §4 cost accounting.
//!
//! ## Execution layer
//!
//! Runs are described by one validated [`Config`] and executed through an
//! [`Engine`] — a cheaply-cloneable, thread-safe handle owning the shared
//! immutable inputs (benchmark registry, gate library). Every run
//! elaborates its specification afresh; the engine keeps no
//! per-specification state. The engine is the middle of three entry
//! tiers: the `simap` CLI wraps it for one-shot processes, this API
//! embeds it in long-running programs, and the `simap-serve` crate hosts
//! one shared engine behind an HTTP service (`simap serve`), whose
//! persistent result cache answers repeated requests — all three produce
//! identical reports for identical requests (the service byte-compares
//! against `simap map --json` in CI):
//!
//! ```
//! use simap_core::{Config, Engine};
//!
//! let engine = Engine::new(Config::builder().literal_limit(2).build()?);
//! let report = engine.synthesize("hazard")?;
//! assert!(report.inserted.is_some()); // implementable with 2-input gates
//! assert_eq!(report.verified, Some(true)); // and provably speed-independent
//!
//! let again = engine.synthesize("hazard")?; // a fresh, identical run
//! assert_eq!(report.inserted, again.inserted);
//! # Ok::<(), simap_core::Error>(())
//! ```
//!
//! Elaboration runs on one of **three reachability strategies** selected
//! through [`ConfigBuilder::reach_strategy`]:
//!
//! * [`simap_stg::ReachStrategy::Packed`] (default) — bit-packed
//!   markings in a contiguous arena, mask-compiled transitions; the
//!   fastest way to an explicit graph.
//! * [`simap_stg::ReachStrategy::Explicit`] — the legacy explicit BFS,
//!   kept as a differential oracle; byte-identical graphs and errors.
//! * [`simap_stg::ReachStrategy::Spill`] — the packed engine with an
//!   external-memory working set ([`simap_stg::extmem`]): marking pages,
//!   frontier runs and the edge log cycle through scratch files so the
//!   resident set stays under [`ConfigBuilder::reach_memory_budget`]
//!   (placement via [`ConfigBuilder::reach_spill_dir`], dedup
//!   partitioning via [`ConfigBuilder::reach_shards`]). It wins when the
//!   graph itself is needed — synthesis, not just analysis — and the
//!   state space is larger than RAM; expect scratch traffic on the
//!   order of the arena plus 16 bytes per edge.
//!
//! All three produce the same graphs and errors.
//! [`Elaborated::reach_stats`] exposes the visited/interned/edge counters
//! of the run that produced a graph, plus per-run spill counters under
//! the spill strategy.
//!
//! [`Batch`] drives many specifications through one configuration —
//! sequentially or on a worker pool with deterministic, order-preserving
//! results:
//!
//! ```
//! use simap_core::{Config, Engine};
//!
//! let engine = Engine::new(Config::builder().verify(false).build()?);
//! let rows = engine.batch(["half", "hazard"]).limits([2]).jobs(2).run()?;
//! assert_eq!(rows.len(), 2);
//! # Ok::<(), simap_core::Error>(())
//! ```
//!
//! Every synthesis run is single-threaded; the only parallelism is
//! between independent runs — [`Batch::jobs`] within one process and
//! `simap serve --jobs` across HTTP clients.
//!
//! Stepping through the typed stages instead of running one-shot — every
//! stage artifact is `Send + 'static` and can be moved across threads:
//!
//! ```
//! use simap_core::pipeline::Synthesis;
//!
//! let covers = Synthesis::from_benchmark("hazard").elaborate()?.covers()?;
//! assert!(covers.mc().max_complexity() > 2); // why insertion is needed
//! let verified = covers.decompose()?.map().verify()?;
//! assert_eq!(verified.verdict(), Some(true));
//! # Ok::<(), simap_core::Error>(())
//! ```
//!
//! A run reports progress as [`FlowEvent`] values sent to any
//! `FnMut(FlowEvent)` sink ([`pipeline::Synthesis::observer`]); their
//! stable one-line JSON rendering is what `simap-serve` streams to
//! NDJSON clients. Reports render through [`report`]
//! (markdown / CSV / JSON, including [`report::benchmarks_json`], the
//! registry listing the CLI and the service share) on the hand-rolled
//! [`json`] module, whose recursive-descent [`json::parse`] is the other
//! half of the service's wire protocol.
//!
//! ## Deprecation policy
//!
//! A public item slated for removal is first marked `#[deprecated]` with
//! a note naming its replacement, and is removed after one minor release.
//! The 0.2/0.3 shims (the flow-level free function and the per-stage
//! `Synthesis`/`Batch` setters) completed that cycle and were removed in
//! 0.12; configure runs through [`Config`]. The BDD-based symbolic
//! reachability strategy was removed in 0.13 without a deprecation
//! cycle, since no caller selected it. The engine's elaboration cache
//! went in 0.14; [`Engine::clear_cache`] stays as a deprecated no-op
//! until 0.15. Also in 0.14, and also without a deprecation cycle, the
//! seven-method observer trait and its four adapters gave way to
//! [`FlowEvent`] sinks, the observer variant of [`decompose()`] went with
//! them, and the nested flow configuration's four fields moved onto
//! [`Config`]: a deprecated forwarding shim would have kept a second
//! code path. Algorithm
//! primitives ([`mc::synthesize_mc`], [`csc::repair_csc`],
//! [`insertion::compute_insertion`], [`flow::build_circuit`], …) are the
//! stable substrate the pipeline itself is built on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod csc;
pub mod decompose;
pub mod digest;
pub mod engine;
pub mod error;
pub mod flow;
pub mod insertion;
pub mod json;
pub mod mc;
pub mod observer;
pub mod pipeline;
pub mod progress;
pub mod report;

pub use config::{Config, ConfigBuilder};
pub use csc::{csc_conflicts, repair_csc, CscConflict, CscRepairConfig, CscRepairError};
pub use decompose::{decompose, excess, AckMode, DecomposeConfig, DecomposeResult, DecomposeStep};
pub use digest::{fnv1a64, Fnv64};
pub use engine::Engine;
pub use error::{Error, Stage};
pub use flow::{
    build_circuit, build_circuit_with_or_limit, build_decomposed_circuit, non_si_cost, si_cost,
    FlowReport,
};
pub use insertion::{
    compute_insertion, compute_insertion_from_block, insert_function, insert_signal, Insertion,
    InsertionError,
};
pub use mc::{
    synthesize_mc, synthesize_signal, validate_mc, McError, McImpl, RegionCover, SignalBody,
    SignalImpl,
};
pub use observer::FlowEvent;
pub use pipeline::{Batch, Covers, Decomposed, Elaborated, Mapped, Synthesis, Verified};
pub use progress::{estimate_progress, replaces_trigger, ProgressEstimate};
pub use report::{benchmarks_json, dossier, report_json, to_csv, to_json, to_markdown, BatchRow};
