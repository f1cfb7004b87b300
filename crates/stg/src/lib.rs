//! # simap-stg
//!
//! Signal Transition Graphs (STGs): Petri nets labeled with signal
//! transitions, the `.g` textual format used by the asynchronous-circuit
//! benchmark suites, token-game reachability into
//! [`simap_sg::StateGraph`]s, parametric specification generators, and the
//! reconstructed 32-circuit benchmark set of the paper's Table 1.
//!
//! ```
//! let stg = simap_stg::parse_g(
//!     ".model ring\n.inputs a\n.outputs b\n.graph\n\
//!      a+ b+\nb+ a-\na- b-\nb- a+\n.marking { <b-,a+> }\n.end\n",
//! )?;
//! let sg = simap_stg::elaborate(&stg)?;
//! assert_eq!(sg.state_count(), 4);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! ## Reachability strategies
//!
//! Elaboration runs on one of three engines selected by
//! [`ReachConfig::strategy`]:
//!
//! * [`ReachStrategy::Packed`] (default) — markings are bit-packed `u64`
//!   words in one contiguous arena, interned through a hash-to-index
//!   table, with per-transition enable/fire masks and incrementally
//!   maintained enabled sets. See [`reach`] for the full architecture.
//! * [`ReachStrategy::Explicit`] — the legacy explicit BFS
//!   (`Vec<u8>` markings, `HashMap` interning). Keep it in mind whenever
//!   you need an independent oracle: it shares almost no code with the
//!   packed engine yet must produce byte-identical graphs and errors,
//!   which is exactly what `tests/reach_differential.rs` checks.
//! * [`ReachStrategy::Spill`] — the external-memory engine ([`extmem`]):
//!   the packed token game with a file-backed sharded state arena, a
//!   spill-to-disk BFS frontier and a spilled edge log, so peak resident
//!   memory is bounded by [`ReachConfig::memory_budget`] instead of by
//!   the state count. Reach for it when a net you need *materialized*
//!   (regions, CSC, mapping) outgrows RAM; expect
//!   scratch-disk usage in [`ReachConfig::spill_dir`] on the order of
//!   `states × (marking + enabled-mask bytes)` plus two words per edge,
//!   all removed when the run ends. Knobs: [`ReachConfig::memory_budget`]
//!   (default 256 MiB), [`ReachConfig::spill_dir`],
//!   [`ReachConfig::shards`].
//!
//! ## Long-running elaborations
//!
//! A spill run that takes hours can checkpoint and survive a crash:
//! with [`ReachConfig::checkpoint_every`] set to a level cadence and
//! [`ReachConfig::checkpoint_dir`] to a directory, the engine snapshots
//! its whole exploration state — state arena, shard intern tables,
//! pending frontier, edge log — after every N-th BFS level, under a
//! checksummed manifest recording the engine version plus digests of
//! the net and the exploration config, committed atomically
//! (temp-file-and-rename) so a crash mid-write never corrupts the
//! previous snapshot. [`ReachConfig::resume`] pointed at that directory
//! validates the manifest (refusing mismatched nets/configs by naming
//! both digests, and corrupt artifacts by name) and continues the BFS
//! from the recorded level; the finished graph is byte-identical to an
//! uninterrupted run, and on success the checkpoint is cleaned away.
//! Dense cadences shrink the re-exploration window after a crash but
//! pay a write per cadence. Only `max_states`, `max_tokens` and
//! `shards` are pinned by the config digest — `memory_budget` may
//! change across a resume because it does not affect the result bytes.
//! Checkpoints are cut at level boundaries only, so they are always
//! level-consistent.
//!
//! All three strategies explore in the same BFS order, so graphs,
//! state numbering and [`ReachError`] values never depend on the engine.
//! [`elaborate_with_stats`] additionally reports visited/interned/edge
//! counters for observability.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod benchmarks;
pub mod extmem;
pub mod parse;
pub mod patterns;
pub mod petri;
pub mod reach;
pub mod write;

pub use analysis::{analyze, StgAnalysis};
pub use benchmarks::{all_benchmarks, benchmark, benchmark_names, Benchmark, BenchmarkRegistry};
pub use extmem::SpillCounters;
pub use parse::{
    parse_g, ParseStgError, MAX_ARCS, MAX_LINE_BYTES, MAX_PLACES, MAX_SIGNALS, MAX_TRANSITIONS,
};
pub use petri::{Place, PlaceId, Stg, StgError, Transition, TransitionId};
pub use reach::{
    elaborate, elaborate_with, elaborate_with_stats, ReachConfig, ReachError, ReachStats,
    ReachStrategy,
};
pub use write::write_g;
