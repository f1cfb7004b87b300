//! The reusable synthesis engine: shared immutable inputs plus a
//! memoized elaboration cache behind one cheaply-cloneable handle.
//!
//! An [`Engine`] owns the things every run of the flow needs but none
//! should rebuild — the [`BenchmarkRegistry`] (each Table 1 STG is
//! constructed at most once), the target gate [`Library`], and a cache of
//! elaborated state graphs keyed by specification source and the
//! configuration subset that affects elaboration (CSC repair, reachability
//! limits). Cloning an `Engine` is an `Arc` bump: clones share the caches,
//! so a pool of worker threads — or [`crate::Batch`] with
//! [`crate::Batch::jobs`] — reuses every elaboration.
//!
//! ```
//! use simap_core::{Config, Engine};
//!
//! let engine = Engine::new(Config::default());
//! let first = engine.synthesize("hazard")?;
//! let again = engine.synthesize("hazard")?; // STG→SG reachability skipped
//! assert_eq!(first.inserted, again.inserted);
//! let stats = engine.cache_stats();
//! assert_eq!((stats.misses, stats.hits), (1, 1));
//! # Ok::<(), simap_core::Error>(())
//! ```

use crate::config::Config;
use crate::error::Error;
use crate::flow::FlowReport;
use crate::pipeline::{Batch, Synthesis};
use simap_netlist::Library;
use simap_sg::StateGraph;
use simap_stg::{BenchmarkRegistry, Stg};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Hit/miss counters of the elaboration cache (see
/// [`Engine::cache_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Elaborations answered from the cache.
    pub hits: u64,
    /// Elaborations computed (and then cached).
    pub misses: u64,
    /// Distinct (source, configuration) entries currently cached.
    pub entries: usize,
    /// Entries evicted by the [`Config::cache_capacity`] bound (0 when
    /// the cache is unbounded).
    pub evicted: u64,
}

/// Cache key: the specification's identity plus the configuration subset
/// elaboration depends on. Literal limits, verification settings etc. do
/// **not** participate — runs at different limits share one elaboration.
/// Built once per elaboration via [`Engine::elab_key`] (the canonical
/// text of STG sources is O(spec size) to produce, so it is not rebuilt
/// for the lookup and the store separately).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct ElabKey {
    source: SourceKey,
    repair_csc: bool,
    csc_max_insertions: usize,
    reach_max_states: usize,
    reach_max_tokens: u8,
    /// Both strategies produce byte-identical graphs, but cached entries
    /// carry the [`simap_stg::ReachStats`] of the run that filled them —
    /// keying by strategy keeps those counters honest (and lets a
    /// differential harness elaborate both ways through one engine).
    reach_strategy: simap_stg::ReachStrategy,
    /// The symbolic strategy's materialization threshold changes whether
    /// an elaboration succeeds at all, so it participates too — but only
    /// under [`simap_stg::ReachStrategy::Symbolic`]; the enumerative
    /// engines ignore the knob, and keying it would cost them spurious
    /// cache misses (normalized to 0 there).
    reach_materialize_limit: usize,
    /// The spill engine's knobs, participating only under
    /// [`simap_stg::ReachStrategy::Spill`] for the same reason: graphs
    /// are byte-identical whatever the budget, but cached entries carry
    /// the run's [`simap_stg::SpillCounters`], which the budget, shard
    /// count and scratch directory all shape (normalized to `0`/`None`
    /// under the in-memory strategies). The checkpoint knobs
    /// (`checkpoint_every`, `checkpoint_dir`, `resume`) are excluded: a
    /// resumed run is byte-identical to a cold one by
    /// contract, so a warm cache entry is exactly the result a resume
    /// would have recomputed.
    reach_memory_budget: usize,
    reach_shards: usize,
    reach_spill_dir: Option<std::path::PathBuf>,
}

/// The source component of an [`ElabKey`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum SourceKey {
    /// A named circuit of the embedded suite.
    Benchmark(String),
    /// Canonical `.g` text (parsed sources and ad-hoc STGs, via
    /// [`simap_stg::write_g`]).
    Text(String),
}

#[derive(Clone)]
pub(crate) struct CachedElaboration {
    pub(crate) sg: Arc<StateGraph>,
    pub(crate) repaired: Vec<String>,
    /// The CSC conflicts of the *unrepaired* graph, kept so cache hits
    /// replay the same observer events as the cold run that filled them.
    pub(crate) conflicts: Vec<crate::csc::CscConflict>,
    /// Exploration counters of the cold run (`None` for sources that
    /// arrive pre-elaborated).
    pub(crate) reach: Option<simap_stg::ReachStats>,
}

struct Shared {
    registry: Arc<BenchmarkRegistry>,
    /// Entries tagged with their last-used tick (for LRU eviction when a
    /// [`Config::cache_capacity`] bound is set).
    cache: Mutex<HashMap<ElabKey, (CachedElaboration, u64)>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evicted: AtomicU64,
    /// Monotonic use counter driving the LRU ordering.
    tick: AtomicU64,
}

/// The thread-safe, reusable front door to the synthesis pipeline.
///
/// See the [module docs](self) for the caching contract. All methods take
/// `&self`; the engine is `Send + Sync` and cloning it shares all state.
#[derive(Clone)]
pub struct Engine {
    shared: Arc<Shared>,
    // Per-handle (not in `Shared`): the library tracks this handle's
    // literal limit, which `with_config` siblings may differ on.
    library: Arc<Library>,
    config: Config,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.cache_stats();
        f.debug_struct("Engine")
            .field("config", &self.config)
            .field("library", &self.library.name)
            .field("cache", &stats)
            .finish()
    }
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new(Config::default())
    }
}

impl Engine {
    /// An engine running every synthesis with `config`. The gate library
    /// is derived from the configured literal limit.
    pub fn new(config: Config) -> Self {
        Engine {
            shared: Arc::new(Shared {
                registry: Arc::new(BenchmarkRegistry::new()),
                cache: Mutex::new(HashMap::new()),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                evicted: AtomicU64::new(0),
                tick: AtomicU64::new(0),
            }),
            library: Arc::new(library_for_limit(config.literal_limit())),
            config,
        }
    }

    /// The engine's base configuration.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// A sibling engine with a different configuration **sharing** this
    /// engine's registry and elaboration cache (entries are keyed by the
    /// relevant configuration subset, so sharing is always sound). The
    /// sibling's [`Engine::library`] tracks the new literal limit.
    pub fn with_config(&self, config: Config) -> Engine {
        let library = if config.literal_limit() == self.config.literal_limit() {
            self.library.clone()
        } else {
            Arc::new(library_for_limit(config.literal_limit()))
        };
        Engine { shared: self.shared.clone(), library, config }
    }

    /// The shared benchmark registry handle.
    pub fn registry(&self) -> &BenchmarkRegistry {
        &self.shared.registry
    }

    /// The target gate library (matching this handle's literal limit).
    pub fn library(&self) -> &Library {
        &self.library
    }

    /// A [`Synthesis`] of a named Table 1 benchmark, configured with this
    /// engine's [`Config`] and wired to its caches.
    pub fn benchmark(&self, name: impl Into<String>) -> Synthesis {
        Synthesis::from_benchmark(name).config(&self.config).engine(self.clone())
    }

    /// A [`Synthesis`] of `.g` source text, wired to this engine.
    pub fn g_source(&self, source: impl Into<String>) -> Synthesis {
        Synthesis::from_g_source(source).config(&self.config).engine(self.clone())
    }

    /// A [`Synthesis`] of an already-built STG, wired to this engine (the
    /// elaboration cache keys it by its canonical `.g` rendering).
    pub fn stg(&self, stg: Stg) -> Synthesis {
        Synthesis::from_stg(stg).config(&self.config).engine(self.clone())
    }

    /// A [`Synthesis`] of an already-elaborated state graph (never
    /// cached: elaboration is already done).
    pub fn state_graph(&self, sg: StateGraph) -> Synthesis {
        Synthesis::from_state_graph(sg).config(&self.config).engine(self.clone())
    }

    /// Runs the whole flow on a named benchmark with the engine's
    /// configuration.
    ///
    /// # Errors
    /// Everything [`Synthesis::run`] can raise.
    pub fn synthesize(&self, name: &str) -> Result<FlowReport, Error> {
        self.benchmark(name).run()
    }

    /// A [`Batch`] over the given benchmark names, sharing this engine's
    /// caches (and configuration).
    pub fn batch<I, S>(&self, names: I) -> Batch
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Batch::on_engine(self.clone(), names)
    }

    /// A [`Batch`] over the whole embedded 32-circuit Table 1 suite.
    pub fn batch_all(&self) -> Batch {
        self.batch(self.shared.registry.names().iter().copied())
    }

    /// Elaboration-cache counters since the engine (or the first engine
    /// of its [`Engine::with_config`] family) was created.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats {
            hits: self.shared.hits.load(Ordering::Relaxed),
            misses: self.shared.misses.load(Ordering::Relaxed),
            entries: self.shared.cache.lock().expect("cache lock").len(),
            evicted: self.shared.evicted.load(Ordering::Relaxed),
        }
    }

    /// Drops every cached elaboration (counters keep accumulating).
    pub fn clear_cache(&self) {
        self.shared.cache.lock().expect("cache lock").clear();
    }

    /// The full cache key of one elaboration (built once, used for both
    /// the lookup and — on a miss — the store).
    pub(crate) fn elab_key(&self, source: SourceKey, config: &Config) -> ElabKey {
        ElabKey {
            source,
            repair_csc: config.flow.repair_csc,
            csc_max_insertions: config.csc_repair.max_insertions,
            reach_max_states: config.reach.max_states,
            reach_max_tokens: config.reach.max_tokens,
            reach_strategy: config.reach.strategy,
            reach_materialize_limit: match config.reach.strategy {
                simap_stg::ReachStrategy::Symbolic => config.reach.materialize_limit,
                _ => 0,
            },
            reach_memory_budget: match config.reach.strategy {
                simap_stg::ReachStrategy::Spill => config.reach.memory_budget,
                _ => 0,
            },
            reach_shards: match config.reach.strategy {
                simap_stg::ReachStrategy::Spill => config.reach.shards,
                _ => 0,
            },
            reach_spill_dir: match config.reach.strategy {
                simap_stg::ReachStrategy::Spill => config.reach.spill_dir.clone(),
                _ => None,
            },
        }
    }

    /// Cache lookup; counts a hit (and refreshes the entry's LRU tick)
    /// when present.
    pub(crate) fn lookup(&self, key: &ElabKey) -> Option<CachedElaboration> {
        let mut cache = self.shared.cache.lock().expect("cache lock");
        let hit = cache.get_mut(key).map(|slot| {
            slot.1 = self.shared.tick.fetch_add(1, Ordering::Relaxed) + 1;
            slot.0.clone()
        });
        drop(cache);
        if hit.is_some() {
            self.shared.hits.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Stores a freshly computed elaboration; counts a miss. When this
    /// handle's [`Config::cache_capacity`] bounds the cache, the
    /// least-recently-used entries are evicted to fit (siblings created
    /// by [`Engine::with_config`] share the cache but enforce their own
    /// capacity at their own stores).
    pub(crate) fn store(&self, key: ElabKey, entry: CachedElaboration) {
        self.shared.misses.fetch_add(1, Ordering::Relaxed);
        let tick = self.shared.tick.fetch_add(1, Ordering::Relaxed) + 1;
        let mut cache = self.shared.cache.lock().expect("cache lock");
        cache.insert(key, (entry, tick));
        if let Some(capacity) = self.config.cache_capacity() {
            while cache.len() > capacity {
                let victim = cache
                    .iter()
                    .min_by_key(|(_, (_, used))| *used)
                    .map(|(k, _)| k.clone())
                    .expect("over-capacity cache is non-empty");
                cache.remove(&victim);
                self.shared.evicted.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// The library matching a literal limit (used for reporting; the flow's
/// own limit lives in [`Config::literal_limit`]).
fn library_for_limit(limit: usize) -> Library {
    match limit {
        0..=2 => Library::two_input(),
        3 => Library::three_input(),
        4 => Library::four_input(),
        n => Library { name: format!("{n}-input"), max_literals: n, has_c_elements: true },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_the_cache() {
        let engine = Engine::default();
        let clone = engine.clone();
        clone.benchmark("half").elaborate().unwrap();
        assert_eq!(engine.cache_stats().misses, 1);
        engine.benchmark("half").elaborate().unwrap();
        assert_eq!(engine.cache_stats().hits, 1, "the clone's entry is visible");
        assert_eq!(engine.cache_stats().entries, 1);
    }

    #[test]
    fn with_config_shares_but_keys_separately() {
        let engine = Engine::default();
        engine.benchmark("half").elaborate().unwrap();
        // Same elaboration-relevant subset: a different literal limit
        // still hits.
        let at3 = engine.with_config(Config::builder().literal_limit(3).build().unwrap());
        at3.benchmark("half").elaborate().unwrap();
        assert_eq!(engine.cache_stats().hits, 1);
        // The materialization threshold only matters to the symbolic
        // strategy: changing it under the packed default still hits.
        let other_limit =
            engine.with_config(Config::builder().reach_materialize_limit(123).build().unwrap());
        other_limit.benchmark("half").elaborate().unwrap();
        assert_eq!(engine.cache_stats().hits, 2);
        // Repair toggled: a different entry.
        let repairing = engine.with_config(Config::builder().repair_csc(true).build().unwrap());
        repairing.benchmark("half").elaborate().unwrap();
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (2, 2, 2));
    }

    #[test]
    fn stg_and_g_sources_are_cached_by_canonical_text() {
        let engine = Engine::default();
        let stg = simap_stg::benchmark("hazard").unwrap();
        engine.stg(stg.clone()).elaborate().unwrap();
        engine.stg(stg).elaborate().unwrap();
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn state_graph_sources_bypass_the_cache() {
        let engine = Engine::default();
        let sg = engine.benchmark("half").elaborate().unwrap().state_graph().clone();
        engine.state_graph(sg.clone()).elaborate().unwrap();
        engine.state_graph(sg).elaborate().unwrap();
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses), (0, 1), "only the benchmark elaboration counted");
    }

    #[test]
    fn bounded_cache_evicts_least_recently_used() {
        let engine = Engine::new(Config::builder().cache_capacity(2).build().unwrap());
        engine.benchmark("half").elaborate().unwrap();
        engine.benchmark("hazard").elaborate().unwrap();
        engine.benchmark("converta").elaborate().unwrap(); // evicts "half"
        let stats = engine.cache_stats();
        assert_eq!((stats.entries, stats.evicted, stats.misses), (2, 1, 3));
        // "half" was evicted: elaborating it again misses and in turn
        // evicts "hazard" (the least recently used of the survivors).
        engine.benchmark("half").elaborate().unwrap();
        engine.benchmark("converta").elaborate().unwrap();
        let stats = engine.cache_stats();
        assert_eq!((stats.entries, stats.evicted), (2, 2));
        assert_eq!((stats.hits, stats.misses), (1, 4), "converta survived, hazard did not");
        engine.benchmark("hazard").elaborate().unwrap();
        assert_eq!(engine.cache_stats().misses, 5);
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let engine = Engine::default();
        for name in ["half", "hazard", "converta", "alloc-outbound"] {
            engine.benchmark(name).elaborate().unwrap();
        }
        let stats = engine.cache_stats();
        assert_eq!((stats.entries, stats.evicted), (4, 0));
    }

    #[test]
    fn spill_knobs_key_the_cache_only_under_spill() {
        let engine = Engine::default();
        engine.benchmark("half").elaborate().unwrap();
        // The spill knobs are inert under the packed default: still a hit.
        let other_budget = engine.with_config(
            Config::builder().reach_memory_budget(123 * 1024).reach_shards(2).build().unwrap(),
        );
        other_budget.benchmark("half").elaborate().unwrap();
        assert_eq!(engine.cache_stats().hits, 1);
        // Under the spill strategy they shape the cached spill counters,
        // so they participate in the key.
        let spill = engine.with_config(
            Config::builder().reach_strategy(simap_stg::ReachStrategy::Spill).build().unwrap(),
        );
        spill.benchmark("half").elaborate().unwrap();
        assert_eq!(engine.cache_stats().misses, 2, "strategy + budget key a fresh entry");
        let spill_small = engine.with_config(
            Config::builder()
                .reach_strategy(simap_stg::ReachStrategy::Spill)
                .reach_memory_budget(64 * 1024)
                .build()
                .unwrap(),
        );
        spill_small.benchmark("half").elaborate().unwrap();
        let stats = engine.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 3), "budget changes miss under spill");
        spill.benchmark("half").elaborate().unwrap();
        assert_eq!(engine.cache_stats().hits, 2, "each spill configuration hits its own entry");
    }

    #[test]
    fn library_tracks_the_limit() {
        assert_eq!(Engine::default().library().max_literals, 2);
        let at4 = Engine::new(Config::builder().literal_limit(4).build().unwrap());
        assert_eq!(at4.library().max_literals, 4);
        let at7 = Engine::new(Config::builder().literal_limit(7).build().unwrap());
        assert_eq!(at7.library().max_literals, 7);
    }

    #[test]
    fn with_config_rebuilds_the_library() {
        let engine = Engine::default();
        let at4 = engine.with_config(Config::builder().literal_limit(4).build().unwrap());
        assert_eq!(at4.library().max_literals, 4, "sibling must not keep the 2-input library");
        assert_eq!(engine.library().max_literals, 2, "the original is untouched");
        // Same limit: the library handle is shared, not rebuilt.
        let same = engine.with_config(Config::builder().verify(false).build().unwrap());
        assert!(Arc::ptr_eq(&engine.library, &same.library));
    }
}
