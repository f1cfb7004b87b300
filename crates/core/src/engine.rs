//! The reusable synthesis engine: shared immutable inputs behind one
//! cheaply-cloneable handle.
//!
//! An [`Engine`] owns the things every run of the flow needs but none
//! should rebuild — the [`BenchmarkRegistry`] (each Table 1 STG is
//! constructed at most once) and the target gate [`Library`] — plus the
//! [`Config`] its runs use. Cloning an `Engine` is an `Arc` bump: clones
//! share the registry, so a pool of worker threads — or [`crate::Batch`]
//! with [`crate::Batch::jobs`] — builds each benchmark STG once.
//!
//! Every elaboration runs cold: reachability and CSC repair cost little
//! next to decomposition, so the engine keeps no per-specification state
//! and a long-lived engine holds nothing beyond its registry.
//!
//! ```
//! use simap_core::{Config, Engine};
//!
//! let engine = Engine::new(Config::default());
//! let first = engine.synthesize("hazard")?;
//! let again = engine.synthesize("hazard")?; // the registry's STG is reused
//! assert_eq!(first.inserted, again.inserted);
//! # Ok::<(), simap_core::Error>(())
//! ```

use crate::config::Config;
use crate::error::Error;
use crate::flow::FlowReport;
use crate::pipeline::{Batch, Synthesis};
use simap_netlist::Library;
use simap_sg::StateGraph;
use simap_stg::{BenchmarkRegistry, Stg};
use std::sync::Arc;

/// The thread-safe, reusable front door to the synthesis pipeline.
///
/// See the [module docs](self). All methods take `&self`; the engine is
/// `Send + Sync` and cloning it shares the benchmark registry.
#[derive(Clone)]
pub struct Engine {
    registry: Arc<BenchmarkRegistry>,
    // Per-handle: the library tracks this handle's literal limit, which
    // `with_config` siblings may differ on.
    library: Arc<Library>,
    config: Config,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("config", &self.config)
            .field("library", &self.library.name)
            .finish_non_exhaustive()
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
            registry: Arc::new(BenchmarkRegistry::new()),
            library: Arc::new(library_for_limit(config.literal_limit())),
            config,
        }
    }

    /// The engine's base configuration.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// A sibling engine with a different configuration **sharing** this
    /// engine's benchmark registry. The sibling's [`Engine::library`]
    /// tracks the new literal limit.
    pub fn with_config(&self, config: Config) -> Engine {
        let library = if config.literal_limit() == self.config.literal_limit() {
            self.library.clone()
        } else {
            Arc::new(library_for_limit(config.literal_limit()))
        };
        Engine { registry: self.registry.clone(), library, config }
    }

    /// The shared benchmark registry handle.
    pub fn registry(&self) -> &BenchmarkRegistry {
        &self.registry
    }

    /// The target gate library (matching this handle's literal limit).
    pub fn library(&self) -> &Library {
        &self.library
    }

    /// A [`Synthesis`] of a named Table 1 benchmark, configured with this
    /// engine's [`Config`] and resolved through its registry.
    pub fn benchmark(&self, name: impl Into<String>) -> Synthesis {
        Synthesis::from_benchmark(name).config(&self.config).engine(self.clone())
    }

    /// A [`Synthesis`] of `.g` source text, configured with this engine's
    /// [`Config`].
    pub fn g_source(&self, source: impl Into<String>) -> Synthesis {
        Synthesis::from_g_source(source).config(&self.config).engine(self.clone())
    }

    /// A [`Synthesis`] of an already-built STG, configured with this
    /// engine's [`Config`].
    pub fn stg(&self, stg: Stg) -> Synthesis {
        Synthesis::from_stg(stg).config(&self.config).engine(self.clone())
    }

    /// A [`Synthesis`] of an already-elaborated state graph, configured
    /// with this engine's [`Config`].
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
    /// registry (and configuration).
    pub fn batch<I, S>(&self, names: I) -> Batch
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Batch::on_engine(self.clone(), names)
    }

    /// A [`Batch`] over the whole embedded 32-circuit Table 1 suite.
    pub fn batch_all(&self) -> Batch {
        self.batch(self.registry.names().iter().copied())
    }

    /// Does nothing: the engine keeps no elaboration cache since 0.14, so
    /// there is nothing to clear. Kept for one minor release.
    #[deprecated(
        since = "0.14.0",
        note = "the engine no longer caches elaborations; delete the call"
    )]
    pub fn clear_cache(&self) {}
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
    fn clones_share_the_registry() {
        let engine = Engine::default();
        let clone = engine.clone();
        let ours = engine.registry().get("half").unwrap();
        let theirs = clone.registry().get("half").unwrap();
        assert!(Arc::ptr_eq(&ours, &theirs), "one STG construction per engine family");
        let sibling = engine.with_config(Config::builder().literal_limit(3).build().unwrap());
        assert!(Arc::ptr_eq(&ours, &sibling.registry().get("half").unwrap()));
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
