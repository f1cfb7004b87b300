//! The unified run configuration: one validated, builder-style struct
//! absorbing every knob of the synthesis flow.
//!
//! Before this module, tuning a run meant reaching into four places —
//! [`FlowConfig`] (decomposition + verification), [`CscRepairConfig`],
//! [`VerifyConfig`] and loose builder setters like `or_limit` — and
//! invalid values were clamped or ignored mid-flow. A [`Config`] is built
//! once through [`ConfigBuilder`], validated at [`ConfigBuilder::build`],
//! and then shared immutably by [`crate::Engine`], [`crate::Synthesis`]
//! and [`crate::Batch`]:
//!
//! ```
//! use simap_core::Config;
//!
//! let config = Config::builder().literal_limit(3).verify(false).build()?;
//! assert_eq!(config.literal_limit(), 3);
//! assert!(Config::builder().literal_limit(1).build().is_err()); // < 2
//! # Ok::<(), simap_core::Error>(())
//! ```

use crate::csc::CscRepairConfig;
use crate::decompose::{AckMode, DecomposeConfig};
use crate::error::Error;
use crate::flow::FlowConfig;
use simap_netlist::VerifyConfig;
use simap_stg::{ReachConfig, ReachStrategy};

/// A validated, immutable configuration of the whole synthesis flow.
///
/// Construct through [`Config::builder`] (or [`Config::default`] for the
/// paper's 2-input setting). Every value is checked once at build time;
/// the flow itself never clamps or re-validates.
#[derive(Debug, Clone)]
pub struct Config {
    pub(crate) flow: FlowConfig,
    pub(crate) or_limit: Option<usize>,
    pub(crate) csc_repair: CscRepairConfig,
    pub(crate) reach: ReachConfig,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            flow: FlowConfig::with_limit(2),
            or_limit: None,
            csc_repair: CscRepairConfig::default(),
            reach: ReachConfig::default(),
        }
    }
}

impl Config {
    /// Starts a builder from the default (2-input, verifying) setting.
    pub fn builder() -> ConfigBuilder {
        ConfigBuilder { config: Config::default() }
    }

    /// Re-opens this configuration as a builder (e.g. to derive a
    /// per-limit variant); [`ConfigBuilder::build`] re-validates.
    pub fn to_builder(&self) -> ConfigBuilder {
        ConfigBuilder { config: self.clone() }
    }

    /// Gate complexity target: every cover must fit this many literals.
    pub fn literal_limit(&self) -> usize {
        self.flow.decompose.literal_limit
    }

    /// Fanin bound of the second-level OR trees (`None` = natural fanin).
    pub fn or_limit(&self) -> Option<usize> {
        self.or_limit
    }

    /// Whether the final netlist is verified for speed-independence.
    pub fn verify(&self) -> bool {
        self.flow.verify
    }

    /// Whether CSC violations are repaired by state-signal insertion.
    pub fn repair_csc(&self) -> bool {
        self.flow.repair_csc
    }

    /// Acknowledgment policy of the decomposition loop.
    pub fn ack_mode(&self) -> AckMode {
        self.flow.decompose.ack_mode
    }

    /// Hard cap on signals inserted by the decomposition loop.
    pub fn max_insertions(&self) -> usize {
        self.flow.decompose.max_insertions
    }

    /// The decomposition-loop configuration.
    pub fn decompose_config(&self) -> &DecomposeConfig {
        &self.flow.decompose
    }

    /// The speed-independence verifier's limits.
    pub fn verify_config(&self) -> &VerifyConfig {
        &self.flow.verify_config
    }

    /// The CSC-repair insertion budget.
    pub fn csc_repair_config(&self) -> &CscRepairConfig {
        &self.csc_repair
    }

    /// The STG reachability limits.
    pub fn reach_config(&self) -> &ReachConfig {
        &self.reach
    }

    /// A stable 64-bit fingerprint of **every** knob in this
    /// configuration, suitable as the configuration component of a
    /// content-addressed cache key (the persistent result cache of
    /// `simap serve` keys finished reports by it, so two serve instances
    /// — or one instance across restarts — share warm results exactly
    /// when their configurations agree).
    ///
    /// The digest is FNV-1a 64 ([`crate::digest`]) over a canonical text
    /// rendering of the knobs, so it is identical across processes and
    /// machines. It is deliberately *conservative*: knobs that do not
    /// change response bytes (the spill budget under an in-memory
    /// strategy) still participate, trading a few spurious cache misses
    /// for never having to reason about which knob is observable where.
    /// A 64-bit digest can collide; consumers must verify the full key on
    /// use (see [`crate::digest`]).
    pub fn digest(&self) -> u64 {
        use std::fmt::Write as _;
        let d = &self.flow.decompose;
        let r = &self.reach;
        let mut canon = String::with_capacity(256);
        let _ = write!(
            canon,
            "config-v1;lit={};or={:?};verify={};vmax={};csc={};cscmax={};ack={};maxins={};\
             maxcand={};div={},{},{},{};filter={};refine={};",
            d.literal_limit,
            self.or_limit,
            self.flow.verify,
            self.flow.verify_config.max_states,
            self.flow.repair_csc,
            self.csc_repair.max_insertions,
            match d.ack_mode {
                crate::decompose::AckMode::Global => "global",
                crate::decompose::AckMode::Local => "local",
            },
            d.max_insertions,
            d.max_candidates_tried,
            d.divisors.max_candidates,
            d.divisors.max_or_subset,
            d.divisors.max_and_subset,
            d.divisors.recursion_depth,
            d.use_progress_filter,
            d.use_boolean_refinement,
        );
        let _ = write!(
            canon,
            "reach={};rmax={};rtok={};rbud={};rdir={:?};rshards={};rckevery={};\
             rckdir={:?};rresume={:?}",
            r.strategy,
            r.max_states,
            r.max_tokens,
            r.memory_budget,
            r.spill_dir,
            r.shards,
            r.checkpoint_every,
            r.checkpoint_dir,
            r.resume,
        );
        crate::digest::fnv1a64(canon.as_bytes())
    }
}

/// Builder for [`Config`]; see the [module docs](self) for an example.
///
/// Setters record values without checking; [`ConfigBuilder::build`]
/// validates everything at once and reports the first problem as
/// [`Error::InvalidConfig`].
#[derive(Debug, Clone)]
pub struct ConfigBuilder {
    config: Config,
}

impl ConfigBuilder {
    /// Gate complexity target: every cover must fit `limit` literals
    /// (default 2; must be at least 2).
    pub fn literal_limit(mut self, limit: usize) -> Self {
        self.config.flow.decompose.literal_limit = limit;
        self
    }

    /// Splits second-level OR gates into balanced trees of at most
    /// `limit` inputs (default: natural fanin; must be at least 2).
    pub fn or_limit(mut self, limit: usize) -> Self {
        self.config.or_limit = Some(limit);
        self
    }

    /// Repairs Complete State Coding violations by state-signal insertion
    /// before cover synthesis (default off: a CSC violation is then an
    /// error, as in the paper's setting).
    pub fn repair_csc(mut self, on: bool) -> Self {
        self.config.flow.repair_csc = on;
        self
    }

    /// The insertion budget of the CSC repair.
    pub fn csc_repair_config(mut self, config: CscRepairConfig) -> Self {
        self.config.csc_repair = config;
        self
    }

    /// Acknowledgment policy of the decomposition loop (default:
    /// [`AckMode::Global`], the paper's method).
    pub fn ack_mode(mut self, mode: AckMode) -> Self {
        self.config.flow.decompose.ack_mode = mode;
        self
    }

    /// Hard cap on signals inserted by the decomposition loop.
    pub fn max_insertions(mut self, n: usize) -> Self {
        self.config.flow.decompose.max_insertions = n;
        self
    }

    /// Whether the flow verifies the final netlist (default on).
    pub fn verify(mut self, on: bool) -> Self {
        self.config.flow.verify = on;
        self
    }

    /// State cap for the speed-independence verifier.
    pub fn verify_config(mut self, config: VerifyConfig) -> Self {
        self.config.flow.verify_config = config;
        self
    }

    /// State cap of the verifier (shorthand for [`Self::verify_config`]).
    pub fn verify_max_states(mut self, n: usize) -> Self {
        self.config.flow.verify_config.max_states = n;
        self
    }

    /// Adopts the full decomposition-loop configuration (divisor tuning,
    /// candidate counts, ablation switches).
    pub fn decompose_config(mut self, config: DecomposeConfig) -> Self {
        self.config.flow.decompose = config;
        self
    }

    /// STG reachability limits (state cap, token bound).
    pub fn reach_config(mut self, config: ReachConfig) -> Self {
        self.config.reach = config;
        self
    }

    /// State cap of reachability (shorthand for [`Self::reach_config`]).
    pub fn reach_max_states(mut self, n: usize) -> Self {
        self.config.reach.max_states = n;
        self
    }

    /// Reachability engine: the packed-state default, the explicit
    /// differential oracle, or the disk-spilling engine (shorthand for
    /// [`Self::reach_config`]).
    pub fn reach_strategy(mut self, strategy: ReachStrategy) -> Self {
        self.config.reach.strategy = strategy;
        self
    }

    /// Resident-memory budget in bytes of the spill strategy's working
    /// set (shorthand for [`Self::reach_config`]; ignored by the
    /// in-memory strategies; must be at least 1).
    pub fn reach_memory_budget(mut self, bytes: usize) -> Self {
        self.config.reach.memory_budget = bytes;
        self
    }

    /// Directory the spill strategy keeps its run-scoped scratch files
    /// in (`None`: the system temp dir; shorthand for
    /// [`Self::reach_config`]).
    pub fn reach_spill_dir(mut self, dir: Option<std::path::PathBuf>) -> Self {
        self.config.reach.spill_dir = dir;
        self
    }

    /// Hash-partition count of the spill strategy's intern table and
    /// marking arena (shorthand for [`Self::reach_config`]; must be at
    /// least 1).
    pub fn reach_shards(mut self, shards: usize) -> Self {
        self.config.reach.shards = shards;
        self
    }

    /// Commits a durable checkpoint of the spill exploration every
    /// `levels` BFS levels (0 = off, the default; shorthand for
    /// [`Self::reach_config`]; requires [`Self::reach_checkpoint_dir`];
    /// ignored by the in-memory strategies).
    pub fn reach_checkpoint_every(mut self, levels: usize) -> Self {
        self.config.reach.checkpoint_every = levels;
        self
    }

    /// Directory the spill strategy commits its durable checkpoints to
    /// (shorthand for [`Self::reach_config`]; unlike
    /// [`Self::reach_spill_dir`] scratch, these artifacts survive the
    /// process and are consumed by [`Self::reach_resume`]).
    pub fn reach_checkpoint_dir(mut self, dir: Option<std::path::PathBuf>) -> Self {
        self.config.reach.checkpoint_dir = dir;
        self
    }

    /// Resumes a spill exploration from the last committed checkpoint in
    /// `dir` instead of starting at the initial marking (shorthand for
    /// [`Self::reach_config`]; the checkpoint's net and configuration
    /// digests must match or elaboration refuses).
    pub fn reach_resume(mut self, dir: Option<std::path::PathBuf>) -> Self {
        self.config.reach.resume = dir;
        self
    }

    /// Validates and freezes the configuration.
    ///
    /// # Errors
    /// [`Error::InvalidConfig`] naming the first offending knob: literal
    /// limit below 2, OR-tree limit below 2, zero candidate budget, or a
    /// zero state cap in reachability / verification.
    pub fn build(self) -> Result<Config, Error> {
        let c = &self.config;
        let fail = |what: &str| Err(Error::InvalidConfig { message: what.to_string() });
        if c.flow.decompose.literal_limit < 2 {
            return fail("literal_limit must be at least 2 (a 1-literal gate is a wire)");
        }
        if c.or_limit.is_some_and(|l| l < 2) {
            return fail("or_limit must be at least 2");
        }
        if c.flow.decompose.max_candidates_tried == 0 {
            return fail("max_candidates_tried must be at least 1");
        }
        if c.flow.verify_config.max_states == 0 {
            return fail("verify max_states must be at least 1");
        }
        if c.reach.max_states == 0 {
            return fail("reachability max_states must be at least 1");
        }
        if c.reach.max_tokens == 0 {
            return fail("reachability max_tokens must be at least 1");
        }
        if c.reach.memory_budget == 0 {
            return fail("reachability memory_budget must be at least 1 byte");
        }
        if c.reach.shards == 0 {
            return fail("reachability shards must be at least 1");
        }
        if c.reach.checkpoint_every > 0 && c.reach.checkpoint_dir.is_none() {
            return fail("reach_checkpoint_every requires reach_checkpoint_dir");
        }
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Stage;

    #[test]
    fn default_is_buildable_and_two_input() {
        let config = Config::builder().build().unwrap();
        assert_eq!(config.literal_limit(), 2);
        assert!(config.verify());
        assert!(!config.repair_csc());
        assert_eq!(config.or_limit(), None);
    }

    #[test]
    fn setters_round_trip() {
        let config = Config::builder()
            .literal_limit(4)
            .or_limit(3)
            .repair_csc(true)
            .verify(false)
            .ack_mode(AckMode::Local)
            .max_insertions(5)
            .verify_max_states(1234)
            .reach_max_states(5678)
            .reach_strategy(ReachStrategy::Explicit)
            .reach_memory_budget(9 * 1024 * 1024)
            .reach_spill_dir(Some(std::path::PathBuf::from("/tmp/simap-test")))
            .reach_shards(3)
            .reach_checkpoint_every(16)
            .reach_checkpoint_dir(Some(std::path::PathBuf::from("/tmp/simap-ckpt")))
            .reach_resume(Some(std::path::PathBuf::from("/tmp/simap-ckpt")))
            .build()
            .unwrap();
        assert_eq!(config.literal_limit(), 4);
        assert_eq!(config.or_limit(), Some(3));
        assert!(config.repair_csc());
        assert!(!config.verify());
        assert_eq!(config.ack_mode(), AckMode::Local);
        assert_eq!(config.max_insertions(), 5);
        assert_eq!(config.verify_config().max_states, 1234);
        assert_eq!(config.reach_config().max_states, 5678);
        assert_eq!(config.reach_config().strategy, ReachStrategy::Explicit);
        assert_eq!(config.reach_config().memory_budget, 9 * 1024 * 1024);
        assert_eq!(
            config.reach_config().spill_dir.as_deref(),
            Some(std::path::Path::new("/tmp/simap-test"))
        );
        assert_eq!(config.reach_config().shards, 3);
        assert_eq!(config.reach_config().checkpoint_every, 16);
        assert_eq!(
            config.reach_config().checkpoint_dir.as_deref(),
            Some(std::path::Path::new("/tmp/simap-ckpt"))
        );
        assert_eq!(
            config.reach_config().resume.as_deref(),
            Some(std::path::Path::new("/tmp/simap-ckpt"))
        );
    }

    #[test]
    fn invalid_knobs_are_rejected_at_build() {
        for builder in [
            Config::builder().literal_limit(1),
            Config::builder().literal_limit(0),
            Config::builder().or_limit(1),
            Config::builder().verify_max_states(0),
            Config::builder().reach_max_states(0),
            Config::builder().reach_memory_budget(0),
            Config::builder().reach_shards(0),
            Config::builder().reach_checkpoint_every(4),
        ] {
            let err = builder.build().unwrap_err();
            assert!(matches!(err, Error::InvalidConfig { .. }), "{err}");
            assert_eq!(err.stage(), Stage::Configure);
        }
    }

    #[test]
    fn to_builder_re_validates() {
        let config = Config::builder().literal_limit(3).build().unwrap();
        let derived = config.to_builder().literal_limit(2).build().unwrap();
        assert_eq!(derived.literal_limit(), 2);
        assert_eq!(config.literal_limit(), 3, "the original is untouched");
        assert!(config.to_builder().literal_limit(1).build().is_err());
    }

    #[test]
    fn digest_is_stable_and_knob_sensitive() {
        let base = Config::default();
        assert_eq!(base.digest(), Config::default().digest(), "same knobs, same digest");
        let mut seen = vec![base.digest()];
        for variant in [
            Config::builder().literal_limit(3).build().unwrap(),
            Config::builder().verify(false).build().unwrap(),
            Config::builder().repair_csc(true).build().unwrap(),
            Config::builder().or_limit(2).build().unwrap(),
            Config::builder().reach_strategy(ReachStrategy::Spill).build().unwrap(),
            Config::builder().reach_max_states(9999).build().unwrap(),
            Config::builder().reach_shards(4).build().unwrap(),
            Config::builder()
                .reach_checkpoint_every(8)
                .reach_checkpoint_dir(Some(std::path::PathBuf::from("/tmp/simap-ckpt")))
                .build()
                .unwrap(),
        ] {
            let digest = variant.digest();
            assert!(!seen.contains(&digest), "digest collision for {variant:?}");
            seen.push(digest);
        }
    }
}
