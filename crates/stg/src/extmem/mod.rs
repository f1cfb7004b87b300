//! External-memory sharded reachability —
//! [`ReachStrategy::Spill`](crate::reach::ReachStrategy::Spill).
//!
//! The spill engine runs the *same* token game as the packed engine
//! (same mask-compiled transition net, same narrow-width speculation,
//! same BFS discovery order, same error semantics) but bounds peak
//! resident memory by [`ReachConfig::memory_budget`] instead of by the
//! state count:
//!
//! * **Paged state arena** (`arena`): packed markings live in
//!   fixed-stride pages; pages past the resident budget are written
//!   back to scratch files and faulted in on demand (clock eviction).
//! * **Hash-partitioned shards** (`shard`): the marking hash selects
//!   a shard; each shard owns its intern table and arena segment.
//!   Global state ids are assigned in BFS discovery order at intern
//!   time, so the merged graph's numbering — and therefore its bytes —
//!   are identical to the packed engine's.
//! * **Spill frontier and edge log** (`frontier`): the
//!   level-synchronized BFS frontier and the fired-edge log keep
//!   bounded in-memory buffers and overflow to sequential run files.
//! * **RAII manifest** (`manifest`): every scratch file lives in one
//!   run-scoped directory removed on drop — success, error and panic
//!   paths alike.
//! * **Durable checkpoints** (`checkpoint`): at a configurable level
//!   cadence ([`ReachConfig::checkpoint_every`]) the full exploration
//!   state is atomically snapshotted into
//!   [`ReachConfig::checkpoint_dir`] — a checksummed, versioned
//!   manifest committed by temp+rename over the arena pages, intern
//!   tables, pending frontier and edge log. A killed run continues from
//!   the last snapshot via [`ReachConfig::resume`], producing a graph
//!   byte-identical to an uninterrupted run.
//!
//! What stays in memory regardless of the budget: the per-shard intern
//! tables and local→global maps (16–24 bytes per distinct state) and
//! the `O(states + edges)` outputs the caller asked for (BFS parents,
//! CSR offsets, the final materialized graph). The budget governs the
//! *working set* — marking storage, frontier and edge buffering — which
//! is what otherwise dwarfs the rest on
//! token-game state explosions.

mod arena;
mod checkpoint;
mod frontier;
mod manifest;
mod shard;

use crate::petri::{Stg, TransitionId};
use crate::reach::{
    full_width, narrow_width, Abort, Exploration, FireFault, PackedNet, ReachConfig, ReachError,
};
use checkpoint::{CheckpointCtx, LoadedManifest, Snapshot};
use frontier::{EdgeLog, SpillFrontier};
use manifest::SpillManifest;
use shard::{hash_words, shard_of, Interned, Shard};
use simap_sg::{Event, SignalId, StateId};
use std::rc::Rc;

/// Disk and memory counters of one spill exploration, reported through
/// [`crate::reach::ReachStats::spill`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpillCounters {
    /// Total bytes written to scratch files (arena pages, frontier runs,
    /// edge log). Zero when the whole run fit in the budget.
    pub spilled_bytes: u64,
    /// Scratch files created (all inside the run directory, all removed
    /// when the exploration ends).
    pub files_created: u32,
    /// Peak resident bytes of the budgeted working set: arena page
    /// caches plus frontier and edge-log buffers. At
    /// most [`SpillCounters::budget`], up to small per-component floors
    /// (two pages per shard, one record per frontier buffer).
    pub resident_peak: u64,
    /// In-memory index bytes outside the budgeted working set (intern
    /// tables, local→global maps): `O(distinct states)`.
    pub table_bytes: u64,
    /// The effective memory budget the run was held to.
    pub budget: u64,
    /// The effective shard count.
    pub shards: u32,
    /// Checkpoint generations committed by this run
    /// ([`ReachConfig::checkpoint_every`]; zero when checkpointing is
    /// off).
    pub checkpoints_written: u32,
    /// Total bytes of committed checkpoint artifacts and manifests.
    pub checkpoint_bytes: u64,
    /// BFS level this run resumed from ([`ReachConfig::resume`]; zero
    /// for a cold start).
    pub resume_level: u64,
}

/// Smallest honored budget (one arena page): below this the component
/// floors (two arena pages per shard, one frontier record per buffer,
/// one buffered edge) dominate anyway.
const MIN_BUDGET: usize = 4096;

/// Shard-count ceiling (each shard pins up to two arena pages).
const MAX_SHARDS: usize = 512;

/// Runs the token game with the external-memory engine. Graphs — and
/// errors — are byte-identical to [`crate::reach::explore_packed`] on
/// every net both can elaborate.
pub(crate) fn explore_spill(stg: &Stg, config: &ReachConfig) -> Result<Exploration, ReachError> {
    if config.checkpoint_every > 0 && config.checkpoint_dir.is_none() {
        return Err(ReachError::Checkpoint {
            detail: "ReachConfig::checkpoint_every is set but ReachConfig::checkpoint_dir is not"
                .to_string(),
        });
    }
    let nshards = config.shards.clamp(1, MAX_SHARDS);
    if let Some(dir) = &config.resume {
        // Resume continues at the checkpoint's recorded field width. If
        // the checkpointed narrow layout overflows *after* the resume
        // point, redo the whole exploration cold at full width — the
        // same restart an uninterrupted narrow run would have taken, so
        // the output bytes cannot tell the difference.
        let loaded = checkpoint::load_manifest(dir, stg, config, nshards)?;
        return match explore_spill_at(stg, config, loaded.width, Some(&loaded)) {
            Ok(exploration) => Ok(exploration),
            Err(Abort::Error(e)) => Err(e),
            Err(Abort::Widen) => {
                match explore_spill_at(stg, config, full_width(stg, config.max_tokens), None) {
                    Ok(exploration) => Ok(exploration),
                    Err(Abort::Error(e)) => Err(e),
                    Err(Abort::Widen) => unreachable!("full-width runs cannot ask to widen"),
                }
            }
        };
    }
    // Same narrow-width speculation as the packed engine: restart once
    // at full width if a field overflows. Both attempts explore in
    // identical BFS order, so the restart is invisible in the output.
    let narrow = narrow_width(stg);
    let full = full_width(stg, config.max_tokens);
    match explore_spill_at(stg, config, narrow.min(full), None) {
        Err(Abort::Widen) => match explore_spill_at(stg, config, full, None) {
            Ok(exploration) => Ok(exploration),
            Err(Abort::Error(e)) => Err(e),
            Err(Abort::Widen) => unreachable!("full-width runs cannot ask to widen"),
        },
        Ok(exploration) => Ok(exploration),
        Err(Abort::Error(e)) => Err(e),
    }
}

fn io_abort(context: &str, e: std::io::Error) -> Abort {
    Abort::Error(ReachError::Spill { detail: format!("{context}: {e}") })
}

/// The spill BFS state: sharded arenas, spill frontier, edge log, and
/// the in-memory outputs — plus everything a checkpoint persists.
struct SpillExplorer<'a> {
    stg: &'a Stg,
    net: PackedNet,
    stride: usize,
    t_words: usize,
    /// `stride + t_words`: one frontier record.
    rec_words: usize,
    nshards: usize,
    max_states: usize,
    max_tokens: u8,
    width: u32,
    budget: usize,
    shards: Vec<Shard>,
    frontier: SpillFrontier,
    edges: EdgeLog,
    /// Event code per transition: `(signal << 1) | rising` — decoded
    /// back when the edge log is replayed.
    events: Vec<u64>,
    parent: Vec<Option<(usize, TransitionId)>>,
    edge_off: Vec<usize>,
    fired: Vec<bool>,
    /// Distinct markings interned so far.
    count: usize,
    /// Sources fully expanded so far (the BFS cursor).
    src: usize,
    safe: bool,
    manifest: Rc<SpillManifest>,
    succ_mask: Vec<u64>,
}

impl<'a> SpillExplorer<'a> {
    fn new(
        stg: &'a Stg,
        config: &ReachConfig,
        width: u32,
        resume: Option<&LoadedManifest>,
    ) -> Result<SpillExplorer<'a>, Abort> {
        let net = PackedNet::compile(stg, config.max_tokens, width);
        let stride = net.words;
        let t_words = net.t_words;
        let n_transitions = stg.transition_count();
        if let Some(m) = resume {
            if m.stride != stride || m.t_words != t_words {
                return Err(Abort::Error(ReachError::Checkpoint {
                    detail: format!(
                        "checkpoint geometry (stride {}, mask words {}) does not match the \
                         current net (stride {stride}, mask words {t_words})",
                        m.stride, m.t_words
                    ),
                }));
            }
        }

        let budget = config.memory_budget.max(MIN_BUDGET);
        let nshards = config.shards.clamp(1, MAX_SHARDS);
        // Working-set split: half to the sharded arena page caches, a
        // quarter to the frontier buffers, the rest to the edge log.
        let arena_share = budget / 2;
        let frontier_share = budget / 4;
        let edge_share = budget - arena_share - frontier_share;
        let rec_words = stride + t_words;

        let manifest = Rc::new(SpillManifest::create(config.spill_dir.as_deref())?);
        let shards: Vec<Shard> = (0..nshards)
            .map(|i| {
                Shard::new(
                    stride,
                    arena_share / nshards,
                    format!("shard-{i}.arena"),
                    Rc::clone(&manifest),
                )
            })
            .collect();
        let frontier = SpillFrontier::new(rec_words, frontier_share, Rc::clone(&manifest));
        let edges = EdgeLog::new(edge_share, Rc::clone(&manifest));

        let events: Vec<u64> = stg
            .transitions()
            .iter()
            .map(|t| ((t.event.signal.0 as u64) << 1) | u64::from(t.event.rising))
            .collect();

        let mut this = SpillExplorer {
            stg,
            net,
            stride,
            t_words,
            rec_words,
            nshards,
            max_states: config.max_states,
            max_tokens: config.max_tokens,
            width,
            budget,
            shards,
            frontier,
            edges,
            events,
            parent: Vec::new(),
            edge_off: Vec::new(),
            fired: vec![false; n_transitions],
            count: 0,
            src: 0,
            safe: true,
            manifest,
            succ_mask: vec![0u64; t_words],
        };

        match resume {
            Some(m) => {
                let dir = config.resume.as_deref().expect("resume manifest implies a resume dir");
                let restored = checkpoint::restore(
                    dir,
                    m,
                    n_transitions,
                    &mut this.shards,
                    &mut this.frontier,
                    &mut this.edges,
                )
                .map_err(Abort::Error)?;
                this.count = restored.count;
                this.src = restored.src;
                this.parent = restored.parent;
                this.edge_off = restored.edge_off;
                this.fired = restored.fired;
                this.safe = m.safe;
            }
            None => {
                let mut initial = vec![0u64; stride];
                this.net.pack_into(stg.initial_marking(), &mut initial);
                this.safe = this.net.multi.iter().zip(&initial).all(|(&m, &w)| w & m == 0);

                // The initial state's enabled set is the one full
                // per-transition scan; every other state derives its set
                // incrementally from its BFS parent's (carried through
                // the frontier records).
                let mut mask0 = vec![0u64; t_words];
                for t in 0..n_transitions {
                    if this.net.enabled(&initial, TransitionId(t)) {
                        mask0[t / 64] |= 1u64 << (t % 64);
                    }
                }

                let h0 = hash_words(&initial);
                match this.shards[shard_of(h0, nshards)]
                    .intern(&initial, h0)
                    .map_err(|e| io_abort("intern", e))?
                {
                    Interned::New => this.shards[shard_of(h0, nshards)]
                        .commit(&initial, 0)
                        .map_err(|e| io_abort("arena append", e))?,
                    Interned::Existing(_) => {
                        unreachable!("empty shard cannot know the initial marking")
                    }
                }
                this.frontier.push(&initial, &mask0).map_err(|e| io_abort("frontier write", e))?;
                this.count = 1;
                this.parent.push(None);
            }
        }
        Ok(this)
    }

    fn fault_abort(&self, fault: FireFault, src: usize) -> Abort {
        match fault {
            FireFault::Unbounded(p) => Abort::Error(ReachError::Unbounded {
                place: self.stg.places()[p.0].name.clone(),
                max_tokens: self.max_tokens,
                visited: src,
            }),
            FireFault::Widen => Abort::Widen,
        }
    }

    /// Dedups one fired successor through its shard: commit + frontier
    /// push on a miss (deriving the enabled set from the source's mask),
    /// edge push always.
    fn absorb(
        &mut self,
        src: usize,
        t: TransitionId,
        cur_mask: &[u64],
        next: &[u64],
        h: u64,
    ) -> Result<(), Abort> {
        let sh = shard_of(h, self.nshards);
        let dst = match self.shards[sh].intern(next, h).map_err(|e| io_abort("intern", e))? {
            Interned::Existing(g) => g,
            Interned::New => {
                let candidate = self.count;
                if candidate >= self.max_states {
                    return Err(Abort::Error(ReachError::StateLimit {
                        limit: self.max_states,
                        visited: src,
                    }));
                }
                if self.safe && self.net.multi.iter().zip(next).any(|(&m, &v)| v & m != 0) {
                    self.safe = false;
                }
                // Incremental enabled set, exactly as packed: carry over
                // what `t` cannot affect, recheck its neighborhood.
                let keep = &self.net.keep[t.0 * self.t_words..(t.0 + 1) * self.t_words];
                for (s, (&e, &k)) in self.succ_mask.iter_mut().zip(cur_mask.iter().zip(keep)) {
                    *s = e & k;
                }
                let (rs, re) = self.net.recheck_range[t.0];
                for &u in &self.net.recheck[rs as usize..re as usize] {
                    if self.net.enabled(next, TransitionId(u as usize)) {
                        self.succ_mask[u as usize / 64] |= 1u64 << (u % 64);
                    }
                }
                self.shards[sh]
                    .commit(next, candidate as u64)
                    .map_err(|e| io_abort("arena append", e))?;
                self.parent.push(Some((src, t)));
                self.frontier
                    .push(next, &self.succ_mask)
                    .map_err(|e| io_abort("frontier write", e))?;
                self.count += 1;
                candidate as u64
            }
        };
        self.edges.push(self.events[t.0], dst).map_err(|e| io_abort("edge log write", e))?;
        Ok(())
    }

    /// Expands one frontier record (the record `self.src` indexes),
    /// firing every enabled transition in ascending order.
    fn expand_record(&mut self, rec: &[u64], next: &mut [u64]) -> Result<(), Abort> {
        let (cur, cur_mask) = rec.split_at(self.stride);
        self.edge_off.push(self.edges.len());
        let src = self.src;
        for w in 0..self.t_words {
            let mut bits = cur_mask[w];
            while bits != 0 {
                let t = TransitionId(w * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
                self.fired[t.0] = true;
                if let Some(f) = self.net.fire(self.stg, cur, t, next) {
                    return Err(self.fault_abort(f, src));
                }
                let h = hash_words(next);
                self.absorb(src, t, cur_mask, next, h)?;
            }
        }
        self.src = src + 1;
        Ok(())
    }

    /// Expands the sealed level record-by-record, streaming straight
    /// from the frontier.
    fn expand_level(&mut self, rec: &mut [u64], next: &mut [u64]) -> Result<(), Abort> {
        while self.frontier.next(rec).map_err(|e| io_abort("frontier read", e))? {
            self.expand_record(rec, next)?;
        }
        Ok(())
    }

    /// Atomically snapshots the full exploration state — only ever
    /// called at a level boundary.
    fn write_checkpoint(&self, ctx: &mut CheckpointCtx, level: u64) -> Result<(), Abort> {
        let snap = Snapshot {
            level,
            width: self.width,
            count: self.count,
            src: self.src,
            safe: self.safe,
            stride: self.stride,
            t_words: self.t_words,
            shards: &self.shards,
            frontier: &self.frontier,
            edges: &self.edges,
            parent: &self.parent,
            edge_off: &self.edge_off,
            fired: &self.fired,
        };
        checkpoint::write(ctx, &snap).map_err(Abort::Error)
    }

    /// Closes the CSR, replays the edge log and assembles the
    /// [`Exploration`] plus counters.
    fn finish(
        mut self,
        ckpt: Option<&CheckpointCtx>,
        resume_level: u64,
        config: &ReachConfig,
    ) -> Result<Exploration, Abort> {
        self.edge_off.push(self.edges.len());

        let resident_peak = self.shards.iter().map(Shard::arena_peak_bytes).sum::<u64>()
            + self.frontier.peak_bytes()
            + self.edges.peak_bytes();
        let table_bytes = self.shards.iter().map(Shard::table_bytes).sum::<u64>();
        let mut edge_arcs: Vec<(Event, StateId)> = Vec::with_capacity(self.edges.len());
        self.edges
            .replay(|code, dst| {
                let event = Event { signal: SignalId((code >> 1) as usize), rising: code & 1 == 1 };
                edge_arcs.push((event, StateId(dst as usize)));
            })
            .map_err(|e| io_abort("edge log read", e))?;

        let counters = SpillCounters {
            spilled_bytes: self.manifest.bytes_spilled(),
            files_created: self.manifest.files_created(),
            resident_peak,
            table_bytes,
            budget: self.budget as u64,
            shards: self.nshards as u32,
            checkpoints_written: ckpt.map_or(0, |c| c.written),
            checkpoint_bytes: ckpt.map_or(0, |c| c.bytes),
            resume_level,
        };
        // The exploration completed: its checkpoints have served their
        // purpose. Remove the managed artifacts (never the directories
        // themselves); failures here must not fail a finished run.
        if let Some(ctx) = ckpt {
            checkpoint::clean(&ctx.dir);
        }
        if let Some(dir) = &config.resume {
            checkpoint::clean(dir);
        }
        Ok(Exploration {
            count: self.count,
            parent: self.parent,
            edge_off: self.edge_off,
            edge_arcs,
            fired: self.fired,
            safe: self.safe,
            spill: Some(counters),
        })
    }
}

fn explore_spill_at(
    stg: &Stg,
    config: &ReachConfig,
    width: u32,
    resume: Option<&LoadedManifest>,
) -> Result<Exploration, Abort> {
    let mut ex = SpillExplorer::new(stg, config, width, resume)?;
    let resume_level = resume.map_or(0, |m| m.level);
    let mut ckpt = match (&config.checkpoint_dir, config.checkpoint_every) {
        (Some(dir), every) if every > 0 => Some(CheckpointCtx {
            dir: dir.clone(),
            config_digest: checkpoint::config_digest(config, ex.nshards),
            net_digest: checkpoint::net_digest(stg),
            written: 0,
            bytes: 0,
        }),
        _ => None,
    };
    let mut level = resume_level;
    let mut rec = vec![0u64; ex.rec_words];
    let mut next = vec![0u64; ex.stride];
    loop {
        if ex.frontier.begin_level() == 0 {
            break;
        }
        ex.expand_level(&mut rec, &mut next)?;
        level += 1;
        if let Some(ctx) = ckpt.as_mut() {
            if level.is_multiple_of(config.checkpoint_every as u64) {
                ex.write_checkpoint(ctx, level)?;
            }
        }
    }
    ex.finish(ckpt.as_ref(), resume_level, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_g;
    use crate::reach::ReachStrategy;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    const FORK_JOIN: &str = "\
.model fj
.inputs a
.outputs b c d
.graph
a+ b+ c+
b+ d+
c+ d+
d+ a-
a- b- c-
b- d-
c- d-
d- a+
.marking { <d-,a+> }
.end
";

    fn test_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "simap-ckpt-test-{}-{tag}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn spill_config() -> ReachConfig {
        ReachConfig {
            strategy: ReachStrategy::Spill,
            memory_budget: MIN_BUDGET,
            ..ReachConfig::default()
        }
    }

    fn assert_same_exploration(a: &Exploration, b: &Exploration) {
        assert_eq!(a.count, b.count);
        assert_eq!(a.parent, b.parent);
        assert_eq!(a.edge_off, b.edge_off);
        assert_eq!(a.edge_arcs, b.edge_arcs);
        assert_eq!(a.fired, b.fired);
        assert_eq!(a.safe, b.safe);
    }

    /// Runs the spill engine for `levels` BFS levels, commits a
    /// checkpoint, and then *drops* the explorer — the unit-test stand-in
    /// for a SIGKILL: the RAII scratch run vanishes, the checkpoint
    /// directory survives.
    fn run_levels_then_crash(stg: &Stg, config: &ReachConfig, dir: &std::path::Path, levels: u64) {
        let width = narrow_width(stg).min(full_width(stg, config.max_tokens));
        let mut ex = SpillExplorer::new(stg, config, width, None).ok().expect("engine setup");
        let mut ctx = CheckpointCtx {
            dir: dir.to_path_buf(),
            config_digest: checkpoint::config_digest(config, ex.nshards),
            net_digest: checkpoint::net_digest(stg),
            written: 0,
            bytes: 0,
        };
        let mut rec = vec![0u64; ex.rec_words];
        let mut next = vec![0u64; ex.stride];
        for level in 1..=levels {
            assert!(ex.frontier.begin_level() > 0, "net exhausted before level {level}");
            ex.expand_level(&mut rec, &mut next).ok().expect("expand");
            ex.write_checkpoint(&mut ctx, level).ok().expect("checkpoint");
        }
        assert_eq!(ctx.written, levels as u32);
        assert!(ctx.bytes > 0);
        assert!(dir.join("MANIFEST").exists());
        assert!(dir.join(format!("gen-{levels}")).exists());
    }

    #[test]
    fn resume_after_crash_is_byte_identical() {
        let stg = parse_g(FORK_JOIN).unwrap();
        let config = spill_config();
        let cold = explore_spill(&stg, &config).unwrap();
        for levels in 1..=3 {
            let dir = test_dir("resume");
            run_levels_then_crash(&stg, &config, &dir, levels);
            let resumed =
                explore_spill(&stg, &ReachConfig { resume: Some(dir.clone()), ..config.clone() })
                    .unwrap();
            assert_same_exploration(&cold, &resumed);
            let counters = resumed.spill.unwrap();
            assert_eq!(counters.resume_level, levels);
            // Success cleans the consumed checkpoint, keeps the dir.
            assert!(!dir.join("MANIFEST").exists());
            assert!(dir.exists());
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn spill_exploration_matches_packed() {
        let stg = parse_g(FORK_JOIN).unwrap();
        let packed = crate::reach::explore_packed(&stg, &ReachConfig::default()).unwrap();
        assert_same_exploration(&packed, &explore_spill(&stg, &spill_config()).unwrap());
    }

    #[test]
    fn checkpointed_run_cleans_up_and_counts() {
        let stg = parse_g(FORK_JOIN).unwrap();
        let dir = test_dir("cadence");
        let config = ReachConfig {
            checkpoint_every: 2,
            checkpoint_dir: Some(dir.clone()),
            ..spill_config()
        };
        let run = explore_spill(&stg, &config).unwrap();
        let cold = explore_spill(&stg, &spill_config()).unwrap();
        assert_same_exploration(&cold, &run);
        let counters = run.spill.unwrap();
        assert!(counters.checkpoints_written >= 2, "{}", counters.checkpoints_written);
        assert!(counters.checkpoint_bytes > 0);
        assert_eq!(counters.resume_level, 0);
        assert!(!dir.join("MANIFEST").exists(), "completed run must clean its checkpoints");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_every_without_dir_is_refused() {
        let stg = parse_g(FORK_JOIN).unwrap();
        let config = ReachConfig { checkpoint_every: 2, ..spill_config() };
        match explore_spill(&stg, &config) {
            Err(ReachError::Checkpoint { detail }) => assert!(detail.contains("checkpoint_dir")),
            other => panic!("expected a checkpoint pairing error, got {other:?}"),
        }
    }

    #[test]
    fn resume_without_manifest_is_refused() {
        let stg = parse_g(FORK_JOIN).unwrap();
        let dir = test_dir("empty");
        let config = ReachConfig { resume: Some(dir.clone()), ..spill_config() };
        match explore_spill(&stg, &config) {
            Err(ReachError::Checkpoint { detail }) => {
                assert!(detail.contains("nothing to resume"), "{detail}")
            }
            other => panic!("expected a missing-manifest error, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mismatched_config_digest_is_refused_naming_both() {
        let stg = parse_g(FORK_JOIN).unwrap();
        let config = spill_config();
        let dir = test_dir("cfg");
        run_levels_then_crash(&stg, &config, &dir, 1);
        let other = ReachConfig { max_tokens: 3, resume: Some(dir.clone()), ..config };
        match explore_spill(&stg, &other) {
            Err(ReachError::Checkpoint { detail }) => {
                assert!(detail.contains("configuration digest mismatch"), "{detail}");
                // Both digests are spelled out for the user.
                assert_eq!(detail.matches("0x").count(), 2, "{detail}");
            }
            other => panic!("expected a config digest refusal, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mismatched_net_digest_is_refused_naming_both() {
        let stg = parse_g(FORK_JOIN).unwrap();
        let config = spill_config();
        let dir = test_dir("net");
        run_levels_then_crash(&stg, &config, &dir, 1);
        let other_net = parse_g(&FORK_JOIN.replace(".model fj", ".model fk")).unwrap();
        match explore_spill(&other_net, &ReachConfig { resume: Some(dir.clone()), ..config }) {
            Err(ReachError::Checkpoint { detail }) => {
                assert!(detail.contains("net digest mismatch"), "{detail}");
                assert_eq!(detail.matches("0x").count(), 2, "{detail}");
            }
            other => panic!("expected a net digest refusal, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_manifest_and_artifacts_are_refused_by_name() {
        let stg = parse_g(FORK_JOIN).unwrap();
        let config = spill_config();
        let dir = test_dir("corrupt");
        run_levels_then_crash(&stg, &config, &dir, 2);
        let resume = ReachConfig { resume: Some(dir.clone()), ..config };

        // Bit-flip the manifest: checksum refusal.
        let manifest_path = dir.join("MANIFEST");
        let pristine = std::fs::read(&manifest_path).unwrap();
        let mut flipped = pristine.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        std::fs::write(&manifest_path, &flipped).unwrap();
        match explore_spill(&stg, &resume) {
            Err(ReachError::Checkpoint { detail }) => {
                assert!(detail.contains("MANIFEST") && detail.contains("corrupt"), "{detail}")
            }
            other => panic!("expected a manifest corruption refusal, got {other:?}"),
        }

        // Truncated manifest: size refusal.
        std::fs::write(&manifest_path, &pristine[..pristine.len() / 2 / 8 * 8]).unwrap();
        match explore_spill(&stg, &resume) {
            Err(ReachError::Checkpoint { detail }) => {
                assert!(detail.contains("corrupt"), "{detail}")
            }
            other => panic!("expected a truncation refusal, got {other:?}"),
        }
        std::fs::write(&manifest_path, &pristine).unwrap();

        // Bit-flip an artifact: the error names the artifact file.
        for artifact in ["state", "shard-0.records", "edges.log"] {
            let path = dir.join("gen-2").join(artifact);
            let good = std::fs::read(&path).unwrap();
            if good.is_empty() {
                continue;
            }
            let mut bad = good.clone();
            let mid = bad.len() / 2;
            bad[mid] ^= 0x04;
            std::fs::write(&path, &bad).unwrap();
            match explore_spill(&stg, &resume) {
                Err(ReachError::Checkpoint { detail }) => {
                    assert!(detail.contains(artifact), "`{artifact}` not named in: {detail}")
                }
                other => panic!("expected `{artifact}` corruption refusal, got {other:?}"),
            }
            std::fs::write(&path, &good).unwrap();
        }

        // Truncate an artifact: length refusal naming the file.
        let path = dir.join("gen-2").join("frontier.pending");
        let good = std::fs::read(&path).unwrap();
        if !good.is_empty() {
            std::fs::write(&path, &good[..good.len() - 8]).unwrap();
            match explore_spill(&stg, &resume) {
                Err(ReachError::Checkpoint { detail }) => {
                    assert!(detail.contains("frontier.pending"), "{detail}")
                }
                other => panic!("expected a truncation refusal, got {other:?}"),
            }
            std::fs::write(&path, &good).unwrap();
        }

        // Everything restored: the checkpoint resumes cleanly again.
        let cold = explore_spill(&stg, &spill_config()).unwrap();
        let resumed = explore_spill(&stg, &resume).unwrap();
        assert_same_exploration(&cold, &resumed);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
