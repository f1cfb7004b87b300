//! Durable checkpoint/restart of a spill exploration.
//!
//! At a configurable level cadence ([`ReachConfig::checkpoint_every`])
//! the spill engine snapshots its complete exploration state into
//! [`ReachConfig::checkpoint_dir`] — unlike the RAII scratch files of
//! [`super::manifest`], these artifacts survive the process, so a
//! multi-hour elaboration killed at level 4,000 resumes from the last
//! snapshot instead of the initial marking.
//!
//! One checkpoint is a *generation* directory `gen-<level>/` holding:
//!
//! * `state` — BFS scalars plus the in-memory outputs (parents, CSR
//!   offsets, fired set);
//! * `shard-<i>.tables` / `shard-<i>.records` — each shard's intern
//!   table, local→global map, and arena records;
//! * `frontier.pending` — the sealed next-level frontier records;
//! * `edges.log` — the full edge log so far;
//!
//! plus one top-level `MANIFEST`: engine format version, configuration
//! and net digests, the BFS level, geometry, and a `(length, checksum)`
//! entry per artifact, closed by a checksum over the manifest itself.
//! The manifest is written to `MANIFEST.tmp` and renamed into place, so
//! it is the atomic commit point: a crash mid-snapshot leaves the
//! previous manifest (and its generation) intact, and stale generations
//! are deleted only after the rename. Checkpoints are only taken at BFS
//! level boundaries — the one moment the frontier read side is fully
//! consumed — so a snapshot is level-consistent.
//!
//! Resume ([`ReachConfig::resume`]) validates the manifest (magic,
//! version, checksums, both digests — refusing with a message naming
//! the stored and current digest on any mismatch) and then replays every
//! artifact through the engine's ordinary `push` paths into a *fresh*
//! RAII scratch run, so the checkpoint itself survives repeated crashes
//! and the budget/eviction machinery is exercised identically to a cold
//! run. Every corruption — truncation, bit flips, geometry lies — is
//! reported as a clean [`ReachError::Checkpoint`] naming the bad
//! artifact; nothing panics and no silently wrong graph can be built.

use super::arena::{read_words_at, write_words_at};
use super::frontier::{EdgeLog, SpillFrontier};
use super::shard::Shard;
use crate::petri::{Stg, TransitionId};
use crate::reach::{ReachConfig, ReachError};
use std::fs::File;
use std::path::{Path, PathBuf};

/// Checkpoint format version; bumped on any layout change so stale
/// checkpoints refuse cleanly instead of misparsing.
const FORMAT_VERSION: u64 = 1;

/// First manifest word — eight ASCII bytes of provenance.
const MAGIC: u64 = u64::from_be_bytes(*b"SIMAPCKP");

/// Fixed manifest header words before the per-artifact table.
const HEADER_WORDS: usize = 14;

/// FNV-1a 64 over bytes. A local copy: `simap-core` (which hosts the
/// flow-level digest) depends on this crate, not the other way around.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Digest of the net a checkpoint belongs to: FNV-1a over its canonical
/// `.g` serialization, so any structural change (places, transitions,
/// arcs, marking, names) refuses a resume.
pub(crate) fn net_digest(stg: &Stg) -> u64 {
    fnv1a64(crate::write::write_g(stg).as_bytes())
}

/// Digest of the exploration-relevant configuration: the knobs that
/// change *what* is explored (limits, shard partitioning). Fan-out and
/// memory-budget knobs are deliberately excluded — they are proven not
/// to change a single output byte.
pub(crate) fn config_digest(config: &ReachConfig, nshards: usize) -> u64 {
    let canon = format!(
        "max_states={};max_tokens={};shards={nshards}",
        config.max_states, config.max_tokens
    );
    fnv1a64(canon.as_bytes())
}

/// Streaming word checksum with the same mixing as
/// [`super::shard::hash_words`].
struct WordCheck(u64);

impl WordCheck {
    fn new() -> WordCheck {
        WordCheck(0x9e37_79b9_7f4a_7c15)
    }

    fn update(&mut self, words: &[u64]) {
        let mut h = self.0;
        for &w in words {
            h ^= w;
            h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
            h ^= h >> 27;
            h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
            h ^= h >> 31;
        }
        self.0 = h;
    }

    fn finish(self) -> u64 {
        self.0 | 1
    }
}

fn ck_err(detail: String) -> ReachError {
    ReachError::Checkpoint { detail }
}

/// Name of artifact `i` given the shard count — the manifest's artifact
/// table is positional, so corruption reports can still name the file.
fn artifact_name(i: usize, nshards: usize) -> String {
    match i {
        0 => "state".to_string(),
        i if i <= nshards => format!("shard-{}.tables", i - 1),
        i if i <= 2 * nshards => format!("shard-{}.records", i - 1 - nshards),
        i if i == 2 * nshards + 1 => "frontier.pending".to_string(),
        _ => "edges.log".to_string(),
    }
}

fn artifact_count(nshards: usize) -> usize {
    2 * nshards + 3
}

/// Counters and identity of the checkpoint stream of one exploration.
pub(crate) struct CheckpointCtx {
    pub(crate) dir: PathBuf,
    pub(crate) config_digest: u64,
    pub(crate) net_digest: u64,
    /// Snapshots committed by this run.
    pub(crate) written: u32,
    /// Total bytes of committed checkpoint artifacts and manifests.
    pub(crate) bytes: u64,
}

/// A borrowed view of the full engine state at a level boundary —
/// everything [`write`] persists.
pub(crate) struct Snapshot<'a> {
    pub(crate) level: u64,
    pub(crate) width: u32,
    pub(crate) count: usize,
    pub(crate) src: usize,
    pub(crate) safe: bool,
    pub(crate) stride: usize,
    pub(crate) t_words: usize,
    pub(crate) shards: &'a [Shard],
    pub(crate) frontier: &'a SpillFrontier,
    pub(crate) edges: &'a EdgeLog,
    pub(crate) parent: &'a [Option<(usize, TransitionId)>],
    pub(crate) edge_off: &'a [usize],
    pub(crate) fired: &'a [bool],
}

/// One artifact being written: sequential word appends with a running
/// checksum.
struct ArtifactWriter {
    file: File,
    rel: String,
    words: u64,
    check: WordCheck,
}

impl ArtifactWriter {
    fn create(gen_dir: &Path, rel: &str) -> Result<ArtifactWriter, ReachError> {
        let file = File::create(gen_dir.join(rel)).map_err(|e| {
            ck_err(format!(
                "cannot create checkpoint artifact `{rel}` in `{}`: {e}",
                gen_dir.display()
            ))
        })?;
        Ok(ArtifactWriter { file, rel: rel.to_string(), words: 0, check: WordCheck::new() })
    }

    fn write(&mut self, words: &[u64]) -> Result<(), ReachError> {
        write_words_at(&self.file, self.words * 8, words)
            .map_err(|e| ck_err(format!("cannot write checkpoint artifact `{}`: {e}", self.rel)))?;
        self.words += words.len() as u64;
        self.check.update(words);
        Ok(())
    }

    /// Closes the artifact, returning its `(word length, checksum)`
    /// manifest entry.
    fn finish(self) -> (u64, u64) {
        (self.words, self.check.finish())
    }
}

/// Atomically commits one checkpoint generation: artifacts into
/// `gen-<level>/`, then the manifest via temp+rename, then stale
/// generations removed.
pub(crate) fn write(ctx: &mut CheckpointCtx, snap: &Snapshot<'_>) -> Result<(), ReachError> {
    let gen_name = format!("gen-{}", snap.level);
    let gen_dir = ctx.dir.join(&gen_name);
    // A crashed (uncommitted) or superseded generation of the same level
    // may linger; start it from scratch.
    if gen_dir.exists() {
        std::fs::remove_dir_all(&gen_dir).map_err(|e| {
            ck_err(format!("cannot clear stale generation `{}`: {e}", gen_dir.display()))
        })?;
    }
    std::fs::create_dir_all(&gen_dir).map_err(|e| {
        ck_err(format!("cannot create checkpoint generation `{}`: {e}", gen_dir.display()))
    })?;

    let nshards = snap.shards.len();
    let mut entries: Vec<(u64, u64)> = Vec::with_capacity(artifact_count(nshards));

    // Artifact 0: scalars + parents + CSR offsets + fired set.
    let mut w = ArtifactWriter::create(&gen_dir, "state")?;
    let n_transitions = snap.fired.len();
    w.write(&[snap.count as u64, snap.src as u64, n_transitions as u64])?;
    let mut buf: Vec<u64> = Vec::with_capacity(4096);
    for p in snap.parent {
        let (a, b) = match p {
            None => (u64::MAX, u64::MAX),
            Some((src, t)) => (*src as u64, t.0 as u64),
        };
        buf.push(a);
        buf.push(b);
        if buf.len() >= 4096 {
            w.write(&buf)?;
            buf.clear();
        }
    }
    for &off in snap.edge_off {
        buf.push(off as u64);
        if buf.len() >= 4096 {
            w.write(&buf)?;
            buf.clear();
        }
    }
    w.write(&buf)?;
    let mut fired_words = vec![0u64; n_transitions.div_ceil(64).max(1)];
    for (t, &fired) in snap.fired.iter().enumerate() {
        if fired {
            fired_words[t / 64] |= 1u64 << (t % 64);
        }
    }
    w.write(&fired_words)?;
    entries.push(w.finish());

    // Artifacts 1..=n: intern tables; n+1..=2n: arena records. A write
    // failure inside the streaming callback is smuggled out through
    // `ck_fail` (the components' snapshot hooks only speak io::Error).
    for (i, shard) in snap.shards.iter().enumerate() {
        let mut w = ArtifactWriter::create(&gen_dir, &format!("shard-{i}.tables"))?;
        w.write(&shard.snapshot_tables())?;
        entries.push(w.finish());
    }
    let smuggle = |ck_fail: &mut Option<ReachError>, ck: ReachError| {
        *ck_fail = Some(ck);
        std::io::Error::other("checkpoint write failed")
    };
    for (i, shard) in snap.shards.iter().enumerate() {
        let mut w = ArtifactWriter::create(&gen_dir, &format!("shard-{i}.records"))?;
        let mut ck_fail = None;
        shard
            .snapshot_records(|words| w.write(words).map_err(|ck| smuggle(&mut ck_fail, ck)))
            .map_err(|e| {
                ck_fail.take().unwrap_or_else(|| {
                    ck_err(format!("cannot read shard {i} arena for snapshot: {e}"))
                })
            })?;
        entries.push(w.finish());
    }

    // Pending next-level frontier, then the edge log.
    let mut w = ArtifactWriter::create(&gen_dir, "frontier.pending")?;
    let mut ck_fail = None;
    snap.frontier
        .snapshot_pending(|words| w.write(words).map_err(|ck| smuggle(&mut ck_fail, ck)))
        .map_err(|e| {
            ck_fail.take().unwrap_or_else(|| {
                ck_err(format!("cannot read pending frontier for snapshot: {e}"))
            })
        })?;
    entries.push(w.finish());

    let mut w = ArtifactWriter::create(&gen_dir, "edges.log")?;
    let mut ck_fail = None;
    snap.edges.snapshot(|words| w.write(words).map_err(|ck| smuggle(&mut ck_fail, ck))).map_err(
        |e| {
            ck_fail
                .take()
                .unwrap_or_else(|| ck_err(format!("cannot read edge log for snapshot: {e}")))
        },
    )?;
    entries.push(w.finish());

    // The manifest: header, artifact table, self-checksum. Written to a
    // temp name and renamed — the rename is the commit point.
    let mut manifest: Vec<u64> = Vec::with_capacity(HEADER_WORDS + 2 * entries.len() + 1);
    manifest.extend_from_slice(&[
        MAGIC,
        FORMAT_VERSION,
        ctx.config_digest,
        ctx.net_digest,
        snap.level,
        u64::from(snap.width),
        snap.count as u64,
        snap.src as u64,
        u64::from(snap.safe),
        nshards as u64,
        snap.stride as u64,
        snap.t_words as u64,
        snap.edges.len() as u64,
        entries.len() as u64,
    ]);
    debug_assert_eq!(manifest.len(), HEADER_WORDS);
    for &(words, check) in &entries {
        manifest.push(words);
        manifest.push(check);
    }
    let mut check = WordCheck::new();
    check.update(&manifest);
    manifest.push(check.finish());

    let tmp = ctx.dir.join("MANIFEST.tmp");
    let file = File::create(&tmp)
        .map_err(|e| ck_err(format!("cannot create manifest `{}`: {e}", tmp.display())))?;
    write_words_at(&file, 0, &manifest)
        .map_err(|e| ck_err(format!("cannot write manifest `{}`: {e}", tmp.display())))?;
    file.sync_all()
        .map_err(|e| ck_err(format!("cannot sync manifest `{}`: {e}", tmp.display())))?;
    drop(file);
    std::fs::rename(&tmp, ctx.dir.join("MANIFEST"))
        .map_err(|e| ck_err(format!("cannot commit manifest in `{}`: {e}", ctx.dir.display())))?;

    // Committed: stale generations are now unreachable — drop them. A
    // failure here must not fail the run (the checkpoint is valid).
    if let Ok(read) = std::fs::read_dir(&ctx.dir) {
        for entry in read.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.starts_with("gen-") && name != gen_name.as_str() {
                let _ = std::fs::remove_dir_all(entry.path());
            }
        }
    }

    ctx.written += 1;
    ctx.bytes +=
        entries.iter().map(|&(words, _)| words * 8).sum::<u64>() + manifest.len() as u64 * 8;
    Ok(())
}

/// A parsed, checksum- and digest-validated manifest.
pub(crate) struct LoadedManifest {
    pub(crate) level: u64,
    pub(crate) width: u32,
    pub(crate) count: usize,
    pub(crate) src: usize,
    pub(crate) safe: bool,
    pub(crate) nshards: usize,
    pub(crate) stride: usize,
    pub(crate) t_words: usize,
    pub(crate) n_edges: usize,
    /// Per artifact (positional; see [`artifact_name`]): word length and
    /// checksum.
    artifacts: Vec<(u64, u64)>,
}

/// Reads and validates `dir/MANIFEST` against the current net and
/// configuration. Every failure is a [`ReachError::Checkpoint`] naming
/// what is wrong; digest mismatches name both digests.
pub(crate) fn load_manifest(
    dir: &Path,
    stg: &Stg,
    config: &ReachConfig,
    nshards: usize,
) -> Result<LoadedManifest, ReachError> {
    let path = dir.join("MANIFEST");
    let corrupt =
        |what: &str| ck_err(format!("checkpoint manifest `{}` is corrupt: {what}", path.display()));
    let file = File::open(&path).map_err(|e| {
        ck_err(format!(
            "cannot open checkpoint manifest `{}`: {e} (nothing to resume?)",
            path.display()
        ))
    })?;
    let bytes = file
        .metadata()
        .map_err(|e| ck_err(format!("cannot stat checkpoint manifest `{}`: {e}", path.display())))?
        .len();
    if bytes % 8 != 0 || bytes / 8 < (HEADER_WORDS + 1) as u64 || bytes > 1 << 30 {
        return Err(corrupt("implausible size"));
    }
    let mut words = vec![0u64; (bytes / 8) as usize];
    read_words_at(&file, 0, &mut words).map_err(|e| {
        ck_err(format!("cannot read checkpoint manifest `{}`: {e}", path.display()))
    })?;

    let (body, tail) = words.split_at(words.len() - 1);
    let mut check = WordCheck::new();
    check.update(body);
    if check.finish() != tail[0] {
        return Err(corrupt("checksum mismatch"));
    }
    if body[0] != MAGIC {
        return Err(corrupt("bad magic"));
    }
    if body[1] != FORMAT_VERSION {
        return Err(ck_err(format!(
            "checkpoint manifest `{}` has format version {}, this engine reads version {}",
            path.display(),
            body[1],
            FORMAT_VERSION
        )));
    }
    let want_config = config_digest(config, nshards);
    if body[2] != want_config {
        return Err(ck_err(format!(
            "configuration digest mismatch: checkpoint was written under config digest \
             {:#018x}, the resuming run uses {want_config:#018x} (max_states, max_tokens and \
             shards must match)",
            body[2]
        )));
    }
    let want_net = net_digest(stg);
    if body[3] != want_net {
        return Err(ck_err(format!(
            "net digest mismatch: checkpoint was written for net digest {:#018x}, the current \
             net digests to {want_net:#018x} (resume must use the exact same specification)",
            body[3]
        )));
    }
    let m_nshards = body[9] as usize;
    let n_artifacts = body[13] as usize;
    if m_nshards != nshards
        || n_artifacts != artifact_count(nshards)
        || body.len() != HEADER_WORDS + 2 * n_artifacts
    {
        return Err(corrupt("artifact table disagrees with the shard count"));
    }
    let width = body[5];
    if !(2..=64).contains(&width) {
        return Err(corrupt("implausible field width"));
    }
    let artifacts = body[HEADER_WORDS..].chunks_exact(2).map(|pair| (pair[0], pair[1])).collect();
    Ok(LoadedManifest {
        level: body[4],
        width: width as u32,
        count: body[6] as usize,
        src: body[7] as usize,
        safe: body[8] != 0,
        nshards: m_nshards,
        stride: body[10] as usize,
        t_words: body[11] as usize,
        n_edges: body[12] as usize,
        artifacts,
    })
}

/// One artifact being read back: bounded sequential word reads with a
/// running checksum, verified at the end.
struct ArtifactReader {
    file: File,
    rel: String,
    pos: u64,
    words: u64,
    check: WordCheck,
    expect_check: u64,
}

impl ArtifactReader {
    fn open(gen_dir: &Path, rel: String, entry: (u64, u64)) -> Result<ArtifactReader, ReachError> {
        let path = gen_dir.join(&rel);
        let file = File::open(&path)
            .map_err(|e| ck_err(format!("cannot open checkpoint artifact `{rel}`: {e}")))?;
        let bytes = file
            .metadata()
            .map_err(|e| ck_err(format!("cannot stat checkpoint artifact `{rel}`: {e}")))?
            .len();
        if bytes != entry.0 * 8 {
            return Err(ck_err(format!(
                "checkpoint artifact `{rel}` is corrupt: {} bytes on disk, manifest records {}",
                bytes,
                entry.0 * 8
            )));
        }
        Ok(ArtifactReader {
            file,
            rel,
            pos: 0,
            words: entry.0,
            check: WordCheck::new(),
            expect_check: entry.1,
        })
    }

    fn remaining(&self) -> u64 {
        self.words - self.pos
    }

    fn read(&mut self, out: &mut [u64]) -> Result<(), ReachError> {
        debug_assert!(out.len() as u64 <= self.remaining());
        read_words_at(&self.file, self.pos * 8, out)
            .map_err(|e| ck_err(format!("cannot read checkpoint artifact `{}`: {e}", self.rel)))?;
        self.pos += out.len() as u64;
        self.check.update(out);
        Ok(())
    }

    /// Verifies the running checksum once everything was consumed.
    fn verify(self) -> Result<(), ReachError> {
        debug_assert_eq!(self.pos, self.words);
        if self.check.finish() != self.expect_check {
            return Err(ck_err(format!(
                "checkpoint artifact `{}` is corrupt: checksum mismatch",
                self.rel
            )));
        }
        Ok(())
    }
}

/// The in-memory exploration state [`restore`] hands back to the engine
/// (the file-backed components are refilled in place).
pub(crate) struct RestoredState {
    pub(crate) count: usize,
    pub(crate) src: usize,
    pub(crate) parent: Vec<Option<(usize, TransitionId)>>,
    pub(crate) edge_off: Vec<usize>,
    pub(crate) fired: Vec<bool>,
}

/// Replays every artifact of the manifest's generation into freshly
/// constructed engine components, via their ordinary `push` paths.
pub(crate) fn restore(
    dir: &Path,
    m: &LoadedManifest,
    n_transitions: usize,
    shards: &mut [Shard],
    frontier: &mut SpillFrontier,
    edges: &mut EdgeLog,
) -> Result<RestoredState, ReachError> {
    let gen_dir = dir.join(format!("gen-{}", m.level));
    let nshards = m.nshards;
    let name = |i: usize| artifact_name(i, nshards);
    let bad =
        |rel: &str, what: &str| ck_err(format!("checkpoint artifact `{rel}` is corrupt: {what}"));

    // Artifact 0: state.
    let rel = name(0);
    let mut r = ArtifactReader::open(&gen_dir, rel.clone(), m.artifacts[0])?;
    let fired_words = n_transitions.div_ceil(64).max(1);
    let expect = 3 + 2 * m.count as u64 + m.src as u64 + fired_words as u64;
    if r.words != expect {
        return Err(bad(&rel, "length disagrees with the manifest geometry"));
    }
    let mut words = vec![0u64; r.words as usize];
    r.read(&mut words)?;
    r.verify()?;
    if words[0] != m.count as u64 || words[1] != m.src as u64 || words[2] != n_transitions as u64 {
        return Err(bad(&rel, "header disagrees with the manifest"));
    }
    let mut parent: Vec<Option<(usize, TransitionId)>> = Vec::with_capacity(m.count);
    for pair in words[3..3 + 2 * m.count].chunks_exact(2) {
        let (p, t) = (pair[0], pair[1]);
        parent.push(if p == u64::MAX && t == u64::MAX {
            None
        } else {
            if p as usize >= m.count || t as usize >= n_transitions {
                return Err(bad(&rel, "parent entry out of range"));
            }
            Some((p as usize, TransitionId(t as usize)))
        });
    }
    let off_base = 3 + 2 * m.count;
    let mut edge_off: Vec<usize> = Vec::with_capacity(m.src + 1);
    let mut last = 0u64;
    for &off in &words[off_base..off_base + m.src] {
        if off < last || off > m.n_edges as u64 {
            return Err(bad(&rel, "CSR offsets are not monotone within the edge count"));
        }
        last = off;
        edge_off.push(off as usize);
    }
    let fired_base = off_base + m.src;
    let mut fired = vec![false; n_transitions];
    for (t, f) in fired.iter_mut().enumerate() {
        *f = words[fired_base + t / 64] >> (t % 64) & 1 == 1;
    }
    drop(words);

    // Shard tables, then shard records (streamed through the arenas).
    for (i, shard) in shards.iter_mut().enumerate() {
        let rel = name(1 + i);
        let mut r = ArtifactReader::open(&gen_dir, rel.clone(), m.artifacts[1 + i])?;
        if r.words > 1 << 33 {
            return Err(bad(&rel, "implausible size"));
        }
        let mut words = vec![0u64; r.words as usize];
        r.read(&mut words)?;
        r.verify()?;
        shard.restore_tables(&words).map_err(|what| bad(&rel, &what))?;
    }
    let mut total_records = 0u64;
    let mut rec = vec![0u64; m.stride];
    for (i, shard) in shards.iter_mut().enumerate() {
        let rel = name(1 + nshards + i);
        let mut r = ArtifactReader::open(&gen_dir, rel.clone(), m.artifacts[1 + nshards + i])?;
        let records = shard.records_expected();
        if r.words != records * m.stride as u64 {
            return Err(bad(&rel, "length disagrees with the shard's intern table"));
        }
        for _ in 0..records {
            r.read(&mut rec)?;
            shard
                .restore_record(&rec)
                .map_err(|e| ck_err(format!("cannot replay `{rel}` into the arena: {e}")))?;
        }
        r.verify()?;
        total_records += records;
    }
    if total_records != m.count as u64 {
        return Err(ck_err(format!(
            "checkpoint artifacts are corrupt: shards hold {total_records} markings, manifest \
             records {}",
            m.count
        )));
    }

    // Pending frontier records, then the edge log — both via push.
    let rel = name(1 + 2 * nshards);
    let mut r = ArtifactReader::open(&gen_dir, rel.clone(), m.artifacts[1 + 2 * nshards])?;
    let rec_words = m.stride + m.t_words;
    if r.words % rec_words as u64 != 0 {
        return Err(bad(&rel, "not a whole number of frontier records"));
    }
    let mut frec = vec![0u64; rec_words];
    while r.remaining() > 0 {
        r.read(&mut frec)?;
        frontier
            .push_record(&frec)
            .map_err(|e| ck_err(format!("cannot replay `{rel}` into the frontier: {e}")))?;
    }
    r.verify()?;

    let rel = name(2 + 2 * nshards);
    let mut r = ArtifactReader::open(&gen_dir, rel.clone(), m.artifacts[2 + 2 * nshards])?;
    if r.words != 2 * m.n_edges as u64 {
        return Err(bad(&rel, "length disagrees with the manifest edge count"));
    }
    let mut pair = [0u64; 2];
    while r.remaining() > 0 {
        r.read(&mut pair)?;
        edges
            .push(pair[0], pair[1])
            .map_err(|e| ck_err(format!("cannot replay `{rel}` into the edge log: {e}")))?;
    }
    r.verify()?;

    Ok(RestoredState { count: m.count, src: m.src, parent, edge_off, fired })
}

/// Removes the managed artifacts (manifest + generations) from a
/// checkpoint directory once the exploration completed — the directory
/// itself, and anything else in it, is left alone. Failures are
/// swallowed: cleanup must never fail a finished run.
pub(crate) fn clean(dir: &Path) {
    let _ = std::fs::remove_file(dir.join("MANIFEST"));
    let _ = std::fs::remove_file(dir.join("MANIFEST.tmp"));
    if let Ok(read) = std::fs::read_dir(dir) {
        for entry in read.flatten() {
            if entry.file_name().to_string_lossy().starts_with("gen-") {
                let _ = std::fs::remove_dir_all(entry.path());
            }
        }
    }
}
