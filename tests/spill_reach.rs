//! Acceptance tests for the external-memory spill engine beyond the
//! differential harness: a pattern-composed net past the symbolic
//! materialize limit elaborating under a bounded resident budget,
//! scratch-file hygiene on success, error and panic exit paths, and the
//! checkpoint/resume contract proven the hard way — a child `simap
//! check` SIGKILLed mid-exploration, resumed in-process, and held to
//! state-for-state parity with a cold run.

use simap::stg::{benchmark, elaborate_with, elaborate_with_stats, parse_g, patterns, ReachError};
use simap::{ReachConfig, ReachStrategy};
use std::path::PathBuf;
use std::time::{Duration, Instant};

fn spill_config(memory_budget: usize) -> ReachConfig {
    ReachConfig {
        strategy: ReachStrategy::Spill,
        memory_budget,
        shards: 4,
        ..ReachConfig::default()
    }
}

/// A scratch directory under the system temp dir, removed on drop so a
/// failing assertion cannot leak it past the test run.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("simap-spill-test-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Self(dir)
    }

    fn entries(&self) -> Vec<PathBuf> {
        std::fs::read_dir(&self.0)
            .expect("scratch dir readable")
            .map(|e| e.expect("entry").path())
            .collect()
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The headline acceptance case: ten independent 4-state rings compose
/// to 4^10 = 1,048,576 states — past `materialize_limit`, where the
/// symbolic engine refuses to build a graph — yet the spill engine
/// fully elaborates it under a 256 MiB budget with its tracked resident
/// peak bounded by that budget, and the graph matches Packed's
/// numbering state for state. Release-only: a million-state build under
/// debug assertions takes minutes, and CI's conformance job runs
/// release.
#[test]
fn million_state_net_elaborates_under_a_bounded_budget() {
    if cfg!(debug_assertions) {
        eprintln!("skipped: release-mode acceptance test");
        return;
    }
    let parts: Vec<_> = (0..10).map(|_| patterns::sequencer(2, None)).collect();
    let grid = patterns::parallel("grid", &parts);
    let budget = 256 * 1024 * 1024;
    // Scratch under our own directory, not the system temp dir: a run
    // there would race `default_spill_placement_cleans_up`'s scan.
    let scratch = ScratchDir::new("million");
    let config = ReachConfig {
        max_states: 2_000_000,
        spill_dir: Some(scratch.0.clone()),
        ..spill_config(budget)
    };
    let (spilled, stats) = elaborate_with_stats(&grid, &config).expect("spill elaborates");
    assert_eq!(spilled.state_count(), 4usize.pow(10));
    assert!(
        spilled.state_count() > ReachConfig::default().materialize_limit,
        "the point of the exercise: bigger than the symbolic materialize limit"
    );
    let counters = stats.spill.expect("spill counters");
    assert!(
        counters.resident_peak <= budget as u64,
        "resident working set {} exceeds the {budget}-byte budget",
        counters.resident_peak
    );

    let packed =
        elaborate_with(&grid, &ReachConfig { max_states: 2_000_000, ..ReachConfig::default() })
            .expect("packed elaborates");
    assert_eq!(spilled.signals(), packed.signals());
    assert_eq!(spilled.state_count(), packed.state_count());
    assert_eq!(spilled.initial(), packed.initial());
    for s in spilled.states() {
        assert_eq!(spilled.code(s), packed.code(s), "code of state {}", s.0);
        assert_eq!(spilled.succ(s), packed.succ(s), "successors of state {}", s.0);
    }
}

/// Success path: after a run that demonstrably created spill files, the
/// caller's scratch directory is left empty (the per-run subdirectory
/// and everything in it are gone).
#[test]
fn spill_dir_is_empty_after_success() {
    let scratch = ScratchDir::new("ok");
    let stg = benchmark("mr0").expect("known benchmark");
    let config = ReachConfig { spill_dir: Some(scratch.0.clone()), ..spill_config(1024 * 1024) };
    let (_, stats) = elaborate_with_stats(&stg, &config).expect("elaborates");
    let counters = stats.spill.expect("spill counters");
    assert!(counters.files_created > 0, "mr0 at 1 MiB must spill: {counters:?}");
    assert_eq!(scratch.entries(), Vec::<PathBuf>::new(), "scratch files leaked");
}

/// Error path: a `StateLimit` abort mid-exploration — after spill files
/// were already written — must still tear the per-run directory down.
/// This is the regression test for the RAII manifest guard.
#[test]
fn spill_dir_is_empty_after_state_limit_error() {
    let scratch = ScratchDir::new("err");
    let stg = benchmark("mr0").expect("known benchmark");
    let config =
        ReachConfig { spill_dir: Some(scratch.0.clone()), max_states: 2048, ..spill_config(4096) };
    let err = elaborate_with(&stg, &config).expect_err("limit must trip");
    assert!(matches!(err, ReachError::StateLimit { limit: 2048, .. }), "{err:?}");
    assert_eq!(scratch.entries(), Vec::<PathBuf>::new(), "scratch files leaked on error");
}

/// A composed net big and slow enough (under a floor budget) that a
/// child `simap check` reliably survives past its first committed
/// checkpoint before we kill it.
fn kill_target_net(rings: usize) -> String {
    let parts: Vec<_> = (0..rings).map(|_| patterns::sequencer(2, None)).collect();
    simap::stg::write_g(&patterns::parallel("grid", &parts))
}

/// Spawns `simap check` on `spec` with per-level checkpointing into
/// `ckpt`, waits for the first committed `MANIFEST`, then SIGKILLs the
/// child at a pseudo-random later moment. Returns `true` when the kill
/// genuinely interrupted the run (a manifest survives to resume from);
/// `false` when the child won the race and finished (its success path
/// cleans the checkpoint away).
fn kill_check_mid_run(spec: &std::path::Path, ckpt: &std::path::Path, attempt: u32) -> bool {
    let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_simap"))
        .arg("check")
        .arg(spec)
        .args(["--strategy", "spill", "--memory-budget", "4096", "--shards", "4"])
        .args(["--checkpoint-every", "1"])
        .arg("--checkpoint-dir")
        .arg(ckpt)
        // Keep the child's spill scratch inside the test's directory:
        // SIGKILL never runs its RAII cleanup, so the crashed run's
        // scratch must die with the test instead of littering temp.
        .arg("--spill-dir")
        .arg(ckpt.parent().expect("checkpoint dir has a parent"))
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("spawn simap check");
    let manifest = ckpt.join("MANIFEST");
    let deadline = Instant::now() + Duration::from_secs(60);
    while !manifest.exists() && Instant::now() < deadline {
        if matches!(child.try_wait(), Ok(Some(_))) {
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    // Vary the kill level across attempts: a SplitMix-style mix of the
    // pid and the attempt number spreads the extra delay over 0..32ms,
    // so repeated runs die at different BFS levels.
    let mix = (u64::from(std::process::id()) ^ (u64::from(attempt) << 32))
        .wrapping_mul(0x9e37_79b9_7f4a_7c15);
    std::thread::sleep(Duration::from_millis(mix >> 59));
    let _ = child.kill();
    let _ = child.wait();
    manifest.exists()
}

/// The exploration config matching [`kill_check_mid_run`]'s flags: the
/// checkpoint's config digest covers `max_states`, `max_tokens` and
/// `shards`, so the resuming run must agree on those (budget and jobs
/// are free to differ — the result is byte-identical by contract). The
/// resumed run's scratch goes under `spill_dir`, never the system temp
/// dir, so it cannot race [`default_spill_placement_cleans_up`]'s scan.
fn kill_check_config(spill_dir: &std::path::Path) -> ReachConfig {
    ReachConfig { spill_dir: Some(spill_dir.to_path_buf()), ..spill_config(4096) }
}

/// The kill/resume acceptance case: a child `simap check` with
/// per-level checkpointing is SIGKILLed mid-exploration, the surviving
/// checkpoint is resumed in-process, and the finished graph must match
/// a cold packed elaboration state for state — same numbering, codes
/// and arcs — with the checkpoint directory cleaned on success.
#[test]
fn sigkilled_check_resumes_byte_identically() {
    let scratch = ScratchDir::new("kill");
    let ckpt_dir = scratch.0.join("ckpt");
    std::fs::create_dir_all(&ckpt_dir).expect("create checkpoint dir");
    let spec = scratch.0.join("grid.g");
    // Debug-mode spill is slow; a smaller grid still spans many levels.
    let source = kill_target_net(if cfg!(debug_assertions) { 5 } else { 8 });
    std::fs::write(&spec, &source).expect("write spec");
    let stg = parse_g(&source).expect("round-trips");

    let mut interrupted = false;
    for attempt in 0..5 {
        if kill_check_mid_run(&spec, &ckpt_dir, attempt) {
            interrupted = true;
            break;
        }
    }
    assert!(interrupted, "could not SIGKILL `simap check` mid-run in 5 attempts");

    let config = ReachConfig { resume: Some(ckpt_dir.clone()), ..kill_check_config(&scratch.0) };
    let (resumed, stats) = elaborate_with_stats(&stg, &config).expect("resume elaborates");
    let counters = stats.spill.expect("spill counters");
    assert!(counters.resume_level >= 1, "resume must continue a checkpoint: {counters:?}");

    let oracle = elaborate_with(&stg, &ReachConfig::default()).expect("packed elaborates");
    assert_eq!(resumed.signals(), oracle.signals());
    assert_eq!(resumed.state_count(), oracle.state_count());
    assert_eq!(resumed.initial(), oracle.initial());
    for s in resumed.states() {
        assert_eq!(resumed.code(s), oracle.code(s), "code of state {}", s.0);
        assert_eq!(resumed.succ(s), oracle.succ(s), "successors of state {}", s.0);
        assert_eq!(resumed.pred(s), oracle.pred(s), "predecessors of state {}", s.0);
    }
    assert_eq!(
        std::fs::read_dir(&ckpt_dir).expect("checkpoint dir readable").count(),
        0,
        "a successful resume must clean the checkpoint away"
    );
}

/// Workspace-level corruption tolerance: a checkpoint left by a killed
/// child refuses to resume after a single bit flip in its manifest —
/// with a diagnostic naming the artifact — refuses under a different
/// shard count — naming both config digests — and still resumes cleanly
/// once the original bytes are restored (validation never destroys the
/// checkpoint).
#[test]
fn corrupted_or_mismatched_checkpoints_are_refused_then_recover() {
    let scratch = ScratchDir::new("corrupt");
    let ckpt_dir = scratch.0.join("ckpt");
    std::fs::create_dir_all(&ckpt_dir).expect("create checkpoint dir");
    let spec = scratch.0.join("grid.g");
    let source = kill_target_net(if cfg!(debug_assertions) { 5 } else { 8 });
    std::fs::write(&spec, &source).expect("write spec");
    let stg = parse_g(&source).expect("round-trips");

    let mut interrupted = false;
    for attempt in 0..5 {
        if kill_check_mid_run(&spec, &ckpt_dir, attempt) {
            interrupted = true;
            break;
        }
    }
    assert!(interrupted, "could not SIGKILL `simap check` mid-run in 5 attempts");

    let resume = ReachConfig { resume: Some(ckpt_dir.clone()), ..kill_check_config(&scratch.0) };
    let manifest = ckpt_dir.join("MANIFEST");
    let pristine = std::fs::read(&manifest).expect("manifest readable");

    // One flipped bit in the middle of the manifest: refused by name.
    let mut bent = pristine.clone();
    let mid = bent.len() / 2;
    bent[mid] ^= 0x10;
    std::fs::write(&manifest, &bent).expect("rewrite manifest");
    let err = elaborate_with(&stg, &resume).expect_err("corrupt manifest must refuse");
    let text = err.to_string();
    assert!(
        matches!(err, ReachError::Checkpoint { .. }) && text.contains("MANIFEST"),
        "diagnostic must name the corrupt artifact: {text}"
    );

    // A mismatched exploration config (different shard count): refused
    // naming both digests so the operator sees what disagrees.
    std::fs::write(&manifest, &pristine).expect("restore manifest");
    let mismatched = ReachConfig { shards: 8, ..resume.clone() };
    let err = elaborate_with(&stg, &mismatched).expect_err("config mismatch must refuse");
    let text = err.to_string();
    assert!(
        matches!(err, ReachError::Checkpoint { .. })
            && text.contains("digest")
            && text.matches("0x").count() == 2,
        "diagnostic must name both config digests: {text}"
    );

    // Validation is non-destructive: the untouched checkpoint resumes.
    let (resumed, stats) = elaborate_with_stats(&stg, &resume).expect("pristine resume");
    assert!(stats.spill.expect("spill counters").resume_level >= 1);
    let oracle = elaborate_with(&stg, &ReachConfig::default()).expect("packed elaborates");
    assert_eq!(resumed.state_count(), oracle.state_count());
    for s in resumed.states() {
        assert_eq!(resumed.succ(s), oracle.succ(s), "successors of state {}", s.0);
    }
}

/// The default placement (no `spill_dir`) works and reports counters;
/// nothing of ours is left in the system temp dir afterwards. This is
/// the only test in this binary that spills into the system temp dir —
/// every other one passes its own `spill_dir` — so a concurrently
/// running test cannot show up in the scan.
#[test]
fn default_spill_placement_cleans_up() {
    let stg = benchmark("mr0").expect("known benchmark");
    let (_, stats) = elaborate_with_stats(&stg, &spill_config(1024 * 1024)).expect("elaborates");
    let counters = stats.spill.expect("spill counters");
    assert!(counters.spilled_bytes > 0);
    let leftovers: Vec<_> = std::fs::read_dir(std::env::temp_dir())
        .expect("temp dir readable")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with(&format!("simap-spill-{}-", std::process::id())))
        .collect();
    assert_eq!(leftovers, Vec::<String>::new(), "run directories leaked in temp");
}
