//! Service metrics: lock-free counters behind `GET /metrics` — request
//! and response tallies, job-queue accounting, spill-engine counters and
//! per-stage latency histograms.
//!
//! Everything is an atomic, so observers on worker threads and the
//! render path on connection threads never contend on a lock. The
//! histogram buckets are powers of two in microseconds: bucket `i`
//! counts stage executions with `2^(i-1) <= elapsed_us < 2^i` (bucket 0
//! holds sub-microsecond runs), rendered as `[upper_bound_us, count]`
//! pairs for the nonzero buckets only.

use simap_core::Stage;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// The service endpoints tallied individually (anything else lands in
/// `Other`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Endpoint {
    Synthesize,
    Stg,
    Batch,
    Benchmarks,
    Jobs,
    Healthz,
    Metrics,
    Other,
}

const ENDPOINTS: [(Endpoint, &str); 8] = [
    (Endpoint::Synthesize, "synthesize"),
    (Endpoint::Stg, "stg"),
    (Endpoint::Batch, "batch"),
    (Endpoint::Benchmarks, "benchmarks"),
    (Endpoint::Jobs, "jobs"),
    (Endpoint::Healthz, "healthz"),
    (Endpoint::Metrics, "metrics"),
    (Endpoint::Other, "other"),
];

const STATUSES: [u16; 12] = [200, 202, 400, 401, 403, 404, 405, 413, 422, 429, 500, 503];

/// The pipeline stages, in flow order, for histogram indexing.
const STAGES: [(Stage, &str); 7] = [
    (Stage::Configure, "configure"),
    (Stage::Load, "load"),
    (Stage::Elaborate, "elaborate"),
    (Stage::Covers, "covers"),
    (Stage::Decompose, "decompose"),
    (Stage::Map, "map"),
    (Stage::Verify, "verify"),
];

pub(crate) fn stage_index(stage: Stage) -> usize {
    STAGES.iter().position(|(s, _)| *s == stage).expect("every stage is listed")
}

const BUCKETS: usize = 32;

#[derive(Default)]
struct StageHist {
    count: AtomicU64,
    total_us: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

/// Point-in-time queue and worker gauges sampled by the render path
/// (the queue's depth and the job table's expiry counter live outside
/// [`Metrics`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct QueueGauges {
    pub(crate) depth: usize,
    pub(crate) limit: usize,
    pub(crate) workers: usize,
    pub(crate) alive: usize,
    pub(crate) expired: u64,
}

/// All counters of one server instance.
#[derive(Default)]
pub(crate) struct Metrics {
    requests_total: AtomicU64,
    endpoints: [AtomicU64; ENDPOINTS.len()],
    statuses: [AtomicU64; STATUSES.len()],
    pub(crate) jobs_submitted: AtomicU64,
    pub(crate) jobs_completed: AtomicU64,
    pub(crate) jobs_failed: AtomicU64,
    pub(crate) jobs_rejected: AtomicU64,
    stages: [StageHist; STAGES.len()],
    // Spill-strategy gauges, accumulated from the reachability counters
    // of completed jobs (zero until a job runs the spill engine).
    // Clients cannot request checkpointing over the API, but the
    // operator's base configuration can — so the checkpoint gauges are
    // surfaced here too.
    spill_runs: AtomicU64,
    spill_spilled_bytes: AtomicU64,
    spill_files_created: AtomicU64,
    spill_resident_peak: AtomicU64,
    spill_checkpoints_written: AtomicU64,
    spill_checkpoint_bytes: AtomicU64,
    spill_resumed_runs: AtomicU64,
}

impl Metrics {
    pub(crate) fn count_request(&self, endpoint: Endpoint) {
        self.requests_total.fetch_add(1, Ordering::Relaxed);
        let i = ENDPOINTS.iter().position(|(e, _)| *e == endpoint).expect("listed");
        self.endpoints[i].fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_status(&self, status: u16) {
        if let Some(i) = STATUSES.iter().position(|&s| s == status) {
            self.statuses[i].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records one completed stage execution in its latency histogram.
    pub(crate) fn record_stage(&self, stage: Stage, elapsed: Duration) {
        let hist = &self.stages[stage_index(stage)];
        let us = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        hist.count.fetch_add(1, Ordering::Relaxed);
        hist.total_us.fetch_add(us, Ordering::Relaxed);
        let bucket = if us == 0 { 0 } else { (64 - us.leading_zeros() as usize).min(BUCKETS - 1) };
        hist.buckets[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// Accumulates the spill counters of one completed job's
    /// elaboration. `resident_peak` keeps the maximum across jobs (a
    /// high-water gauge); everything else is a running sum.
    pub(crate) fn record_spill(&self, c: &simap_stg::SpillCounters) {
        self.spill_runs.fetch_add(1, Ordering::Relaxed);
        self.spill_spilled_bytes.fetch_add(c.spilled_bytes, Ordering::Relaxed);
        self.spill_files_created.fetch_add(u64::from(c.files_created), Ordering::Relaxed);
        self.spill_resident_peak.fetch_max(c.resident_peak, Ordering::Relaxed);
        self.spill_checkpoints_written
            .fetch_add(u64::from(c.checkpoints_written), Ordering::Relaxed);
        self.spill_checkpoint_bytes.fetch_add(c.checkpoint_bytes, Ordering::Relaxed);
        if c.resume_level > 0 {
            self.spill_resumed_runs.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Renders the full metrics document (one line, trailing newline).
    /// `gateway` is the pre-rendered gateway section (one JSON object,
    /// from `Gateway::metrics_json`).
    pub(crate) fn render(&self, queue: QueueGauges, gateway: &str) -> String {
        let QueueGauges { depth: queue_depth, limit: queue_limit, workers, alive, expired } = queue;
        use std::fmt::Write as _;
        let mut out = String::from("{\"requests\":{\"total\":");
        let _ = write!(out, "{}", self.requests_total.load(Ordering::Relaxed));
        out.push_str(",\"by_endpoint\":{");
        for (i, (_, name)) in ENDPOINTS.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{}", self.endpoints[i].load(Ordering::Relaxed));
        }
        out.push_str("},\"by_status\":{");
        for (i, status) in STATUSES.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{status}\":{}", self.statuses[i].load(Ordering::Relaxed));
        }
        let _ = write!(
            out,
            "}}}},\"queue\":{{\"depth\":{queue_depth},\"limit\":{queue_limit},\
             \"workers\":{workers},\"workers_alive\":{alive},\"submitted\":{},\
             \"completed\":{},\"failed\":{},\"rejected\":{},\"expired\":{expired}}}",
            self.jobs_submitted.load(Ordering::Relaxed),
            self.jobs_completed.load(Ordering::Relaxed),
            self.jobs_failed.load(Ordering::Relaxed),
            self.jobs_rejected.load(Ordering::Relaxed),
        );
        let _ = write!(
            out,
            ",\"spill\":{{\"runs\":{},\"spilled_bytes\":{},\"files_created\":{},\
             \"resident_peak\":{},\"checkpoints_written\":{},\"checkpoint_bytes\":{},\
             \"resumed_runs\":{}}}",
            self.spill_runs.load(Ordering::Relaxed),
            self.spill_spilled_bytes.load(Ordering::Relaxed),
            self.spill_files_created.load(Ordering::Relaxed),
            self.spill_resident_peak.load(Ordering::Relaxed),
            self.spill_checkpoints_written.load(Ordering::Relaxed),
            self.spill_checkpoint_bytes.load(Ordering::Relaxed),
            self.spill_resumed_runs.load(Ordering::Relaxed),
        );
        let _ = write!(out, ",\"gateway\":{gateway}");
        out.push_str(",\"stage_latency_us\":{");
        let mut first = true;
        for (i, (_, name)) in STAGES.iter().enumerate() {
            let hist = &self.stages[i];
            let count = hist.count.load(Ordering::Relaxed);
            if count == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "\"{name}\":{{\"count\":{count},\"total\":{},\"histogram\":[",
                hist.total_us.load(Ordering::Relaxed)
            );
            let mut first_bucket = true;
            for (b, counter) in hist.buckets.iter().enumerate() {
                let n = counter.load(Ordering::Relaxed);
                if n == 0 {
                    continue;
                }
                if !first_bucket {
                    out.push(',');
                }
                first_bucket = false;
                let bound = 1u64.checked_shl(b as u32).unwrap_or(u64::MAX);
                let _ = write!(out, "[{bound},{n}]");
            }
            out.push_str("]}");
        }
        out.push_str("}}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_is_valid_json_and_counts_tally() {
        let m = Metrics::default();
        m.count_request(Endpoint::Synthesize);
        m.count_request(Endpoint::Synthesize);
        m.count_request(Endpoint::Healthz);
        m.count_status(200);
        m.count_status(429);
        m.record_stage(Stage::Elaborate, Duration::from_micros(100));
        m.record_stage(Stage::Elaborate, Duration::from_micros(3));
        m.record_stage(Stage::Verify, Duration::from_secs(1));
        m.count_status(401);
        let doc = m.render(
            QueueGauges { depth: 1, limit: 8, workers: 4, alive: 4, expired: 7 },
            "{\"auth_mode\":\"anonymous\"}",
        );
        let parsed = simap_core::json::parse(doc.trim_end()).expect("valid JSON");
        let requests = parsed.get("requests").unwrap();
        assert_eq!(requests.get("total").unwrap().as_usize(), Some(3));
        assert_eq!(
            requests.get("by_endpoint").unwrap().get("synthesize").unwrap().as_usize(),
            Some(2)
        );
        assert_eq!(requests.get("by_status").unwrap().get("429").unwrap().as_usize(), Some(1));
        assert_eq!(requests.get("by_status").unwrap().get("401").unwrap().as_usize(), Some(1));
        assert_eq!(parsed.get("queue").unwrap().get("limit").unwrap().as_usize(), Some(8));
        assert_eq!(parsed.get("queue").unwrap().get("workers_alive").unwrap().as_usize(), Some(4));
        assert_eq!(parsed.get("queue").unwrap().get("expired").unwrap().as_usize(), Some(7));
        assert_eq!(
            parsed.get("gateway").unwrap().get("auth_mode").unwrap().as_str(),
            Some("anonymous")
        );
        let elaborate = parsed.get("stage_latency_us").unwrap().get("elaborate").unwrap();
        assert_eq!(elaborate.get("count").unwrap().as_usize(), Some(2));
        assert_eq!(elaborate.get("total").unwrap().as_usize(), Some(103));
        assert_eq!(elaborate.get("histogram").unwrap().as_array().unwrap().len(), 2);
        assert!(parsed.get("stage_latency_us").unwrap().get("decompose").is_none());
    }

    #[test]
    fn spill_gauges_accumulate_and_track_resumes() {
        let m = Metrics::default();
        let cold = simap_stg::SpillCounters {
            spilled_bytes: 1000,
            files_created: 3,
            resident_peak: 4096,
            table_bytes: 0,
            budget: 8192,
            shards: 1,
            checkpoints_written: 2,
            checkpoint_bytes: 500,
            resume_level: 0,
        };
        m.record_spill(&cold);
        m.record_spill(&simap_stg::SpillCounters { resident_peak: 2048, resume_level: 4, ..cold });
        let doc =
            m.render(QueueGauges { depth: 0, limit: 1, workers: 1, alive: 1, expired: 0 }, "{}");
        let parsed = simap_core::json::parse(doc.trim_end()).expect("valid JSON");
        let spill = parsed.get("spill").unwrap();
        assert_eq!(spill.get("runs").unwrap().as_usize(), Some(2));
        assert_eq!(spill.get("spilled_bytes").unwrap().as_usize(), Some(2000));
        assert_eq!(spill.get("files_created").unwrap().as_usize(), Some(6));
        // resident_peak is a high-water mark, not a sum.
        assert_eq!(spill.get("resident_peak").unwrap().as_usize(), Some(4096));
        assert_eq!(spill.get("checkpoints_written").unwrap().as_usize(), Some(4));
        assert_eq!(spill.get("checkpoint_bytes").unwrap().as_usize(), Some(1000));
        assert_eq!(spill.get("resumed_runs").unwrap().as_usize(), Some(1));
    }

    #[test]
    fn bucket_bounds_are_powers_of_two() {
        let m = Metrics::default();
        // 100us lands in the bucket with upper bound 128.
        m.record_stage(Stage::Map, Duration::from_micros(100));
        let doc =
            m.render(QueueGauges { depth: 0, limit: 1, workers: 1, alive: 1, expired: 0 }, "{}");
        assert!(
            doc.contains("\"map\":{\"count\":1,\"total\":100,\"histogram\":[[128,1]]}"),
            "{doc}"
        );
    }
}
