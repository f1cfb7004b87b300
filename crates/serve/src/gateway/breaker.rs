//! Circuit breaker over queue saturation and worker failures.
//!
//! The breaker watches the submit path's distress signals — queue-full
//! rejections and worker job failures — in a sliding time window. When
//! the window accumulates `threshold` signals the breaker trips *open*
//! and answers every work request `503` with a `Retry-After`, shedding
//! load instead of letting callers pile onto a saturated queue. After a
//! cooldown it goes *half-open* and admits exactly one probe request;
//! the probe's fate (queue accepted it, or not) decides whether the
//! breaker closes again or re-opens for another cooldown.
//!
//! State transitions are driven by the same injectable clock as the rate
//! limiter ([`super::ratelimit::Clock`]) so every transition is unit
//! testable without sleeping.

use super::middleware::{Rejection, RequestContext};
use super::ratelimit::Clock;
use super::Outcome;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// The classic three breaker states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BreakerState {
    /// Healthy: requests flow, failures are tallied.
    Closed,
    /// Tripped: all work requests are shed with `503` until cooldown.
    Open,
    /// Cooldown elapsed: one probe request is admitted to test the water.
    HalfOpen,
}

impl BreakerState {
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

struct BreakerInner {
    state: BreakerState,
    /// Timestamps (clock time) of recent failure signals, oldest first.
    failures: VecDeque<Duration>,
    /// When the breaker last tripped open (clock time).
    opened_at: Duration,
    /// Whether the half-open probe slot is taken.
    probe_outstanding: bool,
}

/// The circuit-breaker layer of the gateway, checked last.
pub(crate) struct Breaker {
    /// Failure signals within `window` that trip the breaker.
    threshold: usize,
    /// Sliding window over which failures are counted.
    window: Duration,
    /// How long the breaker stays open before probing.
    cooldown: Duration,
    clock: Box<dyn Clock>,
    inner: Mutex<BreakerInner>,
    /// Times the breaker tripped open (monotone counter for /metrics).
    opened_total: AtomicU64,
    /// Requests shed with `503` while open.
    shed_total: AtomicU64,
}

impl Breaker {
    /// A breaker on the production clock.
    pub(crate) fn new(threshold: usize, window: Duration, cooldown: Duration) -> Self {
        Breaker::with_clock(threshold, window, cooldown, Box::new(std::time::Instant::now()))
    }

    /// A breaker on an explicit clock (tests).
    pub(crate) fn with_clock(
        threshold: usize,
        window: Duration,
        cooldown: Duration,
        clock: Box<dyn Clock>,
    ) -> Self {
        Breaker {
            threshold,
            window,
            cooldown,
            clock,
            inner: Mutex::new(BreakerInner {
                state: BreakerState::Closed,
                failures: VecDeque::new(),
                opened_at: Duration::ZERO,
                probe_outstanding: false,
            }),
            opened_total: AtomicU64::new(0),
            shed_total: AtomicU64::new(0),
        }
    }

    /// The current state (healthz, /metrics). A breaker that is `Open`
    /// past its cooldown reports `HalfOpen`: that is what the next
    /// request will experience.
    pub(crate) fn state(&self) -> BreakerState {
        let now = self.clock.now();
        let inner = self.inner.lock().expect("breaker lock");
        match inner.state {
            BreakerState::Open if now.saturating_sub(inner.opened_at) >= self.cooldown => {
                BreakerState::HalfOpen
            }
            state => state,
        }
    }

    /// `(opened_total, shed_total)` counters for /metrics.
    pub(crate) fn counters(&self) -> (u64, u64) {
        (self.opened_total.load(Ordering::Relaxed), self.shed_total.load(Ordering::Relaxed))
    }

    /// Records one distress signal (queue-full rejection or worker job
    /// failure) and trips the breaker if the window fills up.
    pub(crate) fn record_failure(&self) {
        if self.threshold == 0 {
            return; // breaker disabled
        }
        let now = self.clock.now();
        let mut inner = self.inner.lock().expect("breaker lock");
        if inner.state != BreakerState::Closed {
            return; // already open; signals while shedding don't re-count
        }
        inner.failures.push_back(now);
        let horizon = now.saturating_sub(self.window);
        while inner.failures.front().is_some_and(|&t| t < horizon) {
            inner.failures.pop_front();
        }
        if inner.failures.len() >= self.threshold {
            inner.state = BreakerState::Open;
            inner.opened_at = now;
            inner.failures.clear();
            inner.probe_outstanding = false;
            self.opened_total.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Settles the half-open probe by where it ended up: a probe the
    /// queue accepted closes the breaker, one that met a full queue
    /// re-opens it for another cooldown, and one that never reached the
    /// queue (malformed body, result-cache hit, shutdown) frees the slot
    /// without a verdict, so the next work request probes instead.
    pub(crate) fn settle_probe(&self, outcome: Outcome) {
        let now = self.clock.now();
        let mut inner = self.inner.lock().expect("breaker lock");
        inner.probe_outstanding = false;
        match outcome {
            Outcome::Enqueued => {
                inner.state = BreakerState::Closed;
                inner.failures.clear();
            }
            Outcome::QueueFull => {
                inner.state = BreakerState::Open;
                inner.opened_at = now;
                self.opened_total.fetch_add(1, Ordering::Relaxed);
            }
            Outcome::NotEnqueued => {}
        }
    }

    fn seconds_until_probe(&self, opened_at: Duration, now: Duration) -> u64 {
        let remaining = (opened_at + self.cooldown).saturating_sub(now);
        (remaining.as_secs_f64().ceil() as u64).max(1)
    }

    /// Admits one work request while closed, sheds it while open, and
    /// admits exactly one half-open probe (flagged on the context) once
    /// the cooldown has passed. Other requests pass unrecorded.
    ///
    /// # Errors
    /// `503` + `Retry-After` while open, or while the probe slot is taken.
    pub(crate) fn check(&self, ctx: &mut RequestContext) -> Result<(), Rejection> {
        if !ctx.queues_work || self.threshold == 0 {
            return Ok(());
        }
        let now = self.clock.now();
        let mut inner = self.inner.lock().expect("breaker lock");
        match inner.state {
            BreakerState::Closed => {
                drop(inner);
                ctx.record("breaker", "allow");
                Ok(())
            }
            BreakerState::Open if now.saturating_sub(inner.opened_at) < self.cooldown => {
                let retry = self.seconds_until_probe(inner.opened_at, now);
                drop(inner);
                self.shed_total.fetch_add(1, Ordering::Relaxed);
                ctx.record("breaker", "reject");
                Err(Rejection {
                    status: 503,
                    message: "service shedding load (circuit breaker open)".to_string(),
                    retry_after: Some(retry),
                })
            }
            // Cooldown elapsed (or already half-open): one probe slot.
            BreakerState::Open | BreakerState::HalfOpen => {
                inner.state = BreakerState::HalfOpen;
                if inner.probe_outstanding {
                    drop(inner);
                    self.shed_total.fetch_add(1, Ordering::Relaxed);
                    ctx.record("breaker", "reject");
                    Err(Rejection {
                        status: 503,
                        message: "service probing recovery (circuit breaker half-open)".to_string(),
                        retry_after: Some(1),
                    })
                } else {
                    inner.probe_outstanding = true;
                    drop(inner);
                    ctx.breaker_probe = true;
                    ctx.record("breaker", "probe");
                    Ok(())
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    fn breaker(threshold: usize) -> (Breaker, Arc<AtomicU64>) {
        let time = Arc::new(AtomicU64::new(0));
        let b = Breaker::with_clock(
            threshold,
            Duration::from_secs(10),
            Duration::from_secs(5),
            Box::new(time.clone()),
        );
        (b, time)
    }

    fn work_ctx() -> RequestContext {
        RequestContext::new(None, true)
    }

    #[test]
    fn trips_open_after_threshold_failures_in_window() {
        let (b, time) = breaker(3);
        assert_eq!(b.state(), BreakerState::Closed);
        b.record_failure();
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Closed, "below threshold");
        // Old failures age out of the 10s window before the third lands.
        time.store(11_000, Ordering::SeqCst);
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Closed, "window slid past the first two");
        b.record_failure();
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.counters().0, 1);
    }

    #[test]
    fn sheds_with_503_and_retry_after_while_open() {
        let (b, time) = breaker(1);
        b.record_failure();
        let mut ctx = work_ctx();
        let r = b.check(&mut ctx).unwrap_err();
        assert_eq!(r.status, 503);
        assert_eq!(r.retry_after, Some(5), "full cooldown remains");
        time.store(3_500, Ordering::SeqCst);
        let r = b.check(&mut work_ctx()).unwrap_err();
        assert_eq!(r.retry_after, Some(2), "1.5s left, rounded up");
        assert_eq!(b.counters().1, 2, "two requests shed");
        // Non-work routes are never shed.
        let mut poll = RequestContext::new(None, false);
        assert!(b.check(&mut poll).is_ok());
    }

    #[test]
    fn half_open_admits_one_probe_and_its_success_closes() {
        let (b, time) = breaker(1);
        b.record_failure();
        time.store(5_000, Ordering::SeqCst); // cooldown elapsed
        assert_eq!(b.state(), BreakerState::HalfOpen);
        let mut probe = work_ctx();
        assert!(b.check(&mut probe).is_ok());
        assert!(probe.breaker_probe);
        // The probe slot is taken: a second request is still shed.
        let r = b.check(&mut work_ctx()).unwrap_err();
        assert_eq!((r.status, r.retry_after), (503, Some(1)));
        b.settle_probe(Outcome::Enqueued);
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.check(&mut work_ctx()).is_ok());
    }

    #[test]
    fn failed_probe_reopens_for_another_cooldown() {
        let (b, time) = breaker(1);
        b.record_failure();
        time.store(5_000, Ordering::SeqCst);
        let mut probe = work_ctx();
        assert!(b.check(&mut probe).is_ok());
        b.settle_probe(Outcome::QueueFull);
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.counters().0, 2, "re-opening counts as a trip");
        assert!(b.check(&mut work_ctx()).is_err());
        // And the next cooldown yields a fresh probe slot.
        time.store(10_000, Ordering::SeqCst);
        let mut probe = work_ctx();
        assert!(b.check(&mut probe).is_ok());
        assert!(probe.breaker_probe);
    }

    #[test]
    fn abandoned_probe_frees_the_slot_without_a_verdict() {
        let (b, time) = breaker(1);
        b.record_failure();
        time.store(5_000, Ordering::SeqCst);
        let mut probe = work_ctx();
        assert!(b.check(&mut probe).is_ok());
        b.settle_probe(Outcome::NotEnqueued);
        assert_eq!(b.state(), BreakerState::HalfOpen, "no verdict, no transition");
        // The slot is free again: the next request becomes the probe.
        let mut next = work_ctx();
        assert!(b.check(&mut next).is_ok());
        assert!(next.breaker_probe);
    }

    #[test]
    fn zero_threshold_disables_the_breaker() {
        let (b, _) = breaker(0);
        for _ in 0..100 {
            b.record_failure();
        }
        assert!(b.check(&mut work_ctx()).is_ok());
        assert_eq!(b.state(), BreakerState::Closed);
    }
}
