//! Per-client token-bucket rate limiting and in-flight job quotas.
//!
//! Each client gets one bucket: capacity = one second's worth of its
//! tier-scaled rate (burst), refilled continuously. A request with no
//! token is `429` with a `Retry-After` estimating when the next token
//! lands. Independently, a client may not hold more than its tier-scaled
//! in-flight budget of queued + running jobs — the quota that stops one
//! client from filling the whole job queue and starving the rest, which
//! is the point of the gateway.
//!
//! Time comes through the [`Clock`] trait so the bucket timing is unit
//! testable without sleeping; production uses `Instant`.

use super::middleware::{Rejection, RequestContext};
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// A monotonic time source (a trait so tests can drive it manually).
pub(crate) trait Clock: Send + Sync {
    /// Time elapsed since an arbitrary fixed origin.
    fn now(&self) -> Duration;
}

/// The production clock: time since the limiter or breaker was built.
impl Clock for Instant {
    fn now(&self) -> Duration {
        self.elapsed()
    }
}

/// A manually driven clock for deterministic tests, in milliseconds.
#[cfg(test)]
impl Clock for std::sync::Arc<std::sync::atomic::AtomicU64> {
    fn now(&self) -> Duration {
        Duration::from_millis(self.load(std::sync::atomic::Ordering::SeqCst))
    }
}

struct ClientState {
    tokens: f64,
    last_refill: Duration,
    inflight: usize,
}

/// The rate-limiting layer of the gateway, checked after auth.
pub(crate) struct RateLimiter {
    /// Base requests/sec of the `free` tier; `0.0` disables rate
    /// limiting entirely.
    rate: f64,
    /// Base in-flight job budget of the `free` tier; `0` disables the
    /// quota.
    max_inflight: usize,
    clock: Box<dyn Clock>,
    clients: Mutex<HashMap<String, ClientState>>,
}

impl RateLimiter {
    /// A limiter with the given base budgets on the production clock.
    pub(crate) fn new(rate: f64, max_inflight: usize) -> Self {
        RateLimiter::with_clock(rate, max_inflight, Box::new(Instant::now()))
    }

    /// A limiter on an explicit clock (tests).
    pub(crate) fn with_clock(rate: f64, max_inflight: usize, clock: Box<dyn Clock>) -> Self {
        RateLimiter { rate, max_inflight, clock, clients: Mutex::new(HashMap::new()) }
    }

    /// A job for `client` entered the queue; counts against its
    /// in-flight quota until [`RateLimiter::job_finished`].
    pub(crate) fn job_started(&self, client: &str) {
        let mut clients = self.clients.lock().expect("limiter lock");
        let now = self.clock.now();
        let state = clients.entry(client.to_string()).or_insert_with(|| ClientState {
            tokens: 0.0,
            last_refill: now,
            inflight: 0,
        });
        state.inflight += 1;
    }

    /// A job for `client` left the queue (completed, failed, or was
    /// discarded before running).
    pub(crate) fn job_finished(&self, client: &str) {
        let mut clients = self.clients.lock().expect("limiter lock");
        if let Some(state) = clients.get_mut(client) {
            state.inflight = state.inflight.saturating_sub(1);
        }
    }

    /// The current in-flight count of `client` (tests, metrics).
    pub(crate) fn inflight(&self, client: &str) -> usize {
        self.clients.lock().expect("limiter lock").get(client).map_or(0, |s| s.inflight)
    }

    /// Meters one work request against its client's in-flight quota and
    /// token bucket; other requests pass unrecorded.
    ///
    /// # Errors
    /// `429` + `Retry-After` for a full quota or an empty bucket.
    pub(crate) fn check(&self, ctx: &mut RequestContext) -> Result<(), Rejection> {
        if !ctx.queues_work {
            return Ok(());
        }
        let Some(multiplier) = ctx.tier.multiplier() else {
            ctx.record("ratelimit", "allow");
            return Ok(()); // unlimited tier
        };
        let rate = self.rate * multiplier;
        let burst = rate.max(1.0);
        let inflight_limit = (self.max_inflight as f64 * multiplier).ceil() as usize;
        let now = self.clock.now();

        let mut clients = self.clients.lock().expect("limiter lock");
        let state = clients.entry(ctx.client.clone()).or_insert_with(|| ClientState {
            // A fresh client starts with a full burst allowance.
            tokens: burst,
            last_refill: now,
            inflight: 0,
        });

        if self.max_inflight > 0 && state.inflight >= inflight_limit {
            let inflight = state.inflight;
            drop(clients);
            ctx.record("ratelimit", "reject");
            return Err(Rejection {
                status: 429,
                message: format!(
                    "client `{}` has {inflight} jobs in flight (limit {inflight_limit})",
                    ctx.client
                ),
                retry_after: Some(1),
            });
        }

        if self.rate > 0.0 {
            let elapsed = now.saturating_sub(state.last_refill);
            state.tokens = (state.tokens + elapsed.as_secs_f64() * rate).min(burst);
            state.last_refill = now;
            if state.tokens < 1.0 {
                let wait = (1.0 - state.tokens) / rate;
                drop(clients);
                ctx.record("ratelimit", "reject");
                return Err(Rejection {
                    status: 429,
                    message: format!(
                        "client `{}` (tier {}) exceeded {rate:.1} requests/sec",
                        ctx.client,
                        ctx.tier.as_str()
                    ),
                    retry_after: Some(wait.ceil().max(1.0) as u64),
                });
            }
            state.tokens -= 1.0;
        }
        drop(clients);
        ctx.record("ratelimit", "allow");
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gateway::middleware::Tier;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn ctx(client: &str, tier: Tier) -> RequestContext {
        let mut ctx = RequestContext::new(None, true);
        ctx.client = client.to_string();
        ctx.tier = tier;
        ctx
    }

    fn advance(clock: &Arc<AtomicU64>, millis: u64) {
        clock.fetch_add(millis, Ordering::SeqCst);
    }

    #[test]
    fn token_bucket_meters_and_refills_on_the_mock_clock() {
        let clock = Arc::new(AtomicU64::new(0));
        // 2 req/s free tier: burst of 2, one token back every 500ms.
        let limiter = RateLimiter::with_clock(2.0, 0, Box::new(clock.clone()));
        let mut c = ctx("alice", Tier::Free);
        assert!(limiter.check(&mut c).is_ok());
        assert!(limiter.check(&mut c).is_ok());
        let r = limiter.check(&mut c).unwrap_err();
        assert_eq!(r.status, 429);
        assert_eq!(r.retry_after, Some(1), "full token is 500ms away, rounded up");
        // 499ms later: still short of one token.
        advance(&clock, 499);
        assert!(limiter.check(&mut c).is_err());
        // 2ms more: refilled past 1.0.
        advance(&clock, 2);
        assert!(limiter.check(&mut c).is_ok());
        // A long idle period refills to the burst cap, not beyond.
        advance(&clock, 3_600_000);
        assert!(limiter.check(&mut c).is_ok());
        assert!(limiter.check(&mut c).is_ok());
        assert!(limiter.check(&mut c).is_err(), "burst stays 2");
    }

    #[test]
    fn tiers_scale_rate_and_clients_are_independent() {
        let clock = Arc::new(AtomicU64::new(0));
        let limiter = RateLimiter::with_clock(1.0, 0, Box::new(clock.clone()));
        // Standard tier: 4x the base -> burst 4.
        let mut bob = ctx("bob", Tier::Standard);
        for _ in 0..4 {
            assert!(limiter.check(&mut bob).is_ok());
        }
        assert!(limiter.check(&mut bob).is_err());
        // Bob being dry does not affect Alice.
        let mut alice = ctx("alice", Tier::Free);
        assert!(limiter.check(&mut alice).is_ok());
        // Unlimited tier never meters.
        let mut carol = ctx("carol", Tier::Unlimited);
        for _ in 0..100 {
            assert!(limiter.check(&mut carol).is_ok());
        }
    }

    #[test]
    fn inflight_quota_gates_until_jobs_finish() {
        let limiter = RateLimiter::new(0.0, 2); // no rate limit, quota of 2
        let mut c = ctx("alice", Tier::Free);
        assert!(limiter.check(&mut c).is_ok());
        limiter.job_started("alice");
        limiter.job_started("alice");
        let r = limiter.check(&mut c).unwrap_err();
        assert_eq!((r.status, r.retry_after), (429, Some(1)));
        assert!(r.message.contains("2 jobs in flight"), "{}", r.message);
        limiter.job_finished("alice");
        assert!(limiter.check(&mut c).is_ok());
        assert_eq!(limiter.inflight("alice"), 1);
    }

    #[test]
    fn disabled_budgets_never_reject() {
        let limiter = RateLimiter::new(0.0, 0);
        let mut c = ctx("alice", Tier::Free);
        for _ in 0..1000 {
            assert!(limiter.check(&mut c).is_ok());
        }
        // Non-work routes skip the limiter entirely.
        let strict = RateLimiter::new(0.001, 1);
        let mut poll = RequestContext::new(None, false);
        for _ in 0..10 {
            assert!(strict.check(&mut poll).is_ok());
        }
    }
}
