//! The multi-tenant gateway in front of the `simap serve` job queue.
//!
//! [`Gateway::admit`] checks every request that reaches a protected
//! route against three layers in a fixed order — authentication and
//! authorization ([`auth`]), per-client rate limiting and in-flight
//! quotas ([`ratelimit`]), and a circuit breaker over queue saturation
//! and worker failures ([`breaker`]) — and the first rejection wins.
//! Admitted work requests then consult a persistent content-addressed
//! result cache ([`rescache`]) before anything is enqueued: a hit answers
//! byte-identically from disk, even across server restarts.
//!
//! The [`Gateway`] owns the layers by value, and the server calls them
//! directly for the bookkeeping after admission: the in-flight slot a
//! job holds, worker failures fed to the breaker, cache reads and
//! writes. [`Gateway::settle`] is told once where each admitted work
//! request ended up, which decides a half-open probe or feeds a
//! queue-full rejection to the breaker. [`Gateway::metrics_json`]
//! exports every layer's counters, and every decision is recorded on the
//! request context as a [`middleware::GatewayEvent`], so streaming
//! clients see their admission trail in their NDJSON.

pub(crate) mod auth;
pub(crate) mod breaker;
pub(crate) mod middleware;
pub(crate) mod ratelimit;
pub(crate) mod rescache;

use crate::ServeConfig;
use auth::AuthLayer;
use breaker::Breaker;
use middleware::{Rejection, RequestContext};
use ratelimit::RateLimiter;
use rescache::ResCache;
use simap_core::json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// The sliding window over which breaker failures count (the ten
/// seconds [`ServeConfig::breaker_threshold`] documents).
const BREAKER_WINDOW: Duration = Duration::from_secs(10);

/// Allowed/rejected counts of one layer.
#[derive(Debug, Default)]
struct LayerStats {
    allowed: AtomicU64,
    rejected: AtomicU64,
}

impl LayerStats {
    /// Counts one check's verdict and passes it on.
    fn count(&self, verdict: Result<(), Rejection>) -> Result<(), Rejection> {
        let counter = if verdict.is_ok() { &self.allowed } else { &self.rejected };
        counter.fetch_add(1, Ordering::Relaxed);
        verdict
    }
}

/// Where an admitted work request ended up, told once to
/// [`Gateway::settle`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Outcome {
    /// The job entered the queue.
    Enqueued,
    /// The queue was full.
    QueueFull,
    /// Nothing was enqueued: a malformed body, a result-cache hit, or
    /// shutdown.
    NotEnqueued,
}

/// The assembled gateway, shared by every connection thread and the
/// worker pool.
pub(crate) struct Gateway {
    pub auth: AuthLayer,
    pub limiter: RateLimiter,
    pub breaker: Breaker,
    /// `None` without `--cache-dir`.
    pub rescache: Option<ResCache>,
    auth_stats: LayerStats,
    limiter_stats: LayerStats,
    breaker_stats: LayerStats,
    /// Work requests admitted per client (keyfile clients + anonymous,
    /// so naturally bounded).
    admitted_by_client: Mutex<BTreeMap<String, u64>>,
}

impl Gateway {
    /// Builds the gateway: loads the keyfile and opens the cache
    /// directory.
    ///
    /// # Errors
    /// An unreadable or malformed keyfile, or an unusable cache
    /// directory — both must fail at startup, loudly.
    pub(crate) fn open(config: &ServeConfig) -> Result<Gateway, String> {
        let auth = AuthLayer::open(config.api_keys.as_deref())?;
        let rescache = match &config.cache_dir {
            None => None,
            Some(dir) => Some(ResCache::open(dir, config.cache_limit)?),
        };
        Ok(Gateway {
            auth,
            limiter: RateLimiter::new(config.rate_limit, config.max_inflight),
            breaker: Breaker::new(
                config.breaker_threshold,
                BREAKER_WINDOW,
                config.breaker_cooldown,
            ),
            rescache,
            auth_stats: LayerStats::default(),
            limiter_stats: LayerStats::default(),
            breaker_stats: LayerStats::default(),
            admitted_by_client: Mutex::new(BTreeMap::new()),
        })
    }

    /// Checks one request against auth, then the rate limiter, then the
    /// breaker. `Ok` carries the annotated context (identity, tier, probe
    /// flag, decision trail).
    ///
    /// # Errors
    /// The first layer's rejection.
    pub(crate) fn admit(
        &self,
        api_key: Option<String>,
        queues_work: bool,
    ) -> Result<RequestContext, Rejection> {
        let mut ctx = RequestContext::new(api_key, queues_work);
        self.auth_stats.count(self.auth.check(&mut ctx))?;
        self.limiter_stats.count(self.limiter.check(&mut ctx))?;
        self.breaker_stats.count(self.breaker.check(&mut ctx))?;
        if queues_work {
            *self
                .admitted_by_client
                .lock()
                .expect("client tally lock")
                .entry(ctx.client.clone())
                .or_insert(0) += 1;
        }
        Ok(ctx)
    }

    /// Settles an admitted work request with the breaker once it is known
    /// where the request ended up: a half-open probe gets its verdict
    /// ([`Breaker::settle_probe`]); any other request that met a full
    /// queue feeds the breaker its primary distress signal.
    pub(crate) fn settle(&self, ctx: &RequestContext, outcome: Outcome) {
        if ctx.breaker_probe {
            self.breaker.settle_probe(outcome);
        } else if outcome == Outcome::QueueFull {
            self.breaker.record_failure();
        }
    }

    /// The gateway section of /metrics, as one JSON object: per-layer
    /// allow/reject tallies, breaker state and trip counters, result
    /// cache counters (or `null` when disabled), and per-client
    /// admission counts.
    pub(crate) fn metrics_json(&self) -> String {
        let mut out = String::from("{\"auth_mode\":");
        out.push_str(if self.auth.requires_key() { "\"keyed\"" } else { "\"anonymous\"" });
        out.push_str(&format!(",\"api_keys\":{}", self.auth.key_count()));
        for (name, stats) in [
            ("auth", &self.auth_stats),
            ("ratelimit", &self.limiter_stats),
            ("breaker", &self.breaker_stats),
        ] {
            out.push_str(&format!(
                ",\"{name}\":{{\"allowed\":{},\"rejected\":{}}}",
                stats.allowed.load(Ordering::Relaxed),
                stats.rejected.load(Ordering::Relaxed)
            ));
        }
        let (opened, shed) = self.breaker.counters();
        out.push_str(&format!(
            ",\"breaker_state\":{},\"breaker_opened\":{opened},\"breaker_shed\":{shed}",
            json::quote(self.breaker.state().as_str())
        ));
        match &self.rescache {
            None => out.push_str(",\"rescache\":null"),
            Some(cache) => {
                let c = cache.counters();
                out.push_str(&format!(
                    ",\"rescache\":{{\"hits\":{},\"misses\":{},\"stores\":{},\
                     \"evictions\":{},\"entries\":{}}}",
                    c.hits,
                    c.misses,
                    c.stores,
                    c.evictions,
                    cache.entries()
                ));
            }
        }
        out.push_str(",\"clients\":{");
        let tally = self.admitted_by_client.lock().expect("client tally lock");
        for (i, (client, count)) in tally.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{}:{{\"admitted\":{count},\"inflight\":{}}}",
                json::quote(client),
                self.limiter.inflight(client)
            ));
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use breaker::BreakerState;

    fn open(config: &ServeConfig) -> Gateway {
        Gateway::open(config).unwrap()
    }

    #[test]
    fn default_gateway_admits_anonymous_work_freely() {
        let gw = open(&ServeConfig::default());
        for _ in 0..50 {
            let ctx = gw.admit(None, true).unwrap();
            assert_eq!(ctx.client, "anonymous");
        }
        let metrics = gw.metrics_json();
        assert!(metrics.contains("\"auth_mode\":\"anonymous\""), "{metrics}");
        assert!(metrics.contains("\"auth\":{\"allowed\":50,\"rejected\":0}"), "{metrics}");
        assert!(
            metrics.contains("\"clients\":{\"anonymous\":{\"admitted\":50,\"inflight\":0}}"),
            "{metrics}"
        );
        assert!(metrics.contains("\"breaker_state\":\"closed\""), "{metrics}");
        assert!(metrics.contains("\"rescache\":null"), "{metrics}");
        // The section is itself valid JSON.
        simap_core::json::parse(&metrics).expect("gateway metrics are valid JSON");
    }

    #[test]
    fn layers_run_auth_then_ratelimit_then_breaker() {
        let dir = std::env::temp_dir().join(format!("simap-gw-order-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let keyfile = dir.join("keys.tsv");
        std::fs::write(&keyfile, "k-a\talice\tfree\n").unwrap();
        let gw = open(&ServeConfig {
            api_keys: Some(keyfile),
            max_inflight: 1,
            ..ServeConfig::default()
        });
        // Unknown key: auth rejects before the limiter is consulted.
        let rejection = gw.admit(Some("nope".to_string()), true).unwrap_err();
        assert_eq!(rejection.status, 401);
        // Known key fills the quota, then the limiter rejects before the
        // breaker is consulted.
        let ctx = gw.admit(Some("k-a".to_string()), true).unwrap();
        let trail: Vec<String> = ctx.events.iter().map(|e| e.to_json()).collect();
        assert!(trail[0].contains("\"layer\":\"auth\",\"decision\":\"allow\""), "{trail:?}");
        assert!(trail[1].contains("\"layer\":\"ratelimit\""), "{trail:?}");
        assert!(trail[2].contains("\"layer\":\"breaker\""), "{trail:?}");
        gw.limiter.job_started(&ctx.client);
        let rejection = gw.admit(Some("k-a".to_string()), true).unwrap_err();
        assert_eq!(rejection.status, 429);
        assert_eq!(rejection.retry_after, Some(1));
        let metrics = gw.metrics_json();
        assert!(
            metrics.contains(
                "\"auth\":{\"allowed\":2,\"rejected\":1},\
                 \"ratelimit\":{\"allowed\":1,\"rejected\":1},\
                 \"breaker\":{\"allowed\":1,\"rejected\":0}"
            ),
            "{metrics}"
        );
        gw.limiter.job_finished("alice");
        assert!(gw.admit(Some("k-a".to_string()), true).is_ok());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn breaker_layer_sheds_after_sustained_failures() {
        let gw = open(&ServeConfig { breaker_threshold: 2, ..ServeConfig::default() });
        gw.breaker.record_failure();
        gw.breaker.record_failure();
        let rejection = gw.admit(None, true).unwrap_err();
        assert_eq!(rejection.status, 503);
        assert!(rejection.retry_after.is_some());
        assert_eq!(gw.breaker.state(), BreakerState::Open);
        // Non-work requests still pass while open.
        assert!(gw.admit(None, false).is_ok());
        let metrics = gw.metrics_json();
        assert!(metrics.contains("\"breaker_state\":\"open\""), "{metrics}");
        assert!(metrics.contains("\"breaker_opened\":1"), "{metrics}");
    }

    #[test]
    fn settle_counts_full_queues_and_decides_probes() {
        let gw = open(&ServeConfig {
            breaker_threshold: 1,
            breaker_cooldown: Duration::ZERO,
            ..ServeConfig::default()
        });
        // Outside a probe, only a full queue is a failure signal.
        let ctx = gw.admit(None, true).unwrap();
        gw.settle(&ctx, Outcome::Enqueued);
        gw.settle(&ctx, Outcome::NotEnqueued);
        assert_eq!(gw.breaker.state(), BreakerState::Closed);
        gw.settle(&ctx, Outcome::QueueFull);
        assert_eq!(gw.breaker.counters().0, 1);
        // With no cooldown the next request is the half-open probe, and
        // where it ended up is its verdict.
        let probe = gw.admit(None, true).unwrap();
        assert!(probe.breaker_probe);
        gw.settle(&probe, Outcome::Enqueued);
        assert_eq!(gw.breaker.state(), BreakerState::Closed);
    }

    #[test]
    fn cache_counters_reach_the_gateway_metrics() {
        let dir = std::env::temp_dir().join(format!("simap-gw-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let gw = open(&ServeConfig { cache_dir: Some(dir.clone()), ..ServeConfig::default() });
        let cache = gw.rescache.as_ref().expect("a cache directory enables the cache");
        assert_eq!(cache.lookup(5, "canon"), None);
        cache.store(5, "canon", "body");
        assert_eq!(cache.lookup(5, "canon").as_deref(), Some("body"));
        let metrics = gw.metrics_json();
        assert!(metrics.contains("\"rescache\":{\"hits\":1,\"misses\":1,"), "{metrics}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
