//! What the gateway layers share: the service [`Tier`] a key grants,
//! the per-request [`RequestContext`] that [`crate::gateway::Gateway::admit`]
//! passes through the auth, rate-limit and breaker checks in that fixed
//! order, the [`Rejection`] a check returns, and the [`GatewayEvent`]
//! each decision records. Streaming clients see those events at the
//! head of their NDJSON feed.

use simap_core::json;

/// Service tiers an API key can be assigned in the keyfile. Tiers scale
/// the base `--rate-limit` / `--max-inflight` budgets; `blocked` is the
/// authorization deny (a valid key that may not submit work).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tier {
    /// Authenticates but is denied all work routes (`403`).
    Blocked,
    /// The base budgets exactly as configured.
    Free,
    /// Four times the base budgets (also the anonymous tier when the
    /// server runs without a keyfile).
    Standard,
    /// No rate or in-flight limits.
    Unlimited,
}

impl Tier {
    /// Parses a keyfile tier column.
    pub(crate) fn parse(s: &str) -> Result<Tier, String> {
        match s {
            "blocked" => Ok(Tier::Blocked),
            "free" => Ok(Tier::Free),
            "standard" => Ok(Tier::Standard),
            "unlimited" => Ok(Tier::Unlimited),
            other => Err(format!(
                "unknown tier `{other}` (expected blocked | free | standard | unlimited)"
            )),
        }
    }

    /// Budget multiplier over the base `--rate-limit`/`--max-inflight`
    /// values; `None` means unlimited.
    pub(crate) fn multiplier(self) -> Option<f64> {
        match self {
            // `Blocked` never reaches the rate limiter (auth rejects),
            // but give it a defined value anyway.
            Tier::Blocked => Some(0.0),
            Tier::Free => Some(1.0),
            Tier::Standard => Some(4.0),
            Tier::Unlimited => None,
        }
    }

    pub(crate) fn as_str(self) -> &'static str {
        match self {
            Tier::Blocked => "blocked",
            Tier::Free => "free",
            Tier::Standard => "standard",
            Tier::Unlimited => "unlimited",
        }
    }
}

/// One gateway decision on a request, streamed to NDJSON clients ahead
/// of the flow's own events.
#[derive(Debug)]
pub(crate) struct GatewayEvent {
    /// The deciding layer (`auth`, `ratelimit`, `breaker`, `rescache`).
    pub layer: &'static str,
    /// The decision (`allow`, `reject`, `probe`, `hit`, `miss`).
    pub decision: &'static str,
    /// The client the decision applies to.
    pub client: String,
}

impl GatewayEvent {
    /// The one-line JSON wire form: `{"event":"gateway",...}`.
    pub(crate) fn to_json(&self) -> String {
        format!(
            "{{\"event\":\"gateway\",\"layer\":{},\"decision\":{},\"client\":{}}}",
            json::quote(self.layer),
            json::quote(self.decision),
            json::quote(&self.client)
        )
    }
}

/// Everything a gateway layer may inspect or annotate about one request.
#[derive(Debug)]
pub(crate) struct RequestContext {
    /// The presented API key (`Authorization: Bearer …` or `X-Api-Key`),
    /// if any.
    pub api_key: Option<String>,
    /// Resolved client identity; `"anonymous"` until the auth layer
    /// names it.
    pub client: String,
    /// Resolved service tier (set by the auth layer).
    pub tier: Tier,
    /// Whether this request submits work to the job queue (`POST
    /// /synthesize`, `/stg`, `/batch`) — the rate limiter and the
    /// circuit breaker only guard those.
    pub queues_work: bool,
    /// Whether the breaker admitted this request as its half-open probe;
    /// [`crate::gateway::Gateway::settle`] reports the probe's outcome.
    pub breaker_probe: bool,
    /// Gateway decisions, in the order they were made.
    pub events: Vec<GatewayEvent>,
}

impl RequestContext {
    /// A fresh context for one request.
    pub(crate) fn new(api_key: Option<String>, queues_work: bool) -> Self {
        RequestContext {
            api_key,
            client: "anonymous".to_string(),
            tier: Tier::Standard,
            queues_work,
            breaker_probe: false,
            events: Vec::new(),
        }
    }

    /// Records one gateway decision for the current client.
    pub(crate) fn record(&mut self, layer: &'static str, decision: &'static str) {
        self.events.push(GatewayEvent { layer, decision, client: self.client.clone() });
    }
}

/// A rejection: the HTTP status, a message for the structured error
/// body, and an optional `Retry-After` value in seconds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Rejection {
    pub status: u16,
    pub message: String,
    pub retry_after: Option<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_parsing_round_trips() {
        for tier in [Tier::Blocked, Tier::Free, Tier::Standard, Tier::Unlimited] {
            assert_eq!(Tier::parse(tier.as_str()), Ok(tier));
        }
        assert!(Tier::parse("gold").unwrap_err().contains("unknown tier `gold`"));
    }

    #[test]
    fn context_records_streamable_events() {
        let mut ctx = RequestContext::new(None, true);
        ctx.client = "alice".to_string();
        ctx.record("auth", "allow");
        assert_eq!(
            ctx.events[0].to_json(),
            "{\"event\":\"gateway\",\"layer\":\"auth\",\"decision\":\"allow\",\
             \"client\":\"alice\"}"
        );
    }
}
