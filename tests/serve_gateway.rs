//! Integration tests of the `simap serve` gateway over real TCP
//! sockets: API-key authentication (401/403), per-client rate limiting
//! (429 with `Retry-After`), the circuit breaker's open → half-open →
//! closed recovery (503 with `Retry-After`), half-open probes that never
//! reach the queue freeing the probe slot, the persistent result cache
//! answering byte-identically across a server restart without
//! enqueueing any work, and the in-flight quota releasing every slot.
//! The `gateway` object of `/metrics` and the admission trail at the
//! head of a stream are pinned byte for byte.

use simap::core::json::{self, Json};
use simap::serve::{ServeConfig, Server, ServerHandle};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::Duration;

/// One HTTP/1.1 request over a fresh connection, optionally carrying an
/// API key; returns (status, headers, body).
fn http(
    addr: SocketAddr,
    method: &str,
    path: &str,
    key: Option<&str>,
    body: &str,
) -> (u16, Vec<(String, String)>, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let auth = key.map(|k| format!("X-Api-Key: {k}\r\n")).unwrap_or_default();
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: test\r\n{auth}Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    let status: u16 = response
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("no status line in {response:?}"));
    let (head, body) = response.split_once("\r\n\r\n").expect("header/body split");
    let headers = head
        .lines()
        .skip(1)
        .filter_map(|line| {
            let (name, value) = line.split_once(':')?;
            Some((name.trim().to_ascii_lowercase(), value.trim().to_string()))
        })
        .collect();
    (status, headers, body.to_string())
}

fn header<'h>(headers: &'h [(String, String)], name: &str) -> Option<&'h str> {
    headers.iter().find(|(n, _)| n == name).map(|(_, v)| v.as_str())
}

fn start(config: ServeConfig) -> (ServerHandle, std::thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(ServeConfig { addr: "127.0.0.1:0".to_string(), ..config })
        .expect("bind ephemeral port");
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run());
    (handle, join)
}

fn stop(handle: ServerHandle, join: std::thread::JoinHandle<std::io::Result<()>>) {
    handle.shutdown();
    join.join().unwrap().unwrap();
}

/// A scratch directory that cleans up after itself even on panic.
struct Scratch(PathBuf);

impl Scratch {
    fn new(label: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("simap-gw-{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn metrics(addr: SocketAddr) -> Json {
    let (status, _, body) = http(addr, "GET", "/metrics", None, "");
    assert_eq!(status, 200, "{body}");
    json::parse(body.trim_end()).expect("metrics is JSON")
}

#[test]
fn keyed_mode_rejects_missing_unknown_and_blocked_keys() {
    let scratch = Scratch::new("auth");
    let keyfile = scratch.0.join("keys.tsv");
    std::fs::write(&keyfile, "k-alice\talice\tstandard\nk-mallory\tmallory\tblocked\n").unwrap();
    let (handle, join) =
        start(ServeConfig { jobs: 1, api_keys: Some(keyfile), ..ServeConfig::default() });
    let addr = handle.addr();

    // No key on a protected route: 401 naming both accepted header forms.
    let (status, _, body) = http(addr, "POST", "/synthesize", None, "{\"bench\":\"half\"}");
    assert_eq!(status, 401, "{body}");
    assert!(body.contains("Authorization") && body.contains("X-Api-Key"), "{body}");

    // An unknown key is 401; a blocked client's valid key is 403.
    let (status, _, body) =
        http(addr, "POST", "/synthesize", Some("k-wrong"), "{\"bench\":\"half\"}");
    assert_eq!(status, 401, "{body}");
    let (status, _, body) =
        http(addr, "POST", "/synthesize", Some("k-mallory"), "{\"bench\":\"half\"}");
    assert_eq!(status, 403, "{body}");
    assert!(body.contains("blocked"), "{body}");

    // A good key synthesizes; health and metrics never need one.
    let (status, _, body) =
        http(addr, "POST", "/synthesize", Some("k-alice"), "{\"bench\":\"half\"}");
    assert_eq!(status, 200, "{body}");
    let (status, _, _) = http(addr, "GET", "/healthz", None, "");
    assert_eq!(status, 200);
    let doc = metrics(addr);
    let gateway = doc.get("gateway").expect("gateway section");
    assert_eq!(gateway.get("auth_mode").unwrap().as_str(), Some("keyed"));
    assert_eq!(gateway.get("api_keys").unwrap().as_usize(), Some(2));
    let auth = gateway.get("auth").expect("auth tallies");
    assert!(auth.get("rejected").unwrap().as_usize() >= Some(3), "{doc:?}");

    stop(handle, join);
}

#[test]
fn rate_limited_client_gets_429_with_retry_after() {
    let scratch = Scratch::new("rate");
    let keyfile = scratch.0.join("keys.tsv");
    std::fs::write(&keyfile, "k-frida\tfrida\tfree\n").unwrap();
    // Free tier at base 1 req/s: burst of exactly one token.
    let (handle, join) = start(ServeConfig {
        jobs: 1,
        api_keys: Some(keyfile),
        rate_limit: 1.0,
        ..ServeConfig::default()
    });
    let addr = handle.addr();

    let (status, _, body) =
        http(addr, "POST", "/synthesize", Some("k-frida"), "{\"bench\":\"half\"}");
    assert_eq!(status, 200, "{body}");
    let (status, headers, body) =
        http(addr, "POST", "/synthesize", Some("k-frida"), "{\"bench\":\"half\"}");
    assert_eq!(status, 429, "{body}");
    assert!(body.contains("requests/sec"), "{body}");
    let retry: u64 = header(&headers, "retry-after")
        .expect("429 carries Retry-After")
        .parse()
        .expect("Retry-After is seconds");
    assert!(retry >= 1, "{retry}");

    // Poll routes queue no work, so the dry bucket does not block them.
    let (status, _, _) = http(addr, "GET", "/jobs/j999", Some("k-frida"), "");
    assert_eq!(status, 404, "poll is metered by quota, not the work bucket");

    stop(handle, join);
}

#[test]
fn breaker_opens_on_failures_and_recovers_through_a_probe() {
    let (handle, join) = start(ServeConfig {
        jobs: 1,
        breaker_threshold: 2,
        breaker_cooldown: Duration::from_millis(700),
        ..ServeConfig::default()
    });
    let addr = handle.addr();

    // Two flow failures inside the window trip the breaker.
    for _ in 0..2 {
        let (status, _, body) = http(addr, "POST", "/synthesize", None, "{\"bench\":\"nope\"}");
        assert_eq!(status, 422, "{body}");
    }
    let (status, headers, body) = http(addr, "POST", "/synthesize", None, "{\"bench\":\"half\"}");
    assert_eq!(status, 503, "{body}");
    assert!(header(&headers, "retry-after").is_some(), "503 carries Retry-After");
    let (_, _, health) = http(addr, "GET", "/healthz", None, "");
    assert!(health.contains("\"breaker\":\"open\""), "{health}");

    // After the cooldown the breaker half-opens; one successful probe
    // closes it again and work flows.
    std::thread::sleep(Duration::from_millis(900));
    let (_, _, health) = http(addr, "GET", "/healthz", None, "");
    assert!(health.contains("\"breaker\":\"half-open\""), "{health}");
    let (status, _, body) = http(addr, "POST", "/synthesize", None, "{\"bench\":\"half\"}");
    assert_eq!(status, 200, "the half-open probe is admitted: {body}");
    let (_, _, health) = http(addr, "GET", "/healthz", None, "");
    assert!(health.contains("\"breaker\":\"closed\""), "{health}");

    let doc = metrics(addr);
    assert!(doc.get("gateway").unwrap().get("breaker_opened").unwrap().as_usize() >= Some(1));
    assert!(doc.get("gateway").unwrap().get("breaker_shed").unwrap().as_usize() >= Some(1));

    stop(handle, join);
}

#[test]
fn restarted_server_answers_byte_identically_from_the_persistent_cache() {
    let scratch = Scratch::new("cache");
    let cache_dir = scratch.0.join("results");
    let config =
        || ServeConfig { jobs: 1, cache_dir: Some(cache_dir.clone()), ..ServeConfig::default() };

    // First instance synthesizes for real and stores the result.
    let (handle, join) = start(config());
    let (status, _, first) =
        http(handle.addr(), "POST", "/synthesize", None, "{\"bench\":\"half\"}");
    assert_eq!(status, 200, "{first}");
    let doc = metrics(handle.addr());
    let cache = doc.get("gateway").unwrap().get("rescache").expect("rescache section");
    assert_eq!(cache.get("stores").unwrap().as_usize(), Some(1), "{doc:?}");
    stop(handle, join);

    // A fresh instance on the same directory serves the cached bytes
    // without ever enqueueing a job.
    let (handle, join) = start(config());
    let (status, _, second) =
        http(handle.addr(), "POST", "/synthesize", None, "{\"bench\":\"half\"}");
    assert_eq!(status, 200, "{second}");
    assert_eq!(first.as_bytes(), second.as_bytes(), "cache hit must be byte-identical");
    let doc = metrics(handle.addr());
    let gateway = doc.get("gateway").unwrap();
    assert_eq!(gateway.get("rescache").unwrap().get("hits").unwrap().as_usize(), Some(1));
    assert_eq!(
        doc.get("queue").unwrap().get("submitted").unwrap().as_usize(),
        Some(0),
        "a warm hit never reaches the queue: {doc:?}"
    );
    // A config knob changes the fingerprint, so it misses and synthesizes.
    let (status, _, custom) = http(
        handle.addr(),
        "POST",
        "/synthesize",
        None,
        "{\"bench\":\"half\",\"literal_limit\":3}",
    );
    assert_eq!(status, 200, "{custom}");
    let doc = metrics(handle.addr());
    let cache = doc.get("gateway").unwrap().get("rescache").unwrap();
    assert_eq!(cache.get("hits").unwrap().as_usize(), Some(1), "{doc:?}");
    assert_eq!(cache.get("misses").unwrap().as_usize(), Some(1), "{doc:?}");
    stop(handle, join);
}

#[test]
fn inflight_quota_releases_every_slot() {
    // Sequential requests never overlap, so none may meet the quota: a
    // slot left held by a finished job would show as a 429 here, or as
    // a nonzero in-flight count at the end. The round count is
    // environment-tunable (`SIMAP_INFLIGHT_ROUNDS`, default 200) so CI
    // can run 2*10^4 of them.
    let rounds: usize =
        std::env::var("SIMAP_INFLIGHT_ROUNDS").ok().and_then(|v| v.parse().ok()).unwrap_or(200);
    let (handle, join) = start(ServeConfig {
        jobs: 2,
        max_inflight: 1,
        breaker_threshold: 0,
        ..ServeConfig::default()
    });
    let addr = handle.addr();
    for round in 0..rounds {
        let (status, _, body) = http(addr, "POST", "/synthesize", None, "{\"bench\":\"nope\"}");
        assert_eq!(status, 422, "round {round}: {body}");
    }
    let doc = metrics(addr);
    let anonymous = doc.get("gateway").unwrap().get("clients").unwrap().get("anonymous").unwrap();
    assert_eq!(anonymous.get("admitted").unwrap().as_usize(), Some(rounds), "{doc:?}");
    assert_eq!(anonymous.get("inflight").unwrap().as_usize(), Some(0), "{doc:?}");
    stop(handle, join);
}

/// The raw `gateway` object of one `/metrics` document, byte for byte
/// (the benchmark harness parses these keys, so their layout is pinned).
fn gateway_section(addr: SocketAddr) -> String {
    let (status, _, body) = http(addr, "GET", "/metrics", None, "");
    assert_eq!(status, 200, "{body}");
    let start = body.find(",\"gateway\":").expect("gateway key") + ",\"gateway\":".len();
    let end = body.find(",\"stage_latency_us\":").expect("gateway is followed by the latencies");
    body[start..end].to_string()
}

#[test]
fn gateway_metrics_and_admission_trail_are_pinned() {
    let scratch = Scratch::new("pin");
    let keyfile = scratch.0.join("keys.tsv");
    std::fs::write(&keyfile, "k-alice\talice\tfree\nk-ops\tops\tunlimited\n").unwrap();
    let (handle, join) = start(ServeConfig {
        jobs: 1,
        api_keys: Some(keyfile),
        rate_limit: 1.0,
        cache_dir: Some(scratch.0.join("results")),
        ..ServeConfig::default()
    });
    let addr = handle.addr();
    let half = "{\"bench\":\"half\"}";

    // One 401, one admitted miss, one 429 (the free tier's single token
    // is spent), and one hit from an unlimited client.
    assert_eq!(http(addr, "POST", "/synthesize", None, half).0, 401);
    assert_eq!(http(addr, "POST", "/synthesize", Some("k-alice"), half).0, 200);
    assert_eq!(http(addr, "POST", "/synthesize", Some("k-alice"), half).0, 429);
    assert_eq!(http(addr, "POST", "/synthesize", Some("k-ops"), half).0, 200);
    assert_eq!(
        gateway_section(addr),
        "{\"auth_mode\":\"keyed\",\"api_keys\":2,\
         \"auth\":{\"allowed\":3,\"rejected\":1},\
         \"ratelimit\":{\"allowed\":2,\"rejected\":1},\
         \"breaker\":{\"allowed\":2,\"rejected\":0},\
         \"breaker_state\":\"closed\",\"breaker_opened\":0,\"breaker_shed\":0,\
         \"rescache\":{\"hits\":1,\"misses\":1,\"stores\":1,\"evictions\":0,\"entries\":1},\
         \"clients\":{\"alice\":{\"admitted\":1,\"inflight\":0},\
         \"ops\":{\"admitted\":1,\"inflight\":0}}}"
    );

    // A streamed request opens with its admission trail (streams skip
    // the result-cache read, so no rescache line), then the job line.
    let (status, _, body) =
        http(addr, "POST", "/synthesize", Some("k-ops"), "{\"bench\":\"half\",\"stream\":true}");
    assert_eq!(status, 200, "{body}");
    let head: Vec<&str> = body.lines().take(4).collect();
    assert_eq!(
        head,
        [
            "{\"event\":\"gateway\",\"layer\":\"auth\",\"decision\":\"allow\",\"client\":\"ops\"}",
            "{\"event\":\"gateway\",\"layer\":\"ratelimit\",\"decision\":\"allow\",\
             \"client\":\"ops\"}",
            "{\"event\":\"gateway\",\"layer\":\"breaker\",\"decision\":\"allow\",\
             \"client\":\"ops\"}",
            "{\"event\":\"job\",\"job\":\"j2\"}",
        ]
    );

    stop(handle, join);
}

/// The breaker state `/healthz` reports.
fn breaker_state(addr: SocketAddr) -> String {
    let (_, _, health) = http(addr, "GET", "/healthz", None, "");
    let doc = json::parse(health.trim_end()).expect("healthz is JSON");
    doc.get("breaker").and_then(Json::as_str).expect("breaker state").to_string()
}

#[test]
fn unenqueued_probes_free_the_half_open_slot() {
    let scratch = Scratch::new("probe");
    let cooldown = Duration::from_millis(800);
    let (handle, join) = start(ServeConfig {
        jobs: 1,
        breaker_threshold: 2,
        breaker_cooldown: cooldown,
        cache_dir: Some(scratch.0.join("results")),
        ..ServeConfig::default()
    });
    let addr = handle.addr();
    let trip = || {
        for _ in 0..2 {
            let (status, _, body) = http(addr, "POST", "/synthesize", None, "{\"bench\":\"nope\"}");
            assert_eq!(status, 422, "{body}");
        }
        assert_eq!(breaker_state(addr), "open");
        std::thread::sleep(cooldown + Duration::from_millis(200));
        assert_eq!(breaker_state(addr), "half-open");
    };
    // Seed the result cache, then trip the breaker.
    assert_eq!(http(addr, "POST", "/synthesize", None, "{\"bench\":\"half\"}").0, 200);
    trip();

    // Each malformed body is admitted as the probe, answered 400 and
    // frees the slot without a verdict, so the next one is admitted too
    // (a held slot would answer 503).
    for (path, body) in
        [("/synthesize", "{\"bogus\":1}"), ("/stg", "{\"nope\":1}"), ("/batch", "[]")]
    {
        let (status, _, answer) = http(addr, "POST", path, None, body);
        assert_eq!(status, 400, "{path}: {answer}");
        assert_eq!(breaker_state(addr), "half-open", "{path}");
    }
    // The next enqueued request is the probe, and it closes the breaker.
    assert_eq!(http(addr, "POST", "/synthesize", None, "{\"bench\":\"hazard\"}").0, 200);
    assert_eq!(breaker_state(addr), "closed");

    // A result-cache hit enqueues nothing, so it frees the slot as well.
    trip();
    assert_eq!(http(addr, "POST", "/synthesize", None, "{\"bench\":\"half\"}").0, 200);
    assert_eq!(breaker_state(addr), "half-open");
    let doc = metrics(addr);
    assert_eq!(
        doc.get("gateway").unwrap().get("rescache").unwrap().get("hits").unwrap().as_usize(),
        Some(1),
        "{doc:?}"
    );
    assert_eq!(http(addr, "POST", "/synthesize", None, "{\"bench\":\"dff\"}").0, 200);
    assert_eq!(breaker_state(addr), "closed");

    stop(handle, join);
}
