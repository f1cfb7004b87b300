//! # simap-serve
//!
//! A dependency-free HTTP/1.1 synthesis service over the shared
//! [`Engine`]: the long-running third entry tier next to the one-shot
//! CLI and the library API. One process hosts one engine, so the
//! benchmark registry is built once and shared by every client — exactly
//! what [`Engine`] was made cheaply cloneable and thread-safe for.
//! Repeated requests are answered by the persistent result cache
//! (`--cache-dir`), not by the engine, which keeps nothing per
//! specification.
//!
//! Everything is `std`: `TcpListener` for transport, a hand-rolled
//! HTTP/1.1 reader/writer, [`simap_core::json`] for bodies, a bounded
//! job queue drained by a `std::thread` worker pool for execution, and
//! atomics for metrics. There is deliberately no async runtime: one
//! thread per in-flight connection parses and waits, while the *work* is
//! bounded by the worker pool and the queue — the queue, not the thread
//! count, is the backpressure surface.
//!
//! ## Wire protocol
//!
//! Every response carries `Connection: close` (one request per
//! connection) and a JSON body terminated by a newline. Errors are
//! `{"error":"..."}` objects with the status codes below.
//!
//! | Route | Behavior |
//! |---|---|
//! | `POST /synthesize` | Runs one mapping flow. Body fields: exactly one of `bench` (embedded benchmark name) or `g_source` (ad-hoc `.g` text); optional `literal_limit`, `or_limit`, `csc_repair`, `verify`, `strategy` (`packed`\|`explicit`\|`spill`), `memory_budget`, `shards`; optional `async` or `stream` booleans. The `200` body is **byte-identical** to `simap map --json` for the same spec/config. With `"async":true` answers `202 {"job":"jN","status":"queued"}` immediately. With `"stream":true` answers `application/x-ndjson`: one [`simap_core::FlowEvent`] JSON line per observer callback as stages complete, ending with `{"event":"report","report":{...}}` (or `{"event":"error",...}`). |
//! | `POST /stg` | Brings your own specification: the body is either **raw `.g` text** (post the file unchanged — a spec never opens with `{`, so the first non-whitespace byte disambiguates) or a JSON envelope `{"source":"<.g text>", ...}` accepting the same configuration knobs and `async`/`stream` flags as `/synthesize`. Both shapes run one mapping flow whose `200` body is **byte-identical** to `simap map <file.g> --json`, share one result-cache fingerprint (keyed by the source digest — a repeated spec answers from the cache without enqueueing), and are metered by the full gateway chain. The parser enforces the resource caps documented in `simap_stg::parse` (line length, signal/transition/place/arc counts); a spec that fails to parse is a `422` whose message carries the 1-based line and column. |
//! | `POST /batch` | Runs many benchmarks through one configuration. Body fields: `names` (array, empty/absent = the whole embedded suite), `limits` (array of literal limits, default `[2]`), the shared configuration fields, `async`. The `200` body is byte-identical to `simap bench run --json`. |
//! | `GET /jobs/{id}` | Polls an async job: `{"job":"jN","status":"queued"\|"running"\|"done"\|"failed"}` plus `result` (the full response document) when done or `error` when failed. `404` for unknown/evicted/expired ids. |
//! | `GET /benchmarks` | The embedded registry with signal/state counts — byte-identical to `simap bench list --json`. |
//! | `GET /healthz` | `{"status":"ok","queue_depth":…,"queue_limit":…,"breaker":"closed"\|"open"\|"half-open","workers":…,"workers_alive":…}` — liveness plus admission health, never queues, never requires a key. |
//! | `GET /metrics` | Request/response tallies, queue depth and job accounting (including age-`expired` records), spill-engine counters (`spill.runs` counts every elaboration that ran under the spill strategy), per-stage latency histograms (power-of-two µs buckets), and a `gateway` section: per-layer allow/reject tallies, breaker state and trip counts, result-cache hit/miss/store/eviction counters, per-client admissions. |
//!
//! Status codes: `400` malformed request/body, `401` missing or unknown
//! API key, `403` a valid key whose client is blocked, `404` unknown
//! route or job, `405` wrong method, `413` oversized request, `422` the
//! flow itself failed (unknown benchmark, CSC violation, …), `429` rate
//! limit, in-flight quota, or a full job queue — every `429` and
//! breaker `503` carries `Retry-After` seconds, `500` a server-side bug
//! (a worker panic, isolated so the pool survives), `503` the circuit
//! breaker shedding load, or shutting down.
//!
//! ## The gateway
//!
//! Between the socket and the queue sits a middleware chain
//! (auth → rate limit → breaker; first rejection wins), plus a
//! persistent result cache consulted before anything is enqueued:
//!
//! 1. **Authentication/authorization** ([`ServeConfig::api_keys`]): a
//!    TSV keyfile of `key<TAB>client<TAB>tier` lines; tiers are
//!    `free`, `standard` (4× budgets), `unlimited`, and `blocked`
//!    (`403`). Without a keyfile every caller is one anonymous
//!    standard-tier client. Keys are presented as `Authorization:
//!    Bearer <key>` or `X-Api-Key: <key>`; the file reloads on SIGHUP
//!    ([`ServerHandle::reload_api_keys`]) and a bad file keeps the old
//!    keys.
//! 2. **Rate limiting and quotas** ([`ServeConfig::rate_limit`],
//!    [`ServeConfig::max_inflight`]): a token bucket per client plus an
//!    in-flight job budget, both scaled by tier, both only on the
//!    enqueueing routes — polling is always free.
//! 3. **Circuit breaker** ([`ServeConfig::breaker_threshold`],
//!    [`ServeConfig::breaker_cooldown`]): queue-full rejections and
//!    worker failures in a ten-second sliding window trip it open;
//!    while open every work request is `503` + `Retry-After`; after the
//!    cooldown one half-open probe decides between closing and another
//!    cooldown.
//! 4. **Result cache** ([`ServeConfig::cache_dir`]): finished reports,
//!    content-addressed by a stable digest of the request plus the full
//!    [`Config::digest`] fingerprint. A hit answers byte-identically
//!    from disk without enqueueing — including after a restart, or from
//!    a sibling instance sharing the directory. Corrupt entries are
//!    evicted and treated as misses; the directory is LRU-bounded by
//!    [`ServeConfig::cache_limit`].
//!
//! Every gateway decision is a [`simap_core::FlowEvent::Gateway`]:
//! streaming clients see their own admission trail at the head of the
//! NDJSON feed, and `/metrics` aggregates the tallies.
//!
//! ## Quickstart, in three tiers
//!
//! ```sh
//! # 1. Trusted dev loop: anonymous, unlimited, nothing persisted.
//! simap serve --addr 127.0.0.1:7317
//!
//! # 2. Shared instance: keyed clients, per-client budgets.
//! printf 'k-ci\tci\tstandard\nk-dev\tdev\tfree\n' > keys.tsv
//! simap serve --api-keys keys.tsv --rate-limit 5 --max-inflight 4
//! #   (edit keys.tsv, then `kill -HUP <pid>` to reload it live)
//!
//! # 3. Fleet: shared persistent cache + load shedding.
//! simap serve --api-keys keys.tsv --rate-limit 5 --max-inflight 4 \
//!             --cache-dir /var/cache/simap --cache-limit 4096 \
//!             --breaker-threshold 8 --breaker-cooldown 5
//! ```
//!
//! Bring your own `.g` spec — POST the file itself (or generate load
//! with the seeded corpus):
//!
//! ```sh
//! simap gen --seed 1 --count 1 --out-dir specs
//! curl --data-binary @specs/gen_0000000000000001_0.g \
//!      http://127.0.0.1:7317/stg          # == `simap map <file> --json`
//! ```
//!
//! ## Backpressure and shutdown
//!
//! Work is admitted through a bounded queue ([`ServeConfig::queue_limit`]);
//! when it is full the server answers `429` + `Retry-After` immediately
//! instead of accepting unbounded work (and the rejection feeds the
//! breaker). On shutdown ([`ServerHandle::shutdown`], or SIGTERM/ctrl-c
//! via [`shutdown_signal`] in the CLI) the listener stops accepting,
//! accepted jobs drain to completion, workers join, and [`Server::run`]
//! returns — in-flight synchronous clients get their responses.
//!
//! ```
//! use simap_serve::{ServeConfig, Server};
//! use std::io::{Read, Write};
//!
//! let server = Server::bind(ServeConfig {
//!     addr: "127.0.0.1:0".to_string(), // ephemeral port for the example
//!     jobs: 1,
//!     ..ServeConfig::default()
//! })?;
//! let addr = server.local_addr();
//! let handle = server.handle();
//! let running = std::thread::spawn(move || server.run());
//!
//! let mut client = std::net::TcpStream::connect(addr)?;
//! write!(client, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")?;
//! let mut response = String::new();
//! client.read_to_string(&mut response)?;
//! assert!(response.starts_with("HTTP/1.1 200 OK"));
//! assert!(response.contains("\"status\":\"ok\""));
//! assert!(response.contains("\"breaker\":\"closed\""));
//!
//! handle.shutdown();
//! running.join().unwrap()?;
//! # Ok::<(), std::io::Error>(())
//! ```

#![warn(missing_docs)]

mod api;
mod gateway;
mod http;
mod metrics;
mod queue;

use api::{Mode, Work, WorkSource};
use gateway::middleware::RequestContext;
use gateway::{Gateway, GatewayConfig};
use http::{read_request, respond, respond_retry, start_ndjson, ReadError, Request};
use metrics::{Endpoint, Metrics};
use queue::{JobSpec, JobStatus, JobTable, Queue};
use simap_core::json;
use simap_core::{benchmarks_json, report_json, to_json, Config, Engine, EventObserver};
use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration of one server instance.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Address to bind (`host:port`; port `0` picks an ephemeral one).
    pub addr: String,
    /// Worker threads draining the job queue (`0` = one per available
    /// CPU).
    pub jobs: usize,
    /// Bounded job-queue capacity; a full queue answers `429`.
    pub queue_limit: usize,
    /// API keyfile (`key<TAB>client<TAB>tier` lines); `None` = anonymous
    /// mode, every caller is one standard-tier client. Reloadable at
    /// runtime via [`ServerHandle::reload_api_keys`] (SIGHUP in the CLI).
    pub api_keys: Option<PathBuf>,
    /// Base requests/sec per client on the work routes (scaled by the
    /// client's tier); `0` disables rate limiting.
    pub rate_limit: f64,
    /// Base queued+running jobs per client (scaled by tier); `0`
    /// disables the quota.
    pub max_inflight: usize,
    /// Directory for the persistent content-addressed result cache;
    /// `None` disables persistence. Instances sharing a directory share
    /// the cache.
    pub cache_dir: Option<PathBuf>,
    /// Maximum result-cache entries kept on disk (LRU beyond this); `0`
    /// = unbounded.
    pub cache_limit: usize,
    /// Queue-full rejections / worker failures within ten seconds that
    /// trip the circuit breaker open; `0` disables the breaker.
    pub breaker_threshold: usize,
    /// How long the tripped breaker sheds (`503` + `Retry-After`)
    /// before admitting a half-open probe.
    pub breaker_cooldown: Duration,
    /// Age after which finished job records are expired from the polling
    /// table (on top of the fixed count window).
    pub job_expiry: Duration,
    /// Base synthesis configuration; per-request fields override it
    /// through [`Config::to_builder`].
    pub config: Config,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7317".to_string(),
            jobs: 0,
            queue_limit: 64,
            api_keys: None,
            rate_limit: 0.0,
            max_inflight: 0,
            cache_dir: None,
            cache_limit: 256,
            breaker_threshold: 8,
            breaker_cooldown: Duration::from_secs(5),
            job_expiry: Duration::from_secs(900),
            config: Config::default(),
        }
    }
}

struct Shared {
    engine: Engine,
    metrics: Arc<Metrics>,
    queue: Queue,
    jobs: JobTable,
    gateway: Gateway,
    shutdown: AtomicBool,
    open_connections: AtomicUsize,
    /// Worker threads currently inside their drain loop (healthz
    /// liveness: should equal `workers` while serving).
    workers_alive: AtomicUsize,
    addr: SocketAddr,
    workers: usize,
    queue_limit: usize,
    /// `GET /benchmarks` rendered once (under this lock, so concurrent
    /// cold requests serialize instead of each elaborating the whole
    /// registry on its own connection thread — the one route that could
    /// otherwise trigger heavy work without passing the bounded queue).
    benchmarks: std::sync::Mutex<Option<String>>,
}

impl Shared {
    /// The cached registry listing, computed on first use (errors are
    /// not cached, so a transient failure is retried).
    fn benchmarks_listing(&self) -> Result<String, simap_core::Error> {
        let mut cached = self.benchmarks.lock().expect("benchmarks lock");
        if let Some(listing) = cached.as_ref() {
            return Ok(listing.clone());
        }
        let listing = benchmarks_json(&self.engine)?;
        *cached = Some(listing.clone());
        Ok(listing)
    }
}

/// A bound, not-yet-running server. [`Server::run`] blocks until
/// shutdown; grab a [`ServerHandle`] first to stop it.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

/// A cheap handle to a running (or bound) server, used to stop it.
#[derive(Clone)]
pub struct ServerHandle {
    shared: Arc<Shared>,
}

impl ServerHandle {
    /// The address the server is bound to.
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Whether shutdown has been requested.
    pub fn is_shutdown(&self) -> bool {
        self.shared.shutdown.load(Ordering::Acquire)
    }

    /// Re-reads the API keyfile (the CLI calls this on SIGHUP) and
    /// returns the new key count. On any error the previous keys stay in
    /// force.
    ///
    /// # Errors
    /// No keyfile configured, or the file is unreadable or malformed.
    pub fn reload_api_keys(&self) -> Result<usize, String> {
        self.shared.gateway.reload_api_keys()
    }

    /// Requests a graceful shutdown: stop accepting, drain accepted
    /// jobs, join workers. Idempotent; returns immediately ([`Server::run`]
    /// returns once the drain completes).
    pub fn shutdown(&self) {
        if self.shared.shutdown.swap(true, Ordering::AcqRel) {
            return;
        }
        self.shared.queue.wake_all();
        // Unblock the accept loop with a throwaway connection. A
        // wildcard bind (0.0.0.0 / [::]) is not connectable on every
        // platform, so aim at the loopback of the same family instead.
        let mut wake = self.shared.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake.ip() {
                std::net::IpAddr::V4(_) => std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
                std::net::IpAddr::V6(_) => std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST),
            });
        }
        let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
    }
}

impl Server {
    /// Binds the listener and builds the shared state (engine, queue,
    /// metrics). No thread is spawned yet.
    ///
    /// # Errors
    /// Address parse/bind failures; a missing or malformed API keyfile;
    /// an unusable cache directory (all reported as `InvalidInput`).
    pub fn bind(config: ServeConfig) -> std::io::Result<Server> {
        let gateway = Gateway::open(&GatewayConfig {
            api_keys: config.api_keys.clone(),
            rate_limit: config.rate_limit,
            max_inflight: config.max_inflight,
            cache_dir: config.cache_dir.clone(),
            cache_limit: config.cache_limit,
            breaker_threshold: config.breaker_threshold,
            breaker_cooldown: config.breaker_cooldown,
            ..GatewayConfig::default()
        })
        .map_err(|message| std::io::Error::new(std::io::ErrorKind::InvalidInput, message))?;
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let workers = if config.jobs == 0 {
            std::thread::available_parallelism().map(usize::from).unwrap_or(1)
        } else {
            config.jobs
        };
        let shared = Arc::new(Shared {
            engine: Engine::new(config.config),
            metrics: Arc::new(Metrics::default()),
            queue: Queue::new(config.queue_limit.max(1)),
            jobs: JobTable::new(config.job_expiry),
            gateway,
            shutdown: AtomicBool::new(false),
            open_connections: AtomicUsize::new(0),
            workers_alive: AtomicUsize::new(0),
            addr,
            workers,
            queue_limit: config.queue_limit.max(1),
            benchmarks: std::sync::Mutex::new(None),
        });
        Ok(Server { listener, shared })
    }

    /// The bound address (useful with port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// A handle for stopping the server from another thread.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle { shared: self.shared.clone() }
    }

    /// Serves until [`ServerHandle::shutdown`]: spawns the worker pool,
    /// accepts connections (one thread per in-flight request), then
    /// drains jobs and joins workers on shutdown.
    ///
    /// # Errors
    /// Worker-thread spawn failures; accept errors are retried.
    pub fn run(self) -> std::io::Result<()> {
        let shared = self.shared;
        let mut workers = Vec::with_capacity(shared.workers);
        for i in 0..shared.workers {
            let shared = shared.clone();
            workers.push(
                std::thread::Builder::new().name(format!("simap-serve-worker-{i}")).spawn(
                    move || {
                        shared.workers_alive.fetch_add(1, Ordering::AcqRel);
                        // Decrement even if the loop unwinds, so healthz
                        // liveness reflects a lost worker.
                        struct Alive<'a>(&'a AtomicUsize);
                        impl Drop for Alive<'_> {
                            fn drop(&mut self) {
                                self.0.fetch_sub(1, Ordering::AcqRel);
                            }
                        }
                        let _alive = Alive(&shared.workers_alive);
                        worker_loop(&shared);
                    },
                )?,
            );
        }

        for stream in self.listener.incoming() {
            if shared.shutdown.load(Ordering::Acquire) {
                break;
            }
            let Ok(stream) = stream else {
                // Persistent accept errors (fd exhaustion, EMFILE) would
                // otherwise busy-spin this loop at 100% CPU, starving the
                // very connection threads that must finish to free fds.
                std::thread::sleep(Duration::from_millis(10));
                continue;
            };
            let guard = ConnGuard::new(shared.clone());
            let shared = shared.clone();
            let spawned =
                std::thread::Builder::new().name("simap-serve-conn".to_string()).spawn(move || {
                    let _guard = guard;
                    handle_connection(&shared, stream);
                });
            if spawned.is_err() {
                // Thread exhaustion: shed the connection (the guard of
                // the failed spawn already decremented on drop).
                continue;
            }
        }

        // Drain: workers finish the accepted queue, then exit.
        shared.queue.wake_all();
        for worker in workers {
            let _ = worker.join();
        }
        // Give in-flight connection threads (writing final responses) a
        // bounded window to finish.
        let deadline = Instant::now() + Duration::from_secs(5);
        while shared.open_connections.load(Ordering::Acquire) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        Ok(())
    }
}

/// RAII open-connection counter (so shutdown can wait for responses).
struct ConnGuard {
    shared: Arc<Shared>,
}

impl ConnGuard {
    fn new(shared: Arc<Shared>) -> Self {
        shared.open_connections.fetch_add(1, Ordering::AcqRel);
        ConnGuard { shared }
    }
}

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.shared.open_connections.fetch_sub(1, Ordering::AcqRel);
    }
}

fn error_body(message: &str) -> String {
    format!("{{\"error\":{}}}\n", json::quote(message))
}

/// Sends a response and tallies its status.
fn send(shared: &Shared, stream: &mut TcpStream, status: u16, body: &str) {
    shared.metrics.count_status(status);
    let _ = respond(stream, status, body);
}

fn endpoint_of(request: &Request) -> Endpoint {
    match request.path.as_str() {
        "/synthesize" => Endpoint::Synthesize,
        "/stg" => Endpoint::Stg,
        "/batch" => Endpoint::Batch,
        "/benchmarks" => Endpoint::Benchmarks,
        "/healthz" => Endpoint::Healthz,
        "/metrics" => Endpoint::Metrics,
        path if path.starts_with("/jobs/") => Endpoint::Jobs,
        _ => Endpoint::Other,
    }
}

fn handle_connection(shared: &Shared, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(60)));
    let _ = stream.set_nodelay(true);
    let request = match read_request(&mut stream) {
        Ok(request) => request,
        // Malformed requests still count (as `other`) so that
        // `sum(by_status) <= requests.total` holds for every dashboard
        // computing error rates off /metrics. Disconnects get neither a
        // request nor a status tally — nothing was answered.
        Err(ReadError::Disconnected) => return,
        Err(ReadError::Bad(message)) => {
            shared.metrics.count_request(Endpoint::Other);
            send(shared, &mut stream, 400, &error_body(&message));
            return;
        }
        Err(ReadError::TooLarge(message)) => {
            shared.metrics.count_request(Endpoint::Other);
            send(shared, &mut stream, 413, &error_body(&message));
            return;
        }
    };
    shared.metrics.count_request(endpoint_of(&request));

    // Gateway admission guards everything except the liveness and
    // observability routes (`/healthz`, `/metrics` stay open so load
    // balancers and dashboards keep working when keys rotate or the
    // breaker sheds). Only the enqueueing routes are subject to rate
    // limiting and the breaker; polling an async job is always free.
    let queues_work = matches!(
        (request.method.as_str(), request.path.as_str()),
        ("POST", "/synthesize" | "/stg" | "/batch")
    );
    let protected = queues_work
        || matches!((request.method.as_str(), request.path.as_str()), ("GET", "/benchmarks"))
        || (request.method == "GET" && request.path.starts_with("/jobs/"));
    let ctx = if protected {
        match shared.gateway.admit(request.api_key.clone(), queues_work) {
            Ok(ctx) => Some(ctx),
            Err(rejected) => {
                let (rejection, _) = *rejected;
                shared.metrics.count_status(rejection.status);
                let _ = respond_retry(
                    &mut stream,
                    rejection.status,
                    rejection.retry_after,
                    &error_body(&rejection.message),
                );
                return;
            }
        }
    } else {
        None
    };

    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => {
            let body = format!(
                "{{\"status\":\"ok\",\"queue_depth\":{},\"queue_limit\":{},\"breaker\":{},\
                 \"workers\":{},\"workers_alive\":{}}}\n",
                shared.queue.depth(),
                shared.queue_limit,
                json::quote(shared.gateway.breaker_state().as_str()),
                shared.workers,
                shared.workers_alive.load(Ordering::Acquire),
            );
            send(shared, &mut stream, 200, &body);
        }
        ("GET", "/metrics") => {
            let body = shared.metrics.render(
                metrics::QueueGauges {
                    depth: shared.queue.depth(),
                    limit: shared.queue_limit,
                    workers: shared.workers,
                    alive: shared.workers_alive.load(Ordering::Acquire),
                    expired: shared.jobs.expired_total(),
                },
                &shared.gateway.metrics_json(),
            );
            send(shared, &mut stream, 200, &body);
        }
        ("GET", "/benchmarks") => match shared.benchmarks_listing() {
            Ok(doc) => send(shared, &mut stream, 200, &format!("{doc}\n")),
            Err(e) => send(shared, &mut stream, 500, &error_body(&e.to_string())),
        },
        ("GET", path) if path.starts_with("/jobs/") => job_status(shared, &mut stream, path),
        ("POST", "/synthesize") => {
            match api::parse_synthesize(&request.body, shared.engine.config()) {
                Ok((work, mode)) => {
                    submit(shared, &mut stream, work, mode, ctx.expect("work route is protected"));
                }
                Err(message) => {
                    // The admitted request never reached the queue, so a
                    // half-open probe learned nothing: free the slot.
                    if ctx.is_some_and(|c| c.breaker_probe) {
                        shared.gateway.probe_abandoned();
                    }
                    send(shared, &mut stream, 400, &error_body(&message));
                }
            }
        }
        ("POST", "/stg") => match api::parse_stg(&request.body, shared.engine.config()) {
            Ok((work, mode)) => {
                submit(shared, &mut stream, work, mode, ctx.expect("work route is protected"));
            }
            Err(message) => {
                if ctx.is_some_and(|c| c.breaker_probe) {
                    shared.gateway.probe_abandoned();
                }
                send(shared, &mut stream, 400, &error_body(&message));
            }
        },
        ("POST", "/batch") => match api::parse_batch(&request.body, shared.engine.config()) {
            Ok((work, mode)) => {
                submit(shared, &mut stream, work, mode, ctx.expect("work route is protected"));
            }
            Err(message) => {
                if ctx.is_some_and(|c| c.breaker_probe) {
                    shared.gateway.probe_abandoned();
                }
                send(shared, &mut stream, 400, &error_body(&message));
            }
        },
        (_, "/healthz" | "/metrics" | "/benchmarks" | "/synthesize" | "/stg" | "/batch") => {
            send(shared, &mut stream, 405, &error_body("method not allowed"));
        }
        (_, path) if path.starts_with("/jobs/") => {
            send(shared, &mut stream, 405, &error_body("method not allowed"));
        }
        _ => send(shared, &mut stream, 404, &error_body("not found")),
    }
}

fn job_status(shared: &Shared, stream: &mut TcpStream, path: &str) {
    let id = path
        .strip_prefix("/jobs/")
        .and_then(|rest| rest.strip_prefix('j'))
        .and_then(|digits| digits.parse::<u64>().ok());
    let Some((status, result, error)) = id.and_then(|id| shared.jobs.status(id)) else {
        send(shared, stream, 404, &error_body("unknown job"));
        return;
    };
    let id = id.expect("status implies a parsed id");
    let body = match (status, result, error) {
        (JobStatus::Done, Some(result), _) => {
            format!("{{\"job\":\"j{id}\",\"status\":\"done\",\"result\":{}}}\n", result.trim_end())
        }
        (JobStatus::Failed, _, Some(failure)) => format!(
            "{{\"job\":\"j{id}\",\"status\":\"failed\",\"error\":{}}}\n",
            json::quote(&failure.message)
        ),
        (status, _, _) => format!("{{\"job\":\"j{id}\",\"status\":\"{}\"}}\n", status.as_str()),
    };
    send(shared, stream, 200, &body);
}

fn submit(
    shared: &Shared,
    stream: &mut TcpStream,
    work: Work,
    mode: Mode,
    mut ctx: RequestContext,
) {
    // Consult the persistent result cache before anything is enqueued.
    // Streaming requests bypass the read path (their contract is a live
    // event feed, not just the final report), but their results are
    // still stored on completion like everyone else's.
    let fingerprint = shared.gateway.cache_enabled().then(|| api::work_fingerprint(&work));
    if mode != Mode::Stream {
        if let Some((digest, canon)) = &fingerprint {
            if let Some(body) = shared.gateway.cache_lookup(*digest, canon) {
                ctx.record("rescache", "hit");
                if ctx.breaker_probe {
                    // Nothing was enqueued, so the probe learned nothing
                    // about queue health: free the slot without a verdict.
                    shared.gateway.probe_abandoned();
                }
                match mode {
                    Mode::Sync => send(shared, stream, 200, &body),
                    _ => {
                        // Async hit: a pre-completed job, pollable like
                        // any other — the 202 contract is unchanged.
                        let id = shared.jobs.create(None);
                        shared.jobs.complete(id, Ok(body));
                        send(
                            shared,
                            stream,
                            202,
                            &format!("{{\"job\":\"j{id}\",\"status\":\"queued\"}}\n"),
                        );
                    }
                }
                return;
            }
            ctx.record("rescache", "miss");
        }
    }

    let (stream_tx, stream_rx) = match mode {
        Mode::Stream => {
            let (tx, rx) = std::sync::mpsc::channel();
            (Some(tx), Some(rx))
        }
        _ => (None, None),
    };
    let id = shared.jobs.create(stream_tx);
    // The shutdown flag is checked inside `submit`, under the queue lock,
    // so an accepted job is guaranteed a worker (no submit-after-drain
    // race; see `Queue::submit`).
    let spec = JobSpec { id, work, client: ctx.client.clone(), fingerprint };
    match shared.queue.submit(spec, &shared.shutdown) {
        Ok(()) => {
            // The queue accepted work while half-open: the service is
            // admitting again — close the breaker.
            if ctx.breaker_probe {
                shared.gateway.probe_result(true);
            }
            shared.gateway.job_started(&ctx.client);
        }
        Err(queue::SubmitError::ShuttingDown) => {
            shared.jobs.discard(id);
            if ctx.breaker_probe {
                shared.gateway.probe_abandoned();
            }
            send(shared, stream, 503, &error_body("shutting down"));
            return;
        }
        Err(queue::SubmitError::Full) => {
            shared.jobs.discard(id);
            shared.metrics.jobs_rejected.fetch_add(1, Ordering::Relaxed);
            // Queue saturation is the breaker's primary distress signal;
            // a half-open probe hitting a still-full queue re-opens it.
            if ctx.breaker_probe {
                shared.gateway.probe_result(false);
            } else {
                shared.gateway.record_failure();
            }
            let body = format!(
                "{{\"error\":\"queue full\",\"queue_depth\":{},\"queue_limit\":{}}}\n",
                shared.queue.depth(),
                shared.queue_limit
            );
            shared.metrics.count_status(429);
            let _ = respond_retry(stream, 429, Some(1), &body);
            return;
        }
    }
    shared.metrics.jobs_submitted.fetch_add(1, Ordering::Relaxed);

    match mode {
        Mode::Async => {
            send(shared, stream, 202, &format!("{{\"job\":\"j{id}\",\"status\":\"queued\"}}\n"));
        }
        Mode::Sync => {
            let (status, result, error) = shared.jobs.wait_done(id);
            match (status, result) {
                (JobStatus::Done, Some(body)) => send(shared, stream, 200, &body),
                _ => {
                    // 422 = the flow rejected this request; 500 = a
                    // server-side bug (worker panic) — keep the split so
                    // error-rate dashboards classify correctly.
                    let failure = error.unwrap_or_else(|| queue::JobFailure {
                        message: "job failed".to_string(),
                        internal: true,
                    });
                    let status = if failure.internal { 500 } else { 422 };
                    send(shared, stream, status, &error_body(&failure.message));
                }
            }
        }
        Mode::Stream => {
            shared.metrics.count_status(200);
            if start_ndjson(stream).is_err() {
                return;
            }
            // The gateway's decision trail leads the stream, so clients
            // see how their request was admitted before the flow starts.
            for event in &ctx.events {
                let _ = writeln!(stream, "{}", event.to_json());
            }
            let _ = writeln!(stream, "{{\"event\":\"job\",\"job\":\"j{id}\"}}");
            let _ = stream.flush();
            let rx = stream_rx.expect("stream mode created a channel");
            // Lines arrive until the worker completes the job and the
            // table drops the sender.
            for line in rx {
                if writeln!(stream, "{line}").and_then(|()| stream.flush()).is_err() {
                    // Client went away; the worker keeps running (its
                    // sends just fail) and the job record stays pollable.
                    return;
                }
            }
        }
    }
}

fn worker_loop(shared: &Shared) {
    while let Some(JobSpec { id, work, client, fingerprint }) = shared.queue.pop(&shared.shutdown) {
        let stream = shared.jobs.mark_running(id);
        // Panic isolation: `g_source` bodies are untrusted network input,
        // and a panicking job must neither kill the worker (permanently
        // shrinking the pool) nor leave its synchronous client blocked in
        // `wait_done` forever.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_work(shared, work, stream.as_ref())
        }))
        .unwrap_or_else(|panic| {
            let message = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "job panicked".to_string());
            Err(queue::JobFailure { message: format!("internal error: {message}"), internal: true })
        });
        match &outcome {
            Ok(body) => {
                // Persist the finished report so a restarted instance (or
                // a sibling on the same --cache-dir) can answer this
                // request byte-identically without re-synthesizing.
                if let Some((digest, canon)) = &fingerprint {
                    shared.gateway.cache_store(*digest, canon, body);
                }
                if let Some(tx) = &stream {
                    let _ =
                        tx.send(format!("{{\"event\":\"report\",\"report\":{}}}", body.trim_end()));
                }
                shared.metrics.jobs_completed.fetch_add(1, Ordering::Relaxed);
            }
            Err(failure) => {
                if let Some(tx) = &stream {
                    let _ = tx.send(format!(
                        "{{\"event\":\"error\",\"error\":{}}}",
                        json::quote(&failure.message)
                    ));
                }
                shared.metrics.jobs_failed.fetch_add(1, Ordering::Relaxed);
                // Worker failures are the breaker's second distress
                // signal, alongside queue-full rejections.
                shared.gateway.record_failure();
            }
        }
        shared.gateway.job_finished(&client);
        shared.jobs.complete(id, outcome);
    }
}

/// Executes one unit of work on the shared engine. The success body is
/// byte-identical to the corresponding CLI `--json` output (including the
/// trailing newline `println!` appends).
fn run_work(
    shared: &Shared,
    work: Work,
    stream: Option<&Sender<String>>,
) -> Result<String, queue::JobFailure> {
    // Flow failures are the *request's* fault (422), never internal.
    let flow_error =
        |e: simap_core::Error| queue::JobFailure { message: e.to_string(), internal: false };
    match work {
        Work::Synthesize { source, config } => {
            let engine = shared.engine.with_config(config.clone());
            let synthesis = match source {
                WorkSource::Benchmark(name) => engine.benchmark(name),
                WorkSource::GSource(text) => engine.g_source(text),
            };
            let metrics = shared.metrics.clone();
            let forward = stream.cloned();
            let mut starts: [Option<Instant>; 7] = [None; 7];
            let synthesis = synthesis.observer(EventObserver::new(move |event| {
                match &event {
                    simap_core::FlowEvent::StageStart { stage, .. } => {
                        starts[metrics::stage_index(*stage)] = Some(Instant::now());
                    }
                    simap_core::FlowEvent::StageEnd { stage } => {
                        if let Some(start) = starts[metrics::stage_index(*stage)].take() {
                            metrics.record_stage(*stage, start.elapsed());
                        }
                    }
                    _ => {}
                }
                if let Some(tx) = &forward {
                    let _ = tx.send(event.to_json());
                }
            }));
            // Mirror the CLI's `map` driver exactly: refutation is data
            // (`verified: false`), not an error.
            let mapped = (|| {
                Ok::<_, simap_core::Error>(synthesis.elaborate()?.covers()?.decompose()?.map())
            })()
            .map_err(flow_error)?;
            let verified =
                if config.verify() { mapped.verify_compat() } else { mapped.skip_verify() };
            let report = verified.report();
            // Surface spill-engine counters (disk traffic, checkpoint
            // activity) on /metrics.
            if let Some(spill) = report.reach.as_ref().and_then(|r| r.spill) {
                shared.metrics.record_spill(&spill);
            }
            Ok(format!("{}\n", report_json(report)))
        }
        Work::Batch { names, limits, config } => {
            let engine = shared.engine.with_config(config);
            let batch = if names.is_empty() { engine.batch_all() } else { engine.batch(names) };
            let rows = batch.limits(limits.clone()).run().map_err(flow_error)?;
            Ok(format!("{}\n", to_json(&limits, &rows)))
        }
    }
}

/// Process-level SIGTERM / SIGINT latch for CLI front-ends.
///
/// The runtime has no dependency to install signal handlers with, so this
/// registers a minimal POSIX `signal(2)` handler (through the C runtime
/// `std` already links) that flips an atomic flag — the only
/// async-signal-safe thing a handler may do here. Front-ends poll
/// [`shutdown_signal::requested`] and call [`ServerHandle::shutdown`]
/// when it flips; see `simap serve`.
pub mod shutdown_signal {
    use std::sync::atomic::{AtomicBool, Ordering};

    static REQUESTED: AtomicBool = AtomicBool::new(false);
    static RELOAD: AtomicBool = AtomicBool::new(false);

    #[cfg(unix)]
    extern "C" fn on_signal(signum: i32) {
        // Only async-signal-safe operations are allowed here; an atomic
        // store qualifies.
        if signum == 1 {
            RELOAD.store(true, Ordering::SeqCst);
        } else {
            REQUESTED.store(true, Ordering::SeqCst);
        }
    }

    /// Installs handlers for SIGINT (ctrl-c) and SIGTERM, which latch
    /// [`requested`], and SIGHUP, which latches [`reload_requested`]
    /// (the conventional "re-read your config" signal — the CLI reloads
    /// the API keyfile on it). A no-op on non-Unix targets.
    #[cfg(unix)]
    pub fn install() {
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        const SIGHUP: i32 = 1;
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        // SAFETY: `signal` is the POSIX C function (the C runtime is
        // already linked by std on unix); the handler only performs an
        // atomic store, which is async-signal-safe.
        unsafe {
            signal(SIGHUP, on_signal);
            signal(SIGINT, on_signal);
            signal(SIGTERM, on_signal);
        }
    }

    /// Installs handlers for SIGHUP/SIGINT/SIGTERM (no-op off Unix).
    #[cfg(not(unix))]
    pub fn install() {}

    /// Whether a termination signal has been received since [`install`].
    pub fn requested() -> bool {
        REQUESTED.load(Ordering::SeqCst)
    }

    /// Takes (and clears) a pending SIGHUP reload request, so each
    /// signal triggers exactly one reload.
    pub fn reload_requested() -> bool {
        RELOAD.swap(false, Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read as _;

    fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(
            stream,
            "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .expect("send request");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read response");
        let status: u16 =
            response.split(' ').nth(1).and_then(|s| s.parse().ok()).expect("status line");
        let body = response.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
        (status, body)
    }

    fn test_server(
        jobs: usize,
        queue_limit: usize,
    ) -> (ServerHandle, std::thread::JoinHandle<std::io::Result<()>>) {
        let server = Server::bind(ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            jobs,
            queue_limit,
            ..ServeConfig::default()
        })
        .expect("bind");
        let handle = server.handle();
        let join = std::thread::spawn(move || server.run());
        (handle, join)
    }

    #[test]
    fn healthz_and_unknown_routes() {
        let (handle, join) = test_server(1, 4);
        let addr = handle.addr();
        let (status, body) = request(addr, "GET", "/healthz", "");
        assert_eq!(status, 200);
        assert!(body.starts_with("{\"status\":\"ok\",\"queue_depth\":"), "{body}");
        assert!(body.contains("\"breaker\":\"closed\""), "{body}");
        assert!(body.contains("\"workers\":1"), "{body}");
        let (status, _) = request(addr, "GET", "/nope", "");
        assert_eq!(status, 404);
        let (status, _) = request(addr, "DELETE", "/healthz", "");
        assert_eq!(status, 405);
        let (status, body) = request(addr, "POST", "/synthesize", "{\"bogus\":1}");
        assert_eq!(status, 400, "{body}");
        handle.shutdown();
        join.join().unwrap().unwrap();
    }

    #[test]
    fn synthesize_and_job_polling() {
        let (handle, join) = test_server(2, 8);
        let addr = handle.addr();
        let (status, body) = request(addr, "POST", "/synthesize", "{\"bench\":\"half\"}");
        assert_eq!(status, 200, "{body}");
        assert!(body.starts_with("{\"name\":\"half\""), "{body}");
        assert!(body.ends_with('\n'));

        let (status, accepted) =
            request(addr, "POST", "/synthesize", "{\"bench\":\"half\",\"async\":true}");
        assert_eq!(status, 202, "{accepted}");
        let id = json::parse(accepted.trim_end())
            .unwrap()
            .get("job")
            .and_then(json::Json::as_str)
            .unwrap()
            .to_string();
        let deadline = Instant::now() + Duration::from_secs(60);
        let done = loop {
            let (status, poll) = request(addr, "GET", &format!("/jobs/{id}"), "");
            assert_eq!(status, 200, "{poll}");
            let doc = json::parse(poll.trim_end()).unwrap();
            match doc.get("status").and_then(json::Json::as_str) {
                Some("done") => break doc,
                Some("failed") => panic!("job failed: {poll}"),
                _ => {
                    assert!(Instant::now() < deadline, "job never finished");
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        };
        assert_eq!(
            done.get("result").unwrap().emit() + "\n",
            body,
            "polled result matches the synchronous body"
        );
        let (status, _) = request(addr, "GET", "/jobs/j999999", "");
        assert_eq!(status, 404);
        handle.shutdown();
        join.join().unwrap().unwrap();
    }

    #[test]
    fn stg_raw_and_envelope_match_synthesize() {
        let (handle, join) = test_server(1, 4);
        let addr = handle.addr();
        let raw = ".model ring\n.inputs a\n.outputs b\n.graph\na+ b+\nb+ a-\na- b-\nb- a+\n\
                   .marking { <b-,a+> }\n.end\n";
        let (status, raw_body) = request(addr, "POST", "/stg", raw);
        assert_eq!(status, 200, "{raw_body}");
        assert!(raw_body.starts_with("{\"name\":\"ring\""), "{raw_body}");

        // The JSON envelope and /synthesize's `g_source` answer with the
        // exact same bytes.
        let quoted = json::Json::Str(raw.to_string()).emit();
        let (status, env_body) = request(addr, "POST", "/stg", &format!("{{\"source\":{quoted}}}"));
        assert_eq!(status, 200, "{env_body}");
        assert_eq!(env_body, raw_body);
        let (status, synth_body) =
            request(addr, "POST", "/synthesize", &format!("{{\"g_source\":{quoted}}}"));
        assert_eq!(status, 200, "{synth_body}");
        assert_eq!(synth_body, raw_body);

        // A spec that fails to parse is a flow failure (422) carrying the
        // parser's line/column; envelope mistakes are 400s; wrong method
        // is 405.
        let (status, err) = request(addr, "POST", "/stg", ".inputsx y\n.end\n");
        assert_eq!(status, 422, "{err}");
        assert!(err.contains("line 1"), "{err}");
        let (status, err) = request(addr, "POST", "/stg", "{\"nope\":1}");
        assert_eq!(status, 400, "{err}");
        let (status, _) = request(addr, "GET", "/stg", "");
        assert_eq!(status, 405);
        handle.shutdown();
        join.join().unwrap().unwrap();
    }

    #[test]
    fn unknown_benchmark_is_422() {
        let (handle, join) = test_server(1, 4);
        let addr = handle.addr();
        let (status, body) = request(addr, "POST", "/synthesize", "{\"bench\":\"nope\"}");
        assert_eq!(status, 422, "{body}");
        assert!(body.contains("unknown benchmark"), "{body}");
        handle.shutdown();
        join.join().unwrap().unwrap();
    }
}
