//! `serve-stg`: `simap serve` with a fresh cache directory per pass, driven
//! by one closed-loop client with one connection at a time: each caller
//! waits for its reply, and on a two-core host a second concurrent client
//! competes with the server's threads and widens the spread. A cold phase
//! POSTs the seed's unique specs to `/stg` (each a result-cache miss plus a
//! store); a hit phase re-posts them while they are all still resident
//! under the default cache limit (each a result-cache read, no synthesis).

use crate::gen;
use crate::stats::{self, Rng};
use crate::trace::Tracer;
use crate::{flow, Mean, Outcome, Passes};
use simap::core::json::{self, Json};
use simap::{Config, Engine, Synthesis};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Specs per pass: under the server's default 256-entry result cache, so
/// the hit phase re-posts only resident specs (checked every pass).
const CORPUS: usize = 240;
/// Times each spec is re-posted in the hit phase.
const HIT_ROUNDS: usize = 3;
/// Server starts per pass, each a `setup_s` sample.
const STARTS: usize = 8;

/// One answered request: spec index, latency in seconds, status, body.
type Answer = (usize, f64, u16, String);

pub fn run(seed: u64, seconds: f64, t: &mut Tracer, simap_bin: &Path) -> Result<Outcome, String> {
    let corpus = gen::serve_corpus(seed, &gen::serve_shapes(CORPUS));
    let texts: Vec<&str> = corpus.iter().map(String::as_str).collect();
    let mut out = Outcome::new(stats::digest(texts.iter().map(|s| s.as_bytes())));
    // Each pass sends the specs in a fresh shuffled order, but the sequence
    // of orders does not depend on the seed: the order decides how the
    // server's heap fragments, and so its peak RSS, which would otherwise
    // differ between seeds by several percent.
    let mut rng = Rng::new(0);

    let mut setup = Vec::new();
    let mut rss = Vec::new();
    let mut rps = Vec::new();
    let mut cold: Vec<Vec<f64>> = vec![Vec::new(); CORPUS];
    let (mut cold_all, mut hit_all) = (Vec::new(), Vec::new());
    let mut served: Vec<Option<String>> = vec![None; CORPUS];
    let (mut hit_requests, mut hits, mut stores, mut evictions, mut rejected) = (0, 0, 0, 0, 0);
    let mut passes = Passes::new(seconds, t.on());
    while passes.next() {
        let dir = Path::new(".perfbench-run").join(format!(
            "serve-{}-{}",
            std::process::id(),
            passes.index()
        ));
        // A server start takes a few milliseconds, so each pass starts
        // `STARTS` servers one after another, each on a fresh cache
        // directory, times every start and keeps the last.
        let mut started: Option<(Server, PathBuf)> = None;
        for start_index in 0..STARTS {
            if let Some((old, old_dir)) = started.take() {
                stop(old, &old_dir);
            }
            let dir = dir.with_extension(start_index.to_string());
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            let start = Instant::now();
            let server = Server::start(simap_bin, &dir);
            setup.push(start.elapsed().as_secs_f64());
            match server {
                Ok(server) => started = Some((server, dir)),
                Err(e) => {
                    let _ = std::fs::remove_dir_all(&dir);
                    return Err(e);
                }
            }
        }
        let (server, dir) = started.expect("STARTS is at least 1");

        let result = (|| -> Result<(), String> {
            let before = server.counters()?;
            let mut order: Vec<usize> = (0..CORPUS).collect();
            rng.shuffle(&mut order);
            let start = Instant::now();
            let answers = closed_loop(&server.addr, &order, &texts);
            rps.push(CORPUS as f64 / start.elapsed().as_secs_f64());
            let after_cold = server.counters()?;
            let mut repeats: Vec<usize> = (0..HIT_ROUNDS).flat_map(|_| 0..CORPUS).collect();
            rng.shuffle(&mut repeats);
            let hit_answers = closed_loop(&server.addr, &repeats, &texts);
            let after_hits = server.counters()?;
            rss.push(stats::peak_rss_mb(Some(server.child.id()))?);

            for (i, latency, status, body) in &answers {
                out.attempted += 1;
                cold[*i].push(*latency);
                cold_all.push(*latency);
                if *status != 200 {
                    out.fail(format!("spec {i}: cold status {status}: {}", body.trim_end()));
                    continue;
                }
                match &served[*i] {
                    None => served[*i] = Some(body.clone()),
                    Some(first) if first != body => {
                        out.fail(format!("spec {i}: body changed between passes"))
                    }
                    Some(_) => {}
                }
            }
            for (i, latency, status, body) in &hit_answers {
                out.attempted += 1;
                hit_all.push(*latency);
                if *status != 200 || served[*i].as_deref() != Some(body.as_str()) {
                    out.fail(format!("spec {i}: hit answered {status}, not the cold body"));
                }
            }
            // The cache counters must show every cold request as a miss
            // plus a store and every hit-phase request as a hit, with
            // nothing evicted and no request rejected.
            let cold_delta = after_cold.minus(&before);
            let hit_delta = after_hits.minus(&after_cold);
            let cold_seen = (cold_delta.misses, cold_delta.stores, cold_delta.hits);
            if cold_seen != (CORPUS, CORPUS, 0)
                || (cold_delta.evictions, cold_delta.rejected) != (0, 0)
            {
                out.fail(format!("cold phase rescache delta {cold_delta:?}"));
            }
            let hit_seen =
                (hit_delta.hits, hit_delta.misses, hit_delta.evictions, hit_delta.rejected);
            if hit_seen != (repeats.len(), 0, 0, 0) {
                out.fail(format!(
                    "hit phase rescache delta {hit_delta:?} for {} requests",
                    repeats.len()
                ));
            }
            hit_requests += repeats.len();
            hits += hit_delta.hits;
            stores += cold_delta.stores;
            evictions += cold_delta.evictions + hit_delta.evictions;
            rejected += cold_delta.rejected + hit_delta.rejected;
            Ok(())
        })();
        stop(server, &dir);
        result?;
    }
    let _ = std::fs::remove_dir(".perfbench-run");

    // Independent check, after the timed passes: every served body is
    // byte-identical to the in-process report of the same spec.
    let engine = Engine::new(Config::default());
    let mut inproc = vec![0.0; CORPUS];
    let mut traced_s = vec![Vec::new(); CORPUS];
    let mut reports = Vec::new();
    for (i, text) in texts.iter().enumerate() {
        let start = Instant::now();
        let reference = engine.g_source(*text).run().map_err(|e| format!("spec {i}: {e}"))?;
        inproc[i] = start.elapsed().as_secs_f64();
        let body = flow::report_body(&reference);
        if served[i].as_deref() != Some(body.as_str()) {
            out.fail(format!("spec {i}: served body differs from the in-process report"));
        }
        reports.push(json::parse(body.trim_end()).map_err(|e| e.to_string())?);
        if t.on() {
            let start = Instant::now();
            let verified = flow::run(t, i, Synthesis::from_g_source(*text))?;
            traced_s[i].push(start.elapsed().as_secs_f64());
            flow::replay_layers(t, i, text, &verified);
        }
    }

    out.quality(&reports);
    out.record("passes", passes.index() as f64, "count");
    out.record("cold_p50_ms", 1e3 * stats::median(&cold_all), "ms");
    out.record("cold_p95_ms", 1e3 * stats::tail_percentile(&cold_all, 0.95)?, "ms");
    out.record("hit_p50_ms", 1e3 * stats::median(&hit_all), "ms");
    out.record("hit_p95_ms", 1e3 * stats::tail_percentile(&hit_all, 0.95)?, "ms");
    out.record("stg_rps", stats::median(&rps), "1/s");
    out.record("serve.rescache_evictions", evictions as f64, "count");
    out.record("serve.rejected", rejected as f64, "count");
    out.setup_s = stats::median(&setup);
    out.rss_mb = stats::median(&rss);
    if t.on() {
        let cold_median: Vec<f64> = cold.iter().map(|c| stats::median(c)).collect();
        let overhead: Vec<f64> = cold_median.iter().zip(&inproc).map(|(c, f)| c - f).collect();
        let share: Vec<f64> = overhead.iter().zip(&cold_median).map(|(o, c)| o / c).collect();
        out.record("serve.overhead_p50_ms", 1e3 * stats::median(&overhead), "ms");
        out.layer("serve.overhead_share", stats::median(&share));
        out.layer("serve.hit_ratio", hits as f64 / hit_requests.max(1) as f64);
        out.layer("serve.hit_speedup", stats::median(&cold_all) / stats::median(&hit_all));
        out.layer("serve.rescache_stores", stores as f64);
        let untraced: Vec<Vec<f64>> = inproc.iter().map(|s| vec![*s]).collect();
        out.traced_items(&untraced, &traced_s)?;
        out.target_share = t.shares_under("flow").get("core.decompose").copied().unwrap_or(0.0);
    } else {
        out.items("cold_latency_s", &cold, Mean::Arithmetic)?;
    }
    Ok(out)
}

/// Stops a server and removes its cache directory.
fn stop(server: Server, dir: &Path) {
    drop(server);
    let _ = std::fs::remove_dir_all(dir);
}

/// Sends `order` (indices into `texts`) as `POST /stg` requests, one
/// connection per request as the server's protocol has it, each only after
/// the previous answer is in.
fn closed_loop(addr: &str, order: &[usize], texts: &[&str]) -> Vec<Answer> {
    order
        .iter()
        .map(|&i| {
            let start = Instant::now();
            let (status, body) = http(addr, "POST", "/stg", texts[i]).unwrap_or_else(|e| (0, e));
            (i, start.elapsed().as_secs_f64(), status, body)
        })
        .collect()
}

/// One HTTP/1.1 exchange; the server closes the connection after its reply.
fn http(addr: &str, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    stream.set_read_timeout(Some(Duration::from_secs(120))).map_err(|e| e.to_string())?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n",
        body.len()
    );
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body.as_bytes()))
        .map_err(|e| e.to_string())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(|e| e.to_string())?;
    let raw = String::from_utf8(raw).map_err(|e| e.to_string())?;
    let (head, body) = raw.split_once("\r\n\r\n").ok_or("response without a header end")?;
    let status =
        head.split(' ').nth(1).and_then(|s| s.parse().ok()).ok_or("response without a status")?;
    Ok((status, body.to_string()))
}

/// Result-cache and rejection counters read from `/metrics`.
#[derive(Debug, Default)]
struct Counters {
    hits: usize,
    misses: usize,
    stores: usize,
    evictions: usize,
    rejected: usize,
}

impl Counters {
    fn minus(&self, before: &Counters) -> Counters {
        Counters {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            stores: self.stores - before.stores,
            evictions: self.evictions - before.evictions,
            rejected: self.rejected - before.rejected,
        }
    }
}

/// A running `simap serve` child.
struct Server {
    child: Child,
    addr: String,
    drain: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Starts the server on an ephemeral port and returns once `/healthz`
    /// answers 200. On any error the child is stopped (by `Drop`).
    fn start(bin: &Path, cache_dir: &Path) -> Result<Server, String> {
        let child = Command::new(bin)
            .args(["serve", "--addr", "127.0.0.1:0", "--cache-dir"])
            .arg(cache_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut server = Server { child, addr: String::new(), drain: None };
        let mut stderr = BufReader::new(server.child.stderr.take().expect("piped stderr"));
        let mut line = String::new();
        server.addr = loop {
            line.clear();
            if stderr.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
                return Err("simap serve exited before listening".to_string());
            }
            if let Some(rest) = line.trim().strip_prefix("simap serve: listening on http://") {
                break rest.to_string();
            }
        };
        // Keep draining stderr so the server never blocks on a full pipe.
        server.drain = Some(std::thread::spawn(move || {
            let mut sink = Vec::new();
            let _ = stderr.read_to_end(&mut sink);
        }));
        let deadline = Instant::now() + Duration::from_secs(30);
        while !matches!(http(&server.addr, "GET", "/healthz", ""), Ok((200, _))) {
            if Instant::now() > deadline {
                return Err("simap serve never answered /healthz".to_string());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        Ok(server)
    }

    fn counters(&self) -> Result<Counters, String> {
        let (status, body) = http(&self.addr, "GET", "/metrics", "")?;
        if status != 200 {
            return Err(format!("/metrics answered {status}"));
        }
        let doc = json::parse(body.trim_end()).map_err(|e| e.to_string())?;
        let gateway = doc.get("gateway").ok_or("/metrics has no gateway section")?;
        let cache = gateway
            .get("rescache")
            .filter(|c| !c.is_null())
            .ok_or("no result cache in /metrics")?;
        let field = |doc: &Json, key: &str| doc.get(key).and_then(Json::as_usize).unwrap_or(0);
        let layer_rejections: usize = gateway
            .as_object()
            .unwrap_or(&[])
            .iter()
            .filter_map(|(_, layer)| layer.get("rejected").and_then(Json::as_usize))
            .sum();
        let queue_rejections = doc.get("queue").map_or(0, |q| field(q, "rejected"));
        Ok(Counters {
            hits: field(cache, "hits"),
            misses: field(cache, "misses"),
            stores: field(cache, "stores"),
            evictions: field(cache, "evictions"),
            rejected: layer_rejections + queue_rejections,
        })
    }
}

/// Stopping: SIGTERM (the server drains and exits), a wait of up to ten
/// seconds, then a kill; the child is always reaped and the stderr drain
/// joined.
impl Drop for Server {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = Command::new("kill").arg("-TERM").arg(self.child.id().to_string()).status();
            let deadline = Instant::now() + Duration::from_secs(10);
            while matches!(self.child.try_wait(), Ok(None)) && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(2));
            }
            if matches!(self.child.try_wait(), Ok(None)) {
                let _ = self.child.kill();
            }
        }
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}
