//! Integration tests of `simap serve` over a real TCP socket: responses
//! byte-identical to the CLI's `--json` output, ≥4 concurrent clients
//! sharing one engine, queue-full backpressure (429), async job
//! polling, NDJSON streaming, `/metrics` accounting and graceful
//! shutdown.

use simap::core::json::{self, Json};
use simap::serve::{ServeConfig, Server, ServerHandle};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::Command;
use std::time::{Duration, Instant};

/// One HTTP/1.1 request over a fresh connection; returns (status, body).
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
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
    let body = response.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    (status, body)
}

fn start(
    jobs: usize,
    queue_limit: usize,
) -> (ServerHandle, std::thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        jobs,
        queue_limit,
        ..ServeConfig::default()
    })
    .expect("bind ephemeral port");
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run());
    (handle, join)
}

fn poll_until_finished(addr: SocketAddr, job: &str) -> Json {
    let deadline = Instant::now() + Duration::from_secs(600);
    loop {
        let (status, body) = http(addr, "GET", &format!("/jobs/{job}"), "");
        assert_eq!(status, 200, "{body}");
        let doc = json::parse(body.trim_end()).expect("job status is JSON");
        match doc.get("status").and_then(Json::as_str) {
            Some("done") | Some("failed") => return doc,
            _ => {
                assert!(Instant::now() < deadline, "job {job} never finished");
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
}

fn simap_cli(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_simap")).args(args).output().expect("binary runs")
}

#[test]
fn synthesize_and_batch_are_byte_identical_to_the_cli() {
    let (handle, join) = start(2, 16);
    let addr = handle.addr();

    // POST /synthesize == `simap map --bench half --json` (stdout bytes,
    // including the trailing newline), at the default and a custom limit.
    let (status, body) = http(addr, "POST", "/synthesize", "{\"bench\":\"half\"}");
    assert_eq!(status, 200, "{body}");
    let cli = simap_cli(&["map", "--bench", "half", "--json"]);
    assert_eq!(body.as_bytes(), &cli.stdout[..], "serve response != CLI stdout");

    let (status, body) =
        http(addr, "POST", "/synthesize", "{\"bench\":\"hazard\",\"literal_limit\":3}");
    assert_eq!(status, 200, "{body}");
    let cli = simap_cli(&["map", "--bench", "hazard", "--json", "--limit", "3"]);
    assert_eq!(body.as_bytes(), &cli.stdout[..]);

    // POST /batch == `simap bench run --json`.
    let (status, body) = http(
        addr,
        "POST",
        "/batch",
        "{\"names\":[\"half\",\"hazard\"],\"limits\":[2],\"verify\":false}",
    );
    assert_eq!(status, 200, "{body}");
    let cli =
        simap_cli(&["bench", "run", "half", "hazard", "--limits", "2", "--no-verify", "--json"]);
    assert_eq!(body.as_bytes(), &cli.stdout[..], "batch response != CLI stdout");

    // GET /benchmarks == `simap bench list --json`.
    let (status, body) = http(addr, "GET", "/benchmarks", "");
    assert_eq!(status, 200);
    let cli = simap_cli(&["bench", "list", "--json"]);
    assert_eq!(body.as_bytes(), &cli.stdout[..], "benchmark listing != CLI stdout");

    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn concurrent_clients_share_one_engine() {
    let (handle, join) = start(4, 64);
    let addr = handle.addr();
    let benches = ["half", "hazard", "dff", "chu133"];

    // Reference bodies, sequentially.
    let mut reference = Vec::new();
    for name in benches {
        let (status, body) =
            http(addr, "POST", "/synthesize", &format!("{{\"bench\":\"{name}\"}}"));
        assert_eq!(status, 200, "{body}");
        reference.push(body);
    }

    // Six concurrent clients, each hammering every benchmark twice: every
    // response must be byte-identical to the sequential reference.
    std::thread::scope(|scope| {
        for _client in 0..6 {
            scope.spawn(|| {
                for _round in 0..2 {
                    for (i, name) in benches.iter().enumerate() {
                        let (status, body) =
                            http(addr, "POST", "/synthesize", &format!("{{\"bench\":\"{name}\"}}"));
                        assert_eq!(status, 200, "{body}");
                        assert_eq!(body, reference[i], "response for {name} diverged");
                    }
                }
            });
        }
    });

    let (status, metrics) = http(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let doc = json::parse(metrics.trim_end()).expect("metrics is JSON");
    assert!(doc.get("engine").is_none(), "the engine keeps no cache to report");
    // Request accounting and stage latency histograms are populated.
    let requests = doc.get("requests").expect("requests section");
    let synth = requests.get("by_endpoint").unwrap().get("synthesize").unwrap().as_usize().unwrap();
    assert_eq!(synth, 4 + 6 * 2 * benches.len());
    let stage = doc.get("stage_latency_us").expect("stage histograms");
    for required in ["elaborate", "covers", "decompose", "map", "verify"] {
        let hist = stage.get(required).unwrap_or_else(|| panic!("no {required} histogram"));
        assert!(hist.get("count").and_then(Json::as_usize).unwrap() > 0);
    }

    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn full_queue_backpressure_is_429() {
    // One worker, queue of one: occupy the worker with a slow batch, park
    // a second job in the queue, and the third submission must bounce.
    let (handle, join) = start(1, 1);
    let addr = handle.addr();

    let (status, accepted) = http(
        addr,
        "POST",
        "/batch",
        "{\"names\":[\"mr1\",\"tsend-bm\"],\"limits\":[2,3],\"verify\":false,\"async\":true}",
    );
    assert_eq!(status, 202, "{accepted}");
    let blocker = json::parse(accepted.trim_end())
        .unwrap()
        .get("job")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();

    // Wait until the worker has actually claimed the blocker, so the
    // queue is empty and the next submission deterministically parks.
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (_, body) = http(addr, "GET", &format!("/jobs/{blocker}"), "");
        let status = json::parse(body.trim_end())
            .unwrap()
            .get("status")
            .and_then(Json::as_str)
            .map(str::to_string);
        match status.as_deref() {
            Some("running") => break,
            Some("done") | Some("failed") => panic!("blocker finished too early: {body}"),
            _ => {
                assert!(Instant::now() < deadline, "blocker never started");
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }

    let (status, parked) = http(addr, "POST", "/synthesize", "{\"bench\":\"half\",\"async\":true}");
    assert_eq!(status, 202, "{parked}");
    let parked = json::parse(parked.trim_end())
        .unwrap()
        .get("job")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();

    let (status, rejected) =
        http(addr, "POST", "/synthesize", "{\"bench\":\"half\",\"async\":true}");
    assert_eq!(status, 429, "{rejected}");
    let rejected = json::parse(rejected.trim_end()).unwrap();
    assert_eq!(rejected.get("error").and_then(Json::as_str), Some("queue full"));
    assert_eq!(rejected.get("queue_limit").and_then(Json::as_usize), Some(1));

    // Everything accepted still completes; the rejection is counted.
    let blocker_done = poll_until_finished(addr, &blocker);
    assert_eq!(blocker_done.get("status").and_then(Json::as_str), Some("done"));
    let parked_done = poll_until_finished(addr, &parked);
    assert_eq!(parked_done.get("status").and_then(Json::as_str), Some("done"));
    let (_, metrics) = http(addr, "GET", "/metrics", "");
    let doc = json::parse(metrics.trim_end()).unwrap();
    let queue = doc.get("queue").unwrap();
    assert!(queue.get("rejected").and_then(Json::as_usize).unwrap() >= 1);
    assert_eq!(queue.get("limit").and_then(Json::as_usize), Some(1));

    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn async_polling_matches_the_sync_body_and_unknown_jobs_404() {
    let (handle, join) = start(2, 8);
    let addr = handle.addr();

    let (_, sync_body) = http(addr, "POST", "/synthesize", "{\"bench\":\"dff\"}");
    let (status, accepted) =
        http(addr, "POST", "/synthesize", "{\"bench\":\"dff\",\"async\":true}");
    assert_eq!(status, 202);
    let job = json::parse(accepted.trim_end())
        .unwrap()
        .get("job")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();
    let done = poll_until_finished(addr, &job);
    assert_eq!(done.get("status").and_then(Json::as_str), Some("done"));
    assert_eq!(done.get("result").unwrap().emit() + "\n", sync_body);

    let (status, _) = http(addr, "GET", "/jobs/j424242", "");
    assert_eq!(status, 404);
    let (status, _) = http(addr, "GET", "/jobs/garbage", "");
    assert_eq!(status, 404);

    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn streaming_mode_forwards_flow_events_as_ndjson() {
    let (handle, join) = start(1, 8);
    let addr = handle.addr();

    let (_, sync_body) = http(addr, "POST", "/synthesize", "{\"bench\":\"hazard\"}");
    let (status, body) =
        http(addr, "POST", "/synthesize", "{\"bench\":\"hazard\",\"stream\":true}");
    assert_eq!(status, 200);
    let lines: Vec<&str> = body.lines().collect();
    assert!(lines.len() >= 4, "expected a stream of events, got {body:?}");
    for line in &lines {
        let doc = json::parse(line).unwrap_or_else(|e| panic!("bad NDJSON line {line:?}: {e}"));
        assert!(doc.get("event").is_some(), "{line}");
    }
    // The gateway's decision trail leads the stream, then the job id,
    // then the flow's own events.
    let job_at = lines
        .iter()
        .position(|l| l.contains("\"event\":\"job\""))
        .unwrap_or_else(|| panic!("no job event in {body:?}"));
    assert!(job_at >= 1, "gateway decisions precede the job line: {body:?}");
    for line in &lines[..job_at] {
        let doc = json::parse(line).unwrap();
        assert_eq!(doc.get("event").and_then(Json::as_str), Some("gateway"), "{line}");
    }
    let next = json::parse(lines[job_at + 1]).unwrap();
    assert_eq!(next.get("event").and_then(Json::as_str), Some("stage_start"));
    assert!(
        lines.iter().any(|l| l.contains("\"event\":\"step\"")),
        "hazard inserts a signal, so a step event must stream: {body:?}"
    );
    // Between the job line and the report, the stream is exactly the
    // library's own event lines for the same specification.
    let events = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
    let sink = events.clone();
    simap::Synthesis::from_benchmark("hazard")
        .observer(move |e: simap::FlowEvent| sink.lock().unwrap().push(e.to_json()))
        .run()
        .expect("hazard maps");
    assert_eq!(lines[job_at + 1..lines.len() - 1], events.lock().unwrap()[..]);
    let last = json::parse(lines[lines.len() - 1]).unwrap();
    assert_eq!(last.get("event").and_then(Json::as_str), Some("report"));
    assert_eq!(last.get("report").unwrap().emit() + "\n", sync_body);

    // A failing flow streams a terminal error event.
    let (status, body) =
        http(addr, "POST", "/synthesize", "{\"bench\":\"no-such\",\"stream\":true}");
    assert_eq!(status, 200, "stream mode commits the status before running");
    let last = body.lines().last().expect("at least the job line");
    let doc = json::parse(last).unwrap();
    assert_eq!(doc.get("event").and_then(Json::as_str), Some("error"), "{body:?}");

    handle.shutdown();
    join.join().unwrap().unwrap();
}

#[test]
fn graceful_shutdown_drains_and_stops_accepting() {
    let (handle, join) = start(1, 8);
    let addr = handle.addr();
    let (status, _) = http(addr, "POST", "/synthesize", "{\"bench\":\"half\"}");
    assert_eq!(status, 200);
    handle.shutdown();
    handle.shutdown(); // idempotent
    join.join().unwrap().unwrap();
    // The listener is gone: connecting (or requesting) now fails.
    assert!(
        TcpStream::connect(addr).is_err()
            || std::panic::catch_unwind(|| http(addr, "GET", "/healthz", "")).is_err(),
        "server must stop serving after shutdown"
    );
}

#[test]
fn malformed_requests_do_not_wedge_the_server() {
    let (handle, join) = start(1, 8);
    let addr = handle.addr();

    // Raw garbage instead of HTTP.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(b"garbage\r\n\r\n").unwrap();
    let mut response = String::new();
    let _ = stream.read_to_string(&mut response);
    assert!(response.starts_with("HTTP/1.1 400"), "{response:?}");

    // Bad JSON body.
    let (status, body) = http(addr, "POST", "/synthesize", "{not json");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("invalid JSON"), "{body}");

    // The server still answers real requests afterwards.
    let (status, _) = http(addr, "GET", "/healthz", "");
    assert_eq!(status, 200);

    handle.shutdown();
    join.join().unwrap().unwrap();
}
