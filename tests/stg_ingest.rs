//! End-to-end checks of the `POST /stg` ingestion path over real TCP
//! sockets: responses byte-identical to `simap map <file.g> --json`,
//! both body shapes (raw `.g` text and the JSON envelope) landing on one
//! result-cache fingerprint, a server restart answering from the
//! persistent cache without enqueueing work, gateway metering (rate
//! limits apply, `by_endpoint` counts `stg`), and a seeded-corpus burst.
//!
//! The burst size is environment-tunable (`SIMAP_BURST_SPECS`, default
//! 64) so CI can push 10^3 specs through the gateway.

use simap::core::json::{self, Json};
use simap::serve::{ServeConfig, Server, ServerHandle};
use simap::stg::{patterns, write_g};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::Command;

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
    let (_, body) = response.split_once("\r\n\r\n").expect("header/body split");
    (status, body.to_string())
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
        let dir = std::env::temp_dir().join(format!("simap-stg-{label}-{}", std::process::id()));
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
    let (status, body) = http(addr, "GET", "/metrics", "");
    assert_eq!(status, 200, "{body}");
    json::parse(body.trim_end()).expect("metrics is JSON")
}

#[test]
fn stg_response_is_byte_identical_to_the_cli() {
    let scratch = Scratch::new("cli");
    let spec = write_g(&patterns::corpus_net(42, 0));
    let path = scratch.0.join("spec.g");
    std::fs::write(&path, &spec).unwrap();

    let cli = Command::new(env!("CARGO_BIN_EXE_simap"))
        .args(["map", path.to_str().unwrap(), "--json"])
        .output()
        .expect("binary runs");
    assert!(cli.status.success(), "{}", String::from_utf8_lossy(&cli.stderr));

    let (handle, join) = start(ServeConfig { jobs: 1, ..ServeConfig::default() });
    let addr = handle.addr();

    // The raw `.g` body and the JSON envelope both answer with exactly
    // the CLI's stdout.
    let (status, raw) = http(addr, "POST", "/stg", &spec);
    assert_eq!(status, 200, "{raw}");
    assert_eq!(raw.as_bytes(), cli.stdout, "POST /stg must match `simap map --json`");
    let envelope = format!("{{\"source\": {}}}", Json::Str(spec.clone()).emit());
    let (status, wrapped) = http(addr, "POST", "/stg", &envelope);
    assert_eq!(status, 200, "{wrapped}");
    assert_eq!(wrapped.as_bytes(), cli.stdout);

    // A parse error surfaces as 422 with the parser's line/column.
    let (status, body) = http(addr, "POST", "/stg", ".inputsx y\n.graph\n.end\n");
    assert_eq!(status, 422, "{body}");
    assert!(body.contains("line 1") && body.contains(".inputsx"), "{body}");

    stop(handle, join);
}

#[test]
fn repeated_stg_requests_answer_from_the_persistent_cache() {
    let scratch = Scratch::new("cache");
    let cache_dir = scratch.0.join("results");
    let config =
        || ServeConfig { jobs: 1, cache_dir: Some(cache_dir.clone()), ..ServeConfig::default() };
    let spec = write_g(&patterns::corpus_net(7, 1));

    // First instance synthesizes for real and stores the result.
    let (handle, join) = start(config());
    let (status, first) = http(handle.addr(), "POST", "/stg", &spec);
    assert_eq!(status, 200, "{first}");
    let doc = metrics(handle.addr());
    let cache = doc.get("gateway").unwrap().get("rescache").expect("rescache section");
    assert_eq!(cache.get("stores").unwrap().as_usize(), Some(1), "{doc:?}");
    stop(handle, join);

    // A fresh instance on the same directory serves the cached bytes
    // without ever enqueueing a job — `"submitted":0`.
    let (handle, join) = start(config());
    let (status, second) = http(handle.addr(), "POST", "/stg", &spec);
    assert_eq!(status, 200, "{second}");
    assert_eq!(first.as_bytes(), second.as_bytes(), "cache hit must be byte-identical");
    let doc = metrics(handle.addr());
    assert_eq!(
        doc.get("gateway").unwrap().get("rescache").unwrap().get("hits").unwrap().as_usize(),
        Some(1),
        "{doc:?}"
    );
    assert_eq!(
        doc.get("queue").unwrap().get("submitted").unwrap().as_usize(),
        Some(0),
        "a warm hit never reaches the queue: {doc:?}"
    );
    // The JSON envelope of the same source shares the fingerprint.
    let envelope = format!("{{\"source\": {}}}", Json::Str(spec).emit());
    let (status, wrapped) = http(handle.addr(), "POST", "/stg", &envelope);
    assert_eq!(status, 200, "{wrapped}");
    assert_eq!(first.as_bytes(), wrapped.as_bytes());
    assert_eq!(
        metrics(handle.addr()).get("queue").unwrap().get("submitted").unwrap().as_usize(),
        Some(0)
    );
    stop(handle, join);
}

#[test]
fn stg_is_metered_by_the_gateway() {
    let scratch = Scratch::new("meter");
    let keyfile = scratch.0.join("keys.tsv");
    std::fs::write(&keyfile, "k-frida\tfrida\tfree\n").unwrap();
    // Free tier at base 1 req/s: burst of exactly one token, so the
    // second POST /stg must shed with 429 — proof the endpoint sits
    // behind the same gateway layers as /synthesize.
    let (handle, join) = start(ServeConfig {
        jobs: 1,
        api_keys: Some(keyfile),
        rate_limit: 1.0,
        ..ServeConfig::default()
    });
    let addr = handle.addr();
    let spec = write_g(&patterns::corpus_net(3, 0));

    let post = |key: Option<&str>| {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let auth = key.map(|k| format!("X-Api-Key: {k}\r\n")).unwrap_or_default();
        write!(
            stream,
            "POST /stg HTTP/1.1\r\nHost: test\r\n{auth}Content-Length: {}\r\n\r\n{spec}",
            spec.len()
        )
        .expect("send");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        response.split(' ').nth(1).and_then(|s| s.parse::<u16>().ok()).expect("status")
    };

    assert_eq!(post(None), 401, "keyed mode protects /stg");
    assert_eq!(post(Some("k-frida")), 200);
    assert_eq!(post(Some("k-frida")), 429, "rate limit applies to /stg");

    let doc = metrics(addr);
    let by_endpoint = doc.get("requests").unwrap().get("by_endpoint").expect("endpoint tallies");
    assert_eq!(by_endpoint.get("stg").unwrap().as_usize(), Some(3), "{doc:?}");

    stop(handle, join);
}

#[test]
fn corpus_burst_flows_through_the_gateway() {
    let count: usize =
        std::env::var("SIMAP_BURST_SPECS").ok().and_then(|v| v.parse().ok()).unwrap_or(64);
    let (handle, join) = start(ServeConfig { jobs: 0, ..ServeConfig::default() });
    let addr = handle.addr();

    for (i, net) in patterns::corpus(0xB0057, count).enumerate() {
        let spec = write_g(&net);
        let (status, body) = http(addr, "POST", "/stg", &spec);
        assert_eq!(status, 200, "spec {i} ({}): {body}", net.name());
        assert!(body.starts_with("{\"name\":"), "spec {i}: {body}");
    }

    let doc = metrics(addr);
    let by_endpoint = doc.get("requests").unwrap().get("by_endpoint").unwrap();
    assert_eq!(by_endpoint.get("stg").unwrap().as_usize(), Some(count), "{doc:?}");
    let queue = doc.get("queue").unwrap();
    assert_eq!(queue.get("completed").unwrap().as_usize(), Some(count), "{doc:?}");
    assert_eq!(queue.get("failed").unwrap().as_usize(), Some(0), "{doc:?}");

    stop(handle, join);
}
