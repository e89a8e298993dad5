//! Integration tests for the `codesign serve` daemon over real sockets:
//! byte-identity with `codesign sweep --json`, queue-full backpressure
//! (429 + Retry-After), per-request deadlines surfacing as typed
//! `FlowError::Deadline` rows (status 504) with the context pool still
//! reusable afterwards, graceful drain on `POST /shutdown` (which also
//! cuts an artificial hold short), a disk-backed store that keeps a
//! restarted server warm, out-of-range overrides refused with a 400,
//! and error bodies that stay JSON.

use codesign::serve::{ServeConfig, Server};
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::process::Command;
use std::time::{Duration, Instant};

/// Two clean Silicon-3D scenarios (no interposer routing — the cheapest
/// full studies). Must match `tests/cli.rs` so the CLI-vs-serve
/// byte-identity check exercises real study payloads.
const CLEAN_SWEEP: &str = r#"[
  { "name": "s3d-a", "tech": "silicon3d" },
  { "name": "s3d-b", "tech": "silicon3d" }
]"#;

fn start_server(config: ServeConfig) -> (SocketAddr, std::thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind("127.0.0.1:0", config).expect("bind an ephemeral port");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

/// Minimal raw HTTP/1.1 client: one request per connection (the server
/// always answers `Connection: close`).
fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &str,
) -> (u16, Vec<(String, String)>, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .expect("read timeout");
    let mut text = format!("{method} {path} HTTP/1.1\r\nHost: test\r\n");
    for (name, value) in headers {
        text.push_str(&format!("{name}: {value}\r\n"));
    }
    text.push_str(&format!("Content-Length: {}\r\n\r\n{body}", body.len()));
    stream.write_all(text.as_bytes()).expect("send request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let raw = String::from_utf8(raw).expect("utf-8 response");
    let (head, response_body) = raw.split_once("\r\n\r\n").expect("header/body split");
    let mut lines = head.split("\r\n");
    let status_line = lines.next().expect("status line");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .expect("status code")
        .parse()
        .expect("numeric status");
    let response_headers = lines
        .filter_map(|line| line.split_once(':'))
        .map(|(name, value)| (name.trim().to_ascii_lowercase(), value.trim().to_string()))
        .collect();
    (status, response_headers, response_body.to_string())
}

fn stats_field(addr: SocketAddr, field: &str) -> i64 {
    let (status, _, body) = request(addr, "GET", "/stats", &[], "");
    assert_eq!(status, 200, "{body}");
    let doc: serde_json::Value = serde_json::from_str(&body).expect("stats parse");
    doc.get(field)
        .and_then(serde_json::Value::as_i64)
        .unwrap_or_else(|| panic!("stats field {field} in {body}"))
}

/// Polls `/stats` until `field` reaches `want` (the daemon's queue/
/// in-flight transitions are asynchronous to the client's send).
fn wait_for_stat(addr: SocketAddr, field: &str, want: i64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if stats_field(addr, field) == want {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "{field} never reached {want} (last = {})",
            stats_field(addr, field)
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// What `codesign sweep --json` prints for `scenarios` — the reference
/// bytes every serve response is held to.
fn cli_reference(scenarios: &str, tag: &str) -> String {
    let path = std::env::temp_dir().join(format!(
        "codesign-serve-test-{}-{tag}.json",
        std::process::id()
    ));
    std::fs::write(&path, scenarios).expect("scenario file written");
    let out = Command::new(env!("CARGO_BIN_EXE_codesign"))
        .args(["sweep", path.to_str().expect("utf-8 path"), "--json"])
        .output()
        .expect("codesign sweep runs");
    let _ = std::fs::remove_file(&path);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

#[test]
fn concurrent_sweeps_are_byte_identical_to_the_cli() {
    let reference = cli_reference(CLEAN_SWEEP, "identity");
    let (addr, handle) = start_server(ServeConfig::default());

    // Health first: the daemon is up before any sweep.
    let (status, _, body) = request(addr, "GET", "/healthz", &[], "");
    assert_eq!(status, 200);
    assert_eq!(body, "{\"status\":\"ok\"}\n");

    // Two rounds of two concurrent clients: the first round pays the
    // cold studies, the second is served from the pooled warm contexts
    // and must answer well inside a second (store lookups plus render).
    for round in 0..2 {
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..2)
                .map(|_| {
                    scope.spawn(|| {
                        let sent = Instant::now();
                        let response = request(addr, "POST", "/sweep", &[], CLEAN_SWEEP);
                        (response, sent.elapsed())
                    })
                })
                .collect();
            for worker in workers {
                let ((status, _, body), latency) = worker.join().expect("client thread");
                assert_eq!(status, 200, "round {round}: {body}");
                assert_eq!(body, reference, "round {round}: serve must match the CLI");
                if round == 1 {
                    assert!(
                        latency < Duration::from_secs(1),
                        "warm pooled request took {latency:?}"
                    );
                }
            }
        });
    }

    // The repeated scenarios hit the warm context pool.
    assert!(
        stats_field(addr, "context_hits") >= 1,
        "repeat requests must reuse pooled contexts"
    );
    assert_eq!(stats_field(addr, "completed"), 4);
    assert_eq!(stats_field(addr, "rejected"), 0);

    let (status, _, _) = request(addr, "POST", "/shutdown", &[], "");
    assert_eq!(status, 200);
    handle
        .join()
        .expect("server thread")
        .expect("clean server exit");
}

#[test]
fn a_full_queue_rejects_with_429_and_retry_after() {
    // One worker, queue depth 1: A executes (held open via the
    // artificial service-time pad), B waits in the queue, C must be
    // turned away at admission.
    let (addr, handle) = start_server(ServeConfig {
        workers: 1,
        queue_depth: 1,
        ..ServeConfig::default()
    });
    std::thread::scope(|scope| {
        // A's hold must comfortably outlast the stats polling below even
        // on a loaded machine: it only bounds this test's wall-clock.
        let a = scope.spawn(|| {
            request(
                addr,
                "POST",
                "/sweep",
                &[("X-Codesign-Hold-Ms", "2500")],
                "[]",
            )
        });
        wait_for_stat(addr, "in_flight", 1);
        let b = scope.spawn(|| {
            request(
                addr,
                "POST",
                "/sweep",
                &[("X-Codesign-Hold-Ms", "100")],
                "[]",
            )
        });
        wait_for_stat(addr, "queue_depth", 1);
        // C: admission rejects immediately with explicit backpressure.
        let (status, headers, body) = request(addr, "POST", "/sweep", &[], "[]");
        assert_eq!(status, 429, "{body}");
        assert!(body.contains("queue full"), "{body}");
        assert_eq!(
            headers
                .iter()
                .find(|(name, _)| name == "retry-after")
                .map(|(_, value)| value.as_str()),
            Some("1"),
            "429 must carry Retry-After"
        );
        // A and B still complete normally (an empty scenario list is a
        // valid sweep and renders as the empty array).
        for (label, client) in [("A", a), ("B", b)] {
            let (status, _, body) = client.join().expect("client thread");
            assert_eq!(status, 200, "{label}: {body}");
            assert_eq!(body, "[]\n", "{label}");
        }
    });
    assert_eq!(stats_field(addr, "rejected"), 1);
    assert_eq!(stats_field(addr, "completed"), 2);

    let (status, _, _) = request(addr, "POST", "/shutdown", &[], "");
    assert_eq!(status, 200);
    handle
        .join()
        .expect("server thread")
        .expect("clean server exit");
}

/// `queue_depth` counts only *waiting* jobs: with no waiting room an
/// idle worker still takes a sweep, and only a second sweep arriving
/// while the first runs is turned away.
#[test]
fn a_zero_depth_queue_still_admits_one_sweep_per_worker() {
    let (addr, handle) = start_server(ServeConfig {
        workers: 1,
        queue_depth: 0,
        ..ServeConfig::default()
    });
    let (status, _, body) = request(addr, "POST", "/sweep", &[], "[]");
    assert_eq!(status, 200, "idle server: {body}");
    assert_eq!(body, "[]\n");
    std::thread::scope(|scope| {
        let held = scope.spawn(|| {
            request(
                addr,
                "POST",
                "/sweep",
                &[("X-Codesign-Hold-Ms", "2500")],
                "[]",
            )
        });
        wait_for_stat(addr, "in_flight", 1);
        let (status, headers, body) = request(addr, "POST", "/sweep", &[], "[]");
        assert_eq!(status, 429, "{body}");
        assert_eq!(
            headers
                .iter()
                .find(|(name, _)| name == "retry-after")
                .map(|(_, value)| value.as_str()),
            Some("1"),
            "429 must carry Retry-After"
        );
        let (status, _, body) = held.join().expect("held client");
        assert_eq!(status, 200, "{body}");
    });
    assert_eq!(stats_field(addr, "rejected"), 1);
    assert_eq!(stats_field(addr, "completed"), 2);

    let (status, _, _) = request(addr, "POST", "/shutdown", &[], "");
    assert_eq!(status, 200);
    handle
        .join()
        .expect("server thread")
        .expect("clean server exit");
}

#[test]
fn an_expired_deadline_yields_typed_rows_and_the_pool_survives() {
    let reference = cli_reference(CLEAN_SWEEP, "deadline");
    let (addr, handle) = start_server(ServeConfig::default());

    // The hold outlasts the deadline, so the deadline has expired before
    // the first stage boundary: every scenario reports the typed
    // FlowError::Deadline row and the response is 504.
    let (status, _, body) = request(
        addr,
        "POST",
        "/sweep",
        &[
            ("X-Codesign-Deadline-Ms", "50"),
            ("X-Codesign-Hold-Ms", "300"),
        ],
        CLEAN_SWEEP,
    );
    assert_eq!(status, 504, "{body}");
    assert!(
        body.contains("\"error\":\"deadline exceeded at stage."),
        "typed deadline rows: {body}"
    );
    assert!(
        body.contains("\"scenario\":\"s3d-a\"") && body.contains("\"scenario\":\"s3d-b\""),
        "per-scenario rows survive the expiry: {body}"
    );
    assert!(stats_field(addr, "deadline_hits") >= 1);

    // The worker pool and the context pool must be fully reusable: the
    // same request without a deadline now succeeds byte-identically.
    let (status, _, body) = request(addr, "POST", "/sweep", &[], CLEAN_SWEEP);
    assert_eq!(status, 200, "{body}");
    assert_eq!(body, reference, "pool survives an expired request");

    let (status, _, _) = request(addr, "POST", "/shutdown", &[], "");
    assert_eq!(status, 200);
    handle
        .join()
        .expect("server thread")
        .expect("clean server exit");
}

#[test]
fn shutdown_drains_in_flight_work() {
    let (addr, handle) = start_server(ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    });
    std::thread::scope(|scope| {
        let held = scope.spawn(|| {
            request(
                addr,
                "POST",
                "/sweep",
                &[("X-Codesign-Hold-Ms", "800")],
                "[]",
            )
        });
        wait_for_stat(addr, "in_flight", 1);
        // Shutdown answers immediately…
        let (status, _, body) = request(addr, "POST", "/shutdown", &[], "");
        assert_eq!(status, 200);
        assert_eq!(body, "{\"status\":\"draining\"}\n");
        // …while the in-flight request still completes with its full
        // response rather than being dropped mid-drain.
        let (status, _, body) = held.join().expect("held client");
        assert_eq!(status, 200, "{body}");
        assert_eq!(body, "[]\n");
    });
    handle
        .join()
        .expect("server thread")
        .expect("clean server exit");
}

/// The artificial hold pads service time but cannot wedge the drain: a
/// held job ends its hold at shutdown and still answers its client in
/// full, and `run` returns long before the hold would have ended. The
/// server and the held client run on detached threads, so a wedged
/// drain fails the test at the timeout instead of hanging it.
#[test]
fn shutdown_cuts_a_long_hold_short() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    )
    .expect("bind an ephemeral port");
    let addr = server.local_addr();
    let (done, finished) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let _ = done.send(server.run());
    });
    let held = std::thread::spawn(move || {
        request(
            addr,
            "POST",
            "/sweep",
            &[("X-Codesign-Hold-Ms", "600000")],
            "[]",
        )
    });
    wait_for_stat(addr, "in_flight", 1);
    let (status, _, _) = request(addr, "POST", "/shutdown", &[], "");
    assert_eq!(status, 200);
    finished
        .recv_timeout(Duration::from_secs(10))
        .expect("run returns within 10 s of shutdown despite a 600 s hold")
        .expect("clean server exit");
    let (status, _, body) = held.join().expect("held client");
    assert_eq!(status, 200, "{body}");
    assert_eq!(body, "[]\n");
}

/// With [`ServeConfig::cache_dir`] the warm pool survives a restart: a
/// fresh server over the same directory answers its first request from
/// the artifacts its predecessor persisted, byte-identical to the CLI.
#[test]
fn a_restarted_server_answers_from_the_disk_tier() {
    let reference = cli_reference(CLEAN_SWEEP, "restart");
    let cache_dir = std::env::temp_dir().join(format!(
        "codesign-serve-test-{}-restart-cache",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let cached = || ServeConfig {
        cache_dir: Some(cache_dir.clone()),
        ..ServeConfig::default()
    };

    for life in ["first", "restarted"] {
        let (addr, handle) = start_server(cached());
        let (status, _, body) = request(addr, "POST", "/sweep", &[], CLEAN_SWEEP);
        assert_eq!(status, 200, "{life} server: {body}");
        assert_eq!(body, reference, "{life} server must match the CLI");
        if life == "restarted" {
            assert!(
                stats_field(addr, "store_disk_hits") > 0,
                "the restarted server never read the disk tier"
            );
            assert_eq!(
                stats_field(addr, "store_misses"),
                0,
                "the restarted server recomputed a persisted artifact"
            );
        }
        let (status, _, _) = request(addr, "POST", "/shutdown", &[], "");
        assert_eq!(status, 200);
        handle
            .join()
            .expect("server thread")
            .expect("clean server exit");
    }
    let _ = std::fs::remove_dir_all(&cache_dir);
}

/// A layer count far beyond any technology's is refused at validation
/// with a 400 naming the field, before any stage could size a routing
/// grid by it, and the daemon goes on serving clean sweeps.
#[test]
fn an_absurd_layer_count_draws_a_400_and_the_daemon_keeps_serving() {
    let (addr, handle) = start_server(ServeConfig::default());
    let tall = r#"[{ "name": "tall", "tech": "glass25d",
        "overrides": { "signal_metal_layers": 1000000000 } }]"#;
    let (status, _, body) = request(addr, "POST", "/sweep", &[], tall);
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("signal_metal_layers"), "{body}");
    let (status, _, body) = request(addr, "POST", "/sweep", &[], CLEAN_SWEEP);
    assert_eq!(status, 200, "{body}");
    let (status, _, _) = request(addr, "POST", "/shutdown", &[], "");
    assert_eq!(status, 200);
    handle
        .join()
        .expect("server thread")
        .expect("clean server exit");
}

/// Error bodies stay JSON whatever the message echoes: a path with a raw
/// backspace comes back in a 404 body that parses, with the byte intact
/// in its `error` string.
#[test]
fn a_control_byte_in_the_path_comes_back_in_a_parseable_error() {
    let (addr, handle) = start_server(ServeConfig::default());
    let (status, _, body) = request(addr, "GET", "/no\u{8}where", &[], "");
    assert_eq!(status, 404, "{body}");
    let doc = serde_json::from_str(&body).expect("the error body parses");
    let error = doc["error"].as_str().expect("an error string");
    assert!(error.contains('\u{8}'), "{error:?}");
    let (status, _, _) = request(addr, "POST", "/shutdown", &[], "");
    assert_eq!(status, 200);
    handle
        .join()
        .expect("server thread")
        .expect("clean server exit");
}
