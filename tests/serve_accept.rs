//! Accept latency of an idle `codesign serve` daemon: a connection that
//! arrives while the accept loop has nothing to do must be picked up at
//! once, not on the loop's next timer tick. Each request opens a fresh
//! connection after a pause, so the loop is idle every time, and the
//! median round trip of `GET /healthz` is held well under the loop's
//! 5 ms flag-check interval.
//!
//! A busy machine can push one round's median over the limit, so the
//! test runs up to [`ROUNDS`] rounds and fails only when every round's
//! median is over. That still catches a loop that sleeps 5 ms between
//! accepts: a sample then beats the limit with p ≈ 0.24, so a round's
//! median of 60 does with probability about 10⁻⁶.
//!
//! Its own test binary, so no CPU-heavy study runs beside the timing.

use codesign::serve::{ServeConfig, Server};
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

const REQUESTS: usize = 60;
const ROUNDS: usize = 3;
const PAUSE: Duration = Duration::from_millis(7);
const MEDIAN_LIMIT: Duration = Duration::from_micros(1_500);

/// Sends one request on a fresh connection and returns the status line
/// and the time from connect to the end of the response.
fn round_trip(addr: SocketAddr, method: &str, path: &str) -> (String, Duration) {
    let start = Instant::now();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let text = format!("{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: 0\r\n\r\n");
    stream.write_all(text.as_bytes()).expect("send request");
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).expect("read response");
    let elapsed = start.elapsed();
    let raw = String::from_utf8(raw).expect("utf-8 response");
    let status = raw.lines().next().unwrap_or_default().to_string();
    (status, elapsed)
}

/// One round: `REQUESTS` health checks on fresh connections, each after
/// a pause, sorted by round trip.
fn round(addr: SocketAddr) -> Vec<Duration> {
    let mut times = Vec::with_capacity(REQUESTS);
    for _ in 0..REQUESTS {
        std::thread::sleep(PAUSE);
        let (status, elapsed) = round_trip(addr, "GET", "/healthz");
        assert!(status.contains(" 200 "), "healthz answered {status:?}");
        times.push(elapsed);
    }
    times.sort();
    times
}

#[test]
fn idle_server_accepts_fresh_connections_at_once() {
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run());

    // Stops at the first round under the limit; on failure the report
    // names every round.
    let mut rounds = Vec::with_capacity(ROUNDS);
    let mut passed = false;
    for _ in 0..ROUNDS {
        let times = round(addr);
        let median = times[REQUESTS / 2];
        rounds.push(format!(
            "median {median:?} (fastest {:?}, slowest {:?})",
            times[0],
            times[REQUESTS - 1]
        ));
        passed = median < MEDIAN_LIMIT;
        if passed {
            break;
        }
    }

    let (status, _) = round_trip(addr, "POST", "/shutdown");
    assert!(status.contains(" 200 "), "shutdown answered {status:?}");
    handle
        .join()
        .expect("server thread")
        .expect("run returns Ok after drain");

    println!("{}", rounds.join("; "));
    assert!(
        passed,
        "every round's median /healthz round trip on an idle server is over the \
         {MEDIAN_LIMIT:?} limit: {}",
        rounds.join("; ")
    );
}
