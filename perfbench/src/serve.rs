//! `serve_mixed`: a `codesign::serve::Server` in a child process, driven
//! open-loop on fixed schedules — a low rate, a high rate, then a ladder
//! of rising rates to find the knee — by at most `nproc` threads holding
//! at most one connection each. Every response body is compared, after
//! the timed phases, with `batch::sweep_json` of an uncached
//! `batch::run` in this process.
//!
//! The child is this binary's `daemon` mode: it binds and runs the same
//! `Server` with the same `ServeConfig` the `codesign serve` command
//! builds, and additionally answers `counters` lines on stdin with its
//! `techlib::obs` totals, which the traced run reads around its phases.

use crate::inputs::{self, Scheduled, REPEATED_BODIES};
use crate::layers::{self, Counters};
use crate::{procfs, stats, Outcome, Run};
use codesign::batch;
use codesign::context::{FrontEnd, StudyContext};
use codesign::scenario::{scenarios_from_json, Scenario};
use codesign::serve::{ContextPool, ServeConfig, Server};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use techlib::store::ArtifactStore;

/// The low rate: far below the knee, so latency is the bare cost of
/// HTTP, queueing and rendering.
const LOW_RPS: f64 = 40.0;
/// Share of `--seconds` the low-rate phase lasts.
const LOW_SHARE: f64 = 0.3;
/// The high rate: loaded but, on the reference box, below the knee.
const HIGH_RPS: f64 = 200.0;
/// Requests per rate phase: a p90 needs 100 to leave ten beyond it.
const PHASE_REQUESTS: usize = 120;
/// The ladder above the high rate: `HIGH_RPS * LADDER_STEP^k`, k >= 1,
/// until two rungs in a row miss the limit.
const LADDER_STEP: f64 = 1.2;
const LADDER_RUNGS: usize = 12;
/// A phase whose generator started its p90 request later than this
/// after the request's due time (or after the connection came free) is
/// invalid: the client, not the daemon, set its latencies.
const LATE_BOUND_MS: f64 = 5.0;
/// Scenarios per uncached reference batch (bounds reference memory).
const REFERENCE_CHUNK: usize = 16;
const IO_TIMEOUT: Duration = Duration::from_secs(60);
/// Daemon set-ups per run (each pays cold studies of the warm-up set).
const DAEMON_SETUPS: usize = 3;

// ---------------------------------------------------------------------
// The daemon child.
// ---------------------------------------------------------------------

/// `perfbench daemon --workers <n> [--traced]`: serves on an ephemeral
/// loopback port until `POST /shutdown`, printing `listening <addr>`
/// first and `counters <pairs>` for every `counters` line on stdin.
pub fn daemon_main(args: &[String]) -> Result<(), String> {
    let mut config = ServeConfig::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--workers" => {
                config.workers = iter
                    .next()
                    .and_then(|n| n.parse().ok())
                    .ok_or("--workers needs a number")?;
            }
            "--traced" => techlib::obs::enable(),
            other => return Err(format!("unknown daemon flag {other:?}")),
        }
    }
    let server = Server::bind("127.0.0.1:0", config).map_err(|e| e.to_string())?;
    let mut stdout = std::io::stdout();
    writeln!(stdout, "listening {}", server.local_addr()).map_err(|e| e.to_string())?;
    stdout.flush().map_err(|e| e.to_string())?;
    // Ends when the benchmark closes stdin, after its shutdown request.
    let control = std::thread::spawn(|| {
        for line in std::io::stdin().lock().lines() {
            let Ok(line) = line else { break };
            if line.trim() == "counters" {
                let mut stdout = std::io::stdout();
                let _ = writeln!(stdout, "counters {}", Counters::now().render());
                let _ = stdout.flush();
            }
        }
    });
    let served = server.run().map_err(|e| e.to_string());
    control.join().map_err(|_| "control thread panicked")?;
    served
}

/// A running daemon child. Dropping it kills the child if it is still
/// running and waits for it, so no exit path leaves it behind.
struct Daemon {
    child: Child,
    addr: SocketAddr,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl Daemon {
    fn spawn(workers: usize, traced: bool) -> Result<Daemon, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut cmd = Command::new(exe);
        cmd.args(["daemon", "--workers", &workers.to_string()]);
        if traced {
            cmd.arg("--traced");
        }
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning the daemon: {e}"))?;
        let (Some(stdin), Some(stdout)) = (child.stdin.take(), child.stdout.take()) else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("daemon pipes missing".to_string());
        };
        let mut daemon = Daemon {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            stdin: Some(stdin),
            stdout: BufReader::new(stdout),
        };
        let line = daemon.read_line()?;
        daemon.addr = line
            .strip_prefix("listening ")
            .and_then(|a| a.trim().parse().ok())
            .ok_or_else(|| format!("unexpected daemon greeting {line:?}"))?;
        Ok(daemon)
    }

    fn read_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.stdout.read_line(&mut line) {
            Ok(0) => Err("the daemon exited".to_string()),
            Ok(_) => Ok(line),
            Err(e) => Err(format!("reading from the daemon: {e}")),
        }
    }

    fn pid(&self) -> Option<u32> {
        Some(self.child.id())
    }

    fn counters(&mut self) -> Result<Counters, String> {
        let stdin = self.stdin.as_mut().ok_or("daemon stdin closed")?;
        writeln!(stdin, "counters")
            .and_then(|()| stdin.flush())
            .map_err(|e| e.to_string())?;
        let line = self.read_line()?;
        let pairs = line
            .strip_prefix("counters")
            .ok_or_else(|| format!("unexpected daemon reply {line:?}"))?;
        Ok(Counters::parse(pairs))
    }

    fn stats(&self) -> Result<String, String> {
        match request(self.addr, "GET", "/stats", "")? {
            (200, body) => Ok(body),
            (status, body) => Err(format!("/stats answered {status}: {body}")),
        }
    }

    /// Drains the daemon through `POST /shutdown` and waits for it.
    fn shutdown(mut self) -> Result<(), String> {
        let (status, _) = request(self.addr, "POST", "/shutdown", "")?;
        if status != 200 {
            return Err(format!("/shutdown answered {status}"));
        }
        drop(self.stdin.take());
        let deadline = Instant::now() + IO_TIMEOUT;
        while Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(_)) => return Ok(()),
                Ok(None) => std::thread::sleep(Duration::from_millis(10)),
                Err(e) => return Err(e.to_string()),
            }
        }
        Err("the daemon did not drain in time".to_string())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One HTTP/1.1 exchange on a fresh connection (the daemon closes each
/// connection after its response).
fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(IO_TIMEOUT))
        .and_then(|()| stream.set_write_timeout(Some(IO_TIMEOUT)))
        .map_err(|e| e.to_string())?;
    let text = format!(
        "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(text.as_bytes())
        .map_err(|e| e.to_string())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(|e| e.to_string())?;
    let raw = String::from_utf8(raw).map_err(|_| "response is not UTF-8".to_string())?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or("response has no header end")?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("no status in {head:?}"))?;
    Ok((status, body.to_string()))
}

/// An unsigned integer field of the `/stats` JSON.
fn stat(stats: &str, field: &str) -> f64 {
    stats
        .split(&format!("\"{field}\":"))
        .nth(1)
        .and_then(|rest| {
            rest.split(|c: char| !c.is_ascii_digit())
                .next()
                .and_then(|n| n.parse::<u64>().ok())
        })
        .map_or(0.0, |n| n as f64)
}

/// Spawns a daemon, waits for `/healthz`, and warms its pool with every
/// repeated body (the set-up `setup_s` times). Warm-up responses are
/// kept for the correctness check.
fn start(r: &Run, traced: bool, warm: &mut Vec<Answer>) -> Result<Daemon, String> {
    let daemon = Daemon::spawn(r.workers, traced)?;
    let deadline = Instant::now() + IO_TIMEOUT;
    while !matches!(request(daemon.addr, "GET", "/healthz", ""), Ok((200, _))) {
        if Instant::now() > deadline {
            return Err("the daemon never became healthy".to_string());
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    for body in REPEATED_BODIES {
        let (status, response) = request(daemon.addr, "POST", "/sweep", body)?;
        warm.push(Answer {
            request: body.to_string(),
            status,
            response,
        });
    }
    Ok(daemon)
}

// ---------------------------------------------------------------------
// The open-loop load generator.
// ---------------------------------------------------------------------

/// A request and what came back.
#[derive(Debug)]
struct Answer {
    request: String,
    status: u16,
    response: String,
}

/// One timed request of a phase.
#[derive(Debug)]
struct Sample {
    /// From due time to the last response byte.
    latency_ms: f64,
    /// Generator lateness: send time minus the later of the due time
    /// and the moment this thread's connection came free.
    late_ms: f64,
    status: u16,
    /// FNV-1a of the response body (bodies are kept once each).
    body_hash: u64,
}

/// One rate phase's requests and samples, in schedule order.
#[derive(Debug)]
struct Phase {
    rate: f64,
    plan: Vec<Scheduled>,
    samples: Vec<Sample>,
    /// Largest `/stats` queue depth seen while sampling (traced runs).
    queue_depth_max: f64,
}

impl Phase {
    /// Latencies, ascending; a failed request counts as infinitely late.
    fn latencies(&self) -> Vec<f64> {
        let all: Vec<f64> = self
            .samples
            .iter()
            .map(|s| {
                if s.status == 200 {
                    s.latency_ms
                } else {
                    f64::INFINITY
                }
            })
            .collect();
        stats::sorted(&all)
    }

    fn p50(&self) -> f64 {
        stats::reportable_percentile(&self.latencies(), 50.0).unwrap_or(f64::INFINITY)
    }

    fn p90(&self) -> f64 {
        stats::reportable_percentile(&self.latencies(), 90.0).unwrap_or(f64::INFINITY)
    }

    fn late_p90(&self) -> f64 {
        let late: Vec<f64> = self.samples.iter().map(|s| s.late_ms).collect();
        stats::percentile(&stats::sorted(&late), 90.0).unwrap_or(0.0)
    }

    /// The generator kept its schedule.
    fn valid(&self) -> bool {
        self.late_p90() <= LATE_BOUND_MS
    }

    /// Median latency of the last tenth of the phase: above the limit,
    /// the backlog grew faster than the daemon drained it.
    fn tail_ms(&self) -> f64 {
        let tail = &self.samples[self.samples.len() * 9 / 10..];
        let lat: Vec<f64> = tail.iter().map(|s| s.latency_ms).collect();
        stats::median(&lat).unwrap_or(f64::INFINITY)
    }

    /// The latency judged against the limit: the p90, or the tail when
    /// a growing backlog puts it higher.
    fn judged_ms(&self) -> f64 {
        self.p90().max(self.tail_ms())
    }

    fn meets(&self, limit_ms: f64) -> bool {
        self.valid() && self.judged_ms() <= limit_ms
    }

    fn summary(&self, name: &str, limit_ms: f64) -> String {
        format!(
            "{name}: {} req at {:.1}/s p50 {:.3} ms p90 {:.3} ms late p90 {:.3} ms{}{}",
            self.samples.len(),
            self.rate,
            self.p50(),
            self.p90(),
            self.late_p90(),
            if self.valid() {
                ""
            } else {
                " INVALID (generator late)"
            },
            if self.tail_ms() > limit_ms {
                " backlog"
            } else {
                ""
            },
        )
    }
}

/// Plays `plan` against the daemon from `threads` threads. Bodies are
/// stored once per distinct hash in `bodies`. With `sample_stats`, a
/// thread with time to spare before its next due request reads
/// `/stats` for the queue depth, on its own connection slot.
fn play(
    addr: SocketAddr,
    rate: f64,
    plan: Vec<Scheduled>,
    threads: usize,
    bodies: &Mutex<HashMap<u64, String>>,
    sample_stats: bool,
) -> Phase {
    let next = AtomicUsize::new(0);
    let start = Instant::now() + Duration::from_millis(20);
    let plan_ref = &plan;
    let per_thread: Vec<(Vec<(usize, Sample)>, f64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let next = &next;
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    let mut queue_max = 0.0f64;
                    let mut last_stats = start;
                    let mut ready = Instant::now();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = plan_ref.get(i) else { break };
                        let due = start + Duration::from_secs_f64(item.due_s);
                        let now = Instant::now();
                        if sample_stats
                            && due.saturating_duration_since(now) > Duration::from_millis(5)
                            && now.duration_since(last_stats) > Duration::from_millis(20)
                        {
                            if let Ok((200, s)) = request(addr, "GET", "/stats", "") {
                                queue_max = queue_max.max(stat(&s, "queue_depth"));
                            }
                            last_stats = Instant::now();
                        }
                        let now = Instant::now();
                        if now < due {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        let late = sent.saturating_duration_since(due.max(ready));
                        let (status, body) =
                            request(addr, "POST", "/sweep", &item.body).unwrap_or_else(|e| (0, e));
                        let done = Instant::now();
                        let body_hash = stats::fnv1a(body.as_bytes());
                        bodies
                            .lock()
                            .expect("body map lock: a load thread panicked")
                            .entry(body_hash)
                            .or_insert(body);
                        mine.push((
                            i,
                            Sample {
                                latency_ms: done.saturating_duration_since(due).as_secs_f64() * 1e3,
                                late_ms: late.as_secs_f64() * 1e3,
                                status,
                                body_hash,
                            },
                        ));
                        ready = done;
                    }
                    (mine, queue_max)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a load thread panicked"))
            .collect()
    });
    let queue_depth_max = per_thread.iter().map(|(_, q)| *q).fold(0.0, f64::max);
    let mut samples: Vec<(usize, Sample)> = per_thread.into_iter().flat_map(|(s, _)| s).collect();
    samples.sort_by_key(|(i, _)| *i);
    Phase {
        rate,
        plan,
        samples: samples.into_iter().map(|(_, s)| s).collect(),
        queue_depth_max,
    }
}

/// Plays a run's rate phases against one daemon.
struct Load<'a> {
    r: &'a Run,
    addr: SocketAddr,
    bodies: &'a Mutex<HashMap<u64, String>>,
    /// Novel loss tangents used so far, so no value repeats in a run.
    novel: usize,
    sample_stats: bool,
}

impl<'a> Load<'a> {
    fn new(
        r: &'a Run,
        daemon: &Daemon,
        bodies: &'a Mutex<HashMap<u64, String>>,
        sample_stats: bool,
    ) -> Load<'a> {
        Load {
            r,
            addr: daemon.addr,
            bodies,
            novel: 0,
            sample_stats,
        }
    }

    /// Schedules and plays phase `id` of the run.
    fn phase(&mut self, id: u64, rate: f64, n: usize) -> Phase {
        let plan = inputs::schedule(self.r.seed, id, rate, n, self.novel);
        self.novel += plan.iter().filter(|s| s.novel).count();
        let phase = play(
            self.addr,
            rate,
            plan,
            self.r.workers,
            self.bodies,
            self.sample_stats,
        );
        let limit = self.r.pins.p90_limit_ms;
        println!(
            "perfbench: {}",
            phase.summary(&format!("phase {id}"), limit)
        );
        phase
    }

    /// The low-rate phase: [`LOW_SHARE`] of the run's budget, at least
    /// enough requests for a p90.
    fn low(&mut self) -> Phase {
        let n = PHASE_REQUESTS.max((self.r.seconds * LOW_SHARE * LOW_RPS).round() as usize);
        self.phase(0, LOW_RPS, n)
    }

    fn high(&mut self) -> Phase {
        self.phase(1, HIGH_RPS, PHASE_REQUESTS)
    }
}

/// The highest rate meeting `limit_ms`, from rate phases in rising
/// order. Above the highest phase that meets the limit, the judged
/// latency is interpolated linearly up to the next phase, which misses
/// it, so the estimate does not jump by a whole rung between runs. When
/// that phase missed only because the generator ran late, the passing
/// rate stands; with no passing phase the first rate is scaled down by
/// how far its latency overshot.
fn max_rate(phases: &[&Phase], limit_ms: f64) -> f64 {
    let Some(best) = phases.iter().rposition(|p| p.meets(limit_ms)) else {
        return phases
            .first()
            .map_or(0.0, |p| p.rate * (limit_ms / p.judged_ms()).min(1.0));
    };
    let pass = phases[best];
    let Some(miss) = phases.get(best + 1) else {
        return pass.rate;
    };
    let (j_pass, j_miss) = (pass.judged_ms(), miss.judged_ms());
    if !(j_miss.is_finite() && j_miss > limit_ms) {
        return pass.rate;
    }
    pass.rate + (miss.rate - pass.rate) * (limit_ms - j_pass) / (j_miss - j_pass)
}

// ---------------------------------------------------------------------
// Correctness.
// ---------------------------------------------------------------------

/// The uncached reference response (`sweep --json` bytes plus the
/// newline the daemon adds) for every distinct request body.
fn references(requests: &[&str]) -> Result<HashMap<String, String>, String> {
    let mut distinct: Vec<&str> = requests.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    let parsed: Vec<Vec<Scenario>> = distinct
        .iter()
        .map(|body| scenarios_from_json(body).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let all: Vec<(usize, &Scenario)> = parsed
        .iter()
        .enumerate()
        .flat_map(|(i, list)| list.iter().map(move |s| (i, s)))
        .collect();
    let mut outcomes = Vec::with_capacity(all.len());
    for chunk in all.chunks(REFERENCE_CHUNK) {
        let scenarios: Vec<Scenario> = chunk.iter().map(|(_, s)| (*s).clone()).collect();
        outcomes.extend(batch::run(&scenarios).map_err(|e| e.to_string())?);
    }
    let mut out = HashMap::new();
    let mut offset = 0;
    for (body, list) in distinct.iter().zip(&parsed) {
        let mine = &outcomes[offset..offset + list.len()];
        offset += list.len();
        let json = batch::sweep_json(list, mine).map_err(|e| e.to_string())?;
        out.insert((*body).to_string(), json + "\n");
    }
    Ok(out)
}

/// Checks every warm-up answer and every phase response against the
/// uncached reference; each mismatch or non-200 is a failed operation.
fn check(
    out: &mut Outcome,
    warm: &[Answer],
    phases: &[&Phase],
    bodies: &Mutex<HashMap<u64, String>>,
) -> Result<(), String> {
    let mut requests: Vec<&str> = warm.iter().map(|a| a.request.as_str()).collect();
    for phase in phases {
        requests.extend(phase.plan.iter().map(|s| s.body.as_str()));
    }
    let reference = references(&requests)?;
    let bodies = bodies.lock().map_err(|_| "body map poisoned")?;
    let mut verdict = |request: &str, status: u16, response: Option<&String>| {
        out.attempted += 1;
        if status != 200 {
            out.fail(format!("status {status} for {request}"));
        } else if response != reference.get(request) {
            out.fail(format!(
                "response bytes differ from the reference for {request}"
            ));
        }
    };
    for a in warm {
        verdict(&a.request, a.status, Some(&a.response));
    }
    for phase in phases {
        for (item, sample) in phase.plan.iter().zip(&phase.samples) {
            verdict(&item.body, sample.status, bodies.get(&sample.body_hash));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------
// The workload.
// ---------------------------------------------------------------------

pub fn run(r: &Run) -> Result<Outcome, String> {
    let mut warm = Vec::new();
    let (daemon, setup_s) = r.setup(DAEMON_SETUPS, || {
        warm.clear();
        start(r, false, &mut warm)
    })?;
    let mut out = Outcome::default();
    if r.trace {
        traced(r, daemon, warm, &mut out)?;
        return Ok(out);
    }
    let bodies = Mutex::new(HashMap::new());
    let limit = r.pins.p90_limit_ms;
    let mut load = Load::new(r, &daemon, &bodies, false);
    let low = load.low();
    let high = load.high();
    let mut ladder = Vec::new();
    // One noisy rung must not end the ladder: it stops after two
    // consecutive misses.
    let mut misses = usize::from(!high.meets(limit));
    for k in 1..=LADDER_RUNGS {
        if misses == 2 {
            break;
        }
        let rate = HIGH_RPS * LADDER_STEP.powi(k as i32);
        let rung = load.phase(1 + k as u64, rate, PHASE_REQUESTS);
        misses = if rung.meets(limit) { 0 } else { misses + 1 };
        ladder.push(rung);
    }
    let mut phases = vec![&low, &high];
    phases.extend(ladder.iter());
    let max_rps = max_rate(&phases, limit);
    let peak_rss_mb = procfs::peak_rss_mb(daemon.pid())?;
    daemon.shutdown()?;

    check(&mut out, &warm, &phases, &bodies)?;
    for (name, p) in [("low", &low), ("high", &high)] {
        if !p.valid() {
            out.fail(format!(
                "the {name}-rate phase is invalid: the generator ran late"
            ));
        }
    }
    println!(
        "perfbench: serve_p50_ms.low = {} ms, serve_p90_ms.low = {} ms, serve_p50_ms.high = {} ms, \
         serve_p90_ms.high = {} ms, serve_max_rps = {max_rps} 1/s (p90 limit {limit} ms)",
        low.p50(),
        low.p90(),
        high.p50(),
        high.p90()
    );
    out.set("setup_s", setup_s);
    out.set("latency_ms", low.p50());
    out.set("throughput_per_s", max_rps);
    out.set("peak_rss_mb", peak_rss_mb);
    Ok(out)
}

/// The traced run. The untraced daemon from set-up plays the low and
/// high phases; a traced daemon then plays the same two schedules, with
/// its counters and `/stats` read around them. An in-process replay of
/// the same requests through a `ContextPool` gives the compute counts,
/// and a layer walk over the warm-up scenarios splits the set-up.
fn traced(
    r: &Run,
    untraced: Daemon,
    mut warm: Vec<Answer>,
    out: &mut Outcome,
) -> Result<(), String> {
    let bodies = Mutex::new(HashMap::new());
    let cpu0 = procfs::cpu_s(untraced.pid())?;
    let mut load = Load::new(r, &untraced, &bodies, false);
    let (low0, high0) = (load.low(), load.high());
    out.set("cpu_s", procfs::cpu_s(untraced.pid())? - cpu0);
    untraced.shutdown()?;

    // A fresh daemon has seen none of the novel loss tangents, so it
    // replays the same two schedules.
    let mut daemon = start(r, true, &mut warm)?;
    let rss0 = procfs::rss_mb(daemon.pid())?;
    let (c0, s0) = (daemon.counters()?, daemon.stats()?);
    let mut load = Load::new(r, &daemon, &bodies, true);
    let (low1, high1) = (load.low(), load.high());
    let (c1, s1) = (daemon.counters()?, daemon.stats()?);
    let rss1 = procfs::rss_mb(daemon.pid())?;
    daemon.shutdown()?;

    layers::set_counter_metrics(out, &c1.since(&c0));
    let server_p50_us = stat(&s1, "latency_p50_us");
    out.set("serve.server_p50_us", server_p50_us);
    out.set("serve.outside_ms", low1.p50() - server_p50_us / 1e3);
    out.set(
        "serve.queue_depth_max",
        [
            low1.queue_depth_max,
            high1.queue_depth_max,
            stat(&s1, "queue_depth"),
        ]
        .into_iter()
        .fold(0.0, f64::max),
    );
    for (metric, field) in [
        ("serve.context_hits", "context_hits"),
        ("serve.context_misses", "context_misses"),
    ] {
        out.set(metric, stat(&s1, field) - stat(&s0, field));
    }
    out.set("serve.contexts_pooled", stat(&s1, "contexts_pooled"));
    out.set("serve.rss_growth_mb", rss1 - rss0);
    out.set("loadgen.late_ms_p90", low1.late_p90().max(high1.late_p90()));
    out.set("serve_p90_ms.low", low0.p90());
    out.set("serve_p50_ms.high", high0.p50());
    out.set("serve_p90_ms.high", high0.p90());
    out.set(
        "trace.overhead_ratio",
        stats::overhead_ratio(low1.p50(), low0.p50()).unwrap_or(0.0),
    );

    // The replay and the walk run in this process; its counters give
    // the walk's kernel rates.
    techlib::obs::enable();
    replay(out, &[&low1, &high1])?;
    walk_warm_up(out)?;
    check(out, &warm, &[&low0, &high0, &low1, &high1], &bodies)
}

/// Replays the warm-up and then the phases' distinct requests through a
/// `ContextPool` over an in-memory store — the daemon's request path
/// without HTTP — and reports the computations the phases caused.
fn replay(out: &mut Outcome, phases: &[&Phase]) -> Result<(), String> {
    let pool = ContextPool::with_store(Arc::new(ArtifactStore::in_memory()));
    let mut seen: Vec<Arc<StudyContext>> = Vec::new();
    let run_body = |body: &str, seen: &mut Vec<Arc<StudyContext>>| -> Result<(), String> {
        for scenario in scenarios_from_json(body).map_err(|e| e.to_string())? {
            let (ctx, _) = pool.checkout(&scenario).map_err(|e| e.to_string())?;
            batch::run_in_context(&ctx, &scenario).map_err(|e| e.to_string())?;
            if !seen.iter().any(|c| Arc::ptr_eq(c, &ctx)) {
                seen.push(ctx);
            }
        }
        Ok(())
    };
    for body in REPEATED_BODIES {
        run_body(body, &mut seen)?;
    }
    let counts = |seen: &[Arc<StudyContext>]| {
        let refs: Vec<&StudyContext> = seen.iter().map(Arc::as_ref).collect();
        layers::sum_computes(&refs)
    };
    let before = counts(&seen);
    let mut distinct: Vec<&str> = phases
        .iter()
        .flat_map(|p| p.plan.iter().map(|s| s.body.as_str()))
        .collect();
    distinct.sort_unstable();
    distinct.dedup();
    for body in distinct {
        run_body(body, &mut seen)?;
    }
    let after = counts(&seen);
    layers::set_compute_metrics(
        out,
        &codesign::context::ComputeCounts {
            split: after.split - before.split,
            netlists: after.netlists - before.netlists,
            reports: after.reports - before.reports,
            layouts: after.layouts - before.layouts,
            links: after.links - before.links,
            thermal: after.thermal - before.thermal,
        },
    );
    Ok(())
}

/// The layer walk over the warm-up scenarios (what set-up computes),
/// plus the render cost of the repeated responses.
fn walk_warm_up(out: &mut Outcome) -> Result<(), String> {
    let lists: Vec<Vec<Scenario>> = REPEATED_BODIES
        .iter()
        .map(|body| scenarios_from_json(body).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let frontend = Arc::new(FrontEnd::new());
    let ctxs: Vec<(StudyContext, &Scenario)> = lists
        .iter()
        .flatten()
        .map(|s| {
            (
                StudyContext::for_scenario_with(s, Arc::clone(&frontend), None),
                s,
            )
        })
        .collect();
    let items: Vec<_> = ctxs.iter().map(|(c, s)| (c, s.tech(), s.mode())).collect();
    out.attempted += 1;
    match layers::walk(&items) {
        Ok(walk) => layers::set_walk_metrics(out, &walk),
        Err(e) => out.fail(format!("layer walk: {e}")),
    }
    let (mut render_ms, mut bytes) = (Vec::new(), Vec::new());
    for list in &lists {
        let outcomes = batch::run(list).map_err(|e| e.to_string())?;
        let t = Instant::now();
        let body = batch::sweep_json(list, &outcomes).map_err(|e| e.to_string())?;
        render_ms.push(t.elapsed().as_secs_f64() * 1e3);
        bytes.push(body.len() as f64 + 1.0);
    }
    out.set("batch.render_ms", stats::median(&render_ms).unwrap_or(0.0));
    out.set("batch.response_bytes", stats::median(&bytes).unwrap_or(0.0));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A phase at `rate` whose 120 requests take `ms` each, or fail.
    fn phase_at(rate: f64, ms: f64, status: u16) -> Phase {
        Phase {
            rate,
            plan: Vec::new(),
            samples: (0..PHASE_REQUESTS)
                .map(|_| Sample {
                    latency_ms: ms,
                    late_ms: 0.0,
                    status,
                    body_hash: 0,
                })
                .collect(),
            queue_depth_max: 0.0,
        }
    }

    #[test]
    fn the_knee_interpolates_past_the_highest_passing_rung() {
        let (a, b, c) = (
            phase_at(100.0, 10.0, 200),
            phase_at(120.0, 60.0, 200),
            phase_at(144.0, 90.0, 200),
        );
        assert_eq!(max_rate(&[&a], 50.0), 100.0);
        // 10 ms at 100/s, 60 ms at 120/s: 50 ms is crossed at 116/s.
        assert!((max_rate(&[&a, &b, &c], 50.0) - 116.0).abs() < 1e-9);
        // A noisy miss below a passing rung does not end the search.
        let d = phase_at(172.8, 20.0, 200);
        assert_eq!(max_rate(&[&a, &b, &d], 50.0), 172.8);
        // Failed requests count as over the limit.
        let e = phase_at(120.0, 5.0, 429);
        assert!(!e.meets(50.0));
        assert_eq!(max_rate(&[&a, &e], 50.0), 100.0);
        // Nothing passes: the first rate, scaled by the overshoot.
        assert!((max_rate(&[&b], 50.0) - 100.0).abs() < 1e-9);
    }
}
