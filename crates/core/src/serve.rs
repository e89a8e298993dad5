//! `codesign serve`: a bounded, deadline-aware sweep service.
//!
//! A long-running HTTP/1.1 JSON daemon over the batch engine, built on
//! `std` only (no async runtime, no HTTP library — the parser below
//! speaks exactly the subset the service needs). One process serves
//! many sweep requests and shares the warm artifact caches between
//! them, so repeated scenarios skip the cold front-end/route/thermal
//! work the one-shot CLI pays on every invocation.
//!
//! # Request pipeline
//!
//! ```text
//! poll(2) readiness wait on the listener (5 ms bound, EINTR on SIGTERM)
//!        → accept → connection pool (bounded, 503 + Retry-After at capacity)
//!        → read (whole-phase header/body budgets, size limits)
//!        → admission (bounded queue, 429 + Retry-After when full)
//!        → job queue (FIFO)
//!        → request worker: deadline scope → context pool → batch run
//!          (scenarios fan out on the process-wide `techlib::par` pool)
//!        → bounded write (abort-on-stall within the write budget)
//! ```
//!
//! # Network-edge hardening
//!
//! Every per-connection resource is explicitly bounded, so a
//! misbehaving client can never pin a thread or wedge the drain:
//!
//! * **Connection pool** — accepted sockets are handled by a
//!   fixed-size pool of [`ServeConfig::max_connections`] threads; the
//!   accept loop never spawns and never touches a socket itself. An
//!   accept beyond capacity goes to a dedicated rejection thread that
//!   answers `503` + `Retry-After` and closes the socket under hard
//!   deadlines and a drain byte cap, so neither a connect flood nor a
//!   byte-dripping rejected client can slow the accept loop. A panic
//!   inside a handler (or a request worker) is caught: the pools never
//!   shrink and the connection count never leaks.
//! * **Read budgets** — the header section must arrive within
//!   [`ServeConfig::header_read_ms`] and the body within
//!   [`ServeConfig::body_read_ms`], *in total*: the deadline is fixed
//!   when the phase starts, so a slowloris client dripping one byte
//!   per interval cannot reset it. Exhausting a budget aborts the
//!   connection with `408` and counts `serve.slow_client_aborts`.
//! * **Size limits** — header sections over 64 KiB answer `431`;
//!   bodies declared over [`ServeConfig::max_body_bytes`] answer
//!   `413` before any body byte is read.
//! * **Bounded writes** — a whole response must be accepted by the
//!   peer within [`ServeConfig::write_ms`]; a reader that stalls past
//!   the budget has its socket dropped (`serve.write_timeouts`), so
//!   graceful drain completes even against clients that never read.
//!
//! * **Admission** — at most [`ServeConfig::workers`] jobs execute and
//!   at most [`ServeConfig::queue_depth`] more wait. A request arriving
//!   with both full is rejected immediately with `429 Too Many
//!   Requests` and a `Retry-After` header: explicit backpressure
//!   instead of unbounded memory growth.
//! * **Deadlines** — `X-Codesign-Deadline-Ms` (or the server-wide
//!   [`ServeConfig::default_deadline_ms`]) arms a
//!   [`techlib::cancel`] deadline scope around the request. The flow
//!   polls it at stage boundaries; an expired request surfaces
//!   per-scenario [`FlowError::Deadline`] rows in an otherwise normal
//!   response body, with status `504`. The worker pool and the shared
//!   caches stay fully reusable afterwards.
//! * **Context pool** — clean scenarios are keyed by their resolved
//!   [`techlib::spec::InterposerSpec`] array; repeated keys reuse one
//!   warm [`StudyContext`] (and all clean scenarios share one
//!   [`FrontEnd`] and one artifact store), so a repeated scenario is
//!   served from stored artifacts. Scenarios with fault sites always
//!   get private, unpooled contexts over private stores — injected
//!   failures must never poison a shared cache.
//! * **Fan-out pool** — a request's scenarios, and the fan-out nested
//!   inside each, run on [`techlib::par`]'s one process-wide pool of
//!   `CODESIGN_THREADS − 1` parked workers plus the request worker
//!   itself. Concurrent requests share that bounded set of threads
//!   instead of spawning their own, and a fan-out nobody else has time
//!   for runs on the request worker. The width shapes wall-clock only;
//!   response bodies are byte-identical at any width.
//! * **Drain** — `POST /shutdown` (or `SIGTERM`) stops admission,
//!   finishes every queued and in-flight job, answers their clients,
//!   and lets [`Server::run`] return cleanly.
//!
//! # Endpoints
//!
//! | Endpoint          | Behaviour                                        |
//! |-------------------|--------------------------------------------------|
//! | `POST /sweep`     | body = `scenarios_from_json` document; returns the `codesign sweep --json` array |
//! | `GET /stats`      | queue depth, in-flight count, admission/deadline/cache counters, latency p50/p99 |
//! | `GET /healthz`    | liveness probe                                   |
//! | `POST /shutdown`  | graceful drain                                   |
//!
//! `POST /sweep` also honours `X-Codesign-Hold-Ms`, an artificial
//! service-time pad used by the load generator and the integration
//! tests to shape queue contention deterministically. The pad ends
//! early at the request's deadline or at shutdown, so it cannot stall
//! the drain.

use crate::batch;
use crate::context::{FrontEnd, StudyContext};
use crate::scenario::{scenarios_from_json, Scenario};
use crate::FlowError;
use std::collections::{HashMap, VecDeque};
use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};
use techlib::spec::{InterposerKind, InterposerSpec};
use techlib::store::ArtifactStore;

/// Request header carrying a per-request deadline in milliseconds.
pub const DEADLINE_HEADER: &str = "X-Codesign-Deadline-Ms";
/// Request header adding an artificial service-time pad in milliseconds
/// (load shaping for tests and the bench driver).
pub const HOLD_HEADER: &str = "X-Codesign-Hold-Ms";

/// Tunables of one [`Server`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Request-execution workers (each runs one sweep at a time).
    pub workers: usize,
    /// Waiting jobs admitted beyond the ones already executing; the
    /// queue-full admission answer is `429`.
    pub queue_depth: usize,
    /// Deadline applied to requests that carry no
    /// [`DEADLINE_HEADER`], in milliseconds (`None` = no deadline).
    pub default_deadline_ms: Option<u64>,
    /// Largest accepted request body, in bytes.
    pub max_body_bytes: usize,
    /// On-disk tier for the shared artifact store (`--cache-dir`). With
    /// a directory the warm pool survives restarts: a fresh server over
    /// the same directory answers its first request from persisted
    /// artifacts. `None` keeps the store in-memory only.
    pub cache_dir: Option<PathBuf>,
    /// Connection-handler pool size: the hard cap on sockets being
    /// read, executed, or answered at once. Accepts at capacity are
    /// answered `503` + `Retry-After` immediately instead of spawning.
    pub max_connections: usize,
    /// Whole-header read budget in milliseconds, fixed when the
    /// connection is picked up — drip-fed bytes never extend it.
    pub header_read_ms: u64,
    /// Whole-body read budget in milliseconds, fixed when the header
    /// section has parsed.
    pub body_read_ms: u64,
    /// Whole-response write budget in milliseconds. A reader stalling
    /// the send past this has its socket dropped (abort-on-stall).
    pub write_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 2,
            queue_depth: 16,
            default_deadline_ms: None,
            max_body_bytes: 4 << 20,
            cache_dir: None,
            max_connections: 32,
            header_read_ms: 10_000,
            body_read_ms: 30_000,
            write_ms: 10_000,
        }
    }
}

// ---------------------------------------------------------------------
// Context pool.
// ---------------------------------------------------------------------

/// A warm [`StudyContext`] pool keyed by resolved spec set.
///
/// Clean scenarios resolving to the same [`InterposerSpec`] array share
/// one context across requests; every pooled context runs over the
/// pool's one [`ArtifactStore`] and one [`FrontEnd`] (the
/// spec-independent design/split/chipletize chain) over it, so
/// differently-specced contexts still share every artifact whose stage
/// key coincides. Faulty scenarios always get fresh private contexts
/// over private stores and are never pooled.
#[derive(Debug)]
pub struct ContextPool {
    frontend: Arc<FrontEnd>,
    store: Arc<ArtifactStore>,
    contexts: Mutex<HashMap<String, Arc<StudyContext>>>,
}

impl Default for ContextPool {
    fn default() -> ContextPool {
        ContextPool::new()
    }
}

impl ContextPool {
    /// An empty pool over a fresh in-memory artifact store.
    pub fn new() -> ContextPool {
        ContextPool::with_store(Arc::new(ArtifactStore::in_memory()))
    }

    /// An empty pool whose clean contexts share `store` (in addition to
    /// the pool's own per-spec-set context reuse, the store shares
    /// stage-keyed artifacts *between* differently-specced contexts —
    /// and across restarts when it has a disk tier).
    pub fn with_store(store: Arc<ArtifactStore>) -> ContextPool {
        ContextPool {
            frontend: Arc::new(FrontEnd::with_store(Arc::clone(&store))),
            store,
            contexts: Mutex::new(HashMap::new()),
        }
    }

    /// The pool's shared store.
    pub fn store(&self) -> &ArtifactStore {
        &self.store
    }

    /// The context to run `scenario` in, plus whether it was a pool
    /// hit. The pooled context keeps the label of the first scenario
    /// that created it — labels only feed observability spans, never
    /// study bytes.
    ///
    /// # Errors
    ///
    /// [`FlowError::InvalidConfig`] if the scenario's resolved specs
    /// fail to serialize into a pool key (not reachable for valid
    /// scenarios).
    pub fn checkout(&self, scenario: &Scenario) -> Result<(Arc<StudyContext>, bool), FlowError> {
        if !scenario.is_clean() {
            return Ok((Arc::new(StudyContext::for_scenario(scenario)), false));
        }
        let key = spec_key(scenario)?;
        let mut map = self.contexts.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(ctx) = map.get(&key) {
            return Ok((Arc::clone(ctx), true));
        }
        let ctx = Arc::new(StudyContext::for_scenario_with(
            scenario,
            Arc::clone(&self.frontend),
            Some(Arc::clone(&self.store)),
        ));
        map.insert(key, Arc::clone(&ctx));
        Ok((ctx, false))
    }

    /// Distinct spec sets currently pooled.
    pub fn len(&self) -> usize {
        self.contexts
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// True when nothing is pooled yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Pool key: the serialized resolved-spec array. `InterposerSpec` holds
/// `f64` fields, so it cannot be `Eq`/`Hash` itself; its JSON form is a
/// faithful stand-in (serde emits every field, and two scenarios whose
/// resolved specs print identically produce identical studies).
fn spec_key(scenario: &Scenario) -> Result<String, FlowError> {
    let specs: Vec<InterposerSpec> = InterposerKind::ALL
        .iter()
        .map(|&kind| scenario.spec_for(kind))
        .collect();
    serde_json::to_string(&specs).map_err(|e| FlowError::InvalidConfig {
        reason: format!("spec pool key serialization: {e}"),
    })
}

// ---------------------------------------------------------------------
// Server state.
// ---------------------------------------------------------------------

#[derive(Debug, Default)]
struct ServeStats {
    requests: AtomicU64,
    rejected: AtomicU64,
    conn_rejected: AtomicU64,
    slow_client_aborts: AtomicU64,
    write_timeouts: AtomicU64,
    deadline_hits: AtomicU64,
    completed: AtomicU64,
    context_hits: AtomicU64,
    context_misses: AtomicU64,
    latencies_us: LatencyHistogram,
}

/// `log2` of the sub-buckets per power of two in [`LatencyHistogram`]:
/// every value below `2 << LATENCY_SUB_BITS` µs has a bucket of its own.
const LATENCY_SUB_BITS: u32 = 7;
const LATENCY_SUB_BUCKETS: u64 = 1 << LATENCY_SUB_BITS;

/// Highest power of two [`LatencyHistogram`] resolves; latencies of
/// `2^(LATENCY_MAX_EXP + 1)` µs (about 19 hours) and above clamp into
/// the top bucket.
const LATENCY_MAX_EXP: u32 = 35;

/// Request latencies in µs as a fixed log-linear histogram: 128 buckets
/// per power of two, 3 840 `AtomicU64`s (30 KiB) whatever the request
/// count. Recording is one relaxed `fetch_add`; a percentile reads the
/// lower bound of the bucket holding the nearest rank, which is within
/// 1/128 of the exact nearest-rank value and exact below 256 µs.
#[derive(Debug)]
struct LatencyHistogram {
    buckets: Box<[AtomicU64]>,
}

impl Default for LatencyHistogram {
    fn default() -> LatencyHistogram {
        // The exact buckets below 256 µs, then 128 per power of two up
        // to `LATENCY_MAX_EXP`.
        let len = (2 + u64::from(LATENCY_MAX_EXP - LATENCY_SUB_BITS)) * LATENCY_SUB_BUCKETS;
        LatencyHistogram {
            buckets: (0..len).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

impl LatencyHistogram {
    /// Bucket index of `us`: the value itself below 256; above, the
    /// power of two picks a run of 128 buckets and the 7 bits after the
    /// leading one pick the bucket within it.
    fn bucket(&self, us: u64) -> usize {
        let index = if us < 2 * LATENCY_SUB_BUCKETS {
            us
        } else {
            let shift = u64::from(63 - us.leading_zeros() - LATENCY_SUB_BITS);
            shift * LATENCY_SUB_BUCKETS + (us >> shift)
        };
        index.min(self.buckets.len() as u64 - 1) as usize
    }

    /// The smallest latency that lands in bucket `index`.
    fn lower_bound(index: usize) -> u64 {
        let index = index as u64;
        if index < 2 * LATENCY_SUB_BUCKETS {
            index
        } else {
            let shift = index / LATENCY_SUB_BUCKETS - 1;
            (index % LATENCY_SUB_BUCKETS + LATENCY_SUB_BUCKETS) << shift
        }
    }

    fn record(&self, us: u64) {
        self.buckets[self.bucket(us)].fetch_add(1, Ordering::Relaxed);
    }

    fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Nearest-rank `percent` percentile in µs (0 when empty), rounded
    /// down to its bucket's lower bound.
    fn percentile_us(&self, percent: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((percent / 100.0) * count as f64).ceil() as u64;
        let rank = rank.clamp(1, count);
        // Buckets only grow, so a second pass reaches `rank` even while
        // requests keep recording.
        let mut seen = 0;
        for (index, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                return Self::lower_bound(index);
            }
        }
        Self::lower_bound(self.buckets.len() - 1)
    }
}

#[derive(Debug)]
struct Job {
    body: String,
    deadline: Option<Instant>,
    hold: Option<Duration>,
    reply: mpsc::Sender<Response>,
}

#[derive(Debug, Default)]
struct Queue {
    jobs: VecDeque<Job>,
    /// Jobs a request worker has taken and not yet answered. Admission
    /// counts them with the waiting `jobs`, so an idle worker's slot is
    /// free before the worker wakes and stays taken until it replies.
    running: usize,
    closed: bool,
}

/// Accepted sockets waiting for a connection-pool thread. Bounded by
/// construction: the accept loop only enqueues while `open_conns` is
/// below [`ServeConfig::max_connections`].
#[derive(Debug, Default)]
struct ConnQueue {
    streams: VecDeque<TcpStream>,
    closed: bool,
}

/// Over-capacity sockets waiting for the rejection thread to answer
/// them `503`. Bounded to [`REJECT_QUEUE_DEPTH`]: past that the accept
/// loop drops the socket unanswered rather than queue without limit.
#[derive(Debug, Default)]
struct RejectQueue {
    streams: VecDeque<TcpStream>,
    closed: bool,
}

/// Most sockets waiting for the rejection thread at once. Beyond this
/// a connect flood is shedding faster than 503s can be written, and a
/// silent close beats unbounded queueing.
const REJECT_QUEUE_DEPTH: usize = 64;

/// Whole-phase budget for each half of a rejection (the `503` write,
/// then the graceful-close drain), in milliseconds.
const REJECT_IO_MS: u64 = 100;

/// Most bytes drained from a rejected socket before closing anyway.
/// Together with [`REJECT_IO_MS`] this bounds the drain absolutely: a
/// client dripping one byte per read-timeout can extend neither the
/// deadline nor the byte budget.
const REJECT_DRAIN_BYTES: usize = 64 * 1024;

#[derive(Debug)]
struct Shared {
    config: ServeConfig,
    queue: Mutex<Queue>,
    ready: Condvar,
    conns: Mutex<ConnQueue>,
    conn_ready: Condvar,
    rejects: Mutex<RejectQueue>,
    reject_ready: Condvar,
    /// Sockets accepted but not yet fully handled (queued + in
    /// handling). Only the accept thread increments, so the capacity
    /// check cannot overshoot.
    open_conns: AtomicU64,
    pool: ContextPool,
    stats: ServeStats,
    shutdown: AtomicBool,
    started: Instant,
}

impl Shared {
    fn new(config: ServeConfig) -> std::io::Result<Shared> {
        // The daemon always runs its pool over a shared store: clean
        // scenarios with coinciding stage keys share computations even
        // across differently-specced pooled contexts. A cache directory
        // upgrades the store with the persistent warm tier.
        let store = match &config.cache_dir {
            Some(dir) => Arc::new(ArtifactStore::with_disk(dir)?),
            None => Arc::new(ArtifactStore::in_memory()),
        };
        Ok(Shared {
            config,
            queue: Mutex::new(Queue::default()),
            ready: Condvar::new(),
            conns: Mutex::new(ConnQueue::default()),
            conn_ready: Condvar::new(),
            rejects: Mutex::new(RejectQueue::default()),
            reject_ready: Condvar::new(),
            open_conns: AtomicU64::new(0),
            pool: ContextPool::with_store(store),
            stats: ServeStats::default(),
            shutdown: AtomicBool::new(false),
            started: Instant::now(),
        })
    }

    fn lock_queue(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_conns(&self) -> MutexGuard<'_, ConnQueue> {
        self.conns.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_rejects(&self) -> MutexGuard<'_, RejectQueue> {
        self.rejects.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

#[derive(Debug)]
struct Response {
    status: u16,
    body: String,
    retry_after_s: Option<u64>,
    allow: Option<&'static str>,
}

impl Response {
    fn json(status: u16, body: String) -> Response {
        Response {
            status,
            body,
            retry_after_s: None,
            allow: None,
        }
    }
}

fn error_body(message: &str) -> String {
    // A string always serializes; `null` keeps the body JSON regardless.
    let message = serde_json::to_string(message).unwrap_or_else(|_| "null".into());
    format!("{{\"error\":{message}}}\n")
}

// ---------------------------------------------------------------------
// SIGTERM.
// ---------------------------------------------------------------------

static SIGTERM_SEEN: AtomicBool = AtomicBool::new(false);

#[cfg(unix)]
fn install_sigterm_handler() {
    unsafe extern "C" fn on_sigterm(_signum: i32) {
        SIGTERM_SEEN.store(true, Ordering::Relaxed);
    }
    extern "C" {
        // std already links libc on unix; declaring `signal` here avoids
        // a crate dependency the offline container cannot fetch.
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGTERM_NUM: i32 = 15;
    // SAFETY: the handler only stores to a static atomic, which is
    // async-signal-safe; `signal` is called once before any request
    // thread exists.
    unsafe {
        signal(SIGTERM_NUM, on_sigterm as *const () as usize);
    }
}

#[cfg(not(unix))]
fn install_sigterm_handler() {}

/// Blocks until `listener` has a pending connection, a signal arrives,
/// or `timeout` passes, whichever comes first. The caller re-checks its
/// flags and calls `accept` in every case, so the outcome is ignored.
#[cfg(unix)]
fn wait_for_connection(listener: &TcpListener, timeout: Duration) {
    use std::os::unix::io::AsRawFd as _;
    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    extern "C" {
        // Declared here for the same reason as `signal` above.
        fn poll(fds: *mut PollFd, nfds: std::ffi::c_ulong, timeout_ms: i32) -> i32;
    }
    const POLLIN: i16 = 0x1;
    let mut fd = PollFd {
        fd: listener.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let timeout_ms = i32::try_from(timeout.as_millis()).unwrap_or(i32::MAX);
    // SAFETY: `fd` is one valid, exclusively borrowed `pollfd` for the
    // whole call and `nfds` is 1; the listener outlives the call, so the
    // descriptor stays open. poll(2) is never restarted after a signal
    // handler, so SIGTERM ends the wait early with EINTR.
    unsafe {
        poll(&mut fd, 1, timeout_ms);
    }
}

#[cfg(not(unix))]
fn wait_for_connection(_listener: &TcpListener, timeout: Duration) {
    std::thread::sleep(timeout);
}

// ---------------------------------------------------------------------
// The server.
// ---------------------------------------------------------------------

/// A bound-but-not-yet-running sweep service. [`Server::bind`] claims
/// the socket (so callers can read [`Server::local_addr`] — e.g. after
/// binding port 0), [`Server::run`] serves until drained.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    local_addr: SocketAddr,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds `addr` (any `host:port`; port 0 picks a free port).
    ///
    /// # Errors
    ///
    /// Socket bind/configuration failures, or an unusable
    /// [`ServeConfig::cache_dir`].
    pub fn bind(addr: &str, config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        // Non-blocking accept so the loop can check the shutdown flags
        // between readiness waits: glibc installs signal handlers with
        // SA_RESTART, so a blocking accept would never observe SIGTERM.
        listener.set_nonblocking(true)?;
        Ok(Server {
            listener,
            local_addr,
            shared: Arc::new(Shared::new(config)?),
        })
    }

    /// The bound address (resolves port 0 to the real port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Serves until `POST /shutdown` or `SIGTERM`, then drains: stops
    /// accepting, finishes every queued and in-flight job (their
    /// clients still get full responses), joins all workers, and
    /// returns. Every drain step is time-bounded: connection threads
    /// abort reads at the read budgets and writes at the write budget,
    /// so even a client that never reads its response cannot wedge the
    /// join.
    ///
    /// # Errors
    ///
    /// Fatal accept-loop I/O failures (`WouldBlock` is the poll idle
    /// path, not an error). The drain still runs before the error
    /// returns.
    pub fn run(self) -> std::io::Result<()> {
        install_sigterm_handler();
        let mut workers = Vec::new();
        for _ in 0..self.shared.config.workers.max(1) {
            let shared = Arc::clone(&self.shared);
            workers.push(std::thread::spawn(move || worker_loop(&shared)));
        }
        // The fixed-size connection pool: reading, execution hand-off
        // and the response write for one socket all happen on one of
        // these threads. The accept loop never spawns, so a client
        // flood cannot grow the thread count past this cap.
        let mut handlers = Vec::new();
        for _ in 0..self.shared.config.max_connections.max(1) {
            let shared = Arc::clone(&self.shared);
            handlers.push(std::thread::spawn(move || connection_loop(&shared)));
        }
        // Over-capacity 503s are written by this dedicated thread, so
        // the accept loop never performs per-socket I/O and a connect
        // flood cannot slow accepts or the shutdown poll below.
        let rejector = {
            let shared = Arc::clone(&self.shared);
            std::thread::spawn(move || reject_loop(&shared))
        };
        let result = loop {
            if SIGTERM_SEEN.load(Ordering::Relaxed) {
                self.shared.shutdown.store(true, Ordering::Relaxed);
            }
            if self.shared.shutdown.load(Ordering::Relaxed) {
                break Ok(());
            }
            match self.listener.accept() {
                Ok((stream, _peer)) => accept_stream(&self.shared, stream),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    wait_for_connection(&self.listener, Duration::from_millis(5));
                }
                Err(e) => {
                    self.shared.shutdown.store(true, Ordering::Relaxed);
                    break Err(e);
                }
            }
        };
        // Drain, in dependency order. 1) Close the connection queue and
        // join the pool: handlers finish their queued and in-flight
        // sockets (late /sweep admissions answer 503 because the
        // shutdown flag is set; handlers blocked on a worker reply get
        // it because the workers are still running). 2) Close the job
        // queue and join the workers, which finish every admitted job.
        {
            self.shared.lock_conns().closed = true;
        }
        self.shared.conn_ready.notify_all();
        for handler in handlers {
            let _ = handler.join();
        }
        // The rejection thread's backlog is doubly bounded (queue depth
        // and per-socket I/O budgets), so this join is time-bounded too.
        {
            self.shared.lock_rejects().closed = true;
        }
        self.shared.reject_ready.notify_all();
        let _ = rejector.join();
        self.shared.lock_queue().closed = true;
        self.shared.ready.notify_all();
        for worker in workers {
            let _ = worker.join();
        }
        result
    }
}

/// Hands an accepted socket to the connection pool, or — when the pool
/// is at capacity — to the rejection thread for a `503`. Either way the
/// accept loop only accepts and enqueues; it never performs per-socket
/// I/O, so no client behaviour can stall it.
fn accept_stream(shared: &Shared, stream: TcpStream) {
    // Accepted sockets must block (with timeouts): Linux does not make
    // them inherit the listener's non-blocking flag, but that is
    // platform-specific, so pin it.
    let _ = stream.set_nonblocking(false);
    let capacity = shared.config.max_connections.max(1) as u64;
    if shared.open_conns.load(Ordering::Relaxed) >= capacity {
        shared.stats.conn_rejected.fetch_add(1, Ordering::Relaxed);
        techlib::obs::add(techlib::obs::SERVE_CONN_REJECTED, 1);
        // A full rejection queue means the flood is outpacing even the
        // bounded 503 writes; dropping the socket unanswered is the
        // only move that keeps every queue finite.
        {
            let mut rejects = shared.lock_rejects();
            if !rejects.closed && rejects.streams.len() < REJECT_QUEUE_DEPTH {
                rejects.streams.push_back(stream);
            }
        }
        shared.reject_ready.notify_one();
        return;
    }
    shared.open_conns.fetch_add(1, Ordering::Relaxed);
    shared.lock_conns().streams.push_back(stream);
    shared.conn_ready.notify_one();
}

/// The rejection thread: answers each over-capacity socket with `503`
/// + `Retry-After` and closes it gracefully, within hard bounds.
fn reject_loop(shared: &Shared) {
    loop {
        let stream = {
            let mut rejects = shared.lock_rejects();
            loop {
                if let Some(stream) = rejects.streams.pop_front() {
                    break Some(stream);
                }
                if rejects.closed {
                    break None;
                }
                rejects = shared
                    .reject_ready
                    .wait(rejects)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        let Some(mut stream) = stream else { return };
        reject_connection(&mut stream);
    }
}

/// Writes the capacity `503`, then closes gracefully: half-close the
/// write side and drain whatever the client already sent, because
/// closing with unread data in the receive buffer makes the kernel
/// send RST, which can discard the buffered 503 before the client
/// reads it. The write and the drain each get a fixed whole-phase
/// deadline ([`REJECT_IO_MS`]) and the drain additionally a byte cap
/// ([`REJECT_DRAIN_BYTES`]) — a client dripping bytes just under the
/// read timeout extends neither, so a rejected socket can hold this
/// thread for at most ~2 × [`REJECT_IO_MS`].
fn reject_connection(stream: &mut TcpStream) {
    let reject = Response {
        status: 503,
        body: error_body("connection capacity reached"),
        retry_after_s: Some(1),
        allow: None,
    };
    let _ = write_response_within(stream, &reject, Duration::from_millis(REJECT_IO_MS));
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let deadline = Instant::now() + Duration::from_millis(REJECT_IO_MS);
    let mut scratch = [0u8; 4096];
    let mut drained = 0usize;
    while drained < REJECT_DRAIN_BYTES {
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            break;
        }
        let _ = stream.set_read_timeout(Some(remaining.max(Duration::from_millis(1))));
        match stream.read(&mut scratch) {
            Ok(0) | Err(_) => break,
            Ok(n) => drained += n,
        }
    }
}

/// One connection-pool thread: picks up accepted sockets until the
/// queue closes and empties, handling each within the read/write
/// budgets.
fn connection_loop(shared: &Shared) {
    loop {
        let stream = {
            let mut conns = shared.lock_conns();
            loop {
                if let Some(stream) = conns.streams.pop_front() {
                    break Some(stream);
                }
                if conns.closed {
                    break None;
                }
                conns = shared
                    .conn_ready
                    .wait(conns)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        let Some(stream) = stream else { return };
        // Panic isolation: a panicking handler must neither kill this
        // pool thread nor skip the decrement below — either would
        // permanently shrink the effective pool until every accept is
        // answered 503. The socket dies with the unwind, which is the
        // right answer for the client of a broken request.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            handle_connection(shared, stream);
        }));
        shared.open_conns.fetch_sub(1, Ordering::Relaxed);
        drop(outcome);
    }
}

// ---------------------------------------------------------------------
// Request workers.
// ---------------------------------------------------------------------

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut queue = shared.lock_queue();
            loop {
                if let Some(job) = queue.jobs.pop_front() {
                    queue.running += 1;
                    break Some(job);
                }
                if queue.closed {
                    break None;
                }
                queue = shared
                    .ready
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        let Some(job) = job else { return };
        let started = Instant::now();
        // Panic isolation: a sweep that panics must not kill the
        // worker (its queued successors would wait on recv() forever)
        // or leave its running slot taken — answer 500 and move on.
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| execute(shared, &job)));
        let response =
            outcome.unwrap_or_else(|_| Response::json(500, error_body("request worker panicked")));
        let elapsed_us = u64::try_from(started.elapsed().as_micros()).unwrap_or(u64::MAX);
        shared.stats.latencies_us.record(elapsed_us);
        shared.lock_queue().running -= 1;
        shared.stats.completed.fetch_add(1, Ordering::Relaxed);
        techlib::obs::add(techlib::obs::SERVE_COMPLETED, 1);
        // A send failure means the client hung up; the work is done
        // either way and the next job proceeds normally.
        let _ = job.reply.send(response);
    }
}

/// Runs one admitted sweep job to a response. The deadline scope is
/// entered before anything else (including the artificial hold), so a
/// request that overstays while queued-plus-held starts failing at the
/// first stage boundary its scenarios reach.
fn execute(shared: &Shared, job: &Job) -> Response {
    // Test-only trigger for the worker panic-isolation test; release
    // builds carry no panic path here.
    #[cfg(test)]
    if job.body == "panic-for-tests" {
        panic!("test-injected worker panic");
    }
    let _span = techlib::obs::span("serve.request");
    let _deadline = job.deadline.map(techlib::cancel::deadline_at);
    if let Some(hold) = job.hold {
        let end = Instant::now() + hold;
        hold_until(
            shared,
            job.deadline.map_or(end, |deadline| deadline.min(end)),
        );
    }
    let scenarios = match scenarios_from_json(&job.body) {
        Ok(scenarios) => scenarios,
        Err(e) => return Response::json(400, error_body(&e.to_string())),
    };
    // The pool's width is fixed per process; a malformed
    // CODESIGN_THREADS fails every request rather than silently
    // running at the fallback width.
    if let Err(e) = techlib::par::try_thread_count() {
        return Response::json(500, error_body(&e.to_string()));
    }
    let mut contexts = Vec::with_capacity(scenarios.len());
    for scenario in &scenarios {
        match shared.pool.checkout(scenario) {
            Ok((ctx, hit)) => {
                if hit {
                    shared.stats.context_hits.fetch_add(1, Ordering::Relaxed);
                    techlib::obs::add(techlib::obs::SERVE_CONTEXT_HITS, 1);
                } else {
                    shared.stats.context_misses.fetch_add(1, Ordering::Relaxed);
                    techlib::obs::add(techlib::obs::SERVE_CONTEXT_MISSES, 1);
                }
                contexts.push(ctx);
            }
            Err(e) => return Response::json(500, error_body(&e.to_string())),
        }
    }
    let indices: Vec<usize> = (0..scenarios.len()).collect();
    let outcomes = techlib::par::ordered_map(&indices, |&i| {
        batch::run_in_context(&contexts[i], &scenarios[i])
    });
    let deadline_hit = outcomes
        .iter()
        .any(|outcome| matches!(outcome, Err(FlowError::Deadline { .. })));
    if deadline_hit {
        shared.stats.deadline_hits.fetch_add(1, Ordering::Relaxed);
        techlib::obs::add(techlib::obs::SERVE_DEADLINE_HITS, 1);
    }
    match batch::sweep_json(&scenarios, &outcomes) {
        // `sweep --json` prints the array plus a newline; the response
        // body reproduces the CLI's stdout byte for byte.
        Ok(mut body) => {
            body.push('\n');
            Response::json(if deadline_hit { 504 } else { 200 }, body)
        }
        Err(e) => Response::json(500, error_body(&e.to_string())),
    }
}

/// The artificial hold: sleeps until `end` (the hold's end or the
/// request's deadline, whichever is first) or shutdown, so a long hold
/// can neither outlive its deadline nor stall the drain. Shutdown is
/// checked every [`HOLD_POLL`]; the held job then runs as usual.
fn hold_until(shared: &Shared, end: Instant) {
    while !shared.shutdown.load(Ordering::Relaxed) {
        let left = end.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return;
        }
        std::thread::sleep(left.min(HOLD_POLL));
    }
}

/// How often a held job checks for shutdown.
const HOLD_POLL: Duration = Duration::from_millis(5);

// ---------------------------------------------------------------------
// HTTP handling.
// ---------------------------------------------------------------------

#[derive(Debug)]
struct Request {
    method: String,
    path: String,
    headers: Vec<(String, String)>,
    body: String,
}

fn header<'a>(request: &'a Request, name: &str) -> Option<&'a str> {
    request
        .headers
        .iter()
        .find(|(key, _)| key.eq_ignore_ascii_case(name))
        .map(|(_, value)| value.as_str())
}

fn header_ms(request: &Request, name: &str) -> Result<Option<u64>, String> {
    let Some(raw) = header(request, name) else {
        return Ok(None);
    };
    raw.trim()
        .parse::<u64>()
        .map(Some)
        .map_err(|_| format!("{name}: expected a millisecond count, got {raw:?}"))
}

/// Largest accepted header section, bytes. Larger requests answer
/// `431`.
const MAX_HEADER_BYTES: usize = 64 * 1024;

/// Why a request could not be read. Each variant maps to one response
/// (or, for [`ReadError::Disconnected`], to none at all).
#[derive(Debug)]
enum ReadError {
    /// A whole-phase read budget ran out: the client dripped bytes too
    /// slowly (slowloris) or simply stopped sending.
    Slow { phase: &'static str },
    /// The peer vanished before a full request arrived; there is
    /// nobody left to answer.
    Disconnected,
    /// The header section exceeded [`MAX_HEADER_BYTES`] (`431`).
    HeaderTooLarge,
    /// The declared body exceeds [`ServeConfig::max_body_bytes`]
    /// (`413`, before any body byte is read).
    BodyTooLarge { declared: usize, max: usize },
    /// Anything else unparseable (`400`).
    Malformed(String),
}

fn handle_connection(shared: &Shared, mut stream: TcpStream) {
    let response = match read_request(&mut stream, &shared.config) {
        Ok(request) => dispatch(shared, &request),
        Err(ReadError::Disconnected) => return,
        Err(ReadError::Slow { phase }) => {
            shared
                .stats
                .slow_client_aborts
                .fetch_add(1, Ordering::Relaxed);
            techlib::obs::add(techlib::obs::SERVE_SLOW_CLIENT_ABORTS, 1);
            Response::json(408, error_body(&format!("{phase} read budget exhausted")))
        }
        Err(ReadError::HeaderTooLarge) => Response::json(
            431,
            error_body(&format!("header section exceeds {MAX_HEADER_BYTES} bytes")),
        ),
        Err(ReadError::BodyTooLarge { declared, max }) => Response::json(
            413,
            error_body(&format!(
                "request body of {declared} bytes exceeds the {max}-byte limit"
            )),
        ),
        Err(ReadError::Malformed(reason)) => {
            Response::json(400, error_body(&format!("malformed request: {reason}")))
        }
    };
    let budget = Duration::from_millis(shared.config.write_ms.max(1));
    if write_response_within(&mut stream, &response, budget) == WriteOutcome::TimedOut {
        shared.stats.write_timeouts.fetch_add(1, Ordering::Relaxed);
        techlib::obs::add(techlib::obs::SERVE_WRITE_TIMEOUTS, 1);
    }
}

/// One bounded read. The deadline is the *phase* deadline — it never
/// moves, no matter how many bytes trickle in — so the total time a
/// client can hold the socket in this phase is the configured budget.
fn read_within(
    stream: &mut TcpStream,
    chunk: &mut [u8],
    deadline: Instant,
    phase: &'static str,
) -> Result<usize, ReadError> {
    loop {
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Err(ReadError::Slow { phase });
        }
        // `set_read_timeout(Some(ZERO))` is rejected by std; clamping
        // up a hair keeps the final slice of the budget enforceable.
        let _ = stream.set_read_timeout(Some(remaining.max(Duration::from_millis(1))));
        match stream.read(chunk) {
            Ok(n) => return Ok(n),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) => {}
            Err(_) => return Err(ReadError::Disconnected),
        }
    }
}

fn read_request(stream: &mut TcpStream, config: &ServeConfig) -> Result<Request, ReadError> {
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let header_deadline = Instant::now() + Duration::from_millis(config.header_read_ms.max(1));
    let mut scanned = 0usize;
    let header_end = loop {
        if let Some(pos) = find_header_end_from(&buf, scanned) {
            break pos;
        }
        // Resume the next scan where a terminator could first straddle
        // the old/new boundary — three bytes before the current end —
        // instead of rescanning the whole buffer per read.
        scanned = buf.len().saturating_sub(3);
        if buf.len() > MAX_HEADER_BYTES {
            return Err(ReadError::HeaderTooLarge);
        }
        let n = read_within(stream, &mut chunk, header_deadline, "header")?;
        if n == 0 {
            return Err(ReadError::Disconnected);
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..header_end])
        .map_err(|_| ReadError::Malformed("header section is not UTF-8".to_string()))?;
    let mut lines = head.split("\r\n");
    let request_line = lines
        .next()
        .ok_or_else(|| ReadError::Malformed("empty request".to_string()))?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| ReadError::Malformed("missing method".to_string()))?
        .to_string();
    let path = parts
        .next()
        .ok_or_else(|| ReadError::Malformed("missing path".to_string()))?
        .to_string();
    let headers: Vec<(String, String)> = lines
        .filter(|line| !line.is_empty())
        .filter_map(|line| {
            let (key, value) = line.split_once(':')?;
            Some((key.trim().to_string(), value.trim().to_string()))
        })
        .collect();
    let content_length = content_length(&headers)?;
    if content_length > config.max_body_bytes {
        return Err(ReadError::BodyTooLarge {
            declared: content_length,
            max: config.max_body_bytes,
        });
    }
    let body_deadline = Instant::now() + Duration::from_millis(config.body_read_ms.max(1));
    let mut body = buf[header_end + 4..].to_vec();
    while body.len() < content_length {
        let n = read_within(stream, &mut chunk, body_deadline, "body")?;
        if n == 0 {
            return Err(ReadError::Disconnected);
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    let body = String::from_utf8(body)
        .map_err(|_| ReadError::Malformed("request body is not UTF-8".to_string()))?;
    Ok(Request {
        method,
        path,
        headers,
        body,
    })
}

/// Finds `\r\n\r\n`, scanning only from `from` — the caller advances
/// `from` as the buffer grows, so repeated reads cost O(new bytes), not
/// O(buffer) each.
fn find_header_end_from(buf: &[u8], from: usize) -> Option<usize> {
    let from = from.min(buf.len());
    buf[from..]
        .windows(4)
        .position(|window| window == b"\r\n\r\n")
        .map(|pos| from + pos)
}

/// The request's declared body length. Exactly one `Content-Length`
/// header is accepted: duplicates — even agreeing ones — are
/// request-smuggling territory and rejected outright.
fn content_length(headers: &[(String, String)]) -> Result<usize, ReadError> {
    let mut values = headers
        .iter()
        .filter(|(key, _)| key.eq_ignore_ascii_case("content-length"))
        .map(|(_, value)| value.as_str());
    let Some(first) = values.next() else {
        return Ok(0);
    };
    if let Some(second) = values.next() {
        return Err(ReadError::Malformed(format!(
            "duplicate Content-Length headers ({first:?}, then {second:?})"
        )));
    }
    first
        .parse::<usize>()
        .map_err(|_| ReadError::Malformed(format!("invalid Content-Length {first:?}")))
}

fn dispatch(shared: &Shared, request: &Request) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        // Test-only trigger for the connection panic-isolation test;
        // release builds have no such route.
        #[cfg(test)]
        ("POST", "/panic-for-tests") => panic!("test-injected connection panic"),
        ("POST", "/sweep") => admit_sweep(shared, request),
        ("GET", "/stats") => Response::json(200, stats_body(shared)),
        ("GET", "/healthz") => Response::json(200, "{\"status\":\"ok\"}\n".to_string()),
        ("POST", "/shutdown") => {
            shared.shutdown.store(true, Ordering::Relaxed);
            Response::json(200, "{\"status\":\"draining\"}\n".to_string())
        }
        // Known paths answer a wrong method with 405 + Allow, not 404.
        (_, "/sweep" | "/shutdown") => method_not_allowed(request, "POST"),
        (_, "/stats" | "/healthz") => method_not_allowed(request, "GET"),
        _ => Response::json(
            404,
            error_body(&format!("no route for {} {}", request.method, request.path)),
        ),
    }
}

fn method_not_allowed(request: &Request, allow: &'static str) -> Response {
    Response {
        status: 405,
        body: error_body(&format!(
            "{} not allowed for {}; use {allow}",
            request.method, request.path
        )),
        retry_after_s: None,
        allow: Some(allow),
    }
}

/// Admission: counts the request, applies backpressure, enqueues, and
/// blocks this connection thread until a request worker replies.
fn admit_sweep(shared: &Shared, request: &Request) -> Response {
    shared.stats.requests.fetch_add(1, Ordering::Relaxed);
    techlib::obs::add(techlib::obs::SERVE_REQUESTS, 1);
    let deadline_ms = match header_ms(request, DEADLINE_HEADER) {
        Ok(ms) => ms.or(shared.config.default_deadline_ms),
        Err(e) => return Response::json(400, error_body(&e)),
    };
    let hold_ms = match header_ms(request, HOLD_HEADER) {
        Ok(ms) => ms,
        Err(e) => return Response::json(400, error_body(&e)),
    };
    let (reply, receiver) = mpsc::channel();
    // The deadline clock starts at admission: time spent waiting in the
    // queue counts against the request, which is what lets an
    // overloaded server shed expired work instead of executing it.
    let job = Job {
        body: request.body.clone(),
        deadline: deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms)),
        hold: hold_ms.map(Duration::from_millis),
        reply,
    };
    {
        let mut queue = shared.lock_queue();
        if queue.closed || shared.shutdown.load(Ordering::Relaxed) {
            return Response::json(503, error_body("server is draining"));
        }
        // Saturating: `--queue-depth` is user input and may be huge.
        let capacity = shared
            .config
            .workers
            .max(1)
            .saturating_add(shared.config.queue_depth);
        if queue.running + queue.jobs.len() >= capacity {
            shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
            techlib::obs::add(techlib::obs::SERVE_ADMISSION_REJECTS, 1);
            return Response {
                status: 429,
                body: error_body("queue full"),
                retry_after_s: Some(1),
                allow: None,
            };
        }
        queue.jobs.push_back(job);
    }
    shared.ready.notify_one();
    match receiver.recv() {
        Ok(response) => response,
        Err(_) => Response::json(500, error_body("request worker dropped the job")),
    }
}

fn stats_body(shared: &Shared) -> String {
    let (queue_depth, in_flight) = {
        let queue = shared.lock_queue();
        (queue.jobs.len(), queue.running)
    };
    let stats = &shared.stats;
    let hits = stats.context_hits.load(Ordering::Relaxed);
    let misses = stats.context_misses.load(Ordering::Relaxed);
    let hit_ratio = if hits + misses > 0 {
        hits as f64 / (hits + misses) as f64
    } else {
        0.0
    };
    let store = shared.pool.store().stats();
    format!(
        concat!(
            "{{\"queue_depth\":{},\"in_flight\":{},\"workers\":{},",
            "\"open_connections\":{},\"max_connections\":{},",
            "\"lease_total\":{},\"requests\":{},\"rejected\":{},",
            "\"conn_rejected\":{},\"slow_client_aborts\":{},",
            "\"write_timeouts\":{},",
            "\"deadline_hits\":{},\"completed\":{},\"context_hits\":{},",
            "\"context_misses\":{},\"context_hit_ratio\":{:.4},",
            "\"contexts_pooled\":{},\"store_mem_hits\":{},",
            "\"store_disk_hits\":{},\"store_misses\":{},",
            "\"store_writes\":{},\"store_invalid\":{},",
            "\"latency_p50_us\":{},",
            "\"latency_p99_us\":{},\"uptime_us\":{}}}\n"
        ),
        queue_depth,
        in_flight,
        shared.config.workers.max(1),
        shared.open_conns.load(Ordering::Relaxed),
        shared.config.max_connections.max(1),
        techlib::par::thread_count(),
        stats.requests.load(Ordering::Relaxed),
        stats.rejected.load(Ordering::Relaxed),
        stats.conn_rejected.load(Ordering::Relaxed),
        stats.slow_client_aborts.load(Ordering::Relaxed),
        stats.write_timeouts.load(Ordering::Relaxed),
        stats.deadline_hits.load(Ordering::Relaxed),
        stats.completed.load(Ordering::Relaxed),
        hits,
        misses,
        hit_ratio,
        shared.pool.len(),
        store.mem_hits,
        store.disk_hits,
        store.misses,
        store.writes,
        store.invalid,
        stats.latencies_us.percentile_us(50.0),
        stats.latencies_us.percentile_us(99.0),
        u64::try_from(shared.started.elapsed().as_micros()).unwrap_or(u64::MAX),
    )
}

fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// How a bounded response write ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WriteOutcome {
    /// The whole response reached the peer's socket.
    Sent,
    /// The peer stopped draining its side and the whole-response
    /// budget ran out; the socket was shut down mid-response.
    TimedOut,
    /// The peer vanished mid-response; nothing left to bound.
    Disconnected,
}

/// Writes `response` with a whole-response budget. The deadline is
/// fixed up front: a reader that accepts a trickle of bytes per
/// timeout cannot stretch the send, and a reader that never reads is
/// abandoned when the budget expires — which is what keeps graceful
/// drain time-bounded.
fn write_response_within(
    stream: &mut TcpStream,
    response: &Response,
    budget: Duration,
) -> WriteOutcome {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n",
        response.status,
        status_reason(response.status),
        response.body.len()
    );
    {
        use std::fmt::Write as _;
        if let Some(seconds) = response.retry_after_s {
            let _ = write!(head, "Retry-After: {seconds}\r\n");
        }
        if let Some(methods) = response.allow {
            let _ = write!(head, "Allow: {methods}\r\n");
        }
    }
    head.push_str("\r\n");
    let deadline = Instant::now() + budget;
    match write_all_within(stream, head.as_bytes(), deadline) {
        WriteOutcome::Sent => {}
        other => return other,
    }
    match write_all_within(stream, response.body.as_bytes(), deadline) {
        WriteOutcome::Sent => {}
        other => return other,
    }
    let _ = stream.flush();
    WriteOutcome::Sent
}

fn write_all_within(stream: &mut TcpStream, mut bytes: &[u8], deadline: Instant) -> WriteOutcome {
    while !bytes.is_empty() {
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            // Abort-on-stall: drop the socket rather than wait out a
            // reader that never drains its side.
            let _ = stream.shutdown(std::net::Shutdown::Both);
            return WriteOutcome::TimedOut;
        }
        let _ = stream.set_write_timeout(Some(remaining.max(Duration::from_millis(1))));
        match stream.write(bytes) {
            Ok(0) => return WriteOutcome::Disconnected,
            Ok(n) => bytes = &bytes[n..],
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) => {}
            Err(_) => return WriteOutcome::Disconnected,
        }
    }
    WriteOutcome::Sent
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioOverrides;
    use crate::table5::MonitorLengths;

    #[test]
    fn context_pool_reuses_clean_specs_and_isolates_faulty_ones() {
        let pool = ContextPool::new();
        assert!(pool.is_empty());
        let a = Scenario::paper(InterposerKind::Glass3D);
        let (ctx1, hit1) = pool.checkout(&a).unwrap();
        let (ctx2, hit2) = pool.checkout(&a).unwrap();
        assert!(!hit1 && hit2, "second checkout is a pool hit");
        assert!(Arc::ptr_eq(&ctx1, &ctx2));
        assert_eq!(pool.len(), 1);

        // A different resolved spec pools separately…
        let wide = Scenario::new(
            "wide",
            InterposerKind::Glass3D,
            MonitorLengths::Routed,
            ScenarioOverrides {
                microbump_pitch_um: Some(70.0),
                ..Default::default()
            },
            Vec::new(),
        )
        .unwrap();
        let (ctx3, hit3) = pool.checkout(&wide).unwrap();
        assert!(!hit3);
        assert!(!Arc::ptr_eq(&ctx1, &ctx3));
        assert_eq!(pool.len(), 2);

        // …and a faulty scenario is never pooled.
        let faulty = Scenario::new(
            "faulty",
            InterposerKind::Glass3D,
            MonitorLengths::Routed,
            ScenarioOverrides::default(),
            vec!["thermal.solve".to_string()],
        )
        .unwrap();
        let (fa, hit_a) = pool.checkout(&faulty).unwrap();
        let (fb, hit_b) = pool.checkout(&faulty).unwrap();
        assert!(!hit_a && !hit_b);
        assert!(!Arc::ptr_eq(&fa, &fb));
        assert_eq!(pool.len(), 2, "faulty contexts never enter the pool");
    }

    #[test]
    fn http_requests_parse_over_a_real_socket() {
        // Round-trip a request through a real loopback socket pair.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream
                .write_all(
                    b"POST /sweep HTTP/1.1\r\nHost: x\r\nX-Codesign-Deadline-Ms: 250\r\n\
                      Content-Length: 2\r\n\r\n[]",
                )
                .unwrap();
            stream.flush().unwrap();
            // Keep the socket open until the server side has parsed.
            std::thread::sleep(Duration::from_millis(50));
        });
        let (mut stream, _) = listener.accept().unwrap();
        let config = ServeConfig {
            max_body_bytes: 1024,
            ..ServeConfig::default()
        };
        let request = read_request(&mut stream, &config).unwrap();
        client.join().unwrap();
        assert_eq!(request.method, "POST");
        assert_eq!(request.path, "/sweep");
        assert_eq!(request.body, "[]");
        assert_eq!(header(&request, "x-codesign-deadline-ms"), Some("250"));
        assert_eq!(header_ms(&request, DEADLINE_HEADER), Ok(Some(250)));
        assert_eq!(header_ms(&request, HOLD_HEADER), Ok(None));
    }

    fn histogram_of(latencies: &[u64]) -> LatencyHistogram {
        let h = LatencyHistogram::default();
        for &us in latencies {
            h.record(us);
        }
        h
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        assert_eq!(histogram_of(&[]).percentile_us(50.0), 0);
        let h = histogram_of(&(1..=100).collect::<Vec<u64>>());
        assert_eq!(h.percentile_us(50.0), 50);
        assert_eq!(h.percentile_us(99.0), 99);
        assert_eq!(h.percentile_us(100.0), 100);
        assert_eq!(histogram_of(&[7]).percentile_us(99.0), 7);
    }

    #[test]
    fn histogram_percentiles_stay_within_one_bucket_of_nearest_rank() {
        // Log-uniform latencies from 1 µs to 10 s, from a fixed LCG.
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let latencies: Vec<u64> = (0..10_000)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let unit = (state >> 11) as f64 / (1u64 << 53) as f64;
                (1e7f64.powf(unit).round() as u64).max(1)
            })
            .collect();
        let fresh = std::mem::size_of_val(&*LatencyHistogram::default().buckets);
        let h = histogram_of(&latencies);
        assert_eq!(std::mem::size_of_val(&*h.buckets), fresh);
        assert!(fresh <= 32 * 1024, "{fresh} bytes");
        assert_eq!(h.count(), 10_000);
        let mut sorted = latencies;
        sorted.sort_unstable();
        for percent in [50.0, 99.0] {
            let rank = ((percent / 100.0) * sorted.len() as f64).ceil() as usize;
            let exact = sorted[rank - 1];
            let got = h.percentile_us(percent);
            assert!(
                got <= exact && exact - got <= exact / 128,
                "p{percent}: histogram {got} vs nearest rank {exact}"
            );
        }
        // Beyond the top bucket a latency clamps instead of overflowing.
        let top = histogram_of(&[u64::MAX]);
        assert_eq!(
            top.percentile_us(50.0),
            LatencyHistogram::lower_bound(top.buckets.len() - 1)
        );
    }

    #[test]
    fn error_bodies_escape_json() {
        assert_eq!(
            error_body("bad \"x\"\n"),
            "{\"error\":\"bad \\\"x\\\"\\n\"}\n"
        );
    }

    #[test]
    fn header_scan_resumes_across_any_chunk_boundary() {
        let full = b"POST /sweep HTTP/1.1\r\nHost: x\r\n\r\ntrailing body";
        let end = find_header_end_from(full, 0).expect("terminator present");
        assert_eq!(&full[end..end + 4], b"\r\n\r\n");
        // Replay read_request's incremental protocol for every split
        // point: scan the first chunk from 0, then resume three bytes
        // before its end once the rest arrives. The resumed scan must
        // find the terminator wherever the split lands — including
        // splits inside the \r\n\r\n itself.
        for split in 0..=full.len() {
            let found = match find_header_end_from(&full[..split], 0) {
                Some(pos) => Some(pos),
                None => find_header_end_from(full, split.saturating_sub(3)),
            };
            assert_eq!(found, Some(end), "split at {split}");
        }
        // A cursor past the data is clamped, not a panic.
        assert_eq!(find_header_end_from(b"\r\n", 17), None);
        // Resuming past the terminator no longer sees it (that is what
        // makes the scan O(new bytes)).
        assert_eq!(find_header_end_from(full, end + 1), None);
    }

    #[test]
    fn content_length_accepts_exactly_one_header() {
        let headers = |pairs: &[(&str, &str)]| -> Vec<(String, String)> {
            pairs
                .iter()
                .map(|&(k, v)| (k.to_string(), v.to_string()))
                .collect()
        };
        assert_eq!(content_length(&headers(&[])).unwrap(), 0);
        assert_eq!(
            content_length(&headers(&[("Content-Length", "12"), ("Host", "x")])).unwrap(),
            12
        );
        assert_eq!(
            content_length(&headers(&[("content-LENGTH", "3")])).unwrap(),
            3
        );
        // Duplicates are rejected even when they agree…
        let dup = content_length(&headers(&[
            ("Content-Length", "2"),
            ("Content-Length", "2"),
        ]));
        assert!(
            matches!(&dup, Err(ReadError::Malformed(m)) if m.contains("Content-Length")),
            "{dup:?}"
        );
        // …as are conflicting values and garbage.
        assert!(matches!(
            content_length(&headers(&[
                ("Content-Length", "2"),
                ("content-length", "3"),
            ])),
            Err(ReadError::Malformed(_))
        ));
        assert!(matches!(
            content_length(&headers(&[("Content-Length", "two")])),
            Err(ReadError::Malformed(_))
        ));
        assert!(matches!(
            content_length(&headers(&[("Content-Length", "-1")])),
            Err(ReadError::Malformed(_))
        ));
    }

    /// Sends `payload` verbatim and reads whatever comes back. Read
    /// errors and empty reads are legitimate outcomes here (the panic
    /// tests drop the socket mid-connection), so they map to whatever
    /// bytes arrived rather than a test failure.
    fn raw_roundtrip(addr: SocketAddr, payload: &[u8]) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        stream.write_all(payload).expect("send request");
        let mut raw = Vec::new();
        let _ = stream.read_to_end(&mut raw);
        String::from_utf8_lossy(&raw).into_owned()
    }

    #[test]
    fn rejected_socket_drain_ends_at_its_deadline_despite_dripping() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // Drip a byte every couple of ms: every server-side read
        // succeeds, so only the whole-drain deadline can end the loop.
        let dripper = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            for _ in 0..2_000 {
                if stream.write_all(b"a").is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        });
        let (mut stream, _) = listener.accept().unwrap();
        let started = Instant::now();
        reject_connection(&mut stream);
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "the drain must end at its deadline even when every read succeeds, took {:?}",
            started.elapsed()
        );
        drop(stream);
        dripper.join().unwrap();
    }

    #[test]
    fn rejected_socket_drain_is_byte_capped_against_blasting_clients() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let blaster = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            let chunk = vec![0u8; 1 << 20];
            for _ in 0..64 {
                if stream.write_all(&chunk).is_err() {
                    break;
                }
            }
        });
        let (mut stream, _) = listener.accept().unwrap();
        let started = Instant::now();
        reject_connection(&mut stream);
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "the drain must stop at its byte cap, took {:?}",
            started.elapsed()
        );
        drop(stream);
        blaster.join().unwrap();
    }

    #[test]
    fn panicking_connection_handlers_do_not_shrink_the_pool() {
        let server = Server::bind(
            "127.0.0.1:0",
            ServeConfig {
                max_connections: 1,
                workers: 1,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.run());
        // Each of these panics inside dispatch, on the single pool
        // thread. Without catch_unwind one panic would kill the whole
        // pool; without the post-panic decrement it would leak the
        // open_conns slot — either way the recovery below would fail.
        for _ in 0..3 {
            let _ = raw_roundtrip(
                addr,
                b"POST /panic-for-tests HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n",
            );
        }
        // The decrement races the next connect, so poll: with a pool
        // of one, healthz only ever answers again if the thread
        // survived and the slot came back.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let raw = raw_roundtrip(addr, b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
            if raw.starts_with("HTTP/1.1 200") {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "pool never recovered after handler panics: {raw:?}"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        let raw = raw_roundtrip(
            addr,
            b"POST /shutdown HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n",
        );
        assert!(raw.starts_with("HTTP/1.1 200"), "{raw}");
        handle.join().expect("server thread").expect("clean exit");
    }

    #[test]
    fn panicking_jobs_answer_500_and_the_worker_survives() {
        let server = Server::bind(
            "127.0.0.1:0",
            ServeConfig {
                workers: 1,
                ..ServeConfig::default()
            },
        )
        .unwrap();
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.run());
        let body = "panic-for-tests";
        let raw = raw_roundtrip(
            addr,
            format!(
                "POST /sweep HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        );
        assert!(raw.starts_with("HTTP/1.1 500"), "{raw}");
        assert!(raw.contains("request worker panicked"), "{raw}");
        // The single worker must still be alive to run a real job.
        let raw = raw_roundtrip(
            addr,
            b"POST /sweep HTTP/1.1\r\nHost: x\r\nContent-Length: 2\r\n\r\n[]",
        );
        assert!(raw.starts_with("HTTP/1.1 200"), "{raw}");
        let raw = raw_roundtrip(
            addr,
            b"POST /shutdown HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n",
        );
        assert!(raw.starts_with("HTTP/1.1 200"), "{raw}");
        handle.join().expect("server thread").expect("clean exit");
    }

    #[test]
    fn stalled_readers_abort_within_the_write_budget() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // The client connects and never reads: once the kernel buffers
        // fill, the server's writes stall. 32 MiB comfortably exceeds
        // any default loopback send+receive buffering.
        let client = TcpStream::connect(addr).unwrap();
        let (mut stream, _) = listener.accept().unwrap();
        let response = Response::json(200, "x".repeat(32 << 20));
        let started = Instant::now();
        let outcome = write_response_within(&mut stream, &response, Duration::from_millis(250));
        assert_eq!(outcome, WriteOutcome::TimedOut);
        assert!(
            started.elapsed() < Duration::from_secs(30),
            "abort-on-stall must not wait for the reader"
        );
        assert!(
            started.elapsed() >= Duration::from_millis(250),
            "the whole budget is available before aborting"
        );
        drop(client);
    }

    #[test]
    fn responses_carry_allow_and_retry_after_headers() {
        // Round-trip a 405 through a socket pair and check the header
        // block the client sees.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let reader = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            let mut raw = Vec::new();
            stream.read_to_end(&mut raw).unwrap();
            String::from_utf8(raw).unwrap()
        });
        let (mut stream, _) = listener.accept().unwrap();
        let request = Request {
            method: "GET".to_string(),
            path: "/sweep".to_string(),
            headers: Vec::new(),
            body: String::new(),
        };
        let response = method_not_allowed(&request, "POST");
        assert_eq!(response.status, 405);
        let outcome = write_response_within(&mut stream, &response, Duration::from_secs(5));
        assert_eq!(outcome, WriteOutcome::Sent);
        drop(stream);
        let raw = reader.join().unwrap();
        assert!(
            raw.starts_with("HTTP/1.1 405 Method Not Allowed\r\n"),
            "{raw}"
        );
        assert!(raw.contains("\r\nAllow: POST\r\n"), "{raw}");
        assert!(raw.contains("use POST"), "{raw}");
    }
}
