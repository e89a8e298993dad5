//! Deterministic fork/join helpers shared by the whole workspace.
//!
//! Every fan-out runs on one process-wide pool: `thread_count() − 1`
//! parked worker threads, started by the first fan-out and kept for the
//! life of the process, plus the calling thread. No thread is spawned
//! per call and no external thread pool is used. The helpers preserve
//! **input order** in the output: `ordered_map` returns `f(items[0]),
//! f(items[1]), …` regardless of which thread ran which item or how
//! long each took. Combined with the workspace's fixed-seed RNGs, this
//! is what makes the parallel flow byte-identical to the sequential
//! one: parallelism is only ever applied across units that share no
//! mutable state, and results are committed by index.
//!
//! A fan-out queues its extra tasks on the pool, runs its own share on
//! the calling thread, then takes back and runs every one of its tasks
//! that no worker has claimed yet. It blocks only on tasks another
//! thread is already running, never on queued work, so nested fan-outs
//! (a `join` inside an `ordered_map` inside a store compute) cannot
//! deadlock however busy the pool is, and every level shares the same
//! bounded set of threads.
//!
//! Every task runs in the submitting thread's request scope
//! ([`crate::scope`]): the fan-out captures that one value per task and
//! the thread that runs the task enters it for the task's duration, so
//! fault sites, a request's deadline and span labels reach nested
//! parallelism. A worker's own scope is empty between tasks.
//!
//! Thread count comes from the `CODESIGN_THREADS` environment variable
//! (default: available parallelism), read once per process. Setting
//! `CODESIGN_THREADS=1` starts no worker and runs every helper in this
//! module on the caller's thread, which is also the path for
//! single-item inputs — so the sequential path is not a separate code
//! path that could drift, it *is* the parallel path at width 1.

use std::any::Any;
use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// Environment variable controlling worker-thread count.
pub const THREADS_ENV: &str = "CODESIGN_THREADS";

/// An invalid `CODESIGN_THREADS` value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ThreadsConfigError {
    /// The raw value that was rejected.
    pub value: String,
    /// Why it was rejected.
    pub reason: &'static str,
}

impl std::fmt::Display for ThreadsConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid {THREADS_ENV}={:?}: {} (expected a positive integer)",
            self.value, self.reason
        )
    }
}

impl std::error::Error for ThreadsConfigError {}

/// Parses a raw `CODESIGN_THREADS` value. `None` (variable unset) is
/// valid and means "use the platform default".
fn parse_threads(raw: Option<&str>) -> Result<Option<usize>, ThreadsConfigError> {
    let Some(raw) = raw else { return Ok(None) };
    let trimmed = raw.trim();
    let reject = |reason| {
        Err(ThreadsConfigError {
            value: raw.to_string(),
            reason,
        })
    };
    if trimmed.is_empty() {
        return reject("empty value");
    }
    match trimmed.parse::<usize>() {
        Ok(0) => reject("zero workers cannot make progress"),
        Ok(n) => Ok(Some(n)),
        Err(_) => reject("not a number"),
    }
}

fn default_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

fn threads_config() -> &'static Result<usize, ThreadsConfigError> {
    // Read and validate the variable exactly once per process, so the
    // pool width cannot change between flow stages.
    static THREADS: OnceLock<Result<usize, ThreadsConfigError>> = OnceLock::new();
    THREADS.get_or_init(
        || match parse_threads(std::env::var(THREADS_ENV).ok().as_deref()) {
            Ok(Some(n)) => Ok(n),
            Ok(None) => Ok(default_parallelism()),
            Err(e) => Err(e),
        },
    )
}

/// The worker count used by the helpers in this module, rejecting
/// malformed configuration.
///
/// The environment is read and validated on the first call and the
/// verdict is **memoised for the life of the process**: the pool is
/// started once at this width, so it cannot change between stages of a
/// run or between the requests a daemon serves. `CODESIGN_THREADS` wins
/// when set and valid; unset falls back to
/// [`std::thread::available_parallelism`] (and 1 when even that is
/// unavailable).
///
/// # Errors
///
/// Returns [`ThreadsConfigError`] when the variable is set but empty,
/// non-numeric, or zero.
pub fn try_thread_count() -> Result<usize, ThreadsConfigError> {
    threads_config().clone()
}

/// The worker count used by the helpers in this module.
///
/// Infallible form of [`try_thread_count`]: a malformed
/// `CODESIGN_THREADS` is reported **once** on stderr and the platform
/// default is used instead, so library paths that cannot surface a
/// config error still behave sensibly. Flow entry points should prefer
/// [`try_thread_count`] and turn the error into typed flow failure.
pub fn thread_count() -> usize {
    match threads_config() {
        Ok(n) => *n,
        Err(e) => {
            static WARNED: OnceLock<()> = OnceLock::new();
            WARNED.get_or_init(|| {
                eprintln!("warning: {e}; falling back to the platform default");
            });
            default_parallelism()
        }
    }
}

/// Applies `f` to every item of `items`, in parallel, returning results
/// in **input order**.
///
/// Work is distributed dynamically (an atomic cursor), so uneven task
/// durations don't serialize the pool behind the slowest prefix. With one
/// worker — or one item — this degenerates to a plain in-order loop on
/// the calling thread.
///
/// # Panics
///
/// Propagates panics from `f`, once every other item has finished.
pub fn ordered_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    ordered_map_with(thread_count(), items, f)
}

/// [`ordered_map`] with an explicit width: at most `workers` threads
/// (the caller and up to `workers − 1` pool workers) claim items. The
/// pool's own size still bounds it, so a width above
/// [`thread_count`] adds no threads.
///
/// # Panics
///
/// Propagates panics from `f`, once every other item has finished.
pub fn ordered_map_with<T, U, F>(workers: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let helpers = match workers.min(items.len()) {
        0 | 1 => 0,
        width => (width - 1).min(pool_workers()),
    };
    if helpers == 0 {
        return items.iter().map(f).collect();
    }
    struct Slots<U>(Vec<UnsafeCell<Option<U>>>);
    // SAFETY: each claim loop takes indices from the shared cursor and
    // writes only the slots it claimed, so no two threads touch one
    // slot, and `scatter` returns only after every loop has finished,
    // before the slots are read back. Values move from the writing
    // thread to the caller, hence `U: Send`.
    unsafe impl<U: Send> Sync for Slots<U> {}
    let mut slots = Slots(Vec::with_capacity(items.len()));
    slots.0.resize_with(items.len(), || UnsafeCell::new(None));
    let cursor = AtomicUsize::new(0);
    let shared = &slots;
    let claim = || loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= items.len() {
            break;
        }
        let out = f(&items[i]);
        // SAFETY: index `i` came from `fetch_add`, so exactly one claim
        // loop ever touches `slots.0[i]`.
        unsafe { *shared.0[i].get() = Some(out) };
    };
    let jobs = (0..helpers).map(|_| in_callers_scope(claim)).collect();
    scatter(jobs, claim);
    slots
        .0
        .into_iter()
        .map(|slot| match slot.into_inner() {
            Some(out) => out,
            None => unreachable!("every claim loop ran to the end of the cursor"),
        })
        .collect()
}

/// Runs two closures concurrently and returns both results as a tuple,
/// in argument order: `b` is offered to the pool and `a` runs on the
/// calling thread, which also runs `b` if no worker has taken it by
/// then.
///
/// # Panics
///
/// Propagates a panic from either closure, once both have finished.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if pool_workers() == 0 {
        return (a(), b());
    }
    let mut rb = None;
    let ra = scatter(vec![in_callers_scope(|| rb = Some(b()))], a);
    match rb {
        Some(rb) => (ra, rb),
        None => unreachable!("the second branch ran before scatter returned"),
    }
}

/// A fan-out task borrowing the caller's stack.
type Job<'a> = Box<dyn FnOnce() + Send + 'a>;

/// A panic caught on one thread, to be resumed on the submitting one.
type Panic = Box<dyn Any + Send + 'static>;

/// The process-wide fan-out pool: one FIFO of tasks that the parked
/// workers wait on.
struct Pool {
    queue: Mutex<VecDeque<Task>>,
    ready: Condvar,
}

static POOL: Pool = Pool {
    queue: Mutex::new(VecDeque::new()),
    ready: Condvar::new(),
};

/// One queued task: a job with its borrowed lifetime erased, and the
/// latch of the fan-out that submitted it.
struct Task {
    job: Job<'static>,
    latch: Arc<Latch>,
}

/// How many of one fan-out's submitted tasks are unfinished, and the
/// first panic one of them raised.
#[derive(Default)]
struct Latch {
    state: Mutex<(usize, Option<Panic>)>,
    done: Condvar,
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    // Jobs run outside every lock in this module, so a poisoned lock
    // never guards a half-updated queue or latch.
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The pool's parked workers, started by the first call: one fewer
/// than [`thread_count`], so the calling thread makes up the width.
/// Zero at width 1 (no thread is ever started) or if the platform
/// refuses to start threads, in which case every helper runs inline.
/// The workers are never joined: they park between tasks for the life
/// of the process, and a task's panic is caught and resumed on the
/// thread that submitted it, so none is hidden.
fn pool_workers() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| {
        (1..thread_count())
            .filter(|i| {
                std::thread::Builder::new()
                    .name(format!("par-{i}"))
                    .spawn(work)
                    .is_ok()
            })
            .count()
    })
}

/// A pool worker's loop: take the oldest queued task, run it, repeat.
fn work() {
    loop {
        let task = {
            let mut queue = lock(&POOL.queue);
            loop {
                match queue.pop_front() {
                    Some(task) => break task,
                    None => {
                        queue = POOL
                            .ready
                            .wait(queue)
                            .unwrap_or_else(PoisonError::into_inner)
                    }
                }
            }
        };
        crate::obs::add(crate::obs::PAR_TASKS_ON_POOL, 1);
        task.run();
    }
}

impl Task {
    /// Runs the job, catching a panic, and counts it finished. The job
    /// and everything it borrows are dropped before the latch is told.
    fn run(self) {
        let Task { job, latch } = self;
        let panic = panic::catch_unwind(AssertUnwindSafe(job)).err();
        let mut state = lock(&latch.state);
        state.0 -= 1;
        if state.1.is_none() {
            state.1 = panic;
        }
        if state.0 == 0 {
            latch.done.notify_all();
        }
    }
}

/// Wraps `job` so it runs inside the caller's request scope
/// ([`crate::scope`]) on whichever thread picks it up, so
/// scenario-scoped fault injection, a request's deadline and span
/// attribution behave identically at any width.
fn in_callers_scope<'a>(job: impl FnOnce() + Send + 'a) -> Job<'a> {
    let scope = crate::scope::current();
    Box::new(move || {
        let _scope = crate::scope::enter(scope);
        job();
    })
}

/// Queues `jobs` on the pool, runs `own` on the calling thread, then
/// takes back and runs every job no worker has claimed, and returns
/// once all of them have finished. It waits only on jobs that another
/// thread is already running.
///
/// # Panics
///
/// After every job has finished, resumes the panic of `own` if it
/// panicked, else the first panic a job raised.
fn scatter<'a, R>(jobs: Vec<Job<'a>>, own: impl FnOnce() -> R) -> R {
    let submitted = jobs.len();
    let latch = Arc::new(Latch::default());
    lock(&latch.state).0 = submitted;
    crate::obs::add(crate::obs::PAR_TASKS, submitted as u64);
    {
        let mut queue = lock(&POOL.queue);
        for job in jobs {
            // SAFETY: the job borrows data that outlives this call, and
            // this call cannot return or unwind before the latch counts
            // the job finished: a worker drops the job before telling
            // the latch, and a job no worker claimed is taken back out
            // of the queue and run below. `own` runs under
            // `catch_unwind`, and nothing else between here and the
            // latch wait panics, so no borrow outlives its data.
            let job = unsafe { std::mem::transmute::<Job<'a>, Job<'static>>(job) };
            queue.push_back(Task {
                job,
                latch: Arc::clone(&latch),
            });
        }
    }
    for _ in 0..submitted {
        POOL.ready.notify_one();
    }
    let own = panic::catch_unwind(AssertUnwindSafe(own));
    let unclaimed: Vec<Task> = {
        let mut queue = lock(&POOL.queue);
        let mut mine = Vec::new();
        let mut i = 0;
        while i < queue.len() {
            if Arc::ptr_eq(&queue[i].latch, &latch) {
                mine.extend(queue.remove(i));
            } else {
                i += 1;
            }
        }
        mine
    };
    for task in unclaimed {
        task.run();
    }
    let mut state = lock(&latch.state);
    while state.0 > 0 {
        state = latch
            .done
            .wait(state)
            .unwrap_or_else(PoisonError::into_inner);
    }
    let job_panic = state.1.take();
    drop(state);
    match (own, job_panic) {
        (Err(panic), _) | (Ok(_), Some(panic)) => panic::resume_unwind(panic),
        (Ok(out), None) => out,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn ordered_map_preserves_order_under_skew() {
        // Make early items slow so later items finish first.
        let items: Vec<usize> = (0..64).collect();
        let out = ordered_map_with(8, &items, |&i| {
            if i < 8 {
                std::thread::sleep(std::time::Duration::from_millis(3));
            }
            i * 10
        });
        assert_eq!(out, (0..64).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn ordered_map_runs_every_item_exactly_once() {
        static CALLS: AtomicU32 = AtomicU32::new(0);
        let items: Vec<u32> = (0..101).collect();
        let out = ordered_map_with(4, &items, |&i| {
            CALLS.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(out.len(), 101);
        assert_eq!(CALLS.load(Ordering::Relaxed), 101);
    }

    #[test]
    fn width_one_matches_parallel() {
        let items: Vec<i64> = (0..40).collect();
        let seq = ordered_map_with(1, &items, |&i| i * i - 3);
        let par = ordered_map_with(6, &items, |&i| i * i - 3);
        assert_eq!(seq, par);
    }

    #[test]
    fn empty_and_single_inputs_work() {
        let empty: Vec<u8> = vec![];
        assert!(ordered_map_with(4, &empty, |&x| x).is_empty());
        assert_eq!(ordered_map_with(4, &[7u8], |&x| x + 1), vec![8]);
    }

    #[test]
    fn join_returns_in_argument_order() {
        let (a, b) = join(|| 1, || "two");
        assert_eq!(a, 1);
        assert_eq!(b, "two");
    }

    #[test]
    fn thread_count_is_positive() {
        assert!(thread_count() >= 1);
    }

    #[test]
    fn workers_inherit_the_callers_fault_scope() {
        let _scope = crate::faults::scoped(["partition.split"]);
        let items: Vec<u32> = (0..32).collect();
        let seen = ordered_map_with(4, &items, |_| crate::faults::armed("partition.split"));
        assert!(
            seen.iter().all(|&armed| armed),
            "every worker sees the parent scope"
        );
    }

    #[test]
    fn workers_inherit_the_callers_deadline_scope() {
        let scope = crate::cancel::deadline_at(
            std::time::Instant::now() - std::time::Duration::from_millis(1),
        );
        let items: Vec<u32> = (0..32).collect();
        let seen = ordered_map_with(4, &items, |_| crate::cancel::expired());
        assert!(
            seen.iter().all(|&expired| expired),
            "every worker sees the parent deadline"
        );
        drop(scope);
    }

    /// Runs `probe` on two threads at once, one of them a pool worker:
    /// each of two items waits at a barrier for the other, so the
    /// caller alone cannot finish them. `None` at width 1, where no
    /// worker exists.
    fn on_the_caller_and_a_worker<R: Send>(probe: impl Fn() -> R + Sync) -> Option<Vec<R>> {
        if pool_workers() == 0 {
            return None;
        }
        let both = std::sync::Barrier::new(2);
        Some(ordered_map_with(2, &[0, 1], |_| {
            both.wait();
            probe()
        }))
    }

    /// What a task sees of its scope: the thread it ran on, whether
    /// `partition.split` is armed, whether its deadline has passed, and
    /// its label.
    fn probe() -> (std::thread::ThreadId, bool, bool, Option<String>) {
        (
            std::thread::current().id(),
            crate::faults::armed("partition.split"),
            crate::cancel::expired(),
            crate::scope::read(|s| s.label.as_deref().map(str::to_string)),
        )
    }

    /// Enters a fault scope, an expired deadline and a label (set
    /// directly, as `obs::label_scope_with` does once recording is on,
    /// so recording stays off for the other tests in this binary). The
    /// guards come innermost first, so dropping the array restores the
    /// scopes in LIFO order.
    fn enter_every_field() -> [crate::scope::Guard; 3] {
        let faults = crate::faults::scoped(["partition.split"]);
        let deadline = crate::cancel::deadline_at(
            std::time::Instant::now() - std::time::Duration::from_millis(1),
        );
        let label = crate::scope::enter_with(|s| s.label = Some("scenario-p".into()));
        [label, deadline, faults]
    }

    #[test]
    fn pool_workers_run_tasks_in_the_callers_scopes() {
        let _guards = enter_every_field();
        let caller = std::thread::current().id();
        let Some(seen) = on_the_caller_and_a_worker(probe) else {
            return;
        };
        assert!(seen.iter().any(|(id, ..)| *id != caller));
        for (_, armed, expired, label) in &seen {
            assert!(*armed && *expired);
            assert_eq!(
                label.as_deref(),
                Some("scenario-p"),
                "the label reaches the pool"
            );
        }

        // `join`'s first branch waits for its second, which therefore
        // runs on a worker.
        let both = std::sync::Barrier::new(2);
        let (_, (on, armed, expired, label)) = join(
            || both.wait(),
            || {
                both.wait();
                probe()
            },
        );
        assert_ne!(on, caller);
        assert!(armed && expired, "join's second branch sees the scopes");
        assert_eq!(label.as_deref(), Some("scenario-p"));
    }

    #[test]
    fn a_finished_scope_never_reaches_a_later_task_on_a_worker() {
        let caller = std::thread::current().id();
        let guards = enter_every_field();
        let Some(inside) = on_the_caller_and_a_worker(probe) else {
            return;
        };
        assert!(inside.iter().any(|(id, ..)| *id != caller));
        assert!(inside
            .iter()
            .all(|(_, armed, expired, label)| *armed && *expired && label.is_some()));
        drop(guards);

        let after = on_the_caller_and_a_worker(probe).expect("the pool is still there");
        assert!(after.iter().any(|(id, ..)| *id != caller));
        for (_, armed, expired, label) in &after {
            assert!(!armed, "a released fault scope arms nothing");
            assert!(!expired, "a released deadline expires nothing");
            assert_eq!(*label, None, "a released label names nothing");
        }
    }

    #[test]
    fn fan_outs_reuse_a_bounded_set_of_threads() {
        let ran_on = Mutex::new(std::collections::HashSet::new());
        let record = || {
            lock(&ran_on).insert(std::thread::current().id());
        };
        let items: Vec<u32> = (0..8).collect();
        for _ in 0..200 {
            join(record, record);
            ordered_map_with(4, &items, |_| record());
        }
        let distinct = lock(&ran_on).len();
        assert!(
            distinct <= pool_workers() + 1,
            "{distinct} threads ran tasks; the pool has {} workers",
            pool_workers()
        );
    }

    #[test]
    fn a_panicking_item_propagates_after_its_siblings() {
        let finished = AtomicU32::new(0);
        let items: Vec<u32> = (0..16).collect();
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            ordered_map_with(4, &items, |&i| {
                if i == 15 {
                    panic!("the last item fails");
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
                finished.fetch_add(1, Ordering::Relaxed);
            })
        }));
        let payload = outcome.expect_err("the panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"the last item fails"));
        assert_eq!(finished.load(Ordering::Relaxed), 15, "siblings finished");

        let outcome = panic::catch_unwind(|| join(|| 1, || panic!("branch b fails")));
        assert!(
            outcome.is_err(),
            "join propagates the second branch's panic"
        );

        // The workers survived: the next fan-out still runs on the pool.
        let caller = std::thread::current().id();
        if let Some(ran_on) = on_the_caller_and_a_worker(|| std::thread::current().id()) {
            assert!(ran_on.iter().any(|&id| id != caller));
        }
    }

    #[test]
    fn nested_fan_out_inside_a_store_compute_matches_sequential() {
        fn nested(x: u64) -> u64 {
            let (left, right) = join(
                || {
                    let items: Vec<u64> = (0..24).collect();
                    ordered_map_with(8, &items, |&i| {
                        let (p, q) = join(|| i * x, || i + x);
                        p ^ q
                    })
                    .into_iter()
                    .fold(0, u64::wrapping_add)
                },
                || x * 7,
            );
            left.wrapping_mul(31).wrapping_add(right)
        }
        let sequential: Vec<u64> = (0..6)
            .map(|x| {
                let (left, right) = (
                    (0..24u64)
                        .map(|i| (i * x) ^ (i + x))
                        .fold(0, u64::wrapping_add),
                    x * 7,
                );
                left.wrapping_mul(31).wrapping_add(right)
            })
            .collect();
        let store = crate::store::ArtifactStore::in_memory();
        let key = |x: u64| {
            let mut h = crate::store::KeyHasher::new("nested", 1);
            h.field_u64("x", x);
            h.finish()
        };
        // Twelve requests over six keys: a pool worker may block on a
        // key whose holder is fanning out, which must not deadlock.
        let requests: Vec<u64> = (0..12).map(|i| i % 6).collect();
        let got = ordered_map_with(4, &requests, |&x| {
            let (v, _) = store
                .get_or_compute(key(x), || Ok::<_, ()>(nested(x)))
                .expect("compute is infallible");
            *v
        });
        let want: Vec<u64> = requests.iter().map(|&x| sequential[x as usize]).collect();
        assert_eq!(got, want);
        assert_eq!(store.stats().misses, 6, "each key computed once");
    }

    #[test]
    fn parse_threads_accepts_positive_integers() {
        assert_eq!(parse_threads(None), Ok(None));
        assert_eq!(parse_threads(Some("1")), Ok(Some(1)));
        assert_eq!(parse_threads(Some(" 12 ")), Ok(Some(12)));
    }

    #[test]
    fn parse_threads_rejects_garbage() {
        for bad in ["", "   ", "0", "four", "-2", "3.5", "1x"] {
            let err = parse_threads(Some(bad)).expect_err(bad);
            assert_eq!(err.value, bad);
            assert!(
                err.to_string().contains(THREADS_ENV),
                "error names the variable: {err}"
            );
        }
    }
}
