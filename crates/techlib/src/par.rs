//! Deterministic fork/join helpers shared by the whole workspace.
//!
//! Everything here is built on `std::thread::scope` — no external thread
//! pool — and preserves **input order** in the output: `ordered_map`
//! returns `f(items[0]), f(items[1]), …` regardless of which worker ran
//! which item or how long each took. Combined with the workspace's
//! fixed-seed RNGs, this is what makes the parallel flow byte-identical
//! to the sequential one: parallelism is only ever applied across units
//! that share no mutable state, and results are committed by index.
//!
//! Thread count comes from the `CODESIGN_THREADS` environment variable
//! (default: available parallelism). Setting `CODESIGN_THREADS=1` forces
//! every helper in this module onto the caller's thread, which is also
//! the fallback for single-item inputs — so the sequential path is not a
//! separate code path that could drift, it *is* the parallel path at
//! width 1.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

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
/// verdict is **memoised for the life of the process** — the right
/// semantics for one-shot flows, where the pool width must not change
/// between stages of a single run. `CODESIGN_THREADS` wins when set and
/// valid; unset falls back to
/// [`std::thread::available_parallelism`] (and 1 when even that is
/// unavailable). Long-running daemons that want to honour an updated
/// environment per request batch should use [`resolve_thread_count`]
/// instead.
///
/// # Errors
///
/// Returns [`ThreadsConfigError`] when the variable is set but empty,
/// non-numeric, or zero.
pub fn try_thread_count() -> Result<usize, ThreadsConfigError> {
    threads_config().clone()
}

/// Re-reads and validates `CODESIGN_THREADS` on **every** call — the
/// daemon-facing form of [`try_thread_count`].
///
/// The memoised [`try_thread_count`] is correct for one-shot flows but
/// wrong for a long-running server: a `codesign serve` process would
/// otherwise pin the width observed at its first request forever. This
/// function consults the environment afresh each time and never touches
/// (or seeds) the process-wide memo, so the two can coexist: the serve
/// loop resolves per request batch, while any one-shot flow helpers it
/// calls keep their stable memoised verdict.
///
/// # Errors
///
/// Returns [`ThreadsConfigError`] when the variable is currently set
/// but empty, non-numeric, or zero.
pub fn resolve_thread_count() -> Result<usize, ThreadsConfigError> {
    match parse_threads(std::env::var(THREADS_ENV).ok().as_deref())? {
        Some(n) => Ok(n),
        None => Ok(default_parallelism()),
    }
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
/// Propagates panics from `f` (the scope joins all workers first).
pub fn ordered_map<T, U, F>(items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    ordered_map_with(thread_count(), items, f)
}

/// [`ordered_map`] with an explicit worker count (mainly for tests and
/// benchmarks comparing widths).
///
/// # Panics
///
/// Propagates panics from `f`.
pub fn ordered_map_with<T, U, F>(workers: usize, items: &[T], f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let workers = workers.max(1).min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    // Each worker claims indices from the shared cursor and writes only
    // the slots it claimed, so the writes are disjoint; the scope joins
    // all workers before the slots are read back.
    struct Slots<U>(Vec<UnsafeCell<Option<U>>>);
    unsafe impl<U: Send> Sync for Slots<U> {}
    let mut slots = Slots(Vec::with_capacity(items.len()));
    slots.0.resize_with(items.len(), || UnsafeCell::new(None));
    let cursor = AtomicUsize::new(0);
    // Workers inherit the caller's fault scope (so scenario-scoped
    // injection behaves identically at any width), its observability
    // label (so spans recorded inside workers attribute to the caller's
    // scenario), and its deadline scope (so a cancelled request's nested
    // parallelism observes the same deadline the request thread does).
    let fault_scope = crate::faults::current_scope();
    let cancel_scope = crate::cancel::current_scope();
    let obs_label = crate::obs::current_label();
    std::thread::scope(|scope| {
        let slots = &slots;
        let f = &f;
        let cursor = &cursor;
        for _ in 0..workers {
            let obs_label = obs_label.clone();
            scope.spawn(move || {
                let _scope = crate::faults::enter_scope(fault_scope);
                let _deadline = crate::cancel::enter_scope(cancel_scope);
                let _label = crate::obs::enter_label(obs_label);
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    let out = f(&items[i]);
                    // SAFETY: index `i` came from `fetch_add`, so exactly one
                    // worker ever touches `slots.0[i]`.
                    unsafe { *slots.0[i].get() = Some(out) };
                }
            });
        }
    });
    slots
        .0
        .into_iter()
        .map(|slot| slot.into_inner().expect("every index filled"))
        .collect()
}

/// A counting lease over a fixed worker budget, for callers that run
/// **concurrent** [`ordered_map_with`] fan-outs and must not
/// oversubscribe the machine (the `codesign serve` request workers).
///
/// The pool starts with `total` slots. [`LeasePool::lease`] blocks
/// until at least one slot is free, then grants `min(want, free)` slots
/// at once; dropping the returned [`Lease`] refunds them. Because the
/// workspace's fan-outs are byte-identical at any width, a lease only
/// shapes wall-clock and CPU pressure — never results — so it is always
/// safe to run a batch at whatever width the pool happened to grant.
#[derive(Debug)]
pub struct LeasePool {
    total: usize,
    available: std::sync::Mutex<usize>,
    freed: std::sync::Condvar,
}

impl LeasePool {
    /// A pool with `total` slots (clamped to at least 1, so a lease can
    /// always eventually be granted).
    pub fn new(total: usize) -> LeasePool {
        let total = total.max(1);
        LeasePool {
            total,
            available: std::sync::Mutex::new(total),
            freed: std::sync::Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, usize> {
        // The guarded value is a plain counter; a panicking holder
        // cannot leave it inconsistent, so poison is benign.
        self.available
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The pool's total slot budget.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Slots currently free (racy snapshot, for reporting only).
    pub fn available(&self) -> usize {
        *self.lock()
    }

    /// Blocks until at least one slot is free, then takes
    /// `min(want.max(1), free)` slots. The grant is returned through
    /// [`Lease::workers`] and refunded when the lease drops.
    pub fn lease(&self, want: usize) -> Lease<'_> {
        let want = want.max(1).min(self.total);
        let mut free = self.lock();
        while *free == 0 {
            free = self
                .freed
                .wait(free)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
        let granted = want.min(*free);
        *free -= granted;
        Lease {
            pool: self,
            workers: granted,
        }
    }
}

/// A live grant from [`LeasePool::lease`]; refunds its slots on drop.
#[derive(Debug)]
pub struct Lease<'a> {
    pool: &'a LeasePool,
    workers: usize,
}

impl Lease<'_> {
    /// How many worker slots this lease holds (use as the width of an
    /// [`ordered_map_with`] call).
    pub fn workers(&self) -> usize {
        self.workers
    }
}

impl Drop for Lease<'_> {
    fn drop(&mut self) {
        *self.pool.lock() += self.workers;
        self.pool.freed.notify_all();
    }
}

/// Runs two closures concurrently and returns both results as a tuple,
/// in argument order.
pub fn join<A, B, RA, RB>(a: A, b: B) -> (RA, RB)
where
    A: FnOnce() -> RA + Send,
    B: FnOnce() -> RB + Send,
    RA: Send,
    RB: Send,
{
    if thread_count() <= 1 {
        return (a(), b());
    }
    let fault_scope = crate::faults::current_scope();
    let cancel_scope = crate::cancel::current_scope();
    let obs_label = crate::obs::current_label();
    std::thread::scope(|scope| {
        let hb = scope.spawn(move || {
            let _scope = crate::faults::enter_scope(fault_scope);
            let _deadline = crate::cancel::enter_scope(cancel_scope);
            let _label = crate::obs::enter_label(obs_label);
            b()
        });
        let ra = a();
        (ra, hb.join().expect("join: second branch panicked"))
    })
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

    #[test]
    fn lease_pool_grants_and_refunds() {
        let pool = LeasePool::new(4);
        assert_eq!(pool.total(), 4);
        assert_eq!(pool.available(), 4);
        let a = pool.lease(3);
        assert_eq!(a.workers(), 3);
        assert_eq!(pool.available(), 1);
        // A second lease wanting more than remains gets what's free.
        let b = pool.lease(8);
        assert_eq!(b.workers(), 1);
        assert_eq!(pool.available(), 0);
        drop(a);
        assert_eq!(pool.available(), 3);
        drop(b);
        assert_eq!(pool.available(), 4);
    }

    #[test]
    fn lease_pool_blocks_until_a_slot_frees() {
        let pool = LeasePool::new(1);
        let first = pool.lease(1);
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| pool.lease(1).workers());
            std::thread::sleep(std::time::Duration::from_millis(20));
            drop(first);
            assert_eq!(waiter.join().expect("waiter finishes"), 1);
        });
        assert_eq!(pool.available(), 1);
    }

    #[test]
    fn lease_pool_never_grants_zero() {
        let pool = LeasePool::new(0);
        assert_eq!(pool.total(), 1, "budget clamps to at least one slot");
        assert_eq!(pool.lease(0).workers(), 1);
    }

    #[test]
    fn resolve_thread_count_is_positive_and_uncached() {
        // The test environment leaves CODESIGN_THREADS either unset or
        // valid, so resolution succeeds; the point here is that calling
        // it repeatedly re-reads the environment without panicking or
        // seeding the memoised path with a different verdict.
        let a = resolve_thread_count().expect("valid environment");
        let b = resolve_thread_count().expect("valid environment");
        assert!(a >= 1);
        assert_eq!(a, b);
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
