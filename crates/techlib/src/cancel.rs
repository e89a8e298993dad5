//! Cooperative deadline cancellation for long-running flows.
//!
//! A daemon serving sweep requests needs a way to abandon a request
//! whose caller has given up, without poisoning shared caches or
//! leaving worker threads wedged mid-stage. This module provides
//! **deadline scopes**: a thread (and every worker [`crate::par`]
//! spawns on its behalf) can be placed under a wall-clock deadline, and
//! flow stages poll [`check`] at their boundaries:
//!
//! ```ignore
//! techlib::cancel::check("stage.route")?; // Err(DeadlineExceeded) when late
//! ```
//!
//! The mechanism mirrors [`crate::faults`] scoped arming exactly: a
//! registered scope (here mapping to an [`Instant`] deadline instead of
//! a fault-site set), a thread-local current-scope cell, and
//! [`current_scope`] / [`enter_scope`] hooks that the fork/join helpers
//! use to carry the caller's deadline into nested parallelism. A thread
//! outside any scope pays one thread-local read per [`check`] and can
//! never be cancelled — one-shot CLI flows are unaffected.
//!
//! Cancellation is **cooperative and stage-granular**: an expired
//! deadline is only observed at the next `check`, so a stage that has
//! already started runs to completion. That is deliberate — stages
//! share one artifact store ([`crate::store::ArtifactStore`]), and
//! tearing a computation down halfway could leave a sibling request
//! waiting on an artifact that never arrives. Abandoning only at
//! boundaries keeps every store entry either absent or complete.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// A deadline expired: the flow should abandon the current request at
/// the named stage boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeadlineExceeded {
    /// The stage boundary where the expiry was observed.
    pub stage: &'static str,
}

impl std::fmt::Display for DeadlineExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "deadline exceeded at {}", self.stage)
    }
}

impl std::error::Error for DeadlineExceeded {}

/// Identifier of a registered deadline scope. `Copy` so it can be
/// captured into worker closures; resolving a released scope simply
/// finds no deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScopeId(u64);

static NEXT_SCOPE: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// The deadline scope the current thread is inside (0 = none).
    static CURRENT_SCOPE: Cell<u64> = const { Cell::new(0) };
}

fn scope_registry() -> &'static Mutex<BTreeMap<u64, Instant>> {
    static SCOPES: OnceLock<Mutex<BTreeMap<u64, Instant>>> = OnceLock::new();
    SCOPES.get_or_init(|| Mutex::new(BTreeMap::new()))
}

fn scopes_lock() -> MutexGuard<'static, BTreeMap<u64, Instant>> {
    // A poisoned lock only means another thread panicked while holding
    // it; the map itself is always in a consistent state.
    scope_registry()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// The deadline scope the calling thread is currently inside, if any.
/// Fork/join helpers capture this in the parent and [`enter_scope`] it
/// in each worker so a request's deadline survives nested parallelism.
pub fn current_scope() -> Option<ScopeId> {
    let id = CURRENT_SCOPE.with(Cell::get);
    (id != 0).then_some(ScopeId(id))
}

/// Makes the calling thread a member of `scope` (or of no scope for
/// `None`) until the returned guard drops, restoring the previous
/// membership. Used by [`crate::par`] to hand a parent's deadline to
/// its workers; request code should prefer [`deadline_at`].
pub fn enter_scope(scope: Option<ScopeId>) -> ScopeGuard {
    let new = scope.map_or(0, |s| s.0);
    let previous = CURRENT_SCOPE.with(|c| c.replace(new));
    ScopeGuard { previous }
}

/// RAII guard from [`enter_scope`]; restores the thread's previous
/// scope membership when dropped. Deliberately `!Send` (thread-local
/// state).
#[derive(Debug)]
pub struct ScopeGuard {
    previous: u64,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        CURRENT_SCOPE.with(|c| c.set(self.previous));
    }
}

/// Registers a deadline scope expiring at `at` and enters it on the
/// calling thread. [`check`] fails on member threads once `at` has
/// passed; dropping the returned handle leaves the scope and
/// unregisters it, so a finished (or abandoned) request can never
/// cancel a later one that happens to reuse its worker thread.
pub fn deadline_at(at: Instant) -> DeadlineScope {
    let id = NEXT_SCOPE.fetch_add(1, Ordering::Relaxed);
    scopes_lock().insert(id, at);
    DeadlineScope {
        id: ScopeId(id),
        _guard: enter_scope(Some(ScopeId(id))),
    }
}

/// [`deadline_at`] with a relative timeout from now.
pub fn deadline_in(timeout: Duration) -> DeadlineScope {
    deadline_at(Instant::now() + timeout)
}

/// A live deadline scope from [`deadline_at`]: the calling thread is a
/// member until this drops, which also unregisters the deadline.
#[derive(Debug)]
pub struct DeadlineScope {
    id: ScopeId,
    _guard: ScopeGuard,
}

impl DeadlineScope {
    /// The scope's identifier (for explicit [`enter_scope`] calls).
    pub fn id(&self) -> ScopeId {
        self.id
    }
}

impl Drop for DeadlineScope {
    fn drop(&mut self) {
        scopes_lock().remove(&self.id.0);
        // self._guard drops next, restoring the thread's previous scope.
    }
}

fn scope_deadline() -> Option<Instant> {
    let id = CURRENT_SCOPE.with(Cell::get);
    if id == 0 {
        return None;
    }
    scopes_lock().get(&id).copied()
}

/// True when the calling thread is inside a deadline scope whose
/// deadline has passed. Outside any scope this is one thread-local read
/// and always `false`.
pub fn expired() -> bool {
    scope_deadline().is_some_and(|at| Instant::now() >= at)
}

/// Stage-boundary cancellation poll: fails with [`DeadlineExceeded`]
/// naming `stage` when the calling thread's deadline has passed,
/// otherwise a no-op.
///
/// # Errors
///
/// [`DeadlineExceeded`] when the current scope's deadline has passed.
pub fn check(stage: &'static str) -> Result<(), DeadlineExceeded> {
    if expired() {
        Err(DeadlineExceeded { stage })
    } else {
        Ok(())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    #[test]
    fn no_scope_never_expires() {
        assert_eq!(current_scope(), None);
        assert!(!expired());
        assert_eq!(check("stage.any"), Ok(()));
    }

    #[test]
    fn an_expired_deadline_fails_check_with_the_stage_name() {
        let scope = deadline_at(Instant::now() - Duration::from_millis(1));
        assert_eq!(current_scope(), Some(scope.id()));
        assert!(expired());
        let err = check("stage.route").unwrap_err();
        assert_eq!(err.stage, "stage.route");
        assert_eq!(err.to_string(), "deadline exceeded at stage.route");
        drop(scope);
        assert!(!expired(), "dropping the scope clears the deadline");
        assert_eq!(current_scope(), None);
    }

    #[test]
    fn a_future_deadline_passes_check() {
        let _scope = deadline_in(Duration::from_secs(3600));
        assert!(!expired());
        assert_eq!(check("stage.thermal"), Ok(()));
    }

    #[test]
    fn deadlines_are_thread_scoped_and_propagate_by_handoff() {
        let scope = deadline_at(Instant::now() - Duration::from_millis(1));
        // A foreign thread is unaffected…
        std::thread::scope(|s| {
            s.spawn(|| {
                assert!(!expired(), "foreign thread sees the deadline");
            });
        });
        // …while a worker that enters the scope (as par does on the
        // caller's behalf) observes the expiry.
        let id = scope.id();
        std::thread::scope(|s| {
            s.spawn(move || {
                let _g = enter_scope(Some(id));
                assert!(check("stage.split").is_err());
            });
        });
    }

    #[test]
    fn scopes_nest_and_restore() {
        let outer = deadline_at(Instant::now() - Duration::from_millis(1));
        {
            let _inner = deadline_in(Duration::from_secs(3600));
            // The innermost scope wins: a thread is in exactly one scope.
            assert!(!expired());
        }
        assert!(expired(), "inner drop restores the outer deadline");
        drop(outer);
    }

    #[test]
    fn entering_a_released_scope_expires_nothing() {
        let scope = deadline_at(Instant::now() - Duration::from_millis(1));
        let id = scope.id();
        drop(scope);
        let _g = enter_scope(Some(id));
        assert!(!expired(), "released scopes resolve to no deadline");
    }
}
