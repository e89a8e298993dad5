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
//! The deadline is a field of the calling thread's request scope
//! ([`crate::scope`]), which the fork/join helpers carry into nested
//! parallelism. A thread outside any scope pays one thread-local read
//! per [`check`] and can never be cancelled — one-shot CLI flows are
//! unaffected.
//!
//! Cancellation is **cooperative and stage-granular**: an expired
//! deadline is only observed at the next `check`, so a stage that has
//! already started runs to completion. That is deliberate — stages
//! share one artifact store ([`crate::store::ArtifactStore`]), and
//! tearing a computation down halfway could leave a sibling request
//! waiting on an artifact that never arrives. Abandoning only at
//! boundaries keeps every store entry either absent or complete.

use std::time::{Duration, Instant};

use crate::scope::{self, Guard};

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

/// Puts the calling thread's scope under a deadline at `at` until the
/// returned guard drops: [`check`] then fails on this thread, and in the
/// pool tasks it hands out, once `at` has passed. An enclosing deadline
/// does not apply inside it. The guard restores the previous scope, so
/// a finished (or abandoned) request can never cancel a later one that
/// happens to reuse its worker thread.
pub fn deadline_at(at: Instant) -> Guard {
    scope::enter_with(|s| s.deadline = Some(at))
}

/// [`deadline_at`] with a relative timeout from now.
pub fn deadline_in(timeout: Duration) -> Guard {
    deadline_at(Instant::now() + timeout)
}

/// True when the calling thread's scope has a deadline that has passed.
/// Outside any scope this is one thread-local read and always `false`.
pub fn expired() -> bool {
    scope::read(|s| s.deadline).is_some_and(|at| Instant::now() >= at)
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
        assert!(scope::current().is_none());
        assert!(!expired());
        assert_eq!(check("stage.any"), Ok(()));
    }

    #[test]
    fn an_expired_deadline_fails_check_with_the_stage_name() {
        let at = Instant::now() - Duration::from_millis(1);
        let guard = deadline_at(at);
        assert_eq!(scope::read(|s| s.deadline), Some(at));
        assert!(expired());
        let err = check("stage.route").unwrap_err();
        assert_eq!(err.stage, "stage.route");
        assert_eq!(err.to_string(), "deadline exceeded at stage.route");
        drop(guard);
        assert!(!expired(), "dropping the scope clears the deadline");
        assert!(scope::current().is_none());
    }

    #[test]
    fn a_future_deadline_passes_check() {
        let _guard = deadline_in(Duration::from_secs(3600));
        assert!(!expired());
        assert_eq!(check("stage.thermal"), Ok(()));
    }

    #[test]
    fn deadlines_are_thread_scoped_and_propagate_by_handoff() {
        let _guard = deadline_at(Instant::now() - Duration::from_millis(1));
        // A foreign thread is unaffected…
        std::thread::scope(|s| {
            s.spawn(|| {
                assert!(!expired(), "foreign thread sees the deadline");
            });
        });
        // …while a worker that enters the scope (as par does on the
        // caller's behalf) observes the expiry.
        let captured = scope::current();
        std::thread::scope(|s| {
            s.spawn(move || {
                let _g = scope::enter(captured);
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
}
