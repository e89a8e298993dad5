//! The calling thread's request scope: armed fault sites, deadline and
//! trace label, carried as one value.
//!
//! Each thread holds at most one current scope. The three entry
//! points that set a field — [`crate::faults::scoped`],
//! [`crate::cancel::deadline_at`] and [`crate::obs::label_scope_with`] —
//! copy the current scope, replace their one field, and enter the copy
//! until the returned [`Guard`] drops, which restores the previous
//! scope. So the innermost scope wins field by field, and guards nest
//! LIFO. [`crate::par`] captures the caller's scope once per pool task
//! and enters it on whichever thread runs the task, so a scenario's
//! faults, a request's deadline and span attribution reach nested
//! parallelism at any width.
//!
//! Reads touch only the thread-local cell: no lock, and outside any
//! scope no allocation. A scope is immutable once entered; a pool task
//! holds its captured copy only while it runs, and the worker's guard
//! restores the worker's own (empty) scope afterwards, so a finished
//! request never reaches a later one on the same thread.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

/// What a thread's current request scope holds.
#[derive(Debug, Clone, Default)]
pub(crate) struct Scope {
    /// Fault sites armed for this scope ([`crate::faults::armed`]).
    pub(crate) faults: BTreeSet<String>,
    /// When [`crate::cancel::check`] starts failing.
    pub(crate) deadline: Option<Instant>,
    /// The label spans recorded in this scope carry ([`crate::obs`]).
    pub(crate) label: Option<Arc<str>>,
}

thread_local! {
    static CURRENT: RefCell<Option<Arc<Scope>>> = const { RefCell::new(None) };
}

/// Reads the calling thread's scope through `field`; the field type's
/// default outside any scope.
pub(crate) fn read<R: Default>(field: impl FnOnce(&Scope) -> R) -> R {
    CURRENT.with(|c| c.borrow().as_deref().map(field).unwrap_or_default())
}

/// The calling thread's scope, for re-entering on another thread.
pub(crate) fn current() -> Option<Arc<Scope>> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Makes `scope` the calling thread's scope until the guard drops.
pub(crate) fn enter(scope: Option<Arc<Scope>>) -> Guard {
    Guard(CURRENT.with(|c| c.replace(scope)))
}

/// Enters a copy of the calling thread's scope with `edit` applied.
pub(crate) fn enter_with(edit: impl FnOnce(&mut Scope)) -> Guard {
    let mut scope = read(Scope::clone);
    edit(&mut scope);
    enter(Some(Arc::new(scope)))
}

/// Restores the thread's previous scope when dropped.
#[derive(Debug)]
#[must_use = "the scope ends when the guard drops"]
pub struct Guard(Option<Arc<Scope>>);

impl Drop for Guard {
    fn drop(&mut self) {
        let previous = self.0.take();
        CURRENT.with(|c| *c.borrow_mut() = previous);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// The identity of the calling thread's scope.
    fn current_ptr() -> Option<*const Scope> {
        current().as_ref().map(Arc::as_ptr)
    }

    #[test]
    fn a_label_in_a_fault_scope_in_a_deadline_keeps_all_three() {
        assert_eq!(current_ptr(), None);
        let at = Instant::now() + Duration::from_secs(3600);
        let deadline = crate::cancel::deadline_at(at);
        let in_deadline = current_ptr();
        let faults = crate::faults::scoped(["si.link"]);
        let in_faults = current_ptr();
        // Set directly, as `obs::label_scope_with` does once recording
        // is on, so recording stays off for the other tests here.
        let label = enter_with(|s| s.label = Some("scenario-n".into()));
        assert_eq!(read(|s| s.deadline), Some(at));
        assert!(crate::faults::armed("si.link"));
        assert_eq!(read(|s| s.label.clone()).as_deref(), Some("scenario-n"));

        drop(label);
        assert_eq!(
            current_ptr(),
            in_faults,
            "the label guard restores the fault scope"
        );
        assert!(crate::faults::armed("si.link"));
        assert_eq!(read(|s| s.label.clone()), None);
        drop(faults);
        assert_eq!(
            current_ptr(),
            in_deadline,
            "the fault guard restores the deadline scope"
        );
        assert!(!crate::faults::armed("si.link"));
        assert_eq!(read(|s| s.deadline), Some(at));
        drop(deadline);
        assert_eq!(current_ptr(), None, "the deadline guard restores no scope");
    }
}
