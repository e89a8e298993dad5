//! Deterministic fault injection for flow robustness testing.
//!
//! Every fallible stage of the co-design flow declares a **named fault
//! site** (see [`SITES`]) and checks it at its entry point:
//!
//! ```ignore
//! if techlib::faults::armed("router.escape") {
//!     return Err(RouteError::Unroutable { net: 0 });
//! }
//! ```
//!
//! A site is armed in one of two ways. The `CODESIGN_FAULTS` environment
//! variable (`CODESIGN_FAULTS=router.escape,thermal.sor`), read once when
//! a site is first checked, arms sites for the whole process. [`scoped`]
//! arms sites in the calling thread's request scope ([`crate::scope`]):
//! they fire only on that thread and in the pool tasks [`crate::par`]
//! runs on its behalf, so the batch scenario engine injects a fault into
//! one scenario of a concurrent sweep without touching the others.
//! Arming is a plain set lookup — no counters, no randomness — so an
//! armed site fires on **every** traversal, which is what makes injected
//! failures deterministic regardless of the worker count: the parallel
//! flow and the sequential flow hit exactly the same error at exactly
//! the same stage.
//!
//! The injected error is always the *natural* typed error of the faulted
//! stage (a singular pivot for `circuit.lu`, an unroutable net for
//! `router.escape`, ...), so fault tests exercise the same propagation
//! path a real failure would take.

use std::collections::BTreeSet;
use std::sync::OnceLock;

use crate::scope::{self, Guard};

/// Environment variable holding a comma-separated list of sites to arm.
pub const FAULTS_ENV: &str = "CODESIGN_FAULTS";

/// Every fault site compiled into the workspace, one per flow stage
/// boundary plus the two inner numeric loops (LU factorisation and SOR
/// convergence). Arming a name outside this list is accepted (it simply
/// never fires) but reported once on stderr as a likely typo.
pub const SITES: &[&str] = &[
    "partition.split",  // netlist: hierarchical L3 split
    "chiplet.place",    // chiplet: macro placement / die sizing
    "router.escape",    // interposer: escape + channel routing
    "extract.channels", // core: channel-length extraction for Table V
    "si.link",          // si: link deck simulation
    "thermal.solve",    // thermal: per-tech analysis entry
    "circuit.lu",       // circuit: LU factorisation inner loop
    "thermal.sor",      // thermal: SOR convergence loop
];

/// The sites `CODESIGN_FAULTS` arms, read and checked once.
fn env_armed() -> &'static BTreeSet<String> {
    static SET: OnceLock<BTreeSet<String>> = OnceLock::new();
    SET.get_or_init(|| {
        let mut set = BTreeSet::new();
        if let Ok(raw) = std::env::var(FAULTS_ENV) {
            for name in raw.split(',').map(str::trim).filter(|s| !s.is_empty()) {
                if !SITES.contains(&name) {
                    eprintln!(
                        "warning: {FAULTS_ENV} names unknown fault site {name:?} \
                         (known sites: {SITES:?})"
                    );
                }
                set.insert(name.to_string());
            }
        }
        set
    })
}

/// True when the named site is armed, either by `CODESIGN_FAULTS` or in
/// the calling thread's scope.
pub fn armed(name: &str) -> bool {
    env_armed().contains(name) || scope::read(|s| s.faults.contains(name))
}

/// Arms exactly `sites` in the calling thread's scope until the returned
/// guard drops; an enclosing fault scope's sites are not armed inside
/// it. Unknown site names are accepted here — callers that want typed
/// validation check against [`SITES`] first.
pub fn scoped<I, S>(sites: I) -> Guard
where
    I: IntoIterator<Item = S>,
    S: Into<String>,
{
    scope::enter_with(|s| s.faults = sites.into_iter().map(Into::into).collect())
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)]
mod tests {
    use super::*;

    /// The sites armed in the calling thread's scope.
    fn scope_sites() -> Vec<String> {
        scope::read(|s| s.faults.iter().cloned().collect())
    }

    #[test]
    fn every_registered_site_has_a_stage_prefix() {
        for s in SITES {
            assert!(s.contains('.'), "site {s:?} must be stage-qualified");
        }
    }

    #[test]
    fn scoped_arming_is_thread_local() {
        // Scoped sites fire only inside the scope…
        assert!(!armed("partition.split"));
        let guard = scoped(["partition.split"]);
        assert!(armed("partition.split"));
        assert_eq!(scope_sites(), ["partition.split"]);

        // …and never on a thread that did not enter it.
        std::thread::scope(|s| {
            s.spawn(|| {
                assert!(!armed("partition.split"), "foreign thread sees the scope");
                assert!(scope::current().is_none());
            });
        });

        // A worker that explicitly enters the scope does see it — this is
        // what par::ordered_map does on the caller's behalf.
        let captured = scope::current();
        std::thread::scope(|s| {
            s.spawn(move || {
                let _g = scope::enter(captured);
                assert!(armed("partition.split"));
            });
        });

        drop(guard);
        assert!(!armed("partition.split"), "dropping the scope disarms");
        assert!(scope::current().is_none());
    }

    #[test]
    fn scopes_nest_and_restore() {
        let outer = scoped(["si.link"]);
        {
            let _inner = scoped(["thermal.sor"]);
            // The innermost scope wins: a thread is in exactly one scope.
            assert!(armed("thermal.sor"));
            assert!(!armed("si.link"));
            assert_eq!(scope_sites(), ["thermal.sor"]);
        }
        assert!(armed("si.link"), "inner drop restores the outer scope");
        assert!(!armed("thermal.sor"));
        drop(outer);
        assert!(!armed("si.link"));
    }
}
