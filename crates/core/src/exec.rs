//! Deterministic parallel execution for the flow.
//!
//! Thin, flow-facing wrapper over [`techlib::par`] (the primitive lives at
//! the bottom of the crate graph so `si`, `interposer` and `thermal` can
//! use it too). Everything here preserves **input order** in outputs and
//! error selection, which is what makes parallel runs byte-identical to
//! sequential ones:
//!
//! * [`ordered_map`] — fan a slice out across the process-wide pool,
//!   results in input order;
//! * [`try_ordered_map`] — same for fallible tasks; when several fail, the
//!   error reported is the *first failing input's* error, exactly as a
//!   sequential loop would report (later tasks' work is discarded);
//! * [`ordered_map_heaviest_first`] — [`ordered_map`] that hands the
//!   heaviest items to workers first, results still in input order;
//! * [`join`] — run two closures concurrently, results in argument order.
//!
//! Every helper runs on [`techlib::par`]'s one pool of parked workers
//! plus the calling thread, so nested fan-outs (eye sources inside a
//! link, links and thermal inside a tech, techs inside a study) share
//! one bounded set of threads and none is spawned per call. Its width
//! is the `CODESIGN_THREADS` environment variable (see [`THREADS_ENV`]),
//! read once per process; `CODESIGN_THREADS=1` starts no worker and
//! degenerates every helper to a plain in-order loop on the calling
//! thread.

pub use techlib::par::{join, ordered_map, ordered_map_with, thread_count, THREADS_ENV};

/// [`ordered_map`] with the items claimed heaviest first: indices are
/// sorted by `weight` in descending order, ties broken by input index,
/// and workers take them in that order. When a few items dominate the
/// run (the APX route in a six-technology study), starting them first
/// keeps them off the critical path's tail. The results are scattered
/// back, so the output is in **input order** — exactly what
/// [`ordered_map`] or a sequential loop returns. `weight` is evaluated
/// once per item on the calling thread.
///
/// With `U = Result<_, E>`, collecting the output reports the first
/// failing input's error (in input order, not claim order), as
/// [`try_ordered_map`] does.
///
/// # Panics
///
/// Propagates panics from `f`.
pub fn ordered_map_heaviest_first<T, U, W, F>(items: &[T], weight: W, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    W: Fn(&T) -> usize,
    F: Fn(&T) -> U + Sync,
{
    let weights: Vec<usize> = items.iter().map(weight).collect();
    let order = heaviest_first_order(&weights);
    let results = ordered_map(&order, |&i| f(&items[i]));
    let mut placed: Vec<(usize, U)> = order.into_iter().zip(results).collect();
    placed.sort_unstable_by_key(|&(i, _)| i);
    placed.into_iter().map(|(_, out)| out).collect()
}

/// Item indices by descending weight, ties by ascending index.
fn heaviest_first_order(weights: &[usize]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(weights[i]), i));
    order
}

/// Applies a fallible `f` to every item in parallel. On success returns
/// the results in input order; on failure returns the error belonging to
/// the earliest failing input — matching what a sequential
/// `items.iter().map(f).collect::<Result<_, _>>()` reports, so error
/// behaviour is deterministic too.
///
/// Unlike the sequential collect, items after a failing one *are* still
/// evaluated (they may already be running on other workers); their
/// results are dropped.
///
/// # Errors
///
/// The first (by input order) error produced by `f`.
pub fn try_ordered_map<T, U, E, F>(items: &[T], f: F) -> Result<Vec<U>, E>
where
    T: Sync,
    U: Send,
    E: Send,
    F: Fn(&T) -> Result<U, E> + Sync,
{
    ordered_map(items, f).into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn try_ordered_map_keeps_order() {
        let items: Vec<u32> = (0..20).collect();
        let out: Result<Vec<u32>, ()> = try_ordered_map(&items, |&i| Ok(i * 2));
        assert_eq!(out.unwrap(), (0..20).map(|i| i * 2).collect::<Vec<_>>());
    }

    #[test]
    fn heaviest_first_claims_by_weight_then_index() {
        assert_eq!(heaviest_first_order(&[3, 9, 0, 9, 5]), vec![1, 3, 4, 0, 2]);
        assert!(heaviest_first_order(&[]).is_empty());
        let items = [3usize, 9, 0, 9, 5];
        let out = ordered_map_heaviest_first(&items, |&w| w, |&w| w * 10);
        assert_eq!(out, vec![30, 90, 0, 90, 50], "results in input order");
    }

    #[test]
    fn try_ordered_map_reports_first_failing_input() {
        let items: Vec<u32> = (0..20).collect();
        // Items 7 and 3 both fail; input order means 3 wins, regardless
        // of completion order.
        let out: Result<Vec<u32>, u32> =
            try_ordered_map(&items, |&i| if i == 7 || i == 3 { Err(i) } else { Ok(i) });
        assert_eq!(out.unwrap_err(), 3);
    }
}
