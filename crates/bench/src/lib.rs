//! Shared helpers for the paper-regeneration binaries and kernel benches.
//!
//! The regeneration binaries (`table1` … `headline`) print one paper
//! table/figure each; the benches under `benches/` are plain `main`s
//! that time the underlying engines with [`time_calls`].
//! End-to-end timing lives elsewhere: `perfbench` is the repository's
//! benchmark, and `codesign --stats` prints the per-stage table and work
//! counters of any single run.

use codesign::flow::TechStudy;
use codesign::table5::MonitorLengths;
use codesign::StudyContext;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Runs the full six-technology paper study used by the table binaries.
pub fn studies() -> Vec<TechStudy> {
    codesign::flow::run_all_in(&StudyContext::paper(), MonitorLengths::Routed)
        .expect("full study completes")
}

/// Prints a paper-vs-measured header.
pub fn banner(what: &str) {
    println!("==================================================================");
    println!("{what}");
    println!("==================================================================");
}

/// Times `samples` calls of `call`, each one alone, after one untimed
/// warm-up call. Dropping a call's result is not timed.
pub fn time_calls<T>(samples: usize, mut call: impl FnMut() -> T) -> Vec<Duration> {
    black_box(call());
    (0..samples)
        .map(|_| {
            let start = Instant::now();
            let out = call();
            let elapsed = start.elapsed();
            black_box(out);
            elapsed
        })
        .collect()
}

#[cfg(test)]
mod tests {
    #[test]
    fn banner_does_not_panic() {
        super::banner("smoke");
    }

    #[test]
    fn time_calls_warms_up_once_then_times_each_call() {
        let mut calls = 0;
        let times = super::time_calls(3, || calls += 1);
        assert_eq!(times.len(), 3);
        assert_eq!(calls, 4);
    }
}
