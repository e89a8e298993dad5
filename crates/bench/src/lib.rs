//! Shared helpers for the paper-regeneration binaries and kernel benches.
//!
//! The regeneration binaries (`table1` … `headline`) print one paper
//! table/figure each; the Criterion benches time the underlying engines.
//! End-to-end timing lives elsewhere: `perfbench` is the repository's
//! benchmark, and `codesign --stats` prints the per-stage table and work
//! counters of any single run.

use codesign::flow::TechStudy;
use codesign::table5::MonitorLengths;
use codesign::StudyContext;

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

#[cfg(test)]
mod tests {
    #[test]
    fn banner_does_not_panic() {
        super::banner("smoke");
    }
}
