//! The router's exact work on the paper's Glass 2.5D layout: frontier
//! pops, node expansions, window fallbacks and incremental reroutes.
//!
//! Glass 2.5D is the tie-heavy, congested technology, so a frontier or
//! stale-entry change that drops or repeats a single expansion moves
//! these counts. They are the `--stats` values of
//! `CODESIGN_THREADS=1 codesign glass25d`. This file is its own test
//! binary so no other test adds to the process-wide `techlib::obs`
//! totals while it reads them.

use interposer::report::place_and_route;
use techlib::obs;
use techlib::spec::InterposerKind;

fn counter(name: &str) -> u64 {
    obs::counter_totals()
        .into_iter()
        .find(|&(n, _)| n == name)
        .map_or(0, |(_, v)| v)
}

#[test]
fn glass25d_routing_does_the_pinned_work() {
    obs::enable();
    obs::reset();
    let layout = place_and_route(InterposerKind::Glass25D).expect("glass 2.5D routes");
    assert_eq!(layout.routed_nets.len(), 530);
    assert_eq!(counter(obs::ROUTER_HEAP_POPS.name()), 10_952_656);
    assert_eq!(counter(obs::ROUTER_EXPANSIONS.name()), 7_849_864);
    assert_eq!(counter(obs::ROUTER_WINDOW_FALLBACKS.name()), 1_204);
    assert_eq!(counter(obs::ROUTER_INCREMENTAL_REROUTES.name()), 1_039);
}
