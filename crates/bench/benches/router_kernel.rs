//! A* kernel bench: one `router::route_all` per routed technology on its
//! paper placement, reported as wall time per call and as ns per
//! frontier pop.
//!
//! The pop count comes from the `router.heap_pops` obs counter (the same
//! number `--stats` prints), so the per-pop figure is comparable with
//! the traced `router.ns_per_pop` layer metric. Placement and grid are
//! built once per technology, outside the timed region. Run with
//! `cargo bench -p bench --bench router_kernel`.

use bench::time_calls;
use interposer::diemap::place_dies;
use interposer::grid::RoutingGrid;
use interposer::router::route_all;
use std::time::Duration;
use techlib::spec::{InterposerKind, InterposerSpec};

/// Timed `route_all` calls per technology.
const SAMPLES: u32 = 3;

/// Current value of the `router.heap_pops` counter.
fn heap_pops() -> u64 {
    techlib::obs::counter_totals()
        .into_iter()
        .find(|&(name, _)| name == techlib::obs::ROUTER_HEAP_POPS.name())
        .map_or(0, |(_, n)| n)
}

fn main() {
    techlib::obs::enable();
    for tech in InterposerKind::INTERPOSER_BASED {
        let placement = place_dies(tech);
        let grid = RoutingGrid::new(placement.footprint_um, &InterposerSpec::for_kind(tech))
            .expect("paper placements have a usable routing grid");
        let pops_before = heap_pops();
        let routing: Duration = time_calls(SAMPLES as usize, || {
            route_all(&placement, &grid).expect("paper nets route")
        })
        .into_iter()
        .sum();
        // Every call, the warm-up included, routes the same nets with
        // the same pops.
        let pops = (heap_pops() - pops_before) / u64::from(SAMPLES + 1);
        println!(
            "{:<40} {:>8.1} ms/route_all  {:>6.1} ns/pop  ({} pops)",
            format!("router_kernel/{tech}"),
            routing.as_secs_f64() * 1e3 / f64::from(SAMPLES),
            routing.as_secs_f64() * 1e9 / (pops * u64::from(SAMPLES)) as f64,
            pops,
        );
    }
}
