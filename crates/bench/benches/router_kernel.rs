//! A* kernel bench: one `router::route_all` per routed technology on its
//! paper placement, reported as wall time per call and as ns per
//! frontier pop.
//!
//! The pop count comes from the `router.heap_pops` obs counter (the same
//! number `--stats` prints), so the per-pop figure is comparable with
//! the traced `router.ns_per_pop` layer metric. Placement and grid are
//! built once per technology, outside the timed region. Run with
//! `cargo bench -p bench --bench router_kernel`.

use criterion::{criterion_group, criterion_main, Criterion};
use interposer::diemap::place_dies;
use interposer::grid::RoutingGrid;
use interposer::router::route_all;
use std::hint::black_box;
use std::time::{Duration, Instant};
use techlib::spec::{InterposerKind, InterposerSpec};

/// Current value of the `router.heap_pops` counter.
fn heap_pops() -> u64 {
    techlib::obs::counter_totals()
        .into_iter()
        .find(|&(name, _)| name == techlib::obs::ROUTER_HEAP_POPS.name())
        .map_or(0, |(_, n)| n)
}

fn bench_router_kernel(c: &mut Criterion) {
    techlib::obs::enable();
    let mut g = c.benchmark_group("router_kernel");
    g.sample_size(3);
    for tech in InterposerKind::INTERPOSER_BASED {
        let placement = place_dies(tech);
        let grid = RoutingGrid::new(placement.footprint_um, &InterposerSpec::for_kind(tech))
            .expect("paper placements have a usable routing grid");
        let mut routing = Duration::ZERO;
        let mut calls = 0u32;
        let pops_before = heap_pops();
        g.bench_function(tech.to_string(), |b| {
            b.iter(|| {
                let start = Instant::now();
                let routed = black_box(route_all(&placement, &grid).expect("paper nets route"));
                routing += start.elapsed();
                calls += 1;
                routed
            })
        });
        let pops = heap_pops() - pops_before;
        println!(
            "{:<40} {:>8.1} ms/route_all  {:>6.1} ns/pop  ({} pops)",
            format!("router_kernel/{tech}"),
            routing.as_secs_f64() * 1e3 / f64::from(calls),
            routing.as_secs_f64() * 1e9 / pops as f64,
            pops / u64::from(calls),
        );
    }
    g.finish();
}

criterion_group!(router_kernel, bench_router_kernel);
criterion_main!(router_kernel);
