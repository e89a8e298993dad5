//! Render kernel bench: one `batch::sweep_json` per call over studies
//! computed once, outside the timed region, reported as µs per call and
//! as ns per output byte.
//!
//! Two bodies: the smoke scenarios (`examples/smoke_scenarios.json`, the
//! body `ci.sh` and the serve tests post) and the six paper studies
//! (`Scenario::paper` for every packaged technology). Each sample times
//! `RENDERS` calls one by one; the line printed per body is the median
//! call. This is the rendering share of a warm `serve` request (the
//! traced `batch.render_ms` layer metric). Run with
//! `cargo bench -p bench --bench render_kernel`.

use codesign::batch;
use codesign::scenario::scenarios_from_json;
use codesign::Scenario;
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::{Duration, Instant};
use techlib::spec::InterposerKind;

/// `sweep_json` calls timed per criterion sample.
const RENDERS: usize = 100;

const SMOKE: &str = include_str!(concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../examples/smoke_scenarios.json"
));

fn bench_render_kernel(c: &mut Criterion) {
    let bodies = [
        (
            "smoke",
            scenarios_from_json(SMOKE).expect("the smoke scenarios parse"),
        ),
        (
            "paper6",
            InterposerKind::PACKAGED.map(Scenario::paper).to_vec(),
        ),
    ];
    let mut g = c.benchmark_group("render_kernel");
    g.sample_size(5);
    for (name, scenarios) in bodies {
        let outcomes = batch::run(&scenarios).expect("the batch runs");
        let bytes = batch::sweep_json(&scenarios, &outcomes)
            .expect("studies serialize")
            .len();
        let mut calls: Vec<Duration> = Vec::new();
        g.bench_function(name, |b| {
            b.iter(|| {
                for _ in 0..RENDERS {
                    let start = Instant::now();
                    black_box(batch::sweep_json(&scenarios, &outcomes).expect("studies serialize"));
                    calls.push(start.elapsed());
                }
            })
        });
        calls.sort_unstable();
        let median = calls[calls.len() / 2].as_secs_f64();
        println!(
            "{:<40} {:>8.1} us/sweep_json  {:>6.2} ns/byte  ({} bytes, median of {})",
            format!("render_kernel/{name}"),
            median * 1e6,
            median * 1e9 / bytes as f64,
            bytes,
            calls.len(),
        );
    }
    g.finish();
}

criterion_group!(render_kernel, bench_render_kernel);
criterion_main!(render_kernel);
