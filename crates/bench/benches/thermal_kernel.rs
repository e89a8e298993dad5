//! Thermal kernel bench: one default steady-state solve per packaged
//! technology, reported as wall time per solve and as ns per cell-sweep.
//!
//! The cell-sweep count comes from the `thermal.sor_sweeps` obs counter
//! (the same number `--stats` prints) times the model's `nx·ny·nz`, so
//! the per-cell figure is comparable with the traced
//! `thermal.ns_per_cell_sweep` layer metric. Run with
//! `cargo bench -p bench --bench thermal_kernel`.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::time::{Duration, Instant};
use techlib::spec::InterposerKind;
use thermal::model::ThermalModel;
use thermal::solver::{solve, SolveConfig};

/// Current value of the `thermal.sor_sweeps` counter.
fn sor_sweeps() -> u64 {
    techlib::obs::counter_totals()
        .into_iter()
        .find(|&(name, _)| name == techlib::obs::THERMAL_SOR_SWEEPS.name())
        .map_or(0, |(_, n)| n)
}

fn bench_thermal_kernel(c: &mut Criterion) {
    techlib::obs::enable();
    let mut g = c.benchmark_group("thermal_kernel");
    g.sample_size(3);
    for tech in InterposerKind::PACKAGED {
        let model = ThermalModel::for_tech(tech).expect("packaged techs have a thermal model");
        let cells = (model.nx * model.ny * model.nz()) as f64;
        let config = SolveConfig::default();
        let mut solving = Duration::ZERO;
        let mut solves = 0u32;
        let sweeps_before = sor_sweeps();
        g.bench_function(tech.to_string(), |b| {
            b.iter(|| {
                let start = Instant::now();
                let field = black_box(solve(&model, &config).expect("default solve converges"));
                solving += start.elapsed();
                solves += 1;
                field
            })
        });
        let sweeps = sor_sweeps() - sweeps_before;
        println!(
            "{:<40} {:>8.1} ms/solve  {:>6.1} ns/cell-sweep  ({} sweeps x {} cells)",
            format!("thermal_kernel/{tech}"),
            solving.as_secs_f64() * 1e3 / f64::from(solves),
            solving.as_secs_f64() * 1e9 / (sweeps as f64 * cells),
            sweeps / u64::from(solves),
            cells,
        );
    }
    g.finish();
}

criterion_group!(thermal_kernel, bench_thermal_kernel);
criterion_main!(thermal_kernel);
