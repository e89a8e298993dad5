//! Thermal kernel bench: one default steady-state solve per packaged
//! technology, reported as wall time per solve and as ns per cell-sweep.
//!
//! The cell-sweep count comes from the `thermal.sor_sweeps` obs counter
//! (the same number `--stats` prints) times the model's `nx·ny·nz`, so
//! the per-cell figure is comparable with the traced
//! `thermal.ns_per_cell_sweep` layer metric. Run with
//! `cargo bench -p bench --bench thermal_kernel`.

use bench::time_calls;
use std::time::Duration;
use techlib::spec::InterposerKind;
use thermal::model::ThermalModel;
use thermal::solver::{solve, SolveConfig};

/// Timed solves per technology.
const SAMPLES: u32 = 3;

/// Current value of the `thermal.sor_sweeps` counter.
fn sor_sweeps() -> u64 {
    techlib::obs::counter_totals()
        .into_iter()
        .find(|&(name, _)| name == techlib::obs::THERMAL_SOR_SWEEPS.name())
        .map_or(0, |(_, n)| n)
}

fn main() {
    techlib::obs::enable();
    for tech in InterposerKind::PACKAGED {
        let model = ThermalModel::for_tech(tech).expect("packaged techs have a thermal model");
        let cells = (model.nx * model.ny * model.nz()) as f64;
        let config = SolveConfig::default();
        let sweeps_before = sor_sweeps();
        let solving: Duration = time_calls(SAMPLES as usize, || {
            solve(&model, &config).expect("default solve converges")
        })
        .into_iter()
        .sum();
        // Every call, the warm-up included, runs the same sweeps.
        let sweeps = (sor_sweeps() - sweeps_before) / u64::from(SAMPLES + 1);
        println!(
            "{:<40} {:>8.1} ms/solve  {:>6.1} ns/cell-sweep  ({} sweeps x {} cells)",
            format!("thermal_kernel/{tech}"),
            solving.as_secs_f64() * 1e3 / f64::from(SAMPLES),
            solving.as_secs_f64() * 1e9 / ((sweeps * u64::from(SAMPLES)) as f64 * cells),
            sweeps,
            cells,
        );
    }
}
