//! Criterion benches for the figure engines: Fig. 14 (eye diagrams),
//! Fig. 15 (PDN impedance) and Figs. 16–18 (thermal solve).

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use techlib::spec::{InterposerKind, InterposerSpec};

/// Fig. 14: one full PRBS eye with two aggressors.
fn bench_fig14(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig14_eye");
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_secs(15));
    g.bench_function("silicon25d_lateral_eye", |b| {
        b.iter(|| {
            black_box(
                si::eye::lateral_eye(
                    InterposerKind::Silicon25D,
                    1_952.0,
                    &si::eye::EyeConfig {
                        bits: 48,
                        aggressors: true,
                        ..si::eye::EyeConfig::default()
                    },
                )
                .expect("eye"),
            )
        })
    });
    g.bench_function("glass3d_stacked_via_eye", |b| {
        b.iter(|| {
            black_box(
                si::eye::stacked_via_eye(&si::eye::EyeConfig {
                    bits: 48,
                    aggressors: true,
                    ..si::eye::EyeConfig::default()
                })
                .expect("eye"),
            )
        })
    });
    g.finish();
}

/// Fig. 15: a full 61-point impedance sweep.
fn bench_fig15(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig15_pdn");
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_secs(20));
    let glass3d = InterposerSpec::for_kind(InterposerKind::Glass3D);
    g.bench_function("glass3d_impedance_sweep", |b| {
        b.iter(|| black_box(pi::impedance::ImpedanceProfile::sweep(&glass3d, 61).expect("sweep")))
    });
    let shinko = InterposerSpec::for_kind(InterposerKind::Shinko);
    g.bench_function("shinko_transient_settling", |b| {
        b.iter(|| black_box(pi::transient::analyze(&shinko).expect("transient")))
    });
    g.finish();
}

/// Figs. 16–18: one steady-state thermal solve.
fn bench_thermal(c: &mut Criterion) {
    let mut g = c.benchmark_group("fig1618_thermal");
    g.sample_size(10);
    g.measurement_time(std::time::Duration::from_secs(15));
    g.bench_function("glass3d_solve", |b| {
        b.iter(|| {
            let model =
                thermal::model::ThermalModel::for_tech(InterposerKind::Glass3D).expect("model");
            black_box(thermal::solver::solve(
                &model,
                &thermal::solver::SolveConfig::default(),
            ))
        })
    });
    g.finish();
}

criterion_group!(figures, bench_fig14, bench_fig15, bench_thermal);
criterion_main!(figures);
