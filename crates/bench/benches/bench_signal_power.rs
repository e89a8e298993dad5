//! Benches for the figure engines: Fig. 14 (eye diagrams) and Fig. 15
//! (PDN impedance and transient), reported as mean and best wall time
//! per call. `thermal_kernel` times the Figs. 16–18 thermal solver. Run
//! with `cargo bench -p bench --bench bench_signal_power`.

use bench::time_calls;
use std::time::Duration;
use techlib::spec::{InterposerKind, InterposerSpec};

/// Timed calls per case.
const SAMPLES: usize = 10;

/// Times `call` and prints its mean and best call under `id`.
fn report<T>(id: &str, call: impl FnMut() -> T) {
    let calls = time_calls(SAMPLES, call);
    let mean = calls.iter().sum::<Duration>() / SAMPLES as u32;
    let best = calls.iter().min().copied().unwrap_or_default();
    println!("{id:<40} mean {mean:>12.3?}  best {best:>12.3?}  ({SAMPLES} samples)");
}

fn main() {
    // Fig. 14: one full PRBS eye with two aggressors.
    let eye = si::eye::EyeConfig {
        bits: 48,
        aggressors: true,
        ..si::eye::EyeConfig::default()
    };
    report("fig14_eye/silicon25d_lateral_eye", || {
        si::eye::lateral_eye(InterposerKind::Silicon25D, 1_952.0, &eye).expect("eye")
    });
    report("fig14_eye/glass3d_stacked_via_eye", || {
        si::eye::stacked_via_eye(&eye).expect("eye")
    });

    // Fig. 15: a full 61-point impedance sweep, and the transient.
    let glass3d = InterposerSpec::for_kind(InterposerKind::Glass3D);
    report("fig15_pdn/glass3d_impedance_sweep", || {
        pi::impedance::ImpedanceProfile::sweep(&glass3d, 61).expect("sweep")
    });
    let shinko = InterposerSpec::for_kind(InterposerKind::Shinko);
    report("fig15_pdn/shinko_transient_settling", || {
        pi::transient::analyze(&shinko).expect("transient")
    });
}
