//! IR drop and 125 MHz load-step transient (Table IV).
//!
//! IR drop is the DC supply depression at the die under the full chiplet
//! current. The transient analysis applies the paper's 125 MHz switching
//! load and reports the worst droop and the time for the die supply's
//! cycle-average to settle into a band around its final value.

use crate::pdn_model::{Excitation, PdnCircuit};
use circuit::tran::{simulate, TranConfig};
use circuit::CircuitError;
use serde::Serialize;
use techlib::calib;
use techlib::spec::{InterposerKind, InterposerSpec};

/// Settling criterion: cycle-mean within this many volts of final.
pub const SETTLE_BAND_V: f64 = 2e-3;

/// Transient PDN results for one technology.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct TransientReport {
    /// Technology.
    pub tech: InterposerKind,
    /// DC IR drop at the die, mV.
    pub ir_drop_mv: f64,
    /// Worst transient droop below VDD, mV.
    pub worst_droop_mv: f64,
    /// Settling time of the cycle-averaged die voltage, µs.
    pub settling_us: f64,
}

/// Runs the DC and 125 MHz transient analyses for `spec`.
///
/// # Errors
///
/// Propagates solver failures.
pub fn analyze(spec: &InterposerSpec) -> Result<TransientReport, CircuitError> {
    // DC IR drop.
    let dc_model = PdnCircuit::build(spec, Excitation::DcLoad);
    let dc = circuit::dc::solve(&dc_model.circuit)?;
    let v_die = dc.voltage(dc_model.die_node);
    // Package-only drop: exclude the VRM's own regulation resistance,
    // which the paper's IVR compensates.
    let ir_drop_mv = ((calib::VDD - v_die) * 1e3
        - dc_model.die_load_a() * crate::pdn_model::VRM_R_OHM * 1e3)
        .max(0.0);

    // 125 MHz switching transient.
    let tr_model = PdnCircuit::build(spec, Excitation::SwitchingLoad);
    let result = simulate(
        &tr_model.circuit,
        &TranConfig {
            t_stop: 20e-6,
            dt: 1e-9,
        },
    )?;
    let v = result.voltage(tr_model.die_node);
    let times = &result.times;

    let worst_droop_mv = v
        .iter()
        .skip(10)
        .fold(0.0f64, |m, &x| m.max(calib::VDD - x))
        * 1e3;

    // Cycle-average (125 MHz period = 8 ns = 8 samples at 1 ns).
    let per = 8usize;
    let n_cycles = v.len() / per;
    let mut means = Vec::with_capacity(n_cycles);
    for k in 0..n_cycles {
        let s: f64 = v[k * per..(k + 1) * per].iter().sum();
        means.push(s / per as f64);
    }
    // Final value: average of the last 10 % of cycles (fully settled).
    let tail = (means.len() / 10).max(1);
    let v_final: f64 = means[means.len() - tail..].iter().sum::<f64>() / tail as f64;
    let mut settle_idx = 0;
    for (k, &m) in means.iter().enumerate() {
        if (m - v_final).abs() > SETTLE_BAND_V {
            settle_idx = k + 1;
        }
    }
    let settling_us = times[(settle_idx * per).min(times.len() - 1)] * 1e6;

    Ok(TransientReport {
        tech: spec.kind,
        ir_drop_mv,
        worst_droop_mv,
        settling_us,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyze(tech: InterposerKind) -> Result<TransientReport, CircuitError> {
        super::analyze(&InterposerSpec::for_kind(tech))
    }

    #[test]
    fn ir_drop_is_in_table4_range() {
        // Table IV: 17–27 mV across technologies.
        for tech in [
            InterposerKind::Glass3D,
            InterposerKind::Glass25D,
            InterposerKind::Silicon25D,
        ] {
            let r = analyze(tech).unwrap();
            assert!(
                (5.0..60.0).contains(&r.ir_drop_mv),
                "{tech}: {} mV",
                r.ir_drop_mv
            );
        }
    }

    #[test]
    fn silicon_ir_drop_exceeds_glass() {
        // Table IV: 27 mV silicon vs 17–18.6 mV glass (thin 1 µm planes
        // vs 4 µm).
        let si = analyze(InterposerKind::Silicon25D).unwrap();
        let g25 = analyze(InterposerKind::Glass25D).unwrap();
        assert!(
            si.ir_drop_mv > g25.ir_drop_mv,
            "{} vs {}",
            si.ir_drop_mv,
            g25.ir_drop_mv
        );
    }

    #[test]
    fn glass_3d_settles_fastest() {
        // Table IV: 3.7 µs for Glass 3D, 4.8–5.4 µs for the rest.
        let g3 = analyze(InterposerKind::Glass3D).unwrap();
        let sh = analyze(InterposerKind::Shinko).unwrap();
        assert!(
            g3.settling_us <= sh.settling_us,
            "{} vs {}",
            g3.settling_us,
            sh.settling_us
        );
        assert!((0.5..10.0).contains(&g3.settling_us), "{}", g3.settling_us);
    }

    #[test]
    fn ir_drop_ordering_matches_table4() {
        // Paper: Si 27 mV worst; APX/Glass3D ~17 mV best; Shinko 23 mV
        // between — driven by plane thickness (1 µm Si vs 6 µm APX).
        let si = analyze(InterposerKind::Silicon25D).unwrap().ir_drop_mv;
        let sh = analyze(InterposerKind::Shinko).unwrap().ir_drop_mv;
        let g25 = analyze(InterposerKind::Glass25D).unwrap().ir_drop_mv;
        let apx = analyze(InterposerKind::Apx).unwrap().ir_drop_mv;
        assert!(si > sh, "{si} vs {sh}");
        assert!(sh > g25, "{sh} vs {g25}");
        assert!(g25 > apx, "{g25} vs {apx}");
        assert!((20.0..35.0).contains(&si), "si = {si}");
        assert!((12.0..22.0).contains(&apx), "apx = {apx}");
    }

    #[test]
    fn settling_lands_in_the_paper_band() {
        // Paper: 3.7-5.4 µs across technologies.
        for tech in [InterposerKind::Glass3D, InterposerKind::Apx] {
            let s = analyze(tech).unwrap().settling_us;
            assert!((3.0..7.0).contains(&s), "{tech}: {s}");
        }
    }

    #[test]
    fn droop_exceeds_dc_ir_drop() {
        let r = analyze(InterposerKind::Apx).unwrap();
        assert!(r.worst_droop_mv >= r.ir_drop_mv * 0.5, "{r:?}");
    }
}
