//! Headline cross-technology comparison (the abstract's claims).
//!
//! The paper's summary metrics, computed from the same roll-ups that
//! generate Tables II–VI:
//!
//! * **2.6× area** — Glass 3D interposer area versus Glass/Silicon 2.5D;
//! * **21× wirelength** — Glass 3D lateral wire versus the best 2.5D;
//! * **17.72 % power** — Glass 3D versus Glass 2.5D system power;
//! * **64.7 % signal integrity** — Glass 3D L2M eye width versus the
//!   narrowest 2.5D eye (Silicon 2.5D);
//! * **10× power integrity** — peak PDN impedance versus Silicon 2.5D;
//! * **+35 % thermal** — the embedded memory die's price.

use crate::context::StudyContext;
use crate::fullchip::fullchip_in;
use crate::table5::MonitorLengths;
use crate::FlowError;
use pi::impedance::ImpedanceProfile;
use serde::Serialize;
use si::eye::{lateral_eye, stacked_via_eye, EyeConfig};
use techlib::spec::InterposerKind;

/// The headline metrics of the study.
#[derive(Debug, Clone, Serialize)]
pub struct Headline {
    /// Interposer area reduction, Glass 2.5D / Glass 3D.
    pub area_reduction_x: f64,
    /// Lateral wirelength reduction, best-2.5D / Glass 3D.
    pub wirelength_reduction_x: f64,
    /// System power reduction, Glass 3D vs Glass 2.5D, fraction.
    pub power_reduction_frac: f64,
    /// L2M eye-width gain, Glass 3D vs Silicon 2.5D, fraction.
    pub si_improvement_frac: f64,
    /// Peak-impedance improvement, Silicon 2.5D / Glass 3D.
    pub pi_improvement_x: f64,
    /// Memory-chiplet temperature increase, Glass 3D vs Silicon 2.5D,
    /// fraction (°C basis, as the paper quotes).
    pub thermal_increase_frac: f64,
}

/// Computes the headline metrics from the study `ctx` serves.
///
/// # Errors
///
/// Propagates routing and simulation failures.
pub fn headline(ctx: &StudyContext) -> Result<Headline, FlowError> {
    let g3 = ctx.layout(InterposerKind::Glass3D)?;
    let g25 = ctx.layout(InterposerKind::Glass25D)?;
    let si = ctx.layout(InterposerKind::Silicon25D)?;

    let area_reduction_x = g25.stats.area_mm2 / g3.stats.area_mm2;
    let wirelength_reduction_x = si.stats.total_wl_mm / g3.stats.total_wl_mm;

    let p_g3 = fullchip_in(ctx, InterposerKind::Glass3D, MonitorLengths::Paper)?;
    let p_g25 = fullchip_in(ctx, InterposerKind::Glass25D, MonitorLengths::Paper)?;
    let power_reduction_frac = 1.0 - p_g3.total_power_mw / p_g25.total_power_mw;

    // The paper's eye decks drive a 50 Ω receiver (Section VII-A); the
    // resulting resistive divider against the line resistance is what
    // separates the eye heights, so the headline SI metric uses that deck
    // and compares the eye-opening area (width × height), which is what
    // the paper's 64.7 % figure tracks.
    let cfg = EyeConfig::paper_deck();
    let eye_g3 = stacked_via_eye(&cfg)?;
    let si_l2m = si.worst_net_um(interposer::diemap::NetClass::IntraTileLateral);
    let eye_si = lateral_eye(InterposerKind::Silicon25D, si_l2m, &cfg)?;
    let si_improvement_frac =
        (eye_g3.width_ns * eye_g3.height_v) / (eye_si.width_ns * eye_si.height_v) - 1.0;

    let z_g3 = ImpedanceProfile::sweep(ctx.spec(InterposerKind::Glass3D), 41)?.peak_ohm();
    let z_si = ImpedanceProfile::sweep(ctx.spec(InterposerKind::Silicon25D), 41)?.peak_ohm();
    let pi_improvement_x = z_si / z_g3;

    let t_g3 = ctx.thermal_report(InterposerKind::Glass3D)?;
    let t_si = ctx.thermal_report(InterposerKind::Silicon25D)?;
    let thermal_increase_frac = t_g3.mem_peak_c / t_si.mem_peak_c - 1.0;

    Ok(Headline {
        area_reduction_x,
        wirelength_reduction_x,
        power_reduction_frac,
        si_improvement_frac,
        pi_improvement_x,
        thermal_increase_frac,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn headline_directions_match_the_abstract() {
        let h = headline(crate::context::test_context()).unwrap();
        // 2.6× area.
        assert!(
            (2.0..3.2).contains(&h.area_reduction_x),
            "{}",
            h.area_reduction_x
        );
        // 21× wirelength.
        assert!(
            h.wirelength_reduction_x > 10.0,
            "{}",
            h.wirelength_reduction_x
        );
        // Power reduction positive (paper: 17.72 %).
        assert!(h.power_reduction_frac > 0.03, "{}", h.power_reduction_frac);
        // SI improvement positive (paper: 64.7 %).
        assert!(h.si_improvement_frac > 0.0, "{}", h.si_improvement_frac);
        // PI ~10x class.
        assert!(h.pi_improvement_x > 3.0, "{}", h.pi_improvement_x);
        // Thermal penalty positive (paper: ~35 %).
        assert!(h.thermal_increase_frac > 0.1, "{}", h.thermal_increase_frac);
    }
}
