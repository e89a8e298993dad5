//! One-call chiplet analysis producing a Table III row.

use crate::bumpmap::BumpPlan;
use crate::footprint::{self, FootprintPlan};
use crate::power::{self, PowerBreakdown};
use crate::timing;
use crate::wirelength;
use crate::ChipletError;
use netlist::chiplet_netlist::ChipletNetlist;
use serde::{Deserialize, Serialize};
use techlib::calib;
use techlib::spec::{InterposerKind, InterposerSpec};
use techlib::store::{SpecField, Stage};

/// The chiplet-reports stage (bump plan, footprint solve, and the
/// timing/wirelength/power models for the logic+memory pair), stored
/// downstream of the chiplet netlists. Bump the version whenever any of
/// those models or the serialized shape of [`ChipletReport`] changes.
///
/// The projection is what the pair analysis consumes: the technology
/// (timing/power calibration and width-matching are keyed on `kind`),
/// the stacking style, and the micro-bump pitch (bump-plan geometry).
/// Interposer wire rules and dielectric properties are irrelevant here
/// — the dies themselves don't change when the routing substrate does.
pub const REPORTS: Stage = Stage {
    name: "chiplet_reports",
    version: 1,
    projection: &[
        SpecField::Kind,
        SpecField::Stacking,
        SpecField::MicrobumpPitchUm,
    ],
};

/// Everything Table III reports for one chiplet on one technology.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChipletReport {
    /// Technology label.
    pub tech: InterposerKind,
    /// Chiplet label ("logic"/"mem").
    pub chiplet: String,
    /// Achieved frequency, MHz.
    pub fmax_mhz: f64,
    /// Die width, mm (square die).
    pub footprint_mm: f64,
    /// Total placed cells.
    pub cell_count: usize,
    /// Placement utilisation (0–1).
    pub utilization: f64,
    /// Routed wirelength, m.
    pub wirelength_m: f64,
    /// Power decomposition.
    pub power: PowerBreakdown,
    /// AIB macro area, µm².
    pub aib_area_um2: f64,
    /// Bump plan used.
    pub bumps: BumpPlan,
    /// Footprint plan used.
    pub footprint: FootprintPlan,
}

impl ChipletReport {
    /// Total power, mW.
    pub fn total_power_mw(&self) -> f64 {
        self.power.total_w() * 1e3
    }

    /// AIB area as a fraction of the die.
    pub fn aib_area_fraction(&self) -> f64 {
        self.aib_area_um2 / (self.footprint.width_um * self.footprint.width_um)
    }
}

/// Runs the full chiplet physical-design analysis for `chiplet` on `tech`.
///
/// `match_width_um` forces a stacked configuration's die width (Glass 3D
/// memory matches the logic die; Silicon 3D tiers match each other).
pub fn analyze(
    chiplet: &ChipletNetlist,
    spec: &InterposerSpec,
    match_width_um: Option<f64>,
) -> ChipletReport {
    let bumps = BumpPlan::for_design(chiplet.signal_pins, chiplet.kind, spec);
    let fp = footprint::solve(chiplet, &bumps, spec, match_width_um);
    let fmax = timing::fmax_mhz(chiplet, &fp, spec.kind);
    let wl = wirelength::routed_wirelength_m(chiplet, &fp, spec.kind);
    let pw = power::analyze(chiplet, &fp, spec.kind, calib::TARGET_FREQ_HZ);
    ChipletReport {
        tech: spec.kind,
        chiplet: chiplet.kind.to_string(),
        fmax_mhz: fmax,
        footprint_mm: fp.width_um / 1e3,
        cell_count: chiplet.total_cells(),
        utilization: fp.utilization(),
        wirelength_m: wl,
        power: pw,
        aib_area_um2: chiplet.signal_pins as f64 * calib::AIB_AREA_PER_SIGNAL_UM2,
        bumps,
        footprint: fp,
    }
}

/// Analyses the logic/memory pair for one technology, honouring the
/// stacking footprint-matching rules.
///
/// # Errors
///
/// Returns [`ChipletError::PlacementInfeasible`] when physical design
/// cannot fit the pair (today only reachable through the `chiplet.place`
/// fault site; the analytic models themselves are total).
pub fn analyze_pair(
    logic: &ChipletNetlist,
    memory: &ChipletNetlist,
    tech: InterposerKind,
) -> Result<(ChipletReport, ChipletReport), ChipletError> {
    analyze_pair_with(logic, memory, &InterposerSpec::for_kind(tech))
}

/// [`analyze_pair`] against an explicit (possibly overridden) spec, the
/// form scenario contexts use.
///
/// # Errors
///
/// Returns [`ChipletError::PlacementInfeasible`] when physical design
/// cannot fit the pair (today only reachable through the `chiplet.place`
/// fault site; the analytic models themselves are total).
pub fn analyze_pair_with(
    logic: &ChipletNetlist,
    memory: &ChipletNetlist,
    spec: &InterposerSpec,
) -> Result<(ChipletReport, ChipletReport), ChipletError> {
    if techlib::faults::armed("chiplet.place") {
        // Injected fault: physical design reports an unplaceable die.
        return Err(ChipletError::PlacementInfeasible {
            signals: logic.signal_pins,
            slots: 0,
        });
    }
    let logic_report = analyze(logic, spec, None);
    let matched = match spec.kind {
        InterposerKind::Glass3D | InterposerKind::Silicon3D => {
            Some(logic_report.footprint.width_um)
        }
        _ => None,
    };
    let mem_report = analyze(memory, spec, matched);
    Ok((logic_report, mem_report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::chiplet_netlist::chipletize;
    use netlist::openpiton::two_tile_openpiton;
    use netlist::partition::hierarchical_l3_split;
    use netlist::serdes::SerdesPlan;

    fn netlists() -> (ChipletNetlist, ChipletNetlist) {
        let d = two_tile_openpiton();
        let p = hierarchical_l3_split(&d).unwrap();
        chipletize(&d, &p, &SerdesPlan::paper())
    }

    #[test]
    fn full_table3_row_for_glass() {
        let (logic, mem) = netlists();
        let (rl, rm) = analyze_pair(&logic, &mem, InterposerKind::Glass25D).unwrap();
        assert_eq!(rl.footprint_mm, 0.82);
        assert_eq!(rl.cell_count, 167_495);
        assert!((rl.total_power_mw() - 142.35).abs() / 142.35 < 0.06);
        assert!((rm.total_power_mw() - 46.06).abs() / 46.06 < 0.07);
        assert!((rl.aib_area_um2 - 22_507.0).abs() < 10.0);
        assert!((rm.aib_area_um2 - 17_388.0).abs() < 10.0);
        // AIB ~3.4 % of the logic die.
        assert!((rl.aib_area_fraction() - 0.034).abs() < 0.005);
    }

    #[test]
    fn stacked_pairs_share_footprints() {
        let (logic, mem) = netlists();
        let (rl, rm) = analyze_pair(&logic, &mem, InterposerKind::Glass3D).unwrap();
        assert_eq!(rl.footprint_mm, rm.footprint_mm);
        let (rl, rm) = analyze_pair(&logic, &mem, InterposerKind::Silicon3D).unwrap();
        assert_eq!(rl.footprint_mm, 0.94);
        assert_eq!(rm.footprint_mm, 0.94);
    }

    #[test]
    fn sidebyside_pairs_differ() {
        let (logic, mem) = netlists();
        let (rl, rm) = analyze_pair(&logic, &mem, InterposerKind::Silicon25D).unwrap();
        assert!(rl.footprint_mm > rm.footprint_mm);
    }

    #[test]
    fn all_six_techs_produce_reports() {
        let (logic, mem) = netlists();
        for tech in InterposerKind::PACKAGED {
            let (rl, rm) = analyze_pair(&logic, &mem, tech).unwrap();
            assert!(rl.fmax_mhz > 600.0 && rl.fmax_mhz < 720.0, "{tech}");
            assert!(rm.fmax_mhz > 600.0 && rm.fmax_mhz < 720.0, "{tech}");
            assert!(rl.wirelength_m > rm.wirelength_m, "{tech}");
            assert!(rl.total_power_mw() > rm.total_power_mw(), "{tech}");
        }
    }
}
