//! PDN ladder construction.
//!
//! The supply loop, from regulator to die:
//!
//! ```text
//! VRM (V, R, L) ── board/ball (R, L) ── package escape (R, L)
//!     ── power-entry via array (TGV/TSV/PTH, R/n, L/n)
//!     ── plane pair (series R, L; shunt C)
//!     ── micro-bump field (R/n, L/n) ── die node (decap ‖ load)
//! ```
//!
//! Every element except the *package escape inductance* comes from the
//! geometry in [`techlib`] and the interposer's [`interposer::pdn`] plan.
//! The escape inductance — the current loop from the ball field to the
//! power-entry vias, which depends on board/package routing the paper
//! does not describe — is a calibrated per-technology constant (fitted
//! once to the Table IV PDN impedance column and held fixed; see
//! [`escape_inductance_h`]).

use circuit::netlist::{Circuit, NodeId, Waveform};
use circuit::CircuitError;
use interposer::diemap;
use interposer::pdn::PdnPlan;
use serde::Serialize;
use techlib::bump::BumpModel;
use techlib::calib;
use techlib::spec::{InterposerKind, InterposerSpec, Stacking};

/// VRM series resistance, Ω.
pub const VRM_R_OHM: f64 = 0.25;
/// VRM effective output inductance, H.
pub const VRM_L_H: f64 = 100e-9;
/// Board + ball-field series resistance up to the package, Ω.
pub const BOARD_R_OHM: f64 = 0.033;

/// Squares of power plane the supply current crosses from its entry vias
/// to the die shadow. Side-by-side interposers feed from peripheral
/// TGV/TSV/PTH fields (≈3 squares); the Glass 3D RDL feeds the embedded
/// die almost directly.
pub fn plane_squares(tech: InterposerKind) -> f64 {
    match tech {
        InterposerKind::Glass3D => 1.0,
        _ => 2.0,
    }
}
/// Board + ball-field inductance, H.
pub const BOARD_L_H: f64 = 60e-12;
/// Bulk decoupling at the regulator output, F.
pub const BULK_C_F: f64 = 4.7e-6;
/// On-die decap per chiplet system (4 chiplets of 28nm logic), F.
pub const DIE_DECAP_F: f64 = 2e-9;
/// Effective series resistance of the on-die decap, Ω.
pub const DIE_DECAP_ESR_OHM: f64 = 0.05;

/// Package escape inductance, H — the current-loop term between the ball
/// field and the power-entry vias.
///
/// Provenance: fitted once against Table IV's PDN impedance column
/// (0.97 Ω Glass 3D … 180 Ω Shinko); the *ordering* is physical — it
/// tracks how far the supply loop runs before reaching the planes
/// (embedded-die RDL ≪ silicon TSV field < glass peripheral TGV ring <
/// organic core PTH paths).
pub fn escape_inductance_h(tech: InterposerKind) -> f64 {
    match tech {
        InterposerKind::Glass3D => 0.12e-9,
        InterposerKind::Silicon25D | InterposerKind::Silicon3D => 1.0e-9,
        InterposerKind::Glass25D => 3.0e-9,
        InterposerKind::Apx => 8.5e-9,
        InterposerKind::Shinko => 27e-9,
        InterposerKind::Monolithic2D => 0.5e-9,
    }
}

/// A built PDN circuit with its probe points.
#[derive(Debug, Clone)]
pub struct PdnCircuit {
    /// The netlist.
    pub circuit: Circuit,
    /// The die supply node.
    pub die_node: NodeId,
    /// Element index of the VRM source.
    pub vrm_source: usize,
    /// Technology.
    pub tech: InterposerKind,
    /// Total die current at full activity, A.
    die_load_a: f64,
}

/// What the PDN drives and probes at the die.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Excitation {
    /// 1 A AC current injection (for impedance profiles); VRM shorted.
    AcProbe,
    /// DC load draw (for IR drop).
    DcLoad,
    /// 125 MHz square switching current (for settling/droop).
    SwitchingLoad,
}

impl PdnCircuit {
    /// Builds the PDN for `spec` with the chosen excitation. The plan
    /// needs only die placement: it is the same [`PdnPlan`] that
    /// [`interposer::report::place_and_route_with`] attaches to the
    /// routed layout, so nothing is routed here.
    pub fn build(spec: &InterposerSpec, excitation: Excitation) -> PdnCircuit {
        let tech = spec.kind;
        let plan = match spec.stacking {
            // No interposer: power enters the stack through the base
            // die's TSV field. Model the plan directly.
            Stacking::TsvStack => PdnPlan::generate_with(spec, (940.0, 940.0)),
            Stacking::Monolithic => PdnPlan::generate_with(spec, (1600.0, 1600.0)),
            Stacking::SideBySide | Stacking::Embedded => {
                PdnPlan::generate_with(spec, diemap::place_dies_with(spec).footprint_um)
            }
        };
        // Total chiplet current: 2 × (logic + memory) at VDD.
        let die_load_a = 2.0 * (142e-3 + 46e-3) / calib::VDD;

        let mut c = Circuit::new();
        let vrm_out = c.node("vrm_out");
        let board = c.node("board");
        let entry = c.node("pkg_entry");
        let plane = c.node("plane");
        let die = c.node("die");

        // VRM.
        let vrm_wave = match excitation {
            Excitation::AcProbe => Waveform::Dc(0.0), // shorted for AC
            _ => Waveform::Dc(calib::VDD),
        };
        let vrm_int = c.node("vrm_int");
        c.vsource(vrm_int, Circuit::GND, vrm_wave);
        let vrm_source = c.elements().len() - 1;
        c.resistor(vrm_int, vrm_out, VRM_R_OHM);
        c.inductor(vrm_out, board, VRM_L_H);
        c.capacitor(board, Circuit::GND, BULK_C_F);

        // Board + escape.
        c.resistor(board, entry, BOARD_R_OHM);
        c.inductor(entry, plane, BOARD_L_H + escape_inductance_h(tech));

        // Power-entry via array (half the vias carry power), in series
        // ahead of the planes: board → TGV/TSV/PTH → planes → bumps.
        let n_pwr = (plan.via_count / 2).max(2);
        let via = plan.via_model.parallel(n_pwr);
        let via_mid = c.node("via_mid");
        let plane_far = c.node("plane_far");
        c.resistor(plane, via_mid, via.resistance_ohm.max(1e-5));
        c.inductor(via_mid, plane_far, via.inductance_h.max(1e-14));

        // Plane pair: shunt C where the vias land; the spreading
        // resistance (sheet resistance × squares crossed) carries the
        // current from the entry field to the die shadow, then through
        // the micro-bump field.
        c.capacitor(plane_far, Circuit::GND, plan.plane_pair_capacitance_f());
        c.resistor(
            plane_far,
            die,
            plan.plane_sheet_resistance().max(1e-5) * plane_squares(tech) + bump_field_r(spec),
        );

        // Die decap with ESR.
        let decap = c.node("decap");
        c.resistor(die, decap, DIE_DECAP_ESR_OHM);
        c.capacitor(decap, Circuit::GND, DIE_DECAP_F);

        // Excitation at the die.
        match excitation {
            Excitation::AcProbe => {
                c.isource(Circuit::GND, die, Waveform::Dc(1.0));
            }
            Excitation::DcLoad => {
                c.isource(die, Circuit::GND, Waveform::Dc(die_load_a));
            }
            Excitation::SwitchingLoad => {
                // 125 MHz square between 20 % (idle) and 100 % activity.
                let period = 1.0 / 125e6;
                c.isource(
                    die,
                    Circuit::GND,
                    Waveform::Pulse {
                        v0: 0.2 * die_load_a,
                        v1: die_load_a,
                        delay: 0.0,
                        rise: period / 20.0,
                        fall: period / 20.0,
                        width: period / 2.0 - period / 20.0,
                        period,
                    },
                );
            }
        }

        PdnCircuit {
            circuit: c,
            die_node: die,
            vrm_source,
            tech,
            die_load_a,
        }
    }

    /// Total die current at full activity, A.
    pub fn die_load_a(&self) -> f64 {
        self.die_load_a
    }
}

/// Series resistance of the P/G micro-bump field.
fn bump_field_r(spec: &InterposerSpec) -> f64 {
    if spec.microbump_pitch_um <= 0.0 {
        return 1e-4;
    }
    let bump = BumpModel::microbump(spec);
    // ~300 P/G bumps across the four chiplets carry power.
    bump.parallel(300).resistance_ohm.max(1e-5)
}

/// Solves the AC impedance at the die node at one frequency, Ω.
///
/// # Errors
///
/// Propagates solver failures.
pub fn impedance_at(model: &PdnCircuit, freq_hz: f64) -> Result<f64, CircuitError> {
    let sol = circuit::ac::solve_at(&model.circuit, freq_hz)?;
    Ok(sol.voltage(model.die_node).abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe(tech: InterposerKind) -> PdnCircuit {
        PdnCircuit::build(&InterposerSpec::for_kind(tech), Excitation::AcProbe)
    }

    #[test]
    fn all_technologies_build() {
        for tech in InterposerKind::PACKAGED {
            let m = probe(tech);
            assert!(m.circuit.node_count() > 5, "{tech}");
        }
    }

    #[test]
    fn impedance_is_positive_and_finite() {
        let m = probe(InterposerKind::Glass25D);
        for f in [1e6, 1e7, 1e8, 1e9] {
            let z = impedance_at(&m, f).unwrap();
            assert!(z > 0.0 && z.is_finite(), "f = {f}: z = {z}");
        }
    }

    #[test]
    fn escape_inductance_ordering_is_physical() {
        assert!(
            escape_inductance_h(InterposerKind::Glass3D)
                < escape_inductance_h(InterposerKind::Silicon25D)
        );
        assert!(
            escape_inductance_h(InterposerKind::Silicon25D)
                < escape_inductance_h(InterposerKind::Glass25D)
        );
        assert!(
            escape_inductance_h(InterposerKind::Glass25D)
                < escape_inductance_h(InterposerKind::Apx)
        );
        assert!(
            escape_inductance_h(InterposerKind::Apx) < escape_inductance_h(InterposerKind::Shinko)
        );
    }

    #[test]
    fn die_decap_tames_high_frequency_impedance() {
        // Ablation: without the on-die decap, the die node would see the
        // raw escape inductance at high frequency; the ladder must stay
        // well below that bound.
        let full = probe(InterposerKind::Glass25D);
        let z_with = impedance_at(&full, 4e8).unwrap();
        let l = escape_inductance_h(InterposerKind::Glass25D);
        let z_bare = 2.0 * std::f64::consts::PI * 4e8 * l;
        assert!(z_with < z_bare / 2.0, "{z_with} vs bare-L bound {z_bare}");
    }

    #[test]
    fn die_load_matches_chiplet_budget() {
        let m = probe(InterposerKind::Glass3D);
        // 2 × (142 + 46) mW at 0.9 V ≈ 0.42 A.
        assert!((m.die_load_a() - 0.417).abs() < 0.01);
    }
}
