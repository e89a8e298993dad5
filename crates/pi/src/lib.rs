#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]
//! Power-integrity analysis (Section VII-D, Fig. 15, Table IV).
//!
//! * [`pdn_model`] — the PDN ladder for each technology: VRM and board,
//!   package power-entry vias (TGV/TSV/PTH), plane pair, micro-bump field
//!   and on-die decap, built as a [`circuit`] netlist.
//! * [`impedance`] — AC impedance profiles 1 MHz–1 GHz seen from the die
//!   (Fig. 15) and the peak impedance figure Table IV quotes.
//! * [`transient`] — DC IR drop and the 125 MHz load-step settling time.

pub mod impedance;
pub mod pdn_model;
pub mod transient;

pub use impedance::ImpedanceProfile;
pub use pdn_model::PdnCircuit;
pub use transient::TransientReport;

#[cfg(test)]
mod tests {
    #[test]
    fn modules_are_wired() {
        let spec = techlib::spec::InterposerSpec::for_kind(techlib::spec::InterposerKind::Glass3D);
        let m = crate::pdn_model::PdnCircuit::build(&spec, crate::pdn_model::Excitation::AcProbe);
        assert!(m.die_load_a() > 0.0);
    }
}
