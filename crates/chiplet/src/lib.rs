#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]
//! Chiplet physical design for the co-design flow.
//!
//! Given a [`netlist::ChipletNetlist`] and a packaging technology, this
//! crate performs what Cadence Innovus/Tempus do in the paper:
//!
//! * [`bumpmap`] — micro-bump assignment following the 2×4 unit pattern
//!   (6 signal + 2 P/G), with per-bump coordinates for the interposer
//!   router (Table II bump counts).
//! * [`footprint`] — the footprint solver: a die is either bump-limited
//!   (array side × pitch) or cell-area-limited (utilisation cap), and
//!   stacked configurations force matched footprints (Table II areas).
//! * [`wirelength`] — the congestion-aware routed-wirelength model
//!   (Table III wirelength, including the glass small-die detour effect).
//! * [`timing`] — STA-lite achieved-frequency model (Table III Fmax).
//! * [`power`] — internal/switching/leakage decomposition (Table III).
//! * [`report`] — one-call [`report::analyze`] producing a Table III row.
//!
//! # Example
//!
//! ```
//! use netlist::openpiton::two_tile_openpiton;
//! use netlist::partition::hierarchical_l3_split;
//! use netlist::serdes::SerdesPlan;
//! use netlist::chiplet_netlist::chipletize;
//! use techlib::spec::{InterposerKind, InterposerSpec};
//!
//! let design = two_tile_openpiton();
//! let split = hierarchical_l3_split(&design)?;
//! let (logic, _mem) = chipletize(&design, &split, &SerdesPlan::paper());
//! let spec = InterposerSpec::for_kind(InterposerKind::Glass25D);
//! let report = chiplet::report::analyze(&logic, &spec, None);
//! assert!((report.footprint_mm - 0.82).abs() < 0.01);
//! # Ok::<(), netlist::NetlistError>(())
//! ```

pub mod bumpmap;
pub mod footprint;
pub mod power;
pub mod report;
pub mod timing;
pub mod wirelength;

pub use bumpmap::{BumpPlan, BumpRole};
pub use footprint::FootprintPlan;
pub use report::ChipletReport;

/// Errors produced by chiplet physical design.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChipletError {
    /// Physical design could not fit the logic/memory pair on its dies
    /// (today raised only by the `chiplet.place` fault site).
    PlacementInfeasible {
        /// Signal bumps needing AIB macros.
        signals: usize,
        /// Legal macro slots available on the die.
        slots: usize,
    },
}

impl std::fmt::Display for ChipletError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChipletError::PlacementInfeasible { signals, slots } => write!(
                f,
                "macro placement infeasible: {signals} signal macros but only {slots} slots"
            ),
        }
    }
}

impl std::error::Error for ChipletError {}
