#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]
//! Steady-state thermal analysis of the chiplet/interposer assemblies
//! (Section VII-G, Figs. 16–18).
//!
//! * [`model`] — voxelised stack construction per technology: substrate
//!   core (with cavity-embedded dies for Glass 3D and the 4-tier stack for
//!   Silicon 3D), RDL, bump/underfill layer, dies, with via-copper
//!   enhanced effective conductivities and 8×8 power maps per chiplet.
//! * [`solver`] — finite-volume Gauss–Seidel/SOR conduction solver with
//!   convection boundaries (0.1 m/s top-side air; board-cooled bottom).
//! * [`report`] — per-chiplet peak temperatures and interposer hotspot
//!   maps.
//!
//! # Example
//!
//! ```
//! use thermal::report::analyze_with;
//! use techlib::spec::{InterposerKind, InterposerSpec};
//!
//! let r = analyze_with(&InterposerSpec::for_kind(InterposerKind::Glass3D))?;
//! // The embedded memory die is the hottest spot in the study (Fig. 17).
//! assert!(r.mem_peak_c > r.logic_peak_c);
//! # Ok::<(), thermal::ThermalError>(())
//! ```

pub mod model;
pub mod report;
pub mod solver;
pub mod svg;

pub use model::ThermalModel;
pub use report::ThermalReport;

/// Errors produced by thermal model construction and solving.
#[derive(Debug, Clone, PartialEq)]
pub enum ThermalError {
    /// The SOR sweep hit its iteration cap before the max per-sweep
    /// update dropped below tolerance.
    NoConvergence {
        /// Iterations performed (the configured cap).
        iterations: usize,
        /// Max per-sweep temperature update at the last iteration, K.
        residual_k: f64,
        /// The convergence threshold that was not met, K.
        tolerance_k: f64,
    },
    /// The technology has no thermal model (monolithic baseline).
    UnsupportedTech(techlib::spec::InterposerKind),
}

impl std::fmt::Display for ThermalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ThermalError::NoConvergence {
                iterations,
                residual_k,
                tolerance_k,
            } => write!(
                f,
                "SOR did not converge after {iterations} iterations \
                 (residual {residual_k:.3e} K, tolerance {tolerance_k:.3e} K)"
            ),
            ThermalError::UnsupportedTech(tech) => {
                write!(f, "{tech} is not in the thermal study")
            }
        }
    }
}

impl std::error::Error for ThermalError {}

/// Ambient temperature of the study, °C.
pub const AMBIENT_C: f64 = 20.0;

/// Top-side convection coefficient at 0.1 m/s airflow, W/(m²·K).
pub const H_TOP_W_M2K: f64 = 15.0;

/// Effective bottom-side coefficient, W/(m²·K): the ball field into the
/// motherboard. Secondary to the die-top enclosure path in the paper's
/// setup (no active cooling, tiny ball contact area).
pub const H_BOTTOM_W_M2K: f64 = 200.0;

/// Effective coefficient over exposed die backs, W/(m²·K) — the
/// enclosure/case cooling path of the paper's IcePak model ("the logic
/// chiplet ... dissipates into the ambient air", Section VII-G).
///
/// Provenance: calibrated once so 2.5D logic chiplets land in Fig. 17's
/// 27–29 °C band at 142 mW.
pub const H_TOP_DIE_W_M2K: f64 = 25_000.0;
