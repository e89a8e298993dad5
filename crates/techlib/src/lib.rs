//! Technology library for the glass-interposer chiplet co-design study.
//!
//! This crate encodes everything the paper takes as *inputs*:
//!
//! * [`material`] — bulk electrical and thermal material constants
//!   (copper, ENA1 glass, silicon, organic build-up films, ...).
//! * [`spec`] — the interposer design rules of Table I for all six
//!   packaging technologies (Glass 2.5D/3D, Silicon 2.5D/3D, Shinko, APX).
//! * [`stackup`] — layer-by-layer cross sections built from a spec.
//! * [`via`] / [`bump`] — analytic parasitic models (R/L/C) for microvias,
//!   TGVs, TSVs, mini-TSVs, stacked RDL vias and micro-bumps.
//! * [`cells`] — a TSMC-28nm-like standard-cell population model calibrated
//!   against the paper's chiplet statistics.
//! * [`iodriver`] — the Intel-AIB-style inter-chiplet I/O driver model.
//! * [`calib`] — every calibration constant, with provenance comments.
//!
//! # Example
//!
//! ```
//! use techlib::spec::{InterposerKind, InterposerSpec};
//!
//! let glass = InterposerSpec::for_kind(InterposerKind::Glass3D);
//! assert_eq!(glass.signal_metal_layers, 3);
//! assert!(glass.supports_embedding());
//! ```

pub mod bump;
pub mod calib;
pub mod cancel;
pub mod cells;
pub mod faults;
pub mod iodriver;
pub mod material;
pub mod obs;
pub mod par;
pub mod scope;
pub mod spec;
pub mod stackup;
pub mod store;
pub mod units;
pub mod via;

pub use material::Material;
pub use spec::{InterposerKind, InterposerSpec, RoutingStyle, Stacking};
pub use stackup::{Layer, LayerRole, Stackup};
pub use via::{ViaKind, ViaModel};

/// Errors produced while constructing technology objects.
#[derive(Debug, Clone, PartialEq)]
pub enum TechError {
    /// A geometric parameter was non-positive or otherwise out of range.
    InvalidGeometry {
        /// Name of the offending parameter.
        parameter: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// A stackup was requested with no metal layers.
    EmptyStackup,
    /// A named layer was not found in a stackup.
    UnknownLayer(String),
}

impl std::fmt::Display for TechError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TechError::InvalidGeometry { parameter, value } => {
                write!(f, "invalid geometry: {parameter} = {value}")
            }
            TechError::EmptyStackup => write!(f, "stackup has no metal layers"),
            TechError::UnknownLayer(name) => write!(f, "unknown layer {name:?}"),
        }
    }
}

impl std::error::Error for TechError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_is_nonempty() {
        let e = TechError::InvalidGeometry {
            parameter: "width_um",
            value: -1.0,
        };
        assert!(!e.to_string().is_empty());
        assert!(!TechError::EmptyStackup.to_string().is_empty());
        assert!(!TechError::UnknownLayer("M9".into()).to_string().is_empty());
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TechError>();
    }
}
