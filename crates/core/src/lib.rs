//! End-to-end chiplet/interposer co-design flow (Fig. 4 of the paper).
//!
//! This crate is the facade over the whole study. It wires together:
//!
//! 1. [`netlist`] — the two-tile OpenPiton-like design, hierarchical
//!    partitioning and SerDes insertion;
//! 2. [`chiplet`] — bump planning, footprints, placement, timing, power
//!    (Tables II/III);
//! 3. [`interposer`] — die placement, routing, PDN (Table IV);
//! 4. [`si`] — link delay/power and eye diagrams (Tables V/VI, Fig. 14);
//! 5. [`pi`] — PDN impedance, IR drop, settling (Fig. 15, Table IV);
//! 6. [`thermal`] — steady-state temperatures (Figs. 16–18);
//!
//! and produces the full-chip roll-ups ([`fullchip`]), the headline
//! cross-technology comparison ([`compare`]) and printable tables
//! ([`tables`]).
//!
//! # Example
//!
//! ```no_run
//! use codesign::table5::MonitorLengths;
//! use techlib::spec::InterposerKind;
//!
//! let ctx = codesign::StudyContext::paper();
//! let study = codesign::flow::run_tech_in(&ctx, InterposerKind::Glass3D, MonitorLengths::Routed)?;
//! println!("system power: {:.1} mW", study.fullchip.total_power_mw);
//! # Ok::<(), codesign::FlowError>(())
//! ```

pub mod batch;
pub mod compare;
pub mod context;
pub mod cost;
pub mod exec;
pub mod flow;
pub mod fullchip;
pub mod scenario;
pub mod sensitivity;
pub mod serve;
pub mod table5;
pub mod tables;

pub use context::StudyContext;
pub use flow::{run_scenario, TechStudy};
pub use fullchip::FullChipReport;
pub use scenario::{Scenario, ScenarioOverrides};

/// Errors produced by the end-to-end flow.
///
/// Stage-specific errors fold into the flow-level vocabulary on
/// conversion: a singular MNA system becomes [`FlowError::Singular`], an
/// unroutable net becomes [`FlowError::Unroutable`], a thermal solver
/// that hits its iteration cap becomes [`FlowError::NoConvergence`] —
/// so callers can match on what went wrong without knowing which crate
/// detected it. Everything else keeps its source enum.
#[derive(Debug, Clone, PartialEq)]
pub enum FlowError {
    /// Netlist construction or partitioning failed.
    Netlist(netlist::NetlistError),
    /// Interposer routing failed (other than an unroutable net).
    Route(interposer::RouteError),
    /// Circuit simulation failed (other than a singular system).
    Circuit(circuit::CircuitError),
    /// The monitored channels of a study could not be extracted.
    Extraction {
        /// Description of the problem.
        reason: String,
    },
    /// A linear system was singular.
    Singular {
        /// Pivot index where elimination failed.
        pivot: usize,
    },
    /// An iterative solver hit its iteration cap.
    NoConvergence {
        /// Which stage failed to converge.
        stage: &'static str,
        /// Iterations performed.
        iterations: usize,
    },
    /// A net could not be routed.
    Unroutable {
        /// Net id.
        net: usize,
    },
    /// The flow configuration itself was invalid (bad environment
    /// variable, infeasible placement request, unsupported technology).
    InvalidConfig {
        /// Description of the problem.
        reason: String,
    },
    /// A request deadline expired and the flow abandoned the run at a
    /// stage boundary ([`techlib::cancel`] cooperative cancellation —
    /// the `codesign serve` per-request deadline path).
    Deadline {
        /// The stage boundary where the expiry was observed.
        stage: &'static str,
    },
}

impl std::fmt::Display for FlowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlowError::Netlist(e) => write!(f, "netlist: {e}"),
            FlowError::Route(e) => write!(f, "routing: {e}"),
            FlowError::Circuit(e) => write!(f, "simulation: {e}"),
            FlowError::Extraction { reason } => write!(f, "channel extraction: {reason}"),
            FlowError::Singular { pivot } => {
                write!(f, "singular system at pivot {pivot}")
            }
            FlowError::NoConvergence { stage, iterations } => {
                write!(f, "{stage} did not converge after {iterations} iterations")
            }
            FlowError::Unroutable { net } => write!(f, "net {net} is unroutable"),
            FlowError::InvalidConfig { reason } => {
                write!(f, "invalid configuration: {reason}")
            }
            FlowError::Deadline { stage } => {
                write!(f, "deadline exceeded at {stage}")
            }
        }
    }
}

impl std::error::Error for FlowError {}

impl From<netlist::NetlistError> for FlowError {
    fn from(e: netlist::NetlistError) -> FlowError {
        FlowError::Netlist(e)
    }
}

impl From<interposer::RouteError> for FlowError {
    fn from(e: interposer::RouteError) -> FlowError {
        match e {
            interposer::RouteError::Unroutable { net } => FlowError::Unroutable { net },
            other => FlowError::Route(other),
        }
    }
}

impl From<circuit::CircuitError> for FlowError {
    fn from(e: circuit::CircuitError) -> FlowError {
        match e {
            circuit::CircuitError::SingularMatrix { pivot } => FlowError::Singular { pivot },
            other => FlowError::Circuit(other),
        }
    }
}

impl From<thermal::ThermalError> for FlowError {
    fn from(e: thermal::ThermalError) -> FlowError {
        match e {
            thermal::ThermalError::NoConvergence { iterations, .. } => FlowError::NoConvergence {
                stage: "thermal SOR",
                iterations,
            },
            thermal::ThermalError::UnsupportedTech(_) => FlowError::InvalidConfig {
                reason: e.to_string(),
            },
        }
    }
}

impl From<chiplet::ChipletError> for FlowError {
    fn from(e: chiplet::ChipletError) -> FlowError {
        FlowError::InvalidConfig {
            reason: e.to_string(),
        }
    }
}

impl From<techlib::par::ThreadsConfigError> for FlowError {
    fn from(e: techlib::par::ThreadsConfigError) -> FlowError {
        FlowError::InvalidConfig {
            reason: e.to_string(),
        }
    }
}

impl From<techlib::cancel::DeadlineExceeded> for FlowError {
    fn from(e: techlib::cancel::DeadlineExceeded) -> FlowError {
        FlowError::Deadline { stage: e.stage }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_convert_and_display() {
        let e: FlowError = netlist::NetlistError::EmptySide.into();
        assert!(!e.to_string().is_empty());
        let e: FlowError = interposer::RouteError::Unroutable { net: 1 }.into();
        assert!(e.to_string().contains("net 1"));
        let e: FlowError = circuit::CircuitError::InvalidParameter { parameter: "dt" }.into();
        assert!(e.to_string().contains("dt"));
    }

    #[test]
    fn stage_errors_fold_into_flow_vocabulary() {
        // Singular systems and unroutable nets are promoted to their own
        // flow-level variants; other source errors keep their enum.
        assert_eq!(
            FlowError::from(circuit::CircuitError::SingularMatrix { pivot: 4 }),
            FlowError::Singular { pivot: 4 }
        );
        assert_eq!(
            FlowError::from(interposer::RouteError::Unroutable { net: 7 }),
            FlowError::Unroutable { net: 7 }
        );
        assert!(matches!(
            FlowError::from(interposer::RouteError::NoInterposer(
                techlib::spec::InterposerKind::Silicon3D
            )),
            FlowError::Route(_)
        ));
        let e = FlowError::from(thermal::ThermalError::NoConvergence {
            iterations: 400,
            residual_k: 1.0,
            tolerance_k: 1e-5,
        });
        assert_eq!(
            e,
            FlowError::NoConvergence {
                stage: "thermal SOR",
                iterations: 400
            }
        );
        assert!(e.to_string().contains("400"));
        let e = FlowError::from(chiplet::ChipletError::PlacementInfeasible {
            signals: 9,
            slots: 2,
        });
        assert!(matches!(e, FlowError::InvalidConfig { .. }));
        assert!(e.to_string().contains("infeasible"));
        let e = FlowError::from(techlib::cancel::DeadlineExceeded {
            stage: "stage.route",
        });
        assert_eq!(
            e,
            FlowError::Deadline {
                stage: "stage.route"
            }
        );
        assert_eq!(e.to_string(), "deadline exceeded at stage.route");
    }
}
