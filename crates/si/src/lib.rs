#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]
//! Signal-integrity analysis (Section VII, Tables V/VI, Fig. 14).
//!
//! * [`rlgc`] — analytic per-unit-length RLGC extraction from each
//!   technology's stackup (the HyperLynx step of the paper's flow).
//! * [`link`] — end-to-end inter-chiplet link simulation: AIB TX →
//!   micro-bump → channel (RDL trace, stacked-via column, micro-bump, or
//!   back-to-back mini-TSV) → micro-bump → AIB RX, measuring propagation
//!   delay and power (Table V).
//! * [`eye`] — PRBS-7 eye diagrams with two switching aggressors at
//!   0.7 Gbps (Fig. 14), reporting eye width and height.
//! * [`material_study`] — the fixed-length (400 µm) material comparison of
//!   Table VI.

pub mod eye;
pub mod link;
pub mod material_study;
pub mod rlgc;
pub mod sparams;

pub use eye::EyeReport;
pub use link::{ChannelKind, LinkReport};

#[cfg(test)]
mod tests {
    #[test]
    fn modules_are_wired() {
        // Compile-time smoke check that the public API is reachable.
        let spec = techlib::spec::InterposerSpec::for_kind(techlib::spec::InterposerKind::Glass25D);
        let line = crate::rlgc::extract_line(&spec, 1e-3);
        assert!(line.c_per_m > 0.0);
    }
}
