//! PDN impedance profiles (Fig. 15) and the Table IV impedance figure.

use crate::pdn_model::{impedance_at, Excitation, PdnCircuit};
use circuit::CircuitError;
use serde::Serialize;
use techlib::spec::{InterposerKind, InterposerSpec};

/// Frequency range of the paper's sweep: 10⁶–10⁹ Hz.
pub const F_START_HZ: f64 = 1e6;
/// Upper sweep bound.
pub const F_STOP_HZ: f64 = 1e9;

/// An impedance-vs-frequency profile.
#[derive(Debug, Clone, Serialize)]
pub struct ImpedanceProfile {
    /// Technology.
    pub tech: InterposerKind,
    /// (frequency Hz, |Z| Ω) points, log-spaced.
    pub points: Vec<(f64, f64)>,
}

impl ImpedanceProfile {
    /// Sweeps the PDN of `spec` over the paper's range.
    ///
    /// # Errors
    ///
    /// Propagates solver failures.
    pub fn sweep(spec: &InterposerSpec, points: usize) -> Result<ImpedanceProfile, CircuitError> {
        let model = PdnCircuit::build(spec, Excitation::AcProbe);
        let ratio = (F_STOP_HZ / F_START_HZ).ln();
        let mut out = Vec::with_capacity(points);
        for i in 0..points {
            let f = F_START_HZ * (ratio * i as f64 / (points - 1) as f64).exp();
            out.push((f, impedance_at(&model, f)?));
        }
        Ok(ImpedanceProfile {
            tech: spec.kind,
            points: out,
        })
    }

    /// Peak impedance over the sweep, Ω — the Table IV "PDN impedance".
    pub fn peak_ohm(&self) -> f64 {
        self.points.iter().map(|&(_, z)| z).fold(0.0, f64::max)
    }

    /// Impedance at (closest point to) `freq_hz`, Ω.
    pub fn at(&self, freq_hz: f64) -> f64 {
        self.points
            .iter()
            .min_by(|a, b| (a.0 - freq_hz).abs().total_cmp(&(b.0 - freq_hz).abs()))
            .map(|&(_, z)| z)
            .unwrap_or(f64::NAN)
    }
}

/// Sweeps every spec in `specs` (the six packaged technologies make the
/// Fig. 15 family).
///
/// # Errors
///
/// Propagates per-technology failures.
pub fn figure15(
    specs: &[InterposerSpec],
    points: usize,
) -> Result<Vec<ImpedanceProfile>, CircuitError> {
    specs
        .iter()
        .map(|spec| ImpedanceProfile::sweep(spec, points))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_sweep(tech: InterposerKind, points: usize) -> ImpedanceProfile {
        ImpedanceProfile::sweep(&InterposerSpec::for_kind(tech), points).unwrap()
    }

    fn peak(tech: InterposerKind) -> f64 {
        paper_sweep(tech, 61).peak_ohm()
    }

    #[test]
    fn glass_3d_has_lowest_peak_impedance() {
        // Table IV: 0.97 Ω, ~10x below everything else.
        let g3 = peak(InterposerKind::Glass3D);
        for other in [
            InterposerKind::Glass25D,
            InterposerKind::Silicon25D,
            InterposerKind::Shinko,
            InterposerKind::Apx,
        ] {
            assert!(g3 < peak(other) / 3.0, "{other}: g3 = {g3}");
        }
        assert!((0.3..4.0).contains(&g3), "g3 = {g3}");
    }

    #[test]
    fn impedance_ordering_matches_table4() {
        // Glass 3D (0.97) < Silicon (7.4) < Glass 2.5D (20.7) <
        // APX (58) < Shinko (180).
        let g3 = peak(InterposerKind::Glass3D);
        let si = peak(InterposerKind::Silicon25D);
        let g25 = peak(InterposerKind::Glass25D);
        let apx = peak(InterposerKind::Apx);
        let sh = peak(InterposerKind::Shinko);
        assert!(
            g3 < si && si < g25 && g25 < apx && apx < sh,
            "g3={g3:.2} si={si:.2} g25={g25:.2} apx={apx:.2} sh={sh:.2}"
        );
    }

    #[test]
    fn peaks_are_in_paper_decade() {
        let si = peak(InterposerKind::Silicon25D);
        let sh = peak(InterposerKind::Shinko);
        assert!((2.0..30.0).contains(&si), "si = {si}");
        assert!((25.0..500.0).contains(&sh), "sh = {sh}");
    }

    #[test]
    fn low_frequency_impedance_is_resistive_milliohms() {
        let p = paper_sweep(InterposerKind::Glass25D, 31);
        // At 1 MHz the bulk cap and VRM dominate: well below 1 Ω.
        assert!(p.at(1e6) < 1.0, "{}", p.at(1e6));
    }

    #[test]
    fn profile_is_log_spaced_over_the_paper_range() {
        let p = paper_sweep(InterposerKind::Apx, 31);
        assert_eq!(p.points.len(), 31);
        assert!((p.points[0].0 - 1e6).abs() < 1.0);
        assert!((p.points[30].0 - 1e9).abs() / 1e9 < 1e-9);
    }

    #[test]
    fn dielectric_constant_override_changes_the_profile() {
        // The PDN follows the spec it is given, not the paper default:
        // a denser dielectric raises the plane-pair capacitance.
        let paper = InterposerSpec::for_kind(InterposerKind::Glass25D);
        let mut denser = paper.clone();
        denser.dielectric_constant *= 2.0;
        let a = ImpedanceProfile::sweep(&paper, 31).unwrap();
        let b = ImpedanceProfile::sweep(&denser, 31).unwrap();
        assert_eq!(a.tech, b.tech);
        assert_ne!(a.points, b.points);
    }
}
