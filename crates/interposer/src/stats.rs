//! Table IV routing statistics.

use crate::diemap::{DiePlacement, NetClass};
use crate::router::RoutedNet;
use serde::{Deserialize, Serialize};
use techlib::spec::{InterposerKind, InterposerSpec};
use techlib::via::stacked_via_column;

/// The routing statistics row of Table IV for one interposer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RoutingStats {
    /// Technology.
    pub tech: InterposerKind,
    /// Signal metal layers actually used by routing.
    pub signal_layers_used: usize,
    /// Dedicated P/G plane layers (always 2).
    pub pg_layers: usize,
    /// Total lateral wirelength, mm.
    pub total_wl_mm: f64,
    /// Minimum net wirelength, mm.
    pub min_wl_mm: f64,
    /// Average net wirelength, mm.
    pub avg_wl_mm: f64,
    /// Maximum net wirelength, mm.
    pub max_wl_mm: f64,
    /// Signal via count (routing vias + bump microvias).
    pub signal_vias: usize,
    /// Stacked-via columns (Glass 3D intra-tile connections).
    pub stacked_via_columns: usize,
    /// Vias inside the stacked columns.
    pub stacked_vias: usize,
    /// Interposer footprint, mm.
    pub footprint_mm: (f64, f64),
    /// Interposer area, mm².
    pub area_mm2: f64,
}

impl RoutingStats {
    /// Builds the statistics from a placement and its routed nets.
    pub fn from_routing(placement: &DiePlacement, routed: &[RoutedNet]) -> RoutingStats {
        let lengths_mm: Vec<f64> = routed.iter().map(|n| n.length_um / 1e3).collect();
        let total: f64 = lengths_mm.iter().sum();
        let min = lengths_mm.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = lengths_mm.iter().cloned().fold(0.0, f64::max);
        let avg = if lengths_mm.is_empty() {
            0.0
        } else {
            total / lengths_mm.len() as f64
        };
        let stacked_columns = placement
            .nets
            .iter()
            .filter(|n| n.class == NetClass::IntraTileStackedVia)
            .count();
        let spec = InterposerSpec::for_kind(placement.tech);
        // Each stacked column descends through the build-up to the
        // embedded die: one via per metal level plus the landing via.
        let levels = 2;
        let (_, _, _, _col_len) = stacked_via_column(&spec, levels);
        RoutingStats {
            tech: placement.tech,
            signal_layers_used: routed.iter().map(|n| n.max_layer + 1).max().unwrap_or(0),
            pg_layers: 2,
            total_wl_mm: total,
            min_wl_mm: if min.is_finite() { min } else { 0.0 },
            avg_wl_mm: avg,
            max_wl_mm: max,
            signal_vias: routed.iter().map(|n| n.vias).sum(),
            stacked_via_columns: stacked_columns,
            stacked_vias: stacked_columns * levels,
            footprint_mm: (
                placement.footprint_um.0 / 1e3,
                placement.footprint_um.1 / 1e3,
            ),
            area_mm2: placement.area_mm2(),
        }
    }

    /// Total metal layers used (signal + P/G), the Table IV "metal layer
    /// used" entry.
    pub fn metal_layers_used(&self) -> usize {
        self.signal_layers_used + self.pg_layers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    fn stats(tech: InterposerKind) -> RoutingStats {
        crate::report::test_layout(tech).stats.clone()
    }

    #[test]
    fn glass_3d_wl_is_far_below_25d() {
        let g3 = stats(InterposerKind::Glass3D);
        let g25 = stats(InterposerKind::Glass25D);
        // Table IV: 29.69 mm vs 924 mm (only 68 lateral nets vs 530).
        assert!(g3.total_wl_mm * 5.0 < g25.total_wl_mm);
        assert_eq!(g3.stacked_via_columns, 462);
    }

    #[test]
    fn min_avg_max_are_ordered() {
        for tech in InterposerKind::INTERPOSER_BASED {
            let s = stats(tech);
            assert!(s.min_wl_mm <= s.avg_wl_mm, "{tech}");
            assert!(s.avg_wl_mm <= s.max_wl_mm, "{tech}");
            assert!(s.total_wl_mm >= s.max_wl_mm, "{tech}");
        }
    }

    #[test]
    fn glass_3d_uses_fewest_metal_layers() {
        let g3 = stats(InterposerKind::Glass3D);
        for other in [
            InterposerKind::Glass25D,
            InterposerKind::Silicon25D,
            InterposerKind::Shinko,
            InterposerKind::Apx,
        ] {
            assert!(
                g3.metal_layers_used() <= stats(other).metal_layers_used(),
                "{other}"
            );
        }
        // Table IV: 1 + 2 for Glass 3D.
        assert!(g3.metal_layers_used() <= 4);
    }

    #[test]
    fn area_matches_placement() {
        let s = stats(InterposerKind::Apx);
        assert!((s.area_mm2 - 8.64).abs() < 0.3);
        assert!((s.footprint_mm.0 - 3.2).abs() < 0.1);
    }
}

#[cfg(test)]
mod diag {
    use super::*;
    #[test]
    fn print_all_stats() {
        for tech in InterposerKind::INTERPOSER_BASED {
            let s = crate::report::test_layout(tech).stats.clone();
            eprintln!(
                "{tech}: layers {}+2 wl total {:.1} min {:.3} avg {:.3} max {:.3} vias {} area {:.2}",
                s.signal_layers_used, s.total_wl_mm, s.min_wl_mm, s.avg_wl_mm, s.max_wl_mm,
                s.signal_vias, s.area_mm2
            );
        }
    }
}
