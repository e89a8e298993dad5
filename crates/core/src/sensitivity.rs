//! Sensitivity analysis — the "optimization opportunities" the paper's
//! conclusion points at, quantified by sweeping one technology parameter
//! at a time around the glass design point.
//!
//! Every sweep takes an explicit [`StudyContext`] and reads its shared
//! front-end artifacts (the seed implementation re-derived the netlist →
//! split → chipletize chain from scratch inside each sweep call); two
//! sweeps sharing a context therefore share a single hierarchical split.
//! The sweeps perturb a *copy* of the context's resolved spec at each
//! point — the context's store sees only its canonical specs.

use crate::context::StudyContext;
use crate::FlowError;
use chiplet::bumpmap::BumpPlan;
use interposer::grid::RoutingGrid;
use interposer::router::base_blockage;
use serde::Serialize;
use techlib::spec::InterposerKind;

/// One sweep point.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct SweepPoint {
    /// The swept parameter's value.
    pub x: f64,
    /// The responding metric's value.
    pub y: f64,
}

/// Glass logic-die width (µm) versus micro-bump pitch (µm).
///
/// Shows where the die flips from bump-limited to cell-area-limited —
/// the pitch below which further bump scaling stops paying.
///
/// # Errors
///
/// Propagates partitioning failures.
pub fn footprint_vs_bump_pitch(
    ctx: &StudyContext,
    pitches_um: &[f64],
) -> Result<Vec<SweepPoint>, FlowError> {
    let netlists = ctx.chiplet_netlists()?;
    let (logic, _) = &*netlists;
    pitches_um
        .iter()
        .map(|&pitch| {
            let mut spec = ctx.spec(InterposerKind::Glass25D).clone();
            spec.microbump_pitch_um = pitch;
            let bumps = BumpPlan::for_design(logic.signal_pins, logic.kind, &spec);
            let fp = chiplet::footprint::solve(logic, &bumps, &spec, None);
            Ok(SweepPoint {
                x: pitch,
                y: fp.width_um,
            })
        })
        .collect()
}

/// Glass logic-die cell utilization (fraction) versus micro-bump pitch
/// (µm). The flip side of [`footprint_vs_bump_pitch`]: as coarser bumps
/// force a bigger die, the standard-cell area stays put and utilization
/// collapses — silicon paid for bump real estate.
///
/// # Errors
///
/// Propagates partitioning failures.
pub fn utilization_vs_bump_pitch(
    ctx: &StudyContext,
    pitches_um: &[f64],
) -> Result<Vec<SweepPoint>, FlowError> {
    let netlists = ctx.chiplet_netlists()?;
    let (logic, _) = &*netlists;
    pitches_um
        .iter()
        .map(|&pitch| {
            let mut spec = ctx.spec(InterposerKind::Glass25D).clone();
            spec.microbump_pitch_um = pitch;
            let bumps = BumpPlan::for_design(logic.signal_pins, logic.kind, &spec);
            let fp = chiplet::footprint::solve(logic, &bumps, &spec, None);
            Ok(SweepPoint {
                x: pitch,
                y: fp.utilization(),
            })
        })
        .collect()
}

/// Glass interconnect Elmore delay at the AIB's 10 mm maximum reach
/// (ps) versus RDL metal
/// thickness (µm), holding the glass stack's 2:1 thickness-to-spacing
/// aspect ratio (scaling thickness at fixed spacing would trade the R
/// win for a lateral-coupling C penalty). Thicker copper buys delay —
/// the glass technology's core electrical advantage (Table VI).
pub fn delay_vs_metal_thickness(ctx: &StudyContext, thicknesses_um: &[f64]) -> Vec<SweepPoint> {
    thicknesses_um
        .iter()
        .map(|&t| {
            let mut spec = ctx.spec(InterposerKind::Glass25D).clone();
            spec.metal_thickness_um = t;
            spec.min_wire_space_um = t / 2.0;
            let line = si::rlgc::extract_line(&spec, 10e-3);
            SweepPoint {
                x: t,
                y: line.elmore_delay(47.4, 55e-15) * 1e12,
            }
        })
        .collect()
}

/// Fraction of glass routing gcell-layers blocked before any signal is
/// routed, versus via diameter (µm). The 22 µm via is the root cause of
/// the glass detour effect; this sweep shows how much smaller vias would
/// relieve it.
///
/// # Errors
///
/// [`FlowError::Route`] if a swept via size produces a degenerate
/// routing grid.
pub fn blockage_vs_via_size(
    ctx: &StudyContext,
    via_sizes_um: &[f64],
) -> Result<Vec<SweepPoint>, FlowError> {
    let placement = interposer::diemap::place_dies_with(ctx.spec(InterposerKind::Glass25D));
    via_sizes_um
        .iter()
        .map(|&v| {
            let mut spec = ctx.spec(InterposerKind::Glass25D).clone();
            spec.via_size_um = v;
            let grid = RoutingGrid::new(placement.footprint_um, &spec)
                .map_err(|reason| interposer::RouteError::BadGrid { reason })?;
            let base = base_blockage(&placement, &grid);
            let blocked = base.iter().filter(|&&u| u >= grid.capacity).count();
            Ok(SweepPoint {
                x: v,
                y: blocked as f64 / base.len() as f64,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn footprint_shrinks_with_pitch_until_cell_limited() {
        let ctx = StudyContext::paper();
        let points = footprint_vs_bump_pitch(&ctx, &[15.0, 25.0, 35.0, 45.0, 55.0]).unwrap();
        // Monotone non-decreasing in pitch.
        for w in points.windows(2) {
            assert!(w[1].y >= w[0].y, "{points:?}");
        }
        // At tiny pitch the cell-area limit takes over: width saturates.
        let tiny = footprint_vs_bump_pitch(&ctx, &[5.0, 10.0]).unwrap();
        assert_eq!(tiny[0].y, tiny[1].y, "cell-limited floor");
    }

    #[test]
    fn coarser_bumps_waste_utilization() {
        let ctx = StudyContext::paper();
        let points = utilization_vs_bump_pitch(&ctx, &[35.0, 45.0, 55.0, 70.0]).unwrap();
        for w in points.windows(2) {
            assert!(w[1].y <= w[0].y, "{points:?}");
        }
        for p in &points {
            assert!(p.y > 0.0 && p.y <= 1.0, "{points:?}");
        }
    }

    #[test]
    fn sweeps_sharing_a_context_share_one_split() {
        // The seed implementation re-partitioned inside every sweep call;
        // now two different sweeps on one context run exactly one
        // hierarchical split (and one chipletization) between them.
        let ctx = StudyContext::paper();
        footprint_vs_bump_pitch(&ctx, &[25.0, 35.0, 45.0]).unwrap();
        utilization_vs_bump_pitch(&ctx, &[25.0, 35.0, 45.0]).unwrap();
        let counts = ctx.compute_counts();
        assert_eq!(counts.split, 1, "{counts:?}");
        assert_eq!(counts.netlists, 1, "{counts:?}");
    }

    #[test]
    fn thicker_metal_is_faster() {
        let ctx = StudyContext::paper();
        let points = delay_vs_metal_thickness(&ctx, &[1.0, 2.0, 4.0, 8.0]);
        for w in points.windows(2) {
            assert!(w[1].y < w[0].y, "{points:?}");
        }
    }

    #[test]
    fn smaller_vias_unblock_the_grid() {
        let ctx = StudyContext::paper();
        let points = blockage_vs_via_size(&ctx, &[4.0, 10.0, 22.0, 30.0]).unwrap();
        for w in points.windows(2) {
            assert!(w[1].y >= w[0].y, "{points:?}");
        }
        // The paper's 22 µm point blocks a meaningful fraction.
        let at22 = points.iter().find(|p| p.x == 22.0).unwrap();
        assert!(at22.y > 0.01, "{}", at22.y);
    }
}
