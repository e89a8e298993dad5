//! Packaging cost model (the paper's cost discussion, quantified).
//!
//! The paper argues glass interposers are the *cost-effective* route to
//! 3D stacking: glass processes on large panels (≈510×515 mm) rather than
//! 300 mm wafers, needs no TSV-middle process for 2.5D routing, and the
//! 5.5D configuration avoids the substrate thinning that makes TSV-based
//! Silicon 3D expensive. This module turns those qualitative claims into
//! a parametric model in *relative cost units* (RCU — normalised so one
//! Glass 2.5D interposer substrate-mm² ≈ 1). Constants are engineering
//! estimates in the public domain (panel vs wafer amortisation, process
//! adders), documented inline; the model's value is the *ordering* and
//! sensitivity, not absolute dollars.

use crate::context::StudyContext;
use interposer::diemap;
use serde::Serialize;
use techlib::spec::{InterposerKind, InterposerSpec, Stacking};

/// Substrate + RDL patterning cost per mm², RCU/mm².
///
/// Glass panels amortise fab cost over ~50x the area of a 300 mm wafer;
/// silicon interposer mm² carry dual-damascene BEOL cost; organic
/// build-up is the cheapest patterned area but coarse.
pub fn substrate_cost_per_mm2(tech: InterposerKind) -> f64 {
    match tech {
        InterposerKind::Glass25D | InterposerKind::Glass3D => 1.0,
        InterposerKind::Silicon25D | InterposerKind::Silicon3D => 4.5,
        InterposerKind::Shinko => 0.8,
        InterposerKind::Apx => 0.5,
        InterposerKind::Monolithic2D => 0.0,
    }
}

/// Per-RDL-layer patterning multiplier (each extra metal = one litho +
/// plate + planarise pass).
pub const RDL_LAYER_COST_FACTOR: f64 = 0.35;

/// Process adders, RCU per interposer.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct ProcessAdders {
    /// TSV/TGV formation for power delivery.
    pub through_vias: f64,
    /// Cavity etch + die embedding (glass 3D only).
    pub embedding: f64,
    /// Wafer/substrate thinning (Silicon 3D's 20 µm tiers).
    pub thinning: f64,
    /// Die attach / bonding steps (per die).
    pub bonding_per_die: f64,
}

/// Defect density for the area-yield model, defects/mm².
///
/// Yield = exp(-D·A) (Poisson). Fine-pitch silicon BEOL carries the
/// highest D; coarse organic the lowest.
pub fn defect_density(tech: InterposerKind) -> f64 {
    match tech {
        InterposerKind::Glass25D | InterposerKind::Glass3D => 0.010,
        InterposerKind::Silicon25D | InterposerKind::Silicon3D => 0.015,
        InterposerKind::Shinko => 0.008,
        InterposerKind::Apx => 0.005,
        InterposerKind::Monolithic2D => 0.012,
    }
}

/// The cost roll-up for one technology.
#[derive(Debug, Clone, Serialize)]
pub struct CostReport {
    /// Technology.
    pub tech: InterposerKind,
    /// Interposer (or stack) area the model prices, mm².
    pub area_mm2: f64,
    /// Patterned substrate cost, RCU.
    pub substrate_rcu: f64,
    /// Process adders, RCU.
    pub adders: ProcessAdders,
    /// Area yield (0–1).
    pub yield_frac: f64,
    /// Total cost per good assembled interposer, RCU.
    pub total_rcu: f64,
}

/// Computes the cost report for `spec`. The interposer area comes from
/// die placement alone — the area the routed layout reports — so
/// nothing is routed here.
pub fn cost(spec: &InterposerSpec) -> CostReport {
    let tech = spec.kind;
    let area_mm2 = match spec.stacking {
        Stacking::TsvStack => 0.94 * 0.94,
        Stacking::Monolithic => 1.6 * 1.6,
        Stacking::SideBySide | Stacking::Embedded => diemap::place_dies_with(spec).area_mm2(),
    };
    let layers = spec.signal_metal_layers as f64 + 2.0;
    let substrate =
        substrate_cost_per_mm2(tech) * area_mm2 * (1.0 + RDL_LAYER_COST_FACTOR * layers);

    let adders = match spec.stacking {
        Stacking::Embedded => ProcessAdders {
            through_vias: 0.8,
            embedding: 1.5, // cavity etch + DAF placement per stack ×2
            thinning: 0.0,
            bonding_per_die: 0.4,
        },
        Stacking::TsvStack => ProcessAdders {
            through_vias: 2.5, // mini-TSV middle process per tier
            embedding: 0.0,
            thinning: 4.0, // 3 tiers thinned to 20 µm: the paper's "costly substrate thinning"
            bonding_per_die: 0.8,
        },
        Stacking::SideBySide => ProcessAdders {
            through_vias: if matches!(tech, InterposerKind::Silicon25D | InterposerKind::Silicon3D)
            {
                2.0 // TSV-middle on the silicon interposer
            } else {
                0.8 // TGV / PTH
            },
            embedding: 0.0,
            thinning: 0.0,
            bonding_per_die: 0.4,
        },
        Stacking::Monolithic => ProcessAdders {
            through_vias: 0.0,
            embedding: 0.0,
            thinning: 0.0,
            bonding_per_die: 0.0,
        },
    };
    let n_dies = 4.0;
    let yield_frac = (-defect_density(tech) * area_mm2).exp();
    let gross = substrate
        + adders.through_vias
        + adders.embedding
        + adders.thinning
        + adders.bonding_per_die * n_dies;
    CostReport {
        tech,
        area_mm2,
        substrate_rcu: substrate,
        adders,
        yield_frac,
        total_rcu: gross / yield_frac,
    }
}

/// Cost reports for all six packaged technologies under `ctx`'s specs.
pub fn cost_all(ctx: &StudyContext) -> Vec<CostReport> {
    InterposerKind::PACKAGED
        .iter()
        .map(|&t| cost(ctx.spec(t)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper(tech: InterposerKind) -> CostReport {
        cost(&InterposerSpec::for_kind(tech))
    }

    fn rcu(tech: InterposerKind) -> f64 {
        paper(tech).total_rcu
    }

    #[test]
    fn glass_3d_is_cheaper_than_both_silicon_options() {
        // The conclusion's claim: glass "remains a cost-effective solution
        // for 3D chiplet stacking".
        let g3 = rcu(InterposerKind::Glass3D);
        assert!(g3 < rcu(InterposerKind::Silicon25D), "{g3}");
        assert!(g3 < rcu(InterposerKind::Silicon3D), "{g3}");
    }

    #[test]
    fn silicon_3d_pays_for_thinning() {
        let s3 = paper(InterposerKind::Silicon3D);
        let s25 = paper(InterposerKind::Silicon25D);
        assert!(s3.adders.thinning > 0.0);
        assert_eq!(s25.adders.thinning, 0.0);
    }

    #[test]
    fn glass_3d_beats_glass_25d_via_area() {
        // Half the substrate area more than pays for the embedding step.
        assert!(rcu(InterposerKind::Glass3D) < rcu(InterposerKind::Glass25D));
    }

    #[test]
    fn yields_are_physical() {
        for r in cost_all(&StudyContext::paper()) {
            assert!(r.yield_frac > 0.8 && r.yield_frac <= 1.0, "{:?}", r.tech);
            assert!(r.total_rcu > 0.0);
        }
    }

    #[test]
    fn wider_die_spacing_costs_more_area() {
        // Cost follows the spec it is given, not the paper default.
        let spec = InterposerSpec::for_kind(InterposerKind::Glass25D);
        let mut wide = spec.clone();
        wide.die_to_die_spacing_um *= 4.0;
        let (base, wide) = (cost(&spec), cost(&wide));
        assert!(wide.area_mm2 > base.area_mm2, "{wide:?} vs {base:?}");
        assert!(wide.total_rcu > base.total_rcu, "{wide:?} vs {base:?}");
    }

    #[test]
    fn organic_substrate_is_cheapest_per_area() {
        assert!(
            substrate_cost_per_mm2(InterposerKind::Apx)
                < substrate_cost_per_mm2(InterposerKind::Glass25D)
        );
        assert!(
            substrate_cost_per_mm2(InterposerKind::Glass25D)
                < substrate_cost_per_mm2(InterposerKind::Silicon25D)
        );
    }
}
