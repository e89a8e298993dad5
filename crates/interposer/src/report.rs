//! One-call interposer place-and-route.
//!
//! [`place_and_route_with`] is the pure computation; [`LAYOUT`] declares
//! the store stage a study context keeps its result under, so scenarios
//! whose specs agree on the stage's projection share one routed layout.

use crate::diemap::{self, DiePlacement, NetClass};
use crate::grid::RoutingGrid;
use crate::router::{self, RoutedNet};
use crate::stats::RoutingStats;
use crate::RouteError;
use serde::{Deserialize, Serialize};
use techlib::spec::{InterposerKind, InterposerSpec, Stacking};
use techlib::store::{SpecField, Stage};

/// The complete interposer layout for one technology.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InterposerLayout {
    /// Die placement and global nets.
    pub placement: DiePlacement,
    /// Routed lateral nets.
    pub routed_nets: Vec<RoutedNet>,
    /// Table IV statistics.
    pub stats: RoutingStats,
}

impl InterposerLayout {
    /// The routed length of the worst (longest) net of `class`, µm.
    /// Stacked-via nets are never routed, so their class reads 0.
    pub fn worst_net_um(&self, class: NetClass) -> f64 {
        self.routed_nets
            .iter()
            .filter(|n| self.placement.nets[n.id].class == class)
            .map(|n| n.length_um)
            .fold(0.0, f64::max)
    }

    /// Average routed length of nets of `class`, µm.
    pub fn average_net_um(&self, class: NetClass) -> f64 {
        let lens: Vec<f64> = self
            .routed_nets
            .iter()
            .filter(|n| self.placement.nets[n.id].class == class)
            .map(|n| n.length_um)
            .collect();
        if lens.is_empty() {
            0.0
        } else {
            lens.iter().sum::<f64>() / lens.len() as f64
        }
    }
}

/// The layout stage (place + route + Table IV stats). Bump the version
/// whenever placement, routing, or the serialized shape of
/// [`InterposerLayout`] changes, so persisted artifacts from older
/// binaries miss instead of resurfacing stale results.
///
/// The projection is exactly what placement, the routing grid and the
/// router read: the die geometry and the wire rules. The stack-up
/// (metal and dielectric thickness, dielectric constant, core
/// thickness) and `loss_tangent` stay out, so scenarios that vary only
/// those share one routed layout. The layout holds no spec and no PDN
/// plan; PI and cost rebuild the plan from placement alone.
pub const LAYOUT: Stage = Stage {
    name: "layout",
    version: 2,
    projection: &[
        SpecField::Kind,
        SpecField::SignalMetalLayers,
        SpecField::MinWireWidthUm,
        SpecField::MinWireSpaceUm,
        SpecField::ViaSizeUm,
        SpecField::BumpSizeUm,
        SpecField::DieToDieSpacingUm,
        SpecField::MicrobumpPitchUm,
        SpecField::Stacking,
        SpecField::RoutingStyle,
    ],
};

/// The node count (gcells × signal layers) of the routing grid
/// [`place_and_route_with`] would route `spec` on: a cheap proxy for its
/// routing cost, used to dispatch the heaviest studies first. Places
/// the dies and builds the grid, but routes nothing. Specs without a
/// routed interposer, or whose grid is unusable, weigh 0.
pub fn routing_grid_nodes(spec: &InterposerSpec) -> usize {
    if matches!(spec.stacking, Stacking::TsvStack | Stacking::Monolithic) {
        return 0;
    }
    let placement = diemap::place_dies_with(spec);
    RoutingGrid::new(placement.footprint_um, spec).map_or(0, |grid| grid.node_count())
}

/// Places the four chiplets and routes every lateral net for `tech`.
///
/// # Errors
///
/// Returns [`RouteError::NoInterposer`] for Silicon 3D and the monolithic
/// baseline, and routing errors from the router.
pub fn place_and_route(tech: InterposerKind) -> Result<InterposerLayout, RouteError> {
    place_and_route_with(&InterposerSpec::for_kind(tech))
}

/// [`place_and_route`] against an explicit (possibly overridden) spec,
/// the form scenario contexts use.
///
/// # Errors
///
/// Returns [`RouteError::NoInterposer`] for stacking styles with no
/// routed interposer, [`RouteError::BadGrid`] for specs whose overrides
/// produce an unusable routing grid, and routing errors from the router.
pub fn place_and_route_with(spec: &InterposerSpec) -> Result<InterposerLayout, RouteError> {
    if matches!(spec.stacking, Stacking::TsvStack | Stacking::Monolithic) {
        return Err(RouteError::NoInterposer(spec.kind));
    }
    let placement = {
        let _span = techlib::obs::span("route.place");
        diemap::place_dies_with(spec)
    };
    let grid = RoutingGrid::new(placement.footprint_um, spec)
        .map_err(|reason| RouteError::BadGrid { reason })?;
    let routed = {
        let _span = techlib::obs::span("route.nets");
        router::route_all(&placement, &grid)?
    };
    let stats = RoutingStats::from_routing(&placement, &routed);
    Ok(InterposerLayout {
        placement,
        routed_nets: routed,
        stats,
    })
}

/// The paper-default layout for `tech`, routed at most once per test
/// binary: every unit test of this crate reads one shared test store.
#[cfg(test)]
pub(crate) fn test_layout(tech: InterposerKind) -> std::sync::Arc<InterposerLayout> {
    use techlib::store::ArtifactStore;
    static STORE: std::sync::OnceLock<ArtifactStore> = std::sync::OnceLock::new();
    let store = STORE.get_or_init(ArtifactStore::in_memory);
    let spec = InterposerSpec::for_kind(tech);
    let stored = store.get_or_compute(LAYOUT.key(&spec, &[]), || place_and_route_with(&spec));
    stored.unwrap().0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_five_interposers_route() {
        for tech in InterposerKind::INTERPOSER_BASED {
            let layout = test_layout(tech);
            assert!(!layout.routed_nets.is_empty(), "{tech}");
            assert!(layout.stats.total_wl_mm > 0.0, "{tech}");
            // Cost reads the area from placement alone; it must equal
            // the routed layout's.
            let placement = diemap::place_dies_with(&InterposerSpec::for_kind(tech));
            assert_eq!(layout.stats.area_mm2, placement.area_mm2(), "{tech}");
        }
    }

    #[test]
    fn grid_nodes_rank_the_paper_techs_by_routing_cost() {
        let nodes = |tech| routing_grid_nodes(&InterposerSpec::for_kind(tech));
        assert_eq!(nodes(InterposerKind::Apx), 172_800);
        assert_eq!(nodes(InterposerKind::Shinko), 109_375);
        assert_eq!(nodes(InterposerKind::Glass25D), 85_470);
        assert_eq!(nodes(InterposerKind::Silicon25D), 48_400);
        assert_eq!(nodes(InterposerKind::Glass3D), 14_076);
        assert_eq!(nodes(InterposerKind::Silicon3D), 0);
        assert_eq!(nodes(InterposerKind::Monolithic2D), 0);
    }

    #[test]
    fn silicon_3d_is_rejected() {
        assert!(matches!(
            place_and_route(InterposerKind::Silicon3D),
            Err(RouteError::NoInterposer(_))
        ));
    }

    #[test]
    fn worst_net_lengths_have_paper_ordering() {
        // Table V wirelengths: Glass 3D L2L 582 µm worst; Glass 2.5D L2M
        // 5,980 µm worst; Silicon 2.5D L2M 1,952 µm. Glass 3D L2M is a
        // three-level stacked via column, which the router never routes.
        let g3 = test_layout(InterposerKind::Glass3D);
        let g25 = test_layout(InterposerKind::Glass25D);
        let si = test_layout(InterposerKind::Silicon25D);
        let g3_l2l = g3.worst_net_um(NetClass::InterTile);
        let (_, _, _, g3_l2m) =
            techlib::via::stacked_via_column(&InterposerSpec::for_kind(InterposerKind::Glass3D), 3);
        let g25_l2m = g25.worst_net_um(NetClass::IntraTileLateral);
        let si_l2m = si.worst_net_um(NetClass::IntraTileLateral);
        assert!(
            (1.0..100.0).contains(&g3_l2m),
            "stacked via column: {g3_l2m}"
        );
        assert!(g3_l2l < g25_l2m, "{g3_l2l} vs {g25_l2m}");
        assert!(si_l2m < g25_l2m, "{si_l2m} vs {g25_l2m}");
    }

    #[test]
    fn doc_example_works() {
        let layout = test_layout(InterposerKind::Glass3D);
        assert_eq!(layout.routed_nets.len(), 68);
        assert!(layout.stats.total_wl_mm < 100.0);
    }

    #[test]
    fn caches_are_isolated_and_count_computes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        use techlib::store::ArtifactStore;
        let a = ArtifactStore::in_memory();
        let b = ArtifactStore::in_memory();
        let (a_computes, b_computes) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let spec = InterposerSpec::for_kind(InterposerKind::Glass3D);
        let route_in = |store: &ArtifactStore, computes: &AtomicUsize| {
            let stored = store.get_or_compute(LAYOUT.key(&spec, &[]), || {
                computes.fetch_add(1, Ordering::Relaxed);
                place_and_route_with(&spec)
            });
            stored.unwrap().0
        };
        let first = route_in(&a, &a_computes);
        let again = route_in(&a, &a_computes);
        assert!(Arc::ptr_eq(&first, &again), "same store shares the Arc");
        assert_eq!(a_computes.load(Ordering::Relaxed), 1);
        assert_eq!(b.stats().misses, 0, "sibling store untouched");
        let other = route_in(&b, &b_computes);
        assert!(!Arc::ptr_eq(&first, &other), "stores never share slots");
        assert_eq!(b_computes.load(Ordering::Relaxed), 1);
    }
}
