//! One-call interposer place-and-route, cached in an artifact store.
//!
//! [`place_and_route_with`] is the pure computation; [`layout_in`] looks
//! the layout up in an [`ArtifactStore`] under [`layout_store_key`] and
//! routes only on a miss. The caller owns the store: a study context
//! passes its own, so layouts live exactly as long as the context that
//! routed them.

use crate::diemap::{self, DiePlacement, NetClass};
use crate::grid::RoutingGrid;
use crate::pdn::PdnPlan;
use crate::router::{self, RoutedNet};
use crate::stats::RoutingStats;
use crate::RouteError;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use techlib::spec::{InterposerKind, InterposerSpec, Stacking};
use techlib::store::{ArtifactStore, Codec, SpecField, StoreKey};

/// The complete interposer layout for one technology.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct InterposerLayout {
    /// The interposer spec the layout was placed and routed against
    /// (carries any scenario overrides into downstream length queries).
    pub spec: InterposerSpec,
    /// Die placement and global nets.
    pub placement: DiePlacement,
    /// Routed lateral nets.
    pub routed_nets: Vec<RoutedNet>,
    /// Table IV statistics.
    pub stats: RoutingStats,
    /// Power delivery network.
    pub pdn: PdnPlan,
}

impl InterposerLayout {
    /// The routed length of the worst (longest) net of `class`, µm.
    /// Stacked-via classes return the via-column height instead.
    pub fn worst_net_um(&self, class: NetClass) -> f64 {
        if class == NetClass::IntraTileStackedVia {
            let (_, _, _, len) = techlib::via::stacked_via_column(&self.spec, 3);
            return len;
        }
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

/// Algorithm version of the layout stage (place + route + PDN). Bump
/// whenever placement, routing, PDN generation, or the serialized shape
/// of [`InterposerLayout`] changes, so persisted artifacts from older
/// binaries miss instead of resurfacing stale results.
pub const LAYOUT_STAGE_VERSION: u32 = 1;

/// The spec fields place-and-route actually consumes: everything
/// *except* `loss_tangent`, which only the SI link simulation reads.
/// Placement reads the geometry fields, the routing grid reads the wire
/// rules, and the PDN plan reads `dielectric_constant` (plane
/// capacitance), so those all stay in the projection. A sweep that only
/// varies `loss_tangent` therefore shares one layout across scenarios.
pub const LAYOUT_PROJECTION: &[SpecField] = &[
    SpecField::Kind,
    SpecField::SignalMetalLayers,
    SpecField::MetalThicknessUm,
    SpecField::DielectricThicknessUm,
    SpecField::DielectricConstant,
    SpecField::MinWireWidthUm,
    SpecField::MinWireSpaceUm,
    SpecField::ViaSizeUm,
    SpecField::BumpSizeUm,
    SpecField::DieToDieSpacingUm,
    SpecField::MicrobumpPitchUm,
    SpecField::Stacking,
    SpecField::RoutingStyle,
    SpecField::CoreThicknessUm,
];

/// The layout stage's store key for `spec`.
pub fn layout_store_key(spec: &InterposerSpec) -> StoreKey {
    techlib::store::projection_key("layout", LAYOUT_STAGE_VERSION, spec, LAYOUT_PROJECTION, &[])
}

/// JSON codec for persisted layouts.
fn layout_codec() -> Codec<InterposerLayout> {
    Codec {
        encode: |layout| serde_json::to_string(layout).ok(),
        decode: |text| serde_json::from_str_typed(text).ok(),
    }
}

/// The routed layout for `spec`, looked up in `store` under
/// [`layout_store_key`]: scenarios whose specs agree on
/// [`LAYOUT_PROJECTION`] share one routed layout — across contexts, and
/// across processes when the store has a disk tier. Place-and-route runs
/// only on a miss, right after `on_compute` (study contexts count their
/// computes with it). Concurrent requests for one key route once.
///
/// # Errors
///
/// Same as [`place_and_route_with`]; errors never reach the store.
pub fn layout_in(
    store: &ArtifactStore,
    spec: &InterposerSpec,
    on_compute: impl FnOnce(),
) -> Result<Arc<InterposerLayout>, RouteError> {
    store
        .get_or_compute(layout_store_key(spec), &layout_codec(), || {
            on_compute();
            place_and_route_with(spec)
        })
        .map(|(layout, _)| layout)
}

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
    let pdn = {
        let _span = techlib::obs::span("route.pdn");
        PdnPlan::generate_with(spec, placement.footprint_um)
    };
    Ok(InterposerLayout {
        spec: spec.clone(),
        placement,
        routed_nets: routed,
        stats,
        pdn,
    })
}

/// The paper-default layout for `tech`, routed at most once per test
/// binary: every unit test of this crate reads one shared test store.
#[cfg(test)]
pub(crate) fn test_layout(tech: InterposerKind) -> Arc<InterposerLayout> {
    static STORE: std::sync::OnceLock<ArtifactStore> = std::sync::OnceLock::new();
    let store = STORE.get_or_init(ArtifactStore::in_memory);
    layout_in(store, &InterposerSpec::for_kind(tech), || {}).unwrap()
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
            // Power integrity and cost read the PDN plan and the area
            // from placement alone; both must equal the routed layout's.
            let spec = InterposerSpec::for_kind(tech);
            let placement = diemap::place_dies_with(&spec);
            assert_eq!(
                serde_json::to_string(&layout.pdn).unwrap(),
                serde_json::to_string(&PdnPlan::generate_with(&spec, placement.footprint_um))
                    .unwrap(),
                "{tech}"
            );
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
        // 5,980 µm worst; Silicon 2.5D L2M 1,952 µm.
        let g3 = test_layout(InterposerKind::Glass3D);
        let g25 = test_layout(InterposerKind::Glass25D);
        let si = test_layout(InterposerKind::Silicon25D);
        let g3_l2l = g3.worst_net_um(NetClass::InterTile);
        let g3_l2m = g3.worst_net_um(NetClass::IntraTileStackedVia);
        let g25_l2m = g25.worst_net_um(NetClass::IntraTileLateral);
        let si_l2m = si.worst_net_um(NetClass::IntraTileLateral);
        assert!(g3_l2m < 100.0, "stacked via column: {g3_l2m}");
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
        let a = ArtifactStore::in_memory();
        let b = ArtifactStore::in_memory();
        let (a_computes, b_computes) = (AtomicUsize::new(0), AtomicUsize::new(0));
        let count = |n: &AtomicUsize| {
            n.fetch_add(1, Ordering::Relaxed);
        };
        let spec = InterposerSpec::for_kind(InterposerKind::Glass3D);
        let first = layout_in(&a, &spec, || count(&a_computes)).unwrap();
        let again = layout_in(&a, &spec, || count(&a_computes)).unwrap();
        assert!(Arc::ptr_eq(&first, &again), "same store shares the Arc");
        assert_eq!(a_computes.load(Ordering::Relaxed), 1);
        assert_eq!(b.stats().misses, 0, "sibling store untouched");
        let other = layout_in(&b, &spec, || count(&b_computes)).unwrap();
        assert!(!Arc::ptr_eq(&first, &other), "stores never share slots");
        assert_eq!(b_computes.load(Ordering::Relaxed), 1);
    }
}
