//! Coarse gcell routing grid.
//!
//! The interposer is divided into square gcells (default 20 µm). Each
//! signal layer contributes per-gcell routing capacity derived from the
//! technology's track pitch; layers alternate preferred direction, and
//! organic technologies additionally allow 45° moves (Section VI-B).

use serde::Serialize;
use techlib::spec::{InterposerSpec, RoutingStyle};

/// Default gcell edge length, µm.
pub const GCELL_UM: f64 = 20.0;

/// The most nodes a routing grid may have. The router keeps several
/// per-node arrays, so a grid sized by an extreme override (a huge die
/// spacing, say) would ask for more memory than the machine has, which
/// aborts the process rather than failing the scenario. The largest
/// grid any paper technology or `examples/*.json` scenario builds is
/// APX's 160 × 135 gcells × 8 layers = 172 800 nodes; the budget leaves
/// over 11× that.
pub const MAX_GRID_NODES: usize = 2_000_000;

/// The routing grid of one interposer.
#[derive(Debug, Clone, Serialize)]
pub struct RoutingGrid {
    /// Gcell columns.
    pub cols: usize,
    /// Gcell rows.
    pub rows: usize,
    /// Signal layers available for routing.
    pub layers: usize,
    /// Gcell edge length, µm.
    pub gcell_um: f64,
    /// Routing capacity per gcell per layer (tracks).
    pub capacity: f64,
    /// Tracks blocked by one via (via size / track pitch). 5.5 for glass
    /// (22 µm vias on a 4 µm pitch), 0.175 for silicon — the mechanism
    /// behind the glass detour effect of Table IV.
    pub via_block_tracks: f64,
    /// Tracks blocked by one bump landing pad on the top layer.
    pub pad_block_tracks: f64,
    /// Whether 45° moves are allowed.
    pub diagonal: bool,
}

impl RoutingGrid {
    /// Builds the grid for an interposer of `footprint_um` on `spec`.
    ///
    /// # Errors
    ///
    /// Returns an error message if the footprint or spec is degenerate,
    /// or if the grid would exceed [`MAX_GRID_NODES`].
    pub fn new(
        footprint_um: (f64, f64),
        spec: &InterposerSpec,
    ) -> Result<RoutingGrid, &'static str> {
        if footprint_um.0 <= 0.0 || footprint_um.1 <= 0.0 {
            return Err("footprint must be positive");
        }
        if spec.signal_metal_layers == 0 {
            return Err("no signal layers");
        }
        let cols = (footprint_um.0 / GCELL_UM).ceil() as usize;
        let rows = (footprint_um.1 / GCELL_UM).ceil() as usize;
        let nodes = cols
            .checked_mul(rows)
            .and_then(|gcells| gcells.checked_mul(spec.signal_metal_layers));
        if nodes.is_none_or(|n| n > MAX_GRID_NODES) {
            return Err("grid exceeds the routing node budget");
        }
        Ok(RoutingGrid {
            cols,
            rows,
            layers: spec.signal_metal_layers,
            gcell_um: GCELL_UM,
            capacity: GCELL_UM / spec.track_pitch_um(),
            via_block_tracks: spec.via_size_um / spec.track_pitch_um(),
            pad_block_tracks: spec.bump_size_um / spec.track_pitch_um(),
            diagonal: spec.routing_style == RoutingStyle::Diagonal,
        })
    }

    /// Total node count (gcells × layers).
    pub fn node_count(&self) -> usize {
        self.cols * self.rows * self.layers
    }

    /// Flattened node index.
    pub fn index(&self, x: usize, y: usize, layer: usize) -> usize {
        (layer * self.rows + y) * self.cols + x
    }

    /// Gcell containing a physical point, clamped to the grid.
    pub fn gcell_of(&self, x_um: f64, y_um: f64) -> (usize, usize) {
        let gx = ((x_um / self.gcell_um) as usize).min(self.cols - 1);
        let gy = ((y_um / self.gcell_um) as usize).min(self.rows - 1);
        (gx, gy)
    }

    /// Inverse of [`RoutingGrid::index`]: the `(x, y, layer)` of a
    /// flattened node index.
    pub fn decompose(&self, node: usize) -> (usize, usize, usize) {
        let per_layer = self.rows * self.cols;
        let layer = node / per_layer;
        let rem = node % per_layer;
        (rem % self.cols, rem / self.cols, layer)
    }

    /// The lateral search window spanning gcells `a` and `b` inflated by
    /// `margin` gcells on every side, clamped to the grid. All layers are
    /// always in the window — only the lateral extent is bounded.
    pub fn window(&self, a: (usize, usize), b: (usize, usize), margin: usize) -> GridWindow {
        GridWindow {
            x0: a.0.min(b.0).saturating_sub(margin),
            y0: a.1.min(b.1).saturating_sub(margin),
            x1: a.0.max(b.0).saturating_add(margin).min(self.cols - 1),
            y1: a.1.max(b.1).saturating_add(margin).min(self.rows - 1),
        }
    }

    /// True if `layer`'s preferred direction is horizontal.
    pub fn horizontal_preferred(&self, layer: usize) -> bool {
        layer.is_multiple_of(2)
    }
}

/// Inclusive lateral gcell bounds of one windowed router search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridWindow {
    /// Leftmost column in the window.
    pub x0: usize,
    /// Bottom row in the window.
    pub y0: usize,
    /// Rightmost column in the window (inclusive).
    pub x1: usize,
    /// Top row in the window (inclusive).
    pub y1: usize,
}

impl GridWindow {
    /// True when the window spans the entire lateral grid, i.e. the
    /// windowed search *is* the full-grid search.
    pub fn covers(&self, grid: &RoutingGrid) -> bool {
        self.x0 == 0 && self.y0 == 0 && self.x1 + 1 == grid.cols && self.y1 + 1 == grid.rows
    }

    /// True when the two windows share no gcell (layers are always all
    /// in a window, so lateral disjointness is node disjointness).
    pub fn disjoint(&self, other: &GridWindow) -> bool {
        self.x1 < other.x0 || other.x1 < self.x0 || self.y1 < other.y0 || other.y1 < self.y0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use techlib::spec::{InterposerKind, InterposerSpec};

    #[test]
    fn glass_grid_dimensions() {
        let spec = InterposerSpec::for_kind(InterposerKind::Glass25D);
        let g = RoutingGrid::new((2200.0, 2200.0), &spec).unwrap();
        assert_eq!(g.cols, 110);
        assert_eq!(g.rows, 110);
        assert_eq!(g.layers, 7);
        assert_eq!(g.capacity, 5.0);
        assert!(!g.diagonal);
    }

    #[test]
    fn silicon_has_much_higher_capacity() {
        let spec = InterposerSpec::for_kind(InterposerKind::Silicon25D);
        let g = RoutingGrid::new((2200.0, 2200.0), &spec).unwrap();
        assert_eq!(g.capacity, 25.0);
    }

    #[test]
    fn apx_is_diagonal_and_track_starved() {
        let spec = InterposerSpec::for_kind(InterposerKind::Apx);
        let g = RoutingGrid::new((3200.0, 2700.0), &spec).unwrap();
        assert!(g.diagonal);
        assert!(g.capacity < 2.0);
    }

    #[test]
    fn oversized_grids_are_rejected_before_any_allocation() {
        // A huge die spacing: cols × rows overflows usize.
        let mut spec = InterposerSpec::for_kind(InterposerKind::Glass25D);
        assert!(RoutingGrid::new((1e300, 1e300), &spec).is_err());
        // Fits usize, but 50 000² gcells × 32 layers is far over budget.
        // (`report::grid_nodes_rank_the_paper_techs_by_routing_cost`
        // holds the paper grids, APX's 172 800 nodes the largest, inside.)
        spec.signal_metal_layers = 32;
        assert!(RoutingGrid::new((1e6, 1e6), &spec).is_err());
    }

    #[test]
    fn indexing_is_dense_and_unique() {
        let spec = InterposerSpec::for_kind(InterposerKind::Glass3D);
        let g = RoutingGrid::new((1840.0, 1020.0), &spec).unwrap();
        let mut seen = vec![false; g.node_count()];
        for l in 0..g.layers {
            for y in 0..g.rows {
                for x in 0..g.cols {
                    let i = g.index(x, y, l);
                    assert!(!seen[i]);
                    seen[i] = true;
                }
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gcell_lookup_clamps() {
        let spec = InterposerSpec::for_kind(InterposerKind::Glass25D);
        let g = RoutingGrid::new((2200.0, 2200.0), &spec).unwrap();
        assert_eq!(g.gcell_of(0.0, 0.0), (0, 0));
        assert_eq!(g.gcell_of(25.0, 45.0), (1, 2));
        assert_eq!(g.gcell_of(99_999.0, 99_999.0), (109, 109));
    }

    #[test]
    fn decompose_inverts_index() {
        let spec = InterposerSpec::for_kind(InterposerKind::Glass25D);
        let g = RoutingGrid::new((2200.0, 2200.0), &spec).unwrap();
        for (x, y, l) in [(0, 0, 0), (109, 109, 6), (17, 42, 3)] {
            assert_eq!(g.decompose(g.index(x, y, l)), (x, y, l));
        }
    }

    #[test]
    fn windows_clamp_and_cover() {
        let spec = InterposerSpec::for_kind(InterposerKind::Glass25D);
        let g = RoutingGrid::new((2200.0, 2200.0), &spec).unwrap();
        let w = g.window((10, 20), (30, 25), 5);
        assert_eq!((w.x0, w.y0, w.x1, w.y1), (5, 15, 35, 30));
        assert!(!w.covers(&g));
        // A margin past the grid edge clamps instead of overflowing, and
        // a huge margin degenerates to the full grid.
        let edge = g.window((1, 108), (2, 109), 4);
        assert_eq!((edge.x0, edge.y0, edge.x1, edge.y1), (0, 104, 6, 109));
        assert!(g.window((50, 50), (60, 60), usize::MAX).covers(&g));
    }

    #[test]
    fn window_disjointness_is_symmetric_and_tight() {
        let a = GridWindow {
            x0: 10,
            y0: 10,
            x1: 20,
            y1: 20,
        };
        let apart = GridWindow {
            x0: 21,
            y0: 10,
            x1: 30,
            y1: 20,
        };
        let corner = GridWindow {
            x0: 20,
            y0: 20,
            x1: 25,
            y1: 25,
        };
        let above = GridWindow {
            x0: 0,
            y0: 21,
            x1: 40,
            y1: 30,
        };
        assert!(a.disjoint(&apart) && apart.disjoint(&a));
        // Inclusive bounds: sharing the single gcell (20, 20) overlaps.
        assert!(!a.disjoint(&corner) && !corner.disjoint(&a));
        assert!(a.disjoint(&above) && above.disjoint(&a));
        assert!(!a.disjoint(&a));
    }

    #[test]
    fn degenerate_inputs_rejected() {
        let spec = InterposerSpec::for_kind(InterposerKind::Glass25D);
        assert!(RoutingGrid::new((0.0, 100.0), &spec).is_err());
        let mono = InterposerSpec::for_kind(InterposerKind::Monolithic2D);
        assert!(RoutingGrid::new((100.0, 100.0), &mono).is_err());
    }
}
