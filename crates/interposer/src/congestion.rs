//! Congestion analysis and heat-map rendering of routed layouts.
//!
//! Complements [`crate::drc`]: instead of pass/fail, this reports *where*
//! the demand concentrates — the data behind the paper's observation that
//! glass routing congests around the bump fields — and renders it as an
//! SVG heat map per layer.

use crate::grid::RoutingGrid;
use crate::report::InterposerLayout;
use crate::router::{accumulate_path, base_blockage, PRESENT_PENALTY_UM};
use crate::RouteError;
use serde::Serialize;
use std::fmt::Write as _;
use techlib::spec::InterposerSpec;

// ---------------------------------------------------------------------
// The router's fused cost field.
// ---------------------------------------------------------------------

/// Fused congestion-cost field the router's A* reads in its inner loop.
///
/// The historical hot path recomputed `history[i] + PRESENT_PENALTY_UM ·
/// max(0, usage[i] + 1 − capacity)` from two arrays on every neighbor
/// probe; this folds the expression into one `penalty` array maintained
/// incrementally as paths commit, halving the random-access traffic of
/// the relaxation loop. The values are produced by the *identical*
/// floating-point expression, so search results stay bit-for-bit.
#[derive(Debug, Clone)]
pub struct CostField {
    /// Per node: `history + PRESENT_PENALTY_UM · max(0, usage + 1 − cap)`.
    pub penalty: Vec<f64>,
}

#[inline]
fn node_penalty(grid: &RoutingGrid, usage: &[f64], history: &[f64], node: usize) -> f64 {
    // Must stay the exact expression of the pre-fusion congestion
    // closure: same operations, same order, same rounding.
    let over = (usage[node] + 1.0 - grid.capacity).max(0.0);
    history[node] + PRESENT_PENALTY_UM * over
}

impl CostField {
    /// Builds the field from scratch (`O(nodes)`).
    pub fn build(grid: &RoutingGrid, usage: &[f64], history: &[f64]) -> CostField {
        let mut field = CostField {
            penalty: vec![0.0; grid.node_count()],
        };
        field.rebuild(grid, usage, history);
        field
    }

    /// Recomputes every entry (used at iteration boundaries, where
    /// history bumps and rip-ups touch arbitrary node sets).
    pub fn rebuild(&mut self, grid: &RoutingGrid, usage: &[f64], history: &[f64]) {
        for node in 0..grid.node_count() {
            self.penalty[node] = node_penalty(grid, usage, history, node);
        }
    }

    /// Refreshes one node's penalty after a usage change.
    #[inline]
    pub fn refresh_node(
        &mut self,
        grid: &RoutingGrid,
        usage: &[f64],
        history: &[f64],
        node: usize,
    ) {
        self.penalty[node] = node_penalty(grid, usage, history, node);
    }

    /// Refreshes exactly the nodes a path commit (or rip-up) charged —
    /// the same node set `router::accumulate_path` touches.
    pub fn refresh_path(
        &mut self,
        grid: &RoutingGrid,
        path: &[(usize, usize, usize)],
        usage: &[f64],
        history: &[f64],
    ) {
        for w in path.windows(2) {
            let (x0, y0, l0) = w[0];
            let (x1, y1, l1) = w[1];
            if l0 != l1 {
                self.refresh_node(grid, usage, history, grid.index(x0, y0, l0));
                self.refresh_node(grid, usage, history, grid.index(x1, y1, l1));
            } else {
                self.refresh_node(grid, usage, history, grid.index(x1, y1, l1));
            }
        }
    }
}

/// Per-layer congestion summary.
#[derive(Debug, Clone, Serialize)]
pub struct LayerCongestion {
    /// Layer index (0 = top signal metal).
    pub layer: usize,
    /// Mean utilisation of used gcells (demand / capacity).
    pub mean_utilisation: f64,
    /// Peak utilisation.
    pub peak_utilisation: f64,
    /// Gcells above 80 % utilisation.
    pub hot_gcells: usize,
}

/// The congestion analysis of one layout.
#[derive(Debug, Clone, Serialize)]
pub struct CongestionMap {
    /// Grid dimensions (cols, rows, layers).
    pub dims: (usize, usize, usize),
    /// Demand per node (wire tracks + via/pad blockage), `[layer][y*cols+x]`.
    pub demand: Vec<Vec<f64>>,
    /// Track capacity per gcell-layer.
    pub capacity: f64,
    /// Per-layer summaries.
    pub layers: Vec<LayerCongestion>,
}

/// Computes the congestion map of `layout`.
///
/// # Errors
///
/// Returns [`RouteError::BadGrid`] if the layout's footprint cannot host
/// a routing grid (degenerate dimensions).
pub fn analyze(layout: &InterposerLayout) -> Result<CongestionMap, RouteError> {
    let spec = InterposerSpec::for_kind(layout.placement.tech);
    let grid = RoutingGrid::new(layout.placement.footprint_um, &spec)
        .map_err(|reason| RouteError::BadGrid { reason })?;
    let mut usage = base_blockage(&layout.placement, &grid);
    for net in &layout.routed_nets {
        // Same accumulation the router commits, so the map cannot drift
        // from what negotiation actually charged.
        accumulate_path(&grid, &net.path, &mut usage);
    }
    let per = grid.cols * grid.rows;
    let mut demand = Vec::with_capacity(grid.layers);
    let mut layers = Vec::with_capacity(grid.layers);
    for l in 0..grid.layers {
        let slice: Vec<f64> = usage[l * per..(l + 1) * per].to_vec();
        let used: Vec<f64> = slice.iter().cloned().filter(|&u| u > 0.0).collect();
        let mean = if used.is_empty() {
            0.0
        } else {
            used.iter().sum::<f64>() / used.len() as f64 / grid.capacity
        };
        let peak = slice.iter().cloned().fold(0.0, f64::max) / grid.capacity;
        let hot = slice.iter().filter(|&&u| u > 0.8 * grid.capacity).count();
        layers.push(LayerCongestion {
            layer: l,
            mean_utilisation: mean,
            peak_utilisation: peak,
            hot_gcells: hot,
        });
        demand.push(slice);
    }
    Ok(CongestionMap {
        dims: (grid.cols, grid.rows, grid.layers),
        demand,
        capacity: grid.capacity,
        layers,
    })
}

/// Renders one layer of the congestion map as an SVG heat map
/// (green → red at the capacity line).
pub fn render_layer(map: &CongestionMap, layer: usize, cell_px: f64) -> String {
    let (cols, rows, _) = map.dims;
    let (w, h) = (cols as f64 * cell_px, rows as f64 * cell_px);
    let mut out = String::new();
    let _ = writeln!(
        out,
        r##"<svg xmlns="http://www.w3.org/2000/svg" width="{w:.0}" height="{h:.0}" viewBox="0 0 {w:.1} {h:.1}">"##
    );
    for y in 0..rows {
        for x in 0..cols {
            let u = (map.demand[layer][y * cols + x] / map.capacity).clamp(0.0, 1.5) / 1.5;
            if u <= 0.0 {
                continue;
            }
            let r = (255.0 * u) as u8;
            let g = (200.0 * (1.0 - u)) as u8;
            let _ = writeln!(
                out,
                r##"<rect x="{:.1}" y="{:.1}" width="{cell_px:.1}" height="{cell_px:.1}" fill="#{r:02x}{g:02x}30"/>"##,
                x as f64 * cell_px,
                y as f64 * cell_px,
            );
        }
    }
    out.push_str("</svg>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::test_layout;
    use techlib::spec::InterposerKind;

    #[test]
    fn glass_is_more_congested_than_silicon() {
        let gl = analyze(&test_layout(InterposerKind::Glass25D)).unwrap();
        let si = analyze(&test_layout(InterposerKind::Silicon25D)).unwrap();
        let hot = |m: &CongestionMap| m.layers.iter().map(|l| l.hot_gcells).sum::<usize>();
        assert!(hot(&gl) > 3 * hot(&si), "{} vs {}", hot(&gl), hot(&si));
    }

    #[test]
    fn top_layer_carries_the_pad_blockage() {
        let m = analyze(&test_layout(InterposerKind::Glass25D)).unwrap();
        // Layer 0 holds every landing pad: it must show the most hot
        // gcells of any layer.
        let top = m.layers[0].hot_gcells;
        for l in &m.layers[1..] {
            assert!(
                top >= l.hot_gcells,
                "layer {}: {} vs {top}",
                l.layer,
                l.hot_gcells
            );
        }
    }

    #[test]
    fn svg_renders_only_used_cells() {
        let m = analyze(&test_layout(InterposerKind::Glass3D)).unwrap();
        let svg = render_layer(&m, 0, 4.0);
        assert!(svg.starts_with("<svg"));
        let rects = svg.matches("<rect").count();
        assert!(rects > 0);
        assert!(rects < m.dims.0 * m.dims.1, "empty cells must be skipped");
    }

    #[test]
    fn cost_field_tracks_usage_and_refreshes_incrementally() {
        let layout = test_layout(InterposerKind::Glass25D);
        let spec = InterposerSpec::for_kind(InterposerKind::Glass25D);
        let grid = RoutingGrid::new(layout.placement.footprint_um, &spec).unwrap();
        let mut usage = base_blockage(&layout.placement, &grid);
        let history = vec![0.0; grid.node_count()];
        let mut field = CostField::build(&grid, &usage, &history);
        // Every penalty is the exact fused expression.
        for node in (0..grid.node_count()).step_by(997) {
            let over = (usage[node] + 1.0 - grid.capacity).max(0.0);
            assert_eq!(field.penalty[node], history[node] + 200.0 * over);
        }
        // An incremental refresh after a usage change matches a rebuild.
        let node = grid.index(grid.cols / 2, grid.rows / 2, 0);
        usage[node] += 40.0;
        field.refresh_node(&grid, &usage, &history, node);
        let fresh = CostField::build(&grid, &usage, &history);
        assert_eq!(field.penalty[node], fresh.penalty[node]);
    }

    #[test]
    fn utilisation_stats_are_sane() {
        let m = analyze(&test_layout(InterposerKind::Shinko)).unwrap();
        for l in &m.layers {
            assert!(l.mean_utilisation >= 0.0);
            assert!(l.peak_utilisation >= l.mean_utilisation);
        }
    }
}
