//! Finite-volume steady-state conduction solver.
//!
//! Classic 7-point stencil with harmonic-mean inter-cell conductances,
//! convection boundaries, and successive over-relaxation. Cell sizes are
//! uniform in x/y and non-uniform in z.
//!
//! Sweeps use **red-black ordering**: cells are two-coloured by
//! `(x + y + z) % 2`, and each half-sweep updates one colour. Under the
//! 7-point stencil every neighbour of a cell has the opposite colour, so
//! the order in which a half-sweep visits its cells does not change a
//! bit of the converged field.
//!
//! The sweep is **sequential by design**. The face conductances and each
//! cell's conductance sum are evaluated once per solve (same expressions
//! and summation order as a per-cell evaluation, so the same bits), and
//! both half-sweeps run as a plain loop on the calling thread. Grids of
//! 2.5–17 k cells are too small to pay for threads per half-sweep: a
//! row-parallel version of this sweep (one scoped-thread fan-out per
//! half-sweep) was slower at 2 workers than at 1 — 3.26 s against 2.28 s
//! for the six packaged techs' default solves on a 2-vCPU box — and this
//! loop takes 0.3–0.5 s there. Parallelism lives one level up, across
//! technologies and scenarios.

use crate::model::{ThermalModel, CELL_XY_M};
use crate::{ThermalError, AMBIENT_C};

/// Fixed lateral "board spreading" conductance distributed over the
/// bottom face, W/K — models heat escaping into the motherboard beyond
/// the package shadow (so small packages are not starved of cooling).
///
/// Provenance: calibrated once so the Glass 3D logic die lands in the
/// paper's 27 °C band while the embedded memory die stays trapped.
pub const BOARD_SPREAD_W_PER_K: f64 = 0.005;

/// Side-wall convection coefficient, W/(m²·K).
pub const H_SIDE_W_M2K: f64 = 10.0;

/// Convection/spreading boundary coefficients.
#[derive(Debug, Clone, Copy)]
pub struct Boundaries {
    /// Top-side convection over non-die area, W/(m²·K).
    pub h_top: f64,
    /// Effective coefficient over exposed die backs, W/(m²·K) — the
    /// enclosure/case path the paper's IcePak model provides. Calibrated
    /// once so 2.5D logic chiplets land in the 27–29 °C band of Fig. 17.
    pub h_top_die: f64,
    /// Bottom-side effective coefficient (ball field + board), W/(m²·K).
    pub h_bottom: f64,
    /// Side-wall convection, W/(m²·K).
    pub h_side: f64,
    /// Fixed board-spreading conductance over the bottom face, W/K.
    pub board_spread_w_per_k: f64,
}

impl Default for Boundaries {
    fn default() -> Self {
        Boundaries {
            h_top: crate::H_TOP_W_M2K,
            h_top_die: crate::H_TOP_DIE_W_M2K,
            h_bottom: crate::H_BOTTOM_W_M2K,
            h_side: H_SIDE_W_M2K,
            board_spread_w_per_k: BOARD_SPREAD_W_PER_K,
        }
    }
}

impl Boundaries {
    /// Boundaries for a given top-side air speed, m/s, using the flat-
    /// plate forced-convection estimate h ≈ 5 + 30·√v (the paper's study
    /// point is 0.1 m/s).
    pub fn with_airspeed(v_m_s: f64) -> Boundaries {
        let scale = (v_m_s.max(1e-3) / 0.1).sqrt();
        Boundaries {
            h_top: 5.0 + 30.0 * v_m_s.max(0.0).sqrt(),
            h_top_die: crate::H_TOP_DIE_W_M2K * scale,
            ..Boundaries::default()
        }
    }
}

/// Solver configuration.
#[derive(Debug, Clone, Copy)]
pub struct SolveConfig {
    /// Over-relaxation factor (1.0 = Gauss-Seidel).
    pub omega: f64,
    /// Convergence threshold on the max per-sweep update, K.
    pub tolerance_k: f64,
    /// Iteration cap.
    pub max_iters: usize,
}

impl Default for SolveConfig {
    fn default() -> Self {
        SolveConfig {
            omega: 1.85,
            tolerance_k: 1e-5,
            max_iters: 20_000,
        }
    }
}

/// The temperature field, °C, indexed `[z][y*nx+x]`.
#[derive(Debug, Clone)]
pub struct TemperatureField {
    /// Grid x size.
    pub nx: usize,
    /// Grid y size.
    pub ny: usize,
    /// Per-layer temperature maps.
    pub layers: Vec<Vec<f64>>,
    /// Iterations used.
    pub iterations: usize,
}

impl TemperatureField {
    /// Peak temperature in a region of one layer, °C.
    pub fn peak_in(&self, z: usize, x: (usize, usize), y: (usize, usize)) -> f64 {
        let mut peak = f64::NEG_INFINITY;
        for yy in y.0..y.1 {
            for xx in x.0..x.1 {
                peak = peak.max(self.layers[z][yy * self.nx + xx]);
            }
        }
        peak
    }

    /// Global peak, °C.
    pub fn peak(&self) -> f64 {
        self.layers
            .iter()
            .flatten()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

/// Solves the steady-state field of `model` with default boundaries.
///
/// # Errors
///
/// Returns [`ThermalError::NoConvergence`] if the SOR sweep hits
/// `config.max_iters` before the largest per-sweep temperature update
/// drops below `config.tolerance_k`. That update is not a residual: under
/// over-relaxation a small update does not bound the error.
pub fn solve(model: &ThermalModel, config: &SolveConfig) -> Result<TemperatureField, ThermalError> {
    solve_with_boundaries(model, config, &Boundaries::default())
}

/// Solves with explicit boundary coefficients (airflow studies).
///
/// # Errors
///
/// Same as [`solve`], plus the `thermal.sor` fault site, which reports a
/// zero-iteration non-convergence without sweeping.
pub fn solve_with_boundaries(
    model: &ThermalModel,
    config: &SolveConfig,
    bounds: &Boundaries,
) -> Result<TemperatureField, ThermalError> {
    if techlib::faults::armed("thermal.sor") {
        return Err(ThermalError::NoConvergence {
            iterations: 0,
            residual_k: f64::INFINITY,
            tolerance_k: config.tolerance_k,
        });
    }
    let (field, max_update_k) = sor_sweeps(model, config, bounds);
    if max_update_k < config.tolerance_k {
        Ok(field)
    } else {
        Err(ThermalError::NoConvergence {
            iterations: field.iterations,
            residual_k: max_update_k,
            tolerance_k: config.tolerance_k,
        })
    }
}

/// The 7-point stencil of one model, evaluated once per solve on a grid
/// padded with one ghost cell on every side. Ghost cells hold
/// [`AMBIENT_C`] and are never updated, so a boundary face is an
/// ordinary face whose conductance is the convection (or board) term and
/// whose far temperature is ambient — every cell runs the same update.
///
/// Padded cell `p` sits at `(x, y, z) + 1`. `gx[p]`, `gy[p]` and `gz[p]`
/// are the conductances of its `x+1`, `y+1` and `z+1` faces, so the
/// `x-1` face of `p` is `gx[p - 1]` (and likewise in y and z).
struct Stencil {
    nx: usize,
    ny: usize,
    nz: usize,
    /// Padded y stride.
    sy: usize,
    /// Padded z stride.
    sz: usize,
    gx: Vec<f64>,
    gy: Vec<f64>,
    gz: Vec<f64>,
    /// Sum of the six face conductances of each interior cell.
    g_sum: Vec<f64>,
    /// Injected power per cell, W (the update's initial flux).
    power: Vec<f64>,
}

impl Stencil {
    fn new(model: &ThermalModel, bounds: &Boundaries) -> Stencil {
        let (nx, ny, nz) = (model.nx, model.ny, model.nz());
        let (sy, sz) = (nx + 2, (nx + 2) * (ny + 2));
        let len = sz * (nz + 2);
        let pad = |x: usize, y: usize, z: usize| (z + 1) * sz + (y + 1) * sy + x + 1;
        let a_xy = CELL_XY_M * CELL_XY_M;
        let n_bottom = (nx * ny) as f64;

        // Lateral G between (x,y,z) and (x+1,y,z): harmonic mean over dx.
        let g_lat = |z: usize, i: usize, j: usize| -> f64 {
            let k1 = model.k_xy[z][i];
            let k2 = model.k_xy[z][j];
            let area = model.dz_m[z] * CELL_XY_M;
            area / (CELL_XY_M / (2.0 * k1) + CELL_XY_M / (2.0 * k2))
        };
        // Vertical G between layer z and z+1 at cell i.
        let g_vert = |z: usize, i: usize| -> f64 {
            let k1 = model.k_z[z][i];
            let k2 = model.k_z[z + 1][i];
            a_xy / (model.dz_m[z] / (2.0 * k1) + model.dz_m[z + 1] / (2.0 * k2))
        };

        let mut gx = vec![0.0; len];
        let mut gy = vec![0.0; len];
        let mut gz = vec![0.0; len];
        let mut g_sum = vec![0.0; len];
        let mut power = vec![0.0; len];
        for z in 0..nz {
            let g_side = bounds.h_side * model.dz_m[z] * CELL_XY_M;
            for y in 0..ny {
                // The x-1 face of the row's first cell is a side wall.
                gx[pad(0, y, z) - 1] = g_side;
                for x in 0..nx {
                    let i = y * nx + x;
                    let p = pad(x, y, z);
                    if y == 0 {
                        gy[p - sy] = g_side;
                    }
                    if z == 0 {
                        gz[p - sz] =
                            bounds.h_bottom * a_xy + bounds.board_spread_w_per_k / n_bottom;
                    }
                    gx[p] = if x + 1 < nx {
                        g_lat(z, i, i + 1)
                    } else {
                        g_side
                    };
                    gy[p] = if y + 1 < ny {
                        g_lat(z, i, i + nx)
                    } else {
                        g_side
                    };
                    gz[p] = if z + 1 < nz {
                        g_vert(z, i)
                    } else {
                        let h = if model.top_die_mask[i] {
                            bounds.h_top_die
                        } else {
                            bounds.h_top
                        };
                        h * a_xy
                    };
                    // Summed from zero in the update's face order: x+1,
                    // x-1, y+1, y-1, z+1, z-1. Every x-1/y-1/z-1 face is
                    // already set, by an earlier cell or a boundary write above.
                    g_sum[p] = 0.0 + gx[p] + gx[p - 1] + gy[p] + gy[p - sy] + gz[p] + gz[p - sz];
                    power[p] = model.power[z][i];
                }
            }
        }

        Stencil {
            nx,
            ny,
            nz,
            sy,
            sz,
            gx,
            gy,
            gz,
            g_sum,
            power,
        }
    }

    /// Over-relaxes every cell with `(x + y + z) % 2 == color` in place and
    /// returns the largest update, K. Every neighbour of such a cell has
    /// the other colour, so the visiting order does not change a bit.
    fn half_sweep(&self, t: &mut [f64], color: usize, omega: f64) -> f64 {
        let (nx, sy, sz) = (self.nx, self.sy, self.sz);
        let mut max_delta: f64 = 0.0;
        for z in 0..self.nz {
            for y in 0..self.ny {
                // Padded row of the cells being updated, ghosts included.
                // Per-row slices show the compiler that the written row
                // does not alias the rows it reads, and bound every index.
                let row = (z + 1) * sz + (y + 1) * sy;
                let (below, rest) = t.split_at_mut(row);
                let (mid, above) = rest.split_at_mut(sy);
                let south = &below[row - sy..];
                let down = &below[row - sz..row - sz + sy];
                let north = &above[..sy];
                let up = &above[sz - sy..sz];
                let gx = &self.gx[row..row + sy];
                let gy_n = &self.gy[row..row + sy];
                let gy_s = &self.gy[row - sy..row];
                let gz_u = &self.gz[row..row + sy];
                let gz_d = &self.gz[row - sz..row - sz + sy];
                let power = &self.power[row..row + sy];
                let g_sum = &self.g_sum[row..row + sy];
                for x in (1 + (color + y + z) % 2..=nx).step_by(2) {
                    let mut flux = power[x];
                    flux += gx[x] * mid[x + 1];
                    flux += gx[x - 1] * mid[x - 1];
                    flux += gy_n[x] * north[x];
                    flux += gy_s[x] * south[x];
                    flux += gz_u[x] * up[x];
                    flux += gz_d[x] * down[x];
                    let t_old = mid[x];
                    let t_new = flux / g_sum[x];
                    let t_relaxed = t_old + omega * (t_new - t_old);
                    let delta = (t_relaxed - t_old).abs();
                    // `f64::max` without its NaN branch: a NaN is skipped
                    // either way.
                    if delta > max_delta {
                        max_delta = delta;
                    }
                    mid[x] = t_relaxed;
                }
            }
        }
        max_delta
    }
}

/// Red-black SOR core: returns the field plus the max per-sweep update
/// of the last iteration (`INFINITY` when `max_iters == 0`).
fn sor_sweeps(
    model: &ThermalModel,
    config: &SolveConfig,
    bounds: &Boundaries,
) -> (TemperatureField, f64) {
    let stencil = Stencil::new(model, bounds);
    let mut t = vec![AMBIENT_C; stencil.g_sum.len()];

    let mut iterations = 0;
    let mut last_delta = f64::INFINITY;
    for iter in 0..config.max_iters {
        iterations = iter + 1;
        let red = stencil.half_sweep(&mut t, 0, config.omega);
        let black = stencil.half_sweep(&mut t, 1, config.omega);
        last_delta = red.max(black);
        if last_delta < config.tolerance_k {
            break;
        }
    }

    techlib::obs::add(techlib::obs::THERMAL_SOR_SWEEPS, iterations as u64);
    let (nx, ny) = (stencil.nx, stencil.ny);
    let layers = (1..=stencil.nz)
        .map(|z| {
            (1..=ny)
                .flat_map(|y| {
                    let row = z * stencil.sz + y * stencil.sy + 1;
                    t[row..row + nx].iter().copied()
                })
                .collect()
        })
        .collect();
    (
        TemperatureField {
            nx,
            ny,
            layers,
            iterations,
        },
        last_delta,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use techlib::spec::InterposerKind;

    #[test]
    fn temperatures_exceed_ambient_everywhere_heat_flows() {
        let model = ThermalModel::for_tech(InterposerKind::Silicon25D).unwrap();
        let field = solve(&model, &SolveConfig::default()).unwrap();
        for layer in &field.layers {
            for &t in layer {
                assert!(t >= AMBIENT_C - 1e-6);
            }
        }
        assert!(field.peak() > AMBIENT_C + 1.0);
    }

    #[test]
    fn zero_power_gives_ambient() {
        let mut model = ThermalModel::for_tech(InterposerKind::Silicon25D).unwrap();
        for p in &mut model.power {
            p.iter_mut().for_each(|x| *x = 0.0);
        }
        let field = solve(&model, &SolveConfig::default()).unwrap();
        assert!((field.peak() - AMBIENT_C).abs() < 1e-6);
    }

    #[test]
    fn doubling_power_roughly_doubles_rise() {
        let model = ThermalModel::for_tech(InterposerKind::Glass25D).unwrap();
        let base = solve(&model, &SolveConfig::default()).unwrap().peak() - AMBIENT_C;
        let mut doubled = model.clone();
        for p in &mut doubled.power {
            p.iter_mut().for_each(|x| *x *= 2.0);
        }
        let twice = solve(&doubled, &SolveConfig::default()).unwrap().peak() - AMBIENT_C;
        assert!((twice / base - 2.0).abs() < 1e-3, "{twice} vs {base}");
    }

    #[test]
    fn hotspot_sits_on_a_die() {
        let model = ThermalModel::for_tech(InterposerKind::Shinko).unwrap();
        let field = solve(&model, &SolveConfig::default()).unwrap();
        let global = field.peak();
        let on_dies = model
            .dies
            .iter()
            .map(|d| field.peak_in(d.z_layer, d.x_range, d.y_range))
            .fold(f64::NEG_INFINITY, f64::max);
        assert!((global - on_dies).abs() < 1e-9);
    }

    #[test]
    fn more_airflow_cools_the_assembly() {
        let model = ThermalModel::for_tech(InterposerKind::Glass3D).unwrap();
        let still = solve_with_boundaries(
            &model,
            &SolveConfig::default(),
            &Boundaries::with_airspeed(0.1),
        )
        .unwrap()
        .peak();
        let breezy = solve_with_boundaries(
            &model,
            &SolveConfig::default(),
            &Boundaries::with_airspeed(5.0),
        )
        .unwrap()
        .peak();
        assert!(breezy < still, "{breezy} vs {still}");
    }

    #[test]
    fn one_dimensional_slab_matches_hand_calculation() {
        // Analytic validation: a single-column stack with adiabatic sides
        // and top, power P injected at the top layer, cooled only through
        // the bottom boundary. The exact rise is
        // P · (Σ dz/(k·A) with half-cells at the ends + 1/(h_eff·A)).
        use crate::model::{DieRegion, ThermalModel, CELL_XY_M};
        let nx = 1;
        let ny = 1;
        let k = 10.0;
        let dz = 100e-6;
        let p_w = 0.01;
        let layers = 4;
        let model = ThermalModel {
            tech: techlib::spec::InterposerKind::Silicon25D,
            nx,
            ny,
            dz_m: vec![dz; layers],
            k_xy: vec![vec![k]; layers],
            k_z: vec![vec![k]; layers],
            power: {
                let mut p = vec![vec![0.0]; layers];
                p[layers - 1][0] = p_w;
                p
            },
            dies: vec![DieRegion {
                label: "slab".into(),
                is_logic: true,
                z_layer: layers - 1,
                x_range: (0, 1),
                y_range: (0, 1),
            }],
            top_die_mask: vec![false],
        };
        let bounds = Boundaries {
            h_top: 0.0,
            h_top_die: 0.0,
            h_side: 0.0,
            h_bottom: 1_000.0,
            board_spread_w_per_k: 0.0,
        };
        let field = solve_with_boundaries(&model, &SolveConfig::default(), &bounds).unwrap();
        let a = CELL_XY_M * CELL_XY_M;
        // Centre-to-centre conduction: (layers-1) full cells, plus half a
        // cell from the bottom centre to the boundary face.
        let r_cond = ((layers - 1) as f64 * dz + dz / 2.0) / (k * a);
        let r_conv = 1.0 / (1_000.0 * a);
        let expect = AMBIENT_C + p_w * (r_cond + r_conv);
        let got = field.layers[layers - 1][0];
        assert!(
            (got - expect).abs() / (expect - AMBIENT_C) < 0.01,
            "got {got}, expect {expect}"
        );
    }

    #[test]
    fn solver_converges_within_budget() {
        let model = ThermalModel::for_tech(InterposerKind::Glass3D).unwrap();
        let field = solve(&model, &SolveConfig::default()).unwrap();
        assert!(field.iterations < SolveConfig::default().max_iters);
    }

    /// FNV-1a-64 over every temperature's bit pattern, layers in `z`
    /// order and cells in index order.
    fn field_digest(field: &TemperatureField) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &t in field.layers.iter().flatten() {
            h ^= t.to_bits();
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    #[test]
    fn converged_fields_are_pinned_to_the_bit() {
        // Any change to the sweep's arithmetic or its summation order moves
        // these digests; a faster kernel must reproduce them exactly.
        let pinned: [(InterposerKind, u64, usize); 6] = [
            (InterposerKind::Glass25D, 0x9aa8_fdb8_d497_2d16, 1060),
            (InterposerKind::Glass3D, 0xb4a4_cfa2_1fc2_67e0, 1360),
            (InterposerKind::Silicon25D, 0xb8d3_b6bd_3974_6b00, 1062),
            (InterposerKind::Silicon3D, 0x6b96_1a34_dff2_2072, 828),
            (InterposerKind::Shinko, 0x8c89_2c72_a1d7_7db4, 691),
            (InterposerKind::Apx, 0x0107_9d76_f604_95fa, 1221),
        ];
        for (tech, digest, iterations) in pinned {
            let model = ThermalModel::for_tech(tech).unwrap();
            let field =
                solve_with_boundaries(&model, &SolveConfig::default(), &Boundaries::default())
                    .unwrap();
            assert_eq!(field.iterations, iterations, "{tech} iterations");
            assert_eq!(
                field_digest(&field),
                digest,
                "{tech} field digest {:016x}",
                field_digest(&field)
            );
        }
    }

    /// Heat leaving the assembly through every boundary, W: side walls,
    /// top (die backs and bare surface), bottom film and board spreading.
    fn boundary_outflow_w(model: &ThermalModel, field: &TemperatureField, b: &Boundaries) -> f64 {
        let (nx, ny, nz) = (model.nx, model.ny, model.nz());
        let a_xy = CELL_XY_M * CELL_XY_M;
        let rise = |z: usize, i: usize| field.layers[z][i] - AMBIENT_C;
        let mut side = 0.0;
        for z in 0..nz {
            let g = b.h_side * model.dz_m[z] * CELL_XY_M;
            for y in 0..ny {
                for x in 0..nx {
                    let walls = usize::from(x == 0)
                        + usize::from(x + 1 == nx)
                        + usize::from(y == 0)
                        + usize::from(y + 1 == ny);
                    side += walls as f64 * g * rise(z, y * nx + x);
                }
            }
        }
        let (mut top, mut bottom, mut board) = (0.0, 0.0, 0.0);
        for i in 0..nx * ny {
            let h = if model.top_die_mask[i] {
                b.h_top_die
            } else {
                b.h_top
            };
            top += h * a_xy * rise(nz - 1, i);
            bottom += b.h_bottom * a_xy * rise(0, i);
            board += b.board_spread_w_per_k / (nx * ny) as f64 * rise(0, i);
        }
        side + top + bottom + board
    }

    #[test]
    fn injected_power_leaves_through_the_boundaries() {
        // Steady state: the heat crossing the boundaries must equal the
        // injected power. The stopping rule bounds the per-sweep update,
        // not this imbalance, so the tolerance is loose (worst tech today
        // is APX at 4e-4).
        for tech in InterposerKind::PACKAGED {
            let model = ThermalModel::for_tech(tech).unwrap();
            let bounds = Boundaries::default();
            let field = solve_with_boundaries(&model, &SolveConfig::default(), &bounds).unwrap();
            let injected = model.total_power_w();
            let out = boundary_outflow_w(&model, &field, &bounds);
            let rel = (out - injected).abs() / injected;
            assert!(
                rel < 1e-3,
                "{tech}: {out} W out vs {injected} W in ({rel:.2e})"
            );
        }
    }
}
