//! Per-technology thermal reports (Figs. 16–18).

use crate::model::ThermalModel;
use crate::solver::{solve, SolveConfig, TemperatureField};
use crate::ThermalError;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use techlib::spec::{InterposerKind, InterposerSpec};
use techlib::store::{ArtifactStore, Codec, SpecField, StoreKey};

/// Peak chiplet and interposer temperatures for one assembly.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ThermalReport {
    /// Technology.
    pub tech: InterposerKind,
    /// Hottest logic-chiplet temperature, °C.
    pub logic_peak_c: f64,
    /// Hottest memory-chiplet temperature, °C.
    pub mem_peak_c: f64,
    /// Hotspot of the whole assembly, °C.
    pub assembly_peak_c: f64,
    /// Per-die peaks (label, °C).
    pub per_die_c: Vec<(String, f64)>,
}

impl ThermalReport {
    /// Builds the report from a solved field.
    pub fn from_field(model: &ThermalModel, field: &TemperatureField) -> ThermalReport {
        let mut per_die = Vec::new();
        let mut logic_peak = f64::NEG_INFINITY;
        let mut mem_peak = f64::NEG_INFINITY;
        for die in &model.dies {
            let t = field.peak_in(die.z_layer, die.x_range, die.y_range);
            if die.is_logic {
                logic_peak = logic_peak.max(t);
            } else {
                mem_peak = mem_peak.max(t);
            }
            per_die.push((die.label.clone(), t));
        }
        ThermalReport {
            tech: model.tech,
            logic_peak_c: logic_peak,
            mem_peak_c: mem_peak,
            assembly_peak_c: field.peak(),
            per_die_c: per_die,
        }
    }
}

/// Algorithm version of the thermal stage (model build + SOR solve).
/// Bump whenever the mesh, boundary conditions, solver tolerances, or
/// the serialized shape of [`ThermalReport`] changes.
pub const THERMAL_STAGE_VERSION: u32 = 1;

/// The spec fields the thermal stage actually consumes. The model is
/// built from the stacking style and the technology's fixed geometry
/// (`ThermalModel::for_spec` reads nothing else), so every electrical
/// override — loss tangent, wire rules, dielectric constant — shares
/// one solve.
pub const THERMAL_PROJECTION: &[SpecField] = &[SpecField::Kind, SpecField::Stacking];

/// The thermal stage's store key for `spec`.
pub fn thermal_store_key(spec: &InterposerSpec) -> StoreKey {
    techlib::store::projection_key(
        "thermal",
        THERMAL_STAGE_VERSION,
        spec,
        THERMAL_PROJECTION,
        &[],
    )
}

/// JSON codec for persisted thermal reports.
fn thermal_codec() -> Codec<ThermalReport> {
    Codec {
        encode: |report| serde_json::to_string(report).ok(),
        decode: |text| serde_json::from_str_typed(text).ok(),
    }
}

/// Builds the thermal model for `spec`, solves it and reports the peaks
/// — the uncached computation behind [`analyze_in`].
///
/// # Errors
///
/// Same as [`ThermalModel::for_spec`] and [`solve`].
pub fn analyze_with(spec: &InterposerSpec) -> Result<ThermalReport, ThermalError> {
    let model = ThermalModel::for_spec(spec)?;
    let field = solve(&model, &SolveConfig::default())?;
    Ok(ThermalReport::from_field(&model, &field))
}

/// The thermal report for `spec`, looked up in `store` under
/// [`thermal_store_key`]: every spec sharing the [`THERMAL_PROJECTION`]
/// shares one solve. The field is solved only on a miss, right after
/// `on_solve` (study contexts count their solves with it). The
/// `thermal.solve` fault site is checked ahead of the lookup, so an
/// armed fault fires even when the report is already stored.
///
/// # Errors
///
/// Same as [`analyze_with`], plus the `thermal.solve` fault site;
/// errors never reach the store.
pub fn analyze_in(
    store: &ArtifactStore,
    spec: &InterposerSpec,
    on_solve: impl FnOnce(),
) -> Result<Arc<ThermalReport>, ThermalError> {
    if techlib::faults::armed("thermal.solve") {
        return Err(ThermalError::NoConvergence {
            iterations: 0,
            residual_k: f64::INFINITY,
            tolerance_k: SolveConfig::default().tolerance_k,
        });
    }
    store
        .get_or_compute(thermal_store_key(spec), &thermal_codec(), || {
            on_solve();
            analyze_with(spec)
        })
        .map(|(report, _)| report)
}

/// The full Fig. 17 family (all six packaged assemblies).
///
/// # Errors
///
/// Returns the first [`ThermalError`] encountered, in Fig. 17 order.
pub fn figure17() -> Result<Vec<ThermalReport>, ThermalError> {
    [
        InterposerKind::Glass25D,
        InterposerKind::Glass3D,
        InterposerKind::Silicon25D,
        InterposerKind::Silicon3D,
        InterposerKind::Shinko,
        InterposerKind::Apx,
    ]
    .iter()
    .map(|&t| analyze_with(&InterposerSpec::for_kind(t)))
    .collect()
}

/// The paper-default report for `tech`, solved at most once per test
/// binary: every unit test of this crate reads one shared test store.
#[cfg(test)]
fn test_report(tech: InterposerKind) -> Arc<ThermalReport> {
    static STORE: std::sync::OnceLock<ArtifactStore> = std::sync::OnceLock::new();
    let store = STORE.get_or_init(ArtifactStore::in_memory);
    analyze_in(store, &InterposerSpec::for_kind(tech), || {}).unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AMBIENT_C;

    #[test]
    fn glass3d_memory_is_the_hottest_chiplet_of_the_study() {
        // Fig. 17: embedded memory at 34 °C versus 22–23 °C elsewhere.
        let g3 = test_report(InterposerKind::Glass3D);
        for other in [
            InterposerKind::Glass25D,
            InterposerKind::Silicon25D,
            InterposerKind::Shinko,
            InterposerKind::Apx,
        ] {
            let r = test_report(other);
            assert!(
                g3.mem_peak_c > r.mem_peak_c,
                "{other}: {} vs {}",
                g3.mem_peak_c,
                r.mem_peak_c
            );
        }
    }

    #[test]
    fn glass3d_temperatures_match_fig17_scale() {
        let g3 = test_report(InterposerKind::Glass3D);
        // Paper: memory 34 °C, logic 27 °C at 20 °C-class ambient.
        assert!(
            (28.0..42.0).contains(&g3.mem_peak_c),
            "mem = {}",
            g3.mem_peak_c
        );
        assert!(
            (23.0..33.0).contains(&g3.logic_peak_c),
            "logic = {}",
            g3.logic_peak_c
        );
        assert!(g3.mem_peak_c > g3.logic_peak_c + 2.0);
    }

    #[test]
    fn logic_chiplets_sit_in_the_27_to_29_band() {
        for tech in [
            InterposerKind::Glass25D,
            InterposerKind::Silicon25D,
            InterposerKind::Shinko,
            InterposerKind::Apx,
        ] {
            let r = test_report(tech);
            assert!(
                (23.0..33.0).contains(&r.logic_peak_c),
                "{tech}: logic = {}",
                r.logic_peak_c
            );
            assert!(r.logic_peak_c > r.mem_peak_c, "{tech}");
        }
    }

    #[test]
    fn non_glass3d_memory_stays_cool() {
        // Fig. 17: 22–23 °C for side-by-side memory chiplets.
        for tech in [InterposerKind::Silicon25D, InterposerKind::Shinko] {
            let r = test_report(tech);
            assert!(
                (AMBIENT_C + 1.0..AMBIENT_C + 7.0).contains(&r.mem_peak_c),
                "{tech}: mem = {}",
                r.mem_peak_c
            );
        }
    }

    #[test]
    fn si3d_stack_runs_hotter_than_si25d() {
        // The conclusion's trade-off: Silicon 3D "suffers from higher
        // thermal dissipation".
        let s3 = test_report(InterposerKind::Silicon3D);
        let s25 = test_report(InterposerKind::Silicon25D);
        assert!(s3.assembly_peak_c > s25.assembly_peak_c);
    }

    #[test]
    fn silicon_interposer_spreads_heat_best_among_25d() {
        // Fig. 18: silicon's hotspots merge and flatten; glass traps heat
        // under the chiplets.
        let si = test_report(InterposerKind::Silicon25D);
        let gl = test_report(InterposerKind::Glass25D);
        assert!(si.assembly_peak_c < gl.assembly_peak_c);
    }
}

#[cfg(test)]
mod diag {
    use super::*;
    #[test]
    fn print_all_temps() {
        for tech in InterposerKind::PACKAGED {
            let r = test_report(tech);
            eprintln!(
                "{:<14} logic {:>6.2} mem {:>6.2} assembly {:>6.2}",
                r.tech.label(),
                r.logic_peak_c,
                r.mem_peak_c,
                r.assembly_peak_c
            );
        }
    }
}
