//! One-call end-to-end study per technology.
//!
//! [`run_tech_in`] runs the flow for one technology and [`run_all_in`]
//! for all six, each against the [`StudyContext`] it is given: the
//! context's resolved specs decide what is computed and its store
//! decides what is shared. The paper's own study is
//! `run_all_in(&StudyContext::paper(), MonitorLengths::Routed)`.

use crate::context::StudyContext;
use crate::fullchip::{rollup, FullChipReport};
use crate::scenario::Scenario;
use crate::table5::{row_in, MonitorLengths, Table5Row};
use crate::{batch, exec, FlowError};
use chiplet::report::ChipletReport;
use interposer::stats::RoutingStats;
use serde::Serialize;
use techlib::spec::{InterposerKind, Stacking};
use thermal::report::ThermalReport;

/// Everything the study produces for one technology.
#[derive(Debug, Clone, Serialize)]
pub struct TechStudy {
    /// Technology.
    pub tech: InterposerKind,
    /// Logic-chiplet physical design (Table III).
    pub logic: ChipletReport,
    /// Memory-chiplet physical design (Table III).
    pub memory: ChipletReport,
    /// Interposer routing statistics (Table IV), if the technology has a
    /// routed interposer.
    pub routing: Option<RoutingStats>,
    /// Worst-net link analysis (Table V).
    pub links: Table5Row,
    /// Full-chip roll-up (Table IV power row, Section VII-H timing).
    pub fullchip: FullChipReport,
    /// Thermal peaks (Fig. 17).
    pub thermal: ThermalReport,
}

/// Runs the flow for `tech` against an explicit study context — the
/// scenario-scoped form. Every artifact (chiplet reports, routed
/// layout, link channels, thermal field) comes from `ctx`'s store and
/// resolved specs.
///
/// # Errors
///
/// Propagates netlist, routing and simulation failures.
pub fn run_tech_in(
    ctx: &StudyContext,
    tech: InterposerKind,
    mode: MonitorLengths,
) -> Result<TechStudy, FlowError> {
    // Observability: attribute every span below to this (scenario, tech)
    // pair, and walk the stored front-end chain stage by stage so each
    // run records one span per stage even when the artifact is a store
    // hit. The explicit walk is semantically identical to letting
    // `chiplet_reports` pull the chain in — same store entries, same
    // error propagation order (split before chipletize before placement).
    //
    // Each stage opens with a cooperative cancellation poll
    // (`techlib::cancel::check`): outside a deadline scope the poll is a
    // free no-op, inside one (the `codesign serve` request path) an
    // expired deadline abandons the run *between* stages, so stored
    // artifacts are always either absent or complete.
    let _label = techlib::obs::label_scope_with(|| format!("{}:{}", ctx.label(), tech.label()));
    step("stage.design", || Ok(ctx.design()))?;
    step("stage.split", || ctx.split())?;
    step("stage.chipletize", || ctx.chiplet_netlists())?;
    let reports = step("stage.chiplet_reports", || ctx.chiplet_reports(tech))?;
    let (logic, memory) = &*reports;
    let routing = if matches!(
        ctx.spec(tech).stacking,
        Stacking::TsvStack | Stacking::Monolithic
    ) {
        None
    } else {
        Some(step("stage.route", || ctx.layout(tech))?.stats.clone())
    };
    // The link transients and the thermal solve touch no shared state, so
    // they overlap when a pool worker is free; otherwise (and on warm
    // store hits, which finish before a worker wakes) both run on this
    // thread. Error priority mirrors the sequential statement order:
    // links first, then thermal.
    let (links, thermal) = exec::join(
        || step("stage.si_links", || row_in(ctx, tech, mode)),
        || step("stage.thermal", || ctx.thermal_report(tech)),
    );
    let links = links?;
    let thermal = (*thermal?).clone();
    // Roll up from the already-computed reports and links; the seed flow
    // called `fullchip()` here, which re-simulated both links.
    let fullchip = step("stage.fullchip", || Ok(rollup(tech, logic, memory, &links)))?;
    Ok(TechStudy {
        tech,
        logic: logic.clone(),
        memory: memory.clone(),
        routing,
        links,
        fullchip,
        thermal,
    })
}

/// One stage of [`run_tech_in`]: a cooperative cancellation poll, then
/// `run` inside the stage's span.
fn step<T>(
    stage: &'static str,
    run: impl FnOnce() -> Result<T, FlowError>,
) -> Result<T, FlowError> {
    techlib::cancel::check(stage)?;
    let _span = techlib::obs::span(stage);
    run()
}

/// Runs one [`Scenario`] in a private context, with its fault sites (if
/// any) armed in a scope local to this run. Equivalent to a one-entry
/// [`crate::batch::run`].
///
/// # Errors
///
/// Propagates the scenario's flow failure.
pub fn run_scenario(scenario: &Scenario) -> Result<TechStudy, FlowError> {
    batch::run_in_context(&StudyContext::for_scenario(scenario), scenario)
}

/// Runs the study for all six packaged technologies against `ctx`,
/// fanning the independent per-technology studies out across scoped
/// threads. Results are in `PACKAGED` order and byte-identical to
/// [`run_all_sequential`] — every study is self-contained and all RNG
/// is fixed-seed.
///
/// The routed study dominates each technology's cost and varies 200×
/// between technologies, so the studies are claimed in descending order
/// of routing-grid nodes ([`interposer::report::routing_grid_nodes`]):
/// APX, the longest route, starts at once instead of after four others,
/// and the makespan is bounded by its own study.
///
/// # Errors
///
/// [`FlowError::InvalidConfig`] if `CODESIGN_THREADS` is set to garbage,
/// otherwise per-technology failures (first failing technology in
/// `PACKAGED` order, matching the sequential path).
pub fn run_all_in(ctx: &StudyContext, mode: MonitorLengths) -> Result<Vec<TechStudy>, FlowError> {
    // Surface a malformed CODESIGN_THREADS as a typed error up front
    // instead of silently falling back to the default parallelism.
    techlib::par::try_thread_count()?;
    exec::ordered_map_heaviest_first(
        &InterposerKind::PACKAGED,
        |&tech| interposer::report::routing_grid_nodes(ctx.spec(tech)),
        |&tech| run_tech_in(ctx, tech, mode),
    )
    .into_iter()
    .collect()
}

/// Sequential reference implementation of [`run_all_in`] (same work,
/// one technology at a time). Kept callable for benchmarking and for
/// the determinism integration test.
///
/// # Errors
///
/// Propagates per-technology failures.
pub fn run_all_sequential(
    ctx: &StudyContext,
    mode: MonitorLengths,
) -> Result<Vec<TechStudy>, FlowError> {
    InterposerKind::PACKAGED
        .iter()
        .map(|&tech| run_tech_in(ctx, tech, mode))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::test_context;

    fn paper_study(tech: InterposerKind) -> Result<TechStudy, FlowError> {
        run_tech_in(test_context(), tech, MonitorLengths::Routed)
    }

    #[test]
    fn glass_3d_study_is_complete() {
        let s = paper_study(InterposerKind::Glass3D).unwrap();
        assert_eq!(s.tech, InterposerKind::Glass3D);
        assert!(s.routing.is_some());
        assert!(s.fullchip.total_power_mw > 300.0);
        assert!(s.thermal.mem_peak_c > s.thermal.logic_peak_c);
        assert_eq!(s.logic.footprint_mm, s.memory.footprint_mm);
    }

    #[test]
    fn silicon_3d_study_has_no_interposer() {
        let s = paper_study(InterposerKind::Silicon3D).unwrap();
        assert!(s.routing.is_none());
        assert!(s.links.l2m.interconnect_delay_ps < 2.0);
    }

    #[test]
    fn study_serializes_to_json() {
        let s = paper_study(InterposerKind::Glass3D).unwrap();
        let json = serde_json::to_string(&s).unwrap();
        assert!(json.contains("Glass3D"));
        assert!(json.len() > 1000);
    }

    #[test]
    fn scenario_run_matches_the_default_path() {
        let default = paper_study(InterposerKind::Glass3D).unwrap();
        let scenario = run_scenario(&Scenario::paper(InterposerKind::Glass3D)).unwrap();
        assert_eq!(
            serde_json::to_string(&default).unwrap(),
            serde_json::to_string(&scenario).unwrap(),
            "the paper scenario is byte-identical to the paper context"
        );
    }
}
