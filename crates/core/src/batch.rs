//! The batch design-space engine: run many scenarios through one
//! process, in parallel, with per-scenario isolation.
//!
//! Each scenario gets its own [`StudyContext`]. Every call builds one
//! [`ArtifactStore`] (in memory, unless the caller passes one), and the
//! *clean* scenarios (no injected faults) share it together with one
//! [`FrontEnd`] over it: scenarios whose stage keys coincide share one
//! computation, so a sweep solves each distinct thermal field once and
//! splits the design once. Scenarios with fault sites get a private
//! front end over a private throwaway store *and* a thread-scoped fault
//! scope ([`techlib::faults::scoped`]), so an injected failure fires
//! only inside that scenario's worker (and any nested parallelism it
//! spawns) and can never surface in — or poison the store of — a
//! sibling scenario.
//!
//! [`run`] fans scenarios out across scoped threads with
//! [`crate::exec::ordered_map_heaviest_first`], the scenarios with the
//! largest routing grids claimed first; outcomes come back in input
//! order and are byte-identical to [`run_sequential`] (fixed-seed RNG,
//! order-preserving fan-out, per-scenario state).

use crate::context::{FrontEnd, StudyContext};
use crate::flow::{run_tech_in, TechStudy};
use crate::scenario::Scenario;
use crate::{exec, FlowError};
use std::sync::Arc;
use techlib::store::ArtifactStore;

/// Runs every scenario, in parallel, one [`Result`] per scenario in
/// input order. A scenario's failure is *its own outcome* — it does not
/// abort the batch or disturb sibling scenarios.
///
/// # Errors
///
/// [`FlowError::InvalidConfig`] if `CODESIGN_THREADS` is set to garbage;
/// per-scenario failures are reported inside the returned vector.
pub fn run(scenarios: &[Scenario]) -> Result<Vec<Result<TechStudy, FlowError>>, FlowError> {
    run_with_store(scenarios, None)
}

/// [`run`] over a caller-supplied [`ArtifactStore`] (a fresh in-memory
/// one when `None`): clean scenarios whose stage keys coincide share one
/// computation across their contexts (and, with a disk-backed store,
/// across processes). Faulty scenarios never see the store — an
/// injected failure must not read from or write to shared state.
/// Outputs are byte-identical to running each scenario alone in its
/// own context, at any worker count.
///
/// # Errors
///
/// Same as [`run`].
pub fn run_with_store(
    scenarios: &[Scenario],
    store: Option<Arc<ArtifactStore>>,
) -> Result<Vec<Result<TechStudy, FlowError>>, FlowError> {
    // Surface a malformed CODESIGN_THREADS as a typed error up front.
    techlib::par::try_thread_count()?;
    let contexts = build_contexts(scenarios, store);
    let indices: Vec<usize> = (0..scenarios.len()).collect();
    Ok(exec::ordered_map_heaviest_first(
        &indices,
        |&i| interposer::report::routing_grid_nodes(contexts[i].spec(scenarios[i].tech())),
        |&i| run_in_context(&contexts[i], &scenarios[i]),
    ))
}

/// Sequential reference implementation of [`run`] (same contexts, same
/// store sharing, one scenario at a time). Kept callable for
/// benchmarking and the determinism integration test.
pub fn run_sequential(scenarios: &[Scenario]) -> Vec<Result<TechStudy, FlowError>> {
    run_sequential_with_store(scenarios, None)
}

/// Sequential reference implementation of [`run_with_store`].
pub fn run_sequential_with_store(
    scenarios: &[Scenario],
    store: Option<Arc<ArtifactStore>>,
) -> Vec<Result<TechStudy, FlowError>> {
    let contexts = build_contexts(scenarios, store);
    scenarios
        .iter()
        .zip(&contexts)
        .map(|(scenario, ctx)| run_in_context(ctx, scenario))
        .collect()
}

/// One context per scenario: clean scenarios share one store and a
/// front end over it, faulty ones are fully private (a shared store
/// plus an armed `partition.split` fault would make *which* scenario
/// surfaces the fault a race, and a hit on a sibling's artifact would
/// skip the armed site altogether).
fn build_contexts(scenarios: &[Scenario], store: Option<Arc<ArtifactStore>>) -> Vec<StudyContext> {
    let store = store.unwrap_or_else(|| Arc::new(ArtifactStore::in_memory()));
    let shared = Arc::new(FrontEnd::with_store(Arc::clone(&store)));
    scenarios
        .iter()
        .map(|scenario| {
            if scenario.is_clean() {
                StudyContext::for_scenario_with(
                    scenario,
                    Arc::clone(&shared),
                    Some(Arc::clone(&store)),
                )
            } else {
                StudyContext::for_scenario(scenario)
            }
        })
        .collect()
}

/// Renders sweep outcomes as the machine-readable JSON array `codesign
/// sweep --json` prints: one `{"scenario": …, "study": …}` (or
/// `{"scenario": …, "error": …}`) object per scenario, in input order,
/// no trailing newline. The `codesign serve` daemon returns exactly
/// this string as its response body, so the CLI and the service are
/// byte-identical by construction — they share this renderer.
///
/// # Errors
///
/// [`FlowError::InvalidConfig`] if a study fails to serialize (not
/// reachable for any study the flow can actually produce).
pub fn sweep_json(
    scenarios: &[Scenario],
    outcomes: &[Result<TechStudy, FlowError>],
) -> Result<String, FlowError> {
    fn to_json<T: serde::Serialize>(value: &T) -> Result<String, FlowError> {
        serde_json::to_string(value).map_err(|e| FlowError::InvalidConfig {
            reason: format!("sweep serialization: {e}"),
        })
    }
    let mut out = String::from("[");
    for (i, (scenario, outcome)) in scenarios.iter().zip(outcomes).enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"scenario\":");
        out.push_str(&to_json(&scenario.name())?);
        let (key, value) = match outcome {
            Ok(study) => (",\"study\":", to_json(study)?),
            Err(e) => (",\"error\":", to_json(&e.to_string())?),
        };
        out.push_str(key);
        out.push_str(&value);
        out.push('}');
    }
    out.push(']');
    Ok(out)
}

/// Runs `scenario` inside `ctx`, arming its fault sites (if any) in a
/// scope local to the calling thread and the workers it spawns.
///
/// # Errors
///
/// Propagates the scenario's flow failure, including injected faults.
pub fn run_in_context(ctx: &StudyContext, scenario: &Scenario) -> Result<TechStudy, FlowError> {
    let _scope = if scenario.is_clean() {
        None
    } else {
        Some(techlib::faults::scoped(
            scenario.fault_sites().iter().cloned(),
        ))
    };
    // One whole-scenario span wrapping the per-stage spans recorded by
    // `run_tech_in` (which installs its own finer-grained label).
    let _label = techlib::obs::label_scope_with(|| scenario.name().to_string());
    let _span = techlib::obs::span("scenario.run");
    run_tech_in(ctx, scenario.tech(), scenario.mode())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioOverrides;
    use crate::table5::MonitorLengths;
    use techlib::spec::InterposerKind;

    #[test]
    fn sweep_json_renders_typed_error_rows() {
        let scenarios = vec![Scenario::paper(InterposerKind::Glass3D)];
        let outcomes = vec![Err(FlowError::Deadline {
            stage: "stage.route",
        })];
        let body = sweep_json(&scenarios, &outcomes).unwrap();
        assert_eq!(
            body,
            format!(
                "[{{\"scenario\":\"{}\",\"error\":\"deadline exceeded at stage.route\"}}]",
                scenarios[0].name()
            )
        );
    }

    #[test]
    fn a_faulty_scenario_fails_alone() {
        let scenarios = vec![
            Scenario::paper(InterposerKind::Glass3D),
            Scenario::new(
                "broken-thermal",
                InterposerKind::Glass3D,
                MonitorLengths::Routed,
                ScenarioOverrides::default(),
                vec!["thermal.solve".to_string()],
            )
            .unwrap(),
        ];
        let outcomes = run(&scenarios).unwrap();
        assert!(outcomes[0].is_ok(), "{:?}", outcomes[0]);
        assert!(
            matches!(outcomes[1], Err(FlowError::NoConvergence { .. })),
            "{:?}",
            outcomes[1]
        );
    }

    #[test]
    fn overridden_scenarios_diverge_from_the_paper_point() {
        let scenarios = vec![
            Scenario::paper(InterposerKind::Glass25D),
            Scenario::new(
                "coarse-pitch",
                InterposerKind::Glass25D,
                MonitorLengths::Routed,
                ScenarioOverrides {
                    microbump_pitch_um: Some(55.0),
                    ..Default::default()
                },
                Vec::new(),
            )
            .unwrap(),
        ];
        let outcomes = run_sequential(&scenarios);
        let paper = outcomes[0].as_ref().unwrap();
        let coarse = outcomes[1].as_ref().unwrap();
        assert!(
            coarse.logic.footprint.width_um > paper.logic.footprint.width_um,
            "coarser bumps need a bigger die: {} vs {}",
            coarse.logic.footprint.width_um,
            paper.logic.footprint.width_um
        );
    }
}
