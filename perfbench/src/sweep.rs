//! `sweep_variants`: a seeded design-space sweep through the CLI's
//! default path (`batch::run`, no artifact store), checked row by row
//! against `batch::run_sequential` on the same list.

use crate::layers::{self, Counters};
use crate::{inputs, procfs, stats, Outcome, Run, CHILD_SETUPS};
use codesign::batch;
use codesign::context::{FrontEnd, StudyContext};
use codesign::flow::TechStudy;
use codesign::scenario::{scenarios_from_json, Scenario};
use codesign::FlowError;
use std::sync::Arc;
use std::time::Instant;

/// Set-up: generate and parse the scenario file, then build the front
/// end the batch shares between clean scenarios.
pub fn set_up(seed: u64) -> Result<Vec<Scenario>, String> {
    let scenarios = scenarios_from_json(&inputs::sweep_json(seed)).map_err(|e| e.to_string())?;
    FrontEnd::new()
        .chiplet_netlists()
        .map_err(|e| e.to_string())?;
    Ok(scenarios)
}

/// One rendered `sweep --json` row per scenario.
fn rows(scenarios: &[Scenario], outcomes: &[Result<TechStudy, FlowError>]) -> Vec<String> {
    (0..scenarios.len())
        .map(|i| {
            batch::sweep_json(&scenarios[i..=i], &outcomes[i..=i])
                .unwrap_or_else(|e| format!("render failed: {e}"))
        })
        .collect()
}

/// Compares one batch with the reference rows; every errored or
/// differing scenario is a failed operation.
fn check(
    out: &mut Outcome,
    scenarios: &[Scenario],
    outcomes: &[Result<TechStudy, FlowError>],
    reference: &[String],
) {
    let got = rows(scenarios, outcomes);
    for (i, outcome) in outcomes.iter().enumerate() {
        out.attempted += 1;
        match outcome {
            Err(e) => out.fail(format!("scenario {}: {e}", scenarios[i].name())),
            Ok(_) if got[i] != reference[i] => out.fail(format!(
                "scenario {}: bytes differ from the sequential reference",
                scenarios[i].name()
            )),
            Ok(_) => {}
        }
    }
}

pub fn run(r: &Run) -> Result<Outcome, String> {
    let ((), setup_s) = r.setup(CHILD_SETUPS, || r.child_setup("sweep_variants"))?;
    let scenarios = set_up(r.seed)?;
    let mut out = Outcome::default();
    if r.trace {
        traced(r, &scenarios, &mut out)?;
        return Ok(out);
    }
    let (mut walls, mut batches, mut peak_rss_mb) = (Vec::new(), Vec::new(), None);
    let phase = Instant::now();
    while batches.is_empty() || phase.elapsed() < r.budget() {
        let t = Instant::now();
        let outcomes = batch::run(&scenarios).map_err(|e| e.to_string())?;
        walls.push(t.elapsed().as_secs_f64());
        if peak_rss_mb.is_none() {
            peak_rss_mb = Some(procfs::peak_rss_mb(None)?);
        }
        batches.push(outcomes);
    }

    let reference = rows(&scenarios, &batch::run_sequential(&scenarios));
    for outcomes in &batches {
        check(&mut out, &scenarios, outcomes, &reference);
    }
    let total_wall: f64 = walls.iter().sum();
    let ok = out.attempted - out.failed;
    out.set("setup_s", setup_s);
    out.set("latency_ms", stats::median(&walls).unwrap_or(0.0) * 1e3);
    out.set("throughput_per_s", ok as f64 / total_wall);
    out.set("peak_rss_mb", peak_rss_mb.unwrap_or(0.0));
    Ok(out)
}

/// The batch's contexts, built as `batch::run` builds them for clean
/// scenarios: one shared front end, private spec-dependent caches.
fn contexts(scenarios: &[Scenario]) -> Vec<StudyContext> {
    let frontend = Arc::new(FrontEnd::new());
    scenarios
        .iter()
        .map(|s| StudyContext::for_scenario_with(s, Arc::clone(&frontend), None))
        .collect()
}

/// The traced run: one untraced batch (and its CPU time), the same
/// batch traced (fanned out by the bench over the batch's own contexts,
/// so each scenario's busy time and compute counts are seen), then the
/// layer walk.
fn traced(r: &Run, scenarios: &[Scenario], out: &mut Outcome) -> Result<(), String> {
    let cpu0 = procfs::cpu_s(None)?;
    let t = Instant::now();
    let untraced = batch::run(scenarios).map_err(|e| e.to_string())?;
    let untraced_s = t.elapsed().as_secs_f64();
    out.set("cpu_s", procfs::cpu_s(None)? - cpu0);

    techlib::obs::enable();
    techlib::obs::reset();
    let ctxs = contexts(scenarios);
    let indices: Vec<usize> = (0..scenarios.len()).collect();
    let before = Counters::now();
    let t = Instant::now();
    let (traced, busy_s) = layers::timed_fan_out(&indices, |&i| {
        batch::run_in_context(&ctxs[i], &scenarios[i])
    });
    let traced_s = t.elapsed().as_secs_f64();
    layers::set_counter_metrics(out, &Counters::now().since(&before));
    let refs: Vec<&StudyContext> = ctxs.iter().collect();
    layers::set_compute_metrics(out, &layers::sum_computes(&refs));
    out.set("exec.busy_ratio", busy_s / (traced_s * r.workers as f64));
    out.set(
        "trace.overhead_ratio",
        stats::overhead_ratio(traced_s, untraced_s).unwrap_or(0.0),
    );
    let t = Instant::now();
    let body = batch::sweep_json(scenarios, &traced).map_err(|e| e.to_string())?;
    out.set("batch.render_ms", t.elapsed().as_secs_f64() * 1e3);
    out.set("batch.response_bytes", body.len() as f64);

    let ctxs = contexts(scenarios);
    let items: Vec<_> = scenarios
        .iter()
        .zip(&ctxs)
        .map(|(s, ctx)| (ctx, s.tech(), s.mode()))
        .collect();
    out.attempted += 1;
    match layers::walk(&items) {
        Ok(walk) => layers::set_walk_metrics(out, &walk),
        Err(e) => out.fail(format!("layer walk: {e}")),
    }

    let reference = rows(scenarios, &batch::run_sequential(scenarios));
    check(out, scenarios, &untraced, &reference);
    check(out, scenarios, &traced, &reference);
    Ok(())
}
