//! `paper_cold`: one cold six-technology study per operation, the
//! paper's own result, checked against the pinned studies hash.

use crate::layers::{self, Counters};
use crate::{procfs, stats, Outcome, Run, CHILD_SETUPS};
use codesign::context::StudyContext;
use codesign::flow::{self, TechStudy};
use codesign::scenario::Scenario;
use codesign::table5::MonitorLengths;
use codesign::FlowError;
use std::time::Instant;
use techlib::spec::InterposerKind;

const MODE: MonitorLengths = MonitorLengths::Routed;

/// Set-up: a fresh paper context with its front end and the chiplet
/// reports of every technology (the netlist and chiplet layers).
pub fn set_up() -> Result<(), String> {
    let ctx = StudyContext::paper();
    for tech in InterposerKind::PACKAGED {
        ctx.chiplet_reports(tech).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Checks a study against the pinned hash of its serialized form.
fn check(r: &Run, result: Result<Vec<TechStudy>, FlowError>) -> Result<(), String> {
    let studies = result.map_err(|e| format!("paper study: {e}"))?;
    let json = serde_json::to_string(&studies).map_err(|e| e.to_string())?;
    let hash = stats::fnv1a(json.as_bytes());
    if hash != r.pins.studies_hash {
        return Err(format!(
            "studies hash {hash:016x} differs from the pinned {:016x}",
            r.pins.studies_hash
        ));
    }
    Ok(())
}

pub fn run(r: &Run) -> Result<Outcome, String> {
    let ((), setup_s) = r.setup(CHILD_SETUPS, || r.child_setup("paper_cold"))?;
    let mut out = Outcome::default();
    if r.trace {
        traced(r, &mut out)?;
        return Ok(out);
    }
    let (mut walls, mut ok_walls, mut peak_rss_mb) = (Vec::new(), Vec::new(), None);
    let phase = Instant::now();
    while out.attempted == 0 || phase.elapsed() < r.budget() {
        let ctx = StudyContext::paper();
        let t = Instant::now();
        let result = flow::run_all_in(&ctx, MODE);
        let wall = t.elapsed().as_secs_f64();
        if peak_rss_mb.is_none() {
            peak_rss_mb = Some(procfs::peak_rss_mb(None)?);
        }
        out.attempted += 1;
        walls.push(wall);
        match check(r, result) {
            Ok(()) => ok_walls.push(wall),
            Err(e) => out.fail(e),
        }
    }
    let total_wall: f64 = walls.iter().sum();
    out.set("setup_s", setup_s);
    out.set(
        "latency_ms",
        stats::median(&ok_walls).unwrap_or(total_wall) * 1e3,
    );
    out.set(
        "throughput_per_s",
        (ok_walls.len() * InterposerKind::PACKAGED.len()) as f64 / total_wall,
    );
    out.set("peak_rss_mb", peak_rss_mb.unwrap_or(0.0));
    Ok(out)
}

/// The traced run: one untraced study (and its CPU time), the same
/// study traced (fanned out by the bench, so each technology's busy
/// time is seen), then the layer walk over a third fresh context.
fn traced(r: &Run, out: &mut Outcome) -> Result<(), String> {
    let cpu0 = procfs::cpu_s(None)?;
    let t = Instant::now();
    let untraced = flow::run_all_in(&StudyContext::paper(), MODE);
    let untraced_s = t.elapsed().as_secs_f64();
    out.set("cpu_s", procfs::cpu_s(None)? - cpu0);
    out.attempted += 1;
    if let Err(e) = check(r, untraced) {
        out.fail(e);
    }

    techlib::obs::enable();
    techlib::obs::reset();
    let ctx = StudyContext::paper();
    let before = Counters::now();
    let t = Instant::now();
    let (outcomes, busy_s) = layers::timed_fan_out(&InterposerKind::PACKAGED, |&tech| {
        flow::run_tech_in(&ctx, tech, MODE)
    });
    let traced_s = t.elapsed().as_secs_f64();
    layers::set_counter_metrics(out, &Counters::now().since(&before));
    layers::set_compute_metrics(out, &ctx.compute_counts());
    out.set("exec.busy_ratio", busy_s / (traced_s * r.workers as f64));
    out.set(
        "trace.overhead_ratio",
        stats::overhead_ratio(traced_s, untraced_s).unwrap_or(0.0),
    );
    let scenarios: Vec<Scenario> = InterposerKind::PACKAGED.map(Scenario::paper).to_vec();
    let t = Instant::now();
    let body = codesign::batch::sweep_json(&scenarios, &outcomes).map_err(|e| e.to_string())?;
    out.set("batch.render_ms", t.elapsed().as_secs_f64() * 1e3);
    out.set("batch.response_bytes", body.len() as f64);
    out.attempted += 1;
    if let Err(e) = check(r, outcomes.into_iter().collect()) {
        out.fail(e);
    }

    let ctx = StudyContext::paper();
    let items: Vec<_> = InterposerKind::PACKAGED
        .iter()
        .map(|&tech| (&ctx, tech, MODE))
        .collect();
    out.attempted += 1;
    match layers::walk(&items) {
        Ok(walk) => layers::set_walk_metrics(out, &walk),
        Err(e) => out.fail(format!("layer walk: {e}")),
    }
    Ok(())
}
