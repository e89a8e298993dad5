//! The traced layer walk: every layer's public entry point called one
//! at a time from the benchmark, timed around the call, with the
//! library's existing `techlib::obs` counters read before and after.
//! Nothing here adds a span or a counter inside the program.

use crate::Outcome;
use codesign::context::{ComputeCounts, StudyContext};
use codesign::table5::MonitorLengths;
use codesign::FlowError;
use std::time::Instant;
use techlib::spec::{InterposerKind, Stacking};

/// A snapshot of every registered `techlib::obs` counter.
#[derive(Debug, Clone, Default)]
pub struct Counters(Vec<(&'static str, u64)>);

impl Counters {
    pub fn now() -> Counters {
        Counters(techlib::obs::counter_totals())
    }

    /// A counter's value; 0 for a name the program does not register.
    pub fn get(&self, name: &str) -> u64 {
        self.0
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |&(_, v)| v)
    }

    /// Counts added between `earlier` and `self`.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters(
            self.0
                .iter()
                .map(|&(name, v)| (name, v.saturating_sub(earlier.get(name))))
                .collect(),
        )
    }

    /// A* pops. The program counts them twice (heap and bucket frontier
    /// agree); the larger survives either being retired.
    pub fn router_pops(&self) -> u64 {
        self.get("router.heap_pops")
            .max(self.get("router.bucket_pops"))
    }
}

/// Wall time per layer and the counters each layer's calls added.
#[derive(Debug, Default)]
pub struct Walk {
    pub split_ms: f64,
    pub chipletize_ms: f64,
    pub reports_ms: f64,
    /// Place-and-route time per technology, `InterposerKind::index` order.
    pub layout_ms: [f64; InterposerKind::COUNT],
    pub route_pops: u64,
    pub thermal_ms: f64,
    /// Sum over thermal solves of model cells times SOR sweeps.
    pub cell_sweeps: f64,
    pub links_ms: f64,
    pub lu_solves: u64,
}

impl Walk {
    pub fn layout_total_ms(&self) -> f64 {
        self.layout_ms.iter().sum()
    }
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e3)
}

/// Walks the study of each `(context, technology, mode)` triple through the
/// layers in flow order — split, chipletize, chiplet reports, place and
/// route, links, thermal — one call at a time. Recording must be on
/// (`techlib::obs::enable`) for the counters to move.
///
/// # Errors
///
/// The first layer failure.
pub fn walk(items: &[(&StudyContext, InterposerKind, MonitorLengths)]) -> Result<Walk, FlowError> {
    let mut w = Walk::default();
    for &(ctx, tech, mode) in items {
        let (r, ms) = timed(|| ctx.split().map(drop));
        r?;
        w.split_ms += ms;
        let (r, ms) = timed(|| ctx.chiplet_netlists().map(drop));
        r?;
        w.chipletize_ms += ms;
        let (r, ms) = timed(|| ctx.chiplet_reports(tech).map(drop));
        r?;
        w.reports_ms += ms;
        if !matches!(
            ctx.spec(tech).stacking,
            Stacking::TsvStack | Stacking::Monolithic
        ) {
            let before = Counters::now();
            let (r, ms) = timed(|| ctx.layout(tech).map(drop));
            r?;
            w.layout_ms[tech.index()] += ms;
            w.route_pops += Counters::now().since(&before).router_pops();
        }
        let before = Counters::now();
        let (r, ms) = timed(|| ctx.links_row(tech, mode).map(drop));
        r?;
        w.links_ms += ms;
        w.lu_solves += Counters::now().since(&before).get("circuit.lu_solve");

        let before = Counters::now();
        let (r, ms) = timed(|| ctx.thermal_report(tech).map(drop));
        r?;
        w.thermal_ms += ms;
        let sweeps = Counters::now().since(&before).get("thermal.sor_sweeps");
        let model =
            thermal::model::ThermalModel::for_spec(ctx.spec(tech)).map_err(FlowError::from)?;
        w.cell_sweeps += (model.nx * model.ny * model.nz()) as f64 * sweeps as f64;
    }
    Ok(w)
}

/// Sums the compute counts of every distinct context (`contexts` may
/// share a front end; its split and chipletize counts are taken once).
pub fn sum_computes(contexts: &[&StudyContext]) -> ComputeCounts {
    let mut total = ComputeCounts {
        split: 0,
        netlists: 0,
        reports: 0,
        layouts: 0,
        links: 0,
        thermal: 0,
    };
    let mut seen_frontends = Vec::new();
    for ctx in contexts {
        let c = ctx.compute_counts();
        let frontend = std::sync::Arc::as_ptr(ctx.frontend());
        if !seen_frontends.contains(&frontend) {
            seen_frontends.push(frontend);
            total.split += c.split;
            total.netlists += c.netlists;
        }
        total.reports += c.reports;
        total.layouts += c.layouts;
        total.links += c.links;
        total.thermal += c.thermal;
    }
    total
}

/// Sets the per-layer metrics of a layer walk: wall time per layer and
/// the kernel rates its counters give (time per A* pop, per thermal
/// cell-sweep, per LU solve).
pub fn set_walk_metrics(out: &mut Outcome, w: &Walk) {
    out.set("netlist.split_ms", w.split_ms);
    out.set("netlist.chipletize_ms", w.chipletize_ms);
    out.set("chiplet.reports_ms", w.reports_ms);
    out.set("interposer.layout_ms", w.layout_total_ms());
    for (name, kind) in [
        ("interposer.layout_ms.apx", InterposerKind::Apx),
        ("interposer.layout_ms.shinko", InterposerKind::Shinko),
        ("interposer.layout_ms.glass25d", InterposerKind::Glass25D),
        (
            "interposer.layout_ms.silicon25d",
            InterposerKind::Silicon25D,
        ),
        ("interposer.layout_ms.glass3d", InterposerKind::Glass3D),
    ] {
        out.set(name, w.layout_ms[kind.index()]);
    }
    out.set("thermal.report_ms", w.thermal_ms);
    out.set("si.links_ms", w.links_ms);
    out.set(
        "router.ns_per_pop",
        per(w.layout_total_ms() * 1e6, w.route_pops as f64),
    );
    out.set(
        "thermal.ns_per_cell_sweep",
        per(w.thermal_ms * 1e6, w.cell_sweeps),
    );
    out.set(
        "circuit.ns_per_lu_solve",
        per(w.links_ms * 1e6, w.lu_solves as f64),
    );
}

/// Sets the work-count metrics from the counters one workload phase
/// added.
pub fn set_counter_metrics(out: &mut Outcome, c: &Counters) {
    let pops = c.router_pops();
    out.set("router.pops", pops as f64);
    out.set("router.expansions", c.get("router.expansions") as f64);
    out.set(
        "router.pops_per_net",
        per(pops as f64, c.get("router.nets_routed") as f64),
    );
    out.set(
        "router.window_fallbacks",
        c.get("router.window_fallbacks") as f64,
    );
    out.set(
        "router.incremental_reroutes",
        c.get("router.incremental_reroutes") as f64,
    );
    let candidates = c.get("router.batch_candidates");
    let rejected = c.get("router.batch_conflict_rejects");
    out.set(
        "router.batch_accept_ratio",
        per(
            candidates.saturating_sub(rejected) as f64,
            candidates as f64,
        ),
    );
    out.set("thermal.sor_sweeps", c.get("thermal.sor_sweeps") as f64);
    out.set("si.links_simulated", c.get("si.links_simulated") as f64);
    out.set("circuit.lu_factor", c.get("circuit.lu_factor") as f64);
    out.set("circuit.lu_solve", c.get("circuit.lu_solve") as f64);
    let (hits, misses) = (c.get("store.mem_hit"), c.get("store.miss"));
    out.set("store.mem_hit", hits as f64);
    out.set("store.miss", misses as f64);
    out.set("store.hit_ratio", per(hits as f64, (hits + misses) as f64));
    out.set("memo.hit", c.get("memo.hit") as f64);
    out.set("memo.compute", c.get("memo.compute") as f64);
}

/// Sets `context.computes.*` and `thermal.solves`.
pub fn set_compute_metrics(out: &mut Outcome, c: &ComputeCounts) {
    out.set("context.computes.split", c.split as f64);
    out.set("context.computes.netlists", c.netlists as f64);
    out.set("context.computes.reports", c.reports as f64);
    out.set("context.computes.layouts", c.layouts as f64);
    out.set("context.computes.links", c.links as f64);
    out.set("context.computes.thermal", c.thermal as f64);
    out.set("thermal.solves", c.thermal as f64);
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn per(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Runs `f` over `items` with the flow's own fan-out
/// (`codesign::exec::ordered_map`), timing each call. Returns the
/// results in input order and the summed busy seconds.
pub fn timed_fan_out<T: Sync, U: Send>(items: &[T], f: impl Fn(&T) -> U + Sync) -> (Vec<U>, f64) {
    let timed = codesign::exec::ordered_map(items, |item| {
        let t = Instant::now();
        let out = f(item);
        (out, t.elapsed().as_secs_f64())
    });
    let busy = timed.iter().map(|(_, s)| s).sum();
    (timed.into_iter().map(|(out, _)| out).collect(), busy)
}

impl Counters {
    /// `name=value` pairs separated by spaces: how the daemon child
    /// reports its counters to the benchmark.
    pub fn render(&self) -> String {
        let pairs: Vec<String> = self.0.iter().map(|(n, v)| format!("{n}={v}")).collect();
        pairs.join(" ")
    }

    /// Parses [`Counters::render`] output; names the program does not
    /// register are skipped.
    pub fn parse(text: &str) -> Counters {
        Counters(
            text.split_whitespace()
                .filter_map(|pair| {
                    let (name, value) = pair.split_once('=')?;
                    let name = techlib::obs::COUNTER_NAMES.iter().find(|n| **n == name)?;
                    Some((*name, value.parse().ok()?))
                })
                .collect(),
        )
    }
}
