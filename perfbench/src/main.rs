//! The repository's benchmark: three workloads over the co-design flow,
//! the sweep engine and the `codesign serve` daemon.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_cold --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Run from the repository root: the studies hash and the latency limit
//! are read from `BENCHMARK.json` there. The last stdout line is one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`; with
//! `--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
//! per-layer ones. Lines above it repeat every metric by name and unit
//! and record the machine and build. See `perfbench/README.md`.

mod inputs;
mod layers;
mod paper;
mod procfs;
mod serve;
mod stats;
mod sweep;

use std::time::{Duration, Instant};

/// End-to-end metrics: `(name, unit)`, reported with tracing off.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("latency_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: `(name, unit)`, reported by the traced run. A
/// workload that does not exercise a metric reports 0 for it.
const PER_LAYER: [(&str, &str); 53] = [
    ("cpu_s", "s"),
    ("netlist.split_ms", "ms"),
    ("netlist.chipletize_ms", "ms"),
    ("chiplet.reports_ms", "ms"),
    ("interposer.layout_ms", "ms"),
    ("interposer.layout_ms.apx", "ms"),
    ("interposer.layout_ms.shinko", "ms"),
    ("interposer.layout_ms.glass25d", "ms"),
    ("interposer.layout_ms.silicon25d", "ms"),
    ("interposer.layout_ms.glass3d", "ms"),
    ("router.pops", "count"),
    ("router.expansions", "count"),
    ("router.pops_per_net", "count"),
    ("router.ns_per_pop", "ns"),
    ("router.window_fallbacks", "count"),
    ("router.incremental_reroutes", "count"),
    ("router.batch_accept_ratio", "ratio"),
    ("thermal.report_ms", "ms"),
    ("thermal.solves", "count"),
    ("thermal.sor_sweeps", "count"),
    ("thermal.ns_per_cell_sweep", "ns"),
    ("si.links_ms", "ms"),
    ("si.links_simulated", "count"),
    ("circuit.lu_factor", "count"),
    ("circuit.lu_solve", "count"),
    ("circuit.ns_per_lu_solve", "ns"),
    ("context.computes.split", "count"),
    ("context.computes.netlists", "count"),
    ("context.computes.reports", "count"),
    ("context.computes.layouts", "count"),
    ("context.computes.links", "count"),
    ("context.computes.thermal", "count"),
    ("store.mem_hit", "count"),
    ("store.miss", "count"),
    ("store.hit_ratio", "ratio"),
    ("memo.hit", "count"),
    ("memo.compute", "count"),
    ("exec.busy_ratio", "ratio"),
    ("batch.render_ms", "ms"),
    ("batch.response_bytes", "bytes"),
    ("serve.server_p50_us", "us"),
    ("serve.outside_ms", "ms"),
    ("serve.queue_depth_max", "count"),
    ("serve.context_hits", "count"),
    ("serve.context_misses", "count"),
    ("serve.contexts_pooled", "count"),
    ("serve.rss_growth_mb", "MiB"),
    ("loadgen.late_ms_p90", "ms"),
    ("serve_p90_ms.low", "ms"),
    ("serve_p50_ms.high", "ms"),
    ("serve_p90_ms.high", "ms"),
    ("error_rate", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// Set-ups per run of an in-process workload: a few milliseconds each,
/// so many, for a steady median.
pub const CHILD_SETUPS: usize = 15;

/// Values pinned in `BENCHMARK.json`, read at start so the benchmark and
/// its description cannot disagree.
#[derive(Debug, Clone)]
pub struct Pins {
    /// FNV-1a of the serialized six-tech studies (`paper_cold`'s `why`).
    pub studies_hash: u64,
    /// Latency limit on a rate phase's p90 (`serve_mixed`'s `why`).
    pub p90_limit_ms: f64,
}

/// One benchmark invocation.
#[derive(Debug)]
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub pins: Pins,
    pub workers: usize,
}

impl Run {
    pub fn budget(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// Runs `setup` `reps` times and returns the last result with the
    /// median wall time (`setup_s`).
    pub fn setup<T>(
        &self,
        reps: usize,
        mut setup: impl FnMut() -> Result<T, String>,
    ) -> Result<(T, f64), String> {
        let mut walls = Vec::with_capacity(reps);
        let mut last = None;
        for _ in 0..reps {
            // The previous set-up is torn down outside the timing.
            drop(last.take());
            let t = Instant::now();
            let value = setup()?;
            walls.push(t.elapsed().as_secs_f64());
            last = Some(value);
        }
        let value = last.ok_or("no set-up ran")?;
        println!("perfbench: set-ups took {walls:?} s");
        Ok((value, stats::median(&walls).unwrap_or(0.0)))
    }

    /// One set-up of an in-process workload, timed from process start: a
    /// fresh `perfbench setup` child reads the pins, runs `workload`'s
    /// set-up and exits, as a user's process would before its first
    /// operation.
    pub fn child_setup(&self, workload: &str) -> Result<(), String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let status = std::process::Command::new(exe)
            .args([
                "setup",
                "--workload",
                workload,
                "--seed",
                &self.seed.to_string(),
            ])
            .status()
            .map_err(|e| format!("set-up child: {e}"))?;
        if !status.success() {
            return Err(format!("set-up child failed: {status}"));
        }
        Ok(())
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.retain(|(n, _)| *n != name);
        self.metrics.push((name, value));
    }

    /// Records a failed operation and says why on stderr.
    pub fn fail(&mut self, why: impl std::fmt::Display) {
        self.failed += 1;
        eprintln!("perfbench: FAILED: {why}");
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|&(_, v)| v)
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <paper_cold|sweep_variants|serve_mixed> --seed <n> \
         --seconds <n> --trace <0|1>"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let child = match args.first().map(String::as_str) {
        Some("daemon") => Some(serve::daemon_main(&args[1..])),
        Some("setup") => Some(setup_main(&args[1..])),
        _ => None,
    };
    if let Some(result) = child {
        if let Err(e) = result {
            eprintln!("perfbench {}: {e}", args[0]);
            std::process::exit(1);
        }
        return;
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s >= 1.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => usage(),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        usage()
    };
    match run(&workload, seed, seconds, trace) {
        Ok(()) => {}
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// `perfbench setup --workload <name> --seed <n>`: the set-up child of
/// [`Run::child_setup`].
fn setup_main(args: &[String]) -> Result<(), String> {
    let [flag_w, workload, flag_s, seed] = args else {
        return Err("expected --workload <name> --seed <n>".to_string());
    };
    let seed = seed.parse().map_err(|_| "--seed needs a number")?;
    if flag_w != "--workload" || flag_s != "--seed" {
        return Err("expected --workload <name> --seed <n>".to_string());
    }
    read_pins("BENCHMARK.json")?;
    match workload.as_str() {
        "paper_cold" => paper::set_up(),
        "sweep_variants" => sweep::set_up(seed).map(drop),
        other => Err(format!("no set-up child for {other:?}")),
    }
}

fn run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<(), String> {
    let pins = read_pins("BENCHMARK.json")?;
    let workers = std::thread::available_parallelism().map_or(1, usize::from);
    // Every workload runs at one worker per core, in this process and in
    // the daemon it spawns.
    std::env::set_var("CODESIGN_THREADS", workers.to_string());
    let r = Run {
        seed,
        seconds,
        trace,
        pins,
        workers,
    };
    let outcome = match workload {
        "paper_cold" => paper::run(&r)?,
        "sweep_variants" => sweep::run(&r)?,
        "serve_mixed" => serve::run(&r)?,
        other => return Err(format!("unknown workload {other:?}")),
    };
    report(workload, &r, outcome)
}

/// Prints the environment line, one line per metric, and the result.
fn report(workload: &str, r: &Run, mut outcome: Outcome) -> Result<(), String> {
    outcome.attempted = outcome.attempted.max(1);
    let error_rate = outcome.failed as f64 / outcome.attempted as f64;
    outcome.set("error_rate", error_rate);
    println!(
        "perfbench: workload={workload} seed={} seconds={} trace={} nproc={} \
         CODESIGN_THREADS={} profile={} git_rev={}",
        r.seed,
        r.seconds,
        u8::from(r.trace),
        r.workers,
        std::env::var("CODESIGN_THREADS").unwrap_or_default(),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release (lto=thin, codegen-units=1)"
        },
        git_revision(),
    );
    if !r.trace {
        println!("perfbench: error_rate = {error_rate} ratio");
    }
    let list: &[(&str, &str)] = if r.trace { &PER_LAYER } else { &END_TO_END };
    let mut fields = Vec::with_capacity(list.len());
    for &(name, unit) in list {
        if !stats::valid_metric_name(name) {
            return Err(format!("invalid metric name {name:?}"));
        }
        let value = match outcome.get(name) {
            Some(v) => v,
            None if r.trace => 0.0,
            None => return Err(format!("end-to-end metric {name} was not measured")),
        };
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        println!("perfbench: {name} = {value} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        fields.join(", ")
    );
    Ok(())
}

/// Reads the pinned values from `BENCHMARK.json` and checks that its
/// metric lists are exactly the ones this program reports.
fn read_pins(path: &str) -> Result<Pins, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    for (key, expected) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let listed: Vec<(String, String)> = doc
            .get(key)
            .and_then(|v| v.as_array())
            .ok_or_else(|| format!("{path}: no {key} list"))?
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect();
        let ours: Vec<(String, String)> = expected
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        if listed != ours {
            return Err(format!(
                "{path}: {key} differs from the metrics perfbench reports"
            ));
        }
    }
    let why = |workload: &str| -> Result<String, String> {
        doc.get("workloads")
            .and_then(|v| v.as_array())
            .and_then(|list| {
                list.iter()
                    .find(|w| w.get("name").and_then(|n| n.as_str()) == Some(workload))
            })
            .and_then(|w| w.get("why"))
            .and_then(|w| w.as_str())
            .map(str::to_string)
            .ok_or_else(|| format!("{path}: no workload {workload}"))
    };
    let hash = word_after(&why("paper_cold")?, "hash")
        .and_then(|w| u64::from_str_radix(&w, 16).ok())
        .ok_or_else(|| format!("{path}: paper_cold's why pins no `hash <16 hex digits>`"))?;
    let limit = word_after(&why("serve_mixed")?, "limit")
        .and_then(|w| w.strip_suffix("ms").and_then(|n| n.parse::<f64>().ok()))
        .filter(|ms| *ms > 0.0)
        .ok_or_else(|| format!("{path}: serve_mixed's why pins no `limit <n>ms`"))?;
    Ok(Pins {
        studies_hash: hash,
        p90_limit_ms: limit,
    })
}

/// The whitespace-separated word following `marker`, without trailing
/// punctuation.
fn word_after(text: &str, marker: &str) -> Option<String> {
    let mut words = text.split_whitespace();
    words.find(|w| *w == marker)?;
    words
        .next()
        .map(|w| w.trim_end_matches([',', ';', ')', '.']).to_string())
}

/// The checkout's git revision, read from `.git` without running git;
/// "none" when the tree is not a git checkout.
fn git_revision() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "none".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                line.strip_suffix(reference)
                    .map(|rev| rev.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_reported_metric_has_a_valid_unique_name() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        for name in &names {
            assert!(stats::valid_metric_name(name), "{name}");
        }
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n, "metric names are unique");
    }

    #[test]
    fn pins_come_from_the_why_texts() {
        assert_eq!(
            word_after("checked against hash c134daec37b29ea7, every time", "hash"),
            Some("c134daec37b29ea7".to_string())
        );
        assert_eq!(
            word_after("p90 limit 40ms.", "limit"),
            Some("40ms".to_string())
        );
        assert_eq!(word_after("no marker here", "limit"), None);
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let pins = read_pins(path).unwrap();
        assert_eq!(pins.studies_hash, 0xc134_daec_37b2_9ea7);
        assert!(pins.p90_limit_ms > 0.0);
    }
}
