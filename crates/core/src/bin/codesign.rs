//! Command-line front-end for the co-design flow.
//!
//! ```sh
//! codesign glass3d                  # human-readable study summary
//! codesign silicon25d --json        # full study as JSON
//! codesign --all --json             # all six studies as a JSON array
//! codesign sweep scenarios.json     # batch design-space run
//! codesign serve 127.0.0.1:8080     # long-running sweep service
//! codesign --all --trace t.json     # + Chrome trace of every stage
//! codesign sweep s.json --stats     # + per-stage table on stderr
//! ```
//!
//! Exit codes: 0 on success, 1 when the flow (or any sweep scenario)
//! fails, 2 for unknown flags or malformed invocations.
//!
//! `--trace <path>` (or the `CODESIGN_TRACE` environment variable)
//! writes a Chrome trace-event JSON file of every flow stage span and
//! work counter; `--stats` prints the aggregated per-stage table to
//! stderr. Both are strictly observational: enabling them never changes
//! any study output byte.

use codesign::flow::{run_all_in, run_tech_in, TechStudy};
use codesign::scenario::{kind_from_str, scenarios_from_json};
use codesign::table5::MonitorLengths;
use codesign::StudyContext;
use std::path::PathBuf;
use std::sync::Arc;
use techlib::spec::InterposerKind;
use techlib::store::ArtifactStore;

fn parse_tech(name: &str) -> Option<InterposerKind> {
    kind_from_str(name)
}

fn usage() -> ! {
    eprintln!(
        "usage: codesign <glass25d|glass3d|silicon25d|silicon3d|shinko|apx> \
         [--json] [--trace <path>] [--stats]"
    );
    eprintln!("       codesign --all [--json] [--trace <path>] [--stats]");
    eprintln!(
        "       codesign sweep <scenarios.json> [--json] [--sequential] \
         [--cache-dir <dir>] [--trace <path>] [--stats]"
    );
    eprintln!(
        "       codesign serve <host:port> [--workers <n>] [--queue-depth <n>] \
         [--deadline-ms <n>] [--max-connections <n>] [--header-read-ms <n>] \
         [--body-read-ms <n>] [--write-ms <n>] [--cache-dir <dir>] \
         [--trace <path>] [--stats]"
    );
    eprintln!(
        "       (--cache-dir persists stage artifacts across runs; \
         CODESIGN_CACHE_DIR sets a default)"
    );
    std::process::exit(2);
}

/// Strictly parsed command arguments: every flag is matched exactly and
/// anything unrecognised is a usage error (exit 2), so typos can never
/// be silently ignored again.
#[derive(Debug, Default)]
struct Opts {
    json: bool,
    stats: bool,
    sequential: bool,
    trace: Option<String>,
    cache_dir: Option<String>,
    positionals: Vec<String>,
}

fn parse_opts(args: &[String], allow_sequential: bool) -> Opts {
    let mut opts = Opts::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--json" => opts.json = true,
            "--stats" => opts.stats = true,
            "--sequential" if allow_sequential => opts.sequential = true,
            "--cache-dir" if allow_sequential => match iter.next() {
                Some(dir) => opts.cache_dir = Some(dir.clone()),
                None => {
                    eprintln!("error: --cache-dir requires a directory");
                    usage();
                }
            },
            "--trace" => match iter.next() {
                Some(path) => opts.trace = Some(path.clone()),
                None => {
                    eprintln!("error: --trace requires a file path");
                    usage();
                }
            },
            other if other.starts_with('-') => {
                eprintln!("error: unknown flag {other:?}");
                usage();
            }
            other => opts.positionals.push(other.to_string()),
        }
    }
    if opts.trace.is_none() {
        opts.trace = std::env::var(techlib::obs::TRACE_ENV)
            .ok()
            .filter(|path| !path.is_empty());
    }
    opts
}

/// The effective cache directory: the explicit flag, else the
/// `CODESIGN_CACHE_DIR` environment variable, else none.
fn resolve_cache_dir(flag: &Option<String>) -> Option<PathBuf> {
    flag.clone()
        .or_else(|| {
            std::env::var(techlib::store::CACHE_DIR_ENV)
                .ok()
                .filter(|dir| !dir.is_empty())
        })
        .map(PathBuf::from)
}

/// Turns recording on up front when any observability output was asked
/// for, so the run about to start is captured from its first stage.
fn arm_observability(opts: &Opts) {
    if opts.trace.is_some() || opts.stats {
        techlib::obs::enable();
    }
}

/// Writes the trace file and/or prints the stats table. The table goes
/// to **stderr** so `--stats --json` still emits clean JSON on stdout.
/// Called before any non-zero exit so a failing sweep still traces.
fn finish_observability(opts: &Opts) -> Result<(), Box<dyn std::error::Error>> {
    if let Some(path) = &opts.trace {
        std::fs::write(path, techlib::obs::chrome_trace_json())?;
        eprintln!("trace written to {path}");
    }
    if opts.stats {
        eprint!("{}", techlib::obs::stats_table());
    }
    Ok(())
}

/// Package footprint for the `--all` table: the routed interposer area
/// when there is one, otherwise the stacked package outline (the larger
/// chiplet footprint) — never a hardcoded literal. `None` means no
/// usable figure at all and prints as `-`.
fn package_area_mm2(study: &TechStudy) -> Option<f64> {
    if let Some(routing) = &study.routing {
        return Some(routing.area_mm2);
    }
    let area = study
        .logic
        .footprint
        .area_mm2()
        .max(study.memory.footprint.area_mm2());
    (area.is_finite() && area > 0.0).then_some(area)
}

/// Runs a batch of scenarios from a JSON file and prints one line (or
/// one JSON object) per scenario.
fn sweep(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let opts = parse_opts(args, true);
    let [path] = opts.positionals.as_slice() else {
        eprintln!("error: sweep takes exactly one scenario file");
        usage();
    };
    arm_observability(&opts);
    let text = std::fs::read_to_string(path)?;
    let scenarios = scenarios_from_json(&text)?;
    let store = match resolve_cache_dir(&opts.cache_dir) {
        Some(dir) => Some(Arc::new(ArtifactStore::with_disk(dir)?)),
        None => None,
    };
    let outcomes = if opts.sequential {
        codesign::batch::run_sequential_with_store(&scenarios, store)
    } else {
        codesign::batch::run_with_store(&scenarios, store)?
    };
    if opts.json {
        // The serve daemon returns this same renderer's output as its
        // response body, so the two surfaces can never drift apart.
        println!("{}", codesign::batch::sweep_json(&scenarios, &outcomes)?);
    } else {
        println!(
            "{:<24}{:<14}{:>12}{:>10}{:>10}",
            "scenario", "tech", "P_sys mW", "Fmax MHz", "mem °C"
        );
        for (scenario, outcome) in scenarios.iter().zip(&outcomes) {
            match outcome {
                Ok(s) => println!(
                    "{:<24}{:<14}{:>12.1}{:>10.0}{:>10.1}",
                    scenario.name(),
                    s.tech.label(),
                    s.fullchip.total_power_mw,
                    s.fullchip.system_fmax_mhz,
                    s.thermal.mem_peak_c
                ),
                Err(e) => println!(
                    "{:<24}{:<14}error: {e}",
                    scenario.name(),
                    scenario.tech().label()
                ),
            }
        }
    }
    finish_observability(&opts)?;
    if outcomes.iter().any(Result::is_err) {
        std::process::exit(1);
    }
    Ok(())
}

/// Parses one `--flag <n>` numeric value or exits with a usage error.
fn numeric_flag(flag: &str, value: Option<&String>) -> u64 {
    let Some(raw) = value else {
        eprintln!("error: {flag} requires a number");
        usage();
    };
    match raw.parse::<u64>() {
        Ok(n) => n,
        Err(_) => {
            eprintln!("error: {flag}: expected a number, got {raw:?}");
            usage();
        }
    }
}

/// Runs the long-lived sweep service until `POST /shutdown` or SIGTERM.
fn serve(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let mut config = codesign::serve::ServeConfig::default();
    let mut addr = None;
    let mut obs = Opts::default();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--workers" => config.workers = numeric_flag(arg, iter.next()) as usize,
            "--queue-depth" => config.queue_depth = numeric_flag(arg, iter.next()) as usize,
            "--deadline-ms" => config.default_deadline_ms = Some(numeric_flag(arg, iter.next())),
            "--max-connections" => {
                config.max_connections = numeric_flag(arg, iter.next()) as usize;
            }
            "--header-read-ms" => config.header_read_ms = numeric_flag(arg, iter.next()),
            "--body-read-ms" => config.body_read_ms = numeric_flag(arg, iter.next()),
            "--write-ms" => config.write_ms = numeric_flag(arg, iter.next()),
            "--cache-dir" => match iter.next() {
                Some(dir) => config.cache_dir = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("error: --cache-dir requires a directory");
                    usage();
                }
            },
            "--stats" => obs.stats = true,
            "--trace" => match iter.next() {
                Some(path) => obs.trace = Some(path.clone()),
                None => {
                    eprintln!("error: --trace requires a file path");
                    usage();
                }
            },
            other if other.starts_with('-') => {
                eprintln!("error: unknown flag {other:?}");
                usage();
            }
            other if addr.is_none() => addr = Some(other.to_string()),
            other => {
                eprintln!("error: unexpected argument {other:?}");
                usage();
            }
        }
    }
    let Some(addr) = addr else {
        eprintln!("error: serve takes a listen address (e.g. 127.0.0.1:8080)");
        usage();
    };
    if obs.trace.is_none() {
        obs.trace = std::env::var(techlib::obs::TRACE_ENV)
            .ok()
            .filter(|path| !path.is_empty());
    }
    if config.cache_dir.is_none() {
        config.cache_dir = std::env::var(techlib::store::CACHE_DIR_ENV)
            .ok()
            .filter(|dir| !dir.is_empty())
            .map(PathBuf::from);
    }
    arm_observability(&obs);
    let server = codesign::serve::Server::bind(&addr, config)?;
    // Scripts (ci.sh, the load bench) parse this line for the resolved
    // port, so it must hit the pipe before the first request arrives.
    println!("codesign serve listening on {}", server.local_addr());
    use std::io::Write as _;
    std::io::stdout().flush()?;
    server.run()?;
    eprintln!("codesign serve drained");
    finish_observability(&obs)
}

fn all(args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let opts = parse_opts(args, false);
    if !opts.positionals.is_empty() {
        eprintln!("error: --all takes no further arguments");
        usage();
    }
    arm_observability(&opts);
    let studies = run_all_in(&StudyContext::paper(), MonitorLengths::Routed)?;
    if opts.json {
        println!("{}", serde_json::to_string_pretty(&studies)?);
    } else {
        println!(
            "{:<14}{:>10}{:>12}{:>10}{:>10}{:>10}",
            "tech", "area mm²", "P_sys mW", "Fmax MHz", "logic °C", "mem °C"
        );
        for s in &studies {
            let area = match package_area_mm2(s) {
                Some(a) => format!("{a:.2}"),
                None => "-".to_string(),
            };
            println!(
                "{:<14}{:>10}{:>12.1}{:>10.0}{:>10.1}{:>10.1}",
                s.tech.label(),
                area,
                s.fullchip.total_power_mw,
                s.fullchip.system_fmax_mhz,
                s.thermal.logic_peak_c,
                s.thermal.mem_peak_c
            );
        }
    }
    finish_observability(&opts)
}

fn single(tech: InterposerKind, args: &[String]) -> Result<(), Box<dyn std::error::Error>> {
    let opts = parse_opts(args, false);
    if !opts.positionals.is_empty() {
        eprintln!("error: unexpected argument {:?}", opts.positionals[0]);
        usage();
    }
    arm_observability(&opts);
    let study = run_tech_in(&StudyContext::paper(), tech, MonitorLengths::Routed)?;
    if opts.json {
        println!("{}", serde_json::to_string_pretty(&study)?);
    } else {
        println!("=== {} study ===", tech.label());
        println!(
            "logic chiplet : {:.2} mm² @ {:.1}% util, {:.0} MHz, {:.2} mW",
            study.logic.footprint.area_mm2(),
            study.logic.utilization * 100.0,
            study.logic.fmax_mhz,
            study.logic.total_power_mw()
        );
        println!(
            "memory chiplet: {:.2} mm² @ {:.1}% util, {:.0} MHz, {:.2} mW",
            study.memory.footprint.area_mm2(),
            study.memory.utilization * 100.0,
            study.memory.fmax_mhz,
            study.memory.total_power_mw()
        );
        if let Some(r) = &study.routing {
            println!(
                "interposer    : {} + {} layers, {:.1} mm wire, {:.2} mm²",
                r.signal_layers_used, r.pg_layers, r.total_wl_mm, r.area_mm2
            );
        } else {
            println!("interposer    : none (direct 3D stack)");
        }
        println!(
            "links         : L2M {:.2} ps / {:.1} µW, L2L {:.2} ps / {:.1} µW",
            study.links.l2m.interconnect_delay_ps,
            study.links.l2m.total_power_uw(),
            study.links.l2l.interconnect_delay_ps,
            study.links.l2l.total_power_uw()
        );
        println!(
            "full chip     : {:.1} mW, {:.0} MHz pipelined / {:.0} MHz non-pipelined",
            study.fullchip.total_power_mw,
            study.fullchip.system_fmax_mhz,
            study.fullchip.nonpipelined_fmax_mhz
        );
        println!(
            "thermal       : logic {:.1} °C, memory {:.1} °C",
            study.thermal.logic_peak_c, study.thermal.mem_peak_c
        );
    }
    finish_observability(&opts)
}

fn main() {
    if let Err(e) = run() {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        usage();
    };
    match command.as_str() {
        "sweep" => sweep(rest),
        "serve" => serve(rest),
        "--all" => all(rest),
        name => match parse_tech(name) {
            Some(tech) => single(tech, rest),
            None => usage(),
        },
    }
}
