//! Times an eight-scenario design-space batch and records the results
//! under the `"sweep"` key of `BENCH_flow.json`.
//!
//! Three modes over the same scenario list:
//!
//! * **sequential** — `batch::run_sequential`, one scenario at a time
//!   (one in-memory store shared by the clean scenarios, like the
//!   parallel path);
//! * **parallel** — `batch::run`, scenarios fanned out across workers;
//! * **isolated** — every scenario through `flow::run_scenario` (a fully
//!   private context and store each, so every stage is recomputed per
//!   scenario — what the batch's shared store saves).
//!
//! Unlike `flow_timing`, no child processes are needed: contexts are
//! built per call, so every mode starts cold by construction. The
//! parallel outcomes are checked byte-identical to the sequential ones.
//! The parallel pass runs with `techlib::obs` recording on; its stage
//! breakdown and kernel counters land under `"sweep"."stages"`.

use codesign::batch;
use codesign::flow::TechStudy;
use codesign::scenario::{Scenario, ScenarioOverrides};
use codesign::table5::MonitorLengths;
use codesign::FlowError;
use std::io::Write as _;
use std::sync::Arc;
use std::time::Instant;
use techlib::spec::InterposerKind;
use techlib::store::ArtifactStore;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn scenarios() -> Vec<Scenario> {
    let mut list: Vec<Scenario> = InterposerKind::PACKAGED
        .iter()
        .map(|&tech| Scenario::paper(tech))
        .collect();
    list.push(
        Scenario::new(
            "fine-pitch-glass",
            InterposerKind::Glass25D,
            MonitorLengths::Routed,
            ScenarioOverrides {
                microbump_pitch_um: Some(25.0),
                ..Default::default()
            },
            Vec::new(),
        )
        .expect("valid scenario"),
    );
    list.push(
        Scenario::new(
            "thick-copper-glass",
            InterposerKind::Glass25D,
            MonitorLengths::Routed,
            ScenarioOverrides {
                metal_thickness_um: Some(6.0),
                ..Default::default()
            },
            Vec::new(),
        )
        .expect("valid scenario"),
    );
    list
}

fn serialize(outcomes: &[Result<TechStudy, FlowError>]) -> String {
    let parts: Vec<String> = outcomes
        .iter()
        .map(|o| match o {
            Ok(s) => serde_json::to_string(s).expect("study serializes"),
            Err(e) => format!("{e:?}"),
        })
        .collect();
    parts.join("\n")
}

fn main() {
    let list = scenarios();
    let workers = techlib::par::thread_count();
    println!(
        "sweep_timing: {} scenarios, {} workers",
        list.len(),
        workers
    );

    let t0 = Instant::now();
    let sequential = batch::run_sequential(&list);
    let sequential_s = t0.elapsed().as_secs_f64();
    println!("sequential (shared front end): {sequential_s:.3} s");

    // Trace the parallel pass only: the byte-identity assertions below
    // then double as proof that recording never changes an outcome.
    techlib::obs::enable();
    techlib::obs::reset();
    let t1 = Instant::now();
    let parallel = batch::run(&list).expect("batch launches");
    let parallel_s = t1.elapsed().as_secs_f64();
    let stages = bench::stages_value();
    println!("parallel   (shared front end): {parallel_s:.3} s");

    let t2 = Instant::now();
    let isolated: Vec<Result<TechStudy, FlowError>> =
        techlib::par::ordered_map(&list, codesign::run_scenario);
    let isolated_s = t2.elapsed().as_secs_f64();
    println!("parallel   (isolated contexts): {isolated_s:.3} s");

    let seq_json = serialize(&sequential);
    let par_json = serialize(&parallel);
    assert_eq!(
        seq_json, par_json,
        "parallel batch must serialize byte-identically to sequential"
    );
    assert_eq!(
        par_json,
        serialize(&isolated),
        "front-end sharing must not change any scenario's result"
    );
    let hash = format!("{:016x}", fnv1a(par_json.as_bytes()));
    println!("determinism: OK (outcomes hash {hash})");
    println!("speedup vs sequential: {:.2}x", sequential_s / parallel_s);

    // Store modes over the same list, sequentially for clean
    // attribution: a cold pass populating a fresh disk-backed artifact
    // store, a second pass through a *new* store instance over the same
    // directory (warm-disk — what a restarted process pays), and a
    // third pass reusing the live store (warm-mem). All three must
    // serialize byte-identically to the sequential reference.
    let cache_dir = std::env::temp_dir().join(format!(
        "codesign_sweep_timing_store_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let cold_store = Arc::new(ArtifactStore::with_disk(&cache_dir).expect("cache dir"));
    let t3 = Instant::now();
    let cold = batch::run_sequential_with_store(&list, Some(Arc::clone(&cold_store)));
    let store_cold_s = t3.elapsed().as_secs_f64();
    println!("store cold  (fresh disk tier):  {store_cold_s:.3} s");

    let warm_store = Arc::new(ArtifactStore::with_disk(&cache_dir).expect("cache dir"));
    let t4 = Instant::now();
    let warm_disk = batch::run_sequential_with_store(&list, Some(Arc::clone(&warm_store)));
    let warm_disk_s = t4.elapsed().as_secs_f64();
    println!("store warm  (disk, new store):  {warm_disk_s:.3} s");

    let t5 = Instant::now();
    let warm_mem = batch::run_sequential_with_store(&list, Some(Arc::clone(&warm_store)));
    let warm_mem_s = t5.elapsed().as_secs_f64();
    println!("store warm  (memory, live):     {warm_mem_s:.3} s");

    assert_eq!(
        seq_json,
        serialize(&cold),
        "cold store pass must serialize byte-identically to the sequential reference"
    );
    assert_eq!(
        seq_json,
        serialize(&warm_disk),
        "disk-warm store pass must serialize byte-identically to the sequential reference"
    );
    assert_eq!(
        seq_json,
        serialize(&warm_mem),
        "memory-warm store pass must serialize byte-identically to the sequential reference"
    );
    let warm_stats = warm_store.stats();
    assert!(
        warm_stats.disk_hits > 0,
        "the restarted store must serve from disk: {warm_stats:?}"
    );
    let _ = std::fs::remove_dir_all(&cache_dir);
    println!(
        "store speedup: {:.2}x disk-warm, {:.2}x memory-warm ({} disk hits, {} mem hits)",
        store_cold_s / warm_disk_s,
        store_cold_s / warm_mem_s,
        warm_stats.disk_hits,
        warm_stats.mem_hits
    );

    let sweep = serde_json::Value::Object(vec![
        ("scenarios".into(), serde_json::Value::from(list.len())),
        ("workers".into(), serde_json::Value::from(workers)),
        (
            "sequential_shared_s".into(),
            serde_json::Value::from(sequential_s),
        ),
        (
            "parallel_shared_s".into(),
            serde_json::Value::from(parallel_s),
        ),
        (
            "parallel_isolated_s".into(),
            serde_json::Value::from(isolated_s),
        ),
        (
            "parallel_speedup".into(),
            serde_json::Value::from(sequential_s / parallel_s),
        ),
        (
            "outputs_byte_identical".into(),
            serde_json::Value::from(true),
        ),
        ("outcomes_hash_fnv1a".into(), serde_json::Value::from(hash)),
        // Stage breakdown + kernel work counters of the traced parallel
        // pass (the sequential pass ran untraced, so the byte-identity
        // assertions above also validate observational transparency).
        ("stages".into(), stages),
    ]);

    let store = serde_json::Value::Object(vec![
        ("cold_s".into(), serde_json::Value::from(store_cold_s)),
        ("warm_disk_s".into(), serde_json::Value::from(warm_disk_s)),
        ("warm_mem_s".into(), serde_json::Value::from(warm_mem_s)),
        (
            "warm_disk_speedup".into(),
            serde_json::Value::from(store_cold_s / warm_disk_s),
        ),
        (
            "warm_mem_speedup".into(),
            serde_json::Value::from(store_cold_s / warm_mem_s),
        ),
        (
            "warm_disk_hits".into(),
            serde_json::Value::from(warm_stats.disk_hits as usize),
        ),
        (
            "warm_mem_hits".into(),
            serde_json::Value::from(warm_stats.mem_hits as usize),
        ),
        (
            "outputs_byte_identical".into(),
            serde_json::Value::from(true),
        ),
    ]);

    // Merge under the "sweep" and "store" keys, preserving the other
    // benches' entries.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_flow.json");
    let mut entries = match std::fs::read_to_string(path)
        .ok()
        .and_then(|text| serde_json::from_str(&text).ok())
    {
        Some(serde_json::Value::Object(fields)) => fields,
        _ => Vec::new(),
    };
    entries.retain(|(key, _)| key != "sweep" && key != "store");
    entries.push(("sweep".into(), sweep));
    entries.push(("store".into(), store));
    let mut f = std::fs::File::create(path).expect("BENCH_flow.json writable");
    writeln!(
        f,
        "{}",
        serde_json::to_string_pretty(&serde_json::Value::Object(entries))
            .expect("report serializes")
    )
    .expect("report written");
    println!("wrote {path}");
}
