//! The determinism contract of the parallel orchestration: fanned-out
//! work must be indistinguishable — byte for byte — from the sequential
//! reference, for any worker count and any task-duration skew.

use codesign::context::StudyContext;
use codesign::flow::{run_all, run_all_in, run_all_sequential, run_tech_in, TechStudy};
use codesign::table5::{table5, MonitorLengths};
use proptest::prelude::*;
use techlib::spec::InterposerKind;

/// The whole six-technology study, parallel vs sequential, serialized.
///
/// `CODESIGN_THREADS` is pinned to 3 up front so the fan-out actually
/// spawns workers even on a single-core host (this test is the only one
/// in this binary that reads the variable, and both paths are
/// deterministic under any setting).
#[test]
fn parallel_run_all_serializes_byte_identically_to_sequential() {
    std::env::set_var(techlib::par::THREADS_ENV, "3");
    let par = run_all(MonitorLengths::Routed).expect("parallel flow completes");
    let seq = run_all_sequential(MonitorLengths::Routed).expect("sequential flow completes");
    let par_json = serde_json::to_string(&par).expect("serializes");
    let seq_json = serde_json::to_string(&seq).expect("serializes");
    assert!(
        par_json == seq_json,
        "parallel and sequential output diverge"
    );
    assert!(par_json.len() > 10_000, "sanity: studies are non-trivial");

    // Table V assembled by the same fan-out helper must match the
    // per-row sequential assembly too.
    let t5 = table5(MonitorLengths::Routed).expect("table 5 completes");
    let rows: Result<Vec<_>, _> = techlib::spec::InterposerKind::PACKAGED
        .iter()
        .map(|&tech| codesign::table5::row(tech, MonitorLengths::Routed))
        .collect();
    assert!(
        serde_json::to_string(&t5).unwrap() == serde_json::to_string(&rows.unwrap()).unwrap(),
        "parallel table 5 diverges from sequential rows"
    );
}

/// Tracing is strictly out-of-band: with observability recording on and
/// the fan-out at `CODESIGN_THREADS=3`, the studies serialize
/// byte-identically to an untraced sequential reference, and the
/// emitted trace is valid Chrome trace-event JSON carrying one span per
/// flow stage per scenario plus the kernel work counters.
///
/// Both runs use **private** contexts (not the shared default) so the
/// traced run is genuinely cold and every kernel counter must fire.
#[test]
fn traced_parallel_flow_is_byte_identical_and_emits_a_valid_trace() {
    std::env::set_var(techlib::par::THREADS_ENV, "3");

    // Untraced sequential reference (recording is still off here; the
    // sibling tests in this binary never enable it).
    let reference_ctx = StudyContext::paper();
    let reference: Vec<TechStudy> = InterposerKind::PACKAGED
        .iter()
        .map(|&tech| run_tech_in(&reference_ctx, tech, MonitorLengths::Routed))
        .collect::<Result<_, _>>()
        .expect("sequential reference completes");
    let reference_json = serde_json::to_string(&reference).expect("serializes");

    techlib::obs::enable();
    techlib::obs::reset();
    let traced_ctx = StudyContext::paper();
    let traced =
        run_all_in(&traced_ctx, MonitorLengths::Routed).expect("traced parallel flow completes");
    let traced_json = serde_json::to_string(&traced).expect("serializes");
    assert!(
        traced_json == reference_json,
        "tracing changed the serialized studies"
    );

    // The trace parses as Chrome trace-event JSON…
    let trace = techlib::obs::chrome_trace_json();
    let doc = serde_json::from_str(&trace).expect("trace is valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(serde_json::Value::as_array)
        .expect("traceEvents array");

    // …with one "X" span per flow stage per scenario (Silicon 3D has no
    // routed interposer, hence no route stage)…
    let has_span = |stage: &str, scenario: &str| {
        events.iter().any(|e| {
            e.get("ph").and_then(serde_json::Value::as_str) == Some("X")
                && e.get("name").and_then(serde_json::Value::as_str) == Some(stage)
                && e.get("args")
                    .and_then(|a| a.get("scenario"))
                    .and_then(serde_json::Value::as_str)
                    == Some(scenario)
        })
    };
    for &tech in &InterposerKind::PACKAGED {
        let scenario = format!("paper:{}", tech.label());
        for stage in [
            "stage.design",
            "stage.split",
            "stage.chipletize",
            "stage.chiplet_reports",
            "stage.si_links",
            "stage.thermal",
            "stage.fullchip",
        ] {
            assert!(has_span(stage, &scenario), "missing {stage} for {scenario}");
        }
        if tech != InterposerKind::Silicon3D {
            assert!(
                has_span("stage.route", &scenario),
                "missing stage.route for {scenario}"
            );
        }
    }

    // …plus a non-zero "C" counter event for every kernel counter (the
    // traced run was cold, so each kernel demonstrably did work).
    for counter in [
        "memo.hit",
        "memo.compute",
        "router.nets_routed",
        "router.heap_pops",
        "router.expansions",
        "thermal.sor_sweeps",
        "circuit.lu_factor",
        "circuit.lu_solve",
        "si.links_simulated",
    ] {
        let fired = events.iter().any(|e| {
            e.get("ph").and_then(serde_json::Value::as_str) == Some("C")
                && e.get("name").and_then(serde_json::Value::as_str) == Some(counter)
                && e.get("args")
                    .and_then(|a| a.get("value"))
                    .and_then(serde_json::Value::as_u64)
                    .is_some_and(|v| v > 0)
        });
        assert!(fired, "counter {counter} missing or zero");
    }
}

/// `run_all_in` claims the technologies heaviest route first, which is
/// not `PACKAGED` order, yet its studies come back in `PACKAGED` order
/// and serialize byte-identically to the one-at-a-time reference.
#[test]
fn heaviest_first_run_all_in_serializes_byte_identically_to_sequential() {
    std::env::set_var(techlib::par::THREADS_ENV, "3");
    let ctx = StudyContext::paper();
    let weights: Vec<usize> = InterposerKind::PACKAGED
        .iter()
        .map(|&tech| interposer::report::routing_grid_nodes(ctx.spec(tech)))
        .collect();
    assert!(
        weights.windows(2).any(|w| w[0] < w[1]),
        "dispatch must reorder the techs for this test to mean anything: {weights:?}"
    );
    let dispatched = run_all_in(&ctx, MonitorLengths::Routed).expect("flow completes");
    let sequential = run_all_sequential(MonitorLengths::Routed).expect("flow completes");
    let techs: Vec<InterposerKind> = dispatched.iter().map(|s| s.tech).collect();
    assert_eq!(techs, InterposerKind::PACKAGED.to_vec());
    assert!(
        serde_json::to_string(&dispatched).unwrap() == serde_json::to_string(&sequential).unwrap(),
        "heaviest-first dispatch changed the serialized studies"
    );
}

/// Cheap deterministic PRNG for the duration-skew property below (the
/// test must not depend on wall-clock or OS randomness).
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `exec::ordered_map_with` returns results in input order for any
    /// worker count and any per-task duration skew: items sleep
    /// pseudo-random amounts, so completion order scrambles while the
    /// returned order must not.
    #[test]
    fn exec_preserves_input_order_under_arbitrary_durations(
        seed in 0u64..(1u64 << 48),
        len in 1usize..48,
        workers in 1usize..9,
    ) {
        let items: Vec<u64> = (0..len as u64).map(|i| splitmix64(seed ^ i)).collect();
        let out = codesign::exec::ordered_map_with(workers, &items, |&x| {
            std::thread::sleep(std::time::Duration::from_micros(x % 500));
            x.wrapping_mul(3).wrapping_add(1)
        });
        let expect: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(3).wrapping_add(1)).collect();
        prop_assert_eq!(out, expect);
    }

    /// The fallible form reports the error of the *first failing input*,
    /// matching a sequential `collect::<Result<_, _>>()`, regardless of
    /// which worker hits its failure first.
    #[test]
    fn try_ordered_map_reports_first_failing_input(
        fail_mask in 1u64..(1u64 << 32),
        workers in 1usize..9,
    ) {
        let items: Vec<u64> = (0..32).collect();
        let run = |w: usize| -> Result<Vec<u64>, u64> {
            let mapped = codesign::exec::ordered_map_with(w, &items, |&i| {
                std::thread::sleep(std::time::Duration::from_micros((splitmix64(fail_mask ^ i) % 300) as u64));
                if fail_mask & (1 << i) != 0 { Err(i) } else { Ok(i) }
            });
            mapped.into_iter().collect()
        };
        prop_assert_eq!(run(workers), run(1));
    }

    /// The heaviest-first helper claims items by descending weight but
    /// returns results in input order for any weights and any per-task
    /// duration skew, and its collected form reports the first failing
    /// input's error — not the first one claimed or finished.
    #[test]
    fn heaviest_first_preserves_input_order_and_first_error(
        seed in 0u64..(1u64 << 48),
        len in 1usize..40,
        fail_mask in 0u64..(1u64 << 40),
    ) {
        let items: Vec<u64> = (0..len as u64).collect();
        let weight = |&i: &u64| (splitmix64(seed ^ i) % 8) as usize;
        let task = |&i: &u64| -> Result<u64, u64> {
            std::thread::sleep(std::time::Duration::from_micros(splitmix64(seed ^ !i) % 400));
            if fail_mask & (1 << i) != 0 { Err(i) } else { Ok(i.wrapping_mul(7)) }
        };
        let out = codesign::exec::ordered_map_heaviest_first(&items, weight, task);
        let expect: Vec<Result<u64, u64>> = items.iter().map(task).collect();
        prop_assert_eq!(&out, &expect);
        let collected: Result<Vec<u64>, u64> = out.into_iter().collect();
        let first_failure = items.iter().copied().find(|&i| fail_mask & (1 << i) != 0);
        prop_assert_eq!(collected.err(), first_failure);
    }
}
