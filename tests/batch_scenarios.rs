//! Batch design-space engine integration tests: parallel == sequential
//! byte-for-byte, one shared artifact store per batch that changes no
//! byte, and per-scenario fault isolation.

use codesign::batch;
use codesign::context::{FrontEnd, StudyContext};
use codesign::flow::TechStudy;
use codesign::scenario::{scenarios_from_json, Scenario, ScenarioOverrides};
use codesign::table5::MonitorLengths;
use codesign::FlowError;
use std::collections::HashSet;
use std::sync::Arc;
use techlib::spec::{InterposerKind, Stacking};
use techlib::store::{ArtifactStore, Codec, Provenance, StoreKey};

/// The paper default plus two perturbed design points.
fn mixed_batch() -> Vec<Scenario> {
    vec![
        Scenario::paper(InterposerKind::Glass3D),
        Scenario::new(
            "fine-pitch",
            InterposerKind::Glass25D,
            MonitorLengths::Routed,
            ScenarioOverrides {
                microbump_pitch_um: Some(25.0),
                ..Default::default()
            },
            Vec::new(),
        )
        .expect("valid scenario"),
        Scenario::new(
            "sio2-rdl",
            InterposerKind::Glass25D,
            MonitorLengths::Paper,
            ScenarioOverrides {
                routing_dielectric: Some("SiO2".to_string()),
                metal_thickness_um: Some(2.0),
                ..Default::default()
            },
            Vec::new(),
        )
        .expect("valid scenario"),
    ]
}

/// Serializes outcomes so success payloads compare byte-for-byte and
/// failures compare by their typed debug form.
fn fingerprints(outcomes: &[Result<TechStudy, FlowError>]) -> Vec<String> {
    outcomes
        .iter()
        .map(|outcome| match outcome {
            Ok(study) => serde_json::to_string(study).expect("study serializes"),
            Err(e) => format!("{e:?}"),
        })
        .collect()
}

#[test]
fn parallel_batch_is_byte_identical_to_sequential() {
    let scenarios = mixed_batch();
    let parallel = batch::run(&scenarios).expect("batch launches");
    let sequential = batch::run_sequential(&scenarios);
    assert_eq!(parallel.len(), scenarios.len());
    assert_eq!(fingerprints(&parallel), fingerprints(&sequential));
    for (scenario, outcome) in scenarios.iter().zip(&parallel) {
        assert!(outcome.is_ok(), "{}: {outcome:?}", scenario.name());
    }
    // The perturbations actually moved the design point: the fine-pitch
    // glass die is smaller than the same tech's paper default would be.
    let fine = parallel[1].as_ref().unwrap();
    let paper25 = codesign::run_scenario(&Scenario::paper(InterposerKind::Glass25D)).unwrap();
    assert!(fine.logic.footprint.width_um < paper25.logic.footprint.width_um);
}

/// `batch::run` claims scenarios heaviest routing grid first. On a
/// mixed-tech list ordered light to heavy — with a grid-less stacked
/// scenario and a faulty one in between — the outcomes still land in
/// input order, byte for byte what `run_sequential` produces.
#[test]
fn heaviest_first_batch_on_mixed_techs_matches_sequential() {
    let wide_spacing = Scenario::new(
        "wide-spacing-si25d",
        InterposerKind::Silicon25D,
        MonitorLengths::Routed,
        ScenarioOverrides {
            die_to_die_spacing_um: Some(400.0),
            ..Default::default()
        },
        Vec::new(),
    )
    .expect("valid scenario");
    let broken = Scenario::new(
        "broken-thermal",
        InterposerKind::Glass3D,
        MonitorLengths::Routed,
        ScenarioOverrides::default(),
        vec!["thermal.solve".to_string()],
    )
    .expect("valid scenario");
    let scenarios = vec![
        Scenario::paper(InterposerKind::Silicon3D),
        Scenario::paper(InterposerKind::Glass3D),
        broken,
        Scenario::paper(InterposerKind::Silicon25D),
        wide_spacing,
    ];
    let weights: Vec<usize> = scenarios
        .iter()
        .map(|s| {
            let spec = codesign::context::StudyContext::for_scenario(s)
                .spec(s.tech())
                .clone();
            interposer::report::routing_grid_nodes(&spec)
        })
        .collect();
    assert!(
        weights.windows(2).any(|w| w[0] < w[1]),
        "dispatch must reorder the list for this test to mean anything: {weights:?}"
    );
    let parallel = batch::run(&scenarios).expect("batch launches");
    let sequential = batch::run_sequential(&scenarios);
    assert_eq!(fingerprints(&parallel), fingerprints(&sequential));
    assert!(
        matches!(parallel[2], Err(FlowError::NoConvergence { .. })),
        "{:?}",
        parallel[2]
    );
    for i in [0, 1, 3, 4] {
        let study = parallel[i].as_ref().expect("clean scenario succeeds");
        assert_eq!(
            study.tech,
            scenarios[i].tech(),
            "outcome {i} in input order"
        );
    }
}

/// The eight-scenario design-space sweep the bench uses: the six paper
/// points plus two perturbed glass points.
fn eight_scenarios() -> Vec<Scenario> {
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

/// An eight-scenario sweep with observability recording on serializes
/// byte-identically to the untraced sequential reference at
/// `CODESIGN_THREADS=3`, and the trace attributes a whole-scenario span
/// to every scenario by name.
#[test]
fn traced_eight_scenario_sweep_matches_untraced_sequential() {
    std::env::set_var(techlib::par::THREADS_ENV, "3");
    let scenarios = eight_scenarios();

    // Untraced sequential reference (no test in this binary has enabled
    // recording yet).
    let sequential = batch::run_sequential(&scenarios);
    let reference = fingerprints(&sequential);

    techlib::obs::enable();
    let parallel = batch::run(&scenarios).expect("traced batch launches");
    assert_eq!(
        fingerprints(&parallel),
        reference,
        "tracing changed a sweep outcome"
    );

    let trace = techlib::obs::chrome_trace_json();
    let doc = serde_json::from_str(&trace).expect("trace is valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(serde_json::Value::as_array)
        .expect("traceEvents array");
    for scenario in &scenarios {
        assert!(
            events.iter().any(|e| {
                e.get("ph").and_then(serde_json::Value::as_str) == Some("X")
                    && e.get("name").and_then(serde_json::Value::as_str) == Some("scenario.run")
                    && e.get("args")
                        .and_then(|a| a.get("scenario"))
                        .and_then(serde_json::Value::as_str)
                        == Some(scenario.name())
            }),
            "no scenario.run span for {}",
            scenario.name()
        );
    }
}

#[test]
fn injected_fault_stays_inside_its_scenario() {
    let mut scenarios = mixed_batch();
    scenarios.insert(
        1,
        Scenario::new(
            "broken-link",
            InterposerKind::Glass3D,
            MonitorLengths::Routed,
            ScenarioOverrides::default(),
            vec!["si.link".to_string()],
        )
        .expect("valid scenario"),
    );
    let outcomes = batch::run(&scenarios).expect("batch launches");

    // The faulty scenario fails with the typed error its site produces…
    assert!(
        matches!(outcomes[1], Err(FlowError::Singular { pivot: 0 })),
        "{:?}",
        outcomes[1]
    );
    // …while its siblings (including one on the *same technology*) are
    // untouched: their results match a batch that never had the faulty
    // scenario at all.
    let clean = batch::run(&mixed_batch()).expect("clean batch launches");
    let survived = [&outcomes[0], &outcomes[2], &outcomes[3]];
    for (clean_outcome, faulty_outcome) in clean.iter().zip(survived) {
        assert_eq!(
            fingerprints(std::slice::from_ref(clean_outcome)),
            fingerprints(std::slice::from_ref(faulty_outcome))
        );
    }
    // The scoped arming never leaked to this thread or the process.
    assert!(!techlib::faults::armed("si.link"));
    // And a fresh paper context is unaffected by the whole batch.
    codesign::flow::run_tech_in(
        &StudyContext::paper(),
        InterposerKind::Glass3D,
        MonitorLengths::Routed,
    )
    .expect("paper path still clean");
}

/// The `sweep_variants` shape: Glass 3D, Silicon 2.5D and Silicon 3D,
/// each with microbump pitch and die spacing (layout knobs) and loss
/// tangent and metal thickness (downstream knobs) at fixed values — the
/// same list as `examples/sweep_shared_thermal.json`.
fn twelve_variants() -> Vec<Scenario> {
    let scenarios = scenarios_from_json(include_str!("../examples/sweep_shared_thermal.json"))
        .expect("example scenarios parse");
    assert_eq!(scenarios.len(), 12);
    scenarios
}

/// Sharing one store across a batch changes no byte: every row equals
/// the scenario run alone in its own private context.
#[test]
fn shared_store_batch_matches_each_scenario_alone() {
    let scenarios = twelve_variants();
    let alone: Vec<_> = scenarios
        .iter()
        .map(|s| batch::run_in_context(&StudyContext::for_scenario(s), s))
        .collect();
    let shared = batch::run(&scenarios).expect("batch launches");
    assert!(shared.iter().all(Result::is_ok), "{shared:?}");
    assert!(
        batch::sweep_json(&scenarios, &shared).unwrap()
            == batch::sweep_json(&scenarios, &alone).unwrap(),
        "the shared store changed a sweep row"
    );
}

/// One store per batch computes every stage artifact once per distinct
/// stage key: the 12-scenario sweep solves 3 thermal fields (one per
/// technology), not 12. The test derives every stage key the sweep
/// needs, and the store's misses must equal their number.
#[test]
fn shared_store_sweep_solves_each_thermal_field_once() {
    let scenarios = twelve_variants();
    let store = Arc::new(ArtifactStore::in_memory());
    let outcomes = batch::run_sequential_with_store(&scenarios, Some(Arc::clone(&store)));
    assert!(outcomes.iter().all(Result::is_ok), "{outcomes:?}");
    let misses = store.stats().misses;

    let frontend = Arc::new(FrontEnd::with_store(Arc::clone(&store)));
    let mut thermal_keys = HashSet::new();
    let mut all_keys: HashSet<StoreKey> = [FrontEnd::split_key(), FrontEnd::netlists_key()].into();
    for scenario in &scenarios {
        let tech = scenario.tech();
        let ctx = StudyContext::for_scenario_with(
            scenario,
            Arc::clone(&frontend),
            Some(Arc::clone(&store)),
        );
        let spec = ctx.spec(tech);
        thermal_keys.insert(thermal::report::thermal_store_key(spec));
        all_keys.insert(chiplet::report::reports_store_key(
            spec,
            FrontEnd::netlists_key(),
        ));
        if !matches!(spec.stacking, Stacking::TsvStack | Stacking::Monolithic) {
            all_keys.insert(interposer::report::layout_store_key(spec));
        }
        let (l2m, l2l) = codesign::table5::channels_for_in(&ctx, tech, scenario.mode()).unwrap();
        all_keys.insert(codesign::table5::links_store_key(&ctx, tech, &l2m, &l2l));
    }
    assert_eq!(thermal_keys.len(), 3, "one thermal key per technology");
    all_keys.extend(&thermal_keys);
    assert_eq!(
        misses,
        all_keys.len() as u64,
        "store computed {misses} artifacts for {} distinct keys",
        all_keys.len()
    );
    assert_eq!(store.stats().misses, misses, "deriving the keys recomputed");
    // Each thermal field is stored: a lookup that would fail on a miss
    // is served from memory.
    let probe: Codec<thermal::report::ThermalReport> = Codec {
        encode: |_| None,
        decode: |_| None,
    };
    for key in thermal_keys {
        let (_, provenance) = store
            .get_or_compute(key, &probe, || Err("thermal field not stored"))
            .unwrap();
        assert_eq!(provenance, Provenance::MemHit);
    }
}

/// A `thermal.solve`-armed scenario inside the shared-store sweep fails
/// on its own row; its siblings keep exactly their fault-free bytes.
#[test]
fn thermal_fault_in_a_shared_sweep_fails_alone() {
    let clean = twelve_variants();
    let reference = batch::sweep_json(&clean, &batch::run(&clean).unwrap()).unwrap();
    let mut scenarios = clean.clone();
    scenarios.insert(
        5,
        Scenario::new(
            "broken-thermal-glass3d",
            InterposerKind::Glass3D,
            MonitorLengths::Routed,
            ScenarioOverrides::default(),
            vec!["thermal.solve".to_string()],
        )
        .unwrap(),
    );
    let mut outcomes = batch::run(&scenarios).unwrap();
    let faulty = outcomes.remove(5);
    assert!(
        matches!(faulty, Err(FlowError::NoConvergence { .. })),
        "{faulty:?}"
    );
    assert!(
        batch::sweep_json(&clean, &outcomes).unwrap() == reference,
        "the faulty scenario disturbed a sibling"
    );
}
