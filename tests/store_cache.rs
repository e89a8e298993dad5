//! The artifact-store contract: stage keys move exactly with their
//! declared input projections, scenarios that agree on a stage's inputs
//! share one computation, cached output is byte-identical to the
//! uncached sequential reference (cold, memory-warm, and after a
//! simulated restart, at several worker counts), and fault-armed
//! scenarios never touch the shared store.

use codesign::batch;
use codesign::context::{FrontEnd, StudyContext};
use codesign::scenario::{Scenario, ScenarioOverrides};
use codesign::table5::MonitorLengths;
use std::path::PathBuf;
use std::sync::Arc;
use techlib::spec::{InterposerKind, InterposerSpec, RoutingStyle, Stacking};
use techlib::store::{ArtifactStore, SpecField, StoreStats};

/// A fresh per-process scratch directory for a disk-backed store.
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "codesign_store_cache_test_{}_{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Returns `spec` with exactly `field` changed to a different value.
fn perturbed(spec: &InterposerSpec, field: SpecField) -> InterposerSpec {
    let mut s = spec.clone();
    match field {
        SpecField::Kind => {
            s.kind = if s.kind == InterposerKind::Glass25D {
                InterposerKind::Silicon25D
            } else {
                InterposerKind::Glass25D
            }
        }
        SpecField::SignalMetalLayers => s.signal_metal_layers += 1,
        SpecField::MetalThicknessUm => s.metal_thickness_um += 0.125,
        SpecField::DielectricThicknessUm => s.dielectric_thickness_um += 0.125,
        SpecField::DielectricConstant => s.dielectric_constant += 0.125,
        SpecField::LossTangent => s.loss_tangent += 0.000_5,
        SpecField::MinWireWidthUm => s.min_wire_width_um += 0.125,
        SpecField::MinWireSpaceUm => s.min_wire_space_um += 0.125,
        SpecField::ViaSizeUm => s.via_size_um += 0.125,
        SpecField::BumpSizeUm => s.bump_size_um += 0.125,
        SpecField::DieToDieSpacingUm => s.die_to_die_spacing_um += 0.125,
        SpecField::MicrobumpPitchUm => s.microbump_pitch_um += 0.125,
        SpecField::Stacking => {
            s.stacking = if s.stacking == Stacking::SideBySide {
                Stacking::Embedded
            } else {
                Stacking::SideBySide
            }
        }
        SpecField::RoutingStyle => {
            s.routing_style = if s.routing_style == RoutingStyle::Manhattan {
                RoutingStyle::Diagonal
            } else {
                RoutingStyle::Manhattan
            }
        }
        SpecField::CoreThicknessUm => s.core_thickness_um += 0.125,
    }
    s
}

/// Every spec-projected stage key must change when — and only when — a
/// field *inside its declared projection* changes. A key that misses a
/// consumed field would alias two different computations (unsound); a
/// key that hashes an unconsumed field would split shareable work
/// (wasteful). The projections are declared as data precisely so this
/// test can enumerate them.
#[test]
fn stage_keys_move_exactly_with_their_declared_projections() {
    type KeyFn<'a> = &'a dyn Fn(&InterposerSpec) -> techlib::store::StoreKey;
    let netlists = FrontEnd::netlists_key();
    let stages: [(&str, &[SpecField], KeyFn); 3] = [
        (
            "layout",
            interposer::report::LAYOUT_PROJECTION,
            &interposer::report::layout_store_key,
        ),
        (
            "thermal",
            thermal::report::THERMAL_PROJECTION,
            &thermal::report::thermal_store_key,
        ),
        (
            "chiplet_reports",
            chiplet::report::REPORTS_PROJECTION,
            &|spec| chiplet::report::reports_store_key(spec, netlists),
        ),
    ];
    for tech in [InterposerKind::Glass25D, InterposerKind::Silicon3D] {
        let base = InterposerSpec::for_kind(tech);
        for (stage, projection, key_of) in &stages {
            let base_key = key_of(&base);
            assert_eq!(base_key, key_of(&base.clone()), "{stage}: key not pure");
            for field in SpecField::ALL {
                let moved = key_of(&perturbed(&base, field)) != base_key;
                assert_eq!(
                    moved,
                    projection.contains(&field),
                    "{stage} key vs {:?} field {}: projection {:?}",
                    tech,
                    field.name(),
                    projection
                );
            }
        }
    }

    // Upstream sensitivity: the chiplet reports consume the netlists
    // artifact, so a different netlists key must move the reports key.
    let spec = InterposerSpec::for_kind(InterposerKind::Glass25D);
    assert_ne!(
        chiplet::report::reports_store_key(&spec, netlists),
        chiplet::report::reports_store_key(&spec, FrontEnd::split_key()),
        "reports key ignores its netlists upstream"
    );
    // Front-end keys are constants of the built-in design.
    assert_eq!(FrontEnd::split_key(), FrontEnd::split_key());
    assert_eq!(FrontEnd::netlists_key(), FrontEnd::netlists_key());
    assert_ne!(FrontEnd::split_key(), FrontEnd::netlists_key());
}

/// The other half of projection soundness: the artifacts themselves
/// ignore every field their key leaves out. Perturbing any field outside
/// a stage's projection must leave its serialized artifact bit-identical
/// — otherwise two specs sharing a key would share a wrong artifact.
#[test]
fn artifacts_ignore_the_fields_their_projections_leave_out() {
    let front = FrontEnd::new();
    let netlists = front.chiplet_netlists().unwrap();
    let (logic_nl, mem_nl) = &*netlists;
    let thermal_json = |spec: &InterposerSpec| {
        serde_json::to_string(&thermal::report::analyze_with(spec).unwrap()).unwrap()
    };
    let reports_json = |spec: &InterposerSpec| {
        let pair = chiplet::report::analyze_pair_with(logic_nl, mem_nl, spec).unwrap();
        serde_json::to_string(&pair).unwrap()
    };
    for tech in [InterposerKind::Glass3D, InterposerKind::Silicon3D] {
        let base = InterposerSpec::for_kind(tech);
        let (thermal_base, reports_base) = (thermal_json(&base), reports_json(&base));
        for field in SpecField::ALL {
            let spec = perturbed(&base, field);
            if !thermal::report::THERMAL_PROJECTION.contains(&field) {
                assert!(
                    thermal_json(&spec) == thermal_base,
                    "{tech:?}: thermal report depends on {}",
                    field.name()
                );
            }
            if !chiplet::report::REPORTS_PROJECTION.contains(&field) {
                assert!(
                    reports_json(&spec) == reports_base,
                    "{tech:?}: chiplet reports depend on {}",
                    field.name()
                );
            }
        }
    }

    // The layout records the spec it was routed against; apart from
    // that record, a loss-tangent change leaves the Glass 3D layout
    // untouched.
    let base = InterposerSpec::for_kind(InterposerKind::Glass3D);
    let layout_json = |spec: &InterposerSpec| {
        let mut layout = interposer::report::place_and_route_with(spec).unwrap();
        layout.spec = base.clone();
        layout.pdn.spec = base.clone();
        serde_json::to_string(&layout).unwrap()
    };
    assert!(!interposer::report::LAYOUT_PROJECTION.contains(&SpecField::LossTangent));
    assert!(
        layout_json(&perturbed(&base, SpecField::LossTangent)) == layout_json(&base),
        "Glass 3D layout depends on loss_tangent"
    );
}

/// The SI-links key hashes the channel descriptors and the full spec of
/// each channel's technology, so a loss-tangent change moves the links
/// key while leaving the layout key — and therefore the shared
/// placement/route artifact — untouched.
#[test]
fn loss_tangent_moves_the_links_key_but_not_the_layout_key() {
    let tech = InterposerKind::Glass25D;
    let base = StudyContext::for_scenario(&Scenario::paper(tech));
    let lossy = StudyContext::for_scenario(
        &Scenario::new(
            "lossy",
            tech,
            MonitorLengths::Routed,
            ScenarioOverrides {
                loss_tangent: Some(0.007),
                ..Default::default()
            },
            Vec::new(),
        )
        .unwrap(),
    );
    assert_eq!(
        interposer::report::layout_store_key(base.spec(tech)),
        interposer::report::layout_store_key(lossy.spec(tech)),
        "loss tangent must not invalidate the routed layout"
    );
    let (b_l2m, b_l2l) =
        codesign::table5::channels_for_in(&base, tech, MonitorLengths::Routed).unwrap();
    let (l_l2m, l_l2l) =
        codesign::table5::channels_for_in(&lossy, tech, MonitorLengths::Routed).unwrap();
    assert_ne!(
        codesign::table5::links_store_key(&base, tech, &b_l2m, &b_l2l),
        codesign::table5::links_store_key(&lossy, tech, &l_l2m, &l_l2l),
        "loss tangent feeds the transient decks, so the links key must move"
    );
}

/// Eight scenarios that differ *only* in an SI knob (loss tangent) must
/// perform exactly one split, one chipletization, one chiplet-report
/// analysis, one placement+route, and one thermal solve between them —
/// the whole physical prefix is shared through the store — while each
/// scenario still simulates its own links.
#[test]
fn si_only_sweep_shares_the_physical_prefix_across_scenarios() {
    let tech = InterposerKind::Glass25D;
    let scenarios: Vec<Scenario> = (0..8)
        .map(|i| {
            Scenario::new(
                format!("tan{i}"),
                tech,
                MonitorLengths::Routed,
                ScenarioOverrides {
                    loss_tangent: Some(0.003 + 0.000_5 * i as f64),
                    ..Default::default()
                },
                Vec::new(),
            )
            .unwrap()
        })
        .collect();
    let store = Arc::new(ArtifactStore::in_memory());
    let shared = Arc::new(FrontEnd::with_store(Arc::clone(&store)));
    let contexts: Vec<StudyContext> = scenarios
        .iter()
        .map(|s| StudyContext::for_scenario_with(s, Arc::clone(&shared), Some(Arc::clone(&store))))
        .collect();
    for (ctx, scenario) in contexts.iter().zip(&scenarios) {
        batch::run_in_context(ctx, scenario).unwrap();
    }

    // The front-end counters live on the shared front end; the
    // per-stage counters are per-context and must sum to one compute
    // for every store-shared stage.
    assert_eq!(shared.split_compute_count(), 1, "split ran more than once");
    assert_eq!(shared.netlists_compute_count(), 1);
    let sums = contexts
        .iter()
        .map(StudyContext::compute_counts)
        .fold((0, 0, 0, 0), |(r, l, k, t), c| {
            (r + c.reports, l + c.layouts, k + c.links, t + c.thermal)
        });
    assert_eq!(sums.0, 1, "chiplet reports not shared");
    assert_eq!(sums.1, 1, "placement/route not shared");
    assert_eq!(sums.3, 1, "thermal solve not shared");
    // Loss tangent is a genuine link input: every scenario simulates.
    assert_eq!(sums.2, scenarios.len(), "distinct links wrongly shared");
    let stats = store.stats();
    assert!(stats.mem_hits > 0, "sharing never hit memory: {stats:?}");
    assert_eq!(stats.disk_hits, 0, "in-memory store claims disk hits");
}

/// The hard invariant of the whole store: every output byte is
/// identical to the uncached sequential reference — when the cache is
/// cold, when it is memory-warm, and when a new store instance rereads
/// a previous run's disk tier (a simulated process restart) — at
/// several worker counts, mixed clean/overridden/faulty scenarios.
#[test]
fn cached_sweeps_are_byte_identical_to_the_uncached_reference() {
    let scenarios = vec![
        Scenario::paper(InterposerKind::Glass25D),
        Scenario::new(
            "lossy-glass",
            InterposerKind::Glass25D,
            MonitorLengths::Routed,
            ScenarioOverrides {
                loss_tangent: Some(0.006),
                ..Default::default()
            },
            Vec::new(),
        )
        .unwrap(),
        Scenario::new(
            "broken-thermal",
            InterposerKind::Glass3D,
            MonitorLengths::Routed,
            ScenarioOverrides::default(),
            vec!["thermal.solve".to_string()],
        )
        .unwrap(),
    ];
    let reference = {
        let outcomes = batch::run_sequential(&scenarios);
        batch::sweep_json(&scenarios, &outcomes).unwrap()
    };

    let dir = temp_dir("identity");
    for workers in ["1", "2", "4", "7"] {
        std::env::set_var(techlib::par::THREADS_ENV, workers);
        // A new store instance per worker count: the first pass is
        // genuinely cold, every later pass replays the disk tier the
        // way a restarted process would.
        let store = Arc::new(ArtifactStore::with_disk(&dir).unwrap());
        let cold = batch::run_with_store(&scenarios, Some(Arc::clone(&store))).unwrap();
        assert_eq!(
            batch::sweep_json(&scenarios, &cold).unwrap(),
            reference,
            "store-backed sweep diverges at {workers} workers"
        );
        let warm = batch::run_with_store(&scenarios, Some(store)).unwrap();
        assert_eq!(
            batch::sweep_json(&scenarios, &warm).unwrap(),
            reference,
            "memory-warm sweep diverges at {workers} workers"
        );
    }

    // The last restart must have been served from the disk tier.
    let store = Arc::new(ArtifactStore::with_disk(&dir).unwrap());
    let replay = batch::run_with_store(&scenarios, Some(Arc::clone(&store))).unwrap();
    assert_eq!(batch::sweep_json(&scenarios, &replay).unwrap(), reference);
    let stats = store.stats();
    assert!(
        stats.disk_hits > 0,
        "restart never read the disk tier: {stats:?}"
    );
    assert_eq!(stats.misses, 0, "warm restart recomputed: {stats:?}");
}

/// Fault-armed scenarios must leave the shared store untouched: no
/// reads, no writes, no disk entries — an artifact produced (or even
/// requested) under an injected fault must never be able to poison a
/// later clean run.
#[test]
fn fault_armed_scenarios_never_touch_the_store() {
    let dir = temp_dir("faults");
    let store = Arc::new(ArtifactStore::with_disk(&dir).unwrap());
    let scenarios = vec![
        Scenario::new(
            "broken-extract",
            InterposerKind::Glass25D,
            MonitorLengths::Routed,
            ScenarioOverrides::default(),
            vec!["extract.channels".to_string()],
        )
        .unwrap(),
        Scenario::new(
            "broken-thermal",
            InterposerKind::Glass25D,
            MonitorLengths::Routed,
            ScenarioOverrides::default(),
            vec!["thermal.solve".to_string()],
        )
        .unwrap(),
    ];
    let outcomes = batch::run_sequential_with_store(&scenarios, Some(Arc::clone(&store)));
    assert!(outcomes.iter().all(Result::is_err), "faults did not fire");
    assert_eq!(store.stats(), StoreStats::default(), "store was touched");
    let entries: Vec<_> = std::fs::read_dir(store.disk_dir().unwrap())
        .map(|it| it.filter_map(Result::ok).collect())
        .unwrap_or_default();
    assert!(
        entries.is_empty(),
        "fault-armed sweep wrote disk entries: {entries:?}"
    );
}
