//! The artifact-store contract: stage keys move exactly with their
//! declared input projections, scenarios that agree on a stage's inputs
//! share one computation, cached output is byte-identical to the
//! uncached sequential reference (cold, memory-warm, and after a
//! simulated restart, at several worker counts), and fault-armed
//! scenarios never touch the shared store.

use chiplet::report::REPORTS;
use codesign::batch;
use codesign::context::{ComputeCounts, FrontEnd, StudyContext, NETLISTS, SPLIT, STAGES};
use codesign::scenario::{Scenario, ScenarioOverrides};
use codesign::table5::{MonitorLengths, LINKS};
use interposer::report::LAYOUT;
use std::path::PathBuf;
use std::sync::Arc;
use techlib::spec::{InterposerKind, InterposerSpec, RoutingStyle, Stacking};
use techlib::store::{ArtifactStore, SpecField, StoreStats};
use thermal::report::THERMAL;

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

/// Every stage key must change when — and only when — a field *inside
/// its declared projection* changes. A key that misses a consumed field
/// would alias two different computations (unsound); a key that hashes
/// an unconsumed field would split shareable work (wasteful). The
/// projections are declared as data precisely so this test can
/// enumerate them.
#[test]
fn stage_keys_move_exactly_with_their_declared_projections() {
    for tech in [InterposerKind::Glass25D, InterposerKind::Silicon3D] {
        let base = InterposerSpec::for_kind(tech);
        for stage in &STAGES {
            let key_of = |spec: &InterposerSpec| stage.key(spec, &[]);
            let base_key = key_of(&base);
            assert_eq!(
                base_key,
                key_of(&base.clone()),
                "{}: key not pure",
                stage.name
            );
            for field in SpecField::ALL {
                let moved = key_of(&perturbed(&base, field)) != base_key;
                assert_eq!(
                    moved,
                    stage.projection.contains(&field),
                    "{} key vs {:?} field {}: projection {:?}",
                    stage.name,
                    tech,
                    field.name(),
                    stage.projection
                );
            }
        }
    }

    // Upstream sensitivity: the chiplet reports consume the netlists
    // artifact, so a different netlists key must move the reports key.
    let spec = InterposerSpec::for_kind(InterposerKind::Glass25D);
    assert_ne!(
        REPORTS.key(&spec, &[("netlists", FrontEnd::netlists_key())]),
        REPORTS.key(&spec, &[("netlists", FrontEnd::split_key())]),
        "reports key ignores its netlists upstream"
    );
    // Front-end keys are constants of the built-in design.
    assert_eq!(FrontEnd::split_key(), FrontEnd::split_key());
    assert_eq!(FrontEnd::netlists_key(), FrontEnd::netlists_key());
    assert_ne!(FrontEnd::split_key(), FrontEnd::netlists_key());
}

/// Every stage row keys a namespace of its own: two rows sharing a name
/// could share keys, which only the store's type check would notice.
#[test]
fn stage_rows_have_pairwise_distinct_names() {
    for (i, a) in STAGES.iter().enumerate() {
        for b in &STAGES[i + 1..] {
            assert_ne!(a.name, b.name, "two stage rows share a key namespace");
        }
    }
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
            if !THERMAL.projection.contains(&field) {
                assert!(
                    thermal_json(&spec) == thermal_base,
                    "{tech:?}: thermal report depends on {}",
                    field.name()
                );
            }
            if !REPORTS.projection.contains(&field) {
                assert!(
                    reports_json(&spec) == reports_base,
                    "{tech:?}: chiplet reports depend on {}",
                    field.name()
                );
            }
        }
    }

    // The layout holds no spec and no PDN plan, so it must be the same
    // bytes under every field its key leaves out: the stack-up and the
    // loss tangent.
    for tech in [InterposerKind::Glass3D, InterposerKind::Silicon25D] {
        let layout_json = |spec: &InterposerSpec| {
            serde_json::to_string(&interposer::report::place_and_route_with(spec).unwrap()).unwrap()
        };
        let base = InterposerSpec::for_kind(tech);
        let layout_base = layout_json(&base);
        for field in SpecField::ALL {
            if !LAYOUT.projection.contains(&field) {
                assert!(
                    layout_json(&perturbed(&base, field)) == layout_base,
                    "{tech:?}: layout depends on {}",
                    field.name()
                );
            }
        }
    }
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
        LAYOUT.key(base.spec(tech), &[]),
        LAYOUT.key(lossy.spec(tech), &[]),
        "loss tangent must not invalidate the routed layout"
    );
    let (b_l2m, b_l2l) =
        codesign::table5::channels_for_in(&base, tech, MonitorLengths::Routed).unwrap();
    let (l_l2m, l_l2l) =
        codesign::table5::channels_for_in(&lossy, tech, MonitorLengths::Routed).unwrap();
    assert_ne!(
        codesign::table5::links_key(&base, tech, &b_l2m, &b_l2l),
        codesign::table5::links_key(&lossy, tech, &l_l2m, &l_l2l),
        "loss tangent feeds the transient decks, so the links key must move"
    );
}

/// Runs `scenarios` on contexts that share one in-memory store and one
/// front end. Returns the compute counts of the whole run and the
/// store's stats.
fn run_sharing_one_store(scenarios: &[Scenario]) -> (ComputeCounts, StoreStats) {
    let store = Arc::new(ArtifactStore::in_memory());
    let shared = Arc::new(FrontEnd::with_store(Arc::clone(&store)));
    let contexts: Vec<StudyContext> = scenarios
        .iter()
        .map(|s| StudyContext::for_scenario_with(s, Arc::clone(&shared), Some(Arc::clone(&store))))
        .collect();
    for (ctx, scenario) in contexts.iter().zip(scenarios) {
        batch::run_in_context(ctx, scenario).unwrap();
    }
    // The front-end counters live on the shared front end, which every
    // context reports; the other stages' counters are per-context and
    // sum over the run.
    let front = contexts[0].compute_counts();
    let zero = ComputeCounts {
        reports: 0,
        layouts: 0,
        links: 0,
        thermal: 0,
        ..front
    };
    let sums = contexts
        .iter()
        .map(StudyContext::compute_counts)
        .fold(zero, |acc, c| ComputeCounts {
            reports: acc.reports + c.reports,
            layouts: acc.layouts + c.layouts,
            links: acc.links + c.links,
            thermal: acc.thermal + c.thermal,
            ..acc
        });
    (sums, store.stats())
}

/// A Glass 2.5D scenario with `overrides`.
fn glass25d_with(name: String, overrides: ScenarioOverrides) -> Scenario {
    Scenario::new(
        name,
        InterposerKind::Glass25D,
        MonitorLengths::Routed,
        overrides,
        Vec::new(),
    )
    .unwrap()
}

/// Eight scenarios that differ *only* in an SI knob (loss tangent) must
/// perform exactly one split, one chipletization, one chiplet-report
/// analysis, one placement+route, and one thermal solve between them —
/// the whole physical prefix is shared through the store — while each
/// scenario still simulates its own links.
#[test]
fn si_only_sweep_shares_the_physical_prefix_across_scenarios() {
    let scenarios: Vec<Scenario> = (0..8)
        .map(|i| {
            glass25d_with(
                format!("tan{i}"),
                ScenarioOverrides {
                    loss_tangent: Some(0.003 + 0.000_5 * i as f64),
                    ..Default::default()
                },
            )
        })
        .collect();
    let (sums, stats) = run_sharing_one_store(&scenarios);
    assert_eq!(sums.split, 1, "split ran more than once");
    assert_eq!(sums.netlists, 1);
    assert_eq!(sums.reports, 1, "chiplet reports not shared");
    assert_eq!(sums.layouts, 1, "placement/route not shared");
    assert_eq!(sums.thermal, 1, "thermal solve not shared");
    // Loss tangent is a genuine link input: every scenario simulates.
    assert_eq!(sums.links, scenarios.len(), "distinct links wrongly shared");
    assert!(stats.mem_hits > 0, "sharing never hit memory: {stats:?}");
    assert_eq!(stats.disk_hits, 0, "in-memory store claims disk hits");
}

/// Scenarios that differ only in the stack-up (metal and dielectric
/// thickness, dielectric constant, core thickness) route once between
/// them: placement, grid and router read none of those fields. Each
/// stack-up changes the channels, so every scenario simulates its links.
#[test]
fn stack_up_sweep_routes_once() {
    let scenarios = [
        ScenarioOverrides {
            metal_thickness_um: Some(5.0),
            ..Default::default()
        },
        ScenarioOverrides {
            dielectric_thickness_um: Some(20.0),
            ..Default::default()
        },
        ScenarioOverrides {
            dielectric_constant: Some(3.5),
            ..Default::default()
        },
        ScenarioOverrides {
            core_thickness_um: Some(300.0),
            ..Default::default()
        },
    ]
    .into_iter()
    .enumerate()
    .map(|(i, overrides)| glass25d_with(format!("stack{i}"), overrides))
    .collect::<Vec<_>>();
    let (sums, stats) = run_sharing_one_store(&scenarios);
    assert_eq!(sums.layouts, 1, "stack-up scenarios re-routed");
    assert_eq!(sums.links, scenarios.len(), "distinct links wrongly shared");
    assert!(stats.mem_hits > 0, "sharing never hit memory: {stats:?}");
}

/// The three scenarios of the identity test: a paper default, a
/// loss-tangent override and a fault-armed one, as a `codesign sweep`
/// scenario file.
const IDENTITY_SCENARIOS: &str = r#"[
  { "name": "paper-glass25d", "tech": "glass25d" },
  { "name": "lossy-glass", "tech": "glass25d", "overrides": { "loss_tangent": 0.006 } },
  { "name": "broken-thermal", "tech": "glass3d", "fault_sites": ["thermal.solve"] }
]"#;

/// One `codesign sweep --json --stats` child over the cache directory
/// `dir` at `workers` workers: its stdout and its `--stats` counter
/// table. The worker count is fixed for the life of a process, so each
/// width needs its own process.
fn sweep_child(file: &std::path::Path, dir: &std::path::Path, workers: &str) -> (String, String) {
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_codesign"))
        .arg("sweep")
        .arg(file)
        .args(["--json", "--stats", "--cache-dir"])
        .arg(dir)
        .env(techlib::par::THREADS_ENV, workers)
        .output()
        .expect("codesign sweep runs");
    // The fault-armed scenario fails on its own row, so the sweep exits 1.
    assert_eq!(out.status.code(), Some(1), "sweep at {workers} workers");
    (
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
        String::from_utf8(out.stderr).expect("utf-8 stderr"),
    )
}

/// A counter's value in a `--stats` table.
fn stats_counter(table: &str, name: &str) -> u64 {
    table
        .lines()
        .find_map(|line| {
            let mut cols = line.split_whitespace();
            (cols.next() == Some(name)).then(|| cols.next()?.parse().ok())?
        })
        .unwrap_or_else(|| panic!("no {name} row in:\n{table}"))
}

/// The hard invariant of the whole store: every output byte is
/// identical to the uncached sequential reference — when the cache is
/// cold, when a new process rereads a previous run's disk tier (a
/// restart), and when it is memory-warm — at several worker counts,
/// mixed clean/overridden/faulty scenarios. Each worker count runs in
/// its own `codesign sweep` child over one shared cache directory.
#[test]
fn cached_sweeps_are_byte_identical_to_the_uncached_reference() {
    let scenarios = codesign::scenario::scenarios_from_json(IDENTITY_SCENARIOS).unwrap();
    let reference = {
        let outcomes = batch::run_sequential(&scenarios);
        batch::sweep_json(&scenarios, &outcomes).unwrap()
    };

    let dir = temp_dir("identity");
    let file = temp_dir("identity_scenarios.json");
    std::fs::write(&file, IDENTITY_SCENARIOS).unwrap();
    for (pass, workers) in ["1", "2", "4", "7"].into_iter().enumerate() {
        // The first child is genuinely cold; every later one starts
        // with an empty memory tier and replays the disk tier the way
        // a restarted process would.
        let (stdout, stats) = sweep_child(&file, &dir, workers);
        assert_eq!(
            stdout,
            format!("{reference}\n"),
            "store-backed sweep diverges at {workers} workers"
        );
        if pass > 0 {
            assert!(
                stats_counter(&stats, "store.disk_hit") > 0,
                "restart at {workers} workers never read the disk tier:\n{stats}"
            );
            // `store.miss` also counts the fault-armed scenario's
            // private in-memory store; every miss on the shared disk
            // store would write its artifact back.
            assert_eq!(
                stats_counter(&stats, "store.write"),
                0,
                "warm restart at {workers} workers recomputed:\n{stats}"
            );
        }
    }
    let _ = std::fs::remove_file(&file);

    // This process restarts over the children's disk tier, then runs
    // again from its now memory-warm store.
    let store = Arc::new(ArtifactStore::with_disk(&dir).unwrap());
    let replay = batch::run_with_store(&scenarios, Some(Arc::clone(&store))).unwrap();
    assert_eq!(batch::sweep_json(&scenarios, &replay).unwrap(), reference);
    let stats = store.stats();
    assert!(
        stats.disk_hits > 0,
        "restart never read the disk tier: {stats:?}"
    );
    assert_eq!(stats.misses, 0, "warm restart recomputed: {stats:?}");
    let warm = batch::run_with_store(&scenarios, Some(Arc::clone(&store))).unwrap();
    assert_eq!(
        batch::sweep_json(&scenarios, &warm).unwrap(),
        reference,
        "memory-warm sweep diverges"
    );
    assert_eq!(
        store.stats().disk_hits,
        stats.disk_hits,
        "memory-warm pass went back to disk"
    );
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

/// Every artifact in the disk tier decodes and re-encodes to exactly
/// the bytes of its file, so a disk hit hands later stages the very
/// value the cold run stored. A cold Silicon 2.5D sweep fills the tier;
/// a fresh store over the same directory then reads each stage's
/// artifact back, with no recomputation.
#[test]
fn disk_artifacts_re_encode_to_their_file_bytes() {
    let dir = temp_dir("reencode");
    let scenario = Scenario::paper(InterposerKind::Silicon25D);
    let scenarios = std::slice::from_ref(&scenario);
    let cold = Arc::new(ArtifactStore::with_disk(&dir).unwrap());
    let outcomes = batch::run_with_store(scenarios, Some(cold)).unwrap();
    assert!(outcomes[0].is_ok(), "cold sweep failed: {:?}", outcomes[0]);

    let store = Arc::new(ArtifactStore::with_disk(&dir).unwrap());
    let frontend = Arc::new(FrontEnd::with_store(Arc::clone(&store)));
    let ctx = StudyContext::for_scenario_with(&scenario, frontend, Some(Arc::clone(&store)));
    let tech = scenario.tech();
    let spec = ctx.spec(tech).clone();
    let (l2m, l2l) = codesign::table5::channels_for_in(&ctx, tech, scenario.mode()).unwrap();
    let artifacts = [
        (SPLIT, FrontEnd::split_key(), encode(&*ctx.split().unwrap())),
        (
            NETLISTS,
            FrontEnd::netlists_key(),
            encode(&*ctx.chiplet_netlists().unwrap()),
        ),
        (
            REPORTS,
            REPORTS.key(&spec, &[("netlists", FrontEnd::netlists_key())]),
            encode(&*ctx.chiplet_reports(tech).unwrap()),
        ),
        (
            LAYOUT,
            LAYOUT.key(&spec, &[]),
            encode(&*ctx.layout(tech).unwrap()),
        ),
        (
            LINKS,
            codesign::table5::links_key(&ctx, tech, &l2m, &l2l),
            encode(&*ctx.links_row(tech, scenario.mode()).unwrap()),
        ),
        (
            THERMAL,
            THERMAL.key(&spec, &[]),
            encode(&*ctx.thermal_report(tech).unwrap()),
        ),
    ];
    assert_eq!(
        artifacts.each_ref().map(|(stage, ..)| *stage),
        STAGES,
        "every stage row is checked"
    );
    let stats = store.stats();
    assert_eq!(stats.misses, 0, "a stage recomputed: {stats:?}");
    assert_eq!(stats.disk_hits, 6, "every stage read from disk: {stats:?}");

    let disk = store.disk_dir().unwrap();
    for (stage, key, encoded) in &artifacts {
        let file = std::fs::read_to_string(disk.join(format!("{}.json", key.hex()))).unwrap();
        assert!(
            *encoded == file,
            "{}: the decoded artifact re-encodes to {} bytes, its file has {}",
            stage.name,
            encoded.len(),
            file.len()
        );
    }
    let files = std::fs::read_dir(disk).unwrap().count();
    assert_eq!(files, artifacts.len(), "a stored artifact went unchecked");
    let _ = std::fs::remove_dir_all(&dir);
}

fn encode<T: serde::Serialize>(artifact: &T) -> String {
    serde_json::to_string(artifact).expect("artifacts serialize")
}
