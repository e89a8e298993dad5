//! Scenario-scoped study contexts over one artifact store.
//!
//! A [`StudyContext`] is a label, the scenario's resolved
//! [`InterposerSpec`]s, a [`FrontEnd`] and an [`ArtifactStore`]. Every
//! artifact accessor — chiplet reports, routed layouts, Table V link
//! rows, thermal reports, and the front end's split and chipletized
//! netlists — is one store lookup under the stage's key, computing only
//! on a miss. The store is the only memo: contexts that share a store
//! share every artifact whose stage key coincides, and contexts with
//! private stores share nothing.
//!
//! Who shares what:
//!
//! * a batch ([`crate::batch`]) builds one store per call, shared by its
//!   clean scenarios and their common front end; fault-armed scenarios
//!   get a private throwaway store;
//! * [`StudyContext::paper`], [`StudyContext::for_scenario`] and
//!   [`StudyContext::for_scenario_with`] without a store each get a
//!   fresh private store.
//!
//! There is no process-wide context: every entry point of the flow
//! takes the context it runs in, so a caller that wants two runs to
//! share artifacts passes them one context, and artifacts are freed
//! with the last handle to their store.

use crate::scenario::Scenario;
use crate::table5::{MonitorLengths, Table5Row};
use crate::FlowError;
use chiplet::report::ChipletReport;
use interposer::report::InterposerLayout;
use netlist::chiplet_netlist::ChipletNetlist;
use netlist::design::Design;
use netlist::partition::Partition;
use netlist::serdes::SerdesPlan;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use techlib::spec::{InterposerKind, InterposerSpec};
use techlib::store::{ArtifactStore, Codec, KeyHasher, StoreKey};
use thermal::report::ThermalReport;

/// Algorithm version of the hierarchical-split stage. Bump when the
/// partitioner or the serialized [`Partition`] shape changes.
pub const SPLIT_STAGE_VERSION: u32 = 1;

/// Algorithm version of the chipletize stage. Bump when chipletization
/// or the serialized [`ChipletNetlist`] shape changes.
pub const NETLISTS_STAGE_VERSION: u32 = 1;

/// JSON codec for any serde round-trippable artifact.
fn json_codec<T: serde::Serialize + serde::DeserializeOwned>() -> Codec<T> {
    Codec {
        encode: |v| serde_json::to_string(v).ok(),
        decode: |s| serde_json::from_str_typed(s).ok(),
    }
}

fn count(counter: &AtomicUsize) {
    counter.fetch_add(1, Ordering::Relaxed);
}

/// The spec-independent front end of the flow: the two-tile OpenPiton
/// design, its hierarchical L3 split and the chipletized (logic, memory)
/// netlists. None of these depend on an [`InterposerSpec`], so clean
/// scenarios may share one `FrontEnd` through an [`Arc`].
///
/// The split and the netlists live in the front end's store. Only
/// **successes** are stored: a failure (including one injected at the
/// `partition.split` fault site) is returned to the caller and the next
/// call recomputes, so errors never poison the store.
#[derive(Debug)]
pub struct FrontEnd {
    design: OnceLock<Arc<Design>>,
    store: Arc<ArtifactStore>,
    split_computes: AtomicUsize,
    netlists_computes: AtomicUsize,
}

impl Default for FrontEnd {
    fn default() -> FrontEnd {
        FrontEnd::new()
    }
}

impl FrontEnd {
    /// A front end over a fresh private in-memory store.
    pub fn new() -> FrontEnd {
        FrontEnd::with_store(Arc::new(ArtifactStore::in_memory()))
    }

    /// A front end whose split/chipletize artifacts live in `store`, so
    /// every front end over the same store — and, with a disk tier,
    /// every later process over the same `--cache-dir` — reuses one
    /// split instead of re-partitioning.
    pub fn with_store(store: Arc<ArtifactStore>) -> FrontEnd {
        FrontEnd {
            design: OnceLock::new(),
            store,
            split_computes: AtomicUsize::new(0),
            netlists_computes: AtomicUsize::new(0),
        }
    }

    /// The split stage's store key. The front end is spec-independent:
    /// the key covers the (fixed) design identity and the stage version
    /// only, so *every* clean scenario shares one entry.
    pub fn split_key() -> StoreKey {
        let mut h = KeyHasher::new("split", SPLIT_STAGE_VERSION);
        h.field_str("design", "openpiton-2tile");
        h.finish()
    }

    /// The chipletize stage's store key: downstream of the split, plus
    /// the SerDes plan the netlists are built with.
    pub fn netlists_key() -> StoreKey {
        let plan = SerdesPlan::paper();
        let mut h = KeyHasher::new("chiplet_netlists", NETLISTS_STAGE_VERSION);
        h.upstream("split", FrontEnd::split_key());
        h.field_u64("serdes.wires_before", plan.wires_before as u64);
        h.field_u64("serdes.wires_after", plan.wires_after as u64);
        h.field_u64("serdes.added_cycles", plan.added_cycles as u64);
        h.field_u64("serdes.added_cells", plan.added_cells as u64);
        h.finish()
    }

    /// The two-tile OpenPiton-like design (infallible, built once per
    /// front end; it is the flow's fixed input, not a stage artifact).
    pub fn design(&self) -> Arc<Design> {
        Arc::clone(
            self.design
                .get_or_init(|| Arc::new(netlist::openpiton::two_tile_openpiton())),
        )
    }

    /// The hierarchical L3 split of [`FrontEnd::design`].
    ///
    /// # Errors
    ///
    /// Partitioning failure (never stored).
    pub fn split(&self) -> Result<Arc<Partition>, FlowError> {
        self.store
            .get_or_compute(FrontEnd::split_key(), &json_codec(), || {
                count(&self.split_computes);
                netlist::partition::hierarchical_l3_split(&self.design()).map_err(FlowError::from)
            })
            .map(|(split, _)| split)
    }

    /// The chipletized (logic, memory) netlists with the paper's SerDes
    /// plan.
    ///
    /// # Errors
    ///
    /// Partitioning failure (never stored).
    pub fn chiplet_netlists(&self) -> Result<Arc<(ChipletNetlist, ChipletNetlist)>, FlowError> {
        self.store
            .get_or_compute(FrontEnd::netlists_key(), &json_codec(), || {
                let split = self.split()?;
                count(&self.netlists_computes);
                Ok(netlist::chiplet_netlist::chipletize(
                    &self.design(),
                    &split,
                    &SerdesPlan::paper(),
                ))
            })
            .map(|(netlists, _)| netlists)
    }

    /// How many hierarchical splits this front end has actually run
    /// (store hits don't count) — the regression hook for "shared
    /// context means one split".
    pub fn split_compute_count(&self) -> usize {
        self.split_computes.load(Ordering::Relaxed)
    }

    /// How many chipletizations have actually run.
    pub fn netlists_compute_count(&self) -> usize {
        self.netlists_computes.load(Ordering::Relaxed)
    }
}

/// One scenario's view of the flow: its label and resolved specs, the
/// front end it shares, and the artifact store every spec-dependent
/// stage goes through. Per-stage counters record the computes this
/// context actually ran (store hits don't count).
#[derive(Debug)]
pub struct StudyContext {
    label: String,
    specs: [InterposerSpec; InterposerKind::COUNT],
    frontend: Arc<FrontEnd>,
    store: Arc<ArtifactStore>,
    report_computes: AtomicUsize,
    layout_computes: AtomicUsize,
    links_computes: AtomicUsize,
    thermal_computes: AtomicUsize,
}

impl StudyContext {
    /// A fresh context serving the paper-default Table I specs over a
    /// private store.
    pub fn paper() -> StudyContext {
        StudyContext::over(
            "paper".to_string(),
            default_specs(),
            Arc::new(ArtifactStore::in_memory()),
        )
    }

    /// A private context for `scenario`: its own front end and store.
    pub fn for_scenario(scenario: &Scenario) -> StudyContext {
        StudyContext::over(
            scenario.name().to_string(),
            scenario_specs(scenario),
            Arc::new(ArtifactStore::in_memory()),
        )
    }

    /// A context for `scenario` sharing an existing front end and,
    /// when one is given, an artifact store: scenarios whose stage keys
    /// coincide (same projected spec fields, same upstream keys) share
    /// one computation *across contexts*, and — when the store has a
    /// disk tier — across processes. Without a store the context gets a
    /// fresh private one. Share a store only between clean scenarios:
    /// a fault-armed run must neither read a sibling's artifact nor
    /// leave one behind (the batch layer enforces this).
    pub fn for_scenario_with(
        scenario: &Scenario,
        frontend: Arc<FrontEnd>,
        store: Option<Arc<ArtifactStore>>,
    ) -> StudyContext {
        StudyContext::new(
            scenario.name().to_string(),
            scenario_specs(scenario),
            frontend,
            store.unwrap_or_else(|| Arc::new(ArtifactStore::in_memory())),
        )
    }

    /// A context whose front end runs over the same `store`.
    fn over(
        label: String,
        specs: [InterposerSpec; InterposerKind::COUNT],
        store: Arc<ArtifactStore>,
    ) -> StudyContext {
        let frontend = Arc::new(FrontEnd::with_store(Arc::clone(&store)));
        StudyContext::new(label, specs, frontend, store)
    }

    fn new(
        label: String,
        specs: [InterposerSpec; InterposerKind::COUNT],
        frontend: Arc<FrontEnd>,
        store: Arc<ArtifactStore>,
    ) -> StudyContext {
        StudyContext {
            label,
            specs,
            frontend,
            store,
            report_computes: AtomicUsize::new(0),
            layout_computes: AtomicUsize::new(0),
            links_computes: AtomicUsize::new(0),
            thermal_computes: AtomicUsize::new(0),
        }
    }

    /// The context's display label (scenario name, or `"paper"`).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The resolved design rules this context uses for `tech`.
    pub fn spec(&self, tech: InterposerKind) -> &InterposerSpec {
        &self.specs[tech.index()]
    }

    /// The shared front end (design/split/netlists).
    pub fn frontend(&self) -> &Arc<FrontEnd> {
        &self.frontend
    }

    /// The artifact store behind this context's spec-dependent stages.
    pub fn store(&self) -> &ArtifactStore {
        &self.store
    }

    /// The two-tile OpenPiton-like design.
    pub fn design(&self) -> Arc<Design> {
        self.frontend.design()
    }

    /// The hierarchical L3 split.
    ///
    /// # Errors
    ///
    /// Partitioning failure (never stored).
    pub fn split(&self) -> Result<Arc<Partition>, FlowError> {
        self.frontend.split()
    }

    /// The chipletized (logic, memory) netlists.
    ///
    /// # Errors
    ///
    /// Partitioning failure (never stored).
    pub fn chiplet_netlists(&self) -> Result<Arc<(ChipletNetlist, ChipletNetlist)>, FlowError> {
        self.frontend.chiplet_netlists()
    }

    /// The per-technology (logic, memory) chiplet reports (Tables
    /// II/III) against this context's resolved spec.
    ///
    /// # Errors
    ///
    /// Partitioning or placement failure (never stored).
    pub fn chiplet_reports(
        &self,
        tech: InterposerKind,
    ) -> Result<Arc<(ChipletReport, ChipletReport)>, FlowError> {
        let spec = self.spec(tech);
        let key = chiplet::report::reports_store_key(spec, FrontEnd::netlists_key());
        self.store
            .get_or_compute(key, &json_codec(), || {
                let netlists = self.frontend.chiplet_netlists()?;
                count(&self.report_computes);
                let (logic_nl, mem_nl) = &*netlists;
                chiplet::report::analyze_pair_with(logic_nl, mem_nl, spec).map_err(FlowError::from)
            })
            .map(|(pair, _)| pair)
    }

    /// The routed interposer layout for `tech` (Table IV) against this
    /// context's resolved spec.
    ///
    /// # Errors
    ///
    /// Routing failure, or [`FlowError::Route`] with
    /// [`interposer::RouteError::NoInterposer`] for technologies without
    /// a routed interposer.
    pub fn layout(&self, tech: InterposerKind) -> Result<Arc<InterposerLayout>, FlowError> {
        interposer::report::layout_in(&self.store, self.spec(tech), || {
            count(&self.layout_computes);
        })
        .map_err(FlowError::from)
    }

    /// The Table V link row for `tech` in `mode` — the cached form
    /// behind [`crate::table5::row_in`]. Channel extraction (and with it
    /// the `extract.channels` fault site and any routed-layout pull)
    /// runs on every call; only the transient link simulations are
    /// stored, keyed by the extracted channels and the full resolved
    /// specs of the technologies they terminate on.
    ///
    /// # Errors
    ///
    /// Routing and simulation failures (never stored).
    pub fn links_row(
        &self,
        tech: InterposerKind,
        mode: MonitorLengths,
    ) -> Result<Arc<Table5Row>, FlowError> {
        let (l2m, l2l) = crate::table5::channels_for_in(self, tech, mode)?;
        let key = crate::table5::links_store_key(self, tech, &l2m, &l2l);
        self.store
            .get_or_compute(key, &json_codec(), || {
                count(&self.links_computes);
                crate::table5::simulate_row(self, tech, &l2m, &l2l)
            })
            .map(|(row, _)| row)
    }

    /// The thermal report for `tech` (Fig. 17) against this context's
    /// resolved spec.
    ///
    /// # Errors
    ///
    /// Thermal model or solver failure, or the armed `thermal.solve`
    /// fault site.
    pub fn thermal_report(&self, tech: InterposerKind) -> Result<Arc<ThermalReport>, FlowError> {
        thermal::report::analyze_in(&self.store, self.spec(tech), || {
            count(&self.thermal_computes);
        })
        .map_err(FlowError::from)
    }

    /// Total artifact computations this context has actually run, by
    /// stage — the observability hook the cache-reuse tests and the
    /// sweep bench use.
    pub fn compute_counts(&self) -> ComputeCounts {
        ComputeCounts {
            split: self.frontend.split_compute_count(),
            netlists: self.frontend.netlists_compute_count(),
            reports: self.report_computes.load(Ordering::Relaxed),
            layouts: self.layout_computes.load(Ordering::Relaxed),
            links: self.links_computes.load(Ordering::Relaxed),
            thermal: self.thermal_computes.load(Ordering::Relaxed),
        }
    }
}

/// Per-stage computation counters from [`StudyContext::compute_counts`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ComputeCounts {
    /// Hierarchical L3 splits run.
    pub split: usize,
    /// Chipletizations run.
    pub netlists: usize,
    /// Chiplet-report pairs analyzed.
    pub reports: usize,
    /// Interposer layouts placed and routed.
    pub layouts: usize,
    /// Table V link rows simulated.
    pub links: usize,
    /// Thermal fields solved.
    pub thermal: usize,
}

impl ComputeCounts {
    /// Sum over all stages.
    pub fn total(&self) -> usize {
        self.split + self.netlists + self.reports + self.layouts + self.links + self.thermal
    }
}

fn default_specs() -> [InterposerSpec; InterposerKind::COUNT] {
    InterposerKind::ALL.map(InterposerSpec::for_kind)
}

fn scenario_specs(scenario: &Scenario) -> [InterposerSpec; InterposerKind::COUNT] {
    InterposerKind::ALL.map(|kind| scenario.spec_for(kind))
}

/// One paper context shared by this crate's unit tests, so each
/// technology is routed and solved at most once per test binary.
#[cfg(test)]
pub(crate) fn test_context() -> &'static StudyContext {
    static CTX: OnceLock<StudyContext> = OnceLock::new();
    CTX.get_or_init(StudyContext::paper)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifacts_memoize_within_a_context() {
        let ctx = StudyContext::paper();
        let a = ctx.chiplet_reports(InterposerKind::Glass3D).unwrap();
        let b = ctx.chiplet_reports(InterposerKind::Glass3D).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        let counts = ctx.compute_counts();
        assert_eq!(counts.split, 1);
        assert_eq!(counts.netlists, 1);
        assert_eq!(counts.reports, 1);
    }

    #[test]
    fn contexts_are_isolated_but_can_share_a_frontend() {
        let shared = Arc::new(FrontEnd::new());
        let a = StudyContext::for_scenario_with(
            &Scenario::paper(InterposerKind::Glass25D),
            Arc::clone(&shared),
            None,
        );
        let b = StudyContext::for_scenario_with(
            &Scenario::paper(InterposerKind::Glass3D),
            Arc::clone(&shared),
            None,
        );
        let na = a.chiplet_netlists().unwrap();
        let nb = b.chiplet_netlists().unwrap();
        assert!(Arc::ptr_eq(&na, &nb), "one split for clean scenarios");
        assert_eq!(shared.split_compute_count(), 1);
        // Without a shared store, downstream artifacts stay private.
        let ra = a.chiplet_reports(InterposerKind::Glass25D).unwrap();
        let rb = b.chiplet_reports(InterposerKind::Glass25D).unwrap();
        assert!(!Arc::ptr_eq(&ra, &rb));
    }

    #[test]
    fn scenario_overrides_reach_the_resolved_specs() {
        let scenario = Scenario::new(
            "wide",
            InterposerKind::Glass25D,
            crate::table5::MonitorLengths::Routed,
            crate::scenario::ScenarioOverrides {
                microbump_pitch_um: Some(70.0),
                ..Default::default()
            },
            Vec::new(),
        )
        .unwrap();
        let ctx = StudyContext::for_scenario(&scenario);
        assert_eq!(ctx.spec(InterposerKind::Glass25D).microbump_pitch_um, 70.0);
        assert_eq!(ctx.label(), "wide");
    }

    #[test]
    fn artifacts_are_shared_by_handle() {
        // Two calls return the same Arc — the second is a store hit.
        let ctx = test_context();
        assert!(Arc::ptr_eq(&ctx.design(), &ctx.design()));
        assert!(Arc::ptr_eq(&ctx.split().unwrap(), &ctx.split().unwrap()));
        assert!(Arc::ptr_eq(
            &ctx.chiplet_netlists().unwrap(),
            &ctx.chiplet_netlists().unwrap()
        ));
        let a = ctx.chiplet_reports(InterposerKind::Glass25D).unwrap();
        let b = ctx.chiplet_reports(InterposerKind::Glass25D).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn cached_artifacts_match_a_fresh_derivation() {
        let fresh_design = netlist::openpiton::two_tile_openpiton();
        let fresh_split = netlist::partition::hierarchical_l3_split(&fresh_design).unwrap();
        let (fresh_logic, fresh_mem) =
            netlist::chiplet_netlist::chipletize(&fresh_design, &fresh_split, &SerdesPlan::paper());
        let ctx = test_context();
        let netlists = ctx.chiplet_netlists().unwrap();
        let (logic_nl, mem_nl) = &*netlists;
        assert_eq!(logic_nl.signal_pins, fresh_logic.signal_pins);
        assert_eq!(mem_nl.signal_pins, fresh_mem.signal_pins);
        let pair = ctx.chiplet_reports(InterposerKind::Glass3D).unwrap();
        let (logic, memory) = &*pair;
        let (fl, fm) =
            chiplet::report::analyze_pair(&fresh_logic, &fresh_mem, InterposerKind::Glass3D)
                .unwrap();
        assert_eq!(logic.footprint_mm, fl.footprint_mm);
        assert_eq!(memory.fmax_mhz, fm.fmax_mhz);
        assert_eq!(logic.wirelength_m, fl.wirelength_m);
    }

    #[test]
    fn reports_cover_all_packaged_techs() {
        let ctx = test_context();
        for tech in InterposerKind::PACKAGED {
            let pair = ctx.chiplet_reports(tech).unwrap();
            let (logic, memory) = &*pair;
            assert!(logic.fmax_mhz > 0.0, "{tech}");
            assert!(memory.fmax_mhz > 0.0, "{tech}");
        }
    }
}
