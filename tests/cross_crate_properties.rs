//! Property-based invariants that span crates.

use chiplet::bumpmap::BumpPlan;
use circuit::netlist::{Circuit, Waveform};
use circuit::tran::{simulate, TranConfig};
use netlist::fm::{explode, fm_bipartition, ClusterGraph, FmConfig};
use netlist::openpiton::two_tile_openpiton;
use proptest::prelude::*;
use techlib::spec::{InterposerKind, InterposerSpec};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any bump plan places exactly its advertised counts and keeps every
    /// bump inside the bump-limited die outline.
    #[test]
    fn bump_plans_are_consistent(signal in 8usize..600, pg_frac in 0.2f64..1.0) {
        let spec = InterposerSpec::for_kind(InterposerKind::Glass25D);
        let pg = ((signal as f64 * pg_frac) as usize).max(1);
        let plan = BumpPlan::with_counts(signal, pg, &spec);
        prop_assert_eq!(plan.bumps.len(), signal + pg);
        let w = plan.bump_limited_width_um();
        for b in &plan.bumps {
            prop_assert!(b.x_um > 0.0 && b.x_um < w);
            prop_assert!(b.y_um > 0.0 && b.y_um < w);
        }
        // Signal indices dense.
        for i in 0..signal {
            prop_assert!(plan.signal_position(i).is_some());
        }
    }

    /// The footprint solver is monotone: more signal pins never shrink
    /// the die.
    #[test]
    fn footprint_is_monotone_in_pins(extra in 0usize..200) {
        let design = two_tile_openpiton();
        let split = netlist::partition::hierarchical_l3_split(&design).unwrap();
        let (mut logic, _) =
            netlist::chiplet_netlist::chipletize(&design, &split, &netlist::serdes::SerdesPlan::paper());
        let spec = InterposerSpec::for_kind(InterposerKind::Glass25D);
        let base_bumps = BumpPlan::for_design(logic.signal_pins, logic.kind, &spec);
        let base = chiplet::footprint::solve(&logic, &base_bumps, &spec, None);
        logic.signal_pins += extra;
        let grown_bumps = BumpPlan::with_counts(logic.signal_pins, base_bumps.pg, &spec);
        let grown = chiplet::footprint::solve(&logic, &grown_bumps, &spec, None);
        prop_assert!(grown.width_um >= base.width_um);
    }

    /// FM never worsens a random bipartition and respects determinism.
    #[test]
    fn fm_is_sound_on_random_graphs(n in 6usize..40, extra_edges in 0usize..60, seed in 0u64..1000) {
        let mut g = ClusterGraph::new();
        for i in 0..n {
            g.add_vertex(1.0, format!("v{i}"));
        }
        // Ring to keep it connected, plus random chords.
        for i in 0..n {
            g.add_edge(i, (i + 1) % n, 1.0);
        }
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (s >> 33) as usize
        };
        for _ in 0..extra_edges {
            let a = next() % n;
            let b = next() % n;
            if a != b {
                g.add_edge(a, b, 1.0 + (next() % 5) as f64);
            }
        }
        let cfg = FmConfig { seed, ..FmConfig::default() };
        let initial = fm_bipartition(&g, &FmConfig { max_passes: 0, ..cfg.clone() });
        let refined = fm_bipartition(&g, &cfg);
        prop_assert!(refined.cut <= initial.cut + 1e-9);
        let again = fm_bipartition(&g, &cfg);
        prop_assert_eq!(refined.side, again.side);
    }

    /// RC charge conservation: the charge a step source delivers to a
    /// capacitive network equals C_total × VDD regardless of resistances.
    #[test]
    fn transient_conserves_charge(r_ohm in 10.0f64..2000.0, c_ff in 20.0f64..500.0) {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.vsource(a, Circuit::GND, Waveform::step(0.9, 10e-12, 5e-12));
        c.resistor(a, b, r_ohm);
        let cap = c_ff * 1e-15;
        c.capacitor(b, Circuit::GND, cap);
        let result = simulate(&c, &TranConfig { t_stop: 60.0 * r_ohm * cap + 1e-9, dt: (r_ohm * cap / 50.0).max(1e-13) }).unwrap();
        let i = result.branch_current(0).unwrap();
        let mut q = 0.0;
        for k in 1..result.times.len() {
            q += 0.5 * (i[k] + i[k - 1]) * (result.times[k] - result.times[k - 1]);
        }
        let expect = cap * 0.9;
        prop_assert!(((q.abs() - expect) / expect).abs() < 0.02, "q = {}, expect {}", q.abs(), expect);
    }

    /// Exploding a design into clusters conserves total cell weight for
    /// any cluster size.
    #[test]
    fn explode_conserves_weight(cluster_cells in 500usize..20_000, seed in 0u64..100) {
        let d = two_tile_openpiton();
        let g = explode(&d, cluster_cells, seed);
        prop_assert!((g.total_weight() - d.total_cells() as f64).abs() < 1e-6);
    }
}

#[test]
fn rlgc_extraction_is_consistent_with_elmore_ordering() {
    // Delay grows monotonically with length for every technology; on
    // thin-wire silicon the distributed R·C term dominates and the growth
    // is superlinear (doubling length more than doubles the delay).
    for tech in [
        InterposerKind::Glass25D,
        InterposerKind::Silicon25D,
        InterposerKind::Shinko,
        InterposerKind::Apx,
    ] {
        let spec = InterposerSpec::for_kind(tech);
        let short = si::rlgc::extract_line(&spec, 1e-3).elmore_delay(47.4, 55e-15);
        let long = si::rlgc::extract_line(&spec, 2e-3).elmore_delay(47.4, 55e-15);
        assert!(long > short, "{tech}: {short} vs {long}");
    }
    let spec = InterposerSpec::for_kind(InterposerKind::Silicon25D);
    let short = si::rlgc::extract_line(&spec, 1e-3).elmore_delay(47.4, 55e-15);
    let long = si::rlgc::extract_line(&spec, 2e-3).elmore_delay(47.4, 55e-15);
    assert!(
        long > 2.0 * short * 0.9,
        "silicon is line-dominated: {short} vs {long}"
    );
}
