//! End-to-end integration: the complete flow runs for every technology
//! and produces internally consistent results.

use codesign::flow::{run_all_in, run_tech_in, TechStudy};
use codesign::table5::MonitorLengths;
use codesign::{FlowError, StudyContext};
use std::sync::OnceLock;
use techlib::spec::InterposerKind;

/// One paper context for the whole binary: each technology is routed
/// and solved once, however many tests read it.
fn ctx() -> &'static StudyContext {
    static CTX: OnceLock<StudyContext> = OnceLock::new();
    CTX.get_or_init(StudyContext::paper)
}

fn paper_study(tech: InterposerKind) -> Result<TechStudy, FlowError> {
    run_tech_in(ctx(), tech, MonitorLengths::Routed)
}

#[test]
fn all_six_technologies_complete_the_flow() {
    let studies = run_all_in(ctx(), MonitorLengths::Routed).expect("flow completes");
    assert_eq!(studies.len(), 6);
    for s in &studies {
        // Chiplet results in plausible ranges.
        assert!(
            s.logic.fmax_mhz > 600.0 && s.logic.fmax_mhz < 720.0,
            "{}",
            s.tech
        );
        assert!(s.logic.total_power_mw() > 100.0 && s.logic.total_power_mw() < 200.0);
        assert!(s.memory.total_power_mw() > 30.0 && s.memory.total_power_mw() < 70.0);
        // Full chip adds interconnect on top of the chiplets.
        assert!(
            s.fullchip.total_power_mw > s.fullchip.chiplet_power_mw,
            "{}",
            s.tech
        );
        // Thermal above ambient.
        assert!(
            s.thermal.logic_peak_c > 20.0 && s.thermal.logic_peak_c < 50.0,
            "{}",
            s.tech
        );
    }
}

#[test]
fn routed_interposers_exist_exactly_where_expected() {
    let studies = run_all_in(ctx(), MonitorLengths::Routed).expect("flow completes");
    for s in &studies {
        match s.tech {
            InterposerKind::Silicon3D => assert!(s.routing.is_none()),
            _ => assert!(s.routing.is_some(), "{}", s.tech),
        }
    }
}

#[test]
fn flow_is_deterministic() {
    let a = paper_study(InterposerKind::Glass3D).expect("first run");
    let b = paper_study(InterposerKind::Glass3D).expect("second run");
    assert_eq!(a.fullchip.total_power_mw, b.fullchip.total_power_mw);
    assert_eq!(a.logic.wirelength_m, b.logic.wirelength_m);
    assert_eq!(
        a.routing.as_ref().map(|r| r.total_wl_mm),
        b.routing.as_ref().map(|r| r.total_wl_mm)
    );
}

#[test]
fn both_monitor_modes_agree_on_chiplet_results() {
    let routed =
        run_tech_in(ctx(), InterposerKind::Glass25D, MonitorLengths::Routed).expect("routed mode");
    let paper =
        run_tech_in(ctx(), InterposerKind::Glass25D, MonitorLengths::Paper).expect("paper mode");
    // Monitored-net choice only affects the link/fullchip numbers.
    assert_eq!(routed.logic.total_power_mw(), paper.logic.total_power_mw());
    assert_eq!(routed.logic.footprint_mm, paper.logic.footprint_mm);
    assert_ne!(
        routed.links.l2m.length_um, paper.links.l2m.length_um,
        "paper's monitored L2M net is the pathological 5,980 µm escape"
    );
}

#[test]
fn study_json_round_trips_key_fields() {
    let s = paper_study(InterposerKind::Shinko).expect("flow completes");
    let json = serde_json::to_value(&s).expect("serializes");
    assert_eq!(json["tech"], "Shinko");
    assert!(json["fullchip"]["total_power_mw"].as_f64().unwrap() > 0.0);
    assert!(json["thermal"]["mem_peak_c"].as_f64().unwrap() > 20.0);
}
