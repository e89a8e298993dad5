//! Quickstart: run the complete co-design flow for the paper's headline
//! configuration (Glass 3D, the "5.5D" embedded-die interposer) and print
//! a one-page summary.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use codesign::flow::run_tech_in;
use codesign::table5::MonitorLengths;
use codesign::StudyContext;
use techlib::spec::InterposerKind;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ctx = StudyContext::paper();
    let study = run_tech_in(&ctx, InterposerKind::Glass3D, MonitorLengths::Routed)?;

    println!("=== Glass 3D (5.5D) co-design study ===\n");
    println!("Chiplets (Table III):");
    for r in [&study.logic, &study.memory] {
        println!(
            "  {:<6} {:.2} mm² @ {:.1}% util, Fmax {:.0} MHz, {:.2} m wire, {:.2} mW",
            r.chiplet,
            r.footprint.area_mm2(),
            r.utilization * 100.0,
            r.fmax_mhz,
            r.wirelength_m,
            r.total_power_mw()
        );
    }

    if let Some(routing) = &study.routing {
        println!("\nInterposer (Table IV):");
        println!(
            "  {} signal + {} P/G layers, {:.1} mm lateral wire over {} nets,",
            routing.signal_layers_used,
            routing.pg_layers,
            routing.total_wl_mm,
            routing.stacked_via_columns + 68
        );
        println!(
            "  {} stacked-via columns, {:.2} mm² footprint",
            routing.stacked_via_columns, routing.area_mm2
        );
    }

    println!("\nWorst links (Table V):");
    println!(
        "  L2M: {:>6.0} µm  {:.2} ps interconnect, {:.1} µW",
        study.links.l2m.length_um,
        study.links.l2m.interconnect_delay_ps,
        study.links.l2m.total_power_uw()
    );
    println!(
        "  L2L: {:>6.0} µm  {:.2} ps interconnect, {:.1} µW",
        study.links.l2l.length_um,
        study.links.l2l.interconnect_delay_ps,
        study.links.l2l.total_power_uw()
    );

    println!("\nFull chip (Section VII-H):");
    println!(
        "  system power {:.1} mW ({:.1} chiplets + {:.1} intra + {:.1} inter)",
        study.fullchip.total_power_mw,
        study.fullchip.chiplet_power_mw,
        study.fullchip.intra_tile_power_mw,
        study.fullchip.inter_tile_power_mw
    );
    println!(
        "  system clock {:.0} MHz (pipelined)",
        study.fullchip.system_fmax_mhz
    );

    println!("\nThermal (Fig. 17):");
    println!(
        "  logic {:.1} °C, embedded memory {:.1} °C (the 5.5D trade-off)",
        study.thermal.logic_peak_c, study.thermal.mem_peak_c
    );
    Ok(())
}
