//! Regenerates the cost comparison (the paper's cost discussion,
//! quantified in relative cost units) and the sensitivity sweeps.
fn main() -> Result<(), codesign::FlowError> {
    bench::banner("Cost model (RCU; paper claim: glass = cost-effective 3D stacking)");
    println!(
        "{:<14}{:>12}{:>10}{:>12}{:>10}",
        "tech", "substrate", "yield", "total RCU", "vs G3D"
    );
    // One context for the cost table and every sweep below, so the
    // sweeps derive the netlist front end once.
    let ctx = codesign::StudyContext::paper();
    let reports = codesign::cost::cost_all(&ctx);
    let g3 = reports
        .iter()
        .find(|r| r.tech == techlib::spec::InterposerKind::Glass3D)
        .expect("glass 3D present")
        .total_rcu;
    for r in &reports {
        println!(
            "{:<14}{:>12.2}{:>10.3}{:>12.2}{:>10.2}",
            r.tech.label(),
            r.substrate_rcu,
            r.yield_frac,
            r.total_rcu,
            r.total_rcu / g3
        );
    }

    bench::banner("Sensitivity sweeps (optimization opportunities)");
    println!("glass logic die width vs bump pitch:");
    for p in codesign::sensitivity::footprint_vs_bump_pitch(&ctx, &[15.0, 25.0, 35.0, 45.0, 55.0])?
    {
        println!("  pitch {:>5.0} µm -> width {:>6.0} µm", p.x, p.y);
    }
    println!("glass logic die utilization vs bump pitch:");
    for p in codesign::sensitivity::utilization_vs_bump_pitch(&ctx, &[35.0, 45.0, 55.0, 70.0])? {
        println!("  pitch {:>5.0} µm -> util {:>6.3}", p.x, p.y);
    }
    println!("10 mm glass link delay vs metal thickness:");
    for p in codesign::sensitivity::delay_vs_metal_thickness(&ctx, &[1.0, 2.0, 4.0, 8.0]) {
        println!("  t {:>4.1} µm -> {:>6.2} ps", p.x, p.y);
    }
    println!("blocked gcell fraction vs via size:");
    for p in codesign::sensitivity::blockage_vs_via_size(&ctx, &[4.0, 10.0, 16.0, 22.0, 30.0])? {
        println!("  via {:>4.0} µm -> {:>6.3}", p.x, p.y);
    }
    Ok(())
}
