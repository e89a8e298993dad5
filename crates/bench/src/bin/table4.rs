//! Regenerates Table IV (interposer design results).
fn main() {
    bench::banner("Table IV - interposer routing/power (paper: glass3D 29.69mm/1.87mm2/399.75mW)");
    println!("{}", codesign::tables::table4(&bench::studies()));
    println!("PDN impedance / IR drop / settling:");
    for tech in techlib::spec::InterposerKind::PACKAGED {
        let spec = techlib::spec::InterposerSpec::for_kind(tech);
        let z = pi::impedance::ImpedanceProfile::sweep(&spec, 61)
            .expect("sweep")
            .peak_ohm();
        let t = pi::transient::analyze(&spec).expect("transient");
        println!(
            "  {:<14} peak {:>8.2} ohm   IR {:>6.1} mV   settle {:>5.2} us",
            tech.label(),
            z,
            t.ir_drop_mv,
            t.settling_us
        );
    }
}
