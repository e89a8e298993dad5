//! Regenerates Fig. 15 (PDN impedance profiles) as CSV-like series.
use techlib::spec::{InterposerKind, InterposerSpec};
fn main() {
    bench::banner("Fig. 15 - PDN impedance vs frequency (paper peaks: glass3D 0.97, Si 7.4, glass2.5D 20.7, APX 58, Shinko 180 ohm)");
    let specs = InterposerKind::PACKAGED.map(InterposerSpec::for_kind);
    let profiles = pi::impedance::figure15(&specs, 61).expect("sweep");
    print!("{:>12}", "freq Hz");
    for p in &profiles {
        print!("{:>14}", p.tech.label());
    }
    println!();
    for i in 0..profiles[0].points.len() {
        print!("{:>12.3e}", profiles[0].points[i].0);
        for p in &profiles {
            print!("{:>14.4}", p.points[i].1);
        }
        println!();
    }
    println!("\npeaks:");
    for p in &profiles {
        println!("  {:<14} {:>10.3} ohm", p.tech.label(), p.peak_ohm());
    }
}
