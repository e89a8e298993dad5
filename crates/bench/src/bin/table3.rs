//! Regenerates Table III (chiplet power and performance).
fn main() {
    bench::banner("Table III - chiplet PPA (paper: glass logic 686MHz/142.35mW/5.03m)");
    println!("{}", codesign::tables::table3(&bench::studies()));
}
