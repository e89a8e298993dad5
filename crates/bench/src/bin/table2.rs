//! Regenerates Table II (chiplet bump usage and area comparison).
fn main() {
    bench::banner("Table II - chiplet bump usage and area (paper: glass logic 0.82mm/464 bumps, APX logic 1.15mm/449)");
    println!("{}", codesign::tables::table2(&bench::studies()));
}
