//! Regenerates the abstract's headline comparison.
fn main() {
    bench::banner(
        "Headline metrics (paper: 2.6x area, 21x WL, 17.72% power, 64.7% SI, 10x PI, +35% thermal)",
    );
    let h = codesign::compare::headline(&codesign::StudyContext::paper()).expect("headline");
    println!("  area reduction        {:>8.2}x", h.area_reduction_x);
    println!("  wirelength reduction  {:>8.1}x", h.wirelength_reduction_x);
    println!(
        "  power reduction       {:>8.2}%",
        h.power_reduction_frac * 100.0
    );
    println!(
        "  SI improvement        {:>8.1}%",
        h.si_improvement_frac * 100.0
    );
    println!("  PI improvement        {:>8.1}x", h.pi_improvement_x);
    println!(
        "  thermal increase      {:>8.1}%",
        h.thermal_increase_frac * 100.0
    );
}
