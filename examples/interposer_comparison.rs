//! Full six-technology comparison: regenerates Tables I–IV.
//!
//! ```sh
//! cargo run --release --example interposer_comparison
//! ```

use codesign::flow::run_all_in;
use codesign::table5::MonitorLengths;
use codesign::tables;
use codesign::StudyContext;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("{}", tables::table1());
    let ctx = StudyContext::paper();
    let studies = run_all_in(&ctx, MonitorLengths::Routed)?;
    println!("{}", tables::table2(&studies));
    println!("{}", tables::table3(&studies));
    println!("{}", tables::table4(&studies));

    let headline = codesign::compare::headline(&ctx)?;
    println!("Headline (abstract claims, measured):");
    println!(
        "  area reduction        {:.2}x   (paper: 2.6x)",
        headline.area_reduction_x
    );
    println!(
        "  wirelength reduction  {:.1}x   (paper: 21x)",
        headline.wirelength_reduction_x
    );
    println!(
        "  power reduction       {:.1}%   (paper: 17.72%)",
        headline.power_reduction_frac * 100.0
    );
    println!(
        "  SI improvement        {:.1}%   (paper: 64.7%)",
        headline.si_improvement_frac * 100.0
    );
    println!(
        "  PI improvement        {:.1}x   (paper: ~10x)",
        headline.pi_improvement_x
    );
    println!(
        "  thermal increase      {:.1}%   (paper: ~35%)",
        headline.thermal_increase_frac * 100.0
    );
    Ok(())
}
