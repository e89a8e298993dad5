//! Regenerates Table V (worst-net interconnect delay and power).
use codesign::table5::{table5, MonitorLengths};
use codesign::StudyContext;
fn main() {
    let ctx = StudyContext::paper();
    bench::banner("Table V - link delay/power, paper monitored lengths (paper: Si3D L2M 0.29ps, glass2.5D L2M 6.63ps)");
    let rows = table5(&ctx, MonitorLengths::Paper).expect("table 5");
    println!("{}", codesign::tables::table5_text(&rows));
    bench::banner("Table V - link delay/power, our routed worst nets");
    let rows = table5(&ctx, MonitorLengths::Routed).expect("table 5");
    println!("{}", codesign::tables::table5_text(&rows));
}
