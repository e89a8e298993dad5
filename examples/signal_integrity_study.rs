//! Signal-integrity study: Table V (both monitored-net modes), the Fig. 14
//! eye diagrams, and the Table VI material comparison.
//!
//! ```sh
//! cargo run --release --example signal_integrity_study
//! ```

use codesign::table5::{table5, MonitorLengths};
use codesign::tables;
use codesign::StudyContext;
use interposer::diemap::NetClass;
use si::eye::{lateral_eye, stacked_via_eye, EyeConfig};
use techlib::spec::InterposerKind;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ctx = StudyContext::paper();
    println!("--- Table V with the paper's monitored net lengths ---");
    println!(
        "{}",
        tables::table5_text(&table5(&ctx, MonitorLengths::Paper)?)
    );

    println!("--- Table V with our own routed worst nets ---");
    println!(
        "{}",
        tables::table5_text(&table5(&ctx, MonitorLengths::Routed)?)
    );

    println!("--- Fig. 14: eye diagrams (0.7 Gbps PRBS-7, 2 aggressors) ---");
    let cfg = EyeConfig::default();
    println!(
        "{:<14}{:>8}{:>12}{:>12}",
        "tech", "link", "width ns", "height V"
    );
    let g3 = stacked_via_eye(&cfg)?;
    println!(
        "{:<14}{:>8}{:>12.3}{:>12.3}",
        "Glass 3D", "L2M", g3.width_ns, g3.height_v
    );
    for tech in [
        InterposerKind::Glass25D,
        InterposerKind::Silicon25D,
        InterposerKind::Shinko,
        InterposerKind::Apx,
    ] {
        let layout = ctx.layout(tech)?;
        let l2m = layout.worst_net_um(NetClass::IntraTileLateral);
        let eye = lateral_eye(tech, l2m, &cfg)?;
        println!(
            "{:<14}{:>8}{:>12.3}{:>12.3}",
            tech.label(),
            "L2M",
            eye.width_ns,
            eye.height_v
        );
        let l2l = layout.worst_net_um(NetClass::InterTile);
        let eye = lateral_eye(tech, l2l, &cfg)?;
        println!(
            "{:<14}{:>8}{:>12.3}{:>12.3}",
            tech.label(),
            "L2L",
            eye.width_ns,
            eye.height_v
        );
    }
    let g3_l2l = ctx
        .layout(InterposerKind::Glass3D)?
        .worst_net_um(NetClass::InterTile);
    let eye = lateral_eye(InterposerKind::Glass3D, g3_l2l, &cfg)?;
    println!(
        "{:<14}{:>8}{:>12.3}{:>12.3}",
        "Glass 3D", "L2L", eye.width_ns, eye.height_v
    );

    println!("\n--- Table VI: 400 µm fixed-length material comparison ---");
    println!("{}", tables::table6_text()?);
    Ok(())
}
