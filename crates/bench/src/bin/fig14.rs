//! Regenerates Fig. 14 (eye diagrams, victim + 2 aggressors, 0.7 Gbps).
use codesign::StudyContext;
use interposer::diemap::NetClass;
use si::eye::{lateral_eye, stacked_via_eye, EyeConfig};
use techlib::spec::InterposerKind;
fn main() {
    let ctx = StudyContext::paper();
    bench::banner(
        "Fig. 14 - eye diagrams (paper: glass3D L2M 1.415ns/0.89V; Si2.5D L2L 1.03ns/0.401V)",
    );
    for (label, cfg) in [
        ("capacitive AIB receiver", EyeConfig::default()),
        (
            "50-ohm terminated receiver (paper deck)",
            EyeConfig::paper_deck(),
        ),
    ] {
        println!("--- {label} ---");
        print_family(&ctx, &cfg);
    }
}

fn print_family(ctx: &StudyContext, cfg: &EyeConfig) {
    let cfg = cfg.clone();
    println!(
        "{:<14}{:>6}{:>12}{:>12}",
        "tech", "link", "width ns", "height V"
    );
    let g3 = stacked_via_eye(&cfg).expect("glass3D eye");
    println!(
        "{:<14}{:>6}{:>12.3}{:>12.3}",
        "Glass 3D", "L2M", g3.width_ns, g3.height_v
    );
    for tech in [
        InterposerKind::Glass3D,
        InterposerKind::Glass25D,
        InterposerKind::Silicon25D,
        InterposerKind::Shinko,
        InterposerKind::Apx,
    ] {
        let layout = ctx.layout(tech).expect("layout");
        if tech != InterposerKind::Glass3D {
            let len = layout.worst_net_um(NetClass::IntraTileLateral);
            let e = lateral_eye(tech, len, &cfg).expect("eye");
            println!(
                "{:<14}{:>6}{:>12.3}{:>12.3}",
                tech.label(),
                "L2M",
                e.width_ns,
                e.height_v
            );
        }
        let len = layout.worst_net_um(NetClass::InterTile);
        let e = lateral_eye(tech, len, &cfg).expect("eye");
        println!(
            "{:<14}{:>6}{:>12.3}{:>12.3}",
            tech.label(),
            "L2L",
            e.width_ns,
            e.height_v
        );
    }
}
