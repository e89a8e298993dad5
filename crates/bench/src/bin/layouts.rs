//! Writes SVG renderings of every interposer layout (Fig. 10/12 views)
//! and the thermal heat maps (Fig. 18) to ./artifacts/.
use codesign::StudyContext;
use interposer::svg::{render, SvgOptions};
use techlib::spec::InterposerKind;
use thermal::model::ThermalModel;
use thermal::solver::{solve, SolveConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    std::fs::create_dir_all("artifacts")?;
    let ctx = StudyContext::paper();
    for tech in InterposerKind::INTERPOSER_BASED {
        let layout = ctx.layout(tech)?;
        let svg = render(&layout, &SvgOptions::default());
        let name = format!(
            "artifacts/layout_{}.svg",
            tech.label().replace([' ', '.'], "_")
        );
        std::fs::write(&name, svg)?;
        println!("wrote {name}");
    }
    for tech in [InterposerKind::Glass25D, InterposerKind::Silicon25D] {
        let layout = ctx.layout(tech)?;
        let map = interposer::congestion::analyze(&layout).expect("congestion analyzes");
        let svg = interposer::congestion::render_layer(&map, 0, 4.0);
        let name = format!(
            "artifacts/congestion_{}.svg",
            tech.label().replace([' ', '.'], "_")
        );
        std::fs::write(&name, svg)?;
        println!("wrote {name}");
    }
    for tech in [
        InterposerKind::Glass25D,
        InterposerKind::Glass3D,
        InterposerKind::Silicon25D,
        InterposerKind::Shinko,
    ] {
        let model = ThermalModel::for_tech(tech)?;
        let field = solve(&model, &SolveConfig::default())?;
        let svg = thermal::svg::render_layer(&field, model.nz() - 1, 4.0);
        let name = format!(
            "artifacts/thermal_{}.svg",
            tech.label().replace([' ', '.'], "_")
        );
        std::fs::write(&name, svg)?;
        println!("wrote {name}");
    }
    Ok(())
}
