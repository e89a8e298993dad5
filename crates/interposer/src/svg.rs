//! SVG rendering of interposer layouts (the paper's Fig. 10/12 views).
//!
//! Produces a top-down view: die outlines, bump fields, and routed nets
//! coloured by metal layer — the open-source stand-in for the GDS
//! screenshots the paper shows.

use crate::report::InterposerLayout;
use std::fmt::Write as _;

/// Colour palette per signal layer (cycled).
const LAYER_COLORS: [&str; 8] = [
    "#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b", "#e377c2", "#7f7f7f",
];

/// Rendering options.
#[derive(Debug, Clone, Copy)]
pub struct SvgOptions {
    /// Pixels per millimetre.
    pub scale_px_per_mm: f64,
    /// Draw individual bumps (slow for huge fields).
    pub draw_bumps: bool,
    /// Draw routed nets.
    pub draw_nets: bool,
}

impl Default for SvgOptions {
    fn default() -> Self {
        SvgOptions {
            scale_px_per_mm: 200.0,
            draw_bumps: true,
            draw_nets: true,
        }
    }
}

/// Renders the layout as an SVG document.
pub fn render(layout: &InterposerLayout, options: &SvgOptions) -> String {
    let s = options.scale_px_per_mm / 1e3; // px per µm
    let (w_um, h_um) = layout.placement.footprint_um;
    let (w, h) = (w_um * s, h_um * s);
    let mut out = String::new();
    let _ = writeln!(
        out,
        r##"<svg xmlns="http://www.w3.org/2000/svg" width="{w:.0}" height="{h:.0}" viewBox="0 0 {w:.2} {h:.2}">"##
    );
    let _ = writeln!(
        out,
        r##"<rect x="0" y="0" width="{w:.2}" height="{h:.2}" fill="#f4f1e8" stroke="#555"/>"##
    );

    // Dies.
    for die in &layout.placement.dies {
        let (x, y) = (die.origin_um.0 * s, die.origin_um.1 * s);
        let dw = die.width_um * s;
        let fill = if die.embedded {
            "#c9b458"
        } else if die.kind == netlist::chiplet_netlist::ChipletKind::Logic {
            "#a8c6e8"
        } else {
            "#b8d8b8"
        };
        let dash = if die.embedded {
            r##" stroke-dasharray="4 3""##
        } else {
            ""
        };
        let _ = writeln!(
            out,
            r##"<rect x="{x:.2}" y="{y:.2}" width="{dw:.2}" height="{dw:.2}" fill="{fill}" fill-opacity="0.55" stroke="#333"{dash}/>"##
        );
        let _ = writeln!(
            out,
            r##"<text x="{:.2}" y="{:.2}" font-size="{:.1}" fill="#222">{} t{}</text>"##,
            x + 4.0,
            y + 14.0,
            12.0,
            die.kind.label(),
            die.tile
        );
        if options.draw_bumps {
            for bump in &die.bumps.bumps {
                let bx = (die.origin_um.0 + bump.x_um) * s;
                let by = (die.origin_um.1 + bump.y_um) * s;
                let color = match bump.role {
                    chiplet::bumpmap::BumpRole::Signal(_) => "#444",
                    chiplet::bumpmap::BumpRole::Power => "#c33",
                    chiplet::bumpmap::BumpRole::Ground => "#333cc3",
                };
                let _ = writeln!(
                    out,
                    r##"<circle cx="{bx:.2}" cy="{by:.2}" r="{:.2}" fill="{color}" fill-opacity="0.6"/>"##,
                    (die.bumps.pitch_um * 0.18 * s).max(0.6)
                );
            }
        }
    }

    // Routed nets, coloured by their deepest layer.
    if options.draw_nets {
        let g = 20.0 * s; // gcell size in px
        for net in &layout.routed_nets {
            let color = LAYER_COLORS[net.max_layer % LAYER_COLORS.len()];
            let mut path = String::new();
            for (i, &(x, y, _)) in net.path.iter().enumerate() {
                let px = (x as f64 + 0.5) * g;
                let py = (y as f64 + 0.5) * g;
                let _ = write!(path, "{}{px:.1},{py:.1} ", if i == 0 { "M" } else { "L" });
            }
            let _ = writeln!(
                out,
                r##"<path d="{path}" fill="none" stroke="{color}" stroke-width="0.8" stroke-opacity="0.7"/>"##
            );
        }
    }

    out.push_str("</svg>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::test_layout;
    use techlib::spec::InterposerKind;

    #[test]
    fn renders_glass_3d_layout() {
        let layout = test_layout(InterposerKind::Glass3D);
        let svg = render(&layout, &SvgOptions::default());
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>\n"));
        // Four dies + bumps + 68 net paths.
        assert_eq!(svg.matches("<rect").count(), 5); // background + 4 dies
        assert!(svg.matches("<path").count() >= 68);
        assert!(svg.contains("stroke-dasharray"), "embedded dies dashed");
    }

    #[test]
    fn options_disable_layers() {
        let layout = test_layout(InterposerKind::Glass3D);
        let svg = render(
            &layout,
            &SvgOptions {
                draw_bumps: false,
                draw_nets: false,
                ..SvgOptions::default()
            },
        );
        assert_eq!(svg.matches("<circle").count(), 0);
        assert_eq!(svg.matches("<path").count(), 0);
    }

    #[test]
    fn svg_size_tracks_footprint() {
        let layout = test_layout(InterposerKind::Glass3D);
        let svg = render(&layout, &SvgOptions::default());
        // 1.84 mm × 200 px/mm = 368 px wide.
        assert!(svg.contains(r##"width="368""##), "{}", &svg[..120]);
    }
}
