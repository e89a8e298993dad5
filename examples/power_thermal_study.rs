//! Power- and thermal-integrity study: the Fig. 15 PDN impedance family,
//! the Table IV IR-drop/settling rows, and the Fig. 16–18 temperatures.
//!
//! ```sh
//! cargo run --release --example power_thermal_study
//! ```

use pi::impedance::ImpedanceProfile;
use pi::transient;
use techlib::spec::{InterposerKind, InterposerSpec};
use thermal::report::figure17;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("--- Fig. 15: PDN impedance profiles (1 MHz - 1 GHz) ---");
    println!(
        "{:<14}{:>10}{:>10}{:>10}{:>10}{:>12}",
        "tech", "1 MHz", "10 MHz", "100 MHz", "1 GHz", "peak Ω"
    );
    for tech in InterposerKind::PACKAGED {
        let p = ImpedanceProfile::sweep(&InterposerSpec::for_kind(tech), 61)?;
        println!(
            "{:<14}{:>10.3}{:>10.3}{:>10.3}{:>10.3}{:>12.2}",
            tech.label(),
            p.at(1e6),
            p.at(1e7),
            p.at(1e8),
            p.at(1e9),
            p.peak_ohm()
        );
    }

    println!("\n--- Table IV: IR drop and 125 MHz settling ---");
    println!(
        "{:<14}{:>12}{:>12}{:>14}",
        "tech", "IR drop mV", "droop mV", "settling µs"
    );
    for tech in InterposerKind::PACKAGED {
        let r = transient::analyze(&InterposerSpec::for_kind(tech))?;
        println!(
            "{:<14}{:>12.1}{:>12.1}{:>14.2}",
            tech.label(),
            r.ir_drop_mv,
            r.worst_droop_mv,
            r.settling_us
        );
    }

    println!("\n--- Figs. 16-18: chiplet temperatures (0.1 m/s air) ---");
    println!(
        "{:<14}{:>12}{:>12}{:>12}",
        "tech", "logic °C", "mem °C", "assembly °C"
    );
    for r in figure17()? {
        println!(
            "{:<14}{:>12.1}{:>12.1}{:>12.1}",
            r.tech.label(),
            r.logic_peak_c,
            r.mem_peak_c,
            r.assembly_peak_c
        );
    }
    Ok(())
}
