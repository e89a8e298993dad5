//! Writes Touchstone .s2p files for every Table V channel (the Fig. 13
//! S-parameter hand-off) and prints the Nyquist insertion loss summary.
use codesign::table5::{channels_for_in, MonitorLengths};
use codesign::StudyContext;
use techlib::spec::InterposerKind;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    std::fs::create_dir_all("artifacts")?;
    let ctx = StudyContext::paper();
    bench::banner("Channel S-parameters (insertion loss at 0.35 GHz Nyquist)");
    println!("{:<14}{:>8}{:>14}", "tech", "link", "IL dB");
    for tech in InterposerKind::PACKAGED {
        let (l2m, l2l) = channels_for_in(&ctx, tech, MonitorLengths::Paper)?;
        for (label, ch) in [("L2M", l2m), ("L2L", l2l)] {
            println!(
                "{:<14}{:>8}{:>14.4}",
                tech.label(),
                label,
                si::sparams::nyquist_loss_db(&ch)
            );
            let ts = si::sparams::touchstone(&ch, 1e7, 2e10, 101);
            let name = format!(
                "artifacts/channel_{}_{label}.s2p",
                tech.label().replace([' ', '.'], "_")
            );
            std::fs::write(&name, ts)?;
        }
    }
    println!("\nwrote artifacts/channel_*.s2p");
    Ok(())
}
