//! Constellation sizing tool: how many satellites does a Tianqi-class
//! operator need for a target daily service duration?
//!
//! Sweeps constellation size, predicts the theoretical daily availability
//! over a site, and applies the measured effective-to-theoretical ratio
//! (the paper's headline shrink) to estimate *usable* hours per day.
//!
//! Run with: `cargo run --release --example constellation_designer [SITE]`

use satiot::core::passive::theoretical_daily_hours;
use satiot::scenarios::constellations::{ConstellationSpec, Shell};
use satiot::scenarios::sites::measurement_sites;

fn main() {
    let code = std::env::args().nth(1).unwrap_or_else(|| "HK".into());
    let site = measurement_sites()
        .into_iter()
        .find(|s| s.code == code)
        .unwrap_or_else(|| {
            measurement_sites()
                .into_iter()
                .find(|s| s.code == "HK")
                .unwrap()
        });

    // The paper's measured effective/theoretical ratio for Tianqi-class
    // links (§3.1: daily duration shrinks ~90 %).
    let effective_ratio = 0.10;

    println!(
        "Constellation sizing for {} ({}), Tianqi-class 860 km shell @ 50°:\n",
        site.name, site.code
    );
    println!("sats  theoretical h/day  est. effective h/day  mean gap (min)");
    // Pass lists are cached by constellation label, so every size needs
    // a label of its own.
    for (count, name) in [
        (4u32, "Design-4"),
        (8, "Design-8"),
        (16, "Design-16"),
        (22, "Design-22"),
        (32, "Design-32"),
        (48, "Design-48"),
        (64, "Design-64"),
    ] {
        let spec = ConstellationSpec {
            name,
            region: "-",
            shells: vec![Shell {
                count,
                alt_lo_km: 840.0,
                alt_hi_km: 880.0,
                inclination_deg: 49.97,
            }],
            dts_frequency_mhz: 400.45,
            beacon_interval_s: 60.0,
            tx_power_dbm: 22.0,
            walker: None,
        };
        let hours = theoretical_daily_hours(&spec, &site, 5);
        let mean = hours.iter().sum::<f64>() / hours.len().max(1) as f64;
        let effective = mean * effective_ratio;
        let gap = if mean >= 23.9 {
            0.0
        } else {
            // Mean outage gap assuming ~passes of 12 min each.
            let off_hours = 24.0 - mean;
            let contacts_per_day = (mean * 60.0 / 12.0).max(1.0);
            off_hours * 60.0 / contacts_per_day
        };
        println!("{count:>4}  {mean:>17.1}  {effective:>20.1}  {gap:>14.1}",);
    }
    println!(
        "\nThe paper's Tianqi (22 sats) delivers ~18.5 theoretical but only ~1.8\n\
         effective hours/day: scaling the constellation fixes *availability*, but\n\
         only link-layer fixes (Doppler compensation, better antennas — see the\n\
         ablations) recover the effective fraction. Note also that coverage is\n\
         not monotone in satellite count alone — plane count and phasing matter\n\
         (the catalog builder's Walker layout shows visible dips)."
    );
}
