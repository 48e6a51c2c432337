//! Ablation A4: satellite beacon interval vs. effective-window detection
//! — how beacon cadence shapes what a passive observer can measure.

use satiot_bench::Scale;
use satiot_core::prelude::*;
use satiot_measure::table::{num, pct, Table};

fn main() {
    let scale = Scale::from_env();
    let opts = RunOptions::from_env().with_scale(scale).apply();
    let days = scale.passive_days().min(10.0);
    let mut t = Table::new(
        "Ablation A4: Tianqi beacon interval vs measured windows",
        &[
            "Beacon interval (s)",
            "traces",
            "eff. contact (min)",
            "measured shrink",
        ],
    );
    for interval in [15.0f64, 30.0, 60.0, 120.0] {
        let mut cfg = PassiveConfig {
            max_days: days,
            ..Default::default()
        };
        cfg.sites.retain(|s| s.code == "HK");
        cfg.constellations.retain(|c| c.name == "Tianqi");
        for c in &mut cfg.constellations {
            c.beacon_interval_s = interval;
        }
        let results = PassiveCampaign::new(cfg).run(&opts).unwrap();
        let stats = results.contact_stats_covered("Tianqi", &[]);
        t.row(&[
            num(interval, 0),
            results.traces.len().to_string(),
            num(stats.effective_min.mean, 1),
            pct(stats.duration_shrink),
        ]);
    }
    print!("{}", t.render());
    println!("\nSparser beacons under-sample the window: the measured effective duration\nshrinks with cadence even though the RF channel is identical.");
}
