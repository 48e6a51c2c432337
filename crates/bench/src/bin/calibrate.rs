//! Calibration probe: prints the headline quantities next to the paper's
//! values so channel/protocol constants can be tuned. Not part of the
//! experiment set — use `reproduce_all` for the real tables.

use satiot_core::passive::theoretical_daily_hours;
use satiot_core::prelude::*;
use satiot_measure::latency::LatencyBreakdown;
use satiot_measure::stats::Summary;
use satiot_scenarios::constellations::tianqi;
use satiot_scenarios::sites::measurement_sites;
use satiot_terrestrial::campaign::{TerrestrialCampaign, TerrestrialConfig};

fn main() {
    let opts = RunOptions::from_env().apply();
    let days: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(7.0);

    // --- Passive: HK only, all constellations. ---
    let hk = measurement_sites()
        .into_iter()
        .filter(|s| s.code == "HK")
        .collect::<Vec<_>>();
    let mut pcfg = PassiveConfig {
        max_days: days,
        ..Default::default()
    };
    pcfg.sites = hk.clone();
    let passive = PassiveCampaign::new(pcfg).run(&opts).unwrap();
    println!("=== PASSIVE (HK, {days} days) ===");
    println!("traces: {}", passive.traces.len());
    for c in ["Tianqi", "FOSSA", "PICO", "CSTP"] {
        println!(
            "  {c}: {} traces",
            passive.traces.by_constellation(c).count()
        );
    }
    for c in ["Tianqi", "FOSSA", "PICO", "CSTP"] {
        let all = passive.contact_stats(c, &[]);
        let cov = passive.contact_stats_covered(c, &[]);
        let rssi = Summary::of(&passive.traces.rssi_of(c));
        println!(
            "{c:7} win={:4}({:3}cov) outage={:3} th={:5.1}m eff={:4.1}m shrinkW={:4.1}% shrinkAll={:4.1}% \
             gapTh={:6.1}m gapEff={:6.1}m exp={:5.1}x rssi={:6.1} [{:6.1},{:6.1}]",
            all.total_windows,
            cov.total_windows,
            cov.outage_windows,
            cov.theoretical_min.mean,
            cov.effective_min.mean,
            cov.duration_shrink * 100.0,
            all.duration_shrink * 100.0,
            all.theoretical_interval_min.mean,
            all.effective_interval_min.mean,
            all.interval_expansion(),
            rssi.mean,
            rssi.p10,
            rssi.p90,
        );
    }
    // Reception concentration (paper: 70.4% in 30–70% of window).
    let pos = passive.reception_positions();
    let mid =
        pos.iter().filter(|p| (0.3..0.7).contains(*p)).count() as f64 / pos.len().max(1) as f64;
    println!(
        "mid-window (30-70%) reception share: {:.1}% (paper 70.4%)",
        mid * 100.0
    );
    // Tianqi daily theoretical hours (paper 18.5 h at 22 sats).
    let th = theoretical_daily_hours(&tianqi(), &hk[0], days.min(5.0) as u32);
    println!(
        "Tianqi theoretical h/day: {:.1} (paper 18.5)",
        th.iter().sum::<f64>() / th.len() as f64
    );
    // Beacon loss per contact (paper: >50% dropped even sunny).
    let ratios: Vec<f64> = passive
        .covered_passes()
        .filter(|p| p.constellation == "Tianqi")
        .filter_map(|p| p.window.beacon_reception_ratio())
        .collect();
    println!(
        "Tianqi per-contact beacon reception ratio mean: {:.2} (paper <0.5)",
        Summary::of(&ratios).mean
    );

    // --- Active. ---
    let mut acfg = ActiveConfig::quick(days);
    acfg.seed = 42;
    let active = ActiveCampaign::new(acfg).run(&opts).unwrap();
    let b = LatencyBreakdown::compute(&active.timelines);
    println!("\n=== ACTIVE ({days} days) ===");
    println!(
        "sent={} delivered={}",
        active.sent.len(),
        active.delivered_seqs.len()
    );
    println!(
        "reliability: {:.1}% (paper ~96% with retx)",
        active.reliability() * 100.0
    );
    println!(
        "latency: wait={:.1} dts={:.1} delivery={:.1} e2e={:.1} min (paper 55.2/10.4/56.9/135.2)",
        b.wait_min.mean, b.dts_min.mean, b.delivery_min.mean, b.end_to_end_min.mean
    );
    println!("mean attempts: {:.2}", active.mean_attempts());
    let no_retx_share = active.sent.iter().filter(|p| p.attempts == 1).count() as f64
        / active.sent.iter().filter(|p| p.attempts > 0).count().max(1) as f64;
    println!(
        "share with no retx: {:.1}% (paper ~50%)",
        no_retx_share * 100.0
    );
    println!("counters: {:?}", active.counters);
    let acc = &active.node_energy[0];
    use satiot_energy::profile::SatNodeMode;
    println!(
        "node0 residency: sleep={:.1}% rx={:.2}% tx={:.3}% avg_power={:.1} mW",
        acc.time_fraction(SatNodeMode::Sleep) * 100.0,
        acc.time_fraction(SatNodeMode::McuRx) * 100.0,
        acc.time_fraction(SatNodeMode::McuTx) * 100.0,
        acc.average_power_mw()
    );

    // --- Terrestrial. ---
    let terr = TerrestrialCampaign::new(TerrestrialConfig {
        days,
        ..Default::default()
    })
    .run()
    .expect("default terrestrial config is valid");
    let tb = LatencyBreakdown::compute(&terr.timelines);
    println!("\n=== TERRESTRIAL ({days} days) ===");
    println!("reliability: {:.2}%", terr.reliability() * 100.0);
    println!("e2e latency: {:.2} min (paper 0.2)", tb.end_to_end_min.mean);
    let tacc = &terr.node_energy[0];
    println!("avg power: {:.2} mW", tacc.average_power_mw());
    println!(
        "ratio sat/terr avg power (bench profile): {:.1}x",
        acc.average_power_mw() / tacc.average_power_mw()
    );
    // Deployment-grade lifetime projection (Fig 6d).
    use satiot_energy::battery::Battery;
    use satiot_energy::profile::{SatNodeDeploymentProfile, TerrestrialDeploymentProfile};
    let sat_deploy = acc.re_profile(&SatNodeDeploymentProfile);
    let terr_deploy = tacc.re_profile(&TerrestrialDeploymentProfile);
    let pack = Battery::paper_5ah();
    let sat_days = pack.lifetime_days(sat_deploy.average_power_mw());
    let terr_days = pack.lifetime_days(terr_deploy.average_power_mw());
    println!(
        "deployment lifetimes: sat {:.0} d, terr {:.0} d, ratio {:.1}x (paper 48/718/14.9x)",
        sat_days,
        terr_days,
        terr_days / sat_days
    );
    println!(
        "e2e latency ratio: {:.0}x (paper 643.6x)",
        b.end_to_end_min.mean / tb.end_to_end_min.mean
    );

    let cache = satiot_core::sweep::stats();
    println!(
        "\npass cache: {} lookups, {} computed, {} served from cache ({} entries)",
        cache.lookups,
        cache.computes,
        cache.hits(),
        cache.entries
    );
}
