//! The paper's headline findings as executable assertions.
//!
//! These run truncated campaigns, so thresholds are set at the *shape*
//! level (orderings and coarse ratios), not the paper's exact decimals —
//! `reproduce_all` at full scale produces the quantitative comparison.

use satiot::core::active::{ActiveCampaign, ActiveConfig};
use satiot::core::passive::{theoretical_daily_hours, PassiveCampaign, PassiveConfig};
use satiot::measure::latency::LatencyBreakdown;
use satiot::measure::stats::Histogram;
use satiot::scenarios::constellations::{fossa, tianqi};
use satiot::scenarios::sites::measurement_sites;
use satiot::terrestrial::campaign::{TerrestrialCampaign, TerrestrialConfig};

use satiot::core::RunOptions;

/// Hermetic run options: machine defaults, no env reads.
fn opts() -> RunOptions {
    RunOptions::default()
}

fn hk_passive(days: f64) -> PassiveConfig {
    let mut cfg = PassiveConfig {
        max_days: days,
        ..Default::default()
    };
    cfg.sites.retain(|s| s.code == "HK");
    cfg
}

#[test]
fn effective_windows_shrink_dramatically() {
    // §3.1: effective contact durations are 73.7–89.2 % shorter than the
    // TLE-predicted ones; daily aggregates shrink 85.7–92.2 %.
    let results = PassiveCampaign::new(hk_passive(5.0)).run(&opts()).unwrap();
    for c in ["Tianqi", "FOSSA"] {
        let covered = results.contact_stats_covered(c, &[]);
        assert!(
            covered.duration_shrink > 0.6,
            "{c}: per-window shrink only {:.2}",
            covered.duration_shrink
        );
        let all = results.contact_stats(c, &[]);
        assert!(
            all.duration_shrink > 0.8,
            "{c}: daily shrink only {:.2}",
            all.duration_shrink
        );
    }
}

#[test]
fn contact_intervals_expand() {
    // §3.1: measured inter-contact intervals are several times the
    // theoretical ones (paper: 6.1–44.9×).
    let results = PassiveCampaign::new(hk_passive(5.0)).run(&opts()).unwrap();
    let stats = results.contact_stats("Tianqi", &[]);
    assert!(
        stats.interval_expansion() > 2.0,
        "expansion {:.1}",
        stats.interval_expansion()
    );
}

#[test]
fn receptions_concentrate_mid_window() {
    // Appendix C: ~70 % of receptions inside the middle 30–70 % span.
    let results = PassiveCampaign::new(hk_passive(5.0)).run(&opts()).unwrap();
    let pos = results.reception_positions();
    assert!(pos.len() > 100, "too few receptions ({})", pos.len());
    let mut h = Histogram::new(0.0, 1.0, 10);
    for p in &pos {
        h.add(*p);
    }
    let mid = h.fraction_between(0.3, 0.7);
    assert!(
        (0.5..0.95).contains(&mid),
        "mid-window share {mid:.2} out of band"
    );
    // Edges carry far fewer receptions than the centre.
    assert!(h.fraction(0) + h.fraction(9) < 0.1);
}

#[test]
fn constellation_size_drives_availability() {
    // Fig 3a: Tianqi (22 sats) is available an order of magnitude longer
    // per day than FOSSA (3 sats).
    let hk = measurement_sites()
        .into_iter()
        .find(|s| s.code == "HK")
        .unwrap();
    let t: f64 = theoretical_daily_hours(&tianqi(), &hk, 3)
        .iter()
        .sum::<f64>()
        / 3.0;
    let f: f64 = theoretical_daily_hours(&fossa(), &hk, 3)
        .iter()
        .sum::<f64>()
        / 3.0;
    assert!((10.0..24.0).contains(&t), "Tianqi {t} h/day");
    assert!((0.3..5.0).contains(&f), "FOSSA {f} h/day");
}

#[test]
fn satellite_latency_is_hundreds_of_times_terrestrial() {
    // §3.2: 135.2 min vs 0.2 min (643.6×). At 4 simulated days we accept
    // any ratio above 100×.
    let sat = ActiveCampaign::new(ActiveConfig::quick(4.0))
        .run(&opts())
        .unwrap();
    let terr = TerrestrialCampaign::new(TerrestrialConfig {
        days: 4.0,
        ..Default::default()
    })
    .run()
    .unwrap();
    let sb = LatencyBreakdown::compute(&sat.timelines);
    let tb = LatencyBreakdown::compute(&terr.timelines);
    let ratio = sb.end_to_end_min.mean / tb.end_to_end_min.mean;
    assert!(ratio > 100.0, "latency ratio only {ratio:.0}x");
    // Terrestrial stays sub-minute; satellite is hour-scale.
    assert!(tb.end_to_end_min.mean < 1.0);
    assert!(sb.end_to_end_min.mean > 45.0);
}

#[test]
fn retransmissions_lift_reliability_above_no_retx() {
    // Fig 5a: 91 % without retransmissions → 96 % with ≤5.
    let mut none = ActiveConfig::quick(4.0);
    none.max_attempts = 1;
    let r_none = ActiveCampaign::new(none).run(&opts()).unwrap();
    let r_retx = ActiveCampaign::new(ActiveConfig::quick(4.0))
        .run(&opts())
        .unwrap();
    assert!(
        r_none.reliability() > 0.75,
        "no-retx {:.2}",
        r_none.reliability()
    );
    assert!(r_retx.reliability() > r_none.reliability());
    assert!(
        r_retx.reliability() > 0.9,
        "retx {:.2}",
        r_retx.reliability()
    );
}

#[test]
fn ack_loss_inflates_retransmissions() {
    // §3.2's "contradicting results": ~half of packets retransmit even
    // though >90 % of first uplinks are received — visible as duplicates.
    let r = ActiveCampaign::new(ActiveConfig::quick(4.0))
        .run(&opts())
        .unwrap();
    let retx_share = 1.0
        - r.timelines.iter().filter(|p| p.attempts == 1).count() as f64
            / r.timelines.iter().filter(|p| p.attempts > 0).count().max(1) as f64;
    assert!(
        (0.2..0.8).contains(&retx_share),
        "retransmission share {retx_share:.2}"
    );
    assert!(r.counters.duplicates > 0);
    assert!(r.counters.acks_ok < r.counters.acks_tx);
}

#[test]
fn energy_gap_favors_terrestrial_by_an_order_of_magnitude() {
    use satiot::energy::battery::Battery;
    use satiot::energy::profile::{SatNodeDeploymentProfile, TerrestrialDeploymentProfile};
    let sat = ActiveCampaign::new(ActiveConfig::quick(3.0))
        .run(&opts())
        .unwrap();
    let terr = TerrestrialCampaign::new(TerrestrialConfig {
        days: 3.0,
        ..Default::default()
    })
    .run()
    .unwrap();
    let b = Battery::paper_5ah();
    let sat_days = b.lifetime_days(
        sat.node_energy[0]
            .re_profile(&SatNodeDeploymentProfile)
            .average_power_mw(),
    );
    let terr_days = b.lifetime_days(
        terr.node_energy[0]
            .re_profile(&TerrestrialDeploymentProfile)
            .average_power_mw(),
    );
    let gap = terr_days / sat_days;
    assert!(gap > 5.0, "battery gap only {gap:.1}x");
    assert!(sat_days < 60.0, "satellite node {sat_days:.0} days");
    assert!(terr_days > 250.0, "terrestrial node {terr_days:.0} days");
}
