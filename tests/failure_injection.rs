//! Failure injection: push every subsystem into its degenerate corners
//! and assert graceful degradation — no panics, invariants intact, and
//! losses showing up where the design says they must.

use satiot::channel::antenna::AntennaPattern;
use satiot::channel::weather::Weather;
use satiot::core::active::{ActiveCampaign, ActiveConfig};
use satiot::core::error::SatIotError;
use satiot::core::passive::{PassiveCampaign, PassiveConfig};
use satiot::core::satellite::SatellitePayload;
use satiot::measure::latency::LatencyBreakdown;
use satiot::scenarios::constellations::fossa;

use satiot::core::RunOptions;

/// Hermetic run options: machine defaults, no env reads.
fn opts() -> RunOptions {
    RunOptions::default()
}

#[test]
fn tiny_node_buffer_loses_data_but_never_panics() {
    let mut cfg = ActiveConfig::quick(2.0);
    cfg.buffer_capacity = 1;
    let r = ActiveCampaign::new(cfg).run(&opts()).unwrap();
    // Heavy loss, but the pipeline stays consistent.
    assert!(r.reliability() < 0.9);
    assert!(r.node_drop_ratio.iter().any(|d| *d > 0.1));
    for tl in &r.timelines {
        if let (Some(tx), Some(rx)) = (tl.first_tx_s, tl.sat_rx_s) {
            assert!(rx >= tx);
        }
    }
}

#[test]
fn zero_max_attempts_clamps_to_one() {
    let mut cfg = ActiveConfig::quick(1.0);
    cfg.max_attempts = 0; // NodeMachine clamps to ≥ 1; the clamp is counted.
    let r = ActiveCampaign::new(cfg).run(&opts()).unwrap();
    assert!(r.sent.iter().all(|p| p.attempts <= 1));
    assert!(!r.delivered_seqs.is_empty());
    assert_eq!(r.faults.clamped_configs, 1);
}

#[test]
fn permanent_rain_degrades_but_does_not_kill_the_link() {
    let mut sunny = ActiveConfig::quick(3.0);
    sunny.weather_override = Some(Weather::Sunny);
    let mut rainy = sunny.clone();
    rainy.weather_override = Some(Weather::Rainy);
    let r_sunny = ActiveCampaign::new(sunny).run(&opts()).unwrap();
    let r_rainy = ActiveCampaign::new(rainy).run(&opts()).unwrap();
    assert!(r_rainy.mean_attempts() > r_sunny.mean_attempts());
    assert!(
        r_rainy.reliability() > 0.5,
        "rain should not sever the link"
    );
}

#[test]
fn congested_downlink_delays_but_preserves_ordering() {
    let mut cfg = ActiveConfig::quick(3.0);
    cfg.downlink_service_s = 900.0; // Far beyond per-contact capacity.
    let r = ActiveCampaign::new(cfg).run(&opts()).unwrap();
    let b = LatencyBreakdown::compute(&r.timelines);
    // Severe delivery delays…
    assert!(
        b.delivery_min.mean > 100.0,
        "delivery {}",
        b.delivery_min.mean
    );
    // …but never time travel.
    for tl in &r.timelines {
        if let (Some(rx), Some(d)) = (tl.sat_rx_s, tl.delivered_s) {
            assert!(d >= rx);
        }
    }
}

#[test]
fn satellite_with_no_ground_segment_never_delivers() {
    let mut sat = SatellitePayload::new(0, vec![]);
    assert_eq!(sat.accept_uplink(0, 1, 100.0), Some(true));
    assert_eq!(sat.next_contact_s(0.0), None);
    assert_eq!(sat.schedule_downlink(100.0, 1.0), None);
}

#[test]
fn single_node_single_day_still_works() {
    let mut cfg = ActiveConfig::quick(1.0);
    cfg.nodes = 1;
    cfg.node_antenna = AntennaPattern::QuarterWaveMonopole;
    let r = ActiveCampaign::new(cfg).run(&opts()).unwrap();
    assert_eq!(r.node_energy.len(), 1);
    assert!(r.sent.len() >= 48);
    assert!(r.counters.uplinks_collided <= r.counters.uplinks_tx);
}

#[test]
fn passive_with_no_sites_or_no_constellations_is_rejected() {
    // A campaign with nothing to observe is a configuration error, not an
    // empty success: the caller gets a typed rejection up front.
    let mut cfg = PassiveConfig {
        max_days: 1.0,
        ..Default::default()
    };
    cfg.sites.clear();
    let err = PassiveCampaign::new(cfg).run(&opts()).unwrap_err();
    assert!(matches!(err, SatIotError::EmptyPassList { .. }), "{err}");

    let mut cfg = PassiveConfig {
        max_days: 1.0,
        ..Default::default()
    };
    cfg.constellations.clear();
    cfg.sites.retain(|s| s.code == "HK");
    let err = PassiveCampaign::new(cfg).run(&opts()).unwrap_err();
    assert!(matches!(err, SatIotError::EmptyPassList { .. }), "{err}");
}

#[test]
fn passive_before_site_start_produces_nothing() {
    // LDN starts at day 153; capping the campaign at 1 day means LDN has
    // not come online yet in absolute time — but max_days applies from
    // each site's own start, so instead verify a zero-length cap.  A
    // zero-day window is degenerate per site, so it is skipped and
    // counted rather than scanned.
    let mut cfg = PassiveConfig {
        max_days: 0.0,
        constellations: vec![fossa()],
        ..Default::default()
    };
    cfg.sites.retain(|s| s.code == "HK");
    let r = PassiveCampaign::new(cfg).run(&opts()).unwrap();
    assert!(r.traces.is_empty());
    assert_eq!(r.faults.skipped_sites, 1);
}

#[test]
fn giant_payload_still_fits_the_protocol() {
    let mut cfg = ActiveConfig::quick(1.0);
    cfg.payload_bytes = 200; // Above the 120 B billing cap, below LoRa max.
    let r = ActiveCampaign::new(cfg).run(&opts()).unwrap();
    // Airtime-scaled collisions bite hard, retries compensate partially.
    assert!(r.counters.uplinks_tx > 0);
    assert!(r.reliability() > 0.3);
}
