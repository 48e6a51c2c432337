//! Cross-crate integration: the full passive and active pipelines driven
//! through the facade crate, with invariants checked across module
//! boundaries (orbit → channel → phy → core → measure).

use satiot::core::active::{ActiveCampaign, ActiveConfig};
use satiot::core::passive::{PassiveCampaign, PassiveConfig};
use satiot::measure::latency::LatencyBreakdown;
use satiot::scenarios::constellations::{fossa, tianqi};
use satiot::scenarios::sites::measurement_sites;
use satiot::terrestrial::campaign::{TerrestrialCampaign, TerrestrialConfig};

use satiot::core::RunOptions;

/// Hermetic run options: machine defaults, no env reads.
fn opts() -> RunOptions {
    RunOptions::default()
}

fn small_passive() -> PassiveConfig {
    let mut cfg = PassiveConfig {
        max_days: 3.0,
        constellations: vec![tianqi(), fossa()],
        ..Default::default()
    };
    cfg.sites.retain(|s| s.code == "HK");
    cfg
}

#[test]
fn passive_traces_respect_physical_bounds() {
    let results = PassiveCampaign::new(small_passive()).run(&opts()).unwrap();
    assert!(!results.traces.is_empty());
    for t in &results.traces.traces {
        // RSSI of a *decoded* LoRa packet must sit above raw noise-margin
        // oblivion and below any plausible near-field level.
        assert!(
            (-150.0..=-90.0).contains(&t.rssi_dbm),
            "rssi {}",
            t.rssi_dbm
        );
        // SNR of decoded packets clusters around the SF10 threshold.
        assert!((-25.0..=20.0).contains(&t.snr_db), "snr {}", t.snr_db);
        // Slant ranges are bounded by geometry: not below the orbit
        // altitude, not beyond the horizon distance.
        assert!(
            (400.0..=3_700.0).contains(&t.distance_km),
            "distance {}",
            t.distance_km
        );
        // Decodes only happen above (or marginally at) the horizon.
        assert!(t.elevation_deg > -1.0, "elevation {}", t.elevation_deg);
        // LEO Doppler at 400 MHz stays within ±11 kHz.
        assert!(t.doppler_hz.abs() < 11_000.0, "doppler {}", t.doppler_hz);
        assert_eq!(t.site, "HK");
    }
}

#[test]
fn passive_windows_contain_their_receptions() {
    let results = PassiveCampaign::new(small_passive()).run(&opts()).unwrap();
    for pass in results.covered_passes() {
        let w = &pass.window;
        assert!(w.theoretical.duration_s() > 0.0);
        if let (Some(first), Some(last)) = (w.first_rx_s, w.last_rx_s) {
            assert!(first <= last);
            assert!(first >= w.theoretical.start_s - 1e-6);
            assert!(last <= w.theoretical.end_s + 1e-6);
            assert!(w.received > 0);
            assert!(w.received <= w.transmitted);
        } else {
            assert_eq!(w.received, 0);
        }
        for p in &pass.reception_positions {
            assert!((0.0..=1.0).contains(p));
        }
    }
}

#[test]
fn active_pipeline_timelines_are_ordered() {
    let results = ActiveCampaign::new(ActiveConfig::quick(2.0))
        .run(&opts())
        .unwrap();
    for tl in &results.timelines {
        if let Some(tx) = tl.first_tx_s {
            assert!(tx >= tl.generated_s, "tx before generation");
        }
        if let (Some(tx), Some(rx)) = (tl.first_tx_s, tl.sat_rx_s) {
            assert!(rx >= tx, "satellite rx before first tx");
        }
        if let (Some(rx), Some(d)) = (tl.sat_rx_s, tl.delivered_s) {
            assert!(d >= rx, "delivery before satellite rx");
        }
        // A delivered packet must have been accepted on orbit first.
        if tl.delivered_s.is_some() {
            assert!(tl.sat_rx_s.is_some());
            assert!(tl.first_tx_s.is_some());
        }
    }
}

#[test]
fn server_log_agrees_with_delivered_set() {
    let r = ActiveCampaign::new(ActiveConfig::quick(3.0))
        .run(&opts())
        .unwrap();
    // Every delivered seq (within the horizon) is in the server log; the
    // log may additionally hold deliveries landing past the horizon.
    let log_seqs = r.server.delivered_seqs();
    for seq in &r.delivered_seqs {
        assert!(log_seqs.contains(seq), "seq {seq} missing from server log");
    }
    assert!(r.server.arrivals >= r.server.delivered() as u64);
    assert!((0.0..=1.0).contains(&r.server.duplicate_ratio()));
}

#[test]
fn active_counters_are_consistent() {
    let r = ActiveCampaign::new(ActiveConfig::quick(2.0))
        .run(&opts())
        .unwrap();
    let c = &r.counters;
    assert!(c.beacons_heard <= c.beacons_tx);
    assert!(c.uplinks_ok <= c.uplinks_tx);
    assert!(c.acks_ok <= c.acks_tx);
    // Every ACK corresponds to a decoded uplink.
    assert!(c.acks_tx <= c.uplinks_ok);
    // Delivered set cannot exceed what was sent.
    assert!(r.delivered_seqs.len() <= r.sent.len());
    // Energy residencies cover the horizon for every node.
    for acc in &r.node_energy {
        assert!((acc.total_time_s() - r.horizon_s).abs() < 1.0);
    }
}

#[test]
fn satellite_beats_terrestrial_on_nothing_but_coverage() {
    // The paper's comparison table, as an executable assertion.
    let sat = ActiveCampaign::new(ActiveConfig::quick(3.0))
        .run(&opts())
        .unwrap();
    let terr = TerrestrialCampaign::new(TerrestrialConfig {
        days: 3.0,
        ..Default::default()
    })
    .run()
    .unwrap();
    let sb = LatencyBreakdown::compute(&sat.timelines);
    let tb = LatencyBreakdown::compute(&terr.timelines);
    assert!(terr.reliability() > sat.reliability());
    assert!(sb.end_to_end_min.mean > 50.0 * tb.end_to_end_min.mean);
    let sat_power = sat.node_energy[0].average_power_mw();
    let terr_power = terr.node_energy[0].average_power_mw();
    assert!(sat_power > terr_power);
}

#[test]
fn all_sites_produce_data_at_full_breadth() {
    // Every Table 1 site yields traces once its deployment window opens.
    let cfg = PassiveConfig {
        max_days: 2.0,
        constellations: vec![tianqi()],
        ..Default::default()
    };
    let results = PassiveCampaign::new(cfg).run(&opts()).unwrap();
    for site in measurement_sites() {
        let n = results.traces.by_site(site.code).count();
        assert!(n > 0, "site {} produced no traces", site.code);
    }
}
