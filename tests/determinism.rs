//! Reproducibility: identical seeds must replay identical campaigns —
//! across the passive, active, and terrestrial drivers, and regardless
//! of the thread count.

use satiot::core::active::{ActiveCampaign, ActiveConfig};
use satiot::core::passive::{PassiveCampaign, PassiveConfig};
use satiot::scenarios::constellations::pico;
use satiot::terrestrial::campaign::{TerrestrialCampaign, TerrestrialConfig};

use satiot::core::RunOptions;

/// Hermetic run options: machine defaults, no env reads.
fn opts() -> RunOptions {
    RunOptions::default()
}

#[test]
fn passive_is_bit_identical_across_runs_and_threading() {
    let mut cfg = PassiveConfig {
        max_days: 2.0,
        constellations: vec![pico()],
        ..Default::default()
    };
    cfg.sites.retain(|s| matches!(s.code, "HK" | "SYD" | "GZ"));
    let campaign = PassiveCampaign::new(cfg);
    let one_thread = opts().with_threads(Some(1));
    let serial = campaign.run(&one_thread).unwrap();
    let serial2 = campaign.run(&one_thread).unwrap();
    let parallel = campaign.run(&opts()).unwrap();

    assert_eq!(serial.traces.traces, serial2.traces.traces);
    assert_eq!(serial.traces.traces, parallel.traces.traces);
    assert_eq!(serial.passes.len(), parallel.passes.len());
    for (a, b) in serial.passes.iter().zip(&parallel.passes) {
        assert_eq!(a.window, b.window);
        assert_eq!(a.weather, b.weather);
    }
}

#[test]
fn active_replays_per_seed_and_diverges_across_seeds() {
    let mut cfg = ActiveConfig::quick(2.0);
    cfg.seed = 1234;
    let a = ActiveCampaign::new(cfg.clone()).run(&opts()).unwrap();
    let b = ActiveCampaign::new(cfg.clone()).run(&opts()).unwrap();
    assert_eq!(a.delivered_seqs, b.delivered_seqs);
    assert_eq!(a.counters.uplinks_tx, b.counters.uplinks_tx);
    assert_eq!(a.counters.acks_ok, b.counters.acks_ok);
    for (x, y) in a.timelines.iter().zip(&b.timelines) {
        assert_eq!(x, y);
    }

    cfg.seed = 4321;
    let c = ActiveCampaign::new(cfg).run(&opts()).unwrap();
    // Same workload, different channel randomness.
    assert_eq!(a.sent.len(), c.sent.len());
    assert_ne!(
        a.counters.uplinks_tx, c.counters.uplinks_tx,
        "different seeds should perturb the protocol trace"
    );
}

#[test]
fn terrestrial_replays_per_seed() {
    let cfg = TerrestrialConfig {
        days: 2.0,
        ..Default::default()
    };
    let a = TerrestrialCampaign::new(cfg.clone()).run().unwrap();
    let b = TerrestrialCampaign::new(cfg).run().unwrap();
    assert_eq!(a.delivered_seqs, b.delivered_seqs);
    assert_eq!(a.timelines, b.timelines);
}

#[test]
fn config_knobs_change_outcomes_not_workload() {
    // Sweeping a protocol knob keeps the generated workload identical
    // (same seq space) while changing protocol behaviour.
    let mut one = ActiveConfig::quick(2.0);
    one.max_attempts = 1;
    let mut many = ActiveConfig::quick(2.0);
    many.max_attempts = 6;
    let r1 = ActiveCampaign::new(one).run(&opts()).unwrap();
    let r6 = ActiveCampaign::new(many).run(&opts()).unwrap();
    assert_eq!(r1.sent.len(), r6.sent.len());
    for (a, b) in r1.sent.iter().zip(&r6.sent) {
        assert_eq!(a.seq, b.seq);
        assert_eq!(a.node, b.node);
        assert!((a.sent_s - b.sent_s).abs() < 1e-9);
    }
    assert!(r6.mean_attempts() >= r1.mean_attempts());
}
