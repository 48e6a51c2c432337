//! Reproducibility: identical seeds must replay identical campaigns —
//! across the passive, active, and terrestrial drivers, regardless of
//! the thread count, and whether a scenario comes from its committed
//! file or its compiled-in twin.

use satiot::core::active::{ActiveCampaign, ActiveConfig};
use satiot::core::passive::{PassiveCampaign, PassiveConfig, PassiveResults};
use satiot::scenarios::constellations::pico;
use satiot::scenarios::ScenarioSpec;
use satiot::terrestrial::campaign::{TerrestrialCampaign, TerrestrialConfig};

use satiot::core::RunOptions;

/// Hermetic run options: machine defaults, no env reads.
fn opts() -> RunOptions {
    RunOptions::default()
}

/// Two passive runs agree to the bit: traces, and every pass record's
/// window, weather, coverage and station state.
fn assert_identical(label: &str, a: &PassiveResults, b: &PassiveResults) {
    assert_eq!(a.traces.traces, b.traces.traces, "{label}: traces");
    assert_eq!(a.passes.len(), b.passes.len(), "{label}: pass counts");
    for (x, y) in a.passes.iter().zip(&b.passes) {
        assert_eq!(x.window, y.window, "{label}: window");
        assert_eq!(x.weather, y.weather, "{label}: weather");
        assert_eq!(
            x.covered_s.to_bits(),
            y.covered_s.to_bits(),
            "{label}: coverage"
        );
        assert_eq!(x.station_up, y.station_up, "{label}: station state");
    }
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
    assert_identical(
        "one thread, twice",
        &serial,
        &campaign.run(&one_thread).unwrap(),
    );
    assert_identical(
        "one thread vs pool",
        &serial,
        &campaign.run(&opts()).unwrap(),
    );

    // The committed scenario file configures exactly the campaign of its
    // compiled-in twin, on the pool and on one thread.
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/scenarios/tianqi_hk.scenario.json"
    );
    let campaign_of = |spec: ScenarioSpec| {
        PassiveCampaign::new(PassiveConfig::from_scenario(
            &spec.build().expect("scenario resolves"),
        ))
    };
    let from_file = campaign_of(ScenarioSpec::from_file(path).expect("committed file loads"));
    let pooled = from_file.run(&opts()).unwrap();
    let builtin = campaign_of(ScenarioSpec::tianqi_hk()).run(&opts()).unwrap();
    assert_identical("scenario file vs builtin", &pooled, &builtin);
    assert_identical(
        "scenario file: pool vs one thread",
        &pooled,
        &from_file.run(&one_thread).unwrap(),
    );
}

#[test]
fn active_replays_per_seed_and_diverges_across_seeds() {
    let mut cfg = ActiveConfig::quick(2.0);
    cfg.seed = 1234;
    let a = ActiveCampaign::new(cfg.clone()).run(&opts()).unwrap();
    let b = ActiveCampaign::new(cfg.clone()).run(&opts()).unwrap();
    assert_eq!(a.timelines, b.timelines);
    assert_eq!(a.counters.uplinks_tx, b.counters.uplinks_tx);
    assert_eq!(a.counters.acks_ok, b.counters.acks_ok);

    cfg.seed = 4321;
    let c = ActiveCampaign::new(cfg).run(&opts()).unwrap();
    // Same workload, different channel randomness.
    assert_eq!(a.timelines.len(), c.timelines.len());
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
    assert_eq!(a.timelines, b.timelines);
}

#[test]
fn config_knobs_change_outcomes_not_workload() {
    // Sweeping a protocol knob keeps the generated workload identical
    // (same sender and send time per sequence ID) while changing
    // protocol behaviour.
    let mut one = ActiveConfig::quick(2.0);
    one.max_attempts = 1;
    let mut many = ActiveConfig::quick(2.0);
    many.max_attempts = 6;
    let r1 = ActiveCampaign::new(one).run(&opts()).unwrap();
    let r6 = ActiveCampaign::new(many).run(&opts()).unwrap();
    assert_eq!(r1.timelines.len(), r6.timelines.len());
    for (a, b) in r1.timelines.iter().zip(&r6.timelines) {
        assert_eq!(a.node, b.node);
        assert!((a.generated_s - b.generated_s).abs() < 1e-9);
    }
    assert!(r6.mean_attempts() >= r1.mean_attempts());
}
