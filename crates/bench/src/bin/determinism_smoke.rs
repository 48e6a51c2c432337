//! CI determinism smoke: a quick multi-site passive campaign run on
//! the sweep pool twice and on one thread must produce bit-identical
//! traces and pass records, the pass-prediction cache must have
//! computed each list exactly once, and the `orbit.cull.*` proof
//! counters must balance (`considered == culled + kept`). A further
//! section pins the bounded-memory sink: the aggregating mode retains
//! zero traces (obs-counter-audited) yet sketches identically across
//! thread counts, with quantiles inside the documented error band. The
//! last section pins the committed scenario file against its builtin
//! twin.
//!
//! Exits non-zero (panics) on any divergence, so the CI step is just
//! `cargo run --release -p satiot-bench --bin determinism_smoke`.

use satiot_core::prelude::*;
use satiot_core::sweep;
use satiot_measure::stats::nearest_rank_sorted;
use satiot_obs::metrics::{self, Counter};
use satiot_orbit::cull;

// Shared-slot view of the sink's retention counter (name-keyed).
static SINK_RETAINED: Counter = Counter::new("measure.sink.traces_retained");

fn config() -> PassiveConfig {
    // The smoke campaign is itself expressed as a scenario spec — the
    // same typed front door the experiment runners use — so the
    // determinism gates below also pin the spec→config path.
    let mut spec = ScenarioSpec::paper_passive();
    spec.max_days = Some(1.0);
    spec.sites = ["HK", "GZ", "SH"]
        .iter()
        .map(|code| SiteRef::Named((*code).to_string()))
        .collect();
    let scenario = spec.build().expect("catalog site codes resolve");
    PassiveConfig::from_scenario(&scenario)
}

fn assert_identical(label: &str, a: &PassiveResults, b: &PassiveResults) {
    assert_eq!(a.traces.len(), b.traces.len(), "{label}: trace counts");
    assert_eq!(a.passes.len(), b.passes.len(), "{label}: pass counts");
    for (x, y) in a.traces.traces.iter().zip(&b.traces.traces) {
        assert_eq!(x, y, "{label}: trace diverged");
    }
    for (x, y) in a.passes.iter().zip(&b.passes) {
        assert_eq!(
            x.covered_s.to_bits(),
            y.covered_s.to_bits(),
            "{label}: coverage diverged"
        );
        assert_eq!(x.station_up, y.station_up, "{label}: station_up diverged");
        assert_eq!(
            (x.window.received, x.window.transmitted),
            (y.window.received, y.window.transmitted),
            "{label}: window counts diverged"
        );
    }
    println!(
        "{label}: identical ({} traces, {} passes)",
        a.traces.len(),
        a.passes.len()
    );
}

fn main() {
    let opts = RunOptions::from_env().apply();
    let serial_opts = opts.with_threads(Some(1));
    println!("determinism smoke: threads={:?}", opts.threads);
    sweep::clear();
    cull::reset_stats();
    let pooled_a = PassiveCampaign::new(config()).run(&opts).unwrap();
    let pooled_b = PassiveCampaign::new(config()).run(&opts).unwrap();
    let serial = PassiveCampaign::new(config()).run(&serial_opts).unwrap();

    assert_identical("pool vs pool", &pooled_a, &pooled_b);
    assert_identical("pool vs one thread", &pooled_a, &serial);

    // The spatial pre-cull only ever drops (site, sat) pairs that
    // geometry proves can never clear the horizon; every pair reaching
    // the decision is either culled or kept.
    let stats = cull::stats();
    println!(
        "cull: {} considered, {} culled, {} kept",
        stats.pairs_considered,
        stats.pairs_culled(),
        stats.pairs_kept
    );
    assert!(stats.pairs_considered > 0, "cull stage never consulted");
    assert_eq!(
        stats.pairs_considered,
        stats.pairs_culled() + stats.pairs_kept,
        "cull proof counters do not balance"
    );

    let cache = sweep::stats();
    println!(
        "pass cache: {} lookups, {} computed, {} served from cache ({} entries)",
        cache.lookups,
        cache.computes,
        cache.hits(),
        cache.entries
    );
    assert_eq!(
        cache.computes, cache.entries as u64,
        "a pass list was predicted more than once"
    );
    assert!(
        cache.hits() > 0,
        "repeat runs never hit the cache — keying is broken"
    );

    // Bounded-memory mode: the aggregating sink must not perturb the
    // simulation, must retain nothing (obs-counter-audited), and must
    // sketch identically on one thread and on the pool — the sketch
    // merge happens per site in configuration order, exactly like the
    // trace merge it replaces.
    let full = PassiveCampaign::new(config())
        .run(&opts.with_sink(SinkMode::Full))
        .unwrap();
    // Audit the bounded runs from a clean counter slate (the full run
    // above legitimately retained everything).
    metrics::set_enabled(true);
    metrics::reset();
    let agg_opts = opts.with_sink(SinkMode::Aggregate);
    let agg_pooled = PassiveCampaign::new(config()).run(&agg_opts).unwrap();
    let agg_serial = PassiveCampaign::new(config())
        .run(&agg_opts.with_threads(Some(1)))
        .unwrap();
    assert!(
        agg_pooled.traces.traces.is_empty(),
        "aggregate sink retained traces"
    );
    assert_eq!(agg_pooled.sink.retained, 0, "SinkStats counted retention");
    assert_eq!(
        SINK_RETAINED.value(),
        0,
        "obs counter says the bounded mode retained traces"
    );
    assert_eq!(
        agg_pooled.sink.emitted,
        full.traces.len() as u64,
        "aggregate run emitted a different trace count than the full run"
    );
    assert_eq!(
        agg_pooled.sketch, agg_serial.sketch,
        "one-thread and pooled aggregate sketches diverged"
    );
    assert_eq!(
        agg_pooled.sketch, full.sketch,
        "aggregate sketch diverged from the full run's own sketch"
    );
    assert_eq!(agg_pooled.passes.len(), full.passes.len());

    // Spot-check the accuracy contract: sketch quantiles within half a
    // bucket width of the exact nearest-rank statistic.
    let sketch = agg_pooled.sketch.as_ref().expect("aggregate run sketches");
    let g = &sketch.groups[0];
    let mut exact: Vec<f64> = full
        .traces
        .traces
        .iter()
        .filter(|t| t.constellation == g.constellation)
        .map(|t| t.rssi_dbm)
        .collect();
    exact.sort_by(|a, b| a.total_cmp(b));
    let band = g.rssi_dbm.quantiles.width() / 2.0 + 1e-9;
    for p in [10.0, 50.0, 90.0] {
        let est = g.rssi_dbm.quantiles.quantile(p);
        let truth = nearest_rank_sorted(&exact, p);
        assert!(
            (est - truth).abs() <= band,
            "{}: p{p} sketch {est} vs exact {truth} exceeds band {band}",
            g.constellation
        );
    }
    println!(
        "aggregate sink: 0 retained, {} emitted, sketches identical across thread counts",
        agg_pooled.sink.emitted
    );

    let grids = sweep::grid_stats();
    println!(
        "ephemeris grids: {} lookups, {} built, {} served shared ({} entries)",
        grids.lookups,
        grids.computes,
        grids.hits(),
        grids.entries
    );
    assert_eq!(
        grids.computes, grids.entries as u64,
        "an ephemeris grid was sampled more than once"
    );
    // HK and GZ start the same campaign day, so their satellites share
    // (satellite, window) grids across sites.
    assert!(
        grids.hits() > 0,
        "no grid was ever shared across observers — keying is broken"
    );

    // Scenario-file determinism: the committed `tianqi_hk.scenario.json`
    // must load back to exactly the compiled-in scenario — equal spec,
    // equal fingerprint — and the campaign it configures must be
    // bit-identical to the compiled-in one on the pool and on one
    // thread. This is the contract that lets sweep checkpoints
    // key on scenario fingerprints.
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../scenarios/tianqi_hk.scenario.json"
    );
    let loaded = ScenarioSpec::from_file(path).expect("committed scenario file loads");
    let builtin = ScenarioSpec::tianqi_hk();
    assert_eq!(loaded, builtin, "committed scenario drifted from builtin");
    assert_eq!(
        loaded.fingerprint(),
        builtin.fingerprint(),
        "scenario fingerprints diverged"
    );
    let loaded_scenario = loaded.build().expect("committed scenario resolves");
    let builtin_scenario = builtin.build().expect("builtin scenario resolves");
    assert_eq!(
        loaded_scenario.fingerprint, builtin_scenario.fingerprint,
        "resolved scenario fingerprints diverged"
    );
    sweep::clear();
    let from_file_pooled = PassiveCampaign::new(PassiveConfig::from_scenario(&loaded_scenario))
        .run(&opts)
        .unwrap();
    let from_file_serial = PassiveCampaign::new(PassiveConfig::from_scenario(&loaded_scenario))
        .run(&serial_opts)
        .unwrap();
    let from_builtin = PassiveCampaign::new(PassiveConfig::from_scenario(&builtin_scenario))
        .run(&opts)
        .unwrap();
    assert_identical("scenario file vs builtin", &from_file_pooled, &from_builtin);
    assert_identical(
        "scenario file: pool vs one thread",
        &from_file_pooled,
        &from_file_serial,
    );
    println!(
        "scenario file: tianqi_hk fingerprint {:#018x} matches builtin",
        loaded.fingerprint()
    );

    println!("determinism smoke: OK");
}
