//! The trace-sink contract, end to end: a full run's traces archive
//! and reload losslessly, the aggregating sink is bounded and
//! driver-independent, and sketch quantiles stay inside the documented
//! error band of the exact order statistics.

use satiot::core::passive::{PassiveCampaign, PassiveConfig};
use satiot::core::{RunOptions, SinkMode};
use satiot::measure::csv::{read_traces, write_traces};
use satiot::measure::sketch::{ConstellationSketch, MetricSketch, QuantileSketch};
use satiot::measure::stats::nearest_rank_sorted;
use satiot::measure::trace::BeaconTrace;
use satiot::scenarios::constellations::pico;

/// A small deterministic campaign with two sites, so per-site trace
/// merges and sketch shard merges are both exercised.
fn small_config() -> PassiveConfig {
    let mut cfg = PassiveConfig {
        max_days: 1.0,
        constellations: vec![pico()],
        ..Default::default()
    };
    cfg.sites.retain(|s| matches!(s.code, "HK" | "GZ"));
    cfg
}

#[test]
fn spill_archives_equal_the_full_trace_set() {
    let full = PassiveCampaign::new(small_config())
        .run(&RunOptions::default())
        .unwrap();
    let traces = &full.traces.traces;
    assert!(!traces.is_empty(), "baseline campaign must decode traces");
    assert_eq!(full.sink.retained, traces.len() as u64);

    // Archive the full run after the fact, then reload it: every trace
    // comes back with its labels, ids and weather.
    let mut archive = Vec::new();
    write_traces(&full.traces, &mut archive).unwrap();
    let back = read_traces(&archive[..]).expect("the archive parses");
    assert_eq!(back.traces.len(), traces.len());
    for (a, b) in traces.iter().zip(&back.traces) {
        assert_eq!(
            (&a.site, a.station, &a.constellation, a.sat_id, a.weather),
            (&b.site, b.station, &b.constellation, b.sat_id, b.weather)
        );
    }
    // The codec is a fixed point: archiving the reloaded set reproduces
    // the archive byte for byte.
    let mut again = Vec::new();
    write_traces(&back, &mut again).unwrap();
    assert_eq!(again, archive, "re-archiving the reloaded set drifted");
}

/// The memory-ceiling campaign: three sites, every constellation, one
/// day.
fn three_site_config() -> PassiveConfig {
    let mut cfg = PassiveConfig {
        max_days: 1.0,
        ..Default::default()
    };
    cfg.sites.retain(|s| matches!(s.code, "HK" | "GZ" | "SH"));
    cfg
}

/// Rough in-RAM footprint of a full trace set: struct size plus the
/// heap behind the two owned labels.
fn trace_bytes(traces: &[BeaconTrace]) -> usize {
    traces
        .iter()
        .map(|t| std::mem::size_of::<BeaconTrace>() + t.site.len() + t.constellation.len())
        .sum()
}

/// Rough in-RAM footprint of one constellation sketch: its quantile
/// buckets (i64 key + u64 count per occupied bucket) plus fixed
/// per-metric state.
fn sketch_bytes(g: &ConstellationSketch) -> usize {
    let bucket = |q: &QuantileSketch| q.buckets() * 16 + 64;
    bucket(&g.rssi_dbm.quantiles)
        + bucket(&g.snr_db.quantiles)
        + bucket(&g.distance_km.quantiles)
        + bucket(&g.elevation_deg.quantiles)
        + g.sites.iter().map(|(s, _)| s.len() + 24).sum::<usize>()
        + std::mem::size_of::<ConstellationSketch>()
}

/// One metric's sketch quantiles sit within width/2 of the exact
/// nearest-rank statistics of the raw traces.
fn assert_in_band(label: &str, sketch: &QuantileSketch, mut exact: Vec<f64>) {
    exact.sort_by(|a, b| a.total_cmp(b));
    assert_eq!(sketch.count(), exact.len() as u64, "{label}: sketch count");
    let band = sketch.width() / 2.0 + 1e-9;
    for p in [10.0, 25.0, 50.0, 75.0, 90.0] {
        let est = sketch.quantile(p);
        let truth = nearest_rank_sorted(&exact, p);
        assert!(
            (est - truth).abs() <= band,
            "{label} p{p}: sketch {est} vs exact {truth} (band {band})"
        );
    }
}

#[test]
fn aggregate_sink_is_bounded_and_driver_independent() {
    for cfg in [small_config(), three_site_config()] {
        let campaign = PassiveCampaign::new(cfg);
        let opts = RunOptions::default().with_sink(SinkMode::Aggregate);
        let full = campaign.run(&RunOptions::default()).unwrap();
        let serial = campaign.run(&opts.with_threads(Some(1))).unwrap();
        let pooled = campaign.run(&opts).unwrap();
        let n = full.traces.traces.len() as u64;
        assert!(n > 0, "baseline campaign must decode traces");

        // Bounded: nothing retained, every decode accounted for, and
        // the simulation itself undisturbed.
        assert!(serial.traces.traces.is_empty());
        assert_eq!(serial.sink.retained, 0);
        assert_eq!(serial.sink.emitted, n);
        assert_eq!(serial.passes.len(), full.passes.len());

        // Thread-count-independent: one-thread and pooled aggregate
        // runs, and the full run's own sketch, are bit-identical.
        let sketch = serial.sketch.as_ref().expect("aggregate run sketches");
        assert_eq!(serial.sketch, pooled.sketch);
        assert_eq!(serial.sketch, full.sketch);
        assert_eq!(serial.sink, pooled.sink);
        assert_eq!(sketch.total, n);

        // Accuracy, per constellation and metric, against the full
        // run's raw traces.
        for g in &sketch.groups {
            let band = |metric: &str, sketch: &MetricSketch, value: fn(&BeaconTrace) -> f64| {
                let exact = full.traces.traces.iter();
                let exact = exact.filter(|t| t.constellation == g.constellation);
                let label = format!("{}/{metric}", g.constellation);
                assert_in_band(&label, &sketch.quantiles, exact.map(value).collect());
            };
            band("rssi_dbm", &g.rssi_dbm, |t| t.rssi_dbm);
            band("snr_db", &g.snr_db, |t| t.snr_db);
            band("distance_km", &g.distance_km, |t| t.distance_km);
            band("elevation_deg", &g.elevation_deg, |t| t.elevation_deg);
        }

        // The ceiling: the sketches undercut the raw traces.
        let traces = trace_bytes(&full.traces.traces);
        let sketches: usize = sketch.groups.iter().map(sketch_bytes).sum();
        assert!(
            sketches < traces,
            "sketch footprint {sketches} B is not below the trace set's {traces} B"
        );
    }
}

#[test]
fn aggregate_sink_counts_and_keeps_no_traces() {
    let cfg = small_config();
    let full = PassiveCampaign::new(cfg.clone())
        .run(&RunOptions::default())
        .unwrap();
    let aggregate = PassiveCampaign::new(cfg)
        .run(&RunOptions::default().with_sink(SinkMode::Aggregate))
        .unwrap();
    assert!(aggregate.traces.traces.is_empty());
    assert_eq!(aggregate.sink.emitted, full.traces.traces.len() as u64);
    assert_eq!(aggregate.sink.retained, 0);
    assert_eq!(aggregate.sketch, full.sketch);
    // The sink must not disturb the simulation itself.
    let outcomes = |r: &satiot::core::PassiveResults| {
        r.passes
            .iter()
            .map(|p| (p.sat_id, p.window.received, p.window.transmitted))
            .collect::<Vec<_>>()
    };
    assert_eq!(outcomes(&aggregate), outcomes(&full));
    assert_eq!(aggregate.faults, full.faults);
}
