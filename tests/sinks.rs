//! The trace-sink contract, end to end: spill archives round-trip the
//! full-trace `TraceSet`, the aggregating sink is bounded and
//! driver-independent, and sketch quantiles stay inside the documented
//! error band of the exact order statistics.

use satiot::core::passive::{PassiveCampaign, PassiveConfig};
use satiot::core::{RunOptions, SinkMode};
use satiot::measure::csv::{read_traces, read_traces_jsonl, write_traces, write_traces_jsonl};
use satiot::measure::sketch::{ConstellationSketch, MetricSketch, QuantileSketch};
use satiot::measure::stats::nearest_rank_sorted;
use satiot::measure::trace::BeaconTrace;
use satiot::scenarios::constellations::pico;

/// A small deterministic campaign with two sites, so per-site spill
/// parts and sketch shard merges are both exercised.
fn small_config() -> PassiveConfig {
    let mut cfg = PassiveConfig {
        max_days: 1.0,
        constellations: vec![pico()],
        ..Default::default()
    };
    cfg.sites.retain(|s| matches!(s.code, "HK" | "GZ"));
    cfg
}

fn leak_temp_path(name: &str) -> &'static str {
    let path = std::env::temp_dir().join(format!("satiot-sinks-{}-{name}", std::process::id()));
    Box::leak(path.to_string_lossy().into_owned().into_boxed_str())
}

#[test]
fn spill_archives_equal_the_full_trace_set() {
    let cfg = small_config();
    let full = PassiveCampaign::new(cfg.clone())
        .run(&RunOptions::default())
        .unwrap();
    assert!(
        !full.traces.traces.is_empty(),
        "baseline campaign must decode traces"
    );

    let csv_path = leak_temp_path("spill.csv");
    let spilled = PassiveCampaign::new(cfg.clone())
        .run(&RunOptions::default().with_sink(SinkMode::SpillCsv { path: csv_path }))
        .unwrap();
    assert!(spilled.traces.traces.is_empty(), "spill retains no traces");
    assert_eq!(spilled.sink.retained, 0);
    assert_eq!(spilled.sink.spilled, full.traces.traces.len() as u64);
    assert_eq!(spilled.faults.sink_io_errors, 0);
    // The streamed archive is byte-identical to archiving the full
    // run's TraceSet after the fact, and parses back losslessly.
    let mut expected = Vec::new();
    write_traces(&full.traces, &mut expected).unwrap();
    let archive = std::fs::read(csv_path).expect("spill archive exists");
    assert_eq!(archive, expected, "CSV spill matches write_traces");
    let back = read_traces(&archive[..]).expect("spill archive parses");
    assert_eq!(back.traces.len(), full.traces.traces.len());
    std::fs::remove_file(csv_path).ok();

    let jsonl_path = leak_temp_path("spill.jsonl");
    let spilled = PassiveCampaign::new(cfg)
        .run(&RunOptions::default().with_sink(SinkMode::SpillJsonl { path: jsonl_path }))
        .unwrap();
    assert_eq!(spilled.sink.spilled, full.traces.traces.len() as u64);
    let mut expected = Vec::new();
    write_traces_jsonl(&full.traces, &mut expected).unwrap();
    let archive = std::fs::read(jsonl_path).expect("spill archive exists");
    assert_eq!(archive, expected, "JSONL spill matches write_traces_jsonl");
    let back = read_traces_jsonl(&archive[..]).expect("spill archive parses");
    assert_eq!(back.traces.len(), full.traces.traces.len());
    std::fs::remove_file(jsonl_path).ok();
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
fn null_sink_counts_and_keeps_nothing() {
    let cfg = small_config();
    let full = PassiveCampaign::new(cfg.clone())
        .run(&RunOptions::default())
        .unwrap();
    let null = PassiveCampaign::new(cfg)
        .run(&RunOptions::default().with_sink(SinkMode::Null))
        .unwrap();
    assert!(null.traces.traces.is_empty());
    assert!(null.sketch.is_none());
    assert_eq!(null.sink.emitted, full.traces.traces.len() as u64);
    assert_eq!(null.sink.retained, 0);
    assert_eq!(null.sink.spilled, 0);
    // The sink must not disturb the simulation itself.
    assert_eq!(null.passes.len(), full.passes.len());
    assert_eq!(null.faults, full.faults);
}
