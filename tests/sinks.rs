//! The trace-sink contract, end to end: spill archives round-trip the
//! full-trace `TraceSet`, the aggregating sink is bounded and
//! driver-independent, and sketch quantiles stay inside the documented
//! error band of the exact order statistics.

use satiot::core::passive::{PassiveCampaign, PassiveConfig};
use satiot::core::{RunOptions, SinkMode};
use satiot::measure::csv::{read_traces, read_traces_jsonl, write_traces, write_traces_jsonl};
use satiot::measure::stats::nearest_rank_sorted;
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

#[test]
fn aggregate_sink_is_bounded_and_driver_independent() {
    let campaign = PassiveCampaign::new(small_config());
    let opts = RunOptions::default().with_sink(SinkMode::Aggregate);
    let full = campaign.run(&RunOptions::default()).unwrap();
    let serial = campaign.run(&opts.with_threads(Some(1))).unwrap();
    let pooled = campaign.run(&opts).unwrap();

    // Bounded: nothing retained, every decode accounted for.
    assert!(serial.traces.traces.is_empty());
    assert_eq!(serial.sink.retained, 0);
    assert_eq!(serial.sink.emitted, full.traces.traces.len() as u64);

    // Thread-count-independent: one-thread and pooled aggregate runs,
    // and the full run's own sketch, are bit-identical.
    let sketch = serial.sketch.as_ref().expect("aggregate run sketches");
    assert_eq!(serial.sketch, pooled.sketch);
    assert_eq!(serial.sketch, full.sketch);
    assert_eq!(serial.sink, pooled.sink);

    // Accuracy: sketch quantiles stay within width/2 of the exact
    // nearest-rank statistics computed from the full run's raw traces.
    let group = &sketch.groups[0];
    let mut exact: Vec<f64> = full
        .traces
        .traces
        .iter()
        .filter(|t| t.constellation == group.constellation)
        .map(|t| t.rssi_dbm)
        .collect();
    exact.sort_by(|a, b| a.total_cmp(b));
    assert_eq!(group.count, exact.len() as u64);
    let band = group.rssi_dbm.quantiles.width() / 2.0 + 1e-9;
    for p in [10.0, 50.0, 90.0] {
        let est = group.rssi_dbm.quantiles.quantile(p);
        let truth = nearest_rank_sorted(&exact, p);
        assert!(
            (est - truth).abs() <= band,
            "p{p}: sketch {est} vs exact {truth} (band {band})"
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
