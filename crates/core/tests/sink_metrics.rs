//! The trace sink's `measure.sink.*` metric counters agree with the
//! per-run [`SinkStats`]: a bounded run retains nothing by either
//! account, and every emitted trace is counted. (`tests/sinks.rs` pins
//! the `SinkStats` side against a full-trace run of the same campaign.)
//! The `core.passive.beacons_emitted` counter agrees with the pass
//! records: it counts every beacon transmitted inside a predicted
//! window, whether or not a station covered the pass.
//!
//! The test resets the process-wide metrics registry, which
//! any campaign running in the same process would also move, so it is
//! the only test in this binary (one process per integration-test
//! file).

use satiot_core::prelude::*;
use satiot_obs::metrics::{self, Counter};

// Shared-slot views of the sink's accounting counters (name-keyed).
static EMITTED: Counter = Counter::new("measure.sink.traces_emitted");
static RETAINED: Counter = Counter::new("measure.sink.traces_retained");
static BEACONS_EMITTED: Counter = Counter::new("core.passive.beacons_emitted");

#[test]
fn sink_metric_counters_agree_with_sink_stats() {
    let mut cfg = PassiveConfig {
        max_days: 1.0,
        ..Default::default()
    };
    cfg.sites.retain(|s| matches!(s.code, "HK" | "GZ" | "SH"));
    let campaign = PassiveCampaign::new(cfg);
    metrics::reset();
    let aggregate = RunOptions::default().with_sink(SinkMode::Aggregate);
    let pooled = campaign.run(&aggregate).expect("pooled run");
    let serial = campaign
        .run(&aggregate.with_threads(Some(1)))
        .expect("one-thread run");
    assert!(pooled.sink.emitted > 0, "the campaign decoded nothing");
    assert_eq!(RETAINED.value(), 0, "the metric says traces were retained");
    assert_eq!(
        EMITTED.value(),
        pooled.sink.emitted + serial.sink.emitted,
        "the emitted metric diverged from SinkStats"
    );
    let transmitted: u64 = [&pooled, &serial]
        .iter()
        .flat_map(|run| &run.passes)
        .map(|p| p.window.transmitted as u64)
        .sum();
    assert_eq!(
        BEACONS_EMITTED.value(),
        transmitted,
        "the emitted-beacon metric skipped pass records"
    );
}
