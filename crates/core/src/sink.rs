//! The trace sink: where the simulate phase's decoded beacons go.
//!
//! The paper's passive dataset is ~122 k traces over seven months; a
//! month-long, mega-constellation campaign produces orders of magnitude
//! more than fits in RAM. Each per-site simulate shard owns one
//! `TraceSink`, and [`SinkMode`] (the typed
//! [`crate::options::RunOptions::sink`] field) picks what it keeps:
//!
//! * [`SinkMode::Full`] (the default) — retain every trace in the
//!   result's `TraceSet`. The `reproduce_all` figures need the raw
//!   traces; archive them after the run with
//!   [`satiot_measure::csv::write_traces`].
//! * [`SinkMode::Aggregate`] — retain **no** traces; fold each one into
//!   the mergeable streaming sketches of
//!   [`satiot_measure::sketch::TraceAggregate`]. Memory is O(sites ×
//!   constellations), not O(traces). The sweep server always runs its
//!   jobs under this mode.
//!
//! Both modes feed the sketches, so sketch-vs-exact comparisons can run
//! from a single campaign. Shards merge in configuration order — sketch
//! merges included — keeping one-thread and pooled runs bit-identical
//! (the invariant the workspace's `sinks` test pins).
//!
//! Accounting is proof-carrying: the `measure.sink.traces_emitted` and
//! `measure.sink.traces_retained` obs counters (and the per-run
//! [`SinkStats`]) let a test *assert* that the aggregating mode
//! retained zero traces rather than trusting it.

use satiot_measure::sketch::TraceAggregate;
use satiot_measure::trace::{BeaconTrace, TraceSet};
use satiot_obs::metrics::Counter;

/// Traces handed to any sink by the simulate phase (metrics).
static TRACES_EMITTED: Counter = Counter::new("measure.sink.traces_emitted");
/// Traces retained in RAM after the sink finished (metrics).
static TRACES_RETAINED: Counter = Counter::new("measure.sink.traces_retained");

/// What the simulate phase keeps of its decoded beacons.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SinkMode {
    /// Keep every trace in RAM (`TraceSet`), plus the sketches.
    #[default]
    Full,
    /// Keep only the streaming sketches; retain no traces.
    Aggregate,
}

/// Per-run sink accounting, merged per site in configuration order and
/// mirrored into the `measure.sink.*` obs counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SinkStats {
    /// Traces the simulate phase handed to the sink.
    pub emitted: u64,
    /// Traces still held in RAM when the sink finished.
    pub retained: u64,
}

impl SinkStats {
    /// Fold another shard's accounting into this one.
    pub fn merge(&mut self, other: &SinkStats) {
        self.emitted += other.emitted;
        self.retained += other.retained;
    }
}

/// What a finished sink hands back to the campaign driver.
#[derive(Debug)]
pub(crate) struct SinkOutput {
    /// Retained traces (non-empty only for [`SinkMode::Full`]).
    pub(crate) traces: TraceSet,
    /// Streaming sketches over every emitted trace.
    pub(crate) sketch: TraceAggregate,
    /// This shard's accounting.
    pub(crate) stats: SinkStats,
}

/// One site shard's sink. [`finish`](Self::finish) converts it into
/// plain mergeable data and publishes its accounting to the
/// `measure.sink.*` counters.
#[derive(Debug, Default)]
pub(crate) struct TraceSink {
    mode: SinkMode,
    traces: TraceSet,
    sketch: TraceAggregate,
}

impl TraceSink {
    /// An empty sink that keeps what `mode` says.
    pub(crate) fn new(mode: SinkMode) -> TraceSink {
        TraceSink {
            mode,
            ..TraceSink::default()
        }
    }

    /// Accept one decoded beacon.
    pub(crate) fn record(&mut self, trace: BeaconTrace) {
        self.sketch.observe(&trace);
        if self.mode == SinkMode::Full {
            self.traces.push(trace);
        }
    }

    /// Consume the sink, returning retained data and accounting.
    pub(crate) fn finish(self) -> SinkOutput {
        let stats = SinkStats {
            emitted: self.sketch.total,
            retained: self.traces.len() as u64,
        };
        TRACES_EMITTED.add(stats.emitted);
        TRACES_RETAINED.add(stats.retained);
        SinkOutput {
            traces: self.traces,
            sketch: self.sketch,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(i: u32, constellation: &str) -> BeaconTrace {
        BeaconTrace {
            time_s: i as f64 * 10.0,
            site: "HK".to_string(),
            station: i % 3,
            constellation: constellation.to_string(),
            sat_id: i,
            rssi_dbm: -120.0 - (i % 7) as f64,
            snr_db: -6.0,
            elevation_deg: 20.0 + i as f64,
            distance_km: 1_000.0 + i as f64,
            doppler_hz: 2_000.0,
            weather: "sunny",
        }
    }

    #[test]
    fn full_sink_retains_everything_and_sketches() {
        let mut sink = TraceSink::new(SinkMode::Full);
        for i in 0..10 {
            sink.record(trace(i, "Tianqi"));
        }
        let out = sink.finish();
        assert_eq!(out.traces.len(), 10);
        assert_eq!(out.stats.emitted, 10);
        assert_eq!(out.stats.retained, 10);
        assert_eq!(out.sketch.total, 10);
    }

    #[test]
    fn aggregating_sink_retains_nothing() {
        let mut sink = TraceSink::new(SinkMode::Aggregate);
        for i in 0..25 {
            sink.record(trace(i, if i % 2 == 0 { "Tianqi" } else { "FOSSA" }));
        }
        let out = sink.finish();
        assert!(out.traces.is_empty());
        assert_eq!(out.stats.emitted, 25);
        assert_eq!(out.stats.retained, 0);
        assert_eq!(out.sketch.total, 25);
        assert!(out.sketch.constellation("Tianqi").is_some());
        assert!(out.sketch.constellation("FOSSA").is_some());
    }

    #[test]
    fn sink_stats_merge_adds() {
        let mut a = SinkStats {
            emitted: 5,
            retained: 5,
        };
        a.merge(&SinkStats {
            emitted: 7,
            retained: 0,
        });
        assert_eq!(a.emitted, 12);
        assert_eq!(a.retained, 5);
    }
}
