//! Pluggable trace sinks: where the simulate phase's decoded beacons go.
//!
//! The paper's passive dataset is ~122 k traces over seven months; a
//! month-long, mega-constellation campaign produces orders of magnitude
//! more than fits in RAM. Instead of materialising every
//! [`BeaconTrace`] in a `Vec`, each per-site simulate shard now owns a
//! [`TraceSink`] shard selected by [`SinkMode`] (the
//! [`crate::options::RunOptions::sink`] knob, `SATIOT_SINK`):
//!
//! * [`SinkMode::Full`] (the default) — retain every trace in the
//!   result's `TraceSet`, exactly as before this module existed. The
//!   `reproduce_all` figure binaries need the raw traces, and every
//!   historical output stays bit-identical.
//! * [`SinkMode::Aggregate`] — retain **no** traces; fold each one into
//!   the mergeable streaming sketches of
//!   [`satiot_measure::sketch::TraceAggregate`]. Memory is O(sites ×
//!   constellations), not O(traces).
//! * [`SinkMode::Null`] — drop every trace (pure-driver benchmarks).
//! * [`SinkMode::SpillCsv`] / [`SinkMode::SpillJsonl`] — stream each
//!   trace to disk through `satiot_measure::csv` and retain none. Each
//!   site shard writes its own `.part<idx>` file; after the in-order
//!   merge, [`finalize_spill`] concatenates the parts in site order, so
//!   the archive on disk is byte-identical to what
//!   [`satiot_measure::csv::write_traces`] would have produced from the
//!   full-trace run, regardless of thread count.
//!
//! Every sink also feeds the streaming sketches (except [`Null`]), so
//! sketch-vs-exact comparisons can run from a single campaign. Shards
//! merge in configuration order — sketch merges included — keeping
//! one-thread and pooled runs bit-identical (the invariant the
//! workspace's `sinks` test pins).
//!
//! Accounting is proof-carrying: the `measure.sink.traces_emitted`,
//! `measure.sink.traces_retained`, and `measure.sink.traces_spilled`
//! obs counters (and the per-run [`SinkStats`]) let CI *assert* that a
//! bounded-memory mode retained zero traces rather than trusting it.
//! Spill IO failures degrade the shard to null behaviour and are
//! counted as [`Fault::SinkIo`](crate::error::Fault::SinkIo) — a
//! campaign never panics because a disk filled up.
//!
//! [`Null`]: SinkMode::Null

use satiot_measure::csv;
use satiot_measure::sketch::TraceAggregate;
use satiot_measure::trace::{BeaconTrace, TraceSet};
use satiot_obs::metrics::Counter;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::PathBuf;

/// Traces handed to any sink by the simulate phase (metrics).
static TRACES_EMITTED: Counter = Counter::new("measure.sink.traces_emitted");
/// Traces retained in RAM after the sink finished (metrics).
static TRACES_RETAINED: Counter = Counter::new("measure.sink.traces_retained");
/// Traces streamed to a spill file (metrics).
static TRACES_SPILLED: Counter = Counter::new("measure.sink.traces_spilled");

/// Which sink the simulate phase routes decoded beacons into.
///
/// Spill paths are `&'static str` so the mode (and
/// [`crate::options::RunOptions`] around it) stays `Copy`; the env
/// parser leaks the one configured path per process, and programmatic
/// callers pass string literals or leaked strings the same way.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SinkMode {
    /// Keep every trace in RAM (`TraceSet`), plus the sketches.
    #[default]
    Full,
    /// Keep only the streaming sketches; retain no traces.
    Aggregate,
    /// Drop everything (pure-driver benchmarks).
    Null,
    /// Stream traces to a CSV archive at `path`; retain none.
    SpillCsv {
        /// Final archive path (shards write `<path>.part<idx>`).
        path: &'static str,
    },
    /// Stream traces to a JSONL archive at `path`; retain none.
    SpillJsonl {
        /// Final archive path (shards write `<path>.part<idx>`).
        path: &'static str,
    },
}

impl SinkMode {
    /// Build this mode's per-site sink shard. `site_idx` is the site's
    /// configuration index — it names spill part files, so the final
    /// concatenation happens in site order.
    pub fn shard(self, site_idx: usize) -> Box<dyn TraceSink + Send> {
        match self {
            SinkMode::Full => Box::new(FullSink::default()),
            SinkMode::Aggregate => Box::new(AggregatingSink::default()),
            SinkMode::Null => Box::new(NullSink::default()),
            SinkMode::SpillCsv { path } => {
                Box::new(SpillSink::open(path, site_idx, SpillFormat::Csv))
            }
            SinkMode::SpillJsonl { path } => {
                Box::new(SpillSink::open(path, site_idx, SpillFormat::Jsonl))
            }
        }
    }
}

/// Per-run sink accounting, merged per site in configuration order and
/// mirrored into the `measure.sink.*` obs counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SinkStats {
    /// Traces the simulate phase handed to the sink.
    pub emitted: u64,
    /// Traces still held in RAM when the sink finished.
    pub retained: u64,
    /// Traces streamed to a spill file.
    pub spilled: u64,
}

impl SinkStats {
    /// Fold another shard's accounting into this one.
    pub fn merge(&mut self, other: &SinkStats) {
        self.emitted += other.emitted;
        self.retained += other.retained;
        self.spilled += other.spilled;
    }
}

/// One shard's spill output, pending final concatenation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpillPart {
    /// The final archive path every shard of this run targets.
    pub path: &'static str,
    /// This shard's part file.
    pub part: PathBuf,
    /// Archive format.
    pub format: SpillFormat,
}

/// On-disk format of a spill archive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpillFormat {
    /// `satiot_measure::csv` rows under the standard header.
    Csv,
    /// One flat JSON object per line.
    Jsonl,
}

/// What a finished sink hands back to the campaign driver. Plain data —
/// no file handles — so campaign results stay `Clone`.
#[derive(Debug, Clone, Default)]
pub struct SinkOutput {
    /// Retained traces (non-empty only for [`SinkMode::Full`]).
    pub traces: TraceSet,
    /// Streaming sketches (absent only for [`SinkMode::Null`]).
    pub sketch: Option<TraceAggregate>,
    /// This shard's accounting.
    pub stats: SinkStats,
    /// Spill part awaiting [`finalize_spill`], if this was a spill sink.
    pub spill: Option<SpillPart>,
    /// Spill IO failures survived (the shard degraded to null behaviour).
    pub io_errors: u64,
}

/// Where the simulate phase's decoded beacons flow.
///
/// One shard exists per site; [`TraceSink::finish`] converts the shard
/// into plain mergeable data and publishes its accounting to the
/// `measure.sink.*` counters.
pub trait TraceSink {
    /// Accept one decoded beacon.
    fn record(&mut self, trace: BeaconTrace);

    /// Consume the sink, returning retained data and accounting.
    fn finish(self: Box<Self>) -> SinkOutput;
}

/// Publish a finished shard's stats to the process-wide counters.
fn publish(stats: &SinkStats) {
    TRACES_EMITTED.add(stats.emitted);
    TRACES_RETAINED.add(stats.retained);
    TRACES_SPILLED.add(stats.spilled);
}

/// The opt-in full-trace sink: today's behaviour, bit-for-bit.
#[derive(Debug, Default)]
struct FullSink {
    traces: TraceSet,
    sketch: TraceAggregate,
}

impl TraceSink for FullSink {
    fn record(&mut self, trace: BeaconTrace) {
        self.sketch.observe(&trace);
        self.traces.push(trace);
    }

    fn finish(self: Box<Self>) -> SinkOutput {
        let stats = SinkStats {
            emitted: self.traces.len() as u64,
            retained: self.traces.len() as u64,
            spilled: 0,
        };
        publish(&stats);
        SinkOutput {
            traces: self.traces,
            sketch: Some(self.sketch),
            stats,
            spill: None,
            io_errors: 0,
        }
    }
}

/// The bounded-memory sink: sketches only, O(constellations) per shard.
#[derive(Debug, Default)]
struct AggregatingSink {
    sketch: TraceAggregate,
}

impl TraceSink for AggregatingSink {
    fn record(&mut self, trace: BeaconTrace) {
        self.sketch.observe(&trace);
    }

    fn finish(self: Box<Self>) -> SinkOutput {
        let stats = SinkStats {
            emitted: self.sketch.total,
            retained: 0,
            spilled: 0,
        };
        publish(&stats);
        SinkOutput {
            traces: TraceSet::new(),
            sketch: Some(self.sketch),
            stats,
            spill: None,
            io_errors: 0,
        }
    }
}

/// The do-nothing sink (driver-overhead benchmarks).
#[derive(Debug, Default)]
struct NullSink {
    emitted: u64,
}

impl TraceSink for NullSink {
    fn record(&mut self, _trace: BeaconTrace) {
        self.emitted += 1;
    }

    fn finish(self: Box<Self>) -> SinkOutput {
        let stats = SinkStats {
            emitted: self.emitted,
            retained: 0,
            spilled: 0,
        };
        publish(&stats);
        SinkOutput {
            traces: TraceSet::new(),
            sketch: None,
            stats,
            spill: None,
            io_errors: 0,
        }
    }
}

/// The disk-spill sink: streams rows to `<path>.part<idx>`, keeps the
/// sketches, and retains nothing in RAM. An IO failure (open or write)
/// degrades the shard to null behaviour — further rows are counted but
/// not written — and surfaces through `SinkOutput::io_errors`.
struct SpillSink {
    path: &'static str,
    part: PathBuf,
    format: SpillFormat,
    writer: Option<BufWriter<File>>,
    sketch: TraceAggregate,
    emitted: u64,
    spilled: u64,
    io_errors: u64,
}

impl SpillSink {
    fn open(path: &'static str, site_idx: usize, format: SpillFormat) -> SpillSink {
        let part = PathBuf::from(format!("{path}.part{site_idx}"));
        let (writer, io_errors) = match File::create(&part) {
            Ok(f) => (Some(BufWriter::new(f)), 0),
            Err(_) => (None, 1),
        };
        SpillSink {
            path,
            part,
            format,
            writer,
            sketch: TraceAggregate::default(),
            emitted: 0,
            spilled: 0,
            io_errors,
        }
    }
}

impl TraceSink for SpillSink {
    fn record(&mut self, trace: BeaconTrace) {
        self.emitted += 1;
        self.sketch.observe(&trace);
        if let Some(w) = self.writer.as_mut() {
            let res = match self.format {
                SpillFormat::Csv => csv::write_trace_row(w, &trace),
                SpillFormat::Jsonl => csv::write_trace_jsonl(w, &trace),
            };
            match res {
                Ok(()) => self.spilled += 1,
                Err(_) => {
                    self.io_errors += 1;
                    self.writer = None;
                }
            }
        }
    }

    fn finish(mut self: Box<Self>) -> SinkOutput {
        if let Some(mut w) = self.writer.take() {
            if w.flush().is_err() {
                self.io_errors += 1;
                self.writer = None;
            }
        }
        let stats = SinkStats {
            emitted: self.emitted,
            retained: 0,
            spilled: self.spilled,
        };
        publish(&stats);
        SinkOutput {
            traces: TraceSet::new(),
            sketch: Some(self.sketch),
            stats,
            spill: Some(SpillPart {
                path: self.path,
                part: self.part,
                format: self.format,
            }),
            io_errors: self.io_errors,
        }
    }
}

/// Concatenate spill parts (already in site order — the campaign merge
/// collects them in configuration order) into the final archive: the
/// CSV header once, then each part's bytes, deleting parts as they are
/// consumed. Returns the number of IO errors survived; on error the
/// partial archive is left behind rather than panicking.
pub fn finalize_spill(parts: &[SpillPart]) -> u64 {
    let Some(first) = parts.first() else {
        return 0;
    };
    let mut io_errors = 0u64;
    let mut out = match File::create(first.path) {
        Ok(f) => BufWriter::new(f),
        Err(_) => return parts.len() as u64,
    };
    if first.format == SpillFormat::Csv && writeln!(out, "{}", csv::HEADER).is_err() {
        io_errors += 1;
    }
    for part in parts {
        match std::fs::read(&part.part) {
            Ok(bytes) => {
                if out.write_all(&bytes).is_err() {
                    io_errors += 1;
                }
            }
            Err(_) => io_errors += 1,
        }
        if std::fs::remove_file(&part.part).is_err() {
            io_errors += 1;
        }
    }
    if out.flush().is_err() {
        io_errors += 1;
    }
    io_errors
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
        let mut sink = SinkMode::Full.shard(0);
        for i in 0..10 {
            sink.record(trace(i, "Tianqi"));
        }
        let out = sink.finish();
        assert_eq!(out.traces.len(), 10);
        assert_eq!(out.stats.emitted, 10);
        assert_eq!(out.stats.retained, 10);
        assert_eq!(out.stats.spilled, 0);
        let sketch = out.sketch.expect("full sink sketches too");
        assert_eq!(sketch.total, 10);
    }

    #[test]
    fn aggregating_sink_retains_nothing() {
        let mut sink = SinkMode::Aggregate.shard(0);
        for i in 0..25 {
            sink.record(trace(i, if i % 2 == 0 { "Tianqi" } else { "FOSSA" }));
        }
        let out = sink.finish();
        assert!(out.traces.is_empty());
        assert_eq!(out.stats.emitted, 25);
        assert_eq!(out.stats.retained, 0);
        let sketch = out.sketch.expect("aggregate keeps sketches");
        assert_eq!(sketch.total, 25);
        assert!(sketch.constellation("Tianqi").is_some());
        assert!(sketch.constellation("FOSSA").is_some());
    }

    #[test]
    fn null_sink_only_counts() {
        let mut sink = SinkMode::Null.shard(0);
        for i in 0..5 {
            sink.record(trace(i, "Tianqi"));
        }
        let out = sink.finish();
        assert!(out.traces.is_empty());
        assert!(out.sketch.is_none());
        assert_eq!(out.stats.emitted, 5);
        assert_eq!(out.stats.retained, 0);
    }

    #[test]
    fn spill_sinks_round_trip_through_finalize() {
        for format in [SpillFormat::Csv, SpillFormat::Jsonl] {
            let path: &'static str = Box::leak(
                format!(
                    "{}/satiot_sink_test_{:?}_{}.archive",
                    std::env::temp_dir().display(),
                    format,
                    std::process::id()
                )
                .into_boxed_str(),
            );
            let mode = match format {
                SpillFormat::Csv => SinkMode::SpillCsv { path },
                SpillFormat::Jsonl => SinkMode::SpillJsonl { path },
            };
            // Two shards, finished out of order; parts concatenate in
            // site order regardless.
            let mut parts = Vec::new();
            let mut stats = SinkStats::default();
            for shard_idx in [1usize, 0] {
                let mut sink = mode.shard(shard_idx);
                for i in 0..4u32 {
                    sink.record(trace(shard_idx as u32 * 100 + i, "Tianqi"));
                }
                let out = sink.finish();
                assert!(out.traces.is_empty());
                assert_eq!(out.io_errors, 0);
                stats.merge(&out.stats);
                parts.push(out.spill.expect("spill part"));
            }
            parts.sort_by_key(|p| p.part.clone());
            assert_eq!(finalize_spill(&parts), 0);
            assert_eq!(stats.emitted, 8);
            assert_eq!(stats.spilled, 8);
            assert_eq!(stats.retained, 0);

            let file = std::fs::File::open(path).expect("final archive exists");
            let reader = std::io::BufReader::new(file);
            let set = match format {
                SpillFormat::Csv => csv::read_traces(reader).expect("valid csv"),
                SpillFormat::Jsonl => csv::read_traces_jsonl(reader).expect("valid jsonl"),
            };
            assert_eq!(set.len(), 8);
            // Site order: shard 0's traces first.
            assert_eq!(set.traces[0].sat_id, 0);
            assert_eq!(set.traces[4].sat_id, 100);
            // Parts are cleaned up.
            assert!(!parts[0].part.exists());
            assert!(!parts[1].part.exists());
            let _ = std::fs::remove_file(path);
        }
    }

    #[test]
    fn spill_to_unwritable_path_degrades_not_panics() {
        let mut sink = SinkMode::SpillCsv {
            path: "/nonexistent-dir/definitely/not/here.csv",
        }
        .shard(0);
        for i in 0..3 {
            sink.record(trace(i, "Tianqi"));
        }
        let out = sink.finish();
        assert!(out.io_errors >= 1);
        assert_eq!(out.stats.emitted, 3);
        assert_eq!(out.stats.spilled, 0);
        // The sketches still aggregated despite the dead disk.
        assert_eq!(out.sketch.expect("sketch survives").total, 3);
    }

    #[test]
    fn sink_stats_merge_adds() {
        let mut a = SinkStats {
            emitted: 5,
            retained: 5,
            spilled: 0,
        };
        a.merge(&SinkStats {
            emitted: 7,
            retained: 0,
            spilled: 7,
        });
        assert_eq!(a.emitted, 12);
        assert_eq!(a.retained, 5);
        assert_eq!(a.spilled, 7);
    }
}
