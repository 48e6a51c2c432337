//! Process-global metrics: counters, gauges, fixed-bucket histograms,
//! and span timers.
//!
//! Instrumented call sites declare `static` handles:
//!
//! ```
//! use satiot_obs::metrics::{Counter, Histogram};
//!
//! static EVENTS: Counter = Counter::new("sim.engine.events_processed");
//! static SNR: Histogram =
//!     Histogram::new("channel.snr_db", &[-20.0, -10.0, 0.0, 10.0]);
//!
//! EVENTS.inc();
//! SNR.record(-3.5);
//! assert!(satiot_obs::metrics::report().contains("events_processed"));
//! ```
//!
//! Each handle lazily registers itself in the global registry on first
//! use; recording is relaxed atomics and always on. A record call on a
//! shared atomic costs little alone but contends across pool threads,
//! so the hottest loops (SGP4 calls, grid queries, discrete-event
//! steps) record nothing per call: they publish once per run, or a
//! store counts their work (the tile store's SGP4 samples).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Registry {
    counters: Mutex<BTreeMap<&'static str, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<&'static str, Arc<AtomicI64>>>,
    histograms: Mutex<BTreeMap<&'static str, Arc<HistogramInner>>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

/// Reset every registered metric to zero (tests and repeated campaign
/// runs in one process). Handles stay valid: they point at the same
/// atomics, which are cleared in place.
pub fn reset() {
    let r = registry();
    for c in r
        .counters
        .lock()
        .expect("metrics registry mutex poisoned")
        .values()
    {
        c.store(0, Relaxed);
    }
    for g in r
        .gauges
        .lock()
        .expect("metrics registry mutex poisoned")
        .values()
    {
        g.store(0, Relaxed);
    }
    for h in r
        .histograms
        .lock()
        .expect("metrics registry mutex poisoned")
        .values()
    {
        h.reset();
    }
}

// ---------------------------------------------------------------------------
// Counter
// ---------------------------------------------------------------------------

/// A monotonically increasing event counter.
pub struct Counter {
    name: &'static str,
    slot: OnceLock<Arc<AtomicU64>>,
}

impl Counter {
    /// Declare a counter; it registers itself on first use.
    pub const fn new(name: &'static str) -> Self {
        Counter {
            name,
            slot: OnceLock::new(),
        }
    }

    fn slot(&self) -> &AtomicU64 {
        self.slot.get_or_init(|| {
            Arc::clone(
                registry()
                    .counters
                    .lock()
                    .expect("metrics registry mutex poisoned")
                    .entry(self.name)
                    .or_default(),
            )
        })
    }

    /// Add `n` events.
    #[inline]
    pub fn add(&self, n: u64) {
        self.slot().fetch_add(n, Relaxed);
    }

    /// Add one event.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value (0 until first use).
    pub fn value(&self) -> u64 {
        self.slot().load(Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Gauge
// ---------------------------------------------------------------------------

/// A point-in-time level (queue depth, pending events). Records the
/// latest set value plus the high-water mark.
pub struct Gauge {
    name: &'static str,
    slot: OnceLock<Arc<AtomicI64>>,
    high: OnceLock<Arc<AtomicI64>>,
}

impl Gauge {
    /// Declare a gauge; it registers itself on first use.
    pub const fn new(name: &'static str) -> Self {
        Gauge {
            name,
            slot: OnceLock::new(),
            high: OnceLock::new(),
        }
    }

    fn slot(&self) -> &AtomicI64 {
        self.slot.get_or_init(|| {
            Arc::clone(
                registry()
                    .gauges
                    .lock()
                    .expect("metrics registry mutex poisoned")
                    .entry(self.name)
                    .or_default(),
            )
        })
    }

    fn high(&self) -> &AtomicI64 {
        // The high-water mark is itself a gauge, named alongside its
        // parent so the report sorts them together.
        self.high.get_or_init(|| {
            let name: &'static str =
                Box::leak(format!("{}.high_water", self.name).into_boxed_str());
            Arc::clone(
                registry()
                    .gauges
                    .lock()
                    .expect("metrics registry mutex poisoned")
                    .entry(name)
                    .or_default(),
            )
        })
    }

    /// Record the current level.
    #[inline]
    pub fn set(&self, v: i64) {
        self.slot().store(v, Relaxed);
        self.high().fetch_max(v, Relaxed);
    }

    /// Latest recorded level.
    pub fn value(&self) -> i64 {
        self.slot().load(Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

struct HistogramInner {
    /// Upper bounds of the finite buckets; one overflow bucket follows.
    bounds: &'static [f64],
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Running sum, stored as f64 bits and updated with a CAS loop.
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
    /// Non-finite samples rejected by [`record`](Self::record) — a NaN
    /// would otherwise poison the CAS'd sum and land in a bucket via
    /// `partition_point`. Surfaced per histogram and as a data-quality
    /// total by [`report`].
    dropped: AtomicU64,
}

impl HistogramInner {
    fn with_bounds(bounds: &'static [f64]) -> Self {
        HistogramInner {
            bounds,
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
            dropped: AtomicU64::new(0),
        }
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Relaxed);
        }
        self.count.store(0, Relaxed);
        self.sum_bits.store(0f64.to_bits(), Relaxed);
        self.min_bits.store(f64::INFINITY.to_bits(), Relaxed);
        self.max_bits.store(f64::NEG_INFINITY.to_bits(), Relaxed);
        self.dropped.store(0, Relaxed);
    }

    fn record(&self, v: f64) {
        if !crate::invariants::flag_non_finite("metrics::Histogram::record", v) {
            self.dropped.fetch_add(1, Relaxed);
            return;
        }
        let idx = self.bounds.partition_point(|b| v > *b);
        self.buckets[idx].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        let mut cur = self.sum_bits.load(Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match self
                .sum_bits
                .compare_exchange_weak(cur, next, Relaxed, Relaxed)
            {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
        fold_extreme(&self.min_bits, v, f64::min);
        fold_extreme(&self.max_bits, v, f64::max);
    }
}

fn fold_extreme(cell: &AtomicU64, v: f64, pick: fn(f64, f64) -> f64) {
    let mut cur = cell.load(Relaxed);
    loop {
        let folded = pick(f64::from_bits(cur), v);
        if folded.to_bits() == cur {
            return;
        }
        match cell.compare_exchange_weak(cur, folded.to_bits(), Relaxed, Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// A fixed-bucket distribution. Bucket `i` counts samples `<= bounds[i]`
/// (and above the previous bound); an implicit overflow bucket catches
/// the rest.
pub struct Histogram {
    name: &'static str,
    bounds: &'static [f64],
    slot: OnceLock<Arc<HistogramInner>>,
}

impl Histogram {
    /// Declare a histogram with ascending bucket bounds.
    pub const fn new(name: &'static str, bounds: &'static [f64]) -> Self {
        Histogram {
            name,
            bounds,
            slot: OnceLock::new(),
        }
    }

    fn slot(&self) -> &HistogramInner {
        self.slot.get_or_init(|| {
            Arc::clone(
                registry()
                    .histograms
                    .lock()
                    .expect("metrics registry mutex poisoned")
                    .entry(self.name)
                    .or_insert_with(|| Arc::new(HistogramInner::with_bounds(self.bounds))),
            )
        })
    }

    /// Record one sample.
    #[inline]
    pub fn record(&self, v: f64) {
        self.slot().record(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.slot().count.load(Relaxed)
    }

    /// Mean of recorded samples (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        let n = self.count();
        (n > 0).then(|| f64::from_bits(self.slot().sum_bits.load(Relaxed)) / n as f64)
    }

    /// Non-finite samples rejected instead of recorded.
    pub fn dropped(&self) -> u64 {
        self.slot().dropped.load(Relaxed)
    }
}

// ---------------------------------------------------------------------------
// Timer
// ---------------------------------------------------------------------------

/// A span timer: [`Timer::start`] returns a guard that records the
/// elapsed wall-clock seconds into the backing histogram when dropped.
pub struct Timer {
    hist: Histogram,
}

/// Default second-scale buckets for [`Timer`]s.
pub const TIMER_BOUNDS_S: &[f64] = &[0.0001, 0.001, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0, 120.0];

impl Timer {
    /// Declare a timer recording into `name` with [`TIMER_BOUNDS_S`].
    pub const fn new(name: &'static str) -> Self {
        Timer {
            hist: Histogram::new(name, TIMER_BOUNDS_S),
        }
    }

    /// Start a span; elapsed seconds are recorded when the guard drops.
    #[inline]
    pub fn start(&self) -> SpanGuard<'_> {
        SpanGuard {
            hist: &self.hist,
            start: Instant::now(),
        }
    }

    /// Number of completed spans.
    pub fn count(&self) -> u64 {
        self.hist.count()
    }
}

/// Guard returned by [`Timer::start`].
pub struct SpanGuard<'a> {
    hist: &'a Histogram,
    start: Instant,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        self.hist.record(self.start.elapsed().as_secs_f64());
    }
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

/// Render every registered metric as a sorted, human-readable block.
pub fn report() -> String {
    use std::fmt::Write;

    let r = registry();
    let mut out = String::from("== satiot metrics ==\n");

    let counters = r.counters.lock().expect("metrics registry mutex poisoned");
    if !counters.is_empty() {
        out.push_str("-- counters --\n");
        for (name, c) in counters.iter() {
            writeln!(out, "{:<44} {}", name, c.load(Relaxed))
                .expect("String writes are infallible");
        }
    }
    drop(counters);

    let gauges = r.gauges.lock().expect("metrics registry mutex poisoned");
    if !gauges.is_empty() {
        out.push_str("-- gauges --\n");
        for (name, g) in gauges.iter() {
            writeln!(out, "{:<44} {}", name, g.load(Relaxed))
                .expect("String writes are infallible");
        }
    }
    drop(gauges);

    let histograms = r
        .histograms
        .lock()
        .expect("metrics registry mutex poisoned");
    let mut total_dropped = 0u64;
    let mut dropped_names: Vec<&'static str> = Vec::new();
    if !histograms.is_empty() {
        out.push_str("-- histograms --\n");
        for (name, h) in histograms.iter() {
            let count = h.count.load(Relaxed);
            let dropped = h.dropped.load(Relaxed);
            if dropped > 0 {
                total_dropped += dropped;
                dropped_names.push(name);
            }
            if count == 0 {
                if dropped > 0 {
                    writeln!(out, "{name:<44} (empty) dropped={dropped}")
                        .expect("String writes are infallible");
                } else {
                    writeln!(out, "{name:<44} (empty)").expect("String writes are infallible");
                }
                continue;
            }
            let mean = f64::from_bits(h.sum_bits.load(Relaxed)) / count as f64;
            let min = f64::from_bits(h.min_bits.load(Relaxed));
            let max = f64::from_bits(h.max_bits.load(Relaxed));
            if dropped > 0 {
                writeln!(
                    out,
                    "{name:<44} count={count} mean={mean:.4} min={min:.4} max={max:.4} \
                     dropped={dropped}"
                )
                .expect("String writes are infallible");
            } else {
                writeln!(
                    out,
                    "{name:<44} count={count} mean={mean:.4} min={min:.4} max={max:.4}"
                )
                .expect("String writes are infallible");
            }
            for (i, bucket) in h.buckets.iter().enumerate() {
                let n = bucket.load(Relaxed);
                if n == 0 {
                    continue;
                }
                match h.bounds.get(i) {
                    Some(b) => {
                        writeln!(out, "    <= {b:<12} {n}").expect("String writes are infallible")
                    }
                    // The overflow bucket; with no bounds it holds every
                    // finite sample.
                    None => {
                        let above = i.checked_sub(1).map_or(f64::NEG_INFINITY, |j| h.bounds[j]);
                        writeln!(out, "    >  {above:<12} {n}")
                            .expect("String writes are infallible")
                    }
                }
            }
        }
    }
    drop(histograms);

    // Silent data drops must not stay silent: one summary block lists
    // every histogram that rejected non-finite samples.
    if total_dropped > 0 {
        out.push_str("-- data quality --\n");
        writeln!(
            out,
            "non_finite_samples_dropped                   {total_dropped} ({})",
            dropped_names.join(", ")
        )
        .expect("String writes are infallible");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global, so exercise all behaviour from
    // one test to avoid cross-test interference.
    #[test]
    fn end_to_end() {
        static HITS: Counter = Counter::new("test.hits");
        static DEPTH: Gauge = Gauge::new("test.depth");
        static DIST: Histogram = Histogram::new("test.dist", &[1.0, 2.0, 4.0]);
        static UNBOUNDED: Histogram = Histogram::new("test.unbounded", &[]);
        static SPAN: Timer = Timer::new("test.span_s");

        HITS.inc();
        HITS.add(4);
        assert_eq!(HITS.value(), 5);

        DEPTH.set(3);
        DEPTH.set(9);
        DEPTH.set(2);
        assert_eq!(DEPTH.value(), 2);

        for v in [0.5, 1.5, 3.0, 100.0] {
            DIST.record(v);
        }
        assert_eq!(DIST.count(), 4);
        assert!((DIST.mean().unwrap() - 26.25).abs() < 1e-12);

        // Non-finite samples are rejected, counted, and surfaced —
        // never folded into the sum or a bucket.
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            DIST.record(v);
        }
        assert_eq!(DIST.count(), 4, "non-finite samples must not count");
        assert_eq!(DIST.dropped(), 3);
        assert!((DIST.mean().unwrap() - 26.25).abs() < 1e-12);
        {
            let _g = SPAN.start();
        }
        assert_eq!(SPAN.count(), 1);

        // No bounds: one overflow bucket, rendered without a lower bound.
        UNBOUNDED.record(7.0);
        assert_eq!(UNBOUNDED.count(), 1);

        let text = report();
        assert!(text.contains("test.hits"), "{text}");
        assert!(text.contains("test.depth.high_water"), "{text}");
        assert!(text.contains("count=4"), "{text}");
        assert!(text.contains("dropped=3"), "{text}");
        assert!(text.contains("-- data quality --"), "{text}");
        assert!(text.contains("non_finite_samples_dropped"), "{text}");
        assert!(text.contains("    >  -inf         1\n"), "{text}");

        // High-water mark survived the later, lower set.
        assert!(text.contains("9"), "{text}");

        reset();
        assert_eq!(HITS.value(), 0);
        assert_eq!(DIST.count(), 0);
        assert_eq!(DIST.dropped(), 0);
    }

    #[test]
    fn bucket_edges() {
        let h = HistogramInner::with_bounds(&[1.0, 2.0]);
        h.record(1.0); // on the bound: first bucket
        h.record(1.0001); // second bucket
        h.record(7.0); // overflow
        assert_eq!(h.buckets[0].load(Relaxed), 1);
        assert_eq!(h.buckets[1].load(Relaxed), 1);
        assert_eq!(h.buckets[2].load(Relaxed), 1);
    }
}
