//! Mergeable streaming sketches: bounded-memory statistics for
//! campaigns too large to hold as full trace vectors.
//!
//! The paper's passive dataset is 121,744 beacon traces over seven
//! months; the ROADMAP's mega-constellation regime is orders of
//! magnitude beyond that. This module supplies the statistics layer the
//! streaming sink architecture (`satiot_core::sink`) feeds: per-shard
//! estimators that observe one value at a time in O(1), and that
//! **merge** across shards so pooled per-site workers can combine their
//! partials in configuration order with memory O(sites), not O(traces).
//!
//! Three estimators, with distinct accuracy contracts:
//!
//! * [`StreamSummary`] — count / mean / variance / min / max via
//!   Welford's online update, merged with Chan's parallel formula.
//!   Merge is exact in counts and extremes; mean/variance agree with
//!   the pooled computation to floating-point reassociation (the
//!   property tests bound this at ~1e-9 relative).
//! * [`QuantileSketch`] — a fixed-width bucket map over the full real
//!   line (`BTreeMap<i64, u64>` keyed by `floor(v / width)`).
//!   **Hard contract**: `quantile(p)` is within `width / 2` of the
//!   nearest-rank exact percentile ([`crate::stats::nearest_rank_sorted`]),
//!   and `merge` is *exact* — integer counts add, so merged-per-shard
//!   and global sketches are bit-identical regardless of sharding or
//!   merge order (associative and commutative; property-tested).
//! * [`P2Quantile`] — the Jain–Chlamtac P² online percentile estimator:
//!   five markers, O(1) state, no buckets. **Hard contract** on
//!   arbitrary finite inputs: exact for n ≤ 5, always within the
//!   observed `[min, max]`, monotone marker heights. Its tighter
//!   accuracy (typically well under 1 % of the interquartile range on
//!   i.i.d. streams) is empirical, not guaranteed, and it does *not*
//!   merge — use it per-stream or for refinement, and use
//!   [`QuantileSketch`] wherever the merge law or a hard error band is
//!   required.
//!
//! Non-finite observations are dropped and counted (mirrored into the
//! `obs.invariants.non_finite_flagged` data-quality counter), matching
//! [`crate::stats::Histogram`] and [`crate::stats::Summary`].
//!
//! [`TraceAggregate`] composes these into the per-constellation trace
//! statistics the aggregating campaign sink retains instead of the
//! traces themselves.

use crate::stats::percentile_sorted;
use crate::trace::BeaconTrace;
use satiot_obs::invariants::flag_non_finite;
use std::collections::BTreeMap;

/// Bucket width of the RSSI quantile sketch, dBm.
pub const RSSI_WIDTH_DBM: f64 = 0.25;
/// Bucket width of the SNR quantile sketch, dB.
pub const SNR_WIDTH_DB: f64 = 0.25;
/// Bucket width of the slant-distance quantile sketch, km.
pub const DISTANCE_WIDTH_KM: f64 = 5.0;
/// Bucket width of the elevation quantile sketch, degrees.
pub const ELEVATION_WIDTH_DEG: f64 = 0.5;
/// Bucket width of the end-to-end latency quantile sketch, minutes.
pub const LATENCY_WIDTH_MIN: f64 = 1.0;

// ---------------------------------------------------------------------------
// StreamSummary: mergeable moments
// ---------------------------------------------------------------------------

/// Mergeable streaming moments: count, mean, M2 (sum of squared
/// deviations), min, max. Welford's update per observation; Chan's
/// parallel formula per merge.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StreamSummary {
    /// Finite observations.
    pub count: u64,
    /// Running mean (0 until the first observation).
    pub mean: f64,
    /// Sum of squared deviations from the mean.
    pub m2: f64,
    /// Minimum finite observation (+∞ until the first).
    pub min: f64,
    /// Maximum finite observation (−∞ until the first).
    pub max: f64,
    /// Non-finite observations dropped (also flagged through
    /// `satiot_obs`).
    pub non_finite_dropped: u64,
}

impl StreamSummary {
    /// An empty summary.
    pub fn new() -> StreamSummary {
        StreamSummary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            non_finite_dropped: 0,
        }
    }

    /// Observe one value. Non-finite values are dropped and counted.
    pub fn observe(&mut self, v: f64) {
        if !flag_non_finite("measure::sketch::StreamSummary::observe", v) {
            self.non_finite_dropped += 1;
            return;
        }
        self.count += 1;
        let delta = v - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (v - self.mean);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Fold another shard into this one (Chan's parallel update).
    /// Counts and extremes merge exactly; mean/M2 agree with the pooled
    /// stream up to floating-point reassociation.
    pub fn merge(&mut self, other: &StreamSummary) {
        self.non_finite_dropped += other.non_finite_dropped;
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            let nf = self.non_finite_dropped;
            *self = other.clone();
            self.non_finite_dropped = nf;
            return;
        }
        let (na, nb) = (self.count as f64, other.count as f64);
        let total = na + nb;
        let delta = other.mean - self.mean;
        self.mean += delta * nb / total;
        self.m2 += other.m2 + delta * delta * na * nb / total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.count += other.count;
    }

    /// Population variance (0 for fewer than one observation).
    pub fn variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            (self.m2 / self.count as f64).max(0.0)
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Sample (n−1) standard deviation; 0 for fewer than two
    /// observations.
    pub fn sample_std_dev(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / (self.count - 1) as f64).max(0.0).sqrt()
        }
    }

    /// Half-width of the 95 % normal-approximation confidence interval
    /// on the mean, using the sample standard deviation.
    pub fn ci95_half_width(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            1.96 * self.sample_std_dev() / (self.count as f64).sqrt()
        }
    }
}

// ---------------------------------------------------------------------------
// QuantileSketch: mergeable fixed-width bucket map
// ---------------------------------------------------------------------------

/// A mergeable quantile sketch: integer counts in fixed-width buckets
/// keyed by `floor(v / width)` over the whole real line.
///
/// Memory is O(distinct buckets) — bounded by the data's spread divided
/// by the width, independent of the observation count. `merge` adds
/// counts, so it is exact, associative, and commutative: merging
/// per-site shards in any order yields bit-identical quantiles to one
/// global sketch over the pooled stream (the streaming merge law the
/// campaign sinks rely on; property-tested in `prop_measure`).
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSketch {
    width: f64,
    counts: BTreeMap<i64, u64>,
    count: u64,
    min: f64,
    max: f64,
    /// Non-finite observations dropped (also flagged through
    /// `satiot_obs`).
    pub non_finite_dropped: u64,
}

impl QuantileSketch {
    /// A sketch with the given bucket width (must be finite, > 0).
    pub fn new(width: f64) -> QuantileSketch {
        assert!(
            width.is_finite() && width > 0.0,
            "degenerate sketch width {width}"
        );
        QuantileSketch {
            width,
            counts: BTreeMap::new(),
            count: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            non_finite_dropped: 0,
        }
    }

    /// The configured bucket width (the quantile error band is
    /// `width / 2`).
    pub fn width(&self) -> f64 {
        self.width
    }

    /// Finite observations so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Minimum finite observation (+∞ while empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum finite observation (−∞ while empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Distinct buckets currently held (the memory footprint).
    pub fn buckets(&self) -> usize {
        self.counts.len()
    }

    /// The raw `(bucket key, count)` pairs in ascending key order — the
    /// exact mergeable state. Checkpointing code serialises this and
    /// rebuilds through [`QuantileSketch::from_parts`], so a resumed
    /// sweep merges bit-identically to an uninterrupted one.
    pub fn bucket_iter(&self) -> impl Iterator<Item = (i64, u64)> + '_ {
        self.counts.iter().map(|(k, n)| (*k, *n))
    }

    /// Rebuild a sketch from parts previously exported via the public
    /// accessors ([`QuantileSketch::width`], [`QuantileSketch::min`],
    /// [`QuantileSketch::max`], [`QuantileSketch::count`],
    /// [`QuantileSketch::bucket_iter`]). Validates the invariants
    /// `new`/`observe` maintain and rejects inconsistent parts with a
    /// description, so checkpoint loaders can treat a bad record as
    /// corrupt instead of merging garbage.
    pub fn from_parts(
        width: f64,
        min: f64,
        max: f64,
        count: u64,
        non_finite_dropped: u64,
        buckets: impl IntoIterator<Item = (i64, u64)>,
    ) -> Result<QuantileSketch, String> {
        if !(width.is_finite() && width > 0.0) {
            return Err(format!("degenerate sketch width {width}"));
        }
        let mut counts = BTreeMap::new();
        let mut total = 0u64;
        for (k, n) in buckets {
            if n == 0 {
                return Err(format!("empty bucket {k}"));
            }
            if counts.insert(k, n).is_some() {
                return Err(format!("duplicate bucket {k}"));
            }
            total = total
                .checked_add(n)
                .ok_or_else(|| "bucket counts overflow u64".to_string())?;
        }
        if total != count {
            return Err(format!("bucket counts sum to {total}, expected {count}"));
        }
        if count == 0 {
            if min != f64::INFINITY || max != f64::NEG_INFINITY {
                return Err(format!("empty sketch with extremes [{min}, {max}]"));
            }
        } else if !(min.is_finite() && max.is_finite() && min <= max) {
            return Err(format!("inconsistent extremes [{min}, {max}]"));
        }
        Ok(QuantileSketch {
            width,
            counts,
            count,
            min,
            max,
            non_finite_dropped,
        })
    }

    /// Observe one value. Non-finite values are dropped and counted.
    pub fn observe(&mut self, v: f64) {
        if !flag_non_finite("measure::sketch::QuantileSketch::observe", v) {
            self.non_finite_dropped += 1;
            return;
        }
        // `as i64` saturates at the i64 range, so astronomically large
        // magnitudes clamp into the edge buckets instead of wrapping.
        let key = (v / self.width).floor() as i64;
        *self.counts.entry(key).or_insert(0) += 1;
        self.count += 1;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Fold another shard into this one. Panics if the widths differ
    /// (sketches are only comparable bucket-for-bucket).
    pub fn merge(&mut self, other: &QuantileSketch) {
        assert!(
            self.width == other.width,
            "merging sketches of widths {} and {}",
            self.width,
            other.width
        );
        for (k, n) in &other.counts {
            *self.counts.entry(*k).or_insert(0) += n;
        }
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.non_finite_dropped += other.non_finite_dropped;
    }

    /// Quantile estimate for `p` ∈ [0, 100]: the midpoint of the bucket
    /// holding the nearest-rank order statistic, clamped into the
    /// observed `[min, max]`. Guaranteed within `width / 2` of
    /// [`crate::stats::nearest_rank_sorted`] on the same data. Returns
    /// 0 for an empty sketch.
    pub fn quantile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let p = p.clamp(0.0, 100.0);
        // Same rank convention as `nearest_rank_sorted`.
        let target = (p / 100.0 * (self.count - 1) as f64).round() as u64;
        // The extreme order statistics are tracked exactly.
        if target == 0 {
            return self.min;
        }
        if target == self.count - 1 {
            return self.max;
        }
        let mut cum = 0u64;
        for (k, n) in &self.counts {
            cum += n;
            if cum > target {
                let mid = (*k as f64 + 0.5) * self.width;
                return mid.clamp(self.min, self.max);
            }
        }
        self.max // Unreachable for a consistent sketch; degrade safely.
    }
}

// ---------------------------------------------------------------------------
// P2Quantile: Jain–Chlamtac online percentile estimator
// ---------------------------------------------------------------------------

/// The P² (piecewise-parabolic) online estimator of one percentile:
/// five markers tracking min, the p/2, p, and (1+p)/2 percentiles, and
/// max, adjusted per observation without storing the sample.
///
/// Hard guarantees on arbitrary finite inputs (property-tested): exact
/// for n ≤ 5 (it simply sorts its buffer), the estimate always lies in
/// the observed `[min, max]`, and marker heights stay monotone. Its
/// much tighter accuracy on i.i.d. streams is empirical; where a hard
/// error band or a merge law is needed, use [`QuantileSketch`].
#[derive(Debug, Clone)]
pub struct P2Quantile {
    /// The target quantile in (0, 1).
    p: f64,
    /// First five observations, sorted lazily at marker initialisation.
    initial: Vec<f64>,
    /// Marker heights (valid once `count >= 5`).
    q: [f64; 5],
    /// Marker positions, 1-based (valid once `count >= 5`).
    pos: [f64; 5],
    /// Finite observations so far.
    count: u64,
    /// Non-finite observations dropped (also flagged through
    /// `satiot_obs`).
    pub non_finite_dropped: u64,
}

impl P2Quantile {
    /// An estimator for quantile `p` ∈ (0, 1) (e.g. 0.5 for the
    /// median).
    pub fn new(p: f64) -> P2Quantile {
        assert!(p > 0.0 && p < 1.0, "P2 quantile {p} outside (0, 1)");
        P2Quantile {
            p,
            initial: Vec::with_capacity(5),
            q: [0.0; 5],
            pos: [1.0, 2.0, 3.0, 4.0, 5.0],
            count: 0,
            non_finite_dropped: 0,
        }
    }

    /// Finite observations so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Observe one value. Non-finite values are dropped and counted.
    pub fn observe(&mut self, x: f64) {
        if !flag_non_finite("measure::sketch::P2Quantile::observe", x) {
            self.non_finite_dropped += 1;
            return;
        }
        self.count += 1;
        if self.count <= 5 {
            self.initial.push(x);
            if self.count == 5 {
                self.initial.sort_by(|a, b| a.total_cmp(b));
                for (i, v) in self.initial.iter().enumerate() {
                    self.q[i] = *v;
                }
            }
            return;
        }

        // Locate the cell and update the extreme markers.
        let k = if x < self.q[0] {
            self.q[0] = x;
            0
        } else if x >= self.q[4] {
            self.q[4] = x;
            3
        } else {
            // Largest i in 0..=3 with q[i] <= x.
            (0..4).rev().find(|&i| self.q[i] <= x).unwrap_or(0)
        };
        for i in (k + 1)..5 {
            self.pos[i] += 1.0;
        }

        // Desired positions for the current count.
        let n = self.count as f64;
        let p = self.p;
        let desired = [
            1.0,
            1.0 + (n - 1.0) * p / 2.0,
            1.0 + (n - 1.0) * p,
            1.0 + (n - 1.0) * (1.0 + p) / 2.0,
            n,
        ];

        // Adjust the three interior markers. Indexed: each step reads
        // both neighbours and writes marker `i`, so an iterator over
        // `desired` cannot express the borrow pattern.
        #[allow(clippy::needless_range_loop)]
        for i in 1..4 {
            let d = desired[i] - self.pos[i];
            if (d >= 1.0 && self.pos[i + 1] - self.pos[i] > 1.0)
                || (d <= -1.0 && self.pos[i - 1] - self.pos[i] < -1.0)
            {
                let d = d.signum();
                let qn = self.parabolic(i, d);
                self.q[i] = if self.q[i - 1] < qn && qn < self.q[i + 1] {
                    qn
                } else {
                    self.linear(i, d)
                };
                self.pos[i] += d;
            }
        }
    }

    /// Piecewise-parabolic (P²) height prediction for marker `i` moved
    /// by `d` ∈ {−1, +1}.
    fn parabolic(&self, i: usize, d: f64) -> f64 {
        let q = &self.q;
        let np = &self.pos;
        q[i] + d / (np[i + 1] - np[i - 1])
            * ((np[i] - np[i - 1] + d) * (q[i + 1] - q[i]) / (np[i + 1] - np[i])
                + (np[i + 1] - np[i] - d) * (q[i] - q[i - 1]) / (np[i] - np[i - 1]))
    }

    /// Linear fallback when the parabolic prediction leaves the
    /// neighbouring heights.
    fn linear(&self, i: usize, d: f64) -> f64 {
        let j = if d > 0.0 { i + 1 } else { i - 1 };
        self.q[i] + d * (self.q[j] - self.q[i]) / (self.pos[j] - self.pos[i])
    }

    /// The current estimate of the target quantile. Exact (the sorted
    /// buffer's interpolated percentile) for n ≤ 5; 0 for an empty
    /// estimator.
    pub fn estimate(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        if self.count <= 5 {
            let mut sorted = self.initial.clone();
            sorted.sort_by(|a, b| a.total_cmp(b));
            return percentile_sorted(&sorted, self.p * 100.0);
        }
        self.q[2]
    }

    /// Minimum finite observation (marker 0), 0 while empty.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else if self.count <= 5 {
            self.initial.iter().copied().fold(f64::INFINITY, f64::min)
        } else {
            self.q[0]
        }
    }

    /// Maximum finite observation (marker 4), 0 while empty.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else if self.count <= 5 {
            self.initial
                .iter()
                .copied()
                .fold(f64::NEG_INFINITY, f64::max)
        } else {
            self.q[4]
        }
    }
}

// ---------------------------------------------------------------------------
// MetricSketch + TraceAggregate: what the aggregating sink retains
// ---------------------------------------------------------------------------

/// Streaming statistics for one metric: mergeable moments plus a
/// mergeable quantile sketch.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSketch {
    /// Moments (count, mean, variance, extremes).
    pub summary: StreamSummary,
    /// Quantiles (hard `width / 2` band, exact merge).
    pub quantiles: QuantileSketch,
}

impl MetricSketch {
    /// A metric sketch whose quantile buckets are `width` wide.
    pub fn new(width: f64) -> MetricSketch {
        MetricSketch {
            summary: StreamSummary::new(),
            quantiles: QuantileSketch::new(width),
        }
    }

    /// Observe one value into both estimators.
    pub fn observe(&mut self, v: f64) {
        self.summary.observe(v);
        self.quantiles.observe(v);
    }

    /// Fold another shard into this one.
    pub fn merge(&mut self, other: &MetricSketch) {
        self.summary.merge(&other.summary);
        self.quantiles.merge(&other.quantiles);
    }
}

/// Streaming per-constellation statistics over one trace stream.
#[derive(Debug, Clone, PartialEq)]
pub struct ConstellationSketch {
    /// Constellation label.
    pub constellation: String,
    /// Traces observed for this constellation.
    pub count: u64,
    /// RSSI distribution, dBm (Fig 3b's quantity).
    pub rssi_dbm: MetricSketch,
    /// SNR distribution, dB.
    pub snr_db: MetricSketch,
    /// Slant-distance distribution, km (Fig 8's quantity).
    pub distance_km: MetricSketch,
    /// Elevation distribution, degrees.
    pub elevation_deg: MetricSketch,
    /// Per-site trace counts, in first-seen order.
    pub sites: Vec<(String, u64)>,
}

impl ConstellationSketch {
    fn new(constellation: &str) -> ConstellationSketch {
        ConstellationSketch {
            constellation: constellation.to_string(),
            count: 0,
            rssi_dbm: MetricSketch::new(RSSI_WIDTH_DBM),
            snr_db: MetricSketch::new(SNR_WIDTH_DB),
            distance_km: MetricSketch::new(DISTANCE_WIDTH_KM),
            elevation_deg: MetricSketch::new(ELEVATION_WIDTH_DEG),
            sites: Vec::new(),
        }
    }

    fn observe(&mut self, t: &BeaconTrace) {
        self.count += 1;
        self.rssi_dbm.observe(t.rssi_dbm);
        self.snr_db.observe(t.snr_db);
        self.distance_km.observe(t.distance_km);
        self.elevation_deg.observe(t.elevation_deg);
        match self.sites.iter_mut().find(|(s, _)| *s == t.site) {
            Some((_, n)) => *n += 1,
            None => self.sites.push((t.site.clone(), 1)),
        }
    }

    fn merge(&mut self, other: &ConstellationSketch) {
        self.count += other.count;
        self.rssi_dbm.merge(&other.rssi_dbm);
        self.snr_db.merge(&other.snr_db);
        self.distance_km.merge(&other.distance_km);
        self.elevation_deg.merge(&other.elevation_deg);
        for (site, n) in &other.sites {
            match self.sites.iter_mut().find(|(s, _)| s == site) {
                Some((_, mine)) => *mine += n,
                None => self.sites.push((site.clone(), *n)),
            }
        }
    }
}

/// Streaming aggregate over a whole trace stream: one
/// [`ConstellationSketch`] per constellation, in first-seen order, plus
/// total counts. This is everything the aggregating campaign sink
/// retains — memory O(constellations × buckets), not O(traces).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceAggregate {
    /// Total traces observed.
    pub total: u64,
    /// Per-constellation sketches, in first-seen order.
    pub groups: Vec<ConstellationSketch>,
}

impl TraceAggregate {
    /// An empty aggregate.
    pub fn new() -> TraceAggregate {
        TraceAggregate::default()
    }

    /// Observe one trace.
    pub fn observe(&mut self, t: &BeaconTrace) {
        self.total += 1;
        match self
            .groups
            .iter_mut()
            .find(|g| g.constellation == t.constellation)
        {
            Some(g) => g.observe(t),
            None => {
                let mut g = ConstellationSketch::new(&t.constellation);
                g.observe(t);
                self.groups.push(g);
            }
        }
    }

    /// Fold another shard into this one. Campaign drivers merge
    /// per-site shards in configuration order, so first-seen group
    /// order is deterministic; the sketch *contents* are
    /// order-independent (exact for counts and quantile buckets).
    pub fn merge(&mut self, other: &TraceAggregate) {
        self.total += other.total;
        for g in &other.groups {
            match self
                .groups
                .iter_mut()
                .find(|mine| mine.constellation == g.constellation)
            {
                Some(mine) => mine.merge(g),
                None => self.groups.push(g.clone()),
            }
        }
    }

    /// The sketch for one constellation, if any trace carried it.
    pub fn constellation(&self, label: &str) -> Option<&ConstellationSketch> {
        self.groups.iter().find(|g| g.constellation == label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::nearest_rank_sorted;

    fn lcg(seed: &mut u64) -> f64 {
        // Deterministic uniform in [0, 1): a plain LCG keeps the test
        // free of the campaign RNG.
        *seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        (*seed >> 11) as f64 / (1u64 << 53) as f64
    }

    #[test]
    fn quantile_sketch_round_trips_through_parts() {
        let mut seed = 7u64;
        let mut s = QuantileSketch::new(0.25);
        for _ in 0..500 {
            s.observe(lcg(&mut seed) * 40.0 - 10.0);
        }
        s.observe(f64::NAN);
        let rebuilt = QuantileSketch::from_parts(
            s.width(),
            s.min(),
            s.max(),
            s.count(),
            s.non_finite_dropped,
            s.bucket_iter(),
        )
        .expect("exported parts are consistent");
        assert_eq!(rebuilt, s);

        // Empty sketches round-trip too (sentinel extremes).
        let empty = QuantileSketch::new(1.0);
        let rebuilt = QuantileSketch::from_parts(1.0, f64::INFINITY, f64::NEG_INFINITY, 0, 0, [])
            .expect("empty parts are consistent");
        assert_eq!(rebuilt, empty);

        // Corrupt parts are rejected, not merged.
        assert!(QuantileSketch::from_parts(0.0, 0.0, 1.0, 1, 0, [(0, 1)]).is_err());
        assert!(QuantileSketch::from_parts(1.0, 0.0, 1.0, 2, 0, [(0, 1)]).is_err());
        assert!(QuantileSketch::from_parts(1.0, 0.0, 1.0, 2, 0, [(0, 1), (0, 1)]).is_err());
        assert!(QuantileSketch::from_parts(1.0, 5.0, 1.0, 2, 0, [(0, 2)]).is_err());
        assert!(QuantileSketch::from_parts(1.0, 0.0, 1.0, 1, 0, [(0, 0), (1, 1)]).is_err());
    }

    #[test]
    fn stream_summary_matches_exact_moments() {
        let mut s = StreamSummary::new();
        let values = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        for v in values {
            s.observe(v);
        }
        assert_eq!(s.count, 8);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        // Sample std = pop std * sqrt(n / (n-1)).
        let expected = 2.0 * (8.0f64 / 7.0).sqrt();
        assert!((s.sample_std_dev() - expected).abs() < 1e-12);
    }

    #[test]
    fn stream_summary_drops_non_finite() {
        let mut s = StreamSummary::new();
        s.observe(1.0);
        s.observe(f64::NAN);
        s.observe(f64::INFINITY);
        assert_eq!(s.count, 1);
        assert_eq!(s.non_finite_dropped, 2);
        assert_eq!(s.mean, 1.0);
    }

    #[test]
    fn stream_summary_merge_matches_pooled() {
        let mut seed = 42;
        let all: Vec<f64> = (0..1000).map(|_| lcg(&mut seed) * 50.0 - 25.0).collect();
        let mut pooled = StreamSummary::new();
        for v in &all {
            pooled.observe(*v);
        }
        let mut merged = StreamSummary::new();
        for chunk in all.chunks(137) {
            let mut shard = StreamSummary::new();
            for v in chunk {
                shard.observe(*v);
            }
            merged.merge(&shard);
        }
        assert_eq!(merged.count, pooled.count);
        assert_eq!(merged.min, pooled.min);
        assert_eq!(merged.max, pooled.max);
        assert!((merged.mean - pooled.mean).abs() < 1e-9);
        assert!((merged.std_dev() - pooled.std_dev()).abs() < 1e-9);
    }

    #[test]
    fn quantile_sketch_within_half_width() {
        let mut seed = 7;
        let mut values: Vec<f64> = (0..2000).map(|_| lcg(&mut seed) * 80.0 - 140.0).collect();
        let mut sk = QuantileSketch::new(RSSI_WIDTH_DBM);
        for v in &values {
            sk.observe(*v);
        }
        values.sort_by(|a, b| a.total_cmp(b));
        for p in [1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0] {
            let exact = nearest_rank_sorted(&values, p);
            let est = sk.quantile(p);
            assert!(
                (est - exact).abs() <= RSSI_WIDTH_DBM / 2.0 + 1e-9,
                "p{p}: sketch {est} vs exact {exact}"
            );
        }
        assert_eq!(sk.quantile(0.0), values[0]);
        assert_eq!(sk.quantile(100.0), values[values.len() - 1]);
    }

    #[test]
    fn quantile_sketch_merge_is_exact() {
        let mut seed = 9;
        let all: Vec<f64> = (0..500).map(|_| lcg(&mut seed) * 100.0).collect();
        let mut global = QuantileSketch::new(0.5);
        for v in &all {
            global.observe(*v);
        }
        // Shard, merge in a *different* order than observation order.
        let mut shards: Vec<QuantileSketch> = all
            .chunks(61)
            .map(|c| {
                let mut s = QuantileSketch::new(0.5);
                for v in c {
                    s.observe(*v);
                }
                s
            })
            .collect();
        shards.reverse();
        let mut merged = QuantileSketch::new(0.5);
        for s in &shards {
            merged.merge(s);
        }
        assert_eq!(merged, global);
    }

    #[test]
    fn quantile_sketch_drops_non_finite_and_survives_extremes() {
        let mut sk = QuantileSketch::new(1.0);
        sk.observe(f64::NAN);
        sk.observe(1e300); // Saturates into the edge bucket, no wrap.
        sk.observe(-1e300);
        sk.observe(5.0);
        assert_eq!(sk.count(), 3);
        assert_eq!(sk.non_finite_dropped, 1);
        let q = sk.quantile(50.0);
        assert!(q.is_finite());
    }

    #[test]
    fn p2_exact_for_small_samples() {
        let mut p2 = P2Quantile::new(0.5);
        for v in [3.0, 1.0, 2.0] {
            p2.observe(v);
        }
        assert_eq!(p2.estimate(), 2.0);
    }

    #[test]
    fn p2_tracks_uniform_median() {
        let mut seed = 1;
        let mut p2 = P2Quantile::new(0.5);
        let mut values = Vec::new();
        for _ in 0..5000 {
            let v = lcg(&mut seed) * 200.0 - 100.0;
            p2.observe(v);
            values.push(v);
        }
        values.sort_by(|a, b| a.total_cmp(b));
        let exact = nearest_rank_sorted(&values, 50.0);
        let est = p2.estimate();
        // Empirical accuracy on an i.i.d. stream: well inside 1 % of
        // the range.
        assert!((est - exact).abs() < 2.0, "p2 {est} vs exact {exact}");
        assert!(est >= p2.min() && est <= p2.max());
    }

    #[test]
    fn p2_estimate_bounded_and_drops_non_finite() {
        let mut p2 = P2Quantile::new(0.9);
        p2.observe(f64::NAN);
        assert_eq!(p2.count(), 0);
        assert_eq!(p2.non_finite_dropped, 1);
        for i in 0..100 {
            p2.observe(if i % 7 == 0 { 1000.0 } else { 0.0 });
        }
        let est = p2.estimate();
        assert!((0.0..=1000.0).contains(&est));
    }

    fn trace(constellation: &str, site: &str, rssi: f64) -> BeaconTrace {
        BeaconTrace {
            time_s: 0.0,
            site: site.to_string(),
            station: 0,
            constellation: constellation.to_string(),
            sat_id: 1,
            rssi_dbm: rssi,
            snr_db: -8.0,
            elevation_deg: 35.0,
            distance_km: 1200.0,
            doppler_hz: 4500.0,
            weather: "sunny",
        }
    }

    #[test]
    fn trace_aggregate_groups_and_merges() {
        let mut a = TraceAggregate::new();
        a.observe(&trace("Tianqi", "HK", -120.0));
        a.observe(&trace("FOSSA", "HK", -130.0));
        let mut b = TraceAggregate::new();
        b.observe(&trace("Tianqi", "SYD", -122.0));
        a.merge(&b);
        assert_eq!(a.total, 3);
        let tq = a.constellation("Tianqi").unwrap();
        assert_eq!(tq.count, 2);
        assert_eq!(
            tq.sites,
            vec![("HK".to_string(), 1), ("SYD".to_string(), 1)]
        );
        assert_eq!(tq.rssi_dbm.summary.count, 2);
        assert!((tq.rssi_dbm.summary.mean - -121.0).abs() < 1e-12);
        assert!(a.constellation("Iridium").is_none());
    }
}
