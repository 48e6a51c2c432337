//! Property-based tests for the analysis layer: statistics, streaming
//! sketches, archive codecs, and contact-window algebra over arbitrary
//! inputs.

use proptest::prelude::*;
use satiot_measure::contact::{
    effective_windows, merge_overlapping, ContactStats, EffectiveWindow, TheoreticalWindow,
};
use satiot_measure::csv::{read_traces, write_traces};
use satiot_measure::sketch::{QuantileSketch, StreamSummary};
use satiot_measure::stats::{cdf_points, nearest_rank_sorted, percentile, Histogram, Summary};
use satiot_measure::trace::{BeaconTrace, TraceSet};

proptest! {
    /// Summary invariants: min ≤ p10 ≤ median ≤ p90 ≤ max, mean within
    /// [min, max].
    #[test]
    fn summary_orderings(values in proptest::collection::vec(-1e6_f64..1e6, 1..300)) {
        let s = Summary::of(&values);
        prop_assert_eq!(s.n, values.len());
        prop_assert!(s.min <= s.p10 + 1e-9);
        prop_assert!(s.p10 <= s.median + 1e-9);
        prop_assert!(s.median <= s.p90 + 1e-9);
        prop_assert!(s.p90 <= s.max + 1e-9);
        prop_assert!(s.mean >= s.min - 1e-9 && s.mean <= s.max + 1e-9);
        prop_assert!(s.std_dev >= 0.0);
    }

    /// Percentiles are bounded and monotone in p.
    #[test]
    fn percentile_monotone(
        values in proptest::collection::vec(-1e3_f64..1e3, 1..100),
        p1 in 0.0_f64..100.0,
        p2 in 0.0_f64..100.0,
    ) {
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        prop_assert!(percentile(&values, lo) <= percentile(&values, hi) + 1e-9);
    }

    /// CDF points are monotone in both coordinates and span min..max.
    #[test]
    fn cdf_is_monotone(values in proptest::collection::vec(-50.0_f64..50.0, 2..200)) {
        let cdf = cdf_points(&values, 20);
        prop_assert_eq!(cdf.len(), 21);
        for w in cdf.windows(2) {
            prop_assert!(w[1].0 >= w[0].0 - 1e-12);
            prop_assert!(w[1].1 > w[0].1);
        }
        let mut sorted = values.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        prop_assert_eq!(cdf[0].0, sorted[0]);
        prop_assert_eq!(cdf[20].0, sorted[sorted.len() - 1]);
    }

    /// Histograms never lose observations (clamping included).
    #[test]
    fn histogram_preserves_mass(values in proptest::collection::vec(-100.0_f64..100.0, 0..300)) {
        let mut h = Histogram::new(-10.0, 10.0, 7);
        for v in &values {
            h.add(*v);
        }
        prop_assert_eq!(h.total() as usize, values.len());
        let total_fraction: f64 = (0..7).map(|i| h.fraction(i)).sum();
        if !values.is_empty() {
            prop_assert!((total_fraction - 1.0).abs() < 1e-9);
        }
    }

    /// Effective windows always nest inside their theoretical windows and
    /// never count more receptions than beacons offered.
    #[test]
    fn effective_windows_nest(
        starts in proptest::collection::vec(0.0_f64..1e5, 1..20),
        beacons in proptest::collection::vec(0.0_f64..1.2e5, 0..200),
    ) {
        // Build disjoint windows from sorted starts.
        let mut sorted = starts.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let mut windows = Vec::new();
        let mut prev_end = -1.0;
        for s in sorted {
            let start = s.max(prev_end + 1.0);
            let end = start + 600.0;
            windows.push(TheoreticalWindow { start_s: start, end_s: end });
            prev_end = end;
        }
        let eff = effective_windows(&windows, &beacons, &[]);
        prop_assert_eq!(eff.len(), windows.len());
        let mut assigned = 0;
        for w in &eff {
            if let (Some(f), Some(l)) = (w.first_rx_s, w.last_rx_s) {
                prop_assert!(f >= w.theoretical.start_s && l <= w.theoretical.end_s);
                prop_assert!(f <= l);
            }
            prop_assert!(w.effective_duration_s() <= w.theoretical.duration_s() + 1e-9);
            prop_assert!((0.0..=1.0).contains(&w.duty_ratio()));
            assigned += w.received;
        }
        prop_assert!(assigned <= beacons.len());
    }

    /// Merging overlapping windows yields disjoint windows that conserve
    /// reception counts and cover the same union span.
    #[test]
    fn merge_is_a_disjoint_cover(
        offsets in proptest::collection::vec((0.0_f64..5e4, 60.0_f64..1_200.0), 1..40),
    ) {
        let windows: Vec<_> = offsets
            .iter()
            .map(|(s, d)| satiot_measure::contact::EffectiveWindow {
                theoretical: TheoreticalWindow { start_s: *s, end_s: s + d },
                first_rx_s: None,
                last_rx_s: None,
                received: 1,
                transmitted: 3,
            })
            .collect();
        let merged = merge_overlapping(&windows);
        prop_assert!(merged.len() <= windows.len());
        for w in merged.windows(2) {
            prop_assert!(w[1].theoretical.start_s > w[0].theoretical.end_s);
        }
        let received: usize = merged.iter().map(|w| w.received).sum();
        let transmitted: usize = merged.iter().map(|w| w.transmitted).sum();
        prop_assert_eq!(received, windows.len());
        prop_assert_eq!(transmitted, 3 * windows.len());
        // The merged span bounds every input window.
        let lo = merged.first().unwrap().theoretical.start_s;
        let hi = merged.last().unwrap().theoretical.end_s;
        for w in &windows {
            prop_assert!(w.theoretical.start_s >= lo && w.theoretical.end_s <= hi);
        }
    }

    /// ContactStats shrink stays in [0, 1] for arbitrary window sets.
    #[test]
    fn shrink_is_a_fraction(
        count in 1usize..30,
        rx_frac in 0.0_f64..1.0,
    ) {
        let mut windows = Vec::new();
        for i in 0..count {
            let start = i as f64 * 2_000.0;
            let rx = rx_frac * 600.0;
            windows.push(satiot_measure::contact::EffectiveWindow {
                theoretical: TheoreticalWindow { start_s: start, end_s: start + 600.0 },
                first_rx_s: if rx > 1.0 { Some(start + 100.0) } else { None },
                last_rx_s: if rx > 1.0 { Some((start + 100.0 + rx).min(start + 600.0)) } else { None },
                received: if rx > 1.0 { 2 } else { 0 },
                transmitted: 10,
            });
        }
        let stats = ContactStats::compute(&windows);
        prop_assert!((0.0..=1.0).contains(&stats.duration_shrink));
        prop_assert_eq!(stats.total_windows, count);
    }

    /// Grouped statistics, each group sorted and unioned in place, equal
    /// the copying expression to the bit, and so does the union itself:
    /// unsorted, overlapping windows with tied starts, in two timelines.
    #[test]
    fn grouped_stats_match_the_copying_expression(
        drawn in proptest::collection::vec(
            (0usize..12, 60.0_f64..1_500.0, 0.0_f64..0.5, 0usize..4, any::<bool>()),
            1..40,
        ),
    ) {
        let mut groups = vec![Vec::new(), Vec::new()];
        for &(slot, duration, trim, received, second) in &drawn {
            // Starts on a 400 s grid tie; durations up to 1 500 s overlap.
            let (start_s, end_s) = (slot as f64 * 400.0, slot as f64 * 400.0 + duration);
            groups[usize::from(second)].push(EffectiveWindow {
                theoretical: TheoreticalWindow { start_s, end_s },
                first_rx_s: (received > 0).then_some(start_s + trim * duration),
                last_rx_s: (received > 0).then_some(end_s - trim * duration),
                received,
                transmitted: received + 2,
            });
        }
        for group in &groups {
            prop_assert_eq!(merge_overlapping(group), copying_merge(group));
        }
        let want = copying_stats(&groups);
        let got = ContactStats::compute_grouped(groups);
        prop_assert_eq!(format!("{got:?}"), format!("{want:?}"));
    }
}

/// The union of `windows` as `merge_overlapping` computed it when it
/// copied its input: clone, sort by start, then fold each window that
/// overlaps the last kept one into it.
fn copying_merge(windows: &[EffectiveWindow]) -> Vec<EffectiveWindow> {
    let mut sorted = windows.to_vec();
    sorted.sort_by(|a, b| a.theoretical.start_s.total_cmp(&b.theoretical.start_s));
    let mut merged: Vec<EffectiveWindow> = Vec::new();
    for w in sorted {
        match merged.last_mut() {
            Some(last) if w.theoretical.start_s <= last.theoretical.end_s => {
                last.theoretical.end_s = last.theoretical.end_s.max(w.theoretical.end_s);
                last.received += w.received;
                last.transmitted += w.transmitted;
                last.first_rx_s = match (last.first_rx_s, w.first_rx_s) {
                    (Some(a), Some(b)) => Some(a.min(b)),
                    (a, b) => a.or(b),
                };
                last.last_rx_s = match (last.last_rx_s, w.last_rx_s) {
                    (Some(a), Some(b)) => Some(a.max(b)),
                    (a, b) => a.or(b),
                };
            }
            _ => merged.push(w),
        }
    }
    merged
}

/// `ContactStats::compute_grouped` as it was when it copied each group
/// twice: a sorted clone for the durations, and `copying_merge` for the
/// gaps.
fn copying_stats(groups: &[Vec<EffectiveWindow>]) -> ContactStats {
    let (mut theoretical, mut effective) = (Vec::new(), Vec::new());
    let (mut th_gaps, mut eff_gaps) = (Vec::new(), Vec::new());
    let (mut total_th, mut total_eff) = (0.0, 0.0);
    let (mut outage_windows, mut total_windows) = (0, 0);
    for group in groups {
        let mut per_pass = group.clone();
        per_pass.sort_by(|a, b| a.theoretical.start_s.total_cmp(&b.theoretical.start_s));
        total_windows += per_pass.len();
        outage_windows += per_pass.iter().filter(|w| w.received == 0).count();
        for w in &per_pass {
            let th = w.theoretical.duration_s() / 60.0;
            theoretical.push(th);
            total_th += th;
            let eff = w.effective_duration_s() / 60.0;
            total_eff += eff;
            if w.received > 0 {
                effective.push(eff);
            }
        }
        let windows = copying_merge(group);
        for pair in windows.windows(2) {
            th_gaps.push((pair[1].theoretical.start_s - pair[0].theoretical.end_s) / 60.0);
        }
        let mut prev_last: Option<f64> = None;
        for w in &windows {
            if let (Some(first), Some(last)) = (w.first_rx_s, w.last_rx_s) {
                if let Some(p) = prev_last {
                    eff_gaps.push((first - p) / 60.0);
                }
                prev_last = Some(last);
            }
        }
    }
    ContactStats {
        theoretical_min: Summary::of(&theoretical),
        effective_min: Summary::of(&effective),
        duration_shrink: if total_th > 0.0 {
            1.0 - total_eff / total_th
        } else {
            0.0
        },
        theoretical_interval_min: Summary::of(&th_gaps),
        effective_interval_min: Summary::of(&eff_gaps),
        outage_windows,
        total_windows,
    }
}

// ---------------------------------------------------------------------------
// Streaming sketches: accuracy bands and the merge law
// ---------------------------------------------------------------------------

/// Bucket widths exercised by the sketch properties (the real campaign
/// widths plus a coarse one to stress the error band).
const WIDTHS: [f64; 3] = [0.25, 1.0, 5.0];

proptest! {
    /// QuantileSketch quantiles stay within the documented band —
    /// width/2 of the exact nearest-rank order statistic — and the
    /// extreme order statistics are exact.
    #[test]
    fn quantile_sketch_tracks_nearest_rank(
        values in proptest::collection::vec(-500.0_f64..500.0, 1..400),
        w_idx in 0usize..3,
    ) {
        let width = WIDTHS[w_idx];
        let mut sk = QuantileSketch::new(width);
        for v in &values {
            sk.observe(*v);
        }
        let mut sorted = values.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        prop_assert_eq!(sk.count(), values.len() as u64);
        prop_assert_eq!(sk.quantile(0.0), sorted[0]);
        prop_assert_eq!(sk.quantile(100.0), sorted[sorted.len() - 1]);
        for p in [10.0, 25.0, 50.0, 75.0, 90.0] {
            let exact = nearest_rank_sorted(&sorted, p);
            let est = sk.quantile(p);
            prop_assert!(
                (est - exact).abs() <= width / 2.0 + 1e-9,
                "p{} off by {} (width {})", p, (est - exact).abs(), width
            );
        }
    }

    /// The sketch merge law: sharding the stream arbitrarily and merging
    /// the shards — in either order — is *identical* (not just close) to
    /// sketching the whole stream, because bucket merge is integer exact.
    #[test]
    fn quantile_sketch_merge_is_exact_and_order_independent(
        values in proptest::collection::vec(-200.0_f64..200.0, 1..300),
        chunk in 1usize..40,
    ) {
        let mut global = QuantileSketch::new(1.0);
        for v in &values {
            global.observe(*v);
        }
        let shards: Vec<QuantileSketch> = values
            .chunks(chunk)
            .map(|c| {
                let mut s = QuantileSketch::new(1.0);
                for v in c {
                    s.observe(*v);
                }
                s
            })
            .collect();
        let mut forward = QuantileSketch::new(1.0);
        for s in &shards {
            forward.merge(s);
        }
        let mut backward = QuantileSketch::new(1.0);
        for s in shards.iter().rev() {
            backward.merge(s);
        }
        prop_assert_eq!(&forward, &global);
        prop_assert_eq!(&backward, &global);
    }

    /// StreamSummary's parallel merge matches pooling the raw stream:
    /// count exactly, moments within floating-point tolerance.
    #[test]
    fn stream_summary_merge_matches_pooled(
        values in proptest::collection::vec(-1e3_f64..1e3, 2..300),
        chunk in 1usize..40,
    ) {
        let mut pooled = StreamSummary::new();
        for v in &values {
            pooled.observe(*v);
        }
        let mut merged = StreamSummary::new();
        for c in values.chunks(chunk) {
            let mut shard = StreamSummary::new();
            for v in c {
                shard.observe(*v);
            }
            merged.merge(&shard);
        }
        prop_assert_eq!(merged.count, pooled.count);
        prop_assert!((merged.mean - pooled.mean).abs() < 1e-6);
        prop_assert!((merged.variance() - pooled.variance()).abs() < 1e-3);
        prop_assert_eq!(merged.min, pooled.min);
        prop_assert_eq!(merged.max, pooled.max);
    }

    /// Summary::of over a stream with non-finite pollution equals the
    /// summary of the finite subset, and counts every drop.
    #[test]
    fn summary_quarantines_non_finite(
        values in proptest::collection::vec(-1e3_f64..1e3, 1..100),
        poison_idx in proptest::collection::vec(0usize..100, 0..10),
        kind in 0usize..3,
    ) {
        let poison = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][kind];
        let mut polluted = values.clone();
        for i in &poison_idx {
            polluted.insert(i % (polluted.len() + 1), poison);
        }
        let clean = Summary::of(&values);
        let s = Summary::of(&polluted);
        prop_assert_eq!(s.non_finite_dropped, poison_idx.len());
        prop_assert_eq!(s.n, clean.n);
        prop_assert!((s.mean - clean.mean).abs() < 1e-9);
        prop_assert_eq!(s.min, clean.min);
        prop_assert_eq!(s.max, clean.max);
        prop_assert_eq!(s.median, clean.median);
    }
}

// ---------------------------------------------------------------------------
// Archive codecs: hostile-name round-trips and non-finite rejection
// ---------------------------------------------------------------------------

/// Label alphabet deliberately stuffed with CSV/JSON metacharacters:
/// separators, quotes, newlines, backslashes, and ordinary text.
const NAME_PALETTE: [char; 12] = [',', '"', '\n', '\\', 'a', 'Z', '7', ' ', '-', '.', ':', '/'];

fn hostile_name(indices: &[usize]) -> String {
    indices
        .iter()
        .map(|i| NAME_PALETTE[i % NAME_PALETTE.len()])
        .collect()
}

/// Quantise to the archive's written precision so write → read is
/// lossless (the codecs format floats with fixed decimal places).
fn q(v: f64, places: i32) -> f64 {
    let s = 10f64.powi(places);
    (v * s).round() / s
}

fn trace_row(
    site_idx: &[usize],
    cons_idx: &[usize],
    signal: (f64, f64, f64),
    geom: (f64, f64, f64),
    ids: (usize, usize, usize),
) -> BeaconTrace {
    BeaconTrace {
        time_s: q(signal.0.abs(), 3),
        site: hostile_name(site_idx),
        station: ids.0 as u32,
        constellation: hostile_name(cons_idx),
        sat_id: ids.1 as u32,
        rssi_dbm: q(signal.1, 2),
        snr_db: q(signal.2, 2),
        elevation_deg: q(geom.0, 3),
        distance_km: q(geom.1.abs(), 3),
        doppler_hz: q(geom.2, 1),
        weather: ["sunny", "cloudy", "rainy"][ids.2 % 3],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// CSV archives round-trip losslessly even when site and
    /// constellation names contain commas, quotes, and newlines.
    #[test]
    fn archives_round_trip_hostile_names(
        rows in proptest::collection::vec(
            (
                proptest::collection::vec(0usize..12, 0..8),
                proptest::collection::vec(0usize..12, 0..8),
                (-200.0_f64..200.0, -160.0_f64..-40.0, -10.0_f64..20.0),
                (0.0_f64..90.0, 300.0_f64..4_000.0, -30e3_f64..30e3),
                (0usize..30, 0usize..100, 0usize..3),
            ),
            0..25,
        ),
    ) {
        let set = TraceSet {
            traces: rows
                .iter()
                .map(|(s, c, sig, geo, ids)| trace_row(s, c, *sig, *geo, *ids))
                .collect(),
        };

        let mut csv_bytes = Vec::new();
        write_traces(&set, &mut csv_bytes).expect("csv write");
        let csv_back = read_traces(&csv_bytes[..]).expect("csv read");
        prop_assert_eq!(&csv_back.traces, &set.traces);
    }

    /// Any non-finite float in any numeric column is rejected on read,
    /// and the error names the offending column.
    #[test]
    fn archives_reject_non_finite_floats(
        col in 0usize..6,
        kind in 0usize..3,
        time_s in 0.0_f64..1e5,
    ) {
        let poison = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][kind];
        let mut t = BeaconTrace {
            time_s,
            site: "HK".into(),
            station: 1,
            constellation: "Tianqi".into(),
            sat_id: 7,
            rssi_dbm: -120.0,
            snr_db: 3.0,
            elevation_deg: 45.0,
            distance_km: 900.0,
            doppler_hz: 1_000.0,
            weather: "sunny",
        };
        let name = match col {
            0 => { t.time_s = poison; "time_s" }
            1 => { t.rssi_dbm = poison; "rssi_dbm" }
            2 => { t.snr_db = poison; "snr_db" }
            3 => { t.elevation_deg = poison; "elevation_deg" }
            4 => { t.distance_km = poison; "distance_km" }
            _ => { t.doppler_hz = poison; "doppler_hz" }
        };
        let set = TraceSet { traces: vec![t] };

        let mut csv_bytes = Vec::new();
        write_traces(&set, &mut csv_bytes).expect("csv write");
        let err = read_traces(&csv_bytes[..]).expect_err("non-finite must be rejected");
        prop_assert!(err.to_string().contains(name), "error `{}` names `{}`", err, name);
    }
}
