//! Theoretical vs. effective contact windows.
//!
//! The paper's central availability analysis (§3.1): a *theoretical*
//! window is the SGP4-predicted interval a satellite spends above the
//! elevation mask; the *effective* window is the span between the first
//! and last **received** beacon inside it. The gap between the two —
//! 73.7–89.2 % across constellations — is the headline finding.

use crate::stats::Summary;

/// A theoretical contact window (from pass prediction), in campaign
/// seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TheoreticalWindow {
    /// Window start (AOS), s.
    pub start_s: f64,
    /// Window end (LOS), s.
    pub end_s: f64,
}

impl TheoreticalWindow {
    /// Duration, seconds.
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// The effective (measured) portion of one theoretical window.
#[derive(Debug, Clone, PartialEq)]
pub struct EffectiveWindow {
    /// The predicting window.
    pub theoretical: TheoreticalWindow,
    /// First received beacon, s (None → complete outage).
    pub first_rx_s: Option<f64>,
    /// Last received beacon, s.
    pub last_rx_s: Option<f64>,
    /// Beacons received inside the window.
    pub received: usize,
    /// Beacons transmitted inside the window (if known).
    pub transmitted: usize,
}

impl EffectiveWindow {
    /// Effective duration, seconds (0 when nothing was received).
    pub fn effective_duration_s(&self) -> f64 {
        match (self.first_rx_s, self.last_rx_s) {
            (Some(a), Some(b)) => b - a,
            _ => 0.0,
        }
    }

    /// Effective/theoretical duration ratio ∈ [0, 1].
    pub fn duty_ratio(&self) -> f64 {
        let th = self.theoretical.duration_s();
        if th <= 0.0 {
            0.0
        } else {
            (self.effective_duration_s() / th).clamp(0.0, 1.0)
        }
    }

    /// Beacon delivery ratio inside the window (None if tx count unknown).
    pub fn beacon_reception_ratio(&self) -> Option<f64> {
        if self.transmitted == 0 {
            None
        } else {
            Some(self.received as f64 / self.transmitted as f64)
        }
    }
}

/// Assign received beacon timestamps (sorted or not) to theoretical
/// windows and compute the effective windows.
///
/// `windows` must be non-overlapping; beacons outside every window are
/// ignored (they would be spurious detections in a real campaign).
/// `transmitted_per_window` supplies the per-window beacon transmission
/// counts when known (pass an empty slice otherwise).
pub fn effective_windows(
    windows: &[TheoreticalWindow],
    beacon_times_s: &[f64],
    transmitted_per_window: &[usize],
) -> Vec<EffectiveWindow> {
    let mut sorted_times = beacon_times_s.to_vec();
    sorted_times.sort_by(|a, b| a.total_cmp(b));
    windows
        .iter()
        .enumerate()
        .map(|(i, w)| {
            let lo = sorted_times.partition_point(|&t| t < w.start_s);
            let hi = sorted_times.partition_point(|&t| t <= w.end_s);
            let inside = &sorted_times[lo..hi];
            EffectiveWindow {
                theoretical: *w,
                first_rx_s: inside.first().copied(),
                last_rx_s: inside.last().copied(),
                received: inside.len(),
                transmitted: transmitted_per_window.get(i).copied().unwrap_or(0),
            }
        })
        .collect()
}

/// Aggregate statistics over a set of effective windows — the numbers the
/// paper's Figure 4 and §3.1 text report.
#[derive(Debug, Clone)]
pub struct ContactStats {
    /// Summary of theoretical durations, minutes.
    pub theoretical_min: Summary,
    /// Summary of effective durations (non-outage windows), minutes.
    pub effective_min: Summary,
    /// Mean shrink of effective vs. theoretical duration ∈ [0, 1]
    /// (the paper's "73.7–89.2 % shorter").
    pub duration_shrink: f64,
    /// Summary of theoretical inter-contact gaps, minutes.
    pub theoretical_interval_min: Summary,
    /// Summary of effective inter-contact gaps, minutes.
    pub effective_interval_min: Summary,
    /// Windows with zero receptions.
    pub outage_windows: usize,
    /// Total windows.
    pub total_windows: usize,
}

/// Merge overlapping windows (sorted or not) into union windows: with a
/// multi-satellite constellation, "a contact with the constellation" is
/// the union of simultaneous per-satellite passes — the quantity the
/// paper's interval analysis (Fig 4b) uses.
pub fn merge_overlapping(windows: &[EffectiveWindow]) -> Vec<EffectiveWindow> {
    let mut merged = windows.to_vec();
    sort_by_start(&mut merged);
    union_sorted(&mut merged);
    merged
}

/// Sort windows by theoretical start; a stable sort, so windows with
/// tied starts keep their input order.
fn sort_by_start(windows: &mut [EffectiveWindow]) {
    windows.sort_by(|a, b| a.theoretical.start_s.total_cmp(&b.theoretical.start_s));
}

/// Union start-sorted windows in place: each window that starts before
/// the running union ends folds into it.
fn union_sorted(windows: &mut Vec<EffectiveWindow>) {
    windows.dedup_by(|w, last| {
        let overlaps = w.theoretical.start_s <= last.theoretical.end_s;
        if overlaps {
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
        overlaps
    });
}

impl ContactStats {
    /// Compute aggregate contact statistics. Windows must be in
    /// chronological order.
    pub fn compute(windows: &[EffectiveWindow]) -> ContactStats {
        Self::compute_grouped(vec![windows.to_vec()])
    }

    /// Compute statistics over several independent timelines (e.g. one
    /// per measurement site): durations pool directly, inter-contact gaps
    /// are computed within each timeline, and overlapping windows inside
    /// a timeline are unioned first. Each group is sorted and unioned in
    /// place.
    pub fn compute_grouped(groups: Vec<Vec<EffectiveWindow>>) -> ContactStats {
        let mut theoretical: Vec<f64> = Vec::new();
        let mut effective: Vec<f64> = Vec::new();
        let mut th_gaps: Vec<f64> = Vec::new();
        let mut eff_gaps: Vec<f64> = Vec::new();
        let mut total_th = 0.0;
        let mut total_eff = 0.0;
        let mut outage_windows = 0;
        let mut total_windows = 0;

        for mut windows in groups {
            // Durations compare per-satellite passes (the paper's Fig 4a
            // quantity: each scheduled pass has a theoretical and an
            // effective span)…
            sort_by_start(&mut windows);
            total_windows += windows.len();
            outage_windows += windows.iter().filter(|w| w.received == 0).count();
            for w in &windows {
                let th = w.theoretical.duration_s() / 60.0;
                theoretical.push(th);
                total_th += th;
                let eff = w.effective_duration_s() / 60.0;
                total_eff += eff;
                if w.received > 0 {
                    effective.push(eff);
                }
            }
            // …while inter-contact gaps treat the constellation as one
            // service: simultaneous passes union into a single contact
            // (the paper's Fig 4b quantity).
            union_sorted(&mut windows);
            // Theoretical gaps: LOS → next AOS (within this timeline).
            for pair in windows.windows(2) {
                th_gaps.push((pair[1].theoretical.start_s - pair[0].theoretical.end_s) / 60.0);
            }
            // Effective gaps: last reception → next first reception;
            // outage windows extend the gap, as in the paper.
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

        // Shrink compares total effective time against total theoretical
        // time (outages count as zero effective time).
        let duration_shrink = if total_th > 0.0 {
            1.0 - total_eff / total_th
        } else {
            0.0
        };

        ContactStats {
            theoretical_min: Summary::of(&theoretical),
            effective_min: Summary::of(&effective),
            duration_shrink,
            theoretical_interval_min: Summary::of(&th_gaps),
            effective_interval_min: Summary::of(&eff_gaps),
            outage_windows,
            total_windows,
        }
    }

    /// Ratio of mean effective gap to mean theoretical gap (the paper's
    /// "6.1–44.9× longer" intervals).
    pub fn interval_expansion(&self) -> f64 {
        if self.theoretical_interval_min.mean <= 0.0 {
            0.0
        } else {
            self.effective_interval_min.mean / self.theoretical_interval_min.mean
        }
    }
}

/// Normalised positions (0–1) of receptions within their windows — the
/// paper's Figure 9 series.
pub fn normalized_reception_positions(
    windows: &[EffectiveWindow],
    beacon_times_s: &[f64],
) -> Vec<f64> {
    let mut out = Vec::new();
    for w in windows {
        let d = w.theoretical.duration_s();
        if d <= 0.0 {
            continue;
        }
        for &t in beacon_times_s {
            if t >= w.theoretical.start_s && t <= w.theoretical.end_s {
                out.push((t - w.theoretical.start_s) / d);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn win(start: f64, end: f64) -> TheoreticalWindow {
        TheoreticalWindow {
            start_s: start,
            end_s: end,
        }
    }

    #[test]
    fn beacons_map_into_windows() {
        let windows = [win(0.0, 600.0), win(1_800.0, 2_400.0)];
        let beacons = [150.0, 300.0, 450.0, 2_000.0, 2_100.0, 5_000.0];
        let eff = effective_windows(&windows, &beacons, &[120, 120]);
        assert_eq!(eff.len(), 2);
        assert_eq!(eff[0].received, 3);
        assert_eq!(eff[0].first_rx_s, Some(150.0));
        assert_eq!(eff[0].last_rx_s, Some(450.0));
        assert!((eff[0].effective_duration_s() - 300.0).abs() < 1e-12);
        assert!((eff[0].duty_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(eff[1].received, 2);
        assert!((eff[1].beacon_reception_ratio().unwrap() - 2.0 / 120.0).abs() < 1e-12);
        // The 5000 s beacon falls outside both windows and is ignored.
    }

    #[test]
    fn outage_window_has_zero_duration() {
        let windows = [win(0.0, 600.0)];
        let eff = effective_windows(&windows, &[], &[]);
        assert_eq!(eff[0].received, 0);
        assert_eq!(eff[0].effective_duration_s(), 0.0);
        assert_eq!(eff[0].duty_ratio(), 0.0);
        assert_eq!(eff[0].beacon_reception_ratio(), None);
    }

    #[test]
    fn unsorted_beacons_are_handled() {
        let windows = [win(0.0, 600.0)];
        let eff = effective_windows(&windows, &[450.0, 150.0, 300.0], &[]);
        assert_eq!(eff[0].first_rx_s, Some(150.0));
        assert_eq!(eff[0].last_rx_s, Some(450.0));
    }

    #[test]
    fn contact_stats_shrink_and_expansion() {
        // Three 10-min windows spaced 90 min apart; receptions only in a
        // central 2-min slice of windows 1 and 3, nothing in window 2.
        let windows = [
            win(0.0, 600.0),
            win(6_000.0, 6_600.0),
            win(12_000.0, 12_600.0),
        ];
        let beacons = [240.0, 300.0, 360.0, 12_240.0, 12_300.0, 12_360.0];
        let eff = effective_windows(&windows, &beacons, &[]);
        let stats = ContactStats::compute(&eff);
        assert_eq!(stats.total_windows, 3);
        assert_eq!(stats.outage_windows, 1);
        // Effective total = 2+2 min of 30 min theoretical → shrink ≈ 0.867.
        assert!((stats.duration_shrink - (1.0 - 4.0 / 30.0)).abs() < 1e-9);
        // Theoretical gaps: 90 min each. Effective gap: from 360 s to
        // 12 240 s = 198 min (spanning the outage window).
        assert!((stats.theoretical_interval_min.mean - 90.0).abs() < 1e-9);
        assert!((stats.effective_interval_min.mean - 198.0).abs() < 1e-9);
        assert!((stats.interval_expansion() - 2.2).abs() < 1e-9);
    }

    #[test]
    fn normalized_positions() {
        let windows = [win(0.0, 1_000.0)];
        let eff = effective_windows(&windows, &[0.0, 250.0, 500.0, 1_000.0], &[]);
        let pos = normalized_reception_positions(&eff, &[0.0, 250.0, 500.0, 1_000.0]);
        assert_eq!(pos, vec![0.0, 0.25, 0.5, 1.0]);
    }

    #[test]
    fn empty_inputs() {
        let stats = ContactStats::compute(&[]);
        assert_eq!(stats.total_windows, 0);
        assert_eq!(stats.duration_shrink, 0.0);
        assert_eq!(stats.interval_expansion(), 0.0);
        assert!(effective_windows(&[], &[1.0], &[]).is_empty());
    }
}
