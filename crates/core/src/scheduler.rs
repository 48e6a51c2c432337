//! Ground-station → satellite assignment.
//!
//! Vanilla TinyGS decides which station listens to which satellite with
//! an opaque internal algorithm that is unaware of the operator's
//! measurement goals (paper §2.2). The authors replaced it with a
//! customised scheduler that tracks satellite positions and retunes
//! stations ahead of each pass. Both are modelled here:
//!
//! * [`PredictiveScheduler`] — knows the pass list in advance and greedily
//!   packs passes onto free stations (the paper's customised scheduler).
//! * [`VanillaScheduler`] — each station cycles through the compatible
//!   satellite list on a fixed dwell, blind to the geometry; it covers a
//!   pass only when its rotation happens to point at the right satellite.
//!
//! Ablation A1 (`ablation_scheduler`) quantifies the difference.

use satiot_orbit::pass::Pass;
use satiot_orbit::time::JulianDate;

/// A pass of a specific satellite over the site being scheduled.
#[derive(Debug, Clone, Copy)]
pub struct CandidatePass {
    /// Index of the satellite in the site's target list.
    pub sat_index: usize,
    /// The predicted pass.
    pub pass: Pass,
}

/// A scheduled listening interval: station `station` listens for
/// `sat_index` during `[start, end]` (a sub-interval of pass `pass_idx`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Coverage {
    /// Index into the candidate-pass list.
    pub pass_idx: usize,
    /// Station that listens.
    pub station: u32,
    /// Coverage start.
    pub start: JulianDate,
    /// Coverage end.
    pub end: JulianDate,
}

impl Coverage {
    /// Covered duration in seconds.
    pub fn duration_s(&self) -> f64 {
        self.end.seconds_since(self.start)
    }
}

/// A station-assignment policy.
pub trait Scheduler {
    /// Produce listening intervals for `stations` stations over the
    /// candidate passes (which must be sorted by AOS).
    fn schedule(&self, passes: &[CandidatePass], stations: u32) -> Vec<Coverage>;
}

/// The paper's customised scheduler: greedy interval packing with full
/// pass knowledge.
///
/// ```
/// use satiot_core::scheduler::{CandidatePass, PredictiveScheduler, Scheduler};
/// use satiot_orbit::pass::Pass;
/// use satiot_orbit::time::JulianDate;
///
/// let jd = |s: f64| JulianDate(2_460_000.0 + s / 86_400.0);
/// let pass = |sat, start: f64| CandidatePass {
///     sat_index: sat,
///     pass: Pass { aos: jd(start), los: jd(start + 600.0), tca: jd(start + 300.0),
///                  max_elevation_rad: 0.5, tca_range_km: 900.0 },
/// };
/// // Two simultaneous passes, one station: only one can be covered.
/// let coverage = PredictiveScheduler.schedule(&[pass(0, 0.0), pass(1, 100.0)], 1);
/// assert_eq!(coverage.len(), 1);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct PredictiveScheduler;

impl Scheduler for PredictiveScheduler {
    fn schedule(&self, passes: &[CandidatePass], stations: u32) -> Vec<Coverage> {
        let mut busy_until: Vec<JulianDate> = vec![JulianDate(f64::MIN); stations as usize];
        let mut out = Vec::new();
        for (idx, cp) in passes.iter().enumerate() {
            // Earliest-free station that is free before this AOS.
            let mut best: Option<usize> = None;
            for (s, until) in busy_until.iter().enumerate() {
                if *until <= cp.pass.aos {
                    match best {
                        None => best = Some(s),
                        Some(b) if busy_until[s] < busy_until[b] => best = Some(s),
                        _ => {}
                    }
                }
            }
            if let Some(s) = best {
                busy_until[s] = cp.pass.los;
                out.push(Coverage {
                    pass_idx: idx,
                    station: s as u32,
                    start: cp.pass.aos,
                    end: cp.pass.los,
                });
            }
        }
        out
    }
}

/// Vanilla TinyGS: each station rotates through `n_targets` satellites
/// with a fixed dwell, starting from a per-station offset.
#[derive(Debug, Clone, Copy)]
pub struct VanillaScheduler {
    /// Seconds a station stays tuned to one satellite.
    pub dwell_s: f64,
    /// Number of satellites in the rotation.
    pub n_targets: usize,
    /// Rotation origin (stations share a common epoch).
    pub origin: JulianDate,
}

impl VanillaScheduler {
    /// Which satellite station `s` listens to at `t`.
    pub fn tuned_target(&self, station: u32, t: JulianDate) -> usize {
        if self.n_targets == 0 {
            return 0;
        }
        let slot = (t.seconds_since(self.origin) / self.dwell_s).floor() as i64;
        // Stagger stations so they do not all point at the same satellite.
        let stagger = station as i64 * (self.n_targets as i64 / 2 + 1);
        (slot + stagger).rem_euclid(self.n_targets as i64) as usize
    }
}

impl Scheduler for VanillaScheduler {
    fn schedule(&self, passes: &[CandidatePass], stations: u32) -> Vec<Coverage> {
        let mut out = Vec::new();
        if self.n_targets == 0 || self.dwell_s <= 0.0 {
            return out;
        }
        for (idx, cp) in passes.iter().enumerate() {
            for station in 0..stations {
                // Walk the dwell slots overlapping this pass.
                let rel_start = cp.pass.aos.seconds_since(self.origin);
                let rel_end = cp.pass.los.seconds_since(self.origin);
                let first_slot = (rel_start / self.dwell_s).floor() as i64;
                let last_slot = (rel_end / self.dwell_s).floor() as i64;
                for slot in first_slot..=last_slot {
                    let slot_start = slot as f64 * self.dwell_s;
                    let slot_end = slot_start + self.dwell_s;
                    let t_probe = self.origin.plus_seconds(slot_start.max(rel_start) + 0.001);
                    if self.tuned_target(station, t_probe) == cp.sat_index {
                        let start = self.origin.plus_seconds(slot_start.max(rel_start));
                        let end = self.origin.plus_seconds(slot_end.min(rel_end));
                        if end.seconds_since(start) > 1.0 {
                            out.push(Coverage {
                                pass_idx: idx,
                                station,
                                start,
                                end,
                            });
                        }
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jd(s: f64) -> JulianDate {
        JulianDate(2_460_000.0 + s / 86_400.0)
    }

    fn pass(sat: usize, start_s: f64, dur_s: f64) -> CandidatePass {
        CandidatePass {
            sat_index: sat,
            pass: Pass {
                aos: jd(start_s),
                los: jd(start_s + dur_s),
                tca: jd(start_s + dur_s / 2.0),
                max_elevation_rad: 0.5,
                tca_range_km: 900.0,
            },
        }
    }

    #[test]
    fn predictive_covers_all_nonoverlapping_passes() {
        let passes = vec![
            pass(0, 0.0, 600.0),
            pass(1, 1_000.0, 600.0),
            pass(2, 2_000.0, 600.0),
        ];
        let cov = PredictiveScheduler.schedule(&passes, 1);
        assert_eq!(cov.len(), 3);
        for (i, c) in cov.iter().enumerate() {
            assert_eq!(c.pass_idx, i);
            assert_eq!(c.station, 0);
            assert!((c.duration_s() - 600.0).abs() < 1e-3);
        }
    }

    #[test]
    fn predictive_drops_conflicts_when_stations_are_scarce() {
        // Two simultaneous passes, one station: only one is covered.
        let passes = vec![pass(0, 0.0, 600.0), pass(1, 100.0, 600.0)];
        let cov = PredictiveScheduler.schedule(&passes, 1);
        assert_eq!(cov.len(), 1);
        // With two stations both are covered.
        let cov2 = PredictiveScheduler.schedule(&passes, 2);
        assert_eq!(cov2.len(), 2);
        assert_ne!(cov2[0].station, cov2[1].station);
    }

    #[test]
    fn predictive_reuses_freed_stations() {
        let passes = vec![
            pass(0, 0.0, 300.0),
            pass(1, 100.0, 300.0),
            pass(2, 350.0, 300.0), // Station 0 is free again at t = 300.
        ];
        let cov = PredictiveScheduler.schedule(&passes, 2);
        assert_eq!(cov.len(), 3);
        assert_eq!(cov[2].station, 0);
    }

    #[test]
    fn vanilla_covers_only_when_tuned() {
        let sched = VanillaScheduler {
            dwell_s: 600.0,
            n_targets: 10,
            origin: jd(0.0),
        };
        // A pass of satellite 0 during slot 0: station 0 is tuned to
        // target 0 in slot 0 (offset 0).
        let passes = vec![pass(0, 10.0, 400.0)];
        let cov = sched.schedule(&passes, 1);
        assert_eq!(cov.len(), 1);
        assert!((cov[0].duration_s() - 400.0).abs() < 1.0);
        // A pass of satellite 5 at the same time is missed by station 0…
        let missed = sched.schedule(&[pass(5, 10.0, 400.0)], 1);
        assert!(missed.is_empty());
    }

    #[test]
    fn vanilla_coverage_is_partial_when_dwell_expires() {
        let sched = VanillaScheduler {
            dwell_s: 300.0,
            n_targets: 4,
            origin: jd(0.0),
        };
        // Pass spans slots 0..2 (0–900 s); station 0 tunes target 0 only
        // during slot 0 → covers at most the first 300 s.
        let passes = vec![pass(0, 0.0, 900.0)];
        let cov = sched.schedule(&passes, 1);
        let total: f64 = cov.iter().map(|c| c.duration_s()).sum();
        assert!(total <= 300.0 + 1.0, "covered {total}");
        assert!(total > 0.0);
    }

    #[test]
    fn vanilla_beats_zero_with_many_stations() {
        let sched = VanillaScheduler {
            dwell_s: 600.0,
            n_targets: 4,
            origin: jd(0.0),
        };
        // With ≥ 4 staggered stations, some station is tuned to sat 2.
        let passes = vec![pass(2, 0.0, 500.0)];
        let cov = sched.schedule(&passes, 4);
        assert!(!cov.is_empty());
    }

    #[test]
    fn predictive_beats_vanilla_on_coverage() {
        // A day of staggered passes from 10 satellites.
        let mut passes = Vec::new();
        for k in 0..40 {
            passes.push(pass(k % 10, k as f64 * 2_000.0, 600.0));
        }
        let pred: f64 = PredictiveScheduler
            .schedule(&passes, 3)
            .iter()
            .map(|c| c.duration_s())
            .sum();
        let vanilla: f64 = VanillaScheduler {
            dwell_s: 600.0,
            n_targets: 10,
            origin: jd(0.0),
        }
        .schedule(&passes, 3)
        .iter()
        .map(|c| c.duration_s())
        .sum();
        assert!(
            pred > 2.0 * vanilla,
            "predictive {pred} vs vanilla {vanilla}"
        );
    }

    #[test]
    fn degenerate_vanilla_configs_yield_nothing() {
        let passes = vec![pass(0, 0.0, 100.0)];
        let no_targets = VanillaScheduler {
            dwell_s: 600.0,
            n_targets: 0,
            origin: jd(0.0),
        };
        assert!(no_targets.schedule(&passes, 2).is_empty());
        let no_dwell = VanillaScheduler {
            dwell_s: 0.0,
            n_targets: 5,
            origin: jd(0.0),
        };
        assert!(no_dwell.schedule(&passes, 2).is_empty());
    }
}
