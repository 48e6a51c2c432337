//! Output checks that feed `fail_ratio`.
//!
//! Each check is a tolerance band on a result, not a bit-exact digest:
//! a change that moves pass times within the ephemeris accuracy
//! contract must still pass. A check returns `None` when it holds and a
//! one-line reason when it does not.

use satiot_core::sweep_server::{CacheAttribution, JobRecord, SweepOutcome};
use satiot_measure::sketch::TraceAggregate;
use satiot_orbit::cull::CullStats;

/// The operations of one repetition and the check failures of each.
#[derive(Debug, Default)]
pub struct Ops(pub Vec<(String, Vec<String>)>);

impl Ops {
    /// Record one operation with the outcome of every check on it.
    pub fn op(
        &mut self,
        name: impl Into<String>,
        checks: impl IntoIterator<Item = Option<String>>,
    ) {
        let failures = checks.into_iter().flatten().collect();
        self.0.push((name.into(), failures));
    }

    /// Operations with at least one failed check.
    pub fn failed(&self) -> usize {
        self.0.iter().filter(|(_, f)| !f.is_empty()).count()
    }
}

fn fail_unless(holds: bool, why: impl FnOnce() -> String) -> Option<String> {
    (!holds).then(why)
}

/// Effective windows are much shorter than theoretical ones (§3.1),
/// per covered window and per day.
pub fn windows_shrink(constellation: &str, covered: f64, daily: f64) -> Option<String> {
    fail_unless(covered > 0.6 && daily > 0.8, || {
        format!("{constellation}: window shrink {covered:.3} per window, {daily:.3} per day")
    })
}

/// Measured inter-contact intervals are several times the theoretical.
pub fn intervals_expand(expansion: f64) -> Option<String> {
    fail_unless(expansion > 2.0, || {
        format!("interval expansion only {expansion:.2}x")
    })
}

/// More than half of the beacons inside covered windows are lost.
pub fn beacons_mostly_lost(received: u64, transmitted: u64) -> Option<String> {
    fail_unless(transmitted > 0 && 2 * received < transmitted, || {
        format!("{received} of {transmitted} beacons received")
    })
}

/// Retransmissions lift reliability above the no-retransmission run.
pub fn retx_lifts_reliability(with_retx: f64, without: f64) -> Option<String> {
    fail_unless(with_retx > without && without > 0.5, || {
        format!("reliability {with_retx:.3} with retransmissions, {without:.3} without")
    })
}

/// Satellite latency is hundreds of times the terrestrial one.
pub fn latency_ratio(sat_min: f64, terrestrial_min: f64) -> Option<String> {
    let ratio = sat_min / terrestrial_min;
    fail_unless(ratio > 100.0, || format!("latency ratio only {ratio:.1}x"))
}

/// Every cached entry was computed exactly once this process.
pub fn exactly_once(what: &str, computes: u64, entries: usize) -> Option<String> {
    fail_unless(computes == entries as u64, || {
        format!("{what}: {computes} computes for {entries} entries")
    })
}

/// The run had the intended scale.
pub fn scale(what: &str, holds: bool) -> Option<String> {
    fail_unless(holds, || {
        format!("{what} did not run at the intended scale")
    })
}

/// A warm job looked its pass lists up and found every one, and every
/// grid, cached.
pub fn warm_job(tag: &str, cache: &CacheAttribution) -> Option<String> {
    let holds = cache.pass_lookups > 0 && cache.pass_computes == 0 && cache.grid_computes == 0;
    fail_unless(holds, || {
        format!(
            "warm job {tag}: {} pass lookups, {} pass lists and {} grids computed",
            cache.pass_lookups, cache.pass_computes, cache.grid_computes
        )
    })
}

/// The merged sketch equals the merge of the per-job sketches.
pub fn sketch_merges(outcome: &SweepOutcome) -> Option<String> {
    let mut folded = TraceAggregate::new();
    for sketch in outcome.records.iter().filter_map(|r| r.sketch.as_ref()) {
        folded.merge(sketch);
    }
    fail_unless(folded == outcome.merged, || {
        "merged sketch differs from the merge of the job sketches".to_string()
    })
}

/// Every checkpoint reloads and carries the results its job produced.
pub fn checkpoints_reverify(original: &[JobRecord], resumed: &SweepOutcome) -> Option<String> {
    let all_resumed = resumed.jobs_resumed == original.len()
        && resumed.records.iter().all(|r| r.resumed)
        && resumed.records.len() == original.len();
    let same = all_resumed
        && original
            .iter()
            .zip(&resumed.records)
            .all(|(a, b)| a.same_results(b));
    fail_unless(same, || {
        format!(
            "{} of {} checkpoints resumed with identical results",
            resumed.jobs_resumed,
            original.len()
        )
    })
}

/// The cull counters balance: every decision culled or kept its pair,
/// and the campaign consulted the cull for every pair the same whole
/// number of times (its predict and simulate phases each build a
/// predictor per pair).
pub fn pairs_balance(stats: &CullStats, pairs: u64) -> Option<String> {
    let considered = stats.pairs_considered;
    fail_unless(
        pairs > 0
            && considered > 0
            && considered.is_multiple_of(pairs)
            && stats.pairs_culled() + stats.pairs_kept == considered,
        || {
            format!(
                "{considered} pairs considered for {pairs} pairs, {} culled + {} kept",
                stats.pairs_culled(),
                stats.pairs_kept
            )
        },
    )
}

/// The per-satellite visible fraction at one site agrees with the
/// closed form within 25 % where the closed form predicts meaningful
/// coverage (at least 1e-3), the band `exp_megascale` uses. Below that
/// the site sits at the edge of the shell's latitude band, where the
/// closed form's spherical geometry and the sampled window leave only
/// brief grazing passes, so the simulation must stay below 2e-3.
pub fn visible_fraction(site: &str, simulated: f64, theory: f64) -> Option<String> {
    let holds = if theory < 1e-3 {
        (0.0..2e-3).contains(&simulated)
    } else {
        ((simulated - theory) / theory).abs() <= 0.25
    };
    fail_unless(holds, || {
        format!("{site}: visible fraction {simulated:.5} against closed form {theory:.5}")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use satiot_core::sweep_server::SweepJob;
    use satiot_measure::sketch::TraceAggregate;
    use satiot_measure::trace::BeaconTrace;

    #[test]
    fn paper_shape_checks_reject_perturbed_results() {
        assert!(windows_shrink("Tianqi", 0.8, 0.9).is_none());
        assert!(windows_shrink("Tianqi", 0.5, 0.9).is_some());
        assert!(windows_shrink("Tianqi", 0.8, 0.7).is_some());
        assert!(intervals_expand(6.0).is_none());
        assert!(intervals_expand(1.5).is_some());
        assert!(beacons_mostly_lost(40, 100).is_none());
        assert!(beacons_mostly_lost(60, 100).is_some());
        assert!(beacons_mostly_lost(0, 0).is_some());
        assert!(retx_lifts_reliability(0.96, 0.91).is_none());
        assert!(retx_lifts_reliability(0.90, 0.91).is_some());
        assert!(latency_ratio(135.0, 0.2).is_none());
        assert!(latency_ratio(10.0, 0.2).is_some());
        assert!(exactly_once("grids", 5, 5).is_none());
        assert!(exactly_once("grids", 6, 5).is_some());
        assert!(scale("passive", true).is_none());
        assert!(scale("passive", false).is_some());
    }

    #[test]
    fn sweep_checks_reject_perturbed_results() {
        let cold = CacheAttribution {
            pass_lookups: 4,
            pass_computes: 4,
            grid_lookups: 2,
            grid_computes: 2,
        };
        let warm = CacheAttribution {
            pass_computes: 0,
            grid_computes: 0,
            ..cold
        };
        assert!(warm_job("w", &warm).is_none());
        assert!(warm_job("w", &cold).is_some());
        assert!(warm_job("w", &CacheAttribution::default()).is_some());

        let record = |seed: u64, sketch: TraceAggregate| JobRecord {
            job: SweepJob::new(format!("j{seed}"), seed),
            fingerprint: seed,
            rng_state: [seed; 4],
            resumed: false,
            traces_total: 0,
            emitted: 0,
            faults: 0,
            constellations: Vec::new(),
            cache: CacheAttribution::default(),
            sketch: Some(sketch),
        };
        let trace = |constellation: &str, rssi_dbm: f64| BeaconTrace {
            time_s: 0.0,
            site: "HK".to_string(),
            station: 0,
            constellation: constellation.to_string(),
            sat_id: 1,
            rssi_dbm,
            snr_db: 3.0,
            elevation_deg: 40.0,
            distance_km: 1_000.0,
            doppler_hz: 0.0,
            weather: "sunny",
        };
        let mut a = TraceAggregate::new();
        a.observe(&trace("Tianqi", -120.0));
        let mut b = TraceAggregate::new();
        b.observe(&trace("FOSSA", -125.0));
        let mut merged = TraceAggregate::new();
        merged.merge(&a);
        merged.merge(&b);
        let mut outcome = SweepOutcome {
            records: vec![record(1, a), record(2, b)],
            merged,
            jobs_run: 2,
            ..SweepOutcome::default()
        };
        assert!(sketch_merges(&outcome).is_none());
        let original = outcome.records.clone();
        let mut resumed = outcome.clone();
        resumed.jobs_resumed = 2;
        resumed.records.iter_mut().for_each(|r| r.resumed = true);
        assert!(checkpoints_reverify(&original, &resumed).is_none());
        resumed.records[1].emitted += 1;
        assert!(checkpoints_reverify(&original, &resumed).is_some());
        resumed.records[1].emitted -= 1;
        resumed.jobs_resumed = 1;
        assert!(checkpoints_reverify(&original, &resumed).is_some());
        outcome.merged = TraceAggregate::new();
        assert!(sketch_merges(&outcome).is_some());
    }

    #[test]
    fn mega_shell_checks_reject_perturbed_results() {
        let stats = CullStats {
            pairs_considered: 10,
            pairs_culled_lat_band: 4,
            pairs_culled_cone: 3,
            pairs_kept: 3,
        };
        assert!(pairs_balance(&stats, 10).is_none());
        assert!(pairs_balance(&stats, 5).is_none());
        assert!(pairs_balance(&stats, 4).is_some());
        assert!(pairs_balance(&stats, 0).is_some());
        let unbalanced = CullStats {
            pairs_kept: 2,
            ..stats
        };
        assert!(pairs_balance(&unbalanced, 10).is_some());
        let untouched = CullStats {
            pairs_considered: 0,
            pairs_culled_lat_band: 0,
            pairs_culled_cone: 0,
            pairs_kept: 0,
        };
        assert!(pairs_balance(&untouched, 10).is_some());
        assert!(visible_fraction("S", 0.11, 0.10).is_none());
        assert!(visible_fraction("S", 0.13, 0.10).is_some());
        assert!(visible_fraction("S", 0.07, 0.10).is_some());
        assert!(visible_fraction("S", 0.0, 0.0).is_none());
        assert!(visible_fraction("S", 0.001, 0.0).is_none());
        assert!(visible_fraction("S", 0.003, 0.0).is_some());
        assert!(visible_fraction("S", f64::NAN, 0.10).is_some());
    }
}
