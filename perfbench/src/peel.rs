//! The passive predict phase, peeled layer by layer.
//!
//! `PassiveCampaign::run` predicts every (site, satellite) pass list
//! through the shared caches and then simulates. The traced run calls
//! each layer of that predict phase first, through its public entry
//! point, so each layer's time is measured from outside:
//!
//! 1. `sweep::grid_for` with `EphemerisGrid::build` for every
//!    (satellite, site window): the ephemeris layer;
//! 2. the latitude-band and footprint-cone tests of `orbit::cull`;
//! 3. `VisibilitySweep::run` over each grid: the coarse scan alone;
//! 4. `sweep::passes_for` with `predictor_with_mode`: cull, scan and
//!    refinement, filling the pass cache;
//! 5. `PassiveCampaign::run`, which is then left with simulate and sink.
//!
//! Each step proves from the cache compute counters of the step after
//! it that it filled its layer; a failed proof marks the layer as not
//! separable and fails the repetition.

use crate::probe::{self, Span};
use crate::trace::Trace;
use satiot_core::calib::THEORETICAL_MASK_RAD;
use satiot_core::prelude::*;
use satiot_core::sweep::{self, GridKey};
use satiot_orbit::cull;
use satiot_orbit::ephemeris::EphemerisGrid;
use satiot_orbit::frames::Geodetic;
use satiot_orbit::sgp4::Sgp4;
use satiot_orbit::time::JulianDate;
use satiot_orbit::topo::Observer;
use satiot_orbit::visibility::VisibilitySweep;
use satiot_scenarios::sites::campaign_epoch;
use satiot_sim::pool;

/// One site with the scan window the campaign derives for it.
pub struct PlanSite {
    pub code: &'static str,
    pub geodetic: Geodetic,
    pub start: JulianDate,
    pub end: JulianDate,
}

/// One catalog satellite with its propagator.
pub struct PlanSat {
    pub constellation: &'static str,
    pub sat_id: u32,
    pub sgp4: Sgp4,
}

/// The (site, satellite) pair matrix of one passive configuration.
pub struct Plan {
    pub sites: Vec<PlanSite>,
    pub sats: Vec<PlanSat>,
    /// Distinct site windows, in first-use order.
    windows: Vec<(JulianDate, JulianDate)>,
    /// Index into `windows` of each site's window.
    site_window: Vec<usize>,
}

impl Plan {
    /// Flatten `cfg` the way the campaign does: satellites in catalog
    /// order from the campaign epoch, and each site scanned from its
    /// start over its active days capped at `max_days`.
    pub fn new(cfg: &PassiveConfig) -> Plan {
        let sites: Vec<PlanSite> = cfg
            .sites
            .iter()
            .map(|site| {
                let start = site.start();
                PlanSite {
                    code: site.code,
                    geodetic: site.geodetic(),
                    start,
                    end: start + site.active_days().min(cfg.max_days),
                }
            })
            .collect();
        let sats = cfg
            .constellations
            .iter()
            .flat_map(|spec| spec.catalog(campaign_epoch()))
            .map(|def| PlanSat {
                constellation: def.constellation,
                sat_id: def.sat_id,
                sgp4: def.sgp4().expect("catalog elements propagate"),
            })
            .collect();
        let mut windows: Vec<(JulianDate, JulianDate)> = Vec::new();
        let site_window = sites
            .iter()
            .map(|s| {
                let bits = |w: &(JulianDate, JulianDate)| (w.0 .0.to_bits(), w.1 .0.to_bits());
                let window = (s.start, s.end);
                match windows.iter().position(|w| bits(w) == bits(&window)) {
                    Some(i) => i,
                    None => {
                        windows.push(window);
                        windows.len() - 1
                    }
                }
            })
            .collect();
        Plan {
            sites,
            sats,
            windows,
            site_window,
        }
    }

    /// Every (site, satellite) pair, site-major like the campaign.
    pub fn pairs(&self) -> Vec<(usize, usize)> {
        (0..self.sites.len())
            .flat_map(|s| (0..self.sats.len()).map(move |q| (s, q)))
            .collect()
    }

    /// Every distinct (window, satellite) grid.
    pub fn grids(&self) -> Vec<(usize, usize)> {
        (0..self.windows.len())
            .flat_map(|w| (0..self.sats.len()).map(move |q| (w, q)))
            .collect()
    }

    /// The grid key of one (window, satellite).
    fn window_key(&self, window: usize, sat: usize) -> GridKey {
        let ((start, end), q) = (self.windows[window], &self.sats[sat]);
        GridKey::new(q.constellation, q.sat_id, start, end)
    }

    /// The grid key of one (site, satellite) pair.
    pub fn grid_key(&self, site: usize, sat: usize) -> GridKey {
        self.window_key(self.site_window[site], sat)
    }

    /// The pass-cache key of one pair.
    pub fn pass_key(&self, site: usize, sat: usize) -> PassKey {
        let (s, q) = (&self.sites[site], &self.sats[sat]);
        PassKey::new(
            s.code,
            q.constellation,
            q.sat_id,
            s.start,
            s.end,
            THEORETICAL_MASK_RAD,
        )
    }

    /// The shared grid of one (window, satellite), built if absent.
    fn grid(&self, window: usize, sat: usize) -> std::sync::Arc<EphemerisGrid> {
        let key = self.window_key(window, sat);
        let (start, end) = key.range();
        sweep::grid_for(key, || {
            EphemerisGrid::build(&self.sats[sat].sgp4, start, end)
        })
    }
}

/// Steps 1 to 4: fill the grid store and the pass cache layer by layer.
pub fn predict(plan: &Plan, trace: &mut Trace) {
    let threads = trace.threads;
    let pairs = plan.pairs();
    let mask = THEORETICAL_MASK_RAD;

    // 1. Ephemeris.
    let grids = plan.grids();
    let (g0, c0) = (sweep::grid_stats(), probe::counters());
    let (_, span) =
        trace.step(|| pool::parallel_map_with(&grids, threads, |_, &(w, q)| plan.grid(w, q)));
    let (g1, c1) = (sweep::grid_stats(), probe::counters());
    trace.set_span("orbit.ephemeris.build", span);
    trace.set(
        "orbit.ephemeris.grids_built",
        (g1.computes - g0.computes) as f64,
    );
    let samples = probe::delta(&c0, &c1, "orbit.ephemeris.grid_samples");
    trace.set("orbit.ephemeris.grid_samples", samples as f64);
    let propagations = probe::delta(&c0, &c1, "orbit.sgp4.propagate_calls");
    trace.set("orbit.sgp4.propagations", propagations as f64);
    trace.set("orbit.ephemeris.grid_bytes", g1.approx_bytes as f64);

    // 2. Cull, on its own: the same two tests `predictor_with_mode`
    // applies, reading the grids step 1 stored.
    let (kept, cull_span) = trace.step(|| {
        pool::parallel_map_with(&pairs, threads, |_, &(s, q)| {
            let (site, sat) = (&plan.sites[s], &plan.sats[q]);
            let sgp4 = &sat.sgp4;
            !cull::never_in_latitude_band(
                site.geodetic,
                sgp4.inclination_rad(),
                sgp4.apogee_radius_km(),
                mask,
            ) && !cull::cone_clears_grid(
                &plan.grid(plan.site_window[s], q),
                site.geodetic,
                mask,
                site.start,
                site.end,
            )
        })
    });
    let kept_pairs = kept.iter().filter(|k| **k).count();
    let g2 = sweep::grid_stats();
    trace.prove("orbit.ephemeris", g2.computes == g1.computes, || {
        format!("the cull step built {} grids", g2.computes - g1.computes)
    });
    trace.set("orbit.cull.s", cull_span.wall_s);

    // 3. Coarse scan alone: one sweep per grid over its kept observers.
    let n_sats = plan.sats.len();
    let scans: Vec<(usize, usize, Vec<usize>)> = grids
        .iter()
        .map(|&(w, q)| {
            let observers: Vec<usize> = (0..plan.sites.len())
                .filter(|&s| plan.site_window[s] == w && kept[s * n_sats + q])
                .collect();
            (w, q, observers)
        })
        .filter(|(_, _, observers)| !observers.is_empty())
        .collect();
    let (_, scan_span) = trace.step(|| {
        pool::parallel_map_with(&scans, threads, |_, (w, q, observers)| {
            let mut arena = VisibilitySweep::new();
            for &s in observers {
                arena.push(&Observer::new(plan.sites[s].geodetic), mask);
            }
            let (start, end) = plan.windows[*w];
            arena
                .run(&plan.grid(*w, *q), start, end, VisibilityMode::On)
                .map_or(0, |outcomes| {
                    outcomes.iter().map(|o| o.events.len()).sum::<usize>()
                })
        })
    });
    trace.set("orbit.visibility.scan_s", scan_span.wall_s);

    // 4. Cull + scan + refinement through the pass cache.
    let (p3, g3, k3, c3) = (
        sweep::stats(),
        sweep::grid_stats(),
        cull::stats(),
        probe::counters(),
    );
    let (lists, span) = trace.step(|| {
        pool::parallel_map_with(&pairs, threads, |_, &(s, q)| {
            sweep::passes_for(plan.pass_key(s, q), || {
                sweep::predictor_with_mode(
                    EphemerisMode::On,
                    VisibilityMode::On,
                    CullingMode::On,
                    plan.grid_key(s, q),
                    &plan.sats[q].sgp4,
                    plan.sites[s].geodetic,
                    mask,
                )
            })
        })
    });
    let (p4, g4, k4, c4) = (
        sweep::stats(),
        sweep::grid_stats(),
        cull::stats(),
        probe::counters(),
    );
    trace.prove("orbit.ephemeris", g4.computes == g3.computes, || {
        format!("the predict step built {} grids", g4.computes - g3.computes)
    });
    let kept_by_campaign_path = k4.pairs_kept - k3.pairs_kept;
    trace.prove(
        "orbit.cull",
        kept_by_campaign_path == kept_pairs as u64,
        || format!("the cull step kept {kept_pairs} pairs, the predictor {kept_by_campaign_path}"),
    );
    let considered = k4.pairs_considered - k3.pairs_considered;
    trace.set("orbit.cull.pairs_considered", considered as f64);
    trace.set(
        "orbit.cull.kept_ratio",
        kept_by_campaign_path as f64 / considered.max(1) as f64,
    );
    let margins = probe::delta(&c3, &c4, "orbit.visibility.margins");
    trace.set("orbit.visibility.margins", margins as f64);
    let events = probe::delta(&c3, &c4, "orbit.visibility.events");
    trace.set("orbit.visibility.events", events as f64);
    trace.set("orbit.pass.predict_s", span.wall_s);
    // Derived, not measured: predict time minus the separately timed
    // cull and coarse scan.
    trace.set(
        "orbit.pass.refine_s",
        span.wall_s - cull_span.wall_s - scan_span.wall_s,
    );
    let passes: usize = lists.iter().map(|l| l.len()).sum();
    trace.set("orbit.pass.passes_predicted", passes as f64);
    trace.set("orbit.pass.computes", (p4.computes - p3.computes) as f64);
}

/// Step 5: the campaign itself. In the traced run it must find every
/// pass list and grid cached, leaving simulate and sink.
pub fn campaign(
    cfg: PassiveConfig,
    opts: &RunOptions,
    trace: &mut Trace,
) -> Result<(PassiveResults, Span), SatIotError> {
    let (p0, g0, c0) = (sweep::stats(), sweep::grid_stats(), probe::counters());
    let (results, span) = trace.step(|| PassiveCampaign::new(cfg).run(opts));
    let results = results?;
    let (p1, g1, c1) = (sweep::stats(), sweep::grid_stats(), probe::counters());
    trace.prove("orbit.pass", p1.computes == p0.computes, || {
        format!(
            "the campaign predicted {} pass lists",
            p1.computes - p0.computes
        )
    });
    trace.prove("orbit.ephemeris", g1.computes == g0.computes, || {
        format!("the campaign built {} grids", g1.computes - g0.computes)
    });
    trace.set_span("core.passive.simulate", span);
    let emitted = probe::delta(&c0, &c1, "core.passive.beacons_emitted");
    let decoded = probe::delta(&c0, &c1, "core.passive.beacons_decoded");
    trace.set("core.passive.beacons_emitted", emitted as f64);
    trace.set(
        "core.passive.decode_ratio",
        decoded as f64 / emitted.max(1) as f64,
    );
    let samples = probe::delta(&c0, &c1, "channel.budget.samples");
    trace.set("channel.budget.samples", samples as f64);
    trace.set("measure.sink.traces_emitted", results.sink.emitted as f64);
    trace.set("measure.sink.traces_retained", results.sink.retained as f64);
    Ok((results, span))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The pass cache and grid store are process-wide and these tests
    /// read their compute deltas, so they run one at a time.
    static CACHES: Mutex<()> = Mutex::new(());

    fn tiny(max_days: f64) -> PassiveConfig {
        let spec = ScenarioSpec {
            max_days: Some(max_days),
            sites: ["HK", "SYD"]
                .map(|c| SiteRef::Named(c.to_string()))
                .to_vec(),
            constellations: vec![ConstellationRef::Named("Tianqi".to_string())],
            ..ScenarioSpec::paper_passive()
        };
        PassiveConfig::from_scenario(&spec.build().expect("tiny scenario resolves"))
    }

    fn peel_then_run(plan_days: f64, run_days: f64) -> Trace {
        let _caches = CACHES.lock().expect("no test panicked holding the caches");
        sweep::clear();
        let opts = RunOptions::default().with_threads(Some(2));
        let mut trace = Trace::new(true, 2);
        predict(&Plan::new(&tiny(plan_days)), &mut trace);
        campaign(tiny(run_days), &opts, &mut trace).expect("tiny campaign runs");
        trace
    }

    fn metric(trace: &Trace, name: &str) -> f64 {
        let found = trace.metrics.iter().find(|(k, _)| k == name);
        found
            .map(|(_, v)| *v)
            .unwrap_or_else(|| panic!("{name} not recorded"))
    }

    #[test]
    fn derived_keys_leave_the_campaign_nothing_to_compute() {
        let trace = peel_then_run(0.25, 0.25);
        assert!(trace.broken.is_empty(), "{:?}", trace.broken);
        let pairs = 2.0 * tiny(0.25).constellations[0].catalog(campaign_epoch()).len() as f64;
        assert_eq!(metric(&trace, "orbit.pass.computes"), pairs);
        assert_eq!(metric(&trace, "orbit.cull.pairs_considered"), pairs);
        assert!(metric(&trace, "orbit.ephemeris.grids_built") > 0.0);
    }

    #[test]
    fn keys_for_another_window_are_reported_not_separable() {
        let trace = peel_then_run(0.125, 0.25);
        let broken = trace.broken.join("; ");
        assert!(broken.contains("orbit.pass not separable"), "{broken}");
        assert!(broken.contains("orbit.ephemeris not separable"), "{broken}");
    }
}
