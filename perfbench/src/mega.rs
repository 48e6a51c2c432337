//! `mega_shell`: a 10×36 Walker shell (600 km, 53°) over 200 inline
//! equal-area sites for two days, run cold through the passive
//! campaign. Cull, coarse scan and refinement over 72 000 pairs
//! dominate; it is the workload where scenario resolution and the
//! cull counters do real work.

use crate::checks::{self, Ops};
use crate::peel::{self, Plan};
use crate::probe;
use crate::trace::Trace;
use crate::{setup_median, Ctx, Outcome};
use satiot_core::calib::THEORETICAL_MASK_RAD;
use satiot_core::prelude::*;
use satiot_core::sweep;
use satiot_orbit::cull;
use satiot_scenarios::sites::Climate;
use satiot_scenarios::walker::{single_sat_visibility_fraction, WalkerConstellation, WalkerShell};
use std::f64::consts::TAU;

const SHELL: WalkerShell = WalkerShell {
    planes: 10,
    sats_per_plane: 36,
    altitude_km: 600.0,
    inclination_deg: 53.0,
    phasing: 1,
};
const SITES: usize = 200;
const DAYS: f64 = 2.0;
/// Golden angle, radians: successive site longitudes step by it.
const GOLDEN_ANGLE: f64 = 2.399_963_229_728_653;

/// The scenario: equal-area latitudes (uniform in sin φ) and
/// golden-angle longitudes, all rotated by a seed-derived offset.
pub fn spec(seed: u64) -> ScenarioSpec {
    let jitter = (seed as f64 * GOLDEN_ANGLE).rem_euclid(TAU);
    let sites = (0..SITES)
        .map(|k| {
            let z = 1.0 - 2.0 * (k as f64 + 0.5) / SITES as f64;
            let lon = (k as f64 * GOLDEN_ANGLE + jitter).rem_euclid(TAU) - TAU / 2.0;
            SiteRef::Inline(SiteSpec {
                code: format!("M{k:03}"),
                name: format!("mega site {k}"),
                lat_deg: z.asin().to_degrees(),
                lon_deg: lon.to_degrees(),
                alt_km: 0.0,
                stations: 1,
                start_day: 0.0,
                climate: Climate::Subtropical,
                track: None,
            })
        })
        .collect();
    ScenarioSpec {
        name: "mega_shell".to_string(),
        seed: Some(seed),
        max_days: Some(DAYS),
        constellations: vec![ConstellationRef::Inline {
            walker: WalkerConstellation {
                name: "MEGA".to_string(),
                shells: vec![SHELL],
                frequency_mhz: 868.0,
                beacon_interval_s: 60.0,
            },
            tx_power_dbm: 22.0,
        }],
        sites,
        ..ScenarioSpec::paper_passive()
    }
}

fn setup(seed: u64) -> ((PassiveConfig, Plan), f64) {
    let spec = spec(seed);
    let (scenario, build) = probe::timed(|| spec.build().expect("mega-shell scenario resolves"));
    let cfg = PassiveConfig::from_scenario(&scenario);
    let plan = Plan::new(&cfg);
    ((cfg, plan), build.wall_s)
}

/// Per-site mean per-satellite visible fraction, read back from the
/// pass cache under the keys the plan derives. Returns the fractions
/// and how many lookups missed the cache.
pub fn visible_fractions(plan: &Plan) -> (Vec<f64>, u64) {
    let before = sweep::stats().computes;
    let fractions = (0..plan.sites.len())
        .map(|s| {
            let site = &plan.sites[s];
            let window_s = site.end.seconds_since(site.start);
            let visible: f64 = (0..plan.sats.len())
                .map(|q| {
                    let passes = sweep::passes_for(plan.pass_key(s, q), || None);
                    passes.iter().map(|p| p.duration_s()).sum::<f64>()
                })
                .sum();
            visible / (window_s * plan.sats.len() as f64)
        })
        .collect();
    (fractions, sweep::stats().computes - before)
}

pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let ((cfg, plan), setup_s, build_s) = setup_median(|| setup(ctx.seed));
    let mut trace = Trace::new(ctx.traced, ctx.threads);
    trace.set("scenarios.build_s", build_s);
    let pairs = (plan.sites.len() * plan.sats.len()) as u64;
    let full_scale = cfg.max_days == DAYS && pairs == SITES as u64 * SHELL.count() as u64;

    let k0 = cull::stats();
    let (result, measured) = probe::timed(|| {
        if trace.on {
            peel::predict(&plan, &mut trace);
        }
        peel::campaign(cfg, ctx.opts, &mut trace)
    });
    result.map_err(|e| format!("passive: {e}"))?;
    trace.coverage(measured);
    let k1 = cull::stats();
    let counted = cull::CullStats {
        pairs_considered: k1.pairs_considered - k0.pairs_considered,
        pairs_culled_lat_band: k1.pairs_culled_lat_band - k0.pairs_culled_lat_band,
        pairs_culled_cone: k1.pairs_culled_cone - k0.pairs_culled_cone,
        pairs_kept: k1.pairs_kept - k0.pairs_kept,
    };

    let (fractions, missed) = visible_fractions(&plan);
    let mut ops = Ops::default();
    ops.op(
        "campaign",
        [
            checks::scale("mega_shell", full_scale),
            checks::pairs_balance(&counted, pairs),
            (missed > 0).then(|| format!("{missed} derived pass keys missed the campaign's cache")),
        ],
    );
    let incl = SHELL.inclination_deg.to_radians();
    for (site, p_sim) in plan.sites.iter().zip(fractions) {
        let p_theory = single_sat_visibility_fraction(
            site.geodetic.lat_rad,
            incl,
            SHELL.altitude_km,
            THEORETICAL_MASK_RAD,
        );
        ops.op(
            format!("visibility {}", site.code),
            [checks::visible_fraction(site.code, p_sim, p_theory)],
        );
    }
    Ok(Outcome {
        setup_s,
        measured,
        jobs: 1,
        ops,
        trace,
    })
}
