//! The shared ephemeris grids pay, proven by the metrics-gated
//! `orbit.sgp4.propagate_calls` counter: over the active campaign's
//! observer set, the campaign predictors of `sweep::predictor`
//! propagate at least 3× less than the direct-SGP4 reference scan at
//! its 30 s floor, find the same passes as the reference at a 1 s
//! floor, and a warm re-run through the pass cache propagates nothing.
//! Once a campaign has sampled a window, any window inside it — Fig 3a's,
//! or another observer's sub-window — propagates nothing either, and a
//! window one day longer samples only that day's tiles.
//!
//! The test enables the process-wide metrics registry and reads that
//! counter, which any prediction running in the same process would also
//! move, so it is the only test in this binary (one process per
//! integration-test file).

use satiot_core::calib::THEORETICAL_MASK_RAD;
use satiot_core::passive::theoretical_daily_hours;
use satiot_core::prelude::*;
use satiot_core::sweep::{self, GridKey};
use satiot_obs::metrics::{self, Counter};
use satiot_orbit::ephemeris::{MAX_ELEVATION_ERROR_DEG, STEP_S, TILE};
use satiot_orbit::frames::Geodetic;
use satiot_orbit::pass::PassPredictor;
use satiot_orbit::sgp4::Sgp4;
use satiot_orbit::time::JulianDate;
use satiot_scenarios::constellations::{fossa, SatelliteDef};
use satiot_scenarios::sites::{
    campaign_epoch, site_by_code, tianqi_ground_stations, yunnan_farm, YUNNAN_FARM,
};
use satiot_sim::pool;
use std::sync::Arc;

/// Shared-slot view of `Sgp4::propagate`'s call counter (name-keyed).
static PROPAGATE_CALLS: Counter = Counter::new("orbit.sgp4.propagate_calls");

/// Every (observer, satellite) pair, observer-major.
type Pairs<'a> = Vec<((&'static str, Geodetic), &'a (SatelliteDef, Sgp4))>;

/// Run `predict` over every pair on the sweep pool, and count the SGP4
/// propagations it took.
fn propagations_of<T: Send>(
    pairs: &Pairs<'_>,
    predict: impl Fn((&'static str, Geodetic), &SatelliteDef, &Sgp4) -> T + Sync,
) -> (Vec<T>, u64) {
    let before = PROPAGATE_CALLS.value();
    let out = pool::parallel_map(pairs, |_, &(observer, (sat, sgp4))| {
        predict(observer, sat, sgp4)
    });
    (out, PROPAGATE_CALLS.value() - before)
}

/// FOSSA's catalog at `epoch`, with each satellite's propagator.
fn fossa_sats(epoch: JulianDate) -> Vec<(SatelliteDef, Sgp4)> {
    fossa()
        .catalog(epoch)
        .into_iter()
        .map(|sat| {
            let sgp4 = sat.sgp4().expect("catalog elements propagate");
            (sat, sgp4)
        })
        .collect()
}

#[test]
fn campaign_predictors_propagate_less_and_find_the_same_passes() {
    metrics::set_enabled(true);
    campaign_predictors_beat_the_reference_scan();
    windows_inside_a_sampled_one_propagate_nothing();
}

fn campaign_predictors_beat_the_reference_scan() {
    let epoch = JulianDate::from_calendar(2025, 3, 1, 0, 0, 0.0);
    let (start, end) = (epoch, epoch + 1.0);
    let mask = THEORETICAL_MASK_RAD;
    // The active campaign's observers: 12 Tianqi ground stations plus
    // the Yunnan farm, sharing each satellite's window.
    let mut observers = tianqi_ground_stations();
    observers.push((YUNNAN_FARM, yunnan_farm()));
    let sats = fossa_sats(epoch);
    let pairs: Pairs = observers
        .iter()
        .flat_map(|&o| sats.iter().map(move |s| (o, s)))
        .collect();

    // Campaign predictors through the pass cache, cold then warm.
    let campaign = |(name, site): (&'static str, Geodetic), sat: &SatelliteDef, sgp4: &Sgp4| {
        let key = PassKey::new(name, sat.constellation, sat.sat_id, start, end, mask);
        sweep::passes_for(key, || {
            let grid = GridKey::new(sat.constellation, sat.sat_id, start, end);
            sweep::predictor(grid, sgp4, site, mask)
        })
    };
    sweep::clear();
    let (cold, cold_propagations) = propagations_of(&pairs, campaign);
    let (warm, warm_propagations) = propagations_of(&pairs, campaign);
    assert_eq!(warm_propagations, 0, "the warm re-run propagated");
    assert!(cold.iter().zip(&warm).all(|(a, b)| Arc::ptr_eq(a, b)));
    sweep::clear();

    // The direct-SGP4 reference scan, no grid and no cache.
    let direct = |floor_s: f64| {
        move |(_, site): (&'static str, Geodetic), _: &SatelliteDef, sgp4: &Sgp4| {
            PassPredictor::new(sgp4.clone(), site, mask).reference_passes(start, end, floor_s)
        }
    };
    let (_, direct_propagations) = propagations_of(&pairs, direct(30.0));
    let ratio = direct_propagations as f64 / cold_propagations.max(1) as f64;
    assert!(
        ratio >= 3.0,
        "campaign predictors must propagate at least 3× less than the reference scan \
         (got {ratio:.2}×: {direct_propagations} direct, {cold_propagations} campaign)"
    );

    // Same passes as the reference scan at a 1 s floor, which skips no
    // pass the margin sweep can report.
    let (reference, _) = propagations_of(&pairs, direct(1.0));
    assert!(
        reference.iter().any(|l| !l.is_empty()),
        "the observers see no pass"
    );
    for ((observer, (sat, _)), (r, c)) in pairs.iter().zip(reference.iter().zip(&cold)) {
        let label = format!("{}-{} @ {}", sat.constellation, sat.sat_id, observer.0);
        assert_eq!(r.len(), c.len(), "{label}: pass counts differ");
        for (x, y) in r.iter().zip(c.iter()) {
            assert!(
                x.aos.seconds_since(y.aos).abs() < 0.05,
                "{label}: AOS drifted"
            );
            assert!(
                x.los.seconds_since(y.los).abs() < 0.05,
                "{label}: LOS drifted"
            );
            let d_el = (x.max_elevation_rad - y.max_elevation_rad)
                .to_degrees()
                .abs();
            assert!(
                d_el < MAX_ELEVATION_ERROR_DEG,
                "{label}: max elevation drifted {d_el}°"
            );
        }
    }
}

/// A three-day HK × FOSSA campaign samples its window's tiles; Fig 3a's
/// two-day availability and another observer's one-day sub-window then
/// read only those tiles, and a four-day window samples at most the
/// added day's tiles, padding and tile rounding included.
fn windows_inside_a_sampled_one_propagate_nothing() {
    sweep::clear();
    let hk = site_by_code("HK").expect("HK is a measurement site");
    let cfg = PassiveConfig {
        max_days: 3.0,
        sites: vec![hk.clone()],
        constellations: vec![fossa()],
        ..Default::default()
    };
    let before = PROPAGATE_CALLS.value();
    PassiveCampaign::new(cfg)
        .run(&RunOptions::default())
        .expect("campaign runs");
    assert!(
        PROPAGATE_CALLS.value() > before,
        "the campaign sampled nothing"
    );

    let before = PROPAGATE_CALLS.value();
    let hours = theoretical_daily_hours(&fossa(), &hk, 2);
    assert!(
        hours.iter().all(|h| *h > 0.0),
        "FOSSA never seen: {hours:?}"
    );
    let fig3a = PROPAGATE_CALLS.value() - before;
    assert_eq!(fig3a, 0, "Fig 3a's window inside the campaign's propagated");

    // The campaign's satellites, seen over sub- and super-windows from
    // the campaign's path (`sweep::predictor`, cull included).
    let sats = fossa_sats(campaign_epoch());
    let syd = site_by_code("SYD").expect("SYD is a measurement site");
    let passes_over = |site: Geodetic, start: JulianDate, end: JulianDate| {
        let observer = [("window", site)];
        let pairs: Pairs = sats.iter().map(|s| (observer[0], s)).collect();
        let (lists, propagations) = propagations_of(&pairs, |(_, site), sat, sgp4| {
            let key = GridKey::new(sat.constellation, sat.sat_id, start, end);
            sweep::predictor(key, sgp4, site, THEORETICAL_MASK_RAD)
                .map(|p| p.passes(start, end).len())
                .unwrap_or(0)
        });
        (lists.iter().sum::<usize>(), propagations)
    };
    let (passes, sub_window) = passes_over(syd.geodetic(), hk.start() + 1.0, hk.start() + 2.0);
    assert!(passes > 0, "SYD sees no FOSSA pass in a day");
    assert_eq!(sub_window, 0, "a one-day sub-window from SYD propagated");

    let (passes, extended) = passes_over(hk.geodetic(), hk.start(), hk.start() + 4.0);
    assert!(passes > 0);
    let day_of_tiles = (sats.len() * ((86_400.0 / STEP_S) as usize + 2 * TILE)) as u64;
    assert!(
        extended > 0 && extended <= day_of_tiles,
        "a one-day extension propagated {extended} samples, over the {day_of_tiles} bound"
    );
    sweep::clear();
}
