//! The shared ephemeris grids pay, proven by the process-wide
//! `orbit.sgp4.propagations` counter: over the active campaign's
//! observer set, the campaign predictors of `sweep::predictor`
//! propagate at least 3× less than direct-SGP4 predictors, find the
//! same passes, and a warm re-run through the pass cache propagates
//! nothing.
//!
//! The test resets and reads that counter, which any prediction running
//! in the same process would also move, so it is the only test in this
//! binary (one process per integration-test file).

use satiot_core::calib::THEORETICAL_MASK_RAD;
use satiot_core::sweep::{self, GridKey, PassKey};
use satiot_orbit::ephemeris::MAX_ELEVATION_ERROR_DEG;
use satiot_orbit::frames::Geodetic;
use satiot_orbit::pass::PassPredictor;
use satiot_orbit::sgp4::{self, Sgp4};
use satiot_orbit::time::JulianDate;
use satiot_scenarios::constellations::{fossa, SatelliteDef};
use satiot_scenarios::sites::{tianqi_ground_stations, yunnan_farm};
use satiot_sim::pool;
use std::sync::Arc;

/// Every (observer, satellite) pair, observer-major.
type Pairs<'a> = Vec<((&'static str, Geodetic), &'a (SatelliteDef, Sgp4))>;

/// Run `predict` over every pair on the sweep pool, and count the SGP4
/// propagations it took.
fn propagations_of<T: Send>(
    pairs: &Pairs<'_>,
    predict: impl Fn((&'static str, Geodetic), &SatelliteDef, &Sgp4) -> T + Sync,
) -> (Vec<T>, u64) {
    sgp4::reset_propagations();
    let out = pool::parallel_map(pairs, |_, &(observer, (sat, sgp4))| {
        predict(observer, sat, sgp4)
    });
    (out, sgp4::propagations())
}

#[test]
fn campaign_predictors_propagate_less_and_find_the_same_passes() {
    let epoch = JulianDate::from_calendar(2025, 3, 1, 0, 0, 0.0);
    let (start, end) = (epoch, epoch + 1.0);
    let mask = THEORETICAL_MASK_RAD;
    // The active campaign's observers: 12 Tianqi ground stations plus
    // the Yunnan farm, sharing each satellite's window.
    let mut observers = tianqi_ground_stations();
    observers.push(("YUNNAN_FARM", yunnan_farm()));
    let sats: Vec<(SatelliteDef, Sgp4)> = fossa()
        .catalog(epoch)
        .into_iter()
        .map(|sat| {
            let sgp4 = sat.sgp4().expect("catalog elements propagate");
            (sat, sgp4)
        })
        .collect();
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

    // Default direct-SGP4 predictors, no grid and no cache.
    let direct = |step_s: f64| {
        move |(_, site): (&'static str, Geodetic), _: &SatelliteDef, sgp4: &Sgp4| {
            let mut predictor = PassPredictor::new(sgp4.clone(), site, mask);
            predictor.coarse_step_s = step_s;
            predictor.passes(start, end)
        }
    };
    let (_, direct_propagations) = propagations_of(&pairs, direct(30.0));
    let ratio = direct_propagations as f64 / cold_propagations.max(1) as f64;
    assert!(
        ratio >= 3.0,
        "campaign predictors must propagate at least 3× less than direct ones \
         (got {ratio:.2}×: {direct_propagations} direct, {cold_propagations} campaign)"
    );

    // Same passes as a direct reference whose 1 s scan floor skips no
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
