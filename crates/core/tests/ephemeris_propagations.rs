//! The shared ephemeris grids pay, proven by the tile store's own
//! count of SGP4 samples (`sweep::tile_stats`, `TILE` samples per tile
//! computed): over the active campaign's observer set, a cold run of
//! the campaign predictors of `sweep::predictor` samples at most one
//! padded, tile-rounded lattice per satellite, however many observers
//! see it, finds the same passes as the direct-SGP4 reference scan at a
//! 1 s floor, and a warm re-run through the pass cache samples nothing.
//! Once a campaign has sampled a window, any window inside it — Fig 3a's,
//! or another observer's sub-window — samples nothing either, and a
//! window one day longer samples only that day's tiles.
//!
//! The test clears and reads the process-wide stores, which any
//! prediction running in the same process would also move, so it is
//! the only test in this binary (one process per integration-test
//! file).

use satiot_core::calib::THEORETICAL_MASK_RAD;
use satiot_core::passive::theoretical_daily_hours;
use satiot_core::prelude::*;
use satiot_core::sweep::{self, GridKey};
use satiot_orbit::ephemeris::{EphemerisGrid, MAX_ELEVATION_ERROR_DEG, STEP_S, TILE};
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

/// Every (observer, satellite) pair, observer-major.
type Pairs<'a> = Vec<((&'static str, Geodetic), &'a (SatelliteDef, Sgp4))>;

/// SGP4 samples the tile store has taken since its last clear.
fn samples() -> u64 {
    sweep::tile_stats().computes * TILE as u64
}

/// Run `predict` over every pair on the sweep pool, and count the SGP4
/// samples the tile store took for it.
fn samples_of<T: Send>(
    pairs: &Pairs<'_>,
    predict: impl Fn((&'static str, Geodetic), &SatelliteDef, &Sgp4) -> T + Sync,
) -> (Vec<T>, u64) {
    let before = samples();
    let out = pool::parallel_map(pairs, |_, &(observer, (sat, sgp4))| {
        predict(observer, sat, sgp4)
    });
    (out, samples() - before)
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
    campaign_predictors_share_one_lattice_per_satellite();
    windows_inside_a_sampled_one_propagate_nothing();
}

fn campaign_predictors_share_one_lattice_per_satellite() {
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
    let (cold, cold_samples) = samples_of(&pairs, campaign);
    let (warm, warm_samples) = samples_of(&pairs, campaign);
    assert_eq!(warm_samples, 0, "the warm re-run propagated");
    assert!(cold.iter().zip(&warm).all(|(a, b)| Arc::ptr_eq(a, b)));
    sweep::clear();

    // Every observer reads its satellite's one view over the shared
    // window: at most the tiles a single view needs, per satellite.
    let lattices: u64 = sats
        .iter()
        .map(|(_, sgp4)| (EphemerisGrid::build(sgp4, start, end).tiles().len() * TILE) as u64)
        .sum();
    assert!(
        cold_samples > 0 && cold_samples <= lattices,
        "{} observers took {cold_samples} SGP4 samples, over one lattice per satellite \
         ({lattices})",
        observers.len()
    );

    // Same passes as the direct-SGP4 reference scan at a 1 s floor,
    // which skips no pass the margin sweep can report.
    let (reference, _) = samples_of(&pairs, |(_, site), _, sgp4| {
        PassPredictor::new(sgp4.clone(), site, mask).reference_passes(start, end, 1.0)
    });
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
    PassiveCampaign::new(cfg)
        .run(&RunOptions::default())
        .expect("campaign runs");
    assert!(samples() > 0, "the campaign sampled nothing");

    let before = samples();
    let hours = theoretical_daily_hours(&fossa(), &hk, 2);
    assert!(
        hours.iter().all(|h| *h > 0.0),
        "FOSSA never seen: {hours:?}"
    );
    let fig3a = samples() - before;
    assert_eq!(fig3a, 0, "Fig 3a's window inside the campaign's propagated");

    // The campaign's satellites, seen over sub- and super-windows from
    // the campaign's path (`sweep::predictor`, cull included).
    let sats = fossa_sats(campaign_epoch());
    let syd = site_by_code("SYD").expect("SYD is a measurement site");
    let passes_over = |site: Geodetic, start: JulianDate, end: JulianDate| {
        let observer = [("window", site)];
        let pairs: Pairs = sats.iter().map(|s| (observer[0], s)).collect();
        let (lists, samples) = samples_of(&pairs, |(_, site), sat, sgp4| {
            let key = GridKey::new(sat.constellation, sat.sat_id, start, end);
            sweep::predictor(key, sgp4, site, THEORETICAL_MASK_RAD)
                .map(|p| p.passes(start, end).len())
                .unwrap_or(0)
        });
        (lists.iter().sum::<usize>(), samples)
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
