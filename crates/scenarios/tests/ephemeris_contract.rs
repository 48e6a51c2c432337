//! The ephemeris accuracy contract over every satellite of the four
//! Table-3 constellations, seen from two well-separated observers (Hong
//! Kong and Sydney) for one day:
//!
//! 1. each satellite's [`EphemerisGrid`] holds the position half of the
//!    contract against direct SGP4 ([`EphemerisGrid::validate`]);
//! 2. the gridded predictor agrees pass for pass with the direct-SGP4
//!    reference scan: AOS/LOS within the refinement tolerance,
//!    culmination elevation within
//!    [`MAX_ELEVATION_ERROR_DEG`], and TCA within the flat-peak
//!    tolerance (a 0.01° elevation perturbation can slide the argmax of
//!    a grazing pass by seconds without moving its height). The gridded
//!    predictor brackets crossings with the margin sweep, as every
//!    predictor does; the reference scans with a 1 s floor, so it skips
//!    only passes shorter than 1 s, which prediction drops anyway;
//! 3. interpolated and direct elevation agree pointwise across the
//!    whole window, the observer half of the contract.

use satiot_orbit::ephemeris::{EphemerisGrid, MAX_ELEVATION_ERROR_DEG};
use satiot_orbit::frames::Geodetic;
use satiot_orbit::pass::PassPredictor;
use satiot_orbit::time::JulianDate;
use satiot_scenarios::constellations::all_constellations;
use std::sync::Arc;

/// AOS/LOS agreement bound, seconds: two refinements to within 1 ms
/// plus the crossing shift induced by the elevation-error contract.
const CROSSING_TOL_S: f64 = 0.05;
/// TCA agreement bound, seconds (flat-peaked grazing passes).
const TCA_TOL_S: f64 = 2.0;
/// Pointwise elevation probes per (satellite, observer) pair.
const PROBES: usize = 240;

/// Check one pair; returns its pass count.
fn check_pair(
    label: &str,
    direct: &PassPredictor,
    gridded: &PassPredictor,
    (start, end): (JulianDate, JulianDate),
) -> usize {
    let d_passes = direct.reference_passes(start, end, 1.0);
    let g_passes = gridded.passes(start, end);
    assert_eq!(
        d_passes.len(),
        g_passes.len(),
        "{label}: backends disagree on pass count ({} direct vs {} gridded)",
        d_passes.len(),
        g_passes.len(),
    );
    for (d, g) in d_passes.iter().zip(&g_passes) {
        let d_aos = d.aos.seconds_since(g.aos).abs();
        let d_los = d.los.seconds_since(g.los).abs();
        let d_tca = d.tca.seconds_since(g.tca).abs();
        assert!(
            d_aos < CROSSING_TOL_S && d_los < CROSSING_TOL_S,
            "{label}: AOS/LOS drift {d_aos:.3}/{d_los:.3} s exceeds {CROSSING_TOL_S} s"
        );
        assert!(
            d_tca < TCA_TOL_S,
            "{label}: TCA drift {d_tca:.3} s exceeds {TCA_TOL_S} s"
        );
        let d_el = (d.max_elevation_rad - g.max_elevation_rad)
            .to_degrees()
            .abs();
        assert!(
            d_el < MAX_ELEVATION_ERROR_DEG,
            "{label}: max-elevation drift {d_el:.5}° exceeds {MAX_ELEVATION_ERROR_DEG}°"
        );
    }

    // Pointwise sweep across the whole window, both edges included.
    let span_s = end.seconds_since(start);
    for k in 0..=PROBES {
        let t = start.plus_seconds(span_s * k as f64 / PROBES as f64);
        let err = (direct.elevation_at(t) - gridded.elevation_at(t))
            .to_degrees()
            .abs();
        assert!(
            err < MAX_ELEVATION_ERROR_DEG,
            "{label}: elevation error {err:.5}° at probe {k} exceeds {MAX_ELEVATION_ERROR_DEG}°"
        );
    }
    d_passes.len()
}

#[test]
fn every_catalog_satellite_meets_the_grid_contract() {
    let epoch = JulianDate::from_calendar(2025, 3, 1, 0, 0, 0.0);
    let window = (epoch, epoch + 1.0);
    let observers = [
        ("HK", Geodetic::from_degrees(22.3193, 114.1694, 0.05)),
        ("SYD", Geodetic::from_degrees(-33.8688, 151.2093, 0.02)),
    ];
    let mut total_passes = 0usize;
    for spec in all_constellations() {
        for sat in spec.catalog(epoch) {
            let sgp4 = sat.sgp4().expect("catalog elements propagate");
            let grid = Arc::new(EphemerisGrid::build(&sgp4, window.0, window.1));
            let report = grid.validate(&sgp4, 512);
            assert!(
                report.within_contract(),
                "{}-{}: grid violates the position contract: {report:?}",
                spec.name,
                sat.sat_id,
            );
            for (site_name, site) in observers {
                let label = format!("{}-{} @ {site_name}", spec.name, sat.sat_id);
                let direct = PassPredictor::new(sgp4.clone(), site, 0.0);
                let gridded =
                    PassPredictor::new(sgp4.clone(), site, 0.0).with_ephemeris(Arc::clone(&grid));
                total_passes += check_pair(&label, &direct, &gridded, window);
            }
        }
    }
    // The day's passes, pinned: a catalog or predictor change that
    // drops passes from both backends alike shows here.
    assert_eq!(total_passes, 486, "the catalog's pass count moved");
}
