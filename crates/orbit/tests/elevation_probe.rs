//! Pass refinement's probe reads the elevation and nothing else, yet
//! answers exactly what the full look-angle projection does:
//! `PassPredictor::elevation_at` equals `look_at(t).elevation_rad` to the
//! bit at lattice points, mid-interval, at and beside tile edges, and
//! outside the attached grid (the direct-SGP4 fallback), and each query
//! costs one grid interpolation or one grid miss.
//!
//! The test enables the process-wide metrics registry and reads the
//! `orbit.ephemeris.interpolations` and `grid_misses` counters, which
//! any grid query running in the same process would also move, so it
//! is the only test in this binary (one process per integration-test
//! file).

use satiot_obs::metrics::{self, Counter};
use satiot_orbit::elements::Elements;
use satiot_orbit::ephemeris::{lattice_time, EphemerisGrid, STEP_S, TILE};
use satiot_orbit::frames::Geodetic;
use satiot_orbit::pass::PassPredictor;
use satiot_orbit::time::JulianDate;
use std::sync::Arc;

/// Shared-slot views of the grid's query counters (name-keyed).
static INTERPOLATIONS: Counter = Counter::new("orbit.ephemeris.interpolations");
static GRID_MISSES: Counter = Counter::new("orbit.ephemeris.grid_misses");

#[test]
fn elevation_probes_match_look_angles_bit_for_bit() {
    metrics::set_enabled(true);
    let epoch = JulianDate::from_calendar(2025, 3, 1, 0, 0, 0.0);
    let sgp4 = Elements::circular(550.0, 97.6, epoch).to_sgp4().unwrap();
    let (start, end) = (epoch.plus_seconds(17.0), epoch + 1.0);
    let grid = Arc::new(EphemerisGrid::build(&sgp4, start, end));
    let hk = Geodetic::from_degrees(22.3193, 114.1694, 0.05);
    let predictor = PassPredictor::new(sgp4, hk, 0.0).with_ephemeris(Arc::clone(&grid));

    let edge = lattice_time(grid.tiles()[1].index() * TILE as i64);
    let mut inside = vec![edge, edge.plus_seconds(-0.5), edge.plus_seconds(0.5)];
    for k in [2, 3, grid.len() / 2, grid.len() - 3] {
        inside.push(grid.sample_time(k));
        inside.push(grid.sample_time(k).plus_seconds(0.5 * STEP_S));
    }
    let outside = [start.plus_seconds(-3.0 * 86_400.0), end + 3.0];
    let queries = inside
        .iter()
        .map(|&t| (t, true))
        .chain(outside.iter().map(|&t| (t, false)));

    let counts = || (INTERPOLATIONS.value(), GRID_MISSES.value());
    for (t, on_grid) in queries {
        let before = counts();
        let elevation = predictor.elevation_at(t);
        let after = counts();
        let (interpolated, missed) = (after.0 - before.0, after.1 - before.1);
        assert_eq!(
            (interpolated, missed),
            if on_grid { (1, 0) } else { (0, 1) },
            "t = {t:?}"
        );
        let look = predictor
            .look_at(t)
            .expect("the satellite state is computable");
        assert_eq!(
            elevation.to_bits(),
            look.elevation_rad.to_bits(),
            "t = {t:?}"
        );
    }
}
