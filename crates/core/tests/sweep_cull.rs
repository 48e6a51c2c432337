//! The spatial pre-cull inside `sweep::predictor`, proven by the
//! process-wide `orbit.cull.*` counters.
//!
//! The test reads deltas of those counters, which any campaign running
//! in the same process would also move, so it lives alone in this test
//! binary (one process per integration-test file).

use satiot_core::sweep::{grid_for, predictor, GridKey};
use satiot_orbit::cull;
use satiot_orbit::elements::Elements;
use satiot_orbit::ephemeris::EphemerisGrid;
use satiot_orbit::frames::Geodetic;
use satiot_orbit::pass::PassPredictor;
use satiot_orbit::time::JulianDate;
use satiot_orbit::visibility::VisibilityMode;

#[test]
fn culling_drops_invisible_pairs_and_keeps_visible_ones() {
    let epoch = JulianDate::from_calendar(2025, 3, 1, 0, 0, 0.0);
    let start = epoch;
    let end = epoch + 0.5;
    // Low-inclination shell: never visible from a polar site.
    let sgp4 = Elements::circular(550.0, 20.0, epoch).to_sgp4().unwrap();
    let polar = Geodetic::from_degrees(80.0, 10.0, 0.0);
    let equatorial = Geodetic::from_degrees(0.0, 10.0, 0.0);
    let key = GridKey::new("TEST_CULL", 0, start, end);

    let before = cull::stats();
    let culled = predictor(key, &sgp4, polar, 0.0);
    assert!(culled.is_none(), "polar pair survived the lat-band cull");
    let kept = predictor(key, &sgp4, equatorial, 0.0);
    let kept = kept.expect("equatorial pair must be kept");
    let after = cull::stats();
    assert_eq!(after.pairs_considered - before.pairs_considered, 2);
    assert_eq!(after.pairs_culled() - before.pairs_culled(), 1);
    assert_eq!(after.pairs_kept - before.pairs_kept, 1);

    // The kept pair's pass set is bit-identical to a plain gridded
    // predictor's, which skips the cull.
    let grid = grid_for(key, || EphemerisGrid::build(&sgp4, start, end));
    let unculled = PassPredictor::new(sgp4.clone(), equatorial, 0.0)
        .with_ephemeris(grid)
        .with_visibility(VisibilityMode::On);
    assert_eq!(kept.passes(start, end), unculled.passes(start, end));
    // The plain predictor moves no counters.
    assert_eq!(cull::stats(), after);
}
