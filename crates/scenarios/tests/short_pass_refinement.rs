//! A pass that sets milliseconds after a lattice sample. FOSSA-2 over
//! Sydney on 2025-01-29 rises at 09:16:05 UTC, peaks at 0.297° and sets
//! just after 09:18:00, a lattice instant at which it still sits
//! 0.0000036° above a 0° mask. The sweep's rising interval therefore
//! ends on an above-mask sample, and within that one interval the
//! margin rises, peaks and falls back to almost nothing. The secant
//! seed of the AOS search lands near that sample, past the culmination,
//! where the Newton step points at the setting root beyond the bracket;
//! refinement must bisect rather than take it, or AOS falls on LOS and
//! the 115 s pass is dropped.

use satiot_orbit::ephemeris::EphemerisGrid;
use satiot_orbit::pass::PassPredictor;
use satiot_orbit::time::JulianDate;
use satiot_scenarios::constellations::fossa;
use satiot_scenarios::sites::{campaign_epoch, site_by_code};
use std::sync::Arc;

/// The instant where `predictor`'s elevation crosses 0° inside
/// `[lo, hi]`, by bisection to a 0.1 ms bracket: the oracle the
/// refined boundaries are checked against.
fn bisect(predictor: &PassPredictor, mut lo: JulianDate, mut hi: JulianDate) -> JulianDate {
    let lo_above = predictor.elevation_at(lo) > 0.0;
    assert_ne!(lo_above, predictor.elevation_at(hi) > 0.0, "no crossing");
    while hi.seconds_since(lo) > 1e-4 {
        let mid = JulianDate(0.5 * (lo.0 + hi.0));
        if (predictor.elevation_at(mid) > 0.0) == lo_above {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    JulianDate(0.5 * (lo.0 + hi.0))
}

#[test]
fn a_pass_setting_just_after_a_lattice_sample_is_kept() {
    let fossa_2 = fossa()
        .catalog(campaign_epoch())
        .into_iter()
        .find(|sat| sat.sat_id == 2)
        .expect("FOSSA-2");
    let sgp4 = fossa_2.sgp4().expect("FOSSA-2 propagates");
    let syd = site_by_code("SYD").expect("Sydney").geodetic();
    let at = |h: u32, m: u32| JulianDate::from_calendar(2025, 1, 29, h, m, 0.0);
    let (start, end) = (at(8, 0), at(11, 0));
    let grid = Arc::new(EphemerisGrid::build(&sgp4, start, end));
    let predictor = PassPredictor::new(sgp4, syd, 0.0).with_ephemeris(grid);

    // The geometry this test describes: the 09:18:00 sample is above
    // the mask, by less than 1e-5°.
    let sample_el = predictor.elevation_at(at(9, 18)).to_degrees();
    assert!(sample_el > 0.0 && sample_el <= 1e-5, "{sample_el}°");

    let passes = predictor.passes(start, end);
    let pass = passes
        .iter()
        .find(|p| p.aos > at(9, 15) && p.aos < at(9, 18))
        .unwrap_or_else(|| panic!("the 09:16 pass is missing: {passes:?}"));
    assert!(
        (pass.duration_s() - 115.3).abs() < 0.05,
        "{} s",
        pass.duration_s()
    );
    let peak = pass.max_elevation_rad.to_degrees();
    assert!((peak - 0.297).abs() < 5e-4, "{peak}°");
    let aos = bisect(&predictor, at(9, 15), at(9, 17));
    let los = bisect(&predictor, at(9, 17), at(9, 21));
    assert!(
        pass.aos.seconds_since(aos).abs() < 1e-3,
        "AOS {:?} vs {aos:?}",
        pass.aos
    );
    assert!(
        pass.los.seconds_since(los).abs() < 1e-3,
        "LOS {:?} vs {los:?}",
        pass.los
    );
}
