//! Property-based tests for the orbit crate: random element sets, sites,
//! and time offsets must never violate orbital-mechanics invariants.

use proptest::prelude::*;
use satiot_orbit::elements::Elements;
use satiot_orbit::frames::Geodetic;
use satiot_orbit::pass::{Pass, PassPredictor};
use satiot_orbit::sgp4::{EARTH_RADIUS_KM, MU_KM3_S2};
use satiot_orbit::time::JulianDate;
use satiot_orbit::tle::{checksum, Tle};

fn epoch() -> JulianDate {
    JulianDate::from_calendar(2024, 9, 1, 0, 0, 0.0)
}

/// The instant in `[lo, hi]` where `p`'s elevation crosses its mask, by
/// bisection to a 0.1 ms bracket; `None` when the ends do not straddle
/// the mask.
fn bisect_crossing(
    p: &PassPredictor,
    mut lo: JulianDate,
    mut hi: JulianDate,
) -> Option<JulianDate> {
    let above = |t| p.elevation_at(t) > p.min_elevation_rad;
    let lo_above = above(lo);
    if lo_above == above(hi) {
        return None;
    }
    while hi.seconds_since(lo) > 1e-4 {
        let mid = JulianDate(0.5 * (lo.0 + hi.0));
        if above(mid) == lo_above {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(JulianDate(0.5 * (lo.0 + hi.0)))
}

/// `p`'s elevation maximum in `[lo, hi]`, by ternary search to a 1 ms
/// bracket, and the elevation there.
fn ternary_peak(p: &PassPredictor, mut lo: JulianDate, mut hi: JulianDate) -> (JulianDate, f64) {
    while hi.seconds_since(lo) > 1e-3 {
        let m1 = JulianDate(lo.0 + (hi.0 - lo.0) / 3.0);
        let m2 = JulianDate(hi.0 - (hi.0 - lo.0) / 3.0);
        if p.elevation_at(m1) < p.elevation_at(m2) {
            lo = m1;
        } else {
            hi = m2;
        }
    }
    let t = JulianDate(0.5 * (lo.0 + hi.0));
    (t, p.elevation_at(t))
}

proptest! {
    /// Vis-viva holds (to J2 scale) at every time for every LEO orbit.
    #[test]
    fn vis_viva_everywhere(
        alt in 350.0_f64..1_200.0,
        incl in 0.0_f64..120.0,
        t in -720.0_f64..7_200.0,
    ) {
        let e = Elements::circular(alt, incl, epoch());
        let sgp4 = e.to_sgp4().unwrap();
        let s = sgp4.propagate(t).unwrap();
        let r = s.position_km.norm();
        let v2 = s.velocity_km_s.norm_sq();
        let a = EARTH_RADIUS_KM + alt;
        let expected = MU_KM3_S2 * (2.0 / r - 1.0 / a);
        prop_assert!(((v2 - expected) / expected).abs() < 0.01);
    }

    /// Angular-momentum direction precesses only slowly (J2), never jumps.
    #[test]
    fn angular_momentum_is_stable_within_an_orbit(
        alt in 400.0_f64..1_000.0,
        incl in 5.0_f64..115.0,
        phase in 0.0_f64..1.0,
    ) {
        let e = Elements::circular(alt, incl, epoch());
        let sgp4 = e.to_sgp4().unwrap();
        let period = sgp4.period_min();
        let t0 = phase * period;
        let s0 = sgp4.propagate(t0).unwrap();
        let s1 = sgp4.propagate(t0 + period / 4.0).unwrap();
        let h0 = s0.position_km.cross(s0.velocity_km_s).normalized().unwrap();
        let h1 = s1.position_km.cross(s1.velocity_km_s).normalized().unwrap();
        prop_assert!(h0.dot(h1) > 0.9995, "h drift {}", h0.dot(h1));
    }

    /// The TLE text form always carries valid checksums and re-parses to
    /// the same orbit.
    #[test]
    fn formatted_tles_are_always_valid(
        alt in 300.0_f64..1_500.0,
        incl in 0.0_f64..179.0,
        raan in 0.0_f64..6.2,
        argp in 0.0_f64..6.2,
        ma in 0.0_f64..6.2,
        ecc in 0.0_f64..0.02,
        norad in 1u32..99_999,
    ) {
        let mut e = Elements::circular(alt, incl, epoch());
        e.raan_rad = raan;
        e.arg_perigee_rad = argp;
        e.mean_anomaly_rad = ma;
        e.eccentricity = ecc;
        let tle = e.to_tle(norad, "PROP").unwrap();
        let (l1, l2) = tle.format_lines();
        prop_assert_eq!(l1.len(), 69);
        prop_assert_eq!(l2.len(), 69);
        // Checksums embedded in column 69 match the body.
        prop_assert_eq!(l1.as_bytes()[68] - b'0', checksum(&l1[..68]));
        prop_assert_eq!(l2.as_bytes()[68] - b'0', checksum(&l2[..68]));
        let parsed = Tle::parse_lines(&l1, &l2).unwrap();
        prop_assert_eq!(parsed.norad_id, norad);
        prop_assert!((parsed.eccentricity - ecc).abs() < 1e-6);
    }

    /// Passes are well-formed for arbitrary sites: ordered boundaries,
    /// culmination inside, boundary elevation at the mask.
    #[test]
    fn passes_are_well_formed(
        alt in 450.0_f64..900.0,
        incl in 45.0_f64..105.0,
        lat in -60.0_f64..60.0,
        lon in -180.0_f64..180.0,
        mask_deg in 0.0_f64..15.0,
    ) {
        let e = Elements::circular(alt, incl, epoch());
        let predictor = PassPredictor::new(
            e.to_sgp4().unwrap(),
            Geodetic::from_degrees(lat, lon, 0.0),
            mask_deg.to_radians(),
        );
        let start = epoch();
        let end = start + 1.0;
        let passes = predictor.passes(start, end);
        for p in &passes {
            prop_assert!(p.aos <= p.tca && p.tca <= p.los);
            prop_assert!(p.duration_min() < 20.0);
            prop_assert!(p.max_elevation_rad.to_degrees() >= mask_deg - 0.2);
            // A pass already in progress at the interval start (or still
            // in progress at its end) is truncated, so its boundary is
            // not a mask crossing.
            if p.aos > start && p.los < end {
                let el_aos = predictor.elevation_at(p.aos).to_degrees();
                prop_assert!((el_aos - mask_deg).abs() < 0.5, "AOS el {el_aos}");
            }
        }
        // Chronological and disjoint.
        for w in passes.windows(2) {
            prop_assert!(w[1].aos >= w[0].los);
        }
    }

    /// GMST stays in [0, 2π) and advances monotonically modulo wrap.
    #[test]
    fn gmst_is_bounded(jd_offset in 0.0_f64..10_000.0) {
        let jd = JulianDate(2_451_545.0 + jd_offset);
        let g = jd.gmst_rad();
        prop_assert!((0.0..core::f64::consts::TAU).contains(&g));
    }

    /// Hostile (far-out-of-range, negative) angles survive the TLE
    /// round trip: `to_tle` normalises into [0, 2π) before field
    /// formatting, and the reparsed angles match the wrapped originals
    /// to the format's 1e-4-degree resolution. Walker phasing and the
    /// catalog's golden-angle offsets push raw angles well past τ, so
    /// this must hold by construction, not luck.
    #[test]
    fn hostile_angles_round_trip_through_tle(
        alt in 300.0_f64..1_500.0,
        incl in 0.0_f64..179.0,
        raan in -50.0_f64..50.0,
        argp in -50.0_f64..50.0,
        ma in -50.0_f64..50.0,
    ) {
        use satiot_orbit::elements::wrap_tau;
        let mut e = Elements::circular(alt, incl, epoch());
        e.raan_rad = raan;
        e.arg_perigee_rad = argp;
        e.mean_anomaly_rad = ma;
        let tle = e.to_tle(42_424, "HOSTILE").unwrap();
        // The formatted fields are already in degrees of [0, 360).
        let (l1, l2) = tle.format_lines();
        let parsed = Tle::parse_lines(&l1, &l2).unwrap();
        // 1e-4° field resolution ≈ 1.75e-6 rad, plus rounding slack.
        let tol = 5e-6;
        for (got, raw) in [
            (parsed.raan_rad, raan),
            (parsed.arg_perigee_rad, argp),
            (parsed.mean_anomaly_rad, ma),
        ] {
            let want = wrap_tau(raw);
            // Compare on the circle: 0 and 2π−ε are the same angle.
            let diff = wrap_tau(got - want).min(wrap_tau(want - got));
            prop_assert!(diff < tol, "angle {got} vs wrapped {want} (raw {raw})");
        }
    }

    /// The margin sweep misses no pass and invents none, over random
    /// geometry: circular LEO orbits of 400–1 200 km at 0–130°, sites
    /// at up to ±85° latitude, masks of 0–85° and half-day windows.
    /// Every pass of at least 2 s that the 1 s-floor reference scan
    /// finds has a swept pass whose AOS and LOS lie within 1 s of its
    /// own, and every swept pass of at least 2 s has such a reference
    /// pass.
    #[test]
    fn sweep_matches_the_reference_scan(
        alt in 400.0_f64..1_200.0,
        incl in 0.0_f64..130.0,
        lat in -85.0_f64..85.0,
        lon in -180.0_f64..180.0,
        mask_deg in 0.0_f64..85.0,
    ) {
        let e = Elements::circular(alt, incl, epoch());
        let site = Geodetic::from_degrees(lat, lon, 0.0);
        let predictor = PassPredictor::new(e.to_sgp4().unwrap(), site, mask_deg.to_radians());
        let (start, end) = (epoch(), epoch() + 0.5);
        let reference = predictor.reference_passes(start, end, 1.0);
        let swept = predictor.passes(start, end);
        let near = |a: &Pass, b: &Pass| {
            a.aos.seconds_since(b.aos).abs() < 1.0 && a.los.seconds_since(b.los).abs() < 1.0
        };
        for (from, to, what) in [
            (&reference, &swept, "a reference pass is missing from the sweep"),
            (&swept, &reference, "a swept pass is missing from the reference"),
        ] {
            for x in from.iter().filter(|x| x.duration_s() >= 2.0) {
                prop_assert!(
                    to.iter().any(|y| near(x, y)),
                    "{what}: {x:?} (alt {alt}, incl {incl}, site {lat},{lon}, mask {mask_deg}°)"
                );
            }
        }
    }

    /// Pass refinement agrees with oracles that share none of its code,
    /// over the sweep test's geometry and for both sampling backends (a
    /// covering grid, and direct SGP4 around a grid built for the
    /// window). The 1 s-floor reference scan names the passes; each
    /// crossing is bisected to 0.1 ms inside ±0.5 s of the reference's,
    /// on the predictor's own elevation, and the peak found by ternary
    /// search to 1 ms between those crossings. Every pass of at least
    /// 2 s on either side has its counterpart, with AOS and LOS within
    /// 1 ms, culmination within 5 ms, and a peak elevation no lower
    /// than the oracle's by more than 1e-9 rad.
    #[test]
    fn refinement_matches_bisection_and_ternary_search(
        alt in 400.0_f64..1_200.0,
        incl in 0.0_f64..130.0,
        lat in -85.0_f64..85.0,
        lon in -180.0_f64..180.0,
        mask_deg in 0.0_f64..85.0,
    ) {
        use satiot_orbit::ephemeris::EphemerisGrid;
        use std::sync::Arc;
        let sgp4 = Elements::circular(alt, incl, epoch()).to_sgp4().unwrap();
        let site = Geodetic::from_degrees(lat, lon, 0.0);
        let (start, end) = (epoch(), epoch() + 0.5);
        let direct = PassPredictor::new(sgp4.clone(), site, mask_deg.to_radians());
        let grid = Arc::new(EphemerisGrid::build(&sgp4, start, end));
        let gridded = direct.clone().with_ephemeris(grid);
        let reference = direct.reference_passes(start, end, 1.0);
        let geometry = format!("alt {alt}, incl {incl}, site {lat},{lon}, mask {mask_deg}°");
        for (backend, p) in [("direct", &direct), ("grid", &gridded)] {
            let refined = p.passes(start, end);
            let mut oracle = Vec::new();
            for x in &reference {
                let near = |t: JulianDate| {
                    let lo = JulianDate(t.plus_seconds(-0.5).0.max(start.0));
                    let hi = JulianDate(t.plus_seconds(0.5).0.min(end.0));
                    bisect_crossing(p, lo, hi)
                };
                let aos = if x.aos == start { Some(start) } else { near(x.aos) };
                let los = if x.los == end { Some(end) } else { near(x.los) };
                let (Some(aos), Some(los)) = (aos, los) else {
                    prop_assert!(false, "{backend}: no crossing near {x:?} ({geometry})");
                    unreachable!()
                };
                let (tca, peak) = ternary_peak(p, aos, los);
                oracle.push((aos, los, tca, peak));
            }
            let long = |aos: JulianDate, los: JulianDate| los.seconds_since(aos) >= 2.0;
            let matches = |y: &Pass, &(aos, los, tca, peak): &(JulianDate, JulianDate, JulianDate, f64)| {
                y.aos.seconds_since(aos).abs() < 1e-3
                    && y.los.seconds_since(los).abs() < 1e-3
                    && y.tca.seconds_since(tca).abs() < 5e-3
                    && y.max_elevation_rad >= peak - 1e-9
            };
            for x in oracle.iter().filter(|x| long(x.0, x.1)) {
                prop_assert!(
                    refined.iter().any(|y| matches(y, x)),
                    "{backend}: oracle pass {x:?} unmatched in {refined:?} ({geometry})"
                );
            }
            for y in refined.iter().filter(|y| long(y.aos, y.los)) {
                prop_assert!(
                    oracle.iter().any(|x| matches(y, x)),
                    "{backend}: refined pass {y:?} unmatched in {oracle:?} ({geometry})"
                );
            }
        }
    }

    /// The latitude-band cull is conservative: whenever it fires, the
    /// full predictor (no attached grid) finds zero passes over a
    /// two-day window — equivalently, it never fires for a pair with a
    /// nonzero-duration pass.
    #[test]
    fn lat_band_cull_is_conservative(
        alt in 400.0_f64..1_200.0,
        incl in 5.0_f64..130.0,
        lat in -85.0_f64..85.0,
        lon in -180.0_f64..180.0,
        mask_deg in 0.0_f64..15.0,
    ) {
        use satiot_orbit::cull;
        let e = Elements::circular(alt, incl, epoch());
        let sgp4 = e.to_sgp4().unwrap();
        let site = Geodetic::from_degrees(lat, lon, 0.0);
        let mask = mask_deg.to_radians();
        if cull::never_in_latitude_band(site, sgp4.inclination_rad(), sgp4.apogee_radius_km(), mask) {
            let passes = PassPredictor::new(sgp4, site, mask).passes(epoch(), epoch() + 2.0);
            prop_assert!(
                passes.is_empty(),
                "lat-band cull dropped a pair with {} passes (alt {alt}, incl {incl}, lat {lat})",
                passes.len()
            );
        }
    }

    /// The footprint-cone grid scan is conservative: whenever it clears
    /// a window, both the direct-SGP4 reference scan (1 s floor) and the
    /// grid-backed predictor find zero passes in that window.
    #[test]
    fn cone_cull_is_conservative(
        alt in 400.0_f64..1_200.0,
        incl in 5.0_f64..130.0,
        lat in -85.0_f64..85.0,
        lon in -180.0_f64..180.0,
        mask_deg in 0.0_f64..15.0,
    ) {
        use satiot_orbit::cull;
        use satiot_orbit::ephemeris::EphemerisGrid;
        use std::sync::Arc;
        let e = Elements::circular(alt, incl, epoch());
        let sgp4 = e.to_sgp4().unwrap();
        let site = Geodetic::from_degrees(lat, lon, 0.0);
        let mask = mask_deg.to_radians();
        let (start, end) = (epoch(), epoch() + 0.5);
        let grid = Arc::new(EphemerisGrid::build(&sgp4, start, end));
        if cull::cone_clears_grid(&grid, site, mask, start, end) {
            let direct = PassPredictor::new(sgp4.clone(), site, mask).reference_passes(start, end, 1.0);
            prop_assert!(
                direct.is_empty(),
                "cone cull dropped a pair with {} direct passes (alt {alt}, incl {incl}, lat {lat}, lon {lon})",
                direct.len()
            );
            let gridded = PassPredictor::new(sgp4, site, mask)
                .with_ephemeris(grid)
                .passes(start, end);
            prop_assert!(gridded.is_empty(), "cone cull dropped {} gridded passes", gridded.len());
        }
    }
}

proptest! {
    /// The ephemeris grid honours its elevation contract for arbitrary
    /// LEO orbits and observers: everywhere in the scan window —
    /// interior, both edges, and exactly-on-sample instants included —
    /// interpolated elevation stays within `MAX_ELEVATION_ERROR_DEG`
    /// of direct SGP4.
    #[test]
    fn grid_elevation_stays_within_contract(
        alt in 400.0_f64..1_200.0,
        incl in 0.0_f64..98.0,
        lat in -65.0_f64..65.0,
        lon in -180.0_f64..180.0,
        alt_site_km in 0.0_f64..2.0,
        probe in 0.0_f64..1.0,
    ) {
        use satiot_orbit::ephemeris::{EphemerisGrid, MAX_ELEVATION_ERROR_DEG};
        use std::sync::Arc;
        let e = Elements::circular(alt, incl, epoch());
        let sgp4 = e.to_sgp4().unwrap();
        let site = Geodetic::from_degrees(lat, lon, alt_site_km);
        let (start, end) = (epoch(), epoch() + 0.5);
        let grid = Arc::new(EphemerisGrid::build(&sgp4, start, end));
        let direct = PassPredictor::new(sgp4.clone(), site, 0.0);
        let gridded = PassPredictor::new(sgp4, site, 0.0).with_ephemeris(Arc::clone(&grid));
        let span_s = end.seconds_since(start);
        // A random interior instant, the window edges, and a handful of
        // exactly-on-sample lattice points near the probe.
        let mut instants = vec![
            start.plus_seconds(probe * span_s),
            start,
            end,
        ];
        let k = ((probe * span_s) / grid.step_s()) as usize;
        for j in k.saturating_sub(1)..=(k + 1).min(grid.len().saturating_sub(1)) {
            instants.push(grid.sample_time(j));
        }
        for t in instants {
            let err = (direct.elevation_at(t) - gridded.elevation_at(t)).to_degrees().abs();
            prop_assert!(
                err < MAX_ELEVATION_ERROR_DEG,
                "elevation error {err}° at {t:?} (alt {alt}, incl {incl}, site {lat},{lon})"
            );
        }
    }

    /// The analytic range-rate equals the numerical derivative of range
    /// for arbitrary geometries — the quantity Doppler hangs off.
    #[test]
    fn range_rate_is_the_range_derivative(
        alt in 400.0_f64..1_000.0,
        incl in 30.0_f64..100.0,
        lat in -55.0_f64..55.0,
        lon in -180.0_f64..180.0,
        t_min in 0.0_f64..1_440.0,
    ) {
        use satiot_orbit::topo::Observer;
        use satiot_orbit::frames::teme_to_ecef;
        let e = Elements::circular(alt, incl, epoch());
        let sgp4 = e.to_sgp4().unwrap();
        let observer = Observer::new(Geodetic::from_degrees(lat, lon, 0.0));
        let when = epoch().plus_minutes(t_min);
        let la = {
            let s = sgp4.propagate_at(when).unwrap();
            observer.look_at(&s, when)
        };
        // Numerical derivative over ±0.5 s using Earth-fixed ranges.
        let range_at = |w| {
            let s = sgp4.propagate_at(w).unwrap();
            (teme_to_ecef(&s, w).position_km - observer.position_ecef()).norm()
        };
        let dt = 0.5;
        let numeric = (range_at(when.plus_seconds(dt)) - range_at(when.plus_seconds(-dt)))
            / (2.0 * dt);
        prop_assert!(
            (la.range_rate_km_s - numeric).abs() < 5e-3,
            "analytic {} vs numeric {numeric}",
            la.range_rate_km_s
        );
    }
}
