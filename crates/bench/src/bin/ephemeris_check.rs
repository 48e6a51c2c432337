//! Ephemeris accuracy-contract check (CI gate).
//!
//! For every satellite of all four Table-3 constellations, over two
//! well-separated observers (Hong Kong and Sydney), this binary:
//!
//! 1. builds the satellite's [`EphemerisGrid`] and probes it against
//!    direct SGP4 ([`EphemerisGrid::validate`] — the position half of
//!    the contract, `MAX_POSITION_ERROR_KM`);
//! 2. predicts the full pass list with both backends and demands they
//!    agree pass-for-pass: AOS/LOS within the bisection refinement
//!    tolerance, culmination elevation within
//!    [`MAX_ELEVATION_ERROR_DEG`], and TCA within the flat-peak
//!    tolerance (a 0.01° elevation perturbation can slide the argmax of
//!    a grazing pass by ~seconds without moving its height). The
//!    gridded predictor brackets crossings with the margin sweep, as
//!    every campaign predictor does, and misses no pass; the direct
//!    reference scans with a 1 s floor, so it skips only passes
//!    shorter than 1 s, which prediction drops anyway;
//! 3. sweeps interpolated vs direct elevation pointwise across the
//!    whole window — the observer half of the contract.
//!
//! Any violation panics, so the CI step is just
//! `cargo run --release -p satiot-bench --bin ephemeris_check`.

use satiot_orbit::ephemeris::{EphemerisGrid, MAX_ELEVATION_ERROR_DEG};
use satiot_orbit::frames::Geodetic;
use satiot_orbit::pass::{Pass, PassPredictor};
use satiot_orbit::time::JulianDate;
use satiot_scenarios::constellations::all_constellations;
use std::sync::Arc;

/// AOS/LOS agreement bound, seconds: two ~10 ms bisections plus the
/// crossing shift induced by the elevation-error contract.
const CROSSING_TOL_S: f64 = 0.05;
/// TCA agreement bound, seconds (flat-peaked grazing passes).
const TCA_TOL_S: f64 = 2.0;
/// Pointwise elevation probes per (satellite, observer) pair.
const PROBES: usize = 240;

fn check_pair(
    label: &str,
    direct: &PassPredictor,
    gridded: &PassPredictor,
    start: JulianDate,
    end: JulianDate,
) -> (usize, f64) {
    let d_passes = direct.passes(start, end);
    let g_passes = gridded.passes(start, end);
    assert_eq!(
        d_passes.len(),
        g_passes.len(),
        "{label}: backends disagree on pass count ({} direct vs {} gridded)",
        d_passes.len(),
        g_passes.len(),
    );
    for (d, g) in d_passes.iter().zip(&g_passes) {
        let pair = |a: &Pass, b: &Pass| {
            (
                a.aos.seconds_since(b.aos).abs(),
                a.los.seconds_since(b.los).abs(),
                a.tca.seconds_since(b.tca).abs(),
            )
        };
        let (d_aos, d_los, d_tca) = pair(d, g);
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

    // Pointwise contract sweep across the whole window, including both
    // edges (probe 0 lands on `start`, the last probe on `end`).
    let span_s = end.seconds_since(start);
    let mut worst = 0.0_f64;
    for k in 0..=PROBES {
        let t = start.plus_seconds(span_s * k as f64 / PROBES as f64);
        let (de, ge) = (direct.elevation_at(t), gridded.elevation_at(t));
        let err = (de - ge).to_degrees().abs();
        assert!(
            err < MAX_ELEVATION_ERROR_DEG,
            "{label}: elevation error {err:.5}° at probe {k} exceeds {MAX_ELEVATION_ERROR_DEG}°"
        );
        worst = worst.max(err);
    }
    (d_passes.len(), worst)
}

fn main() {
    let epoch = JulianDate::from_calendar(2025, 3, 1, 0, 0, 0.0);
    let (start, end) = (epoch, epoch + 1.0);
    let observers = [
        ("HK", Geodetic::from_degrees(22.3193, 114.1694, 0.05)),
        ("SYD", Geodetic::from_degrees(-33.8688, 151.2093, 0.02)),
    ];

    let mut total_passes = 0usize;
    let mut worst_el = 0.0_f64;
    let mut worst_pos = 0.0_f64;
    for spec in all_constellations() {
        for sat in spec.catalog(epoch) {
            let sgp4 = sat.sgp4().expect("catalog elements propagate");
            let grid = Arc::new(EphemerisGrid::build(&sgp4, start, end));
            let report = grid.validate(&sgp4, 512);
            assert!(
                report.within_contract(),
                "{}-{}: grid violates the position contract: {report:?}",
                spec.name,
                sat.sat_id,
            );
            worst_pos = worst_pos.max(report.max_position_error_km);
            for (site_name, site) in observers {
                let label = format!("{}-{} @ {site_name}", spec.name, sat.sat_id);
                let mut direct = PassPredictor::new(sgp4.clone(), site, 0.0);
                direct.coarse_step_s = 1.0;
                let gridded =
                    PassPredictor::new(sgp4.clone(), site, 0.0).with_ephemeris(Arc::clone(&grid));
                let (passes, worst) = check_pair(&label, &direct, &gridded, start, end);
                total_passes += passes;
                worst_el = worst_el.max(worst);
            }
        }
        println!("{}: OK ({} satellites)", spec.name, spec.sat_count());
    }
    println!(
        "ephemeris check: {total_passes} passes matched across 4 constellations × \
         {} observers; worst position error {:.2} m, worst elevation error {:.6}° \
         (contract: {MAX_ELEVATION_ERROR_DEG}°)",
        observers.len(),
        worst_pos * 1e3,
        worst_el,
    );
    println!("ephemeris check: OK");
}
