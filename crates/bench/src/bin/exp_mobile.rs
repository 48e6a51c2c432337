//! Mobile-node workload: a maritime asset tracker steaming Hong Kong →
//! Manila under the Tianqi constellation.
//!
//! The `maritime_tracker` scenario carries an inline site with a
//! four-waypoint great-circle [`MobilityTrack`]. This binary resolves
//! it through [`ScenarioSpec::build`], discretises the track into
//! [`ObserverLeg`](satiot_orbit::pass::ObserverLeg)s (waypoints always cut a leg, so no leg spans a
//! course change) and predicts every Tianqi contact with
//! [`PassPredictor::passes_over_legs`] — the moving-observer path that
//! bypasses the site-code-keyed pass cache entirely.
//!
//! Pinned invariants:
//!
//! * the legs tile the simulated span exactly (no gaps, chronological);
//! * the moving observer sees a non-empty, chronological pass set that
//!   stays inside the campaign window and above the mask;
//! * the contact plan *differs* from a fixed observer anchored at the
//!   departure berth — the ~1 000 km of steaming genuinely moves the
//!   geometry, which is the point of modelling mobility at all.
//!
//! Exits non-zero (panics) on any violation; CI runs `--smoke` (half a
//! day, first course change included).

use satiot_core::prelude::*;
use satiot_orbit::pass::PassPredictor;
use satiot_scenarios::mobility::DEFAULT_LEG_S;
use satiot_scenarios::sites::campaign_epoch;

// Theoretical contact mask, as in the passive campaign's TLE-style
// window accounting (full above-horizon arc).
const MASK_RAD: f64 = 0.0;

fn main() {
    let _opts = RunOptions::from_env().apply();
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut spec = ScenarioSpec::maritime_tracker();
    if smoke {
        spec.max_days = Some(0.5);
    }
    let scenario = spec.build().expect("maritime-tracker scenario resolves");
    assert!(
        scenario.has_mobile_sites(),
        "the maritime scenario lost its mobility track"
    );
    let ship = &scenario.sites[0];
    let track = ship.track.as_ref().expect("SHIP carries a track");
    let days = scenario.max_days.unwrap_or(2.0);
    let window_s = days * 86_400.0;
    let epoch = campaign_epoch();

    let legs = track.legs(epoch, 0.0, window_s, DEFAULT_LEG_S);
    assert!(!legs.is_empty(), "track produced no legs");
    // The legs must tile the span: contiguous, chronological, bounded.
    assert_eq!(legs[0].start, epoch, "first leg must start at epoch");
    for pair in legs.windows(2) {
        assert_eq!(pair[0].end, pair[1].start, "gap between legs");
    }
    let tiled_s = legs.last().unwrap().end.seconds_since(epoch);
    assert!(
        (tiled_s - window_s).abs() < 1e-3,
        "legs tile {tiled_s:.3}s of a {window_s:.0}s span"
    );

    let tianqi = &scenario.constellations[0];
    println!(
        "== exp_mobile: {} — {:.1} day(s), {} sats, {} legs of ≤{:.0}s ==\n",
        scenario.name,
        days,
        tianqi.sat_count(),
        legs.len(),
        DEFAULT_LEG_S,
    );

    let berth = track.position_at(0.0);
    let mut moving_passes = 0usize;
    let mut moving_contact_s = 0.0;
    let mut fixed_passes = 0usize;
    let mut fixed_contact_s = 0.0;
    let mut geometry_moved = false;
    let horizon = epoch.plus_seconds(window_s);
    for def in tianqi.catalog(epoch) {
        let sgp4 = def.sgp4().expect("Tianqi catalog propagates");
        let predictor = PassPredictor::new(sgp4, berth, MASK_RAD);
        let moving = predictor
            .passes_over_legs(&legs)
            .expect("chronological legs scan cleanly");
        let fixed = predictor.passes(epoch, horizon);
        for pair in moving.windows(2) {
            assert!(pair[0].los <= pair[1].aos, "moving passes out of order");
        }
        for p in &moving {
            assert!(
                p.aos >= epoch && p.los <= horizon,
                "pass escaped the campaign window"
            );
            assert!(p.max_elevation_rad >= MASK_RAD, "pass below the mask");
        }
        // The ship steams ~1000 km; if every contact of this satellite
        // matched the berth-anchored plan to the second, mobility never
        // entered the geometry.
        if moving.len() != fixed.len()
            || moving
                .iter()
                .zip(&fixed)
                .any(|(m, f)| (m.aos.seconds_since(f.aos)).abs() > 1.0)
        {
            geometry_moved = true;
        }
        moving_passes += moving.len();
        moving_contact_s += moving.iter().map(|p| p.duration_s()).sum::<f64>();
        fixed_passes += fixed.len();
        fixed_contact_s += fixed.iter().map(|p| p.duration_s()).sum::<f64>();
    }
    assert!(moving_passes > 0, "the tracker never saw a satellite");
    assert!(
        geometry_moved,
        "moving-observer contact plan is identical to the berth-anchored one"
    );

    println!(
        "moving observer: {:>3} passes, {:>7.1} min contact",
        moving_passes,
        moving_contact_s / 60.0,
    );
    println!(
        "berth-anchored:  {:>3} passes, {:>7.1} min contact",
        fixed_passes,
        fixed_contact_s / 60.0,
    );
    let end = track.position_at(window_s.min(track.duration_s()));
    println!(
        "track: {:.1}°N {:.1}°E → {:.1}°N {:.1}°E over {:.1} h",
        berth.lat_rad.to_degrees(),
        berth.lon_rad.to_degrees(),
        end.lat_rad.to_degrees(),
        end.lon_rad.to_degrees(),
        track.duration_s().min(window_s) / 3600.0,
    );

    println!("\nexp_mobile: OK");
}
