//! Mega-constellation availability: simulation vs stochastic geometry.
//!
//! Validates the Walker-shell generator and the spatial pre-cull stage
//! at a scale the paper's 39-satellite catalogs never reach: an 8×8
//! Walker shell at 650 km / 60° (4×6 under `--smoke`) observed from
//! sites at five latitudes under two elevation masks. For every (site,
//! mask) cell the sweep-driven prediction pipeline (ephemeris grids,
//! culling on) measures
//!
//! * the **mean per-satellite visible fraction** — time above the mask
//!   averaged over the shell — against the closed-form
//!   [`single_sat_visibility_fraction`], the classic stochastic-geometry
//!   result `E_u[θ_max(φ_s(u)) / π]` for a circular-orbit satellite
//!   uniform on its track, and
//! * the **union availability** — fraction of time at least one
//!   satellite is visible — against [`union_availability`], the
//!   independence approximation `1 − (1 − p)^n`.
//!
//! Sites poleward of the shell's coverage band (|φ| > i + λ) must come
//! out *exactly* zero on both sides: the closed form sums hard zeros,
//! and the latitude-band cull must retire every pair before a single
//! grid interpolation, proven by the `orbit.cull.*` counters.
//!
//! The independence approximation ignores the phase correlation a
//! Walker layout is designed to create, so the union check uses an
//! absolute band while the per-satellite check (where the geometry is
//! exact and only time-sampling noise remains) uses a relative one.
//! Exits non-zero on any violation; CI runs `--smoke`.

use satiot_core::prelude::*;
use satiot_core::sweep;
use satiot_orbit::cull;
use satiot_orbit::frames::Geodetic;
use satiot_orbit::time::JulianDate;
use satiot_scenarios::walker::{
    single_sat_visibility_fraction, union_availability, WalkerConstellation, WalkerShell,
};

/// Fraction of the window covered by the union of the pass intervals.
fn union_fraction(mut intervals: Vec<(f64, f64)>, start: f64, end: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut cursor = start;
    for (a, b) in intervals {
        let (a, b) = (a.max(cursor), b.min(end));
        if b > a {
            covered += b - a;
            cursor = b;
        } else {
            cursor = cursor.max(b);
        }
    }
    covered / (end - start)
}

fn main() {
    let _opts = RunOptions::from_env().apply();
    let smoke = std::env::args().any(|a| a == "--smoke");
    let shell = WalkerShell {
        planes: if smoke { 4 } else { 8 },
        sats_per_plane: if smoke { 6 } else { 8 },
        altitude_km: 650.0,
        inclination_deg: 60.0,
        phasing: 1,
    };
    // The shell enters the pipeline the way scenario files declare it:
    // wrapped in an inline-Walker constellation and resolved through
    // `ScenarioSpec::build()`, so this binary exercises the same typed
    // front door (validation, interning, catalog generation) as a
    // `.scenario.json` with an inline constellation would.
    let mut spec = ScenarioSpec::paper_passive();
    spec.name = "megascale".to_string();
    spec.constellations = vec![ConstellationRef::Inline {
        walker: WalkerConstellation {
            name: "MEGA".to_string(),
            shells: vec![shell],
            frequency_mhz: 868.0,
            beacon_interval_s: 60.0,
        },
        tx_power_dbm: 22.0,
    }];
    let scenario = spec.build().expect("mega shell scenario resolves");
    let mega = &scenario.constellations[0];
    let days = if smoke { 1.0 } else { 2.0 };
    let epoch = JulianDate::from_calendar(2025, 3, 1, 0, 0, 0.0);
    let (start, end) = (epoch, epoch + days);
    let window_s = days * 86_400.0;
    let sgp4s: Vec<satiot_orbit::sgp4::Sgp4> = mega
        .catalog(epoch)
        .iter()
        .map(|def| def.sgp4().expect("walker shell propagates"))
        .collect();
    let n = sgp4s.len() as u32;
    assert_eq!(n, shell.count(), "catalog count matches the shell");
    println!(
        "== exp_megascale: Walker {}x{} @ {} km / {} deg, {} day(s) ==\n",
        shell.planes, shell.sats_per_plane, shell.altitude_km, shell.inclination_deg, days,
    );
    println!(
        "{:>8} {:>6}  {:>9} {:>9} {:>7}   {:>9} {:>9} {:>7}  {:>9}",
        "mask", "lat", "p_sim", "p_theory", "rel", "A_sim", "A_theory", "abs", "culled",
    );

    let incl_rad = (shell.inclination_deg).to_radians();
    for mask_deg in [0.0_f64, 30.0] {
        let mask_rad = mask_deg.to_radians();
        for lat_deg in [0.0_f64, 25.0, 45.0, 70.0, 87.0] {
            let site = Geodetic::from_degrees(lat_deg, 8.0, 0.0);
            sweep::clear();
            cull::reset_stats();
            let mut frac_sum = 0.0;
            let mut intervals: Vec<(f64, f64)> = Vec::new();
            let mut total_passes = 0usize;
            for (s, sgp4) in sgp4s.iter().enumerate() {
                let predictor = sweep::predictor(
                    sweep::GridKey::new("MEGA", s as u32, start, end),
                    sgp4,
                    site,
                    mask_rad,
                );
                let passes = predictor.map(|p| p.passes(start, end)).unwrap_or_default();
                total_passes += passes.len();
                frac_sum += passes.iter().map(|p| p.duration_s()).sum::<f64>() / window_s;
                intervals.extend(passes.iter().map(|p| (p.aos.0, p.los.0)));
            }
            let stats = cull::stats();
            let p_sim = frac_sum / n as f64;
            let a_sim = union_fraction(intervals, start.0, end.0);
            let p_theory =
                single_sat_visibility_fraction(site.lat_rad, incl_rad, shell.altitude_km, mask_rad);
            let a_theory = union_availability(p_theory, n);
            let rel = if p_theory > 0.0 {
                (p_sim - p_theory).abs() / p_theory
            } else {
                0.0
            };
            let abs = (a_sim - a_theory).abs();
            println!(
                "{:>7}° {:>5}°  {:>9.5} {:>9.5} {:>6.1}%   {:>9.5} {:>9.5} {:>7.3}  {:>4}/{:<4}",
                mask_deg,
                lat_deg,
                p_sim,
                p_theory,
                rel * 100.0,
                a_sim,
                a_theory,
                abs,
                stats.pairs_culled(),
                stats.pairs_considered,
            );
            assert_eq!(
                stats.pairs_considered, n as u64,
                "cull stage saw a different pair count than the shell"
            );
            if p_theory == 0.0 {
                // Outside the coverage band both sides must be hard
                // zeros, and the cull must have proven it without
                // touching a grid: every pair latitude-band-culled.
                assert_eq!(
                    total_passes, 0,
                    "site {lat_deg}° saw passes outside the coverage band"
                );
                assert_eq!(
                    stats.pairs_culled_lat_band, n as u64,
                    "site {lat_deg}° outside the band was not fully lat-band-culled"
                );
                assert_eq!(a_sim, 0.0, "union availability must be exactly zero");
                assert_eq!(a_theory, 0.0, "closed form must be exactly zero");
            } else if p_theory >= 1e-3 {
                // Where the closed form predicts meaningful coverage the
                // time-sampled simulation must agree to 25% relative —
                // the geometry is exact, only the finite window and the
                // shell's discrete phasing add noise.
                assert!(
                    rel <= 0.25,
                    "mask {mask_deg}° lat {lat_deg}°: per-satellite visible fraction \
                     {p_sim:.5} deviates {:.1}% from closed form {p_theory:.5}",
                    rel * 100.0,
                );
            }
            // The deviation is one-sided by construction: Walker phasing
            // anti-correlates coverage gaps, so the simulated union may
            // beat the independence approximation but never meaningfully
            // undershoot it. The short smoke window leaves more residual
            // phasing structure, hence its wider band.
            let union_band = if smoke { 0.22 } else { 0.12 };
            assert!(
                abs <= union_band,
                "mask {mask_deg}° lat {lat_deg}°: union availability {a_sim:.4} vs \
                 independence approximation {a_theory:.4} exceeds the {union_band} band"
            );
            assert!(
                a_sim >= a_theory - 0.02,
                "mask {mask_deg}° lat {lat_deg}°: union availability {a_sim:.4} fell \
                 below the independence approximation {a_theory:.4}"
            );
        }
    }
    sweep::clear();
    println!("\nexp_megascale: OK");
}
