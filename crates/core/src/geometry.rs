//! Sampled pass geometry shared by both campaigns.
//!
//! Given a predicted pass, both the passive receiver model and the active
//! protocol simulation need per-instant geometry: elevation, slant range,
//! Doppler shift, and Doppler *rate* (the drift that smears high-SF
//! packets — see `satiot_phy::doppler`).

use satiot_obs::metrics::Counter;
use satiot_orbit::pass::{Pass, PassPredictor};
use satiot_orbit::time::JulianDate;

/// Degenerate passes (non-finite or non-positive duration, or a
/// non-finite beacon interval/phase) rejected by [`beacon_times`]
/// (metrics).
static DEGENERATE_PASSES: Counter = Counter::new("core.geometry.degenerate_passes");

/// Geometry at one instant of a pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeometrySample {
    /// Sample instant.
    pub t: JulianDate,
    /// Elevation above the horizon, radians.
    pub elevation_rad: f64,
    /// Slant range, km.
    pub range_km: f64,
    /// Doppler shift at the carrier, Hz.
    pub doppler_hz: f64,
    /// Doppler drift rate, Hz/s (numerical derivative over 1 s).
    pub doppler_rate_hz_s: f64,
}

/// Sample the geometry at `t` for a link at `carrier_hz`. Returns `None`
/// if propagation fails (which healthy LEO elements never do mid-pass).
pub fn sample_at(
    predictor: &PassPredictor,
    t: JulianDate,
    carrier_hz: f64,
) -> Option<GeometrySample> {
    let la = predictor.look_at(t)?;
    let doppler = la.doppler_shift_hz(carrier_hz);
    let la_next = predictor.look_at(t.plus_seconds(1.0))?;
    let doppler_next = la_next.doppler_shift_hz(carrier_hz);
    Some(GeometrySample {
        t,
        elevation_rad: la.elevation_rad,
        range_km: la.range_km,
        doppler_hz: doppler,
        doppler_rate_hz_s: doppler_next - doppler,
    })
}

/// Beacon emission instants within a pass: every `interval_s` starting at
/// `phase_s` past AOS (satellites beacon on their own clock; the phase
/// decorrelates beacon timing from window boundaries). The offsets are
/// the running sum `t += interval_s`, taken while `t` is inside the
/// pass; the iterator allocates nothing, so a caller that only counts
/// the emissions counts them for free.
pub fn beacon_times(
    pass: &Pass,
    interval_s: f64,
    phase_s: f64,
) -> impl Iterator<Item = JulianDate> {
    let (aos, duration) = (pass.aos, pass.duration_s());
    let first = if !(interval_s.is_finite() && interval_s > 0.0) {
        None
    } else if !(duration.is_finite() && duration > 0.0 && phase_s.is_finite()) {
        // Guard degenerate passes explicitly: a NaN duration would end
        // the emissions silently (every comparison is false) and a
        // negative one would silently yield nothing — both are input
        // damage worth surfacing, not healthy empty windows. Count it
        // now, once per call, and yield nothing.
        DEGENERATE_PASSES.inc();
        None
    } else {
        Some(phase_s.rem_euclid(interval_s))
    };
    std::iter::successors(first, move |t| Some(t + interval_s))
        .take_while(move |&t| t <= duration)
        .map(move |t| aos.plus_seconds(t))
}

#[cfg(test)]
mod tests {
    use super::*;
    use satiot_orbit::elements::Elements;
    use satiot_orbit::frames::Geodetic;

    fn predictor() -> PassPredictor {
        let epoch = JulianDate::from_calendar(2025, 3, 1, 0, 0, 0.0);
        let sgp4 = Elements::circular(550.0, 97.6, epoch).to_sgp4().unwrap();
        PassPredictor::new(sgp4, Geodetic::from_degrees(22.32, 114.17, 0.05), 0.0)
    }

    fn first_pass(p: &PassPredictor) -> Pass {
        let start = JulianDate::from_calendar(2025, 3, 1, 0, 0, 0.0);
        p.passes(start, start + 1.0)[0]
    }

    #[test]
    fn doppler_crosses_zero_near_tca() {
        let p = predictor();
        let pass = first_pass(&p);
        let carrier = 400.45e6;
        let early = sample_at(&p, pass.aos.plus_seconds(10.0), carrier).unwrap();
        let late = sample_at(&p, pass.los.plus_seconds(-10.0), carrier).unwrap();
        let tca = sample_at(&p, pass.tca, carrier).unwrap();
        // Approaching before TCA (positive shift), receding after.
        assert!(early.doppler_hz > 0.0, "early {}", early.doppler_hz);
        assert!(late.doppler_hz < 0.0, "late {}", late.doppler_hz);
        assert!(
            tca.doppler_hz.abs() < early.doppler_hz.abs() / 4.0,
            "tca {}",
            tca.doppler_hz
        );
    }

    #[test]
    fn doppler_magnitude_matches_leo_physics() {
        // At 400 MHz a 7.6 km/s LEO gives at most ±~10 kHz.
        let p = predictor();
        let pass = first_pass(&p);
        for k in 0..=10 {
            let t = pass.aos.plus_seconds(pass.duration_s() * k as f64 / 10.0);
            let s = sample_at(&p, t, 400.45e6).unwrap();
            assert!(s.doppler_hz.abs() < 11_000.0, "doppler {}", s.doppler_hz);
        }
    }

    #[test]
    fn doppler_rate_peaks_near_tca() {
        let p = predictor();
        let pass = first_pass(&p);
        let carrier = 400.45e6;
        let tca = sample_at(&p, pass.tca, carrier).unwrap();
        let edge = sample_at(&p, pass.aos.plus_seconds(5.0), carrier).unwrap();
        assert!(
            tca.doppler_rate_hz_s.abs() > edge.doppler_rate_hz_s.abs(),
            "tca rate {} vs edge {}",
            tca.doppler_rate_hz_s,
            edge.doppler_rate_hz_s
        );
        // Rate is negative through the pass (shift falls monotonically)
        // and bounded by LEO physics (≲ 300 Hz/s at 400 MHz).
        assert!(tca.doppler_rate_hz_s < 0.0);
        assert!(tca.doppler_rate_hz_s.abs() < 300.0);
    }

    #[test]
    fn beacon_times_stay_inside_pass() {
        let p = predictor();
        let pass = first_pass(&p);
        let times: Vec<JulianDate> = beacon_times(&pass, 8.0, 3.0).collect();
        assert!(!times.is_empty());
        assert_eq!(beacon_times(&pass, 8.0, 3.0).count(), times.len());
        for t in &times {
            assert!(pass.contains(*t));
        }
        // Expected count ≈ duration / interval.
        let expected = (pass.duration_s() / 8.0) as usize;
        assert!((times.len() as i64 - expected as i64).abs() <= 1);
        // Consecutive spacing is the interval.
        for w in times.windows(2) {
            assert!((w[1].seconds_since(w[0]) - 8.0).abs() < 1e-3);
        }
    }

    #[test]
    fn beacon_phase_shifts_times() {
        let p = predictor();
        let pass = first_pass(&p);
        let a = beacon_times(&pass, 10.0, 0.0).next().unwrap();
        let b = beacon_times(&pass, 10.0, 4.0).next().unwrap();
        assert!((b.seconds_since(a) - 4.0).abs() < 1e-3);
        // Degenerate interval.
        assert_eq!(beacon_times(&pass, 0.0, 0.0).count(), 0);
    }

    /// The offsets are the running sum `t += interval`, bit for bit, and
    /// stop at the last one inside the pass.
    #[test]
    fn beacon_offsets_are_the_running_sum() {
        let pass = first_pass(&predictor());
        let (interval, phase): (f64, f64) = (7.3, 12.9);
        let mut expected = Vec::new();
        let mut t = phase.rem_euclid(interval);
        while t <= pass.duration_s() {
            expected.push(pass.aos.plus_seconds(t).0.to_bits());
            t += interval;
        }
        let times: Vec<u64> = beacon_times(&pass, interval, phase)
            .map(|t| t.0.to_bits())
            .collect();
        assert_eq!(times, expected);
    }

    /// A degenerate pass counts once, when `beacon_times` is called,
    /// however far its (empty) iterator is driven. No other test in this
    /// crate hands `beacon_times` a degenerate pass: the campaigns drop
    /// those before simulating, so the counter delta is this test's own.
    #[test]
    fn degenerate_pass_counts_once_per_call() {
        let mut pass = first_pass(&predictor());
        pass.los = pass.aos;
        let before = DEGENERATE_PASSES.value();
        let times = beacon_times(&pass, 8.0, 0.0);
        assert_eq!(DEGENERATE_PASSES.value() - before, 1);
        assert_eq!(times.count(), 0);
        assert_eq!(DEGENERATE_PASSES.value() - before, 1);
    }
}
