//! Precomputed satellite ephemerides: propagate once, serve every site.
//!
//! Pass prediction is observer-*dependent* (elevation masks, look
//! angles) but the satellite trajectory it consumes is
//! observer-*independent*: a 27-site campaign that propagates the same
//! satellite 27 times recomputes identical SGP4 states, GMST values,
//! and TEME→ECEF rotations 26 times too many. An [`EphemerisGrid`]
//! removes that waste in the shape of an inference-stack KV-cache —
//! compute once, serve many:
//!
//! 1. propagate SGP4 over the scan window once, at a coarse cadence
//!    ([`DEFAULT_STEP_S`]), storing the **ECEF** position *and* velocity
//!    of every sample (the velocity falls out of [`teme_to_ecef`] for
//!    free and is the *exact* time derivative of the ECEF position —
//!    the transport theorem's `−ω×r` term is what makes it so);
//! 2. answer any `state_at(t)` query by **cubic Hermite** interpolation
//!    between the two bracketing samples — no SGP4, no `gmst_rad`, no
//!    frame rotation on the per-site hot path;
//! 3. feed the interpolated state to the observer's cheap
//!    [`look_at_ecef`](crate::topo::Observer::look_at_ecef) projection.
//!
//! ## Accuracy contract
//!
//! Hermite interpolation with exact endpoint derivatives has error
//! `‖f − H‖ ≤ h⁴/384 · max‖f⁗‖`. A LEO ECEF trajectory is dominated by
//! a rotation at orbital rate `ω ≈ 1.1×10⁻³ rad/s` with radius
//! `r ≈ 7000 km`, so `max‖f⁗‖ ≈ r·ω⁴` and the bound evaluates to
//! ~0.35 m at `h = 60 s` — *sub-metre* at the default cadence, and
//! still ≈ 28 m at the [`MAX_STEP_S`] clamp used for multi-month
//! windows. Slant ranges are ≥ 400 km for any above-horizon LEO
//! geometry, so even the clamped worst case perturbs elevation by
//! < 0.004°, comfortably inside the documented contract:
//!
//! * interpolated **position** within [`MAX_POSITION_ERROR_KM`] of
//!   direct SGP4 (asserted by [`EphemerisGrid::validate`], which
//!   probes the hardest points — inter-sample midpoints);
//! * interpolated **elevation** within [`MAX_ELEVATION_ERROR_DEG`] of
//!   direct SGP4 from any ground observer (checked across the Table-3
//!   constellations by the `ephemeris_check` CI binary and by the
//!   `prop_orbit` property tests).
//!
//! ## One backend
//!
//! Every campaign predictor built through `satiot_core::sweep` attaches
//! a shared grid; a [`PassPredictor`](crate::pass::PassPredictor) with
//! no grid samples direct SGP4, which remains the out-of-window
//! fallback and the test oracle. [`EphemerisGrid::validate`] probes a
//! grid against direct SGP4, and the `ephemeris_check` CI binary runs
//! it across the Table-3 constellations.

use crate::frames::{teme_to_ecef, StateEcef};
use crate::sgp4::Sgp4;
use crate::time::JulianDate;
use crate::vec3::Vec3;
use satiot_obs::metrics::Counter;

/// Grids built process-wide (metrics).
static GRIDS_BUILT: Counter = Counter::new("orbit.ephemeris.grids_built");
/// SGP4 samples stored across all grids (metrics).
static GRID_SAMPLES: Counter = Counter::new("orbit.ephemeris.grid_samples");
/// `state_at` queries answered by interpolation (metrics).
static INTERPOLATIONS: Counter = Counter::new("orbit.ephemeris.interpolations");
/// `state_at` queries outside the grid or over invalid samples (metrics).
static GRID_MISSES: Counter = Counter::new("orbit.ephemeris.grid_misses");

/// Default sample spacing, seconds. 60 s keeps the Hermite error
/// sub-metre for any LEO orbit (see the module docs).
pub const DEFAULT_STEP_S: f64 = 60.0;

/// Widest spacing a grid will ever use, seconds. Multi-month windows
/// stretch the step (capping samples near [`TARGET_MAX_SAMPLES`]) but
/// never beyond this, keeping the position error ≤ ~28 m ≪ the mask
/// refinement scale.
pub const MAX_STEP_S: f64 = 180.0;

/// Soft cap on samples per grid (2¹⁷ ≈ 131 k ≈ 6 MB of f64 state); the
/// step widens toward [`MAX_STEP_S`] before the count may grow past it.
pub const TARGET_MAX_SAMPLES: usize = 1 << 17;

/// Position-error contract: interpolated ECEF position stays within
/// this of direct SGP4, at any step up to [`MAX_STEP_S`].
pub const MAX_POSITION_ERROR_KM: f64 = 0.05;

/// Elevation-error contract versus direct SGP4, degrees, for any
/// ground observer with the satellite above the horizon.
pub const MAX_ELEVATION_ERROR_DEG: f64 = 0.01;

/// The ephemeris backend of the campaign predictors: shared grids.
///
/// One variant only. It exists because the benchmark worker under
/// `perfbench/` still names it when calling
/// `satiot_core::sweep::predictor_with_mode`; it goes when the
/// benchmark is next rebased.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EphemerisMode {
    /// Shared grids on the predict path.
    On,
}

/// A worst-case probe report from [`EphemerisGrid::validate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValidationReport {
    /// Largest interpolated-vs-direct position error seen, km.
    pub max_position_error_km: f64,
    /// Largest interpolated-vs-direct velocity error seen, km/s.
    pub max_velocity_error_km_s: f64,
    /// Midpoints probed.
    pub probes: usize,
}

impl ValidationReport {
    /// Whether the probe stayed inside the position contract.
    pub fn within_contract(&self) -> bool {
        self.max_position_error_km <= MAX_POSITION_ERROR_KM
    }
}

/// A precomputed, Hermite-interpolable ECEF trajectory of one satellite
/// over one scan window.
///
/// ```
/// use satiot_orbit::elements::Elements;
/// use satiot_orbit::ephemeris::EphemerisGrid;
/// use satiot_orbit::time::JulianDate;
///
/// let epoch = JulianDate::from_calendar(2025, 3, 1, 0, 0, 0.0);
/// let sgp4 = Elements::circular(550.0, 97.6, epoch).to_sgp4().unwrap();
/// let grid = EphemerisGrid::build(&sgp4, epoch, epoch + 1.0);
/// let t = epoch.plus_seconds(1234.5);
/// let interp = grid.state_at(t).unwrap();
/// let direct = satiot_orbit::frames::teme_to_ecef(&sgp4.propagate_at(t).unwrap(), t);
/// assert!((interp.position_km - direct.position_km).norm() < 1e-3); // sub-metre
/// ```
#[derive(Debug, Clone)]
pub struct EphemerisGrid {
    /// Time of sample 0 (the window start minus the edge padding).
    t0: JulianDate,
    /// Sample spacing, seconds.
    step_s: f64,
    /// One `(position, velocity)` ECEF sample per lattice point. A
    /// sample whose propagation failed stores NaN components; queries
    /// bracketed by one degrade to `None` (callers fall back to direct
    /// propagation, which reports the same failure its own way).
    samples: Vec<StateEcef>,
    /// Maximum geocentric radius over the samples, km (NaN when any
    /// sample is degenerate). Grid-only aggregate consumed by the
    /// spatial pre-cull; computed once here instead of once per
    /// (site, satellite) pair.
    max_radius_km: f64,
    /// Maximum `|v|/|r|` over the samples, rad/s (NaN when any sample
    /// is degenerate) — bounds how fast the satellite's ECEF direction
    /// can swing, which bounds the Earth-central angle it can close
    /// within one step.
    max_angular_rate: f64,
}

impl EphemerisGrid {
    /// Sample spacing for a window of `span_s` seconds: the default
    /// cadence, widened toward [`MAX_STEP_S`] so multi-month grids stay
    /// near [`TARGET_MAX_SAMPLES`] samples.
    pub fn step_for_span(span_s: f64) -> f64 {
        let fitted = span_s / (TARGET_MAX_SAMPLES as f64 - 1.0);
        fitted.clamp(DEFAULT_STEP_S, MAX_STEP_S)
    }

    /// Propagate `sgp4` across `[start, end]` and build the grid.
    ///
    /// The lattice is padded by two steps on each side so refinement
    /// probes at the window edges — and the 1 s look-ahead the Doppler
    /// rate sampler uses at LOS — stay on-grid. Degenerate windows
    /// (non-finite or `end ≤ start`) yield an empty grid whose
    /// `state_at` always answers `None`.
    pub fn build(sgp4: &Sgp4, start: JulianDate, end: JulianDate) -> EphemerisGrid {
        let span_s = end.seconds_since(start);
        if !(span_s.is_finite() && span_s > 0.0 && start.0.is_finite()) {
            return EphemerisGrid {
                t0: start,
                step_s: DEFAULT_STEP_S,
                samples: Vec::new(),
                max_radius_km: f64::NAN,
                max_angular_rate: f64::NAN,
            };
        }
        let step_s = Self::step_for_span(span_s);
        let t0 = start.plus_seconds(-2.0 * step_s);
        let padded_span = span_s + 4.0 * step_s;
        let n = (padded_span / step_s).ceil() as usize + 1;
        let nan = Vec3::new(f64::NAN, f64::NAN, f64::NAN);
        let samples: Vec<StateEcef> = (0..n)
            .map(|k| {
                let t = t0.plus_seconds(k as f64 * step_s);
                match sgp4.propagate_at(t) {
                    Ok(state) => teme_to_ecef(&state, t),
                    Err(_) => StateEcef {
                        position_km: nan,
                        velocity_km_s: nan,
                    },
                }
            })
            .collect();
        GRIDS_BUILT.inc();
        GRID_SAMPLES.add(samples.len() as u64);
        let mut max_radius_km = 0.0_f64;
        let mut max_angular_rate = 0.0_f64;
        for st in &samples {
            let r = st.position_km.norm();
            let rate = st.velocity_km_s.norm() / r;
            if !(r.is_finite() && r > 0.0 && rate.is_finite()) {
                max_radius_km = f64::NAN;
                max_angular_rate = f64::NAN;
                break;
            }
            max_radius_km = max_radius_km.max(r);
            max_angular_rate = max_angular_rate.max(rate);
        }
        EphemerisGrid {
            t0,
            step_s,
            samples,
            max_radius_km,
            max_angular_rate,
        }
    }

    /// The interpolated ECEF state at `t`, or `None` when `t` falls
    /// outside the lattice or a bracketing sample is invalid.
    pub fn state_at(&self, t: JulianDate) -> Option<StateEcef> {
        let n = self.samples.len();
        if n < 2 {
            GRID_MISSES.inc();
            return None;
        }
        let x = t.seconds_since(self.t0) / self.step_s;
        if !(x >= 0.0 && x <= (n - 1) as f64) {
            GRID_MISSES.inc();
            return None;
        }
        let i = (x as usize).min(n - 2);
        let s = x - i as f64;
        let a = &self.samples[i];
        let b = &self.samples[i + 1];
        if !(a.position_km.x.is_finite() && b.position_km.x.is_finite()) {
            GRID_MISSES.inc();
            return None;
        }
        INTERPOLATIONS.inc();

        // Cubic Hermite on [0, 1] with tangents scaled by the step. At
        // s = 0 and s = 1 the basis reproduces the stored samples
        // (position and velocity) exactly, so on-lattice queries carry
        // no interpolation error — only time-arithmetic rounding.
        let h = self.step_s;
        let s2 = s * s;
        let s3 = s2 * s;
        let h00 = 2.0 * s3 - 3.0 * s2 + 1.0;
        let h10 = s3 - 2.0 * s2 + s;
        let h01 = -2.0 * s3 + 3.0 * s2;
        let h11 = s3 - s2;
        let position_km = a.position_km * h00
            + a.velocity_km_s * (h * h10)
            + b.position_km * h01
            + b.velocity_km_s * (h * h11);
        // d/dt = (d/ds)/h; the basis derivatives at s ∈ {0, 1} are
        // (0, 1, 0, 0) and (0, 0, 0, 1), so endpoint velocities are
        // exact too.
        let d00 = 6.0 * s2 - 6.0 * s;
        let d10 = 3.0 * s2 - 4.0 * s + 1.0;
        let d01 = -6.0 * s2 + 6.0 * s;
        let d11 = 3.0 * s2 - 2.0 * s;
        let velocity_km_s = a.position_km * (d00 / h)
            + a.velocity_km_s * d10
            + b.position_km * (d01 / h)
            + b.velocity_km_s * d11;
        Some(StateEcef {
            position_km,
            velocity_km_s,
        })
    }

    /// Number of stored samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the grid holds no usable lattice (degenerate window).
    pub fn is_empty(&self) -> bool {
        self.samples.len() < 2
    }

    /// Sample spacing, seconds.
    pub fn step_s(&self) -> f64 {
        self.step_s
    }

    /// Maximum geocentric radius over the stored samples, km — `NaN`
    /// when the grid is empty or any sample is degenerate. The spatial
    /// pre-cull ([`cull`](crate::cull)) sizes its visibility cone from
    /// this instead of re-scanning the samples per (site, sat) pair.
    pub fn max_radius_km(&self) -> f64 {
        self.max_radius_km
    }

    /// Maximum `|v|/|r|` over the stored samples, rad/s — `NaN` when
    /// the grid is empty or any sample is degenerate. Bounds the
    /// Earth-central angular rate of the satellite's ECEF direction
    /// (`|d r̂/dt| ≤ |v|/|r|`), hence how far it can move between
    /// samples.
    pub fn max_angular_rate(&self) -> f64 {
        self.max_angular_rate
    }

    /// The instant of lattice point `k`.
    pub fn sample_time(&self, k: usize) -> JulianDate {
        self.t0.plus_seconds(k as f64 * self.step_s)
    }

    /// The raw lattice samples, one ECEF state per point (sample `k`
    /// is at [`Self::sample_time`]`(k)`). Column-sweep kernels
    /// ([`visibility`](crate::visibility)) consume these directly
    /// instead of interpolating point queries.
    pub fn samples(&self) -> &[StateEcef] {
        &self.samples
    }

    /// Probe the grid against direct SGP4 at the inter-sample midpoints
    /// (the worst case for Hermite error), at most `max_probes` of
    /// them, spread across the whole lattice.
    pub fn validate(&self, sgp4: &Sgp4, max_probes: usize) -> ValidationReport {
        let mut report = ValidationReport {
            max_position_error_km: 0.0,
            max_velocity_error_km_s: 0.0,
            probes: 0,
        };
        if self.is_empty() || max_probes == 0 {
            return report;
        }
        let intervals = self.samples.len() - 1;
        let stride = intervals.div_ceil(max_probes).max(1);
        for i in (0..intervals).step_by(stride) {
            let t = self.t0.plus_seconds((i as f64 + 0.5) * self.step_s);
            let (Some(interp), Ok(state)) = (self.state_at(t), sgp4.propagate_at(t)) else {
                continue;
            };
            let direct = teme_to_ecef(&state, t);
            let dp = (interp.position_km - direct.position_km).norm();
            let dv = (interp.velocity_km_s - direct.velocity_km_s).norm();
            report.max_position_error_km = report.max_position_error_km.max(dp);
            report.max_velocity_error_km_s = report.max_velocity_error_km_s.max(dv);
            report.probes += 1;
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elements::Elements;

    fn epoch() -> JulianDate {
        JulianDate::from_calendar(2025, 3, 1, 0, 0, 0.0)
    }

    fn leo(alt_km: f64, incl_deg: f64) -> Sgp4 {
        Elements::circular(alt_km, incl_deg, epoch())
            .to_sgp4()
            .unwrap()
    }

    #[test]
    fn interpolation_is_sub_metre_at_default_step() {
        let sgp4 = leo(550.0, 97.6);
        let grid = EphemerisGrid::build(&sgp4, epoch(), epoch() + 1.0);
        assert!((grid.step_s() - DEFAULT_STEP_S).abs() < 1e-12);
        // Probe every 37 s (never on-lattice) across the window.
        let mut worst = 0.0_f64;
        let mut t = epoch();
        while t < epoch() + 1.0 {
            let interp = grid.state_at(t).expect("in-window query");
            let direct = teme_to_ecef(&sgp4.propagate_at(t).unwrap(), t);
            worst = worst.max((interp.position_km - direct.position_km).norm());
            t = t.plus_seconds(37.0);
        }
        assert!(worst < 1e-3, "worst position error {} km", worst);
    }

    #[test]
    fn on_sample_queries_match_direct_propagation() {
        // On-lattice queries reproduce the stored samples exactly in
        // exact arithmetic (the Hermite basis is interpolatory); in
        // practice `JulianDate` time arithmetic quantises the query
        // instant to ~50 µs ≈ 0.4 m of along-track motion, which is
        // the floor here — still sub-metre.
        let sgp4 = leo(700.0, 55.0);
        let grid = EphemerisGrid::build(&sgp4, epoch(), epoch() + 0.25);
        for k in [0, 1, 7, grid.len() - 2, grid.len() - 1] {
            let t = grid.sample_time(k);
            let interp = grid.state_at(t).expect("lattice point");
            let direct = teme_to_ecef(&sgp4.propagate_at(t).unwrap(), t);
            assert!((interp.position_km - direct.position_km).norm() < 1e-3);
            assert!((interp.velocity_km_s - direct.velocity_km_s).norm() < 1e-5);
        }
    }

    #[test]
    fn window_edges_are_covered_with_padding() {
        let sgp4 = leo(550.0, 97.6);
        let start = epoch();
        let end = epoch() + 1.0;
        let grid = EphemerisGrid::build(&sgp4, start, end);
        // The scan window itself, its exact edges, and the 1 s Doppler
        // look-ahead past LOS are all on-grid…
        for t in [
            start,
            end,
            start.plus_seconds(-DEFAULT_STEP_S),
            end.plus_seconds(1.0),
            end.plus_seconds(2.0 * DEFAULT_STEP_S - 1.0),
        ] {
            assert!(grid.state_at(t).is_some(), "uncovered t = {:?}", t);
        }
        // …while far-outside queries answer None instead of extrapolating.
        assert!(grid.state_at(start.plus_seconds(-1_000.0)).is_none());
        assert!(grid.state_at(end.plus_seconds(1_000.0)).is_none());
    }

    #[test]
    fn degenerate_windows_build_empty_grids() {
        let sgp4 = leo(550.0, 97.6);
        for (s, e) in [
            (epoch(), epoch()),
            (epoch() + 1.0, epoch()),
            (JulianDate(f64::NAN), epoch()),
            (epoch(), JulianDate(f64::INFINITY)),
        ] {
            let grid = EphemerisGrid::build(&sgp4, s, e);
            assert!(grid.is_empty());
            assert!(grid.state_at(epoch()).is_none());
        }
    }

    #[test]
    fn long_windows_widen_the_step_within_contract() {
        // A 212-day passive-campaign window would need 305 k samples at
        // 60 s; the step widens to keep the grid near the target size.
        let span = 212.0 * 86_400.0;
        let step = EphemerisGrid::step_for_span(span);
        assert!(step > DEFAULT_STEP_S && step <= MAX_STEP_S, "step {step}");
        // Short windows stay at the default cadence.
        assert_eq!(EphemerisGrid::step_for_span(86_400.0), DEFAULT_STEP_S);
    }

    #[test]
    fn validate_reports_contract_compliance() {
        let sgp4 = leo(440.0, 97.61); // The lowest Table-3 shell.
        let grid = EphemerisGrid::build(&sgp4, epoch(), epoch() + 2.0);
        let report = grid.validate(&sgp4, 256);
        assert!(report.probes > 0);
        assert!(
            report.within_contract(),
            "position error {} km breaks the contract",
            report.max_position_error_km
        );
        // At the default step the real error is ~3 orders tighter than
        // the contract constant.
        assert!(report.max_position_error_km < 1e-3);
    }
}
