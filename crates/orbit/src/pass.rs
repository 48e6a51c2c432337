//! Contact-window (pass) prediction.
//!
//! A *pass* is the interval during which a satellite sits above a minimum
//! elevation mask as seen from a ground site — the paper's "theoretical
//! contact window". Every pass list comes from one scan: the margin
//! sweep of [`visibility`](crate::visibility) over an [`EphemerisGrid`]
//! brackets the horizon crossings, bisection refines AOS/LOS to ~10 ms,
//! and a golden-section search finds the culmination (maximum
//! elevation).
//!
//! One scan serves any number of observers of one satellite:
//! [`PassPredictor::passes_from_sites`] pushes every site into one
//! [`VisibilitySweep`] arena, sweeps the grid once, and refines each
//! site's events on their own, so each site's list is bit for bit the
//! one [`PassPredictor::passes`] returns for it — which is that scan's
//! one-observer case.
//!
//! The sweep reads the grid attached with
//! [`PassPredictor::with_ephemeris`] when that grid covers the scan
//! window; otherwise the predictor builds a grid for the window, sweeps
//! it and drops it. Refinement samples through the predictor's own
//! backend — the attached grid where it covers an instant, direct SGP4
//! elsewhere — so a predictor's passes agree with its
//! [`PassPredictor::elevation_at`] and [`PassPredictor::look_at`]. Its
//! probes read the elevation and nothing else: a position-only Hermite
//! interpolant ([`EphemerisGrid::position_at`]) and `asin(z/r)`
//! ([`Observer::elevation_at_ecef`]), the same expressions the full
//! state and look angles evaluate.
//!
//! The adaptive direct-SGP4 scan, `reference_passes`, is kept only as
//! the oracle the sweep is tested against.

use crate::ephemeris::EphemerisGrid;
use crate::error::OrbitError;
use crate::frames::{teme_to_ecef, Geodetic, StateEcef};
use crate::sgp4::Sgp4;
use crate::time::JulianDate;
use crate::topo::{LookAngles, Observer};
use crate::visibility::{SweepEventKind, SweepOutcome, VisibilityMode, VisibilitySweep};
use core::f64::consts::FRAC_PI_2;
use satiot_obs::metrics::Counter;
use std::cell::OnceCell;
use std::sync::Arc;

/// Completed contact windows emitted by all predictors (metrics).
static PASSES_PREDICTED: Counter = Counter::new("orbit.pass.passes_predicted");
/// Pass scans rejected for non-finite bounds or masks (metrics).
static NON_FINITE_SCANS: Counter = Counter::new("orbit.pass.non_finite_scans");
/// Moving-observer legs scanned (metrics).
static LEGS_SCANNED: Counter = Counter::new("orbit.pass.legs_scanned");

/// One leg of a moving observer's itinerary: the observer holds
/// `position` throughout `[start, end]`. Mobility tracks (ships, asset
/// trackers) are discretised into legs upstream — within a leg the pass
/// geometry is that of a fixed site, so each leg reuses the whole
/// fixed-observer machinery (margin sweep, refinement, one shared
/// ephemeris grid).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObserverLeg {
    /// Leg start (inclusive).
    pub start: JulianDate,
    /// Leg end.
    pub end: JulianDate,
    /// Observer position held for the duration of the leg.
    pub position: Geodetic,
}

/// One predicted contact window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pass {
    /// Acquisition of signal: elevation rises through the mask.
    pub aos: JulianDate,
    /// Loss of signal: elevation falls back through the mask.
    pub los: JulianDate,
    /// Time of culmination (maximum elevation).
    pub tca: JulianDate,
    /// Maximum elevation reached, radians.
    pub max_elevation_rad: f64,
    /// Slant range at culmination, km.
    pub tca_range_km: f64,
}

impl Pass {
    /// Window duration in minutes.
    pub fn duration_min(&self) -> f64 {
        self.los.minutes_since(self.aos)
    }

    /// Window duration in seconds.
    pub fn duration_s(&self) -> f64 {
        self.los.seconds_since(self.aos)
    }

    /// Whether `t` falls inside the window.
    pub fn contains(&self, t: JulianDate) -> bool {
        t >= self.aos && t <= self.los
    }

    /// Normalised position of `t` within the window ∈ [0, 1]
    /// (used for the paper's Figure 9 analysis).
    pub fn normalized_position(&self, t: JulianDate) -> f64 {
        let d = self.los.seconds_since(self.aos);
        if d <= 0.0 {
            return 0.0;
        }
        (t.seconds_since(self.aos) / d).clamp(0.0, 1.0)
    }
}

/// Predicts passes of one satellite over one ground site.
///
/// ```
/// use satiot_orbit::elements::Elements;
/// use satiot_orbit::frames::Geodetic;
/// use satiot_orbit::pass::PassPredictor;
/// use satiot_orbit::time::JulianDate;
///
/// let epoch = JulianDate::from_calendar(2025, 3, 1, 0, 0, 0.0);
/// let sgp4 = Elements::circular(550.0, 97.6, epoch).to_sgp4().unwrap();
/// let hk = Geodetic::from_degrees(22.32, 114.17, 0.05);
/// let predictor = PassPredictor::new(sgp4, hk, 0.0);
/// let passes = predictor.passes(epoch, epoch + 1.0);
/// assert!(!passes.is_empty());
/// assert!(passes[0].duration_min() < 16.0);
/// ```
#[derive(Debug, Clone)]
pub struct PassPredictor {
    sgp4: Sgp4,
    observer: Observer,
    /// Elevation mask, radians.
    pub min_elevation_rad: f64,
    /// Optional shared ephemeris backend (see [`Self::with_ephemeris`]).
    ephemeris: Option<Arc<EphemerisGrid>>,
}

impl PassPredictor {
    /// Create a predictor for `sgp4` as seen from `site` with the given
    /// elevation mask (radians). Samples by direct SGP4 propagation;
    /// attach a grid with [`Self::with_ephemeris`] to interpolate
    /// instead.
    pub fn new(sgp4: Sgp4, site: Geodetic, min_elevation_rad: f64) -> Self {
        PassPredictor {
            sgp4,
            observer: Observer::new(site),
            min_elevation_rad,
            ephemeris: None,
        }
    }

    /// Sample through `grid` instead of propagating: queries the grid
    /// covers are Hermite-interpolated (no SGP4, no GMST, no frame
    /// rotation); queries outside it fall back to direct propagation,
    /// so attaching a grid never changes *which* instants are
    /// answerable — only how cheaply. A scan whose window the grid
    /// covers sweeps it; any other scan sweeps a grid built for its
    /// window (see [`Self::passes`]).
    pub fn with_ephemeris(mut self, grid: Arc<EphemerisGrid>) -> Self {
        self.ephemeris = Some(grid);
        self
    }

    /// The attached ephemeris backend, if any.
    pub fn ephemeris(&self) -> Option<&Arc<EphemerisGrid>> {
        self.ephemeris.as_ref()
    }

    /// The satellite's ECEF state at `t` through the sampling backend:
    /// grid interpolation when a grid is attached and covers `t`,
    /// direct SGP4 + frame rotation otherwise.
    fn state_ecef_at(&self, t: JulianDate) -> Option<StateEcef> {
        if let Some(grid) = &self.ephemeris {
            if let Some(state) = grid.state_at(t) {
                return Some(state);
            }
        }
        self.sgp4
            .propagate_at(t)
            .ok()
            .map(|state| teme_to_ecef(&state, t))
    }

    /// Elevation above the horizon at `t`, radians. Propagation failures
    /// (decayed elements, …) report as far below the horizon so scanning
    /// code treats them as "not visible".
    ///
    /// Bit for bit the `elevation_rad` of [`Self::look_at`], computed
    /// without the velocity, the azimuth or the range rate.
    pub fn elevation_at(&self, t: JulianDate) -> f64 {
        self.elevation_from(&self.observer, t)
    }

    /// [`Self::elevation_at`] as seen from `observer`: the probe behind
    /// every refinement step. Over the attached grid it interpolates
    /// the position alone; elsewhere it propagates as
    /// [`Self::state_ecef_at`] does.
    fn elevation_from(&self, observer: &Observer, t: JulianDate) -> f64 {
        if let Some(grid) = &self.ephemeris {
            if let Some(position) = grid.position_at(t) {
                return observer.elevation_at_ecef(position);
            }
        }
        match self.sgp4.propagate_at(t) {
            Ok(state) => observer.elevation_at_ecef(teme_to_ecef(&state, t).position_km),
            Err(_) => -FRAC_PI_2,
        }
    }

    /// Look angles at `t`, if the satellite state is computable.
    pub fn look_at(&self, t: JulianDate) -> Option<LookAngles> {
        self.look_from(&self.observer, t)
    }

    /// [`Self::look_at`] as seen from `observer`.
    fn look_from(&self, observer: &Observer, t: JulianDate) -> Option<LookAngles> {
        self.state_ecef_at(t)
            .map(|state| observer.look_at_ecef(state.position_km, state.velocity_km_s))
    }

    /// Re-site the predictor: same satellite, sampling backend and
    /// mask, new observer position. Moving-observer scans re-use one
    /// satellite ephemeris grid across every leg this way — the grid
    /// stores the *satellite* trajectory, which is
    /// observer-independent.
    pub fn with_observer_position(mut self, site: Geodetic) -> Self {
        self.observer = Observer::new(site);
        self
    }

    /// Passes seen by a *moving* observer described as piecewise legs:
    /// each leg pins the observer at its position and scans its own
    /// window as [`Self::try_passes`] would; the per-leg lists
    /// concatenate in time order. A leg the attached grid does not
    /// cover sweeps one grid built over the span of all legs, shared by
    /// every such leg.
    ///
    /// Legs must be chronological and non-overlapping (gaps are fine —
    /// nothing is scanned inside them). A contact that straddles a leg
    /// boundary is reported as two truncated passes, one per observer
    /// position — the geometry genuinely changed at the waypoint, and
    /// splitting keeps the result deterministic and driver-independent.
    pub fn passes_over_legs(&self, legs: &[ObserverLeg]) -> Result<Vec<Pass>, OrbitError> {
        for (i, pair) in legs.windows(2).enumerate() {
            if pair[1].start < pair[0].end {
                return Err(OrbitError::UnorderedLegs { index: i + 1 });
            }
        }
        for leg in legs {
            self.check_scan(leg.start, leg.end)?;
        }
        let first = legs.iter().map(|l| l.start.0).fold(f64::INFINITY, f64::min);
        let last = legs
            .iter()
            .map(|l| l.end.0)
            .fold(f64::NEG_INFINITY, f64::max);
        let span = OnceCell::new();
        let span_grid = || {
            span.get_or_init(|| {
                EphemerisGrid::build(&self.sgp4, JulianDate(first), JulianDate(last))
            })
        };
        let mut out = Vec::new();
        for leg in legs {
            let observer = [Observer::new(leg.position)];
            out.extend(
                self.scan(&observer, leg.start, leg.end, span_grid)
                    .into_iter()
                    .flatten(),
            );
            LEGS_SCANNED.inc();
        }
        Ok(out)
    }

    /// The underlying propagator.
    pub fn sgp4(&self) -> &Sgp4 {
        &self.sgp4
    }

    /// The observer site.
    pub fn observer(&self) -> &Observer {
        &self.observer
    }

    /// Find every pass in `[start, end]`, in chronological order.
    ///
    /// A pass already in progress at `start` is reported with `aos = start`;
    /// one still in progress at `end` is truncated at `end`.
    ///
    /// Crossings are bracketed by the margin sweep over the attached
    /// grid when it covers the window, else over a grid built for the
    /// window; the sweep misses no pass (see the
    /// [`visibility`](crate::visibility) module docs). A mask outside
    /// `[−π/2, π/2]` is clamped into it first: elevation never leaves
    /// that range, so no answer changes.
    ///
    /// Non-finite bounds or masks degrade to an empty pass list (and a
    /// bump of the `orbit.pass.non_finite_scans` metric); callers that
    /// must distinguish the degenerate case use [`Self::try_passes`].
    pub fn passes(&self, start: JulianDate, end: JulianDate) -> Vec<Pass> {
        self.try_passes(start, end).unwrap_or_default()
    }

    /// Fallible sibling of [`Self::passes`]: rejects non-finite scan
    /// bounds and elevation masks with a typed error instead of
    /// degrading to an empty list.
    pub fn try_passes(&self, start: JulianDate, end: JulianDate) -> Result<Vec<Pass>, OrbitError> {
        self.check_scan(start, end)?;
        let mut lists = self.scan_window(&[self.observer], start, end);
        Ok(lists.pop().expect("one list per observer"))
    }

    /// [`Self::passes`] for many observers of this satellite at once:
    /// list `i` is exactly the list [`Self::passes`] returns for this
    /// predictor re-sited at `sites[i]` ([`Self::with_observer_position`]),
    /// whatever the other sites are. Every site shares the mask and the
    /// sampling backend, so one margin sweep over one grid brackets all
    /// their crossings; each site's events are then refined on their
    /// own. The predictor's own observer plays no part.
    ///
    /// Non-finite bounds or masks give every site an empty list.
    pub fn passes_from_sites(
        &self,
        sites: &[Geodetic],
        start: JulianDate,
        end: JulianDate,
    ) -> Vec<Vec<Pass>> {
        if self.check_scan(start, end).is_err() {
            return vec![Vec::new(); sites.len()];
        }
        let observers: Vec<Observer> = sites.iter().map(|&site| Observer::new(site)).collect();
        self.scan_window(&observers, start, end)
    }

    /// Reject non-finite scan bounds and masks.
    fn check_scan(&self, start: JulianDate, end: JulianDate) -> Result<(), OrbitError> {
        for (field, value) in [
            ("start", start.0),
            ("end", end.0),
            ("mask", self.min_elevation_rad),
        ] {
            if !value.is_finite() {
                NON_FINITE_SCANS.inc();
                return Err(OrbitError::NonFiniteScan { field, value });
            }
        }
        Ok(())
    }

    /// [`Self::scan`] whose spare grid is built for `[start, end]` on
    /// first use.
    fn scan_window(
        &self,
        observers: &[Observer],
        start: JulianDate,
        end: JulianDate,
    ) -> Vec<Vec<Pass>> {
        let local = OnceCell::new();
        let local_grid = || local.get_or_init(|| EphemerisGrid::build(&self.sgp4, start, end));
        self.scan(observers, start, end, local_grid)
    }

    /// The one scan (bounds already validated), one pass list per
    /// observer: sweep the attached grid when it covers `[start, end]`,
    /// else the grid `spare` supplies (built on first use), for every
    /// observer at once, then refine each observer's events.
    fn scan<'g>(
        &self,
        observers: &[Observer],
        start: JulianDate,
        end: JulianDate,
        spare: impl FnOnce() -> &'g EphemerisGrid,
    ) -> Vec<Vec<Pass>> {
        if end <= start || observers.is_empty() {
            return vec![Vec::new(); observers.len()];
        }
        // Clamping keeps the margin ⟺ elevation equivalence valid: asin
        // is monotone on [−π/2, π/2]. The sweep answers `None` when a
        // grid does not cover the window.
        let mask = self.min_elevation_rad.clamp(-FRAC_PI_2, FRAC_PI_2);
        let mut arena = VisibilitySweep::new();
        for observer in observers {
            arena.push(observer, mask);
        }
        let sweep = |grid: &EphemerisGrid| arena.run(grid, start, end, VisibilityMode::On);
        match self
            .ephemeris
            .as_deref()
            .and_then(sweep)
            .or_else(|| sweep(spare()))
        {
            Some(outcomes) => observers
                .iter()
                .zip(&outcomes)
                .map(|(observer, outcome)| self.refine_sweep(observer, outcome, start, end))
                .collect(),
            None => vec![Vec::new(); observers.len()],
        }
    }

    /// Turn one observer's margin-sweep event list into refined passes,
    /// through bisection ([`Self::refine_crossing`]) and golden-section
    /// ([`Self::finish_pass`]) over the predictor's sampling backend.
    fn refine_sweep(
        &self,
        observer: &Observer,
        sweep: &SweepOutcome,
        start: JulianDate,
        end: JulianDate,
    ) -> Vec<Pass> {
        let mut result = Vec::new();
        let mut aos: Option<JulianDate> = sweep.above_at_start.then_some(start);
        for event in &sweep.events {
            match event.kind {
                SweepEventKind::Rising => {
                    if aos.is_none() {
                        aos = Some(self.refine_crossing(observer, event.t_lo, event.t_hi));
                    }
                }
                SweepEventKind::Falling => {
                    if let Some(a) = aos.take() {
                        let los = self.refine_crossing(observer, event.t_lo, event.t_hi);
                        result.extend(self.finish_pass(observer, a, los));
                    }
                }
                SweepEventKind::Candidate => {
                    // A pass shorter than one lattice interval may hide
                    // between two below-mask samples; probe the
                    // elevation peak before committing to bisection.
                    if aos.is_none() {
                        let (t_peak, el_peak) = self.peak_probe(observer, event.t_lo, event.t_hi);
                        if el_peak > self.min_elevation_rad {
                            let a = self.refine_crossing(observer, event.t_lo, t_peak);
                            let los = self.refine_crossing(observer, t_peak, event.t_hi);
                            result.extend(self.finish_pass(observer, a, los));
                        }
                    }
                }
            }
        }
        // Pass still in progress at `end`.
        if let Some(a) = aos {
            result.extend(self.finish_pass(observer, a, end));
        }
        result
    }

    /// The direct-SGP4 reference scan: the oracle the margin sweep is
    /// tested against, with no caller outside tests. It samples direct
    /// SGP4 only — never an attached grid — and steps adaptively, by
    /// the elevation deficit over a bound on the elevation rate that
    /// the orbit itself sets ([`Self::max_elevation_rate`]): climbing a
    /// deficit of `E` takes at least `E / rate` seconds, so a step that
    /// long (600 s cap) cannot overshoot the mask. Once that step falls
    /// under `floor_s`, or above the mask, the scan steps `floor_s`: it
    /// can skip a pass shorter than `floor_s`, but none longer, and
    /// panics on a floor that is not positive. Bounds and masks degrade
    /// as in [`Self::passes`].
    #[doc(hidden)]
    pub fn reference_passes(&self, start: JulianDate, end: JulianDate, floor_s: f64) -> Vec<Pass> {
        assert!(floor_s > 0.0, "a step floor of {floor_s} s");
        let mut result = Vec::new();
        if self.check_scan(start, end).is_err() || end <= start {
            return result;
        }
        let mut direct = self.clone();
        direct.ephemeris = None;
        let observer = &self.observer;
        let mask = direct.min_elevation_rad;
        let rate = self.max_elevation_rate(mask);
        let mut t_prev = start;
        let mut el_prev = direct.elevation_at(t_prev);
        let mut aos: Option<JulianDate> = (el_prev > mask).then_some(start);
        loop {
            let step_s = ((mask - el_prev) / rate).max(floor_s);
            let t = JulianDate((t_prev.0 + step_s.min(600.0) / 86_400.0).min(end.0));
            let el = direct.elevation_at(t);
            let above = el > mask;
            if above && aos.is_none() {
                aos = Some(direct.refine_crossing(observer, t_prev, t));
            } else if !above {
                if let Some(a) = aos.take() {
                    let los = direct.refine_crossing(observer, t_prev, t);
                    result.extend(direct.finish_pass(observer, a, los));
                }
            }
            el_prev = el;
            t_prev = t;
            if t_prev >= end {
                break;
            }
        }
        // Pass still in progress at `end`.
        if let Some(a) = aos {
            result.extend(direct.finish_pass(observer, a, end));
        }
        result
    }

    /// An upper bound, rad/s, on how fast the observer's elevation of
    /// this satellite can change while it is at or below `mask`.
    ///
    /// The line of sight turns at most at `|v|/|ρ|` (the site is fixed
    /// in ECEF), and elevation changes no faster than the line of sight
    /// turns. The ECEF speed is at most the vis-viva speed at the
    /// lowest radius plus the Earth's rotation at the highest, and
    /// below the mask the slant range is at least the range at the mask
    /// elevation (geocentric, so raised by the zenith deflection) from
    /// the lowest radius. Those radii are the mean perigee and apogee
    /// padded by [`RADIUS_PAD_KM`](crate::cull::RADIUS_PAD_KM) for SGP4's
    /// short-period oscillations. Near zenith over a 400 km orbit the
    /// bound is about 1.2°/s; at a 0° mask, 0.2°/s. It is infinite —
    /// every step is the floor — when the lowest radius reaches the
    /// site.
    fn max_elevation_rate(&self, mask: f64) -> f64 {
        use crate::cull::{RADIUS_PAD_KM, ZENITH_DEFLECTION_RAD};
        use crate::frames::EARTH_OMEGA_RAD_S;
        use crate::sgp4::MU_KM3_S2;
        let a = self.sgp4.semi_major_axis_km();
        let r_min = a * (1.0 - self.sgp4.eccentricity()) - RADIUS_PAD_KM;
        let r_max = self.sgp4.apogee_radius_km() + RADIUS_PAD_KM;
        let r_site = self.observer.position_ecef().norm();
        let speed = (MU_KM3_S2 * (2.0 / r_min - 1.0 / a)).sqrt() + EARTH_OMEGA_RAD_S * r_max;
        let el = (mask + ZENITH_DEFLECTION_RAD).clamp(-FRAC_PI_2, FRAC_PI_2);
        let (sin_el, cos_el) = el.sin_cos();
        let range = (r_min * r_min - r_site * r_site * cos_el * cos_el).sqrt() - r_site * sin_el;
        if r_min > r_site && range > 0.0 && speed.is_finite() {
            speed / range
        } else {
            f64::INFINITY
        }
    }

    /// Golden-section search for `observer`'s elevation maximum inside
    /// `[lo, hi]`, to a 0.05 s bracket; returns the bracket's midpoint.
    /// The elevation profile of a LEO pass is unimodal. Unlike a
    /// ternary search, each iteration reuses one interior probe and
    /// evaluates only one new point, and the interval shrinks by 0.618
    /// per evaluation instead of 0.667 per two — about a third fewer
    /// elevation samples to the same bracket.
    fn golden_peak(
        &self,
        observer: &Observer,
        mut lo: JulianDate,
        mut hi: JulianDate,
    ) -> JulianDate {
        const INV_PHI: f64 = 0.618_033_988_749_894_9; // (√5 − 1) / 2
        let mut m1 = JulianDate(hi.0 - INV_PHI * (hi.0 - lo.0));
        let mut m2 = JulianDate(lo.0 + INV_PHI * (hi.0 - lo.0));
        let mut e1 = self.elevation_from(observer, m1);
        let mut e2 = self.elevation_from(observer, m2);
        for _ in 0..80 {
            if hi.seconds_since(lo) < 0.05 {
                break;
            }
            if e1 < e2 {
                lo = m1;
                m1 = m2;
                e1 = e2;
                m2 = JulianDate(lo.0 + INV_PHI * (hi.0 - lo.0));
                e2 = self.elevation_from(observer, m2);
            } else {
                hi = m2;
                m2 = m1;
                e2 = e1;
                m1 = JulianDate(hi.0 - INV_PHI * (hi.0 - lo.0));
                e1 = self.elevation_from(observer, m1);
            }
        }
        JulianDate(0.5 * (lo.0 + hi.0))
    }

    /// Probe for the elevation peak inside `[lo, hi]` (one lattice
    /// interval, [`STEP_S`](crate::ephemeris::STEP_S) = 180 s): a
    /// below-horizon window that short holds at most one approach, since
    /// passes over one site are ≥ 45 min apart, so
    /// [`Self::golden_peak`]'s unimodality holds here too.
    fn peak_probe(&self, observer: &Observer, lo: JulianDate, hi: JulianDate) -> (JulianDate, f64) {
        let t_peak = self.golden_peak(observer, lo, hi);
        (t_peak, self.elevation_from(observer, t_peak))
    }

    /// Bisection: `observer`'s elevation crosses the mask somewhere in
    /// `(lo, hi)`.
    fn refine_crossing(
        &self,
        observer: &Observer,
        mut lo: JulianDate,
        mut hi: JulianDate,
    ) -> JulianDate {
        let mask = self.min_elevation_rad;
        let lo_above = self.elevation_from(observer, lo) > mask;
        for _ in 0..40 {
            if hi.seconds_since(lo) < 0.01 {
                break;
            }
            let mid = JulianDate(0.5 * (lo.0 + hi.0));
            if (self.elevation_from(observer, mid) > mask) == lo_above {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        JulianDate(0.5 * (lo.0 + hi.0))
    }

    /// Locate culmination within `[aos, los]` and assemble the pass.
    fn finish_pass(&self, observer: &Observer, aos: JulianDate, los: JulianDate) -> Option<Pass> {
        if los.seconds_since(aos) < 1.0 {
            return None; // Grazing contact below timing resolution.
        }
        let tca = self.golden_peak(observer, aos, los);
        let la = self.look_from(observer, tca)?;
        satiot_obs::invariants::check_elevation_rad(
            "pass::finish_pass max elevation",
            la.elevation_rad,
        );
        satiot_obs::invariants::check_non_negative(
            "pass::finish_pass duration",
            los.seconds_since(aos),
        );
        PASSES_PREDICTED.inc();
        Some(Pass {
            aos,
            los,
            tca,
            max_elevation_rad: la.elevation_rad,
            tca_range_km: la.range_km,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sgp4::{EARTH_RADIUS_KM, MU_KM3_S2};

    /// A circular polar-ish LEO satellite built from raw elements.
    fn leo_sgp4(alt_km: f64, incl_deg: f64) -> Sgp4 {
        leo_sgp4_at(
            alt_km,
            incl_deg,
            JulianDate::from_calendar(2025, 3, 1, 0, 0, 0.0),
        )
    }

    /// [`leo_sgp4`] with its elements at `epoch`.
    fn leo_sgp4_at(alt_km: f64, incl_deg: f64, epoch: JulianDate) -> Sgp4 {
        let a = EARTH_RADIUS_KM + alt_km;
        let n = (MU_KM3_S2 / (a * a * a)).sqrt() * 60.0; // rad/min
        Sgp4::from_elements(n, 0.001, incl_deg.to_radians(), 1.0, 0.0, 0.0, 1e-5, epoch).unwrap()
    }

    fn hk() -> Geodetic {
        Geodetic::from_degrees(22.3193, 114.1694, 0.05)
    }

    #[test]
    fn finds_passes_within_a_day() {
        let sgp4 = leo_sgp4(550.0, 97.6);
        let p = PassPredictor::new(sgp4, hk(), 0.0);
        let start = JulianDate::from_calendar(2025, 3, 1, 0, 0, 0.0);
        let passes = p.passes(start, start + 1.0);
        // A 550 km polar orbit passes over a mid-latitude site ~2–6×/day.
        assert!(
            (2..=8).contains(&passes.len()),
            "found {} passes",
            passes.len()
        );
        for pass in &passes {
            assert!(pass.los > pass.aos);
            assert!(pass.tca >= pass.aos && pass.tca <= pass.los);
            // LEO pass durations above a 0° mask: tens of seconds to ~15 min.
            assert!(pass.duration_min() < 16.0, "dur = {}", pass.duration_min());
            assert!(pass.max_elevation_rad > 0.0);
        }
        // Chronological, non-overlapping.
        for w in passes.windows(2) {
            assert!(w[1].aos >= w[0].los);
        }
    }

    #[test]
    fn elevation_at_mask_boundary_is_tight() {
        let sgp4 = leo_sgp4(550.0, 97.6);
        let p = PassPredictor::new(sgp4, hk(), 5.0_f64.to_radians());
        let start = JulianDate::from_calendar(2025, 3, 1, 0, 0, 0.0);
        let passes = p.passes(start, start + 1.0);
        assert!(!passes.is_empty());
        for pass in &passes {
            let el_aos = p.elevation_at(pass.aos).to_degrees();
            let el_los = p.elevation_at(pass.los).to_degrees();
            assert!((el_aos - 5.0).abs() < 0.05, "AOS elevation {el_aos}");
            assert!((el_los - 5.0).abs() < 0.05, "LOS elevation {el_los}");
        }
    }

    #[test]
    fn higher_mask_gives_fewer_shorter_passes() {
        let sgp4 = leo_sgp4(550.0, 97.6);
        let start = JulianDate::from_calendar(2025, 3, 1, 0, 0, 0.0);
        let p0 = PassPredictor::new(sgp4.clone(), hk(), 0.0);
        let p25 = PassPredictor::new(sgp4, hk(), 25.0_f64.to_radians());
        let total0: f64 = p0
            .passes(start, start + 2.0)
            .iter()
            .map(|p| p.duration_min())
            .sum();
        let total25: f64 = p25
            .passes(start, start + 2.0)
            .iter()
            .map(|p| p.duration_min())
            .sum();
        assert!(total25 < total0, "{total25} !< {total0}");
    }

    #[test]
    fn max_elevation_is_actually_maximum() {
        let sgp4 = leo_sgp4(550.0, 97.6);
        let p = PassPredictor::new(sgp4, hk(), 0.0);
        let start = JulianDate::from_calendar(2025, 3, 1, 0, 0, 0.0);
        let passes = p.passes(start, start + 1.0);
        for pass in passes {
            // Sample the window; nothing should beat max_elevation by more
            // than numerical slack.
            for k in 0..=20 {
                let t = JulianDate(pass.aos.0 + (pass.los.0 - pass.aos.0) * k as f64 / 20.0);
                assert!(p.elevation_at(t) <= pass.max_elevation_rad + 1e-6);
            }
        }
    }

    /// Pinned from `tests/prop_orbit.proptest-regressions` (seed
    /// `1ddc6ac2…`): a 0° mask at an equatorial site, where AOS/LOS
    /// refinement must still land within 0.5° of the mask for every
    /// interior pass.
    #[test]
    fn regression_zero_mask_aos_seed() {
        use crate::elements::Elements;
        let epoch = JulianDate::from_calendar(2024, 9, 1, 0, 0, 0.0);
        let e = Elements::circular(565.6677817861646, 45.0, epoch);
        let predictor = PassPredictor::new(
            e.to_sgp4().unwrap(),
            Geodetic::from_degrees(0.0, 24.753319049866068, 0.0),
            0.0,
        );
        let start = epoch;
        let end = start + 1.0;
        let passes = predictor.passes(start, end);
        assert!(!passes.is_empty());
        for p in &passes {
            assert!(p.aos <= p.tca && p.tca <= p.los);
            assert!(p.duration_min() < 20.0);
            assert!(p.max_elevation_rad.to_degrees() >= -0.2);
            if p.aos > start && p.los < end {
                let el_aos = predictor.elevation_at(p.aos).to_degrees();
                let el_los = predictor.elevation_at(p.los).to_degrees();
                assert!(el_aos.abs() < 0.5, "AOS elevation {el_aos}");
                assert!(el_los.abs() < 0.5, "LOS elevation {el_los}");
            }
        }
        for w in passes.windows(2) {
            assert!(w[1].aos >= w[0].los);
        }
    }

    /// A NaN scan bound used to hang the coarse scan forever (`t >= end`
    /// never turns true); it must now degrade to an empty list on the
    /// infallible path and a typed error on the fallible one.
    #[test]
    fn non_finite_scan_bounds_are_rejected_not_hung() {
        let sgp4 = leo_sgp4(550.0, 97.6);
        let p = PassPredictor::new(sgp4.clone(), hk(), 0.0);
        let start = JulianDate::from_calendar(2025, 3, 1, 0, 0, 0.0);
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(p.passes(JulianDate(bad), start + 1.0).is_empty());
            assert!(p.passes(start, JulianDate(bad)).is_empty());
            // matches!, not assert_eq: NaN payloads are never equal.
            assert!(matches!(
                p.try_passes(start, JulianDate(bad)),
                Err(OrbitError::NonFiniteScan { field: "end", .. })
            ));
        }
        let mut nan_mask = PassPredictor::new(sgp4, hk(), 0.0);
        nan_mask.min_elevation_rad = f64::NAN;
        assert!(nan_mask.passes(start, start + 1.0).is_empty());
        assert!(matches!(
            nan_mask.try_passes(start, start + 1.0),
            Err(OrbitError::NonFiniteScan { field: "mask", .. })
        ));
    }

    #[test]
    fn try_passes_agrees_with_passes_on_healthy_input() {
        let sgp4 = leo_sgp4(550.0, 97.6);
        let p = PassPredictor::new(sgp4, hk(), 0.0);
        let start = JulianDate::from_calendar(2025, 3, 1, 0, 0, 0.0);
        let infallible = p.passes(start, start + 1.0);
        let fallible = p.try_passes(start, start + 1.0).expect("finite bounds");
        assert_eq!(infallible, fallible);
    }

    #[test]
    fn empty_interval_yields_no_passes() {
        let sgp4 = leo_sgp4(550.0, 97.6);
        let p = PassPredictor::new(sgp4, hk(), 0.0);
        let start = JulianDate::from_calendar(2025, 3, 1, 0, 0, 0.0);
        assert!(p.passes(start, start).is_empty());
        assert!(p.passes(start + 1.0, start).is_empty());
    }

    #[test]
    fn equatorial_orbit_never_visible_from_high_latitude() {
        // A 0°-inclination orbit at 500 km stays within ±~21° of the
        // equator's horizon; London (51.5°N) never sees it above 0°.
        let sgp4 = leo_sgp4(500.0, 0.0);
        let london = Geodetic::from_degrees(51.5074, -0.1278, 0.01);
        let p = PassPredictor::new(sgp4, london, 0.0);
        let start = JulianDate::from_calendar(2025, 3, 1, 0, 0, 0.0);
        assert!(p.passes(start, start + 2.0).is_empty());
    }

    #[test]
    fn normalized_position_endpoints() {
        let sgp4 = leo_sgp4(550.0, 97.6);
        let p = PassPredictor::new(sgp4, hk(), 0.0);
        let start = JulianDate::from_calendar(2025, 3, 1, 0, 0, 0.0);
        let passes = p.passes(start, start + 1.0);
        let pass = passes[0];
        assert_eq!(pass.normalized_position(pass.aos), 0.0);
        assert_eq!(pass.normalized_position(pass.los), 1.0);
        let mid = JulianDate(0.5 * (pass.aos.0 + pass.los.0));
        assert!((pass.normalized_position(mid) - 0.5).abs() < 1e-9);
        assert!(pass.contains(mid));
        assert!(!pass.contains(JulianDate(pass.los.0 + 1.0)));
    }

    /// The old two-probe ternary search, kept as the reference the
    /// golden-section replacement is regression-tested against.
    fn ternary_tca(p: &PassPredictor, aos: JulianDate, los: JulianDate) -> JulianDate {
        let mut lo = aos;
        let mut hi = los;
        for _ in 0..60 {
            if hi.seconds_since(lo) < 0.05 {
                break;
            }
            let m1 = JulianDate(lo.0 + (hi.0 - lo.0) / 3.0);
            let m2 = JulianDate(hi.0 - (hi.0 - lo.0) / 3.0);
            if p.elevation_at(m1) < p.elevation_at(m2) {
                lo = m1;
            } else {
                hi = m2;
            }
        }
        JulianDate(0.5 * (lo.0 + hi.0))
    }

    /// Golden-section culmination must land where the old ternary search
    /// did (< 0.05 s — both brackets converge on the same unimodal
    /// maximum) while `max_elevation_is_actually_maximum` above keeps
    /// holding for the new search.
    #[test]
    fn golden_section_tca_matches_ternary_search() {
        let sgp4 = leo_sgp4(550.0, 97.6);
        let p = PassPredictor::new(sgp4, hk(), 0.0);
        let start = JulianDate::from_calendar(2025, 3, 1, 0, 0, 0.0);
        let passes = p.passes(start, start + 2.0);
        assert!(!passes.is_empty());
        for pass in &passes {
            let reference = ternary_tca(&p, pass.aos, pass.los);
            let drift_s = pass.tca.seconds_since(reference).abs();
            assert!(drift_s < 0.05, "TCA moved {drift_s} s vs ternary search");
            // The reported maximum still beats the reference probe (to
            // the curvature slack of the two ≤ 0.05 s brackets).
            assert!(p.elevation_at(reference) <= pass.max_elevation_rad + 1e-6);
        }
    }

    /// Both backends sweep — the grid-backed predictor its covering
    /// grid, the direct one a grid built for the window — and both must
    /// reproduce the direct-SGP4 reference scan within the documented
    /// ephemeris contract: same pass count, boundaries within the
    /// refinement tolerance, elevation within 0.01°. The reference scans
    /// with a 1 s floor, so it skips no pass the sweep can report
    /// (`finish_pass` drops shorter ones).
    #[test]
    fn grid_backend_matches_direct_within_contract() {
        use crate::ephemeris::EphemerisGrid;
        let start = JulianDate::from_calendar(2025, 3, 1, 0, 0, 0.0);
        let end = start + 2.0;
        for (alt, incl, mask_deg) in [
            (550.0, 97.6, 0.0),
            (550.0, 97.6, 5.0),
            (550.0, 97.6, 10.0),
            (700.0, 55.0, 5.0),
        ] {
            let sgp4 = leo_sgp4(alt, incl);
            let mask = f64::to_radians(mask_deg);
            let direct = PassPredictor::new(sgp4.clone(), hk(), mask);
            let grid = Arc::new(EphemerisGrid::build(&sgp4, start, end));
            let gridded = PassPredictor::new(sgp4, hk(), mask).with_ephemeris(grid);
            let reference = direct.reference_passes(start, end, 1.0);
            assert!(!reference.is_empty(), "test geometry has no passes");
            for swept in [direct.passes(start, end), gridded.passes(start, end)] {
                assert_eq!(reference.len(), swept.len(), "mask {mask_deg}°");
                for (x, y) in reference.iter().zip(&swept) {
                    assert!(y.aos.seconds_since(x.aos).abs() < 0.05, "AOS drifted");
                    assert!(y.los.seconds_since(x.los).abs() < 0.05, "LOS drifted");
                    let dmax = (y.max_elevation_rad - x.max_elevation_rad)
                        .to_degrees()
                        .abs();
                    assert!(dmax < 0.01, "max elevation drifted {dmax}°");
                }
            }
            // Pointwise elevations agree within the contract too.
            for k in 0..100 {
                let t = start.plus_seconds(1728.0 * k as f64);
                let d = (gridded.elevation_at(t) - direct.elevation_at(t))
                    .to_degrees()
                    .abs();
                assert!(d < 0.01, "elevation drifted {d}° at sample {k}");
            }
        }
    }

    /// Queries outside the attached grid fall back to direct SGP4 —
    /// attaching a grid never changes which instants are answerable.
    #[test]
    fn grid_backend_falls_back_outside_the_window() {
        use crate::ephemeris::EphemerisGrid;
        let sgp4 = leo_sgp4(550.0, 97.6);
        let start = JulianDate::from_calendar(2025, 3, 1, 0, 0, 0.0);
        let grid = Arc::new(EphemerisGrid::build(&sgp4, start, start + 0.5));
        let direct = PassPredictor::new(sgp4.clone(), hk(), 0.0);
        let gridded = PassPredictor::new(sgp4, hk(), 0.0).with_ephemeris(grid);
        let far = start + 10.0; // Ten days past the grid.
        let a = direct.look_at(far).expect("direct");
        let b = gridded.look_at(far).expect("fallback");
        assert_eq!(a, b, "fallback must be bit-identical to direct");
    }

    /// Pass refinement's probe reads the elevation and nothing else, yet
    /// answers exactly what the full look-angle projection does, at
    /// lattice points, mid-interval, at and beside tile edges, and
    /// outside the attached grid. Inside, it is the observer's elevation
    /// of the grid's interpolated position; outside, where the grid has
    /// no position, it is the direct-SGP4 look angle.
    #[test]
    fn elevation_probes_match_look_angles_bit_for_bit() {
        use crate::ephemeris::{lattice_time, EphemerisGrid, STEP_S, TILE};
        let epoch = JulianDate::from_calendar(2025, 3, 1, 0, 0, 0.0);
        let sgp4 = leo_sgp4_at(550.0, 97.6, epoch);
        let (start, end) = (epoch.plus_seconds(17.0), epoch + 1.0);
        let grid = Arc::new(EphemerisGrid::build(&sgp4, start, end));
        let direct = PassPredictor::new(sgp4.clone(), hk(), 0.0);
        let predictor = PassPredictor::new(sgp4, hk(), 0.0).with_ephemeris(Arc::clone(&grid));

        let edge = lattice_time(grid.tiles()[1].index() * TILE as i64);
        let mut inside = vec![edge, edge.plus_seconds(-0.5), edge.plus_seconds(0.5)];
        for k in [2, 3, grid.len() / 2, grid.len() - 3] {
            inside.push(grid.sample_time(k));
            inside.push(grid.sample_time(k).plus_seconds(0.5 * STEP_S));
        }
        let outside = [start.plus_seconds(-3.0 * 86_400.0), end + 3.0];

        let bits = |t: JulianDate| predictor.elevation_at(t).to_bits();
        let look = |p: &PassPredictor, t| p.look_at(t).expect("computable").elevation_rad;
        for t in inside {
            let position = grid.position_at(t).expect("the grid covers t");
            let interpolated = predictor.observer.elevation_at_ecef(position);
            assert_eq!(bits(t), interpolated.to_bits(), "t = {t:?}");
            assert_eq!(bits(t), look(&predictor, t).to_bits(), "t = {t:?}");
        }
        for t in outside {
            assert!(grid.position_at(t).is_none(), "t = {t:?}");
            assert_eq!(bits(t), look(&direct, t).to_bits(), "t = {t:?}");
            assert_eq!(bits(t), look(&predictor, t).to_bits(), "t = {t:?}");
        }
    }

    /// A mask raised to just under a pass's culmination shrinks the
    /// contact to less than one grid step, between two lattice samples
    /// that both sit below the mask. No sign change brackets it, so the
    /// candidate windows must surface it instead of stepping over it —
    /// for a 49° pass, and for a 68.7° one, where the margin curves
    /// fastest between the samples.
    #[test]
    fn sweep_finds_passes_shorter_than_one_grid_step() {
        use crate::ephemeris::{lattice_time, EphemerisGrid, STEP_S};
        let epoch = JulianDate::from_calendar(2025, 3, 1, 0, 0, 0.0);
        let phase = |t: JulianDate| (t.seconds_since(lattice_time(0)) / STEP_S).rem_euclid(1.0);
        // The best culmination of day 0 (49°) and of day 2 (68.7°)
        // over HK, with an open mask…
        for (day, peak_deg) in [(0.0, 49.0), (2.0, 68.7)] {
            let (start, end) = (epoch + day, epoch + day + 1.0);
            let best_of_day = |sgp4: &Sgp4| {
                PassPredictor::new(sgp4.clone(), hk(), 0.0)
                    .passes(start, end)
                    .into_iter()
                    .max_by(|a, b| a.max_elevation_rad.total_cmp(&b.max_elevation_rad))
                    .expect("a pass")
            };
            let first = best_of_day(&leo_sgp4(550.0, 97.6));
            // …and, since the lattice is absolute, move the satellite
            // rather than the window: the same elements at an epoch
            // shifted by δ culminate about δ later, midway between two
            // samples…
            let shift_s = (0.5 - phase(first.tca)) * STEP_S;
            let sgp4 = leo_sgp4_at(550.0, 97.6, epoch.plus_seconds(shift_s));
            let best = best_of_day(&sgp4);
            assert!((phase(best.tca) - 0.5).abs() < 0.05, "TCA not mid-interval");
            let peak = best.max_elevation_rad.to_degrees();
            assert!((peak - peak_deg).abs() < 1.0, "culmination at {peak}°");
            let grid = Arc::new(EphemerisGrid::build(&sgp4, start, end));
            // …then mask 0.15° below it: the surviving contact lasts well
            // under the grid step. (The reference scan at a 30 s floor can
            // genuinely step over this contact — the sweep must not.)
            let mask = best.max_elevation_rad - 0.15_f64.to_radians();
            let swept = PassPredictor::new(sgp4, hk(), mask).with_ephemeris(Arc::clone(&grid));
            let k = (best.tca.seconds_since(grid.sample_time(0)) / grid.step_s()) as usize;
            for t in [grid.sample_time(k), grid.sample_time(k + 1)] {
                assert!(swept.elevation_at(t) < mask, "sample above the mask");
            }
            let passes = swept.passes(start, end);
            let reference = swept.reference_passes(start, end, 1.0);
            assert!(!passes.is_empty(), "{peak}° short pass missed by the sweep");
            assert_eq!(passes.len(), reference.len(), "{peak}° pass");
            for (pass, x) in passes.iter().zip(&reference) {
                assert!(pass.duration_s() < STEP_S, "contact should be sub-step");
                assert!(pass.aos.seconds_since(x.aos).abs() < 0.05, "AOS drifted");
                assert!(pass.los.seconds_since(x.los).abs() < 0.05, "LOS drifted");
                // The found window is genuine: its culmination clears the
                // mask, its boundaries sit on it.
                assert!(pass.max_elevation_rad > mask);
                let el_aos = swept.elevation_at(pass.aos);
                assert!((el_aos - mask).abs().to_degrees() < 0.05, "AOS off mask");
            }
        }
    }

    /// Near zenith a 400 km satellite climbs about 1.1°/s, so a step of
    /// two seconds per degree below the mask jumped over this 15.7 s
    /// contact under an 80.8° mask. The reference scan's steps now come
    /// from the orbit's own elevation-rate bound: it finds the contact,
    /// and so does the sweep.
    #[test]
    fn reference_scan_finds_a_short_contact_near_zenith() {
        use crate::elements::Elements;
        let epoch = JulianDate::from_calendar(2025, 3, 1, 0, 0, 0.0);
        let sgp4 = Elements::circular(400.0, 51.6, epoch).to_sgp4().unwrap();
        let site = Geodetic::from_degrees(-15.15, 142.54, 0.0);
        let p = PassPredictor::new(sgp4, site, 80.8_f64.to_radians());
        let (start, end) = (epoch.plus_seconds(9_000.0), epoch.plus_seconds(12_600.0));
        let reference = p.reference_passes(start, end, 1.0);
        let swept = p.passes(start, end);
        assert_eq!((reference.len(), swept.len()), (1, 1));
        let (x, y) = (reference[0], swept[0]);
        assert!((x.duration_s() - 15.7).abs() < 0.1, "{} s", x.duration_s());
        assert!(y.aos.seconds_since(x.aos).abs() < 0.05, "AOS drifted");
        assert!(y.los.seconds_since(x.los).abs() < 0.05, "LOS drifted");
    }

    /// A grid that covers only part of the window, or a mask outside
    /// [−π/2, π/2], still sweeps (a grid built for the window, a clamped
    /// mask) and agrees with the reference scan; covered instants still
    /// interpolate. An open mask below −π/2 stays one whole-window pass,
    /// and a mask above π/2 sees nothing.
    #[test]
    fn partial_grids_and_extreme_masks_still_sweep() {
        use crate::ephemeris::EphemerisGrid;
        let sgp4 = leo_sgp4(550.0, 97.6);
        let start = JulianDate::from_calendar(2025, 3, 1, 0, 0, 0.0);
        let end = start + 1.0;
        let half = Arc::new(EphemerisGrid::build(&sgp4, start, start + 0.5));
        let full = Arc::new(EphemerisGrid::build(&sgp4, start, end));
        let windows = |grid, mask| {
            let p = PassPredictor::new(sgp4.clone(), hk(), mask).with_ephemeris(grid);
            let (reference, swept) = (p.reference_passes(start, end, 1.0), p.passes(start, end));
            assert_eq!(reference.len(), swept.len(), "mask {mask}");
            for (x, y) in reference.iter().zip(&swept) {
                assert!(y.aos.seconds_since(x.aos).abs() < 0.05, "AOS drifted");
                assert!(y.los.seconds_since(x.los).abs() < 0.05, "LOS drifted");
            }
            swept.iter().map(|p| (p.aos, p.los)).collect::<Vec<_>>()
        };
        assert!(!windows(half, 0.0).is_empty());
        assert_eq!(windows(Arc::clone(&full), -2.0), [(start, end)]);
        assert!(windows(full, 2.0).is_empty());
    }

    /// A moving-observer scan whose legs all sit at one position must
    /// reproduce the fixed-observer scan over the union window, except
    /// for contacts split at leg boundaries.
    #[test]
    fn legs_at_a_fixed_position_match_the_fixed_scan() {
        let sgp4 = leo_sgp4(550.0, 97.6);
        let p = PassPredictor::new(sgp4, hk(), 0.0);
        let start = JulianDate::from_calendar(2025, 3, 1, 0, 0, 0.0);
        let fixed = p.passes(start, start + 1.0);
        // Split at a quiet instant — the between-pass gap midpoint
        // closest to mid-window, so no contact straddles the boundary.
        let gap = fixed
            .windows(2)
            .map(|w| JulianDate(0.5 * (w[0].los.0 + w[1].aos.0)))
            .min_by(|a, b| {
                let mid = start.0 + 0.5;
                (a.0 - mid).abs().total_cmp(&(b.0 - mid).abs())
            })
            .expect("a between-pass gap");
        let legs = [
            ObserverLeg {
                start,
                end: gap,
                position: hk(),
            },
            ObserverLeg {
                start: gap,
                end: start + 1.0,
                position: hk(),
            },
        ];
        // The legs sweep one grid over their span, which is the fixed
        // scan's grid over the same window: every bracket, hence every
        // refined pass, is identical.
        let moving = p.passes_over_legs(&legs).expect("ordered legs");
        assert_eq!(fixed, moving);
    }

    /// A leg far from the first position sees different passes, and
    /// out-of-order legs are rejected with a typed error.
    #[test]
    fn legs_change_geometry_and_must_be_ordered() {
        let sgp4 = leo_sgp4(550.0, 97.6);
        let p = PassPredictor::new(sgp4, hk(), 0.0);
        let start = JulianDate::from_calendar(2025, 3, 1, 0, 0, 0.0);
        let sydney = Geodetic::from_degrees(-33.87, 151.21, 0.05);
        let legs = [
            ObserverLeg {
                start,
                end: start + 0.5,
                position: hk(),
            },
            ObserverLeg {
                start: start + 0.5,
                end: start + 1.0,
                position: sydney,
            },
        ];
        let moving = p.passes_over_legs(&legs).expect("ordered legs");
        let fixed = p.passes(start, start + 1.0);
        assert_ne!(moving, fixed, "relocation must change the pass list");
        // Chronological across the boundary.
        for w in moving.windows(2) {
            assert!(w[1].aos >= w[0].los);
        }
        let swapped = [legs[1], legs[0]];
        assert!(matches!(
            p.passes_over_legs(&swapped),
            Err(OrbitError::UnorderedLegs { index: 1 })
        ));
    }

    #[test]
    fn pass_in_progress_at_start_is_reported() {
        let sgp4 = leo_sgp4(550.0, 97.6);
        let p = PassPredictor::new(sgp4, hk(), 0.0);
        let start = JulianDate::from_calendar(2025, 3, 1, 0, 0, 0.0);
        let passes = p.passes(start, start + 1.0);
        let pass = passes[0];
        // Restart the search from the middle of the first pass.
        let mid = JulianDate(0.5 * (pass.aos.0 + pass.los.0));
        let from_mid = p.passes(mid, start + 1.0);
        assert_eq!(from_mid.len(), passes.len());
        assert!((from_mid[0].aos.0 - mid.0).abs() < 1e-9);
        assert!((from_mid[0].los.0 - pass.los.0).abs() < 1.0 / 86_400.0);
    }

    /// One sweep for many sites: each site's list is, to the bit, the
    /// list its own one-observer scan returns — over a covering grid,
    /// over a grid that does not cover the window (the scan builds one
    /// and refines through both), and with no grid at all. The window
    /// opens inside HK's first pass, so HK starts in progress, and a
    /// site with non-finite coordinates sees nothing without disturbing
    /// the others.
    #[test]
    fn many_sites_in_one_sweep_match_their_own_scans_bit_for_bit() {
        use crate::ephemeris::EphemerisGrid;
        let sgp4 = leo_sgp4(550.0, 97.6);
        let day = JulianDate::from_calendar(2025, 3, 1, 0, 0, 0.0);
        let first = PassPredictor::new(sgp4.clone(), hk(), 0.0).passes(day, day + 1.0)[0];
        let (start, end) = (JulianDate(0.5 * (first.aos.0 + first.los.0)), day + 1.0);
        let sites = [
            hk(),
            Geodetic::from_degrees(-33.87, 151.21, 0.05),
            Geodetic::new(f64::NAN, 0.0, 0.0),
            Geodetic::from_degrees(51.51, -0.13, 0.01),
        ];
        let bits = |passes: &[Pass]| -> Vec<[u64; 5]> {
            passes
                .iter()
                .map(|p| {
                    [
                        p.aos.0,
                        p.los.0,
                        p.tca.0,
                        p.max_elevation_rad,
                        p.tca_range_km,
                    ]
                })
                .map(|fields| fields.map(f64::to_bits))
                .collect()
        };
        let covering = Arc::new(EphemerisGrid::build(&sgp4, day, day + 1.0));
        let partial = Arc::new(EphemerisGrid::build(&sgp4, day, day + 0.3));
        for grid in [Some(covering), Some(partial), None] {
            // The predictor's own observer (Sydney) plays no part.
            let mut p = PassPredictor::new(sgp4.clone(), sites[1], 0.0);
            if let Some(grid) = grid {
                p = p.with_ephemeris(grid);
            }
            let together = p.passes_from_sites(&sites, start, end);
            assert_eq!(together.len(), sites.len());
            for (site, list) in sites.iter().zip(&together) {
                let alone = p.clone().with_observer_position(*site).passes(start, end);
                assert_eq!(bits(list), bits(&alone), "site {site:?}");
            }
            assert_eq!(together[0][0].aos, start, "HK's pass is in progress");
            assert!(together[2].is_empty(), "a site off the Earth sees passes");
            assert!(!together[1].is_empty() && !together[3].is_empty());
        }
        // Non-finite bounds leave every site an empty list.
        let p = PassPredictor::new(sgp4, hk(), 0.0);
        let empty = p.passes_from_sites(&sites, JulianDate(f64::NAN), end);
        assert_eq!(empty, vec![Vec::new(); sites.len()]);
    }
}
