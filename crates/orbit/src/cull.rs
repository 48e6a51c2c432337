//! Spatial pre-culling of (site, satellite) pairs for pass prediction.
//!
//! A mega-constellation sweep is O(sites × satellites) pair
//! predictions, but almost all of those pairs can never produce a pass
//! inside the scan window: a polar site never sees a low-inclination
//! shell at all, and over a short window most satellites' ground tracks
//! never come near most sites. This module proves such pairs empty with
//! cheap geometry — **before** any ephemeris-grid interpolation or
//! coarse elevation scan — so the campaign predict phase costs
//! O(visible pairs).
//!
//! Two conservative tests run in sequence:
//!
//! 1. **Latitude-band reachability** ([`never_in_latitude_band`], no
//!    propagation at all): the satellite's geocentric latitude is
//!    bounded by its effective inclination `min(i, π − i)` (rotating
//!    TEME → ECEF about the z-axis preserves latitude), so when the
//!    site's geocentric latitude exceeds that band by more than the
//!    visibility-cone half-angle — `|φ_site| > i_eff + λ` — the pair
//!    can never be mutually visible, over *any* window.
//! 2. **Footprint-cone scan on the coarse grid** ([`cone_clears_grid`],
//!    raw grid samples only, no interpolation): if at every stored grid
//!    sample the Earth-central angle between the satellite and the site
//!    exceeds `λ + Δ` — where `Δ` bounds how much that angle can change
//!    within one grid step — then no instant between samples can reach
//!    the cone either, and the window provably holds no pass.
//!
//! ## Margin math — why the cull is conservative
//!
//! The tests must never drop a pair with a real pass (the culled pass
//! set is asserted *bit-identical* to the unculled one on a mega-shell
//! matrix by `satiot-core`'s `sweep_cull` test), so every approximation
//! is padded in the direction that keeps pairs:
//!
//! * The cone half-angle is evaluated with *exact* geocentric radii,
//!   `λ = acos(r_site/r_sat · cos ε̃) − ε̃`, with `r_sat` the maximum
//!   over the relevant radii plus [`RADIUS_PAD_KM`] (covering SGP4
//!   short-period J₂ oscillations around the Brouwer-mean apogee and
//!   interpolation overshoot between samples). λ grows with `r_sat`,
//!   so padding the radius up widens the cone.
//! * Elevation is measured from the *geodetic* horizon while the cone
//!   test uses geocentric radials; the two zeniths differ by at most
//!   ≈ 0.19° (WGS-84 deflection of the vertical radial, maximal near
//!   45° latitude). The mask is therefore reduced by
//!   [`ZENITH_DEFLECTION_RAD`] before computing λ — a *smaller* ε̃
//!   gives a *larger* λ, again widening the cone. ε̃ may go slightly
//!   negative at a 0° mask; the λ formula remains valid there.
//! * The per-step angle bound `Δ` uses the maximum `|v|/|r|` over the
//!   grid's stored ECEF samples (site direction is constant in ECEF,
//!   and `|d r̂/dt| ≤ |v|/|r|`), inflated by [`ANGULAR_RATE_PAD`] for
//!   inter-sample rate variation. If a pass touched the cone at time
//!   `t`, the sample at most one step away could have drifted only `Δ`
//!   further out — so requiring *every* sample to clear `λ + Δ` (plus
//!   [`CONE_MARGIN_RAD`]) before culling cannot hide a pass.
//! * The latitude-band test additionally pads by
//!   [`LAT_BAND_MARGIN_RAD`], covering the small short-period
//!   inclination oscillations SGP4 superimposes on the mean `inclo`.
//! * Any degenerate input (non-finite values, an uncovered window, a
//!   satellite below the site) falls through to **keep** — culling is
//!   an optimisation, never a correctness gate.
//!
//! ## Proof counters
//!
//! `orbit.cull.pairs_considered` / `pairs_culled` / `pairs_kept` are
//! always-on plain atomics in the style of `orbit.sgp4.propagations`
//! (they count even with `SATIOT_METRICS` off, because the determinism
//! smoke and the `sweep_cull` test assert on them), mirrored into the
//! obs metrics registry under the same names. `considered = culled +
//! kept` always holds; `pairs_kept` is exactly the number of pairs that
//! went on to grid interpolation, which the `sweep_cull` test proves
//! shrinks ≥ 5× on a mega-shell matrix.

use crate::ephemeris::EphemerisGrid;
use crate::frames::Geodetic;
use crate::time::JulianDate;
use core::f64::consts::PI;
use satiot_obs::metrics::Counter;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Pad, km, added to the satellite's maximum geocentric radius before
/// computing the cone half-angle. Covers SGP4 short-period J₂ radial
/// oscillations around the Brouwer-mean ellipse (≲ 12 km in LEO),
/// cubic-Hermite overshoot between grid samples (≤ 0.05 km under the
/// grid contract), and radial drift within one coarse step.
pub const RADIUS_PAD_KM: f64 = 25.0;

/// Maximum angle between the geodetic zenith (which elevation masks are
/// measured from) and the geocentric radial, radians: ≈ 0.192° on the
/// WGS-84 ellipsoid, maximal near 45° latitude. Subtracted from the
/// mask before computing λ, which widens the cone conservatively.
pub const ZENITH_DEFLECTION_RAD: f64 = 0.0034;

/// Extra conservative margin, radians, on the latitude-band test
/// (≈ 0.5°): short-period inclination oscillations plus comfort.
pub const LAT_BAND_MARGIN_RAD: f64 = 0.0088;

/// Extra conservative margin, radians, on the cone-scan threshold
/// (≈ 0.3°) on top of the per-step motion bound `Δ`.
pub const CONE_MARGIN_RAD: f64 = 0.0053;

/// Inflation factor on the per-step angular-rate bound `max |v|/|r|`,
/// covering rate variation between the sampled instants.
pub const ANGULAR_RATE_PAD: f64 = 1.1;

/// Whether pass prediction pre-culls (site, satellite) pairs: always.
///
/// One variant only. It exists because the benchmark worker under
/// `perfbench/` still names it when calling
/// `satiot_core::sweep::predictor_with_mode`; it goes when the
/// benchmark is next rebased.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CullingMode {
    /// Drop provably-invisible pairs before any grid interpolation.
    /// Conservative: the surviving pass set is bit-identical to an
    /// unculled prediction.
    On,
}

// Always-on proof-of-work counters (plain atomics so they report even
// when `SATIOT_METRICS` is off), obs-mirrored below.
static PAIRS_CONSIDERED: AtomicU64 = AtomicU64::new(0);
static PAIRS_CULLED_LAT_BAND: AtomicU64 = AtomicU64::new(0);
static PAIRS_CULLED_CONE: AtomicU64 = AtomicU64::new(0);
static PAIRS_KEPT: AtomicU64 = AtomicU64::new(0);

/// Pairs reaching the cull decision (metrics mirror).
static OBS_CONSIDERED: Counter = Counter::new("orbit.cull.pairs_considered");
/// Pairs dropped before interpolation (metrics mirror).
static OBS_CULLED: Counter = Counter::new("orbit.cull.pairs_culled");
/// Pairs that went on to full prediction (metrics mirror).
static OBS_KEPT: Counter = Counter::new("orbit.cull.pairs_kept");

/// Snapshot of the cull proof counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CullStats {
    /// Pairs that reached the cull decision.
    pub pairs_considered: u64,
    /// Pairs dropped by the latitude-band test.
    pub pairs_culled_lat_band: u64,
    /// Pairs dropped by the footprint-cone grid scan.
    pub pairs_culled_cone: u64,
    /// Pairs that proceeded to full prediction.
    pub pairs_kept: u64,
}

impl CullStats {
    /// Total pairs culled by either test.
    pub fn pairs_culled(&self) -> u64 {
        self.pairs_culled_lat_band + self.pairs_culled_cone
    }
}

/// Read the proof counters.
pub fn stats() -> CullStats {
    CullStats {
        pairs_considered: PAIRS_CONSIDERED.load(Relaxed),
        pairs_culled_lat_band: PAIRS_CULLED_LAT_BAND.load(Relaxed),
        pairs_culled_cone: PAIRS_CULLED_CONE.load(Relaxed),
        pairs_kept: PAIRS_KEPT.load(Relaxed),
    }
}

/// Reset the proof counters (benchmark sections and the determinism
/// smoke isolate measurements with this).
pub fn reset_stats() {
    PAIRS_CONSIDERED.store(0, Relaxed);
    PAIRS_CULLED_LAT_BAND.store(0, Relaxed);
    PAIRS_CULLED_CONE.store(0, Relaxed);
    PAIRS_KEPT.store(0, Relaxed);
}

/// Count one pair reaching the cull decision.
pub fn record_considered() {
    PAIRS_CONSIDERED.fetch_add(1, Relaxed);
    OBS_CONSIDERED.inc();
}

/// Count one pair dropped by the latitude-band test.
pub fn record_lat_band_cull() {
    PAIRS_CULLED_LAT_BAND.fetch_add(1, Relaxed);
    OBS_CULLED.inc();
}

/// Count one pair dropped by the footprint-cone grid scan.
pub fn record_cone_cull() {
    PAIRS_CULLED_CONE.fetch_add(1, Relaxed);
    OBS_CULLED.inc();
}

/// Count one pair that proceeded to full prediction.
pub fn record_kept() {
    PAIRS_KEPT.fetch_add(1, Relaxed);
    OBS_KEPT.inc();
}

/// Cone half-angle from exact geocentric radii:
/// `λ = acos(r_site/r_sat · cos ε̃) − ε̃` with the mask already reduced
/// by the zenith-deflection pad. Returns `None` (keep the pair) when
/// the geometry degenerates (`r_sat ≤ r_site`, non-finite inputs).
fn cone_half_angle_rad(r_site_km: f64, r_sat_km: f64, mask_rad: f64) -> Option<f64> {
    if !(r_site_km.is_finite() && r_sat_km.is_finite() && mask_rad.is_finite()) {
        return None;
    }
    if r_sat_km <= r_site_km || r_site_km <= 0.0 {
        return None;
    }
    let eps = mask_rad - ZENITH_DEFLECTION_RAD;
    let c = (r_site_km / r_sat_km) * eps.cos();
    if !(-1.0..=1.0).contains(&c) {
        return None;
    }
    Some(c.acos() - eps)
}

/// Latitude-band reachability: `true` iff the pair can **never** be
/// mutually visible, over any window, because the site's geocentric
/// latitude lies outside the satellite's reachable band by more than
/// the (padded) visibility-cone half-angle:
///
/// `|φ_site| > min(i, π − i) + λ(r_apogee + pad, ε̃) + margin`
///
/// `incl_rad` is the mean inclination, `apogee_radius_km` the mean
/// apogee radius from the geocentre (see
/// [`Sgp4::apogee_radius_km`](crate::sgp4::Sgp4::apogee_radius_km)).
/// Degenerate inputs return `false` (keep).
pub fn never_in_latitude_band(
    site: Geodetic,
    incl_rad: f64,
    apogee_radius_km: f64,
    mask_rad: f64,
) -> bool {
    if !(incl_rad.is_finite() && apogee_radius_km.is_finite() && (0.0..=PI).contains(&incl_rad)) {
        return false;
    }
    let s = site.to_ecef();
    let r_site = s.norm();
    if !(r_site.is_finite() && r_site > 0.0) {
        return false;
    }
    // Geocentric site latitude — exact, from the ECEF vector itself.
    let lat_gc = (s.z / r_site).asin();
    if !lat_gc.is_finite() {
        return false;
    }
    // Max |geocentric latitude| the subsatellite point reaches.
    let i_eff = incl_rad.min(PI - incl_rad);
    let Some(lam) = cone_half_angle_rad(r_site, apogee_radius_km + RADIUS_PAD_KM, mask_rad) else {
        return false;
    };
    lat_gc.abs() > i_eff + lam + LAT_BAND_MARGIN_RAD
}

/// Footprint-cone scan over the coarse grid's **raw samples** (no
/// interpolation): `true` iff every stored sample sits further than
/// `λ + Δ + margin` (Earth-central angle) from the site, which proves
/// no instant in `[start, end]` can see the satellite above the mask.
///
/// Returns `false` (keep) when the grid does not fully cover the scan
/// window, has fewer than two samples, or any sample degenerates.
pub fn cone_clears_grid(
    grid: &EphemerisGrid,
    site: Geodetic,
    mask_rad: f64,
    start: JulianDate,
    end: JulianDate,
) -> bool {
    let n = grid.len();
    if n < 2 {
        return false;
    }
    // The scan window must be inside the sampled span (sub-millisecond
    // slack for representation noise); a pass outside the samples could
    // otherwise hide past the last column.
    let eps_day = 1e-8;
    if grid.sample_time(0).0 > start.0 + eps_day || grid.sample_time(n - 1).0 < end.0 - eps_day {
        return false;
    }
    let s = site.to_ecef();
    let r_site = s.norm();
    if !(r_site.is_finite() && r_site > 0.0) {
        return false;
    }
    // Grid-wide aggregates, precomputed once at build time (NaN when
    // any sample is degenerate — which keeps the pair, below).
    let r_max = grid.max_radius_km();
    let rate_max = grid.max_angular_rate();
    if !(r_max.is_finite() && r_max > 0.0 && rate_max.is_finite()) {
        return false;
    }
    let Some(lam) = cone_half_angle_rad(r_site, r_max + RADIUS_PAD_KM, mask_rad) else {
        return false;
    };
    // Max Earth-central angle the satellite can close within one step:
    // the site direction is fixed in ECEF and |d r̂/dt| ≤ |v|/|r|.
    let delta = grid.step_s() * rate_max * ANGULAR_RATE_PAD;
    let threshold = lam + delta + CONE_MARGIN_RAD;
    if !(0.0..PI).contains(&threshold) {
        return false;
    }
    // Cull iff every sample's central angle exceeds the threshold,
    // i.e. cos(angle) < cos(threshold). Short-circuits on the first
    // in-cone sample, so kept pairs pay only a partial scan.
    let cos_threshold = threshold.cos();
    grid.samples().iter().all(|st| {
        let r = st.position_km.norm();
        let cos_angle = st.position_km.dot(s) / (r * r_site);
        cos_angle < cos_threshold
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elements::Elements;
    use crate::time::JulianDate;

    fn epoch() -> JulianDate {
        JulianDate::from_calendar(2025, 3, 1, 0, 0, 0.0)
    }

    #[test]
    fn polar_site_never_sees_low_inclination_shell() {
        let site = Geodetic::from_degrees(82.0, 10.0, 0.0);
        let apogee = 6378.135 + 600.0;
        // 35° shell: band tops out near 35° + ~23° ≈ 58° ≪ 82°.
        assert!(never_in_latitude_band(
            site,
            35.0_f64.to_radians(),
            apogee,
            0.0
        ));
        // A polar shell reaches every latitude: never culled.
        assert!(!never_in_latitude_band(
            site,
            97.6_f64.to_radians(),
            apogee,
            0.0
        ));
    }

    #[test]
    fn in_band_site_is_never_lat_culled() {
        // Site latitude inside inclination + half-angle: must keep.
        let site = Geodetic::from_degrees(40.0, 0.0, 0.0);
        assert!(!never_in_latitude_band(
            site,
            53.0_f64.to_radians(),
            6378.135 + 550.0,
            0.0
        ));
        // Degenerate inputs keep, never cull.
        assert!(!never_in_latitude_band(
            site,
            f64::NAN,
            6378.135 + 550.0,
            0.0
        ));
        assert!(!never_in_latitude_band(
            site,
            53.0_f64.to_radians(),
            f64::NAN,
            0.0
        ));
    }

    #[test]
    fn retrograde_band_uses_effective_inclination() {
        // i = 170° reaches only |lat| ≤ 10°: a 60° site is out of band.
        let site = Geodetic::from_degrees(60.0, 0.0, 0.0);
        assert!(never_in_latitude_band(
            site,
            170.0_f64.to_radians(),
            6378.135 + 550.0,
            0.0
        ));
    }

    #[test]
    fn cone_scan_culls_opposite_hemisphere_keeps_overhead() {
        let sgp4 = Elements::circular(550.0, 10.0, epoch())
            .to_sgp4()
            .expect("LEO elements");
        let (start, end) = (epoch(), epoch() + 0.02); // ~29 min
        let grid = EphemerisGrid::build(&sgp4, start, end);
        // A near-polar site far from the 10°-inclination track: culled.
        let polar = Geodetic::from_degrees(80.0, 0.0, 0.0);
        assert!(cone_clears_grid(&grid, polar, 0.0, start, end));
        // A window not covered by the grid: keep.
        assert!(!cone_clears_grid(&grid, polar, 0.0, start, end + 1.0));
        // A site under the first sample's ground track: keep.
        let state = grid.samples()[0];
        let under = crate::frames::ecef_to_geodetic(state.position_km);
        let under = Geodetic::new(under.lat_rad, under.lon_rad, 0.0);
        assert!(!cone_clears_grid(&grid, under, 0.0, start, end));
    }

    #[test]
    fn counters_account_exactly() {
        reset_stats();
        record_considered();
        record_considered();
        record_considered();
        record_lat_band_cull();
        record_cone_cull();
        record_kept();
        let s = stats();
        assert_eq!(s.pairs_considered, 3);
        assert_eq!(s.pairs_culled(), 2);
        assert_eq!(s.pairs_culled_lat_band, 1);
        assert_eq!(s.pairs_culled_cone, 1);
        assert_eq!(s.pairs_kept, 1);
        assert_eq!(s.pairs_considered, s.pairs_culled() + s.pairs_kept);
        reset_stats();
        assert_eq!(stats().pairs_considered, 0);
    }
}
