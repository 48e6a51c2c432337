//! Spatial pre-culling of (site, satellite) pairs for pass prediction.
//!
//! A mega-constellation sweep is O(sites × satellites) pair
//! predictions, but almost all of those pairs can never produce a pass
//! inside the scan window: a polar site never sees a low-inclination
//! shell at all, and over a short window most satellites' ground tracks
//! never come near most sites. This module proves such pairs empty with
//! cheap geometry — **before** any ephemeris-grid interpolation or
//! margin sweep — so the campaign predict phase costs
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
//!    within half a grid step — then no instant between samples can
//!    reach the cone either, and the window provably holds no pass.
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
//!   the radius's rise between samples). λ grows with `r_sat`, so
//!   padding the radius up widens the cone.
//! * Elevation is measured from the *geodetic* horizon while the cone
//!   test uses geocentric radials; the two zeniths differ by at most
//!   ≈ 0.19° (WGS-84 deflection of the vertical radial, maximal near
//!   45° latitude). The mask is therefore reduced by
//!   [`ZENITH_DEFLECTION_RAD`] before computing λ — a *smaller* ε̃
//!   gives a *larger* λ, again widening the cone. ε̃ may go slightly
//!   negative at a 0° mask; the λ formula remains valid there.
//! * The drift bound `Δ = ½·h·max|v|/|r|·`[`ANGULAR_RATE_PAD`] covers
//!   the nearest sample. The scan reads every sample of the lattice
//!   intervals that touch `[start, end]`, so every instant `t` in the
//!   window lies within half a step `h/2` of a scanned sample. The
//!   site direction is constant in ECEF and `|d r̂/dt| ≤ |v|/|r|`, so
//!   over those `h/2` the satellite's direction turns by at most
//!   `h/2·max|v|/|r|`, with the maximum taken over the grid's stored
//!   samples and inflated by [`ANGULAR_RATE_PAD`] for the rate's
//!   variation between them. If a pass touched the cone at `t`, the
//!   sample nearest `t` would lie within `λ + Δ` of the site — so
//!   requiring *every* sample to clear `λ + Δ` (plus
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
//! [`screen`] runs both tests for one pair and counts its verdict in
//! four metrics-registry counters, `orbit.cull.pairs_considered`,
//! `orbit.cull.pairs_culled_lat_band`, `orbit.cull.pairs_culled_cone`
//! and `orbit.cull.pairs_kept`, read together through [`stats`]. Only
//! the screen adds to them, and readers take deltas (the `sweep_cull`
//! and `extension_megascale` tests assert on them). `considered =
//! culled + kept` always holds;
//! `pairs_kept` is exactly the number of pairs that went on to grid
//! interpolation, which the `sweep_cull` test proves shrinks ≥ 5× on a
//! mega-shell matrix.

use crate::ephemeris::EphemerisGrid;
use crate::frames::Geodetic;
use crate::sgp4::Sgp4;
use crate::time::JulianDate;
use core::f64::consts::PI;
use satiot_obs::metrics::Counter;
use std::sync::Arc;

/// Pad, km, added to the satellite's maximum geocentric radius before
/// computing the cone half-angle. Covers SGP4 short-period J₂ radial
/// oscillations around the Brouwer-mean ellipse (≲ 12 km in LEO),
/// quintic-Hermite overshoot between grid samples (≤ 0.05 km under
/// the grid contract, sub-metre as measured), and the radius's rise
/// within the half step between an instant and its nearest sample.
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
/// (≈ 0.3°) on top of the half-step motion bound `Δ`.
pub const CONE_MARGIN_RAD: f64 = 0.0053;

/// Inflation factor on the angular-rate bound `max |v|/|r|`, covering
/// rate variation between the sampled instants.
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

// The proof counters behind [`stats`]; only [`screen`] adds to them.
static PAIRS_CONSIDERED: Counter = Counter::new("orbit.cull.pairs_considered");
static PAIRS_CULLED_LAT_BAND: Counter = Counter::new("orbit.cull.pairs_culled_lat_band");
static PAIRS_CULLED_CONE: Counter = Counter::new("orbit.cull.pairs_culled_cone");
static PAIRS_KEPT: Counter = Counter::new("orbit.cull.pairs_kept");

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

    /// The verdicts counted since the `earlier` read.
    pub fn since(&self, earlier: &CullStats) -> CullStats {
        CullStats {
            pairs_considered: self.pairs_considered - earlier.pairs_considered,
            pairs_culled_lat_band: self.pairs_culled_lat_band - earlier.pairs_culled_lat_band,
            pairs_culled_cone: self.pairs_culled_cone - earlier.pairs_culled_cone,
            pairs_kept: self.pairs_kept - earlier.pairs_kept,
        }
    }
}

/// Read the proof counters. A measurement is the delta between two
/// reads ([`CullStats::since`]).
pub fn stats() -> CullStats {
    CullStats {
        pairs_considered: PAIRS_CONSIDERED.value(),
        pairs_culled_lat_band: PAIRS_CULLED_LAT_BAND.value(),
        pairs_culled_cone: PAIRS_CULLED_CONE.value(),
        pairs_kept: PAIRS_KEPT.value(),
    }
}

/// Screen one (site, satellite) pair over `[start, end]` and count the
/// verdict. The latitude-band test runs first and needs no propagation;
/// only a pair it keeps fetches its ephemeris grid with `grid`, for the
/// footprint-cone scan. Returns `None` for a culled pair, whose pass
/// list over the window is provably empty, and the grid for a kept one.
pub fn screen(
    sgp4: &Sgp4,
    site: Geodetic,
    mask_rad: f64,
    start: JulianDate,
    end: JulianDate,
    grid: impl FnOnce() -> Arc<EphemerisGrid>,
) -> Option<Arc<EphemerisGrid>> {
    PAIRS_CONSIDERED.inc();
    let (incl_rad, apogee_km) = (sgp4.inclination_rad(), sgp4.apogee_radius_km());
    if never_in_latitude_band(site, incl_rad, apogee_km, mask_rad) {
        PAIRS_CULLED_LAT_BAND.inc();
        return None;
    }
    let grid = grid();
    if cone_clears_grid(&grid, site, mask_rad, start, end) {
        PAIRS_CULLED_CONE.inc();
        return None;
    }
    PAIRS_KEPT.inc();
    Some(grid)
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
/// interpolation): `true` iff every sample of the lattice intervals
/// that touch `[start, end]` sits further than `λ + Δ + margin`
/// (Earth-central angle, `Δ` the drift within half a step) from the
/// site, which proves no instant in `[start, end]` can see the
/// satellite above the mask. Samples the view holds beyond those
/// intervals (its padding and tile rounding) are not scanned.
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
    // The lattice intervals that touch the scan window must lie inside
    // the view; a pass outside the samples could otherwise hide past
    // the last column.
    let (lo, hi) = (grid.index_at(start).floor(), grid.index_at(end).ceil());
    if !(lo >= 0.0 && lo <= hi && hi <= (n - 1) as f64) {
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
    // Max Earth-central angle the satellite can close between an
    // instant and its nearest scanned sample, half a step away: the
    // site direction is fixed in ECEF and |d r̂/dt| ≤ |v|/|r|.
    let delta = 0.5 * grid.step_s() * rate_max * ANGULAR_RATE_PAD;
    let threshold = lam + delta + CONE_MARGIN_RAD;
    if !(0.0..PI).contains(&threshold) {
        return false;
    }
    // Cull iff every sample's central angle exceeds the threshold,
    // i.e. cos(angle) < cos(threshold). Short-circuits on the first
    // in-cone sample, so kept pairs pay only a partial scan.
    let cos_threshold = threshold.cos();
    grid.runs(lo as usize..hi as usize + 1).all(|(_, run)| {
        run.iter().all(|st| {
            let r = st.position_km.norm();
            let cos_angle = st.position_km.dot(s) / (r * r_site);
            cos_angle < cos_threshold
        })
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
        // A site under the ground track at the window start: keep.
        let state = grid.state_at(start).expect("in-window query");
        let under = crate::frames::ecef_to_geodetic(state.position_km);
        let under = Geodetic::new(under.lat_rad, under.lon_rad, 0.0);
        assert!(!cone_clears_grid(&grid, under, 0.0, start, end));
    }

    #[test]
    fn screen_counts_each_verdict_once() {
        let sgp4 = Elements::circular(550.0, 10.0, epoch())
            .to_sgp4()
            .expect("LEO elements");
        let (start, end) = (epoch(), epoch() + 0.02);
        let grid = Arc::new(EphemerisGrid::build(&sgp4, start, end));
        let ground = |position_km| {
            let g = crate::frames::ecef_to_geodetic(position_km);
            Geodetic::new(g.lat_rad, g.lon_rad, 0.0)
        };
        let at = |t| grid.state_at(t).expect("in-window query").position_km;
        // Out of the 10° shell's band; inside it but antipodal to the
        // track mid-window; under the track at the window start.
        let polar = Geodetic::from_degrees(80.0, 0.0, 0.0);
        let opposite = ground(-at(start + 0.01));
        let under = ground(at(start));

        let before = stats();
        let no_grid = || unreachable!("the latitude-band verdict fetched a grid");
        assert!(screen(&sgp4, polar, 0.0, start, end, no_grid).is_none());
        let shared = || Arc::clone(&grid);
        assert!(screen(&sgp4, opposite, 0.0, start, end, shared).is_none());
        let kept = screen(&sgp4, under, 0.0, start, end, shared).expect("the pair is kept");
        assert!(Arc::ptr_eq(&kept, &grid));
        let s = stats().since(&before);
        assert_eq!(
            (s.pairs_culled_lat_band, s.pairs_culled_cone, s.pairs_kept),
            (1, 1, 1)
        );
        assert_eq!(s.pairs_considered, 3);
        assert_eq!(s.pairs_considered, s.pairs_culled() + s.pairs_kept);
    }
}
