//! Precomputed satellite ephemerides: propagate once, serve every site
//! and every window.
//!
//! Pass prediction is observer-*dependent* (elevation masks, look
//! angles) but the satellite trajectory it consumes is
//! observer-*independent*: a 27-site campaign that propagates the same
//! satellite 27 times recomputes identical SGP4 states, GMST values,
//! and TEME→ECEF rotations 26 times too many. An [`EphemerisGrid`]
//! removes that waste in the shape of an inference-stack KV-cache —
//! compute once, serve many:
//!
//! 1. propagate SGP4 once per point of one absolute lattice, every
//!    [`STEP_S`] seconds from J2000, storing the **ECEF** position,
//!    velocity *and* acceleration of every sample (the velocity falls
//!    out of [`teme_to_ecef`] for free and is the *exact* time
//!    derivative of the ECEF position — the transport theorem's `−ω×r`
//!    term is what makes it so; the acceleration is computed from the
//!    sample's own state, see [`Sample`]);
//! 2. answer any `state_at(t)` query by **quintic Hermite**
//!    interpolation between the two bracketing samples — no SGP4, no
//!    `gmst_rad`, no frame rotation on the per-site hot path;
//! 3. feed the interpolated state to the observer's cheap
//!    [`look_at_ecef`](crate::topo::Observer::look_at_ecef) projection.
//!
//! ## One lattice, shared tiles
//!
//! Lattice point `k` sits at [`lattice_time`]`(k)`, `k` whole steps
//! after J2000, so every third whole minute is a lattice point and sample
//! `k`'s instant and state are a pure function of (satellite, `k`).
//! An [`EphemerisTile`] holds [`TILE`] consecutive samples; tile `i`
//! holds lattice points `i·TILE ..= i·TILE + TILE − 1`. A grid is a
//! *view*: its first lattice index plus the tiles that cover its
//! window, padded by two steps on each side. Views over overlapping
//! windows therefore read the same samples: [`EphemerisGrid::build`]
//! samples private tiles, and [`EphemerisGrid::build_with`] takes them
//! from a tile source — `satiot_core::sweep` keeps one per process,
//! so the passive site windows, Fig 3a's windows and the active
//! campaign's windows all slice one set of SGP4 samples.
//!
//! The TEME→ECEF rotation at a lattice instant is the same for every
//! satellite, so it is computed once per tile index: a
//! [`LatticeFrame`] holds the sine and cosine of `−GMST` at the tile's
//! [`TILE`] instants, and [`EphemerisTile::build`] rotates each SGP4
//! state by it through the expression [`teme_to_ecef`] itself
//! evaluates, so a tile holds `teme_to_ecef(propagate_at(t), t)` to the
//! bit. `satiot_core::sweep` keeps one frame per index beside its tile
//! store; [`EphemerisGrid::build`] computes one per private tile.
//!
//! ## Accuracy contract
//!
//! Hermite interpolation with the value and first two derivatives
//! matched at both ends has error `‖f − H‖ ≤ h⁶/46 080 · max‖f⁽⁶⁾‖`
//! (the `(t − t₀)³(t − t₁)³/6!` remainder, largest mid-interval). A LEO
//! ECEF trajectory is dominated by a rotation at orbital rate
//! `ω ≈ 1.1×10⁻³ rad/s` with radius `r ≈ 7000 km`, so
//! `max‖f⁽⁶⁾‖ ≈ r·ω⁶` and the bound evaluates to about a centimetre at
//! the lattice step `h = 180 s`. Two floors sit above it. Sample
//! instants are `JulianDate`s, quantised to ~50 µs ≈ 0.4 m of
//! along-track motion (see `on_sample_queries_match_direct_propagation`
//! below). And the stored acceleration is a two-body + J₂ model, not
//! SGP4's own second derivative (drag, J₃, J₄ and SGP4's short-period
//! terms differ), and the acceleration basis weighs that difference by
//! up to `h²/32`. Measured against direct SGP4 over two days with nine
//! probes per interval, circular orbits of 440–850 km stay within
//! 0.53–0.78 m — *sub-metre* for every window, however long (a cubic
//! Hermite from position and velocity alone reaches 19–32 m at this
//! step). Slant
//! ranges are ≥ 400 km for any above-horizon LEO geometry, so that
//! error perturbs elevation by < 0.0002°, comfortably inside the
//! documented contract:
//!
//! * interpolated **position** within [`MAX_POSITION_ERROR_KM`] of
//!   direct SGP4 (asserted by [`EphemerisGrid::validate`], which
//!   probes the hardest points — inter-sample midpoints);
//! * interpolated **elevation** within [`MAX_ELEVATION_ERROR_DEG`] of
//!   direct SGP4 from any ground observer (checked across the Table-3
//!   constellations by the `satiot-scenarios` `ephemeris_contract`
//!   test and by the `prop_orbit` property tests).
//!
//! ## One backend
//!
//! Every pass scan sweeps a grid: campaign predictors built through
//! `satiot_core::sweep` attach a view over the process's shared tiles,
//! and a [`PassPredictor`](crate::pass::PassPredictor) without a
//! covering grid builds one over private tiles for its scan window and
//! drops it afterwards. Direct SGP4 remains the out-of-window fallback,
//! the sampling backend of a predictor with no grid, and the test
//! oracle (the predictor's adaptive reference scan).
//! [`EphemerisGrid::validate`] probes a grid against direct SGP4, and
//! the `ephemeris_contract` test runs it across the Table-3
//! constellations.

use crate::frames::{
    ecef_rotation, rotate_teme_to_ecef, teme_to_ecef, StateEcef, EARTH_OMEGA_RAD_S,
};
use crate::sgp4::{Sgp4, EARTH_RADIUS_KM, J2, MU_KM3_S2};
use crate::time::{JulianDate, JD_J2000};
use crate::vec3::Vec3;
use satiot_obs::metrics::Counter;
use std::ops::Range;
use std::sync::Arc;

/// Views built process-wide (metrics).
static GRIDS_BUILT: Counter = Counter::new("orbit.ephemeris.grids_built");
/// SGP4 samples stored across all tiles (metrics).
static GRID_SAMPLES: Counter = Counter::new("orbit.ephemeris.grid_samples");

/// Lattice step, seconds. 180 s keeps the quintic Hermite error
/// sub-metre for any LEO orbit (see the module docs).
pub const STEP_S: f64 = 180.0;

/// Degree of the Hermite interpolant between two lattice samples: a
/// quintic, from position, velocity and acceleration at both ends.
/// Together with [`STEP_S`] it names the lattice a result was computed
/// on (sweep checkpoints record both).
pub const HERMITE_DEGREE: u32 = 5;

/// Lattice samples per tile: 12 h 48 min at [`STEP_S`], four visibility
/// [`CHUNK`](crate::visibility::CHUNK)s. Short enough that the samples a
/// view rounds out to stay small next to a two-day window's own; long
/// enough that the per-tile store overhead stays under 2 % of the
/// samples.
pub const TILE: usize = 256;

/// Lattice indices a window may reach, either side of J2000 (2⁵³ steps,
/// about 17 billion years): beyond it the index arithmetic would lose
/// integer precision, so such windows build empty grids.
const MAX_LATTICE_INDEX: f64 = 9_007_199_254_740_992.0;

/// How far past either end of a view, in lattice steps, a query still
/// counts as on it: a few `JulianDate` quanta (tens of µs, ~2×10⁻⁷ of
/// a step).
const EDGE_SLACK: f64 = 1e-6;

/// Position-error contract: interpolated ECEF position stays within
/// this of direct SGP4 at the lattice step.
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

/// The instant of lattice point `k`: `k` whole [`STEP_S`] steps after
/// J2000. Every view computes a sample's instant here, so one lattice
/// point has one instant, bit for bit.
pub fn lattice_time(k: i64) -> JulianDate {
    JulianDate(JD_J2000).plus_seconds(k as f64 * STEP_S)
}

/// The fractional lattice index of `t` (lattice point `k` sits at `k`).
fn lattice_index(t: JulianDate) -> f64 {
    t.seconds_since(JulianDate(JD_J2000)) / STEP_S
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

/// The TEME→ECEF rotation at the [`TILE`] lattice instants of one tile
/// index: the sine and cosine of `−GMST` at each [`lattice_time`].
///
/// The Earth's rotation at an instant is the same for every satellite,
/// so one frame serves every satellite's tile at its index:
/// `satiot_core::sweep` keeps one per index beside its tile store, and
/// [`EphemerisGrid::build`] computes one per private tile.
#[derive(Debug)]
pub struct LatticeFrame {
    /// Tile index: the frame covers lattice points from `index·TILE` on.
    index: i64,
    /// `(sin, cos)` of the TEME→ECEF angle at each lattice point.
    sin_cos: [(f64, f64); TILE],
}

impl LatticeFrame {
    /// The rotation at the lattice points of tile `index`.
    pub fn new(index: i64) -> LatticeFrame {
        let first = index * TILE as i64;
        LatticeFrame {
            index,
            sin_cos: std::array::from_fn(|j| ecef_rotation(lattice_time(first + j as i64))),
        }
    }

    /// The tile index.
    pub fn index(&self) -> i64 {
        self.index
    }
}

/// One lattice sample of a satellite in ECEF: the SGP4 position and
/// velocity rotated by [`teme_to_ecef`], and the acceleration the
/// quintic interpolant matches.
///
/// The acceleration comes from the sample's own state: two-body + J₂
/// gravity with SGP4's WGS-72 [`MU_KM3_S2`], [`J2`] and
/// [`EARTH_RADIUS_KM`], evaluated on the ECEF position (the J₂ field is
/// symmetric about z, so the TEME→ECEF rotation leaves it unchanged),
/// minus the rotating frame's Coriolis term `2ω×v` and centrifugal term
/// `ω×(ω×r)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Position, km.
    pub position_km: Vec3,
    /// Velocity relative to the rotating Earth, km/s.
    pub velocity_km_s: Vec3,
    /// Acceleration relative to the rotating Earth, km/s².
    pub acceleration_km_s2: Vec3,
}

impl Sample {
    /// The sample a failed propagation stores: every component NaN.
    pub(crate) const NAN: Sample = {
        let nan = Vec3::new(f64::NAN, f64::NAN, f64::NAN);
        Sample {
            position_km: nan,
            velocity_km_s: nan,
            acceleration_km_s2: nan,
        }
    };

    /// The sample of an ECEF state, with its modelled acceleration.
    fn of(state: StateEcef) -> Sample {
        let (r, v) = (state.position_km, state.velocity_km_s);
        let r2 = r.norm_sq();
        let mu_r3 = MU_KM3_S2 / (r2 * r2.sqrt());
        let j2 = 1.5 * J2 * EARTH_RADIUS_KM * EARTH_RADIUS_KM / r2;
        let z2 = 5.0 * r.z * r.z / r2;
        let g_xy = -mu_r3 * (1.0 + j2 * (1.0 - z2));
        let g_z = -mu_r3 * (1.0 + j2 * (3.0 - z2));
        let w = EARTH_OMEGA_RAD_S;
        Sample {
            position_km: r,
            velocity_km_s: v,
            acceleration_km_s2: Vec3::new(
                (g_xy + w * w) * r.x + 2.0 * w * v.y,
                (g_xy + w * w) * r.y - 2.0 * w * v.x,
                g_z * r.z,
            ),
        }
    }
}

/// [`TILE`] consecutive lattice samples of one satellite, with the
/// aggregates the spatial pre-cull reads.
#[derive(Debug)]
pub struct EphemerisTile {
    /// Tile index: the tile holds lattice points from `index·TILE` on.
    index: i64,
    /// One ECEF sample per lattice point. A sample whose propagation
    /// failed stores NaN components; queries bracketed by one degrade
    /// to `None` (callers fall back to direct propagation, which
    /// reports the same failure its own way).
    samples: [Sample; TILE],
    /// Maximum geocentric radius over the samples, km (NaN when any
    /// sample is degenerate).
    max_radius_km: f64,
    /// Maximum `|v|/|r|` over the samples, rad/s (NaN when any sample
    /// is degenerate) — bounds how fast the satellite's ECEF direction
    /// can swing, which bounds the Earth-central angle it can close
    /// within one step.
    max_angular_rate: f64,
}

impl EphemerisTile {
    /// Propagate `sgp4` at the [`TILE`] lattice points of `frame`'s tile
    /// index and rotate each state into ECEF by the frame's angle there:
    /// bit for bit [`teme_to_ecef`] at that instant, which evaluates the
    /// same rotation expression. Each sample's acceleration is modelled
    /// from that state (see [`Sample`]).
    pub fn build(sgp4: &Sgp4, frame: &LatticeFrame) -> EphemerisTile {
        let index = frame.index;
        let first = index * TILE as i64;
        let samples: [Sample; TILE] = std::array::from_fn(|j| {
            let t = lattice_time(first + j as i64);
            match sgp4.propagate_at(t) {
                Ok(state) => Sample::of(rotate_teme_to_ecef(&state, frame.sin_cos[j])),
                Err(_) => Sample::NAN,
            }
        });
        GRID_SAMPLES.add(TILE as u64);
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
        EphemerisTile {
            index,
            samples,
            max_radius_km,
            max_angular_rate,
        }
    }

    /// The tile index.
    pub fn index(&self) -> i64 {
        self.index
    }
}

/// A quintic-Hermite-interpolable ECEF trajectory of one satellite over one
/// scan window: a view over the lattice tiles that cover the window.
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
    /// Lattice index of sample 0 (the window start less two steps,
    /// rounded down to the lattice).
    first: i64,
    /// Samples in the view.
    len: usize,
    /// Position of sample 0 inside `tiles[0]`.
    offset: usize,
    /// The tiles holding samples `0..len`, in lattice order.
    tiles: Vec<Arc<EphemerisTile>>,
    /// Maximum geocentric radius over the view's tiles, km (NaN when
    /// the view is empty or any sample is degenerate). Consumed by the
    /// spatial pre-cull; combined once here instead of once per (site,
    /// satellite) pair.
    max_radius_km: f64,
    /// Maximum `|v|/|r|` over the view's tiles, rad/s (NaN as above).
    max_angular_rate: f64,
}

impl EphemerisGrid {
    /// Propagate `sgp4` across `[start, end]` into private tiles, each
    /// with its own [`LatticeFrame`], and build the view over them (see
    /// [`Self::build_with`]).
    pub fn build(sgp4: &Sgp4, start: JulianDate, end: JulianDate) -> EphemerisGrid {
        Self::build_with(start, end, |tiles| {
            tiles
                .map(|index| Arc::new(EphemerisTile::build(sgp4, &LatticeFrame::new(index))))
                .collect()
        })
    }

    /// The view over `[start, end]`, with its tiles from `tiles`: given
    /// the range of tile indices the view needs, the source returns
    /// those tiles in order (a shared store, or fresh private tiles).
    ///
    /// The view is padded by two steps on each side so refinement
    /// probes at the window edges — and the 1 s look-ahead the Doppler
    /// rate sampler uses at LOS — stay on-grid. Degenerate windows
    /// (non-finite or `end ≤ start`) never call the source and yield
    /// an empty grid whose `state_at` always answers `None`.
    ///
    /// # Panics
    ///
    /// If the source returns other tiles than the ones asked for.
    pub fn build_with(
        start: JulianDate,
        end: JulianDate,
        tiles: impl FnOnce(Range<i64>) -> Vec<Arc<EphemerisTile>>,
    ) -> EphemerisGrid {
        let (x_start, x_end) = (lattice_index(start), lattice_index(end));
        let in_range = |x: f64| x.abs() < MAX_LATTICE_INDEX;
        if !(in_range(x_start) && in_range(x_end) && x_end > x_start) {
            return EphemerisGrid {
                first: 0,
                len: 0,
                offset: 0,
                tiles: Vec::new(),
                max_radius_km: f64::NAN,
                max_angular_rate: f64::NAN,
            };
        }
        let first = x_start.floor() as i64 - 2;
        let last = x_end.ceil() as i64 + 2;
        let tile_of = |k: i64| k.div_euclid(TILE as i64);
        let indices = tile_of(first)..tile_of(last) + 1;
        let tiles = tiles(indices.clone());
        assert!(
            tiles.iter().map(|t| t.index).eq(indices),
            "the tile source returned tiles other than the ones asked for"
        );
        GRIDS_BUILT.inc();
        // NaN-propagating max: one degenerate tile poisons the view.
        let max = |f: fn(&EphemerisTile) -> f64| {
            tiles.iter().map(|t| f(t)).fold(0.0_f64, |m, x| {
                if m.is_nan() || x.is_nan() {
                    f64::NAN
                } else {
                    m.max(x)
                }
            })
        };
        EphemerisGrid {
            first,
            len: (last - first) as usize + 1,
            offset: first.rem_euclid(TILE as i64) as usize,
            max_radius_km: max(|t| t.max_radius_km),
            max_angular_rate: max(|t| t.max_angular_rate),
            tiles,
        }
    }

    /// The view's fractional sample index of `t` (sample `k` sits at
    /// `k`). Computed on the absolute lattice, so two views that hold
    /// the same samples answer queries between them bit-identically.
    pub fn index_at(&self, t: JulianDate) -> f64 {
        lattice_index(t) - self.first as f64
    }

    /// The interpolated ECEF state at `t`, or `None` when `t` falls
    /// outside the view or a bracketing sample is invalid.
    pub fn state_at(&self, t: JulianDate) -> Option<StateEcef> {
        let (a, b, s) = self.bracket(t)?;
        Some(StateEcef {
            position_km: hermite_position(a, b, s),
            velocity_km_s: hermite_velocity(a, b, s),
        })
    }

    /// The interpolant at `t` with its first two time derivatives: the
    /// position and velocity of [`Self::state_at`], bit for bit, and
    /// the interpolant's own second derivative. The margin sweep reads
    /// the scan window's off-lattice edges this way.
    pub fn sample_at(&self, t: JulianDate) -> Option<Sample> {
        let (a, b, s) = self.bracket(t)?;
        // d²/dt² = (d²/ds²)/h². At s ∈ {0, 1} the basis picks out the
        // endpoint acceleration alone, as the first derivatives pick
        // out the endpoint velocity.
        let h = STEP_S;
        let (s2, s3) = (s * s, s * s * s);
        let acceleration_km_s2 = a.position_km * ((-60.0 * s + 180.0 * s2 - 120.0 * s3) / (h * h))
            + a.velocity_km_s * ((-36.0 * s + 96.0 * s2 - 60.0 * s3) / h)
            + a.acceleration_km_s2 * (1.0 - 9.0 * s + 18.0 * s2 - 10.0 * s3)
            + b.acceleration_km_s2 * (3.0 * s - 12.0 * s2 + 10.0 * s3)
            + b.velocity_km_s * ((-24.0 * s + 84.0 * s2 - 60.0 * s3) / h)
            + b.position_km * ((60.0 * s - 180.0 * s2 + 120.0 * s3) / (h * h));
        Some(Sample {
            position_km: hermite_position(a, b, s),
            velocity_km_s: hermite_velocity(a, b, s),
            acceleration_km_s2,
        })
    }

    /// The interpolated ECEF position at `t`: the `position_km` of
    /// [`Self::state_at`], bit for bit, without the derivatives. Pass
    /// refinement probes read only the elevation, which needs nothing
    /// else.
    pub fn position_at(&self, t: JulianDate) -> Option<Vec3> {
        let (a, b, s) = self.bracket(t)?;
        Some(hermite_position(a, b, s))
    }

    /// The two samples bracketing `t` and `t`'s fraction of the way
    /// between them: `None` when `t` falls outside the view or a
    /// bracketing sample is invalid.
    fn bracket(&self, t: JulianDate) -> Option<(&Sample, &Sample, f64)> {
        let n = self.len;
        if n < 2 {
            return None;
        }
        // A sample instant is a `JulianDate`, quantised to tens of µs,
        // so a query at the view's first or last sample can index a
        // hair outside it; the end interval answers those.
        let x = self.index_at(t);
        if !(x >= -EDGE_SLACK && x <= (n - 1) as f64 + EDGE_SLACK) {
            return None;
        }
        let i = (x.max(0.0) as usize).min(n - 2);
        let a = self.sample(i);
        let b = self.sample(i + 1);
        if !(a.position_km.x.is_finite() && b.position_km.x.is_finite()) {
            return None;
        }
        Some((a, b, x - i as f64))
    }

    /// Sample `k` of the view (`k < len`).
    fn sample(&self, k: usize) -> &Sample {
        let at = self.offset + k;
        &self.tiles[at / TILE].samples[at % TILE]
    }

    /// Number of samples in the view.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the grid holds no usable lattice (degenerate window).
    pub fn is_empty(&self) -> bool {
        self.len < 2
    }

    /// Sample spacing, seconds: always [`STEP_S`].
    pub fn step_s(&self) -> f64 {
        STEP_S
    }

    /// Maximum geocentric radius over the view's tiles, km — `NaN` when
    /// the grid is empty or any sample is degenerate. The spatial
    /// pre-cull ([`cull`](crate::cull)) sizes its visibility cone from
    /// this instead of re-scanning the samples per (site, sat) pair.
    pub fn max_radius_km(&self) -> f64 {
        self.max_radius_km
    }

    /// Maximum `|v|/|r|` over the view's tiles, rad/s — `NaN` when the
    /// grid is empty or any sample is degenerate. Bounds the
    /// Earth-central angular rate of the satellite's ECEF direction
    /// (`|d r̂/dt| ≤ |v|/|r|`), hence how far it can move between
    /// samples.
    pub fn max_angular_rate(&self) -> f64 {
        self.max_angular_rate
    }

    /// The instant of sample `k`.
    pub fn sample_time(&self, k: usize) -> JulianDate {
        lattice_time(self.first + k as i64)
    }

    /// The tiles the view reads, in lattice order.
    pub fn tiles(&self) -> &[Arc<EphemerisTile>] {
        &self.tiles
    }

    /// Samples `range` (clamped to the view) as contiguous runs, one
    /// per tile touched: `(k, run)` holds samples `k .. k + run.len()`.
    /// Column-sweep kernels ([`visibility`](crate::visibility)) and the
    /// cone cull read the samples this way, with no per-sample tile
    /// lookup.
    pub fn runs(&self, range: Range<usize>) -> impl Iterator<Item = (usize, &[Sample])> + '_ {
        let end = range.end.min(self.len);
        let mut k = range.start;
        std::iter::from_fn(move || {
            if k >= end {
                return None;
            }
            let at = self.offset + k;
            let (tile, within) = (at / TILE, at % TILE);
            let take = (TILE - within).min(end - k);
            let run = (k, &self.tiles[tile].samples[within..within + take]);
            k += take;
            Some(run)
        })
    }

    /// Probe the grid against direct SGP4 at the inter-sample midpoints
    /// (the worst case for Hermite error), at most `max_probes` of
    /// them, spread across the whole view.
    pub fn validate(&self, sgp4: &Sgp4, max_probes: usize) -> ValidationReport {
        let mut report = ValidationReport {
            max_position_error_km: 0.0,
            max_velocity_error_km_s: 0.0,
            probes: 0,
        };
        if self.is_empty() || max_probes == 0 {
            return report;
        }
        let intervals = self.len - 1;
        let stride = intervals.div_ceil(max_probes).max(1);
        for i in (0..intervals).step_by(stride) {
            let t = self.sample_time(i).plus_seconds(0.5 * STEP_S);
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

/// The quintic Hermite position between samples `a` and `b` at
/// fraction `s ∈ [0, 1]`, with velocities scaled by the step and
/// accelerations by its square: the one expression
/// [`EphemerisGrid::state_at`], [`EphemerisGrid::sample_at`] and
/// [`EphemerisGrid::position_at`] evaluate. At `s = 0` and `s = 1` the
/// basis reproduces the stored positions exactly, so on-lattice queries
/// carry no interpolation error — only time-arithmetic rounding.
#[inline(always)]
fn hermite_position(a: &Sample, b: &Sample, s: f64) -> Vec3 {
    let h = STEP_S;
    let s2 = s * s;
    let s3 = s2 * s;
    let (s4, s5) = (s3 * s, s3 * s2);
    let h0 = 1.0 - 10.0 * s3 + 15.0 * s4 - 6.0 * s5;
    let h1 = s - 6.0 * s3 + 8.0 * s4 - 3.0 * s5;
    let h2 = 0.5 * s2 - 1.5 * s3 + 1.5 * s4 - 0.5 * s5;
    let h3 = 0.5 * s3 - s4 + 0.5 * s5;
    let h4 = -4.0 * s3 + 7.0 * s4 - 3.0 * s5;
    let h5 = 10.0 * s3 - 15.0 * s4 + 6.0 * s5;
    a.position_km * h0
        + a.velocity_km_s * (h * h1)
        + a.acceleration_km_s2 * (h * h * h2)
        + b.acceleration_km_s2 * (h * h * h3)
        + b.velocity_km_s * (h * h4)
        + b.position_km * h5
}

/// The time derivative of [`hermite_position`]: `d/dt = (d/ds)/h`.
#[inline(always)]
fn hermite_velocity(a: &Sample, b: &Sample, s: f64) -> Vec3 {
    let h = STEP_S;
    let (s2, s3) = (s * s, s * s * s);
    let s4 = s2 * s2;
    a.position_km * ((-30.0 * s2 + 60.0 * s3 - 30.0 * s4) / h)
        + a.velocity_km_s * (1.0 - 18.0 * s2 + 32.0 * s3 - 15.0 * s4)
        + a.acceleration_km_s2 * (h * (s - 4.5 * s2 + 6.0 * s3 - 2.5 * s4))
        + b.acceleration_km_s2 * (h * (1.5 * s2 - 4.0 * s3 + 2.5 * s4))
        + b.velocity_km_s * (-12.0 * s2 + 28.0 * s3 - 15.0 * s4)
        + b.position_km * ((30.0 * s2 - 60.0 * s3 + 30.0 * s4) / h)
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
        assert!((grid.step_s() - STEP_S).abs() < 1e-12);
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
            start.plus_seconds(-STEP_S),
            end.plus_seconds(1.0),
            end.plus_seconds(2.0 * STEP_S - 1.0),
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

    /// Every sample of `grid`, through its per-tile runs.
    fn samples(grid: &EphemerisGrid) -> Vec<Sample> {
        grid.runs(0..grid.len())
            .flat_map(|(_, run)| run.iter().copied())
            .collect()
    }

    #[test]
    fn overlapping_windows_read_the_same_lattice_bits() {
        // Two windows that overlap but start and end off the lattice:
        // wherever their views share a lattice point, they hold the
        // same instant and the same state, bit for bit.
        let sgp4 = leo(550.0, 97.6);
        let a = EphemerisGrid::build(&sgp4, epoch().plus_seconds(17.0), epoch() + 1.0);
        let b = EphemerisGrid::build(&sgp4, epoch() + 0.4, epoch() + 1.7);
        let shift = (b.sample_time(0).seconds_since(a.sample_time(0)) / STEP_S).round() as usize;
        let (sa, sb) = (samples(&a), samples(&b));
        assert_eq!((sa.len(), sb.len()), (a.len(), b.len()));
        let overlap = a.len() - shift;
        assert!(overlap as f64 > 0.6 * 86_400.0 / STEP_S);
        for k in 0..overlap {
            let (ka, kb) = (shift + k, k);
            assert_eq!(a.sample_time(ka).0.to_bits(), b.sample_time(kb).0.to_bits());
            assert_eq!(
                sample_bits(&sa[ka]),
                sample_bits(&sb[kb]),
                "sample {ka} of a"
            );
        }
        // Off-lattice queries inside the overlap agree to the bit too.
        let t = epoch() + 0.77;
        let (qa, qb) = (a.state_at(t).unwrap(), b.state_at(t).unwrap());
        assert_eq!(state_bits(&qa), state_bits(&qb));
    }

    #[test]
    fn views_pad_the_window_and_round_out_to_tiles() {
        let sgp4 = leo(550.0, 97.6);
        let (start, end) = (epoch().plus_seconds(30.0), epoch().plus_seconds(5_000.0));
        let grid = EphemerisGrid::build(&sgp4, start, end);
        // The view starts two to three steps before the window and
        // ends at least two after it.
        assert!(grid.sample_time(0).seconds_since(start) <= -2.0 * STEP_S);
        assert!(grid.sample_time(grid.len() - 1).seconds_since(end) >= 2.0 * STEP_S);
        assert!(grid.sample_time(0).seconds_since(start) > -3.0 * STEP_S);
        // The tiles hold every sample, and the runs tile the view
        // contiguously without crossing a tile edge.
        let tiles = grid.tiles();
        let span = tiles.len() * TILE;
        assert!(span >= grid.len() && span < grid.len() + 2 * TILE);
        let mut next = 0;
        for (k, run) in grid.runs(0..grid.len()) {
            assert_eq!(k, next);
            assert!(!run.is_empty() && run.len() <= TILE);
            next += run.len();
        }
        assert_eq!(next, grid.len());
        // The aggregates are the tiles' maxima.
        let r_max = tiles.iter().map(|t| t.max_radius_km).fold(0.0, f64::max);
        assert_eq!(grid.max_radius_km(), r_max);
        assert!(samples(&grid).iter().all(|s| s.position_km.norm() <= r_max));
    }

    /// A state's six components, as bits.
    fn state_bits(s: &StateEcef) -> [u64; 6] {
        let (p, v) = (s.position_km, s.velocity_km_s);
        [p.x, p.y, p.z, v.x, v.y, v.z].map(f64::to_bits)
    }

    /// A sample's nine components, as bits.
    fn sample_bits(s: &Sample) -> [u64; 9] {
        let (p, v, a) = (s.position_km, s.velocity_km_s, s.acceleration_km_s2);
        [p.x, p.y, p.z, v.x, v.y, v.z, a.x, a.y, a.z].map(f64::to_bits)
    }

    /// Every sample of `tile` is [`teme_to_ecef`] of direct SGP4 at its
    /// lattice instant, with its modelled acceleration, to the bit, or
    /// all NaN where SGP4 fails there.
    fn assert_tile_is_teme_to_ecef(tile: &EphemerisTile, sgp4: &Sgp4) {
        let first = tile.index * TILE as i64;
        for (j, sample) in tile.samples.iter().enumerate() {
            let t = lattice_time(first + j as i64);
            match sgp4.propagate_at(t) {
                Ok(state) => assert_eq!(
                    sample_bits(sample),
                    sample_bits(&Sample::of(teme_to_ecef(&state, t))),
                    "tile {} sample {j}",
                    tile.index
                ),
                Err(_) => assert!(
                    sample_bits(sample)
                        .iter()
                        .all(|&b| f64::from_bits(b).is_nan()),
                    "tile {} sample {j} failed to propagate but is not NaN",
                    tile.index
                ),
            }
        }
    }

    #[test]
    fn satellites_sharing_one_frame_hold_teme_to_ecef_bits() {
        let j2000 = JulianDate(JD_J2000);
        let circular = |incl_deg| {
            Elements::circular(550.0, incl_deg, j2000)
                .to_sgp4()
                .unwrap()
        };
        // Vallado's eccentric (e = 0.186) distribution case #00005,
        // epoch 2000-06-27, in tile 334.
        let l1 = "1 00005U 58002B   00179.78495062  .00000023  00000-0  28098-4 0  4753";
        let l2 = "2 00005  34.2682 348.7242 1859667 331.7664  19.3264 10.82419157413667";
        let vallado = Sgp4::new(&crate::tle::Tle::parse_lines(l1, l2).unwrap()).unwrap();
        let sats = [circular(0.0), circular(53.0), circular(97.6), vallado];
        // Tiles before J2000, either side of it, and at the eccentric
        // set's epoch: one frame per index serves all four satellites.
        for index in [-7, -1, 0, 334] {
            let frame = LatticeFrame::new(index);
            for sgp4 in &sats {
                let tile = EphemerisTile::build(sgp4, &frame);
                assert_eq!(tile.index(), index);
                assert_tile_is_teme_to_ecef(&tile, sgp4);
            }
        }
        // A 300 km orbit under heavy drag decays 187 samples into tile 1
        // (22.1 h after J2000): the rest of the tile stores NaN, and the
        // aggregates say so.
        let decaying = Elements {
            bstar: 0.05,
            ..Elements::circular(300.0, 51.6, j2000)
        }
        .to_sgp4()
        .unwrap();
        let tile = EphemerisTile::build(&decaying, &LatticeFrame::new(1));
        let nan = tile.samples.iter().filter(|s| s.position_km.x.is_nan());
        assert_eq!(nan.count(), TILE - 187);
        assert!(tile.max_radius_km.is_nan() && tile.max_angular_rate.is_nan());
        assert_tile_is_teme_to_ecef(&tile, &decaying);
    }

    #[test]
    #[should_panic(expected = "other than the ones asked for")]
    fn a_tile_source_must_return_the_tiles_asked_for() {
        let sgp4 = leo(550.0, 97.6);
        EphemerisGrid::build_with(epoch(), epoch() + 0.5, |tiles| {
            tiles
                .map(|index| Arc::new(EphemerisTile::build(&sgp4, &LatticeFrame::new(index + 1))))
                .collect()
        });
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
