//! Vectorised visibility kernels: margin sweeps over ephemeris-grid
//! columns for every observer of one satellite.
//!
//! Every pass list of [`pass`](crate::pass) brackets its horizon
//! crossings here. Rather than walking time per (site, sat) pair and
//! calling the full look-angle projection (`asin`, `atan2`, range rate)
//! at every probe — the per-timestep scalar anti-pattern — the
//! bracketing phase is a data-parallel sweep, one per satellite grid
//! and scan window for every observer of it
//! ([`PassPredictor::passes_from_sites`](crate::pass::PassPredictor::passes_from_sites);
//! a campaign's predict phase pushes all the sites that share a window
//! and mask into one arena):
//!
//! 1. hoist each observer's ECEF site vector, zenith basis vector, and
//!    `sin(mask)` into a structure-of-arrays arena
//!    ([`VisibilitySweep`]) — they are loop-invariant per observer;
//! 2. sweep the satellite's [`EphemerisGrid`] columns **once**,
//!    evaluating the *horizon margin* (not the elevation) for all
//!    observers in fixed-width chunks of [`CHUNK`] columns;
//! 3. emit only sparse [`SweepEvent`]s — sign-change windows and
//!    near-miss candidates — for the existing bisection /
//!    golden-section refinement in [`pass`](crate::pass), after a
//!    screen that skips every 8-sample block whose Bézier hull bound
//!    (below) proves it eventless, so only the blocks around a pass
//!    reach the per-sample event detector.
//!
//! ## The margin trick
//!
//! With `ρ = sat − site`, `z = ρ·ζ` (zenith component) and
//! `r = ‖ρ‖`, elevation is `asin(z / r)`. Because `asin` is strictly
//! increasing and `r > 0`,
//!
//! ```text
//! elevation > mask  ⟺  z / r > sin(mask)  ⟺  m := z − r·sin(mask) > 0
//! ```
//!
//! for any mask in `[−π/2, π/2]` — so the kernel needs one `sqrt`
//! and no transcendentals per (observer, column). The margin's exact
//! time derivative falls out of the grid's stored ECEF velocities:
//! `m′ = v·ζ − sin(mask)·(ρ·v)/r`, which powers near-miss detection
//! below. Both `m` and `m′` are in km and km/s of *zenith-projected
//! slant distance*; near the horizon a margin of 1 km is ≈ 0.02° of
//! elevation at a 2 500 km slant range.
//!
//! ## Sign-change-window contract
//!
//! For each observer the sweep reports `above_at_start` plus an
//! ordered event list. Every horizon crossing inside `[start, end]`
//! is bracketed by exactly one [`SweepEventKind::Rising`] or
//! [`SweepEventKind::Falling`] window no wider than one lattice step
//! ([`STEP_S`](crate::ephemeris::STEP_S)); a lattice interval whose
//! endpoints are both below the mask but whose margin may peek above
//! it in the interior is reported as a [`SweepEventKind::Candidate`]
//! window. LEO passes over one site are ≥ 45 min apart, so one 60 s
//! lattice interval contains at most one crossing (two crossings
//! inside one interval — a whole pass — is exactly the candidate case).
//!
//! Candidate detection is a three-stage filter on the cubic Hermite
//! model of the margin over the interval (exact endpoint values *and*
//! derivatives, so the model error is bounded by `h⁴/384·max|m⁗|` —
//! well under 0.03 km at the lattice step wherever the margin varies
//! as smoothly as the trajectory, as it does near the horizon):
//!
//! 1. a Bézier convex-hull bound (`max` of the four control points)
//!    rejects the overwhelmingly common deep-below intervals in ~8
//!    flops (the block screen applies the same bound to a whole block
//!    and the interval bridging it to the carried previous sample);
//! 2. the exact interior maximum of the cubic (quadratic root solve)
//!    rejects most of the rest;
//! 3. only intervals whose modelled maximum clears
//!    `−`[`CANDIDATE_GUARD_KM`] — twice the combined interpolation +
//!    grid position error — are handed to the golden-section
//!    elevation probe in `pass`. A real pass hiding inside the
//!    interval has a true margin maximum > 0, so while the model error
//!    stays under the guard its modelled maximum cannot fall below
//!    `−`[`CANDIDATE_GUARD_KM`] and it is never missed. Close to
//!    zenith under a high mask the margin curves far faster than the
//!    trajectory, the error can exceed the guard, and a contact shorter
//!    than one step can be missed (a 7 s contact under a 68.6° mask
//!    has been). Under a 0° mask a sub-step contact is a horizon
//!    graze, where the model holds.
//!
//! ## Bit-identity with the element-at-a-time oracle
//!
//! The chunked kernel evaluates the margin in [`CHUNK`]-wide batches
//! through the *same* inlined `margin_terms` expression per element
//! that the element-at-a-time sweep (kept as a test oracle) uses, and
//! it is a straight elementwise loop over fixed-width arrays:
//! auto-vectorisation (including the runtime-dispatched AVX2 recompile
//! on `x86_64`) maps each IEEE-754 operation onto per-lane SIMD
//! equivalents with identical rounding, and no reassociation or FMA
//! contraction is enabled. Identical margins ⟹ identical sign changes
//! ⟹ identical event lists ⟹ bit-identical refined passes. The
//! direct-SGP4 reference scan that [`pass`](crate::pass) keeps as a
//! test oracle refines from *different* brackets and is therefore
//! equivalent only to refinement tolerance, not to the bit.

use crate::ephemeris::EphemerisGrid;
use crate::time::JulianDate;
use crate::topo::Observer;
use satiot_obs::metrics::Counter;

/// Column sweeps executed (one per satellite grid per scan) (metrics).
static SWEEPS: Counter = Counter::new("orbit.visibility.sweeps");
/// (observer × column) margin evaluations across all sweeps (metrics).
static SWEEP_MARGINS: Counter = Counter::new("orbit.visibility.margins");
/// Sign-change windows emitted for refinement (metrics).
static SWEEP_EVENTS: Counter = Counter::new("orbit.visibility.events");
/// Near-miss candidate windows emitted (metrics).
static SWEEP_CANDIDATES: Counter = Counter::new("orbit.visibility.candidates");

/// Fixed kernel width, in grid columns. 64 f64 lanes = 8 AVX-512 /
/// 16 AVX2 vectors per array: wide enough to hide the `sqrt`/`div`
/// latency chain, small enough that one chunk's six input arrays plus
/// two outputs (4 KiB) live comfortably in L1 beside the observer
/// arena.
pub const CHUNK: usize = 64;

/// Columns per eventless screen: each [`CHUNK`] is screened in blocks
/// of this many, so a pass inside a chunk feeds the detector only the
/// blocks around it.
const BLOCK: usize = 8;

/// Candidate guard band, km of margin. The cubic Hermite margin model
/// is exact at interval endpoints and within ~0.03 km in the interior
/// at the widest grid step (same quartic error bound as the grid),
/// and the grid position contract adds ≤ 0.05 km; a modelled maximum
/// below −0.2 km therefore proves the true margin never reaches 0 and
/// the interval holds no pass.
pub const CANDIDATE_GUARD_KM: f64 = 0.2;

/// How pass prediction scans for horizon crossings over a covering
/// grid: always the margin sweep.
///
/// One variant only. It exists because the benchmark worker under
/// `perfbench/` still names it when calling [`VisibilitySweep::run`]
/// and `satiot_core::sweep::predictor_with_mode`; it goes when the
/// benchmark is next rebased.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VisibilityMode {
    /// Margin sweep in [`CHUNK`]-wide vector kernels.
    On,
}

/// What a sweep event window asks refinement to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepEventKind {
    /// The margin rises through zero inside the window: bisect for AOS.
    Rising,
    /// The margin falls through zero inside the window: bisect for LOS.
    Falling,
    /// Both endpoints are below the mask but the margin model may peek
    /// above it in the interior (a pass shorter than one lattice
    /// interval): probe the elevation peak before deciding.
    Candidate,
}

/// One sign-change (or near-miss) window emitted by a sweep,
/// `t_lo < t_hi`, at most one grid step wide.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepEvent {
    /// What refinement should do with the window.
    pub kind: SweepEventKind,
    /// Window start (sample at or below the mask for `Rising`).
    pub t_lo: JulianDate,
    /// Window end.
    pub t_hi: JulianDate,
}

/// Per-observer result of one column sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOutcome {
    /// Whether the margin is above zero at the exact scan start (a
    /// pass already in progress).
    pub above_at_start: bool,
    /// Sign-change and candidate windows, in chronological order.
    pub events: Vec<SweepEvent>,
    /// Points evaluated per observer (boundaries + lattice columns).
    pub points: usize,
}

/// Loop-invariant per-observer parameters, hoisted out of the column
/// sweep: ECEF site vector, zenith basis vector, `sin(mask)`.
#[derive(Debug, Clone, Copy)]
struct ObsParams {
    sx: f64,
    sy: f64,
    sz: f64,
    zx: f64,
    zy: f64,
    zz: f64,
    sin_mask: f64,
}

/// The horizon margin and its exact time derivative for one
/// (observer, satellite-state) pair — the *single* FP expression both
/// the chunked kernels and the element-at-a-time test oracle evaluate,
/// which is what makes them bit-identical (see the module docs).
#[inline(always)]
#[allow(clippy::too_many_arguments)] // Scalar SoA lanes by design: arrays of structs would defeat vectorisation.
fn margin_terms(px: f64, py: f64, pz: f64, vx: f64, vy: f64, vz: f64, p: ObsParams) -> (f64, f64) {
    let rx = px - p.sx;
    let ry = py - p.sy;
    let rz = pz - p.sz;
    let z = rx * p.zx + ry * p.zy + rz * p.zz;
    let r = (rx * rx + ry * ry + rz * rz).sqrt();
    let m = z - r * p.sin_mask;
    let zdot = vx * p.zx + vy * p.zy + vz * p.zz;
    let rv = rx * vx + ry * vy + rz * vz;
    let dm = zdot - p.sin_mask * (rv / r);
    (m, dm)
}

/// One chunk of satellite grid columns, gathered into fixed-width SoA
/// arrays so the margin kernel is a straight elementwise loop.
struct ColumnChunk {
    px: [f64; CHUNK],
    py: [f64; CHUNK],
    pz: [f64; CHUNK],
    vx: [f64; CHUNK],
    vy: [f64; CHUNK],
    vz: [f64; CHUNK],
}

impl ColumnChunk {
    fn zeroed() -> ColumnChunk {
        ColumnChunk {
            px: [0.0; CHUNK],
            py: [0.0; CHUNK],
            pz: [0.0; CHUNK],
            vx: [0.0; CHUNK],
            vy: [0.0; CHUNK],
            vz: [0.0; CHUNK],
        }
    }
}

/// The portable chunk kernel: [`margin_terms`] over a fixed-width
/// array. A fixed trip count over `[f64; CHUNK]` arrays compiles to
/// branch-free straight-line SIMD under the default target features.
#[inline(always)]
fn margin_chunk_body(
    cols: &ColumnChunk,
    p: ObsParams,
    m: &mut [f64; CHUNK],
    dm: &mut [f64; CHUNK],
) {
    for i in 0..CHUNK {
        let (mi, dmi) = margin_terms(
            cols.px[i], cols.py[i], cols.pz[i], cols.vx[i], cols.vy[i], cols.vz[i], p,
        );
        m[i] = mi;
        dm[i] = dmi;
    }
}

/// The same kernel recompiled with AVX2 enabled (4-wide `f64`
/// `sqrt`/`div` instead of the SSE2 baseline's 2-wide). Per-lane
/// IEEE-754 semantics are identical to the portable build — wider
/// registers change throughput, never rounding — and FMA contraction
/// stays off, so dispatching here preserves bit-identity.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn margin_chunk_avx2(
    cols: &ColumnChunk,
    p: ObsParams,
    m: &mut [f64; CHUNK],
    dm: &mut [f64; CHUNK],
) {
    margin_chunk_body(cols, p, m, dm);
}

/// Evaluate one observer's margins over a gathered column chunk,
/// through the widest kernel the CPU supports.
fn margin_chunk(cols: &ColumnChunk, p: ObsParams, m: &mut [f64; CHUNK], dm: &mut [f64; CHUNK]) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: guarded by the runtime AVX2 detection above.
            unsafe { margin_chunk_avx2(cols, p, m, dm) };
            return;
        }
    }
    margin_chunk_body(cols, p, m, dm);
}

/// Exact maximum of the cubic Hermite `H` on `[0, 1]` given endpoint
/// values `p0`, `p1` and *step-scaled* endpoint derivatives `v0`, `v1`
/// (the same parameterisation as the grid's interpolant). Interior
/// extrema come from the quadratic `H′(s) = 0`, solved with the
/// sign-stable pairing to avoid cancellation.
fn cubic_max(p0: f64, v0: f64, p1: f64, v1: f64) -> f64 {
    let mut best = p0.max(p1);
    let mut consider = |s: f64| {
        if s > 0.0 && s < 1.0 {
            let s2 = s * s;
            let s3 = s2 * s;
            let h = p0 * (2.0 * s3 - 3.0 * s2 + 1.0)
                + v0 * (s3 - 2.0 * s2 + s)
                + p1 * (-2.0 * s3 + 3.0 * s2)
                + v1 * (s3 - s2);
            if h > best {
                best = h;
            }
        }
    };
    // H′(s) = a·s² + b·s + c.
    let a = 6.0 * p0 + 3.0 * v0 - 6.0 * p1 + 3.0 * v1;
    let b = -6.0 * p0 - 4.0 * v0 + 6.0 * p1 - 2.0 * v1;
    let c = v0;
    if a == 0.0 {
        if b != 0.0 {
            consider(-c / b);
        }
    } else {
        let disc = b * b - 4.0 * a * c;
        if disc >= 0.0 {
            let q = -0.5 * (b + b.signum() * disc.sqrt());
            consider(q / a);
            if q != 0.0 {
                consider(c / q);
            }
        }
    }
    best
}

/// Whether a lattice interval with both endpoints below the mask could
/// still hide a pass (see the module docs for the three-stage filter).
fn near_miss_candidate(m_a: f64, dm_a: f64, m_b: f64, dm_b: f64, dt_s: f64) -> bool {
    if !(m_a.is_finite() && dm_a.is_finite() && m_b.is_finite() && dm_b.is_finite() && dt_s > 0.0) {
        return false; // Invalid samples never promote to probes.
    }
    let v0 = dt_s * dm_a;
    let v1 = dt_s * dm_b;
    // Stage 1: Bézier hull bound — the cubic never exceeds the largest
    // of its four control points.
    let hull = m_a.max(m_a + v0 / 3.0).max(m_b - v1 / 3.0).max(m_b);
    if hull <= -CANDIDATE_GUARD_KM {
        return false;
    }
    // Stage 2: the exact interior maximum of the Hermite model.
    cubic_max(m_a, v0, m_b, v1) > -CANDIDATE_GUARD_KM
}

/// The per-observer sign-change state machine. Consumes `(t, m, m′)`
/// points in chronological order and emits sparse events.
struct Detector {
    started: bool,
    above_at_start: bool,
    t_prev: JulianDate,
    m_prev: f64,
    dm_prev: f64,
    points: usize,
    events: Vec<SweepEvent>,
}

impl Detector {
    fn new() -> Detector {
        Detector {
            started: false,
            above_at_start: false,
            t_prev: JulianDate(0.0),
            m_prev: f64::NAN,
            dm_prev: f64::NAN,
            points: 0,
            events: Vec::new(),
        }
    }

    #[inline]
    fn feed(&mut self, t: JulianDate, m: f64, dm: f64) {
        self.points += 1;
        let above = m > 0.0; // NaN margins read as "below", like a failed propagation.
        if !self.started {
            self.started = true;
            self.above_at_start = above;
        } else {
            let was_above = self.m_prev > 0.0;
            if above != was_above {
                let kind = if above {
                    SweepEventKind::Rising
                } else {
                    SweepEventKind::Falling
                };
                self.events.push(SweepEvent {
                    kind,
                    t_lo: self.t_prev,
                    t_hi: t,
                });
            } else if !above
                && near_miss_candidate(
                    self.m_prev,
                    self.dm_prev,
                    m,
                    dm,
                    t.seconds_since(self.t_prev),
                )
            {
                self.events.push(SweepEvent {
                    kind: SweepEventKind::Candidate,
                    t_lo: self.t_prev,
                    t_hi: t,
                });
            }
        }
        self.t_prev = t;
        self.m_prev = m;
        self.dm_prev = dm;
    }

    /// Advance the detector across `n` samples proven eventless by the
    /// block screen (see [`VisibilitySweep::sweep_chunked`]): every
    /// skipped margin — and the carried previous one — sits so far
    /// below the mask that neither a sign change nor a near-miss hull
    /// could fire, so feeding them one by one would only have updated
    /// the carry state this method writes directly. Outcomes therefore
    /// stay bit-identical to the scalar sweep.
    #[inline]
    fn skip_eventless(&mut self, n: usize, t_last: JulianDate, m_last: f64, dm_last: f64) {
        debug_assert!(
            self.started,
            "screen may only skip after the start boundary"
        );
        self.points += n;
        self.t_prev = t_last;
        self.m_prev = m_last;
        self.dm_prev = dm_last;
    }

    fn into_outcome(self) -> SweepOutcome {
        SweepOutcome {
            above_at_start: self.above_at_start,
            events: self.events,
            points: self.points,
        }
    }
}

/// A structure-of-arrays arena of observers sharing one satellite
/// sweep: push every (site, mask) pair once, then [`run`](Self::run)
/// per satellite grid.
///
/// ```
/// use satiot_orbit::elements::Elements;
/// use satiot_orbit::ephemeris::EphemerisGrid;
/// use satiot_orbit::frames::Geodetic;
/// use satiot_orbit::time::JulianDate;
/// use satiot_orbit::topo::Observer;
/// use satiot_orbit::visibility::{VisibilityMode, VisibilitySweep};
///
/// let epoch = JulianDate::from_calendar(2025, 3, 1, 0, 0, 0.0);
/// let sgp4 = Elements::circular(550.0, 97.6, epoch).to_sgp4().unwrap();
/// let grid = EphemerisGrid::build(&sgp4, epoch, epoch + 1.0);
/// let mut sweep = VisibilitySweep::new();
/// sweep.push(&Observer::new(Geodetic::from_degrees(22.32, 114.17, 0.05)), 0.0);
/// sweep.push(&Observer::new(Geodetic::from_degrees(39.9, 116.4, 0.05)), 0.0);
/// let outcomes = sweep.run(&grid, epoch, epoch + 1.0, VisibilityMode::On).unwrap();
/// assert_eq!(outcomes.len(), 2); // one per observer
/// assert!(outcomes.iter().any(|o| !o.events.is_empty()));
/// ```
#[derive(Debug, Clone, Default)]
pub struct VisibilitySweep {
    sx: Vec<f64>,
    sy: Vec<f64>,
    sz: Vec<f64>,
    zx: Vec<f64>,
    zy: Vec<f64>,
    zz: Vec<f64>,
    sin_mask: Vec<f64>,
}

impl VisibilitySweep {
    /// An empty arena.
    pub fn new() -> VisibilitySweep {
        VisibilitySweep::default()
    }

    /// Hoist one observer's loop invariants into the arena. `mask_rad`
    /// must lie in `[−π/2, π/2]` for the margin ⟺ elevation
    /// equivalence to hold (`PassPredictor` clamps its mask into that
    /// range first).
    pub fn push(&mut self, observer: &Observer, mask_rad: f64) {
        let site = observer.position_ecef();
        let zenith = observer.zenith();
        self.sx.push(site.x);
        self.sy.push(site.y);
        self.sz.push(site.z);
        self.zx.push(zenith.x);
        self.zy.push(zenith.y);
        self.zz.push(zenith.z);
        self.sin_mask.push(mask_rad.sin());
    }

    /// Observers in the arena.
    pub fn len(&self) -> usize {
        self.sin_mask.len()
    }

    /// Whether the arena holds no observers.
    pub fn is_empty(&self) -> bool {
        self.sin_mask.is_empty()
    }

    fn params(&self, o: usize) -> ObsParams {
        ObsParams {
            sx: self.sx[o],
            sy: self.sy[o],
            sz: self.sz[o],
            zx: self.zx[o],
            zy: self.zy[o],
            zz: self.zz[o],
            sin_mask: self.sin_mask[o],
        }
    }

    /// Sweep `grid`'s columns across `[start, end]` for every observer
    /// in the arena.
    ///
    /// Answers `None` when the arena is empty, the window is
    /// degenerate, or the grid does not cover the whole window
    /// (`PassPredictor` then sweeps a grid built for the window).
    pub fn run(
        &self,
        grid: &EphemerisGrid,
        start: JulianDate,
        end: JulianDate,
        _mode: VisibilityMode,
    ) -> Option<Vec<SweepOutcome>> {
        self.sweep(grid, start, end, Self::sweep_chunked)
    }

    /// [`Self::run`] through the element-at-a-time oracle kernel.
    #[cfg(test)]
    fn run_scalar(
        &self,
        grid: &EphemerisGrid,
        start: JulianDate,
        end: JulianDate,
    ) -> Option<Vec<SweepOutcome>> {
        self.sweep(grid, start, end, Self::sweep_scalar)
    }

    /// The sweep shared by both kernels: boundary feeds, the lattice
    /// columns through `kernel`, and the metrics.
    fn sweep(
        &self,
        grid: &EphemerisGrid,
        start: JulianDate,
        end: JulianDate,
        kernel: fn(&Self, &EphemerisGrid, usize, usize, &mut [Detector]),
    ) -> Option<Vec<SweepOutcome>> {
        if self.is_empty() {
            return None;
        }
        let n = grid.len();
        if n < 2 {
            return None;
        }
        let x_start = grid.index_at(start);
        let x_end = grid.index_at(end);
        if !(x_start.is_finite() && x_end.is_finite() && x_start >= 0.0) {
            return None;
        }
        if !(x_end <= (n - 1) as f64 && x_end > x_start) {
            return None;
        }
        // Lattice columns strictly inside (start, end); the exact
        // boundaries are fed as interpolated pseudo-columns so a pass
        // in progress at `start` (or truncated at `end`) is seen at the
        // exact window edge.
        let k_first = x_start.floor() as usize + 1;
        let k_last = (x_end.ceil() as usize).saturating_sub(1).min(n - 1);

        let mut detectors: Vec<Detector> = (0..self.len()).map(|_| Detector::new()).collect();
        self.feed_boundary(grid, start, &mut detectors);
        if k_first <= k_last {
            kernel(self, grid, k_first, k_last, &mut detectors);
        }
        self.feed_boundary(grid, end, &mut detectors);

        let outcomes: Vec<SweepOutcome> =
            detectors.into_iter().map(Detector::into_outcome).collect();
        SWEEPS.inc();
        SWEEP_MARGINS.add(outcomes.iter().map(|o| o.points as u64).sum());
        SWEEP_EVENTS.add(outcomes.iter().map(|o| o.events.len() as u64).sum());
        SWEEP_CANDIDATES.add(
            outcomes
                .iter()
                .flat_map(|o| &o.events)
                .filter(|e| e.kind == SweepEventKind::Candidate)
                .count() as u64,
        );
        Some(outcomes)
    }

    /// Feed the exact window boundary to every detector, through the
    /// grid's Hermite interpolant and the shared margin expression.
    /// An uninterpolable boundary (NaN bracketing samples) feeds NaN
    /// margins, which read as "below the mask" in both kernels.
    fn feed_boundary(&self, grid: &EphemerisGrid, t: JulianDate, detectors: &mut [Detector]) {
        let (p, v) = match grid.state_at(t) {
            Some(s) => (s.position_km, s.velocity_km_s),
            None => {
                for d in detectors.iter_mut() {
                    d.feed(t, f64::NAN, f64::NAN);
                }
                return;
            }
        };
        for (o, d) in detectors.iter_mut().enumerate() {
            let (m, dm) = margin_terms(p.x, p.y, p.z, v.x, v.y, v.z, self.params(o));
            d.feed(t, m, dm);
        }
    }

    /// The chunked sweep: gather up to [`CHUNK`] columns of one tile
    /// run into SoA arrays once, then run every observer's kernel over
    /// the gathered chunk while it is hot in L1. Where the chunks and
    /// their blocks start does not matter: the block screen below skips
    /// only what the scalar feed would not have reported.
    fn sweep_chunked(
        &self,
        grid: &EphemerisGrid,
        k_first: usize,
        k_last: usize,
        detectors: &mut [Detector],
    ) {
        let mut cols = ColumnChunk::zeroed();
        let mut times = [JulianDate(0.0); CHUNK];
        let mut m = [0.0_f64; CHUNK];
        let mut dm = [0.0_f64; CHUNK];
        let step_s = grid.step_s();
        let chunks = grid.runs(k_first..k_last + 1).flat_map(|(k, run)| {
            run.chunks(CHUNK)
                .enumerate()
                .map(move |(c, chunk)| (k + c * CHUNK, chunk))
        });
        for (k, chunk) in chunks {
            let n_real = chunk.len();
            for (i, s) in chunk.iter().enumerate() {
                cols.px[i] = s.position_km.x;
                cols.py[i] = s.position_km.y;
                cols.pz[i] = s.position_km.z;
                cols.vx[i] = s.velocity_km_s.x;
                cols.vy[i] = s.velocity_km_s.y;
                cols.vz[i] = s.velocity_km_s.z;
                times[i] = grid.sample_time(k + i);
            }
            for (o, d) in detectors.iter_mut().enumerate() {
                margin_chunk(&cols, self.params(o), &mut m, &mut dm);
                // Block screen: the Hermite model of every interval in
                // a block (and of the bridge from the carried previous
                // sample) lies inside its Bézier hull, which is bounded
                // by `max(m) + dt·max|dm|/3` with `dt ≤ step`. When that
                // bound cannot reach the candidate guard, no crossing or
                // near-miss exists there and the scalar state machine is
                // bypassed for the block — the dominant case for LEO
                // satellites, which spend most of a day far below any
                // observer's horizon. `f64::max` ignores NaN carries,
                // and NaN margins route to the slow path via the NaN
                // bound, so degraded samples keep their feed semantics.
                for lo in (0..n_real).step_by(BLOCK) {
                    let hi = (lo + BLOCK).min(n_real);
                    let mut max_m = d.m_prev;
                    let mut max_abs_dm = d.dm_prev.abs();
                    for i in lo..hi {
                        max_m = max_m.max(m[i]);
                        max_abs_dm = max_abs_dm.max(dm[i].abs());
                    }
                    if max_m + step_s * max_abs_dm / 3.0 <= -CANDIDATE_GUARD_KM {
                        d.skip_eventless(hi - lo, times[hi - 1], m[hi - 1], dm[hi - 1]);
                        continue;
                    }
                    for i in lo..hi {
                        d.feed(times[i], m[i], dm[i]);
                    }
                }
            }
        }
    }

    /// The element-at-a-time sweep: the same margin expression and
    /// feed order as [`Self::sweep_chunked`], one column at a time —
    /// the bit-identical oracle the chunked kernel is tested against.
    #[cfg(test)]
    fn sweep_scalar(
        &self,
        grid: &EphemerisGrid,
        k_first: usize,
        k_last: usize,
        detectors: &mut [Detector],
    ) {
        for (o, d) in detectors.iter_mut().enumerate() {
            let p = self.params(o);
            for (k, run) in grid.runs(k_first..k_last + 1) {
                for (i, s) in run.iter().enumerate() {
                    let (m, dm) = margin_terms(
                        s.position_km.x,
                        s.position_km.y,
                        s.position_km.z,
                        s.velocity_km_s.x,
                        s.velocity_km_s.y,
                        s.velocity_km_s.z,
                        p,
                    );
                    d.feed(grid.sample_time(k + i), m, dm);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elements::Elements;
    use crate::frames::Geodetic;
    use crate::sgp4::Sgp4;

    fn epoch() -> JulianDate {
        JulianDate::from_calendar(2025, 3, 1, 0, 0, 0.0)
    }

    fn leo(alt_km: f64, incl_deg: f64) -> Sgp4 {
        Elements::circular(alt_km, incl_deg, epoch())
            .to_sgp4()
            .unwrap()
    }

    fn hk() -> Observer {
        Observer::new(Geodetic::from_degrees(22.3193, 114.1694, 0.05))
    }

    /// One observer's outcome of a one-observer sweep.
    fn sweep_one(
        grid: &EphemerisGrid,
        observer: &Observer,
        mask_rad: f64,
        start: JulianDate,
        end: JulianDate,
    ) -> Option<SweepOutcome> {
        let mut sweep = VisibilitySweep::new();
        sweep.push(observer, mask_rad);
        sweep.run(grid, start, end, VisibilityMode::On)?.pop()
    }

    #[test]
    fn margin_sign_agrees_with_elevation() {
        // The margin test must agree with `asin(z/r) > mask` at every
        // grid column for a realistic geometry and several masks.
        let sgp4 = leo(550.0, 97.6);
        let grid = EphemerisGrid::build(&sgp4, epoch(), epoch() + 1.0);
        let obs = hk();
        for mask_deg in [0.0, 5.0, 25.0] {
            let mask = f64::to_radians(mask_deg);
            let mut sweep = VisibilitySweep::new();
            sweep.push(&obs, mask);
            let p = sweep.params(0);
            let samples = grid.runs(0..grid.len()).flat_map(|(_, run)| run);
            for (k, s) in samples.enumerate() {
                let (m, _) = margin_terms(
                    s.position_km.x,
                    s.position_km.y,
                    s.position_km.z,
                    s.velocity_km_s.x,
                    s.velocity_km_s.y,
                    s.velocity_km_s.z,
                    p,
                );
                let el = obs
                    .look_at_ecef(s.position_km, s.velocity_km_s)
                    .elevation_rad;
                assert_eq!(m > 0.0, el > mask, "column {k} mask {mask_deg}");
            }
        }
    }

    #[test]
    fn margin_derivative_matches_finite_differences() {
        let sgp4 = leo(550.0, 97.6);
        let grid = EphemerisGrid::build(&sgp4, epoch(), epoch() + 0.5);
        let obs = hk();
        let mut sweep = VisibilitySweep::new();
        sweep.push(&obs, 5.0_f64.to_radians());
        let p = sweep.params(0);
        let eval = |t: JulianDate| {
            let s = grid.state_at(t).unwrap();
            margin_terms(
                s.position_km.x,
                s.position_km.y,
                s.position_km.z,
                s.velocity_km_s.x,
                s.velocity_km_s.y,
                s.velocity_km_s.z,
                p,
            )
        };
        for k in [5, 17, 40] {
            let t = grid.sample_time(k);
            let (_, dm) = eval(t);
            let h = 0.5; // seconds
            let (m_plus, _) = eval(t.plus_seconds(h));
            let (m_minus, _) = eval(t.plus_seconds(-h));
            let fd = (m_plus - m_minus) / (2.0 * h);
            assert!(
                (dm - fd).abs() < 1e-3 * dm.abs().max(1.0),
                "dm {dm} vs finite difference {fd} at column {k}"
            );
        }
    }

    #[test]
    fn scalar_and_chunked_sweeps_are_bit_identical() {
        let sgp4 = leo(550.0, 97.6);
        let grid = EphemerisGrid::build(&sgp4, epoch(), epoch() + 2.0);
        let mut sweep = VisibilitySweep::new();
        sweep.push(&hk(), 0.0);
        sweep.push(
            &Observer::new(Geodetic::from_degrees(39.9042, 116.4074, 0.04)),
            10.0_f64.to_radians(),
        );
        sweep.push(
            &Observer::new(Geodetic::from_degrees(-33.87, 151.21, 0.03)),
            5.0_f64.to_radians(),
        );
        // 24 observers on a Fibonacci lattice (equal areas of the
        // sphere), masks 0–30°: passes start and end at every offset
        // inside a chunk, so skipped and fed blocks alternate within
        // one chunk, and a pass can end on a block edge, where only the
        // carried sample sees the crossing.
        let n = 24;
        for i in 0..n {
            let lat = (1.0 - 2.0 * (i as f64 + 0.5) / n as f64)
                .asin()
                .to_degrees();
            let lon = (i as f64 * 137.507_764_050_037_86) % 360.0 - 180.0;
            let mask = (5 * (i % 7)) as f64;
            sweep.push(
                &Observer::new(Geodetic::from_degrees(lat, lon, 0.0)),
                mask.to_radians(),
            );
        }
        let start = epoch().plus_seconds(13.0); // off-lattice boundaries
        let end = epoch().plus_seconds(2.0 * 86_400.0 - 29.0);
        let scalar = sweep.run_scalar(&grid, start, end).expect("covered window");
        let vector = sweep
            .run(&grid, start, end, VisibilityMode::On)
            .expect("covered window");
        assert_eq!(scalar.len(), vector.len());
        for (o, (a, b)) in scalar.iter().zip(&vector).enumerate() {
            assert_eq!(a.above_at_start, b.above_at_start, "observer {o}");
            assert_eq!(a.points, b.points, "observer {o}");
            assert_eq!(a.events.len(), b.events.len(), "observer {o}");
            for (x, y) in a.events.iter().zip(&b.events) {
                assert_eq!(x.kind, y.kind);
                assert_eq!(x.t_lo.0.to_bits(), y.t_lo.0.to_bits());
                assert_eq!(x.t_hi.0.to_bits(), y.t_hi.0.to_bits());
            }
        }
        assert!(scalar.iter().any(|o| !o.events.is_empty()));
        assert!(
            scalar
                .iter()
                .flat_map(|o| &o.events)
                .any(|e| e.kind == SweepEventKind::Candidate),
            "no near-miss window: the hull path is untested"
        );
    }

    #[test]
    fn events_bracket_every_dense_scan_crossing() {
        // Reference: a dense 5 s elevation scan. Every crossing it
        // finds must fall inside exactly one Rising/Falling window.
        let sgp4 = leo(550.0, 97.6);
        let start = epoch();
        let end = epoch() + 1.0;
        let grid = EphemerisGrid::build(&sgp4, start, end);
        let obs = hk();
        let mask = 5.0_f64.to_radians();
        let outcome = sweep_one(&grid, &obs, mask, start, end).unwrap();

        let el = |t: JulianDate| {
            let s = grid.state_at(t).unwrap();
            obs.look_at_ecef(s.position_km, s.velocity_km_s)
                .elevation_rad
        };
        let mut crossings = Vec::new();
        let mut t = start;
        let mut above_prev = el(t) > mask;
        while t < end {
            let t_next = t.plus_seconds(5.0);
            let t_next = if t_next > end { end } else { t_next };
            let above = el(t_next) > mask;
            if above != above_prev {
                crossings.push((t, t_next, above));
            }
            above_prev = above;
            t = t_next;
        }
        assert!(!crossings.is_empty(), "test geometry has no passes");
        for (lo, hi, rising) in crossings {
            let hits = outcome
                .events
                .iter()
                .filter(|e| {
                    let kind_ok = if rising {
                        e.kind == SweepEventKind::Rising
                    } else {
                        e.kind == SweepEventKind::Falling
                    };
                    kind_ok && e.t_lo <= hi && e.t_hi >= lo
                })
                .count();
            assert_eq!(hits, 1, "crossing near {lo:?} not bracketed exactly once");
        }
    }

    #[test]
    fn uncovered_windows_fall_back_to_none() {
        let sgp4 = leo(550.0, 97.6);
        let grid = EphemerisGrid::build(&sgp4, epoch(), epoch() + 0.5);
        let obs = hk();
        // Window extends past the grid.
        assert!(sweep_one(&grid, &obs, 0.0, epoch(), epoch() + 5.0).is_none());
        // Degenerate / reversed windows.
        assert!(sweep_one(&grid, &obs, 0.0, epoch(), epoch()).is_none());
        assert!(sweep_one(&grid, &obs, 0.0, epoch() + 0.4, epoch() + 0.1).is_none());
        // Empty grid.
        let empty = EphemerisGrid::build(&sgp4, epoch(), epoch());
        assert!(sweep_one(&empty, &obs, 0.0, epoch(), epoch() + 0.4).is_none());
    }

    #[test]
    fn cubic_max_finds_the_interior_peak() {
        // H(s) = -(s - 0.5)² + 0.25 scaled: p0 = p1 = 0, peak 0.25 at
        // s = 0.5 ⟹ endpoint derivatives ±1.
        let max = cubic_max(0.0, 1.0, 0.0, -1.0);
        assert!((max - 0.25).abs() < 1e-12, "max {max}");
        // Monotone segment: no interior extremum beats the endpoints.
        let max = cubic_max(-3.0, 1.0, -1.0, 1.0);
        assert!((max - (-1.0)).abs() < 1e-12, "max {max}");
    }

    #[test]
    fn near_miss_filter_rejects_deep_intervals_and_keeps_shallow_peaks() {
        // Deep below, flat: hull reject.
        assert!(!near_miss_candidate(-500.0, 0.0, -480.0, 0.01, 60.0));
        // Endpoints at −5 km with derivatives that arch the model to
        // +2.5 km mid-interval: must stay a candidate.
        assert!(near_miss_candidate(-5.0, 0.5, -5.0, -0.5, 60.0));
        // Same arch but the peak stays ~3 km below: rejected by the
        // exact cubic even though one Bézier control point is high.
        assert!(!near_miss_candidate(-10.0, 0.3, -10.0, -0.3, 60.0));
        // Invalid samples never probe.
        assert!(!near_miss_candidate(f64::NAN, 0.0, -1.0, 0.0, 60.0));
        assert!(!near_miss_candidate(-1.0, 0.0, -1.0, 0.0, 0.0));
    }

    #[test]
    fn nan_samples_read_as_below_the_mask() {
        // Failed-propagation samples store NaN state; the margin
        // arithmetic must propagate it and the detector must read NaN
        // margins as "below" (no spurious events, not above at start),
        // matching how `PassPredictor::elevation_at` reports
        // unanswerable instants (−90°).
        let p = ObsParams {
            sx: 0.0,
            sy: 0.0,
            sz: 0.0,
            zx: 1.0,
            zy: 0.0,
            zz: 0.0,
            sin_mask: 0.0,
        };
        let (m, dm) = margin_terms(f64::NAN, 0.0, 0.0, 0.0, 0.0, 0.0, p);
        assert!(m.is_nan() && dm.is_nan());
        let mut d = Detector::new();
        d.feed(epoch(), f64::NAN, f64::NAN);
        d.feed(epoch().plus_seconds(60.0), f64::NAN, f64::NAN);
        let out = d.into_outcome();
        assert!(!out.above_at_start && out.events.is_empty());
    }
}
