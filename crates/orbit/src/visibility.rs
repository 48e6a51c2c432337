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
//!    near-miss candidates, each with the margins at its ends — for
//!    the Newton refinement in [`pass`](crate::pass), after a screen
//!    that skips every 8-sample block whose interval bounds (below)
//!    prove it eventless, so only the blocks around a pass reach the
//!    per-sample event detector.
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
//! and no transcendentals per (observer, column). The margin is in km
//! of *zenith-projected slant distance*; near the horizon a margin of
//! 1 km is ≈ 0.02° of elevation at a 2 500 km slant range. Its time
//! derivatives follow from the grid's stored ECEF velocity `v` and the
//! acceleration `a` modelled from each stored state
//! ([`Sample::of`](crate::ephemeris::Sample)), once per column as the
//! chunk is gathered: `m′ = ζ·v − sin(mask)·r′` and
//! `m″ = ζ·a − sin(mask)·r″`, with `r′ = ρ·v/r` and
//! `r″ = (|v|² + ρ·a − r′²)/r`.
//!
//! ## Sign-change-window contract
//!
//! For each observer the sweep reports `above_at_start` plus an
//! ordered event list. Every horizon crossing inside `[start, end]`
//! is bracketed by exactly one [`SweepEventKind::Rising`] or
//! [`SweepEventKind::Falling`] window no wider than one lattice step
//! ([`STEP_S`](crate::ephemeris::STEP_S), 180 s); a lattice interval
//! whose endpoints are both below the mask but whose true margin may
//! peek above it in the interior is reported as a
//! [`SweepEventKind::Candidate`] window. LEO passes over one site are
//! ≥ 45 min apart, so one lattice interval contains at most one
//! crossing (two crossings inside one interval — a whole pass — is
//! exactly the candidate case).
//!
//! ## The interval bound: no sub-step pass is missed
//!
//! An interval whose two endpoints are below the mask is a candidate
//! unless an upper bound on the *true* margin over the whole interval
//! is below zero. The bound comes from the interval's own samples:
//!
//! * the grid's position over the interval is a quintic, the Hermite
//!   interpolant of `p`, `v`, `a` at both ends, and lies in the convex
//!   hull of its six Bézier control points `p₀`, `p₀ + hv₀/5`,
//!   `p₀ + 2hv₀/5 + h²a₀/20` and their mirror images at `p₁`;
//! * for a mask `ε ≥ 0` the margin `g(ρ) = ζ·ρ − sin ε·|ρ|` is
//!   concave, so it lies below its tangent plane at the first
//!   endpoint, the linear `g(ρ) ≤ n·ρ` with `n = ζ − sin ε·ρ̂₀`; the
//!   largest `n·(B − site)` over the control points `B` bounds the
//!   margin along the interpolant. Its first two terms are the margin
//!   model's own `m₀` and `m₀ + h·m₀′/5`;
//! * for `ε < 0`, `g` is convex and its maximum over the hull is its
//!   largest value at a control point;
//! * the true trajectory lies within
//!   [`MAX_POSITION_ERROR_KM`] of the interpolant, and `g` changes by
//!   at most `1 + |sin ε|` per km, which the bound adds.
//!
//! At a 0° mask (every passive, farm and Fig 3a scan) the bound is the
//! Bézier hull of the margin's own quintic model from `m`, `m′` and
//! `m″` at both ends, plus the position error. The bound holds for any
//! mask, however close to zenith, so no contact shorter than a step is
//! missed: a candidate reaches `pass`'s peak probe, which decides. The
//! block screen skips a block of `BLOCK` columns only when the bound
//! of every interval in it (and of the interval bridging it to the
//! carried previous sample) is below zero — exactly when the
//! per-sample detector would emit nothing there.
//!
//! ## Bit-identity with the element-at-a-time oracle
//!
//! The chunked kernel evaluates the margins and interval bounds in
//! [`CHUNK`]-wide batches through the *same* inlined `margin_terms` and
//! bound expressions per element that the element-at-a-time sweep
//! (kept as a test oracle) uses, and it is a straight elementwise loop
//! over fixed-width arrays:
//! auto-vectorisation (including the runtime-dispatched AVX2 recompile
//! on `x86_64`) maps each IEEE-754 operation onto per-lane SIMD
//! equivalents with identical rounding, and no reassociation or FMA
//! contraction is enabled. Identical margins and bounds ⟹ identical
//! sign changes and candidates ⟹ identical event lists ⟹ bit-identical
//! refined passes. The
//! direct-SGP4 reference scan that [`pass`](crate::pass) keeps as a
//! test oracle refines from *different* brackets and is therefore
//! equivalent only to refinement tolerance, not to the bit.

use crate::ephemeris::{EphemerisGrid, Sample, MAX_POSITION_ERROR_KM};
use crate::time::JulianDate;
use crate::topo::Observer;
use crate::vec3::Vec3;
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
/// latency chain, small enough that one chunk's ten input arrays (nine
/// state lanes and the instants) plus three outputs (6.5 KiB) live
/// comfortably in L1 beside the observer arena.
pub const CHUNK: usize = 64;

/// Columns per eventless screen: each [`CHUNK`] is screened in blocks
/// of this many, so a pass inside a chunk feeds the detector only the
/// blocks around it.
const BLOCK: usize = 8;

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
    /// The margin rises through zero inside the window: refine AOS.
    Rising,
    /// The margin falls through zero inside the window: refine LOS.
    Falling,
    /// Both endpoints are below the mask but the interval bound does
    /// not rule out a pass in the interior (one shorter than a lattice
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
    /// The margin at `t_lo`, km: the sweep's own value, which seeds
    /// the crossing refinement (NaN for an invalid sample).
    pub m_lo: f64,
    /// The margin at `t_hi`, km.
    pub m_hi: f64,
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
    site: Vec3,
    zenith: Vec3,
    sin_mask: f64,
}

/// The horizon margin of one grid sample and the reciprocal slant
/// range `1/r` the interval bound reuses — the *single* FP expression
/// both the chunked kernels and the element-at-a-time test oracle
/// evaluate, which is what makes them bit-identical (see the module
/// docs).
#[inline(always)]
fn margin_terms(s: &Sample, p: ObsParams) -> (f64, f64) {
    let rho = s.position_km - p.site;
    let r = rho.norm();
    (rho.dot(p.zenith) - r * p.sin_mask, 1.0 / r)
}

/// An upper bound on the true margin over the interval from sample `a`
/// (margin `m0`, `1/r` `inv_r0`) to sample `b` (margin `m1`), `h`
/// seconds long, for a mask `ε ≥ 0`: the tangent plane of the concave
/// margin at `a`, `n = ζ − sin ε·ρ̂₀`, maximised over the six Bézier
/// control points of the interval's quintic, plus the position error
/// (see the module docs). NaN when either endpoint is.
#[inline(always)]
fn concave_bound(
    a: &Sample,
    m0: f64,
    inv_r0: f64,
    b: &Sample,
    m1: f64,
    h: f64,
    p: ObsParams,
) -> f64 {
    let n = p.zenith - (a.position_km - p.site) * (p.sin_mask * inv_r0);
    let (h5, h20) = (0.2 * h, 0.05 * h * h);
    let nv0 = h5 * n.dot(a.velocity_km_s);
    let na0 = h20 * n.dot(a.acceleration_km_s2);
    let nr1 = n.dot(b.position_km - p.site);
    let nv1 = h5 * n.dot(b.velocity_km_s);
    let na1 = h20 * n.dot(b.acceleration_km_s2);
    let c1 = m0 + nv0;
    let c2 = c1 + nv0 + na0;
    let c4 = nr1 - nv1;
    let c3 = c4 - nv1 + na1;
    let hull = m0.max(c1).max(c2).max(c3).max(c4).max(nr1);
    poison(hull + (1.0 + p.sin_mask) * MAX_POSITION_ERROR_KM, m0, m1)
}

/// [`concave_bound`] for a mask `ε < 0`, where the margin is convex:
/// its largest value at the six Bézier control points, plus the
/// position error.
#[inline(always)]
fn convex_bound(a: &Sample, m0: f64, b: &Sample, m1: f64, h: f64, p: ObsParams) -> f64 {
    let (h5, h20) = (0.2 * h, 0.05 * h * h);
    let g = |x: Vec3| {
        let rho = x - p.site;
        rho.dot(p.zenith) - p.sin_mask * rho.norm()
    };
    let (pa, va, aa) = (a.position_km, a.velocity_km_s, a.acceleration_km_s2);
    let (pb, vb, ab) = (b.position_km, b.velocity_km_s, b.acceleration_km_s2);
    let c1 = g(pa + va * h5);
    let c2 = g(pa + va * (2.0 * h5) + aa * h20);
    let c3 = g(pb - vb * (2.0 * h5) + ab * h20);
    let c4 = g(pb - vb * h5);
    let hull = m0.max(c1).max(c2).max(c3).max(c4).max(m1);
    poison(hull + (1.0 - p.sin_mask) * MAX_POSITION_ERROR_KM, m0, m1)
}

/// `bound`, or NaN when an endpoint margin is NaN (a failed
/// propagation): `f64::max` skips NaN, and such an interval must
/// neither be skipped by the block screen nor become a candidate.
#[inline(always)]
fn poison(bound: f64, m0: f64, m1: f64) -> f64 {
    if (m0 + m1).is_nan() {
        f64::NAN
    } else {
        bound
    }
}

/// The interval bound for the observer's mask sign: what the detector
/// reads and the block screen compares with zero.
#[inline(always)]
fn interval_bound(
    a: &Sample,
    m0: f64,
    inv_r0: f64,
    b: &Sample,
    m1: f64,
    h: f64,
    p: ObsParams,
) -> f64 {
    if p.sin_mask >= 0.0 {
        concave_bound(a, m0, inv_r0, b, m1, h, p)
    } else {
        convex_bound(a, m0, b, m1, h, p)
    }
}

/// One chunk of satellite grid columns, gathered into fixed-width SoA
/// arrays so the kernels are straight elementwise loops.
struct ColumnChunk {
    px: [f64; CHUNK],
    py: [f64; CHUNK],
    pz: [f64; CHUNK],
    vx: [f64; CHUNK],
    vy: [f64; CHUNK],
    vz: [f64; CHUNK],
    ax: [f64; CHUNK],
    ay: [f64; CHUNK],
    az: [f64; CHUNK],
    /// Each column's instant, as a Julian date.
    t: [f64; CHUNK],
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
            ax: [0.0; CHUNK],
            ay: [0.0; CHUNK],
            az: [0.0; CHUNK],
            t: [0.0; CHUNK],
        }
    }

    #[inline(always)]
    fn sample(&self, i: usize) -> Sample {
        Sample {
            position_km: Vec3::new(self.px[i], self.py[i], self.pz[i]),
            velocity_km_s: Vec3::new(self.vx[i], self.vy[i], self.vz[i]),
            acceleration_km_s2: Vec3::new(self.ax[i], self.ay[i], self.az[i]),
        }
    }

    /// Seconds from column `i − 1` to column `i`.
    #[inline(always)]
    fn step(&self, i: usize) -> f64 {
        JulianDate(self.t[i]).seconds_since(JulianDate(self.t[i - 1]))
    }
}

/// One observer's per-chunk kernel outputs.
struct ChunkTerms {
    /// Margin at each column.
    m: [f64; CHUNK],
    /// `1/r` at each column.
    inv_r: [f64; CHUNK],
    /// Bound of the interval ending at each column; entry 0 (the
    /// interval bridging the carried sample) is left to the caller.
    bound: [f64; CHUNK],
}

/// The portable chunk kernel: [`margin_terms`] at every column, then
/// the bound of every interval inside the chunk, over fixed-width
/// arrays. A fixed trip count over `[f64; CHUNK]` arrays compiles to
/// branch-free straight-line SIMD under the default target features;
/// the mask's sign picks the bound once per observer, outside the loop.
#[inline(always)]
fn chunk_kernel_body(cols: &ColumnChunk, p: ObsParams, out: &mut ChunkTerms) {
    for i in 0..CHUNK {
        (out.m[i], out.inv_r[i]) = margin_terms(&cols.sample(i), p);
    }
    if p.sin_mask >= 0.0 {
        for i in 1..CHUNK {
            out.bound[i] = concave_bound(
                &cols.sample(i - 1),
                out.m[i - 1],
                out.inv_r[i - 1],
                &cols.sample(i),
                out.m[i],
                cols.step(i),
                p,
            );
        }
    } else {
        for i in 1..CHUNK {
            out.bound[i] = convex_bound(
                &cols.sample(i - 1),
                out.m[i - 1],
                &cols.sample(i),
                out.m[i],
                cols.step(i),
                p,
            );
        }
    }
}

/// The same kernel recompiled with AVX2 enabled (4-wide `f64`
/// `sqrt`/`div` instead of the SSE2 baseline's 2-wide). Per-lane
/// IEEE-754 semantics are identical to the portable build — wider
/// registers change throughput, never rounding — and FMA contraction
/// stays off, so dispatching here preserves bit-identity.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn chunk_kernel_avx2(cols: &ColumnChunk, p: ObsParams, out: &mut ChunkTerms) {
    chunk_kernel_body(cols, p, out);
}

/// Evaluate one observer's margins and interval bounds over a gathered
/// column chunk, through the widest kernel the CPU supports.
fn chunk_kernel(cols: &ColumnChunk, p: ObsParams, out: &mut ChunkTerms) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: guarded by the runtime AVX2 detection above.
            unsafe { chunk_kernel_avx2(cols, p, out) };
            return;
        }
    }
    chunk_kernel_body(cols, p, out);
}

/// The per-observer sign-change state machine. Consumes points in
/// chronological order, each with its margin and the bound of the
/// interval it closes, and emits sparse events.
struct Detector {
    started: bool,
    above_at_start: bool,
    /// The previous point: its instant, state, margin and `1/r`.
    t_prev: JulianDate,
    s_prev: Sample,
    m_prev: f64,
    inv_r_prev: f64,
    points: usize,
    events: Vec<SweepEvent>,
}

impl Detector {
    fn new() -> Detector {
        Detector {
            started: false,
            above_at_start: false,
            t_prev: JulianDate(0.0),
            s_prev: Sample::NAN,
            m_prev: f64::NAN,
            inv_r_prev: f64::NAN,
            points: 0,
            events: Vec::new(),
        }
    }

    /// The bound of the interval from the previous point to `s` at `t`
    /// (margin `m`).
    #[inline]
    fn bound_to(&self, t: JulianDate, s: &Sample, m: f64, p: ObsParams) -> f64 {
        let h = t.seconds_since(self.t_prev);
        interval_bound(&self.s_prev, self.m_prev, self.inv_r_prev, s, m, h, p)
    }

    /// Feed one point: `bound` bounds the true margin over the interval
    /// from the previous point (ignored for the first point).
    #[inline]
    fn feed(&mut self, t: JulianDate, s: Sample, (m, inv_r): (f64, f64), bound: f64) {
        self.points += 1;
        let above = m > 0.0; // NaN margins read as "below", like a failed propagation.
        if !self.started {
            self.started = true;
            self.above_at_start = above;
        } else {
            let was_above = self.m_prev > 0.0;
            let kind = if above != was_above {
                Some(if above {
                    SweepEventKind::Rising
                } else {
                    SweepEventKind::Falling
                })
            } else {
                // NaN bounds (invalid samples) never promote to probes.
                (!above && bound >= 0.0).then_some(SweepEventKind::Candidate)
            };
            if let Some(kind) = kind {
                self.events.push(SweepEvent {
                    kind,
                    t_lo: self.t_prev,
                    t_hi: t,
                    m_lo: self.m_prev,
                    m_hi: m,
                });
            }
        }
        self.carry(t, s, m, inv_r);
    }

    #[inline]
    fn carry(&mut self, t: JulianDate, s: Sample, m: f64, inv_r: f64) {
        self.t_prev = t;
        self.s_prev = s;
        self.m_prev = m;
        self.inv_r_prev = inv_r;
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
            site: Vec3::new(self.sx[o], self.sy[o], self.sz[o]),
            zenith: Vec3::new(self.zx[o], self.zy[o], self.zz[o]),
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
    /// grid's Hermite interpolant (its position and first two
    /// derivatives, so the bound of the sub-interval it opens or closes
    /// is that sub-curve's own) and the shared margin expression. An
    /// uninterpolable boundary (NaN bracketing samples) feeds NaN
    /// margins, which read as "below the mask" in both kernels.
    fn feed_boundary(&self, grid: &EphemerisGrid, t: JulianDate, detectors: &mut [Detector]) {
        let s = grid.sample_at(t).unwrap_or(Sample::NAN);
        for (o, d) in detectors.iter_mut().enumerate() {
            let p = self.params(o);
            let terms = margin_terms(&s, p);
            let bound = d.bound_to(t, &s, terms.0, p);
            d.feed(t, s, terms, bound);
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
        let mut terms = ChunkTerms {
            m: [0.0; CHUNK],
            inv_r: [0.0; CHUNK],
            bound: [0.0; CHUNK],
        };
        let chunks = grid.runs(k_first..k_last + 1).flat_map(|(k, run)| {
            run.chunks(CHUNK)
                .enumerate()
                .map(move |(c, chunk)| (k + c * CHUNK, chunk))
        });
        for (k, chunk) in chunks {
            let n_real = chunk.len();
            for (i, &state) in chunk.iter().enumerate() {
                let s = Sample::of(state);
                let (p, v, a) = (s.position_km, s.velocity_km_s, s.acceleration_km_s2);
                (cols.px[i], cols.py[i], cols.pz[i]) = (p.x, p.y, p.z);
                (cols.vx[i], cols.vy[i], cols.vz[i]) = (v.x, v.y, v.z);
                (cols.ax[i], cols.ay[i], cols.az[i]) = (a.x, a.y, a.z);
                cols.t[i] = grid.sample_time(k + i).0;
            }
            for (o, d) in detectors.iter_mut().enumerate() {
                let p = self.params(o);
                chunk_kernel(&cols, p, &mut terms);
                let t0 = JulianDate(cols.t[0]);
                terms.bound[0] = d.bound_to(t0, &cols.sample(0), terms.m[0], p);
                // Block screen: when the bound of every interval in a
                // block (the first one bridging the carried previous
                // sample) is below zero, the true margin stays below the
                // mask throughout, no crossing or candidate exists
                // there, and the scalar state machine is bypassed for
                // the block — the dominant case for LEO satellites,
                // which spend most of a day far below any observer's
                // horizon. NaN bounds (degraded samples) are not below
                // zero, so they keep their feed semantics.
                for lo in (0..n_real).step_by(BLOCK) {
                    let hi = (lo + BLOCK).min(n_real);
                    if terms.bound[lo..hi].iter().all(|&b| b < 0.0) {
                        let last = hi - 1;
                        d.points += hi - lo;
                        d.carry(
                            JulianDate(cols.t[last]),
                            cols.sample(last),
                            terms.m[last],
                            terms.inv_r[last],
                        );
                        continue;
                    }
                    for i in lo..hi {
                        d.feed(
                            JulianDate(cols.t[i]),
                            cols.sample(i),
                            (terms.m[i], terms.inv_r[i]),
                            terms.bound[i],
                        );
                    }
                }
            }
        }
    }

    /// The element-at-a-time sweep: the same modelled samples, margin
    /// and bound expressions and feed order as [`Self::sweep_chunked`],
    /// one column at a time — the bit-identical oracle the chunked
    /// kernel is tested against.
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
                for (i, &state) in run.iter().enumerate() {
                    let (t, s) = (grid.sample_time(k + i), Sample::of(state));
                    let terms = margin_terms(&s, p);
                    let bound = d.bound_to(t, &s, terms.0, p);
                    d.feed(t, s, terms, bound);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elements::Elements;
    use crate::ephemeris::STEP_S;
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
            for (k, &s) in samples.enumerate() {
                let (m, _) = margin_terms(&Sample::of(s), p);
                let el = obs
                    .look_at_ecef(s.position_km, s.velocity_km_s)
                    .elevation_rad;
                assert_eq!(m > 0.0, el > mask, "column {k} mask {mask_deg}");
            }
        }
    }

    /// The interval bound is an upper bound on the true margin: over
    /// every lattice interval of a day, for masks from −10° to 85°, no
    /// probe of direct SGP4 (nor of the interpolant itself, whose hull
    /// the bound maximises over before padding) exceeds it.
    #[test]
    fn interval_bounds_cover_the_true_margin() {
        use crate::frames::teme_to_ecef;
        for (alt_km, incl_deg) in [(400.0, 51.6), (550.0, 97.6)] {
            let sgp4 = leo(alt_km, incl_deg);
            let grid = EphemerisGrid::build(&sgp4, epoch(), epoch() + 1.0);
            let samples: Vec<Sample> = grid
                .runs(0..grid.len())
                .flat_map(|(_, r)| r)
                .copied()
                .map(Sample::of)
                .collect();
            for mask_deg in [-10.0_f64, 0.0, 10.0, 45.0, 70.0, 85.0] {
                let mut sweep = VisibilitySweep::new();
                sweep.push(&hk(), mask_deg.to_radians());
                let p = sweep.params(0);
                let pad = (1.0 + p.sin_mask.abs()) * MAX_POSITION_ERROR_KM;
                let margin_at = |s: &Sample| margin_terms(s, p).0;
                for k in 0..grid.len() - 1 {
                    let (a, b) = (&samples[k], &samples[k + 1]);
                    let (m0, inv_r0) = margin_terms(a, p);
                    let h = grid.sample_time(k + 1).seconds_since(grid.sample_time(k));
                    let bound = interval_bound(a, m0, inv_r0, b, margin_at(b), h, p);
                    for j in 1..16 {
                        let t = grid.sample_time(k).plus_seconds(h * j as f64 / 16.0);
                        let model = grid.sample_at(t).unwrap();
                        let truth = teme_to_ecef(&sgp4.propagate_at(t).unwrap(), t);
                        let truth = Sample {
                            position_km: truth.position_km,
                            ..model
                        };
                        let (g_model, g_true) = (margin_at(&model), margin_at(&truth));
                        assert!(
                            g_model <= bound - pad + 1e-9 && g_true <= bound,
                            "{alt_km} km, mask {mask_deg}°, interval {k}: bound {bound} km, \
                             margin {g_model} km interpolated, {g_true} km true"
                        );
                    }
                }
            }
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
        // Negative masks take the convex bound; high ones make
        // candidates of near-zenith intervals.
        for mask in [-5.0_f64, 60.0, 85.0] {
            sweep.push(&hk(), mask.to_radians());
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
                assert_eq!(x.m_lo.to_bits(), y.m_lo.to_bits());
                assert_eq!(x.m_hi.to_bits(), y.m_hi.to_bits());
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
        // finds must fall inside exactly one Rising/Falling window, or
        // inside the Candidate window of a pass shorter than a step,
        // which holds both of its crossings.
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
                    let kind_ok = match e.kind {
                        SweepEventKind::Rising => rising,
                        SweepEventKind::Falling => !rising,
                        SweepEventKind::Candidate => true,
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

    /// A satellite 1 000 km west of an origin site, flying east, seen
    /// with zenith `+z` and a 0° mask: the margin is its height `z`.
    fn arc(z0: f64, vz0: f64, z1: f64, vz1: f64, az: f64) -> (Sample, Sample) {
        let sample = |x: f64, z: f64, vz: f64| Sample {
            position_km: Vec3::new(x, 0.0, z),
            velocity_km_s: Vec3::new(7.0, 0.0, vz),
            acceleration_km_s2: Vec3::new(0.0, 0.0, az),
        };
        (
            sample(-1_000.0, z0, vz0),
            sample(-1_000.0 + 7.0 * STEP_S, z1, vz1),
        )
    }

    #[test]
    fn interval_bound_rejects_deep_intervals_and_keeps_shallow_peaks() {
        let p = ObsParams {
            site: Vec3::new(0.0, 0.0, 0.0),
            zenith: Vec3::new(0.0, 0.0, 1.0),
            sin_mask: 0.0,
        };
        let bound = |(a, b): (Sample, Sample)| {
            let (m0, inv_r0) = margin_terms(&a, p);
            interval_bound(&a, m0, inv_r0, &b, margin_terms(&b, p).0, STEP_S, p)
        };
        // Deep below, flat: rejected.
        assert!(bound(arc(-500.0, 0.0, -480.0, 0.01, 0.0)) < 0.0);
        // Endpoints 5 km below, climbing then falling at 0.5 km/s under
        // a constant pull: the true arc peaks 17.5 km above.
        let pull = -1.0 / STEP_S;
        assert!(bound(arc(-5.0, 0.5, -5.0, -0.5, pull)) >= 0.0);
        // The same arc from 40 km below peaks 22.5 km under the mask,
        // and the hull proves it.
        assert!(bound(arc(-40.0, 0.5, -40.0, -0.5, pull)) < 0.0);
        // Invalid samples never probe: the bound is NaN.
        let (a, b) = arc(f64::NAN, 0.0, -1.0, 0.0, 0.0);
        assert!(bound((a, b)).is_nan());
    }

    #[test]
    fn nan_samples_read_as_below_the_mask() {
        // Failed-propagation samples store NaN state; the margin
        // arithmetic must propagate it and the detector must read NaN
        // margins as "below" (no spurious events, not above at start),
        // matching how `PassPredictor::elevation_at` reports
        // unanswerable instants (−90°).
        let p = ObsParams {
            site: Vec3::new(0.0, 0.0, 0.0),
            zenith: Vec3::new(1.0, 0.0, 0.0),
            sin_mask: 0.0,
        };
        let s = Sample::NAN;
        let (m, inv_r) = margin_terms(&s, p);
        assert!(m.is_nan() && inv_r.is_nan());
        let mut d = Detector::new();
        d.feed(epoch(), s, (m, inv_r), f64::NAN);
        let t = epoch().plus_seconds(STEP_S);
        let bound = d.bound_to(t, &s, m, p);
        assert!(bound.is_nan());
        d.feed(t, s, (m, inv_r), bound);
        let out = d.into_outcome();
        assert!(!out.above_at_start && out.events.is_empty());
    }
}
