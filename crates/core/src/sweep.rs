//! The shared pass-prediction cache behind every campaign sweep.
//!
//! Pass prediction (SGP4 propagation + crossing refinement over weeks of
//! simulated time) dominates campaign setup, yet the same *(site,
//! satellite, time range, mask)* pass list used to be recomputed from
//! scratch by `PassiveCampaign::run`, again by `theoretical_daily_hours`,
//! and once more per configuration inside every ablation binary. This
//! module memoises them process-wide: the first request for a key
//! computes the list (exactly once, even under concurrent access from
//! the sweep pool), and every later request — a re-run with a different
//! scheduler, a second campaign in the same ablation, a determinism
//! replay — returns the shared `Arc` instantly.
//!
//! Prediction is a pure function of the key (no RNG is involved), so
//! caching cannot perturb campaign determinism: a cached list is
//! bit-identical to a fresh computation.
//!
//! ```
//! use satiot_core::sweep::{passes_for, PassKey};
//! use satiot_orbit::elements::Elements;
//! use satiot_orbit::frames::Geodetic;
//! use satiot_orbit::pass::PassPredictor;
//! use satiot_orbit::time::JulianDate;
//!
//! let epoch = JulianDate::from_calendar(2025, 3, 1, 0, 0, 0.0);
//! let site = Geodetic::from_degrees(22.32, 114.17, 0.05);
//! let key = PassKey::new("HK", "DOC", 1, epoch, epoch + 1.0, 0.0);
//! let make = || {
//!     let sgp4 = Elements::circular(550.0, 97.6, epoch).to_sgp4().unwrap();
//!     Some(PassPredictor::new(sgp4, site, 0.0))
//! };
//! let first = passes_for(key, make);
//! let again = passes_for(key, make); // Served from the cache.
//! assert!(std::sync::Arc::ptr_eq(&first, &again));
//! ```

use satiot_obs::metrics::{Counter, Gauge};
use satiot_orbit::cull::{self, CullingMode};
use satiot_orbit::ephemeris::{EphemerisGrid, EphemerisMode};
use satiot_orbit::frames::{Geodetic, StateEcef};
use satiot_orbit::pass::{Pass, PassPredictor};
use satiot_orbit::sgp4::Sgp4;
use satiot_orbit::time::JulianDate;
use satiot_orbit::visibility::VisibilityMode;
use std::collections::HashMap;
use std::hash::Hash;
use std::mem::size_of;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Cache lookups served without predicting (metrics).
static CACHE_HITS: Counter = Counter::new("core.sweep.pass_cache_hits");
/// Cache lookups that triggered a prediction (metrics).
static CACHE_MISSES: Counter = Counter::new("core.sweep.pass_cache_misses");
/// Distinct pass lists currently cached (metrics).
static CACHE_ENTRIES: Gauge = Gauge::new("core.sweep.pass_cache_entries");
/// Pass lists evicted by budget enforcement (metrics).
static CACHE_EVICTED: Counter = Counter::new("core.sweep.pass_cache_evictions");
/// Grid-store lookups served without building (metrics).
static GRID_HITS: Counter = Counter::new("core.sweep.grid_hits");
/// Grid-store lookups that built a grid (metrics).
static GRID_MISSES: Counter = Counter::new("core.sweep.grid_misses");
/// Distinct ephemeris grids currently stored (metrics).
static GRID_ENTRIES: Gauge = Gauge::new("core.sweep.grid_entries");
/// Grids evicted by budget enforcement (metrics).
static GRID_EVICTED: Counter = Counter::new("core.sweep.grid_evictions");

// The proof-of-work counters behind [`stats`] are plain atomics rather
// than obs counters so they report even when `SATIOT_METRICS` is off
// (the `cache_exactly_once` test and `reproduce_all` assert on them).
static LOOKUPS: AtomicU64 = AtomicU64::new(0);
static COMPUTES: AtomicU64 = AtomicU64::new(0);
static PASS_EVICTIONS: AtomicU64 = AtomicU64::new(0);
static GRID_LOOKUPS: AtomicU64 = AtomicU64::new(0);
static GRID_COMPUTES: AtomicU64 = AtomicU64::new(0);
static GRID_EVICTIONS: AtomicU64 = AtomicU64::new(0);

/// Monotone LRU clock shared by both stores, so one cross-store
/// eviction pass can order pass lists and grids on a single recency
/// axis. Ticks only ever move forward; wraparound is unreachable
/// (2⁶⁴ lookups).
static CLOCK: AtomicU64 = AtomicU64::new(0);

/// Identity of one cached pass list.
///
/// Two predictions may share a list only when *everything* that feeds
/// the predictor matches: the site (by code), the satellite (by
/// constellation + id), the scan range, and the elevation mask. The
/// `f64` range/mask fields are keyed by their exact bit patterns, so
/// even sub-ulp differences key separately — correctness over hit rate.
///
/// The key names a site and a constellation by label, so a label must
/// name one definition per process: one position per site code, one
/// shell layout per constellation label. `ScenarioSpec::build` enforces
/// this for inline definitions, rejecting a catalog label or a label
/// already bound to another definition. Code that builds a `Site` or
/// `ConstellationSpec` by hand must keep the same rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PassKey {
    /// Site code (`"HK"`, a ground-station name, `"YUNNAN_FARM"`, …).
    pub site: &'static str,
    /// Constellation label.
    pub constellation: &'static str,
    /// Satellite id within the constellation.
    pub sat_id: u32,
    /// Scan start (`JulianDate` bits).
    pub start_bits: u64,
    /// Scan end (`JulianDate` bits).
    pub end_bits: u64,
    /// Elevation mask in radians (bits).
    pub mask_bits: u64,
}

impl PassKey {
    /// Build a key from the predictor's natural inputs.
    ///
    /// Names are `&'static str` so the key stays `Copy`: catalog
    /// literals, or names a resolved scenario interned through
    /// `satiot_scenarios::walker::intern_name`.
    pub fn new(
        site: &'static str,
        constellation: &'static str,
        sat_id: u32,
        start: JulianDate,
        end: JulianDate,
        mask_rad: f64,
    ) -> PassKey {
        PassKey {
            site,
            constellation,
            sat_id,
            start_bits: start.0.to_bits(),
            end_bits: end.0.to_bits(),
            mask_bits: mask_rad.to_bits(),
        }
    }

    /// The scan range encoded in the key.
    pub fn range(&self) -> (JulianDate, JulianDate) {
        (
            JulianDate(f64::from_bits(self.start_bits)),
            JulianDate(f64::from_bits(self.end_bits)),
        )
    }
}

/// One memoisation slot: the exactly-once cell plus the recency stamp
/// budget enforcement orders evictions by.
#[derive(Debug)]
struct Slot<T> {
    cell: OnceLock<Arc<T>>,
    /// [`CLOCK`] tick of the most recent lookup.
    last_used: AtomicU64,
}

impl<T> Default for Slot<T> {
    fn default() -> Slot<T> {
        Slot {
            cell: OnceLock::new(),
            last_used: AtomicU64::new(0),
        }
    }
}

/// A keyed exactly-once memoisation store — the shared implementation
/// behind the pass cache and the grid store. Generic so the eviction
/// machinery (and its tests) can run on private instances without
/// perturbing the process-wide caches every campaign test shares.
#[derive(Debug)]
struct Store<K, T> {
    map: Mutex<HashMap<K, Arc<Slot<T>>>>,
}

impl<K: Copy + Eq + Hash, T> Store<K, T> {
    fn new() -> Store<K, T> {
        Store {
            map: Mutex::new(HashMap::new()),
        }
    }

    fn lock(&self) -> MutexGuard<'_, HashMap<K, Arc<Slot<T>>>> {
        self.map.lock().expect("sweep store poisoned")
    }

    /// Resolve the slot for `key` (inserting an empty one if absent),
    /// stamp its recency tick, and run `make` if the cell is empty.
    /// Returns `(payload, computed_here, map_len)`. The map lock is
    /// held only to resolve the slot; the computation runs outside it,
    /// so distinct keys compute in parallel while racing lookups of the
    /// same key block on one computation (`OnceLock` exactly-once).
    fn get_or_compute<F: FnOnce() -> T>(&self, key: K, make: F) -> (Arc<T>, bool, usize) {
        let (slot, len) = {
            let mut map = self.lock();
            let slot = Arc::clone(map.entry(key).or_default());
            (slot, map.len())
        };
        slot.last_used
            .store(CLOCK.fetch_add(1, Relaxed) + 1, Relaxed);
        let mut computed = false;
        let value = slot
            .cell
            .get_or_init(|| {
                computed = true;
                Arc::new(make())
            })
            .clone();
        (value, computed, len)
    }

    fn len(&self) -> usize {
        self.lock().len()
    }

    fn clear(&self) {
        self.lock().clear();
    }

    /// Sum of `payload_bytes` over every *computed* slot. Slots whose
    /// computation is still in flight are counted as zero — their cost
    /// is attributed once the cell fills.
    fn approx_bytes(&self, payload_bytes: impl Fn(&T) -> u64) -> u64 {
        self.lock()
            .values()
            .filter_map(|s| s.cell.get())
            .map(|v| payload_bytes(v))
            .sum()
    }
}

fn cache() -> &'static Store<PassKey, Vec<Pass>> {
    static CACHE: OnceLock<Store<PassKey, Vec<Pass>>> = OnceLock::new();
    CACHE.get_or_init(Store::new)
}

/// Approximate heap payload of one cached pass list.
fn pass_list_bytes(list: &[Pass]) -> u64 {
    (std::mem::size_of_val(list) + size_of::<Vec<Pass>>()) as u64
}

/// Approximate heap payload of one stored ephemeris grid (the sample
/// lattice dominates; struct headers are noise).
fn grid_payload_bytes(grid: &EphemerisGrid) -> u64 {
    (grid.len() * size_of::<StateEcef>() + size_of::<EphemerisGrid>()) as u64
}

/// The pass list for `key`, predicting it with `make_predictor` on the
/// first request and serving the shared list afterwards.
///
/// `make_predictor` returning `None` means the pair was proven empty
/// without prediction (the spatial pre-cull, see [`satiot_orbit::cull`])
/// and caches an empty list — bit-identical to what the predictor would
/// have returned, because the cull is conservative.
///
/// The map lock is held only to resolve the entry slot; the prediction
/// itself runs outside it, so concurrent lookups of *different* keys
/// predict in parallel while concurrent lookups of the *same* key block
/// on one computation (`OnceLock` guarantees exactly-once).
pub fn passes_for<F>(key: PassKey, make_predictor: F) -> Arc<Vec<Pass>>
where
    F: FnOnce() -> Option<PassPredictor>,
{
    LOOKUPS.fetch_add(1, Relaxed);
    let (passes, computed, len) = cache().get_or_compute(key, || {
        COMPUTES.fetch_add(1, Relaxed);
        CACHE_MISSES.inc();
        let (start, end) = key.range();
        match make_predictor() {
            Some(predictor) => predictor.passes(start, end),
            None => Vec::new(),
        }
    });
    CACHE_ENTRIES.set(len as i64);
    if !computed {
        CACHE_HITS.inc();
    }
    passes
}

/// A snapshot of the cache's proof-of-work counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Total [`passes_for`] calls.
    pub lookups: u64,
    /// Lookups that ran a prediction. Each compute fills one slot and
    /// each eviction empties one, so at rest `computes == entries +
    /// evictions`: every pass list was predicted exactly once per
    /// residency. In a process that never enforces a budget (the
    /// default) nothing is evicted, and `computes == entries` proves
    /// every cached pass list was predicted exactly once this process.
    pub computes: u64,
    /// Distinct keys currently cached.
    pub entries: usize,
    /// Approximate payload bytes currently held (pass structs only;
    /// map/slot overhead excluded).
    pub approx_bytes: u64,
    /// Pass lists evicted by [`enforce_cache_budget`] this process.
    pub evictions: u64,
}

impl CacheStats {
    /// Lookups served without predicting.
    pub fn hits(&self) -> u64 {
        self.lookups - self.computes
    }
}

/// Read the cache counters.
pub fn stats() -> CacheStats {
    CacheStats {
        lookups: LOOKUPS.load(Relaxed),
        computes: COMPUTES.load(Relaxed),
        entries: cache().len(),
        approx_bytes: cache().approx_bytes(|l| pass_list_bytes(l)),
        evictions: PASS_EVICTIONS.load(Relaxed),
    }
}

/// Drop every cached pass list *and* every stored ephemeris grid, and
/// zero both sets of counters (benches measuring cold-cache sweeps;
/// long-lived processes rotating TLE epochs).
pub fn clear() {
    cache().clear();
    CACHE_ENTRIES.set(0);
    LOOKUPS.store(0, Relaxed);
    COMPUTES.store(0, Relaxed);
    PASS_EVICTIONS.store(0, Relaxed);
    grid_store().clear();
    GRID_ENTRIES.set(0);
    GRID_LOOKUPS.store(0, Relaxed);
    GRID_COMPUTES.store(0, Relaxed);
    GRID_EVICTIONS.store(0, Relaxed);
}

/// What one [`enforce_cache_budget`] pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvictionSweep {
    /// Pass lists dropped from the cache.
    pub pass_lists_evicted: usize,
    /// Ephemeris grids dropped from the store.
    pub grids_evicted: usize,
    /// Approximate payload bytes freed.
    pub bytes_freed: u64,
    /// Approximate payload bytes still held after the pass.
    pub bytes_retained: u64,
}

/// Evict least-recently-used entries across *both* stores — pass lists
/// and grids ranked on one shared recency axis — until their combined
/// approximate payload fits `budget_bytes`.
///
/// Lookups themselves never evict — the hot path stays lock-light, and
/// a process that never calls this keeps exactly-once memoisation
/// (`computes == entries`). Long-lived drivers call it at their job
/// boundaries (the sweep server does so after every job when its
/// options set a budget), so a sweep over disjoint windows is bounded
/// by the budget instead of growing with the number of distinct
/// windows.
pub fn enforce_cache_budget(budget_bytes: u64) -> EvictionSweep {
    let sweep = enforce_on(cache(), grid_store(), budget_bytes);
    if sweep.pass_lists_evicted > 0 {
        PASS_EVICTIONS.fetch_add(sweep.pass_lists_evicted as u64, Relaxed);
        CACHE_EVICTED.add(sweep.pass_lists_evicted as u64);
        CACHE_ENTRIES.set(cache().len() as i64);
    }
    if sweep.grids_evicted > 0 {
        GRID_EVICTIONS.fetch_add(sweep.grids_evicted as u64, Relaxed);
        GRID_EVICTED.add(sweep.grids_evicted as u64);
        GRID_ENTRIES.set(grid_store().len() as i64);
    }
    sweep
}

/// The eviction pass itself, on explicit stores (unit-testable without
/// touching the process-wide caches). Holds both map locks for the
/// whole pass so a concurrent lookup cannot resurrect a key
/// mid-eviction; lookups only ever take one lock briefly and never
/// nest, so the fixed pass→grid acquisition order cannot deadlock.
fn enforce_on(
    passes: &Store<PassKey, Vec<Pass>>,
    grids: &Store<GridKey, EphemerisGrid>,
    budget_bytes: u64,
) -> EvictionSweep {
    enum Victim {
        Pass(PassKey),
        Grid(GridKey),
    }
    let mut pass_map = passes.lock();
    let mut grid_map = grids.lock();
    let mut candidates: Vec<(u64, u64, Victim)> = Vec::new();
    let mut retained: u64 = 0;
    for (k, slot) in pass_map.iter() {
        if let Some(list) = slot.cell.get() {
            let bytes = pass_list_bytes(list);
            retained += bytes;
            candidates.push((slot.last_used.load(Relaxed), bytes, Victim::Pass(*k)));
        }
    }
    for (k, slot) in grid_map.iter() {
        if let Some(grid) = slot.cell.get() {
            let bytes = grid_payload_bytes(grid);
            retained += bytes;
            candidates.push((slot.last_used.load(Relaxed), bytes, Victim::Grid(*k)));
        }
    }
    let mut sweep = EvictionSweep {
        bytes_retained: retained,
        ..EvictionSweep::default()
    };
    if retained <= budget_bytes {
        return sweep;
    }
    // Oldest tick first; ticks are unique (one global fetch_add per
    // lookup), so the order is deterministic.
    candidates.sort_by_key(|(tick, _, _)| *tick);
    for (_, bytes, victim) in candidates {
        if sweep.bytes_retained <= budget_bytes {
            break;
        }
        match victim {
            Victim::Pass(k) => {
                pass_map.remove(&k);
                sweep.pass_lists_evicted += 1;
            }
            Victim::Grid(k) => {
                grid_map.remove(&k);
                sweep.grids_evicted += 1;
            }
        }
        sweep.bytes_freed += bytes;
        sweep.bytes_retained -= bytes;
    }
    sweep
}

/// Identity of one shared ephemeris grid.
///
/// Unlike [`PassKey`], the site and elevation mask are deliberately
/// *absent*: a grid samples the satellite's ECEF trajectory, which does
/// not depend on who is watching. Every observer — eight measurement
/// sites, twelve ground stations, any mask — over the same `(satellite,
/// window)` shares one grid, and that sharing is the whole point of the
/// store. As in [`PassKey`], the constellation label must name one shell
/// layout per process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GridKey {
    /// Constellation label.
    pub constellation: &'static str,
    /// Satellite id within the constellation.
    pub sat_id: u32,
    /// Scan start (`JulianDate` bits).
    pub start_bits: u64,
    /// Scan end (`JulianDate` bits).
    pub end_bits: u64,
}

impl GridKey {
    /// Build a key from the scan window's natural inputs (the name as
    /// in [`PassKey::new`]).
    pub fn new(
        constellation: &'static str,
        sat_id: u32,
        start: JulianDate,
        end: JulianDate,
    ) -> GridKey {
        GridKey {
            constellation,
            sat_id,
            start_bits: start.0.to_bits(),
            end_bits: end.0.to_bits(),
        }
    }

    /// The scan window encoded in the key.
    pub fn range(&self) -> (JulianDate, JulianDate) {
        (
            JulianDate(f64::from_bits(self.start_bits)),
            JulianDate(f64::from_bits(self.end_bits)),
        )
    }
}

fn grid_store() -> &'static Store<GridKey, EphemerisGrid> {
    static GRIDS: OnceLock<Store<GridKey, EphemerisGrid>> = OnceLock::new();
    GRIDS.get_or_init(Store::new)
}

/// The ephemeris grid for `key`, building it with `build` on the first
/// request and serving the shared grid afterwards.
///
/// Mirrors [`passes_for`]: the map lock is held only to resolve the
/// entry slot, the build runs outside it, and `OnceLock` guarantees the
/// expensive SGP4 sampling sweep happens exactly once per key even under
/// concurrent access from the sweep pool.
pub fn grid_for<F>(key: GridKey, build: F) -> Arc<EphemerisGrid>
where
    F: FnOnce() -> EphemerisGrid,
{
    GRID_LOOKUPS.fetch_add(1, Relaxed);
    let (grid, computed, len) = grid_store().get_or_compute(key, || {
        GRID_COMPUTES.fetch_add(1, Relaxed);
        GRID_MISSES.inc();
        build()
    });
    GRID_ENTRIES.set(len as i64);
    if !computed {
        GRID_HITS.inc();
    }
    grid
}

/// A snapshot of the grid store's proof-of-work counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridStats {
    /// Total [`grid_for`] calls.
    pub lookups: u64,
    /// Lookups that built a grid. As for [`CacheStats::computes`], at
    /// rest `computes == entries + evictions`, and with no budget
    /// enforced `computes == entries` proves every stored grid was
    /// sampled exactly once this process.
    pub computes: u64,
    /// Distinct grids currently stored.
    pub entries: usize,
    /// Approximate payload bytes currently held (sample lattices).
    pub approx_bytes: u64,
    /// Grids evicted by [`enforce_cache_budget`] this process.
    pub evictions: u64,
}

impl GridStats {
    /// Lookups served without building.
    pub fn hits(&self) -> u64 {
        self.lookups - self.computes
    }
}

/// Read the grid-store counters.
pub fn grid_stats() -> GridStats {
    GridStats {
        lookups: GRID_LOOKUPS.load(Relaxed),
        computes: GRID_COMPUTES.load(Relaxed),
        entries: grid_store().len(),
        approx_bytes: grid_store().approx_bytes(grid_payload_bytes),
        evictions: GRID_EVICTIONS.load(Relaxed),
    }
}

/// Build the pass predictor every campaign predict phase uses for one
/// `(satellite, site, window)` triple, the window being `key`'s range.
///
/// The pair first runs the conservative spatial pre-cull (see
/// [`satiot_orbit::cull`]): the latitude-band test needs no propagation
/// at all, so it runs before [`gridded_predictor`] fetches the shared
/// [`EphemerisGrid`]; the footprint-cone test then scans only that
/// grid's raw samples. A culled pair returns `None` — its pass list
/// over the window is provably empty — and the always-on `orbit.cull.*`
/// proof counters record every decision, once per call. A kept pair
/// gets the gridded predictor, whose margin sweep reads the covering
/// grid.
pub fn predictor(
    key: GridKey,
    sgp4: &Sgp4,
    site: Geodetic,
    mask_rad: f64,
) -> Option<PassPredictor> {
    cull::record_considered();
    if cull::never_in_latitude_band(
        site,
        sgp4.inclination_rad(),
        sgp4.apogee_radius_km(),
        mask_rad,
    ) {
        cull::record_lat_band_cull();
        return None;
    }
    let predictor = gridded_predictor(key, sgp4, site, mask_rad);
    let grid = predictor
        .ephemeris()
        .expect("a gridded predictor carries its grid");
    let (start, end) = key.range();
    if cull::cone_clears_grid(grid, site, mask_rad, start, end) {
        cull::record_cone_cull();
        return None;
    }
    cull::record_kept();
    Some(predictor)
}

/// The predictor for one `(satellite, site, window)` triple over the
/// shared [`EphemerisGrid`] for `key` (from [`grid_for`], built on
/// first use), without the cull. The simulate phases sample geometry
/// through it, for the satellites whose cached pass lists are not
/// empty, so they share the predict phase's grid `Arc`s without
/// consulting the cull a second time.
pub fn gridded_predictor(
    key: GridKey,
    sgp4: &Sgp4,
    site: Geodetic,
    mask_rad: f64,
) -> PassPredictor {
    let (start, end) = key.range();
    let grid = grid_for(key, || EphemerisGrid::build(sgp4, start, end));
    PassPredictor::new(sgp4.clone(), site, mask_rad).with_ephemeris(grid)
}

/// [`predictor`], spelled with the one-variant mode enums. It exists
/// only because the benchmark worker under `perfbench/` calls it; it
/// goes when the benchmark is next rebased.
#[doc(hidden)]
pub fn predictor_with_mode(
    _ephemeris: EphemerisMode,
    _visibility: VisibilityMode,
    _culling: CullingMode,
    key: GridKey,
    sgp4: &Sgp4,
    site: Geodetic,
    mask_rad: f64,
) -> Option<PassPredictor> {
    predictor(key, sgp4, site, mask_rad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use satiot_orbit::elements::Elements;
    use satiot_orbit::frames::Geodetic;
    use std::sync::atomic::AtomicUsize;

    fn epoch() -> JulianDate {
        JulianDate::from_calendar(2025, 3, 1, 0, 0, 0.0)
    }

    fn make_predictor() -> PassPredictor {
        let sgp4 = Elements::circular(550.0, 97.6, epoch()).to_sgp4().unwrap();
        PassPredictor::new(sgp4, Geodetic::from_degrees(22.32, 114.17, 0.05), 0.0)
    }

    // Keys below use test-only site codes, so they cannot collide with
    // the campaign tests that share this process's global cache.

    #[test]
    fn second_lookup_shares_the_first_list() {
        let key = PassKey::new("TEST_SHARE", "T", 0, epoch(), epoch() + 1.0, 0.0);
        let built = AtomicUsize::new(0);
        let make = || {
            built.fetch_add(1, Relaxed);
            Some(make_predictor())
        };
        let a = passes_for(key, make);
        let b = passes_for(key, make);
        assert_eq!(built.load(Relaxed), 1, "predictor built twice");
        assert!(Arc::ptr_eq(&a, &b));
        assert!(!a.is_empty());
        // The cached list matches a fresh prediction bit-for-bit.
        let fresh = make_predictor().passes(epoch(), epoch() + 1.0);
        assert_eq!(*a, fresh);
    }

    #[test]
    fn distinct_keys_do_not_collide() {
        let k1 = PassKey::new("TEST_DISTINCT", "T", 0, epoch(), epoch() + 1.0, 0.0);
        let k2 = PassKey::new("TEST_DISTINCT", "T", 0, epoch(), epoch() + 2.0, 0.0);
        let k3 = PassKey::new("TEST_DISTINCT", "T", 1, epoch(), epoch() + 1.0, 0.0);
        let a = passes_for(k1, || Some(make_predictor()));
        let b = passes_for(k2, || Some(make_predictor()));
        let c = passes_for(k3, || Some(make_predictor()));
        assert!(!Arc::ptr_eq(&a, &b));
        assert!(!Arc::ptr_eq(&a, &c));
        assert!(b.len() >= a.len(), "wider range lost passes");
    }

    #[test]
    fn grid_store_builds_exactly_once_per_key() {
        let key = GridKey::new("TEST_GRID_ONCE", 0, epoch(), epoch() + 1.0);
        let built = AtomicUsize::new(0);
        let sgp4 = Elements::circular(550.0, 97.6, epoch()).to_sgp4().unwrap();
        let build = || {
            built.fetch_add(1, Relaxed);
            EphemerisGrid::build(&sgp4, epoch(), epoch() + 1.0)
        };
        let grids: Vec<Arc<EphemerisGrid>> =
            satiot_sim::pool::parallel_map_with(&[(); 16], 8, |_, _| grid_for(key, build));
        assert_eq!(built.load(Relaxed), 1, "racing lookups built twice");
        for g in &grids {
            assert!(Arc::ptr_eq(&grids[0], g));
        }
        assert!(!grids[0].is_empty());
    }

    #[test]
    fn predictor_modes_share_grids_and_match_direct() {
        let start = epoch();
        let end = epoch() + 1.0;
        let sgp4 = Elements::circular(550.0, 97.6, epoch()).to_sgp4().unwrap();
        let site_a = Geodetic::from_degrees(22.32, 114.17, 0.05);
        let site_b = Geodetic::from_degrees(23.13, 113.26, 0.02);
        let key = GridKey::new("TEST_MODES", 0, start, end);

        // Two observers over the same window share one grid Arc. The
        // gridded predictors run the margin-sweep scan, so this also
        // pins sweep-vs-reference agreement end to end.
        let on_a = predictor(key, &sgp4, site_a, 0.0).expect("a visible pair is kept");
        let on_b = predictor(key, &sgp4, site_b, 0.0).expect("a visible pair is kept");
        let (ga, gb) = (on_a.ephemeris().unwrap(), on_b.ephemeris().unwrap());
        assert!(Arc::ptr_eq(ga, gb), "same window built two grids");
        assert!(ga.validate(&sgp4, 256).within_contract());

        // Grid-backed pass lists agree with the direct-SGP4 reference
        // scan (1 s floor) within the documented contract; pass counts
        // must match exactly.
        let direct =
            PassPredictor::new(sgp4.clone(), site_a, 0.0).reference_passes(start, end, 1.0);
        let gridded = on_a.passes(start, end);
        assert_eq!(direct.len(), gridded.len());
        for (d, g) in direct.iter().zip(&gridded) {
            assert!((d.aos.seconds_since(g.aos)).abs() < 0.1);
            assert!((d.los.seconds_since(g.los)).abs() < 0.1);
            assert!((d.max_elevation_rad - g.max_elevation_rad).abs() < 0.01_f64.to_radians());
        }
    }

    #[test]
    fn eviction_pass_respects_budget_and_lru_order() {
        // Private stores: the process-wide caches are shared by every
        // campaign test in this binary, so evicting from them here
        // would race their exactly-once assertions.
        let passes: Store<PassKey, Vec<Pass>> = Store::new();
        let grids: Store<GridKey, EphemerisGrid> = Store::new();
        let base = make_predictor().passes(epoch(), epoch() + 1.0);
        assert!(!base.is_empty());
        let list = |n: usize| -> Vec<Pass> { base.iter().cycle().take(n).cloned().collect() };

        let k1 = PassKey::new("TEST_EVICT", "T", 1, epoch(), epoch() + 1.0, 0.0);
        let k2 = PassKey::new("TEST_EVICT", "T", 2, epoch(), epoch() + 1.0, 0.0);
        let k3 = PassKey::new("TEST_EVICT", "T", 3, epoch(), epoch() + 1.0, 0.0);
        let gk = GridKey::new("TEST_EVICT", 1, epoch(), epoch() + 0.2);
        let sgp4 = Elements::circular(550.0, 97.6, epoch()).to_sgp4().unwrap();

        passes.get_or_compute(k1, || list(40));
        passes.get_or_compute(k2, || list(20));
        passes.get_or_compute(k3, || list(10));
        grids.get_or_compute(gk, || EphemerisGrid::build(&sgp4, epoch(), epoch() + 0.2));
        // Touch k1 again: k2 becomes the least recently used entry.
        let (_, recomputed, _) = passes.get_or_compute(k1, || unreachable!("k1 evicted early"));
        assert!(!recomputed);

        let pass_bytes = passes.approx_bytes(|l| pass_list_bytes(l));
        let grid_bytes = grids.approx_bytes(grid_payload_bytes);
        let total = pass_bytes + grid_bytes;
        assert!(pass_bytes > 0 && grid_bytes > 0);

        // Over budget by one byte: exactly the LRU entry (k2) must go.
        let sweep = enforce_on(&passes, &grids, total - 1);
        assert_eq!(sweep.pass_lists_evicted, 1);
        assert_eq!(sweep.grids_evicted, 0);
        assert_eq!(sweep.bytes_freed, pass_list_bytes(&list(20)));
        assert_eq!(sweep.bytes_freed + sweep.bytes_retained, total);
        assert!(sweep.bytes_retained < total);
        let (_, k2_recomputed, _) = passes.get_or_compute(k2, || list(20));
        let (_, k3_recomputed, _) = passes.get_or_compute(k3, || unreachable!("k3 evicted"));
        assert!(k2_recomputed, "the LRU entry survived the sweep");
        assert!(!k3_recomputed);

        // Budget zero drains both stores completely.
        let sweep = enforce_on(&passes, &grids, 0);
        assert_eq!(sweep.bytes_retained, 0);
        assert_eq!(sweep.grids_evicted, 1);
        assert_eq!(passes.len(), 0);
        assert_eq!(grids.len(), 0);

        // Under budget: a pass is a pure measurement, nothing moves.
        passes.get_or_compute(k1, || list(5));
        let sweep = enforce_on(&passes, &grids, u64::MAX - 1);
        assert_eq!(sweep.pass_lists_evicted, 0);
        assert_eq!(sweep.bytes_retained, pass_list_bytes(&list(5)));
    }

    #[test]
    fn concurrent_same_key_computes_exactly_once() {
        let key = PassKey::new("TEST_CONCURRENT", "T", 0, epoch(), epoch() + 1.0, 0.0);
        let built = AtomicUsize::new(0);
        let lists: Vec<Arc<Vec<Pass>>> =
            satiot_sim::pool::parallel_map_with(&[(); 16], 8, |_, _| {
                passes_for(key, || {
                    built.fetch_add(1, Relaxed);
                    Some(make_predictor())
                })
            });
        assert_eq!(built.load(Relaxed), 1, "racing lookups predicted twice");
        for l in &lists {
            assert!(Arc::ptr_eq(&lists[0], l));
        }
    }
}
