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
use satiot_orbit::ephemeris::{EphemerisGrid, EphemerisMode, EphemerisTile, TILE};
use satiot_orbit::frames::Geodetic;
use satiot_orbit::pass::{Pass, PassPredictor};
use satiot_orbit::sgp4::Sgp4;
use satiot_orbit::time::JulianDate;
use satiot_orbit::visibility::VisibilityMode;
use std::collections::HashMap;
use std::hash::Hash;
use std::mem::size_of;
use std::ops::Range;
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
/// Tile requests served without sampling (metrics).
static TILE_HITS: Counter = Counter::new("core.sweep.tile_hits");
/// Tile requests that sampled a tile (metrics).
static TILE_MISSES: Counter = Counter::new("core.sweep.tile_misses");
/// Distinct ephemeris tiles currently stored (metrics).
static TILE_ENTRIES: Gauge = Gauge::new("core.sweep.tile_entries");
/// Tiles evicted by budget enforcement (metrics).
static TILE_EVICTED: Counter = Counter::new("core.sweep.tile_evictions");

// The proof-of-work counters behind [`stats`] are plain atomics rather
// than obs counters so they report even when `SATIOT_METRICS` is off
// (the `cache_exactly_once` test and `reproduce_all` assert on them).
static LOOKUPS: AtomicU64 = AtomicU64::new(0);
static COMPUTES: AtomicU64 = AtomicU64::new(0);
static PASS_EVICTIONS: AtomicU64 = AtomicU64::new(0);
static GRID_LOOKUPS: AtomicU64 = AtomicU64::new(0);
static GRID_COMPUTES: AtomicU64 = AtomicU64::new(0);
static GRID_EVICTIONS: AtomicU64 = AtomicU64::new(0);
static TILE_LOOKUPS: AtomicU64 = AtomicU64::new(0);
static TILE_COMPUTES: AtomicU64 = AtomicU64::new(0);
static TILE_EVICTIONS: AtomicU64 = AtomicU64::new(0);

/// Monotone LRU clock shared by the stores, so one cross-store
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
/// behind the pass cache, the grid store and the tile store. Generic so
/// the eviction machinery (and its tests) can run on private instances
/// without perturbing the process-wide caches every campaign test
/// shares.
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
    /// Returns `(payload, computed_here, map_len)`.
    fn get_or_compute<F: FnOnce() -> T>(&self, key: K, make: F) -> (Arc<T>, bool, usize) {
        let mut make = Some(make);
        let (mut values, computed, len) = self.get_or_compute_all(std::iter::once(key), |_| {
            make.take().expect("one key computes at most once")()
        });
        let value = values.pop().expect("one key resolves one slot");
        (value, computed == 1, len)
    }

    /// [`Self::get_or_compute`] over many keys: resolve every slot
    /// (inserting empty ones) under one map lock and stamp them with one
    /// recency tick, then fill each empty cell with `make(key)`, in key
    /// order. Returns `(payloads, computed_here, map_len)`. The map lock
    /// is held only to resolve the slots; the computations run outside
    /// it, so distinct keys compute in parallel while racing lookups of
    /// the same key block on one computation (`OnceLock` exactly-once).
    fn get_or_compute_all<F: FnMut(K) -> T>(
        &self,
        keys: impl Iterator<Item = K> + Clone,
        mut make: F,
    ) -> (Vec<Arc<T>>, usize, usize) {
        let (slots, len) = {
            let mut map = self.lock();
            let slots: Vec<Arc<Slot<T>>> = keys
                .clone()
                .map(|key| Arc::clone(map.entry(key).or_default()))
                .collect();
            (slots, map.len())
        };
        let tick = CLOCK.fetch_add(1, Relaxed) + 1;
        let mut computed = 0;
        let values = keys
            .zip(slots)
            .map(|(key, slot)| {
                slot.last_used.store(tick, Relaxed);
                slot.cell
                    .get_or_init(|| {
                        computed += 1;
                        Arc::new(make(key))
                    })
                    .clone()
            })
            .collect();
        (values, computed, len)
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

/// Approximate heap payload of one stored grid view: its struct and
/// its array of tile pointers. The samples live in the tiles, which
/// [`TILE_BYTES`] counts once each, however many views share them.
fn view_bytes(grid: &EphemerisGrid) -> u64 {
    (size_of::<EphemerisGrid>() + std::mem::size_of_val(grid.tiles())) as u64
}

/// Heap payload of one stored ephemeris tile ([`TILE`] samples and
/// their aggregates).
const TILE_BYTES: u64 = size_of::<EphemerisTile>() as u64;

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

/// Drop every cached pass list, stored ephemeris grid and stored tile,
/// and zero all three sets of counters (benches measuring cold-cache
/// sweeps; long-lived processes rotating TLE epochs).
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
    tile_store().clear();
    TILE_ENTRIES.set(0);
    TILE_LOOKUPS.store(0, Relaxed);
    TILE_COMPUTES.store(0, Relaxed);
    TILE_EVICTIONS.store(0, Relaxed);
}

/// What one [`enforce_cache_budget`] pass did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvictionSweep {
    /// Pass lists dropped from the cache.
    pub pass_lists_evicted: usize,
    /// Ephemeris grids dropped from the store.
    pub grids_evicted: usize,
    /// Ephemeris tiles dropped from the store, once no view held them.
    pub tiles_evicted: usize,
    /// Approximate payload bytes freed.
    pub bytes_freed: u64,
    /// Approximate payload bytes still held after the pass.
    pub bytes_retained: u64,
}

/// Evict least-recently-used entries — pass lists and grid views ranked
/// on one shared recency axis — until the combined approximate payload
/// of all three stores fits `budget_bytes`. A tile goes only once no
/// view holds it any more: first every such orphan, then each tile
/// whose last holder an evicted view was.
///
/// Lookups themselves never evict — the hot path stays lock-light, and
/// a process that never calls this keeps exactly-once memoisation
/// (`computes == entries`). Long-lived drivers call it at their job
/// boundaries (the sweep server does so after every job when its
/// options set a budget), so a sweep over disjoint windows is bounded
/// by the budget instead of growing with the number of distinct
/// windows.
pub fn enforce_cache_budget(budget_bytes: u64) -> EvictionSweep {
    let sweep = enforce_on(cache(), grid_store(), tile_store(), budget_bytes);
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
    if sweep.tiles_evicted > 0 {
        TILE_EVICTIONS.fetch_add(sweep.tiles_evicted as u64, Relaxed);
        TILE_EVICTED.add(sweep.tiles_evicted as u64);
        TILE_ENTRIES.set(tile_store().len() as i64);
    }
    sweep
}

/// The eviction pass itself, on explicit stores (unit-testable without
/// touching the process-wide caches). Holds all three map locks for the
/// whole pass so a concurrent lookup cannot resurrect a key
/// mid-eviction; lookups only ever take one lock briefly and never
/// nest, so the fixed pass→grid→tile acquisition order cannot deadlock.
fn enforce_on(
    passes: &Store<PassKey, Vec<Pass>>,
    grids: &Store<GridKey, EphemerisGrid>,
    tiles: &Store<TileKey, EphemerisTile>,
    budget_bytes: u64,
) -> EvictionSweep {
    enum Victim {
        Pass(PassKey),
        Grid(GridKey, Range<i64>),
    }
    let mut pass_map = passes.lock();
    let mut grid_map = grids.lock();
    let mut tile_map = tiles.lock();
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
            let bytes = view_bytes(grid);
            retained += bytes;
            let tiles = grid.tiles();
            let indices = tiles
                .first()
                .map_or(0..0, |t| t.index()..t.index() + tiles.len() as i64);
            candidates.push((
                slot.last_used.load(Relaxed),
                bytes,
                Victim::Grid(*k, indices),
            ));
        }
    }
    retained += tile_map.values().filter(|s| s.cell.get().is_some()).count() as u64 * TILE_BYTES;
    let mut sweep = EvictionSweep {
        bytes_retained: retained,
        ..EvictionSweep::default()
    };
    if retained <= budget_bytes {
        return sweep;
    }
    let orphans: Vec<TileKey> = tile_map
        .iter()
        .filter(|(_, slot)| unheld(slot))
        .map(|(k, _)| *k)
        .collect();
    for key in orphans {
        drop_if_unheld(&mut tile_map, key, &mut sweep);
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
            Victim::Grid(k, indices) => {
                // Dropping the store's slot drops the view (no campaign
                // holds one between jobs), releasing its tiles.
                grid_map.remove(&k);
                sweep.grids_evicted += 1;
                for index in indices {
                    let key = TileKey::new(k.constellation, k.sat_id, index);
                    drop_if_unheld(&mut tile_map, key, &mut sweep);
                }
            }
        }
        sweep.bytes_freed += bytes;
        sweep.bytes_retained -= bytes;
    }
    sweep
}

/// Whether a stored tile is held by no view: only the store's own `Arc`
/// is left.
fn unheld(slot: &Slot<EphemerisTile>) -> bool {
    slot.cell.get().is_some_and(|t| Arc::strong_count(t) == 1)
}

/// Evict `key`'s tile if no view holds it, accounting for it in `sweep`.
fn drop_if_unheld(
    map: &mut HashMap<TileKey, Arc<Slot<EphemerisTile>>>,
    key: TileKey,
    sweep: &mut EvictionSweep,
) {
    if map.get(&key).is_some_and(|slot| unheld(slot)) {
        map.remove(&key);
        sweep.tiles_evicted += 1;
        sweep.bytes_freed += TILE_BYTES;
        sweep.bytes_retained -= TILE_BYTES;
    }
}

/// Identity of one shared ephemeris grid view.
///
/// Unlike [`PassKey`], the site and elevation mask are deliberately
/// *absent*: a grid samples the satellite's ECEF trajectory, which does
/// not depend on who is watching. Every observer — eight measurement
/// sites, twelve ground stations, any mask — over the same `(satellite,
/// window)` shares one view, and every window over the same satellite
/// shares the view's tiles (see [`gridded_predictor`]). As in
/// [`PassKey`], the constellation label must name one shell layout per
/// process.
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

/// Identity of one shared ephemeris tile: a satellite (named as in
/// [`GridKey`]) and a tile index on the absolute lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct TileKey {
    constellation: &'static str,
    sat_id: u32,
    index: i64,
}

impl TileKey {
    fn new(constellation: &'static str, sat_id: u32, index: i64) -> TileKey {
        TileKey {
            constellation,
            sat_id,
            index,
        }
    }
}

fn tile_store() -> &'static Store<TileKey, EphemerisTile> {
    static TILES: OnceLock<Store<TileKey, EphemerisTile>> = OnceLock::new();
    TILES.get_or_init(Store::new)
}

/// Tiles `indices` of the satellite `key` names, from `store`, sampling
/// the missing ones from `sgp4`, under one map lock. Returns the tiles,
/// how many were sampled here, and the store's size.
fn tiles_from(
    store: &Store<TileKey, EphemerisTile>,
    key: GridKey,
    sgp4: &Sgp4,
    indices: Range<i64>,
) -> (Vec<Arc<EphemerisTile>>, usize, usize) {
    store.get_or_compute_all(
        indices.map(|index| TileKey::new(key.constellation, key.sat_id, index)),
        |tile| EphemerisTile::build(sgp4, tile.index),
    )
}

/// The process's shared tiles `indices` of the satellite `key` names:
/// the tile source of every campaign view.
fn shared_tiles(key: GridKey, sgp4: &Sgp4, indices: Range<i64>) -> Vec<Arc<EphemerisTile>> {
    let requested = (indices.end - indices.start) as u64;
    let (tiles, computed, len) = tiles_from(tile_store(), key, sgp4, indices);
    TILE_LOOKUPS.fetch_add(requested, Relaxed);
    TILE_COMPUTES.fetch_add(computed as u64, Relaxed);
    TILE_MISSES.add(computed as u64);
    TILE_HITS.add(requested - computed as u64);
    TILE_ENTRIES.set(len as i64);
    tiles
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
    /// Lookups that built a grid view. As for [`CacheStats::computes`],
    /// at rest `computes == entries + evictions`, and with no budget
    /// enforced `computes == entries` proves every stored view was
    /// built exactly once this process.
    pub computes: u64,
    /// Distinct grid views currently stored.
    pub entries: usize,
    /// Approximate payload bytes currently held: each stored tile once,
    /// plus every stored view's array of tile pointers.
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
        approx_bytes: grid_store().approx_bytes(view_bytes)
            + tile_store().approx_bytes(|_| TILE_BYTES),
        evictions: GRID_EVICTIONS.load(Relaxed),
    }
}

/// A snapshot of the tile store's proof-of-work counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileStats {
    /// Tiles requested by view builds.
    pub lookups: u64,
    /// Requests that sampled a tile. At rest `computes == entries +
    /// evictions`: every tile was sampled exactly once per residency.
    pub computes: u64,
    /// Distinct tiles currently stored.
    pub entries: usize,
    /// Tiles evicted by [`enforce_cache_budget`] this process.
    pub evictions: u64,
}

impl TileStats {
    /// SGP4 samples the sampled tiles took.
    pub fn samples(&self) -> u64 {
        self.computes * TILE as u64
    }
}

/// Read the tile-store counters.
pub fn tile_stats() -> TileStats {
    TileStats {
        lookups: TILE_LOOKUPS.load(Relaxed),
        computes: TILE_COMPUTES.load(Relaxed),
        entries: tile_store().len(),
        evictions: TILE_EVICTIONS.load(Relaxed),
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
/// first use), without the cull. The view is built over the process's
/// shared tiles, so a window inside one already sampled propagates
/// nothing. The simulate phases sample geometry through it, for the
/// satellites whose cached pass lists are not empty, so they share the
/// predict phase's grid `Arc`s without consulting the cull a second
/// time.
pub fn gridded_predictor(
    key: GridKey,
    sgp4: &Sgp4,
    site: Geodetic,
    mask_rad: f64,
) -> PassPredictor {
    let (start, end) = key.range();
    let grid = grid_for(key, || {
        EphemerisGrid::build_with(start, end, |indices| shared_tiles(key, sgp4, indices))
    });
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
        let tiles: Store<TileKey, EphemerisTile> = Store::new();
        let base = make_predictor().passes(epoch(), epoch() + 1.0);
        assert!(!base.is_empty());
        let list = |n: usize| -> Vec<Pass> { base.iter().cycle().take(n).cloned().collect() };

        let k1 = PassKey::new("TEST_EVICT", "T", 1, epoch(), epoch() + 1.0, 0.0);
        let k2 = PassKey::new("TEST_EVICT", "T", 2, epoch(), epoch() + 1.0, 0.0);
        let k3 = PassKey::new("TEST_EVICT", "T", 3, epoch(), epoch() + 1.0, 0.0);
        let gk = GridKey::new("TEST_EVICT", 1, epoch(), epoch() + 0.2);
        let sgp4 = Elements::circular(550.0, 97.6, epoch()).to_sgp4().unwrap();
        let view = |key: GridKey| {
            let (start, end) = key.range();
            grids.get_or_compute(key, || {
                EphemerisGrid::build_with(start, end, |indices| {
                    tiles_from(&tiles, key, &sgp4, indices).0
                })
            })
        };

        passes.get_or_compute(k1, || list(40));
        passes.get_or_compute(k2, || list(20));
        passes.get_or_compute(k3, || list(10));
        view(gk);
        // Touch k1 again: k2 becomes the least recently used entry.
        let (_, recomputed, _) = passes.get_or_compute(k1, || unreachable!("k1 evicted early"));
        assert!(!recomputed);

        let pass_bytes = passes.approx_bytes(|l| pass_list_bytes(l));
        let grid_bytes = grids.approx_bytes(view_bytes) + tiles.approx_bytes(|_| TILE_BYTES);
        let total = pass_bytes + grid_bytes;
        assert!(pass_bytes > 0 && grid_bytes > 0);

        // Over budget by one byte: exactly the LRU entry (k2) must go.
        let sweep = enforce_on(&passes, &grids, &tiles, total - 1);
        assert_eq!(sweep.pass_lists_evicted, 1);
        assert_eq!(sweep.grids_evicted, 0);
        assert_eq!(sweep.tiles_evicted, 0);
        assert_eq!(sweep.bytes_freed, pass_list_bytes(&list(20)));
        assert_eq!(sweep.bytes_freed + sweep.bytes_retained, total);
        assert!(sweep.bytes_retained < total);
        let (_, k2_recomputed, _) = passes.get_or_compute(k2, || list(20));
        let (_, k3_recomputed, _) = passes.get_or_compute(k3, || unreachable!("k3 evicted"));
        assert!(k2_recomputed, "the LRU entry survived the sweep");
        assert!(!k3_recomputed);

        // Budget zero drains all three stores completely: the evicted
        // view was its tiles' only holder.
        let sweep = enforce_on(&passes, &grids, &tiles, 0);
        assert_eq!(sweep.bytes_retained, 0);
        assert_eq!(sweep.grids_evicted, 1);
        assert!(sweep.tiles_evicted > 0);
        assert_eq!(passes.len(), 0);
        assert_eq!(grids.len(), 0);
        assert_eq!(tiles.len(), 0);

        // A tile some live view still holds outlives its evicted cached
        // view, and goes as an orphan once that holder is gone.
        let (held, _, _) = view(gk);
        let held_tiles = held.tiles().len();
        let sweep = enforce_on(&passes, &grids, &tiles, 0);
        assert_eq!((sweep.grids_evicted, sweep.tiles_evicted), (1, 0));
        assert_eq!(tiles.len(), held_tiles);
        drop(held);
        let sweep = enforce_on(&passes, &grids, &tiles, 0);
        assert_eq!(sweep.tiles_evicted, held_tiles);
        assert_eq!((tiles.len(), sweep.bytes_retained), (0, 0));

        // Under budget: a pass is a pure measurement, nothing moves.
        passes.get_or_compute(k1, || list(5));
        let sweep = enforce_on(&passes, &grids, &tiles, u64::MAX - 1);
        assert_eq!(sweep.pass_lists_evicted, 0);
        assert_eq!(sweep.bytes_retained, pass_list_bytes(&list(5)));
    }

    #[test]
    fn views_over_shared_tiles_match_private_views_bit_for_bit() {
        let sgp4 = Elements::circular(550.0, 97.6, epoch()).to_sgp4().unwrap();
        let site = Geodetic::from_degrees(22.32, 114.17, 0.05);
        // A two-day window fills the store first; a one-day window that
        // starts and ends off the lattice inside it is then served from
        // the same tiles.
        let wide = GridKey::new("TEST_TILES", 0, epoch(), epoch() + 2.0);
        let (start, end) = (
            epoch().plus_seconds(27_013.0),
            epoch().plus_seconds(113_389.0),
        );
        let narrow = GridKey::new("TEST_TILES", 0, start, end);
        let first = gridded_predictor(wide, &sgp4, site, 0.0);
        let shared = gridded_predictor(narrow, &sgp4, site, 0.0);
        let private = PassPredictor::new(sgp4.clone(), site, 0.0)
            .with_ephemeris(Arc::new(EphemerisGrid::build(&sgp4, start, end)));
        let (w, a, b) = (
            first.ephemeris().unwrap(),
            shared.ephemeris().unwrap(),
            private.ephemeris().unwrap(),
        );
        // The narrow view reads the wide view's tiles, not new ones.
        let offset = (a.tiles()[0].index() - w.tiles()[0].index()) as usize;
        for (t, u) in a.tiles().iter().zip(&w.tiles()[offset..]) {
            assert!(Arc::ptr_eq(t, u), "tile {} was sampled twice", t.index());
        }
        // Sample for sample, the shared view is the private one.
        let bits = |g: &EphemerisGrid| -> Vec<[u64; 7]> {
            g.runs(0..g.len())
                .flat_map(|(k, run)| run.iter().enumerate().map(move |(i, s)| (k + i, *s)))
                .map(|(k, s)| {
                    let (p, v) = (s.position_km, s.velocity_km_s);
                    [g.sample_time(k).0, p.x, p.y, p.z, v.x, v.y, v.z].map(f64::to_bits)
                })
                .collect()
        };
        assert_eq!(a.len(), b.len());
        assert_eq!(bits(a), bits(b));
        let passes = shared.passes(start, end);
        assert!(!passes.is_empty());
        assert_eq!(passes, private.passes(start, end));
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
