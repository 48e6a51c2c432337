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
//! Campaigns look their lists up through [`passes_for_sites`], one call
//! per (satellite, window) for every site that shares the window and
//! mask, which predicts the missing ones with one margin sweep;
//! [`passes_for`] with [`predictor`] is the same lookup for one pair.
//!
//! Beside the pass cache sit the ephemeris grid store ([`grid_for`]),
//! the tile store whose tiles its views slice (see
//! [`gridded_predictor`]) and the frame store: one [`LatticeFrame`] per
//! tile index, the Earth rotation at its lattice instants, which every
//! satellite's tile at that index is rotated by. Each store counts its
//! own work: keys looked up, entries computed
//! and entries released, read as one [`StoreStats`] each through
//! [`stats`], [`grid_stats`], [`tile_stats`] and [`frame_stats`]. At
//! rest every store holds `computes == entries + evictions`, i.e. each
//! entry was computed exactly once per residency; `reproduce_all`,
//! `ablations_all` and the `cache_exactly_once` test assert it.
//!
//! Lookups never drop anything; [`release_read_between`] drops what was
//! last read between two [`read_mark`]s, and the sweep server calls it
//! after each job.
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

use satiot_orbit::cull::{self, CullingMode};
use satiot_orbit::ephemeris::{EphemerisGrid, EphemerisMode, EphemerisTile, LatticeFrame};
use satiot_orbit::frames::Geodetic;
use satiot_orbit::pass::{Pass, PassPredictor};
use satiot_orbit::sgp4::Sgp4;
use satiot_orbit::time::JulianDate;
use satiot_orbit::visibility::VisibilityMode;
use std::cell::OnceCell;
use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use std::mem::size_of;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// The read clock shared by the stores: each lookup stamps its slot
/// with a tick of its own, so two [`read_mark`]s bracket what the pass
/// and grid stores served between them. Ticks only ever move forward;
/// wraparound is unreachable (2⁶⁴ lookups).
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

/// One memoisation slot: the exactly-once cell plus the tick of its
/// last read.
#[derive(Debug)]
struct Slot<T> {
    cell: OnceLock<Arc<T>>,
    /// [`CLOCK`] tick of the most recent lookup.
    last_used: AtomicU64,
}

impl<T> Slot<T> {
    /// Whether the most recent lookup came after the `from` mark and no
    /// later than the `to` mark.
    fn last_read_in(&self, from: u64, to: u64) -> bool {
        (from + 1..=to).contains(&self.last_used.load(Relaxed))
    }
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
/// behind the pass cache, the grid, tile and frame stores — that
/// counts its own work. Generic so the release pass (and its tests)
/// can run on private instances without perturbing the process-wide
/// caches every campaign test shares.
#[derive(Debug)]
struct Store<K, T> {
    map: Mutex<HashMap<K, Arc<Slot<T>>>>,
    /// Keys requested.
    lookups: AtomicU64,
    /// Requests that computed their entry.
    computes: AtomicU64,
    /// Entries [`release_read_between`] dropped.
    evictions: AtomicU64,
}

impl<K: Copy + Eq + Hash, T> Store<K, T> {
    fn new() -> Store<K, T> {
        Store {
            map: Mutex::new(HashMap::new()),
            lookups: AtomicU64::new(0),
            computes: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, HashMap<K, Arc<Slot<T>>>> {
        self.map.lock().expect("sweep store poisoned")
    }

    /// Resolve the slot for `key` (inserting an empty one if absent),
    /// stamp its recency tick, and run `make` if the cell is empty.
    fn get_or_compute<F: FnOnce() -> T>(&self, key: K, make: F) -> Arc<T> {
        let mut make = Some(make);
        let mut values = self.get_or_compute_all(std::iter::once(key), |_| {
            make.take().expect("one key computes at most once")()
        });
        values.pop().expect("one key resolves one slot")
    }

    /// [`Self::get_or_compute`] over many keys: resolve every slot
    /// ([`Self::resolve`]), then fill each empty cell with `make(key)`,
    /// in key order. The computations run outside the map lock, so
    /// distinct keys compute in parallel while racing lookups of the
    /// same key block on one computation (`OnceLock` exactly-once).
    fn get_or_compute_all<F: FnMut(K) -> T>(
        &self,
        keys: impl Iterator<Item = K> + Clone,
        mut make: F,
    ) -> Vec<Arc<T>> {
        let slots = self.resolve(keys.clone());
        keys.zip(slots)
            .map(|(key, slot)| {
                slot.cell
                    .get_or_init(|| {
                        self.computes.fetch_add(1, Relaxed);
                        Arc::new(make(key))
                    })
                    .clone()
            })
            .collect()
    }

    /// [`Self::get_or_compute_all`] for entries computed together:
    /// resolve every slot ([`Self::resolve`]), then one call of `make`
    /// computes the entries of the distinct keys whose slots are still
    /// empty — it gets their first positions in `keys`, ascending, and
    /// returns one entry per position — and each of those slots is
    /// filled once. When every slot is filled, `make` is not called.
    ///
    /// A racing lookup that fills one of those slots first keeps its
    /// entry (a store entry is a pure function of its key, so both are
    /// the same), and only fills count as computes. Campaign callers
    /// never race that way: each pool task owns its group's keys.
    fn get_or_compute_group<F: FnOnce(&[usize]) -> Vec<T>>(
        &self,
        keys: &[K],
        make: F,
    ) -> Vec<Arc<T>> {
        let slots = self.resolve(keys.iter().copied());
        let mut seen = HashSet::new();
        let pending: Vec<usize> = (0..keys.len())
            .filter(|&i| slots[i].cell.get().is_none() && seen.insert(keys[i]))
            .collect();
        if !pending.is_empty() {
            let values = make(&pending);
            assert_eq!(values.len(), pending.len(), "one entry per empty slot");
            for (i, value) in pending.into_iter().zip(values) {
                slots[i].cell.get_or_init(|| {
                    self.computes.fetch_add(1, Relaxed);
                    Arc::new(value)
                });
            }
        }
        slots
            .iter()
            .map(|slot| Arc::clone(slot.cell.get().expect("every slot is filled")))
            .collect()
    }

    /// Resolve the slot of every key (inserting empty ones) under one
    /// map lock, count the lookups, and stamp each slot with its own
    /// read tick: one [`CLOCK`] reservation per batch, tick `base + i`
    /// for the `i`-th key, so no two lookups share a tick.
    fn resolve(&self, keys: impl Iterator<Item = K>) -> Vec<Arc<Slot<T>>> {
        let slots: Vec<Arc<Slot<T>>> = {
            let mut map = self.lock();
            keys.map(|key| Arc::clone(map.entry(key).or_default()))
                .collect()
        };
        let n = slots.len() as u64;
        self.lookups.fetch_add(n, Relaxed);
        let base = CLOCK.fetch_add(n, Relaxed) + 1;
        for (i, slot) in slots.iter().enumerate() {
            slot.last_used.store(base + i as u64, Relaxed);
        }
        slots
    }

    /// The counters, with `approx_bytes` the sum of `payload_bytes`
    /// over every *computed* slot. Slots whose computation is still in
    /// flight are counted as zero — their cost is attributed once the
    /// cell fills.
    fn stats(&self, payload_bytes: impl Fn(&T) -> u64) -> StoreStats {
        let map = self.lock();
        StoreStats {
            lookups: self.lookups.load(Relaxed),
            computes: self.computes.load(Relaxed),
            entries: map.len(),
            approx_bytes: map
                .values()
                .filter_map(|s| s.cell.get())
                .map(|v| payload_bytes(v))
                .sum(),
            evictions: self.evictions.load(Relaxed),
        }
    }

    /// Drop each computed entry of `map`, this store's locked map, that
    /// `drop` picks from its key, slot and value, count it as released,
    /// and return how many went. A slot still being computed stays, so
    /// its compute is accounted for by its entry.
    fn release_where(
        &self,
        map: &mut HashMap<K, Arc<Slot<T>>>,
        drop: impl Fn(&K, &Slot<T>, &Arc<T>) -> bool,
    ) -> u64 {
        let before = map.len();
        map.retain(|key, slot| !slot.cell.get().is_some_and(|value| drop(key, slot, value)));
        let released = (before - map.len()) as u64;
        self.evictions.fetch_add(released, Relaxed);
        released
    }

    /// Drop every entry and zero the counters.
    fn clear(&self) {
        let mut map = self.lock();
        map.clear();
        for counter in [&self.lookups, &self.computes, &self.evictions] {
            counter.store(0, Relaxed);
        }
    }
}

/// A snapshot of one store's proof-of-work counters: the pass cache's
/// ([`stats`]), the grid store's ([`grid_stats`]), the tile store's
/// ([`tile_stats`]) or the frame store's ([`frame_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// Keys requested: one per [`passes_for`] or [`grid_for`] call, one
    /// per tile a campaign view asks for, one frame per tile computed.
    pub lookups: u64,
    /// Lookups that computed their entry. Each compute fills one slot
    /// and each release empties one, so at rest `computes == entries +
    /// evictions`: every entry was computed exactly once per residency.
    /// In a process that releases nothing, `computes == entries` proves
    /// every stored entry was computed exactly once this process.
    pub computes: u64,
    /// Distinct keys currently stored.
    pub entries: usize,
    /// Approximate payload bytes currently held (map and slot overhead
    /// excluded). A view's samples live in its tiles, so [`grid_stats`]
    /// counts each stored tile and frame once plus every view's array
    /// of tile pointers.
    pub approx_bytes: u64,
    /// Entries [`release_read_between`] dropped since the last
    /// [`clear`].
    pub evictions: u64,
}

impl StoreStats {
    /// Lookups served without computing.
    pub fn hits(&self) -> u64 {
        self.lookups - self.computes
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

/// Heap payload of one stored ephemeris tile
/// ([`TILE`](satiot_orbit::ephemeris::TILE) samples and their
/// aggregates).
const TILE_BYTES: u64 = size_of::<EphemerisTile>() as u64;

/// Heap payload of one stored lattice frame.
const FRAME_BYTES: u64 = size_of::<LatticeFrame>() as u64;

/// The pass list for `key`, predicting it with `make_predictor` on the
/// first request and serving the shared list afterwards: the one-pair
/// form of [`passes_for_sites`], which the campaigns call.
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
    cache().get_or_compute(key, || {
        let (start, end) = key.range();
        match make_predictor() {
            Some(predictor) => predictor.passes(start, end),
            None => Vec::new(),
        }
    })
}

/// The pass lists of one satellite over every site in `sites`, for the
/// window `key` names and the mask `mask_rad`, in input order: the
/// entry every campaign predict phase goes through. Site `i`'s list is
/// keyed by `PassKey::new(sites[i].0, …)` from `key` and the mask, and
/// is bit for bit the one [`passes_for`] with [`predictor`] would cache.
///
/// The pass-cache slots of the whole group resolve under one map lock.
/// Each distinct site whose slot is still empty then goes through
/// [`cull::screen`], which fetches the shared grid only for a site its
/// latitude-band test keeps, and the kept sites are predicted together
/// by one margin sweep over that grid
/// ([`PassPredictor::passes_from_sites`]); a culled site caches the
/// empty list. A group whose slots are all filled culls and sweeps
/// nothing.
pub fn passes_for_sites(
    key: GridKey,
    sgp4: &Sgp4,
    mask_rad: f64,
    sites: &[(&'static str, Geodetic)],
) -> Vec<Arc<Vec<Pass>>> {
    let (start, end) = key.range();
    let keys: Vec<PassKey> = sites
        .iter()
        .map(|&(code, _)| PassKey::new(code, key.constellation, key.sat_id, start, end, mask_rad))
        .collect();
    cache().get_or_compute_group(&keys, |pending| {
        let grid = OnceCell::new();
        let fetch = || Arc::clone(grid.get_or_init(|| shared_grid(key, sgp4)));
        let kept: Vec<bool> = pending
            .iter()
            .map(|&i| cull::screen(sgp4, sites[i].1, mask_rad, start, end, fetch).is_some())
            .collect();
        let observers: Vec<Geodetic> = pending
            .iter()
            .zip(&kept)
            .filter(|(_, &k)| k)
            .map(|(&i, _)| sites[i].1)
            .collect();
        let mut swept = match (grid.get(), observers.first()) {
            (Some(grid), Some(&site)) => PassPredictor::new(sgp4.clone(), site, mask_rad)
                .with_ephemeris(Arc::clone(grid))
                .passes_from_sites(&observers, start, end),
            _ => Vec::new(),
        }
        .into_iter();
        kept.into_iter()
            .map(|k| match k {
                true => swept.next().expect("one list per kept site"),
                false => Vec::new(),
            })
            .collect()
    })
}

/// The pass cache's counters.
pub fn stats() -> StoreStats {
    cache().stats(|l| pass_list_bytes(l))
}

/// Drop every cached pass list, stored ephemeris grid, tile and frame,
/// and zero all four stores' counters (benches measuring cold-cache
/// sweeps; long-lived processes rotating TLE epochs).
pub fn clear() {
    cache().clear();
    grid_store().clear();
    tile_store().clear();
    frame_store().clear();
}

/// The read clock's current tick. Every later lookup stamps its slot
/// with a later tick, so two marks bracket what the stores served
/// between them (see [`release_read_between`]).
pub fn read_mark() -> u64 {
    CLOCK.load(Relaxed)
}

/// Release what was last read between the marks `from` and `to`
/// ([`read_mark`]): every pass list and grid view whose most recent
/// lookup came after `from` and no later than `to`, then every tile no
/// view holds any more, then every frame whose tile index has no stored
/// tile. Each drop counts in its store's `evictions`, and a slot still
/// being computed stays, so `computes == entries + evictions` holds.
///
/// A process that never calls this keeps `computes == entries`. The
/// sweep server calls it after each job, from the mark taken before its
/// first job to the one taken before that job: what an earlier job of
/// the queue read and this one did not.
pub fn release_read_between(from: u64, to: u64) {
    release_on(cache(), grid_store(), tile_store(), frame_store(), from, to);
}

/// The release pass itself, on explicit stores (unit-testable without
/// touching the process-wide caches). Holds all four map locks for the
/// whole pass so a concurrent lookup cannot resurrect a key mid-pass;
/// lookups hold one lock at a time, briefly (a tile computes its frame
/// outside the tile map's lock), so the fixed pass→grid→tile→frame
/// acquisition order cannot deadlock.
fn release_on(
    passes: &Store<PassKey, Vec<Pass>>,
    grids: &Store<GridKey, EphemerisGrid>,
    tiles: &Store<TileKey, EphemerisTile>,
    frames: &Store<i64, LatticeFrame>,
    from: u64,
    to: u64,
) {
    let (mut pass_map, mut grid_map) = (passes.lock(), grids.lock());
    let (mut tile_map, mut frame_map) = (tiles.lock(), frames.lock());
    passes.release_where(&mut pass_map, |_, slot, _| slot.last_read_in(from, to));
    // Dropping the store's slot drops the view (no campaign holds one
    // between jobs), and with it the view's hold on its tiles.
    grids.release_where(&mut grid_map, |_, slot, _| slot.last_read_in(from, to));
    // A frame is created only with a tile key at its index, and only
    // this pass or `clear` removes tile keys. So a release that drops no
    // tile orphans no frame, and skips the frame pass.
    if tiles.release_where(&mut tile_map, |_, _, tile| Arc::strong_count(tile) == 1) > 0 {
        let indices: HashSet<i64> = tile_map.keys().map(|key| key.index).collect();
        frames.release_where(&mut frame_map, |index, _, _| !indices.contains(index));
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

/// The frame store: one [`LatticeFrame`] per tile index, shared by
/// every satellite's tile there.
fn frame_store() -> &'static Store<i64, LatticeFrame> {
    static FRAMES: OnceLock<Store<i64, LatticeFrame>> = OnceLock::new();
    FRAMES.get_or_init(Store::new)
}

/// Tiles `indices` of the satellite `key` names, from `store`, sampling
/// the missing ones from `sgp4`: their slots resolve under one map
/// lock, and each missing tile looks its frame up in `frames`.
fn tiles_from(
    store: &Store<TileKey, EphemerisTile>,
    frames: &Store<i64, LatticeFrame>,
    key: GridKey,
    sgp4: &Sgp4,
    indices: Range<i64>,
) -> Vec<Arc<EphemerisTile>> {
    store.get_or_compute_all(
        indices.map(|index| TileKey::new(key.constellation, key.sat_id, index)),
        |tile| {
            let frame = frames.get_or_compute(tile.index, || LatticeFrame::new(tile.index));
            EphemerisTile::build(sgp4, &frame)
        },
    )
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
    grid_store().get_or_compute(key, build)
}

/// The grid store's counters. Its `approx_bytes` includes the tile and
/// frame stores': every stored tile and frame once, plus each view's
/// tile pointers.
pub fn grid_stats() -> StoreStats {
    let views = grid_store().stats(view_bytes);
    StoreStats {
        approx_bytes: views.approx_bytes + tile_stats().approx_bytes + frame_stats().approx_bytes,
        ..views
    }
}

/// The tile store's counters. Each computed tile took
/// [`TILE`](satiot_orbit::ephemeris::TILE) SGP4 samples.
pub fn tile_stats() -> StoreStats {
    tile_store().stats(|_| TILE_BYTES)
}

/// The frame store's counters: one lookup per tile computed, one
/// compute per tile index sampled (per residency).
pub fn frame_stats() -> StoreStats {
    frame_store().stats(|_| FRAME_BYTES)
}

/// Build the pass predictor every campaign predict phase uses for one
/// `(satellite, site, window)` triple, the window being `key`'s range.
///
/// The pair first passes [`cull::screen`], the conservative spatial
/// pre-cull: its latitude-band test needs no propagation at all, so it
/// runs before the shared [`EphemerisGrid`] is fetched, and its
/// footprint-cone test then scans only that grid's raw samples. A
/// culled pair returns `None` — its pass list over the window is
/// provably empty — and the screen counts every verdict, once per call.
/// A kept pair gets the gridded predictor, whose margin sweep reads the
/// covering grid.
pub fn predictor(
    key: GridKey,
    sgp4: &Sgp4,
    site: Geodetic,
    mask_rad: f64,
) -> Option<PassPredictor> {
    let (start, end) = key.range();
    let grid = cull::screen(sgp4, site, mask_rad, start, end, || shared_grid(key, sgp4))?;
    Some(PassPredictor::new(sgp4.clone(), site, mask_rad).with_ephemeris(grid))
}

/// The predictor for one `(satellite, site, window)` triple over the
/// shared [`EphemerisGrid`] for `key`, without the cull. The simulate
/// phases sample geometry through it, for the satellites whose cached
/// pass lists are not empty, so they share the predict phase's grid
/// `Arc`s without consulting the cull a second time.
pub fn gridded_predictor(
    key: GridKey,
    sgp4: &Sgp4,
    site: Geodetic,
    mask_rad: f64,
) -> PassPredictor {
    PassPredictor::new(sgp4.clone(), site, mask_rad).with_ephemeris(shared_grid(key, sgp4))
}

/// The shared view for `key` (from [`grid_for`], built on first use)
/// over the process's shared tiles, so a window inside one already
/// sampled propagates nothing.
fn shared_grid(key: GridKey, sgp4: &Sgp4) -> Arc<EphemerisGrid> {
    let (start, end) = key.range();
    grid_for(key, || {
        EphemerisGrid::build_with(start, end, |indices| {
            tiles_from(tile_store(), frame_store(), key, sgp4, indices)
        })
    })
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

    /// A release drops the pass lists and grid views last read between
    /// its two marks, then the tiles no view holds and the frames no
    /// stored tile uses, counting each drop once; what was read before
    /// or after the marks stays.
    #[test]
    fn release_drops_what_was_last_read_between_the_marks() {
        // Private stores: the process-wide caches are shared by every
        // campaign test in this binary, so releasing from them here
        // would race their exactly-once assertions.
        let passes: Store<PassKey, Vec<Pass>> = Store::new();
        let grids: Store<GridKey, EphemerisGrid> = Store::new();
        let tiles: Store<TileKey, EphemerisTile> = Store::new();
        let frames: Store<i64, LatticeFrame> = Store::new();
        let sgp4 = Elements::circular(550.0, 97.6, epoch()).to_sgp4().unwrap();
        let list = |id: u32| {
            let key = PassKey::new("TEST_RELEASE", "T", id, epoch(), epoch() + 1.0, 0.0);
            passes.get_or_compute(key, Vec::new)
        };
        // Satellite `id`'s view over a fifth of a day from `day`; views
        // two days apart share no tile index, so no frame either.
        let view = |id: u32, day: f64| {
            let key = GridKey::new("TEST_RELEASE", id, epoch() + day, epoch() + day + 0.2);
            let (start, end) = key.range();
            grids.get_or_compute(key, || {
                EphemerisGrid::build_with(start, end, |indices| {
                    tiles_from(&tiles, &frames, key, &sgp4, indices)
                })
            })
        };
        // Each store's (entries, released) after a release, which keeps
        // every compute accounted for.
        let release = |from, to| {
            release_on(&passes, &grids, &tiles, &frames, from, to);
            [
                passes.stats(|_| 0),
                grids.stats(|_| 0),
                tiles.stats(|_| 0),
                frames.stats(|_| 0),
            ]
            .map(|s| {
                assert_eq!(s.computes, s.entries as u64 + s.evictions);
                (s.entries, s.evictions as usize)
            })
        };

        list(0);
        let early = view(0, 0.0).tiles().len();
        let from = read_mark();
        list(1);
        list(2);
        let gone = view(1, 2.0).tiles().len();
        let held = view(2, 4.0);
        let to = read_mark();
        list(2);
        let late = view(3, 6.0).tiles().len();
        let kept = early + held.tiles().len() + late;
        // List 1 and views 1 and 2 were last read between the marks. The
        // held view keeps its tiles and frames; view 1's go with it.
        let first = release(from, to);
        assert_eq!(first, [(2, 1), (2, 2), (kept, gone), (kept, gone)]);
        assert_eq!(release(from, to), first, "a second release dropped more");
        let orphaned = held.tiles().len();
        drop(held);
        let left = (kept - orphaned, gone + orphaned);
        assert_eq!(release(from, to), [(2, 1), (2, 2), left, left]);
        // A release that drops a list but no tile keeps every frame.
        let from = read_mark();
        list(4);
        let to = read_mark();
        assert_eq!(release(from, to), [(2, 2), (2, 2), left, left]);
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

    /// The batch entry caches, per site, the bits the per-pair path
    /// gives: `passes_for` with `predictor` under a second constellation
    /// label, so the two paths fill separate slots (and sample separate,
    /// identical tiles). A site outside the shell's latitude band gets
    /// the empty list, a repeated site code shares its slot, and a
    /// second call returns the same lists.
    #[test]
    fn batch_entry_matches_per_pair_lookups() {
        let sgp4 = Elements::circular(550.0, 53.0, epoch()).to_sgp4().unwrap();
        let (start, end, mask) = (epoch(), epoch() + 1.0, 0.0);
        let pole = Geodetic::from_degrees(85.0, 10.0, 0.0);
        assert!(cull::never_in_latitude_band(
            pole,
            sgp4.inclination_rad(),
            sgp4.apogee_radius_km(),
            mask
        ));
        let sites = [
            ("TEST_BATCH_HK", Geodetic::from_degrees(22.32, 114.17, 0.05)),
            ("TEST_BATCH_POLE", pole),
            (
                "TEST_BATCH_SYD",
                Geodetic::from_degrees(-33.87, 151.21, 0.05),
            ),
            ("TEST_BATCH_HK", Geodetic::from_degrees(22.32, 114.17, 0.05)),
        ];
        let key = GridKey::new("TEST_BATCH", 0, start, end);
        let lists = passes_for_sites(key, &sgp4, mask, &sites);
        assert_eq!(lists.len(), sites.len());
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
        for (&(code, site), list) in sites.iter().zip(&lists) {
            let pair = GridKey::new("TEST_BATCH_PAIR", 0, start, end);
            let alone = passes_for(
                PassKey::new(code, pair.constellation, 0, start, end, mask),
                || predictor(pair, &sgp4, site, mask),
            );
            assert_eq!(bits(list), bits(&alone), "{code}");
        }
        assert!(lists[1].is_empty(), "the culled site has passes");
        assert!(!lists[0].is_empty() && !lists[2].is_empty());
        for list in &lists {
            assert_eq!(list.capacity(), list.len(), "a list cached with spare room");
        }
        assert!(Arc::ptr_eq(&lists[0], &lists[3]), "one code, two slots");
        let again = passes_for_sites(key, &sgp4, mask, &sites);
        for (a, b) in lists.iter().zip(&again) {
            assert!(Arc::ptr_eq(a, b), "a filled group computed again");
        }
    }

    /// A group computes the distinct keys whose slots are empty, in
    /// first-position order, with one call, and nothing once they are
    /// all filled.
    #[test]
    fn a_group_computes_only_its_empty_slots_once() {
        let store: Store<u32, u32> = Store::new();
        store.get_or_compute(7, || 70);
        let asked = Mutex::new(Vec::new());
        let make = |pending: &[usize]| {
            asked.lock().unwrap().push(pending.to_vec());
            pending.iter().map(|&i| 10 * i as u32).collect()
        };
        let keys = [3, 7, 5, 3];
        let values = store.get_or_compute_group(&keys, make);
        let values: Vec<u32> = values.iter().map(|v| **v).collect();
        assert_eq!(values, [0, 70, 20, 0]);
        assert_eq!(*asked.lock().unwrap(), [vec![0, 2]]);
        store.get_or_compute_group(&keys, make);
        assert_eq!(asked.lock().unwrap().len(), 1, "a filled group computed");
        let stats = store.stats(|_| 0);
        assert_eq!((stats.lookups, stats.computes, stats.entries), (9, 3, 3));
    }
}
