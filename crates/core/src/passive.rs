//! The passive measurement campaign (paper §2.2 / §3.1).
//!
//! 27 TinyGS-style stations across 8 sites listen to the 39 satellites of
//! four constellations for up to seven months. The driver:
//!
//! 1. predicts every pass of every satellite over every site (SGP4),
//! 2. assigns stations to passes with the configured scheduler,
//! 3. walks the beacon emissions inside each covered interval, samples
//!    the link (geometry → budget → fading → Doppler → PER), and
//! 4. logs a [`BeaconTrace`] per decoded beacon plus per-pass
//!    [`EffectiveWindow`] records.
//!
//! The driver runs in two phases. The *predict* phase shards one task
//! per *(site × satellite)* pair across the `satiot_sim::pool` work
//! queue, each task resolving its pass list through the process-wide
//! [`crate::sweep`] cache (so re-runs — ablations, determinism checks,
//! repeated campaigns in one binary — never predict the same list
//! twice). The *simulate* phase then replays each site on its own
//! forked RNG stream; results merge in site order, so a campaign is
//! bit-for-bit reproducible regardless of thread count or scheduling.
//!
//! Inside the simulate phase, each covered pass first runs a *listen
//! prepass*: the deterministic coverage gates plus the stochastic
//! listen-efficiency gate, drawn in emission order, yielding the pass's
//! heard emissions. The channel loop then samples geometry, link,
//! Doppler and decode for each heard emission in order. The prepass
//! fixes the pass RNG stream's draw order — every listen draw first,
//! then the per-reception fading and decode draws — and spares the
//! loop from sampling geometry for emissions nobody heard.

use crate::calib;
use crate::error::{Fault, FaultLog, SatIotError};
use crate::geometry::{beacon_times, sample_at};
use crate::options::RunOptions;
use crate::scheduler::{CandidatePass, Coverage, PredictiveScheduler, Scheduler, VanillaScheduler};
use crate::sink::{self, SinkStats, SpillPart};
use crate::station::{AvailabilityParams, StationAvailability};
use crate::sweep::{self, GridKey, PassKey};
use satiot_channel::antenna::AntennaPattern;
use satiot_channel::budget::LinkBudget;
use satiot_channel::weather::WeatherProcess;
use satiot_measure::contact::{ContactStats, EffectiveWindow, TheoreticalWindow};
use satiot_measure::sketch::TraceAggregate;
use satiot_measure::trace::{BeaconTrace, TraceSet};
use satiot_obs::metrics::{Counter, Timer};
use satiot_orbit::pass::{Pass, PassPredictor};
use satiot_orbit::sgp4::Sgp4;
use satiot_orbit::time::JulianDate;
use satiot_phy::doppler::total_penalty_db;
use satiot_phy::params::LoRaConfig;
use satiot_phy::per::packet_decodes;
use satiot_scenarios::constellations::{all_constellations, ConstellationSpec};
use satiot_scenarios::sites::{campaign_epoch, Site};
use satiot_sim::{pool, Rng, SimTime};
use std::sync::Arc;

/// Candidate passes predicted across all sites and satellites (metrics).
static PASSES_PREDICTED: Counter = Counter::new("core.passive.passes_predicted");
/// Beacons transmitted inside predicted windows (metrics).
static BEACONS_EMITTED: Counter = Counter::new("core.passive.beacons_emitted");
/// Beacons that survived the link, Doppler, and PER draws (metrics).
static BEACONS_DECODED: Counter = Counter::new("core.passive.beacons_decoded");
/// Wall-clock seconds each per-site shard took (metrics).
static SITE_SHARD_S: Timer = Timer::new("core.passive.site_shard_s");

/// Which station-assignment policy a campaign uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchedulerKind {
    /// The paper's customised predictive scheduler.
    Predictive,
    /// Vanilla TinyGS rotation with the given dwell.
    Vanilla {
        /// Seconds per rotation slot.
        dwell_s: f64,
    },
}

/// Passive-campaign configuration.
#[derive(Debug, Clone)]
pub struct PassiveConfig {
    /// Root seed; every stochastic stream derives from it.
    pub seed: u64,
    /// Cap on per-site simulated days (the full campaign runs each site
    /// from its Table 1 start date to 2025-04; tests use a few days).
    pub max_days: f64,
    /// Station-assignment policy.
    pub scheduler: SchedulerKind,
    /// Sites to simulate.
    pub sites: Vec<Site>,
    /// Constellations to observe.
    pub constellations: Vec<ConstellationSpec>,
    /// Ground-station antenna.
    pub ground_antenna: AntennaPattern,
}

impl Default for PassiveConfig {
    /// The full seven-month, eight-site, four-constellation campaign.
    fn default() -> Self {
        PassiveConfig {
            seed: 0x5A7_107,
            max_days: f64::INFINITY,
            scheduler: SchedulerKind::Predictive,
            sites: satiot_scenarios::sites::measurement_sites(),
            constellations: all_constellations(),
            ground_antenna: AntennaPattern::QuarterWaveMonopole,
        }
    }
}

impl PassiveConfig {
    /// Build a passive configuration from a resolved scenario — the
    /// typed front door every campaign binary shares. Scenario fields
    /// that are unset (`seed`, `max_days`, `scheduler`) keep the
    /// campaign defaults; sites and constellations come from the
    /// resolution (full catalogs when the scenario listed none).
    ///
    /// Mobility tracks are not consumed here: the passive driver keys
    /// its process-wide pass cache on the site code, which is only
    /// sound for a fixed observer. Mobile sites flow through
    /// [`satiot_scenarios::MobilityTrack::legs`] and
    /// [`satiot_orbit::pass::PassPredictor::passes_over_legs`] instead
    /// (see `exp_mobile`).
    pub fn from_scenario(scenario: &satiot_scenarios::ResolvedScenario) -> PassiveConfig {
        let mut cfg = PassiveConfig::default();
        if let Some(seed) = scenario.seed {
            cfg.seed = seed;
        }
        if let Some(days) = scenario.max_days {
            cfg.max_days = days;
        }
        if let Some(scheduler) = scenario.scheduler {
            cfg.scheduler = match scheduler {
                satiot_scenarios::spec::SchedulerSpec::Predictive => SchedulerKind::Predictive,
                satiot_scenarios::spec::SchedulerSpec::Vanilla { dwell_s } => {
                    SchedulerKind::Vanilla { dwell_s }
                }
            };
        }
        cfg.sites = scenario.static_sites();
        cfg.constellations = scenario.constellations.clone();
        cfg
    }
}

/// One covered pass with its measured outcome.
#[derive(Debug, Clone)]
pub struct SitePassRecord {
    /// Site code.
    pub site: &'static str,
    /// Constellation label.
    pub constellation: &'static str,
    /// Satellite index within the constellation.
    pub sat_id: u32,
    /// Theoretical window and reception outcome.
    pub window: EffectiveWindow,
    /// Seconds of the window a station actually listened.
    pub covered_s: f64,
    /// Whether the assigned station was powered/online at culmination
    /// (false for unscheduled passes).
    pub station_up: bool,
    /// Weather at culmination.
    pub weather: &'static str,
    /// Maximum elevation of the pass, degrees.
    pub max_elevation_deg: f64,
    /// Normalised in-window positions of the received beacons.
    pub reception_positions: Vec<f64>,
}

/// The campaign output.
#[derive(Debug, Clone, Default)]
pub struct PassiveResults {
    /// Every decoded beacon — populated only under the full-trace sink
    /// ([`crate::sink::SinkMode::Full`], the default); empty under the
    /// bounded-memory modes.
    pub traces: TraceSet,
    /// Every covered pass.
    pub passes: Vec<SitePassRecord>,
    /// Recoverable input damage survived during the run (sites skipped,
    /// NaN passes dropped, …), merged per site in configuration order.
    pub faults: FaultLog,
    /// Streaming per-constellation sketches over the decoded beacons,
    /// merged per site in configuration order. `None` only under the
    /// null sink (or when every site was skipped).
    pub sketch: Option<TraceAggregate>,
    /// Sink accounting: how many traces were emitted, retained in RAM,
    /// and spilled to disk.
    pub sink: SinkStats,
    /// Spill parts awaiting final concatenation (drained by the
    /// campaign drivers before returning).
    pub(crate) spill_parts: Vec<SpillPart>,
}

impl PassiveResults {
    /// Contact statistics for one constellation across the given sites
    /// (all sites when `sites` is empty). Each site forms an independent
    /// timeline: overlapping windows union per site and inter-contact
    /// gaps never span sites.
    pub fn contact_stats(&self, constellation: &str, sites: &[&str]) -> ContactStats {
        let mut groups: Vec<(&str, Vec<EffectiveWindow>)> = Vec::new();
        for p in self
            .passes
            .iter()
            .filter(|p| p.constellation == constellation)
            .filter(|p| sites.is_empty() || sites.contains(&p.site))
        {
            match groups.iter_mut().find(|(s, _)| *s == p.site) {
                Some((_, v)) => v.push(p.window.clone()),
                None => groups.push((p.site, vec![p.window.clone()])),
            }
        }
        let groups: Vec<Vec<EffectiveWindow>> = groups.into_iter().map(|(_, v)| v).collect();
        ContactStats::compute_grouped(&groups)
    }

    /// All normalised reception positions (Fig 9 series).
    pub fn reception_positions(&self) -> Vec<f64> {
        self.passes
            .iter()
            .flat_map(|p| p.reception_positions.iter().copied())
            .collect()
    }

    /// Only the passes a station actually listened to.
    pub fn covered_passes(&self) -> impl Iterator<Item = &SitePassRecord> {
        self.passes.iter().filter(|p| p.covered_s > 0.0)
    }

    /// Contact statistics over *covered* passes only — the per-window
    /// duration comparison of the paper's Figure 4a (a window's effective
    /// duration is only measurable where a station listened).
    pub fn contact_stats_covered(&self, constellation: &str, sites: &[&str]) -> ContactStats {
        let mut groups: Vec<(&str, Vec<EffectiveWindow>)> = Vec::new();
        for p in self
            .covered_passes()
            .filter(|p| p.constellation == constellation)
            .filter(|p| sites.is_empty() || sites.contains(&p.site))
        {
            match groups.iter_mut().find(|(s, _)| *s == p.site) {
                Some((_, v)) => v.push(p.window.clone()),
                None => groups.push((p.site, vec![p.window.clone()])),
            }
        }
        let groups: Vec<Vec<EffectiveWindow>> = groups.into_iter().map(|(_, v)| v).collect();
        ContactStats::compute_grouped(&groups)
    }

    /// Per-contact beacon reception ratios grouped by weather label
    /// (Fig 3d series).
    pub fn reception_ratio_by_weather(&self, constellation: &str) -> Vec<(&'static str, Vec<f64>)> {
        let mut groups: Vec<(&'static str, Vec<f64>)> = Vec::new();
        for p in self
            .covered_passes()
            .filter(|p| p.station_up)
            .filter(|p| p.constellation == constellation)
        {
            if let Some(r) = p.window.beacon_reception_ratio() {
                match groups.iter_mut().find(|(w, _)| *w == p.weather) {
                    Some((_, v)) => v.push(r),
                    None => groups.push((p.weather, vec![r])),
                }
            }
        }
        groups
    }
}

/// The passive campaign driver.
pub struct PassiveCampaign {
    config: PassiveConfig,
}

/// Satellite bookkeeping flattened across constellations. The SGP4
/// propagator is built (and thereby validated) once at flatten time, so
/// the per-site shards clone it instead of re-deriving — and possibly
/// panicking on — the raw elements.
struct FlatSat {
    constellation: &'static str,
    sat_id: u32,
    frequency_mhz: f64,
    beacon_interval_s: f64,
    tx_power_dbm: f64,
    sgp4: Sgp4,
}

impl PassiveCampaign {
    /// Create a campaign from a configuration.
    pub fn new(config: PassiveConfig) -> Self {
        PassiveCampaign { config }
    }

    /// Run the campaign and return merged results.
    ///
    /// Two phases: the *predict* phase shards one *(site × satellite)*
    /// pass-prediction task per pair across the sweep pool, all served
    /// through the shared [`crate::sweep`] cache; the *simulate* phase
    /// then replays each site on its own forked RNG stream. Sites merge
    /// in configuration order, so the output is bit-identical to a
    /// one-thread run (`parallel_and_serial_agree` pins this).
    ///
    /// `opts` selects the thread count and the trace sink.
    ///
    /// # Errors
    ///
    /// Returns [`SatIotError`] when the configuration cannot produce a
    /// meaningful campaign (NaN/negative `max_days`, empty site or
    /// constellation lists, a non-positive vanilla dwell, or catalog
    /// elements that fail to build). Recoverable input damage — a site
    /// with a non-finite location or empty range, a NaN-timed or
    /// zero-duration pass — is instead *survived* and counted in
    /// [`PassiveResults::faults`].
    pub fn run(&self, opts: &RunOptions) -> Result<PassiveResults, SatIotError> {
        self.validate()?;
        let sats = self.flatten_sats()?;
        let root = Rng::from_seed(self.config.seed);
        let n_sites = self.config.sites.len();
        let n_sats = sats.len();
        let threads = opts.threads.unwrap_or_else(pool::thread_count);

        // Predict phase: satellite-granularity sharding over the cache.
        let tasks: Vec<(usize, usize)> = (0..n_sites)
            .flat_map(|s| (0..n_sats).map(move |q| (s, q)))
            .collect();
        let lists: Vec<Arc<Vec<Pass>>> =
            pool::parallel_map_with(&tasks, threads, |_, &(si, qi)| {
                predict_site_sat(&self.config.sites[si], &sats[qi], self.config.max_days)
            });
        let site_lists: Vec<&[Arc<Vec<Pass>>]> = (0..n_sites)
            .map(|s| &lists[s * n_sats..(s + 1) * n_sats])
            .collect();

        // Simulate phase: one task per site, RNG streams forked by index.
        let partials: Vec<PassiveResults> =
            pool::parallel_map_with(&self.config.sites, threads, |idx, site| {
                let rng = root.fork_indexed("site", idx as u64);
                run_site(&self.config, opts, idx, site, &sats, rng, site_lists[idx])
            });
        let mut results = merge(partials);
        finalize(&mut results);
        Ok(results)
    }

    /// Reject configurations the campaign cannot run meaningfully.
    fn validate(&self) -> Result<(), SatIotError> {
        let cfg = &self.config;
        if cfg.max_days.is_nan() {
            return Err(SatIotError::NonFiniteTime {
                context: "PassiveConfig.max_days",
                value: cfg.max_days,
            });
        }
        if cfg.max_days < 0.0 {
            return Err(SatIotError::InvalidConfig {
                field: "max_days",
                value: cfg.max_days,
                requirement: ">= 0 (INFINITY runs each site to its full campaign range)",
            });
        }
        if cfg.sites.is_empty() {
            return Err(SatIotError::EmptyPassList {
                context: "PassiveConfig.sites",
            });
        }
        if cfg.constellations.is_empty() {
            return Err(SatIotError::EmptyPassList {
                context: "PassiveConfig.constellations",
            });
        }
        if let SchedulerKind::Vanilla { dwell_s } = cfg.scheduler {
            if !(dwell_s.is_finite() && dwell_s > 0.0) {
                return Err(SatIotError::InvalidConfig {
                    field: "dwell_s",
                    value: dwell_s,
                    requirement: "finite and > 0 (a zero dwell never rotates off a target)",
                });
            }
        }
        Ok(())
    }

    fn flatten_sats(&self) -> Result<Vec<FlatSat>, SatIotError> {
        let epoch = campaign_epoch();
        let mut flat = Vec::new();
        for spec in &self.config.constellations {
            for sat in spec.catalog(epoch) {
                let sgp4 = sat
                    .sgp4()
                    .map_err(|e| SatIotError::orbit("building catalog propagators", e))?;
                flat.push(FlatSat {
                    constellation: sat.constellation,
                    sat_id: sat.sat_id,
                    frequency_mhz: sat.frequency_mhz,
                    beacon_interval_s: sat.beacon_interval_s,
                    tx_power_dbm: spec.tx_power_dbm,
                    sgp4,
                });
            }
        }
        Ok(flat)
    }
}

/// Merge per-site partial results in site order (sketch merges
/// included, so the aggregate is identical across thread counts).
fn merge(partials: Vec<PassiveResults>) -> PassiveResults {
    let mut merged = PassiveResults::default();
    for p in partials {
        merged.traces.traces.extend(p.traces.traces);
        merged.passes.extend(p.passes);
        merged.faults.merge(&p.faults);
        match (&mut merged.sketch, p.sketch) {
            (Some(mine), Some(theirs)) => mine.merge(&theirs),
            (slot @ None, Some(theirs)) => *slot = Some(theirs),
            (_, None) => {}
        }
        merged.sink.merge(&p.sink);
        merged.spill_parts.extend(p.spill_parts);
    }
    merged
}

/// Concatenate any spill parts into the final archive (in site order —
/// `merge` collected them in configuration order) and fold IO failures
/// into the fault ledger.
fn finalize(results: &mut PassiveResults) {
    let parts = std::mem::take(&mut results.spill_parts);
    let io_errors = sink::finalize_spill(&parts);
    results.faults.record_n(Fault::SinkIo, io_errors);
}

/// Drop candidate passes the pipeline cannot simulate: NaN/∞ AOS, LOS,
/// or TCA times (counted as [`Fault::NanPassTime`]) and zero- or
/// negative-duration windows (counted as [`Fault::DegeneratePass`]).
/// Returns the number of candidates dropped. Public so callers feeding
/// externally-sourced pass lists through [`crate::scheduler::Scheduler`]
/// can apply the same contract the campaign drivers do.
pub fn sanitize_candidates(candidates: &mut Vec<CandidatePass>, faults: &mut FaultLog) -> usize {
    let before = candidates.len();
    candidates.retain(|c| {
        let finite =
            c.pass.aos.0.is_finite() && c.pass.los.0.is_finite() && c.pass.tca.0.is_finite();
        if !finite {
            faults.record(Fault::NanPassTime);
            return false;
        }
        if c.pass.duration_s() <= 0.0 {
            faults.record(Fault::DegeneratePass);
            return false;
        }
        true
    });
    before - candidates.len()
}

/// The site's simulated range under the campaign's day cap. Both the
/// predict phase and `run_site` derive the range through this helper so
/// their cache keys and scan bounds agree bit-for-bit.
fn site_range(site: &Site, max_days: f64) -> (JulianDate, JulianDate, f64) {
    let start = site.start();
    let days = site.active_days().min(max_days);
    (start, start + days, days)
}

/// Predict (through the shared cache) one satellite's passes over one
/// site for the site's configured campaign range.
fn predict_site_sat(site: &Site, sat: &FlatSat, max_days: f64) -> Arc<Vec<Pass>> {
    let (start, end, _) = site_range(site, max_days);
    let grid_key = GridKey::new(sat.constellation, sat.sat_id, start, end);
    sweep::passes_for(
        PassKey::new(
            site.code,
            sat.constellation,
            sat.sat_id,
            start,
            end,
            calib::THEORETICAL_MASK_RAD,
        ),
        || {
            sweep::predictor(
                grid_key,
                &sat.sgp4,
                site.geodetic(),
                calib::THEORETICAL_MASK_RAD,
            )
        },
    )
}

/// The coverage piece to probe for station liveness at culmination: the
/// piece whose interval contains TCA, falling back to the piece nearest
/// it in time (a truncated vanilla-dwell slot may not straddle TCA at
/// all). Probing `pieces.first()` unconditionally was wrong whenever a
/// *different* piece contained TCA — it consulted an unrelated
/// station's availability timeline.
fn piece_for_tca<'a>(pieces: &[&'a Coverage], tca: JulianDate) -> Option<&'a Coverage> {
    fn gap_s(c: &Coverage, t: JulianDate) -> f64 {
        if t < c.start {
            c.start.seconds_since(t)
        } else if t > c.end {
            t.seconds_since(c.end)
        } else {
            0.0
        }
    }
    pieces
        .iter()
        .copied()
        .find(|c| tca >= c.start && tca <= c.end)
        .or_else(|| {
            pieces
                .iter()
                .copied()
                .min_by(|a, b| gap_s(a, tca).total_cmp(&gap_s(b, tca)))
        })
}

/// Simulate one site end to end. `site_idx` is the site's configuration
/// index (it selects the RNG stream upstream and names spill-sink part
/// files here); `lists` carries the predict phase's per-satellite pass
/// lists.
fn run_site(
    cfg: &PassiveConfig,
    opts: &RunOptions,
    site_idx: usize,
    site: &Site,
    sats: &[FlatSat],
    rng: Rng,
    lists: &[Arc<Vec<Pass>>],
) -> PassiveResults {
    let _shard_span = SITE_SHARD_S.start();
    let mut results = PassiveResults::default();
    let (start, end, days) = site_range(site, cfg.max_days);
    // A site with an empty/inverted range or a location that is not a
    // point on Earth cannot be simulated; skip it, count it, and let the
    // rest of the campaign proceed.
    let location_ok =
        site.lat_deg.is_finite() && site.lon_deg.is_finite() && site.alt_km.is_finite();
    if !(days.is_finite() && days > 0.0 && location_ok) {
        results.faults.record(Fault::SkippedSite);
        return results;
    }
    // The shard's trace sink: decoded beacons flow here instead of an
    // unconditional in-RAM Vec (see `crate::sink`).
    let mut trace_sink = opts.sink.shard(site_idx);

    // Weather timeline, indexed by seconds since site start.
    let mut weather_rng = rng.fork("weather");
    let weather = WeatherProcess::generate(
        &site.climate.weather_params(),
        SimTime::from_days(days),
        &mut weather_rng,
    );

    // The predict phase's cached pass lists for every satellite, and a
    // grid-backed sampling predictor for each satellite with candidate
    // passes (no other is sampled), sharing the predict phase's grid
    // `Arc`s without consulting the cull again. `sample_at` probes `t`
    // and `t + 1 s`; an instant outside the grid window falls back to
    // direct SGP4 bit-identically, so the geometry loop is safe to
    // interpolate.
    let mut predictors: Vec<Option<PassPredictor>> = Vec::with_capacity(sats.len());
    let mut candidates: Vec<CandidatePass> = Vec::new();
    for (i, sat) in sats.iter().enumerate() {
        candidates.extend(lists[i].iter().map(|pass| CandidatePass {
            sat_index: i,
            pass: *pass,
        }));
        predictors.push((!lists[i].is_empty()).then(|| {
            sweep::gridded_predictor(
                GridKey::new(sat.constellation, sat.sat_id, start, end),
                &sat.sgp4,
                site.geodetic(),
                calib::THEORETICAL_MASK_RAD,
            )
        }));
    }
    PASSES_PREDICTED.add(candidates.len() as u64);
    sanitize_candidates(&mut candidates, &mut results.faults);
    // total_cmp on the raw JD bits: a NaN that slipped past sanitising
    // must never panic the sort (it orders after every finite time).
    candidates.sort_by(|a, b| a.pass.aos.0.total_cmp(&b.pass.aos.0));

    // Station assignment.
    let coverage: Vec<Coverage> = match cfg.scheduler {
        SchedulerKind::Predictive => PredictiveScheduler.schedule(&candidates, site.station_count),
        SchedulerKind::Vanilla { dwell_s } => VanillaScheduler {
            dwell_s,
            n_targets: sats.len(),
            origin: start,
        }
        .schedule(&candidates, site.station_count),
    };

    // Crowd-sourced stations are not always on: generate each station's
    // correlated up/down timeline (calibrated against Table 1's volumes).
    let availability: Vec<StationAvailability> = (0..site.station_count)
        .map(|s| {
            let mut st_rng = rng.fork_indexed("station", s as u64);
            StationAvailability::generate(
                &AvailabilityParams::default(),
                SimTime::from_days(days),
                &mut st_rng,
            )
        })
        .collect();

    // Group coverage pieces per pass.
    let mut coverage_by_pass: Vec<Vec<&Coverage>> = vec![Vec::new(); candidates.len()];
    for c in &coverage {
        coverage_by_pass[c.pass_idx].push(c);
    }

    let beacon_cfg = LoRaConfig::dts_beacon();
    let epoch = campaign_epoch();
    // The heard-emission list the listen-gate prepass fills, reused
    // across every pass of the site (cleared, not reallocated).
    let mut heard: Vec<(JulianDate, u32)> = Vec::new();

    for (pass_idx, pieces) in coverage_by_pass.iter().enumerate() {
        let cp = &candidates[pass_idx];
        let sat = &sats[cp.sat_index];
        let predictor = predictors[cp.sat_index]
            .as_ref()
            .expect("a satellite with passes has a sampling predictor");
        let mut pass_rng = rng.fork_indexed("pass", pass_idx as u64);

        if pieces.is_empty() {
            // Uncovered pass: no station listened, so no receptions — but
            // the theoretical window still exists and extends the
            // measured inter-contact gaps (paper Fig 4b), so record it.
            let tca_rel = cp.pass.tca.seconds_since(start);
            let wx = weather.at(SimTime::from_secs(tca_rel));
            // Count emissions with the same per-satellite beacon phase
            // the covered branch uses — a truncated `duration / interval`
            // denominator would bias the Fig 4b gap/ratio statistics
            // between covered and uncovered windows.
            let phase = (sat.sat_id as f64 * 1.37) % sat.beacon_interval_s;
            let transmitted = beacon_times(&cp.pass, sat.beacon_interval_s, phase).len();
            results.passes.push(SitePassRecord {
                site: site.code,
                constellation: sat.constellation,
                sat_id: sat.sat_id,
                window: EffectiveWindow {
                    theoretical: TheoreticalWindow {
                        start_s: cp.pass.aos.seconds_since(start),
                        end_s: cp.pass.los.seconds_since(start),
                    },
                    first_rx_s: None,
                    last_rx_s: None,
                    received: 0,
                    transmitted,
                },
                covered_s: 0.0,
                station_up: false,
                weather: wx.label(),
                max_elevation_deg: cp.pass.max_elevation_rad.to_degrees(),
                reception_positions: Vec::new(),
            });
            continue;
        }

        let mut budget = LinkBudget::dts_downlink(sat.frequency_mhz, cfg.ground_antenna);
        budget.tx_power_dbm = sat.tx_power_dbm;
        // Per-pass horizon severity: the skyline differs by azimuth.
        let (clo, chi) = calib::CLUTTER_SCALE_RANGE;
        budget.clutter_scale = pass_rng.uniform(clo, chi);
        let beacon_len =
            crate::messages::Message::Beacon(crate::messages::Beacon::nominal(sat.sat_id, 0))
                .phy_payload_len(beacon_cfg.cr);

        // Weather + per-pass shadowing drawn at culmination.
        let tca_rel = cp.pass.tca.seconds_since(start);
        let wx = weather.at(SimTime::from_secs(tca_rel));
        let shadowing = budget.draw_shadowing_db(wx, &mut pass_rng);

        // Beacon emissions across the whole pass (phase per satellite).
        let phase = (sat.sat_id as f64 * 1.37) % sat.beacon_interval_s;
        let emissions = beacon_times(&cp.pass, sat.beacon_interval_s, phase);
        let transmitted = emissions.len();
        BEACONS_EMITTED.add(transmitted as u64);

        let mut received_times_rel: Vec<f64> = Vec::new();
        let mut positions: Vec<f64> = Vec::new();

        // Coverage gates and the listen-efficiency draws, hoisted ahead
        // of the channel work. Every gate is applied in emission order —
        // is any station listening at this instant, is the assigned
        // station powered and online, has it finished retuning to this
        // satellite, and is it free of housekeeping (MQTT sync, OTA,
        // retune; the one stochastic gate) — so the pass RNG stream
        // reads: all listen draws for the pass, then the per-reception
        // fading/decode draws. Moving the listen draws into the channel
        // loop would reorder that stream and change every result.
        heard.clear();
        for t in &emissions {
            let piece = pieces.iter().find(|c| *t >= c.start && *t <= c.end);
            let Some(piece) = piece else { continue };
            if !availability[piece.station as usize].is_up(t.seconds_since(start)) {
                continue;
            }
            if t.seconds_since(piece.start) < calib::STATION_RETUNE_S {
                continue;
            }
            if !pass_rng.chance(calib::STATION_LISTEN_EFFICIENCY) {
                continue;
            }
            heard.push((*t, piece.station));
        }

        for &(t, station) in &heard {
            let Some(geom) = sample_at(predictor, t, sat.frequency_mhz * 1e6) else {
                continue;
            };
            let sample = budget.sample(
                geom.range_km,
                geom.elevation_rad,
                wx,
                shadowing,
                &mut pass_rng,
            );
            let Some(doppler_penalty) = total_penalty_db(
                &beacon_cfg,
                beacon_len,
                geom.doppler_hz,
                geom.doppler_rate_hz_s,
            ) else {
                continue; // Offset beyond sync range.
            };
            let snr = sample.snr_db - doppler_penalty;
            if !packet_decodes(&beacon_cfg, beacon_len, snr, &mut pass_rng) {
                continue;
            }
            BEACONS_DECODED.inc();
            received_times_rel.push(t.seconds_since(start));
            positions.push(cp.pass.normalized_position(t));
            trace_sink.record(BeaconTrace {
                time_s: t.seconds_since(epoch),
                site: site.code.to_string(),
                station,
                constellation: sat.constellation.to_string(),
                sat_id: sat.sat_id,
                rssi_dbm: sample.rssi_dbm,
                snr_db: snr,
                elevation_deg: geom.elevation_rad.to_degrees(),
                distance_km: geom.range_km,
                doppler_hz: geom.doppler_hz,
                weather: wx.label(),
            });
        }

        let theoretical = TheoreticalWindow {
            start_s: cp.pass.aos.seconds_since(start),
            end_s: cp.pass.los.seconds_since(start),
        };
        let window = EffectiveWindow {
            theoretical,
            first_rx_s: received_times_rel.first().copied(),
            last_rx_s: received_times_rel.last().copied(),
            received: received_times_rel.len(),
            transmitted,
        };
        let station_up = piece_for_tca(pieces, cp.pass.tca)
            .map(|c| availability[c.station as usize].is_up(tca_rel))
            .unwrap_or(false);
        results.passes.push(SitePassRecord {
            site: site.code,
            constellation: sat.constellation,
            sat_id: sat.sat_id,
            window,
            covered_s: pieces.iter().map(|c| c.duration_s()).sum(),
            station_up,
            weather: wx.label(),
            max_elevation_deg: cp.pass.max_elevation_rad.to_degrees(),
            reception_positions: positions,
        });
    }

    let out = trace_sink.finish();
    results.traces = out.traces;
    results.sketch = out.sketch;
    results.sink = out.stats;
    results.spill_parts.extend(out.spill);
    results.faults.record_n(Fault::SinkIo, out.io_errors);
    results
}

/// Theoretical daily availability (hours/day) of a constellation over a
/// site: the union of all satellites' above-mask intervals, per day —
/// the paper's Figure 3a quantity.
pub fn theoretical_daily_hours(spec: &ConstellationSpec, site: &Site, days: u32) -> Vec<f64> {
    let epoch = campaign_epoch();
    let start = site.start();
    let end = start + days as f64;
    // Per-satellite pass lists: pooled, through the shared cache (a
    // campaign over the same range reuses them and vice versa).
    let catalog = spec.catalog(epoch);
    let lists = pool::parallel_map(&catalog, |_, sat| {
        // A satellite whose elements fail to build contributes nothing
        // (counted via the `core.faults.sgp4_failures` obs counter)
        // rather than aborting the whole availability analysis.
        let sgp4 = match sat.sgp4() {
            Ok(sgp4) => sgp4,
            Err(_) => {
                let mut log = FaultLog::default();
                log.record(Fault::Sgp4Failure);
                return Arc::new(Vec::new());
            }
        };
        sweep::passes_for(
            PassKey::new(
                site.code,
                sat.constellation,
                sat.sat_id,
                start,
                end,
                calib::THEORETICAL_MASK_RAD,
            ),
            || {
                sweep::predictor(
                    GridKey::new(sat.constellation, sat.sat_id, start, end),
                    &sgp4,
                    site.geodetic(),
                    calib::THEORETICAL_MASK_RAD,
                )
            },
        )
    });
    // Collect all pass intervals (seconds relative to start).
    let mut intervals: Vec<(f64, f64)> = lists
        .iter()
        .flat_map(|l| {
            l.iter()
                .map(|pass| (pass.aos.seconds_since(start), pass.los.seconds_since(start)))
        })
        .collect();
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    // Union sweep.
    let mut union: Vec<(f64, f64)> = Vec::new();
    for (s, e) in intervals {
        match union.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => union.push((s, e)),
        }
    }
    // Slice per day.
    (0..days)
        .map(|d| {
            let day_start = d as f64 * 86_400.0;
            let day_end = day_start + 86_400.0;
            let covered: f64 = union
                .iter()
                .map(|(s, e)| (e.min(day_end) - s.max(day_start)).max(0.0))
                .sum();
            covered / 3_600.0
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use satiot_scenarios::constellations::{fossa, tianqi};
    use satiot_scenarios::sites::measurement_sites;

    fn hk_site() -> Site {
        measurement_sites()
            .into_iter()
            .find(|s| s.code == "HK")
            .unwrap()
    }

    /// A small, fast campaign: one site, FOSSA only, two days.
    fn small_config() -> PassiveConfig {
        PassiveConfig {
            seed: 7,
            max_days: 2.0,
            scheduler: SchedulerKind::Predictive,
            sites: vec![hk_site()],
            constellations: vec![fossa()],
            ground_antenna: AntennaPattern::QuarterWaveMonopole,
        }
    }

    /// Hermetic machine-default options (no environment involvement).
    fn opts() -> RunOptions {
        RunOptions::default()
    }

    #[test]
    fn small_campaign_produces_traces_and_passes() {
        let results = PassiveCampaign::new(small_config()).run(&opts()).unwrap();
        assert!(!results.passes.is_empty(), "no covered passes");
        assert!(!results.traces.is_empty(), "no beacons decoded");
        for t in &results.traces.traces {
            assert_eq!(t.site, "HK");
            assert_eq!(t.constellation, "FOSSA");
            assert!(
                (-150.0..=-100.0).contains(&t.rssi_dbm),
                "rssi {}",
                t.rssi_dbm
            );
            assert!(t.elevation_deg >= -0.5, "elevation {}", t.elevation_deg);
            assert!(t.distance_km > 400.0 && t.distance_km < 3_500.0);
            assert!(t.doppler_hz.abs() < 12_000.0);
        }
    }

    #[test]
    fn campaign_is_deterministic() {
        let a = PassiveCampaign::new(small_config()).run(&opts()).unwrap();
        let b = PassiveCampaign::new(small_config()).run(&opts()).unwrap();
        assert_eq!(a.traces.len(), b.traces.len());
        assert_eq!(a.passes.len(), b.passes.len());
        for (x, y) in a.traces.traces.iter().zip(&b.traces.traces) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = PassiveCampaign::new(small_config()).run(&opts()).unwrap();
        let mut cfg = small_config();
        cfg.seed = 8;
        let b = PassiveCampaign::new(cfg).run(&opts()).unwrap();
        // Scheduler thinning and reception draws both depend on the seed.
        assert_ne!(a.traces.traces, b.traces.traces);
    }

    #[test]
    fn effective_windows_are_shorter_than_theoretical() {
        let mut cfg = small_config();
        cfg.max_days = 4.0;
        let results = PassiveCampaign::new(cfg).run(&opts()).unwrap();
        let stats = results.contact_stats("FOSSA", &[]);
        assert!(stats.total_windows > 0);
        // The headline finding: effective ≪ theoretical.
        assert!(
            stats.duration_shrink > 0.3,
            "shrink {} too small",
            stats.duration_shrink
        );
        assert!(stats.effective_min.mean < stats.theoretical_min.mean);
    }

    #[test]
    fn vanilla_scheduler_captures_fewer_beacons() {
        // The vanilla rotation's weakness only shows when stations must
        // divide attention across many targets: use all 39 satellites.
        let mut cfg = small_config();
        cfg.constellations = all_constellations();
        cfg.max_days = 1.5;
        let pred = PassiveCampaign::new(cfg.clone()).run(&opts()).unwrap();
        cfg.scheduler = SchedulerKind::Vanilla { dwell_s: 600.0 };
        let vanilla = PassiveCampaign::new(cfg).run(&opts()).unwrap();
        assert!(
            (vanilla.traces.len() as f64) < 0.7 * pred.traces.len() as f64,
            "vanilla {} !< 0.7 x predictive {}",
            vanilla.traces.len(),
            pred.traces.len()
        );
    }

    #[test]
    fn theoretical_daily_hours_scale_with_constellation_size() {
        let site = hk_site();
        let fossa_hours = theoretical_daily_hours(&fossa(), &site, 3);
        let tianqi_hours = theoretical_daily_hours(&tianqi(), &site, 3);
        let fossa_mean: f64 = fossa_hours.iter().sum::<f64>() / 3.0;
        let tianqi_mean: f64 = tianqi_hours.iter().sum::<f64>() / 3.0;
        // Paper Fig 3a: FOSSA (3 sats) ≈ 1–3 h/day; Tianqi (22) ≈ 13–19 h.
        assert!((0.3..5.0).contains(&fossa_mean), "FOSSA {fossa_mean} h/day");
        assert!(
            (8.0..24.0).contains(&tianqi_mean),
            "Tianqi {tianqi_mean} h/day"
        );
        assert!(tianqi_mean > 3.0 * fossa_mean);
    }

    #[test]
    fn reception_positions_are_normalized() {
        let results = PassiveCampaign::new(small_config()).run(&opts()).unwrap();
        let pos = results.reception_positions();
        assert!(!pos.is_empty());
        for p in pos {
            assert!((0.0..=1.0).contains(&p));
        }
    }

    /// Pass-record fields that must agree bit-for-bit across drivers.
    fn pass_fingerprint(r: &PassiveResults) -> Vec<(&str, &str, u32, u64, bool, usize, usize)> {
        r.passes
            .iter()
            .map(|p| {
                (
                    p.site,
                    p.constellation,
                    p.sat_id,
                    p.covered_s.to_bits(),
                    p.station_up,
                    p.window.received,
                    p.window.transmitted,
                )
            })
            .collect()
    }

    /// A one-thread run and the pooled satellite-granularity sharding
    /// must produce bit-identical campaigns.
    #[test]
    fn parallel_and_serial_agree() {
        let mut cfg = small_config();
        cfg.sites = measurement_sites()
            .into_iter()
            .filter(|s| matches!(s.code, "HK" | "GZ"))
            .collect();
        cfg.max_days = 1.0;
        let campaign = PassiveCampaign::new(cfg);
        let serial = campaign.run(&opts().with_threads(Some(1))).unwrap();
        let pooled = campaign.run(&opts()).unwrap();
        assert_eq!(serial.traces.len(), pooled.traces.len());
        assert_eq!(serial.passes.len(), pooled.passes.len());
        for (a, b) in serial.traces.traces.iter().zip(&pooled.traces.traces) {
            assert_eq!(a, b);
        }
        assert_eq!(pass_fingerprint(&serial), pass_fingerprint(&pooled));
    }

    /// `station_up` must probe the station of the piece containing TCA
    /// (previously it always probed `pieces.first()`), falling back to
    /// the nearest piece when no piece straddles TCA.
    #[test]
    fn piece_for_tca_selects_the_covering_piece() {
        let jd = |s: f64| JulianDate(2_460_000.0 + s / 86_400.0);
        let piece = |station: u32, start_s: f64, end_s: f64| Coverage {
            pass_idx: 0,
            station,
            start: jd(start_s),
            end: jd(end_s),
        };
        let p0 = piece(0, 0.0, 100.0);
        let p1 = piece(1, 200.0, 400.0);
        let pieces = [&p0, &p1];
        // TCA inside the second piece selects its station, not pieces[0].
        assert_eq!(piece_for_tca(&pieces, jd(300.0)).unwrap().station, 1);
        assert_eq!(piece_for_tca(&pieces, jd(50.0)).unwrap().station, 0);
        // TCA in the gap: nearest piece wins.
        assert_eq!(piece_for_tca(&pieces, jd(120.0)).unwrap().station, 0);
        assert_eq!(piece_for_tca(&pieces, jd(190.0)).unwrap().station, 1);
        // TCA past every piece still resolves (truncated dwell slots).
        assert_eq!(piece_for_tca(&pieces, jd(500.0)).unwrap().station, 1);
        assert!(piece_for_tca(&[], jd(0.0)).is_none());
    }

    /// Uncovered windows must count transmissions with `beacon_times`
    /// (the per-satellite phase included), exactly like covered windows —
    /// not with a truncated `duration / interval` division.
    #[test]
    fn uncovered_windows_use_the_beacon_times_denominator() {
        // One station across all 39 satellites guarantees uncovered passes.
        let mut site = hk_site();
        site.station_count = 1;
        let mut cfg = small_config();
        cfg.sites = vec![site];
        cfg.constellations = all_constellations();
        cfg.max_days = 1.0;
        let results = PassiveCampaign::new(cfg.clone()).run(&opts()).unwrap();
        let uncovered: Vec<_> = results
            .passes
            .iter()
            .filter(|p| p.covered_s == 0.0)
            .collect();
        assert!(
            !uncovered.is_empty(),
            "scenario produced no uncovered passes"
        );

        let epoch = campaign_epoch();
        let intervals: std::collections::HashMap<(&str, u32), f64> = cfg
            .constellations
            .iter()
            .flat_map(|spec| spec.catalog(epoch))
            .map(|sat| ((sat.constellation, sat.sat_id), sat.beacon_interval_s))
            .collect();
        for p in uncovered {
            let interval = intervals[&(p.constellation, p.sat_id)];
            let phase = (p.sat_id as f64 * 1.37) % interval;
            let duration = p.window.theoretical.end_s - p.window.theoretical.start_s;
            let mut expected = 0usize;
            let mut t = phase.rem_euclid(interval);
            while t <= duration {
                expected += 1;
                t += interval;
            }
            // Same counting rule as `beacon_times` (±1 spans the float
            // round-off between the two duration computations).
            assert!(
                (p.window.transmitted as i64 - expected as i64).abs() <= 1,
                "{}-{} transmitted {} expected {expected}",
                p.constellation,
                p.sat_id,
                p.window.transmitted,
            );
            assert_eq!(p.window.received, 0);
        }
    }

    /// A NaN AOS fed through the public scheduling pipeline is dropped
    /// and counted — never a sort panic (the old
    /// `partial_cmp(..).expect("no NaN times")` aborted here).
    #[test]
    fn nan_aos_is_dropped_not_fatal() {
        let jd = |s: f64| JulianDate(2_460_000.0 + s / 86_400.0);
        let pass = |aos: JulianDate, los: JulianDate| Pass {
            aos,
            tca: JulianDate(0.5 * (aos.0 + los.0)),
            los,
            max_elevation_rad: 0.5,
            tca_range_km: 900.0,
        };
        let mut candidates = vec![
            CandidatePass {
                sat_index: 0,
                pass: pass(jd(100.0), jd(400.0)),
            },
            CandidatePass {
                sat_index: 1,
                pass: pass(JulianDate(f64::NAN), jd(900.0)),
            },
            CandidatePass {
                sat_index: 2,
                pass: pass(jd(500.0), jd(500.0)), // Zero duration.
            },
        ];
        let mut faults = FaultLog::default();
        let dropped = sanitize_candidates(&mut candidates, &mut faults);
        assert_eq!(dropped, 2);
        assert_eq!(faults.nan_pass_times, 1);
        assert_eq!(faults.degenerate_passes, 1);
        candidates.sort_by(|a, b| a.pass.aos.0.total_cmp(&b.pass.aos.0));
        // The survivors still schedule cleanly.
        let coverage = PredictiveScheduler.schedule(&candidates, 2);
        assert!(coverage.iter().all(|c| c.pass_idx < candidates.len()));
    }

    #[test]
    fn nan_max_days_is_rejected() {
        let mut cfg = small_config();
        cfg.max_days = f64::NAN;
        let err = PassiveCampaign::new(cfg).run(&opts()).unwrap_err();
        assert!(matches!(
            err,
            SatIotError::NonFiniteTime {
                context: "PassiveConfig.max_days",
                ..
            }
        ));
    }

    #[test]
    fn empty_inputs_are_rejected() {
        let mut cfg = small_config();
        cfg.sites = Vec::new();
        assert!(matches!(
            PassiveCampaign::new(cfg).run(&opts()),
            Err(SatIotError::EmptyPassList { .. })
        ));
        let mut cfg = small_config();
        cfg.constellations = Vec::new();
        assert!(matches!(
            PassiveCampaign::new(cfg).run(&opts()),
            Err(SatIotError::EmptyPassList { .. })
        ));
    }

    #[test]
    fn degenerate_vanilla_dwell_is_rejected() {
        for dwell_s in [0.0, -60.0, f64::NAN] {
            let mut cfg = small_config();
            cfg.scheduler = SchedulerKind::Vanilla { dwell_s };
            assert!(matches!(
                PassiveCampaign::new(cfg).run(&opts()),
                Err(SatIotError::InvalidConfig {
                    field: "dwell_s",
                    ..
                })
            ));
        }
    }

    /// The bounded-memory aggregate sink must retain zero traces while
    /// producing sketches identical to the full-trace run's (both sinks
    /// observe the same decode stream in the same order).
    #[test]
    fn aggregate_sink_retains_nothing_and_matches_full_run() {
        use crate::sink::SinkMode;
        use satiot_measure::stats::nearest_rank_sorted;

        let campaign = PassiveCampaign::new(small_config());
        let full = campaign.run(&opts()).unwrap();
        let agg = campaign
            .run(&opts().with_sink(SinkMode::Aggregate))
            .unwrap();

        assert!(agg.traces.is_empty(), "aggregate sink retained traces");
        assert_eq!(agg.sink.retained, 0);
        assert_eq!(agg.sink.emitted, full.traces.len() as u64);
        assert_eq!(full.sink.retained, full.sink.emitted);
        // Same decode stream → identical sketches (bitwise: PartialEq).
        let full_sketch = full.sketch.as_ref().expect("full run sketches too");
        let agg_sketch = agg.sketch.as_ref().expect("aggregate sketch");
        assert_eq!(full_sketch, agg_sketch);

        // Sketch quantiles sit within the documented band of the exact
        // nearest-rank percentiles of the retained traces.
        let mut rssi = full.traces.rssi_of("FOSSA");
        rssi.sort_by(|a, b| a.total_cmp(b));
        let sketch = &agg_sketch
            .constellation("FOSSA")
            .expect("FOSSA group")
            .rssi_dbm;
        for p in [10.0, 50.0, 90.0] {
            let exact = nearest_rank_sorted(&rssi, p);
            let est = sketch.quantiles.quantile(p);
            assert!(
                (est - exact).abs() <= sketch.quantiles.width() / 2.0 + 1e-9,
                "p{p}: sketch {est} vs exact {exact}"
            );
        }
        // Passes and faults are sink-independent.
        assert_eq!(full.passes.len(), agg.passes.len());
        assert_eq!(full.faults, agg.faults);
    }

    /// The null sink drops everything but still counts emissions, and
    /// the aggregate is identical across one-thread and pooled runs.
    #[test]
    fn null_sink_and_pooled_aggregate_are_consistent() {
        use crate::sink::SinkMode;

        let campaign = PassiveCampaign::new(small_config());
        let null = campaign.run(&opts().with_sink(SinkMode::Null)).unwrap();
        assert!(null.traces.is_empty());
        assert!(null.sketch.is_none());
        assert!(null.sink.emitted > 0, "null sink still counts emissions");
        assert_eq!(null.sink.retained, 0);

        let mut cfg = small_config();
        cfg.sites = measurement_sites()
            .into_iter()
            .filter(|s| matches!(s.code, "HK" | "GZ"))
            .collect();
        cfg.max_days = 1.0;
        let campaign = PassiveCampaign::new(cfg);
        let aggregate = opts().with_sink(SinkMode::Aggregate);
        let serial = campaign.run(&aggregate.with_threads(Some(1))).unwrap();
        let pooled = campaign.run(&aggregate).unwrap();
        // Shards merge in configuration order: bit-identical aggregates.
        assert_eq!(serial.sketch, pooled.sketch);
        assert_eq!(serial.sink, pooled.sink);
    }

    /// A damaged site degrades the campaign (skipped + counted) instead
    /// of poisoning it; the healthy sites still produce output, and the
    /// accounting is identical across one-thread and pooled runs.
    #[test]
    fn damaged_site_is_skipped_and_counted() {
        let mut broken = hk_site();
        broken.lat_deg = f64::NAN;
        let mut cfg = small_config();
        cfg.sites = vec![hk_site(), broken];
        let campaign = PassiveCampaign::new(cfg);
        let serial = campaign.run(&opts().with_threads(Some(1))).unwrap();
        let pooled = campaign.run(&opts()).unwrap();
        for r in [&serial, &pooled] {
            assert_eq!(r.faults.skipped_sites, 1, "{}", r.faults);
            assert!(!r.traces.is_empty(), "healthy site produced nothing");
        }
        assert_eq!(serial.faults, pooled.faults);
        assert_eq!(serial.traces.len(), pooled.traces.len());
    }
}
