//! The active measurement campaign (paper §2.3 / §3.2).
//!
//! Three battery-powered Tianqi nodes on a Yunnan coffee plantation
//! generate 20-byte readings every 30 minutes and push them through the
//! Tianqi constellation to a server in Hong Kong. The discrete-event
//! simulation models the full protocol:
//!
//! * nodes duty-cycle sniff for beacons, engage on a decode, and
//!   transmit slotted uplinks with ≤ 5 retransmissions gated on ACKs;
//! * uplinks from different nodes can collide at the satellite (capture
//!   effect, Fig 12b);
//! * satellites store accepted packets and deliver them once a Chinese
//!   ground station comes into view, plus an operator
//!   processing/batching delay (Fig 5d's delivery segment);
//! * ACKs traverse the lossy downlink, so a successfully received packet
//!   can still be retransmitted (the paper's "contradicting results"
//!   observation).
//!
//! Outputs: the packet ledger, one [`PacketTimeline`] per generated
//! packet (latency decomposition, sequence-ID reliability and
//! retransmission distributions all read it), and per-node energy
//! residencies.

use crate::calib;
use crate::error::{Fault, FaultLog, SatIotError};
use crate::geometry::sample_at;
use crate::messages;
use crate::node::{BeaconReaction, NodeMachine};
use crate::options::RunOptions;
use crate::passive::sanitize_candidates;
use crate::satellite::{merge_contacts, SatellitePayload};
use crate::scheduler::CandidatePass;
use crate::sweep::{self, GridKey};
use satiot_channel::antenna::AntennaPattern;
use satiot_channel::budget::LinkBudget;
use satiot_channel::weather::{Weather, WeatherProcess};
use satiot_energy::accounting::EnergyAccount;
use satiot_energy::profile::{SatNodeMode, SatNodeProfile};
use satiot_measure::latency::PacketTimeline;
use satiot_measure::reliability::Reliability;
use satiot_obs::metrics::{Counter, Timer};
use satiot_orbit::pass::{Pass, PassPredictor};
use satiot_orbit::sgp4::Sgp4;
use satiot_orbit::time::JulianDate;
use satiot_phy::airtime::airtime_s;
use satiot_phy::collision::{sinr_db, Overlap};
use satiot_phy::doppler::{compensated_penalty_db, total_penalty_db};
use satiot_phy::params::LoRaConfig;
use satiot_phy::per::packet_decodes;
use satiot_scenarios::constellations::tianqi;
use satiot_scenarios::sites::{
    campaign_epoch, tianqi_ground_stations, yunnan_farm, Climate, YUNNAN_FARM,
};
use satiot_sim::{pool, Engine, Rng, SimTime};
use std::sync::Arc;

/// Farm passes driving the active campaign's event schedule (metrics).
static FARM_PASSES: Counter = Counter::new("core.active.farm_passes");
/// Wall-clock seconds each *(satellite × ground-station)* contact-plan
/// prediction task took on the sweep pool (metrics).
static CONTACT_PLAN_SHARD_S: Timer = Timer::new("core.active.contact_plan_shard_s");

/// Uplink medium-access policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MacPolicy {
    /// Each node draws a uniform random slot in the response window after
    /// every beacon — what simple DtS systems (and our Tianqi model) do.
    RandomSlot,
    /// Deterministic TDMA: the response window is partitioned and each
    /// node owns slot `id mod slots` — a CosMAC-style constellation-aware
    /// assignment that eliminates intra-footprint collisions among
    /// coordinated nodes (cf. the paper's §3.1 takeaway on collision
    /// management).
    Tdma,
}

/// Active-campaign configuration.
#[derive(Debug, Clone)]
pub struct ActiveConfig {
    /// Root seed.
    pub seed: u64,
    /// Campaign length, days (paper: one month).
    pub days: f64,
    /// Number of deployed nodes (paper: 3).
    pub nodes: u32,
    /// Sensor payload size, bytes (paper default: 20; Fig 12a sweeps it).
    pub payload_bytes: usize,
    /// Sensor period, seconds.
    pub period_s: f64,
    /// Max DtS attempts per packet (1 = retransmission disabled).
    pub max_attempts: u32,
    /// Node antenna (Fig 5b compares ¼-wave and ⅝-wave).
    pub node_antenna: AntennaPattern,
    /// Force constant weather (controlled comparisons); `None` uses the
    /// subtropical farm weather process.
    pub weather_override: Option<Weather>,
    /// Node buffer capacity, packets.
    pub buffer_capacity: usize,
    /// Elevation mask for the operator's ground stations, radians.
    pub gs_mask_rad: f64,
    /// Effective downlink service time per packet, seconds of ground-
    /// station contact. This is the satellite's share of contact capacity
    /// per stored packet (the operator multiplexes every customer's
    /// traffic over the same contacts); ablation A5 sweeps it
    /// into the congested regime.
    pub downlink_service_s: f64,
    /// TLE-based Doppler pre-compensation on every DtS link — the
    /// optimisation the paper's conclusion calls for (ablation A6).
    pub doppler_compensation: bool,
    /// Uplink medium-access policy (extension E2).
    pub mac: MacPolicy,
}

impl Default for ActiveConfig {
    fn default() -> Self {
        ActiveConfig {
            seed: 0xF4A2,
            days: 30.0,
            nodes: 3,
            payload_bytes: calib::SENSOR_PAYLOAD_BYTES,
            period_s: calib::SENSOR_PERIOD_S,
            max_attempts: 1 + calib::MAX_RETRANSMISSIONS,
            node_antenna: AntennaPattern::FiveEighthsWaveMonopole,
            weather_override: None,
            buffer_capacity: calib::NODE_BUFFER_CAPACITY,
            gs_mask_rad: 10.0_f64.to_radians(),
            downlink_service_s: 1.0,
            doppler_compensation: false,
            mac: MacPolicy::RandomSlot,
        }
    }
}

impl ActiveConfig {
    /// A short campaign for tests.
    pub fn quick(days: f64) -> Self {
        ActiveConfig {
            days,
            ..Default::default()
        }
    }

    /// Build an active configuration from a resolved scenario. Unset
    /// scenario fields (`seed`, `max_days`, `nodes`, `traffic`) keep
    /// the paper's defaults. The active campaign's geometry is fixed
    /// (the Yunnan farm uplinking through Tianqi to the operator's
    /// ground stations), so the scenario's site/constellation
    /// selections do not change it; its knobs — population, traffic
    /// model, length, seed — do.
    pub fn from_scenario(scenario: &satiot_scenarios::ResolvedScenario) -> ActiveConfig {
        let mut cfg = ActiveConfig::default();
        if let Some(seed) = scenario.seed {
            cfg.seed = seed;
        }
        if let Some(days) = scenario.max_days {
            cfg.days = days;
        }
        if let Some(nodes) = scenario.nodes {
            cfg.nodes = nodes;
        }
        if let Some(traffic) = &scenario.traffic {
            cfg.payload_bytes = traffic.payload_bytes as usize;
            cfg.period_s = traffic.period_s;
        }
        cfg
    }
}

/// Aggregate campaign counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ActiveCounters {
    /// Beacons transmitted over the farm.
    pub beacons_tx: u64,
    /// Beacons decoded by at least one node.
    pub beacons_heard: u64,
    /// Uplink transmissions.
    pub uplinks_tx: u64,
    /// Uplinks decoded by a satellite.
    pub uplinks_ok: u64,
    /// Uplinks lost to collisions/SINR while another uplink overlapped.
    pub uplinks_collided: u64,
    /// ACKs transmitted by satellites.
    pub acks_tx: u64,
    /// ACKs decoded by nodes.
    pub acks_ok: u64,
    /// Uplinks a satellite decoded again after accepting them: ACK-loss
    /// retransmissions, which the satellite re-ACKs but does not store.
    pub duplicates: u64,
    /// Server arrivals of a sequence already delivered: one packet that
    /// two satellites each accepted and forwarded. The ledger keeps the
    /// earliest arrival.
    pub server_duplicates: u64,
}

/// The campaign output.
#[derive(Debug)]
pub struct ActiveResults {
    /// The packet ledger: one entry per generated packet, indexed by
    /// sequence ID. Only deliveries within the horizon are kept.
    pub timelines: Vec<PacketTimeline>,
    /// Per-node energy residency accounts.
    pub node_energy: Vec<EnergyAccount<SatNodeMode>>,
    /// Aggregate counters.
    pub counters: ActiveCounters,
    /// Node buffer drop ratios.
    pub node_drop_ratio: Vec<f64>,
    /// Campaign length actually simulated, seconds.
    pub horizon_s: f64,
    /// Recoverable input damage survived during the run (clamped config
    /// values, corrupt sequence numbers dropped, …).
    pub faults: FaultLog,
}

impl ActiveResults {
    /// End-to-end delivery ratio.
    pub fn reliability(&self) -> f64 {
        Reliability::compute(&self.timelines).ratio()
    }

    /// Mean attempts per packet that was transmitted at least once.
    pub fn mean_attempts(&self) -> f64 {
        let tx: Vec<&PacketTimeline> = self.timelines.iter().filter(|p| p.attempts > 0).collect();
        if tx.is_empty() {
            0.0
        } else {
            tx.iter().map(|p| p.attempts as f64).sum::<f64>() / tx.len() as f64
        }
    }
}

/// Simulation events.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// A node's sensor fires.
    DataGen { node: usize },
    /// A satellite starts emitting a beacon during a farm pass.
    BeaconTx { pass: usize },
    /// A node's uplink transmission completes at the satellite.
    UplinkEnd {
        node: usize,
        pass: usize,
        seq: u64,
        start_s: f64,
    },
    /// A satellite's ACK completes at the node.
    AckEnd {
        node: usize,
        seq: u64,
        sat: usize,
        pass: usize,
    },
    /// A node's ACK-wait deadline.
    AckTimeout { node: usize, seq: u64 },
    /// A farm pass ends (LOS).
    PassEnd { pass: usize },
}

/// An uplink in flight (for collision resolution).
#[derive(Debug, Clone, Copy)]
struct InFlight {
    node: usize,
    sat: usize,
    seq: u64,
    start_s: f64,
    end_s: f64,
    rssi_dbm: f64,
    snr_db: f64,
}

/// The active campaign driver.
pub struct ActiveCampaign {
    config: ActiveConfig,
}

impl ActiveCampaign {
    /// Create a campaign.
    pub fn new(config: ActiveConfig) -> Self {
        ActiveCampaign { config }
    }

    /// Run the simulation.
    ///
    /// `opts` selects the thread count for the contact-plan sweep. The
    /// grid-backed geometry sampling applies here exactly as in the
    /// passive campaign.
    ///
    /// # Errors
    ///
    /// Returns [`SatIotError`] when the configuration cannot drive the
    /// event loop at all (non-finite `days`, a non-positive sensor
    /// period that would stall the scheduler, non-finite mask/service
    /// values, or catalog elements that fail to build). Out-of-range
    /// but finite values — an elevation mask beyond [0, π/2], a
    /// negative downlink service time, zero `max_attempts` — are
    /// clamped and counted in [`ActiveResults::faults`].
    pub fn run(&self, opts: &RunOptions) -> Result<ActiveResults, SatIotError> {
        let cfg = &self.config;
        validate(cfg)?;
        let threads = opts.threads.unwrap_or_else(pool::thread_count);
        let mut faults = FaultLog::default();
        let t0 = JulianDate::from_calendar(2025, 3, 1, 0, 0, 0.0);
        let horizon_s = cfg.days * 86_400.0;
        let farm = yunnan_farm();
        let root = Rng::from_seed(cfg.seed);

        // Clamp finite-but-out-of-range knobs into their domains.
        let gs_mask_rad = if (0.0..=std::f64::consts::FRAC_PI_2).contains(&cfg.gs_mask_rad) {
            cfg.gs_mask_rad
        } else {
            faults.record(Fault::ClampedConfig);
            cfg.gs_mask_rad.clamp(0.0, std::f64::consts::FRAC_PI_2)
        };
        let downlink_service_s = if cfg.downlink_service_s < 0.0 {
            faults.record(Fault::ClampedConfig);
            0.0
        } else {
            cfg.downlink_service_s
        };
        if cfg.max_attempts == 0 {
            // NodeMachine::with_limits raises this to 1; make the clamp
            // visible in the accounting.
            faults.record(Fault::ClampedConfig);
        }

        // --- Constellation, farm passes, and GS contact plans. ---
        let catalog = tianqi().catalog(campaign_epoch());
        let spec = tianqi();
        let gs_sites = tianqi_ground_stations();

        // Build (and thereby validate) every propagator exactly once;
        // the pool closures below clone these instead of re-deriving —
        // and possibly panicking on — the raw elements.
        let sgp4s: Vec<Sgp4> = catalog
            .iter()
            .map(|sat| sat.sgp4())
            .collect::<Result<_, _>>()
            .map_err(|e| SatIotError::orbit("building Tianqi farm predictors", e))?;
        // The pass lists come from the shared cache, so the 12
        // active-campaign configurations inside `reproduce_all` predict
        // each one exactly once.
        let farm_lists: Vec<Arc<Vec<Pass>>> =
            pool::parallel_map_with(&catalog, threads, |i, sat| {
                let key = GridKey::new(sat.constellation, sat.sat_id, t0, t0 + cfg.days);
                let observer = [(YUNNAN_FARM, farm)];
                let mut lists =
                    sweep::passes_for_sites(key, &sgp4s[i], calib::THEORETICAL_MASK_RAD, &observer);
                lists.pop().expect("one list per site")
            });
        // Geometry sampling during the event loop goes through one
        // predictor per satellite with farm passes (no other is
        // sampled). They are grid-backed over the farm window, sharing
        // the farm sweep's grid `Arc`s without consulting the cull
        // again; instants outside the window fall back to direct SGP4
        // bit-identically.
        let predictors: Vec<Option<PassPredictor>> = catalog
            .iter()
            .zip(&sgp4s)
            .zip(&farm_lists)
            .map(|((sat, sgp4), list)| {
                (!list.is_empty()).then(|| {
                    sweep::gridded_predictor(
                        GridKey::new(sat.constellation, sat.sat_id, t0, t0 + cfg.days),
                        sgp4,
                        farm,
                        calib::THEORETICAL_MASK_RAD,
                    )
                })
            })
            .collect();
        let predictor = |sat: usize| {
            predictors[sat]
                .as_ref()
                .expect("a satellite with farm passes has a sampling predictor")
        };
        let mut farm_passes: Vec<CandidatePass> = Vec::new();
        for (sat_index, list) in farm_lists.iter().enumerate() {
            farm_passes.extend(list.iter().map(|&pass| CandidatePass { sat_index, pass }));
        }
        // Healthy predictors never emit degenerate passes, but externally
        // cached or corrupted lists might; drop and count them so the
        // event schedule below can assume well-formed windows.
        sanitize_candidates(&mut farm_passes, &mut faults);
        farm_passes.sort_by(|a, b| a.pass.aos.0.total_cmp(&b.pass.aos.0));
        FARM_PASSES.add(farm_passes.len() as u64);

        // GS contact plans: one pool task per satellite predicts its
        // passes over all twelve stations in one margin sweep, every
        // list shared through the cache.
        let gs_lists: Vec<Vec<Arc<Vec<Pass>>>> =
            pool::parallel_map_with(&catalog, threads, |i, sat| {
                let _shard_span = CONTACT_PLAN_SHARD_S.start();
                let key = GridKey::new(sat.constellation, sat.sat_id, t0, t0 + cfg.days + 1.0);
                sweep::passes_for_sites(key, &sgp4s[i], gs_mask_rad, &gs_sites)
            });
        let contact_plans: Vec<Vec<(f64, f64)>> = gs_lists
            .iter()
            .map(|lists| {
                let intervals = lists.iter().flat_map(|list| list.iter());
                merge_contacts(
                    intervals
                        .map(|pass| (pass.aos.seconds_since(t0), pass.los.seconds_since(t0)))
                        .collect(),
                )
            })
            .collect();

        let mut sats: Vec<SatellitePayload> = contact_plans
            .into_iter()
            .enumerate()
            .map(|(i, plan)| SatellitePayload::new(i as u32, plan))
            .collect();

        // --- Weather. ---
        let weather = match cfg.weather_override {
            Some(w) => WeatherProcess::constant(w),
            None => WeatherProcess::generate(
                &Climate::Subtropical.weather_params(),
                SimTime::from_secs(horizon_s),
                &mut root.fork("weather"),
            ),
        };

        // --- Link budgets and airtimes. ---
        let beacon_cfg = LoRaConfig::dts_beacon();
        let uplink_cfg = LoRaConfig::dts_uplink();
        let downlink = LinkBudget::dts_downlink(spec.dts_frequency_mhz, cfg.node_antenna);
        let uplink = LinkBudget::dts_uplink(spec.dts_frequency_mhz, cfg.node_antenna);
        let beacon_len = messages::BEACON_ON_AIR_BYTES;
        let ack_len = messages::ACK_ON_AIR_BYTES;
        let uplink_len = messages::uplink_on_air_bytes(cfg.payload_bytes);
        let beacon_airtime = airtime_s(&beacon_cfg, beacon_len);
        let ack_airtime = airtime_s(&beacon_cfg, ack_len);
        let uplink_airtime = airtime_s(&uplink_cfg, uplink_len);

        // --- Nodes and bookkeeping. ---
        // Listen plan: the operator distributes pass predictions; nodes
        // open their receivers only for passes culminating above the
        // plan threshold.
        let plan: Vec<(f64, f64)> = {
            let trim = calib::LISTEN_PLAN_TRIM_EL_DEG.to_radians();
            let mut intervals: Vec<(f64, f64)> = Vec::new();
            for CandidatePass { sat_index, pass: p } in &farm_passes {
                if p.max_elevation_rad.to_degrees() < calib::LISTEN_PLAN_MIN_MAX_EL_DEG {
                    continue;
                }
                // Trim the window to the above-threshold arc: the
                // (unimodal) elevation crosses the threshold once on each
                // flank, and a flank wholly above it listens from its end.
                let predictor = predictor(*sat_index);
                let rise = predictor.crossing(p.aos, p.tca, trim).unwrap_or(p.aos);
                let fall = predictor.crossing(p.tca, p.los, trim).unwrap_or(p.los);
                intervals.push((rise.seconds_since(t0), fall.seconds_since(t0)));
            }
            intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
            merge_contacts(intervals)
        };
        let mut nodes: Vec<NodeMachine> = (0..cfg.nodes)
            .map(|i| {
                let mut n = NodeMachine::with_limits(i, cfg.buffer_capacity, cfg.max_attempts);
                n.listen_plan = plan.clone();
                n
            })
            .collect();
        let mut timelines: Vec<PacketTimeline> = Vec::new();
        let mut in_flight: Vec<InFlight> = Vec::new();
        let mut counters = ActiveCounters::default();
        let mut rng = root.fork("events");

        // Doppler penalty under the configured compensation mode.
        let doppler_penalty = |cfg_lora: &LoRaConfig, len: usize, off: f64, rate: f64| {
            if cfg.doppler_compensation {
                compensated_penalty_db(cfg_lora, len, off, rate)
            } else {
                total_penalty_db(cfg_lora, len, off, rate)
            }
        };
        // Per-(pass, node) shadowing — a pure function of the seed so
        // event order cannot perturb it.
        let shadow = |pass: usize, node: usize, wx: Weather, budget: &LinkBudget| -> f64 {
            let mut r = root.fork_indexed("shadow", ((pass as u64) << 8) | node as u64);
            budget.draw_shadowing_db(wx, &mut r)
        };
        // Per-(pass, node) horizon severity (plantation skylines differ
        // by azimuth), also order-independent.
        let clutter = |pass: usize, node: usize| -> f64 {
            let mut r = root.fork_indexed("clutter", ((pass as u64) << 8) | node as u64);
            let (lo, hi) = calib::CLUTTER_SCALE_RANGE;
            r.uniform(lo, hi)
        };

        // --- Seed the event queue. ---
        let mut engine: Engine<Event> = Engine::new();
        for n in 0..cfg.nodes as usize {
            // Nodes boot staggered over the first minute.
            engine.schedule_at(
                SimTime::from_secs(n as f64 * 17.0),
                Event::DataGen { node: n },
            );
        }
        for (idx, CandidatePass { sat_index, pass }) in farm_passes.iter().enumerate() {
            let aos_s = pass.aos.seconds_since(t0);
            let phase = (*sat_index as f64 * 1.37) % spec.beacon_interval_s;
            engine.schedule_at(
                SimTime::from_secs(aos_s + phase),
                Event::BeaconTx { pass: idx },
            );
            engine.schedule_at(
                SimTime::from_secs(pass.los.seconds_since(t0)),
                Event::PassEnd { pass: idx },
            );
        }

        // --- Main loop. ---
        let end = SimTime::from_secs(horizon_s);
        engine.run_until(end, |eng, now, event| {
            let t = now.as_secs();
            let wx = cfg.weather_override.unwrap_or_else(|| weather.at(now));
            match event {
                Event::DataGen { node } => {
                    let seq = timelines.len() as u64;
                    timelines.push(PacketTimeline {
                        node: node as u32,
                        attempts: 0,
                        generated_s: t,
                        first_tx_s: None,
                        sat_rx_s: None,
                        delivered_s: None,
                    });
                    nodes[node].on_data(seq, t);
                    eng.schedule_in(cfg.period_s, Event::DataGen { node });
                }
                Event::BeaconTx { pass } => {
                    counters.beacons_tx += 1;
                    let CandidatePass {
                        sat_index: sat,
                        pass: p,
                    } = farm_passes[pass];
                    let t_rx = t + beacon_airtime;
                    let when = t0.plus_seconds(t_rx);
                    // The beacon's geometry, computed at the first node
                    // that can hear it: it draws no random number, so
                    // skipping it for a beacon nobody hears moves nothing.
                    let mut geometry = None;
                    let mut heard = false;
                    #[allow(clippy::needless_range_loop)] // Index is a node id used in events.
                    for n in 0..nodes.len() {
                        // Half-duplex: a transmitting node cannot hear.
                        let busy = in_flight
                            .iter()
                            .any(|u| u.node == n && t_rx >= u.start_s && t_rx <= u.end_s);
                        if busy || !nodes[n].is_listening(t) {
                            continue;
                        }
                        let Some(geom) = *geometry.get_or_insert_with(|| {
                            sample_at(predictor(sat), when, spec.dts_frequency_mhz * 1e6)
                        }) else {
                            break; // No geometry: no node hears the beacon.
                        };
                        let mut link = downlink;
                        link.clutter_scale = clutter(pass, n);
                        let sh = shadow(pass, n, wx, &link);
                        let s = link.sample(geom.range_km, geom.elevation_rad, wx, sh, &mut rng);
                        let Some(pen) = doppler_penalty(
                            &beacon_cfg,
                            beacon_len,
                            geom.doppler_hz,
                            geom.doppler_rate_hz_s,
                        ) else {
                            continue;
                        };
                        if !packet_decodes(&beacon_cfg, beacon_len, s.snr_db - pen, &mut rng) {
                            continue;
                        }
                        heard = true;
                        let pass_end_s = p.los.seconds_since(t0);
                        match nodes[n].on_beacon(t_rx, pass_end_s) {
                            BeaconReaction::Idle => {}
                            BeaconReaction::Transmit { seq, .. } => {
                                // A corrupted sequence number cannot
                                // index the ledger: drop the
                                // transmission, count it, move on.
                                let Some(rec) = timelines.get_mut(seq as usize) else {
                                    faults.record(Fault::CorruptSeq);
                                    continue;
                                };
                                // Slotted uplink inside the response
                                // window following the beacon.
                                let max_slot = (calib::UPLINK_RESPONSE_WINDOW_S
                                    .min(spec.beacon_interval_s)
                                    - uplink_airtime
                                    - 0.3)
                                    .max(0.1);
                                let slot = match cfg.mac {
                                    MacPolicy::RandomSlot => rng.uniform(0.05, max_slot),
                                    MacPolicy::Tdma => {
                                        // Own a fixed fraction of the
                                        // window; nudge inside it to
                                        // absorb clock skew.
                                        let width = max_slot / cfg.nodes.max(1) as f64;
                                        0.05 + width * n as f64
                                            + rng.uniform(
                                                0.0,
                                                (width - uplink_airtime).clamp(0.01, 0.2),
                                            )
                                    }
                                };
                                let start = t_rx + slot;
                                nodes[n].on_transmit(start, uplink_airtime);
                                rec.attempts += 1;
                                if rec.first_tx_s.is_none() {
                                    rec.first_tx_s = Some(start);
                                }
                                counters.uplinks_tx += 1;
                                // Sample the uplink as received on orbit.
                                let up_when = t0.plus_seconds(start);
                                if let Some(up_geom) =
                                    sample_at(predictor(sat), up_when, spec.dts_frequency_mhz * 1e6)
                                {
                                    let mut up_link = uplink;
                                    up_link.clutter_scale = clutter(pass, n);
                                    let sh_up = shadow(pass, n, wx, &up_link);
                                    let us = up_link.sample(
                                        up_geom.range_km,
                                        up_geom.elevation_rad,
                                        wx,
                                        sh_up,
                                        &mut rng,
                                    );
                                    let pen_up = doppler_penalty(
                                        &uplink_cfg,
                                        uplink_len,
                                        up_geom.doppler_hz,
                                        up_geom.doppler_rate_hz_s,
                                    );
                                    let end_s = start + uplink_airtime;
                                    in_flight.push(InFlight {
                                        node: n,
                                        sat,
                                        seq,
                                        start_s: start,
                                        end_s,
                                        rssi_dbm: us.rssi_dbm,
                                        snr_db: us.snr_db - pen_up.unwrap_or(99.0),
                                    });
                                    eng.schedule_at(
                                        SimTime::from_secs(end_s),
                                        Event::UplinkEnd {
                                            node: n,
                                            pass,
                                            seq,
                                            start_s: start,
                                        },
                                    );
                                }
                                eng.schedule_at(
                                    SimTime::from_secs(
                                        start + uplink_airtime + calib::ACK_TIMEOUT_S,
                                    ),
                                    Event::AckTimeout { node: n, seq },
                                );
                            }
                        }
                    }
                    if heard {
                        counters.beacons_heard += 1;
                    }
                    // Next beacon within the pass.
                    let next = t + spec.beacon_interval_s;
                    if next < p.los.seconds_since(t0) {
                        eng.schedule_at(SimTime::from_secs(next), Event::BeaconTx { pass });
                    }
                }
                Event::UplinkEnd {
                    node,
                    pass,
                    seq,
                    start_s,
                } => {
                    // Pull this transmission out of the in-flight set.
                    let Some(pos) = in_flight.iter().position(|u| {
                        u.node == node && u.seq == seq && (u.start_s - start_s).abs() < 1e-9
                    }) else {
                        return;
                    };
                    let me = in_flight.remove(pos);
                    // Interferers: any other uplink overlapping in time at
                    // the same satellite (all on the shared DtS channel).
                    let mut others: Vec<Overlap> = in_flight
                        .iter()
                        .filter(|u| u.sat == me.sat && u.start_s < me.end_s && u.end_s > me.start_s)
                        .map(|u| Overlap {
                            rssi_dbm: u.rssi_dbm,
                            sf: uplink_cfg.sf,
                        })
                        .collect();
                    // Background traffic from the rest of the footprint:
                    // thousands of third-party devices share the channel
                    // (the paper's congestion/collision loss mechanism).
                    let bg_prob =
                        (calib::BACKGROUND_COLLISION_RATE_PER_S * uplink_airtime).min(0.9);
                    if rng.chance(bg_prob) {
                        let (lo, hi) = calib::BACKGROUND_RSSI_DBM;
                        others.push(Overlap {
                            rssi_dbm: rng.uniform(lo, hi),
                            sf: uplink_cfg.sf,
                        });
                    }
                    let effective_snr = if others.is_empty() {
                        me.snr_db
                    } else {
                        // Interference-limited SINR, preserving the fading
                        // already folded into snr_db via the noise-limited
                        // term: take the min of the two regimes.
                        let sinr = sinr_db(
                            me.rssi_dbm,
                            uplink_cfg.sf,
                            &others,
                            uplink.noise_floor_dbm(),
                        );
                        sinr.min(me.snr_db)
                    };
                    let ok = packet_decodes(&uplink_cfg, uplink_len, effective_snr, &mut rng);
                    if !ok {
                        if !others.is_empty() {
                            counters.uplinks_collided += 1;
                        }
                        return;
                    }
                    counters.uplinks_ok += 1;
                    match sats[me.sat].accept_uplink(me.node as u32, seq, t) {
                        None => { /* Satellite buffer full: no ACK. */ }
                        Some(is_new) => {
                            let Some(rec) = timelines.get_mut(seq as usize) else {
                                // Wire-path damage: the stored sequence
                                // does not map to a generated packet.
                                faults.record(Fault::CorruptSeq);
                                return;
                            };
                            if rec.sat_rx_s.is_none() {
                                rec.sat_rx_s = Some(t);
                            }
                            // Every satellite that newly accepted this
                            // sequence forwards its own copy; the server
                            // keeps the earliest. Delivery queues through the
                            // satellite's shared downlink (finite contact
                            // capacity), then the operator's processing
                            // pipeline — minus its residual loss (downlink
                            // corruption / expiry), which frees the packet's
                            // buffer slot at once.
                            if is_new && rng.chance(1.0 - calib::DELIVERY_LOSS_PROB) {
                                if let Some(done) =
                                    sats[me.sat].schedule_downlink(t, downlink_service_s)
                                {
                                    let proc = rng.exponential(calib::DELIVERY_PROCESSING_MEAN_S);
                                    let d = done + proc;
                                    rec.delivered_s = Some(match rec.delivered_s {
                                        Some(old) => {
                                            counters.server_duplicates += 1;
                                            old.min(d)
                                        }
                                        None => d,
                                    });
                                }
                            } else if is_new {
                                sats[me.sat].free_newest_at(t);
                            }
                            // ACK after turnaround.
                            counters.acks_tx += 1;
                            eng.schedule_at(
                                SimTime::from_secs(t + calib::ACK_TURNAROUND_S + ack_airtime),
                                Event::AckEnd {
                                    node: me.node,
                                    seq,
                                    sat: me.sat,
                                    pass,
                                },
                            );
                        }
                    }
                }
                Event::AckEnd {
                    node,
                    seq,
                    sat,
                    pass,
                } => {
                    let when = t0.plus_seconds(t);
                    if let Some(geom) =
                        sample_at(predictor(sat), when, spec.dts_frequency_mhz * 1e6)
                    {
                        let mut link = downlink;
                        link.clutter_scale = clutter(pass, node);
                        let sh = shadow(pass, node, wx, &link);
                        let s = link.sample(geom.range_km, geom.elevation_rad, wx, sh, &mut rng);
                        let pen = doppler_penalty(
                            &beacon_cfg,
                            ack_len,
                            geom.doppler_hz,
                            geom.doppler_rate_hz_s,
                        );
                        let snr = s.snr_db + calib::ACK_TX_POWER_DELTA_DB - pen.unwrap_or(99.0);
                        if nodes[node].is_listening(t)
                            && packet_decodes(&beacon_cfg, ack_len, snr, &mut rng)
                        {
                            counters.acks_ok += 1;
                            nodes[node].on_ack(seq, t);
                        }
                    }
                }
                Event::AckTimeout { node, seq } => {
                    nodes[node].on_ack_timeout(seq, t);
                }
                Event::PassEnd { pass } => {
                    let p = farm_passes[pass].pass;
                    let los_s = p.los.seconds_since(t0);
                    for n in nodes.iter_mut() {
                        n.on_pass_end(los_s);
                    }
                }
            }
        });

        // --- Finalise node accounting. ---
        let mut node_energy = Vec::new();
        let mut node_drop_ratio = Vec::new();
        for node in nodes.iter_mut() {
            node.finalize(horizon_s);
            let mut acc = EnergyAccount::new();
            let profile = SatNodeProfile;
            let tx = node.tx_airtime_s;
            let rx = (node.engaged_s - tx).max(0.0) + node.plan_rx_s();
            let sleep = (horizon_s - tx - rx).max(0.0);
            acc.record(&profile, SatNodeMode::McuTx, tx);
            acc.record(&profile, SatNodeMode::McuRx, rx);
            acc.record(&profile, SatNodeMode::Sleep, sleep);
            node_energy.push(acc);
            node_drop_ratio.push(node.buffer.drop_ratio());
        }

        // Only deliveries within the horizon count (the paper's matching
        // window).
        for rec in &mut timelines {
            rec.delivered_s = rec.delivered_s.filter(|d| *d <= horizon_s);
        }
        counters.duplicates = sats.iter().map(|s| s.duplicates).sum();

        Ok(ActiveResults {
            timelines,
            node_energy,
            counters,
            node_drop_ratio,
            horizon_s,
            faults,
        })
    }
}

/// Reject configurations the event loop cannot run at all.
fn validate(cfg: &ActiveConfig) -> Result<(), SatIotError> {
    if !cfg.days.is_finite() {
        return Err(SatIotError::NonFiniteTime {
            context: "ActiveConfig.days",
            value: cfg.days,
        });
    }
    if cfg.days < 0.0 {
        return Err(SatIotError::InvalidConfig {
            field: "days",
            value: cfg.days,
            requirement: "finite and >= 0",
        });
    }
    if !(cfg.period_s.is_finite() && cfg.period_s > 0.0) {
        return Err(SatIotError::InvalidConfig {
            field: "period_s",
            value: cfg.period_s,
            requirement: "finite and > 0 (a zero period would stall the event loop)",
        });
    }
    if !cfg.gs_mask_rad.is_finite() {
        return Err(SatIotError::InvalidConfig {
            field: "gs_mask_rad",
            value: cfg.gs_mask_rad,
            requirement: "finite radians",
        });
    }
    if !cfg.downlink_service_s.is_finite() {
        return Err(SatIotError::InvalidConfig {
            field: "downlink_service_s",
            value: cfg.downlink_service_s,
            requirement: "finite seconds",
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use satiot_measure::latency::LatencyBreakdown;

    /// The listen-plan trim's crossing call: each flank of a high pass
    /// crosses the threshold once, and a flank that does not cross it
    /// listens from its endpoint.
    #[test]
    fn listen_plan_trim_finds_the_crossing() {
        use satiot_orbit::elements::Elements;
        let epoch = JulianDate::from_calendar(2025, 3, 1, 0, 0, 0.0);
        let sgp4 = Elements::circular(860.0, 49.97, epoch).to_sgp4().unwrap();
        let predictor = PassPredictor::new(sgp4, yunnan_farm(), 0.0);
        let pass = predictor
            .passes(epoch, epoch + 6.0)
            .into_iter()
            .find(|p| p.max_elevation_rad.to_degrees() > 40.0)
            .expect("a high pass within six days");
        let threshold = 20.0_f64.to_radians();
        let rise = predictor
            .crossing(pass.aos, pass.tca, threshold)
            .expect("a rise");
        let fall = predictor
            .crossing(pass.tca, pass.los, threshold)
            .expect("a fall");
        assert!(rise > pass.aos && rise < pass.tca);
        assert!(fall > pass.tca && fall < pass.los);
        let el_rise = predictor.elevation_at(rise).to_degrees();
        let el_fall = predictor.elevation_at(fall).to_degrees();
        assert!((el_rise - 20.0).abs() < 0.3, "rise el {el_rise}");
        assert!((el_fall - 20.0).abs() < 0.3, "fall el {el_fall}");
        // A flank entirely above the threshold does not cross it, and
        // the trim listens from its endpoint.
        assert_eq!(predictor.crossing(pass.tca, pass.tca, threshold), None);
        let above = pass.tca.plus_seconds(-10.0);
        assert_eq!(predictor.crossing(above, pass.tca, threshold), None);
    }

    fn quick_results(days: f64, seed: u64) -> ActiveResults {
        let mut cfg = ActiveConfig::quick(days);
        cfg.seed = seed;
        ActiveCampaign::new(cfg)
            .run(&RunOptions::default())
            .unwrap()
    }

    #[test]
    fn campaign_moves_data_end_to_end() {
        let r = quick_results(3.0, 1);
        // 3 nodes × 48 packets/day × 3 days ≈ 432 generated.
        let sent = r.timelines.len();
        assert!((400..=440).contains(&sent), "sent {sent}");
        assert!(
            r.counters.beacons_tx > 1_000,
            "beacons {}",
            r.counters.beacons_tx
        );
        assert!(r.counters.uplinks_tx > 0);
        assert!(r.counters.uplinks_ok > 0);
        assert!(
            r.timelines.iter().any(|p| p.delivered_s.is_some()),
            "nothing delivered"
        );
        let rel = r.reliability();
        assert!(rel > 0.5, "reliability {rel}");
    }

    #[test]
    fn campaign_is_deterministic() {
        let a = quick_results(2.0, 9);
        let b = quick_results(2.0, 9);
        assert_eq!(a.timelines, b.timelines);
        assert_eq!(a.counters.uplinks_tx, b.counters.uplinks_tx);
        assert_eq!(a.counters.acks_ok, b.counters.acks_ok);
    }

    #[test]
    fn latency_has_the_papers_three_segments() {
        let r = quick_results(4.0, 2);
        let b = LatencyBreakdown::compute(&r.timelines);
        assert!(b.delivered > 0);
        // Waiting for a pass dominates generation→first-tx; it must be
        // tens of minutes on average, not seconds.
        assert!(b.wait_min.mean > 5.0, "wait {}", b.wait_min.mean);
        // Delivery (GS wait + processing) is also tens of minutes.
        assert!(
            b.delivery_min.mean > 5.0,
            "delivery {}",
            b.delivery_min.mean
        );
        // End-to-end is hour-scale (paper: 135 min) — far above terrestrial.
        assert!(
            b.end_to_end_min.mean > 30.0,
            "e2e {}",
            b.end_to_end_min.mean
        );
        // Segments are consistent.
        let sum = b.wait_min.mean + b.dts_min.mean + b.delivery_min.mean;
        assert!(
            (sum - b.end_to_end_min.mean).abs() / b.end_to_end_min.mean < 0.25,
            "sum {sum} vs e2e {}",
            b.end_to_end_min.mean
        );
    }

    #[test]
    fn retransmissions_improve_reliability() {
        let mut no_retx = ActiveConfig::quick(3.0);
        no_retx.max_attempts = 1;
        no_retx.seed = 5;
        let r1 = ActiveCampaign::new(no_retx)
            .run(&RunOptions::default())
            .unwrap();
        let mut with_retx = ActiveConfig::quick(3.0);
        with_retx.max_attempts = 6;
        with_retx.seed = 5;
        let r6 = ActiveCampaign::new(with_retx)
            .run(&RunOptions::default())
            .unwrap();
        assert!(
            r6.reliability() >= r1.reliability(),
            "retx {} !>= none {}",
            r6.reliability(),
            r1.reliability()
        );
        assert!(r6.mean_attempts() >= r1.mean_attempts());
    }

    #[test]
    fn ack_loss_causes_duplicates() {
        let r = quick_results(4.0, 3);
        // The paper's observation: ACK loss triggers unnecessary
        // retransmissions, visible as duplicate receptions on orbit.
        assert!(
            r.counters.acks_tx > r.counters.acks_ok,
            "acks {} vs ok {}",
            r.counters.acks_tx,
            r.counters.acks_ok
        );
        assert!(r.counters.duplicates > 0, "no duplicates observed");
    }

    #[test]
    fn energy_has_all_three_modes() {
        let r = quick_results(2.0, 4);
        for acc in &r.node_energy {
            assert!(acc.time_s(SatNodeMode::Sleep) > 0.0);
            assert!(acc.time_s(SatNodeMode::McuRx) > 0.0);
            assert!(acc.time_s(SatNodeMode::McuTx) > 0.0);
            // Residency sums to the horizon.
            assert!((acc.total_time_s() - r.horizon_s).abs() < 1.0);
            // Rx dominates radio time (the paper's §3.2 finding).
            assert!(acc.time_s(SatNodeMode::McuRx) > acc.time_s(SatNodeMode::McuTx));
        }
    }

    #[test]
    fn degenerate_configs_are_rejected_with_typed_errors() {
        let mut cfg = ActiveConfig::quick(1.0);
        cfg.period_s = 0.0;
        assert!(matches!(
            ActiveCampaign::new(cfg)
                .run(&RunOptions::default())
                .unwrap_err(),
            SatIotError::InvalidConfig {
                field: "period_s",
                ..
            }
        ));
        let mut cfg = ActiveConfig::quick(f64::NAN);
        cfg.seed = 1;
        assert!(matches!(
            ActiveCampaign::new(cfg)
                .run(&RunOptions::default())
                .unwrap_err(),
            SatIotError::NonFiniteTime {
                context: "ActiveConfig.days",
                ..
            }
        ));
        let mut cfg = ActiveConfig::quick(1.0);
        cfg.gs_mask_rad = f64::INFINITY;
        assert!(matches!(
            ActiveCampaign::new(cfg)
                .run(&RunOptions::default())
                .unwrap_err(),
            SatIotError::InvalidConfig {
                field: "gs_mask_rad",
                ..
            }
        ));
    }

    #[test]
    fn out_of_range_configs_are_clamped_and_counted() {
        let mut cfg = ActiveConfig::quick(0.5);
        cfg.gs_mask_rad = 2.0; // Above zenith.
        cfg.downlink_service_s = -3.0;
        cfg.max_attempts = 0;
        let r = ActiveCampaign::new(cfg)
            .run(&RunOptions::default())
            .unwrap();
        assert_eq!(r.faults.clamped_configs, 3, "{}", r.faults);
        // The campaign still ran to its horizon.
        assert!((r.horizon_s - 0.5 * 86_400.0).abs() < 1e-6);
    }

    #[test]
    fn zero_nodes_run_to_an_empty_campaign() {
        let mut cfg = ActiveConfig::quick(0.5);
        cfg.nodes = 0;
        let r = ActiveCampaign::new(cfg)
            .run(&RunOptions::default())
            .unwrap();
        assert!(r.timelines.is_empty());
        assert!(r.node_energy.is_empty());
    }

    #[test]
    fn better_antenna_needs_fewer_attempts() {
        let mut quarter = ActiveConfig::quick(3.0);
        quarter.node_antenna = AntennaPattern::QuarterWaveMonopole;
        quarter.seed = 11;
        let rq = ActiveCampaign::new(quarter)
            .run(&RunOptions::default())
            .unwrap();
        let mut five8 = ActiveConfig::quick(3.0);
        five8.node_antenna = AntennaPattern::FiveEighthsWaveMonopole;
        five8.seed = 11;
        let rf = ActiveCampaign::new(five8)
            .run(&RunOptions::default())
            .unwrap();
        assert!(
            rf.mean_attempts() <= rq.mean_attempts() + 0.05,
            "5/8 {} vs 1/4 {}",
            rf.mean_attempts(),
            rq.mean_attempts()
        );
    }
}
