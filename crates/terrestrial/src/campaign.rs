//! The terrestrial baseline campaign.
//!
//! Three sensors report through three LoRaWAN gateways (300 m – 2 km
//! links) with LTE backhaul. Gateway diversity means a packet is lost
//! only if *every* gateway misses it, which at these link margins makes
//! the paper's ≈ 100 % end-to-end reliability emerge rather than being
//! asserted.

use crate::backhaul::delivery_delay_s;
use crate::node::{account_for, DutyCycleParams, LORAWAN_OVERHEAD_BYTES};
use satiot_channel::budget::LinkBudget;
use satiot_channel::weather::WeatherProcess;
use satiot_core::error::{Fault, FaultLog, SatIotError};
use satiot_core::station::{AvailabilityParams, StationAvailability};
use satiot_energy::accounting::EnergyAccount;
use satiot_energy::profile::TerrestrialMode;
use satiot_measure::latency::PacketTimeline;
use satiot_measure::reliability::SentPacket;
use satiot_phy::params::LoRaConfig;
use satiot_phy::per::packet_decodes;
use satiot_scenarios::{OutageWindow, ResolvedScenario};
use satiot_sim::{Rng, SimTime};

use std::collections::HashSet;

/// Terrestrial campaign configuration (mirrors the satellite campaign's
/// knobs so comparisons sweep both sides identically).
#[derive(Debug, Clone)]
pub struct TerrestrialConfig {
    /// Root seed.
    pub seed: u64,
    /// Campaign length, days.
    pub days: f64,
    /// Sensor nodes.
    pub nodes: u32,
    /// Gateways receiving each uplink.
    pub gateways: u32,
    /// Application payload, bytes.
    pub payload_bytes: usize,
    /// Reporting period, seconds.
    pub period_s: f64,
    /// Node → gateway distances, km (per gateway; cycled if fewer than
    /// `gateways`).
    pub gateway_distance_km: Vec<f64>,
    /// Long-run gateway uptime ∈ (0, 1]; 1.0 models the paper's mains-
    /// powered, professionally sited gateways, lower values the remote
    /// solar-powered reality (extension E4, `extension_gateways`).
    pub gateway_uptime: f64,
    /// Scripted outage windows (seconds since campaign start) during
    /// which the whole terrestrial path — gateways and backhaul — is
    /// down, modelling a disaster scenario (`exp_disrupted`). The gate
    /// is applied *after* every stochastic draw, so an empty list is
    /// bit-identical to the pre-outage baseline.
    pub outages: Vec<OutageWindow>,
}

impl Default for TerrestrialConfig {
    fn default() -> Self {
        TerrestrialConfig {
            seed: 0x7E44,
            days: 30.0,
            nodes: 3,
            gateways: 3,
            payload_bytes: 20,
            period_s: 1_800.0,
            gateway_distance_km: vec![0.4, 1.1, 2.0],
            gateway_uptime: 1.0,
            outages: Vec::new(),
        }
    }
}

impl TerrestrialConfig {
    /// Build a terrestrial configuration from a resolved scenario.
    /// Unset scenario fields keep the paper's Yunnan baseline defaults;
    /// the scenario's outage windows script the disrupted-comms case
    /// study.
    pub fn from_scenario(scenario: &ResolvedScenario) -> TerrestrialConfig {
        let mut cfg = TerrestrialConfig::default();
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
        if let Some(t) = &scenario.terrestrial {
            cfg.gateways = t.gateways;
            cfg.gateway_distance_km = t.distances_km.clone();
            cfg.gateway_uptime = t.gateway_uptime;
        }
        cfg.outages = scenario.outages.clone();
        cfg
    }
}

/// Terrestrial campaign output (same record types as the satellite
/// campaign).
#[derive(Debug)]
pub struct TerrestrialResults {
    /// Per-packet timelines.
    pub timelines: Vec<PacketTimeline>,
    /// Sent-packet records.
    pub sent: Vec<SentPacket>,
    /// Delivered sequence IDs.
    pub delivered_seqs: HashSet<u64>,
    /// Per-node energy accounts.
    pub node_energy: Vec<EnergyAccount<TerrestrialMode>>,
    /// Campaign horizon, seconds.
    pub horizon_s: f64,
    /// Recoverable input damage survived by clamping (out-of-domain
    /// uptimes and distances), mirrored into `core.faults.*` counters —
    /// the same accounting contract the satellite campaigns honour.
    pub faults: FaultLog,
}

impl TerrestrialResults {
    /// End-to-end delivery ratio.
    pub fn reliability(&self) -> f64 {
        satiot_measure::reliability::Reliability::compute(&self.sent, &self.delivered_seqs).ratio()
    }
}

/// The terrestrial campaign driver.
pub struct TerrestrialCampaign {
    config: TerrestrialConfig,
}

impl TerrestrialCampaign {
    /// Create a campaign.
    pub fn new(config: TerrestrialConfig) -> Self {
        TerrestrialCampaign { config }
    }

    /// Validate the configuration, returning a typed error for any
    /// field that would make the simulation meaningless or non-
    /// terminating (a zero period turns the event loop into an infinite
    /// spin; an empty distance table used to panic on index 0).
    fn validate(&self) -> Result<(), SatIotError> {
        let cfg = &self.config;
        if !cfg.days.is_finite() {
            return Err(SatIotError::NonFiniteTime {
                context: "terrestrial campaign days",
                value: cfg.days,
            });
        }
        if cfg.days <= 0.0 {
            return Err(SatIotError::InvalidConfig {
                field: "days",
                value: cfg.days,
                requirement: "a positive, finite campaign length",
            });
        }
        if !cfg.period_s.is_finite() {
            return Err(SatIotError::NonFiniteTime {
                context: "terrestrial reporting period",
                value: cfg.period_s,
            });
        }
        if cfg.period_s <= 0.0 {
            return Err(SatIotError::InvalidConfig {
                field: "period_s",
                value: cfg.period_s,
                requirement: "a positive reporting period (zero would never advance time)",
            });
        }
        if !cfg.gateway_uptime.is_finite() {
            return Err(SatIotError::InvalidConfig {
                field: "gateway_uptime",
                value: cfg.gateway_uptime,
                requirement: "a finite long-run uptime in (0, 1]",
            });
        }
        if cfg.gateway_distance_km.is_empty() {
            return Err(SatIotError::InvalidConfig {
                field: "gateway_distance_km",
                value: 0.0,
                requirement: "at least one node-to-gateway distance",
            });
        }
        if let Some(&bad) = cfg.gateway_distance_km.iter().find(|d| !d.is_finite()) {
            return Err(SatIotError::InvalidConfig {
                field: "gateway_distance_km",
                value: bad,
                requirement: "finite distances in km",
            });
        }
        for w in &cfg.outages {
            if !(w.start_s.is_finite() && w.end_s.is_finite()) {
                return Err(SatIotError::NonFiniteTime {
                    context: "terrestrial outage window",
                    value: if w.start_s.is_finite() {
                        w.end_s
                    } else {
                        w.start_s
                    },
                });
            }
            if w.end_s <= w.start_s || w.start_s < 0.0 {
                return Err(SatIotError::InvalidConfig {
                    field: "outages",
                    value: w.start_s,
                    requirement: "windows with 0 <= start_s < end_s",
                });
            }
        }
        if let Some(pair) = cfg.outages.windows(2).find(|p| p[1].start_s < p[0].end_s) {
            return Err(SatIotError::InvalidConfig {
                field: "outages",
                value: pair[1].start_s,
                requirement: "chronological, non-overlapping windows",
            });
        }
        Ok(())
    }

    /// Run the baseline.
    ///
    /// Returns a typed [`SatIotError`] for configurations the campaign
    /// cannot meaningfully simulate (a non-positive or non-finite span
    /// or period, a non-finite uptime or distance, no gateway distances,
    /// malformed or overlapping outages); values that merely fall
    /// outside their domain (uptime above 1, negative distances) are
    /// clamped and counted in the result's [`FaultLog`] instead of
    /// aborting the run.
    pub fn run(&self) -> Result<TerrestrialResults, SatIotError> {
        self.validate()?;
        let cfg = &self.config;
        let mut faults = FaultLog::default();

        // Clamp out-of-domain values into range, counting each clamp —
        // the same contract the passive campaign applies to its ground-
        // station masks.
        let mut gateway_uptime = cfg.gateway_uptime;
        if !(0.0..=1.0).contains(&gateway_uptime) {
            gateway_uptime = gateway_uptime.clamp(0.0, 1.0);
            faults.record(Fault::ClampedConfig);
        }
        // A non-positive distance would drive the path-loss model to
        // −∞ dB; floor it at 50 m (antennas cannot be co-located).
        const MIN_DISTANCE_KM: f64 = 0.05;
        let gateway_distance_km: Vec<f64> = cfg
            .gateway_distance_km
            .iter()
            .map(|&d| {
                if d < MIN_DISTANCE_KM {
                    faults.record(Fault::ClampedConfig);
                    MIN_DISTANCE_KM
                } else {
                    d
                }
            })
            .collect();

        let horizon_s = cfg.days * 86_400.0;
        let root = Rng::from_seed(cfg.seed);
        let mut rng = root.fork("events");
        let lora_cfg = LoRaConfig::terrestrial();
        let budget = LinkBudget::terrestrial(470.0);
        let phy_len = cfg.payload_bytes + LORAWAN_OVERHEAD_BYTES;

        let weather = WeatherProcess::generate(
            &satiot_channel::weather::WeatherParams::default(),
            SimTime::from_secs(horizon_s),
            &mut root.fork("weather"),
        );
        // Gateway availability timelines (always-up at uptime 1.0).
        let gateway_up: Vec<StationAvailability> = (0..cfg.gateways)
            .map(|g| {
                if gateway_uptime >= 1.0 {
                    StationAvailability::always_up()
                } else {
                    let params = AvailabilityParams::with_uptime(gateway_uptime, 12.0);
                    StationAvailability::generate(
                        &params,
                        SimTime::from_secs(horizon_s),
                        &mut root.fork_indexed("gateway", g as u64),
                    )
                }
            })
            .collect();

        let mut timelines = Vec::new();
        let mut sent = Vec::new();
        let mut delivered_seqs = HashSet::new();
        let mut seq: u64 = 0;
        let mut cycles_per_node = vec![0u64; cfg.nodes as usize];

        for node in 0..cfg.nodes {
            let mut t = node as f64 * 17.0;
            while t < horizon_s {
                let wx = weather.at(SimTime::from_secs(t));
                // Scripted disaster: the backhaul is down inside an
                // outage window, so a physically received packet is
                // never delivered. The gate sits *after* every
                // stochastic draw (radio reception and the delivery
                // delay are drawn exactly as in the baseline), so an
                // empty outage list is bit-identical to the baseline
                // and packets outside the windows are untouched.
                let in_outage = cfg.outages.iter().any(|w| w.contains(t));
                // Any-gateway reception: sample each gateway link.
                let mut received = false;
                for g in 0..cfg.gateways {
                    let d = gateway_distance_km[g as usize % gateway_distance_km.len()];
                    let shadowing = budget.draw_shadowing_db(wx, &mut rng);
                    let s = budget.sample(d, 0.0, wx, shadowing, &mut rng);
                    let decodes = packet_decodes(&lora_cfg, phy_len, s.snr_db, &mut rng);
                    if decodes && gateway_up[g as usize].is_up(t) {
                        received = true;
                    }
                }
                let delay_s = if received {
                    Some(delivery_delay_s(&mut rng))
                } else {
                    None
                };
                let delivered_s = if in_outage {
                    None
                } else {
                    delay_s.map(|d| t + d)
                };
                if delivered_s.is_some() {
                    delivered_seqs.insert(seq);
                }
                timelines.push(PacketTimeline {
                    generated_s: t,
                    first_tx_s: Some(t + 1.5), // Standby then immediate Tx.
                    sat_rx_s: delivered_s.map(|_| t + 1.7),
                    delivered_s,
                });
                sent.push(SentPacket {
                    seq,
                    node,
                    sent_s: t,
                    payload_bytes: cfg.payload_bytes,
                    attempts: 1,
                    weather: wx.label(),
                });
                seq += 1;
                cycles_per_node[node as usize] += 1;
                t += cfg.period_s;
            }
        }

        let node_energy = cycles_per_node
            .iter()
            .map(|&cycles| {
                account_for(
                    &lora_cfg,
                    cfg.payload_bytes,
                    &DutyCycleParams::default(),
                    cycles,
                    horizon_s,
                )
            })
            .collect();

        Ok(TerrestrialResults {
            timelines,
            sent,
            delivered_seqs,
            node_energy,
            horizon_s,
            faults,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use satiot_measure::latency::LatencyBreakdown;

    fn run_days(days: f64) -> TerrestrialResults {
        TerrestrialCampaign::new(TerrestrialConfig {
            days,
            ..Default::default()
        })
        .run()
        .expect("default config is valid")
    }

    #[test]
    fn reliability_is_near_perfect() {
        let r = run_days(10.0);
        // 3 nodes × 48/day × 10 days.
        assert_eq!(r.sent.len(), 1_440);
        let rel = r.reliability();
        assert!(rel > 0.995, "terrestrial reliability {rel}");
    }

    #[test]
    fn latency_is_sub_minute() {
        let r = run_days(5.0);
        let b = LatencyBreakdown::compute(&r.timelines);
        // Paper: 0.2 min average.
        assert!(
            (0.05..1.0).contains(&b.end_to_end_min.mean),
            "e2e {} min",
            b.end_to_end_min.mean
        );
    }

    #[test]
    fn energy_residency_sums_to_horizon() {
        let r = run_days(3.0);
        for acc in &r.node_energy {
            assert!((acc.total_time_s() - r.horizon_s).abs() < 1.0);
            assert!(acc.time_fraction(TerrestrialMode::Sleep) > 0.95);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run_days(2.0);
        let b = run_days(2.0);
        assert_eq!(a.delivered_seqs, b.delivered_seqs);
        assert_eq!(a.timelines.len(), b.timelines.len());
    }

    #[test]
    fn flaky_gateways_cost_reliability_and_redundancy_recovers_it() {
        let base = TerrestrialConfig {
            days: 10.0,
            gateway_uptime: 0.7,
            ..Default::default()
        };
        let mut one = base.clone();
        one.gateways = 1;
        one.gateway_distance_km = vec![0.4];
        let r1 = TerrestrialCampaign::new(one).run().unwrap();
        let r3 = TerrestrialCampaign::new(base).run().unwrap();
        // One 70%-uptime gateway loses ~30% of packets; three independent
        // ones lose ~3%.
        assert!(r1.reliability() < 0.85, "one gw {}", r1.reliability());
        assert!(r3.reliability() > r1.reliability() + 0.1);
        assert!(r3.reliability() > 0.9, "three gw {}", r3.reliability());
    }

    #[test]
    fn single_gateway_is_weaker_than_three() {
        let mut cfg = TerrestrialConfig {
            days: 10.0,
            ..Default::default()
        };
        let three = TerrestrialCampaign::new(cfg.clone()).run().unwrap();
        cfg.gateways = 1;
        cfg.gateway_distance_km = vec![2.0];
        let one = TerrestrialCampaign::new(cfg).run().unwrap();
        assert!(one.reliability() <= three.reliability());
    }

    fn run_with(
        mutate: impl FnOnce(&mut TerrestrialConfig),
    ) -> Result<TerrestrialResults, SatIotError> {
        let mut cfg = TerrestrialConfig {
            days: 1.0,
            ..Default::default()
        };
        mutate(&mut cfg);
        TerrestrialCampaign::new(cfg).run()
    }

    #[test]
    fn empty_distance_table_is_a_typed_error_not_a_panic() {
        let err = run_with(|c| c.gateway_distance_km = Vec::new()).unwrap_err();
        match err {
            SatIotError::InvalidConfig { field, .. } => {
                assert_eq!(field, "gateway_distance_km");
            }
            other => panic!("expected InvalidConfig, got {other}"),
        }
    }

    #[test]
    fn zero_period_is_an_error_not_a_hang() {
        // `period_s = 0` used to spin `while t < horizon_s` forever;
        // this test completing at all proves the loop is never entered.
        let err = run_with(|c| c.period_s = 0.0).unwrap_err();
        match err {
            SatIotError::InvalidConfig { field, .. } => assert_eq!(field, "period_s"),
            other => panic!("expected InvalidConfig, got {other}"),
        }
        let err = run_with(|c| c.period_s = -60.0).unwrap_err();
        assert!(matches!(
            err,
            SatIotError::InvalidConfig {
                field: "period_s",
                ..
            }
        ));
    }

    #[test]
    fn non_finite_times_are_typed_errors() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = run_with(|c| c.days = bad).unwrap_err();
            assert!(
                matches!(err, SatIotError::NonFiniteTime { .. }),
                "days={bad}: {err}"
            );
            let err = run_with(|c| c.period_s = bad).unwrap_err();
            assert!(
                matches!(err, SatIotError::NonFiniteTime { .. }),
                "period={bad}: {err}"
            );
        }
        let err = run_with(|c| c.days = -3.0).unwrap_err();
        assert!(matches!(
            err,
            SatIotError::InvalidConfig { field: "days", .. }
        ));
    }

    #[test]
    fn non_finite_uptime_and_distances_are_rejected() {
        let err = run_with(|c| c.gateway_uptime = f64::NAN).unwrap_err();
        assert!(matches!(
            err,
            SatIotError::InvalidConfig {
                field: "gateway_uptime",
                ..
            }
        ));
        let err = run_with(|c| c.gateway_distance_km = vec![0.4, f64::INFINITY]).unwrap_err();
        assert!(matches!(
            err,
            SatIotError::InvalidConfig {
                field: "gateway_distance_km",
                ..
            }
        ));
    }

    #[test]
    fn excess_uptime_is_clamped_and_counted() {
        let r = run_with(|c| c.gateway_uptime = 1.7).unwrap();
        assert_eq!(r.faults.clamped_configs, 1);
        assert_eq!(r.faults.total(), 1);
        // Clamped to 1.0 → behaves exactly like the always-up default.
        let base = run_days(1.0);
        assert!(base.faults.is_clean());
        assert_eq!(r.delivered_seqs, base.delivered_seqs);
    }

    #[test]
    fn negative_distances_are_floored_and_counted() {
        let r = run_with(|c| c.gateway_distance_km = vec![-0.4, 0.0, 2.0]).unwrap();
        // Two entries below the 50 m floor.
        assert_eq!(r.faults.clamped_configs, 2);
        // The floored links still decode at near-zero range, so the run
        // produces a full packet record set.
        assert_eq!(r.sent.len(), 3 * 48);
        assert!(r.reliability() > 0.99, "reliability {}", r.reliability());
    }

    #[test]
    fn empty_outages_are_bit_identical_to_the_baseline() {
        let base = run_days(2.0);
        let gated = run_with(|c| {
            c.days = 2.0;
            c.outages = Vec::new();
        })
        .unwrap();
        assert_eq!(base.delivered_seqs, gated.delivered_seqs);
        assert_eq!(base.sent.len(), gated.sent.len());
        for (a, b) in base.timelines.iter().zip(&gated.timelines) {
            assert_eq!(
                a.delivered_s.map(f64::to_bits),
                b.delivered_s.map(f64::to_bits)
            );
        }
    }

    #[test]
    fn scripted_outages_black_out_their_windows_and_nothing_else() {
        // Day 2 of a 3-day run is a scripted disaster.
        let window = OutageWindow {
            start_s: 86_400.0,
            end_s: 172_800.0,
        };
        let base = run_days(3.0);
        let gated = run_with(|c| {
            c.days = 3.0;
            c.outages = vec![window];
        })
        .unwrap();
        for (pkt, (a, b)) in base
            .sent
            .iter()
            .zip(base.timelines.iter().zip(&gated.timelines))
        {
            if window.contains(pkt.sent_s) {
                assert_eq!(b.delivered_s, None, "t={}", pkt.sent_s);
            } else {
                // Outside the window the gated run matches the baseline
                // bitwise — the gate never consumes RNG draws.
                assert_eq!(
                    a.delivered_s.map(f64::to_bits),
                    b.delivered_s.map(f64::to_bits),
                    "t={}",
                    pkt.sent_s
                );
            }
        }
        assert!(gated.reliability() < base.reliability());
    }

    #[test]
    fn malformed_outages_are_typed_errors() {
        let err = run_with(|c| {
            c.outages = vec![OutageWindow {
                start_s: 100.0,
                end_s: 100.0,
            }];
        })
        .unwrap_err();
        assert!(matches!(
            err,
            SatIotError::InvalidConfig {
                field: "outages",
                ..
            }
        ));
        let err = run_with(|c| {
            c.outages = vec![
                OutageWindow {
                    start_s: 0.0,
                    end_s: 200.0,
                },
                OutageWindow {
                    start_s: 100.0,
                    end_s: 300.0,
                },
            ];
        })
        .unwrap_err();
        assert!(matches!(
            err,
            SatIotError::InvalidConfig {
                field: "outages",
                ..
            }
        ));
        let err = run_with(|c| {
            c.outages = vec![OutageWindow {
                start_s: f64::NAN,
                end_s: 10.0,
            }];
        })
        .unwrap_err();
        assert!(matches!(err, SatIotError::NonFiniteTime { .. }));
    }

    #[test]
    fn from_scenario_maps_every_field() {
        let mut spec = satiot_scenarios::ScenarioSpec::disrupted_comms();
        spec.seed = Some(42);
        let scenario = spec.build().expect("builtin resolves");
        let cfg = TerrestrialConfig::from_scenario(&scenario);
        assert_eq!(cfg.seed, 42);
        assert_eq!(cfg.days, 7.0);
        assert_eq!(cfg.nodes, 3);
        assert_eq!(cfg.payload_bytes, 20);
        assert_eq!(cfg.period_s, 1_800.0);
        assert_eq!(cfg.gateways, 3);
        assert_eq!(cfg.gateway_uptime, 1.0);
        assert_eq!(cfg.outages.len(), 2);
        TerrestrialCampaign::new(cfg)
            .run()
            .expect("scenario config validates");
    }

    #[test]
    fn clamped_runs_stay_deterministic() {
        let run = || {
            run_with(|c| {
                c.gateway_uptime = -0.2;
                c.gateway_distance_km = vec![-1.0, 1.1];
            })
            .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.faults, b.faults);
        assert!(a.faults.clamped_configs >= 2);
        assert_eq!(a.delivered_seqs, b.delivered_seqs);
        assert_eq!(a.sent.len(), b.sent.len());
    }
}
