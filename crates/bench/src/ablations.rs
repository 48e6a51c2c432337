//! Design-choice ablations (A1–A7) and extensions (E1–E4): the appendix
//! to the paper sections in [`crate::reports`]. The workload extensions
//! E5–E7 live in [`crate::extensions`].
//!
//! Each function is an [`crate::experiments`] renderer: it runs the
//! campaigns its study needs with the registry's options and returns
//! the rendered tables and closing remarks. `ablations_all` renders
//! them in registry order; `reproduce_all <id>` renders any one of
//! them.

use crate::experiments::Campaigns;
use crate::runners;
use satiot_core::active::MacPolicy;
use satiot_core::messages::BEACON_ON_AIR_BYTES;
use satiot_core::prelude::*;
use satiot_econ::{
    crossover_month, satellite_cost, terrestrial_cost, Deployment, SatellitePricing,
    TerrestrialPricing,
};
use satiot_energy::battery::Battery;
use satiot_energy::profile::{SatNodeDeploymentProfile, SatNodeMode};
use satiot_energy::solar::{lifetime_with_solar_days, SolarPanel};
use satiot_measure::latency::LatencyBreakdown;
use satiot_measure::stats::Summary;
use satiot_measure::table::{num, pct, Table};
use satiot_orbit::sun::daylight_fraction;
use satiot_orbit::time::JulianDate;
use satiot_phy::airtime::airtime_s;
use satiot_phy::doppler::{compensated_penalty_db, total_penalty_db};
use satiot_phy::params::{LoRaConfig, SpreadingFactor};
use satiot_phy::per::packet_success_probability;
use satiot_phy::sensitivity::demod_threshold_db;
use satiot_scenarios::sites::yunnan_farm;
use std::fmt::Write as _;

/// Ablation A1: the paper's customised predictive scheduler vs. the
/// vanilla TinyGS rotation — how much measurement coverage does
/// pass-aware assignment buy?
///
/// The three scheduler policies are one [`SweepServer`] job queue over
/// an identical (site, constellation, window) scenario, so the second
/// and third jobs reuse the first job's pass lists and ephemeris grids
/// — the scheduler is not part of the pass-cache key — instead of
/// re-predicting them. The per-job cache attribution printed at the end
/// proves it.
pub fn scheduler(campaigns: &Campaigns) -> String {
    let days = campaigns.scale().passive_days().min(14.0);
    // One representative site keeps the ablation fast; the seed is the
    // campaign default.
    let seed = PassiveConfig::default().seed;
    let jobs: Vec<SweepJob> = [
        ("Predictive (paper's custom)", SchedulerKind::Predictive),
        (
            "Vanilla TinyGS (600 s dwell)",
            SchedulerKind::Vanilla { dwell_s: 600.0 },
        ),
        (
            "Vanilla TinyGS (1800 s dwell)",
            SchedulerKind::Vanilla { dwell_s: 1_800.0 },
        ),
    ]
    .into_iter()
    .map(|(label, kind)| {
        SweepJob::new(label, seed)
            .with_max_days(days)
            .with_scheduler(kind)
            .with_sites(["HK"])
    })
    .collect();
    let outcome = SweepServer::new(*campaigns.options())
        .run(&jobs)
        .expect("scheduler ablation sweep runs");

    let mut t = Table::new(
        "Ablation A1: scheduler policy vs. captured measurements",
        &[
            "Scheduler",
            "traces",
            "covered passes",
            "Tianqi eff. contact (min)",
        ],
    );
    for record in &outcome.records {
        let covered: u64 = record.constellations.iter().map(|c| c.covered_passes).sum();
        let tianqi = record
            .constellations
            .iter()
            .find(|c| c.constellation == "Tianqi")
            .expect("Tianqi is in the catalog");
        t.row(&[
            record.job.tag.clone(),
            record.traces_total.to_string(),
            covered.to_string(),
            num(tianqi.effective_min_mean, 1),
        ]);
    }
    let mut out = t.render();
    for record in &outcome.records {
        let _ = writeln!(
            out,
            "{:29} predicted {} pass lists, reused {} warm",
            record.job.tag,
            record.cache.pass_computes,
            record.cache.pass_hits(),
        );
    }
    out.push_str(
        "\nPass-aware scheduling is what makes precise window measurement possible (§2.2).\n",
    );
    out
}

/// Ablation A2: retransmission cap sweep — reliability vs. energy.
pub fn retx(campaigns: &Campaigns) -> String {
    let opts = campaigns.options();
    let mut t = Table::new(
        "Ablation A2: retransmission cap vs reliability and energy",
        &[
            "Max attempts",
            "reliability",
            "mean attempts",
            "tx time/node (s)",
            "duplicates",
        ],
    );
    for max_attempts in [1u32, 2, 4, 6, 8] {
        let r = runners::run_active_with(opts, |c| c.max_attempts = max_attempts);
        t.row(&[
            max_attempts.to_string(),
            pct(r.reliability()),
            num(r.mean_attempts(), 2),
            num(r.node_energy[0].time_s(SatNodeMode::McuTx), 1),
            r.counters.duplicates.to_string(),
        ]);
    }
    let mut out = t.render();
    out.push_str("\nDiminishing returns past the paper's 5-retransmission cap; duplicates grow\nwith the cap because ACK loss keeps triggering unnecessary retransmissions.\n");
    out
}

/// Ablation A3: node store-and-forward buffer sizing vs. data loss (the
/// paper's §3.1 buffer-sizing guidance, quantified).
pub fn buffer(campaigns: &Campaigns) -> String {
    let opts = campaigns.options();
    let mut t = Table::new(
        "Ablation A3: node buffer capacity vs loss",
        &["Buffer (packets)", "reliability", "buffer drop ratio"],
    );
    for capacity in [2usize, 4, 8, 16, 64] {
        let r = runners::run_active_with(opts, |c| c.buffer_capacity = capacity);
        let drops = r.node_drop_ratio.iter().sum::<f64>() / r.node_drop_ratio.len() as f64;
        t.row(&[capacity.to_string(), pct(r.reliability()), pct(drops)]);
    }
    let mut out = t.render();
    out.push_str("\nThe buffer must ride out the longest effective inter-contact gap;\nundersizing converts contact intermittency directly into data loss.\n");
    out
}

/// Ablation A4: satellite beacon interval vs. effective-window
/// detection — how beacon cadence shapes what a passive observer can
/// measure.
pub fn beacon(campaigns: &Campaigns) -> String {
    let days = campaigns.scale().passive_days().min(10.0);
    let mut t = Table::new(
        "Ablation A4: Tianqi beacon interval vs measured windows",
        &[
            "Beacon interval (s)",
            "traces",
            "eff. contact (min)",
            "measured shrink",
        ],
    );
    for interval in [15.0f64, 30.0, 60.0, 120.0] {
        let mut cfg = PassiveConfig {
            max_days: days,
            ..Default::default()
        };
        cfg.sites.retain(|s| s.code == "HK");
        cfg.constellations.retain(|c| c.name == "Tianqi");
        for c in &mut cfg.constellations {
            c.beacon_interval_s = interval;
        }
        let results = PassiveCampaign::new(cfg)
            .run(campaigns.options())
            .expect("beacon ablation config is valid");
        let stats = results.contact_stats_covered("Tianqi", &[]);
        t.row(&[
            num(interval, 0),
            results.traces.len().to_string(),
            num(stats.effective_min.mean, 1),
            pct(stats.duration_shrink),
        ]);
    }
    let mut out = t.render();
    out.push_str("\nSparser beacons under-sample the window: the measured effective duration\nshrinks with cadence even though the RF channel is identical.\n");
    out
}

/// Ablation A5: downlink contact-capacity congestion.
///
/// The paper's delivery segment (Fig 5d) assumes the operator drains a
/// satellite's buffer promptly once a ground station is in view. This
/// ablation sweeps the per-packet share of contact capacity — i.e. how
/// much other customer traffic shares the downlink — and shows delivery
/// latency collapsing from "next pass" to "hours of backlog".
pub fn downlink(campaigns: &Campaigns) -> String {
    let opts = campaigns.options();
    let mut t = Table::new(
        "Ablation A5: downlink service time vs delivery latency",
        &[
            "Service (s/pkt)",
            "delivery mean (min)",
            "delivery p90",
            "e2e mean",
            "reliability",
        ],
    );
    for service in [0.1f64, 30.0, 120.0, 300.0, 600.0] {
        let r = runners::run_active_with(opts, |c| c.downlink_service_s = service);
        let b = LatencyBreakdown::compute(&r.timelines);
        t.row(&[
            num(service, 1),
            num(b.delivery_min.mean, 1),
            num(b.delivery_min.p90, 1),
            num(b.end_to_end_min.mean, 1),
            pct(r.reliability()),
        ]);
    }
    let mut out = t.render();
    out.push_str(
        "\nOnce per-packet service approaches the contact budget, backlog carries across\n",
    );
    out.push_str("passes and delivery latency departs from the paper's ~57 min toward hours —\n");
    out.push_str("the congestion regime the paper warns about for growing fleets (§3.1).\n");
    out
}

/// Ablation A6: TLE-based Doppler pre-compensation — the DtS
/// optimisation the paper's conclusion calls for. How much reliability
/// and how many retransmissions does Doppler actually cost, and does
/// compensation let higher (more sensitive) spreading factors pay off?
pub fn doppler(campaigns: &Campaigns) -> String {
    let opts = campaigns.options();
    let mut t = Table::new(
        "Ablation A6: Doppler pre-compensation on the DtS link",
        &[
            "Mode",
            "reliability",
            "mean attempts",
            "uplink success",
            "e2e latency (min)",
        ],
    );
    for (label, comp) in [
        ("uncompensated (paper)", false),
        ("TLE pre-compensated", true),
    ] {
        let r = runners::run_active_with(opts, |c| c.doppler_compensation = comp);
        let b = LatencyBreakdown::compute(&r.timelines);
        let up = if r.counters.uplinks_tx == 0 {
            0.0
        } else {
            r.counters.uplinks_ok as f64 / r.counters.uplinks_tx as f64
        };
        t.row(&[
            label.to_string(),
            pct(r.reliability()),
            num(r.mean_attempts(), 2),
            pct(up),
            num(b.end_to_end_min.mean, 1),
        ]);
    }
    let mut out = t.render();
    out.push_str("\nCompensation removes the drift tax that grows with spreading factor and\n");
    out.push_str("airtime (satiot-phy::doppler), recovering link margin exactly where the\n");
    out.push_str("DtS budget is thinnest — one of the paper's proposed future optimisations.\n");
    out
}

/// Representative DtS geometries for a Tianqi-class pass (ablation A7):
/// (physical SNR in the shared 125 kHz bandwidth — identical for every
/// SF — Doppler offset Hz, drift Hz/s).
const GEOMETRIES: &[(f64, f64, f64)] = &[
    (-10.0, 6_500.0, -45.0),  // High elevation, gentle drift.
    (-13.0, 4_000.0, -140.0), // Culmination: worst drift.
    (-16.0, 8_500.0, -60.0),  // Window edge: weakest signal.
];

/// Ablation A7: spreading-factor choice on the DtS link.
///
/// Higher SFs buy 2.5 dB of sensitivity per step — but on a LEO link
/// the Doppler *drift* during the (exponentially longer) packet eats
/// the gain back, and airtime-proportional footprint collisions take
/// the rest. This sweep shows why operational DtS systems sit near
/// SF10, and how TLE pre-compensation (ablation A6) moves the optimum.
pub fn spreading_factor(_: &Campaigns) -> String {
    let mut t = Table::new(
        "Ablation A7: spreading factor on a LEO DtS link (30 B beacon)",
        &[
            "SF",
            "airtime (ms)",
            "threshold (dB)",
            "P(decode) raw",
            "P(decode) compensated",
        ],
    );
    for sf in SpreadingFactor::ALL {
        let cfg = LoRaConfig {
            sf,
            ..LoRaConfig::dts_beacon()
        };
        let len = BEACON_ON_AIR_BYTES;
        let airtime_ms = airtime_s(&cfg, len) * 1_000.0;
        let mut raw = Vec::new();
        let mut comp = Vec::new();
        for &(snr, offset, rate) in GEOMETRIES {
            // The SNR is a property of the link, not the SF (same RSSI,
            // same 125 kHz noise floor); the PER curve applies each SF's
            // own demodulation threshold.
            raw.push(match total_penalty_db(&cfg, len, offset, rate) {
                Some(pen) => packet_success_probability(&cfg, len, snr - pen),
                None => 0.0,
            });
            comp.push(match compensated_penalty_db(&cfg, len, offset, rate) {
                Some(pen) => packet_success_probability(&cfg, len, snr - pen),
                None => 0.0,
            });
        }
        t.row(&[
            format!("SF{}", sf.value()),
            num(airtime_ms, 0),
            num(demod_threshold_db(sf), 1),
            num(Summary::of(&raw).mean, 3),
            num(Summary::of(&comp).mean, 3),
        ]);
    }
    let mut out = t.render();
    out.push_str(
        "\nUncompensated, the drift tax flattens (and eventually inverts) the\n\
         sensitivity gain above SF10 — the operating point the measured DtS\n\
         constellations use. With TLE pre-compensation the higher SFs keep\n\
         their sensitivity, shifting the optimum toward SF11-12.\n",
    );
    out
}

/// Extension E1: solar harvesting vs. the paper's battery verdict.
///
/// The paper projects a 48-day battery life for a Tianqi node and flags
/// energy as the blocker for large-scale adoption (§3.2 takeaways).
/// This extension sizes the photovoltaic panel that removes the
/// blocker, from the default active campaign's node energy.
pub fn solar(campaigns: &Campaigns) -> String {
    let avg_mw = campaigns.active().node_energy[0]
        .re_profile(&SatNodeDeploymentProfile)
        .average_power_mw();
    let battery = Battery::paper_5ah();
    let mut out = format!(
        "Simulated Tianqi node average draw: {:.1} mW (deployment profile)\n",
        avg_mw
    );
    // Cross-check the panel model's peak-sun-hours against the actual
    // solar geometry at the farm (March 2025).
    let march = JulianDate::from_calendar(2025, 3, 1, 0, 0, 0.0);
    let day_frac = daylight_fraction(yunnan_farm(), march, 10.0);
    let _ = writeln!(
        out,
        "Solar geometry at the farm: {:.1} daylight hours/day (ephemeris), \
         vs {:.1} peak-sun-hours assumed by the panel model\n",
        day_frac * 24.0,
        SolarPanel::credit_card().peak_sun_hours
    );

    let mut t = Table::new(
        "Extension E1: panel size vs node lifetime (5 Ah battery)",
        &["Panel (cm^2)", "harvest (mW avg)", "lifetime (days)"],
    );
    for area in [0.0f64, 5.0, 10.0, 15.0, 30.0, 60.0] {
        let panel = SolarPanel {
            area_cm2: area,
            ..SolarPanel::credit_card()
        };
        let life = lifetime_with_solar_days(&battery, avg_mw, &panel);
        t.row(&[
            num(area, 0),
            num(panel.mean_power_mw(), 1),
            if life.is_finite() {
                num(life, 0)
            } else {
                "energy-neutral".to_string()
            },
        ]);
    }
    out.push_str(&t.render());
    let neutral = SolarPanel::area_for_neutrality_cm2(avg_mw, &SolarPanel::credit_card());
    let _ = writeln!(
        out,
        "\nEnergy neutrality needs {:.0} cm^2 of panel at Yunnan insolation — a\n\
         postage-stamp add-on removes the paper's principal adoption blocker.",
        neutral
    );
    out
}

/// Extension E2: constellation-aware slotted MAC (CosMAC-style) vs the
/// random-slot contention of today's DtS systems.
///
/// The paper's §3.1 takeaway calls for collision management as fleets
/// grow; this extension quantifies what deterministic slot ownership
/// buys at increasing node density on one farm.
pub fn mac(campaigns: &Campaigns) -> String {
    let opts = campaigns.options();
    let mut t = Table::new(
        "Extension E2: uplink MAC policy vs collisions",
        &[
            "Nodes",
            "MAC",
            "uplinks",
            "collided",
            "collision rate",
            "reliability",
        ],
    );
    for nodes in [3u32, 10, 24] {
        for (label, mac) in [("random", MacPolicy::RandomSlot), ("TDMA", MacPolicy::Tdma)] {
            let r = runners::run_active_with(opts, |c| {
                c.nodes = nodes;
                c.mac = mac;
            });
            let rate = if r.counters.uplinks_tx == 0 {
                0.0
            } else {
                r.counters.uplinks_collided as f64 / r.counters.uplinks_tx as f64
            };
            t.row(&[
                nodes.to_string(),
                label.to_string(),
                r.counters.uplinks_tx.to_string(),
                r.counters.uplinks_collided.to_string(),
                pct(rate),
                pct(r.reliability()),
            ]);
        }
    }
    let mut out = t.render();
    out.push_str("\nAt 3 nodes the collision rate is the footprint-background floor; TDMA\n");
    out.push_str("roughly halves the excess at 10-24 nodes. It cannot eliminate it: 24\n");
    out.push_str("uplinks of ~0.6 s do not fit disjointly in a 10 s response window, so\n");
    out.push_str("beyond ~15 nodes per beacon the window itself is the bottleneck — the\n");
    out.push_str("constellation-wide scheduling problem CosMAC (MobiCom'24) attacks.\n");
    out
}

/// Extension E3: where does satellite IoT win on cost?
///
/// The paper's Table 2 compares one deployment; this extension sweeps
/// the two axes that decide real procurement: sensor density (how many
/// nodes share one terrestrial gateway) and reporting rate, mapping the
/// TCO crossover frontier between the two architectures.
///
/// The crossover table prices *transmitted* packets. The second half
/// re-anchors it in *delivered* packets: a multi-seed campaign sweep —
/// run through [`SweepServer`], so the seeds share one set of pass
/// lists and ephemeris grids, and `SATIOT_SWEEP_DIR` makes the sweep
/// resumable — measures each constellation's delivery ratio, and the
/// satellite cost per delivered kilobyte inflates by its inverse.
/// Unreliable links are a cost axis, not just a coverage one.
pub fn cost(campaigns: &Campaigns) -> String {
    let sat_pricing = SatellitePricing::default();
    let terr_pricing = TerrestrialPricing::default();

    let mut t = Table::new(
        "Extension E3: TCO crossover (months until terrestrial wins)",
        &[
            "Nodes/gateway",
            "4 pkt/day",
            "12 pkt/day",
            "48 pkt/day",
            "96 pkt/day",
        ],
    );
    for nodes in [1usize, 2, 5, 10, 25] {
        let mut cells = vec![nodes.to_string()];
        for rate in [4.0f64, 12.0, 48.0, 96.0] {
            let d = Deployment {
                nodes,
                gateways: 1,
                packets_per_node_day: rate,
                payload_bytes: 20,
            };
            let sat = satellite_cost(&sat_pricing, &d);
            let terr = terrestrial_cost(&terr_pricing, &d);
            cells.push(match crossover_month(&sat, &terr) {
                Some(m) if m < 120.0 => num(m, 1),
                Some(_) => ">10y".into(),
                None => {
                    if sat.total_usd(60.0) < terr.total_usd(60.0) {
                        "sat wins".into()
                    } else {
                        "terr wins".into()
                    }
                }
            });
        }
        t.row(&cells);
    }
    let mut out = t.render();

    // --- Measured delivery ratios: a seed sweep through the server. ---
    let seed = PassiveConfig::default().seed;
    let jobs: Vec<SweepJob> = (0..5)
        .map(|i| {
            SweepJob::new(format!("cost-seed-{i}"), seed + i)
                .with_max_days(2.0)
                .with_sites(["HK"])
        })
        .collect();
    let outcome = SweepServer::new(*campaigns.options())
        .run(&jobs)
        .expect("delivery-ratio sweep runs");

    // The reference deployment from the table's sparse corner, priced
    // over five years.
    let d = Deployment {
        nodes: 1,
        gateways: 1,
        packets_per_node_day: 12.0,
        payload_bytes: 20,
    };
    let months = 60.0;
    let sat_usd = satellite_cost(&sat_pricing, &d).total_usd(months);
    let transmitted_kb =
        d.nodes as f64 * d.packets_per_node_day * d.payload_bytes as f64 * 30.44 * months / 1024.0;

    let mut t = Table::new(
        "Extension E3b: measured delivery ratio vs. cost per *delivered* kB \
         (1 node, 12 pkt/day, 5 years)",
        &[
            "Constellation",
            "delivery ratio",
            "$/kB sent",
            "$/kB delivered",
        ],
    );
    let constellations: Vec<&str> = outcome.records[0]
        .constellations
        .iter()
        .map(|c| c.constellation.as_str())
        .collect();
    for name in constellations {
        let (mut received, mut transmitted) = (0u64, 0u64);
        for record in &outcome.records {
            let c = record
                .constellations
                .iter()
                .find(|c| c.constellation == name)
                .expect("catalog is identical across seeds");
            received += c.received;
            transmitted += c.transmitted;
        }
        let ratio = received as f64 / transmitted.max(1) as f64;
        let per_kb_sent = sat_usd / transmitted_kb;
        let per_kb_delivered = per_kb_sent / ratio.max(1e-9);
        t.row(&[
            name.to_string(),
            num(ratio, 3),
            num(per_kb_sent, 2),
            num(per_kb_delivered, 2),
        ]);
    }
    out.push_str(&t.render());
    let warm_hits: u64 = outcome.records.iter().map(|r| r.cache.pass_hits()).sum();
    let _ = writeln!(
        out,
        "seed sweep: {} run, {} resumed; {warm_hits} pass lists served warm across seeds",
        outcome.jobs_run, outcome.jobs_resumed,
    );
    out.push_str(
        "\nSatellite IoT holds a lasting cost edge only for sparse, quiet fleets\n\
         (one-ish nodes per would-be gateway at low reporting rates) — everywhere\n\
         else the gateway amortises within months. Coverage, not cost, is the\n\
         product (the paper's Appendix F conclusion, quantified) — and the\n\
         delivered-kB column shows lossy constellations erode even that edge.\n",
    );
    out
}

/// Extension E4: gateway redundancy in the terrestrial baseline.
///
/// The paper deployed *three* gateways for three nodes without saying
/// why. This extension shows what redundancy buys once gateways are not
/// mains-powered lab hardware: with realistic uptime, a single gateway
/// forfeits the terrestrial architecture's headline ~100 % reliability.
pub fn gateways(campaigns: &Campaigns) -> String {
    let opts = campaigns.options();
    let mut t = Table::new(
        "Extension E4: gateway count x uptime vs terrestrial reliability",
        &[
            "Gateways",
            "uptime 100%",
            "uptime 90%",
            "uptime 70%",
            "uptime 50%",
        ],
    );
    for gateways in [1u32, 2, 3] {
        let mut cells = vec![gateways.to_string()];
        for uptime in [1.0f64, 0.9, 0.7, 0.5] {
            let r = runners::run_terrestrial_with(opts, |c| {
                c.gateways = gateways;
                c.gateway_distance_km = vec![0.4, 1.1, 2.0][..gateways as usize].to_vec();
                c.gateway_uptime = uptime;
            });
            cells.push(pct(r.reliability()));
        }
        t.row(&cells);
    }
    let mut out = t.render();
    out.push_str(
        "\nIndependent outages multiply away: three 70%-uptime gateways deliver the\n\
         ~100% the paper measured, one does not — redundancy, not gateway quality,\n\
         is what holds the terrestrial baseline's headline number up.\n",
    );
    out
}
