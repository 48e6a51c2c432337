//! The `satiot` command-line tool: pass planning, link budgets, campaign
//! summaries, and catalog export from one binary.
//!
//! ```text
//! satiot passes HK 2
//! satiot budget tianqi quarter rainy
//! satiot campaign active 7
//! satiot catalog > constellations.tle
//! ```

use satiot::cli::{parse, CampaignKind, Command, USAGE};
use satiot::core::messages::BEACON_ON_AIR_BYTES;
use satiot::core::prelude::*;
use satiot::measure::latency::LatencyBreakdown;
use satiot::measure::reliability::Reliability;
use satiot::measure::stats::Summary;
use satiot::orbit::pass::PassPredictor;
use satiot::phy::airtime::airtime_s;
use satiot::phy::params::LoRaConfig;
use satiot::phy::per::packet_success_probability;
use satiot::scenarios::constellations::{constellation_by_name, export_full_catalog};
use satiot::scenarios::sites::{campaign_epoch, measurement_sites};
use satiot::terrestrial::campaign::{TerrestrialCampaign, TerrestrialConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args) {
        Ok(Command::Help) => print!("{USAGE}"),
        Ok(cmd) => run(cmd),
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
    }
}

fn run(cmd: Command) {
    match cmd {
        Command::Help => unreachable!("handled in main"),
        Command::Catalog => print!("{}", export_full_catalog(campaign_epoch())),
        Command::Passes { site, days } => passes(&site, days),
        Command::Budget {
            constellation,
            antenna,
            weather,
        } => budget(&constellation, antenna, weather),
        Command::Campaign { kind, days } => campaign(kind, days),
        Command::Track {
            constellation,
            sat_id,
            hours,
        } => track(&constellation, sat_id, hours),
        Command::Coverage { site, hours } => coverage(&site, hours),
    }
}

fn coverage(site_code: &str, hours: u32) {
    let Some(site) = measurement_sites()
        .into_iter()
        .find(|s| s.code == site_code)
    else {
        eprintln!("unknown site {site_code:?} (expected HK/SYD/LDN/PGH/SH/GZ/NC/YC)");
        std::process::exit(2);
    };
    let observer = satiot::orbit::topo::Observer::new(site.geodetic());
    let start = campaign_epoch();
    let specs = satiot::scenarios::constellations::all_constellations();
    let sats: Vec<_> = specs
        .iter()
        .flat_map(|spec| {
            spec.catalog(start)
                .into_iter()
                .map(|s| (s.constellation, s.sgp4().unwrap()))
        })
        .collect();
    println!(
        "Satellites above the horizon at {} ({site_code}), hourly for {hours} h:
",
        site.name
    );
    println!("hour(UTC)  Tianqi  FOSSA  PICO  CSTP  total  bar");
    for h in 0..hours {
        let when = start.plus_seconds(h as f64 * 3_600.0);
        let mut counts = std::collections::BTreeMap::new();
        for (name, sgp4) in &sats {
            if let Ok(state) = sgp4.propagate_at(when) {
                if observer.look_at(&state, when).elevation_rad > 0.0 {
                    *counts.entry(*name).or_insert(0u32) += 1;
                }
            }
        }
        let g = |n: &str| counts.get(n).copied().unwrap_or(0);
        let total: u32 = counts.values().sum();
        println!(
            "{:>6}:00  {:>6}  {:>5}  {:>4}  {:>4}  {:>5}  {}",
            h % 24,
            g("Tianqi"),
            g("FOSSA"),
            g("PICO"),
            g("CSTP"),
            total,
            "#".repeat(total as usize),
        );
    }
    println!(
        "
This is the *theoretical* picture; the paper shows the effective one is"
    );
    println!("an order of magnitude sparser (run `satiot campaign passive`).");
}

fn track(constellation: &str, sat_id: u32, hours: f64) {
    use satiot::orbit::frames::ground_track;
    let spec = constellation_by_name(constellation).expect("validated by the parser");
    let Some(sat) = spec
        .catalog(campaign_epoch())
        .into_iter()
        .find(|s| s.sat_id == sat_id)
    else {
        eprintln!(
            "{} has no satellite {} (0..{})",
            spec.name,
            sat_id,
            spec.sat_count()
        );
        std::process::exit(2);
    };
    let start = campaign_epoch();
    let points = ground_track(
        &sat.sgp4().unwrap(),
        start,
        start.plus_seconds(hours * 3_600.0),
        60.0,
    );
    const COLS: usize = 90;
    const ROWS: usize = 30;
    let mut grid = vec![vec!['.'; COLS]; ROWS];
    for cell in grid[ROWS / 2].iter_mut() {
        *cell = '-';
    }
    for (_, g) in &points {
        let lon = g.lon_rad.to_degrees();
        let lat = g.lat_rad.to_degrees();
        let col = (((lon + 180.0) / 360.0) * (COLS as f64 - 1.0)).round() as usize;
        let row = (((90.0 - lat) / 180.0) * (ROWS as f64 - 1.0)).round() as usize;
        grid[row.min(ROWS - 1)][col.min(COLS - 1)] = '*';
    }
    println!(
        "Ground track of {}-{sat_id} over {hours} h ({} samples):
",
        spec.name,
        points.len()
    );
    for row in &grid {
        println!("{}", row.iter().collect::<String>());
    }
}

fn passes(site_code: &str, days: f64) {
    let Some(site) = measurement_sites()
        .into_iter()
        .find(|s| s.code == site_code)
    else {
        eprintln!("unknown site {site_code:?} (expected HK/SYD/LDN/PGH/SH/GZ/NC/YC)");
        std::process::exit(2);
    };
    let start = campaign_epoch();
    println!(
        "Passes over {} ({site_code}) for {days} day(s):\n",
        site.name
    );
    println!("satellite   AOS(UTC)      dur(min)  max-el(deg)  freq(MHz)");
    let mut count = 0;
    for spec in satiot::scenarios::constellations::all_constellations() {
        for sat in spec.catalog(start) {
            let predictor = PassPredictor::new(sat.sgp4().unwrap(), site.geodetic(), 0.0);
            for pass in predictor.passes(start, start + days) {
                let (_, mo, d, h, m, _) = pass.aos.to_calendar();
                println!(
                    "{:11} {mo:02}-{d:02} {h:02}:{m:02}   {:>7.1}  {:>11.1}  {:>9.3}",
                    format!("{}-{:02}", sat.constellation, sat.sat_id),
                    pass.duration_min(),
                    pass.max_elevation_rad.to_degrees(),
                    sat.frequency_mhz,
                );
                count += 1;
            }
        }
    }
    println!("\n{count} passes total.");
}

fn budget(
    constellation: &str,
    antenna: satiot::channel::antenna::AntennaPattern,
    weather: satiot::channel::weather::Weather,
) {
    let spec = constellation_by_name(constellation).expect("validated by the parser");
    let shell = &spec.shells[0];
    let alt = 0.5 * (shell.alt_lo_km + shell.alt_hi_km);
    let mut link =
        satiot::channel::budget::LinkBudget::dts_downlink(spec.dts_frequency_mhz, antenna);
    link.tx_power_dbm = spec.tx_power_dbm;
    let cfg = LoRaConfig::dts_beacon();
    println!(
        "{} beacon budget @ {:.3} MHz, {:.0} km shell, {} antenna, {} sky",
        spec.name,
        spec.dts_frequency_mhz,
        alt,
        antenna.label(),
        weather.label()
    );
    println!(
        "beacon airtime {:.0} ms, noise floor {:.1} dBm\n",
        airtime_s(&cfg, BEACON_ON_AIR_BYTES) * 1e3,
        link.noise_floor_dbm()
    );
    println!("el(deg)  range(km)  RSSI(dBm)  SNR(dB)  P(decode)");
    let re = 6_378.0_f64;
    for el_deg in [2.0_f64, 5.0, 10.0, 15.0, 20.0, 30.0, 45.0, 60.0, 90.0] {
        let el = el_deg.to_radians();
        let range = -re * el.sin() + ((re * el.sin()).powi(2) + alt * alt + 2.0 * re * alt).sqrt();
        let rssi = link.mean_rssi_dbm(range, el, weather);
        let snr = rssi - link.noise_floor_dbm();
        println!(
            "{el_deg:>6.1}  {range:>9.0}  {rssi:>9.1}  {snr:>7.1}  {:>8.3}",
            packet_success_probability(&cfg, BEACON_ON_AIR_BYTES, snr)
        );
    }
}

fn campaign(kind: CampaignKind, days: f64) {
    // The `SATIOT_*` knobs (threads, the scenario file) steer
    // the CLI, resolved in one place.
    let opts = RunOptions::from_env().apply();
    // Every campaign goes through the scenario front door: either the
    // `SATIOT_SCENARIO` file or the compiled-in paper campaign, with the
    // CLI's day count filling an unset `max_days`.
    let scenario = match opts.scenario {
        Some(path) => ScenarioSpec::from_file(path).and_then(|s| s.build()),
        None => ScenarioSpec::paper_passive().build(),
    };
    let mut scenario = match scenario {
        Ok(s) => s,
        Err(e) => {
            eprintln!("satiot: scenario rejected: {e}");
            std::process::exit(2);
        }
    };
    let days = *scenario.max_days.get_or_insert(days);
    match kind {
        CampaignKind::Passive => {
            let cfg = PassiveConfig::from_scenario(&scenario);
            let results = match PassiveCampaign::new(cfg).run(&opts) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("satiot: passive campaign rejected: {e}");
                    std::process::exit(2);
                }
            };
            println!("Passive campaign, {days} day(s) per site:");
            if !results.faults.is_clean() {
                println!("  degraded inputs survived ({})", results.faults);
            }
            println!("  traces: {}", results.traces.len());
            for c in results.traces.constellations() {
                let rssi = Summary::of(&results.traces.rssi_of(&c));
                println!(
                    "  {c:7} {:>7} traces, RSSI mean {:.1} dBm",
                    rssi.n, rssi.mean
                );
            }
            let stats = results.contact_stats("Tianqi", &[]);
            println!(
                "  Tianqi daily-duration shrink {:.1}%, interval expansion {:.1}x",
                stats.duration_shrink * 100.0,
                stats.interval_expansion()
            );
        }
        CampaignKind::Active => {
            let cfg = ActiveConfig::from_scenario(&scenario);
            let results = match ActiveCampaign::new(cfg).run(&opts) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("satiot: active campaign rejected: {e}");
                    std::process::exit(2);
                }
            };
            let b = LatencyBreakdown::compute(&results.timelines);
            let rel = Reliability::compute(&results.timelines);
            println!("Active campaign (Yunnan farm), {days} day(s):");
            if !results.faults.is_clean() {
                println!("  degraded inputs survived ({})", results.faults);
            }
            println!(
                "  sent {} / delivered {} ({:.1}%)",
                rel.sent,
                rel.delivered,
                rel.ratio() * 100.0
            );
            println!(
                "  latency wait/DtS/delivery/e2e = {:.1}/{:.1}/{:.1}/{:.1} min",
                b.wait_min.mean, b.dts_min.mean, b.delivery_min.mean, b.end_to_end_min.mean
            );
            println!(
                "  mean attempts {:.2}, server duplicates {}",
                results.mean_attempts(),
                results.counters.server_duplicates
            );
        }
        CampaignKind::Terrestrial => {
            let cfg = TerrestrialConfig::from_scenario(&scenario);
            let results = match TerrestrialCampaign::new(cfg).run() {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("satiot: terrestrial campaign rejected: {e}");
                    std::process::exit(2);
                }
            };
            let b = LatencyBreakdown::compute(&results.timelines);
            let rel = Reliability::compute(&results.timelines);
            println!("Terrestrial baseline, {days} day(s):");
            if !results.faults.is_clean() {
                println!("  degraded inputs survived ({})", results.faults);
            }
            println!(
                "  sent {} / delivered {} ({:.2}%)",
                rel.sent,
                rel.delivered,
                rel.ratio() * 100.0
            );
            println!("  e2e latency {:.2} min mean", b.end_to_end_min.mean);
        }
    }
}
