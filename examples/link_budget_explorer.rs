//! Link-budget engineering tool: sweep elevation for a chosen
//! constellation/antenna/weather and print the full budget breakdown —
//! the table an RF engineer would build before deploying a DtS node.
//!
//! Run with:
//! `cargo run --example link_budget_explorer [tianqi|fossa|pico|cstp] [quarter|five8] [sunny|rainy]`

use satiot::channel::antenna::AntennaPattern;
use satiot::channel::atmosphere::{clutter_loss_db, tropo_loss_db, weather_loss_db};
use satiot::channel::budget::LinkBudget;
use satiot::channel::fspl::fspl_db;
use satiot::channel::weather::Weather;
use satiot::core::messages::BEACON_ON_AIR_BYTES;
use satiot::phy::airtime::airtime_s;
use satiot::phy::params::LoRaConfig;
use satiot::phy::per::packet_success_probability;
use satiot::scenarios::constellations::constellation_by_name;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let constellation = match args.get(1).map(|s| s.as_str()) {
        Some("fossa") => "FOSSA",
        Some("pico") => "PICO",
        Some("cstp") => "CSTP",
        _ => "Tianqi",
    };
    let antenna = match args.get(2).map(|s| s.as_str()) {
        Some("quarter") => AntennaPattern::QuarterWaveMonopole,
        _ => AntennaPattern::FiveEighthsWaveMonopole,
    };
    let weather = match args.get(3).map(|s| s.as_str()) {
        Some("rainy") => Weather::Rainy,
        Some("cloudy") => Weather::Cloudy,
        _ => Weather::Sunny,
    };

    let spec = constellation_by_name(constellation).expect("known constellation");
    let shell = &spec.shells[0];
    let alt = 0.5 * (shell.alt_lo_km + shell.alt_hi_km);
    let mut budget = LinkBudget::dts_downlink(spec.dts_frequency_mhz, antenna);
    budget.tx_power_dbm = spec.tx_power_dbm;
    let cfg = LoRaConfig::dts_beacon();
    let beacon_bytes = BEACON_ON_AIR_BYTES;

    println!(
        "Beacon downlink budget: {} @ {:.3} MHz, {:.0} km shell, {} antenna, {} sky",
        spec.name,
        spec.dts_frequency_mhz,
        alt,
        antenna.label(),
        weather.label()
    );
    println!(
        "TX {} dBm | beacon {} B = {:.0} ms airtime | noise floor {:.1} dBm\n",
        spec.tx_power_dbm,
        beacon_bytes,
        airtime_s(&cfg, beacon_bytes) * 1_000.0,
        budget.noise_floor_dbm()
    );
    println!("el(deg)  range(km)  FSPL(dB)  tropo  clutter  wx   RSSI(dBm)  SNR(dB)  P(decode)");
    let re = 6_378.0_f64;
    for el_deg in [0.0_f64, 3.0, 6.0, 10.0, 15.0, 20.0, 30.0, 45.0, 60.0, 90.0] {
        let el = el_deg.to_radians();
        let range = -re * el.sin() + ((re * el.sin()).powi(2) + alt * alt + 2.0 * re * alt).sqrt();
        let rssi = budget.mean_rssi_dbm(range, el, weather);
        let snr = rssi - budget.noise_floor_dbm();
        println!(
            "{el_deg:>6.1}  {range:>9.0}  {:>8.1}  {:>5.1}  {:>7.1}  {:>3.1}  {rssi:>9.1}  {snr:>7.1}  {:>8.3}",
            fspl_db(range, spec.dts_frequency_mhz),
            tropo_loss_db(el),
            clutter_loss_db(el),
            weather_loss_db(weather),
            packet_success_probability(&cfg, beacon_bytes, snr),
        );
    }
    println!("\nBelow the local clutter line the decode probability collapses — this is the");
    println!("mechanism that shortens effective contact windows by 73.7-89.2% in the paper.");
}
