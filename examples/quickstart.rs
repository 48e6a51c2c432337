//! Quickstart: from a TLE to a pass prediction to a link budget in a few
//! lines — the minimal tour of the toolkit's layers.
//!
//! Run with: `cargo run --example quickstart`

use satiot::channel::antenna::AntennaPattern;
use satiot::channel::budget::LinkBudget;
use satiot::channel::weather::Weather;
use satiot::core::messages::BEACON_ON_AIR_BYTES;
use satiot::orbit::frames::Geodetic;
use satiot::orbit::pass::PassPredictor;
use satiot::orbit::sgp4::Sgp4;
use satiot::orbit::time::JulianDate;
use satiot::orbit::tle::Tle;
use satiot::phy::params::LoRaConfig;
use satiot::phy::per::packet_success_probability;
use satiot::scenarios::constellations::tianqi;
use satiot::scenarios::sites::campaign_epoch;

fn main() {
    // 1. A real TLE round-trips through the parser (the classic SGP4
    //    verification element set).
    let tle = Tle::parse_lines(
        "1 88888U          80275.98708465  .00073094  13844-3  66816-4 0    87",
        "2 88888  72.8435 115.9689 0086731  52.6988 110.5714 16.05824518  1058",
    )
    .expect("valid TLE");
    let sgp4 = Sgp4::new(&tle).expect("near-earth elements");
    let state = sgp4.propagate(0.0).expect("propagates at epoch");
    println!(
        "TLE #{} at epoch: |r| = {:.1} km, |v| = {:.2} km/s",
        tle.norad_id,
        state.position_km.norm(),
        state.velocity_km_s.norm()
    );

    // 2. Predict today's Tianqi passes over Hong Kong.
    let hk = Geodetic::from_degrees(22.3193, 114.1694, 0.05);
    let start = campaign_epoch();
    let sat = &tianqi().catalog(start)[0];
    let predictor = PassPredictor::new(sat.sgp4().unwrap(), hk, 0.0);
    println!("\nFirst Tianqi satellite's passes over Hong Kong (first day):");
    for pass in predictor.passes(start, start + 1.0) {
        let (_, _, _, h, m, _) = pass.aos.to_calendar();
        println!(
            "  AOS {:02}:{:02} UTC  duration {:>5.1} min  max elevation {:>4.1} deg  range@TCA {:>6.0} km",
            h,
            m,
            pass.duration_min(),
            pass.max_elevation_rad.to_degrees(),
            pass.tca_range_km
        );
    }

    // 3. Evaluate the beacon link at culmination geometry.
    let budget = LinkBudget::dts_downlink(400.45, AntennaPattern::QuarterWaveMonopole);
    let cfg = LoRaConfig::dts_beacon();
    println!("\nBeacon link vs elevation (sunny, mean channel):");
    println!("  el(deg)  range(km)   RSSI(dBm)  SNR(dB)  P(decode)");
    for el_deg in [5.0_f64, 15.0, 25.0, 45.0, 75.0] {
        // Slant range for Tianqi's high shell via the law of cosines.
        let re = 6378.0_f64;
        let h = 857.0_f64;
        let el = el_deg.to_radians();
        let range = (-re * el.sin()) + ((re * el.sin()).powi(2) + h * h + 2.0 * re * h).sqrt();
        let rssi = budget.mean_rssi_dbm(range, el, Weather::Sunny);
        let snr = rssi - budget.noise_floor_dbm();
        let p = packet_success_probability(&cfg, BEACON_ON_AIR_BYTES, snr);
        println!("  {el_deg:>6.1}  {range:>9.0}  {rssi:>9.1}  {snr:>7.1}  {p:>8.3}");
    }
    println!("\nThe mid-elevation sweet spot above is why effective contact windows are");
    println!("so much shorter than the TLE-predicted ones (the paper's headline finding).");

    // 4. Absolute instants work too.
    let when = JulianDate::from_calendar(2025, 3, 15, 12, 0, 0.0);
    if let Some(la) = predictor.look_at(when) {
        println!(
            "\nAt 2025-03-15 12:00 UTC the satellite sits at elevation {:.1} deg.",
            la.elevation_rad.to_degrees()
        );
    }
}
