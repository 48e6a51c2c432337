//! Cross-crate property-based tests (proptest): randomised orbital
//! elements, payloads, and link geometries exercised through multiple
//! crates at once.

use proptest::prelude::*;
use satiot::channel::antenna::AntennaPattern;
use satiot::channel::budget::LinkBudget;
use satiot::channel::weather::Weather;
use satiot::orbit::elements::Elements;
use satiot::orbit::frames::{ecef_to_geodetic, Geodetic};
use satiot::orbit::sgp4::EARTH_RADIUS_KM;
use satiot::orbit::time::JulianDate;
use satiot::orbit::tle::Tle;
use satiot::phy::airtime::airtime_s;
use satiot::phy::frame::LoRaFrame;
use satiot::phy::params::{CodingRate, LoRaConfig, SpreadingFactor};
use satiot::phy::per::packet_success_probability;

fn epoch() -> JulianDate {
    JulianDate::from_calendar(2025, 3, 1, 0, 0, 0.0)
}

proptest! {
    /// Any LEO element set must survive the full TLE text round trip and
    /// propagate to a radius consistent with its altitude for a day.
    #[test]
    fn random_leo_elements_roundtrip_and_propagate(
        alt in 300.0_f64..1_500.0,
        incl in 0.0_f64..180.0,
        raan in 0.0_f64..std::f64::consts::TAU,
        ma in 0.0_f64..std::f64::consts::TAU,
        t in 0.0_f64..1_440.0,
    ) {
        let mut e = Elements::circular(alt, incl, epoch());
        e.raan_rad = raan;
        e.mean_anomaly_rad = ma;
        let tle = e.to_tle(42_000, "PROP").unwrap();
        let (l1, l2) = tle.format_lines();
        let parsed = Tle::parse_lines(&l1, &l2).unwrap();
        prop_assert!((parsed.inclination_rad - e.inclination_rad).abs() < 1e-4);
        prop_assert!((parsed.mean_motion_rad_min - e.mean_motion_rad_min()).abs() < 1e-6);

        let sgp4 = e.to_sgp4().unwrap();
        let state = sgp4.propagate(t).unwrap();
        let r = state.position_km.norm();
        prop_assert!(
            (r - (EARTH_RADIUS_KM + alt)).abs() < 60.0,
            "alt {alt}: radius {r}"
        );
        // Speed matches the circular-orbit band.
        let v = state.velocity_km_s.norm();
        prop_assert!((6.9..8.0).contains(&v), "speed {v}");
    }

    /// Geodetic → ECEF → geodetic is the identity everywhere on Earth.
    #[test]
    fn geodetic_roundtrip_everywhere(
        lat in -89.9_f64..89.9,
        lon in -179.9_f64..179.9,
        alt in 0.0_f64..9.0,
    ) {
        let g = Geodetic::from_degrees(lat, lon, alt);
        let back = ecef_to_geodetic(g.to_ecef());
        prop_assert!((back.lat_rad - g.lat_rad).abs() < 1e-9);
        prop_assert!((back.lon_rad - g.lon_rad).abs() < 1e-9);
        prop_assert!((back.alt_km - g.alt_km).abs() < 1e-6);
    }

    /// The PHY frame codec round-trips arbitrary payloads and rejects any
    /// single-byte corruption.
    #[test]
    fn frame_codec_roundtrip_and_corruption(
        payload in proptest::collection::vec(any::<u8>(), 0..=200),
        flip_pos_frac in 0.0_f64..1.0,
        flip_bit in 0u8..8,
    ) {
        let frame = LoRaFrame::new(payload.clone(), CodingRate::Cr4_8);
        let wire = frame.encode();
        let decoded = LoRaFrame::decode(&wire).unwrap();
        prop_assert_eq!(&decoded.payload[..], &payload[..]);

        let mut corrupted = wire.to_vec();
        let pos = ((flip_pos_frac * corrupted.len() as f64) as usize).min(corrupted.len() - 1);
        corrupted[pos] ^= 1 << flip_bit;
        let result = LoRaFrame::decode(&corrupted);
        prop_assert!(
            result.is_err() || result.as_ref().unwrap() != &frame,
            "corruption at byte {pos} undetected"
        );
    }

    /// Airtime is monotone in payload length and spreading factor, and
    /// decode probability is monotone in SNR for any configuration.
    #[test]
    fn phy_monotonicities(
        len_a in 0usize..200,
        extra in 1usize..55,
        snr in -30.0_f64..5.0,
        sf_idx in 0usize..5,
    ) {
        let sf = SpreadingFactor::ALL[sf_idx];
        let sf_next = SpreadingFactor::ALL[sf_idx + 1];
        let cfg = LoRaConfig { sf, ..LoRaConfig::dts_beacon() };
        let cfg_next = LoRaConfig { sf: sf_next, ..cfg };
        // Payload symbols quantise in FEC blocks, so airtime is
        // non-decreasing byte-by-byte and strictly longer per ~32 B.
        prop_assert!(airtime_s(&cfg, len_a + extra) >= airtime_s(&cfg, len_a));
        prop_assert!(airtime_s(&cfg, len_a + 32) > airtime_s(&cfg, len_a));
        prop_assert!(airtime_s(&cfg_next, len_a) > airtime_s(&cfg, len_a));
        let p_lo = packet_success_probability(&cfg, len_a, snr);
        let p_hi = packet_success_probability(&cfg, len_a, snr + 1.0);
        prop_assert!(p_hi >= p_lo);
        prop_assert!((0.0..=1.0).contains(&p_lo));
    }

    /// The link budget degrades monotonically with distance at fixed
    /// geometry, under every weather and antenna.
    #[test]
    fn link_budget_monotone_in_distance(
        d in 500.0_f64..3_000.0,
        el_deg in 0.0_f64..90.0,
        wx_idx in 0usize..3,
        ant_idx in 0usize..2,
    ) {
        let weather = [Weather::Sunny, Weather::Cloudy, Weather::Rainy][wx_idx];
        let antenna = [
            AntennaPattern::QuarterWaveMonopole,
            AntennaPattern::FiveEighthsWaveMonopole,
        ][ant_idx];
        let budget = LinkBudget::dts_downlink(400.45, antenna);
        let el = el_deg.to_radians();
        let near = budget.mean_rssi_dbm(d, el, weather);
        let far = budget.mean_rssi_dbm(d * 1.5, el, weather);
        prop_assert!(near > far, "rssi {near} !> {far}");
        // SNR definition holds.
        prop_assert!((near - budget.noise_floor_dbm()) > (far - budget.noise_floor_dbm()));
    }
}
