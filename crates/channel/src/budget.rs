//! End-to-end link budget composition.
//!
//! `RSSI = Ptx + Gtx(el) + Grx(el) − FSPL(d) − tropo(el) − weather −
//!         impl_loss + shadowing + fast_fading`
//!
//! `SNR = RSSI − noise_floor`
//!
//! The deterministic part ([`LinkBudget::mean_rssi_dbm`]) is separated
//! from the stochastic part ([`LinkBudget::sample`]) so analyses can
//! reason about the geometry in isolation, and so per-pass shadowing can
//! be drawn once and threaded through many per-packet samples.

use crate::antenna::AntennaPattern;
use crate::atmosphere::{clutter_loss_db, tropo_loss_db, weather_loss_db};
use crate::fading::FadingParams;
use crate::fspl::fspl_db;
use crate::noise::{noise_floor_dbm, SATELLITE_RX_NOISE_FIGURE_DB, SX126X_NOISE_FIGURE_DB};
use crate::weather::Weather;
use satiot_obs::metrics::Counter;
use satiot_sim::Rng;

/// Packet-level link samples drawn (metrics).
static LINK_SAMPLES: Counter = Counter::new("channel.budget.samples");

/// A fully parameterised radio link.
///
/// ```
/// use satiot_channel::antenna::AntennaPattern;
/// use satiot_channel::budget::LinkBudget;
/// use satiot_channel::weather::Weather;
///
/// let link = LinkBudget::dts_downlink(400.45, AntennaPattern::QuarterWaveMonopole);
/// // A mid-elevation Tianqi pass closes the link with margin…
/// let good = link.mean_rssi_dbm(1_250.0, 40.0_f64.to_radians(), Weather::Sunny);
/// // …while the horizon geometry does not.
/// let bad = link.mean_rssi_dbm(3_500.0, 2.0_f64.to_radians(), Weather::Sunny);
/// assert!(good - bad > 15.0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct LinkBudget {
    /// Carrier frequency, MHz.
    pub frequency_mhz: f64,
    /// Transmit power at the antenna port, dBm.
    pub tx_power_dbm: f64,
    /// Transmit antenna pattern.
    pub tx_antenna: AntennaPattern,
    /// Receive antenna pattern.
    pub rx_antenna: AntennaPattern,
    /// Receiver bandwidth, Hz.
    pub rx_bandwidth_hz: f64,
    /// Receiver noise figure, dB.
    pub rx_noise_figure_db: f64,
    /// Fixed implementation loss (cables, matching, polarisation), dB.
    pub implementation_loss_db: f64,
    /// Scale on the local-horizon clutter loss (1.0 = the default
    /// urban/terrain profile of [`crate::atmosphere::clutter_loss_db`];
    /// 0.0 = a clean horizon).
    pub clutter_scale: f64,
    /// Fading statistics.
    pub fading: FadingParams,
}

/// One sampled packet-level link realisation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSample {
    /// Received signal strength, dBm.
    pub rssi_dbm: f64,
    /// Signal-to-noise ratio in the receiver bandwidth, dB.
    pub snr_db: f64,
}

impl LinkBudget {
    /// Satellite → ground beacon/downlink in the DtS band: satellite
    /// dipole TX, ground whip RX, SX126x-class front-end.
    ///
    /// The 22 dBm transmit power matches the class of UHF transmitters
    /// flown on IoT nanosatellites.
    pub fn dts_downlink(frequency_mhz: f64, ground_antenna: AntennaPattern) -> Self {
        LinkBudget {
            frequency_mhz,
            tx_power_dbm: 22.0,
            tx_antenna: AntennaPattern::Dipole,
            rx_antenna: ground_antenna,
            rx_bandwidth_hz: 125_000.0,
            rx_noise_figure_db: SX126X_NOISE_FIGURE_DB,
            implementation_loss_db: 1.0,
            clutter_scale: 1.0,
            fading: FadingParams::default(),
        }
    }

    /// Ground node → satellite uplink: node whip TX, satellite dipole RX
    /// with the better space-grade front-end.
    pub fn dts_uplink(frequency_mhz: f64, node_antenna: AntennaPattern) -> Self {
        LinkBudget {
            frequency_mhz,
            tx_power_dbm: 22.0,
            tx_antenna: node_antenna,
            rx_antenna: AntennaPattern::Dipole,
            rx_bandwidth_hz: 125_000.0,
            rx_noise_figure_db: SATELLITE_RX_NOISE_FIGURE_DB,
            implementation_loss_db: 1.0,
            clutter_scale: 1.0,
            fading: FadingParams::default(),
        }
    }

    /// A short terrestrial LoRaWAN link (node → gateway, few km). The
    /// elevation-dependent machinery is reused with elevation ≈ 0 but a
    /// benign fading profile (fixed antennas, engineered siting).
    pub fn terrestrial(frequency_mhz: f64) -> Self {
        LinkBudget {
            frequency_mhz,
            tx_power_dbm: 14.0,
            tx_antenna: AntennaPattern::Isotropic,
            rx_antenna: AntennaPattern::Isotropic,
            rx_bandwidth_hz: 125_000.0,
            rx_noise_figure_db: SX126X_NOISE_FIGURE_DB,
            implementation_loss_db: 1.0,
            clutter_scale: 0.0,
            fading: FadingParams {
                shadow_sigma_sunny_db: 1.5,
                shadow_sigma_rain_extra_db: 0.5,
                k_zenith_db: 10.0,
                k_horizon_db: 10.0,
            },
        }
    }

    /// Receiver noise floor, dBm.
    pub fn noise_floor_dbm(&self) -> f64 {
        noise_floor_dbm(self.rx_bandwidth_hz, self.rx_noise_figure_db)
    }

    /// Deterministic mean RSSI (dBm) for a path of `distance_km` at
    /// `elevation_rad` under `weather` — no shadowing or fast fading.
    pub fn mean_rssi_dbm(&self, distance_km: f64, elevation_rad: f64, weather: Weather) -> f64 {
        self.tx_power_dbm
            + self.tx_antenna.gain_dbi(elevation_rad)
            + self.rx_antenna.gain_dbi(elevation_rad)
            - fspl_db(distance_km, self.frequency_mhz)
            - tropo_loss_db(elevation_rad)
            - self.clutter_scale * clutter_loss_db(elevation_rad)
            - weather_loss_db(weather)
            - self.implementation_loss_db
    }

    /// Sample one packet: mean RSSI plus the provided per-pass
    /// `shadowing_db` plus a fresh fast-fading draw.
    pub fn sample(
        &self,
        distance_km: f64,
        elevation_rad: f64,
        weather: Weather,
        shadowing_db: f64,
        rng: &mut Rng,
    ) -> LinkSample {
        satiot_obs::invariants::check_elevation_rad("budget::sample", elevation_rad);
        satiot_obs::invariants::check_non_negative("budget::sample distance", distance_km);
        let fast = self.fading.draw_fast_fading_db(elevation_rad, rng);
        let rssi = self.mean_rssi_dbm(distance_km, elevation_rad, weather) + shadowing_db + fast;
        let snr_db = rssi - self.noise_floor_dbm();
        LINK_SAMPLES.inc();
        LinkSample {
            rssi_dbm: rssi,
            snr_db,
        }
    }

    /// Draw the per-pass shadowing term for this link, dB.
    pub fn draw_shadowing_db(&self, weather: Weather, rng: &mut Rng) -> f64 {
        self.fading.draw_shadowing_db(weather, rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tianqi_zenith_rssi_is_in_papers_band() {
        // Tianqi high shell: ~900 km overhead pass at 400.45 MHz.
        let lb = LinkBudget::dts_downlink(400.45, AntennaPattern::QuarterWaveMonopole);
        let rssi = lb.mean_rssi_dbm(900.0, core::f64::consts::FRAC_PI_2, Weather::Sunny);
        // Paper Fig 3b/3c: satellite signals arrive at −140…−110 dBm.
        assert!((-140.0..=-110.0).contains(&rssi), "zenith RSSI {rssi} dBm");
    }

    #[test]
    fn mid_elevation_is_the_sweet_spot() {
        // The whip's zenith null and the horizon's path loss + troposphere
        // make mid-elevation geometry the best link — the mechanism behind
        // the paper's Figure 9 (receptions concentrate mid-window).
        let lb = LinkBudget::dts_downlink(400.45, AntennaPattern::QuarterWaveMonopole);
        let zenith = lb.mean_rssi_dbm(900.0, core::f64::consts::FRAC_PI_2, Weather::Sunny);
        let mid = lb.mean_rssi_dbm(1_250.0, 40.0_f64.to_radians(), Weather::Sunny);
        let horizon = lb.mean_rssi_dbm(3_500.0, 0.03, Weather::Sunny);
        assert!(mid > zenith, "mid {mid} !> zenith {zenith}");
        // Below the clutter line the link collapses entirely — this is
        // what truncates effective contact windows.
        assert!(mid - horizon > 20.0, "mid {mid} vs horizon {horizon}");
        assert!(zenith > horizon, "zenith {zenith} !> horizon {horizon}");
        assert!(
            (-170.0..=-145.0).contains(&horizon),
            "horizon RSSI {horizon}"
        );
    }

    #[test]
    fn snr_is_rssi_minus_floor() {
        let lb = LinkBudget::dts_downlink(433.0, AntennaPattern::QuarterWaveMonopole);
        let mut rng = Rng::from_seed(1);
        let s = lb.sample(1_000.0, 0.5, Weather::Sunny, 0.0, &mut rng);
        assert!((s.snr_db - (s.rssi_dbm - lb.noise_floor_dbm())).abs() < 1e-12);
    }

    #[test]
    fn rain_lowers_rssi() {
        let lb = LinkBudget::dts_downlink(433.0, AntennaPattern::QuarterWaveMonopole);
        let sunny = lb.mean_rssi_dbm(1_000.0, 0.5, Weather::Sunny);
        let rainy = lb.mean_rssi_dbm(1_000.0, 0.5, Weather::Rainy);
        assert!(sunny - rainy > 1.0, "sunny {sunny} rainy {rainy}");
    }

    #[test]
    fn better_antenna_raises_rssi_at_low_elevation() {
        let q = LinkBudget::dts_uplink(400.45, AntennaPattern::QuarterWaveMonopole);
        let f = LinkBudget::dts_uplink(400.45, AntennaPattern::FiveEighthsWaveMonopole);
        let el = 15.0_f64.to_radians();
        assert!(
            f.mean_rssi_dbm(2_000.0, el, Weather::Sunny)
                > q.mean_rssi_dbm(2_000.0, el, Weather::Sunny)
        );
    }

    #[test]
    fn terrestrial_link_has_huge_margin() {
        // 2 km LoRaWAN link: SNR should be comfortably above any SF
        // threshold — this is why the paper's terrestrial baseline sits at
        // ~100 % reliability.
        let lb = LinkBudget::terrestrial(470.0);
        let rssi = lb.mean_rssi_dbm(2.0, 0.0, Weather::Sunny);
        let snr = rssi - lb.noise_floor_dbm();
        assert!(snr > 10.0, "terrestrial SNR {snr}");
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let lb = LinkBudget::dts_downlink(433.0, AntennaPattern::QuarterWaveMonopole);
        let mut a = Rng::from_seed(9);
        let mut b = Rng::from_seed(9);
        for _ in 0..32 {
            let sa = lb.sample(1_500.0, 0.3, Weather::Cloudy, -1.0, &mut a);
            let sb = lb.sample(1_500.0, 0.3, Weather::Cloudy, -1.0, &mut b);
            assert_eq!(sa, sb);
        }
    }

    #[test]
    fn shadowing_shifts_rssi_one_for_one() {
        let lb = LinkBudget::dts_downlink(433.0, AntennaPattern::QuarterWaveMonopole);
        let mut a = Rng::from_seed(10);
        let mut b = Rng::from_seed(10);
        let s0 = lb.sample(1_000.0, 0.4, Weather::Sunny, 0.0, &mut a);
        let s5 = lb.sample(1_000.0, 0.4, Weather::Sunny, -5.0, &mut b);
        assert!((s0.rssi_dbm - s5.rssi_dbm - 5.0).abs() < 1e-9);
    }
}
