//! Topocentric geometry: look angles, slant range, range-rate, and Doppler
//! shift from a ground observer to a satellite.
//!
//! The observer's local frame is SEZ (South-East-Zenith). Range-rate is
//! computed against the Earth-fixed relative velocity, which is what a
//! ground receiver's Doppler actually tracks.

use crate::frames::{teme_to_ecef, Geodetic};
use crate::sgp4::StateTeme;
use crate::time::JulianDate;
use crate::vec3::Vec3;
use crate::SPEED_OF_LIGHT_KM_S;

/// Look angles and relative motion from an observer to a satellite.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LookAngles {
    /// Azimuth, radians, clockwise from true north ∈ [0, 2π).
    pub azimuth_rad: f64,
    /// Elevation above the local horizon, radians (negative when below).
    pub elevation_rad: f64,
    /// Slant range, km.
    pub range_km: f64,
    /// Range rate, km/s (negative while approaching).
    pub range_rate_km_s: f64,
}

impl LookAngles {
    /// Doppler shift observed at `carrier_hz`: positive while the
    /// satellite approaches (received frequency above nominal).
    pub fn doppler_shift_hz(&self, carrier_hz: f64) -> f64 {
        -self.range_rate_km_s / SPEED_OF_LIGHT_KM_S * carrier_hz
    }
}

/// An observer fixed on the Earth's surface, with precomputed ECEF
/// position and local basis for fast repeated look-angle queries.
#[derive(Debug, Clone, Copy)]
pub struct Observer {
    /// Geodetic site location.
    pub site: Geodetic,
    ecef: Vec3,
    // Local unit vectors (ECEF components).
    south: Vec3,
    east: Vec3,
    zenith: Vec3,
}

impl Observer {
    /// Build an observer at a geodetic site.
    pub fn new(site: Geodetic) -> Self {
        let ecef = site.to_ecef();
        let (sin_lat, cos_lat) = site.lat_rad.sin_cos();
        let (sin_lon, cos_lon) = site.lon_rad.sin_cos();
        // Geodetic SEZ basis.
        let south = Vec3::new(sin_lat * cos_lon, sin_lat * sin_lon, -cos_lat);
        let east = Vec3::new(-sin_lon, cos_lon, 0.0);
        let zenith = Vec3::new(cos_lat * cos_lon, cos_lat * sin_lon, sin_lat);
        Observer {
            site,
            ecef,
            south,
            east,
            zenith,
        }
    }

    /// Observer position in ECEF, km.
    pub fn position_ecef(&self) -> Vec3 {
        self.ecef
    }

    /// The local zenith unit vector (ECEF components). Together with
    /// [`Self::position_ecef`] this is all the visibility kernels need:
    /// elevation-above-mask reduces to a sign test on the
    /// zenith-projected slant vector (see
    /// [`visibility`](crate::visibility)).
    pub fn zenith(&self) -> Vec3 {
        self.zenith
    }

    /// Look angles to a satellite TEME state at a UTC instant.
    pub fn look_at(&self, state: &StateTeme, when: JulianDate) -> LookAngles {
        let sat = teme_to_ecef(state, when);
        self.look_at_ecef(sat.position_km, sat.velocity_km_s)
    }

    /// Look angles given the satellite's ECEF position/velocity directly
    /// (used by hot loops that already converted the frame).
    pub fn look_at_ecef(&self, sat_pos_km: Vec3, sat_vel_km_s: Vec3) -> LookAngles {
        let rho = sat_pos_km - self.ecef;
        let range = rho.norm();
        // The observer is fixed in ECEF, so the relative velocity is the
        // satellite's Earth-fixed velocity.
        let range_rate = rho.dot(sat_vel_km_s) / range;

        let s = rho.dot(self.south);
        let e = rho.dot(self.east);
        let elevation = elevation_rad(rho, range, self.zenith);
        // Azimuth from north, clockwise: atan2(east, north) with north = −south.
        let mut azimuth = e.atan2(-s);
        if azimuth < 0.0 {
            azimuth += core::f64::consts::TAU;
        }
        LookAngles {
            azimuth_rad: azimuth,
            elevation_rad: elevation,
            range_km: range,
            range_rate_km_s: range_rate,
        }
    }

    /// Elevation of a satellite at ECEF `sat_pos_km` above the local
    /// horizon, radians: the `elevation_rad` of [`Self::look_at_ecef`],
    /// bit for bit, without the azimuth's `atan2` or the range rate.
    /// Pass refinement probes read only this.
    pub fn elevation_at_ecef(&self, sat_pos_km: Vec3) -> f64 {
        let rho = sat_pos_km - self.ecef;
        elevation_rad(rho, rho.norm(), self.zenith)
    }
}

/// Elevation of the slant vector `rho` (norm `range`) above the horizon
/// whose zenith is `zenith`: the one expression both look-angle
/// projections evaluate.
#[inline(always)]
fn elevation_rad(rho: Vec3, range: f64, zenith: Vec3) -> f64 {
    (rho.dot(zenith) / range).asin()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frames::WGS84_A_KM;

    fn equator_observer() -> Observer {
        Observer::new(Geodetic::from_degrees(0.0, 0.0, 0.0))
    }

    #[test]
    fn overhead_satellite_has_90_deg_elevation() {
        let obs = equator_observer();
        let sat = Vec3::new(WGS84_A_KM + 500.0, 0.0, 0.0);
        let la = obs.look_at_ecef(sat, Vec3::new(0.0, 7.6, 0.0));
        assert!((la.elevation_rad.to_degrees() - 90.0).abs() < 1e-6);
        assert!((la.range_km - 500.0).abs() < 1e-6);
        // Moving tangentially: range rate ≈ 0 at closest approach.
        assert!(la.range_rate_km_s.abs() < 1e-9);
    }

    #[test]
    fn cardinal_azimuths() {
        let obs = equator_observer();
        let r = WGS84_A_KM;
        // A point to the due east at the same latitude band, slightly up.
        let east_point = Vec3::new(r * 0.98, r * 0.3, 0.0);
        let la = obs.look_at_ecef(east_point, Vec3::ZERO);
        assert!(
            (la.azimuth_rad.to_degrees() - 90.0).abs() < 1.0,
            "az = {}",
            la.azimuth_rad.to_degrees()
        );
        // A point to the due north.
        let north_point = Vec3::new(r * 0.98, 0.0, r * 0.3);
        let la = obs.look_at_ecef(north_point, Vec3::ZERO);
        assert!(
            la.azimuth_rad.to_degrees() < 1.0 || la.azimuth_rad.to_degrees() > 359.0,
            "az = {}",
            la.azimuth_rad.to_degrees()
        );
        // Due south.
        let south_point = Vec3::new(r * 0.98, 0.0, -r * 0.3);
        let la = obs.look_at_ecef(south_point, Vec3::ZERO);
        assert!((la.azimuth_rad.to_degrees() - 180.0).abs() < 1.0);
        // Due west.
        let west_point = Vec3::new(r * 0.98, -r * 0.3, 0.0);
        let la = obs.look_at_ecef(west_point, Vec3::ZERO);
        assert!((la.azimuth_rad.to_degrees() - 270.0).abs() < 1.0);
    }

    #[test]
    fn below_horizon_is_negative_elevation() {
        let obs = equator_observer();
        // A point on the opposite side of the Earth.
        let la = obs.look_at_ecef(Vec3::new(-(WGS84_A_KM + 500.0), 0.0, 0.0), Vec3::ZERO);
        assert!(la.elevation_rad < 0.0);
    }

    #[test]
    fn approaching_satellite_has_negative_range_rate_and_positive_doppler() {
        let obs = equator_observer();
        // Satellite east of the observer moving westward (towards it).
        let sat = Vec3::new(WGS84_A_KM, 800.0, 0.0);
        let vel = Vec3::new(0.0, -7.0, 0.0);
        let la = obs.look_at_ecef(sat, vel);
        assert!(la.range_rate_km_s < 0.0);
        let doppler = la.doppler_shift_hz(400.0e6);
        assert!(doppler > 0.0);
        // 7 km/s radial at 400 MHz → ~9.3 kHz.
        assert!((doppler - 7.0 / SPEED_OF_LIGHT_KM_S * 400.0e6).abs() < 50.0);
    }

    #[test]
    fn range_rate_magnitude_bounded_by_speed() {
        let obs = Observer::new(Geodetic::from_degrees(22.3, 114.2, 0.0));
        let sat = Vec3::new(WGS84_A_KM + 300.0, 4000.0, 2000.0);
        let vel = Vec3::new(1.0, -6.0, 3.0);
        let la = obs.look_at_ecef(sat, vel);
        assert!(la.range_rate_km_s.abs() <= vel.norm() + 1e-12);
    }

    #[test]
    fn doppler_sign_flips_with_recession() {
        let obs = equator_observer();
        let sat = Vec3::new(WGS84_A_KM, 800.0, 0.0);
        let la_away = obs.look_at_ecef(sat, Vec3::new(0.0, 7.0, 0.0));
        assert!(la_away.range_rate_km_s > 0.0);
        assert!(la_away.doppler_shift_hz(433.0e6) < 0.0);
    }

    #[test]
    fn observer_site_is_preserved() {
        let site = Geodetic::from_degrees(-33.87, 151.21, 0.03);
        let obs = Observer::new(site);
        assert_eq!(obs.site, site);
        assert!((obs.position_ecef().norm() - site.to_ecef().norm()).abs() < 1e-12);
    }
}
