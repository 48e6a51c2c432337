//! Reference-frame conversions: TEME ↔ ECEF and ECEF ↔ geodetic.
//!
//! SGP4 emits states in the TEME inertial frame; ground stations live on
//! the rotating Earth. The bridge is a rotation about the Earth's spin axis
//! by Greenwich Mean Sidereal Time (polar motion is ignored — it is metres,
//! far below link-budget relevance). Geodetic conversions use the WGS-84
//! ellipsoid.

use crate::sgp4::StateTeme;
use crate::time::JulianDate;
use crate::vec3::Vec3;

/// WGS-84 semi-major axis, km.
pub const WGS84_A_KM: f64 = 6_378.137;
/// WGS-84 flattening.
pub const WGS84_F: f64 = 1.0 / 298.257_223_563;
/// Earth rotation rate, rad/s (IAU-82 value used with GMST).
pub const EARTH_OMEGA_RAD_S: f64 = 7.292_115_146_706_4e-5;

/// A geodetic position on the WGS-84 ellipsoid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Geodetic {
    /// Geodetic latitude, radians (positive north).
    pub lat_rad: f64,
    /// Longitude, radians (positive east), in (−π, π].
    pub lon_rad: f64,
    /// Height above the ellipsoid, km.
    pub alt_km: f64,
}

impl Geodetic {
    /// Construct from latitude/longitude in radians and altitude in km.
    pub fn new(lat_rad: f64, lon_rad: f64, alt_km: f64) -> Self {
        Geodetic {
            lat_rad,
            lon_rad,
            alt_km,
        }
    }

    /// Construct from latitude/longitude in **degrees** and altitude in km
    /// (the form site catalogs use).
    pub fn from_degrees(lat_deg: f64, lon_deg: f64, alt_km: f64) -> Self {
        Geodetic::new(lat_deg.to_radians(), lon_deg.to_radians(), alt_km)
    }

    /// Convert to an Earth-centred, Earth-fixed cartesian position (km).
    pub fn to_ecef(self) -> Vec3 {
        let e2 = WGS84_F * (2.0 - WGS84_F);
        let sin_lat = self.lat_rad.sin();
        let cos_lat = self.lat_rad.cos();
        let n = WGS84_A_KM / (1.0 - e2 * sin_lat * sin_lat).sqrt();
        Vec3::new(
            (n + self.alt_km) * cos_lat * self.lon_rad.cos(),
            (n + self.alt_km) * cos_lat * self.lon_rad.sin(),
            (n * (1.0 - e2) + self.alt_km) * sin_lat,
        )
    }
}

/// A position (and optional velocity) in the Earth-fixed frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StateEcef {
    /// Position, km.
    pub position_km: Vec3,
    /// Velocity relative to the rotating Earth, km/s.
    pub velocity_km_s: Vec3,
}

/// Rotate a TEME state into ECEF at the given UTC instant.
///
/// Velocity is corrected for the frame rotation (`v_ecef = R·v_teme − ω×r`).
pub fn teme_to_ecef(state: &StateTeme, when: JulianDate) -> StateEcef {
    rotate_teme_to_ecef(state, ecef_rotation(when))
}

/// The sine and cosine of the TEME→ECEF angle at `when`: ECEF =
/// R3(gmst) · TEME, i.e. a rotation by −GMST about Z.
pub(crate) fn ecef_rotation(when: JulianDate) -> (f64, f64) {
    (-when.gmst_rad()).sin_cos()
}

/// [`teme_to_ecef`] given [`ecef_rotation`]'s sine and cosine: the one
/// rotation expression both it and the ephemeris tiles evaluate, the
/// tiles with the angles of a shared
/// [`LatticeFrame`](crate::ephemeris::LatticeFrame).
pub(crate) fn rotate_teme_to_ecef(state: &StateTeme, sin_cos: (f64, f64)) -> StateEcef {
    let r = state.position_km.rotate_z(sin_cos);
    let v_rot = state.velocity_km_s.rotate_z(sin_cos);
    let omega = Vec3::new(0.0, 0.0, EARTH_OMEGA_RAD_S);
    let v = v_rot - omega.cross(r);
    StateEcef {
        position_km: r,
        velocity_km_s: v,
    }
}

/// Convert an ECEF position to geodetic coordinates (WGS-84) using
/// Bowring's closed-form method with one Bowring refinement step.
///
/// The previous implementation fixed-point-iterated on the latitude,
/// which loses accuracy near the poles where the `p / cos(lat)` height
/// expression is ill-conditioned and the iteration increment stalls just
/// above the convergence tolerance. Bowring's parametric-latitude form
/// has no such singularity: one evaluation is accurate to ~1e-10 rad for
/// any LEO/ground point and the refinement step brings it below 1e-12
/// rad. The height uses the latitude-independent projection
/// `h = p·cosφ + z·sinφ − a·√(1 − e²sin²φ)`, stable from equator to pole.
pub fn ecef_to_geodetic(r: Vec3) -> Geodetic {
    let e2 = WGS84_F * (2.0 - WGS84_F);
    let b = WGS84_A_KM * (1.0 - WGS84_F);
    let ep2 = e2 / (1.0 - e2);
    let lon = r.y.atan2(r.x);
    let p = (r.x * r.x + r.y * r.y).sqrt();
    if p < 1e-9 {
        // On the polar axis.
        let lat = if r.z >= 0.0 {
            core::f64::consts::FRAC_PI_2
        } else {
            -core::f64::consts::FRAC_PI_2
        };
        return Geodetic::new(lat, 0.0, r.z.abs() - b);
    }

    // Initial parametric (reduced) latitude: tan u = (z/p)(a/b).
    let mut u = (r.z * WGS84_A_KM).atan2(p * b);
    let mut lat = 0.0;
    // One closed-form evaluation plus one refinement of u from the
    // resulting geodetic latitude (tan u = (1−f)·tan φ).
    for _ in 0..2 {
        let (su, cu) = u.sin_cos();
        lat = (r.z + ep2 * b * su * su * su).atan2(p - e2 * WGS84_A_KM * cu * cu * cu);
        u = ((1.0 - WGS84_F) * lat.sin()).atan2(lat.cos());
    }

    let (sin_lat, cos_lat) = lat.sin_cos();
    let alt = p * cos_lat + r.z * sin_lat - WGS84_A_KM * (1.0 - e2 * sin_lat * sin_lat).sqrt();
    let g = Geodetic::new(lat, lon, alt);
    satiot_obs::invariants::check_elevation_rad("frames::ecef_to_geodetic latitude", g.lat_rad);
    debug_assert!(
        (g.to_ecef() - r).norm() < 1e-3,
        "geodetic round-trip residual exceeds 1 m at {r:?}"
    );
    g
}

/// Sub-satellite point: geodetic lat/lon/alt directly below a TEME state.
pub fn subsatellite_point(state: &StateTeme, when: JulianDate) -> Geodetic {
    ecef_to_geodetic(teme_to_ecef(state, when).position_km)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geodetic_ecef_round_trip() {
        let sites = [
            (22.3193, 114.1694, 0.05),  // Hong Kong
            (-33.8688, 151.2093, 0.02), // Sydney
            (51.5074, -0.1278, 0.01),   // London
            (40.4406, -79.9959, 0.3),   // Pittsburgh
            (0.0, 0.0, 0.0),            // Gulf of Guinea
            (89.9, 45.0, 0.0),          // Near north pole
            (-89.9, -120.0, 0.1),       // Near south pole
        ];
        for (lat, lon, alt) in sites {
            let g = Geodetic::from_degrees(lat, lon, alt);
            let r = g.to_ecef();
            let back = ecef_to_geodetic(r);
            assert!(
                (back.lat_rad - g.lat_rad).abs() < 1e-9,
                "lat mismatch at {lat},{lon}"
            );
            assert!(
                (back.lon_rad - g.lon_rad).abs() < 1e-9,
                "lon mismatch at {lat},{lon}"
            );
            assert!(
                (back.alt_km - g.alt_km).abs() < 1e-6,
                "alt mismatch at {lat},{lon}: {} vs {alt}",
                back.alt_km
            );
        }
    }

    #[test]
    fn equator_ecef_has_expected_radius() {
        let g = Geodetic::from_degrees(0.0, 0.0, 0.0);
        let r = g.to_ecef();
        assert!((r.x - WGS84_A_KM).abs() < 1e-9);
        assert!(r.y.abs() < 1e-9 && r.z.abs() < 1e-9);
    }

    #[test]
    fn pole_ecef_has_polar_radius() {
        let g = Geodetic::from_degrees(90.0, 0.0, 0.0);
        let r = g.to_ecef();
        let b = WGS84_A_KM * (1.0 - WGS84_F);
        assert!((r.z - b).abs() < 1e-6, "z = {}", r.z);
    }

    /// Pinned from `tests/props.proptest-regressions` (seed `f77f9e90…`):
    /// the near-pole point where the old fixed-point iteration stalled
    /// just above the 1e-9 rad round-trip tolerance.
    #[test]
    fn regression_near_pole_roundtrip_seed() {
        let g = Geodetic::from_degrees(89.75101093198926, 0.0, 4.3151289694631085);
        let back = ecef_to_geodetic(g.to_ecef());
        assert!(
            (back.lat_rad - g.lat_rad).abs() < 1e-9,
            "lat residual {:e}",
            (back.lat_rad - g.lat_rad).abs()
        );
        assert!((back.lon_rad - g.lon_rad).abs() < 1e-9);
        assert!(
            (back.alt_km - g.alt_km).abs() < 1e-6,
            "alt residual {:e}",
            (back.alt_km - g.alt_km).abs()
        );
    }

    /// Bowring's closed form must hold the 1e-9 rad round-trip tolerance
    /// over a dense latitude sweep including both poles' neighbourhoods.
    #[test]
    fn bowring_roundtrip_latitude_sweep() {
        for i in 0..=1800 {
            let lat = -90.0 + i as f64 * 0.1;
            for alt in [0.0, 0.5, 8.8] {
                let g = Geodetic::from_degrees(lat, 12.5, alt);
                let back = ecef_to_geodetic(g.to_ecef());
                assert!(
                    (back.lat_rad - g.lat_rad).abs() < 1e-9,
                    "lat {lat}: residual {:e}",
                    (back.lat_rad - g.lat_rad).abs()
                );
                assert!(
                    (back.alt_km - g.alt_km).abs() < 1e-6,
                    "lat {lat} alt {alt}: residual {:e}",
                    (back.alt_km - g.alt_km).abs()
                );
            }
        }
    }

    #[test]
    fn polar_axis_geodetic() {
        let b = WGS84_A_KM * (1.0 - WGS84_F);
        let g = ecef_to_geodetic(Vec3::new(0.0, 0.0, b + 100.0));
        assert!((g.lat_rad.to_degrees() - 90.0).abs() < 1e-9);
        assert!((g.alt_km - 100.0).abs() < 1e-6);
    }

    #[test]
    fn teme_to_ecef_preserves_radius() {
        let state = StateTeme {
            position_km: Vec3::new(2328.97, -5995.22, 1719.97),
            velocity_km_s: Vec3::new(2.912, -0.983, -7.091),
            tsince_min: 0.0,
        };
        let when = JulianDate::from_calendar(1980, 10, 1, 23, 41, 24.11);
        let ecef = teme_to_ecef(&state, when);
        assert!((ecef.position_km.norm() - state.position_km.norm()).abs() < 1e-9);
        // The Earth-fixed speed differs from inertial speed by ≲ ω·r ≈ 0.5 km/s.
        let dv = (ecef.velocity_km_s.norm() - state.velocity_km_s.norm()).abs();
        assert!(dv < 0.6, "dv = {dv}");
    }

    #[test]
    fn subsatellite_point_altitude_is_orbit_height() {
        // A point 7000 km from Earth's centre over the equator.
        let state = StateTeme {
            position_km: Vec3::new(7000.0, 0.0, 0.0),
            velocity_km_s: Vec3::new(0.0, 7.5, 0.0),
            tsince_min: 0.0,
        };
        let when = JulianDate::from_calendar(2024, 6, 1, 0, 0, 0.0);
        let g = subsatellite_point(&state, when);
        assert!(g.lat_rad.abs() < 1e-6);
        assert!((g.alt_km - (7000.0 - WGS84_A_KM)).abs() < 0.01);
    }

    #[test]
    fn gmst_rotation_moves_longitude_west_over_time() {
        // A fixed inertial point appears to drift westward in longitude as
        // the Earth rotates eastward beneath it.
        let state = StateTeme {
            position_km: Vec3::new(7000.0, 0.0, 0.0),
            velocity_km_s: Vec3::ZERO,
            tsince_min: 0.0,
        };
        let t0 = JulianDate::from_calendar(2024, 6, 1, 0, 0, 0.0);
        let g0 = subsatellite_point(&state, t0);
        let g1 = subsatellite_point(&state, t0.plus_minutes(10.0));
        let mut dlon = g1.lon_rad - g0.lon_rad;
        if dlon > core::f64::consts::PI {
            dlon -= core::f64::consts::TAU;
        }
        // 10 min of Earth rotation ≈ 2.5° westward drift.
        assert!((dlon.to_degrees() + 2.5).abs() < 0.05, "dlon = {dlon}");
    }
}

/// Sample the ground track of a propagator: sub-satellite geodetic points
/// every `step_s` seconds over `[start, end]`. Propagation failures
/// truncate the track.
pub fn ground_track(
    sgp4: &crate::sgp4::Sgp4,
    start: JulianDate,
    end: JulianDate,
    step_s: f64,
) -> Vec<(JulianDate, Geodetic)> {
    let mut out = Vec::new();
    if step_s <= 0.0 {
        return out;
    }
    let mut t = start;
    while t <= end {
        match sgp4.propagate_at(t) {
            Ok(state) => out.push((t, subsatellite_point(&state, t))),
            Err(_) => break,
        }
        t = t.plus_seconds(step_s);
    }
    out
}

#[cfg(test)]
mod ground_track_tests {
    use super::*;
    use crate::elements::Elements;

    #[test]
    fn track_latitude_is_bounded_by_inclination() {
        let epoch = JulianDate::from_calendar(2024, 9, 1, 0, 0, 0.0);
        let incl = 49.97_f64;
        let sgp4 = Elements::circular(857.0, incl, epoch).to_sgp4().unwrap();
        let track = ground_track(&sgp4, epoch, epoch + 0.2, 30.0);
        assert!(track.len() > 500);
        let max_lat = track
            .iter()
            .map(|(_, g)| g.lat_rad.to_degrees().abs())
            .fold(0.0_f64, f64::max);
        assert!(max_lat <= incl + 0.5, "max lat {max_lat}");
        // An inclined LEO actually reaches its inclination latitude.
        assert!(max_lat > incl - 2.0, "max lat {max_lat}");
        // Altitude along the track stays at the shell height.
        for (_, g) in &track {
            assert!((g.alt_km - 857.0).abs() < 40.0, "alt {}", g.alt_km);
        }
    }

    #[test]
    fn degenerate_track_inputs() {
        let epoch = JulianDate::from_calendar(2024, 9, 1, 0, 0, 0.0);
        let sgp4 = Elements::circular(600.0, 60.0, epoch).to_sgp4().unwrap();
        assert!(ground_track(&sgp4, epoch, epoch, 0.0).is_empty());
        let single = ground_track(&sgp4, epoch, epoch, 60.0);
        assert_eq!(single.len(), 1);
    }
}
