//! Piecewise waypoint mobility tracks for moving ground nodes
//! (maritime/asset trackers).
//!
//! A [`MobilityTrack`] is a list of timestamped waypoints; between
//! waypoints the node follows the great circle connecting them at
//! constant angular rate, with altitude interpolated linearly. Before
//! the first waypoint and after the last one the node holds station.
//!
//! Pass prediction cannot use a single fixed observer for a moving
//! node, so [`MobilityTrack::legs`] discretises the track into
//! [`ObserverLeg`]s — short windows during which the observer is pinned
//! at the leg-midpoint position — which
//! [`PassPredictor::passes_over_legs`](satiot_orbit::pass::PassPredictor::passes_over_legs)
//! scans one by one over one shared ephemeris grid. The discretisation
//! is deterministic (pure arithmetic on the waypoint table), so
//! campaigns over mobile sites stay bit-identical across drivers.

use crate::spec::ScenarioError;
use satiot_orbit::frames::Geodetic;
use satiot_orbit::pass::ObserverLeg;
use satiot_orbit::time::JulianDate;

/// One timestamped position of a mobility track.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Waypoint {
    /// Seconds since the site's campaign start.
    pub t_s: f64,
    /// Geodetic latitude, degrees.
    pub lat_deg: f64,
    /// Longitude, degrees.
    pub lon_deg: f64,
    /// Altitude above the ellipsoid, km.
    pub alt_km: f64,
}

impl Waypoint {
    /// The waypoint's position as a [`Geodetic`].
    pub fn geodetic(&self) -> Geodetic {
        Geodetic::from_degrees(self.lat_deg, self.lon_deg, self.alt_km)
    }
}

/// A piecewise great-circle waypoint track.
#[derive(Debug, Clone, PartialEq)]
pub struct MobilityTrack {
    /// Waypoints in strictly increasing time order (≥ 2).
    pub waypoints: Vec<Waypoint>,
}

/// Default leg length for [`MobilityTrack::legs`], seconds. A ship at
/// 20 kn moves ~6 km in 10 minutes — well under the slant-range scale
/// of a LEO pass, so pinning the observer per leg stays a good
/// approximation while keeping leg counts (and pass-scan overhead)
/// modest over multi-day campaigns.
pub const DEFAULT_LEG_S: f64 = 600.0;

impl MobilityTrack {
    /// Validate the track: at least two waypoints, strictly monotone
    /// timestamps, finite coordinates, latitudes inside [−90°, 90°].
    pub fn validate(&self) -> Result<(), ScenarioError> {
        if self.waypoints.len() < 2 {
            return Err(ScenarioError::invalid(
                "track.waypoints",
                "needs at least 2 waypoints",
            ));
        }
        for (i, w) in self.waypoints.iter().enumerate() {
            for (what, v) in [
                ("t_s", w.t_s),
                ("lat_deg", w.lat_deg),
                ("lon_deg", w.lon_deg),
                ("alt_km", w.alt_km),
            ] {
                if !v.is_finite() {
                    return Err(ScenarioError::invalid(
                        &format!("track.waypoints[{i}].{what}"),
                        "must be finite",
                    ));
                }
            }
            if !(-90.0..=90.0).contains(&w.lat_deg) {
                return Err(ScenarioError::invalid(
                    &format!("track.waypoints[{i}].lat_deg"),
                    "must be in [-90, 90]",
                ));
            }
        }
        for (i, pair) in self.waypoints.windows(2).enumerate() {
            if pair[1].t_s <= pair[0].t_s {
                return Err(ScenarioError::invalid(
                    &format!("track.waypoints[{}].t_s", i + 1),
                    "timestamps must be strictly increasing",
                ));
            }
        }
        Ok(())
    }

    /// Position at `t_s` seconds since campaign start: great-circle
    /// interpolation between the bracketing waypoints, clamped to the
    /// endpoints outside the track's time span.
    pub fn position_at(&self, t_s: f64) -> Geodetic {
        let first = &self.waypoints[0];
        if t_s <= first.t_s {
            return first.geodetic();
        }
        let last = &self.waypoints[self.waypoints.len() - 1];
        if t_s >= last.t_s {
            return last.geodetic();
        }
        // The bracketing segment (validate() guarantees monotone t_s).
        let seg = self
            .waypoints
            .windows(2)
            .find(|pair| t_s < pair[1].t_s)
            .expect("t_s < last.t_s, so a bracketing segment exists");
        let (a, b) = (&seg[0], &seg[1]);
        let f = (t_s - a.t_s) / (b.t_s - a.t_s);
        great_circle_point(a, b, f)
    }

    /// Total track duration, seconds (first to last waypoint).
    pub fn duration_s(&self) -> f64 {
        self.waypoints[self.waypoints.len() - 1].t_s - self.waypoints[0].t_s
    }

    /// Discretise the span `[start_s, end_s]` (seconds relative to
    /// `epoch`) into contiguous [`ObserverLeg`]s of at most `max_leg_s`
    /// seconds, each pinned at the leg's midpoint position. Segment
    /// boundaries (waypoints) always start a new leg, so a leg never
    /// spans a course change.
    pub fn legs(
        &self,
        epoch: JulianDate,
        start_s: f64,
        end_s: f64,
        max_leg_s: f64,
    ) -> Vec<ObserverLeg> {
        let mut out = Vec::new();
        // NaN-safe: a NaN span or leg cap must fall through to the
        // empty return, so test the positive condition and negate.
        let well_formed = end_s > start_s && max_leg_s > 0.0;
        if !well_formed {
            return out;
        }
        // Cut points: the span endpoints plus every waypoint inside it.
        let mut cuts = vec![start_s];
        for w in &self.waypoints {
            if w.t_s > start_s && w.t_s < end_s {
                cuts.push(w.t_s);
            }
        }
        cuts.push(end_s);
        for pair in cuts.windows(2) {
            let (lo, hi) = (pair[0], pair[1]);
            let n = ((hi - lo) / max_leg_s).ceil().max(1.0) as usize;
            let step = (hi - lo) / n as f64;
            for k in 0..n {
                let a = lo + k as f64 * step;
                let b = if k + 1 == n {
                    hi
                } else {
                    lo + (k + 1) as f64 * step
                };
                out.push(ObserverLeg {
                    start: epoch.plus_seconds(a),
                    end: epoch.plus_seconds(b),
                    position: self.position_at(0.5 * (a + b)),
                });
            }
        }
        out
    }
}

/// The point a fraction `f ∈ [0, 1]` along the great circle from `a`
/// to `b`, altitude interpolated linearly.
fn great_circle_point(a: &Waypoint, b: &Waypoint, f: f64) -> Geodetic {
    let va = unit_vector(a.lat_deg.to_radians(), a.lon_deg.to_radians());
    let vb = unit_vector(b.lat_deg.to_radians(), b.lon_deg.to_radians());
    let dot = (va[0] * vb[0] + va[1] * vb[1] + va[2] * vb[2]).clamp(-1.0, 1.0);
    let omega = dot.acos();
    let v = if omega < 1e-9 {
        // Coincident (or numerically so): linear blend then renormalise.
        [
            va[0] + f * (vb[0] - va[0]),
            va[1] + f * (vb[1] - va[1]),
            va[2] + f * (vb[2] - va[2]),
        ]
    } else {
        // Spherical linear interpolation at constant angular rate.
        let (wa, wb) = (
            ((1.0 - f) * omega).sin() / omega.sin(),
            (f * omega).sin() / omega.sin(),
        );
        [
            wa * va[0] + wb * vb[0],
            wa * va[1] + wb * vb[1],
            wa * va[2] + wb * vb[2],
        ]
    };
    let norm = (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt();
    let lat = (v[2] / norm).asin();
    let lon = v[1].atan2(v[0]);
    Geodetic::new(lat, lon, a.alt_km + f * (b.alt_km - a.alt_km))
}

fn unit_vector(lat_rad: f64, lon_rad: f64) -> [f64; 3] {
    [
        lat_rad.cos() * lon_rad.cos(),
        lat_rad.cos() * lon_rad.sin(),
        lat_rad.sin(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hk_to_manila() -> MobilityTrack {
        MobilityTrack {
            waypoints: vec![
                Waypoint {
                    t_s: 0.0,
                    lat_deg: 22.3,
                    lon_deg: 114.2,
                    alt_km: 0.0,
                },
                Waypoint {
                    t_s: 86_400.0,
                    lat_deg: 14.6,
                    lon_deg: 121.0,
                    alt_km: 0.0,
                },
            ],
        }
    }

    #[test]
    fn endpoints_and_clamping() {
        let track = hk_to_manila();
        track.validate().expect("valid track");
        let start = track.position_at(-100.0);
        assert!((start.lat_rad.to_degrees() - 22.3).abs() < 1e-9);
        let end = track.position_at(1e9);
        assert!((end.lat_rad.to_degrees() - 14.6).abs() < 1e-9);
        assert_eq!(track.duration_s(), 86_400.0);
    }

    #[test]
    fn midpoint_lies_between_on_the_great_circle() {
        let track = hk_to_manila();
        let mid = track.position_at(43_200.0);
        let lat = mid.lat_rad.to_degrees();
        let lon = mid.lon_rad.to_degrees();
        assert!((14.6..22.3).contains(&lat), "lat {lat}");
        assert!((114.2..121.0).contains(&lon), "lon {lon}");
        // Interpolation is exact at waypoints.
        let at_wp = track.position_at(86_400.0);
        assert!((at_wp.lon_rad.to_degrees() - 121.0).abs() < 1e-9);
    }

    #[test]
    fn antimeridian_crossing_is_continuous() {
        let track = MobilityTrack {
            waypoints: vec![
                Waypoint {
                    t_s: 0.0,
                    lat_deg: 0.0,
                    lon_deg: 179.0,
                    alt_km: 0.0,
                },
                Waypoint {
                    t_s: 3600.0,
                    lat_deg: 0.0,
                    lon_deg: -179.0,
                    alt_km: 0.0,
                },
            ],
        };
        // The short way across the antimeridian, not the long way
        // around: the midpoint sits at ±180°, not 0°.
        let mid = track.position_at(1800.0);
        assert!(mid.lon_rad.to_degrees().abs() > 179.0);
    }

    #[test]
    fn validation_rejects_bad_tracks() {
        let single = MobilityTrack {
            waypoints: vec![hk_to_manila().waypoints[0]],
        };
        assert!(single.validate().is_err());
        let mut backwards = hk_to_manila();
        backwards.waypoints[1].t_s = -5.0;
        assert!(backwards.validate().is_err());
        let mut nan = hk_to_manila();
        nan.waypoints[0].lat_deg = f64::NAN;
        assert!(nan.validate().is_err());
        let mut polar = hk_to_manila();
        polar.waypoints[0].lat_deg = 91.0;
        assert!(polar.validate().is_err());
    }

    #[test]
    fn legs_tile_the_span_and_respect_waypoints() {
        let track = hk_to_manila();
        let epoch = JulianDate::from_calendar(2025, 3, 1, 0, 0, 0.0);
        let legs = track.legs(epoch, 0.0, 172_800.0, 3600.0);
        assert!(!legs.is_empty());
        // Contiguous tiling from start to end.
        assert_eq!(legs[0].start.0.to_bits(), epoch.0.to_bits());
        for pair in legs.windows(2) {
            assert_eq!(pair[0].end.0.to_bits(), pair[1].start.0.to_bits());
        }
        let last = legs[legs.len() - 1];
        // Julian-date round-trips cost ~5e-5 s per conversion at this
        // epoch; compare at the millisecond scale.
        assert!((last.end.seconds_since(epoch) - 172_800.0).abs() < 1e-3);
        // No leg exceeds the cap (modulo rounding) and every leg after
        // the final waypoint holds the terminal position.
        for leg in &legs {
            assert!(leg.end.seconds_since(leg.start) <= 3600.0 + 1e-3);
        }
        let parked = legs
            .iter()
            .filter(|l| l.start.seconds_since(epoch) >= 86_400.0)
            .collect::<Vec<_>>();
        assert!(!parked.is_empty());
        for leg in parked {
            assert!((leg.position.lat_rad.to_degrees() - 14.6).abs() < 1e-9);
        }
    }
}
