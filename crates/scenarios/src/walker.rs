//! Parameterised Walker-delta shell generator and closed-form
//! availability predictions for mega-constellation scale-out.
//!
//! The paper's catalogs ([`crate::constellations`]) are 39 fixed
//! satellites; scaling its availability/cost questions to modern
//! constellation shapes needs arbitrary `N planes × M sats/plane`
//! shells. [`WalkerShell`] is the standard Walker-delta parameterisation
//! `i: T/P/F` (total `T = N·M`, `P = N` planes, inter-plane phasing
//! factor `F`):
//!
//! * plane `p` of satellite `k` is `k / M`, slot `s` is `k % M`;
//! * RAAN(p) = `p/N · 2π`;
//! * mean anomaly(p, s) = `s/M · 2π + p/N · F·2π/M`.
//!
//! The published 39-sat catalogs are generated through these exact
//! expressions (see `ConstellationSpec::catalog`), so the layout logic
//! exists in one place.
//!
//! [`WalkerConstellation`] stacks shells into a loadable scenario with a
//! hand-rolled JSON codec ([`WalkerConstellation::from_json`] /
//! [`to_json`](WalkerConstellation::to_json) — the build environment
//! vendors no serde, so the subset grammar lives here).
//!
//! ## Closed-form availability (stochastic geometry)
//!
//! For a single circular-orbit satellite at inclination `i` observed
//! from geodetic latitude `φ_o` with visibility-cone half-angle `λ`
//! (from [`footprint_half_angle_rad`]), the long-run visible-time
//! fraction follows from averaging over the uniformly distributed
//! argument of latitude `u` and relative longitude (Earth rotation plus
//! nodal precession make the longitude offset ergodic):
//!
//! * satellite latitude: `φ_s(u) = asin(sin i · sin u)`;
//! * max longitude offset still inside the cone:
//!   `Δ_max = acos((cos λ − sin φ_o sin φ_s) / (cos φ_o cos φ_s))`
//!   (clamped: 0 when the cone cannot be reached at that `u`, π when
//!   every longitude is inside);
//! * `p_vis = E_u[Δ_max / π]`.
//!
//! For `n` satellites of a shell, phases decorrelate over time, so the
//! union availability is `1 − (1 − p_vis)^n`. Extension E5
//! (`extension_megascale` in `satiot-bench`) validates simulated
//! mega-shell statistics against these predictions, giving a second
//! ground truth independent of the paper's measured bands.

use crate::constellations::SatelliteDef;
use crate::json::{escape_json, JsonError, JsonParser, JsonValue};
use satiot_orbit::elements::{footprint_half_angle_rad, wrap_tau, Elements};
use satiot_orbit::time::JulianDate;

use core::f64::consts::{PI, TAU};
use core::fmt;

/// One Walker-delta shell: `planes × sats_per_plane` satellites at a
/// common altitude and inclination with phasing factor `phasing`
/// (Walker's `F`, in `0..sats_per_plane`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WalkerShell {
    /// Number of orbital planes (`P`).
    pub planes: u32,
    /// Satellites per plane (`T / P`).
    pub sats_per_plane: u32,
    /// Circular-orbit altitude, km.
    pub altitude_km: f64,
    /// Inclination, degrees.
    pub inclination_deg: f64,
    /// Inter-plane phasing factor (`F`, in `0..planes`): adjacent
    /// planes are offset by `F · 360° / T` in mean anomaly.
    pub phasing: u32,
}

impl WalkerShell {
    /// Total satellites in the shell.
    pub fn count(&self) -> u32 {
        self.planes * self.sats_per_plane
    }

    /// (plane, in-plane slot) of satellite `index` in `0..count()`.
    pub fn plane_slot(&self, index: u32) -> (u32, u32) {
        (index / self.sats_per_plane, index % self.sats_per_plane)
    }

    /// RAAN of `plane`, radians in `[0, 2π)` by construction.
    ///
    /// The expression shape (`p/N · τ`) is load-bearing: the published
    /// 39-sat catalogs are regenerated through it and pinned bitwise.
    pub fn raan_of(&self, plane: u32) -> f64 {
        (plane as f64 / self.planes as f64) * TAU
    }

    /// Mean anomaly of (`plane`, `slot`), radians — may exceed `2π`
    /// before normalisation (callers wrap with [`wrap_tau`]).
    pub fn mean_anomaly_of(&self, plane: u32, slot: u32) -> f64 {
        (slot as f64 / self.sats_per_plane as f64) * TAU
            + (plane as f64 / self.planes as f64)
                * (self.phasing as f64 * TAU / self.sats_per_plane as f64)
    }

    /// Validate the parameterisation.
    pub fn validate(&self) -> Result<(), WalkerParseError> {
        if self.planes == 0 || self.sats_per_plane == 0 {
            return Err(WalkerParseError(format!(
                "walker shell needs at least 1 plane and 1 sat/plane, got {}x{}",
                self.planes, self.sats_per_plane
            )));
        }
        if self.phasing >= self.planes {
            return Err(WalkerParseError(format!(
                "walker phasing F={} must be < planes={}",
                self.phasing, self.planes
            )));
        }
        if !(100.0..5000.0).contains(&self.altitude_km) {
            return Err(WalkerParseError(format!(
                "walker altitude {} km outside the LEO range this toolkit models",
                self.altitude_km
            )));
        }
        if !(0.0..=180.0).contains(&self.inclination_deg) {
            return Err(WalkerParseError(format!(
                "walker inclination {}° outside [0, 180]",
                self.inclination_deg
            )));
        }
        Ok(())
    }

    /// Mean elements for every satellite of the shell at `epoch`,
    /// angles normalised into `[0, 2π)`.
    pub fn elements(&self, epoch: JulianDate) -> Vec<Elements> {
        (0..self.count())
            .map(|k| {
                let (plane, slot) = self.plane_slot(k);
                let mut e = Elements::circular(self.altitude_km, self.inclination_deg, epoch);
                e.raan_rad = wrap_tau(self.raan_of(plane));
                e.mean_anomaly_rad = wrap_tau(self.mean_anomaly_of(plane, slot));
                e
            })
            .collect()
    }
}

/// A named stack of Walker shells, loadable from JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct WalkerConstellation {
    /// Constellation label (becomes the `SatelliteDef::constellation`
    /// tag, interned).
    pub name: String,
    /// Orbital shells, concatenated in order for satellite IDs.
    pub shells: Vec<WalkerShell>,
    /// DtS beacon/downlink frequency, MHz.
    pub frequency_mhz: f64,
    /// Beacon broadcast period, seconds.
    pub beacon_interval_s: f64,
}

impl WalkerConstellation {
    /// Total satellite count across shells.
    pub fn sat_count(&self) -> u32 {
        self.shells.iter().map(|s| s.count()).sum()
    }

    /// Validate every shell and the top-level fields.
    pub fn validate(&self) -> Result<(), WalkerParseError> {
        if self.name.is_empty() {
            return Err(WalkerParseError("walker constellation needs a name".into()));
        }
        if !(self.frequency_mhz.is_finite() && self.frequency_mhz > 0.0) {
            return Err(WalkerParseError(format!(
                "bad frequency_mhz {}",
                self.frequency_mhz
            )));
        }
        if !(self.beacon_interval_s.is_finite() && self.beacon_interval_s > 0.0) {
            return Err(WalkerParseError(format!(
                "bad beacon_interval_s {}",
                self.beacon_interval_s
            )));
        }
        for shell in &self.shells {
            shell.validate()?;
        }
        Ok(())
    }

    /// Generate the satellite catalog at `epoch`: shells concatenated,
    /// IDs sequential from 0.
    pub fn catalog(&self, epoch: JulianDate) -> Vec<SatelliteDef> {
        let name = intern_name(&self.name);
        let mut sats = Vec::with_capacity(self.sat_count() as usize);
        let mut sat_id = 0u32;
        for shell in &self.shells {
            for elements in shell.elements(epoch) {
                sats.push(SatelliteDef {
                    constellation: name,
                    sat_id,
                    elements,
                    frequency_mhz: self.frequency_mhz,
                    beacon_interval_s: self.beacon_interval_s,
                });
                sat_id += 1;
            }
        }
        sats
    }

    /// Serialise to the JSON schema [`from_json`](Self::from_json)
    /// accepts.
    pub fn to_json(&self) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"name\": \"{}\",", escape_json(&self.name));
        let _ = writeln!(out, "  \"frequency_mhz\": {},", self.frequency_mhz);
        let _ = writeln!(out, "  \"beacon_interval_s\": {},", self.beacon_interval_s);
        let _ = writeln!(out, "  \"shells\": [");
        for (i, s) in self.shells.iter().enumerate() {
            let comma = if i + 1 < self.shells.len() { "," } else { "" };
            let _ = writeln!(
                out,
                "    {{\"planes\": {}, \"sats_per_plane\": {}, \"altitude_km\": {}, \
                 \"inclination_deg\": {}, \"phasing\": {}}}{comma}",
                s.planes, s.sats_per_plane, s.altitude_km, s.inclination_deg, s.phasing
            );
        }
        let _ = writeln!(out, "  ]");
        let _ = write!(out, "}}");
        out
    }

    /// Parse a constellation from JSON text and validate it.
    ///
    /// Accepts the subset grammar [`to_json`](Self::to_json) emits
    /// (objects, arrays, numbers, strings; whitespace-insensitive;
    /// unknown keys rejected so typos fail loudly).
    pub fn from_json(text: &str) -> Result<WalkerConstellation, WalkerParseError> {
        let value = JsonParser::new(text).parse_document()?;
        Self::from_value(&value)
    }

    /// Parse a constellation from an already-parsed JSON value (the
    /// scenario spec embeds walker objects inline).
    pub(crate) fn from_value(value: &JsonValue) -> Result<WalkerConstellation, WalkerParseError> {
        let obj = value.as_object("constellation")?;
        let mut name = None;
        let mut frequency_mhz = None;
        let mut beacon_interval_s = None;
        let mut shells = None;
        for (key, val) in obj {
            match key.as_str() {
                "name" => name = Some(val.as_string("name")?),
                "frequency_mhz" => frequency_mhz = Some(val.as_number("frequency_mhz")?),
                "beacon_interval_s" => {
                    beacon_interval_s = Some(val.as_number("beacon_interval_s")?)
                }
                "shells" => {
                    let arr = val.as_array("shells")?;
                    let mut parsed = Vec::with_capacity(arr.len());
                    for item in arr {
                        parsed.push(parse_shell(item)?);
                    }
                    shells = Some(parsed);
                }
                other => {
                    return Err(WalkerParseError(format!(
                        "unknown constellation key {other:?}"
                    )))
                }
            }
        }
        let c = WalkerConstellation {
            name: name.ok_or_else(|| WalkerParseError("missing \"name\"".into()))?,
            shells: shells.ok_or_else(|| WalkerParseError("missing \"shells\"".into()))?,
            frequency_mhz: frequency_mhz
                .ok_or_else(|| WalkerParseError("missing \"frequency_mhz\"".into()))?,
            beacon_interval_s: beacon_interval_s
                .ok_or_else(|| WalkerParseError("missing \"beacon_interval_s\"".into()))?,
        };
        c.validate()?;
        Ok(c)
    }
}

fn parse_shell(value: &JsonValue) -> Result<WalkerShell, WalkerParseError> {
    let obj = value.as_object("shell")?;
    let mut planes = None;
    let mut sats_per_plane = None;
    let mut altitude_km = None;
    let mut inclination_deg = None;
    let mut phasing = None;
    for (key, val) in obj {
        match key.as_str() {
            "planes" => planes = Some(val.as_u32("planes")?),
            "sats_per_plane" => sats_per_plane = Some(val.as_u32("sats_per_plane")?),
            "altitude_km" => altitude_km = Some(val.as_number("altitude_km")?),
            "inclination_deg" => inclination_deg = Some(val.as_number("inclination_deg")?),
            "phasing" => phasing = Some(val.as_u32("phasing")?),
            other => return Err(WalkerParseError(format!("unknown shell key {other:?}"))),
        }
    }
    let missing = |k: &str| WalkerParseError(format!("shell missing {k:?}"));
    Ok(WalkerShell {
        planes: planes.ok_or_else(|| missing("planes"))?,
        sats_per_plane: sats_per_plane.ok_or_else(|| missing("sats_per_plane"))?,
        altitude_km: altitude_km.ok_or_else(|| missing("altitude_km"))?,
        inclination_deg: inclination_deg.ok_or_else(|| missing("inclination_deg"))?,
        phasing: phasing.ok_or_else(|| missing("phasing"))?,
    })
}

/// Error from [`WalkerConstellation::from_json`] or validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalkerParseError(pub String);

impl fmt::Display for WalkerParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "walker scenario: {}", self.0)
    }
}

impl std::error::Error for WalkerParseError {}

impl From<JsonError> for WalkerParseError {
    fn from(e: JsonError) -> Self {
        WalkerParseError(e.0)
    }
}

// ---------------------------------------------------------------------
// Name interning: `SatelliteDef::constellation` is `&'static str` (the
// paper catalogs use literals); generated constellations leak each
// distinct name exactly once.

pub(crate) fn intern_name(name: &str) -> &'static str {
    use std::sync::{Mutex, OnceLock};
    static REGISTRY: OnceLock<Mutex<Vec<&'static str>>> = OnceLock::new();
    let mut reg = REGISTRY
        .get_or_init(|| Mutex::new(Vec::new()))
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner());
    if let Some(existing) = reg.iter().find(|s| **s == name) {
        return existing;
    }
    let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
    reg.push(leaked);
    leaked
}

// ---------------------------------------------------------------------
// Closed-form stochastic-geometry availability.

/// Max longitude offset (radians, in `[0, π]`) at which a satellite at
/// geocentric latitude `sat_lat_rad` is still within Earth-central
/// angle `cone_rad` of a site at latitude `site_lat_rad`.
pub fn theta_max(site_lat_rad: f64, sat_lat_rad: f64, cone_rad: f64) -> f64 {
    let (so, co) = (site_lat_rad.sin(), site_lat_rad.cos());
    let (ss, cs) = (sat_lat_rad.sin(), sat_lat_rad.cos());
    let denom = co * cs;
    if denom.abs() < 1e-12 {
        // A pole: the central angle is |φ_o − φ_s| regardless of
        // longitude — inside the cone at every offset or at none.
        return if (site_lat_rad - sat_lat_rad).abs() <= cone_rad {
            PI
        } else {
            0.0
        };
    }
    let c = (cone_rad.cos() - so * ss) / denom;
    if c >= 1.0 {
        0.0
    } else if c <= -1.0 {
        PI
    } else {
        c.acos()
    }
}

/// Long-run fraction of time a single satellite of a circular orbit at
/// `alt_km` / `incl_rad` is visible above `mask_rad` from a site at
/// latitude `site_lat_rad` (closed form, midpoint-sampled over the
/// argument of latitude).
///
/// Exactly `0.0` when the site lies outside the shell's reachable
/// latitude band — every sample contributes a hard zero — which
/// extension E5 uses to cross-check the latitude-band cull.
pub fn single_sat_visibility_fraction(
    site_lat_rad: f64,
    incl_rad: f64,
    alt_km: f64,
    mask_rad: f64,
) -> f64 {
    let lam = footprint_half_angle_rad(alt_km, mask_rad);
    const SAMPLES: usize = 2048;
    let mut acc = 0.0;
    for k in 0..SAMPLES {
        let u = (k as f64 + 0.5) / SAMPLES as f64 * TAU;
        let sat_lat = (incl_rad.sin() * u.sin()).asin();
        acc += theta_max(site_lat_rad, sat_lat, lam) / PI;
    }
    acc / SAMPLES as f64
}

/// Availability of the union of `n` satellites with independent phases,
/// each individually visible a fraction `p` of the time.
pub fn union_availability(p: f64, n: u32) -> f64 {
    1.0 - (1.0 - p.clamp(0.0, 1.0)).powi(n as i32)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn epoch() -> JulianDate {
        JulianDate::from_calendar(2025, 3, 1, 0, 0, 0.0)
    }

    fn mega() -> WalkerConstellation {
        WalkerConstellation {
            name: "Mega".into(),
            shells: vec![
                WalkerShell {
                    planes: 10,
                    sats_per_plane: 36,
                    altitude_km: 600.0,
                    inclination_deg: 53.0,
                    phasing: 1,
                },
                WalkerShell {
                    planes: 3,
                    sats_per_plane: 5,
                    altitude_km: 780.0,
                    inclination_deg: 97.6,
                    phasing: 2,
                },
            ],
            frequency_mhz: 401.2,
            beacon_interval_s: 60.0,
        }
    }

    #[test]
    fn layout_is_uniform_for_arbitrary_nxm() {
        let shell = WalkerShell {
            planes: 7,
            sats_per_plane: 11,
            altitude_km: 550.0,
            inclination_deg: 53.0,
            phasing: 3,
        };
        assert_eq!(shell.count(), 77);
        let els = shell.elements(epoch());
        assert_eq!(els.len(), 77);
        // Every plane holds exactly sats_per_plane satellites with
        // identical RAAN and uniform in-plane spacing.
        for p in 0..shell.planes {
            let plane: Vec<_> = (0..shell.count())
                .filter(|&k| shell.plane_slot(k).0 == p)
                .collect();
            assert_eq!(plane.len(), 11);
            let raan = els[plane[0] as usize].raan_rad;
            for pair in plane.windows(2) {
                assert_eq!(els[pair[0] as usize].raan_rad, raan);
                let gap = wrap_tau(
                    els[pair[1] as usize].mean_anomaly_rad - els[pair[0] as usize].mean_anomaly_rad,
                );
                assert!((gap - TAU / 11.0).abs() < 1e-12, "gap {gap}");
            }
        }
        // All angles normalised.
        for e in &els {
            assert!((0.0..TAU).contains(&e.raan_rad));
            assert!((0.0..TAU).contains(&e.mean_anomaly_rad));
        }
    }

    #[test]
    fn json_round_trip() {
        let c = mega();
        let parsed = WalkerConstellation::from_json(&c.to_json()).expect("round trip");
        assert_eq!(parsed, c);
        assert_eq!(parsed.sat_count(), 375);
    }

    #[test]
    fn json_rejects_garbage() {
        assert!(WalkerConstellation::from_json("").is_err());
        assert!(WalkerConstellation::from_json("{}").is_err());
        assert!(WalkerConstellation::from_json("{\"name\": \"x\"").is_err());
        // Unknown keys fail loudly.
        let mut json = mega().to_json();
        json = json.replace("\"frequency_mhz\"", "\"frequency_mzh\"");
        assert!(WalkerConstellation::from_json(&json).is_err());
        // Invalid phasing is caught by validation.
        let bad = WalkerConstellation {
            shells: vec![WalkerShell {
                planes: 2,
                sats_per_plane: 3,
                altitude_km: 550.0,
                inclination_deg: 53.0,
                phasing: 3,
            }],
            ..mega()
        };
        assert!(WalkerConstellation::from_json(&bad.to_json()).is_err());
    }

    #[test]
    fn catalog_ids_sequential_and_interned_name_stable() {
        let c = mega();
        let sats = c.catalog(epoch());
        assert_eq!(sats.len(), 375);
        for (i, s) in sats.iter().enumerate() {
            assert_eq!(s.sat_id, i as u32);
            assert_eq!(s.constellation, "Mega");
        }
        // A second catalog reuses the same interned pointer.
        let again = c.catalog(epoch());
        assert!(core::ptr::eq(sats[0].constellation, again[0].constellation));
    }

    #[test]
    fn visibility_fraction_zero_outside_band() {
        // 53° shell at 600 km, mask 0: band ends near 53° + 22° = 75°.
        let p = single_sat_visibility_fraction(
            85.0_f64.to_radians(),
            53.0_f64.to_radians(),
            600.0,
            0.0,
        );
        assert_eq!(p, 0.0);
        // And hemisphere-symmetric.
        let n = single_sat_visibility_fraction(
            40.0_f64.to_radians(),
            53.0_f64.to_radians(),
            600.0,
            0.0,
        );
        let s = single_sat_visibility_fraction(
            -40.0_f64.to_radians(),
            53.0_f64.to_radians(),
            600.0,
            0.0,
        );
        assert!((n - s).abs() < 1e-12);
        assert!(n > 0.0);
    }

    #[test]
    fn visibility_fraction_normalises_over_the_sphere() {
        // Averaged over sites uniform on the sphere, the visible
        // fraction must equal the footprint's share of the sphere,
        // (1 − cos λ) / 2, independent of inclination.
        let (alt, mask) = (600.0, 10.0_f64.to_radians());
        let lam = footprint_half_angle_rad(alt, mask);
        let expected = 0.5 * (1.0 - lam.cos());
        for incl_deg in [30.0, 53.0, 97.6] {
            let incl = f64::to_radians(incl_deg);
            const N: usize = 400;
            let mut acc = 0.0;
            for k in 0..N {
                // cos-weighted latitude sampling = uniform on sphere.
                let z = -1.0 + 2.0 * (k as f64 + 0.5) / N as f64;
                acc += single_sat_visibility_fraction(z.asin(), incl, alt, mask);
            }
            let mean = acc / N as f64;
            assert!(
                (mean - expected).abs() / expected < 0.02,
                "i={incl_deg}: mean {mean} vs expected {expected}"
            );
        }
    }

    #[test]
    fn union_availability_limits() {
        assert_eq!(union_availability(0.0, 100), 0.0);
        assert_eq!(union_availability(1.0, 1), 1.0);
        let p = 0.05;
        let u = union_availability(p, 60);
        assert!(u > 0.9 && u < 1.0);
        // Monotone in n.
        assert!(union_availability(p, 61) > u);
    }
}
