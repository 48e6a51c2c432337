//! Synthetic constellation catalogs matching the paper's Table 3.
//!
//! | SNO    | # SATs    | Orbit altitude   | Inclination | DtS frequency |
//! |--------|-----------|------------------|-------------|---------------|
//! | Tianqi | 16        | 815.7–897.5 km   | 49.97°      | 400.45 MHz    |
//! | Tianqi | 4         | 544.0–556.9 km   | 35.00°      | 400.45 MHz    |
//! | Tianqi | 2         | 441.9–493.0 km   | 97.61°      | 400.45 MHz    |
//! | FOSSA  | 3         | 508.7–512.0 km   | 97.36°      | 401.7 MHz     |
//! | PICO   | 9         | 507.9–522.1 km   | 97.72°      | 436.26 MHz    |
//! | CSTP   | 5         | 468.3–523.7 km   | 97.45°      | 437.985 MHz   |
//!
//! Satellites are laid out Walker-style: RAAN spread across planes,
//! phases spread in-plane, altitudes interpolated across the published
//! band. The layout is index-deterministic so catalogs are reproducible
//! without an RNG.

use crate::walker::{WalkerConstellation, WalkerShell};
use satiot_orbit::elements::{wrap_tau, Elements};
use satiot_orbit::sgp4::Sgp4;
use satiot_orbit::time::JulianDate;
use satiot_orbit::tle::Tle;
use satiot_orbit::OrbitError;

/// One altitude/inclination shell of a constellation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shell {
    /// Satellites in this shell.
    pub count: u32,
    /// Lowest orbit altitude, km.
    pub alt_lo_km: f64,
    /// Highest orbit altitude, km.
    pub alt_hi_km: f64,
    /// Inclination, degrees.
    pub inclination_deg: f64,
}

/// A constellation as the paper characterises it.
#[derive(Debug, Clone)]
pub struct ConstellationSpec {
    /// Operator label (`"Tianqi"` …). The pass and grid caches key
    /// satellites by it, so one label names one shell layout per
    /// process; `ScenarioSpec::build` enforces this for inline
    /// constellations.
    pub name: &'static str,
    /// Operator region (Table 3's Region column).
    pub region: &'static str,
    /// Orbital shells.
    pub shells: Vec<Shell>,
    /// DtS beacon/downlink frequency, MHz.
    pub dts_frequency_mhz: f64,
    /// Beacon broadcast period, seconds.
    pub beacon_interval_s: f64,
    /// Satellite transmit power, dBm. Tianqi flies commercial-grade
    /// payloads; the cubesat constellations (FOSSA/PICO/CSTP) run
    /// lower-power transmitters, which is why they contribute only ~3 %
    /// of the paper's 121 744 traces (Table 3's trace column).
    pub tx_power_dbm: f64,
    /// When set, [`Self::catalog`] delegates to this exact Walker-delta
    /// stack instead of the Table-3 band-interpolated layout — the path
    /// scenario files use for inline constellations. The published
    /// catalogs keep `None` so their pinned bitwise fingerprints are
    /// untouched.
    pub walker: Option<WalkerConstellation>,
}

impl ConstellationSpec {
    /// Total satellite count across shells.
    pub fn sat_count(&self) -> u32 {
        match &self.walker {
            Some(w) => w.sat_count(),
            None => self.shells.iter().map(|s| s.count).sum(),
        }
    }

    /// Wrap an inline Walker stack as a catalog-compatible spec:
    /// [`Self::catalog`] generates the exact Walker layout, the Table-3
    /// style fields mirror the stack so channel/link code (frequency,
    /// beacon cadence, transmit power) reads one shape for both kinds.
    pub fn from_walker(walker: WalkerConstellation, tx_power_dbm: f64) -> ConstellationSpec {
        ConstellationSpec {
            name: crate::walker::intern_name(&walker.name),
            region: "custom",
            shells: walker
                .shells
                .iter()
                .map(|s| Shell {
                    count: s.count(),
                    alt_lo_km: s.altitude_km,
                    alt_hi_km: s.altitude_km,
                    inclination_deg: s.inclination_deg,
                })
                .collect(),
            dts_frequency_mhz: walker.frequency_mhz,
            beacon_interval_s: walker.beacon_interval_s,
            tx_power_dbm,
            walker: Some(walker),
        }
    }
}

/// One satellite of a generated catalog.
#[derive(Debug, Clone)]
pub struct SatelliteDef {
    /// Operator label.
    pub constellation: &'static str,
    /// Index within the constellation (0-based).
    pub sat_id: u32,
    /// Mean elements at the catalog epoch.
    pub elements: Elements,
    /// DtS frequency, MHz.
    pub frequency_mhz: f64,
    /// Beacon period, seconds.
    pub beacon_interval_s: f64,
}

impl SatelliteDef {
    /// Build the SGP4 propagator for this satellite.
    pub fn sgp4(&self) -> Result<Sgp4, OrbitError> {
        self.elements.to_sgp4()
    }

    /// Emit this satellite as a named TLE (round-trips through the full
    /// parser).
    pub fn tle(&self) -> Result<Tle, OrbitError> {
        self.elements.to_tle(
            70_000 + self.sat_id,
            &format!("{}-{}", self.constellation, self.sat_id),
        )
    }
}

/// The Tianqi constellation (22 satellites in three shells).
pub fn tianqi() -> ConstellationSpec {
    ConstellationSpec {
        name: "Tianqi",
        region: "China",
        shells: vec![
            Shell {
                count: 16,
                alt_lo_km: 815.7,
                alt_hi_km: 897.5,
                inclination_deg: 49.97,
            },
            Shell {
                count: 4,
                alt_lo_km: 544.0,
                alt_hi_km: 556.9,
                inclination_deg: 35.00,
            },
            Shell {
                count: 2,
                alt_lo_km: 441.9,
                alt_hi_km: 493.0,
                inclination_deg: 97.61,
            },
        ],
        dts_frequency_mhz: 400.45,
        beacon_interval_s: 60.0,
        tx_power_dbm: 22.0,
        walker: None,
    }
}

/// The FOSSA constellation (3 satellites at 433 MHz-band frequencies).
pub fn fossa() -> ConstellationSpec {
    ConstellationSpec {
        name: "FOSSA",
        region: "EU",
        shells: vec![Shell {
            count: 3,
            alt_lo_km: 508.7,
            alt_hi_km: 512.0,
            inclination_deg: 97.36,
        }],
        dts_frequency_mhz: 401.7,
        beacon_interval_s: 90.0,
        tx_power_dbm: 15.0,
        walker: None,
    }
}

/// The PICO constellation (9 satellites).
pub fn pico() -> ConstellationSpec {
    ConstellationSpec {
        name: "PICO",
        region: "US",
        shells: vec![Shell {
            count: 9,
            alt_lo_km: 507.9,
            alt_hi_km: 522.1,
            inclination_deg: 97.72,
        }],
        dts_frequency_mhz: 436.26,
        beacon_interval_s: 60.0,
        tx_power_dbm: 16.0,
        walker: None,
    }
}

/// The CSTP constellation (5 satellites).
pub fn cstp() -> ConstellationSpec {
    ConstellationSpec {
        name: "CSTP",
        region: "Russia",
        shells: vec![Shell {
            count: 5,
            alt_lo_km: 468.3,
            alt_hi_km: 523.7,
            inclination_deg: 97.45,
        }],
        dts_frequency_mhz: 437.985,
        beacon_interval_s: 75.0,
        tx_power_dbm: 16.0,
        walker: None,
    }
}

/// All four measured constellations (39 satellites total).
pub fn all_constellations() -> Vec<ConstellationSpec> {
    vec![tianqi(), fossa(), pico(), cstp()]
}

/// Look up a constellation by its label.
///
/// Matching is ASCII-case-insensitive — `"tianqi"` finds Tianqi — since
/// labels reach this lookup from hand-written sweep queues and scenario
/// files, where case is the most common typo.
pub fn constellation_by_name(name: &str) -> Option<ConstellationSpec> {
    all_constellations()
        .into_iter()
        .find(|c| c.name.eq_ignore_ascii_case(name))
}

/// The catalog label closest to a failed lookup, for "did you mean"
/// rejection messages (`None` when nothing is plausibly close).
pub fn constellation_suggestion(name: &str) -> Option<&'static str> {
    crate::names::closest(name, all_constellations().iter().map(|c| c.name))
}

/// Largest divisor of `n` that is at most `cap` (at least 1), so every
/// plane of a shell holds exactly `n / planes` satellites.
fn planes_for(n: u32, cap: u32) -> u32 {
    (1..=cap.min(n))
        .rev()
        .find(|d| n.is_multiple_of(*d))
        .unwrap_or(1)
}

impl ConstellationSpec {
    /// Generate the satellite catalog at `epoch`.
    ///
    /// Layout per shell: an exact Walker-delta grid
    /// ([`WalkerShell`]) of `planes × sats_per_plane` satellites, where
    /// `planes` is the largest divisor of the shell count ≤ 6 — every
    /// plane is exactly full with uniform in-plane spacing for
    /// arbitrary counts (the old layout capped planes at
    /// `count.clamp(1, 6)` and `div_ceil` left the last plane of the
    /// 16- and 9-sat shells underfilled with uneven spacing).
    /// Altitudes interpolate linearly across the shell's published
    /// band; each shell's RAANs get a golden-angle-ish offset so
    /// shells do not align artificially, and each satellite a
    /// golden-angle anomaly jitter that breaks the RAAN+π / MA+π
    /// degeneracy (without it, opposite planes of a small shell start
    /// nearly coincident). Stored angles are normalised into
    /// `[0, 2π)`.
    pub fn catalog(&self, epoch: JulianDate) -> Vec<SatelliteDef> {
        if let Some(walker) = &self.walker {
            return walker.catalog(epoch);
        }
        let mut sats = Vec::with_capacity(self.sat_count() as usize);
        let mut sat_id = 0u32;
        for (shell_idx, shell) in self.shells.iter().enumerate() {
            let n = shell.count;
            let planes = planes_for(n.max(1), 6);
            let walker = WalkerShell {
                planes,
                sats_per_plane: n.max(1) / planes,
                altitude_km: 0.5 * (shell.alt_lo_km + shell.alt_hi_km),
                inclination_deg: shell.inclination_deg,
                phasing: 1.min(planes - 1),
            };
            for i in 0..n {
                let (plane, slot) = walker.plane_slot(i);
                let alt = if n <= 1 {
                    0.5 * (shell.alt_lo_km + shell.alt_hi_km)
                } else {
                    shell.alt_lo_km
                        + (shell.alt_hi_km - shell.alt_lo_km) * i as f64 / (n - 1) as f64
                };
                let mut elements = Elements::circular(alt, shell.inclination_deg, epoch);
                elements.raan_rad = wrap_tau(walker.raan_of(plane) + shell_idx as f64 * 0.61);
                elements.mean_anomaly_rad =
                    wrap_tau(walker.mean_anomaly_of(plane, slot) + i as f64 * 2.399_963);
                sats.push(SatelliteDef {
                    constellation: self.name,
                    sat_id,
                    elements,
                    frequency_mhz: self.dts_frequency_mhz,
                    beacon_interval_s: self.beacon_interval_s,
                });
                sat_id += 1;
            }
        }
        sats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use satiot_orbit::sgp4::EARTH_RADIUS_KM;

    fn epoch() -> JulianDate {
        JulianDate::from_calendar(2024, 9, 1, 0, 0, 0.0)
    }

    #[test]
    fn paper_satellite_counts() {
        assert_eq!(tianqi().sat_count(), 22);
        assert_eq!(fossa().sat_count(), 3);
        assert_eq!(pico().sat_count(), 9);
        assert_eq!(cstp().sat_count(), 5);
        let total: u32 = all_constellations().iter().map(|c| c.sat_count()).sum();
        assert_eq!(total, 39); // The paper received beacons from 39 satellites.
    }

    #[test]
    fn frequencies_match_table_3() {
        assert_eq!(tianqi().dts_frequency_mhz, 400.45);
        assert_eq!(fossa().dts_frequency_mhz, 401.7);
        assert_eq!(pico().dts_frequency_mhz, 436.26);
        assert_eq!(cstp().dts_frequency_mhz, 437.985);
        // All in the 400–450 MHz hardware band of the deployed stations.
        for c in all_constellations() {
            assert!((400.0..450.0).contains(&c.dts_frequency_mhz));
        }
    }

    #[test]
    fn catalog_altitudes_stay_in_band() {
        for spec in all_constellations() {
            let sats = spec.catalog(epoch());
            assert_eq!(sats.len(), spec.sat_count() as usize);
            for sat in &sats {
                let alt = sat.elements.altitude_km();
                let ok = spec
                    .shells
                    .iter()
                    .any(|s| alt >= s.alt_lo_km - 1.0 && alt <= s.alt_hi_km + 1.0);
                assert!(ok, "{} sat {} at {alt} km", spec.name, sat.sat_id);
            }
        }
    }

    #[test]
    fn catalog_ids_are_sequential_and_unique() {
        let sats = tianqi().catalog(epoch());
        for (i, sat) in sats.iter().enumerate() {
            assert_eq!(sat.sat_id, i as u32);
        }
    }

    #[test]
    fn all_satellites_propagate() {
        for spec in all_constellations() {
            for sat in spec.catalog(epoch()) {
                let sgp4 = sat.sgp4().expect("LEO elements must initialise");
                let state = sgp4.propagate(137.0).unwrap();
                let r = state.position_km.norm() - EARTH_RADIUS_KM;
                assert!(
                    (400.0..950.0).contains(&r),
                    "{} sat {}: altitude {r}",
                    spec.name,
                    sat.sat_id
                );
            }
        }
    }

    #[test]
    fn tles_round_trip_through_parser() {
        for sat in fossa().catalog(epoch()) {
            let tle = sat.tle().unwrap();
            let (l1, l2) = tle.format_lines();
            let parsed = Tle::parse_lines(&l1, &l2).unwrap();
            assert_eq!(parsed.norad_id, 70_000 + sat.sat_id);
            assert!((parsed.inclination_rad - sat.elements.inclination_rad).abs() < 1e-5);
        }
    }

    #[test]
    fn satellites_are_spatially_spread() {
        // No two satellites of a shell should start at the same place:
        // check pairwise TEME separation at epoch.
        let sats = tianqi().catalog(epoch());
        let states: Vec<_> = sats
            .iter()
            .map(|s| s.sgp4().unwrap().propagate(0.0).unwrap().position_km)
            .collect();
        for i in 0..states.len() {
            for j in (i + 1)..states.len() {
                let d = (states[i] - states[j]).norm();
                assert!(d > 50.0, "sats {i} and {j} only {d} km apart");
            }
        }
    }

    #[test]
    fn lookup_by_name() {
        assert_eq!(constellation_by_name("Tianqi").unwrap().sat_count(), 22);
        assert!(constellation_by_name("Starlink").is_none());
    }

    #[test]
    fn walker_layout_fills_every_plane_exactly() {
        // The 16-sat Tianqi shell must be 4 planes × 4 sats and the
        // 9-sat PICO shell 3 × 3 (the old `clamp(1, 6)` + `div_ceil`
        // layout underfilled the last plane of both).
        let tianqi_shell0: Vec<_> = tianqi()
            .catalog(epoch())
            .into_iter()
            .take(16)
            .map(|s| s.elements.raan_rad)
            .collect();
        let mut raans = tianqi_shell0.clone();
        raans.sort_by(f64::total_cmp);
        raans.dedup();
        assert_eq!(raans.len(), 4, "4 distinct planes");
        for r in &raans {
            let occupancy = tianqi_shell0.iter().filter(|x| *x == r).count();
            assert_eq!(occupancy, 4, "every plane exactly full");
        }
        let pico_raans: Vec<_> = pico()
            .catalog(epoch())
            .into_iter()
            .map(|s| s.elements.raan_rad)
            .collect();
        let mut distinct = pico_raans.clone();
        distinct.sort_by(f64::total_cmp);
        distinct.dedup();
        assert_eq!(distinct.len(), 3);
        for r in &distinct {
            assert_eq!(pico_raans.iter().filter(|x| *x == r).count(), 3);
        }
    }

    /// FNV-1a over each satellite's (sma, inclination, wrapped RAAN,
    /// wrapped mean anomaly) bit patterns: any bitwise layout change
    /// trips this.
    fn fingerprint(sats: &[SatelliteDef]) -> u64 {
        use satiot_orbit::elements::wrap_tau;
        let bytes: Vec<u8> = sats
            .iter()
            .flat_map(|s| {
                [
                    s.elements.sma_km,
                    s.elements.inclination_rad,
                    wrap_tau(s.elements.raan_rad),
                    wrap_tau(s.elements.mean_anomaly_rad),
                ]
            })
            .flat_map(|v| v.to_bits().to_le_bytes())
            .collect();
        satiot_sim::rng::fnv1a(&bytes)
    }

    #[test]
    fn published_catalogs_are_pinned_bitwise() {
        // The layout fix may only touch the two shells that were
        // actually uneven (Tianqi's 16-sat shell and PICO's 9): shells
        // whose count already divided into ≤ 6 planes are pinned to
        // their pre-fix fingerprints, captured from the seed revision.
        let tianqi_cat = tianqi().catalog(epoch());
        assert_eq!(fingerprint(&tianqi_cat[16..20]), 0x7e7f05219c5fcacf); // 4-sat shell, unchanged
        assert_eq!(fingerprint(&tianqi_cat[20..22]), 0x33ff9a1a9418e175); // 2-sat shell, unchanged
        assert_eq!(fingerprint(&fossa().catalog(epoch())), 0x7fac185caa54195b); // unchanged
        assert_eq!(fingerprint(&cstp().catalog(epoch())), 0x8668649eeeb85964); // unchanged
                                                                               // The repaired shells, pinned at the fixed layout.
        assert_eq!(fingerprint(&tianqi_cat[..16]), 0x220f012661ec7a4a);
        assert_eq!(fingerprint(&pico().catalog(epoch())), 0x7281073a774abd46);
    }
}

/// Export every constellation's catalog as 3LE text — the file a TinyGS
/// operator would load, and a fixture for interoperating with external
/// SGP4 tooling.
pub fn export_full_catalog(epoch: JulianDate) -> String {
    let mut tles = Vec::new();
    for spec in all_constellations() {
        for sat in spec.catalog(epoch) {
            let tle = sat.tle().unwrap_or_else(|e| {
                panic!(
                    "catalog TLE for {}-{} failed to format: {e}",
                    sat.constellation, sat.sat_id
                )
            });
            tles.push(tle);
        }
    }
    satiot_orbit::tle::format_catalog(&tles)
}

#[cfg(test)]
mod export_tests {
    use super::*;

    #[test]
    fn full_catalog_exports_39_satellites_and_reparses() {
        let epoch = JulianDate::from_calendar(2024, 9, 1, 0, 0, 0.0);
        let text = export_full_catalog(epoch);
        let (tles, errors) = satiot_orbit::tle::parse_catalog(&text);
        assert!(errors.is_empty(), "{errors:?}");
        assert_eq!(tles.len(), 39);
        // Every reparsed set propagates.
        for t in &tles {
            let sgp4 = Sgp4::new(t).expect("near-earth");
            assert!(sgp4.propagate(100.0).is_ok());
        }
        // Names carry the constellation labels.
        assert!(tles.iter().any(|t| t.name.as_deref() == Some("Tianqi-0")));
        assert!(tles.iter().any(|t| t.name.as_deref() == Some("FOSSA-2")));
    }
}
