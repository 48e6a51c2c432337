//! Measurement sites (paper Table 1), Tianqi ground stations, and the
//! active-deployment locations.

use satiot_channel::weather::WeatherParams;
use satiot_orbit::frames::Geodetic;
use satiot_orbit::time::JulianDate;

/// Campaign origin: 2024-09-01 00:00 UTC — the month the first stations
/// (HK, GZ, YC) came online.
pub fn campaign_epoch() -> JulianDate {
    JulianDate::from_calendar(2024, 9, 1, 0, 0, 0.0)
}

/// Campaign end: 2025-04-01 00:00 UTC (the paper's traces span
/// September 2024 – March 2025).
pub fn campaign_end() -> JulianDate {
    JulianDate::from_calendar(2025, 4, 1, 0, 0, 0.0)
}

/// Coarse climate classes mapped onto weather-process parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Climate {
    /// Humid subtropical (HK, GZ, SH, NC, Yunnan).
    Subtropical,
    /// Maritime (London).
    Maritime,
    /// Continental/dry (Yinchuan, Pittsburgh winters).
    ContinentalDry,
    /// Temperate oceanic (Sydney).
    TemperateOceanic,
}

impl Climate {
    /// Stable label used by scenario files (see `spec`).
    pub fn label(self) -> &'static str {
        match self {
            Climate::Subtropical => "subtropical",
            Climate::Maritime => "maritime",
            Climate::ContinentalDry => "continental_dry",
            Climate::TemperateOceanic => "temperate_oceanic",
        }
    }

    /// Parse a scenario-file label (ASCII-case-insensitive).
    pub fn from_label(label: &str) -> Option<Climate> {
        [
            Climate::Subtropical,
            Climate::Maritime,
            Climate::ContinentalDry,
            Climate::TemperateOceanic,
        ]
        .into_iter()
        .find(|c| c.label().eq_ignore_ascii_case(label))
    }

    /// Weather-chain parameters for this climate.
    pub fn weather_params(self) -> WeatherParams {
        match self {
            Climate::Subtropical => WeatherParams::default(),
            Climate::Maritime => WeatherParams::maritime(),
            Climate::ContinentalDry => WeatherParams::temperate_dry(),
            Climate::TemperateOceanic => WeatherParams {
                mean_sunny_h: 26.0,
                ..WeatherParams::default()
            },
        }
    }
}

/// One measurement site of the passive campaign.
#[derive(Debug, Clone)]
pub struct Site {
    /// Short code as used in the paper's Table 1 (`"HK"` …). The pass
    /// cache keys observers by it, so one code names one position per
    /// process; `ScenarioSpec::build` enforces this for inline sites.
    pub code: &'static str,
    /// Full city name.
    pub name: &'static str,
    /// Latitude, degrees north.
    pub lat_deg: f64,
    /// Longitude, degrees east.
    pub lon_deg: f64,
    /// Site altitude, km.
    pub alt_km: f64,
    /// Ground stations deployed at this site.
    pub station_count: u32,
    /// Deployment start, days after [`campaign_epoch`].
    pub start_day: f64,
    /// Climate class.
    pub climate: Climate,
}

impl Site {
    /// Geodetic location of the site.
    pub fn geodetic(&self) -> Geodetic {
        Geodetic::from_degrees(self.lat_deg, self.lon_deg, self.alt_km)
    }

    /// Deployment start as an absolute Julian date.
    pub fn start(&self) -> JulianDate {
        campaign_epoch() + self.start_day
    }

    /// Days of operation until the campaign end.
    pub fn active_days(&self) -> f64 {
        campaign_end().days_since(self.start())
    }
}

fn days_from_epoch(year: i32, month: u32) -> f64 {
    JulianDate::from_calendar(year, month, 1, 0, 0, 0.0).days_since(campaign_epoch())
}

/// The eight measurement sites of Table 1 with their deployment dates.
pub fn measurement_sites() -> Vec<Site> {
    vec![
        Site {
            code: "PGH",
            name: "Pittsburgh",
            lat_deg: 40.4406,
            lon_deg: -79.9959,
            alt_km: 0.3,
            station_count: 3,
            start_day: days_from_epoch(2025, 2),
            climate: Climate::ContinentalDry,
        },
        Site {
            code: "LDN",
            name: "London",
            lat_deg: 51.5074,
            lon_deg: -0.1278,
            alt_km: 0.02,
            station_count: 5,
            start_day: days_from_epoch(2025, 2),
            climate: Climate::Maritime,
        },
        Site {
            code: "SH",
            name: "Shanghai",
            lat_deg: 31.2304,
            lon_deg: 121.4737,
            alt_km: 0.01,
            station_count: 2,
            start_day: days_from_epoch(2024, 10),
            climate: Climate::Subtropical,
        },
        Site {
            code: "GZ",
            name: "Guangzhou",
            lat_deg: 23.1291,
            lon_deg: 113.2644,
            alt_km: 0.02,
            station_count: 2,
            start_day: days_from_epoch(2024, 9),
            climate: Climate::Subtropical,
        },
        Site {
            code: "SYD",
            name: "Sydney",
            lat_deg: -33.8688,
            lon_deg: 151.2093,
            alt_km: 0.02,
            station_count: 4,
            start_day: days_from_epoch(2025, 1),
            climate: Climate::TemperateOceanic,
        },
        Site {
            code: "HK",
            name: "Hong Kong",
            lat_deg: 22.3193,
            lon_deg: 114.1694,
            alt_km: 0.05,
            station_count: 6,
            start_day: days_from_epoch(2024, 9),
            climate: Climate::Subtropical,
        },
        Site {
            code: "NC",
            name: "Nanchang",
            lat_deg: 28.6820,
            lon_deg: 115.8579,
            alt_km: 0.03,
            station_count: 1,
            start_day: days_from_epoch(2024, 11),
            climate: Climate::Subtropical,
        },
        Site {
            code: "YC",
            name: "Yinchuan",
            lat_deg: 38.4872,
            lon_deg: 106.2309,
            alt_km: 1.1,
            station_count: 4,
            start_day: days_from_epoch(2024, 9),
            climate: Climate::ContinentalDry,
        },
    ]
}

/// Look up a measurement site by its Table 1 code (`"HK"` …).
///
/// Matching is ASCII-case-insensitive — `"hk"` finds Hong Kong — since
/// the codes reach this lookup from hand-written sweep queues and
/// scenario files, where case is the most common typo.
pub fn site_by_code(code: &str) -> Option<Site> {
    measurement_sites()
        .into_iter()
        .find(|s| s.code.eq_ignore_ascii_case(code))
}

/// The catalog code closest to a failed lookup, for "did you mean"
/// rejection messages (`None` when nothing is plausibly close).
pub fn site_code_suggestion(code: &str) -> Option<&'static str> {
    crate::names::closest(code, measurement_sites().iter().map(|s| s.code))
}

/// The four cities used for the per-constellation availability analysis
/// (paper §3.1: one per continent).
pub fn availability_sites() -> Vec<Site> {
    measurement_sites()
        .into_iter()
        .filter(|s| matches!(s.code, "HK" | "SYD" | "LDN" | "PGH"))
        .collect()
}

/// Tianqi's 12 ground stations, all in China (paper §2.3). Exact
/// locations are not published; these are spread across China's major
/// telemetry regions, which is what the delivery-delay distribution
/// depends on.
pub fn tianqi_ground_stations() -> Vec<(&'static str, Geodetic)> {
    vec![
        ("Beijing", Geodetic::from_degrees(40.07, 116.59, 0.05)),
        ("Shanghai", Geodetic::from_degrees(31.14, 121.80, 0.01)),
        ("Guangzhou", Geodetic::from_degrees(23.39, 113.30, 0.02)),
        ("Chengdu", Geodetic::from_degrees(30.57, 103.95, 0.5)),
        ("Xi'an", Geodetic::from_degrees(34.44, 108.75, 0.4)),
        ("Harbin", Geodetic::from_degrees(45.62, 126.25, 0.14)),
        ("Urumqi", Geodetic::from_degrees(43.91, 87.47, 0.65)),
        ("Lhasa", Geodetic::from_degrees(29.30, 90.91, 3.57)),
        ("Kunming", Geodetic::from_degrees(24.99, 102.74, 1.89)),
        ("Wuhan", Geodetic::from_degrees(30.78, 114.21, 0.02)),
        ("Sanya", Geodetic::from_degrees(18.30, 109.41, 0.01)),
        ("Kashgar", Geodetic::from_degrees(39.54, 76.02, 1.29)),
    ]
}

/// The observer label of [`yunnan_farm`] in pass-cache keys.
pub const YUNNAN_FARM: &str = "YUNNAN_FARM";

/// The Yunnan coffee plantation hosting the three Tianqi nodes
/// (Appendix B: near China's border in Yunnan province).
pub fn yunnan_farm() -> Geodetic {
    Geodetic::from_degrees(22.78, 100.98, 1.3)
}

/// The subscriber server in Hong Kong receiving the farm data.
pub fn hong_kong_server() -> Geodetic {
    Geodetic::from_degrees(22.3193, 114.1694, 0.05)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twenty_seven_stations_across_eight_sites() {
        let sites = measurement_sites();
        assert_eq!(sites.len(), 8);
        let total: u32 = sites.iter().map(|s| s.station_count).sum();
        assert_eq!(total, 27); // Paper: 27 ground stations.
    }

    #[test]
    fn start_dates_match_table_1() {
        let by_code =
            |c: &str| site_by_code(c).unwrap_or_else(|| panic!("unknown site code {c:?}"));
        assert_eq!(by_code("HK").start_day, 0.0); // 2024/09.
        assert_eq!(by_code("GZ").start_day, 0.0);
        assert_eq!(by_code("YC").start_day, 0.0);
        assert_eq!(by_code("SH").start_day, 30.0); // 2024/10.
        assert_eq!(by_code("NC").start_day, 61.0); // 2024/11.
        assert_eq!(by_code("SYD").start_day, 122.0); // 2025/01.
        assert_eq!(by_code("LDN").start_day, 153.0); // 2025/02.
        assert_eq!(by_code("PGH").start_day, 153.0);
    }

    #[test]
    fn campaign_spans_seven_months() {
        let days = campaign_end().days_since(campaign_epoch());
        assert_eq!(days, 212.0); // Sep 2024 – Mar 2025 inclusive.
        for site in measurement_sites() {
            assert!(site.active_days() > 0.0);
            assert!(site.active_days() <= days);
        }
    }

    #[test]
    fn station_counts_match_table_1() {
        let expected = [
            ("PGH", 3),
            ("LDN", 5),
            ("SH", 2),
            ("GZ", 2),
            ("SYD", 4),
            ("HK", 6),
            ("NC", 1),
            ("YC", 4),
        ];
        for (code, count) in expected {
            let site = site_by_code(code).unwrap_or_else(|| panic!("unknown site code {code:?}"));
            assert_eq!(site.station_count, count, "{code}");
        }
    }

    #[test]
    fn availability_sites_cover_four_continents() {
        let codes: Vec<&str> = availability_sites().iter().map(|s| s.code).collect();
        assert_eq!(codes.len(), 4);
        for c in ["HK", "SYD", "LDN", "PGH"] {
            assert!(codes.contains(&c));
        }
    }

    #[test]
    fn sites_have_sane_coordinates() {
        for site in measurement_sites() {
            assert!((-90.0..=90.0).contains(&site.lat_deg), "{}", site.code);
            assert!((-180.0..=180.0).contains(&site.lon_deg), "{}", site.code);
            let ecef = site.geodetic().to_ecef();
            assert!(ecef.norm() > 6_300.0);
        }
    }

    #[test]
    fn twelve_tianqi_ground_stations_in_china() {
        let gs = tianqi_ground_stations();
        assert_eq!(gs.len(), 12);
        for (name, g) in &gs {
            // All within mainland China's bounding box.
            let lat = g.lat_rad.to_degrees();
            let lon = g.lon_rad.to_degrees();
            assert!((17.0..54.0).contains(&lat), "{name} lat {lat}");
            assert!((73.0..136.0).contains(&lon), "{name} lon {lon}");
        }
    }

    #[test]
    fn farm_is_in_yunnan() {
        let farm = yunnan_farm();
        let lat = farm.lat_rad.to_degrees();
        let lon = farm.lon_rad.to_degrees();
        assert!((21.0..29.0).contains(&lat));
        assert!((97.0..106.0).contains(&lon));
        assert!(farm.alt_km > 0.5); // Highland coffee country.
    }

    #[test]
    fn climates_map_to_weather_params() {
        // Maritime London rains more than dry Yinchuan in expectation:
        // compare mean rainy dwell / (sunny dwell) as a crude proxy.
        let maritime = Climate::Maritime.weather_params();
        let dry = Climate::ContinentalDry.weather_params();
        assert!(
            maritime.mean_rainy_h / maritime.mean_sunny_h > dry.mean_rainy_h / dry.mean_sunny_h
        );
    }
}
