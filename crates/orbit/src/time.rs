//! Time scales: Julian dates, calendar conversion, TLE epochs, and
//! Greenwich Mean Sidereal Time (GMST).
//!
//! SGP4 works in *minutes since TLE epoch*; everything terrestrial works in
//! UTC. [`JulianDate`] is the bridge: a thin newtype over the UT1≈UTC Julian
//! day number with enough arithmetic to express campaign timelines.

use crate::sgp4::rem_tau;
use core::f64::consts::TAU;
use core::ops::{Add, Sub};

/// A Julian date on the UTC timescale (UT1 ≈ UTC is assumed, which is
/// accurate to < 0.9 s — far below the fidelity SGP4 itself offers).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct JulianDate(pub f64);

/// Julian date of the J2000.0 reference epoch (2000-01-01 12:00 TT,
/// treated as UTC here).
pub const JD_J2000: f64 = 2_451_545.0;

/// Seconds per day.
pub const SECONDS_PER_DAY: f64 = 86_400.0;

/// Minutes per day.
pub const MINUTES_PER_DAY: f64 = 1_440.0;

impl JulianDate {
    /// Build a Julian date from a Gregorian calendar instant (UTC).
    ///
    /// Valid for years 1900–2100, which covers every TLE epoch. Uses the
    /// standard Vallado `JDAY` algorithm.
    pub fn from_calendar(
        year: i32,
        month: u32,
        day: u32,
        hour: u32,
        minute: u32,
        second: f64,
    ) -> Self {
        let y = year as f64;
        let m = month as f64;
        let d = day as f64;
        let jd = 367.0 * y - ((7.0 * (y + ((m + 9.0) / 12.0).floor())) * 0.25).floor()
            + (275.0 * m / 9.0).floor()
            + d
            + 1_721_013.5;
        let day_frac = ((second / 60.0 + minute as f64) / 60.0 + hour as f64) / 24.0;
        JulianDate(jd + day_frac)
    }

    /// Build a Julian date from a TLE-style epoch: a two-digit year and a
    /// fractional day-of-year.
    ///
    /// Years 57–99 map to 1957–1999 and 00–56 to 2000–2056, per the TLE
    /// convention.
    pub fn from_tle_epoch(two_digit_year: u32, day_of_year: f64) -> Self {
        let year = if two_digit_year >= 57 {
            1900 + two_digit_year as i32
        } else {
            2000 + two_digit_year as i32
        };
        // Day 1.0 is Jan 1, 00:00 UTC.
        let jan1 = JulianDate::from_calendar(year, 1, 1, 0, 0, 0.0);
        JulianDate(jan1.0 + (day_of_year - 1.0))
    }

    /// Greenwich Mean Sidereal Time at this instant, in radians ∈ [0, 2π).
    ///
    /// IAU 1982 model (the one SGP4-era tooling uses), evaluated with
    /// UT1 ≈ UTC.
    pub fn gmst_rad(self) -> f64 {
        let tut1 = (self.0 - JD_J2000) / 36_525.0;
        // Seconds of sidereal time.
        let mut temp = -6.2e-6 * tut1 * tut1 * tut1
            + 0.093_104 * tut1 * tut1
            + (876_600.0 * 3_600.0 + 8_640_184.812_866) * tut1
            + 67_310.548_41;
        // 240 sidereal seconds per degree; convert to radians and wrap.
        temp = rem_tau(temp * core::f64::consts::PI / 180.0 / 240.0);
        if temp < 0.0 {
            temp += TAU;
        }
        temp
    }

    /// Days elapsed from `other` to `self` (may be negative).
    #[inline]
    pub fn days_since(self, other: JulianDate) -> f64 {
        self.0 - other.0
    }

    /// Minutes elapsed from `other` to `self` (may be negative).
    #[inline]
    pub fn minutes_since(self, other: JulianDate) -> f64 {
        (self.0 - other.0) * MINUTES_PER_DAY
    }

    /// Seconds elapsed from `other` to `self` (may be negative).
    #[inline]
    pub fn seconds_since(self, other: JulianDate) -> f64 {
        (self.0 - other.0) * SECONDS_PER_DAY
    }

    /// This instant shifted forward by `minutes`.
    #[inline]
    pub fn plus_minutes(self, minutes: f64) -> JulianDate {
        JulianDate(self.0 + minutes / MINUTES_PER_DAY)
    }

    /// This instant shifted forward by `seconds`.
    #[inline]
    pub fn plus_seconds(self, seconds: f64) -> JulianDate {
        JulianDate(self.0 + seconds / SECONDS_PER_DAY)
    }

    /// Decompose back into a Gregorian calendar date (UTC).
    ///
    /// Returns `(year, month, day, hour, minute, second)`. Inverse of
    /// [`JulianDate::from_calendar`] to within floating-point rounding.
    pub fn to_calendar(self) -> (i32, u32, u32, u32, u32, f64) {
        // Vallado `invjday`.
        let temp = self.0 - 2_415_019.5;
        let tu = temp / 365.25;
        let mut year = 1900 + tu.floor() as i32;
        let mut leap_years = (((year - 1901) as f64) * 0.25).floor() as i32;
        let mut days = temp - (((year - 1900) * 365 + leap_years) as f64);
        if days < 1.0 {
            year -= 1;
            leap_years = (((year - 1901) as f64) * 0.25).floor() as i32;
            days = temp - (((year - 1900) * 365 + leap_years) as f64);
        }
        let is_leap = year % 4 == 0;
        let lmonth = [
            31,
            if is_leap { 29 } else { 28 },
            31,
            30,
            31,
            30,
            31,
            31,
            30,
            31,
            30,
            31,
        ];
        let day_of_year = days.floor() as i32;
        let mut day_count = 0;
        let mut month = 0usize;
        while month < 12 && day_count + lmonth[month] < day_of_year {
            day_count += lmonth[month];
            month += 1;
        }
        let day = day_of_year - day_count;
        let frac = days - day_of_year as f64;
        let mut hours = frac * 24.0;
        let hour = hours.floor();
        hours = (hours - hour) * 60.0;
        let minute = hours.floor();
        let second = (hours - minute) * 60.0;
        (
            year,
            (month + 1) as u32,
            day as u32,
            hour as u32,
            minute as u32,
            second,
        )
    }
}

impl Add<f64> for JulianDate {
    type Output = JulianDate;
    /// Shift by whole days.
    #[inline]
    fn add(self, days: f64) -> JulianDate {
        JulianDate(self.0 + days)
    }
}

impl Sub<JulianDate> for JulianDate {
    type Output = f64;
    /// Difference in days.
    #[inline]
    fn sub(self, rhs: JulianDate) -> f64 {
        self.0 - rhs.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn j2000_reference() {
        let jd = JulianDate::from_calendar(2000, 1, 1, 12, 0, 0.0);
        assert!((jd.0 - JD_J2000).abs() < 1e-9);
    }

    #[test]
    fn known_julian_dates() {
        // Vallado example 3-4: 1996-10-26 14:20:00 UTC = JD 2450383.09722222.
        let jd = JulianDate::from_calendar(1996, 10, 26, 14, 20, 0.0);
        assert!((jd.0 - 2_450_383.097_222_22).abs() < 1e-7);
        // Unix epoch 1970-01-01 00:00 = JD 2440587.5.
        let jd = JulianDate::from_calendar(1970, 1, 1, 0, 0, 0.0);
        assert!((jd.0 - 2_440_587.5).abs() < 1e-9);
    }

    #[test]
    fn tle_epoch_year_windowing() {
        // 80275.98708465: 1980, day 275.98708465 (the classic SGP4 test TLE).
        let jd = JulianDate::from_tle_epoch(80, 275.987_084_65);
        let (y, m, d, h, _, _) = jd.to_calendar();
        assert_eq!((y, m, d), (1980, 10, 1));
        assert_eq!(h, 23);
        // 24001.5 → 2024-01-01 12:00.
        let jd = JulianDate::from_tle_epoch(24, 1.5);
        let (y, m, d, h, _, _) = jd.to_calendar();
        assert_eq!((y, m, d, h), (2024, 1, 1, 12));
        // Year 57 → 1957 (Sputnik era), year 56 → 2056.
        assert!(JulianDate::from_tle_epoch(57, 1.0).0 < JulianDate::from_tle_epoch(56, 1.0).0);
    }

    #[test]
    fn gmst_at_known_instant() {
        // Vallado example 3-5: 1992-08-20 12:14 UT1 → GMST = 152.578787810°.
        let jd = JulianDate::from_calendar(1992, 8, 20, 12, 14, 0.0);
        let gmst_deg = jd.gmst_rad().to_degrees();
        assert!(
            (gmst_deg - 152.578_787_810).abs() < 1e-5,
            "gmst was {gmst_deg}"
        );
    }

    #[test]
    fn gmst_advances_about_361_degrees_per_day() {
        let jd0 = JulianDate::from_calendar(2024, 6, 1, 0, 0, 0.0);
        let jd1 = jd0 + 1.0;
        let mut delta = (jd1.gmst_rad() - jd0.gmst_rad()).to_degrees();
        if delta < 0.0 {
            delta += 360.0;
        }
        // A sidereal day is ~3m56s shorter than a solar day, so GMST gains
        // ~0.9856° per solar day.
        assert!((delta - 0.985_6).abs() < 1e-3, "delta was {delta}");
    }

    #[test]
    fn calendar_round_trip() {
        let cases = [
            (2024, 3, 15, 6, 30, 12.25),
            (1980, 10, 1, 23, 41, 24.11),
            (2025, 12, 31, 0, 0, 0.0),
            (2000, 2, 29, 23, 59, 59.0),
        ];
        for (y, mo, d, h, mi, s) in cases {
            let jd = JulianDate::from_calendar(y, mo, d, h, mi, s);
            let (y2, mo2, d2, h2, mi2, s2) = jd.to_calendar();
            assert_eq!((y, mo, d), (y2, mo2, d2));
            let sec_in = h as f64 * 3600.0 + mi as f64 * 60.0 + s;
            let sec_out = h2 as f64 * 3600.0 + mi2 as f64 * 60.0 + s2;
            assert!((sec_in - sec_out).abs() < 1e-3, "{sec_in} vs {sec_out}");
        }
    }

    #[test]
    fn arithmetic_helpers_are_consistent() {
        let jd = JulianDate::from_calendar(2024, 1, 1, 0, 0, 0.0);
        let later = jd.plus_minutes(90.0);
        assert!((later.minutes_since(jd) - 90.0).abs() < 1e-9);
        assert!((later.seconds_since(jd) - 5400.0).abs() < 1e-6);
        assert!((later.days_since(jd) - 0.0625).abs() < 1e-12);
        assert!(((later - jd) - 0.0625).abs() < 1e-12);
        let by_secs = jd.plus_seconds(5400.0);
        assert!((by_secs.0 - later.0).abs() < 1e-12);
    }
}
