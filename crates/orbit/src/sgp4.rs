//! A from-scratch implementation of the SGP4 analytical orbit propagator.
//!
//! This follows the near-earth branch of the algorithm described in
//! Spacetrack Report #3 (Hoots & Roehrich, 1980) as revised by Vallado,
//! Crawford, Hujsak & Kelso, *"Revisiting Spacetrack Report #3"* (AIAA
//! 2006-6753) — the reference the reproduced paper itself cites for
//! contact-window prediction. WGS-72 gravitational constants are used, as
//! in the reference implementation, so the classic test vectors apply.
//!
//! The deep-space branch (SDP4, periods ≥ 225 min) is deliberately
//! unimplemented: every IoT constellation in the study orbits at
//! 440–900 km (periods ≈ 93–103 min). Deep-space element sets are rejected
//! at construction time with a typed error.
//!
//! Output states are in the TEME (True Equator, Mean Equinox) inertial
//! frame, in km and km/s; see [`crate::frames`] for conversion to
//! Earth-fixed and geodetic coordinates.

use crate::error::OrbitError;
use crate::time::JulianDate;
use crate::tle::Tle;
use crate::vec3::Vec3;

use core::f64::consts::TAU;
use satiot_obs::metrics::{Counter, Histogram};

/// Total [`Sgp4::propagate`] invocations (metrics).
static PROPAGATE_CALLS: Counter = Counter::new("orbit.sgp4.propagate_calls");
/// Newton iterations Kepler's equation needed per propagation (metrics).
static KEPLER_ITERATIONS: Histogram = Histogram::new(
    "orbit.sgp4.kepler_iterations",
    &[1.0, 2.0, 3.0, 5.0, 8.0, 10.0],
);

/// WGS-72 gravitational parameter, km³/s².
pub const MU_KM3_S2: f64 = 398_600.8;
/// WGS-72 Earth equatorial radius, km.
pub const EARTH_RADIUS_KM: f64 = 6_378.135;
/// √(μ)/√(Re³) expressed per minute (the `ke` constant).
pub const XKE: f64 = 0.074_366_916_133_173_4;
/// Second zonal harmonic J₂ (WGS-72).
pub const J2: f64 = 0.001_082_616;
/// Third zonal harmonic J₃ (WGS-72).
pub const J3: f64 = -0.000_002_538_81;
/// Fourth zonal harmonic J₄ (WGS-72).
pub const J4: f64 = -0.000_001_655_97;

const X2O3: f64 = 2.0 / 3.0;

/// [`TAU`] split for [`rem_tau`]: its 26 leading significant bits…
const TAU_HI: f64 = 6.283_185_243_606_567;
/// …and the rest, `TAU − TAU_HI` exactly (23 significant bits).
const TAU_LO: f64 = 6.357_301_884_918_343e-8;
/// Below `2²⁶·TAU` the quotient in [`rem_tau`] has at most 26
/// significant bits, so both of its products with the split are exact.
const REM_TAU_LIMIT: f64 = 67_108_864.0 * TAU;

/// `x % TAU`, bit for bit, without libm's `fmod`: the angle reductions
/// of [`Sgp4::propagate`] and of GMST.
///
/// Below `2²⁶·TAU` the quotient `n = trunc(|x|/TAU)` is exact or one
/// off, both products of `n` with the split `TAU_HI + TAU_LO` are
/// exact, and so is every subtraction after them, since each difference
/// is a double (`fmod`'s remainder always is); one `±TAU` step corrects
/// an off-by-one `n`. The result takes `x`'s sign, as `fmod`'s does.
/// Larger and non-finite `x` go to `fmod`.
#[inline]
pub(crate) fn rem_tau(x: f64) -> f64 {
    let a = x.abs();
    if a < REM_TAU_LIMIT {
        let n = (a / TAU).trunc();
        let mut r = (a - n * TAU_HI) - n * TAU_LO;
        if r < 0.0 {
            r += TAU;
        } else if r >= TAU {
            r -= TAU;
        }
        r.copysign(x)
    } else {
        x % TAU
    }
}

/// A propagated state in the TEME inertial frame.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StateTeme {
    /// Position, km.
    pub position_km: Vec3,
    /// Velocity, km/s.
    pub velocity_km_s: Vec3,
    /// Minutes since the element-set epoch at which this state holds.
    pub tsince_min: f64,
}

/// An initialised SGP4 propagator for one element set.
///
/// Construction performs the (comparatively expensive) initialisation of
/// all secular and periodic coefficients; [`Sgp4::propagate`] is then cheap
/// (≈ 300–400 ns per call in a release build on a 2-core x86-64 host)
/// and can be called millions of times, which the campaign simulators
/// rely on.
#[derive(Debug, Clone)]
pub struct Sgp4 {
    // Elements.
    ecco: f64,
    inclo: f64,
    nodeo: f64,
    argpo: f64,
    mo: f64,
    no_unkozai: f64,
    bstar: f64,
    /// Element-set epoch.
    pub epoch: JulianDate,

    // Derived init constants.
    isimp: bool,
    aycof: f64,
    con41: f64,
    cc1: f64,
    cc4: f64,
    cc5: f64,
    d2: f64,
    d3: f64,
    d4: f64,
    delmo: f64,
    eta: f64,
    argpdot: f64,
    omgcof: f64,
    sinmao: f64,
    t2cof: f64,
    t3cof: f64,
    t4cof: f64,
    t5cof: f64,
    x1mth2: f64,
    x7thm1: f64,
    mdot: f64,
    nodedot: f64,
    xlcof: f64,
    xmcof: f64,
    nodecf: f64,
    // Per-satellite constants `propagate` reads instead of recomputing:
    // the un-Kozai'd semi-major axis (Earth radii) and the sine and
    // cosine of the mean inclination.
    ao: f64,
    sinio: f64,
    cosio: f64,
}

impl Sgp4 {
    /// Initialise the propagator from a parsed TLE.
    ///
    /// # Errors
    ///
    /// * [`OrbitError::DeepSpaceUnsupported`] if the un-Kozai'd period is
    ///   ≥ 225 minutes (SDP4 territory).
    /// * [`OrbitError::EccentricityOutOfRange`] for pathological elements.
    pub fn new(tle: &Tle) -> Result<Sgp4, OrbitError> {
        Self::from_elements(
            tle.mean_motion_rad_min,
            tle.eccentricity,
            tle.inclination_rad,
            tle.raan_rad,
            tle.arg_perigee_rad,
            tle.mean_anomaly_rad,
            tle.bstar,
            tle.epoch,
        )
    }

    /// Initialise directly from mean elements (Kozai mean motion in
    /// rad/min, angles in radians). Used by the synthetic-constellation
    /// builder to skip TLE round-trips in hot paths.
    #[allow(clippy::too_many_arguments)]
    pub fn from_elements(
        no_kozai: f64,
        ecco: f64,
        inclo: f64,
        nodeo: f64,
        argpo: f64,
        mo: f64,
        bstar: f64,
        epoch: JulianDate,
    ) -> Result<Sgp4, OrbitError> {
        if !(0.0..1.0).contains(&ecco) {
            return Err(OrbitError::EccentricityOutOfRange { eccentricity: ecco });
        }
        if no_kozai <= 0.0 {
            return Err(OrbitError::MeanMotionNonPositive);
        }

        // ---- initl: recover the original (un-Kozai'd) mean motion. ----
        let eccsq = ecco * ecco;
        let omeosq = 1.0 - eccsq;
        let rteosq = omeosq.sqrt();
        let cosio = inclo.cos();
        let cosio2 = cosio * cosio;

        let ak = (XKE / no_kozai).powf(X2O3);
        let d1 = 0.75 * J2 * (3.0 * cosio2 - 1.0) / (rteosq * omeosq);
        let mut del = d1 / (ak * ak);
        let adel = ak * (1.0 - del * del - del * (1.0 / 3.0 + 134.0 * del * del / 81.0));
        del = d1 / (adel * adel);
        let no_unkozai = no_kozai / (1.0 + del);

        let period_min = TAU / no_unkozai;
        if period_min >= 225.0 {
            return Err(OrbitError::DeepSpaceUnsupported { period_min });
        }

        let ao = (XKE / no_unkozai).powf(X2O3);
        let sinio = inclo.sin();
        let po = ao * omeosq;
        let con42 = 1.0 - 5.0 * cosio2;
        let con41 = -con42 - cosio2 - cosio2;
        let posq = po * po;
        let rp = ao * (1.0 - ecco);

        // ---- sgp4init: drag and secular coefficients. ----
        let isimp = rp < 220.0 / EARTH_RADIUS_KM + 1.0;

        let mut sfour = 78.0 / EARTH_RADIUS_KM + 1.0;
        let mut qzms24 = ((120.0 - 78.0) / EARTH_RADIUS_KM).powi(4);
        let perige = (rp - 1.0) * EARTH_RADIUS_KM;
        if perige < 156.0 {
            sfour = perige - 78.0;
            if perige < 98.0 {
                sfour = 20.0;
            }
            qzms24 = ((120.0 - sfour) / EARTH_RADIUS_KM).powi(4);
            sfour = sfour / EARTH_RADIUS_KM + 1.0;
        }
        let pinvsq = 1.0 / posq;

        let tsi = 1.0 / (ao - sfour);
        let eta = ao * ecco * tsi;
        let etasq = eta * eta;
        let eeta = ecco * eta;
        let psisq = (1.0 - etasq).abs();
        let coef = qzms24 * tsi.powi(4);
        let coef1 = coef / psisq.powf(3.5);
        let cc2 = coef1
            * no_unkozai
            * (ao * (1.0 + 1.5 * etasq + eeta * (4.0 + etasq))
                + 0.375 * J2 * tsi / psisq * con41 * (8.0 + 3.0 * etasq * (8.0 + etasq)));
        let cc1 = bstar * cc2;
        let mut cc3 = 0.0;
        if ecco > 1.0e-4 {
            cc3 = -2.0 * coef * tsi * (J3 / J2) * no_unkozai * sinio / ecco;
        }
        let x1mth2 = 1.0 - cosio2;
        let cc4 = 2.0
            * no_unkozai
            * coef1
            * ao
            * omeosq
            * (eta * (2.0 + 0.5 * etasq) + ecco * (0.5 + 2.0 * etasq)
                - J2 * tsi / (ao * psisq)
                    * (-3.0 * con41 * (1.0 - 2.0 * eeta + etasq * (1.5 - 0.5 * eeta))
                        + 0.75
                            * x1mth2
                            * (2.0 * etasq - eeta * (1.0 + etasq))
                            * (2.0 * argpo).cos()));
        let cc5 = 2.0 * coef1 * ao * omeosq * (1.0 + 2.75 * (etasq + eeta) + eeta * etasq);

        let cosio4 = cosio2 * cosio2;
        let temp1 = 1.5 * J2 * pinvsq * no_unkozai;
        let temp2 = 0.5 * temp1 * J2 * pinvsq;
        let temp3 = -0.46875 * J4 * pinvsq * pinvsq * no_unkozai;
        let mdot = no_unkozai
            + 0.5 * temp1 * rteosq * con41
            + 0.0625 * temp2 * rteosq * (13.0 - 78.0 * cosio2 + 137.0 * cosio4);
        let argpdot = -0.5 * temp1 * con42
            + 0.0625 * temp2 * (7.0 - 114.0 * cosio2 + 395.0 * cosio4)
            + temp3 * (3.0 - 36.0 * cosio2 + 49.0 * cosio4);
        let xhdot1 = -temp1 * cosio;
        let nodedot = xhdot1
            + (0.5 * temp2 * (4.0 - 19.0 * cosio2) + 2.0 * temp3 * (3.0 - 7.0 * cosio2)) * cosio;

        let omgcof = bstar * cc3 * argpo.cos();
        let mut xmcof = 0.0;
        if ecco > 1.0e-4 {
            xmcof = -X2O3 * coef * bstar / eeta;
        }
        let nodecf = 3.5 * omeosq * xhdot1 * cc1;
        let t2cof = 1.5 * cc1;

        // Long-period coefficients; guard the (i ≈ 180°) singularity.
        let xlcof = if (cosio + 1.0).abs() > 1.5e-12 {
            -0.25 * (J3 / J2) * sinio * (3.0 + 5.0 * cosio) / (1.0 + cosio)
        } else {
            -0.25 * (J3 / J2) * sinio * (3.0 + 5.0 * cosio) / 1.5e-12
        };
        let aycof = -0.5 * (J3 / J2) * sinio;

        let delmo = (1.0 + eta * mo.cos()).powi(3);
        let sinmao = mo.sin();
        let x7thm1 = 7.0 * cosio2 - 1.0;

        let (mut d2, mut d3, mut d4) = (0.0, 0.0, 0.0);
        let (mut t3cof, mut t4cof, mut t5cof) = (0.0, 0.0, 0.0);
        if !isimp {
            let cc1sq = cc1 * cc1;
            d2 = 4.0 * ao * tsi * cc1sq;
            let temp = d2 * tsi * cc1 / 3.0;
            d3 = (17.0 * ao + sfour) * temp;
            d4 = 0.5 * temp * ao * tsi * (221.0 * ao + 31.0 * sfour) * cc1;
            t3cof = d2 + 2.0 * cc1sq;
            t4cof = 0.25 * (3.0 * d3 + cc1 * (12.0 * d2 + 10.0 * cc1sq));
            t5cof = 0.2
                * (3.0 * d4 + 12.0 * cc1 * d3 + 6.0 * d2 * d2 + 15.0 * cc1sq * (2.0 * d2 + cc1sq));
        }

        Ok(Sgp4 {
            ecco,
            inclo,
            nodeo,
            argpo,
            mo,
            no_unkozai,
            bstar,
            epoch,
            isimp,
            aycof,
            con41,
            cc1,
            cc4,
            cc5,
            d2,
            d3,
            d4,
            delmo,
            eta,
            argpdot,
            omgcof,
            sinmao,
            t2cof,
            t3cof,
            t4cof,
            t5cof,
            x1mth2,
            x7thm1,
            mdot,
            nodedot,
            xlcof,
            xmcof,
            nodecf,
            ao,
            sinio,
            cosio,
        })
    }

    /// Orbital period of the un-Kozai'd mean motion, minutes.
    pub fn period_min(&self) -> f64 {
        TAU / self.no_unkozai
    }

    /// Mean inclination of the element set, radians.
    ///
    /// The spatial pre-cull ([`crate::cull`]) bounds the satellite's
    /// reachable latitude band from this without propagating.
    pub fn inclination_rad(&self) -> f64 {
        self.inclo
    }

    /// Mean eccentricity of the element set.
    pub fn eccentricity(&self) -> f64 {
        self.ecco
    }

    /// Brouwer-mean semi-major axis implied by the un-Kozai'd mean
    /// motion, km.
    pub fn semi_major_axis_km(&self) -> f64 {
        self.ao * EARTH_RADIUS_KM
    }

    /// Mean apogee radius `a·(1+e)`, km from the geocentre.
    ///
    /// An upper bound (to within short-period J₂ oscillations — callers
    /// pad, see [`crate::cull::RADIUS_PAD_KM`]) on how far from Earth's
    /// centre the propagated satellite can be, and therefore on its
    /// visibility-cone half-angle.
    pub fn apogee_radius_km(&self) -> f64 {
        self.semi_major_axis_km() * (1.0 + self.ecco)
    }

    /// Propagate to `tsince_min` minutes after the element-set epoch.
    ///
    /// Returns the TEME position/velocity, or a typed error if the element
    /// set degenerates (eccentricity blow-up, decay, …) at this offset.
    pub fn propagate(&self, tsince_min: f64) -> Result<StateTeme, OrbitError> {
        PROPAGATE_CALLS.inc();
        let t = tsince_min;

        // ---- Secular gravity and atmospheric drag. ----
        let xmdf = self.mo + self.mdot * t;
        let argpdf = self.argpo + self.argpdot * t;
        let nodedf = self.nodeo + self.nodedot * t;
        let mut argpm = argpdf;
        let mut mm = xmdf;
        let t2 = t * t;
        let mut nodem = nodedf + self.nodecf * t2;
        let mut tempa = 1.0 - self.cc1 * t;
        let mut tempe = self.bstar * self.cc4 * t;
        let mut templ = self.t2cof * t2;

        if !self.isimp {
            let delomg = self.omgcof * t;
            let delmtemp = 1.0 + self.eta * xmdf.cos();
            let delm = self.xmcof * (delmtemp.powi(3) - self.delmo);
            let temp = delomg + delm;
            mm = xmdf + temp;
            argpm = argpdf - temp;
            let t3 = t2 * t;
            let t4 = t3 * t;
            tempa = tempa - self.d2 * t2 - self.d3 * t3 - self.d4 * t4;
            tempe += self.bstar * self.cc5 * (mm.sin() - self.sinmao);
            templ = templ + self.t3cof * t3 + t4 * (self.t4cof + t * self.t5cof);
        }

        let mut nm = self.no_unkozai;
        let mut em = self.ecco;
        let inclm = self.inclo;
        if nm <= 0.0 {
            return Err(OrbitError::MeanMotionNonPositive);
        }
        let am = self.ao * tempa * tempa;
        nm = XKE / am.powf(1.5);
        em -= tempe;
        #[allow(clippy::manual_range_contains)] // Mirrors the reference SGP4 code.
        if em >= 1.0 || em < -0.001 {
            return Err(OrbitError::EccentricityOutOfRange { eccentricity: em });
        }
        if em < 1.0e-6 {
            em = 1.0e-6;
        }
        mm += self.no_unkozai * templ;
        let mut xlm = mm + argpm + nodem;

        nodem = rem_tau(nodem);
        argpm = rem_tau(argpm);
        xlm = rem_tau(xlm);
        mm = rem_tau(xlm - argpm - nodem);

        // ---- Long-period periodics. ----
        let ep = em;
        let xincp = inclm;
        let argpp = argpm;
        let nodep = nodem;
        let mp = mm;
        let sinip = self.sinio;
        let cosip = self.cosio;

        let axnl = ep * argpp.cos();
        let temp = 1.0 / (am * (1.0 - ep * ep));
        let aynl = ep * argpp.sin() + temp * self.aycof;
        let xl = mp + argpp + nodep + temp * self.xlcof * axnl;

        // ---- Kepler's equation (modified for long-period terms). ----
        let u = rem_tau(xl - nodep);
        let mut eo1 = u;
        let mut tem5: f64 = 9999.9;
        let mut ktr = 1;
        let mut sineo1 = eo1.sin();
        let mut coseo1 = eo1.cos();
        while tem5.abs() >= 1.0e-12 && ktr <= 10 {
            sineo1 = eo1.sin();
            coseo1 = eo1.cos();
            tem5 = 1.0 - coseo1 * axnl - sineo1 * aynl;
            tem5 = (u - aynl * coseo1 + axnl * sineo1 - eo1) / tem5;
            if tem5.abs() >= 0.95 {
                tem5 = 0.95 * tem5.signum();
            }
            eo1 += tem5;
            ktr += 1;
        }
        KEPLER_ITERATIONS.record(ktr as f64 - 1.0);

        // ---- Short-period preliminary quantities. ----
        let ecose = axnl * coseo1 + aynl * sineo1;
        let esine = axnl * sineo1 - aynl * coseo1;
        let el2 = axnl * axnl + aynl * aynl;
        let pl = am * (1.0 - el2);
        if pl < 0.0 {
            return Err(OrbitError::SemiLatusRectumNegative);
        }

        let rl = am * (1.0 - ecose);
        let rdotl = am.sqrt() * esine / rl;
        let rvdotl = pl.sqrt() / rl;
        let betal = (1.0 - el2).sqrt();
        let temp = esine / (1.0 + betal);
        let sinu = am / rl * (sineo1 - aynl - axnl * temp);
        let cosu = am / rl * (coseo1 - axnl + aynl * temp);
        let su = sinu.atan2(cosu);
        let sin2u = (cosu + cosu) * sinu;
        let cos2u = 1.0 - 2.0 * sinu * sinu;
        let temp = 1.0 / pl;
        let temp1 = 0.5 * J2 * temp;
        let temp2 = temp1 * temp;

        // ---- Short-period periodics. ----
        let mrt = rl * (1.0 - 1.5 * temp2 * betal * self.con41) + 0.5 * temp1 * self.x1mth2 * cos2u;
        let su = su - 0.25 * temp2 * self.x7thm1 * sin2u;
        let xnode = nodep + 1.5 * temp2 * cosip * sin2u;
        let xinc = xincp + 1.5 * temp2 * cosip * sinip * cos2u;
        let mvt = rdotl - nm * temp1 * self.x1mth2 * sin2u / XKE;
        let rvdot = rvdotl + nm * temp1 * (self.x1mth2 * cos2u + 1.5 * self.con41) / XKE;

        // ---- Orientation vectors and final state. ----
        let sinsu = su.sin();
        let cossu = su.cos();
        let snod = xnode.sin();
        let cnod = xnode.cos();
        let sini = xinc.sin();
        let cosi = xinc.cos();
        let xmx = -snod * cosi;
        let xmy = cnod * cosi;
        let ux = xmx * sinsu + cnod * cossu;
        let uy = xmy * sinsu + snod * cossu;
        let uz = sini * sinsu;
        let vx = xmx * cossu - cnod * sinsu;
        let vy = xmy * cossu - snod * sinsu;
        let vz = sini * cossu;

        if mrt < 1.0 {
            return Err(OrbitError::Decayed { tsince_min: t });
        }

        let vkmpersec = EARTH_RADIUS_KM * XKE / 60.0;
        let position_km = Vec3::new(ux, uy, uz) * (mrt * EARTH_RADIUS_KM);
        let velocity_km_s =
            (Vec3::new(ux, uy, uz) * mvt + Vec3::new(vx, vy, vz) * rvdot) * vkmpersec;

        Ok(StateTeme {
            position_km,
            velocity_km_s,
            tsince_min: t,
        })
    }

    /// Propagate to an absolute instant.
    pub fn propagate_at(&self, when: JulianDate) -> Result<StateTeme, OrbitError> {
        self.propagate(when.minutes_since(self.epoch))
    }
}

#[cfg(test)]
#[allow(clippy::inconsistent_digit_grouping)] // Reference vectors keep their published digits.
mod tests {
    use super::*;
    use crate::tle::Tle;

    const L1: &str = "1 88888U          80275.98708465  .00073094  13844-3  66816-4 0    87";
    const L2: &str = "2 88888  72.8435 115.9689 0086731  52.6988 110.5714 16.05824518  1058";

    fn classic() -> Sgp4 {
        Sgp4::new(&Tle::parse_lines(L1, L2).unwrap()).unwrap()
    }

    /// Reference ephemeris from Spacetrack Report #3 (WGS-72).
    /// Position tolerance of 50 m comfortably distinguishes a correct
    /// implementation (agrees to metres) from a broken one (off by km).
    #[test]
    fn spacetrack_report_3_test_case() {
        let cases: &[(f64, [f64; 3], [f64; 3])] = &[
            (
                0.0,
                [2328.970_489_51, -5995.220_764_16, 1719.970_672_61],
                [2.912_072_30, -0.983_415_46, -7.090_817_03],
            ),
            (
                360.0,
                [2456.107_055_66, -6071.938_537_60, 1222.897_277_83],
                [2.679_389_92, -0.448_290_41, -7.228_792_31],
            ),
            (
                720.0,
                [2567.561_950_68, -6112.503_845_22, 713.963_974_00],
                [2.440_245_99, 0.098_108_69, -7.319_959_16],
            ),
            (
                1080.0,
                [2663.090_789_80, -6115.482_299_80, 196.398_757_94],
                [2.196_119_58, 0.652_419_95, -7.362_824_32],
            ),
            (
                1440.0,
                [2742.551_330_57, -6079.671_447_75, -326.380_958_56],
                [1.948_502_29, 1.211_062_51, -7.356_193_72],
            ),
        ];
        let sgp4 = classic();
        for (t, r_ref, v_ref) in cases {
            let s = sgp4.propagate(*t).unwrap();
            let dr = (s.position_km - Vec3::new(r_ref[0], r_ref[1], r_ref[2])).norm();
            let dv = (s.velocity_km_s - Vec3::new(v_ref[0], v_ref[1], v_ref[2])).norm();
            assert!(dr < 0.05, "t={t}: position off by {dr} km");
            assert!(dv < 5e-4, "t={t}: velocity off by {dv} km/s");
        }
    }

    /// The Spacetrack #3 states above, pinned to the bit: the TEME
    /// position and velocity components, as recorded before `propagate`
    /// read the per-satellite constants from fields. Any reordering of
    /// the arithmetic moves a bit here long before the 50 m tolerance
    /// notices.
    #[test]
    fn spacetrack_report_3_states_are_bit_exact() {
        let cases: [(f64, [u64; 6]); 5] = [
            (
                0.0,
                [
                    0x40a2_31f0_836a_6052,
                    0xc0b7_6b38_7390_96c7,
                    0x409a_dfe4_52c0_020a,
                    0x4007_4bed_1394_4d11,
                    0xbfef_7828_eece_23dd,
                    0xc01c_5cfe_ecb0_a704,
                ],
            ),
            (
                360.0,
                [
                    0x40a3_3036_d144_7bd0,
                    0xc0b7_b7f0_4524_77b1,
                    0x4093_1b97_3ae0_b777,
                    0x4005_6f64_0ba0_4593,
                    0xbfdc_b0cb_f12a_d134,
                    0xc01c_ea48_7d9c_2aa9,
                ],
            ),
            (
                720.0,
                [
                    0x40a4_0f1f_e562_d0f6,
                    0xc0b7_e080_fb9b_773e,
                    0x4086_4fb5_bf99_8798,
                    0x4003_859f_9081_1ad0,
                    0x3fb9_1dab_eba1_b083,
                    0xc01d_47a3_6659_04cd,
                ],
            ),
            (
                1080.0,
                [
                    0x40a4_ce2d_e5c1_764e,
                    0xc0b7_e37b_9fea_0677,
                    0x4068_8cd2_c4eb_a071,
                    0x4001_91a8_2eb7_2e67,
                    0x3fe4_e095_9dc1_620f,
                    0xc01d_7388_2cb4_102a,
                ],
            ),
            (
                1440.0,
                [
                    0x40a5_6d1b_a45b_4d26,
                    0xc0b7_bfab_8b19_4800,
                    0xc074_663d_f546_cbb2,
                    0x3fff_2d0b_df96_e30e,
                    0x3ff3_608d_beaf_df2b,
                    0xc01d_6cbd_e467_964b,
                ],
            ),
        ];
        let sgp4 = classic();
        for (t, bits) in cases {
            let s = sgp4.propagate(t).unwrap();
            let (p, v) = (s.position_km, s.velocity_km_s);
            assert_eq!(
                [p.x, p.y, p.z, v.x, v.y, v.z].map(f64::to_bits),
                bits,
                "t={t}"
            );
        }
    }

    /// `rem_tau(x)` and `x % TAU` agree to the bit.
    fn assert_rem_tau_is_fmod(x: f64) {
        assert_eq!(
            rem_tau(x).to_bits(),
            (x % TAU).to_bits(),
            "x = {x:e} ({:#018x})",
            x.to_bits()
        );
    }

    /// `x` moved by `d` ulps (within its binade and sign).
    fn ulps(x: f64, d: i64) -> f64 {
        f64::from_bits((x.to_bits() as i64 + d) as u64)
    }

    #[test]
    fn rem_tau_is_fmod_to_the_bit() {
        assert_eq!(TAU_HI + TAU_LO, TAU);
        assert_eq!(TAU_HI.to_bits() & ((1 << 27) - 1), 0, "26-bit head");
        let specials = [
            0.0,
            f64::from_bits(1),
            f64::MIN_POSITIVE / 3.0,
            f64::MIN_POSITIVE,
            f64::NAN,
            f64::INFINITY,
            f64::MAX,
        ];
        for x in specials {
            assert_rem_tau_is_fmod(x);
            assert_rem_tau_is_fmod(-x);
        }
        // Every multiple kτ up to 10⁶ and its ±1–4-ulp neighbours, where
        // the quotient is closest to an integer.
        for k in 1..=1_000_000 {
            let x = k as f64 * TAU;
            for d in -4..=4 {
                assert_rem_tau_is_fmod(ulps(x, d));
                assert_rem_tau_is_fmod(-ulps(x, d));
            }
        }
        // Both sides of the cut-over to fmod.
        for d in -2_000..=2_000 {
            assert_rem_tau_is_fmod(ulps(REM_TAU_LIMIT, d));
            assert_rem_tau_is_fmod(-ulps(REM_TAU_LIMIT, d));
        }
        // 10⁷ signed magnitudes spread evenly over the binades of
        // [2⁻¹⁰, 2²⁹), from a fixed-seed xorshift.
        let mut state = 0x9E37_79B9_7F4A_7C15_u64;
        for _ in 0..10_000_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let exponent = 1023 - 10 + (state >> 53) % 39;
            let sign = (state >> 52 & 1) << 63;
            let x = f64::from_bits(sign | exponent << 52 | state & ((1 << 52) - 1));
            assert_rem_tau_is_fmod(x);
        }
    }

    #[test]
    fn rejects_deep_space_elements() {
        // A 12-hour Molniya-type orbit (period 720 min ≥ 225 min).
        let no_kozai = TAU / 720.0;
        let err = Sgp4::from_elements(
            no_kozai,
            0.7,
            63.4_f64.to_radians(),
            0.0,
            270.0_f64.to_radians(),
            0.0,
            0.0,
            JulianDate::from_calendar(2024, 1, 1, 0, 0, 0.0),
        )
        .unwrap_err();
        match err {
            OrbitError::DeepSpaceUnsupported { period_min } => {
                assert!((period_min - 720.0).abs() < 1.0);
            }
            other => panic!("expected DeepSpaceUnsupported, got {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_eccentricity() {
        let err = Sgp4::from_elements(
            0.06,
            1.5,
            0.0,
            0.0,
            0.0,
            0.0,
            0.0,
            JulianDate::from_calendar(2024, 1, 1, 0, 0, 0.0),
        )
        .unwrap_err();
        assert!(matches!(err, OrbitError::EccentricityOutOfRange { .. }));
    }

    #[test]
    fn radius_stays_in_leo_band() {
        let sgp4 = classic();
        // Perigee ≈ 6640 km, apogee ≈ 6750 km for this element set; allow
        // generous drag drift over a day.
        for i in 0..1440 {
            let s = sgp4.propagate(i as f64).unwrap();
            let r = s.position_km.norm();
            assert!((6500.0..6900.0).contains(&r), "t={i}: r={r}");
        }
    }

    #[test]
    fn velocity_matches_vis_viva() {
        // v² ≈ μ(2/r − 1/a) to within the J2 perturbation scale.
        let sgp4 = classic();
        let a = (XKE / sgp4.no_unkozai).powf(X2O3) * EARTH_RADIUS_KM;
        for t in [0.0, 45.0, 200.0, 777.5] {
            let s = sgp4.propagate(t).unwrap();
            let r = s.position_km.norm();
            let v2 = s.velocity_km_s.norm_sq();
            let vis_viva = MU_KM3_S2 * (2.0 / r - 1.0 / a);
            let rel = (v2 - vis_viva).abs() / vis_viva;
            assert!(rel < 5e-3, "t={t}: rel error {rel}");
        }
    }

    #[test]
    fn angular_momentum_direction_is_stable_over_one_orbit() {
        let sgp4 = classic();
        let s0 = sgp4.propagate(0.0).unwrap();
        let h0 = s0.position_km.cross(s0.velocity_km_s).normalized().unwrap();
        let period = sgp4.period_min();
        for k in 1..=8 {
            let s = sgp4.propagate(period * k as f64 / 8.0).unwrap();
            let h = s.position_km.cross(s.velocity_km_s).normalized().unwrap();
            // J2 precesses the node slowly; within one orbit drift is tiny.
            assert!(h.dot(h0) > 0.999, "k={k}: h·h0 = {}", h.dot(h0));
        }
    }

    #[test]
    fn propagate_at_uses_epoch() {
        let sgp4 = classic();
        let s0 = sgp4.propagate(0.0).unwrap();
        let s1 = sgp4.propagate_at(sgp4.epoch).unwrap();
        assert!((s0.position_km - s1.position_km).norm() < 1e-9);
        let s2 = sgp4.propagate_at(sgp4.epoch.plus_minutes(90.0)).unwrap();
        let s3 = sgp4.propagate(90.0).unwrap();
        assert!((s2.position_km - s3.position_km).norm() < 1e-9);
    }

    #[test]
    fn period_matches_mean_motion() {
        let sgp4 = classic();
        // 16.058 rev/day → ~89.7 min period.
        assert!((sgp4.period_min() - 1440.0 / 16.058_245_18).abs() < 0.1);
    }

    #[test]
    fn low_perigee_triggers_simple_mode() {
        // Circular orbit at ~180 km: rp < 220 km ⇒ isimp.
        let n = mean_motion_for_altitude(180.0);
        let sgp4 = Sgp4::from_elements(
            n,
            0.0001,
            51.6_f64.to_radians(),
            0.0,
            0.0,
            0.0,
            1e-4,
            JulianDate::from_calendar(2024, 1, 1, 0, 0, 0.0),
        )
        .unwrap();
        assert!(sgp4.isimp);
        // Still propagates sanely for a few orbits.
        let s = sgp4.propagate(180.0).unwrap();
        assert!(s.position_km.norm() > 6400.0);
    }

    /// Kozai-ish mean motion (rad/min) for a circular orbit at `alt` km.
    fn mean_motion_for_altitude(alt: f64) -> f64 {
        let a = EARTH_RADIUS_KM + alt;
        (MU_KM3_S2 / (a * a * a)).sqrt() * 60.0
    }

    #[test]
    fn backwards_propagation_works() {
        let sgp4 = classic();
        let s = sgp4.propagate(-120.0).unwrap();
        assert!(s.position_km.norm() > 6400.0);
        assert_eq!(s.tsince_min, -120.0);
    }
}

#[cfg(test)]
#[allow(clippy::inconsistent_digit_grouping)]
mod eccentric_tests {
    use super::*;
    use crate::tle::Tle;

    /// Vallado's distribution test case #00005 (the 1958-002B object):
    /// a *highly eccentric* near-earth orbit (e = 0.186) that exercises
    /// the long-period and Kepler-solver paths our near-circular
    /// constellation tests barely touch. Reference states from the
    /// "Revisiting Spacetrack Report #3" verification output; the
    /// tolerance is loose enough to absorb last-digit transcription
    /// drift while still catching any real algorithmic error (which
    /// shows up as tens of km on this orbit).
    #[test]
    fn vallado_case_00005_eccentric_orbit() {
        let l1 = "1 00005U 58002B   00179.78495062  .00000023  00000-0  28098-4 0  4753";
        let l2 = "2 00005  34.2682 348.7242 1859667 331.7664  19.3264 10.82419157413667";
        let tle = Tle::parse_lines(l1, l2).expect("distribution TLE parses");
        assert!((tle.eccentricity - 0.185_966_7).abs() < 1e-9);
        let sgp4 = Sgp4::new(&tle).expect("near-earth (period ≈ 133 min)");
        assert!((sgp4.period_min() - 1_440.0 / 10.824_191_57).abs() < 0.5);

        let s0 = sgp4.propagate(0.0).unwrap();
        let r0_ref = Vec3::new(7_022.465_292_66, -1_400.082_967_55, 0.039_951_55);
        let v0_ref = Vec3::new(1.893_841_015, 6.405_893_759, 4.534_807_250);
        assert!(
            (s0.position_km - r0_ref).norm() < 1.0,
            "t=0 position off by {} km",
            (s0.position_km - r0_ref).norm()
        );
        assert!((s0.velocity_km_s - v0_ref).norm() < 1e-2);

        let s360 = sgp4.propagate(360.0).unwrap();
        let r360_ref = Vec3::new(-7_154.031_202_02, -3_783.176_825_04, -3_536.194_122_94);
        assert!(
            (s360.position_km - r360_ref).norm() < 2.0,
            "t=360 position off by {} km",
            (s360.position_km - r360_ref).norm()
        );

        // Physical invariants across a full day of the eccentric orbit:
        // radius swings between perigee and apogee, and vis-viva holds.
        let a = (XKE / tle.mean_motion_rad_min).powf(2.0 / 3.0) * EARTH_RADIUS_KM;
        let mut r_min = f64::MAX;
        let mut r_max = 0.0_f64;
        for t in 0..1_440 {
            let s = sgp4.propagate(t as f64).unwrap();
            let r = s.position_km.norm();
            r_min = r_min.min(r);
            r_max = r_max.max(r);
            let vis_viva = MU_KM3_S2 * (2.0 / r - 1.0 / a);
            assert!(
                (s.velocity_km_s.norm_sq() - vis_viva).abs() / vis_viva < 0.02,
                "vis-viva violated at t={t}"
            );
        }
        // e = 0.186: apogee/perigee ratio ≈ (1+e)/(1−e) ≈ 1.46.
        assert!(
            (r_max / r_min - 1.456).abs() < 0.03,
            "ratio {}",
            r_max / r_min
        );
    }
}
