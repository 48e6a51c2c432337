//! Seeded fault injection for campaign inputs.
//!
//! The paper's measurement pipeline lives or dies on how it handles
//! degenerate inputs — inverted time ranges, NaN durations, zero-station
//! sites, empty constellations — yet panics in any one code path abort a
//! whole multi-hour sweep. This module is the deterministic half of the
//! robustness harness: a seeded perturbation engine that derives, per
//! scenario index, a reproducible plan of input mutations. The chaos
//! test in `satiot-bench` replays hundreds of such scenarios per seed,
//! over a fixed list of seeds, across the pooled and serial campaign
//! drivers, asserting zero panics and bit-identical degradation
//! accounting.
//!
//! Everything here is a pure function of `(seed, scenario index)`: the
//! engine forks one labelled [`crate::Rng`] stream per scenario, so a
//! failing scenario reproduces from its seed and index alone.
//!
//! ```
//! use satiot_sim::chaos::ChaosEngine;
//!
//! let engine = ChaosEngine::new(7);
//! let mut a = engine.scenario(3);
//! let mut b = engine.scenario(3);
//! // Same seed + index => identical plans.
//! assert_eq!(a.corrupt_f64(1.5).to_bits(), b.corrupt_f64(1.5).to_bits());
//! assert_eq!(a.applied(), b.applied());
//! ```

use crate::rng::Rng;

/// The root seed the chaos test always replays.
pub const DEFAULT_SEED: u64 = 0xC4A0_5EED;

/// The seeded scenario factory.
#[derive(Debug, Clone)]
pub struct ChaosEngine {
    root: Rng,
    seed: u64,
}

impl ChaosEngine {
    /// An engine deriving every scenario from `seed`.
    pub fn new(seed: u64) -> ChaosEngine {
        ChaosEngine {
            root: Rng::from_seed(seed),
            seed,
        }
    }

    /// The root seed this engine derives from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The perturbation plan for scenario `index` (same index, same
    /// plan — forever, on every machine).
    pub fn scenario(&self, index: u64) -> ChaosPlan {
        ChaosPlan {
            rng: self.root.fork_indexed("chaos-scenario", index),
            index,
            applied: Vec::new(),
        }
    }
}

/// One scenario's deterministic stream of input mutations.
///
/// Each `corrupt_*` helper draws from the scenario's private RNG stream,
/// records a label describing the mutation it applied (retrievable via
/// [`ChaosPlan::applied`] for failure reports), and returns the mutated
/// value. Helpers may also return the input unchanged — "no fault" is a
/// valid draw, so scenario batches cover the healthy path too.
#[derive(Debug)]
pub struct ChaosPlan {
    rng: Rng,
    index: u64,
    applied: Vec<&'static str>,
}

impl ChaosPlan {
    /// The scenario index this plan was derived for.
    pub fn index(&self) -> u64 {
        self.index
    }

    /// Labels of every mutation applied so far, in draw order.
    pub fn applied(&self) -> &[&'static str] {
        &self.applied
    }

    /// Record a mutation label (helpers call this; scenario drivers may
    /// add their own markers).
    pub fn note(&mut self, label: &'static str) {
        self.applied.push(label);
    }

    /// A Bernoulli draw from the scenario stream.
    pub fn chance(&mut self, p: f64) -> bool {
        self.rng.chance(p)
    }

    /// A uniform index draw in `[0, len)` (`0` when `len == 0`).
    pub fn index_in(&mut self, len: usize) -> usize {
        if len == 0 {
            0
        } else {
            self.rng.index(len)
        }
    }

    /// A derived seed for the system under test (campaign seeds vary per
    /// scenario so faults meet different stochastic paths).
    pub fn derived_seed(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// Corrupt a general `f64`: NaN, ±∞, sign flip, zero — or leave it
    /// untouched.
    pub fn corrupt_f64(&mut self, v: f64) -> f64 {
        match self.index_in(6) {
            0 => {
                self.note("f64=nan");
                f64::NAN
            }
            1 => {
                self.note("f64=+inf");
                f64::INFINITY
            }
            2 => {
                self.note("f64=-inf");
                f64::NEG_INFINITY
            }
            3 => {
                self.note("f64=negated");
                -v
            }
            4 => {
                self.note("f64=zero");
                0.0
            }
            _ => v,
        }
    }

    /// Corrupt a duration / day-count style quantity. The "huge" arm is
    /// deliberately bounded (not `1e300`) so a degraded-but-running
    /// scenario still terminates quickly.
    pub fn corrupt_duration(&mut self, v: f64) -> f64 {
        match self.index_in(6) {
            0 => {
                self.note("duration=nan");
                f64::NAN
            }
            1 => {
                self.note("duration=zero");
                0.0
            }
            2 => {
                self.note("duration=negative");
                -v.abs().max(1.0)
            }
            3 => {
                self.note("duration=-inf");
                f64::NEG_INFINITY
            }
            4 => {
                self.note("duration=grown");
                v * 3.0
            }
            _ => v,
        }
    }

    /// Corrupt a time range: invert it, collapse it to zero width, or
    /// poison one bound with NaN.
    pub fn corrupt_range(&mut self, range: (f64, f64)) -> (f64, f64) {
        let (a, b) = range;
        match self.index_in(5) {
            0 => {
                self.note("range=inverted");
                (b, a)
            }
            1 => {
                self.note("range=collapsed");
                (a, a)
            }
            2 => {
                self.note("range=nan-start");
                (f64::NAN, b)
            }
            3 => {
                self.note("range=nan-end");
                (a, f64::NAN)
            }
            _ => (a, b),
        }
    }

    /// Corrupt a count (stations, nodes, capacities): zero it, shrink it
    /// to one, or grow it moderately.
    pub fn corrupt_count(&mut self, n: u32) -> u32 {
        match self.index_in(5) {
            0 => {
                self.note("count=zero");
                0
            }
            1 => {
                self.note("count=one");
                1
            }
            2 => {
                self.note("count=grown");
                n.saturating_mul(4).max(4)
            }
            _ => n,
        }
    }

    /// Corrupt an elevation-style angle (radians): push it outside
    /// [−π/2, π/2], poison it, or keep it.
    pub fn corrupt_elevation_rad(&mut self, v: f64) -> f64 {
        match self.index_in(5) {
            0 => {
                self.note("elevation=nan");
                f64::NAN
            }
            1 => {
                self.note("elevation=above-zenith");
                2.0
            }
            2 => {
                self.note("elevation=below-nadir");
                -2.0
            }
            _ => v,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_index_replays_identically() {
        let engine = ChaosEngine::new(0xDEAD);
        let mut a = engine.scenario(11);
        let mut b = engine.scenario(11);
        for _ in 0..32 {
            assert_eq!(
                a.corrupt_duration(5.0).to_bits(),
                b.corrupt_duration(5.0).to_bits()
            );
            assert_eq!(a.corrupt_count(27), b.corrupt_count(27));
            let (ra, rb) = (a.corrupt_range((0.0, 9.0)), b.corrupt_range((0.0, 9.0)));
            assert_eq!(ra.0.to_bits(), rb.0.to_bits());
            assert_eq!(ra.1.to_bits(), rb.1.to_bits());
        }
        assert_eq!(a.applied(), b.applied());
    }

    #[test]
    fn different_indices_diverge() {
        let engine = ChaosEngine::new(1);
        let draws_for = |idx: u64| {
            let mut plan = engine.scenario(idx);
            (0..16).map(|_| plan.derived_seed()).collect::<Vec<_>>()
        };
        assert_ne!(draws_for(0), draws_for(1));
    }

    #[test]
    fn corruption_menu_reaches_every_arm() {
        // Over many draws every mutation class must appear at least once
        // (the menus are small and uniform).
        let engine = ChaosEngine::new(3);
        let mut plan = engine.scenario(0);
        for _ in 0..256 {
            plan.corrupt_f64(1.0);
            plan.corrupt_duration(1.0);
            plan.corrupt_range((0.0, 1.0));
            plan.corrupt_count(8);
            plan.corrupt_elevation_rad(0.1);
        }
        let seen = plan.applied();
        for label in [
            "f64=nan",
            "duration=negative",
            "range=inverted",
            "count=zero",
            "elevation=above-zenith",
        ] {
            assert!(seen.contains(&label), "never drew {label}");
        }
    }

    #[test]
    fn zero_len_index_is_safe() {
        let engine = ChaosEngine::new(9);
        let mut plan = engine.scenario(0);
        assert_eq!(plan.index_in(0), 0);
        assert_eq!(plan.index(), 0);
    }
}
