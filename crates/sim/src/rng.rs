//! Deterministic random-number generation with labelled streams.
//!
//! Every stochastic decision in a campaign draws from an [`Rng`] that is
//! derived — via a stable label hash — from one campaign seed. Re-running
//! with the same seed replays bit-identical traces, and adding a new
//! consumer with its own label does not perturb existing streams.
//!
//! The generator is xoshiro256\*\* (public domain, Blackman & Vigna),
//! seeded through SplitMix64, both implemented here so determinism does not
//! hinge on an external crate's version.

/// SplitMix64 step — used for seeding and label mixing.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a 64 over a byte string: the workspace's one stable hash. It
/// labels forked streams here, and fingerprints scenarios, sweep jobs
/// and checkpoint contents elsewhere.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// A deterministic PRNG (xoshiro256\*\*) with distribution samplers.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
    /// Cached second normal deviate from Box-Muller.
    spare_normal: Option<f64>,
}

impl Rng {
    /// Seed a generator. Equal seeds yield equal sequences.
    pub fn from_seed(seed: u64) -> Rng {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Rng {
            s,
            spare_normal: None,
        }
    }

    /// The current xoshiro256\*\* state words. Checkpointing code
    /// records this to prove a resumed stream sits at the same position
    /// as the uninterrupted one; equal states imply equal futures
    /// (modulo the Box-Muller spare, which campaign drivers never carry
    /// across a checkpoint boundary).
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Derive an independent stream for `label`. Forking is a pure
    /// function of `(parent seed material, label)` — it does not advance
    /// this generator, so adding forks never disturbs existing draws.
    pub fn fork(&self, label: &str) -> Rng {
        let mixed = self.s[0] ^ self.s[2].rotate_left(17) ^ fnv1a(label.as_bytes());
        Rng::from_seed(mixed)
    }

    /// Derive an independent stream for `(label, index)` — convenient for
    /// per-entity streams (satellite #7, node #2, …).
    pub fn fork_indexed(&self, label: &str, index: u64) -> Rng {
        let mixed = self.s[0]
            ^ self.s[2].rotate_left(17)
            ^ fnv1a(label.as_bytes())
            ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(31);
        Rng::from_seed(mixed)
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)` with 53-bit resolution.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi)`.
    #[inline]
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform integer in `[0, n)`. `n` must be > 0.
    pub fn uniform_u64(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        // Rejection sampling to avoid modulo bias.
        let zone = u64::MAX - (u64::MAX % n);
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % n;
            }
        }
    }

    /// Uniform index in `[0, len)` for slice access.
    pub fn index(&mut self, len: usize) -> usize {
        self.uniform_u64(len as u64) as usize
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Standard normal deviate (Box-Muller, cached pair).
    pub fn standard_normal(&mut self) -> f64 {
        if let Some(z) = self.spare_normal.take() {
            return z;
        }
        // Draw u1 ∈ (0, 1] to keep ln() finite.
        let u1 = 1.0 - self.next_f64();
        let u2 = self.next_f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = core::f64::consts::TAU * u2;
        self.spare_normal = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal deviate with the given mean and standard deviation.
    #[inline]
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        mean + std_dev * self.standard_normal()
    }

    /// Exponential deviate with the given mean (inverse-CDF).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        let u = 1.0 - self.next_f64();
        -mean * u.ln()
    }

    /// Amplitude `|X|` of a Rician fading process with K-factor `k_linear`
    /// (ratio of specular to scattered power) and total mean power
    /// `omega` — sampled as the magnitude of a complex Gaussian with a
    /// deterministic offset. Returns the *power gain* (amplitude²/omega
    /// normalised so its expectation is 1.0).
    pub fn rician_power_gain(&mut self, k_linear: f64) -> f64 {
        // Specular component amplitude² = k/(k+1), scatter power = 1/(k+1).
        let nu = (k_linear / (k_linear + 1.0)).sqrt();
        let sigma = (1.0 / (2.0 * (k_linear + 1.0))).sqrt();
        let x = nu + sigma * self.standard_normal();
        let y = sigma * self.standard_normal();
        x * x + y * y
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = Rng::from_seed(42);
        let mut b = Rng::from_seed(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::from_seed(1);
        let mut b = Rng::from_seed(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn forks_are_independent_and_stable() {
        let root = Rng::from_seed(7);
        let mut f1 = root.fork("channel");
        let mut f2 = root.fork("protocol");
        let mut f1_again = root.fork("channel");
        assert_ne!(f1.next_u64(), f2.next_u64());
        // Re-forking yields the same stream (f1 already consumed one draw).
        let _ = f1_again.next_u64();
        assert_eq!(f1.next_u64(), f1_again.next_u64());
    }

    #[test]
    fn indexed_forks_differ_by_index() {
        let root = Rng::from_seed(7);
        let mut a = root.fork_indexed("sat", 0);
        let mut b = root.fork_indexed("sat", 1);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn uniform_stays_in_range() {
        let mut rng = Rng::from_seed(3);
        for _ in 0..10_000 {
            let v = rng.next_f64();
            assert!((0.0..1.0).contains(&v));
            let u = rng.uniform(-3.0, 5.5);
            assert!((-3.0..5.5).contains(&u));
            let n = rng.uniform_u64(7);
            assert!(n < 7);
        }
    }

    #[test]
    fn uniform_mean_is_centered() {
        let mut rng = Rng::from_seed(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.005, "mean {mean}");
    }

    #[test]
    fn normal_moments() {
        let mut rng = Rng::from_seed(13);
        let n = 200_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(10.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.02, "mean {mean}");
        assert!((var - 4.0).abs() < 0.08, "var {var}");
    }

    #[test]
    fn exponential_mean() {
        let mut rng = Rng::from_seed(17);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| rng.exponential(3.0)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.05, "mean {mean}");
        assert!((0..1000).all(|_| rng.exponential(3.0) >= 0.0));
    }

    #[test]
    fn rician_power_gain_expectation_is_one() {
        for k in [0.5, 2.0, 8.0] {
            let mut rng = Rng::from_seed(19);
            let n = 200_000;
            let mean: f64 = (0..n).map(|_| rng.rician_power_gain(k)).sum::<f64>() / n as f64;
            assert!((mean - 1.0).abs() < 0.02, "k={k}: mean {mean}");
        }
    }

    #[test]
    fn high_k_rician_concentrates_near_one() {
        let mut rng = Rng::from_seed(23);
        let n = 50_000;
        let deep_fades = (0..n)
            .filter(|_| rng.rician_power_gain(100.0) < 0.5)
            .count();
        // With K = 100 the specular path dominates: −3 dB fades are
        // ~4σ events (analytically ≈ 2e-5 probability).
        assert!(deep_fades < n / 500, "{deep_fades} deep fades");
    }

    #[test]
    fn chance_frequency_tracks_p() {
        let mut rng = Rng::from_seed(29);
        let n = 100_000;
        let hits = (0..n).filter(|_| rng.chance(0.3)).count() as f64 / n as f64;
        assert!((hits - 0.3).abs() < 0.01, "rate {hits}");
        assert!(!(0..100).any(|_| rng.chance(0.0)));
        assert!((0..100).all(|_| rng.chance(1.0)));
    }

    #[test]
    fn state_pins_the_stream_position() {
        let mut a = Rng::from_seed(97);
        let mut b = Rng::from_seed(97);
        assert_eq!(a.state(), b.state());
        for _ in 0..17 {
            a.next_u64();
            b.next_u64();
        }
        // Equal states ⇒ equal futures: the checkpoint contract.
        assert_eq!(a.state(), b.state());
        assert_eq!(a.next_u64(), b.next_u64());
        // Reading the state does not advance the stream.
        let before = a.state();
        let _ = a.state();
        assert_eq!(a.state(), before);
    }

    #[test]
    fn index_covers_all_slots() {
        let mut rng = Rng::from_seed(31);
        let mut seen = [false; 5];
        for _ in 0..1_000 {
            seen[rng.index(5)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
