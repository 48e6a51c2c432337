//! # satiot-sim
//!
//! A small, deterministic discrete-event simulation engine.
//!
//! Design notes (per the repo's networking guides): the workload is
//! CPU-bound — millions of cheap events, zero IO — so the engine is
//! synchronous and single-threaded by construction (an async runtime would
//! add overhead and nondeterminism for no benefit; campaign-level
//! parallelism shards *independent* simulations across threads instead).
//! There is no hidden global state: the clock lives in the engine, and all
//! randomness flows from named, seedable streams.
//!
//! * [`time`] — simulation clock ([`SimTime`], seconds as `f64` with total
//!   ordering).
//! * [`rng`] — deterministic PRNG ([`rng::Rng`], xoshiro256\*\* seeded via
//!   SplitMix64) with labelled sub-stream forking, plus the distribution
//!   samplers the channel models need (normal, exponential, Rician).
//! * [`queue`] — a stable event queue: ties in time break by insertion
//!   order, so identical runs replay identically.
//! * [`engine`] — the event loop: schedule, step, run-until.
//! * [`pool`] — the campaign-level sweep pool: an order-preserving
//!   work queue over scoped threads that shards independent tasks
//!   (pass predictions, site simulations) across every core.
//! * [`chaos`] — seeded fault injection: deterministic perturbation
//!   plans that mutate campaign inputs so a chaos test (in
//!   `satiot-bench`) can assert the pipeline degrades gracefully
//!   instead of panicking.
//!
//! ## Example
//!
//! ```
//! use satiot_sim::{engine::Engine, time::SimTime};
//!
//! #[derive(Debug)]
//! enum Ev { Ping(u32) }
//!
//! let mut engine = Engine::new();
//! engine.schedule_in(1.0, Ev::Ping(0));
//! let mut seen = Vec::new();
//! engine.run_until(SimTime::from_secs(10.0), |eng, _now, ev| {
//!     let Ev::Ping(n) = ev;
//!     seen.push(n);
//!     if n < 3 {
//!         eng.schedule_in(2.0, Ev::Ping(n + 1));
//!     }
//! });
//! assert_eq!(seen, vec![0, 1, 2, 3]);
//! assert_eq!(engine.now().as_secs(), 7.0);
//! ```

// Library code must surface failures as typed errors or counted
// degradation, not ad-hoc unwraps; CI promotes this to deny.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

pub mod chaos;
pub mod engine;
pub mod pool;
pub mod queue;
pub mod rng;
pub mod time;

pub use engine::Engine;
pub use queue::EventQueue;
pub use rng::Rng;
pub use time::SimTime;
