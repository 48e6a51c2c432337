//! The event loop: a clock plus an event queue.

use crate::queue::EventQueue;
use crate::time::SimTime;
use satiot_obs::metrics::{Counter, Gauge};

/// Events processed by [`Engine::run_until`] across every engine
/// instance, published once per call (metrics).
static EVENTS_PROCESSED: Counter = Counter::new("sim.engine.events_processed");
/// Peak queue depth after a step of the latest [`Engine::run_until`];
/// `.high_water` tracks the peak over all calls (metrics).
static QUEUE_DEPTH: Gauge = Gauge::new("sim.engine.queue_depth");

/// A discrete-event engine over event type `E`.
///
/// The engine owns the clock; handlers receive `&mut Engine` so they can
/// schedule follow-up events, exactly like a smoltcp-style poll loop where
/// all state transitions happen inside the handler.
pub struct Engine<E> {
    queue: EventQueue<E>,
    now: SimTime,
    processed: u64,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// A fresh engine at `SimTime::ZERO`.
    pub fn new() -> Self {
        Engine {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            processed: 0,
        }
    }

    /// Current simulation time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Schedule `event` at absolute time `at`. Scheduling in the past is a
    /// logic error and panics in debug builds; in release the event fires
    /// immediately (at the current time) to keep the clock monotonic.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        debug_assert!(
            at >= self.now,
            "scheduled event in the past: {} < {}",
            at.as_secs(),
            self.now.as_secs()
        );
        let at = if at < self.now { self.now } else { at };
        self.queue.push(at, event);
    }

    /// Schedule `event` after `delay_secs` seconds.
    pub fn schedule_in(&mut self, delay_secs: f64, event: E) {
        let at = self.now + delay_secs.max(0.0);
        self.queue.push(at, event);
    }

    /// Pop and return the next event, advancing the clock to it.
    pub fn step(&mut self) -> Option<(SimTime, E)> {
        let (t, e) = self.queue.pop()?;
        self.now = t;
        self.processed += 1;
        Some((t, e))
    }

    /// Run until the queue drains or the next event would be after `end`.
    ///
    /// Events at exactly `end` are processed. On return, `now` is the time
    /// of the last processed event (or unchanged if none fired); events
    /// after `end` remain queued.
    pub fn run_until<F>(&mut self, end: SimTime, mut handler: F)
    where
        F: FnMut(&mut Engine<E>, SimTime, E),
    {
        let processed = self.processed;
        let mut depth = 0;
        while let Some(t) = self.queue.peek_time() {
            if t > end {
                break;
            }
            // Unwrap is safe: peek just saw an event, and only we pop.
            let (now, event) = self.step().expect("queue changed under us");
            depth = depth.max(self.queue.len());
            handler(self, now, event);
        }
        EVENTS_PROCESSED.add(self.processed - processed);
        QUEUE_DEPTH.set(depth as i64);
    }

    /// Run until the queue is exhausted.
    pub fn run_to_exhaustion<F>(&mut self, handler: F)
    where
        F: FnMut(&mut Engine<E>, SimTime, E),
    {
        self.run_until(SimTime::FAR_FUTURE, handler);
    }

    /// Drop all pending events (e.g. when tearing down a scenario early).
    pub fn clear(&mut self) {
        self.queue.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    enum Ev {
        Tick(u32),
        Stop,
    }

    #[test]
    fn clock_advances_with_events() {
        let mut eng: Engine<Ev> = Engine::new();
        eng.schedule_at(SimTime::from_secs(5.0), Ev::Tick(1));
        eng.schedule_at(SimTime::from_secs(2.0), Ev::Tick(0));
        let (t, e) = eng.step().unwrap();
        assert_eq!(t.as_secs(), 2.0);
        assert_eq!(e, Ev::Tick(0));
        assert_eq!(eng.now().as_secs(), 2.0);
        eng.step().unwrap();
        assert_eq!(eng.now().as_secs(), 5.0);
        assert_eq!(eng.events_processed(), 2);
    }

    #[test]
    fn run_until_respects_horizon() {
        let mut eng: Engine<Ev> = Engine::new();
        for i in 0..10 {
            eng.schedule_at(SimTime::from_secs(i as f64), Ev::Tick(i));
        }
        let mut seen = Vec::new();
        eng.run_until(SimTime::from_secs(4.0), |_, _, e| {
            if let Ev::Tick(i) = e {
                seen.push(i);
            }
        });
        // Events at t = 0..=4 fire (inclusive horizon); 5..=9 stay queued.
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
        assert_eq!(eng.pending(), 5);
    }

    #[test]
    fn handler_can_schedule_followups() {
        let mut eng: Engine<Ev> = Engine::new();
        eng.schedule_in(1.0, Ev::Tick(0));
        let mut count = 0;
        eng.run_to_exhaustion(|eng, _, e| {
            if let Ev::Tick(n) = e {
                count += 1;
                if n < 4 {
                    eng.schedule_in(1.0, Ev::Tick(n + 1));
                } else {
                    eng.schedule_in(0.5, Ev::Stop);
                }
            }
        });
        assert_eq!(count, 5);
        assert_eq!(eng.now().as_secs(), 5.5);
    }

    #[test]
    fn schedule_in_is_relative_to_now() {
        let mut eng: Engine<Ev> = Engine::new();
        eng.schedule_at(SimTime::from_secs(10.0), Ev::Tick(0));
        eng.step().unwrap();
        eng.schedule_in(2.5, Ev::Tick(1));
        let (t, _) = eng.step().unwrap();
        assert_eq!(t.as_secs(), 12.5);
    }

    #[test]
    fn simultaneous_events_fire_in_schedule_order() {
        let mut eng: Engine<u32> = Engine::new();
        for i in 0..50 {
            eng.schedule_at(SimTime::from_secs(1.0), i);
        }
        let mut seen = Vec::new();
        eng.run_to_exhaustion(|_, _, e| seen.push(e));
        assert_eq!(seen, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn clear_drops_pending() {
        let mut eng: Engine<u32> = Engine::new();
        eng.schedule_in(1.0, 1);
        eng.schedule_in(2.0, 2);
        eng.clear();
        assert!(eng.step().is_none());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "scheduled event in the past")]
    fn past_scheduling_panics_in_debug() {
        let mut eng: Engine<u32> = Engine::new();
        eng.schedule_at(SimTime::from_secs(10.0), 1);
        eng.step().unwrap();
        eng.schedule_at(SimTime::from_secs(5.0), 2);
    }
}
