//! Store-and-forward buffering.
//!
//! The paper (§3.1) observes that intermittent contact windows force a
//! store-and-forward paradigm at both ends of the DtS link: nodes buffer
//! sensor data while waiting for a pass; satellites buffer uplinks while
//! waiting for a ground station. This buffer records drop statistics so
//! the buffer-sizing ablation (A3, `ablation_buffer`) can quantify the
//! paper's sizing guidance.

use std::collections::VecDeque;

/// What to do when a full buffer receives another packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropPolicy {
    /// Drop the incoming packet (tail drop).
    DropNewest,
    /// Evict the oldest buffered packet to make room.
    DropOldest,
}

/// A bounded FIFO with drop accounting.
///
/// ```
/// use satiot_core::buffer::{DropPolicy, StoreAndForward};
///
/// let mut buf = StoreAndForward::new(2, DropPolicy::DropOldest);
/// buf.push("a");
/// buf.push("b");
/// assert_eq!(buf.push("c"), Some("a")); // Oldest evicted.
/// assert_eq!(buf.pop(), Some("b"));
/// assert_eq!(buf.dropped, 1);
/// ```
#[derive(Debug, Clone)]
pub struct StoreAndForward<T> {
    queue: VecDeque<T>,
    capacity: usize,
    policy: DropPolicy,
    /// Packets ever offered.
    pub offered: u64,
    /// Packets dropped due to overflow.
    pub dropped: u64,
    /// High-water mark of queue depth.
    pub peak_depth: usize,
}

impl<T> StoreAndForward<T> {
    /// A buffer holding at most `capacity` packets. A zero-capacity
    /// buffer is honoured, not clamped: it stores nothing and drops
    /// every offered packet (under either policy), so degraded configs
    /// show up in the drop accounting instead of silently gaining a
    /// slot.
    pub fn new(capacity: usize, policy: DropPolicy) -> Self {
        StoreAndForward {
            queue: VecDeque::with_capacity(capacity.min(1_024)),
            capacity,
            policy,
            offered: 0,
            dropped: 0,
            peak_depth: 0,
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Offer a packet; returns the evicted packet if one was dropped.
    pub fn push(&mut self, item: T) -> Option<T> {
        self.offered += 1;
        // Capacity 0 stores nothing under either policy: DropOldest has
        // no resident packet to evict, so the incoming packet itself is
        // the drop.
        if self.capacity == 0 {
            self.dropped += 1;
            return Some(item);
        }
        let evicted = if self.queue.len() >= self.capacity {
            self.dropped += 1;
            match self.policy {
                DropPolicy::DropNewest => return Some(item),
                DropPolicy::DropOldest => self.queue.pop_front(),
            }
        } else {
            None
        };
        self.queue.push_back(item);
        self.peak_depth = self.peak_depth.max(self.queue.len());
        evicted
    }

    /// Oldest packet, without removing it.
    pub fn front(&self) -> Option<&T> {
        self.queue.front()
    }

    /// Mutable access to the oldest packet (attempt bookkeeping).
    pub fn front_mut(&mut self) -> Option<&mut T> {
        self.queue.front_mut()
    }

    /// Mutable access to the newest packet.
    pub(crate) fn back_mut(&mut self) -> Option<&mut T> {
        self.queue.back_mut()
    }

    /// Remove and return the oldest packet.
    pub fn pop(&mut self) -> Option<T> {
        self.queue.pop_front()
    }

    /// Remove every packet `keep` rejects (packets that left the buffer
    /// out of order), preserving the order of the rest.
    pub(crate) fn retain(&mut self, keep: impl FnMut(&T) -> bool) {
        self.queue.retain(keep);
    }

    /// Current depth.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Drain every buffered packet (e.g. at a ground-station contact).
    pub fn drain_all(&mut self) -> Vec<T> {
        self.queue.drain(..).collect()
    }

    /// Fraction of offered packets that were dropped.
    pub fn drop_ratio(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.dropped as f64 / self.offered as f64
        }
    }

    /// Iterate over buffered packets, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.queue.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let mut b = StoreAndForward::new(10, DropPolicy::DropNewest);
        for i in 0..5 {
            assert!(b.push(i).is_none());
        }
        assert_eq!(b.front(), Some(&0));
        assert_eq!(b.pop(), Some(0));
        assert_eq!(b.pop(), Some(1));
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn drop_newest_rejects_incoming() {
        let mut b = StoreAndForward::new(2, DropPolicy::DropNewest);
        b.push('a');
        b.push('b');
        let evicted = b.push('c');
        assert_eq!(evicted, Some('c'));
        assert_eq!(b.drain_all(), vec!['a', 'b']);
        assert_eq!(b.dropped, 1);
        assert_eq!(b.offered, 3);
    }

    #[test]
    fn drop_oldest_evicts_head() {
        let mut b = StoreAndForward::new(2, DropPolicy::DropOldest);
        b.push('a');
        b.push('b');
        let evicted = b.push('c');
        assert_eq!(evicted, Some('a'));
        assert_eq!(b.drain_all(), vec!['b', 'c']);
    }

    #[test]
    fn stats_track_peak_and_ratio() {
        let mut b = StoreAndForward::new(3, DropPolicy::DropNewest);
        for i in 0..6 {
            b.push(i);
        }
        assert_eq!(b.peak_depth, 3);
        assert!((b.drop_ratio() - 0.5).abs() < 1e-12);
        b.pop();
        b.push(9);
        assert_eq!(b.peak_depth, 3);
    }

    #[test]
    fn zero_capacity_drops_everything_drop_newest() {
        let mut b = StoreAndForward::new(0, DropPolicy::DropNewest);
        assert_eq!(b.capacity(), 0);
        assert_eq!(b.push(1), Some(1));
        assert_eq!(b.push(2), Some(2));
        assert!(b.is_empty());
        assert_eq!(b.pop(), None);
        assert_eq!(b.offered, 2);
        assert_eq!(b.dropped, 2);
        assert_eq!(b.peak_depth, 0);
        assert_eq!(b.drop_ratio(), 1.0);
    }

    #[test]
    fn zero_capacity_drops_everything_drop_oldest() {
        // With nothing resident to evict, DropOldest must still bounce
        // the incoming packet rather than exceed capacity.
        let mut b = StoreAndForward::new(0, DropPolicy::DropOldest);
        assert_eq!(b.push('x'), Some('x'));
        assert_eq!(b.push('y'), Some('y'));
        assert!(b.is_empty());
        assert!(b.drain_all().is_empty());
        assert_eq!(b.offered, 2);
        assert_eq!(b.dropped, 2);
        assert_eq!(b.peak_depth, 0);
    }

    #[test]
    fn interleaved_push_pop_accounting() {
        // peak_depth tracks the high-water mark, not the final depth,
        // and offered/dropped stay consistent under interleaving.
        let mut b = StoreAndForward::new(2, DropPolicy::DropOldest);
        b.push(1);
        b.push(2);
        assert_eq!(b.peak_depth, 2);
        assert_eq!(b.pop(), Some(1));
        b.push(3);
        assert_eq!(b.peak_depth, 2);
        assert_eq!(b.push(4), Some(2)); // Evicts the oldest resident.
        assert_eq!(b.offered, 4);
        assert_eq!(b.dropped, 1);
        assert_eq!(b.pop(), Some(3));
        assert_eq!(b.pop(), Some(4));
        assert_eq!(b.pop(), None);
        assert_eq!(b.peak_depth, 2);
        assert!((b.drop_ratio() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_drop_ratio_is_zero() {
        let b: StoreAndForward<u8> = StoreAndForward::new(4, DropPolicy::DropNewest);
        assert_eq!(b.drop_ratio(), 0.0);
        assert!(b.is_empty());
    }

    #[test]
    fn iter_is_oldest_first() {
        let mut b = StoreAndForward::new(5, DropPolicy::DropNewest);
        for i in [3, 1, 4] {
            b.push(i);
        }
        let seen: Vec<i32> = b.iter().copied().collect();
        assert_eq!(seen, vec![3, 1, 4]);
    }
}
