//! The satellite payload: uplink acceptance, store-and-forward, and
//! delivery scheduling against its ground-station contact plan.

use crate::buffer::{DropPolicy, StoreAndForward};
use crate::calib;
use std::collections::HashSet;

/// A packet held on orbit awaiting a ground-station contact.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrbitPacket {
    /// Originating node.
    pub node_id: u32,
    /// Application sequence ID.
    pub seq: u64,
    /// Time the satellite accepted the uplink, s.
    pub accepted_s: f64,
}

/// Satellite payload state.
#[derive(Debug)]
pub struct SatellitePayload {
    /// Satellite identifier.
    pub sat_id: u32,
    /// On-board packet store.
    pub buffer: StoreAndForward<OrbitPacket>,
    /// Sequences already accepted (duplicate uplinks — retransmissions
    /// whose ACK was lost — are re-ACKed but not re-stored).
    seen: HashSet<u64>,
    /// Ground-station contact intervals `(start_s, end_s)`, sorted,
    /// non-overlapping (merged across the operator's 12 stations).
    gs_contacts: Vec<(f64, f64)>,
    /// Duplicate uplinks received (ACK-loss indicator).
    pub duplicates: u64,
    /// Time at which the downlink transmitter is next free, s.
    downlink_free_s: f64,
}

impl SatellitePayload {
    /// A payload with the given merged ground-station contact plan.
    pub fn new(sat_id: u32, gs_contacts: Vec<(f64, f64)>) -> SatellitePayload {
        debug_assert!(
            gs_contacts.windows(2).all(|w| w[0].1 <= w[1].0),
            "contacts must be sorted and non-overlapping"
        );
        SatellitePayload {
            sat_id,
            buffer: StoreAndForward::new(calib::SATELLITE_BUFFER_CAPACITY, DropPolicy::DropNewest),
            seen: HashSet::new(),
            gs_contacts,
            duplicates: 0,
            downlink_free_s: 0.0,
        }
    }

    /// Accept an uplink at `t`. Returns `true` if this sequence is new
    /// (stored), `false` for a duplicate (re-ACK only). A full buffer
    /// rejects new packets entirely (no ACK — congestion loss).
    pub fn accept_uplink(&mut self, node_id: u32, seq: u64, t: f64) -> Option<bool> {
        if self.seen.contains(&seq) {
            self.duplicates += 1;
            return Some(false);
        }
        let pkt = OrbitPacket {
            node_id,
            seq,
            accepted_s: t,
        };
        if self.buffer.push(pkt).is_some() {
            // Tail-dropped: satellite resource exhaustion.
            return None;
        }
        self.seen.insert(seq);
        Some(true)
    }

    /// Earliest time ≥ `t` at which the satellite is in contact with a
    /// ground station (start of downlink opportunity), or `None` if no
    /// contact remains in the plan.
    pub fn next_contact_s(&self, t: f64) -> Option<f64> {
        let idx = self.gs_contacts.partition_point(|&(_, end)| end < t);
        self.gs_contacts.get(idx).map(|&(start, _)| start.max(t))
    }

    /// Schedule one packet through the shared downlink: the packet becomes
    /// ready at `t`, waits for a ground-station contact AND for the
    /// downlink to be free, then occupies it for `service_s` seconds of
    /// *contact* time (service suspends between contacts). Returns the
    /// downlink completion time, or `None` if the contact plan runs out.
    ///
    /// This models the L2D2-style contact-capacity constraint: a
    /// satellite's buffered backlog drains at a finite rate only while a
    /// station is in view, so congested satellites deliver late — the
    /// mechanism behind ablation A5 (`ablation_downlink`).
    pub fn schedule_downlink(&mut self, t: f64, service_s: f64) -> Option<f64> {
        let start = self.next_contact_s(t.max(self.downlink_free_s))?;
        let finish = self.advance_through_contacts(start, service_s)?;
        self.downlink_free_s = finish;
        Some(finish)
    }

    /// Advance `service_s` seconds of contact time starting at `from`
    /// (which must lie inside or before a contact).
    fn advance_through_contacts(&self, from: f64, mut service_s: f64) -> Option<f64> {
        let mut idx = self.gs_contacts.partition_point(|&(_, end)| end < from);
        let mut cursor = from;
        while let Some(&(start, end)) = self.gs_contacts.get(idx) {
            let begin = cursor.max(start);
            let available = end - begin;
            if available >= service_s {
                return Some(begin + service_s);
            }
            service_s -= available.max(0.0);
            idx += 1;
            cursor = self.gs_contacts.get(idx).map(|&(s, _)| s)?;
        }
        None
    }

    /// The delivery base time for a packet accepted at `t`: immediately
    /// if inside a contact, else the next contact start.
    pub fn delivery_base_s(&self, t: f64) -> Option<f64> {
        self.next_contact_s(t)
    }

    /// Fraction of the plan's horizon spent in ground-station contact.
    pub fn contact_fraction(&self, horizon_s: f64) -> f64 {
        if horizon_s <= 0.0 {
            return 0.0;
        }
        let covered: f64 = self
            .gs_contacts
            .iter()
            .map(|&(s, e)| (e.min(horizon_s) - s.max(0.0)).max(0.0))
            .sum();
        covered / horizon_s
    }
}

/// Merge per-station contact interval lists into one sorted,
/// non-overlapping plan.
pub fn merge_contacts(mut intervals: Vec<(f64, f64)>) -> Vec<(f64, f64)> {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut merged: Vec<(f64, f64)> = Vec::with_capacity(intervals.len());
    for (s, e) in intervals {
        match merged.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => merged.push((s, e)),
        }
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload() -> SatellitePayload {
        SatellitePayload::new(0, vec![(100.0, 200.0), (1_000.0, 1_100.0)])
    }

    #[test]
    fn accepts_new_and_flags_duplicates() {
        let mut sat = payload();
        assert_eq!(sat.accept_uplink(1, 42, 50.0), Some(true));
        assert_eq!(sat.accept_uplink(1, 42, 60.0), Some(false));
        assert_eq!(sat.duplicates, 1);
        assert_eq!(sat.buffer.len(), 1);
    }

    #[test]
    fn next_contact_lookup() {
        let sat = payload();
        assert_eq!(sat.next_contact_s(0.0), Some(100.0));
        assert_eq!(sat.next_contact_s(150.0), Some(150.0)); // Inside a contact.
        assert_eq!(sat.next_contact_s(200.0), Some(200.0)); // At the boundary.
        assert_eq!(sat.next_contact_s(201.0), Some(1_000.0));
        assert_eq!(sat.next_contact_s(2_000.0), None);
    }

    #[test]
    fn delivery_base_is_contact_gated() {
        let sat = payload();
        assert_eq!(sat.delivery_base_s(50.0), Some(100.0));
        assert_eq!(sat.delivery_base_s(120.0), Some(120.0));
    }

    #[test]
    fn full_buffer_rejects() {
        let mut sat = SatellitePayload::new(0, vec![]);
        sat.buffer = StoreAndForward::new(2, DropPolicy::DropNewest);
        assert_eq!(sat.accept_uplink(0, 1, 0.0), Some(true));
        assert_eq!(sat.accept_uplink(0, 2, 1.0), Some(true));
        assert_eq!(sat.accept_uplink(0, 3, 2.0), None);
        // The rejected sequence can be accepted later once space frees.
        sat.buffer.pop();
        assert_eq!(sat.accept_uplink(0, 3, 3.0), Some(true));
    }

    #[test]
    fn contact_fraction() {
        let sat = payload();
        // 100 + 100 s of contact in a 2 000 s horizon.
        assert!((sat.contact_fraction(2_000.0) - 0.1).abs() < 1e-12);
        assert_eq!(sat.contact_fraction(0.0), 0.0);
    }

    #[test]
    fn downlink_services_within_one_contact() {
        let mut sat = payload();
        // Ready at t=0, contact opens at 100: 10 s of service → done 110.
        assert_eq!(sat.schedule_downlink(0.0, 10.0), Some(110.0));
        // Next packet queues behind: 110 → 120.
        assert_eq!(sat.schedule_downlink(0.0, 10.0), Some(120.0));
        // A packet ready mid-contact starts immediately after the queue.
        assert_eq!(sat.schedule_downlink(115.0, 5.0), Some(125.0));
    }

    #[test]
    fn downlink_spills_into_the_next_contact() {
        let mut sat = payload();
        // 150 s of service, but the first contact only offers 100 s:
        // 100 s drain in [100, 200], the remaining 50 s in [1000, 1050].
        assert_eq!(sat.schedule_downlink(0.0, 150.0), Some(1_050.0));
        // The queue carried over: next packet starts at 1 050.
        assert_eq!(sat.schedule_downlink(0.0, 25.0), Some(1_075.0));
    }

    #[test]
    fn downlink_exhausts_the_plan() {
        let mut sat = payload();
        // More service time than all remaining contacts offer.
        assert_eq!(sat.schedule_downlink(0.0, 1_000.0), None);
        // Ready after every contact has passed.
        let mut sat = payload();
        assert_eq!(sat.schedule_downlink(5_000.0, 1.0), None);
    }

    #[test]
    fn zero_service_completes_at_contact_start() {
        let mut sat = payload();
        assert_eq!(sat.schedule_downlink(0.0, 0.0), Some(100.0));
    }

    #[test]
    fn merge_contacts_unions_overlaps() {
        let merged = merge_contacts(vec![
            (100.0, 200.0),
            (150.0, 250.0),
            (400.0, 500.0),
            (90.0, 120.0),
        ]);
        assert_eq!(merged, vec![(90.0, 250.0), (400.0, 500.0)]);
        assert!(merge_contacts(vec![]).is_empty());
    }
}
