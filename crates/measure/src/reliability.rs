//! Sequence-ID based end-to-end reliability analysis.
//!
//! The paper (Appendix B) gives every application packet a unique
//! sequence ID and compares the set sent by the nodes against the set
//! received at the server. The campaigns keep that comparison in one
//! packet ledger, a [`PacketTimeline`] per sequence ID: a packet was
//! received exactly when its entry has a delivery time. This module
//! counts over the ledger.

use crate::latency::PacketTimeline;
use std::collections::BTreeMap;

/// End-to-end delivery analysis.
#[derive(Debug, Clone)]
pub struct Reliability {
    /// Packets sent.
    pub sent: usize,
    /// Packets delivered.
    pub delivered: usize,
}

impl Reliability {
    /// Count the ledger's packets and the delivered ones among them.
    pub fn compute(ledger: &[PacketTimeline]) -> Reliability {
        Reliability {
            sent: ledger.len(),
            delivered: ledger.iter().filter(|p| p.delivered_s.is_some()).count(),
        }
    }

    /// Delivery ratio ∈ [0, 1] (1.0 for an empty campaign).
    pub fn ratio(&self) -> f64 {
        if self.sent == 0 {
            1.0
        } else {
            self.delivered as f64 / self.sent as f64
        }
    }
}

/// Delivery ratio computed per time window of `window_s` seconds (keyed
/// by the packets' send times) — the paper's Figure 12a presents its
/// payload sweep as the distribution of such windowed reliabilities
/// ("75 % of transmissions reach 90 % end-to-end reliability").
pub fn reliability_per_window(ledger: &[PacketTimeline], window_s: f64) -> Vec<f64> {
    if window_s <= 0.0 {
        return Vec::new();
    }
    let mut windows: BTreeMap<i64, (usize, usize)> = BTreeMap::new();
    for p in ledger {
        let k = (p.generated_s / window_s).floor() as i64;
        let e = windows.entry(k).or_insert((0, 0));
        e.0 += 1;
        if p.delivered_s.is_some() {
            e.1 += 1;
        }
    }
    windows
        .values()
        .map(|(sent, ok)| *ok as f64 / (*sent).max(1) as f64)
        .collect()
}

/// Share of windows achieving at least `target` reliability.
pub fn share_of_windows_above(windowed: &[f64], target: f64) -> f64 {
    if windowed.is_empty() {
        return 0.0;
    }
    windowed.iter().filter(|r| **r >= target).count() as f64 / windowed.len() as f64
}

/// Distribution of DtS attempts (the paper's Figure 5b series): fraction
/// of packets using exactly `k` transmissions, for `k = 1 ..= max`.
pub fn attempts_distribution(ledger: &[PacketTimeline], max_attempts: u32) -> Vec<f64> {
    let mut counts = vec![0usize; max_attempts as usize];
    for p in ledger {
        let k = p.attempts.clamp(1, max_attempts) as usize;
        counts[k - 1] += 1;
    }
    let total = ledger.len().max(1) as f64;
    counts.iter().map(|&c| c as f64 / total).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Packet `seq`, sent at `10 * seq` s, delivered or not.
    fn pkt(seq: u64, attempts: u32, delivered: bool) -> PacketTimeline {
        let sent_s = seq as f64 * 10.0;
        PacketTimeline {
            node: 0,
            attempts,
            generated_s: sent_s,
            first_tx_s: Some(sent_s + 1.0),
            sat_rx_s: Some(sent_s + 2.0),
            delivered_s: delivered.then_some(sent_s + 3.0),
        }
    }

    #[test]
    fn basic_ratio() {
        let ledger: Vec<PacketTimeline> = (0..10).map(|i| pkt(i, 1, i < 9)).collect();
        let r = Reliability::compute(&ledger);
        assert_eq!(r.sent, 10);
        assert_eq!(r.delivered, 9);
        assert!((r.ratio() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn empty_campaign_is_perfect() {
        let r = Reliability::compute(&[]);
        assert_eq!(r.ratio(), 1.0);
    }

    #[test]
    fn attempts_distribution_normalises() {
        let ledger = vec![
            pkt(1, 1, true),
            pkt(2, 1, true),
            pkt(3, 3, true),
            pkt(4, 6, true), // Clamped into the last bucket.
            pkt(5, 9, true), // Clamped too.
        ];
        let dist = attempts_distribution(&ledger, 6);
        assert_eq!(dist.len(), 6);
        assert!((dist.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((dist[0] - 0.4).abs() < 1e-12);
        assert!((dist[2] - 0.2).abs() < 1e-12);
        assert!((dist[5] - 0.4).abs() < 1e-12);
    }

    #[test]
    fn windowed_reliability_buckets_by_time() {
        // Packets 0–3 in window 0 (all delivered), 4–7 in window 1 (half).
        let ledger: Vec<PacketTimeline> = (0..8).map(|i| pkt(i, 1, i < 6)).collect();
        let w = reliability_per_window(&ledger, 40.0);
        assert_eq!(w.len(), 2);
        assert!((w[0] - 1.0).abs() < 1e-12);
        assert!((w[1] - 0.5).abs() < 1e-12);
        assert!((share_of_windows_above(&w, 0.9) - 0.5).abs() < 1e-12);
        assert!((share_of_windows_above(&w, 0.4) - 1.0).abs() < 1e-12);
        assert!(reliability_per_window(&ledger, 0.0).is_empty());
        assert_eq!(share_of_windows_above(&[], 0.9), 0.0);
    }

    #[test]
    fn attempts_distribution_empty() {
        let dist = attempts_distribution(&[], 6);
        assert_eq!(dist.iter().sum::<f64>(), 0.0);
    }
}
