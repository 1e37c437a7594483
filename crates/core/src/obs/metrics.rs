//! The always-on metrics registry: the engine's per-node counters,
//! latency histograms and the totals derived from them.
//!
//! Each fact has one store. The derived totals here are sums over named
//! counters, never a second tally:
//!
//! | Fact | Store |
//! |------|-------|
//! | Engine events (frames, drops, retransmissions, duplicates, pin calls, aborts, …) | per-node [`Counters`] in [`Metrics`] |
//! | Pressure unpins, MMU-notifier events, region unpins, deferrals, cancellations, drain batches | [`DriverStats`](crate::obs::DriverStats), per node ([`Driver::stats`](crate::Driver::stats)) |
//! | Region-cache hits and misses | [`CacheStats`](crate::obs::CacheStats), per process |
//! | Frames sent, delivered, lost, duplicated, reordered | [`simnet::NetStats`] (the engine's `net_frames_*` counters still mirror its drops and faults) |
//! | Pin latency, rendezvous round trip, overlap window, pin burst size, applied RTO | histograms in [`Metrics`] |
//! | Trace records evicted from the ring | [`Tracer::dropped`](crate::obs::Tracer::dropped) |

use simcore::{Counters, FixedHistogram, OnlineStats, SimDuration};

/// Per-kind counters summed by [`Metrics::retransmits`].
const RETRANSMIT_COUNTERS: [&str; 5] = [
    "rndv_retrans",
    "eager_retrans",
    "pull_stall_timeouts",
    "notify_retrans",
    "pull_rereq_optimistic",
];

/// Per-kind counters summed by [`Metrics::dup_frames_rx`].
const DUP_FRAME_COUNTERS: [&str; 6] = [
    "eager_dup_frags",
    "notify_dup",
    "rndv_dup",
    "pull_reply_stale",
    "dup_frames_rx",
    "eager_ack_dup",
];

/// Per-kind counters summed by [`Metrics::faults_injected`].
const FAULT_COUNTERS: [&str; 4] = [
    "net_frames_reordered",
    "net_frames_duplicated",
    "net_frames_burst_lost",
    "net_frames_link_down",
];

/// Cluster-wide metrics, recorded whether or not tracing is on (every
/// record is one counter or histogram increment).
///
/// * **Counters** — the engine's named event counters, one set per node.
/// * **Pin latency** — pin-start to pin-complete of one pin plan burst:
///   how long the driver took to walk the cursor to its target.
/// * **Rendezvous round trip** — rendezvous transmission to the matching
///   notify: the full large-message transaction as the sender sees it.
/// * **Overlap window** — rendezvous transmission to the first pull
///   request: the round trip the paper hides pinning behind (§3.3).
/// * **Overlap-miss rate** — dropped-for-unpinned frames over all pull
///   reply frames: how often the transfer outran the pin cursor.
#[derive(Clone, Debug)]
pub struct Metrics {
    /// Pin-start → pin-complete, per pin plan burst.
    pub pin_latency: FixedHistogram,
    /// Rendezvous → notify, per large-message send.
    pub rndv_rtt: FixedHistogram,
    /// Rendezvous → first pull request, per large-message send.
    pub overlap_window: FixedHistogram,
    /// Pages covered per completed pin burst.
    pub pin_burst_pages: OnlineStats,
    /// Adaptive retransmission timeouts applied at timer arms.
    pub rto_applied: FixedHistogram,
    /// Pull-reply frames accepted (pinned landing pages).
    pull_frames_ok: u64,
    /// The engine's named counters, indexed by node.
    nodes: Vec<Counters>,
}

impl Default for Metrics {
    /// A registry with no nodes: the identity for [`Metrics::merge`].
    fn default() -> Self {
        Metrics::new(0)
    }
}

impl Metrics {
    /// Fresh registry for `nodes` hosts, with bucket geometries sized for
    /// the paper's platforms (10 µs pin buckets, 100 µs round-trip
    /// buckets, 1 µs overlap-window buckets; out-of-range values are
    /// still counted and report exact maxima).
    pub fn new(nodes: usize) -> Self {
        Metrics {
            pin_latency: FixedHistogram::new(SimDuration::from_millis(100), 10_000),
            rndv_rtt: FixedHistogram::new(SimDuration::from_secs(1), 10_000),
            overlap_window: FixedHistogram::new(SimDuration::from_millis(10), 10_000),
            pin_burst_pages: OnlineStats::new(),
            rto_applied: FixedHistogram::new(SimDuration::from_millis(10), 10_000),
            pull_frames_ok: 0,
            nodes: vec![Counters::new(); nodes],
        }
    }

    /// Add `n` to counter `name` of `node`.
    pub(crate) fn add(&mut self, node: usize, name: &'static str, n: u64) {
        self.nodes[node].add(name, n);
    }

    /// Increment counter `name` of `node` by one.
    pub(crate) fn bump(&mut self, node: usize, name: &'static str) {
        self.nodes[node].bump(name);
    }

    /// Count one accepted pull frame.
    pub fn record_pull_frame_ok(&mut self) {
        self.pull_frames_ok += 1;
    }

    /// The counters of one node.
    pub fn node(&self, node: usize) -> &Counters {
        &self.nodes[node]
    }

    /// Every node's counters merged: the cluster totals.
    pub fn counters(&self) -> Counters {
        let mut all = Counters::new();
        for n in &self.nodes {
            all.merge(n);
        }
        all
    }

    /// Cluster total of the counters in `names`.
    fn total(&self, names: &[&str]) -> u64 {
        self.nodes
            .iter()
            .flat_map(|n| names.iter().map(|name| n.get(name)))
            .sum()
    }

    /// Retransmissions and re-requests fired so far, over every
    /// machinery: rendezvous, eager, pull stall, notify and optimistic
    /// re-request.
    pub fn retransmits(&self) -> u64 {
        self.total(&RETRANSMIT_COUNTERS)
    }

    /// Duplicate frames discarded so far, of every kind: eager fragments
    /// and acks, rendezvous, notifies and pull replies, plus pull replies
    /// that arrived after their transfer finished. The counter named
    /// `dup_frames_rx` is one term of this sum: duplicate pull-reply
    /// frames of a live transfer only.
    pub fn dup_frames_rx(&self) -> u64 {
        self.total(&DUP_FRAME_COUNTERS)
    }

    /// Faults the fabric injected on purpose so far: reordering,
    /// duplication, burst loss and link death (i.i.d. loss and queue
    /// overflow are not injected faults).
    pub fn faults_injected(&self) -> u64 {
        self.total(&FAULT_COUNTERS)
    }

    /// Pull-reply frames dropped because their landing pages were
    /// unpinned (§3.3).
    pub fn overlap_misses(&self) -> u64 {
        self.total(&["frames_dropped_unpinned"])
    }

    /// Dropped frames over all pull frames seen; 0 when no pull traffic.
    pub fn overlap_miss_rate(&self) -> f64 {
        let misses = self.overlap_misses();
        let total = misses + self.pull_frames_ok;
        if total == 0 {
            0.0
        } else {
            misses as f64 / total as f64
        }
    }

    /// Merge another registry (parallel-sweep reduction); node `i` of
    /// `other` adds into node `i` here.
    pub fn merge(&mut self, other: &Metrics) {
        self.pin_latency.merge(&other.pin_latency);
        self.rndv_rtt.merge(&other.rndv_rtt);
        self.overlap_window.merge(&other.overlap_window);
        self.pin_burst_pages.merge(&other.pin_burst_pages);
        self.rto_applied.merge(&other.rto_applied);
        self.pull_frames_ok += other.pull_frames_ok;
        if self.nodes.len() < other.nodes.len() {
            self.nodes.resize(other.nodes.len(), Counters::new());
        }
        for (mine, theirs) in self.nodes.iter_mut().zip(&other.nodes) {
            mine.merge(theirs);
        }
    }

    /// One-line pin-latency summary for the bench harness:
    /// `p50/p95/p99 µs over n bursts`.
    pub fn pin_latency_summary(&self) -> String {
        if self.pin_latency.count() == 0 {
            return "no pin bursts".to_string();
        }
        format!(
            "pin p50 {:.1} us, p95 {:.1} us, p99 {:.1} us ({} bursts)",
            self.pin_latency.quantile(0.50).as_micros_f64(),
            self.pin_latency.quantile(0.95).as_micros_f64(),
            self.pin_latency.quantile(0.99).as_micros_f64(),
            self.pin_latency.count(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_rate_arithmetic() {
        let mut m = Metrics::new(2);
        assert_eq!(m.overlap_miss_rate(), 0.0);
        m.add(0, "frames_dropped_unpinned", 2);
        m.bump(1, "frames_dropped_unpinned");
        for _ in 0..7 {
            m.record_pull_frame_ok();
        }
        assert_eq!(m.overlap_misses(), 3);
        assert!((m.overlap_miss_rate() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn totals_sum_their_counters_over_nodes() {
        let mut m = Metrics::new(2);
        m.bump(0, "rndv_retrans");
        m.bump(1, "pull_rereq_optimistic");
        m.bump(1, "frames_rx");
        m.add(0, "pull_reply_stale", 2);
        m.bump(1, "dup_frames_rx");
        m.bump(0, "net_frames_link_down");
        m.bump(0, "net_frames_lost");
        assert_eq!(m.retransmits(), 2);
        assert_eq!(m.dup_frames_rx(), 3);
        assert_eq!(m.faults_injected(), 1);
        assert_eq!(m.node(1).get("frames_rx"), 1);
        assert_eq!(m.counters().get("pull_reply_stale"), 2);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = Metrics::default();
        let mut b = Metrics::new(2);
        a.pin_latency.record(SimDuration::from_micros(100));
        b.pin_latency.record(SimDuration::from_micros(300));
        b.bump(1, "frames_dropped_unpinned");
        a.merge(&b);
        a.merge(&b);
        assert_eq!(a.pin_latency.count(), 3);
        assert_eq!(a.overlap_misses(), 2);
        assert_eq!(a.node(1).get("frames_dropped_unpinned"), 2);
        assert!(a.pin_latency_summary().contains("3 bursts"));
    }
}
