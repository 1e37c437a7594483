//! The I/OAT DMA copy engine.
//!
//! Intel I/O Acceleration Technology offloads receive-side memory copies
//! from the CPU to a chipset DMA engine. Open-MX uses it to copy incoming
//! packet data into the (pinned) application buffer without burning host
//! cycles (Fig. 6's "+ I/OAT" curves).
//!
//! Model: a single engine per node with a per-descriptor setup cost and a
//! copy bandwidth; descriptors execute in submission order (one channel).
//! [`IoatEngine::submit`] returns the completion time; the caller turns it
//! into an engine event. The CPU pays only the (small) submission cost —
//! that asymmetry is the whole point of the device.

use simcore::{Bandwidth, SimDuration, SimTime};

/// One node's I/OAT DMA engine.
pub struct IoatEngine {
    bandwidth: Bandwidth,
    setup: SimDuration,
    free_at: SimTime,
    copies: u64,
    bytes: u64,
}

impl IoatEngine {
    /// An engine with explicit copy bandwidth and per-descriptor setup time.
    pub fn new(bandwidth: Bandwidth, setup: SimDuration) -> Self {
        IoatEngine {
            bandwidth,
            setup,
            free_at: SimTime::ZERO,
            copies: 0,
            bytes: 0,
        }
    }

    /// The chipset of the paper's Xeon era: ~2 GB/s sustained copy rate,
    /// ~300 ns descriptor setup.
    pub fn default_chipset() -> Self {
        IoatEngine::new(
            Bandwidth::from_gb_per_sec(2.0),
            SimDuration::from_nanos(300),
        )
    }

    /// CPU-side cost of submitting a descriptor (what the bottom half pays
    /// instead of doing the copy itself).
    pub fn submit_cost(&self) -> SimDuration {
        self.setup
    }

    /// Queue a `bytes`-long copy at `now`; returns when the data will be
    /// in place. Descriptors are processed FIFO on one channel.
    pub fn submit(&mut self, now: SimTime, bytes: u64) -> SimTime {
        let start = now.max(self.free_at);
        let done = start + self.bandwidth.time_for_bytes(bytes);
        self.free_at = done;
        self.copies += 1;
        self.bytes += bytes;
        done
    }

    /// `(descriptors, bytes)` processed so far.
    pub fn totals(&self) -> (u64, u64) {
        (self.copies, self.bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copies_take_bandwidth_time() {
        let mut e = IoatEngine::new(
            Bandwidth::from_gb_per_sec(2.0),
            SimDuration::from_nanos(300),
        );
        let done = e.submit(SimTime::ZERO, 2_000_000);
        assert_eq!(done, SimTime::ZERO + SimDuration::from_millis(1));
    }

    #[test]
    fn descriptors_serialize() {
        let mut e = IoatEngine::default_chipset();
        let d1 = e.submit(SimTime::ZERO, 1_000_000);
        let d2 = e.submit(SimTime::ZERO, 1_000_000);
        assert_eq!(
            d2.duration_since(d1),
            Bandwidth::from_gb_per_sec(2.0).time_for_bytes(1_000_000)
        );
        assert_eq!(e.totals(), (2, 2_000_000));
    }

    #[test]
    fn engine_idles_between_bursts() {
        let mut e = IoatEngine::default_chipset();
        let d1 = e.submit(SimTime::ZERO, 1000);
        let later = d1 + SimDuration::from_millis(5);
        let d2 = e.submit(later, 1000);
        assert_eq!(d2.duration_since(later), e.bandwidth.time_for_bytes(1000));
    }
}
