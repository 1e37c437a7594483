//! The IMB PingPong throughput runner behind Figures 6 and 7.

use openmx_core::{CpuProfile, OpenMxConfig, PinningMode};
use openmx_mpi::{imb_job, run_job, summarize, ImbKernel};
use simcore::Bandwidth;

/// One measured point of a pingpong curve.
#[derive(Clone, Copy, Debug)]
pub struct PingPongPoint {
    /// Message size in bytes.
    pub msg: u64,
    /// Throughput in MiB/s, IMB-style (message bytes / half round trip).
    pub mib_per_sec: f64,
    /// Overlap misses observed during the run (both sides).
    pub overlap_misses: u64,
    /// Pin-latency percentiles over the run's pin bursts, in µs
    /// (0 when the mode never pinned, e.g. permanent after warmup).
    pub pin_p50_us: f64,
    /// 95th percentile pin latency, µs.
    pub pin_p95_us: f64,
    /// 99th percentile pin latency, µs.
    pub pin_p99_us: f64,
    /// Pin bursts the percentiles are over.
    pub pin_bursts: u64,
}

/// Run an IMB PingPong at one message size and return its throughput.
pub fn pingpong_throughput(cfg: &OpenMxConfig, msg: u64) -> PingPongPoint {
    // Iteration counts shrink with size, as IMB does.
    let iters = (64u32).min(((256u64 << 20) / msg.max(1)) as u32).max(4);
    let warmup = 2;
    let (scripts, mark) = imb_job(ImbKernel::PingPong, 2, msg, warmup, iters);
    let (cl, records) = run_job(cfg, 2, 1, scripts);
    let res = summarize(&records, mark, iters);
    // IMB PingPong reports t = half the round trip; throughput = msg / t.
    let half = res.avg_iter / 2;
    let bw = Bandwidth::measured(msg, half);
    let c = cl.counters();
    let m = cl.metrics();
    let pin = &m.pin_latency;
    let q = |p: f64| {
        if pin.count() == 0 {
            0.0
        } else {
            pin.quantile(p).as_micros_f64()
        }
    };
    PingPongPoint {
        msg,
        mib_per_sec: bw.as_mib_per_sec(),
        overlap_misses: m.overlap_misses() + c.get("overlap_miss_tx"),
        pin_p50_us: q(0.50),
        pin_p95_us: q(0.95),
        pin_p99_us: q(0.99),
        pin_bursts: pin.count(),
    }
}

/// The message-size axis of Figs. 6–7: 64 kB to 16 MB, doubling.
pub fn figure_sizes() -> Vec<u64> {
    (0..9).map(|i| (64 * 1024) << i).collect()
}

/// Convenience: the paper's platform config with a mode and I/OAT flag.
pub fn paper_cfg(mode: PinningMode, ioat: bool) -> OpenMxConfig {
    let mut cfg = OpenMxConfig::with_mode(mode);
    cfg.use_ioat = ioat;
    cfg.profile = CpuProfile::xeon_e5460();
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_axis_matches_figures() {
        let s = figure_sizes();
        assert_eq!(s.first(), Some(&(64 * 1024)));
        assert_eq!(s.last(), Some(&(16 << 20)));
        assert_eq!(s.len(), 9);
    }

    #[test]
    fn throughput_is_sane_at_one_megabyte() {
        let p = pingpong_throughput(&paper_cfg(PinningMode::Permanent, false), 1 << 20);
        assert!(
            (700.0..1200.0).contains(&p.mib_per_sec),
            "got {}",
            p.mib_per_sec
        );
        assert_eq!(p.overlap_misses, 0, "permanent mode cannot miss");
    }
}
