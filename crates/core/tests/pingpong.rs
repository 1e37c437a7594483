//! End-to-end engine tests: pingpong transfers across every pinning mode,
//! with byte-level data verification.

use openmx_core::engine::{AppEvent, Cluster, Ctx, ProcId, Process};
use openmx_core::{OpenMxConfig, PinningMode};
use simcore::SimTime;
use simmem::VirtAddr;

/// Sends `iters` messages of `len` bytes to proc 1 and waits for the echo.
struct Pinger {
    len: u64,
    iters: u32,
    done: u32,
    buf: VirtAddr,
    rbuf: VirtAddr,
    verify: bool,
}

/// Echoes everything back.
struct Ponger {
    len: u64,
    iters: u32,
    done: u32,
    buf: VirtAddr,
}

fn pattern(len: u64, salt: u8) -> Vec<u8> {
    (0..len).map(|i| (i as u8) ^ salt).collect()
}

impl Process for Pinger {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        self.buf = ctx.malloc(self.len);
        self.rbuf = ctx.malloc(self.len);
        ctx.write_buf(self.buf, &pattern(self.len, 0xA5));
        ctx.irecv(1, !0, self.rbuf, self.len);
        ctx.isend(ProcId(1), 0, self.buf, self.len);
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: AppEvent) {
        match ev {
            AppEvent::RecvDone(_, n) => {
                assert_eq!(n, self.len);
                if self.verify {
                    let got = ctx.read_buf(self.rbuf, self.len);
                    assert_eq!(got, pattern(self.len, 0xA5), "echo corrupted");
                }
                self.done += 1;
                if self.done < self.iters {
                    ctx.irecv(1, !0, self.rbuf, self.len);
                    ctx.isend(ProcId(1), 0, self.buf, self.len);
                } else {
                    ctx.stop();
                }
            }
            AppEvent::SendDone(_) => {}
            other => panic!("pinger: unexpected {other:?}"),
        }
    }
}

impl Process for Ponger {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        self.buf = ctx.malloc(self.len);
        ctx.irecv(0, !0, self.buf, self.len);
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_>, ev: AppEvent) {
        match ev {
            AppEvent::RecvDone(_, n) => {
                assert_eq!(n, self.len);
                ctx.isend(ProcId(0), 1, self.buf, self.len);
            }
            AppEvent::SendDone(_) => {
                self.done += 1;
                if self.done < self.iters {
                    ctx.irecv(0, !0, self.buf, self.len);
                } else {
                    ctx.stop();
                }
            }
            other => panic!("ponger: unexpected {other:?}"),
        }
    }
}

/// Run a verified pingpong; returns (cluster, final time).
fn pingpong(mode: PinningMode, len: u64, iters: u32, ioat: bool) -> (Cluster, SimTime) {
    let mut cfg = OpenMxConfig::with_mode(mode);
    cfg.use_ioat = ioat;
    let mut cl = Cluster::new(cfg, 2);
    cl.add_process(
        0,
        Box::new(Pinger {
            len,
            iters,
            done: 0,
            buf: VirtAddr(0),
            rbuf: VirtAddr(0),
            verify: true,
        }),
    );
    cl.add_process(
        1,
        Box::new(Ponger {
            len,
            iters,
            done: 0,
            buf: VirtAddr(0),
        }),
    );
    let end = cl.run(Some(SimTime::from_nanos(60_000_000_000)));
    (cl, end)
}

#[test]
fn eager_pingpong_delivers_correct_data() {
    let (cl, end) = pingpong(PinningMode::PinPerComm, 4 * 1024, 5, false);
    assert!(end > SimTime::ZERO);
    let c = cl.counters();
    assert_eq!(c.get("eager_msgs_tx"), 10, "5 pings + 5 pongs, all eager");
    assert_eq!(c.get("rndv_msgs_tx"), 0);
    assert_eq!(c.get("requests_failed"), 0);
}

#[test]
fn rndv_pingpong_all_modes_verify() {
    for mode in PinningMode::all() {
        let (cl, _) = pingpong(mode, 1 << 20, 3, false);
        let c = cl.counters();
        assert_eq!(c.get("requests_failed"), 0, "{mode:?}");
        assert_eq!(c.get("rndv_msgs_tx"), 6, "{mode:?}: all large transfers");
        assert_eq!(c.get("pull_stall_timeouts"), 0, "{mode:?}: no stalls");
    }
}

#[test]
fn rndv_pingpong_with_ioat_verifies() {
    for mode in [PinningMode::PinPerComm, PinningMode::OverlappedCached] {
        let (cl, _) = pingpong(mode, 1 << 20, 3, true);
        assert_eq!(cl.counters().get("requests_failed"), 0, "{mode:?}");
    }
}

#[test]
fn unaligned_sizes_survive_all_modes() {
    for mode in PinningMode::all() {
        for len in [32 * 1024, 65_537, 1_000_003] {
            let (cl, _) = pingpong(mode, len, 2, false);
            assert_eq!(
                cl.counters().get("requests_failed"),
                0,
                "{mode:?} len={len}"
            );
        }
    }
}

#[test]
fn cached_mode_hits_cache_on_reuse() {
    let (cl, _) = pingpong(PinningMode::Cached, 1 << 20, 10, false);
    // Pinger: 10 sends of buf + 10 recvs of rbuf -> first use of each
    // misses, the rest hit.
    let stats = cl.cache_stats(ProcId(0));
    assert_eq!(stats.misses, 2, "one per distinct buffer");
    assert_eq!(stats.hits, 18);
    // Pinning happened once per buffer, not once per iteration.
    let c = cl.counters();
    let pages_per_buffer = (1u64 << 20) / 4096;
    // Pinger has two buffers; the ponger reuses one buffer for both recv
    // and send (same cache key) -> 3 distinct regions pinned once each.
    assert_eq!(c.get("pin_pages"), 3 * pages_per_buffer);
}

#[test]
fn pin_per_comm_pins_every_iteration() {
    let (cl, _) = pingpong(PinningMode::PinPerComm, 1 << 20, 10, false);
    let c = cl.counters();
    let pages_per_buffer = (1u64 << 20) / 4096;
    // 10 iterations x (send pin + recv pin) on each side = 40 pins total.
    assert_eq!(c.get("pin_pages"), 40 * pages_per_buffer);
    assert_eq!(c.get("unpin_pages"), 40 * pages_per_buffer);
}

#[test]
fn permanent_mode_never_unpins() {
    let (cl, _) = pingpong(PinningMode::Permanent, 1 << 20, 10, false);
    let c = cl.counters();
    assert_eq!(c.get("unpin_pages"), 0);
    let pages_per_buffer = (1u64 << 20) / 4096;
    assert_eq!(c.get("pin_pages"), 3 * pages_per_buffer);
}

#[test]
fn overlapped_mode_is_faster_than_pin_per_comm() {
    let (_, t_sync) = pingpong(PinningMode::PinPerComm, 4 << 20, 5, false);
    let (_, t_overlap) = pingpong(PinningMode::Overlapped, 4 << 20, 5, false);
    let (_, t_cache) = pingpong(PinningMode::Cached, 4 << 20, 5, false);
    assert!(
        t_overlap < t_sync,
        "overlap {t_overlap} should beat sync {t_sync}"
    );
    assert!(
        t_cache < t_sync,
        "cache {t_cache} should beat sync {t_sync}"
    );
}

#[test]
fn overlap_misses_are_rare_under_normal_load() {
    let (cl, _) = pingpong(PinningMode::Overlapped, 16 << 20, 3, false);
    let c = cl.counters();
    let frames = c.get("frames_rx");
    let misses = cl.metrics().overlap_misses() + c.get("overlap_miss_tx");
    assert!(frames > 10_000, "16MB x 3 x 2 dirs is many frames");
    // Paper §4.3: less than 1 in 10 000 under regular load.
    assert!(
        (misses as f64) < (frames as f64) * 1e-4 + 1.0,
        "misses={misses} frames={frames}"
    );
    assert_eq!(c.get("requests_failed"), 0);
}

#[test]
fn deterministic_across_runs() {
    let (cl1, t1) = pingpong(PinningMode::OverlappedCached, 1 << 20, 4, true);
    let (cl2, t2) = pingpong(PinningMode::OverlappedCached, 1 << 20, 4, true);
    assert_eq!(t1, t2, "same config + seed => same virtual time");
    let c1: Vec<_> = cl1.counters().iter().collect();
    let c2: Vec<_> = cl2.counters().iter().collect();
    assert_eq!(c1, c2);
}
