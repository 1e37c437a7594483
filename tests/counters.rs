//! Counter agreement: every derived total equals the per-kind counters it
//! sums, the engine's fabric-fault counters equal the fabric's own, and
//! facts the driver and region cache keep are not copied into the engine
//! counters. One hostile run fires every term, so no equality holds
//! vacuously at zero.

mod common;

use common::cfg;
use openmx_core::{Cluster, DriverStats, PinningMode, ProcId};
use openmx_mpi::collectives::JobBuilder;
use openmx_mpi::{run_job, Op};
use simcore::SimDuration;
use simnet::{FaultConfig, FaultProfile, GilbertElliott};

/// Four nodes, one rank each. Ranks 0 and 1 exchange rendezvous and eager
/// traffic over a hostile link: both directions duplicate, 0 → 1 (pull
/// replies) reorders lightly, 1 → 0 (pull requests, notifies) loses
/// frames at random and in bursts. Heavier reordering hides every
/// overlap miss behind the delay it adds. Both ranks reallocate their
/// rendezvous buffers between rounds (deferred invalidations, some
/// cancelled by the next send's repin) under a pinned-page ceiling that
/// forces eviction. The 3 → 2 link dies after its first frame, so rank
/// 2's transfer to rank 3 loses its notify to link death.
fn storm() -> Cluster {
    let mut c = cfg(PinningMode::OverlappedCached);
    c.colocate_with_bh = true;
    c.pinned_pages_limit = Some(2048);
    c.max_retries = 16;
    c.retransmit_timeout = SimDuration::from_millis(50);
    c.notifier_epoch = SimDuration::from_millis(2);
    let mut faults = FaultConfig::clean();
    faults.set_link(
        0,
        1,
        FaultProfile {
            duplicate: 0.2,
            reorder: 0.05,
            reorder_jitter: SimDuration::from_micros(20),
            ..FaultProfile::default()
        },
    );
    faults.set_link(
        1,
        0,
        FaultProfile {
            loss: 0.06,
            duplicate: 0.2,
            burst: Some(GilbertElliott::bursty(0.03, 4.0)),
            ..FaultProfile::default()
        },
    );
    faults.set_link(
        3,
        2,
        FaultProfile {
            drop_after: Some(1),
            ..FaultProfile::default()
        },
    );
    c.net.faults = faults;

    let big = 4 << 20;
    let small = 8 * 1024;
    let mut b = JobBuilder::new(4);
    let sbufs: Vec<usize> = (0..4).map(|i| b.alloc(big, move |_| Some(i))).collect();
    let rbuf = b.alloc(big, |_| None);
    let eager_out = b.alloc(small, |_| Some(0x5a));
    let eager_in = b.alloc(small, |_| None);
    for round in 0..16usize {
        let sbuf = sbufs[(round / 2) % sbufs.len()];
        let (rndv, eager) = (b.tag(), b.tag());
        b.step_all(|r| match r {
            0 => vec![
                Op::Send {
                    to: 1,
                    tag: rndv,
                    buf: sbuf,
                    offset: 0,
                    len: big,
                },
                Op::Recv {
                    from: 1,
                    tag: eager,
                    buf: eager_in,
                    offset: 0,
                    len: small,
                },
            ],
            1 => vec![
                Op::Recv {
                    from: 0,
                    tag: rndv,
                    buf: rbuf,
                    offset: 0,
                    len: big,
                },
                Op::Send {
                    to: 0,
                    tag: eager,
                    buf: eager_out,
                    offset: 0,
                    len: small,
                },
            ],
            2 if round == 0 => vec![Op::Send {
                to: 3,
                tag: rndv,
                buf: sbuf,
                offset: 0,
                len: 64 * 1024,
            }],
            3 if round == 0 => vec![Op::Recv {
                from: 2,
                tag: rndv,
                buf: rbuf,
                offset: 0,
                len: 64 * 1024,
            }],
            _ => vec![],
        });
        if round % 2 == 0 {
            b.step_all(|r| match r {
                0 => vec![Op::Realloc { buf: sbuf }],
                1 => vec![Op::Realloc { buf: rbuf }],
                _ => vec![],
            });
        }
    }
    run_job(&c, 4, 1, b.scripts).0
}

/// Sum of `names` in `c`, insisting each one fired.
fn sum_fired(c: &simcore::Counters, names: &[&str]) -> u64 {
    names
        .iter()
        .map(|n| {
            let v = c.get(n);
            assert!(v > 0, "{n} never fired: {c}");
            v
        })
        .sum()
}

#[test]
fn derived_totals_agree_with_their_stores() {
    let cl = storm();
    let c = cl.counters();
    let m = cl.metrics();

    let retransmits = sum_fired(
        &c,
        &[
            "rndv_retrans",
            "eager_retrans",
            "pull_stall_timeouts",
            "notify_retrans",
            "pull_rereq_optimistic",
        ],
    );
    assert_eq!(m.retransmits(), retransmits);

    let dups = sum_fired(
        &c,
        &[
            "eager_dup_frags",
            "notify_dup",
            "rndv_dup",
            "pull_reply_stale",
            "dup_frames_rx",
            "eager_ack_dup",
        ],
    );
    assert_eq!(m.dup_frames_rx(), dups);

    let misses = sum_fired(&c, &["frames_dropped_unpinned"]);
    assert_eq!(m.overlap_misses(), misses);
    assert_eq!(c.get("overlap_miss_rx"), 0, "one counter per drop");

    let faults = sum_fired(
        &c,
        &[
            "net_frames_reordered",
            "net_frames_duplicated",
            "net_frames_burst_lost",
            "net_frames_link_down",
        ],
    );
    assert_eq!(m.faults_injected(), faults);
    let n = cl.net_stats();
    assert_eq!(c.get("net_frames_reordered"), n.frames_reordered);
    assert_eq!(c.get("net_frames_duplicated"), n.frames_duplicated);
    assert_eq!(c.get("net_frames_burst_lost"), n.frames_burst_lost);
    assert_eq!(c.get("net_frames_link_down"), n.frames_link_down);

    let driver = |f: fn(&DriverStats) -> u64| -> u64 {
        (0..cl.node_count())
            .map(|node| f(&cl.driver(node).stats()))
            .sum()
    };
    for (name, total) in [
        ("notifier_events", driver(|s| s.notifier_events)),
        (
            "notifier_region_unpins",
            driver(|s| s.notifier_region_unpins),
        ),
        ("notifier_deferred", driver(|s| s.notifier_deferred)),
        ("notifier_cancelled", driver(|s| s.notifier_cancelled)),
        (
            "notifier_drain_batches",
            driver(|s| s.notifier_drain_batches),
        ),
        (
            "pressure_unpinned_pages",
            driver(|s| s.pressure_unpinned_pages),
        ),
    ] {
        assert!(total > 0, "{name} never fired");
        assert_eq!(c.get(name), 0, "{name} is the driver's fact");
    }

    let cache = (0..cl.proc_count()).map(|p| cl.cache_stats(ProcId(p as u32)));
    let (hits, misses) = cache.fold((0, 0), |(h, m), s| (h + s.hits, m + s.misses));
    assert!(hits > 0 && misses > 0, "hits {hits}, misses {misses}");
    assert_eq!(c.get("cache_hit") + c.get("cache_miss"), 0);
}

#[test]
fn node_counters_sum_to_the_cluster_totals() {
    let cl = storm();
    for (name, total) in cl.counters().iter() {
        let by_node: u64 = (0..cl.node_count())
            .map(|node| cl.node_counters(node).get(name))
            .sum();
        assert_eq!(by_node, total, "{name}");
    }
}
