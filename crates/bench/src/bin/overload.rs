//! §4.3 — Overlap-miss behaviour: rare under regular load, catastrophic
//! when the bottom half exhausts the core the pinning process runs on.
//!
//! Scenarios (overlapped pinning, 16 MiB one-way stream, 10G Ethernet):
//!
//! * `regular` — interrupts on core 0, process on core 1 (the usual irq
//!   affinity): misses stay under 1/10 000 (paper).
//! * `colocated` — process bound to the interrupt core: receive processing
//!   starves the pin chunks, whole windows of pull replies drop, and
//!   recovery waits on the 1 s retransmission timeout — the 1 GB/s →
//!   ~tens of MB/s collapse the paper reports.
//! * `colocated + eager flood` — an extra process pair hammers the same
//!   node with small messages ("many small packets").
//! * `colocated + presync` — the paper's proposed mitigation: pin a few
//!   pages synchronously before the initiating message.
//! * `colocated + I/OAT` — copy offload empties the bottom half, which
//!   rescues the overlap (not in the paper, ablation).
//!
//! Run: `cargo run --release -p openmx-bench --bin overload`

use openmx_bench::paper::{OVERLAP_MISS_RATE_BOUND, OVERLOAD_COLLAPSE_MBPS};
use openmx_bench::table::Table;
use openmx_core::{OpenMxConfig, PinningMode};
use openmx_mpi::collectives::JobBuilder;
use openmx_mpi::script::Op;
use openmx_mpi::{run_job, summarize};
use simcore::Bandwidth;

struct Scenario {
    name: &'static str,
    colocate: bool,
    flood: bool,
    presync: u64,
    ioat: bool,
}

struct ScenarioRun {
    mbps: f64,
    misses: u64,
    stalls: u64,
    miss_rate: f64,
    pin_p50_us: f64,
    pin_p99_us: f64,
}

fn run_scenario(s: &Scenario) -> ScenarioRun {
    let mut cfg = OpenMxConfig::with_mode(PinningMode::Overlapped);
    cfg.colocate_with_bh = s.colocate;
    cfg.presync_pages = s.presync;
    cfg.use_ioat = s.ioat;
    // §4.3 measures the cost of dropped pull windows under MX's *fixed*
    // 1 s resend timer — the paper's collapse. The adaptive backoff
    // (default since it landed) recovers those drops in milliseconds and
    // would hide the very effect this experiment exists to show.
    cfg.adaptive_retransmit = false;

    let msg: u64 = 16 << 20;
    let msgs: u32 = 6;
    let ranks = if s.flood { 4 } else { 2 };
    let mut b = JobBuilder::new(ranks);
    let sbuf = b.alloc(msg, |_| Some(0x5a));
    let rbuf = b.alloc(msg, |_| None);
    let fbuf = b.alloc(64 * 1024, |_| Some(0x01));

    // Warmup message, then the timed stream (rank 0 -> rank 1).
    for _ in 0..=msgs {
        let tag = b.tag();
        b.step_all(|r| match r {
            0 => vec![Op::Send {
                to: 1,
                tag,
                buf: sbuf,
                offset: 0,
                len: msg,
            }],
            1 => vec![Op::Recv {
                from: 0,
                tag,
                buf: rbuf,
                offset: 0,
                len: msg,
            }],
            _ => vec![],
        });
    }
    // The flooders (ranks 2 on node 0, 3 on node 1) blast 16 KiB eager
    // messages at the victim's node for the whole run. Receives are
    // posted wildcard-ish ahead of time in bursts.
    if s.flood {
        let burst = 16usize;
        let rounds = 600usize;
        let mut scripts = std::mem::take(&mut b.scripts);
        for round in 0..rounds {
            let tag = 1_000_000 + round as u32;
            let mut send_ops = Vec::new();
            let mut recv_ops = Vec::new();
            for i in 0..burst {
                send_ops.push(Op::Send {
                    to: 3,
                    tag,
                    buf: fbuf,
                    offset: (i as u64) * 4096 % 32768,
                    len: 16 * 1024,
                });
                recv_ops.push(Op::RecvAny {
                    tag,
                    buf: fbuf,
                    offset: 0,
                    len: 16 * 1024,
                });
            }
            scripts[2].push(openmx_mpi::Step { ops: send_ops });
            scripts[3].push(openmx_mpi::Step { ops: recv_ops });
        }
        b.scripts = scripts;
    }

    let (cl, records) = {
        let scripts = b.scripts;
        // rank->node: 0,2 on node 0; 1,3 on node 1 (ppn = 2 interleaved by
        // block: ranks 0..1 -> node 0 — not what we want with 4 ranks).
        // run_job uses block distribution, so order ranks as
        // [stream-tx, flood-tx] on node 0 and [stream-rx, flood-rx] on 1:
        // with ppn=2 block layout ranks 0,1 -> node 0. Instead reorder:
        // keep 2 ranks per node by constructing the rank list so that
        // ranks 0 and 2 land on node 0. Easiest: ppn=2 and swap scripts.
        if scripts.len() == 4 {
            let reordered = {
                let mut v: Vec<_> = scripts.into_iter().map(Some).collect();
                // block layout: slot0,1 -> node0; slot2,3 -> node1.
                // want: stream-tx(0), flood-tx(2) on node0;
                //       stream-rx(1), flood-rx(3) on node1.
                let s0 = v[0].take().unwrap();
                let s1 = v[1].take().unwrap();
                let s2 = v[2].take().unwrap();
                let s3 = v[3].take().unwrap();
                vec![s0, s2, s1, s3]
            };
            // After reordering, rank ids changed: fix peer ids inside ops.
            let remap = |r: usize| match r {
                0 => 0usize, // stream tx
                1 => 2,      // stream rx
                2 => 1,      // flood tx
                3 => 3,      // flood rx
                _ => unreachable!(),
            };
            let reordered: Vec<_> = reordered
                .into_iter()
                .map(|mut s| {
                    for step in &mut s.steps {
                        for op in &mut step.ops {
                            match op {
                                Op::Send { to, .. } => *to = remap(*to),
                                Op::Recv { from, .. } => *from = remap(*from),
                                _ => {}
                            }
                        }
                    }
                    s
                })
                .collect();
            run_job(&cfg, 2, 2, reordered)
        } else {
            run_job(&cfg, 2, 1, scripts)
        }
    };

    // Timed window: stream rank is rank 0 (node 0) sending; measure from
    // its first step completion (warmup done) to its finish.
    let stream_rx_rank = if s.flood { 2 } else { 1 };
    let rec = &records[stream_rx_rank];
    let start = rec.step_done[0];
    let end = rec.finished.expect("stream receiver finished");
    let bw = Bandwidth::measured(msg * msgs as u64, end.duration_since(start));
    let c = cl.counters();
    let misses = cl.metrics().overlap_misses() + c.get("overlap_miss_tx");
    let frames = c.get("frames_rx").max(1);
    let _ = summarize; // (records already checked per-rank above)
    let pin = &cl.metrics().pin_latency;
    let q = |p: f64| {
        if pin.count() == 0 {
            0.0
        } else {
            pin.quantile(p).as_micros_f64()
        }
    };
    ScenarioRun {
        mbps: bw.bytes_per_sec() / 1e6,
        misses,
        stalls: c.get("pull_stall_timeouts"),
        miss_rate: misses as f64 / frames as f64,
        pin_p50_us: q(0.50),
        pin_p99_us: q(0.99),
    }
}

fn main() {
    let scenarios = [
        Scenario {
            name: "regular (irq on its own core)",
            colocate: false,
            flood: false,
            presync: 0,
            ioat: false,
        },
        Scenario {
            name: "colocated with bottom half",
            colocate: true,
            flood: false,
            presync: 0,
            ioat: false,
        },
        Scenario {
            name: "colocated + eager flood",
            colocate: true,
            flood: true,
            presync: 0,
            ioat: false,
        },
        Scenario {
            name: "colocated + presync 64 pages",
            colocate: true,
            flood: false,
            presync: 64,
            ioat: false,
        },
        Scenario {
            name: "colocated + I/OAT offload",
            colocate: true,
            flood: false,
            presync: 0,
            ioat: true,
        },
    ];
    let mut t = Table::new(
        "§4.3 — overlap misses and the overloaded-core collapse (16MiB stream, overlapped pinning)",
        &[
            "scenario",
            "MB/s",
            "overlap misses",
            "1s stalls",
            "miss rate",
            "pin p50 µs",
            "pin p99 µs",
        ],
    );
    for s in &scenarios {
        let r = run_scenario(s);
        t.row(vec![
            s.name.to_string(),
            format!("{:.0}", r.mbps),
            format!("{}", r.misses),
            format!("{}", r.stalls),
            format!("{:.2e}", r.miss_rate),
            format!("{:.1}", r.pin_p50_us),
            format!("{:.1}", r.pin_p99_us),
        ]);
    }
    t.emit(Some("overload.csv"));
    println!(
        "paper: miss rate < {OVERLAP_MISS_RATE_BOUND:.0e} under regular load; collapse from\n\
         ~{:.0} MB/s to ~{:.0} MB/s when the receive bottom half exhausts the pinning core.",
        OVERLOAD_COLLAPSE_MBPS.0, OVERLOAD_COLLAPSE_MBPS.1
    );
}
