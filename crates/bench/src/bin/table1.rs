//! Table 1 — base and per-page overhead of Open-MX pinning+unpinning,
//! and the corresponding pinning throughput, for all four hosts.
//!
//! Two methodologies:
//!
//! 1. **Microbenchmark** (the paper's): pin+unpin a region in a tight
//!    loop on one simulated core, sweep the page count, least-squares fit
//!    `base + pages · per_page`. The pins are really performed against the
//!    memory substrate; the virtual clock is charged by the host profile.
//! 2. **End-to-end**: run IMB PingPong under `pin-per-comm` vs `permanent`
//!    pinning and fit the per-iteration time difference (4 pin+unpin
//!    cycles per iteration). This shows how much of the microbenchmark
//!    cost actually lands on the communication critical path (~80–85%:
//!    part of the unpin work hides behind the wire).
//!
//! Run: `cargo run --release -p openmx-bench --bin table1`

use openmx_bench::paper::TABLE1;
use openmx_bench::sweep::parallel_map;
use openmx_bench::table::Table;
use openmx_core::region::{DriverRegion, Segment};
use openmx_core::{CpuProfile, OpenMxConfig, PinningMode};
use openmx_mpi::{imb_job, run_job, summarize, ImbKernel};
use simcore::linear_fit;
use simmem::{Memory, Prot, PAGE_SIZE};

/// The paper's microbenchmark: pin+unpin `pages` once, return µs of
/// simulated CPU time, actually exercising the pin path.
fn micro_pin_unpin_us(profile: &CpuProfile, pages: u64) -> f64 {
    let mut mem = Memory::new((pages + 16) as usize, 0);
    let space = mem.create_space();
    let addr = mem.mmap(space, pages * PAGE_SIZE, Prot::ReadWrite).unwrap();
    let mut region = DriverRegion::new(
        space,
        &[Segment {
            addr,
            len: pages * PAGE_SIZE,
        }],
    );
    let mut elapsed = simcore::SimDuration::ZERO;
    let mut first = true;
    loop {
        let p = region.pin_next_chunk(&mut mem, 32).unwrap();
        elapsed += profile.pin_cost(p.pages_pinned, first);
        first = false;
        if p.complete {
            break;
        }
    }
    let released = region.unpin_all(&mut mem);
    assert_eq!(released, pages);
    elapsed += profile.unpin_cost(pages);
    elapsed.as_micros_f64()
}

fn iter_time_us(profile: &CpuProfile, mode: PinningMode, msg: u64) -> (f64, openmx_core::Metrics) {
    let mut cfg = OpenMxConfig::with_mode(mode);
    cfg.profile = profile.clone();
    let iters = 24;
    let (scripts, mark) = imb_job(ImbKernel::PingPong, 2, msg, 4, iters);
    let (cl, records) = run_job(&cfg, 2, 1, scripts);
    (
        summarize(&records, mark, iters).avg_iter.as_micros_f64(),
        cl.metrics().clone(),
    )
}

fn main() {
    let sizes: Vec<u64> = vec![128 * 1024, 512 * 1024, 2 << 20, 8 << 20];
    let mut out = Table::new(
        "Table 1 — Open-MX pin+unpin overhead: microbench & end-to-end vs paper",
        &[
            "Processor",
            "GHz",
            "base µs",
            "(paper)",
            "ns/page",
            "(paper)",
            "GB/s",
            "(paper)",
            "e2e base µs",
            "e2e ns/page",
        ],
    );

    for (profile, paper) in CpuProfile::table1_hosts().iter().zip(TABLE1) {
        // --- microbenchmark fit (the paper's Table 1 methodology) ---
        let micro: Vec<(f64, f64)> = [16u64, 64, 256, 1024, 4096]
            .iter()
            .map(|&p| (p as f64, micro_pin_unpin_us(profile, p)))
            .collect();
        let (m_base, m_per_page_us) = linear_fit(&micro);
        let m_ns_page = m_per_page_us * 1e3;
        let m_gbps = PAGE_SIZE as f64 / m_ns_page;

        // --- end-to-end fit through IMB PingPong ---
        let jobs: Vec<(u64, PinningMode)> = sizes
            .iter()
            .flat_map(|&s| [(s, PinningMode::PinPerComm), (s, PinningMode::Permanent)])
            .collect();
        let results = parallel_map(jobs, |(msg, mode)| iter_time_us(profile, mode, msg));
        let mut points = Vec::new();
        let mut pin_metrics = openmx_core::Metrics::default();
        for (i, &msg) in sizes.iter().enumerate() {
            let pages = (msg / PAGE_SIZE) as f64;
            // 4 pin+unpin cycles per pingpong iteration; permanent mode
            // pays a cache lookup per op that pin-per-comm does not.
            let lookup_us = 4.0 * profile.cache_lookup.as_nanos() as f64 / 1e3;
            let diff = (results[2 * i].0 - results[2 * i + 1].0 + lookup_us) / 4.0;
            points.push((pages, diff));
            pin_metrics.merge(&results[2 * i].1);
        }
        let (e_base, e_per_page_us) = linear_fit(&points);
        println!(
            "{}: pin-per-comm runs: {}",
            profile.name,
            pin_metrics.pin_latency_summary()
        );

        out.row(vec![
            profile.name.to_string(),
            format!("{:.2}", profile.ghz),
            format!("{m_base:.1}"),
            format!("{:.1}", paper.base_us),
            format!("{m_ns_page:.0}"),
            format!("{:.0}", paper.ns_per_page),
            format!("{m_gbps:.1}"),
            format!("{:.1}", paper.gb_per_sec),
            format!("{e_base:.1}"),
            format!("{:.0}", e_per_page_us * 1e3),
        ]);
    }
    out.emit(Some("table1.csv"));
    println!(
        "microbench columns reproduce the paper's tight-loop methodology;\n\
         the e2e columns show the share visible on the pingpong critical path\n\
         (part of the unpin cost hides behind the wire, so e2e < microbench)."
    );
}
