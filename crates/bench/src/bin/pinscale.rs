//! Driver hot-path scaling sweep: notifier routing, pressure eviction
//! and batched pinning as the declared-region count grows.
//!
//! The paper's argument needs the *kernel-side bookkeeping* to stay cheap
//! when thousands of regions are declared: an MMU-notifier event must not
//! pay O(regions) to find the pinned pages it invalidates, and a pressure
//! pass must not re-scan the whole table per victim. This harness times
//! the indexed paths against the naive scans they replaced, asserts the
//! ≥10× win at 4096 regions, checks the batched pin path issues at most
//! ⌈pages/chunk⌉ `Memory` pin calls per pin pass, and emits
//! `BENCH_pinscale.json`.
//!
//! Run: `cargo run --release -p openmx-bench --bin pinscale [-- --smoke]`
//!
//! Flags:
//! * `--smoke`     reduced sweep for CI (fewer query reps, same asserts),
//! * `--out PATH`  where to write the JSON (default `BENCH_pinscale.json`).

use std::hint::black_box;
use std::time::Instant;

use openmx_bench::table::Table;
use openmx_core::{Driver, RegionId, Segment};
use simcore::SimTime;
use simmem::{AsId, Memory, Prot, VirtAddr, Vpn, VpnRange, PAGE_SIZE};

/// Pages per declared region in the routing sweep.
const REGION_PAGES: u64 = 4;
/// The speedup the indexed paths must show at the largest sweep point.
const REQUIRED_SPEEDUP: f64 = 10.0;

struct Args {
    smoke: bool,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        smoke: false,
        out: "BENCH_pinscale.json".to_string(),
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--smoke" => args.smoke = true,
            "--out" => {
                i += 1;
                args.out = argv[i].clone();
            }
            other => {
                eprintln!("unknown flag: {other}");
                eprintln!("usage: pinscale [--smoke] [--out PATH]");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    args
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Adjacent non-overlapping regions of `REGION_PAGES` pages each over one
/// mapped arena. Nothing is pinned — routing is a pure index question.
fn routing_driver(n: u64) -> (Driver, AsId, VirtAddr) {
    let mut mem = Memory::new(64, 0);
    let space = mem.create_space();
    let addr = mem
        .mmap(space, n * REGION_PAGES * PAGE_SIZE, Prot::ReadWrite)
        .expect("arena");
    let mut d = Driver::new(None);
    for i in 0..n {
        d.declare(
            space,
            &[Segment {
                addr: addr.add(i * REGION_PAGES * PAGE_SIZE),
                len: REGION_PAGES * PAGE_SIZE,
            }],
        )
        .expect("declare");
    }
    (d, space, addr)
}

/// Median wall-clock ns of `reps` runs of `f`.
fn median_ns<F: FnMut()>(reps: usize, mut f: F) -> f64 {
    let mut v: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64
        })
        .collect();
    v.sort_by(|a, b| a.total_cmp(b));
    v[v.len() / 2]
}

struct RoutePoint {
    indexed_ns: f64,
    naive_ns: f64,
}

/// Per-query cost of the interval index vs the full-table scan, over the
/// same pseudorandom 2-page windows (results cross-checked every query).
fn bench_routing(n: u64, queries: u64) -> RoutePoint {
    let (d, space, addr) = routing_driver(n);
    let base = addr.vpn().0;
    let span = n * REGION_PAGES;
    let windows: Vec<VpnRange> = {
        let mut state = 0x5eed_0000_0000_0001 + n;
        (0..queries)
            .map(|_| {
                let s = base + xorshift(&mut state) % span;
                VpnRange::new(Vpn(s), Vpn(s + 2))
            })
            .collect()
    };
    for w in &windows {
        assert_eq!(
            d.regions_intersecting(space, w),
            d.regions_intersecting_naive(space, w),
            "index diverged from the naive scan"
        );
    }
    let indexed_ns = median_ns(5, || {
        for w in &windows {
            black_box(d.regions_intersecting(space, w));
        }
    }) / queries as f64;
    let naive_ns = median_ns(5, || {
        for w in &windows {
            black_box(d.regions_intersecting_naive(space, w));
        }
    }) / queries as f64;
    RoutePoint {
        indexed_ns,
        naive_ns,
    }
}

/// One-page regions, all pinned and idle, staggered `last_use`.
fn evict_driver(n: u64) -> (Driver, Memory, Vec<RegionId>) {
    let mut mem = Memory::new(n as usize + 64, 0);
    let space = mem.create_space();
    let addr = mem
        .mmap(space, n * PAGE_SIZE, Prot::ReadWrite)
        .expect("arena");
    let mut d = Driver::new(Some(0));
    let ids: Vec<RegionId> = (0..n)
        .map(|i| {
            d.declare(
                space,
                &[Segment {
                    addr: addr.add(i * PAGE_SIZE),
                    len: PAGE_SIZE,
                }],
            )
            .expect("declare")
        })
        .collect();
    (d, mem, ids)
}

fn repin_all(d: &mut Driver, mem: &mut Memory, ids: &[RegionId], epoch: u64) {
    for (i, &id) in ids.iter().enumerate() {
        d.region_mut(id).pin_next_chunk(mem, 100).expect("pin");
        d.region_mut(id).last_use = SimTime::from_nanos(epoch * ids.len() as u64 + i as u64);
        d.note_region_idle(id);
    }
}

struct EvictPoint {
    heap_ns: f64,
    naive_ns: f64,
}

/// Per-eviction cost of draining all `n` idle pinned regions under a
/// zero pinned-page limit: the LRU heap vs the repeated min-scan the old
/// `pressure_evict` did.
fn bench_evict(n: u64, reps: usize) -> EvictPoint {
    let (mut d, mut mem, ids) = evict_driver(n);
    let mut heap_best = f64::INFINITY;
    for rep in 0..reps {
        repin_all(&mut d, &mut mem, &ids, rep as u64);
        let t = Instant::now();
        let evicted = d.pressure_evict(&mut mem, 0, SimTime::ZERO, None);
        let ns = t.elapsed().as_nanos() as f64;
        assert_eq!(evicted.len() as u64, n, "drain must evict every region");
        heap_best = heap_best.min(ns);
    }
    let mut naive_best = f64::INFINITY;
    for rep in 0..reps {
        repin_all(&mut d, &mut mem, &ids, (reps + rep) as u64);
        let t = Instant::now();
        let mut drained = 0u64;
        loop {
            let victim = d
                .iter_regions()
                .filter(|(_, r)| r.use_count == 0 && !r.unpinned() && !r.pinning_in_progress)
                .min_by_key(|(_, r)| r.last_use)
                .map(|(id, _)| id);
            let Some(id) = victim else { break };
            d.region_mut(id).unpin_all(&mut mem);
            drained += 1;
        }
        let ns = t.elapsed().as_nanos() as f64;
        assert_eq!(drained, n, "naive drain must evict every region");
        naive_best = naive_best.min(ns);
    }
    EvictPoint {
        heap_ns: heap_best / n as f64,
        naive_ns: naive_best / n as f64,
    }
}

struct BatchReport {
    pages: u64,
    chunk: u64,
    batched_calls: u64,
    per_page_calls: u64,
}

/// Pin one contiguous 256-page region in 32-page chunks through both pin
/// paths and count the `Memory` pin calls each issues.
fn batch_pin_calls() -> BatchReport {
    let pages = 256u64;
    let chunk = 32u64;
    let count = |per_page: bool| {
        let mut mem = Memory::new(pages as usize + 16, 0);
        let space = mem.create_space();
        let addr = mem.mmap(space, pages * PAGE_SIZE, Prot::ReadWrite).unwrap();
        let mut d = Driver::new(None);
        let id = d
            .declare(
                space,
                &[Segment {
                    addr,
                    len: pages * PAGE_SIZE,
                }],
            )
            .unwrap();
        let before = mem.pin_calls();
        loop {
            let r = d.region_mut(id);
            let progress = if per_page {
                r.pin_next_chunk_per_page(&mut mem, chunk)
            } else {
                r.pin_next_chunk(&mut mem, chunk)
            }
            .expect("pin");
            if progress.complete {
                break;
            }
        }
        mem.pin_calls() - before
    };
    BatchReport {
        pages,
        chunk,
        batched_calls: count(false),
        per_page_calls: count(true),
    }
}

fn main() {
    let args = parse_args();
    let counts: &[u64] = if args.smoke {
        &[64, 1024, 4096]
    } else {
        &[64, 256, 1024, 4096]
    };
    let queries: u64 = if args.smoke { 256 } else { 1024 };
    let evict_reps: usize = if args.smoke { 2 } else { 3 };

    let mut t = Table::new(
        "driver hot-path scaling (wall-clock, lower is better)",
        &[
            "regions",
            "route idx ns",
            "route scan ns",
            "route speedup",
            "evict heap ns",
            "evict scan ns",
            "evict speedup",
        ],
    );
    let mut rows = Vec::new();
    for &n in counts {
        let route = bench_routing(n, queries);
        let evict = bench_evict(n, evict_reps);
        let route_speedup = route.naive_ns / route.indexed_ns;
        let evict_speedup = evict.naive_ns / evict.heap_ns;
        t.row(vec![
            format!("{n}"),
            format!("{:.0}", route.indexed_ns),
            format!("{:.0}", route.naive_ns),
            format!("{route_speedup:.1}x"),
            format!("{:.0}", evict.heap_ns),
            format!("{:.0}", evict.naive_ns),
            format!("{evict_speedup:.1}x"),
        ]);
        rows.push((n, route, evict, route_speedup, evict_speedup));
    }
    t.emit(None);

    let batch = batch_pin_calls();
    println!(
        "batch pin: {} pages in {}-page chunks -> {} pin calls batched vs {} per-page",
        batch.pages, batch.chunk, batch.batched_calls, batch.per_page_calls
    );

    // JSON artifact (hand-assembled; the repo carries no serde).
    let mut json = String::from("{\n  \"sweep\": [\n");
    for (i, (n, route, evict, rs, es)) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"regions\": {n}, \"route_indexed_ns\": {:.1}, \"route_naive_ns\": {:.1}, \
             \"route_speedup\": {rs:.2}, \"evict_heap_ns\": {:.1}, \"evict_naive_ns\": {:.1}, \
             \"evict_speedup\": {es:.2}}}{}\n",
            route.indexed_ns,
            route.naive_ns,
            evict.heap_ns,
            evict.naive_ns,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    json.push_str(&format!(
        "  ],\n  \"batch\": {{\"pages\": {}, \"chunk\": {}, \"batched_pin_calls\": {}, \
         \"per_page_pin_calls\": {}}}\n}}\n",
        batch.pages, batch.chunk, batch.batched_calls, batch.per_page_calls
    ));
    std::fs::write(&args.out, json).expect("write BENCH_pinscale.json");
    println!("wrote {}", args.out);

    // The acceptance gates.
    let (n_max, _, _, route_speedup, evict_speedup) = rows.last().expect("sweep ran");
    assert!(
        route_speedup >= &REQUIRED_SPEEDUP,
        "notifier routing only {route_speedup:.1}x faster than the naive scan at {n_max} regions"
    );
    assert!(
        evict_speedup >= &REQUIRED_SPEEDUP,
        "pressure eviction only {evict_speedup:.1}x faster than the naive scan at {n_max} regions"
    );
    assert!(
        batch.batched_calls <= batch.pages.div_ceil(batch.chunk),
        "batched pinning issued {} pin calls for {} pages in {}-page chunks",
        batch.batched_calls,
        batch.pages,
        batch.chunk
    );
    println!(
        "pinscale OK: routing {route_speedup:.1}x, eviction {evict_speedup:.1}x at {n_max} \
         regions; batched pin calls {} <= {}",
        batch.batched_calls,
        batch.pages.div_ceil(batch.chunk)
    );
}
