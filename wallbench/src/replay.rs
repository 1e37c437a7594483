//! Replay timers: the inputs recorded from a workload's own jobs, fed into
//! a fresh instance of one layer's public functions.
//!
//! Each replay makes passes over its inputs until [`REPLAY_BUDGET`] of wall
//! time has passed (at least [`MIN_PASSES`]) and reports the median over
//! passes of nanoseconds per unit of work. A workload that never exercises
//! a layer (no rendezvous regions on `small_a2a`) has no inputs for it and
//! reports 0.

use std::hint::black_box;
use std::time::{Duration, Instant};

use openmx_core::{Driver, RegionCache, RegionId, Segment};
use simcore::{EventQueue, SimTime};
use simmem::{AsId, Memory, Prot, VirtAddr, PAGE_SIZE};
use simnet::{Network, NodeId, TxOutcome};

use crate::gen::{Rng, Workload};

/// Wall time each replay measures for.
pub const REPLAY_BUDGET: Duration = Duration::from_millis(100);

/// Fewest passes a replay makes.
pub const MIN_PASSES: usize = 3;

/// Stand-in for the engine's event payload (`Event` is 88 bytes).
type Payload = [u8; 88];

/// Inputs recorded from the traced jobs.
#[derive(Clone, Debug, Default)]
pub struct Inputs {
    /// Per job: events dispatched and the observed pending-queue peak.
    pub queue: Vec<(u64, usize)>,
    /// Per job: the segment stream (address, length) of its rendezvous
    /// sends and receives, in issue order.
    pub segments: Vec<Vec<(VirtAddr, u64)>>,
    /// Per job: frames sent and payload bytes the fabric delivered.
    pub frames: Vec<(u64, u64)>,
    /// Sizes of every message (sends only).
    pub copies: Vec<u64>,
}

impl Inputs {
    /// Region sizes: the lengths in the segment streams.
    fn regions(&self) -> impl Iterator<Item = u64> + Clone + '_ {
        self.segments.iter().flatten().map(|&(_, len)| len)
    }
}

/// Run `pass` (which returns the units of work it did) until the budget
/// is spent; the median over passes of nanoseconds per unit, 0 for no work.
fn per_unit(mut pass: impl FnMut() -> u64) -> f64 {
    let t0 = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < MIN_PASSES || t0.elapsed() < REPLAY_BUDGET {
        let p0 = Instant::now();
        let units = pass();
        if units == 0 {
            return 0.0;
        }
        samples.push(p0.elapsed().as_nanos() as f64 / units as f64);
    }
    crate::bench::median(&samples)
}

fn page_ceil(len: u64) -> u64 {
    len.div_ceil(PAGE_SIZE) * PAGE_SIZE
}

/// A memory with one space and a mapping of `len` bytes.
fn mapped(len: u64, notifier: bool) -> (Memory, AsId, VirtAddr) {
    let mut mem = Memory::new((2 * len / PAGE_SIZE) as usize + 64, 0);
    let space = mem.create_space();
    if notifier {
        mem.register_notifier(space).expect("fresh space");
    }
    let addr = mem
        .mmap(space, page_ceil(len), Prot::ReadWrite)
        .expect("replay mapping");
    (mem, space, addr)
}

/// `EventQueue` schedule + pop (+ a cancelled timer every fourth event)
/// at each job's event count, holding its observed pending depth.
/// Nanoseconds per queue operation.
pub fn queue_ns_per_op(inputs: &Inputs) -> f64 {
    per_unit(|| {
        let mut ops = 0;
        for (i, &(events, depth)) in inputs.queue.iter().enumerate() {
            let mut rng = Rng::new(i as u64, 7);
            let mut q: EventQueue<Payload> = EventQueue::new();
            let mut now = 0u64;
            for _ in 0..depth {
                q.schedule(SimTime::from_nanos(1 + rng.below(100_000)), [0; 88]);
            }
            for e in 0..events {
                let at = SimTime::from_nanos(now + 1 + rng.below(100_000));
                q.schedule(at, [e as u8; 88]);
                ops += 1;
                if e % 4 == 0 {
                    let id = q.schedule(at, [0; 88]);
                    q.cancel(id);
                    ops += 2;
                }
                if let Some((t, p)) = q.pop() {
                    now = t.as_nanos();
                    black_box(p);
                    ops += 1;
                }
            }
        }
        ops
    })
}

/// `Memory::pin_user_pages_partial` + `unpin_pages_partial` over every
/// recorded region size, on resident pages. Nanoseconds per page.
pub fn pin_ns_per_page(inputs: &Inputs) -> f64 {
    let Some(max) = inputs.regions().max() else {
        return 0.0;
    };
    let (mut mem, space, addr) = mapped(max, false);
    mem.write(space, addr, &vec![1u8; max as usize])
        .expect("fault in");
    per_unit(|| {
        let mut pages = 0;
        for len in inputs.regions() {
            let pin = mem.pin_user_pages_partial(space, addr, len);
            pages += mem.unpin_pages_partial(&pin.pfns);
        }
        pages
    })
}

/// `Memory::write` then `Memory::read` of every recorded message size.
/// Nanoseconds per KiB written (each KiB is also read back).
pub fn copy_ns_per_kib(inputs: &Inputs) -> f64 {
    let Some(&max) = inputs.copies.iter().max() else {
        return 0.0;
    };
    let (mut mem, space, addr) = mapped(max, false);
    let src = vec![0x5au8; max as usize];
    let mut dst = vec![0u8; max as usize];
    per_unit(|| {
        let mut bytes = 0;
        for &len in &inputs.copies {
            mem.write(space, addr, &src[..len as usize])
                .expect("replay write");
            mem.read(space, addr, &mut dst[..len as usize])
                .expect("replay read");
            black_box(&dst);
            bytes += len;
        }
        bytes.div_ceil(1024)
    })
}

/// One region's life in a fresh `Driver`: `declare` → `pin_chunk` until
/// pinned → unmap, `handle_invalidate` → `drain_deferred` → `undeclare`,
/// then remap. Nanoseconds per region.
pub fn driver_ns_per_region(inputs: &Inputs, workload: Workload) -> f64 {
    let Some(max) = inputs.regions().max() else {
        return 0.0;
    };
    let chunk = workload.config(0).pin_chunk_pages;
    let map_len = page_ceil(max);
    let (mut mem, space, addr) = mapped(max, true);
    let mut driver = Driver::new(None);
    per_unit(|| {
        let mut regions = 0;
        for len in inputs.regions() {
            let id = driver
                .declare(space, &[Segment { addr, len }])
                .expect("non-empty region");
            while !driver.region(id).fully_pinned() {
                driver
                    .pin_chunk(&mut mem, id, chunk, false)
                    .expect("replay pin");
            }
            for ev in mem.munmap(space, addr, map_len).expect("replay unmap") {
                driver.handle_invalidate(&mut mem, &ev);
            }
            driver.drain_deferred(&mut mem);
            driver.undeclare(&mut mem, id);
            mem.mmap_at(space, addr, map_len, Prot::ReadWrite)
                .expect("replay remap");
            regions += 1;
        }
        regions
    })
}

/// `RegionCache::lookup`, plus `insert` on a miss, over each job's
/// segment stream with a fresh cache of the engine's capacity.
/// Nanoseconds per lookup.
pub fn cache_lookup_ns(inputs: &Inputs, workload: Workload) -> f64 {
    let capacity = workload.config(0).cache_capacity;
    per_unit(|| {
        let mut lookups = 0;
        for stream in &inputs.segments {
            let mut cache = RegionCache::new(capacity);
            for (i, &(addr, len)) in stream.iter().enumerate() {
                let segs = [Segment { addr, len }];
                if let openmx_core::CacheOutcome::Miss = cache.lookup(&segs) {
                    black_box(cache.insert(segs.to_vec(), RegionId(i as u32)));
                }
                lookups += 1;
            }
        }
        lookups
    })
}

/// `Network::transmit` over each job's frame stream (full-MTU payload
/// frames for the delivered bytes, the rest control frames), alternating
/// direction between two nodes. Nanoseconds per frame.
pub fn tx_ns_per_frame(inputs: &Inputs, workload: Workload) -> f64 {
    let net_cfg = workload.config(0).net;
    let frame_payload = simnet::frame::max_payload(net_cfg.mtu);
    per_unit(|| {
        let mut sent = 0;
        for &(frames, payload) in &inputs.frames {
            let mut net = Network::new(2, net_cfg.clone(), simcore::SimRng::new(1));
            let mut now = SimTime::ZERO;
            let mut left = payload;
            for f in 0..frames {
                let bytes = left.min(frame_payload);
                left -= bytes;
                let (src, dst) = if f % 2 == 0 { (0, 1) } else { (1, 0) };
                if let TxOutcome::Delivered(d) = net.transmit(now, NodeId(src), NodeId(dst), bytes)
                {
                    now = d.at;
                }
                sent += 1;
            }
        }
        sent
    })
}
