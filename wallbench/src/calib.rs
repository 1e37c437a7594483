//! The calibration kernel: a fixed piece of work timed before, during and
//! after every measured job.
//!
//! On a shared machine the same job's wall time drifts by ±25% over
//! seconds as neighbours load the host. The kernel does the kinds of work
//! the simulator does (small allocations, ordered- and hash-map updates,
//! page-sized copies) but none of its code, so it slows down with the
//! machine and not with the program. Each job's wall times are scaled by
//! [`REFERENCE`] over the kernel's mean time around and within that job:
//! the reported values read as times on a machine where the kernel takes
//! [`REFERENCE`]. Of the kernels tried (this one, an allocation-free
//! variant, a 4 MiB streaming copy and mixes of them), this one tracked
//! the drift of all three workloads best.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The kernel's time on the reference machine (a shared 2-vCPU x86-64
/// VM, typical of its runs).
pub const REFERENCE: Duration = Duration::from_micros(450);

/// A job longer than this is probed again between `step_until` slices.
pub const PROBE_EVERY: Duration = Duration::from_millis(8);

/// Time one run of the kernel.
pub fn kernel() -> Duration {
    let t0 = Instant::now();
    let mut ordered = BTreeMap::new();
    let mut hashed = HashMap::new();
    let mut pages: Vec<Box<[u8]>> = Vec::with_capacity(32);
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..2048u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        ordered.insert(x % 4096, i);
        if i % 2 == 1 {
            ordered.remove(&((x >> 16) % 4096));
        }
        *hashed.entry(x % 1024).or_insert(0u64) += i;
        if i % 64 == 0 {
            let mut page = vec![0u8; 4096].into_boxed_slice();
            if let Some(prev) = pages.last() {
                page.copy_from_slice(prev);
            }
            page[(x % 4096) as usize] = i as u8;
            pages.push(page);
        }
    }
    black_box((&ordered, &hashed, &pages));
    t0.elapsed()
}

/// Kernel samples taken around and within one job.
#[derive(Clone, Copy, Debug, Default)]
pub struct Probes {
    total: Duration,
    count: u32,
}

impl Probes {
    /// Run the kernel once and keep its time; returns that time.
    pub fn probe(&mut self) -> Duration {
        let d = kernel();
        self.total += d;
        self.count += 1;
        d
    }

    /// Mean kernel time (zero without samples).
    pub fn mean(&self) -> Duration {
        self.total / self.count.max(1)
    }

    /// The factor that scales the job's wall times to the reference
    /// machine; 1 without samples.
    pub fn scale(&self) -> f64 {
        if self.count == 0 {
            1.0
        } else {
            REFERENCE.as_secs_f64() / self.mean().as_secs_f64()
        }
    }
}
