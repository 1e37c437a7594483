//! One job: set up a fresh `Cluster`, step it to quiescence, check it.

use std::time::{Duration, Instant};

use openmx_core::{Cluster, ProcId, Process};
use openmx_mpi::{new_recorder, Recorder, ScriptProcess};
use simcore::{SimDuration, SimTime};

use crate::alloc;
use crate::calib::{self, Probes};
use crate::gen::{self, Job, JobSpec};
use crate::spans::{Spans, Timed};

/// Virtual time covered by one `step_until` slice. Slicing changes no
/// simulated result; it sets how often the step loop samples the queue
/// and how many `step_until` spans a traced job records.
const SLICE: SimDuration = SimDuration::from_micros(200);

/// A job still running at this virtual instant is hung.
const VIRTUAL_LIMIT: SimTime = SimTime::from_nanos(600_000_000_000);

/// Trace ring per traced job: large enough that no job of any workload
/// drops records (`obs.trace_dropped` reports it if one does).
const TRACE_CAPACITY: usize = 1 << 20;

/// A job ready to run.
pub struct Prepared {
    /// The generated job (its scripts now belong to the cluster).
    pub job: Job,
    /// The simulated cluster.
    pub cl: Cluster,
    /// Per-rank records the scripts fill in.
    pub recorder: Recorder,
    /// Steps in each rank's script.
    pub steps: Vec<usize>,
    /// Wall time of generation, `Cluster::new` and `add_process`.
    pub setup: Duration,
}

/// Build the scripts of `spec` and a cluster running them. With `spans`,
/// the cluster traces, the set-up is recorded as a span, and every
/// process callback is timed.
pub fn prepare(spec: &JobSpec, spans: Option<&Spans>) -> Prepared {
    let t0 = Instant::now();
    let span = spans.map(|s| s.borrow_mut().begin("setup", spec.index));
    let mut job = gen::build(spec);
    let w = spec.workload;
    let mut cl = Cluster::new(w.config(spec.seed), w.nodes());
    if spans.is_some() {
        cl.enable_trace_with_capacity(TRACE_CAPACITY);
    }
    let recorder = new_recorder(w.ranks());
    let ids: Vec<ProcId> = (0..w.ranks() as u32).map(ProcId).collect();
    let scripts = std::mem::take(&mut job.scripts);
    let steps = scripts.iter().map(|s| s.steps.len()).collect();
    for (rank, script) in scripts.into_iter().enumerate() {
        let p = ScriptProcess::new(rank, ids.clone(), script, recorder.clone());
        let app: Box<dyn Process> = match spans {
            Some(s) => Box::new(Timed::new(p, s.clone(), spec.index)),
            None => Box::new(p),
        };
        cl.add_process(rank / w.ppn(), app);
    }
    if let (Some(s), Some(id)) = (spans, span) {
        s.borrow_mut().end(id);
    }
    Prepared {
        job,
        cl,
        recorder,
        steps,
        setup: t0.elapsed(),
    }
}

/// What the step loop measured.
#[derive(Clone, Copy, Debug, Default)]
pub struct RunStats {
    /// Wall time from the first `step_until` to quiescence.
    pub wall: Duration,
    /// Events dispatched.
    pub events: u64,
    /// Heap allocations during the loop (counting allocator only).
    pub allocs: u64,
    /// Heap bytes requested during the loop.
    pub alloc_bytes: u64,
    /// Most live events seen between slices (sampled when traced).
    pub pending_peak: usize,
}

/// Step the cluster to quiescence in [`SLICE`]-sized `step_until` calls.
/// With `probes`, the calibration kernel also runs between slices every
/// [`calib::PROBE_EVERY`]; its time is not part of the job's wall time.
pub fn run(p: &mut Prepared, spans: Option<&Spans>, mut probes: Option<&mut Probes>) -> RunStats {
    let job = p.job.spec.index;
    let mut st = RunStats::default();
    let (a0, b0) = alloc::snapshot();
    let t0 = Instant::now();
    let mut probed = Duration::ZERO;
    let mut last_probe = t0;
    let job_span = spans.map(|s| s.borrow_mut().begin("job", job));
    let mut deadline = p.cl.now() + SLICE;
    loop {
        if let Some(pr) = probes.as_deref_mut() {
            if last_probe.elapsed() >= calib::PROBE_EVERY {
                probed += pr.probe();
                last_probe = Instant::now();
            }
        }
        match spans {
            None => st.events += p.cl.step_until(deadline) as u64,
            Some(s) => {
                let id = s.borrow_mut().begin("step_until", job);
                st.events += p.cl.step_until(deadline) as u64;
                s.borrow_mut().end(id);
                st.pending_peak = st.pending_peak.max(p.cl.pending_events());
            }
        }
        // Quiescent, or hung (the check then finds unfinished ranks).
        match p.cl.next_event_time() {
            Some(t) if t <= VIRTUAL_LIMIT => deadline = t.max(p.cl.now() + SLICE),
            _ => break,
        }
    }
    if let (Some(s), Some(id)) = (spans, job_span) {
        s.borrow_mut().end(id);
    }
    st.wall = t0.elapsed() - probed;
    let (a1, b1) = alloc::snapshot();
    st.allocs = a1 - a0;
    st.alloc_bytes = b1 - b0;
    st
}

/// The outcome of checking a finished job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Verdict {
    /// Every rank ran every step to the end.
    pub completed: bool,
    /// Requests reported failed (all of the job's requests if it did not
    /// complete without reporting any).
    pub failed: u64,
    /// Received bytes differing from the sender's fill pattern.
    pub bad_bytes: u64,
    /// Digest of the job's virtual results (see [`digest`]).
    pub digest: u64,
}

/// Check completion and data, read back through `Cluster::read_proc`,
/// and digest the virtual results.
pub fn verify(p: &mut Prepared) -> Verdict {
    let records = p.recorder.borrow().clone();
    let completed = records
        .iter()
        .zip(&p.steps)
        .all(|(r, &n)| r.finished.is_some() && r.step_done.len() == n);
    let mut failed: u64 = records.iter().map(|r| r.failures.len() as u64).sum();
    if !completed && failed == 0 {
        failed = p.job.requests;
    }
    let mut bad_bytes = 0u64;
    for e in &p.job.expects {
        let Some(&base) = records[e.rank].buffer_addrs.get(e.buf) else {
            bad_bytes += e.len;
            continue;
        };
        let got =
            p.cl.read_proc(ProcId(e.rank as u32), base.add(e.offset), e.len);
        bad_bytes += got
            .iter()
            .enumerate()
            .filter(|&(j, &b)| b != e.byte(j as u64))
            .count() as u64;
    }
    Verdict {
        completed,
        failed,
        bad_bytes,
        digest: digest(p),
    }
}

/// FNV-1a over the job's virtual results: every rank's per-step
/// completion times, finish time and failure count, then the engine,
/// fabric, driver, memory and cache counters. Tracing must not change it.
pub fn digest(p: &Prepared) -> u64 {
    let mut h = Fnv::default();
    for r in p.recorder.borrow().iter() {
        h.u64(r.step_done.len() as u64);
        for t in &r.step_done {
            h.u64(t.as_nanos());
        }
        h.u64(r.finished.map_or(u64::MAX, SimTime::as_nanos));
        h.u64(r.failures.len() as u64);
    }
    let cl = &p.cl;
    for (name, v) in cl.counters().iter() {
        h.bytes(name.as_bytes());
        h.u64(v);
    }
    let n = cl.net_stats();
    for v in [
        n.frames_sent,
        n.frames_delivered,
        n.frames_lost,
        n.frames_overflowed,
        n.payload_bytes_delivered,
    ] {
        h.u64(v);
    }
    let m = cl.metrics();
    h.u64(m.overlap_misses());
    h.u64(m.retransmits());
    h.u64(m.dup_frames_rx());
    for node in 0..cl.node_count() {
        let d = cl.driver(node).stats();
        for v in [
            d.pressure_unpinned_pages,
            d.notifier_events,
            d.notifier_region_unpins,
            d.notifier_deferred,
            d.notifier_cancelled,
            d.notifier_drain_batches,
        ] {
            h.u64(v);
        }
        h.u64(cl.memory(node).pin_calls());
        h.u64(cl.memory(node).unpin_calls());
        h.u64(cl.pinned_peak(node) as u64);
    }
    for proc in 0..cl.proc_count() {
        let c = cl.cache_stats(ProcId(proc as u32));
        h.u64(c.hits);
        h.u64(c.misses);
    }
    h.0
}

struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ x as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Layer counters read from a finished job through public accessors.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    /// Pull-reply frames dropped because their pages were not yet pinned.
    pub overlap_misses: u64,
    /// Retransmissions and re-requests.
    pub retransmits: u64,
    /// Frames that reached a NIC.
    pub frames_rx: u64,
    /// Frames dropped on arrival as unpinned, duplicate, stale or bogus.
    pub frames_wasted: u64,
    /// `Memory` pin calls, all nodes.
    pub pin_calls: u64,
    /// `Memory` unpin calls, all nodes.
    pub unpin_calls: u64,
    /// Largest per-node pinned-page peak.
    pub pinned_peak: u64,
    /// Driver pin system calls (engine counter).
    pub pin_syscalls: u64,
    /// MMU-notifier events handled by the drivers.
    pub notifier_events: u64,
    /// Invalidations whose unpin was deferred.
    pub notifier_deferred: u64,
    /// Deferred unpins cancelled by a re-pin.
    pub notifier_cancelled: u64,
    /// Deferred-unpin drain batches.
    pub drain_batches: u64,
    /// Region-cache hits, all processes.
    pub cache_hits: u64,
    /// Region-cache misses, all processes.
    pub cache_misses: u64,
    /// Frames handed to the fabric.
    pub frames_sent: u64,
    /// Frames the fabric dropped.
    pub frames_dropped: u64,
    /// Payload bytes the fabric delivered.
    pub wire_payload: u64,
}

/// Frame drop counters of the engine that mark a received frame useless.
const WASTED_FRAME_COUNTERS: [&str; 8] = [
    "frames_dropped_unpinned",
    "dup_frames_rx",
    "pull_reply_stale",
    "pull_reply_bogus",
    "eager_dup_frags",
    "rndv_dup",
    "notify_dup",
    "eager_ack_dup",
];

/// Read the layer counters of a finished job.
pub fn counts(cl: &Cluster) -> Counts {
    let c = cl.counters();
    let n = cl.net_stats();
    let m = cl.metrics();
    let mut out = Counts {
        overlap_misses: m.overlap_misses(),
        retransmits: m.retransmits(),
        frames_rx: c.get("frames_rx"),
        frames_wasted: WASTED_FRAME_COUNTERS.iter().map(|k| c.get(k)).sum(),
        pin_syscalls: c.get("pin_syscalls"),
        frames_sent: n.frames_sent,
        frames_dropped: n.frames_lost
            + n.frames_overflowed
            + n.frames_burst_lost
            + n.frames_link_down,
        wire_payload: n.payload_bytes_delivered,
        ..Counts::default()
    };
    for node in 0..cl.node_count() {
        let d = cl.driver(node).stats();
        out.notifier_events += d.notifier_events;
        out.notifier_deferred += d.notifier_deferred;
        out.notifier_cancelled += d.notifier_cancelled;
        out.drain_batches += d.notifier_drain_batches;
        out.pin_calls += cl.memory(node).pin_calls();
        out.unpin_calls += cl.memory(node).unpin_calls();
        out.pinned_peak = out.pinned_peak.max(cl.pinned_peak(node) as u64);
    }
    for proc in 0..cl.proc_count() {
        let s = cl.cache_stats(ProcId(proc as u32));
        out.cache_hits += s.hits;
        out.cache_misses += s.misses;
    }
    out
}

/// Virtual-time results of a finished job: its makespan and the duration
/// of every step that waited on communication.
pub fn virtual_times(p: &Prepared) -> (SimDuration, Vec<SimDuration>) {
    let records = p.recorder.borrow();
    let end = records
        .iter()
        .filter_map(|r| r.finished)
        .max()
        .unwrap_or(SimTime::ZERO);
    let mut steps = Vec::new();
    for r in records.iter() {
        let mut prev = SimTime::ZERO;
        for &t in &r.step_done {
            let d = t.duration_since(prev);
            if d > SimDuration::ZERO {
                steps.push(d);
            }
            prev = t;
        }
    }
    (end.duration_since(SimTime::ZERO), steps)
}
