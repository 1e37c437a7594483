//! The run loop: a warm-up job, then stratified blocks of jobs until the
//! measuring time is spent, then the report.
//!
//! An untraced run (`trace = false`) reports the end-to-end metrics. A
//! traced run runs every job twice — untraced, then with the engine's
//! tracer, benchmark spans and callback timing on — and reports the
//! per-layer metrics plus the span file.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use openmx_core::obs::{build_spans, CriticalPath};
use simcore::SimDuration;

use crate::calib::Probes;
use crate::gen::{self, JobSpec, Workload};
use crate::job::{self, Counts, Prepared, RunStats, Verdict};
use crate::replay::{self, Inputs};
use crate::spans::{SpanLog, Spans};

/// End-to-end metrics: name and unit.
pub const END_TO_END: [(&str, &str); 5] = [
    ("sim_mib_per_s", "MiB/s"),
    ("job_ms_p50", "ms"),
    ("job_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
];

/// Per-layer metrics: name and unit.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("engine.events", "count"),
    ("engine.ns_per_event", "ns"),
    ("engine.events_per_mib", "count/MiB"),
    ("engine.allocs_per_event", "count"),
    ("engine.alloc_bytes_per_payload_byte", "B/B"),
    ("engine.pending_peak", "count"),
    ("engine.overlap_misses", "count"),
    ("engine.retransmits", "count"),
    ("engine.pull_frame_useful_ratio", "ratio"),
    ("simcore.queue_ns_per_op", "ns"),
    ("simmem.pin_calls", "count"),
    ("simmem.unpin_calls", "count"),
    ("simmem.pinned_peak_pages", "pages"),
    ("simmem.pin_ns_per_page", "ns"),
    ("simmem.copy_ns_per_kib", "ns"),
    ("driver.pin_syscalls", "count"),
    ("driver.notifier_events", "count"),
    ("driver.notifier_deferred", "count"),
    ("driver.notifier_cancelled", "count"),
    ("driver.drain_batches", "count"),
    ("driver.replay_ns_per_region", "ns"),
    ("cache.hit_ratio", "ratio"),
    ("cache.lookup_ns", "ns"),
    ("simnet.frames_sent", "count"),
    ("simnet.frames_dropped", "count"),
    ("simnet.tx_ns_per_frame", "ns"),
    ("mpi.requests", "count"),
    ("mpi.callback_ns_per_event", "ns"),
    ("mpi.callback_share", "ratio"),
    ("obs.trace_overhead_ratio", "ratio"),
    ("obs.trace_records", "count"),
    ("obs.trace_dropped", "count"),
    ("obs.build_spans_ms", "ms"),
    ("crit.pin_wait_ns", "ns"),
    ("crit.wire_ns", "ns"),
    ("crit.retransmit_backoff_ns", "ns"),
    ("crit.host_overhead_ns", "ns"),
    ("model.virt_mib_s", "MiB/s"),
    ("model.virt_lat_p50_us", "us"),
    ("model.virt_lat_p90_us", "us"),
];

/// What to run.
#[derive(Clone, Debug)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of the job sequence.
    pub seed: u64,
    /// Measuring time; the run stops at the first block boundary after it.
    pub seconds: f64,
    /// Run the traced variant (per-layer metrics).
    pub trace: bool,
    /// Where the traced run writes its span file.
    pub spans_out: Option<PathBuf>,
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// The correctness gate of a run.
#[derive(Clone, Debug, Default)]
pub struct Gate {
    /// Requests issued by the measured jobs.
    pub attempted: u64,
    /// Requests that failed.
    pub failed: u64,
    /// Why the run is not correct, if it is not.
    pub problems: Vec<String>,
}

impl Gate {
    /// Account one checked job.
    pub fn job(&mut self, spec: &JobSpec, requests: u64, v: &Verdict) {
        self.attempted += requests;
        self.failed += v.failed;
        if !v.completed {
            self.problems
                .push(format!("job {} did not complete", spec.index));
        }
        if v.bad_bytes > 0 {
            self.problems.push(format!(
                "job {}: {} received bytes differ from the sender's pattern",
                spec.index, v.bad_bytes
            ));
        }
    }

    /// Two runs of the same job must leave the same virtual digest.
    pub fn same_digest(&mut self, what: &str, a: u64, b: u64) {
        if a != b {
            self.problems
                .push(format!("{what}: digest {a:016x} != {b:016x}"));
        }
    }

    /// Every request completed, every byte matched, every digest agreed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }
}

/// A finished run.
#[derive(Clone, Debug)]
pub struct Report {
    /// The correctness gate.
    pub gate: Gate,
    /// Measured jobs (the warm-up excluded).
    pub jobs: usize,
    /// The metrics, in table order.
    pub metrics: Vec<Metric>,
    /// Context for the summary line: unscaled times and the calibration.
    pub notes: Vec<(&'static str, f64)>,
}

impl Report {
    /// A metric's value by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.gate.correct(),
            self.gate.attempted,
            self.gate.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// Median (linear interpolation); 0 for no samples.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Quantile `q` with linear interpolation between order statistics.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Reset `VmHWM` to the current resident set, so the next reading is the
/// peak of what ran since. Without the kernel interface the reading stays
/// the peak of the whole process, which is still a valid upper bound.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// One job without calibration probes: build (traced with `spans`), run,
/// check.
fn checked_job(spec: &JobSpec, spans: Option<&Spans>) -> (Prepared, RunStats, Verdict) {
    let mut p = job::prepare(spec, spans);
    let st = job::run(&mut p, spans, None);
    let v = job::verify(&mut p);
    (p, st, v)
}

/// Run the workload as `opts` says.
pub fn run(opts: &Options) -> Report {
    let (_, _, warm) = checked_job(&gen::spec(opts.workload, opts.seed, 0), None);
    if opts.trace {
        traced(opts, warm.digest)
    } else {
        untraced(opts, warm.digest)
    }
}

/// Visit jobs block by block until the measuring time is spent.
fn for_each_job(opts: &Options, mut f: impl FnMut(&JobSpec)) -> usize {
    let t0 = Instant::now();
    let budget = Duration::from_secs_f64(opts.seconds.max(0.0));
    let mut index = 0u64;
    loop {
        for _ in 0..gen::BLOCK {
            f(&gen::spec(opts.workload, opts.seed, index));
            index += 1;
        }
        if t0.elapsed() >= budget {
            return index as usize;
        }
    }
}

fn untraced(opts: &Options, warm_digest: u64) -> Report {
    let mut gate = Gate::default();
    let (mut rate, mut wall_ms, mut setup_s) = (Vec::new(), Vec::new(), Vec::new());
    let (mut raw_ms, mut cal_us, mut rss) = (Vec::new(), Vec::new(), Vec::new());
    let jobs = for_each_job(opts, |spec| {
        let mut probes = Probes::default();
        probes.probe();
        reset_peak_rss();
        let mut p = job::prepare(spec, None);
        let st = job::run(&mut p, None, Some(&mut probes));
        rss.push(peak_rss_mib());
        let v = job::verify(&mut p);
        probes.probe();
        let k = probes.scale();
        gate.job(spec, p.job.requests, &v);
        if spec.index == 0 {
            gate.same_digest("job 0 against the warm-up", warm_digest, v.digest);
        }
        let wall = st.wall.as_secs_f64() * k;
        rate.push(mib(p.job.payload_bytes) / wall);
        wall_ms.push(wall * 1e3);
        setup_s.push(p.setup.as_secs_f64() * k);
        raw_ms.push(st.wall.as_secs_f64() * 1e3);
        cal_us.push(probes.mean().as_secs_f64() * 1e6);
    });
    let values = [
        median(&rate),
        median(&wall_ms),
        quantile(&wall_ms, 0.9),
        median(&setup_s),
        median(&rss),
    ];
    Report {
        gate,
        jobs,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric { name, unit, value })
            .collect(),
        notes: vec![
            ("unscaled_job_ms_p50", median(&raw_ms)),
            ("calibration_us_p50", median(&cal_us)),
        ],
    }
}

/// Sums over the first block of jobs: the fixed job set whose counts and
/// virtual results repeat exactly for a given seed, however many jobs the
/// measuring time admits.
#[derive(Default)]
struct FirstBlock {
    jobs: u64,
    counts: Counts,
    events: u64,
    allocs: u64,
    alloc_bytes: u64,
    payload: u64,
    requests: u64,
    trace_records: u64,
    trace_dropped: u64,
    pending_peak: usize,
    xfers: u64,
    crit: CriticalPath,
    virt: SimDuration,
    steps_us: Vec<f64>,
}

impl FirstBlock {
    fn add_counts(&mut self, c: &Counts) {
        let s = &mut self.counts;
        s.overlap_misses += c.overlap_misses;
        s.retransmits += c.retransmits;
        s.frames_rx += c.frames_rx;
        s.frames_wasted += c.frames_wasted;
        s.pin_calls += c.pin_calls;
        s.unpin_calls += c.unpin_calls;
        s.pinned_peak = s.pinned_peak.max(c.pinned_peak);
        s.pin_syscalls += c.pin_syscalls;
        s.notifier_events += c.notifier_events;
        s.notifier_deferred += c.notifier_deferred;
        s.notifier_cancelled += c.notifier_cancelled;
        s.drain_batches += c.drain_batches;
        s.cache_hits += c.cache_hits;
        s.cache_misses += c.cache_misses;
        s.frames_sent += c.frames_sent;
        s.frames_dropped += c.frames_dropped;
    }

    fn per_job(&self, v: u64) -> f64 {
        ratio(v as f64, self.jobs as f64)
    }
}

fn traced(opts: &Options, warm_digest: u64) -> Report {
    let spans: Spans = SpanLog::new();
    let mut gate = Gate::default();
    let mut first = FirstBlock::default();
    let mut inputs = Inputs::default();
    let (mut overhead, mut build_ms) = (Vec::new(), Vec::new());
    let (mut plain_wall, mut plain_events) = (Duration::ZERO, 0u64);
    let jobs = for_each_job(opts, |spec| {
        // Alternate which twin runs first, so neither always inherits the
        // other's warm allocator and caches.
        let mut t = None;
        if spec.index % 2 == 1 {
            t = Some(checked_job(spec, Some(&spans)));
        }
        let (p, st, v) = checked_job(spec, None);
        gate.job(spec, p.job.requests, &v);
        if spec.index == 0 {
            gate.same_digest("job 0 against the warm-up", warm_digest, v.digest);
        }
        plain_wall += st.wall;
        plain_events += st.events;
        drop(p);
        let (t, tst, tv) = t.unwrap_or_else(|| checked_job(spec, Some(&spans)));
        gate.job(spec, t.job.requests, &tv);
        gate.same_digest(
            &format!("job {} traced against untraced", spec.index),
            v.digest,
            tv.digest,
        );
        overhead.push(tst.wall.as_secs_f64() / st.wall.as_secs_f64());
        let b0 = Instant::now();
        let xfer_spans = build_spans(t.cl.tracer());
        build_ms.push(b0.elapsed().as_secs_f64() * 1e3);
        let c = job::counts(&t.cl);
        record_inputs(&mut inputs, &t, &tst, &c);

        if spec.index < gen::BLOCK as u64 {
            first.jobs += 1;
            first.add_counts(&c);
            first.events += st.events;
            first.allocs += st.allocs;
            first.alloc_bytes += st.alloc_bytes;
            first.payload += t.job.payload_bytes;
            first.requests += t.job.requests;
            first.trace_records += t.cl.tracer().len() as u64;
            first.trace_dropped += t.cl.tracer().dropped();
            first.pending_peak = first.pending_peak.max(tst.pending_peak);
            for x in &xfer_spans {
                let cp = &x.critical_path;
                first.xfers += 1;
                first.crit.pin_wait_ns += cp.pin_wait_ns;
                first.crit.wire_ns += cp.wire_ns;
                first.crit.retransmit_backoff_ns += cp.retransmit_backoff_ns;
                first.crit.host_overhead_ns += cp.host_overhead_ns;
            }
            let (virt, steps) = job::virtual_times(&t);
            first.virt += virt;
            first
                .steps_us
                .extend(steps.iter().map(|d| d.as_micros_f64()));
        }
    });

    let w = opts.workload;
    let log = spans.borrow();
    let (callback_wall, callbacks) = log.total("callback");
    let (step_wall, _) = log.total("step_until");
    let c = &first.counts;
    let fb = |v: u64| first.per_job(v);
    let values: [f64; 40] = [
        fb(first.events),
        ratio(plain_wall.as_nanos() as f64, plain_events as f64),
        ratio(first.events as f64, mib(first.payload)),
        ratio(first.allocs as f64, first.events as f64),
        ratio(first.alloc_bytes as f64, first.payload as f64),
        first.pending_peak as f64,
        fb(c.overlap_misses),
        fb(c.retransmits),
        ratio(
            c.frames_rx.saturating_sub(c.frames_wasted) as f64,
            c.frames_rx as f64,
        ),
        replay::queue_ns_per_op(&inputs),
        fb(c.pin_calls),
        fb(c.unpin_calls),
        c.pinned_peak as f64,
        replay::pin_ns_per_page(&inputs),
        replay::copy_ns_per_kib(&inputs),
        fb(c.pin_syscalls),
        fb(c.notifier_events),
        fb(c.notifier_deferred),
        fb(c.notifier_cancelled),
        fb(c.drain_batches),
        replay::driver_ns_per_region(&inputs, w),
        ratio(c.cache_hits as f64, (c.cache_hits + c.cache_misses) as f64),
        replay::cache_lookup_ns(&inputs, w),
        fb(c.frames_sent),
        fb(c.frames_dropped),
        replay::tx_ns_per_frame(&inputs, w),
        fb(first.requests),
        ratio(callback_wall.as_nanos() as f64, callbacks as f64),
        ratio(callback_wall.as_secs_f64(), step_wall.as_secs_f64()),
        median(&overhead),
        fb(first.trace_records),
        fb(first.trace_dropped),
        median(&build_ms),
        ratio(first.crit.pin_wait_ns as f64, first.xfers as f64),
        ratio(first.crit.wire_ns as f64, first.xfers as f64),
        ratio(first.crit.retransmit_backoff_ns as f64, first.xfers as f64),
        ratio(first.crit.host_overhead_ns as f64, first.xfers as f64),
        ratio(mib(first.payload), first.virt.as_secs_f64()),
        quantile(&first.steps_us, 0.5),
        quantile(&first.steps_us, 0.9),
    ];
    if let Some(path) = &opts.spans_out {
        if let Err(e) = write_spans(
            path,
            &log.chrome_json(w.name(), opts.seed, gen::BLOCK as u64),
        ) {
            gate.problems
                .push(format!("writing {}: {e}", path.display()));
        }
    }
    Report {
        gate,
        jobs,
        metrics: PER_LAYER
            .iter()
            .zip(values)
            .map(|(&(name, unit), value)| Metric { name, unit, value })
            .collect(),
        notes: Vec::new(),
    }
}

/// Keep the replay inputs of a traced job: its queue load, its
/// rendezvous segment stream, its frame stream and its message sizes.
/// Only the first jobs are kept, so a long run does not lengthen replays.
fn record_inputs(inputs: &mut Inputs, t: &Prepared, st: &RunStats, c: &Counts) {
    const KEEP: usize = gen::BLOCK;
    if inputs.queue.len() >= KEEP {
        return;
    }
    inputs.queue.push((st.events, st.pending_peak));
    inputs.frames.push((c.frames_sent, c.wire_payload));
    let eager = t.job.spec.workload.config(0).eager_threshold;
    let records = t.recorder.borrow();
    let mut stream = Vec::new();
    for x in &t.job.transfers {
        if x.send {
            inputs.copies.push(x.len);
        }
        if x.len >= eager {
            let base = records[x.rank].buffer_addrs[x.buf];
            stream.push((base.add(x.offset), x.len));
        }
    }
    if !stream.is_empty() {
        inputs.segments.push(stream);
    }
}

fn write_spans(path: &PathBuf, json: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, json)
}
