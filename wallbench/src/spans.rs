//! Benchmark-side spans for the traced run.
//!
//! Spans are taken around public calls only: a job, its set-up, each
//! `Cluster::step_until` slice, and each `Process` callback (through
//! [`Timed`], a wrapper around `ScriptProcess`). They stay in memory until
//! the run ends and are then written as a Chrome trace-event file.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;
use std::time::{Duration, Instant};

use openmx_core::{AppEvent, Ctx, Process};
use openmx_mpi::ScriptProcess;

/// One closed span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// What was timed: `job`, `setup`, `step_until`, `callback`.
    pub name: &'static str,
    /// Start, from the start of the run.
    pub start: Duration,
    /// End, from the start of the run.
    pub end: Duration,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Job the span belongs to.
    pub job: u64,
}

/// The span store plus the stack of open spans.
#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Shared handle: the log is written from both the step loop and the
/// process callbacks it dispatches.
pub type Spans = Rc<RefCell<SpanLog>>;

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> Spans {
        Rc::new(RefCell::new(SpanLog {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }))
    }

    /// Open a span nested in the innermost open one; returns its index.
    pub fn begin(&mut self, name: &'static str, job: u64) -> usize {
        let now = self.origin.elapsed();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.open.last().copied(),
            job,
        });
        self.open.push(id);
        id
    }

    /// Close span `id` (the innermost open one).
    pub fn end(&mut self, id: usize) {
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id), "spans close innermost first");
        self.spans[id].end = self.origin.elapsed();
    }

    /// Total duration of the closed spans named `name`, and their count.
    pub fn total(&self, name: &str) -> (Duration, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((Duration::ZERO, 0), |(d, n), s| {
                (d + (s.end - s.start), n + 1)
            })
    }

    /// The spans of jobs below `jobs` as Chrome trace-event JSON
    /// (`ph: "X"`, microseconds), loadable in Perfetto; `args` carry the
    /// span id, parent id and job.
    pub fn chrome_json(&self, workload: &str, seed: u64, jobs: u64) -> String {
        let mut out = String::with_capacity(self.spans.len() * 120 + 128);
        let _ = write!(
            out,
            "{{\"otherData\":{{\"workload\":\"{workload}\",\"seed\":{seed}}},\"traceEvents\":["
        );
        let kept = self.spans.iter().enumerate().filter(|(_, s)| s.job < jobs);
        for (n, (i, s)) in kept.enumerate() {
            if n > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent},\"job\":{}}}}}",
                s.name,
                s.start.as_nanos() as f64 / 1e3,
                (s.end - s.start).as_nanos() as f64 / 1e3,
                s.job,
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// A `ScriptProcess` whose every callback is recorded as a `callback` span.
pub struct Timed {
    inner: ScriptProcess,
    spans: Spans,
    job: u64,
}

impl Timed {
    /// Wrap `inner`, recording into `spans` under job `job`.
    pub fn new(inner: ScriptProcess, spans: Spans, job: u64) -> Self {
        Timed { inner, spans, job }
    }
}

impl Process for Timed {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        let id = self.spans.borrow_mut().begin("callback", self.job);
        self.inner.start(ctx);
        self.spans.borrow_mut().end(id);
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: AppEvent) {
        let id = self.spans.borrow_mut().begin("callback", self.job);
        self.inner.on_event(ctx, event);
        self.spans.borrow_mut().end(id);
    }
}
