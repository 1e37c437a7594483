//! The schedule executor and its invariant oracle.
//!
//! [`run_schedule`] builds a real [`Cluster`] from a [`Schedule`], then
//! alternates: apply one op (post a transfer, or mutate an address space
//! under whatever is in flight), run the engine for one tick, drain
//! application completions, and check every invariant. The run ends with
//! a quiescence phase (drain all events) and a final conservation check.
//!
//! The oracle's invariants:
//!
//! * **Pin accounting** — the driver's per-region pinned-page sum equals
//!   the frame pool's pin count at every tick; no pinned frame belongs to
//!   a region of a dead address space.
//! * **Cache coherence** — every descriptor in a user-space region cache
//!   names a declared region; no descriptor appears twice on a node; at
//!   clean quiescence the declared set *is* the union of the caches.
//! * **Completion conservation** — every posted operation completes
//!   exactly once (success or clean error) before the queue drains; a
//!   receive whose partner failed is excused, everything else that never
//!   completes is a hang.
//! * **Data integrity** — bytes delivered to an untainted receive match
//!   the harness's pure-Rust snapshot of the sender's buffer at post
//!   time, byte for byte. Content-preserving churn (swap, migration)
//!   deliberately does *not* taint, so it must be invisible to the data.
//!
//! [`Mutation`]s deliberately break the stack (leak a pin, swallow a
//! completion) to prove the oracle catches what it claims to catch.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;

use openmx_core::{AppEvent, Cluster, Ctx, ProcId, Process};
use simcore::{SimDuration, SimRng};
use simmem::{AsId, VirtAddr, Vpn, VpnRange, PAGE_SIZE};

use crate::schedule::{
    encode, profile_by_name, schedule_cfg, ChurnKind, Op, Schedule, BUFS_PER_PROC, BUF_LEN, TICK,
};

/// Spans kept in a flight-recorder post-mortem dump.
const POST_MORTEM_SPANS: usize = 32;

/// Tracer ring capacity for schedule runs: bounded so long schedules
/// cannot grow memory, large enough that the flight recorder's last-N
/// spans are fully correlated.
const TRACE_CAPACITY: usize = 4096;

/// Virtual time per quiescence chunk.
const QUIESCE_CHUNK: SimDuration = SimDuration::from_millis(5);
/// Quiescence budget in chunks (20 virtual seconds — far beyond the worst
/// retry-exhaustion tail under the 20 ms retransmission ceiling).
const QUIESCE_CHUNKS: usize = 4000;

/// An invariant violation the oracle detected.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Violation {
    /// Driver region accounting disagrees with the frame pool.
    PinAccounting {
        /// Node where the books diverged.
        node: usize,
        /// Pages the driver thinks are pinned (sum over regions).
        declared: u64,
        /// Pages the frame pool says are pinned.
        pinned: u64,
    },
    /// A region still holds pins although its address space is gone.
    DeadSpacePin {
        /// Node of the offending driver.
        node: usize,
        /// The offending region id.
        region: u32,
    },
    /// A user-space cache holds a descriptor the driver never declared
    /// (or already tore down).
    CacheIncoherent {
        /// Process whose cache is stale.
        proc: usize,
        /// The dangling descriptor.
        region: u32,
    },
    /// The same descriptor appears in two cache entries on one node.
    CacheDuplicate {
        /// Node where the duplicate lives.
        node: usize,
        /// The duplicated descriptor.
        region: u32,
    },
    /// At clean quiescence, declared regions and cached descriptors
    /// disagree — a declaration leaked past the cache (or vice versa).
    RegionLeak {
        /// Node with the imbalance.
        node: usize,
        /// Regions the driver still holds.
        declared: usize,
        /// Descriptors user-space caches still hold.
        cached: usize,
    },
    /// Protocol state survived a fully clean run.
    XferLeak {
        /// Entries left across the engine's transfer tables.
        count: usize,
    },
    /// A request completed twice.
    DoubleCompletion {
        /// The request.
        req: u64,
    },
    /// A completion arrived for a request the harness never posted.
    UnknownCompletion {
        /// The request.
        req: u64,
    },
    /// A receive completed with the wrong length.
    ShortRecv {
        /// The receive request.
        req: u64,
        /// Delivered length.
        got: u64,
        /// Posted (= sent) length.
        want: u64,
    },
    /// Delivered bytes diverge from the sender-side snapshot.
    DataMismatch {
        /// The receive request.
        req: u64,
        /// First differing byte offset.
        offset: usize,
    },
    /// The driver's notifier interval index answered a routing query
    /// differently from the naive full-table intersect scan.
    IndexDiverged {
        /// Node whose driver index diverged.
        node: usize,
        /// The address space queried.
        space: u32,
        /// Start vpn of the diverging query window.
        start_vpn: u64,
    },
    /// A page inside a region's protocol-visible (valid) prefix has a
    /// PTE that no longer maps the attached pinned frame. This is the
    /// differential oracle for the deferred-unpin path: the old eager
    /// path could never reach this state because it unpinned every
    /// invalidated page inside the notifier event itself, so any hit
    /// means the deferral exposed a stale page to the protocol.
    StaleVisible {
        /// Node whose driver exposed the stale page.
        node: usize,
        /// The offending region.
        region: u32,
        /// Region-relative page index inside the valid prefix.
        page: u64,
    },
    /// A tenant's attributed pinned pages exceeded its hard quota cap.
    QuotaExceeded {
        /// Node whose driver let the tenant through.
        node: usize,
        /// The over-cap process.
        proc: u32,
        /// Pages attributed to the tenant.
        pinned: u64,
        /// The profile's hard cap.
        cap: u64,
    },
    /// The per-tenant attributed pinned-page sum disagrees with the
    /// driver's global pinned count — attribution leaked or double-counted
    /// somewhere on the pin/unpin/evict path.
    TenantAccounting {
        /// Node where the books diverged.
        node: usize,
        /// Sum of per-tenant attributed pages.
        attributed: u64,
        /// The driver's global pinned count.
        pinned: u64,
    },
    /// A crashed process still owns driver state — its kernel exit path
    /// failed to reap a region (and whatever pins it held).
    OrphanPins {
        /// Node whose driver kept the dead tenant's state.
        node: usize,
        /// The crashed owner.
        proc: u32,
        /// The region that survived the crash.
        region: u32,
        /// Pages the orphaned region still holds pinned.
        pages: u64,
    },
    /// A completion was delivered for a request posted by a process
    /// incarnation that has since crashed.
    GhostCompletion {
        /// The request.
        req: u64,
    },
    /// Posted operations never completed although the engine went quiet
    /// (or never went quiet within the budget).
    Hang {
        /// Pairs with an unsettled side.
        outstanding: usize,
        /// Entries still in the engine's transfer tables.
        inflight: usize,
    },
    /// The stack panicked mid-run.
    Panic {
        /// The panic payload.
        message: String,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::PinAccounting {
                node,
                declared,
                pinned,
            } => write!(
                f,
                "pin accounting: node {node} driver says {declared} pages pinned, frame pool says {pinned}"
            ),
            Violation::DeadSpacePin { node, region } => write!(
                f,
                "dead-space pin: node {node} region {region} holds pins for a destroyed space"
            ),
            Violation::CacheIncoherent { proc, region } => write!(
                f,
                "cache incoherent: proc {proc} caches undeclared region {region}"
            ),
            Violation::CacheDuplicate { node, region } => {
                write!(f, "cache duplicate: node {node} region {region} cached twice")
            }
            Violation::RegionLeak {
                node,
                declared,
                cached,
            } => write!(
                f,
                "region leak: node {node} has {declared} declared vs {cached} cached at quiescence"
            ),
            Violation::XferLeak { count } => {
                write!(f, "xfer leak: {count} protocol table entries after a clean run")
            }
            Violation::DoubleCompletion { req } => {
                write!(f, "double completion: request {req}")
            }
            Violation::UnknownCompletion { req } => {
                write!(f, "unknown completion: request {req}")
            }
            Violation::ShortRecv { req, got, want } => {
                write!(f, "short recv: request {req} delivered {got} of {want} bytes")
            }
            Violation::DataMismatch { req, offset } => {
                write!(f, "data mismatch: request {req} first diverges at byte {offset}")
            }
            Violation::IndexDiverged {
                node,
                space,
                start_vpn,
            } => write!(
                f,
                "index diverged: node {node} space {space} window at vpn {start_vpn} routed differently than the naive scan"
            ),
            Violation::StaleVisible { node, region, page } => write!(
                f,
                "stale visible: node {node} region {region} page {page} is protocol-visible but its PTE left the pinned frame"
            ),
            Violation::QuotaExceeded {
                node,
                proc,
                pinned,
                cap,
            } => write!(
                f,
                "quota exceeded: node {node} proc {proc} holds {pinned} pinned pages over its hard cap of {cap}"
            ),
            Violation::TenantAccounting {
                node,
                attributed,
                pinned,
            } => write!(
                f,
                "tenant accounting: node {node} attributes {attributed} pages across tenants but {pinned} are pinned"
            ),
            Violation::OrphanPins {
                node,
                proc,
                region,
                pages,
            } => write!(
                f,
                "orphan pins: node {node} region {region} (owner proc {proc}, {pages} pages pinned) survived its owner's crash"
            ),
            Violation::GhostCompletion { req } => write!(
                f,
                "ghost completion: request {req} completed after its owner crashed"
            ),
            Violation::Hang {
                outstanding,
                inflight,
            } => write!(
                f,
                "hang: {outstanding} operations never completed ({inflight} xfer entries in flight)"
            ),
            Violation::Panic { message } => write!(f, "panic: {message}"),
        }
    }
}

/// A deliberate bug injected into an otherwise correct run, to prove the
/// oracle has teeth.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mutation {
    /// After op `after_op`, pin one page behind the driver's back and leak
    /// it — the frame pool count diverges from the region accounting.
    LeakPin {
        /// Op index to inject after (clamped to the op count).
        after_op: usize,
    },
    /// Drop the `nth` application completion on the floor — the operation
    /// appears to hang.
    SwallowCompletion {
        /// Zero-based completion index to swallow.
        nth: usize,
    },
    /// After op `after_op`, make one invalidated region forget its stale
    /// watermark — or, when nothing is stale yet, unmap a pinned page and
    /// swallow the notifier events. Both are the same bug seen from two
    /// ends: a lost MMU-notifier callback leaves moved pages
    /// protocol-visible.
    ForgetStale {
        /// Op index to inject after (clamped to the op count).
        after_op: usize,
    },
    /// Disable per-tenant quota enforcement in every driver while the
    /// profile still advertises a quota — tenants sail past their hard
    /// cap and the per-tick quota oracle must notice.
    SkipQuota,
    /// Crash ops mark the process dead but skip the kernel exit path's
    /// reap wholesale — every pin the dead tenant owned leaks and its
    /// transfer-table entries rot. The per-tick orphan-pin oracle must
    /// notice on the very next tick.
    LeakOnCrash,
}

/// What one executed schedule produced.
#[derive(Clone, Debug, Default)]
pub struct RunOutcome {
    /// Violations, in detection order (empty = run passed).
    pub violations: Vec<Violation>,
    /// Ops actually applied before the run ended.
    pub ops_executed: usize,
    /// Transfers posted.
    pub xfers: usize,
    /// Application completions observed.
    pub completions: usize,
    /// Flight-recorder dump (post-mortem JSON: last correlated spans +
    /// metrics snapshot + repro string), present iff the run failed.
    pub post_mortem: Option<String>,
    /// Final per-node driver counters — lets a pinned repro assert it
    /// actually exercised the path it was minimized for (e.g. a deferral
    /// really parked, a drain really cancelled) instead of passing
    /// vacuously. Empty when the run panicked before completion.
    pub driver_stats: Vec<openmx_core::obs::DriverStats>,
    /// Final merged engine counters (fence drops, dead-peer aborts, crash
    /// reaps, restarts …) — the crash-path equivalent of `driver_stats`
    /// for pinned-repro signatures. Empty when the run panicked.
    pub counters: simcore::Counters,
}

/// A process that does nothing but record its completions for the harness.
struct Collector {
    events: Rc<RefCell<Vec<(ProcId, AppEvent)>>>,
}

impl Process for Collector {
    fn start(&mut self, _ctx: &mut Ctx<'_>) {}
    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: AppEvent) {
        self.events.borrow_mut().push((ctx.me(), event));
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Side {
    Send,
    Recv,
}

/// One posted transfer and everything the oracle knows about it.
struct Pair {
    send_req: u64,
    recv_req: Option<u64>,
    sender: usize,
    receiver: usize,
    sbuf: usize,
    rbuf: usize,
    raddr: VirtAddr,
    len: u64,
    /// Pure-Rust model of the sender's buffer content at post time.
    snapshot: Vec<u8>,
    /// Content-changing churn touched a buffer mid-flight: waive the data
    /// and length checks (completion conservation still applies).
    tainted: bool,
    send_done: bool,
    send_failed: bool,
    recv_done: bool,
    recv_failed: bool,
    /// The sender crashed with this side unsettled: no completion will
    /// ever come, and one arriving anyway is a ghost.
    send_excused: bool,
    /// Same for the receiver side (also set when the receive was never
    /// posted because its target was already dead).
    recv_excused: bool,
}

impl Pair {
    fn send_settled(&self) -> bool {
        self.send_done || self.send_failed || self.send_excused
    }
    /// A receive whose partner failed — or died with its send unsettled —
    /// may legitimately never complete (nothing will ever match it).
    fn recv_settled(&self) -> bool {
        self.recv_done
            || self.recv_failed
            || self.recv_excused
            || self.send_failed
            || self.send_excused
    }
    fn settled(&self) -> bool {
        self.send_settled() && self.recv_settled()
    }
    fn clean(&self) -> bool {
        self.send_done && self.recv_done && !self.send_failed && !self.recv_failed
    }
}

/// A receive the schedule posts late so the message arrives unexpected.
struct PendingRecv {
    pair: usize,
    ticks_left: u32,
    tag: u64,
    receiver: usize,
    raddr: VirtAddr,
    len: u64,
}

struct Harness {
    nprocs: usize,
    bufs: Vec<Vec<VirtAddr>>,
    mapped: Vec<Vec<bool>>,
    pairs: Vec<Pair>,
    by_req: BTreeMap<u64, (usize, Side)>,
    pending_recvs: Vec<PendingRecv>,
    children: BTreeMap<usize, AsId>,
    events: Rc<RefCell<Vec<(ProcId, AppEvent)>>>,
    /// Which processes are currently crashed (awaiting restart).
    crashed: Vec<bool>,
    /// Requests whose owning incarnation crashed before they settled: any
    /// completion delivered for one of these is a ghost.
    ghost_reqs: BTreeSet<u64>,
    rng: SimRng,
    /// The profile's per-tenant hard cap, sourced from the schedule (not
    /// the driver) so a mutation that blinds enforcement cannot also
    /// blind the oracle.
    quota_cap: Option<u64>,
    mutation: Option<Mutation>,
    completions: usize,
    violations: Vec<Violation>,
}

impl Harness {
    fn taint_touching(&mut self, proc: usize, buf: usize) {
        for p in self.pairs.iter_mut() {
            if p.recv_done {
                continue;
            }
            if (p.sender == proc && p.sbuf == buf) || (p.receiver == proc && p.rbuf == buf) {
                p.tainted = true;
            }
        }
    }

    fn ensure_mapped(&mut self, cl: &mut Cluster, p: usize, b: usize) {
        if self.mapped[p][b] {
            return;
        }
        cl.vm_mmap_at(ProcId(p as u32), self.bufs[p][b], BUF_LEN)
            .expect("remap harness buffer");
        self.mapped[p][b] = true;
    }

    fn post_recv(&mut self, cl: &mut Cluster, pair: usize, tag: u64) {
        let (receiver, raddr, len) = {
            let p = &self.pairs[pair];
            (p.receiver, p.raddr, p.len)
        };
        let req = cl.drive(ProcId(receiver as u32), |ctx| {
            ctx.irecv(tag, !0u64, raddr, len)
        });
        self.pairs[pair].recv_req = Some(req.0);
        self.by_req.insert(req.0, (pair, Side::Recv));
    }

    fn apply_op(&mut self, cl: &mut Cluster, op: &Op) {
        match op {
            Op::Advance { .. } => {}
            Op::Xfer {
                src,
                sbuf,
                dst,
                rbuf,
                len,
                recv_first,
            } => {
                if self.nprocs < 2 {
                    return;
                }
                let sp = *src as usize % self.nprocs;
                let mut dp = *dst as usize % self.nprocs;
                if dp == sp {
                    dp = (dp + 1) % self.nprocs;
                }
                let sb = *sbuf as usize % BUFS_PER_PROC;
                let rb = *rbuf as usize % BUFS_PER_PROC;
                let len = (*len as u64).clamp(1, BUF_LEN);
                if self.crashed[sp] {
                    return; // dead sender: nothing to drive
                }
                if self.crashed[dp] {
                    // Send into a dead peer: post only the send. It must
                    // settle with a clean failure through the dead-peer
                    // short-circuits — never hang, never SendDone.
                    self.ensure_mapped(cl, sp, sb);
                    self.taint_touching(sp, sb);
                    let mut data = vec![0u8; len as usize];
                    self.rng.fill_bytes(&mut data);
                    let saddr = self.bufs[sp][sb];
                    cl.drive(ProcId(sp as u32), |ctx| ctx.write_buf(saddr, &data));
                    let pair = self.pairs.len();
                    let tag = 0x5e5e_0000 + pair as u64;
                    let sreq = cl.drive(ProcId(sp as u32), |ctx| {
                        ctx.isend(ProcId(dp as u32), tag, saddr, len)
                    });
                    self.pairs.push(Pair {
                        send_req: sreq.0,
                        recv_req: None,
                        sender: sp,
                        receiver: dp,
                        sbuf: sb,
                        rbuf: rb,
                        raddr: self.bufs[dp][rb],
                        len,
                        snapshot: data,
                        tainted: true,
                        send_done: false,
                        send_failed: false,
                        recv_done: false,
                        recv_failed: false,
                        send_excused: false,
                        recv_excused: true,
                    });
                    self.by_req.insert(sreq.0, (pair, Side::Send));
                    return;
                }
                self.ensure_mapped(cl, sp, sb);
                self.ensure_mapped(cl, dp, rb);

                // A concurrent delivery into the source or target buffer
                // makes this pair's final bytes order-dependent.
                let birth_taint = self.pairs.iter().any(|p| {
                    !p.recv_done
                        && !p.recv_failed
                        && ((p.receiver == dp && p.rbuf == rb)
                            || (p.receiver == sp && p.rbuf == sb))
                });
                // Writing the pattern mutates the source under any pair
                // already reading it; the new delivery mutates the target.
                self.taint_touching(sp, sb);
                self.taint_touching(dp, rb);

                let mut data = vec![0u8; len as usize];
                self.rng.fill_bytes(&mut data);
                let saddr = self.bufs[sp][sb];
                cl.drive(ProcId(sp as u32), |ctx| ctx.write_buf(saddr, &data));

                let pair = self.pairs.len();
                let tag = 0x5e5e_0000 + pair as u64;
                let raddr = self.bufs[dp][rb];
                if *recv_first {
                    self.pairs.push(Pair {
                        send_req: 0,
                        recv_req: None,
                        sender: sp,
                        receiver: dp,
                        sbuf: sb,
                        rbuf: rb,
                        raddr,
                        len,
                        snapshot: data,
                        tainted: birth_taint,
                        send_done: false,
                        send_failed: false,
                        recv_done: false,
                        recv_failed: false,
                        send_excused: false,
                        recv_excused: false,
                    });
                    self.post_recv(cl, pair, tag);
                    let sreq = cl.drive(ProcId(sp as u32), |ctx| {
                        ctx.isend(ProcId(dp as u32), tag, saddr, len)
                    });
                    self.pairs[pair].send_req = sreq.0;
                    self.by_req.insert(sreq.0, (pair, Side::Send));
                } else {
                    let sreq = cl.drive(ProcId(sp as u32), |ctx| {
                        ctx.isend(ProcId(dp as u32), tag, saddr, len)
                    });
                    self.pairs.push(Pair {
                        send_req: sreq.0,
                        recv_req: None,
                        sender: sp,
                        receiver: dp,
                        sbuf: sb,
                        rbuf: rb,
                        raddr,
                        len,
                        snapshot: data,
                        tainted: birth_taint,
                        send_done: false,
                        send_failed: false,
                        recv_done: false,
                        recv_failed: false,
                        send_excused: false,
                        recv_excused: false,
                    });
                    self.by_req.insert(sreq.0, (pair, Side::Send));
                    // Post the receive a few ticks late: the message (or
                    // its rendezvous) arrives unexpected.
                    self.pending_recvs.push(PendingRecv {
                        pair,
                        ticks_left: 3,
                        tag,
                        receiver: dp,
                        raddr,
                        len,
                    });
                }
            }
            Op::Churn { proc, buf, kind } => {
                let p = *proc as usize % self.nprocs;
                if self.crashed[p] {
                    return; // no address space to churn
                }
                let b = *buf as usize % BUFS_PER_PROC;
                let pid = ProcId(p as u32);
                let addr = self.bufs[p][b];
                match kind {
                    ChurnKind::Unmap => {
                        if self.mapped[p][b] {
                            self.taint_touching(p, b);
                            cl.vm_munmap(pid, addr, BUF_LEN)
                                .expect("munmap mapped buffer");
                            self.mapped[p][b] = false;
                        }
                    }
                    ChurnKind::UnmapRemap => {
                        self.taint_touching(p, b);
                        if self.mapped[p][b] {
                            cl.vm_munmap(pid, addr, BUF_LEN)
                                .expect("munmap mapped buffer");
                        }
                        cl.vm_mmap_at(pid, addr, BUF_LEN)
                            .expect("remap harness buffer");
                        self.mapped[p][b] = true;
                    }
                    ChurnKind::CowWrite => {
                        if let Some(old) = self.children.remove(&p) {
                            let node = cl.node_of(pid);
                            let _ = cl.vm_destroy_space(node, old);
                        }
                        if let Ok(child) = cl.vm_fork(pid) {
                            self.children.insert(p, child);
                        }
                        if self.mapped[p][b] {
                            self.taint_touching(p, b);
                            let mut page = vec![0u8; PAGE_SIZE as usize];
                            self.rng.fill_bytes(&mut page);
                            cl.drive(pid, |ctx| ctx.write_buf(addr, &page));
                        }
                    }
                    ChurnKind::SwapOut => {
                        // Content-preserving: deliberately no taint — swap
                        // must be invisible to the data oracle.
                        let _ = cl.vm_swap_out(pid, addr, BUF_LEN);
                    }
                    ChurnKind::SwapIn => {
                        if self.mapped[p][b] {
                            let _ = cl.vm_swap_in(pid, addr, BUF_LEN);
                        }
                    }
                    ChurnKind::Migrate => {
                        // Content-preserving, like SwapOut.
                        let _ = cl.vm_migrate(pid, addr, BUF_LEN);
                    }
                    ChurnKind::Rewrite => {
                        if self.mapped[p][b] {
                            self.taint_touching(p, b);
                            let mut data = vec![0u8; BUF_LEN as usize];
                            self.rng.fill_bytes(&mut data);
                            cl.drive(pid, |ctx| ctx.write_buf(addr, &data));
                        }
                    }
                }
            }
            Op::Crash { proc } => {
                let p = *proc as usize % self.nprocs;
                if self.crashed[p] {
                    return;
                }
                // Excuse both sides owned by the dying incarnation:
                // nothing will ever complete them, and any completion
                // that arrives anyway is a ghost. Taint waives the data
                // checks for surviving partners; a live partner must
                // still settle on its own (watchdog or reap failure).
                for pr in self.pairs.iter_mut() {
                    if pr.sender == p {
                        if !(pr.send_done || pr.send_failed) {
                            pr.send_excused = true;
                            self.ghost_reqs.insert(pr.send_req);
                        }
                        if !(pr.recv_done || pr.recv_failed) {
                            // Even an acked send's bytes die with the
                            // sender (the crash purges unexpected data);
                            // a tag-only posted receive has no protocol
                            // state the engine could fail.
                            pr.recv_excused = true;
                        }
                        pr.tainted = true;
                    }
                    if pr.receiver == p && !(pr.recv_done || pr.recv_failed) {
                        pr.recv_excused = true;
                        pr.tainted = true;
                        if let Some(r) = pr.recv_req {
                            self.ghost_reqs.insert(r);
                        }
                    }
                }
                // Unposted receives die with the process.
                self.pending_recvs.retain(|pr| pr.receiver != p);
                for b in 0..BUFS_PER_PROC {
                    self.mapped[p][b] = false;
                }
                self.crashed[p] = true;
                if matches!(self.mutation, Some(Mutation::LeakOnCrash)) {
                    cl.crash_proc_leaky_for_test(ProcId(p as u32));
                } else {
                    cl.crash_proc(ProcId(p as u32));
                }
            }
            Op::Restart { proc } => {
                let p = *proc as usize % self.nprocs;
                if !self.crashed[p] {
                    return;
                }
                cl.restart_proc(
                    ProcId(p as u32),
                    Box::new(Collector {
                        events: self.events.clone(),
                    }),
                );
                self.crashed[p] = false;
                // Buffers keep their old virtual addresses; `ensure_mapped`
                // remaps them into the fresh space as ops touch them.
            }
        }
    }

    fn tick_pending_recvs(&mut self, cl: &mut Cluster) {
        let mut due = Vec::new();
        for pr in self.pending_recvs.iter_mut() {
            if pr.ticks_left == 0 {
                continue;
            }
            pr.ticks_left -= 1;
            if pr.ticks_left == 0 {
                due.push((pr.pair, pr.tag, pr.receiver, pr.raddr, pr.len));
            }
        }
        self.pending_recvs.retain(|pr| pr.ticks_left > 0);
        for (pair, tag, _receiver, _raddr, _len) in due {
            self.post_recv(cl, pair, tag);
        }
    }

    fn flush_pending_recvs(&mut self, cl: &mut Cluster) {
        let due: Vec<(usize, u64)> = self
            .pending_recvs
            .iter()
            .map(|pr| (pr.pair, pr.tag))
            .collect();
        self.pending_recvs.clear();
        for (pair, tag) in due {
            self.post_recv(cl, pair, tag);
        }
    }

    fn drain(&mut self, cl: &mut Cluster) {
        let drained: Vec<(ProcId, AppEvent)> = self.events.borrow_mut().drain(..).collect();
        for (_proc, ev) in drained {
            let (req, is_fail, len) = match ev {
                AppEvent::SendDone(r) => (r.0, false, None),
                AppEvent::RecvDone(r, n) => (r.0, false, Some(n)),
                AppEvent::Failed(r, _) => (r.0, true, None),
                AppEvent::ComputeDone(_) => continue,
            };
            let idx = self.completions;
            self.completions += 1;
            if matches!(self.mutation, Some(Mutation::SwallowCompletion { nth }) if nth == idx) {
                continue;
            }
            if self.ghost_reqs.contains(&req) {
                self.violations.push(Violation::GhostCompletion { req });
                continue;
            }
            let Some(&(pi, side)) = self.by_req.get(&req) else {
                self.violations.push(Violation::UnknownCompletion { req });
                continue;
            };
            match (side, is_fail) {
                (Side::Send, false) => {
                    if self.pairs[pi].send_done || self.pairs[pi].send_failed {
                        self.violations.push(Violation::DoubleCompletion { req });
                    }
                    self.pairs[pi].send_done = true;
                }
                (Side::Send, true) => {
                    // A late watchdog failure after SendDone is a legal
                    // sequence (the notify tail went silent); a second
                    // Failed is not.
                    if self.pairs[pi].send_failed {
                        self.violations.push(Violation::DoubleCompletion { req });
                    }
                    self.pairs[pi].send_failed = true;
                }
                (Side::Recv, true) => {
                    if self.pairs[pi].recv_failed || self.pairs[pi].recv_done {
                        self.violations.push(Violation::DoubleCompletion { req });
                    }
                    self.pairs[pi].recv_failed = true;
                }
                (Side::Recv, false) => {
                    if self.pairs[pi].recv_done || self.pairs[pi].recv_failed {
                        self.violations.push(Violation::DoubleCompletion { req });
                        continue;
                    }
                    self.pairs[pi].recv_done = true;
                    let got = len.unwrap_or(0);
                    if self.pairs[pi].tainted {
                        continue;
                    }
                    let want = self.pairs[pi].len;
                    if got != want {
                        self.violations
                            .push(Violation::ShortRecv { req, got, want });
                        continue;
                    }
                    let (receiver, raddr) = (self.pairs[pi].receiver, self.pairs[pi].raddr);
                    let bytes = cl.read_proc(ProcId(receiver as u32), raddr, want);
                    if let Some(offset) = bytes
                        .iter()
                        .zip(&self.pairs[pi].snapshot)
                        .position(|(a, b)| a != b)
                    {
                        self.violations
                            .push(Violation::DataMismatch { req, offset });
                    }
                }
            }
        }
    }

    fn check_invariants(&mut self, cl: &Cluster) {
        for node in 0..cl.node_count() {
            let declared = cl.driver(node).pinned_pages_total();
            let pinned = cl.memory(node).frames().pinned_pages() as u64;
            if declared != pinned {
                self.violations.push(Violation::PinAccounting {
                    node,
                    declared,
                    pinned,
                });
            }
            // Tenant books: attribution must partition the global pinned
            // count, and (when the profile runs quotas) no tenant may sit
            // over its hard cap at any tick.
            let tenants = cl.driver(node).tenant_stats();
            let attributed: u64 = tenants.iter().map(|(_, t)| t.pinned_pages).sum();
            if attributed != declared {
                self.violations.push(Violation::TenantAccounting {
                    node,
                    attributed,
                    pinned: declared,
                });
            }
            if let Some(cap) = self.quota_cap {
                for (proc, t) in &tenants {
                    if t.pinned_pages > cap {
                        self.violations.push(Violation::QuotaExceeded {
                            node,
                            proc: proc.0,
                            pinned: t.pinned_pages,
                            cap,
                        });
                    }
                }
            }
            for (rid, r) in cl.driver(node).iter_regions() {
                // Crash fault domain: a dead tenant must leave nothing
                // behind — the kernel exit path reaps every region it
                // owned, pinned or not, before the tick ends.
                let owner = r.owner.0 as usize;
                if owner < self.nprocs && self.crashed[owner] {
                    self.violations.push(Violation::OrphanPins {
                        node,
                        proc: r.owner.0,
                        region: rid.0,
                        pages: r.pinned_pages(),
                    });
                    continue;
                }
                if r.pinned_pages() > 0 && !cl.memory(node).space_exists(r.space) {
                    self.violations.push(Violation::DeadSpacePin {
                        node,
                        region: rid.0,
                    });
                    continue;
                }
                if !cl.memory(node).space_exists(r.space) {
                    continue;
                }
                // Deferred-unpin differential check: every page the
                // region exposes to the protocol (the valid prefix —
                // stale pages past the watermark are excluded) must
                // still be mapped to the exact frame that was pinned.
                // The eager path trivially satisfies this by unpinning
                // inside the event; the deferral must too.
                for idx in 0..r.valid_pages() {
                    let vpn = r.layout.vpn_of_page(idx);
                    if cl.memory(node).resident_pfn(r.space, vpn)
                        != Some(r.pinned_pfns()[idx as usize])
                    {
                        self.violations.push(Violation::StaleVisible {
                            node,
                            region: rid.0,
                            page: idx,
                        });
                    }
                }
            }
            // Notifier-routing cross-check: for every declared segment
            // range (and a window widened one page past each boundary),
            // the interval index must agree with the naive intersect
            // scan — a false negative here is a region a real munmap
            // would have silently failed to unpin.
            let driver = cl.driver(node);
            for (_, r) in driver.iter_regions() {
                for seg in r.layout.segments() {
                    let exact = seg.page_range();
                    let probe =
                        VpnRange::new(Vpn(exact.start.0.saturating_sub(1)), Vpn(exact.end.0 + 1));
                    for q in [exact, probe] {
                        if driver.regions_intersecting(r.space, &q)
                            != driver.regions_intersecting_naive(r.space, &q)
                        {
                            self.violations.push(Violation::IndexDiverged {
                                node,
                                space: r.space.0,
                                start_vpn: q.start.0,
                            });
                        }
                    }
                }
            }
        }
        let mut per_node_seen: BTreeMap<usize, BTreeSet<u32>> = BTreeMap::new();
        for p in 0..self.nprocs {
            let proc = ProcId(p as u32);
            let node = cl.node_of(proc);
            for rid in cl.cached_region_ids(proc) {
                if !cl.driver(node).is_declared(rid) {
                    self.violations.push(Violation::CacheIncoherent {
                        proc: p,
                        region: rid.0,
                    });
                }
                if !per_node_seen.entry(node).or_default().insert(rid.0) {
                    self.violations.push(Violation::CacheDuplicate {
                        node,
                        region: rid.0,
                    });
                }
            }
        }
    }

    fn inject_leak_pin(&mut self, cl: &mut Cluster) {
        // Pin one page of some mapped harness buffer directly in the frame
        // pool, bypassing the driver's region accounting, and leak it.
        for p in 0..self.nprocs {
            for b in 0..BUFS_PER_PROC {
                if !self.mapped[p][b] {
                    continue;
                }
                let pid = ProcId(p as u32);
                let node = cl.node_of(pid);
                let space = cl.space_of(pid);
                let addr = self.bufs[p][b];
                if cl
                    .memory_mut(node)
                    .pin_user_pages(space, addr, PAGE_SIZE)
                    .is_ok()
                {
                    return;
                }
            }
        }
        // Everything unmapped: bring one buffer back and pin that.
        self.ensure_mapped(cl, 0, 0);
        let node = cl.node_of(ProcId(0));
        let space = cl.space_of(ProcId(0));
        let addr = self.bufs[0][0];
        cl.memory_mut(node)
            .pin_user_pages(space, addr, PAGE_SIZE)
            .expect("leak-pin target");
    }

    fn inject_forget_stale(&mut self, cl: &mut Cluster) {
        // Preferred: a region already parked with a stale suffix (the
        // deferred-unpin window) — clear the watermark so the moved
        // pages become protocol-visible again.
        for node in 0..cl.node_count() {
            let hit = cl
                .driver(node)
                .iter_regions()
                .find(|(_, r)| r.stale_pages() > 0)
                .map(|(rid, _)| rid);
            if let Some(rid) = hit {
                cl.driver_mut(node)
                    .region_mut(rid)
                    .forget_stale_watermark_for_test();
                return;
            }
        }
        // Nothing stale yet: lose a notifier callback instead. Unmap one
        // pinned page straight through the memory subsystem and drop the
        // events on the floor — the driver keeps exposing the old frame.
        for node in 0..cl.node_count() {
            let candidates: Vec<_> = cl
                .driver(node)
                .iter_regions()
                .filter(|(_, r)| r.valid_pages() > 0)
                .map(|(_, r)| (r.space, r.layout.vpn_of_page(0)))
                .collect();
            for (space, vpn) in candidates {
                if cl
                    .memory_mut(node)
                    .munmap(space, vpn.base(), PAGE_SIZE)
                    .is_ok()
                {
                    return;
                }
            }
        }
    }
}

/// Execute a schedule against the real stack, checking every invariant at
/// every tick. Deterministic: the outcome is a pure function of
/// `(schedule, mutation)`. Panics from the stack propagate — use
/// [`run_schedule_catching`] to turn them into [`Violation::Panic`].
pub fn run_schedule(s: &Schedule, mutation: Option<Mutation>) -> RunOutcome {
    let profile = profile_by_name(&s.profile).expect("unknown profile");
    let nodes = s.nodes.clamp(1, 8) as usize;
    let ppn = s.procs_per_node.clamp(1, 4) as usize;
    let nprocs = nodes * ppn;
    let cfg = schedule_cfg(s, &profile);
    let mut cl = Cluster::new(cfg, nodes);
    // Bounded tracing feeds the flight recorder on failure; the ring cap
    // keeps long schedules at a fixed memory footprint.
    cl.enable_trace_with_capacity(TRACE_CAPACITY);
    if matches!(mutation, Some(Mutation::SkipQuota)) {
        for n in 0..cl.node_count() {
            cl.driver_mut(n).disable_quota_enforcement_for_test();
        }
    }
    let events: Rc<RefCell<Vec<(ProcId, AppEvent)>>> = Rc::default();
    for p in 0..nprocs {
        cl.add_process(
            p / ppn,
            Box::new(Collector {
                events: events.clone(),
            }),
        );
    }
    cl.start();

    let mut h = Harness {
        nprocs,
        bufs: Vec::new(),
        mapped: vec![vec![true; BUFS_PER_PROC]; nprocs],
        pairs: Vec::new(),
        by_req: BTreeMap::new(),
        pending_recvs: Vec::new(),
        children: BTreeMap::new(),
        events,
        crashed: vec![false; nprocs],
        ghost_reqs: BTreeSet::new(),
        rng: SimRng::new(s.seed).derive_stream("harness"),
        quota_cap: profile.pin_quota.map(|q| q.hard_cap),
        mutation,
        completions: 0,
        violations: Vec::new(),
    };
    for p in 0..nprocs {
        let mut row = Vec::with_capacity(BUFS_PER_PROC);
        for _ in 0..BUFS_PER_PROC {
            row.push(cl.vm_mmap(ProcId(p as u32), BUF_LEN));
        }
        h.bufs.push(row);
    }

    let mut ops_executed = 0usize;
    'run: {
        for (i, op) in s.ops.iter().enumerate() {
            h.apply_op(&mut cl, op);
            ops_executed += 1;
            if matches!(mutation, Some(Mutation::LeakPin { after_op }) if after_op == i) {
                h.inject_leak_pin(&mut cl);
            }
            if matches!(mutation, Some(Mutation::ForgetStale { after_op }) if after_op == i) {
                h.inject_forget_stale(&mut cl);
            }
            let ticks = match op {
                Op::Advance { ticks } => (*ticks).max(1) as u32,
                _ => 1,
            };
            for _ in 0..ticks {
                h.tick_pending_recvs(&mut cl);
                let t = cl.now() + TICK;
                cl.step_until(t);
                h.drain(&mut cl);
                h.check_invariants(&cl);
                if !h.violations.is_empty() {
                    break 'run;
                }
            }
        }
        if matches!(mutation, Some(Mutation::LeakPin { after_op }) if after_op >= s.ops.len()) {
            h.inject_leak_pin(&mut cl);
        }
        if matches!(mutation, Some(Mutation::ForgetStale { after_op }) if after_op >= s.ops.len()) {
            h.inject_forget_stale(&mut cl);
        }
        // Quiescence: post any still-delayed receives, then drain the
        // event queue completely (timers included) in bounded chunks.
        h.flush_pending_recvs(&mut cl);
        let mut chunks = 0usize;
        while cl.next_event_time().is_some() && chunks < QUIESCE_CHUNKS {
            let t = cl.now() + QUIESCE_CHUNK;
            cl.step_until(t);
            h.drain(&mut cl);
            h.check_invariants(&cl);
            if !h.violations.is_empty() {
                break 'run;
            }
            chunks += 1;
        }
        if cl.next_event_time().is_some() {
            // The queue never went quiet: timers re-arming forever.
            h.violations.push(Violation::Hang {
                outstanding: h.pairs.iter().filter(|p| !p.settled()).count(),
                inflight: cl.inflight_xfers(),
            });
            break 'run;
        }
        // Tear down forked children, then final conservation checks.
        let children: Vec<(usize, AsId)> = std::mem::take(&mut h.children).into_iter().collect();
        for (p, child) in children {
            let node = cl.node_of(ProcId(p as u32));
            let _ = cl.vm_destroy_space(node, child);
        }
        let outstanding = h.pairs.iter().filter(|p| !p.settled()).count();
        if outstanding > 0 {
            h.violations.push(Violation::Hang {
                outstanding,
                inflight: cl.inflight_xfers(),
            });
            break 'run;
        }
        if h.pairs.iter().all(|p| p.clean()) {
            let inflight = cl.inflight_xfers();
            if inflight != 0 {
                h.violations.push(Violation::XferLeak { count: inflight });
            }
            for node in 0..cl.node_count() {
                let declared: BTreeSet<u32> = cl
                    .driver(node)
                    .iter_regions()
                    .map(|(rid, _)| rid.0)
                    .collect();
                let mut cached: BTreeSet<u32> = BTreeSet::new();
                for p in 0..nprocs {
                    let proc = ProcId(p as u32);
                    if cl.node_of(proc) == node {
                        cached.extend(cl.cached_region_ids(proc).iter().map(|r| r.0));
                    }
                }
                if declared != cached {
                    h.violations.push(Violation::RegionLeak {
                        node,
                        declared: declared.len(),
                        cached: cached.len(),
                    });
                }
            }
        }
        h.check_invariants(&cl);
    }

    // Flight recorder: package the failure (violations + last spans +
    // metrics + repro) into a post-mortem dump the caller can ship.
    let post_mortem = h.violations.first().map(|first| {
        openmx_core::obs::post_mortem_json(
            &format!("invariant violation: {first}"),
            Some(&encode(s)),
            cl.tracer(),
            cl.metrics(),
            POST_MORTEM_SPANS,
        )
    });
    let driver_stats = (0..cl.node_count()).map(|n| cl.driver(n).stats()).collect();
    RunOutcome {
        violations: h.violations,
        ops_executed,
        xfers: h.pairs.len(),
        completions: h.completions,
        post_mortem,
        driver_stats,
        counters: cl.counters(),
    }
}

/// [`run_schedule`], with panics from the stack converted into a
/// [`Violation::Panic`] outcome instead of unwinding into the caller.
pub fn run_schedule_catching(s: &Schedule, mutation: Option<Mutation>) -> RunOutcome {
    match catch_unwind(AssertUnwindSafe(|| run_schedule(s, mutation))) {
        Ok(out) => out,
        Err(payload) => {
            let message = payload
                .downcast_ref::<&'static str>()
                .map(|m| m.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".to_string());
            let post_mortem = openmx_core::obs::post_mortem_json(
                &format!("panic: {message}"),
                Some(&encode(s)),
                &openmx_core::Tracer::disabled(),
                &openmx_core::Metrics::default(),
                POST_MORTEM_SPANS,
            );
            RunOutcome {
                violations: vec![Violation::Panic { message }],
                post_mortem: Some(post_mortem),
                ..RunOutcome::default()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{generate, profiles};

    fn tiny() -> Schedule {
        Schedule {
            seed: 11,
            profile: "churn".into(),
            nodes: 2,
            procs_per_node: 1,
            ops: vec![
                Op::Xfer {
                    src: 0,
                    sbuf: 0,
                    dst: 1,
                    rbuf: 0,
                    len: 49_152,
                    recv_first: true,
                },
                Op::Advance { ticks: 5 },
            ],
        }
    }

    #[test]
    fn tiny_clean_schedule_passes() {
        let out = run_schedule(&tiny(), None);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert_eq!(out.xfers, 1);
        assert!(out.completions >= 2, "send+recv completions");
    }

    #[test]
    fn unexpected_path_and_churn_pass() {
        let s = Schedule {
            seed: 12,
            profile: "churn".into(),
            nodes: 2,
            procs_per_node: 2,
            ops: vec![
                Op::Xfer {
                    src: 0,
                    sbuf: 0,
                    dst: 2,
                    rbuf: 1,
                    len: 262_144,
                    recv_first: false,
                },
                Op::Churn {
                    proc: 0,
                    buf: 0,
                    kind: ChurnKind::SwapOut,
                },
                Op::Churn {
                    proc: 2,
                    buf: 1,
                    kind: ChurnKind::Migrate,
                },
                Op::Advance { ticks: 10 },
                Op::Churn {
                    proc: 0,
                    buf: 0,
                    kind: ChurnKind::Unmap,
                },
            ],
        };
        let out = run_schedule(&s, None);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
    }

    #[test]
    fn run_is_deterministic() {
        let p = &profiles()[0];
        let s = generate(3, p);
        let a = run_schedule_catching(&s, None);
        let b = run_schedule_catching(&s, None);
        assert_eq!(a.violations, b.violations);
        assert_eq!(a.completions, b.completions);
        assert_eq!(a.xfers, b.xfers);
    }

    #[test]
    fn leaked_pin_trips_pin_accounting() {
        let out = run_schedule(&tiny(), Some(Mutation::LeakPin { after_op: 0 }));
        assert!(
            out.violations
                .iter()
                .any(|v| matches!(v, Violation::PinAccounting { .. })),
            "{:?}",
            out.violations
        );
    }

    #[test]
    fn failing_run_ships_a_post_mortem_and_clean_run_does_not() {
        let clean = run_schedule(&tiny(), None);
        assert!(clean.post_mortem.is_none());

        let out = run_schedule(&tiny(), Some(Mutation::LeakPin { after_op: 0 }));
        assert!(!out.violations.is_empty());
        let pm = out.post_mortem.expect("failure must carry a post-mortem");
        assert!(pm.starts_with("{\"reason\":\"invariant violation:"));
        assert!(
            pm.contains("\"repro\":\""),
            "dump must embed the repro string"
        );
        assert!(
            pm.contains("\"spans\":["),
            "dump must carry correlated spans"
        );
        assert!(pm.contains("\"metrics\":{"), "dump must snapshot metrics");
    }

    #[test]
    fn forgotten_stale_watermark_trips_stale_visible() {
        // Pin a rendezvous transfer to completion, unmap the send buffer
        // (marking its pinned suffix stale), then inject right after the
        // unmap: whichever branch fires — watermark forgotten in the
        // deferred window, or a notifier callback lost outright — the
        // per-tick residency oracle must flag the exposed page.
        let s = Schedule {
            seed: 21,
            profile: "churn".into(),
            nodes: 2,
            procs_per_node: 1,
            ops: vec![
                Op::Xfer {
                    src: 0,
                    sbuf: 0,
                    dst: 1,
                    rbuf: 0,
                    len: 262_144,
                    recv_first: true,
                },
                Op::Advance { ticks: 10 },
                Op::Churn {
                    proc: 0,
                    buf: 0,
                    kind: ChurnKind::Unmap,
                },
            ],
        };
        let out = run_schedule(&s, Some(Mutation::ForgetStale { after_op: 2 }));
        assert!(
            out.violations
                .iter()
                .any(|v| matches!(v, Violation::StaleVisible { .. })),
            "{:?}",
            out.violations
        );
    }

    #[test]
    fn skipped_quota_enforcement_trips_quota_exceeded() {
        // Two back-to-back 80-page rendezvous sends from one tenant under
        // tenantmix's 96-page hard cap. Enforced, the second pin
        // self-evicts the first (idle, cached) region and stays legal;
        // with enforcement skipped both stay pinned and the per-tick
        // oracle must flag 160 > 96.
        let s = Schedule {
            seed: 31,
            profile: "tenantmix".into(),
            nodes: 2,
            procs_per_node: 1,
            ops: vec![
                Op::Xfer {
                    src: 0,
                    sbuf: 0,
                    dst: 1,
                    rbuf: 0,
                    len: 327_680,
                    recv_first: true,
                },
                Op::Advance { ticks: 20 },
                Op::Xfer {
                    src: 0,
                    sbuf: 1,
                    dst: 1,
                    rbuf: 1,
                    len: 327_680,
                    recv_first: true,
                },
                Op::Advance { ticks: 20 },
            ],
        };
        let clean = run_schedule(&s, None);
        assert!(clean.violations.is_empty(), "{:?}", clean.violations);
        let out = run_schedule(&s, Some(Mutation::SkipQuota));
        assert!(
            out.violations
                .iter()
                .any(|v| matches!(v, Violation::QuotaExceeded { .. })),
            "skipped quota not caught: {:?}",
            out.violations
        );
    }

    fn crash_cycle() -> Schedule {
        // Pin a rendezvous transfer to completion (the send region stays
        // pinned in the registration cache), crash the sender, then
        // restart it and run a fresh transfer through the new
        // incarnation.
        Schedule {
            seed: 41,
            profile: "crashstorm".into(),
            nodes: 2,
            procs_per_node: 1,
            ops: vec![
                Op::Xfer {
                    src: 0,
                    sbuf: 0,
                    dst: 1,
                    rbuf: 0,
                    len: 262_144,
                    recv_first: true,
                },
                Op::Advance { ticks: 30 },
                Op::Crash { proc: 0 },
                Op::Advance { ticks: 3 },
                Op::Restart { proc: 0 },
                Op::Xfer {
                    src: 0,
                    sbuf: 1,
                    dst: 1,
                    rbuf: 1,
                    len: 262_144,
                    recv_first: true,
                },
                Op::Advance { ticks: 10 },
            ],
        }
    }

    #[test]
    fn crash_restart_cycle_is_clean_and_reuses_the_proc() {
        let out = run_schedule(&crash_cycle(), None);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert_eq!(out.xfers, 2);
        assert!(out.completions >= 4, "both transfers must complete");
        assert_eq!(out.counters.get("proc_crashes"), 1);
        assert_eq!(out.counters.get("proc_restarts"), 1);
        assert!(
            out.counters.get("crash_reaped_pages") > 0,
            "the cached pinned region must be reaped at crash"
        );
    }

    #[test]
    fn leak_on_crash_trips_orphan_pins() {
        let out = run_schedule(&crash_cycle(), Some(Mutation::LeakOnCrash));
        assert!(
            out.violations
                .iter()
                .any(|v| matches!(v, Violation::OrphanPins { proc: 0, .. })),
            "leaky crash not caught: {:?}",
            out.violations
        );
    }

    #[test]
    fn crash_mid_transfer_fails_the_survivor_cleanly() {
        // Sender dies while the pull is in flight: the surviving receiver
        // must get a clean failure (no hang), and the run stays free of
        // orphan pins and ghost completions.
        let s = Schedule {
            seed: 43,
            profile: "crashstorm".into(),
            nodes: 2,
            procs_per_node: 1,
            ops: vec![
                Op::Xfer {
                    src: 0,
                    sbuf: 0,
                    dst: 1,
                    rbuf: 0,
                    len: 262_144,
                    recv_first: true,
                },
                Op::Crash { proc: 0 },
                Op::Advance { ticks: 40 },
            ],
        };
        let out = run_schedule(&s, None);
        assert!(out.violations.is_empty(), "{:?}", out.violations);
        assert!(
            out.counters.get("peer_dead_aborts") > 0 || out.counters.get("requests_failed") > 0,
            "survivor must observe a clean failure, got counters {:?}",
            out.counters.iter().collect::<Vec<_>>()
        );
    }

    #[test]
    fn swallowed_completion_trips_hang() {
        let out = run_schedule(&tiny(), Some(Mutation::SwallowCompletion { nth: 0 }));
        assert!(
            out.violations
                .iter()
                .any(|v| matches!(v, Violation::Hang { .. })),
            "{:?}",
            out.violations
        );
    }
}
