//! In-flight transfer state machines.
//!
//! These are plain data; all transitions live in the engine's handlers.
//! Tables are `BTreeMap`s so iteration order (and therefore the whole
//! simulation) is deterministic.

use std::collections::{BTreeMap, BTreeSet};

use simcore::{EventId, SimTime};
use simmem::VirtAddr;

use crate::driver::RegionId;
use crate::endpoint::{EagerRx, EndpointAddr, RequestId};
use crate::engine::{OverlapHint, ProcId};
use crate::wire::{MsgId, PullId, XferId};

/// Sender-side state of an in-flight eager message (kept for
/// retransmission until the ack arrives; the app already saw SendDone).
pub(crate) struct EagerTx {
    /// The application request — needed to deliver a clean failure if
    /// retransmission is ever exhausted (the app saw SendDone already,
    /// but MX semantics allow a late error on the handle).
    pub req: RequestId,
    /// Causal-trace id of the transfer.
    pub xfer: XferId,
    pub proc: ProcId,
    pub peer: EndpointAddr,
    pub match_info: u64,
    pub total_len: u64,
    pub data: Vec<u8>,
    pub timer: Option<EventId>,
    pub retries: u32,
    /// When the current (re)transmission went out — RTT sample on ack,
    /// Karn-gated by `retries == 0`.
    pub sent_at: SimTime,
}

/// Receiver-side state of a *matched* eager message still reassembling.
pub(crate) struct EagerRxMatched {
    pub rx: EagerRx,
    pub req: RequestId,
    pub proc: ProcId,
    pub addr: VirtAddr,
    /// Bytes to copy to the user buffer (min of sent and posted length).
    pub copy_len: u64,
}

/// Sender-side state of a rendezvous (large-message) transfer.
pub(crate) struct SendXfer {
    pub req: RequestId,
    /// Causal-trace id of the transfer.
    pub xfer: XferId,
    pub proc: ProcId,
    pub peer: EndpointAddr,
    pub match_info: u64,
    pub region: RegionId,
    pub node: usize,
    pub total_len: u64,
    /// This transfer owns the region (non-cached modes): unpin + undeclare
    /// at completion.
    pub owned: bool,
    /// A pull request arrived — the rendezvous got through.
    pub pull_seen: bool,
    /// When the first rendezvous went on the wire (metrics: the overlap
    /// window is measured from here to the first pull request, the
    /// rendezvous round trip from here to the notify).
    pub rndv_sent_at: Option<SimTime>,
    pub rndv_timer: Option<EventId>,
    pub retries: u32,
}

/// One pull block's progress on the receive side.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Block {
    /// Frames in this block.
    pub frames: u32,
    /// Bitmask of frames received (bit i = frame i). Written only by
    /// [`RecvXfer::set_received`] / [`RecvXfer::clear_received`].
    received: u64,
    /// When this block was last (re)requested.
    pub requested_at: SimTime,
    /// The block has been re-requested: its completion time is ambiguous
    /// (original or retransmitted reply), so no RTT sample (Karn's rule).
    pub rerequested: bool,
}

impl Block {
    /// A block of `frames` frames, none received yet.
    pub fn new(frames: u32, requested_at: SimTime) -> Self {
        Block {
            frames,
            received: 0,
            requested_at,
            rerequested: false,
        }
    }

    /// True when frame `frame` arrived.
    pub fn has(&self, frame: u32) -> bool {
        self.received & (1u64 << frame) != 0
    }

    /// True when every frame arrived.
    pub fn complete(&self) -> bool {
        self.received.count_ones() == self.frames
    }

    /// Bitmask of the frames still missing.
    pub fn missing_mask(&self) -> u64 {
        let full = if self.frames == 64 {
            u64::MAX
        } else {
            (1u64 << self.frames) - 1
        };
        full & !self.received
    }
}

/// Completion bookkeeping over a transfer's blocks: how many are complete,
/// and the first that is not (every block below it is complete). Only
/// [`RecvXfer::set_received`] / [`RecvXfer::clear_received`] change it.
#[derive(Default)]
pub(crate) struct BlockCount {
    done: usize,
    first_open: usize,
}

/// Receiver-side state of a rendezvous transfer (one pull transaction).
pub(crate) struct RecvXfer {
    pub req: RequestId,
    /// Causal-trace id of the transfer (from the sender's rndv).
    pub xfer: XferId,
    pub proc: ProcId,
    /// The sender.
    pub peer: EndpointAddr,
    /// Sender's transfer id (names the sender-side region in pull reqs).
    pub msg: MsgId,
    pub region: RegionId,
    pub node: usize,
    pub owned: bool,
    /// Bytes actually transferred (min of sent and posted length).
    pub xfer_len: u64,
    pub blocks: Vec<Block>,
    pub count: BlockCount,
    /// Next block index to request for the first time: blocks below it
    /// have been requested, blocks from it on have not.
    pub next_block: u32,
    /// I/OAT copies still in flight.
    pub ioat_pending: u32,
    /// Frames fully placed in memory.
    pub frames_placed: u64,
    pub frames_total: u64,
    pub stall_timer: Option<EventId>,
    pub retries: u32,
}

impl RecvXfer {
    /// Mark frame `frame` of `block` received.
    pub fn set_received(&mut self, block: u32, frame: u32) {
        let b = &mut self.blocks[block as usize];
        debug_assert!(frame < b.frames, "frame outside its block");
        let was_complete = b.complete();
        b.received |= 1u64 << frame;
        if !was_complete && b.complete() {
            self.count.done += 1;
            while self
                .blocks
                .get(self.count.first_open)
                .is_some_and(Block::complete)
            {
                self.count.first_open += 1;
            }
        }
    }

    /// Mark frame `frame` of `block` missing again.
    pub fn clear_received(&mut self, block: u32, frame: u32) {
        let b = &mut self.blocks[block as usize];
        if b.complete() && b.has(frame) {
            self.count.done -= 1;
            self.count.first_open = self.count.first_open.min(block as usize);
        }
        b.received &= !(1u64 << frame);
    }

    /// The first incomplete block (`blocks.len()` when all are complete).
    pub fn first_open(&self) -> u32 {
        self.count.first_open as u32
    }

    /// All frames received (masks full)?
    pub fn all_received(&self) -> bool {
        let all = self.count.done == self.blocks.len();
        debug_assert_eq!(all, self.blocks.iter().all(Block::complete));
        all
    }

    /// Transfer is done when everything is received *and* placed.
    pub fn data_done(&self) -> bool {
        self.all_received() && self.ioat_pending == 0
    }
}

/// Receiver-side notify retransmission state (survives the RecvXfer).
pub(crate) struct NotifyPending {
    pub proc: ProcId,
    /// Causal-trace id of the transfer.
    pub xfer: XferId,
    pub peer: EndpointAddr,
    pub timer: EventId,
    pub retries: u32,
}

/// A held I/OAT copy: bytes parked until the DMA engine finishes.
pub(crate) struct PendingCopy {
    pub pull: PullId,
    pub block: u32,
    pub frame: u32,
    pub offset: u64,
    pub data: Vec<u8>,
}

/// Recycled pull-reply payload buffers: the sender fills one per frame
/// from its memory, the receiver hands it back once the bytes have landed.
#[derive(Default)]
pub(crate) struct FramePool(Vec<Vec<u8>>);

impl FramePool {
    /// Most buffers kept: one pull block of the largest size (64 frames).
    const CAP: usize = 64;

    /// A buffer of `len` bytes whose contents are stale; the caller
    /// overwrites all of it.
    pub fn take(&mut self, len: usize) -> Vec<u8> {
        let mut buf = self.0.pop().unwrap_or_default();
        buf.resize(len, 0);
        buf
    }

    /// Hand a buffer back (dropped when the pool is full).
    pub fn put(&mut self, buf: Vec<u8>) {
        if self.0.len() < Self::CAP {
            self.0.push(buf);
        }
    }
}

/// What to do when a region's pin cursor reaches a threshold.
#[derive(Clone, Copy, Debug)]
pub(crate) enum PinAction {
    /// Send the rendezvous for this send transfer.
    SendRndv(MsgId),
    /// Send the initial window of pull requests for this receive transfer.
    RecvStart(PullId),
}

/// A waiter on pin progress.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PinWaiter {
    /// Fire when the cursor reaches this many pages.
    pub threshold_pages: u64,
    pub action: PinAction,
    /// Transfer whose protocol action is queued behind the threshold
    /// (drives the pin_wait_start / pin_wait_end trace pair).
    pub xfer: XferId,
}

/// Per-region on-demand pin plan.
pub(crate) struct PinPlan {
    /// Pin cursor goal (pages).
    pub target: u64,
    /// A PinChunk work item is queued or running.
    pub in_progress: bool,
    /// When the current pin burst started driving the cursor (metrics:
    /// pin latency is measured from here to quiescence).
    pub started_at: Option<SimTime>,
    pub waiters: Vec<PinWaiter>,
    /// Process whose core is charged for the pin work.
    pub proc: ProcId,
    /// Region generation this pass was stamped with at pin-start. A
    /// notifier invalidation bumps the region's generation; the pass
    /// detects the mismatch at its next chunk and restarts from the
    /// rewound cursor instead of re-pinning just-invalidated pages (the
    /// simulated `mmu_notifier_retry`).
    pub generation: u64,
    /// Pages of the in-flight pin chunk, reserved against the owning
    /// tenant's hard cap from submit until the chunk lands — two passes
    /// of one tenant racing the last of its headroom must not both pass
    /// the quota check.
    pub reserved: u64,
}

impl PinPlan {
    pub fn new(proc: ProcId) -> Self {
        PinPlan {
            target: 0,
            in_progress: false,
            started_at: None,
            waiters: Vec::new(),
            proc,
            generation: 0,
            reserved: 0,
        }
    }
}

/// Intra-node (shared-memory) message parked between send-copy and
/// receive-copy.
pub(crate) struct ShmParked {
    pub src: EndpointAddr,
    /// Causal-trace id of the transfer.
    pub xfer: XferId,
    /// Destination endpoint, incarnation-stamped at post time: shm has no
    /// watchdog, so the fence check happens when the copy-out lands.
    pub peer: EndpointAddr,
    pub match_info: u64,
    pub data: Vec<u8>,
    /// Set when matched: (receiver request, receiver proc, dst, copy_len).
    pub dst: Option<(RequestId, ProcId, VirtAddr, u64)>,
}

/// All in-flight state, keyed deterministically.
#[derive(Default)]
pub(crate) struct XferTables {
    pub eager_tx: BTreeMap<MsgId, EagerTx>,
    pub eager_rx: BTreeMap<MsgId, EagerRxMatched>,
    pub send: BTreeMap<MsgId, SendXfer>,
    pub recv: BTreeMap<PullId, RecvXfer>,
    /// Route duplicate rndv / notify-ack to the pull transaction.
    pub recv_by_msg: BTreeMap<MsgId, PullId>,
    pub notify_pending: BTreeMap<MsgId, NotifyPending>,
    pub shm: BTreeMap<MsgId, ShmParked>,
    /// Pin plans keyed by (node, region).
    pub pin_plans: BTreeMap<(usize, u32), PinPlan>,
    /// Parked I/OAT copies keyed by token.
    pub ioat: BTreeMap<u64, PendingCopy>,
    /// Cache-evicted regions that were still in use at eviction time:
    /// undeclare them when their last use drains.
    pub deferred_undeclare: BTreeSet<(usize, u32)>,
    /// Per-posted-receive overlap hints, consumed when the rendezvous
    /// matches (the posting may complete long before the rndv arrives).
    pub recv_hints: BTreeMap<RequestId, OverlapHint>,
}

#[cfg(test)]
mod tests {
    use simcore::SimRng;

    use super::*;

    #[test]
    fn block_mask_arithmetic() {
        let mut b = Block::new(8, SimTime::ZERO);
        assert!(!b.complete());
        assert_eq!(b.missing_mask(), 0xff);
        b.received |= 1 << 3;
        assert!(b.has(3));
        assert_eq!(b.missing_mask(), 0xf7);
        b.received = 0xff;
        assert!(b.complete());
        assert_eq!(b.missing_mask(), 0);
    }

    #[test]
    fn block_with_64_frames() {
        let mut b = Block::new(64, SimTime::ZERO);
        b.received = u64::MAX - 1;
        assert!(!b.complete());
        assert_eq!(b.missing_mask(), 1);
    }

    fn recv_xfer(frames: &[u32]) -> RecvXfer {
        RecvXfer {
            req: RequestId(0),
            xfer: XferId(0),
            proc: ProcId(0),
            peer: EndpointAddr {
                proc: ProcId(1),
                incarnation: 0,
            },
            msg: MsgId(0),
            region: RegionId(0),
            node: 0,
            owned: false,
            xfer_len: 0,
            blocks: frames
                .iter()
                .map(|&f| Block::new(f, SimTime::ZERO))
                .collect(),
            count: BlockCount::default(),
            next_block: 0,
            ioat_pending: 0,
            frames_placed: 0,
            frames_total: 0,
            stall_timer: None,
            retries: 0,
        }
    }

    /// Random set/clear sequences — duplicates, clears of missing frames
    /// and clears inside complete blocks included — keep the counters
    /// equal to a brute-force recount after every step.
    #[test]
    fn block_count_matches_recount() {
        for seed in 0..16 {
            let mut rng = SimRng::new(seed);
            let frames: Vec<u32> = (0..1 + rng.below(12))
                .map(|_| 1 + rng.below(4) as u32)
                .collect();
            let mut x = recv_xfer(&frames);
            for _ in 0..2_000 {
                let block = rng.below(frames.len() as u64) as u32;
                let frame = rng.below(frames[block as usize] as u64) as u32;
                if rng.chance(0.7) {
                    x.set_received(block, frame);
                } else {
                    x.clear_received(block, frame);
                }
                let done = x.blocks.iter().filter(|b| b.complete()).count();
                let first_open = x
                    .blocks
                    .iter()
                    .position(|b| !b.complete())
                    .unwrap_or(x.blocks.len());
                assert_eq!(x.count.done, done, "seed {seed}");
                assert_eq!(x.count.first_open, first_open, "seed {seed}");
                assert_eq!(x.all_received(), done == x.blocks.len());
            }
        }
    }
}
