//! Seeded job generator.
//!
//! A workload is an endless sequence of independent jobs. Job `i` of a run
//! depends only on `(workload, seed, i)`, so a job can be rebuilt at will
//! (the warm-up replays job 0; the traced run rebuilds every job twice).
//!
//! Sizes are log-uniform but *stratified*: each block of [`BLOCK`]
//! consecutive jobs holds exactly one size from each of `BLOCK` equal
//! slices of the log-size range, in a seeded order, and the strata
//! alternate between the workload's two patterns. Every seed sees the
//! same size and pattern mix, which keeps per-run medians and tails
//! comparable across seeds while the individual jobs differ.
//!
//! The simulator receives only the scripts built here; the benchmark keeps
//! the expectations used to check the received bytes afterwards.

use openmx_core::{OpenMxConfig, PinningMode};
use openmx_mpi::{Op, Script, Step};

/// Jobs per stratified block (one job per size stratum). Odd, so the
/// median job sits in the middle of a stratum, and seven, so the 90th
/// percentile sits inside the top one: neither quantile falls on a
/// stratum boundary, where it would be set by a few extreme jobs.
pub const BLOCK: usize = 7;

/// The golden ratio's fractional part: its multiples modulo 1 are as
/// evenly spread as a sequence can be.
const GOLDEN: f64 = 0.618_033_988_749_894_9;

const KIB: u64 = 1024;
const MIB: u64 = 1024 * 1024;
const PAGE: u64 = 4096;

/// The benchmark's workloads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    /// 2 nodes, 1–16 MiB pingpong/sendrecv reusing the same buffers: the
    /// frame path, with the region cache hitting after the first iteration.
    BulkReuse,
    /// 2 nodes, 64 KiB–2 MiB rendezvous relay with `Realloc` after every
    /// send: every transfer declares and pins anew and is invalidated by
    /// the MMU notifier; the cache never hits.
    OverlapChurn,
    /// 8 ranks on 4 nodes, 64 B–8 KiB eager exchange/alltoall: per-message
    /// cost; never pins.
    SmallA2a,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 3] = [
        Workload::BulkReuse,
        Workload::OverlapChurn,
        Workload::SmallA2a,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BulkReuse => "bulk_reuse",
            Workload::OverlapChurn => "overlap_churn",
            Workload::SmallA2a => "small_a2a",
        }
    }

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Nodes in the simulated cluster.
    pub fn nodes(self) -> usize {
        match self {
            Workload::BulkReuse | Workload::OverlapChurn => 2,
            Workload::SmallA2a => 4,
        }
    }

    /// Ranks per node (block distribution: rank `r` runs on node `r / ppn`).
    pub fn ppn(self) -> usize {
        match self {
            Workload::BulkReuse | Workload::OverlapChurn => 1,
            Workload::SmallA2a => 2,
        }
    }

    /// Ranks in every job.
    pub fn ranks(self) -> usize {
        self.nodes() * self.ppn()
    }

    /// Message size range `[lo, hi]` in bytes.
    fn size_range(self) -> (u64, u64) {
        match self {
            Workload::BulkReuse => (MIB, 16 * MIB),
            Workload::OverlapChurn => (64 * KIB, 2 * MIB),
            Workload::SmallA2a => (64, 8 * KIB),
        }
    }

    /// The simulated platform: the paper's host and fabric with
    /// overlapped pinning and the notifier-backed region cache.
    /// `overlap_churn` also runs the ranks on the interrupt core (the
    /// paper's §4.3 topology), so bottom-half work delays pinning and some
    /// pull frames outrun the pin cursor: overlap misses and re-requests.
    pub fn config(self, seed: u64) -> OpenMxConfig {
        OpenMxConfig {
            seed,
            colocate_with_bh: self == Workload::OverlapChurn,
            ..OpenMxConfig::with_mode(PinningMode::OverlappedCached)
        }
    }
}

/// SplitMix64: the benchmark's own generator, so the inputs do not change
/// when the simulator's RNG does.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one stream of `seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A non-zero byte (fill salts must differ from fresh zero pages).
    fn salt(&mut self) -> u8 {
        1 + self.below(255) as u8
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// The communication pattern of one job.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// Round trips between ranks 0 and 1.
    PingPong,
    /// Both ranks send and receive at once.
    SendRecv,
    /// One message window handed back and forth, the buffer reallocated
    /// after every send.
    Relay,
    /// Every rank sends to and receives from its two ring neighbours.
    Exchange,
    /// Every rank sends to and receives from every other rank.
    Alltoall,
}

/// Everything that defines one job.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct JobSpec {
    /// The workload the job belongs to.
    pub workload: Workload,
    /// Position in the run's job sequence.
    pub index: u64,
    /// Seed of this job (also the simulated cluster's seed).
    pub seed: u64,
    /// Communication pattern.
    pub kind: Kind,
    /// Message size in bytes.
    pub size: u64,
    /// Repetitions of the pattern (hops for a relay).
    pub iters: u32,
}

/// Job `index` of `workload` for the run seeded with `seed`.
pub fn spec(workload: Workload, seed: u64, index: u64) -> JobSpec {
    let block = BLOCK as u64;
    let block_no = index / block;
    let mut order: Vec<u64> = (0..block).collect();
    Rng::new(seed, 2 * block_no + 1).shuffle(&mut order);
    let stratum = order[(index % block) as usize];
    // Strata alternate between the two patterns. A stratum mixing both
    // would be bimodal, and a quantile inside it would fall in the gap
    // between the two modes.
    let coin = stratum.is_multiple_of(2);
    // Within its stratum, block after block, a job's size follows a
    // golden-ratio sequence from a seeded start: the sizes fill the
    // stratum evenly instead of clustering by chance.
    let start = Rng::new(seed, 0).unit() + stratum as f64 * GOLDEN;
    let within = (start + block_no as f64 * GOLDEN).fract();
    let (lo, hi) = workload.size_range();
    let u = (stratum as f64 + within) / block as f64;
    let size = ((lo as f64).ln() + u * ((hi as f64).ln() - (lo as f64).ln())).exp();
    let size = (size as u64).clamp(lo, hi);
    let (kind, iters) = match workload {
        Workload::BulkReuse if coin => (Kind::PingPong, 8),
        Workload::BulkReuse => (Kind::SendRecv, 8),
        Workload::OverlapChurn => (Kind::Relay, 16),
        Workload::SmallA2a if coin => (Kind::Exchange, 24),
        Workload::SmallA2a => (Kind::Alltoall, 8),
    };
    JobSpec {
        workload,
        index,
        seed: Rng::new(seed, 2 * index + 2).next_u64(),
        kind,
        size,
        iters,
    }
}

/// Bytes a job expects to find after it ran: `len` bytes of buffer `buf`
/// of `rank` at `offset` equal `((base + j) as u8) ^ salt` — the fill
/// pattern of the sending buffer, shifted by where the sender read it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Expect {
    /// Receiving rank.
    pub rank: usize,
    /// Receiving buffer index.
    pub buf: usize,
    /// Byte offset in that buffer.
    pub offset: u64,
    /// Bytes to check.
    pub len: u64,
    /// Fill salt of the original sending buffer.
    pub salt: u8,
    /// Offset in the original sending buffer the bytes came from.
    pub base: u64,
}

impl Expect {
    /// The expected byte at position `j` of the window.
    pub fn byte(&self, j: u64) -> u8 {
        ((self.base + j) as u8) ^ self.salt
    }
}

/// One send or receive, in script order, for the layer replays.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Transfer {
    /// A send (else a receive).
    pub send: bool,
    /// The issuing rank.
    pub rank: usize,
    /// Buffer index.
    pub buf: usize,
    /// Byte offset in the buffer.
    pub offset: u64,
    /// Bytes (receive capacity for receives).
    pub len: u64,
}

/// A built job: the scripts the simulator runs and what the benchmark
/// checks and records around them.
#[derive(Clone, Debug)]
pub struct Job {
    /// The job's definition.
    pub spec: JobSpec,
    /// One script per rank.
    pub scripts: Vec<Script>,
    /// Received windows to check.
    pub expects: Vec<Expect>,
    /// Every send and receive, in issue order per rank.
    pub transfers: Vec<Transfer>,
    /// Simulated payload bytes delivered by the job.
    pub payload_bytes: u64,
    /// Sends plus receives.
    pub requests: u64,
}

/// Build the scripts and expectations of `spec`.
pub fn build(spec: &JobSpec) -> Job {
    let mut rng = Rng::new(spec.seed, 0);
    let mut b = Builder::new(spec.workload.ranks());
    match spec.kind {
        Kind::PingPong | Kind::SendRecv => b.bulk(spec, &mut rng),
        Kind::Relay => b.relay(spec, &mut rng),
        Kind::Exchange | Kind::Alltoall => b.small(spec, &mut rng),
    }
    Job {
        spec: *spec,
        scripts: b.scripts,
        expects: b.expects,
        transfers: b.transfers,
        payload_bytes: b.payload_bytes,
        requests: b.requests,
    }
}

struct Builder {
    scripts: Vec<Script>,
    expects: Vec<Expect>,
    transfers: Vec<Transfer>,
    payload_bytes: u64,
    requests: u64,
}

impl Builder {
    fn new(ranks: usize) -> Self {
        Builder {
            scripts: vec![Script::default(); ranks],
            expects: Vec::new(),
            transfers: Vec::new(),
            payload_bytes: 0,
            requests: 0,
        }
    }

    fn alloc(&mut self, rank: usize, size: u64, salt: Option<u8>) {
        self.scripts[rank].buffers.push(size);
        self.scripts[rank].init.push(salt);
    }

    fn send(&mut self, from: usize, to: usize, tag: u32, buf: usize, offset: u64, len: u64) -> Op {
        self.transfers.push(Transfer {
            send: true,
            rank: from,
            buf,
            offset,
            len,
        });
        self.payload_bytes += len;
        self.requests += 1;
        Op::Send {
            to,
            tag,
            buf,
            offset,
            len,
        }
    }

    fn recv(&mut self, at: usize, from: usize, tag: u32, buf: usize, offset: u64, len: u64) -> Op {
        self.transfers.push(Transfer {
            send: false,
            rank: at,
            buf,
            offset,
            len,
        });
        self.requests += 1;
        Op::Recv {
            from,
            tag,
            buf,
            offset,
            len,
        }
    }

    fn step(&mut self, rank: usize, ops: Vec<Op>) {
        self.scripts[rank].push(Step { ops });
    }

    /// Buffer 0 is each rank's patterned send buffer, buffer 1 its receive
    /// buffer; both are reused by every iteration.
    fn bulk(&mut self, spec: &JobSpec, rng: &mut Rng) {
        let len = spec.size;
        let salts = [rng.salt(), rng.salt()];
        for (r, &salt) in salts.iter().enumerate() {
            self.alloc(r, len, Some(salt));
            self.alloc(r, len, None);
        }
        for it in 0..spec.iters {
            let tag = 2 * it + 1;
            if spec.kind == Kind::PingPong {
                let s = self.send(0, 1, tag, 0, 0, len);
                self.step(0, vec![s]);
                let r = self.recv(1, 0, tag, 1, 0, len);
                self.step(1, vec![r]);
                let s = self.send(1, 0, tag + 1, 0, 0, len);
                self.step(1, vec![s]);
                let r = self.recv(0, 1, tag + 1, 1, 0, len);
                self.step(0, vec![r]);
            } else {
                for (me, peer) in [(0, 1), (1, 0)] {
                    let s = self.send(me, peer, tag, 0, 0, len);
                    let r = self.recv(me, peer, tag, 1, 0, len);
                    self.step(me, vec![s, r]);
                }
            }
        }
        for (me, peer) in [(0usize, 1usize), (1, 0)] {
            self.expects.push(Expect {
                rank: me,
                buf: 1,
                offset: 0,
                len,
                salt: salts[peer],
                base: 0,
            });
        }
    }

    /// One buffer per rank. The message window hops between the ranks;
    /// each hop lands at a fresh page offset (with a receive capacity one
    /// page larger than the message), so no send or receive ever reuses a
    /// cached segment vector, and the sender reallocates its buffer right
    /// after the send completes. The window is copied whole at every hop,
    /// so a byte corrupted anywhere along the chain reaches the last one.
    fn relay(&mut self, spec: &JobSpec, rng: &mut Rng) {
        let len = spec.size;
        let hops = spec.iters as usize;
        let mut slots: Vec<u64> = (0..2 * hops as u64).collect();
        rng.shuffle(&mut slots);
        let offsets: Vec<u64> = slots[..=hops].iter().map(|s| s * PAGE).collect();
        let cap = 2 * hops as u64 * PAGE + len + PAGE;
        let salt = rng.salt();
        self.alloc(0, cap, Some(salt));
        self.alloc(1, cap, None);
        for hop in 0..hops {
            let (from, to) = (hop % 2, 1 - hop % 2);
            let tag = hop as u32 + 1;
            let s = self.send(from, to, tag, 0, offsets[hop], len);
            self.step(from, vec![s]);
            self.step(from, vec![Op::Realloc { buf: 0 }]);
            let r = self.recv(to, from, tag, 0, offsets[hop + 1], len + PAGE);
            self.step(to, vec![r]);
        }
        self.expects.push(Expect {
            rank: hops % 2,
            buf: 0,
            offset: offsets[hops],
            len,
            salt,
            base: offsets[0],
        });
    }

    /// Buffer 0 holds one patterned slot per destination; buffer 1 one
    /// slot per (iteration, source), so every received message stays in
    /// place for the check.
    fn small(&mut self, spec: &JobSpec, rng: &mut Rng) {
        let n = self.scripts.len();
        let m = spec.size;
        let salts: Vec<u8> = (0..n).map(|_| rng.salt()).collect();
        for (r, &salt) in salts.iter().enumerate() {
            self.alloc(r, n as u64 * m, Some(salt));
            self.alloc(r, spec.iters as u64 * n as u64 * m, None);
        }
        for it in 0..spec.iters as u64 {
            let tag = it as u32 + 1;
            for me in 0..n {
                let peers: Vec<usize> = if spec.kind == Kind::Exchange {
                    vec![(me + 1) % n, (me + n - 1) % n]
                } else {
                    (0..n).filter(|&p| p != me).collect()
                };
                let mut ops = Vec::with_capacity(2 * peers.len());
                for &p in &peers {
                    ops.push(self.send(me, p, tag, 0, p as u64 * m, m));
                    let slot = (it * n as u64 + p as u64) * m;
                    ops.push(self.recv(me, p, tag, 1, slot, m));
                    self.expects.push(Expect {
                        rank: me,
                        buf: 1,
                        offset: slot,
                        len: m,
                        salt: salts[p],
                        base: me as u64 * m,
                    });
                }
                self.step(me, ops);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_block_covers_every_stratum() {
        for w in Workload::ALL {
            let (lo, hi) = w.size_range();
            let width = ((hi as f64).ln() - (lo as f64).ln()) / BLOCK as f64;
            let mut seen: Vec<usize> = (0..BLOCK as u64)
                .map(|i| spec(w, 7, BLOCK as u64 + i).size)
                .map(|s| (((s as f64).ln() - (lo as f64).ln()) / width) as usize)
                .map(|k| k.min(BLOCK - 1))
                .collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..BLOCK).collect::<Vec<_>>(), "{}", w.name());
        }
    }

    #[test]
    fn relay_never_repeats_a_segment_key() {
        let s = spec(Workload::OverlapChurn, 3, 0);
        let job = build(&s);
        for r in 0..2 {
            let mut keys: Vec<(u64, u64)> = job
                .transfers
                .iter()
                .filter(|t| t.rank == r)
                .map(|t| (t.offset, t.len))
                .collect();
            let n = keys.len();
            keys.sort_unstable();
            keys.dedup();
            assert_eq!(keys.len(), n);
        }
    }
}
