//! Collective-communication algorithms, compiled to per-rank scripts.
//!
//! The algorithms mirror the simple tuned defaults of Open MPI's `coll`
//! framework circa 2009: binomial trees for broadcast/reduce, a ring for
//! allgather(v), recursive reduce+broadcast for allreduce, reduce+scatter
//! for reduce_scatter (documented approximation), and direct pairwise
//! exchange for alltoall. Reduction arithmetic is charged as CPU time at
//! a configurable rate.

use simcore::{Bandwidth, SimDuration};

use crate::script::{Op, Script, Step};

/// Builds one job: `n` rank scripts that stay step-aligned.
pub struct JobBuilder {
    /// Number of ranks.
    pub n: usize,
    /// The per-rank scripts under construction.
    pub scripts: Vec<Script>,
    /// Rate at which reduction arithmetic runs (bytes/s of combined data).
    pub reduce_bw: Bandwidth,
    next_tag: u32,
}

impl JobBuilder {
    /// A fresh job of `n` ranks.
    pub fn new(n: usize) -> Self {
        assert!(n >= 1);
        JobBuilder {
            n,
            scripts: (0..n).map(|_| Script::default()).collect(),
            reduce_bw: Bandwidth::from_gb_per_sec(2.0),
            next_tag: 1,
        }
    }

    /// Allocate a buffer of `size` bytes on every rank; returns its index.
    /// `init(rank)` gives the fill salt (None = uninitialized).
    pub fn alloc(&mut self, size: u64, init: impl Fn(usize) -> Option<u8>) -> usize {
        for (r, s) in self.scripts.iter_mut().enumerate() {
            s.buffers.push(size);
            s.init.push(init(r));
        }
        self.scripts[0].buffers.len() - 1
    }

    /// A fresh tag (collectives use distinct tags so iterations cannot
    /// cross-match).
    pub fn tag(&mut self) -> u32 {
        self.next_tag += 1;
        self.next_tag
    }

    /// Append one step to every rank, built by `f(rank)`.
    pub fn step_all(&mut self, f: impl Fn(usize) -> Vec<Op>) {
        for (r, s) in self.scripts.iter_mut().enumerate() {
            s.push(Step { ops: f(r) });
        }
    }

    /// Current step count (all ranks are aligned).
    pub fn mark(&self) -> usize {
        self.scripts[0].steps.len()
    }

    /// Reduction CPU time for `len` combined bytes.
    fn reduce_cost(&self, len: u64) -> SimDuration {
        self.reduce_bw.time_for_bytes(len)
    }

    /// Compute phase of `dur` on every rank.
    pub fn compute_all(&mut self, dur: SimDuration) {
        self.step_all(|_| vec![Op::Compute { dur }]);
    }

    /// IMB PingPong between ranks 0 and 1: one round trip per call.
    pub fn pingpong(&mut self, buf_a: usize, buf_b: usize, len: u64) {
        assert!(self.n >= 2);
        let t1 = self.tag();
        let t2 = self.tag();
        self.step_all(|r| match r {
            0 => vec![Op::Send {
                to: 1,
                tag: t1,
                buf: buf_a,
                offset: 0,
                len,
            }],
            1 => vec![Op::Recv {
                from: 0,
                tag: t1,
                buf: buf_a,
                offset: 0,
                len,
            }],
            _ => vec![],
        });
        self.step_all(|r| match r {
            0 => vec![Op::Recv {
                from: 1,
                tag: t2,
                buf: buf_b,
                offset: 0,
                len,
            }],
            1 => vec![Op::Send {
                to: 0,
                tag: t2,
                buf: buf_b,
                offset: 0,
                len,
            }],
            _ => vec![],
        });
    }

    /// IMB SendRecv: every rank sends to its right neighbour and receives
    /// from its left, simultaneously (periodic chain).
    pub fn sendrecv_ring(&mut self, sbuf: usize, rbuf: usize, len: u64) {
        let n = self.n;
        let tag = self.tag();
        self.step_all(|r| {
            vec![
                Op::Send {
                    to: (r + 1) % n,
                    tag,
                    buf: sbuf,
                    offset: 0,
                    len,
                },
                Op::Recv {
                    from: (r + n - 1) % n,
                    tag,
                    buf: rbuf,
                    offset: 0,
                    len,
                },
            ]
        });
    }

    /// IMB Exchange: send to and receive from both neighbours.
    pub fn exchange(&mut self, sbuf: usize, rbuf: usize, len: u64) {
        let n = self.n;
        let tl = self.tag();
        let tr = self.tag();
        self.step_all(|r| {
            let left = (r + n - 1) % n;
            let right = (r + 1) % n;
            vec![
                Op::Send {
                    to: left,
                    tag: tl,
                    buf: sbuf,
                    offset: 0,
                    len,
                },
                Op::Send {
                    to: right,
                    tag: tr,
                    buf: sbuf,
                    offset: 0,
                    len,
                },
                Op::Recv {
                    from: right,
                    tag: tl,
                    buf: rbuf,
                    offset: 0,
                    len,
                },
                Op::Recv {
                    from: left,
                    tag: tr,
                    buf: rbuf,
                    offset: 0,
                    len,
                },
            ]
        });
    }

    /// Binomial-tree broadcast of `len` bytes from `root` out of `buf`.
    pub fn bcast(&mut self, root: usize, buf: usize, len: u64) {
        let n = self.n;
        if n == 1 {
            return;
        }
        let tag = self.tag();
        let rounds = usize::BITS - (n - 1).leading_zeros();
        for k in 0..rounds {
            let stride = 1usize << k;
            self.step_all(|r| {
                let vr = (r + n - root) % n;
                if vr < stride && vr + stride < n {
                    let peer = (vr + stride + root) % n;
                    vec![Op::Send {
                        to: peer,
                        tag,
                        buf,
                        offset: 0,
                        len,
                    }]
                } else if (stride..2 * stride).contains(&vr) && vr < n {
                    let peer = (vr - stride + root) % n;
                    vec![Op::Recv {
                        from: peer,
                        tag,
                        buf,
                        offset: 0,
                        len,
                    }]
                } else {
                    vec![]
                }
            });
        }
    }

    /// Binomial-tree reduction of `len` bytes into `root`'s `buf`;
    /// `scratch` receives partial results before they are combined.
    pub fn reduce(&mut self, root: usize, buf: usize, scratch: usize, len: u64) {
        let n = self.n;
        if n == 1 {
            return;
        }
        let tag = self.tag();
        let rounds = usize::BITS - (n - 1).leading_zeros();
        let cost = self.reduce_cost(len);
        for k in 0..rounds {
            let stride = 1usize << k;
            self.step_all(|r| {
                let vr = (r + n - root) % n;
                if vr % (2 * stride) == stride {
                    let peer = (vr - stride + root) % n;
                    vec![Op::Send {
                        to: peer,
                        tag: tag + k,
                        buf,
                        offset: 0,
                        len,
                    }]
                } else if vr.is_multiple_of(2 * stride) && vr + stride < n {
                    let peer = (vr + stride + root) % n;
                    vec![Op::Recv {
                        from: peer,
                        tag: tag + k,
                        buf: scratch,
                        offset: 0,
                        len,
                    }]
                } else {
                    vec![]
                }
            });
            // Combine after the data lands (MPI_Reduce semantics).
            self.step_all(|r| {
                let vr = (r + n - root) % n;
                if vr.is_multiple_of(2 * stride) && vr + stride < n {
                    vec![Op::Compute { dur: cost }]
                } else {
                    vec![]
                }
            });
        }
        self.next_tag += rounds;
    }

    /// Allreduce = reduce to rank 0 + broadcast (the classic fallback;
    /// recursive doubling matters little at the 2–8 ranks studied here).
    pub fn allreduce(&mut self, buf: usize, scratch: usize, len: u64) {
        self.reduce(0, buf, scratch, len);
        self.bcast(0, buf, len);
    }

    /// Recursive-doubling allreduce: log2(n) rounds of pairwise exchange +
    /// combine. Only valid for power-of-two rank counts (Open MPI's tuned
    /// choice for small power-of-two communicators).
    ///
    /// # Panics
    /// Panics if `n` is not a power of two.
    pub fn allreduce_rdouble(&mut self, buf: usize, scratch: usize, len: u64) {
        let n = self.n;
        assert!(n.is_power_of_two(), "recursive doubling needs 2^k ranks");
        if n == 1 {
            return;
        }
        let cost = self.reduce_cost(len);
        let rounds = n.trailing_zeros();
        for k in 0..rounds {
            let tag = self.tag();
            let stride = 1usize << k;
            self.step_all(|r| {
                let peer = r ^ stride;
                vec![
                    Op::Send {
                        to: peer,
                        tag,
                        buf,
                        offset: 0,
                        len,
                    },
                    Op::Recv {
                        from: peer,
                        tag,
                        buf: scratch,
                        offset: 0,
                        len,
                    },
                ]
            });
            self.compute_all(cost);
        }
    }

    /// Ring allgatherv: rank `r` contributes `counts[r]` bytes from `sbuf`;
    /// every rank assembles all pieces (at `counts` prefix offsets) in
    /// `rbuf`.
    pub fn allgatherv(&mut self, sbuf: usize, rbuf: usize, counts: &[u64]) {
        let n = self.n;
        assert_eq!(counts.len(), n);
        let offsets: Vec<u64> = counts
            .iter()
            .scan(0, |acc, c| {
                let o = *acc;
                *acc += c;
                Some(o)
            })
            .collect();
        let tag_self = self.tag();
        // Each rank places its own piece via the loopback path.
        let counts_v = counts.to_vec();
        let offs = offsets.clone();
        self.step_all(|r| {
            vec![
                Op::Send {
                    to: r,
                    tag: tag_self,
                    buf: sbuf,
                    offset: 0,
                    len: counts_v[r],
                },
                Op::Recv {
                    from: r,
                    tag: tag_self,
                    buf: rbuf,
                    offset: offs[r],
                    len: counts_v[r],
                },
            ]
        });
        // n-1 ring steps; piece (r - s) travels rightward. After the first
        // step a rank forwards out of its assembly buffer.
        for s in 0..n - 1 {
            let tag = self.tag();
            let counts_v = counts.to_vec();
            let offs = offsets.clone();
            self.step_all(|r| {
                let send_piece = (r + n - s) % n;
                let recv_piece = (r + n - s - 1) % n;
                let (sb, so) = if s == 0 {
                    (sbuf, 0)
                } else {
                    (rbuf, offs[send_piece])
                };
                vec![
                    Op::Send {
                        to: (r + 1) % n,
                        tag,
                        buf: sb,
                        offset: so,
                        len: counts_v[send_piece],
                    },
                    Op::Recv {
                        from: (r + n - 1) % n,
                        tag,
                        buf: rbuf,
                        offset: offs[recv_piece],
                        len: counts_v[recv_piece],
                    },
                ]
            });
        }
    }

    /// Reduce_scatter approximated as binomial reduce to rank 0 followed by
    /// a linear scatter of the segments (see DESIGN.md).
    pub fn reduce_scatter(&mut self, buf: usize, scratch: usize, counts: &[u64]) {
        let n = self.n;
        assert_eq!(counts.len(), n);
        let total: u64 = counts.iter().sum();
        self.reduce(0, buf, scratch, total);
        let offsets: Vec<u64> = counts
            .iter()
            .scan(0, |acc, c| {
                let o = *acc;
                *acc += c;
                Some(o)
            })
            .collect();
        let tag = self.tag();
        let counts_v = counts.to_vec();
        self.step_all(|r| {
            if r == 0 {
                let mut ops: Vec<Op> = (1..n)
                    .map(|peer| Op::Send {
                        to: peer,
                        tag,
                        buf,
                        offset: offsets[peer],
                        len: counts_v[peer],
                    })
                    .collect();
                // Root keeps its own segment in place.
                ops.push(Op::Compute {
                    dur: SimDuration::from_nanos(200),
                });
                ops
            } else {
                vec![Op::Recv {
                    from: 0,
                    tag,
                    buf: scratch,
                    offset: 0,
                    len: counts_v[r],
                }]
            }
        });
    }

    /// Direct pairwise alltoallv: `counts[j]` is the number of bytes every
    /// rank sends *to rank j* (its segment for `j` sits at the prefix-sum
    /// offset of `sbuf`). Rank `r` thus receives `counts[r]` bytes from
    /// each of the `n` ranks, assembled peer-major in `rbuf` (which must
    /// hold `n * counts[r]` bytes).
    pub fn alltoallv(&mut self, sbuf: usize, rbuf: usize, counts: &[u64]) {
        let n = self.n;
        assert_eq!(counts.len(), n);
        let offsets: Vec<u64> = counts
            .iter()
            .scan(0, |acc, c| {
                let o = *acc;
                *acc += c;
                Some(o)
            })
            .collect();
        let tag = self.tag();
        let counts_v = counts.to_vec();
        self.step_all(|r| {
            let mut ops = Vec::with_capacity(2 * n);
            for peer in 0..n {
                ops.push(Op::Send {
                    to: peer,
                    tag,
                    buf: sbuf,
                    offset: offsets[peer],
                    len: counts_v[peer],
                });
                ops.push(Op::Recv {
                    from: peer,
                    tag,
                    buf: rbuf,
                    offset: peer as u64 * counts_v[r],
                    len: counts_v[r],
                });
            }
            ops
        });
    }

    /// Dissemination barrier (8-byte tokens).
    pub fn barrier(&mut self) {
        let n = self.n;
        if n == 1 {
            return;
        }
        let rounds = usize::BITS - (n - 1).leading_zeros();
        for k in 0..rounds {
            let tag = self.tag();
            let stride = 1usize << k;
            self.step_all(|r| {
                vec![
                    Op::Send {
                        to: (r + stride) % n,
                        tag,
                        buf: 0,
                        offset: 0,
                        len: 8,
                    },
                    Op::Recv {
                        from: (r + n - stride) % n,
                        tag,
                        buf: 0,
                        offset: 0,
                        len: 8,
                    },
                ]
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripts_stay_step_aligned() {
        let mut b = JobBuilder::new(4);
        let buf = b.alloc(1 << 20, |_| Some(0x11));
        let scratch = b.alloc(1 << 20, |_| None);
        b.bcast(0, buf, 1 << 20);
        b.reduce(0, buf, scratch, 1 << 20);
        b.allreduce(buf, scratch, 1 << 16);
        b.barrier();
        let lens: Vec<usize> = b.scripts.iter().map(|s| s.steps.len()).collect();
        assert!(lens.windows(2).all(|w| w[0] == w[1]), "{lens:?}");
    }

    #[test]
    fn bcast_structure_binomial() {
        let mut b = JobBuilder::new(8);
        let buf = b.alloc(4096, |_| None);
        b.bcast(0, buf, 4096);
        // 3 rounds for 8 ranks.
        assert_eq!(b.scripts[0].steps.len(), 3);
        // Root sends in every round, never receives.
        for step in &b.scripts[0].steps {
            assert!(step.ops.iter().all(|o| matches!(o, Op::Send { .. })));
            assert_eq!(step.ops.len(), 1);
        }
        // Every non-root receives exactly once across all rounds.
        for r in 1..8 {
            let recvs: usize = b.scripts[r]
                .steps
                .iter()
                .flat_map(|s| &s.ops)
                .filter(|o| matches!(o, Op::Recv { .. }))
                .count();
            assert_eq!(recvs, 1, "rank {r}");
        }
        // Total sends = n - 1.
        let sends: usize = b
            .scripts
            .iter()
            .flat_map(|s| &s.steps)
            .flat_map(|s| &s.ops)
            .filter(|o| matches!(o, Op::Send { .. }))
            .count();
        assert_eq!(sends, 7);
    }

    #[test]
    fn bcast_nonzero_root_and_non_power_of_two() {
        for n in [3usize, 5, 6, 7] {
            for root in 0..n {
                let mut b = JobBuilder::new(n);
                let buf = b.alloc(4096, |_| None);
                b.bcast(root, buf, 4096);
                let sends: usize = b
                    .scripts
                    .iter()
                    .flat_map(|s| &s.steps)
                    .flat_map(|s| &s.ops)
                    .filter(|o| matches!(o, Op::Send { .. }))
                    .count();
                assert_eq!(sends, n - 1, "n={n} root={root}");
                // Sends and receives pair up exactly.
                let recvs: usize = b
                    .scripts
                    .iter()
                    .flat_map(|s| &s.steps)
                    .flat_map(|s| &s.ops)
                    .filter(|o| matches!(o, Op::Recv { .. }))
                    .count();
                assert_eq!(recvs, n - 1);
            }
        }
    }

    #[test]
    fn reduce_structure() {
        let mut b = JobBuilder::new(8);
        let buf = b.alloc(4096, |_| None);
        let scratch = b.alloc(4096, |_| None);
        b.reduce(0, buf, scratch, 4096);
        // Every non-root sends exactly once; root receives log2(8)=3 times.
        for r in 1..8 {
            let sends: usize = b.scripts[r]
                .steps
                .iter()
                .flat_map(|s| &s.ops)
                .filter(|o| matches!(o, Op::Send { .. }))
                .count();
            assert_eq!(sends, 1, "rank {r}");
        }
        let root_recvs: usize = b.scripts[0]
            .steps
            .iter()
            .flat_map(|s| &s.ops)
            .filter(|o| matches!(o, Op::Recv { .. }))
            .count();
        assert_eq!(root_recvs, 3);
    }

    #[test]
    fn allgatherv_moves_every_piece() {
        let n = 4;
        let counts = vec![1000, 2000, 3000, 4000];
        let mut b = JobBuilder::new(n);
        let sbuf = b.alloc(4096, |_| None);
        let rbuf = b.alloc(10_240, |_| None);
        b.allgatherv(sbuf, rbuf, &counts);
        // Self-place + (n-1) ring steps.
        assert_eq!(b.scripts[0].steps.len(), n);
        // Each rank receives total_bytes - 0 (own comes via loopback too).
        for r in 0..n {
            let recv_bytes: u64 = b.scripts[r]
                .steps
                .iter()
                .flat_map(|s| &s.ops)
                .filter_map(|o| match o {
                    Op::Recv { len, .. } => Some(*len),
                    _ => None,
                })
                .sum();
            assert_eq!(recv_bytes, 10_000, "rank {r}");
        }
    }

    #[test]
    fn recursive_doubling_structure() {
        let mut b = JobBuilder::new(8);
        let buf = b.alloc(4096, |_| None);
        let scratch = b.alloc(4096, |_| None);
        b.allreduce_rdouble(buf, scratch, 4096);
        // 3 comm rounds + 3 compute rounds, every rank sends exactly once
        // per comm round.
        assert_eq!(b.scripts[0].steps.len(), 6);
        for script in &b.scripts {
            let sends: usize = script
                .steps
                .iter()
                .flat_map(|s| &s.ops)
                .filter(|o| matches!(o, Op::Send { .. }))
                .count();
            assert_eq!(sends, 3);
        }
    }

    #[test]
    #[should_panic(expected = "needs 2^k ranks")]
    fn recursive_doubling_rejects_odd_ranks() {
        let mut b = JobBuilder::new(6);
        let buf = b.alloc(4096, |_| None);
        let scratch = b.alloc(4096, |_| None);
        b.allreduce_rdouble(buf, scratch, 4096);
    }

    #[test]
    fn pairwise_ops_balance() {
        // Global invariant for every collective: (to, tag, len) multiset of
        // sends equals (from, tag, len) multiset of receives.
        let n = 5;
        let mut b = JobBuilder::new(n);
        let s = b.alloc(1 << 16, |_| None);
        let r = b.alloc(1 << 20, |_| None);
        let scratch = b.alloc(1 << 20, |_| None);
        b.sendrecv_ring(s, r, 4096);
        b.exchange(s, r, 4096);
        b.bcast(2, s, 4096);
        b.reduce(1, s, scratch, 4096);
        b.allgatherv(s, r, &[100, 200, 300, 400, 500]);
        b.alltoallv(s, r, &[10, 20, 30, 40, 50]);
        b.barrier();

        let mut sends = Vec::new();
        let mut recvs = Vec::new();
        for (rank, script) in b.scripts.iter().enumerate() {
            for step in &script.steps {
                for op in &step.ops {
                    match op {
                        Op::Send { to, tag, len, .. } => sends.push((rank, *to, *tag, *len)),
                        Op::Recv { from, tag, len, .. } => recvs.push((*from, rank, *tag, *len)),
                        _ => {}
                    }
                }
            }
        }
        sends.sort_unstable();
        recvs.sort_unstable();
        assert_eq!(sends, recvs);
    }
}
