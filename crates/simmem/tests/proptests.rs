//! Randomized property tests for the memory substrate.
//!
//! Strategy: drive [`simmem`] with random operation sequences and check it
//! against trivially-correct reference models (a `HashMap<u64, u8>` for
//! byte contents). The substrate must agree with the reference regardless
//! of interleaving, and global invariants (frame accounting, pin balance)
//! must hold at every step.
//!
//! Sequences are generated from a fixed-seed [`simcore::SimRng`], so every
//! run explores the same inputs — failures reproduce by case index.

use std::collections::HashMap;

use simcore::SimRng;
use simmem::{AsId, InvalidateCause, MemError, Memory, Prot, VirtAddr, VpnRange, PAGE_SIZE};

#[derive(Clone, Debug)]
enum Op {
    Mmap {
        pages: u64,
    },
    MmapAt {
        vpn: u64,
        pages: u64,
    },
    Munmap {
        alloc_idx: usize,
    },
    MunmapPart {
        alloc_idx: usize,
        page: u64,
        pages: u64,
    },
    Write {
        alloc_idx: usize,
        offset: u64,
        len: u64,
        byte: u8,
    },
    Read {
        alloc_idx: usize,
        offset: u64,
        len: u64,
    },
    Pin {
        alloc_idx: usize,
    },
    UnpinOldest,
    SwapOut {
        alloc_idx: usize,
        page: u64,
    },
    Migrate {
        alloc_idx: usize,
        page: u64,
    },
}

fn random_op(rng: &mut SimRng) -> Op {
    match rng.below(8) {
        0 => Op::Mmap {
            pages: rng.range_inclusive(1, 15),
        },
        1 => Op::Munmap {
            alloc_idx: rng.next_u64() as usize,
        },
        2 => Op::Write {
            alloc_idx: rng.next_u64() as usize,
            offset: rng.below(8192),
            len: rng.range_inclusive(1, 4095),
            byte: rng.next_u64() as u8,
        },
        3 => Op::Read {
            alloc_idx: rng.next_u64() as usize,
            offset: rng.below(8192),
            len: rng.range_inclusive(1, 4095),
        },
        4 => Op::Pin {
            alloc_idx: rng.next_u64() as usize,
        },
        5 => Op::UnpinOldest,
        6 => Op::SwapOut {
            alloc_idx: rng.next_u64() as usize,
            page: rng.below(16),
        },
        _ => Op::Migrate {
            alloc_idx: rng.next_u64() as usize,
            page: rng.below(16),
        },
    }
}

/// An op of the leaf-boundary mix: mappings of up to 1100 pages, some fixed
/// just below vpn 512 or 1024 so they straddle page-table leaf boundaries
/// (both are boundaries for any leaf of up to 512 pages), munmaps that cut
/// them apart, and accesses anywhere inside.
fn leaf_op(rng: &mut SimRng) -> Op {
    let alloc_idx = rng.next_u64() as usize;
    let span = 1100;
    match rng.below(9) {
        0 => Op::Mmap {
            pages: rng.range_inclusive(1, span),
        },
        1 => Op::MmapAt {
            vpn: [511, 1023][rng.below(2) as usize] - rng.below(4),
            pages: rng.range_inclusive(1, span),
        },
        2 => Op::MunmapPart {
            alloc_idx,
            page: rng.next_u64(),
            pages: rng.next_u64(),
        },
        3 => Op::Write {
            alloc_idx,
            offset: rng.below(span * PAGE_SIZE),
            len: rng.range_inclusive(1, 4095),
            byte: rng.next_u64() as u8,
        },
        4 => Op::Read {
            alloc_idx,
            offset: rng.below(span * PAGE_SIZE),
            len: rng.range_inclusive(1, 4095),
        },
        5 => Op::Pin { alloc_idx },
        6 => Op::UnpinOldest,
        7 => Op::SwapOut {
            alloc_idx,
            page: rng.below(span),
        },
        _ => Op::Migrate {
            alloc_idx,
            page: rng.below(span),
        },
    }
}

/// Index of the first page of `[addr, addr+len)` that finds the frame pool
/// empty, if one does. With no fork in the mix, a page takes a fresh frame
/// exactly when it is not resident.
fn oom_page(mem: &Memory, space: AsId, addr: VirtAddr, len: u64) -> Option<u64> {
    let mut free = mem.frames().free_frames();
    for (i, vpn) in VpnRange::covering(addr, len).iter().enumerate() {
        if mem.resident_pfn(space, vpn).is_none() {
            if free == 0 {
                return Some(i as u64);
            }
            free -= 1;
        }
    }
    None
}

struct Alloc {
    addr: VirtAddr,
    pages: u64,
}

/// Reads agree with a reference byte map under arbitrary interleavings of
/// mmap/munmap/write/swap/migrate/pin, and frame/pin accounting balances
/// at the end. The second half of the cases maps across page-table leaf
/// boundaries in a frame pool small enough to run out.
#[test]
fn memory_agrees_with_reference_model() {
    let mut rng = SimRng::new(0x5133_0001);
    for case in 0..64 {
        let nops = rng.range_inclusive(1, 119);
        let ops: Vec<Op> = (0..nops).map(|_| random_op(&mut rng)).collect();
        run_reference_case(case, ops, 2048);
    }
    let mut rng = SimRng::new(0x5133_0005);
    let mut ooms = 0;
    for case in 64..112 {
        let nops = rng.range_inclusive(1, 119);
        let ops: Vec<Op> = (0..nops).map(|_| leaf_op(&mut rng)).collect();
        ooms += run_reference_case(case, ops, 384);
    }
    assert!(ooms > 0, "the small pool never ran out of frames");
}

/// Runs one case and returns how many operations ran out of frames.
fn run_reference_case(case: u32, ops: Vec<Op>, frames: usize) -> u32 {
    let mut mem = Memory::new(frames, 1024);
    let space = mem.create_space();
    mem.register_notifier(space).unwrap();

    let mut allocs: Vec<Alloc> = Vec::new();
    // Reference: absolute byte address -> value (unwritten bytes are 0).
    let mut reference: HashMap<u64, u8> = HashMap::new();
    let mut pins: Vec<Vec<simmem::Pfn>> = Vec::new();
    let mut ooms = 0;

    for op in ops {
        match op {
            Op::Mmap { pages } => {
                let addr = mem.mmap(space, pages * PAGE_SIZE, Prot::ReadWrite).unwrap();
                allocs.push(Alloc { addr, pages });
            }
            Op::MmapAt { vpn, pages } => {
                let addr = VirtAddr(vpn * PAGE_SIZE);
                let busy = allocs.iter().any(|a| {
                    addr.0 < a.addr.0 + a.pages * PAGE_SIZE && a.addr.0 < addr.0 + pages * PAGE_SIZE
                });
                match mem.mmap_at(space, addr, pages * PAGE_SIZE, Prot::ReadWrite) {
                    Ok(got) => {
                        assert!(!busy && got == addr, "case {case}");
                        allocs.push(Alloc { addr, pages });
                    }
                    Err(e) => assert!(busy && e == MemError::RangeBusy(addr), "case {case}: {e}"),
                }
            }
            Op::Munmap { alloc_idx } => {
                if allocs.is_empty() {
                    continue;
                }
                let a = allocs.remove(alloc_idx % allocs.len());
                // Pinned pages inside are allowed: frames survive pins.
                let evs = mem.munmap(space, a.addr, a.pages * PAGE_SIZE).unwrap();
                for ev in &evs {
                    assert_eq!(ev.cause, InvalidateCause::Unmap, "case {case}");
                }
                let gone = a.addr.0..a.addr.0 + a.pages * PAGE_SIZE;
                reference.retain(|b, _| !gone.contains(b));
            }
            Op::MunmapPart {
                alloc_idx,
                page,
                pages,
            } => {
                if allocs.is_empty() {
                    continue;
                }
                let a = allocs.remove(alloc_idx % allocs.len());
                let first = page % a.pages;
                let n = 1 + pages % (a.pages - first);
                let cut = a.addr.add(first * PAGE_SIZE);
                let evs = mem.munmap(space, cut, n * PAGE_SIZE).unwrap();
                assert_eq!(evs.len(), 1, "case {case}");
                assert_eq!(
                    evs[0].range,
                    VpnRange::covering(cut, n * PAGE_SIZE),
                    "case {case}"
                );
                let gone = cut.0..cut.0 + n * PAGE_SIZE;
                reference.retain(|b, _| !gone.contains(b));
                if first > 0 {
                    allocs.push(Alloc {
                        addr: a.addr,
                        pages: first,
                    });
                }
                if first + n < a.pages {
                    allocs.push(Alloc {
                        addr: a.addr.add((first + n) * PAGE_SIZE),
                        pages: a.pages - first - n,
                    });
                }
            }
            Op::Write {
                alloc_idx,
                offset,
                len,
                byte,
            } => {
                if allocs.is_empty() {
                    continue;
                }
                let a = &allocs[alloc_idx % allocs.len()];
                let size = a.pages * PAGE_SIZE;
                let offset = offset % size;
                let len = len.min(size - offset);
                let data = vec![byte; len as usize];
                let start = a.addr.add(offset);
                let oom = oom_page(&mem, space, start, len);
                let result = mem.write(space, start, &data);
                assert_eq!(
                    result.err(),
                    oom.map(|_| MemError::OutOfMemory),
                    "case {case}"
                );
                // Pages before the one that ran out of frames were written.
                let end = oom.map_or(start.0 + len, |p| start.page_floor().0 + p * PAGE_SIZE);
                ooms += u32::from(oom.is_some());
                for b in start.0..end {
                    reference.insert(b, byte);
                }
            }
            Op::Read {
                alloc_idx,
                offset,
                len,
            } => {
                if allocs.is_empty() {
                    continue;
                }
                let a = &allocs[alloc_idx % allocs.len()];
                let size = a.pages * PAGE_SIZE;
                let offset = offset % size;
                let len = len.min(size - offset);
                let mut buf = vec![0u8; len as usize];
                let start = a.addr.add(offset);
                let oom = oom_page(&mem, space, start, len);
                let result = mem.read(space, start, &mut buf);
                assert_eq!(
                    result.err(),
                    oom.map(|_| MemError::OutOfMemory),
                    "case {case}"
                );
                // Only the pages before the one that ran out were read.
                let end = oom.map_or(start.0 + len, |p| start.page_floor().0 + p * PAGE_SIZE);
                ooms += u32::from(oom.is_some());
                let done = end.saturating_sub(start.0) as usize;
                for (i, &b) in buf.iter().enumerate().take(done) {
                    let expect = reference
                        .get(&(a.addr.0 + offset + i as u64))
                        .copied()
                        .unwrap_or(0);
                    assert_eq!(
                        b,
                        expect,
                        "case {case}: mismatch at offset {}",
                        offset + i as u64
                    );
                }
            }
            Op::Pin { alloc_idx } => {
                if allocs.is_empty() {
                    continue;
                }
                let a = &allocs[alloc_idx % allocs.len()];
                let oom = oom_page(&mem, space, a.addr, a.pages * PAGE_SIZE);
                match mem.pin_user_pages(space, a.addr, a.pages * PAGE_SIZE) {
                    Ok((pfns, _ev)) => {
                        assert_eq!(oom, None, "case {case}");
                        assert_eq!(pfns.len() as u64, a.pages, "case {case}");
                        pins.push(pfns);
                    }
                    Err(e) => {
                        assert!(
                            oom.is_some() && e == MemError::OutOfMemory,
                            "case {case}: {e}"
                        );
                        ooms += 1;
                    }
                }
            }
            Op::UnpinOldest => {
                if let Some(pfns) = pins.pop() {
                    mem.unpin_pages(&pfns);
                }
            }
            Op::SwapOut { alloc_idx, page } => {
                if allocs.is_empty() {
                    continue;
                }
                let a = &allocs[alloc_idx % allocs.len()];
                let page = page % a.pages;
                let vaddr = a.addr.add(page * PAGE_SIZE);
                match mem.swap_out(space, vaddr.vpn()) {
                    Ok(_) | Err(MemError::NotResident(_)) | Err(MemError::PagePinned(_)) => {}
                    Err(e) => panic!("case {case}: unexpected swap_out error {e}"),
                }
            }
            Op::Migrate { alloc_idx, page } => {
                if allocs.is_empty() {
                    continue;
                }
                let a = &allocs[alloc_idx % allocs.len()];
                let page = page % a.pages;
                let vaddr = a.addr.add(page * PAGE_SIZE);
                match mem.migrate(space, vaddr.vpn()) {
                    Ok(_)
                    | Err(MemError::NotResident(_))
                    | Err(MemError::PagePinned(_))
                    | Err(MemError::OutOfMemory) => {}
                    Err(e) => panic!("case {case}: unexpected migrate error {e}"),
                }
            }
        }
        // Invariant: pinned page count equals the pins we hold.
        let held: usize = pins.iter().map(Vec::len).sum();
        assert_eq!(mem.frames().pinned_pages(), held, "case {case}");
    }

    // Teardown: release pins, unmap everything; all frames return.
    for pfns in pins.drain(..) {
        mem.unpin_pages(&pfns);
    }
    for a in allocs.drain(..) {
        mem.munmap(space, a.addr, a.pages * PAGE_SIZE).unwrap();
    }
    assert_eq!(mem.frames().allocated(), 0, "case {case}");
    assert_eq!(mem.frames().pinned_pages(), 0, "case {case}");
    assert_eq!(mem.swap_used(), 0, "case {case}");
    ooms
}

/// Data written before a fork is visible in both spaces; writes after the
/// fork are private to the writer, under random offsets/sizes.
#[test]
fn fork_cow_isolation() {
    let mut rng = SimRng::new(0x5133_0002);
    for case in 0..32 {
        let pages = rng.range_inclusive(1, 7);
        let pre = rng.next_u64() as u8;
        let post_parent = rng.next_u64() as u8;
        let post_child = rng.next_u64() as u8;
        let offset = rng.below(4096);

        let mut mem = Memory::new(256, 64);
        let parent = mem.create_space();
        let addr = mem
            .mmap(parent, pages * PAGE_SIZE, Prot::ReadWrite)
            .unwrap();
        let size = pages * PAGE_SIZE;
        let offset = offset % size;
        let len = (size - offset).min(2 * PAGE_SIZE);
        mem.write(parent, addr.add(offset), &vec![pre; len as usize])
            .unwrap();

        let child = mem.fork_space(parent).unwrap();

        // Both see the pre-fork data.
        for space in [parent, child] {
            let mut buf = vec![0u8; len as usize];
            mem.read(space, addr.add(offset), &mut buf).unwrap();
            assert!(buf.iter().all(|&b| b == pre), "case {case}");
        }

        // Post-fork writes are isolated.
        mem.write(parent, addr.add(offset), &vec![post_parent; len as usize])
            .unwrap();
        mem.write(child, addr.add(offset), &vec![post_child; len as usize])
            .unwrap();
        let mut buf = vec![0u8; len as usize];
        mem.read(parent, addr.add(offset), &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == post_parent), "case {case}");
        mem.read(child, addr.add(offset), &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == post_child), "case {case}");
    }
}

/// A pinned frame's bytes are stable across any sequence of swap-out
/// attempts, migrations and the final munmap; the driver's phys reads see
/// exactly what the app wrote at pin time.
#[test]
fn pinned_frames_are_immovable() {
    let mut rng = SimRng::new(0x5133_0003);
    for case in 0..32 {
        let pages = rng.range_inclusive(1, 7);
        let fill = rng.next_u64() as u8;

        let mut mem = Memory::new(256, 64);
        let space = mem.create_space();
        mem.register_notifier(space).unwrap();
        let addr = mem.mmap(space, pages * PAGE_SIZE, Prot::ReadWrite).unwrap();
        mem.write(space, addr, &vec![fill; (pages * PAGE_SIZE) as usize])
            .unwrap();
        let (pfns, _) = mem.pin_user_pages(space, addr, pages * PAGE_SIZE).unwrap();

        for p in 0..pages {
            let vpn = addr.add(p * PAGE_SIZE).vpn();
            assert!(
                matches!(mem.swap_out(space, vpn), Err(MemError::PagePinned(_))),
                "case {case}"
            );
            assert!(
                matches!(mem.migrate(space, vpn), Err(MemError::PagePinned(_))),
                "case {case}"
            );
        }
        mem.munmap(space, addr, pages * PAGE_SIZE).unwrap();
        for &pfn in &pfns {
            let mut buf = [0u8; 64];
            mem.read_phys(pfn, 512, &mut buf);
            assert!(buf.iter().all(|&b| b == fill), "case {case}");
        }
        mem.unpin_pages(&pfns);
        assert_eq!(mem.frames().allocated(), 0, "case {case}");
    }
}
