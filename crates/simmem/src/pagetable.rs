//! The two-level page table of one address space.
//!
//! Entries live in 64-entry leaves, one per 256 KiB of virtual space, kept
//! in a `BTreeMap` keyed by `vpn >> 6`. A leaf exists only while it holds at
//! least one entry, so a table costs what its space has touched. Every
//! iteration runs in ascending vpn order.
//!
//! A leaf is 512 bytes. A 512-entry leaf, like an x86-64 last-level table,
//! would be a 4 KiB block the size of the frames it maps. Freed with a
//! space's frames it merges with them into one large free block, and glibc
//! returns to the OS the part of that block above whichever unrelated small
//! allocation lies highest, so the resident set of a process that builds
//! and drops many spaces varies by up to 30 MiB between identical runs.
//! Leaves this small stay in the allocator's per-size caches, and the freed
//! memory stays with the process.

use std::collections::BTreeMap;
use std::ops::Range;

use crate::addr::Pfn;

/// One page-table entry.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Pte {
    Resident { pfn: Pfn, cow: bool },
    Swapped { slot: u32 },
}

const LEAF_SHIFT: u32 = 6;
const LEAF_PAGES: u64 = 1 << LEAF_SHIFT;

type Leaf = [Option<Pte>; LEAF_PAGES as usize];

/// Leaf key and index within the leaf of `vpn`.
fn split(vpn: u64) -> (u64, usize) {
    (vpn >> LEAF_SHIFT, (vpn & (LEAF_PAGES - 1)) as usize)
}

/// Keys of the leaves that can hold a vpn of `range`.
fn leaf_keys(range: &Range<u64>) -> Range<u64> {
    range.start >> LEAF_SHIFT..(range.end + LEAF_PAGES - 1) >> LEAF_SHIFT
}

#[derive(Clone, Default)]
pub(crate) struct PageTable {
    leaves: BTreeMap<u64, Box<Leaf>>,
}

impl PageTable {
    pub(crate) fn get(&self, vpn: u64) -> Option<Pte> {
        let (key, i) = split(vpn);
        self.leaves.get(&key)?[i]
    }

    /// The entry slot of `vpn`, creating its leaf if there is none. A caller
    /// that leaves the slot empty must [`PageTable::prune`] it.
    pub(crate) fn slot(&mut self, vpn: u64) -> &mut Option<Pte> {
        let (key, i) = split(vpn);
        &mut self
            .leaves
            .entry(key)
            .or_insert_with(|| Box::new([None; LEAF_PAGES as usize]))[i]
    }

    /// Free the leaf of `vpn` if it holds no entry.
    pub(crate) fn prune(&mut self, vpn: u64) {
        let (key, _) = split(vpn);
        if self
            .leaves
            .get(&key)
            .is_some_and(|leaf| leaf.iter().all(Option::is_none))
        {
            self.leaves.remove(&key);
        }
    }

    /// Remove every entry of `range`, handing each to `f` in ascending vpn
    /// order, and free the leaves this empties.
    pub(crate) fn drain(&mut self, range: Range<u64>, mut f: impl FnMut(Pte)) {
        let mut emptied = Vec::new();
        for (&key, leaf) in self.leaves.range_mut(leaf_keys(&range)) {
            let base = key << LEAF_SHIFT;
            let lo = range.start.max(base) - base;
            let hi = range.end.min(base + LEAF_PAGES) - base;
            leaf[lo as usize..hi as usize]
                .iter_mut()
                .filter_map(Option::take)
                .for_each(&mut f);
            if leaf.iter().all(Option::is_none) {
                emptied.push(key);
            }
        }
        for key in emptied {
            self.leaves.remove(&key);
        }
    }

    /// The entries of `range` as `(vpn, pte)`, in ascending vpn order.
    pub(crate) fn range(&self, range: Range<u64>) -> impl Iterator<Item = (u64, Pte)> + '_ {
        self.leaves
            .range(leaf_keys(&range))
            .flat_map(|(&key, leaf)| {
                let base = key << LEAF_SHIFT;
                leaf.iter()
                    .enumerate()
                    .filter_map(move |(i, pte)| Some((base + i as u64, (*pte)?)))
            })
            .filter(move |(vpn, _)| range.contains(vpn))
    }

    /// Every entry, in ascending vpn order.
    pub(crate) fn values(&self) -> impl Iterator<Item = Pte> + '_ {
        self.leaves
            .values()
            .flat_map(|leaf| leaf.iter().flatten().copied())
    }

    /// Every entry mutably, in ascending vpn order.
    pub(crate) fn values_mut(&mut self) -> impl Iterator<Item = &mut Pte> {
        self.leaves
            .values_mut()
            .flat_map(|leaf| leaf.iter_mut().flatten())
    }

    #[cfg(test)]
    pub(crate) fn leaf_count(&self) -> usize {
        self.leaves.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn resident(pfn: u32) -> Pte {
        Pte::Resident {
            pfn: Pfn(pfn),
            cow: false,
        }
    }

    fn vpns(pt: &PageTable, range: Range<u64>) -> Vec<u64> {
        pt.range(range).map(|(vpn, _)| vpn).collect()
    }

    const L: u64 = LEAF_PAGES;

    #[test]
    fn entries_across_leaf_boundaries_iterate_in_order() {
        let mut pt = PageTable::default();
        for vpn in [2 * L - 1, 5, L - 1, L, 2 * L] {
            *pt.slot(vpn) = Some(resident(vpn as u32));
        }
        assert_eq!(pt.leaf_count(), 3);
        let all = vec![5, L - 1, L, 2 * L - 1, 2 * L];
        assert_eq!(vpns(&pt, 0..u64::MAX / 2), all);
        assert_eq!(vpns(&pt, L - 1..2 * L), vec![L - 1, L, 2 * L - 1]);
        assert_eq!(vpns(&pt, 6..L - 1), Vec::<u64>::new());
        assert!(matches!(
            pt.get(L),
            Some(Pte::Resident { pfn: Pfn(p), .. }) if p as u64 == L
        ));
        assert!(pt.get(L + 1).is_none());
        let pfns: Vec<u64> = pt
            .values()
            .map(|pte| match pte {
                Pte::Resident { pfn, .. } => pfn.0 as u64,
                Pte::Swapped { slot } => slot as u64,
            })
            .collect();
        assert_eq!(pfns, all);
    }

    #[test]
    fn drain_splits_a_leaf_and_frees_emptied_leaves() {
        let mut pt = PageTable::default();
        for vpn in L - 12..2 * L + L / 2 {
            *pt.slot(vpn) = Some(resident(vpn as u32));
        }
        assert_eq!(pt.leaf_count(), 3);
        // Cut the middle leaf in two: it keeps both sides.
        let mut out = Vec::new();
        pt.drain(L + L / 4..L + L / 2, |pte| out.push(pte));
        assert_eq!(out.len() as u64, L / 4);
        assert_eq!(pt.leaf_count(), 3);
        // Emptying the first leaf frees it; the second keeps its tail.
        out.clear();
        pt.drain(0..L + L / 4, |pte| out.push(pte));
        assert_eq!(out.len() as u64, 12 + L / 4);
        assert!(matches!(
            out[0],
            Pte::Resident { pfn: Pfn(p), .. } if p as u64 == L - 12
        ));
        assert_eq!(pt.leaf_count(), 2);
        pt.drain(L + L / 2..2 * L + L / 2, |_| {});
        assert_eq!(pt.leaf_count(), 0);
        pt.drain(5..5, |_| panic!("empty range drained an entry"));
    }

    #[test]
    fn prune_frees_only_an_empty_leaf() {
        let mut pt = PageTable::default();
        assert!(pt.slot(7).is_none());
        assert_eq!(pt.leaf_count(), 1);
        pt.prune(7);
        assert_eq!(pt.leaf_count(), 0);
        *pt.slot(7) = Some(resident(1));
        pt.prune(8);
        assert_eq!(pt.leaf_count(), 1);
    }
}
