//! Per-address-space interval index from segment page ranges to region
//! ids, used by [`crate::driver::Driver`] to find the regions a notifier
//! invalidation hits.
//!
//! Keys are `(start_vpn, region_id)` so one region can contribute
//! several (even same-start) segments; the value is the exclusive end vpn
//! (the max, if a region has two segments starting on the same page).
//!
//! Queries exploit `max_pages`, a monotone upper bound on the page length
//! of any range ever inserted: a range intersecting `[s, e)` must start in
//! `[s - max_pages + 1, e)`, so one bounded `BTreeMap::range` scan finds
//! every intersecting entry and nothing needs a tree rotation on delete.

use std::collections::{BTreeMap, BTreeSet};

use simmem::VpnRange;

#[derive(Default)]
pub(crate) struct SpaceIndex {
    ranges: BTreeMap<(u64, u32), u64>,
    max_pages: u64,
}

impl SpaceIndex {
    pub(crate) fn insert(&mut self, start: u64, end: u64, id: u32) {
        let e = self.ranges.entry((start, id)).or_insert(end);
        *e = (*e).max(end);
        self.max_pages = self.max_pages.max(end.saturating_sub(start));
    }

    pub(crate) fn remove(&mut self, start: u64, id: u32) {
        self.ranges.remove(&(start, id));
    }

    /// Region ids with a segment range intersecting `range`, ascending.
    pub(crate) fn intersecting(&self, range: &VpnRange, out: &mut BTreeSet<u32>) {
        let (s, e) = (range.start.0, range.end.0);
        let lo = s.saturating_sub(self.max_pages.saturating_sub(1));
        for (&(_, id), &end) in self.ranges.range((lo, 0)..(e, 0)) {
            if end > s {
                out.insert(id);
            }
        }
    }
}
