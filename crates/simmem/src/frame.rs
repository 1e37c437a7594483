//! The physical frame pool with byte-backed frames.
//!
//! Every written frame carries real bytes so the whole stack can be checked
//! for end-to-end data integrity (a registration cache that goes stale
//! produces *observable corruption* in tests, exactly the failure mode the
//! paper's MMU-notifier design eliminates).
//!
//! A frame gets its bytes on first write, as Linux maps untouched anonymous
//! memory to the shared zero page: until then it reads as zeros and costs
//! no page buffer. A first write of the whole page (a pull reply, a
//! sender's fill, a swap-in) stores its bytes without zero-filling a buffer
//! first, and a copy of a never-written frame stays never-written.
//!
//! Reference counting mirrors Linux `struct page`:
//! * `refcount` — how many mappings / pinners hold the frame alive,
//! * `pin_count` — how many of those references are DMA pins
//!   (`get_user_pages`). A pinned frame may not be swapped or migrated,
//!   and it survives `munmap` until the last pinner releases it.

use crate::addr::{Pfn, PAGE_SIZE};
use crate::error::MemError;

struct Frame {
    /// The page's bytes; `None` until first written, reading as zeros.
    data: Option<Box<[u8]>>,
    refcount: u32,
    pin_count: u32,
}

/// What a frame that was never written reads as.
static ZERO_PAGE: [u8; PAGE_SIZE as usize] = [0; PAGE_SIZE as usize];

/// Frames per chunk of the frame table.
const CHUNK: usize = 512;

/// Fixed-capacity pool of physical frames.
///
/// The frame table grows on first use: creating a pool costs O(1), and a
/// pfn that has never been handed out is taken only when no freed frame is
/// waiting. The hand-out order is therefore exactly that of an eager free
/// list `(0..capacity).rev()` with LIFO reuse.
pub struct FrameAllocator {
    /// Every frame handed out so far, indexed by pfn in chunks of
    /// [`CHUNK`]; `None` once freed. A chunk is added, and written, when
    /// its first pfn is handed out. A whole table reserved up front and
    /// left unwritten would also cost nothing until touched, but whether
    /// the heap pages under it are already resident depends on where
    /// earlier pools lay, so the process's resident set would vary between
    /// identical runs.
    chunks: Vec<Box<[Option<Frame>]>>,
    /// Pfns handed out at least once: `0..used`.
    used: usize,
    /// Freed pfns, reused last-in first-out.
    free: Vec<Pfn>,
    capacity: usize,
    allocated: usize,
    pinned_pages: usize,
    /// High-water mark of simultaneously pinned pages.
    pinned_peak: usize,
}

impl FrameAllocator {
    /// A pool of `capacity` frames.
    pub fn new(capacity: usize) -> Self {
        FrameAllocator {
            chunks: Vec::new(),
            used: 0,
            free: Vec::new(),
            capacity,
            allocated: 0,
            pinned_pages: 0,
            pinned_peak: 0,
        }
    }

    /// Allocate a zeroed frame with refcount 1. Its bytes are not
    /// materialised until first written.
    pub fn alloc(&mut self) -> Result<Pfn, MemError> {
        let pfn = match self.free.pop() {
            Some(pfn) => pfn,
            None if self.used < self.capacity => {
                if self.used.is_multiple_of(CHUNK) {
                    let len = CHUNK.min(self.capacity - self.used);
                    self.chunks.push((0..len).map(|_| None).collect());
                }
                self.used += 1;
                Pfn(self.used as u32 - 1)
            }
            None => return Err(MemError::OutOfMemory),
        };
        let slot = self.slot_mut(pfn).expect("handed-out pfn has a slot");
        debug_assert!(slot.is_none());
        *slot = Some(Frame {
            data: None,
            refcount: 1,
            pin_count: 0,
        });
        self.allocated += 1;
        Ok(pfn)
    }

    fn slot_mut(&mut self, pfn: Pfn) -> Option<&mut Option<Frame>> {
        let i = pfn.0 as usize;
        self.chunks.get_mut(i / CHUNK)?.get_mut(i % CHUNK)
    }

    fn frame(&self, pfn: Pfn) -> &Frame {
        let i = pfn.0 as usize;
        self.chunks
            .get(i / CHUNK)
            .and_then(|chunk| chunk.get(i % CHUNK)?.as_ref())
            .unwrap_or_else(|| panic!("use of freed frame {pfn:?}"))
    }

    fn frame_mut(&mut self, pfn: Pfn) -> &mut Frame {
        self.slot_mut(pfn)
            .and_then(Option::as_mut)
            .unwrap_or_else(|| panic!("use of freed frame {pfn:?}"))
    }

    /// Take an additional reference (new mapping sharing the frame).
    pub fn get(&mut self, pfn: Pfn) {
        self.frame_mut(pfn).refcount += 1;
    }

    /// Drop a reference; the frame is freed when the count reaches zero.
    ///
    /// # Panics
    /// Panics if the frame is freed while still pinned with its last
    /// reference — pinners hold their own reference, so this indicates a
    /// refcounting bug in the caller.
    pub fn put(&mut self, pfn: Pfn) {
        let f = self.frame_mut(pfn);
        assert!(f.refcount > 0, "refcount underflow on {pfn:?}");
        f.refcount -= 1;
        if f.refcount == 0 {
            assert_eq!(f.pin_count, 0, "freeing pinned frame {pfn:?}");
            *self.slot_mut(pfn).expect("live frame has a slot") = None;
            self.free.push(pfn);
            self.allocated -= 1;
        }
    }

    /// Pin the frame for DMA: takes a reference *and* raises the pin count.
    pub fn pin(&mut self, pfn: Pfn) {
        let f = self.frame_mut(pfn);
        f.refcount += 1;
        f.pin_count += 1;
        self.pinned_pages += 1;
        self.pinned_peak = self.pinned_peak.max(self.pinned_pages);
    }

    /// Release a DMA pin (drops the pinner's reference too).
    pub fn unpin(&mut self, pfn: Pfn) {
        {
            let f = self.frame_mut(pfn);
            assert!(f.pin_count > 0, "unpin of unpinned frame {pfn:?}");
            f.pin_count -= 1;
        }
        self.pinned_pages -= 1;
        self.put(pfn);
    }

    /// True if the frame has at least one DMA pin.
    pub fn is_pinned(&self, pfn: Pfn) -> bool {
        self.frame(pfn).pin_count > 0
    }

    /// Current reference count (for tests/assertions).
    pub fn refcount(&self, pfn: Pfn) -> u32 {
        self.frame(pfn).refcount
    }

    /// Read bytes from the frame at `offset`.
    ///
    /// # Panics
    /// Panics if the access crosses the frame boundary or targets a freed
    /// frame — both are driver bugs, not recoverable conditions.
    pub fn read(&self, pfn: Pfn, offset: u64, buf: &mut [u8]) {
        let off = offset as usize;
        let page = self.frame(pfn).data.as_deref().unwrap_or(&ZERO_PAGE);
        buf.copy_from_slice(&page[off..off + buf.len()]);
    }

    /// Write bytes into the frame at `offset`.
    pub fn write(&mut self, pfn: Pfn, offset: u64, data: &[u8]) {
        let off = offset as usize;
        let page = &mut self.frame_mut(pfn).data;
        if page.is_none() && off == 0 && data.len() == PAGE_SIZE as usize {
            *page = Some(Box::from(data));
            return;
        }
        let page = page.get_or_insert_with(|| vec![0u8; PAGE_SIZE as usize].into_boxed_slice());
        page[off..off + data.len()].copy_from_slice(data);
    }

    /// Copy a whole frame's contents onto another frame (COW break,
    /// migration). A copy of a never-written frame stays never-written.
    pub fn copy_frame(&mut self, src: Pfn, dst: Pfn) {
        assert_ne!(src, dst);
        let data = self.frame(src).data.clone();
        self.frame_mut(dst).data = data;
    }

    /// Number of frames currently allocated.
    pub fn allocated(&self) -> usize {
        self.allocated
    }

    /// Number of free frames.
    pub fn free_frames(&self) -> usize {
        self.capacity - self.allocated
    }

    /// Number of page pins currently outstanding (counts multiplicity).
    pub fn pinned_pages(&self) -> usize {
        self.pinned_pages
    }

    /// High-water mark of outstanding pins.
    pub fn pinned_peak(&self) -> usize {
        self.pinned_peak
    }

    /// Pool capacity in frames.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_free_cycle() {
        let mut fa = FrameAllocator::new(4);
        let a = fa.alloc().unwrap();
        let b = fa.alloc().unwrap();
        assert_ne!(a, b);
        assert_eq!(fa.allocated(), 2);
        fa.put(a);
        assert_eq!(fa.allocated(), 1);
        let c = fa.alloc().unwrap();
        assert_eq!(c, a, "freed frame is reused");
        fa.put(b);
        fa.put(c);
        assert_eq!(fa.allocated(), 0);
        assert_eq!(fa.free_frames(), 4);
    }

    #[test]
    fn out_of_memory() {
        let mut fa = FrameAllocator::new(1);
        let _a = fa.alloc().unwrap();
        assert!(matches!(fa.alloc(), Err(MemError::OutOfMemory)));
    }

    #[test]
    fn hands_out_pfns_in_eager_free_list_order() {
        // Reference: the eager pool, every pfn on the free list up front
        // as `(0..cap).rev()` and freed pfns reused last-in first-out.
        let mut rng = simcore::SimRng::new(0x5133_0004);
        // The last pool spans a full table chunk and a partial one.
        for cap in [1usize, 7, 64, CHUNK + 88] {
            let mut fa = FrameAllocator::new(cap);
            let mut eager: Vec<Pfn> = (0..cap as u32).rev().map(Pfn).collect();
            let mut live: Vec<Pfn> = Vec::new();
            let mut ooms = 0;
            for step in 0..2000.max(8 * cap) {
                // Allocate three times in five so the pool runs dry.
                if live.is_empty() || rng.below(5) < 3 {
                    match (fa.alloc(), eager.pop()) {
                        (Ok(got), Some(want)) => {
                            assert_eq!(got, want, "cap {cap} step {step}");
                            live.push(got);
                        }
                        (Err(MemError::OutOfMemory), None) => ooms += 1,
                        (got, want) => panic!("cap {cap} step {step}: {got:?} vs {want:?}"),
                    }
                } else {
                    let pfn = live.swap_remove(rng.below(live.len() as u64) as usize);
                    fa.put(pfn);
                    eager.push(pfn);
                }
                assert_eq!(fa.allocated(), live.len(), "cap {cap} step {step}");
                assert_eq!(fa.free_frames(), eager.len(), "cap {cap} step {step}");
                assert_eq!(fa.capacity(), cap);
            }
            assert!(ooms > 0, "cap {cap}: the pool never ran dry");
        }
    }

    #[test]
    fn frames_are_zeroed_on_alloc() {
        let mut fa = FrameAllocator::new(2);
        let a = fa.alloc().unwrap();
        assert_eq!(read_page(&fa, a), vec![0u8; PAGE_SIZE as usize]);
        fa.write(a, 0, &[0xff; 16]);
        fa.put(a);
        let b = fa.alloc().unwrap();
        assert_eq!(b, a);
        assert_eq!(read_page(&fa, b), vec![0u8; PAGE_SIZE as usize]);
    }

    fn read_page(fa: &FrameAllocator, pfn: Pfn) -> Vec<u8> {
        let mut page = vec![0xaa; PAGE_SIZE as usize];
        fa.read(pfn, 0, &mut page);
        page
    }

    #[test]
    fn partial_first_write_keeps_zeros_around_it() {
        let mut fa = FrameAllocator::new(1);
        let a = fa.alloc().unwrap();
        fa.write(a, 1000, b"middle");
        let page = read_page(&fa, a);
        assert!(page[..1000].iter().all(|&b| b == 0));
        assert_eq!(&page[1000..1006], b"middle");
        assert!(page[1006..].iter().all(|&b| b == 0));
    }

    #[test]
    fn full_page_first_write_reads_back() {
        let mut fa = FrameAllocator::new(1);
        let a = fa.alloc().unwrap();
        let mut data: Vec<u8> = (0..PAGE_SIZE).map(|i| (i % 251) as u8 + 1).collect();
        fa.write(a, 0, &data);
        assert_eq!(read_page(&fa, a), data);
        fa.write(a, 10, b"again");
        data[10..15].copy_from_slice(b"again");
        assert_eq!(read_page(&fa, a), data);
    }

    #[test]
    fn copy_frame_of_never_written_and_written_frames() {
        let mut fa = FrameAllocator::new(3);
        let blank = fa.alloc().unwrap();
        let written = fa.alloc().unwrap();
        let dst = fa.alloc().unwrap();
        fa.write(written, 4000, b"tail bytes");
        fa.write(dst, 0, &[0xee; PAGE_SIZE as usize]);
        fa.copy_frame(written, dst);
        let copy = read_page(&fa, dst);
        assert_eq!(&copy[4000..4010], b"tail bytes");
        assert_eq!(copy, read_page(&fa, written));
        fa.copy_frame(blank, dst);
        assert_eq!(read_page(&fa, dst), vec![0u8; PAGE_SIZE as usize]);
        assert!(fa.frame(dst).data.is_none(), "the copy stays never-written");
        // The frames are independent after the copies.
        fa.write(dst, 0, b"own");
        assert_eq!(read_page(&fa, blank), vec![0u8; PAGE_SIZE as usize]);
        assert_eq!(read_page(&fa, written), copy);
    }

    #[test]
    fn pin_keeps_frame_alive_past_unmap() {
        let mut fa = FrameAllocator::new(2);
        let a = fa.alloc().unwrap(); // mapping ref
        fa.write(a, 100, b"payload");
        fa.pin(a); // DMA pin
        fa.put(a); // mapping goes away (munmap)
        assert_eq!(fa.allocated(), 1, "pinned frame survives");
        let mut buf = [0u8; 7];
        fa.read(a, 100, &mut buf);
        assert_eq!(&buf, b"payload");
        fa.unpin(a);
        assert_eq!(fa.allocated(), 0);
    }

    #[test]
    fn pin_statistics() {
        let mut fa = FrameAllocator::new(4);
        let a = fa.alloc().unwrap();
        let b = fa.alloc().unwrap();
        fa.pin(a);
        fa.pin(b);
        fa.pin(a); // double pin of the same frame counts twice
        assert_eq!(fa.pinned_pages(), 3);
        assert_eq!(fa.pinned_peak(), 3);
        fa.unpin(a);
        fa.unpin(b);
        assert_eq!(fa.pinned_pages(), 1);
        assert_eq!(fa.pinned_peak(), 3);
        assert!(fa.is_pinned(a));
        fa.unpin(a);
        assert!(!fa.is_pinned(a));
    }

    #[test]
    fn copy_frame_copies_bytes() {
        let mut fa = FrameAllocator::new(2);
        let a = fa.alloc().unwrap();
        let b = fa.alloc().unwrap();
        fa.write(a, 0, b"hello");
        fa.copy_frame(a, b);
        let mut buf = [0u8; 5];
        fa.read(b, 0, &mut buf);
        assert_eq!(&buf, b"hello");
    }

    #[test]
    #[should_panic(expected = "use of freed frame")]
    fn use_after_free_is_caught() {
        let mut fa = FrameAllocator::new(1);
        let a = fa.alloc().unwrap();
        fa.put(a);
        let mut buf = [0u8; 1];
        fa.read(a, 0, &mut buf);
    }

    #[test]
    #[should_panic(expected = "unpin of unpinned frame")]
    fn unbalanced_unpin_is_caught() {
        let mut fa = FrameAllocator::new(1);
        let a = fa.alloc().unwrap();
        fa.unpin(a);
    }
}
