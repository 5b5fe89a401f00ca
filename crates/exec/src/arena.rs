//! The sharded shared-memory arena behind [`crate::NativeMachine`].
//!
//! The arena used to be one monolithic `Vec<AtomicU64>`, which made every
//! growth a reallocation: the allocator memcpy-moved the whole old arena
//! into a larger block, transiently holding ~2× the peak footprint and
//! serializing growth behind one giant copy.  That cliff capped practical
//! runs near 2²⁴ cells — far below the sizes where the paper's contention
//! charging (and the "millions of users" service goals) get interesting.
//!
//! `Arena` stores cells in independently allocated, cache-line-aligned
//! **shards** of [`SHARD_CELLS`] cells each (a power of two), indexed by a
//! flat pointer table:
//!
//! ```text
//!  cell address addr ──┬── addr >> SHARD_SHIFT ──▶ shard index
//!                      └── addr &  SHARD_MASK  ──▶ offset within shard
//!
//!  shards: [ ptr₀ │ ptr₁ │ ptr₂ │ … ]     (the only thing that ever
//!             │      │      │              relocates on growth)
//!             ▼      ▼      ▼
//!           2 MiB  2 MiB  2 MiB   64-byte-aligned cell blocks
//!           shard  shard  shard   (cells NEVER move once allocated)
//! ```
//!
//! **The grow-without-move invariant**: `Arena::reserve_shards` only ever
//! *appends* shards.  Existing cells keep their addresses for the lifetime
//! of the machine, growth allocates exactly the new shards (no transient
//! 2× footprint, no copy of live data), and the new shards' EMPTY fill
//! parallelizes over the step pool like any other bulk memory operation.
//! The hot-path address computation stays a shift plus a mask into a
//! pointer table that fits in cache (2³⁰ cells → 4096 shard pointers).
//!
//! Cells beyond `Arena::len` (the logical size) but within allocated
//! shards are kept [`EMPTY`]: every write path is bounds-checked against
//! the logical size, so the slack of the last shard can never hold stale
//! data — which is what lets [`crate::NativeMachine`]'s `alloc` skip
//! re-clearing freshly grown cells.
//!
//! # The dirty map
//!
//! Beside every shard sits a page-granular **dirty map**: one byte per
//! [`PAGE_CELLS`]-cell page plus one "any page dirty" summary byte.
//!
//! ```text
//!  shard s:  [ page 0 │ page 1 │ … │ page 511 ]   512 cells (4 KiB) each
//!  dirty s:  [   0    │   1    │ … │    0     ]   one byte per page
//!  any   s:      1                                 scan skips clean shards
//! ```
//!
//! The map is **unarmed** until the machine's first snapshot, so one-shot
//! machines pay one predictable branch per write.  Once armed, every write
//! path of the machine marks the page it stores into (a relaxed byte load,
//! plus two byte stores on the first touch of a page), and a snapshot or a
//! rollback visits only the marked pages — `Arena::take_dirty` — so both
//! cost O(cells written since the last one), not O(resident cells).

use std::alloc::{alloc, dealloc, handle_alloc_error, Layout};
use std::ptr::NonNull;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

use qrqw_sim::EMPTY;

/// Cells per shard: 2¹⁸ cells = 2 MiB per shard.  Small enough that tiny
/// test machines don't over-commit, large enough that a 2³⁰-cell arena is
/// only 4096 shard pointers (one L1-resident table).
pub const SHARD_CELLS: usize = 1 << 18;

/// Shift of the cell→shard map: `addr >> SHARD_SHIFT` is the shard index.
pub const SHARD_SHIFT: u32 = SHARD_CELLS.trailing_zeros();

/// Mask of the cell→shard map: `addr & SHARD_MASK` is the in-shard offset.
pub const SHARD_MASK: usize = SHARD_CELLS - 1;

/// Alignment of every shard allocation (and therefore of cell 0 of every
/// shard): one cache line, so shard starts never false-share with foreign
/// allocations.
pub const CACHE_LINE: usize = 64;

/// Cells per page of the dirty map: 2⁹ cells = 4 KiB, the granularity at
/// which snapshots and rollbacks copy.
pub const PAGE_CELLS: usize = 1 << PAGE_SHIFT;

const PAGE_SHIFT: u32 = 9;

/// Dirty-map pages per shard.
const SHARD_PAGES: usize = SHARD_CELLS / PAGE_CELLS;

const SHARD_BYTES: usize = SHARD_CELLS * std::mem::size_of::<AtomicU64>();

const _: () = assert!(
    SHARD_CELLS.is_power_of_two(),
    "shift+mask map needs a power of two"
);
const _: () = assert!(
    EMPTY == u64::MAX,
    "byte-fill EMPTY initialization requires all-ones EMPTY"
);

fn shard_layout() -> Layout {
    // Size and alignment are compile-time constants; the layout is valid.
    Layout::from_size_align(SHARD_BYTES, CACHE_LINE).expect("shard layout")
}

/// One independently allocated, cache-line-aligned block of
/// [`SHARD_CELLS`] cells.
struct Shard {
    cells: NonNull<AtomicU64>,
}

// Safety: a Shard is a plain block of atomic cells; all access goes
// through `&Arena` under the machine's aliasing discipline.
unsafe impl Send for Shard {}
unsafe impl Sync for Shard {}

impl Shard {
    /// Allocates one shard, *uninitialized* — the caller must EMPTY-fill
    /// it (via [`Arena::fill_empty`]) before any cell reference is formed.
    fn alloc_uninit() -> Shard {
        let layout = shard_layout();
        // Safety: the layout has non-zero size.
        let ptr = unsafe { alloc(layout) };
        match NonNull::new(ptr.cast::<AtomicU64>()) {
            Some(cells) => Shard { cells },
            None => handle_alloc_error(layout),
        }
    }
}

impl Drop for Shard {
    fn drop(&mut self) {
        // Safety: allocated by `alloc_uninit` with the same layout.
        unsafe { dealloc(self.cells.as_ptr().cast(), shard_layout()) };
    }
}

/// The dirty map of one shard: which of its pages were written since the
/// map was last taken.
struct DirtyMap {
    /// Nonzero iff the page was written.
    pages: [AtomicU8; SHARD_PAGES],
    /// Nonzero iff any byte of `pages` is — lets a scan skip clean shards.
    any: AtomicU8,
}

impl DirtyMap {
    fn clean() -> DirtyMap {
        DirtyMap {
            pages: [const { AtomicU8::new(0) }; SHARD_PAGES],
            any: AtomicU8::new(0),
        }
    }
}

/// A snapshot of an arena's shape, for harnesses and the service layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArenaStats {
    /// Logical size: the number of addressable cells.
    pub cells: usize,
    /// Allocated shards ([`SHARD_CELLS`] cells each).
    pub shards: usize,
    /// Cells per shard (the compile-time [`SHARD_CELLS`] constant, carried
    /// so reports stay meaningful if the constant is retuned).
    pub shard_cells: usize,
}

/// The sharded cell store.  See the module docs for the layout and the
/// grow-without-move invariant.
#[derive(Default)]
pub(crate) struct Arena {
    shards: Vec<Shard>,
    /// One dirty map per shard once armed (empty before, so an unarmed
    /// arena allocates exactly what it did without tracking); kept apart
    /// from `shards` so the hot cell→pointer table stays one pointer per
    /// shard.
    dirty: Vec<DirtyMap>,
    /// Whether writes mark the dirty map (see [`Arena::arm`]).
    armed: bool,
    /// Logical size in cells; every cell in `len..capacity()` is EMPTY.
    len: usize,
}

impl Arena {
    /// Logical size in cells.
    #[inline(always)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Allocated size in cells (a multiple of [`SHARD_CELLS`]).
    pub(crate) fn capacity(&self) -> usize {
        self.shards.len() << SHARD_SHIFT
    }

    /// The arena's shape.
    pub(crate) fn stats(&self) -> ArenaStats {
        ArenaStats {
            cells: self.len,
            shards: self.shards.len(),
            shard_cells: SHARD_CELLS,
        }
    }

    /// Appends (uninitialized) shards until `size` cells fit, and returns
    /// the cell range the *new* shards cover — the caller must EMPTY-fill
    /// that range before publishing any of it via [`Arena::set_len`].
    /// Existing shards are untouched: cells never move.
    pub(crate) fn reserve_shards(&mut self, size: usize) -> std::ops::Range<usize> {
        let old_cap = self.capacity();
        let need = size.div_ceil(SHARD_CELLS);
        while self.shards.len() < need {
            self.shards.push(Shard::alloc_uninit());
        }
        if self.armed {
            self.dirty.resize_with(self.shards.len(), DirtyMap::clean);
        }
        old_cap..self.capacity()
    }

    /// Publishes cells up to `len` (which must be allocated and
    /// EMPTY-filled).  The logical size never shrinks.
    pub(crate) fn set_len(&mut self, len: usize) {
        assert!(len <= self.capacity(), "set_len past allocated shards");
        self.len = self.len.max(len);
    }

    /// The arena's hot-path invariants by value, for the duration of one
    /// borrow (see [`ArenaView`]).
    #[inline(always)]
    pub(crate) fn view(&self) -> ArenaView<'_> {
        ArenaView {
            arena: self,
            shards: &self.shards,
            len: self.len,
            armed: self.armed,
        }
    }

    /// Starts dirty tracking: from here on every write path marks the page
    /// it stores into.  Never disarmed — a machine that snapshots once is a
    /// long-lived one.
    pub(crate) fn arm(&mut self) {
        self.armed = true;
        self.dirty.resize_with(self.shards.len(), DirtyMap::clean);
    }

    /// Records that `start..start + len` (inside the logical size) was
    /// written.
    pub(crate) fn mark_range(&self, start: usize, len: usize) {
        if self.armed && len > 0 {
            for page in start >> PAGE_SHIFT..=(start + len - 1) >> PAGE_SHIFT {
                self.mark_page(page);
            }
        }
    }

    /// Out of line: the unarmed hot path is a test and a not-taken branch.
    #[cold]
    #[inline(never)]
    fn mark_page(&self, page: usize) {
        let map = &self.dirty[page / SHARD_PAGES];
        let byte = &map.pages[page % SHARD_PAGES];
        // Relaxed: the marks publish nothing by themselves — the step
        // barrier (pool join) orders them before the host's next
        // `take_dirty`.  Load first so a hot page's line is only ever read.
        if byte.load(Ordering::Relaxed) == 0 {
            byte.store(1, Ordering::Relaxed);
            map.any.store(1, Ordering::Relaxed);
        }
    }

    /// Calls `f(first_cell)` for every page marked since the last call, in
    /// address order, and leaves the map clean.  Visits only shards whose
    /// summary byte is set.  Must not run concurrently with a step (all
    /// callers hold `&mut NativeMachine`).
    pub(crate) fn take_dirty(&self, mut f: impl FnMut(usize)) {
        for (shard, map) in self.dirty.iter().enumerate() {
            if map.any.swap(0, Ordering::Relaxed) == 0 {
                continue;
            }
            for (page, byte) in map.pages.iter().enumerate() {
                if byte.load(Ordering::Relaxed) != 0 {
                    byte.store(0, Ordering::Relaxed);
                    f((shard * SHARD_PAGES + page) << PAGE_SHIFT);
                }
            }
        }
    }

    /// Raw address of the cell at `addr` — for the no-move and alignment
    /// assertions of the unit tests.
    #[cfg(test)]
    pub(crate) fn cell_addr(&self, addr: usize) -> usize {
        self.view().cell(addr) as *const AtomicU64 as usize
    }

    /// Runs `f(shard_ptr, seg_len)` over the shard segments covering
    /// `start..start + len`, where `shard_ptr` points at the segment's
    /// first cell.  Bounds are checked against *capacity*, not the logical
    /// size, so the EMPTY fill of fresh shards can use it too.
    ///
    /// # Safety
    /// The caller must hold the arena quiescent for the touched range (no
    /// concurrent conflicting raw access), as all bulk callers do: they run
    /// under `&mut NativeMachine` with disjoint per-chunk ranges.
    unsafe fn for_segments(
        &self,
        start: usize,
        len: usize,
        mut f: impl FnMut(*mut AtomicU64, usize),
    ) {
        debug_assert!(
            start + len <= self.capacity(),
            "segment walk past allocated shards"
        );
        let mut addr = start;
        let mut left = len;
        while left > 0 {
            let off = addr & SHARD_MASK;
            let seg = (SHARD_CELLS - off).min(left);
            let shard = self.shards.get_unchecked(addr >> SHARD_SHIFT);
            f(shard.cells.as_ptr().add(off), seg);
            addr += seg;
            left -= seg;
        }
    }

    /// Byte-fills `start..start + len` with [`EMPTY`] (all-ones), walking
    /// shard segments.  Works on still-unpublished (uninitialized) shards.
    ///
    /// # Safety
    /// As for [`Arena::for_segments`]; disjoint ranges may run in parallel.
    pub(crate) unsafe fn fill_empty(&self, start: usize, len: usize) {
        self.for_segments(start, len, |ptr, seg| {
            std::ptr::write_bytes(
                ptr.cast::<u8>(),
                0xFF,
                seg * std::mem::size_of::<AtomicU64>(),
            );
        });
    }

    /// Copies `src` into the cells at `start..`, walking shard segments.
    ///
    /// # Safety
    /// As for [`Arena::for_segments`]; the range must be within the logical
    /// size.
    pub(crate) unsafe fn copy_in(&self, start: usize, src: &[u64]) {
        debug_assert!(start + src.len() <= self.len);
        let mut done = 0usize;
        self.for_segments(start, src.len(), |ptr, seg| {
            // `u64` and `AtomicU64` share layout.
            std::ptr::copy_nonoverlapping(src.as_ptr().add(done), ptr.cast::<u64>(), seg);
            done += seg;
        });
    }

    /// Copies the cells at `start..start + len` out to `dst`, walking shard
    /// segments.
    ///
    /// # Safety
    /// As for [`Arena::for_segments`]; additionally `dst` must be valid for
    /// `len` writes, and the range must be within the logical size.
    pub(crate) unsafe fn copy_out(&self, start: usize, dst: *mut u64, len: usize) {
        debug_assert!(start + len <= self.len);
        let mut done = 0usize;
        self.for_segments(start, len, |ptr, seg| {
            std::ptr::copy_nonoverlapping(ptr.cast::<u64>().cast_const(), dst.add(done), seg);
            done += seg;
        });
    }
}

/// What the per-cell path needs of an [`Arena`], **by value**: the logical
/// length, the shard table and whether writes mark the dirty map.
///
/// Cells are reached through raw pointers, so behind every store the
/// compiler must assume the `Arena` struct itself may have changed and
/// reload `len`, the table pointer and `armed` through `&Arena`.  A step
/// cannot change them (growth and arming need `&mut`), so a step copies
/// them out once and its per-cell loops keep them in registers.  The view
/// is the only way to a single cell: every kernel of
/// [`crate::NativeMachine`] takes one after any growth, and only the bulk
/// host-side operations (`mark_range`, `copy_in` / `copy_out`,
/// `fill_empty`, `take_dirty`) go through the [`Arena`] itself.
#[derive(Clone, Copy)]
pub(crate) struct ArenaView<'a> {
    /// Only the cold dirty-page path goes back through the arena.
    arena: &'a Arena,
    shards: &'a [Shard],
    /// The *logical* size: the slack of the last shard stays out of bounds.
    len: usize,
    armed: bool,
}

impl<'a> ArenaView<'a> {
    /// Logical size in cells.
    #[inline(always)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The cell at `addr`.  Panics when `addr` is outside the logical size.
    #[inline(always)]
    pub(crate) fn cell(&self, addr: usize) -> &'a AtomicU64 {
        if addr >= self.len {
            outside(addr, self.len);
        }
        // Safety: addr < len ≤ capacity (the view was taken from an arena
        // whose `set_len` published `len` cells), so the shard exists and
        // was EMPTY-filled before it was published.  The cell→shard map is
        // a shift for the shard and a mask for the offset in it.
        unsafe {
            let shard = self.shards.get_unchecked(addr >> SHARD_SHIFT);
            &*shard.cells.as_ptr().add(addr & SHARD_MASK)
        }
    }

    /// Hints the cache that the cell at `addr` is about to be accessed.
    #[inline(always)]
    pub(crate) fn prefetch(&self, addr: usize) {
        #[cfg(target_arch = "x86_64")]
        if addr < self.len {
            // Safety: prefetch is a pure hint; the address is in bounds.
            unsafe {
                let shard = self.shards.get_unchecked(addr >> SHARD_SHIFT);
                core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(
                    shard.cells.as_ptr().add(addr & SHARD_MASK).cast::<i8>(),
                );
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = addr;
    }

    /// The cells `addr..addr + len` as plain words, or `None` when they
    /// cross a shard boundary.  Panics when the range leaves the logical
    /// size.
    ///
    /// # Safety
    /// No other access to these cells may happen while the slice lives —
    /// within a step, the range must be this chunk's alone.
    #[inline(always)]
    pub(crate) unsafe fn words_mut(&self, addr: usize, len: usize) -> Option<&'a mut [u64]> {
        assert!(
            addr + len <= self.len,
            "cells {addr}..{} outside shared memory of size {}",
            addr + len,
            self.len
        );
        if (addr & SHARD_MASK) + len > SHARD_CELLS {
            return None;
        }
        // `u64` and `AtomicU64` share layout; the range lies in one
        // published shard.
        let shard = self.shards.get_unchecked(addr >> SHARD_SHIFT);
        let first = shard.cells.as_ptr().add(addr & SHARD_MASK).cast::<u64>();
        Some(std::slice::from_raw_parts_mut(first, len))
    }

    /// Records that the cell at `addr` (inside the logical size) was
    /// written.  One predictable branch while unarmed.
    #[inline(always)]
    pub(crate) fn mark(&self, addr: usize) {
        if self.armed {
            self.arena.mark_page(addr >> PAGE_SHIFT);
        }
    }
}

/// The bounds failure of [`ArenaView::cell`], out of line and by value: a
/// panic message that borrowed the view's `len` would make a caller that
/// takes a view for one cell (`peek`, `poke`) build the whole view in
/// memory first.
#[cold]
#[inline(never)]
fn outside(addr: usize, len: usize) -> ! {
    panic!("address {addr} outside shared memory of size {len}")
}

impl std::fmt::Debug for Arena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Arena")
            .field("cells", &self.len)
            .field("shards", &self.shards.len())
            .field("shard_cells", &SHARD_CELLS)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    fn filled(size: usize) -> Arena {
        let mut a = Arena::default();
        let fresh = a.reserve_shards(size);
        unsafe { a.fill_empty(fresh.start, fresh.len()) };
        a.set_len(size);
        a
    }

    #[test]
    fn shard_map_is_shift_plus_mask_at_boundaries() {
        // First and last cell of a shard, and the first cell of the next:
        // the map must cross exactly at the power-of-two boundary.
        for (addr, shard, off) in [
            (0usize, 0usize, 0usize),
            (1, 0, 1),
            (SHARD_CELLS - 1, 0, SHARD_CELLS - 1),
            (SHARD_CELLS, 1, 0),
            (SHARD_CELLS + 1, 1, 1),
            (2 * SHARD_CELLS - 1, 1, SHARD_CELLS - 1),
            (2 * SHARD_CELLS, 2, 0),
            (5 * SHARD_CELLS + 17, 5, 17),
        ] {
            assert_eq!(addr >> SHARD_SHIFT, shard, "shard of {addr}");
            assert_eq!(addr & SHARD_MASK, off, "offset of {addr}");
        }
        assert_eq!(1usize << SHARD_SHIFT, SHARD_CELLS);
        assert_eq!(SHARD_MASK, SHARD_CELLS - 1);
    }

    #[test]
    fn cells_are_empty_filled_and_shard_starts_cache_line_aligned() {
        let a = filled(2 * SHARD_CELLS + 3);
        assert_eq!(a.stats().shards, 3);
        assert_eq!(a.len(), 2 * SHARD_CELLS + 3);
        for addr in [0, SHARD_CELLS - 1, SHARD_CELLS, 2 * SHARD_CELLS + 2] {
            assert_eq!(
                a.view().cell(addr).load(Ordering::Relaxed),
                EMPTY,
                "cell {addr}"
            );
        }
        for shard in 0..3 {
            assert_eq!(
                a.cell_addr(shard * SHARD_CELLS) % CACHE_LINE,
                0,
                "shard {shard} start must be cache-line aligned"
            );
        }
        // Adjacent cells within a shard are contiguous; cells across a
        // shard boundary generally are not.
        assert_eq!(a.cell_addr(1) - a.cell_addr(0), 8);
    }

    #[test]
    fn growth_appends_shards_without_moving_existing_cells() {
        let mut a = filled(10);
        a.view().cell(3).store(42, Ordering::Relaxed);
        let before: Vec<usize> = [0, 3, 9].iter().map(|&x| a.cell_addr(x)).collect();
        // Grow by many shards: the pointer table reallocates, cells don't.
        let fresh = a.reserve_shards(7 * SHARD_CELLS + 5);
        assert_eq!(fresh, SHARD_CELLS..8 * SHARD_CELLS);
        unsafe { a.fill_empty(fresh.start, fresh.len()) };
        a.set_len(7 * SHARD_CELLS + 5);
        let after: Vec<usize> = [0, 3, 9].iter().map(|&x| a.cell_addr(x)).collect();
        assert_eq!(before, after, "growth must never move existing cells");
        assert_eq!(a.view().cell(3).load(Ordering::Relaxed), 42);
        assert_eq!(
            a.view().cell(7 * SHARD_CELLS + 4).load(Ordering::Relaxed),
            EMPTY
        );
    }

    #[test]
    fn growth_within_the_last_shard_allocates_nothing() {
        let mut a = filled(10);
        let fresh = a.reserve_shards(SHARD_CELLS);
        assert!(fresh.is_empty(), "the first shard already covers this");
        a.set_len(SHARD_CELLS);
        assert_eq!(a.stats().shards, 1);
        assert_eq!(
            a.view().cell(SHARD_CELLS - 1).load(Ordering::Relaxed),
            EMPTY
        );
    }

    #[test]
    #[should_panic(expected = "outside shared memory")]
    fn out_of_bounds_cell_access_panics() {
        let a = filled(10);
        let _ = a.view().cell(10);
    }

    #[test]
    fn bulk_copies_cross_shard_boundaries() {
        let n = SHARD_CELLS + 100;
        let a = filled(n);
        let src: Vec<u64> = (0..200u64).collect();
        let base = SHARD_CELLS - 100; // straddles the shard 0 / shard 1 seam
        unsafe { a.copy_in(base, &src) };
        let mut out = vec![0u64; 200];
        unsafe { a.copy_out(base, out.as_mut_ptr(), 200) };
        assert_eq!(out, src);
        assert_eq!(a.view().cell(SHARD_CELLS).load(Ordering::Relaxed), 100);
        assert_eq!(a.view().cell(base - 1).load(Ordering::Relaxed), EMPTY);
    }

    #[test]
    fn stats_report_the_shape() {
        let a = filled(3 * SHARD_CELLS + 1);
        let s = a.stats();
        assert_eq!(s.cells, 3 * SHARD_CELLS + 1);
        assert_eq!(s.shards, 4);
        assert_eq!(s.shard_cells, SHARD_CELLS);
    }
}
