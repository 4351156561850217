//! Cell buffers born on transparent huge pages.
//!
//! A fresh anonymous page costs more than the copy into it: the first
//! write to each 4 KiB page of a multi-MiB buffer is a fault, and on
//! the data path those faults, not the copies, dominate a large piece's
//! cost (DESIGN.md §9.5). `madvise(MADV_HUGEPAGE)` before the first
//! touch lets the kernel back each whole 2 MiB-aligned stretch of the
//! buffer with one huge page, one fault instead of 512. The call is
//! bound through `extern "C"` (the convention [`crate::shm`] uses for
//! `mmap`). Off Linux, and where the kernel refuses the advice, a
//! buffer is simply left on base pages.
//!
//! Two births, by how long a buffer lives. A transient buffer (a
//! concurrent piece, an assembly, a decoded payload) that its owner's
//! shelf cannot hand back warm (`crate::Recycled`) is a `Vec` advised by
//! [`on_huge_pages`]. In the `insitu` binary the global allocator,
//! [`HugeAlloc`], has already placed a large one on whole, aligned huge
//! pages advised before it was returned; under `System` it rarely
//! starts on a 2 MiB boundary, so only the whole pages inside it are
//! advised. Retained buffers (a producer's sequential pieces, staged
//! until their consumer bundle runs) are [`HugeCells`] carved back to
//! back from one [`HugeSlab`]: the slab starts on a 2 MiB boundary
//! under any allocator, so every whole huge page of it is advised, and
//! consecutive pieces share the pages where one ends and the next
//! begins. The slab is freed when its last piece drops.

use std::alloc::{self, GlobalAlloc, Layout, System};
use std::mem::MaybeUninit;
use std::ptr::NonNull;
use std::sync::Arc;

/// The platform's huge-page size (a PMD on x86-64 and on aarch64 with
/// 4 KiB base pages).
pub const HUGE_PAGE: usize = 2 << 20;

#[cfg(target_os = "linux")]
mod sys {
    const MADV_HUGEPAGE: i32 = 14;

    extern "C" {
        fn madvise(addr: *mut u8, len: usize, advice: i32) -> i32;
    }

    pub(crate) fn advise_huge(start: usize, len: usize) {
        // SAFETY: `start..start + len` lies inside one live allocation
        // (see `advise`'s callers and `huge_range`); MADV_HUGEPAGE
        // changes how its pages are backed, never their contents. A
        // refusal (THP not built in) leaves the range as it was, so the
        // result is not needed.
        unsafe {
            madvise(start as *mut u8, len, MADV_HUGEPAGE);
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    pub(crate) fn advise_huge(_start: usize, _len: usize) {}
}

/// The whole [`HUGE_PAGE`]-aligned pages strictly inside the `len`
/// bytes at `addr`, as `(start, len)`; `None` when there is not one.
fn huge_range(addr: usize, len: usize) -> Option<(usize, usize)> {
    let start = addr.checked_next_multiple_of(HUGE_PAGE)?;
    let end = addr.checked_add(len)? / HUGE_PAGE * HUGE_PAGE;
    (end > start).then(|| (start, end - start))
}

/// Hand back `fresh` — a cell buffer just allocated and not yet
/// written, as `vec![0.0; n]` or `Vec::with_capacity(n)` — with every
/// whole 2 MiB-aligned huge page inside its capacity advised
/// `MADV_HUGEPAGE`, so that its first touch faults huge pages. A buffer
/// that holds no whole aligned huge page is returned untouched, and no
/// byte outside the buffer is ever advised.
///
/// This is how `crate::Recycled` makes a transient buffer on a miss:
/// the filled field a concurrent `put` stages, a `get`'s assembly
/// buffer, `FieldData`'s copies and the bulk tail a decoded frame lands
/// in (a `PullData` payload, a `Relay` message). Under [`HugeAlloc`] a
/// large buffer is already placed and advised whole; the advice here is
/// for a process that keeps `System` (the benchmark's in-process runs),
/// where a 4 MiB buffer holds one whole aligned page: without it
/// `insitu_node` measured about 10 % slower (DESIGN.md §9.5).
pub(crate) fn on_huge_pages<T>(fresh: Vec<T>) -> Vec<T> {
    let bytes = fresh.capacity().saturating_mul(std::mem::size_of::<T>());
    advise(fresh.as_ptr() as usize, bytes);
    fresh
}

/// Advise the whole huge pages inside the `len` bytes at `addr`.
fn advise(addr: usize, len: usize) {
    if let Some((start, len)) = huge_range(addr, len) {
        sys::advise_huge(start, len);
    }
}

/// A global allocator over [`System`] that places every large block on
/// whole, [`HUGE_PAGE`]-aligned pages advised `MADV_HUGEPAGE` before the
/// block is returned, so its first touch faults huge pages, not 4 KiB
/// ones. Every other block is `System`'s, unchanged.
///
/// A block is large when rounding its size up to whole huge pages adds
/// at most a quarter of the request ([`HugeAlloc::placed`]): a 1.77 MB
/// piece gets one 2 MiB page, a 1 MiB or 1.3 MiB one stays where malloc
/// puts it. The allocator holds no state and never allocates; `dealloc`
/// and `realloc` recompute a block's layout from its size and alignment
/// with the same pure function, so every block is freed with the layout
/// it was given.
///
/// The `insitu` binary declares it `#[global_allocator]`: each process
/// it starts is fresh, and glibc never puts a block under its mmap
/// threshold on a huge-page boundary. A library crate must not declare
/// it, since a long-lived process that runs many workflows keeps more
/// of malloc's warm reuse with `System`.
pub struct HugeAlloc;

impl HugeAlloc {
    /// The layout `System` gives a block of `layout` on huge pages: its
    /// size rounded up to whole [`HUGE_PAGE`]s and its alignment at
    /// least one, when the rounding adds at most a quarter of the
    /// request; `None` for a block that stays `System`'s as asked.
    pub fn placed(layout: Layout) -> Option<Layout> {
        let size = layout.size();
        let rounded = size.checked_next_multiple_of(HUGE_PAGE)?;
        if size == 0 || rounded - size > size / 4 {
            return None;
        }
        Layout::from_size_align(rounded, layout.align().max(HUGE_PAGE)).ok()
    }
}

// SAFETY: every block comes from `System`, with `layout` itself or with
// `HugeAlloc::placed(layout)`, which is at least as large and as
// aligned; `dealloc` and `realloc` recompute that choice from the same
// `layout`, so `System` always frees a block with the layout it gave it.
unsafe impl GlobalAlloc for HugeAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        match HugeAlloc::placed(layout) {
            Some(huge) => advised(System.alloc(huge), huge),
            None => System.alloc(layout),
        }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let Some(huge) = HugeAlloc::placed(layout) else {
            return System.alloc_zeroed(layout);
        };
        // Advised first, so the zeroing itself faults huge pages.
        let block = advised(System.alloc(huge), huge);
        if !block.is_null() {
            // SAFETY: `block` is a fresh allocation of `huge.size()`
            // bytes, at least `layout.size()`.
            std::ptr::write_bytes(block, 0, layout.size());
        }
        block
    }

    unsafe fn dealloc(&self, block: *mut u8, layout: Layout) {
        System.dealloc(block, HugeAlloc::placed(layout).unwrap_or(layout));
    }

    unsafe fn realloc(&self, block: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller guarantees `new_size`, rounded up to
        // `layout.align()`, does not overflow `isize`.
        let new = Layout::from_size_align_unchecked(new_size, layout.align());
        match (HugeAlloc::placed(layout), HugeAlloc::placed(new)) {
            (None, None) => System.realloc(block, layout, new_size),
            // The block already holds the whole pages the new size needs.
            (Some(old), Some(huge)) if old == huge => block,
            _ => {
                let moved = self.alloc(new);
                if !moved.is_null() {
                    // SAFETY: `block` is live with `layout.size()` bytes
                    // and `moved` is a fresh, distinct block of at least
                    // `new_size`; the smaller of the two is copied.
                    std::ptr::copy_nonoverlapping(block, moved, layout.size().min(new_size));
                    self.dealloc(block, layout);
                }
                moved
            }
        }
    }
}

/// `block`, a fresh allocation of `huge` (null when `System` refused
/// it), with its whole huge pages advised.
fn advised(block: *mut u8, huge: Layout) -> *mut u8 {
    if !block.is_null() {
        advise(block as usize, huge.size());
    }
    block
}

/// One allocation of `f64` cells on a [`HUGE_PAGE`] boundary, advised
/// `MADV_HUGEPAGE` before its first write. It is freed when the last
/// [`HugeSlab`] or [`HugeCells`] holding it drops.
struct Slab {
    base: NonNull<f64>,
    layout: Layout,
}

// SAFETY: `base` is the only pointer to an allocation this value owns
// outright, and `layout` is a plain value; the cells are written only
// through the disjoint ranges `HugeSlab::carve` hands out, each owned
// by one `HugeCells`, and the allocation may be freed on any thread.
unsafe impl Send for Slab {}
// SAFETY: through `&Slab` nothing reads or writes the cells; `base` is
// only copied, to carve a range.
unsafe impl Sync for Slab {}

impl Drop for Slab {
    fn drop(&mut self) {
        // SAFETY: allocated in `HugeSlab::reserve` with this very layout.
        unsafe { alloc::dealloc(self.base.as_ptr().cast::<u8>(), self.layout) }
    }
}

/// Room for a run of retained pieces in one allocation that starts on a
/// [`HUGE_PAGE`] boundary and was advised `MADV_HUGEPAGE` before its
/// first write, handed out front to back by [`HugeSlab::carve`].
///
/// This is the birth site of retained staging: a sequential `put`'s
/// pieces live until their consumer bundle runs, so their memory is
/// always fresh. Carved back to back from one slab, the tail of one
/// piece and the head of the next share a huge page, so a piece smaller
/// than a huge page is born on huge pages too. The memory is freed when
/// the slab and every piece carved from it have dropped.
pub struct HugeSlab {
    slab: Arc<Slab>,
    cap: usize,
    next: usize,
}

impl HugeSlab {
    /// Room for `cells` cells, advised onto huge pages and not yet
    /// touched; `None` when that size overflows the address space or the
    /// allocator refuses it.
    pub fn reserve(cells: usize) -> Option<HugeSlab> {
        let size = cells.max(1).checked_mul(std::mem::size_of::<f64>())?;
        let layout = Layout::from_size_align(size, HUGE_PAGE).ok()?;
        // SAFETY: the layout's size is nonzero (at least one cell).
        let raw = unsafe { alloc::alloc(layout) };
        let base = NonNull::new(raw.cast::<f64>())?;
        advise(raw as usize, size);
        Some(HugeSlab {
            slab: Arc::new(Slab { base, layout }),
            cap: cells,
            next: 0,
        })
    }

    /// The next `cells` cells of the slab, right after the last range
    /// carved, as an empty [`HugeCells`] of that capacity.
    ///
    /// # Panics
    /// Panics if fewer than `cells` cells are left.
    pub fn carve(&mut self, cells: usize) -> HugeCells {
        assert!(
            cells <= self.cap - self.next,
            "HugeSlab of {} cells has {} left, {cells} asked",
            self.cap,
            self.cap - self.next
        );
        // SAFETY: `next + cells <= cap`, so the range lies inside the
        // allocation, and no earlier carve reached past `next`.
        let start = unsafe { self.slab.base.add(self.next) };
        self.next += cells;
        HugeCells {
            _slab: Arc::clone(&self.slab),
            cells: start,
            len: 0,
            cap: cells,
        }
    }
}

/// A fixed-capacity array of `f64` cells carved from a [`HugeSlab`]:
/// it holds its slab, so the slab's memory lives as long as any piece
/// of it does.
///
/// Filled with [`Extend`] or a row at a time with
/// [`HugeCells::extend_row`] (writing past the capacity panics), read
/// as `[f64]`, and adopted as a `Bytes` owner through its
/// `AsRef<[u8]>` cell bytes.
pub struct HugeCells {
    _slab: Arc<Slab>,
    cells: NonNull<f64>,
    len: usize,
    cap: usize,
}

// SAFETY: `cells` points at a range of the slab that no other value
// reaches (`HugeSlab::carve` hands each range out once), as `Vec<f64>`
// owns its buffer; `_slab` is an `Arc` of a `Send + Sync` slab that
// keeps the range allocated, and `len` and `cap` are plain numbers.
// Moving it to another thread moves all of it.
unsafe impl Send for HugeCells {}
// SAFETY: through `&HugeCells` the cells are only read (`Deref`,
// `AsRef`); every write takes `&mut self`.
unsafe impl Sync for HugeCells {}

impl HugeCells {
    /// Append one row of `n` cells, `cell(i)` for `i` in `0..n`, with
    /// one capacity check for the whole row: the loop that writes it
    /// has nothing else to branch on, so it vectorizes.
    ///
    /// # Panics
    /// Panics if the row does not fit in the room left.
    #[inline(always)]
    pub fn extend_row(&mut self, n: usize, mut cell: impl FnMut(usize) -> f64) {
        assert!(
            n <= self.cap - self.len,
            "HugeCells full at {} cells",
            self.cap
        );
        // SAFETY: `len + n <= cap`, so the `n` slots past `len` lie
        // inside this array's range of the slab and are not yet part of
        // the cells; viewed as `MaybeUninit` they need no initialization
        // to be written.
        let row = unsafe {
            std::slice::from_raw_parts_mut(
                self.cells.as_ptr().add(self.len).cast::<MaybeUninit<f64>>(),
                n,
            )
        };
        for (i, slot) in row.iter_mut().enumerate() {
            slot.write(cell(i));
        }
        self.len += n;
    }
}

impl Extend<f64> for HugeCells {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, cells: I) {
        cells
            .into_iter()
            .for_each(|cell| self.extend_row(1, |_| cell));
    }
}

impl std::ops::Deref for HugeCells {
    type Target = [f64];

    fn deref(&self) -> &[f64] {
        // SAFETY: the first `len` cells were written by `extend_row`.
        unsafe { std::slice::from_raw_parts(self.cells.as_ptr(), self.len) }
    }
}

impl AsRef<[u8]> for HugeCells {
    fn as_ref(&self) -> &[u8] {
        let bytes = self.len * std::mem::size_of::<f64>();
        // SAFETY: the written cells, viewed as bytes: every `f64` bit
        // pattern is valid as bytes, and the view borrows `self`.
        unsafe { std::slice::from_raw_parts(self.cells.as_ptr().cast::<u8>(), bytes) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIB: usize = 1 << 20;

    #[test]
    fn a_buffer_under_one_huge_page_gets_no_range() {
        assert_eq!(huge_range(0, 0), None);
        assert_eq!(huge_range(HUGE_PAGE, HUGE_PAGE - 1), None);
        assert_eq!(huge_range(HUGE_PAGE + 8, 2 * MIB - 16), None);
        assert_eq!(huge_range(4096, 2 * MIB), None);
    }

    #[test]
    fn an_aligned_buffer_is_advised_whole() {
        assert_eq!(
            huge_range(HUGE_PAGE, HUGE_PAGE),
            Some((HUGE_PAGE, HUGE_PAGE))
        );
        assert_eq!(
            huge_range(4 * HUGE_PAGE, 3 * HUGE_PAGE),
            Some((4 * HUGE_PAGE, 3 * HUGE_PAGE))
        );
    }

    #[test]
    fn an_unaligned_start_gets_only_the_whole_pages_strictly_inside() {
        // 16 bytes past an aligned page, 5 MiB long: the first partial
        // page and the tail are left out, one whole page in between.
        let addr = 7 * HUGE_PAGE + 16;
        assert_eq!(huge_range(addr, 5 * MIB), Some((8 * HUGE_PAGE, HUGE_PAGE)));
        // Ending exactly on a boundary keeps the page before it.
        let addr = 3 * HUGE_PAGE - 4096;
        assert_eq!(
            huge_range(addr, 4096 + 2 * HUGE_PAGE),
            Some((3 * HUGE_PAGE, 2 * HUGE_PAGE))
        );
        // One byte short of that boundary loses the last page.
        assert_eq!(
            huge_range(addr, 4095 + 2 * HUGE_PAGE),
            Some((3 * HUGE_PAGE, HUGE_PAGE))
        );
    }

    #[test]
    fn the_range_is_always_inside_the_buffer() {
        let mut rng = crate::SplitMix64::new(0x4855_4745);
        for _ in 0..10_000 {
            let addr = rng.range_usize(0, 64 * HUGE_PAGE);
            let len = rng.range_usize(0, 8 * HUGE_PAGE);
            if let Some((start, n)) = huge_range(addr, len) {
                assert!(
                    start >= addr && start + n <= addr + len,
                    "{addr:#x}+{len:#x}"
                );
                assert_eq!((start % HUGE_PAGE, n % HUGE_PAGE), (0, 0));
                assert!(n > 0);
            } else {
                let first = addr.next_multiple_of(HUGE_PAGE);
                assert!(
                    first + HUGE_PAGE > addr + len,
                    "{addr:#x}+{len:#x} holds a page"
                );
            }
        }
    }

    #[test]
    fn near_the_top_of_the_address_space_nothing_overflows() {
        assert_eq!(huge_range(usize::MAX - 10, 5), None);
        assert_eq!(huge_range(usize::MAX - 10, 100), None);
    }

    #[test]
    fn advising_keeps_the_buffer() {
        let v = on_huge_pages(vec![0.0f64; 3 * MIB / 8]);
        assert_eq!((v.len(), v.iter().sum::<f64>()), (3 * MIB / 8, 0.0));
        let v: Vec<u8> = on_huge_pages(Vec::with_capacity(5 * MIB));
        assert_eq!((v.len(), v.capacity()), (0, 5 * MIB));
        let v: Vec<()> = on_huge_pages(Vec::with_capacity(10));
        assert!(v.is_empty());
    }

    /// An array of `cap` cells carved from a slab of its own.
    fn cells(cap: usize) -> HugeCells {
        HugeSlab::reserve(cap).unwrap().carve(cap)
    }

    #[test]
    fn huge_cells_start_on_a_huge_page_and_hold_what_was_written() {
        for cap in [0, 1, 3 * MIB / 8, 4 * MIB / 8, 5 * MIB / 8 + 3] {
            let mut cells = cells(cap);
            assert_eq!(cells.as_ptr() as usize % HUGE_PAGE, 0, "{cap} cells");
            assert!(cells.is_empty());
            cells.extend((0..cap / 2).map(|i| i as f64));
            cells.extend((cap / 2..cap).map(|i| i as f64 * 0.5));
            assert_eq!(cells.len(), cap);
            let bytes: &[u8] = cells.as_ref();
            assert_eq!(bytes.len(), cap * 8);
            assert_eq!(bytes.as_ptr(), cells.as_ptr().cast::<u8>());
            if cap > 1 {
                assert_eq!(cells[cap - 1].to_bits(), ((cap - 1) as f64 * 0.5).to_bits());
                let last = &bytes[(cap - 1) * 8..];
                assert_eq!(last, &((cap - 1) as f64 * 0.5).to_ne_bytes());
            }
        }
    }

    #[test]
    fn carved_ranges_follow_one_another_and_outlive_the_slab_handle() {
        // Three pieces of 0.75 MiB back to back from the slab's aligned
        // start: the second straddles a huge page.
        let n = 3 * MIB / 32;
        let mut slab = HugeSlab::reserve(3 * n).unwrap();
        let mut pieces: Vec<HugeCells> = (0..3).map(|_| slab.carve(n)).collect();
        assert!(slab.carve(0).is_empty());
        drop(slab);
        let base = pieces[0].as_ptr() as usize;
        assert_eq!(base % HUGE_PAGE, 0);
        for (k, piece) in pieces.iter_mut().enumerate() {
            assert_eq!(piece.as_ptr() as usize, base + k * n * 8, "piece {k}");
            piece.extend((0..n).map(|i| (k * n + i) as f64));
        }
        for (k, piece) in pieces.iter().enumerate() {
            let want = (0..n).map(|i| (k * n + i) as f64);
            assert!(piece.iter().copied().eq(want), "piece {k}");
        }
    }

    #[test]
    #[should_panic(expected = "HugeSlab of 10 cells has 4 left, 5 asked")]
    fn carving_past_the_slab_panics() {
        let mut slab = HugeSlab::reserve(10).unwrap();
        let _first = slab.carve(6);
        slab.carve(5);
    }

    #[test]
    fn a_slab_the_address_space_cannot_hold_is_refused() {
        assert!(HugeSlab::reserve(usize::MAX).is_none());
        assert!(HugeSlab::reserve(usize::MAX / 8).is_none());
        assert!(HugeSlab::reserve(isize::MAX as usize / 8 - 10).is_none());
        // 1 PiB fits a `Layout` but no process's address space: the
        // allocator refuses it rather than aborting.
        assert!(HugeSlab::reserve(1 << 47).is_none());
    }

    #[test]
    fn rows_land_where_cells_would() {
        let (cap, n) = (3 * MIB / 8, 1001);
        let mut rows = cells(cap);
        let mut each = cells(cap);
        for start in (0..cap).step_by(n) {
            let n = n.min(cap - start);
            rows.extend_row(n, |i| (start + i) as f64 * 0.25);
            each.extend((start..start + n).map(|i| i as f64 * 0.25));
        }
        rows.extend_row(0, |_| unreachable!());
        assert_eq!(rows.len(), cap);
        let bits = |c: &HugeCells| c.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&rows), bits(&each));
    }

    #[test]
    #[should_panic(expected = "HugeCells full at 4 cells")]
    fn a_row_past_the_capacity_panics_before_writing() {
        let mut cells = cells(4);
        cells.extend_row(2, |i| i as f64);
        cells.extend_row(3, |_| panic!("a cell was written past the room"));
    }

    #[test]
    #[should_panic(expected = "HugeCells full at 4 cells")]
    fn writing_past_the_capacity_panics() {
        // The slab has room past this array; the array's own capacity
        // is what stops the write.
        HugeSlab::reserve(8)
            .unwrap()
            .carve(4)
            .extend((0..5).map(f64::from));
    }
}
