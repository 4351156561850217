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
//! concurrent piece, an assembly, a decoded payload) is a `Vec` advised
//! by [`on_huge_pages`]: malloc hands its memory back warm for the next
//! one, but it rarely starts on a 2 MiB boundary, so only the whole
//! pages inside it are advised. A retained buffer (a sequential piece,
//! staged until its consumer bundle runs) is a [`HugeCells`]: allocated
//! on a 2 MiB boundary, so every whole huge page of it is advised.

use std::alloc::{self, Layout};
use std::mem::MaybeUninit;
use std::ptr::NonNull;

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
        // (see `huge_range`); MADV_HUGEPAGE changes how its pages are
        // backed, never their contents. A refusal (THP not built in)
        // leaves the range as it was, so the result is not needed.
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
/// This is the birth site of the data path's large transient buffers:
/// the filled field a concurrent `put` stages, a `get`'s assembly
/// buffer, `FieldData`'s copies and the bulk tail a decoded frame lands
/// in (a `PullData` payload, a `Relay` message).
pub fn on_huge_pages<T>(fresh: Vec<T>) -> Vec<T> {
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

/// A fixed-capacity array of `f64` cells whose storage starts on a
/// [`HUGE_PAGE`] boundary and was advised `MADV_HUGEPAGE` before its
/// first write, so every whole huge page of it faults once.
///
/// This is the birth site of retained staging: the piece a sequential
/// `put` stages lives until its consumer bundle runs, so its memory is
/// always fresh, and an unaligned `Vec` of 4 MiB would leave half of it
/// on base pages. Filled with [`Extend`] or a row at a time with
/// [`HugeCells::extend_row`] (writing past the capacity panics), read
/// as `[f64]`, and adopted as a `Bytes` owner through its
/// `AsRef<[u8]>` cell bytes.
pub struct HugeCells {
    cells: NonNull<f64>,
    len: usize,
    cap: usize,
}

// SAFETY: `cells` is the only pointer to an allocation this value owns
// outright, as `Vec<f64>` owns its buffer, and `len` and `cap` are plain
// numbers; moving it to another thread moves all of it.
unsafe impl Send for HugeCells {}
// SAFETY: through `&HugeCells` the cells are only read (`Deref`,
// `AsRef`); every write takes `&mut self`.
unsafe impl Sync for HugeCells {}

impl HugeCells {
    /// An empty array with room for `cap` cells, advised onto huge
    /// pages and not yet touched.
    ///
    /// # Panics
    /// Panics if `cap` cells overflow the address space.
    pub fn with_capacity(cap: usize) -> HugeCells {
        let layout = Self::layout(cap);
        // SAFETY: the layout's size is nonzero (at least one cell).
        let raw = unsafe { alloc::alloc(layout) };
        let Some(cells) = NonNull::new(raw.cast::<f64>()) else {
            alloc::handle_alloc_error(layout)
        };
        advise(raw as usize, layout.size());
        HugeCells { cells, len: 0, cap }
    }

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
        // inside the allocation and are not yet part of the cells;
        // viewed as `MaybeUninit` they need no initialization to be
        // written.
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

    /// The allocation of `cap` cells: at least one, on a huge-page
    /// boundary.
    fn layout(cap: usize) -> Layout {
        cap.max(1)
            .checked_mul(std::mem::size_of::<f64>())
            .and_then(|size| Layout::from_size_align(size, HUGE_PAGE).ok())
            .expect("HugeCells capacity overflows the address space")
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
        // SAFETY: the first `len` cells were written by `extend`.
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

impl Drop for HugeCells {
    fn drop(&mut self) {
        // SAFETY: allocated in `with_capacity` with this very layout.
        unsafe { alloc::dealloc(self.cells.as_ptr().cast::<u8>(), Self::layout(self.cap)) }
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

    #[test]
    fn huge_cells_start_on_a_huge_page_and_hold_what_was_written() {
        for cap in [0, 1, 3 * MIB / 8, 4 * MIB / 8, 5 * MIB / 8 + 3] {
            let mut cells = HugeCells::with_capacity(cap);
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
    fn rows_land_where_cells_would() {
        let (cap, n) = (3 * MIB / 8, 1001);
        let mut rows = HugeCells::with_capacity(cap);
        let mut cells = HugeCells::with_capacity(cap);
        for start in (0..cap).step_by(n) {
            let n = n.min(cap - start);
            rows.extend_row(n, |i| (start + i) as f64 * 0.25);
            cells.extend((start..start + n).map(|i| i as f64 * 0.25));
        }
        rows.extend_row(0, |_| unreachable!());
        assert_eq!(rows.len(), cap);
        let bits = |c: &HugeCells| c.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&rows), bits(&cells));
    }

    #[test]
    #[should_panic(expected = "HugeCells full at 4 cells")]
    fn a_row_past_the_capacity_panics_before_writing() {
        let mut cells = HugeCells::with_capacity(4);
        cells.extend_row(2, |i| i as f64);
        cells.extend_row(3, |_| panic!("a cell was written past the room"));
    }

    #[test]
    #[should_panic(expected = "HugeCells full at 4 cells")]
    fn writing_past_the_capacity_panics() {
        HugeCells::with_capacity(4).extend((0..5).map(f64::from));
    }
}
