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

/// The platform's huge-page size (a PMD on x86-64 and on aarch64 with
/// 4 KiB base pages).
const HUGE_PAGE: usize = 2 << 20;

#[cfg(target_os = "linux")]
mod sys {
    const MADV_HUGEPAGE: i32 = 14;

    extern "C" {
        fn madvise(addr: *mut u8, len: usize, advice: i32) -> i32;
    }

    pub fn advise_huge(start: usize, len: usize) {
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
    pub fn advise_huge(_start: usize, _len: usize) {}
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
/// This is the birth site of the data path's large buffers: the filled
/// field a `put` stages, a `get`'s assembly buffer, `FieldData`'s
/// copies and the bulk tail a decoded frame lands in (a `PullData`
/// payload, a `Relay` message).
pub fn on_huge_pages<T>(fresh: Vec<T>) -> Vec<T> {
    let bytes = fresh.capacity().saturating_mul(std::mem::size_of::<T>());
    if let Some((start, len)) = huge_range(fresh.as_ptr() as usize, bytes) {
        sys::advise_huge(start, len);
    }
    fresh
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
}
