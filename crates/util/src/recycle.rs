//! Transient cell and payload buffers handed back warm to their owner.
//!
//! A transient buffer — the piece a concurrent producer stages, the
//! array a `get` assembles, the vector a `PullData` payload lands in —
//! lives an iteration or two. Handing it back to malloc does not keep
//! its memory warm: glibc trims a thread's arena as soon as its top
//! frees up and unmaps a chunk past its mmap threshold, so the next
//! buffer of the same size faults its pages again, 4 KiB at a time
//! (DESIGN.md §9.5). The paper's HybridDART registers its buffers once
//! and reuses them, and a buffer belongs to the client that registered
//! it; this is that reuse for the socket stand-in.
//!
//! A [`Shelf`] is one owner's free list of buffers, keyed by exact
//! length: a run's `DartRuntime` holds one of cells, a reactor one of
//! payload bytes. [`Recycled`] is the owner of such a buffer: it is
//! born from its shelf when a buffer of its length is there, else fresh
//! through [`on_huge_pages`] (in the `insitu` binary the allocator,
//! `crate::HugeAlloc`, has already placed a large one on whole huge
//! pages), and goes back to that shelf, and no other, when its last
//! holder drops it. A buffer with no shelf is freed. Two rules keep a
//! shelf small and safe without a knob:
//!
//! - only a buffer whose length equals its capacity is kept, so a hit
//!   is initialized whole and handing it out needs no `unsafe`;
//! - a shelf never holds more buffers of one length than were live at
//!   once, and it dies with its owner and its last buffer.

use crate::huge::on_huge_pages;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, Weak};

/// One owner's free buffers of an element type, by exact length. Its
/// owner and every buffer born from or adopted by it hold it, so it
/// dies with the owner and the last of those buffers.
#[derive(Clone, Default)]
pub struct Shelf<T: Copy + Default>(Arc<Mutex<HashMap<usize, Vec<Vec<T>>>>>);

impl<T: Copy + Default> Shelf<T> {
    /// The kept buffers; a panic elsewhere never leaves them
    /// half-written (every change is one `HashMap`/`Vec` call), so
    /// poison is ignored.
    fn kept(&self) -> MutexGuard<'_, HashMap<usize, Vec<Vec<T>>>> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A kept buffer of exactly `len` elements, with the contents its
    /// last holder left.
    fn take(&self, len: usize) -> Option<Vec<T>> {
        self.kept().get_mut(&len)?.pop()
    }

    /// Keep `v` for the next buffer of its length if it is initialized
    /// to its capacity; otherwise free it.
    fn give_back(&self, v: Vec<T>) {
        if !v.is_empty() && v.len() == v.capacity() {
            self.kept().entry(v.len()).or_default().push(v);
        }
    }

    /// Adopt `v`: it comes back to this shelf when it drops.
    pub fn adopt(&self, v: Vec<T>) -> Recycled<T> {
        Recycled {
            cells: v,
            home: Some(self.clone()),
        }
    }

    /// Free every kept buffer (its owner's wave ended); the buffers
    /// still out come back as they drop.
    pub fn clear(&self) {
        // The buffers are freed after the lock is released.
        drop(std::mem::take(&mut *self.kept()));
    }

    /// A handle that tells whether the shelf is still alive without
    /// keeping it so: tests watch a run's shelf die with it.
    pub fn downgrade(&self) -> Weak<impl Sized> {
        Arc::downgrade(&self.0)
    }
}

/// The owner of a transient buffer: it derefs to its `Vec`, is adopted
/// as a `Bytes` owner through its bytes (`AsRef<[u8]>`), and goes back
/// to its shelf, if it has one, when it drops.
#[derive(Clone, Default)]
pub struct Recycled<T: Copy + Default> {
    cells: Vec<T>,
    home: Option<Shelf<T>>,
}

impl<T: Copy + Default> Recycled<T> {
    /// A buffer of `len` elements' room for `home`: one kept there,
    /// whose pages are already faulted, else `fresh()` born on huge pages.
    fn born(len: usize, home: Option<&Shelf<T>>, fresh: impl FnOnce() -> Vec<T>) -> Recycled<T> {
        let kept = home.and_then(|shelf| shelf.take(len));
        let cells = kept.unwrap_or_else(|| on_huge_pages(fresh()));
        Recycled {
            cells,
            home: home.cloned(),
        }
    }

    /// An empty buffer with room for exactly `len` elements, kept on
    /// `home` or fresh; it goes back to `home`.
    pub fn with_capacity(len: usize, home: Option<&Shelf<T>>) -> Recycled<T> {
        let mut out = Recycled::born(len, home, || Vec::with_capacity(len));
        out.clear();
        out
    }

    /// `len` elements for a caller that overwrites every one before it
    /// reads any: a buffer kept on `home` keeps its last contents, and a
    /// fresh one is zeroed (`calloc` hands fresh pages over untouched,
    /// and `HugeAlloc` advises before it zeroes, so the advice lands
    /// before the first write faults them).
    pub fn for_overwrite(len: usize, home: Option<&Shelf<T>>) -> Recycled<T> {
        Recycled::born(len, home, || vec![T::default(); len])
    }

    /// The buffer, taken out of its shelf's reach: it is freed, not
    /// kept, when it drops.
    pub fn into_vec(mut self) -> Vec<T> {
        std::mem::take(&mut self.cells)
    }
}

/// Adopts the vector with no shelf: it is freed when the owner drops.
impl<T: Copy + Default> From<Vec<T>> for Recycled<T> {
    fn from(cells: Vec<T>) -> Recycled<T> {
        Recycled { cells, home: None }
    }
}

impl<T: Copy + Default> Drop for Recycled<T> {
    fn drop(&mut self) {
        if let Some(home) = &self.home {
            home.give_back(std::mem::take(&mut self.cells));
        }
    }
}

impl<T: Copy + Default> std::ops::Deref for Recycled<T> {
    type Target = Vec<T>;

    fn deref(&self) -> &Vec<T> {
        &self.cells
    }
}

impl<T: Copy + Default> std::ops::DerefMut for Recycled<T> {
    fn deref_mut(&mut self) -> &mut Vec<T> {
        &mut self.cells
    }
}

impl AsRef<[u8]> for Recycled<u8> {
    fn as_ref(&self) -> &[u8] {
        &self.cells
    }
}

impl AsRef<[u8]> for Recycled<f64> {
    fn as_ref(&self) -> &[u8] {
        let len = std::mem::size_of_val(&self.cells[..]);
        // SAFETY: an `f64` is plain bits with no padding, every one valid
        // as a byte, and the view borrows the vector.
        unsafe { std::slice::from_raw_parts(self.cells.as_ptr().cast::<u8>(), len) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_vector_whose_length_is_not_its_capacity_is_not_kept() {
        let shelf = Shelf::<f64>::default();
        let mut ragged = Vec::<f64>::with_capacity(1001);
        ragged.extend((0..1000).map(f64::from));
        assert_eq!((ragged.len(), ragged.capacity()), (1000, 1001));
        drop(shelf.adopt(ragged));
        assert!(shelf.take(1000).is_none() && shelf.take(1001).is_none());
        // Filled to its capacity, the same shape is kept.
        let mut whole = Vec::<f64>::with_capacity(1001);
        whole.extend((0..1001).map(f64::from));
        let at = whole.as_ptr();
        drop(shelf.adopt(whole));
        assert_eq!(shelf.take(1001).map(|v| v.as_ptr()), Some(at));
    }

    #[test]
    fn a_hit_is_the_buffer_given_back_of_that_exact_length() {
        let shelf = Shelf::<f64>::default();
        let home = Some(&shelf);
        let mut cells = Recycled::with_capacity(2003, home);
        cells.extend((0..2003).map(|i| i as f64 * 0.5));
        let at = cells.as_ptr();
        drop(cells);
        // Another length misses; the same length is the same buffer,
        // emptied for an append, or whole with its old cells to
        // overwrite.
        let other = Recycled::with_capacity(2002, home);
        assert_ne!(other.as_ptr(), at);
        let again = Recycled::with_capacity(2003, home);
        assert_eq!(
            (again.as_ptr(), again.len(), again.capacity()),
            (at, 0, 2003)
        );
        drop(again);
        assert!(shelf.take(2003).is_none(), "an empty buffer is not kept");
        let mut cells = Recycled::for_overwrite(2003, home);
        assert_eq!(cells.len(), 2003);
        cells.iter_mut().for_each(|c| *c = 1.5);
        let at = cells.as_ptr();
        drop(cells);
        let stale = Recycled::for_overwrite(2003, home);
        assert_eq!(stale.as_ptr(), at);
        assert!(stale.iter().all(|&c| c == 1.5));
        // A buffer goes back to its own shelf only, and one with none
        // is freed.
        let other = Shelf::<f64>::default();
        drop(stale);
        assert!(other.take(2003).is_none());
        assert_eq!(shelf.take(2003).map(|v| v.as_ptr()), Some(at));
        drop(Recycled::<f64>::for_overwrite(2003, None));
        assert!(shelf.take(2003).is_none());
    }

    #[test]
    fn into_vec_takes_the_buffer_out_of_the_pool() {
        let shelf = Shelf::<u8>::default();
        let bytes = Recycled::for_overwrite(3007, Some(&shelf));
        assert!(bytes.iter().all(|&b| b == 0), "a fresh buffer is zeroed");
        drop(bytes.into_vec());
        assert!(shelf.take(3007).is_none());
    }

    #[test]
    fn a_shelf_dies_with_its_owner_and_its_last_buffer() {
        let shelf = Shelf::<u8>::default();
        let alive = shelf.downgrade();
        let out = shelf.adopt(vec![1; 4096]);
        drop(Recycled::for_overwrite(4096, Some(&shelf)));
        shelf.clear();
        assert!(shelf.take(4096).is_none(), "clear frees what is kept");
        drop(shelf);
        assert_eq!(alive.strong_count(), 1, "a buffer still out holds it");
        drop(out);
        assert_eq!(alive.strong_count(), 0);
    }

    #[test]
    fn the_byte_view_is_the_cells() {
        let mut cells = Recycled::<f64>::with_capacity(3, None);
        cells.extend([1.0, -2.5, f64::MAX]);
        let bytes: &[u8] = cells.as_ref();
        let want: Vec<u8> = [1.0f64, -2.5, f64::MAX]
            .iter()
            .flat_map(|c| c.to_ne_bytes())
            .collect();
        assert_eq!((bytes, bytes.as_ptr()), (&want[..], cells.as_ptr().cast()));
        let payload = Recycled::from(vec![7u8, 8, 9]);
        assert_eq!(payload.as_ref(), &[7, 8, 9]);
    }
}
