//! Transient cell and payload buffers handed back warm within a wave.
//!
//! A transient buffer — the piece a concurrent producer stages, the
//! array a `get` assembles, the vector a `PullData` payload lands in —
//! lives an iteration or two. Handing it back to malloc does not keep
//! its memory warm: glibc trims a thread's arena as soon as its top
//! frees up and unmaps a chunk past its mmap threshold, so the next
//! buffer of the same size faults its pages again, 4 KiB at a time
//! (DESIGN.md §9.5). The paper's HybridDART registers its buffers once
//! and reuses them; this is that reuse for the socket stand-in.
//!
//! Process-wide free lists of `Vec<f64>` cells and `Vec<u8>` payloads,
//! keyed by exact length, exist only while a [`PoolLease`] is held (an
//! executor holds one per wave). [`Recycled`] is the owner of such a
//! buffer: it is born from the pool when a buffer of its length is
//! there, else fresh through [`on_huge_pages`] (in the `insitu` binary
//! the allocator, `crate::HugeAlloc`, has already placed a large one on
//! whole huge pages), and goes back to the pool when its last holder
//! drops it. Two rules keep the pool small and safe without a knob:
//!
//! - only a buffer whose length equals its capacity is kept, so a hit
//!   is initialized whole and handing it out needs no `unsafe`;
//! - the pool never holds more buffers of one length than were live at
//!   once, and it is freed when the last lease drops.
//!
//! Outside a lease every take is a miss and every return a plain free.

use crate::huge::on_huge_pages;
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The free buffers of one element type by exact length: `None` while
/// no lease is held.
type Shelf<T> = Mutex<Option<HashMap<usize, Vec<Vec<T>>>>>;

/// How many leases are held.
static LEASES: Mutex<usize> = Mutex::new(0);
static CELLS: Shelf<f64> = Mutex::new(None);
static BYTES: Shelf<u8> = Mutex::new(None);

/// A pool lock; a panic elsewhere never leaves a shelf half-written
/// (every change is one `HashMap`/`Vec` call), so poison is ignored.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

mod sealed {
    use super::Shelf;

    /// Which shelf holds an element type's buffers.
    pub trait Shelved: Sized + 'static {
        fn shelf() -> &'static Shelf<Self>;
    }

    impl Shelved for f64 {
        fn shelf() -> &'static Shelf<f64> {
            &super::CELLS
        }
    }

    impl Shelved for u8 {
        fn shelf() -> &'static Shelf<u8> {
            &super::BYTES
        }
    }
}

/// An element type whose buffers are recycled: `f64` cells and `u8`
/// payload bytes. Both are plain bits, so a buffer of either is also
/// its bytes (`Recycled`'s `AsRef<[u8]>`).
pub trait Recyclable: sealed::Shelved + Copy + Default + Send + Sync {}

impl Recyclable for f64 {}
impl Recyclable for u8 {}

/// A pooled buffer of exactly `len` elements, with the contents its
/// last holder left; `None` when there is none or no lease is held.
fn take<T: Recyclable>(len: usize) -> Option<Vec<T>> {
    lock(T::shelf()).as_mut()?.get_mut(&len)?.pop()
}

/// Keep `v` for the next buffer of its length, if a lease is held and
/// `v` is initialized to its capacity; otherwise free it.
fn give_back<T: Recyclable>(v: Vec<T>) {
    if v.is_empty() || v.len() != v.capacity() {
        return;
    }
    let mut shelf = lock(T::shelf());
    let Some(kept) = shelf.as_mut() else {
        // `v` is freed after the lock is released.
        drop(shelf);
        return;
    };
    kept.entry(v.len()).or_default().push(v);
}

/// The pool's reason to exist: while any lease is held, buffers given
/// back are kept for the next of their length; when the last one drops,
/// every kept buffer is freed.
#[must_use = "the pool lives only while a lease is held"]
pub struct PoolLease(());

impl PoolLease {
    /// Open the pool, or join the leases already holding it open.
    pub fn hold() -> PoolLease {
        let mut leases = lock(&LEASES);
        if *leases == 0 {
            *lock(&CELLS) = Some(HashMap::new());
            *lock(&BYTES) = Some(HashMap::new());
        }
        *leases += 1;
        PoolLease(())
    }
}

impl Drop for PoolLease {
    fn drop(&mut self) {
        let kept = {
            let mut leases = lock(&LEASES);
            *leases -= 1;
            if *leases > 0 {
                return;
            }
            (lock(&CELLS).take(), lock(&BYTES).take())
        };
        // The buffers are freed after every lock is released.
        drop(kept);
    }
}

/// The owner of a transient buffer: it derefs to its `Vec`, is adopted
/// as a `Bytes` owner through its bytes (`AsRef<[u8]>`), and goes back
/// to the pool when it drops.
#[derive(Clone, Default)]
pub struct Recycled<T: Recyclable>(Vec<T>);

impl<T: Recyclable> Recycled<T> {
    /// An empty buffer with room for exactly `len` elements: a pooled
    /// one of that length, whose pages are already faulted, else a fresh
    /// one born on huge pages.
    pub fn with_capacity(len: usize) -> Recycled<T> {
        let v = match take(len) {
            Some(mut v) => {
                v.clear();
                v
            }
            None => on_huge_pages(Vec::with_capacity(len)),
        };
        Recycled(v)
    }

    /// `len` elements for a caller that overwrites every one before it
    /// reads any: a pooled buffer of that length keeps its last
    /// contents, and a fresh one is zeroed, born on huge pages (`calloc`
    /// hands fresh pages over untouched, and `HugeAlloc` advises before
    /// it zeroes, so the advice lands before the first write faults
    /// them).
    pub fn for_overwrite(len: usize) -> Recycled<T> {
        Recycled(take(len).unwrap_or_else(|| on_huge_pages(vec![T::default(); len])))
    }

    /// The buffer, taken out of the pool's reach: it is freed, not
    /// recycled, when it drops.
    pub fn into_vec(mut self) -> Vec<T> {
        std::mem::take(&mut self.0)
    }
}

/// Adopts the vector: it goes back to the pool when the owner drops.
impl<T: Recyclable> From<Vec<T>> for Recycled<T> {
    fn from(v: Vec<T>) -> Recycled<T> {
        Recycled(v)
    }
}

impl<T: Recyclable> Drop for Recycled<T> {
    fn drop(&mut self) {
        give_back(std::mem::take(&mut self.0));
    }
}

impl<T: Recyclable> std::ops::Deref for Recycled<T> {
    type Target = Vec<T>;

    fn deref(&self) -> &Vec<T> {
        &self.0
    }
}

impl<T: Recyclable> std::ops::DerefMut for Recycled<T> {
    fn deref_mut(&mut self) -> &mut Vec<T> {
        &mut self.0
    }
}

impl<T: Recyclable> AsRef<[u8]> for Recycled<T> {
    fn as_ref(&self) -> &[u8] {
        let len = self.0.len() * std::mem::size_of::<T>();
        // SAFETY: `T` is `f64` or `u8` (the trait is sealed): plain bits
        // with no padding, every one valid as a byte, and the view
        // borrows the vector.
        unsafe { std::slice::from_raw_parts(self.0.as_ptr().cast::<u8>(), len) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The pool is process-wide and the unit tests run in parallel, so
    // each test uses lengths no other test in this binary uses.

    #[test]
    fn a_vector_whose_length_is_not_its_capacity_is_not_kept() {
        let _lease = PoolLease::hold();
        let mut ragged = Vec::<f64>::with_capacity(1001);
        ragged.extend((0..1000).map(f64::from));
        assert_eq!((ragged.len(), ragged.capacity()), (1000, 1001));
        drop(Recycled::from(ragged));
        assert!(take::<f64>(1000).is_none() && take::<f64>(1001).is_none());
        // Filled to its capacity, the same shape is kept.
        let mut whole = Vec::<f64>::with_capacity(1001);
        whole.extend((0..1001).map(f64::from));
        let at = whole.as_ptr();
        drop(Recycled::from(whole));
        assert_eq!(take::<f64>(1001).map(|v| v.as_ptr()), Some(at));
    }

    #[test]
    fn a_hit_is_the_buffer_given_back_of_that_exact_length() {
        let _lease = PoolLease::hold();
        let mut cells = Recycled::<f64>::with_capacity(2003);
        cells.extend((0..2003).map(|i| i as f64 * 0.5));
        let at = cells.as_ptr();
        drop(cells);
        // Another length misses; the same length is the same buffer,
        // emptied for an append, or whole with its old cells to
        // overwrite.
        let other = Recycled::<f64>::with_capacity(2002);
        assert_ne!(other.as_ptr(), at);
        let again = Recycled::<f64>::with_capacity(2003);
        assert_eq!(
            (again.as_ptr(), again.len(), again.capacity()),
            (at, 0, 2003)
        );
        drop(again);
        assert!(take::<f64>(2003).is_none(), "an empty buffer is not kept");
        let mut cells = Recycled::<f64>::for_overwrite(2003);
        assert_eq!(cells.len(), 2003);
        cells.iter_mut().for_each(|c| *c = 1.5);
        let at = cells.as_ptr();
        drop(cells);
        let stale = Recycled::<f64>::for_overwrite(2003);
        assert_eq!(stale.as_ptr(), at);
        assert!(stale.iter().all(|&c| c == 1.5));
        // Cells and bytes of one length are different shelves.
        drop(stale);
        assert!(take::<u8>(2003).is_none());
        assert_eq!(take::<f64>(2003).map(|v| v.as_ptr()), Some(at));
    }

    #[test]
    fn into_vec_takes_the_buffer_out_of_the_pool() {
        let _lease = PoolLease::hold();
        let bytes = Recycled::<u8>::for_overwrite(3007);
        assert!(bytes.iter().all(|&b| b == 0), "a fresh buffer is zeroed");
        drop(bytes.into_vec());
        assert!(take::<u8>(3007).is_none());
    }

    #[test]
    fn the_byte_view_is_the_cells() {
        let mut cells = Recycled::<f64>::with_capacity(3);
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
