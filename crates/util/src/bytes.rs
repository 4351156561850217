//! An immutable, reference-counted byte buffer.
//!
//! Covers the subset of the `bytes` crate's `Bytes` API the workspace
//! uses: cheap clones (`Arc` bump, no copy), construction from vectors,
//! slices and strings, and `Deref` to `[u8]`. Buffers registered with
//! HybridDART are shared zero-copy between the producer's registration
//! and every consumer's one-sided read. An owner is adopted, not copied
//! ([`Bytes::from_owner`]): the array a producer filled is what its `put`
//! stages, and the vector a socket read filled is what the registry keeps
//! and a later send writes from.
//!
//! A buffer can also borrow a [`crate::shm::MapRegion`] — a view into a
//! shared-memory segment another process staged — so the intra-host
//! data plane registers pulled pieces without ever copying them out of
//! the producer's arena. Equality and hashing are by content in both
//! representations, so the two kinds mix freely in maps and
//! comparisons.

use crate::shm::MapRegion;
use std::ops::Deref;
use std::sync::Arc;

/// A cheaply clonable, immutable byte buffer.
#[derive(Clone)]
pub struct Bytes {
    repr: Repr,
}

#[derive(Clone)]
enum Repr {
    /// Process-local storage: the owner, dropped with the last clone.
    Owner(Arc<dyn AsRef<[u8]> + Send + Sync>),
    /// A view into a shared memory mapping (zero-copy intra-host path).
    /// Dropping the last clone fires the region's release callback.
    Map(Arc<MapRegion>),
}

impl Bytes {
    /// An empty buffer (no allocation).
    pub fn new() -> Self {
        Self::default()
    }

    /// Buffer backed by a static byte string (copied once).
    pub fn from_static(s: &'static [u8]) -> Self {
        Self::copy_from_slice(s)
    }

    /// Buffer holding a copy of `s`.
    pub fn copy_from_slice(s: &[u8]) -> Self {
        Bytes::from(s.to_vec())
    }

    /// Buffer whose bytes are `owner`'s storage, without copying. The
    /// owner drops when the last clone drops.
    pub fn from_owner<T: AsRef<[u8]> + Send + Sync + 'static>(owner: T) -> Self {
        Bytes {
            repr: Repr::Owner(Arc::new(owner)),
        }
    }

    /// Buffer borrowing a shared-memory region, without copying. The
    /// region's release callback fires when the last clone drops.
    pub fn from_map(region: Arc<MapRegion>) -> Self {
        Bytes {
            repr: Repr::Map(region),
        }
    }

    /// Whether this buffer borrows a shared-memory mapping rather than
    /// holding an owner's storage.
    pub fn is_mapped(&self) -> bool {
        matches!(self.repr, Repr::Map(_))
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// The bytes as a slice.
    pub fn as_slice(&self) -> &[u8] {
        match &self.repr {
            Repr::Owner(owner) => (**owner).as_ref(),
            Repr::Map(region) => region.as_slice(),
        }
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::from(Vec::new())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

/// Adopts the vector: its allocation becomes the buffer's storage.
impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        Bytes::from_owner(v)
    }
}

impl From<&[u8]> for Bytes {
    fn from(s: &[u8]) -> Self {
        Self::copy_from_slice(s)
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Self {
        Bytes::from(s.into_bytes())
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Bytes({} B{})",
            self.len(),
            if self.is_mapped() { ", mapped" } else { "" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shm::RingMem;

    #[test]
    fn construction_and_access() {
        assert!(Bytes::new().is_empty());
        let b = Bytes::from(vec![1u8, 2, 3]);
        assert_eq!(b.len(), 3);
        assert_eq!(&b[..], &[1, 2, 3]);
        assert_eq!(Bytes::from_static(b"xy").as_slice(), b"xy");
        assert_eq!(Bytes::from("ab".to_string()).as_ref(), b"ab");
    }

    #[test]
    fn a_vector_is_adopted_not_copied() {
        let v = vec![5u8; 4096];
        let at = v.as_ptr();
        assert_eq!(Bytes::from(v).as_slice().as_ptr(), at);
    }

    /// Counts its drops; its bytes are a boxed slice, so the pointer the
    /// buffer must keep is known up front.
    struct Counted(Box<[u8]>, Arc<std::sync::atomic::AtomicUsize>);

    impl AsRef<[u8]> for Counted {
        fn as_ref(&self) -> &[u8] {
            &self.0
        }
    }

    impl Drop for Counted {
        fn drop(&mut self) {
            self.1.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        }
    }

    #[test]
    fn an_owner_is_adopted_and_shared_by_clones() {
        let storage = vec![3u8; 4096].into_boxed_slice();
        let at = storage.as_ptr();
        let b = Bytes::from_owner(Counted(storage, Arc::default()));
        let c = b.clone();
        assert_eq!(b.as_slice().as_ptr(), at);
        assert_eq!(c.as_slice().as_ptr(), at);
        assert_eq!(c.len(), 4096);
        assert!(!c.is_mapped());
    }

    #[test]
    fn the_owner_drops_once_after_the_last_clone() {
        let drops = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let count = || drops.load(std::sync::atomic::Ordering::SeqCst);
        let b = Bytes::from_owner(Counted(Box::new([1, 2, 3]), drops.clone()));
        let clones = vec![b.clone(), b.clone()];
        drop(b);
        assert_eq!(count(), 0);
        let last = clones[0].clone();
        drop(clones);
        assert_eq!(count(), 0);
        assert_eq!(&last[..], &[1, 2, 3]);
        drop(last);
        assert_eq!(count(), 1);
    }

    #[test]
    fn clone_shares_storage() {
        let a = Bytes::from(vec![9u8; 1024]);
        let b = a.clone();
        assert_eq!(a.as_slice().as_ptr(), b.as_slice().as_ptr());
        assert_eq!(a, b);
    }

    #[test]
    fn equality_by_content() {
        assert_eq!(Bytes::copy_from_slice(b"abc"), Bytes::from(b"abc".to_vec()));
        assert_ne!(
            Bytes::copy_from_slice(b"abc"),
            Bytes::copy_from_slice(b"abd")
        );
    }

    /// Stage `content` through a heap-backed ring and wrap the popped
    /// record as mapped Bytes — the exact shape the shm data plane
    /// builds.
    fn mapped(content: &[u8]) -> Bytes {
        use crate::shm::{RecordDesc, Ring};
        let mem = RingMem::heap(Ring::required_len(1, 64));
        let ring = Ring::create(mem.clone(), 1, 64);
        ring.push(
            &RecordDesc {
                name: 0,
                version: 0,
                piece: 0,
                owner: 0,
            },
            content,
        )
        .unwrap();
        let rec = ring.pop().unwrap();
        Bytes::from_map(Arc::new(MapRegion::new(mem, rec.off, rec.len, None)))
    }

    #[test]
    // The interior mutability clippy flags is the map's release closure,
    // which never participates in Eq/Hash — those go by content alone.
    #[allow(clippy::mutable_key_type)]
    fn mapped_bytes_compare_and_hash_by_content() {
        let m = mapped(&[7u8; 16]);
        assert!(m.is_mapped());
        assert_eq!(m, Bytes::copy_from_slice(&[7u8; 16]));
        assert_ne!(m, Bytes::copy_from_slice(&[1u8; 16]));
        let mut set = std::collections::HashSet::new();
        set.insert(m.clone());
        assert!(set.contains(&Bytes::from(vec![7u8; 16])));
        // Clones of a mapped buffer share the mapping.
        let c = m.clone();
        assert_eq!(m.as_slice().as_ptr(), c.as_slice().as_ptr());
    }
}
