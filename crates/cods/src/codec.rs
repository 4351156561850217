//! Conversion between `f64` field data and raw byte buffers.
//!
//! CoDS stores registered buffers as raw bytes ([`Bytes`]); the
//! applications' field data is `f64`. A `put` stages its array without a
//! copy: [`FieldData::into_bytes`] adopts the vector (as a [`Recycled`]
//! owner, which hands it back to its run's shelf when the staged piece
//! drops, or a retained `HugeCells` piece of its producer's slab)
//! through a byte view of its cells, so the staged buffer is 8-aligned
//! by construction. Every other registered buffer is too: the wire lands
//! a payload in an exact-size allocation, and shared memory in an
//! 8-aligned arena record. Nothing decodes: [`f64s_of_bytes`]
//! reinterprets a landed buffer in place — the one check a `get` makes
//! before reading it — and [`FieldData`] lets a `get` return either an
//! owned assembly buffer or a zero-copy view of a single staged piece.

use insitu_util::{Bytes, HugeCells, Recycled};

/// Size of one field element.
pub const ELEM_BYTES: usize = std::mem::size_of::<f64>();

/// `cells` copied once into a fresh buffer, born on huge pages: no run
/// owns it, so it is freed when it drops.
fn copy_cells(cells: &[f64]) -> Recycled<f64> {
    let mut out = Recycled::with_capacity(cells.len(), None);
    out.extend_from_slice(cells);
    out
}

/// Reinterpret a byte buffer as `f64` cells without copying. `None` when
/// the buffer is misaligned for `f64` access or has a ragged length:
/// such a buffer is not cells, and its reader refuses it (a `get` fails
/// with [`crate::CodsError::MalformedPiece`]) rather than decode it.
pub fn f64s_of_bytes(b: &[u8]) -> Option<&[f64]> {
    if !b.len().is_multiple_of(ELEM_BYTES)
        || !(b.as_ptr() as usize).is_multiple_of(std::mem::align_of::<f64>())
    {
        return None;
    }
    // SAFETY: length and alignment were just checked, and every bit
    // pattern is a valid f64.
    Some(unsafe { std::slice::from_raw_parts(b.as_ptr().cast::<f64>(), b.len() / ELEM_BYTES) })
}

/// Field data a `put` hands over or a `get` returns: an owned vector, or
/// a zero-copy view of a single staged piece that exactly covered the
/// query. Derefs to `[f64]` either way.
#[derive(Clone)]
pub enum FieldData {
    /// Assembled into a dedicated buffer, or a producer's array; back
    /// to its run's shelf, if it came from one, when it drops.
    Owned(Recycled<f64>),
    /// Zero-copy view of one staged piece, or the retained array a
    /// sequential `put` hands over (kept alive by the refcount;
    /// invariant: aligned and sized for `f64` reinterpretation).
    View(Bytes),
}

impl FieldData {
    /// Whether this is a zero-copy view.
    pub fn is_view(&self) -> bool {
        matches!(self, FieldData::View(_))
    }

    /// The cells as an owned vector (free for `Owned`, one copy for a
    /// view).
    pub fn into_vec(self) -> Vec<f64> {
        match self {
            FieldData::Owned(v) => v.into_vec(),
            FieldData::View(b) => copy_cells(f64s_of_bytes(&b).expect("view invariant")).into_vec(),
        }
    }

    /// The cells as 8-aligned staged bytes, without copying.
    pub fn into_bytes(self) -> Bytes {
        match self {
            FieldData::Owned(v) => Bytes::from_owner(v),
            FieldData::View(b) => b,
        }
    }
}

/// Adopts the vector (no copy); no shelf takes it back.
impl From<Vec<f64>> for FieldData {
    fn from(v: Vec<f64>) -> FieldData {
        FieldData::Owned(Recycled::from(v))
    }
}

/// A retained piece carved from its producer's slab is handed over
/// whole: it is 8-aligned and exactly its cells, so it is a view
/// already, and it keeps the slab alive while it is staged.
impl From<HugeCells> for FieldData {
    fn from(cells: HugeCells) -> FieldData {
        FieldData::View(Bytes::from_owner(cells))
    }
}

/// Copies the cells once, for a caller that keeps its array.
impl From<&[f64]> for FieldData {
    fn from(s: &[f64]) -> FieldData {
        FieldData::Owned(copy_cells(s))
    }
}

impl From<&Vec<f64>> for FieldData {
    fn from(v: &Vec<f64>) -> FieldData {
        FieldData::from(&v[..])
    }
}

impl std::ops::Deref for FieldData {
    type Target = [f64];

    fn deref(&self) -> &[f64] {
        match self {
            FieldData::Owned(v) => v,
            FieldData::View(b) => f64s_of_bytes(b).expect("view invariant"),
        }
    }
}

impl std::fmt::Debug for FieldData {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "FieldData::{}({} cells)",
            if self.is_view() { "View" } else { "Owned" },
            self.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What a put of the borrowed array `v` stages.
    fn staged(v: &[f64]) -> Bytes {
        FieldData::from(v).into_bytes()
    }

    #[test]
    fn roundtrip() {
        let v = vec![0.0, -1.5, f64::MAX, f64::MIN_POSITIVE, 42.42];
        assert_eq!(f64s_of_bytes(&staged(&v)), Some(&v[..]));
    }

    #[test]
    fn empty() {
        assert_eq!(f64s_of_bytes(&staged(&[])), Some(&[][..]));
    }

    #[test]
    fn nan_bits_preserved() {
        let v = vec![f64::NAN];
        let b = staged(&v);
        let out = f64s_of_bytes(&b).unwrap();
        assert_eq!(out[0].to_bits(), v[0].to_bits());
    }

    #[test]
    fn large_buffer_roundtrip() {
        let v: Vec<f64> = (0..100_000).map(|i| i as f64 * 0.5).collect();
        assert_eq!(f64s_of_bytes(&staged(&v)), Some(&v[..]));
    }

    #[test]
    fn typed_view_agrees_with_decode() {
        let v = vec![1.0, 2.5, -0.0, f64::INFINITY];
        let b = staged(&v);
        let decoded: Vec<f64> = b
            .chunks_exact(ELEM_BYTES)
            .map(|c| f64::from_ne_bytes(c.try_into().unwrap()))
            .collect();
        assert_eq!(f64s_of_bytes(&b), Some(&decoded[..]));
        assert_eq!(decoded, v);
    }

    #[test]
    fn typed_view_rejects_ragged_length() {
        assert!(f64s_of_bytes(&[0u8; 12]).is_none());
        // Whole cells one byte off their alignment are not cells either.
        let b = staged(&[1.0, 2.0]);
        let mut shifted = vec![0u8; b.len() + 2 * ELEM_BYTES];
        let at = shifted.as_ptr().align_offset(ELEM_BYTES) + 1;
        shifted[at..at + b.len()].copy_from_slice(&b);
        assert!(f64s_of_bytes(&shifted[at..at + b.len()]).is_none());
    }

    #[test]
    fn field_data_view_and_owned_agree() {
        let v = vec![9.0, 8.0, 7.0];
        let d = FieldData::View(staged(&v));
        assert_eq!(d[..], v[..]);
        assert_eq!(d.len(), 3);
        assert_eq!(FieldData::from(v.clone())[..], d[..]);
        assert_eq!(d.clone().into_vec(), v);
    }

    #[test]
    fn into_bytes_adopts_the_vector_and_keeps_a_view() {
        let v = vec![1.5f64; 512];
        let at = v.as_ptr().cast::<u8>();
        let b = FieldData::from(v).into_bytes();
        assert_eq!(b.as_ptr(), at);
        assert_eq!(f64s_of_bytes(&b), Some(&[1.5f64; 512][..]));
        // A view hands back its own buffer.
        assert_eq!(FieldData::View(b.clone()).into_bytes().as_ptr(), at);
        // A borrowed array is copied, once, and left to its caller.
        let kept = vec![2.0f64; 4];
        let copy = FieldData::from(&kept).into_bytes();
        assert_ne!(copy.as_ptr(), kept.as_ptr().cast::<u8>());
        assert_eq!(f64s_of_bytes(&copy), Some(&kept[..]));
    }
}
