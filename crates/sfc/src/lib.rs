//! Space-filling-curve linearization of Cartesian domains.
//!
//! CoDS indexes the application data domain by linearizing n-dimensional
//! Cartesian coordinates into a 1-dimensional index space, which is then
//! divided into intervals assigned to DHT cores (paper §IV.A, Fig. 6). The
//! paper uses the Hilbert curve; we provide [`HilbertCurve`] plus
//! [`MortonCurve`] as an ablation alternative, and [`span::spans_of_box`]
//! to convert a geometric descriptor (bounding box) into the set of
//! contiguous index spans that CoDS queries are routed by.

#![warn(missing_docs)]

pub(crate) mod hilbert;
pub(crate) mod morton;
pub mod span;

pub use hilbert::HilbertCurve;
pub use morton::MortonCurve;
pub use span::{boxes_of_span, spans_of_box, Span};

use insitu_domain::Pt;

/// A bijection between the lattice `[0, 2^order)^ndim` and the index range
/// `[0, 2^(order*ndim))`.
pub trait SpaceFillingCurve: Send + Sync {
    /// Number of dimensions.
    fn ndim(&self) -> usize;

    /// Bits per dimension; the curve covers a side of `2^order` cells.
    fn order(&self) -> u32;

    /// Linear index of a lattice point.
    ///
    /// # Panics
    /// Panics if a coordinate is out of the curve's range.
    fn index_of(&self, p: &[u64]) -> u128;

    /// Lattice point of a linear index.
    ///
    /// # Panics
    /// Panics if the index is out of range.
    fn point_of(&self, idx: u128) -> Pt;

    /// One past the largest valid index: `2^(order*ndim)`.
    fn index_count(&self) -> u128 {
        1u128 << (self.order() as u128 * self.ndim() as u128)
    }

    /// Side length of the covered cube.
    fn side(&self) -> u64 {
        1u64 << self.order()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hilbert_clusters_boxes_better_than_morton() {
        // The DHT-relevant locality metric: total spans over a family of
        // query boxes (Moon et al., "Analysis of the clustering properties
        // of the Hilbert space-filling curve").
        let h = HilbertCurve::new(2, 6);
        let m = MortonCurve::new(2, 6);
        let mut hs = 0;
        let mut ms = 0;
        for off in 0..16u64 {
            let b = insitu_domain::BoundingBox::new(&[off, off / 2], &[off + 17, off / 2 + 11]);
            hs += span::spans_of_box(&h, &b).len();
            ms += span::spans_of_box(&m, &b).len();
        }
        assert!(hs < ms, "hilbert {hs} spans vs morton {ms}");
    }

    #[test]
    fn index_count_matches_volume() {
        let h = HilbertCurve::new(3, 4);
        assert_eq!(h.index_count(), 1u128 << 12);
        assert_eq!(h.side(), 16);
    }
}
