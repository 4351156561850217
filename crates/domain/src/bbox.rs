//! Axis-aligned bounding boxes over an unsigned integer lattice.
//!
//! Boxes use *inclusive* lower and upper bounds, matching the geometric
//! descriptors of the paper (e.g. `<0,0,0; 10,10,20>`). A constructed box is
//! never empty: `lb[d] <= ub[d]` holds in every dimension. Emptiness only
//! arises from intersections, which return `Option`.

/// Maximum number of dimensions supported by the framework.
///
/// The paper's applications use 2-D and 3-D meshes; we allow one extra
/// dimension for time-augmented domains while keeping coordinates inline
/// (no heap allocation in hot paths).
pub const MAX_DIMS: usize = 4;

/// An inline coordinate tuple. Dimensions beyond the box's `ndim` are zero.
pub type Pt = [u64; MAX_DIMS];

/// Build a [`Pt`] from a slice of at most [`MAX_DIMS`] coordinates.
#[inline]
pub fn pt(coords: &[u64]) -> Pt {
    assert!(
        coords.len() <= MAX_DIMS,
        "too many dimensions: {}",
        coords.len()
    );
    let mut p = [0u64; MAX_DIMS];
    p[..coords.len()].copy_from_slice(coords);
    p
}

/// An axis-aligned box with inclusive bounds, the framework's geometric
/// descriptor for data regions.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct BoundingBox {
    ndim: u8,
    lb: Pt,
    ub: Pt,
}

impl std::fmt::Debug for BoundingBox {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "<")?;
        for d in 0..self.ndim as usize {
            if d > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", self.lb[d])?;
        }
        write!(f, "; ")?;
        for d in 0..self.ndim as usize {
            if d > 0 {
                write!(f, ",")?;
            }
            write!(f, "{}", self.ub[d])?;
        }
        write!(f, ">")
    }
}

impl BoundingBox {
    /// Create a box from inclusive lower and upper bounds, or `None` if
    /// the slices differ in length, exceed [`MAX_DIMS`], are empty, or
    /// `lb[d] > ub[d]` for any dimension. The constructor for corners
    /// that arrive from outside the process (wire frames, files).
    pub fn try_new(lb: &[u64], ub: &[u64]) -> Option<Self> {
        let valid = lb.len() == ub.len()
            && !lb.is_empty()
            && lb.len() <= MAX_DIMS
            && lb.iter().zip(ub).all(|(l, u)| l <= u);
        valid.then(|| BoundingBox {
            ndim: lb.len() as u8,
            lb: pt(lb),
            ub: pt(ub),
        })
    }

    /// Create a box from inclusive lower and upper bounds.
    ///
    /// # Panics
    /// Panics if the slices differ in length, exceed [`MAX_DIMS`], are
    /// empty, or if `lb[d] > ub[d]` for any dimension.
    pub fn new(lb: &[u64], ub: &[u64]) -> Self {
        Self::try_new(lb, ub).unwrap_or_else(|| {
            // Name the rule the corners broke.
            assert_eq!(lb.len(), ub.len(), "bound rank mismatch");
            assert!(
                !lb.is_empty() && lb.len() <= MAX_DIMS,
                "bad rank {}",
                lb.len()
            );
            let d = (0..lb.len())
                .find(|&d| lb[d] > ub[d])
                .expect("try_new rejects nothing else");
            panic!("empty extent in dim {d}: {} > {}", lb[d], ub[d])
        })
    }

    /// A box spanning `[0, size_d - 1]` in each dimension.
    ///
    /// # Panics
    /// Panics if any size is zero.
    pub fn from_sizes(sizes: &[u64]) -> Self {
        let lb = vec![0u64; sizes.len()];
        let ub: Vec<u64> = sizes
            .iter()
            .map(|&s| {
                assert!(s > 0, "zero-size dimension");
                s - 1
            })
            .collect();
        Self::new(&lb, &ub)
    }

    /// Number of dimensions.
    #[inline]
    pub fn ndim(&self) -> usize {
        self.ndim as usize
    }

    /// Inclusive lower bound in dimension `d`.
    #[inline]
    pub fn lb(&self, d: usize) -> u64 {
        debug_assert!(d < self.ndim());
        self.lb[d]
    }

    /// Inclusive upper bound in dimension `d`.
    #[inline]
    pub fn ub(&self, d: usize) -> u64 {
        debug_assert!(d < self.ndim());
        self.ub[d]
    }

    /// The lower corner as an inline point.
    #[inline]
    pub fn lower(&self) -> Pt {
        self.lb
    }

    /// The upper corner as an inline point.
    #[inline]
    pub fn upper(&self) -> Pt {
        self.ub
    }

    /// Extent (number of lattice cells) along dimension `d`.
    #[inline]
    pub fn extent(&self, d: usize) -> u64 {
        self.ub[d] - self.lb[d] + 1
    }

    /// Total number of lattice cells in the box.
    #[inline]
    pub fn num_cells(&self) -> u128 {
        (0..self.ndim()).map(|d| self.extent(d) as u128).product()
    }

    /// Whether `p` (first `ndim` coordinates) lies inside the box.
    pub fn contains_point(&self, p: &[u64]) -> bool {
        debug_assert!(p.len() >= self.ndim());
        (0..self.ndim()).all(|d| self.lb[d] <= p[d] && p[d] <= self.ub[d])
    }

    /// Whether `other` lies entirely inside `self`.
    #[inline]
    pub fn contains_box(&self, other: &BoundingBox) -> bool {
        debug_assert_eq!(self.ndim, other.ndim);
        (0..self.ndim()).all(|d| self.lb[d] <= other.lb[d] && other.ub[d] <= self.ub[d])
    }

    /// Intersection of two boxes, or `None` if they are disjoint.
    pub fn intersect(&self, other: &BoundingBox) -> Option<BoundingBox> {
        debug_assert_eq!(self.ndim, other.ndim, "rank mismatch in intersect");
        let mut lb = [0u64; MAX_DIMS];
        let mut ub = [0u64; MAX_DIMS];
        for d in 0..self.ndim() {
            let lo = self.lb[d].max(other.lb[d]);
            let hi = self.ub[d].min(other.ub[d]);
            if lo > hi {
                return None;
            }
            lb[d] = lo;
            ub[d] = hi;
        }
        Some(BoundingBox {
            ndim: self.ndim,
            lb,
            ub,
        })
    }

    /// Iterate all lattice points of the box in row-major order (last
    /// dimension fastest). Intended for tests and small regions.
    pub fn iter_points(&self) -> PointIter {
        PointIter {
            bbox: *self,
            cur: self.lb,
            done: false,
        }
    }
}

/// Row-major iterator over the lattice points of a box.
pub struct PointIter {
    bbox: BoundingBox,
    cur: Pt,
    done: bool,
}

impl Iterator for PointIter {
    type Item = Pt;

    fn next(&mut self) -> Option<Pt> {
        if self.done {
            return None;
        }
        let out = self.cur;
        // Advance, last dimension fastest.
        let n = self.bbox.ndim();
        let mut d = n;
        loop {
            if d == 0 {
                self.done = true;
                break;
            }
            d -= 1;
            if self.cur[d] < self.bbox.ub[d] {
                self.cur[d] += 1;
                for cd in d + 1..n {
                    self.cur[cd] = self.bbox.lb[cd];
                }
                break;
            }
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let b = BoundingBox::new(&[0, 0, 0], &[10, 10, 20]);
        assert_eq!(b.ndim(), 3);
        assert_eq!(b.extent(0), 11);
        assert_eq!(b.extent(2), 21);
        assert_eq!(b.num_cells(), 11 * 11 * 21);
    }

    #[test]
    fn from_sizes_spans_origin() {
        let b = BoundingBox::from_sizes(&[4, 8]);
        assert_eq!(b.lb(0), 0);
        assert_eq!(b.ub(1), 7);
        assert_eq!(b.num_cells(), 32);
    }

    #[test]
    fn try_new_rejects_what_new_panics_on() {
        assert_eq!(BoundingBox::try_new(&[], &[]), None, "empty");
        assert_eq!(BoundingBox::try_new(&[0, 0], &[1]), None, "ragged");
        assert_eq!(BoundingBox::try_new(&[0], &[1, 1]), None, "ragged");
        let wide = [0u64; MAX_DIMS + 1];
        assert_eq!(BoundingBox::try_new(&wide, &wide), None, "> MAX_DIMS");
        assert_eq!(BoundingBox::try_new(&[0, 5], &[3, 1]), None, "lb > ub");
        assert_eq!(
            BoundingBox::try_new(&[1, 2], &[3, 2]),
            Some(BoundingBox::new(&[1, 2], &[3, 2]))
        );
    }

    #[test]
    #[should_panic(expected = "bound rank mismatch")]
    fn rejects_ragged_bounds() {
        BoundingBox::new(&[0, 0], &[1]);
    }

    #[test]
    #[should_panic(expected = "bad rank 0")]
    fn rejects_empty_bounds() {
        BoundingBox::new(&[], &[]);
    }

    #[test]
    #[should_panic(expected = "empty extent")]
    fn rejects_inverted_bounds() {
        BoundingBox::new(&[5], &[4]);
    }

    #[test]
    #[should_panic(expected = "zero-size dimension")]
    fn rejects_zero_size() {
        BoundingBox::from_sizes(&[4, 0]);
    }

    #[test]
    fn single_cell_box() {
        let b = BoundingBox::new(&[3, 3], &[3, 3]);
        assert_eq!(b.num_cells(), 1);
        assert!(b.contains_point(&[3, 3, 0, 0]));
        assert!(!b.contains_point(&[3, 4, 0, 0]));
    }

    #[test]
    fn intersect_overlapping() {
        let a = BoundingBox::new(&[0, 0], &[7, 7]);
        let b = BoundingBox::new(&[4, 6], &[12, 9]);
        let i = a.intersect(&b).unwrap();
        assert_eq!(i, BoundingBox::new(&[4, 6], &[7, 7]));
        // Commutative.
        assert_eq!(b.intersect(&a).unwrap(), i);
    }

    #[test]
    fn intersect_disjoint() {
        let a = BoundingBox::new(&[0, 0], &[3, 3]);
        let b = BoundingBox::new(&[4, 0], &[7, 3]);
        assert!(a.intersect(&b).is_none());
    }

    #[test]
    fn intersect_touching_edge_shares_cells() {
        // Inclusive bounds: boxes sharing a face row do intersect.
        let a = BoundingBox::new(&[0, 0], &[4, 4]);
        let b = BoundingBox::new(&[4, 0], &[8, 4]);
        let i = a.intersect(&b).unwrap();
        assert_eq!(i.num_cells(), 5);
    }

    #[test]
    fn contains_box_cases() {
        let outer = BoundingBox::new(&[0, 0], &[9, 9]);
        let inner = BoundingBox::new(&[2, 3], &[5, 9]);
        assert!(outer.contains_box(&inner));
        assert!(!inner.contains_box(&outer));
        assert!(outer.contains_box(&outer));
    }

    #[test]
    fn iter_points_row_major() {
        let b = BoundingBox::new(&[1, 2], &[2, 3]);
        let pts: Vec<Pt> = b.iter_points().collect();
        assert_eq!(
            pts,
            vec![pt(&[1, 2]), pt(&[1, 3]), pt(&[2, 2]), pt(&[2, 3])]
        );
    }

    #[test]
    fn iter_points_counts_match_volume() {
        let b = BoundingBox::new(&[0, 0, 0], &[2, 1, 3]);
        assert_eq!(b.iter_points().count() as u128, b.num_cells());
    }

    #[test]
    fn debug_format_matches_paper_notation() {
        let b = BoundingBox::new(&[0, 0, 0], &[10, 10, 20]);
        assert_eq!(format!("{b:?}"), "<0,0,0; 10,10,20>");
    }
}
