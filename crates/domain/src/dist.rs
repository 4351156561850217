//! Data distribution types and the separable per-dimension ownership math.
//!
//! The framework supports the paper's three distribution types: standard
//! blocked, cyclic, and block-cyclic. All three are instances of a
//! block-cyclic layout: with block size `b` and `p` processes in a
//! dimension, position `x` (relative to the domain origin) belongs to grid
//! coordinate `(x / b) mod p`. Blocked uses `b = ceil(extent / p)` (a single
//! cycle), cyclic uses `b = 1`.
//!
//! Because ownership factors per dimension, overlap *volumes* between a
//! query box and a rank's owned set are products of per-dimension counts,
//! each computable in O(1). This is what lets the mapper build communication
//! graphs for 8192-task applications without enumerating cells.

use crate::bbox::{pt, Pt, MAX_DIMS};

/// A data distribution over a process grid, one of the three types the
/// framework supports.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Distribution {
    /// Contiguous blocks: rank grid coordinate `g` in a dimension owns
    /// positions `[g*b, (g+1)*b)` with `b = ceil(extent / p)`.
    Blocked,
    /// Element-wise round-robin (block-cyclic with block size 1).
    Cyclic,
    /// Round-robin of fixed-size blocks, per-dimension block sizes given.
    BlockCyclic(Pt),
}

impl Distribution {
    /// Convenience constructor for [`Distribution::BlockCyclic`].
    pub fn block_cyclic(blocks: &[u64]) -> Self {
        for (d, &b) in blocks.iter().enumerate() {
            assert!(b > 0, "zero block size in dim {d}");
        }
        Distribution::BlockCyclic(pt(blocks))
    }

    /// Effective block size in dimension `d` for a domain extent and
    /// process count.
    #[inline]
    pub fn block_extent(&self, d: usize, extent: u64, procs: u64) -> u64 {
        match self {
            Distribution::Blocked => extent.div_ceil(procs),
            Distribution::Cyclic => 1,
            Distribution::BlockCyclic(b) => {
                debug_assert!(d < MAX_DIMS);
                b[d]
            }
        }
    }

    /// Short human-readable label used in experiment output.
    pub fn label(&self) -> &'static str {
        match self {
            Distribution::Blocked => "blocked",
            Distribution::Cyclic => "cyclic",
            Distribution::BlockCyclic(_) => "block-cyclic",
        }
    }
}

/// Count of positions `x` in the inclusive range `[lo, hi]` (relative to
/// the domain origin) owned by grid coordinate `g`, under a block-cyclic
/// layout with block size `b` over `p` grid coordinates. O(1).
pub fn count_owned_in_range(lo: u64, hi: u64, b: u64, p: u64, g: u64) -> u64 {
    debug_assert!(b > 0 && p > 0 && g < p);
    if lo > hi {
        return 0;
    }
    // f(y) = number of owned positions in [0, y].
    let f = |y: u64| -> u64 {
        let period = b * p;
        let len = y + 1;
        let full = len / period;
        let rem = len % period;
        let start = g * b; // block for g begins here within each period
        let extra = rem.saturating_sub(start).min(b);
        full * b + extra
    };
    if lo == 0 {
        f(hi)
    } else {
        f(hi) - f(lo - 1)
    }
}

/// Iterator over the owned block sub-ranges `[start, end]` (inclusive,
/// relative positions) of grid coordinate `g` within `[lo, hi]`.
pub struct OwnedRanges {
    b: u64,
    period: u64,
    hi: u64,
    next_start: u64,
    done: bool,
}

impl OwnedRanges {
    /// Ranges of positions in `[lo, hi]` owned by `g` with block size `b`
    /// over `p` coordinates.
    pub fn new(lo: u64, hi: u64, b: u64, p: u64, g: u64) -> Self {
        debug_assert!(b > 0 && p > 0 && g < p);
        let period = b * p;
        // First block of g at or before lo.
        let cycle = lo / period;
        let mut start = cycle * period + g * b;
        if start + b <= lo {
            start += period;
        }
        OwnedRanges {
            b,
            period,
            hi,
            next_start: start,
            done: lo > hi,
        }
    }
}

impl Iterator for OwnedRanges {
    type Item = (u64, u64);

    fn next(&mut self) -> Option<(u64, u64)> {
        if self.done || self.next_start > self.hi {
            self.done = true;
            return None;
        }
        let s = self.next_start;
        let e = (s + self.b - 1).min(self.hi);
        self.next_start = s + self.period;
        // Clamp the start to the query window (only relevant for the first
        // block, which may begin before `lo`; the constructor guarantees the
        // block overlaps the window).
        Some((s, e))
    }
}

/// Owned sub-ranges of `g` intersected with `[lo, hi]`, clamped to the
/// window. Convenience wrapper over [`OwnedRanges`].
pub(crate) fn owned_ranges_in(lo: u64, hi: u64, b: u64, p: u64, g: u64) -> Vec<(u64, u64)> {
    OwnedRanges::new(lo, hi, b, p, g)
        .map(|(s, e)| (s.max(lo), e))
        .filter(|(s, e)| s <= e)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute_count(lo: u64, hi: u64, b: u64, p: u64, g: u64) -> u64 {
        (lo..=hi).filter(|x| (x / b) % p == g).count() as u64
    }

    #[test]
    fn count_matches_brute_force() {
        for b in [1u64, 2, 3, 5] {
            for p in [1u64, 2, 3, 4] {
                for g in 0..p {
                    for lo in 0..12 {
                        for hi in lo..30 {
                            assert_eq!(
                                count_owned_in_range(lo, hi, b, p, g),
                                brute_count(lo, hi, b, p, g),
                                "b={b} p={p} g={g} [{lo},{hi}]"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn count_single_proc_owns_everything() {
        assert_eq!(count_owned_in_range(3, 17, 4, 1, 0), 15);
    }

    #[test]
    fn count_empty_range() {
        assert_eq!(count_owned_in_range(5, 4, 2, 2, 0), 0);
    }

    #[test]
    fn owned_ranges_match_brute_force() {
        for b in [1u64, 2, 4] {
            for p in [1u64, 2, 3] {
                for g in 0..p {
                    for lo in 0..10 {
                        for hi in lo..25 {
                            let ranges = owned_ranges_in(lo, hi, b, p, g);
                            let mut cover: Vec<u64> = Vec::new();
                            for (s, e) in &ranges {
                                assert!(s <= e && *s >= lo && *e <= hi);
                                cover.extend(*s..=*e);
                            }
                            let expect: Vec<u64> = (lo..=hi).filter(|x| (x / b) % p == g).collect();
                            assert_eq!(cover, expect, "b={b} p={p} g={g} [{lo},{hi}]");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn block_extent_per_type() {
        assert_eq!(Distribution::Blocked.block_extent(0, 100, 8), 13);
        assert_eq!(Distribution::Cyclic.block_extent(0, 100, 8), 1);
        let bc = Distribution::block_cyclic(&[4, 2]);
        assert_eq!(bc.block_extent(0, 100, 8), 4);
        assert_eq!(bc.block_extent(1, 100, 8), 2);
    }

    #[test]
    #[should_panic(expected = "zero block size")]
    fn rejects_zero_block() {
        Distribution::block_cyclic(&[4, 0]);
    }

    #[test]
    fn labels() {
        assert_eq!(Distribution::Blocked.label(), "blocked");
        assert_eq!(Distribution::Cyclic.label(), "cyclic");
        assert_eq!(Distribution::block_cyclic(&[2]).label(), "block-cyclic");
    }
}
