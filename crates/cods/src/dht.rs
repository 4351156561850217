//! The SFC-indexed distributed hash table of CoDS.
//!
//! The linearized index space is divided into equal intervals, one per DHT
//! core (the paper places one DHT core per compute node). Each DHT core
//! keeps a location table recording, per shared variable and version,
//! which execution client stores which data region (paper §IV.A, Fig. 6).
//! Geometric queries are translated into index spans and routed to the
//! cores owning the covering intervals.

use insitu_domain::BoundingBox;
use insitu_fabric::ClientId;
use insitu_sfc::{spans_of_box, SpaceFillingCurve};
use std::collections::HashMap;
use std::sync::Mutex;

/// Stable hash of a variable name (FNV-1a).
pub fn var_id(name: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in name.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// One record in a DHT core's location table: a stored piece of a shared
/// variable.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LocationEntry {
    /// The stored piece's region.
    pub bbox: BoundingBox,
    /// Execution client holding the data.
    pub owner: ClientId,
    /// Piece index within the owner's put sequence (disambiguates the
    /// registered buffer key).
    pub piece: u64,
}

/// Approximate wire size of one location record or span query, used for
/// DHT traffic accounting.
pub(crate) const DHT_RECORD_BYTES: u64 = 64;

type Table = HashMap<(u64, u64), Vec<LocationEntry>>;

/// The distributed location service.
pub struct Dht {
    curve: Box<dyn SpaceFillingCurve>,
    core_clients: Vec<ClientId>,
    interval: u128,
    tables: Vec<Mutex<Table>>,
    /// [`Dht::cores_for`] of every box asked so far: a piece's box
    /// repeats every version, and its span walk costs far more than a
    /// lookup. Bounded by the run's distinct piece and query boxes.
    cores: Mutex<HashMap<BoundingBox, Vec<usize>>>,
}

impl Dht {
    /// Build a DHT over `curve`'s index space, divided across one core per
    /// entry of `core_clients` (the hosting execution clients).
    ///
    /// # Panics
    /// Panics if `core_clients` is empty.
    pub fn new(curve: Box<dyn SpaceFillingCurve>, core_clients: Vec<ClientId>) -> Self {
        assert!(!core_clients.is_empty(), "DHT needs at least one core");
        let n = core_clients.len() as u128;
        let interval = curve.index_count().div_ceil(n);
        let tables = (0..core_clients.len())
            .map(|_| Mutex::new(Table::new()))
            .collect();
        Dht {
            curve,
            core_clients,
            interval,
            tables,
            cores: Mutex::new(HashMap::new()),
        }
    }

    /// Hosting client of DHT core `idx`.
    pub(crate) fn core_client(&self, idx: usize) -> ClientId {
        self.core_clients[idx]
    }

    /// DHT core owning a curve index.
    #[inline]
    pub(crate) fn core_of_index(&self, idx: u128) -> usize {
        ((idx / self.interval) as usize).min(self.core_clients.len() - 1)
    }

    /// The distinct data region DHT core `idx` is responsible for,
    /// materialized as boxes (paper §IV.A: "each DHT core is assigned a
    /// distinct data region of the application data domain").
    pub fn region_of_core(&self, idx: usize) -> Vec<BoundingBox> {
        assert!(idx < self.core_clients.len(), "core out of range");
        let first = self.interval * idx as u128;
        let last = (self.interval * (idx as u128 + 1) - 1).min(self.curve.index_count() - 1);
        insitu_sfc::boxes_of_span(self.curve.as_ref(), &insitu_sfc::Span { first, last })
    }

    /// Index spans covering a box (the query key of the paper's get path).
    pub(crate) fn spans_for(&self, bbox: &BoundingBox) -> Vec<insitu_sfc::Span> {
        spans_of_box(self.curve.as_ref(), bbox)
    }

    /// Distinct DHT cores responsible for any part of `bbox`, ascending:
    /// walked once per box, then remembered.
    pub(crate) fn cores_for(&self, bbox: &BoundingBox) -> Vec<usize> {
        if let Some(cores) = self.cores.lock().unwrap().get(bbox) {
            return cores.clone();
        }
        let cores = self.walk_cores(bbox);
        self.cores.lock().unwrap().insert(*bbox, cores.clone());
        cores
    }

    /// [`Dht::cores_for`] by walking `bbox`'s index spans.
    fn walk_cores(&self, bbox: &BoundingBox) -> Vec<usize> {
        let mut cores = Vec::new();
        for s in self.spans_for(bbox) {
            let first = self.core_of_index(s.first);
            let last = self.core_of_index(s.last);
            for c in first..=last {
                if cores.last() != Some(&c) && !cores.contains(&c) {
                    cores.push(c);
                }
            }
        }
        cores.sort_unstable();
        cores.dedup();
        cores
    }

    /// Record a stored piece. The record lands on every core whose
    /// interval overlaps the piece's region. Returns the cores updated.
    pub fn insert(&self, var: u64, version: u64, entry: LocationEntry) -> Vec<usize> {
        let cores = self.cores_for(&entry.bbox);
        for &c in &cores {
            let mut t = self.tables[c].lock().unwrap();
            let list = t.entry((var, version)).or_default();
            // Replace a re-put of the same piece.
            if let Some(e) = list
                .iter_mut()
                .find(|e| e.owner == entry.owner && e.piece == entry.piece)
            {
                *e = entry;
            } else {
                list.push(entry);
            }
        }
        cores
    }

    /// Look up every stored piece of `(var, version)` intersecting
    /// `query`. Returns the (deduplicated) entries and the cores consulted.
    pub fn query(
        &self,
        var: u64,
        version: u64,
        query: &BoundingBox,
    ) -> (Vec<LocationEntry>, Vec<usize>) {
        self.query_filtered(var, version, query, &|_| true)
    }

    /// [`Dht::query`] restricted to the cores `core_up` reports reachable.
    /// Records held only by skipped (blacked-out) cores are simply absent
    /// from the result, surfacing downstream as an incomplete cover —
    /// exactly how an unreachable DHT server degrades.
    pub(crate) fn query_filtered(
        &self,
        var: u64,
        version: u64,
        query: &BoundingBox,
        core_up: &dyn Fn(usize) -> bool,
    ) -> (Vec<LocationEntry>, Vec<usize>) {
        let cores: Vec<usize> = self
            .cores_for(query)
            .into_iter()
            .filter(|&c| core_up(c))
            .collect();
        let mut out: Vec<LocationEntry> = Vec::new();
        for &c in &cores {
            let t = self.tables[c].lock().unwrap();
            if let Some(list) = t.get(&(var, version)) {
                for e in list {
                    if e.bbox.intersect(query).is_some()
                        && !out.iter().any(|o| o.owner == e.owner && o.piece == e.piece)
                    {
                        out.push(*e);
                    }
                }
            }
        }
        (out, cores)
    }

    /// Drop all records of `(var, version)`; returns records removed.
    pub fn remove_version(&self, var: u64, version: u64) -> usize {
        let mut removed = 0;
        for t in &self.tables {
            if let Some(v) = t.lock().unwrap().remove(&(var, version)) {
                removed += v.len();
            }
        }
        removed
    }

    /// Drop all records of `var` with version `<= max_version` (in-order
    /// eviction of an iterative variable); returns records removed.
    pub(crate) fn remove_versions_up_to(&self, var: u64, max_version: u64) -> usize {
        let mut removed = 0;
        for t in &self.tables {
            let mut t = t.lock().unwrap();
            t.retain(|&(v, version), list| {
                let drop = v == var && version <= max_version;
                if drop {
                    removed += list.len();
                }
                !drop
            });
        }
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use insitu_sfc::HilbertCurve;

    fn dht(cores: u32) -> Dht {
        Dht::new(Box::new(HilbertCurve::new(2, 3)), (0..cores).collect())
    }

    #[test]
    fn var_id_stable_and_distinct() {
        assert_eq!(var_id("temperature"), var_id("temperature"));
        assert_ne!(var_id("temperature"), var_id("velocity"));
    }

    #[test]
    fn interval_division_figure6() {
        // 8x8 domain, 4 DHT cores: 16 indices each, like Fig. 6.
        let d = dht(4);
        assert_eq!(d.core_of_index(0), 0);
        assert_eq!(d.core_of_index(15), 0);
        assert_eq!(d.core_of_index(16), 1);
        assert_eq!(d.core_of_index(63), 3);
    }

    #[test]
    fn quadrant_box_hits_single_core() {
        let d = dht(4);
        // The first Hilbert quadrant is one core's interval exactly.
        let q = BoundingBox::new(&[0, 0], &[3, 3]);
        assert_eq!(d.cores_for(&q).len(), 1);
    }

    #[test]
    fn full_domain_hits_all_cores() {
        let d = dht(4);
        let q = BoundingBox::from_sizes(&[8, 8]);
        assert_eq!(d.cores_for(&q), vec![0, 1, 2, 3]);
    }

    #[test]
    fn insert_then_query_roundtrip() {
        let d = dht(4);
        let piece = BoundingBox::new(&[0, 0], &[3, 7]);
        d.insert(
            var_id("t"),
            1,
            LocationEntry {
                bbox: piece,
                owner: 9,
                piece: 0,
            },
        );
        let (entries, cores) = d.query(var_id("t"), 1, &BoundingBox::new(&[2, 2], &[5, 5]));
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].owner, 9);
        assert!(!cores.is_empty());
    }

    #[test]
    fn query_wrong_version_empty() {
        let d = dht(2);
        let piece = BoundingBox::new(&[0, 0], &[3, 3]);
        d.insert(
            var_id("t"),
            1,
            LocationEntry {
                bbox: piece,
                owner: 0,
                piece: 0,
            },
        );
        let (entries, _) = d.query(var_id("t"), 2, &piece);
        assert!(entries.is_empty());
    }

    #[test]
    fn query_disjoint_region_empty() {
        let d = dht(2);
        d.insert(
            var_id("t"),
            0,
            LocationEntry {
                bbox: BoundingBox::new(&[0, 0], &[1, 1]),
                owner: 0,
                piece: 0,
            },
        );
        let (entries, _) = d.query(var_id("t"), 0, &BoundingBox::new(&[6, 6], &[7, 7]));
        assert!(entries.is_empty());
    }

    #[test]
    fn entries_deduplicated_across_cores() {
        // A piece spanning all intervals is recorded on all cores but
        // returned once.
        let d = dht(4);
        let whole = BoundingBox::from_sizes(&[8, 8]);
        let cores = d.insert(
            var_id("v"),
            0,
            LocationEntry {
                bbox: whole,
                owner: 1,
                piece: 0,
            },
        );
        assert_eq!(cores.len(), 4);
        let (entries, consulted) = d.query(var_id("v"), 0, &whole);
        assert_eq!(entries.len(), 1);
        assert_eq!(consulted.len(), 4);
    }

    #[test]
    fn reinsert_same_piece_replaces() {
        let d = dht(2);
        let b1 = BoundingBox::new(&[0, 0], &[1, 1]);
        d.insert(
            var_id("x"),
            0,
            LocationEntry {
                bbox: b1,
                owner: 5,
                piece: 3,
            },
        );
        d.insert(
            var_id("x"),
            0,
            LocationEntry {
                bbox: b1,
                owner: 5,
                piece: 3,
            },
        );
        let (entries, _) = d.query(var_id("x"), 0, &b1);
        assert_eq!(entries.len(), 1);
    }

    #[test]
    fn multiple_owners_returned() {
        let d = dht(4);
        for (i, lb) in [[0u64, 0], [0, 4], [4, 0], [4, 4]].iter().enumerate() {
            let b = BoundingBox::new(lb, &[lb[0] + 3, lb[1] + 3]);
            d.insert(
                var_id("f"),
                0,
                LocationEntry {
                    bbox: b,
                    owner: i as u32,
                    piece: 0,
                },
            );
        }
        let (entries, _) = d.query(var_id("f"), 0, &BoundingBox::new(&[2, 2], &[5, 5]));
        assert_eq!(entries.len(), 4);
    }

    #[test]
    fn region_of_core_partitions_domain() {
        let d = dht(4);
        let mut cells = std::collections::HashSet::new();
        for c in 0..4 {
            for b in d.region_of_core(c) {
                for p in b.iter_points() {
                    assert!(cells.insert((p[0], p[1])), "cell owned twice");
                }
            }
        }
        assert_eq!(cells.len(), 64);
        // Fig. 6: core 0's region is the first quadrant.
        assert_eq!(
            d.region_of_core(0),
            vec![BoundingBox::new(&[0, 0], &[3, 3])]
        );
    }

    #[test]
    fn remove_version_clears() {
        let d = dht(2);
        let b = BoundingBox::new(&[0, 0], &[7, 7]);
        d.insert(
            var_id("g"),
            0,
            LocationEntry {
                bbox: b,
                owner: 0,
                piece: 0,
            },
        );
        assert!(d.remove_version(var_id("g"), 0) > 0);
        let (entries, _) = d.query(var_id("g"), 0, &b);
        assert!(entries.is_empty());
    }

    #[test]
    fn remembered_cores_are_the_span_walks() {
        insitu_util::check::forall(64, |rng| {
            let dims = rng.range_usize(1, 4);
            let order = rng.range_u32(1, 6);
            let ncores = rng.range_u32(1, 9);
            let d = Dht::new(
                Box::new(HilbertCurve::new(dims, order)),
                (0..ncores).collect(),
            );
            let side = 1u64 << order;
            let boxes: Vec<BoundingBox> = (0..8)
                .map(|_| {
                    let lb: Vec<u64> = (0..dims).map(|_| rng.range_u64(0, side)).collect();
                    let ub: Vec<u64> = lb.iter().map(|&l| rng.range_u64(l, side)).collect();
                    BoundingBox::new(&lb, &ub)
                })
                .collect();
            // Twice over, so every box is asked once unremembered and
            // then remembered, some of them more than once.
            for b in boxes.iter().chain(&boxes) {
                assert_eq!(d.cores_for(b), d.walk_cores(b), "{b:?}");
            }
        });
    }

    #[test]
    fn single_core_dht() {
        let d = dht(1);
        let b = BoundingBox::new(&[1, 1], &[2, 2]);
        assert_eq!(d.cores_for(&b), vec![0]);
    }
}
