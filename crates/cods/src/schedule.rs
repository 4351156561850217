//! Communication schedules for M×N redistribution.
//!
//! A communication schedule "represents the sequence of data transfers
//! required to correctly move data between coupled applications"
//! (§IV.A). Consumers compute one per `get()` — from the DHT's location
//! entries (sequential coupling) or directly from the producer's declared
//! decomposition (concurrent coupling) — cache it, and replay it on later
//! iterations.

use crate::dht::LocationEntry;
use crate::CodsError;
use insitu_domain::{BoundingBox, Decomposition};
use insitu_fabric::ClientId;
use insitu_telemetry::{Counter, Recorder};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// One transfer of a schedule: pull `region` out of the piece stored by
/// `src_client`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TransferOp {
    /// Client holding the source piece.
    pub src_client: ClientId,
    /// Piece index within the source's put sequence.
    pub piece: u64,
    /// Full box of the stored piece (the registered buffer's layout).
    pub piece_box: BoundingBox,
    /// Sub-box to move.
    pub region: BoundingBox,
}

/// The transfers fulfilling one consumer `get`.
#[derive(Clone, Debug, Default)]
pub struct CommSchedule {
    /// Transfers, ordered by source client.
    pub ops: Vec<TransferOp>,
}

impl CommSchedule {
    /// Total cells moved by the schedule.
    pub(crate) fn total_cells(&self) -> u128 {
        self.ops.iter().map(|o| o.region.num_cells()).sum()
    }

    /// Whether the schedule fills every cell of `query` exactly once:
    /// its regions lie inside the query, are pairwise disjoint and sum
    /// to it. A cell count alone proves nothing — two overlapping
    /// pieces can add up to the query and leave cells unfilled — so a
    /// schedule that fails any of the three is refused by name.
    pub(crate) fn check_cover(&self, query: &BoundingBox) -> Result<(), CodsError> {
        if let Some(op) = self.ops.iter().find(|o| !query.contains_box(&o.region)) {
            return Err(CodsError::NotACover {
                cells: op.region,
                outside: true,
            });
        }
        let mut regions: Vec<BoundingBox> = self.ops.iter().map(|o| o.region).collect();
        if let Some(cells) = first_overlap(&mut regions, 0) {
            return Err(CodsError::NotACover {
                cells,
                outside: false,
            });
        }
        match query.num_cells() - self.total_cells() {
            0 => Ok(()),
            missing_cells => Err(CodsError::IncompleteCover { missing_cells }),
        }
    }
}

/// The cells two of `regions` both hold, if any two meet. The boxes
/// already share a common stretch of every dimension before `d`.
///
/// A sweep along `d` in order of the boxes' starts: two boxes meet only
/// if, where the later one starts, the earlier one still spans, so at
/// each start the boxes spanning it recurse into the next dimension,
/// and in the last dimension a box sorted by its start can only meet
/// the one after it. A k × k single-cell schedule thus costs
/// O(k² log k), not a row of comparisons per cell.
fn first_overlap(regions: &mut [BoundingBox], d: usize) -> Option<BoundingBox> {
    regions.sort_by_key(|r| r.lb(d));
    if d + 1 == regions.first()?.ndim() {
        return regions.windows(2).find_map(|w| w[0].intersect(&w[1]));
    }
    let mut spanning = Vec::new();
    for starting in regions.chunk_by(|a, b| a.lb(d) == b.lb(d)) {
        spanning.retain(|r: &BoundingBox| r.ub(d) >= starting[0].lb(d));
        spanning.extend_from_slice(starting);
        if let Some(cells) = first_overlap(&mut spanning, d + 1) {
            return Some(cells);
        }
    }
    None
}

/// Union of two regions when they tile a box: identical, or abutting
/// along exactly one dimension with matching extents in all others.
fn try_union(a: &BoundingBox, b: &BoundingBox) -> Option<BoundingBox> {
    if a == b {
        return Some(*a);
    }
    let ndim = a.ndim();
    let mut split = None;
    for d in 0..ndim {
        if a.lb(d) == b.lb(d) && a.ub(d) == b.ub(d) {
            continue;
        }
        if split.is_some() {
            return None;
        }
        split = Some(d);
    }
    let d = split?;
    // Abutting (not overlapping, not gapped) along the split dimension.
    if a.ub(d) + 1 != b.lb(d) && b.ub(d) + 1 != a.lb(d) {
        return None;
    }
    let ndim = a.ndim();
    let lbs: Vec<u64> = (0..ndim).map(|i| a.lb(i).min(b.lb(i))).collect();
    let ubs: Vec<u64> = (0..ndim).map(|i| a.ub(i).max(b.ub(i))).collect();
    Some(BoundingBox::new(&lbs, &ubs))
}

/// Coalesce ops that pull from the same stored piece: duplicate regions
/// collapse and regions abutting along one dimension merge into a single
/// larger transfer, shrinking the schedule without changing the set of
/// cells it moves. Ops must be sorted by `(src_client, piece)`.
pub(crate) fn merge_schedule_ops(mut ops: Vec<TransferOp>) -> Vec<TransferOp> {
    let mut out: Vec<TransferOp> = Vec::with_capacity(ops.len());
    let mut start = 0;
    while start < ops.len() {
        let mut end = start + 1;
        while end < ops.len()
            && ops[end].src_client == ops[start].src_client
            && ops[end].piece == ops[start].piece
            && ops[end].piece_box == ops[start].piece_box
        {
            end += 1;
        }
        let group = &mut ops[start..end];
        // Fixpoint merge within the group (groups are tiny in practice).
        // Duplicates collapse first: a copy of a band that already merged
        // into a larger box would otherwise never find its twin.
        let mut regions: Vec<BoundingBox> = group.iter().map(|o| o.region).collect();
        let key = |b: &BoundingBox| -> Vec<(u64, u64)> {
            (0..b.ndim()).map(|d| (b.lb(d), b.ub(d))).collect()
        };
        regions.sort_by_key(&key);
        regions.dedup_by_key(|b| key(b));
        loop {
            let mut merged_any = false;
            'outer: for i in 0..regions.len() {
                for j in i + 1..regions.len() {
                    if let Some(u) = try_union(&regions[i], &regions[j]) {
                        regions[i] = u;
                        regions.swap_remove(j);
                        merged_any = true;
                        break 'outer;
                    }
                }
            }
            if !merged_any {
                break;
            }
        }
        let proto = group[0];
        out.extend(
            regions
                .into_iter()
                .map(|region| TransferOp { region, ..proto }),
        );
        start = end;
    }
    out
}

/// Build a schedule from DHT location entries, clipping each stored piece
/// to the query box.
pub fn schedule_from_entries(entries: &[LocationEntry], query: &BoundingBox) -> CommSchedule {
    let mut ops: Vec<TransferOp> = entries
        .iter()
        .filter_map(|e| {
            e.bbox.intersect(query).map(|region| TransferOp {
                src_client: e.owner,
                piece: e.piece,
                piece_box: e.bbox,
                region,
            })
        })
        .collect();
    ops.sort_by_key(|o| (o.src_client, o.piece));
    CommSchedule {
        ops: merge_schedule_ops(ops),
    }
}

/// Build a schedule directly from a producer's decomposition — the
/// concurrent-coupling path, where the consumer knows the producer's
/// declared data decomposition instead of asking the DHT.
///
/// `producer_clients[rank]` maps producer ranks to execution clients.
/// Piece indices follow the producer's `rank_region` enumeration order,
/// matching what the producer's `put` sequence registers.
pub fn schedule_from_decomposition(
    producer: &Decomposition,
    producer_clients: &[ClientId],
    query: &BoundingBox,
) -> CommSchedule {
    assert_eq!(
        producer_clients.len() as u64,
        producer.num_ranks(),
        "client map size mismatch"
    );
    let mut ops = Vec::new();
    for overlap in producer.overlaps(query) {
        let src_client = producer_clients[overlap.rank as usize];
        for (piece, piece_box) in producer.rank_region(overlap.rank).into_iter().enumerate() {
            if let Some(region) = piece_box.intersect(query) {
                ops.push(TransferOp {
                    src_client,
                    piece: piece as u64,
                    piece_box,
                    region,
                });
            }
        }
    }
    ops.sort_by_key(|o| (o.src_client, o.piece));
    CommSchedule {
        ops: merge_schedule_ops(ops),
    }
}

/// Cache of computed schedules keyed by `(var, query box)` — coupling
/// patterns repeat every iteration, so replays skip the DHT entirely.
///
/// Hit/miss accounting lives in telemetry [`Counter`]s
/// (`cods.schedule_cache.hits` / `.misses` when built over a live
/// recorder); a cache built with [`ScheduleCache::new`] counts into
/// detached cells, so [`ScheduleCache::stats`] works either way.
#[derive(Default)]
pub struct ScheduleCache {
    map: Mutex<HashMap<(u64, BoundingBox), Arc<CommSchedule>>>,
    hits: Counter,
    misses: Counter,
}

impl ScheduleCache {
    /// Empty cache, not wired to any metrics registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty cache whose hit/miss counters publish through `recorder`.
    pub fn with_recorder(recorder: &Recorder) -> Self {
        ScheduleCache {
            map: Mutex::new(HashMap::new()),
            hits: recorder.counter("cods.schedule_cache.hits"),
            misses: recorder.counter("cods.schedule_cache.misses"),
        }
    }

    /// Cached schedule for `(var, query)`, if any.
    pub fn lookup(&self, var: u64, query: &BoundingBox) -> Option<Arc<CommSchedule>> {
        let got = self.map.lock().unwrap().get(&(var, *query)).cloned();
        match &got {
            Some(_) => self.hits.inc(),
            None => self.misses.inc(),
        };
        got
    }

    /// Store a schedule.
    pub fn insert(&self, var: u64, query: &BoundingBox, schedule: Arc<CommSchedule>) {
        self.map.lock().unwrap().insert((var, *query), schedule);
    }

    /// Invalidate everything (e.g. after a re-decomposition).
    pub fn clear(&self) {
        self.map.lock().unwrap().clear();
    }

    /// `(hits, misses)` counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits.get(), self.misses.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use insitu_domain::{Distribution, ProcessGrid};

    fn blocked(sizes: &[u64], procs: &[u64]) -> Decomposition {
        Decomposition::new(
            BoundingBox::from_sizes(sizes),
            ProcessGrid::new(procs),
            Distribution::Blocked,
        )
    }

    #[test]
    fn schedule_from_entries_clips() {
        let entries = vec![
            LocationEntry {
                bbox: BoundingBox::new(&[0, 0], &[3, 3]),
                owner: 0,
                piece: 0,
            },
            LocationEntry {
                bbox: BoundingBox::new(&[0, 4], &[3, 7]),
                owner: 1,
                piece: 0,
            },
            LocationEntry {
                bbox: BoundingBox::new(&[4, 0], &[7, 3]),
                owner: 2,
                piece: 0,
            },
        ];
        let q = BoundingBox::new(&[2, 2], &[5, 5]);
        let s = schedule_from_entries(&entries, &q);
        assert_eq!(s.ops.len(), 3);
        assert_eq!(s.total_cells(), 4 + 4 + 4);
        assert!(s.ops.iter().all(|o| q.contains_box(&o.region)));
    }

    #[test]
    fn schedule_from_decomposition_covers_query() {
        let dec = blocked(&[8, 8], &[2, 2]);
        let clients = vec![10, 11, 12, 13];
        let q = BoundingBox::new(&[1, 1], &[6, 6]);
        let s = schedule_from_decomposition(&dec, &clients, &q);
        assert_eq!(s.total_cells(), q.num_cells());
        assert_eq!(s.ops.len(), 4);
        assert!(s.ops.iter().all(|o| clients.contains(&o.src_client)));
    }

    #[test]
    fn decomposition_and_entries_paths_agree() {
        // Entries as the producers would have put them (one piece each).
        let dec = blocked(&[8, 8], &[2, 2]);
        let clients = vec![0, 1, 2, 3];
        let entries: Vec<LocationEntry> = (0..4)
            .map(|r| LocationEntry {
                bbox: dec.blocked_box(r).unwrap(),
                owner: clients[r as usize],
                piece: 0,
            })
            .collect();
        let q = BoundingBox::new(&[2, 3], &[7, 6]);
        let a = schedule_from_entries(&entries, &q);
        let b = schedule_from_decomposition(&dec, &clients, &q);
        assert_eq!(a.ops, b.ops);
    }

    /// A one-op-per-region schedule over `regions` of one row.
    fn row_schedule(spans: &[(u64, u64)]) -> CommSchedule {
        let ops = spans.iter().enumerate().map(|(i, &(lo, hi))| {
            let region = BoundingBox::new(&[0, lo], &[0, hi]);
            TransferOp {
                src_client: i as ClientId,
                piece: 0,
                piece_box: region,
                region,
            }
        });
        CommSchedule { ops: ops.collect() }
    }

    #[test]
    fn a_cover_lies_inside_the_query_disjoint_and_whole() {
        let q = BoundingBox::new(&[0, 0], &[0, 9]);
        let row = |lo, hi| BoundingBox::new(&[0, lo], &[0, hi]);
        assert_eq!(row_schedule(&[(5, 9), (0, 4)]).check_cover(&q), Ok(()));
        // Six cells and four add up to ten, but overlap and leave a gap.
        assert_eq!(
            row_schedule(&[(3, 6), (0, 5)]).check_cover(&q),
            Err(CodsError::NotACover {
                cells: row(3, 5),
                outside: false,
            })
        );
        assert_eq!(
            row_schedule(&[(0, 3), (5, 9)]).check_cover(&q),
            Err(CodsError::IncompleteCover { missing_cells: 1 })
        );
        assert_eq!(
            row_schedule(&[(0, 9), (10, 12)]).check_cover(&q),
            Err(CodsError::NotACover {
                cells: row(10, 12),
                outside: true,
            })
        );
        assert_eq!(
            CommSchedule::default().check_cover(&q),
            Err(CodsError::IncompleteCover { missing_cells: 10 })
        );
    }

    #[test]
    fn the_overlap_sweep_agrees_with_every_pair() {
        insitu_util::check::forall(500, |rng| {
            let q = BoundingBox::from_sizes(&[6, 6]);
            let n = rng.range_usize(1, 7);
            let mut corner = || [rng.range_u64(0, 6), rng.range_u64(0, 6)];
            let ops: Vec<TransferOp> = (0..n)
                .map(|i| {
                    let (a, b) = (corner(), corner());
                    let region = BoundingBox::new(
                        &[a[0].min(b[0]), a[1].min(b[1])],
                        &[a[0].max(b[0]), a[1].max(b[1])],
                    );
                    TransferOp {
                        src_client: i as ClientId,
                        piece: 0,
                        piece_box: region,
                        region,
                    }
                })
                .collect();
            let overlap = ops.iter().enumerate().any(|(i, a)| {
                ops[i + 1..]
                    .iter()
                    .any(|b| a.region.intersect(&b.region).is_some())
            });
            let s = CommSchedule { ops };
            let verdict = s.check_cover(&q);
            let refused = matches!(verdict, Err(CodsError::NotACover { outside: false, .. }));
            assert_eq!(refused, overlap, "{:?}: {verdict:?}", s.ops);
            assert_eq!(verdict.is_ok(), !overlap && s.total_cells() == 36);
        });
    }

    #[test]
    fn the_recursive_sweep_agrees_with_every_pair_in_three_dimensions() {
        insitu_util::check::forall(500, |rng| {
            let n = rng.range_usize(1, 12);
            let regions: Vec<BoundingBox> = (0..n)
                .map(|_| {
                    let lb: Vec<u64> = (0..3).map(|_| rng.range_u64(0, 5)).collect();
                    let ub: Vec<u64> = lb.iter().map(|&l| l + rng.range_u64(0, 3)).collect();
                    BoundingBox::new(&lb, &ub)
                })
                .collect();
            let pairs = regions
                .iter()
                .enumerate()
                .any(|(i, a)| regions[i + 1..].iter().any(|b| a.intersect(b).is_some()));
            let found = first_overlap(&mut regions.clone(), 0);
            assert_eq!(found.is_some(), pairs, "{regions:?}");
            if let Some(cells) = found {
                let holders = regions.iter().filter(|r| r.contains_box(&cells)).count();
                assert!(holders >= 2, "{cells:?} is not held twice in {regions:?}");
            }
        });
    }

    #[test]
    fn a_cyclic_single_cell_schedule_is_a_cover() {
        let dec = Decomposition::new(
            BoundingBox::from_sizes(&[64, 64]),
            ProcessGrid::new(&[2, 2]),
            Distribution::Cyclic,
        );
        let q = BoundingBox::from_sizes(&[64, 64]);
        let mut s = schedule_from_decomposition(&dec, &[0, 1, 2, 3], &q);
        assert_eq!(s.ops.len(), 64 * 64);
        assert_eq!(s.check_cover(&q), Ok(()));
        // One cell held twice, one missing: the overlap is named.
        let twice = s.ops[0].region;
        s.ops[1].region = twice;
        assert_eq!(
            s.check_cover(&q),
            Err(CodsError::NotACover {
                cells: twice,
                outside: false,
            })
        );
    }

    #[test]
    fn cyclic_producer_many_pieces() {
        let dec = Decomposition::new(
            BoundingBox::from_sizes(&[8, 8]),
            ProcessGrid::new(&[2, 2]),
            Distribution::Cyclic,
        );
        let clients = vec![0, 1, 2, 3];
        let q = BoundingBox::new(&[0, 0], &[3, 3]);
        let s = schedule_from_decomposition(&dec, &clients, &q);
        assert_eq!(s.total_cells(), 16);
        // Every rank contributes scattered cells: 4 ranks x 4 single-cell ops.
        assert_eq!(s.ops.len(), 16);
    }

    #[test]
    fn empty_query_outside_domain() {
        let dec = blocked(&[8, 8], &[2, 2]);
        let s = schedule_from_decomposition(
            &dec,
            &[0, 1, 2, 3],
            &BoundingBox::new(&[20, 20], &[30, 30]),
        );
        assert!(s.ops.is_empty());
        assert_eq!(s.total_cells(), 0);
    }

    #[test]
    fn cache_hit_miss_stats() {
        let c = ScheduleCache::new();
        let q = BoundingBox::new(&[0, 0], &[1, 1]);
        assert!(c.lookup(1, &q).is_none());
        c.insert(1, &q, Arc::new(CommSchedule::default()));
        assert!(c.lookup(1, &q).is_some());
        assert!(c.lookup(2, &q).is_none());
        assert_eq!(c.stats(), (1, 2));
        c.clear();
        assert!(c.lookup(1, &q).is_none());
    }

    /// Cells covered by a list of ops, as a multiset-free set (ops never
    /// overlap, so a set is enough to compare coverage).
    fn covered_cells(ops: &[TransferOp]) -> std::collections::BTreeSet<Vec<u64>> {
        ops.iter()
            .flat_map(|o| {
                o.region
                    .iter_points()
                    .map(|p| p[..o.region.ndim()].to_vec())
            })
            .collect()
    }

    #[test]
    fn merge_coalesces_adjacent_regions_same_piece() {
        let piece_box = BoundingBox::new(&[0, 0], &[7, 7]);
        let mk = |lb: [u64; 2], ub: [u64; 2]| TransferOp {
            src_client: 3,
            piece: 0,
            piece_box,
            region: BoundingBox::new(&lb, &ub),
        };
        // Two row bands abutting along dim 0, plus a duplicate.
        let ops = vec![mk([0, 0], [3, 7]), mk([4, 0], [7, 7]), mk([0, 0], [3, 7])];
        let before = covered_cells(&ops);
        let merged = merge_schedule_ops(ops);
        assert_eq!(merged.len(), 1);
        assert_eq!(merged[0].region, BoundingBox::new(&[0, 0], &[7, 7]));
        assert_eq!(covered_cells(&merged), before);
    }

    #[test]
    fn merge_cascades_to_fixpoint() {
        let piece_box = BoundingBox::new(&[0, 0], &[7, 7]);
        let mk = |lb: [u64; 2], ub: [u64; 2]| TransferOp {
            src_client: 0,
            piece: 0,
            piece_box,
            region: BoundingBox::new(&lb, &ub),
        };
        // Four quadrants: pairwise merges must cascade into one box.
        let ops = vec![
            mk([0, 0], [3, 3]),
            mk([0, 4], [3, 7]),
            mk([4, 0], [7, 3]),
            mk([4, 4], [7, 7]),
        ];
        let before = covered_cells(&ops);
        let merged = merge_schedule_ops(ops);
        assert_eq!(merged.len(), 1);
        assert_eq!(covered_cells(&merged), before);
    }

    #[test]
    fn merge_keeps_distinct_sources_and_pieces_apart() {
        let piece_box = BoundingBox::new(&[0, 0], &[7, 7]);
        let mk = |src: ClientId, piece: u64, lb: [u64; 2], ub: [u64; 2]| TransferOp {
            src_client: src,
            piece,
            piece_box,
            region: BoundingBox::new(&lb, &ub),
        };
        // Adjacent regions, but different owners / piece ids: untouched.
        let ops = vec![
            mk(0, 0, [0, 0], [3, 7]),
            mk(0, 1, [4, 0], [7, 7]),
            mk(1, 0, [0, 0], [3, 7]),
        ];
        let before = covered_cells(&ops);
        let merged = merge_schedule_ops(ops.clone());
        assert_eq!(merged, ops);
        assert_eq!(covered_cells(&merged), before);
    }

    #[test]
    fn merge_rejects_diagonal_and_gapped_regions() {
        let piece_box = BoundingBox::new(&[0, 0], &[7, 7]);
        let mk = |lb: [u64; 2], ub: [u64; 2]| TransferOp {
            src_client: 0,
            piece: 0,
            piece_box,
            region: BoundingBox::new(&lb, &ub),
        };
        // Diagonal neighbors and a gapped pair: no merge is legal.
        let ops = vec![mk([0, 0], [1, 1]), mk([2, 2], [3, 3]), mk([0, 6], [1, 7])];
        let merged = merge_schedule_ops(ops.clone());
        assert_eq!(merged.len(), 3);
        assert_eq!(covered_cells(&merged), covered_cells(&ops));
    }

    #[test]
    fn merge_requires_matching_piece_boxes() {
        // Same owner and piece id but different stored boxes (as distinct
        // DHT records could claim): regions must NOT merge across them —
        // the merged op would read from the wrong source layout.
        let mk = |pb: BoundingBox, lb: [u64; 2], ub: [u64; 2]| TransferOp {
            src_client: 0,
            piece: 0,
            piece_box: pb,
            region: BoundingBox::new(&lb, &ub),
        };
        let ops = vec![
            mk(BoundingBox::new(&[0, 0], &[3, 7]), [0, 0], [3, 7]),
            mk(BoundingBox::new(&[4, 0], &[7, 7]), [4, 0], [7, 7]),
        ];
        let merged = merge_schedule_ops(ops.clone());
        assert_eq!(merged, ops);
    }

    #[test]
    fn merged_and_unmerged_entry_schedules_move_identical_cells() {
        // Duplicate location records for the same piece (e.g. replicated
        // DHT cores answering the same query, before any dedup).
        let q = BoundingBox::new(&[1, 1], &[6, 6]);
        let bbox = BoundingBox::new(&[0, 0], &[7, 7]);
        let entries: Vec<LocationEntry> = (0..3)
            .map(|_| LocationEntry {
                bbox,
                owner: 5,
                piece: 0,
            })
            .collect();
        let merged = schedule_from_entries(&entries, &q);
        // Reference: the unmerged clip of each entry.
        let unmerged: Vec<TransferOp> = entries
            .iter()
            .filter_map(|e| {
                e.bbox.intersect(&q).map(|region| TransferOp {
                    src_client: e.owner,
                    piece: e.piece,
                    piece_box: e.bbox,
                    region,
                })
            })
            .collect();
        assert_eq!(unmerged.len(), 3);
        assert_eq!(merged.ops.len(), 1);
        assert_eq!(covered_cells(&merged.ops), covered_cells(&unmerged));
        assert_eq!(merged.total_cells(), q.num_cells());
    }

    #[test]
    #[should_panic(expected = "client map size mismatch")]
    fn rejects_short_client_map() {
        let dec = blocked(&[8, 8], &[2, 2]);
        schedule_from_decomposition(&dec, &[0, 1], &BoundingBox::from_sizes(&[8, 8]));
    }
}
