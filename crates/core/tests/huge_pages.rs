//! A field the executors fill is born on huge pages: its `Vec` is the
//! buffer a `put` adopts and stages, and the first touch of a multi-MiB
//! piece on 4 KiB pages costs more than filling it (DESIGN.md §9.5).
//! This binary declares the `insitu` binary's allocator, `HugeAlloc`,
//! which places such a `Vec` on whole huge pages. A
//! producer's sequential pieces, retained until their consumer bundle
//! runs, are carved back to back from one slab that starts on a
//! huge-page boundary, so every whole huge page of it is advised and
//! consecutive pieces share the page where one ends and the next begins.
#![cfg(target_os = "linux")]

use insitu::cods::{var_id, CodsConfig, CodsSpace, Dht, FieldData};
use insitu::dart::DartRuntime;
use insitu::domain::BoundingBox;
use insitu::fabric::{MachineSpec, Placement, TransferLedger};
use insitu::sfc::HilbertCurve;
use insitu::{fill_field, fill_piece, staging_slab, verify_field};
use insitu_util::{HugeAlloc, HUGE_PAGE};
use std::sync::Arc;

/// The `insitu` binary's allocator, as in every `insitu` process: a
/// large fresh buffer is placed on whole, aligned huge pages.
#[global_allocator]
static ALLOC: HugeAlloc = HugeAlloc;

const MIB: usize = 1 << 20;

/// Whether this kernel backs advised memory with huge pages: the
/// transparent-huge-page mode in force (`always`, `madvise` or `never`;
/// `never` too where the kernel has no THP), unless this process had
/// THP switched off (`prctl(PR_SET_THP_DISABLE)`, inherited).
fn thp_expected() -> bool {
    let mode = std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled")
        .unwrap_or_else(|_| "[never]".into());
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let disabled = status.lines().any(|l| l == "THP_enabled:\t0");
    let expect = !mode.contains("[never]") && !disabled;
    let note = if disabled {
        ", off for this process"
    } else {
        ""
    };
    println!(
        "THP mode {}{note}: expecting THPeligible {}",
        mode.trim(),
        expect as u8
    );
    expect
}

/// The `THPeligible` value of the `/proc/self/smaps` mapping holding
/// `addr`.
fn thp_eligible(addr: usize) -> u8 {
    let smaps = std::fs::read_to_string("/proc/self/smaps").unwrap();
    let mut inside = false;
    for line in smaps.lines() {
        let range = line
            .split_whitespace()
            .next()
            .and_then(|r| r.split_once('-'));
        let bounds = range.and_then(|(lo, hi)| {
            Some((
                usize::from_str_radix(lo, 16).ok()?,
                usize::from_str_radix(hi, 16).ok()?,
            ))
        });
        if let Some((lo, hi)) = bounds {
            inside = (lo..hi).contains(&addr);
        } else if let Some(v) = line.strip_prefix("THPeligible:").filter(|_| inside) {
            return v.trim().parse().unwrap();
        }
    }
    panic!("no THPeligible line for {addr:#x} in /proc/self/smaps");
}

#[test]
fn a_filled_field_of_8_mib_is_born_on_huge_pages() {
    let expect = thp_expected();
    // 128 x 128 x 64 cells of 8 bytes: 8 MiB, at least three whole
    // aligned huge pages wherever the allocator puts it.
    let bbox = BoundingBox::from_sizes(&[128, 128, 64]);
    let data = fill_field(7, 3, &bbox);
    assert_eq!(data.len() * 8, 8 << 20);
    let middle = data.as_ptr() as usize + data.len() * 4;
    assert_eq!(
        thp_eligible(middle),
        expect as u8,
        "the filled field's mapping"
    );
    assert_eq!(verify_field(7, 3, &bbox, &data), 0);
}

/// A space of `ndim` dimensions on one node with two clients and one
/// DHT core.
fn one_node_space(ndim: usize) -> Arc<CodsSpace> {
    let placement = Arc::new(Placement::pack_sequential(MachineSpec::new(1, 2), 2));
    let dart = DartRuntime::new(placement, Arc::new(TransferLedger::new()));
    let dht = Dht::new(Box::new(HilbertCurve::new(ndim, 10)), vec![0]);
    CodsSpace::new(dart, dht, CodsConfig::default())
}

#[test]
fn a_sequential_put_of_4_mib_stages_bytes_on_aligned_huge_pages() {
    let expect = thp_expected();
    let s = one_node_space(2);
    // 512 x 1024 cells of 8 bytes: 4 MiB, two whole huge pages.
    let bbox = BoundingBox::from_sizes(&[512, 1024]);
    let vid = var_id("pressure");
    let mut slab = staging_slab("pressure", 0, &[bbox], 1).unwrap();
    let piece = fill_piece(vid, 2, &bbox, slab.as_mut());
    drop(slab);
    s.put_seq(0, 1, "pressure", 2, 0, &bbox, piece).unwrap();
    // A get of exactly the piece is a view of the staged bytes.
    let (staged, _) = s.get_seq(1, 2, "pressure", 2, &bbox).unwrap();
    assert!(staged.is_view());
    let at = staged.as_ptr() as usize;
    assert_eq!(staged.len() * 8, 4 * MIB);
    assert_eq!(at % HUGE_PAGE, 0, "staged at {at:#x}");
    assert_eq!(thp_eligible(at), expect as u8, "the first MiB's mapping");
    assert_eq!(
        thp_eligible(at + 3 * MIB),
        expect as u8,
        "the last MiB's mapping"
    );
    assert_eq!(verify_field(vid, 2, &bbox, &staged), 0);
}

#[test]
fn two_versions_of_a_1_77_mb_sequential_piece_share_a_huge_page_of_one_slab() {
    let expect = thp_expected();
    let s = one_node_space(3);
    // One producer rank's x-slab of `coupled3` at n = 96: 24 x 96 x 96
    // cells, 1 769 472 bytes, less than a huge page on its own.
    let bbox = BoundingBox::from_sizes(&[24, 96, 96]);
    let cells = bbox.num_cells() as usize;
    let vid = var_id("pressure");
    let mut slab = staging_slab("pressure", 0, &[bbox], 2).unwrap();
    assert!(slab.is_some(), "two versions hold a whole huge page");
    for version in 0..2 {
        let piece = fill_piece(vid, version, &bbox, slab.as_mut());
        s.put_seq(0, 1, "pressure", version, 0, &bbox, piece)
            .unwrap();
    }
    drop(slab);
    let staged: Vec<FieldData> = (0..2)
        .map(|version| s.get_seq(1, 2, "pressure", version, &bbox).unwrap().0)
        .collect();
    assert!(staged.iter().all(FieldData::is_view));
    let (first, second) = (staged[0].as_ptr() as usize, staged[1].as_ptr() as usize);
    assert_eq!(first % HUGE_PAGE, 0, "the slab starts at {first:#x}");
    assert_eq!(second, first + cells * 8, "version 1 follows version 0");
    // Version 0 fills the first 1.77 MB of the slab's first huge page
    // and version 1 begins in its last 0.33 MB.
    assert!(second < first + HUGE_PAGE);
    assert_eq!(thp_eligible(second), expect as u8, "the shared page");
    for (version, data) in staged.iter().enumerate() {
        assert_eq!(verify_field(vid, version as u64, &bbox, data), 0);
    }
}

#[test]
fn a_retained_piece_is_fill_field_bit_for_bit_on_both_sides_of_a_huge_page() {
    let cells_per_page = (HUGE_PAGE / 8) as u64;
    let mut sides = [0; 2];
    insitu_util::check::forall(24, |rng| {
        // A box of 1..=3 dims whose cell count straddles one huge page,
        // staged for one or two versions from one reservation.
        let ndim = rng.range_usize(1, 4);
        let want = rng.range_u64(cells_per_page / 2, 2 * cells_per_page);
        let mut sizes = vec![1u64; ndim];
        for size in &mut sizes[1..] {
            *size = rng.range_u64(1, 64);
        }
        sizes[0] = (want / sizes.iter().product::<u64>()).max(1);
        let lbs: Vec<u64> = (0..ndim).map(|_| rng.range_u64(0, 1000)).collect();
        let ubs: Vec<u64> = lbs.iter().zip(&sizes).map(|(l, n)| l + n - 1).collect();
        let bbox = BoundingBox::new(&lbs, &ubs);
        let (var, first) = (rng.next_u64(), rng.range_u64(0, 100));
        let versions = rng.range_u64(1, 3);
        let cells = bbox.num_cells() as usize;
        let mut slab = staging_slab("field", 0, &[bbox], versions).unwrap();
        let in_slab = cells * 8 * versions as usize >= HUGE_PAGE;
        assert_eq!(slab.is_some(), in_slab, "{bbox:?} x {versions}");
        sides[in_slab as usize] += 1;
        let mut base = None;
        for (k, version) in (first..first + versions).enumerate() {
            let piece = fill_piece(var, version, &bbox, slab.as_mut());
            let field = fill_field(var, version, &bbox);
            let bits = |c: &[f64]| c.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&piece), bits(&field), "{bbox:?} v{version}");
            assert_eq!(piece.is_view(), in_slab, "{bbox:?}");
            if in_slab {
                let at = piece.as_ptr() as usize;
                let base = *base.get_or_insert(at);
                assert_eq!(base % HUGE_PAGE, 0, "{bbox:?}");
                assert_eq!(at, base + k * cells * 8, "{bbox:?} v{version}");
            }
        }
        // Without a slab a piece is always the `Vec`.
        assert!(!fill_piece(var, first, &bbox, None).is_view());
    });
    assert!(sides[0] > 0 && sides[1] > 0, "boxes per side {sides:?}");
}
