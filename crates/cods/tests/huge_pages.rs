//! A get's assembly buffer is born on huge pages: a query that spans
//! several staged pieces is copied into one fresh array, and the first
//! touch of a multi-MiB array on 4 KiB pages costs more than the copies
//! into it (DESIGN.md §9.5). This binary declares the `insitu` binary's
//! allocator, `HugeAlloc`, which places that array on whole huge pages.
#![cfg(target_os = "linux")]

use insitu_cods::{CodsConfig, CodsSpace, Dht};
use insitu_dart::DartRuntime;
use insitu_domain::{layout, BoundingBox, Decomposition, Distribution, ProcessGrid};
use insitu_fabric::{ClientId, MachineSpec, Placement, TransferLedger};
use insitu_sfc::HilbertCurve;
use insitu_util::HugeAlloc;
use std::sync::Arc;

/// The `insitu` binary's allocator, as in every `insitu` process: a
/// large fresh buffer is placed on whole, aligned huge pages.
#[global_allocator]
static ALLOC: HugeAlloc = HugeAlloc;

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
fn an_8_mib_get_cont_assembly_is_born_on_huge_pages() {
    let expect = thp_expected();
    let placement = Arc::new(Placement::pack_sequential(MachineSpec::new(1, 4), 4));
    let dart = DartRuntime::new(placement, Arc::new(TransferLedger::new()));
    let dht = Dht::new(Box::new(HilbertCurve::new(2, 10)), vec![0]);
    let s = CodsSpace::new(dart, dht, CodsConfig::default());
    // 1024 x 1024 cells of 8 bytes: 8 MiB in four 2 MiB pieces.
    let domain = BoundingBox::from_sizes(&[1024, 1024]);
    let dec = Decomposition::new(domain, ProcessGrid::new(&[2, 2]), Distribution::Blocked);
    let clients: Vec<ClientId> = (0..4).collect();
    let tag = |p: &[u64]| (p[0] * 1024 + p[1]) as f64;
    for rank in 0..4u64 {
        let b = dec.blocked_box(rank).unwrap();
        s.put_cont(
            rank as ClientId,
            1,
            "v",
            0,
            0,
            &b,
            layout::fill_with(&b, tag),
        )
        .unwrap();
    }
    let (data, report) = s.get_cont(0, 2, "v", 0, &domain, &dec, &clients).unwrap();
    assert_eq!(
        (report.ops, data.is_view()),
        (4, false),
        "assembled from four pieces"
    );
    assert_eq!(data.len() * 8, 8 << 20);
    let middle = data.as_ptr() as usize + data.len() * 4;
    assert_eq!(
        thp_eligible(middle),
        expect as u8,
        "the assembly buffer's mapping"
    );
    let wrong = domain
        .iter_points()
        .filter(|p| data[layout::linear_index(&domain, &p[..2])] != tag(&p[..2]));
    assert_eq!(wrong.count(), 0);
}
