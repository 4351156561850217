//! A field the executors fill is born on huge pages: its `Vec` is the
//! buffer a `put` adopts and stages, and the first touch of a multi-MiB
//! piece on 4 KiB pages costs more than filling it (DESIGN.md §9.5).
#![cfg(target_os = "linux")]

use insitu::domain::BoundingBox;
use insitu::{fill_field, verify_field};

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
