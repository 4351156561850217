//! A retained cell array gives its memory back: a `HugeSlab` frees with
//! the very layout it allocated with, so reserving, filling and dropping
//! aligned multi-MiB arrays one after another leaves the resident set
//! where it was. It reads this process's `VmRSS`, so it is the only
//! test in its binary.
#![cfg(target_os = "linux")]

use insitu_util::HugeSlab;

/// This process's resident set in KiB (`VmRSS` of `/proc/self/status`).
fn vm_rss_kib() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status.lines().find(|l| l.starts_with("VmRSS:")).unwrap();
    line.split_whitespace().nth(1).unwrap().parse().unwrap()
}

#[test]
fn dropping_64_aligned_8_mib_arrays_gives_their_memory_back() {
    const CELLS: usize = (8 << 20) / 8;
    let before = vm_rss_kib();
    for round in 0..64 {
        let mut cells = HugeSlab::reserve(CELLS).unwrap().carve(CELLS);
        cells.extend((0..CELLS).map(|i| (i + round) as f64));
        assert_eq!(cells[CELLS - 1], (CELLS - 1 + round) as f64);
    }
    let after = vm_rss_kib();
    println!("VmRSS {before} KiB -> {after} KiB after 64 x 8 MiB");
    assert!(
        after <= before + (16 << 10),
        "VmRSS grew {before} -> {after} KiB"
    );
}
