//! A slab is one allocation shared by every piece carved from it: its
//! memory stays resident while any piece lives, whichever pieces have
//! dropped, and goes back to the system when the last one drops. It
//! reads this process's `VmRSS`, so it is the only test in its binary.
#![cfg(target_os = "linux")]

use insitu_util::HugeSlab;

/// This process's resident set in KiB (`VmRSS` of `/proc/self/status`).
fn vm_rss_kib() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status.lines().find(|l| l.starts_with("VmRSS:")).unwrap();
    line.split_whitespace().nth(1).unwrap().parse().unwrap()
}

#[test]
fn a_slab_keeps_its_memory_until_its_last_piece_drops() {
    // Five 8 MiB pieces: a 40 MiB slab, above the largest size malloc
    // serves from its heap, so freeing it unmaps it.
    const PIECE: usize = (8 << 20) / 8;
    const SLAB_KIB: usize = 40 << 10;
    let before = vm_rss_kib();
    let mut slab = HugeSlab::reserve(5 * PIECE).unwrap();
    let mut pieces: Vec<_> = (0..5)
        .map(|k| {
            let mut cells = slab.carve(PIECE);
            cells.extend((0..PIECE).map(|i| (k * PIECE + i) as f64));
            cells
        })
        .collect();
    drop(slab);
    let filled = vm_rss_kib();

    // Every piece but the first drops: the slab is still one live
    // allocation, so none of it is given back.
    let first = pieces.remove(0);
    drop(pieces);
    let one_left = vm_rss_kib();
    assert_eq!(first[PIECE - 1], (PIECE - 1) as f64);

    drop(first);
    let after = vm_rss_kib();
    println!("VmRSS {before} KiB -> {filled} filled -> {one_left} with one piece -> {after} KiB");
    assert!(
        filled >= before + SLAB_KIB - (4 << 10),
        "filling a 40 MiB slab took {before} -> {filled} KiB"
    );
    assert!(
        one_left + (1 << 10) >= filled,
        "the slab gave memory back with a piece alive: {filled} -> {one_left} KiB"
    );
    assert!(
        after + SLAB_KIB - (4 << 10) <= one_left,
        "the last piece dropped and VmRSS stayed: {one_left} -> {after} KiB"
    );
}
