//! The pool dies with its lease: 64 leased waves each take four 8 MiB
//! cell buffers, fill them, give them back and take them again warm,
//! and once the last lease drops the resident set is where it was. It
//! reads this process's `VmRSS`, so it is the only test in its binary.
#![cfg(target_os = "linux")]

use insitu_util::{PoolLease, Recycled};

/// This process's resident set in KiB (`VmRSS` of `/proc/self/status`).
fn vm_rss_kib() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status.lines().find(|l| l.starts_with("VmRSS:")).unwrap();
    line.split_whitespace().nth(1).unwrap().parse().unwrap()
}

#[test]
fn sixty_four_leased_waves_of_8_mib_buffers_give_their_memory_back() {
    const CELLS: usize = (8 << 20) / 8;
    let before = vm_rss_kib();
    for wave in 0..64 {
        let _lease = PoolLease::hold();
        let fill = |i: usize| (i + wave) as f64;
        let mut first = Vec::new();
        for _ in 0..4 {
            let mut cells = Recycled::<f64>::with_capacity(CELLS);
            cells.extend((0..CELLS).map(fill));
            first.push(cells.as_ptr());
            drop(cells);
        }
        // Given back one at a time, each 8 MiB buffer was the next one's.
        assert!(
            first.iter().all(|&p| p == first[0]),
            "wave {wave}: {first:?}"
        );
        let mut live: Vec<Recycled<f64>> = (0..4).map(|_| Recycled::for_overwrite(CELLS)).collect();
        assert_eq!(live[0].as_ptr(), first[0], "wave {wave}: the warm buffer");
        assert_eq!(live[0][CELLS - 1], fill(CELLS - 1));
        // Four live and resident at once, then kept by the pool until
        // the wave ends: 32 MiB that the last lease must free.
        live.iter_mut().for_each(|cells| cells.fill(0.5));
        drop(live);
    }
    let after = vm_rss_kib();
    println!("VmRSS {before} KiB -> {after} KiB after 64 leased waves of 4 x 8 MiB");
    assert!(
        after <= before + (16 << 10),
        "VmRSS grew {before} -> {after} KiB"
    );
}
