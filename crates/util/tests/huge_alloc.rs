//! `HugeAlloc`, the `insitu` binary's global allocator, declared here as
//! this binary's: a large block starts on a huge-page boundary and is
//! backed by huge pages from its first write, a block that grows or
//! shrinks across the rule keeps its contents, and a zeroed block is
//! zero even where a dirtied one of its size was freed before. The
//! rule itself is checked as a table over the sizes the benchmark's
//! workloads allocate (DESIGN.md §9.5).
#![cfg(target_os = "linux")]

use insitu_util::{HugeAlloc, SplitMix64, HUGE_PAGE};
use std::alloc::Layout;

#[global_allocator]
static ALLOC: HugeAlloc = HugeAlloc;

const MIB: usize = 1 << 20;

/// The bytes of a `wire_*` producer's x-slab at n = 96 (24 x 96 x 96
/// cells): a staged piece, its `PullData` payload and app 3's assembly.
const WIRE_PIECE: usize = 24 * 96 * 96 * 8;

/// Whether `size` bytes at `align` are placed on huge pages.
fn admitted(size: usize, align: usize) -> bool {
    HugeAlloc::placed(Layout::from_size_align(size, align).unwrap()).is_some()
}

#[test]
fn the_rule_admits_a_block_that_whole_pages_grow_by_at_most_a_quarter() {
    // (bytes, what allocates them, admitted)
    let census = [
        (WIRE_PIECE, "wire_* piece, payload, app 3 assembly", true),
        (88 * 22 * 88 * 8, "wire_* app 2 assembly (1.30 MiB)", false),
        (32 * 64 * 64 * 8, "push_monitor piece (1 MiB)", false),
        (64 * 64 * 64 * 8, "push_monitor assembly (2 MiB)", true),
        (8 * 8 * 8 * 8, "insitu_blockcyclic 4 KiB block", false),
        (32 * 128 * 128 * 8, "insitu_node piece (4 MiB)", true),
        (0, "nothing", false),
        (1, "one byte", false),
        (HUGE_PAGE - 1, "a byte short of a huge page", true),
        (HUGE_PAGE + 1, "a byte past a huge page", false),
        (7 * MIB / 2, "3.5 MiB", true),
        (5 * MIB / 2, "2.5 MiB", false),
        // 2 MiB - 1 677 722 = 419 430 = 1 677 722 / 4: exactly a quarter.
        (1_677_722, "a quarter added", true),
        (1_677_721, "a byte more than a quarter added", false),
    ];
    for (size, what, want) in census {
        assert_eq!(admitted(size, 8), want, "{what}: {size} bytes");
        assert_eq!(admitted(size, 1), want, "{what}: {size} bytes of u8");
    }
    let placed = |size, align| HugeAlloc::placed(Layout::from_size_align(size, align).unwrap());
    let huge = |size, align| Some(Layout::from_size_align(size, align).unwrap());
    assert_eq!(placed(WIRE_PIECE, 8), huge(HUGE_PAGE, HUGE_PAGE));
    assert_eq!(placed(7 * MIB / 2, 4096), huge(4 * MIB, HUGE_PAGE));
    // A block asking for more than a huge page of alignment keeps it.
    assert_eq!(placed(4 * MIB, 4 * MIB), huge(4 * MIB, 4 * MIB));
    // A block whose whole pages would pass `isize::MAX` stays `System`'s.
    assert_eq!(placed(isize::MAX as usize - 10, 1), None);
}

/// Whether this kernel backs advised memory with huge pages (its THP
/// mode is not `[never]` and this process did not switch THP off).
fn thp_expected() -> bool {
    let mode = std::fs::read_to_string("/sys/kernel/mm/transparent_hugepage/enabled")
        .unwrap_or_else(|_| "[never]".into());
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let expect = !mode.contains("[never]") && !status.lines().any(|l| l == "THP_enabled:\t0");
    println!("THP mode {}: expecting AnonHugePages {expect}", mode.trim());
    expect
}

/// The `AnonHugePages` of the `/proc/self/smaps` mapping holding `addr`,
/// in KiB.
fn anon_huge_kib(addr: usize) -> usize {
    let smaps = std::fs::read_to_string("/proc/self/smaps").unwrap();
    let mut inside = false;
    for line in smaps.lines() {
        let bounds = line
            .split_whitespace()
            .next()
            .and_then(|r| r.split_once('-'))
            .and_then(|(lo, hi)| {
                Some((
                    usize::from_str_radix(lo, 16).ok()?,
                    usize::from_str_radix(hi, 16).ok()?,
                ))
            });
        if let Some((lo, hi)) = bounds {
            inside = (lo..hi).contains(&addr);
        } else if let Some(v) = line.strip_prefix("AnonHugePages:").filter(|_| inside) {
            return v.trim().trim_end_matches("kB").trim().parse().unwrap();
        }
    }
    panic!("no AnonHugePages line for {addr:#x} in /proc/self/smaps");
}

#[test]
fn an_admitted_vec_starts_on_a_huge_page_and_its_first_write_faults_one() {
    let expect = thp_expected();
    let mut bytes = vec![0u8; 0];
    bytes.reserve_exact(WIRE_PIECE);
    bytes.extend((0..WIRE_PIECE).map(|i| i as u8));
    let cells = vec![1.5f64; WIRE_PIECE / 8];
    for (what, at) in [
        ("Vec<u8>", bytes.as_ptr() as usize),
        ("Vec<f64>", cells.as_ptr() as usize),
    ] {
        assert_eq!(at % HUGE_PAGE, 0, "{what} at {at:#x}");
        let kib = anon_huge_kib(at);
        println!("{what} at {at:#x}: its mapping reads AnonHugePages {kib} kB");
        if expect {
            assert!(kib >= HUGE_PAGE >> 10, "{what}: {kib} kB");
        }
    }
    assert_eq!(bytes[WIRE_PIECE - 1], (WIRE_PIECE - 1) as u8);
    assert!(cells.iter().all(|&c| c == 1.5));
}

/// A size in one of the bands around the rule: small, between 1 and
/// 1.6 MiB (refused), just under 2 MiB (admitted), between 2 and
/// 3.2 MiB (refused), just under 4 MiB (admitted).
fn band_size(rng: &mut SplitMix64) -> usize {
    let (lo, hi) = *rng.choose(&[
        (1, 64 << 10),
        (MIB, 1_600_000),
        (1_700_000, HUGE_PAGE),
        (HUGE_PAGE + 1, 3_300_000),
        (3_400_000, 2 * HUGE_PAGE),
    ]);
    rng.range_usize(lo, hi + 1)
}

#[test]
fn a_block_resized_across_the_rule_keeps_its_contents() {
    let pattern: Vec<u8> = (0..2 * HUGE_PAGE)
        .map(|i| (i * 31 + i / 251) as u8)
        .collect();
    let (mut crossings, mut steps) = (0, 0);
    insitu_util::check::forall(200, |rng| {
        let first = band_size(rng);
        let mut v = Vec::with_capacity(first);
        v.extend_from_slice(&pattern[..first]);
        for _ in 0..rng.range_usize(2, 6) {
            let was = admitted(v.capacity(), 1);
            let len = band_size(rng);
            if len > v.len() {
                v.reserve_exact(len - v.len());
                v.extend_from_slice(&pattern[v.len()..len]);
            } else {
                v.truncate(len);
            }
            v.shrink_to_fit();
            assert_eq!((v.len(), v.capacity()), (len, len));
            assert!(v[..] == pattern[..len], "contents lost at {len} bytes");
            let now = admitted(len, 1);
            if now {
                assert_eq!(v.as_ptr() as usize % HUGE_PAGE, 0, "{len} bytes");
            }
            crossings += (was != now) as usize;
            steps += 1;
        }
    });
    println!("{crossings} of {steps} resizes crossed the rule");
    assert!(crossings > steps / 4, "{crossings} of {steps}");
}

#[test]
fn a_zeroed_admitted_block_is_zero_where_a_dirtied_one_was_freed() {
    // Freeing a 16 MiB block raises glibc's mmap threshold past it, so
    // the blocks below come from the heap, where a freed one is handed
    // out again with its old contents, not unmapped and mapped fresh.
    drop(Vec::<u8>::with_capacity(16 << 20));
    let n = WIRE_PIECE / 8;
    let mut reused = 0;
    for round in 0..8 {
        let dirty = vec![round as f64 + 0.5; n];
        let at = dirty.as_ptr();
        drop(dirty);
        let zeroed = vec![0.0f64; n];
        reused += (zeroed.as_ptr() == at) as usize;
        assert_eq!(zeroed.as_ptr() as usize % HUGE_PAGE, 0);
        assert!(
            zeroed.iter().all(|c| c.to_bits() == 0),
            "round {round}: a cell kept a freed block's value"
        );
    }
    println!("{reused} of 8 zeroed blocks reused the dirtied block");
}
