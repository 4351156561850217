//! Failure injection: the framework's error paths under missing
//! producers, uncovered queries, staging exhaustion and malformed inputs.

use insitu_cli::{build_scenario, CliError};
use insitu_cods::{var_id, CodsConfig, CodsError, CodsSpace, Dht, LocationEntry};
use insitu_dart::DartRuntime;
use insitu_domain::{layout, BoundingBox, Decomposition, Distribution, ProcessGrid};
use insitu_fabric::{MachineSpec, Placement, TransferLedger};
use insitu_sfc::HilbertCurve;
use std::sync::Arc;
use std::time::Duration;

fn small_space(staging_limit: Option<u64>) -> Arc<CodsSpace> {
    let placement = Arc::new(Placement::pack_sequential(MachineSpec::new(2, 2), 4));
    let dart = DartRuntime::new(placement, Arc::new(TransferLedger::new()));
    let dht = Dht::new(Box::new(HilbertCurve::new(2, 3)), vec![0, 2]);
    CodsSpace::new(
        dart,
        dht,
        CodsConfig {
            get_timeout: Duration::from_millis(50),
            staging_limit_per_node: staging_limit,
        },
    )
}

#[test]
fn dead_producer_surfaces_as_timeout() {
    let space = small_space(None);
    // The DHT advertises a piece whose producer never registered the
    // buffer (crashed between DHT insert and registration).
    let b = BoundingBox::from_sizes(&[4, 4]);
    space.dht().insert(
        var_id("orphan"),
        0,
        LocationEntry {
            bbox: b,
            owner: 3,
            piece: 0,
        },
    );
    let err = space.get_seq(0, 1, "orphan", 0, &b).unwrap_err();
    assert!(matches!(err, CodsError::Timeout { owner: 3, .. }));
    // The error display names the variable, version and the owner rank
    // that failed to serve the piece — the reproducer's first suspect.
    let msg = err.to_string();
    assert!(msg.contains("v0"), "{msg}");
    assert!(msg.contains("from client 3"), "{msg}");
}

#[test]
fn partially_produced_domain_is_incomplete() {
    let space = small_space(None);
    let dec = Decomposition::new(
        BoundingBox::from_sizes(&[8, 8]),
        ProcessGrid::new(&[2, 2]),
        Distribution::Blocked,
    );
    // Only 3 of 4 producers ever put.
    for r in 0..3u64 {
        let piece = dec.blocked_box(r).unwrap();
        let data = layout::fill_with(&piece, |p| p[0] as f64);
        space
            .put_seq(r as u32, 1, "partial", 0, 0, &piece, &data)
            .unwrap();
    }
    let err = space
        .get_seq(0, 2, "partial", 0, &BoundingBox::from_sizes(&[8, 8]))
        .unwrap_err();
    assert_eq!(err, CodsError::IncompleteCover { missing_cells: 16 });
}

#[test]
fn get_of_sub_region_avoids_the_missing_producer() {
    // Same partial production, but a query confined to the produced part
    // succeeds — failures are scoped to the data actually needed.
    let space = small_space(None);
    let dec = Decomposition::new(
        BoundingBox::from_sizes(&[8, 8]),
        ProcessGrid::new(&[2, 2]),
        Distribution::Blocked,
    );
    for r in 0..3u64 {
        let piece = dec.blocked_box(r).unwrap();
        let data = layout::fill_with(&piece, |p| p[0] as f64);
        space
            .put_seq(r as u32, 1, "partial2", 0, 0, &piece, &data)
            .unwrap();
    }
    let ok_region = dec.blocked_box(0).unwrap();
    let (data, _) = space.get_seq(1, 2, "partial2", 0, &ok_region).unwrap();
    assert_eq!(data.len() as u128, ok_region.num_cells());
}

#[test]
fn staging_exhaustion_blocks_put_not_get() {
    let space = small_space(Some(256));
    let dec = Decomposition::new(
        BoundingBox::from_sizes(&[8, 8]),
        ProcessGrid::new(&[2, 2]),
        Distribution::Blocked,
    );
    let piece = |r: u64| dec.blocked_box(r).unwrap(); // 16 cells = 128 B each
    let data = |r: u64| layout::fill_with(&piece(r), |p| p[1] as f64);
    // Clients 0 and 1 live on node 0 (2 cores/node): two puts fill it.
    space
        .put_seq(0, 1, "mem", 0, 0, &piece(0), data(0))
        .unwrap();
    space
        .put_seq(1, 1, "mem", 0, 0, &piece(1), data(1))
        .unwrap();
    let err = space
        .put_seq(0, 1, "mem", 1, 0, &piece(0), data(0))
        .unwrap_err();
    assert!(matches!(err, CodsError::StagingFull { node: 0, .. }));
    // Node 1 still has room.
    space
        .put_seq(2, 1, "mem", 0, 0, &piece(2), data(2))
        .unwrap();
    // Reads of already-staged data still work.
    let (got, _) = space.get_seq(3, 2, "mem", 0, &piece(0)).unwrap();
    assert_eq!(got[..], data(0)[..]);
}

#[test]
fn staging_limit_boundary_is_exact() {
    // Two clients per node, 128 B per piece: a 256 B limit fits exactly
    // two pieces. Landing exactly *at* the limit succeeds; one byte past
    // fails with the typed error, naming the node and its usage.
    let space = small_space(Some(256));
    let dec = Decomposition::new(
        BoundingBox::from_sizes(&[8, 8]),
        ProcessGrid::new(&[2, 2]),
        Distribution::Blocked,
    );
    let piece = |r: u64| dec.blocked_box(r).unwrap(); // 16 cells = 128 B
    let data = |r: u64| layout::fill_with(&piece(r), |p| p[0] as f64);
    space
        .put_seq(0, 1, "edge", 0, 0, &piece(0), data(0))
        .unwrap();
    assert_eq!(space.staging_bytes(0), 128);
    // Exactly at the limit: allowed.
    space
        .put_seq(1, 1, "edge", 0, 1, &piece(1), data(1))
        .unwrap();
    assert_eq!(space.staging_bytes(0), 256);
    // One past: typed failure carrying the accounting.
    let err = space
        .put_seq(0, 1, "edge", 1, 0, &piece(0), data(0))
        .unwrap_err();
    match err {
        CodsError::StagingFull { node, used, limit } => {
            assert_eq!(node, 0);
            assert_eq!(used, 256);
            assert_eq!(limit, 256);
        }
        other => panic!("expected StagingFull, got {other:?}"),
    }
}

#[test]
fn eviction_frees_staging_in_version_order() {
    let space = small_space(Some(256));
    let dec = Decomposition::new(
        BoundingBox::from_sizes(&[8, 8]),
        ProcessGrid::new(&[2, 2]),
        Distribution::Blocked,
    );
    let piece = |r: u64| dec.blocked_box(r).unwrap();
    let data = |r: u64| layout::fill_with(&piece(r), |p| p[1] as f64);
    // Fill node 0 with versions 0 and 1 of the same variable.
    space
        .put_seq(0, 1, "ring", 0, 0, &piece(0), data(0))
        .unwrap();
    space
        .put_seq(1, 1, "ring", 1, 1, &piece(1), data(1))
        .unwrap();
    let err = space
        .put_seq(0, 1, "ring", 2, 0, &piece(0), data(0))
        .unwrap_err();
    assert!(matches!(err, CodsError::StagingFull { node: 0, .. }));
    // Evicting the *oldest* version (the producer reclaim order) frees
    // exactly its bytes and unblocks the next put; the newer version
    // stays readable.
    space.evict_version("ring", 0);
    assert_eq!(space.staging_bytes(0), 128);
    assert!(space.get_seq(3, 2, "ring", 0, &piece(0)).is_err());
    space
        .put_seq(0, 1, "ring", 2, 0, &piece(0), data(0))
        .unwrap();
    assert_eq!(space.staging_bytes(0), 256);
    let (got, _) = space.get_seq(3, 2, "ring", 1, &piece(1)).unwrap();
    assert_eq!(got[..], data(1)[..]);
    let (got, _) = space.get_seq(3, 2, "ring", 2, &piece(0)).unwrap();
    assert_eq!(got[..], data(0)[..]);
}

#[test]
fn cli_rejects_structurally_broken_inputs() {
    // DAG references a bundle app that was never declared.
    let bad_dag = "APP_ID 1\nBUNDLE 1 2\n";
    let cfg = "DOMAIN 8 8\nAPP 1 GRID 2 2 DIST blocked\n";
    let err = build_scenario(bad_dag, cfg).unwrap_err();
    assert!(matches!(err, CliError::Mismatch(_)), "{err}");

    // Config with an app the DAG doesn't know stays an error too.
    let dag = "APP_ID 1\nAPP_ID 2\nBUNDLE 1 2\n";
    let bad_cfg = "DOMAIN 8 8\nAPP 1 GRID 2 2 DIST blocked\n";
    let err = build_scenario(dag, bad_cfg).unwrap_err();
    assert!(err.to_string().contains("app 2"));
}

#[test]
fn workflow_cycle_rejected_before_any_execution() {
    let dag = "APP_ID 1\nAPP_ID 2\nPARENT_APPID 1 CHILD_APPID 2\nPARENT_APPID 2 CHILD_APPID 1\n";
    let cfg = "\
DOMAIN 8 8
APP 1 GRID 2 2 DIST blocked
APP 2 GRID 2 2 DIST blocked
";
    let err = build_scenario(dag, cfg).unwrap_err();
    assert!(err.to_string().contains("cycle"), "{err}");
}

/// A `.cfg` zero count is a named error on the command line, not a
/// panic deeper in: `insitu run` exits 1 with `error: config line N: …`
/// for each directive that takes one.
#[test]
fn insitu_run_rejects_zero_counts_by_line() {
    let dir = std::env::temp_dir().join(format!("insitu-zero-counts-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let dag = dir.join("w.dag");
    std::fs::write(&dag, "APP_ID 1\nAPP_ID 2\nBUNDLE 1 2\n").unwrap();
    let app2 = "APP 2 GRID 2 2 DIST blocked";
    for (line, cfg) in [
        (
            1,
            format!("CORES_PER_NODE 0\nDOMAIN 8 8\nAPP 1 GRID 2 2 DIST blocked\n{app2}\n"),
        ),
        (
            2,
            format!("CORES_PER_NODE 4\nDOMAIN 0 8\nAPP 1 GRID 2 2 DIST blocked\n{app2}\n"),
        ),
        (
            3,
            format!("CORES_PER_NODE 4\nDOMAIN 8 8\nAPP 1 GRID 0 2 DIST blocked\n{app2}\n"),
        ),
        (
            3,
            format!("DOMAIN 8 8\n\nAPP 1 GRID 2 2 DIST block-cyclic 0 4\n{app2}\n"),
        ),
    ] {
        let path = dir.join("w.cfg");
        std::fs::write(&path, &cfg).unwrap();
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_insitu"))
            .arg("run")
            .arg(&dag)
            .arg("--config")
            .arg(&path)
            .output()
            .expect("spawn insitu run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{cfg}\n{stderr}");
        assert!(
            stderr.starts_with(&format!("error: config line {line}: ")),
            "{cfg}\n{stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
