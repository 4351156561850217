//! The correctness oracle every timed run is checked against, off the
//! clock: the merged transfer ledger must be byte-identical to the
//! single-process `run_threaded` reference computed in set-up, no cell
//! may fail verification, no task may report an error, the number of
//! completed gets must be the reference's, and the transport counters
//! must show the run used the data plane the workload is named after.

use crate::workloads::Mode;
use std::collections::BTreeMap;

/// What set-up computed with `insitu::run_threaded` for one input.
#[derive(Clone, Debug, PartialEq)]
pub struct Reference {
    /// `LedgerSnapshot::to_json().render()` of the reference run.
    pub ledger_json: String,
    /// Gets the reference run completed.
    pub gets: u64,
}

/// What one run produced.
#[derive(Clone, Debug, Default)]
pub struct Observation {
    /// Rendered merged ledger.
    pub ledger_json: String,
    /// Cells that failed verification.
    pub verify_failures: u64,
    /// Task errors, rendered.
    pub errors: Vec<String>,
    /// Completed gets; `None` where the entry point does not report it
    /// (the service's `RunReport`).
    pub gets: Option<u64>,
    /// Hub counters plus the sum of every joiner's shipped counters;
    /// `None` where the run has no wire (`run_threaded`, the service).
    pub counters: Option<BTreeMap<String, u64>>,
}

/// The transport census that defines a workload's mode.
fn check_census(mode: Mode, subscribed: bool, c: &BTreeMap<String, u64>) -> Result<(), String> {
    let get = |k: &str| c.get(k).copied().unwrap_or(0);
    let Mode::Distrib { p2p, shm } = mode else {
        return Ok(());
    };
    if p2p && (get("net.pull_frames_hub") != 0 || get("net.sub_push_hub") != 0) {
        return Err(format!(
            "p2p run relayed {} PullData / {} SubPush frame(s) through the hub",
            get("net.pull_frames_hub"),
            get("net.sub_push_hub")
        ));
    }
    if !p2p && !shm && get("net.pull_frames_hub") + get("net.sub_push_hub") == 0 {
        return Err("star run relayed no data-plane frame through the hub".into());
    }
    if shm && get("net.shm_frames") == 0 {
        return Err("shm run moved no frame through shared memory".into());
    }
    if !shm && get("net.shm_frames") != 0 {
        return Err(format!(
            "--no-shm run moved {} frame(s) through shared memory",
            get("net.shm_frames")
        ));
    }
    if subscribed && get("sub.pushes") == 0 {
        return Err("subscribed run pushed no fragment".into());
    }
    Ok(())
}

/// Check one run. `Err` carries the first reason the run counts as
/// failed.
pub fn check(
    mode: Mode,
    subscribed: bool,
    reference: &Reference,
    seen: &Observation,
) -> Result<(), String> {
    if seen.verify_failures > 0 {
        return Err(format!(
            "{} cell(s) failed verification",
            seen.verify_failures
        ));
    }
    if let Some(e) = seen.errors.first() {
        return Err(format!("{} task error(s), first: {e}", seen.errors.len()));
    }
    if let Some(gets) = seen.gets {
        if gets != reference.gets {
            return Err(format!(
                "{gets} gets completed, the reference run completed {}",
                reference.gets
            ));
        }
    }
    if seen.ledger_json != reference.ledger_json {
        return Err("merged ledger differs from the single-process reference".into());
    }
    if let Some(c) = &seen.counters {
        check_census(mode, subscribed, c)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean() -> (Reference, Observation) {
        let reference = Reference {
            ledger_json: "{\"inter_app\":4096}".into(),
            gets: 8,
        };
        let seen = Observation {
            ledger_json: reference.ledger_json.clone(),
            gets: Some(8),
            ..Observation::default()
        };
        (reference, seen)
    }

    #[test]
    fn clean_run_passes_and_each_defect_fails() {
        let (reference, seen) = clean();
        assert!(check(Mode::Threaded, false, &reference, &seen).is_ok());
        let bad = [
            Observation {
                verify_failures: 1,
                ..seen.clone()
            },
            Observation {
                errors: vec!["timeout".into()],
                ..seen.clone()
            },
            Observation {
                gets: Some(7),
                ..seen.clone()
            },
            Observation {
                ledger_json: "{\"inter_app\":4097}".into(),
                ..seen.clone()
            },
        ];
        for b in &bad {
            assert!(
                check(Mode::Threaded, false, &reference, b).is_err(),
                "{b:?}"
            );
        }
    }

    #[test]
    fn census_pins_each_mode_to_its_data_plane() {
        let (reference, seen) = clean();
        let with = |pairs: &[(&str, u64)]| Observation {
            counters: Some(pairs.iter().map(|&(k, v)| (k.to_string(), v)).collect()),
            ..seen.clone()
        };
        let star = Mode::Distrib {
            p2p: false,
            shm: false,
        };
        let p2p = Mode::Distrib {
            p2p: true,
            shm: false,
        };
        let shm = Mode::Distrib {
            p2p: false,
            shm: true,
        };
        let ok = |m, sub, o: &Observation| check(m, sub, &reference, o).is_ok();
        assert!(ok(star, false, &with(&[("net.pull_frames_hub", 40)])));
        assert!(!ok(star, false, &with(&[])));
        assert!(!ok(
            star,
            false,
            &with(&[("net.pull_frames_hub", 40), ("net.shm_frames", 1)])
        ));
        assert!(ok(p2p, false, &with(&[("net.pull_frames_p2p", 40)])));
        assert!(!ok(p2p, false, &with(&[("net.pull_frames_hub", 1)])));
        assert!(ok(shm, false, &with(&[("net.shm_frames", 9)])));
        assert!(!ok(shm, false, &with(&[("net.pull_frames_hub", 40)])));
        assert!(ok(
            star,
            true,
            &with(&[("net.sub_push_hub", 4), ("sub.pushes", 4)])
        ));
        assert!(!ok(star, true, &with(&[("net.sub_push_hub", 4)])));
    }
}
