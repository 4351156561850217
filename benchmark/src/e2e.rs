//! The end-to-end pass: set-up (several times, the median is
//! `setup_s`), then timed full runs interleaved with one-iteration
//! runs for `--seconds`, each checked by the oracle off the clock.

use crate::clock;
use crate::drive::{self, Cost, Finished, Hung, Service, ServiceRun, Submission};
use crate::oracle::{self, Observation, Reference};
use crate::report::Metric;
use crate::stats;
use crate::sys;
use crate::workloads::{Compiled, Mode, Workload, SERVICE_CLIENTS};
use insitu_svc::RpcClient;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Times set-up is repeated; `setup_s` is the median.
pub const SETUPS: usize = 5;
/// Fewest rounds a timed section measures, however short `--seconds`.
const MIN_ROUNDS: usize = 3;
/// One-iteration runs per full run in a round: they are cheap, and
/// `launch_ms_p50` needs the samples more than `run_ms_p50` misses the
/// time.
const SINGLES_PER_ROUND: usize = 2;
/// Service workload: submissions per measured second, full and
/// one-iteration phase. The counts are a function of `--seconds` alone
/// (not of how fast the service is) because the service keeps every
/// finished run's artifacts, so its peak memory grows with the number
/// of runs; sized so both phases together take about `--seconds`.
const SERVICE_FULL_PER_S: f64 = 20.0;
const SERVICE_SINGLE_PER_S: f64 = 20.0;
/// Slices each service phase is cut into; see [`measure`].
const SERVICE_SLICES: usize = 5;

/// One input with its reference: what a run is given and judged by.
#[derive(Clone)]
pub struct Case {
    /// The compiled input.
    pub input: Arc<Compiled>,
    /// The single-process reference of that input.
    pub reference: Reference,
}

/// Everything set-up produces.
pub struct Prepared {
    /// The workload.
    pub workload: &'static Workload,
    /// Full (`K`-iteration) and one-iteration cases. The service
    /// workload has one pair per sim grid, other workloads one pair.
    pub cases: Vec<(Case, Case)>,
    /// Service submissions in seeded order: `(case index, priority)`.
    pub order: Vec<(usize, u32)>,
    /// Nodes the workflow maps to (= joiner processes).
    pub nodes: u32,
    /// The shipped binary (distributed and service modes).
    pub insitu_bin: Option<PathBuf>,
    /// The running service (service mode).
    pub service: Option<Service>,
}

/// Compute a reference in a child `insitu-perf reference` process, so
/// the whole-workflow single-process run neither inflates this
/// process's peak resident set nor the joiners' (a spawned child starts
/// from its parent's high-water mark).
fn reference_in_child(
    w: &Workload,
    seed: u64,
    iterations: u64,
    extra: &[(&str, &str)],
) -> Result<Reference, String> {
    let me = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(me);
    cmd.args(["reference", "--workload", w.name])
        .args(["--seed", &seed.to_string()])
        .args(["--iters", &iterations.to_string()]);
    for (k, v) in extra {
        cmd.args(["--set", &format!("{k}={v}")]);
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run the reference child: {e}"))?;
    if !out.status.success() {
        return Err(format!("reference child failed with {}", out.status));
    }
    let text = String::from_utf8(out.stdout).map_err(|e| e.to_string())?;
    crate::report::reference_from_json(text.trim())
}

fn case(
    w: &'static Workload,
    seed: u64,
    iterations: u64,
    extra: &[(&str, &str)],
) -> Result<Case, String> {
    let input = w.compile(seed, iterations, extra)?;
    let reference = match w.mode {
        Mode::Threaded => drive::reference_run(&input)?,
        _ => reference_in_child(w, seed, iterations, extra)?,
    };
    Ok(Case {
        input: Arc::new(input),
        reference,
    })
}

impl Prepared {
    fn subscribed(&self) -> bool {
        !self.cases[0].0.input.scenario.subscriptions.is_empty()
    }

    /// Judge a finished run against `case`'s reference.
    pub fn judge(&self, case: &Case, seen: &Result<Observation, String>) -> Result<(), String> {
        match seen {
            Err(why) => Err(why.clone()),
            Ok(o) => oracle::check(self.workload.mode, self.subscribed(), &case.reference, o),
        }
    }

    /// One run of `case` through the workload's entry point (threaded
    /// and distributed modes).
    pub fn run(&self, case: &Case) -> Result<Finished, Hung> {
        match self.workload.mode {
            Mode::Threaded => drive::threaded_run(&case.input, None),
            Mode::Distrib { p2p, shm } => drive::distrib_run(
                self.insitu_bin
                    .as_deref()
                    .expect("set-up located the binary"),
                &case.input,
                self.nodes,
                p2p,
                shm,
            ),
            Mode::Service => unreachable!("the service workload runs a closed loop"),
        }
    }

    fn submission(&self, slot: usize, full: bool) -> (Submission, &Case) {
        let (idx, priority) = self.order[slot % self.order.len()];
        let pair = &self.cases[idx];
        let case = if full { &pair.0 } else { &pair.1 };
        let sub = Submission {
            name: format!("{}-{slot}", self.workload.name),
            input: Arc::clone(&case.input),
            priority,
        };
        (sub, case)
    }
}

/// Set-up: compile the template with the seeded overrides, compute the
/// single-process reference ledgers, start the service if the workload
/// has one, and push one one-iteration run through the real path.
pub fn prepare(w: &'static Workload, seed: u64) -> Result<Prepared, String> {
    let mut cases = Vec::new();
    let mut order = Vec::new();
    if w.mode == Mode::Service {
        let mut grids: Vec<&str> = Vec::new();
        for (grid, priority) in w.service_order(seed) {
            let idx = grids.iter().position(|g| *g == grid).unwrap_or_else(|| {
                grids.push(grid);
                grids.len() - 1
            });
            order.push((idx, priority));
        }
        for grid in grids {
            let extra = [("sim_grid", grid)];
            cases.push((case(w, seed, w.k, &extra)?, case(w, seed, 1, &extra)?));
        }
    } else {
        cases.push((case(w, seed, w.k, &[])?, case(w, seed, 1, &[])?));
    }
    let nodes = insitu::map_scenario(&cases[0].0.input.scenario, drive::STRATEGY)
        .machine
        .nodes;
    let insitu_bin = match w.mode {
        Mode::Threaded => None,
        _ => Some(drive::insitu_binary()?),
    };
    let service = match w.mode {
        Mode::Service => Some(Service::start(
            insitu_bin.as_deref().expect("located above"),
        )?),
        _ => None,
    };
    let prepared = Prepared {
        workload: w,
        cases,
        order,
        nodes,
        insitu_bin,
        service,
    };
    // Warm-up through the real path; judged, so a broken set-up is
    // reported here rather than as a wall of failed runs.
    let warm = match &prepared.service {
        Some(svc) => {
            let mut client = RpcClient::connect(&svc.addr, Duration::from_secs(10))?;
            let (sub, case) = prepared.submission(0, false);
            let (_, seen) = drive::service_run(&mut client, &sub);
            prepared.judge(case, &seen)
        }
        None => {
            let case = &prepared.cases[0].1;
            let finished = prepared.run(case).map_err(|h| h.0)?;
            prepared.judge(case, &finished.seen)
        }
    };
    warm.map_err(|why| format!("warm-up run failed: {why}"))?;
    Ok(prepared)
}

/// CPU this process, the children it has reaped and the running service
/// have used so far, milliseconds: everything a set-up spends.
fn setup_cpu_ms(service: Option<&Service>) -> f64 {
    sys::self_cpu_ms() + sys::reaped_children_cpu_ms() + service.map_or(0.0, Service::cpu_ms)
}

/// Set up [`SETUPS`] times; returns the last set-up and every set-up's
/// duration in seconds at the reference clock.
pub fn prepare_timed(w: &'static Workload, seed: u64) -> Result<(Prepared, Vec<f64>), String> {
    let mut durations = Vec::new();
    let mut last: Option<Prepared> = None;
    let mut before = clock::calibrate();
    for _ in 0..SETUPS {
        // The previous set-up's service is shut down before the next
        // one starts, off the clock.
        drop(last.take());
        let cpu0 = setup_cpu_ms(None);
        let t0 = Instant::now();
        let prepared = prepare(w, seed)?;
        let wall_s = t0.elapsed().as_secs_f64();
        let cpu_ms = setup_cpu_ms(prepared.service.as_ref()) - cpu0;
        let after = clock::calibrate();
        let busy = clock::busy_share(cpu_ms, wall_s * 1e3);
        durations.push(clock::at_reference(wall_s, busy, (before + after) / 2.0));
        before = after;
        last = Some(prepared);
    }
    Ok((last.expect("SETUPS >= 1"), durations))
}

/// The timed section's samples.
#[derive(Default)]
pub struct Samples {
    /// Cost of every full run that passed the oracle.
    pub full: Vec<Cost>,
    /// Cost of every one-iteration run that passed the oracle.
    pub single: Vec<Cost>,
    /// Runs started.
    pub attempted: u64,
    /// Runs that errored, hung, or failed the oracle.
    pub failed: u64,
    /// Why, first few.
    pub failures: Vec<String>,
    /// Service-mode per-run RPC measurements (full phase).
    pub service_runs: Vec<ServiceRun>,
}

impl Samples {
    fn note_failure(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(why);
        }
    }

    fn record(&mut self, full: bool, cost: Cost, verdict: Result<(), String>) {
        self.attempted += 1;
        let cost = Cost {
            busy: clock::busy_share(cost.cpu_ms, cost.wall_ms),
            ..cost
        };
        match verdict {
            Ok(()) if full => self.full.push(cost),
            Ok(()) => self.single.push(cost),
            Err(why) => self.note_failure(why),
        }
    }
}

/// Timed section of the threaded and distributed workloads: rounds of
/// one full run and [`SINGLES_PER_ROUND`] one-iteration runs until
/// `seconds` have passed. Once a run has failed the minimum round count
/// no longer holds, so runs failing at their deadline cannot add up.
fn measure_rounds(p: &Prepared, seconds: f64, out: &mut Samples) {
    let (full, single) = &p.cases[0];
    let t0 = Instant::now();
    let mut rounds = 0;
    // The clock is read between runs; a run is paired with the mean of
    // the readings on either side of it.
    let mut before = clock::calibrate();
    while (rounds < MIN_ROUNDS && out.failed == 0) || t0.elapsed().as_secs_f64() < seconds {
        let singles = std::iter::repeat_n((false, single), SINGLES_PER_ROUND);
        for (is_full, case) in std::iter::once((true, full)).chain(singles) {
            match p.run(case) {
                Ok(finished) => {
                    let after = clock::calibrate();
                    let cost = Cost {
                        calib_ms: (before + after) / 2.0,
                        ..finished.cost
                    };
                    before = after;
                    let verdict = p.judge(case, &finished.seen);
                    out.record(is_full, cost, verdict);
                }
                Err(Hung(why)) => {
                    // The hung run cannot be cancelled from here and
                    // would disturb every later one: stop measuring.
                    out.attempted += 1;
                    out.note_failure(why);
                    return;
                }
            }
        }
        rounds += 1;
    }
}

/// One phase of the service workload's closed loop: `count` submissions
/// shared by [`SERVICE_CLIENTS`] clients, each sending its next only
/// after its previous run reached a terminal state.
fn service_phase(p: &Prepared, full: bool, count: usize, out: &mut Samples) {
    let svc = p.service.as_ref().expect("service mode");
    let next = AtomicUsize::new(0);
    let shared = Mutex::new((Vec::<ServiceRun>::new(), Vec::new()));
    let calib_before = clock::calibrate();
    let t0 = Instant::now();
    let cpu0 = sys::self_cpu_ms() + svc.cpu_ms();
    std::thread::scope(|scope| {
        for _ in 0..SERVICE_CLIENTS {
            scope.spawn(|| {
                let mut client = match RpcClient::connect(&svc.addr, Duration::from_secs(10)) {
                    Ok(c) => c,
                    Err(e) => {
                        shared
                            .lock()
                            .unwrap()
                            .1
                            .push(format!("client cannot connect: {e}"));
                        return;
                    }
                };
                loop {
                    let slot = next.fetch_add(1, Ordering::Relaxed);
                    if slot >= count {
                        return;
                    }
                    let (sub, case) = p.submission(slot, full);
                    let (m, seen) = drive::service_run(&mut client, &sub);
                    let verdict = p.judge(case, &seen);
                    let mut g = shared.lock().unwrap();
                    match verdict {
                        Ok(()) => g.0.push(m),
                        Err(why) => g.1.push(why),
                    }
                }
            });
        }
    });
    let cpu_ms = sys::self_cpu_ms() + svc.cpu_ms() - cpu0;
    let phase_ms = t0.elapsed().as_secs_f64() * 1e3;
    let calib_ms = (calib_before + clock::calibrate()) / 2.0;
    let (runs, failures) = shared.into_inner().unwrap();
    let started = next.load(Ordering::Relaxed).min(count);
    out.attempted += started as u64;
    for why in failures {
        out.note_failure(why);
    }
    // CPU cannot be attributed to one of two concurrent runs: every run
    // of the phase is charged the phase's mean, and is as busy as the
    // phase was. The service outlives the runs, so `measure` reads its
    // peak once, after the last phase.
    let cpu_per_run = cpu_ms / started.max(1) as f64;
    let costs = runs.iter().map(|m| Cost {
        wall_ms: m.latency_ms,
        cpu_ms: cpu_per_run,
        peak_rss_mib: 0.0,
        busy: clock::busy_share(cpu_ms, phase_ms),
        calib_ms,
    });
    if full {
        out.full.extend(costs);
        out.service_runs.extend(runs);
    } else {
        out.single.extend(costs);
    }
}

/// Run the timed section.
pub fn measure(p: &Prepared, seconds: f64) -> Samples {
    let mut out = Samples::default();
    if p.workload.mode == Mode::Service {
        // Full and one-iteration phases alternate in slices, so that the
        // two medians `iter_ms` is the difference of see the same
        // stretch of the host's time (as the other workloads' rounds
        // do) and each slice is short enough for one clock reading.
        let count = |per_s: f64| {
            let per_slice = (per_s * seconds / SERVICE_SLICES as f64).round() as usize;
            per_slice.max(SERVICE_CLIENTS * 2)
        };
        for _ in 0..SERVICE_SLICES {
            service_phase(p, true, count(SERVICE_FULL_PER_S), &mut out);
            service_phase(p, false, count(SERVICE_SINGLE_PER_S), &mut out);
        }
        let svc = p.service.as_ref().expect("service mode");
        let own_peak = sys::peak_rss_mib(std::process::id()).unwrap_or(0.0);
        let peak_rss_mib = own_peak.max(svc.peak_rss_mib());
        for cost in out.full.iter_mut().chain(&mut out.single) {
            cost.peak_rss_mib = peak_rss_mib;
        }
    } else {
        measure_rounds(p, seconds, &mut out);
    }
    out
}

fn wall_at_reference(c: &Cost) -> f64 {
    clock::at_reference(c.wall_ms, c.busy, c.calib_ms)
}

/// CPU time takes the run's factor too: how much of it a slow stretch
/// inflates goes with how busy the run keeps the cores (`clock`).
fn cpu_at_reference(c: &Cost) -> f64 {
    clock::at_reference(c.cpu_ms, c.busy, c.calib_ms)
}

/// The end-to-end metrics, in `BENCHMARK.json` order, each median with
/// the samples behind it. Times are at the reference clock.
pub fn metrics(k: u64, setup_s: &[f64], s: &Samples) -> Vec<Metric> {
    let col = |v: &[Cost], f: fn(&Cost) -> f64| -> Vec<f64> { v.iter().map(f).collect() };
    let median_of = |name: &str, samples: Vec<f64>, unit: &str| Metric {
        samples: stats::Summary::of(&samples),
        ..Metric::new(name, stats::median(&samples), unit)
    };
    let run = median_of("run_ms_p50", col(&s.full, wall_at_reference), "ms");
    let launch = median_of("launch_ms_p50", col(&s.single, wall_at_reference), "ms");
    let run_cpu = stats::median(&col(&s.full, cpu_at_reference));
    let launch_cpu = stats::median(&col(&s.single, cpu_at_reference));
    let iter_ms = stats::per_iteration(run.value, launch.value, k);
    vec![
        run,
        launch,
        Metric::new("iter_ms", iter_ms, "ms"),
        Metric::new(
            "cpu_ms_per_iter",
            stats::per_iteration(run_cpu, launch_cpu, k),
            "ms",
        ),
        median_of("peak_rss_mib", col(&s.full, |c| c.peak_rss_mib), "MiB"),
        median_of("setup_s", setup_s.to_vec(), "s"),
    ]
}

/// What the clock read and what the runs took before they were restated
/// at the reference clock: medians, for the human-readable report.
pub fn as_measured(s: &Samples) -> Vec<Metric> {
    let col = |v: &[Cost], f: fn(&Cost) -> f64| -> Vec<f64> { v.iter().map(f).collect() };
    let median_of = |name: &str, samples: Vec<f64>| Metric {
        samples: stats::Summary::of(&samples),
        ..Metric::new(name, stats::median(&samples), "ms")
    };
    let all: Vec<Cost> = s.full.iter().chain(&s.single).copied().collect();
    vec![
        median_of("host.calib_ms", col(&all, |c| c.calib_ms)),
        median_of("wall.run_ms_p50", col(&s.full, |c| c.wall_ms)),
        median_of("wall.launch_ms_p50", col(&s.single, |c| c.wall_ms)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    /// The oracle's negative test: the same runs that pass against the
    /// true reference all count as failed against a corrupted one.
    #[test]
    fn corrupted_reference_fails_every_run() {
        let w = workloads::find("insitu_blockcyclic").unwrap();
        let clean = case(w, 1, 2, &[]).unwrap();
        let mut p = Prepared {
            workload: w,
            cases: vec![(clean.clone(), clean.clone())],
            order: Vec::new(),
            nodes: 1,
            insitu_bin: None,
            service: None,
        };
        let mut ok = Samples::default();
        measure_rounds(&p, 0.0, &mut ok);
        assert_eq!(ok.attempted, (MIN_ROUNDS * (1 + SINGLES_PER_ROUND)) as u64);
        assert_eq!(ok.failed, 0, "{:?}", ok.failures);

        let mut corrupted = clean;
        corrupted.reference.ledger_json = corrupted.reference.ledger_json.replacen('1', "2", 1);
        p.cases = vec![(corrupted.clone(), corrupted)];
        let mut bad = Samples::default();
        measure_rounds(&p, 0.0, &mut bad);
        // The first failure lifts the minimum: one round, all failed.
        assert_eq!(bad.attempted, (1 + SINGLES_PER_ROUND) as u64);
        assert_eq!(bad.failed, bad.attempted);
        assert!(bad.full.is_empty() && bad.single.is_empty());
        assert!(
            bad.failures[0].contains("ledger differs"),
            "{:?}",
            bad.failures
        );
    }
}
