//! insitu-perf: the repository's one benchmark.
//!
//! ```text
//! insitu-perf --workload W --seed N --seconds S --trace 0|1 [--out FILE]
//! insitu-perf agree A.jsonl B.jsonl [--bench BENCHMARK.json]
//! insitu-perf list
//! ```
//!
//! `--trace 0` is the end-to-end pass, `--trace 1` the traced pass that
//! reports the per-layer metrics and writes a chrome trace. Either
//! prints every metric by name with its unit, then — as the last line
//! of standard output — one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`. See `benchmark/README.md`.

mod census;
mod clock;
mod drive;
mod e2e;
mod layers;
mod oracle;
mod report;
mod span;
mod stats;
mod sys;
mod trace;
mod workloads;

use report::Metric;
use std::io::Write;
use std::process::ExitCode;

/// Parsed command line of a measuring invocation.
struct Args {
    workload: &'static workloads::Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: Option<String>,
    /// `reference` mode only.
    iters: u64,
    sets: Vec<(String, String)>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 8.0f64;
    let mut traced = false;
    let mut out = None;
    let mut iters = 1u64;
    let mut sets = Vec::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    workloads::find(name).ok_or_else(|| format!("unknown workload '{name}'"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "bad --seconds")?;
                if !(seconds > 0.0 && seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out" => out = Some(value()?.clone()),
            "--iters" => iters = value()?.parse().map_err(|_| "bad --iters")?,
            "--set" => {
                let (k, v) = value()?.split_once('=').ok_or("--set needs key=value")?;
                sets.push((k.to_string(), v.to_string()));
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        traced,
        out,
        iters,
        sets,
    })
}

/// `insitu-perf reference ...`: the child that computes a set-up
/// reference and prints it as one JSON line.
fn reference_main(args: &Args) -> Result<(), String> {
    let extra: Vec<(&str, &str)> = args
        .sets
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .collect();
    let input = args.workload.compile(args.seed, args.iters, &extra)?;
    let reference = drive::reference_run(&input)?;
    println!("{}", report::reference_to_json(&reference));
    Ok(())
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        let detail = match m.samples {
            Some(s) => format!("  (n={} q1={:.4} q3={:.4})", s.n, s.q1, s.q3),
            None => String::new(),
        };
        println!("{:<44} {:>16.6} {}{detail}", m.name, m.value, m.unit);
    }
}

/// Hygiene guard, checked after the workload's last run: nothing this
/// process started may survive it.
fn leftovers() -> Vec<String> {
    let mut found = sys::shm_segments_of(std::process::id());
    // Children are reaped by pid as each run ends; a zombie or live
    // child here means a driver lost track of one.
    // The kernel lists children per spawning thread.
    for task in std::fs::read_dir("/proc/self/task")
        .into_iter()
        .flatten()
        .flatten()
    {
        if let Ok(children) = std::fs::read_to_string(task.path().join("children")) {
            found.extend(
                children
                    .split_whitespace()
                    .map(|pid| format!("child process {pid}")),
            );
        }
    }
    found
}

fn measure_main(args: &Args) -> Result<bool, String> {
    let w = args.workload;
    let load_at_start = sys::loadavg_1m();
    println!(
        "insitu-perf: workload {} seed {} seconds {} trace {} (K={}, nproc={})",
        w.name,
        args.seed,
        args.seconds,
        args.traced as u8,
        w.k,
        sys::nproc()
    );
    println!("why: {}", w.why);
    let (attempted, mut failed, mut failures, metrics) = if args.traced {
        let t = trace::run(w, args.seed, args.seconds)?;
        (t.attempted, t.failed, t.failures, t.metrics)
    } else {
        let (prepared, setup_s) = e2e::prepare_timed(w, args.seed)?;
        let samples = e2e::measure(&prepared, args.seconds);
        drop(prepared); // shuts the service down before the hygiene check
        let metrics = e2e::metrics(w.k, &setup_s, &samples);
        println!("as measured, before the times below were restated at the reference clock:");
        print_metrics(&e2e::as_measured(&samples));
        if let Some((p, v)) =
            stats::tail(&samples.full.iter().map(|c| c.wall_ms).collect::<Vec<_>>())
        {
            println!(
                "run_ms tail: p{p} = {v:.3} ms over {} runs",
                samples.full.len()
            );
        }
        (samples.attempted, samples.failed, samples.failures, metrics)
    };
    let left = leftovers();
    if !left.is_empty() {
        failed += 1;
        failures.push(format!("left behind: {}", left.join(", ")));
    }
    print_metrics(&metrics);
    println!("runs_attempted {attempted}  runs_failed {failed}");
    for why in &failures {
        eprintln!("failed run: {why}");
    }
    if let Some(path) = &args.out {
        let line = report::record_line(
            w.name,
            args.seed,
            args.seconds,
            args.traced,
            w.k,
            load_at_start,
            attempted,
            failed,
            &metrics,
        );
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("cannot open {path}: {e}"))?;
        writeln!(f, "{line}").map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    println!("{}", report::contract_line(attempted, failed, &metrics));
    Ok(failed == 0)
}

fn agree_main(args: &[String]) -> Result<bool, String> {
    let mut paths = Vec::new();
    let mut bench = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--bench" {
            bench = it.next().ok_or("--bench needs a path")?.clone();
        } else {
            paths.push(a.clone());
        }
    }
    let [a, b] = paths.as_slice() else {
        return Err("agree needs exactly two result files".into());
    };
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"));
    let (table, ok) = report::agree(&read(&bench)?, &read(a)?, &read(b)?)?;
    print!("{table}");
    println!(
        "{}",
        if ok {
            "every pair agrees"
        } else {
            "some pairs are unresolved"
        }
    );
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("agree") => agree_main(&args[1..]),
        Some("list") => {
            for w in workloads::WORKLOADS {
                println!("{}", w.name);
            }
            Ok(true)
        }
        Some("reference") => parse_args(&args[1..])
            .and_then(|a| reference_main(&a))
            .map(|()| true),
        _ => parse_args(&args).and_then(|a| measure_main(&a).map(|_| true)),
    };
    match result {
        // A measuring invocation exits 0 even when runs failed: the
        // result line says so (`correct: false`).
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("insitu-perf: {e}");
            ExitCode::from(2)
        }
    }
}
