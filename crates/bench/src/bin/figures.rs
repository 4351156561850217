//! Regenerate the paper's evaluation figures at its configuration —
//! the source of EXPERIMENTS.md's measured numbers. Prints each table
//! and writes its `BENCH_<name>.json` (to `BENCH_OUT_DIR` or the
//! current directory); exits non-zero if any file cannot be written.
//!
//! ```text
//! cargo run --release -p insitu-bench --bin figures              # the full report
//! cargo run --release -p insitu-bench --bin figures -- --only 10 # one figure (8..16, extra)
//! ```

use insitu_bench::emit::{Figure, FIGURES};
use insitu_bench::Size;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let selected: Vec<&Figure> = match args.as_slice() {
        [] => FIGURES.iter().collect(),
        [flag, id] if flag == "--only" => match FIGURES.iter().find(|f| f.id == id) {
            Some(fig) => vec![fig],
            None => {
                let ids: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
                eprintln!("error: no figure '{id}' (valid: {})", ids.join(", "));
                return ExitCode::from(2);
            }
        },
        _ => {
            eprintln!("usage: figures [--only <id>]");
            return ExitCode::from(2);
        }
    };
    if args.is_empty() {
        println!("=== Reproduction report: all evaluation figures ===");
        println!("(modeled executor; ledger semantics verified byte-exact against the");
        println!(" threaded executor by tests/integration_equivalence.rs)\n");
    }
    let mut failed = false;
    for (i, fig) in selected.iter().enumerate() {
        if i > 0 {
            println!();
        }
        match fig.emit(Size::paper()) {
            Ok(path) => println!("wrote {}", path.display()),
            Err(err) => {
                eprintln!("error: could not write BENCH_{}.json: {err}", fig.name);
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
