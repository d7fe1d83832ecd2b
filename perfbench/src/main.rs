//! The repository's benchmark: Table 2 of the paper through the analyzer,
//! and generated streams of small problems through `xsat batch`'s engine
//! path and the TCP tier.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper-untyped|paper-typed|batch|serve|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` (the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`). The process exits with code 1 on any wrong verdict and 2
//! on bad arguments. See `README.md` beside this file.

#![forbid(unsafe_code)]

mod gen;
mod paper;
mod reference;
mod report;
mod service;
mod stats;

use report::Run;

/// The workloads, in the order `all` runs them.
const WORKLOADS: [&str; 4] = ["paper-untyped", "paper-typed", "batch", "serve"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {WORKLOADS:?} or all"
        ));
    }
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// `--workload all`: each workload in its own process (so each reports
/// its own peak RSS), one after another.
fn run_all(args: &Args) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return 2;
        }
    };
    let mut code = 0;
    for w in WORKLOADS {
        println!("== {w}");
        let status = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => code = s.code().unwrap_or(1).max(1),
            Err(e) => {
                eprintln!("perfbench: {w}: {e}");
                code = 2;
            }
        }
    }
    code
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.workload == "all" {
        std::process::exit(run_all(&args));
    }
    // The run must happen from a checkout of the repository.
    if !std::path::Path::new("crates/analyzer").is_dir() {
        eprintln!("perfbench: run from the repository root");
        std::process::exit(2);
    }
    let mut run = Run::default();
    let seeds = match args.workload.as_str() {
        "paper-untyped" => {
            paper::run(&[1, 2, 3], args.seed, args.seconds, args.trace, &mut run);
            format!("order={}", args.seed)
        }
        "paper-typed" => {
            paper::run(&[4, 5, 6], args.seed, args.seconds, args.trace, &mut run);
            format!("order={}", args.seed)
        }
        "batch" => {
            service::run_batch(args.seed, args.seconds, args.trace, &mut run);
            format!("stream={}", args.seed)
        }
        _ => {
            service::run_serve(args.seed, args.seconds, args.trace, &mut run);
            format!(
                "streams=seed^0x5e7e0000,seed^0x5e7e0001 (seed={})",
                args.seed
            )
        }
    };
    println!(
        "{}",
        report::provenance(&args.workload, args.seed, args.seconds, args.trace, &seeds)
    );
    for line in &run.notes {
        println!("{line}");
    }
    let failed_share = run.failed as f64 / run.attempted.max(1) as f64;
    println!(
        "checked: attempted={} failed={} failed_share={failed_share}",
        run.attempted, run.failed
    );
    for f in &run.failures {
        println!("FAILED: {f}");
    }
    for (name, value, unit) in &run.metrics.0 {
        println!("metric {name} = {value} {unit}");
    }
    println!("{}", run.result_line());
    if !run.correct() {
        std::process::exit(1);
    }
}
