//! Command line of the arvis benchmark.
//!
//! ```text
//! perfbench --workload <uncoupled_fleet|tenant_cell|encoded_pipeline|all>
//!           [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! Prints a report, then as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics` (the end-to-end metrics,
//! or with `--trace 1` the per-layer ones). `all` runs every workload in
//! turn, each with its own report and result line. Exits 1 when a
//! correctness check fails and 2 on a usage error.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::sys::{self, CpuTicks};
use perfbench::{clock, fmt_value, result_json, Size, Workload, END_TO_END, PER_LAYER};

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <uncoupled_fleet|tenant_cell|encoded_pipeline|all> \
         [--seed <n>] [--seconds <s>] [--trace <0|1>]"
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, String> {
    let mut workloads = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if value == "all" => workloads = Some(Workload::ALL.to_vec()),
            "--workload" => {
                let w =
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?;
                workloads = Some(vec![w]);
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad seconds {value}"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workloads: workloads.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Where the traced run writes its spans: beside the build output.
fn trace_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from)
        .join("perfbench-traces")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => return usage(&msg),
    };
    let mut all_passed = true;
    for &workload in &args.workloads {
        all_passed &= run_one(workload, &args);
    }
    if all_passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Runs and reports one workload; `true` when every check passed.
fn run_one(workload: Workload, args: &Args) -> bool {
    let start = clock::now_ns();
    let ticks = CpuTicks::read();
    let outcome = perfbench::run(
        workload,
        args.seed,
        args.seconds,
        args.trace,
        Size::Full,
        Some(&trace_dir()),
    );
    let steal = ticks.steal_frac_until(&CpuTicks::read());
    let defs = if args.trace { PER_LAYER } else { END_TO_END };

    println!(
        "perfbench {} seed={} seconds={} trace={} wall_s={:.3}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        clock::secs(clock::now_ns() - start)
    );
    println!(
        "provenance commit={} rustc=\"{}\" features={:?} available_parallelism={} nproc={} seed={} steal_frac={:.4}",
        sys::commit(),
        sys::rustc(),
        sys::features(),
        sys::available_parallelism(),
        sys::nproc(),
        args.seed,
        steal
    );
    for note in &outcome.notes {
        println!("note {note}");
    }
    for d in defs {
        let v = outcome.metrics.get(d.name).copied().unwrap_or(0.0);
        println!("metric {:<34} {:>24} {}", d.name, fmt_value(v), d.unit);
    }
    for failure in &outcome.failures {
        println!("check failed: {failure}");
    }
    println!("{}", result_json(&outcome, defs));
    outcome.failed == 0 && outcome.attempted > 0
}
