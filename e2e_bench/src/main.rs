//! Command line of the end-to-end benchmark:
//!
//! ```text
//! e2e_bench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--tiny] [--window <n>]
//! ```
//!
//! `--window` sets the requests `serve_udp` keeps outstanding (default
//! [`WINDOW`]); it is there for the window sweep that chose the default.
//!
//! Prints each metric with its unit, the run's notes, an `info` line with
//! the run's thread count, and as the last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`.

use e2e_bench::serve_udp::WINDOW;
use e2e_bench::{run_workload, RunOpts, Size, THREADS, WORKLOADS};
use std::process::ExitCode;

fn parse(args: &[String]) -> Result<(String, RunOpts), String> {
    let mut workload = None;
    let mut opts = RunOpts {
        seed: 0,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
        window: WINDOW,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            opts.size = Size::Tiny;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => opts.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => opts.seconds = value.parse().map_err(|e| bad(&e))?,
            "--window" => opts.window = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(opts.seconds.is_finite() && opts.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    if opts.window == 0 {
        return Err("--window must be at least 1".into());
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((workload, opts))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (workload, opts) = match parse(&args) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("e2e_bench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(mut report) = run_workload(&workload, &opts) else {
        eprintln!("e2e_bench: unknown workload {workload}; one of {WORKLOADS:?}");
        return ExitCode::from(2);
    };
    for (m, v) in report.metrics(opts.trace) {
        println!("{:<36} {:>16.4} {}", m.name, v, m.unit);
    }
    for n in &report.notes {
        println!("note: {n}");
    }
    println!("info {{\"threads\": {THREADS}}}");
    println!("{}", report.result_json(opts.trace));
    ExitCode::SUCCESS
}
