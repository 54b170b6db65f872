//! End-to-end benchmark of pharmaverify.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <opc-batch|verify-zipf|federation-sweep|web-rank> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run reports the end-to-end metrics; with
//! `--trace 1` it repeats the timed phase with spans on and reports the
//! per-layer metrics. Either way it checks the program's outputs, prints
//! one line per metric and, as its last line, one JSON object. It exits
//! 1 when a correctness check fails and 2 on bad arguments or when the
//! workload cannot run. `--workload all` runs the four workloads in
//! turn, each in a process of its own, and exits with the worst code.

mod opc;
mod report;
mod serving;
mod stats;
mod trace;
mod webrank;

use report::Outcome;
use std::path::PathBuf;
use std::process::ExitCode;

/// The workloads, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 4] = ["opc-batch", "verify-zipf", "federation-sweep", "web-rank"];

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the timed phase, seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the timed run.
    pub trace: bool,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// Where a traced run writes its spans, relative to the working
/// directory.
pub fn trace_path(args: &Args) -> PathBuf {
    PathBuf::from("perfbench/out").join(format!("trace-{}-seed{}.jsonl", args.workload, args.seed))
}

fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "opc-batch" => opc::run(args),
        "verify-zipf" => serving::run(&serving::ZIPF, args),
        "federation-sweep" => serving::run(&serving::SWEEP, args),
        "web-rank" => webrank::run(args),
        other => Err(format!("unknown workload {other}")),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    match run(&args) {
        Ok(outcome) => {
            outcome.print(&args.workload, args.seed, args.trace);
            if outcome.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("error: {}: {e}", args.workload);
            ExitCode::from(2)
        }
    }
}

/// Runs each workload in a process of its own, so that each reports its
/// own peak memory; exits with the worst child's code.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: cannot find this program: {e}");
            return ExitCode::from(2);
        }
    };
    let mut worst = 0u8;
    for name in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        let code = match status {
            Ok(s) => s.code().map_or(2, |c| u8::try_from(c).unwrap_or(2)),
            Err(e) => {
                eprintln!("error: {name}: {e}");
                2
            }
        };
        worst = worst.max(code);
    }
    ExitCode::from(worst)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse(&argv("--workload web-rank --seed 7 --seconds 10 --trace 1")).unwrap();
        assert_eq!(a.workload, "web-rank");
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, 10.0);
        assert!(a.trace);
        assert!(parse(&argv("--workload nope")).is_err());
        assert!(parse(&argv("--workload all --trace 2")).is_err());
        assert!(parse(&argv("--workload all --seconds")).is_err());
        assert!(parse(&argv("--workload all --seconds 0")).is_err());
    }
}
