//! Command-line entry point of the leakctl benchmark.
//!
//! ```text
//! perfbench --workload <sched-3072|building-256|paper-table1>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints report lines (machine fingerprint, output digest, sample
//! counts, breakdowns) and ends with one JSON line holding `correct`,
//! `attempted`, `failed` and the metrics: every end-to-end metric for
//! `--trace 0`, every per-layer metric for `--trace 1`. Exits nonzero
//! when an operation failed or an output check did not hold.

use std::process::ExitCode;
use std::time::Duration;

use perfbench::building::BuildingWorkload;
use perfbench::drive::{self, Workload};
use perfbench::paper::Paper;
use perfbench::report::{result_json, Fingerprint};
use perfbench::sched::Sched;
use perfbench::{RunArgs, END_TO_END, PER_LAYER, WORKLOADS};

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("missing value for {flag}"));
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<u64>().ok().filter(|s| *s > 0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("every flag needs a valid value");
    };
    let run_args = RunArgs {
        seed,
        seconds: Duration::from_secs(seconds),
        trace,
    };
    let chosen: Box<dyn Workload> = match workload.as_str() {
        "sched-3072" => Box::new(Sched { seed }),
        "building-256" => Box::new(BuildingWorkload { seed }),
        "paper-table1" => Box::new(Paper { seed }),
        other => return usage(&format!("unknown workload {other}")),
    };

    println!("{}", Fingerprint::collect(drive::PLAN).line());
    println!(
        "# workload={workload} seed={seed} seconds={seconds} trace={}",
        u8::from(trace)
    );
    let (checks, measured) = drive::run(chosen.as_ref(), &run_args);
    for line in &measured.notes {
        println!("{line}");
    }
    let selected = if trace {
        measured.select(&PER_LAYER, true)
    } else {
        measured.select(&END_TO_END, false)
    };
    for m in &selected.metrics {
        println!("# {} = {:?} {}", m.name, m.value, m.unit);
    }
    println!(
        "# error_rate = {:?} ({} of {} failed)",
        checks.error_rate(),
        checks.failed,
        checks.attempted
    );
    let finite = selected.metrics.iter().all(|m| m.value.is_finite());
    let correct =
        checks.failed == 0 && selected.missing.is_empty() && finite && checks.attempted > 0;
    if !selected.missing.is_empty() {
        eprintln!("perfbench: no value for {}", selected.missing.join(", "));
    }
    println!(
        "{}",
        result_json(
            correct,
            checks.attempted.max(1),
            checks.failed,
            &selected.metrics
        )
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
