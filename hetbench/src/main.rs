//! The hetgrid benchmark: four workloads that drive the workspace's
//! public entry points end to end, check every output, and report
//! end-to-end metrics (`--trace 0`) or a traced per-layer breakdown
//! (`--trace 1`).
//!
//! Usage, from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path hetbench/Cargo.toml -- \
//!     --workload <hnow-factor|bulk-mm|serve-open|solve-exact> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The metric names and units come from `BENCHMARK.json` in the working
//! directory. The last line of standard output is one JSON object with
//! the keys `correct`, `attempted`, `failed` and `metrics`. A
//! human-readable table goes to standard error, and a run report with the
//! run's metadata (and, when traced, a Chrome trace) is written under
//! `.bench_out/`.

mod exact;
mod grid;
mod latency;
mod report;
mod serve;
mod spans;

use report::Report;
use std::process::ExitCode;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Sets this thread's timer slack to 1 ns; threads spawned later
/// inherit it. The default slack (50 us) lets the kernel end a sleep late
/// to batch wake-ups, which would add to every emulated message latency
/// (`latency.rs`) and make every paced arrival late (`serve.rs`).
#[cfg(target_os = "linux")]
fn tighten_timer_slack() {
    use std::os::raw::{c_int, c_ulong};
    const PR_SET_TIMERSLACK: c_int = 29;
    extern "C" {
        fn prctl(option: c_int, ...) -> c_int;
    }
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument and touches
    // only the calling thread's scheduling state.
    if unsafe { prctl(PR_SET_TIMERSLACK, 1 as c_ulong) } != 0 {
        eprintln!("hetbench: could not set the timer slack; sleeps may overshoot");
    }
}

#[cfg(not(target_os = "linux"))]
fn tighten_timer_slack() {}

fn main() -> ExitCode {
    tighten_timer_slack();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hetbench: {e}");
            return ExitCode::from(2);
        }
    };
    let metrics = match report::load_metrics() {
        Ok(m) => m,
        Err(e) => {
            eprintln!("hetbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::new(&args, metrics);
    match args.workload.as_str() {
        "hnow-factor" => grid::run(&args, grid::Kind::HnowFactor, &mut report),
        "bulk-mm" => grid::run(&args, grid::Kind::BulkMm, &mut report),
        "serve-open" => serve::run(&args, &mut report),
        "solve-exact" => exact::run(&args, &mut report),
        other => {
            eprintln!("hetbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    }
    report.finish(&args);
    ExitCode::SUCCESS
}
