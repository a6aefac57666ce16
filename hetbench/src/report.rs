//! Metric bookkeeping, summary statistics and the run's output: the
//! final JSON line on stdout, a table on stderr, and a run report under
//! `.bench_out/`.

use crate::Args;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// A metric's name and unit.
pub type Metric = (String, String);

/// The `end_to_end` and `per_layer` metric lists of `BENCHMARK.json` in
/// the working directory, the one place the metric set is defined.
pub fn load_metrics() -> Result<(Vec<Metric>, Vec<Metric>), String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("reading BENCHMARK.json: {e}"))?;
    let doc = hetgrid_obs::json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = |key: &str| -> Result<Vec<Metric>, String> {
        doc.get(key)
            .and_then(|v| v.as_arr())
            .ok_or(format!("BENCHMARK.json has no {key} list"))?
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(|v| v.as_str()).map(str::to_string);
                field("name")
                    .zip(field("unit"))
                    .ok_or(format!("a {key} entry lacks a name or unit"))
            })
            .collect()
    };
    Ok((list("end_to_end")?, list("per_layer")?))
}

/// The outcome of one run: op counts, correctness, metrics and
/// metadata for the run report.
pub struct Report {
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
    attempted: u64,
    failed: u64,
    /// Cleared by any check that an output or an exact count is wrong.
    correct: bool,
    metrics: BTreeMap<&'static str, f64>,
    meta: Vec<(String, String)>,
    problems: Vec<String>,
}

impl Report {
    pub fn new(args: &Args, (end_to_end, per_layer): (Vec<Metric>, Vec<Metric>)) -> Report {
        let mut r = Report {
            end_to_end,
            per_layer,
            attempted: 0,
            failed: 0,
            correct: true,
            metrics: BTreeMap::new(),
            meta: Vec::new(),
            problems: Vec::new(),
        };
        r.meta_str("workload", &args.workload);
        r.meta_num("seed", args.seed as f64);
        r.meta_num("seconds", args.seconds);
        r.meta_num("trace", if args.trace { 1.0 } else { 0.0 });
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        r.meta_num("nproc", nproc as f64);
        r.meta_num("pool_threads", hetgrid_par::global().threads() as f64);
        r.meta_str("git_commit", &command_line("git", &["rev-parse", "HEAD"]));
        r.meta_str("rustc", &command_line("rustc", &["--version"]));
        r
    }

    /// Records a metric; the name must be listed in `BENCHMARK.json`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            self.end_to_end
                .iter()
                .chain(&self.per_layer)
                .any(|(n, _)| n == name),
            "metric {name} is not listed in BENCHMARK.json"
        );
        self.metrics.insert(name, value);
    }

    pub fn meta_num(&mut self, key: &str, value: f64) {
        self.meta.push((key.to_string(), json_num(value)));
    }

    pub fn meta_str(&mut self, key: &str, value: &str) {
        self.meta.push((key.to_string(), json_str(value)));
    }

    pub fn meta_raw(&mut self, key: &str, json: String) {
        self.meta.push((key.to_string(), json));
    }

    /// Marks the run incorrect, keeping the reason for the report.
    pub fn problem(&mut self, why: String) {
        if self.problems.len() < 20 {
            eprintln!("hetbench: check failed: {why}");
        }
        self.problems.push(why);
        self.correct = false;
    }

    /// Adds the ops of one measured loop.
    pub fn count_ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Prints the table and the final JSON line, and writes the run
    /// report.
    pub fn finish(mut self, args: &Args) {
        self.meta_num("ops_per_run", self.attempted as f64);
        self.set("peak_rss_mb", peak_rss_mb());
        if self.attempted == 0 {
            self.problem("no op was attempted".into());
            self.attempted = 1;
            self.failed = 1;
        }
        let wanted = if args.trace {
            &self.per_layer
        } else {
            &self.end_to_end
        };
        let mut metrics = String::new();
        let mut non_finite = Vec::new();
        for (i, (name, unit)) in wanted.iter().enumerate() {
            let value = match self.metrics.get(name.as_str()) {
                Some(v) if v.is_finite() => *v,
                Some(_) => {
                    non_finite.push(format!("{name} is not finite"));
                    0.0
                }
                None if args.trace => 0.0,
                None => panic!("end-to-end metric {name} was never set"),
            };
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(value)
            );
        }

        for why in non_finite {
            self.problem(why);
        }
        eprintln!(
            "{} seed {} ({}): {} attempted, {} failed, correct {}",
            args.workload,
            args.seed,
            if args.trace { "traced" } else { "untraced" },
            self.attempted,
            self.failed,
            self.correct
        );
        for (name, unit) in self.end_to_end.iter().chain(&self.per_layer) {
            if let Some(v) = self.metrics.get(name.as_str()) {
                eprintln!("  {name:<30} {v:>14.4} {unit}");
            }
        }
        self.write_run_report(args);

        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct, self.attempted, self.failed
        );
    }

    fn write_run_report(&self, args: &Args) {
        let mut out = String::from("{\n  \"meta\": {");
        for (i, (k, v)) in self.meta.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    {}: {v}", json_str(k));
        }
        out.push_str("\n  },\n  \"metrics\": {");
        for (i, (k, v)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\n    {}: {}", json_str(k), json_num(*v));
        }
        let _ = write!(
            out,
            "\n  }},\n  \"attempted\": {},\n  \"failed\": {},\n  \"correct\": {},\n  \"problems\": [",
            self.attempted, self.failed, self.correct
        );
        for (i, p) in self.problems.iter().take(100).enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}{}", json_str(p));
        }
        out.push_str("]\n}\n");
        let path = format!(
            "{}/{}-seed{}-trace{}.json",
            OUT_DIR,
            args.workload,
            args.seed,
            u8::from(args.trace)
        );
        if let Err(e) = write_out(&path, &out) {
            eprintln!("hetbench: could not write {path}: {e}");
        }
    }
}

/// Directory, relative to the working directory, for run reports and
/// Chrome traces.
pub const OUT_DIR: &str = ".bench_out";

pub fn write_out(path: &str, body: &str) -> std::io::Result<()> {
    std::fs::create_dir_all(OUT_DIR)?;
    std::fs::write(path, body)
}

/// First line of a command's stdout, or `unknown` when it cannot run
/// (the benchmark may run from a checkout that is not a git repository).
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set size of this process (`VmHWM`), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    hetgrid_obs::chrome::escape_into(&mut out, s);
    out.push('"');
    out
}

/// Linearly interpolated quantile `q` in `[0, 1]` of unsorted samples
/// (0 for no samples).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Set-up repetitions per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Runs `setup` [`SETUPS`] times and returns the last result with the
/// median wall time in seconds: set-up cost is its own metric, and one
/// sample of it is too noisy to compare across commits.
pub fn timed_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut secs = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        // Drop the previous state first so a server or pool from the
        // last repetition does not overlap this one.
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup());
        secs.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("SETUPS >= 1"), median(&secs))
}

/// Latencies of a closed loop plus its op accounting.
#[derive(Default)]
pub struct Loop {
    /// Timed op durations, milliseconds (verification excluded).
    pub lat_ms: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
}

impl Loop {
    /// Runs `op` until `seconds` of wall time (ops plus their checks)
    /// have passed, and at least `min_ops` ops. `op(i)` returns its own
    /// timed duration in seconds and whether its output checked out.
    pub fn run(seconds: f64, min_ops: u64, mut op: impl FnMut(u64) -> (f64, bool)) -> Loop {
        let mut l = Loop::default();
        let t0 = Instant::now();
        while t0.elapsed().as_secs_f64() < seconds || l.attempted < min_ops {
            let (secs, ok) = op(l.attempted);
            l.attempted += 1;
            if ok {
                l.lat_ms.push(secs * 1e3);
            } else {
                l.failed += 1;
            }
        }
        l
    }

    /// Records the closed-loop end-to-end metrics.
    pub fn report_end_to_end(&self, r: &mut Report) {
        let op_secs: f64 = self.lat_ms.iter().sum::<f64>() / 1e3;
        let ok = self.lat_ms.len() as f64;
        let rate = if op_secs > 0.0 { ok / op_secs } else { 0.0 };
        r.set("ops_per_s", rate);
        r.set("latency_p50_ms", quantile(&self.lat_ms, 0.50));
        r.set("latency_p95_ms", quantile(&self.lat_ms, 0.95));
        r.set("ok_ratio", ok / self.attempted.max(1) as f64);
        r.count_ops(self.attempted, self.failed);
    }
}

/// Traced-over-untraced p50 difference, percent of the untraced p50.
pub fn overhead_pct(untraced_p50: f64, traced_p50: f64) -> f64 {
    if untraced_p50 > 0.0 {
        (traced_p50 - untraced_p50) / untraced_p50 * 100.0
    } else {
        0.0
    }
}
