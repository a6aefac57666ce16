//! `solve-exact`: a closed loop with one caller over
//! `Problem::new(times).grid(3, 4).method(Method::Exact).solve()`, the
//! only workload that reaches the paper's exact algorithm — the
//! branch-and-bound over spanning trees in `core::exact`, fanned out on
//! the `par` pool. Pools are seeded and cycle through the six
//! `bench::workloads::Heterogeneity` models; the cost per instance is
//! heavy-tailed.

use crate::report::{mean, median, overhead_pct, quantile, timed_setup, Loop, Report};
use crate::spans::Tracer;
use crate::Args;
use hetgrid_bench::workloads::Heterogeneity;
use hetgrid_core::objective::{is_feasible, workload_matrix};
use hetgrid_core::{exact, Method, Problem, Solution};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

const P: usize = 3;
const Q: usize = 4;
/// Instances solved in each set-up; their serial tree counts are the
/// exact count rows.
const WARMUP_OPS: usize = 24;
/// Seed of the warm-up instances, fixed across runs: an instance's cost
/// is heavy-tailed, so warm-up instances drawn from `--seed` would make
/// the set-up time a property of the seed rather than of the program.
const WARMUP_SEED: u64 = 0x5EED_0E4A;
const MIN_OPS: u64 = 1000;
/// Feasibility slack `r_i t_ij c_j <= 1 + EPS`, and the share by which
/// the exact optimum may trail the heuristic (rounding only).
const EPS: f64 = 1e-9;

/// The seeded instance stream: instance `i` draws from model `i mod 6`.
struct Instances {
    rng: StdRng,
    i: usize,
}

impl Instances {
    fn new(seed: u64) -> Instances {
        Instances {
            rng: StdRng::seed_from_u64(seed),
            i: 0,
        }
    }

    fn next(&mut self) -> Vec<f64> {
        let model = Heterogeneity::ALL[self.i % Heterogeneity::ALL.len()];
        self.i += 1;
        model.sample(P * Q, &mut self.rng)
    }
}

fn solve_exact(times: &[f64]) -> Solution {
    Problem::new(times.to_vec())
        .grid(P, Q)
        .method(Method::Exact)
        .solve()
}

/// The exact answer must be feasible and score no lower than the
/// heuristic (`obj2` is maximized).
fn check(times: &[f64], sol: &Solution) -> Result<(), String> {
    if !is_feasible(&sol.arrangement, &sol.alloc, EPS) {
        let worst = workload_matrix(&sol.arrangement, &sol.alloc).max_abs();
        return Err(format!("exact allocation infeasible: max r t c = {worst}"));
    }
    let heuristic = Problem::new(times.to_vec()).grid(P, Q).solve();
    if sol.obj2 < heuristic.obj2 * (1.0 - EPS) {
        return Err(format!(
            "exact obj2 {} below the heuristic's {}",
            sol.obj2, heuristic.obj2
        ));
    }
    Ok(())
}

struct Setup {
    stream: Instances,
    trees: (u64, u64),
}

/// Solves the warm-up instances. The global search shares its incumbent
/// across pool threads, so its tree counters vary from run to run; the
/// exact count rows instead re-solve each winning arrangement with the
/// serial branch-and-bound, which repeats exactly.
fn setup(seed: u64) -> Setup {
    let mut warm = Instances::new(WARMUP_SEED);
    let mut trees = (0, 0);
    for _ in 0..WARMUP_OPS {
        let sol = solve_exact(&warm.next());
        let serial = exact::solve_arrangement(&sol.arrangement);
        trees.0 += serial.trees_examined;
        trees.1 += serial.trees_pruned;
    }
    Setup {
        stream: Instances::new(seed),
        trees,
    }
}

#[derive(Default)]
struct Tally {
    workload: Vec<f64>,
    verify_ms: Vec<f64>,
}

fn measure(
    stream: &mut Instances,
    seconds: f64,
    tracer: &mut Option<Tracer>,
    tally: &mut Tally,
    r: &mut Report,
) -> Loop {
    Loop::run(seconds, MIN_OPS, |_| {
        let times = stream.next();
        let t0 = Instant::now();
        let root = tracer.as_ref().map(Tracer::op);
        let sol = {
            let _span = tracer.as_ref().map(|t| t.stage("core.solve"));
            solve_exact(&times)
        };
        drop(root);
        let secs = t0.elapsed().as_secs_f64();
        if let Some(t) = tracer.as_mut() {
            t.collect();
        }
        let v0 = Instant::now();
        let verdict = check(&times, &sol);
        tally.verify_ms.push(v0.elapsed().as_secs_f64() * 1e3);
        tally.workload.push(sol.average_workload);
        match verdict {
            Ok(()) => (secs, true),
            Err(e) => {
                r.problem(e);
                (secs, false)
            }
        }
    })
}

pub fn run(args: &Args, r: &mut Report) {
    r.meta_num("grid_p", P as f64);
    r.meta_num("grid_q", Q as f64);
    let (mut s, setup_s) = timed_setup(|| setup(args.seed));
    r.set("setup_s", setup_s);

    if !args.trace {
        let mut tally = Tally::default();
        let l = measure(&mut s.stream, args.seconds, &mut None, &mut tally, r);
        l.report_end_to_end(r);
        r.set("avg_workload", mean(&tally.workload));
        return;
    }

    let plain = measure(
        &mut s.stream,
        0.3 * args.seconds,
        &mut None,
        &mut Tally::default(),
        r,
    );
    r.count_ops(plain.attempted, plain.failed);
    let mut tracer = Some(Tracer::start());
    let before = hetgrid_obs::metrics().snapshot();
    let mut tally = Tally::default();
    let traced = measure(
        &mut s.stream,
        0.7 * args.seconds,
        &mut tracer,
        &mut tally,
        r,
    );
    r.count_ops(traced.attempted, traced.failed);
    let d = hetgrid_obs::metrics().snapshot().delta(&before);
    let tracer = tracer.expect("tracer set");
    let ops = traced.attempted.max(1) as f64;

    r.set(
        "obs.trace_overhead_pct",
        overhead_pct(quantile(&plain.lat_ms, 0.5), quantile(&traced.lat_ms, 0.5)),
    );
    r.set("core.solve_ms", quantile(&traced.lat_ms, 0.5));
    r.set("core.trees_examined", s.trees.0 as f64);
    r.set("core.trees_pruned", s.trees.1 as f64);
    r.set(
        "core.trees_examined_per_op",
        d.counter("solver.trees.examined") as f64 / ops,
    );
    r.set("par.steals", d.counter("par.steals") as f64 / ops);
    r.set("linalg.verify_ms", median(&tally.verify_ms));
    r.set("core.self_ms", tracer.self_ms("core"));
    tracer.finish(args, r);
}
