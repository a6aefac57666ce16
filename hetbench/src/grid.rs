//! `hnow-factor` and `bulk-mm`: closed loops with one caller on the
//! paper's skewed 2x2 grid (`t = {1, 2, 3, 5}`), each op going through
//! `Problem::solve` -> `PanelDist::from_allocation` -> `run_*_on_cfg`
//! (which scatters, plans, executes and gathers).
//!
//! * `hnow-factor` — an LU of a diagonally dominant matrix, then a
//!   Cholesky of an SPD matrix, nb = 12, r = 16, over a transport that
//!   delays every message by 500 us: the latency-bound HNOW regime,
//!   where broadcasts and the factorization's dependence chain set the
//!   makespan. This grid's weight ratio (5) trips the executor's LU
//!   skew clamp, so LU runs in order.
//! * `bulk-mm` — `C = A * B`, nb = 8, r = 48, over the plain channel
//!   transport: block GEMM, copies and the buffer pool dominate, and
//!   there is no dependence chain.

use crate::latency::LatencyTransport;
use crate::report::{mean, median, overhead_pct, quantile, timed_setup, Loop, Report};
use crate::spans::Tracer;
use crate::Args;
use hetgrid_core::objective::workload_matrix;
use hetgrid_core::{Problem, Solution};
use hetgrid_dist::{PanelDist, PanelOrdering};
use hetgrid_exec::{
    run_cholesky_on_cfg, run_lu_on_cfg, run_mm_on_cfg, slowdown_weights, ChannelTransport,
    DistributedMatrix, ExecConfig, ExecError, ExecReport,
};
use hetgrid_linalg::gemm::{gemm, matmul};
use hetgrid_linalg::tri::{unit_lower_from_packed, upper_from_packed};
use hetgrid_linalg::Matrix;
use hetgrid_plan::Plan;
use hetgrid_sim::counts;
use hetgrid_sim::{interpret_cholesky, interpret_factor, interpret_mm};
use hetgrid_sim::{Broadcast, CostModel, FactorKind, Network};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The paper's skewed 2x2 pool.
const TIMES: [f64; 4] = [1.0, 2.0, 3.0, 5.0];
/// Panel of 4x4 blocks: two panel rows and columns per grid line.
const PANEL: usize = 4;
/// Distinct seeded inputs an op cycles through.
const INPUTS: usize = 3;
/// Warm-up ops per set-up.
const WARMUP_OPS: u64 = 3;
/// Closed loops run at least this many ops, so p95 has ten samples
/// beyond it.
const MIN_OPS: u64 = 200;
/// Relative tolerance of every numerical check.
const REL_TOL: f64 = 1e-9;

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    HnowFactor,
    BulkMm,
}

impl Kind {
    /// `(nb, r, per-message latency)`.
    fn shape(self) -> (usize, usize, Duration) {
        match self {
            Kind::HnowFactor => (12, 16, Duration::from_micros(500)),
            Kind::BulkMm => (8, 48, Duration::ZERO),
        }
    }
}

/// One seeded input set with what its check compares against.
enum Input {
    Factor { lu: Matrix, spd: Matrix },
    Mm { a: Matrix, b: Matrix, c_ref: Matrix },
}

struct Setup {
    inputs: Vec<Input>,
    /// Messages one op must send, from `sim::counts` over the op's plans.
    predicted_messages: u64,
    avg_workload: f64,
    predicted_imbalance: f64,
    plans: Vec<Plan>,
    sol: Solution,
}

/// What one op did, with its timed stages in seconds.
#[derive(Default)]
struct OpStats {
    secs: f64,
    solve_s: f64,
    dist_s: f64,
    call_s: f64,
    wall_s: f64,
    busy_s: f64,
    procs_wall_s: f64,
    messages: u64,
    work_imbalance: Vec<f64>,
    busy_imbalance: Vec<f64>,
}

fn solve() -> Solution {
    Problem::new(TIMES.to_vec()).grid(2, 2).solve()
}

fn dist_of(sol: &Solution) -> PanelDist {
    PanelDist::from_allocation(
        &sol.arrangement,
        &sol.alloc,
        PANEL,
        PANEL,
        PanelOrdering::Interleaved,
    )
}

fn dominant(n: usize, rng: &mut StdRng) -> Matrix {
    let mut m = Matrix::from_fn(n, n, |_, _| rng.gen_range(-1.0..1.0));
    for i in 0..n {
        m[(i, i)] += 2.0 * n as f64;
    }
    m
}

fn spd(n: usize, rng: &mut StdRng) -> Matrix {
    let b = dominant(n, rng);
    let mut a = matmul(&b.transpose(), &b);
    for i in 0..n {
        a[(i, i)] += n as f64;
    }
    a
}

/// `max |got - want| <= REL_TOL * max |want|`, or the reason it is not.
fn check_close(what: &str, got: &Matrix, want: &Matrix) -> Result<(), String> {
    let err = got.sub(want).max_abs();
    let scale = want.max_abs().max(1.0);
    if err <= REL_TOL * scale {
        Ok(())
    } else {
        Err(format!(
            "{what}: max error {err:.3e} exceeds {REL_TOL:.0e} x {scale:.3e}"
        ))
    }
}

struct Workload {
    kind: Kind,
    nb: usize,
    r: usize,
    latency: LatencyTransport,
    cfg: ExecConfig,
}

impl Workload {
    fn plans(&self, dist: &PanelDist) -> Vec<Plan> {
        match self.kind {
            Kind::HnowFactor => vec![
                hetgrid_plan::factor_plan(dist, self.nb),
                hetgrid_plan::cholesky_plan(dist, self.nb),
            ],
            Kind::BulkMm => vec![hetgrid_plan::mm_plan(dist, self.nb)],
        }
    }

    fn setup(&self, seed: u64) -> Setup {
        let n = self.nb * self.r;
        let mut rng = StdRng::seed_from_u64(seed);
        let inputs = (0..INPUTS)
            .map(|_| match self.kind {
                Kind::HnowFactor => Input::Factor {
                    lu: dominant(n, &mut rng),
                    spd: spd(n, &mut rng),
                },
                Kind::BulkMm => {
                    let a = Matrix::from_fn(n, n, |_, _| rng.gen_range(-1.0..1.0));
                    let b = Matrix::from_fn(n, n, |_, _| rng.gen_range(-1.0..1.0));
                    let c_ref = matmul(&a, &b);
                    Input::Mm { a, b, c_ref }
                }
            })
            .collect();
        let sol = solve();
        let dist = dist_of(&sol);
        let weights = slowdown_weights(&sol.arrangement);
        let plans = self.plans(&dist);
        let predicted_messages = plans
            .iter()
            .map(|p| match self.kind {
                Kind::HnowFactor if p.steps.iter().any(is_cholesky) => {
                    counts::cholesky_counts_from_plan(p, &weights).total_messages()
                }
                Kind::HnowFactor => {
                    counts::factor_counts_from_plan(p, 1, &weights).total_messages()
                }
                Kind::BulkMm => counts::mm_counts_from_plan(p, &weights).total_messages(),
            })
            .sum();
        let b = workload_matrix(&sol.arrangement, &sol.alloc);
        let predicted_imbalance = b.max_abs() / b.mean();
        let setup = Setup {
            inputs,
            predicted_messages,
            avg_workload: sol.average_workload,
            predicted_imbalance,
            plans,
            sol,
        };
        for i in 0..WARMUP_OPS {
            let _ = self.op(&setup, i, None);
        }
        setup
    }

    fn run_kernel(
        &self,
        input: &Input,
        second: bool,
        dist: &PanelDist,
        weights: &[Vec<u64>],
    ) -> Result<(Matrix, ExecReport), ExecError> {
        let (nb, r, cfg) = (self.nb, self.r, self.cfg);
        match input {
            Input::Factor { lu, .. } if !second => {
                run_lu_on_cfg(&self.latency, lu, dist, nb, r, weights, cfg)
            }
            Input::Factor { spd, .. } => {
                run_cholesky_on_cfg(&self.latency, spd, dist, nb, r, weights, cfg)
            }
            Input::Mm { a, b, .. } => {
                run_mm_on_cfg(&ChannelTransport, a, b, dist, nb, r, weights, cfg)
            }
        }
    }

    /// Runs op `i` (untimed checks excluded) and returns its stats and
    /// outputs, or the executor's error.
    fn op(
        &self,
        setup: &Setup,
        i: u64,
        tracer: Option<&Tracer>,
    ) -> Result<(OpStats, Vec<(Matrix, ExecReport)>), ExecError> {
        let input = &setup.inputs[i as usize % setup.inputs.len()];
        let kernels = match self.kind {
            Kind::HnowFactor => 2,
            Kind::BulkMm => 1,
        };
        let mut st = OpStats::default();
        let mut outs = Vec::with_capacity(kernels);
        let t0 = Instant::now();
        let root = tracer.map(Tracer::op);
        for k in 0..kernels {
            let sol = stage(tracer, "core.solve", &mut st.solve_s, solve);
            let dist = stage(tracer, "dist.from_allocation", &mut st.dist_s, || {
                dist_of(&sol)
            });
            let weights = slowdown_weights(&sol.arrangement);
            let out = stage(tracer, "exec.run_on_cfg", &mut st.call_s, || {
                self.run_kernel(input, k == 1, &dist, &weights)
            })?;
            outs.push(black_box(out));
        }
        drop(root);
        st.secs = t0.elapsed().as_secs_f64();
        for (_, rep) in &outs {
            let procs = rep.busy_seconds.iter().flatten().count() as f64;
            st.wall_s += rep.wall_seconds;
            st.busy_s += rep.busy_seconds.iter().flatten().sum::<f64>();
            st.procs_wall_s += procs * rep.wall_seconds;
            st.messages += rep.total_messages();
            st.work_imbalance.push(rep.work_imbalance());
            st.busy_imbalance.push(rep.imbalance());
        }
        Ok((st, outs))
    }

    /// The op's outputs against the inputs and the predicted counts.
    fn check(
        &self,
        setup: &Setup,
        i: u64,
        st: &OpStats,
        outs: &[(Matrix, ExecReport)],
    ) -> Result<(), String> {
        if st.messages != setup.predicted_messages {
            return Err(format!(
                "op {i}: executor sent {} messages, sim::counts predicts {}",
                st.messages, setup.predicted_messages
            ));
        }
        match &setup.inputs[i as usize % setup.inputs.len()] {
            Input::Factor { lu, spd } => {
                let packed = &outs[0].0;
                let rebuilt = matmul(&unit_lower_from_packed(packed), &upper_from_packed(packed));
                check_close("|LU - A|", &rebuilt, lu)?;
                let l = &outs[1].0;
                check_close("|LL^T - A|", &matmul(l, &l.transpose()), spd)
            }
            Input::Mm { c_ref, .. } => check_close("|C - AB|", &outs[0].0, c_ref),
        }
    }
}

/// Times `f` into `acc`, inside a span named `name` when tracing.
fn stage<T>(tracer: Option<&Tracer>, name: &str, acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let _span = tracer.map(|t| t.stage(name));
    let t0 = Instant::now();
    let out = f();
    *acc += t0.elapsed().as_secs_f64();
    out
}

fn is_cholesky(step: &hetgrid_plan::Step) -> bool {
    matches!(step, hetgrid_plan::Step::Cholesky { .. })
}

/// Per-op aggregates over a measured loop.
#[derive(Default)]
struct Tally {
    ops: Vec<OpStats>,
    verify_ms: Vec<f64>,
}

fn measure(
    w: &Workload,
    setup: &Setup,
    seconds: f64,
    tracer: &mut Option<Tracer>,
    tally: &mut Tally,
    r: &mut Report,
) -> Loop {
    Loop::run(seconds, MIN_OPS, |i| {
        let res = w.op(setup, i, tracer.as_ref());
        if let Some(t) = tracer.as_mut() {
            t.collect();
        }
        match res {
            Ok((st, outs)) => {
                let t0 = Instant::now();
                let verdict = w.check(setup, i, &st, &outs);
                tally.verify_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                let secs = st.secs;
                tally.ops.push(st);
                match verdict {
                    Ok(()) => (secs, true),
                    Err(e) => {
                        r.problem(e);
                        (secs, false)
                    }
                }
            }
            Err(e) => {
                eprintln!("hetbench: op {i} failed: {e}");
                (0.0, false)
            }
        }
    })
}

pub fn run(args: &Args, kind: Kind, r: &mut Report) {
    let (nb, r_blk, latency) = kind.shape();
    let w = Workload {
        kind,
        nb,
        r: r_blk,
        latency: LatencyTransport { latency },
        cfg: ExecConfig::default(),
    };
    r.meta_num("nb", nb as f64);
    r.meta_num("block", r_blk as f64);
    r.meta_num("latency_us", latency.as_secs_f64() * 1e6);
    r.meta_num("lookahead", w.cfg.lookahead as f64);
    let (setup, setup_s) = timed_setup(|| w.setup(args.seed));
    r.set("setup_s", setup_s);
    r.set("avg_workload", setup.avg_workload);

    if !args.trace {
        let mut tally = Tally::default();
        let l = measure(&w, &setup, args.seconds, &mut None, &mut tally, r);
        l.report_end_to_end(r);
        return;
    }

    // Traced run: an untraced stretch first, for the tracing overhead.
    let mut none = None;
    let plain = measure(
        &w,
        &setup,
        0.3 * args.seconds,
        &mut none,
        &mut Tally::default(),
        r,
    );
    r.count_ops(plain.attempted, plain.failed);
    let mut tracer = Some(Tracer::start());
    let before = hetgrid_obs::metrics().snapshot();
    let mut tally = Tally::default();
    let traced = measure(&w, &setup, 0.7 * args.seconds, &mut tracer, &mut tally, r);
    r.count_ops(traced.attempted, traced.failed);
    let d = hetgrid_obs::metrics().snapshot().delta(&before);
    let tracer = tracer.expect("tracer set");
    r.set(
        "obs.trace_overhead_pct",
        overhead_pct(quantile(&plain.lat_ms, 0.5), quantile(&traced.lat_ms, 0.5)),
    );

    let ops = tally.ops.len().max(1) as f64;
    let med = |f: fn(&OpStats) -> f64| median(&tally.ops.iter().map(f).collect::<Vec<_>>()) * 1e3;
    r.set("core.solve_ms", med(|s| s.solve_s));
    r.set("dist.build_ms", med(|s| s.dist_s));
    r.set("exec.call_ms", med(|s| s.call_s));
    r.set("exec.wall_ms", med(|s| s.wall_s));
    r.set("exec.outside_ms", med(|s| s.call_s - s.wall_s));
    let busy: f64 = tally.ops.iter().map(|s| s.busy_s).sum();
    let procs_wall: f64 = tally.ops.iter().map(|s| s.procs_wall_s).sum();
    r.set("exec.busy_frac", busy / procs_wall.max(f64::MIN_POSITIVE));
    let stalls: u64 = d
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("exec.p") && k.ends_with(".stalls"))
        .map(|(_, v)| v)
        .sum();
    r.set("exec.stalls", stalls as f64 / ops);
    let messages = tally.ops.first().map_or(0, |s| s.messages);
    r.set("exec.messages", messages as f64);
    r.set("exec.messages_predicted", setup.predicted_messages as f64);
    r.set("exec.bytes", (messages * (w.r * w.r * 8) as u64) as f64);
    let (hits, misses) = (d.counter("exec.pool.hits"), d.counter("exec.pool.misses"));
    r.set(
        "exec.pool_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    let flat =
        |f: fn(&OpStats) -> &Vec<f64>| tally.ops.iter().flat_map(f).copied().collect::<Vec<f64>>();
    r.set("exec.work_imbalance", mean(&flat(|s| &s.work_imbalance)));
    r.set("exec.busy_imbalance", mean(&flat(|s| &s.busy_imbalance)));
    r.set("core.predicted_imbalance", setup.predicted_imbalance);
    r.set("par.steals", d.counter("par.steals") as f64 / ops);
    r.set("linalg.verify_ms", median(&tally.verify_ms));

    r.set("core.self_ms", tracer.self_ms("core"));
    r.set("dist.self_ms", tracer.self_ms("dist"));
    r.set("exec.self_ms", tracer.self_ms("exec"));
    tracer.finish(args, r);

    probes(&w, &setup, r);
}

/// Standalone timings at the op's sizes: the references the traced
/// loop's numbers are read against.
fn probes(w: &Workload, setup: &Setup, r: &mut Report) {
    let dist = dist_of(&setup.sol);
    let n = w.nb * w.r;
    // Each op scatters two matrices; the factorizations gather two
    // results, MM gathers one.
    let (scatters, gathers) = match w.kind {
        Kind::HnowFactor => (2.0, 2.0),
        Kind::BulkMm => (2.0, 1.0),
    };
    let m = Matrix::from_fn(n, n, |i, j| (i * n + j) as f64);
    let scatter = repeat_ms(20, || {
        black_box(DistributedMatrix::scatter(&m, &dist, w.nb, w.r));
    });
    let da = DistributedMatrix::scatter(&m, &dist, w.nb, w.r);
    let gather = repeat_ms(20, || {
        black_box(da.gather());
    });
    r.set("exec.scatter_ms", scatter * scatters);
    r.set("exec.gather_ms", gather * gathers);

    r.set(
        "plan.build_ms",
        repeat_ms(20, || {
            black_box(w.plans(&dist));
        }),
    );
    r.set(
        "plan.encode_ms",
        repeat_ms(20, || {
            for p in &setup.plans {
                black_box(hetgrid_plan::wire::encode(p));
            }
        }),
    );
    let bytes: usize = setup
        .plans
        .iter()
        .map(|p| hetgrid_plan::wire::encode(p).len())
        .sum();
    r.set("plan.bytes", bytes as f64);

    // One r x r block update C -= A B, the executor's unit of work at
    // weight 1; timed in batches so the clock's resolution is moot.
    let a = Matrix::from_fn(w.r, w.r, |i, j| ((i + 2 * j) % 7) as f64 - 3.0);
    let b = Matrix::from_fn(w.r, w.r, |i, j| ((3 * i + j) % 5) as f64 - 2.0);
    let mut c = Matrix::zeros(w.r, w.r);
    let batch = 200;
    let unit_ms = repeat_ms(15, || {
        for _ in 0..batch {
            gemm(-1.0, black_box(&a), black_box(&b), 1.0, &mut c);
        }
    }) / batch as f64;
    black_box(&c);
    r.set("linalg.block_update_us", unit_ms * 1e3);

    // The DES makespan in units of one weight-1 block update, at this
    // workload's message latency and no bandwidth cost.
    let cost = CostModel {
        latency: w.latency.latency.as_secs_f64() * 1e3 / unit_ms,
        block_transfer: 0.0,
        network: Network::Switched,
        panel_cost: 1.0,
        trsm_cost: 1.0,
    };
    let arr = &setup.sol.arrangement;
    let makespan: f64 = setup
        .plans
        .iter()
        .map(|p| match w.kind {
            Kind::BulkMm => {
                interpret_mm(arr, p, cost, Broadcast::Direct)
                    .report
                    .makespan
            }
            Kind::HnowFactor if p.steps.iter().any(is_cholesky) => {
                interpret_cholesky(arr, p, cost).report.makespan
            }
            Kind::HnowFactor => {
                interpret_factor(arr, p, cost, FactorKind::Lu, Broadcast::Direct)
                    .report
                    .makespan
            }
        })
        .sum();
    r.set("sim.predicted_ms", makespan * unit_ms);
}

/// Median wall time of `reps` calls of `f`, milliseconds.
fn repeat_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}
