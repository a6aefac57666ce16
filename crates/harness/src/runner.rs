//! Case runners: draw a scenario from a seed, execute the real kernel
//! over the fault-injecting transport, and judge the run with the
//! differential oracles. Every failure message carries the seed, the
//! fault profile, and the scenario description, so any red run is a
//! one-command deterministic replay.

use crate::faults::{FaultProfile, KillSchedule};
use crate::oracles;
use crate::scenario::{
    dominant_matrix, exec_scenario, general_matrix, kernel_operands, random_arrangement,
    random_dist, spd_matrix, star_scenario, ExecScenario,
};
use crate::vtransport::VirtualTransport;
use hetgrid_adapt::{ControllerConfig, Outcome, Scenario};
use hetgrid_core::{exact, Arrangement};
use hetgrid_dist::{BlockDist, PanelDist, PanelOrdering};
use hetgrid_exec::{
    run_cholesky_on_cfg, run_lu_on_cfg, run_mm_on_cfg, run_qr_on_cfg, run_recovery,
    run_solve_on_cfg, run_star_mm_on_cfg, ExecConfig, ExecError, ExecReport, GridFault,
    RecoveryHooks, RecoveryInput, SolveKind, SurvivorGrid, Transport,
};
use hetgrid_linalg::gemm::matvec;
use hetgrid_linalg::Matrix;
use hetgrid_plan::Kernel;
use hetgrid_sim::counts::{counts, star_residency_peaks};
use hetgrid_sim::DriftProfile;
use rand::prelude::*;

/// A kernel run's gathered result, its Householder scalars (QR only)
/// and the executor report.
pub type KernelOutput = (Matrix, Option<Vec<f64>>, ExecReport);

/// Runs `kernel` on the threaded executor over `transport`: the one
/// dispatch from the kernel table to the `run_*_on_cfg` entry points.
/// `b` is MM's right operand.
///
/// # Panics
/// Panics if MM lacks `b`, and on the size mismatches the entry points
/// reject.
#[allow(clippy::too_many_arguments)]
pub fn run_kernel(
    transport: &impl Transport,
    kernel: Kernel,
    a: &Matrix,
    b: Option<&Matrix>,
    dist: &(dyn BlockDist + Sync),
    nb: usize,
    r: usize,
    weights: &[Vec<u64>],
    cfg: ExecConfig,
) -> Result<KernelOutput, ExecError> {
    Ok(match kernel {
        Kernel::Mm => {
            let b = b.expect("MM has two operands");
            let (c, report) = run_mm_on_cfg(transport, a, b, dist, nb, r, weights, cfg)?;
            (c, None, report)
        }
        Kernel::Lu => {
            let (f, report) = run_lu_on_cfg(transport, a, dist, nb, r, weights, cfg)?;
            (f, None, report)
        }
        Kernel::Cholesky => {
            let (l, report) = run_cholesky_on_cfg(transport, a, dist, nb, r, weights, cfg)?;
            (l, None, report)
        }
        Kernel::Qr => {
            let (packed, taus, report) = run_qr_on_cfg(transport, a, dist, nb, r, weights, cfg)?;
            (packed, Some(taus), report)
        }
    })
}

/// `kernel`'s operands as input to [`hetgrid_exec::run_recovery`].
///
/// # Panics
/// Panics if MM lacks `b`.
pub fn recovery_input<'a>(
    kernel: Kernel,
    a: &'a Matrix,
    b: Option<&'a Matrix>,
) -> RecoveryInput<'a> {
    match kernel {
        Kernel::Mm => RecoveryInput::Mm {
            a,
            b: b.expect("MM has two operands"),
        },
        Kernel::Lu => RecoveryInput::Lu { a },
        Kernel::Cholesky => RecoveryInput::Cholesky { a },
        Kernel::Qr => RecoveryInput::Qr { a },
    }
}

/// Runs one executor case and validates it with every applicable
/// oracle.
///
/// # Panics
/// Panics — with the seed, profile, and scenario in the message — when
/// any oracle rejects the run.
pub fn run_exec_case(kernel: Kernel, profile: FaultProfile, seed: u64) {
    let sc = exec_scenario(seed);
    let ctx = case_context(&format!("{kernel:?}"), profile, seed, &sc);
    let transport = VirtualTransport::new(seed, profile);
    let mut rng = matrix_stream(seed);
    let dist = sc.dist.as_ref();
    let cfg = ExecConfig {
        lookahead: sc.lookahead,
    };
    let (a, b) = kernel_operands(kernel, &mut rng, sc.nb * sc.r);
    let (result, taus, report) = run_kernel(
        &transport,
        kernel,
        &a,
        b.as_ref(),
        dist,
        sc.nb,
        sc.r,
        &sc.weights,
        cfg,
    )
    .unwrap_or_else(|e| panic!("harness: {e}\n  case: {ctx}"));
    check(
        &ctx,
        oracles::check_kernel(
            kernel,
            &a,
            b.as_ref(),
            &result,
            taus.as_deref(),
            sc.nb,
            sc.r,
        ),
    );
    let plan = kernel.plan(dist, sc.nb);
    check(
        &ctx,
        oracles::check_counts(&report, &counts(&plan, 0, &sc.weights)),
    );
    finish_exec_case(&sc, &report, &ctx);
}

/// Runs one full linear-solve case — LU-backed on even seeds,
/// Cholesky-backed on odd ones — and validates it with the residual,
/// count and telemetry oracles.
///
/// # Panics
/// Panics — with the seed, profile, and scenario in the message — when
/// any oracle rejects the run.
pub fn run_solve_case(profile: FaultProfile, seed: u64) {
    let sc = exec_scenario(seed);
    let ctx = case_context("Solve", profile, seed, &sc);
    let transport = VirtualTransport::new(seed, profile);
    let mut rng = matrix_stream(seed);
    let n = sc.nb * sc.r;
    let dist = sc.dist.as_ref();
    let cfg = ExecConfig {
        lookahead: sc.lookahead,
    };
    let (a, kind, kernel) = if seed.is_multiple_of(2) {
        (dominant_matrix(&mut rng, n), SolveKind::Lu, Kernel::Lu)
    } else {
        (
            spd_matrix(&mut rng, n),
            SolveKind::Cholesky,
            Kernel::Cholesky,
        )
    };
    let x0: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
    let b = matvec(&a, &x0);
    let (x, report) = run_solve_on_cfg(
        &transport,
        &a,
        &b,
        dist,
        sc.nb,
        sc.r,
        &sc.weights,
        kind,
        cfg,
    )
    .unwrap_or_else(|e| panic!("harness: {e}\n  case: {ctx}"));
    check(&ctx, oracles::check_solve(&a, &x, &b, 1e-6));
    let plan = kernel.plan(dist, sc.nb);
    check(
        &ctx,
        oracles::check_counts(&report, &counts(&plan, 0, &sc.weights)),
    );
    finish_exec_case(&sc, &report, &ctx);
}

fn case_context(what: &str, profile: FaultProfile, seed: u64, sc: &ExecScenario) -> String {
    format!(
        "{what} under '{}' on {} — replay: HARNESS_SEED={seed} cargo test -p hetgrid-harness",
        profile.name,
        sc.describe()
    )
}

/// The matrix-entry stream of case `seed`: independent of the scenario
/// draw, so the scenario stays stable if matrix generation ever changes.
fn matrix_stream(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ 0x00D1_5EA5_E000_0000)
}

/// The oracles every grid case ends with: a multi-processor grid must
/// actually communicate, and the live registry (with whatever
/// per-processor / per-edge names this run interned) must survive the
/// text exposition round trip bit-exactly.
fn finish_exec_case(sc: &ExecScenario, report: &ExecReport, ctx: &str) {
    let (p, q) = sc.grid();
    if p * q > 1 && report.total_messages() == 0 {
        panic!("harness oracle failed: no messages on a {p}x{q} grid\n  case: {ctx}");
    }
    check(
        ctx,
        oracles::check_expo_roundtrip(&hetgrid_obs::metrics().snapshot()),
    );
}

/// Panics with the case context when an oracle rejects the run.
fn check(ctx: &str, result: Result<(), String>) {
    if let Err(msg) = result {
        panic!("harness oracle failed: {msg}\n  case: {ctx}");
    }
}

/// Runs one master-worker (star) case and validates it with the full
/// oracle stack: the product against the `hetgrid-linalg` reference,
/// the observed message/work tables against the
/// [`hetgrid_sim::counts::counts`] fold of the star plan, the
/// memory-bound oracle ([`oracles::check_star_memory`]) against the
/// plan's residency fold, and the telemetry round trip.
///
/// # Panics
/// Panics — with the seed, profile, and scenario in the message — when
/// any oracle rejects the run.
pub fn run_star_case(profile: FaultProfile, seed: u64) {
    let sc = star_scenario(seed);
    let ctx = format!(
        "Star MM under '{}' on {} — replay: HARNESS_SEED={seed} cargo test -p hetgrid-harness",
        profile.name,
        sc.describe()
    );
    let transport = VirtualTransport::new(seed, profile);
    let mut rng = matrix_stream(seed);
    let (mb, nb, kb) = sc.dims;
    let a = general_matrix(&mut rng, mb * sc.r, kb * sc.r);
    let b = general_matrix(&mut rng, kb * sc.r, nb * sc.r);
    let cfg = ExecConfig {
        lookahead: sc.lookahead,
    };

    let (c, report) = run_star_mm_on_cfg(
        &transport,
        &a,
        &b,
        &sc.topo,
        sc.dims,
        sc.r,
        &sc.weights,
        cfg,
    )
    .unwrap_or_else(|e| panic!("harness: {e}\n  case: {ctx}"));
    check(&ctx, oracles::check_mm(&a, &b, &c, 1e-9));
    let hetgrid_core::Topology::Star { worker_mem, .. } = sc.topo else {
        unreachable!("star_scenario draws a star topology")
    };
    let plan = hetgrid_plan::star_mm_plan(&sc.topo, sc.dims);
    check(
        &ctx,
        oracles::check_counts(&report, &counts(&plan, 0, &sc.weights)),
    );
    check(
        &ctx,
        oracles::check_star_memory(&star_residency_peaks(&plan), worker_mem),
    );
    if report.total_messages() == 0 {
        panic!("harness oracle failed: a star run sent no messages\n  case: {ctx}");
    }
    check(
        &ctx,
        oracles::check_expo_roundtrip(&hetgrid_obs::metrics().snapshot()),
    );
}

/// Solves the post-fault load-balancing problem for a grid fault — the
/// `resolve` hook behind both the harness's recovery cases and
/// `hetgrid run --crash`.
///
/// A crash drops the victim's entire grid *line* — its row or its
/// column, whichever carries less aggregate compute capacity
/// (`Σ 1/t` over the line; ties prefer the row) — so the survivor grid
/// keeps the paper's 2D shape. A join grows the grid by one row of
/// processors as fast as the fastest incumbent. The survivor
/// distribution is re-solved from scratch (exact column allocation,
/// interleaved panels on a `2p' x 2q'` panel grid), and the weight
/// table is carried over by deleting/extending lines of the original —
/// so an injected slowdown fault survives the resize with its victim.
pub fn resolve_grid_fault(
    arr: &Arrangement,
    weights: &[Vec<u64>],
    fault: &GridFault,
) -> SurvivorGrid {
    // (survivor cycle-time rows, survivor weights, old -> new linear id map)
    type SurvivorTables = (Vec<Vec<f64>>, Vec<Vec<u64>>, Vec<Option<usize>>);
    let (p, q) = (arr.p(), arr.q());
    let all_rows: Vec<Vec<f64>> = (0..p).map(|i| arr.row(i).to_vec()).collect();
    let (rows, weights2, proc_map): SurvivorTables = match *fault {
        GridFault::Crash { proc, .. } => {
            let (di, dj) = (proc / q, proc % q);
            let row_loss: f64 = (0..q).map(|j| 1.0 / arr.time(di, j)).sum();
            let col_loss: f64 = (0..p).map(|i| 1.0 / arr.time(i, dj)).sum();
            if (p > 1 && row_loss <= col_loss) || q == 1 {
                // Drop row `di`; survivors above keep their row
                // index, survivors below shift up by one.
                let rows = (0..p)
                    .filter(|&i| i != di)
                    .map(|i| all_rows[i].clone())
                    .collect();
                let w = (0..p)
                    .filter(|&i| i != di)
                    .map(|i| weights[i].clone())
                    .collect();
                let map = (0..p * q)
                    .map(|id| {
                        let (i, j) = (id / q, id % q);
                        (i != di).then(|| (i - usize::from(i > di)) * q + j)
                    })
                    .collect();
                (rows, w, map)
            } else {
                // Drop column `dj`.
                let rows = all_rows
                    .iter()
                    .map(|row| {
                        row.iter()
                            .enumerate()
                            .filter(|&(j, _)| j != dj)
                            .map(|(_, &t)| t)
                            .collect()
                    })
                    .collect();
                let w = weights
                    .iter()
                    .map(|row| {
                        row.iter()
                            .enumerate()
                            .filter(|&(j, _)| j != dj)
                            .map(|(_, &x)| x)
                            .collect()
                    })
                    .collect();
                let map = (0..p * q)
                    .map(|id| {
                        let (i, j) = (id / q, id % q);
                        (j != dj).then(|| i * (q - 1) + j - usize::from(j > dj))
                    })
                    .collect();
                (rows, w, map)
            }
        }
        GridFault::Join { .. } => {
            // One new row of joiners, as fast as the fastest
            // incumbent. Existing linear ids are unchanged (the row
            // is appended and `q` stays the same).
            let t_min = arr.times().iter().copied().fold(f64::INFINITY, f64::min);
            let w_min = weights.iter().flatten().copied().min().unwrap_or(1);
            let mut rows = all_rows;
            rows.push(vec![t_min; q]);
            let mut w = weights.to_vec();
            w.push(vec![w_min; q]);
            let map = (0..p * q).map(Some).collect();
            (rows, w, map)
        }
    };
    let arr2 = Arrangement::from_rows(&rows);
    let sol = exact::solve_arrangement(&arr2);
    let dist = Box::new(PanelDist::from_allocation(
        &arr2,
        &sol.alloc,
        2 * arr2.p(),
        2 * arr2.q(),
        PanelOrdering::Interleaved,
    ));
    SurvivorGrid {
        dist,
        weights: weights2,
        proc_map,
    }
}

/// Runs one elastic-grid recovery case: the scenario of `seed` under a
/// seeded single-crash kill schedule (`variant` picks the victim and
/// the retirement boundary), driven through
/// [`hetgrid_exec::run_recovery`] and judged by the
/// [`oracles::check_recovery`] differential oracle — the recovered
/// result must be bit-exact against the fault-free reference run — plus
/// the kernel's own numerical oracle.
///
/// # Panics
/// Panics — with the seed, kill schedule, profile, and scenario in the
/// message — when recovery fails or any oracle rejects the run.
pub fn run_recovery_case(kernel: Kernel, profile: FaultProfile, seed: u64, variant: u64) {
    let sc = exec_scenario(seed);
    let (p, q) = sc.grid();
    let schedule = KillSchedule::single_crash(seed, variant, p * q, sc.nb);
    recovery_case(kernel, profile, seed, sc, schedule);
}

/// Like [`run_recovery_case`], but the grid fault is a processor *join*:
/// the grid pauses at a seeded retirement boundary, grows by a row, and
/// resumes on the re-solved distribution.
///
/// # Panics
/// Panics with the replay seed in the message when any oracle rejects
/// the run.
pub fn run_recovery_join_case(kernel: Kernel, profile: FaultProfile, seed: u64, variant: u64) {
    let sc = exec_scenario(seed);
    let schedule = KillSchedule::single_join(seed, variant, sc.nb);
    recovery_case(kernel, profile, seed, sc, schedule);
}

fn recovery_case(
    kernel: Kernel,
    profile: FaultProfile,
    seed: u64,
    sc: ExecScenario,
    schedule: KillSchedule,
) {
    let ctx = format!(
        "{kernel:?} recovery from {:?} under '{}' on {} — replay: HARNESS_SEED={seed} \
         cargo test -p hetgrid-harness",
        schedule.events,
        profile.name,
        sc.describe()
    );
    // Same matrix stream as `run_exec_case`, so a recovery failure
    // replays on the exact matrices the plain case uses.
    let mut rng = matrix_stream(seed);
    let dist = sc.dist.as_ref();
    let cfg = ExecConfig {
        lookahead: sc.lookahead,
    };
    let (a, b) = kernel_operands(kernel, &mut rng, sc.nb * sc.r);

    // The fault-free reference: the same scenario and message-fault
    // profile, no kill schedule.
    let fault_free = VirtualTransport::new(seed, profile);
    let (reference, ref_taus, _) = run_kernel(
        &fault_free,
        kernel,
        &a,
        b.as_ref(),
        dist,
        sc.nb,
        sc.r,
        &sc.weights,
        cfg,
    )
    .unwrap_or_else(|e| panic!("harness (fault-free reference): {e}\n  case: {ctx}"));

    // The faulty run: same transport semantics plus the kill schedule.
    let transport = VirtualTransport::new(seed, profile).with_kills(&schedule);
    let hooks = RecoveryHooks {
        events: Box::new(|| transport.fault_events()),
        resolve: Box::new(|fault| resolve_grid_fault(&sc.arr, &sc.weights, fault)),
        redistribute: Box::new(|dm, from, to| hetgrid_adapt::redistribute(dm, from, to)),
    };
    let out = run_recovery(
        &transport,
        recovery_input(kernel, &a, b.as_ref()),
        dist,
        sc.nb,
        sc.r,
        &sc.weights,
        cfg,
        &hooks,
    )
    .unwrap_or_else(|e| panic!("harness: {e}\n  case: {ctx}"));

    check(
        &ctx,
        oracles::check_recovery(
            &reference,
            &out.result,
            ref_taus.as_deref(),
            out.taus.as_deref(),
            &out.stats,
            schedule.events.len(),
        ),
    );
    // The recovered numerics must also satisfy the kernel's own
    // reference oracle (not just agree with the fault-free executor).
    check(
        &ctx,
        oracles::check_kernel(
            kernel,
            &a,
            b.as_ref(),
            &out.result,
            out.taus.as_deref(),
            sc.nb,
            sc.r,
        ),
    );
}

/// Runs one redistribution case: scatter a matrix, move it between two
/// seeded distributions on the same grid, and apply the conservation
/// oracle.
///
/// # Panics
/// Panics with the seed in the message when conservation fails.
pub fn run_redistribution_case(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (p, q) = [(2, 2), (2, 3), (3, 2), (3, 3)][rng.gen_range(0..4usize)];
    let arr_from = random_arrangement(&mut rng, p, q);
    let arr_to = random_arrangement(&mut rng, p, q);
    let (from, from_name) = random_dist(&mut rng, &arr_from);
    let (to, to_name) = random_dist(&mut rng, &arr_to);
    let nb = rng.gen_range(4..=8usize);
    let r = rng.gen_range(2..=3usize);
    let m = general_matrix(&mut rng, nb * r, nb * r);
    if let Err(msg) = oracles::check_redistribution(&m, from.as_ref(), to.as_ref(), nb, r) {
        panic!(
            "harness oracle failed: {msg}\n  case: redistribution {from_name} -> {to_name} \
             on {p}x{q}, nb={nb}, r={r} — replay: HARNESS_SEED={seed} cargo test -p hetgrid-harness"
        );
    }
}

/// Draws a seeded closed-loop scenario for `hetgrid-adapt`: a random
/// pool, a random drift profile (the injected cycle-time drift), and
/// the default controller.
pub fn adapt_scenario(seed: u64) -> Scenario {
    let mut rng = StdRng::seed_from_u64(seed);
    let (p, q) = [(2, 2), (2, 3)][rng.gen_range(0..2usize)];
    let n = p * q;
    let base_times: Vec<f64> = (0..n).map(|_| rng.gen_range(0.5..4.0)).collect();
    let factors: Vec<f64> = (0..n)
        .map(|_| {
            if rng.gen_bool(0.5) {
                rng.gen_range(1.5..6.0)
            } else {
                1.0
            }
        })
        .collect();
    let profile = match rng.gen_range(0..4u32) {
        0 => DriftProfile::Stationary,
        1 => DriftProfile::Step {
            at: rng.gen_range(2..10usize),
            factors,
        },
        2 => {
            let from = rng.gen_range(2..6usize);
            DriftProfile::Ramp {
                from,
                to: from + rng.gen_range(4..12usize),
                factors,
            }
        }
        _ => {
            let period = rng.gen_range(6..12usize);
            DriftProfile::PeriodicSpike {
                period,
                width: rng.gen_range(1..=period / 2),
                factors,
            }
        }
    };
    Scenario {
        base_times,
        p,
        q,
        bp: 4,
        bq: 4,
        nb: 16,
        iters: 40,
        profile,
        config: ControllerConfig::default(),
    }
}

/// Runs a seeded adapt scenario twice and checks the closed loop is
/// deterministic: identical rebalance decisions, identical makespans,
/// identical move counts. Returns the outcome for further inspection.
///
/// # Panics
/// Panics with the seed in the message when the two runs diverge.
pub fn run_adapt_case(seed: u64) -> Outcome {
    let sc = adapt_scenario(seed);
    let a = hetgrid_adapt::run_scenario(&sc);
    let b = hetgrid_adapt::run_scenario(&sc);
    let same = a.rebalances == b.rebalances
        && a.blocks_moved == b.blocks_moved
        && a.static_makespan == b.static_makespan
        && a.adaptive_makespan == b.adaptive_makespan
        && a.redistribution_cost == b.redistribution_cost
        && a.history.len() == b.history.len()
        && a.history
            .iter()
            .zip(&b.history)
            .all(|(x, y)| x.rebalanced == y.rebalanced && x.adaptive_cost == y.adaptive_cost);
    assert!(
        same,
        "harness oracle failed: adapt closed loop not deterministic \
         (runs diverged)\n  case: profile {:?} — replay: HARNESS_SEED={seed} \
         cargo test -p hetgrid-harness",
        sc.profile
    );
    a
}
