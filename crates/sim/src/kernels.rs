//! DES interpreters for the shared kernel step plans: the outer-product
//! matrix multiplication (Section 3.1), the right-looking LU / QR
//! factorizations (Section 3.2) and Cholesky, at `r x r` block
//! granularity over an arbitrary [`BlockDist`].
//!
//! The *schedule* — which block moves where, who computes what, in what
//! order — comes from [`hetgrid_plan`]; this module only applies the
//! machine cost model to it. Messages are aggregated per (source,
//! destination) pair, so on a Cartesian (strict-grid) distribution each
//! step produces exactly the grid broadcasts of the paper, while the
//! Kalinov–Lastovetsky distribution naturally produces its extra
//! horizontal transfers (Figure 3) — no special-casing, the penalty
//! emerges from the owner map itself. The Ring/Tree broadcast
//! topologies are an interpreter concern: they re-shape each plan
//! step's broadcasts into one pipelined transfer per grid row/column.
//!
//! [`simulate`] is the entry point for a [`Kernel`]; the `interpret_*`
//! functions apply the cost model to a prebuilt plan.

use crate::engine::{Engine, TaskId};
use crate::machine::{CostModel, Machine, SimReport};
use hetgrid_core::Arrangement;
use hetgrid_dist::BlockDist;
use hetgrid_plan::{cholesky_plan, factor_plan, mm_plan, Bcast, Kernel, Plan, Step};
use std::collections::BTreeMap;

/// How a block is broadcast to the processors that need it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Broadcast {
    /// The owner sends one (aggregated) message to each destination; its
    /// NIC serializes the sends.
    Direct,
    /// Pipelined ring along each grid row / column (the increasing-ring
    /// topology ScaLAPACK uses for the L panel, Section 3.2.1). Only
    /// valid for Cartesian distributions.
    Ring,
    /// Binomial (minimum-spanning-tree style) broadcast — the topology
    /// ScaLAPACK uses for the U panel (Section 3.2.1). Only valid for
    /// Cartesian distributions.
    Tree,
}

/// Emits a broadcast of an identical payload from `src` to `dests` (in
/// the given order) under the Ring or Tree topology. Returns the
/// delivering message task per destination.
///
/// # Panics
/// Panics for `Broadcast::Direct`, which [`emit_direct`] handles.
fn emit_ordered_broadcast(
    engine: &mut Engine,
    machine: &Machine<'_>,
    mode: Broadcast,
    src: (usize, usize),
    dests: &[(usize, usize)],
    blocks: usize,
    root_deps: Vec<TaskId>,
) -> Vec<((usize, usize), TaskId)> {
    let mut out = Vec::with_capacity(dests.len());
    match mode {
        Broadcast::Direct => unreachable!("direct broadcasts are aggregated by emit_direct"),
        Broadcast::Ring => {
            let mut hop_src = src;
            let mut prev: Option<TaskId> = None;
            for &dst in dests {
                let deps = match prev {
                    Some(t) => vec![t],
                    None => root_deps.clone(),
                };
                let m = machine.message(engine, deps, hop_src, dst, blocks);
                out.push((dst, m));
                hop_src = dst;
                prev = Some(m);
            }
        }
        Broadcast::Tree => {
            // Binomial: the set of holders doubles every round.
            let mut holders: Vec<((usize, usize), Option<TaskId>)> = vec![(src, None)];
            let mut di = 0usize;
            while di < dests.len() {
                let round = holders.clone();
                for (h, arrival) in round {
                    if di >= dests.len() {
                        break;
                    }
                    let dst = dests[di];
                    di += 1;
                    let deps = match arrival {
                        Some(t) => vec![t],
                        None => root_deps.clone(),
                    };
                    let m = machine.message(engine, deps, h, dst, blocks);
                    out.push((dst, m));
                    holders.push((dst, Some(m)));
                }
            }
        }
    }
    out
}

/// A simulation run retaining the task graph and schedule, so the
/// execution can be rendered with [`crate::trace`].
#[derive(Clone, Debug)]
pub struct TracedRun {
    /// The task graph that was executed.
    pub engine: Engine,
    /// The resulting schedule.
    pub schedule: crate::engine::Schedule,
    /// The aggregate makespan / busy-time report.
    pub report: SimReport,
}

/// Runs the built engine and extracts the grid report plus the trace.
fn finish_run_traced(machine: &Machine<'_>, engine: Engine) -> TracedRun {
    let schedule = engine.run();
    let report = SimReport {
        makespan: schedule.makespan,
        core_busy: machine.core_busy(&schedule),
        comm_time: schedule.comm_time,
        compute_time: schedule.compute_time,
    };
    TracedRun {
        engine,
        schedule,
        report,
    }
}

/// Helper tracking the last task issued on every processor, enforcing
/// per-processor program order (SPMD execution).
struct ProcState {
    q: usize,
    last: Vec<Option<TaskId>>,
}

impl ProcState {
    fn new(p: usize, q: usize) -> Self {
        ProcState {
            q,
            last: vec![None; p * q],
        }
    }
    fn deps_with_last(&self, (i, j): (usize, usize), mut deps: Vec<TaskId>) -> Vec<TaskId> {
        if let Some(t) = self.last[i * self.q + j] {
            deps.push(t);
        }
        deps
    }
    fn set_last(&mut self, (i, j): (usize, usize), t: TaskId) {
        self.last[i * self.q + j] = Some(t);
    }
    fn get(&self, (i, j): (usize, usize)) -> Option<TaskId> {
        self.last[i * self.q + j]
    }
}

/// Simulates `kernel` on an `nb x nb` block matrix laid out by `dist`:
/// builds the kernel's step plan and applies the machine cost model to
/// it. This is the one DES entry point; the `interpret_*` functions
/// below take a prebuilt plan.
///
/// Kernel to plan and interpreter:
/// * [`Kernel::Mm`] — [`mm_plan`] through [`interpret_mm`];
/// * [`Kernel::Lu`] — [`factor_plan`] through
///   [`interpret_factor`] with [`FactorKind::Lu`];
/// * [`Kernel::Qr`] — the same `factor_plan` with [`FactorKind::Qr`]:
///   the DES models QR as LU's schedule with twice the arithmetic per
///   block (Section 3.2), not the fan-in `qr_plan` that
///   [`Kernel::plan`] and the executor run;
/// * [`Kernel::Cholesky`] — [`cholesky_plan`] through
///   [`interpret_cholesky`] (direct broadcasts only).
///
/// # Panics
/// Panics if the distribution's grid differs from the arrangement's, or
/// a non-`Direct` broadcast is requested for [`Kernel::Cholesky`] or for
/// a non-Cartesian distribution.
pub fn simulate(
    arr: &Arrangement,
    dist: &dyn BlockDist,
    kernel: Kernel,
    nb: usize,
    cost: CostModel,
    broadcast: Broadcast,
) -> TracedRun {
    assert_eq!(dist.grid(), (arr.p(), arr.q()), "simulate: grid mismatch");
    if broadcast != Broadcast::Direct {
        assert!(
            kernel != Kernel::Cholesky,
            "Cholesky simulates direct broadcasts only"
        );
        assert!(
            dist.is_cartesian(),
            "ring/tree broadcasts require a Cartesian (strict-grid) distribution"
        );
    }
    match kernel {
        Kernel::Mm => interpret_mm(arr, &mm_plan(dist, nb), cost, broadcast),
        Kernel::Lu => {
            interpret_factor(arr, &factor_plan(dist, nb), cost, FactorKind::Lu, broadcast)
        }
        Kernel::Qr => {
            interpret_factor(arr, &factor_plan(dist, nb), cost, FactorKind::Qr, broadcast)
        }
        Kernel::Cholesky => interpret_cholesky(arr, &cholesky_plan(dist, nb), cost),
    }
}

/// Emits a step's direct broadcasts as one aggregated message per
/// (source, destination) pair, in pair order, each depending on `dep`
/// of its source, and files the messages under their destination in
/// `incoming`.
fn emit_direct<'b>(
    engine: &mut Engine,
    machine: &Machine<'_>,
    incoming: &mut BTreeMap<(usize, usize), Vec<TaskId>>,
    bcasts: impl IntoIterator<Item = &'b Bcast>,
    dep: impl Fn((usize, usize)) -> Option<TaskId>,
) {
    let mut msgs: BTreeMap<((usize, usize), (usize, usize)), usize> = BTreeMap::new();
    for b in bcasts {
        for &dst in &b.dests {
            *msgs.entry((b.src, dst)).or_insert(0) += 1;
        }
    }
    for (&(src, dst), &blocks) in &msgs {
        let m = machine.message(engine, dep(src).into_iter().collect(), src, dst, blocks);
        incoming.entry(dst).or_default().push(m);
    }
}

/// Applies the DES cost model to an MM step plan ([`mm_plan`] /
/// [`hetgrid_plan::mm_rect_plan`]): at each step `k` the owners of
/// block column `k` of `A` broadcast horizontally, the owners of block
/// row `k` of `B` broadcast vertically, then every processor updates
/// all the `C` blocks it owns.
///
/// Non-`Direct` topologies assume the plan came from a Cartesian
/// distribution ([`simulate`] enforces this).
///
/// # Panics
/// Panics if the plan's grid differs from the arrangement's or the plan
/// contains non-MM steps.
pub fn interpret_mm(
    arr: &Arrangement,
    plan: &Plan,
    cost: CostModel,
    broadcast: Broadcast,
) -> TracedRun {
    let (p, q) = plan.grid;
    assert_eq!((p, q), (arr.p(), arr.q()), "interpret_mm: grid mismatch");
    let mut engine = Engine::new();
    let machine = Machine::new(&mut engine, arr, cost);
    let mut procs = ProcState::new(p, q);
    let owned = &plan.owned;

    for step in &plan.steps {
        let Step::Mm {
            a_bcasts, b_bcasts, ..
        } = step
        else {
            panic!("interpret_mm: non-MM step in plan")
        };
        // --- Horizontal broadcasts: block (bi, k) of A to every owner
        // of block row bi; vertical for B.
        let mut incoming: BTreeMap<(usize, usize), Vec<TaskId>> = BTreeMap::new();
        match broadcast {
            Broadcast::Direct => {
                let bcasts = a_bcasts.iter().chain(b_bcasts);
                emit_direct(&mut engine, &machine, &mut incoming, bcasts, |src| {
                    procs.get(src)
                });
            }
            Broadcast::Ring | Broadcast::Tree => {
                // Cartesian: one pipelined ring / binomial tree per grid
                // row (A panel) and per grid column (B panel).
                let src_col = a_bcasts[0].src.1;
                for gi in 0..p {
                    // Blocks of column k owned by grid row gi.
                    let blocks = a_bcasts.iter().filter(|b| b.src.0 == gi).count();
                    let src = (gi, src_col);
                    let dests: Vec<(usize, usize)> =
                        (1..q).map(|step| (gi, (src_col + step) % q)).collect();
                    let root_deps = procs.get(src).into_iter().collect();
                    for (dst, m) in emit_ordered_broadcast(
                        &mut engine,
                        &machine,
                        broadcast,
                        src,
                        &dests,
                        blocks,
                        root_deps,
                    ) {
                        incoming.entry(dst).or_default().push(m);
                    }
                }
                let src_row = b_bcasts[0].src.0;
                for gj in 0..q {
                    let blocks = b_bcasts.iter().filter(|b| b.src.1 == gj).count();
                    let src = (src_row, gj);
                    let dests: Vec<(usize, usize)> =
                        (1..p).map(|step| ((src_row + step) % p, gj)).collect();
                    let root_deps = procs.get(src).into_iter().collect();
                    for (dst, m) in emit_ordered_broadcast(
                        &mut engine,
                        &machine,
                        broadcast,
                        src,
                        &dests,
                        blocks,
                        root_deps,
                    ) {
                        incoming.entry(dst).or_default().push(m);
                    }
                }
            }
        }

        // --- Local rank-r updates: every processor updates all its
        // owned C blocks.
        for i in 0..p {
            for j in 0..q {
                if owned[i][j] == 0 {
                    continue;
                }
                let deps = incoming.remove(&(i, j)).unwrap_or_default();
                let deps = procs.deps_with_last((i, j), deps);
                let t = machine.compute(&mut engine, deps, (i, j), owned[i][j], 1.0);
                procs.set_last((i, j), t);
            }
        }
    }

    finish_run_traced(&machine, engine)
}

/// Which factorization to simulate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FactorKind {
    /// Right-looking LU (Section 3.2.1).
    Lu,
    /// Householder QR — same communication structure, roughly twice the
    /// arithmetic per block (Section 3.2's "analogous" parallelization).
    Qr,
}

/// Applies the DES cost model to an LU-shaped factorization step plan
/// ([`factor_plan`]); `kind` selects the arithmetic scale (QR costs
/// twice LU per block, Section 3.2).
///
/// Step `k`: factor the panel (block column `k`, rows `>= k`), broadcast
/// the lower factor along grid rows, triangular-solve the pivot block
/// row, broadcast it along grid columns, then rank-`r`-update the
/// trailing submatrix. A non-`Direct` topology is applied to both the
/// `L` and `U` panels (ScaLAPACK uses increasing-ring for `L` and a
/// minimum-spanning-tree for `U`, Section 3.2.1) and assumes a
/// Cartesian plan ([`simulate`] enforces this).
///
/// # Panics
/// Panics if the plan's grid differs from the arrangement's or the plan
/// contains non-factor steps.
pub fn interpret_factor(
    arr: &Arrangement,
    plan: &Plan,
    cost: CostModel,
    kind: FactorKind,
    broadcast: Broadcast,
) -> TracedRun {
    let (p, q) = plan.grid;
    assert_eq!(
        (p, q),
        (arr.p(), arr.q()),
        "interpret_factor: grid mismatch"
    );
    let flop_scale = match kind {
        FactorKind::Lu => 1.0,
        FactorKind::Qr => 2.0,
    };
    let panel_cost = cost.panel_cost * flop_scale;
    let trsm_cost = cost.trsm_cost * flop_scale;
    let update_cost = flop_scale;
    let nb = plan.steps.len();

    let mut engine = Engine::new();
    let machine = Machine::new(&mut engine, arr, cost);
    let mut procs = ProcState::new(p, q);

    for step in &plan.steps {
        let Step::Factor {
            k,
            diag,
            panel,
            l_bcasts,
            trsm,
            u_bcasts,
            trailing,
            ..
        } = step
        else {
            panic!("interpret_factor: non-factor step in plan")
        };
        let k = *k;

        // --- Panel factorization: owners of blocks (bi, k), bi >= k.
        let mut panel_tasks: BTreeMap<(usize, usize), TaskId> = BTreeMap::new();
        for w in panel {
            let deps = procs.deps_with_last(w.owner, vec![]);
            let t = machine.compute(&mut engine, deps, w.owner, w.blocks, panel_cost);
            panel_tasks.insert(w.owner, t);
            procs.set_last(w.owner, t);
        }

        if k + 1 == nb {
            continue; // last panel: nothing trailing
        }

        // --- L broadcast along rows: block (bi, k) (bi >= k) goes to
        // every owner of trailing blocks in block row bi (bj > k). For
        // bi == k this also delivers the diagonal block to the pivot row
        // (needed by the triangular solves).
        let mut l_incoming: BTreeMap<(usize, usize), Vec<TaskId>> = BTreeMap::new();
        if broadcast == Broadcast::Direct {
            let dep = |src| Some(panel_tasks[&src]);
            emit_direct(&mut engine, &machine, &mut l_incoming, l_bcasts, dep);
        } else {
            // Cartesian ring/tree: one broadcast per grid row, to the
            // grid columns owning trailing block columns.
            let src_col = l_bcasts[0].src.1;
            let mut trailing_cols: Vec<usize> = u_bcasts.iter().map(|b| b.src.1).collect();
            trailing_cols.sort_unstable();
            trailing_cols.dedup();
            for gi in 0..p {
                let blocks = l_bcasts.iter().filter(|b| b.src.0 == gi).count();
                if blocks == 0 {
                    continue;
                }
                let src = (gi, src_col);
                let dests: Vec<(usize, usize)> = (1..q)
                    .map(|s| (src_col + s) % q)
                    .filter(|gj| trailing_cols.contains(gj))
                    .map(|gj| (gi, gj))
                    .collect();
                if dests.is_empty() {
                    continue;
                }
                let root = panel_tasks.get(&src).map(|&t| vec![t]).unwrap_or_default();
                for (dst, m) in emit_ordered_broadcast(
                    &mut engine,
                    &machine,
                    broadcast,
                    src,
                    &dests,
                    blocks,
                    root,
                ) {
                    l_incoming.entry(dst).or_default().push(m);
                }
            }
        }

        // --- Triangular solves on the pivot block row: owners of
        // (k, bj), bj > k.
        let mut trsm_tasks: BTreeMap<(usize, usize), TaskId> = BTreeMap::new();
        for w in trsm {
            let mut deps = Vec::new();
            if w.owner == *diag {
                deps.push(panel_tasks[diag]);
            } else {
                // The diagonal block arrives with the L messages.
                deps.extend(l_incoming.get(&w.owner).into_iter().flatten().copied());
            }
            let deps = procs.deps_with_last(w.owner, deps);
            let t = machine.compute(&mut engine, deps, w.owner, w.blocks, trsm_cost);
            trsm_tasks.insert(w.owner, t);
            procs.set_last(w.owner, t);
        }

        // --- U broadcast along columns: block (k, bj) (bj > k) goes to
        // every owner of trailing blocks in block column bj (bi > k).
        let mut u_incoming: BTreeMap<(usize, usize), Vec<TaskId>> = BTreeMap::new();
        if broadcast == Broadcast::Direct {
            let dep = |src| Some(trsm_tasks[&src]);
            emit_direct(&mut engine, &machine, &mut u_incoming, u_bcasts, dep);
        } else {
            // Cartesian ring/tree: one broadcast per grid column, to the
            // grid rows owning trailing block rows.
            let src_row = l_bcasts[0].src.0;
            let mut trailing_rows: Vec<usize> = l_bcasts[1..].iter().map(|b| b.src.0).collect();
            trailing_rows.sort_unstable();
            trailing_rows.dedup();
            for gj in 0..q {
                let blocks = u_bcasts.iter().filter(|b| b.src.1 == gj).count();
                if blocks == 0 {
                    continue;
                }
                let src = (src_row, gj);
                let dests: Vec<(usize, usize)> = (1..p)
                    .map(|s| (src_row + s) % p)
                    .filter(|gi| trailing_rows.contains(gi))
                    .map(|gi| (gi, gj))
                    .collect();
                if dests.is_empty() {
                    continue;
                }
                let root = trsm_tasks.get(&src).map(|&t| vec![t]).unwrap_or_default();
                for (dst, m) in emit_ordered_broadcast(
                    &mut engine,
                    &machine,
                    broadcast,
                    src,
                    &dests,
                    blocks,
                    root,
                ) {
                    u_incoming.entry(dst).or_default().push(m);
                }
            }
        }

        // --- Trailing rank-r update.
        for i in 0..p {
            for j in 0..q {
                if trailing[i][j] == 0 {
                    continue;
                }
                let owner = (i, j);
                let mut deps = Vec::new();
                deps.extend(l_incoming.get(&owner).into_iter().flatten().copied());
                deps.extend(u_incoming.get(&owner).into_iter().flatten().copied());
                if let Some(&t) = panel_tasks.get(&owner) {
                    deps.push(t);
                }
                if let Some(&t) = trsm_tasks.get(&owner) {
                    deps.push(t);
                }
                let deps = procs.deps_with_last(owner, deps);
                let t = machine.compute(&mut engine, deps, owner, trailing[i][j], update_cost);
                procs.set_last(owner, t);
            }
        }
    }

    finish_run_traced(&machine, engine)
}

/// Simulates the distributed *triangular solve* `L x = b` at block
/// granularity (the solve phase that follows a factorization — the
/// other half of "dense linear system solvers").
///
/// Step `k`: the owner of the diagonal block solves for `x_k` (needs
/// every earlier contribution to `b_k`); `x_k` is broadcast down block
/// column `k`; each owner of `L(bi, k)`, `bi > k`, computes its partial
/// product and sends it to the owner of `b_bi` (who accumulates).
///
/// Triangular solves are critical-path bound: expect utilization far
/// below the factorization's — the classic reason libraries amortize
/// one factorization over many solves.
///
/// # Panics
/// Panics if the grids mismatch.
pub fn simulate_trsv(
    arr: &Arrangement,
    dist: &dyn BlockDist,
    nb: usize,
    cost: CostModel,
) -> SimReport {
    let (p, q) = dist.grid();
    assert_eq!((p, q), (arr.p(), arr.q()), "simulate_trsv: grid mismatch");
    let mut engine = Engine::new();
    let machine = Machine::new(&mut engine, arr, cost);
    let mut procs = ProcState::new(p, q);

    // b_i lives with the owner of block (i, i)'s row in grid column of
    // block column 0 — keep it simple: b_i lives with owner(i, 0).
    // contributions[i]: tasks that must finish before x_i can be solved.
    let mut contributions: Vec<Vec<TaskId>> = vec![Vec::new(); nb];

    for k in 0..nb {
        let b_owner = dist.owner(k, 0);
        let diag_owner = dist.owner(k, k);
        // If b_k lives elsewhere, it must reach the diagonal owner.
        let mut deps = std::mem::take(&mut contributions[k]);
        if b_owner != diag_owner {
            let m = machine.message(&mut engine, deps, b_owner, diag_owner, 1);
            deps = vec![m];
        }
        let deps = procs.deps_with_last(diag_owner, deps);
        let solve = machine.compute(&mut engine, deps, diag_owner, 1, cost.trsm_cost);
        procs.set_last(diag_owner, solve);

        // Broadcast x_k to the owners of the column below, who compute
        // partial products and ship them to the b owners.
        let mut col_owners: BTreeMap<(usize, usize), Vec<usize>> = BTreeMap::new();
        for bi in k + 1..nb {
            col_owners.entry(dist.owner(bi, k)).or_default().push(bi);
        }
        for (&owner, rows) in &col_owners {
            let xk_arrival = if owner == diag_owner {
                solve
            } else {
                machine.message(&mut engine, vec![solve], diag_owner, owner, 1)
            };
            let deps = procs.deps_with_last(owner, vec![xk_arrival]);
            let gemv = machine.compute(&mut engine, deps, owner, rows.len(), 1.0);
            procs.set_last(owner, gemv);
            // One accumulated message per destination b-owner.
            let mut per_dest: BTreeMap<(usize, usize), usize> = BTreeMap::new();
            for &bi in rows {
                *per_dest.entry(dist.owner(bi, 0)).or_insert(0) += 1;
            }
            for (&dest, &blocks) in &per_dest {
                let arrival = if dest == owner {
                    gemv
                } else {
                    machine.message(&mut engine, vec![gemv], owner, dest, blocks)
                };
                for &bi in rows {
                    if dist.owner(bi, 0) == dest {
                        contributions[bi].push(arrival);
                    }
                }
            }
        }
    }
    finish_run_traced(&machine, engine).report
}

/// Applies the DES cost model to a right-looking Cholesky step plan
/// ([`cholesky_plan`]; `A = L L^T`, lower triangle only — the third
/// ScaLAPACK factorization, the paper's reference \[8]).
///
/// Step `k`: the owner of the diagonal block factors it; the owners of
/// the panel blocks `(bi, k)`, `bi > k` triangular-solve them; each
/// panel block is then broadcast to the owners of the trailing *lower
/// triangle* blocks in its row **and** its column (the symmetric update
/// `A_ij -= L_ik L_jk^T` needs both factors); finally the trailing
/// lower-triangle blocks are updated.
///
/// # Panics
/// Panics if the plan's grid differs from the arrangement's or the plan
/// contains non-Cholesky steps.
pub fn interpret_cholesky(arr: &Arrangement, plan: &Plan, cost: CostModel) -> TracedRun {
    let (p, q) = plan.grid;
    assert_eq!(
        (p, q),
        (arr.p(), arr.q()),
        "interpret_cholesky: grid mismatch"
    );
    let nb = plan.steps.len();
    let mut engine = Engine::new();
    let machine = Machine::new(&mut engine, arr, cost);
    let mut procs = ProcState::new(p, q);

    for step in &plan.steps {
        let Step::Cholesky {
            k,
            diag,
            panel,
            panel_bcasts,
            trailing,
            ..
        } = step
        else {
            panic!("interpret_cholesky: non-Cholesky step in plan")
        };
        let (k, diag_owner) = (*k, *diag);

        // --- 1. Diagonal block factorization.
        let diag_task = {
            let deps = procs.deps_with_last(diag_owner, vec![]);
            let t = machine.compute(&mut engine, deps, diag_owner, 1, cost.panel_cost);
            procs.set_last(diag_owner, t);
            t
        };
        if k + 1 == nb {
            continue;
        }

        // --- 2. Diagonal factor to the panel owners below (panel work
        // entries are in sorted owner order, matching the historical
        // message emission order).
        let mut diag_arrived: BTreeMap<(usize, usize), TaskId> = BTreeMap::new();
        for w in panel {
            if w.owner != diag_owner {
                let m = machine.message(&mut engine, vec![diag_task], diag_owner, w.owner, 1);
                diag_arrived.insert(w.owner, m);
            }
        }

        // --- 3. Panel triangular solves.
        let mut panel_tasks: BTreeMap<(usize, usize), TaskId> = BTreeMap::new();
        for w in panel {
            let mut deps = Vec::new();
            if w.owner == diag_owner {
                deps.push(diag_task);
            } else {
                deps.push(diag_arrived[&w.owner]);
            }
            let deps = procs.deps_with_last(w.owner, deps);
            let t = machine.compute(&mut engine, deps, w.owner, w.blocks, cost.trsm_cost);
            panel_tasks.insert(w.owner, t);
            procs.set_last(w.owner, t);
        }

        // --- 4. Panel broadcast: block (bi, k) to the owners of the
        // trailing lower-triangle blocks that need it — row bi (as the
        // left factor) and column bi (as the right factor).
        let mut incoming = BTreeMap::new();
        let dep = |src| Some(panel_tasks[&src]);
        emit_direct(&mut engine, &machine, &mut incoming, panel_bcasts, dep);

        // --- 5. Symmetric trailing update (lower triangle only).
        for w in trailing {
            let mut deps = incoming.remove(&w.owner).unwrap_or_default();
            if let Some(&t) = panel_tasks.get(&w.owner) {
                deps.push(t);
            }
            let deps = procs.deps_with_last(w.owner, deps);
            let t = machine.compute(&mut engine, deps, w.owner, w.blocks, 1.0);
            procs.set_last(w.owner, t);
        }
    }

    finish_run_traced(&machine, engine)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Network;
    use hetgrid_core::exact;
    use hetgrid_dist::{BlockCyclic, KlDist, PanelDist, PanelOrdering};
    use hetgrid_plan::mm_rect_plan;

    fn fig1_arr() -> Arrangement {
        Arrangement::from_rows(&[vec![1.0, 2.0], vec![3.0, 6.0]])
    }

    /// [`simulate`]'s report with direct broadcasts.
    fn sim_direct(
        arr: &Arrangement,
        dist: &dyn BlockDist,
        kernel: Kernel,
        nb: usize,
        cost: CostModel,
    ) -> SimReport {
        simulate(arr, dist, kernel, nb, cost, Broadcast::Direct).report
    }

    #[test]
    fn mm_zero_comm_homogeneous_exact_time() {
        // 2x2 homogeneous grid, 4x4 blocks, zero comm: every processor
        // updates 4 blocks per step for 4 steps -> makespan 16.
        let arr = Arrangement::from_rows(&[vec![1.0, 1.0], vec![1.0, 1.0]]);
        let dist = BlockCyclic::new(2, 2);
        let rep = sim_direct(&arr, &dist, Kernel::Mm, 4, CostModel::zero_comm());
        assert_eq!(rep.makespan, 16.0);
        assert!((rep.average_utilization() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mm_zero_comm_heterogeneous_cyclic_slowest_bound() {
        // Uniform cyclic on Figure 1's grid: the t=6 processor gets the
        // same block count as everyone else.
        let arr = fig1_arr();
        let dist = BlockCyclic::new(2, 2);
        let nb = 4;
        let rep = sim_direct(&arr, &dist, Kernel::Mm, nb, CostModel::zero_comm());
        // 4 owned blocks * 6.0 per step * 4 steps.
        assert_eq!(rep.makespan, 4.0 * 6.0 * 4.0);
    }

    #[test]
    fn mm_panel_beats_cyclic_on_heterogeneous_grid() {
        let arr = fig1_arr();
        let sol = exact::solve_arrangement(&arr);
        let panel = PanelDist::from_allocation(&arr, &sol.alloc, 4, 3, PanelOrdering::Contiguous);
        let cyclic = BlockCyclic::new(2, 2);
        let nb = 12;
        let cost = CostModel::default();
        let rp = sim_direct(&arr, &panel, Kernel::Mm, nb, cost);
        let rc = sim_direct(&arr, &cyclic, Kernel::Mm, nb, cost);
        assert!(
            rp.makespan < rc.makespan,
            "panel {} !< cyclic {}",
            rp.makespan,
            rc.makespan
        );
        // The paper's headline: on this rank-1 grid the panel
        // distribution should approach full utilization.
        assert!(
            rp.average_utilization() > 0.7,
            "util {}",
            rp.average_utilization()
        );
    }

    #[test]
    fn mm_ring_matches_direct_shape() {
        let arr = fig1_arr();
        let sol = exact::solve_arrangement(&arr);
        let panel = PanelDist::from_allocation(&arr, &sol.alloc, 4, 3, PanelOrdering::Contiguous);
        let cost = CostModel::default();
        let rd = sim_direct(&arr, &panel, Kernel::Mm, 8, cost);
        let rr = simulate(&arr, &panel, Kernel::Mm, 8, cost, Broadcast::Ring).report;
        // Both must exceed the zero-comm bound and be within 3x of each
        // other (they differ only in broadcast topology).
        let r0 = sim_direct(&arr, &panel, Kernel::Mm, 8, CostModel::zero_comm());
        assert!(rd.makespan >= r0.makespan);
        assert!(rr.makespan >= r0.makespan);
        assert!(rd.makespan < 3.0 * rr.makespan && rr.makespan < 3.0 * rd.makespan);
    }

    #[test]
    #[should_panic(expected = "Cartesian")]
    fn ring_on_kl_rejected() {
        let arr = Arrangement::from_rows(&[vec![1.0, 2.0], vec![3.0, 5.0]]);
        let kl = KlDist::new(&arr, 4, 4);
        simulate(
            &arr,
            &kl,
            Kernel::Mm,
            4,
            CostModel::default(),
            Broadcast::Ring,
        );
    }

    #[test]
    #[should_panic(expected = "Cholesky simulates direct broadcasts only")]
    fn cholesky_ring_rejected() {
        let arr = fig1_arr();
        let cyclic = BlockCyclic::new(2, 2);
        simulate(
            &arr,
            &cyclic,
            Kernel::Cholesky,
            4,
            CostModel::default(),
            Broadcast::Ring,
        );
    }

    #[test]
    fn simulate_runs_each_kernel_through_its_plan_and_interpreter() {
        // Pins the kernel -> (plan, interpreter) table, including QR's
        // model as LU's factor plan at twice the arithmetic.
        let arr = fig1_arr();
        let sol = exact::solve_arrangement(&arr);
        let panel = PanelDist::from_allocation(&arr, &sol.alloc, 4, 3, PanelOrdering::Interleaved);
        let (nb, cost) = (7, CostModel::default());
        let key = |r: SimReport| (r.makespan, r.comm_time, r.compute_time, r.core_busy);
        for kernel in Kernel::ALL {
            let got = simulate(&arr, &panel, kernel, nb, cost, Broadcast::Direct).report;
            let want = match kernel {
                Kernel::Mm => interpret_mm(&arr, &mm_plan(&panel, nb), cost, Broadcast::Direct),
                Kernel::Lu | Kernel::Qr => {
                    let kind = if kernel == Kernel::Lu {
                        FactorKind::Lu
                    } else {
                        FactorKind::Qr
                    };
                    let plan = factor_plan(&panel, nb);
                    interpret_factor(&arr, &plan, cost, kind, Broadcast::Direct)
                }
                Kernel::Cholesky => interpret_cholesky(&arr, &cholesky_plan(&panel, nb), cost),
            }
            .report;
            assert_eq!(key(got), key(want), "{}", kernel.name());
        }
    }

    #[test]
    fn kl_pays_more_messages_than_panel() {
        // Same aggregate balance, but KL's broken grid pattern must cost
        // more communication time on a shared bus.
        let arr = Arrangement::from_rows(&[vec![1.0, 2.0], vec![3.0, 5.0]]);
        let exact_sol = exact::solve_arrangement(&arr);
        let panel =
            PanelDist::from_allocation(&arr, &exact_sol.alloc, 4, 3, PanelOrdering::Contiguous);
        let kl = KlDist::new(&arr, 4, 6);
        let cost = CostModel {
            latency: 0.5,
            block_transfer: 0.01,
            network: Network::SharedBus,
            ..Default::default()
        };
        let nb = 12;
        let rp = sim_direct(&arr, &panel, Kernel::Mm, nb, cost);
        let rk = sim_direct(&arr, &kl, Kernel::Mm, nb, cost);
        assert!(
            rk.comm_time > rp.comm_time,
            "KL comm {} !> panel comm {}",
            rk.comm_time,
            rp.comm_time
        );
    }

    #[test]
    fn lu_zero_comm_homogeneous_sums_step_maxima() {
        // 2x2 homogeneous, nb = 4, zero comm. With per-processor program
        // order, the makespan is bounded below by the critical
        // (diagonal-owner) chain and above by the sum of step maxima.
        let arr = Arrangement::from_rows(&[vec![1.0, 1.0], vec![1.0, 1.0]]);
        let dist = BlockCyclic::new(2, 2);
        let rep = sim_direct(&arr, &dist, Kernel::Lu, 4, CostModel::zero_comm());
        assert!(rep.makespan > 0.0);
        let total_work: f64 = rep.core_busy.iter().flatten().sum();
        // All work must be accounted: sum over steps of panel+trsm+update
        // block counts = sum_k [ (nb-k) + (nb-k-1) + (nb-k-1)^2 ].
        let nb = 4usize;
        let expect: usize = (0..nb)
            .map(|k| {
                (nb - k)
                    + if k + 1 < nb {
                        (nb - k - 1) + (nb - k - 1) * (nb - k - 1)
                    } else {
                        0
                    }
            })
            .sum();
        assert!((total_work - expect as f64).abs() < 1e-9);
    }

    #[test]
    fn lu_panel_interleaved_beats_cyclic() {
        let arr = Arrangement::from_rows(&[vec![1.0, 2.0], vec![3.0, 5.0]]);
        let sol = exact::solve_arrangement(&arr);
        let panel = PanelDist::from_allocation(&arr, &sol.alloc, 8, 6, PanelOrdering::Interleaved);
        let cyclic = BlockCyclic::new(2, 2);
        let nb = 24;
        let cost = CostModel::default();
        let rp = sim_direct(&arr, &panel, Kernel::Lu, nb, cost);
        let rc = sim_direct(&arr, &cyclic, Kernel::Lu, nb, cost);
        assert!(
            rp.makespan < rc.makespan,
            "panel {} !< cyclic {}",
            rp.makespan,
            rc.makespan
        );
    }

    #[test]
    fn qr_costs_twice_lu_with_zero_comm() {
        let arr = fig1_arr();
        let dist = BlockCyclic::new(2, 2);
        let zero = CostModel::zero_comm();
        let lu = simulate(&arr, &dist, Kernel::Lu, 6, zero, Broadcast::Direct).report;
        let qr = simulate(&arr, &dist, Kernel::Qr, 6, zero, Broadcast::Direct).report;
        assert!((qr.makespan - 2.0 * lu.makespan).abs() < 1e-9);
    }

    #[test]
    fn mm_comm_increases_makespan() {
        let arr = fig1_arr();
        let dist = BlockCyclic::new(2, 2);
        let free = sim_direct(&arr, &dist, Kernel::Mm, 6, CostModel::zero_comm());
        let costly = sim_direct(
            &arr,
            &dist,
            Kernel::Mm,
            6,
            CostModel {
                latency: 2.0,
                block_transfer: 0.5,
                ..Default::default()
            },
        );
        assert!(costly.makespan > free.makespan);
        assert!(costly.comm_time > 0.0);
    }

    #[test]
    fn tree_broadcast_bounded_by_direct_and_ring() {
        // On a wide grid with high latency, the binomial tree beats the
        // direct star (log vs linear source serialization).
        let arr = Arrangement::from_rows(&[vec![1.0; 8]]);
        let dist = BlockCyclic::new(1, 8);
        let cost = CostModel {
            latency: 5.0,
            block_transfer: 0.0,
            ..Default::default()
        };
        let td = sim_direct(&arr, &dist, Kernel::Mm, 8, cost);
        let tt = simulate(&arr, &dist, Kernel::Mm, 8, cost, Broadcast::Tree).report;
        assert!(
            tt.makespan < td.makespan,
            "tree {} !< direct {}",
            tt.makespan,
            td.makespan
        );
    }

    #[test]
    fn factor_broadcast_modes_all_valid() {
        let arr = Arrangement::from_rows(&[vec![1.0, 2.0], vec![3.0, 5.0]]);
        let sol = exact::solve_arrangement(&arr);
        let panel = PanelDist::from_allocation(&arr, &sol.alloc, 8, 6, PanelOrdering::Interleaved);
        let nb = 16;
        let cost = CostModel::default();
        let lb = crate::bsp::lu_update_lower_bound(&arr, &panel, nb);
        for mode in [Broadcast::Direct, Broadcast::Ring, Broadcast::Tree] {
            let rep = simulate(&arr, &panel, Kernel::Lu, nb, cost, mode).report;
            assert!(
                rep.makespan >= lb - 1e-9,
                "mode {:?} below bound: {} < {}",
                mode,
                rep.makespan,
                lb
            );
            // Work is identical across modes; only comm differs.
            let direct = sim_direct(&arr, &panel, Kernel::Lu, nb, cost);
            assert!((rep.compute_time - direct.compute_time).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "Cartesian")]
    fn factor_tree_on_kl_rejected() {
        let arr = Arrangement::from_rows(&[vec![1.0, 2.0], vec![3.0, 5.0]]);
        let kl = KlDist::new(&arr, 4, 4);
        simulate(
            &arr,
            &kl,
            Kernel::Lu,
            8,
            CostModel::default(),
            Broadcast::Tree,
        );
    }

    #[test]
    fn suffix_interleaved_lu_not_worse_on_skewed_counts() {
        // With skewed per-panel counts, the suffix-balanced panel order
        // must not lose to the prefix-greedy one in the full 2D LU
        // simulation (zero comm isolates the ordering effect).
        let arr = Arrangement::from_rows(&[vec![1.0, 3.0], vec![2.0, 6.0]]);
        let sol = exact::solve_arrangement(&arr);
        let nb = 32;
        let prefix = PanelDist::from_allocation(&arr, &sol.alloc, 8, 8, PanelOrdering::Interleaved);
        let suffix =
            PanelDist::from_allocation(&arr, &sol.alloc, 8, 8, PanelOrdering::SuffixInterleaved);
        assert_eq!(prefix.per_panel_counts(), suffix.per_panel_counts());
        let mp = sim_direct(&arr, &prefix, Kernel::Lu, nb, CostModel::zero_comm()).makespan;
        let ms = sim_direct(&arr, &suffix, Kernel::Lu, nb, CostModel::zero_comm()).makespan;
        assert!(
            ms <= mp * 1.02,
            "suffix-interleaved {} much worse than prefix {}",
            ms,
            mp
        );
    }

    #[test]
    fn trsv_is_critical_path_bound() {
        // Utilization of the triangular solve is far below MM's: the
        // dependency chain through the diagonal dominates.
        let arr = Arrangement::from_rows(&[vec![1.0, 2.0], vec![3.0, 5.0]]);
        let dist = BlockCyclic::new(2, 2);
        let nb = 16;
        let cost = CostModel::default();
        let trsv = simulate_trsv(&arr, &dist, nb, cost);
        let mm = sim_direct(&arr, &dist, Kernel::Mm, nb, cost);
        assert!(
            trsv.average_utilization() < 0.6,
            "trsv utilization unexpectedly high: {}",
            trsv.average_utilization()
        );
        assert!(mm.average_utilization() > trsv.average_utilization());
        // And it is far cheaper than the factorization (O(n^2) vs O(n^3)).
        let lu = sim_direct(&arr, &dist, Kernel::Lu, nb, cost);
        assert!(trsv.makespan < lu.makespan);
    }

    #[test]
    fn trsv_work_accounting_zero_comm() {
        // Total compute = nb diagonal solves + sum_k (nb - k - 1) gemv
        // blocks, weighted by cycle times; with homogeneous t = 1 it is
        // nb + nb(nb-1)/2.
        let arr = Arrangement::from_rows(&[vec![1.0, 1.0], vec![1.0, 1.0]]);
        let dist = BlockCyclic::new(2, 2);
        let nb = 6;
        let rep = simulate_trsv(&arr, &dist, nb, CostModel::zero_comm());
        let expect = nb + nb * (nb - 1) / 2;
        let total: f64 = rep.core_busy.iter().flatten().sum();
        assert!((total - expect as f64).abs() < 1e-9);
    }

    #[test]
    fn cholesky_zero_comm_work_accounting() {
        // Total compute = sum over steps of (1 diag) + (nb-k-1 panel) +
        // lower-triangle trailing count, with homogeneous t = 1.
        let arr = Arrangement::from_rows(&[vec![1.0, 1.0], vec![1.0, 1.0]]);
        let dist = BlockCyclic::new(2, 2);
        let nb = 5;
        let rep = sim_direct(&arr, &dist, Kernel::Cholesky, nb, CostModel::zero_comm());
        let mut expect = 0usize;
        for k in 0..nb {
            expect += 1; // diagonal
            if k + 1 < nb {
                let m = nb - k - 1;
                expect += m; // panel solves
                expect += m * (m + 1) / 2; // trailing lower triangle
            }
        }
        let total: f64 = rep.core_busy.iter().flatten().sum();
        assert!((total - expect as f64).abs() < 1e-9);
    }

    #[test]
    fn cholesky_is_cheaper_than_lu() {
        // Cholesky touches only the lower triangle: roughly half the
        // trailing work of LU.
        let arr = Arrangement::from_rows(&[vec![1.0, 2.0], vec![3.0, 6.0]]);
        let dist = BlockCyclic::new(2, 2);
        let lu = sim_direct(&arr, &dist, Kernel::Lu, 12, CostModel::zero_comm());
        let ch = sim_direct(&arr, &dist, Kernel::Cholesky, 12, CostModel::zero_comm());
        assert!(
            ch.makespan < lu.makespan,
            "cholesky {} !< lu {}",
            ch.makespan,
            lu.makespan
        );
    }

    #[test]
    fn cholesky_panel_beats_cyclic() {
        let arr = Arrangement::from_rows(&[vec![1.0, 2.0], vec![3.0, 5.0]]);
        let sol = exact::solve_arrangement(&arr);
        let panel = PanelDist::from_allocation(&arr, &sol.alloc, 8, 6, PanelOrdering::Interleaved);
        let cyc = BlockCyclic::new(2, 2);
        let cost = CostModel::default();
        let tp = sim_direct(&arr, &panel, Kernel::Cholesky, 24, cost);
        let tc = sim_direct(&arr, &cyc, Kernel::Cholesky, 24, cost);
        assert!(
            tp.makespan < tc.makespan,
            "panel {} !< cyclic {}",
            tp.makespan,
            tc.makespan
        );
    }

    #[test]
    fn rect_mm_reduces_to_square() {
        let arr = fig1_arr();
        let sol = exact::solve_arrangement(&arr);
        let panel = PanelDist::from_allocation(&arr, &sol.alloc, 4, 3, PanelOrdering::Contiguous);
        let cost = CostModel::default();
        let sq = sim_direct(&arr, &panel, Kernel::Mm, 8, cost);
        let plan = mm_rect_plan(&panel, (8, 8, 8));
        let rect = interpret_mm(&arr, &plan, cost, Broadcast::Direct).report;
        assert!((sq.makespan - rect.makespan).abs() < 1e-9);
        assert!((sq.compute_time - rect.compute_time).abs() < 1e-9);
    }

    #[test]
    fn rect_mm_work_scales_with_shape() {
        // Compute time = sum over steps of owned C blocks weighted by t:
        // doubling kb doubles the compute; doubling nb roughly doubles
        // the C volume.
        let arr = fig1_arr();
        let dist = BlockCyclic::new(2, 2);
        let cost = CostModel::zero_comm();
        let rect = |dims| interpret_mm(&arr, &mm_rect_plan(&dist, dims), cost, Broadcast::Direct);
        let base = rect((6, 6, 4)).report;
        let deeper = rect((6, 6, 8)).report;
        assert!((deeper.compute_time - 2.0 * base.compute_time).abs() < 1e-9);
        let wider = rect((6, 12, 4)).report;
        assert!((wider.compute_time - 2.0 * base.compute_time).abs() < 1e-9);
    }

    #[test]
    fn rect_mm_tall_skinny() {
        // Extreme shapes must still run and respect utilization bounds.
        let arr = fig1_arr();
        let dist = BlockCyclic::new(2, 2);
        let plan = mm_rect_plan(&dist, (16, 2, 3));
        let rep = interpret_mm(&arr, &plan, CostModel::default(), Broadcast::Direct).report;
        assert!(rep.makespan > 0.0);
        assert!(rep.average_utilization() <= 1.0 + 1e-9);
    }

    #[test]
    fn single_processor_grid_mm() {
        let arr = Arrangement::from_rows(&[vec![2.0]]);
        let dist = BlockCyclic::new(1, 1);
        let rep = sim_direct(&arr, &dist, Kernel::Mm, 3, CostModel::default());
        // 9 blocks * 3 steps * t=2, no messages at all.
        assert_eq!(rep.makespan, 54.0);
        assert_eq!(rep.comm_time, 0.0);
    }
}
