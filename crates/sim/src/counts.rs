//! Per-processor message and work-unit counts for the executor kernels
//! — the "predicted" side of the harness's *predicted vs. observed*
//! differential oracle.
//!
//! `hetgrid-exec` reports, per processor, how many point-to-point
//! messages it sent and how many weighted block operations it performed
//! ([`hetgrid_exec::ExecReport`]-style tables). Those counts are fully
//! determined by the distribution and the block grid — no timing, no
//! interleaving, no transport involved — so they are computed here by
//! folding over the same [`hetgrid_plan`] step stream the executor
//! interprets: every broadcast contributes its destination count to the
//! source, every owner-work entry its weighted block count. The harness
//! then asserts exact equality: any lost, duplicated, or misrouted
//! message in a transport shows up as a count mismatch even when the
//! numerical result happens to survive.
//!
//! The historical closed-form counting loops (walking each algorithm's
//! communication pattern directly, independent of the plan) are kept in
//! this module's tests as a cross-check, not as the source of truth.

use hetgrid_plan::{LoadSrc, Plan, Step};

/// Predicted per-processor totals for one kernel run, laid out `[i][j]`
/// over the `p x q` grid like the executor's report tables.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KernelCounts {
    /// Point-to-point messages each processor sends.
    pub messages: Vec<Vec<u64>>,
    /// Weighted work units (block operations x slowdown weight) each
    /// processor performs.
    pub work_units: Vec<Vec<u64>>,
}

impl KernelCounts {
    fn zeros(p: usize, q: usize) -> Self {
        KernelCounts {
            messages: vec![vec![0; q]; p],
            work_units: vec![vec![0; q]; p],
        }
    }

    /// Sum of all per-processor message counts.
    pub fn total_messages(&self) -> u64 {
        self.messages.iter().flatten().sum()
    }

    /// Sum of all per-processor work units.
    pub fn total_work(&self) -> u64 {
        self.work_units.iter().flatten().sum()
    }
}

/// Predicted counts for the plan suffix `plan.steps[from..]`: every
/// step's messages charged to their senders and its block operations,
/// times the slowdown weight, to their owners. `from == 0` is the whole
/// run; a larger `from` is the exact prediction for an executor epoch
/// resumed at step `from` (elastic-grid recovery replays a plan from its
/// checkpoint frontier), and prefix + suffix folds always sum to the
/// full-plan counts. Per step kind:
///
/// * [`Step::Mm`] (Section 3.1): each pivot block of `A` and `B` goes
///   once to every other owner of its `C` row or column; every
///   processor updates each owned `C` block once.
/// * [`Step::Factor`] (right-looking LU): the diagonal owner sends the
///   packed factors to the panel-column and pivot-row owners under one
///   deduplicated destination set; each solved `L(bi, k)` goes along
///   trailing row `bi`, each `U(k, bj)` down trailing column `bj`; every
///   panel, diagonal and trailing block is one operation.
/// * [`Step::Cholesky`]: the diagonal factor goes down panel column
///   `k`; each panel block `L(bi, k)` to the trailing lower-triangle
///   owners that use it; every lower-triangle block is one operation.
/// * [`Step::Qr`] (fan-in Householder): each foreign panel block fans
///   in to the diagonal owner and its reflector segment comes back (one
///   message each way), the packed factors go to the trailing column
///   heads, and each head gathers, applies `Q^T` to and returns its
///   column the same way; a stacked panel or column of `m` blocks costs
///   `2 m` operations, so total work is twice LU's.
/// * [`Step::Load`] / [`Step::Compute`] / [`Step::Evict`] (star MM,
///   laid out over the `1 x (workers + 1)` row, column 0 the master):
///   every master-sourced load is one master send, every send-back
///   eviction one worker return, every compute one block update.
///   Zero-sourced loads and dropped evictions move no messages.
pub fn counts(plan: &Plan, from: usize, weights: &[Vec<u64>]) -> KernelCounts {
    let (p, q) = plan.grid;
    let mut c = KernelCounts::zeros(p, q);
    let mut work =
        |(i, j): (usize, usize), blocks: u64| c.work_units[i][j] += blocks * weights[i][j];
    let mut send = |(i, j): (usize, usize), n: usize| c.messages[i][j] += n as u64;
    for step in &plan.steps[from.min(plan.steps.len())..] {
        match step {
            Step::Mm {
                a_bcasts, b_bcasts, ..
            } => {
                for b in a_bcasts.iter().chain(b_bcasts) {
                    send(b.src, b.dests.len());
                }
                for i in 0..p {
                    for j in 0..q {
                        work((i, j), plan.owned[i][j] as u64);
                    }
                }
            }
            Step::Factor {
                diag,
                panel,
                diag_col_dests,
                l_bcasts,
                trsm,
                u_bcasts,
                trailing,
                ..
            } => {
                // l_bcasts[0] is the diagonal block along the pivot row;
                // it shares one dedup with the panel-column broadcast.
                let extra = l_bcasts[0]
                    .dests
                    .iter()
                    .filter(|d| !diag_col_dests.contains(d))
                    .count();
                send(*diag, diag_col_dests.len() + extra);
                for b in l_bcasts[1..].iter().chain(u_bcasts) {
                    send(b.src, b.dests.len());
                }
                for w in panel.iter().chain(trsm) {
                    work(w.owner, w.blocks as u64);
                }
                for i in 0..p {
                    for j in 0..q {
                        work((i, j), trailing[i][j] as u64);
                    }
                }
            }
            Step::Cholesky {
                diag,
                diag_dests,
                panel,
                panel_bcasts,
                trailing,
                ..
            } => {
                work(*diag, 1);
                send(*diag, diag_dests.len());
                for b in panel_bcasts {
                    send(b.src, b.dests.len());
                }
                for w in panel.iter().chain(trailing) {
                    work(w.owner, w.blocks as u64);
                }
            }
            Step::Qr {
                diag,
                panel,
                reflector_dests,
                columns,
                ..
            } => {
                for &(_, owner) in panel.iter().filter(|(_, o)| o != diag) {
                    send(owner, 1);
                    send(*diag, 1);
                }
                work(*diag, 2 * panel.len() as u64);
                send(*diag, reflector_dests.len());
                for col in columns {
                    for &(_, owner) in col.members.iter().filter(|(_, o)| *o != col.head) {
                        send(owner, 1);
                        send(col.head, 1);
                    }
                    // + 1 for the (k, bj) head block itself.
                    work(col.head, 2 * (col.members.len() as u64 + 1));
                }
            }
            Step::Load { src, .. } => send((0, 0), usize::from(*src == LoadSrc::Master)),
            Step::Compute { worker, .. } => work((0, *worker), 1),
            Step::Evict {
                worker, send_back, ..
            } => send((0, *worker), usize::from(*send_back)),
        }
    }
    c
}

/// [`counts`] over a whole MM plan. Kept as a named entry point for the
/// out-of-workspace benchmark harness (`hetbench/`).
pub fn mm_counts_from_plan(plan: &Plan, weights: &[Vec<u64>]) -> KernelCounts {
    counts(plan, 0, weights)
}

/// [`counts`] over a whole LU-shaped plan with every block operation
/// worth `unit_scale` work units (1 for LU). Kept as a named entry point
/// for the out-of-workspace benchmark harness (`hetbench/`).
pub fn factor_counts_from_plan(plan: &Plan, unit_scale: u64, weights: &[Vec<u64>]) -> KernelCounts {
    let mut c = counts(plan, 0, weights);
    c.work_units
        .iter_mut()
        .flatten()
        .for_each(|w| *w *= unit_scale);
    c
}

/// [`counts`] over a whole Cholesky plan. Kept as a named entry point
/// for the out-of-workspace benchmark harness (`hetbench/`).
pub fn cholesky_counts_from_plan(plan: &Plan, weights: &[Vec<u64>]) -> KernelCounts {
    counts(plan, 0, weights)
}

/// Per-processor resident-block high-water marks of a star plan: entry
/// `w` is the most blocks worker `w` ever holds at once when the steps
/// run in program order (entry 0, the master, is always 0 — its store
/// is not bounded by `worker_mem`). Because every legal schedule keeps
/// each worker's residency transitions in program order (they conflict
/// pairwise on the worker's memory resource), this fold is exact for
/// the executor too, not just for sequential replay — the memory-bound
/// oracle asserts `peak <= worker_mem` against precisely this number.
///
/// # Panics
/// Panics if the plan contains non-star steps or evicts a worker's
/// block below zero residency.
pub fn star_residency_peaks(plan: &Plan) -> Vec<u64> {
    let n = plan.grid.0 * plan.grid.1;
    let mut resident = vec![0u64; n];
    let mut peak = vec![0u64; n];
    for step in &plan.steps {
        match step {
            Step::Load { worker, .. } => {
                resident[*worker] += 1;
                peak[*worker] = peak[*worker].max(resident[*worker]);
            }
            Step::Evict { worker, .. } => {
                assert!(
                    resident[*worker] > 0,
                    "star_residency_peaks: eviction below zero on worker {worker}"
                );
                resident[*worker] -= 1;
            }
            Step::Compute { .. } => {}
            _ => panic!("star_residency_peaks: non-star step in plan"),
        }
    }
    peak
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetgrid_core::Topology;
    use hetgrid_dist::{BlockCyclic, BlockDist};
    use hetgrid_plan::Kernel;

    fn uniform(p: usize, q: usize) -> Vec<Vec<u64>> {
        vec![vec![1; q]; p]
    }

    fn kernel_counts(k: Kernel, dist: &dyn BlockDist, nb: usize, w: &[Vec<u64>]) -> KernelCounts {
        counts(&k.plan(dist, nb), 0, w)
    }

    #[test]
    fn single_processor_sends_nothing() {
        let dist = BlockCyclic::new(1, 1);
        let w = uniform(1, 1);
        for k in Kernel::ALL {
            assert_eq!(kernel_counts(k, &dist, 4, &w).total_messages(), 0);
        }
    }

    /// For every cut point `f`, the fold over `steps[..f]` plus the
    /// fold over `steps[f..]` equals the full fold, elementwise — the
    /// property that makes [`counts`] with `from > 0` an exact count oracle for a
    /// recovery epoch resumed at `f`.
    #[test]
    fn suffix_counts_partition_the_full_fold() {
        let add = |a: &KernelCounts, b: &KernelCounts| KernelCounts {
            messages: a
                .messages
                .iter()
                .zip(&b.messages)
                .map(|(r1, r2)| r1.iter().zip(r2).map(|(x, y)| x + y).collect())
                .collect(),
            work_units: a
                .work_units
                .iter()
                .zip(&b.work_units)
                .map(|(r1, r2)| r1.iter().zip(r2).map(|(x, y)| x + y).collect())
                .collect(),
        };
        let dist = BlockCyclic::new(2, 3);
        let w = vec![vec![1, 2, 1], vec![3, 1, 2]];
        let sw = vec![vec![1, 2, 3]]; // master + 2 workers
        let star = Topology::Star {
            workers: 2,
            worker_mem: 7,
            master_bw: 1.0,
        };
        let nb = 5;
        let cases = [
            (hetgrid_plan::mm_rect_plan(&dist, (nb, nb, nb)), &w),
            (hetgrid_plan::factor_plan(&dist, nb), &w),
            (hetgrid_plan::cholesky_plan(&dist, nb), &w),
            (hetgrid_plan::qr_plan(&dist, nb), &w),
            (hetgrid_plan::star_mm_plan(&star, (nb, nb - 1, nb)), &sw),
        ];
        for (plan, weights) in &cases {
            let full = counts(plan, 0, weights);
            for f in 0..=plan.steps.len() {
                let mut prefix = plan.clone();
                prefix.steps.truncate(f);
                let parts = add(&counts(&prefix, 0, weights), &counts(plan, f, weights));
                assert_eq!(parts, full, "prefix + suffix != full at cut {f}");
            }
        }
    }

    #[test]
    fn mm_work_is_cube() {
        // Every C block is updated once per step: mb * nb * kb units.
        let dist = BlockCyclic::new(2, 2);
        let c = kernel_counts(Kernel::Mm, &dist, 4, &uniform(2, 2));
        assert_eq!(c.total_work(), 64);
    }

    #[test]
    fn lu_work_counts_all_block_ops() {
        // Step k touches the diagonal, the two panels, and the trailing
        // square: 1 + 2(nb-1-k) + (nb-1-k)^2 = (nb-k)^2 block ops.
        let nb = 5;
        let dist = BlockCyclic::new(2, 2);
        let c = kernel_counts(Kernel::Lu, &dist, nb, &uniform(2, 2));
        let expect: u64 = (1..=nb as u64).map(|m| m * m).sum();
        assert_eq!(c.total_work(), expect);
    }

    #[test]
    fn cholesky_work_counts_lower_triangle_ops() {
        // Step k: diagonal + panel (nb-1-k) + trailing lower triangle
        // T(nb-1-k) where T(m) = m(m+1)/2.
        let nb = 5;
        let dist = BlockCyclic::new(2, 2);
        let c = kernel_counts(Kernel::Cholesky, &dist, nb, &uniform(2, 2));
        let expect: u64 = (0..nb as u64)
            .map(|k| {
                let m = nb as u64 - 1 - k;
                1 + m + m * (m + 1) / 2
            })
            .sum();
        assert_eq!(c.total_work(), expect);
    }

    #[test]
    fn qr_work_is_twice_lu() {
        // Step k: panel 2(nb-k) + (nb-k-1) columns x 2(nb-k) =
        // 2(nb-k)^2 — exactly twice LU's per-step block ops.
        let nb = 5;
        let dist = BlockCyclic::new(2, 2);
        let qr = kernel_counts(Kernel::Qr, &dist, nb, &uniform(2, 2));
        let lu = kernel_counts(Kernel::Lu, &dist, nb, &uniform(2, 2));
        assert_eq!(qr.total_work(), 2 * lu.total_work());
    }

    #[test]
    fn qr_fan_in_messages_are_symmetric() {
        // Every foreign panel/column block costs one message in and one
        // message back, plus the reflector broadcasts: the total is
        // even + reflector count. Spot-check on a 2x2 cyclic grid.
        let nb = 4;
        let dist = BlockCyclic::new(2, 2);
        let c = kernel_counts(Kernel::Qr, &dist, nb, &uniform(2, 2));
        let mut reflector = 0u64;
        let plan = hetgrid_plan::qr_plan(&dist, nb);
        for step in &plan.steps {
            if let hetgrid_plan::Step::Qr {
                reflector_dests, ..
            } = step
            {
                reflector += reflector_dests.len() as u64;
            }
        }
        assert_eq!((c.total_messages() - reflector) % 2, 0);
        assert!(c.total_messages() > 0);
    }

    #[test]
    fn weights_scale_work_linearly() {
        let dist = BlockCyclic::new(2, 2);
        let base = kernel_counts(Kernel::Lu, &dist, 4, &uniform(2, 2));
        let heavy = kernel_counts(Kernel::Lu, &dist, 4, &vec![vec![3; 2]; 2]);
        assert_eq!(heavy.total_work(), 3 * base.total_work());
        assert_eq!(heavy.messages, base.messages);
    }
}

/// The plan folds must reproduce the historical closed-form counting
/// loops exactly, for random heterogeneous grids and distributions.
/// The closed-form bodies below are verbatim copies of the pre-plan
/// implementations — kept as cross-checks, not as the source of truth.
#[cfg(test)]
mod closed_form_equivalence {
    use super::*;
    use hetgrid_core::{exact, Arrangement, Topology};
    use hetgrid_dist::{BlockCyclic, BlockDist, KlDist, PanelDist, PanelOrdering};
    use rand::prelude::*;

    fn owner_id(dist: &dyn BlockDist, bi: usize, bj: usize) -> usize {
        let (_, q) = dist.grid();
        let (oi, oj) = dist.owner(bi, bj);
        oi * q + oj
    }

    fn broadcast(msgs: &mut [Vec<u64>], q: usize, from: usize, dests: impl Iterator<Item = usize>) {
        let mut seen: Vec<usize> = Vec::new();
        for d in dests {
            if d != from && !seen.contains(&d) {
                seen.push(d);
            }
        }
        msgs[from / q][from % q] += seen.len() as u64;
    }

    fn closed_form_mm(
        dist: &dyn BlockDist,
        (mb, nb, kb): (usize, usize, usize),
        weights: &[Vec<u64>],
    ) -> KernelCounts {
        let (p, q) = dist.grid();
        let mut c = KernelCounts::zeros(p, q);
        for k in 0..kb {
            for bi in 0..mb {
                let from = owner_id(dist, bi, k);
                broadcast(
                    &mut c.messages,
                    q,
                    from,
                    (0..nb).map(|bj| owner_id(dist, bi, bj)),
                );
            }
            for bj in 0..nb {
                let from = owner_id(dist, k, bj);
                broadcast(
                    &mut c.messages,
                    q,
                    from,
                    (0..mb).map(|bi| owner_id(dist, bi, bj)),
                );
            }
        }
        for bi in 0..mb {
            for bj in 0..nb {
                let (oi, oj) = dist.owner(bi, bj);
                c.work_units[oi][oj] += kb as u64 * weights[oi][oj];
            }
        }
        c
    }

    fn closed_form_lu(dist: &dyn BlockDist, nb: usize, weights: &[Vec<u64>]) -> KernelCounts {
        let (p, q) = dist.grid();
        let mut c = KernelCounts::zeros(p, q);
        let unit = |c: &mut KernelCounts, bi: usize, bj: usize| {
            let (oi, oj) = dist.owner(bi, bj);
            c.work_units[oi][oj] += weights[oi][oj];
        };
        for k in 0..nb {
            let diag = owner_id(dist, k, k);
            unit(&mut c, k, k);
            broadcast(
                &mut c.messages,
                q,
                diag,
                (k + 1..nb)
                    .map(|bi| owner_id(dist, bi, k))
                    .chain((k + 1..nb).map(|bj| owner_id(dist, k, bj))),
            );
            for bi in k + 1..nb {
                unit(&mut c, bi, k);
                broadcast(
                    &mut c.messages,
                    q,
                    owner_id(dist, bi, k),
                    (k + 1..nb).map(|bj| owner_id(dist, bi, bj)),
                );
            }
            for bj in k + 1..nb {
                unit(&mut c, k, bj);
                broadcast(
                    &mut c.messages,
                    q,
                    owner_id(dist, k, bj),
                    (k + 1..nb).map(|bi| owner_id(dist, bi, bj)),
                );
            }
            for bi in k + 1..nb {
                for bj in k + 1..nb {
                    unit(&mut c, bi, bj);
                }
            }
        }
        c
    }

    fn closed_form_cholesky(dist: &dyn BlockDist, nb: usize, weights: &[Vec<u64>]) -> KernelCounts {
        let (p, q) = dist.grid();
        let mut c = KernelCounts::zeros(p, q);
        let unit = |c: &mut KernelCounts, bi: usize, bj: usize| {
            let (oi, oj) = dist.owner(bi, bj);
            c.work_units[oi][oj] += weights[oi][oj];
        };
        for k in 0..nb {
            let diag = owner_id(dist, k, k);
            unit(&mut c, k, k);
            broadcast(
                &mut c.messages,
                q,
                diag,
                (k + 1..nb).map(|bi| owner_id(dist, bi, k)),
            );
            if k + 1 == nb {
                continue;
            }
            for bi in k + 1..nb {
                unit(&mut c, bi, k);
                broadcast(
                    &mut c.messages,
                    q,
                    owner_id(dist, bi, k),
                    (k + 1..=bi)
                        .map(|bj| owner_id(dist, bi, bj))
                        .chain((bi..nb).map(|bi2| owner_id(dist, bi2, bi))),
                );
            }
            for bi in k + 1..nb {
                for bj in k + 1..=bi {
                    unit(&mut c, bi, bj);
                }
            }
        }
        c
    }

    fn random_dist(rng: &mut StdRng, p: usize, q: usize, nb: usize) -> Box<dyn BlockDist> {
        let rows: Vec<Vec<f64>> = (0..p)
            .map(|_| (0..q).map(|_| rng.gen_range(1.0..8.0)).collect())
            .collect();
        let arr = Arrangement::from_rows(&rows);
        match rng.gen_range(0..3) {
            0 => Box::new(BlockCyclic::new(p, q)),
            1 => {
                let sol = exact::solve_arrangement(&arr);
                let orderings = [
                    PanelOrdering::Contiguous,
                    PanelOrdering::Interleaved,
                    PanelOrdering::SuffixInterleaved,
                ];
                let ordering = orderings[rng.gen_range(0..orderings.len())];
                Box::new(PanelDist::from_allocation(
                    &arr,
                    &sol.alloc,
                    2 * p,
                    2 * q,
                    ordering,
                ))
            }
            _ => Box::new(KlDist::new(&arr, nb, p + q)),
        }
    }

    fn random_weights(rng: &mut StdRng, p: usize, q: usize) -> Vec<Vec<u64>> {
        (0..p)
            .map(|_| (0..q).map(|_| rng.gen_range(1..5)).collect())
            .collect()
    }

    /// Closed forms for the maximum-reuse star schedule, straight from
    /// the tiling arithmetic (no plan involved): per `mu x mu` tile
    /// `I x J`, the master sends `kb (|I| + |J|)` blocks, the tile's
    /// worker returns `|I| |J|` and performs `kb |I| |J|` weighted
    /// updates; a worker's memory high-water mark is `|I| |J| + |J| + 1`
    /// maximized over its tiles (accumulators + one `B` row + one `A`).
    fn closed_form_star_mm(
        workers: usize,
        worker_mem: usize,
        (mb, nb, kb): (usize, usize, usize),
        weights: &[Vec<u64>],
    ) -> (KernelCounts, Vec<u64>) {
        let mu = hetgrid_plan::star_tile_side(worker_mem);
        let mut c = KernelCounts::zeros(1, workers + 1);
        let mut peaks = vec![0u64; workers + 1];
        let t_cols = nb.div_ceil(mu);
        for t in 0..mb.div_ceil(mu) * t_cols {
            let (ti, tj) = (t / t_cols, t % t_cols);
            let w = 1 + t % workers;
            let rows = (((ti + 1) * mu).min(mb) - ti * mu) as u64;
            let cols = (((tj + 1) * mu).min(nb) - tj * mu) as u64;
            c.messages[0][0] += kb as u64 * (rows + cols);
            c.messages[0][w] += rows * cols;
            c.work_units[0][w] += kb as u64 * rows * cols * weights[0][w];
            peaks[w] = peaks[w].max(rows * cols + cols + 1);
        }
        (c, peaks)
    }

    #[test]
    fn star_fold_matches_closed_form() {
        let mut rng = StdRng::seed_from_u64(0x57A2);
        for case in 0..60 {
            let workers = rng.gen_range(1..=4);
            let worker_mem = rng.gen_range(3..=15);
            let dims = (
                rng.gen_range(1..=6),
                rng.gen_range(1..=6),
                rng.gen_range(1..=6),
            );
            let weights = random_weights(&mut rng, 1, workers + 1);
            let topo = Topology::Star {
                workers,
                worker_mem,
                master_bw: 1.0,
            };
            let plan = hetgrid_plan::star_mm_plan(&topo, dims);
            let (want, want_peaks) = closed_form_star_mm(workers, worker_mem, dims, &weights);
            assert_eq!(
                counts(&plan, 0, &weights),
                want,
                "star case {case}: {workers}w mem {worker_mem} dims {dims:?}"
            );
            let peaks = star_residency_peaks(&plan);
            assert_eq!(peaks, want_peaks, "star peaks case {case}");
            // The memory bound the schedule was derived under.
            assert!(
                peaks.iter().all(|&pk| pk <= worker_mem as u64),
                "case {case}: peak over worker_mem"
            );
            assert_eq!(peaks[0], 0, "master residency is unbounded/untracked");
        }
    }

    #[test]
    fn plan_fold_matches_closed_form_for_all_kernels() {
        let mut rng = StdRng::seed_from_u64(0xC0DE);
        let grids = [(2, 2), (2, 3), (3, 2), (3, 3)];
        for case in 0..60 {
            let (p, q) = grids[rng.gen_range(0..grids.len())];
            let nb = rng.gen_range(2..=7);
            let dist = random_dist(&mut rng, p, q, nb);
            let w = random_weights(&mut rng, p, q);

            let shapes = [(nb, nb, nb), (nb + 2, nb, nb - 1), (nb, 2 * nb, nb)];
            let shape = shapes[rng.gen_range(0..shapes.len())];
            assert_eq!(
                counts(&hetgrid_plan::mm_rect_plan(dist.as_ref(), shape), 0, &w),
                closed_form_mm(dist.as_ref(), shape, &w),
                "mm case {case} shape {shape:?}"
            );
            assert_eq!(
                counts(&hetgrid_plan::factor_plan(dist.as_ref(), nb), 0, &w),
                closed_form_lu(dist.as_ref(), nb, &w),
                "lu case {case} nb {nb}"
            );
            assert_eq!(
                counts(&hetgrid_plan::cholesky_plan(dist.as_ref(), nb), 0, &w),
                closed_form_cholesky(dist.as_ref(), nb, &w),
                "cholesky case {case} nb {nb}"
            );
        }
    }
}
