//! Threaded distributed outer-product matrix multiplication: the
//! [`hetgrid_plan::mm_rect_plan`] step stream interpreted over real
//! threads (horizontal broadcasts of the pivot block column of `A`,
//! vertical broadcasts of the pivot block row of `B`, Section 3.1.1).
//! Heterogeneity is emulated by integer *slowdown weights*: processor
//! `(i, j)` repeats every block kernel `w_ij` times.
//!
//! Under the lookahead driver each step is two actions: a critical
//! `MmSend` (no dependencies — the pivot panels of step `k + 1` can go
//! out while step `k`'s update still runs) and one `MmUpdate` touching
//! every owned C block, so updates of consecutive steps stay in order
//! per block while communication overlaps compute.

use crate::pool::PoolClone;
use crate::step::{
    check_weights, gather_result, run_grid, run_steps, Action, Courier, ExecConfig, Journal, Op,
    StepInterp, WorkClock,
};
use crate::store::{BlockStore, CheckpointLog, DistributedMatrix, ExecReport};
use crate::transport::{Closed, ExecError, Transport};
use hetgrid_dist::BlockDist;
use hetgrid_linalg::gemm::gemm;
use hetgrid_linalg::Matrix;
use hetgrid_plan::{Plan, Step};
use std::sync::Arc;
use std::time::Instant;

/// Message tags: a block of `A` or of `B`. Payloads are `Arc`-shared: a
/// broadcast clones the block once and each recipient only bumps the
/// refcount, so fanning a pivot block out to a whole row or column of
/// the grid costs one deep copy, not one per destination.
const TAG_A: u8 = 0;
const TAG_B: u8 = 1;

/// Runs `C = A * B` on `nb x nb` blocks of size `r`, distributed by `dist`,
/// with per-processor slowdown `weights` (block kernels repeated `w_ij`
/// times), over `transport` with executor tuning `cfg` (lookahead depth).
///
/// Returns the gathered result and per-processor measurements, or a
/// typed [`ExecError`] if a worker dropped out mid-run.
///
/// # Panics
/// Panics if matrix sizes do not equal `nb * r` or the weights table
/// does not match the grid.
pub fn run_mm_on_cfg(
    transport: &impl Transport,
    a: &Matrix,
    b: &Matrix,
    dist: &(dyn BlockDist + Sync),
    nb: usize,
    r: usize,
    weights: &[Vec<u64>],
    cfg: ExecConfig,
) -> Result<(Matrix, ExecReport), ExecError> {
    run_mm_rect_on_cfg(transport, a, b, dist, (nb, nb, nb), r, weights, cfg)
}

/// Rectangular [`run_mm_on_cfg`]: `C(mb x nb) = A(mb x kb) * B(kb x nb)`
/// in `r`-sized blocks, all three matrices laid out by the same
/// distribution.
///
/// # Panics
/// Panics on size mismatches, like [`run_mm_on_cfg`].
pub fn run_mm_rect_on_cfg(
    transport: &impl Transport,
    a: &Matrix,
    b: &Matrix,
    dist: &(dyn BlockDist + Sync),
    (mb, nb, kb): (usize, usize, usize),
    r: usize,
    weights: &[Vec<u64>],
    cfg: ExecConfig,
) -> Result<(Matrix, ExecReport), ExecError> {
    let (p, q) = dist.grid();
    check_weights(weights, (p, q), "run_mm");
    assert_eq!(a.shape(), (mb * r, kb * r), "run_mm: A shape mismatch");
    assert_eq!(b.shape(), (kb * r, nb * r), "run_mm: B shape mismatch");
    let da = DistributedMatrix::scatter_rect(a, dist, mb, kb, r);
    let db = DistributedMatrix::scatter_rect(b, dist, kb, nb, r);
    let dc = DistributedMatrix::zeros_rect(dist, mb, nb, r);
    let (stores, report) = mm_seg(transport, &da, &db, dc, dist, weights, cfg, 0, None)?;
    let c = gather_result(stores, (mb, nb), r, "run_mm");
    Ok((c, report))
}

/// One *epoch* of the MM execution: runs the step plan from `start` to
/// completion over an already-scattered `A`, `B` and a C *baseline*
/// (`dc` — zeros for a fresh run, the checkpointed state when resuming
/// after a grid fault), optionally journaling every C-block write into
/// `journal`. The fresh-run entry points wrap this with `start = 0`, a
/// zero baseline and no journal. Each worker takes its C store out of
/// `dc` and updates it in place.
#[allow(clippy::too_many_arguments)]
pub(crate) fn mm_seg(
    transport: &impl Transport,
    da: &DistributedMatrix,
    db: &DistributedMatrix,
    dc: DistributedMatrix,
    dist: &(dyn BlockDist + Sync),
    weights: &[Vec<u64>],
    cfg: ExecConfig,
    start: usize,
    journal: Option<&CheckpointLog>,
) -> Result<(Vec<BlockStore>, ExecReport), ExecError> {
    let (p, q) = dist.grid();
    check_weights(weights, (p, q), "run_mm");
    let (mb, kb) = (da.nb_rows, da.nb_cols);
    let nb = db.nb_cols;
    let r = da.r;
    let plan = hetgrid_plan::mm_rect_plan(dist, (mb, nb, kb));
    // Owned C blocks per processor (same layout as A and B).
    let owned_c: Vec<Vec<(usize, usize)>> = (0..p * q)
        .map(|me| {
            let mut v: Vec<(usize, usize)> = dc.stores[me].keys().copied().collect();
            v.sort_unstable();
            v
        })
        .collect();

    run_grid(
        transport,
        (p, q),
        weights,
        dc.stores,
        |me, c_blocks, courier, clock| {
            let my = (me / q, me % q);
            let mut interp = MmInterp {
                plan: &plan,
                my,
                owned: &owned_c[me],
                my_a: &da.stores[me],
                my_b: &db.stores[me],
                c_blocks,
                scratch: Matrix::zeros(r, r),
                block_bytes: (r * r * std::mem::size_of::<f64>()) as u64,
            };
            let j = journal.map(|log| Journal { log, me });
            run_steps(
                &mut interp,
                courier,
                clock,
                cfg.lookahead,
                start,
                j.as_ref(),
            )?;
            Ok(interp.c_blocks)
        },
    )
}

/// One processor's MM actions for `step`: a critical dependency-free
/// broadcast of its pivot panel blocks, then one update of every owned
/// C block needing the foreign pivot blocks of this step.
pub(crate) fn mm_actions(step: &Step, my: (usize, usize), owned: &[(usize, usize)]) -> Vec<Action> {
    let Step::Mm {
        k,
        a_bcasts,
        b_bcasts,
    } = step
    else {
        panic!("run_mm: non-MM step in plan")
    };
    let k = *k;
    let mut out = Vec::new();
    if [a_bcasts, b_bcasts]
        .iter()
        .any(|bcs| bcs.iter().any(|bc| bc.src == my && !bc.dests.is_empty()))
    {
        out.push(Action {
            step: k,
            op: Op::MmSend,
            blk: (k, k),
            crit: true,
            needs: vec![],
            // A/B panel blocks are never written; no conflicts to track.
            reads: vec![],
            writes: vec![],
        });
    }
    if !owned.is_empty() {
        out.push(Action {
            step: k,
            op: Op::MmUpdate,
            blk: (k, k),
            crit: false,
            needs: a_bcasts
                .iter()
                .filter(|bc| bc.dests.contains(&my))
                .map(|bc| (k, TAG_A, bc.block))
                .chain(
                    b_bcasts
                        .iter()
                        .filter(|bc| bc.dests.contains(&my))
                        .map(|bc| (k, TAG_B, bc.block)),
                )
                .collect(),
            reads: vec![],
            writes: owned.iter().map(|&(bi, bj)| (0, bi, bj)).collect(),
        });
    }
    out
}

struct MmInterp<'a> {
    plan: &'a Plan,
    my: (usize, usize),
    owned: &'a [(usize, usize)],
    my_a: &'a BlockStore,
    my_b: &'a BlockStore,
    c_blocks: BlockStore,
    scratch: Matrix,
    block_bytes: u64,
}

impl StepInterp for MmInterp<'_> {
    type P = Arc<Matrix>;

    fn n_steps(&self) -> usize {
        self.plan.steps.len()
    }

    fn emit(&self, k: usize, out: &mut Vec<Action>) {
        out.extend(mm_actions(&self.plan.steps[k], self.my, self.owned));
    }

    fn peek(&self, blk: (usize, usize)) -> Option<&Matrix> {
        self.c_blocks.get(&blk)
    }

    fn execute(
        &mut self,
        a: &Action,
        courier: &mut Courier<Arc<Matrix>>,
        clock: &mut WorkClock,
    ) -> Result<(), Closed> {
        let Step::Mm {
            k,
            a_bcasts,
            b_bcasts,
        } = &self.plan.steps[a.step]
        else {
            unreachable!("emit checked the step kind")
        };
        let k = *k;
        match a.op {
            Op::MmSend => {
                let mut bcast_span = courier.span_with(|| format!("bcast {k}"));
                let sent_before = courier.sent();
                for (tag, bcasts) in [(TAG_A, a_bcasts), (TAG_B, b_bcasts)] {
                    for bc in bcasts {
                        if bc.src != self.my || bc.dests.is_empty() {
                            continue;
                        }
                        let store = if tag == TAG_A { self.my_a } else { self.my_b };
                        // One pool-backed copy; recipients share it via
                        // the Arc and the last drop reshelves it.
                        let payload = Arc::new(store[&bc.block].pool_clone(courier.pool_mut()));
                        courier.bcast(&bc.dests, k, tag, bc.block, &payload, self.block_bytes)?;
                    }
                }
                if let Some(g) = bcast_span.as_mut() {
                    g.arg_u64("msgs", courier.sent() - sent_before);
                }
            }
            Op::MmUpdate => {
                let mut compute_span = courier.span_with(|| format!("compute {k}"));
                let units_before = clock.units;
                let t0 = Instant::now();
                for &(bi, bj) in self.owned {
                    let ablk: &Matrix = match self.my_a.get(&(bi, k)) {
                        Some(m) => m,
                        None => courier.get(k, TAG_A, (bi, k)),
                    };
                    let bblk: &Matrix = match self.my_b.get(&(k, bj)) {
                        Some(m) => m,
                        None => courier.get(k, TAG_B, (k, bj)),
                    };
                    let c = self.c_blocks.get_mut(&(bi, bj)).expect("C block missing");
                    gemm(1.0, ablk, bblk, 1.0, c);
                    for _ in 1..clock.weight() {
                        gemm(1.0, ablk, bblk, 0.0, &mut self.scratch);
                    }
                    clock.charge(1);
                }
                clock.add_busy(t0.elapsed().as_secs_f64());
                courier.step_done(t0.elapsed().as_secs_f64());
                if let Some(g) = compute_span.as_mut() {
                    g.arg_u64("units", clock.units - units_before);
                }
            }
            op => unreachable!("non-MM action {op:?} in MM plan"),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::ChannelTransport;
    use hetgrid_core::{exact, Arrangement};
    use hetgrid_dist::{BlockCyclic, KlDist, PanelDist, PanelOrdering};
    use hetgrid_linalg::gemm::matmul;

    fn run_mm(
        a: &Matrix,
        b: &Matrix,
        dist: &(dyn BlockDist + Sync),
        nb: usize,
        r: usize,
        w: &[Vec<u64>],
    ) -> Result<(Matrix, ExecReport), ExecError> {
        run_mm_on_cfg(
            &ChannelTransport,
            a,
            b,
            dist,
            nb,
            r,
            w,
            ExecConfig::default(),
        )
    }

    fn test_matrix(n: usize, seed: u64) -> Matrix {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        Matrix::from_fn(n, n, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        })
    }

    fn uniform_weights(p: usize, q: usize) -> Vec<Vec<u64>> {
        vec![vec![1; q]; p]
    }

    #[test]
    fn mm_matches_sequential_cyclic() {
        let nb = 4;
        let r = 3;
        let a = test_matrix(nb * r, 1);
        let b = test_matrix(nb * r, 2);
        let dist = BlockCyclic::new(2, 2);
        let (c, report) = run_mm(&a, &b, &dist, nb, r, &uniform_weights(2, 2)).unwrap();
        assert!(c.approx_eq(&matmul(&a, &b), 1e-10));
        assert_eq!(
            report.work_units.iter().flatten().sum::<u64>() as usize,
            nb * nb * nb
        );
    }

    #[test]
    fn mm_matches_sequential_panel() {
        let arr = Arrangement::from_rows(&[vec![1.0, 2.0], vec![3.0, 6.0]]);
        let sol = exact::solve_arrangement(&arr);
        let dist = PanelDist::from_allocation(&arr, &sol.alloc, 4, 3, PanelOrdering::Contiguous);
        let nb = 8;
        let r = 2;
        let a = test_matrix(nb * r, 3);
        let b = test_matrix(nb * r, 4);
        let w = crate::store::slowdown_weights(&arr);
        let (c, report) = run_mm(&a, &b, &dist, nb, r, &w).unwrap();
        assert!(c.approx_eq(&matmul(&a, &b), 1e-10));
        // Weighted work should be close to balanced for this rank-1 grid.
        assert!(
            report.work_imbalance() < 1.4,
            "work imbalance {}",
            report.work_imbalance()
        );
    }

    #[test]
    fn mm_matches_sequential_kl() {
        let arr = Arrangement::from_rows(&[vec![1.0, 2.0], vec![3.0, 5.0]]);
        let dist = KlDist::new(&arr, 4, 6);
        let nb = 6;
        let r = 2;
        let a = test_matrix(nb * r, 5);
        let b = test_matrix(nb * r, 6);
        let (c, _) = run_mm(&a, &b, &dist, nb, r, &uniform_weights(2, 2)).unwrap();
        assert!(c.approx_eq(&matmul(&a, &b), 1e-10));
    }

    #[test]
    fn lookahead_is_bit_exact_with_in_order() {
        let arr = Arrangement::from_rows(&[vec![1.0, 2.0], vec![3.0, 6.0]]);
        let sol = exact::solve_arrangement(&arr);
        let dist = PanelDist::from_allocation(&arr, &sol.alloc, 4, 3, PanelOrdering::Contiguous);
        let nb = 8;
        let r = 2;
        let a = test_matrix(nb * r, 11);
        let b = test_matrix(nb * r, 12);
        let w = crate::store::slowdown_weights(&arr);
        let t = ChannelTransport;
        let run = |lookahead| {
            run_mm_on_cfg(&t, &a, &b, &dist, nb, r, &w, ExecConfig { lookahead })
                .unwrap()
                .0
        };
        let inorder = run(0);
        for depth in [1, 3] {
            assert!(
                run(depth).approx_eq(&inorder, 0.0),
                "depth {depth} diverged from in-order"
            );
        }
    }

    #[test]
    fn cyclic_work_imbalance_reflects_heterogeneity() {
        // With slowdown weights on a uniform distribution, the weighted
        // work is imbalanced by ~max(w)/mean(w).
        let arr = Arrangement::from_rows(&[vec![1.0, 2.0], vec![3.0, 6.0]]);
        let dist = BlockCyclic::new(2, 2);
        let nb = 4;
        let r = 2;
        let a = test_matrix(nb * r, 7);
        let b = test_matrix(nb * r, 8);
        let w = crate::store::slowdown_weights(&arr);
        let (_, report) = run_mm(&a, &b, &dist, nb, r, &w).unwrap();
        // weights 1,2,3,6, equal counts -> imbalance 6 / 3 = 2.
        assert!((report.work_imbalance() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn single_processor() {
        let a = test_matrix(6, 9);
        let b = test_matrix(6, 10);
        let dist = BlockCyclic::new(1, 1);
        let (c, report) = run_mm(&a, &b, &dist, 3, 2, &uniform_weights(1, 1)).unwrap();
        assert!(c.approx_eq(&matmul(&a, &b), 1e-10));
        assert_eq!(report.total_messages(), 0, "no peers, no messages");
    }

    #[test]
    fn rect_mm_matches_sequential() {
        // C(8x4 blocks) = A(8x6) * B(6x4), r = 2.
        let (mb, nb, kb) = (8usize, 4usize, 6usize);
        let r = 2;
        let a = {
            let mut s = 0x31u64 | 1;
            Matrix::from_fn(mb * r, kb * r, |_, _| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
            })
        };
        let b = {
            let mut s = 0x32u64 | 1;
            Matrix::from_fn(kb * r, nb * r, |_, _| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
            })
        };
        let dist = BlockCyclic::new(2, 2);
        let (c, _) = run_mm_rect_on_cfg(
            &ChannelTransport,
            &a,
            &b,
            &dist,
            (mb, nb, kb),
            r,
            &uniform_weights(2, 2),
            ExecConfig::default(),
        )
        .unwrap();
        assert!(c.approx_eq(&matmul(&a, &b), 1e-10));
    }

    #[test]
    fn message_volume_equal_panel_vs_kl() {
        // Per-block payload volume is the same for panel and KL layouts
        // (each block of the pivot column/row reaches one processor per
        // grid column/row); KL's penalty is in the number of *distinct
        // broadcasts* — i.e. per-message latency — which the simulator
        // measures (see hetgrid-sim's kl_pays_more_messages_than_panel).
        let arr = Arrangement::from_rows(&[vec![1.0, 2.0], vec![3.0, 5.0]]);
        let sol = exact::solve_arrangement(&arr);
        let panel = PanelDist::from_allocation(&arr, &sol.alloc, 4, 3, PanelOrdering::Contiguous);
        let kl = KlDist::new(&arr, 4, 6);
        let nb = 12;
        let r = 2;
        let a = test_matrix(nb * r, 21);
        let b = test_matrix(nb * r, 22);
        let w = uniform_weights(2, 2);
        let (_, rep_panel) = run_mm(&a, &b, &panel, nb, r, &w).unwrap();
        let (_, rep_kl) = run_mm(&a, &b, &kl, nb, r, &w).unwrap();
        assert!(rep_panel.total_messages() > 0);
        assert_eq!(rep_kl.total_messages(), rep_panel.total_messages());
    }
}
