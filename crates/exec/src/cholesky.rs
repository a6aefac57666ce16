//! Threaded distributed right-looking Cholesky factorization
//! (`A = L L^T`, lower triangle): the [`hetgrid_plan::cholesky_plan`]
//! step stream interpreted over real threads. (QR lives in
//! [`crate::qr`], with its own fan-in/fan-out plan; LU in
//! [`crate::lu`].)
//!
//! Step `k`: the owner of the diagonal block factors it and sends the
//! factor down the panel (the plan's `diag_dests`); panel owners
//! right-solve their blocks and broadcast them along the plan's
//! per-block destination lists to the trailing lower-triangle owners
//! (each block `L(bi, k)` serves both as the left factor for row `bi`
//! and, transposed, as the right factor for column `bi`); the trailing
//! lower-triangle blocks are then updated. Under the lookahead driver
//! the factor/solve actions are critical and each trailing block is an
//! independent action, column `k + 1` first, so the next panel starts
//! while this step's updates drain.

use crate::pool::PoolClone;
use crate::step::{
    check_weights, run_grid, run_steps, Action, Courier, ExecConfig, Journal, Op, StepInterp,
    WorkClock,
};
use crate::store::{BlockStore, CheckpointLog, DistributedMatrix, ExecReport};
use crate::transport::{Closed, ExecError, Transport};
use hetgrid_dist::BlockDist;
use hetgrid_linalg::cholesky::cholesky;
use hetgrid_linalg::gemm::gemm;
use hetgrid_linalg::tri::solve_lower;
use hetgrid_linalg::Matrix;
use hetgrid_plan::{Plan, Step};
use std::time::Instant;

/// Message tags: the diagonal Cholesky factor, solved panel blocks.
const TAG_DIAG: u8 = 0;
const TAG_L: u8 = 1;

/// Factors the SPD matrix `a` over the distribution, over `transport` with
/// executor tuning `cfg` (lookahead depth); returns the gathered lower
/// factor `L` (upper triangle zero) and the execution report, or a typed
/// [`ExecError`] if a worker dropped out mid-run. Only the lower triangle
/// of `a` participates; the strict upper-triangle blocks of the result are
/// zeroed.
///
/// # Panics
/// Panics on size mismatch or if a diagonal block is not positive
/// definite.
pub fn run_cholesky_on_cfg(
    transport: &impl Transport,
    a: &Matrix,
    dist: &(dyn BlockDist + Sync),
    nb: usize,
    r: usize,
    weights: &[Vec<u64>],
    cfg: ExecConfig,
) -> Result<(Matrix, ExecReport), ExecError> {
    let da = DistributedMatrix::scatter(a, dist, nb, r);
    let (stores, report) = cholesky_seg(transport, da, dist, weights, cfg, 0, None)?;
    Ok((gather_cholesky(stores, nb, r), report))
}

/// The resumable core of [`run_cholesky_on_cfg`]: interprets the
/// Cholesky plan over an already-scattered matrix from plan step
/// `start` (with `da` holding the consistent state of that retirement
/// frontier), journaling block writes into `journal` when given.
/// Returns the raw per-processor stores; [`gather_cholesky`] folds them.
pub(crate) fn cholesky_seg(
    transport: &impl Transport,
    da: DistributedMatrix,
    dist: &(dyn BlockDist + Sync),
    weights: &[Vec<u64>],
    cfg: ExecConfig,
    start: usize,
    journal: Option<&CheckpointLog>,
) -> Result<(Vec<BlockStore>, ExecReport), ExecError> {
    let (p, q) = dist.grid();
    check_weights(weights, (p, q), "run_cholesky");
    let (nb, r) = (da.nb_rows, da.r);
    let plan = hetgrid_plan::cholesky_plan(dist, nb);
    let owned: Vec<Vec<(usize, usize)>> = da
        .stores
        .iter()
        .map(|s| {
            let mut v: Vec<(usize, usize)> = s.keys().copied().collect();
            v.sort_unstable();
            v
        })
        .collect();

    run_grid(
        transport,
        (p, q),
        weights,
        da.stores,
        |me, blocks, courier, clock| {
            let mut interp = ChInterp {
                plan: &plan,
                my: (me / q, me % q),
                owned: &owned[me],
                blocks,
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
            Ok(interp.blocks)
        },
    )
}

/// Folds worker stores into the lower factor `L`: keeps the lower block
/// triangle and zeroes the strict upper triangle of the diagonal
/// blocks (the in-place factorization leaves the original upper content
/// there).
pub(crate) fn gather_cholesky(stores: Vec<BlockStore>, nb: usize, r: usize) -> Matrix {
    let mut l = Matrix::zeros(nb * r, nb * r);
    let mut blocks_seen = 0usize;
    for store in stores {
        for ((bi, bj), block) in store {
            // Keep only the lower block triangle.
            if bj <= bi {
                l.set_block(bi * r, bj * r, &block);
            }
            blocks_seen += 1;
        }
    }
    assert_eq!(blocks_seen, nb * nb, "run_cholesky: missing result blocks");
    // Zero the strict upper triangle of the diagonal blocks.
    let n = nb * r;
    for i in 0..n {
        for j in i + 1..n {
            l[(i, j)] = 0.0;
        }
    }
    l
}

/// One processor's Cholesky actions for `step`, in program order:
/// diagonal factorization, panel right-solves (critical), then one
/// update action per owned trailing lower-triangle block with column
/// `k + 1` first.
pub(crate) fn cholesky_actions(
    step: &Step,
    my: (usize, usize),
    owned: &[(usize, usize)],
) -> Vec<Action> {
    let Step::Cholesky {
        k,
        diag,
        panel_bcasts,
        ..
    } = step
    else {
        panic!("run_cholesky: non-Cholesky step in plan")
    };
    let k = *k;
    let is_mine = |blk: (usize, usize)| owned.binary_search(&blk).is_ok();
    let mut out = Vec::new();
    if *diag == my {
        out.push(Action {
            step: k,
            op: Op::ChFactor,
            blk: (k, k),
            crit: true,
            needs: vec![],
            reads: vec![],
            writes: vec![(0, k, k)],
        });
    }
    for bc in panel_bcasts {
        if bc.src != my {
            continue;
        }
        let (mut needs, mut reads) = (vec![], vec![]);
        if *diag == my {
            reads.push((0, k, k));
        } else {
            needs.push((k, TAG_DIAG, (k, k)));
        }
        out.push(Action {
            step: k,
            op: Op::ChSolve,
            blk: bc.block,
            crit: true,
            needs,
            reads,
            writes: vec![(0, bc.block.0, k)],
        });
    }
    let mut trailing: Vec<(usize, usize)> = owned
        .iter()
        .copied()
        .filter(|&(bi, bj)| bi > k && bj > k && bj <= bi)
        .collect();
    // Column k+1 feeds step k+1's panel: update it first.
    trailing.sort_unstable_by_key(|&(bi, bj)| (usize::from(bj != k + 1), bi, bj));
    for (bi, bj) in trailing {
        let (mut needs, mut reads) = (vec![], vec![]);
        for b in [bi, bj] {
            if is_mine((b, k)) {
                if !reads.contains(&(0, b, k)) {
                    reads.push((0, b, k));
                }
            } else if !needs.contains(&(k, TAG_L, (b, k))) {
                needs.push((k, TAG_L, (b, k)));
            }
        }
        out.push(Action {
            step: k,
            op: Op::ChUpdate,
            blk: (bi, bj),
            crit: false,
            needs,
            reads,
            writes: vec![(0, bi, bj)],
        });
    }
    out
}

struct ChInterp<'a> {
    plan: &'a Plan,
    my: (usize, usize),
    owned: &'a [(usize, usize)],
    blocks: BlockStore,
    scratch: Matrix,
    block_bytes: u64,
}

impl StepInterp for ChInterp<'_> {
    type P = Matrix;

    fn n_steps(&self) -> usize {
        self.plan.steps.len()
    }

    fn emit(&self, k: usize, out: &mut Vec<Action>) {
        out.extend(cholesky_actions(&self.plan.steps[k], self.my, self.owned));
    }

    fn peek(&self, blk: (usize, usize)) -> Option<&Matrix> {
        self.blocks.get(&blk)
    }

    fn execute(
        &mut self,
        a: &Action,
        courier: &mut Courier<Matrix>,
        clock: &mut WorkClock,
    ) -> Result<(), Closed> {
        let Step::Cholesky {
            k,
            diag,
            diag_dests,
            panel_bcasts,
            ..
        } = &self.plan.steps[a.step]
        else {
            unreachable!("emit checked the step kind")
        };
        let k = *k;
        match a.op {
            // Diagonal factorization and send to panel owners.
            Op::ChFactor => {
                let _span = courier.span_with(|| format!("factor {k}"));
                let lkk = clock.run(
                    1,
                    || cholesky(&self.blocks[&(k, k)]).expect("diagonal block not SPD"),
                    || {
                        cholesky(&self.blocks[&(k, k)]).expect("diagonal block not SPD");
                    },
                );
                if let Some(old) = self.blocks.insert((k, k), lkk) {
                    old.reclaim(courier.pool_mut());
                }
                courier.bcast(
                    diag_dests,
                    k,
                    TAG_DIAG,
                    (k, k),
                    &self.blocks[&(k, k)],
                    self.block_bytes,
                )?;
            }
            // Panel right-solve: A_ik := A_ik * L_kk^{-T}.
            Op::ChSolve => {
                let _span = courier.span_with(|| format!("panel {k}"));
                let solved = {
                    let lkk: &Matrix = if *diag == self.my {
                        &self.blocks[&(k, k)]
                    } else {
                        courier.obtain(k, TAG_DIAG, (k, k))?
                    };
                    // X * L^T = A  <=>  L * X^T = A^T.
                    clock.run(
                        1,
                        || solve_lower(lkk, &self.blocks[&a.blk].transpose(), false).transpose(),
                        || {
                            solve_lower(lkk, &self.blocks[&a.blk].transpose(), false).transpose();
                        },
                    )
                };
                if let Some(old) = self.blocks.insert(a.blk, solved) {
                    old.reclaim(courier.pool_mut());
                }
                let bc = panel_bcasts
                    .iter()
                    .find(|bc| bc.block == a.blk)
                    .expect("solve action without a plan bcast");
                courier.bcast(
                    &bc.dests,
                    k,
                    TAG_L,
                    a.blk,
                    &self.blocks[&a.blk],
                    self.block_bytes,
                )?;
            }
            // Symmetric trailing update of one owned lower block:
            // A_ij -= L_ik * L_jk^T.
            Op::ChUpdate => {
                let (bi, bj) = a.blk;
                let mut c = self.blocks.remove(&a.blk).expect("trailing block missing");
                let t0 = Instant::now();
                let rt = {
                    let right: &Matrix = match self.blocks.get(&(bj, k)) {
                        Some(m) => m,
                        None => courier.get(k, TAG_L, (bj, k)),
                    };
                    right.transpose()
                };
                {
                    let left: &Matrix = match self.blocks.get(&(bi, k)) {
                        Some(m) => m,
                        None => courier.get(k, TAG_L, (bi, k)),
                    };
                    gemm(-1.0, left, &rt, 1.0, &mut c);
                    for _ in 1..clock.weight() {
                        gemm(-1.0, left, &rt, 0.0, &mut self.scratch);
                    }
                }
                clock.add_busy(t0.elapsed().as_secs_f64());
                clock.charge(1);
                courier.step_done(t0.elapsed().as_secs_f64());
                self.blocks.insert(a.blk, c);
                rt.reclaim(courier.pool_mut());
            }
            op => unreachable!("non-Cholesky action {op:?} in Cholesky plan"),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::ChannelTransport;
    use hetgrid_core::{exact, Arrangement};
    use hetgrid_dist::{BlockCyclic, PanelDist, PanelOrdering};
    use hetgrid_linalg::gemm::matmul;

    fn run_cholesky(
        a: &Matrix,
        dist: &(dyn BlockDist + Sync),
        nb: usize,
        r: usize,
        w: &[Vec<u64>],
    ) -> Result<(Matrix, ExecReport), ExecError> {
        run_cholesky_on_cfg(&ChannelTransport, a, dist, nb, r, w, ExecConfig::default())
    }

    fn spd_matrix(n: usize, seed: u64) -> Matrix {
        let mut state = seed | 1;
        let b = Matrix::from_fn(n, n, |_, _| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        });
        let mut a = matmul(&b.transpose(), &b);
        for i in 0..n {
            a[(i, i)] += n as f64;
        }
        a
    }

    fn check(a: &Matrix, l: &Matrix, tol: f64) {
        let llt = matmul(l, &l.transpose());
        assert!(
            llt.approx_eq(a, tol),
            "A != L L^T, max err {}",
            llt.sub(a).max_abs()
        );
    }

    #[test]
    fn cholesky_cyclic_reconstructs() {
        let nb = 4;
        let r = 3;
        let a = spd_matrix(nb * r, 0xC0);
        let dist = BlockCyclic::new(2, 2);
        let (l, _) = run_cholesky(&a, &dist, nb, r, &vec![vec![1; 2]; 2]).unwrap();
        check(&a, &l, 1e-8);
    }

    #[test]
    fn cholesky_panel_with_weights() {
        let arr = Arrangement::from_rows(&[vec![1.0, 2.0], vec![3.0, 5.0]]);
        let sol = exact::solve_arrangement(&arr);
        let dist = PanelDist::from_allocation(&arr, &sol.alloc, 8, 6, PanelOrdering::Interleaved);
        let nb = 8;
        let r = 2;
        let a = spd_matrix(nb * r, 0xC1);
        let w = crate::store::slowdown_weights(&arr);
        let (l, report) = run_cholesky(&a, &dist, nb, r, &w).unwrap();
        check(&a, &l, 1e-8);
        assert!(report.work_units.iter().flatten().sum::<u64>() > 0);
    }

    #[test]
    fn cholesky_matches_sequential() {
        let nb = 3;
        let r = 4;
        let a = spd_matrix(nb * r, 0xC2);
        let dist = BlockCyclic::new(1, 2);
        let (l, _) = run_cholesky(&a, &dist, nb, r, &[vec![1; 2]]).unwrap();
        let seq = hetgrid_linalg::cholesky::cholesky_blocked(&a, r).unwrap();
        assert!(l.approx_eq(&seq, 1e-8));
    }

    #[test]
    fn lookahead_is_bit_exact_with_in_order() {
        let arr = Arrangement::from_rows(&[vec![1.0, 2.0], vec![3.0, 5.0]]);
        let sol = exact::solve_arrangement(&arr);
        let dist = PanelDist::from_allocation(&arr, &sol.alloc, 8, 6, PanelOrdering::Interleaved);
        let nb = 8;
        let r = 2;
        let a = spd_matrix(nb * r, 0xC4);
        let w = crate::store::slowdown_weights(&arr);
        let t = ChannelTransport;
        let run = |lookahead| {
            run_cholesky_on_cfg(&t, &a, &dist, nb, r, &w, ExecConfig { lookahead })
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
    fn single_processor_cholesky() {
        let a = spd_matrix(8, 0xC3);
        let dist = BlockCyclic::new(1, 1);
        let (l, _) = run_cholesky(&a, &dist, 4, 2, &[vec![1]]).unwrap();
        check(&a, &l, 1e-9);
    }
}
