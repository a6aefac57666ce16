//! Threaded distributed Householder QR: the [`hetgrid_plan::qr_plan`]
//! fan-in/fan-out step stream interpreted over real threads.
//!
//! QR's panel factorization couples all panel rows through the
//! reflector norms, so unlike LU/Cholesky the panel cannot be solved
//! block-locally. Step `k` instead runs a fan-in cycle (Section 3.2.2
//! notes QR parallelizes "analogously" to LU at this granularity): the
//! panel blocks `(bi, k)` fan in to the diagonal owner, which factors
//! the stacked panel with [`qr_factor`] and scatters the packed
//! reflector segments back; the packed panel factors are broadcast to
//! the trailing column heads; each head gathers its column, applies
//! `Q^T` to the stacked column, and scatters the updated blocks back.
//!
//! Under the lookahead driver the fan-in sends, the panel
//! factorization, and the segment receives are critical actions; each
//! trailing column's `Q^T` application is an independent non-critical
//! action, so step `k + 1`'s fan-in begins while step `k`'s columns
//! still update. The packed panel factors of step `k` are modeled as a
//! pseudo-resource `(3, k, 0)` so column applications on the diagonal
//! owner order after its factorization.
//!
//! The gathered result is the *globally packed* factorization:
//! Householder vectors below the block diagonal of each panel column,
//! `R` on and above. [`qr_unpack`] rebuilds `(Q, R)` from it.

use crate::pool::{BufferPool, PoolClone};
use crate::step::{
    check_weights, gather_result, run_grid, run_steps, Action, Courier, ExecConfig, Journal, Op,
    StepInterp, WorkClock,
};
use crate::store::{BlockStore, CheckpointLog, DistributedMatrix, ExecReport};
use crate::transport::{Closed, ExecError, Transport};
use hetgrid_dist::BlockDist;
use hetgrid_linalg::qr::{qr_factor, QrFactors};
use hetgrid_linalg::Matrix;
use hetgrid_plan::{Plan, Step};
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Instant;

/// Message tags: panel fan-in, reflector segment scatter-back, packed
/// panel factor broadcast, column gather, updated column scatter-back.
const TAG_PANEL: u8 = 0;
const TAG_SEG: u8 = 1;
const TAG_REFL: u8 = 2;
const TAG_COL: u8 = 3;
const TAG_COLRET: u8 = 4;

/// QR wire payload: a single `r x r` block, or the packed factors of a
/// stacked panel (the reflector broadcast to the column heads).
#[derive(Clone)]
enum QrPayload {
    Block(Matrix),
    Factors { packed: Matrix, taus: Vec<f64> },
}

impl QrPayload {
    fn into_block(self) -> Matrix {
        match self {
            QrPayload::Block(m) => m,
            QrPayload::Factors { .. } => panic!("run_qr: expected block payload"),
        }
    }
}

impl PoolClone for QrPayload {
    fn pool_clone(&self, pool: &mut BufferPool) -> Self {
        match self {
            QrPayload::Block(m) => QrPayload::Block(m.pool_clone(pool)),
            QrPayload::Factors { packed, taus } => QrPayload::Factors {
                packed: packed.pool_clone(pool),
                taus: taus.clone(),
            },
        }
    }

    fn reclaim(self, pool: &mut BufferPool) {
        match self {
            QrPayload::Block(m) | QrPayload::Factors { packed: m, .. } => pool.put(m),
        }
    }
}

/// Factors `a` over the distribution, over `transport` with executor tuning
/// `cfg` (lookahead depth); returns the gathered packed factors
/// (Householder vectors below each panel's diagonal, `R` on and above), the
/// Householder scalars (`nb * r` of them, panel-major), and the execution
/// report, or a typed [`ExecError`] if a worker dropped out mid-run. Unpack
/// with [`qr_unpack`].
///
/// # Panics
/// Panics on size mismatch.
pub fn run_qr_on_cfg(
    transport: &impl Transport,
    a: &Matrix,
    dist: &(dyn BlockDist + Sync),
    nb: usize,
    r: usize,
    weights: &[Vec<u64>],
    cfg: ExecConfig,
) -> Result<(Matrix, Vec<f64>, ExecReport), ExecError> {
    let da = DistributedMatrix::scatter(a, dist, nb, r);
    let nb = da.nb_rows;
    let taus_acc: Mutex<Vec<Vec<f64>>> = Mutex::new(vec![Vec::new(); nb]);
    let (stores, report) = qr_seg(transport, da, dist, weights, cfg, 0, None, &taus_acc)?;
    let packed = gather_result(stores, (nb, nb), r, "run_qr");
    let taus: Vec<f64> = taus_acc
        .into_inner()
        .unwrap_or_else(|p| p.into_inner())
        .into_iter()
        .flatten()
        .collect();
    assert_eq!(taus.len(), nb * r, "run_qr: missing Householder scalars");
    Ok((packed, taus, report))
}

/// One *epoch* of the QR execution: runs the step plan from `start` to
/// completion over already-scattered blocks, optionally journaling
/// every packed-factor block write into `journal`.
///
/// `taus_acc` collects each step's Householder scalars, reported by
/// whichever worker owned that step's diagonal block. The caller keeps
/// it across epochs: a resumed epoch re-runs steps `start..` and
/// *overwrites* (not appends) each step's slot, so replayed work lands
/// bit-identically and scalars from steps retired before the fault
/// survive untouched.
#[allow(clippy::too_many_arguments)]
pub(crate) fn qr_seg(
    transport: &impl Transport,
    da: DistributedMatrix,
    dist: &(dyn BlockDist + Sync),
    weights: &[Vec<u64>],
    cfg: ExecConfig,
    start: usize,
    journal: Option<&CheckpointLog>,
    taus_acc: &Mutex<Vec<Vec<f64>>>,
) -> Result<(Vec<BlockStore>, ExecReport), ExecError> {
    let (p, q) = dist.grid();
    check_weights(weights, (p, q), "run_qr");
    let (nb, r) = (da.nb_rows, da.r);
    let plan = hetgrid_plan::qr_plan(dist, nb);

    run_grid(
        transport,
        (p, q),
        weights,
        da.stores,
        |me, blocks, courier, clock| {
            let mut interp = QrInterp {
                plan: &plan,
                r,
                my: (me / q, me % q),
                blocks,
                taus_acc,
                factors: HashMap::new(),
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

/// Rebuilds `(Q, R)` from [`run_qr_on_cfg`]'s globally packed factors:
/// `Q` is `n x n` orthogonal, `R` upper triangular, `A = Q * R`. Mirrors
/// the panel-by-panel `Q` accumulation of
/// [`qr_blocked`](hetgrid_linalg::qr::qr_blocked).
///
/// # Panics
/// Panics if `packed` is not `nb * r` square or `taus` is not `nb * r`
/// long.
pub fn qr_unpack(packed: &Matrix, taus: &[f64], nb: usize, r: usize) -> (Matrix, Matrix) {
    let n = nb * r;
    assert_eq!(packed.shape(), (n, n), "qr_unpack: packed shape mismatch");
    assert_eq!(taus.len(), n, "qr_unpack: tau count mismatch");
    let mut qfull = Matrix::identity(n);
    for k in 0..nb {
        let pf = QrFactors::from_parts(
            packed.block(k * r, k * r, n - k * r, r),
            taus[k * r..(k + 1) * r].to_vec(),
        );
        // Q := Q * diag(I, Q_panel), via the transposed qt_mul trick.
        let qcols = qfull.block(0, k * r, n, n - k * r);
        qfull.set_block(0, k * r, &pf.qt_mul(&qcols.transpose()).transpose());
    }
    let rmat = Matrix::from_fn(n, n, |i, j| if i <= j { packed[(i, j)] } else { 0.0 });
    (qfull, rmat)
}

/// One processor's QR actions for `step`, in program order: fan-in
/// sends first (panel blocks to the diagonal owner, column members to
/// their heads — before any receive, so the step's send/receive graph
/// stays acyclic), then factor / take-segment, then the column
/// applications, then the updated-column receives.
pub(crate) fn qr_actions(step: &Step, my: (usize, usize)) -> Vec<Action> {
    let Step::Qr {
        k,
        diag,
        panel,
        reflector_dests: _,
        columns,
    } = step
    else {
        panic!("run_qr: non-QR step in plan")
    };
    let k = *k;
    let mut out = Vec::new();
    if *diag != my {
        for &((bi, bk), owner) in panel {
            if owner == my {
                out.push(Action {
                    step: k,
                    op: Op::QrSendPanel,
                    blk: (bi, bk),
                    crit: true,
                    needs: vec![],
                    reads: vec![(0, bi, bk)],
                    writes: vec![],
                });
            }
        }
    }
    for col in columns {
        if col.head == my {
            continue;
        }
        for &((bi, bj), owner) in &col.members {
            if owner == my {
                out.push(Action {
                    step: k,
                    op: Op::QrSendCol,
                    blk: (bi, bj),
                    crit: true,
                    needs: vec![],
                    reads: vec![(0, bi, bj)],
                    writes: vec![],
                });
            }
        }
    }
    if *diag == my {
        let mut needs = vec![];
        let mut writes = vec![(3, k, 0)];
        for &((bi, _), owner) in panel {
            if owner == my {
                writes.push((0, bi, k));
            } else {
                needs.push((k, TAG_PANEL, (bi, k)));
            }
        }
        out.push(Action {
            step: k,
            op: Op::QrFactor,
            blk: (k, k),
            crit: true,
            needs,
            reads: vec![],
            writes,
        });
    } else {
        for &((bi, _), owner) in panel {
            if owner == my {
                out.push(Action {
                    step: k,
                    op: Op::QrTakeSeg,
                    blk: (bi, k),
                    crit: true,
                    needs: vec![(k, TAG_SEG, (bi, k))],
                    reads: vec![],
                    writes: vec![(0, bi, k)],
                });
            }
        }
    }
    for col in columns {
        if col.head != my {
            continue;
        }
        let (mut needs, mut reads) = (vec![], vec![]);
        if *diag == my {
            reads.push((3, k, 0));
        } else {
            needs.push((k, TAG_REFL, (k, k)));
        }
        let mut writes = vec![(0, k, col.bj)];
        for &((bi, bj), owner) in &col.members {
            if owner == my {
                writes.push((0, bi, bj));
            } else {
                needs.push((k, TAG_COL, (bi, bj)));
            }
        }
        out.push(Action {
            step: k,
            op: Op::QrColUpdate,
            blk: (k, col.bj),
            crit: false,
            needs,
            reads,
            writes,
        });
    }
    for col in columns {
        if col.head == my {
            continue;
        }
        for &((bi, bj), owner) in &col.members {
            if owner == my {
                out.push(Action {
                    step: k,
                    op: Op::QrTakeColRet,
                    blk: (bi, bj),
                    crit: true,
                    needs: vec![(k, TAG_COLRET, (bi, bj))],
                    reads: vec![],
                    writes: vec![(0, bi, bj)],
                });
            }
        }
    }
    out
}

struct QrInterp<'a> {
    plan: &'a Plan,
    r: usize,
    my: (usize, usize),
    blocks: BlockStore,
    taus_acc: &'a Mutex<Vec<Vec<f64>>>,
    /// Packed panel factors by step, kept while the step's column
    /// applications may still run; dropped on retire.
    factors: HashMap<usize, QrFactors>,
    block_bytes: u64,
}

impl StepInterp for QrInterp<'_> {
    type P = QrPayload;

    fn n_steps(&self) -> usize {
        self.plan.steps.len()
    }

    fn emit(&self, k: usize, out: &mut Vec<Action>) {
        out.extend(qr_actions(&self.plan.steps[k], self.my));
    }

    fn peek(&self, blk: (usize, usize)) -> Option<&Matrix> {
        self.blocks.get(&blk)
    }

    fn execute(
        &mut self,
        a: &Action,
        courier: &mut Courier<QrPayload>,
        clock: &mut WorkClock,
    ) -> Result<(), Closed> {
        let Step::Qr {
            k,
            diag,
            panel,
            reflector_dests,
            columns,
        } = &self.plan.steps[a.step]
        else {
            unreachable!("emit checked the step kind")
        };
        let k = *k;
        let r = self.r;
        let nk = panel.len(); // nb - k stacked panel blocks
        match a.op {
            Op::QrSendPanel => {
                let payload = QrPayload::Block(self.blocks[&a.blk].pool_clone(courier.pool_mut()));
                courier.send(*diag, k, TAG_PANEL, a.blk, payload, self.block_bytes)?;
            }
            Op::QrSendCol => {
                let col = columns
                    .iter()
                    .find(|c| c.bj == a.blk.1)
                    .expect("column for fan-in send");
                let payload = QrPayload::Block(self.blocks[&a.blk].pool_clone(courier.pool_mut()));
                courier.send(col.head, k, TAG_COL, a.blk, payload, self.block_bytes)?;
            }
            // Stack the panel, factor it, scatter the packed reflector
            // segments back, broadcast the factors to the column heads.
            Op::QrFactor => {
                let _span = courier.span_with(|| format!("factor {k}"));
                // Pool buffer with stale contents: the loop below
                // writes every row block (bi ranges over k..nb).
                let mut stacked = courier.pool_mut().take(nk * r, r);
                for &((bi, _), owner) in panel {
                    if owner == self.my {
                        stacked.set_block((bi - k) * r, 0, &self.blocks[&(bi, k)]);
                    } else {
                        let blk = courier.take(k, TAG_PANEL, (bi, k))?.into_block();
                        stacked.set_block((bi - k) * r, 0, &blk);
                        blk.reclaim(courier.pool_mut());
                    }
                }
                let pf = clock.run(
                    2 * nk as u64,
                    || qr_factor(&stacked),
                    || {
                        qr_factor(&stacked);
                    },
                );
                stacked.reclaim(courier.pool_mut());
                for &((bi, _), owner) in panel {
                    let seg = pf.packed().block((bi - k) * r, 0, r, r);
                    if owner == self.my {
                        if let Some(old) = self.blocks.insert((bi, k), seg) {
                            old.reclaim(courier.pool_mut());
                        }
                    } else {
                        courier.send(
                            owner,
                            k,
                            TAG_SEG,
                            (bi, k),
                            QrPayload::Block(seg),
                            self.block_bytes,
                        )?;
                    }
                }
                self.taus_acc.lock().unwrap_or_else(|p| p.into_inner())[k] = pf.taus().to_vec();
                if !reflector_dests.is_empty() {
                    let factors = QrPayload::Factors {
                        packed: pf.packed().clone(),
                        taus: pf.taus().to_vec(),
                    };
                    let refl_bytes = (nk * r * r + r) as u64 * std::mem::size_of::<f64>() as u64;
                    courier.bcast(reflector_dests, k, TAG_REFL, (k, k), &factors, refl_bytes)?;
                    factors.reclaim(courier.pool_mut());
                }
                self.factors.insert(k, pf);
            }
            Op::QrTakeSeg => {
                let seg = courier.take(k, TAG_SEG, a.blk)?.into_block();
                if let Some(old) = self.blocks.insert(a.blk, seg) {
                    old.reclaim(courier.pool_mut());
                }
            }
            // Gather one owned trailing column, apply Q^T of the
            // stacked panel, scatter the updated blocks back.
            Op::QrColUpdate => {
                let _span = courier.span_with(|| format!("apply {k}"));
                let col = columns
                    .iter()
                    .find(|c| c.bj == a.blk.1)
                    .expect("column for update");
                if let std::collections::hash_map::Entry::Vacant(slot) = self.factors.entry(k) {
                    let pf = match courier.obtain(k, TAG_REFL, (k, k))? {
                        QrPayload::Factors { packed, taus } => {
                            QrFactors::from_parts(packed.clone(), taus.clone())
                        }
                        QrPayload::Block(_) => panic!("run_qr: expected factors payload"),
                    };
                    slot.insert(pf);
                }
                let t0 = Instant::now();
                // Pool buffer with stale contents: head block fills row
                // 0, the members fill every remaining row block.
                let mut stacked = courier.pool_mut().take(nk * r, r);
                stacked.set_block(0, 0, &self.blocks[&(k, col.bj)]);
                for &((bi, bj), owner) in &col.members {
                    if owner == self.my {
                        stacked.set_block((bi - k) * r, 0, &self.blocks[&(bi, bj)]);
                    } else {
                        let blk = courier.take(k, TAG_COL, (bi, bj))?.into_block();
                        stacked.set_block((bi - k) * r, 0, &blk);
                        blk.reclaim(courier.pool_mut());
                    }
                }
                let pf = &self.factors[&k];
                let col_blocks = col.members.len() as u64 + 1;
                let updated = clock.run(
                    2 * col_blocks,
                    || pf.qt_mul(&stacked),
                    || {
                        pf.qt_mul(&stacked);
                    },
                );
                stacked.reclaim(courier.pool_mut());
                if let Some(old) = self.blocks.insert((k, col.bj), updated.block(0, 0, r, r)) {
                    old.reclaim(courier.pool_mut());
                }
                for &((bi, bj), owner) in &col.members {
                    let blk = updated.block((bi - k) * r, 0, r, r);
                    if owner == self.my {
                        if let Some(old) = self.blocks.insert((bi, bj), blk) {
                            old.reclaim(courier.pool_mut());
                        }
                    } else {
                        courier.send(
                            owner,
                            k,
                            TAG_COLRET,
                            (bi, bj),
                            QrPayload::Block(blk),
                            self.block_bytes,
                        )?;
                    }
                }
                updated.reclaim(courier.pool_mut());
                courier.step_done(t0.elapsed().as_secs_f64());
            }
            Op::QrTakeColRet => {
                let blk = courier.take(k, TAG_COLRET, a.blk)?.into_block();
                if let Some(old) = self.blocks.insert(a.blk, blk) {
                    old.reclaim(courier.pool_mut());
                }
            }
            op => unreachable!("non-QR action {op:?} in QR plan"),
        }
        Ok(())
    }

    fn retire(&mut self, k: usize) {
        self.factors.remove(&k);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::ChannelTransport;
    use hetgrid_core::{exact, Arrangement};
    use hetgrid_dist::{BlockCyclic, PanelDist, PanelOrdering};
    use hetgrid_linalg::gemm::matmul;

    fn run_qr(
        a: &Matrix,
        dist: &(dyn BlockDist + Sync),
        nb: usize,
        r: usize,
        w: &[Vec<u64>],
    ) -> Result<(Matrix, Vec<f64>, ExecReport), ExecError> {
        run_qr_on_cfg(&ChannelTransport, a, dist, nb, r, w, ExecConfig::default())
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

    fn check_qr(a: &Matrix, packed: &Matrix, taus: &[f64], nb: usize, r: usize, tol: f64) {
        let (qm, rmat) = qr_unpack(packed, taus, nb, r);
        let reconstructed = matmul(&qm, &rmat);
        assert!(
            reconstructed.approx_eq(a, tol),
            "A != Q R, max err {}",
            reconstructed.sub(a).max_abs()
        );
        let n = nb * r;
        let qtq = matmul(&qm.transpose(), &qm);
        assert!(
            qtq.approx_eq(&Matrix::identity(n), tol),
            "Q not orthonormal, max err {}",
            qtq.sub(&Matrix::identity(n)).max_abs()
        );
    }

    #[test]
    fn qr_cyclic_reconstructs() {
        let nb = 4;
        let r = 3;
        let a = test_matrix(nb * r, 0xA1);
        let dist = BlockCyclic::new(2, 2);
        let (packed, taus, _) = run_qr(&a, &dist, nb, r, &vec![vec![1; 2]; 2]).unwrap();
        check_qr(&a, &packed, &taus, nb, r, 1e-9);
    }

    #[test]
    fn qr_matches_blocked_reference() {
        // The distributed schedule performs qr_blocked's arithmetic
        // column-by-column, so the R factors agree to rounding.
        let nb = 3;
        let r = 4;
        let a = test_matrix(nb * r, 0xA2);
        let dist = BlockCyclic::new(1, 2);
        let (packed, taus, _) = run_qr(&a, &dist, nb, r, &[vec![1; 2]]).unwrap();
        check_qr(&a, &packed, &taus, nb, r, 1e-9);
        let (_, r_seq) = hetgrid_linalg::qr::qr_blocked(&a, r);
        let n = nb * r;
        let r_dist = Matrix::from_fn(n, n, |i, j| if i <= j { packed[(i, j)] } else { 0.0 });
        assert!(
            r_dist.approx_eq(&r_seq, 1e-9),
            "R mismatch vs qr_blocked, max err {}",
            r_dist.sub(&r_seq).max_abs()
        );
    }

    #[test]
    fn qr_panel_with_weights() {
        let arr = Arrangement::from_rows(&[vec![1.0, 2.0], vec![3.0, 5.0]]);
        let sol = exact::solve_arrangement(&arr);
        let dist = PanelDist::from_allocation(&arr, &sol.alloc, 8, 6, PanelOrdering::Interleaved);
        let nb = 8;
        let r = 2;
        let a = test_matrix(nb * r, 0xA3);
        let w = crate::store::slowdown_weights(&arr);
        let (packed, taus, report) = run_qr(&a, &dist, nb, r, &w).unwrap();
        check_qr(&a, &packed, &taus, nb, r, 1e-8);
        assert!(report.work_units.iter().flatten().sum::<u64>() > 0);
        assert!(report.messages_sent.iter().flatten().sum::<u64>() > 0);
    }

    #[test]
    fn lookahead_is_bit_exact_with_in_order() {
        let arr = Arrangement::from_rows(&[vec![1.0, 2.0], vec![3.0, 5.0]]);
        let sol = exact::solve_arrangement(&arr);
        let dist = PanelDist::from_allocation(&arr, &sol.alloc, 8, 6, PanelOrdering::Interleaved);
        let nb = 8;
        let r = 2;
        let a = test_matrix(nb * r, 0xA5);
        let w = crate::store::slowdown_weights(&arr);
        let t = ChannelTransport;
        let run = |lookahead| {
            let (packed, taus, _) =
                run_qr_on_cfg(&t, &a, &dist, nb, r, &w, ExecConfig { lookahead }).unwrap();
            (packed, taus)
        };
        let (packed0, taus0) = run(0);
        for depth in [1, 3] {
            let (packed, taus) = run(depth);
            assert!(
                packed.approx_eq(&packed0, 0.0),
                "depth {depth} packed factors diverged from in-order"
            );
            assert_eq!(taus, taus0, "depth {depth} taus diverged from in-order");
        }
    }

    #[test]
    fn single_processor_qr() {
        let a = test_matrix(8, 0xA4);
        let dist = BlockCyclic::new(1, 1);
        let (packed, taus, report) = run_qr(&a, &dist, 4, 2, &[vec![1]]).unwrap();
        check_qr(&a, &packed, &taus, 4, 2, 1e-10);
        assert_eq!(report.messages_sent.iter().flatten().sum::<u64>(), 0);
    }
}
