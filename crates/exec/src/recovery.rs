//! Elastic-grid recovery: resume a distributed kernel run after a
//! processor crashes out of (or joins into) the grid mid-run.
//!
//! The model is checkpoint-restart over the executor's step plans. An
//! epoch runs a kernel's plan from step `start` with every namespace-0
//! block write journaled into a [`CheckpointLog`] (the stand-in for a
//! reliable checkpoint store: the log lives in the driver, outside the
//! worker threads, so it survives any worker's death). A
//! fault-injecting transport kills a worker only at a *retirement
//! boundary* (the [`Endpoint::mark`](crate::transport::Endpoint::mark)
//! beacon), so when an epoch aborts the driver can compute the global
//! retirement frontier `F = min_i retired_i` — the *consistent cut*:
//! every step `< F` is fully executed on every processor, and the
//! journaled state at `F` (latest logged version of each block below
//! the cut, else the epoch baseline) is exactly what an in-order run
//! would hold after step `F - 1`.
//!
//! Recovery then:
//!
//! 1. rolls the distributed matrix back to the cut via
//!    [`CheckpointLog::state_at`];
//! 2. asks the caller's `resolve` hook for the survivor grid — a new
//!    `p' x q'` shape, a re-solved distribution and weight table, and a
//!    `proc_map` from old to new linear processor ids;
//! 3. places every block: survivors keep theirs (at their new linear
//!    id), blocks of the dead processor are restored from the log
//!    directly at their new owner;
//! 4. hands the placement to the caller's `redistribute` hook
//!    (`hetgrid-adapt`'s incremental mover) to migrate the survivor
//!    blocks the re-solved distribution wants elsewhere;
//! 5. re-derives the step plan for the survivor distribution and
//!    resumes execution at step `F` with a fresh journal.
//!
//! Because every plan's communication is intra-step (every `needs` key
//! names a same-step message) and per-block arithmetic order is fixed
//! by program order regardless of the distribution, the resumed epoch
//! is self-contained and the final result is **bit-exact** against the
//! fault-free run — which is what the harness's `check_recovery`
//! oracle asserts.
//!
//! The dependency layering keeps this module free of `hetgrid-adapt`
//! and the harness: both the fault-event source and the redistribution
//! engine arrive as [`RecoveryHooks`] closures.

use crate::cholesky::{cholesky_seg, gather_cholesky};
use crate::lu::lu_seg;
use crate::mm::mm_seg;
use crate::qr::qr_seg;
use crate::step::{gather_result, ExecConfig};
use crate::store::{BlockStore, CheckpointLog, DistributedMatrix, ExecReport};
use crate::transport::{ExecError, Transport};
use hetgrid_dist::BlockDist;
use hetgrid_linalg::Matrix;
use std::sync::Mutex;

/// A grid-membership fault observed by the transport, always anchored
/// at a retirement boundary (the step the victim had just retired when
/// the fault fired).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GridFault {
    /// Processor `proc` (linear id in the grid the fault fired on)
    /// died after retiring step `at_step`.
    Crash {
        /// Linear id of the dead processor.
        proc: usize,
        /// The last step the processor retired before dying.
        at_step: usize,
    },
    /// A new processor asked to join; the grid pauses after retiring
    /// step `at_step` to resize.
    Join {
        /// The retirement boundary the grid paused at.
        at_step: usize,
    },
}

/// The caller's answer to a [`GridFault`]: the grid to continue on.
pub struct SurvivorGrid {
    /// Re-solved block distribution over the new grid (its
    /// [`BlockDist::grid`] is the new shape).
    pub dist: Box<dyn BlockDist + Send + Sync>,
    /// Slowdown weights for the new grid.
    pub weights: Vec<Vec<u64>>,
    /// Old linear processor id to new linear id; `None` for a
    /// processor that died. A join maps every old id and grows the
    /// id space.
    pub proc_map: Vec<Option<usize>>,
}

/// Environment hooks for [`run_recovery`], supplied by the caller so
/// this crate stays independent of the harness (fault events) and
/// `hetgrid-adapt` (redistribution).
pub struct RecoveryHooks<'h> {
    /// All grid faults the transport has injected so far, in firing
    /// order. Queried after an epoch aborts; an abort with no new
    /// fault is a genuine failure and is returned as the original
    /// [`ExecError`].
    pub events: Box<dyn Fn() -> Vec<GridFault> + 'h>,
    /// Solves the load-balancing problem for the post-fault grid.
    pub resolve: Box<dyn Fn(&GridFault) -> SurvivorGrid + 'h>,
    /// Moves blocks from the first distribution to the second (both on
    /// the same grid), returning how many blocks moved. Wired to
    /// `hetgrid_adapt::redistribute` by real callers.
    pub redistribute:
        Box<dyn Fn(&mut DistributedMatrix, &dyn BlockDist, &dyn BlockDist) -> usize + 'h>,
}

/// What to factor (or multiply) under the recovery driver.
pub enum RecoveryInput<'a> {
    /// `C = A * B` on square `nb x nb` block matrices.
    Mm {
        /// Left operand.
        a: &'a Matrix,
        /// Right operand.
        b: &'a Matrix,
    },
    /// Right-looking LU (no pivoting).
    Lu {
        /// The matrix to factor (diagonally dominant).
        a: &'a Matrix,
    },
    /// Right-looking Cholesky of an SPD matrix.
    Cholesky {
        /// The SPD matrix to factor.
        a: &'a Matrix,
    },
    /// Fan-in Householder QR.
    Qr {
        /// The matrix to factor.
        a: &'a Matrix,
    },
}

/// What happened across the epochs of a recovered run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Processor crashes recovered from.
    pub crashes: usize,
    /// Processor joins absorbed.
    pub joins: usize,
    /// The consistent cut of the last fault (the step the final epoch
    /// resumed at).
    pub frontier: usize,
    /// Blocks that lived on a dead processor at its cut and were
    /// restored from the checkpoint store.
    pub dead_blocks: usize,
    /// Blocks the incremental redistribution moved between survivors.
    pub blocks_moved: usize,
    /// Retired-step progress discarded by rolling back to the cut
    /// (work replayed by the next epoch).
    pub replayed_steps: usize,
}

/// A recovered run's outputs: the gathered result (`C`, the packed `F`
/// or `L` factors, or QR's packed factors), the Householder scalars
/// for QR, the final epoch's measurements, and the recovery stats.
pub struct RecoveryOutput {
    /// Gathered result matrix.
    pub result: Matrix,
    /// QR's Householder scalars (`None` for the other kernels).
    pub taus: Option<Vec<f64>>,
    /// The final (completing) epoch's execution report.
    pub report: ExecReport,
    /// What recovery did.
    pub stats: RecoveryStats,
}

/// A [`BlockDist`] view of "where the blocks physically are" right
/// after a fault, expressed on the *new* grid: a surviving block sits
/// at its old owner's new linear id, a dead processor's block is
/// restored from the checkpoint store directly at the address the new
/// distribution wants it. Feeding this as the `from` side of the
/// redistribution keeps both sides on the same grid (which the
/// incremental mover requires) while moving only survivor blocks.
struct RemappedDist<'a> {
    old: &'a dyn BlockDist,
    new: &'a dyn BlockDist,
    proc_map: &'a [Option<usize>],
}

impl BlockDist for RemappedDist<'_> {
    fn grid(&self) -> (usize, usize) {
        self.new.grid()
    }

    fn owner(&self, bi: usize, bj: usize) -> (usize, usize) {
        let (oi, oj) = self.old.owner(bi, bj);
        let (_, oq) = self.old.grid();
        match self.proc_map[oi * oq + oj] {
            Some(id) => {
                let (_, nq) = self.new.grid();
                (id / nq, id % nq)
            }
            None => self.new.owner(bi, bj),
        }
    }

    fn is_cartesian(&self) -> bool {
        false
    }
}

/// Per-kernel distributed state carried across epochs. `da` (and MM's
/// `dc`) always hold the consistent state at the current epoch's start
/// step on the current grid.
enum KernelState {
    Lu {
        da: DistributedMatrix,
    },
    Cholesky {
        da: DistributedMatrix,
    },
    Qr {
        da: DistributedMatrix,
        taus: Mutex<Vec<Vec<f64>>>,
    },
    Mm {
        da: DistributedMatrix,
        db: DistributedMatrix,
        dc: DistributedMatrix,
    },
}

impl KernelState {
    /// The matrix whose writes are journaled (the factored matrix, or
    /// C for MM).
    fn journaled(&self) -> &DistributedMatrix {
        match self {
            KernelState::Lu { da } | KernelState::Cholesky { da } | KernelState::Qr { da, .. } => {
                da
            }
            KernelState::Mm { dc, .. } => dc,
        }
    }

    fn journaled_mut(&mut self) -> &mut DistributedMatrix {
        match self {
            KernelState::Lu { da } | KernelState::Cholesky { da } | KernelState::Qr { da, .. } => {
                da
            }
            KernelState::Mm { dc, .. } => dc,
        }
    }
}

/// Runs a kernel to completion over `transport`, surviving any grid
/// faults the transport injects by checkpoint-restarting on the
/// survivor grid (see the module docs for the protocol).
///
/// The matrices are `nb x nb` blocks of size `r`, initially laid out
/// by `dist` with slowdown `weights`. Returns the gathered result —
/// bit-exact against the fault-free run — or the original
/// [`ExecError`] when an epoch aborts without a fault event (a genuine
/// failure, e.g. an un-recovered crash).
///
/// # Panics
/// Panics if a fault's survivor grid loses blocks (conservation is
/// asserted after every redistribution) or on the size mismatches the
/// underlying kernels reject.
pub fn run_recovery(
    transport: &impl Transport,
    input: RecoveryInput<'_>,
    dist: &(dyn BlockDist + Sync),
    nb: usize,
    r: usize,
    weights: &[Vec<u64>],
    cfg: ExecConfig,
    hooks: &RecoveryHooks<'_>,
) -> Result<RecoveryOutput, ExecError> {
    let (p, q) = dist.grid();
    let mut state = match &input {
        RecoveryInput::Mm { a, b } => KernelState::Mm {
            da: DistributedMatrix::scatter(a, dist, nb, r),
            db: DistributedMatrix::scatter(b, dist, nb, r),
            dc: DistributedMatrix::zeros(dist, nb, r),
        },
        RecoveryInput::Lu { a } => KernelState::Lu {
            da: DistributedMatrix::scatter(a, dist, nb, r),
        },
        RecoveryInput::Cholesky { a } => KernelState::Cholesky {
            da: DistributedMatrix::scatter(a, dist, nb, r),
        },
        RecoveryInput::Qr { a } => KernelState::Qr {
            da: DistributedMatrix::scatter(a, dist, nb, r),
            taus: Mutex::new(vec![Vec::new(); nb]),
        },
    };

    // The current epoch's grid: `None` means the initial `dist` /
    // `weights`, `Some` a survivor grid installed by recovery.
    let mut survivor: Option<SurvivorGrid> = None;
    let mut start = 0usize;
    let mut log = CheckpointLog::new(p * q, 0);
    let mut stats = RecoveryStats::default();
    let mut handled = 0usize;

    loop {
        let (cur_dist, cur_weights): (&(dyn BlockDist + Sync), &[Vec<u64>]) = match &survivor {
            Some(s) => (&*s.dist, &s.weights),
            None => (dist, weights),
        };
        // The segments consume their stores; `state` must survive a
        // failed epoch (recovery rebuilds from it), so each epoch runs
        // on a copy.
        let outcome = match &state {
            KernelState::Lu { da } => lu_seg(
                transport,
                da.clone(),
                cur_dist,
                cur_weights,
                cfg,
                start,
                Some(&log),
            ),
            KernelState::Cholesky { da } => cholesky_seg(
                transport,
                da.clone(),
                cur_dist,
                cur_weights,
                cfg,
                start,
                Some(&log),
            ),
            KernelState::Qr { da, taus } => qr_seg(
                transport,
                da.clone(),
                cur_dist,
                cur_weights,
                cfg,
                start,
                Some(&log),
                taus,
            ),
            KernelState::Mm { da, db, dc } => mm_seg(
                transport,
                da,
                db,
                dc.clone(),
                cur_dist,
                cur_weights,
                cfg,
                start,
                Some(&log),
            ),
        };

        let err = match outcome {
            Ok((stores, report)) => {
                let result = match &state {
                    KernelState::Cholesky { .. } => gather_cholesky(stores, nb, r),
                    KernelState::Lu { .. } => gather_result(stores, (nb, nb), r, "run_lu"),
                    KernelState::Mm { .. } => gather_result(stores, (nb, nb), r, "run_mm"),
                    KernelState::Qr { .. } => gather_result(stores, (nb, nb), r, "run_qr"),
                };
                let taus = match state {
                    KernelState::Qr { taus, .. } => {
                        let flat: Vec<f64> = taus
                            .into_inner()
                            .unwrap_or_else(|e| e.into_inner())
                            .into_iter()
                            .flatten()
                            .collect();
                        assert_eq!(
                            flat.len(),
                            nb * r,
                            "run_recovery: missing Householder scalars"
                        );
                        Some(flat)
                    }
                    _ => None,
                };
                return Ok(RecoveryOutput {
                    result,
                    taus,
                    report,
                    stats,
                });
            }
            Err(e) => e,
        };

        // The epoch aborted. A new fault event means the transport
        // killed (or paused) us on purpose; none means the grid really
        // broke, and the error propagates untouched.
        let faults = (hooks.events)();
        if faults.len() <= handled {
            return Err(err);
        }
        let fault = faults[handled];
        handled = faults.len();

        let frontier = log.frontier();
        let sv = (hooks.resolve)(&fault);
        let (np, nq) = sv.dist.grid();
        let (op, oq) = cur_dist.grid();
        assert_eq!(
            sv.proc_map.len(),
            op * oq,
            "run_recovery: proc_map does not cover the old grid"
        );

        // Roll the journaled matrix back to the consistent cut.
        let jm = state.journaled();
        let base: BlockStore = jm
            .stores
            .iter()
            .flat_map(|s| s.iter().map(|(&k, v)| (k, v.clone())))
            .collect();
        let cut = log.state_at(frontier, &base);

        // Stats + obs counters, before `sv` moves into place.
        let at_step = match fault {
            GridFault::Crash { proc, at_step } => {
                stats.crashes += 1;
                stats.dead_blocks += base
                    .keys()
                    .filter(|&&(bi, bj)| {
                        let (oi, oj) = cur_dist.owner(bi, bj);
                        oi * oq + oj == proc
                    })
                    .count();
                at_step
            }
            GridFault::Join { at_step } => {
                stats.joins += 1;
                at_step
            }
        };
        stats.frontier = frontier;
        stats.replayed_steps += (at_step + 1).saturating_sub(frontier);

        // Re-place every block of the cut on the new grid: survivors at
        // their mapped id, dead-processor blocks straight at the new
        // distribution's address. Then let the incremental mover settle
        // the survivors the re-solved distribution wants elsewhere.
        let total_blocks = cut.len();
        let mut placed = DistributedMatrix {
            r,
            nb_rows: jm.nb_rows,
            nb_cols: jm.nb_cols,
            stores: vec![BlockStore::new(); np * nq],
            grid: (np, nq),
        };
        {
            let remap = RemappedDist {
                old: cur_dist,
                new: &*sv.dist,
                proc_map: &sv.proc_map,
            };
            for (&(bi, bj), data) in &cut {
                let (i, j) = remap.owner(bi, bj);
                placed.stores[i * nq + j].insert((bi, bj), data.clone());
            }
            let moved = (hooks.redistribute)(&mut placed, &remap, &*sv.dist);
            stats.blocks_moved += moved;
        }
        let placed_count: usize = placed.stores.iter().map(BlockStore::len).sum();
        assert_eq!(
            placed_count, total_blocks,
            "run_recovery: block conservation violated across the grid change"
        );

        let m = hetgrid_obs::metrics();
        match fault {
            GridFault::Crash { .. } => m.counter("exec.recovery.crashes").inc(),
            GridFault::Join { .. } => m.counter("exec.recovery.joins").inc(),
        }
        m.counter("exec.recovery.blocks_moved")
            .add(stats.blocks_moved as u64);
        m.counter("exec.recovery.replayed_steps")
            .add((at_step + 1).saturating_sub(frontier) as u64);
        // Mark the epoch boundary on the recovery track and dump the
        // flight rings: the spans leading up to the fault are exactly
        // the forensics a postmortem wants, and the rings record them
        // even when tracing export was never enabled.
        let note = format!(
            "recovery epoch: {} -> {}x{} grid, resume at step {}",
            match fault {
                GridFault::Crash { proc, .. } => format!("crash of proc {proc}"),
                GridFault::Join { .. } => "join".to_string(),
            },
            np,
            nq,
            frontier
        );
        hetgrid_obs::event!(hetgrid_obs::trace::track("recovery"), "{}", note);
        hetgrid_obs::flight::dump(&note);

        *state.journaled_mut() = placed;
        // MM's operands are read-only: re-scatter them on the new
        // distribution instead of journaling them.
        if let (KernelState::Mm { da, db, .. }, RecoveryInput::Mm { a, b }) = (&mut state, &input) {
            *da = DistributedMatrix::scatter(a, &*sv.dist, nb, r);
            *db = DistributedMatrix::scatter(b, &*sv.dist, nb, r);
        }

        survivor = Some(sv);
        start = frontier;
        log = CheckpointLog::new(np * nq, frontier);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetgrid_dist::BlockCyclic;

    /// A remapped view with a dead processor: survivor blocks follow
    /// the proc_map, the dead processor's blocks land wherever the new
    /// distribution puts them.
    #[test]
    fn remapped_dist_maps_survivors_and_rehomes_dead_blocks() {
        // Old 2x2 cyclic grid; processor (0,1) (linear 1) dies, the
        // survivors renumber to a 1x3 row: 0->0, 2->1, 3->2.
        let old = BlockCyclic::new(2, 2);
        let new = BlockCyclic::new(1, 3);
        let proc_map = vec![Some(0), None, Some(1), Some(2)];
        let remap = RemappedDist {
            old: &old,
            new: &new,
            proc_map: &proc_map,
        };
        assert_eq!(remap.grid(), (1, 3));
        // (0,0): old owner (0,0) = linear 0 -> new linear 0 = (0,0).
        assert_eq!(remap.owner(0, 0), (0, 0));
        // (1,0): old owner (1,0) = linear 2 -> new linear 1 = (0,1).
        assert_eq!(remap.owner(1, 0), (0, 1));
        // (1,1): old owner (1,1) = linear 3 -> new linear 2 = (0,2).
        assert_eq!(remap.owner(1, 1), (0, 2));
        // (0,1): old owner (0,1) is dead -> new dist's address.
        assert_eq!(remap.owner(0, 1), new.owner(0, 1));
        assert!(!remap.is_cartesian());
    }
}
