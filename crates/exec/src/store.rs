//! Distributed block storage: scattering a global matrix over a
//! [`BlockDist`] and gathering it back — the executor-side equivalent of
//! ScaLAPACK's local array layout.

use hetgrid_dist::BlockDist;
use hetgrid_linalg::Matrix;
use std::collections::HashMap;
use std::sync::Mutex;

/// The blocks of one processor, keyed by global block coordinates.
pub type BlockStore = HashMap<(usize, usize), Matrix>;

/// A matrix partitioned into `r x r` blocks and scattered over a grid.
#[derive(Clone, Debug)]
pub struct DistributedMatrix {
    /// Block size `r`.
    pub r: usize,
    /// Number of block rows.
    pub nb_rows: usize,
    /// Number of block columns.
    pub nb_cols: usize,
    /// Per-processor stores, row-major over the grid.
    pub stores: Vec<BlockStore>,
    /// Grid shape.
    pub grid: (usize, usize),
}

impl DistributedMatrix {
    /// Scatters the square matrix `m` (side `nb * r`) over `dist`.
    ///
    /// # Panics
    /// Panics if `m` is not square with side `nb * r`.
    pub fn scatter(m: &Matrix, dist: &dyn BlockDist, nb: usize, r: usize) -> Self {
        Self::scatter_rect(m, dist, nb, nb, r)
    }

    /// Scatters a rectangular `nb_rows*r x nb_cols*r` matrix over `dist`.
    ///
    /// # Panics
    /// Panics on size mismatch.
    pub fn scatter_rect(
        m: &Matrix,
        dist: &dyn BlockDist,
        nb_rows: usize,
        nb_cols: usize,
        r: usize,
    ) -> Self {
        assert_eq!(
            m.shape(),
            (nb_rows * r, nb_cols * r),
            "scatter: size mismatch"
        );
        Self::from_blocks(dist, nb_rows, nb_cols, r, |bi, bj| {
            m.block(bi * r, bj * r, r, r)
        })
    }

    /// Creates an all-zero square distributed matrix.
    pub fn zeros(dist: &dyn BlockDist, nb: usize, r: usize) -> Self {
        Self::zeros_rect(dist, nb, nb, r)
    }

    /// Creates an all-zero rectangular distributed matrix: each owner
    /// gets fresh `r x r` zero blocks, with no global matrix in between.
    pub fn zeros_rect(dist: &dyn BlockDist, nb_rows: usize, nb_cols: usize, r: usize) -> Self {
        Self::from_blocks(dist, nb_rows, nb_cols, r, |_, _| Matrix::zeros(r, r))
    }

    /// Places block `block(bi, bj)` of an `nb_rows x nb_cols` block
    /// matrix at its owner under `dist`.
    fn from_blocks(
        dist: &dyn BlockDist,
        nb_rows: usize,
        nb_cols: usize,
        r: usize,
        mut block: impl FnMut(usize, usize) -> Matrix,
    ) -> Self {
        let (p, q) = dist.grid();
        let mut stores: Vec<BlockStore> = vec![HashMap::new(); p * q];
        for bi in 0..nb_rows {
            for bj in 0..nb_cols {
                let (i, j) = dist.owner(bi, bj);
                stores[i * q + j].insert((bi, bj), block(bi, bj));
            }
        }
        DistributedMatrix {
            r,
            nb_rows,
            nb_cols,
            stores,
            grid: (p, q),
        }
    }

    /// Gathers the blocks back into a global matrix.
    ///
    /// # Panics
    /// Panics if any block is missing (stores were tampered with).
    pub fn gather(&self) -> Matrix {
        let mut m = Matrix::zeros(self.nb_rows * self.r, self.nb_cols * self.r);
        let mut seen = 0usize;
        for store in &self.stores {
            for (&(bi, bj), block) in store {
                m.set_block(bi * self.r, bj * self.r, block);
                seen += 1;
            }
        }
        assert_eq!(seen, self.nb_rows * self.nb_cols, "gather: missing blocks");
        m
    }

    /// The store of processor `(i, j)`.
    pub fn store(&self, i: usize, j: usize) -> &BlockStore {
        &self.stores[i * self.grid.1 + j]
    }
}

/// One journaled block version: during plan step `step`, processor
/// `proc` (linear id) left `data` in global block `block`.
#[derive(Clone, Debug)]
struct LogEntry {
    proc: usize,
    step: usize,
    data: Matrix,
}

struct LogInner {
    /// Versions per global block, in append order. Within one step a
    /// block is written by exactly one action of its owner, so the
    /// `(block, step)` pairs are unique and "latest version below a
    /// step" is well defined no matter how worker threads interleaved
    /// their appends.
    entries: HashMap<(usize, usize), Vec<LogEntry>>,
    /// Per-processor retirement frontier: the number of plan steps the
    /// processor has fully retired (all its local actions done).
    retired: Vec<usize>,
}

/// An incremental block-version log — the checkpoint store behind
/// elastic-grid recovery.
///
/// Workers journal every namespace-0 block they write, tagged with the
/// plan step, and report each retired step. Because a step is only
/// retired once all of its local actions completed, the *global
/// frontier* `F = min_i retired_i` is a consistent cut: every write of
/// every step `< F` has been journaled on every processor, while the
/// in-flight writes of steps `>= F` are simply ignored by
/// [`CheckpointLog::state_at`]. Snapshots therefore always land on a
/// panel-retirement boundary — the executor's natural quiescent points.
///
/// The log is shared (`&self` everywhere, internal mutex) so one
/// instance can be journaled into by all workers of a run.
pub struct CheckpointLog {
    inner: Mutex<LogInner>,
    start: usize,
}

impl CheckpointLog {
    /// A fresh log for an epoch of `n_procs` workers whose step plan
    /// resumes at step `start` (0 for a from-scratch run). All
    /// retirement frontiers begin at `start`.
    pub fn new(n_procs: usize, start: usize) -> Self {
        CheckpointLog {
            inner: Mutex::new(LogInner {
                entries: HashMap::new(),
                retired: vec![start; n_procs],
            }),
            start,
        }
    }

    /// The step this epoch's plan resumed at.
    pub fn start(&self) -> usize {
        self.start
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, LogInner> {
        // A worker that panicked (harness watchdog) poisons the mutex;
        // the log stays readable for the recovery driver.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Journals one block version: `proc` wrote `data` into `block`
    /// during step `step`.
    pub fn record(&self, proc: usize, step: usize, block: (usize, usize), data: &Matrix) {
        self.lock()
            .entries
            .entry(block)
            .or_default()
            .push(LogEntry {
                proc,
                step,
                data: data.clone(),
            });
    }

    /// Marks step `front` retired on `proc`: its frontier moves to
    /// `front + 1`.
    pub fn note_retired(&self, proc: usize, front: usize) {
        let mut inner = self.lock();
        inner.retired[proc] = inner.retired[proc].max(front + 1);
    }

    /// The global retirement frontier `F = min_i retired_i`: every step
    /// `< F` is fully executed on every processor.
    pub fn frontier(&self) -> usize {
        self.lock()
            .retired
            .iter()
            .copied()
            .min()
            .unwrap_or(self.start)
    }

    /// Total number of journaled block versions.
    pub fn len(&self) -> usize {
        self.lock().entries.values().map(Vec::len).sum()
    }

    /// `true` if nothing has been journaled yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Blocks whose *latest* journaled version (at any step) was written
    /// by `proc` — the blocks that die with that processor if nothing
    /// below the cut supersedes them. Sorted for deterministic reports.
    pub fn written_last_by(&self, proc: usize) -> Vec<(usize, usize)> {
        let inner = self.lock();
        let mut blocks: Vec<(usize, usize)> = inner
            .entries
            .iter()
            .filter(|(_, versions)| {
                versions
                    .iter()
                    .max_by_key(|e| e.step)
                    .is_some_and(|e| e.proc == proc)
            })
            .map(|(&b, _)| b)
            .collect();
        blocks.sort_unstable();
        blocks
    }

    /// Materializes the consistent state at cut `f`: for every block in
    /// `base` (the epoch's starting content), the latest journaled
    /// version with `step < f`, or the base content when no step below
    /// the cut wrote it.
    ///
    /// # Panics
    /// Panics if the log journaled a block that `base` does not know —
    /// that would mean the epoch wrote outside its matrix.
    pub fn state_at(&self, f: usize, base: &BlockStore) -> BlockStore {
        let inner = self.lock();
        for block in inner.entries.keys() {
            assert!(
                base.contains_key(block),
                "CheckpointLog::state_at: journaled block {block:?} missing from base"
            );
        }
        base.iter()
            .map(|(&block, base_data)| {
                let data = inner
                    .entries
                    .get(&block)
                    .and_then(|versions| {
                        versions
                            .iter()
                            .filter(|e| e.step < f)
                            .max_by_key(|e| e.step)
                    })
                    .map(|e| e.data.clone())
                    .unwrap_or_else(|| base_data.clone());
                (block, data)
            })
            .collect()
    }
}

/// Per-processor execution measurements from a distributed run.
#[derive(Clone, Debug)]
pub struct ExecReport {
    /// Wall-clock seconds of the whole run.
    pub wall_seconds: f64,
    /// Seconds each processor spent in compute (row-major grid table).
    pub busy_seconds: Vec<Vec<f64>>,
    /// Number of block-update-equivalents each processor performed
    /// (weighted work units).
    pub work_units: Vec<Vec<u64>>,
    /// Number of messages each processor sent (one message per block
    /// per destination).
    pub messages_sent: Vec<Vec<u64>>,
}

impl ExecReport {
    /// Ratio of the busiest processor's compute time to the mean — 1.0
    /// means perfectly balanced compute. An empty or fully idle grid is
    /// reported as balanced (1.0) rather than NaN.
    pub fn imbalance(&self) -> f64 {
        let flat: Vec<f64> = self.busy_seconds.iter().flatten().cloned().collect();
        if flat.is_empty() {
            return 1.0;
        }
        let max = flat.iter().cloned().fold(0.0f64, f64::max);
        let mean = flat.iter().sum::<f64>() / flat.len() as f64;
        if mean > 0.0 {
            max / mean
        } else {
            1.0
        }
    }

    /// Ratio of the largest weighted work to the mean, a hardware-clock
    /// independent balance measure. An empty or zero-work grid is
    /// reported as balanced (1.0).
    pub fn work_imbalance(&self) -> f64 {
        let flat: Vec<u64> = self.work_units.iter().flatten().cloned().collect();
        let max = match flat.iter().max() {
            Some(&m) => m as f64,
            None => return 1.0,
        };
        let mean = flat.iter().sum::<u64>() as f64 / flat.len() as f64;
        if mean > 0.0 {
            max / mean
        } else {
            1.0
        }
    }

    /// Observed per-unit cycle-times: `busy_seconds / work_units` per
    /// processor, `None` where a processor performed no work this run.
    ///
    /// This is the telemetry signal the adaptive runtime consumes: on
    /// drifting machines the per-unit time of a processor rises with the
    /// competing load, independent of how many blocks it owned.
    pub fn observed_times(&self) -> Vec<Vec<Option<f64>>> {
        self.busy_seconds
            .iter()
            .zip(&self.work_units)
            .map(|(busy_row, unit_row)| {
                busy_row
                    .iter()
                    .zip(unit_row)
                    .map(|(&busy, &units)| {
                        if units > 0 {
                            Some(busy / units as f64)
                        } else {
                            None
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// Total number of messages sent across all processors.
    pub fn total_messages(&self) -> u64 {
        self.messages_sent.iter().flatten().sum()
    }
}

/// Integer slowdown weights from an arrangement: each processor repeats
/// every block kernel `w_ij = round(t_ij / min t)` times, emulating the
/// heterogeneous cycle-times on homogeneous hardware threads.
pub fn slowdown_weights(arr: &hetgrid_core::Arrangement) -> Vec<Vec<u64>> {
    let tmin = arr.times().iter().cloned().fold(f64::INFINITY, f64::min);
    (0..arr.p())
        .map(|i| {
            (0..arr.q())
                .map(|j| ((arr.time(i, j) / tmin).round() as u64).max(1))
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetgrid_dist::BlockCyclic;

    #[test]
    fn scatter_gather_roundtrip() {
        let m = Matrix::from_fn(12, 12, |i, j| (i * 12 + j) as f64);
        let dist = BlockCyclic::new(2, 2);
        let d = DistributedMatrix::scatter(&m, &dist, 4, 3);
        assert!(d.gather().approx_eq(&m, 0.0));
    }

    #[test]
    fn blocks_live_with_their_owner() {
        let m = Matrix::from_fn(8, 8, |i, j| (i + j) as f64);
        let dist = BlockCyclic::new(2, 2);
        let d = DistributedMatrix::scatter(&m, &dist, 4, 2);
        // Block (1, 3) belongs to (1, 1).
        assert!(d.store(1, 1).contains_key(&(1, 3)));
        assert!(!d.store(0, 0).contains_key(&(1, 3)));
        // Each store holds nb^2 / (p*q) blocks here.
        assert_eq!(d.store(0, 0).len(), 4);
    }

    #[test]
    fn checkpoint_frontier_is_min_over_procs() {
        let log = CheckpointLog::new(3, 0);
        assert_eq!(log.frontier(), 0);
        log.note_retired(0, 0);
        log.note_retired(1, 2);
        assert_eq!(log.frontier(), 0); // proc 2 has retired nothing
        log.note_retired(2, 1);
        assert_eq!(log.frontier(), 1); // proc 0 is the laggard now
    }

    #[test]
    fn checkpoint_state_picks_latest_version_below_cut() {
        let log = CheckpointLog::new(2, 0);
        let base: BlockStore = [((0, 0), Matrix::zeros(2, 2)), ((0, 1), Matrix::zeros(2, 2))]
            .into_iter()
            .collect();
        let v = |x: f64| Matrix::from_fn(2, 2, |_, _| x);
        // Appends arrive out of step order, as racing workers produce.
        log.record(0, 2, (0, 0), &v(3.0));
        log.record(0, 0, (0, 0), &v(1.0));
        log.record(1, 1, (0, 0), &v(2.0));
        let cut = log.state_at(2, &base);
        assert!(cut[&(0, 0)].approx_eq(&v(2.0), 0.0)); // step 2 is above the cut
        assert!(cut[&(0, 1)].approx_eq(&Matrix::zeros(2, 2), 0.0)); // untouched -> base
                                                                    // Cut at the start falls back to the base everywhere.
        let fresh = log.state_at(0, &base);
        assert!(fresh[&(0, 0)].approx_eq(&Matrix::zeros(2, 2), 0.0));
        // The proc that last touched (0, 0) is the one that would lose it.
        assert_eq!(log.written_last_by(0), vec![(0, 0)]);
        assert_eq!(log.written_last_by(1), Vec::<(usize, usize)>::new());
    }

    #[test]
    #[should_panic(expected = "missing from base")]
    fn checkpoint_state_rejects_foreign_blocks() {
        let log = CheckpointLog::new(1, 0);
        log.record(0, 0, (5, 5), &Matrix::zeros(2, 2));
        log.state_at(1, &BlockStore::new());
    }

    #[test]
    fn slowdown_weights_are_normalized() {
        let arr = hetgrid_core::Arrangement::from_rows(&[vec![1.0, 2.0], vec![3.0, 6.0]]);
        assert_eq!(slowdown_weights(&arr), vec![vec![1, 2], vec![3, 6]]);
        let arr2 = hetgrid_core::Arrangement::from_rows(&[vec![0.5, 1.0]]);
        assert_eq!(slowdown_weights(&arr2), vec![vec![1, 2]]);
    }
}
