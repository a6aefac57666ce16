//! Seeded scenario generation: grids, cycle-times, distributions,
//! block sizes, and test matrices, all drawn deterministically from one
//! `u64` seed.
//!
//! A scenario is everything a harness case needs besides the fault
//! profile: the heterogeneous arrangement, a block distribution over
//! it, the block grid dimensions, the slowdown-weight table (possibly
//! with an injected extra slowdown — the "processor slowdown" fault),
//! and deterministic input matrices.

use hetgrid_core::{exact, Arrangement};
use hetgrid_dist::{BlockCyclic, BlockDist, KlDist, PanelDist, PanelOrdering};
use hetgrid_exec::slowdown_weights;
use hetgrid_linalg::gemm::matmul;
use hetgrid_linalg::Matrix;
use hetgrid_plan::Kernel;
use rand::prelude::*;

/// A fully determined executor test case (minus the fault profile).
pub struct ExecScenario {
    /// The heterogeneous cycle-time arrangement.
    pub arr: Arrangement,
    /// The block distribution under test.
    pub dist: Box<dyn BlockDist + Sync>,
    /// Which distribution family `dist` is, for failure messages.
    pub dist_name: &'static str,
    /// Matrix order in blocks.
    pub nb: usize,
    /// Block order.
    pub r: usize,
    /// Slowdown-weight table handed to the executor (derived from the
    /// arrangement, plus any injected slowdown).
    pub weights: Vec<Vec<u64>>,
    /// The injected slowdown fault, if any: `(i, j, factor)` — grid
    /// processor `(i, j)` runs `factor` times slower than its
    /// arrangement says.
    pub slowdown: Option<(usize, usize, u64)>,
    /// Executor lookahead window depth (0 = strict in-order).
    pub lookahead: usize,
}

impl ExecScenario {
    /// Grid shape `(p, q)`.
    pub fn grid(&self) -> (usize, usize) {
        (self.arr.p(), self.arr.q())
    }

    /// One-line description for failure messages.
    pub fn describe(&self) -> String {
        let (p, q) = self.grid();
        format!(
            "{}x{} grid, {} dist, nb={}, r={}, slowdown={:?}, lookahead={}",
            p, q, self.dist_name, self.nb, self.r, self.slowdown, self.lookahead
        )
    }
}

/// Draws the executor scenario for `seed`: a 2x2 / 2x3 / 3x2 / 3x3
/// grid with cycle-times in `[0.5, 4)`, one of the four distribution
/// families, `nb` in `4..=6`, `r` in `2..=3`, and (every third seed or
/// so) an injected processor slowdown.
pub fn exec_scenario(seed: u64) -> ExecScenario {
    let mut rng = StdRng::seed_from_u64(seed);
    let (p, q) = [(2, 2), (2, 3), (3, 2), (3, 3)][rng.gen_range(0..4usize)];
    let arr = random_arrangement(&mut rng, p, q);
    let nb = rng.gen_range(4..=6usize);
    let r = rng.gen_range(2..=3usize);

    let (dist, dist_name) = random_dist(&mut rng, &arr);

    let mut weights = slowdown_weights(&arr);
    let slowdown = if rng.gen_bool(0.34) {
        let (i, j) = (rng.gen_range(0..p), rng.gen_range(0..q));
        let factor = rng.gen_range(2..=4u64);
        weights[i][j] *= factor;
        Some((i, j, factor))
    } else {
        None
    };

    // Drawn last so the seeds 0..N corpus keeps the exact grids,
    // distributions, and matrices it had before lookahead existed.
    // Biased toward the default depth, with in-order and deeper windows
    // represented; HARNESS_LOOKAHEAD pins every scenario to one depth.
    let lookahead = match std::env::var("HARNESS_LOOKAHEAD") {
        Ok(v) => v
            .trim()
            .parse()
            .expect("HARNESS_LOOKAHEAD must be a non-negative integer"),
        Err(_) => [0, 1, 2, 2, 3][rng.gen_range(0..5usize)],
    };

    ExecScenario {
        arr,
        dist,
        dist_name,
        nb,
        r,
        weights,
        slowdown,
        lookahead,
    }
}

/// A fully determined master-worker (star) executor case.
pub struct StarScenario {
    /// The star platform: worker count, per-worker memory budget,
    /// master link bandwidth.
    pub topo: hetgrid_core::Topology,
    /// Block-grid dimensions `(mb, nb, kb)` of `C = A * B`.
    pub dims: (usize, usize, usize),
    /// Block order.
    pub r: usize,
    /// Slowdown-weight table, `1 x (workers + 1)` (entry 0 is the
    /// master, which performs no block work).
    pub weights: Vec<Vec<u64>>,
    /// Executor lookahead window depth (0 = strict in-order).
    pub lookahead: usize,
}

impl StarScenario {
    /// One-line description for failure messages.
    pub fn describe(&self) -> String {
        format!(
            "{}, dims={:?}, r={}, weights={:?}, lookahead={}",
            self.topo, self.dims, self.r, self.weights, self.lookahead
        )
    }
}

/// Draws the master-worker scenario for `seed`: 1–4 workers with a
/// memory budget in `3..=13` blocks, block-grid dimensions in `2..=5`,
/// heterogeneous worker slowdowns in `1..=4`, and a lookahead depth
/// drawn like [`exec_scenario`]'s (respecting `HARNESS_LOOKAHEAD`).
///
/// This is a separate draw from [`exec_scenario`] on purpose: the grid
/// scenario's draw order is pinned by the existing corpus, and the star
/// platform needs none of its grid/distribution machinery.
pub fn star_scenario(seed: u64) -> StarScenario {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x57A2_57A2_57A2_57A2);
    let workers = rng.gen_range(1..=4usize);
    let worker_mem = rng.gen_range(3..=13usize);
    let topo = hetgrid_core::Topology::Star {
        workers,
        worker_mem,
        master_bw: 1.0,
    };
    let dims = (
        rng.gen_range(2..=5usize),
        rng.gen_range(2..=5usize),
        rng.gen_range(2..=5usize),
    );
    let r = rng.gen_range(2..=3usize);
    let mut weights = vec![vec![1u64; workers + 1]];
    for slot in weights[0].iter_mut().skip(1) {
        *slot = rng.gen_range(1..=4u64);
    }
    let lookahead = match std::env::var("HARNESS_LOOKAHEAD") {
        Ok(v) => v
            .trim()
            .parse()
            .expect("HARNESS_LOOKAHEAD must be a non-negative integer"),
        Err(_) => [0, 1, 2, 2, 3][rng.gen_range(0..5usize)],
    };
    StarScenario {
        topo,
        dims,
        r,
        weights,
        lookahead,
    }
}

/// Draws one of the four distribution families over `arr`.
pub fn random_dist(
    rng: &mut StdRng,
    arr: &Arrangement,
) -> (Box<dyn BlockDist + Sync>, &'static str) {
    let (p, q) = (arr.p(), arr.q());
    match rng.gen_range(0..4u32) {
        0 => (Box::new(BlockCyclic::new(p, q)), "cyclic"),
        1 => {
            let sol = exact::solve_arrangement(arr);
            (
                Box::new(PanelDist::from_allocation(
                    arr,
                    &sol.alloc,
                    2 * p,
                    2 * q,
                    PanelOrdering::Contiguous,
                )),
                "panel-contiguous",
            )
        }
        2 => {
            let rows: Vec<usize> = (0..p).map(|_| rng.gen_range(1..=3usize)).collect();
            let cols: Vec<usize> = (0..q).map(|_| rng.gen_range(1..=3usize)).collect();
            (
                Box::new(PanelDist::from_counts(
                    arr,
                    &rows,
                    &cols,
                    PanelOrdering::Interleaved,
                )),
                "panel-interleaved",
            )
        }
        _ => {
            let bp = p + rng.gen_range(0..=3usize);
            let bq = q + rng.gen_range(0..=3usize);
            (Box::new(KlDist::new(arr, bp, bq)), "kl")
        }
    }
}

/// A random arrangement with cycle-times in `[0.5, 4)`.
pub fn random_arrangement(rng: &mut StdRng, p: usize, q: usize) -> Arrangement {
    let rows: Vec<Vec<f64>> = (0..p)
        .map(|_| (0..q).map(|_| rng.gen_range(0.5..4.0)).collect())
        .collect();
    Arrangement::from_rows(&rows)
}

/// A dense matrix with entries in `[-1, 1)`.
pub fn general_matrix(rng: &mut StdRng, rows: usize, cols: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-1.0..1.0))
}

/// A diagonally dominant matrix (safe for LU without pivoting).
pub fn dominant_matrix(rng: &mut StdRng, n: usize) -> Matrix {
    let mut m = general_matrix(rng, n, n);
    for i in 0..n {
        m[(i, i)] += 2.0 * n as f64;
    }
    m
}

/// A symmetric positive definite matrix (`B^T B` plus a diagonal
/// shift).
pub fn spd_matrix(rng: &mut StdRng, n: usize) -> Matrix {
    let b = general_matrix(rng, n, n);
    let mut a = matmul(&b.transpose(), &b);
    for i in 0..n {
        a[(i, i)] += n as f64;
    }
    a
}

/// Draws `kernel`'s operands from a case's matrix stream: general
/// matrices for MM (left and right operand) and QR, a diagonally
/// dominant one for LU, an SPD one for Cholesky.
pub fn kernel_operands(kernel: Kernel, rng: &mut StdRng, n: usize) -> (Matrix, Option<Matrix>) {
    match kernel {
        Kernel::Mm => (general_matrix(rng, n, n), Some(general_matrix(rng, n, n))),
        Kernel::Lu => (dominant_matrix(rng, n), None),
        Kernel::Cholesky => (spd_matrix(rng, n), None),
        Kernel::Qr => (general_matrix(rng, n, n), None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_are_deterministic() {
        for seed in 0..32 {
            let a = exec_scenario(seed);
            let b = exec_scenario(seed);
            assert_eq!(a.describe(), b.describe(), "seed {seed}");
            assert_eq!(a.weights, b.weights, "seed {seed}");
            for bi in 0..a.nb {
                for bj in 0..a.nb {
                    assert_eq!(a.dist.owner(bi, bj), b.dist.owner(bi, bj));
                }
            }
        }
    }

    #[test]
    fn corpus_covers_every_distribution_family() {
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..64 {
            seen.insert(exec_scenario(seed).dist_name);
        }
        for name in ["cyclic", "panel-contiguous", "panel-interleaved", "kl"] {
            assert!(seen.contains(name), "no seed in 0..64 exercises {name}");
        }
    }

    #[test]
    fn matrices_are_deterministic() {
        let mut r1 = StdRng::seed_from_u64(9);
        let mut r2 = StdRng::seed_from_u64(9);
        assert!(spd_matrix(&mut r1, 8).approx_eq(&spd_matrix(&mut r2, 8), 0.0));
    }
}
