//! A "poor man's parallel computer": a department's mixed bag of
//! workstations running a real distributed matrix multiplication and a
//! real distributed LU factorization through the threaded executor.
//!
//! ```text
//! cargo run --release --example heterogeneous_cluster
//! ```
//!
//! Eight machines of three generations (cycle-times 1, 2 and 4) are
//! arranged on a 2x4 grid. One OS thread plays each workstation,
//! slowed down by its cycle-time (every block kernel is repeated `w`
//! times). The example verifies the numerical results against the
//! sequential kernels and reports the weighted-work balance for the
//! uniform block-cyclic layout vs the paper's panel layout.

use hetgrid::core::heuristic;
use hetgrid::dist::{BlockCyclic, PanelDist, PanelOrdering};
use hetgrid::exec::{run_lu_on_cfg, run_mm_on_cfg, slowdown_weights, ChannelTransport, ExecConfig};
use hetgrid::linalg::gemm::matmul;
use hetgrid::linalg::tri::{unit_lower_from_packed, upper_from_packed};
use hetgrid::linalg::Matrix;

fn random_matrix(n: usize, seed: u64, dominant: bool) -> Matrix {
    let mut state = seed | 1;
    Matrix::from_fn(n, n, |i, j| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let v = ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0;
        if dominant && i == j {
            v + 2.0 * n as f64
        } else {
            v
        }
    })
}

fn main() {
    // Two old machines (t=4), four mid-range (t=2), two new (t=1).
    let times = [4.0, 4.0, 2.0, 2.0, 2.0, 2.0, 1.0, 1.0];
    let (p, q) = (2, 4);
    let result = heuristic::solve_default(&times, p, q);
    let best = result.best();
    println!("cluster arrangement:\n{}", best.arrangement);

    let weights = slowdown_weights(&best.arrangement);
    println!("slowdown weights (kernel repetitions): {:?}", weights);

    let nb = 16; // block rows/columns
    let r = 8; // block size
    let n = nb * r;
    let a = random_matrix(n, 0xA, false);
    let b = random_matrix(n, 0xB, false);
    let reference = matmul(&a, &b);

    println!(
        "\n--- distributed MM, {}x{} doubles on {} threads ---",
        n,
        n,
        p * q
    );
    let cfg = ExecConfig::default();
    for (name, dist) in [
        (
            "uniform cyclic",
            Box::new(BlockCyclic::new(p, q)) as Box<dyn hetgrid::dist::BlockDist + Sync>,
        ),
        (
            "panel (paper) ",
            Box::new(PanelDist::from_allocation(
                &best.arrangement,
                &best.alloc,
                8,
                8,
                PanelOrdering::Interleaved,
            )),
        ),
    ] {
        let (c, report) = run_mm_on_cfg(
            &ChannelTransport,
            &a,
            &b,
            dist.as_ref(),
            nb,
            r,
            &weights,
            cfg,
        )
        .unwrap();
        assert!(
            c.approx_eq(&reference, 1e-8),
            "distributed result diverged from sequential GEMM"
        );
        println!(
            "{}: correct; wall {:.3}s, work imbalance {:.2} (1.00 = perfect)",
            name,
            report.wall_seconds,
            report.work_imbalance()
        );
    }

    println!("\n--- distributed LU (no pivoting), {}x{} ---", n, n);
    let ad = random_matrix(n, 0xC, true);
    let panel = PanelDist::from_allocation(
        &best.arrangement,
        &best.alloc,
        8,
        8,
        PanelOrdering::Interleaved,
    );
    let (f, report) = run_lu_on_cfg(&ChannelTransport, &ad, &panel, nb, r, &weights, cfg).unwrap();
    let l = unit_lower_from_packed(&f);
    let u = upper_from_packed(&f);
    let err = matmul(&l, &u).sub(&ad).max_abs();
    println!(
        "panel layout: |A - L*U|_max = {:.2e}; wall {:.3}s, work imbalance {:.2}",
        err,
        report.wall_seconds,
        report.work_imbalance()
    );
    assert!(err < 1e-6, "LU reconstruction failed");
    println!("\nall distributed results verified against sequential kernels ✓");
}
