//! Master-worker vs 2D-grid matrix multiplication: communication volume
//! and wall time for the same problem on both platform models, plus the
//! memory/communication trade-off that motivates the maximum-reuse
//! streaming schedule.
//!
//! The star's master sends `kb * (|I| + |J|)` input blocks per `C`
//! tile, so growing the per-worker memory budget (and with it the tile
//! side `mu`) amortizes each fed block over more updates — the paper's
//! point that communication volume falls like `1/sqrt(M)`. The sweep
//! runs the *real* threaded executor at several budgets and records the
//! measured one-port traffic next to the closed-form prediction (they
//! must agree exactly — the run aborts otherwise, same correctness gate
//! as the other bench binaries), then runs the 2D-grid executor on the
//! same matrices as the reference point.
//!
//! Writes `BENCH_mw.json` at the repo root. Usage:
//! `mw_compare [--smoke]` — `--smoke` shrinks the problem so CI can
//! exercise the whole path in seconds.

use hetgrid_bench::report::{write_bench, JsonWriter};
use hetgrid_core::Topology;
use hetgrid_dist::BlockCyclic;
use hetgrid_exec::{run_mm_on_cfg, run_star_mm_on_cfg, ChannelTransport, ExecConfig};
use hetgrid_linalg::gemm::matmul;
use hetgrid_linalg::Matrix;
use hetgrid_sim::counts::counts;
use std::time::Instant;

/// Deterministic pseudo-random matrix (same generator as the gemm
/// tests).
fn arb(m: usize, n: usize, seed: u64) -> Matrix {
    let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    Matrix::from_fn(m, n, |_, _| {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
    })
}

fn time_min(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let (nb, r, reps) = if smoke { (6, 8, 2) } else { (12, 24, 3) };
    let workers = 4;
    let n = nb * r;
    let a = arb(n, n, 0xA0);
    let b = arb(n, n, 0xB0);
    let reference = matmul(&a, &b);

    let mut json = JsonWriter::new();
    json.bool_field("smoke", smoke)
        .int("nb", nb as u64)
        .int("r", r as u64)
        .int("workers", workers as u64);

    // --- 2D grid reference: uniform 2x2 block-cyclic ---
    let cfg = ExecConfig::default();
    let dist = BlockCyclic::new(2, 2);
    let grid_weights = vec![vec![1u64; 2]; 2];
    let run_grid = || run_mm_on_cfg(&ChannelTransport, &a, &b, &dist, nb, r, &grid_weights, cfg);
    let grid_s = time_min(reps, || {
        run_grid().expect("bench grid MM failed");
    });
    let (c_grid, grid_report) = run_grid().expect("grid MM");
    assert!(
        c_grid.approx_eq(&reference, 1e-9),
        "grid MM diverged from the sequential reference"
    );
    let grid_msgs = grid_report.total_messages();
    println!(
        "grid 2x2:          {:>8.2} ms, {:>6} messages",
        grid_s * 1e3,
        grid_msgs
    );
    json.open_object("grid")
        .str_field("shape", "2x2")
        .num("ms", grid_s * 1e3, 3)
        .int("messages", grid_msgs)
        .close();

    // --- star: memory-budget sweep ---
    let budgets: &[usize] = if smoke {
        &[3, 7, 13]
    } else {
        &[3, 7, 13, 31, 57]
    };
    let weights = vec![vec![1u64; workers + 1]];
    json.open_array("star");
    for &worker_mem in budgets {
        let topo = Topology::Star {
            workers,
            worker_mem,
            master_bw: 1.0,
        };
        let mu = hetgrid_plan::star_tile_side(worker_mem);
        let dims = (nb, nb, nb);
        let run_star =
            || run_star_mm_on_cfg(&ChannelTransport, &a, &b, &topo, dims, r, &weights, cfg);
        let star_s = time_min(reps, || {
            run_star().expect("bench star MM failed");
        });
        let (c_star, report) = run_star().expect("star MM");
        assert!(
            c_star.approx_eq(&reference, 1e-9),
            "star MM (mem {worker_mem}) diverged from the sequential reference"
        );
        let predicted = counts(&hetgrid_plan::star_mm_plan(&topo, dims), 0, &weights);
        assert_eq!(
            report.messages_sent, predicted.messages,
            "star executor traffic diverged from the closed form (mem {worker_mem})"
        );
        let sends = report.messages_sent[0][0];
        let returns: u64 = report.messages_sent[0][1..].iter().sum();
        println!(
            "star mem {:>3} mu {}: {:>8.2} ms, {:>6} sends + {:>5} returns over the one-port link",
            worker_mem,
            mu,
            star_s * 1e3,
            sends,
            returns
        );
        json.open_element()
            .int("worker_mem", worker_mem as u64)
            .int("mu", mu as u64)
            .num("ms", star_s * 1e3, 3)
            .int("master_sends", sends)
            .int("returns", returns)
            .int("messages", sends + returns)
            .close();
    }
    json.close();

    write_bench("BENCH_mw.json", &json.finish());
}
