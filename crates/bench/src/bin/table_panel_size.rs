//! Panel-size sweep: the block panel `B_p x B_q` is the paper's main
//! tuning knob — small panels round the rational shares coarsely (bad
//! balance), huge panels are irrelevant once they divide the matrix
//! evenly. This table quantifies the trade-off.
//!
//! Usage: `table_panel_size [nb] [trials]` (defaults: 48, 5).

use hetgrid_bench::{print_table, random_times};
use hetgrid_core::heuristic;
use hetgrid_dist::{balance_report, PanelDist, PanelOrdering};
use hetgrid_plan::Kernel;
use hetgrid_sim::machine::CostModel;
use hetgrid_sim::{kernels, Broadcast};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let nb: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(48);
    let trials: usize = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(5);

    println!(
        "=== Panel size vs achieved balance (2x2 grids, nb = {}) ===",
        nb
    );
    println!(
        "(mean over {} random pools; util = static utilization over the",
        trials
    );
    println!(" whole matrix, mm = simulated makespan normalized to panel = 16)\n");

    let (p, q) = (2usize, 2usize);
    let cost = CostModel::default();
    let panels: &[usize] = &[2, 3, 4, 6, 8, 12, 16, 24];

    // Collect normalized results per panel size.
    let mut util = vec![0.0f64; panels.len()];
    let mut mksp = vec![0.0f64; panels.len()];
    let mut rng = StdRng::seed_from_u64(0x9A9E1);
    for _ in 0..trials {
        let times = random_times(p * q, &mut rng);
        let res = heuristic::solve_default(&times, p, q);
        let best = res.best();
        let arr = &best.arrangement;
        let mut run: Vec<(f64, f64)> = Vec::new();
        for &bsz in panels {
            let d = PanelDist::from_allocation(
                &best.arrangement,
                &best.alloc,
                bsz,
                bsz,
                PanelOrdering::Interleaved,
            );
            let rep = balance_report(&d, &best.arrangement, nb, nb);
            let sim = kernels::simulate(arr, &d, Kernel::Mm, nb, cost, Broadcast::Direct);
            run.push((rep.average_utilization, sim.report.makespan));
        }
        let base = run.last().expect("non-empty").1;
        for (k, (u, m)) in run.into_iter().enumerate() {
            util[k] += u;
            mksp[k] += m / base;
        }
    }

    let mut rows = Vec::new();
    for (k, &bsz) in panels.iter().enumerate() {
        rows.push(vec![
            format!("{}x{}", bsz, bsz),
            format!("{:.3}", util[k] / trials as f64),
            format!("{:.3}", mksp[k] / trials as f64),
        ]);
    }
    print_table(&["panel", "utilization", "mm makespan"], &rows);
    println!("\nsmall panels can only express coarse ratios (e.g. 1:1 on a 2-row");
    println!("panel), so balance improves with B_p, B_q and saturates once the");
    println!("rational shares are well approximated — the paper's reason for");
    println!("distributing panels rather than single blocks.");
}
