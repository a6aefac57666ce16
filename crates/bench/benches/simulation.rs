//! Criterion benchmarks over the discrete-event simulator and the
//! DESIGN.md ablations that need it: LU panel-column ordering
//! (interleaved vs contiguous) and ring vs direct broadcasts.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use hetgrid_core::{exact, Arrangement};
use hetgrid_dist::{BlockCyclic, BlockDist, PanelDist, PanelOrdering};
use hetgrid_plan::Kernel;
use hetgrid_sim::machine::CostModel;
use hetgrid_sim::{kernels, Broadcast};

fn paper_arr() -> Arrangement {
    Arrangement::from_rows(&[vec![1.0, 2.0], vec![3.0, 5.0]])
}

/// DES run time of `kernel` under `dist` on the paper's grid, per `nb`.
fn bench_des(c: &mut Criterion, name: &str, kernel: Kernel, dist: &dyn BlockDist) {
    let mut group = c.benchmark_group(name);
    group.sample_size(20);
    let arr = paper_arr();
    let cost = CostModel::default();
    for &nb in &[8usize, 16, 32] {
        group.bench_with_input(BenchmarkId::from_parameter(nb), &nb, |b, &nb| {
            b.iter(|| kernels::simulate(&arr, dist, kernel, nb, cost, Broadcast::Direct).report)
        });
    }
    group.finish();
}

fn bench_des_mm(c: &mut Criterion) {
    bench_des(c, "des_mm_cyclic", Kernel::Mm, &BlockCyclic::new(2, 2));
}

fn bench_des_lu(c: &mut Criterion) {
    let arr = paper_arr();
    let sol = exact::solve_arrangement(&arr);
    let dist = PanelDist::from_allocation(&arr, &sol.alloc, 8, 6, PanelOrdering::Interleaved);
    bench_des(c, "des_lu_panel", Kernel::Lu, &dist);
}

/// Ablation: interleaved (ABAABA) vs contiguous panel-column ordering
/// for LU. The benchmark reports runtimes; the *makespan* comparison is
/// printed once so the ablation result lands in the bench log.
fn bench_ablation_lu_ordering(c: &mut Criterion) {
    let arr = paper_arr();
    let sol = exact::solve_arrangement(&arr);
    let nb = 48;
    let cost = CostModel::zero_comm();
    let inter = PanelDist::from_allocation(&arr, &sol.alloc, 8, 6, PanelOrdering::Interleaved);
    let contig = PanelDist::from_allocation(&arr, &sol.alloc, 8, 6, PanelOrdering::Contiguous);
    let lu = |d: &PanelDist, nb| {
        kernels::simulate(&arr, d, Kernel::Lu, nb, cost, Broadcast::Direct).report
    };
    let (mi, mc) = (lu(&inter, nb).makespan, lu(&contig, nb).makespan);
    // Diagnostic, not benchmark output: route through obs so it lands
    // on stderr and never interleaves with Criterion's stdout.
    hetgrid_obs::diag!(
        "[ablation] LU makespan (zero comm, nb={}): interleaved={:.1} contiguous={:.1} (ratio {:.3})",
        nb,
        mi,
        mc,
        mc / mi
    );

    let mut group = c.benchmark_group("ablation_lu_ordering");
    group.sample_size(10);
    group.bench_function("interleaved", |b| b.iter(|| lu(&inter, 16)));
    group.bench_function("contiguous", |b| b.iter(|| lu(&contig, 16)));
    group.finish();
}

fn bench_broadcast_modes(c: &mut Criterion) {
    let arr = paper_arr();
    let sol = exact::solve_arrangement(&arr);
    let dist = PanelDist::from_allocation(&arr, &sol.alloc, 8, 6, PanelOrdering::Contiguous);
    let mut group = c.benchmark_group("broadcast_mode_mm");
    group.sample_size(20);
    for (name, mode) in [("direct", Broadcast::Direct), ("ring", Broadcast::Ring)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                kernels::simulate(&arr, &dist, Kernel::Mm, 16, CostModel::default(), mode).report
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_des_mm,
    bench_des_lu,
    bench_ablation_lu_ordering,
    bench_broadcast_modes
);
criterion_main!(benches);
