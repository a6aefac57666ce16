//! Analytic bulk-synchronous cost models, used both as fast estimators
//! and as cross-checks for the discrete-event simulator.
//!
//! With a barrier after every outer-product step, the execution time is
//! the sum over steps of (communication phase + slowest processor's
//! compute phase). The event-driven simulation overlaps steps, so its
//! makespan lies between the no-communication lower bound and the BSP
//! upper bound (tests in this crate assert exactly that).

use crate::machine::{CostModel, Network};
use hetgrid_core::Arrangement;
use hetgrid_dist::BlockDist;
use std::collections::BTreeMap;

/// Per-step communication time under the machine model: on a shared bus
/// all messages serialize; on a switched network each processor's own
/// traffic serializes and the step takes the busiest endpoint's time.
fn comm_phase(msgs: &BTreeMap<((usize, usize), (usize, usize)), usize>, cost: &CostModel) -> f64 {
    match cost.network {
        Network::SharedBus => msgs
            .iter()
            .map(|(_, &blocks)| cost.message_time(blocks))
            .sum(),
        Network::Switched => {
            let mut endpoint: BTreeMap<(usize, usize), f64> = BTreeMap::new();
            for (&(src, dst), &blocks) in msgs {
                let t = cost.message_time(blocks);
                *endpoint.entry(src).or_insert(0.0) += t;
                *endpoint.entry(dst).or_insert(0.0) += t;
            }
            endpoint.values().cloned().fold(0.0, f64::max)
        }
    }
}

/// Gathers the aggregated messages of one MM step (same aggregation as
/// the event-driven kernel).
fn mm_step_messages(
    dist: &dyn BlockDist,
    nb: usize,
    k: usize,
) -> BTreeMap<((usize, usize), (usize, usize)), usize> {
    let mut msgs = BTreeMap::new();
    for bi in 0..nb {
        let src = dist.owner(bi, k);
        let mut dests: Vec<(usize, usize)> = Vec::new();
        for bj in 0..nb {
            let o = dist.owner(bi, bj);
            if o != src && !dests.contains(&o) {
                dests.push(o);
            }
        }
        for dst in dests {
            *msgs.entry((src, dst)).or_insert(0) += 1;
        }
    }
    for bj in 0..nb {
        let src = dist.owner(k, bj);
        let mut dests: Vec<(usize, usize)> = Vec::new();
        for bi in 0..nb {
            let o = dist.owner(bi, bj);
            if o != src && !dests.contains(&o) {
                dests.push(o);
            }
        }
        for dst in dests {
            *msgs.entry((src, dst)).or_insert(0) += 1;
        }
    }
    msgs
}

/// BSP (barrier-per-step) estimate of the outer-product MM makespan.
pub fn bsp_mm(arr: &Arrangement, dist: &dyn BlockDist, nb: usize, cost: CostModel) -> f64 {
    let (p, q) = dist.grid();
    assert_eq!((p, q), (arr.p(), arr.q()), "bsp_mm: grid mismatch");
    let owned = dist.owned_counts(nb, nb);
    let mut compute_phase: f64 = 0.0;
    for i in 0..p {
        for j in 0..q {
            compute_phase = compute_phase.max(owned[i][j] as f64 * arr.time(i, j));
        }
    }
    let mut total = 0.0;
    for k in 0..nb {
        total += comm_phase(&mm_step_messages(dist, nb, k), &cost) + compute_phase;
    }
    total
}

/// No-communication lower bound for MM: the busiest processor's total
/// work, `nb * max_ij owned_ij * t_ij`.
pub fn mm_compute_lower_bound(arr: &Arrangement, dist: &dyn BlockDist, nb: usize) -> f64 {
    let (p, q) = dist.grid();
    let owned = dist.owned_counts(nb, nb);
    let mut m: f64 = 0.0;
    for i in 0..p {
        for j in 0..q {
            m = m.max(owned[i][j] as f64 * arr.time(i, j));
        }
    }
    m * nb as f64
}

/// BSP estimate of right-looking LU: per step, panel phase + triangular
/// solve phase + update phase (each the slowest participant), plus the
/// step's communication.
pub fn bsp_lu(arr: &Arrangement, dist: &dyn BlockDist, nb: usize, cost: CostModel) -> f64 {
    let (p, q) = dist.grid();
    assert_eq!((p, q), (arr.p(), arr.q()), "bsp_lu: grid mismatch");
    let mut total = 0.0;
    for k in 0..nb {
        // Panel phase.
        let mut panel: BTreeMap<(usize, usize), usize> = BTreeMap::new();
        for bi in k..nb {
            *panel.entry(dist.owner(bi, k)).or_insert(0) += 1;
        }
        total += panel
            .iter()
            .map(|(&(i, j), &n)| n as f64 * arr.time(i, j) * cost.panel_cost)
            .fold(0.0, f64::max);
        if k + 1 == nb {
            continue;
        }
        // L broadcast.
        let mut lmsgs = BTreeMap::new();
        for bi in k..nb {
            let src = dist.owner(bi, k);
            let mut dests: Vec<(usize, usize)> = Vec::new();
            for bj in k + 1..nb {
                let o = dist.owner(bi, bj);
                if o != src && !dests.contains(&o) {
                    dests.push(o);
                }
            }
            for dst in dests {
                *lmsgs.entry((src, dst)).or_insert(0) += 1;
            }
        }
        total += comm_phase(&lmsgs, &cost);
        // Triangular solves.
        let mut trsm: BTreeMap<(usize, usize), usize> = BTreeMap::new();
        for bj in k + 1..nb {
            *trsm.entry(dist.owner(k, bj)).or_insert(0) += 1;
        }
        total += trsm
            .iter()
            .map(|(&(i, j), &n)| n as f64 * arr.time(i, j) * cost.trsm_cost)
            .fold(0.0, f64::max);
        // U broadcast.
        let mut umsgs = BTreeMap::new();
        for bj in k + 1..nb {
            let src = dist.owner(k, bj);
            let mut dests: Vec<(usize, usize)> = Vec::new();
            for bi in k + 1..nb {
                let o = dist.owner(bi, bj);
                if o != src && !dests.contains(&o) {
                    dests.push(o);
                }
            }
            for dst in dests {
                *umsgs.entry((src, dst)).or_insert(0) += 1;
            }
        }
        total += comm_phase(&umsgs, &cost);
        // Trailing update.
        let trailing = dist.trailing_counts(nb, k + 1);
        let mut upd: f64 = 0.0;
        for i in 0..p {
            for j in 0..q {
                upd = upd.max(trailing[i][j] as f64 * arr.time(i, j));
            }
        }
        total += upd;
    }
    total
}

/// No-communication *step-synchronous* lower bound for LU: the sum over
/// steps of the slowest trailing-update participant (ignores panel and
/// trsm phases, so it lower-bounds any right-looking schedule that
/// synchronizes per step).
pub fn lu_update_lower_bound(arr: &Arrangement, dist: &dyn BlockDist, nb: usize) -> f64 {
    let (p, q) = dist.grid();
    let mut total = 0.0;
    for k in 1..nb {
        let trailing = dist.trailing_counts(nb, k);
        let mut upd: f64 = 0.0;
        for i in 0..p {
            for j in 0..q {
                upd = upd.max(trailing[i][j] as f64 * arr.time(i, j));
            }
        }
        total += upd;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{simulate, Broadcast};
    use crate::machine::CostModel;
    use hetgrid_core::exact;
    use hetgrid_dist::{BlockCyclic, PanelDist, PanelOrdering};
    use hetgrid_plan::Kernel;

    fn fig1_arr() -> Arrangement {
        Arrangement::from_rows(&[vec![1.0, 2.0], vec![3.0, 6.0]])
    }

    #[test]
    fn des_between_lower_bound_and_bsp_mm() {
        let arr = fig1_arr();
        let sol = exact::solve_arrangement(&arr);
        let dists: Vec<Box<dyn BlockDist>> = vec![
            Box::new(BlockCyclic::new(2, 2)),
            Box::new(PanelDist::from_allocation(
                &arr,
                &sol.alloc,
                4,
                3,
                PanelOrdering::Contiguous,
            )),
        ];
        for cost in [CostModel::zero_comm(), CostModel::default()] {
            for d in &dists {
                let nb = 8;
                let des =
                    simulate(&arr, d.as_ref(), Kernel::Mm, nb, cost, Broadcast::Direct).report;
                let lb = mm_compute_lower_bound(&arr, d.as_ref(), nb);
                let ub = bsp_mm(&arr, d.as_ref(), nb, cost);
                assert!(
                    des.makespan >= lb - 1e-9,
                    "DES {} below lower bound {}",
                    des.makespan,
                    lb
                );
                assert!(
                    des.makespan <= ub + 1e-9,
                    "DES {} above BSP bound {}",
                    des.makespan,
                    ub
                );
            }
        }
    }

    #[test]
    fn des_zero_comm_mm_equals_lower_bound() {
        // Without communication, each processor's chain of nb updates is
        // independent, so the DES hits the lower bound exactly.
        let arr = fig1_arr();
        let dist = BlockCyclic::new(2, 2);
        let cost = CostModel::zero_comm();
        let des = simulate(&arr, &dist, Kernel::Mm, 6, cost, Broadcast::Direct).report;
        let lb = mm_compute_lower_bound(&arr, &dist, 6);
        assert!((des.makespan - lb).abs() < 1e-9);
    }

    #[test]
    fn des_lu_bounded_by_bsp() {
        let arr = Arrangement::from_rows(&[vec![1.0, 2.0], vec![3.0, 5.0]]);
        let sol = exact::solve_arrangement(&arr);
        let panel = PanelDist::from_allocation(&arr, &sol.alloc, 8, 6, PanelOrdering::Interleaved);
        for cost in [CostModel::zero_comm(), CostModel::default()] {
            let nb = 16;
            let des = simulate(&arr, &panel, Kernel::Lu, nb, cost, Broadcast::Direct).report;
            let ub = bsp_lu(&arr, &panel, nb, cost);
            assert!(
                des.makespan <= ub + 1e-9,
                "DES LU {} above BSP {}",
                des.makespan,
                ub
            );
        }
    }

    #[test]
    fn bsp_mm_homogeneous_zero_comm_exact() {
        let arr = Arrangement::from_rows(&[vec![1.0, 1.0], vec![1.0, 1.0]]);
        let dist = BlockCyclic::new(2, 2);
        assert_eq!(bsp_mm(&arr, &dist, 4, CostModel::zero_comm()), 16.0);
    }

    #[test]
    fn shared_bus_bsp_at_least_switched() {
        let arr = fig1_arr();
        let dist = BlockCyclic::new(2, 2);
        let bus = CostModel {
            network: Network::SharedBus,
            ..Default::default()
        };
        let sw = CostModel {
            network: Network::Switched,
            ..Default::default()
        };
        assert!(bsp_mm(&arr, &dist, 6, bus) >= bsp_mm(&arr, &dist, 6, sw));
    }
}
