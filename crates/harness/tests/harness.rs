//! The harness test matrix: every executor kernel under every fault
//! profile, across the seed corpus, each run validated by the
//! differential oracles.
//!
//! A failing seed is printed in the panic message; replay it alone with
//! `HARNESS_SEED=<n> cargo test -p hetgrid-harness`. Widen the corpus
//! with `HARNESS_SEEDS=<count>` (the nightly CI job does).

use hetgrid_harness::{
    run_adapt_case, run_exec_case, run_redistribution_case, run_solve_case, run_star_case,
    seed_corpus, FaultProfile,
};
use hetgrid_plan::Kernel;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Runs `f(seed)` over the corpus, annotating any panic with the seed
/// so even a panic deep inside a worker thread (which cannot know the
/// seed) is replayable.
fn over_corpus(label: &str, f: impl Fn(u64)) {
    for seed in seed_corpus() {
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(seed))) {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .unwrap_or_else(|| "(non-string panic payload)".to_string());
            panic!(
                "[{label}] seed {seed} failed — replay: HARNESS_SEED={seed} \
                 cargo test -p hetgrid-harness\n{msg}"
            );
        }
    }
}

macro_rules! exec_cases {
    ($($name:ident: $kernel:expr, $profile:expr;)*) => {$(
        #[test]
        fn $name() {
            over_corpus(stringify!($name), |seed| run_exec_case($kernel, $profile, seed));
        }
    )*};
}

exec_cases! {
    mm_fifo:        Kernel::Mm,       FaultProfile::FIFO;
    mm_reorder:     Kernel::Mm,       FaultProfile::REORDER;
    mm_delay:       Kernel::Mm,       FaultProfile::DELAY;
    mm_chaos:       Kernel::Mm,       FaultProfile::CHAOS;
    lu_fifo:        Kernel::Lu,       FaultProfile::FIFO;
    lu_reorder:     Kernel::Lu,       FaultProfile::REORDER;
    lu_delay:       Kernel::Lu,       FaultProfile::DELAY;
    lu_chaos:       Kernel::Lu,       FaultProfile::CHAOS;
    cholesky_fifo:    Kernel::Cholesky, FaultProfile::FIFO;
    cholesky_reorder: Kernel::Cholesky, FaultProfile::REORDER;
    cholesky_delay:   Kernel::Cholesky, FaultProfile::DELAY;
    cholesky_chaos:   Kernel::Cholesky, FaultProfile::CHAOS;
    qr_fifo:        Kernel::Qr,       FaultProfile::FIFO;
    qr_reorder:     Kernel::Qr,       FaultProfile::REORDER;
    qr_delay:       Kernel::Qr,       FaultProfile::DELAY;
    qr_chaos:       Kernel::Qr,       FaultProfile::CHAOS;
}

macro_rules! solve_cases {
    ($($name:ident: $profile:expr;)*) => {$(
        #[test]
        fn $name() {
            over_corpus(stringify!($name), |seed| run_solve_case($profile, seed));
        }
    )*};
}

solve_cases! {
    solve_fifo:    FaultProfile::FIFO;
    solve_reorder: FaultProfile::REORDER;
    solve_delay:   FaultProfile::DELAY;
    solve_chaos:   FaultProfile::CHAOS;
}

macro_rules! star_cases {
    ($($name:ident: $profile:expr;)*) => {$(
        #[test]
        fn $name() {
            over_corpus(stringify!($name), |seed| run_star_case($profile, seed));
        }
    )*};
}

star_cases! {
    star_fifo:    FaultProfile::FIFO;
    star_reorder: FaultProfile::REORDER;
    star_delay:   FaultProfile::DELAY;
    star_chaos:   FaultProfile::CHAOS;
}

#[test]
fn redistribution_conserves_blocks() {
    over_corpus("redistribution", run_redistribution_case);
}

#[test]
fn adapt_closed_loop_is_deterministic_under_injected_drift() {
    over_corpus("adapt", |seed| {
        let outcome = run_adapt_case(seed);
        // The adaptive strategy never loses to static by more than the
        // redistribution bills it chose to pay.
        assert!(
            outcome.adaptive_makespan
                <= outcome.static_makespan + outcome.redistribution_cost + 1e-9,
            "adaptive paid more than its bills explain (seed {seed})"
        );
    });
}

#[test]
fn same_seed_same_profile_reports_identically() {
    // The harness's own determinism: the fault schedule is a pure
    // function of the seed, and the oracles already pin the report to
    // the closed-form prediction, so two runs must agree exactly.
    for seed in seed_corpus().into_iter().take(3) {
        run_exec_case(Kernel::Mm, FaultProfile::CHAOS, seed);
        run_exec_case(Kernel::Mm, FaultProfile::CHAOS, seed);
    }
}

/// The lookahead executor's core promise, checked end-to-end: with the
/// window open (depth 2) the numerics are *bit-identical* to strict
/// in-order execution (depth 0), for every kernel, under fault profiles
/// that delay and reorder messages arbitrarily. Same-block updates
/// always replay in program order, so accumulation order — and thus
/// every last ulp — is preserved no matter how the window reorders
/// independent work.
mod lookahead_equivalence {
    use super::*;
    use hetgrid_exec::ExecConfig;
    use hetgrid_harness::run_kernel;
    use hetgrid_harness::scenario::{exec_scenario, general_matrix, kernel_operands};
    use hetgrid_harness::VirtualTransport;
    use hetgrid_linalg::Matrix;
    use rand::prelude::*;

    fn run_with_depth(
        kernel: Kernel,
        profile: FaultProfile,
        seed: u64,
        depth: usize,
    ) -> (Matrix, Option<Vec<f64>>) {
        let sc = exec_scenario(seed);
        let transport = VirtualTransport::new(seed, profile);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x00D1_5EA5_E000_0000);
        let (a, b) = kernel_operands(kernel, &mut rng, sc.nb * sc.r);
        let cfg = ExecConfig { lookahead: depth };
        let dist = sc.dist.as_ref();
        let (result, taus, _) = run_kernel(
            &transport,
            kernel,
            &a,
            b.as_ref(),
            dist,
            sc.nb,
            sc.r,
            &sc.weights,
            cfg,
        )
        .unwrap();
        (result, taus)
    }

    fn assert_bit_exact(kernel: Kernel, profile: FaultProfile) {
        for seed in seed_corpus().into_iter().take(4) {
            let (m0, t0) = run_with_depth(kernel, profile, seed, 0);
            let (m2, t2) = run_with_depth(kernel, profile, seed, 2);
            assert!(
                m2.approx_eq(&m0, 0.0),
                "{kernel:?} under '{}': lookahead 2 diverged from in-order — replay: \
                 HARNESS_SEED={seed} cargo test -p hetgrid-harness",
                profile.name
            );
            assert_eq!(
                t2, t0,
                "{kernel:?} under '{}': taus diverged (seed {seed})",
                profile.name
            );
        }
    }

    macro_rules! equivalence_cases {
        ($($name:ident: $kernel:expr, $profile:expr;)*) => {$(
            #[test]
            fn $name() {
                assert_bit_exact($kernel, $profile);
            }
        )*};
    }

    /// The same promise for the master-worker backend: the one-port
    /// pseudo-resource and the residency hazards serialize everything
    /// that touches accumulation order, so any window depth reproduces
    /// in-order numerics bit-for-bit — and the fault-injecting virtual
    /// transport reproduces the production channel transport exactly.
    #[test]
    fn star_bit_exact_across_depths_and_transports() {
        use hetgrid_exec::{run_star_mm_on_cfg, ChannelTransport};
        use hetgrid_harness::scenario::star_scenario;

        for seed in seed_corpus().into_iter().take(4) {
            let sc = star_scenario(seed);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x00D1_5EA5_E000_0000);
            let (mb, nb, kb) = sc.dims;
            let a = general_matrix(&mut rng, mb * sc.r, kb * sc.r);
            let b = general_matrix(&mut rng, kb * sc.r, nb * sc.r);
            let on_virtual = |depth: usize| {
                let t = VirtualTransport::new(seed, FaultProfile::CHAOS);
                run_star_mm_on_cfg(
                    &t,
                    &a,
                    &b,
                    &sc.topo,
                    sc.dims,
                    sc.r,
                    &sc.weights,
                    ExecConfig { lookahead: depth },
                )
                .unwrap()
                .0
            };
            let in_order = on_virtual(0);
            for depth in [1, 2, 4] {
                assert!(
                    on_virtual(depth).approx_eq(&in_order, 0.0),
                    "star MM: lookahead {depth} diverged from in-order — replay: \
                     HARNESS_SEED={seed} cargo test -p hetgrid-harness"
                );
            }
            let (channel, _) = run_star_mm_on_cfg(
                &ChannelTransport,
                &a,
                &b,
                &sc.topo,
                sc.dims,
                sc.r,
                &sc.weights,
                ExecConfig { lookahead: 2 },
            )
            .unwrap();
            assert!(
                channel.approx_eq(&in_order, 0.0),
                "star MM: channel transport diverged from virtual — replay: \
                 HARNESS_SEED={seed} cargo test -p hetgrid-harness"
            );
        }
    }

    equivalence_cases! {
        mm_bit_exact_under_delay:         Kernel::Mm,       FaultProfile::DELAY;
        mm_bit_exact_under_reorder:       Kernel::Mm,       FaultProfile::REORDER;
        mm_bit_exact_under_chaos:         Kernel::Mm,       FaultProfile::CHAOS;
        lu_bit_exact_under_delay:         Kernel::Lu,       FaultProfile::DELAY;
        lu_bit_exact_under_reorder:       Kernel::Lu,       FaultProfile::REORDER;
        lu_bit_exact_under_chaos:         Kernel::Lu,       FaultProfile::CHAOS;
        cholesky_bit_exact_under_delay:   Kernel::Cholesky, FaultProfile::DELAY;
        cholesky_bit_exact_under_reorder: Kernel::Cholesky, FaultProfile::REORDER;
        cholesky_bit_exact_under_chaos:   Kernel::Cholesky, FaultProfile::CHAOS;
        qr_bit_exact_under_delay:         Kernel::Qr,       FaultProfile::DELAY;
        qr_bit_exact_under_reorder:       Kernel::Qr,       FaultProfile::REORDER;
        qr_bit_exact_under_chaos:         Kernel::Qr,       FaultProfile::CHAOS;
    }
}

mod properties {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Any seed (not just the corpus) survives the adversarial
        /// profile on the cheapest kernel, and redistribution conserves
        /// content. `PROPTEST_CASES` deepens this in the nightly job.
        #[test]
        fn arbitrary_seeds_survive_chaos(seed in 0u64..1_000_000_000) {
            run_exec_case(Kernel::Mm, FaultProfile::CHAOS, seed);
        }

        #[test]
        fn arbitrary_seeds_conserve_redistribution(seed in 0u64..1_000_000_000) {
            run_redistribution_case(seed);
        }

        /// The star backend under the adversarial profile, any seed.
        #[test]
        fn arbitrary_star_seeds_survive_chaos(seed in 0u64..1_000_000_000) {
            run_star_case(FaultProfile::CHAOS, seed);
        }

        /// The maximum-reuse plan never over-fills a worker: for any
        /// drawn scenario, the per-worker residency trace stays within
        /// the memory budget the plan was generated for (and the master
        /// holds nothing).
        #[test]
        fn star_residency_stays_within_budget(seed in 0u64..1_000_000_000) {
            let sc = hetgrid_harness::scenario::star_scenario(seed);
            let hetgrid_core::Topology::Star { worker_mem, .. } = sc.topo else {
                unreachable!("star_scenario draws a star topology")
            };
            let plan = hetgrid_plan::star_mm_plan(&sc.topo, sc.dims);
            let peaks = hetgrid_sim::counts::star_residency_peaks(&plan);
            prop_assert_eq!(peaks[0], 0);
            for (w, &peak) in peaks.iter().enumerate().skip(1) {
                prop_assert!(
                    peak <= worker_mem as u64,
                    "worker {} peaks at {} with budget {} (seed {})",
                    w, peak, worker_mem, seed
                );
            }
        }

        /// Counting a star plan's prefix and suffix separately must
        /// partition the whole-plan fold, for any cut point.
        #[test]
        fn star_counts_prefix_suffix_partition(seed in 0u64..1_000_000_000, cut in 0.0f64..1.0) {
            use hetgrid_sim::counts::counts;
            let sc = hetgrid_harness::scenario::star_scenario(seed);
            let plan = hetgrid_plan::star_mm_plan(&sc.topo, sc.dims);
            let from = (cut * plan.steps.len() as f64) as usize;
            let whole = counts(&plan, 0, &sc.weights);
            let prefix = {
                let mut head = plan.clone();
                head.steps.truncate(from);
                counts(&head, 0, &sc.weights)
            };
            let suffix = counts(&plan, from, &sc.weights);
            for w in 0..whole.messages[0].len() {
                prop_assert_eq!(
                    prefix.messages[0][w] + suffix.messages[0][w],
                    whole.messages[0][w],
                    "messages at processor {} split at {} (seed {})", w, from, seed
                );
                prop_assert_eq!(
                    prefix.work_units[0][w] + suffix.work_units[0][w],
                    whole.work_units[0][w],
                    "work at processor {} split at {} (seed {})", w, from, seed
                );
            }
        }
    }
}
