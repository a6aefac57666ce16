//! The elastic-grid recovery test matrix: every block kernel under
//! every fault profile with a seeded single-crash kill schedule, plus
//! processor joins and the watchdog's behaviour when nobody recovers.
//!
//! A failing case prints its seed and kill schedule; replay with
//! `HARNESS_SEED=<n> cargo test -p hetgrid-harness --test recovery`.
//! `HARNESS_KILLS=<k>` sweeps more crash points per seed (nightly CI
//! does), and `HARNESS_SEEDS=<count>` widens the corpus as usual.

use hetgrid_exec::{GridFault, Transport};
use hetgrid_harness::{
    kill_variants, run_recovery_case, run_recovery_join_case, seed_corpus, FaultProfile,
    KillSchedule, VirtualTransport,
};
use hetgrid_plan::Kernel;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Duration;

/// Runs `f(seed, variant)` over the corpus and the kill-variant sweep,
/// annotating any panic with both so every failure is replayable.
fn over_kill_corpus(label: &str, f: impl Fn(u64, u64)) {
    for seed in seed_corpus() {
        for variant in 0..kill_variants() as u64 {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(|| f(seed, variant))) {
                let msg = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
                    .unwrap_or_else(|| "(non-string panic payload)".to_string());
                panic!(
                    "[{label}] seed {seed} kill-variant {variant} failed — replay: \
                     HARNESS_SEED={seed} cargo test -p hetgrid-harness --test recovery\n{msg}"
                );
            }
        }
    }
}

macro_rules! crash_cases {
    ($($name:ident: $kernel:expr, $profile:expr;)*) => {$(
        #[test]
        fn $name() {
            over_kill_corpus(stringify!($name), |seed, variant| {
                run_recovery_case($kernel, $profile, seed, variant)
            });
        }
    )*};
}

crash_cases! {
    mm_crash_fifo:          Kernel::Mm,       FaultProfile::FIFO;
    mm_crash_reorder:       Kernel::Mm,       FaultProfile::REORDER;
    mm_crash_delay:         Kernel::Mm,       FaultProfile::DELAY;
    mm_crash_chaos:         Kernel::Mm,       FaultProfile::CHAOS;
    lu_crash_fifo:          Kernel::Lu,       FaultProfile::FIFO;
    lu_crash_reorder:       Kernel::Lu,       FaultProfile::REORDER;
    lu_crash_delay:         Kernel::Lu,       FaultProfile::DELAY;
    lu_crash_chaos:         Kernel::Lu,       FaultProfile::CHAOS;
    cholesky_crash_fifo:    Kernel::Cholesky, FaultProfile::FIFO;
    cholesky_crash_reorder: Kernel::Cholesky, FaultProfile::REORDER;
    cholesky_crash_delay:   Kernel::Cholesky, FaultProfile::DELAY;
    cholesky_crash_chaos:   Kernel::Cholesky, FaultProfile::CHAOS;
    qr_crash_fifo:          Kernel::Qr,       FaultProfile::FIFO;
    qr_crash_reorder:       Kernel::Qr,       FaultProfile::REORDER;
    qr_crash_delay:         Kernel::Qr,       FaultProfile::DELAY;
    qr_crash_chaos:         Kernel::Qr,       FaultProfile::CHAOS;
}

macro_rules! join_cases {
    ($($name:ident: $kernel:expr;)*) => {$(
        #[test]
        fn $name() {
            over_kill_corpus(stringify!($name), |seed, variant| {
                run_recovery_join_case($kernel, FaultProfile::CHAOS, seed, variant)
            });
        }
    )*};
}

join_cases! {
    mm_join_chaos:       Kernel::Mm;
    lu_join_chaos:       Kernel::Lu;
    cholesky_join_chaos: Kernel::Cholesky;
    qr_join_chaos:       Kernel::Qr;
}

/// Same seed, same schedule, run twice: the whole recovery path — kill
/// firing, frontier, survivor grid, redistribution, resumed epoch — is
/// a pure function of the seed.
#[test]
fn recovery_is_deterministic() {
    for seed in seed_corpus().into_iter().take(2) {
        run_recovery_case(Kernel::Lu, FaultProfile::CHAOS, seed, 0);
        run_recovery_case(Kernel::Lu, FaultProfile::CHAOS, seed, 0);
    }
}

/// An *un-recovered* crash must still trip the starvation watchdog
/// deterministically — and the panic must say a kill schedule (not a
/// deadlock bug) starved the peer, with the schedule and seed printed.
///
/// This drives raw endpoints instead of a kernel: `run_grid` aborts the
/// whole grid on any worker error (so a kernel-level crash surfaces as
/// a typed `PeerDropped`, not a watchdog panic), and here nobody calls
/// `abort` or resumes — the exact situation the watchdog exists for.
#[test]
fn unrecovered_crash_trips_watchdog_with_kill_context() {
    let schedule = KillSchedule {
        events: vec![GridFault::Crash {
            proc: 1,
            at_step: 0,
        }],
    };
    let transport = VirtualTransport::new(7, FaultProfile::FIFO)
        .with_kills(&schedule)
        .with_watchdog(Duration::from_millis(200));
    let eps = transport.connect::<u32>(3);
    let mut it = eps.into_iter();
    let survivor_ep = it.next().expect("endpoint 0");
    let victim_ep = it.next().expect("endpoint 1");
    let _bystander = it.next().expect("endpoint 2");

    std::thread::scope(|s| {
        s.spawn(move || {
            // The victim retires step 0, the kill fires at the beacon,
            // and the thread dies without aborting the grid.
            assert!(
                victim_ep.mark(0).is_err(),
                "kill entry must fire at the retirement beacon"
            );
        });
        let survivor = s.spawn(move || survivor_ep.recv());
        let payload = survivor
            .join()
            .expect_err("the blocked survivor must starve and panic");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "(non-string panic payload)".to_string());
        assert!(
            msg.contains("un-recovered grid fault"),
            "watchdog panic does not name the kill schedule: {msg}"
        );
        assert!(
            msg.contains("HARNESS_SEED=7"),
            "watchdog panic does not carry the replay seed: {msg}"
        );
    });
}

/// The control case for the message above: with no kill schedule, a
/// starved peer reports genuine starvation (so a real deadlock is never
/// mis-blamed on fault injection).
#[test]
fn genuine_starvation_is_not_blamed_on_kills() {
    let transport =
        VirtualTransport::new(9, FaultProfile::FIFO).with_watchdog(Duration::from_millis(150));
    let eps = transport.connect::<u32>(2);
    let mut it = eps.into_iter();
    let ep = it.next().expect("endpoint 0");
    // Keep the peer endpoint alive: dropping it would close the
    // mailboxes and turn the stall into a clean `Closed` error.
    let _peer = it.next().expect("endpoint 1");
    let payload = catch_unwind(AssertUnwindSafe(|| ep.recv()))
        .expect_err("recv with no sender must starve and panic");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_else(|| "(non-string panic payload)".to_string());
    assert!(
        msg.contains("genuine starvation"),
        "watchdog panic mis-attributes the stall: {msg}"
    );
}
