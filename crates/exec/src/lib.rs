//! # hetgrid-exec
//!
//! A threaded shared-memory executor for the distributed dense kernels:
//! one OS thread per virtual processor of the 2D grid, [`channel`]
//! channels carrying exactly the blocks the distribution's communication
//! pattern prescribes, and integer *slowdown weights* emulating the
//! heterogeneous cycle-times on homogeneous hardware.
//!
//! This is the workspace's stand-in for the paper's MPI experiments
//! (reported in the companion paper): it exercises the full code path —
//! scatter by distribution, per-step broadcasts, local block kernels,
//! gather — on real data, and verifies the numerical result against the
//! sequential kernels.
//!
//! ## Architecture: plan interpretation
//!
//! Each kernel is an *interpreter* of the shared step-plan IR from
//! `hetgrid-plan`: the plan generator turns a
//! [`hetgrid_dist::BlockDist`] into an ordered stream of typed steps
//! whose broadcast lists name exactly who sends which block to whom,
//! and the executor worker replays that stream with real data over
//! real threads. The same plans drive the `hetgrid-sim` event
//! simulator and its closed-form count predictions, so the executor's
//! measured message/work counts are checked against the model
//! *by construction* (the harness asserts exact equality).
//!
//! The per-kernel workers share the [`step`] machinery — one wire
//! format, one pending-message buffer, one slowdown clock, one
//! spawn/collect driver — and contain only the algorithm: iterate the
//! plan steps, send along the plan's broadcast lists, wait on the
//! plan's receive sets, run block kernels.
//!
//! Each kernel has exactly one entry point, taking the [`Transport`] to
//! run over and the [`ExecConfig`] (lookahead depth) to run with —
//! callers pass [`ChannelTransport`] and `ExecConfig::default()` for a
//! plain threaded run, while `hetgrid-harness` swaps in a seeded
//! fault-injecting virtual transport for deterministic simulation
//! testing:
//!
//! * [`run_mm_on_cfg`] / [`run_mm_rect_on_cfg`] — outer-product
//!   `C = A * B` ([`hetgrid_plan::mm_plan`] /
//!   [`hetgrid_plan::mm_rect_plan`]);
//! * [`run_lu_on_cfg`] — right-looking LU (no pivoting; use diagonally
//!   dominant inputs; [`hetgrid_plan::factor_plan`]);
//! * [`run_cholesky_on_cfg`] — right-looking Cholesky of SPD matrices
//!   (lower triangle; [`hetgrid_plan::cholesky_plan`]);
//! * [`run_qr_on_cfg`] — fan-in Householder QR
//!   ([`hetgrid_plan::qr_plan`]); unpack the packed result with
//!   [`qr_unpack`];
//! * [`run_solve_on_cfg`] — `A x = b` through the LU or Cholesky
//!   factorization named by [`SolveKind`];
//! * [`run_star_mm_on_cfg`] — memory-bounded master-worker `C = A * B`
//!   on a [`hetgrid_core::Topology::Star`]: the master streams input
//!   blocks over its one-port link, bounded-memory workers run the
//!   maximum-reuse schedule ([`hetgrid_plan::star_mm_plan`]);
//! * [`run_recovery`] — any of the four grid kernels under the
//!   elastic-grid recovery driver ([`recovery`]).
//!
//! Supporting modules: [`store`] (scatter/gather and the
//! [`ExecReport`] measurements: busy time, weighted work, imbalance)
//! and [`transport`] (the pluggable message-transport trait).
//!
//! ## Failure semantics
//!
//! Every entry point returns `Result<_, `[`transport::ExecError`]`>`:
//! if any worker observes a dropped peer (a closed mailbox on send or
//! receive), the run is aborted through [`transport::Endpoint::abort`] —
//! which dooms every mailbox so blocked peers fail fast — all threads
//! are joined, and the caller gets a typed error instead of a panic or
//! a deadlock. This is load-bearing for long-running hosts like
//! `hetgrid serve`, where a single bad run must not take the process
//! down.

#![warn(missing_docs)]
// Grid code indexes `owned[i][j]`-style tables with `for i in 0..p`
// loops and passes several aggregated message maps around; the clippy
// style suggestions (iterator rewrites, type aliases, argument structs)
// would obscure the 2D-grid idiom the paper's algorithms are written in.
#![allow(
    clippy::needless_range_loop,
    clippy::type_complexity,
    clippy::too_many_arguments
)]

pub mod channel;
pub mod cholesky;
pub mod lu;
pub mod mm;
pub mod pool;
mod probe;
pub mod qr;
pub mod recovery;
#[cfg(test)]
mod sched_tests;
pub mod solve;
pub mod star;
mod step;
pub mod store;
pub mod transport;

pub use cholesky::run_cholesky_on_cfg;
pub use lu::run_lu_on_cfg;
pub use mm::{run_mm_on_cfg, run_mm_rect_on_cfg};
pub use qr::{qr_unpack, run_qr_on_cfg};
pub use recovery::{
    run_recovery, GridFault, RecoveryHooks, RecoveryInput, RecoveryOutput, RecoveryStats,
    SurvivorGrid,
};
pub use solve::{run_solve_on_cfg, SolveKind};
pub use star::run_star_mm_on_cfg;
pub use step::{ExecConfig, DEFAULT_LOOKAHEAD};
pub use store::{slowdown_weights, CheckpointLog, DistributedMatrix, ExecReport};
pub use transport::{ChannelTransport, Closed, Endpoint, ExecError, Transport};
