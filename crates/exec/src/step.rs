//! Shared plan-interpretation machinery for the executor kernels.
//!
//! Every kernel used to carry its own copy of the same scaffolding: a
//! per-kernel message enum with `(step, index)` routing fields, a
//! `pump` loop buffering early arrivals, destination-list recomputation
//! from the distribution, a `weighted!` slowdown macro, and a ~40-line
//! spawn/collect/report block. This module factors all of it out so a
//! kernel worker is only the algorithm, expressed as a [`StepInterp`]:
//! a pure [`StepInterp::emit`] that turns one plan step into this
//! processor's [`Action`]s (each declaring the messages it needs and
//! the blocks it reads/writes), and an [`StepInterp::execute`] that
//! runs one action's sends and block kernels under the [`WorkClock`].
//!
//! * [`WireMsg`] — the one wire format: `(step, tag, block index)`
//!   routing plus a kernel-chosen payload;
//! * [`Courier`] — owns the endpoint, the pending-message buffer, the
//!   scratch [`BufferPool`], the observability
//!   [`Probe`](crate::probe::Probe), and the sent-message counter; all
//!   sends and receives go through it so the `ExecReport` and the obs
//!   counters can never disagree about what was sent;
//! * [`WorkClock`] — the slowdown-weight compute timer (first run is
//!   the real one, repeats emulate the slower processor);
//! * [`run_steps`] — the dependency-aware out-of-order driver: keeps a
//!   window of [`ExecConfig::lookahead`]` + 1` consecutive steps open
//!   and runs any action whose messages have arrived and whose block
//!   conflicts with *earlier* unfinished actions are clear, so step
//!   `k + 1`'s panel factorization and broadcasts overlap step `k`'s
//!   trailing updates;
//! * [`run_grid`] — spawns one thread per virtual processor over a
//!   [`Transport`], hands each a courier and a clock, and assembles the
//!   [`ExecReport`] from what they return.
//!
//! # Why out-of-order execution is bit-exact
//!
//! Floating-point addition is not associative, so reordering *updates
//! to the same block* would change results. The driver never does:
//! every block write is owner-local, [`conflicts`] forbids running an
//! action while an earlier-in-program-order unfinished action touches
//! any of the same blocks (RAW, WAW, *and* WAR), and within one step a
//! processor's actions write disjoint blocks. Every block therefore
//! receives exactly the in-order sequence of arithmetic, and any
//! lookahead depth produces bit-identical output — only the schedule
//! around the dependence chains moves.

use crate::pool::{BufferPool, PoolClone};
use crate::probe::Probe;
use crate::store::{BlockStore, CheckpointLog, ExecReport};
use crate::transport::{Closed, Endpoint, ExecError, Transport};
use hetgrid_linalg::Matrix;
use hetgrid_obs::trace::SpanGuard;
use std::collections::{HashMap, VecDeque};
use std::time::Instant;

/// Default lookahead window depth: how many steps past the oldest
/// unfinished one a worker may pull work from. Depth 0 is the legacy
/// strictly-in-order schedule; depth 2 covers the panel-factorization
/// latency of the next two steps without holding block buffers much
/// longer than the in-order schedule would.
pub const DEFAULT_LOOKAHEAD: usize = 2;

/// Tuning knobs for an executor run, accepted by the `*_on_cfg` entry
/// points.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecConfig {
    /// Out-of-order window depth: a worker may execute actions of steps
    /// `front ..= front + lookahead` where `front` is its oldest
    /// incomplete step. `0` reproduces the in-order driver exactly.
    pub lookahead: usize,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            lookahead: DEFAULT_LOOKAHEAD,
        }
    }
}

/// One wire message: payload `P` routed by `(step, tag, idx)`, where
/// `tag` distinguishes a kernel's message kinds (diagonal factors, L
/// blocks, ...) and `idx` is the block index the payload belongs to.
pub(crate) struct WireMsg<P> {
    step: usize,
    tag: u8,
    idx: (usize, usize),
    payload: P,
}

/// A message routing key: `(step, tag, block index)`.
pub(crate) type MsgKey = (usize, u8, (usize, usize));

/// A block-level resource an [`Action`] reads or writes:
/// `(namespace, bi, bj)`. Namespace 0 is the main matrix (the factored
/// matrix, or C for MM); kernels may use other namespaces for
/// step-local pseudo-resources (QR uses 3 for the packed reflector
/// factors of step `k`, keyed `(3, k, 0)`; the star executor uses 1/2
/// for resident A/B copies, 4 keyed `(4, 0, 0)` for the master's
/// one-port link — every master send and receive writes it, so
/// transfers serialize in program order — and 5 keyed `(5, 0, 0)` for
/// a worker's memory budget, so residency transitions stay in program
/// order and the runtime high-water mark equals the plan fold's).
pub(crate) type Res = (u8, usize, usize);

/// What a schedulable action does, for tracing and for the per-kernel
/// `execute` dispatch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Op {
    /// MM: broadcast this processor's A/B panel blocks for step k.
    MmSend,
    /// MM: rank-r update of every owned C block with step k's panels.
    MmUpdate,
    /// LU: factor the diagonal block and broadcast the packed factors.
    LuFactor,
    /// LU: solve one panel block against U11 and broadcast it.
    LuSolveL,
    /// LU: solve one pivot-row block against L11 and broadcast it.
    LuSolveU,
    /// LU: GEMM update of one owned trailing block.
    LuUpdate,
    /// Cholesky: factor the diagonal block and broadcast L(k,k).
    ChFactor,
    /// Cholesky: solve one panel block and broadcast it.
    ChSolve,
    /// Cholesky: symmetric-rank update of one owned trailing block.
    ChUpdate,
    /// QR: send an owned panel block to the diagonal owner.
    QrSendPanel,
    /// QR: send an owned column segment to its column head.
    QrSendCol,
    /// QR: stack the panel, factor it, scatter segments, broadcast the
    /// reflectors.
    QrFactor,
    /// QR: receive this processor's factored panel segment back.
    QrTakeSeg,
    /// QR: apply Qᵀ to one trailing column and scatter the result.
    QrColUpdate,
    /// QR: receive an updated column segment back from its head.
    QrTakeColRet,
    /// Star master: send one input block over the one-port link.
    StarFeed,
    /// Star master: receive one finished C block over the one-port link.
    StarRetire,
    /// Star worker: materialize a resident block (from the master or a
    /// fresh zero accumulator).
    StarLoad,
    /// Star worker: one `C += A * B` block update on resident copies.
    StarCompute,
    /// Star worker: drop a resident block, optionally returning it to
    /// the master.
    StarEvict,
}

/// One schedulable unit of a processor's per-step work.
///
/// `needs` are the wire messages that must have arrived before the
/// action can run; `reads`/`writes` are the block resources it touches,
/// used by [`conflicts`] to keep every block's update sequence in
/// program order (see the module docs for why that makes any schedule
/// bit-exact).
#[derive(Clone, Debug)]
pub(crate) struct Action {
    /// Plan step this action belongs to.
    pub step: usize,
    /// What the action does (kernel-interpreted).
    pub op: Op,
    /// Primary block coordinate, disambiguating same-`op` actions
    /// within a step.
    pub blk: (usize, usize),
    /// Critical-path hint: prefer this action over non-critical ones
    /// (panel factorizations, solves, and sends unblock other
    /// processors; trailing updates only fill local time).
    pub crit: bool,
    /// Messages that must be present in the courier buffer first.
    pub needs: Vec<MsgKey>,
    /// Locally owned blocks read (messages are covered by `needs`).
    pub reads: Vec<Res>,
    /// Locally owned blocks written. Disjoint across one step's actions
    /// on one processor.
    pub writes: Vec<Res>,
}

/// A kernel's per-processor plan interpreter: `emit` is the pure
/// planning half (no side effects, deterministic), `execute` the doing
/// half. The driver guarantees `execute` is called exactly once per
/// emitted action, with all `needs` messages buffered, and never while
/// an earlier conflicting action of the window is unfinished.
pub(crate) trait StepInterp {
    /// Wire payload type of this kernel.
    type P;

    /// Steps in the plan.
    fn n_steps(&self) -> usize;

    /// Appends this processor's actions for step `k` to `out`, in the
    /// kernel's preferred (program) order: earlier actions are
    /// preferred by the scheduler and define the conflict baseline.
    fn emit(&self, k: usize, out: &mut Vec<Action>);

    /// Runs one action: its sends, receives of `needs` payloads (all
    /// already buffered), and block kernels under `clock`.
    fn execute(
        &mut self,
        a: &Action,
        courier: &mut Courier<Self::P>,
        clock: &mut WorkClock,
    ) -> Result<(), Closed>;

    /// Called when step `k` fully retires; drop step-local caches.
    fn retire(&mut self, _k: usize) {}

    /// The current content of namespace-0 block `blk`, if this
    /// processor owns it — the checkpoint journal's window into the
    /// kernel's local state. Kernels that support elastic recovery
    /// override this with a one-line store lookup; the default opts out
    /// of journaling.
    fn peek(&self, _blk: (usize, usize)) -> Option<&Matrix> {
        None
    }
}

/// One worker's handle on the shared [`CheckpointLog`]: which processor
/// it journals as. Passing `None` to [`run_steps`] disables journaling
/// entirely (the fault-free fast path).
pub(crate) struct Journal<'a> {
    /// The epoch's shared block-version log.
    pub log: &'a CheckpointLog,
    /// This worker's linear processor id.
    pub me: usize,
}

/// `true` when `later` must wait for `earlier` (program order): any
/// write/write, write/read, or read/write block overlap.
pub(crate) fn conflicts(earlier: &Action, later: &Action) -> bool {
    let hit = |xs: &[Res], ys: &[Res]| xs.iter().any(|x| ys.contains(x));
    hit(&earlier.writes, &later.writes)
        || hit(&earlier.writes, &later.reads)
        || hit(&earlier.reads, &later.writes)
}

/// Picks the next runnable action of the window, by index: the first
/// critical one in program order, else the first runnable at all.
/// Runnable = not done, every needed message arrived (`has`), and no
/// earlier unfinished action conflicts. Returns `None` when nothing is
/// runnable (the caller then blocks on the transport).
pub(crate) fn pick_action(
    win: &VecDeque<(Action, bool)>,
    has: impl Fn(&MsgKey) -> bool,
) -> Option<usize> {
    let mut fallback = None;
    'actions: for i in 0..win.len() {
        let (a, done) = &win[i];
        if *done || !a.needs.iter().all(&has) {
            continue;
        }
        for (e, edone) in win.iter().take(i) {
            if !*edone && conflicts(e, a) {
                continue 'actions;
            }
        }
        if a.crit {
            return Some(i);
        }
        fallback.get_or_insert(i);
    }
    fallback
}

/// The out-of-order step driver: runs `interp`'s plan with a window of
/// `lookahead + 1` consecutive steps open at a time.
///
/// The loop invariantly (1) emits steps into the window while the
/// budget allows, (2) retires fully-done front steps (freeing budget
/// and buffered messages), (3) drains the mailbox without blocking,
/// then (4) executes one runnable action — or, when data dependencies
/// and missing messages block everything, (5) records a stall and
/// blocks on the transport.
///
/// Deadlock-free by induction: the oldest not-done action in the window
/// has no earlier unfinished action to conflict with, so once its
/// messages arrive it is runnable; its messages are sent by actions
/// that precede it in the global in-order schedule, which by induction
/// all eventually run on their owners.
pub(crate) fn run_steps<I>(
    interp: &mut I,
    courier: &mut Courier<I::P>,
    clock: &mut WorkClock,
    lookahead: usize,
    start: usize,
    journal: Option<&Journal<'_>>,
) -> Result<(), Closed>
where
    I: StepInterp,
    I::P: PoolClone,
{
    let n = interp.n_steps();
    let mut win: VecDeque<(Action, bool)> = VecDeque::new();
    let mut front = start; // oldest unretired step
    let mut emitted = start; // steps emitted into the window so far
    let mut buf: Vec<Action> = Vec::new();
    loop {
        while emitted < n && emitted <= front + lookahead {
            buf.clear();
            interp.emit(emitted, &mut buf);
            debug_assert!(buf.iter().all(|a| a.step == emitted));
            win.extend(buf.drain(..).map(|a| (a, false)));
            emitted += 1;
        }
        // Retire before picking: a step this processor has no actions
        // for must advance `front` (and the emit budget) immediately,
        // or the loop would stall forever on an empty window.
        let mut retired = false;
        while front < emitted && win.iter().all(|(a, done)| a.step != front || *done) {
            win.retain(|(a, _)| a.step != front);
            interp.retire(front);
            courier.end_step(front);
            if let Some(j) = journal {
                j.log.note_retired(j.me, front);
            }
            // The retirement beacon: a fault-injecting transport may
            // kill this worker here — the only place a processor can
            // die, which is exactly what makes every crash land on a
            // consistent retirement frontier.
            courier.mark(front)?;
            front += 1;
            retired = true;
        }
        if retired {
            continue; // refill the window before scheduling
        }
        if front >= n {
            break;
        }
        courier.drain();
        match pick_action(&win, |key| courier.has(*key)) {
            Some(i) => {
                let action = win[i].0.clone();
                courier.note_depth((action.step - front) as u64);
                interp.execute(&action, courier, clock)?;
                if let Some(j) = journal {
                    for &(ns, bi, bj) in &action.writes {
                        if ns == 0 {
                            if let Some(data) = interp.peek((bi, bj)) {
                                j.log.record(j.me, action.step, (bi, bj), data);
                            }
                        }
                    }
                }
                win[i].1 = true;
            }
            None => courier.stall()?,
        }
    }
    Ok(())
}

/// Per-worker communication handle: endpoint + pending buffer + buffer
/// pool + probe + sent counter. Messages that arrive ahead of their
/// step are buffered; [`Courier::end_step`] reclaims the buffers of a
/// retired step's leftovers into the pool.
pub(crate) struct Courier<P> {
    ep: Box<dyn Endpoint<WireMsg<P>>>,
    pending: HashMap<MsgKey, P>,
    pool: BufferPool,
    probe: Option<Probe>,
    sent: u64,
    stalls: u64,
    q: usize,
}

impl<P> Courier<P> {
    fn new(ep: Box<dyn Endpoint<WireMsg<P>>>, me: (usize, usize), grid: (usize, usize)) -> Self {
        Courier {
            ep,
            pending: HashMap::new(),
            pool: BufferPool::new(),
            probe: Probe::new(me, grid),
            sent: 0,
            stalls: 0,
            q: grid.1,
        }
    }

    /// Sends `payload` to grid processor `dest`, counting it in the
    /// report and the obs counters. Fails with [`Closed`] when the
    /// destination mailbox is gone (the peer dropped out).
    pub fn send(
        &mut self,
        dest: (usize, usize),
        step: usize,
        tag: u8,
        idx: (usize, usize),
        payload: P,
        bytes: u64,
    ) -> Result<(), Closed> {
        let dest = dest.0 * self.q + dest.1;
        self.ep.send(
            dest,
            WireMsg {
                step,
                tag,
                idx,
                payload,
            },
        )?;
        self.sent += 1;
        if let Some(pr) = self.probe.as_mut() {
            pr.sent(dest, step, bytes);
        }
        Ok(())
    }

    /// Sends one pool-backed duplicate of `payload` to every
    /// destination of a plan broadcast list.
    pub fn bcast(
        &mut self,
        dests: &[(usize, usize)],
        step: usize,
        tag: u8,
        idx: (usize, usize),
        payload: &P,
        bytes: u64,
    ) -> Result<(), Closed>
    where
        P: PoolClone,
    {
        for &dest in dests {
            let dup = payload.pool_clone(&mut self.pool);
            self.send(dest, step, tag, idx, dup, bytes)?;
        }
        Ok(())
    }

    /// Messages sent so far.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// The worker's scratch/receive buffer pool.
    pub fn pool_mut(&mut self) -> &mut BufferPool {
        &mut self.pool
    }

    fn pump_until(&mut self, key: MsgKey) -> Result<(), Closed> {
        while !self.pending.contains_key(&key) {
            let m = self.ep.recv()?;
            self.pending.insert((m.step, m.tag, m.idx), m.payload);
        }
        Ok(())
    }

    /// Blocks until the message is here, leaving it buffered (for
    /// payloads read by several actions, e.g. diagonal factors). Fails
    /// with [`Closed`] when delivery has become impossible.
    pub fn obtain(&mut self, step: usize, tag: u8, idx: (usize, usize)) -> Result<&P, Closed> {
        self.pump_until((step, tag, idx))?;
        Ok(&self.pending[&(step, tag, idx)])
    }

    /// Blocks until the message is here and removes it from the buffer.
    pub fn take(&mut self, step: usize, tag: u8, idx: (usize, usize)) -> Result<P, Closed> {
        self.pump_until((step, tag, idx))?;
        Ok(self
            .pending
            .remove(&(step, tag, idx))
            .expect("pumped above"))
    }

    /// A buffered message that an action's `needs` already guaranteed.
    pub fn get(&self, step: usize, tag: u8, idx: (usize, usize)) -> &P {
        self.pending
            .get(&(step, tag, idx))
            .expect("message missing (not in the action's needs)")
    }

    /// Whether a message is already buffered (the scheduler's `needs`
    /// check; never blocks).
    pub fn has(&self, key: MsgKey) -> bool {
        self.pending.contains_key(&key)
    }

    /// Buffers everything already waiting in the mailbox, without
    /// blocking. A `Closed` is swallowed deliberately: the last
    /// surviving worker polls an empty sender-less mailbox while
    /// finishing purely local work, and that is not an error — closure
    /// surfaces through [`Courier::stall`] or a send the moment
    /// progress actually requires a peer.
    pub fn drain(&mut self) {
        while let Ok(Some(m)) = self.ep.try_recv() {
            self.pending.insert((m.step, m.tag, m.idx), m.payload);
        }
    }

    /// Fires the retirement beacon for step `step` on the endpoint. A
    /// fault-injecting transport may answer [`Closed`] to kill this
    /// worker at the boundary.
    pub fn mark(&mut self, step: usize) -> Result<(), Closed> {
        self.ep.mark(step)
    }

    /// Nothing runnable: count the stall and block for one message.
    pub fn stall(&mut self) -> Result<(), Closed> {
        self.stalls += 1;
        let m = self.ep.recv()?;
        self.pending.insert((m.step, m.tag, m.idx), m.payload);
        Ok(())
    }

    /// Records the step distance `d = action.step - front` of a
    /// scheduled action in the lookahead-depth histogram.
    pub fn note_depth(&mut self, d: u64) {
        if let Some(pr) = &self.probe {
            pr.depth(d);
        }
    }

    /// Reclaims every leftover buffered message of step `k` and earlier
    /// into the pool (receivers consumed what they needed; broadcast
    /// overshoot ends here).
    pub fn end_step(&mut self, k: usize)
    where
        P: PoolClone,
    {
        if self.pending.keys().all(|&(s, _, _)| s > k) {
            return;
        }
        let pending = std::mem::take(&mut self.pending);
        for (key, payload) in pending {
            if key.0 > k {
                self.pending.insert(key, payload);
            } else {
                payload.reclaim(&mut self.pool);
            }
        }
    }

    /// Opens a named span on this processor's trace track, building the
    /// name only when tracing is enabled.
    pub fn span_with(&self, name: impl FnOnce() -> String) -> Option<SpanGuard> {
        self.probe.as_ref().map(|pr| pr.span(name()))
    }

    /// Records one compute chunk's duration in the obs histogram.
    pub fn step_done(&self, dur_seconds: f64) {
        if let Some(pr) = &self.probe {
            pr.step_done(dur_seconds);
        }
    }

    fn finish(&self, total_units: u64) {
        if let Some(pr) = &self.probe {
            pr.finish(
                total_units,
                self.stalls,
                self.pool.hits(),
                self.pool.misses(),
            );
        }
    }
}

/// Busy-time and work-unit accounting under an integer slowdown weight:
/// the first closure is the real computation, the repeats emulate a
/// `weight`-times-slower processor re-doing equivalent work.
pub(crate) struct WorkClock {
    /// Seconds spent inside [`WorkClock::run`].
    pub busy: f64,
    /// Weighted block operations performed.
    pub units: u64,
    weight: u64,
}

impl WorkClock {
    fn new(weight: u64) -> Self {
        WorkClock {
            busy: 0.0,
            units: 0,
            weight,
        }
    }

    /// Runs `first` once and `repeat` `weight - 1` times, timing the
    /// whole batch and charging `units * weight` work units.
    pub fn run<T>(&mut self, units: u64, first: impl FnOnce() -> T, mut repeat: impl FnMut()) -> T {
        let t0 = Instant::now();
        let out = first();
        for _ in 1..self.weight {
            repeat();
        }
        self.busy += t0.elapsed().as_secs_f64();
        self.units += self.weight * units;
        out
    }

    /// The slowdown weight, for loops that inline the repeats (e.g. the
    /// MM update, whose borrows don't fit the closure form).
    pub fn weight(&self) -> u64 {
        self.weight
    }

    /// Charges `units * weight` work units for inlined repeats.
    pub fn charge(&mut self, units: u64) {
        self.units += self.weight * units;
    }

    /// Adds externally timed busy seconds for inlined repeats.
    pub fn add_busy(&mut self, seconds: f64) {
        self.busy += seconds;
    }
}

/// Validates a slowdown-weight table against the grid shape.
pub(crate) fn check_weights(weights: &[Vec<u64>], (p, q): (usize, usize), kernel: &str) {
    assert_eq!(weights.len(), p, "{kernel}: weights rows mismatch");
    assert!(
        weights.iter().all(|row| row.len() == q),
        "{kernel}: weights cols mismatch"
    );
}

/// Spawns one worker thread per virtual processor of a `p x q` grid
/// over `transport`, giving each a [`Courier`], a [`WorkClock`] seeded
/// from its slowdown weight, and — moved, not copied — its initial
/// block store `stores[me]`. Returns each worker's final block store
/// (indexed by linear processor id) and the assembled [`ExecReport`].
///
/// A worker that hits a closed transport (a peer dropped out) returns
/// `Err(Closed)`; the driver then aborts the whole run through
/// [`Endpoint::abort`] so every blocked peer fails fast, waits for all
/// threads, and reports the first failing processor as a typed
/// [`ExecError`] — a dropped peer never panics the process.
pub(crate) fn run_grid<P, W>(
    transport: &impl Transport,
    (p, q): (usize, usize),
    weights: &[Vec<u64>],
    stores: Vec<BlockStore>,
    worker: W,
) -> Result<(Vec<BlockStore>, ExecReport), ExecError>
where
    P: Send + 'static,
    W: Fn(usize, BlockStore, &mut Courier<P>, &mut WorkClock) -> Result<BlockStore, Closed> + Sync,
{
    let n_procs = p * q;
    assert_eq!(stores.len(), n_procs, "run_grid: one store per processor");
    let endpoints = transport.connect::<WireMsg<P>>(n_procs);
    type Done = (usize, Result<BlockStore, Closed>, f64, u64, u64);
    let (done_tx, done_rx) = crate::channel::unbounded::<Done>();

    let wall_start = Instant::now();
    std::thread::scope(|scope| {
        for (me, (ep, blocks)) in endpoints.into_iter().zip(stores).enumerate() {
            let (i, j) = (me / q, me % q);
            let done = done_tx.clone();
            let w = weights[i][j];
            let worker = &worker;
            scope.spawn(move || {
                let mut courier = Courier::new(ep, (i, j), (p, q));
                let mut clock = WorkClock::new(w);
                let store = worker(me, blocks, &mut courier, &mut clock);
                if store.is_err() {
                    // Doom every peer mailbox so blocked workers fail
                    // fast instead of waiting for messages this worker
                    // will never send.
                    courier.ep.abort();
                }
                courier.finish(clock.units);
                // The main thread outlives the scope; if its receiver
                // is somehow gone the result has nowhere to go anyway.
                let _ = done.send((me, store, clock.busy, clock.units, courier.sent()));
            });
        }
    });
    drop(done_tx);

    let wall_seconds = wall_start.elapsed().as_secs_f64();
    let mut stores: Vec<BlockStore> = (0..n_procs).map(|_| BlockStore::new()).collect();
    let mut busy = vec![vec![0.0f64; q]; p];
    let mut work = vec![vec![0u64; q]; p];
    let mut msgs = vec![vec![0u64; q]; p];
    let mut failed: Option<usize> = None;
    while let Ok((me, store, busy_s, units, sent)) = done_rx.recv() {
        let (i, j) = (me / q, me % q);
        busy[i][j] = busy_s;
        work[i][j] = units;
        msgs[i][j] = sent;
        match store {
            Ok(store) => stores[me] = store,
            Err(Closed) => failed = Some(failed.map_or(me, |f| f.min(me))),
        }
    }
    if let Some(me) = failed {
        // An abort cascade is exactly what the flight recorder exists
        // for: dump the retained span rings before the error surfaces
        // (a no-op unless `--flight-recorder` armed a destination).
        hetgrid_obs::flight::dump(&format!(
            "peer dropped: P({},{}) abort cascade",
            me / q + 1,
            me % q + 1
        ));
        return Err(ExecError::PeerDropped {
            proc: (me / q, me % q),
        });
    }
    Ok((
        stores,
        ExecReport {
            wall_seconds,
            busy_seconds: busy,
            work_units: work,
            messages_sent: msgs,
        },
    ))
}

/// Folds worker block stores into one `rows_b x cols_b` block matrix,
/// asserting every block arrived exactly once.
pub(crate) fn gather_result(
    stores: Vec<BlockStore>,
    (rows_b, cols_b): (usize, usize),
    r: usize,
    kernel: &str,
) -> hetgrid_linalg::Matrix {
    let mut m = hetgrid_linalg::Matrix::zeros(rows_b * r, cols_b * r);
    let mut blocks_seen = 0usize;
    for store in stores {
        for ((bi, bj), block) in store {
            m.set_block(bi * r, bj * r, &block);
            blocks_seen += 1;
        }
    }
    assert_eq!(
        blocks_seen,
        rows_b * cols_b,
        "{kernel}: missing result blocks"
    );
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn action(
        step: usize,
        crit: bool,
        needs: Vec<MsgKey>,
        reads: Vec<Res>,
        writes: Vec<Res>,
    ) -> Action {
        Action {
            step,
            op: Op::MmUpdate,
            blk: (0, 0),
            crit,
            needs,
            reads,
            writes,
        }
    }

    #[test]
    fn pick_prefers_critical_over_earlier_noncritical() {
        let win: VecDeque<(Action, bool)> = vec![
            (action(0, false, vec![], vec![], vec![(0, 1, 1)]), false),
            (action(0, true, vec![], vec![], vec![(0, 2, 2)]), false),
        ]
        .into();
        assert_eq!(pick_action(&win, |_| true), Some(1));
    }

    #[test]
    fn pick_respects_needs_and_falls_back_in_order() {
        let win: VecDeque<(Action, bool)> = vec![
            (
                action(0, true, vec![(0, 0, (0, 0))], vec![], vec![(0, 1, 1)]),
                false,
            ),
            (action(0, false, vec![], vec![], vec![(0, 2, 2)]), false),
            (action(0, false, vec![], vec![], vec![(0, 3, 3)]), false),
        ]
        .into();
        // The critical action's message is missing; the first runnable
        // non-critical action wins.
        assert_eq!(pick_action(&win, |_| false), Some(1));
    }

    #[test]
    fn pick_blocks_on_block_conflicts_with_earlier_unfinished_work() {
        let w = (0u8, 4usize, 4usize);
        let win: VecDeque<(Action, bool)> = vec![
            (
                action(0, false, vec![(0, 0, (0, 0))], vec![], vec![w]),
                false,
            ),
            (action(1, true, vec![], vec![w], vec![(0, 5, 5)]), false),
            (action(1, false, vec![], vec![], vec![(0, 6, 6)]), false),
        ]
        .into();
        // Step 1's critical action reads the block step 0 still has to
        // write (RAW): it must wait even though its messages are in.
        assert_eq!(pick_action(&win, |_| false), Some(2));
        // Once the writer is done, the critical reader is free.
        let mut win = win;
        win[0].1 = true;
        assert_eq!(pick_action(&win, |_| false), Some(1));
    }

    #[test]
    fn pick_returns_none_when_everything_waits_on_messages() {
        let win: VecDeque<(Action, bool)> = vec![
            (action(0, true, vec![(0, 0, (0, 0))], vec![], vec![]), false),
            (
                action(0, false, vec![(0, 1, (0, 1))], vec![], vec![]),
                false,
            ),
        ]
        .into();
        assert_eq!(pick_action(&win, |_| false), None);
    }

    #[test]
    fn conflict_covers_waw_raw_and_war() {
        let r = (0u8, 2usize, 3usize);
        let waw = (
            action(0, false, vec![], vec![], vec![r]),
            action(1, false, vec![], vec![], vec![r]),
        );
        let raw = (
            action(0, false, vec![], vec![], vec![r]),
            action(1, false, vec![], vec![r], vec![]),
        );
        let war = (
            action(0, false, vec![], vec![r], vec![]),
            action(1, false, vec![], vec![], vec![r]),
        );
        assert!(conflicts(&waw.0, &waw.1));
        assert!(conflicts(&raw.0, &raw.1));
        assert!(conflicts(&war.0, &war.1));
        let disjoint = (
            action(0, false, vec![], vec![r], vec![(0, 9, 9)]),
            action(1, false, vec![], vec![r], vec![(0, 8, 8)]),
        );
        assert!(!conflicts(&disjoint.0, &disjoint.1), "read/read is free");
    }
}
