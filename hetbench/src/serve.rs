//! `serve-open`: an open loop against an in-process `hetgrid_serve`
//! server on loopback (default `ServiceConfig`), over two connections
//! driven by two generator threads.
//!
//! Arrivals are seeded and exponential, first at a fixed nominal rate,
//! then over a ladder of fixed rates whose highest passing rate
//! (`max_rate_rps`) goes to the run report. The mix is the cache's reason to
//! exist: most requests are Plan requests over a hot set of eight
//! fingerprints, some are LU Plan requests at nb = 48 with fresh
//! cycle-times (cache misses that run solve, plan and encode), and a few
//! are Simulate requests at nb = 24 with fresh cycle-times (misses
//! through the `sim::counts` folds). A change to the hit path shows in
//! p50, one to the miss path in p95, which is the median of the fresh
//! Plan requests (the slowest tenth). The workload never reaches `exec`.
//!
//! Latency is timed from each request's due time, so a stall delays
//! every request queued behind it. The generator's own lateness (send
//! time past the later of the due time and the moment a connection was
//! free: the overshoot of its sleep) is not charged to the server; it is
//! reported, and a nominal phase where it exceeds its bound is marked
//! invalid.

use crate::report::{mean, median, overhead_pct, quantile, timed_setup, Report};
use crate::spans::Tracer;
use crate::Args;
use hetgrid_core::Problem;
use hetgrid_dist::{PanelDist, PanelOrdering};
use hetgrid_obs::MetricsSnapshot;
use hetgrid_serve::proto::{encode_request, encode_response};
use hetgrid_serve::{
    spawn, Client, Kernel, PlanSpec, Request, RequestBody, Response, Service, ServiceConfig,
    SolveSpec,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const GRID: usize = 4;
const HOT: usize = 8;
/// Block count of the fresh Plan requests, all LU: the costliest
/// request in the mix (see [`schedule`]).
const COLD_NB: usize = 48;
/// Block count of the Simulate requests.
const SIMULATE_NB: usize = 24;
const CONNECTIONS: usize = 2;
/// Requests per second of the nominal phase.
const NOMINAL_RPS: f64 = 200.0;
/// The ladder of fixed rates for `max_rate_rps`, requests per second,
/// 15% apart.
const LADDER_RPS: [f64; 11] = [
    4000.0, 4600.0, 5290.0, 6080.0, 7000.0, 8050.0, 9250.0, 10640.0, 12240.0, 14070.0, 16180.0,
];
/// A ladder rate passes when p99 (failures counting as misses) and the
/// backlog left at the end of the phase are both within this limit...
const P99_LIMIT_MS: f64 = 50.0;
/// ...and no more than this share of its requests failed.
const MAX_FAILED: f64 = 0.01;
/// A nominal phase whose generator ran later than this at p99 is
/// invalid (one mean inter-arrival gap of a generator thread)...
const LATE_BOUND_MS: f64 = 10.0;
/// ...and is run again, up to this many phases in all.
const NOMINAL_ATTEMPTS: usize = 3;
/// Share of `--seconds` spent at the nominal rate.
const NOMINAL_SHARE: f64 = 0.7;
/// Requests sent at each ladder rate, per second of `--seconds`: the
/// same sample size, and the same number of buffered responses, at every
/// step.
const LADDER_STEP_REQUESTS_PER_S: f64 = 125.0;
/// Warm-up traffic in each set-up, seconds at the nominal rate.
const WARMUP_S: f64 = 0.25;
const EPS: f64 = 1e-9;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Hot(usize),
    Cold,
    Simulate,
}

struct Arrival {
    /// Seconds after the phase start.
    due: f64,
    kind: Kind,
    req: Request,
}

fn plan_request(times: Vec<f64>, kernel: Kernel, nb: usize, simulate: bool) -> Request {
    let spec = PlanSpec {
        solve: SolveSpec {
            p: GRID,
            q: GRID,
            times,
        },
        kernel,
        nb,
    };
    Request {
        tenant: "hetbench".into(),
        body: if simulate {
            RequestBody::Simulate(spec)
        } else {
            RequestBody::Plan(spec)
        },
    }
}

fn fresh_times(rng: &mut StdRng) -> Vec<f64> {
    (0..GRID * GRID).map(|_| rng.gen_range(1.0..5.0)).collect()
}

/// The hot set: eight fixed fingerprints, nb in {24, 48} x {LU, MM} x
/// two cycle-time pools. Fixed across seeds, so the cache holds the
/// same entries in every run.
fn hot_set() -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(0x5EED_CAC4E);
    (0..HOT)
        .map(|i| {
            let kernel = if (i / 2) % 2 == 0 {
                Kernel::Lu
            } else {
                Kernel::Mm
            };
            plan_request(fresh_times(&mut rng), kernel, [24, 48][i % 2], false)
        })
        .collect()
}

/// A seeded schedule of exponential arrivals at `rate` for `secs`.
///
/// The mix is dealt in blocks of 20 — 17 hot Plan, 2 fresh Plan and 1
/// fresh Simulate requests, in seeded order — and the hot entries and
/// Simulate kernels are taken in turn. Fresh Plan requests are all LU at
/// nb = 48, the costliest request in the mix, and Simulate requests are
/// all at nb = 24, so the fresh Plan requests are exactly the slowest
/// tenth and p95 is their median. When misses of several costs shared
/// the top tenth, p95 fell on the edge between two of them and jumped
/// from one to the other between runs.
fn schedule(rng: &mut StdRng, hot: &[Request], rate: f64, secs: f64) -> Vec<Arrival> {
    let mut out = Vec::new();
    let mut block: Vec<Kind> = Vec::new();
    let (mut hots, mut sims) = (0, 0);
    let mut t = 0.0;
    loop {
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        t += -u.ln() / rate;
        if t >= secs {
            return out;
        }
        if block.is_empty() {
            block = [
                vec![Kind::Hot(0); 17],
                vec![Kind::Cold; 2],
                vec![Kind::Simulate],
            ]
            .concat();
            for i in (1..block.len()).rev() {
                block.swap(i, rng.gen_range(0..=i));
            }
        }
        let (kind, req) = match block.pop().expect("refilled above") {
            Kind::Hot(_) => {
                hots += 1;
                (Kind::Hot(hots % HOT), hot[hots % HOT].clone())
            }
            Kind::Cold => (
                Kind::Cold,
                plan_request(fresh_times(rng), Kernel::Lu, COLD_NB, false),
            ),
            Kind::Simulate => {
                sims += 1;
                let kernel = [Kernel::Lu, Kernel::Mm, Kernel::Cholesky][sims % 3];
                (
                    Kind::Simulate,
                    plan_request(fresh_times(rng), kernel, SIMULATE_NB, true),
                )
            }
        };
        out.push(Arrival { due: t, kind, req });
    }
}

/// Mean of `r_i t_ij c_j` over the solved grid: the paper's average
/// workload of the allocation the response carries.
fn avg_workload(s: &hetgrid_serve::proto::SolveResult) -> f64 {
    let mut sum = 0.0;
    for i in 0..s.p {
        for j in 0..s.q {
            sum += s.rows[i] * s.times[i * s.q + j] * s.cols[j];
        }
    }
    sum / (s.p * s.q) as f64
}

/// Full check of a Plan or Simulate response to `req`.
fn check_response(req: &Request, resp: &Response) -> Result<(), String> {
    let (spec, simulate) = match &req.body {
        RequestBody::Plan(s) => (s, false),
        RequestBody::Simulate(s) => (s, true),
        _ => return Err("unexpected request kind".into()),
    };
    match resp {
        Response::Plan(p) if !simulate => {
            let s = &p.solve;
            if (s.p, s.q) != (GRID, GRID) || s.rows.len() != GRID || s.cols.len() != GRID {
                return Err("plan response has the wrong grid".into());
            }
            for i in 0..GRID {
                for j in 0..GRID {
                    let b = s.rows[i] * s.times[i * GRID + j] * s.cols[j];
                    if !(b > 0.0 && b <= 1.0 + EPS) {
                        return Err(format!("allocation infeasible: r t c = {b}"));
                    }
                }
            }
            let plan = hetgrid_plan::wire::decode(&p.plan_bytes)
                .map_err(|e| format!("plan_bytes do not decode: {e}"))?;
            if plan.grid != (GRID, GRID) || plan.steps.len() != spec.nb {
                return Err(format!(
                    "decoded plan has grid {:?} and {} steps, expected {GRID}x{GRID} and {}",
                    plan.grid,
                    plan.steps.len(),
                    spec.nb
                ));
            }
            Ok(())
        }
        Response::Simulate(s) if simulate => {
            let cells = GRID * GRID;
            if (s.p, s.q) != (GRID, GRID) || s.messages.len() != cells || s.work.len() != cells {
                return Err("simulate response has the wrong grid".into());
            }
            if s.work.iter().sum::<u64>() == 0 {
                return Err("simulate response predicts no work".into());
            }
            Ok(())
        }
        other => Err(format!("wrong response kind: {}", other.status())),
    }
}

struct Sample {
    lat_ms: f64,
    late_ms: f64,
    ok: bool,
}

#[derive(Default)]
struct PhaseOut {
    /// By schedule index.
    samples: Vec<Option<Sample>>,
    /// Cold and Simulate responses, checked after the phase.
    fresh: Vec<(usize, Response)>,
    /// Last completion past the last due time, milliseconds.
    drain_ms: f64,
    secs: f64,
    wrong: Vec<String>,
}

impl PhaseOut {
    fn ok_lat(&self) -> Vec<f64> {
        self.samples
            .iter()
            .flatten()
            .filter(|s| s.ok)
            .map(|s| s.lat_ms)
            .collect()
    }

    fn failed(&self) -> u64 {
        self.samples.iter().flatten().filter(|s| !s.ok).count() as u64
    }

    /// How late the generator sent, at p99, milliseconds.
    fn late_p99(&self) -> f64 {
        let late: Vec<f64> = self.samples.iter().flatten().map(|s| s.late_ms).collect();
        quantile(&late, 0.99)
    }

    /// p99 with every failed request counted as missing the limit.
    fn p99_failing_high(&self) -> f64 {
        let lat: Vec<f64> = self
            .samples
            .iter()
            .flatten()
            .map(|s| if s.ok { s.lat_ms } else { f64::MAX })
            .collect();
        quantile(&lat, 0.99)
    }
}

/// Sleeps until `due`; the 1 ns timer slack set in `main` keeps the
/// wake-up on time. Two generators that spun instead would keep both
/// cores of a two-core machine busy, so the server's threads would wait
/// for a core, and how long they waited would depend on whatever else
/// the host was running.
fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// Drives `sched` over the connections; each generator thread takes
/// the next arrival as soon as its connection is free.
fn phase(
    clients: &mut [Client],
    addr: SocketAddr,
    sched: &[Arrival],
    hot_resp: &[Response],
    tracer: Option<&Tracer>,
) -> PhaseOut {
    let next = AtomicUsize::new(0);
    let out = Mutex::new(PhaseOut {
        samples: (0..sched.len()).map(|_| None).collect(),
        ..PhaseOut::default()
    });
    let start = Instant::now() + Duration::from_millis(5);
    let mut last_done = start;
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let (next, out) = (&next, &out);
                s.spawn(move || {
                    let mut last = start;
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        let Some(a) = sched.get(i) else {
                            // Spans buffered on this thread die with it.
                            hetgrid_obs::trace::flush_thread();
                            return last;
                        };
                        let ready = Instant::now();
                        let due = start + Duration::from_secs_f64(a.due);
                        wait_until(due);
                        let sent = Instant::now();
                        let res = {
                            let _op = tracer.map(Tracer::op);
                            let _call = tracer.map(|t| t.stage("client.request"));
                            client.request(&a.req)
                        };
                        let done = Instant::now();
                        last = done;
                        let late = sent.saturating_duration_since(due.max(ready));
                        let mut fresh = None;
                        let mut wrong = None;
                        let ok = match (a.kind, res) {
                            (_, Ok(Response::Busy | Response::QuotaExceeded)) => false,
                            (Kind::Hot(h), Ok(resp)) => {
                                let same = resp == hot_resp[h];
                                if !same {
                                    wrong = Some(format!(
                                        "hot request {h} got a response ({}) that differs from the primed one",
                                        resp.status()
                                    ));
                                }
                                same
                            }
                            (_, Ok(resp @ (Response::Plan(_) | Response::Simulate(_)))) => {
                                fresh = Some(resp);
                                true
                            }
                            (_, Ok(resp)) => {
                                wrong = Some(format!("request {i} got {}", resp.status()));
                                false
                            }
                            (_, Err(e)) => {
                                eprintln!("hetbench: request {i} failed: {e}");
                                if let Ok(c) = Client::connect(addr) {
                                    *client = c;
                                }
                                false
                            }
                        };
                        let mut o = out.lock().expect("phase results lock poisoned");
                        o.samples[i] = Some(Sample {
                            lat_ms: (done - due).saturating_sub(late).as_secs_f64() * 1e3,
                            late_ms: late.as_secs_f64() * 1e3,
                            ok,
                        });
                        if let Some(r) = fresh {
                            o.fresh.push((i, r));
                        }
                        if let Some(w) = wrong {
                            o.wrong.push(w);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            let done = h.join().expect("generator thread panicked");
            last_done = last_done.max(done);
        }
    });
    let mut out = out.into_inner().expect("phase results lock poisoned");
    let last_due = start + Duration::from_secs_f64(sched.last().map_or(0.0, |a| a.due));
    out.drain_ms = last_done.saturating_duration_since(last_due).as_secs_f64() * 1e3;
    out.secs = (last_done - start).as_secs_f64();
    // Fresh responses are checked here, off the clock.
    let fresh = std::mem::take(&mut out.fresh);
    for (i, resp) in &fresh {
        if let Err(e) = check_response(&sched[*i].req, resp) {
            out.wrong.push(format!("request {i}: {e}"));
            if let Some(s) = out.samples[*i].as_mut() {
                s.ok = false;
            }
        }
    }
    out.fresh = fresh;
    out
}

/// A running server with its connections (declared first, so they close
/// before the server joins its connection threads).
struct Setup {
    clients: Vec<Client>,
    server: hetgrid_serve::ServerHandle,
    hot: Vec<Request>,
    hot_resp: Vec<Response>,
    rng: StdRng,
}

fn setup(seed: u64, problems: &mut Vec<String>) -> Setup {
    let server = spawn("127.0.0.1:0", ServiceConfig::default()).expect("binding a loopback port");
    let addr = server.addr();
    let mut clients: Vec<Client> = (0..CONNECTIONS)
        .map(|_| Client::connect(addr).expect("connecting to the server"))
        .collect();
    let hot = hot_set();
    let mut hot_resp = Vec::with_capacity(HOT);
    for req in &hot {
        let resp = clients[0].request(req).expect("priming the hot set");
        if let Err(e) = check_response(req, &resp) {
            problems.push(format!("hot response: {e}"));
        }
        hot_resp.push(resp);
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let warm = schedule(&mut rng, &hot, NOMINAL_RPS, WARMUP_S);
    let out = phase(&mut clients, addr, &warm, &hot_resp, None);
    problems.extend(out.wrong);
    Setup {
        clients,
        server,
        hot,
        hot_resp,
        rng,
    }
}

/// Runs one phase and returns it with the registry's change over it.
fn metered_phase(
    s: &mut Setup,
    addr: SocketAddr,
    sched: &[Arrival],
    tracer: Option<&Tracer>,
) -> (PhaseOut, MetricsSnapshot) {
    let before = hetgrid_obs::metrics().snapshot();
    let out = phase(&mut s.clients, addr, sched, &s.hot_resp, tracer);
    (out, hetgrid_obs::metrics().snapshot().delta(&before))
}

/// Requests that must miss the cache: every one but the hot set's.
fn fresh_count(sched: &[Arrival]) -> u64 {
    sched
        .iter()
        .filter(|a| !matches!(a.kind, Kind::Hot(_)))
        .count() as u64
}

/// Checks the phase's outputs and exact counts, and records its shares.
fn account(r: &mut Report, label: &str, sched: &[Arrival], out: &PhaseOut, d: &MetricsSnapshot) {
    for w in &out.wrong {
        r.problem(w.clone());
    }
    // Every fresh request is one miss and one solver invocation; a
    // refused or timed-out request breaks that accounting, so the
    // check needs a phase without failures.
    let invocations = d.counter("serve.solver.invocations");
    if out.failed() == 0 && invocations != fresh_count(sched) {
        r.problem(format!(
            "{label}: serve.solver.invocations grew by {invocations} over {} fresh requests",
            fresh_count(sched)
        ));
    }
    let n = sched.len().max(1) as f64;
    let share = |k: fn(&Kind) -> bool| sched.iter().filter(|a| k(&a.kind)).count() as f64 / n;
    r.meta_num(&format!("{label}_requests"), sched.len() as f64);
    r.meta_num(
        &format!("{label}_hot_share"),
        share(|k| matches!(k, Kind::Hot(_))),
    );
    r.meta_num(&format!("{label}_cold_share"), share(|k| *k == Kind::Cold));
    r.meta_num(
        &format!("{label}_simulate_share"),
        share(|k| *k == Kind::Simulate),
    );
}

/// Mean average-workload of the allocations the phase's Plan responses
/// carried.
fn phase_avg_workload(sched: &[Arrival], out: &PhaseOut, hot_resp: &[Response]) -> f64 {
    let hot_w: Vec<f64> = hot_resp
        .iter()
        .map(|r| match r {
            Response::Plan(p) => avg_workload(&p.solve),
            _ => 0.0,
        })
        .collect();
    let mut ws: Vec<f64> = sched
        .iter()
        .filter_map(|a| match a.kind {
            Kind::Hot(h) => Some(hot_w[h]),
            _ => None,
        })
        .collect();
    ws.extend(out.fresh.iter().filter_map(|(_, r)| match r {
        Response::Plan(p) => Some(avg_workload(&p.solve)),
        _ => None,
    }));
    mean(&ws)
}

/// Climbs the ladder until two failing rates in a row (one failure can
/// be a passing stall of the host rather than a growing backlog).
/// Returns the highest rate that passed: the service's `max_rate_rps`.
fn ladder(s: &mut Setup, addr: SocketAddr, seconds: f64, r: &mut Report) -> f64 {
    let requests = LADDER_STEP_REQUESTS_PER_S * seconds;
    let mut max_rate = 0.0;
    let mut steps = Vec::new();
    let mut failures = 0;
    for &rate in &LADDER_RPS {
        let sched = schedule(&mut s.rng, &s.hot, rate, requests / rate);
        let (out, d) = metered_phase(s, addr, &sched, None);
        account(r, &format!("ladder{rate}"), &sched, &out, &d);
        let p99 = out.p99_failing_high();
        let failed = out.failed() as f64 / sched.len().max(1) as f64;
        let ok = p99 <= P99_LIMIT_MS && out.drain_ms <= P99_LIMIT_MS && failed <= MAX_FAILED;
        steps.push(format!(
            "{{\"rps\": {rate}, \"p99_ms\": {p99}, \"drain_ms\": {}, \"failed_ratio\": {failed}, \"pass\": {ok}}}",
            out.drain_ms
        ));
        if ok {
            max_rate = rate;
            failures = 0;
        } else {
            failures += 1;
            if failures == 2 {
                break;
            }
        }
    }
    r.meta_raw("ladder", format!("[{}]", steps.join(", ")));
    max_rate
}

pub fn run(args: &Args, r: &mut Report) {
    r.meta_num("nominal_rps", NOMINAL_RPS);
    r.meta_raw(
        "ladder_rps",
        format!("[{}]", LADDER_RPS.map(|x| x.to_string()).join(", ")),
    );
    r.meta_num("p99_limit_ms", P99_LIMIT_MS);
    r.meta_num("connections", CONNECTIONS as f64);
    let mut problems = Vec::new();
    let (mut s, setup_s) = timed_setup(|| setup(args.seed, &mut problems));
    for p in problems {
        r.problem(p);
    }
    r.set("setup_s", setup_s);
    let addr = s.server.addr();

    if !args.trace {
        // The nominal phase. A phase whose generator fell behind its own
        // schedule measured the host, not the server: it is recorded as
        // invalid and run again on the next stretch of the seeded
        // arrival stream.
        let secs = NOMINAL_SHARE * args.seconds;
        let mut attempt = 0;
        let (sched, out) = loop {
            attempt += 1;
            let sched = schedule(&mut s.rng, &s.hot, NOMINAL_RPS, secs);
            let (out, d) = metered_phase(&mut s, addr, &sched, None);
            account(r, &format!("nominal{attempt}"), &sched, &out, &d);
            r.count_ops(sched.len() as u64, out.failed());
            let late_p99 = out.late_p99();
            r.meta_num(&format!("nominal{attempt}_generator_late_p99_ms"), late_p99);
            if late_p99 <= LATE_BOUND_MS {
                break (sched, out);
            }
            eprintln!(
                "hetbench: nominal phase {attempt} invalid: generator {late_p99:.2} ms late at p99 (bound {LATE_BOUND_MS} ms)"
            );
            if attempt == NOMINAL_ATTEMPTS {
                r.problem(format!(
                    "invalid run: the generator fell behind in all {NOMINAL_ATTEMPTS} nominal phases"
                ));
                break (sched, out);
            }
        };
        let lat = out.ok_lat();
        r.set("ops_per_s", lat.len() as f64 / out.secs);
        r.set("latency_p50_ms", quantile(&lat, 0.50));
        r.set("latency_p95_ms", quantile(&lat, 0.95));
        r.meta_num("nominal_latency_p99_ms", quantile(&lat, 0.99));
        r.set("ok_ratio", lat.len() as f64 / sched.len().max(1) as f64);
        r.set(
            "avg_workload",
            phase_avg_workload(&sched, &out, &s.hot_resp),
        );

        // The ladder's answer moved by one or two 15% rungs between runs
        // on a shared two-CPU host, more than an end-to-end bound can
        // absorb, so it goes to the run report rather than the gated
        // metrics.
        let max_rate = ladder(&mut s, addr, args.seconds, r);
        r.meta_num("max_rate_rps", max_rate);
        return;
    }

    // Traced run: an untraced stretch, then the same traffic traced.
    let sched = schedule(&mut s.rng, &s.hot, NOMINAL_RPS, 0.3 * args.seconds);
    let (plain, d) = metered_phase(&mut s, addr, &sched, None);
    account(r, "untraced", &sched, &plain, &d);
    r.count_ops(sched.len() as u64, plain.failed());

    let mut tracer = Tracer::start();
    let sched = schedule(&mut s.rng, &s.hot, NOMINAL_RPS, 0.7 * args.seconds);
    let (out, d) = metered_phase(&mut s, addr, &sched, Some(&tracer));
    account(r, "traced", &sched, &out, &d);
    r.count_ops(sched.len() as u64, out.failed());
    // Closing the connections and the server flushes the server-side
    // spans of the traced requests.
    let Setup {
        server,
        clients,
        hot,
        hot_resp,
        ..
    } = s;
    drop(clients);
    server.shutdown();
    tracer.collect();

    r.set(
        "obs.trace_overhead_pct",
        overhead_pct(quantile(&plain.ok_lat(), 0.5), quantile(&out.ok_lat(), 0.5)),
    );
    let (hits, misses) = (
        d.counter("serve.cache.hits"),
        d.counter("serve.cache.misses"),
    );
    r.set(
        "serve.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    r.set("serve.coalesced", d.counter("serve.cache.coalesced") as f64);
    r.set("serve.shed", d.counter("serve.shed") as f64);
    r.set("serve.quota_denied", d.counter("serve.quota.denied") as f64);
    r.set(
        "serve.solver_invocations",
        d.counter("serve.solver.invocations") as f64,
    );
    r.set("serve.misses_sent", fresh_count(&sched) as f64);
    r.set("serve.generator_late_p99_ms", out.late_p99());
    let hot_bytes: Vec<usize> = hot_resp.iter().map(|x| encode_response(x).len()).collect();
    let mut bytes: Vec<f64> = sched
        .iter()
        .filter_map(|a| match a.kind {
            Kind::Hot(h) => Some(hot_bytes[h] as f64),
            _ => None,
        })
        .collect();
    bytes.extend(
        out.fresh
            .iter()
            .map(|(_, x)| encode_response(x).len() as f64),
    );
    r.set("serve.response_bytes", mean(&bytes));
    r.set("serve.self_ms", tracer.self_ms("serve"));
    r.set("serve.client_self_ms", tracer.self_ms("client"));
    tracer.finish(args, r);

    probes(&hot, &mut StdRng::seed_from_u64(args.seed ^ 0xC01D), r);
}

/// In-process timings of the service and of the layers a miss runs
/// through, on the workload's request shapes.
fn probes(hot: &[Request], rng: &mut StdRng, r: &mut Report) {
    let service = Service::new(ServiceConfig::default());
    let hot_frame = encode_request(&hot[0]);
    black_box(service.handle(&hot_frame));
    let batch = 100;
    let hot_us: Vec<f64> = (0..20)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..batch {
                black_box(service.handle(black_box(&hot_frame)));
            }
            t0.elapsed().as_secs_f64() * 1e6 / batch as f64
        })
        .collect();
    r.set("serve.handle_hot_us", median(&hot_us));

    let reps = 30;
    let mut cold_ms = Vec::new();
    let (mut solve_ms, mut dist_ms, mut plan_ms, mut encode_ms, mut plan_bytes) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let nb = COLD_NB;
    for _ in 0..reps {
        let times = fresh_times(rng);
        let frame = encode_request(&plan_request(times.clone(), Kernel::Lu, nb, false));
        let t0 = Instant::now();
        black_box(service.handle(&frame));
        cold_ms.push(t0.elapsed().as_secs_f64() * 1e3);

        // The miss path's layers, called the way the service calls them.
        let t0 = Instant::now();
        let sol = Problem::new(times).grid(GRID, GRID).solve();
        solve_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        let panels = nb.clamp(GRID, 4 * GRID);
        let dist = PanelDist::from_allocation(
            &sol.arrangement,
            &sol.alloc,
            panels,
            panels,
            PanelOrdering::Interleaved,
        );
        dist_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        let plan = hetgrid_plan::factor_plan(&dist, nb);
        plan_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        let t0 = Instant::now();
        let bytes = hetgrid_plan::wire::encode(&plan);
        encode_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        plan_bytes.push(bytes.len() as f64);
    }
    r.set("serve.handle_cold_ms", median(&cold_ms));
    r.set("core.solve_ms", median(&solve_ms));
    r.set("dist.build_ms", median(&dist_ms));
    r.set("plan.build_ms", median(&plan_ms));
    r.set("plan.encode_ms", median(&encode_ms));
    r.set("plan.bytes", mean(&plan_bytes));
}
