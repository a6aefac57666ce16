//! The transport-independent service: admission, quotas, the
//! content-addressed cache, in-flight coalescing, compute, and all
//! `serve.*` metrics.
//!
//! [`Service::handle`] maps one request frame to one response frame.
//! The TCP server is a thin loop around it, and the tests drive it
//! in-process — the semantics under test are exactly the semantics
//! the socket sees.
//!
//! ## Accounting invariants
//!
//! For the cacheable endpoints (solve / plan / simulate), after any
//! quiescent point:
//!
//! * `serve.cache.hits + serve.cache.misses == serve.requests.admitted`
//! * `serve.solver.invocations == serve.cache.misses`
//! * `serve.cache.evictions <= serve.cache.misses`
//! * `serve.cache.coalesced <= serve.cache.hits`
//!
//! A request that waited on another tenant's identical in-flight solve
//! counts as a *hit* (`coalesced` tracks the subset): exactly one
//! solver invocation happens per distinct fingerprint no matter how
//! many clients race. Rejections (`serve.shed`, `serve.quota.denied`,
//! `serve.requests.malformed`) happen *before* admission and are
//! excluded, as are the meta endpoints (`serve.requests.meta`).
//!
//! ## Compute
//!
//! Cold-path compute runs through the shared [`hetgrid_par`] pool, so
//! CPU-bound solver work stays bounded by the pool width no matter how
//! many connection threads are blocked waiting, and is wrapped in
//! `catch_unwind`: a panic degrades to a typed `ServerError` response
//! (uncached) instead of taking the process down.

use crate::cache::PlanCache;
use crate::fingerprint::{cache_key, fingerprint};
use crate::proto::{
    decode_request, encode_response, MetricsFormat, Request, RequestBody, Response, SolveResult,
    SolveSpec,
};
use crate::quota::{QuotaConfig, QuotaTable};
use hetgrid_core::{heuristic, validate_times, Arrangement};
use hetgrid_dist::{PanelDist, PanelOrdering};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

/// Latency histogram bucket bounds, seconds.
const LATENCY_BOUNDS: &[f64] = &[1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0];

/// Tuning knobs for a [`Service`].
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Plan-cache capacity in entries (0 disables caching).
    pub cache_capacity: usize,
    /// Maximum concurrently-admitted compute requests before load is
    /// shed with `Busy`.
    pub queue_limit: usize,
    /// Per-tenant quota policy.
    pub quota: QuotaConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            cache_capacity: 256,
            queue_limit: 64,
            quota: QuotaConfig::unlimited(),
        }
    }
}

/// One in-flight compute: waiters block on the condvar until the
/// leader publishes the encoded response.
struct Flight {
    slot: Mutex<Option<Arc<Vec<u8>>>>,
    done: Condvar,
}

/// The scheduling service. Cheap to share (`Arc<Service>`); every
/// method takes `&self`.
pub struct Service {
    cfg: ServiceConfig,
    cache: Mutex<PlanCache>,
    quotas: Mutex<QuotaTable>,
    inflight: Mutex<HashMap<u128, Arc<Flight>>>,
    active: AtomicUsize,
    shutdown: AtomicBool,
    start: Instant,
}

fn serve_track() -> hetgrid_obs::trace::TrackId {
    static TRACK: OnceLock<hetgrid_obs::trace::TrackId> = OnceLock::new();
    *TRACK.get_or_init(|| hetgrid_obs::trace::track("serve"))
}

fn pool_track() -> hetgrid_obs::trace::TrackId {
    static TRACK: OnceLock<hetgrid_obs::trace::TrackId> = OnceLock::new();
    *TRACK.get_or_init(|| hetgrid_obs::trace::track("serve-pool"))
}

impl Service {
    /// A fresh service under `cfg`.
    pub fn new(cfg: ServiceConfig) -> Self {
        Service {
            cache: Mutex::new(PlanCache::new(cfg.cache_capacity)),
            quotas: Mutex::new(QuotaTable::new(cfg.quota)),
            inflight: Mutex::new(HashMap::new()),
            active: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            start: Instant::now(),
            cfg,
        }
    }

    /// The configuration this service runs under.
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// True once a `Shutdown` request has been processed.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Handles one request frame, returning the encoded response
    /// frame. Total: malformed input yields an encoded `BadRequest`,
    /// a compute panic an encoded `ServerError` — never a panic out of
    /// this function. Responses for requests with the same cache
    /// fingerprint are the *same* `Arc` — byte-identical by
    /// construction.
    pub fn handle(&self, frame: &[u8]) -> Arc<Vec<u8>> {
        let req = match decode_request(frame) {
            Ok(req) => req,
            Err(e) => {
                hetgrid_obs::metrics()
                    .counter("serve.requests.malformed")
                    .inc();
                return Arc::new(encode_response(&Response::BadRequest(e.to_string())));
            }
        };
        self.handle_decoded(&req)
    }

    /// [`Service::handle`] over an already-decoded request, decoding
    /// the response for in-process callers.
    pub fn respond(&self, req: &Request) -> Response {
        let bytes = self.handle_decoded(req);
        match crate::proto::decode_response(&bytes) {
            Ok(resp) => resp,
            Err(e) => Response::ServerError(format!("internal codec error: {e}")),
        }
    }

    fn handle_decoded(&self, req: &Request) -> Arc<Vec<u8>> {
        let m = hetgrid_obs::metrics();
        let _span = hetgrid_obs::span!(
            serve_track(),
            "{} tenant={}",
            req.body.endpoint(),
            req.tenant
        );
        match &req.body {
            RequestBody::Metrics(fmt) => {
                m.counter("serve.requests.meta").inc();
                let text = match fmt {
                    // v1 behavior: serve-scoped counters as JSON.
                    MetricsFormat::Json => m.snapshot().filtered("serve.").to_json(),
                    // The whole registry, parse-back-exact (the top
                    // dashboard wants exec/pool/recovery families too).
                    MetricsFormat::Expo => hetgrid_obs::expo::write(&m.snapshot()),
                    MetricsFormat::Series => hetgrid_obs::series::to_json(),
                };
                Arc::new(encode_response(&Response::Metrics(text)))
            }
            RequestBody::Shutdown => {
                m.counter("serve.requests.meta").inc();
                self.shutdown.store(true, Ordering::SeqCst);
                Arc::new(encode_response(&Response::ShuttingDown))
            }
            body => {
                if let Err(msg) = validate_body(body) {
                    m.counter("serve.requests.malformed").inc();
                    return Arc::new(encode_response(&Response::BadRequest(msg)));
                }
                // Quota, then load shedding, then admission.
                let now = self.start.elapsed().as_secs_f64();
                if !self
                    .quotas
                    .lock()
                    .unwrap_or_else(|p| p.into_inner())
                    .try_admit(&req.tenant, now)
                {
                    m.counter("serve.quota.denied").inc();
                    return Arc::new(encode_response(&Response::QuotaExceeded));
                }
                let active = self.active.fetch_add(1, Ordering::SeqCst) + 1;
                if active > self.cfg.queue_limit {
                    self.active.fetch_sub(1, Ordering::SeqCst);
                    m.counter("serve.shed").inc();
                    return Arc::new(encode_response(&Response::Busy));
                }
                m.gauge("serve.queue.depth").set(active as f64);
                m.counter("serve.requests.admitted").inc();
                let tenant = if req.tenant.is_empty() {
                    "anon"
                } else {
                    req.tenant.as_str()
                };
                m.counter(&format!("serve.tenant.{tenant}.admitted")).inc();
                let t0 = Instant::now();
                let resp_bytes = self.cached_compute(body);
                m.histogram(
                    &format!("serve.latency.{}", body.endpoint()),
                    LATENCY_BOUNDS,
                )
                .observe(t0.elapsed().as_secs_f64());
                let left = self.active.fetch_sub(1, Ordering::SeqCst) - 1;
                m.gauge("serve.queue.depth").set(left as f64);
                resp_bytes
            }
        }
    }

    /// The cache / coalescing / compute path for an admitted request.
    /// Returns the encoded response bytes (shared with the cache).
    fn cached_compute(&self, body: &RequestBody) -> Arc<Vec<u8>> {
        let m = hetgrid_obs::metrics();
        let key = cache_key(body).expect("cacheable body");
        let fp = fingerprint(&key);

        if let Some(bytes) = self
            .cache
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .get(fp, &key)
        {
            m.counter("serve.cache.hits").inc();
            return bytes;
        }

        // Not cached: either lead the compute or wait on the leader.
        let (flight, leader) = {
            let mut inflight = self.inflight.lock().unwrap_or_else(|p| p.into_inner());
            match inflight.get(&fp.0) {
                Some(f) => (Arc::clone(f), false),
                None => {
                    // A leader that finished between the probe above and
                    // this lock cached its bytes before retiring its
                    // flight: look again rather than solve twice.
                    if let Some(bytes) = self
                        .cache
                        .lock()
                        .unwrap_or_else(|p| p.into_inner())
                        .get(fp, &key)
                    {
                        m.counter("serve.cache.hits").inc();
                        return bytes;
                    }
                    let f = Arc::new(Flight {
                        slot: Mutex::new(None),
                        done: Condvar::new(),
                    });
                    inflight.insert(fp.0, Arc::clone(&f));
                    (f, true)
                }
            }
        };

        if !leader {
            let mut slot = flight.slot.lock().unwrap_or_else(|p| p.into_inner());
            while slot.is_none() {
                slot = flight.done.wait(slot).unwrap_or_else(|p| p.into_inner());
            }
            m.counter("serve.cache.hits").inc();
            m.counter("serve.cache.coalesced").inc();
            return Arc::clone(slot.as_ref().expect("flight published"));
        }

        m.counter("serve.cache.misses").inc();
        m.counter("serve.solver.invocations").inc();
        // Run the solve on the shared worker pool (bounds CPU-bound
        // concurrency to the pool width) and absorb any panic into a
        // typed, uncached ServerError. The trace context is captured
        // here and re-installed inside the pool closure — crossing a
        // thread boundary is always explicit (see `hetgrid_obs::ctx`) —
        // so the solve span lands in the same trace tree as admission.
        let ctx = hetgrid_obs::ctx::current();
        let endpoint = body.endpoint();
        let computed = catch_unwind(AssertUnwindSafe(|| {
            hetgrid_par::global()
                .parallel_map(vec![body.clone()], move |b| {
                    let _g = ctx.map(hetgrid_obs::ctx::install);
                    let _span = hetgrid_obs::span!(pool_track(), "solve {}", endpoint);
                    compute(&b)
                })
                .pop()
                .expect("one result for one item")
        }));
        let (resp, cacheable) = match computed {
            Ok(resp) => (resp, true),
            Err(_) => (
                Response::ServerError("solver panicked; request not cached".into()),
                false,
            ),
        };
        let bytes = Arc::new(encode_response(&resp));
        if cacheable {
            let inserted = self.cache.lock().unwrap_or_else(|p| p.into_inner()).insert(
                fp,
                key,
                Arc::clone(&bytes),
            );
            if inserted.evicted {
                m.counter("serve.cache.evictions").inc();
            }
        }
        // Publish to waiters, then retire the flight so later requests
        // go through the cache.
        *flight.slot.lock().unwrap_or_else(|p| p.into_inner()) = Some(Arc::clone(&bytes));
        flight.done.notify_all();
        self.inflight
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .remove(&fp.0);
        bytes
    }
}

/// Semantic validation beyond what the codec enforces structurally.
fn validate_body(body: &RequestBody) -> Result<(), String> {
    let spec = match body {
        RequestBody::Solve(s) => s,
        RequestBody::Plan(p) | RequestBody::Simulate(p) => &p.solve,
        _ => return Ok(()),
    };
    validate_times(&spec.times, spec.p, spec.q).map_err(|e| e.to_string())
}

// ---------------------------------------------------------------------
// Compute: the pure function a cache entry memoizes
// ---------------------------------------------------------------------

/// Integer slowdown weights from an arrangement (each processor's
/// cycle-time over the fastest, rounded, at least 1) — the same rule
/// `hetgrid_exec::slowdown_weights` uses, restated here so serve does
/// not pull in the executor.
fn weights_for(arr: &Arrangement) -> Vec<Vec<u64>> {
    let tmin = arr.times().iter().cloned().fold(f64::INFINITY, f64::min);
    (0..arr.p())
        .map(|i| {
            (0..arr.q())
                .map(|j| ((arr.time(i, j) / tmin).round() as u64).max(1))
                .collect()
        })
        .collect()
}

fn solve(spec: &SolveSpec) -> (Arrangement, hetgrid_core::Allocation, f64) {
    let res = heuristic::solve_default(&spec.times, spec.p, spec.q);
    let best = res.best();
    (best.arrangement.clone(), best.alloc.clone(), best.obj2)
}

fn solve_result(spec: &SolveSpec) -> (Arrangement, hetgrid_core::Allocation, SolveResult) {
    let (arr, alloc, obj2) = solve(spec);
    let result = SolveResult {
        p: spec.p,
        q: spec.q,
        times: arr.times().to_vec(),
        rows: alloc.r.clone(),
        cols: alloc.c.clone(),
        obj2,
    };
    (arr, alloc, result)
}

/// The paper-faithful distribution for a solved instance: a panel
/// distribution from the continuous allocation, with a panel period of
/// up to four panel rows/columns per grid row/column (clamped to the
/// block count). Deterministic in the spec, so cache entries are
/// reproducible.
fn dist_for(arr: &Arrangement, alloc: &hetgrid_core::Allocation, nb: usize) -> PanelDist {
    let bp = nb.min(4 * arr.p()).max(arr.p());
    let bq = nb.min(4 * arr.q()).max(arr.q());
    PanelDist::from_allocation(arr, alloc, bp, bq, PanelOrdering::Interleaved)
}

fn compute(body: &RequestBody) -> Response {
    match body {
        RequestBody::Solve(spec) => {
            let (_, _, result) = solve_result(spec);
            Response::Solve(result)
        }
        RequestBody::Plan(spec) => {
            let (arr, alloc, result) = solve_result(&spec.solve);
            let dist = dist_for(&arr, &alloc, spec.nb);
            let plan = spec.kernel.plan(&dist, spec.nb);
            Response::Plan(crate::proto::PlanResult {
                solve: result,
                plan_bytes: hetgrid_plan::wire::encode(&plan),
            })
        }
        RequestBody::Simulate(spec) => {
            let (arr, alloc, _) = solve_result(&spec.solve);
            let dist = dist_for(&arr, &alloc, spec.nb);
            let weights = weights_for(&arr);
            let plan = spec.kernel.plan(&dist, spec.nb);
            let counts = hetgrid_sim::counts::counts(&plan, 0, &weights);
            Response::Simulate(crate::proto::SimulateResult {
                p: spec.solve.p,
                q: spec.solve.q,
                messages: counts.messages.iter().flatten().copied().collect(),
                work: counts.work_units.iter().flatten().copied().collect(),
            })
        }
        RequestBody::Metrics(_) | RequestBody::Shutdown => {
            unreachable!("meta endpoints are handled before compute")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{encode_request, Kernel, PlanSpec};
    use std::sync::{MutexGuard, OnceLock};

    /// The metrics registry is process-global, so tests that assert
    /// counter deltas must not run while other Service tests are
    /// incrementing the same counters.
    fn obs_lock() -> MutexGuard<'static, ()> {
        static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
        LOCK.get_or_init(|| Mutex::new(()))
            .lock()
            .unwrap_or_else(|p| p.into_inner())
    }

    fn plan_request(tenant: &str, times: &[f64]) -> Request {
        Request {
            tenant: tenant.into(),
            body: RequestBody::Plan(PlanSpec {
                solve: SolveSpec {
                    p: 2,
                    q: 2,
                    times: times.to_vec(),
                },
                kernel: Kernel::Lu,
                nb: 6,
            }),
        }
    }

    #[test]
    fn malformed_frames_become_bad_request() {
        let _g = obs_lock();
        let svc = Service::new(ServiceConfig::default());
        for frame in [&b""[..], &b"xx"[..], &[0xFF; 64][..]] {
            let resp = crate::proto::decode_response(&svc.handle(frame)).unwrap();
            assert!(matches!(resp, Response::BadRequest(_)), "{frame:?}");
        }
    }

    #[test]
    fn bad_cycle_times_become_bad_request_not_panic() {
        let _g = obs_lock();
        let svc = Service::new(ServiceConfig::default());
        for bad in [f64::NAN, f64::INFINITY, 0.0, -1.0] {
            let req = plan_request("t", &[1.0, 2.0, 3.0, bad]);
            let resp = crate::proto::decode_response(&svc.handle(&encode_request(&req))).unwrap();
            assert!(matches!(resp, Response::BadRequest(_)), "time {bad}");
        }
    }

    #[test]
    fn identical_requests_are_byte_identical_and_hit_the_cache() {
        let _g = obs_lock();
        let svc = Service::new(ServiceConfig::default());
        let req = encode_request(&plan_request("a", &[1.0, 2.0, 3.0, 5.0]));
        let m = hetgrid_obs::metrics();
        let before = m.snapshot();
        let first = svc.handle(&req);
        // Different tenant, same spec: same bytes, served from cache.
        let other = encode_request(&plan_request("b", &[1.0, 2.0, 3.0, 5.0]));
        let second = svc.handle(&other);
        assert_eq!(first, second);
        let d = m.snapshot().delta(&before);
        assert_eq!(d.counter("serve.requests.admitted"), 2);
        assert_eq!(d.counter("serve.cache.misses"), 1);
        assert_eq!(d.counter("serve.cache.hits"), 1);
        assert_eq!(d.counter("serve.solver.invocations"), 1);
    }

    #[test]
    fn plan_response_decodes_to_a_valid_plan() {
        let _g = obs_lock();
        let svc = Service::new(ServiceConfig::default());
        let req = plan_request("t", &[1.0, 2.0, 2.0, 4.0]);
        let resp = svc.respond(&req);
        let Response::Plan(r) = resp else {
            panic!("expected a plan response, got {resp:?}")
        };
        let plan = hetgrid_plan::wire::decode(&r.plan_bytes).expect("valid plan bytes");
        assert_eq!(plan.grid, (2, 2));
        assert_eq!(plan.steps.len(), 6);
        assert_eq!(r.solve.rows.len(), 2);
        assert_eq!(r.solve.cols.len(), 2);
    }

    #[test]
    fn simulate_agrees_with_direct_counts() {
        let _g = obs_lock();
        let svc = Service::new(ServiceConfig::default());
        let spec = PlanSpec {
            solve: SolveSpec {
                p: 2,
                q: 2,
                times: vec![1.0, 2.0, 3.0, 5.0],
            },
            kernel: Kernel::Cholesky,
            nb: 6,
        };
        let resp = svc.respond(&Request {
            tenant: String::new(),
            body: RequestBody::Simulate(spec.clone()),
        });
        let Response::Simulate(sim) = resp else {
            panic!("expected simulate")
        };
        let (arr, alloc, _) = solve_result(&spec.solve);
        let dist = dist_for(&arr, &alloc, spec.nb);
        let plan = hetgrid_plan::cholesky_plan(&dist, spec.nb);
        let counts = hetgrid_sim::counts::cholesky_counts_from_plan(&plan, &weights_for(&arr));
        assert_eq!(sim.messages.iter().sum::<u64>(), counts.total_messages());
        assert_eq!(sim.work.iter().sum::<u64>(), counts.total_work());
    }

    #[test]
    fn quota_denies_past_burst() {
        let _g = obs_lock();
        let svc = Service::new(ServiceConfig {
            quota: QuotaConfig {
                rate_per_sec: 0.001,
                burst: 2.0,
            },
            ..ServiceConfig::default()
        });
        let req = plan_request("greedy", &[1.0, 2.0, 3.0, 5.0]);
        assert_ne!(svc.respond(&req).status(), "quota");
        assert_ne!(svc.respond(&req).status(), "quota");
        assert_eq!(svc.respond(&req).status(), "quota");
        // Another tenant is unaffected.
        let other = plan_request("patient", &[1.0, 2.0, 3.0, 5.0]);
        assert_ne!(svc.respond(&other).status(), "quota");
    }

    #[test]
    fn shutdown_sets_the_flag() {
        let _g = obs_lock();
        let svc = Service::new(ServiceConfig::default());
        assert!(!svc.shutdown_requested());
        let resp = svc.respond(&Request {
            tenant: "ops".into(),
            body: RequestBody::Shutdown,
        });
        assert_eq!(resp, Response::ShuttingDown);
        assert!(svc.shutdown_requested());
    }

    #[test]
    fn metrics_endpoint_reports_serve_counters() {
        let _g = obs_lock();
        let svc = Service::new(ServiceConfig::default());
        svc.respond(&plan_request("t", &[2.0, 2.0, 3.0, 5.0]));
        let resp = svc.respond(&Request {
            tenant: "ops".into(),
            body: RequestBody::Metrics(MetricsFormat::Json),
        });
        let Response::Metrics(json) = resp else {
            panic!("expected metrics")
        };
        assert!(json.contains("serve.requests.admitted"));
        assert!(json.contains("serve.tenant.t.admitted"));
        assert!(!json.contains("exec."), "non-serve metrics leaked");
    }

    #[test]
    fn metrics_exposition_format_parses_back_exactly() {
        let _g = obs_lock();
        let svc = Service::new(ServiceConfig::default());
        svc.respond(&plan_request("expo-t", &[1.0, 2.0, 4.0, 5.0]));
        let Response::Metrics(text) = svc.respond(&Request {
            tenant: "ops".into(),
            body: RequestBody::Metrics(MetricsFormat::Expo),
        }) else {
            panic!("expected metrics")
        };
        let back = hetgrid_obs::expo::parse(&text).expect("served exposition parses");
        assert!(back.counter("serve.requests.admitted") >= 1);
        assert!(back.counter("serve.tenant.expo-t.admitted") >= 1);
        // The exposition is the whole registry and its own writer's
        // fixed point.
        assert_eq!(hetgrid_obs::expo::write(&back), text);
    }

    #[test]
    fn metrics_series_format_returns_the_ring_json() {
        let _g = obs_lock();
        let svc = Service::new(ServiceConfig::default());
        hetgrid_obs::series::clear();
        hetgrid_obs::series::sample();
        let Response::Metrics(json) = svc.respond(&Request {
            tenant: String::new(),
            body: RequestBody::Metrics(MetricsFormat::Series),
        }) else {
            panic!("expected metrics")
        };
        assert!(json.starts_with("{\"series\": ["), "got {json}");
        assert!(json.contains("\"t_us\": "), "got {json}");
    }
}
