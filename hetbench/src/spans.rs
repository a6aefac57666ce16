//! Tracing from the benchmark's side: one `hetgrid_obs` trace id per
//! op, a span around each call into a layer, and the per-layer self
//! times computed from the recorded span tree.
//!
//! A span's self time is its duration minus the durations of its child
//! spans (children are found by the parent link the `hetgrid_obs`
//! context stamps, so server-side spans of a serve request count as
//! children of the client call that caused them). The self time of the
//! op's root span is the unattributed remainder.

use crate::report::{write_out, Report, OUT_DIR};
use crate::Args;
use hetgrid_obs::trace::{self, SpanGuard, TraceEvent, TrackId};
use hetgrid_obs::{ctx, TraceCtx};
use std::collections::{BTreeMap, HashMap, HashSet};

/// Name of the root span of every op.
const OP: &str = "bench.op";

/// The stage spans must cover the op spans to within this share.
const STAGE_TOL_PCT: f64 = 5.0;

/// Ops whose full event stream (including the executor's own worker
/// tracks) is kept for the Chrome trace; later ops only feed the
/// self-time tally, so the exported file stays small.
const EXPORT_OPS: usize = 6;

pub struct Tracer {
    track: TrackId,
    tracks: Vec<String>,
    exported: Vec<TraceEvent>,
    kept_ops: usize,
    /// Summed self time per layer, microseconds.
    self_us: BTreeMap<String, f64>,
    ops: usize,
    op_us: f64,
    children_us: f64,
}

impl Tracer {
    /// Turns the export sink on and registers the benchmark's track.
    pub fn start() -> Tracer {
        trace::set_enabled(true);
        trace::clear();
        Tracer {
            track: trace::track("hetbench"),
            tracks: Vec::new(),
            exported: Vec::new(),
            kept_ops: 0,
            self_us: BTreeMap::new(),
            ops: 0,
            op_us: 0.0,
            children_us: 0.0,
        }
    }

    /// Opens an op: installs a fresh trace id and the root span. Drop
    /// the pair (span first) to close the op.
    pub fn op(&self) -> (SpanGuard, ctx::CtxGuard) {
        let guard = ctx::install(TraceCtx {
            trace_id: ctx::mint_trace_id(),
            span_id: 0,
        });
        (trace::span_at(self.track, OP.to_string()), guard)
    }

    /// Opens a span around one layer call, named `<layer>.<call>`.
    pub fn stage(&self, name: &str) -> SpanGuard {
        trace::span_at(self.track, name.to_string())
    }

    /// Drains the collector and folds every op it holds into the tally.
    pub fn collect(&mut self) {
        let (tracks, events) = trace::take();
        let bench = self.track.index();
        let mut by_trace: HashMap<u128, Vec<&TraceEvent>> = HashMap::new();
        for ev in &events {
            if let (Some(c), Some(_)) = (ev.ctx, ev.dur_us) {
                by_trace.entry(c.trace_id).or_default().push(ev);
            }
        }
        // Ops in start order, so the exported ones are the earliest.
        let mut roots: Vec<(&TraceEvent, u128)> = by_trace
            .iter()
            .filter_map(|(id, evs)| {
                evs.iter()
                    .find(|e| e.track.index() == bench && e.name == OP)
                    .map(|root| (*root, *id))
            })
            .collect();
        roots.sort_by(|a, b| a.0.start_us.total_cmp(&b.0.start_us));
        let mut keep: HashSet<u128> = HashSet::new();
        for (root, trace_id) in roots {
            let evs = &by_trace[&trace_id];
            let root_span = root.ctx.expect("grouped by ctx").span_id;
            let mut child_sum: HashMap<u64, f64> = HashMap::new();
            for e in evs {
                let c = e.ctx.expect("grouped by ctx");
                *child_sum.entry(c.parent_span).or_default() += e.dur_us.unwrap_or(0.0);
            }
            for e in evs {
                let c = e.ctx.expect("grouped by ctx");
                let dur = e.dur_us.unwrap_or(0.0);
                let own = (dur - child_sum.get(&c.span_id).copied().unwrap_or(0.0)).max(0.0);
                *self.self_us.entry(layer_of(e, bench, &tracks)).or_default() += own;
            }
            self.ops += 1;
            self.op_us += root.dur_us.unwrap_or(0.0);
            self.children_us += child_sum.get(&root_span).copied().unwrap_or(0.0);
            if self.kept_ops < EXPORT_OPS {
                self.kept_ops += 1;
                keep.insert(trace_id);
            }
        }
        if self.exported.len() < 200_000 {
            // Keep the kept ops' spans, and every untagged event (the
            // executor's per-processor tracks) recorded alongside them.
            let any_kept = !keep.is_empty();
            self.exported
                .extend(events.into_iter().filter(|e| match e.ctx {
                    Some(c) => keep.contains(&c.trace_id),
                    None => any_kept,
                }));
        }
        self.tracks = tracks;
    }

    /// Mean self time per op of `layer`, milliseconds.
    pub fn self_ms(&self, layer: &str) -> f64 {
        self.self_us.get(layer).copied().unwrap_or(0.0) / 1e3 / self.ops.max(1) as f64
    }

    /// Reports the op root's own time and the unattributed share of op
    /// time (checked against the stage tolerance), writes the kept
    /// events as a Chrome trace, and turns tracing off.
    pub fn finish(self, args: &Args, r: &mut Report) {
        trace::set_enabled(false);
        let unattributed = if self.op_us > 0.0 {
            (self.op_us - self.children_us) / self.op_us * 100.0
        } else {
            0.0
        };
        r.set("bench.self_ms", self.self_ms("bench"));
        r.set("trace.unattributed_pct", unattributed);
        if self.ops == 0 || unattributed > STAGE_TOL_PCT {
            r.problem(format!(
                "stage spans leave {unattributed:.2}% of {} ops unattributed (tolerance {STAGE_TOL_PCT}%)",
                self.ops
            ));
        }
        let path = format!("{OUT_DIR}/{}-seed{}.trace.json", args.workload, args.seed);
        let body = hetgrid_obs::chrome::export(&self.tracks, &self.exported);
        match write_out(&path, &body) {
            Ok(()) => r.meta_str("chrome_trace", &path),
            Err(e) => eprintln!("hetbench: could not write {path}: {e}"),
        }
    }
}

/// The layer an event belongs to: the prefix of a benchmark span's
/// name (`core.solve` -> `core`), `bench` for the op root, and the
/// track for the program's own spans (`serve`, `serve-pool` -> `serve`).
fn layer_of(e: &TraceEvent, bench: usize, tracks: &[String]) -> String {
    if e.track.index() == bench {
        return e.name.split('.').next().unwrap_or("bench").to_string();
    }
    let track = tracks.get(e.track.index()).map_or("other", String::as_str);
    track.split('-').next().unwrap_or(track).to_string()
}
