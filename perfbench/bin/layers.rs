//! The traced run: the TCP phase again with client-side spans, then
//! the same seeded requests and fault events replayed in-process
//! through each layer's public functions, timed from here.

use std::path::Path;
use std::time::{Duration, Instant};

use ftr_serve::ingest::FaultEvent;
use ftr_serve::proto::{self, Request};
use ftr_serve::{query, EpochStore, Ingestor, ServerConfig};

use crate::drive::{
    self, next_burst, pair, stream, Checker, Failures, OpKind, Phase, QUERY_STREAM,
};
use crate::spans::Spans;
use crate::workload::{Served, Workload, MAX_DOWN};
use crate::{ratio, Metric};

/// Pairs timed through `query::route` and `proto::render_route`.
const COLD_PAIRS: usize = 256;
const COLD_STREAM: u64 = 4;
/// Every this many replayed bursts, the burst is answered a second
/// time from the now-warm epoch cache.
const WARM_EVERY: usize = 8;
/// Server stages scraped from `METRICS`, as the flight recorder names them.
const STAGES: [&str; 5] = ["decode", "cache", "engine", "serialize", "write"];

/// Time and call count of one layer function.
#[derive(Default)]
struct Timer {
    ns: u64,
    calls: u64,
}

impl Timer {
    /// Times `f`, counting it as `calls` calls.
    fn time<T>(&mut self, calls: u64, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.ns += start.elapsed().as_nanos() as u64;
        self.calls += calls;
        out
    }

    /// Mean per call in `unit_ns`-nanosecond units.
    fn mean(&self, unit_ns: f64) -> f64 {
        ratio(self.ns as f64 / unit_ns, self.calls as f64)
    }
}

/// Runs the traced run and returns the per-layer metrics, the
/// operations sent and the failures seen.
pub fn traced_run(
    served: &Served,
    w: &Workload,
    checker: &Checker,
    seed: u64,
    seconds: f64,
    warmup: Duration,
) -> Result<(Vec<Metric>, u64, Failures), String> {
    let half = Duration::from_secs_f64(seconds / 2.0);
    let mut attempted = 0;
    let mut failures = Failures::default();

    // The same TCP phase untraced, then traced, so the run reports what
    // its own spans cost.
    let mut plain = drive::run_phase(served, w, checker, seed, warmup, half, false)?;
    attempted += plain.take_failures(&mut failures);
    let (sent, failed) = drive::final_oracle(served, &mut plain.clients, seed);
    attempted += sent;
    failures.merge(failed);
    let plain_qps = plain.route_stats(w.depth).qps;
    drive::close(plain.clients)?;

    let mut traced = drive::run_phase(served, w, checker, seed, warmup, half, true)?;
    attempted += traced.take_failures(&mut failures);
    let stats = traced.route_stats(w.depth);
    let (traced_qps, traced_p50_us) = (stats.qps, stats.p50_ns / 1e3);
    if traced.window_bursts().next().is_none() {
        failures.record("no ROUTE burst was timed in the traced phase".into());
    }
    attempted += 1;
    let stages = match traced.clients.1.metrics() {
        Ok(text) => stage_p50s(&text),
        Err(e) => {
            failures.record(format!("METRICS: {e}"));
            [0.0; STAGES.len()]
        }
    };
    let (sent, failed) = drive::final_oracle(served, &mut traced.clients, seed);
    attempted += sent;
    failures.merge(failed);

    let mut spans = std::mem::replace(&mut traced.spans, Spans::new(true));
    let mut metrics = Vec::new();
    let layers = replay(served, w, seed, &traced, half, &mut spans, &mut failures);
    drive::close(traced.clients)?;

    let depth = w.depth as f64;
    let layer_us = depth * (layers.parse.mean(1.0) + layers.batch.mean(1.0)) / 1e3;
    let residual_us = traced_p50_us - layer_us;
    let replies = layers.batch.calls as f64;
    let mut push = |name: &str, value: f64, unit: &'static str| {
        metrics.push(Metric::new(name, value, unit));
    };
    push("proto.parse_ns", layers.parse.mean(1.0), "ns");
    push("proto.parse_calls", layers.parse.calls as f64, "count");
    push("proto.render_ns", layers.render.mean(1.0), "ns");
    push("proto.render_calls", layers.render.calls as f64, "count");
    push(
        "proto.reply_bytes",
        ratio(layers.reply_bytes as f64, replies),
        "bytes",
    );
    push(
        "epoch.cache_hit_share",
        ratio(layers.hits as f64, replies),
        "share",
    );
    push("epoch.hit_ns", layers.warm.mean(1.0), "ns");
    push("epoch.hit_calls", layers.warm.calls as f64, "count");
    push("epoch.publish_us", layers.publish.mean(1e3), "us");
    push("epoch.publish_calls", layers.publish.calls as f64, "count");
    push("epoch.diameter_us", layers.diameter.mean(1e3), "us");
    push(
        "epoch.diameter_calls",
        layers.diameter.calls as f64,
        "count",
    );
    push("query.route_miss_us", layers.route.mean(1e3), "us");
    push("query.route_miss_calls", layers.route.calls as f64, "count");
    push(
        "query.detour_share",
        ratio(layers.detours as f64, replies),
        "share",
    );
    push("query.route_batch_ns", layers.batch.mean(1.0), "ns");
    push("query.route_batch_calls", replies, "count");
    push("ingest.apply_batch_us", layers.apply.mean(1e3), "us");
    push(
        "ingest.apply_batch_calls",
        layers.apply.calls as f64,
        "count",
    );
    push("ingest.toggle_us", layers.toggle.mean(1e3), "us");
    push("ingest.toggle_calls", layers.toggle.calls as f64, "count");
    push(
        "ingest.effective_share",
        ratio(layers.effective as f64, layers.apply.calls as f64),
        "share",
    );
    push("audit.tolerate_ms", layers.tolerate.mean(1e6), "ms");
    push(
        "audit.tolerate_calls",
        layers.tolerate.calls as f64,
        "count",
    );
    push(
        "audit.sets_visited",
        ratio(layers.sets as f64, layers.tolerate.calls as f64),
        "count",
    );
    push(
        "audit.pruned_share",
        ratio(layers.pruned as f64, (layers.pruned + layers.sets) as f64),
        "share",
    );
    push("server.residual_us", residual_us, "us");
    for (stage, p50) in STAGES.iter().zip(stages) {
        push(&format!("server.stage.{stage}_us"), p50, "us");
    }
    push("trace.route_p50_us", traced_p50_us, "us");
    push("trace.route_qps", traced_qps, "1/s");
    push("trace.untraced_route_qps", plain_qps, "1/s");
    push(
        "trace.overhead_share",
        1.0 - ratio(traced_qps, plain_qps),
        "share",
    );
    push("trace.spans", spans.len() as f64, "count");

    let dir = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/traces"));
    let path = dir.join(format!("{}-seed{seed}.tsv", w.name));
    spans
        .write(
            &path,
            &format!(
                "perfbench spans: workload={} seed={seed}; tcp.*/client.*/op.* times count from \
                 the traced TCP phase start, replay.* and layer spans from the replay start",
                w.name
            ),
        )
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok((metrics, attempted, failures))
}

/// The `quantile="0.5"` value of each stage's `ftr_stage_seconds`
/// summary, in microseconds.
fn stage_p50s(text: &str) -> [f64; STAGES.len()] {
    let mut out = [0.0; STAGES.len()];
    for (slot, stage) in out.iter_mut().zip(STAGES) {
        let key = format!("ftr_stage_seconds{{stage=\"{stage}\",quantile=\"0.5\"}} ");
        if let Some(v) = text
            .lines()
            .find_map(|l| l.strip_prefix(&key))
            .and_then(|v| v.trim().parse::<f64>().ok())
        {
            *slot = v * 1e6;
        }
    }
    out
}

/// Per-layer tallies of the replay.
#[derive(Default)]
struct Layers {
    parse: Timer,
    batch: Timer,
    warm: Timer,
    render: Timer,
    route: Timer,
    apply: Timer,
    toggle: Timer,
    publish: Timer,
    diameter: Timer,
    tolerate: Timer,
    hits: u64,
    detours: u64,
    reply_bytes: u64,
    effective: u64,
    sets: u64,
    pruned: u64,
}

/// Replays the traced phase in-process: the same seeded bursts through
/// `proto::parse_request` and `query::route_batch`, and its fault events
/// and probes at the burst positions they had over TCP, through an
/// `Ingestor`/`EpochStore` pair, `EpochState`, `Epoch::diameter` and
/// `query::tolerate`; then the probe phase's events and probes.
/// Stops replaying bursts after `budget`.
fn replay(
    served: &Served,
    w: &Workload,
    seed: u64,
    phase: &Phase,
    budget: Duration,
    spans: &mut Spans,
    failures: &mut Failures,
) -> Layers {
    let snapshot = &served.snapshot;
    let engine = snapshot.engine();
    let n = snapshot.node_count();
    let store = EpochStore::new(&engine.epoch_state());
    let mut ingestor = Ingestor::new(engine, store.clone());
    let mut state = engine.epoch_state();
    let mirror = EpochStore::new(&state);
    let tolerate_budget = ServerConfig::default().tolerate_budget;
    let mut layers = Layers::default();

    let origin = Instant::now();
    let now = || origin.elapsed().as_nanos() as u64;
    let mut replay_op = |op: OpKind,
                         layers: &mut Layers,
                         spans: &mut Spans,
                         failures: &mut Failures| {
        let t0 = now();
        match op {
            OpKind::Event(event) => {
                let applied = layers.apply.time(1, || ingestor.apply_batch(&[event]));
                layers.effective += applied as u64;
                let t1 = now();
                layers.toggle.time(1, || match event {
                    FaultEvent::Fail(v) => state.insert(engine, v),
                    FaultEvent::Repair(v) => state.remove(engine, v),
                });
                layers.publish.time(1, || mirror.publish(&state));
                spans.record(0, "ingest.apply_batch", t0, t1);
                spans.record(0, "ingest.toggle_publish", t1, now());
            }
            OpKind::Diam => {
                // A fresh epoch, so the memoized diameter is measured.
                let epoch = EpochStore::new(&state).load();
                let t0 = now();
                layers.diameter.time(1, || epoch.diameter());
                spans.record(0, "epoch.diameter", t0, now());
            }
            OpKind::Tolerate => {
                let epoch = store.load();
                let (d, f) = w.tolerate;
                let answer = layers.tolerate.time(1, || {
                    query::tolerate(snapshot, &epoch, d, f, tolerate_budget)
                });
                match answer {
                    Ok(a) if a.holds => {
                        layers.sets += a.sets;
                        layers.pruned += a.pruned;
                    }
                    other => failures.record(format!(
                        "in-process TOLERATE {d} {f}: {other:?}, but at most {MAX_DOWN} nodes are down"
                    )),
                }
                spans.record(0, "audit.tolerate", t0, now());
            }
        }
    };

    let starts: Vec<u64> = phase.query.bursts.iter().map(|b| b.start).collect();
    let ops: Vec<(usize, OpKind)> = phase
        .operator
        .ops
        .iter()
        .map(|&(at, op)| (starts.partition_point(|&s| s < at), op))
        .collect();
    let deadline = origin + budget;
    let mut rng = stream(seed, QUERY_STREAM);
    let (mut pairs, mut bytes) = (Vec::new(), Vec::new());
    let mut next_op = 0;
    let mut cold_epoch = None;
    for i in 0..=starts.len() {
        while let Some(&(_, op)) = ops.get(next_op).filter(|(at, _)| *at <= i) {
            next_op += 1;
            replay_op(op, &mut layers, spans, failures);
            if next_op == ops.len() / 2 {
                cold_epoch = Some(store.load());
            }
        }
        if i == starts.len() || Instant::now() >= deadline {
            break;
        }
        next_burst(&mut rng, n, w.depth, &mut pairs, &mut bytes);
        let epoch = store.load();
        let t0 = now();
        let parsed_ok = layers.parse.time(w.depth as u64, || {
            let mut ok = true;
            for (line, &(x, y)) in bytes.split(|&b| b == b'\n').zip(&pairs) {
                let line = std::str::from_utf8(line).unwrap_or("");
                ok &= proto::parse_request(line) == Ok(Request::Route { x, y });
            }
            ok
        });
        if !parsed_ok {
            failures.record("in-process parse_request disagrees with the framed burst".into());
        }
        let t1 = now();
        let (hits, detours, reply_bytes) = (
            &mut layers.hits,
            &mut layers.detours,
            &mut layers.reply_bytes,
        );
        layers.batch.time(w.depth as u64, || {
            query::route_batch(snapshot, &epoch, &pairs, |_, reply, hit| {
                *hits += u64::from(hit);
                *detours += u64::from(reply.starts_with("OK DETOUR"));
                *reply_bytes += reply.len() as u64 + 1;
            })
        });
        let t2 = now();
        let burst = spans.record(0, "replay.burst", t0, t2);
        spans.record(burst, "proto.parse_request", t0, t1);
        spans.record(burst, "query.route_batch", t1, t2);
        if i % WARM_EVERY == 0 {
            let mut warm = 0u64;
            layers.warm.time(w.depth as u64, || {
                query::route_batch(snapshot, &epoch, &pairs, |_, _, hit| warm += u64::from(hit))
            });
            if warm != w.depth as u64 {
                failures.record(format!(
                    "warm route_batch hit {warm} of {} cached pairs",
                    w.depth
                ));
            }
            spans.record(0, "epoch.warm_route_batch", t2, now());
        }
    }

    // Past the budget, the remaining fault events still run, so the
    // replay ends fault-free as the phase did; then the probe phase.
    for &(_, op) in &ops[next_op..] {
        if let OpKind::Event(_) = op {
            replay_op(op, &mut layers, spans, failures);
        }
    }
    for &(_, op) in &phase.probes.ops {
        replay_op(op, &mut layers, spans, failures);
    }

    // query::route and proto::render_route on an epoch from mid-replay,
    // so the routes see the faults the traffic saw.
    let epoch = cold_epoch.unwrap_or_else(|| store.load());
    let mut rng = stream(seed, COLD_STREAM);
    for _ in 0..COLD_PAIRS {
        let (x, y) = pair(&mut rng, n);
        let t0 = now();
        let answer = layers
            .route
            .time(1, || query::route(snapshot, &epoch, x, y));
        let t1 = now();
        match answer {
            Ok(answer) => {
                layers.render.time(1, || proto::render_route(&answer));
            }
            Err(e) => failures.record(format!("in-process ROUTE {x} {y}: {e}")),
        }
        spans.record(0, "query.route", t0, t1);
        spans.record(0, "proto.render_route", t1, now());
    }
    layers
}
