//! The workloads and the set-up of the served system they run against.

use std::sync::Arc;
use std::time::{Duration, Instant};

use ftr_core::{Guarantee, SchemeRegistry, SchemeSpec};
use ftr_graph::spec::parse_graph_spec;
use ftr_serve::{Client, RoutingSnapshot, Server, ServerConfig, SpawnedServer};

/// Most nodes the operator connection keeps down at once. Every graph
/// here is served by a scheme tolerating at least three faults, so each
/// reply can be held to the paper's guarantee.
pub const MAX_DOWN: usize = 2;

/// One traffic mix. Both connections and every probe are fixed here;
/// only the seed varies between runs.
pub struct Workload {
    pub name: &'static str,
    /// Graph spec in the `ftr_graph::spec` grammar.
    pub graph: &'static str,
    pub scheme: &'static str,
    /// ROUTE requests per pipelined burst on the query connection.
    pub depth: usize,
    /// Operator ticks per second; each tick sends one FAIL or REPAIR.
    pub churn_hz: f64,
    /// A DIAM probe every this many ticks.
    pub diam_every: u64,
    /// The `(d, f)` of the `TOLERATE d f` the probe phase after churn
    /// sends (see `drive::probe_phase`): `d` is the scheme's diameter
    /// bound and `MAX_DOWN + f` stays within its fault budget, so `yes`
    /// is the only correct answer.
    pub tolerate: (u32, usize),
    /// Rounds of the probe phase after churn, which times DIAM and
    /// TOLERATE: enough that their median holds through the host's
    /// short slow spells.
    pub probe_rounds: usize,
    pub why: &'static str,
}

/// The benchmark's workloads. One stresses the per-request fixed cost
/// (cache hits), the other the ROUTE miss path with writes beside reads.
pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "hot-h24",
        graph: "harary:5,24",
        scheme: "kernel",
        depth: 256,
        churn_hz: 20.0,
        diam_every: 20,
        tolerate: (8, 2),
        probe_rounds: 300,
        why: "harary(5,24), ~99% cache hits: the per-request fixed cost (decode, cache hit, serialize, write) dominates; the engine is idle",
    },
    Workload {
        name: "churn-h256",
        graph: "harary:4,256",
        scheme: "kernel",
        depth: 64,
        churn_hz: 200.0,
        diam_every: 20,
        tolerate: (6, 1),
        probe_rounds: 80,
        why: "harary(4,256), 200 Hz FAIL/REPAIR empties the cache each epoch: ROUTE miss path, ingest, publish, DIAM; stands in for cold-h1024, dropped as unsteady",
    },
];

/// Workloads of the benchmark's design left out of it: name, graph and
/// why.
const DROPPED: [(&str, &str, &str); 1] = [(
    "cold-h1024",
    "harary:4,1024",
    "the ROUTE miss path at n=1024 (~0% hits, ~99% detours, ~1.8 KB replies); dropped because on a 2-vCPU \
     shared host its speed swings ~1.5x between runs and from one minute to the next, so ten seeded runs \
     spread 24-26% in route_qps and route_p50_us, past the 0.25 bound; churn-h256 runs the same miss path \
     at n=256",
)];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The served system: snapshot, running server and its guarantee.
pub struct Served {
    pub snapshot: Arc<RoutingSnapshot>,
    pub guarantee: Guarantee,
    pub server: SpawnedServer,
}

/// Seconds spent in each set-up step.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    /// `SchemeRegistry::build_spec`.
    pub build: f64,
    /// `RoutingSnapshot::from_built`.
    pub snapshot: f64,
    /// `Server::bind` and `spawn` until the first PING is answered.
    pub bind: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.build + self.snapshot + self.bind
    }
}

/// Builds the workload's scheme, snapshots it and serves it on
/// `ServerConfig::default()`, timing each step.
fn set_up_once(w: &Workload) -> Result<(Served, SetupTimes), String> {
    let (graph, _) = parse_graph_spec(w.graph)?;
    let started = Instant::now();
    let built = SchemeRegistry::standard()
        .build_spec(&graph, &SchemeSpec::named(w.scheme))
        .map_err(|e| format!("build {}: {e}", w.scheme))?;
    let built_at = Instant::now();
    let guarantee = *built.guarantee();
    let snapshot = RoutingSnapshot::from_built(built)
        .map_err(|e| format!("snapshot: {e}"))?
        .into_shared();
    let snapshot_at = Instant::now();
    let server = Server::bind(Arc::clone(&snapshot), ServerConfig::default())
        .map_err(|e| format!("bind: {e}"))?
        .spawn();
    let mut client = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    let pong = client.ping().map_err(|e| format!("ping: {e}"))?;
    let ready_at = Instant::now();
    if !pong {
        return Err("PING was not answered with OK PONG".into());
    }
    client.quit().map_err(|e| format!("quit: {e}"))?;
    let times = SetupTimes {
        build: (built_at - started).as_secs_f64(),
        snapshot: (snapshot_at - built_at).as_secs_f64(),
        bind: (ready_at - snapshot_at).as_secs_f64(),
    };
    let (d, f) = (guarantee.diameter, guarantee.faults);
    if d != w.tolerate.0 || MAX_DOWN + w.tolerate.1 > f {
        return Err(format!(
            "{} serves a ({d}, {f}) guarantee; the workload's TOLERATE {} {} probe needs d = {} and {MAX_DOWN} + f <= {f}",
            w.name, w.tolerate.0, w.tolerate.1, w.tolerate.0
        ));
    }
    Ok((
        Served {
            snapshot,
            guarantee,
            server,
        },
        times,
    ))
}

/// Cap on set-up repetitions in one run.
const MAX_SETUP_REPS: usize = 41;

/// Sets the system up at least `min_reps` times and until `budget` has
/// passed (at most [`MAX_SETUP_REPS`]), keeping the last server running.
/// Returns it with the times of every repetition.
pub fn set_up(
    w: &Workload,
    min_reps: usize,
    budget: Duration,
) -> Result<(Served, Vec<SetupTimes>), String> {
    let started = Instant::now();
    let mut times = Vec::new();
    loop {
        let (served, t) = set_up_once(w)?;
        times.push(t);
        let enough = times.len() >= min_reps.max(1) && started.elapsed() >= budget;
        if enough || times.len() >= MAX_SETUP_REPS {
            return Ok((served, times));
        }
        served
            .server
            .shutdown_and_join()
            .map_err(|e| format!("unclean shutdown after set-up: {e}"))?;
    }
}

/// The workload table as JSON: every descriptor field plus its reason,
/// and which end-to-end metric each layer's metrics should move.
pub fn descriptors_json() -> String {
    let mut out = String::from("{\n  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let n = w.graph.rsplit(',').next().unwrap_or("?");
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"graph\": \"{}\", \"scheme\": \"{}\", \"n\": {n}, \
             \"query_loop\": \"closed loop, pipelined ROUTE bursts\", \"depth\": {}, \
             \"operator_loop\": \"FAIL/REPAIR ticks, at most {MAX_DOWN} nodes down\", \
             \"churn_hz\": {}, \"diam_every_ticks\": {}, \
             \"probe_phase\": \"{} x (FAIL, DIAM, TOLERATE {} {}, REPAIR) spread over a third of the window after churn, without ROUTE load\", \
             \"threads\": 2, \"connections\": 2, \"cpus\": 1, \
             \"server\": \"ServerConfig::default()\", \"why\": \"{}\"}}{}\n",
            w.name,
            w.graph,
            w.scheme,
            w.depth,
            w.churn_hz,
            w.diam_every,
            w.probe_rounds,
            w.tolerate.0,
            w.tolerate.1,
            w.why,
            if i + 1 < WORKLOADS.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n  \"dropped\": [\n");
    for (i, (name, graph, why)) in DROPPED.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{name}\", \"graph\": \"{graph}\", \"why\": \"{why}\"}}{}\n",
            if i + 1 < DROPPED.len() { "," } else { "" },
        ));
    }
    out.push_str("  ],\n  \"predictions\": [\n");
    for (i, (layer, metrics, moves, flat)) in PREDICTIONS.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"layer\": \"{layer}\", \"metrics\": \"{metrics}\", \"moves\": \"{moves}\", \"flat_on\": \"{flat}\"}}{}\n",
            if i + 1 < PREDICTIONS.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

/// Layer, its per-layer metrics, the end-to-end metric and workload it
/// should move, and where it should not move anything.
const PREDICTIONS: [(&str, &str, &str, &str); 7] = [
    (
        "setup (ftr_core scheme, ftr_serve snapshot, server bind)",
        "setup.build_s setup.snapshot_s setup.bind_s",
        "setup_s on churn-h256",
        "hot-h24",
    ),
    (
        "proto (ftr_serve::proto)",
        "proto.parse_ns proto.render_ns proto.reply_bytes",
        "route_qps, route_p50_us on hot-h24; render also on churn-h256",
        "-",
    ),
    (
        "epoch (QueryCache, EpochStore, Epoch)",
        "epoch.cache_hit_share epoch.hit_ns epoch.publish_us epoch.diameter_us",
        "hit metrics: route_qps on hot-h24; publish: fail_visible_p50_us on churn-h256; diameter: diam_p50_us on churn-h256",
        "hit metrics on churn-h256",
    ),
    (
        "query (ftr_serve::query)",
        "query.route_miss_us query.detour_share query.route_batch_ns",
        "route_qps, route_p50_us on churn-h256",
        "hot-h24",
    ),
    (
        "ingest (Ingestor, ftr_core::EpochState)",
        "ingest.apply_batch_us ingest.toggle_us ingest.effective_share",
        "fail_visible_p50_us on churn-h256",
        "route_qps on hot-h24",
    ),
    (
        "audit (ftr_audit via query::tolerate)",
        "audit.tolerate_ms audit.sets_visited audit.pruned_share",
        "tolerate_p50_ms on every workload (probe phase)",
        "route metrics on every workload (no TOLERATE in the measured window)",
    ),
    (
        "server (poll loop, framing, loopback)",
        "server.residual_us server.stage.*_us",
        "route_p50_us on hot-h24",
        "-",
    ),
];
