//! The TCP phase: a query connection and an operator connection drive
//! the served system from two threads, and every reply is checked.

use std::io::Write as _;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use ftr_graph::{Graph, Node};
use ftr_serve::ingest::FaultEvent;
use ftr_serve::{proto, query, Client, EpochStore, ReplyLines};
use rand::rngs::SmallRng;
use rand::{Rng as _, SeedableRng as _};

use crate::spans::Spans;
use crate::workload::{Served, Workload, MAX_DOWN};
use crate::{mean, quantile};

/// How long a FAIL or REPAIR may take to become visible on the
/// operator connection before it counts as failed.
const VISIBLE_TIMEOUT: Duration = Duration::from_secs(5);

/// Pairs compared byte for byte with the in-process answer once churn
/// has stopped.
const ORACLE_PAIRS: usize = 256;

/// Seed streams, so the query pairs, the fault victims, the oracle
/// sample and the probe victims are independent draws from one
/// `--seed`.
pub const QUERY_STREAM: u64 = 1;
const OPERATOR_STREAM: u64 = 2;
const ORACLE_STREAM: u64 = 3;
const PROBE_STREAM: u64 = 5;

/// The generator of one seed stream.
pub fn stream(seed: u64, stream: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ (stream << 56))
}

/// A uniform ordered pair of distinct nodes.
pub fn pair(rng: &mut SmallRng, n: usize) -> (Node, Node) {
    let x = rng.gen_range(0..n);
    let mut y = rng.gen_range(0..n - 1);
    if y >= x {
        y += 1;
    }
    (x as Node, y as Node)
}

/// Draws the next burst of `depth` ROUTE pairs and frames them as
/// request lines.
pub fn next_burst(
    rng: &mut SmallRng,
    n: usize,
    depth: usize,
    pairs: &mut Vec<(Node, Node)>,
    bytes: &mut Vec<u8>,
) {
    pairs.clear();
    bytes.clear();
    for _ in 0..depth {
        let (x, y) = pair(rng, n);
        pairs.push((x, y));
        writeln!(bytes, "ROUTE {x} {y}").expect("writing to a Vec cannot fail");
    }
}

/// A stop flag whose waits end as soon as it is set.
pub struct Stop {
    set: Mutex<bool>,
    signal: Condvar,
}

impl Stop {
    pub fn new() -> Self {
        Stop {
            set: Mutex::new(false),
            signal: Condvar::new(),
        }
    }

    pub fn set(&self) {
        *self.set.lock().expect("stop flag poisoned") = true;
        self.signal.notify_all();
    }

    pub fn is_set(&self) -> bool {
        *self.set.lock().expect("stop flag poisoned")
    }

    /// Waits until `deadline` (forever when `None`) or until the flag is
    /// set; returns whether it is set.
    pub fn wait_until(&self, deadline: Option<Instant>) -> bool {
        let mut set = self.set.lock().expect("stop flag poisoned");
        loop {
            if *set {
                return true;
            }
            set = match deadline {
                None => self.signal.wait(set).expect("stop flag poisoned"),
                Some(deadline) => {
                    let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                        return false;
                    };
                    self.signal
                        .wait_timeout(set, left)
                        .expect("stop flag poisoned")
                        .0
                }
            };
        }
    }
}

/// Failed operations, with the first few reasons kept for the report.
#[derive(Default)]
pub struct Failures {
    pub count: u64,
    pub first: Vec<String>,
}

impl Failures {
    pub fn record(&mut self, why: String) {
        self.count += 1;
        if self.first.len() < 8 {
            self.first.push(why);
        }
    }

    pub fn merge(&mut self, other: Failures) {
        self.count += other.count;
        for why in other.first {
            if self.first.len() < 8 {
                self.first.push(why);
            }
        }
    }
}

/// What the operator connection knows about each node, in nanoseconds
/// since the phase began. The operator marks a node before it sends
/// FAIL or REPAIR and again once the change is visible, so a reader
/// that copies the clock after a burst completes can tell which nodes
/// may have been down, and which surely were, while the burst ran.
#[derive(Clone)]
pub struct FaultClock {
    /// When the node was last seen repaired; `NEVER` once a FAIL is sent.
    up_since: Vec<u64>,
    /// When the node was seen failed; `NEVER` while up or once a REPAIR
    /// is sent.
    down_since: Vec<u64>,
}

const NEVER: u64 = u64::MAX;

impl FaultClock {
    fn new(n: usize) -> Self {
        FaultClock {
            up_since: vec![0; n],
            down_since: vec![NEVER; n],
        }
    }

    /// Whether `v` may have been down at some instant since `t0`.
    fn maybe_down(&self, v: Node, t0: u64) -> bool {
        self.up_since[v as usize] > t0
    }

    /// Whether `v` was down all the time since `t0`.
    fn surely_down(&self, v: Node, t0: u64) -> bool {
        self.down_since[v as usize] <= t0
    }
}

/// Kinds of ROUTE reply.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum RouteKind {
    Direct,
    Detour,
    Unreachable,
}

/// Checks ROUTE replies against the served graph.
pub struct Checker {
    n: usize,
    words: usize,
    adjacency: Vec<u64>,
}

impl Checker {
    pub fn new(graph: &Graph) -> Self {
        let n = graph.node_count();
        let words = n.div_ceil(64);
        let mut adjacency = vec![0u64; n * words];
        for (u, v) in graph.edges() {
            let (u, v) = (u as usize, v as usize);
            adjacency[u * words + v / 64] |= 1 << (v % 64);
            adjacency[v * words + u / 64] |= 1 << (u % 64);
        }
        Checker {
            n,
            words,
            adjacency,
        }
    }

    fn edge(&self, u: Node, v: Node) -> bool {
        let (u, v) = (u as usize, v as usize);
        self.adjacency[u * self.words + v / 64] >> (v % 64) & 1 == 1
    }

    /// Checks one reply to `ROUTE x y` sent at `t0`: a DIRECT or DETOUR
    /// path runs from `x` to `y` along edges of the served graph and
    /// through no node that was down the whole time; UNREACHABLE only
    /// when an endpoint may have been down, since with at most
    /// [`MAX_DOWN`] faults the guarantee keeps the survivors connected.
    pub fn route(
        &self,
        reply: &[u8],
        x: Node,
        y: Node,
        clock: &FaultClock,
        t0: u64,
    ) -> Result<RouteKind, String> {
        let bad = |why: &str| {
            Err(format!(
                "ROUTE {x} {y}: {why}: {:?}",
                String::from_utf8_lossy(&reply[..reply.len().min(120)])
            ))
        };
        if reply == b"OK UNREACHABLE" {
            if clock.maybe_down(x, t0) || clock.maybe_down(y, t0) {
                return Ok(RouteKind::Unreachable);
            }
            return bad("unreachable although both endpoints were up");
        }
        let (kind, path) = if let Some(path) = reply.strip_prefix(b"OK DIRECT ") {
            (RouteKind::Direct, path)
        } else if let Some(path) = reply.strip_prefix(b"OK DETOUR ") {
            (RouteKind::Detour, path)
        } else {
            return bad("not a ROUTE reply");
        };
        let mut prev: Option<Node> = None;
        for token in path.split(|&b| b == b' ') {
            let Some(v) = parse_node(token).filter(|&v| (v as usize) < self.n) else {
                return bad("bad node in path");
            };
            match prev {
                None if v != x => return bad("path does not start at x"),
                Some(u) if !self.edge(u, v) => return bad("consecutive nodes are not adjacent"),
                _ => {}
            }
            if clock.surely_down(v, t0) {
                return bad("path crosses a node that was down");
            }
            prev = Some(v);
        }
        if prev != Some(y) {
            return bad("path does not end at y");
        }
        Ok(kind)
    }
}

fn parse_node(token: &[u8]) -> Option<Node> {
    if token.is_empty() || token.len() > 9 {
        return None;
    }
    let mut v: Node = 0;
    for &c in token {
        if !c.is_ascii_digit() {
            return None;
        }
        v = v * 10 + Node::from(c - b'0');
    }
    Some(v)
}

/// One burst on the query connection.
#[derive(Clone, Copy)]
pub struct Burst {
    /// Send time, nanoseconds since the phase began.
    pub start: u64,
    /// Round trip: send until the last reply arrived.
    pub rtt: u64,
}

/// What the query connection did.
#[derive(Default)]
pub struct QueryLog {
    pub bursts: Vec<Burst>,
    /// Replies by [`RouteKind`]: direct, detour, unreachable.
    pub kinds: [u64; 3],
    pub attempted: u64,
    pub failures: Failures,
}

/// A fault event or probe sent by the operator connection.
#[derive(Clone, Copy)]
pub enum OpKind {
    Event(FaultEvent),
    Diam,
    Tolerate,
}

/// What the operator connection did.
#[derive(Default)]
pub struct OperatorLog {
    /// FAIL sent until the first `OK UNREACHABLE` for the victim.
    pub fail_visible: Vec<u64>,
    pub diam: Vec<u64>,
    pub tolerate: Vec<u64>,
    /// Every event and probe with its send time, in order.
    pub ops: Vec<(u64, OpKind)>,
    pub ticks: u64,
    pub attempted: u64,
    pub failures: Failures,
}

/// Everything one phase measured.
pub struct Phase {
    pub query: QueryLog,
    pub operator: OperatorLog,
    /// The probe phase after churn.
    pub probes: OperatorLog,
    /// The measured window, nanoseconds since the phase began.
    pub window: (u64, u64),
    pub spans: Spans,
    /// The clients, still connected, for the final oracle.
    pub clients: (Client, Client),
}

/// ROUTE figures of a phase's measured window.
pub struct RouteStats {
    /// ROUTE replies per second in each one-second slice.
    pub slice_qps: Vec<f64>,
    /// Burst round-trip p50 and p90 of each one-second slice.
    pub slice_p50_ns: Vec<f64>,
    pub slice_p90_ns: Vec<f64>,
    pub qps: f64,
    pub p50_ns: f64,
    pub p90_ns: f64,
}

impl Phase {
    /// ROUTE replies per second over the window, and the p50 and p90
    /// burst round trip of each one-second slice averaged over the
    /// slices. The host's CPUs run fast or slow for a second or two at a
    /// time; averaging over time, a run's figure moves in proportion to
    /// how much of it ran slow, where a pooled or median figure jumps to
    /// whichever speed held most of the run.
    pub fn route_stats(&self, depth: usize) -> RouteStats {
        let (from, to) = self.window;
        let k = ((to - from) as f64 / 1e9).round().max(1.0) as usize;
        let len = (to - from) / k as u64;
        let mut rtts: Vec<Vec<f64>> = vec![Vec::new(); k];
        for b in self.window_bursts() {
            let i = (((b.start - from) / len) as usize).min(k - 1);
            rtts[i].push(b.rtt as f64);
        }
        let slice_qps: Vec<f64> = rtts
            .iter()
            .map(|r| (r.len() * depth) as f64 / (len as f64 / 1e9))
            .collect();
        let per_slice = |q: f64| -> Vec<f64> {
            rtts.iter()
                .filter(|r| !r.is_empty())
                .map(|r| quantile(r, q))
                .collect()
        };
        let (slice_p50_ns, slice_p90_ns) = (per_slice(0.5), per_slice(0.9));
        RouteStats {
            qps: mean(&slice_qps),
            p50_ns: mean(&slice_p50_ns),
            p90_ns: mean(&slice_p90_ns),
            slice_qps,
            slice_p50_ns,
            slice_p90_ns,
        }
    }

    /// Moves both loops' failures into `failures` and returns how many
    /// operations the loops sent.
    pub fn take_failures(&mut self, failures: &mut Failures) -> u64 {
        failures.merge(std::mem::take(&mut self.query.failures));
        failures.merge(std::mem::take(&mut self.operator.failures));
        failures.merge(std::mem::take(&mut self.probes.failures));
        self.query.attempted + self.operator.attempted + self.probes.attempted
    }

    /// Bursts that were sent and answered inside the measured window.
    pub fn window_bursts(&self) -> impl Iterator<Item = &Burst> + '_ {
        let (from, to) = self.window;
        self.query
            .bursts
            .iter()
            .filter(move |b| b.start >= from && b.start + b.rtt <= to)
    }
}

/// Shared between the two loops of one phase.
struct Shared<'a> {
    w: &'a Workload,
    checker: &'a Checker,
    clock: Mutex<FaultClock>,
    origin: Instant,
    /// Ends both loops.
    stop: Stop,
    n: usize,
}

impl Shared<'_> {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn clock(&self) -> std::sync::MutexGuard<'_, FaultClock> {
        self.clock.lock().expect("fault clock poisoned")
    }
}

/// Runs the query and operator loops for `warmup + measure`, stops
/// both, waits until every repair is visible, then runs the probe phase
/// on the operator connection alone. With `traced`, both loops and the
/// probes record spans.
pub fn run_phase(
    served: &Served,
    w: &Workload,
    checker: &Checker,
    seed: u64,
    warmup: Duration,
    measure: Duration,
    traced: bool,
) -> Result<Phase, String> {
    let addr = served.server.addr();
    let connect = || Client::connect(addr).map_err(|e| format!("connect: {e}"));
    let (mut query_client, mut op_client) = (connect()?, connect()?);
    let n = served.snapshot.node_count();
    let shared = Shared {
        w,
        checker,
        clock: Mutex::new(FaultClock::new(n)),
        origin: Instant::now(),
        stop: Stop::new(),
        n,
    };
    let end = shared.origin + warmup + measure;
    let (query, operator, mut spans) = std::thread::scope(|scope| {
        let query = scope.spawn(|| {
            let mut spans = Spans::new(traced);
            let log = query_loop(&shared, &mut query_client, seed, &mut spans);
            (log, spans)
        });
        let operator = scope.spawn(|| {
            let mut spans = Spans::new(traced);
            let log = operator_loop(
                &shared,
                &mut op_client,
                stream(seed, OPERATOR_STREAM),
                w.churn_hz,
                &mut spans,
            );
            (log, spans)
        });
        shared.stop.wait_until(Some(end));
        shared.stop.set();
        let (operator, op_spans) = operator.join().expect("operator thread panicked");
        let (query, mut spans) = query.join().expect("query thread panicked");
        spans.absorb(op_spans);
        (query, operator, spans)
    });
    let probes = probe_phase(
        &shared,
        &mut op_client,
        stream(seed, PROBE_STREAM),
        measure / 3,
        &mut spans,
    );
    Ok(Phase {
        query,
        operator,
        probes,
        window: (
            warmup.as_nanos() as u64,
            (warmup + measure).as_nanos() as u64,
        ),
        spans,
        clients: (query_client, op_client),
    })
}

/// The closed loop: send a burst, read every reply, check them, repeat.
fn query_loop(shared: &Shared, client: &mut Client, seed: u64, spans: &mut Spans) -> QueryLog {
    let w = shared.w;
    let mut rng = stream(seed, QUERY_STREAM);
    let mut log = QueryLog::default();
    let (mut pairs, mut bytes) = (Vec::new(), Vec::new());
    let mut replies = ReplyLines::new();
    let mut clock = FaultClock::new(shared.n);
    while !shared.stop.is_set() {
        next_burst(&mut rng, shared.n, w.depth, &mut pairs, &mut bytes);
        let t0 = shared.now();
        log.attempted += w.depth as u64;
        if let Err(e) = client.pipeline_raw(&bytes, w.depth, &mut replies) {
            log.failures.record(format!("query connection: {e}"));
            log.failures.count += w.depth as u64 - 1;
            break;
        }
        let t1 = shared.now();
        let burst = spans.record(0, "tcp.burst", t0, t1);
        log.bursts.push(Burst {
            start: t0,
            rtt: t1 - t0,
        });
        clock.clone_from(&shared.clock());
        for (reply, &(x, y)) in replies.iter().zip(&pairs) {
            match shared.checker.route(reply, x, y, &clock, t0) {
                Ok(kind) => log.kinds[kind as usize] += 1,
                Err(why) => log.failures.record(why),
            }
        }
        spans.record(burst, "client.check", t1, shared.now());
    }
    log
}

/// The operator loop: one FAIL or REPAIR per tick at `hz` (never more
/// than [`MAX_DOWN`] nodes down), and DIAM on its cadence. Each wait ends as soon as the stop flag is set; at `hz = 0`
/// it only waits for the flag. On stop, repairs every node still down
/// and waits until each repair is visible.
fn operator_loop(
    shared: &Shared,
    client: &mut Client,
    mut rng: SmallRng,
    hz: f64,
    spans: &mut Spans,
) -> OperatorLog {
    let w = shared.w;
    let mut log = OperatorLog::default();
    let mut down: Vec<Node> = Vec::new();
    let period = (hz > 0.0).then(|| Duration::from_secs_f64(1.0 / hz));
    let mut due = Instant::now();
    loop {
        let deadline = period.map(|_| due);
        if shared.stop.wait_until(deadline) {
            break;
        }
        let tick = log.ticks;
        log.ticks += 1;
        if down.len() < MAX_DOWN {
            let v = pick(&mut rng, shared.n, &down, None);
            let partner = pick(&mut rng, shared.n, &down, Some(v));
            fail(shared, client, v, partner, &mut log, spans);
            down.push(v);
        } else {
            let v = down.remove(0);
            let partner = pick(&mut rng, shared.n, &down, Some(v));
            repair(shared, client, v, partner, &mut log, spans);
        }
        if tick % w.diam_every == 0 {
            diam(shared, client, &mut log, spans);
        }
        if let Some(period) = period {
            due = (due + period).max(Instant::now());
        }
    }
    while !down.is_empty() {
        let v = down.remove(0);
        let partner = pick(&mut rng, shared.n, &down, Some(v));
        repair(shared, client, v, partner, &mut log, spans);
    }
    log
}

/// The probe phase, once both loops have stopped: the workload's
/// `probe_rounds` times, spread evenly over `span`, FAIL a seeded node,
/// send DIAM and the workload's TOLERATE once the fault is visible, then
/// REPAIR it. Each FAIL publishes a fresh epoch, so no probe is answered
/// from an epoch's memo, and every probe sees exactly one fault. No
/// ROUTE load runs beside the probes: on one CPU, a verb sharing it with
/// the query loop took as long as the scheduler's split of the CPU let
/// it. Spread out, the probes sample the host's fast and slow spells as
/// the measured window does. The phase always takes about `span`.
fn probe_phase(
    shared: &Shared,
    client: &mut Client,
    mut rng: SmallRng,
    span: Duration,
    spans: &mut Spans,
) -> OperatorLog {
    let mut log = OperatorLog::default();
    let rounds = shared.w.probe_rounds;
    let period = span / rounds.max(1) as u32;
    let mut due = Instant::now();
    for _ in 0..rounds {
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        due += period;
        let v = pick(&mut rng, shared.n, &[], None);
        let partner = pick(&mut rng, shared.n, &[], Some(v));
        fail(shared, client, v, partner, &mut log, spans);
        diam(shared, client, &mut log, spans);
        tolerate(shared, client, &mut log, spans);
        repair(shared, client, v, partner, &mut log, spans);
    }
    log
}

/// A node that is not down and not `other`.
fn pick(rng: &mut SmallRng, n: usize, down: &[Node], other: Option<Node>) -> Node {
    loop {
        let v = rng.gen_range(0..n) as Node;
        if !down.contains(&v) && Some(v) != other {
            return v;
        }
    }
}

/// Sends one request on the operator connection, timing the round trip.
fn request(
    shared: &Shared,
    client: &mut Client,
    line: &str,
    log: &mut OperatorLog,
) -> Result<(String, u64, u64), String> {
    log.attempted += 1;
    let t0 = shared.now();
    let reply = client
        .request(line)
        .map_err(|e| format!("{line}: operator connection: {e}"))?;
    Ok((reply, t0, shared.now()))
}

fn fail(
    shared: &Shared,
    client: &mut Client,
    v: Node,
    partner: Node,
    log: &mut OperatorLog,
    spans: &mut Spans,
) {
    shared.clock().up_since[v as usize] = NEVER;
    let sent = shared.now();
    log.ops.push((sent, OpKind::Event(FaultEvent::Fail(v))));
    match send_event(shared, client, &format!("FAIL {v}"), log)
        .and_then(|()| await_route(shared, client, v, partner, true, log))
    {
        Ok(visible) => {
            shared.clock().down_since[v as usize] = visible;
            log.fail_visible.push(visible - sent);
            spans.record(0, "op.fail", sent, visible);
        }
        Err(why) => log.failures.record(why),
    }
}

fn repair(
    shared: &Shared,
    client: &mut Client,
    v: Node,
    partner: Node,
    log: &mut OperatorLog,
    spans: &mut Spans,
) {
    shared.clock().down_since[v as usize] = NEVER;
    let sent = shared.now();
    log.ops.push((sent, OpKind::Event(FaultEvent::Repair(v))));
    match send_event(shared, client, &format!("REPAIR {v}"), log)
        .and_then(|()| await_route(shared, client, v, partner, false, log))
    {
        Ok(visible) => {
            shared.clock().up_since[v as usize] = visible;
            spans.record(0, "op.repair", sent, visible);
        }
        Err(why) => log.failures.record(why),
    }
}

fn send_event(
    shared: &Shared,
    client: &mut Client,
    line: &str,
    log: &mut OperatorLog,
) -> Result<(), String> {
    let (reply, ..) = request(shared, client, line, log)?;
    if reply == "OK QUEUED" {
        Ok(())
    } else {
        Err(format!("{line}: unexpected reply {reply:?}"))
    }
}

/// Polls `ROUTE v partner` until `v` shows as down (`want_down`) or up,
/// checking every reply; returns when the change became visible.
fn await_route(
    shared: &Shared,
    client: &mut Client,
    v: Node,
    partner: Node,
    want_down: bool,
    log: &mut OperatorLog,
) -> Result<u64, String> {
    let line = format!("ROUTE {v} {partner}");
    let started = Instant::now();
    loop {
        let (reply, t0, t1) = request(shared, client, &line, log)?;
        let clock = shared.clock().clone();
        let kind = shared
            .checker
            .route(reply.as_bytes(), v, partner, &clock, t0)?;
        if (kind == RouteKind::Unreachable) == want_down {
            return Ok(t1);
        }
        if started.elapsed() > VISIBLE_TIMEOUT {
            let what = if want_down { "FAIL" } else { "REPAIR" };
            return Err(format!("{what} {v} not visible after {VISIBLE_TIMEOUT:?}"));
        }
    }
}

fn diam(shared: &Shared, client: &mut Client, log: &mut OperatorLog, spans: &mut Spans) {
    log.ops.push((shared.now(), OpKind::Diam));
    let bound = shared.w.tolerate.0;
    match request(shared, client, "DIAM", log) {
        Ok((reply, t0, t1)) => {
            let d: Option<u32> = reply.strip_prefix("OK DIAM ").and_then(|d| d.parse().ok());
            if d.is_some_and(|d| d <= bound) {
                log.diam.push(t1 - t0);
                spans.record(0, "op.diam", t0, t1);
            } else {
                log.failures
                    .record(format!("DIAM: {reply:?} breaks the diameter bound {bound}"));
            }
        }
        Err(why) => log.failures.record(why),
    }
}

fn tolerate(shared: &Shared, client: &mut Client, log: &mut OperatorLog, spans: &mut Spans) {
    log.ops.push((shared.now(), OpKind::Tolerate));
    let (d, f) = shared.w.tolerate;
    let line = format!("TOLERATE {d} {f}");
    match request(shared, client, &line, log) {
        Ok((reply, t0, t1)) => {
            if reply.starts_with("OK TOLERATE yes") {
                log.tolerate.push(t1 - t0);
                spans.record(0, "op.tolerate", t0, t1);
            } else {
                log.failures.record(format!(
                    "{line}: {reply:?}, but at most {MAX_DOWN} nodes are down"
                ));
            }
        }
        Err(why) => log.failures.record(why),
    }
}

/// Quits both connections of a phase.
pub fn close(clients: (Client, Client)) -> Result<(), String> {
    clients.0.quit().map_err(|e| format!("quit: {e}"))?;
    clients.1.quit().map_err(|e| format!("quit: {e}"))
}

/// After churn: the server must report no faults, and a seeded sample
/// of ROUTE replies must equal, byte for byte, the in-process answer
/// at the fault-free epoch. Returns `(attempted, failures)`.
pub fn final_oracle(served: &Served, clients: &mut (Client, Client), seed: u64) -> (u64, Failures) {
    let mut failures = Failures::default();
    let (query_client, op_client) = clients;
    let mut attempted = 1;
    match op_client.request("EPOCH") {
        Ok(reply) if reply.ends_with(" faults=-") => {}
        Ok(reply) => failures.record(format!("EPOCH after the last repair: {reply:?}")),
        Err(e) => failures.record(format!("EPOCH: {e}")),
    }
    let snapshot = &served.snapshot;
    let n = snapshot.node_count();
    let pristine = EpochStore::new(&snapshot.engine().epoch_state()).load();
    let mut rng = stream(seed, ORACLE_STREAM);
    let (mut pairs, mut bytes) = (Vec::new(), Vec::new());
    next_burst(&mut rng, n, ORACLE_PAIRS, &mut pairs, &mut bytes);
    attempted += ORACLE_PAIRS as u64;
    let mut replies = ReplyLines::new();
    if let Err(e) = query_client.pipeline_raw(&bytes, ORACLE_PAIRS, &mut replies) {
        failures.record(format!("oracle burst: {e}"));
        failures.count += ORACLE_PAIRS as u64 - 1;
        return (attempted, failures);
    }
    for (reply, &(x, y)) in replies.iter().zip(&pairs) {
        let expected = match query::route(snapshot, &pristine, x, y) {
            Ok(answer) => proto::render_route(&answer),
            Err(e) => format!("ERR {e}"),
        };
        if reply != expected.as_bytes() {
            failures.record(format!(
                "ROUTE {x} {y} after churn: {:?}, in-process {expected:?}",
                String::from_utf8_lossy(reply)
            ));
        }
    }
    (attempted, failures)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload;

    /// The operator loop's waits end promptly at the stop flag, at a
    /// tick rate of 0 (no tick ever due) and at a slow one.
    #[test]
    fn operator_loop_stops_within_a_tick_at_any_rate() {
        let w = workload::find("hot-h24").expect("workload exists");
        let (served, _) = workload::set_up(w, 1, Duration::ZERO).expect("set-up");
        let checker = Checker::new(served.snapshot.graph());
        for hz in [0.0, 0.5, 20.0] {
            let mut client = Client::connect(served.server.addr()).expect("connect");
            let n = served.snapshot.node_count();
            let shared = Shared {
                w,
                checker: &checker,
                clock: Mutex::new(FaultClock::new(n)),
                origin: Instant::now(),
                stop: Stop::new(),
                n,
            };
            let stopped_after = std::thread::scope(|scope| {
                let op = scope.spawn(|| {
                    let mut spans = Spans::new(false);
                    operator_loop(
                        &shared,
                        &mut client,
                        stream(1, OPERATOR_STREAM),
                        hz,
                        &mut spans,
                    )
                });
                std::thread::sleep(Duration::from_millis(100));
                shared.stop.set();
                let stopped = Instant::now();
                let log = op.join().expect("operator thread");
                assert_eq!(log.failures.count, 0, "{:?}", log.failures.first);
                stopped.elapsed()
            });
            // One tick at 20 Hz is 50 ms; at 0 and 0.5 Hz the loop is
            // waiting when the flag is set, so it must return at once
            // (the final repairs take well under a millisecond here).
            assert!(
                stopped_after < Duration::from_millis(50),
                "hz={hz}: the loop took {stopped_after:?} to stop"
            );
            client.quit().expect("quit");
        }
        served.server.shutdown_and_join().expect("clean shutdown");
    }

    #[test]
    fn checker_accepts_paths_and_rejects_bad_ones() {
        let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]).expect("graph");
        let checker = Checker::new(&g);
        let mut clock = FaultClock::new(4);
        assert!(checker.route(b"OK DIRECT 0 1 2", 0, 2, &clock, 10).is_ok());
        assert!(checker
            .route(b"OK DETOUR 0 1 2 3", 0, 3, &clock, 10)
            .is_ok());
        assert!(checker.route(b"OK DIRECT 0 2", 0, 2, &clock, 10).is_err());
        assert!(checker.route(b"OK DIRECT 1 2", 0, 2, &clock, 10).is_err());
        assert!(checker.route(b"OK DIRECT 0 1", 0, 2, &clock, 10).is_err());
        assert!(checker.route(b"ERR nope", 0, 2, &clock, 10).is_err());
        assert!(checker.route(b"OK UNREACHABLE", 0, 2, &clock, 10).is_err());
        // Node 1 failed at 5 and was visible at 8: down all of [10, now].
        clock.up_since[1] = NEVER;
        clock.down_since[1] = 8;
        assert!(checker.route(b"OK DIRECT 0 1 2", 0, 2, &clock, 10).is_err());
        assert!(checker.route(b"OK UNREACHABLE", 1, 3, &clock, 10).is_ok());
        // Repaired and visible at 12: it may have been down at 10.
        clock.up_since[1] = 12;
        clock.down_since[1] = NEVER;
        assert!(checker.route(b"OK UNREACHABLE", 1, 3, &clock, 10).is_ok());
        assert!(checker.route(b"OK UNREACHABLE", 1, 3, &clock, 20).is_err());
    }
}
