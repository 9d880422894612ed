//! `perfbench` — the repository's benchmark of the served system.
//!
//! ```text
//! perfbench --workload <hot-h24|churn-h256> [--seed N] [--seconds S] [--trace 0|1]
//! perfbench --describe
//! ```
//!
//! The process first pins itself to one CPU (see [`pin_to_one_cpu`]).
//! Each run builds the workload's kernel routing, serves it in-process
//! on `ServerConfig::default()` (metrics and spans on) and drives it
//! over loopback TCP from two threads with one connection each: a query
//! connection sending pipelined ROUTE bursts in a closed loop, and an
//! operator connection sending FAIL/REPAIR at a fixed tick rate (never
//! more than two nodes down) plus DIAM probes. Once both stop, a probe
//! phase times DIAM and TOLERATE on fresh one-fault epochs. Every reply is checked; at the end, a seeded sample of ROUTE
//! replies must equal the in-process answer byte for byte.
//!
//! With `--trace 0` the run prints the end-to-end metrics; with
//! `--trace 1` it runs the traced run of [`layers`] and prints the
//! per-layer metrics instead. Every metric is printed as
//! `metric <name> <value> <unit>`, and the last line is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. The exit code is
//! nonzero when any operation failed or any check did not hold.
//! `--describe` prints the workload descriptors kept in
//! `workloads.json`.
//!
//! Run it from the repository root with
//! `cargo run --release --manifest-path perfbench/Cargo.toml -- --workload hot-h24`,
//! and its self-tests with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

mod drive;
mod layers;
mod spans;
mod workload;

use std::process::ExitCode;
use std::time::Duration;

use drive::{Checker, Failures};
use workload::{Workload, MAX_DOWN};

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The nearest-rank `q` quantile of `values` (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The arithmetic mean of `values` (0 when empty).
pub fn mean(values: &[f64]) -> f64 {
    ratio(values.iter().sum(), values.len() as f64)
}

/// Samples per group in [`timed_p50`].
const P50_GROUP: usize = 8;

/// The median of each run of [`P50_GROUP`] consecutive samples,
/// averaged over the runs (a trailing partial run is dropped; with
/// fewer samples than one run, the median of them all). Like the ROUTE
/// figures, it follows the share of samples taken while the host ran
/// slow instead of jumping between its fast and slow speeds.
pub fn timed_p50(samples: &[f64]) -> f64 {
    if samples.len() < P50_GROUP {
        return median(samples);
    }
    let groups: Vec<f64> = samples.chunks_exact(P50_GROUP).map(median).collect();
    mean(&groups)
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set-up repetitions: at least this many, and until
    /// `setup_budget` has passed.
    setup_reps: usize,
    setup_budget: Duration,
}

enum Command {
    Run(Args),
    Describe,
}

fn parse_args() -> Result<Command, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 30.0f64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--describe" {
            return Ok(Command::Describe);
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(workload::find(&value).ok_or_else(|| {
                    let names: Vec<&str> = workload::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {value:?} (one of {})", names.join(", "))
                })?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Command::Run(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        setup_reps: 7,
        setup_budget: Duration::from_secs(2),
    }))
}

/// What one run measured and checked.
struct Report {
    metrics: Vec<Metric>,
    attempted: u64,
    failures: Failures,
    notes: Vec<String>,
}

fn run(args: &Args) -> Result<Report, String> {
    let w = args.workload;
    let (served, setups) = workload::set_up(w, args.setup_reps, args.setup_budget)?;
    let setup =
        |f: fn(&workload::SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    let checker = Checker::new(served.snapshot.graph());
    let g = served.guarantee;
    let mut notes = vec![format!(
        "workload={} seed={} seconds={} trace={} graph={} scheme={} n={} guarantee=({}, {}) \
         depth={} churn_hz={} max_down={MAX_DOWN} diam_every={} tolerate=\"TOLERATE {} {}\" \
         probe_rounds={} threads=2 connections=2 cpus=1 setup_reps={}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        w.graph,
        w.scheme,
        served.snapshot.node_count(),
        g.diameter,
        g.faults,
        w.depth,
        w.churn_hz,
        w.diam_every,
        w.tolerate.0,
        w.tolerate.1,
        w.probe_rounds,
        setups.len(),
    )];
    // A short warm-up fills the caches and lets the loops settle; it is
    // not part of the measured window.
    let warmup = Duration::from_secs_f64((args.seconds * 0.1).min(1.0));
    let mut failures = Failures::default();
    let (metrics, attempted) = if args.trace {
        let (mut metrics, attempted, failed) =
            layers::traced_run(&served, w, &checker, args.seed, args.seconds, warmup)?;
        failures.merge(failed);
        metrics.splice(
            0..0,
            [
                Metric::new("setup.build_s", setup(|t| t.build), "s"),
                Metric::new("setup.snapshot_s", setup(|t| t.snapshot), "s"),
                Metric::new("setup.bind_s", setup(|t| t.bind), "s"),
                Metric::new("setup.reps", setups.len() as f64, "count"),
            ],
        );
        (metrics, attempted)
    } else {
        let measure = Duration::from_secs_f64(args.seconds);
        let mut phase = drive::run_phase(&served, w, &checker, args.seed, warmup, measure, false)?;
        let mut attempted = phase.take_failures(&mut failures);
        let (sent, failed) = drive::final_oracle(&served, &mut phase.clients, args.seed);
        attempted += sent;
        failures.merge(failed);
        let route = phase.route_stats(w.depth);
        let window_bursts = phase.window_bursts().count();
        let p50_us =
            |v: &[u64]| timed_p50(&v.iter().map(|&ns| ns as f64 / 1e3).collect::<Vec<_>>());
        let (op, probes) = (&phase.operator, &phase.probes);
        let [direct, detour, unreachable] = phase.query.kinds;
        notes.push(format!(
            "bursts={} window_bursts={} direct={direct} detour={detour} unreachable={unreachable} \
             ticks={} fail_visible_samples={} diam_samples={} \
             probe_diam_samples={} probe_tolerate_samples={}",
            phase.query.bursts.len(),
            window_bursts,
            op.ticks,
            op.fail_visible.len(),
            op.diam.len(),
            probes.diam.len(),
            probes.tolerate.len(),
        ));
        notes.push(format!(
            "measured window: diam_p50_us={}; probe phase: fail_visible_p50_us={}",
            p50_us(&op.diam),
            p50_us(&probes.fail_visible),
        ));
        notes.push(format!(
            "route replies per second of the window: {:?}",
            route.slice_qps
        ));
        let us = |v: &[f64]| v.iter().map(|ns| (ns / 1e2).round() / 10.0).collect::<Vec<_>>();
        notes.push(format!("route p50 us by second: {:?}", us(&route.slice_p50_ns)));
        notes.push(format!("route p90 us by second: {:?}", us(&route.slice_p90_ns)));
        for (what, samples) in [
            ("ROUTE burst", window_bursts),
            ("FAIL", op.fail_visible.len()),
            ("DIAM", op.diam.len()),
            ("probe DIAM", probes.diam.len()),
            ("probe TOLERATE", probes.tolerate.len()),
        ] {
            if samples == 0 {
                failures.record(format!("no {what} was timed"));
            }
        }
        let metrics = vec![
            Metric::new("setup_s", setup(workload::SetupTimes::total), "s"),
            Metric::new("route_qps", route.qps, "1/s"),
            Metric::new("route_p50_us", route.p50_ns / 1e3, "us"),
            Metric::new("route_p90_us", route.p90_ns / 1e3, "us"),
            Metric::new("fail_visible_p50_us", p50_us(&op.fail_visible), "us"),
            Metric::new("diam_p50_us", p50_us(&probes.diam), "us"),
            Metric::new("tolerate_p50_ms", p50_us(&probes.tolerate) / 1e3, "ms"),
        ];
        drive::close(phase.clients)?;
        (metrics, attempted)
    };
    served
        .server
        .shutdown_and_join()
        .map_err(|e| format!("unclean shutdown: {e}"))?;
    for m in &metrics {
        if !m.value.is_finite() {
            failures.record(format!("metric {} is not finite", m.name));
        }
    }
    Ok(Report {
        metrics,
        attempted: attempted.max(1),
        failures,
        notes,
    })
}

/// The result line: one JSON object.
fn result_json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failures.count == 0,
        report.attempted,
        report.failures.count,
        metrics.join(", ")
    )
}

/// Confines the process to the last CPU it may use, before any thread
/// starts, so every thread spawned later inherits it. On a small shared
/// host the server, both load loops and the probes then hand off on one
/// CPU whatever the scheduler does, and other processes keep the rest.
/// Uses `taskset`, since std has no affinity call. Returns the CPU.
fn pin_to_one_cpu() -> Result<u32, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let allowed = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .ok_or("/proc/self/status has no Cpus_allowed_list")?;
    let last = allowed.trim().rsplit([',', '-']).next().unwrap_or("");
    let cpu: u32 = last
        .parse()
        .map_err(|_| format!("cannot read a CPU from Cpus_allowed_list {allowed:?}"))?;
    let out = std::process::Command::new("taskset")
        .args(["-p", "-c", &cpu.to_string(), &std::process::id().to_string()])
        .output()
        .map_err(|e| format!("running taskset: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "taskset could not pin to CPU {cpu}: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    Ok(cpu)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Command::Run(args)) => args,
        Ok(Command::Describe) => {
            print!("{}", workload::descriptors_json());
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::from(2);
        }
    };
    match pin_to_one_cpu() {
        Ok(cpu) => println!("perfbench: pinned to CPU {cpu}"),
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::from(2);
        }
    }
    let report = match run(&args) {
        Ok(report) => report,
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            return ExitCode::from(2);
        }
    };
    for note in &report.notes {
        println!("perfbench: {note}");
    }
    for m in &report.metrics {
        println!("metric {} {} {}", m.name, m.value, m.unit);
    }
    let failed_share = ratio(report.failures.count as f64, report.attempted as f64);
    println!(
        "metric failed_share {failed_share} share (failed {} of {} operations)",
        report.failures.count, report.attempted
    );
    for why in &report.failures.first {
        eprintln!("perfbench: FAILED: {why}");
    }
    println!("{}", result_json(&report));
    if report.failures.count == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` pairs of one metric list in `BENCHMARK.json`.
    fn declared(section: &str) -> Vec<(String, String)> {
        let json = include_str!("../../BENCHMARK.json");
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split("{\"name\": \"")
            .skip(1)
            .map(|entry| {
                let (name, rest) = entry.split_once('"').expect("name closes");
                let unit = rest
                    .split("\"unit\": \"")
                    .nth(1)
                    .and_then(|u| u.split_once('"'))
                    .expect("unit present")
                    .0;
                (name.to_string(), unit.to_string())
            })
            .collect()
    }

    #[test]
    fn every_workload_emits_every_declared_metric_with_its_unit() {
        for w in &workload::WORKLOADS {
            for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
                let args = Args {
                    workload: w,
                    seed: 7,
                    seconds: 0.4,
                    trace,
                    setup_reps: 1,
                    setup_budget: Duration::ZERO,
                };
                let report = run(&args).expect("run completes");
                assert_eq!(
                    report.failures.count, 0,
                    "{} trace={trace}: {:?}",
                    w.name, report.failures.first
                );
                let mut emitted: Vec<(String, String)> = report
                    .metrics
                    .iter()
                    .map(|m| (m.name.clone(), m.unit.to_string()))
                    .collect();
                let mut expected = declared(section);
                emitted.sort();
                expected.sort();
                assert_eq!(emitted, expected, "{} trace={trace}", w.name);
                let json = result_json(&report);
                assert!(json.starts_with("{\"correct\": true, \"attempted\": "));
            }
        }
    }

    #[test]
    fn benchmark_json_gives_each_workload_its_reason() {
        let json = include_str!("../../BENCHMARK.json");
        for w in &workload::WORKLOADS {
            let entry = format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why);
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }

    #[test]
    fn workload_descriptors_file_is_current() {
        assert_eq!(
            include_str!("../workloads.json"),
            workload::descriptors_json(),
            "regenerate with `perfbench --describe > perfbench/workloads.json`"
        );
    }

    #[test]
    fn quantiles_use_nearest_rank_and_timed_p50_averages_runs() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.9), 5.0);
        assert_eq!(quantile(&v, 0.2), 1.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&v), 3.0);
        assert_eq!(mean(&[]), 0.0);
        // Two runs of eight with medians 4 and 10; the trailing 99 is
        // dropped.
        let mut samples: Vec<f64> = (1..=8).map(f64::from).collect();
        samples.extend((7..=14).map(f64::from));
        samples.push(99.0);
        assert_eq!(timed_p50(&samples), 7.0);
        assert_eq!(timed_p50(&v), 3.0);
    }
}
