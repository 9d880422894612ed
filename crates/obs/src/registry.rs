//! A named collection of metric families with Prometheus-style text
//! exposition and flat JSON snapshots.

use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use crate::metrics::{AtomicHistogram, Counter, Gauge};
use crate::relock;

/// Rendering unit for histogram-backed summaries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Unit {
    /// Raw values (batch sizes, visited counts, …) rendered as integers.
    None,
    /// Observations are nanoseconds; quantiles and sums are rendered as
    /// seconds (Prometheus base-unit convention).
    Seconds,
}

enum SeriesValue {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Summary(Arc<AtomicHistogram>, Unit),
    FuncCounter(Box<dyn Fn() -> u64 + Send + Sync>),
    FuncGauge(Box<dyn Fn() -> u64 + Send + Sync>),
}

impl SeriesValue {
    fn kind(&self) -> &'static str {
        match self {
            SeriesValue::Counter(_) | SeriesValue::FuncCounter(_) => "counter",
            SeriesValue::Gauge(_) | SeriesValue::FuncGauge(_) => "gauge",
            SeriesValue::Summary(..) => "summary",
        }
    }
}

struct Series {
    labels: Vec<(String, String)>,
    value: SeriesValue,
}

struct Family {
    name: String,
    help: String,
    kind: &'static str,
    series: Vec<Series>,
}

/// A registry of metric families. Registration takes a short mutex;
/// the returned [`Counter`]/[`Gauge`]/[`AtomicHistogram`] handles are
/// lock-free to update. Families are grouped by metric name, so
/// registering the same name with different labels yields one family
/// with several label sets (the kinds must agree).
#[derive(Default)]
pub struct Registry {
    families: Mutex<Vec<Family>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn push(&self, name: &str, help: &str, labels: &[(&str, &str)], value: SeriesValue) {
        let kind = value.kind();
        let series = Series {
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            value,
        };
        let mut families = relock(self.families.lock());
        if let Some(family) = families.iter_mut().find(|f| f.name == name) {
            // The check runs before any mutation, so the panic leaves the
            // families intact and `relock` lets later callers use them.
            assert_eq!(
                family.kind, kind,
                "metric {name} registered with conflicting kinds"
            );
            family.series.push(series);
        } else {
            families.push(Family {
                name: name.to_string(),
                help: help.to_string(),
                kind,
                series: vec![series],
            });
        }
    }

    /// Registers (and returns) a counter series.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let c = Arc::new(Counter::new());
        self.push(name, help, labels, SeriesValue::Counter(c.clone()));
        c
    }

    /// Registers (and returns) a gauge series.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let g = Arc::new(Gauge::new());
        self.push(name, help, labels, SeriesValue::Gauge(g.clone()));
        g
    }

    /// Registers (and returns) a histogram series, exposed as a
    /// Prometheus summary with `quantile="0.5" / "0.95" / "0.99"`
    /// sub-series plus `_count` and `_sum`.
    pub fn histogram(
        &self,
        name: &str,
        help: &str,
        unit: Unit,
        labels: &[(&str, &str)],
    ) -> Arc<AtomicHistogram> {
        let h = Arc::new(AtomicHistogram::new());
        self.push(name, help, labels, SeriesValue::Summary(h.clone(), unit));
        h
    }

    /// Registers a counter whose value is read from elsewhere at scrape
    /// time (pre-existing atomic stats, feature-gated engine counters).
    /// The reader must be monotonic for the exposition to be honest.
    pub fn func_counter(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        read: impl Fn() -> u64 + Send + Sync + 'static,
    ) {
        self.push(name, help, labels, SeriesValue::FuncCounter(Box::new(read)));
    }

    /// Registers a gauge whose value is computed at scrape time (uptime,
    /// queue depths, …).
    pub fn func_gauge(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        read: impl Fn() -> u64 + Send + Sync + 'static,
    ) {
        self.push(name, help, labels, SeriesValue::FuncGauge(Box::new(read)));
    }

    /// Renders the whole registry in the Prometheus text exposition
    /// format: `# HELP` / `# TYPE` lines per family, then one
    /// `name{labels} value` line per series (summaries expand to their
    /// quantile, `_count` and `_sum` sub-series).
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let families = relock(self.families.lock());
        for family in families.iter() {
            let _ = writeln!(out, "# HELP {} {}", family.name, family.help);
            let _ = writeln!(out, "# TYPE {} {}", family.name, family.kind);
            for series in &family.series {
                match &series.value {
                    SeriesValue::Counter(c) => {
                        let labels = prom_labels(&series.labels, None);
                        let _ = writeln!(out, "{}{} {}", family.name, labels, c.get());
                    }
                    SeriesValue::Gauge(g) => {
                        let labels = prom_labels(&series.labels, None);
                        let _ = writeln!(out, "{}{} {}", family.name, labels, g.get());
                    }
                    SeriesValue::FuncCounter(f) | SeriesValue::FuncGauge(f) => {
                        let labels = prom_labels(&series.labels, None);
                        let _ = writeln!(out, "{}{} {}", family.name, labels, f());
                    }
                    SeriesValue::Summary(h, unit) => {
                        let snap = h.snapshot();
                        for q in ["0.5", "0.95", "0.99"] {
                            let labels = prom_labels(&series.labels, Some(q));
                            let v = snap.quantile(q.parse().unwrap());
                            let _ = writeln!(out, "{}{} {}", family.name, labels, scaled(v, *unit));
                        }
                        let labels = prom_labels(&series.labels, None);
                        let _ = writeln!(out, "{}_count{} {}", family.name, labels, snap.count());
                        let _ = writeln!(
                            out,
                            "{}_sum{} {}",
                            family.name,
                            labels,
                            scaled(snap.sum(), *unit)
                        );
                    }
                }
            }
        }
        out
    }

    /// Renders a flat JSON object: one key per series (labels folded
    /// into the key as `name{k=v,…}`), scalar values for counters and
    /// gauges, `{count, sum, p50, p95, p99}` objects for histograms.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{");
        let mut first = true;
        let families = relock(self.families.lock());
        for family in families.iter() {
            for series in &family.series {
                if !first {
                    out.push(',');
                }
                first = false;
                let key = json_key(&family.name, &series.labels);
                match &series.value {
                    SeriesValue::Counter(c) => {
                        let _ = write!(out, "\"{key}\":{}", c.get());
                    }
                    SeriesValue::Gauge(g) => {
                        let _ = write!(out, "\"{key}\":{}", g.get());
                    }
                    SeriesValue::FuncCounter(f) | SeriesValue::FuncGauge(f) => {
                        let _ = write!(out, "\"{key}\":{}", f());
                    }
                    SeriesValue::Summary(h, unit) => {
                        let snap = h.snapshot();
                        let _ = write!(
                            out,
                            "\"{key}\":{{\"count\":{},\"sum\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
                            snap.count(),
                            scaled(snap.sum(), *unit),
                            scaled(snap.quantile(0.50), *unit),
                            scaled(snap.quantile(0.95), *unit),
                            scaled(snap.quantile(0.99), *unit),
                        );
                    }
                }
            }
        }
        out.push('}');
        out
    }
}

/// Renders a value under its unit: integers stay integers, nanosecond
/// observations become fractional seconds.
fn scaled(v: u64, unit: Unit) -> String {
    match unit {
        Unit::None => v.to_string(),
        Unit::Seconds => format!("{:.9}", v as f64 / 1e9),
    }
}

fn prom_labels(labels: &[(String, String)], quantile: Option<&str>) -> String {
    if labels.is_empty() && quantile.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    if let Some(q) = quantile {
        parts.push(format!("quantile=\"{q}\""));
    }
    format!("{{{}}}", parts.join(","))
}

fn json_key(name: &str, labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return name.to_string();
    }
    let parts: Vec<String> = labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
    format!("{name}{{{}}}", parts.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exposition_covers_all_kinds() {
        let reg = Registry::new();
        let c = reg.counter(
            "ftr_requests_total",
            "Requests served.",
            &[("verb", "route")],
        );
        let g = reg.gauge("ftr_epoch_id", "Current epoch.", &[]);
        let h = reg.histogram(
            "ftr_route_latency_seconds",
            "Server-side route latency.",
            Unit::Seconds,
            &[],
        );
        reg.func_gauge("ftr_uptime_seconds", "Process uptime.", &[], || 12);
        c.add(5);
        g.set(3);
        h.record_n(1_000_000, 4); // 1ms
        let text = reg.render_prometheus();
        assert!(text.contains("# HELP ftr_requests_total Requests served."));
        assert!(text.contains("# TYPE ftr_requests_total counter"));
        assert!(text.contains("ftr_requests_total{verb=\"route\"} 5"));
        assert!(text.contains("ftr_epoch_id 3"));
        assert!(text.contains("# TYPE ftr_route_latency_seconds summary"));
        assert!(text.contains("ftr_route_latency_seconds{quantile=\"0.95\"} 0.000"));
        assert!(text.contains("ftr_route_latency_seconds_count 4"));
        assert!(text.contains("ftr_uptime_seconds 12"));
        // Every line is a comment or `name{labels} value`.
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let (series, value) = line.rsplit_once(' ').expect("name value");
            assert!(!series.is_empty());
            assert!(value.parse::<f64>().is_ok(), "unparsable value in {line:?}");
        }
        let json = reg.render_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"ftr_requests_total{verb=route}\":5"));
        assert!(json.contains("\"count\":4"));
    }

    #[test]
    fn same_name_groups_under_one_family() {
        let reg = Registry::new();
        let a = reg.counter("ftr_cache_hits_total", "Cache hits.", &[("shard", "0")]);
        let b = reg.counter("ftr_cache_hits_total", "Cache hits.", &[("shard", "1")]);
        a.inc();
        b.add(2);
        let text = reg.render_prometheus();
        assert_eq!(text.matches("# TYPE ftr_cache_hits_total").count(), 1);
        assert!(text.contains("ftr_cache_hits_total{shard=\"0\"} 1"));
        assert!(text.contains("ftr_cache_hits_total{shard=\"1\"} 2"));
    }

    #[test]
    #[should_panic(expected = "conflicting kinds")]
    fn kind_conflicts_are_programming_errors() {
        let reg = Registry::new();
        let _ = reg.counter("ftr_thing", "x", &[]);
        let _ = reg.gauge("ftr_thing", "x", &[]);
    }

    #[test]
    fn renderers_answer_after_a_conflicting_registration_panics() {
        let reg = Registry::new();
        let c = reg.counter("ftr_thing", "x", &[]);
        c.add(7);
        // The conflict panics while the family lock is held, poisoning it.
        let conflict = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = reg.gauge("ftr_thing", "x", &[]);
        }));
        assert!(conflict.is_err(), "a kind conflict must still panic");
        assert!(reg.render_prometheus().contains("ftr_thing 7"));
        assert_eq!(reg.render_json(), "{\"ftr_thing\":7}");
        // Registration keeps working too.
        let _ = reg.gauge("ftr_other", "y", &[]);
        assert!(reg.render_prometheus().contains("ftr_other 0"));
    }
}
