//! The metrics registry: named counters, gauges and sketch-backed
//! histograms.
//!
//! Names are `&'static str` dotted paths, `subsystem.metric[_unit]` —
//! `serving.latency_cycles`, `migration.copy_bytes`, `fleet.queued` — held
//! in `BTreeMap`s so every iteration (and therefore every export) is in a
//! deterministic order. Histograms are [`QuantileSketch`]es: exact up to the
//! sketch's cap, `α`-bounded streaming quantiles beyond it, never a retained
//! per-sample vector.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use neu10::{LatencySummary, QuantileSketch};

use crate::obs::window::Merge;

/// The declared metric-name taxonomy: every name an [`ObsSink`] impl may
/// emit, in name order.
///
/// This is the contract dashboards and exporters are built against, and
/// the `simlint` `X1` rule cross-checks it: a `serving.*` / `migration.*` /
/// `control.*` / `fault.*` / `recovery.*` literal anywhere in library code
/// that is missing here fails
/// the static-analysis CI gate. Adding a metric therefore means declaring
/// it in this table first — which is exactly the point: no invisible
/// metrics, no silent typos splitting one counter into two.
///
/// [`ObsSink`]: crate::obs::ObsSink
pub const METRIC_NAMES: &[&str] = &[
    // Control plane: one counter per applied action kind.
    "control.migrations",
    "control.scale_downs",
    "control.scale_ups",
    // Fault injection: one counter per injected fault kind.
    "fault.board_crashes",
    "fault.board_hangs",
    "fault.injected",
    "fault.link_degrades",
    "fault.stragglers",
    "fault.telemetry_dropouts",
    // Fleet-wide gauges, sampled at each telemetry tick.
    "fleet.in_flight",
    "fleet.live_replicas",
    "fleet.migrations_in_flight",
    "fleet.queued",
    "fleet.resident_bytes",
    // Migration lifecycle: per-mode completions, pre-copy round/byte
    // accounting, downtime distribution.
    "migration.cold",
    "migration.copy_bytes",
    "migration.copy_rounds",
    "migration.downtime_cycles",
    "migration.precopy",
    "migration.precopy_fallbacks",
    "migration.rejected",
    // Failure detection and failover: declarations, re-placements,
    // re-dispatches, losses, and the detect/restore latency histograms.
    "recovery.detect_cycles",
    "recovery.failovers",
    "recovery.lost_requests",
    "recovery.redispatched",
    "recovery.replicas_restored",
    "recovery.restore_cycles",
    "recovery.restore_rejected",
    // Serving hot path: request lifecycle counters and latency histograms.
    "serving.arrivals",
    "serving.batch_size",
    "serving.batches",
    "serving.completed",
    "serving.deadline_met",
    "serving.deadline_missed",
    "serving.dispatched",
    "serving.expired",
    "serving.expired_wait_cycles",
    "serving.latency_cycles",
    "serving.rejected_no_replica",
    "serving.rejected_overload",
    // SLO burn-rate engine: one counter per alert edge kind.
    "slo.alerts_fired",
    "slo.alerts_resolved",
    // Telemetry bus heartbeat.
    "telemetry.ticks",
    // Time-series recorder bookkeeping (exported as OpenMetrics
    // meta-metrics).
    "timeseries.samples",
    "timeseries.series",
    "timeseries.windows_evicted",
];

/// Named counters, gauges and streaming-quantile histograms.
///
/// The registry accumulates **exact** aggregates: unlike the span ring it is
/// not subject to head-sampling, so `serving.completed` is the true fleet
/// count however small the trace sample rate was.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    histograms: BTreeMap<&'static str, QuantileSketch>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Increments the counter `name` by 1.
    pub fn inc(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// Adds `by` to the counter `name`.
    pub fn add(&mut self, name: &'static str, by: u64) {
        *self.counters.entry(name).or_insert(0) += by;
    }

    /// Sets the gauge `name` to its latest value.
    pub fn set_gauge(&mut self, name: &'static str, value: f64) {
        self.gauges.insert(name, value);
    }

    /// Records one sample into the histogram `name`.
    pub fn observe(&mut self, name: &'static str, value: u64) {
        self.histograms.entry(name).or_default().record(value);
    }

    /// The counter's current value (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// The gauge's latest value, if ever set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// The histogram sketch behind `name`, if any sample was recorded.
    pub fn histogram(&self, name: &str) -> Option<&QuantileSketch> {
        self.histograms.get(name)
    }

    /// Every counter, in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(name, value)| (*name, *value))
    }

    /// Every gauge, in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.gauges.iter().map(|(name, value)| (*name, *value))
    }

    /// Every histogram summarized, in name order.
    pub fn histogram_summaries(&self) -> impl Iterator<Item = (&'static str, LatencySummary)> + '_ {
        self.histograms
            .iter()
            .map(|(name, sketch)| (*name, sketch.summary()))
    }

    /// Every histogram's backing sketch, in name order.
    pub(crate) fn histograms_iter(&self) -> impl Iterator<Item = (&'static str, &QuantileSketch)> {
        self.histograms.iter().map(|(name, sketch)| (*name, sketch))
    }

    /// Folds `other` into `self` under the window merge rule: counters
    /// add, gauges add, histograms merge sketch-to-sketch. This is the
    /// combination step for per-partition registries in a sharded event
    /// loop: every gauge is a fleet count that each partition sets to its
    /// own share at the same barrier ticks, so merging the shards yields the
    /// fleet-wide totals and the same exact counters and sketches a single
    /// registry would have accumulated.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, value) in &other.counters {
            self.counters.entry(name).or_default().merge(value);
        }
        for (name, value) in &other.gauges {
            self.gauges.entry(name).or_default().merge(value);
        }
        for (name, sketch) in &other.histograms {
            self.histograms.entry(name).or_default().merge(sketch);
        }
    }

    /// Whether nothing was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Renders the registry as one JSON object
    /// (`{"counters":{…},"gauges":{…},"histograms":{…}}`), appended to
    /// `out`. Deterministic: names are emitted in `BTreeMap` order.
    pub fn render_json(&self, out: &mut String) {
        out.push_str("{\"counters\":{");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{value}");
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, value)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{}", json_f64(*value));
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, sketch)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let s = sketch.summary();
            let _ = write!(
                out,
                "\"{name}\":{{\"count\":{},\"mean\":{},\"p50\":{},\"p95\":{},\"p99\":{},\"max\":{}}}",
                s.count,
                json_f64(s.mean),
                s.p50,
                s.p95,
                s.p99,
                s.max
            );
        }
        out.push_str("}}");
    }
}

/// A finite JSON number for `value` (`NaN`/`±inf` degrade to 0, which JSON
/// cannot represent).
fn json_f64(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_accumulates_and_renders_deterministically() {
        let mut registry = MetricsRegistry::new();
        registry.inc("serving.completed");
        registry.add("serving.completed", 2);
        registry.set_gauge("fleet.queued", 5.0);
        registry.observe("serving.latency_cycles", 100);
        registry.observe("serving.latency_cycles", 300);
        assert_eq!(registry.counter("serving.completed"), 3);
        assert_eq!(registry.gauge("fleet.queued"), Some(5.0));
        let sketch = registry.histogram("serving.latency_cycles").unwrap();
        assert_eq!(sketch.count(), 2);
        assert_eq!(sketch.max(), 300);
        let mut a = String::new();
        registry.render_json(&mut a);
        let mut b = String::new();
        registry.render_json(&mut b);
        assert_eq!(a, b, "rendering is deterministic");
        assert!(a.contains("\"serving.completed\":3"));
        assert!(a.contains("\"fleet.queued\":5"));
        assert!(a.contains("\"p99\":300"));
    }

    #[test]
    fn taxonomy_is_sorted_and_duplicate_free() {
        assert!(
            METRIC_NAMES.windows(2).all(|w| w[0] < w[1]),
            "METRIC_NAMES must be strictly sorted so the taxonomy is \
             greppable and duplicate-free"
        );
    }

    #[test]
    fn merge_combines_partitions_exactly() {
        let mut a = MetricsRegistry::new();
        a.add("serving.completed", 3);
        a.set_gauge("fleet.queued", 1.0);
        a.observe("serving.latency_cycles", 100);
        let mut b = MetricsRegistry::new();
        b.add("serving.completed", 4);
        b.inc("serving.expired");
        b.set_gauge("fleet.queued", 7.0);
        b.observe("serving.latency_cycles", 300);
        a.merge(&b);
        assert_eq!(a.counter("serving.completed"), 7);
        assert_eq!(a.counter("serving.expired"), 1);
        assert_eq!(a.gauge("fleet.queued"), Some(8.0), "fleet gauges add");
        let sketch = a.histogram("serving.latency_cycles").unwrap();
        assert_eq!(sketch.count(), 2);
        assert_eq!(sketch.max(), 300);
    }

    #[test]
    fn untouched_names_read_as_empty() {
        let registry = MetricsRegistry::new();
        assert!(registry.is_empty());
        assert_eq!(registry.counter("nope"), 0);
        assert_eq!(registry.gauge("nope"), None);
        assert!(registry.histogram("nope").is_none());
    }
}
