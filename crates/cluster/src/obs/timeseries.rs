//! Windowed time series over the serving event stream.
//!
//! The [`TraceRecorder`](crate::obs::TraceRecorder)'s registry answers "what
//! happened over the whole run" — exact totals, one quantile sketch per
//! metric. The [`TimeSeriesRecorder`] answers the *temporal* questions those
//! totals erase: *when* did p99 start climbing, which priority class was
//! burning, how fast did the autoscaler's capacity catch the ramp. It is an
//! [`ObsSink`] that aggregates every hook into fixed-width, cycle-aligned
//! windows (`window = now / width`), keyed by metric name plus a small label
//! set ([`SeriesLabels`]: model, board, priority class), and holds each
//! series in a bounded overwrite-oldest ring of windows — memory is
//! O(series × ring) at any arrival count, and everything is deterministic
//! (cycle timestamps only, `BTreeMap` iteration, no wall clock).
//!
//! Per-window values come in three kinds, mirroring the registry:
//! **counters** (events in the window), **gauges** (last value seen in the
//! window) and **latency summaries** ([`QuantileSketch`] per window). Series
//! reuse the registry's declared [`METRIC_NAMES`](crate::obs::METRIC_NAMES)
//! taxonomy — a `timeseries.*`-prefixed meta-series would tell you about the
//! recorder, not the fleet, so recorder bookkeeping lives in
//! [`TimeSeriesStats`] instead and is exported under the declared
//! `timeseries.*` names by the OpenMetrics exporter.

use std::collections::BTreeMap;

use neu10::{LatencySummary, QuantileSketch};
use workloads::{ModelId, PriorityClass};

use crate::fault::FaultEvent;
use crate::migration::{MigrationMode, MigrationRecord};
use crate::obs::slo::{AlertKind, AlertTransition};
use crate::obs::window::{Merge, Ring};
use crate::obs::{FleetCounters, ObsSink, RejectReason};
use crate::telemetry::{ControlAction, TelemetryFrame};
use crate::NodeId;

/// Window width and retention of a [`TimeSeriesRecorder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimeSeriesConfig {
    /// Window width in cycles; events at `now` land in window `now / width`.
    pub width: u64,
    /// Windows retained per series; older windows are overwritten in place.
    pub ring: usize,
}

impl Default for TimeSeriesConfig {
    /// 65 536-cycle windows, 64 retained per series.
    fn default() -> Self {
        TimeSeriesConfig {
            width: 65_536,
            ring: 64,
        }
    }
}

impl TimeSeriesConfig {
    /// Windows of `width` cycles with the default retention.
    pub fn new(width: u64) -> Self {
        TimeSeriesConfig {
            width: width.max(1),
            ..TimeSeriesConfig::default()
        }
    }

    /// Overrides the per-series window retention.
    pub fn with_ring(mut self, ring: usize) -> Self {
        self.ring = ring.max(1);
        self
    }
}

/// The label set of one series: each dimension is optional, so one metric
/// name fans out only as far as its hook can attribute.
///
/// Labels order as (model, node, priority) with `None` first, giving every
/// export a stable, deterministic series order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub struct SeriesLabels {
    /// The model, for per-tenant series.
    pub model: Option<ModelId>,
    /// The board, for per-node series.
    pub node: Option<NodeId>,
    /// The priority class, for per-QoS series.
    pub priority: Option<PriorityClass>,
}

impl SeriesLabels {
    /// The empty label set (fleet-wide series).
    pub fn none() -> Self {
        SeriesLabels::default()
    }

    /// Labels carrying only the model.
    pub fn model(model: ModelId) -> Self {
        SeriesLabels {
            model: Some(model),
            ..SeriesLabels::default()
        }
    }

    /// Adds the board dimension.
    pub fn with_node(mut self, node: NodeId) -> Self {
        self.node = Some(node);
        self
    }

    /// Adds the priority-class dimension.
    pub fn with_priority(mut self, priority: PriorityClass) -> Self {
        self.priority = Some(priority);
        self
    }

    /// Whether no dimension is set.
    pub fn is_empty(&self) -> bool {
        self.model.is_none() && self.node.is_none() && self.priority.is_none()
    }
}

/// Recorder bookkeeping, exported as the `timeseries.*` meta-metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TimeSeriesStats {
    /// Points recorded across all series (counter increments, gauge sets,
    /// summary observations).
    pub samples: u64,
    /// Windows evicted ring-wide because a newer window claimed their slot.
    pub windows_evicted: u64,
}

/// The key of one series: metric name plus labels.
type SeriesKey = (&'static str, SeriesLabels);

/// One kind of series (counters, gauges or summaries): a window ring per
/// key.
#[derive(Debug, Clone, Default)]
struct Series<T>(BTreeMap<SeriesKey, Ring<T>>);

/// The windowed time-series [`ObsSink`]: every hook lands in the window of
/// its cycle timestamp, keyed by name + labels, in bounded memory.
///
/// Attach one via
/// [`ClusterServingSim::run_observed`](crate::ClusterServingSim::run_observed)
/// (or `run_observed_with_controller`), then query windows directly or export
/// with [`export_timeseries_openmetrics`](crate::obs::export_timeseries_openmetrics).
#[derive(Debug, Clone)]
pub struct TimeSeriesRecorder {
    config: TimeSeriesConfig,
    counters: Series<u64>,
    gauges: Series<f64>,
    summaries: Series<QuantileSketch>,
    stats: TimeSeriesStats,
}

impl Default for TimeSeriesRecorder {
    fn default() -> Self {
        TimeSeriesRecorder::new(TimeSeriesConfig::default())
    }
}

impl TimeSeriesRecorder {
    /// A recorder with the given window width and retention.
    pub fn new(config: TimeSeriesConfig) -> Self {
        TimeSeriesRecorder {
            config: TimeSeriesConfig {
                width: config.width.max(1),
                ring: config.ring.max(1),
            },
            counters: Series::default(),
            gauges: Series::default(),
            summaries: Series::default(),
            stats: TimeSeriesStats::default(),
        }
    }

    /// The configuration the recorder was built with.
    pub fn config(&self) -> TimeSeriesConfig {
        self.config
    }

    /// Recorder bookkeeping (points recorded, windows evicted).
    pub fn stats(&self) -> TimeSeriesStats {
        self.stats
    }

    /// Distinct (name, labels) series across all kinds.
    pub fn series_count(&self) -> usize {
        self.counters.0.len() + self.gauges.0.len() + self.summaries.0.len()
    }

    /// The window index of cycle `now`.
    pub fn window_of(&self, now: u64) -> u64 {
        now / self.config.width
    }

    /// Adds `by` to the counter series' window at `now`.
    pub fn inc(&mut self, now: u64, name: &'static str, labels: SeriesLabels, by: u64) {
        let key = (name, labels);
        *self.counters.point(now, key, self.config, &mut self.stats) += by;
    }

    /// Sets the gauge series' window at `now` to its latest value.
    pub fn set(&mut self, now: u64, name: &'static str, labels: SeriesLabels, value: f64) {
        let key = (name, labels);
        *self.gauges.point(now, key, self.config, &mut self.stats) = value;
    }

    /// Records one sample into the summary series' window at `now`.
    pub fn observe(&mut self, now: u64, name: &'static str, labels: SeriesLabels, value: u64) {
        let key = (name, labels);
        let sketch = self.summaries.point(now, key, self.config, &mut self.stats);
        sketch.record(value);
    }

    /// The retained `(window, count)` pairs of one counter series, oldest
    /// window first; empty if the series was never touched.
    pub fn counter_windows(&self, name: &str, labels: SeriesLabels) -> Vec<(u64, u64)> {
        let windows = self.counters.windows(name, labels);
        windows.into_iter().map(|(w, v)| (w, *v)).collect()
    }

    /// The retained `(window, value)` pairs of one gauge series.
    pub fn gauge_windows(&self, name: &str, labels: SeriesLabels) -> Vec<(u64, f64)> {
        let windows = self.gauges.windows(name, labels);
        windows.into_iter().map(|(w, v)| (w, *v)).collect()
    }

    /// The retained `(window, summary)` pairs of one latency-summary series.
    pub fn summary_windows(&self, name: &str, labels: SeriesLabels) -> Vec<(u64, LatencySummary)> {
        let windows = self.summaries.windows(name, labels);
        windows.into_iter().map(|(w, s)| (w, s.summary())).collect()
    }

    /// Every counter series key, in (name, labels) order.
    pub fn counter_series(&self) -> impl Iterator<Item = (&'static str, SeriesLabels)> + '_ {
        self.counters.0.keys().copied()
    }

    /// Every gauge series key, in (name, labels) order.
    pub fn gauge_series(&self) -> impl Iterator<Item = (&'static str, SeriesLabels)> + '_ {
        self.gauges.0.keys().copied()
    }

    /// Every summary series key, in (name, labels) order.
    pub fn summary_series(&self) -> impl Iterator<Item = (&'static str, SeriesLabels)> + '_ {
        self.summaries.0.keys().copied()
    }

    /// The `(window, sketch count/sum)` pairs of one summary series —
    /// the exporter needs the raw totals, not just the summary.
    pub(crate) fn summary_sketches(
        &self,
        name: &'static str,
        labels: SeriesLabels,
    ) -> Vec<(u64, &QuantileSketch)> {
        self.summaries.windows(name, labels)
    }

    /// Merges another recorder's windows into this one (per-partition
    /// recorders combined at a barrier), ring by ring: counters add, gauges
    /// add (every gauge is a fleet count each partition reports its own
    /// share of, at the same barrier ticks), summaries merge sketch-wise.
    /// Both recorders must share a configuration.
    ///
    /// Windows only one side retained survive; windows neither retained are
    /// gone on both and stay gone — merging cannot resurrect evicted data.
    pub fn merge(&mut self, other: &TimeSeriesRecorder) {
        debug_assert_eq!(
            self.config, other.config,
            "merging recorders with different window/ring configurations"
        );
        let (len, evicted) = (self.config.ring, &mut self.stats.windows_evicted);
        self.counters.merge(&other.counters, len, evicted);
        self.gauges.merge(&other.gauges, len, evicted);
        self.summaries.merge(&other.summaries, len, evicted);
        self.stats.samples += other.stats.samples;
    }
}

impl<T: Merge> Series<T> {
    /// The window of `now` in series `key`, claimed on first touch; counts
    /// the point in `stats`.
    fn point(
        &mut self,
        now: u64,
        key: SeriesKey,
        config: TimeSeriesConfig,
        stats: &mut TimeSeriesStats,
    ) -> &mut T {
        stats.samples += 1;
        let ring = self.0.entry(key).or_insert_with(|| Ring::new(config.ring));
        ring.cell(now / config.width, &mut stats.windows_evicted)
    }

    /// The retained windows of series (`name`, `labels`), oldest first.
    fn windows(&self, name: &str, labels: SeriesLabels) -> Vec<(u64, &T)> {
        let ring = self.0.get(&(lookup(name), labels));
        ring.map(Ring::windows).unwrap_or_default()
    }

    /// Merges every ring of `other` into the same series here.
    fn merge(&mut self, other: &Series<T>, len: usize, evicted: &mut u64) {
        for (key, ring) in &other.0 {
            let into = self.0.entry(*key).or_insert_with(|| Ring::new(len));
            into.merge(ring, evicted);
        }
    }
}

/// Interns a runtime name against the declared taxonomy so query methods can
/// take `&str` while the map keys stay `&'static str`.
fn lookup(name: &str) -> &'static str {
    crate::obs::METRIC_NAMES
        .iter()
        .find(|declared| **declared == name)
        .copied()
        .unwrap_or("")
}

impl ObsSink for TimeSeriesRecorder {
    fn active(&self) -> bool {
        true
    }

    fn on_arrival(&mut self, now: u64, _sequence: u64, model: ModelId) {
        self.inc(now, "serving.arrivals", SeriesLabels::model(model), 1);
    }

    fn on_dispatch(
        &mut self,
        now: u64,
        _sequence: u64,
        model: ModelId,
        node: NodeId,
        _slot: usize,
    ) {
        self.inc(
            now,
            "serving.dispatched",
            SeriesLabels::model(model).with_node(node),
            1,
        );
    }

    fn on_reject(&mut self, now: u64, _sequence: u64, model: ModelId, reason: RejectReason) {
        self.inc(now, reason.metric_name(), SeriesLabels::model(model), 1);
    }

    fn on_service_batch(
        &mut self,
        start: u64,
        _finish: u64,
        model: ModelId,
        node: NodeId,
        _slot: usize,
        batch: usize,
    ) {
        let labels = SeriesLabels::model(model).with_node(node);
        self.inc(start, "serving.batches", labels, 1);
        self.observe(start, "serving.batch_size", labels, batch as u64);
    }

    fn on_complete(
        &mut self,
        now: u64,
        _sequence: u64,
        model: ModelId,
        priority: PriorityClass,
        arrived: u64,
        node: NodeId,
        _slot: usize,
        deadline_met: Option<bool>,
    ) {
        let qos = SeriesLabels::model(model).with_priority(priority);
        self.inc(now, "serving.completed", qos.with_node(node), 1);
        self.observe(
            now,
            "serving.latency_cycles",
            qos,
            now.saturating_sub(arrived),
        );
        if let Some(met) = deadline_met {
            let name = if met {
                "serving.deadline_met"
            } else {
                "serving.deadline_missed"
            };
            self.inc(now, name, qos, 1);
        }
    }

    fn on_expire(
        &mut self,
        now: u64,
        _sequence: u64,
        model: ModelId,
        arrived: u64,
        node: NodeId,
        _slot: usize,
    ) {
        let labels = SeriesLabels::model(model).with_node(node);
        self.inc(now, "serving.expired", labels, 1);
        self.observe(
            now,
            "serving.expired_wait_cycles",
            labels,
            now.saturating_sub(arrived),
        );
    }

    fn on_copy_round(
        &mut self,
        start: u64,
        _finish: u64,
        from: NodeId,
        _to: NodeId,
        _slot: usize,
        _round: u32,
        bytes: u64,
    ) {
        let labels = SeriesLabels::none().with_node(from);
        self.inc(start, "migration.copy_rounds", labels, 1);
        self.inc(start, "migration.copy_bytes", labels, bytes);
    }

    fn on_stop_copy(&mut self, start: u64, _finish: u64, _slot: usize, record: &MigrationRecord) {
        let labels = SeriesLabels::none().with_node(record.from);
        let name = match record.mode {
            MigrationMode::Cold => "migration.cold",
            MigrationMode::PreCopy => "migration.precopy",
        };
        self.inc(start, name, labels, 1);
        if record.mode == MigrationMode::PreCopy && !record.converged {
            self.inc(start, "migration.precopy_fallbacks", labels, 1);
        }
        self.observe(
            start,
            "migration.downtime_cycles",
            labels,
            record.downtime().get(),
        );
    }

    fn on_migration_rejected(&mut self, now: u64, _slot: usize) {
        self.inc(now, "migration.rejected", SeriesLabels::none(), 1);
    }

    fn on_control(&mut self, now: u64, action: &ControlAction) {
        let (name, labels) = match action {
            ControlAction::ScaleUp { spec, .. } => {
                ("control.scale_ups", SeriesLabels::model(spec.model))
            }
            ControlAction::ScaleDown { handle } => (
                "control.scale_downs",
                SeriesLabels::none().with_node(handle.node),
            ),
            ControlAction::Migrate { handle, .. } => (
                "control.migrations",
                SeriesLabels::none().with_node(handle.node),
            ),
        };
        self.inc(now, name, labels, 1);
    }

    fn on_tick(&mut self, now: u64, _frame: &TelemetryFrame, counters: &FleetCounters) {
        let fleet = SeriesLabels::none();
        self.inc(now, "telemetry.ticks", fleet, 1);
        for (name, value) in [
            ("fleet.queued", counters.queued),
            ("fleet.in_flight", counters.in_flight),
            ("fleet.live_replicas", counters.live_replicas),
            ("fleet.migrations_in_flight", counters.migrations_in_flight),
            ("fleet.resident_bytes", counters.resident_bytes),
        ] {
            self.set(now, name, fleet, value as f64);
        }
    }

    fn on_alert(&mut self, now: u64, alert: &AlertTransition) {
        let mut labels = SeriesLabels::model(alert.model);
        if let Some(priority) = alert.priority {
            labels = labels.with_priority(priority);
        }
        let name = match alert.kind {
            AlertKind::Fired => "slo.alerts_fired",
            AlertKind::Resolved => "slo.alerts_resolved",
        };
        self.inc(now, name, labels, 1);
    }

    fn on_fault(&mut self, now: u64, fault: &FaultEvent) {
        let labels = SeriesLabels::none().with_node(fault.kind.node());
        self.inc(now, "fault.injected", labels, 1);
        self.inc(now, fault.kind.metric_name(), labels, 1);
    }

    fn on_failover(
        &mut self,
        now: u64,
        node: NodeId,
        _replicas_failed: u64,
        redispatched: u64,
        detect_cycles: u64,
    ) {
        let labels = SeriesLabels::none().with_node(node);
        self.inc(now, "recovery.failovers", labels, 1);
        self.inc(now, "recovery.redispatched", labels, redispatched);
        self.observe(now, "recovery.detect_cycles", labels, detect_cycles);
    }

    fn on_replica_restored(&mut self, now: u64, node: NodeId, _slot: usize, restore_cycles: u64) {
        let labels = SeriesLabels::none().with_node(node);
        self.inc(now, "recovery.replicas_restored", labels, 1);
        self.observe(now, "recovery.restore_cycles", labels, restore_cycles);
    }

    fn on_lost(&mut self, now: u64, _sequence: u64, model: ModelId, node: NodeId) {
        self.inc(
            now,
            "recovery.lost_requests",
            SeriesLabels::model(model).with_node(node),
            1,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_align_and_accumulate_by_label() {
        let mut ts = TimeSeriesRecorder::new(TimeSeriesConfig::new(1_000));
        ts.on_arrival(10, 0, ModelId::Mnist);
        ts.on_arrival(999, 1, ModelId::Mnist);
        ts.on_arrival(1_000, 2, ModelId::Mnist);
        ts.on_arrival(500, 3, ModelId::Bert);
        let mnist = ts.counter_windows("serving.arrivals", SeriesLabels::model(ModelId::Mnist));
        assert_eq!(mnist, vec![(0, 2), (1, 1)]);
        let bert = ts.counter_windows("serving.arrivals", SeriesLabels::model(ModelId::Bert));
        assert_eq!(bert, vec![(0, 1)]);
        assert_eq!(ts.series_count(), 2);
        assert_eq!(ts.stats().samples, 4);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts_evictions() {
        let mut ts = TimeSeriesRecorder::new(TimeSeriesConfig::new(100).with_ring(4));
        for window in 0..10u64 {
            ts.inc(window * 100, "serving.arrivals", SeriesLabels::none(), 1);
        }
        let windows = ts.counter_windows("serving.arrivals", SeriesLabels::none());
        assert_eq!(
            windows,
            vec![(6, 1), (7, 1), (8, 1), (9, 1)],
            "only the newest `ring` windows survive"
        );
        assert_eq!(ts.stats().windows_evicted, 6);
    }

    #[test]
    fn latency_summaries_are_per_window_and_per_priority() {
        let mut ts = TimeSeriesRecorder::new(TimeSeriesConfig::new(1_000));
        ts.on_complete(
            100,
            0,
            ModelId::Mnist,
            PriorityClass::Interactive,
            0,
            NodeId(0),
            0,
            Some(true),
        );
        ts.on_complete(
            1_500,
            1,
            ModelId::Mnist,
            PriorityClass::Interactive,
            500,
            NodeId(0),
            0,
            Some(false),
        );
        ts.on_complete(
            1_600,
            2,
            ModelId::Mnist,
            PriorityClass::Batch,
            0,
            NodeId(1),
            0,
            None,
        );
        let interactive =
            SeriesLabels::model(ModelId::Mnist).with_priority(PriorityClass::Interactive);
        let summaries = ts.summary_windows("serving.latency_cycles", interactive);
        assert_eq!(summaries.len(), 2);
        assert_eq!(summaries[0].0, 0);
        assert_eq!(summaries[0].1.max, 100);
        assert_eq!(summaries[1].1.max, 1_000);
        assert_eq!(
            ts.counter_windows("serving.deadline_met", interactive),
            vec![(0, 1)]
        );
        assert_eq!(
            ts.counter_windows("serving.deadline_missed", interactive),
            vec![(1, 1)]
        );
        let batch = SeriesLabels::model(ModelId::Mnist).with_priority(PriorityClass::Batch);
        assert_eq!(ts.summary_windows("serving.latency_cycles", batch).len(), 1);
    }

    #[test]
    fn gauges_keep_the_last_value_per_window() {
        let mut ts = TimeSeriesRecorder::new(TimeSeriesConfig::new(1_000));
        let frame = TelemetryFrame {
            at: npu_sim::Cycles::ZERO,
            window: npu_sim::Cycles::ZERO,
            replicas: Vec::new(),
            models: BTreeMap::new(),
        };
        let mut counters = FleetCounters {
            queued: 5,
            ..FleetCounters::default()
        };
        ts.on_tick(100, &frame, &counters);
        counters.queued = 9;
        ts.on_tick(900, &frame, &counters);
        counters.queued = 2;
        ts.on_tick(1_100, &frame, &counters);
        assert_eq!(
            ts.gauge_windows("fleet.queued", SeriesLabels::none()),
            vec![(0, 9.0), (1, 2.0)]
        );
        assert_eq!(
            ts.counter_windows("telemetry.ticks", SeriesLabels::none()),
            vec![(0, 2), (1, 1)]
        );
    }

    #[test]
    fn merge_combines_partition_recorders() {
        let config = TimeSeriesConfig::new(1_000).with_ring(8);
        let mut a = TimeSeriesRecorder::new(config);
        let mut b = TimeSeriesRecorder::new(config);
        a.on_arrival(100, 0, ModelId::Mnist);
        b.on_arrival(150, 1, ModelId::Mnist);
        b.on_arrival(1_200, 2, ModelId::Bert);
        a.observe(
            100,
            "serving.latency_cycles",
            SeriesLabels::model(ModelId::Mnist),
            10,
        );
        b.observe(
            200,
            "serving.latency_cycles",
            SeriesLabels::model(ModelId::Mnist),
            30,
        );
        a.set(100, "fleet.live_replicas", SeriesLabels::none(), 3.0);
        b.set(100, "fleet.live_replicas", SeriesLabels::none(), 2.0);
        a.merge(&b);
        assert_eq!(
            a.counter_windows("serving.arrivals", SeriesLabels::model(ModelId::Mnist)),
            vec![(0, 2)]
        );
        assert_eq!(
            a.gauge_windows("fleet.live_replicas", SeriesLabels::none()),
            vec![(0, 5.0)],
            "fleet gauges add across partitions"
        );
        assert_eq!(
            a.counter_windows("serving.arrivals", SeriesLabels::model(ModelId::Bert)),
            vec![(1, 1)]
        );
        let merged = a.summary_windows(
            "serving.latency_cycles",
            SeriesLabels::model(ModelId::Mnist),
        );
        assert_eq!(merged[0].1.count, 2);
        assert_eq!(merged[0].1.max, 30);
        assert_eq!(
            a.stats().samples,
            7,
            "merge folds the other side's samples in"
        );
    }

    #[test]
    fn unknown_series_read_as_empty() {
        let ts = TimeSeriesRecorder::default();
        assert!(ts
            .counter_windows("serving.arrivals", SeriesLabels::none())
            .is_empty());
        assert!(ts
            .gauge_windows("fleet.queued", SeriesLabels::none())
            .is_empty());
        assert!(ts
            .summary_windows("serving.latency_cycles", SeriesLabels::none())
            .is_empty());
        assert!(ts
            .counter_windows("not.a.metric", SeriesLabels::none())
            .is_empty());
    }
}
