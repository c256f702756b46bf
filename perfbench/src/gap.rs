//! Outside-in time attribution for the serving event loop.
//!
//! An [`ObsSink`] sees the loop only at its hooks. [`Gaps`] reads the host
//! clock at every hook and charges the time since the previous hook to the
//! hook that ends it: the arrival→dispatch gap is the router, the gap before
//! a completion hook is the completion handling, and so on. The first hook
//! has no predecessor; its gap (the run's start-up) is measured by the
//! caller from the moment it made the run call.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use cluster::{
    AlertTransition, ControlAction, FaultEvent, FleetCounters, MigrationRecord, NodeId, ObsSink,
    RejectReason, TelemetryFrame,
};
use workloads::{ModelId, PriorityClass};

use crate::clock;

/// The loop stage a hook closes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// Arrival walk (`on_arrival`).
    Arrival,
    /// Router dispatch (`on_dispatch`).
    Dispatch,
    /// Router rejection (`on_reject`).
    Reject,
    /// Batch formation and start of service (`on_service_*`).
    Batch,
    /// Completion accounting (`on_complete`).
    Complete,
    /// Deadline expiry of a queued request (`on_expire`).
    Expire,
    /// Telemetry tick (`on_tick`).
    Tick,
    /// SLO burn-rate alert edges (`on_alert`).
    Alert,
    /// Applying a control action (`on_control`).
    Control,
    /// Fault injection, lost requests and replica restores.
    Fault,
    /// Failover of a dead board (`on_failover`).
    Failover,
    /// Migration copy rounds, stop-and-copy and refusals.
    Migration,
}

impl Layer {
    /// Every layer, in index order.
    pub const ALL: [Layer; 12] = [
        Layer::Arrival,
        Layer::Dispatch,
        Layer::Reject,
        Layer::Batch,
        Layer::Complete,
        Layer::Expire,
        Layer::Tick,
        Layer::Alert,
        Layer::Control,
        Layer::Fault,
        Layer::Failover,
        Layer::Migration,
    ];

    fn index(self) -> usize {
        self as usize
    }
}

/// Host nanoseconds and hook counts charged to each [`Layer`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerTimes {
    ns: [u64; Layer::ALL.len()],
    hooks: [u64; Layer::ALL.len()],
}

impl LayerTimes {
    /// Nanoseconds charged to `layer`.
    pub fn ns(&self, layer: Layer) -> u64 {
        self.ns[layer.index()]
    }

    /// Hooks that closed a `layer` gap.
    pub fn hooks(&self, layer: Layer) -> u64 {
        self.hooks[layer.index()]
    }

    /// Mean nanoseconds per `layer` hook (0 when the layer never fired).
    pub fn mean_ns(&self, layer: Layer) -> f64 {
        let hooks = self.hooks(layer);
        if hooks == 0 {
            0.0
        } else {
            self.ns(layer) as f64 / hooks as f64
        }
    }

    /// Nanoseconds charged to every layer together.
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// Adds `other`'s charges to these.
    pub fn add(&mut self, other: &LayerTimes) {
        for i in 0..self.ns.len() {
            self.ns[i] += other.ns[i];
            self.hooks[i] += other.hooks[i];
        }
    }
}

/// The gap clock: per-layer charges plus the first and last hook instants.
#[derive(Debug, Clone, Copy, Default)]
pub struct Gaps {
    /// What each layer was charged.
    pub layers: LayerTimes,
    /// Host instant of the first hook ([`clock::now_ns`] scale).
    pub first_ns: Option<u64>,
    /// Host instant the next gap starts from.
    pub last_ns: u64,
}

impl Gaps {
    /// Charges the gap since the previous hook to `layer`, less `excluded`
    /// nanoseconds the caller accounted elsewhere, and returns the instant
    /// read.
    pub fn charge(&mut self, layer: Layer, excluded: u64) -> u64 {
        let now = clock::now_ns();
        if self.first_ns.is_none() {
            self.first_ns = Some(now);
        } else {
            let gap = now.saturating_sub(self.last_ns).saturating_sub(excluded);
            self.layers.ns[layer.index()] += gap;
        }
        self.layers.hooks[layer.index()] += 1;
        self.last_ns = now;
        now
    }

    /// Restarts the gap at `at`, so time the caller spent after the hook
    /// (e.g. inside program sinks it forwards to) is not charged onward.
    pub fn resume(&mut self, at: u64) {
        self.last_ns = at;
    }
}

/// A program sink the [`GapSink`] forwards every hook to.
pub type Forwarded<'a> = &'a mut (dyn ObsSink + Send);

/// The benchmark's sink: forwards each hook to the program sinks it holds,
/// and, when timing, charges the gap before the hook to its [`Layer`] and
/// times each forwarded sink separately.
///
/// Untimed with program sinks it is a plain fan-out; timed with none it is
/// the bare gap clock the sharded runner default-constructs per partition.
pub struct GapSink<'a> {
    sinks: Vec<Forwarded<'a>>,
    timing: Option<Timing>,
}

/// The timing state of a [`GapSink`].
#[derive(Debug, Default)]
pub struct Timing {
    /// Per-layer charges.
    pub gaps: Gaps,
    /// Host nanoseconds spent inside each forwarded sink, in sink order.
    pub sink_ns: Vec<u64>,
    /// Host nanoseconds spent by a timed control plane since the previous
    /// hook; taken out of the next gap and added to `control_plane_ns`.
    pub pending: Option<Arc<AtomicU64>>,
    /// Control-plane nanoseconds taken out of the gaps.
    pub control_plane_ns: u64,
}

impl Default for GapSink<'_> {
    /// A timed sink that forwards nowhere.
    fn default() -> Self {
        GapSink::timed(Vec::new(), None)
    }
}

impl<'a> GapSink<'a> {
    /// A fan-out to `sinks` that reads no clock.
    pub fn fan_out(sinks: Vec<Forwarded<'a>>) -> Self {
        GapSink {
            sinks,
            timing: None,
        }
    }

    /// A timed fan-out to `sinks`. Control-plane time recorded into
    /// `pending` is kept out of the gaps.
    pub fn timed(sinks: Vec<Forwarded<'a>>, pending: Option<Arc<AtomicU64>>) -> Self {
        let sink_ns = vec![0; sinks.len()];
        GapSink {
            sinks,
            timing: Some(Timing {
                sink_ns,
                pending,
                ..Timing::default()
            }),
        }
    }

    /// The timing state (`None` for an untimed fan-out).
    pub fn timing(&self) -> Option<&Timing> {
        self.timing.as_ref()
    }

    fn hook(&mut self, layer: Layer, mut forward: impl FnMut(&mut dyn ObsSink)) {
        let Some(timing) = &mut self.timing else {
            for sink in &mut self.sinks {
                forward(&mut **sink);
            }
            return;
        };
        let excluded = timing
            .pending
            .as_ref()
            .map_or(0, |pending| pending.swap(0, Ordering::Relaxed));
        timing.control_plane_ns += excluded;
        let mut at = timing.gaps.charge(layer, excluded);
        for (sink, spent) in self.sinks.iter_mut().zip(&mut timing.sink_ns) {
            forward(&mut **sink);
            let now = clock::now_ns();
            *spent += now.saturating_sub(at);
            at = now;
        }
        timing.gaps.resume(at);
    }
}

impl ObsSink for GapSink<'_> {
    fn active(&self) -> bool {
        self.sinks.iter().any(|sink| sink.active())
    }

    fn on_arrival(&mut self, now: u64, sequence: u64, model: ModelId) {
        self.hook(Layer::Arrival, |s| s.on_arrival(now, sequence, model));
    }

    fn on_dispatch(&mut self, now: u64, sequence: u64, model: ModelId, node: NodeId, slot: usize) {
        self.hook(Layer::Dispatch, |s| {
            s.on_dispatch(now, sequence, model, node, slot)
        });
    }

    fn on_reject(&mut self, now: u64, sequence: u64, model: ModelId, reason: RejectReason) {
        self.hook(Layer::Reject, |s| s.on_reject(now, sequence, model, reason));
    }

    fn on_service_request(
        &mut self,
        start: u64,
        sequence: u64,
        model: ModelId,
        arrived: u64,
        node: NodeId,
        slot: usize,
    ) {
        self.hook(Layer::Batch, |s| {
            s.on_service_request(start, sequence, model, arrived, node, slot)
        });
    }

    fn on_service_batch(
        &mut self,
        start: u64,
        finish: u64,
        model: ModelId,
        node: NodeId,
        slot: usize,
        batch: usize,
    ) {
        self.hook(Layer::Batch, |s| {
            s.on_service_batch(start, finish, model, node, slot, batch)
        });
    }

    fn on_complete(
        &mut self,
        now: u64,
        sequence: u64,
        model: ModelId,
        priority: PriorityClass,
        arrived: u64,
        node: NodeId,
        slot: usize,
        deadline_met: Option<bool>,
    ) {
        self.hook(Layer::Complete, |s| {
            s.on_complete(
                now,
                sequence,
                model,
                priority,
                arrived,
                node,
                slot,
                deadline_met,
            )
        });
    }

    fn on_expire(
        &mut self,
        now: u64,
        sequence: u64,
        model: ModelId,
        arrived: u64,
        node: NodeId,
        slot: usize,
    ) {
        self.hook(Layer::Expire, |s| {
            s.on_expire(now, sequence, model, arrived, node, slot)
        });
    }

    fn on_copy_round(
        &mut self,
        start: u64,
        finish: u64,
        from: NodeId,
        to: NodeId,
        slot: usize,
        round: u32,
        bytes: u64,
    ) {
        self.hook(Layer::Migration, |s| {
            s.on_copy_round(start, finish, from, to, slot, round, bytes)
        });
    }

    fn on_stop_copy(&mut self, start: u64, finish: u64, slot: usize, record: &MigrationRecord) {
        self.hook(Layer::Migration, |s| {
            s.on_stop_copy(start, finish, slot, record)
        });
    }

    fn on_migration_rejected(&mut self, now: u64, slot: usize) {
        self.hook(Layer::Migration, |s| s.on_migration_rejected(now, slot));
    }

    fn on_control(&mut self, now: u64, action: &ControlAction) {
        self.hook(Layer::Control, |s| s.on_control(now, action));
    }

    fn on_tick(&mut self, now: u64, frame: &TelemetryFrame, counters: &FleetCounters) {
        self.hook(Layer::Tick, |s| s.on_tick(now, frame, counters));
    }

    fn on_alert(&mut self, now: u64, alert: &AlertTransition) {
        self.hook(Layer::Alert, |s| s.on_alert(now, alert));
    }

    fn on_fault(&mut self, now: u64, fault: &FaultEvent) {
        self.hook(Layer::Fault, |s| s.on_fault(now, fault));
    }

    fn on_failover(
        &mut self,
        now: u64,
        node: NodeId,
        replicas_failed: u64,
        redispatched: u64,
        detect_cycles: u64,
    ) {
        self.hook(Layer::Failover, |s| {
            s.on_failover(now, node, replicas_failed, redispatched, detect_cycles)
        });
    }

    fn on_replica_restored(&mut self, now: u64, node: NodeId, slot: usize, restore_cycles: u64) {
        self.hook(Layer::Fault, |s| {
            s.on_replica_restored(now, node, slot, restore_cycles)
        });
    }

    fn on_lost(&mut self, now: u64, sequence: u64, model: ModelId, node: NodeId) {
        self.hook(Layer::Fault, |s| s.on_lost(now, sequence, model, node));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cluster::{
        AdmissionControl, ClusterServingSim, DeploySpec, DispatchPolicy, NpuCluster,
        PlacementPolicy, ServingOptions, ServingReport, ShardOptions, TraceConfig, TraceRecorder,
    };
    use npu_sim::NpuConfig;
    use workloads::ClusterTrace;

    /// Four single-core boards, two MNIST replicas each, and a short
    /// overloaded Poisson trace so some arrivals are turned away.
    fn tiny() -> (NpuCluster, ClusterTrace, ClusterServingSim) {
        let npu = NpuConfig::single_core();
        let mut fleet = NpuCluster::homogeneous(4, &npu);
        for _ in 0..8 {
            fleet
                .deploy(
                    DeploySpec::replica(ModelId::Mnist, 2, 2),
                    PlacementPolicy::WorstFit,
                )
                .expect("four boards hold eight small replicas");
        }
        let trace = ClusterTrace::poisson(&[(ModelId::Mnist, 20)], 400, 7);
        let options = ServingOptions::new(DispatchPolicy::LeastLoaded)
            .with_batching(4)
            .with_admission(AdmissionControl { max_queue_depth: 4 });
        (fleet, trace, ClusterServingSim::new(options))
    }

    fn assert_counts_match(layers: &LayerTimes, report: &ServingReport) {
        let stats = &report.stats;
        assert_eq!(layers.hooks(Layer::Arrival), stats.offered as u64);
        assert_eq!(layers.hooks(Layer::Dispatch), stats.admitted as u64);
        assert_eq!(layers.hooks(Layer::Reject), stats.rejected() as u64);
        assert_eq!(layers.hooks(Layer::Complete), stats.completed as u64);
    }

    #[test]
    fn attributed_time_fits_in_wall_time_and_hooks_match_the_report() {
        let (mut fleet, trace, sim) = tiny();
        let mut sink = GapSink::default();
        let called = clock::now_ns();
        let report = sim.run_observed(&mut fleet, &trace, &mut sink);
        let wall = clock::now_ns() - called;

        let timing = sink.timing().expect("the default sink is timed");
        let layers = &timing.gaps.layers;
        assert!(report.stats.rejected() > 0, "the tiny run must shed load");
        assert!(layers.total_ns() > 0);
        assert!(
            layers.total_ns() <= wall,
            "attributed {} ns exceeds the call's {wall} ns",
            layers.total_ns()
        );
        let first = timing.gaps.first_ns.expect("the run fired hooks");
        assert!(called <= first && timing.gaps.last_ns <= called + wall);
        assert_counts_match(layers, &report);

        let (mut fresh, _, _) = tiny();
        assert_eq!(
            report,
            sim.run(&mut fresh, &trace),
            "timing must not perturb"
        );
    }

    #[test]
    fn per_partition_sinks_add_up_to_the_merged_report() {
        let (mut fleet, trace, sim) = tiny();
        let mut sinks: Vec<GapSink<'static>> = Vec::new();
        let called = clock::now_ns();
        let report = sim.run_sharded_observed(
            &mut fleet,
            &trace,
            ShardOptions::new(2).with_threads(2),
            &mut sinks,
        );
        let wall = clock::now_ns() - called;

        assert_eq!(sinks.len(), 2);
        let mut layers = LayerTimes::default();
        for sink in &sinks {
            let timing = sink.timing().expect("timed");
            assert!(timing.gaps.layers.total_ns() <= wall);
            layers.add(&timing.gaps.layers);
        }
        assert!(layers.total_ns() <= 2 * wall, "two workers at most");
        assert_counts_match(&layers, &report);
    }

    #[test]
    fn forwarding_reaches_program_sinks_untouched() {
        let config = TraceConfig::default().with_sample_rate(0.5).with_seed(3);
        let (mut fleet, trace, sim) = tiny();
        let mut direct = TraceRecorder::new(config);
        let report = sim.run_observed(&mut fleet, &trace, &mut direct);

        let (mut fleet, _, _) = tiny();
        let mut forwarded = TraceRecorder::new(config);
        let called = clock::now_ns();
        let mut sink = GapSink::timed(vec![&mut forwarded], None);
        assert!(
            sink.active(),
            "an active program sink makes the fan-out active"
        );
        let timed = sim.run_observed(&mut fleet, &trace, &mut sink);
        let wall = clock::now_ns() - called;
        let timing = sink.timing().expect("timed");
        let spent = timing.gaps.layers.total_ns() + timing.sink_ns.iter().sum::<u64>();
        assert!(
            spent <= wall,
            "gaps plus sink time {spent} ns exceed {wall} ns"
        );
        assert!(
            timing.gaps.layers.hooks(Layer::Batch) > 0,
            "active: batch hooks fire"
        );
        assert_counts_match(&timing.gaps.layers, &timed);
        drop(sink);

        assert_eq!(report, timed);
        assert_eq!(direct.stats(), forwarded.stats());
        assert_eq!(
            direct.export_chrome_trace(),
            forwarded.export_chrome_trace()
        );

        let (mut fleet, _, _) = tiny();
        let mut untimed = TraceRecorder::new(config);
        let mut fan_out = GapSink::fan_out(vec![&mut untimed]);
        assert!(fan_out.timing().is_none());
        assert_eq!(report, sim.run_observed(&mut fleet, &trace, &mut fan_out));
        drop(fan_out);
        assert_eq!(direct.stats(), untimed.stats());
    }
}
