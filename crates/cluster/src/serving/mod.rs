//! The cluster serving simulator.
//!
//! Replays a [`workloads::ClusterTrace`] against the replicas deployed in an
//! [`NpuCluster`]: every arrival is routed by the [`Router`](crate::router::Router), waits in its
//! replica's queue, and is served as part of a **dynamic batch** — an idle
//! replica collects up to [`ServingOptions::max_batch`] queued requests of
//! its model and serves them in one pass, with the batch service time
//! calibrated from [`neu10::TenantWorkload`] at the *actual* batch size
//! (sublinear in the batch for weight-traffic-bound models, not
//! `batch × single`). With [`ServingOptions::with_batch_wait`] an idle
//! replica additionally *holds* a sub-`max_batch` queue for up to
//! `max_batch_wait` cycles to let a batch form, then serves the partial
//! batch — batch-formation latency is bounded by the timeout instead of by
//! the next burst. Requests may carry **deadlines and priority classes**
//! ([`workloads::RequestArrival`]): the simulator counts deadline misses,
//! optionally drops expired requests unserved, and — under
//! [`DispatchPolicy::EarliestDeadline`] — orders each replica queue
//! earliest-deadline-first within priority classes instead of FIFO.
//!
//! Service times are deterministic by default. With
//! [`ServingOptions::with_stochastic`] they get a seeded lognormal dispersion
//! whose coefficient of variation is calibrated from
//! [`neu10::CollocationSim`] per-request latencies
//! ([`neu10::calibrate_service_time`]), so fleet tail latencies reflect
//! multi-tenant service-time noise rather than queueing alone. Runs are
//! reproducible: the same seed yields an identical [`ServingReport`].
//!
//! Migrations can be scheduled mid-run in either [`MigrationMode`](crate::migration::MigrationMode). A **cold**
//! migration drains its in-flight batch, goes dark for the full transfer +
//! remap window, and resumes on the destination node — with the whole
//! downtime charged to the latency of the requests queued behind it. A
//! **live pre-copy** migration keeps the source replica serving (and
//! dispatchable) while copy-round events stream its resident state over the
//! interconnect — round 0 the full working set, each further round the pages
//! the served requests re-dirtied, priced by the cost model's
//! [`crate::migration::DirtyRateModel`]. Concurrent transfers over the same
//! board-to-board link serialize (bandwidth contention is charged against
//! the link). When the dirty set converges below the stop threshold — or
//! stops shrinking because the dirty rate outruns the link — the replica
//! stops for a final stop-and-copy whose downtime is just the residual delta
//! plus the architectural context. [`ServingReport::migration_stats`]
//! aggregates downtime, rounds and bytes per mode.
//!
//! The simulator is also the execution engine of the **autopilot control
//! plane**: with [`ServingOptions::with_telemetry`] it emits a
//! [`TelemetryFrame`](crate::telemetry::TelemetryFrame) every sampling interval, and
//! [`ClusterServingSim::run_with_controller`] hands each frame to a
//! [`ControlPlane`] whose [`ControlAction`](crate::telemetry::ControlAction)s — scale-up through the
//! placement engine, drain-then-release scale-down, cold migration — are
//! applied inside the same deterministic event loop. Replica-time actually
//! provisioned is accounted in [`ServingReport::replica_cycles`], so
//! autoscaling experiments can trade replica-hours against tail latency.

mod calibration;
mod chaos;
mod events;
mod migrate;
mod options;
mod partition;
mod queue;

use std::collections::BTreeMap;

use neu10::{DeadlineStats, QuantileSketch};
use npu_sim::Cycles;
use workloads::{ClusterTrace, ModelId};

use crate::cluster::NpuCluster;
use crate::fault::AvailabilityStats;
use crate::migration::{MigrationRecord, MigrationStats};
use crate::obs::{AlertLog, NoopSink, ObsSink};
use crate::router::{DispatchPolicy, RouterStats};
use crate::telemetry::{ControlPlane, ControlStats, NoopControl};
use crate::NodeId;

pub use calibration::{estimated_batch_service_cycles, estimated_service_cycles};
pub(crate) use migrate::MigrationEnvelope;
pub use options::{
    PerfStats, ScheduledMigration, ServingOptions, ServingReport, StochasticService,
};
pub(crate) use partition::{summarize_models, PartitionSim, ShardContext};

/// The cluster serving simulator (open-loop, or closed-loop under a
/// [`ControlPlane`]).
#[derive(Debug, Clone)]
pub struct ClusterServingSim {
    options: ServingOptions,
}

impl ClusterServingSim {
    /// Builds a simulator with the given options.
    pub fn new(options: ServingOptions) -> Self {
        ClusterServingSim { options }
    }

    /// Replays `trace` against the replicas deployed in `cluster` with no
    /// control plane (any configured telemetry ticks are still counted).
    ///
    /// The cluster is mutated by scheduled migrations (their placements
    /// genuinely move); everything else is read-only. The run is a pure
    /// function of `(cluster, trace, options)`: replaying the same inputs
    /// produces a bit-identical [`ServingReport`].
    ///
    /// # Example
    ///
    /// ```
    /// use cluster::{ClusterServingSim, DeploySpec, DispatchPolicy, NpuCluster,
    ///               PlacementPolicy, ServingOptions};
    /// use npu_sim::NpuConfig;
    /// use workloads::{ClusterTrace, ModelId};
    ///
    /// let npu = NpuConfig::single_core();
    /// let mut fleet = NpuCluster::homogeneous(2, &npu);
    /// fleet.deploy(DeploySpec::replica(ModelId::Mnist, 2, 2), PlacementPolicy::BestFit)?;
    ///
    /// let trace = ClusterTrace::poisson(&[(ModelId::Mnist, 50_000)], 32, 7);
    /// let sim = ClusterServingSim::new(ServingOptions::new(DispatchPolicy::LeastLoaded));
    /// let report = sim.run(&mut fleet, &trace);
    /// assert_eq!(report.stats.offered, 32);
    /// assert_eq!(report.stats.completed, 32);
    ///
    /// // Determinism: an identical replay yields an identical report.
    /// let mut fleet2 = NpuCluster::homogeneous(2, &npu);
    /// fleet2.deploy(DeploySpec::replica(ModelId::Mnist, 2, 2), PlacementPolicy::BestFit)?;
    /// assert_eq!(report, sim.run(&mut fleet2, &trace));
    /// # Ok::<(), cluster::ClusterError>(())
    /// ```
    pub fn run(&self, cluster: &mut NpuCluster, trace: &ClusterTrace) -> ServingReport {
        self.run_loop(cluster, trace, &mut NoopControl, &mut NoopSink)
    }

    /// [`ClusterServingSim::run`] with the event loop instrumented through
    /// `sink` (typically a [`crate::obs::TraceRecorder`]).
    ///
    /// Observation never perturbs the simulation: the report is bit-identical
    /// to the uninstrumented [`ClusterServingSim::run`], and with
    /// [`NoopSink`] the monomorphized loop *is* the uninstrumented loop.
    pub fn run_observed(
        &self,
        cluster: &mut NpuCluster,
        trace: &ClusterTrace,
        sink: &mut dyn ObsSink,
    ) -> ServingReport {
        self.run_loop(cluster, trace, &mut NoopControl, sink)
    }

    /// [`ClusterServingSim::run_with_controller`] with the event loop
    /// instrumented through `sink`.
    ///
    /// # Panics
    ///
    /// Panics unless [`ServingOptions::with_telemetry`] was configured, for
    /// the same reason as [`ClusterServingSim::run_with_controller`].
    pub fn run_observed_with_controller(
        &self,
        cluster: &mut NpuCluster,
        trace: &ClusterTrace,
        controller: &mut dyn ControlPlane,
        sink: &mut dyn ObsSink,
    ) -> ServingReport {
        assert!(
            self.options.telemetry_interval.is_some(),
            "run_observed_with_controller requires ServingOptions::with_telemetry: \
             without a sampling interval the controller is never invoked"
        );
        self.run_loop(cluster, trace, controller, sink)
    }

    /// Replays `trace` against `cluster` under a closed-loop `controller`.
    ///
    /// Every sampling interval the simulator emits a [`TelemetryFrame`](crate::telemetry::TelemetryFrame), the
    /// controller answers with [`ControlAction`](crate::telemetry::ControlAction)s, and the actions are
    /// applied inside the event loop — scale-ups deploy through the
    /// placement engine and start serving at the tick, scale-downs drain
    /// then release, migrations follow the cold migration path. The cluster
    /// is mutated accordingly. Deterministic controllers yield reproducible
    /// reports.
    ///
    /// # Panics
    ///
    /// Panics unless [`ServingOptions::with_telemetry`] was configured:
    /// without a sampling interval the controller would never be invoked and
    /// the run would silently degrade to open loop.
    pub fn run_with_controller(
        &self,
        cluster: &mut NpuCluster,
        trace: &ClusterTrace,
        controller: &mut dyn ControlPlane,
    ) -> ServingReport {
        assert!(
            self.options.telemetry_interval.is_some(),
            "run_with_controller requires ServingOptions::with_telemetry: \
             without a sampling interval the controller is never invoked"
        );
        self.run_loop(cluster, trace, controller, &mut NoopSink)
    }

    /// The shared event loop behind every `run*` entry point.
    ///
    /// Generic over the [`ObsSink`] so the disabled path ([`NoopSink`], whose
    /// hooks are all empty defaults) monomorphizes to exactly the
    /// uninstrumented loop — no branches, no allocations, no digest drift.
    ///
    /// The loop itself lives in [`PartitionSim`]: the sequential path is the
    /// degenerate single-partition case — one partition owning every board,
    /// stepped in a single unbounded round.
    pub(crate) fn run_loop<S: ObsSink + ?Sized>(
        &self,
        cluster: &mut NpuCluster,
        trace: &ClusterTrace,
        controller: &mut dyn ControlPlane,
        sink: &mut S,
    ) -> ServingReport {
        let mut partition = PartitionSim::new(self.options.clone(), cluster, trace.arrivals());
        partition.step_until(u64::MAX, cluster, controller, sink);
        partition.finish(sink).into_report()
    }

    /// The options this simulator was built with (the sharded runner derives
    /// its per-partition options from them).
    pub(crate) fn options(&self) -> &ServingOptions {
        &self.options
    }
}

/// The accumulated results of one partition's run.
///
/// The sequential path produces exactly one outcome and converts it straight
/// into a [`ServingReport`]; the sharded runner merges the per-partition
/// outcomes in partition-index order first ([`PartitionOutcome::merge`]), so
/// the merged report is a pure fold over per-partition state — bit-identical
/// for a fixed partitioning regardless of how many worker threads ran it.
pub(crate) struct PartitionOutcome {
    pub(crate) dispatch: DispatchPolicy,
    pub(crate) router_stats: RouterStats,
    pub(crate) latencies: QuantileSketch,
    pub(crate) per_model: BTreeMap<ModelId, QuantileSketch>,
    pub(crate) per_node_completed: BTreeMap<NodeId, usize>,
    pub(crate) deadline: DeadlineStats,
    pub(crate) batches: usize,
    pub(crate) migration_records: Vec<MigrationRecord>,
    pub(crate) control: ControlStats,
    pub(crate) replica_cycles: u64,
    pub(crate) makespan: u64,
    pub(crate) perf: PerfStats,
    pub(crate) alerts: AlertLog,
    pub(crate) availability: AvailabilityStats,
}

impl PartitionOutcome {
    /// Folds `other` (a higher-indexed partition's outcome) into `self`.
    ///
    /// Order matters and is fixed: the sharded runner always merges in
    /// partition-index order, so sketch contents, per-model folds and record
    /// concatenation are deterministic for a fixed partitioning.
    pub(crate) fn merge(&mut self, other: PartitionOutcome) {
        // Exhaustive on purpose: a new field fails to compile here until it
        // is merged.
        let PartitionOutcome {
            dispatch: _,
            router_stats,
            latencies,
            per_model,
            per_node_completed,
            deadline,
            batches,
            migration_records,
            control,
            replica_cycles,
            makespan,
            perf:
                PerfStats {
                    events,
                    arrivals,
                    peak_replicas,
                },
            alerts,
            availability,
        } = other;
        self.router_stats.merge(&router_stats);
        self.latencies.merge(&latencies);
        for (model, sketch) in per_model {
            self.per_model.entry(model).or_default().merge(&sketch);
        }
        for (node, count) in per_node_completed {
            *self.per_node_completed.entry(node).or_default() += count;
        }
        self.deadline.merge(&deadline);
        self.batches += batches;
        self.migration_records.extend(migration_records);
        self.control.merge(&control);
        self.replica_cycles += replica_cycles;
        self.makespan = self.makespan.max(makespan);
        self.perf.events += events;
        self.perf.arrivals += arrivals;
        // Summed, not maxed: partition peaks need not coincide in time, so
        // this is the provisioning upper bound, exact when partitions are
        // statically sized (the sequential path never merges).
        self.perf.peak_replicas += peak_replicas;
        for transition in alerts.transitions() {
            self.alerts.push(*transition);
        }
        self.availability.merge(&availability);
    }

    /// Converts the (merged) outcome into the public report.
    ///
    /// `summary_sorted` reproduces the seed's sort-then-`from_sorted` global
    /// summary bit-for-bit below the sketch cap; `summary` reproduces the
    /// insertion-order `from_samples` per-model fold.
    pub(crate) fn into_report(mut self) -> ServingReport {
        ServingReport {
            dispatch: self.dispatch,
            stats: self.router_stats,
            latency: self.latencies.summary_sorted(),
            per_model: self
                .per_model
                .into_iter()
                .map(|(model, sketch)| (model, sketch.summary()))
                .collect(),
            per_node_completed: self.per_node_completed,
            deadline: self.deadline,
            batches: self.batches,
            migration_stats: MigrationStats::from_records(&self.migration_records),
            migrations: self.migration_records,
            control: self.control,
            replica_cycles: self.replica_cycles,
            makespan: Cycles(self.makespan),
            perf: self.perf,
            alerts: self.alerts,
            availability: self.availability,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::DeploySpec;
    use crate::cluster::VnpuHandle;
    use crate::placement::PlacementPolicy;
    use crate::router::AdmissionControl;
    use crate::telemetry::ControlAction;
    use crate::telemetry::TelemetryFrame;
    use npu_sim::NpuConfig;
    use workloads::RequestArrival;

    pub(super) fn fleet_with_replicas(
        nodes: usize,
        replicas: usize,
    ) -> (NpuCluster, Vec<VnpuHandle>) {
        let mut fleet = NpuCluster::homogeneous(nodes, &NpuConfig::single_core());
        let handles = (0..replicas)
            .map(|_| {
                fleet
                    .deploy(
                        DeploySpec::replica(ModelId::Mnist, 2, 2),
                        PlacementPolicy::WorstFit,
                    )
                    .unwrap()
            })
            .collect();
        (fleet, handles)
    }

    pub(super) fn burst_trace(count: usize, gap: u64) -> ClusterTrace {
        ClusterTrace::from_arrivals(
            (0..count)
                .map(|i| RequestArrival::new(Cycles(i as u64 * gap), ModelId::Mnist))
                .collect(),
        )
    }

    #[test]
    fn admitted_requests_all_complete() {
        let (mut fleet, _) = fleet_with_replicas(2, 2);
        let trace = burst_trace(40, 1_000);
        let report = ClusterServingSim::new(ServingOptions::new(DispatchPolicy::LeastLoaded))
            .run(&mut fleet, &trace);
        assert_eq!(report.stats.offered, 40);
        assert_eq!(report.stats.admitted, 40);
        assert_eq!(
            report.stats.completed, report.stats.admitted,
            "the router never drops admitted requests"
        );
        assert_eq!(report.latency.count, 40);
        assert!(report.makespan > Cycles::ZERO);
        assert!(report.throughput_rps(&NpuConfig::single_core()) > 0.0);
        assert_eq!(
            report.per_node_completed.values().sum::<usize>(),
            40,
            "every completion is attributed to a node"
        );
        // Unbatched run: one request per pass, no deadline-carrying traffic.
        assert_eq!(report.batches, 40);
        assert_eq!(report.mean_batch_size(), 1.0);
        assert_eq!(report.deadline, DeadlineStats::default());
        // Open-loop run: no control-plane activity, static provisioning.
        assert_eq!(report.control, ControlStats::default());
        assert_eq!(report.replica_cycles, 2 * report.makespan.get());
        assert!(report.replica_seconds(&NpuConfig::single_core()) > 0.0);
    }

    #[test]
    fn unserved_models_are_rejected_not_lost() {
        let (mut fleet, _) = fleet_with_replicas(1, 1);
        let trace =
            ClusterTrace::from_arrivals(vec![RequestArrival::new(Cycles(0), ModelId::Bert)]);
        let report = ClusterServingSim::new(ServingOptions::new(DispatchPolicy::RoundRobin))
            .run(&mut fleet, &trace);
        assert_eq!(report.stats.rejected_no_replica, 1);
        assert_eq!(report.stats.completed, 0);
    }

    #[test]
    fn admission_control_bounds_queues() {
        let (mut fleet, _) = fleet_with_replicas(1, 1);
        // A tight burst against a single replica with a 2-deep queue.
        let trace = burst_trace(50, 1);
        let options = ServingOptions::new(DispatchPolicy::LeastLoaded)
            .with_admission(AdmissionControl { max_queue_depth: 2 });
        let report = ClusterServingSim::new(options).run(&mut fleet, &trace);
        assert!(report.stats.rejected_overload > 0, "overload must shed");
        assert_eq!(report.stats.completed, report.stats.admitted);
    }

    #[test]
    fn makespan_ignores_trailing_rejected_arrivals() {
        // Regression: a trailing rejected arrival used to inflate the
        // makespan (and deflate throughput) with zero work done.
        let (mut fleet, _) = fleet_with_replicas(1, 1);
        let baseline_trace = burst_trace(5, 1_000);
        let baseline = ClusterServingSim::new(ServingOptions::new(DispatchPolicy::LeastLoaded))
            .run(&mut fleet, &baseline_trace);

        let far_future = baseline.makespan.get() * 1_000;
        let mut arrivals: Vec<RequestArrival> = (0..5)
            .map(|i| RequestArrival::new(Cycles(i * 1_000), ModelId::Mnist))
            .collect();
        // No replica serves BERT: the trailing arrival is rejected.
        arrivals.push(RequestArrival::new(Cycles(far_future), ModelId::Bert));
        let (mut rejected_fleet, _) = fleet_with_replicas(1, 1);
        let report = ClusterServingSim::new(ServingOptions::new(DispatchPolicy::LeastLoaded))
            .run(&mut rejected_fleet, &ClusterTrace::from_arrivals(arrivals));
        assert_eq!(report.stats.rejected_no_replica, 1);
        assert_eq!(
            report.makespan, baseline.makespan,
            "a rejected arrival must not move the makespan"
        );
        assert_eq!(
            report.throughput_rps(&NpuConfig::single_core()),
            baseline.throughput_rps(&NpuConfig::single_core())
        );
    }

    /// A scripted controller for the lifecycle tests below: at given ticks it
    /// replays pre-programmed actions.
    pub(super) struct Script {
        pub(super) at: Vec<(usize, Vec<ControlAction>)>,
        pub(super) tick: usize,
    }

    impl ControlPlane for Script {
        fn control(
            &mut self,
            _frame: &TelemetryFrame,
            _cluster: &NpuCluster,
        ) -> Vec<ControlAction> {
            self.tick += 1;
            self.at
                .iter()
                .find(|(tick, _)| *tick == self.tick)
                .map(|(_, actions)| actions.clone())
                .unwrap_or_default()
        }
    }
}
