//! The sharded serving runner: a conservative parallel-discrete-event
//! coordinator over per-board-group [`PartitionSim`]s.
//!
//! # Partitioning model
//!
//! The fleet's boards are divided into `partitions` contiguous board-groups
//! in node-id order. Each partition owns its boards' replicas, event heap,
//! router and accumulators, and processes the arrivals a deterministic
//! [`ShardPlan`] assigns to it. The only cross-partition edges are:
//!
//! * **migration transfers** — a replica moving to a board another partition
//!   owns travels as a [`MigrationEnvelope`], priced source-side and
//!   delivered at a barrier;
//! * **telemetry / control** — the control plane runs fleet-wide at barrier
//!   ticks over the merged frame, and its actions are routed back to the
//!   owning partition;
//! * **SLO alerts** — partitions only count good and bad completions into
//!   their own windows; at alert barriers the coordinator merges them
//!   exactly into the first partition's engine, which evaluates the burn
//!   rates once, for the fleet.
//!
//! # Lookahead and rounds
//!
//! Partitions advance in bounded-window rounds. The window bound is the
//! minimum of: the next telemetry tick, the next alert tick, the next
//! scheduled migration (plus one cycle, so the triggering event itself
//! runs), and — whenever any cross-partition transfer is pending —
//! `now + lookahead`, where the lookahead is the interconnect setup latency
//! from [`npu_sim::interconnect`](npu_sim::InterconnectConfig): no cross-edge
//! effect can land sooner than one link setup. When none of these bound the
//! future, the final round runs unbounded to completion.
//!
//! # Determinism
//!
//! Same seed, trace and partition count ⇒ bit-identical merged
//! [`ServingReport`] at **every** thread count: partitions are stepped by an
//! ownership-transfer worker pool ([`crate::par`]) whose results are
//! re-sorted by partition index, barriers merge in partition-index order,
//! and no decision anywhere reads the wall clock. `partitions = 1` delegates
//! to the sequential loop, so single-partition sharded runs are bit-identical
//! to [`ClusterServingSim::run`] by construction.

use std::collections::BTreeMap;

use workloads::{ClusterTrace, ModelId};

use crate::cluster::{NpuCluster, VnpuHandle};
use crate::fault::FaultSchedule;
use crate::obs::{NoopSink, ObsSink};
use crate::par::with_pool;
use crate::serving::{
    summarize_models, ClusterServingSim, MigrationEnvelope, PartitionOutcome, PartitionSim,
    ServingOptions, ServingReport, ShardContext,
};
use crate::telemetry::{ControlAction, ControlPlane, NoopControl, TelemetryFrame};
use crate::NodeId;
use npu_sim::Cycles;

/// How a sharded run is laid out: board-group partitions and worker threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardOptions {
    /// Board-group partitions. Clamped to `[1, node_count]`.
    /// The partition count — not the thread count — is what changes the
    /// merged report: each count is its own deterministic schedule.
    pub partitions: usize,
    /// Worker threads driving the partitions. Clamped to `[1, partitions]`.
    /// Threads never change the report, only the wall-clock.
    pub threads: usize,
}

impl ShardOptions {
    /// `partitions` board-groups, one worker thread per partition.
    pub fn new(partitions: usize) -> Self {
        ShardOptions {
            partitions: partitions.max(1),
            threads: partitions.max(1),
        }
    }

    /// Overrides the worker-thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }
}

/// The deterministic arrival-ownership plan: which partition admits which
/// arrival.
///
/// Per model, each partition is weighted by its dispatchable replica count
/// (live and not draining — the sequential router's candidate set); arrival
/// `sequence` belongs to the partition holding the `sequence % total`-th
/// replica. A model with no replica anywhere falls back to
/// `sequence % partitions`, so its rejections are spread (and counted)
/// deterministically. Rebuilt at every barrier, the plan tracks migrations,
/// scale-ups and failovers with one barrier of lag — load balance drifts,
/// correctness never does: ownership only decides *which* partition's router
/// admits or rejects an arrival against its local candidates.
#[derive(Debug, Clone, Default)]
pub(crate) struct ShardPlan {
    partitions: usize,
    weights: BTreeMap<ModelId, Vec<u64>>,
}

impl ShardPlan {
    /// A plan with no replica weights (everything falls back to
    /// `sequence % partitions`).
    pub(crate) fn empty(partitions: usize) -> Self {
        ShardPlan {
            partitions: partitions.max(1),
            weights: BTreeMap::new(),
        }
    }

    /// A plan over accumulated per-model, per-partition replica counts.
    pub(crate) fn new(partitions: usize, weights: BTreeMap<ModelId, Vec<u64>>) -> Self {
        ShardPlan {
            partitions: partitions.max(1),
            weights,
        }
    }

    /// The partition that admits arrival `sequence` of `model`.
    pub(crate) fn owner(&self, model: ModelId, sequence: u64) -> usize {
        let fallback = (sequence % self.partitions as u64) as usize;
        let Some(weights) = self.weights.get(&model) else {
            return fallback;
        };
        let total: u64 = weights.iter().sum();
        if total == 0 {
            return fallback;
        }
        let mut k = sequence % total;
        for (partition, &count) in weights.iter().enumerate() {
            if k < count {
                return partition;
            }
            k -= count;
        }
        self.partitions - 1
    }
}

/// One round's unit of work: a partition with everything it mutates, moved
/// into a worker and moved back at the barrier — no shared state, nothing
/// for thread scheduling to race on.
struct ShardJob<'a, S> {
    sim: PartitionSim<'a>,
    cluster: NpuCluster,
    sink: S,
    bound: u64,
}

impl ClusterServingSim {
    /// [`ClusterServingSim::run`] over board-group partitions, optionally in
    /// parallel. Same seed and partition count ⇒ bit-identical report at any
    /// thread count; `partitions = 1` is bit-identical to the sequential run.
    ///
    /// # Example
    ///
    /// ```
    /// use cluster::{ClusterServingSim, DeploySpec, DispatchPolicy, NodeId,
    ///               NpuCluster, ServingOptions, ShardOptions};
    /// use npu_sim::NpuConfig;
    /// use workloads::{ClusterTrace, ModelId};
    ///
    /// let npu = NpuConfig::single_core();
    /// let trace = ClusterTrace::poisson(&[(ModelId::Mnist, 20_000)], 48, 11);
    /// let run = |threads: usize| {
    ///     let mut fleet = NpuCluster::homogeneous(4, &npu);
    ///     for node in 0..4 {
    ///         fleet
    ///             .deploy_pinned(DeploySpec::replica(ModelId::Mnist, 2, 2), NodeId(node))
    ///             .expect("board capacity");
    ///     }
    ///     ClusterServingSim::new(ServingOptions::new(DispatchPolicy::LeastLoaded))
    ///         .run_sharded(&mut fleet, &trace, ShardOptions::new(2).with_threads(threads))
    /// };
    /// // The thread count never changes the merged report.
    /// let single = run(1);
    /// assert_eq!(single, run(2));
    /// assert_eq!(single.stats.completed, 48);
    /// ```
    pub fn run_sharded(
        &self,
        cluster: &mut NpuCluster,
        trace: &ClusterTrace,
        shard: ShardOptions,
    ) -> ServingReport {
        let mut sinks: Vec<NoopSink> = Vec::new();
        drive(self, cluster, trace, shard, &mut NoopControl, &mut sinks)
    }

    /// [`ClusterServingSim::run_sharded`] with per-partition observability.
    ///
    /// `sinks` is cleared and refilled with one default-constructed sink per
    /// effective partition; each partition's events land in its own sink, and
    /// the caller merges them afterwards (e.g.
    /// [`TraceRecorder::merge`](crate::obs::TraceRecorder::merge)). The
    /// simulation result is unaffected by observation.
    pub fn run_sharded_observed<S: ObsSink + Send + Default>(
        &self,
        cluster: &mut NpuCluster,
        trace: &ClusterTrace,
        shard: ShardOptions,
        sinks: &mut Vec<S>,
    ) -> ServingReport {
        drive(self, cluster, trace, shard, &mut NoopControl, sinks)
    }

    /// [`ClusterServingSim::run_with_controller`] over board-group
    /// partitions: the control plane runs fleet-wide at every barrier tick,
    /// over the partitions' merged telemetry frame.
    ///
    /// # Panics
    ///
    /// Panics unless [`ServingOptions::with_telemetry`] was configured, for
    /// the same reason as [`ClusterServingSim::run_with_controller`].
    pub fn run_sharded_with_controller(
        &self,
        cluster: &mut NpuCluster,
        trace: &ClusterTrace,
        shard: ShardOptions,
        controller: &mut dyn ControlPlane,
    ) -> ServingReport {
        assert!(
            self.options().telemetry_interval.is_some(),
            "run_sharded_with_controller requires ServingOptions::with_telemetry: \
             without a sampling interval the controller is never invoked"
        );
        let mut sinks: Vec<NoopSink> = Vec::new();
        drive(self, cluster, trace, shard, controller, &mut sinks)
    }

    /// [`ClusterServingSim::run_sharded_with_controller`] with per-partition
    /// observability (see [`ClusterServingSim::run_sharded_observed`]).
    ///
    /// # Panics
    ///
    /// Panics unless [`ServingOptions::with_telemetry`] was configured.
    pub fn run_sharded_observed_with_controller<S: ObsSink + Send + Default>(
        &self,
        cluster: &mut NpuCluster,
        trace: &ClusterTrace,
        shard: ShardOptions,
        controller: &mut dyn ControlPlane,
        sinks: &mut Vec<S>,
    ) -> ServingReport {
        assert!(
            self.options().telemetry_interval.is_some(),
            "run_sharded_observed_with_controller requires ServingOptions::with_telemetry: \
             without a sampling interval the controller is never invoked"
        );
        drive(self, cluster, trace, shard, controller, sinks)
    }
}

/// The coordinator: clamps the layout, splits the fleet, drives bounded
/// rounds through the worker pool, reconciles at barriers, and merges the
/// per-partition outcomes in index order.
fn drive<S: ObsSink + Send + Default>(
    sim: &ClusterServingSim,
    cluster: &mut NpuCluster,
    trace: &ClusterTrace,
    shard: ShardOptions,
    controller: &mut dyn ControlPlane,
    sinks: &mut Vec<S>,
) -> ServingReport {
    let options = sim.options();
    let partitions = shard.partitions.clamp(1, cluster.node_count().max(1));
    if partitions <= 1 {
        sinks.clear();
        sinks.resize_with(1, S::default);
        return sim.run_loop(cluster, trace, controller, &mut sinks[0]);
    }
    let threads = shard.threads.clamp(1, partitions);

    // Contiguous board-groups in node-id order: group boundaries (and with
    // them the whole schedule) depend only on the fleet and the partition
    // count.
    let mut node_ids: Vec<NodeId> = cluster.nodes().iter().map(|node| node.id()).collect();
    node_ids.sort_unstable();
    let group = node_ids.len().div_ceil(partitions);
    let owners: BTreeMap<NodeId, usize> = node_ids
        .iter()
        .enumerate()
        .map(|(i, &node)| (node, (i / group).min(partitions - 1)))
        .collect();

    // Lookahead: no cross-partition effect lands sooner than one
    // interconnect setup.
    let lookahead = options.cost_model.interconnect.setup_cycles.max(1);
    let interval = options.telemetry_interval;

    // Scheduled cross- or intra-partition migrations bound the window so the
    // triggering event always runs before the barrier that would deliver its
    // envelope.
    let mut migration_times: Vec<u64> = options
        .migrations
        .iter()
        .map(|migration| migration.at.get())
        .collect();
    migration_times.sort_unstable();
    migration_times.dedup();

    // Per-partition options: each partition keeps the scheduled migrations
    // and faults of the boards it owns, and (for stochastic service) a seed
    // derived from its index — partition 0 keeps the base seed.
    let per_partition_options: Vec<ServingOptions> = (0..partitions)
        .map(|index| {
            let mut opts = options.clone();
            opts.migrations = options
                .migrations
                .iter()
                .filter(|migration| owners.get(&migration.handle.node) == Some(&index))
                .copied()
                .collect();
            opts.faults = options.faults.as_ref().map(|schedule| {
                schedule
                    .events()
                    .iter()
                    .filter(|event| owners.get(&event.kind.node()) == Some(&index))
                    .fold(FaultSchedule::new(), |acc, event| {
                        acc.with_fault(event.at, event.kind)
                    })
            });
            if index > 0 {
                if let Some(stochastic) = &mut opts.stochastic {
                    stochastic.seed = stochastic
                        .seed
                        .wrapping_add((index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                }
            }
            opts
        })
        .collect();

    let mut clusters: Vec<NpuCluster> = cluster.take().split(&owners, partitions);
    sinks.clear();
    sinks.resize_with(partitions, S::default);
    let arrivals = trace.arrivals();
    let mut sims: Vec<PartitionSim> = per_partition_options
        .into_iter()
        .zip(clusters.iter_mut())
        .enumerate()
        .map(|(index, (opts, part_cluster))| {
            let context = ShardContext {
                index,
                owners: owners.clone(),
                plan: ShardPlan::empty(partitions),
                exports: Vec::new(),
            };
            PartitionSim::new_sharded(opts, part_cluster, arrivals, context)
        })
        .collect();
    rebuild_plan(&mut sims, partitions);

    let mut now: u64 = 0;
    let mut next_tick = interval;
    // SLO burn rates are fleet-global: partitions only observe, and the
    // first partition's engine evaluates for the fleet at alert barriers.
    let alert_interval = options.slo.as_ref().map(|slo| slo.tick.max(1));
    let mut next_alert = alert_interval;

    let run = |job: &mut ShardJob<S>| {
        // Workers never invoke the control plane: telemetry events are not
        // armed partition-side, so the controller only runs at barriers, on
        // the coordinator thread.
        job.sim
            .step_until(job.bound, &mut job.cluster, &mut NoopControl, &mut job.sink);
    };
    with_pool(threads, &run, |execute| {
        while sims.iter().any(PartitionSim::busy) {
            let pending_remote = sims.iter().any(PartitionSim::pending_remote);
            let mut bound = u64::MAX;
            for tick in [next_tick, next_alert].into_iter().flatten() {
                bound = bound.min(tick);
            }
            if pending_remote {
                bound = bound.min(now.saturating_add(lookahead));
            }
            if let Some(&at) = migration_times.iter().find(|&&at| at >= now) {
                bound = bound.min(at.saturating_add(1));
            }

            // The round: every partition advances to the bound, in parallel.
            let jobs: Vec<(usize, ShardJob<S>)> = sims
                .drain(..)
                .zip(clusters.drain(..))
                .zip(sinks.drain(..))
                .enumerate()
                .map(|(index, ((sim, part_cluster), sink))| {
                    (
                        index,
                        ShardJob {
                            sim,
                            cluster: part_cluster,
                            sink,
                            bound,
                        },
                    )
                })
                .collect();
            for (_, job) in execute(jobs) {
                sims.push(job.sim);
                clusters.push(job.cluster);
                sinks.push(job.sink);
            }

            if bound == u64::MAX {
                // Final unbounded round: nothing bounded the future, so no
                // new cross-partition work can have appeared (scheduled
                // migrations are all in the past and no controller tick is
                // pending). The busy() re-check ends the loop.
                continue;
            }
            now = bound;

            // Barrier, phase 1: deliver cross-partition migrations, in
            // partition-index order then export order. A refused import
            // bounces home once; a second refusal abandons the replica with
            // every queued request attributed.
            for index in 0..partitions {
                let envelopes = sims[index].take_exports();
                for envelope in envelopes {
                    deliver(&mut sims, &mut clusters, sinks, &owners, envelope, now);
                }
            }

            // Barrier, phase 2: the telemetry tick — failover sweeps and
            // frame sampling per partition, then the control plane over the
            // merged fleet view, its actions routed back to the owners.
            if next_tick == Some(now) {
                if let Some(width) = interval {
                    next_tick = Some(now + width);
                }
                for index in 0..partitions {
                    sims[index].tick(&mut clusters[index], now, &mut sinks[index]);
                }
                sims[0].count_sample();
                let frame = merge_frames(&mut sims, now);
                // The control plane sees the whole fleet, so the partitions'
                // clusters are absorbed back into one; scale-ups place
                // against fleet-wide capacity, then everything re-splits.
                let mut fleet = NpuCluster::absorb(std::mem::take(&mut clusters));
                let actions = controller.control(&frame, &fleet);
                let mut adoptions: Vec<(VnpuHandle, ControlAction)> = Vec::new();
                let mut rejected: Vec<ControlAction> = Vec::new();
                let mut routed: Vec<ControlAction> = Vec::new();
                for action in actions {
                    match action {
                        ControlAction::ScaleUp { spec, placement } => {
                            match fleet.deploy(spec, placement) {
                                Ok(handle) => adoptions.push((handle, action)),
                                Err(_) => rejected.push(action),
                            }
                        }
                        ControlAction::ScaleDown { .. } | ControlAction::Migrate { .. } => {
                            routed.push(action)
                        }
                    }
                }
                clusters = fleet.split(&owners, partitions);
                for (handle, action) in adoptions {
                    let owner = owners.get(&handle.node).copied().unwrap_or(0);
                    sims[owner].adopt_replica(
                        &clusters[owner],
                        handle,
                        now,
                        &action,
                        &mut sinks[owner],
                    );
                }
                for action in rejected {
                    sims[0].note_scale_up_rejected(now, &action, &mut sinks[0]);
                }
                for action in routed {
                    let owner = match &action {
                        ControlAction::ScaleDown { handle } => handle.node,
                        ControlAction::Migrate { handle, .. } => handle.node,
                        ControlAction::ScaleUp { .. } => unreachable!("partitioned above"),
                    };
                    let owner = owners.get(&owner).copied().unwrap_or(0);
                    sims[owner].apply_action(&mut clusters[owner], action, now, &mut sinks[owner]);
                }
            }

            // Barrier, phase 3: the alert tick, after the telemetry tick of
            // the same cycle as in the sequential event order. Every
            // partition's SLO windows merge exactly into the first's, which
            // evaluates once and delivers the edges to its report, its sink
            // and the control plane.
            if next_alert == Some(now) {
                next_alert = alert_interval.map(|width| now + width);
                if let Some((fleet, rest)) = sims.split_first_mut() {
                    for partition in rest {
                        partition.hand_slo_to(fleet);
                    }
                    fleet.alert_tick(controller, now, &mut sinks[0]);
                }
            }

            // Barrier, phase 4: refresh the arrival-ownership plan from the
            // post-reconciliation replica placement.
            rebuild_plan(&mut sims, partitions);
        }
    });

    let mut outcomes = sims
        .into_iter()
        .zip(sinks.iter_mut())
        .map(|(partition, sink)| partition.finish(sink));
    let mut merged: PartitionOutcome = outcomes.next().expect("at least one partition"); // simlint::allow(P1, reason = "partitions is clamped to at least 1 above")
    for outcome in outcomes {
        merged.merge(outcome);
    }
    *cluster = NpuCluster::absorb(clusters);
    merged.into_report()
}

/// Delivers one envelope to the partition owning its destination board,
/// bouncing it back to its source partition on a refused import and
/// abandoning it (with full loss attribution) if the bounce is refused too.
fn deliver<S: ObsSink>(
    sims: &mut [PartitionSim],
    clusters: &mut [NpuCluster],
    sinks: &mut [S],
    owners: &BTreeMap<NodeId, usize>,
    envelope: MigrationEnvelope,
    now: u64,
) {
    let target = owners.get(&envelope.to_node).copied().unwrap_or(0);
    let Err(mut envelope) =
        sims[target].import_replica(&mut clusters[target], envelope, now, &mut sinks[target])
    else {
        return;
    };
    sims[target].note_migration_rejected();
    if envelope.bounced {
        let source = owners.get(&envelope.from_node).copied().unwrap_or(0);
        sims[source].abandon_envelope(*envelope, now, &mut sinks[source]);
        return;
    }
    envelope.bounced = true;
    envelope.to_node = envelope.from_node;
    let source = owners.get(&envelope.to_node).copied().unwrap_or(0);
    if let Err(envelope) =
        sims[source].import_replica(&mut clusters[source], *envelope, now, &mut sinks[source])
    {
        sims[source].abandon_envelope(*envelope, now, &mut sinks[source]);
    }
}

/// Rebuilds the arrival-ownership plan from every partition's current
/// dispatchable replicas and installs it everywhere.
fn rebuild_plan(sims: &mut [PartitionSim], partitions: usize) {
    let mut weights: BTreeMap<ModelId, Vec<u64>> = BTreeMap::new();
    for partition in sims.iter() {
        partition.accumulate_weights(&mut weights, partitions);
    }
    let plan = ShardPlan::new(partitions, weights);
    for partition in sims.iter_mut() {
        partition.set_plan(plan.clone());
    }
}

/// Merges the partitions' telemetry frames into one fleet view for the
/// control plane, in partition-index order: the replica samples concatenate,
/// and the partitions' raw telemetry windows merge exactly and are
/// summarized once, so every model sample is that of one fleet-wide window.
fn merge_frames(sims: &mut [PartitionSim], now: u64) -> TelemetryFrame {
    let mut frame = TelemetryFrame {
        at: Cycles(now),
        window: Cycles::ZERO,
        replicas: Vec::new(),
        models: BTreeMap::new(),
    };
    let mut windows = BTreeMap::new();
    for partition in sims.iter_mut() {
        let part = partition.frame();
        // Every partition ticked at this barrier, so the windows agree.
        frame.window = part.window;
        frame.replicas.extend(part.replicas.iter().copied());
        partition.drain_windows(&mut windows);
    }
    summarize_models(&mut frame, Some(&mut windows));
    frame
}
