//! One partition of the serving event loop: the replica table, the run's
//! accounting, and the step function with its arrival, batch, completion,
//! telemetry and control edges.

use std::collections::BTreeMap;
use std::sync::Arc;

use neu10::{DeadlineStats, QuantileSketch};
use npu_sim::Cycles;
use rand::rngs::StdRng;
use rand::SeedableRng;
use workloads::{ModelId, RequestArrival};

use crate::cluster::{NpuCluster, VnpuHandle};
use crate::fault::ChaosState;
use crate::migration::MigrationRecord;
use crate::obs::window::Merge;
use crate::obs::{AlertLog, AlertTransition, FleetCounters, ObsSink, RejectReason, SloEngine};
use crate::router::{CandidateState, DispatchDecision, ReplicaIndex, Router};
use crate::sharded::ShardPlan;
use crate::telemetry::{
    ControlAction, ControlPlane, ControlStats, ModelSample, ReplicaSample, TelemetryFrame,
};
use crate::NodeId;

use super::calibration::{lognormal_factor, CalibrationCache};
use super::events::{EventQueue, LinkSchedule};
use super::migrate::{MigrationEnvelope, PreCopyFlight};
use super::queue::{QueuedRequest, ReplicaQueue};
use super::{PartitionOutcome, PerfStats, ServingOptions};

// Event kinds, ordered so that at equal timestamps completions free capacity
// before resumes re-open replicas, batch-formation timeouts fire on settled
// queues, pre-copy rounds see the dirt of same-cycle completions, migrations
// trigger next, telemetry samples observe the fully settled state, and SLO
// alert ticks evaluate after the tick's data has landed.
pub(super) const EV_COMPLETION: u8 = 0;
pub(super) const EV_RESUME: u8 = 1;
pub(super) const EV_BATCH_TIMEOUT: u8 = 2;
pub(super) const EV_COPY_ROUND: u8 = 3;
pub(super) const EV_MIGRATION: u8 = 4;
pub(super) const EV_SAMPLE: u8 = 5;
pub(super) const EV_ALERT: u8 = 6;
/// Fault injections sort after the observers at equal timestamps (the tick
/// sees the pre-fault fleet; the fault lands next) and — like samples and
/// alerts — never count as pending *work*: a schedule whose tail outlives
/// the traffic must not keep the run alive on its own.
pub(super) const EV_FAULT: u8 = 7;

#[derive(Debug)]
pub(super) struct ReplicaSim {
    pub(super) handle: VnpuHandle,
    pub(super) model: ModelId,
    /// Calibrated service time of a k-request batch at `batch_cycles[k - 1]`.
    /// Shared with every replica of the same (model, allocation, board)
    /// shape through the [`CalibrationCache`].
    pub(super) batch_cycles: Arc<[u64]>,
    /// Calibrated service-time coefficient of variation (0 = deterministic).
    pub(super) cv: f64,
    pub(super) queue: ReplicaQueue,
    /// The batch in service with its (start, finish) times.
    pub(super) in_service: Option<(Vec<QueuedRequest>, u64, u64)>,
    pub(super) available_at: u64,
    pub(super) pending_migration: Option<(NodeId, u64)>,
    /// A live pre-copy migration in flight: the replica keeps serving while
    /// copy rounds stream its state, until the stop-and-copy.
    pub(super) precopy: Option<PreCopyFlight>,
    /// The batch-formation timeout currently armed, if any.
    pub(super) batch_timeout_at: Option<u64>,
    /// Scale-down requested: no new dispatches; released once drained.
    pub(super) draining: bool,
    /// Drained and released — the slot is dead (indices stay stable).
    pub(super) retired: bool,
    /// Fenced by fault injection: the board is (or is presumed) dead, its
    /// in-service batch will never complete and its queue black-holes until
    /// failover takes the orphans. Stale completion events for fenced
    /// replicas are discarded.
    pub(super) fenced: bool,
    /// When the replica was deployed (0 for the initial fleet).
    pub(super) activated_at: u64,
    /// Busy cycles accumulated since the last telemetry tick.
    pub(super) window_busy: u64,
}

impl ReplicaSim {
    fn unavailable(&self, now: u64) -> bool {
        now < self.available_at || self.pending_migration.is_some()
    }

    /// Requests in the batch currently being served.
    fn in_flight(&self) -> usize {
        self.in_service
            .as_ref()
            .map_or(0, |(batch, _, _)| batch.len())
    }

    /// Queued plus in-flight requests: the load the dispatch index files a
    /// routable replica under.
    pub(super) fn outstanding(&self) -> usize {
        self.queue.len() + self.in_flight()
    }

    /// Whether the replica participates in routing and telemetry.
    pub(super) fn live(&self) -> bool {
        !self.retired
    }

    /// Fences the replica: its board is (or is presumed) dead, so nothing
    /// it had in motion — a drain-then-move, a pre-copy, a held batch —
    /// will ever finish.
    pub(super) fn fence(&mut self) {
        self.fenced = true;
        self.pending_migration = None;
        self.precopy = None;
        self.batch_timeout_at = None;
    }

    /// What the router probes of this replica at `now`. With
    /// `avoid_migrating`, a live pre-copy in flight reads as unavailable, so
    /// the router steers around its imminent stop-and-copy while any clean
    /// replica exists.
    fn candidate(&self, now: u64, avoid_migrating: bool) -> CandidateState {
        CandidateState {
            queue_len: self.queue.len(),
            in_flight: self.in_flight(),
            available: !(self.unavailable(now) || (avoid_migrating && self.precopy.is_some())),
        }
    }
}

/// The per-model accumulators of the current telemetry window: everything
/// a frame's [`ModelSample`] summarizes at the next tick.
#[derive(Debug, Default)]
pub(crate) struct ModelWindow {
    latency: QuantileSketch,
    deadline: DeadlineStats,
    arrivals: usize,
    rejected: usize,
}

impl Merge for ModelWindow {
    fn merge(&mut self, other: &Self) {
        let ModelWindow {
            latency,
            deadline,
            arrivals,
            rejected,
        } = other;
        self.latency.merge(latency);
        self.deadline.merge(deadline);
        self.arrivals += arrivals;
        self.rejected += rejected;
    }

    /// Keeps the sketch's buffer, so a steady-state window allocates
    /// nothing.
    fn reset(&mut self) {
        self.latency.clear();
        self.deadline = DeadlineStats::default();
        self.arrivals = 0;
        self.rejected = 0;
    }
}

impl ModelWindow {
    /// Summarizes the window into `sample` and starts the next one.
    pub(crate) fn flush_into(&mut self, sample: &mut ModelSample) {
        sample.latency = self.latency.summary_sorted();
        sample.deadline = self.deadline;
        sample.arrivals = self.arrivals;
        sample.rejected = self.rejected;
        self.reset();
    }
}

/// Rebuilds `frame.models` in place from `frame.replicas` and, when given,
/// the closing telemetry `windows` (which then start afresh): models with
/// neither a live replica nor a window are dropped, the rest reset, new ones
/// inserted. Over a stable fleet this allocates nothing, and the result is
/// bit-identical to a fresh build.
pub(crate) fn summarize_models(
    frame: &mut TelemetryFrame,
    mut windows: Option<&mut BTreeMap<ModelId, ModelWindow>>,
) {
    frame.models.retain(|model, entry| {
        *entry = ModelSample::empty(*model);
        windows.as_ref().is_some_and(|w| w.contains_key(model))
            || frame.replicas.iter().any(|sample| sample.model == *model)
    });
    for sample in &frame.replicas {
        let entry = frame
            .models
            .entry(sample.model)
            .or_insert_with(|| ModelSample::empty(sample.model));
        if !sample.draining {
            entry.replicas += 1;
        }
        entry.queued += sample.queue_len;
        entry.in_flight += sample.in_flight;
    }
    for (model, window) in windows.iter_mut().flat_map(|windows| windows.iter_mut()) {
        window.flush_into(
            frame
                .models
                .entry(*model)
                .or_insert_with(|| ModelSample::empty(*model)),
        );
    }
}

/// The run's accounting: deadline, telemetry-window, SLO and chaos ledgers,
/// plus the batch RNG and buffer pool. Kept apart from the replica table so
/// an edge can charge it while it holds a replica borrowed.
#[derive(Debug)]
pub(super) struct ServeState {
    rng: Option<StdRng>,
    deadline: DeadlineStats,
    batches: usize,
    /// Start of the current telemetry window.
    window_start: u64,
    /// Per-model accumulators of the current telemetry window; `None`
    /// unless [`ServingOptions::with_telemetry`] turned the bus on.
    windows: Option<BTreeMap<ModelId, ModelWindow>>,
    pub(super) control: ControlStats,
    /// Replica-time already banked by released replicas.
    replica_cycles: u64,
    /// Recycled batch buffers: completions return their request vector here
    /// and batch formation reuses one, so steady-state serving allocates no
    /// batch storage.
    pub(super) batch_pool: Vec<Vec<QueuedRequest>>,
    /// Live (non-retired) replicas right now.
    live_replicas: usize,
    /// Largest `live_replicas` seen over the run.
    peak_replicas: usize,
    /// The SLO burn-rate engine, fed by completions and expiries; `None`
    /// unless [`ServingOptions::with_slo`] configured one.
    pub(super) slo: Option<SloEngine>,
    /// Alert edges emitted so far (lands in the report).
    alerts: AlertLog,
    /// Chaos bookkeeping; `None` unless [`ServingOptions::with_faults`]
    /// scheduled faults. The fault-free hot path pays one discriminant check.
    pub(super) chaos: Option<ChaosState>,
}

impl ServeState {
    fn window_of(&mut self, model: ModelId) -> Option<&mut ModelWindow> {
        self.windows
            .as_mut()
            .map(|windows| windows.entry(model).or_default())
    }

    /// Drops `request`, queued at `slot` on `node`, because its deadline
    /// passed: the deadline ledger, the telemetry window, the SLO engine
    /// (an expiry is an unmet request that burns every covering error
    /// budget) and the sink all see it.
    pub(super) fn expire<S: ObsSink + ?Sized>(
        &mut self,
        now: u64,
        request: &QueuedRequest,
        node: NodeId,
        slot: usize,
        sink: &mut S,
    ) {
        self.deadline.record_dropped();
        if let Some(window) = self.window_of(request.model) {
            window.deadline.record_dropped();
        }
        if let Some(engine) = &mut self.slo {
            engine.observe_expired(now, request.model, request.priority);
        }
        sink.on_expire(
            now,
            request.sequence,
            request.model,
            request.arrived,
            node,
            slot,
        );
    }

    /// Link cycles of a `cycles`-long transfer on the `(a, b)` link at
    /// `now`, inflated by any open chaos link-degradation window. Pre-copy
    /// rounds, stop-and-copy windows and cross-partition exports all price
    /// through here, so a degraded (or partitioned) link stresses migration
    /// as much as recovery.
    pub(super) fn link_cycles(&self, a: NodeId, b: NodeId, now: u64, cycles: u64) -> u64 {
        self.chaos
            .as_ref()
            .map_or(cycles, |chaos| chaos.link_cycles(a, b, now, cycles))
    }
}

/// Per-partition view of the sharded world: which partition this is, who owns
/// each board, how arrivals are routed, and the replicas exported since the
/// last barrier. `None` on the sequential path — every shard-aware branch in
/// the step function keys off that, so `partitions = 1` is the sequential
/// code path by construction.
pub(crate) struct ShardContext {
    pub(crate) index: usize,
    pub(crate) owners: BTreeMap<NodeId, usize>,
    pub(crate) plan: ShardPlan,
    pub(crate) exports: Vec<MigrationEnvelope>,
}

impl ShardContext {
    fn owner_of(&self, node: NodeId) -> usize {
        self.owners.get(&node).copied().unwrap_or(0)
    }

    fn owns(&self, node: NodeId) -> bool {
        self.owner_of(node) == self.index
    }
}

/// One partition of the serving event loop: a set of boards with its own
/// event heap, replica table, router, RNG and accumulators.
///
/// The sequential `run*` entry points drive a single partition owning the
/// whole cluster to completion in one unbounded round; the sharded runner
/// drives one partition per board-group in bounded-window rounds, merging
/// cross-partition traffic at each barrier. All mutable simulation state
/// lives here so a partition can be stepped to a bound, reconciled, and
/// resumed without losing determinism. Every edge of the loop is a method
/// that reads the run's [`ServingOptions`] in place.
pub(crate) struct PartitionSim<'a> {
    pub(super) options: ServingOptions,
    cache: CalibrationCache,
    pub(super) replicas: Vec<ReplicaSim>,
    pub(super) dispatch_index: ReplicaIndex,
    pub(super) router: Router,
    pub(super) state: ServeState,
    pub(super) events: EventQueue,
    pub(super) links: LinkSchedule,
    /// Whether fenced (undetected-dead) replicas count as pending work: only
    /// while recovery will eventually drain them. Without recovery they
    /// would sustain the telemetry bus forever and the run could never end.
    recovery_armed: bool,
    /// Alert-edge scratch, reused across alert ticks.
    alert_scratch: Vec<AlertTransition>,
    /// Telemetry scratch, reused across ticks: the frame's vectors and model
    /// map persist, so steady-state sampling allocates nothing.
    frame: TelemetryFrame,
    arrivals: &'a [RequestArrival],
    next_arrival: usize,
    makespan: u64,
    perf: PerfStats,
    latencies: QuantileSketch,
    per_model: BTreeMap<ModelId, QuantileSketch>,
    per_node_completed: BTreeMap<NodeId, usize>,
    pub(super) migration_records: Vec<MigrationRecord>,
    /// `Some` only under the sharded runner; `None` keeps every shard-aware
    /// branch dead on the sequential path.
    pub(super) shard: Option<ShardContext>,
}

impl<'a> PartitionSim<'a> {
    /// Builds a partition over `cluster`'s current deployments, arming the
    /// scheduled migration, fault, telemetry and alert events.
    pub(crate) fn new(
        options: ServingOptions,
        cluster: &NpuCluster,
        arrivals: &'a [RequestArrival],
    ) -> Self {
        Self::build(options, cluster, arrivals, None)
    }

    /// Builds one partition of a sharded run. Telemetry and alert events are
    /// never armed partition-side — the coordinator drives sampling and SLO
    /// evaluation at the barrier so the control plane and the burn rates see
    /// the whole fleet, not one shard.
    pub(crate) fn new_sharded(
        options: ServingOptions,
        cluster: &NpuCluster,
        arrivals: &'a [RequestArrival],
        shard: ShardContext,
    ) -> Self {
        Self::build(options, cluster, arrivals, Some(shard))
    }

    fn build(
        options: ServingOptions,
        cluster: &NpuCluster,
        arrivals: &'a [RequestArrival],
        shard: Option<ShardContext>,
    ) -> Self {
        let mut events = EventQueue::default();
        for (index, migration) in options.migrations.iter().enumerate() {
            events.push(migration.at.get(), EV_MIGRATION, index);
        }
        if let Some(schedule) = &options.faults {
            for (index, fault) in schedule.events().iter().enumerate() {
                events.push(fault.at, EV_FAULT, index);
            }
        }
        let slo = options.slo.as_ref().map(SloEngine::new);
        // Sharded partitions never self-sample or self-evaluate: the
        // coordinator ticks both at the barrier over the merged fleet.
        if shard.is_none() {
            if let Some(interval) = options.telemetry_interval {
                events.push(interval, EV_SAMPLE, 0);
            }
            if let Some(engine) = &slo {
                events.push(engine.tick(), EV_ALERT, 0);
            }
        }
        let state = ServeState {
            rng: options.stochastic.map(|s| StdRng::seed_from_u64(s.seed)),
            deadline: DeadlineStats::default(),
            batches: 0,
            window_start: 0,
            windows: options.telemetry_interval.map(|_| BTreeMap::new()),
            control: ControlStats::default(),
            replica_cycles: 0,
            batch_pool: Vec::new(),
            live_replicas: 0,
            peak_replicas: 0,
            slo,
            alerts: AlertLog::default(),
            chaos: options
                .faults
                .as_ref()
                .map(|schedule| ChaosState::new(schedule, options.recovery)),
        };
        let mut partition = PartitionSim {
            recovery_armed: options.faults.is_some() && options.recovery.is_some(),
            router: Router::new(options.dispatch, options.admission),
            options,
            cache: CalibrationCache::default(),
            replicas: Vec::new(),
            // The dispatch index mirrors the replica table incrementally:
            // slots enter on deploy, re-file at every load edge, leave the
            // routable sets on drain, re-key on migration and die on
            // release. Every arrival then walks only the candidates of its
            // model, least loaded first, instead of scanning the table.
            dispatch_index: ReplicaIndex::new(),
            state,
            events,
            links: LinkSchedule::default(),
            alert_scratch: Vec::new(),
            frame: TelemetryFrame {
                at: Cycles::ZERO,
                window: Cycles::ZERO,
                replicas: Vec::new(),
                models: BTreeMap::new(),
            },
            arrivals,
            next_arrival: 0,
            makespan: 0,
            perf: PerfStats::default(),
            // Latency accumulators are streaming quantile sketches, not
            // retained per-sample vectors: exact (and summary-bit-identical
            // to the seed's sort-then-summarize) below the sketch cap,
            // α-bounded and O(1) memory beyond it — a 10M-arrival run no
            // longer holds 80MB of samples to answer four percentiles.
            latencies: QuantileSketch::with_capacity_hint(arrivals.len()),
            per_model: BTreeMap::new(),
            per_node_completed: BTreeMap::new(),
            migration_records: Vec::new(),
            shard,
        };
        for deployment in cluster.deployments() {
            partition.add_replica(cluster, deployment.handle, 0);
        }
        partition
    }

    /// Advances the partition until no work remains or the next event or
    /// arrival is at or past `bound` — events exactly at `bound` run in the
    /// next round, after the barrier reconciliation, which is what makes
    /// barrier-injected events (always stamped ≥ the barrier time) safe. The
    /// sequential path passes `u64::MAX`: one unbounded round to completion.
    pub(crate) fn step_until<S: ObsSink + ?Sized>(
        &mut self,
        bound: u64,
        cluster: &mut NpuCluster,
        controller: &mut dyn ControlPlane,
        sink: &mut S,
    ) {
        loop {
            let event_time = self.events.next_time();
            let arrival_time = self.arrivals.get(self.next_arrival).map(|a| a.at.get());
            let take_event = match (event_time, arrival_time) {
                (None, None) => break,
                (Some(t), Some(at)) => t <= at,
                (Some(_), None) => true,
                (None, Some(_)) => false,
            };
            let due = if take_event { event_time } else { arrival_time };
            match due {
                Some(t) if t < bound => {}
                _ => break,
            }
            if !take_event {
                let arrival = self.arrivals[self.next_arrival];
                self.next_arrival += 1;
                self.arrive(arrival, sink);
                continue;
            }

            let (now, kind, index) = self.events.pop().expect("peeked above"); // simlint::allow(P1, reason = "pop follows the peek that chose the event branch")
            self.perf.events += 1;
            match kind {
                EV_COMPLETION => self.complete(cluster, index, now, sink),
                EV_RESUME => {
                    // Only real work moves the makespan: completions, and
                    // executed migrations via their resume event.
                    self.makespan = self.makespan.max(now);
                    self.start_next(index, now, sink);
                    self.retire_if_drained(cluster, index, now);
                }
                EV_BATCH_TIMEOUT => {
                    // Stale timeouts (the batch filled, or the queue was
                    // served/dropped meanwhile) are ignored; `start_next`
                    // re-arms a fresh one when it holds again.
                    if self.replicas[index].batch_timeout_at == Some(now) {
                        self.replicas[index].batch_timeout_at = None;
                        self.start_next(index, now, sink);
                    }
                }
                EV_COPY_ROUND => self.copy_round(cluster, index, now, sink),
                EV_MIGRATION => {
                    let scheduled = self.options.migrations[index];
                    // A stale handle (already moved or undeployed) is skipped.
                    if let Some(slot) = self.dispatch_index.slot_of(scheduled.handle) {
                        self.migrate(cluster, slot, scheduled.to, scheduled.mode, now, sink);
                    }
                }
                EV_FAULT => self.inject_fault(cluster, index, now, sink),
                EV_SAMPLE => self.sample_tick(cluster, controller, now, sink),
                EV_ALERT => self.alert_tick(controller, now, sink),
                _ => unreachable!("unknown event kind"),
            }
        }
    }

    /// Routes one trace arrival: admitted requests join their replica's
    /// queue (and may start a batch), rejected ones only reach the window
    /// counters and the sink.
    fn arrive<S: ObsSink + ?Sized>(&mut self, arrival: RequestArrival, sink: &mut S) {
        // Sharded runs share the trace slice: each partition walks every
        // arrival but admits only those the deterministic plan assigns to
        // it, so arrival counters sum to the trace length across partitions.
        if let Some(context) = &self.shard {
            if context.plan.owner(arrival.model, arrival.sequence) != context.index {
                return;
            }
        }
        self.perf.arrivals += 1;
        let now = arrival.at.get();
        sink.on_arrival(now, arrival.sequence, arrival.model);
        match self.route(arrival.model, now, false) {
            DispatchDecision::Dispatch(index) => {
                if let Some(window) = self.state.window_of(arrival.model) {
                    window.arrivals += 1;
                }
                if let Some(chaos) = &mut self.state.chaos {
                    chaos.note_admitted(arrival.model);
                }
                sink.on_dispatch(
                    now,
                    arrival.sequence,
                    arrival.model,
                    self.replicas[index].handle.node,
                    index,
                );
                self.enqueue(
                    index,
                    QueuedRequest {
                        model: arrival.model,
                        arrived: now,
                        deadline: arrival.deadline.map(|d| d.get()),
                        priority: arrival.priority,
                        sequence: arrival.sequence,
                    },
                );
                self.start_next(index, now, sink);
            }
            decision @ (DispatchDecision::RejectNoReplica | DispatchDecision::RejectOverload) => {
                if let Some(window) = self.state.window_of(arrival.model) {
                    window.rejected += 1;
                }
                let reason = if matches!(decision, DispatchDecision::RejectNoReplica) {
                    RejectReason::NoReplica
                } else {
                    RejectReason::Overload
                };
                sink.on_reject(now, arrival.sequence, arrival.model, reason);
            }
        }
    }

    /// Picks the replica for one request of `model` at `now` — a trace
    /// arrival, or with `orphan` an already admitted request failover moves
    /// off a dead board (selected alike, but not counted again).
    pub(super) fn route(&mut self, model: ModelId, now: u64, orphan: bool) -> DispatchDecision {
        let replicas = &self.replicas;
        let avoid_migrating = self.options.migration_aware_dispatch;
        let probe = |slot: usize| replicas[slot].candidate(now, avoid_migrating);
        if orphan {
            self.router.redispatch(model, &self.dispatch_index, probe)
        } else {
            self.router.dispatch(model, &self.dispatch_index, probe)
        }
    }

    /// Queues an admitted request on replica `slot`, FIFO or EDF-ordered
    /// (the queue variant was fixed at replica construction), and re-files
    /// the slot under its new load in the same step.
    pub(super) fn enqueue(&mut self, slot: usize, request: QueuedRequest) {
        let replica = &mut self.replicas[slot];
        replica.queue.push(request);
        self.dispatch_index.set_load(slot, replica.outstanding());
    }

    /// Finishes the batch in service on replica `index`, then moves the
    /// replica on: a pending drain-then-move executes, otherwise the next
    /// batch starts (or a drained replica retires).
    fn complete<S: ObsSink + ?Sized>(
        &mut self,
        cluster: &mut NpuCluster,
        index: usize,
        now: u64,
        sink: &mut S,
    ) {
        // A fenced board never reports: the batch stays captured in
        // `in_service` so failover (or the end-of-run sweep) can account for
        // every request.
        if self.replicas[index].fenced {
            return;
        }
        self.makespan = self.makespan.max(now);
        let replica = &mut self.replicas[index];
        let (mut batch, started, finish) = replica
            .in_service
            .take()
            .expect("completion without service"); // simlint::allow(P1, reason = "EV_COMPLETION is only scheduled while a batch is in service")
        debug_assert_eq!(finish, now);
        self.dispatch_index.set_load(index, replica.outstanding());
        replica.window_busy += finish - started.max(self.state.window_start);
        for request in &batch {
            let latency = now.saturating_sub(request.arrived);
            self.latencies.record(latency);
            self.per_model
                .entry(request.model)
                .or_default()
                .record(latency);
            if let Some(window) = self.state.window_of(request.model) {
                window.latency.record(latency);
            }
            let mut deadline_met = None;
            if let Some(deadline) = request.deadline {
                let met = now <= deadline;
                deadline_met = Some(met);
                self.state.deadline.record_completion(met);
                if let Some(window) = self.state.window_of(request.model) {
                    window.deadline.record_completion(met);
                }
            }
            self.router.record_completion();
            if let Some(chaos) = &mut self.state.chaos {
                chaos.note_completed(request.model);
            }
            if let Some(engine) = &mut self.state.slo {
                engine.observe_latency(now, request.model, request.priority, latency);
            }
            sink.on_complete(
                now,
                request.sequence,
                request.model,
                request.priority,
                request.arrived,
                replica.handle.node,
                index,
                deadline_met,
            );
        }
        *self
            .per_node_completed
            .entry(replica.handle.node)
            .or_default() += batch.len();
        // A live pre-copy in flight: the served batch wrote its share of
        // resident state, re-dirtying pages the rounds must stream again.
        if let Some(precopy) = &mut replica.precopy {
            precopy
                .dirty
                .mark(batch.len() as u64 * precopy.dirty_bytes_per_request);
        }
        batch.clear();
        self.state.batch_pool.push(batch);
        if let Some((to, requested_at)) = replica.pending_migration.take() {
            let drain = now.saturating_sub(requested_at);
            self.execute_migration(cluster, index, now, to, drain, sink);
        } else {
            self.start_next(index, now, sink);
            self.retire_if_drained(cluster, index, now);
        }
    }

    /// Starts the next service pass if replica `index` is idle and
    /// available: drops expired requests (when enabled), then collects up to
    /// `max_batch` queued requests into one batch — unless a batch-formation
    /// window is configured and still open, in which case the queue is held
    /// (bounded by `max_batch_wait`) to let the batch fill.
    pub(super) fn start_next<S: ObsSink + ?Sized>(&mut self, index: usize, now: u64, sink: &mut S) {
        let replica = &mut self.replicas[index];
        if replica.retired
            || replica.fenced
            || replica.in_service.is_some()
            || now < replica.available_at
        {
            return;
        }
        // Defense in depth for chaos runs: no batch ever starts on a board
        // that is down right now (the fenced flag and the hang's
        // `available_at` push normally make this unreachable).
        if let Some(chaos) = &self.state.chaos {
            if chaos.board_down(replica.handle.node, now) {
                return;
            }
        }
        if self.options.drop_expired {
            let state = &mut self.state;
            let node = replica.handle.node;
            replica.queue.retain(|queued| match queued.deadline {
                Some(d) if d < now => {
                    state.expire(now, queued, node, index, sink);
                    false
                }
                _ => true,
            });
            self.dispatch_index.set_load(index, replica.outstanding());
        }
        if replica.queue.is_empty() {
            return;
        }
        // Hold a sub-max_batch queue while the batch-formation window is
        // open; draining replicas flush immediately (their batch can never
        // fill again).
        let max_batch = self.options.max_batch.max(1);
        if replica.queue.len() < max_batch && !replica.draining {
            if let Some(wait) = self.options.max_batch_wait {
                let oldest = replica.queue.oldest_arrival().expect("non-empty queue"); // simlint::allow(P1, reason = "the empty-queue case returned above")
                let due = oldest.saturating_add(wait);
                if now < due {
                    if replica.batch_timeout_at.is_none() {
                        replica.batch_timeout_at = Some(due);
                        self.events.push(due, EV_BATCH_TIMEOUT, index);
                    }
                    return;
                }
            }
        }
        replica.batch_timeout_at = None;
        let size = replica.queue.len().min(max_batch);
        let mut batch = self.state.batch_pool.pop().unwrap_or_default();
        replica.queue.drain_into(size, &mut batch);
        let base = replica.batch_cycles[size - 1];
        let factor = match &mut self.state.rng {
            Some(rng) => lognormal_factor(rng, replica.cv),
            None => 1.0,
        };
        let mut service = ((base as f64 * factor) as u64).max(1);
        // A straggler window inflates every batch *started* on the board.
        if let Some(chaos) = &self.state.chaos {
            let straggle = chaos.service_factor(replica.handle.node, now);
            if straggle > 1.0 {
                service = ((service as f64 * straggle) as u64).max(service);
            }
        }
        let finish = now + service;
        // Batch-member iteration is extra work the disabled path must never
        // pay; an active sink sees each member's queue span, then the batch.
        if sink.active() {
            for request in &batch {
                sink.on_service_request(
                    now,
                    request.sequence,
                    request.model,
                    request.arrived,
                    replica.handle.node,
                    index,
                );
            }
            sink.on_service_batch(now, finish, replica.model, replica.handle.node, index, size);
        }
        replica.in_service = Some((batch, now, finish));
        self.state.batches += 1;
        self.events.push(finish, EV_COMPLETION, index);
    }

    /// Brings deployment `handle` into the simulation as a new replica slot
    /// serving from `now`, and returns the slot.
    pub(super) fn add_replica(
        &mut self,
        cluster: &NpuCluster,
        handle: VnpuHandle,
        now: u64,
    ) -> usize {
        // simlint::allow(P1, reason = "every caller passes a handle the cluster has just deployed")
        let deployment = cluster.deployment(handle).expect("a deployed handle");
        let replica = self
            .cache
            .replica_sim(&self.options, cluster, deployment, now);
        let slot = self.replicas.len();
        self.dispatch_index.insert(slot, replica.model, handle);
        self.replicas.push(replica);
        self.state.live_replicas += 1;
        self.state.peak_replicas = self.state.peak_replicas.max(self.state.live_replicas);
        slot
    }

    /// Releases replica `slot` for good: its vNPU returns to the cluster, it
    /// leaves the dispatch index (under the load it is filed at, so callers
    /// may empty its queue first), and its provisioned time is banked.
    pub(super) fn release_replica(&mut self, cluster: &mut NpuCluster, slot: usize, now: u64) {
        let replica = &mut self.replicas[slot];
        let handle = replica.handle;
        self.dispatch_index.evict(slot);
        replica.retired = true;
        replica.batch_timeout_at = None;
        replica.pending_migration = None;
        self.state.replica_cycles += now.saturating_sub(replica.activated_at);
        self.state.live_replicas -= 1;
        let released = cluster.undeploy(handle).is_ok();
        debug_assert!(
            released,
            "a live replica's deployment must exist at release"
        );
    }

    /// Releases replica `index` once a scale-down has fully drained it.
    fn retire_if_drained(&mut self, cluster: &mut NpuCluster, index: usize, now: u64) {
        let replica = &self.replicas[index];
        if !replica.draining
            || replica.retired
            || replica.in_service.is_some()
            || !replica.queue.is_empty()
            || replica.pending_migration.is_some()
        {
            return;
        }
        self.release_replica(cluster, index, now);
        self.state.control.released += 1;
    }

    /// The telemetry tick of a sequential run: the partition-side
    /// [`tick`](Self::tick), then the control plane over the fresh frame,
    /// then the next tick while work remains.
    fn sample_tick<S: ObsSink + ?Sized>(
        &mut self,
        cluster: &mut NpuCluster,
        controller: &mut dyn ControlPlane,
        now: u64,
        sink: &mut S,
    ) {
        let interval = self.options.telemetry_interval.expect("sampling scheduled"); // simlint::allow(P1, reason = "EV_SAMPLE is only scheduled when sampling is configured")
        self.tick(cluster, now, sink);
        self.state.control.samples += 1;
        for action in controller.control(&self.frame, cluster) {
            self.apply_action(cluster, action, now, sink);
        }
        // Keep ticking only while there is (or can be) work: the bus must
        // not keep an otherwise-finished run alive forever.
        if self.work_left() {
            self.events.push(now + interval, EV_SAMPLE, 0);
        }
    }

    /// Evaluates the SLO engine and hands its alert edges to the report, the
    /// sink and the control plane. The sharded coordinator calls this on the
    /// partition holding the fleet's merged windows, at its own barriers.
    pub(crate) fn alert_tick<S: ObsSink + ?Sized>(
        &mut self,
        controller: &mut dyn ControlPlane,
        now: u64,
        sink: &mut S,
    ) {
        let Some(engine) = &mut self.state.slo else {
            return;
        };
        self.alert_scratch.clear();
        engine.evaluate(now, &mut self.alert_scratch);
        let tick = engine.tick();
        for alert in &self.alert_scratch {
            self.state.alerts.push(*alert);
            sink.on_alert(now, alert);
            controller.on_alert(Cycles(now), alert);
        }
        // Same liveness rule as the telemetry bus: alert ticks observe work,
        // they must not sustain it.
        if self.shard.is_none() && self.work_left() {
            self.events.push(now + tick, EV_ALERT, 0);
        }
    }

    /// The partition side of a telemetry tick: failure detection and
    /// failover, the frame sample, and — for an active sink only, so the
    /// disabled path never pays the scan — the fleet-wide counter tracks.
    ///
    /// The sequential loop hands the frame to the control plane next; the
    /// sharded coordinator merges the partitions' frames first and owns
    /// `ControlStats::samples` (one per barrier tick), so it is never bumped
    /// here.
    pub(crate) fn tick<S: ObsSink + ?Sized>(
        &mut self,
        cluster: &mut NpuCluster,
        now: u64,
        sink: &mut S,
    ) {
        self.failover(cluster, now, sink);
        self.sample_frame(now);
        if sink.active() {
            let mut counters = FleetCounters::default();
            for replica in self.replicas.iter().filter(|r| r.live()) {
                counters.queued += replica.queue.len() as u64;
                counters.in_flight += replica.in_flight() as u64;
                counters.live_replicas += 1;
                if replica.precopy.is_some() || replica.pending_migration.is_some() {
                    counters.migrations_in_flight += 1;
                }
                counters.resident_bytes +=
                    cluster.resident_state_bytes(replica.handle).unwrap_or(0);
            }
            sink.on_tick(now, &self.frame, &counters);
        }
    }

    /// Ends the run: sweeps requests still marooned on fenced boards, banks
    /// the replica-time of everything still provisioned, and converts the
    /// partition's accumulators into a mergeable [`PartitionOutcome`].
    pub(crate) fn finish<S: ObsSink + ?Sized>(mut self, sink: &mut S) -> PartitionOutcome {
        let makespan = self.makespan;
        // Requests still marooned on fenced boards at run end were never
        // failed over (no recovery armed, or the run drained first): count
        // every one lost with a fault attribution. Nothing is silent.
        if let Some(chaos) = &mut self.state.chaos {
            let mut marooned: Vec<QueuedRequest> = Vec::new();
            for (slot, replica) in self.replicas.iter_mut().enumerate() {
                if !replica.fenced || replica.retired {
                    continue;
                }
                if let Some((batch, _, _)) = replica.in_service.take() {
                    marooned.extend(batch.iter().copied());
                }
                let queued = replica.queue.len();
                replica.queue.drain_into(queued, &mut marooned);
                self.dispatch_index.set_load(slot, 0);
                for request in marooned.drain(..) {
                    chaos.note_lost(request.model);
                    sink.on_lost(
                        makespan,
                        request.sequence,
                        request.model,
                        replica.handle.node,
                    );
                }
            }
        }

        // Bank the replica-time of everything still provisioned at the end.
        for replica in self.replicas.iter().filter(|r| r.live()) {
            self.state.replica_cycles += makespan.saturating_sub(replica.activated_at);
        }
        self.perf.peak_replicas = self.state.peak_replicas;

        let availability = self
            .state
            .chaos
            .take()
            .map(|chaos| chaos.stats)
            .unwrap_or_default();
        PartitionOutcome {
            dispatch: self.options.dispatch,
            router_stats: self.router.stats(),
            latencies: self.latencies,
            per_model: self.per_model,
            per_node_completed: self.per_node_completed,
            deadline: self.state.deadline,
            batches: self.state.batches,
            migration_records: self.migration_records,
            control: self.state.control,
            replica_cycles: self.state.replica_cycles,
            makespan,
            perf: self.perf,
            alerts: self.state.alerts,
            availability,
        }
    }

    /// Whether the run can still produce completions: arrivals left, a live
    /// replica with queued/in-service work or a pending drain-then-move, or
    /// any real (non-observer) event queued. Shared by the telemetry and
    /// alert ticks so neither periodic observer keeps a finished run alive.
    fn work_left(&self) -> bool {
        self.next_arrival < self.arrivals.len()
            || self.replicas.iter().any(|r| {
                // Work marooned on a fenced board counts only while recovery
                // will eventually drain it (detection needs the telemetry
                // ticks this keeps alive); without recovery it would sustain
                // the bus forever, so the run ends and the sweep counts the
                // marooned requests as lost.
                r.live()
                    && (!r.fenced || self.recovery_armed)
                    && (r.in_service.is_some()
                        || !r.queue.is_empty()
                        || r.pending_migration.is_some())
            })
            || self.events.has_non_sample()
    }

    /// Closes the current telemetry window and rebuilds the frame in place
    /// for the control plane.
    ///
    /// The frame's replica vector and model map are per-run scratch: the
    /// vector is cleared and refilled (its capacity persists) and the map is
    /// rebuilt in place by [`summarize_models`] — so a steady-state tick
    /// over a stable fleet allocates nothing. The frame contents are
    /// bit-identical to a from-scratch build.
    fn sample_frame(&mut self, now: u64) {
        let frame = &mut self.frame;
        let window_start = self.state.window_start;
        frame.at = Cycles(now);
        frame.window = Cycles(now.saturating_sub(window_start));
        frame.replicas.clear();
        for replica in self.replicas.iter_mut().filter(|r| r.live()) {
            if let Some((_, started, _)) = &replica.in_service {
                replica.window_busy += now - (*started).max(window_start);
            }
            // A replica activated mid-window is measured over its own
            // lifetime, not the full window — a saturated newcomer must not
            // read as half-idle.
            let lifetime = now.saturating_sub(replica.activated_at.max(window_start));
            let utilization = if lifetime > 0 {
                (replica.window_busy as f64 / lifetime as f64).min(1.0)
            } else {
                0.0
            };
            frame.replicas.push(ReplicaSample {
                handle: replica.handle,
                model: replica.model,
                queue_len: replica.queue.len(),
                in_flight: replica.in_flight(),
                draining: replica.draining,
                utilization,
            });
            replica.window_busy = 0;
        }

        // A sharded partition leaves its windows to the coordinator, which
        // merges every partition's exactly and summarizes the fleet once.
        let windows = self.state.windows.as_mut().filter(|_| self.shard.is_none());
        summarize_models(frame, windows);
        self.state.window_start = now;
    }

    /// Applies one control-plane action inside the event loop. The sharded
    /// coordinator routes scale-downs and migrations here too, at the
    /// barrier, on the partition owning the replica (it places scale-ups
    /// fleet-wide itself and hands them to [`adopt_replica`](Self::adopt_replica)).
    pub(crate) fn apply_action<S: ObsSink + ?Sized>(
        &mut self,
        cluster: &mut NpuCluster,
        action: ControlAction,
        now: u64,
        sink: &mut S,
    ) {
        sink.on_control(now, &action);
        match action {
            ControlAction::ScaleUp { spec, placement } => match cluster.deploy(spec, placement) {
                Ok(handle) => {
                    self.add_replica(cluster, handle, now);
                    self.state.control.scale_ups += 1;
                }
                Err(_) => self.state.control.scale_up_rejected += 1,
            },
            ControlAction::ScaleDown { handle } => {
                let Some(index) = self.dispatch_index.slot_of(handle) else {
                    return; // stale handle (already moved or released)
                };
                let replica = &mut self.replicas[index];
                if replica.draining {
                    return;
                }
                replica.draining = true;
                // A scale-down trumps a live migration in flight: the vNPU is
                // being released, so streaming its state anywhere is wasted
                // work. The orphaned copy-round event is ignored by its
                // staleness guard.
                replica.precopy = None;
                self.dispatch_index.begin_drain(index);
                self.state.control.scale_downs += 1;
                // A held partial batch flushes immediately: a draining
                // replica never waits for a batch that cannot form.
                self.start_next(index, now, sink);
                self.retire_if_drained(cluster, index, now);
            }
            ControlAction::Migrate { handle, to, mode } => {
                self.state.control.migrations_requested += 1;
                if let Some(index) = self.dispatch_index.slot_of(handle) {
                    self.migrate(cluster, index, to, mode, now, sink);
                }
            }
        }
    }

    /// Adopts a replica the coordinator just deployed on this partition's
    /// cluster (a control-plane scale-up placed fleet-wide at the barrier).
    pub(crate) fn adopt_replica<S: ObsSink + ?Sized>(
        &mut self,
        cluster: &NpuCluster,
        handle: VnpuHandle,
        now: u64,
        action: &ControlAction,
        sink: &mut S,
    ) {
        sink.on_control(now, action);
        self.add_replica(cluster, handle, now);
        self.state.control.scale_ups += 1;
    }

    /// Counts a fleet-wide scale-up the coordinator could not place anywhere.
    pub(crate) fn note_scale_up_rejected<S: ObsSink + ?Sized>(
        &mut self,
        now: u64,
        action: &ControlAction,
        sink: &mut S,
    ) {
        sink.on_control(now, action);
        self.state.control.scale_up_rejected += 1;
    }

    /// The frame produced by the last [`tick`](Self::tick).
    pub(crate) fn frame(&self) -> &TelemetryFrame {
        &self.frame
    }

    /// Moves this partition's telemetry windows into `into`, merging model
    /// by model, and starts its next window.
    pub(crate) fn drain_windows(&mut self, into: &mut BTreeMap<ModelId, ModelWindow>) {
        for (model, window) in self.state.windows.iter_mut().flatten() {
            into.entry(*model).or_default().merge(window);
            window.reset();
        }
    }

    /// Hands the SLO observations made since the last alert barrier to
    /// `fleet`, the partition whose engine evaluates for the whole fleet.
    pub(crate) fn hand_slo_to(&mut self, fleet: &mut PartitionSim) {
        if let (Some(ours), Some(theirs)) = (&mut self.state.slo, &mut fleet.state.slo) {
            ours.drain_into(theirs);
        }
    }

    /// Bumps the merged sample counter; called by the coordinator once per
    /// barrier tick on the lowest-indexed partition so the merged report
    /// counts ticks, not ticks × partitions.
    pub(crate) fn count_sample(&mut self) {
        self.state.control.samples += 1;
    }

    /// Whether this partition can still make progress: pending arrivals or
    /// events, live queued/in-service work, or an export awaiting barrier
    /// delivery.
    pub(crate) fn busy(&self) -> bool {
        self.work_left()
            || self
                .shard
                .as_ref()
                .is_some_and(|shard| !shard.exports.is_empty())
    }

    /// Whether a cross-partition transfer is pending or imminent: an export
    /// awaiting delivery, or a busy replica draining toward a board another
    /// partition owns. The coordinator keeps barrier windows at the
    /// interconnect lookahead while this holds.
    pub(crate) fn pending_remote(&self) -> bool {
        let Some(shard) = &self.shard else {
            return false;
        };
        !shard.exports.is_empty()
            || self.replicas.iter().any(|replica| {
                replica.live()
                    && replica
                        .pending_migration
                        .is_some_and(|(to, _)| !shard.owns(to))
            })
    }

    /// Adds this partition's dispatchable replica counts to a shard plan
    /// being rebuilt at a barrier. Mirrors the sequential router's candidate
    /// set: live and not draining — fenced replicas stay routable until
    /// failover evicts them, exactly the sequential black-hole window.
    pub(crate) fn accumulate_weights(
        &self,
        weights: &mut BTreeMap<ModelId, Vec<u64>>,
        partitions: usize,
    ) {
        let Some(shard) = &self.shard else {
            return;
        };
        for replica in self.replicas.iter().filter(|r| r.live() && !r.draining) {
            weights
                .entry(replica.model)
                .or_insert_with(|| vec![0; partitions])[shard.index] += 1;
        }
    }

    /// Installs the plan rebuilt at a barrier.
    pub(crate) fn set_plan(&mut self, plan: ShardPlan) {
        if let Some(shard) = &mut self.shard {
            shard.plan = plan;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::DeploySpec;
    use crate::placement::PlacementPolicy;
    use crate::router::DispatchPolicy;
    use crate::serving::estimated_batch_service_cycles;
    use crate::serving::estimated_service_cycles;
    use crate::serving::tests::burst_trace;
    use crate::serving::tests::fleet_with_replicas;
    use crate::serving::tests::Script;
    use crate::serving::ClusterServingSim;
    use npu_sim::NpuConfig;
    use workloads::ClusterTrace;

    #[test]
    fn model_window_flushes_and_resets() {
        let mut window = ModelWindow::default();
        window.latency.record(10);
        window.latency.record(30);
        window.deadline.record_completion(true);
        window.deadline.record_completion(false);
        window.deadline.record_dropped();
        window.arrivals = 3;
        let mut sample = ModelSample::empty(ModelId::Mnist);
        window.flush_into(&mut sample);
        assert_eq!(sample.latency.count, 2);
        assert!((sample.latency.mean - 20.0).abs() < 1e-12);
        assert_eq!(sample.deadline.with_deadline, 3);
        assert_eq!(sample.deadline.failed(), 2);
        assert_eq!(sample.arrivals, 3);
        // The flush resets the window.
        window.flush_into(&mut sample);
        assert_eq!(sample.latency.count, 0);
        assert_eq!(sample.deadline, DeadlineStats::default());
        assert_eq!(sample.arrivals, 0);
    }

    #[test]
    fn merged_model_windows_summarize_like_one_window() {
        let mut whole = ModelWindow::default();
        let mut parts = [ModelWindow::default(), ModelWindow::default()];
        for latency in 1..=40u64 {
            whole.latency.record(latency);
            parts[(latency % 2) as usize].latency.record(latency);
        }
        for (met, part) in [(true, 0), (false, 1), (false, 1)] {
            whole.deadline.record_completion(met);
            parts[part].deadline.record_completion(met);
        }
        whole.rejected = 5;
        parts[0].rejected = 2;
        parts[1].rejected = 3;
        let mut merged = ModelWindow::default();
        for part in &parts {
            merged.merge(part);
        }
        let (mut expected, mut got) = (
            ModelSample::empty(ModelId::Mnist),
            ModelSample::empty(ModelId::Mnist),
        );
        whole.flush_into(&mut expected);
        merged.flush_into(&mut got);
        assert_eq!(got, expected, "the merge is exact, percentiles included");
    }

    #[test]
    fn batching_serves_a_backlog_in_fewer_longer_passes() {
        let trace = burst_trace(32, 1);
        let (mut unbatched_fleet, _) = fleet_with_replicas(1, 1);
        let unbatched = ClusterServingSim::new(ServingOptions::new(DispatchPolicy::LeastLoaded))
            .run(&mut unbatched_fleet, &trace);
        let (mut batched_fleet, _) = fleet_with_replicas(1, 1);
        let batched = ClusterServingSim::new(
            ServingOptions::new(DispatchPolicy::LeastLoaded).with_batching(8),
        )
        .run(&mut batched_fleet, &trace);

        assert_eq!(unbatched.stats.completed, 32);
        assert_eq!(batched.stats.completed, 32);
        assert!(
            batched.batches < unbatched.batches,
            "batching must coalesce the backlog ({} vs {} passes)",
            batched.batches,
            unbatched.batches
        );
        assert!(batched.mean_batch_size() > 1.0);
        // MNIST batch service is strongly sublinear, so coalescing the
        // backlog finishes it sooner and cuts the tail.
        assert!(
            batched.makespan < unbatched.makespan,
            "sublinear batches drain the backlog faster ({} vs {})",
            batched.makespan,
            unbatched.makespan
        );
        assert!(batched.latency.p99 <= unbatched.latency.p99);
    }

    #[test]
    fn batch_wait_forms_batches_and_bounds_queueing_delay() {
        // Low load: four sparse requests against an idle batch-8 replica.
        // Without a formation window each is served alone the moment it
        // arrives; with one, the replica holds the queue — but never longer
        // than `max_batch_wait`, so queueing delay stays bounded even though
        // the batch never fills.
        let service = estimated_service_cycles(ModelId::Mnist, 2, 2, &NpuConfig::single_core());
        let gap = service / 4;
        let wait = service;
        let trace = burst_trace(4, gap);

        let (mut eager_fleet, _) = fleet_with_replicas(1, 1);
        let eager = ClusterServingSim::new(
            ServingOptions::new(DispatchPolicy::LeastLoaded).with_batching(8),
        )
        .run(&mut eager_fleet, &trace);

        let (mut held_fleet, _) = fleet_with_replicas(1, 1);
        let held = ClusterServingSim::new(
            ServingOptions::new(DispatchPolicy::LeastLoaded)
                .with_batching(8)
                .with_batch_wait(wait),
        )
        .run(&mut held_fleet, &trace);

        assert_eq!(held.stats.completed, 4);
        assert!(
            held.batches < eager.batches,
            "the formation window must coalesce sparse arrivals ({} vs {} passes)",
            held.batches,
            eager.batches
        );
        // The bound: no request waits for the batch longer than the window,
        // so worst-case latency is the hold plus one (amortized) batch pass.
        let batch_service =
            estimated_batch_service_cycles(ModelId::Mnist, 4, 2, 2, &NpuConfig::single_core());
        assert!(
            held.latency.max <= wait + batch_service,
            "queueing delay must be bounded by the formation window ({} > {} + {})",
            held.latency.max,
            wait,
            batch_service
        );
    }

    #[test]
    fn deadline_misses_are_counted_and_drops_supported() {
        // One replica, a burst far exceeding what the deadline allows.
        let slack = 10_000u64;
        let trace = ClusterTrace::from_arrivals(
            (0..20)
                .map(|i| {
                    RequestArrival::new(Cycles(i), ModelId::Mnist).with_deadline(Cycles(i + slack))
                })
                .collect(),
        );
        let (mut fleet, _) = fleet_with_replicas(1, 1);
        let lenient = ClusterServingSim::new(ServingOptions::new(DispatchPolicy::LeastLoaded))
            .run(&mut fleet, &trace);
        assert_eq!(lenient.deadline.with_deadline, 20);
        assert!(
            lenient.deadline.missed > 0,
            "the backlog must blow deadlines"
        );
        assert_eq!(lenient.deadline.dropped, 0);
        assert_eq!(lenient.deadline.met + lenient.deadline.missed, 20);
        assert!(lenient.deadline.miss_rate() > 0.0);

        let (mut dropping_fleet, _) = fleet_with_replicas(1, 1);
        let dropping = ClusterServingSim::new(
            ServingOptions::new(DispatchPolicy::LeastLoaded).with_drop_expired(),
        )
        .run(&mut dropping_fleet, &trace);
        assert!(
            dropping.deadline.dropped > 0,
            "expired requests are dropped"
        );
        assert_eq!(
            dropping.stats.completed + dropping.deadline.dropped,
            dropping.stats.admitted,
            "drops account for every admitted-but-unserved request"
        );
        assert_eq!(dropping.latency.count, dropping.stats.completed);
    }

    #[test]
    fn edf_serves_urgent_requests_first() {
        // A burst lands while the replica is busy; under EDF the
        // tight-deadline interactive request jumps the queue.
        let service = estimated_service_cycles(ModelId::Mnist, 2, 2, &NpuConfig::single_core());
        let mut urgent = RequestArrival::new(Cycles(10), ModelId::Mnist)
            .with_deadline(Cycles(10 + service * 3))
            .with_priority(workloads::PriorityClass::Interactive);
        urgent.sequence = 3;
        let laggards: Vec<RequestArrival> = (0..3)
            .map(|i| {
                RequestArrival::new(Cycles(i), ModelId::Mnist)
                    .with_priority(workloads::PriorityClass::Batch)
            })
            .collect();
        let mut arrivals = laggards;
        arrivals.push(urgent);
        let trace = ClusterTrace::from_arrivals(arrivals);

        let run = |policy| {
            let (mut fleet, _) = fleet_with_replicas(1, 1);
            ClusterServingSim::new(ServingOptions::new(policy)).run(&mut fleet, &trace)
        };
        let fifo = run(DispatchPolicy::LeastLoaded);
        let edf = run(DispatchPolicy::EarliestDeadline);
        assert_eq!(
            fifo.deadline.missed, 1,
            "FIFO serves the urgent request last"
        );
        assert_eq!(
            edf.deadline.missed, 0,
            "EDF serves the urgent request first"
        );
    }

    #[test]
    fn scale_up_adds_a_serving_replica_mid_run() {
        let service = estimated_service_cycles(ModelId::Mnist, 2, 2, &NpuConfig::single_core());
        let (mut fleet, _) = fleet_with_replicas(2, 1);
        // Saturating load on one replica; a second replica is added at the
        // first tick and absorbs part of the stream.
        let trace = burst_trace(40, service / 2);
        let mut script = Script {
            at: vec![(
                1,
                vec![ControlAction::ScaleUp {
                    spec: DeploySpec::replica(ModelId::Mnist, 2, 2),
                    placement: PlacementPolicy::WorstFit,
                }],
            )],
            tick: 0,
        };
        let options = ServingOptions::new(DispatchPolicy::LeastLoaded).with_telemetry(service * 2);
        let report =
            ClusterServingSim::new(options).run_with_controller(&mut fleet, &trace, &mut script);
        assert_eq!(report.control.scale_ups, 1);
        assert_eq!(report.stats.completed, 40, "no request was lost");
        assert_eq!(
            report.per_node_completed.len(),
            2,
            "the scaled-up replica served traffic"
        );
        assert_eq!(fleet.total_vnpus(), 2, "the deployment genuinely happened");
        assert!(report.control.samples > 0);
    }

    #[test]
    fn scale_down_drains_then_releases_without_losing_requests() {
        let service = estimated_service_cycles(ModelId::Mnist, 2, 2, &NpuConfig::single_core());
        let (mut fleet, handles) = fleet_with_replicas(2, 2);
        let trace = burst_trace(30, service / 2);
        let mut script = Script {
            at: vec![(1, vec![ControlAction::ScaleDown { handle: handles[1] }])],
            tick: 0,
        };
        let options = ServingOptions::new(DispatchPolicy::LeastLoaded).with_telemetry(service * 2);
        let report =
            ClusterServingSim::new(options).run_with_controller(&mut fleet, &trace, &mut script);
        assert_eq!(report.control.scale_downs, 1);
        assert_eq!(report.control.released, 1, "the drained replica released");
        assert_eq!(
            report.stats.completed, report.stats.admitted,
            "draining must not lose admitted requests"
        );
        assert_eq!(fleet.total_vnpus(), 1, "the vNPU was genuinely released");
        // Releasing capacity mid-run must shrink provisioned replica-time
        // below two full-makespan replicas.
        assert!(report.replica_cycles < 2 * report.makespan.get());
    }

    #[test]
    fn telemetry_frames_report_backlog_and_windows() {
        let service = estimated_service_cycles(ModelId::Mnist, 2, 2, &NpuConfig::single_core());

        /// Captures every frame for inspection.
        struct Probe {
            frames: Vec<TelemetryFrame>,
        }
        impl ControlPlane for Probe {
            fn control(
                &mut self,
                frame: &TelemetryFrame,
                _cluster: &NpuCluster,
            ) -> Vec<ControlAction> {
                self.frames.push(frame.clone());
                Vec::new()
            }
        }

        let (mut fleet, _) = fleet_with_replicas(1, 1);
        // Overload: the queue builds, so mid-run frames see a backlog.
        let trace = burst_trace(20, service / 4);
        let mut probe = Probe { frames: Vec::new() };
        let options = ServingOptions::new(DispatchPolicy::LeastLoaded).with_telemetry(service);
        let report =
            ClusterServingSim::new(options).run_with_controller(&mut fleet, &trace, &mut probe);
        assert_eq!(report.control.samples, probe.frames.len());
        assert!(probe.frames.len() > 1);
        let mid = &probe.frames[probe.frames.len() / 2];
        assert_eq!(mid.replicas.len(), 1);
        let sample = mid.model(ModelId::Mnist).expect("model is served");
        assert_eq!(sample.replicas, 1);
        assert!(
            sample.outstanding() > 0,
            "overload must show up as backlog in the frame"
        );
        assert!(
            mid.replicas[0].utilization > 0.9,
            "a saturated replica reports a busy window ({})",
            mid.replicas[0].utilization
        );
        // Window completions across all frames cover most of the run (the
        // final partial window is not flushed).
        let windowed: usize = probe
            .frames
            .iter()
            .filter_map(|f| f.model(ModelId::Mnist))
            .map(|m| m.latency.count)
            .sum();
        assert!(windowed >= report.stats.completed - 1);
    }
}
