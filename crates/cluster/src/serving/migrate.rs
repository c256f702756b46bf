//! The migration edges of the serving loop: choosing the path, the live
//! pre-copy rounds, the stop-and-copy, and cross-partition export/import.

use npu_sim::DirtySet;

use crate::cluster::{DeploySpec, NpuCluster, VnpuHandle};
use crate::migration::{MigrationMode, MigrationRecord};
use crate::obs::ObsSink;
use crate::NodeId;

use super::partition::{PartitionSim, EV_COPY_ROUND, EV_RESUME};
use super::queue::QueuedRequest;

/// The in-flight state of one live pre-copy migration: the dirty-page
/// accounting over the replica's resident state, the copy-round history, and
/// the convergence bookkeeping. Lives on the source replica from the request
/// until the stop-and-copy switch-over.
#[derive(Debug)]
pub(super) struct PreCopyFlight {
    /// Destination node.
    to: NodeId,
    /// Page-granular dirty accounting; completions mark it, rounds drain it.
    pub(super) dirty: DirtySet,
    /// Bytes one completed request re-dirties (write-heavy KV vs read-mostly
    /// weights, from the cost model's dirty-rate model).
    pub(super) dirty_bytes_per_request: u64,
    /// Copy rounds performed (round 0, the full-state copy, included).
    rounds: u32,
    /// Bytes streamed by the previous round (convergence signal).
    last_round_bytes: u64,
    /// Bytes streamed per round, for the record.
    round_bytes: Vec<u64>,
    /// Link cycles spent copying while the source kept serving.
    precopy_cycles: u64,
    /// The scheduled end of the in-flight round (stale-event guard).
    round_ends_at: u64,
    /// Whether the loop converged below the stop threshold (set at the
    /// stop-and-copy decision; `false` = fallback to a cold-sized residual).
    converged: bool,
}

/// A replica in flight between partitions: everything the destination needs
/// to resurrect it, plus everything the source already charged for moving it.
///
/// Cross-partition migrations are always cold (precopy needs destination
/// state the source partition cannot see), priced source-side, and delivered
/// at the next barrier. `ready_at` is the cycle the replica may resume at on
/// the destination — the barrier merge clamps it up to the barrier time, which
/// is conservative-safe because partitions never run past the barrier bound.
pub(crate) struct MigrationEnvelope {
    pub(crate) from_node: NodeId,
    pub(crate) to_node: NodeId,
    pub(crate) spec: DeploySpec,
    queue: Vec<QueuedRequest>,
    pub(crate) ready_at: u64,
    record: MigrationRecord,
    /// True once the destination rejected the import and the envelope was
    /// re-targeted back at its source. A bounced envelope re-imports silently
    /// (the rejection was already counted); a second failure abandons it.
    pub(crate) bounced: bool,
}

impl PartitionSim<'_> {
    /// Starts migrating replica `slot` to `to` in `mode` — the one entry
    /// point of scheduled and controller migrations alike.
    ///
    /// A pre-copy starts its copy rounds. A cold move drains the in-flight
    /// batch first, or moves an idle replica immediately. Under the sharded
    /// runner a destination owned by another partition demotes a pre-copy
    /// to a cold drain-and-move: the copy loop needs destination state the
    /// source partition cannot see.
    pub(super) fn migrate<S: ObsSink + ?Sized>(
        &mut self,
        cluster: &mut NpuCluster,
        slot: usize,
        to: NodeId,
        mode: MigrationMode,
        now: u64,
        sink: &mut S,
    ) {
        // A draining replica is about to release its vNPU anyway: migrating
        // it would charge a pointless dark window to its queued requests. A
        // replica already migrating (either mode) finishes that move first.
        let replica = &self.replicas[slot];
        if replica.handle.node == to
            || replica.pending_migration.is_some()
            || replica.precopy.is_some()
            || replica.draining
        {
            return;
        }
        let export = self.shard.is_some() && cluster.node(to).is_none();
        if mode == MigrationMode::PreCopy && !export {
            self.begin_precopy(cluster, slot, to, now, sink);
        } else {
            self.move_when_idle(cluster, slot, to, now, sink);
        }
    }

    /// Moves replica `index` to `to` now if it is idle; a busy replica
    /// drains its in-flight batch first and the completion event finishes
    /// the job.
    fn move_when_idle<S: ObsSink + ?Sized>(
        &mut self,
        cluster: &mut NpuCluster,
        index: usize,
        to: NodeId,
        now: u64,
        sink: &mut S,
    ) {
        let replica = &mut self.replicas[index];
        if replica.in_service.is_some() {
            replica.pending_migration = Some((to, now));
        } else {
            self.execute_migration(cluster, index, now, to, 0, sink);
        }
    }

    /// Starts a live pre-copy migration of replica `index` to `to`: round 0
    /// streams the full resident state over the (possibly contended) link
    /// while the replica keeps serving; the copy-round event continues the
    /// loop.
    fn begin_precopy<S: ObsSink + ?Sized>(
        &mut self,
        cluster: &NpuCluster,
        index: usize,
        to: NodeId,
        now: u64,
        sink: &mut S,
    ) {
        let replica = &mut self.replicas[index];
        let (Some(state_bytes), Some(_)) = (
            cluster.resident_state_bytes(replica.handle),
            cluster.node(to),
        ) else {
            // Unknown destination or stale placement: refused, like the cold
            // path's migrate() error.
            self.state.control.migrations_rejected += 1;
            sink.on_migration_rejected(now, index);
            return;
        };
        let source_npu = cluster
            .node(replica.handle.node)
            .expect("source node exists") // simlint::allow(P1, reason = "a migrating replica's source node holds its deployment")
            .npu_config();
        let cost_model = &self.options.cost_model;
        let dirty_bytes_per_request = cost_model
            .precopy
            .dirty_rate
            .dirty_bytes_per_request(replica.model, source_npu);
        let full_copy = self.state.link_cycles(
            replica.handle.node,
            to,
            now,
            cost_model
                .transfer_cycles(state_bytes, source_npu.frequency)
                .get(),
        );
        let ends_at = self.links.reserve(replica.handle.node, to, now, full_copy);
        replica.precopy = Some(PreCopyFlight {
            to,
            dirty: DirtySet::new(state_bytes, cost_model.precopy.page_bytes),
            dirty_bytes_per_request,
            rounds: 1,
            last_round_bytes: state_bytes,
            round_bytes: vec![state_bytes],
            precopy_cycles: ends_at - now,
            round_ends_at: ends_at,
            converged: false,
        });
        self.events.push(ends_at, EV_COPY_ROUND, index);
        sink.on_copy_round(now, ends_at, replica.handle.node, to, index, 0, state_bytes);
    }

    /// Finishes one pre-copy round: decides between another round (dirty set
    /// still large but shrinking), and the stop-and-copy (converged below the
    /// threshold, or the loop stalled — round cap hit, or the dirty set no
    /// longer shrinking because serving re-dirties faster than the link
    /// drains).
    pub(super) fn copy_round<S: ObsSink + ?Sized>(
        &mut self,
        cluster: &mut NpuCluster,
        index: usize,
        now: u64,
        sink: &mut S,
    ) {
        let replica = &mut self.replicas[index];
        // Staleness guards: the migration was cancelled (drain won), or this
        // is not the round we scheduled.
        let Some(precopy) = &mut replica.precopy else {
            return;
        };
        if precopy.round_ends_at != now || replica.retired || replica.draining {
            return;
        }
        let cost_model = &self.options.cost_model;
        let config = &cost_model.precopy;
        let dirty_bytes = precopy.dirty.dirty_bytes();
        let threshold = config.stop_copy_bytes(precopy.dirty.capacity_bytes());
        let converged = dirty_bytes <= threshold;
        let stalled = precopy.rounds >= config.max_rounds
            || dirty_bytes as f64 > config.shrink_ratio * precopy.last_round_bytes as f64;
        if converged || stalled {
            // Stop-and-copy: freeze dispatch; whatever the in-flight batch
            // still dirties joins the residual moved in the dark window.
            precopy.converged = converged;
            let to = precopy.to;
            self.move_when_idle(cluster, index, to, now, sink);
            return;
        }
        // Another round: stream the pages dirtied during the one that just
        // ended; serving continues and re-dirties into the next round.
        let round = precopy.dirty.take_bytes();
        let frequency = cluster
            .node(replica.handle.node)
            .expect("source node exists") // simlint::allow(P1, reason = "a migrating replica's source node holds its deployment")
            .npu_config()
            .frequency;
        let cycles = self.state.link_cycles(
            replica.handle.node,
            precopy.to,
            now,
            cost_model.transfer_cycles(round, frequency).get(),
        );
        let ends_at = self
            .links
            .reserve(replica.handle.node, precopy.to, now, cycles);
        precopy.rounds += 1;
        precopy.last_round_bytes = round;
        precopy.round_bytes.push(round);
        precopy.precopy_cycles += ends_at - now;
        precopy.round_ends_at = ends_at;
        self.events.push(ends_at, EV_COPY_ROUND, index);
        sink.on_copy_round(
            now,
            ends_at,
            replica.handle.node,
            precopy.to,
            index,
            precopy.rounds - 1,
            round,
        );
    }

    /// Runs the stop-and-copy phases of a migration: snapshot + transfer +
    /// remap. The replica goes dark until `available_at` and then resumes on
    /// the destination node with its queue intact. For a cold migration the
    /// transfer moves the full resident state; for a pre-copy switch-over it
    /// moves only the residual dirty delta plus the architectural context,
    /// queueing behind any transfer already on the link.
    ///
    /// Under the sharded runner, a destination owned by another partition is
    /// intercepted before the local `migrate` call: the replica is exported
    /// into a [`MigrationEnvelope`] for barrier delivery instead.
    pub(super) fn execute_migration<S: ObsSink + ?Sized>(
        &mut self,
        cluster: &mut NpuCluster,
        index: usize,
        now: u64,
        to: NodeId,
        drain_cycles: u64,
        sink: &mut S,
    ) {
        let remote = self
            .shard
            .as_ref()
            .is_some_and(|context| cluster.node(to).is_none() && context.owners.contains_key(&to));
        if remote {
            self.export_replica(cluster, index, now, to, drain_cycles);
            return;
        }
        let replica = &mut self.replicas[index];
        let cost_model = &self.options.cost_model;
        let source_frequency = cluster
            .node(replica.handle.node)
            .expect("source node exists") // simlint::allow(P1, reason = "a migrating replica's source node holds its deployment")
            .npu_config()
            .frequency;
        let Ok(outcome) = cluster.migrate(replica.handle, to, cost_model, Some(drain_cycles))
        else {
            // The destination refused (capacity raced away); the replica
            // keeps serving from its source node, any pre-copy effort
            // abandoned.
            replica.precopy = None;
            self.state.control.migrations_rejected += 1;
            sink.on_migration_rejected(now, index);
            self.start_next(index, now, sink);
            return;
        };
        let mut record = outcome.record;
        let cycles = match replica.precopy.take() {
            Some(precopy) => {
                // Live switch-over: the dark window moves the residual dirty
                // pages plus the register/queue context — not the full state
                // the cold-priced record assumed.
                let residual = precopy.dirty.dirty_bytes() + cost_model.context_bytes;
                record.mode = MigrationMode::PreCopy;
                record.precopy_rounds = precopy.rounds;
                record.precopy_bytes = precopy.round_bytes.iter().sum();
                record.round_bytes = precopy.round_bytes;
                record.precopy_cycles = precopy.precopy_cycles;
                record.converged = precopy.converged;
                cost_model.transfer_cycles(residual, source_frequency).get()
            }
            None => record.transfer_cycles,
        };
        // Either way the transfer waits its turn on the contended
        // board-to-board link (on an idle link the window is unchanged).
        let cycles = self.state.link_cycles(record.from, record.to, now, cycles);
        record.transfer_cycles = self.links.reserve(record.from, record.to, now, cycles) - now;
        replica.handle = VnpuHandle {
            node: record.to,
            vnpu: record.dest_vnpu,
        };
        replica.available_at = now + record.transfer_cycles + record.remap_cycles;
        // A draining replica (scale-down raced with the migration) already
        // left the routable sets; only its handle re-keys.
        self.dispatch_index.relocate(index, replica.handle);
        sink.on_stop_copy(now, replica.available_at, index, &record);
        self.events.push(replica.available_at, EV_RESUME, index);
        self.migration_records.push(record);
    }

    /// Packs replica `index` into a cross-partition [`MigrationEnvelope`]:
    /// the transfer is priced source-side (chaos windows and link contention
    /// included), the queue drained in pop order, the vNPU released — and the
    /// envelope waits in the shard's exports for barrier delivery to the
    /// owning partition.
    fn export_replica(
        &mut self,
        cluster: &mut NpuCluster,
        index: usize,
        now: u64,
        to: NodeId,
        drain_cycles: u64,
    ) {
        let handle = self.replicas[index].handle;
        let Some(deployment) = cluster.deployment(handle).copied() else {
            // The deployment raced away (cannot happen for a live replica);
            // account it like any refused migration rather than panicking.
            self.state.control.migrations_rejected += 1;
            return;
        };
        let state_bytes = cluster.resident_state_bytes(handle).unwrap_or(0);
        let frequency = cluster
            .node(handle.node)
            .expect("source node exists") // simlint::allow(P1, reason = "a migrating replica's source node holds its deployment")
            .npu_config()
            .frequency;
        // Cross-partition moves are always cold: the pre-copy loop needs
        // destination-side state the source partition cannot see.
        let replica = &mut self.replicas[index];
        replica.precopy = None;
        // The emptied slot leaves the dispatch index on release, below.
        let queue = replica.queue.take_all();
        let cost_model = &self.options.cost_model;
        let cycles = self.state.link_cycles(
            handle.node,
            to,
            now,
            cost_model.transfer_cycles(state_bytes, frequency).get(),
        );
        let transfer_ends = self.links.reserve(handle.node, to, now, cycles);
        let envelope = MigrationEnvelope {
            from_node: handle.node,
            to_node: to,
            spec: deployment.spec(),
            queue,
            ready_at: transfer_ends + cost_model.remap_cycles,
            record: MigrationRecord {
                source_vnpu: handle.vnpu,
                // Placeholder: the destination assigns the real id at import.
                dest_vnpu: handle.vnpu,
                from: handle.node,
                to,
                mode: MigrationMode::Cold,
                state_bytes,
                drain_cycles,
                transfer_cycles: transfer_ends - now,
                remap_cycles: cost_model.remap_cycles,
                precopy_rounds: 0,
                round_bytes: Vec::new(),
                precopy_bytes: 0,
                precopy_cycles: 0,
                converged: true,
            },
            bounced: false,
        };
        self.release_replica(cluster, index, now);
        if let Some(shard) = &mut self.shard {
            shard.exports.push(envelope);
        }
    }

    /// Drains the envelopes exported since the last barrier (empty on the
    /// sequential path).
    pub(crate) fn take_exports(&mut self) -> Vec<MigrationEnvelope> {
        match &mut self.shard {
            Some(shard) => std::mem::take(&mut shard.exports),
            None => Vec::new(),
        }
    }

    /// Imports a replica another partition exported, deploying it on the
    /// envelope's destination node of this partition's cluster. On capacity
    /// failure the envelope is handed back so the coordinator can bounce it
    /// to its source partition.
    ///
    /// The resume time is the source-priced `ready_at` clamped up to the
    /// barrier — conservative-safe, because no partition has simulated past
    /// the barrier yet. A first-time import finalizes and records the
    /// migration; a bounced one records nothing (the rejection was already
    /// counted, mirroring the sequential refused-migration path).
    pub(crate) fn import_replica<S: ObsSink + ?Sized>(
        &mut self,
        cluster: &mut NpuCluster,
        envelope: MigrationEnvelope,
        barrier: u64,
        sink: &mut S,
    ) -> Result<(), Box<MigrationEnvelope>> {
        let handle = match cluster.deploy_pinned(envelope.spec, envelope.to_node) {
            Ok(handle) => handle,
            Err(_) => return Err(Box::new(envelope)),
        };
        let slot = self.add_replica(cluster, handle, barrier);
        let resume_at = envelope.ready_at.max(barrier);
        self.replicas[slot].available_at = resume_at;
        for request in envelope.queue {
            self.enqueue(slot, request);
        }
        self.events.push(resume_at, EV_RESUME, slot);
        if !envelope.bounced {
            let mut record = envelope.record;
            record.dest_vnpu = handle.vnpu;
            record.to = handle.node;
            sink.on_stop_copy(barrier, resume_at, slot, &record);
            self.migration_records.push(record);
        }
        Ok(())
    }

    /// Drops a migration whose import failed at both the destination and
    /// (bounced) back at the source: the replica is gone and every queued
    /// request is lost — attributed through the chaos ledger or the sink,
    /// never silently. The rejection statistic was already counted at the
    /// partition that first refused the import.
    pub(crate) fn abandon_envelope<S: ObsSink + ?Sized>(
        &mut self,
        envelope: MigrationEnvelope,
        barrier: u64,
        sink: &mut S,
    ) {
        let from = envelope.from_node;
        for request in envelope.queue {
            if let Some(chaos) = &mut self.state.chaos {
                chaos.note_lost(request.model);
            }
            sink.on_lost(barrier, request.sequence, request.model, from);
        }
    }

    /// Counts a destination-side import rejection (the bounce back to the
    /// source still happens; only the statistic lands here, on the partition
    /// that refused).
    pub(crate) fn note_migration_rejected(&mut self) {
        self.state.control.migrations_rejected += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::migration::DirtyRateModel;
    use crate::migration::MigrationCostModel;
    use crate::migration::PreCopyConfig;
    use crate::placement::PlacementPolicy;
    use crate::router::AdmissionControl;
    use crate::router::DispatchPolicy;
    use crate::serving::estimated_service_cycles;
    use crate::serving::tests::burst_trace;
    use crate::serving::tests::fleet_with_replicas;
    use crate::serving::tests::Script;
    use crate::serving::ClusterServingSim;
    use crate::serving::ServingOptions;
    use crate::serving::ServingReport;
    use crate::telemetry::ControlAction;
    use npu_sim::Cycles;
    use npu_sim::NpuConfig;
    use workloads::ClusterTrace;
    use workloads::ModelId;
    use workloads::RequestArrival;

    #[test]
    fn migration_downtime_is_charged_to_latency() {
        let trace = burst_trace(10, 2_000);
        let (mut undisturbed, _) = fleet_with_replicas(2, 1);
        let baseline = ClusterServingSim::new(ServingOptions::new(DispatchPolicy::LeastLoaded))
            .run(&mut undisturbed, &trace);

        let (mut fleet, handles) = fleet_with_replicas(2, 1);
        let spare = NodeId(if handles[0].node.0 == 0 { 1 } else { 0 });
        let options = ServingOptions::new(DispatchPolicy::LeastLoaded).with_migration(
            Cycles(1),
            handles[0],
            spare,
        );
        let report = ClusterServingSim::new(options).run(&mut fleet, &trace);
        assert_eq!(report.migrations.len(), 1, "the migration executed");
        assert!(report.migrations[0].downtime() > Cycles::ZERO);
        assert_eq!(report.stats.completed, 10, "no request was lost");
        assert!(
            report.latency.p99 > baseline.latency.p99,
            "downtime must surface in tenant latency ({} vs {})",
            report.latency.p99,
            baseline.latency.p99
        );
        // The replica genuinely moved.
        assert_eq!(fleet.node(spare).unwrap().manager().vnpu_count(), 1);
        assert_eq!(
            fleet.node(handles[0].node).unwrap().manager().vnpu_count(),
            0
        );
    }

    /// The canonical live-migration scenario: one loaded replica, a spare
    /// node, a stream long enough that arrivals span the whole copy window.
    fn precopy_scenario(mode_live: bool, cost_model: MigrationCostModel) -> ServingReport {
        let service = estimated_service_cycles(ModelId::Mnist, 2, 2, &NpuConfig::single_core());
        let (mut fleet, handles) = fleet_with_replicas(2, 1);
        let spare = NodeId(if handles[0].node.0 == 0 { 1 } else { 0 });
        let trace = burst_trace(400, service);
        let mut options = ServingOptions::new(DispatchPolicy::LeastLoaded)
            .with_admission(AdmissionControl {
                max_queue_depth: 1_000,
            })
            .with_cost_model(cost_model);
        options = if mode_live {
            options.with_live_migration(Cycles(1), handles[0], spare)
        } else {
            options.with_migration(Cycles(1), handles[0], spare)
        };
        ClusterServingSim::new(options).run(&mut fleet, &trace)
    }

    #[test]
    fn precopy_cuts_downtime_an_order_of_magnitude_below_cold() {
        let cold = precopy_scenario(false, MigrationCostModel::default());
        let live = precopy_scenario(true, MigrationCostModel::default());
        assert_eq!(cold.migrations.len(), 1);
        assert_eq!(live.migrations.len(), 1);
        let cold_record = &cold.migrations[0];
        let live_record = &live.migrations[0];
        assert_eq!(cold_record.mode, MigrationMode::Cold);
        assert_eq!(live_record.mode, MigrationMode::PreCopy);
        assert!(live_record.converged, "a read-mostly tenant must converge");
        assert!(
            live_record.precopy_rounds >= 1,
            "at least the full-state round ran"
        );
        assert!(live_record.precopy_bytes >= live_record.state_bytes);
        assert!(
            live_record.downtime().get() * 10 <= cold_record.downtime().get(),
            "pre-copy downtime must be >=10x below cold ({} vs {})",
            live_record.downtime(),
            cold_record.downtime()
        );
        // Matched throughput: both runs complete the whole admitted stream.
        assert_eq!(cold.stats.completed, 400);
        assert_eq!(live.stats.completed, 400);
        // The shorter dark window shows up in the tail.
        assert!(live.latency.p99 <= cold.latency.p99);
        // Per-mode aggregates follow the records.
        assert_eq!(live.migration_stats.precopy, 1);
        assert_eq!(live.migration_stats.precopy_fallbacks, 0);
        assert_eq!(
            live.migration_stats.rounds,
            live_record.precopy_rounds as u64
        );
        assert_eq!(
            live.migration_stats.downtime_total,
            live_record.downtime().get()
        );
        assert_eq!(cold.migration_stats.cold, 1);
        assert_eq!(cold.migration_stats.precopy, 0);
    }

    #[test]
    fn precopy_source_keeps_serving_through_the_copy_rounds() {
        let live = precopy_scenario(true, MigrationCostModel::default());
        let record = &live.migrations[0];
        assert!(
            record.precopy_cycles > 0,
            "the link spent cycles copying while serving"
        );
        assert_eq!(record.round_bytes.len(), record.precopy_rounds as usize);
        assert_eq!(record.precopy_bytes, record.round_bytes.iter().sum::<u64>());
        // The source kept completing requests before the switch-over: with a
        // cold migration at t=1 every request would be served on the spare
        // side of a full dark window, so the source node finishing most of
        // the stream is the live-serving signal.
        let source_completed = live
            .per_node_completed
            .get(&record.from)
            .copied()
            .unwrap_or(0);
        assert!(
            source_completed > 0,
            "the source must serve during pre-copy"
        );
    }

    #[test]
    fn precopy_falls_back_to_cold_when_dirty_rate_outruns_the_link() {
        // A pathological tenant: every request rewrites ~its whole HBM
        // traffic, over a link an order of magnitude slower. The dirty set
        // cannot shrink, so the loop stops and the stop-and-copy moves a
        // cold-sized residual.
        let cost = MigrationCostModel::default()
            .with_interconnect(npu_sim::InterconnectConfig::tpu_v4_ici().with_bandwidth(0.5e9))
            .with_precopy(
                PreCopyConfig::default().with_dirty_rate(
                    DirtyRateModel::default()
                        .with_write_fraction(1.0)
                        .with_scale(400.0),
                ),
            );
        let live = precopy_scenario(true, cost.clone());
        let record = &live.migrations[0];
        assert_eq!(record.mode, MigrationMode::PreCopy);
        assert!(
            !record.converged,
            "the dirty set must outrun the link ({} rounds)",
            record.precopy_rounds
        );
        assert_eq!(live.migration_stats.precopy_fallbacks, 1);
        // Graceful: nothing is lost, the residual is cold-sized rather than
        // unbounded.
        assert_eq!(live.stats.completed, live.stats.admitted);
        let cold = precopy_scenario(false, cost);
        assert!(
            record.downtime().get() <= cold.migrations[0].downtime().get() * 2,
            "fallback downtime stays in the cold ballpark ({} vs {})",
            record.downtime(),
            cold.migrations[0].downtime()
        );
    }

    #[test]
    fn precopy_runs_are_seed_reproducible() {
        let first = precopy_scenario(true, MigrationCostModel::default());
        let second = precopy_scenario(true, MigrationCostModel::default());
        assert_eq!(first, second, "same inputs, identical report");
    }

    #[test]
    fn concurrent_precopies_contend_for_the_link() {
        // Two replicas on the same board, both live-migrating to the same
        // spare at t = 0: their round-0 transfers share one link, so the
        // second transfer queues behind the first and its copy window
        // (wait + stream) is strictly longer.
        let service = estimated_service_cycles(ModelId::Mnist, 2, 2, &NpuConfig::single_core());
        let mut fleet = NpuCluster::homogeneous(2, &NpuConfig::single_core());
        let spec = DeploySpec::replica(ModelId::Mnist, 1, 1).with_memory(16 << 20, 1 << 30);
        let a = fleet.deploy(spec, PlacementPolicy::BestFit).unwrap();
        let b = fleet.deploy(spec, PlacementPolicy::BestFit).unwrap();
        assert_eq!(a.node, b.node, "best-fit packs the same board");
        let spare = NodeId(if a.node.0 == 0 { 1 } else { 0 });
        let trace = burst_trace(60, service);
        let options = ServingOptions::new(DispatchPolicy::LeastLoaded)
            .with_live_migration(Cycles(0), a, spare)
            .with_live_migration(Cycles(0), b, spare);
        let report = ClusterServingSim::new(options).run(&mut fleet, &trace);
        assert_eq!(report.migrations.len(), 2);
        let first = &report.migrations[0];
        let second = &report.migrations[1];
        assert!(
            second.precopy_cycles > first.precopy_cycles,
            "the second transfer must wait for the shared link ({} vs {})",
            second.precopy_cycles,
            first.precopy_cycles
        );
    }

    #[test]
    fn concurrent_cold_migrations_contend_for_the_link() {
        // Same shape as the pre-copy contention test, but cold: the second
        // dark transfer queues behind the first on the shared link, so its
        // transfer window (wait + stream) is strictly longer.
        let mut fleet = NpuCluster::homogeneous(2, &NpuConfig::single_core());
        let spec = DeploySpec::replica(ModelId::Mnist, 1, 1).with_memory(16 << 20, 1 << 30);
        let a = fleet.deploy(spec, PlacementPolicy::BestFit).unwrap();
        let b = fleet.deploy(spec, PlacementPolicy::BestFit).unwrap();
        assert_eq!(a.node, b.node);
        let spare = NodeId(if a.node.0 == 0 { 1 } else { 0 });
        let trace = burst_trace(4, 1_000);
        let options = ServingOptions::new(DispatchPolicy::LeastLoaded)
            .with_migration(Cycles(0), a, spare)
            .with_migration(Cycles(0), b, spare);
        let report = ClusterServingSim::new(options).run(&mut fleet, &trace);
        assert_eq!(report.migrations.len(), 2);
        assert!(
            report.migrations[1].transfer_cycles > report.migrations[0].transfer_cycles,
            "the second cold transfer must wait for the shared link ({} vs {})",
            report.migrations[1].transfer_cycles,
            report.migrations[0].transfer_cycles
        );
    }

    #[test]
    fn round_robin_routes_around_a_migrating_replica() {
        // Regression: RR used to keep dispatching to the dark replica and
        // charge the whole migration downtime to the queued requests. Two
        // replicas on different nodes; replica 0 migrates at t = 0 to a third
        // node while the whole burst arrives during the dark window.
        let mut fleet = NpuCluster::homogeneous(3, &NpuConfig::single_core());
        let spec = DeploySpec::replica(ModelId::Mnist, 2, 2);
        let a = fleet.deploy(spec, PlacementPolicy::WorstFit).unwrap();
        let b = fleet.deploy(spec, PlacementPolicy::WorstFit).unwrap();
        let spare = NodeId(
            (0..3)
                .find(|id| *id != a.node.0 && *id != b.node.0)
                .unwrap(),
        );
        let trace = burst_trace(20, 500);
        let options =
            ServingOptions::new(DispatchPolicy::RoundRobin).with_migration(Cycles(0), a, spare);
        let report = ClusterServingSim::new(options).run(&mut fleet, &trace);
        assert_eq!(report.migrations.len(), 1);
        assert_eq!(report.stats.completed, 20);
        assert_eq!(
            report.per_node_completed.get(&b.node),
            Some(&20),
            "every request of the dark window is served by the live replica"
        );
    }

    #[test]
    fn controller_migration_follows_the_cold_path() {
        let service = estimated_service_cycles(ModelId::Mnist, 2, 2, &NpuConfig::single_core());
        let (mut fleet, handles) = fleet_with_replicas(2, 1);
        let spare = NodeId(if handles[0].node.0 == 0 { 1 } else { 0 });
        let trace = burst_trace(20, service);
        let mut script = Script {
            at: vec![(
                1,
                vec![ControlAction::Migrate {
                    handle: handles[0],
                    to: spare,
                    mode: MigrationMode::Cold,
                }],
            )],
            tick: 0,
        };
        let options = ServingOptions::new(DispatchPolicy::LeastLoaded).with_telemetry(service * 2);
        let report =
            ClusterServingSim::new(options).run_with_controller(&mut fleet, &trace, &mut script);
        assert_eq!(report.control.migrations_requested, 1);
        assert_eq!(report.migrations.len(), 1, "the migration executed");
        assert_eq!(report.stats.completed, 20, "no request was lost");
        assert_eq!(fleet.node(spare).unwrap().manager().vnpu_count(), 1);
    }

    #[test]
    fn migration_aware_dispatch_cuts_dark_window_misses() {
        // A live migration streams ~17 GB over a fast link while background
        // deadline traffic trickles in; a burst lands just before the
        // stop-and-copy pause (~371k cycles in). The unaware router keeps
        // packing the replica that is about to go dark, stranding part of
        // the burst in its queue through the pause; the aware router steers
        // the whole burst to the untouched replica, which drains it within
        // the deadline slack.
        use npu_sim::InterconnectConfig;
        let service = estimated_service_cycles(ModelId::Mnist, 2, 2, &NpuConfig::single_core());
        let cost = MigrationCostModel {
            interconnect: InterconnectConfig {
                bandwidth_bytes_per_sec: 50.0e12,
                setup_cycles: 200,
            },
            drain_grace_cycles: 100_000,
            remap_cycles: 200_000,
            context_bytes: 256 << 10,
            precopy: PreCopyConfig {
                stop_fraction: 0.2,
                ..PreCopyConfig::default()
            },
        };
        let run = |aware: bool| {
            let mut fleet = NpuCluster::homogeneous(3, &NpuConfig::single_core());
            let spec = DeploySpec::replica(ModelId::Mnist, 2, 2);
            let a = fleet.deploy(spec, PlacementPolicy::WorstFit).unwrap();
            let b = fleet.deploy(spec, PlacementPolicy::WorstFit).unwrap();
            let spare = NodeId(
                (0..3)
                    .find(|id| *id != a.node.0 && *id != b.node.0)
                    .unwrap(),
            );
            let trace = ClusterTrace::from_arrivals({
                let mut arrivals: Vec<RequestArrival> = (0..26u64)
                    .map(|i| {
                        let at = i * service * 4;
                        RequestArrival::new(Cycles(at), ModelId::Mnist)
                            .with_deadline(Cycles(at + 14 * service))
                    })
                    .collect();
                for _ in 0..8 {
                    arrivals.push(
                        RequestArrival::new(Cycles(365_000), ModelId::Mnist)
                            .with_deadline(Cycles(365_000 + 14 * service)),
                    );
                }
                arrivals.sort_by_key(|arrival| arrival.at);
                arrivals
            });
            let mut options = ServingOptions::new(DispatchPolicy::RoundRobin)
                .with_live_migration(Cycles(service), a, spare)
                .with_cost_model(cost.clone());
            if aware {
                options = options.with_migration_aware_dispatch();
            }
            ClusterServingSim::new(options).run(&mut fleet, &trace)
        };
        let plain = run(false);
        let aware = run(true);
        assert_eq!(plain.migrations.len(), 1);
        assert_eq!(aware.migrations.len(), 1);
        assert_eq!(plain.stats.completed, plain.stats.admitted);
        assert_eq!(aware.stats.completed, aware.stats.admitted);
        let misses = |r: &ServingReport| r.deadline.missed + r.deadline.dropped;
        assert!(
            misses(&plain) > 0,
            "the unaware router must strand part of the burst in the dark window"
        );
        assert!(
            misses(&aware) < misses(&plain),
            "steering away from the migrating replica must cut deadline misses ({} vs {})",
            misses(&aware),
            misses(&plain)
        );
    }
}
