//! The chaos edges of the serving loop: fault injection and the
//! telemetry-driven failure detection and failover pass.

use std::collections::BTreeSet;

use crate::cluster::NpuCluster;
use crate::fault::FaultKind;
use crate::obs::ObsSink;
use crate::router::DispatchDecision;
use crate::NodeId;

use super::partition::{PartitionSim, EV_RESUME};
use super::queue::QueuedRequest;

impl PartitionSim<'_> {
    /// Applies scheduled fault `index` at `now`. Crashes fence the board's
    /// replicas, hangs push their availability past the hang; window faults
    /// only open a window the serving and transfer paths read lazily.
    pub(super) fn inject_fault<S: ObsSink + ?Sized>(
        &mut self,
        cluster: &mut NpuCluster,
        index: usize,
        now: u64,
        sink: &mut S,
    ) {
        let chaos = self
            .state
            .chaos
            .as_mut()
            .expect("EV_FAULT scheduled without chaos state"); // simlint::allow(P1, reason = "EV_FAULT events are only pushed when a fault schedule configured the chaos state")
        let fault = chaos.schedule[index];
        chaos.apply(&fault);
        sink.on_fault(now, &fault);
        match fault.kind {
            FaultKind::BoardCrash { node } => {
                // Cordon the board: nothing (the autoscaler included) may
                // place onto it again. Replicas are fenced, not retired — the
                // router keeps steering into the black hole until the
                // missed-frame detector declares the board dead, which is
                // exactly the availability cost of detection latency.
                cluster.set_offline(node, true);
                chaos.cordoned.insert(node);
                for replica in self
                    .replicas
                    .iter_mut()
                    .filter(|r| r.live() && r.handle.node == node)
                {
                    replica.fence();
                }
            }
            FaultKind::BoardHang { node, for_cycles } => {
                // Cordon for the window so the control plane cannot deploy
                // into dead air; the failover pass re-onlines the board once
                // the hang clears (unless the detector failed it over
                // first). Batches already on the device complete; nothing
                // new starts.
                cluster.set_offline(node, true);
                chaos.cordoned.insert(node);
                let resume_at = now.saturating_add(for_cycles);
                for (slot, replica) in self.replicas.iter_mut().enumerate() {
                    if replica.live() && !replica.fenced && replica.handle.node == node {
                        replica.available_at = replica.available_at.max(resume_at);
                        self.events.push(resume_at, EV_RESUME, slot);
                    }
                }
            }
            FaultKind::LinkDegrade { .. }
            | FaultKind::Straggler { .. }
            | FaultKind::TelemetryDropout { .. } => {}
        }
    }

    /// The failure-detection and failover pass, run at every telemetry tick
    /// before the frame is sampled (detection rides the telemetry bus — no
    /// wall clock anywhere).
    ///
    /// Every monitored board (one hosting at least one live replica) either
    /// heartbeats or bumps its consecutive-missed-frame counter; a board at
    /// the policy threshold is **declared dead**: its replicas are fenced
    /// and released, the orphaned requests (queued + in flight) are
    /// re-dispatched to surviving replicas within their remaining deadline
    /// budget, and replacement replicas are re-placed through the placement
    /// engine with the state restore priced over the (possibly degraded)
    /// interconnect. Finally, cordoned boards whose transient fault window
    /// has closed rejoin the placement engine as spare capacity.
    pub(super) fn failover<S: ObsSink + ?Sized>(
        &mut self,
        cluster: &mut NpuCluster,
        now: u64,
        sink: &mut S,
    ) {
        let Some(mut chaos) = self.state.chaos.take() else {
            return;
        };
        let Some(policy) = chaos.recovery else {
            self.state.chaos = Some(chaos);
            return;
        };

        // Heartbeat accounting over the monitored boards. BTreeSet: the
        // declaration scan below must walk nodes in a deterministic order.
        let monitored: BTreeSet<NodeId> = self
            .replicas
            .iter()
            .filter(|r| r.live())
            .map(|r| r.handle.node)
            .collect();
        let mut dead: Vec<NodeId> = Vec::new();
        for &node in &monitored {
            if chaos.declared.contains(&node) {
                continue;
            }
            if chaos.suppressed(node, now) {
                let missed = chaos.missed.entry(node).or_insert(0);
                *missed += 1;
                if *missed >= policy.missed_frame_threshold {
                    dead.push(node);
                }
            } else {
                chaos.missed.remove(&node);
                chaos.fault_since.remove(&node);
            }
        }

        // Slots whose queues gained redispatched orphans; batches start only
        // after the chaos state is back in place (straggler pricing applies).
        let mut touched: BTreeSet<usize> = BTreeSet::new();

        for node in dead {
            chaos.declared.insert(node);
            chaos.cordoned.insert(node);
            cluster.set_offline(node, true);
            chaos.stats.failovers += 1;
            let fault_at = chaos.fault_since.get(&node).copied().unwrap_or(now);
            let detect = now.saturating_sub(fault_at);
            chaos.stats.detect_cycles_total += detect;
            chaos.stats.detect_cycles_max = chaos.stats.detect_cycles_max.max(detect);

            // Fence and release every live replica on the dead board,
            // capturing its orphans and (for non-draining replicas) the
            // deployment shape to restore elsewhere.
            let slots: Vec<usize> = self
                .replicas
                .iter()
                .enumerate()
                .filter(|(_, r)| r.live() && r.handle.node == node)
                .map(|(slot, _)| slot)
                .collect();
            let mut orphans: Vec<(usize, QueuedRequest)> = Vec::new();
            let mut failed_here = 0u64;
            for slot in slots {
                let replica = &mut self.replicas[slot];
                let handle = replica.handle;
                let restore_spec = if replica.draining {
                    None
                } else {
                    cluster
                        .deployment(handle)
                        .map(|d| (d.spec(), cluster.resident_state_bytes(handle).unwrap_or(0)))
                };
                replica.fence();
                if let Some((mut batch, _, _)) = replica.in_service.take() {
                    orphans.extend(batch.iter().map(|&request| (slot, request)));
                    batch.clear();
                    self.state.batch_pool.push(batch);
                }
                orphans.extend(
                    replica
                        .queue
                        .take_all()
                        .into_iter()
                        .map(|request| (slot, request)),
                );
                // The emptied slot leaves the dispatch index under the load
                // it is filed at: no walk can visit it in between.
                self.release_replica(cluster, slot, now);
                failed_here += 1;
                chaos.stats.replicas_failed += 1;

                // Re-place the replica on a surviving board, pricing the
                // state restore over the interconnect (degraded links slow
                // recovery too).
                let Some((spec, state_bytes)) = restore_spec else {
                    continue;
                };
                let Ok(new_handle) = cluster.deploy(spec, policy.placement) else {
                    chaos.stats.restore_rejected += 1;
                    continue;
                };
                let frequency = cluster
                    .node(new_handle.node)
                    .expect("deploy placed on an existing node") // simlint::allow(P1, reason = "deploy only places on nodes of the cluster")
                    .npu_config()
                    .frequency;
                let cycles = self
                    .options
                    .cost_model
                    .transfer_cycles(state_bytes, frequency)
                    .get();
                let cycles = chaos.link_cycles(node, new_handle.node, now, cycles);
                let ready = self.links.reserve(node, new_handle.node, now, cycles);
                let new_slot = self.add_replica(cluster, new_handle, now);
                self.replicas[new_slot].available_at = ready;
                self.events.push(ready, EV_RESUME, new_slot);
                chaos.stats.replicas_restored += 1;
                let restore = ready.saturating_sub(fault_at);
                chaos.stats.restore_cycles_total += restore;
                chaos.stats.restore_cycles_max = chaos.stats.restore_cycles_max.max(restore);
                sink.on_replica_restored(now, new_handle.node, new_slot, ready.saturating_sub(now));
            }

            // Re-dispatch the orphans in admission order — or, with
            // `failover_edf`, earliest-deadline-first so the tightest
            // deadlines reach surviving capacity ahead of best-effort
            // backlog. A request past its deadline is dropped with the
            // normal expiry accounting; one no surviving replica can take is
            // lost — with a fault attribution, never silently.
            if self.options.failover_edf {
                orphans.sort_by_key(|(_, request)| request.edf_key());
            } else {
                orphans.sort_by_key(|(_, request)| request.sequence);
            }
            chaos.stats.orphaned += orphans.len() as u64;
            let mut redispatched_here = 0u64;
            for (dead_slot, request) in orphans {
                if self.options.drop_expired && request.deadline.is_some_and(|d| d < now) {
                    chaos.stats.expired_in_failover += 1;
                    self.state.expire(now, &request, node, dead_slot, sink);
                    continue;
                }
                // Each orphan's enqueue re-files its survivor at once, so
                // the next orphan's walk sees this one's load.
                match self.route(request.model, now, true) {
                    DispatchDecision::Dispatch(slot) => {
                        redispatched_here += 1;
                        chaos.stats.redispatched += 1;
                        self.enqueue(slot, request);
                        touched.insert(slot);
                    }
                    DispatchDecision::RejectNoReplica | DispatchDecision::RejectOverload => {
                        chaos.note_lost(request.model);
                        if let Some(engine) = &mut self.state.slo {
                            engine.observe_expired(now, request.model, request.priority);
                        }
                        sink.on_lost(now, request.sequence, request.model, node);
                    }
                }
            }
            sink.on_failover(now, node, failed_here, redispatched_here, detect);
        }

        // Boards whose transient windows closed (hang over, dropout over —
        // never a crash) rejoin the placement engine as spare capacity. A
        // falsely declared board rejoins empty: its replicas were already
        // failed over.
        let rejoin: Vec<NodeId> = chaos
            .cordoned
            .iter()
            .copied()
            .filter(|&node| !chaos.crashed.contains(&node) && !chaos.suppressed(node, now))
            .collect();
        for node in rejoin {
            cluster.set_offline(node, false);
            chaos.cordoned.remove(&node);
            chaos.declared.remove(&node);
            chaos.missed.remove(&node);
            chaos.fault_since.remove(&node);
        }

        self.state.chaos = Some(chaos);
        for slot in touched {
            self.start_next(slot, now, sink);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultSchedule;
    use crate::fault::RecoveryPolicy;
    use crate::router::DispatchPolicy;
    use crate::serving::tests::burst_trace;
    use crate::serving::tests::fleet_with_replicas;
    use crate::serving::ClusterServingSim;
    use crate::serving::ServingOptions;

    #[test]
    fn board_crash_without_recovery_loses_requests() {
        // Round-robin keeps steering to the fenced replica (nothing detects
        // the crash), so everything dispatched there after the fault maroons.
        let (mut fleet, _) = fleet_with_replicas(2, 2);
        let trace = burst_trace(60, 500);
        let faults =
            FaultSchedule::new().with_fault(5_000, FaultKind::BoardCrash { node: NodeId(0) });
        let report = ClusterServingSim::new(
            ServingOptions::new(DispatchPolicy::RoundRobin).with_faults(faults),
        )
        .run(&mut fleet, &trace);
        assert_eq!(report.availability.crashes, 1);
        assert!(
            report.availability.lost > 0,
            "a dead board with no failover must strand its queue"
        );
        // Nothing vanishes silently: every admitted request is either
        // completed or accounted lost with a fault attribution.
        assert_eq!(
            report.stats.admitted,
            report.stats.completed + report.availability.lost as usize + report.deadline.dropped,
            "conservation: admitted = completed + dropped + lost"
        );
        assert!(report.availability.availability() < 1.0);
    }

    #[test]
    fn board_crash_with_recovery_completes_everything() {
        // Same crash, but telemetry-driven detection fences the board,
        // re-places the replica on the spare node, and re-dispatches the
        // orphans: no admitted request is lost.
        let (mut fleet, _) = fleet_with_replicas(3, 2);
        let trace = burst_trace(60, 500);
        let faults =
            FaultSchedule::new().with_fault(5_000, FaultKind::BoardCrash { node: NodeId(0) });
        let options = ServingOptions::new(DispatchPolicy::RoundRobin)
            .with_faults(faults)
            .with_telemetry(2_000)
            .with_recovery(RecoveryPolicy::new(2));
        let report = ClusterServingSim::new(options).run(&mut fleet, &trace);
        assert_eq!(report.availability.crashes, 1);
        assert_eq!(
            report.availability.failovers, 1,
            "the dead board is declared once"
        );
        assert!(report.availability.replicas_restored >= 1);
        assert!(report.availability.mean_detect_cycles() > 0.0);
        assert_eq!(report.availability.lost, 0, "failover saves every orphan");
        assert_eq!(report.stats.completed, report.stats.admitted);
        assert_eq!(report.availability.availability(), 1.0);
    }

    #[test]
    fn short_hang_rides_through_without_failover() {
        // A hang shorter than the detection threshold is absorbed in place:
        // the board resumes, nothing is re-placed, nothing is lost.
        let (mut fleet, _) = fleet_with_replicas(2, 2);
        let trace = burst_trace(40, 1_000);
        let faults = FaultSchedule::new().with_fault(
            5_000,
            FaultKind::BoardHang {
                node: NodeId(0),
                for_cycles: 4_000,
            },
        );
        let options = ServingOptions::new(DispatchPolicy::LeastLoaded)
            .with_faults(faults)
            .with_telemetry(2_000)
            .with_recovery(RecoveryPolicy::new(8));
        let report = ClusterServingSim::new(options).run(&mut fleet, &trace);
        assert_eq!(report.availability.hangs, 1);
        assert_eq!(
            report.availability.failovers, 0,
            "a transient hang below the threshold must not trigger failover"
        );
        assert_eq!(report.availability.lost, 0);
        assert_eq!(report.stats.completed, report.stats.admitted);
    }

    #[test]
    fn chaos_runs_are_seed_reproducible() {
        use crate::fault::FaultProfile;
        let run = || {
            let (mut fleet, _) = fleet_with_replicas(3, 2);
            let trace = burst_trace(40, 800);
            let faults = FaultSchedule::generate(7, 40_000, 3, &FaultProfile::default());
            ClusterServingSim::new(
                ServingOptions::new(DispatchPolicy::LeastLoaded)
                    .with_faults(faults)
                    .with_telemetry(2_000)
                    .with_recovery(RecoveryPolicy::new(2)),
            )
            .run(&mut fleet, &trace)
        };
        let first = run();
        let second = run();
        assert_eq!(
            first, second,
            "the same fault schedule must replay to an identical report"
        );
        assert!(first.availability.injected() > 0);
    }
}
