//! Deadline-aware failover re-dispatch.
//!
//! When a board dies, its queued requests are orphaned and re-dispatched to
//! the surviving replicas. The default order is arrival (sequence) order —
//! stable, but deadline-blind: orphans with loose deadlines re-enqueue ahead
//! of orphans about to expire. [`ServingOptions::with_failover_edf`] switches
//! the re-dispatch sweep to earliest-deadline-first (priority, deadline,
//! sequence), so the requests that can still make their deadline go first.
//!
//! The regression scenario below constructs a board whose queue mixes loose
//! early-sequence requests with tight late-sequence ones, crashes it, and
//! checks that EDF ordering strictly cuts the orphan deadline misses. A
//! second scenario checks that failover re-dispatch honours
//! [`ServingOptions::with_migration_aware_dispatch`] like arrival dispatch
//! does.

use cluster::{
    AdmissionControl, ClusterServingSim, DeploySpec, DispatchPolicy, FaultKind, FaultSchedule,
    NodeId, NpuCluster, RecoveryPolicy, ServingOptions, ServingReport,
};
use std::collections::BTreeMap;

use npu_sim::{Cycles, NpuConfig};
use workloads::{ClusterTrace, ModelId, PriorityClass, RequestArrival};

fn run(edf: bool) -> ServingReport {
    let npu = NpuConfig::single_core();
    let service = cluster::estimated_service_cycles(ModelId::Mnist, 2, 2, &npu);
    // Two boards, one replica each. The dispatcher spreads the burst over
    // both queues; board 0's share is orphaned by the crash.
    let mut fleet = NpuCluster::homogeneous(2, &npu);
    for node in 0..2 {
        fleet
            .deploy_pinned(DeploySpec::replica(ModelId::Mnist, 2, 2), NodeId(node))
            .expect("capacity for the replica");
    }
    // A burst at cycle 0: the first half of the sequence numbers carries
    // loose deadlines, the second half tight ones. Sequence-order
    // re-dispatch therefore drains the loose half first and starves the
    // tight half; EDF re-dispatch does the opposite.
    let arrivals: Vec<RequestArrival> = (0..32)
        .map(|i| {
            let mut arrival = RequestArrival::new(Cycles(i), ModelId::Mnist);
            arrival.priority = PriorityClass::Interactive;
            arrival.deadline = Some(Cycles(if i < 16 { service * 600 } else { service * 28 }));
            arrival
        })
        .collect();
    let trace = ClusterTrace::from_arrivals(arrivals);
    let mut options = ServingOptions::new(DispatchPolicy::RoundRobin)
        .with_admission(AdmissionControl {
            max_queue_depth: 32,
        })
        .with_telemetry(service)
        .with_faults(
            FaultSchedule::new().with_fault(service * 2, FaultKind::BoardCrash { node: NodeId(0) }),
        )
        .with_recovery(RecoveryPolicy::new(1));
    if edf {
        options = options.with_failover_edf();
    }
    ClusterServingSim::new(options).run(&mut fleet, &trace)
}

#[test]
fn edf_failover_cuts_orphan_deadline_misses() {
    let sequence_order = run(false);
    let edf_order = run(true);

    // Both runs fail over the same orphan set.
    assert_eq!(sequence_order.availability.crashes, 1);
    assert_eq!(edf_order.availability.crashes, 1);
    assert!(
        sequence_order.availability.redispatched > 0,
        "the crash must orphan and re-dispatch queued requests"
    );
    assert_eq!(
        sequence_order.availability.redispatched, edf_order.availability.redispatched,
        "the ordering knob must not change how many orphans are re-dispatched"
    );

    // The regression claim: deadline-aware ordering strictly reduces misses.
    assert!(
        sequence_order.deadline.missed > 0,
        "sequence-order re-dispatch must miss deadlines in this scenario \
         (got {:?})",
        sequence_order.deadline
    );
    assert!(
        edf_order.deadline.missed < sequence_order.deadline.missed,
        "EDF re-dispatch must cut orphan deadline misses: edf {:?} vs \
         sequence {:?}",
        edf_order.deadline,
        sequence_order.deadline
    );
    // Ordering re-shuffles who waits, it does not shed work.
    assert_eq!(
        sequence_order.stats.completed + sequence_order.availability.lost as usize,
        edf_order.stats.completed + edf_order.availability.lost as usize,
        "EDF ordering must not change the amount of served work"
    );
}

/// The knob is off by default and changes nothing when no fault ever fires:
/// orphan ordering is dead code on a healthy fleet.
#[test]
fn edf_failover_is_inert_without_faults() {
    let npu = NpuConfig::single_core();
    let run = |edf: bool| {
        let mut fleet = NpuCluster::homogeneous(2, &npu);
        for node in 0..2 {
            fleet
                .deploy_pinned(DeploySpec::replica(ModelId::Mnist, 2, 2), NodeId(node))
                .expect("capacity for the replica");
        }
        let trace = ClusterTrace::poisson(&[(ModelId::Mnist, 2_000)], 64, 99);
        let mut options = ServingOptions::new(DispatchPolicy::LeastLoaded);
        if edf {
            options = options.with_failover_edf();
        }
        ClusterServingSim::new(options).run(&mut fleet, &trace)
    };
    assert_eq!(
        run(false),
        run(true),
        "without faults the re-dispatch order is never consulted"
    );
}

/// Records where each request was first dispatched and where it entered
/// service.
#[derive(Default)]
struct Placements {
    dispatched: BTreeMap<u64, usize>,
    served: Vec<(u64, usize)>,
}

impl cluster::ObsSink for Placements {
    fn active(&self) -> bool {
        true
    }

    fn on_dispatch(
        &mut self,
        _now: u64,
        sequence: u64,
        _model: ModelId,
        _node: NodeId,
        slot: usize,
    ) {
        self.dispatched.insert(sequence, slot);
    }

    fn on_service_request(
        &mut self,
        _start: u64,
        sequence: u64,
        _model: ModelId,
        _arrived: u64,
        _node: NodeId,
        slot: usize,
    ) {
        self.served.push((sequence, slot));
    }
}

/// Regression: failover re-dispatch built its candidate views without the
/// live-migration avoidance that arrival dispatch applies, so with
/// migration-aware dispatch on, the orphans of a crashed board landed on
/// the replica whose stop-and-copy was imminent — the one replica arrivals
/// were being steered away from.
#[test]
fn failover_redispatch_avoids_a_replica_mid_precopy() {
    let npu = NpuConfig::single_core();
    let service = cluster::estimated_service_cycles(ModelId::Mnist, 2, 2, &npu);
    // Slot 0 live-migrates to the spare board 3 for the whole run (its
    // full-state round alone outlasts the trace), slot 1's board crashes,
    // slot 2 is the only clean survivor.
    let mut fleet = NpuCluster::homogeneous(4, &npu);
    let handles: Vec<_> = (0..3)
        .map(|node| {
            fleet
                .deploy_pinned(DeploySpec::replica(ModelId::Mnist, 2, 2), NodeId(node))
                .expect("capacity for the replica")
        })
        .collect();
    let trace = ClusterTrace::from_arrivals(
        (0..120u64)
            .map(|i| RequestArrival::new(Cycles(i * service / 2), ModelId::Mnist))
            .collect(),
    );
    let options = ServingOptions::new(DispatchPolicy::LeastLoaded)
        .with_admission(AdmissionControl {
            max_queue_depth: 64,
        })
        .with_migration_aware_dispatch()
        .with_live_migration(Cycles(service), handles[0], NodeId(3))
        .with_telemetry(service * 2)
        .with_faults(
            FaultSchedule::new()
                .with_fault(service * 20, FaultKind::BoardCrash { node: NodeId(1) }),
        )
        .with_recovery(RecoveryPolicy::new(2));
    let mut placements = Placements::default();
    let report = ClusterServingSim::new(options).run_observed(&mut fleet, &trace, &mut placements);

    assert_eq!(report.availability.failovers, 1);
    assert!(
        report.availability.redispatched > 0,
        "the crash must orphan and re-dispatch queued requests"
    );
    assert_eq!(report.stats.completed, report.stats.admitted);
    let orphans_on_migrating: Vec<u64> = placements
        .served
        .iter()
        .filter(|(sequence, slot)| *slot == 0 && placements.dispatched.get(sequence) == Some(&1))
        .map(|(sequence, _)| *sequence)
        .collect();
    assert!(
        orphans_on_migrating.is_empty(),
        "orphans of the crashed board must avoid the replica mid pre-copy, \
         but {orphans_on_migrating:?} were served there"
    );
}
