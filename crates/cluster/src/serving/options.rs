//! What a serving run is asked to do ([`ServingOptions`]) and what it
//! measured ([`ServingReport`]).

use std::collections::BTreeMap;

use neu10::{DeadlineStats, LatencySummary};
use npu_sim::{Cycles, NpuConfig};
use workloads::ModelId;

use crate::cluster::VnpuHandle;
use crate::fault::{AvailabilityStats, FaultSchedule, RecoveryPolicy};
use crate::migration::{MigrationCostModel, MigrationMode, MigrationRecord, MigrationStats};
use crate::obs::{AlertLog, SloConfig};
use crate::router::{AdmissionControl, DispatchPolicy, RouterStats};
use crate::telemetry::ControlStats;
use crate::NodeId;

/// A migration the operator schedules before the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledMigration {
    /// When the migration is triggered.
    pub at: Cycles,
    /// The deployment to move (its handle at schedule time).
    pub handle: VnpuHandle,
    /// The destination node.
    pub to: NodeId,
    /// How the state moves (cold stop-and-copy or live pre-copy).
    pub mode: MigrationMode,
}

/// Seeded service-time dispersion settings.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StochasticService {
    /// RNG seed; runs with the same seed produce identical reports.
    pub seed: u64,
    /// Requests per tenant in the [`neu10::CollocationSim`] calibration run
    /// that measures the dispersion.
    pub calibration_requests: usize,
    /// Overrides the calibrated coefficient of variation (useful for tests
    /// and sensitivity sweeps); `None` calibrates per (model, allocation,
    /// board).
    pub cv_override: Option<f64>,
}

impl StochasticService {
    /// Calibrated dispersion with the given seed.
    pub fn seeded(seed: u64) -> Self {
        StochasticService {
            seed,
            calibration_requests: 4,
            cv_override: None,
        }
    }

    /// Forces the coefficient of variation instead of calibrating it.
    ///
    /// A coefficient of variation is a non-negative, finite dispersion:
    /// negative values clamp to 0 (deterministic service) and non-finite
    /// values (`NaN`, `±inf`) are rejected as 0 rather than poisoning every
    /// sampled service time downstream.
    pub fn with_cv(mut self, cv: f64) -> Self {
        self.cv_override = Some(if cv.is_finite() { cv.max(0.0) } else { 0.0 });
        self
    }
}

/// Configuration of one serving run.
#[derive(Debug, Clone)]
pub struct ServingOptions {
    /// The dispatch policy under test.
    pub dispatch: DispatchPolicy,
    /// Admission-control limits.
    pub admission: AdmissionControl,
    /// Migrations to trigger mid-run.
    pub migrations: Vec<ScheduledMigration>,
    /// The migration cost model.
    pub cost_model: MigrationCostModel,
    /// Largest number of queued requests a replica serves in one pass
    /// (1 = no batching).
    pub max_batch: usize,
    /// Longest an idle replica holds a sub-`max_batch` queue to let a batch
    /// form, counted from the oldest queued arrival; `None` serves whatever
    /// is queued immediately.
    pub max_batch_wait: Option<u64>,
    /// Drop queued requests whose deadline has already passed instead of
    /// serving them late.
    pub drop_expired: bool,
    /// Seeded service-time dispersion; `None` keeps service deterministic.
    pub stochastic: Option<StochasticService>,
    /// Telemetry sampling interval in cycles; `None` disables the telemetry
    /// bus (and with it any control plane).
    pub telemetry_interval: Option<u64>,
    /// SLO specs and burn-rate policies evaluated inside the event loop;
    /// `None` (the default) schedules no alert ticks and leaves the report's
    /// [`AlertLog`] empty.
    pub slo: Option<SloConfig>,
    /// Faults to inject as deterministic events; `None` (the default) runs a
    /// fault-free fleet.
    pub faults: Option<FaultSchedule>,
    /// Failure detection + failover policy; `None` injects faults without
    /// recovering from them (the chaos baseline).
    pub recovery: Option<RecoveryPolicy>,
    /// Steer new requests away from replicas whose live migration is in
    /// flight (stop-and-copy imminent) while any clean replica exists.
    pub migration_aware_dispatch: bool,
    /// Re-dispatch failover orphans in earliest-deadline-first order
    /// (priority class, then deadline, then admission sequence) instead of
    /// admission order, so the tightest-deadline orphans reach surviving
    /// replicas first. Off by default: the order changes queue contents
    /// after a failover, and locked golden runs predate it.
    pub failover_edf: bool,
}

impl ServingOptions {
    /// Default options for a dispatch policy.
    pub fn new(dispatch: DispatchPolicy) -> Self {
        ServingOptions {
            dispatch,
            admission: AdmissionControl::default(),
            migrations: Vec::new(),
            cost_model: MigrationCostModel::default(),
            max_batch: 1,
            max_batch_wait: None,
            drop_expired: false,
            stochastic: None,
            telemetry_interval: None,
            slo: None,
            faults: None,
            recovery: None,
            migration_aware_dispatch: false,
            failover_edf: false,
        }
    }

    /// Overrides the admission limits.
    pub fn with_admission(mut self, admission: AdmissionControl) -> Self {
        self.admission = admission;
        self
    }

    /// Schedules a cold migration.
    pub fn with_migration(mut self, at: Cycles, handle: VnpuHandle, to: NodeId) -> Self {
        self.migrations.push(ScheduledMigration {
            at,
            handle,
            to,
            mode: MigrationMode::Cold,
        });
        self
    }

    /// Schedules a live pre-copy migration: the replica keeps serving through
    /// the copy rounds and goes dark only for the residual stop-and-copy.
    pub fn with_live_migration(mut self, at: Cycles, handle: VnpuHandle, to: NodeId) -> Self {
        self.migrations.push(ScheduledMigration {
            at,
            handle,
            to,
            mode: MigrationMode::PreCopy,
        });
        self
    }

    /// Overrides the migration cost model (interconnect link, pre-copy loop
    /// and dirty-rate knobs).
    pub fn with_cost_model(mut self, cost_model: MigrationCostModel) -> Self {
        self.cost_model = cost_model;
        self
    }

    /// Enables dynamic batching up to `max_batch` requests per pass.
    pub fn with_batching(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch.max(1);
        self
    }

    /// Holds an idle replica's sub-`max_batch` queue for up to `wait` cycles
    /// (from the oldest queued arrival) before serving a partial batch.
    pub fn with_batch_wait(mut self, wait: u64) -> Self {
        self.max_batch_wait = Some(wait);
        self
    }

    /// Drops expired requests unserved instead of serving them late.
    pub fn with_drop_expired(mut self) -> Self {
        self.drop_expired = true;
        self
    }

    /// Enables seeded stochastic service times.
    pub fn with_stochastic(mut self, stochastic: StochasticService) -> Self {
        self.stochastic = Some(stochastic);
        self
    }

    /// Emits a telemetry frame every `interval` cycles (the sampling hook of
    /// the autopilot control plane).
    pub fn with_telemetry(mut self, interval: u64) -> Self {
        self.telemetry_interval = Some(interval.max(1));
        self
    }

    /// Evaluates `slo` inside the event loop: completions and expiries feed
    /// the burn-rate engine, alert edges land in the report's
    /// [`AlertLog`] (and reach the sink / control plane as they happen).
    pub fn with_slo(mut self, slo: SloConfig) -> Self {
        self.slo = Some(slo);
        self
    }

    /// Injects `faults` as deterministic events inside the event loop. Every
    /// fault and its consequences are part of the run's seeded input: the
    /// same schedule, trace and seed reproduce the same
    /// [`AvailabilityStats`] byte for byte.
    pub fn with_faults(mut self, faults: FaultSchedule) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Arms failure detection and failover. Detection rides the telemetry
    /// bus — a board is declared dead after
    /// [`RecoveryPolicy::missed_frame_threshold`] consecutive missed frames —
    /// so recovery requires [`with_telemetry`](ServingOptions::with_telemetry);
    /// without it no frame is ever missed and nothing is detected.
    pub fn with_recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.recovery = Some(recovery);
        self
    }

    /// Steers new requests away from replicas with a live migration in
    /// flight (their stop-and-copy dark window is imminent) while any clean
    /// replica exists — the same soft-avoid mechanism failover uses to drain
    /// dying boards. Off by default: avoidance changes dispatch decisions,
    /// and locked golden runs predate it.
    pub fn with_migration_aware_dispatch(mut self) -> Self {
        self.migration_aware_dispatch = true;
        self
    }

    /// Re-dispatches failover orphans earliest-deadline-first: higher
    /// priority classes first, then the nearest deadline, then admission
    /// order. Cuts orphan deadline misses when a dead board strands a mixed
    /// queue. Off by default: locked golden runs predate it.
    pub fn with_failover_edf(mut self) -> Self {
        self.failover_edf = true;
        self
    }
}

/// Simulator-side execution counters of one serving run: how much machinery
/// the event loop turned, independent of what the simulated fleet did. The
/// `perf_fleet` harness reports these alongside wall-clock time so perf
/// regressions can be told apart from workload changes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PerfStats {
    /// Discrete events processed (completions, resumes, batch timeouts,
    /// migrations, telemetry samples).
    pub events: u64,
    /// Trace arrivals consumed.
    pub arrivals: u64,
    /// Largest number of simultaneously live replicas.
    pub peak_replicas: usize,
}

impl PerfStats {
    /// Events plus arrivals: everything the event loop dequeued.
    pub fn total_processed(&self) -> u64 {
        self.events + self.arrivals
    }
}

/// The measurements of one serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingReport {
    /// The dispatch policy that ran.
    pub dispatch: DispatchPolicy,
    /// Router counters (offered / admitted / rejected / completed). With
    /// drop-on-expiry enabled, `admitted = completed + deadline.dropped`.
    pub stats: RouterStats,
    /// Latency summary over every completed request (cycles from arrival to
    /// completion — queueing, batching, service and migration downtime
    /// included).
    pub latency: LatencySummary,
    /// Per-model latency summaries.
    pub per_model: BTreeMap<ModelId, LatencySummary>,
    /// Requests completed per node (attributed to the node that served them).
    pub per_node_completed: BTreeMap<NodeId, usize>,
    /// Deadline bookkeeping over the deadline-carrying requests.
    pub deadline: DeadlineStats,
    /// Service passes executed (a batch of k requests is one pass).
    pub batches: usize,
    /// The migrations that actually executed.
    pub migrations: Vec<MigrationRecord>,
    /// Per-mode migration aggregates (downtime, copy rounds, bytes streamed
    /// while serving) over `migrations`.
    pub migration_stats: MigrationStats,
    /// Control-plane activity (telemetry ticks, scale-ups/downs, controller
    /// migrations); all-zero for open-loop runs.
    pub control: ControlStats,
    /// Provisioned replica-time: the sum over replicas of the cycles between
    /// their activation and their release (or the end of the run). The
    /// replica-hours axis of autoscaling experiments.
    pub replica_cycles: u64,
    /// Time of the last completion (or executed-migration resume). Rejected
    /// arrivals never move the makespan.
    pub makespan: Cycles,
    /// Simulator execution counters (events processed, peak replica count).
    pub perf: PerfStats,
    /// SLO burn-rate alert edges (fire/resolve) in emission order; empty
    /// unless the run was configured with [`ServingOptions::with_slo`].
    pub alerts: AlertLog,
    /// Fault-injection and failover accounting; all-zero unless the run was
    /// configured with [`ServingOptions::with_faults`].
    pub availability: AvailabilityStats,
}

impl ServingReport {
    /// Aggregate throughput in requests per second.
    pub fn throughput_rps(&self, config: &NpuConfig) -> f64 {
        neu10::throughput_rps(self.stats.completed, self.makespan, config.frequency)
    }

    /// Mean number of requests per service pass.
    pub fn mean_batch_size(&self) -> f64 {
        if self.batches == 0 {
            return 0.0;
        }
        self.stats.completed as f64 / self.batches as f64
    }

    /// Provisioned replica-time in seconds (replica-hours × 3600).
    pub fn replica_seconds(&self, config: &NpuConfig) -> f64 {
        config
            .frequency
            .cycles_to_time(Cycles(self.replica_cycles))
            .as_secs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serving::tests::burst_trace;
    use crate::serving::tests::fleet_with_replicas;
    use crate::serving::ClusterServingSim;

    #[test]
    fn with_cv_rejects_degenerate_dispersions() {
        // Regression: a negative or non-finite coefficient of variation used
        // to flow straight into the lognormal sampler.
        assert_eq!(
            StochasticService::seeded(1).with_cv(-0.5).cv_override,
            Some(0.0)
        );
        assert_eq!(
            StochasticService::seeded(1).with_cv(f64::NAN).cv_override,
            Some(0.0)
        );
        assert_eq!(
            StochasticService::seeded(1)
                .with_cv(f64::INFINITY)
                .cv_override,
            Some(0.0)
        );
        assert_eq!(
            StochasticService::seeded(1).with_cv(0.3).cv_override,
            Some(0.3)
        );
        // A clamped dispersion behaves exactly like deterministic service.
        let trace = burst_trace(10, 2_000);
        let run = |options: ServingOptions| {
            let (mut fleet, _) = fleet_with_replicas(1, 1);
            ClusterServingSim::new(options).run(&mut fleet, &trace)
        };
        let deterministic = run(ServingOptions::new(DispatchPolicy::LeastLoaded));
        let clamped = run(ServingOptions::new(DispatchPolicy::LeastLoaded)
            .with_stochastic(StochasticService::seeded(3).with_cv(f64::NAN)));
        assert_eq!(deterministic.latency, clamped.latency);
    }
}
