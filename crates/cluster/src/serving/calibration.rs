//! Service-time calibration: fluid batch service estimates, the seeded
//! lognormal dispersion, and the run-lifetime cache that builds replicas.

use std::collections::BTreeMap;
use std::sync::Arc;

use neu10::{calibrate_service_time, IsaKind, TenantWorkload};
use npu_sim::{NpuConfig, NpuConfigKey};
use rand::rngs::StdRng;
use rand::Rng;
use workloads::ModelId;

use crate::cluster::{DeployedVnpu, NpuCluster};

use super::partition::ReplicaSim;
use super::queue::ReplicaQueue;
use super::ServingOptions;

/// The fluid service-time estimate of one `batch_requests`-request batch on a
/// `mes`×`ves` replica: the model is compiled at
/// `batch_requests × evaluation_batch_size` and each operator runs at the
/// rate of the engines the replica owns and the node's HBM bandwidth. The
/// estimate is sublinear in the batch wherever per-pass work (weight
/// traffic, fixed operator overheads) amortizes. An empty batch
/// (`batch_requests = 0`) is estimated as a batch of one — the cost of
/// spinning the pass up — never as zero or an underflow.
///
/// Compilation goes through the process-wide
/// [`TenantWorkload::compile_cached`] memo, so repeated queries for the same
/// (model, batch, board) — every replica of a homogeneous fleet, every
/// harness capacity estimate — compile exactly once.
pub fn estimated_batch_service_cycles(
    model: ModelId,
    batch_requests: usize,
    mes: usize,
    ves: usize,
    npu: &NpuConfig,
) -> u64 {
    let batch = model.evaluation_batch_size() * batch_requests.max(1) as u64;
    let workload = TenantWorkload::compile_cached(model, batch, npu, IsaKind::NeuIsa);
    let bw_per_cycle = npu.hbm_bandwidth_bytes_per_sec / npu.frequency.hz();
    let mut total = 0.0f64;
    for op in &workload.operators {
        let mut t = 0.0f64;
        if op.me_cycles > 0 {
            let engines = op.me_parallelism.max(1).min(mes.max(1));
            t = t.max(op.me_cycles as f64 / engines as f64);
        }
        if op.ve_cycles > 0 {
            let engines = op.ve_parallelism.max(1).min(ves.max(1));
            t = t.max(op.ve_cycles as f64 / engines as f64);
        }
        if op.hbm_bytes > 0 && bw_per_cycle > 0.0 {
            t = t.max(op.hbm_bytes as f64 / bw_per_cycle);
        }
        total += t;
    }
    (total as u64).max(1)
}

/// The fluid service-time estimate of one single-request pass — the
/// batch-of-1 case of [`estimated_batch_service_cycles`]. Harnesses use this
/// to size offered load relative to fleet capacity.
pub fn estimated_service_cycles(model: ModelId, mes: usize, ves: usize, npu: &NpuConfig) -> u64 {
    estimated_batch_service_cycles(model, 1, mes, ves, npu)
}

/// A lognormal multiplier with mean 1 and the given coefficient of
/// variation, drawn via Box–Muller from the seeded generator.
pub(super) fn lognormal_factor(rng: &mut StdRng, cv: f64) -> f64 {
    if cv <= 0.0 || !cv.is_finite() {
        return 1.0;
    }
    let sigma_sq = (1.0 + cv * cv).ln();
    let sigma = sigma_sq.sqrt();
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
    (-0.5 * sigma_sq + sigma * z).exp()
}

/// The per-(model, allocation, board) service calibration: batch service
/// times for every batch size up to `max_batch` (shared, never re-cloned),
/// plus the stochastic dispersion when enabled.
struct CalibrationEntry {
    batch_cycles: Arc<[u64]>,
    cv: f64,
}

/// The key of one calibration: the replica shape, with the board identified
/// by its hashable [`NpuConfigKey`] instead of deep struct equality.
type CalibrationKey = (ModelId, usize, usize, NpuConfigKey);

/// The run-lifetime calibration cache. Boards are compared by configuration,
/// not node identity, so a homogeneous fleet compiles each (model,
/// allocation) once per batch size — including replicas the control plane
/// scales up mid-run. Lookups hash the key (no linear scan with deep
/// `NpuConfig` comparisons) and hits hand out the shared `Arc<[u64]>` curve
/// (no per-replica clone of the batch table).
///
/// Ordered map (simlint `D1`): the cache is lookup-only today, but any
/// future "recalibrate everything" sweep would iterate it, and in a
/// digest-affecting crate that iteration must be deterministic from day
/// one. The key compares cheap fixed-size integers, so ordered lookups stay
/// free of deep `NpuConfig` scans.
#[derive(Default)]
pub(super) struct CalibrationCache {
    entries: BTreeMap<CalibrationKey, CalibrationEntry>,
}

impl CalibrationCache {
    /// The calibrated batch service times (up to the run's `max_batch`) and
    /// dispersion of one replica shape.
    fn calibrate(
        &mut self,
        options: &ServingOptions,
        model: ModelId,
        mes: usize,
        ves: usize,
        npu: &NpuConfig,
    ) -> (Arc<[u64]>, f64) {
        let key = (model, mes, ves, npu.cache_key());
        let max_batch = options.max_batch.max(1);
        let stochastic = options.stochastic;
        let entry = self.entries.entry(key).or_insert_with(|| {
            let batch_cycles: Arc<[u64]> = (1..=max_batch)
                .map(|k| estimated_batch_service_cycles(model, k, mes, ves, npu))
                .collect();
            let cv = match stochastic {
                Some(stochastic) => {
                    let cv = stochastic.cv_override.unwrap_or_else(|| {
                        calibrate_service_time(
                            npu,
                            model,
                            mes,
                            ves,
                            model.evaluation_batch_size(),
                            None,
                            stochastic.calibration_requests,
                        )
                        .cv
                    });
                    if cv.is_finite() {
                        cv.max(0.0)
                    } else {
                        0.0
                    }
                }
                None => 0.0,
            };
            CalibrationEntry { batch_cycles, cv }
        });
        (Arc::clone(&entry.batch_cycles), entry.cv)
    }

    /// Builds the simulator-side state of one deployed replica; its queue is
    /// earliest-deadline-first exactly when the dispatch policy orders
    /// queues by deadline.
    pub(super) fn replica_sim(
        &mut self,
        options: &ServingOptions,
        cluster: &NpuCluster,
        deployment: &DeployedVnpu,
        now: u64,
    ) -> ReplicaSim {
        let node = cluster
            .node(deployment.handle.node)
            .expect("deployment node exists"); // simlint::allow(P1, reason = "replica construction follows a successful deploy on that node")
        let (batch_cycles, cv) = self.calibrate(
            options,
            deployment.model,
            deployment.config.num_mes_per_core,
            deployment.config.num_ves_per_core,
            node.npu_config(),
        );
        ReplicaSim {
            handle: deployment.handle,
            model: deployment.model,
            batch_cycles,
            cv,
            queue: ReplicaQueue::new(options.dispatch.orders_queues_by_deadline()),
            in_service: None,
            available_at: now,
            pending_migration: None,
            precopy: None,
            batch_timeout_at: None,
            draining: false,
            retired: false,
            fenced: false,
            activated_at: now,
            window_busy: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::DispatchPolicy;
    use crate::serving::tests::burst_trace;
    use crate::serving::tests::fleet_with_replicas;
    use crate::serving::ClusterServingSim;
    use crate::serving::StochasticService;

    #[test]
    fn stochastic_runs_are_seed_reproducible() {
        let trace = burst_trace(30, 2_000);
        let run = |seed: u64| {
            let (mut fleet, _) = fleet_with_replicas(2, 2);
            let options = ServingOptions::new(DispatchPolicy::LeastLoaded)
                .with_stochastic(StochasticService::seeded(seed).with_cv(0.3));
            ClusterServingSim::new(options).run(&mut fleet, &trace)
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a, b, "same seed must reproduce the identical report");
        let c = run(8);
        assert_ne!(
            a.latency, c.latency,
            "a different seed must draw different service times"
        );
    }

    #[test]
    fn empty_batch_estimate_never_underflows() {
        // Regression: `batch_requests = 0` must cost one pass, not zero (or
        // wrap), so capacity planning with an empty backlog stays sane.
        let npu = NpuConfig::single_core();
        let empty = estimated_batch_service_cycles(ModelId::Mnist, 0, 2, 2, &npu);
        let single = estimated_batch_service_cycles(ModelId::Mnist, 1, 2, 2, &npu);
        assert_eq!(empty, single, "an empty batch is priced as a batch of one");
        assert!(empty >= 1);
        // Degenerate engine counts clamp instead of dividing by zero.
        assert!(estimated_batch_service_cycles(ModelId::Mnist, 2, 0, 0, &npu) >= 1);
    }
}
