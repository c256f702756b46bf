//! The `collocation` workload: the paper's §V experiment.
//!
//! Every pair of `collocation_pairs()` runs under each of the four
//! `SharingPolicy`s through `CollocationSim` with `SimOptions::new`
//! defaults, both tenants on 2-ME/2-VE vNPUs of one single-core NPU. One
//! timed call is the whole 36-run sweep. Compilation (both ISAs, every
//! model) is set-up.
//!
//! The experiment has no random inputs: every seed makes the same sweep.

use neu10::{
    geometric_mean, CollocationResult, CollocationSim, IsaKind, SharingPolicy, SimOptions,
    TenantSpec, TenantWorkload, VnpuId,
};
use npu_sim::NpuConfig;
use workloads::{collocation_pairs, WorkloadPair};

use crate::clock;
use crate::output::{best, check, median, overhead_pct, ratio, Checks, Metrics};

/// Requests every tenant completes (the figure harnesses' default).
const TARGET: usize = 5;
/// Timed sweeps every run makes at least, however long they take.
const MIN_SWEEPS: usize = 3;

/// One (pair, policy) run of a sweep.
struct Run {
    pair: usize,
    policy: SharingPolicy,
    result: CollocationResult,
    /// Host seconds of the run call (traced sweeps only).
    secs: f64,
}

/// What a sweep is checked against: the first sweep's results.
type Reference = Option<Vec<CollocationResult>>;

/// The compiled inputs of the experiment.
pub struct Colloc {
    npu: NpuConfig,
    pairs: Vec<WorkloadPair>,
    compile_s: f64,
}

impl Colloc {
    /// Compiles every model of the pairs for both ISAs (cold on the first
    /// set-up of a process).
    pub fn setup() -> Colloc {
        let npu = NpuConfig::single_core();
        let pairs = collocation_pairs();
        let ((), compile_s) = clock::timed(|| {
            for pair in &pairs {
                for model in [pair.first, pair.second] {
                    for isa in [IsaKind::NeuIsa, IsaKind::Vliw] {
                        std::hint::black_box(TenantWorkload::compile_cached(
                            model,
                            model.evaluation_batch_size(),
                            &npu,
                            isa,
                        ));
                    }
                }
            }
        });
        Colloc {
            npu,
            pairs,
            compile_s,
        }
    }

    /// Host seconds of set-up before the first timed call.
    pub fn setup_s(&self) -> f64 {
        self.compile_s
    }

    /// Untraced measurement: repeats the sweep for `seconds` (at least
    /// [`MIN_SWEEPS`] times) and reports the best sweep's requests
    /// completed per host second.
    pub fn measure(
        &self,
        seconds: f64,
        checks: &mut Checks,
        metrics: &mut Metrics,
        between: &mut dyn FnMut() -> Result<(), String>,
    ) -> Result<(), String> {
        let mut reference: Reference = None;
        self.warm_up(checks, &mut reference);
        let start = clock::now_ns();
        let mut rates = Vec::new();
        while rates.len() < MIN_SWEEPS || clock::seconds(start, clock::now_ns()) < seconds {
            let (runs, secs) = clock::timed(|| self.sweep(false));
            rates.push(ratio(requests(&runs) as f64, secs));
            checks.record(&self.check_sweep(&runs, &mut reference));
            drop(runs);
            between()?;
        }
        metrics.put_end_to_end("sim_req_per_s", best(&rates));
        Ok(())
    }

    /// Traced measurement: alternates untraced sweeps and sweeps that time
    /// every run call, for `seconds`.
    pub fn trace(&self, seconds: f64, checks: &mut Checks, metrics: &mut Metrics) {
        let mut reference: Reference = None;
        self.warm_up(checks, &mut reference);
        let start = clock::now_ns();
        let mut untraced_s = Vec::new();
        let mut traced_s = Vec::new();
        // Run-call seconds summed over traced sweeps: per policy, per pair.
        let policies = SharingPolicy::all();
        let mut policy_s = [0.0; 4];
        let mut pair_s = vec![0.0; self.pairs.len()];
        let mut first: Option<Vec<Run>> = None;
        while first.is_none() || clock::seconds(start, clock::now_ns()) < seconds {
            let (runs, secs) = clock::timed(|| self.sweep(false));
            untraced_s.push(secs);
            checks.record(&self.check_sweep(&runs, &mut reference));
            drop(runs);
            let (runs, secs) = clock::timed(|| self.sweep(true));
            traced_s.push(secs);
            checks.record(&self.check_sweep(&runs, &mut reference));
            for run in &runs {
                pair_s[run.pair] += run.secs;
                if let Some(index) = policies.iter().position(|&p| p == run.policy) {
                    policy_s[index] += run.secs;
                }
            }
            first.get_or_insert(runs);
        }
        let Some(first) = first else {
            return;
        };

        let sweeps = traced_s.len() as f64;
        let run_s = pair_s.iter().sum::<f64>() / sweeps;
        for (secs, name) in
            policy_s
                .iter()
                .zip(["run_s.pmt", "run_s.v10", "run_s.neu10-nh", "run_s.neu10"])
        {
            metrics.put("colloc", name, secs / sweeps);
        }
        let top_pair = pair_s.iter().copied().fold(0.0, f64::max) / sweeps;
        let requests = requests(&first) as f64;
        let operators: usize = first
            .iter()
            .flat_map(|run| &run.result.tenants)
            .map(|tenant| tenant.operator_durations.len())
            .sum();
        let untraced = median(&untraced_s);
        metrics.put("colloc", "compile_s", self.compile_s);
        metrics.put("colloc", "top_pair_share", ratio(top_pair, run_s));
        metrics.put("colloc", "requests", requests);
        metrics.put("colloc", "ns_per_req", ratio(untraced * 1e9, requests));
        metrics.put("colloc", "operators", operators as f64);
        metrics.put(
            "trace",
            "overhead_pct",
            overhead_pct(&untraced_s, &traced_s),
        );
        metrics.put(
            "trace",
            "unattributed_share",
            1.0 - ratio(run_s, traced_s.iter().sum::<f64>() / sweeps),
        );
        self.put_model_metrics(metrics, &first);
    }

    /// Untimed sweeps for [`clock::WARMUP_SECONDS`] (at least one), checked
    /// like timed ones but not counted as operations, so timing starts with
    /// the host at full speed.
    fn warm_up(&self, checks: &mut Checks, reference: &mut Reference) {
        let start = clock::now_ns();
        while reference.is_none() || clock::seconds(start, clock::now_ns()) < clock::WARMUP_SECONDS
        {
            let runs = self.sweep(false);
            checks.record_warm_up(&self.check_sweep(&runs, reference));
        }
    }

    /// Runs every (pair, policy); times each run call when `time_runs`.
    fn sweep(&self, time_runs: bool) -> Vec<Run> {
        let mut runs = Vec::with_capacity(self.pairs.len() * 4);
        let schedule = (0..self.pairs.len())
            .flat_map(|pair| SharingPolicy::all().map(|policy| (pair, policy)));
        for (pair, policy) in schedule {
            let workloads = &self.pairs[pair];
            let tenants = vec![
                TenantSpec::evaluation(0, workloads.first, TARGET),
                TenantSpec::evaluation(1, workloads.second, TARGET),
            ];
            let sim = || CollocationSim::new(&self.npu, SimOptions::new(policy), tenants).run();
            let (result, secs) = if time_runs {
                clock::timed(sim)
            } else {
                (sim(), 0.0)
            };
            runs.push(Run {
                pair,
                policy,
                result,
                secs,
            });
        }
        runs
    }

    /// Every tenant must reach its target, and every sweep must reproduce
    /// the run's first sweep exactly.
    fn check_sweep(&self, runs: &[Run], reference: &mut Reference) -> Vec<String> {
        let mut failures = Vec::new();
        for run in runs {
            for tenant in &run.result.tenants {
                check(&mut failures, tenant.completed_requests >= TARGET, || {
                    format!(
                        "{} under {}: tenant {:?} completed {} of {} requests",
                        self.pairs[run.pair].label(),
                        run.policy.label(),
                        tenant.vnpu,
                        tenant.completed_requests,
                        TARGET
                    )
                });
            }
        }
        match reference {
            Some(expected) => check(
                &mut failures,
                expected.iter().eq(runs.iter().map(|run| &run.result)),
                || "the sweep differs from the run's first sweep on identical inputs".to_string(),
            ),
            None => *reference = Some(runs.iter().map(|run| run.result.clone()).collect()),
        }
        failures
    }

    /// Neu10's modelled gains over PMT: per pair the geometric mean over
    /// both tenants (throughput, p95 latency reduction) or the core's ME
    /// utilization ratio, then the geometric mean over pairs.
    fn put_model_metrics(&self, metrics: &mut Metrics, runs: &[Run]) {
        let result = |pair: usize, policy: SharingPolicy| {
            runs.iter()
                .find(|run| run.pair == pair && run.policy == policy)
                .map(|run| &run.result)
        };
        let mut tput = Vec::new();
        let mut p95 = Vec::new();
        let mut util = Vec::new();
        for pair in 0..self.pairs.len() {
            let (Some(pmt), Some(neu10)) = (
                result(pair, SharingPolicy::Pmt),
                result(pair, SharingPolicy::Neu10),
            ) else {
                continue;
            };
            let tenants = [VnpuId(0), VnpuId(1)];
            let per_tenant = |f: &dyn Fn(&CollocationResult, VnpuId) -> f64, invert: bool| {
                let ratios: Vec<f64> = tenants
                    .iter()
                    .map(|&vnpu| {
                        let (a, b) = (f(neu10, vnpu), f(pmt, vnpu));
                        if invert {
                            ratio(b, a)
                        } else {
                            ratio(a, b)
                        }
                    })
                    .collect();
                geometric_mean(&ratios)
            };
            tput.push(per_tenant(&|r, v| r.throughput_rps(v, &self.npu), false));
            p95.push(per_tenant(
                &|r, v| r.tenant(v).map_or(0.0, |t| t.latency_summary().p95 as f64),
                true,
            ));
            util.push(ratio(neu10.me_utilization, pmt.me_utilization));
        }
        metrics.put("model", "neu10_tput_gain", geometric_mean(&tput));
        metrics.put("model", "neu10_p95_gain", geometric_mean(&p95));
        metrics.put("model", "neu10_util_gain", geometric_mean(&util));
    }
}

/// Requests completed by every tenant of every run.
fn requests(runs: &[Run]) -> usize {
    runs.iter()
        .flat_map(|run| &run.result.tenants)
        .map(|tenant| tenant.completed_requests)
        .sum()
}
