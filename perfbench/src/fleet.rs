//! The three fleet workloads: `fleet-steady`, `fleet-sharded` and
//! `fleet-control`.
//!
//! Each builds its inputs once from the seed (calibration, trace, fleet),
//! then repeats one timed simulation call over the whole pre-generated trace
//! — a batch job with no real-time pacing. A fresh fleet is deployed before
//! every call, outside the timed region, because runs mutate it.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use autopilot::{Autopilot, AutoscalePolicy, ScalingSpec, TargetTracking};
use cluster::{
    estimated_batch_service_cycles, estimated_service_cycles, export_chrome_trace,
    export_openmetrics, export_timeseries_openmetrics, validate_chrome_trace, validate_openmetrics,
    AlertTransition, ClusterServingSim, ControlAction, ControlPlane, DeploySpec, DispatchPolicy,
    FaultProfile, FaultSchedule, MigrationCostModel, NpuCluster, PlacementPolicy, RecoveryPolicy,
    ServingOptions, ServingReport, ShardOptions, SloConfig, SloSpec, StochasticService,
    TelemetryFrame, TimeSeriesConfig, TimeSeriesRecorder, TraceConfig, TraceRecorder, VnpuHandle,
};
use npu_sim::{Cycles, InterconnectConfig, NpuConfig};
use workloads::{ClusterTrace, DiurnalTrace, ModelId, PriorityClass, QosSpec};

use crate::clock;
use crate::gap::{GapSink, Layer, LayerTimes};
use crate::output::{best, check, median, overhead_pct, quantile, ratio, Checks, Metrics};

/// Requests per batch on every fleet workload.
const MAX_BATCH: usize = 8;
/// Engines per replica (MEs and VEs each).
const REPLICA_ENGINES: usize = 2;
/// Offered load relative to the fleet's batched capacity.
const LOAD: f64 = 0.7;
/// Service-time coefficient of variation.
const SERVICE_CV: f64 = 0.2;
/// Timed calls every run makes at least, however long they take.
const MIN_CALLS: usize = 3;

/// `fleet-steady` / `fleet-sharded`: boards, replicas and models.
const BIG_BOARDS: usize = 64;
const BIG_REPLICAS: usize = 512;
const BIG_MODELS: [ModelId; 8] = [
    ModelId::Mnist,
    ModelId::Ncf,
    ModelId::Dlrm,
    ModelId::ResNet,
    ModelId::Bert,
    ModelId::EfficientNet,
    ModelId::Transformer,
    ModelId::RetinaNet,
];
/// Poisson arrivals per model (8 models: 250,000 arrivals per call).
const BIG_ARRIVALS_PER_MODEL: usize = 31_250;
/// `fleet-sharded` layout: board-group partitions and worker threads.
const PARTITIONS: usize = 8;
const THREADS: usize = 2;

/// `fleet-control`: one model on 16 single-core boards over one diurnal day.
const CONTROL_MODEL: ModelId = ModelId::Mnist;
const CONTROL_BOARDS: usize = 16;
/// Starting replicas, which are also the autoscaler's floor.
const CONTROL_MIN_REPLICAS: usize = 8;
const CONTROL_MAX_REPLICAS: usize = 28;
/// Day length, in single-request service times.
const CONTROL_DAY_SERVICES: u64 = 9_000;
/// Telemetry (and control) tick, in single-request service times.
const CONTROL_TICK_SERVICES: u64 = 4;
/// Faults of each kind injected over the first 70% of the day.
const CONTROL_FAULTS_PER_KIND: usize = 2;
/// Live pre-copy migrations: (service times into the day, starting replica,
/// destination board). The autoscaler drains the least-loaded replica,
/// lowest handle first, so the last-deployed replicas are the ones still
/// serving when their migration comes due.
const CONTROL_MIGRATIONS: [(u64, usize, u32); 3] = [(10, 7, 15), (20, 6, 14), (30, 5, 13)];

/// Which fleet workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Sequential `run` over the big fleet.
    Steady,
    /// `run_sharded` over the big fleet, 8 partitions on 2 threads.
    Sharded,
    /// A diurnal day under the autopilot, chaos, migrations and recorders.
    Control,
}

/// Set-up work, timed per layer.
#[derive(Debug, Default, Clone, Copy)]
struct SetupTimes {
    calibration_s: f64,
    calibration_calls: u64,
    trace_gen_s: f64,
    deploy_s: f64,
    deploys: u64,
}

/// Everything built before the first timed call.
pub struct Fleet {
    kind: Kind,
    npu: NpuConfig,
    seed: u64,
    trace: ClusterTrace,
    options: ServingOptions,
    /// Cycles of one single-request pass of the control model.
    service: u64,
    setup: SetupTimes,
    /// The fleet the next timed call runs on, deployed ahead of time.
    ready: Option<NpuCluster>,
}

/// What calls are checked against: the run's first report and, on
/// `fleet-control`, its export sizes.
type Reference = Option<(ServingReport, Vec<usize>)>;

/// One timed call's output.
struct Call {
    report: ServingReport,
    secs: f64,
    /// `fleet-control` only: the Chrome trace, registry and time-series
    /// exports, in that order.
    exports: Vec<String>,
}

/// What one traced call measured beyond its report.
#[derive(Default)]
struct TracedCall {
    secs: f64,
    startup_s: f64,
    layers: LayerTimes,
    /// Host thread-seconds the call could use (wall × worker threads).
    thread_s: f64,
    /// Per partition: hooks seen and nanoseconds charged (sharded only).
    partitions: Vec<(u64, u64)>,
    /// Share of the wall time no partition spent between hooks.
    coordinator_share: f64,
    /// Nanoseconds inside the forwarded program sinks (trace, series).
    sink_ns: Vec<u64>,
    /// Host nanoseconds of each `Autopilot::control` call.
    control_ns: Vec<u64>,
    control_actions: u64,
    /// Control-plane nanoseconds kept out of the gaps.
    control_plane_ns: u64,
    /// Seconds of the Chrome-trace export and of both OpenMetrics exports.
    chrome_s: f64,
    openmetrics_s: f64,
    export_bytes: usize,
    trace_sampled: u64,
    trace_overwritten: u64,
    series_samples: u64,
}

impl Fleet {
    /// Builds the workload's inputs from `seed`. Calibration compiles
    /// through the process-wide memo, cold on the first set-up of a process.
    pub fn setup(kind: Kind, seed: u64) -> Result<Fleet, String> {
        let npu = match kind {
            Kind::Steady | Kind::Sharded => NpuConfig::tpu_v4_like(),
            Kind::Control => NpuConfig::single_core(),
        };
        let models: &[ModelId] = match kind {
            Kind::Steady | Kind::Sharded => &BIG_MODELS,
            Kind::Control => &[CONTROL_MODEL],
        };
        let (calibration_calls, calibration_s) = clock::timed(|| calibrate(models, &npu));
        let service =
            estimated_service_cycles(CONTROL_MODEL, REPLICA_ENGINES, REPLICA_ENGINES, &npu);

        let (trace, trace_gen_s) = clock::timed(|| match kind {
            Kind::Steady | Kind::Sharded => big_trace(&npu, seed),
            Kind::Control => control_trace(&npu, seed, service),
        });

        let mut fleet = Fleet {
            kind,
            npu,
            seed,
            trace,
            options: ServingOptions::new(DispatchPolicy::LeastLoaded),
            service,
            setup: SetupTimes {
                calibration_s,
                calibration_calls,
                trace_gen_s,
                ..SetupTimes::default()
            },
            ready: None,
        };
        let (deployed, deploy_s) = clock::timed(|| fleet.deploy());
        let (deployed, handles) = deployed?;
        fleet.setup.deploy_s = deploy_s;
        fleet.setup.deploys = handles.len() as u64;
        fleet.options = match kind {
            Kind::Steady | Kind::Sharded => big_options(seed),
            Kind::Control => fleet.control_options(&handles),
        };
        fleet.ready = Some(deployed);
        Ok(fleet)
    }

    /// Host seconds of set-up before the first timed call.
    pub fn setup_s(&self) -> f64 {
        self.setup.calibration_s + self.setup.trace_gen_s + self.setup.deploy_s
    }

    /// Untraced measurement: repeats the timed call for `seconds` (at least
    /// [`MIN_CALLS`] times) and reports the best call's simulated requests
    /// per host second.
    pub fn measure(
        &mut self,
        seconds: f64,
        checks: &mut Checks,
        metrics: &mut Metrics,
        between: &mut dyn FnMut() -> Result<(), String>,
    ) -> Result<(), String> {
        let mut reference: Reference = None;
        self.warm_up(checks, &mut reference)?;
        let start = clock::now_ns();
        let mut rates = Vec::new();
        while rates.len() < MIN_CALLS || clock::seconds(start, clock::now_ns()) < seconds {
            let call = self.checked_call(THREADS, checks, &mut reference)?;
            rates.push(ratio(call.report.stats.offered as f64, call.secs));
            between()?;
        }
        metrics.put_end_to_end("sim_req_per_s", best(&rates));
        Ok(())
    }

    /// Traced measurement: alternates untraced and traced calls for
    /// `seconds` and reports the per-layer metrics.
    pub fn trace(
        &mut self,
        seconds: f64,
        checks: &mut Checks,
        metrics: &mut Metrics,
    ) -> Result<(), String> {
        let mut reference: Reference = None;
        self.warm_up(checks, &mut reference)?;
        let start = clock::now_ns();
        let mut untraced_s = Vec::new();
        let mut traced: Vec<TracedCall> = Vec::new();
        while traced.is_empty() || clock::seconds(start, clock::now_ns()) < seconds {
            untraced_s.push(self.checked_call(THREADS, checks, &mut reference)?.secs);
            let (report, measured) = self.traced_call()?;
            let mut failures = Vec::new();
            if let Some((expected, _)) = &reference {
                check(&mut failures, report == *expected, || {
                    "the traced report differs from the untraced report".to_string()
                });
            }
            checks.record(&failures);
            traced.push(measured);
        }
        let Some((report, _)) = reference else {
            return Err("no untraced call completed".to_string());
        };

        if self.kind == Kind::Sharded {
            // The 1-thread call must reproduce the 2-thread reference.
            let call = self.checked_call(1, checks, &mut Some((report.clone(), Vec::new())))?;
            metrics.put("sharded", "t1_run_s", call.secs);
            metrics.put(
                "sharded",
                "thread_speedup",
                ratio(call.secs, median(&untraced_s)),
            );
            let n = traced.len() as f64;
            let skew = |pick: fn(&(u64, u64)) -> u64| -> f64 {
                traced
                    .iter()
                    .map(|t| max_over_mean(&t.partitions, pick))
                    .sum::<f64>()
                    / n
            };
            metrics.put("sharded", "partition_hook_skew", skew(|p| p.0));
            metrics.put("sharded", "partition_busy_skew", skew(|p| p.1));
            metrics.put(
                "sharded",
                "coordinator_share",
                traced.iter().map(|t| t.coordinator_share).sum::<f64>() / n,
            );
        }

        self.put_setup_metrics(metrics);
        self.put_layer_metrics(metrics, &report, &untraced_s, &traced);
        self.put_model_metrics(metrics, &report);
        Ok(())
    }

    /// Untimed calls for [`clock::WARMUP_SECONDS`] (at least one), checked
    /// like timed ones but not counted as operations, so timing starts with
    /// the host at full speed.
    fn warm_up(&mut self, checks: &mut Checks, reference: &mut Reference) -> Result<(), String> {
        let start = clock::now_ns();
        while reference.is_none() || clock::seconds(start, clock::now_ns()) < clock::WARMUP_SECONDS
        {
            let call = self.call(THREADS)?;
            checks.record_warm_up(&self.check_call(&call, reference));
        }
        Ok(())
    }

    /// One untraced call, checked against (or becoming) the reference.
    fn checked_call(
        &mut self,
        threads: usize,
        checks: &mut Checks,
        reference: &mut Reference,
    ) -> Result<Call, String> {
        let call = self.call(threads)?;
        checks.record(&self.check_call(&call, reference));
        Ok(call)
    }

    /// The checks every call's output must pass. The first call becomes
    /// the reference later calls must reproduce exactly.
    fn check_call(&self, call: &Call, reference: &mut Reference) -> Vec<String> {
        let report = &call.report;
        let stats = &report.stats;
        let lost = report.availability.lost as usize;
        let mut failures = Vec::new();
        check(&mut failures, stats.offered == self.trace.len(), || {
            format!(
                "offered {} != trace length {}",
                stats.offered,
                self.trace.len()
            )
        });
        check(
            &mut failures,
            stats.admitted == stats.completed + report.deadline.dropped + lost,
            || {
                format!(
                    "conservation: admitted {} != completed {} + dropped {} + lost {lost}",
                    stats.admitted, stats.completed, report.deadline.dropped
                )
            },
        );
        check(&mut failures, stats.completed > 0, || {
            "the call completed no request".to_string()
        });
        let sizes: Vec<usize> = call.exports.iter().map(String::len).collect();
        match reference {
            Some((expected, expected_sizes)) => {
                check(&mut failures, report == expected, || {
                    "the report differs from the run's first report on identical inputs".to_string()
                });
                check(&mut failures, sizes == *expected_sizes, || {
                    format!(
                        "export sizes {sizes:?} differ from the first call's {expected_sizes:?}"
                    )
                });
            }
            None => {
                if let Err(err) = validate_exports(&call.exports) {
                    failures.push(err);
                }
                if self.kind == Kind::Control {
                    self.check_control_coverage(report, &mut failures);
                }
                *reference = Some((report.clone(), sizes));
            }
        }
        failures
    }

    /// `fleet-control` must exercise every edge it was built for.
    fn check_control_coverage(&self, report: &ServingReport, failures: &mut Vec<String>) {
        let counts = [
            ("telemetry ticks", report.control.samples as u64),
            ("scale-ups", report.control.scale_ups as u64),
            ("scale-downs", report.control.scale_downs as u64),
            ("faults", report.availability.injected()),
            ("failovers", report.availability.failovers),
            (
                "migrations",
                (report.migration_stats.cold + report.migration_stats.precopy) as u64,
            ),
            ("alerts", report.alerts.len() as u64),
        ];
        for (what, count) in counts {
            check(failures, count > 0, || {
                format!("fleet-control exercised no {what}")
            });
        }
    }

    /// Deploys the starting fleet; returns it with the replica handles in
    /// deployment order.
    fn deploy(&self) -> Result<(NpuCluster, Vec<VnpuHandle>), String> {
        let (boards, replicas, placement, models): (usize, usize, PlacementPolicy, &[ModelId]) =
            match self.kind {
                Kind::Steady | Kind::Sharded => (
                    BIG_BOARDS,
                    BIG_REPLICAS,
                    PlacementPolicy::WorstFit,
                    &BIG_MODELS,
                ),
                Kind::Control => (
                    CONTROL_BOARDS,
                    CONTROL_MIN_REPLICAS,
                    PlacementPolicy::TopologyAware,
                    &[CONTROL_MODEL],
                ),
            };
        let mut fleet = NpuCluster::homogeneous(boards, &self.npu);
        let mut handles = Vec::with_capacity(replicas);
        for index in 0..replicas {
            let handle = fleet
                .deploy(replica_spec(models[index % models.len()]), placement)
                .map_err(|err| format!("deploying replica {index}: {err}"))?;
            handles.push(handle);
        }
        Ok((fleet, handles))
    }

    fn take_fleet(&mut self) -> Result<NpuCluster, String> {
        match self.ready.take() {
            Some(fleet) => Ok(fleet),
            None => self.deploy().map(|(fleet, _)| fleet),
        }
    }

    fn sim(&self) -> ClusterServingSim {
        ClusterServingSim::new(self.options.clone())
    }

    fn autopilot(&self) -> Autopilot {
        let tick = self.service * CONTROL_TICK_SERVICES;
        Autopilot::new()
            .with_model(ScalingSpec::new(
                replica_spec(CONTROL_MODEL),
                CONTROL_MIN_REPLICAS,
                CONTROL_MAX_REPLICAS,
                AutoscalePolicy::TargetTracking(
                    TargetTracking::new(MAX_BATCH as f64, tick * 25).with_max_miss_rate(0.025),
                ),
            ))
            .with_spare_margin(1)
            .with_alert_scaling(tick * 50)
    }

    fn recorders(&self) -> (TraceRecorder, TimeSeriesRecorder) {
        let trace = TraceRecorder::new(
            TraceConfig::default()
                .with_capacity(65_536)
                .with_sample_rate(0.1)
                .with_seed(self.seed),
        );
        let series = TimeSeriesRecorder::new(
            TimeSeriesConfig::new(self.service * CONTROL_TICK_SERVICES).with_ring(64),
        );
        (trace, series)
    }

    /// One untraced timed call (sharded runs use `threads` workers); the
    /// next call's fleet is deployed afterwards, outside the timed region.
    fn call(&mut self, threads: usize) -> Result<Call, String> {
        let mut fleet = self.take_fleet()?;
        let sim = self.sim();
        let trace = &self.trace;
        let (report, exports, secs) = match self.kind {
            Kind::Steady => {
                let (report, secs) = clock::timed(|| sim.run(&mut fleet, trace));
                (report, Vec::new(), secs)
            }
            Kind::Sharded => {
                let shard = ShardOptions::new(PARTITIONS).with_threads(threads);
                let (report, secs) = clock::timed(|| sim.run_sharded(&mut fleet, trace, shard));
                (report, Vec::new(), secs)
            }
            Kind::Control => {
                let mut pilot = self.autopilot();
                let (mut recorder, mut series) = self.recorders();
                let ((report, exports), secs) = clock::timed(|| {
                    let report = {
                        let mut sink = GapSink::fan_out(vec![&mut recorder, &mut series]);
                        sim.run_observed_with_controller(&mut fleet, trace, &mut pilot, &mut sink)
                    };
                    let exports = vec![
                        export_chrome_trace(&recorder),
                        export_openmetrics(recorder.metrics()),
                        export_timeseries_openmetrics(&series),
                    ];
                    (report, exports)
                });
                (report, exports, secs)
            }
        };
        self.ready = Some(self.deploy()?.0);
        Ok(Call {
            report,
            secs,
            exports,
        })
    }

    /// One traced call: the same simulation with the gap-attribution sink
    /// (and, on `fleet-control`, the timed control plane) attached.
    fn traced_call(&mut self) -> Result<(ServingReport, TracedCall), String> {
        let mut fleet = self.take_fleet()?;
        let sim = self.sim();
        let trace = &self.trace;
        let mut out = TracedCall::default();
        let report = match self.kind {
            Kind::Steady => {
                let mut sink = GapSink::default();
                let called = clock::now_ns();
                let report = sim.run_observed(&mut fleet, trace, &mut sink);
                let ended = clock::now_ns();
                out.absorb_sequential(&sink, called, ended);
                report
            }
            Kind::Sharded => {
                let shard = ShardOptions::new(PARTITIONS).with_threads(THREADS);
                let mut sinks: Vec<GapSink<'static>> = Vec::new();
                let called = clock::now_ns();
                let report = sim.run_sharded_observed(&mut fleet, trace, shard, &mut sinks);
                let ended = clock::now_ns();
                out.absorb_partitions(&sinks, called, ended, THREADS);
                report
            }
            Kind::Control => {
                let mut pilot = self.autopilot();
                let (mut recorder, mut series) = self.recorders();
                let pending = Arc::new(AtomicU64::new(0));
                let mut control = TimedControl::new(&mut pilot, Arc::clone(&pending));
                let report = {
                    let mut sink = GapSink::timed(vec![&mut recorder, &mut series], Some(pending));
                    let called = clock::now_ns();
                    let report = sim.run_observed_with_controller(
                        &mut fleet,
                        trace,
                        &mut control,
                        &mut sink,
                    );
                    let ended = clock::now_ns();
                    out.absorb_sequential(&sink, called, ended);
                    report
                };
                out.control_ns = control.samples_ns;
                out.control_actions = control.actions;
                let (chrome, chrome_s) = clock::timed(|| export_chrome_trace(&recorder));
                let (registry, registry_s) =
                    clock::timed(|| export_openmetrics(recorder.metrics()));
                let (windows, windows_s) = clock::timed(|| export_timeseries_openmetrics(&series));
                out.chrome_s = chrome_s;
                out.openmetrics_s = registry_s + windows_s;
                out.export_bytes = chrome.len() + registry.len() + windows.len();
                out.trace_sampled = recorder.stats().sampled_requests;
                out.trace_overwritten = recorder.stats().overwritten;
                out.series_samples = series.stats().samples;
                report
            }
        };
        self.ready = Some(self.deploy()?.0);
        Ok((report, out))
    }

    fn put_setup_metrics(&self, metrics: &mut Metrics) {
        let s = &self.setup;
        metrics.put("workloads", "trace_gen_s", s.trace_gen_s);
        metrics.put("workloads", "arrivals", self.trace.len() as f64);
        metrics.put("placement", "deploy_s", s.deploy_s);
        metrics.put("placement", "deploys", s.deploys as f64);
        metrics.put("calibration", "s", s.calibration_s);
        metrics.put("calibration", "calls", s.calibration_calls as f64);
    }

    fn put_layer_metrics(
        &self,
        metrics: &mut Metrics,
        report: &ServingReport,
        untraced_s: &[f64],
        traced: &[TracedCall],
    ) {
        let n = traced.len() as f64;
        let mut layers = LayerTimes::default();
        for call in traced {
            layers.add(&call.layers);
        }
        let thread_ns: f64 = traced.iter().map(|t| t.thread_s * 1e9).sum();
        let share = |ns: u64| ratio(ns as f64, thread_ns);
        let mean_of = |pair: [Layer; 2]| {
            ratio(
                (layers.ns(pair[0]) + layers.ns(pair[1])) as f64,
                (layers.hooks(pair[0]) + layers.hooks(pair[1])) as f64,
            )
        };
        let stats = &report.stats;
        let processed = report.perf.total_processed() as f64;
        let untraced = median(untraced_s);
        let traced_s: Vec<f64> = traced.iter().map(|t| t.secs).collect();
        let startup: Vec<f64> = traced.iter().map(|t| t.startup_s).collect();

        metrics.put("serving", "startup_s", median(&startup));
        let router = [Layer::Dispatch, Layer::Reject];
        metrics.put("router", "dispatch_ns", mean_of(router));
        metrics.put(
            "router",
            "dispatch_share",
            share(layers.ns(Layer::Dispatch) + layers.ns(Layer::Reject)),
        );
        metrics.put(
            "router",
            "admit_ratio",
            ratio(stats.admitted as f64, stats.offered as f64),
        );
        metrics.put("serving", "arrival_ns", layers.mean_ns(Layer::Arrival));
        metrics.put("serving", "arrival_share", share(layers.ns(Layer::Arrival)));
        metrics.put("serving", "batch_ns", layers.mean_ns(Layer::Batch));
        metrics.put("serving", "batch_share", share(layers.ns(Layer::Batch)));
        let complete = [Layer::Complete, Layer::Expire];
        metrics.put("serving", "complete_ns", mean_of(complete));
        metrics.put(
            "serving",
            "complete_share",
            share(layers.ns(Layer::Complete) + layers.ns(Layer::Expire)),
        );
        metrics.put(
            "serving",
            "host_ns_per_event",
            ratio(untraced * 1e9, processed),
        );
        metrics.put("serving", "events", processed);
        metrics.put(
            "serving",
            "events_per_req",
            ratio(processed, stats.offered as f64),
        );
        metrics.put(
            "serving",
            "batch_occupancy",
            report.mean_batch_size() / MAX_BATCH as f64,
        );
        metrics.put("telemetry", "ticks", report.control.samples as f64);
        metrics.put("telemetry", "tick_ns", layers.mean_ns(Layer::Tick));
        metrics.put("trace", "overhead_pct", overhead_pct(untraced_s, &traced_s));
        let outside_gaps: u64 = traced
            .iter()
            .map(|t| t.sink_ns.iter().sum::<u64>() + t.control_plane_ns)
            .sum();
        metrics.put(
            "trace",
            "unattributed_share",
            1.0 - share(layers.total_ns() + outside_gaps),
        );

        if self.kind != Kind::Control {
            return;
        }
        let control_ns: Vec<f64> = traced
            .iter()
            .flat_map(|t| t.control_ns.iter().map(|&ns| ns as f64))
            .collect();
        let per_call = |f: fn(&TracedCall) -> f64| traced.iter().map(f).sum::<f64>() / n;
        metrics.put("autopilot", "control_calls", control_ns.len() as f64 / n);
        metrics.put("autopilot", "control_ns_p50", quantile(&control_ns, 0.5));
        metrics.put("autopilot", "control_ns_p99", quantile(&control_ns, 0.99));
        metrics.put(
            "autopilot",
            "actions",
            per_call(|t| t.control_actions as f64),
        );
        let control = &report.control;
        metrics.put(
            "autopilot",
            "scale_up_reject_ratio",
            ratio(
                control.scale_up_rejected as f64,
                (control.scale_ups + control.scale_up_rejected) as f64,
            ),
        );
        let availability = &report.availability;
        metrics.put("fault", "injected", availability.injected() as f64);
        metrics.put("fault", "failovers", availability.failovers as f64);
        metrics.put(
            "fault",
            "orphans_redispatched",
            availability.redispatched as f64,
        );
        metrics.put("fault", "failover_ns", layers.mean_ns(Layer::Failover));
        let migrations = &report.migration_stats;
        metrics.put(
            "migration",
            "executed",
            (migrations.cold + migrations.precopy) as f64,
        );
        metrics.put("migration", "copy_rounds", migrations.rounds as f64);
        metrics.put(
            "migration",
            "converged_ratio",
            ratio(
                (migrations.precopy - migrations.precopy_fallbacks) as f64,
                migrations.precopy as f64,
            ),
        );
        // Forwarded sinks, in order: the trace recorder, the time series.
        metrics.put(
            "obs",
            "trace_hook_s",
            per_call(|t| t.sink_ns.first().map_or(0.0, |&ns| ns as f64 / 1e9)),
        );
        metrics.put(
            "obs",
            "timeseries_hook_s",
            per_call(|t| t.sink_ns.get(1).map_or(0.0, |&ns| ns as f64 / 1e9)),
        );
        metrics.put("obs", "trace_sampled", per_call(|t| t.trace_sampled as f64));
        metrics.put(
            "obs",
            "trace_overwritten",
            per_call(|t| t.trace_overwritten as f64),
        );
        metrics.put(
            "obs",
            "timeseries_samples",
            per_call(|t| t.series_samples as f64),
        );
        metrics.put("obs", "alerts", report.alerts.len() as f64);
        metrics.put("obs", "chrome_export_s", per_call(|t| t.chrome_s));
        metrics.put("obs", "openmetrics_export_s", per_call(|t| t.openmetrics_s));
        metrics.put("obs", "export_bytes", per_call(|t| t.export_bytes as f64));
    }

    /// Simulated-time statistics of the modelled fleet (exact, ungated).
    fn put_model_metrics(&self, metrics: &mut Metrics, report: &ServingReport) {
        let stats = &report.stats;
        let hz = self.npu.frequency.hz();
        metrics.put("model", "p99_ms", report.latency.p99 as f64 / hz * 1e3);
        metrics.put(
            "model",
            "goodput_ratio",
            ratio(
                (stats.completed - report.deadline.missed) as f64,
                stats.offered as f64,
            ),
        );
        metrics.put("model", "replica_s", report.replica_seconds(&self.npu));
        metrics.put("model", "availability", report.availability.availability());
    }

    /// The `fleet-control` options: telemetry, SLO, chaos with recovery and
    /// scheduled live migrations of three starting replicas. Migrations and
    /// failover restores ride a 50 TB/s scale-up fabric so they complete
    /// within the day rather than outlasting it.
    fn control_options(&self, handles: &[VnpuHandle]) -> ServingOptions {
        let service = self.service;
        let day = service * CONTROL_DAY_SERVICES;
        let tick = service * CONTROL_TICK_SERVICES;
        let profile = FaultProfile {
            crashes: CONTROL_FAULTS_PER_KIND,
            hangs: CONTROL_FAULTS_PER_KIND,
            hang_cycles: service * 40,
            link_degrades: CONTROL_FAULTS_PER_KIND,
            link_factor: 6.0,
            link_cycles: service * 50,
            stragglers: CONTROL_FAULTS_PER_KIND,
            straggle_factor: 3.0,
            straggle_cycles: service * 40,
            dropouts: CONTROL_FAULTS_PER_KIND,
            dropout_cycles: service * 15,
        };
        let faults =
            FaultSchedule::generate(self.seed, day * 7 / 10, CONTROL_BOARDS as u32, &profile);
        let slo = SloConfig::new(tick)
            .with_spec(SloSpec::new(CONTROL_MODEL, Cycles(service * 3), 0.999))
            .with_default_policies();
        let mut options = ServingOptions::new(DispatchPolicy::LeastLoaded)
            .with_batching(MAX_BATCH)
            .with_stochastic(StochasticService::seeded(self.seed).with_cv(SERVICE_CV))
            .with_telemetry(tick)
            .with_slo(slo)
            .with_faults(faults)
            .with_recovery(RecoveryPolicy::new(3))
            .with_cost_model(MigrationCostModel {
                interconnect: InterconnectConfig {
                    bandwidth_bytes_per_sec: 50.0e12,
                    setup_cycles: 2_000,
                },
                ..MigrationCostModel::default()
            });
        for (at, replica, board) in CONTROL_MIGRATIONS {
            if let Some(handle) = handles.get(replica) {
                options = options.with_live_migration(
                    Cycles(service * at),
                    *handle,
                    cluster::NodeId(board),
                );
            }
        }
        options
    }
}

impl TracedCall {
    /// Folds in the single gap sink of a sequential call.
    fn absorb_sequential(&mut self, sink: &GapSink<'_>, called: u64, ended: u64) {
        self.secs = clock::seconds(called, ended);
        self.thread_s = self.secs;
        if let Some(timing) = sink.timing() {
            self.layers = timing.gaps.layers;
            self.startup_s = clock::seconds(called, timing.gaps.first_ns.unwrap_or(ended));
            self.sink_ns = timing.sink_ns.clone();
            self.control_plane_ns = timing.control_plane_ns;
        }
    }

    /// Folds in the per-partition gap sinks of a sharded call.
    fn absorb_partitions(
        &mut self,
        sinks: &[GapSink<'_>],
        called: u64,
        ended: u64,
        threads: usize,
    ) {
        self.secs = clock::seconds(called, ended);
        self.thread_s = self.secs * threads as f64;
        let mut first_hook = ended;
        let mut spans: Vec<(u64, u64)> = Vec::new();
        for timing in sinks.iter().filter_map(GapSink::timing) {
            let gaps = &timing.gaps;
            self.layers.add(&gaps.layers);
            let hooks = Layer::ALL.iter().map(|&l| gaps.layers.hooks(l)).sum();
            self.partitions.push((hooks, gaps.layers.total_ns()));
            if let Some(first) = gaps.first_ns {
                first_hook = first_hook.min(first);
                spans.push((first, gaps.last_ns));
            }
        }
        self.startup_s = clock::seconds(called, first_hook);
        self.coordinator_share = 1.0
            - ratio(
                union_ns(&mut spans) as f64,
                ended.saturating_sub(called) as f64,
            );
    }
}

/// Total length of the union of `[start, end]` intervals.
fn union_ns(spans: &mut [(u64, u64)]) -> u64 {
    spans.sort_unstable();
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for &(start, end) in spans.iter() {
        current = match current {
            Some((s, e)) if start <= e => Some((s, e.max(end))),
            Some((s, e)) => {
                total += e - s;
                Some((start, end))
            }
            None => Some((start, end)),
        };
    }
    total + current.map_or(0, |(s, e)| e - s)
}

/// Largest over mean of one per-partition quantity (1 = balanced).
fn max_over_mean(partitions: &[(u64, u64)], pick: fn(&(u64, u64)) -> u64) -> f64 {
    let values: Vec<f64> = partitions.iter().map(|p| pick(p) as f64).collect();
    let mean = values.iter().sum::<f64>() / values.len().max(1) as f64;
    ratio(values.iter().copied().fold(0.0, f64::max), mean)
}

/// A [`ControlPlane`] that times every call into the wrapped controller and
/// hands the time to the gap sink, which keeps it out of the loop's gaps.
struct TimedControl<'a> {
    inner: &'a mut dyn ControlPlane,
    pending: Arc<AtomicU64>,
    samples_ns: Vec<u64>,
    actions: u64,
}

impl<'a> TimedControl<'a> {
    fn new(inner: &'a mut dyn ControlPlane, pending: Arc<AtomicU64>) -> Self {
        TimedControl {
            inner,
            pending,
            samples_ns: Vec::new(),
            actions: 0,
        }
    }
}

impl ControlPlane for TimedControl<'_> {
    fn control(&mut self, frame: &TelemetryFrame, cluster: &NpuCluster) -> Vec<ControlAction> {
        let start = clock::now_ns();
        let actions = self.inner.control(frame, cluster);
        let spent = clock::now_ns().saturating_sub(start);
        self.samples_ns.push(spent);
        self.actions += actions.len() as u64;
        self.pending.fetch_add(spent, Ordering::Relaxed);
        actions
    }

    fn on_alert(&mut self, now: Cycles, alert: &AlertTransition) {
        let start = clock::now_ns();
        self.inner.on_alert(now, alert);
        let spent = clock::now_ns().saturating_sub(start);
        self.pending.fetch_add(spent, Ordering::Relaxed);
    }
}

/// Validates the `fleet-control` exports (no-op for the other workloads).
fn validate_exports(exports: &[String]) -> Result<(), String> {
    let [chrome, registry, windows] = exports else {
        return Ok(());
    };
    let trace = validate_chrome_trace(chrome).map_err(|err| format!("chrome trace: {err}"))?;
    if trace.events == 0 {
        return Err("the chrome trace holds no events".to_string());
    }
    validate_openmetrics(registry).map_err(|err| format!("registry OpenMetrics: {err}"))?;
    validate_openmetrics(windows).map_err(|err| format!("time-series OpenMetrics: {err}"))?;
    Ok(())
}

/// Compiles every batch size a replica of `models` can run, the way the
/// serving calibration will ask for them; returns the number of calls.
fn calibrate(models: &[ModelId], npu: &NpuConfig) -> u64 {
    let mut calls = 0;
    for &model in models {
        for batch in 1..=MAX_BATCH {
            std::hint::black_box(estimated_batch_service_cycles(
                model,
                batch,
                REPLICA_ENGINES,
                REPLICA_ENGINES,
                npu,
            ));
            calls += 1;
        }
    }
    calls
}

fn replica_spec(model: ModelId) -> DeploySpec {
    DeploySpec::replica(model, REPLICA_ENGINES, REPLICA_ENGINES).with_memory(32 << 20, 1 << 30)
}

fn big_options(seed: u64) -> ServingOptions {
    ServingOptions::new(DispatchPolicy::LeastLoaded)
        .with_batching(MAX_BATCH)
        .with_stochastic(StochasticService::seeded(seed).with_cv(SERVICE_CV))
}

/// Open-loop Poisson arrivals at [`LOAD`] for every model, interactive
/// deadlines (10 service times) on every other model.
fn big_trace(npu: &NpuConfig, seed: u64) -> ClusterTrace {
    let replicas_per_model = (BIG_REPLICAS / BIG_MODELS.len()) as f64;
    let streams: Vec<(ModelId, u64)> = BIG_MODELS
        .iter()
        .map(|&model| {
            let batch = estimated_batch_service_cycles(
                model,
                MAX_BATCH,
                REPLICA_ENGINES,
                REPLICA_ENGINES,
                npu,
            ) as f64;
            let gap = batch / (replicas_per_model * MAX_BATCH as f64 * LOAD);
            (model, gap.max(1.0) as u64)
        })
        .collect();
    let mut trace = ClusterTrace::poisson(&streams, BIG_ARRIVALS_PER_MODEL, seed);
    for &model in BIG_MODELS.iter().step_by(2) {
        let service = estimated_service_cycles(model, REPLICA_ENGINES, REPLICA_ENGINES, npu);
        trace = trace.with_model_qos(
            model,
            QosSpec::new(Some(Cycles(service * 10)), PriorityClass::Interactive),
        );
    }
    trace
}

/// One diurnal day (trough 20% of peak) whose peak needs about three
/// quarters of the autopilot's ceiling at [`LOAD`]; interactive deadlines.
fn control_trace(npu: &NpuConfig, seed: u64, service: u64) -> ClusterTrace {
    let batch = estimated_batch_service_cycles(
        CONTROL_MODEL,
        MAX_BATCH,
        REPLICA_ENGINES,
        REPLICA_ENGINES,
        npu,
    ) as f64;
    let per_request = batch / MAX_BATCH as f64;
    let peak_gap = per_request / (CONTROL_MAX_REPLICAS as f64 * 0.75 * LOAD);
    DiurnalTrace::new(
        vec![(CONTROL_MODEL, peak_gap.max(1.0) as u64)],
        service * CONTROL_DAY_SERVICES,
    )
    .with_trough_to_peak(0.2)
    .generate(seed)
    .with_model_qos(
        CONTROL_MODEL,
        QosSpec::new(Some(Cycles(service * 10)), PriorityClass::Interactive),
    )
}
