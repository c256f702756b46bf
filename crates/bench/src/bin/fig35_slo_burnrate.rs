//! Fig. 35 (extension): SLO burn-rate alerting quality across traffic shapes.
//!
//! Runs one fixed MNIST serving fleet against three canonical traffic shapes
//! — a plain **diurnal** day, a **bursty** day of 4× spikes, and a **flash
//! crowd** that overwhelms the fleet mid-day — with the multi-window
//! multi-burn-rate SLO engine attached, and measures alerting *quality*:
//!
//! * **detection latency** — how long after the flash crowd lands does the
//!   first alert fire, in cycles and in fast-window units;
//! * **false-positive rate** — how many alerts fire on the plain diurnal day
//!   where the fleet is provisioned to serve comfortably (must be zero);
//! * **paging discipline** — the fast/slow window pairing means the page
//!   policy needs sustained evidence, not one bad sample.
//!
//! The run asserts the contract end to end: at least one policy detects the
//! flash-crowd breach within one fast window of the crowd's arrival, the
//! plain diurnal day fires nothing, and the whole pipeline is deterministic —
//! the same seed reproduces the [`AlertLog`] transcript and the OpenMetrics
//! export byte for byte, and the export passes the strict validator.
//!
//! Every scenario also runs sharded over two board-group partitions, where
//! the engine evaluates at barriers over the partitions' merged windows: its
//! alert log must be identical at one and two threads, and it too must
//! detect the flash crowd within one fast window. The `p2-*` columns and
//! the `p2` transcript lines print its edges next to the sequential ones.

use cluster::{
    estimated_service_cycles, export_timeseries_openmetrics, validate_openmetrics, AlertLog,
    ClusterServingSim, DeploySpec, DispatchPolicy, NpuCluster, PlacementPolicy, ServingOptions,
    ServingReport, ShardOptions, SloConfig, SloSpec, StochasticService, TimeSeriesConfig,
    TimeSeriesRecorder,
};
use npu_sim::{Cycles, NpuConfig};
use workloads::{BurstyTrace, ClusterTrace, DiurnalTrace, FlashCrowdTrace, ModelId};

const BOARDS: usize = 4;
const REPLICAS: usize = 4;
const SEED: u64 = 3535;
const MAX_BATCH: usize = 4;
/// Latency SLO target, in multiples of the mean service time.
const TARGET_SERVICES: u64 = 6;
/// Availability objective: 99% of requests within the target.
const OBJECTIVE: f64 = 0.99;
/// Burn-rate evaluation tick, in multiples of the mean service time.
const TICK_SERVICES: u64 = 4;
/// Trace horizon, in multiples of the mean service time.
const HORIZON_SERVICES: u64 = 1200;
/// Flash-crowd rate multiplier over the baseline.
const CROWD_MULTIPLIER: f64 = 32.0;

/// One traffic shape to evaluate the alerting policies against.
struct Scenario {
    name: &'static str,
    trace: ClusterTrace,
    /// When a genuine breach begins, if the shape contains one. Alerts before
    /// this point are false positives; the first alert after it is the
    /// detection.
    breach_at: Option<u64>,
}

fn scenarios(service: u64) -> Vec<Scenario> {
    let horizon = service * HORIZON_SERVICES;
    let streams = vec![(ModelId::Mnist, service)];
    let crowd_start = horizon * 3 / 10;
    let crowd_end = horizon * 6 / 10;
    vec![
        Scenario {
            name: "diurnal",
            trace: DiurnalTrace::new(streams.clone(), horizon)
                .with_trough_to_peak(0.25)
                .generate(SEED),
            breach_at: None,
        },
        Scenario {
            name: "bursty",
            trace: BurstyTrace::new(streams.clone(), service * 40, service * 160, horizon)
                .with_burst_multiplier(4.0)
                .generate(SEED),
            breach_at: None,
        },
        Scenario {
            name: "flash-crowd",
            trace: FlashCrowdTrace::new(streams, CROWD_MULTIPLIER, crowd_start, crowd_end, horizon)
                .generate(SEED),
            breach_at: Some(crowd_start),
        },
    ]
}

fn build_fleet(npu: &NpuConfig) -> NpuCluster {
    let mut fleet = NpuCluster::homogeneous(BOARDS, npu);
    for _ in 0..REPLICAS {
        fleet
            .deploy(
                DeploySpec::replica(ModelId::Mnist, 2, 2).with_memory(32 << 20, 1 << 30),
                PlacementPolicy::TopologyAware,
            )
            .expect("capacity for the mnist replicas");
    }
    fleet
}

fn slo_config(service: u64) -> SloConfig {
    SloConfig::new(service * TICK_SERVICES)
        .with_spec(SloSpec::new(
            ModelId::Mnist,
            Cycles(service * TARGET_SERVICES),
            OBJECTIVE,
        ))
        .with_default_policies()
}

fn options(service: u64) -> ServingOptions {
    ServingOptions::new(DispatchPolicy::LeastLoaded)
        .with_batching(MAX_BATCH)
        .with_stochastic(StochasticService::seeded(SEED).with_cv(0.2))
        .with_slo(slo_config(service))
}

/// Runs one scenario with the SLO engine and a [`TimeSeriesRecorder`]
/// attached, returning the report and the recorder.
fn run(npu: &NpuConfig, service: u64, trace: &ClusterTrace) -> (ServingReport, TimeSeriesRecorder) {
    let mut fleet = build_fleet(npu);
    let mut recorder = TimeSeriesRecorder::new(TimeSeriesConfig::new(service * TICK_SERVICES));
    let report =
        ClusterServingSim::new(options(service)).run_observed(&mut fleet, trace, &mut recorder);
    (report, recorder)
}

/// Runs one scenario sharded over two partitions at one and at two worker
/// threads, asserting the thread count leaves the alert log unchanged.
fn run_sharded(npu: &NpuConfig, service: u64, scenario: &Scenario) -> AlertLog {
    let logs: Vec<AlertLog> = [1, 2]
        .into_iter()
        .map(|threads| {
            ClusterServingSim::new(options(service))
                .run_sharded(
                    &mut build_fleet(npu),
                    &scenario.trace,
                    ShardOptions::new(2).with_threads(threads),
                )
                .alerts
        })
        .collect();
    assert_eq!(
        logs[0].render_text(),
        logs[1].render_text(),
        "{}: the sharded alert log must not depend on the thread count",
        scenario.name
    );
    logs.into_iter().next().expect("two runs")
}

/// Fire edges on a shape without a breach, or before the breach lands, and
/// the detection latency of the first fire after it.
fn score(alerts: &AlertLog, breach_at: Option<u64>) -> (usize, Option<u64>) {
    let false_positives = alerts
        .transitions()
        .iter()
        .filter(|alert| {
            alert.kind == cluster::AlertKind::Fired
                && breach_at.is_none_or(|at| alert.at.get() < at)
        })
        .count();
    let detection = breach_at.and_then(|at| {
        alerts
            .first_fire_after(Cycles(at))
            .map(|alert| alert.at.get() - at)
    });
    (false_positives, detection)
}

fn main() {
    let npu = NpuConfig::single_core();
    bench::print_simulator_config(&npu);
    let service = estimated_service_cycles(ModelId::Mnist, 2, 2, &npu);
    let config = slo_config(service);
    let fast_window = config
        .policies
        .iter()
        .map(|policy| policy.fast_window)
        .min()
        .expect("default policies are non-empty");

    println!("# Fig. 35: SLO burn-rate alerting — detection latency vs false positives");
    println!(
        "# ({REPLICAS} replicas on {BOARDS} boards, target {TARGET_SERVICES}x service, \
         objective {OBJECTIVE}, tick {TICK_SERVICES}x service)"
    );
    println!(
        "{:<12} {:>9} {:>7} {:>9} {:>11} {:>13} {:>13} {:>9} {:>12} {:>12} {:>16}",
        "scenario",
        "arrivals",
        "fired",
        "resolved",
        "false-pos",
        "detect-cycles",
        "detect-fastw",
        "p2-fired",
        "p2-resolved",
        "p2-false-pos",
        "p2-detect-fastw"
    );
    let fast_windows = |detection: Option<u64>| {
        detection
            .map(|d| format!("{:.2}", d as f64 / fast_window as f64))
            .unwrap_or_else(|| "-".into())
    };

    let mut flash_detected_within_fast_window = false;
    let mut sharded_detected_within_fast_window = false;
    for scenario in scenarios(service) {
        let (report, recorder) = run(&npu, service, &scenario.trace);
        let alerts = &report.alerts;
        let (false_positives, detection) = score(alerts, scenario.breach_at);
        if detection.is_some_and(|latency| latency <= fast_window) {
            flash_detected_within_fast_window = true;
        }
        let sharded = run_sharded(&npu, service, &scenario);
        let (sharded_false_positives, sharded_detection) = score(&sharded, scenario.breach_at);
        if sharded_detection.is_some_and(|latency| latency <= fast_window) {
            sharded_detected_within_fast_window = true;
        }

        println!(
            "{:<12} {:>9} {:>7} {:>9} {:>11} {:>13} {:>13} {:>9} {:>12} {:>12} {:>16}",
            scenario.name,
            report.stats.offered,
            alerts.fired(),
            alerts.resolved(),
            false_positives,
            detection
                .map(|d| d.to_string())
                .unwrap_or_else(|| "-".into()),
            fast_windows(detection),
            sharded.fired(),
            sharded.resolved(),
            sharded_false_positives,
            fast_windows(sharded_detection),
        );
        for (run, log) in [("sequential", alerts), ("p2", &sharded)] {
            for edge in log.render_text().lines() {
                println!("#   {run:<10} {edge}");
            }
        }

        assert_eq!(
            false_positives, 0,
            "{}: the burn-rate engine must not page a healthy fleet",
            scenario.name
        );
        assert_eq!(
            sharded_false_positives, 0,
            "{}: sharded, the burn-rate engine must not page a healthy fleet",
            scenario.name
        );
        if scenario.breach_at.is_some() {
            assert!(
                detection.is_some(),
                "{}: the flash-crowd breach must be detected",
                scenario.name
            );
            assert!(
                alerts.resolved() > 0,
                "{}: alerts must resolve once the crowd disperses",
                scenario.name
            );

            // Determinism: the same seed reproduces the alert transcript and
            // the OpenMetrics export byte for byte, and the export validates.
            let (rerun_report, rerun_recorder) = run(&npu, service, &scenario.trace);
            assert_eq!(
                alerts.render_text(),
                rerun_report.alerts.render_text(),
                "same seed must reproduce the alert transcript byte for byte"
            );
            let exposition = export_timeseries_openmetrics(&recorder);
            assert_eq!(
                exposition,
                export_timeseries_openmetrics(&rerun_recorder),
                "same seed must reproduce the OpenMetrics export byte for byte"
            );
            let summary = validate_openmetrics(&exposition)
                .expect("the exported exposition must pass the strict validator");
            assert!(
                summary.families_of("counter") > 0 && summary.samples > 0,
                "the exposition must carry real counter families"
            );
            println!(
                "# flash-crowd exposition: {} families, {} samples, {} alert transitions",
                summary.families,
                summary.samples,
                alerts.len()
            );
        } else {
            assert!(
                alerts.fired() == 0,
                "{}: a healthy shape must fire nothing",
                scenario.name
            );
        }
    }

    assert!(
        flash_detected_within_fast_window,
        "at least one policy must detect the flash crowd within one fast window"
    );
    assert!(
        sharded_detected_within_fast_window,
        "sharded over two partitions, the flash crowd must still be detected within one fast window"
    );
    println!();
    println!(
        "# flash crowd detected within one fast window ({fast_window} cycles), sequential and \
         sharded; zero false positives on the plain diurnal day; reruns byte-identical"
    );
}
