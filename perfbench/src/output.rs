//! Metric names, units, checks and the one-line JSON result.
//!
//! Per-layer metric names are `<layer>.<name>`; they are kept here as
//! `(layer, name)` pairs so the table reads by layer, the way
//! `perfbench/GLOSSARY.md` documents them.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The end-to-end metrics, reported by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("sim_req_per_s", "req/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics, reported by every traced run: `(layer, name,
/// unit)`. A layer that does no work on a workload reports 0.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("workloads", "trace_gen_s", "s"),
    ("workloads", "arrivals", "count"),
    ("placement", "deploy_s", "s"),
    ("placement", "deploys", "count"),
    ("calibration", "s", "s"),
    ("calibration", "calls", "count"),
    ("serving", "startup_s", "s"),
    ("router", "dispatch_ns", "ns"),
    ("router", "dispatch_share", "ratio"),
    ("router", "admit_ratio", "ratio"),
    ("serving", "arrival_ns", "ns"),
    ("serving", "arrival_share", "ratio"),
    ("serving", "batch_ns", "ns"),
    ("serving", "batch_share", "ratio"),
    ("serving", "complete_ns", "ns"),
    ("serving", "complete_share", "ratio"),
    ("serving", "host_ns_per_event", "ns"),
    ("serving", "events", "count"),
    ("serving", "events_per_req", "ratio"),
    ("serving", "batch_occupancy", "ratio"),
    ("sharded", "t1_run_s", "s"),
    ("sharded", "thread_speedup", "ratio"),
    ("sharded", "partition_hook_skew", "ratio"),
    ("sharded", "partition_busy_skew", "ratio"),
    ("sharded", "coordinator_share", "ratio"),
    ("telemetry", "ticks", "count"),
    ("telemetry", "tick_ns", "ns"),
    ("autopilot", "control_calls", "count"),
    ("autopilot", "control_ns_p50", "ns"),
    ("autopilot", "control_ns_p99", "ns"),
    ("autopilot", "actions", "count"),
    ("autopilot", "scale_up_reject_ratio", "ratio"),
    ("fault", "injected", "count"),
    ("fault", "failovers", "count"),
    ("fault", "orphans_redispatched", "count"),
    ("fault", "failover_ns", "ns"),
    ("migration", "executed", "count"),
    ("migration", "copy_rounds", "count"),
    ("migration", "converged_ratio", "ratio"),
    ("obs", "trace_hook_s", "s"),
    ("obs", "timeseries_hook_s", "s"),
    ("obs", "trace_sampled", "count"),
    ("obs", "trace_overwritten", "count"),
    ("obs", "timeseries_samples", "count"),
    ("obs", "alerts", "count"),
    ("obs", "chrome_export_s", "s"),
    ("obs", "openmetrics_export_s", "s"),
    ("obs", "export_bytes", "bytes"),
    ("colloc", "compile_s", "s"),
    ("colloc", "run_s.pmt", "s"),
    ("colloc", "run_s.v10", "s"),
    ("colloc", "run_s.neu10-nh", "s"),
    ("colloc", "run_s.neu10", "s"),
    ("colloc", "top_pair_share", "ratio"),
    ("colloc", "requests", "count"),
    ("colloc", "ns_per_req", "ns"),
    ("colloc", "operators", "count"),
    ("model", "p99_ms", "ms"),
    ("model", "goodput_ratio", "ratio"),
    ("model", "replica_s", "s"),
    ("model", "availability", "ratio"),
    ("model", "neu10_tput_gain", "ratio"),
    ("model", "neu10_p95_gain", "ratio"),
    ("model", "neu10_util_gain", "ratio"),
    ("trace", "overhead_pct", "%"),
    ("trace", "unattributed_share", "ratio"),
];

/// The values a run measured, keyed by full metric name.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<String, f64>,
}

impl Metrics {
    /// Records `layer.name`.
    pub fn put(&mut self, layer: &str, name: &str, value: f64) {
        self.values.insert(format!("{layer}.{name}"), value);
    }

    /// Records an end-to-end metric.
    pub fn put_end_to_end(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Names recorded that no table declares (a benchmark bug).
    pub fn undeclared(&self) -> Vec<String> {
        self.values
            .keys()
            .filter(|key| {
                !END_TO_END.iter().any(|(name, _)| name == key)
                    && !PER_LAYER
                        .iter()
                        .any(|(layer, name, _)| format!("{layer}.{name}") == **key)
            })
            .cloned()
            .collect()
    }

    /// The JSON `metrics` object: every end-to-end metric, or (traced)
    /// every per-layer metric, 0 where the layer did no work.
    fn json(&self, traced: bool) -> String {
        let rows: Vec<(String, &str)> = if traced {
            PER_LAYER
                .iter()
                .map(|(layer, name, unit)| (format!("{layer}.{name}"), *unit))
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|(name, unit)| (name.to_string(), *unit))
                .collect()
        };
        let mut out = String::from("{");
        for (i, (name, unit)) in rows.iter().enumerate() {
            let value = self.values.get(name).copied().unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        out
    }
}

/// Operations attempted and failed; failures are printed as they happen.
#[derive(Debug, Default)]
pub struct Checks {
    /// Timed operations attempted.
    pub attempted: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
    /// Untimed warm-up calls whose output failed a check. They are not
    /// operations, but any of them makes the run incorrect.
    pub warm_up_failed: u64,
}

impl Checks {
    /// Records one operation and the checks its output failed.
    pub fn record(&mut self, failures: &[String]) {
        self.attempted += 1;
        if !failures.is_empty() {
            self.failed += 1;
            print_failures(failures);
        }
    }

    /// Records the checks one untimed warm-up call failed.
    pub fn record_warm_up(&mut self, failures: &[String]) {
        if !failures.is_empty() {
            self.warm_up_failed += 1;
            print_failures(failures);
        }
    }

    /// Whether at least one operation ran and no call failed a check.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.warm_up_failed == 0
    }
}

fn print_failures(failures: &[String]) {
    for failure in failures {
        eprintln!("perfbench: FAILED check: {failure}");
    }
}

/// Pushes `message` onto `failures` unless `ok`.
pub fn check(failures: &mut Vec<String>, ok: bool, message: impl FnOnce() -> String) {
    if !ok {
        failures.push(message());
    }
}

/// The result line the benchmark prints last.
pub fn result_line(checks: &Checks, metrics: &Metrics, traced: bool) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        checks.correct(),
        checks.attempted,
        checks.failed,
        metrics.json(traced)
    )
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation; 0 when
/// empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    if sorted.is_empty() {
        return 0.0;
    }
    sorted.sort_by(f64::total_cmp);
    let position = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lower = position.floor() as usize;
    let upper = position.ceil() as usize;
    let fraction = position - lower as f64;
    sorted[lower] + (sorted[upper] - sorted[lower]) * fraction
}

/// The median of `values`; 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The largest of `values` (0 when empty): the rate of the least-disturbed
/// call. Calls replay identical inputs, so they differ only by what else
/// the host was doing; on a shared host that interference only ever slows
/// a call down, and the median of a run drifts with it by tens of percent
/// while the best call stays within a few.
pub fn best(values: &[f64]) -> f64 {
    values
        .iter()
        .copied()
        .filter(|v| v.is_finite())
        .fold(0.0, f64::max)
}

/// Tracing overhead in percent: the median over adjacent (untraced,
/// traced) call pairs of the traced call's extra time, so host drift
/// between pairs cancels.
pub fn overhead_pct(untraced_s: &[f64], traced_s: &[f64]) -> f64 {
    let pairs: Vec<f64> = untraced_s
        .iter()
        .zip(traced_s)
        .map(|(&untraced, &traced)| ratio(traced - untraced, untraced) * 100.0)
        .collect();
    median(&pairs)
}

/// `numerator / denominator`, or 0 when the denominator is 0.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// The process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|err| format!("cannot read /proc/self/status: {err}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[5.0], 0.99), 5.0);
        assert_eq!(best(&[2.0, 7.5, f64::NAN, 3.0]), 7.5);
        assert_eq!(best(&[]), 0.0);
    }

    #[test]
    fn every_metric_is_declared_in_benchmark_json() {
        let manifest = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        let json = std::fs::read_to_string(manifest.join("../BENCHMARK.json"))
            .expect("BENCHMARK.json beside the benchmark directory");
        for (name, unit) in END_TO_END {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for (layer, name, unit) in PER_LAYER {
            let entry = format!("\"name\": \"{layer}.{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let declared = json.matches("\"name\":").count();
        let workloads = json.matches("\"why\":").count();
        assert_eq!(
            declared,
            END_TO_END.len() + PER_LAYER.len() + workloads,
            "BENCHMARK.json declares a metric the benchmark does not report"
        );
    }

    #[test]
    fn result_line_reports_zero_for_idle_layers() {
        let mut metrics = Metrics::default();
        metrics.put("router", "dispatch_ns", 12.5);
        let mut checks = Checks::default();
        checks.record(&[]);
        let line = result_line(&checks, &metrics, true);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
        assert!(line.contains("\"router.dispatch_ns\": {\"value\": 12.5, \"unit\": \"ns\"}"));
        assert!(line.contains("\"colloc.requests\": {\"value\": 0.0, \"unit\": \"count\"}"));
        assert!(metrics.undeclared().is_empty());
        checks.record_warm_up(&["a warm-up call failed".to_string()]);
        assert_eq!((checks.attempted, checks.failed), (1, 0));
        assert!(result_line(&checks, &metrics, true).starts_with("{\"correct\": false"));
        metrics.put("router", "nonsense", 1.0);
        assert_eq!(metrics.undeclared(), vec!["router.nonsense".to_string()]);
    }
}
