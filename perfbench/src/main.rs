//! Host-time benchmark of the Neu10 reproduction's simulators.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads (see `perfbench/README.md` for why each was chosen):
//! `fleet-steady`, `fleet-sharded`, `fleet-control` and `collocation`.
//!
//! With `--trace 0` the run measures the end-to-end metrics with tracing
//! off: simulated requests per host second, set-up seconds and peak
//! resident memory. With `--trace 1` it reports per-layer metrics from
//! calls timed outside-in (see `gap.rs`). Either way the last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. Failed checks are printed to standard error as they happen.
//!
//! Set-up is timed in this process and in child processes of the same
//! binary (`--setup-probe`), each starting with a cold compilation memo;
//! `setup_s` is the fastest of those samples. The children run one at a
//! time between timed calls, spread over the measurement: the host's speed
//! drifts over seconds, and a millisecond set-up sampled in one burst would
//! see only one phase of it.

#![forbid(unsafe_code)]

mod clock;
mod colloc;
mod fleet;
mod gap;
mod output;

use std::process::{Command, ExitCode};

use output::{Checks, Metrics};

/// Cold set-up samples per untraced run from child processes (one more
/// comes from the measuring process itself).
const SETUP_PROBES: usize = 24;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Fleet(fleet::Kind),
    Collocation,
}

impl Workload {
    fn parse(name: &str) -> Result<Workload, String> {
        match name {
            "fleet-steady" => Ok(Workload::Fleet(fleet::Kind::Steady)),
            "fleet-sharded" => Ok(Workload::Fleet(fleet::Kind::Sharded)),
            "fleet-control" => Ok(Workload::Fleet(fleet::Kind::Control)),
            "collocation" => Ok(Workload::Collocation),
            other => Err(format!("unknown workload {other:?}")),
        }
    }
}

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: Workload,
    workload_name: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// `--setup-probe`: time one cold set-up and print its seconds.
    probe: bool,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = false;
        let mut probe = false;
        let mut iter = args.iter();
        while let Some(flag) = iter.next() {
            let mut value = || iter.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => workload = Some(value()?.clone()),
                "--seed" => {
                    let text = value()?;
                    seed = Some(
                        text.parse::<u64>()
                            .map_err(|e| format!("--seed {text}: {e}"))?,
                    );
                }
                "--seconds" => {
                    let text = value()?;
                    let parsed = text
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds {text}: {e}"))?;
                    if !(parsed.is_finite() && parsed > 0.0) {
                        return Err(format!("--seconds must be positive, got {text}"));
                    }
                    seconds = Some(parsed);
                }
                "--trace" => {
                    trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace must be 0 or 1, got {other}")),
                    }
                }
                "--setup-probe" => probe = true,
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        let workload_name = workload.ok_or("--workload is required")?;
        Ok(Args {
            workload: Workload::parse(&workload_name)?,
            workload_name,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace,
            probe,
        })
    }
}

/// A workload after set-up.
enum Prepared {
    Fleet(Box<fleet::Fleet>),
    Collocation(colloc::Colloc),
}

impl Prepared {
    fn setup(workload: Workload, seed: u64) -> Result<Prepared, String> {
        Ok(match workload {
            Workload::Fleet(kind) => Prepared::Fleet(Box::new(fleet::Fleet::setup(kind, seed)?)),
            Workload::Collocation => Prepared::Collocation(colloc::Colloc::setup()),
        })
    }

    fn setup_s(&self) -> f64 {
        match self {
            Prepared::Fleet(fleet) => fleet.setup_s(),
            Prepared::Collocation(colloc) => colloc.setup_s(),
        }
    }
}

/// Cold set-up samples from child processes, taken between timed calls and
/// spaced evenly over the measurement.
struct SetupProbes<'a> {
    args: &'a Args,
    start_ns: u64,
    samples: Vec<f64>,
}

impl<'a> SetupProbes<'a> {
    fn new(args: &'a Args) -> Self {
        SetupProbes {
            args,
            start_ns: clock::now_ns(),
            samples: Vec::with_capacity(SETUP_PROBES),
        }
    }

    /// Takes the next sample once it is due.
    fn between_calls(&mut self) -> Result<(), String> {
        let taken = self.samples.len();
        let due = taken as f64 * self.args.seconds / SETUP_PROBES as f64;
        if taken < SETUP_PROBES && clock::seconds(self.start_ns, clock::now_ns()) >= due {
            self.samples.push(probe_setup(self.args)?);
        }
        Ok(())
    }

    /// Takes the samples not yet due, adds `own` (this process's set-up)
    /// and returns the fastest. Interference only ever slows a set-up down,
    /// so the fastest sample is the steadiest estimate.
    fn fastest(mut self, own: f64) -> Result<f64, String> {
        while self.samples.len() < SETUP_PROBES {
            self.samples.push(probe_setup(self.args)?);
        }
        Ok(self.samples.iter().copied().fold(own, f64::min))
    }
}

/// Times one cold set-up in a child process of this binary.
fn probe_setup(args: &Args) -> Result<f64, String> {
    let output = Command::new(current_exe()?)
        .args(["--setup-probe"])
        .args(probe_args(args))
        .output()
        .map_err(|err| format!("running a set-up probe: {err}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "set-up probe failed ({}): {}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    stdout
        .trim()
        .parse::<f64>()
        .map_err(|err| format!("set-up probe printed {stdout:?}: {err}"))
}

/// The arguments a probe needs to repeat this run's set-up.
fn probe_args(args: &Args) -> [String; 6] {
    [
        "--workload".to_string(),
        args.workload_name.clone(),
        "--seed".to_string(),
        args.seed.to_string(),
        "--seconds".to_string(),
        args.seconds.to_string(),
    ]
}

fn current_exe() -> Result<std::path::PathBuf, String> {
    std::env::current_exe().map_err(|err| format!("locating the benchmark: {err}"))
}

fn run(args: &Args) -> Result<String, String> {
    if args.probe {
        let prepared = Prepared::setup(args.workload, args.seed)?;
        return Ok(format!("{:?}", prepared.setup_s()));
    }

    let mut prepared = Prepared::setup(args.workload, args.seed)?;
    let mut checks = Checks::default();
    let mut metrics = Metrics::default();
    if args.trace {
        match &mut prepared {
            Prepared::Fleet(fleet) => fleet.trace(args.seconds, &mut checks, &mut metrics)?,
            Prepared::Collocation(colloc) => colloc.trace(args.seconds, &mut checks, &mut metrics),
        }
    } else {
        let mut probes = SetupProbes::new(args);
        let mut between = || probes.between_calls();
        match &mut prepared {
            Prepared::Fleet(fleet) => {
                fleet.measure(args.seconds, &mut checks, &mut metrics, &mut between)?
            }
            Prepared::Collocation(colloc) => {
                colloc.measure(args.seconds, &mut checks, &mut metrics, &mut between)?
            }
        }
        metrics.put_end_to_end("setup_s", probes.fastest(prepared.setup_s())?);
        metrics.put_end_to_end("peak_rss_mb", output::peak_rss_mb()?);
    }
    let undeclared = metrics.undeclared();
    if !undeclared.is_empty() {
        return Err(format!("undeclared metrics: {undeclared:?}"));
    }
    eprintln!(
        "perfbench: {} seed {} trace {}: {} calls, {} failed",
        args.workload_name,
        args.seed,
        u8::from(args.trace),
        checks.attempted,
        checks.failed
    );
    Ok(output::result_line(&checks, &metrics, args.trace))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = Args::parse(&argv).and_then(|args| run(&args));
    match result {
        Ok(line) => {
            if !line.is_empty() {
                println!("{line}");
            }
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("perfbench: {err}");
            ExitCode::from(2)
        }
    }
}
