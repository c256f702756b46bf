//! The benchmark's only window onto the host clock.
//!
//! Everything else in the benchmark reads time as nanoseconds since a
//! process-wide epoch, so the one wall-clock type lives here, behind the
//! reasoned allow pragmas the workspace linter asks for.

use std::sync::OnceLock;

/// Host seconds of untimed, checked calls before timing starts. A host
/// that sat idle runs the first second or so of work markedly slower.
pub const WARMUP_SECONDS: f64 = 2.0;

// simlint::allow(D2, reason = "the benchmark measures host time on purpose; simulated time never reads it")
static EPOCH: OnceLock<std::time::Instant> = OnceLock::new();

/// Host nanoseconds since the first call in this process (monotonic).
pub fn now_ns() -> u64 {
    // simlint::allow(D2, reason = "the benchmark measures host time on purpose; simulated time never reads it")
    let epoch = EPOCH.get_or_init(std::time::Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Host seconds between two [`now_ns`] readings.
pub fn seconds(from_ns: u64, to_ns: u64) -> f64 {
    to_ns.saturating_sub(from_ns) as f64 / 1e9
}

/// Runs `f` and returns its result with the host seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = now_ns();
    let value = f();
    (value, seconds(start, now_ns()))
}
