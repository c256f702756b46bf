//! Dispatch hot-path microbenchmark: least-loaded dispatch from the
//! load-ordered index, measured through the full serving loop on a
//! replica-dense fleet.
//!
//! The bench also runs under a counting allocator and verifies three
//! allocation budgets on top of the timing numbers:
//!
//! * least-loaded dispatch is allocation-free at steady state: doubling the
//!   arrivals of the same run must not add an allocation per arrival (no
//!   candidate snapshot, no index node churn on re-keying);
//! * the telemetry sampling path is allocation-free at steady state: a run
//!   with dense sampling must not allocate once per tick on top of the
//!   identical telemetry-off run (the regression `telemetry::sample()` used
//!   to have — fresh frame vectors and model maps every tick), and adding
//!   SLO burn-rate alerting on top must not allocate once per alert tick
//!   either, nor once per alert edge (the alert-edge scratch is reused,
//!   ring cells are bumped in place);
//! * the observability instrumentation is free when disabled: a run through
//!   the `&mut dyn ObsSink` entry point with a [`NoopSink`] must allocate
//!   **exactly** as many times as the plain `run` path — the hooks left in
//!   the dispatch hot path add zero allocations without a live recorder.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use cluster::{
    estimated_batch_service_cycles, ClusterServingSim, DeploySpec, DispatchPolicy, NoopSink,
    NpuCluster, PlacementPolicy, ServingOptions, SloConfig, SloSpec,
};
use npu_sim::{Cycles, NpuConfig};
use workloads::{ClusterTrace, ModelId};

/// The system allocator behind a heap-allocation counter, so the bench can
/// assert allocation budgets instead of eyeballing profiles.
struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates verbatim to `System`; the counter is a relaxed atomic
// with no other side effects.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const BOARDS: usize = 8;
const REPLICAS: usize = 64;
const MAX_BATCH: usize = 8;
const ARRIVALS_PER_MODEL: usize = 4_000;

fn models() -> [ModelId; 4] {
    [ModelId::Mnist, ModelId::Ncf, ModelId::Dlrm, ModelId::ResNet]
}

fn fleet() -> NpuCluster {
    let npu = NpuConfig::tpu_v4_like();
    let mut fleet = NpuCluster::homogeneous(BOARDS, &npu);
    let models = models();
    for index in 0..REPLICAS {
        fleet
            .deploy(
                DeploySpec::replica(models[index % models.len()], 2, 2)
                    .with_memory(32 << 20, 1 << 30),
                PlacementPolicy::WorstFit,
            )
            .expect("bench fleet capacity");
    }
    fleet
}

fn trace() -> ClusterTrace {
    trace_of(ARRIVALS_PER_MODEL)
}

fn trace_of(arrivals_per_model: usize) -> ClusterTrace {
    let npu = NpuConfig::tpu_v4_like();
    let replicas_per_model = REPLICAS / models().len();
    let streams: Vec<(ModelId, u64)> = models()
        .iter()
        .map(|model| {
            let batch = estimated_batch_service_cycles(*model, MAX_BATCH, 2, 2, &npu) as f64;
            let gap = batch / (replicas_per_model as f64 * MAX_BATCH as f64 * 0.7);
            (*model, gap.max(1.0) as u64)
        })
        .collect();
    ClusterTrace::poisson(&streams, arrivals_per_model, 11)
}

/// Asserts least-loaded dispatch allocates nothing per arrival at steady
/// state: the same fleet and load at N and 2N arrivals per model may differ
/// by warm-up growth (sketch and queue buffers), never by an allocation per
/// extra arrival, dispatch or re-key.
fn verify_least_loaded_dispatch_is_allocation_free() {
    let run = |arrivals_per_model: usize| {
        let trace = trace_of(arrivals_per_model);
        let mut fleet = fleet();
        let options = ServingOptions::new(DispatchPolicy::LeastLoaded).with_batching(MAX_BATCH);
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let report = ClusterServingSim::new(options).run(&mut fleet, &trace);
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
        (allocations, report)
    };
    // The first run in the process fills the workload-compilation memo;
    // both measured runs must start past it.
    run(ARRIVALS_PER_MODEL);
    let (short_allocations, short) = run(ARRIVALS_PER_MODEL);
    let (long_allocations, long) = run(2 * ARRIVALS_PER_MODEL);
    let extra_arrivals = (long.stats.offered - short.stats.offered) as u64;
    assert_eq!(extra_arrivals, (ARRIVALS_PER_MODEL * models().len()) as u64);
    assert_eq!(long.stats.completed, long.stats.admitted);
    let delta = long_allocations.saturating_sub(short_allocations);
    assert!(
        delta < extra_arrivals / 100,
        "least-loaded dispatch must not allocate per arrival: \
         {delta} extra allocations over {extra_arrivals} extra arrivals"
    );
    println!(
        "dispatch-alloc: {delta} extra allocations over {extra_arrivals} extra arrivals \
         (allocation-free steady state)"
    );
}

/// Asserts the telemetry sampling path allocates nothing per tick at steady
/// state: the allocation delta between a densely-sampled run and the
/// identical telemetry-off run must stay far below one allocation per tick.
fn verify_telemetry_sampling_is_allocation_free() {
    let trace = trace();
    let npu = NpuConfig::tpu_v4_like();
    let interval =
        (estimated_batch_service_cycles(ModelId::Mnist, MAX_BATCH, 2, 2, &npu) * 4).max(1);
    let run = |telemetry: bool, slo: bool| {
        let mut fleet = fleet();
        let mut options = ServingOptions::new(DispatchPolicy::LeastLoaded).with_batching(MAX_BATCH);
        if telemetry {
            options = options.with_telemetry(interval);
        }
        if slo {
            let config = models()
                .into_iter()
                .fold(SloConfig::new(interval), |config, model| {
                    config.with_spec(SloSpec::new(model, Cycles(interval), 0.99))
                });
            options = options.with_slo(config.with_default_policies());
        }
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let report = ClusterServingSim::new(options).run(&mut fleet, &trace);
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
        (allocations, report)
    };
    let (base_allocations, base) = run(false, false);
    let (sampled_allocations, sampled) = run(true, false);
    let ticks = sampled.control.samples as u64;
    assert!(ticks > 100, "the scenario must sample densely ({ticks})");
    assert_eq!(base.stats.completed, sampled.stats.completed);
    let delta = sampled_allocations.saturating_sub(base_allocations);
    // Warm-up allocates the frame scratch, the per-model windows and their
    // sample buffers — a small constant. Per-tick steady state must be free:
    // anything growing with the tick count is the old regression.
    assert!(
        delta < ticks / 2,
        "telemetry sampling must not allocate per tick: \
         {delta} extra allocations over {ticks} ticks"
    );
    println!(
        "telemetry-alloc: {delta} extra allocations over {ticks} ticks (allocation-free steady state)"
    );

    // The SLO engine rides every completion and evaluates every `interval`
    // cycles; on top of the telemetry run it may only add its fixed rings
    // and the amortized growth of the alert log.
    let (slo_allocations, slo) = run(true, true);
    let alert_ticks = slo.makespan.get() / interval;
    assert!(
        alert_ticks > 100,
        "the scenario must evaluate densely ({alert_ticks})"
    );
    assert_eq!(sampled.stats.completed, slo.stats.completed);
    let slo_delta = slo_allocations.saturating_sub(sampled_allocations);
    let edges = slo.alerts.len() as u64;
    assert!(edges > 100, "the scenario must emit alert edges ({edges})");
    // Bounded by the edge count, not the tick count: an allocation per
    // evaluation that emits edges must fail here too.
    assert!(
        slo_delta < edges / 2,
        "SLO alerting must not allocate per alert tick or edge: \
         {slo_delta} extra allocations over {alert_ticks} alert ticks and {edges} edges"
    );
    println!(
        "slo-alloc: {slo_delta} extra allocations over {alert_ticks} alert ticks \
         ({edges} alert edges; allocation-free steady state)"
    );
}

/// Asserts the observability hooks are free when no recorder is attached:
/// `run` (statically monomorphized over `NoopSink`) and `run_observed` with
/// an explicit `&mut NoopSink` (the dynamic-dispatch entry point) must
/// allocate exactly the same number of times — obs-disabled adds 0
/// allocations to the dispatch path.
fn verify_obs_disabled_adds_zero_allocations() {
    let trace = trace();
    let run = |observed: bool| {
        let mut fleet = fleet();
        let sim = ClusterServingSim::new(
            ServingOptions::new(DispatchPolicy::LeastLoaded).with_batching(MAX_BATCH),
        );
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let report = if observed {
            sim.run_observed(&mut fleet, &trace, &mut NoopSink)
        } else {
            sim.run(&mut fleet, &trace)
        };
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
        (allocations, report)
    };
    let (base_allocations, base) = run(false);
    let (noop_allocations, noop) = run(true);
    assert_eq!(base, noop, "a no-op sink must not change the simulation");
    assert_eq!(
        base_allocations, noop_allocations,
        "obs-disabled must add 0 allocations on the dispatch path: \
         plain run {base_allocations}, noop-sink run {noop_allocations}"
    );
    println!(
        "obs-alloc: noop-sink run allocates exactly the plain run's {base_allocations} \
         allocations (obs-disabled adds 0)"
    );
}

fn bench_dispatch(c: &mut Criterion) {
    verify_least_loaded_dispatch_is_allocation_free();
    verify_telemetry_sampling_is_allocation_free();
    verify_obs_disabled_adds_zero_allocations();
    let trace = trace();
    let mut group = c.benchmark_group("dispatch");
    group.sample_size(10);
    group.bench_function("indexed", |b| {
        b.iter(|| {
            let mut fleet = fleet();
            let options = ServingOptions::new(DispatchPolicy::LeastLoaded).with_batching(MAX_BATCH);
            black_box(ClusterServingSim::new(options).run(&mut fleet, &trace))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_dispatch);
criterion_main!(benches);
