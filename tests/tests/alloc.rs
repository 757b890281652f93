//! Allocation budget of the simulation hot paths, counted by a global
//! allocator.
//!
//! One `#[test]` per binary: the counter is process-wide, so a second
//! test running in parallel would leak its allocations into this one.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use qoserve::prelude::*;
use qoserve_trace::Tracer;

/// Counts every allocation and reallocation, then forwards to `System`.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter touches no
// allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made while `f` runs, and its result.
fn counted<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    (ALLOCATIONS.load(Ordering::Relaxed) - before, out)
}

/// The trace of `invariants::scheduler_decisions_are_pinned` with
/// `requests` ShareGPT requests at Poisson `qps`.
fn trace(qps: f64, requests: usize) -> Trace {
    TraceBuilder::new(Dataset::sharegpt())
        .arrivals(ArrivalProcess::poisson(qps))
        .num_requests(requests)
        .paper_tier_mix()
        .low_priority_fraction(0.3)
        .build(&SeedStream::new(15))
}

/// Allocations of the faulty 4-replica kernel runs, counted by this test
/// on the code before the hashed containers became BTree ones (sharded:
/// the largest count over 1, 2 and the default thread count). A run may
/// allocate at most 10 % more, about 620 allocations; one more allocation
/// per engine step adds about 9,000.
const SHARDED_BASELINE: u64 = 6_217;
const LOCKSTEP_BASELINE: u64 = 6_187;

#[test]
fn hot_paths_stay_within_their_allocation_budget() {
    let hw = HardwareConfig::llama3_8b_a100_tp1();

    // (a) A steady-state engine step allocates nothing; the few that do
    // grow a scratch buffer or the outcome list.
    let pinned = trace(50.0, 150);
    for spec in [SchedulerSpec::qoserve(), SchedulerSpec::sarathi_fcfs()] {
        let seeds = SeedStream::new(15);
        let mut engine = ReplicaEngine::new(
            ReplicaConfig::new(hw.clone()),
            spec.build(&hw, &seeds),
            &seeds,
        );
        for request in &pinned {
            engine.submit(*request);
        }
        let (allocations, steps) = counted(|| {
            let mut steps = 1;
            while engine.step() {
                steps += 1;
            }
            steps
        });
        assert_eq!(engine.finish().len(), pinned.len());
        assert!(
            allocations < steps,
            "{}: {allocations} allocations over {steps} steps",
            spec.label()
        );
    }

    // (b) The kernel's step loops: sharded `advance_replica` and the
    // lockstep pass of `run_elastic_inner`.
    let trace = trace(40.0, 800);
    let config = ClusterConfig::new(hw);
    let plan = FaultPlan::with_faults(FaultConfig::moderate());
    let seeds = SeedStream::new(15);
    let spec = SchedulerSpec::qoserve();
    let elastic = ElasticPlan::none();
    let sharded =
        counted(|| run_shared_elastic(&trace, 4, &spec, &config, &plan, &elastic, &seeds));
    let lockstep = counted(|| {
        run_shared_elastic_observed_lockstep(
            &trace,
            4,
            &spec,
            &config,
            &plan,
            &elastic,
            &seeds,
            &Tracer::disabled(),
            None,
        )
    });
    for (label, (allocations, result), baseline) in [
        ("sharded", sharded, SHARDED_BASELINE),
        ("lockstep", lockstep, LOCKSTEP_BASELINE),
    ] {
        let result = result.expect("the kernel run routes");
        assert_eq!(result.outcomes.len(), trace.len());
        assert!(
            allocations * 10 <= baseline * 11,
            "{label}: {allocations} allocations, budget 1.1 x {baseline}"
        );
    }
}
