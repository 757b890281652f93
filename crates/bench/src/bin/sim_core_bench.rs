//! Simulation-core throughput benchmark and perf ratchet.
//!
//! Measures end-to-end simulated-requests/sec of the cluster kernel on a
//! replicas × requests grid, comparing the sharded event-core kernel
//! (`run_shared_elastic` on a fixed fault-free fleet) against its min-now
//! lockstep oracle (`run_shared_elastic_observed_lockstep`). Both
//! kernels are pinned bit-identical by the test suite, so the only thing
//! this binary can observe is speed.
//!
//! Modes:
//!
//! * default — measure the full grid (scaled by `QOSERVE_SCALE`), print
//!   a table, append the measured series point to
//!   `results/BENCH_sim_core.json`, and ratchet the check floor upward
//!   (never downward) to 85% of the measured check-point speedup.
//! * `--check` — the CI perf gate: measure the small fixed check point
//!   and fail (exit 1) when its sharded-vs-lockstep speedup falls below
//!   the committed floor, i.e. regresses by more than 15% against the
//!   best recorded measurement.
//!
//! Raw requests/sec depends on the host, so the ratchet gates on the
//! *speedup ratio* — dimensionless and machine-portable. `QOSERVE_THREADS`
//! is forced to 1 so the ratio reflects the kernel's algorithmic win
//! (no O(replicas) min-scan, per-replica cache locality, scratch reuse),
//! not thread-count luck; multi-core parallelism in the sharded
//! kernel is upside on top.

use std::time::Instant;

use qoserve::prelude::*;
use qoserve_bench::banner;
use qoserve_sim::json;
use qoserve_sim::json::Value;
use qoserve_trace::Tracer;

/// Grid measured by the default mode, before `QOSERVE_SCALE`.
const REPLICA_GRID: [u32; 3] = [8, 64, 256];
const REQUEST_GRID: [usize; 3] = [10_000, 100_000, 1_000_000];

/// Fixed check point for `--check`: small enough for CI, large enough
/// for a stable ratio. Deliberately *not* scaled by `QOSERVE_SCALE` —
/// the committed floor only makes sense against a fixed workload.
const CHECK_REPLICAS: u32 = 64;
const CHECK_REQUESTS: usize = 20_000;

/// Regression tolerance: fail when speedup drops below 85% of the best
/// recorded check-point speedup.
const RATCHET_FRACTION: f64 = 0.85;

const RESULTS_PATH: &str = "results/BENCH_sim_core.json";

struct Point {
    replicas: u32,
    requests: usize,
    lockstep_secs: f64,
    sharded_secs: f64,
}

impl Point {
    fn lockstep_rps(&self) -> f64 {
        self.requests as f64 / self.lockstep_secs.max(1e-9)
    }

    fn sharded_rps(&self) -> f64 {
        self.requests as f64 / self.sharded_secs.max(1e-9)
    }

    fn speedup(&self) -> f64 {
        self.sharded_rps() / self.lockstep_rps().max(1e-9)
    }

    fn row(&self) -> Value {
        json!({
            "replicas": self.replicas,
            "requests": self.requests,
            "lockstep_reqs_per_sec": round2(self.lockstep_rps()),
            "sharded_reqs_per_sec": round2(self.sharded_rps()),
            "speedup": round2(self.speedup()),
        })
    }
}

fn round2(v: f64) -> f64 {
    (v * 100.0).round() / 100.0
}

/// Runs one grid point through both kernels and cross-checks their
/// outcomes bit-for-bit (a free differential test on every benchmark
/// run).
fn measure_point(replicas: u32, requests: usize) -> Point {
    // Constant per-replica offered load, so scaling the replica count
    // scales work instead of idling the fleet.
    let qps = 2.0 * replicas as f64;
    let trace = TraceBuilder::new(Dataset::azure_conv())
        .arrivals(ArrivalProcess::poisson(qps))
        .num_requests(requests)
        .paper_tier_mix()
        .build(&SeedStream::new(4_242));
    let spec = SchedulerSpec::qoserve();
    let config = ClusterConfig::new(HardwareConfig::llama3_8b_a100_tp1());
    let plan = FaultPlan::none();
    let elastic = ElasticPlan::none();

    #[expect(
        clippy::disallowed_methods,
        reason = "this bin measures the host's wall time, not simulated time"
    )]
    let t0 = Instant::now();
    let lockstep = run_shared_elastic_observed_lockstep(
        &trace,
        replicas,
        &spec,
        &config,
        &plan,
        &elastic,
        &SeedStream::new(4_242),
        &Tracer::disabled(),
        None,
    )
    .expect("lockstep run routes");
    let lockstep_secs = t0.elapsed().as_secs_f64();

    #[expect(
        clippy::disallowed_methods,
        reason = "this bin measures the host's wall time, not simulated time"
    )]
    let t1 = Instant::now();
    let sharded = run_shared_elastic(
        &trace,
        replicas,
        &spec,
        &config,
        &plan,
        &elastic,
        &SeedStream::new(4_242),
    )
    .expect("sharded run routes");
    let sharded_secs = t1.elapsed().as_secs_f64();

    assert_eq!(
        lockstep, sharded,
        "kernels diverged at {replicas} replicas x {requests} requests"
    );

    Point {
        replicas,
        requests,
        lockstep_secs,
        sharded_secs,
    }
}

fn load_results() -> Option<Value> {
    let text = std::fs::read_to_string(RESULTS_PATH).ok()?;
    json::parse(&text).ok()
}

/// Member `key` of the object `doc`, for in-place edits.
fn member<'a>(doc: &'a mut Value, key: &str) -> Option<&'a mut Value> {
    match doc {
        Value::Object(members) => members.iter_mut().find(|m| m.0 == key).map(|m| &mut m.1),
        _ => None,
    }
}

fn committed_floor(doc: &Value) -> Option<f64> {
    doc.get("check")?.get("min_speedup")?.as_f64()
}

fn run_check() -> i32 {
    let Some(doc) = load_results() else {
        eprintln!("error: {RESULTS_PATH} is missing; run sim_core_bench once to create it");
        return 2;
    };
    let Some(floor) = committed_floor(&doc) else {
        eprintln!("error: {RESULTS_PATH} has no check.min_speedup field");
        return 2;
    };
    let p = measure_point(CHECK_REPLICAS, CHECK_REQUESTS);
    let speedup = p.speedup();
    println!(
        "check point: {} replicas x {} requests -> lockstep {:.0} req/s, sharded {:.0} req/s, speedup {:.2}x (floor {:.2}x)",
        CHECK_REPLICAS,
        CHECK_REQUESTS,
        p.lockstep_rps(),
        p.sharded_rps(),
        speedup,
        floor,
    );
    if speedup < floor {
        eprintln!(
            "PERF REGRESSION: sharded/lockstep speedup {speedup:.2}x fell below the committed floor {floor:.2}x \
             (>15% below the best recorded measurement)"
        );
        return 1;
    }
    println!("perf ratchet OK");
    0
}

fn run_measure() {
    let scale = qoserve::experiments::scale_factor();
    let mut points: Vec<Point> = Vec::new();
    println!("replicas  requests   lockstep req/s   sharded req/s   speedup");
    for &replicas in &REPLICA_GRID {
        for &base in &REQUEST_GRID {
            let requests = ((base as f64 * scale).round() as usize).max(500);
            let p = measure_point(replicas, requests);
            println!(
                "{replicas:>8}  {requests:>8}   {:>14.0}   {:>13.0}   {:>6.2}x",
                p.lockstep_rps(),
                p.sharded_rps(),
                p.speedup(),
            );
            points.push(p);
        }
    }

    // The check-point ratio this machine would gate on (measured
    // explicitly so the floor is anchored to the exact check workload).
    let check = measure_point(CHECK_REPLICAS, CHECK_REQUESTS);
    let check_speedup = check.speedup();
    println!(
        "check point ({CHECK_REPLICAS} replicas x {CHECK_REQUESTS} requests): speedup {check_speedup:.2}x"
    );

    let mut doc = load_results().unwrap_or_else(|| {
        json!({
            "id": "BENCH_sim_core",
            "what": "End-to-end simulated-requests/sec: sharded event-core kernel vs min-now lockstep reference, zero-fault shared deployment, QOSERVE_THREADS=1",
            "series": [],
            "check": {
                "replicas": CHECK_REPLICAS,
                "requests": CHECK_REQUESTS,
                "min_speedup": 1.0,
            },
        })
    });

    let rows: Vec<Value> = points.iter().map(Point::row).collect();
    let entry = json!({
        "scale": scale,
        "check_speedup": round2(check_speedup),
        "grid": rows,
    });
    if let Some(Value::Array(series)) = member(&mut doc, "series") {
        series.push(entry);
    }
    // Ratchet the floor upward only: a slow machine must not lower the
    // bar a fast machine set. 85% of the measured ratio tolerates run
    // noise; anything below it is a real regression.
    let measured_floor = round2(check_speedup * RATCHET_FRACTION);
    if measured_floor > committed_floor(&doc).unwrap_or(1.0) {
        if let Some(floor) = member(&mut doc, "check").and_then(|c| member(c, "min_speedup")) {
            *floor = json!(measured_floor);
        }
    }

    if std::fs::create_dir_all("results")
        .and_then(|()| std::fs::write(RESULTS_PATH, doc.to_pretty() + "\n"))
        .is_ok()
    {
        println!("series updated: {RESULTS_PATH}");
    } else {
        eprintln!("warning: could not write {RESULTS_PATH}");
    }
}

fn main() {
    banner(
        "sim_core_bench",
        "simulation-core throughput: sharded event core vs lockstep reference",
    );
    // Machine-portable ratios: measure the kernel's algorithmic win at a
    // fixed worker count. Thread-count invariance of the *results* is
    // pinned elsewhere; here it only stabilizes timing.
    std::env::set_var("QOSERVE_THREADS", "1");
    let check = std::env::args().any(|a| a == "--check");
    if check {
        std::process::exit(run_check());
    }
    run_measure();
}
