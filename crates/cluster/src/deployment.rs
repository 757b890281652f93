//! Shared and siloed deployments.
//!
//! * **Shared** (QoServe's model): every replica serves every QoS tier;
//!   requests are routed across all replicas.
//! * **Siloed** (the SOTA baseline of §2.2, Table 4): each tier (or group
//!   of tiers) owns a dedicated replica pool with its own scheduler and
//!   chunk size — interactive silos run small chunks, batch silos run
//!   large ones.
//!
//! Replicas simulate independently (the router fixes each request's
//! target at submission, as the paper's round-robin balancer does), so
//! they execute on parallel threads with per-replica seeds; results are
//! bit-reproducible regardless of thread scheduling.

use qoserve_engine::{ReplicaConfig, ReplicaEngine};
use qoserve_metrics::RequestOutcome;
use qoserve_perf::HardwareConfig;
use qoserve_sim::faults::ReplicaFaultProfile;
use qoserve_sim::{nums, par_map, SeedStream, SimTime};
use qoserve_trace::Tracer;
use qoserve_workload::{RequestSpec, TierId, Trace};

use crate::router::Router;
use crate::spec::SchedulerSpec;

/// Cluster-wide execution settings.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Hardware of every replica.
    pub hardware: HardwareConfig,
    /// Routing policy within each deployment group.
    pub router: Router,
    /// Per-replica execution-noise sigma.
    pub noise_sigma: f64,
    /// Per-replica decode-pool cap.
    pub max_decode_batch: usize,
    /// Optional simulated-time cutoff applied to every replica.
    pub horizon: Option<SimTime>,
}

impl ClusterConfig {
    /// Defaults: round-robin, 2 % noise, TBT-sustainable decode pool
    /// (see [`qoserve_engine::sustainable_decode_batch`]), no horizon.
    pub fn new(hardware: HardwareConfig) -> Self {
        let max_decode_batch = qoserve_engine::sustainable_decode_batch(&hardware);
        ClusterConfig {
            hardware,
            router: Router::RoundRobin,
            noise_sigma: 0.02,
            max_decode_batch,
            horizon: None,
        }
    }

    /// Sets the horizon.
    pub fn with_horizon(mut self, horizon: SimTime) -> Self {
        self.horizon = Some(horizon);
        self
    }
}

/// One silo of a siloed deployment: a tier set served by a dedicated
/// replica pool.
#[derive(Debug, Clone)]
pub struct SiloGroup {
    /// Tiers routed to this silo.
    pub tiers: Vec<TierId>,
    /// Number of replicas in the pool.
    pub replicas: u32,
    /// Scheduler run on each replica.
    pub scheduler: SchedulerSpec,
}

impl SiloGroup {
    /// Creates a silo.
    pub fn new(tiers: Vec<TierId>, replicas: u32, scheduler: SchedulerSpec) -> Self {
        assert!(replicas > 0, "a silo needs at least one replica");
        SiloGroup {
            tiers,
            replicas,
            scheduler,
        }
    }
}

/// Runs `trace` on a shared deployment of `replicas` identical replicas.
/// Returns one outcome per request, ordered by request id.
pub fn run_shared(
    trace: &Trace,
    replicas: u32,
    scheduler: &SchedulerSpec,
    config: &ClusterConfig,
    seeds: &SeedStream,
) -> Vec<RequestOutcome> {
    run_shared_traced(
        trace,
        replicas,
        scheduler,
        config,
        seeds,
        &Tracer::disabled(),
    )
}

/// [`run_shared`] with a decision [`Tracer`] installed on every replica.
/// A disabled tracer (the plain entry point delegates here with one) is
/// behaviourally free: every emission site is a no-op and the run is
/// bit-identical to the untraced path. Captured events carry per-replica
/// program-order sequence numbers, so the exported trace is a function of
/// `(trace, scheduler, config, seeds)` alone — independent of how the
/// replica threads were actually scheduled. The tracer is flushed before
/// the call returns, so a stats tee behind it has seen every record.
pub fn run_shared_traced(
    trace: &Trace,
    replicas: u32,
    scheduler: &SchedulerSpec,
    config: &ClusterConfig,
    seeds: &SeedStream,
    tracer: &Tracer,
) -> Vec<RequestOutcome> {
    assert!(replicas > 0, "at least one replica is required");
    let outcomes = run_pool(
        trace.requests(),
        replicas,
        scheduler,
        config,
        seeds,
        0,
        tracer,
    );
    tracer.flush();
    outcomes
}

/// Runs `trace` on a siloed deployment. Requests whose tier belongs to no
/// silo are rejected (recorded as unfinished violations), mirroring a
/// misconfigured production router.
pub fn run_siloed(
    trace: &Trace,
    silos: &[SiloGroup],
    config: &ClusterConfig,
    seeds: &SeedStream,
) -> Vec<RequestOutcome> {
    assert!(!silos.is_empty(), "at least one silo is required");
    let mut outcomes: Vec<RequestOutcome> = Vec::with_capacity(trace.len());
    let mut replica_base = 0u32;
    for silo in silos {
        let members: Vec<RequestSpec> = trace
            .requests()
            .iter()
            .filter(|r| silo.tiers.contains(&r.tier()))
            .copied()
            .collect();
        outcomes.extend(run_pool(
            &members,
            silo.replicas,
            &silo.scheduler,
            config,
            seeds,
            replica_base,
            &Tracer::disabled(),
        ));
        replica_base += silo.replicas;
    }
    // Requests not covered by any silo.
    for r in trace.requests() {
        if !silos.iter().any(|s| s.tiers.contains(&r.tier())) {
            outcomes.push(RequestOutcome::unfinished(*r, false, u32::MAX));
        }
    }
    outcomes.sort_by_key(|o| o.spec.id);
    outcomes
}

/// Routes `requests` over a pool of `replicas` replicas with the
/// configured router, then executes the pool on [`par_map`] workers
/// (bounded by `QOSERVE_THREADS`, not by the replica count — a
/// 256-replica run no longer spawns 256 OS threads). Replicas simulate
/// independently, so worker scheduling cannot affect results: outcomes
/// come back in replica order and are then sorted by request id.
fn run_pool(
    requests: &[RequestSpec],
    replicas: u32,
    scheduler: &SchedulerSpec,
    config: &ClusterConfig,
    seeds: &SeedStream,
    replica_base: u32,
    tracer: &Tracer,
) -> Vec<RequestOutcome> {
    let targets = config.router.assign(requests, nums::u32_to_usize(replicas));
    let mut per_replica: Vec<Vec<RequestSpec>> = vec![Vec::new(); nums::u32_to_usize(replicas)];
    for (spec, target) in requests.iter().zip(targets) {
        per_replica[target].push(*spec);
    }
    let results: Vec<Vec<RequestOutcome>> = par_map(per_replica, |idx, specs| {
        let replica_id = replica_base + nums::usize_to_u32(idx);
        let mut engine = build_engine(
            scheduler,
            config,
            seeds,
            replica_id,
            ReplicaFaultProfile::healthy(),
            tracer,
        );
        for spec in specs {
            engine.submit(spec);
        }
        engine.run()
    });

    let mut outcomes: Vec<RequestOutcome> = results.into_iter().flatten().collect();
    outcomes.sort_by_key(|o| o.spec.id);
    outcomes
}

/// Builds replica `replica_id`'s engine. Every runner constructs engines
/// here, so replica `r` draws its scheduler and noise streams from the
/// same `seeds.child("replica")` whichever runner drives it: a kernel run
/// without faults or scale events is bit-identical to [`run_shared`].
pub(crate) fn build_engine(
    scheduler: &SchedulerSpec,
    config: &ClusterConfig,
    seeds: &SeedStream,
    replica_id: u32,
    faults: ReplicaFaultProfile,
    tracer: &Tracer,
) -> ReplicaEngine {
    let replica_seeds = seeds.child("replica");
    let mut rc = ReplicaConfig::new(config.hardware.clone())
        .with_replica_id(replica_id)
        .with_faults(faults);
    rc.noise_sigma = config.noise_sigma;
    rc.max_decode_batch = config.max_decode_batch;
    rc.horizon = config.horizon;
    let sched = scheduler.build(&config.hardware, &replica_seeds);
    let mut engine = ReplicaEngine::new(rc, sched, &replica_seeds);
    if tracer.enabled() {
        engine.set_tracer(tracer.clone());
    }
    engine
}

#[cfg(test)]
mod tests {
    use super::*;
    use qoserve_metrics::SloReport;
    use qoserve_sim::SimDuration;
    use qoserve_workload::{ArrivalProcess, Dataset, TierMix, TraceBuilder};

    fn config() -> ClusterConfig {
        ClusterConfig::new(HardwareConfig::llama3_8b_a100_tp1())
    }

    fn trace(seed: u64, qps: f64, n: usize) -> Trace {
        TraceBuilder::new(Dataset::azure_conv())
            .arrivals(ArrivalProcess::poisson(qps))
            .num_requests(n)
            .paper_tier_mix()
            .build(&SeedStream::new(seed))
    }

    #[test]
    fn shared_accounts_every_request_once() {
        let t = trace(1, 6.0, 240);
        let outcomes = run_shared(
            &t,
            3,
            &SchedulerSpec::qoserve(),
            &config(),
            &SeedStream::new(1),
        );
        assert_eq!(outcomes.len(), t.len());
        for (i, o) in outcomes.iter().enumerate() {
            assert_eq!(o.spec.id.0, i as u64, "sorted by id");
        }
        // All three replicas served traffic.
        let mut replicas: Vec<u32> = outcomes.iter().map(|o| o.replica).collect();
        replicas.sort_unstable();
        replicas.dedup();
        assert_eq!(replicas, vec![0, 1, 2]);
    }

    #[test]
    fn shared_run_is_deterministic() {
        let t = trace(2, 4.0, 120);
        let run = || {
            run_shared(
                &t,
                2,
                &SchedulerSpec::qoserve(),
                &config(),
                &SeedStream::new(5),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn more_replicas_reduce_violations_under_load() {
        let t = trace(3, 10.0, 300);
        let threshold = t.long_prompt_threshold();
        let viol = |replicas: u32| {
            let o = run_shared(
                &t,
                replicas,
                &SchedulerSpec::sarathi_fcfs(),
                &config(),
                &SeedStream::new(3),
            );
            SloReport::compute(&o, threshold).violation_pct()
        };
        let one = viol(1);
        let four = viol(4);
        assert!(
            four < one || one == 0.0,
            "4 replicas ({four:.1}%) should beat 1 ({one:.1}%)"
        );
    }

    #[test]
    fn siloed_routes_by_tier() {
        let t = trace(4, 6.0, 120);
        let silos = vec![
            SiloGroup::new(vec![TierId::Q1], 1, SchedulerSpec::sarathi_fcfs()),
            SiloGroup::new(
                vec![TierId::Q2, TierId::Q3],
                1,
                SchedulerSpec::Sarathi {
                    policy: qoserve_sched::OrderPolicy::Fcfs,
                    chunk: 2_048,
                },
            ),
        ];
        let outcomes = run_siloed(&t, &silos, &config(), &SeedStream::new(4));
        assert_eq!(outcomes.len(), t.len());
        for o in &outcomes {
            if o.tier() == TierId::Q1 {
                assert_eq!(o.replica, 0);
            } else {
                assert_eq!(o.replica, 1);
            }
        }
    }

    #[test]
    fn uncovered_tier_is_rejected() {
        let t = TraceBuilder::new(Dataset::azure_conv())
            .num_requests(30)
            .tier_mix(TierMix::paper_equal())
            .build(&SeedStream::new(5));
        // Only Q1 is served.
        let silos = vec![SiloGroup::new(
            vec![TierId::Q1],
            1,
            SchedulerSpec::qoserve(),
        )];
        let outcomes = run_siloed(&t, &silos, &config(), &SeedStream::new(5));
        assert_eq!(outcomes.len(), t.len());
        for o in &outcomes {
            if o.tier() == TierId::Q1 {
                assert!(o.finished());
            } else {
                assert!(!o.finished());
                assert!(o.violated());
            }
        }
    }

    #[test]
    fn horizon_applies_to_all_replicas() {
        let t = trace(6, 8.0, 200);
        let cfg = config().with_horizon(SimTime::ZERO + SimDuration::from_secs(1));
        let outcomes = run_shared(&t, 2, &SchedulerSpec::qoserve(), &cfg, &SeedStream::new(6));
        // Nothing can finish in 1 simulated second against ~25s of trace.
        assert!(outcomes.iter().filter(|o| !o.finished()).count() > outcomes.len() / 2);
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn zero_replicas_rejected() {
        let t = trace(7, 1.0, 5);
        let _ = run_shared(
            &t,
            0,
            &SchedulerSpec::qoserve(),
            &config(),
            &SeedStream::new(7),
        );
    }
}
