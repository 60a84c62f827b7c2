//! Allocation gate for the forward batch executors: once a planned batch
//! has replayed its schedules and the batch arena is warm, `pgas_batch`
//! makes no heap allocation at all, and `baseline_batch` and
//! `pgas_batch_gateway` stay at their pinned counts. Counted by the bench
//! harness's per-thread counting allocator on a width-1 pool, the way the
//! wallclock `arena_reuse` benchmark counts.

use bench_harness::{alloc_count, scaled};
use desim::{Dur, SimTime};
use emb_retrieval::backend::{
    baseline_batch, pgas_batch, pgas_batch_gateway, plan_for_batch, BatchRun, PlannedBatch,
};
use emb_retrieval::{EmbLayerConfig, SparseBatch};
use gpusim::{Machine, MachineConfig};
use pgas_rt::{GatewayConfig, PgasConfig};
use rayon::ThreadPoolBuilder;
use simccl::{Algorithm, CollectiveConfig};

/// Allocations made by the third of three chained calls of `exec` on a
/// fresh machine from `cfg` (the first two warm the planned batch's
/// schedules and the arena slabs). The machine's traffic series is one
/// bucket wide, so its growth with simulated time never shows up in the
/// count.
fn steady_allocs(
    cfg: MachineConfig,
    layer: &EmbLayerConfig,
    exec: impl Fn(&mut Machine, &PlannedBatch, SimTime) -> BatchRun,
) -> u64 {
    let pool = ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("build thread pool");
    pool.install(|| {
        let mut m = Machine::new(cfg.with_traffic_bucket(Dur::from_ms(60_000)));
        let batch = SparseBatch::generate_counts_only(&layer.batch_spec(), layer.batch_seed(0));
        let pb = PlannedBatch::new(&m, plan_for_batch(layer, &batch, m.spec(0)));
        let mut at = SimTime::ZERO;
        for _ in 0..2 {
            at = exec(&mut m, &pb, at).end;
        }
        let before = alloc_count();
        let dispatched_before = rayon::local_pool_stats().dispatched_runs;
        let run = exec(&mut m, &pb, at);
        let allocs = alloc_count() - before;
        assert_eq!(
            rayon::local_pool_stats().dispatched_runs,
            dispatched_before,
            "the measured width-1 call dispatched to pool workers"
        );
        assert!(run.end > at, "the measured call ran");
        allocs
    })
}

fn dgx_layer() -> EmbLayerConfig {
    scaled(EmbLayerConfig::paper_weak_scaling(4), 64, 1)
}

#[test]
fn warmed_pgas_batch_does_not_allocate() {
    let allocs = steady_allocs(MachineConfig::dgx_v100(4), &dgx_layer(), |m, pb, at| {
        pgas_batch(m, PgasConfig::default(), pb, at)
    });
    assert_eq!(allocs, 0, "pgas_batch allocated");
}

#[test]
fn warmed_baseline_batch_allocations_are_pinned() {
    // Two per unpack kernel (its block dispatch and block ends) on each of
    // the four devices, and two in the all-to-all.
    let cc = CollectiveConfig::default().with_algorithm(Algorithm::Direct);
    let allocs = steady_allocs(MachineConfig::dgx_v100(4), &dgx_layer(), |m, pb, at| {
        baseline_batch(m, &cc, pb, at)
    });
    assert_eq!(allocs, 10, "baseline_batch allocations");
}

#[test]
fn warmed_gateway_batch_allocations_are_pinned() {
    // All of them in the per-call gateway proxy and its aggregators.
    let layer = scaled(EmbLayerConfig::paper_weak_scaling(8), 64, 1);
    let allocs = steady_allocs(MachineConfig::pod_v100(2, 4), &layer, |m, pb, at| {
        pgas_batch_gateway(m, GatewayConfig::default(), pb, at)
    });
    assert_eq!(allocs, 39, "pgas_batch_gateway allocations");
}
