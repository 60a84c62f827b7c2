//! The two retrieval backends: baseline (collective) and PGAS fused.
//!
//! Both consume the same [`ForwardPlan`], drive the same simulated machine,
//! and (in functional mode) produce bit-comparable outputs — so every
//! difference in the reported timings comes from the communication scheme,
//! which is exactly the paper's experimental design.

mod baseline;
mod functional;
mod pgas;
mod resilient;
mod single;

pub use baseline::BaselineBackend;
pub use functional::{
    apply_hot_imports, compute_pooled_rows, compute_pooled_rows_into, exchange_and_unpack,
    materialize_shards, scatter_via_symmetric_heap,
};
pub use pgas::PgasFusedBackend;
pub use resilient::{
    DegradedFill, ResiliencePolicy, ResilienceReport, ResilientBackend, ResilientResult,
};
pub use single::{
    baseline_batch, baseline_batch_logged, pgas_batch, pgas_batch_gateway, pgas_batch_logged,
    ArrivalLog, BatchRun, PlannedBatch,
};

pub use crate::cache::{HotCachePlanner, HotReplicas, HotRowCache, IndexDedupMap};

use desim::{Dur, SimTime};
use gpusim::{GpuSpec, KernelShape, Machine};
use rayon::prelude::*;
use simtensor::Tensor;

use crate::{DevicePlan, EmbLayerConfig, ForwardPlan, RunReport, SparseBatch, TimeBreakdown};

/// Whether a run materializes weights and produces outputs, or only times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecMode {
    /// Simulate timing only; tables are never materialized. Use for
    /// paper-scale workloads (64 GB of weights would not fit in host RAM).
    Timing,
    /// Also execute the real lookups and produce `[mb, S, dim]` outputs per
    /// device, verifiable against [`crate::reference::reference_forward`].
    Functional,
}

/// What a backend run returns.
#[derive(Clone, Debug)]
pub struct BackendResult {
    /// Accumulated timing over all batches.
    pub report: RunReport,
    /// Final-batch outputs per device (functional mode only).
    pub outputs: Option<Vec<Tensor>>,
}

/// Common per-backend entry point, so harness code can switch on a trait
/// object instead of concrete types.
pub trait RetrievalBackend {
    /// Human-readable name for reports.
    fn name(&self) -> &'static str;
    /// Execute `cfg.n_batches` forward passes on `machine`.
    ///
    /// The machine should be freshly constructed: the run starts at t = 0
    /// and the report embeds the machine's whole-run traffic statistics.
    fn run(
        &self,
        machine: &mut gpusim::Machine,
        cfg: &EmbLayerConfig,
        mode: ExecMode,
    ) -> BackendResult;
}

/// Fraction of peak HBM bandwidth a random-row gather kernel sustains.
/// Scattered 256 B reads do not stream; 0.65 matches measured V100 gather
/// throughput (and the paper's sub-peak `ncu` numbers).
pub(crate) const GATHER_EFFICIENCY: f64 = 0.65;

/// Per-block service durations of the lookup kernel for one device.
///
/// A block's global-memory traffic is its embedding-row reads
/// (`lookups × row_bytes`), its index reads (8 B each) and its pooled-row
/// writes (`n_bags × row_bytes`); the duration follows the machine's
/// occupancy/latency cost model, derated by [`GATHER_EFFICIENCY`].
///
/// Blocks carrying measured [`crate::BlockCacheStats`] charge only their
/// `hbm_fetches` as row reads — hot-set hits and deduplicated fetches are
/// served on-chip, *replacing* the analytic `cache_hit` derating. When the
/// plan has `imported_bags`, the extra blocks that compute them from local
/// replicas are appended after the regular blocks (index reads + pooled-row
/// writes only; replica reads are hot by construction).
pub(crate) fn lookup_block_durations(
    dp: &DevicePlan,
    plan: &ForwardPlan,
    spec: &GpuSpec,
) -> Vec<Dur> {
    let import_blocks = dp.imported_bags.len().div_ceil(plan.bags_per_block);
    let n_blocks = (dp.blocks.len() + import_blocks) as u64;
    if n_blocks == 0 {
        return Vec::new();
    }
    let resident = KernelShape::effective_resident(n_blocks, spec.max_resident_blocks());
    let row_bytes = plan.row_bytes() as u64;
    let block_time = |bytes: u64| {
        let shape = KernelShape {
            blocks: 1,
            bytes_per_block: (bytes as f64 / GATHER_EFFICIENCY).round() as u64,
            flops_per_block: 0,
            dependent_accesses: 8,
        };
        shape.block_time(spec, resident)
    };
    let mut durs: Vec<Dur> = dp
        .blocks
        .iter()
        .map(|b| {
            let bytes = match &b.cache {
                Some(s) => s.hbm_fetches * row_bytes + s.lookups * 8 + s.n_bags as u64 * row_bytes,
                None => {
                    // Row reads that hit in L2 never reach HBM (skewed inputs).
                    let hbm_reads = (b.lookups as f64 * (1.0 - plan.cache_hit)).round() as u64;
                    hbm_reads * row_bytes + b.lookups * 8 + b.n_bags as u64 * row_bytes
                }
            };
            block_time(bytes)
        })
        .collect();
    for chunk in dp.imported_bags.chunks(plan.bags_per_block) {
        let lookups: u64 = chunk.iter().map(|b| b.lookups as u64).sum();
        durs.push(block_time(lookups * 8 + chunk.len() as u64 * row_bytes));
    }
    durs
}

/// The distinct input batches a run cycles through, and their plans.
///
/// Public so executed-schedule frontends (the dlrm pipeline engine) can
/// drive the same per-batch functions the closed-loop backends chain,
/// against the same prepared state.
pub struct PreparedBatches {
    /// The distinct batches, seed-index order.
    pub batches: Vec<SparseBatch>,
    /// One forward plan per batch.
    pub plans: Vec<ForwardPlan>,
    /// The hot-row/dedup planner, when `cfg` enables either — kept so the
    /// functional path can materialize replicas without re-ranking.
    pub planner: Option<HotCachePlanner>,
}

/// Expected fraction of this workload's row reads served from `gpu`'s L2 —
/// what [`ForwardPlan::cache_hit`] gets stamped with. Derived from the
/// config's index distribution and the cache's row capacity (scaled by
/// `cfg.cache_rows_scale` so scaled-down runs keep the paper-scale ratio).
pub fn cache_hit_for(cfg: &EmbLayerConfig, gpu: &GpuSpec) -> f64 {
    let cache_rows = ((gpu.l2_bytes / cfg.table_spec().row_bytes() as u64) as f64
        * cfg.cache_rows_scale)
        .round() as u64;
    cfg.distribution
        .cache_hit_fraction(cfg.index_space, cfg.table_rows as u64, cache_rows)
}

/// Build the forward plan for one assembled `batch` under `cfg`'s layout,
/// stamped with the cache-hit fraction — the per-batch analogue of the
/// closed-loop batch preparation, used by the serving path where batches
/// are composed from queued requests rather than drawn from a seed.
pub fn plan_for_batch(cfg: &EmbLayerConfig, batch: &SparseBatch, gpu: &GpuSpec) -> ForwardPlan {
    plan_with_planner(cfg, batch, gpu, HotCachePlanner::new(cfg, gpu).as_ref())
}

/// [`plan_for_batch`] with a caller-owned [`HotCachePlanner`], so call sites
/// that plan many batches (closed-loop runs, the serving pool) rank the
/// warmup trace once instead of per batch. Pass `None` for plain plans.
pub fn plan_with_planner(
    cfg: &EmbLayerConfig,
    batch: &SparseBatch,
    gpu: &GpuSpec,
    planner: Option<&HotCachePlanner>,
) -> ForwardPlan {
    let mut p = ForwardPlan::build(
        batch,
        &cfg.sharding(),
        cfg.dim,
        cfg.pooling,
        cfg.bags_per_block,
    );
    p.cache_hit = cache_hit_for(cfg, gpu);
    if let Some(pl) = planner {
        pl.annotate(&mut p, batch);
    }
    p
}

/// Generate the distinct batches of a closed-loop run under `cfg` and plan
/// each one — the state every backend's `run` builds before its batch loop.
pub fn prepare_batches(cfg: &EmbLayerConfig, mode: ExecMode, gpu: &GpuSpec) -> PreparedBatches {
    let spec = cfg.batch_spec();
    let distinct = cfg.distinct_batches.max(1).min(cfg.n_batches.max(1));
    let planner = HotCachePlanner::new(cfg, gpu);
    // Cache/dedup profiling is per-index, so those runs materialize full
    // batches even in timing mode (they only ever run at bench scales).
    let need_indices = mode == ExecMode::Functional || planner.is_some();
    // Each batch is seeded independently and each plan depends only on its
    // batch, so both stages fan out; ordered collects keep seed-index order.
    let batches: Vec<SparseBatch> = (0..distinct)
        .into_par_iter()
        .map(|i| {
            if need_indices {
                SparseBatch::generate(&spec, cfg.batch_seed(i))
            } else {
                SparseBatch::generate_counts_only(&spec, cfg.batch_seed(i))
            }
        })
        .collect();
    let plans = (0..batches.len())
        .into_par_iter()
        .map(|i| plan_with_planner(cfg, &batches[i], gpu, planner.as_ref()))
        .collect();
    PreparedBatches {
        batches,
        plans,
        planner,
    }
}

/// The closed loop every backend's `run` drives: plan `cfg`'s distinct
/// batches, execute `cfg.n_batches` of them back to back through `step`
/// (given the batch index, its plan and its start instant, it returns the
/// batch's run and whether the PGAS path served it), and report. In
/// functional mode the final batch's outputs come from the data-movement
/// code of the path that served it.
pub(crate) fn closed_loop(
    machine: &mut Machine,
    cfg: &EmbLayerConfig,
    mode: ExecMode,
    mut step: impl FnMut(&mut Machine, usize, &PlannedBatch, SimTime) -> (BatchRun, bool),
) -> BackendResult {
    assert_eq!(
        machine.n_gpus(),
        cfg.n_gpus,
        "machine/config GPU count mismatch"
    );
    let prepared = prepare_batches(cfg, mode, &machine.spec(0).clone());
    // Per distinct batch, precompute block durations and the all-to-all
    // byte matrix — they do not change across repetitions.
    let planned: Vec<PlannedBatch> = (0..prepared.plans.len())
        .into_par_iter()
        .map(|i| PlannedBatch::new(machine, prepared.plans[i].clone()))
        .collect();
    let mut breakdown = TimeBreakdown::default();
    let mut start = SimTime::ZERO;
    let mut via_pgas = false;
    for batch_idx in 0..cfg.n_batches {
        let pb = &planned[batch_idx % planned.len()];
        let (run, pgas) = step(machine, batch_idx, pb, start);
        breakdown.accumulate(&run.breakdown);
        start = run.end;
        via_pgas = pgas;
    }
    BackendResult {
        report: RunReport {
            batches: cfg.n_batches,
            breakdown,
            total: breakdown.total(),
            traffic: machine.traffic_stats(),
            comm_series: machine.total_traffic(),
        },
        outputs: (mode == ExecMode::Functional)
            .then(|| final_batch_outputs(cfg, &prepared, via_pgas)),
    }
}

/// Final-batch functional outputs of a prepared run — the exact code the
/// closed-loop backends execute in [`ExecMode::Functional`], factored out so
/// executed-schedule frontends (the dlrm pipeline engine) get bit-identical
/// predictions by construction rather than by re-implementation. `via_pgas`
/// selects the PGAS path (arena-buffered pooled rows scattered through the
/// symmetric heap) over the baseline path (exchange + unpack); the two
/// produce bit-equal tensors — the flag exists so each backend keeps
/// exercising its own data-movement code.
pub fn final_batch_outputs(
    cfg: &EmbLayerConfig,
    prepared: &PreparedBatches,
    via_pgas: bool,
) -> Vec<Tensor> {
    let which = (cfg.n_batches.saturating_sub(1)) % prepared.plans.len();
    let plan = &prepared.plans[which];
    let batch = &prepared.batches[which];
    let shards = functional::materialize_shards(plan, cfg.table_spec(), cfg.seed);
    let mut outs = if via_pgas {
        let pooled: Vec<Vec<f32>> = (0..plan.devices.len())
            .into_par_iter()
            .map(|i| {
                let dp = &plan.devices[i];
                let mut buf = crate::arena::take_f32();
                functional::compute_pooled_rows_into(
                    dp,
                    plan,
                    batch,
                    &shards[dp.device],
                    cfg.seed,
                    &mut buf,
                );
                buf
            })
            .collect();
        let outs = functional::scatter_via_symmetric_heap(plan, &pooled);
        for buf in pooled {
            crate::arena::put_f32(buf);
        }
        outs
    } else {
        let pooled: Vec<Vec<f32>> = (0..plan.devices.len())
            .into_par_iter()
            .map(|i| {
                let dp = &plan.devices[i];
                functional::compute_pooled_rows(dp, plan, batch, &shards[dp.device], cfg.seed)
            })
            .collect();
        functional::exchange_and_unpack(plan, &pooled)
    };
    if let Some(cache) = prepared.planner.as_ref().and_then(|p| p.cache()) {
        let replicas = crate::HotReplicas::materialize(cache, cfg.table_spec(), cfg.seed);
        functional::apply_hot_imports(plan, batch, &replicas, cfg.table_rows, &mut outs, cfg.seed);
    }
    outs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IndexDistribution, PoolingOp, Sharding, SparseBatchSpec};

    fn tiny_plan() -> ForwardPlan {
        let b = SparseBatch::generate(
            &SparseBatchSpec {
                batch_size: 8,
                n_features: 2,
                pooling_min: 1,
                pooling_max: 4,
                index_space: 100,
                distribution: IndexDistribution::Uniform,
            },
            1,
        );
        ForwardPlan::build(&b, &Sharding::table_wise_block(2, 2), 8, PoolingOp::Sum, 4)
    }

    #[test]
    fn durations_cover_every_block_and_are_positive() {
        let plan = tiny_plan();
        let spec = GpuSpec::v100();
        for dp in &plan.devices {
            let durs = lookup_block_durations(dp, &plan, &spec);
            assert_eq!(durs.len(), dp.blocks.len());
            assert!(durs.iter().all(|d| !d.is_zero()));
        }
    }

    #[test]
    fn heavier_blocks_take_longer() {
        let plan = tiny_plan();
        let spec = GpuSpec::v100();
        let dp = &plan.devices[0];
        let durs = lookup_block_durations(dp, &plan, &spec);
        for (blk, d) in dp.blocks.iter().zip(&durs) {
            for (blk2, d2) in dp.blocks.iter().zip(&durs) {
                if blk.lookups > blk2.lookups + 8 {
                    assert!(d >= d2, "more lookups should not be faster");
                }
            }
        }
    }

    #[test]
    fn prepare_batches_respects_mode_and_pool_size() {
        let cfg = EmbLayerConfig::paper_weak_scaling(2).scaled_down(512);
        let timing = prepare_batches(&cfg, ExecMode::Timing, &GpuSpec::v100());
        assert_eq!(timing.batches.len(), cfg.distinct_batches);
        assert!(!timing.batches[0].has_indices());
        let f = prepare_batches(&cfg, ExecMode::Functional, &GpuSpec::v100());
        assert!(f.batches[0].has_indices());
        assert_eq!(f.plans.len(), f.batches.len());
    }
}
