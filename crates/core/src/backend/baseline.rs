//! The baseline backend: lookup kernel → `all_to_all_single` → sync+unpack.
//!
//! This is "a typical PyTorch implementation of the EMB layer forward pass,
//! consisting of an EmbeddingBagCollection forward pass followed by the
//! `all_to_all_single` collective call with `async_op` set to true" (paper
//! §IV), with `wait()` called to synchronize, followed by the data
//! rearrangement into the layout the next layer consumes.

use gpusim::Machine;
use simccl::CollectiveConfig;

use crate::backend::single::baseline_batch;
use crate::backend::{closed_loop, BackendResult, ExecMode, RetrievalBackend};
use crate::EmbLayerConfig;

/// Baseline NCCL-style retrieval.
#[derive(Clone, Debug, Default)]
pub struct BaselineBackend {
    /// Collective-call tuning (algorithm, chunking, trigger cost).
    pub collectives: CollectiveConfig,
}

impl BaselineBackend {
    /// Baseline with NCCL-like defaults (direct peer-to-peer, 4 MiB chunks).
    pub fn new() -> Self {
        Self::default()
    }
}

/// Effective throughput of the unpack/rearrangement step in bytes/s. The
/// baseline's received buffer is source-major; turning it into `[mb, S,
/// dim]` is a strided permute done through framework tensor ops (split /
/// cat / transpose), which sustains a small fraction of HBM peak. 26 GB/s
/// is calibrated from the paper's measured sync+unpack phase (DESIGN.md §4).
pub(crate) const UNPACK_BW: f64 = 26e9;

impl RetrievalBackend for BaselineBackend {
    fn name(&self) -> &'static str {
        "baseline"
    }

    fn run(&self, machine: &mut Machine, cfg: &EmbLayerConfig, mode: ExecMode) -> BackendResult {
        closed_loop(machine, cfg, mode, |m, _, pb, start| {
            (baseline_batch(m, &self.collectives, pb, start), false)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpusim::MachineConfig;

    fn tiny_cfg(g: usize) -> EmbLayerConfig {
        let mut c = EmbLayerConfig::paper_weak_scaling(g).scaled_down(512);
        c.n_batches = 3;
        c.distinct_batches = 2;
        c
    }

    #[test]
    fn run_produces_consistent_report() {
        let cfg = tiny_cfg(2);
        let mut m = Machine::new(MachineConfig::dgx_v100(2));
        let res = BaselineBackend::new().run(&mut m, &cfg, ExecMode::Timing);
        let r = &res.report;
        assert_eq!(r.batches, 3);
        assert_eq!(r.total, r.breakdown.total());
        assert!(!r.breakdown.compute.is_zero());
        assert!(!r.breakdown.communication.is_zero());
        assert!(!r.breakdown.sync_unpack.is_zero());
        assert!(r.traffic.payload_bytes > 0);
        assert!(res.outputs.is_none());
    }

    #[test]
    fn single_gpu_has_no_wire_traffic() {
        let cfg = tiny_cfg(1);
        let mut m = Machine::new(MachineConfig::dgx_v100(1));
        let res = BaselineBackend::new().run(&mut m, &cfg, ExecMode::Timing);
        assert_eq!(res.report.traffic.payload_bytes, 0);
        // But compute and sync+unpack still cost time.
        assert!(!res.report.breakdown.compute.is_zero());
        assert!(!res.report.breakdown.sync_unpack.is_zero());
    }

    #[test]
    fn functional_mode_produces_outputs() {
        let cfg = tiny_cfg(2);
        let mut m = Machine::new(MachineConfig::dgx_v100(2));
        let res = BaselineBackend::new().run(&mut m, &cfg, ExecMode::Functional);
        let outs = res.outputs.expect("functional outputs");
        assert_eq!(outs.len(), 2);
        assert_eq!(outs[0].dims(), &[cfg.mb_size(), cfg.n_features * cfg.dim]);
    }

    #[test]
    fn more_batches_cost_proportionally_more() {
        let mut cfg = tiny_cfg(2);
        cfg.distinct_batches = 1;
        let mut m1 = Machine::new(MachineConfig::dgx_v100(2));
        cfg.n_batches = 2;
        let r2 = BaselineBackend::new()
            .run(&mut m1, &cfg, ExecMode::Timing)
            .report;
        let mut m2 = Machine::new(MachineConfig::dgx_v100(2));
        cfg.n_batches = 4;
        let r4 = BaselineBackend::new()
            .run(&mut m2, &cfg, ExecMode::Timing)
            .report;
        let ratio = r4.total.as_secs_f64() / r2.total.as_secs_f64();
        assert!((ratio - 2.0).abs() < 0.05, "ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn gpu_count_mismatch_panics() {
        let cfg = tiny_cfg(2);
        let mut m = Machine::new(MachineConfig::dgx_v100(3));
        let _ = BaselineBackend::new().run(&mut m, &cfg, ExecMode::Timing);
    }
}
