//! Functional correctness checks: one reduced-scale batch of each
//! workload's layout, executed for real and compared with the serial
//! references. Each check is one operation in the run's books.

use emb_retrieval::backend::{
    BaselineBackend, ExecMode, PgasFusedBackend, ResilientBackend, RetrievalBackend,
};
use emb_retrieval::backward::{baseline_backward, pgas_backward, reference_backward};
use emb_retrieval::reference::reference_forward;
use emb_retrieval::{EmbLayerConfig, SparseBatch};
use gpusim::{Machine, MachineConfig};
use pgas_rt::{AggregatorConfig, PgasConfig};
use simccl::{Algorithm, CollectiveConfig};
use simtensor::Tensor;

use crate::books::Books;
use crate::workloads::serve_emb_config;

/// Shrink factor of the functional batches (weights are materialized).
const CHECK_SCALE: usize = 256;

/// Tolerance of the backward gradients against the serial reference, as
/// the crate's own backward tests use.
const GRAD_TOL: f32 = 1e-4;

fn tiny(mut cfg: EmbLayerConfig) -> EmbLayerConfig {
    cfg.n_batches = 1;
    cfg.distinct_batches = 1;
    cfg
}

fn bit_equal(a: &[Tensor], b: &[Tensor]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.dims() == y.dims()
                && x.data().len() == y.data().len()
                && x.data()
                    .iter()
                    .zip(y.data())
                    .all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

/// Run `backend` functionally on a fresh machine and compare its outputs
/// bit for bit with the serial reference forward pass.
fn forward_check(
    books: &mut Books,
    what: &str,
    cfg: &EmbLayerConfig,
    machine: impl Fn() -> Machine,
    backend: &dyn RetrievalBackend,
    reference: &[Tensor],
) {
    let mut m = machine();
    let outputs = backend.run(&mut m, cfg, ExecMode::Functional).outputs;
    books.check(
        outputs.as_deref().is_some_and(|o| bit_equal(o, reference)),
        || {
            format!(
                "{what}: {} outputs differ from reference_forward",
                backend.name()
            )
        },
    );
}

/// The checks for `workload` with inputs from `seed`.
pub fn run(workload: &str, seed: u64, books: &mut Books) {
    let (cfg, nodes, per_node) = match workload {
        "pod_observed" => (EmbLayerConfig::paper_weak_scaling(8), 2, 4),
        "serve_skew" => (serve_emb_config(seed), 1, 4),
        _ => (EmbLayerConfig::paper_weak_scaling(4), 1, 4),
    };
    let mut cfg = tiny(cfg.scaled_down(if workload == "serve_skew" {
        CHECK_SCALE / crate::workloads::SERVE_SCALE
    } else {
        CHECK_SCALE
    }));
    cfg.seed = seed;
    let machine = || {
        if nodes == 1 {
            Machine::new(MachineConfig::dgx_v100(per_node))
        } else {
            Machine::new(MachineConfig::pod_v100(nodes, per_node))
        }
    };
    let batch = SparseBatch::generate(&cfg.batch_spec(), cfg.batch_seed(0));
    let reference = reference_forward(&batch, cfg.table_spec(), cfg.pooling, cfg.n_gpus, cfg.seed);

    let (baseline, pgas): (Box<dyn RetrievalBackend>, Box<dyn RetrievalBackend>) = match workload {
        "pod_observed" => (
            Box::new(BaselineBackend {
                collectives: CollectiveConfig::default().with_algorithm(Algorithm::Hierarchical),
            }),
            Box::new(PgasFusedBackend::with_gateway(AggregatorConfig::default())),
        ),
        // Serving executes PGAS batches through the resilient backend.
        "serve_skew" => (
            Box::new(BaselineBackend::new()),
            Box::new(ResilientBackend::new()),
        ),
        _ => (
            Box::new(BaselineBackend::new()),
            Box::new(PgasFusedBackend::new()),
        ),
    };
    forward_check(
        books,
        workload,
        &cfg,
        machine,
        baseline.as_ref(),
        &reference,
    );
    forward_check(books, workload, &cfg, machine, pgas.as_ref(), &reference);

    if workload == "dgx_backward" {
        backward_checks(books, &cfg, &batch);
    }
}

/// Baseline and PGAS gradients must be bit-equal to each other and within
/// [`GRAD_TOL`] of the serial reference.
fn backward_checks(books: &mut Books, cfg: &EmbLayerConfig, batch: &SparseBatch) {
    let machine = || Machine::new(MachineConfig::dgx_v100(cfg.n_gpus));
    let base = baseline_backward(
        &mut machine(),
        cfg,
        &CollectiveConfig::default(),
        ExecMode::Functional,
    )
    .grads;
    let pgas = pgas_backward(
        &mut machine(),
        cfg,
        PgasConfig::default(),
        ExecMode::Functional,
    )
    .grads;
    let (Some(base), Some(pgas)) = (base, pgas) else {
        books.check(false, || {
            "backward: functional mode returned no gradients".into()
        });
        return;
    };
    books.check(
        base.len() == pgas.len() && base.iter().zip(&pgas).all(|(b, p)| bit_equal(b, p)),
        || "backward: baseline and PGAS gradients differ".into(),
    );
    let reference = reference_backward(batch, cfg.table_spec(), cfg.pooling, cfg.seed);
    let sharding = cfg.sharding();
    for (name, grads) in [("baseline", &base), ("pgas", &pgas)] {
        let close = grads.iter().enumerate().all(|(dev, dev_grads)| {
            sharding
                .features_on(dev, cfg.n_features)
                .iter()
                .zip(dev_grads)
                .all(|(&f, g)| g.allclose(&reference[f], GRAD_TOL))
        });
        books.check(close, || {
            format!(
                "backward: {name} gradients differ from reference_backward by more than {GRAD_TOL}"
            )
        });
    }
}
