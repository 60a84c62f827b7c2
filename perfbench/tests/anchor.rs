//! The benchmark drives the same simulation as `reproduce table1`: the
//! `dgx_infer` loop at the paper's length (100 batches, default distinct
//! batches and seed) lands exactly on the committed 4-GPU Table I cell.

use desim::SimTime;
use emb_retrieval::EmbLayerConfig;
use perfbench::books::Books;
use perfbench::trace::Recorder;
use perfbench::workloads::{dgx_infer_spec, ForwardPair, Workload};

/// `(baseline_ms, pgas_ms)` of the `gpus` row of `BENCH_table1.json`, as
/// written there.
fn table1_row(doc: &str, gpus: usize) -> (String, String) {
    let row = doc
        .split('{')
        .find(|r| r.contains(&format!("\"gpus\": {gpus},")))
        .expect("row present");
    let field = |key: &str| {
        let at = row.find(key).expect("field present") + key.len();
        row[at..]
            .split([',', '}'])
            .next()
            .expect("value")
            .trim()
            .to_string()
    };
    (field("\"baseline_ms\":"), field("\"pgas_ms\":"))
}

#[test]
fn dgx_infer_simulates_the_committed_table1_cell() {
    let doc = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../results/BENCH_table1.json"
    ))
    .expect("committed Table I artifact");
    let (baseline_ms, pgas_ms) = table1_row(&doc, 4);

    let cfg = EmbLayerConfig::paper_weak_scaling(4);
    assert_eq!(cfg.n_batches, 100);
    let mut rec = Recorder::new(false);
    let mut w = ForwardPair::setup(dgx_infer_spec(), cfg, &mut rec);
    let mut books = Books::default();
    // The set-up's warm-up calls are batch 0; 99 iterations complete the
    // paper's 100 batches on one pair of machines.
    for _ in 1..100 {
        w.iterate(&mut rec, &mut books);
    }
    assert_eq!(books.failed, 0, "{:#?}", books.failures);
    let (b, p) = w.clocks();
    let ms = |t: SimTime| format!("{:.6}", (t - SimTime::ZERO).as_millis_f64());
    assert_eq!(ms(b), baseline_ms, "baseline total");
    assert_eq!(ms(p), pgas_ms, "PGAS total");
    assert_eq!(baseline_ms, "7141.268400");
    assert_eq!(pgas_ms, "3203.846500");
}
