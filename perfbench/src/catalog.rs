//! Every metric the benchmark reports: name, unit, and the workloads whose
//! layers it measures. `BENCHMARK.json` lists the same names and units, and
//! `perfbench/MAP.md` names each metric's layer and the workloads it should
//! move or leave flat; the self-tests keep all three in step.

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["dgx_infer", "dgx_backward", "pod_observed", "serve_skew"];

/// `BENCHMARK.json`, the one home of each workload's reason for being here.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Why `workload` is in the benchmark: its one-line `why` in
/// `BENCHMARK.json` (empty for a name it does not list).
pub fn why(workload: &str) -> &'static str {
    let key = format!("{{\"name\": \"{workload}\", \"why\": \"");
    BENCHMARK_JSON.find(&key).map_or("", |i| {
        let rest = &BENCHMARK_JSON[i + key.len()..];
        &rest[..rest.find('"').unwrap_or(0)]
    })
}

/// End-to-end metrics (`--trace 0`), printed on every workload.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("sim_bags_per_host_s", "bags/s"),
    ("host_batch_ms.baseline.p90", "ms"),
    ("host_batch_ms.pgas.p90", "ms"),
    ("peak_rss_mb", "MiB"),
    ("sim_batch_ms.baseline", "ms"),
    ("sim_batch_ms.pgas", "ms"),
    ("sim_p50_ms", "ms"),
    ("sim_p99_ms", "ms"),
];

const ALL: &[&str] = &WORKLOADS;
const FORWARD: &[&str] = &["dgx_infer", "pod_observed"];
const PLANNED: &[&str] = &["dgx_infer", "pod_observed", "serve_skew"];
const CLOSED: &[&str] = &["dgx_infer", "dgx_backward", "pod_observed"];
const DGX: &[&str] = &["dgx_infer"];
const BACKWARD: &[&str] = &["dgx_backward"];
const POD: &[&str] = &["pod_observed"];
const OBSERVED: &[&str] = &["pod_observed", "serve_skew"];
const SERVE: &[&str] = &["serve_skew"];

/// Per-layer metrics (`--trace 1`): name, unit, and the workloads that
/// exercise the layer. On the other workloads the layer does no work and
/// the metric reads 0.
pub const PER_LAYER: [(&str, &str, &[&str]); 45] = [
    ("core.plan.host_ms", "ms", PLANNED),
    ("core.cache_planner.host_ms", "ms", PLANNED),
    ("core.planned_batch.host_ms", "ms", PLANNED),
    ("core.exec.host_ms.baseline", "ms", FORWARD),
    ("core.exec.host_ms.pgas", "ms", DGX),
    ("core.exec.host_ms.pgas_gateway", "ms", POD),
    ("core.exec.allocs.baseline", "count", FORWARD),
    ("core.exec.allocs.pgas", "count", DGX),
    ("core.exec.allocs.pgas_gateway", "count", POD),
    ("core.backward.host_ms.baseline", "ms", BACKWARD),
    ("core.backward.host_ms.pgas", "ms", BACKWARD),
    ("core.backward.allocs.baseline", "count", BACKWARD),
    ("core.backward.allocs.pgas", "count", BACKWARD),
    ("gpusim.messages.baseline", "msgs/batch", ALL),
    ("gpusim.messages.pgas", "msgs/batch", ALL),
    ("gpusim.header_overhead.baseline", "fraction", ALL),
    ("gpusim.header_overhead.pgas", "fraction", ALL),
    ("gpusim.host_ns_per_message.baseline", "ns", ALL),
    ("gpusim.host_ns_per_message.pgas", "ns", ALL),
    ("gpusim.nic_busy_share", "fraction", POD),
    ("sim.compute_ms.baseline", "ms", CLOSED),
    ("sim.compute_ms.pgas", "ms", CLOSED),
    ("sim.comm_ms.baseline", "ms", CLOSED),
    ("sim.comm_ms.pgas", "ms", CLOSED),
    ("sim.sync_unpack_ms.baseline", "ms", CLOSED),
    ("sim.sync_unpack_ms.pgas", "ms", CLOSED),
    ("pgas.gateway.inter_node_messages", "msgs/batch", POD),
    ("telemetry.overhead_share", "fraction", OBSERVED),
    ("telemetry.registry_series", "count", OBSERVED),
    ("telemetry.blame_spans_per_batch", "spans/batch", POD),
    ("telemetry.exposed_comm_share.baseline", "fraction", POD),
    ("telemetry.exposed_comm_share.pgas", "fraction", POD),
    ("serve.host_ms_per_batch", "ms", SERVE),
    ("serve.batch_fill", "fraction", SERVE),
    ("serve.shed_share", "fraction", SERVE),
    ("serve.timeout_share", "fraction", SERVE),
    ("serve.controller.ticks", "count", SERVE),
    ("serve.controller.failovers", "count", SERVE),
    ("serve.controller.cache_resizes", "count", SERVE),
    ("serve.hot_hit", "fraction", SERVE),
    ("serve.dedup_ratio", "fraction", SERVE),
    ("serve.sim_goodput", "fraction", SERVE),
    ("serve.sim_goodput_baseline", "fraction", SERVE),
    ("rayon.dispatched_share", "fraction", ALL),
    ("tracing.overhead_share", "fraction", ALL),
];

/// Whether `workload` exercises the layer behind per-layer metric `name`.
pub fn applies(name: &str, workload: &str) -> bool {
    PER_LAYER
        .iter()
        .any(|m| m.0 == name && m.2.contains(&workload))
}
