//! The four workloads. Each is built by a set-up function, then driven one
//! closed-loop iteration at a time by the runner. Every call into the
//! program goes through [`Recorder::call`], so it is timed from outside and,
//! in the traced run, recorded as a span.

use desim::{Dur, SimTime};
use emb_retrieval::backend::{
    baseline_batch, pgas_batch, pgas_batch_gateway, plan_with_planner, BatchRun, ExecMode,
    HotCachePlanner, PlannedBatch,
};
use emb_retrieval::backward::{baseline_backward, pgas_backward, BackwardResult};
use emb_retrieval::{EmbLayerConfig, ForwardPlan, IndexDistribution, SparseBatch, TimeBreakdown};
use emb_serve::{
    ControlConfig, Controller, EmbServer, LatencyStats, ServeBackendKind, ServeConfig, ServeReport,
};
use gpusim::{Machine, MachineConfig};
use pgas_rt::{GatewayConfig, PgasConfig};
use rayon::prelude::*;
use simccl::{Algorithm, CollectiveConfig};
use telemetry::causal::BlameVec;

use crate::books::{ratio, traffic_delta, Books, CallRecord};
use crate::stats;
use crate::trace::Recorder;

/// A per-layer value a workload measures itself: name, value, samples.
pub type LayerValue = (&'static str, f64, usize);

/// One workload, set up and ready to iterate.
pub trait Workload {
    /// Run one iteration of the closed loop: one call per scheme.
    fn iterate(&mut self, rec: &mut Recorder, books: &mut Books);

    /// Work due between iterations that is not part of one (e.g. harvest
    /// the observers of machines that have run their batches and replace
    /// them). Called before each iteration, outside its timing.
    fn between(&mut self, _rec: &mut Recorder) {}

    /// Simulated request latency of the PGAS scheme: p50 and p99 in ms, and
    /// the sample count. In the closed loops the one caller's request is a
    /// whole batch, so this is the distribution of PGAS batch times.
    fn request_latency_ms(&self, books: &Books) -> (f64, f64, usize) {
        let s = &books.pgas.sim_batch_ms;
        (stats::quantile(s, 0.50), stats::quantile(s, 0.99), s.len())
    }

    /// Close any open accounting (e.g. harvest the observers of the
    /// machines in use). Called once after each timed region.
    fn finish(&mut self, _rec: &mut Recorder) {}

    /// Per-layer values only this workload can measure.
    fn layer_values(&self, _books: &Books) -> Vec<LayerValue> {
        Vec::new()
    }

    /// Sizing facts printed with the run context.
    fn context(&self) -> Vec<(&'static str, String)>;

    /// Share of executor host time the program's observers cost: rerun the
    /// same calls with observers off for about `seconds`, and compare with
    /// the observed calls in `observed`. `None` when the workload runs with
    /// observers off anyway.
    fn observer_overhead(
        &mut self,
        _rec: &mut Recorder,
        _observed: &Books,
        _seconds: f64,
    ) -> Option<f64> {
        None
    }
}

/// Build workload `name` for input seed `seed`. Returns `None` for an
/// unknown name.
pub fn setup(name: &str, seed: u64, rec: &mut Recorder) -> Option<Box<dyn Workload>> {
    Some(match name {
        "dgx_infer" => Box::new(ForwardPair::setup(
            dgx_infer_spec(),
            dgx_infer_config(seed),
            rec,
        )),
        "dgx_backward" => Box::new(Backward::setup(seed, rec)),
        "pod_observed" => Box::new(ForwardPair::setup(pod_spec(), pod_config(seed), rec)),
        "serve_skew" => Box::new(Serve::setup(seed, rec)),
        _ => return None,
    })
}

/// Pooled bags one batch of `cfg` produces.
fn bags_per_batch(cfg: &EmbLayerConfig) -> u64 {
    (cfg.batch_size * cfg.n_features) as u64
}

// ---------------------------------------------------------------------------
// Forward pairs: dgx_infer and pod_observed.
// ---------------------------------------------------------------------------

/// Shape of a forward-pass workload: topology, collective algorithm, PGAS
/// transport, observers, and how many batches a machine runs before it is
/// replaced by a fresh one.
#[derive(Clone, Copy, Debug)]
pub struct PairSpec {
    /// Nodes in the machine (1 = one DGX box).
    pub nodes: usize,
    /// GPUs per node.
    pub per_node: usize,
    /// Baseline collective algorithm.
    pub algorithm: Algorithm,
    /// Route PGAS stores through the per-node gateway proxy.
    pub gateway: bool,
    /// Telemetry registry and blame span graph on.
    pub observed: bool,
    /// Batches per machine before a fresh one replaces it.
    pub episode: usize,
}

/// `dgx_infer`: the paper's Table I 4-GPU cell.
pub fn dgx_infer_spec() -> PairSpec {
    PairSpec {
        nodes: 1,
        per_node: 4,
        algorithm: Algorithm::Direct,
        gateway: false,
        observed: false,
        // The paper's run length: a Table I cell is 100 batches on one
        // machine.
        episode: 100,
    }
}

/// The paper's weak-scaling configuration on 4 GPUs, inputs from `seed`.
fn dgx_infer_config(seed: u64) -> EmbLayerConfig {
    EmbLayerConfig {
        seed,
        ..EmbLayerConfig::paper_weak_scaling(4)
    }
}

/// Shrink factor of `pod_observed` against the paper's 8-GPU weak config:
/// at full size one observed gateway batch takes about half a second of
/// host time, too few calls for one run.
pub const POD_SCALE: usize = 8;

/// `pod_observed`: a 2×4 pod with the hierarchical alltoall against
/// gateway-aggregated PGAS, telemetry and blame on.
fn pod_spec() -> PairSpec {
    PairSpec {
        nodes: 2,
        per_node: 4,
        algorithm: Algorithm::Hierarchical,
        gateway: true,
        observed: true,
        // Observers grow with simulated time; a fresh machine every few
        // batches keeps memory flat, and each retirement harvests them.
        episode: 8,
    }
}

/// The paper's weak config for 8 GPUs, shrunk by [`POD_SCALE`].
fn pod_config(seed: u64) -> EmbLayerConfig {
    EmbLayerConfig {
        seed,
        ..EmbLayerConfig::paper_weak_scaling(8).scaled_down(POD_SCALE)
    }
}

fn pair_machine(spec: &PairSpec, observed: bool) -> Machine {
    let mut m = if spec.nodes == 1 {
        Machine::new(MachineConfig::dgx_v100(spec.per_node))
    } else {
        Machine::new(MachineConfig::pod_v100(spec.nodes, spec.per_node))
    };
    if observed {
        m.enable_telemetry();
        m.enable_blame();
    }
    m
}

/// One call of `scheme`'s executor on `machine`, starting at `at`.
fn execute(
    spec: &PairSpec,
    scheme: usize,
    machine: &mut Machine,
    pb: &PlannedBatch,
    at: SimTime,
) -> BatchRun {
    match (scheme, spec.gateway) {
        (BASELINE, _) => baseline_batch(
            machine,
            &CollectiveConfig::default().with_algorithm(spec.algorithm),
            pb,
            at,
        ),
        (_, false) => pgas_batch(machine, PgasConfig::default(), pb, at),
        (_, true) => pgas_batch_gateway(machine, GatewayConfig::default(), pb, at),
    }
}

/// One scheme's batch chain on one machine.
struct Chain {
    machine: Machine,
    at: SimTime,
    batches: usize,
}

impl Chain {
    fn new(machine: Machine) -> Self {
        Chain {
            machine,
            at: SimTime::ZERO,
            batches: 0,
        }
    }
}

/// What the observers of retired machines recorded.
#[derive(Default)]
struct Observed {
    registry_series: Vec<f64>,
    blame_spans: u64,
    blame_batches: u64,
    blame: [BlameVec; 2],
    nic_busy_ns: f64,
    nic_window_ns: f64,
    inter_node_messages: u64,
    gateway_batches: u64,
}

/// A forward-pass workload: one baseline and one PGAS call per iteration,
/// each scheme on its own machine, cycling the prepared distinct batches.
pub struct ForwardPair {
    spec: PairSpec,
    cfg: EmbLayerConfig,
    planned: Vec<PlannedBatch>,
    chains: [Chain; 2],
    /// Per scheme, the simulated (service, phase split) of each distinct
    /// batch's first run.
    first: [Vec<Option<(Dur, TimeBreakdown)>>; 2],
    next: usize,
    obs: Observed,
}

const BASELINE: usize = 0;
const PGAS: usize = 1;

impl ForwardPair {
    /// Build machines, generate and plan the distinct batches, and make
    /// the warm-up call of each executor.
    pub fn setup(spec: PairSpec, cfg: EmbLayerConfig, rec: &mut Recorder) -> Self {
        let distinct = cfg.distinct_batches.max(1).min(cfg.n_batches.max(1));
        let machines = rec
            .call("gpusim.machine_new", |_| {
                [
                    pair_machine(&spec, spec.observed),
                    pair_machine(&spec, spec.observed),
                ]
            })
            .out;
        let gpu = machines[0].spec(0).clone();
        let planner = rec
            .call("core.cache_planner", |_| HotCachePlanner::new(&cfg, &gpu))
            .out;
        let need_indices = planner.is_some();
        let batches: Vec<SparseBatch> = rec
            .call("core.plan", |_| {
                (0..distinct)
                    .into_par_iter()
                    .map(|i| {
                        if need_indices {
                            SparseBatch::generate(&cfg.batch_spec(), cfg.batch_seed(i))
                        } else {
                            SparseBatch::generate_counts_only(&cfg.batch_spec(), cfg.batch_seed(i))
                        }
                    })
                    .collect()
            })
            .out;
        let plans: Vec<ForwardPlan> = rec
            .call("core.plan", |_| {
                (0..distinct)
                    .into_par_iter()
                    .map(|i| plan_with_planner(&cfg, &batches[i], &gpu, planner.as_ref()))
                    .collect()
            })
            .out;
        let planned: Vec<PlannedBatch> = rec
            .call("core.planned_batch", |_| {
                plans
                    .into_iter()
                    .map(|p| PlannedBatch::new(&machines[0], p))
                    .collect()
            })
            .out;
        let [mb, mp] = machines;
        let mut pair = ForwardPair {
            spec,
            cfg,
            planned,
            chains: [Chain::new(mb), Chain::new(mp)],
            first: [vec![None; distinct], vec![None; distinct]],
            next: 0,
            obs: Observed::default(),
        };
        // The warm-up calls are batch 0 of the first episode.
        let mut scratch = Books::default();
        pair.step(rec, &mut scratch, BASELINE, "warmup.baseline");
        pair.step(rec, &mut scratch, PGAS, "warmup.pgas");
        pair.next = 1;
        pair
    }

    /// Simulated clock of each chain's current machine: after a fresh
    /// machine's first `n` batches, the simulated total of those batches.
    pub fn clocks(&self) -> (SimTime, SimTime) {
        (self.chains[BASELINE].at, self.chains[PGAS].at)
    }

    fn exec_name(&self, scheme: usize) -> &'static str {
        match (scheme, self.spec.gateway) {
            (BASELINE, _) => "core.exec.baseline",
            (_, false) => "core.exec.pgas",
            (_, true) => "core.exec.pgas_gateway",
        }
    }

    /// Execute the current distinct batch on one scheme's chain.
    fn step(&mut self, rec: &mut Recorder, books: &mut Books, scheme: usize, name: &'static str) {
        let which = self.next % self.planned.len();
        let pb = &self.planned[which];
        let chain = &mut self.chains[scheme];
        let spec = &self.spec;
        let before = chain.machine.traffic_stats();
        let (m, at) = (&mut chain.machine, chain.at);
        let call = rec.call(name, |_| execute(spec, scheme, m, pb, at));
        let run = call.out;
        chain.at = run.end;
        chain.batches += 1;
        let traffic = traffic_delta(before, chain.machine.traffic_stats());
        let got = (run.service(), run.breakdown);
        let first = *self.first[scheme][which].get_or_insert(got);
        books.check(first == got, || {
            format!(
                "{name}: distinct batch {which} simulated {:?}, first repetition {:?}",
                got, first
            )
        });
        let tally = if scheme == BASELINE {
            &mut books.baseline
        } else {
            &mut books.pgas
        };
        tally.record(&CallRecord {
            ns: call.ns,
            batches: 1,
            bags: bags_per_batch(&self.cfg),
            sim_total: run.service(),
            sim_batches: vec![run.service()],
            breakdown: Some(run.breakdown),
            traffic,
        });
    }

    /// Harvest the observers of both machines and replace them with fresh
    /// ones.
    fn retire(&mut self, rec: &mut Recorder) {
        for scheme in [BASELINE, PGAS] {
            let fresh = rec
                .call("gpusim.machine_new", |_| {
                    pair_machine(&self.spec, self.spec.observed)
                })
                .out;
            let old = std::mem::replace(&mut self.chains[scheme], Chain::new(fresh));
            if !self.spec.observed || old.batches == 0 {
                continue;
            }
            let m = &old.machine;
            let snap = rec
                .call("telemetry.snapshot", |_| m.metrics().snapshot())
                .out;
            self.obs.registry_series.push(
                (snap.counters.len()
                    + snap.gauges.len()
                    + snap.histograms.len()
                    + snap.timelines.len()) as f64,
            );
            let busy: f64 = m
                .metrics()
                .timelines_named("nic_busy_ns")
                .map(|(_, ts)| ts.total())
                .sum();
            self.obs.nic_busy_ns += busy;
            self.obs.nic_window_ns +=
                (old.at - SimTime::ZERO).as_ns() as f64 * self.spec.nodes as f64;
            if scheme == PGAS {
                self.obs.inter_node_messages += m.metrics().counter("fabric_tier_messages", 1, 0);
                self.obs.gateway_batches += old.batches as u64;
            }
            if let Some(graph) = m.blame() {
                let total = rec.call("telemetry.blame_total", |_| graph.total()).out;
                self.obs.blame[scheme].accumulate(&total);
                self.obs.blame_spans += graph.spans().len() as u64;
                self.obs.blame_batches += old.batches as u64;
            }
        }
    }
}

impl Workload for ForwardPair {
    fn between(&mut self, rec: &mut Recorder) {
        if self.chains[BASELINE].batches >= self.spec.episode {
            self.retire(rec);
        }
    }

    fn iterate(&mut self, rec: &mut Recorder, books: &mut Books) {
        self.step(rec, books, BASELINE, self.exec_name(BASELINE));
        self.step(rec, books, PGAS, self.exec_name(PGAS));
        self.next += 1;
    }

    fn finish(&mut self, rec: &mut Recorder) {
        self.retire(rec);
    }

    fn context(&self) -> Vec<(&'static str, String)> {
        let c = &self.cfg;
        vec![
            ("gpus", (self.spec.nodes * self.spec.per_node).to_string()),
            ("batch_size", c.batch_size.to_string()),
            ("features", c.n_features.to_string()),
            ("distinct_batches", self.planned.len().to_string()),
            ("batches_per_machine", self.spec.episode.to_string()),
        ]
    }

    fn layer_values(&self, _books: &Books) -> Vec<LayerValue> {
        if !self.spec.observed {
            return Vec::new();
        }
        let o = &self.obs;
        vec![
            (
                "gpusim.nic_busy_share",
                ratio(o.nic_busy_ns, o.nic_window_ns),
                2,
            ),
            (
                "pgas.gateway.inter_node_messages",
                ratio(o.inter_node_messages as f64, o.gateway_batches as f64),
                o.gateway_batches as usize,
            ),
            (
                "telemetry.registry_series",
                stats::quantile(&o.registry_series, 0.5),
                o.registry_series.len(),
            ),
            (
                "telemetry.blame_spans_per_batch",
                ratio(o.blame_spans as f64, o.blame_batches as f64),
                o.blame_batches as usize,
            ),
            (
                "telemetry.exposed_comm_share.baseline",
                o.blame[BASELINE].exposed_comm_share(),
                o.blame_batches as usize / 2,
            ),
            (
                "telemetry.exposed_comm_share.pgas",
                o.blame[PGAS].exposed_comm_share(),
                o.blame_batches as usize / 2,
            ),
        ]
    }

    fn observer_overhead(
        &mut self,
        rec: &mut Recorder,
        observed: &Books,
        seconds: f64,
    ) -> Option<f64> {
        if !self.spec.observed {
            return None;
        }
        let mut machines = [
            pair_machine(&self.spec, false),
            pair_machine(&self.spec, false),
        ];
        let mut at = [SimTime::ZERO; 2];
        let mut off = [Vec::new(), Vec::new()];
        let t0 = std::time::Instant::now();
        let mut i = 0usize;
        while i == 0 || t0.elapsed().as_secs_f64() < seconds {
            if i % self.spec.episode == 0 && i > 0 {
                machines = [
                    pair_machine(&self.spec, false),
                    pair_machine(&self.spec, false),
                ];
                at = [SimTime::ZERO; 2];
            }
            let pb = &self.planned[i % self.planned.len()];
            for scheme in [BASELINE, PGAS] {
                let (m, start) = (&mut machines[scheme], at[scheme]);
                let call = rec.call("observers_off", |_| {
                    execute(&self.spec, scheme, m, pb, start)
                });
                at[scheme] = call.out.end;
                off[scheme].push(call.ns as f64 / 1e6);
            }
            i += 1;
        }
        let on = stats::quantile(&observed.baseline.call_ms_per_batch, 0.5)
            + stats::quantile(&observed.pgas.call_ms_per_batch, 0.5);
        let off = stats::quantile(&off[BASELINE], 0.5) + stats::quantile(&off[PGAS], 0.5);
        Some(1.0 - ratio(off, on))
    }
}

// ---------------------------------------------------------------------------
// dgx_backward.
// ---------------------------------------------------------------------------

/// Shrink factor of `dgx_backward` against the paper's 4-GPU weak config:
/// at full size a baseline+PGAS backward pair takes about 0.3 s of host
/// time, too few calls for one run.
pub const BACKWARD_SCALE: usize = 2;

/// `dgx_backward`: ring-collective against one-sided atomic gradient
/// exchange, one batch per call, on a fresh DGX machine per call.
pub struct Backward {
    /// One config per distinct batch (the backward entry points plan the
    /// batch of `cfg.batch_seed(0)` themselves).
    cfgs: Vec<EmbLayerConfig>,
    next: usize,
    first: [Vec<Option<(Dur, TimeBreakdown)>>; 2],
}

/// The backward workload's config for distinct batch 0.
fn backward_config(seed: u64) -> EmbLayerConfig {
    let mut cfg = EmbLayerConfig::paper_weak_scaling(4).scaled_down(BACKWARD_SCALE);
    cfg.seed = seed;
    cfg.n_batches = 1;
    cfg
}

impl Backward {
    fn setup(seed: u64, rec: &mut Recorder) -> Self {
        let base = backward_config(seed);
        let distinct = base.distinct_batches.max(1);
        // `batch_seed(0)` of config `k` is `batch_seed(k)` of the base
        // config, so the calls cycle the base config's distinct batches.
        let cfgs: Vec<EmbLayerConfig> = (0..distinct)
            .map(|k| EmbLayerConfig {
                seed: seed.wrapping_add(k as u64),
                distinct_batches: 1,
                ..base.clone()
            })
            .collect();
        let mut w = Backward {
            first: [vec![None; distinct], vec![None; distinct]],
            cfgs,
            next: 0,
        };
        let mut scratch = Books::default();
        w.step(rec, &mut scratch, "warmup.baseline", "warmup.pgas");
        w.next = 0;
        w
    }

    fn step(
        &mut self,
        rec: &mut Recorder,
        books: &mut Books,
        base_name: &'static str,
        pgas_name: &'static str,
    ) {
        let which = self.next % self.cfgs.len();
        let cfg = &self.cfgs[which];
        for scheme in [BASELINE, PGAS] {
            let mut m = rec
                .call("gpusim.machine_new", |_| {
                    Machine::new(MachineConfig::dgx_v100(cfg.n_gpus))
                })
                .out;
            let call = if scheme == BASELINE {
                rec.call(base_name, |_| -> BackwardResult {
                    baseline_backward(&mut m, cfg, &CollectiveConfig::default(), ExecMode::Timing)
                })
            } else {
                rec.call(pgas_name, |_| -> BackwardResult {
                    pgas_backward(&mut m, cfg, PgasConfig::default(), ExecMode::Timing)
                })
            };
            let report = &call.out.report;
            let got = (report.total, report.breakdown);
            let first = *self.first[scheme][which].get_or_insert(got);
            books.check(first == got, || {
                format!(
                    "backward scheme {scheme}: batch {which} simulated {got:?}, first {first:?}"
                )
            });
            let tally = if scheme == BASELINE {
                &mut books.baseline
            } else {
                &mut books.pgas
            };
            tally.record(&CallRecord {
                ns: call.ns,
                batches: report.batches as u64,
                bags: bags_per_batch(cfg) * report.batches as u64,
                sim_total: report.total,
                sim_batches: vec![report.per_batch(); report.batches],
                breakdown: Some(report.breakdown),
                traffic: report.traffic,
            });
        }
    }
}

impl Workload for Backward {
    fn iterate(&mut self, rec: &mut Recorder, books: &mut Books) {
        self.step(rec, books, "core.backward.baseline", "core.backward.pgas");
        self.next += 1;
    }

    fn context(&self) -> Vec<(&'static str, String)> {
        let c = &self.cfgs[0];
        vec![
            ("gpus", c.n_gpus.to_string()),
            ("batch_size", c.batch_size.to_string()),
            ("features", c.n_features.to_string()),
            ("distinct_batches", self.cfgs.len().to_string()),
        ]
    }
}

// ---------------------------------------------------------------------------
// serve_skew.
// ---------------------------------------------------------------------------

/// Shrink factor of the serving data: four times `reproduce adapt`'s, so one
/// run makes enough serving calls for a steady 90th percentile.
pub const SERVE_SCALE: usize = 64;
/// Offered Poisson rate as a multiple of the baseline capacity unit (the
/// rate an uncached uniform batch on the baseline path sustains).
pub const SERVE_RATE_X: f64 = 1.5;
/// Full batches' worth of requests per serving call, as in `reproduce
/// serve` and `reproduce adapt` (12 batches per load point or phase).
pub const SERVE_BATCHES: usize = 12;

/// The serving data: DGX 4 at [`SERVE_SCALE`], Zipf(1.0) keys, a hot-row
/// cache of an eighth of each table, dedup on.
pub(crate) fn serve_emb_config(seed: u64) -> EmbLayerConfig {
    let mut emb = EmbLayerConfig::paper_weak_scaling(4).scaled_down(SERVE_SCALE);
    emb.seed = seed;
    emb.n_batches = 1;
    emb.distribution = IndexDistribution::Zipf { exponent: 1.0 };
    emb.hot_cache_rows = (emb.table_rows as u64 / 8).max(1);
    emb.dedup = true;
    // Measured hot-set statistics replace the analytic L2 derating.
    emb.cache_rows_scale = 0.0;
    emb
}

/// What must repeat exactly between two serving runs of the same inputs.
#[derive(Clone, Debug, PartialEq)]
struct ServeSummary {
    served: u64,
    shed: u64,
    timed_out: u64,
    batches: usize,
    end: SimTime,
    within_slo: u64,
    p50: Dur,
    p99: Dur,
}

impl ServeSummary {
    fn of(r: &ServeReport) -> Self {
        ServeSummary {
            served: r.served,
            shed: r.shed,
            timed_out: r.timed_out,
            batches: r.batches,
            end: r.end,
            within_slo: r.served_within_slo,
            p50: r.latency.p50(),
            p99: r.latency.p99(),
        }
    }
}

/// `serve_skew`: open-loop Poisson arrivals on the simulated clock, served
/// by the resilient backend under the adaptive controller (telemetry on),
/// and by the static baseline server at the same rate.
pub struct Serve {
    capacity_qps: f64,
    pgas_cfg: ServeConfig,
    base_cfg: ServeConfig,
    control: ControlConfig,
    hot_hit: f64,
    dedup_ratio: f64,
    first: [Option<ServeSummary>; 2],
    last: [Option<ServeReport>; 2],
    registry_series: Vec<f64>,
}

fn serve_machine(n: usize, telemetry: bool) -> Machine {
    let mut m = Machine::new(MachineConfig::dgx_v100(n));
    if telemetry {
        m.enable_telemetry();
    }
    m
}

impl Serve {
    fn setup(seed: u64, rec: &mut Recorder) -> Self {
        // Yardstick, as `reproduce serve` defines it: the unloaded service
        // time of one canonical uniform batch on each path.
        let mut base = EmbLayerConfig::paper_weak_scaling(4).scaled_down(SERVE_SCALE);
        base.seed = seed;
        base.n_batches = 1;
        let [mut mb, mut mp] = rec
            .call("gpusim.machine_new", |_| {
                [
                    serve_machine(base.n_gpus, false),
                    serve_machine(base.n_gpus, false),
                ]
            })
            .out;
        let gpu = mb.spec(0).clone();
        let plan = rec
            .call("core.plan", |_| {
                let b = SparseBatch::generate_counts_only(&base.batch_spec(), base.batch_seed(0));
                plan_with_planner(&base, &b, &gpu, None)
            })
            .out;
        let pb = rec
            .call("core.planned_batch", |_| PlannedBatch::new(&mb, plan))
            .out;
        let cc = CollectiveConfig::default();
        let baseline_service = rec
            .call("warmup.baseline", |_| {
                baseline_batch(&mut mb, &cc, &pb, SimTime::ZERO)
            })
            .out
            .service();
        let pgas_service = rec
            .call("warmup.pgas", |_| {
                pgas_batch(&mut mp, PgasConfig::default(), &pb, SimTime::ZERO)
            })
            .out
            .service();
        let capacity_qps = base.batch_size as f64 / baseline_service.as_secs_f64();
        let slo = pgas_service * 6u64;

        // The served data's canonical batch: hot-set hit rate and dedup.
        let emb = serve_emb_config(seed);
        let planner = rec
            .call("core.cache_planner", |_| HotCachePlanner::new(&emb, &gpu))
            .out
            .expect("serve_skew enables the hot cache and dedup");
        let plan = rec
            .call("core.plan", |_| {
                let b = SparseBatch::generate(&emb.batch_spec(), emb.batch_seed(0));
                plan_with_planner(&emb, &b, &gpu, Some(&planner))
            })
            .out;
        let (fetches, lookups) = plan
            .devices
            .iter()
            .flat_map(|d| &d.blocks)
            .filter_map(|b| b.cache.as_ref())
            .fold((0u64, 0u64), |(f, l), s| (f + s.hbm_fetches, l + s.lookups));

        let mut pgas_cfg = ServeConfig::new(
            emb.clone(),
            ServeBackendKind::Resilient,
            SERVE_RATE_X * capacity_qps,
            // At any rate of at least one capacity unit a batch fills within
            // one baseline service time, so with that deadline every batch
            // closes full and aligned with the canonical batches, and the
            // server plans it with the hot cache and dedup. `reproduce
            // adapt`'s deadline, half a service time, closes the first batch
            // partial at 1.5x; every later batch is then misaligned and
            // planned uncached from its bag sizes.
            baseline_service,
            SERVE_BATCHES * emb.batch_size,
            seed,
        );
        pgas_cfg.batcher.queue_bound = 8 * pgas_cfg.batcher.max_batch;
        pgas_cfg.batcher.request_timeout = slo * 2u64;
        pgas_cfg.slo = Some(slo);
        let base_cfg = ServeConfig {
            backend: ServeBackendKind::Baseline,
            ..pgas_cfg.clone()
        };
        let mut w = Serve {
            capacity_qps,
            control: ControlConfig::for_slo(slo, &pgas_cfg.batcher),
            pgas_cfg,
            base_cfg,
            hot_hit: plan.measured_hit,
            dedup_ratio: ratio(fetches as f64, lookups as f64),
            first: [None, None],
            last: [None, None],
            registry_series: Vec::new(),
        };
        let mut scratch = Books::default();
        w.step(
            rec,
            &mut scratch,
            "warmup.serve.baseline",
            "warmup.serve.pgas",
        );
        w
    }

    fn step(
        &mut self,
        rec: &mut Recorder,
        books: &mut Books,
        base_name: &'static str,
        pgas_name: &'static str,
    ) {
        for scheme in [PGAS, BASELINE] {
            let scfg = if scheme == PGAS {
                &self.pgas_cfg
            } else {
                &self.base_cfg
            };
            let server = EmbServer::new(scfg.clone());
            let mut ctrl = Controller::new(self.control, &scfg.batcher, scfg.emb.hot_cache_rows);
            let mut m = rec
                .call("gpusim.machine_new", |_| {
                    serve_machine(scfg.emb.n_gpus, scheme == PGAS)
                })
                .out;
            let call = if scheme == PGAS {
                rec.call(pgas_name, |_| server.run_controlled(&mut m, &mut ctrl))
            } else {
                rec.call(base_name, |_| server.run(&mut m))
            };
            let rep = match call.out {
                Ok(r) => r,
                Err(e) => {
                    books.check(false, || format!("serve scheme {scheme}: {e}"));
                    continue;
                }
            };
            books.check(
                rep.generated == rep.served + rep.shed + rep.timed_out + rep.malformed,
                || format!("serve scheme {scheme}: requests not conserved: {rep:?}"),
            );
            let got = ServeSummary::of(&rep);
            let first = self.first[scheme].get_or_insert_with(|| got.clone());
            books.check(*first == got, || {
                format!("serve scheme {scheme}: run {got:?} differs from first {first:?}")
            });
            if let Some(s) = &rep.metrics {
                self.registry_series.push(
                    (s.counters.len() + s.gauges.len() + s.histograms.len() + s.timelines.len())
                        as f64,
                );
            }
            let tally = if scheme == BASELINE {
                &mut books.baseline
            } else {
                &mut books.pgas
            };
            tally.record(&CallRecord {
                ns: call.ns,
                batches: rep.batches as u64,
                bags: rep.served * scfg.emb.n_features as u64,
                sim_total: rep.batch_service.mean() * rep.batches as u64,
                sim_batches: Vec::new(),
                breakdown: None,
                traffic: m.traffic_stats(),
            });
            self.last[scheme] = Some(rep);
        }
    }
}

/// Nearest-rank quantile `q` of request latency over all `generated`
/// requests of a run that ended at `end`, of which `latency` holds the
/// served ones. The rest (shed, timed out, malformed) are misses: a miss
/// never completes, so it reads as the run's whole simulated length, a
/// latency no served request can beat, and more misses can only make the
/// quantile worse.
fn latency_with_misses(latency: &LatencyStats, generated: u64, end: SimTime, q: f64) -> Dur {
    let served = latency.len();
    let total = (generated as usize).max(1);
    let idx = ((total - 1) as f64 * q).round() as usize;
    if idx >= served {
        return end - SimTime::ZERO;
    }
    if served == 1 {
        return latency.quantile(0.0);
    }
    latency.quantile(idx as f64 / (served - 1) as f64)
}

impl Workload for Serve {
    fn iterate(&mut self, rec: &mut Recorder, books: &mut Books) {
        self.step(rec, books, "serve.run.baseline", "serve.run_controlled");
    }

    fn context(&self) -> Vec<(&'static str, String)> {
        let c = &self.pgas_cfg;
        vec![
            ("gpus", c.emb.n_gpus.to_string()),
            ("batch_size", c.emb.batch_size.to_string()),
            ("features", c.emb.n_features.to_string()),
            ("capacity_unit_qps", format!("{:.0}", self.capacity_qps)),
            ("offered_qps", format!("{:.0}", c.process.mean_rate())),
            ("requests_per_call", c.n_requests.to_string()),
            (
                "slo_ms",
                format!("{:.6}", c.slo.map_or(0.0, Dur::as_millis_f64)),
            ),
        ]
    }

    fn request_latency_ms(&self, _books: &Books) -> (f64, f64, usize) {
        let Some(r) = &self.last[PGAS] else {
            return (0.0, 0.0, 0);
        };
        let ms = |q| latency_with_misses(&r.latency, r.generated, r.end, q).as_millis_f64();
        (ms(0.50), ms(0.99), r.generated as usize)
    }

    fn layer_values(&self, books: &Books) -> Vec<LayerValue> {
        let (Some(p), Some(b)) = (&self.last[PGAS], &self.last[BASELINE]) else {
            return Vec::new();
        };
        let g = p.generated as f64;
        let control = p.control.unwrap_or_default();
        vec![
            (
                "serve.host_ms_per_batch",
                ratio(books.pgas.host_ns as f64 / 1e6, books.pgas.batches as f64),
                books.pgas.batches as usize,
            ),
            ("serve.batch_fill", p.mean_batch_fill, p.batches),
            (
                "serve.shed_share",
                ratio(p.shed as f64, g),
                p.generated as usize,
            ),
            (
                "serve.timeout_share",
                ratio(p.timed_out as f64, g),
                p.generated as usize,
            ),
            ("serve.controller.ticks", control.ticks as f64, 1),
            ("serve.controller.failovers", control.failovers as f64, 1),
            (
                "serve.controller.cache_resizes",
                control.cache_resizes as f64,
                1,
            ),
            ("serve.hot_hit", self.hot_hit, 1),
            ("serve.dedup_ratio", self.dedup_ratio, 1),
            (
                "serve.sim_goodput",
                ratio(p.served_within_slo as f64, g),
                p.generated as usize,
            ),
            (
                "serve.sim_goodput_baseline",
                ratio(b.served_within_slo as f64, b.generated as f64),
                b.generated as usize,
            ),
            (
                "telemetry.registry_series",
                stats::quantile(&self.registry_series, 0.5),
                self.registry_series.len(),
            ),
        ]
    }

    fn observer_overhead(
        &mut self,
        rec: &mut Recorder,
        observed: &Books,
        seconds: f64,
    ) -> Option<f64> {
        let server = EmbServer::new(self.pgas_cfg.clone());
        let mut off = Vec::new();
        let t0 = std::time::Instant::now();
        while off.is_empty() || t0.elapsed().as_secs_f64() < seconds {
            let mut ctrl = Controller::new(
                self.control,
                &self.pgas_cfg.batcher,
                self.pgas_cfg.emb.hot_cache_rows,
            );
            let mut m = serve_machine(self.pgas_cfg.emb.n_gpus, false);
            let call = rec.call("observers_off", |_| {
                server.run_controlled(&mut m, &mut ctrl)
            });
            let batches = call.out.map_or(1, |r| r.batches.max(1));
            off.push(call.ns as f64 / 1e6 / batches as f64);
        }
        let on = stats::quantile(&observed.pgas.call_ms_per_batch, 0.5);
        Some(1.0 - ratio(stats::quantile(&off, 0.5), on))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_quantile_on_a_miss_reads_as_the_whole_run() {
        let mut served = LatencyStats::new();
        for us in 1..=98 {
            served.record(Dur::from_us(us));
        }
        let end = SimTime::ZERO + Dur::from_us(500);
        // 100 requests, 2 missed: the p50 is served, the p99 is a miss.
        assert_eq!(
            latency_with_misses(&served, 100, end, 0.5),
            Dur::from_us(51)
        );
        assert_eq!(
            latency_with_misses(&served, 100, end, 0.99),
            Dur::from_us(500)
        );
        // Nothing missed: the p99 is the 99th-ranked served request.
        served.record(Dur::from_us(99));
        served.record(Dur::from_us(100));
        assert_eq!(
            latency_with_misses(&served, 100, end, 0.99),
            Dur::from_us(99)
        );
    }
}
