//! # perfbench — the repository benchmark
//!
//! Runs one of four workloads for a given number of seconds, timing every
//! call into the program's layers from outside through their public APIs,
//! and checks the program's outputs. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` is a separate run of the same workload that keeps
//! host-time spans and reports the per-layer metrics, plus the tracing
//! overhead against an untraced half of the same run. `catalog` names every
//! metric; `perfbench/MAP.md` maps each to its layer and workloads.

#![warn(missing_docs)]

pub mod alloc;
pub mod books;
pub mod catalog;
pub mod checks;
pub mod stats;
pub mod trace;
pub mod workloads;

use std::time::Instant;

use books::{ratio, Books, Tally};
use trace::Recorder;
use workloads::Workload;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 7;

/// What to run.
#[derive(Clone, Debug)]
pub struct Options {
    /// Workload name (see [`catalog::WORKLOADS`]).
    pub workload: String,
    /// Input seed: batches, tables and arrivals all derive from it.
    pub seed: u64,
    /// Length of the timed region in seconds.
    pub seconds: f64,
    /// Keep host-time spans and report per-layer metrics.
    pub trace: bool,
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
    /// Samples behind the value (calls, batches, requests or set-ups).
    pub samples: usize,
    /// Whether the workload exercises the layer (per-layer metrics of idle
    /// layers read 0).
    pub active: bool,
}

/// Everything a run produced.
pub struct Outcome {
    /// Metrics in catalogue order.
    pub metrics: Vec<Metric>,
    /// Operations attempted: measured calls, repetition and conservation
    /// checks, functional checks.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
    /// Run context, one `(key, value)` per line.
    pub context: Vec<(&'static str, String)>,
    /// The span file (traced runs only).
    pub spans_json: Option<String>,
}

/// Host cores visible to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Run `opts` on a thread pool capped at [`nproc`] workers.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    if !catalog::WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!(
            "unknown workload {:?}; expected one of {:?}",
            opts.workload,
            catalog::WORKLOADS
        ));
    }
    let width = nproc();
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(width)
        .build()
        .map_err(|e| format!("thread pool: {e:?}"))?;
    Ok(pool.install(|| run_on_pool(opts, width)))
}

/// One timed region of the closed loop.
struct Region {
    books: Books,
    secs: f64,
    /// Pooled bags per host second of each iteration (the work done
    /// between iterations is not part of it).
    bag_rates: Vec<f64>,
    iterations: u64,
    dispatched_share: f64,
    first_span: usize,
}

/// The run's set-ups: the workload the latest one built, and the host
/// time each took.
struct SetUps<'a> {
    opts: &'a Options,
    w: Option<Box<dyn Workload>>,
    secs: Vec<f64>,
}

impl SetUps<'_> {
    /// Drop the current workload, then build and time a fresh one (so
    /// memory never holds two).
    fn renew(&mut self, rec: &mut Recorder) {
        drop(self.w.take());
        let opts = self.opts;
        let m = rec.call("setup", |rec| {
            workloads::setup(&opts.workload, opts.seed, rec)
        });
        self.w = m.out;
        self.secs.push(m.ns as f64 / 1e9);
    }

    fn workload(&mut self) -> &mut dyn Workload {
        self.w.as_deref_mut().expect("workload name was checked")
    }
}

/// Run iterations for `seconds`. With `spread_setups`, the set-ups still
/// due (up to [`SETUP_REPS`]) are made at evenly spaced points of the
/// region, each between two iterations.
fn timed(s: &mut SetUps, rec: &mut Recorder, seconds: f64, spread_setups: bool) -> Region {
    let mut books = Books::default();
    let first_span = rec.spans().len();
    let p0 = rayon::pool_stats();
    let t0 = Instant::now();
    let mut iterations = 0u64;
    let mut bag_rates = Vec::new();
    let setups_due = |s: &SetUps| spread_setups && s.secs.len() < SETUP_REPS;
    while iterations == 0 || t0.elapsed().as_secs_f64() < seconds || setups_due(s) {
        iterations += 1;
        rec.set_iteration(iterations);
        let at = s.secs.len() as f64 / SETUP_REPS as f64 * seconds;
        if setups_due(s) && t0.elapsed().as_secs_f64() >= at {
            s.renew(rec);
        }
        let w = s.workload();
        w.between(rec);
        let bags = books.baseline.bags + books.pgas.bags;
        let ns = rec.call("iteration", |rec| w.iterate(rec, &mut books)).ns;
        let done = books.baseline.bags + books.pgas.bags - bags;
        bag_rates.push(ratio(done as f64 * 1e9, ns as f64));
    }
    let secs = t0.elapsed().as_secs_f64();
    let p1 = rayon::pool_stats();
    rec.set_iteration(0);
    s.workload().finish(rec);
    let dispatched = (p1.dispatched_runs - p0.dispatched_runs) as f64;
    let inline = (p1.inline_runs - p0.inline_runs) as f64;
    Region {
        books,
        secs,
        bag_rates,
        iterations,
        dispatched_share: ratio(dispatched, dispatched + inline),
        first_span,
    }
}

fn run_on_pool(opts: &Options, width: usize) -> Outcome {
    let mut rec = Recorder::new(opts.trace);
    let mut s = SetUps {
        opts,
        w: None,
        secs: Vec::with_capacity(SETUP_REPS),
    };
    // The end-to-end run makes its first set-up here and spreads the rest
    // through its timed region, so that `setup_s`, like the timed calls,
    // samples the host's slow and fast phases instead of the first second
    // of the process. The traced run makes them all here, where their
    // stage spans give the per-layer set-up metrics.
    for _ in 0..if opts.trace { SETUP_REPS } else { 1 } {
        s.renew(&mut rec);
    }

    rec.set_tracing(false);
    let untraced_secs = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let mut main = timed(&mut s, &mut rec, untraced_secs, !opts.trace);
    let traced = opts.trace.then(|| {
        rec.set_tracing(true);
        let r = timed(&mut s, &mut rec, opts.seconds / 2.0, false);
        rec.set_tracing(false);
        r
    });
    let setup_s = s.secs;
    let mut w = s.w.expect("workload name was checked");
    checks::run(&opts.workload, opts.seed, &mut main.books);

    let mut metrics = Vec::new();
    let mut spans_json = None;
    match &traced {
        None => metrics = end_to_end(w.as_ref(), &main, &setup_s),
        Some(t) => {
            let overhead = w.observer_overhead(&mut rec, &main.books, opts.seconds / 8.0);
            let mut values = per_layer(&rec, t, &main, overhead);
            values.extend(w.layer_values(&t.books));
            for (name, unit, _) in catalog::PER_LAYER {
                let active = catalog::applies(name, &opts.workload);
                let found = values.iter().find(|v| v.0 == name);
                main.books.check(!active || found.is_some(), || {
                    format!("per-layer metric {name} was not measured")
                });
                let (value, samples) = match (active, found) {
                    (true, Some(&(_, v, n))) => (v, n),
                    _ => (0.0, 0),
                };
                metrics.push(Metric {
                    name,
                    unit,
                    value,
                    samples,
                    active,
                });
            }
            let doc = rec.to_json(&opts.workload, opts.seed);
            main.books
                .check(trace::validate_span_file(&doc).is_ok(), || {
                    "span file fails validate_json_doc".into()
                });
            spans_json = Some(doc);
        }
    }
    for m in &metrics {
        main.books.check(m.value.is_finite(), || {
            format!("metric {} is not finite", m.name)
        });
    }

    let region = traced.as_ref().unwrap_or(&main);
    let (iterations, secs) = (region.iterations, region.secs);
    let mut books = main.books;
    if let Some(t) = traced {
        books.attempted += t.books.attempted;
        books.failed += t.books.failed;
        books.failures.extend(t.books.failures);
    }
    let mut context = vec![
        ("workload", opts.workload.clone()),
        ("why", catalog::why(&opts.workload).to_string()),
        ("seed", opts.seed.to_string()),
        ("seconds", opts.seconds.to_string()),
        ("trace", u8::from(opts.trace).to_string()),
        ("pool_width", width.to_string()),
        ("nproc", nproc().to_string()),
        ("driving_threads", "1".to_string()),
        ("rustc", rustc_version()),
        ("git_commit", git_commit()),
        ("setup_reps", SETUP_REPS.to_string()),
        ("timed_iterations", iterations.to_string()),
        ("timed_seconds", format!("{secs:.3}")),
    ];
    context.extend(w.context());
    Outcome {
        metrics,
        attempted: books.attempted,
        failed: books.failed,
        failures: books.failures,
        context,
        spans_json,
    }
}

fn end_to_end(w: &dyn Workload, r: &Region, setup_s: &[f64]) -> Vec<Metric> {
    let b = &r.books;
    let (p50, p99, requests) = w.request_latency_ms(b);
    let q = |t: &Tally, q: f64| stats::quantile(&t.call_ms_per_batch, q);
    let values: [(f64, usize); 9] = [
        (stats::quantile(setup_s, 0.5), setup_s.len()),
        // The rate sustained in 9 of 10 iterations: like the p90 host
        // times, it sits inside the host's slow phases instead of moving
        // with their share of the run.
        (stats::quantile(&r.bag_rates, 0.1), r.bag_rates.len()),
        (q(&b.baseline, 0.9), b.baseline.call_ms_per_batch.len()),
        (q(&b.pgas, 0.9), b.pgas.call_ms_per_batch.len()),
        (peak_rss_mb(), 1),
        (b.baseline.sim_ms_per_batch(), b.baseline.batches as usize),
        (b.pgas.sim_ms_per_batch(), b.pgas.batches as usize),
        (p50, requests),
        (p99, requests),
    ];
    catalog::END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), (value, samples))| Metric {
            name,
            unit,
            value,
            samples,
            active: true,
        })
        .collect()
}

/// Median over set-ups of the summed duration (ms) of the `name` spans
/// directly inside each `setup` span.
fn setup_stage_ms(rec: &Recorder, name: &str) -> (f64, usize) {
    let spans = rec.spans();
    let per_setup: Vec<f64> = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "setup")
        .map(|(i, _)| {
            spans
                .iter()
                .filter(|s| s.parent == Some(i) && s.name == name)
                .map(|s| s.dur_ns() as f64 / 1e6)
                .sum()
        })
        .collect();
    (stats::quantile(&per_setup, 0.5), per_setup.len())
}

/// Median host ms and median allocations of the `name` spans of a region.
fn call_spans(rec: &Recorder, r: &Region, name: &str) -> ((f64, usize), (f64, usize)) {
    let spans: Vec<_> = rec.named(name, r.first_span).collect();
    let ms: Vec<f64> = spans.iter().map(|s| s.dur_ns() as f64 / 1e6).collect();
    let allocs: Vec<f64> = spans.iter().map(|s| s.allocs as f64).collect();
    (
        (stats::quantile(&ms, 0.5), ms.len()),
        (stats::quantile(&allocs, 0.5), allocs.len()),
    )
}

/// Per-layer values every workload measures the same way: set-up stages
/// and executor calls from the traced region's spans, DES and simulated
/// splits from its books.
fn per_layer(
    rec: &Recorder,
    t: &Region,
    untraced: &Region,
    observer_overhead: Option<f64>,
) -> Vec<workloads::LayerValue> {
    let mut v = Vec::new();
    for (metric, span) in [
        ("core.plan.host_ms", "core.plan"),
        ("core.cache_planner.host_ms", "core.cache_planner"),
        ("core.planned_batch.host_ms", "core.planned_batch"),
    ] {
        let (ms, n) = setup_stage_ms(rec, span);
        v.push((metric, ms, n));
    }
    for (layer, scheme, span) in [
        ("core.exec", "baseline", "core.exec.baseline"),
        ("core.exec", "pgas", "core.exec.pgas"),
        ("core.exec", "pgas_gateway", "core.exec.pgas_gateway"),
        ("core.backward", "baseline", "core.backward.baseline"),
        ("core.backward", "pgas", "core.backward.pgas"),
    ] {
        let ((ms, n), (allocs, m)) = call_spans(rec, t, span);
        if n > 0 {
            v.push((layer_name(format!("{layer}.host_ms.{scheme}")), ms, n));
            v.push((layer_name(format!("{layer}.allocs.{scheme}")), allocs, m));
        }
    }
    for (scheme, tally) in [("baseline", &t.books.baseline), ("pgas", &t.books.pgas)] {
        let msgs = tally.traffic.messages as f64;
        let batches = tally.batches as usize;
        v.push((
            layer_name(format!("gpusim.messages.{scheme}")),
            ratio(msgs, tally.batches as f64),
            batches,
        ));
        v.push((
            layer_name(format!("gpusim.header_overhead.{scheme}")),
            tally.traffic.header_overhead(),
            batches,
        ));
        v.push((
            layer_name(format!("gpusim.host_ns_per_message.{scheme}")),
            ratio(tally.host_ns as f64, msgs),
            batches,
        ));
        if tally.breakdown_batches > 0 {
            let per = |d: desim::Dur| ratio(d.as_millis_f64(), tally.breakdown_batches as f64);
            let n = tally.breakdown_batches as usize;
            v.push((
                layer_name(format!("sim.compute_ms.{scheme}")),
                per(tally.breakdown.compute),
                n,
            ));
            v.push((
                layer_name(format!("sim.comm_ms.{scheme}")),
                per(tally.breakdown.communication),
                n,
            ));
            v.push((
                layer_name(format!("sim.sync_unpack_ms.{scheme}")),
                per(tally.breakdown.sync_unpack),
                n,
            ));
        }
    }
    if let Some(share) = observer_overhead {
        v.push(("telemetry.overhead_share", share, 1));
    }
    v.push((
        "rayon.dispatched_share",
        t.dispatched_share,
        t.iterations as usize,
    ));
    let per_batch = |r: &Region| {
        let b = &r.books;
        ratio(
            (b.baseline.host_ns + b.pgas.host_ns) as f64,
            (b.baseline.batches + b.pgas.batches) as f64,
        )
    };
    v.push((
        "tracing.overhead_share",
        ratio(per_batch(t), per_batch(untraced)) - 1.0,
        t.iterations as usize,
    ));
    v
}

/// The catalogue's name for a per-layer metric built at run time.
fn layer_name(s: String) -> &'static str {
    catalog::PER_LAYER
        .iter()
        .find(|m| m.0 == s)
        .map(|m| m.0)
        .unwrap_or_else(|| panic!("{s} is not in the per-layer catalogue"))
}

/// Host memory high-water mark (`VmHWM`) of this process, MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// `rustc --version` of the toolchain on the path.
pub fn rustc_version() -> String {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    command_line(&rustc, &["--version"]).unwrap_or_else(|| "unknown".into())
}

/// Commit of the checkout, if it is a git repository of its own.
pub fn git_commit() -> String {
    command_line("git", &["--git-dir", ".git", "rev-parse", "HEAD"])
        .unwrap_or_else(|| "unknown (not a git checkout)".into())
}

/// The last line of a run's output: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_json(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failed == 0,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

/// A finite f64 as JSON with every digit Rust's shortest round-trip form
/// keeps; non-finite values (already counted as failures) print as 0.
fn json_number(v: f64) -> String {
    if !v.is_finite() {
        return "0".into();
    }
    let s = format!("{v:?}");
    s.strip_suffix(".0").map_or(s.clone(), str::to_string)
}
