//! Per-batch execution surface: run *one* batch of either scheme at an
//! arbitrary start instant.
//!
//! Each scheme has exactly one executor: [`baseline_exec`] (parameterized
//! by the [`CollectiveConfig`]) and [`pgas_exec`] (parameterized by its
//! [`Transport`]). Both take the per-batch part of a [`ResiliencePolicy`]
//! (deadline and device fill; the default policy is a clean, strict batch)
//! and an [`Observer`], and always drive the fault-aware fabric APIs, which
//! are bit-identical to the infallible ones on a clean fabric. Every
//! public entry point — the plain and `*_logged` functions here, the
//! resilient backend's batches, the closed-loop backends — is a thin call
//! into one of the two, so a batch of identical composition costs
//! identical simulated time whether it was replayed in a closed loop,
//! served degradably, or assembled from queued requests — which is what
//! lets serving latencies be compared against the paper's Table I timings
//! directly.

use desim::{Dur, SimTime};
use gpusim::Machine;
use pgas_rt::{GatewayConfig, GatewayPut, OneSided, PgasConfig};
use rayon::prelude::*;
use simccl::{try_all_to_all_timed, CollectiveConfig};
use telemetry::causal::{BlameCategory, Lane};

use crate::arena;
use crate::backend::baseline::UNPACK_BW;
use crate::backend::lookup_block_durations;
use crate::backend::pgas::stream_releases_into;
use crate::backend::{DegradedFill, ResiliencePolicy, ResilienceReport};
use crate::{DevicePlan, ForwardPlan, TimeBreakdown};

/// A batch plus everything precomputed for executing it on a machine:
/// per-device block durations and the all-to-all byte matrix. Build once,
/// execute many times (the closed loop cycles a small pool of these).
#[derive(Clone, Debug)]
pub struct PlannedBatch {
    plan: ForwardPlan,
    /// Per-device lookup-kernel block durations, indexed `[device][block]`.
    durations: Vec<Vec<Dur>>,
    /// All-to-all payload bytes, indexed `[src][dst]`.
    byte_matrix: Vec<Vec<u64>>,
}

impl PlannedBatch {
    /// Precompute execution state for `plan` on `machine`'s GPUs. The
    /// per-device duration and byte rows are independent, so both tables
    /// build in parallel (ordered collect keeps `[device]` indexing).
    pub fn new(machine: &Machine, plan: ForwardPlan) -> Self {
        let n = plan.n_devices;
        let row_bytes = plan.row_bytes() as u64;
        let specs: Vec<_> = plan
            .devices
            .iter()
            .map(|dp| machine.spec(dp.device))
            .collect();
        let durations = (0..plan.devices.len())
            .into_par_iter()
            .map(|i| lookup_block_durations(&plan.devices[i], &plan, specs[i]))
            .collect();
        let byte_matrix = (0..plan.devices.len())
            .into_par_iter()
            .map(|i| {
                let dp = &plan.devices[i];
                (0..n).map(|g| dp.rows_to(g) * row_bytes).collect()
            })
            .collect();
        PlannedBatch {
            plan,
            durations,
            byte_matrix,
        }
    }

    /// The underlying forward plan.
    pub fn plan(&self) -> &ForwardPlan {
        &self.plan
    }

    /// Per-device lookup-kernel block durations (`[device][block]`).
    pub fn durations(&self) -> &[Vec<Dur>] {
        &self.durations
    }

    /// All-to-all payload byte matrix (`[src][dst]`).
    pub fn byte_matrix(&self) -> &[Vec<u64>] {
        &self.byte_matrix
    }

    /// Pooled output rows this batch serves (over all devices and features).
    pub fn total_rows(&self) -> u64 {
        self.plan
            .mb_sizes
            .iter()
            .map(|&m| (m * self.plan.n_features) as u64)
            .sum()
    }
}

/// Per-destination arrival schedule of one batch's pooled output rows —
/// the release stream the paper's fused emission makes visible to
/// consumers, exposed so an executed pipeline schedule can gate downstream
/// (interaction/MLP) chunks on actual data availability.
///
/// Semantics per backend:
/// - **PGAS** ([`pgas_batch_logged`]): one entry per one-sided put at its
///   wire-delivery instant, plus local rows at their producing block's
///   retirement and hot-cache import blocks at theirs — rows become
///   consumable *before* the quiet/barrier tail, which is exactly the
///   overlap the fused schedule converts into end-to-end speedup. (The
///   gateway transport logs only local rows: a staged store has no
///   per-put delivery instant.)
/// - **Baseline** ([`baseline_batch_logged`]): a single entry per device at
///   its post-unpack stream-sync — the bulk-synchronous collective releases
///   everything at once.
///
/// Observation only: the logged variants are bit-identical in timing and
/// traffic to their plain counterparts.
#[derive(Clone, Debug, Default)]
pub struct ArrivalLog {
    /// `arrivals[dst]` = `(instant, rows)` entries, sorted by instant after
    /// [`ArrivalLog::finish`].
    arrivals: Vec<Vec<(SimTime, u64)>>,
}

impl ArrivalLog {
    /// An empty log; sized on first use by a logged batch function.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clear and size for `n` destination devices.
    fn reset(&mut self, n: usize) {
        self.arrivals.iter_mut().for_each(Vec::clear);
        self.arrivals.resize(n, Vec::new());
    }

    fn push(&mut self, dst: usize, at: SimTime, rows: u64) {
        if rows > 0 {
            self.arrivals[dst].push((at, rows));
        }
    }

    /// Sort each destination's entries into arrival order.
    fn finish(&mut self) {
        for a in &mut self.arrivals {
            a.sort_unstable();
        }
    }

    /// Number of destination devices covered.
    pub fn n_devices(&self) -> usize {
        self.arrivals.len()
    }

    /// The sorted `(instant, rows)` arrivals into `dst`.
    pub fn arrivals(&self, dst: usize) -> &[(SimTime, u64)] {
        &self.arrivals[dst]
    }

    /// Total pooled rows delivered to `dst`.
    pub fn total_rows(&self, dst: usize) -> u64 {
        self.arrivals[dst].iter().map(|&(_, r)| r).sum()
    }

    /// Instant the last row lands on `dst` ([`SimTime::ZERO`] if none).
    pub fn last(&self, dst: usize) -> SimTime {
        self.arrivals[dst].last().map_or(SimTime::ZERO, |&(t, _)| t)
    }

    /// Earliest instant at which at least `frac` (of 1.0) of `dst`'s rows
    /// have arrived — the gate for the chunk of downstream work that reads
    /// that span of the output. `frac >= 1.0` returns the last arrival;
    /// an empty destination returns [`SimTime::ZERO`].
    pub fn ready_at_fraction(&self, dst: usize, frac: f64) -> SimTime {
        let total = self.total_rows(dst);
        if total == 0 {
            return SimTime::ZERO;
        }
        let target = ((frac * total as f64).ceil() as u64).clamp(1, total);
        let mut cum = 0u64;
        for &(t, r) in &self.arrivals[dst] {
            cum += r;
            if cum >= target {
                return t;
            }
        }
        self.last(dst)
    }
}

/// Timing of one executed batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchRun {
    /// Instant execution began (the batch's admission to the machine).
    pub start: SimTime,
    /// Instant every device finished (barrier-synchronized).
    pub end: SimTime,
    /// This batch's compute / communication / sync+unpack split.
    pub breakdown: TimeBreakdown,
}

impl BatchRun {
    /// Wall time the batch occupied the machine.
    pub fn service(&self) -> Dur {
        self.end - self.start
    }
}

/// Execute one batch on the baseline collective path: lookup kernels →
/// `all_to_all_single` → per-device wait + unpack kernel → barrier.
pub fn baseline_batch(
    machine: &mut Machine,
    collectives: &CollectiveConfig,
    pb: &PlannedBatch,
    start: SimTime,
) -> BatchRun {
    let obs = Observer::plain(BACKEND_BASELINE, None);
    baseline_exec(machine, collectives, pb, start, &STRICT, obs)
}

/// [`baseline_batch`] recording the per-device output-availability schedule
/// into `log` (reset to this batch). Timing and traffic are bit-identical
/// to the plain function — the log is pure observation.
pub fn baseline_batch_logged(
    machine: &mut Machine,
    collectives: &CollectiveConfig,
    pb: &PlannedBatch,
    start: SimTime,
    log: &mut ArrivalLog,
) -> BatchRun {
    let obs = Observer::plain(BACKEND_BASELINE, Some(log));
    baseline_exec(machine, collectives, pb, start, &STRICT, obs)
}

/// Execute one batch on the PGAS fused path: per-device fused kernels whose
/// one-sided stores stream onto the wire as blocks retire, a `quiet` per
/// PE, a barrier over quiets, one stream sync.
pub fn pgas_batch(
    machine: &mut Machine,
    pgas: PgasConfig,
    pb: &PlannedBatch,
    start: SimTime,
) -> BatchRun {
    let obs = Observer::plain(BACKEND_PGAS, None);
    pgas_exec(machine, Transport::Flat(pgas), pb, start, &STRICT, obs)
}

/// [`pgas_batch`] recording the fused-emission arrival schedule into `log`
/// (reset to this batch): every one-sided put at its wire-delivery instant,
/// local and import rows at their producing block's retirement. Timing and
/// traffic are bit-identical to the plain function.
pub fn pgas_batch_logged(
    machine: &mut Machine,
    pgas: PgasConfig,
    pb: &PlannedBatch,
    start: SimTime,
    log: &mut ArrivalLog,
) -> BatchRun {
    let obs = Observer::plain(BACKEND_PGAS, Some(log));
    pgas_exec(machine, Transport::Flat(pgas), pb, start, &STRICT, obs)
}

/// Execute one batch on the PGAS fused path with **gateway aggregation** of
/// cross-node stores: same fused-emission schedule as [`pgas_batch`], but
/// one-sided puts route through a [`GatewayPut`] proxy that coalesces rows
/// bound for remote nodes into one aggregate message per destination node
/// (flushed on size/age), scattered intra-node by the destination gateway.
/// On a single-node topology every put bypasses the proxy, so this is
/// bit-identical to [`pgas_batch`].
pub fn pgas_batch_gateway(
    machine: &mut Machine,
    cfg: GatewayConfig,
    pb: &PlannedBatch,
    start: SimTime,
) -> BatchRun {
    let obs = Observer::plain(BACKEND_PGAS, None);
    pgas_exec(machine, Transport::Gateway(cfg), pb, start, &STRICT, obs)
}

/// The per-batch policy of a plain batch: no deadline, no device fill.
const STRICT: ResiliencePolicy = ResiliencePolicy {
    failover_flaps: 0,
    batch_deadline: None,
    fill: DegradedFill::Zeros,
    baseline_only: false,
    device_fill: false,
};

/// Telemetry backend ids used as the `i` label of per-batch metrics.
pub const BACKEND_BASELINE: u32 = 0;
/// PGAS fused backend id.
pub const BACKEND_PGAS: u32 = 1;
/// Resilient (fallible, degradable) backend id.
pub const BACKEND_RESILIENT: u32 = 2;

/// What one executed batch reports besides its timing.
pub(crate) struct Observer<'a> {
    /// Output-availability schedule to record (reset to this batch).
    pub log: Option<&'a mut ArrivalLog>,
    /// Degradation books: the run's report and this batch's per-destination
    /// rows served from the fill. `None` leaves degradation uncounted.
    pub books: Option<(&'a mut ResilienceReport, &'a mut [u64])>,
    /// Telemetry backend id labelling the per-batch metrics.
    pub backend: u32,
}

impl<'a> Observer<'a> {
    /// An observer without degradation books.
    pub fn plain(backend: u32, log: Option<&'a mut ArrivalLog>) -> Self {
        Observer {
            log,
            books: None,
            backend,
        }
    }

    fn report(&mut self) -> Option<&mut ResilienceReport> {
        self.books.as_mut().map(|(rep, _)| &mut **rep)
    }

    /// Count `rows` bound for `dst` as served from the fill.
    fn degrade(&mut self, dst: usize, rows: u64) {
        if let Some((rep, degraded)) = &mut self.books {
            rep.degraded_rows += rows;
            degraded[dst] += rows;
        }
    }

    /// When `dp`'s kernel can start: `start`, or — if its device is lost
    /// at `start` — its recovery, since without device fill the lost shard
    /// is simply unavailable and the whole batch waits out the outage.
    /// Under `policy.device_fill` the lost device's rows are served at once
    /// instead (the fraction resident in other devices' hot-cache replicas
    /// from those, the rest from the fill) and `None` says to skip it.
    /// Sets `lost` when the device is lost.
    fn kernel_start(
        &mut self,
        machine: &Machine,
        dp: &DevicePlan,
        plan: &ForwardPlan,
        start: SimTime,
        policy: &ResiliencePolicy,
        lost: &mut bool,
    ) -> Option<SimTime> {
        let up_at = machine.device_down_until(dp.device, start);
        *lost |= up_at.is_some();
        if up_at.is_none() || !policy.device_fill {
            return Some(up_at.unwrap_or(start));
        }
        if let Some((rep, degraded)) = &mut self.books {
            for (g, deg) in degraded.iter_mut().enumerate() {
                let rows = dp.rows_to(g);
                let replica = (rows as f64 * plan.measured_hit) as u64;
                rep.replica_rows += replica;
                rep.degraded_rows += rows - replica;
                *deg += rows - replica;
            }
        }
        None
    }

    /// Close the batch's books: whether it saw a lost device and whether
    /// it missed its deadline.
    fn count_batch(&mut self, lost: bool, missed: bool) {
        if let Some((rep, _)) = &mut self.books {
            rep.device_loss_batches += usize::from(lost);
            rep.deadline_missed_batches += usize::from(missed);
        }
    }
}

/// The PGAS fused path's put transport.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Transport {
    /// Every store straight onto the wire through [`OneSided`], issued
    /// device by device: a kernel, its puts, its quiet, then the next.
    Flat(PgasConfig),
    /// Cross-node stores aggregated through [`GatewayPut`] proxies, issued
    /// once every kernel has run in global `(ready, src, dst)` order.
    /// Infallible: the proxy has no fault-aware API.
    Gateway(GatewayConfig),
}

/// The one baseline executor: lookup kernels → fault-aware all-to-all →
/// per-device wait (against the policy deadline) + unpack kernel → barrier.
///
/// A device lost at `start` delays its kernel to its recovery, or under
/// `policy.device_fill` is served at once from replicas + fill and sends
/// and receives nothing. A device whose inbound wait misses the deadline
/// serves every remote row from the fill; a collective that exhausts its
/// retries does so for every device.
pub(crate) fn baseline_exec(
    machine: &mut Machine,
    collectives: &CollectiveConfig,
    pb: &PlannedBatch,
    start: SimTime,
    policy: &ResiliencePolicy,
    mut obs: Observer,
) -> BatchRun {
    let plan = pb.plan();
    let n = plan.n_devices;
    let row_bytes = plan.row_bytes() as u64;
    let deadline = policy.batch_deadline.map_or(SimTime::MAX, |d| start + d);

    // --- Phase 1: lookup kernels, one per device, concurrent. ---
    // Per-batch scratch (kernel-end, collective-end, batch-end instants)
    // comes from the batch arena: serving loops execute this function per
    // micro-batch, and warm slabs make it allocation-free.
    let mut k_end = arena::take_time();
    k_end.resize(n, start);
    let mut skipped = arena::take_bool();
    skipped.resize(n, false);
    let mut any_lost = false;
    // Per-device post-sync blame span ids; the latest-finishing device's
    // span is the batch's critical-path terminal.
    let mut sync_spans: Vec<Option<usize>> = Vec::new();
    if let Some(b) = machine.blame_mut() {
        b.set_kind(BlameCategory::GatherPool);
        b.set_cause(None);
        sync_spans.resize(n, None);
    }
    for dp in &plan.devices {
        let Some(kernel_start) = obs.kernel_start(machine, dp, plan, start, policy, &mut any_lost)
        else {
            // A served lost device sends and receives nothing.
            skipped[dp.device] = true;
            continue;
        };
        let run = machine.run_kernel_varied(dp.device, &pb.durations()[dp.device], kernel_start);
        k_end[dp.device] = run.interval.end;
        // Data the collective emits from this device was produced by its
        // lookup kernel: anchor wire-span causes on it.
        let last = machine.blame_last_span();
        if let Some(b) = machine.blame_mut() {
            b.set_device_cause(dp.device as u32, last);
        }
    }
    let k_max = machine.barrier(&k_end);
    // Rows destined to `d` from producers that actually transmitted this
    // batch (lost devices' rows were already accounted above).
    let remote_rows = |d: usize| -> u64 {
        plan.devices
            .iter()
            .filter(|dp| dp.device != d && !skipped[dp.device])
            .map(|dp| dp.rows_to(d))
            .sum()
    };
    // A lost device neither sends nor receives: zero its outbound byte row
    // and every producer's column to it, so the collective never models
    // traffic touching the dead device (its completion time would otherwise
    // leak into the barrier no live device waits on).
    let bytes_owned: Vec<Vec<u64>>;
    let bytes = if skipped.contains(&true) {
        let mut b = pb.byte_matrix().to_vec();
        for (d, _) in skipped.iter().enumerate().filter(|&(_, &s)| s) {
            b[d].fill(0);
            b.iter_mut().for_each(|row| row[d] = 0);
        }
        bytes_owned = b;
        &bytes_owned
    } else {
        pb.byte_matrix()
    };

    // --- Phase 2: all_to_all_single(async_op=True). ---
    let mut end = arena::take_time();
    end.resize(n, start);
    let mut missed = false;
    let c_max = match try_all_to_all_timed(machine, collectives, bytes, &k_end) {
        Ok(work) => {
            if let Some(rep) = obs.report() {
                rep.retries += work.retries();
            }
            let mut c_end = arena::take_time();
            c_end.extend((0..n).map(|d| work.done_at(d)));
            let c_max = machine.barrier(&c_end).max(k_max);
            arena::put_time(c_end);

            // --- Phase 3: wait() + unpack kernel. ---
            for d in (0..n).filter(|&d| !skipped[d]) {
                let Ok(waited) = work.wait_deadline(machine, d, k_end[d], deadline) else {
                    // Serve the fill for everything remote; no unpack of
                    // data that never arrived.
                    missed = true;
                    obs.degrade(d, remote_rows(d));
                    end[d] = machine.stream_sync(d, deadline);
                    continue;
                };
                if let Some(b) = machine.blame_mut() {
                    // The unpack kernel waits on the last transfer landing
                    // on d (its own kernel when nothing crossed the wire).
                    b.set_kind(BlameCategory::Unpack);
                    let cause = b
                        .last_inbound(d as u32)
                        .or_else(|| b.device_cause(d as u32));
                    b.set_cause(cause);
                }
                // Rearrangement touches every *received* byte twice (read
                // source-major, write [mb, S, dim]); the local chunk was
                // already written in place by the lookup kernel.
                // `unpack_rows` equals `mb_sizes[d] × remote_features` on
                // plain plans and subtracts cache-exported and
                // dedup-collapsed rows on annotated ones.
                let unpack_bytes = 2 * plan.unpack_rows(d) * row_bytes;
                let dur = Dur::from_secs_f64(unpack_bytes as f64 / UNPACK_BW);
                let run = machine.run_kernel_varied(d, &[dur], waited);
                end[d] = machine.stream_sync(d, run.interval.end);
                let unpack_span = machine.blame_last_span();
                if let Some(b) = machine.blame_mut() {
                    sync_spans[d] = Some(b.record(
                        BlameCategory::Sync,
                        Lane::Gpu(d as u32),
                        run.interval.end,
                        run.interval.end,
                        end[d],
                        unpack_span,
                        false,
                    ));
                }
            }
            Some(c_max)
        }
        Err(e) => {
            // The collective itself exhausted its retries: this batch's
            // remote rows are all served from the fill.
            for d in 0..n {
                obs.degrade(d, remote_rows(d));
                end[d] = machine.stream_sync(d, k_end[d].max(e.observed_at()));
            }
            None
        }
    };
    obs.count_batch(any_lost, missed);
    if let Some(l) = obs.log {
        // Bulk-synchronous release: every pooled row of d's output becomes
        // consumable at once, after wait + unpack + sync.
        l.reset(n);
        for (d, &at) in end.iter().enumerate() {
            l.push(d, at, (plan.mb_sizes[d] * plan.n_features) as u64);
        }
    }
    let batch_end = machine.barrier(&end);
    if machine.blame_enabled() {
        let term = (0..n).max_by_key(|&d| end[d]).and_then(|d| sync_spans[d]);
        if let Some(b) = machine.blame_mut() {
            b.end_batch(start, batch_end, term);
        }
    }
    arena::put_time(end);
    arena::put_bool(skipped);
    arena::put_time(k_end);

    let (communication, sync_unpack) = match c_max {
        // `batch_end` can land before `c_max` when every live device hit
        // its deadline (or was skipped) while some transfer was in flight.
        Some(c_max) => (c_max - k_max, batch_end.max(c_max) - c_max),
        None => (batch_end - k_max, Dur::ZERO),
    };
    let run = BatchRun {
        start,
        end: batch_end,
        breakdown: TimeBreakdown {
            compute: k_max - start,
            communication,
            sync_unpack,
        },
    };
    record_batch_metrics(machine, obs.backend, &run);
    run
}

/// Telemetry: per-batch phase breakdown and service-time histogram,
/// labelled by backend id. For the baseline, `lookup` covers lookup+pack
/// (one fused kernel) and `sync_unpack` covers wait+unpack+pool; for the
/// PGAS path pack/pool are fused into the kernel and the tail is the
/// quiet/barrier drain. No-op when the registry is disabled.
pub fn record_batch_metrics(machine: &mut Machine, backend: u32, run: &BatchRun) {
    let m = machine.metrics_mut();
    if !m.is_enabled() {
        return;
    }
    m.incr("batches_run", backend, 0);
    m.add(
        "phase_lookup_pack_ns",
        backend,
        0,
        run.breakdown.compute.as_ns(),
    );
    m.add(
        "phase_comm_ns",
        backend,
        0,
        run.breakdown.communication.as_ns(),
    );
    m.add(
        "phase_unpack_pool_ns",
        backend,
        0,
        run.breakdown.sync_unpack.as_ns(),
    );
    m.observe(
        "batch_service_us",
        backend,
        0,
        telemetry::US_BOUNDS,
        run.service().as_ns() / 1_000,
    );
}

/// The one PGAS executor: per-device fused kernels whose one-sided stores
/// stream onto the wire as blocks retire (paper Listing 2 — a block's
/// remote rows are streamed across its execution interval rather than
/// released in a burst at retirement), a `quiet` per PE, a barrier over
/// quiets, one stream sync (PGAS_EMB_forward's final sync).
///
/// A device lost at `start` delays its kernel to its recovery, or under
/// `policy.device_fill` is served at once from replicas + fill with no
/// kernel and no puts. A put that exhausts its retries serves its rows from
/// the fill; a quiet that misses the deadline abandons the rows it would
/// have waited for.
pub(crate) fn pgas_exec(
    machine: &mut Machine,
    transport: Transport,
    pb: &PlannedBatch,
    start: SimTime,
    policy: &ResiliencePolicy,
    mut obs: Observer,
) -> BatchRun {
    let plan = pb.plan();
    let n = plan.n_devices;
    let row_bytes = plan.row_bytes();
    let deadline = policy.batch_deadline.map_or(SimTime::MAX, |d| start + d);
    if let Some(l) = obs.log.as_deref_mut() {
        l.reset(n);
    }

    // --- Phase 1: fused kernels; the flat transport issues each device's
    // puts and quiet right behind its kernel. ---
    let mut k_end = arena::take_time();
    k_end.resize(n, start);
    let mut quiet = arena::take_time();
    quiet.resize(n, start);
    let mut kernel_spans: Vec<Option<usize>> = Vec::new();
    let mut quiet_spans: Vec<Option<usize>> = Vec::new();
    if let Some(b) = machine.blame_mut() {
        b.set_kind(BlameCategory::GatherPool);
        b.set_cause(None);
        kernel_spans.resize(n, None);
        quiet_spans.resize(n, None);
    }
    let mut releases = arena::take_release();
    let mut events = arena::take_event();
    // Rows whose delivery lands past the deadline: degraded only if the
    // quiet actually abandons them (it always observes them).
    let mut late = arena::take_u64();
    let (mut any_lost, mut missed) = (false, false);
    for dp in &plan.devices {
        let dev = dp.device;
        let Some(kernel_start) = obs.kernel_start(machine, dp, plan, start, policy, &mut any_lost)
        else {
            continue;
        };
        let durs = &pb.durations()[dev];
        let run = machine.run_kernel_varied(dev, durs, kernel_start);
        k_end[dev] = run.interval.end;
        let kernel_span = machine.blame_last_span();
        if let Some(b) = machine.blame_mut() {
            // Puts issued below carry rows this kernel produced.
            b.set_device_cause(dev as u32, kernel_span);
            kernel_spans[dev] = kernel_span;
        }
        stream_releases_into(dp, durs, &run, &mut releases);
        if let Some(l) = obs.log.as_deref_mut() {
            // Rows pooled for this device's own output are consumable the
            // instant their producing block retires — no wire involved.
            for (blk, &end) in dp.blocks.iter().zip(&run.block_ends) {
                for &(dst, rows) in blk.dest_rows.iter().filter(|&&(dst, _)| dst == dev) {
                    l.push(dst, end, rows);
                }
            }
            // Hot-cache import blocks (appended after the regular blocks)
            // pool one local row per imported bag.
            for (chunk, &end) in dp
                .imported_bags
                .chunks(plan.bags_per_block)
                .zip(&run.block_ends[dp.blocks.len()..])
            {
                l.push(dev, end, chunk.len() as u64);
            }
        }
        let pgas = match transport {
            Transport::Flat(pgas) => pgas,
            Transport::Gateway(_) => {
                events.extend(
                    releases
                        .iter()
                        .map(|&(ready, dst, rows)| (ready, dev, dst, rows)),
                );
                continue;
            }
        };
        let mut os = OneSided::with_config(machine, pgas);
        late.clear();
        late.resize(n, 0);
        for &(ready, dst, rows) in releases.iter() {
            let Ok(delivery) = os.try_put_rows_nbi(dev, dst, rows, row_bytes, ready) else {
                obs.degrade(dst, rows);
                continue;
            };
            let iv = delivery.interval;
            if iv.end > deadline {
                late[dst] += rows;
            }
            if let Some(l) = obs.log.as_deref_mut() {
                // The remote rows are consumable once the put delivers.
                l.push(dst, iv.end, rows);
            }
            // When tracing, tie the remote put's wire span to the pooled
            // write landing on the destination device's track.
            if iv.end > iv.start {
                if let Some(t) = os.machine().trace_mut() {
                    t.record_flow(
                        "pooled write",
                        format!("link{dev}->{dst}"),
                        iv.start,
                        format!("gpu{dst}"),
                        iv.end,
                    );
                }
            }
        }
        if let Some(rep) = obs.report() {
            let st = os.retry_stats();
            rep.retried_puts += st.retried_puts;
            rep.retries += st.retries;
            rep.exhausted_puts += st.exhausted;
        }
        quiet[dev] = os
            .try_quiet(dev, run.interval.end, deadline)
            .unwrap_or_else(|_| {
                missed = true;
                for (dst, &rows) in late.iter().enumerate() {
                    obs.degrade(dst, rows);
                }
                deadline
            });
        if !quiet_spans.is_empty() {
            quiet_spans[dev] = blame_quiet_span(machine, dev, kernel_span, k_end[dev], quiet[dev]);
        }
    }
    arena::put_u64(late);
    arena::put_release(releases);

    // --- Phase 2 (gateway): one shared proxy, fed in global simulated-time
    // order. The fabric books wire intervals FIFO in *call* order, and
    // gateway scatters put traffic on links owned by a different GPU than
    // the origin — issuing per-device (as the flat transport does) would
    // book one origin's whole timeline before the next origin's earlier
    // stores and serialize them artificially. Sorting by (ready, src, dst)
    // keeps call order aligned with simulated time. Each origin drains at
    // its own kernel-retirement instant, merged into the same ordering. ---
    if let Transport::Gateway(cfg) = transport {
        events.sort_unstable_by_key(|&(t, src, dst, _)| (t, src, dst));
        let mut gw = GatewayPut::new(machine, cfg);
        let mut drained = arena::take_bool();
        drained.resize(n, false);
        for &(ready, src, dst, rows) in events.iter() {
            for d in 0..n {
                if !drained[d] && k_end[d] < ready {
                    gw.drain_src(d, k_end[d]);
                    drained[d] = true;
                }
            }
            gw.put_rows_nbi(src, dst, rows, row_bytes, ready);
        }
        for (d, &t) in k_end.iter().enumerate() {
            gw.drain_src(d, t);
        }
        for d in 0..n {
            quiet[d] = gw.quiet(d, k_end[d]);
            if !quiet_spans.is_empty() {
                quiet_spans[d] =
                    blame_quiet_span(gw.machine(), d, kernel_spans[d], k_end[d], quiet[d]);
            }
        }
        arena::put_bool(drained);
    }
    arena::put_event(events);
    obs.count_batch(any_lost, missed);
    if let Some(l) = obs.log {
        l.finish();
    }
    let k_max = machine.barrier(&k_end);
    arena::put_time(k_end);

    // --- Completion: barrier over per-PE quiets, then one host stream
    // synchronization. ---
    let pgas = match transport {
        Transport::Flat(pgas) => pgas,
        Transport::Gateway(cfg) => cfg.pgas,
    };
    let bar = OneSided::with_config(machine, pgas).barrier_all(&quiet);
    let mut end = arena::take_time();
    end.extend((0..n).map(|d| machine.stream_sync(d, bar)));
    let batch_end = machine.barrier(&end);
    blame_completion_tail(machine, start, &quiet, &quiet_spans, bar, &end, batch_end);
    arena::put_time(end);
    arena::put_time(quiet);

    let run = BatchRun {
        start,
        end: batch_end,
        breakdown: TimeBreakdown {
            compute: k_max - start,
            // Communication is fused into the kernel: anything left is the
            // drain/quiet/barrier tail, reported as sync time.
            communication: Dur::ZERO,
            sync_unpack: batch_end - k_max,
        },
    };
    record_batch_metrics(machine, obs.backend, &run);
    run
}

/// Blame span for one PE's `quiet` fence: from the later of its kernel end
/// and its last put's delivery, to the fence's completion. The cause is
/// whichever of the two actually gated it — an outstanding put tail makes
/// the fence's wait walk into the wire spans (exposed communication); a
/// compute-bound device chains straight to its kernel.
fn blame_quiet_span(
    machine: &mut Machine,
    dev: usize,
    kernel_span: Option<usize>,
    k_end: SimTime,
    quiet_end: SimTime,
) -> Option<usize> {
    let b = machine.blame_mut()?;
    let (cause, ready) = match b.last_outbound(dev as u32) {
        Some(w) if b.spans()[w].end > k_end => (Some(w), b.spans()[w].end),
        _ => (kernel_span, k_end),
    };
    Some(b.record(
        BlameCategory::Sync,
        Lane::Gpu(dev as u32),
        ready,
        ready,
        quiet_end,
        cause,
        false,
    ))
}

/// Blame spans for the PGAS completion tail: one host-lane barrier span
/// caused by the latest-quiescing PE's fence, then one per-device
/// stream-sync span caused by the barrier; the latest-finishing device's
/// span terminates the batch walk.
fn blame_completion_tail(
    machine: &mut Machine,
    start: SimTime,
    quiet: &[SimTime],
    quiet_spans: &[Option<usize>],
    bar: SimTime,
    end: &[SimTime],
    batch_end: SimTime,
) {
    if !machine.blame_enabled() {
        return;
    }
    let n = quiet.len();
    let q_argmax = (0..n).max_by_key(|&d| quiet[d]).unwrap_or(0);
    let q_max = quiet[q_argmax];
    let term = {
        let Some(b) = machine.blame_mut() else { return };
        let bar_span = b.record(
            BlameCategory::Sync,
            Lane::Host,
            q_max,
            q_max,
            bar,
            quiet_spans.get(q_argmax).copied().flatten(),
            false,
        );
        let mut term = None;
        let mut latest = SimTime::ZERO;
        for (d, &e) in end.iter().enumerate() {
            let id = b.record(
                BlameCategory::Sync,
                Lane::Gpu(d as u32),
                bar,
                bar,
                e,
                Some(bar_span),
                false,
            );
            if term.is_none() || e >= latest {
                term = Some(id);
                latest = e;
            }
        }
        term
    };
    if let Some(b) = machine.blame_mut() {
        b.end_batch(start, batch_end, term);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{plan_for_batch, ExecMode};
    use crate::{EmbLayerConfig, SparseBatch};
    use gpusim::MachineConfig;

    fn tiny_cfg(g: usize) -> EmbLayerConfig {
        let mut c = EmbLayerConfig::paper_weak_scaling(g).scaled_down(512);
        c.n_batches = 3;
        c.distinct_batches = 2;
        c
    }

    fn planned(machine: &Machine, cfg: &EmbLayerConfig, seed_idx: usize) -> PlannedBatch {
        let b = SparseBatch::generate_counts_only(&cfg.batch_spec(), cfg.batch_seed(seed_idx));
        let plan = plan_for_batch(cfg, &b, machine.spec(0));
        PlannedBatch::new(machine, plan)
    }

    #[test]
    fn per_batch_runs_are_time_shift_invariant() {
        // The serving layer relies on this: a batch's service time must not
        // depend on when the machine starts it (clean fabric, drained
        // links), only on its composition.
        let cfg = tiny_cfg(2);
        let mut m = Machine::new(MachineConfig::dgx_v100(2));
        let pb = planned(&m, &cfg, 0);
        let a = pgas_batch(&mut m, PgasConfig::default(), &pb, SimTime::ZERO);
        let late = a.end + Dur::from_us(37);
        let b = pgas_batch(&mut m, PgasConfig::default(), &pb, late);
        assert_eq!(a.service(), b.service());
        assert_eq!(a.breakdown, b.breakdown);

        let mut m2 = Machine::new(MachineConfig::dgx_v100(2));
        let cc = CollectiveConfig::default();
        let a = baseline_batch(&mut m2, &cc, &pb, SimTime::ZERO);
        let late = a.end + Dur::from_us(101);
        let b = baseline_batch(&mut m2, &cc, &pb, late);
        assert_eq!(a.service(), b.service());
        assert_eq!(a.breakdown, b.breakdown);
    }

    #[test]
    fn planned_batch_surfaces_consistent_state() {
        let cfg = tiny_cfg(2);
        let m = Machine::new(MachineConfig::dgx_v100(2));
        let pb = planned(&m, &cfg, 0);
        assert_eq!(pb.durations().len(), 2);
        assert_eq!(pb.byte_matrix().len(), 2);
        for (dp, durs) in pb.plan().devices.iter().zip(pb.durations()) {
            assert_eq!(durs.len(), dp.blocks.len());
        }
        assert_eq!(
            pb.total_rows(),
            (cfg.batch_size * cfg.n_features) as u64,
            "every (sample, feature) pair yields one pooled row"
        );
        // Diagonal traffic never crosses the wire but is still accounted
        // (the backends skip dst == src when putting).
        assert!(pb.byte_matrix()[0][1] > 0);
    }

    #[test]
    fn pgas_batch_is_faster_than_baseline_batch() {
        let cfg = tiny_cfg(2);
        let mut m = Machine::new(MachineConfig::dgx_v100(2));
        let pb = planned(&m, &cfg, 0);
        let p = pgas_batch(&mut m, PgasConfig::default(), &pb, SimTime::ZERO);
        let mut m2 = Machine::new(MachineConfig::dgx_v100(2));
        let b = baseline_batch(&mut m2, &CollectiveConfig::default(), &pb, SimTime::ZERO);
        assert!(
            p.service() < b.service(),
            "pgas {} vs {}",
            p.service(),
            b.service()
        );
    }

    #[test]
    fn gateway_batch_is_bit_identical_on_single_node() {
        // At every crossbar width: with no cross-node traffic the proxy
        // must be a no-op, bit for bit.
        for n in [1usize, 2, 4, 8] {
            let cfg = tiny_cfg(n);
            let mut m = Machine::new(MachineConfig::dgx_v100(n));
            let pb = planned(&m, &cfg, 0);
            let plain = pgas_batch(&mut m, PgasConfig::default(), &pb, SimTime::ZERO);
            let mut m2 = Machine::new(MachineConfig::dgx_v100(n));
            let gw = pgas_batch_gateway(&mut m2, GatewayConfig::default(), &pb, SimTime::ZERO);
            assert_eq!(plain, gw, "width {n}: proxy must be a no-op");
            assert_eq!(m.traffic_stats(), m2.traffic_stats(), "width {n}");
        }
    }

    #[test]
    fn gateway_batch_cuts_inter_node_messages_on_pods() {
        // Less aggressively scaled down than `tiny_cfg`: enough cross-node
        // traffic that the flat path is wire-bound on the RoCE tier (its
        // per-row messages outrun the link's message rate), which is the
        // regime the gateway is built for.
        let mut cfg = EmbLayerConfig::paper_weak_scaling(4).scaled_down(16);
        cfg.n_batches = 1;
        cfg.distinct_batches = 1;
        let mut m = Machine::new(MachineConfig::pod_v100(2, 2));
        m.enable_telemetry();
        let pb = planned(&m, &cfg, 0);
        let flat = pgas_batch(&mut m, PgasConfig::default(), &pb, SimTime::ZERO);
        let flat_msgs = m.metrics().counter("fabric_tier_messages", 1, 0);

        let mut m2 = Machine::new(MachineConfig::pod_v100(2, 2));
        m2.enable_telemetry();
        // Short age bound so late stragglers still overlap the kernel.
        let gw_cfg = GatewayConfig {
            pgas: PgasConfig::default(),
            flush: pgas_rt::AggregatorConfig {
                flush_bytes: 8 << 10,
                max_wait: Dur::from_us(5),
            },
        };
        let gw = pgas_batch_gateway(&mut m2, gw_cfg, &pb, SimTime::ZERO);
        let gw_msgs = m2.metrics().counter("fabric_tier_messages", 1, 0);

        assert!(
            gw_msgs < flat_msgs / 10,
            "gateway must collapse cross-node messages: {gw_msgs} vs {flat_msgs}"
        );
        assert!(
            gw.service() < flat.service(),
            "on RoCE-tier links aggregation must win: {} vs {}",
            gw.service(),
            flat.service()
        );
    }

    #[test]
    fn logged_variants_are_bit_identical_to_plain() {
        let cfg = tiny_cfg(2);
        let mut m = Machine::new(MachineConfig::dgx_v100(2));
        let pb = planned(&m, &cfg, 0);
        let plain = pgas_batch(&mut m, PgasConfig::default(), &pb, SimTime::ZERO);
        let mut m2 = Machine::new(MachineConfig::dgx_v100(2));
        let mut log = ArrivalLog::new();
        let logged =
            pgas_batch_logged(&mut m2, PgasConfig::default(), &pb, SimTime::ZERO, &mut log);
        assert_eq!(plain, logged);
        assert_eq!(m.traffic_stats(), m2.traffic_stats());

        let cc = CollectiveConfig::default();
        let mut m = Machine::new(MachineConfig::dgx_v100(2));
        let plain = baseline_batch(&mut m, &cc, &pb, SimTime::ZERO);
        let mut m2 = Machine::new(MachineConfig::dgx_v100(2));
        let logged = baseline_batch_logged(&mut m2, &cc, &pb, SimTime::ZERO, &mut log);
        assert_eq!(plain, logged);
        assert_eq!(m.traffic_stats(), m2.traffic_stats());
    }

    #[test]
    fn arrival_log_covers_every_output_row_and_respects_batch_end() {
        let cfg = tiny_cfg(4);
        let mut m = Machine::new(MachineConfig::dgx_v100(4));
        let pb = planned(&m, &cfg, 0);
        let mut plog = ArrivalLog::new();
        let prun = pgas_batch_logged(&mut m, PgasConfig::default(), &pb, SimTime::ZERO, &mut plog);
        let mut m2 = Machine::new(MachineConfig::dgx_v100(4));
        let mut blog = ArrivalLog::new();
        let brun = baseline_batch_logged(
            &mut m2,
            &CollectiveConfig::default(),
            &pb,
            SimTime::ZERO,
            &mut blog,
        );
        let plan = pb.plan();
        for d in 0..4 {
            let rows = (plan.mb_sizes[d] * plan.n_features) as u64;
            // Both logs account every pooled row of every device's output.
            assert_eq!(plog.total_rows(d), rows, "pgas dev {d}");
            assert_eq!(blog.total_rows(d), rows, "baseline dev {d}");
            // No arrival outruns the batch, and PGAS arrivals are sorted.
            assert!(plog.last(d) <= prun.end);
            assert!(blog.last(d) <= brun.end);
            assert!(plog.arrivals(d).windows(2).all(|w| w[0].0 <= w[1].0));
            // Fused emission spreads arrivals: the first half of d's rows
            // lands strictly before the last row (many release instants),
            // whereas the baseline releases everything at one instant.
            assert!(plog.ready_at_fraction(d, 0.5) < plog.last(d), "dev {d}");
            assert_eq!(blog.arrivals(d).len(), 1, "bulk-synchronous release");
            // And the PGAS half-point strictly precedes the baseline's
            // all-at-once release — the overlap the engine exploits.
            assert!(plog.ready_at_fraction(d, 0.5) < blog.last(d));
        }
        // Fraction endpoints behave.
        assert_eq!(plog.ready_at_fraction(0, 1.0), plog.last(0));
        assert!(plog.ready_at_fraction(0, 0.0) <= plog.ready_at_fraction(0, 1.0));
    }

    #[test]
    fn prepare_batches_and_plan_for_batch_agree() {
        let cfg = tiny_cfg(2);
        let m = Machine::new(MachineConfig::dgx_v100(2));
        let prepared = crate::backend::prepare_batches(&cfg, ExecMode::Timing, m.spec(0));
        let direct = plan_for_batch(&cfg, &prepared.batches[0], m.spec(0));
        assert_eq!(direct.cache_hit, prepared.plans[0].cache_hit);
        assert_eq!(direct.batch_size, prepared.plans[0].batch_size);
        assert_eq!(
            direct.devices[0].total_lookups,
            prepared.plans[0].devices[0].total_lookups
        );
    }
}
