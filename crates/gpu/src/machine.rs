//! The machine: devices + fabric + measurement.

use desim::{Dur, Histogram, Interval, Resource, SimTime, TimeSeries};
use telemetry::causal::{BlameCategory, Lane, SpanGraph};
use telemetry::Registry;

use crate::fault::{FabricError, FaultKind, FaultPlan, LinkState, MessageFault, RetryPolicy};
use crate::{GpuSpec, KernelRun, KernelShape, LinkSpec, Topology};

/// Everything needed to instantiate a [`Machine`].
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// Per-device hardware parameters (one entry per GPU).
    pub specs: Vec<GpuSpec>,
    /// Interconnect between the devices.
    pub topology: Topology,
    /// Bucket width for the per-link traffic time series (Figures 7/10).
    pub traffic_bucket: Dur,
}

impl MachineConfig {
    /// The paper's testbed: `n` V100s on an NVLink crossbar.
    pub fn dgx_v100(n: usize) -> Self {
        MachineConfig {
            specs: vec![GpuSpec::v100(); n],
            topology: Topology::crossbar(n, LinkSpec::nvlink_v100()),
            traffic_bucket: Dur::from_us(50),
        }
    }

    /// A multi-node V100 cluster (NVLink within a node, InfiniBand across)
    /// for the paper's §V multi-node extension.
    pub fn multi_node_v100(nodes: usize, per_node: usize) -> Self {
        MachineConfig {
            specs: vec![GpuSpec::v100(); nodes * per_node],
            topology: Topology::multi_node(
                nodes,
                per_node,
                LinkSpec::nvlink_v100(),
                LinkSpec::infiniband(),
            ),
            traffic_bucket: Dur::from_us(50),
        }
    }

    /// A scale-out pod of V100 nodes: NVLink crossbar within a node, a
    /// RoCE/IB NIC tier across nodes ([`LinkSpec::roce`] — lower bandwidth,
    /// higher latency, and a steep per-message cost). The EXT-11 execution
    /// fabric: unlike `multi_node_v100`'s analytic IB preset, this tier is
    /// message-rate-limited, which is where flat per-row PGAS stores invert.
    pub fn pod_v100(nodes: usize, per_node: usize) -> Self {
        MachineConfig {
            specs: vec![GpuSpec::v100(); nodes * per_node],
            topology: Topology::multi_node(
                nodes,
                per_node,
                LinkSpec::nvlink_v100(),
                LinkSpec::roce(),
            ),
            traffic_bucket: Dur::from_us(50),
        }
    }

    /// Override the traffic-series bucket width.
    pub fn with_traffic_bucket(mut self, bucket: Dur) -> Self {
        self.traffic_bucket = bucket;
        self
    }
}

/// Aggregate communication statistics for a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TrafficStats {
    /// Payload bytes placed on any wire.
    pub payload_bytes: u64,
    /// Header bytes charged (per-message protocol overhead).
    pub header_bytes: u64,
    /// Number of messages.
    pub messages: u64,
}

impl TrafficStats {
    /// Fraction of wire bytes that were protocol overhead.
    pub fn header_overhead(&self) -> f64 {
        let total = self.payload_bytes + self.header_bytes;
        if total == 0 {
            0.0
        } else {
            self.header_bytes as f64 / total as f64
        }
    }
}

/// A deterministic simulated multi-GPU machine.
///
/// All operations take explicit "ready" times and return the interval the
/// operation occupied, so higher layers can compose arbitrary dependency
/// DAGs. Per-device default streams serialize kernels; per-ordered-pair
/// links serialize transfers FIFO.
pub struct Machine {
    cfg: MachineConfig,
    /// Next-free time of each device's default stream.
    streams: Vec<SimTime>,
    /// Auxiliary compute streams per device ([`Machine::add_stream`]).
    /// Each serializes its own kernels and runs concurrently with the
    /// default stream; empty unless a scheduler asks for them, so existing
    /// single-stream schedules never touch this path.
    aux_streams: Vec<Vec<Resource>>,
    /// One serialized resource per ordered pair, indexed `src * n + dst`.
    links: Vec<Resource>,
    /// Per-device injection port (the GPU's whole NVLink/NIC complex).
    injection: Vec<Resource>,
    /// Per-node egress NIC (the node's HCA): inter-node transfers from all
    /// GPUs of a node additionally serialize through it, making cross-node
    /// bandwidth a *node* resource rather than a per-pair resource.
    /// Intra-node transfers never touch it, and a node with a single GPU
    /// sees timing identical to the plain per-pair link (the NIC and link
    /// horizons coincide).
    nics: Vec<Resource>,
    /// Payload bytes on the wire over time, per ordered pair.
    traffic: Vec<TimeSeries>,
    /// Latest send-completion per source device (for PGAS `quiet`).
    sent_upto: Vec<SimTime>,
    msg_sizes: Histogram,
    stats: TrafficStats,
    horizon: SimTime,
    trace: Option<crate::TraceLog>,
    /// Installed fault schedule, if any. A trivial plan (all-zero spec) is
    /// treated exactly like no plan: every fault code path is bypassed.
    faults: Option<FaultPlan>,
    /// Opt-in metrics registry (disabled by default: recording methods
    /// short-circuit on one branch and never allocate).
    metrics: Registry,
    /// Opt-in causal span graph for critical-path blame attribution
    /// (EXT-16). Like telemetry: `None` by default, every hook is one
    /// branch, and recording never perturbs simulated timing.
    blame: Option<SpanGraph>,
}

impl Machine {
    /// Build a machine from a config. Panics if the spec count does not
    /// match the topology.
    pub fn new(cfg: MachineConfig) -> Self {
        let n = cfg.topology.n_gpus();
        assert_eq!(
            cfg.specs.len(),
            n,
            "got {} GPU specs for a {}-GPU topology",
            cfg.specs.len(),
            n
        );
        let bucket = cfg.traffic_bucket;
        Machine {
            streams: vec![SimTime::ZERO; n],
            aux_streams: vec![Vec::new(); n],
            links: vec![Resource::new(); n * n],
            injection: vec![Resource::new(); n],
            nics: vec![Resource::new(); cfg.topology.nodes()],
            traffic: (0..n * n).map(|_| TimeSeries::new(bucket)).collect(),
            sent_upto: vec![SimTime::ZERO; n],
            msg_sizes: Histogram::new(),
            stats: TrafficStats::default(),
            horizon: SimTime::ZERO,
            trace: None,
            faults: None,
            metrics: Registry::disabled(),
            blame: None,
            cfg,
        }
    }

    /// Start recording telemetry (counters, per-link busy/stall timelines,
    /// message-size histograms, …) into an opt-in [`Registry`], with
    /// timeline buckets matching the machine's `traffic_bucket`. Telemetry
    /// never perturbs simulated timing; with it off (the default) the hot
    /// paths do not allocate.
    pub fn enable_telemetry(&mut self) {
        self.metrics = Registry::enabled(self.cfg.traffic_bucket);
    }

    /// The metrics registry (disabled unless
    /// [`Machine::enable_telemetry`] was called).
    pub fn metrics(&self) -> &Registry {
        &self.metrics
    }

    /// Mutable registry access for higher layers (PGAS runtime,
    /// collectives, retrieval backends, serving) recording their own
    /// metrics against this machine's clock.
    pub fn metrics_mut(&mut self) -> &mut Registry {
        &mut self.metrics
    }

    /// Start recording every billed interval (kernel, wire, NIC, retry
    /// backoff, …) into a causal [`SpanGraph`] for critical-path blame
    /// attribution. Opt-in like telemetry: off by default, and enabling it
    /// never perturbs simulated timing.
    pub fn enable_blame(&mut self) {
        self.blame = Some(SpanGraph::new());
    }

    /// Whether blame recording is active.
    #[inline]
    pub fn blame_enabled(&self) -> bool {
        self.blame.is_some()
    }

    /// The recorded span graph, if [`Machine::enable_blame`] was called.
    pub fn blame(&self) -> Option<&SpanGraph> {
        self.blame.as_ref()
    }

    /// Mutable span-graph access for the layers that know the causality
    /// the machine cannot see (executors recording sync fences, the PGAS
    /// gateway recording staging spans, serving stamping trace ids).
    pub fn blame_mut(&mut self) -> Option<&mut SpanGraph> {
        self.blame.as_mut()
    }

    /// Id of the most recently recorded blame span, if any.
    pub fn blame_last_span(&self) -> Option<usize> {
        self.blame.as_ref().and_then(|b| b.last_span())
    }

    /// Render every closed batch's critical path onto a `blame` trace
    /// track: one span per path segment, named by its category. Requires
    /// both [`Machine::enable_trace`] and [`Machine::enable_blame`];
    /// otherwise a no-op. Call once, after the run, before exporting.
    pub fn blame_trace_lanes(&mut self) {
        let Some(trace) = self.trace.as_mut() else {
            return;
        };
        let Some(blame) = self.blame.as_ref() else {
            return;
        };
        for (idx, b) in blame.batches().iter().enumerate() {
            for s in b.segments.iter().filter(|s| s.end > s.start) {
                trace.record(
                    format!("blame.b{idx}"),
                    s.cat.label().to_string(),
                    Interval {
                        start: s.start,
                        end: s.end,
                    },
                );
            }
        }
    }

    /// Install a fault schedule. Panics if the plan was generated for a
    /// different GPU count. Installing a trivial plan keeps the machine on
    /// the exact fault-free timing path.
    pub fn install_faults(&mut self, plan: FaultPlan) {
        assert_eq!(
            plan.n_gpus(),
            self.n_gpus(),
            "fault plan generated for {} GPUs, machine has {}",
            plan.n_gpus(),
            self.n_gpus()
        );
        if self.trace.is_some() {
            Self::trace_fault_windows(&mut self.trace, &plan);
        }
        self.faults = Some(plan);
    }

    /// The installed fault plan, if any.
    pub fn faults(&self) -> Option<&FaultPlan> {
        self.faults.as_ref()
    }

    /// True if a non-trivial fault plan is installed: the fault-aware
    /// operations then sample faults; otherwise they are the infallible
    /// ones.
    #[inline]
    pub fn faults_active(&self) -> bool {
        self.faults.as_ref().is_some_and(|p| !p.is_trivial())
    }

    /// Straggler slowdown factor for `dev` (1.0 when healthy or no plan).
    pub fn straggler_factor(&self, dev: usize) -> f64 {
        match &self.faults {
            Some(p) if !p.is_trivial() => p.straggler_factor(dev),
            _ => 1.0,
        }
    }

    /// If `dev` is inside a whole-device outage window at `at`, the instant
    /// it recovers; `None` when healthy or no plan is installed. Resilient
    /// callers poll this before a batch and serve the lost shard from
    /// hot-cache replicas or the degradation fill.
    pub fn device_down_until(&self, dev: usize, at: SimTime) -> Option<SimTime> {
        match &self.faults {
            Some(p) if !p.is_trivial() => p.device_down_until(dev, at),
            _ => None,
        }
    }

    /// The [`FabricError::DeviceLost`] a fallible caller observes touching
    /// `dev` at `at`, if the device is inside an outage window.
    pub fn device_error(&self, dev: usize, at: SimTime) -> Option<FabricError> {
        match &self.faults {
            Some(p) if !p.is_trivial() => p.device_error(dev, at),
            _ => None,
        }
    }

    /// Fraction of `[start, end)` during which the directed link sits inside
    /// a scheduled fault window. Zero when no plan is installed. Feeds the
    /// fault column of the fig7/fig10 traffic CSVs.
    pub fn fault_fraction(&self, src: usize, dst: usize, start: SimTime, end: SimTime) -> f64 {
        match &self.faults {
            Some(p) if !p.is_trivial() => p.fault_fraction(src, dst, start, end),
            _ => 0.0,
        }
    }

    fn trace_fault_windows(trace: &mut Option<crate::TraceLog>, plan: &FaultPlan) {
        let Some(t) = trace else { return };
        if plan.is_trivial() {
            return;
        }
        for src in 0..plan.n_gpus() {
            for dst in 0..plan.n_gpus() {
                for w in plan.windows(src, dst) {
                    let name = match w.kind {
                        FaultKind::Down => "link down".to_string(),
                        FaultKind::Degraded(f) => format!("degraded {:.0}%", f * 100.0),
                    };
                    t.record(
                        format!("fault{src}->{dst}"),
                        name,
                        Interval {
                            start: w.start,
                            end: w.end,
                        },
                    );
                }
            }
        }
    }

    /// Start recording every kernel and transfer into a [`crate::TraceLog`]
    /// (export with [`Machine::trace`] → `to_chrome_json`). Intended for
    /// small runs — tracing records one span per message batch.
    pub fn enable_trace(&mut self) {
        self.trace = Some(crate::TraceLog::new());
        if let Some(plan) = self.faults.take() {
            Self::trace_fault_windows(&mut self.trace, &plan);
            self.faults = Some(plan);
        }
    }

    /// The recorded trace, if tracing was enabled.
    pub fn trace(&self) -> Option<&crate::TraceLog> {
        self.trace.as_ref()
    }

    /// Mutable trace access, for higher layers recording their own spans
    /// or flow arrows (e.g. tying a remote put to its pooled write).
    pub fn trace_mut(&mut self) -> Option<&mut crate::TraceLog> {
        self.trace.as_mut()
    }

    /// Sample the telemetry registry's per-link timelines into `"ph":"C"`
    /// counter tracks on the trace: one `utilization` series and one
    /// `queue depth` series per directed link. Requires both
    /// [`Machine::enable_trace`] and [`Machine::enable_telemetry`];
    /// otherwise a no-op. Call once, after the run, before exporting.
    pub fn trace_counter_tracks(&mut self) {
        let Some(trace) = self.trace.as_mut() else {
            return;
        };
        if !self.metrics.is_enabled() {
            return;
        }
        let bucket_ns = self.metrics.bucket().as_ns() as f64;
        for (key, ts) in self.metrics.timelines_named("link_busy_ns") {
            let track = format!("link{}->{}", key.i, key.j);
            for (t, v) in ts.points() {
                trace.record_counter(&track, "utilization", t, v / bucket_ns);
            }
        }
        for (key, ts) in self.metrics.timelines_named("link_stall_ns") {
            let track = format!("link{}->{}", key.i, key.j);
            for (t, v) in ts.points() {
                trace.record_counter(&track, "queue depth", t, v / bucket_ns);
            }
        }
    }

    /// Number of GPUs.
    pub fn n_gpus(&self) -> usize {
        self.cfg.topology.n_gpus()
    }

    /// Hardware spec of device `dev`.
    pub fn spec(&self, dev: usize) -> &GpuSpec {
        &self.cfg.specs[dev]
    }

    /// The interconnect topology.
    pub fn topology(&self) -> &Topology {
        &self.cfg.topology
    }

    /// Launch `shape` on `dev`'s default stream, not before `ready`.
    /// Pays the launch overhead, then executes the wave model.
    pub fn run_kernel(&mut self, dev: usize, shape: KernelShape, ready: SimTime) -> KernelRun {
        let slow = self.straggler_factor(dev);
        let spec = &self.cfg.specs[dev];
        let start = self.streams[dev].max(ready) + spec.kernel_launch;
        let run = KernelRun::wave_model_scaled(&shape, spec, start, slow);
        let launch = spec.kernel_launch;
        self.streams[dev] = run.interval.end;
        self.bump(run.interval.end);
        if let Some(b) = &mut self.blame {
            let (cat, cause) = (b.kind(), b.cause());
            b.record(
                cat,
                Lane::Gpu(dev as u32),
                ready + launch,
                run.interval.start,
                run.interval.end,
                cause,
                false,
            );
        }
        if self.metrics.is_enabled() {
            self.metrics.incr("kernels_launched", dev as u32, 0);
            self.metrics.span(
                "gpu_busy_ns",
                dev as u32,
                0,
                run.interval.start,
                run.interval.end,
            );
        }
        if let Some(t) = &mut self.trace {
            t.record(
                format!("gpu{dev}"),
                format!("kernel({} blk)", shape.blocks),
                run.interval,
            );
        }
        run
    }

    /// Like [`Machine::run_kernel`] but with an explicit per-block duration
    /// list (used when block costs vary, e.g. sampled pooling factors).
    /// Blocks are dispatched in order onto `resident` wave slots.
    pub fn run_kernel_varied(
        &mut self,
        dev: usize,
        block_durations: &[Dur],
        ready: SimTime,
    ) -> KernelRun {
        let slow = self.straggler_factor(dev);
        let spec = &self.cfg.specs[dev];
        let start = self.streams[dev].max(ready) + spec.kernel_launch;
        let launch = spec.kernel_launch;
        if block_durations.is_empty() {
            self.bump(start);
            self.streams[dev] = start;
            if let Some(b) = &mut self.blame {
                let (cat, cause) = (b.kind(), b.cause());
                b.record(
                    cat,
                    Lane::Gpu(dev as u32),
                    ready + launch,
                    start,
                    start,
                    cause,
                    false,
                );
            }
            return KernelRun {
                interval: Interval { start, end: start },
                block_ends: Vec::new(),
                resident: 1,
            };
        }
        let resident = crate::KernelShape::effective_resident(
            block_durations.len() as u64,
            spec.max_resident_blocks(),
        );
        // Greedy earliest-slot dispatch, like the hardware's block scheduler.
        let mut slots = desim::MultiResource::new(resident as usize);
        let mut block_ends = Vec::with_capacity(block_durations.len());
        for &d in block_durations {
            // Straggler scaling only when active: factor 1.0 must not take
            // the float path, so healthy runs stay bit-identical.
            let d = if slow != 1.0 { d * slow } else { d };
            let iv = slots.acquire(start, d);
            block_ends.push(iv.end);
        }
        let end = slots.all_free();
        self.streams[dev] = end;
        self.bump(end);
        let interval = Interval { start, end };
        if let Some(b) = &mut self.blame {
            let (cat, cause) = (b.kind(), b.cause());
            b.record(
                cat,
                Lane::Gpu(dev as u32),
                ready + launch,
                start,
                end,
                cause,
                false,
            );
        }
        if self.metrics.is_enabled() {
            self.metrics.incr("kernels_launched", dev as u32, 0);
            self.metrics.span("gpu_busy_ns", dev as u32, 0, start, end);
        }
        if let Some(t) = &mut self.trace {
            t.record(
                format!("gpu{dev}"),
                format!("kernel({} blk)", block_durations.len()),
                interval,
            );
        }
        KernelRun {
            interval,
            block_ends,
            resident,
        }
    }

    /// Create one auxiliary compute stream on `dev` (the CUDA analogue of
    /// `cudaStreamCreate`). Kernels issued on it via
    /// [`Machine::run_on_stream`] / [`Machine::run_chunked_on`] serialize
    /// among themselves but overlap the default stream and every other
    /// stream. Trace spans land on their own `gpu{dev}.s{idx}` lane.
    pub fn add_stream(&mut self, dev: usize) -> crate::StreamId {
        let idx = self.aux_streams[dev].len();
        self.aux_streams[dev].push(Resource::new());
        crate::StreamId { dev, idx }
    }

    /// Instant stream `s` becomes free for new work.
    pub fn stream_free_at(&self, s: crate::StreamId) -> SimTime {
        self.aux_streams[s.dev][s.idx].free_at()
    }

    /// Total kernel-execution time issued on stream `s` (gaps excluded) —
    /// the numerator of a stream-occupancy / pipeline-bubble metric.
    pub fn stream_busy_time(&self, s: crate::StreamId) -> Dur {
        self.aux_streams[s.dev][s.idx].busy_time()
    }

    /// Launch one kernel of duration `dur` on auxiliary stream `s`, not
    /// before `gate` fires. Pays the launch overhead like every default-
    /// stream kernel, honours straggler scaling, and serializes behind
    /// whatever the stream is already running.
    pub fn run_on_stream(
        &mut self,
        s: crate::StreamId,
        label: &'static str,
        dur: Dur,
        gate: crate::Event,
    ) -> Interval {
        let slow = self.straggler_factor(s.dev);
        let d = if slow != 1.0 { dur * slow } else { dur };
        let launch = self.cfg.specs[s.dev].kernel_launch;
        let res = &mut self.aux_streams[s.dev][s.idx];
        let begin = res.free_at().max(gate.when()) + launch;
        let iv = res.acquire(begin, d);
        self.note_stream_kernel(s, label, iv, gate.when() + launch);
        iv
    }

    /// Launch one *persistent* kernel on stream `s` whose thread blocks
    /// consume `chunks` in order, each chunk polling until its gate event
    /// has fired (the fused-communication consumer pattern: interaction
    /// blocks spin on the arrival flags of the embedding rows they read).
    /// One launch overhead is paid for the whole kernel; chunk `c` then
    /// executes at `max(end of chunk c-1, gate_c)`. Returns the kernel's
    /// overall interval. Gaps between chunks are *not* billed to
    /// [`Machine::stream_busy_time`] — they are exactly the pipeline
    /// bubbles the occupancy metric exists to expose.
    pub fn run_chunked_on(
        &mut self,
        s: crate::StreamId,
        chunks: &[crate::StageChunk],
        gate: crate::Event,
    ) -> Interval {
        let slow = self.straggler_factor(s.dev);
        let launch = self.cfg.specs[s.dev].kernel_launch;
        let begin = self.aux_streams[s.dev][s.idx].free_at().max(gate.when()) + launch;
        if chunks.is_empty() {
            let iv = self.aux_streams[s.dev][s.idx].acquire(begin, Dur::ZERO);
            self.bump(iv.end);
            return iv;
        }
        let mut first: Option<SimTime> = None;
        let mut cursor = begin;
        for c in chunks {
            let d = if slow != 1.0 { c.dur * slow } else { c.dur };
            let iv = self.aux_streams[s.dev][s.idx].acquire(cursor.max(c.gate.when()), d);
            // `ready = cursor`: the gap a gate opens between the previous
            // chunk's end and this one's start is a pipeline bubble.
            self.note_stream_kernel(s, c.label, iv, cursor);
            first.get_or_insert(iv.start);
            cursor = iv.end;
        }
        Interval {
            start: first.expect("non-empty chunk list"),
            end: cursor,
        }
    }

    /// Shared bookkeeping for auxiliary-stream kernels: horizon, the
    /// `stream_busy_ns` occupancy timeline (labelled `(dev, stream)`), the
    /// `gpu{dev}.s{idx}` trace lane, and (when blame is on) a stream-lane
    /// span whose ready→start gap is the pipeline bubble ahead of it.
    fn note_stream_kernel(
        &mut self,
        s: crate::StreamId,
        label: &str,
        iv: Interval,
        ready: SimTime,
    ) {
        self.bump(iv.end);
        if let Some(b) = &mut self.blame {
            let (cat, cause) = (b.kind(), b.cause());
            b.record(
                cat,
                Lane::Stream(s.dev as u32, s.idx as u32),
                ready,
                iv.start,
                iv.end,
                cause,
                false,
            );
        }
        if self.metrics.is_enabled() {
            self.metrics
                .incr("stream_kernels", s.dev as u32, s.idx as u32);
            self.metrics.span(
                "stream_busy_ns",
                s.dev as u32,
                s.idx as u32,
                iv.start,
                iv.end,
            );
        }
        if let Some(t) = &mut self.trace {
            t.record(format!("gpu{}.s{}", s.dev, s.idx), label.to_string(), iv);
        }
    }

    /// Transfer `payload` bytes from `src` to `dst` as `n_messages` messages,
    /// entering the wire no earlier than `ready` (+ link latency). The link
    /// serializes transfers FIFO in call order; the source's injection port
    /// additionally caps its aggregate outbound rate across all peers.
    pub fn send(
        &mut self,
        src: usize,
        dst: usize,
        payload: u64,
        n_messages: u64,
        ready: SimTime,
    ) -> Interval {
        self.send_throttled(src, dst, payload, n_messages, ready, 1.0)
    }

    /// [`Machine::send`] with a wire-efficiency factor in `(0, 1]`: the
    /// transfer's link time is divided by `efficiency`. Collective libraries
    /// use this to model protocol/staging overhead (e.g. NCCL's internal
    /// buffer copies) that one-sided stores do not pay.
    pub fn send_throttled(
        &mut self,
        src: usize,
        dst: usize,
        payload: u64,
        n_messages: u64,
        ready: SimTime,
        efficiency: f64,
    ) -> Interval {
        assert_ne!(src, dst, "send to self does not touch the fabric");
        assert!(
            efficiency > 0.0 && efficiency <= 1.0,
            "efficiency {efficiency} out of (0, 1]"
        );
        let link = *self.cfg.topology.link(src, dst);
        let n = self.n_gpus();
        let wire = link.wire_time(payload, n_messages) * (1.0 / efficiency);
        // The injection port admits the bytes at the GPU's aggregate rate;
        // the link then streams them at its own (slower or contended) rate.
        let wire_bytes = payload + n_messages * link.header_bytes as u64;
        let inj_time = Dur::from_secs_f64(wire_bytes as f64 / self.cfg.specs[src].inj_bw);
        let inj_iv = self.injection[src].acquire(ready + link.latency, inj_time);
        // Cross-node traffic funnels through the source node's shared NIC
        // before its pair link; intra-node traffic rides the crossbar only.
        let same_node = self.cfg.topology.same_node(src, dst);
        let mut nic_queued = false;
        let wire_from = if same_node {
            inj_iv.start
        } else {
            let node = self.cfg.topology.node_of(src);
            let nic_iv = self.nics[node].acquire(inj_iv.start, wire);
            nic_queued = nic_iv.start > inj_iv.start;
            if self.metrics.is_enabled() {
                self.metrics
                    .span("nic_busy_ns", node as u32, 0, nic_iv.start, nic_iv.end);
            }
            nic_iv.start
        };
        let iv = self.links[src * n + dst].acquire(wire_from, wire);
        let iv = Interval {
            start: iv.start,
            end: iv.end.max(inj_iv.end),
        };
        if let Some(b) = &mut self.blame {
            let cat = if same_node {
                BlameCategory::WireIntra
            } else {
                BlameCategory::WireInter
            };
            let cause = b.device_cause(src as u32);
            let id = b.record(
                cat,
                Lane::Link(src as u32, dst as u32),
                ready + link.latency,
                iv.start,
                iv.end,
                cause,
                nic_queued,
            );
            b.note_outbound(src as u32, id);
            b.note_inbound(dst as u32, id);
        }
        self.traffic[src * n + dst].add_spread(iv.start, iv.end, payload as f64);
        if n_messages > 0 {
            self.msg_sizes.record(payload / n_messages.max(1));
        }
        self.stats.payload_bytes += payload;
        self.stats.header_bytes += n_messages * link.header_bytes as u64;
        self.stats.messages += n_messages;
        self.sent_upto[src] = self.sent_upto[src].max(iv.end);
        self.bump(iv.end);
        if self.metrics.is_enabled() {
            let (si, di) = (src as u32, dst as u32);
            self.metrics.incr("fabric_sends", si, di);
            self.metrics.add("fabric_messages", si, di, n_messages);
            self.metrics.add("fabric_payload_bytes", si, di, payload);
            self.metrics.add(
                "fabric_header_bytes",
                si,
                di,
                n_messages * link.header_bytes as u64,
            );
            if let Some(mean_payload) = payload.checked_div(n_messages) {
                self.metrics.observe(
                    "fabric_msg_payload_bytes",
                    si,
                    di,
                    telemetry::BYTES_BOUNDS,
                    mean_payload,
                );
            }
            // Per-tier rollups (tier 0 = intra-node, 1 = inter-node): on a
            // pod topology these split the same traffic by which fabric
            // tier carried it, so the slow-tier share is one key away.
            let tier = if self.cfg.topology.same_node(src, dst) {
                0
            } else {
                1
            };
            self.metrics
                .add("fabric_tier_messages", tier, 0, n_messages);
            self.metrics
                .add("fabric_tier_payload_bytes", tier, 0, payload);
            self.metrics.add(
                "fabric_tier_header_bytes",
                tier,
                0,
                n_messages * link.header_bytes as u64,
            );
            // Busy-time over the wire interval: bucket_value / bucket_ns is
            // this link's utilization in that bucket.
            self.metrics.span("link_busy_ns", si, di, iv.start, iv.end);
            // Stall: the gap between when the transfer wanted the wire and
            // when it got it — bucket_value / bucket_ns is the average
            // number of transfers queued on this link.
            let requested = ready + link.latency;
            if iv.start > requested {
                self.metrics
                    .span("link_stall_ns", si, di, requested, iv.start);
                self.metrics.incr("fabric_stalled_sends", si, di);
            }
            // In-flight transfer-time per source (issue → delivery).
            self.metrics
                .span("fabric_inflight_ns", si, 0, requested, iv.end);
        }
        if let Some(t) = &mut self.trace {
            t.record(
                format!("link{src}->{dst}"),
                format!("{payload}B x{n_messages}"),
                iv,
            );
        }
        iv
    }

    /// Fault-aware [`Machine::send`]: fails if the directed link is inside a
    /// down window at the attempted injection time, consumes wire time then
    /// fails if the message is sampled as dropped, stretches wire time while
    /// inside a bandwidth-degradation window, and adds sampled jitter to
    /// delayed messages. With no (or a trivial) fault plan installed this is
    /// exactly `Ok(self.send(..))` — bit-identical timing.
    pub fn try_send(
        &mut self,
        src: usize,
        dst: usize,
        payload: u64,
        n_messages: u64,
        ready: SimTime,
    ) -> Result<Interval, FabricError> {
        self.try_send_throttled(src, dst, payload, n_messages, ready, 1.0)
    }

    /// Fault-aware [`Machine::send_throttled`]; see [`Machine::try_send`].
    pub fn try_send_throttled(
        &mut self,
        src: usize,
        dst: usize,
        payload: u64,
        n_messages: u64,
        ready: SimTime,
        efficiency: f64,
    ) -> Result<Interval, FabricError> {
        if !self.faults_active() {
            return Ok(self.send_throttled(src, dst, payload, n_messages, ready, efficiency));
        }
        assert_ne!(src, dst, "send to self does not touch the fabric");
        let link = *self.cfg.topology.link(src, dst);
        let attempt_at = ready + link.latency;
        // Decide the message's fate up front (link state at the attempted
        // injection instant; per-pair sampling stream), then run the normal
        // timing path with the degradation folded into the efficiency.
        let (bw_factor, fate) = {
            // faults_active() above guarantees the plan is present.
            let Some(plan) = self.faults.as_mut() else {
                unreachable!("faults_active() checked above")
            };
            match plan.link_state(src, dst, attempt_at) {
                LinkState::Down { up_at } => {
                    return Err(FabricError::LinkDown {
                        src,
                        dst,
                        at: attempt_at,
                        up_at,
                    });
                }
                LinkState::Up { bw_factor } => (bw_factor, plan.sample_message(src, dst)),
            }
        };
        let eff = if bw_factor < 1.0 {
            efficiency * bw_factor
        } else {
            efficiency
        };
        let iv = self.send_throttled(src, dst, payload, n_messages, ready, eff);
        match fate {
            MessageFault::None => Ok(iv),
            MessageFault::Delay(jitter) => {
                let iv = Interval {
                    start: iv.start,
                    end: iv.end + jitter,
                };
                self.sent_upto[src] = self.sent_upto[src].max(iv.end);
                self.bump(iv.end);
                Ok(iv)
            }
            // The dropped message already consumed its wire interval (it was
            // transmitted, then lost); the caller retries from `iv.end`.
            MessageFault::Drop => Err(FabricError::MessageDropped {
                src,
                dst,
                at: iv.end,
            }),
        }
    }

    /// [`Machine::try_send_throttled`] wrapped in a retry loop under
    /// `policy`: link-down and dropped-message faults are retried with
    /// capped exponential backoff (deterministic, in simulated time),
    /// waiting out a down window when its end is known. Returns the
    /// successful wire interval and the number of attempts it took;
    /// exhaustion yields [`FabricError::RetryExhausted`].
    ///
    /// The loop runs inline, so two calls for the same destination can
    /// never reorder relative to each other.
    #[allow(clippy::too_many_arguments)]
    pub fn try_send_retry(
        &mut self,
        src: usize,
        dst: usize,
        payload: u64,
        n_messages: u64,
        ready: SimTime,
        efficiency: f64,
        policy: RetryPolicy,
    ) -> Result<(Interval, u32), FabricError> {
        let mut attempt = 1u32;
        let mut at = ready;
        loop {
            match self.try_send_throttled(src, dst, payload, n_messages, at, efficiency) {
                Ok(iv) => return Ok((iv, attempt)),
                Err(e) if e.is_retryable() && attempt < policy.max_attempts => {
                    // Retry `ready` feeds the link-latency offset again, so
                    // back out the latency the next attempt will re-add.
                    let link_latency = self.cfg.topology.link(src, dst).latency;
                    let next = policy.next_attempt_at(&e, attempt);
                    if let Some(b) = &mut self.blame {
                        // The backoff window is a span in its own right:
                        // the eventual wire span chains through it (the
                        // retry re-anchors the device cause below), so
                        // fault-induced waits bill `Retry` on the path.
                        let failed_at = match &e {
                            FabricError::LinkDown { at, .. }
                            | FabricError::MessageDropped { at, .. } => *at,
                            _ => next,
                        };
                        let cause = b.device_cause(src as u32);
                        let rid = b.record(
                            BlameCategory::Retry,
                            Lane::Link(src as u32, dst as u32),
                            failed_at,
                            failed_at,
                            next,
                            cause,
                            false,
                        );
                        b.set_device_cause(src as u32, Some(rid));
                    }
                    at = if next.as_ns() >= link_latency.as_ns() {
                        next - link_latency
                    } else {
                        SimTime::ZERO
                    };
                    attempt += 1;
                }
                Err(e) => {
                    return Err(FabricError::RetryExhausted {
                        attempts: attempt,
                        last: Box::new(e),
                    })
                }
            }
        }
    }

    /// Host-visible stream synchronization on `dev`: returns the time the
    /// host observes completion of everything enqueued before `at`.
    pub fn stream_sync(&mut self, dev: usize, at: SimTime) -> SimTime {
        let t = self.streams[dev].max(at) + self.cfg.specs[dev].stream_sync;
        self.bump(t);
        t
    }

    /// PGAS `quiet` on `src`: the instant all messages issued by `src` have
    /// been delivered, observed no earlier than `at`.
    pub fn quiet(&mut self, src: usize, at: SimTime) -> SimTime {
        let t = self.sent_upto[src].max(at);
        self.bump(t);
        t
    }

    /// Barrier across per-device times: everyone proceeds at the max.
    pub fn barrier(&mut self, times: &[SimTime]) -> SimTime {
        let t = times.iter().copied().fold(SimTime::ZERO, SimTime::max);
        self.bump(t);
        t
    }

    /// Latest instant any simulated activity completed.
    pub fn finish_time(&self) -> SimTime {
        self.horizon
    }

    /// Payload-bytes-over-time series for the directed pair `(src, dst)`.
    pub fn traffic_between(&self, src: usize, dst: usize) -> &TimeSeries {
        &self.traffic[src * self.n_gpus() + dst]
    }

    /// Sum of payload traffic over all links, as one series.
    pub fn total_traffic(&self) -> TimeSeries {
        let mut out = TimeSeries::new(self.cfg.traffic_bucket);
        for ts in &self.traffic {
            for (t, v) in ts.points() {
                if v != 0.0 {
                    out.add(t, v);
                }
            }
        }
        out
    }

    /// Aggregate traffic statistics.
    pub fn traffic_stats(&self) -> TrafficStats {
        self.stats
    }

    /// Histogram of per-message payload sizes.
    pub fn message_sizes(&self) -> &Histogram {
        &self.msg_sizes
    }

    /// Per-link utilization over the run so far, max across links.
    pub fn peak_link_utilization(&self) -> f64 {
        self.links
            .iter()
            .map(|l| l.utilization(self.horizon))
            .fold(0.0, f64::max)
    }

    fn bump(&mut self, t: SimTime) {
        self.horizon = self.horizon.max(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine(n: usize) -> Machine {
        Machine::new(MachineConfig::dgx_v100(n))
    }

    #[test]
    fn kernels_serialize_on_a_stream() {
        let mut m = machine(1);
        let shape = KernelShape::memory_bound(100, 1 << 16);
        let a = m.run_kernel(0, shape, SimTime::ZERO);
        let b = m.run_kernel(0, shape, SimTime::ZERO);
        assert!(b.interval.start >= a.interval.end);
        assert_eq!(m.finish_time(), b.interval.end);
    }

    #[test]
    fn kernels_on_different_devices_overlap() {
        let mut m = machine(2);
        let shape = KernelShape::memory_bound(100, 1 << 16);
        let a = m.run_kernel(0, shape, SimTime::ZERO);
        let b = m.run_kernel(1, shape, SimTime::ZERO);
        assert_eq!(a.interval, b.interval);
    }

    #[test]
    fn launch_overhead_is_charged() {
        let mut m = machine(1);
        let run = m.run_kernel(0, KernelShape::memory_bound(1, 256), SimTime::ZERO);
        assert_eq!(run.interval.start, SimTime::ZERO + m.spec(0).kernel_launch);
    }

    #[test]
    fn send_includes_latency_and_headers() {
        let mut m = machine(2);
        let link = *m.topology().link(0, 1);
        let iv = m.send(0, 1, 1 << 20, 1, SimTime::ZERO);
        assert_eq!(iv.start, SimTime::ZERO + link.latency);
        assert_eq!(iv.duration(), link.wire_time(1 << 20, 1));
        let stats = m.traffic_stats();
        assert_eq!(stats.payload_bytes, 1 << 20);
        assert_eq!(stats.header_bytes, link.header_bytes as u64);
        assert_eq!(stats.messages, 1);
    }

    #[test]
    fn aux_streams_overlap_the_default_stream_and_serialize_internally() {
        let mut m = machine(1);
        let s = m.add_stream(0);
        let k = m.run_kernel(0, KernelShape::memory_bound(100, 1 << 20), SimTime::ZERO);
        let a = m.run_on_stream(s, "head", Dur::from_us(50), crate::Event::READY);
        let b = m.run_on_stream(s, "head", Dur::from_us(50), crate::Event::READY);
        // Aux kernel a starts at launch overhead, regardless of the busy
        // default stream…
        assert_eq!(a.start, SimTime::ZERO + m.spec(0).kernel_launch);
        assert!(a.start < k.interval.end, "streams overlap");
        // …and b queues behind a on the same stream.
        assert!(b.start >= a.end);
        assert_eq!(m.stream_busy_time(s), Dur::from_us(100));
        assert_eq!(m.stream_free_at(s), b.end);
    }

    #[test]
    fn event_gates_delay_stream_kernels() {
        let mut m = machine(1);
        let s = m.add_stream(0);
        let gate = crate::Event::at(SimTime::ZERO + Dur::from_us(500));
        let iv = m.run_on_stream(s, "gated", Dur::from_us(10), gate);
        assert_eq!(iv.start, gate.when() + m.spec(0).kernel_launch);
    }

    #[test]
    fn chunked_kernel_pays_one_launch_and_honours_gates() {
        let mut m = machine(1);
        let launch = m.spec(0).kernel_launch;
        let s = m.add_stream(0);
        let chunk = |us: u64, gate: crate::Event| crate::StageChunk {
            gate,
            dur: Dur::from_us(us),
            label: "c",
        };
        // Ungated chunks run back to back after a single launch overhead.
        let iv = m.run_chunked_on(
            s,
            &[
                chunk(10, crate::Event::READY),
                chunk(10, crate::Event::READY),
            ],
            crate::Event::READY,
        );
        assert_eq!(iv.start, SimTime::ZERO + launch);
        assert_eq!(iv.end, iv.start + Dur::from_us(20));
        // A gated chunk stalls the persistent kernel (no extra launch),
        // and the stall is a bubble, not busy time.
        let t0 = m.stream_free_at(s);
        let gate = crate::Event::at(t0 + Dur::from_us(100));
        let iv2 = m.run_chunked_on(
            s,
            &[chunk(10, gate), chunk(10, crate::Event::READY)],
            crate::Event::READY,
        );
        assert_eq!(iv2.start, gate.when());
        assert_eq!(iv2.end, gate.when() + Dur::from_us(20));
        assert_eq!(m.stream_busy_time(s), Dur::from_us(40));
    }

    #[test]
    fn stream_occupancy_lands_in_telemetry_and_trace() {
        let mut m = machine(2);
        m.enable_telemetry();
        m.enable_trace();
        let s = m.add_stream(1);
        m.run_on_stream(s, "interact", Dur::from_us(25), crate::Event::READY);
        assert_eq!(m.metrics().counter("stream_kernels", 1, 0), 1);
        let busy: f64 = m
            .metrics()
            .timeline("stream_busy_ns", 1, 0)
            .expect("occupancy timeline")
            .buckets()
            .iter()
            .sum();
        assert_eq!(busy, Dur::from_us(25).as_ns() as f64);
        let t = m.trace().unwrap();
        assert!(t
            .events()
            .iter()
            .any(|e| e.track == "gpu1.s0" && e.name == "interact"));
    }

    #[test]
    fn links_serialize_but_distinct_sources_are_independent() {
        let mut m = machine(3);
        let a = m.send(0, 1, 1 << 20, 1, SimTime::ZERO);
        let b = m.send(0, 1, 1 << 20, 1, SimTime::ZERO);
        let c = m.send(2, 1, 1 << 20, 1, SimTime::ZERO);
        assert!(b.start >= a.end, "same link serializes");
        assert_eq!(c.start, a.start, "distinct sources run in parallel");
    }

    #[test]
    fn node_nic_serializes_cross_node_traffic_from_distinct_gpus() {
        // GPUs 0 and 1 (node 0) each send one large message to node 1:
        // distinct pair links, but the shared egress NIC serializes them.
        let mut m = Machine::new(MachineConfig::pod_v100(2, 2));
        let a = m.send(0, 2, 4 << 20, 1, SimTime::ZERO);
        let b = m.send(1, 3, 4 << 20, 1, SimTime::ZERO);
        assert!(
            b.start >= a.end,
            "shared NIC must serialize cross-node sends"
        );
        // Intra-node traffic from the same two sources is untouched by the
        // NIC and overlaps freely.
        let mut m = Machine::new(MachineConfig::pod_v100(2, 2));
        let a = m.send(0, 1, 4 << 20, 1, SimTime::ZERO);
        let b = m.send(1, 0, 4 << 20, 1, SimTime::ZERO);
        assert_eq!(a.start, b.start, "crossbar pairs stay independent");
    }

    #[test]
    fn single_gpu_nodes_see_identical_timing_with_and_without_nic() {
        // On a 2x1 fabric the NIC and the (only) pair link have identical
        // horizons, so EXT-2's executed numbers are unchanged by the NIC.
        let mut m = Machine::new(MachineConfig::multi_node_v100(2, 1));
        let link = *m.topology().link(0, 1);
        let a = m.send(0, 1, 1 << 20, 1, SimTime::ZERO);
        let b = m.send(0, 1, 1 << 20, 1, SimTime::ZERO);
        assert_eq!(a.start, SimTime::ZERO + link.latency);
        assert_eq!(a.duration(), link.wire_time(1 << 20, 1));
        assert_eq!(b.start, a.end, "back-to-back messages abut exactly");
    }

    #[test]
    fn telemetry_snapshot_labels_fabric_tiers_and_nics() {
        // One intra-node and one inter-node transfer on a 2x2 pod: the
        // snapshot must split them across the tier labels (tier 0 = intra,
        // 1 = inter) and record the source node's NIC busy-time, and be
        // bit-identical across identical runs.
        let run = || {
            let mut m = Machine::new(MachineConfig::pod_v100(2, 2));
            m.enable_telemetry();
            m.send(0, 1, 4096, 2, SimTime::ZERO);
            m.send(0, 2, 8192, 3, SimTime::ZERO);
            m.metrics().snapshot()
        };
        let snap = run();
        assert_eq!(snap.counter("fabric_tier_messages", 0, 0), 2);
        assert_eq!(snap.counter("fabric_tier_messages", 1, 0), 3);
        assert_eq!(snap.counter("fabric_tier_payload_bytes", 0, 0), 4096);
        assert_eq!(snap.counter("fabric_tier_payload_bytes", 1, 0), 8192);
        let inter = *MachineConfig::pod_v100(2, 2).topology.link(0, 2);
        assert_eq!(
            snap.counter("fabric_tier_header_bytes", 1, 0),
            3 * inter.header_bytes as u64
        );
        let nic_busy: f64 = snap
            .timelines
            .iter()
            .filter(|(k, _)| k.name == "nic_busy_ns" && k.i == 0)
            .flat_map(|(_, buckets)| buckets.iter())
            .sum();
        let wire = inter.wire_time(8192, 3);
        assert!(
            (nic_busy - wire.as_ns() as f64).abs() < 1.0,
            "NIC busy-time {nic_busy} must equal the inter-node wire time {}",
            wire.as_ns()
        );
        assert_eq!(snap, run(), "snapshots must be deterministic");
    }

    #[test]
    fn injection_port_throttles_fanout_from_one_source() {
        // Two transfers from the same source to different peers share the
        // injection port: the second enters its (idle) link late.
        let mut m = machine(3);
        let a = m.send(0, 1, 1 << 20, 1, SimTime::ZERO);
        let c = m.send(0, 2, 1 << 20, 1, SimTime::ZERO);
        assert!(c.start > a.start, "fan-out must be injection-limited");
        // But still faster than full serialization on one link.
        assert!(c.start < a.end);
    }

    #[test]
    fn throttled_send_is_slower() {
        let mut m1 = machine(2);
        let full = m1.send_throttled(0, 1, 1 << 20, 1, SimTime::ZERO, 1.0);
        let mut m2 = machine(2);
        let half = m2.send_throttled(0, 1, 1 << 20, 1, SimTime::ZERO, 0.5);
        let r = half.duration().as_secs_f64() / full.duration().as_secs_f64();
        assert!((r - 2.0).abs() < 0.05, "ratio {r}");
    }

    #[test]
    #[should_panic(expected = "out of (0, 1]")]
    fn bad_efficiency_panics() {
        let mut m = machine(2);
        m.send_throttled(0, 1, 10, 1, SimTime::ZERO, 0.0);
    }

    #[test]
    fn many_small_messages_cost_more_wire_time() {
        let mut m1 = machine(2);
        let big = m1.send(0, 1, 1 << 20, 1, SimTime::ZERO);
        let mut m2 = machine(2);
        let small = m2.send(0, 1, 1 << 20, 4096, SimTime::ZERO);
        assert!(small.duration() > big.duration());
        assert!(m2.traffic_stats().header_overhead() > m1.traffic_stats().header_overhead());
    }

    #[test]
    fn quiet_reflects_outstanding_sends() {
        let mut m = machine(2);
        let iv = m.send(0, 1, 1 << 24, 1, SimTime::ZERO);
        assert_eq!(m.quiet(0, SimTime::ZERO), iv.end);
        assert_eq!(m.quiet(1, SimTime::ZERO), SimTime::ZERO);
        // Quiet can't go backwards in time.
        let later = iv.end + Dur::from_us(5);
        assert_eq!(m.quiet(0, later), later);
    }

    #[test]
    fn traffic_series_records_payload_only() {
        let mut m = machine(2);
        m.send(0, 1, 1000, 10, SimTime::ZERO);
        let total: f64 = m.traffic_between(0, 1).total();
        assert!((total - 1000.0).abs() < 1e-6);
        assert_eq!(m.total_traffic().total(), total);
        assert_eq!(m.traffic_between(1, 0).total(), 0.0);
    }

    #[test]
    fn stream_sync_adds_overhead() {
        let mut m = machine(1);
        let run = m.run_kernel(0, KernelShape::memory_bound(10, 1 << 16), SimTime::ZERO);
        let t = m.stream_sync(0, SimTime::ZERO);
        assert_eq!(t, run.interval.end + m.spec(0).stream_sync);
    }

    #[test]
    fn barrier_takes_max() {
        let mut m = machine(2);
        let t = m.barrier(&[SimTime::from_us(3), SimTime::from_us(9)]);
        assert_eq!(t, SimTime::from_us(9));
    }

    #[test]
    fn varied_kernel_matches_uniform_when_equal() {
        let mut m1 = machine(1);
        let shape = KernelShape::memory_bound(50, 1 << 16);
        let tau = shape.block_time(m1.spec(0), 50);
        let uniform = m1.run_kernel(0, shape, SimTime::ZERO);
        let mut m2 = machine(1);
        let varied = m2.run_kernel_varied(0, &vec![tau; 50], SimTime::ZERO);
        assert_eq!(uniform.interval.end, varied.interval.end);
        assert_eq!(varied.block_ends.len(), 50);
    }

    #[test]
    fn varied_kernel_empty() {
        let mut m = machine(1);
        let run = m.run_kernel_varied(0, &[], SimTime::from_us(1));
        assert_eq!(run.interval.start, run.interval.end);
    }

    #[test]
    fn peak_link_utilization_bounded() {
        let mut m = machine(2);
        m.send(0, 1, 1 << 26, 1, SimTime::ZERO);
        let u = m.peak_link_utilization();
        assert!(u > 0.5 && u <= 1.0, "utilization {u} out of range");
    }

    #[test]
    fn tracing_records_kernels_and_transfers() {
        let mut m = machine(2);
        assert!(m.trace().is_none());
        m.enable_trace();
        let run = m.run_kernel(0, KernelShape::memory_bound(10, 1 << 16), SimTime::ZERO);
        m.send(0, 1, 4096, 2, run.interval.end);
        m.run_kernel_varied(1, &[Dur::from_us(1)], SimTime::ZERO);
        let t = m.trace().unwrap();
        assert_eq!(t.len(), 3);
        let json = t.to_chrome_json();
        assert!(json.contains("gpu0"));
        assert!(json.contains("link0->1"));
        assert!(json.contains("4096B x2"));
    }

    #[test]
    fn try_send_without_plan_matches_send() {
        let mut m1 = machine(2);
        let a = m1.send(0, 1, 1 << 20, 4, SimTime::ZERO);
        let mut m2 = machine(2);
        let b = m2
            .try_send(0, 1, 1 << 20, 4, SimTime::ZERO)
            .expect("no faults");
        assert_eq!(a, b);
        assert_eq!(m1.traffic_stats(), m2.traffic_stats());
    }

    #[test]
    fn trivial_plan_is_timing_noop() {
        let mut m1 = machine(4);
        let mut m2 = machine(4);
        m2.install_faults(crate::FaultPlan::generate(42, 4, crate::FaultSpec::none()));
        let shape = KernelShape::memory_bound(200, 1 << 16);
        for dev in 0..4 {
            let a = m1.run_kernel(dev, shape, SimTime::ZERO);
            let b = m2.run_kernel(dev, shape, SimTime::ZERO);
            assert_eq!(a.interval, b.interval);
            assert_eq!(a.block_ends, b.block_ends);
        }
        let a = m1.try_send(0, 1, 1 << 20, 8, SimTime::ZERO).expect("clean");
        let b = m2
            .try_send(0, 1, 1 << 20, 8, SimTime::ZERO)
            .expect("trivial plan");
        assert_eq!(a, b);
        assert_eq!(m2.straggler_factor(0), 1.0);
        assert_eq!(
            m2.fault_fraction(0, 1, SimTime::ZERO, SimTime::from_ms(1)),
            0.0
        );
    }

    #[test]
    fn down_window_fails_send_with_up_time() {
        let mut m = machine(2);
        // Hand-build a plan with one down window on 0->1 via the chaos spec:
        // probe seeds until a flap covers our attempt time. Deterministic:
        // seed search itself is fixed at build time.
        let mut seed = 0u64;
        let plan = loop {
            let p = crate::FaultPlan::generate(seed, 2, crate::FaultSpec::chaos(1.0));
            if let crate::LinkState::Down { .. } =
                p.link_state(0, 1, SimTime::from_us(50) + m.topology().link(0, 1).latency)
            {
                break p;
            }
            seed += 1;
            assert!(seed < 10_000, "no flap found covering the probe instant");
        };
        m.install_faults(plan);
        match m.try_send(0, 1, 4096, 1, SimTime::from_us(50)) {
            Err(crate::FabricError::LinkDown {
                src: 0,
                dst: 1,
                at,
                up_at,
            }) => {
                assert!(up_at > at);
            }
            other => panic!("expected LinkDown, got {other:?}"),
        }
        // The failed attempt must not have touched the wire.
        assert_eq!(m.traffic_stats().messages, 0);
    }

    #[test]
    fn degraded_window_stretches_wire_time() {
        // Same construction trick: find a seed whose 0->1 link is degraded
        // (and not down) at the attempt instant.
        let mut seed = 0u64;
        let (plan, factor) = loop {
            let p = crate::FaultPlan::generate(seed, 2, crate::FaultSpec::chaos(0.7));
            let at = SimTime::from_us(50) + Dur::from_ns(1300);
            if let crate::LinkState::Up { bw_factor } = p.link_state(0, 1, at) {
                if bw_factor < 0.999 && p.spec().drop_prob == 0.0 {
                    break (p, bw_factor);
                }
                // drop_prob is nonzero under chaos; accept and handle drops below.
                if bw_factor < 0.999 {
                    break (p, bw_factor);
                }
            }
            seed += 1;
            assert!(
                seed < 10_000,
                "no degradation found covering the probe instant"
            );
        };
        let mut m = machine(2);
        m.install_faults(plan);
        let mut clean = machine(2);
        let base = clean.send(0, 1, 1 << 20, 1, SimTime::from_us(50));
        match m.try_send(0, 1, 1 << 20, 1, SimTime::from_us(50)) {
            Ok(iv) => {
                let ratio = iv.duration().as_secs_f64() / base.duration().as_secs_f64();
                // Wire time stretched by at least 1/bw_factor (jitter may add
                // more; ns rounding may shave a hair off).
                assert!(
                    ratio >= (1.0 / factor) * (1.0 - 1e-3),
                    "ratio {ratio}, factor {factor}"
                );
            }
            Err(crate::FabricError::MessageDropped { at, .. }) => {
                // Drop still consumed (stretched) wire time.
                assert!(at > base.end);
            }
            Err(e) => panic!("unexpected {e:?}"),
        }
    }

    #[test]
    fn straggler_slows_kernels_on_that_device_only() {
        // Find a seed where exactly some device straggles.
        let mut seed = 0u64;
        let plan = loop {
            let p = crate::FaultPlan::generate(seed, 2, crate::FaultSpec::chaos(1.0));
            if p.straggler_factor(0) > 1.0 && p.straggler_factor(1) == 1.0 {
                break p;
            }
            seed += 1;
            assert!(seed < 10_000);
        };
        let factor = plan.straggler_factor(0);
        let mut m = machine(2);
        m.install_faults(plan);
        let mut clean = machine(2);
        let shape = KernelShape::memory_bound(100, 1 << 16);
        let slow = m.run_kernel(0, shape, SimTime::ZERO);
        let healthy = m.run_kernel(1, shape, SimTime::ZERO);
        let base = clean.run_kernel(0, shape, SimTime::ZERO);
        assert_eq!(healthy.interval, base.interval, "non-straggler unaffected");
        let ratio = slow.interval.duration().as_secs_f64() / base.interval.duration().as_secs_f64();
        assert!(
            (ratio - factor).abs() / factor < 0.05,
            "ratio {ratio} vs factor {factor}"
        );
    }

    #[test]
    fn fault_windows_show_up_in_trace() {
        let mut m = machine(2);
        m.enable_trace();
        m.install_faults(crate::FaultPlan::generate(
            3,
            2,
            crate::FaultSpec::chaos(1.0),
        ));
        let has_fault_track = m
            .trace()
            .expect("trace enabled")
            .events()
            .iter()
            .any(|e| e.track.starts_with("fault"));
        assert!(
            has_fault_track,
            "chaos(1.0) must schedule at least one window"
        );
    }

    #[test]
    #[should_panic(expected = "fault plan generated for")]
    fn plan_gpu_count_mismatch_panics() {
        let mut m = machine(2);
        m.install_faults(crate::FaultPlan::generate(1, 4, crate::FaultSpec::none()));
    }

    #[test]
    #[should_panic(expected = "send to self")]
    fn self_send_panics() {
        let mut m = machine(2);
        m.send(1, 1, 10, 1, SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "GPU specs")]
    fn config_mismatch_panics() {
        let mut cfg = MachineConfig::dgx_v100(2);
        cfg.specs.pop();
        let _ = Machine::new(cfg);
    }
}
