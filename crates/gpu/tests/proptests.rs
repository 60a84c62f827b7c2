//! Property-based tests for the GPU machine model.

use desim::{Dur, MultiResource, SimTime};
use gpusim::{FaultPlan, FaultSpec, KernelShape, Machine, MachineConfig};
use proptest::prelude::*;

proptest! {
    /// Same-link transfers never overlap and respect issue order; traffic
    /// accounting conserves payload bytes.
    #[test]
    fn link_fifo_and_conservation(sends in prop::collection::vec((1u64..1_000_000, 1u64..64, 0u64..1000), 1..50)) {
        let mut m = Machine::new(MachineConfig::dgx_v100(2));
        let mut prev_end = SimTime::ZERO;
        let mut total = 0u64;
        let mut msgs = 0u64;
        for (payload, n_msgs, ready_us) in sends {
            let iv = m.send(0, 1, payload, n_msgs, SimTime::from_us(ready_us));
            prop_assert!(iv.start >= prev_end);
            prev_end = iv.end;
            total += payload;
            msgs += n_msgs;
        }
        let stats = m.traffic_stats();
        prop_assert_eq!(stats.payload_bytes, total);
        prop_assert_eq!(stats.messages, msgs);
        let series_total = m.traffic_between(0, 1).total();
        prop_assert!((series_total - total as f64).abs() < 1e-3 * total as f64 + 1e-6);
    }

    /// Kernel duration is monotone in both block count and bytes per block.
    #[test]
    fn kernel_duration_monotone(blocks in 1u64..50_000, bytes in 1u64..1_000_000) {
        let spec = gpusim::GpuSpec::v100();
        let base = KernelShape::memory_bound(blocks, bytes).duration(&spec);
        let more_blocks = KernelShape::memory_bound(blocks * 2, bytes).duration(&spec);
        let more_bytes = KernelShape::memory_bound(blocks, bytes * 2).duration(&spec);
        prop_assert!(more_blocks >= base);
        prop_assert!(more_bytes >= base);
    }

    /// Splitting a transfer into more messages never makes it faster, and
    /// the wire time difference is exactly the extra header bytes.
    #[test]
    fn more_messages_never_faster(payload in 1u64..10_000_000, k in 2u64..1000) {
        let mut m1 = Machine::new(MachineConfig::dgx_v100(2));
        let one = m1.send(0, 1, payload, 1, SimTime::ZERO);
        let mut m2 = Machine::new(MachineConfig::dgx_v100(2));
        let many = m2.send(0, 1, payload, k, SimTime::ZERO);
        prop_assert!(many.duration() >= one.duration());
    }

    /// The wave model's last block end equals the closed-form duration.
    #[test]
    fn wave_model_agrees_with_duration(blocks in 1u64..10_000, bytes in 256u64..1_000_000) {
        let spec = gpusim::GpuSpec::v100();
        let shape = KernelShape::memory_bound(blocks, bytes);
        let run = gpusim::KernelRun::wave_model(&shape, &spec, SimTime::ZERO);
        let d = shape.duration(&spec);
        prop_assert_eq!(run.interval.end - run.interval.start, d);
        // Block ends are non-decreasing in block index.
        for w in run.block_ends.windows(2) {
            prop_assert!(w[1] >= w[0]);
        }
    }

    /// The same fault seed yields the same plan, the same event trace and
    /// the same send outcomes — the whole chaos run is a pure function of
    /// `(seed, spec, call sequence)`.
    #[test]
    fn identical_fault_seed_identical_trace(
        seed in 0u64..1000,
        intensity in 0.05f64..1.0,
        sends in prop::collection::vec((1u64..100_000, 1u64..32, 0u64..500), 1..30),
    ) {
        let spec = FaultSpec::chaos(intensity);
        let run = || {
            let mut m = Machine::new(MachineConfig::dgx_v100(2));
            m.install_faults(FaultPlan::generate(seed, 2, spec));
            let outcomes: Vec<_> = sends
                .iter()
                .map(|&(payload, n_msgs, ready_us)| {
                    m.try_send(0, 1, payload, n_msgs, SimTime::from_us(ready_us))
                        .map(|iv| (iv.start, iv.end))
                        .map_err(|e| e.to_string())
                })
                .collect();
            let plan = m.faults().expect("plan installed");
            (plan.fingerprint(), plan.events().to_vec(), outcomes, m.finish_time())
        };
        let a = run();
        let b = run();
        prop_assert_eq!(a.0, b.0);
        prop_assert_eq!(a.1, b.1);
        prop_assert_eq!(a.2, b.2);
        prop_assert_eq!(a.3, b.3);
    }

    /// A trivial plan (intensity 0) never changes any send outcome relative
    /// to a machine with no plan at all.
    #[test]
    fn trivial_plan_never_perturbs(
        sends in prop::collection::vec((1u64..100_000, 1u64..32, 0u64..500), 1..20),
    ) {
        let mut clean = Machine::new(MachineConfig::dgx_v100(2));
        let mut faulty = Machine::new(MachineConfig::dgx_v100(2));
        faulty.install_faults(FaultPlan::generate(99, 2, FaultSpec::chaos(0.0)));
        for &(payload, n_msgs, ready_us) in &sends {
            let at = SimTime::from_us(ready_us);
            let a = clean.send(0, 1, payload, n_msgs, at);
            let b = faulty.try_send(0, 1, payload, n_msgs, at).expect("trivial plan");
            prop_assert_eq!(a, b);
        }
    }

    /// A kernel profile replayed at an arbitrary start (the stream is busy
    /// for a random span first) is the live dispatch at that start: same
    /// interval, same block ends, same resident width — and
    /// `run_kernel_varied` agrees with both. Durations (zeros included),
    /// resident widths and straggler factors all vary.
    #[test]
    fn replayed_profile_equals_live_dispatch(
        durs in prop::collection::vec(0u64..20_000, 0..200),
        sms in 1u32..5,
        per_sm in 1u32..9,
        straggler in 0u8..2,
        seed in 0u64..1000,
        busy_ns in 0u64..10_000_000,
    ) {
        let durs: Vec<Dur> = durs.into_iter().map(Dur::from_ns).collect();
        let mut cfg = MachineConfig::dgx_v100(2);
        for s in &mut cfg.specs {
            s.sm_count = sms;
            s.max_blocks_per_sm = per_sm;
        }
        let build = || {
            let mut m = Machine::new(cfg.clone());
            if straggler == 1 {
                let spec = FaultSpec {
                    straggler_prob: 1.0,
                    straggler_factor: (1.01, 2.0),
                    ..FaultSpec::none()
                };
                m.install_faults(FaultPlan::generate(seed, 2, spec));
            }
            m.run_kernel_varied(0, &[Dur::from_ns(busy_ns)], SimTime::ZERO);
            m
        };
        let (mut a, mut b) = (build(), build());
        let profile = a.kernel_profile(0, &durs);
        let ready = SimTime::from_ns(busy_ns / 2);
        let iv = a.replay_kernel(0, &profile, ready);
        let live = b.run_kernel_varied(0, &durs, ready);
        prop_assert_eq!(iv, live.interval);

        let resident = KernelShape::effective_resident(durs.len() as u64, sms * per_sm);
        let (end, ends) = dispatch_at(&durs, resident, a.straggler_factor(0), iv.start);
        prop_assert_eq!(iv.end, end);
        prop_assert_eq!(profile.resident(), resident);
        prop_assert_eq!(live.resident, resident);
        let replayed: Vec<SimTime> = profile.block_ends().iter().map(|&o| iv.start + o).collect();
        prop_assert_eq!(&replayed, &ends);
        prop_assert_eq!(&live.block_ends, &ends);
    }

    /// finish_time is the max over all recorded activity.
    #[test]
    fn finish_time_is_max(n_kernels in 1usize..10, n_sends in 0usize..10) {
        let mut m = Machine::new(MachineConfig::dgx_v100(2));
        let mut latest = SimTime::ZERO;
        for i in 0..n_kernels {
            let r = m.run_kernel(i % 2, KernelShape::memory_bound(10, 1 << 12), SimTime::ZERO);
            latest = latest.max(r.interval.end);
        }
        for _ in 0..n_sends {
            let iv = m.send(0, 1, 4096, 4, SimTime::ZERO);
            latest = latest.max(iv.end);
        }
        prop_assert_eq!(m.finish_time(), latest);
    }
}

proptest! {
    /// Node arithmetic on arbitrary pod shapes: `node_of` partitions GPUs
    /// into contiguous blocks of `per_node`, `same_node` agrees with it,
    /// every gateway is its node's lowest member, and `node_members` is the
    /// exact preimage of `node_of`.
    #[test]
    fn pod_topology_node_math_is_consistent(nodes in 1usize..12, per_node in 1usize..8) {
        let t = gpusim::Topology::multi_node(
            nodes,
            per_node,
            gpusim::LinkSpec::nvlink_v100(),
            gpusim::LinkSpec::roce(),
        );
        prop_assert_eq!(t.nodes(), nodes);
        prop_assert_eq!(t.n_gpus(), nodes * per_node);
        for g in 0..t.n_gpus() {
            prop_assert_eq!(t.node_of(g), g / per_node);
            let gw = t.gateway_of(g);
            prop_assert!(t.same_node(g, gw));
            prop_assert_eq!(gw, t.node_of(g) * per_node);
        }
        for node in 0..nodes {
            let members: Vec<usize> = t.node_members(node).collect();
            prop_assert_eq!(members.len(), per_node);
            for &m in &members {
                prop_assert_eq!(t.node_of(m), node);
            }
            prop_assert_eq!(members[0], t.gateway_of(members[0]));
        }
        for a in 0..t.n_gpus() {
            for b in 0..t.n_gpus() {
                prop_assert_eq!(t.same_node(a, b), t.node_of(a) == t.node_of(b));
            }
        }
    }

    /// Inter-node pairs ride the slow tier, intra-node pairs the crossbar —
    /// for every pair of a random pod shape.
    #[test]
    fn pod_links_match_tiers(nodes in 1usize..8, per_node in 1usize..6) {
        let intra = gpusim::LinkSpec::nvlink_v100();
        let inter = gpusim::LinkSpec::roce();
        let t = gpusim::Topology::multi_node(nodes, per_node, intra, inter);
        for (a, b) in t.pairs() {
            let l = t.link(a, b);
            let expect = if t.same_node(a, b) { &intra } else { &inter };
            prop_assert_eq!(l.bandwidth, expect.bandwidth);
            prop_assert_eq!(l.latency, expect.latency);
            prop_assert_eq!(l.header_bytes, expect.header_bytes);
        }
    }
}

/// The per-call block dispatch a kernel profile replaces: each block, its
/// duration scaled by `slow`, onto the earliest free of `resident` slots,
/// all available from the kernel's actual `start`.
fn dispatch_at(durs: &[Dur], resident: u32, slow: f64, start: SimTime) -> (SimTime, Vec<SimTime>) {
    let mut slots = MultiResource::new(resident as usize);
    let ends = durs
        .iter()
        .map(|&d| {
            let d = if slow != 1.0 { d * slow } else { d };
            slots.acquire(start, d).end
        })
        .collect();
    let end = if durs.is_empty() {
        start
    } else {
        slots.all_free()
    };
    (end, ends)
}
