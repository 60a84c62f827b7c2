//! `all_to_all_single` — the baseline's layout-conversion collective.
//!
//! Each algorithm's schedule exists once, generic over the wire primitive
//! it books transfers with: [`all_to_all_timed`] passes the infallible
//! [`Machine::send_throttled`], [`try_all_to_all_timed`] the retrying
//! [`Machine::try_send_retry`]. On a clean fabric the two book the same
//! intervals in the same order.

use std::convert::Infallible;

use desim::{Interval, SimTime};
use gpusim::{FabricError, Machine};

use crate::{d2d_copy_time, Algorithm, CollectiveConfig, WorkHandle, ELEM_BYTES};

/// PyTorch-style `all_to_all_single` with equal splits: every device's input
/// is cut into `n` equal chunks, chunk `j` of device `i` lands at slot `i`
/// of device `j`'s output. Inputs must all have the same length, divisible
/// by the device count.
///
/// Returns the received buffers and a [`WorkHandle`] with per-device
/// completion times.
pub fn all_to_all_single(
    machine: &mut Machine,
    cfg: &CollectiveConfig,
    inputs: &[Vec<f32>],
    ready: &[SimTime],
) -> (Vec<Vec<f32>>, WorkHandle) {
    let n = machine.n_gpus();
    assert_eq!(inputs.len(), n, "one input buffer per device");
    let len = inputs[0].len();
    for (i, buf) in inputs.iter().enumerate() {
        assert_eq!(buf.len(), len, "input {i} length mismatch");
    }
    assert_eq!(
        len % n,
        0,
        "input length {len} not divisible by {n} devices"
    );
    let per = len / n;
    let counts: Vec<Vec<usize>> = vec![vec![per; n]; n];
    all_to_all_varied(machine, cfg, inputs, &counts, ready)
}

/// `all_to_all_single` with explicit per-pair element counts:
/// `send_counts[i][j]` elements travel from device `i` to device `j`,
/// taken from `inputs[i]` in destination order. Device `j`'s output is the
/// concatenation over sources `i` of those segments, in source order.
pub fn all_to_all_varied(
    machine: &mut Machine,
    cfg: &CollectiveConfig,
    inputs: &[Vec<f32>],
    send_counts: &[Vec<usize>],
    ready: &[SimTime],
) -> (Vec<Vec<f32>>, WorkHandle) {
    let bytes = count_bytes(machine, inputs, send_counts);
    let work = all_to_all_timed(machine, cfg, &bytes, ready);
    (shuffle_functional(inputs, send_counts), work)
}

/// Fault-aware [`all_to_all_varied`]: same functional output, fallible
/// timing. Functional delivery is computed first — under retries every row
/// still arrives, only later; rows are abandoned only if the collective
/// errors, and then the caller decides what to degrade.
pub fn try_all_to_all_varied(
    machine: &mut Machine,
    cfg: &CollectiveConfig,
    inputs: &[Vec<f32>],
    send_counts: &[Vec<usize>],
    ready: &[SimTime],
) -> Result<(Vec<Vec<f32>>, WorkHandle), FabricError> {
    let bytes = count_bytes(machine, inputs, send_counts);
    let work = try_all_to_all_timed(machine, cfg, &bytes, ready)?;
    Ok((shuffle_functional(inputs, send_counts), work))
}

/// Validate a varied all-to-all's shapes and convert its element counts to
/// the byte matrix the timed schedules take.
fn count_bytes(
    machine: &Machine,
    inputs: &[Vec<f32>],
    send_counts: &[Vec<usize>],
) -> Vec<Vec<u64>> {
    let n = machine.n_gpus();
    assert_eq!(inputs.len(), n, "one input buffer per device");
    assert_eq!(send_counts.len(), n, "one send-count row per device");
    for (i, row) in send_counts.iter().enumerate() {
        assert_eq!(row.len(), n, "send_counts[{i}] must have {n} columns");
        let total: usize = row.iter().sum();
        assert_eq!(
            total,
            inputs[i].len(),
            "send_counts[{i}] must cover the whole input"
        );
    }
    send_counts
        .iter()
        .map(|row| row.iter().map(|&c| c as u64 * ELEM_BYTES).collect())
        .collect()
}

/// Timing-only `all_to_all`: simulate the wire traffic for a byte matrix
/// (`send_bytes[i][j]` bytes from device `i` to device `j`) without moving
/// any functional data. Used by paper-scale runs where materializing the
/// buffers would be wasteful.
pub fn all_to_all_timed(
    machine: &mut Machine,
    cfg: &CollectiveConfig,
    send_bytes: &[Vec<u64>],
    ready: &[SimTime],
) -> WorkHandle {
    let eff = cfg.protocol_efficiency;
    let done = schedule(
        machine,
        cfg,
        send_bytes,
        ready,
        &mut |m, src, dst, bytes, msgs, at| {
            Ok::<_, Infallible>(m.send_throttled(src, dst, bytes, msgs, at, eff))
        },
    );
    let work = WorkHandle::new(match done {
        Ok(done) => done,
        Err(never) => match never {},
    });
    record_collective_span(machine, ready, &work);
    work
}

/// Fault-aware [`all_to_all_timed`]: every chunk is retried under the
/// config's retry policy when its link is down or the chunk is dropped; the
/// collective fails with [`FabricError::RetryExhausted`] only once a chunk's
/// retry budget is spent. On a clean fabric (or with no fault plan
/// installed) timing is bit-identical to the infallible path.
pub fn try_all_to_all_timed(
    machine: &mut Machine,
    cfg: &CollectiveConfig,
    send_bytes: &[Vec<u64>],
    ready: &[SimTime],
) -> Result<WorkHandle, FabricError> {
    let mut retries = 0u64;
    let done = schedule(
        machine,
        cfg,
        send_bytes,
        ready,
        &mut |m, src, dst, bytes, msgs, at| {
            let (iv, attempts) = m.try_send_retry(
                src,
                dst,
                bytes,
                msgs,
                at,
                cfg.protocol_efficiency,
                cfg.retry,
            )?;
            retries += u64::from(attempts - 1);
            Ok(iv)
        },
    )?;
    let work = WorkHandle::with_retries(done, retries);
    record_collective_span(machine, ready, &work);
    Ok(work)
}

/// Telemetry: one collective call plus its phase span (earliest participant
/// ready → last delivery). No-op when the machine's registry is disabled.
fn record_collective_span(machine: &mut Machine, ready: &[SimTime], work: &WorkHandle) {
    let m = machine.metrics_mut();
    if !m.is_enabled() {
        return;
    }
    m.incr("collective_calls", 0, 0);
    let start = ready.iter().copied().fold(work.all_done(), SimTime::min);
    let end = work.all_done();
    m.span("collective_span_ns", 0, 0, start, end);
    if end > start {
        m.observe(
            "collective_span_us",
            0,
            0,
            telemetry::US_BOUNDS,
            end.since(start).as_ns() / 1_000,
        );
    }
}

/// The algorithm-independent functional data movement of an all-to-all.
fn shuffle_functional(inputs: &[Vec<f32>], send_counts: &[Vec<usize>]) -> Vec<Vec<f32>> {
    let n = inputs.len();
    let offsets: Vec<Vec<usize>> = send_counts
        .iter()
        .map(|row| {
            let mut off = 0;
            row.iter()
                .map(|&c| {
                    let o = off;
                    off += c;
                    o
                })
                .collect()
        })
        .collect();
    (0..n)
        .map(|dst| {
            let mut out = Vec::with_capacity((0..n).map(|s| send_counts[s][dst]).sum());
            for src in 0..n {
                let o = offsets[src][dst];
                out.extend_from_slice(&inputs[src][o..o + send_counts[src][dst]]);
            }
            out
        })
        .collect()
}

/// A schedule's wire primitive: book one transfer of `bytes` as `messages`
/// messages from `src` to `dst`, ready at `at`, and return its delivery
/// interval — or the fabric error that ends the collective.
trait Sender<E>: FnMut(&mut Machine, usize, usize, u64, u64, SimTime) -> Result<Interval, E> {}

impl<E, F> Sender<E> for F where
    F: FnMut(&mut Machine, usize, usize, u64, u64, SimTime) -> Result<Interval, E>
{
}

/// Run `cfg.algorithm`'s schedule over `send`; returns per-device
/// completion instants.
fn schedule<E>(
    machine: &mut Machine,
    cfg: &CollectiveConfig,
    send_bytes: &[Vec<u64>],
    ready: &[SimTime],
    send: &mut impl Sender<E>,
) -> Result<Vec<SimTime>, E> {
    let n = machine.n_gpus();
    assert_eq!(send_bytes.len(), n, "one byte row per device");
    assert_eq!(ready.len(), n, "one ready time per device");
    for (i, row) in send_bytes.iter().enumerate() {
        assert_eq!(row.len(), n, "send_bytes[{i}] must have {n} columns");
    }
    let t0: Vec<SimTime> = ready.iter().map(|&r| r + cfg.call_overhead).collect();
    match cfg.algorithm {
        Algorithm::Ring => ring(machine, cfg, send_bytes, t0, send),
        // On a single-node topology the hierarchical schedule is exactly
        // the direct one, bit for bit.
        Algorithm::Hierarchical if machine.topology().nodes() > 1 => {
            hierarchical(machine, cfg, send_bytes, &t0, send)
        }
        Algorithm::Direct | Algorithm::Hierarchical => {
            let mut done = vec![SimTime::ZERO; n];
            pairwise(machine, cfg, send_bytes, &t0, false, &mut done, send)?;
            Ok(done)
        }
    }
}

/// Pipeline-chunked transfer of `bytes` from `src` to `dst`, every chunk
/// one message ready at `at`; returns the last delivery time.
fn send_chunked<E>(
    machine: &mut Machine,
    cfg: &CollectiveConfig,
    src: usize,
    dst: usize,
    bytes: u64,
    at: SimTime,
    send: &mut impl Sender<E>,
) -> Result<SimTime, E> {
    let mut remaining = bytes;
    let mut last = at;
    while remaining > 0 {
        let this = remaining.min(cfg.chunk_bytes);
        last = last.max(send(machine, src, dst, this, 1, at)?.end);
        remaining -= this;
    }
    Ok(last)
}

/// Pairwise schedule: each device pushes its per-destination segment
/// straight to the peer, chunked; the self segment is a device-local copy.
/// With `intra_only`, pairs on different nodes are skipped (the
/// hierarchical schedule stages those through the gateways).
fn pairwise<E>(
    machine: &mut Machine,
    cfg: &CollectiveConfig,
    send_bytes: &[Vec<u64>],
    t0: &[SimTime],
    intra_only: bool,
    done: &mut [SimTime],
    send: &mut impl Sender<E>,
) -> Result<(), E> {
    let n = machine.n_gpus();
    for src in 0..n {
        for dst in 0..n {
            if intra_only && !machine.topology().same_node(src, dst) {
                continue;
            }
            let bytes = send_bytes[src][dst];
            if dst == src {
                let local = t0[src] + d2d_copy_time(bytes, machine.spec(src).mem_bw);
                done[src] = done[src].max(local);
                continue;
            }
            if bytes == 0 {
                done[dst] = done[dst].max(t0[src]);
                continue;
            }
            let last = send_chunked(machine, cfg, src, dst, bytes, t0[src], send)?;
            done[dst] = done[dst].max(last);
            done[src] = done[src].max(last);
        }
    }
    Ok(())
}

/// Two-level pod schedule. Intra-node pairs follow the direct pairwise
/// schedule over the crossbar. Cross-node traffic is staged in three hops:
/// each source forwards its per-destination-node segment to its own node's
/// gateway (intra link, or a local staging copy when the source *is* the
/// gateway), the gateway ships **one** aggregate chunked transfer per
/// ordered node pair across the slow tier — paying the inter-node
/// per-message cost once per node pair instead of once per GPU pair — and
/// the destination gateway scatters each source-node's bundle to its final
/// devices over the crossbar.
fn hierarchical<E>(
    machine: &mut Machine,
    cfg: &CollectiveConfig,
    send_bytes: &[Vec<u64>],
    t0: &[SimTime],
    send: &mut impl Sender<E>,
) -> Result<Vec<SimTime>, E> {
    let mut done = vec![SimTime::ZERO; machine.n_gpus()];
    // Intra-node traffic and self-copies: the direct schedule within a node.
    pairwise(machine, cfg, send_bytes, t0, true, &mut done, send)?;

    // Cross-node traffic: gather → one aggregate inter-node transfer per
    // ordered node pair → scatter. The hops are issued as *global phases*
    // (every pair's gather, then every pair's inter-node transfer, then
    // every pair's scatter): the fabric books resources in call order with
    // a moving horizon, so interleaving the phases per node pair would
    // ratchet a gateway's injection horizon with one pair's late scatter
    // before the reverse pair's gather was even issued, serializing
    // traffic that physically overlaps.
    let mut pairs = gather_phase(machine, cfg, send_bytes, t0, &mut done, send)?;
    // Inter-node transfers, earliest-ready first — the order a real NIC
    // would drain its send queue.
    pairs.sort_by_key(|p| (p.agg_ready, p.gw_s, p.gw_d));
    for p in &mut pairs {
        // Blame: the aggregate transfer is gated by the gather hop landing
        // on the source gateway, not by the gateway's own kernel.
        anchor_on_inbound(machine, p.gw_s);
        let arrive = send_chunked(machine, cfg, p.gw_s, p.gw_d, p.total, p.agg_ready, send)?;
        done[p.gw_s] = done[p.gw_s].max(arrive);
        p.arrive = arrive;
    }
    // Scatters, earliest-arrival first for the same reason.
    pairs.sort_by_key(|p| (p.arrive, p.gw_s, p.gw_d));
    for p in &pairs {
        // Blame: scatters are gated by the aggregate landing on the
        // destination gateway.
        anchor_on_inbound(machine, p.gw_d);
        for &d in &p.dst_members {
            let bytes = p.per_dst[d];
            if bytes == 0 {
                continue;
            }
            let end = if d == p.gw_d {
                p.arrive + d2d_copy_time(bytes, machine.spec(d).mem_bw)
            } else {
                send_chunked(machine, cfg, p.gw_d, d, bytes, p.arrive, send)?
            };
            done[p.gw_d] = done[p.gw_d].max(end);
            done[d] = done[d].max(end);
        }
    }
    Ok(done)
}

/// Blame: re-anchor wire spans `gw` issues next on the last transfer that
/// landed on it (no-op when blame is off or nothing has landed).
fn anchor_on_inbound(machine: &mut Machine, gw: usize) {
    if let Some(b) = machine.blame_mut() {
        let inbound = b.last_inbound(gw as u32);
        if inbound.is_some() {
            b.set_device_cause(gw as u32, inbound);
        }
    }
}

/// The staged state of one ordered node pair between the hierarchical
/// schedule's phases.
struct PairPlan {
    gw_s: usize,
    gw_d: usize,
    dst_members: Vec<usize>,
    /// Bytes bound for each final destination (indexed by global GPU id).
    per_dst: Vec<u64>,
    /// Aggregate bytes crossing the inter-node tier for this pair.
    total: u64,
    /// When the source gateway holds the whole bundle.
    agg_ready: SimTime,
    /// When the destination gateway holds it (set by the inter phase).
    arrive: SimTime,
}

/// Phase one of the hierarchical schedule: every source forwards its
/// cross-node segments to its node's gateway. Returns one [`PairPlan`] per
/// ordered node pair with traffic. A failed hop parks the first error and
/// the phase keeps issuing, so every gather books before the collective
/// fails.
fn gather_phase<E>(
    machine: &mut Machine,
    cfg: &CollectiveConfig,
    send_bytes: &[Vec<u64>],
    t0: &[SimTime],
    done: &mut [SimTime],
    send: &mut impl Sender<E>,
) -> Result<Vec<PairPlan>, E> {
    let topo = machine.topology().clone();
    let n = machine.n_gpus();
    let nodes = topo.nodes();
    let mut pairs = Vec::new();
    let mut err = None;
    for sn in 0..nodes {
        let src_members: Vec<usize> = topo.node_members(sn).collect();
        let gw_s = src_members[0];
        for dn in 0..nodes {
            if dn == sn {
                continue;
            }
            let dst_members: Vec<usize> = topo.node_members(dn).collect();
            let gw_d = dst_members[0];
            let mut per_dst = vec![0u64; n];
            let mut total = 0u64;
            let mut agg_ready = SimTime::ZERO;
            for &src in &src_members {
                let bytes: u64 = dst_members.iter().map(|&d| send_bytes[src][d]).sum();
                for &d in &dst_members {
                    per_dst[d] += send_bytes[src][d];
                    // Zero-byte floor, matching the direct schedule.
                    done[d] = done[d].max(t0[src]);
                }
                if bytes == 0 {
                    continue;
                }
                total += bytes;
                let arrive = if src == gw_s {
                    t0[src] + d2d_copy_time(bytes, machine.spec(src).mem_bw)
                } else {
                    match send_chunked(machine, cfg, src, gw_s, bytes, t0[src], send) {
                        Ok(last) => last,
                        Err(e) => {
                            err.get_or_insert(e);
                            t0[src]
                        }
                    }
                };
                done[src] = done[src].max(arrive);
                agg_ready = agg_ready.max(arrive);
            }
            if total == 0 {
                continue;
            }
            pairs.push(PairPlan {
                gw_s,
                gw_d,
                dst_members,
                per_dst,
                total,
                agg_ready,
                arrive: SimTime::ZERO,
            });
        }
    }
    err.map_or(Ok(pairs), Err)
}

/// Ring schedule: `n − 1` neighbor steps; parcels hop until they reach their
/// destination. Total wire volume exceeds the direct schedule (multi-hop),
/// which is why NCCL prefers peer-to-peer on a crossbar.
fn ring<E>(
    machine: &mut Machine,
    cfg: &CollectiveConfig,
    send_bytes: &[Vec<u64>],
    mut t: Vec<SimTime>,
    send: &mut impl Sender<E>,
) -> Result<Vec<SimTime>, E> {
    let n = machine.n_gpus();
    if n == 1 {
        return Ok(t);
    }
    // Parcels held at each rank: (dst, bytes).
    let mut held: Vec<Vec<(usize, u64)>> = (0..n)
        .map(|src| {
            (0..n)
                .filter(|&d| d != src)
                .map(|d| (d, send_bytes[src][d]))
                .filter(|&(_, b)| b > 0)
                .collect()
        })
        .collect();
    let mut done = t.clone();
    // Local self-copy happens immediately.
    for src in 0..n {
        let bytes = send_bytes[src][src];
        let local = t[src] + d2d_copy_time(bytes, machine.spec(src).mem_bw);
        done[src] = done[src].max(local);
    }
    for _step in 1..n {
        let mut arriving: Vec<Vec<(usize, u64)>> = vec![Vec::new(); n];
        let mut arrive_time = vec![SimTime::ZERO; n];
        for src in 0..n {
            let next = (src + 1) % n;
            let parcels = std::mem::take(&mut held[src]);
            if parcels.is_empty() {
                continue;
            }
            let bytes: u64 = parcels.iter().map(|&(_, b)| b).sum();
            let iv = send(machine, src, next, bytes, cfg.n_chunks(bytes), t[src])?;
            done[src] = done[src].max(iv.end);
            arrive_time[next] = arrive_time[next].max(iv.end);
            arriving[next].extend(parcels);
        }
        for rank in 0..n {
            let mut keep = Vec::new();
            for (dst, bytes) in arriving[rank].drain(..) {
                if dst == rank {
                    done[rank] = done[rank].max(arrive_time[rank]);
                } else {
                    keep.push((dst, bytes));
                }
            }
            held[rank] = keep;
            t[rank] = t[rank].max(arrive_time[rank]);
        }
    }
    Ok(done)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpusim::MachineConfig;

    fn ready(n: usize) -> Vec<SimTime> {
        vec![SimTime::ZERO; n]
    }

    /// The reference semantics: output[j] = concat_i input[i].chunk(j).
    fn reference_equal(inputs: &[Vec<f32>]) -> Vec<Vec<f32>> {
        let n = inputs.len();
        let per = inputs[0].len() / n;
        (0..n)
            .map(|dst| {
                let mut out = Vec::new();
                for input in inputs {
                    out.extend_from_slice(&input[dst * per..(dst + 1) * per]);
                }
                out
            })
            .collect()
    }

    #[test]
    fn equal_split_matches_reference() {
        let n = 4;
        let mut m = Machine::new(MachineConfig::dgx_v100(n));
        let inputs: Vec<Vec<f32>> = (0..n)
            .map(|i| (0..8).map(|k| (i * 100 + k) as f32).collect())
            .collect();
        let (out, work) =
            all_to_all_single(&mut m, &CollectiveConfig::default(), &inputs, &ready(n));
        assert_eq!(out, reference_equal(&inputs));
        assert!(work.all_done() > SimTime::ZERO);
    }

    #[test]
    fn two_gpu_swap() {
        let mut m = Machine::new(MachineConfig::dgx_v100(2));
        let inputs = vec![vec![1.0, 2.0, 3.0, 4.0], vec![5.0, 6.0, 7.0, 8.0]];
        let (out, _) = all_to_all_single(&mut m, &CollectiveConfig::default(), &inputs, &ready(2));
        assert_eq!(out[0], vec![1.0, 2.0, 5.0, 6.0]);
        assert_eq!(out[1], vec![3.0, 4.0, 7.0, 8.0]);
    }

    #[test]
    fn varied_splits() {
        let mut m = Machine::new(MachineConfig::dgx_v100(2));
        // Device 0 sends 1 element to itself, 3 to device 1.
        // Device 1 sends 2 to device 0, 0 to itself.
        let inputs = vec![vec![10.0, 20.0, 30.0, 40.0], vec![50.0, 60.0]];
        let counts = vec![vec![1, 3], vec![2, 0]];
        let (out, _) = all_to_all_varied(
            &mut m,
            &CollectiveConfig::default(),
            &inputs,
            &counts,
            &ready(2),
        );
        assert_eq!(out[0], vec![10.0, 50.0, 60.0]);
        assert_eq!(out[1], vec![20.0, 30.0, 40.0]);
    }

    #[test]
    fn ring_moves_more_bytes_than_direct() {
        let n = 4;
        let inputs: Vec<Vec<f32>> = (0..n).map(|_| vec![1.0f32; 4096]).collect();
        let mut md = Machine::new(MachineConfig::dgx_v100(n));
        let (out_d, _) =
            all_to_all_single(&mut md, &CollectiveConfig::default(), &inputs, &ready(n));
        let mut mr = Machine::new(MachineConfig::dgx_v100(n));
        let (out_r, _) = all_to_all_single(
            &mut mr,
            &CollectiveConfig::default().with_algorithm(Algorithm::Ring),
            &inputs,
            &ready(n),
        );
        assert_eq!(out_d, out_r, "algorithms must agree functionally");
        assert!(
            mr.traffic_stats().payload_bytes > md.traffic_stats().payload_bytes,
            "ring multi-hop must move more total bytes"
        );
    }

    #[test]
    fn single_device_is_local_copy_only() {
        let mut m = Machine::new(MachineConfig::dgx_v100(1));
        let inputs = vec![vec![1.0, 2.0]];
        for alg in [Algorithm::Direct, Algorithm::Ring] {
            let (out, work) = all_to_all_single(
                &mut m,
                &CollectiveConfig::default().with_algorithm(alg),
                &inputs,
                &ready(1),
            );
            assert_eq!(out[0], inputs[0]);
            assert!(work.all_done() >= SimTime::ZERO + CollectiveConfig::default().call_overhead);
        }
        assert_eq!(m.traffic_stats().messages, 0, "no wire traffic on 1 GPU");
    }

    #[test]
    fn completion_respects_ready_times() {
        let mut m = Machine::new(MachineConfig::dgx_v100(2));
        let inputs = vec![vec![0.0f32; 1024], vec![0.0f32; 1024]];
        let late = SimTime::from_ms(5);
        let (_, work) = all_to_all_single(
            &mut m,
            &CollectiveConfig::default(),
            &inputs,
            &[late, SimTime::ZERO],
        );
        // Device 1 can't have the data destined from device 0 before `late`.
        assert!(work.done_at(1) > late);
    }

    #[test]
    fn chunking_splits_messages() {
        let mut m = Machine::new(MachineConfig::dgx_v100(2));
        let inputs = vec![vec![0.0f32; 2048], vec![0.0f32; 2048]];
        let cfg = CollectiveConfig::default().with_chunk_bytes(1024);
        let (_, _) = all_to_all_single(&mut m, &cfg, &inputs, &ready(2));
        // Each device sends 1024 elements = 4096 bytes = 4 chunks.
        assert_eq!(m.traffic_stats().messages, 8);
    }

    #[test]
    fn try_timed_without_faults_matches_timed() {
        let n = 4;
        let bytes: Vec<Vec<u64>> = (0..n).map(|_| vec![1 << 16; n]).collect();
        for alg in [Algorithm::Direct, Algorithm::Ring] {
            let cfg = CollectiveConfig::default().with_algorithm(alg);
            let mut m1 = Machine::new(MachineConfig::dgx_v100(n));
            let a = all_to_all_timed(&mut m1, &cfg, &bytes, &ready(n));
            let mut m2 = Machine::new(MachineConfig::dgx_v100(n));
            let b = try_all_to_all_timed(&mut m2, &cfg, &bytes, &ready(n)).expect("clean");
            for dev in 0..n {
                assert_eq!(a.done_at(dev), b.done_at(dev), "{alg:?} dev {dev}");
            }
            assert_eq!(b.retries(), 0);
            assert_eq!(m1.traffic_stats(), m2.traffic_stats());
        }
    }

    #[test]
    fn try_varied_matches_functional_reference() {
        let mut m = Machine::new(MachineConfig::dgx_v100(2));
        let inputs = vec![vec![10.0, 20.0, 30.0, 40.0], vec![50.0, 60.0]];
        let counts = vec![vec![1, 3], vec![2, 0]];
        let (out, work) = try_all_to_all_varied(
            &mut m,
            &CollectiveConfig::default(),
            &inputs,
            &counts,
            &ready(2),
        )
        .expect("clean fabric");
        assert_eq!(out[0], vec![10.0, 50.0, 60.0]);
        assert_eq!(out[1], vec![20.0, 30.0, 40.0]);
        assert!(work.all_done() > SimTime::ZERO);
    }

    #[test]
    fn try_timed_survives_chaos() {
        use gpusim::{FaultPlan, FaultSpec};
        let n = 4;
        let bytes: Vec<Vec<u64>> = (0..n).map(|_| vec![1 << 18; n]).collect();
        // A moderately hostile fabric: the collective must either complete
        // (possibly with retries) or fail with a typed error — never panic.
        let mut completions = 0;
        let mut total_retries = 0;
        for seed in 0..20u64 {
            let mut m = Machine::new(MachineConfig::dgx_v100(n));
            m.install_faults(FaultPlan::generate(seed, n, FaultSpec::chaos(0.8)));
            match try_all_to_all_timed(&mut m, &CollectiveConfig::default(), &bytes, &ready(n)) {
                Ok(w) => {
                    completions += 1;
                    total_retries += w.retries();
                }
                Err(e) => assert!(matches!(e, FabricError::RetryExhausted { .. })),
            }
        }
        assert!(completions > 0, "some seeds must complete");
        assert!(
            total_retries > 0,
            "chaos(0.8) must force at least one retry"
        );
    }

    #[test]
    fn hierarchical_matches_direct_bit_for_bit_at_every_single_node_width() {
        // The single-node delegation must be exact at every crossbar width,
        // including degenerate 1-GPU machines and non-uniform matrices.
        for n in [1usize, 2, 4, 8] {
            let bytes: Vec<Vec<u64>> = (0..n)
                .map(|s| {
                    (0..n)
                        .map(|d| ((s * 7 + d * 13) % 9) as u64 * 50_000)
                        .collect()
                })
                .collect();
            let mut md = Machine::new(MachineConfig::dgx_v100(n));
            let d = all_to_all_timed(&mut md, &CollectiveConfig::default(), &bytes, &ready(n));
            let mut mh = Machine::new(MachineConfig::dgx_v100(n));
            let h = all_to_all_timed(
                &mut mh,
                &CollectiveConfig::default().with_algorithm(Algorithm::Hierarchical),
                &bytes,
                &ready(n),
            );
            for dev in 0..n {
                assert_eq!(d.done_at(dev), h.done_at(dev), "width {n} dev {dev}");
            }
            assert_eq!(md.traffic_stats(), mh.traffic_stats(), "width {n}");
        }
    }

    #[test]
    fn hierarchical_on_single_node_is_exactly_direct() {
        let n = 4;
        let bytes: Vec<Vec<u64>> = (0..n).map(|_| vec![100_000; n]).collect();
        let mut md = Machine::new(MachineConfig::dgx_v100(n));
        let d = all_to_all_timed(&mut md, &CollectiveConfig::default(), &bytes, &ready(n));
        let mut mh = Machine::new(MachineConfig::dgx_v100(n));
        let h = all_to_all_timed(
            &mut mh,
            &CollectiveConfig::default().with_algorithm(Algorithm::Hierarchical),
            &bytes,
            &ready(n),
        );
        for dev in 0..n {
            assert_eq!(d.done_at(dev), h.done_at(dev), "dev {dev}");
        }
        assert_eq!(md.traffic_stats(), mh.traffic_stats());
    }

    #[test]
    fn hierarchical_functionally_matches_direct_on_pods() {
        let mut md = Machine::new(MachineConfig::pod_v100(2, 2));
        let mut mh = Machine::new(MachineConfig::pod_v100(2, 2));
        let inputs: Vec<Vec<f32>> = (0..4)
            .map(|i| (0..8).map(|k| (i * 100 + k) as f32).collect())
            .collect();
        let (out_d, _) =
            all_to_all_single(&mut md, &CollectiveConfig::default(), &inputs, &ready(4));
        let (out_h, _) = all_to_all_single(
            &mut mh,
            &CollectiveConfig::default().with_algorithm(Algorithm::Hierarchical),
            &inputs,
            &ready(4),
        );
        assert_eq!(out_d, out_h, "schedules must agree functionally");
    }

    #[test]
    fn hierarchical_sends_one_inter_node_transfer_per_node_pair() {
        // 2 nodes x 2 GPUs, small per-pair segments: the direct schedule
        // crosses the slow tier once per cross-node GPU pair (8 messages);
        // the hierarchical one crosses once per ordered node pair (2).
        let bytes: Vec<Vec<u64>> = (0..4).map(|_| vec![1024; 4]).collect();
        let count_inter = |m: &Machine| {
            let t = m.metrics().counter("fabric_tier_messages", 1, 0);
            t
        };
        let mut md = Machine::new(MachineConfig::pod_v100(2, 2));
        md.enable_telemetry();
        let _ = all_to_all_timed(&mut md, &CollectiveConfig::default(), &bytes, &ready(4));
        let mut mh = Machine::new(MachineConfig::pod_v100(2, 2));
        mh.enable_telemetry();
        let h = all_to_all_timed(
            &mut mh,
            &CollectiveConfig::default().with_algorithm(Algorithm::Hierarchical),
            &bytes,
            &ready(4),
        );
        assert_eq!(count_inter(&md), 8);
        assert_eq!(count_inter(&mh), 2);
        assert!(h.all_done() > SimTime::ZERO);
        // Same payload crosses the slow tier either way.
        assert_eq!(
            md.metrics().counter("fabric_tier_payload_bytes", 1, 0),
            mh.metrics().counter("fabric_tier_payload_bytes", 1, 0),
        );
    }

    #[test]
    fn try_hierarchical_without_faults_matches_timed() {
        let bytes: Vec<Vec<u64>> = (0..8).map(|_| vec![1 << 14; 8]).collect();
        let cfg = CollectiveConfig::default().with_algorithm(Algorithm::Hierarchical);
        let mut m1 = Machine::new(MachineConfig::pod_v100(2, 4));
        let a = all_to_all_timed(&mut m1, &cfg, &bytes, &ready(8));
        let mut m2 = Machine::new(MachineConfig::pod_v100(2, 4));
        let b = try_all_to_all_timed(&mut m2, &cfg, &bytes, &ready(8)).expect("clean");
        for dev in 0..8 {
            assert_eq!(a.done_at(dev), b.done_at(dev), "dev {dev}");
        }
        assert_eq!(b.retries(), 0);
        assert_eq!(m1.traffic_stats(), m2.traffic_stats());
    }

    #[test]
    fn try_hierarchical_records_the_same_blame_spans_as_timed() {
        // One schedule, two senders: on a clean pod the fallible path must
        // book and blame every hop exactly as the infallible one does,
        // including the gateway hops' re-anchored causes.
        let bytes: Vec<Vec<u64>> = (0..4)
            .map(|s| {
                (0..4)
                    .map(|d| ((s * 5 + d * 3) % 7 + 1) as u64 * 40_000)
                    .collect()
            })
            .collect();
        let cfg = CollectiveConfig::default().with_algorithm(Algorithm::Hierarchical);
        let mut m1 = Machine::new(MachineConfig::pod_v100(2, 2));
        m1.enable_blame();
        all_to_all_timed(&mut m1, &cfg, &bytes, &ready(4));
        let mut m2 = Machine::new(MachineConfig::pod_v100(2, 2));
        m2.enable_blame();
        try_all_to_all_timed(&mut m2, &cfg, &bytes, &ready(4)).expect("clean");
        let (a, b) = (m1.blame().unwrap().spans(), m2.blame().unwrap().spans());
        assert!(
            a.iter().any(|s| s.cause.is_some()),
            "gateway hops carry causes"
        );
        assert_eq!(a, b);
    }

    #[test]
    fn try_hierarchical_survives_tiered_chaos() {
        use gpusim::{FaultPlan, FaultSpec};
        let bytes: Vec<Vec<u64>> = (0..4).map(|_| vec![1 << 18; 4]).collect();
        let cfg = CollectiveConfig::default().with_algorithm(Algorithm::Hierarchical);
        let mut completions = 0;
        for seed in 0..20u64 {
            let mut m = Machine::new(MachineConfig::pod_v100(2, 2));
            let topo = m.topology().clone();
            m.install_faults(FaultPlan::generate_tiered(
                seed,
                &topo,
                FaultSpec::none(),
                FaultSpec::chaos(0.8),
            ));
            match try_all_to_all_timed(&mut m, &cfg, &bytes, &ready(4)) {
                Ok(_) => completions += 1,
                Err(e) => assert!(matches!(e, FabricError::RetryExhausted { .. })),
            }
        }
        assert!(completions > 0, "some seeds must complete");
    }

    #[test]
    fn wait_deadline_reports_timeout() {
        let mut m = Machine::new(MachineConfig::dgx_v100(2));
        let inputs = vec![vec![0.0f32; 1 << 16], vec![0.0f32; 1 << 16]];
        let (_, work) = all_to_all_single(&mut m, &CollectiveConfig::default(), &inputs, &ready(2));
        let fine = work.wait(&mut m, 0, SimTime::ZERO);
        assert_eq!(
            work.wait_deadline(&mut m, 0, SimTime::ZERO, fine)
                .expect("met"),
            fine
        );
        match work.wait_deadline(&mut m, 0, SimTime::ZERO, SimTime::from_ns(1)) {
            Err(FabricError::Timeout { completes_at, .. }) => assert_eq!(completes_at, fine),
            other => panic!("expected Timeout, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn unbalanced_equal_split_panics() {
        let mut m = Machine::new(MachineConfig::dgx_v100(2));
        let inputs = vec![vec![0.0f32; 3], vec![0.0f32; 3]];
        let _ = all_to_all_single(&mut m, &CollectiveConfig::default(), &inputs, &ready(2));
    }

    #[test]
    #[should_panic(expected = "cover the whole input")]
    fn bad_counts_panic() {
        let mut m = Machine::new(MachineConfig::dgx_v100(2));
        let inputs = vec![vec![0.0f32; 4], vec![0.0f32; 4]];
        let counts = vec![vec![1, 1], vec![2, 2]];
        let _ = all_to_all_varied(
            &mut m,
            &CollectiveConfig::default(),
            &inputs,
            &counts,
            &ready(2),
        );
    }
}
