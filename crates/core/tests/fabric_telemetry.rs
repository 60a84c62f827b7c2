//! The fabric's cached registry slots keep the telemetry books straight:
//! per-pair counters add up to the machine's own traffic stats, the tier
//! rollups split the same traffic by fabric tier, the PGAS runtime's put
//! counters cover every message it sends, and re-enabling telemetry drops
//! every cached slot.

use desim::{Dur, SimTime};
use emb_retrieval::backend::{pgas_batch, pgas_batch_gateway, plan_for_batch, PlannedBatch};
use emb_retrieval::{EmbLayerConfig, SparseBatch};
use gpusim::{Machine, MachineConfig};
use pgas_rt::{GatewayConfig, PgasConfig};

/// One forward executor: the 2×2 pod's gateway PGAS or the DGX's flat PGAS.
#[derive(Clone, Copy)]
enum Exec {
    Gateway,
    Flat,
}

fn setup(exec: Exec) -> (MachineConfig, EmbLayerConfig) {
    match exec {
        Exec::Gateway => (
            MachineConfig::pod_v100(2, 2),
            EmbLayerConfig::paper_weak_scaling(4).scaled_down(64),
        ),
        Exec::Flat => (
            MachineConfig::dgx_v100(4),
            EmbLayerConfig::paper_weak_scaling(4).scaled_down(64),
        ),
    }
}

fn planned(m: &Machine, layer: &EmbLayerConfig, batch: usize) -> PlannedBatch {
    let sparse = SparseBatch::generate_counts_only(&layer.batch_spec(), layer.batch_seed(batch));
    PlannedBatch::new(m, plan_for_batch(layer, &sparse, m.spec(0)))
}

fn run(exec: Exec, m: &mut Machine, pb: &PlannedBatch, at: SimTime) -> SimTime {
    match exec {
        Exec::Gateway => pgas_batch_gateway(m, GatewayConfig::default(), pb, at).end,
        Exec::Flat => pgas_batch(m, PgasConfig::default(), pb, at).end,
    }
}

fn check_books(exec: Exec) {
    let (mc, layer) = setup(exec);
    let mut m = Machine::new(mc.with_traffic_bucket(Dur::from_us(20)));
    m.enable_telemetry();
    let mut at = SimTime::ZERO;
    for b in 0..2 {
        let pb = planned(&m, &layer, b);
        at = run(exec, &mut m, &pb, at);
    }
    let snap = m.metrics().snapshot();
    let stats = m.traffic_stats();
    assert!(stats.messages > 0);
    assert_eq!(snap.counter_total("fabric_messages"), stats.messages);
    assert_eq!(
        snap.counter_total("fabric_payload_bytes"),
        stats.payload_bytes
    );
    assert_eq!(
        snap.counter_total("fabric_header_bytes"),
        stats.header_bytes
    );

    // Tier 0 = intra-node pairs, tier 1 = inter-node pairs.
    for (pair_name, tier_name) in [
        ("fabric_messages", "fabric_tier_messages"),
        ("fabric_payload_bytes", "fabric_tier_payload_bytes"),
        ("fabric_header_bytes", "fabric_tier_header_bytes"),
    ] {
        let mut by_tier = [0u64; 2];
        for (k, v) in snap.counters.iter().filter(|(k, _)| k.name == pair_name) {
            let same = m.topology().same_node(k.i as usize, k.j as usize);
            by_tier[usize::from(!same)] += v;
        }
        if matches!(exec, Exec::Gateway) {
            assert!(
                by_tier.iter().all(|&v| v > 0),
                "{pair_name} crosses both tiers"
            );
        }
        for (tier, want) in by_tier.into_iter().enumerate() {
            assert_eq!(
                snap.counter(tier_name, tier as u32, 0),
                want,
                "{tier_name} tier {tier}"
            );
        }
    }

    // Every fabric send of a PGAS batch is a put the runtime issued.
    assert_eq!(
        snap.counter_total("pgas_coalesced_messages"),
        stats.messages
    );
    assert_eq!(
        snap.counter_total("pgas_put_payload_bytes"),
        stats.payload_bytes
    );
    assert_eq!(
        snap.counter_total("pgas_puts_issued"),
        snap.counter_total("fabric_sends")
    );
}

#[test]
fn pod_gateway_batch_books_balance() {
    check_books(Exec::Gateway);
}

#[test]
fn dgx_pgas_batch_books_balance() {
    check_books(Exec::Flat);
}

/// Re-enabling telemetry mid-run starts a fresh registry: the next batch
/// records into it exactly as on a machine whose telemetry was first
/// enabled at that point, with no slot left pointing into the old one.
fn reenable_drops_cached_slots(exec: Exec) {
    let (mc, layer) = setup(exec);
    let mc = mc.with_traffic_bucket(Dur::from_us(20));
    let (first, second) = {
        let m = Machine::new(mc.clone());
        (planned(&m, &layer, 0), planned(&m, &layer, 1))
    };
    let mut again = Machine::new(mc.clone());
    again.enable_telemetry();
    let at = run(exec, &mut again, &first, SimTime::ZERO);
    again.enable_telemetry();
    run(exec, &mut again, &second, at);

    let mut late = Machine::new(mc);
    let at_late = run(exec, &mut late, &first, SimTime::ZERO);
    assert_eq!(at_late, at);
    late.enable_telemetry();
    run(exec, &mut late, &second, at);

    let snap = again.metrics().snapshot();
    assert!(snap.counter_total("fabric_messages") > 0);
    assert_eq!(snap, late.metrics().snapshot());
    assert_eq!(snap.to_json(), late.metrics().snapshot().to_json());
}

#[test]
fn pod_gateway_reenable_drops_cached_slots() {
    reenable_drops_cached_slots(Exec::Gateway);
}

#[test]
fn dgx_pgas_reenable_drops_cached_slots() {
    reenable_drops_cached_slots(Exec::Flat);
}
