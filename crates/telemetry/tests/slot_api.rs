//! The slot API records exactly what the name API records: one random
//! sequence of counters, gauges, histograms and spans, applied by name to
//! one registry and by slot to another, leaves the two indistinguishable
//! through every read.

use std::collections::HashMap;

use desim::{Dur, SimTime};
use proptest::prelude::*;
use telemetry::{
    CounterSlot, HistogramSlot, MetricKey, Registry, TimelineSlot, BYTES_BOUNDS, US_BOUNDS,
};

const NAMES: [&str; 3] = ["a", "b", "c"];

/// One recorded operation: `(kind, name, i, j, raw value, span start µs)`.
type Op = (u8, usize, u32, u32, u64, u64);

/// Each histogram name keeps one bound set, as every caller does.
fn bounds(name: usize) -> &'static [u64] {
    if name == 0 {
        US_BOUNDS
    } else {
        BYTES_BOUNDS
    }
}

/// A quarter of the values are zero; spans are zero-length a third of the
/// time.
fn value(raw: u64) -> u64 {
    if raw % 4 == 0 {
        0
    } else {
        raw
    }
}

fn span(raw: u64, start_us: u64) -> (SimTime, SimTime) {
    let start = SimTime::from_us(start_us);
    let len = if raw % 3 == 0 { 0 } else { raw % 40_000 };
    (start, start + Dur::from_ns(len))
}

fn by_name(r: &mut Registry, (kind, n, i, j, raw, at): Op) {
    let name = NAMES[n];
    match kind {
        0 => r.add(name, i, j, value(raw)),
        1 => r.incr(name, i, j),
        2 => r.gauge_set(name, i, j, value(raw) as f64),
        3 => r.gauge_max(name, i, j, value(raw) as f64),
        4 => r.observe(name, i, j, bounds(n), value(raw)),
        5 => r.observe_traced(name, i, j, bounds(n), value(raw), at),
        6 => {
            let (start, end) = span(raw, at);
            r.span(name, i, j, start, end);
        }
        // Resolving without recording has no name-API counterpart.
        _ => {}
    }
}

/// Slots resolved once per key and reused, the way the fabric caches them.
#[derive(Default)]
struct Slots {
    counters: HashMap<MetricKey, CounterSlot>,
    histograms: HashMap<MetricKey, HistogramSlot>,
    timelines: HashMap<MetricKey, TimelineSlot>,
}

fn by_slot(r: &mut Registry, slots: &mut Slots, (kind, n, i, j, raw, at): Op) {
    let name = NAMES[n];
    let key = MetricKey { name, i, j };
    let mut counter = |r: &mut Registry| {
        *slots
            .counters
            .entry(key)
            .or_insert_with(|| r.counter_slot(name, i, j))
    };
    match kind {
        0 => {
            let s = counter(r);
            r.add_at(s, value(raw));
        }
        1 => {
            let s = counter(r);
            r.add_at(s, 1);
        }
        2 | 3 | 5 => by_name(r, (kind, n, i, j, raw, at)),
        4 => {
            let s = *slots
                .histograms
                .entry(key)
                .or_insert_with(|| r.histogram_slot(name, i, j, bounds(n)));
            r.observe_at(s, value(raw));
        }
        6 => {
            let s = *slots
                .timelines
                .entry(key)
                .or_insert_with(|| r.timeline_slot(name, i, j));
            let (start, end) = span(raw, at);
            r.span_at(s, start, end);
        }
        // Resolve one slot of each kind and record nothing through them.
        _ => {
            counter(r);
            slots
                .histograms
                .entry(key)
                .or_insert_with(|| r.histogram_slot(name, i, j, bounds(n)));
            slots
                .timelines
                .entry(key)
                .or_insert_with(|| r.timeline_slot(name, i, j));
        }
    }
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        (
            0u8..8,
            0usize..3,
            0u32..3,
            0u32..2,
            0u64..600_000,
            0u64..200,
        ),
        0..120,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn slot_and_name_api_read_back_identically(ops in ops(), mid in 0usize..120) {
        let mut named = Registry::enabled(Dur::from_us(10));
        let mut slotted = Registry::enabled(Dur::from_us(10));
        let mut slots = Slots::default();
        let mid = mid.min(ops.len());
        for &op in &ops[..mid] {
            by_name(&mut named, op);
            by_slot(&mut slotted, &mut slots, op);
        }
        let (named_mid, slotted_mid) = (named.snapshot(), slotted.snapshot());
        prop_assert_eq!(&named_mid, &slotted_mid);
        for &op in &ops[mid..] {
            by_name(&mut named, op);
            by_slot(&mut slotted, &mut slots, op);
        }
        let (a, b) = (named.snapshot(), slotted.snapshot());
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.to_json(), b.to_json());
        prop_assert_eq!(a.to_prometheus(), b.to_prometheus());
        prop_assert_eq!(named.delta_since(&named_mid), slotted.delta_since(&slotted_mid));
        for name in NAMES {
            for (i, j) in [(0, 0), (1, 1), (2, 0)] {
                prop_assert_eq!(named.counter(name, i, j), slotted.counter(name, i, j));
                prop_assert_eq!(named.histogram(name, i, j), slotted.histogram(name, i, j));
                prop_assert_eq!(
                    named.timeline(name, i, j).map(|t| t.buckets().to_vec()),
                    slotted.timeline(name, i, j).map(|t| t.buckets().to_vec())
                );
            }
            let series = |r: &Registry| -> Vec<(MetricKey, Vec<f64>)> {
                r.timelines_named(name).map(|(k, t)| (k, t.buckets().to_vec())).collect()
            };
            prop_assert_eq!(series(&named), series(&slotted));
        }
    }

    /// A disabled registry hands out slots that record nothing.
    #[test]
    fn disabled_slots_record_nothing(ops in ops()) {
        let mut r = Registry::disabled();
        let mut slots = Slots::default();
        for op in ops {
            by_slot(&mut r, &mut slots, op);
        }
        prop_assert_eq!(r.snapshot(), telemetry::Snapshot::default());
    }
}
