//! Property-based tests for the DES engine invariants.

use desim::{Dur, MultiResource, Resource, SimTime, TimeSeries};
use proptest::prelude::*;

proptest! {
    /// A serialized resource never overlaps service intervals and conserves
    /// busy time.
    #[test]
    fn resource_intervals_never_overlap(jobs in prop::collection::vec((0u64..1000, 1u64..100), 1..100)) {
        let mut r = Resource::new();
        let mut prev_end = SimTime::ZERO;
        let mut total = Dur::ZERO;
        // Present arrivals in sorted order, as an orchestrator would.
        let mut jobs = jobs;
        jobs.sort();
        for (arrive, service) in jobs {
            let iv = r.acquire(SimTime::from_ns(arrive), Dur::from_ns(service));
            prop_assert!(iv.start >= prev_end);
            prop_assert!(iv.start >= SimTime::from_ns(arrive));
            prop_assert_eq!(iv.duration(), Dur::from_ns(service));
            prev_end = iv.end;
            total += Dur::from_ns(service);
        }
        prop_assert_eq!(r.busy_time(), total);
    }

    /// A k-server station never has more than k overlapping intervals, and
    /// its makespan is between the work/k lower bound and the serial upper
    /// bound when everything arrives at t=0.
    #[test]
    fn multi_resource_respects_capacity(k in 1usize..8, services in prop::collection::vec(1u64..100, 1..100)) {
        let mut m = MultiResource::new(k);
        let mut intervals = Vec::new();
        for &s in &services {
            intervals.push(m.acquire(SimTime::ZERO, Dur::from_ns(s)));
        }
        // Check overlap cardinality at every interval start.
        for iv in &intervals {
            let overlapping = intervals
                .iter()
                .filter(|o| o.start <= iv.start && iv.start < o.end)
                .count();
            prop_assert!(overlapping <= k);
        }
        let work: u64 = services.iter().sum();
        let makespan = m.all_free().as_ns();
        prop_assert!(makespan >= work.div_ceil(k as u64));
        prop_assert!(makespan <= work);
    }

    /// add_spread conserves mass for arbitrary intervals.
    #[test]
    fn time_series_spread_conserves_mass(
        bucket in 1u64..50,
        start in 0u64..1000,
        len in 0u64..500,
        value in 0.0f64..1e6,
    ) {
        let mut ts = TimeSeries::new(Dur::from_ns(bucket));
        ts.add_spread(SimTime::from_ns(start), SimTime::from_ns(start + len), value);
        prop_assert!((ts.total() - value).abs() < 1e-6 * value.max(1.0));
    }

    /// Cumulative series is monotone for non-negative inputs.
    #[test]
    fn cumulative_is_monotone(adds in prop::collection::vec((0u64..1000, 0.0f64..100.0), 0..100)) {
        let mut ts = TimeSeries::new(Dur::from_ns(7));
        for (t, v) in adds {
            ts.add(SimTime::from_ns(t), v);
        }
        let cum = ts.cumulative();
        for w in cum.windows(2) {
            prop_assert!(w[1] >= w[0]);
        }
    }
}
