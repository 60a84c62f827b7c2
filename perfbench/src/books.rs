//! Tallies of measured calls and of correctness checks.

use desim::Dur;
use emb_retrieval::TimeBreakdown;
use gpusim::TrafficStats;

/// What one measured executor call did, on both clocks.
pub struct CallRecord {
    /// Host nanoseconds of the call.
    pub ns: u64,
    /// Simulated batches it executed.
    pub batches: u64,
    /// Pooled bags those batches produced.
    pub bags: u64,
    /// Simulated time of all its batches.
    pub sim_total: Dur,
    /// Simulated time of each batch, where the call reports it (the
    /// closed loops' request-latency samples).
    pub sim_batches: Vec<Dur>,
    /// Simulated compute / communication / sync+unpack split, when the
    /// call reports one.
    pub breakdown: Option<TimeBreakdown>,
    /// Wire traffic the call put on the machine.
    pub traffic: TrafficStats,
}

/// Everything measured for one scheme (baseline or PGAS) of a workload.
#[derive(Default)]
pub struct Tally {
    /// Host milliseconds per simulated batch, one sample per call.
    pub call_ms_per_batch: Vec<f64>,
    /// Simulated milliseconds of every batch whose call reports it.
    pub sim_batch_ms: Vec<f64>,
    /// Simulated batches executed.
    pub batches: u64,
    /// Pooled bags produced.
    pub bags: u64,
    /// Host nanoseconds inside executor calls.
    pub host_ns: u64,
    /// Simulated nanoseconds over all batches.
    pub sim_ns: u64,
    /// Summed simulated phase split (calls that report one).
    pub breakdown: TimeBreakdown,
    /// Batches covered by `breakdown`.
    pub breakdown_batches: u64,
    /// Wire traffic over all calls.
    pub traffic: TrafficStats,
}

impl Tally {
    /// Fold one call into the tally.
    pub fn record(&mut self, c: &CallRecord) {
        let per_batch = c.ns as f64 / 1e6 / c.batches.max(1) as f64;
        self.call_ms_per_batch.push(per_batch);
        self.batches += c.batches;
        self.bags += c.bags;
        self.host_ns += c.ns;
        self.sim_ns += c.sim_total.as_ns();
        self.sim_batch_ms
            .extend(c.sim_batches.iter().map(|d| d.as_millis_f64()));
        if let Some(b) = c.breakdown {
            self.breakdown.accumulate(&b);
            self.breakdown_batches += c.batches;
        }
        self.traffic.messages += c.traffic.messages;
        self.traffic.payload_bytes += c.traffic.payload_bytes;
        self.traffic.header_bytes += c.traffic.header_bytes;
    }

    /// Simulated milliseconds per batch.
    pub fn sim_ms_per_batch(&self) -> f64 {
        ratio(self.sim_ns as f64 / 1e6, self.batches as f64)
    }
}

/// Wire traffic between two cumulative readings of one machine.
pub fn traffic_delta(before: TrafficStats, after: TrafficStats) -> TrafficStats {
    TrafficStats {
        payload_bytes: after.payload_bytes - before.payload_bytes,
        header_bytes: after.header_bytes - before.header_bytes,
        messages: after.messages - before.messages,
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Both schemes of a workload plus the operation count.
#[derive(Default)]
pub struct Books {
    /// The collective (NCCL-style) scheme.
    pub baseline: Tally,
    /// The PGAS scheme.
    pub pgas: Tally,
    /// Operations attempted: measured calls plus correctness checks.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
}

impl Books {
    /// Count one operation; it failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }
}
