//! Simulation counters, response-time and per-stage accounting.

use flash_model::Micros;
use obs::SAMPLE_SEED;
use serde::{Deserialize, Serialize};

use crate::pipeline::StageKind;

/// Occupancy accounting for one pipeline stage class (all units of that
/// class combined). Populated only by the pipelined timing model; the
/// single-queue model has no per-stage visibility and leaves these zero.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct StageAccount {
    /// Stage executions.
    pub ops: u64,
    /// Total time units of this class were held (µs).
    pub busy_us: f64,
    /// Total time ready stages waited for a free unit (µs).
    pub wait_us: f64,
}

impl StageAccount {
    /// Mean service time per stage execution.
    pub fn mean_latency(&self) -> Micros {
        if self.ops == 0 {
            return Micros::ZERO;
        }
        Micros(self.busy_us / self.ops as f64)
    }

    /// Mean queueing delay per stage execution.
    pub fn mean_wait(&self) -> Micros {
        if self.ops == 0 {
            return Micros::ZERO;
        }
        Micros(self.wait_us / self.ops as f64)
    }
}

/// Everything the experiments read out of a simulation run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SimStats {
    /// Host read requests served.
    pub host_reads: u64,
    /// Host write requests served.
    pub host_writes: u64,
    /// Host read pages served from the write buffer.
    pub buffer_read_hits: u64,
    /// Flash page reads (host + GC + migration).
    pub flash_reads: u64,
    /// Flash page programs (host + GC + migration).
    pub flash_programs: u64,
    /// Block erases.
    pub erases: u64,
    /// GC invocations.
    pub gc_runs: u64,
    /// Valid pages relocated by GC.
    pub gc_migrated_pages: u64,
    /// AccessEval promotions into reduced pages.
    pub promotions: u64,
    /// AccessEval demotions back to normal pages.
    pub demotions: u64,
    /// Host page reads served from reduced-state pages.
    pub reduced_reads: u64,
    /// Host page reads served from normal pages, by extra sensing levels
    /// used (index = levels).
    pub reads_by_sensing_level: Vec<u64>,
    /// Sum of host request response times (µs).
    pub total_response_us: f64,
    /// Sum of host *read* request response times (µs).
    pub read_response_us: f64,
    /// Maximum observed response time (µs).
    pub max_response_us: f64,
    /// Bounded uniform sample of response times for percentile
    /// estimation (deterministic seeded reservoir; exact — every response
    /// retained — for runs up to the reservoir capacity).
    pub response_samples: Vec<f64>,
    /// Responses offered to the reservoir so far.
    pub responses_seen: u64,
    /// SplitMix64 state driving reservoir replacement (fixed seed, so
    /// identical runs sample identically).
    pub sample_state: u64,
    /// Schedule makespan: when the last resource went idle (µs). The
    /// single-queue model reports the maximum channel horizon.
    pub makespan_us: f64,
    /// Extra flash read attempts spent by the recovery ladder (also
    /// included in [`flash_reads`](Self::flash_reads)).
    pub retry_reads: u64,
    /// Host frame reads that failed their first decode but were
    /// recovered by the ladder.
    pub recovered_reads: u64,
    /// Host frame reads the full ladder could not recover (data loss).
    pub uncorrectable_reads: u64,
    /// Reads by recovery-ladder depth: index 0 counts clean first-attempt
    /// decodes, index `d` counts reads needing `d` extra attempts. All
    /// zero unless fault injection ran.
    pub retry_depth_histogram: Vec<u64>,
    /// Page programs that failed their status check.
    pub program_failures: u64,
    /// Blocks retired as grown-bad.
    pub retired_blocks: u64,
    /// Transient whole-die faults cleared by a reset.
    pub die_resets: u64,
    /// Patrol-scrub block visits.
    pub scrub_runs: u64,
    /// Pages read by the patrol scrubber.
    pub scrub_reads: u64,
    /// Pages rewritten by the scrubber because retention BER crossed the
    /// refresh threshold.
    pub scrub_refreshes: u64,
    /// Device time attributable to recovery (retries + die resets), µs.
    pub recovery_latency_us: f64,
    /// Sensing-stage occupancy (pipelined model).
    pub stage_sense: StageAccount,
    /// Bus-transfer-stage occupancy (pipelined model).
    pub stage_transfer: StageAccount,
    /// Decode-stage occupancy (pipelined model).
    pub stage_decode: StageAccount,
    /// Program-stage occupancy (pipelined model).
    pub stage_program: StageAccount,
    /// Erase-stage occupancy (pipelined model).
    pub stage_erase: StageAccount,
    /// Per-tenant serving statistics; empty for closed-trace replay (the
    /// `serde` default keeps pre-serving JSON fixtures decodable).
    #[serde(default)]
    pub tenants: Vec<TenantStats>,
    /// Journal records replayed by sudden-power-off recovery; zero unless
    /// this run resumed from a crashed image (`serde` default keeps old
    /// fixtures decodable).
    #[serde(default)]
    pub journal_replayed: u64,
    /// Torn (interrupted, uncorrectable) pages detected and discarded by
    /// recovery.
    #[serde(default)]
    pub torn_pages_discarded: u64,
    /// Requests served between the restored checkpoint and the crash
    /// point (how much work recovery had to re-establish).
    #[serde(default)]
    pub checkpoint_age_requests: u64,
}

/// Reservoir capacity: runs at or below this many responses keep every
/// sample, making percentiles exact.
const MAX_SAMPLES: usize = 1 << 17;

/// Percentile (`q` in `[0, 1]`) of a retained sample, or zero if empty.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]`.
fn percentile_of(samples: &[f64], q: f64) -> Micros {
    assert!((0.0..=1.0).contains(&q), "percentile out of range: {q}");
    if samples.is_empty() {
        return Micros::ZERO;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite response times"));
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    Micros(sorted[idx])
}

/// Per-tenant serving statistics: admission accounting plus latency-SLO
/// tracking. Populated only by [`SsdSimulator::serve`] runs with a
/// tenanted [`ServeOptions`]; closed-trace replay leaves
/// [`SimStats::tenants`] empty.
///
/// [`SsdSimulator::serve`]: crate::sim::SsdSimulator::serve
/// [`ServeOptions`]: crate::serve::ServeOptions
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TenantStats {
    /// Requests this tenant submitted.
    pub arrivals: u64,
    /// Requests actually served (admitted and completed).
    pub served: u64,
    /// Requests rejected by queue-depth backpressure (`Drop` policy).
    pub dropped: u64,
    /// Requests delayed past their arrival by queue-depth backpressure
    /// (`Defer` policy); still served, with the wait charged to response.
    pub deferred: u64,
    /// Served read requests.
    pub reads: u64,
    /// Served write requests.
    pub writes: u64,
    /// Sum of served-request response times (µs).
    pub total_response_us: f64,
    /// Maximum observed response time (µs).
    pub max_response_us: f64,
    /// Latency SLO target (µs); 0 disables violation counting.
    pub slo_target_us: f64,
    /// Served requests whose response exceeded the SLO target.
    pub slo_violations: u64,
    /// Bounded uniform sample of response times (same deterministic
    /// Algorithm-R reservoir as [`SimStats::response_samples`]).
    pub response_samples: Vec<f64>,
    /// Responses offered to this tenant's reservoir so far.
    pub responses_seen: u64,
    /// SplitMix64 state of this tenant's reservoir.
    pub sample_state: u64,
}

impl TenantStats {
    /// Creates zeroed stats tracking violations against `slo_target_us`
    /// (0 disables the check).
    pub fn new(slo_target_us: f64) -> TenantStats {
        TenantStats {
            slo_target_us,
            sample_state: SAMPLE_SEED,
            ..TenantStats::default()
        }
    }

    /// Records one served request's response time against the SLO.
    pub fn record_response(&mut self, response: Micros) {
        let us = response.as_f64();
        self.total_response_us += us;
        self.max_response_us = self.max_response_us.max(us);
        if self.slo_target_us > 0.0 && us > self.slo_target_us {
            self.slo_violations += 1;
        }
        self.responses_seen += 1;
        obs::reservoir_offer(
            &mut self.response_samples,
            MAX_SAMPLES,
            self.responses_seen,
            &mut self.sample_state,
            us,
        );
    }

    /// Response-time percentile (`q` in `[0, 1]`), or zero if nothing was
    /// served.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn response_percentile(&self, q: f64) -> Micros {
        percentile_of(&self.response_samples, q)
    }

    /// Median response time.
    pub fn p50(&self) -> Micros {
        self.response_percentile(0.5)
    }

    /// 99th-percentile response time.
    pub fn p99(&self) -> Micros {
        self.response_percentile(0.99)
    }

    /// 99.9th-percentile response time.
    pub fn p999(&self) -> Micros {
        self.response_percentile(0.999)
    }

    /// Mean response time over served requests.
    pub fn mean_response(&self) -> Micros {
        if self.served == 0 {
            return Micros::ZERO;
        }
        Micros(self.total_response_us / self.served as f64)
    }

    /// Fraction of served requests violating the SLO (0 when nothing was
    /// served or no SLO is set).
    pub fn slo_violation_rate(&self) -> f64 {
        if self.served == 0 {
            return 0.0;
        }
        self.slo_violations as f64 / self.served as f64
    }
}

impl SimStats {
    /// Creates zeroed stats able to track up to `max_levels` extra sensing
    /// levels.
    pub fn new(max_levels: u32) -> SimStats {
        SimStats {
            reads_by_sensing_level: vec![0; max_levels as usize + 1],
            // Deepest ladder from a zero-level read: one Vref re-read,
            // `max_levels` escalations, one final deep attempt.
            retry_depth_histogram: vec![0; max_levels as usize + 3],
            sample_state: SAMPLE_SEED,
            ..SimStats::default()
        }
    }

    /// Records one host request's response time.
    ///
    /// Percentile samples use Algorithm R reservoir sampling: the first
    /// `MAX_SAMPLES` (2^17) responses are all kept (exact percentiles
    /// for small runs); past that, response `n` replaces a uniformly
    /// random reservoir slot with probability `MAX_SAMPLES / n`. The replacement
    /// stream is seeded at construction, so sampling is deterministic and
    /// — unlike the strided sampler this replaces — cannot alias against
    /// periodic structure in the trace.
    pub fn record_response(&mut self, response: Micros, is_read: bool) {
        self.total_response_us += response.as_f64();
        if is_read {
            self.read_response_us += response.as_f64();
        }
        self.max_response_us = self.max_response_us.max(response.as_f64());
        self.responses_seen += 1;
        obs::reservoir_offer(
            &mut self.response_samples,
            MAX_SAMPLES,
            self.responses_seen,
            &mut self.sample_state,
            response.as_f64(),
        );
    }

    /// Records one pipeline stage execution: `busy` on the unit after
    /// waiting `wait` for it.
    pub fn record_stage(&mut self, kind: StageKind, busy: Micros, wait: Micros) {
        let account = match kind {
            StageKind::Sense => &mut self.stage_sense,
            StageKind::Transfer => &mut self.stage_transfer,
            StageKind::Decode => &mut self.stage_decode,
            StageKind::Program => &mut self.stage_program,
            StageKind::Erase => &mut self.stage_erase,
        };
        account.ops += 1;
        account.busy_us += busy.as_f64();
        account.wait_us += wait.as_f64();
    }

    /// The accumulated account of one stage class.
    pub fn stage(&self, kind: StageKind) -> &StageAccount {
        match kind {
            StageKind::Sense => &self.stage_sense,
            StageKind::Transfer => &self.stage_transfer,
            StageKind::Decode => &self.stage_decode,
            StageKind::Program => &self.stage_program,
            StageKind::Erase => &self.stage_erase,
        }
    }

    /// Fraction of the makespan the `units` units of `kind` were busy
    /// (aggregate: 1.0 = every unit busy the whole run).
    pub fn stage_utilization(&self, kind: StageKind, units: u32) -> f64 {
        if self.makespan_us <= 0.0 || units == 0 {
            return 0.0;
        }
        self.stage(kind).busy_us / (self.makespan_us * units as f64)
    }

    /// Time-averaged number of stages queued (not yet running) on `kind`
    /// units, by Little's law: total wait over the makespan.
    pub fn mean_queue_depth(&self, kind: StageKind) -> f64 {
        if self.makespan_us <= 0.0 {
            return 0.0;
        }
        self.stage(kind).wait_us / self.makespan_us
    }

    /// Host requests completed per second of schedule makespan.
    pub fn throughput_rps(&self) -> f64 {
        if self.makespan_us <= 0.0 {
            return 0.0;
        }
        self.host_requests() as f64 / Micros(self.makespan_us).as_secs()
    }

    /// Response-time percentile (`q` in `[0, 1]`) from the retained
    /// sample, or zero if nothing was recorded.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn response_percentile(&self, q: f64) -> Micros {
        percentile_of(&self.response_samples, q)
    }

    /// Host requests served.
    pub fn host_requests(&self) -> u64 {
        self.host_reads + self.host_writes
    }

    /// Mean response time over all host requests.
    pub fn mean_response(&self) -> Micros {
        if self.host_requests() == 0 {
            return Micros::ZERO;
        }
        Micros(self.total_response_us / self.host_requests() as f64)
    }

    /// Mean response time over host reads only.
    pub fn mean_read_response(&self) -> Micros {
        if self.host_reads == 0 {
            return Micros::ZERO;
        }
        Micros(self.read_response_us / self.host_reads as f64)
    }

    /// Write amplification: flash programs per host-written page. Needs
    /// the host page-write count, which the caller tracks.
    pub fn write_amplification(&self, host_pages_written: u64) -> f64 {
        if host_pages_written == 0 {
            return 0.0;
        }
        self.flash_programs as f64 / host_pages_written as f64
    }

    /// Records the resolved recovery-ladder depth of one frame read:
    /// `0` = clean first-attempt decode, `d > 0` = `d` extra attempts.
    /// Called only when fault injection is active.
    pub fn record_retry_depth(&mut self, depth: usize) {
        let slot = depth.min(self.retry_depth_histogram.len().saturating_sub(1));
        if let Some(bin) = self.retry_depth_histogram.get_mut(slot) {
            *bin += 1;
        }
    }

    /// Host frames offered to the decoder (sensed normal reads plus
    /// reduced-page reads; retries re-decode the same host frame and are
    /// not counted again).
    pub fn decoded_frames(&self) -> u64 {
        self.reads_by_sensing_level.iter().sum::<u64>() + self.reduced_reads
    }

    /// Observed uncorrectable bit-error rate of the run: sectors declared
    /// uncorrectable per information bit read, the empirical counterpart
    /// of `reliability::EccConfig::uber` (Equation 1). `info_bits` is the
    /// frame's information payload (32 768 for the paper's code).
    pub fn observed_uber(&self, info_bits: u64) -> f64 {
        let bits = self.decoded_frames().saturating_mul(info_bits);
        if bits == 0 {
            return 0.0;
        }
        self.uncorrectable_reads as f64 / bits as f64
    }

    /// Deepest recovery ladder any read needed this run.
    pub fn max_retry_depth(&self) -> usize {
        self.retry_depth_histogram
            .iter()
            .rposition(|&n| n > 0)
            .unwrap_or(0)
    }

    /// Fraction of normal-page host reads that needed soft sensing.
    pub fn soft_read_fraction(&self) -> f64 {
        let total: u64 = self.reads_by_sensing_level.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let soft: u64 = self.reads_by_sensing_level.iter().skip(1).sum();
        soft as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_accounting() {
        let mut s = SimStats::new(6);
        s.host_reads = 2;
        s.host_writes = 1;
        s.record_response(Micros(100.0), true);
        s.record_response(Micros(300.0), true);
        s.record_response(Micros(50.0), false);
        assert_eq!(s.host_requests(), 3);
        assert_eq!(s.mean_response(), Micros(150.0));
        assert_eq!(s.mean_read_response(), Micros(200.0));
        assert_eq!(s.max_response_us, 300.0);
    }

    #[test]
    fn empty_stats_safe() {
        let s = SimStats::new(6);
        assert_eq!(s.mean_response(), Micros::ZERO);
        assert_eq!(s.mean_read_response(), Micros::ZERO);
        assert_eq!(s.write_amplification(0), 0.0);
        assert_eq!(s.soft_read_fraction(), 0.0);
    }

    #[test]
    fn soft_read_fraction() {
        let mut s = SimStats::new(6);
        s.reads_by_sensing_level[0] = 80;
        s.reads_by_sensing_level[2] = 15;
        s.reads_by_sensing_level[6] = 5;
        assert!((s.soft_read_fraction() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn write_amplification() {
        let mut s = SimStats::new(6);
        s.flash_programs = 150;
        assert!((s.write_amplification(100) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn percentiles_exact_for_small_runs() {
        let mut s = SimStats::new(6);
        // 400 responses of increasing size: far below the reservoir
        // capacity, so every one is retained and percentiles are exact.
        for i in 0..400u64 {
            s.host_reads += 1;
            s.record_response(Micros(i as f64), true);
        }
        assert_eq!(s.response_samples.len(), 400);
        assert_eq!(s.response_percentile(0.5), Micros(200.0));
        assert_eq!(s.response_percentile(0.99), Micros(395.0));
        assert_eq!(s.response_percentile(0.0), Micros(0.0));
        assert_eq!(s.response_percentile(1.0), Micros(399.0));
        // Degenerate: empty stats.
        assert_eq!(SimStats::new(6).response_percentile(0.99), Micros::ZERO);
    }

    #[test]
    fn reservoir_sampling_is_capped_unbiased_and_deterministic() {
        let feed = |n: u64| {
            let mut s = SimStats::new(6);
            for i in 0..n {
                // A strongly periodic trace: the old strided sampler
                // (1-in-4) would only ever see phase 0 of this pattern.
                s.record_response(Micros((i % 4) as f64 * 100.0), true);
            }
            s
        };
        let n = (MAX_SAMPLES + 50_000) as u64;
        let a = feed(n);
        assert_eq!(a.response_samples.len(), MAX_SAMPLES);
        assert_eq!(a.responses_seen, n);
        // All four phases survive in the reservoir in similar proportion.
        for phase in 0..4 {
            let count = a
                .response_samples
                .iter()
                .filter(|&&v| v == phase as f64 * 100.0)
                .count();
            let share = count as f64 / MAX_SAMPLES as f64;
            assert!(
                (share - 0.25).abs() < 0.02,
                "phase {phase} share {share} aliased"
            );
        }
        // Deterministic: a second identical run reproduces the reservoir.
        assert_eq!(a, feed(n));
    }

    #[test]
    fn reservoir_empty_run_is_all_zero() {
        let s = SimStats::new(6);
        assert_eq!(s.responses_seen, 0);
        assert!(s.response_samples.is_empty());
        assert_eq!(s.response_percentile(0.0), Micros::ZERO);
        assert_eq!(s.response_percentile(0.5), Micros::ZERO);
        assert_eq!(s.response_percentile(1.0), Micros::ZERO);
        let t = TenantStats::new(500.0);
        assert_eq!(t.p50(), Micros::ZERO);
        assert_eq!(t.p99(), Micros::ZERO);
        assert_eq!(t.p999(), Micros::ZERO);
        assert_eq!(t.mean_response(), Micros::ZERO);
        assert_eq!(t.slo_violation_rate(), 0.0);
    }

    #[test]
    fn reservoir_at_exact_capacity_keeps_everything() {
        // Exactly 2^17 responses: the reservoir is full but no replacement
        // draw has happened yet, so percentiles are still exact and the
        // SplitMix64 state is untouched.
        let mut s = SimStats::new(6);
        for i in 0..MAX_SAMPLES as u64 {
            s.record_response(Micros(i as f64), true);
        }
        assert_eq!(s.response_samples.len(), MAX_SAMPLES);
        assert_eq!(s.responses_seen, MAX_SAMPLES as u64);
        assert_eq!(s.sample_state, SAMPLE_SEED, "no replacement draw yet");
        assert_eq!(s.response_percentile(0.0), Micros(0.0));
        assert_eq!(s.response_percentile(1.0), Micros((MAX_SAMPLES - 1) as f64));
        // Exact median of 0..131071: idx = round(131071 * 0.5) = 65536.
        assert_eq!(s.response_percentile(0.5), Micros(65_536.0));
        // The very next response must trigger exactly one draw.
        s.record_response(Micros(0.0), true);
        assert_ne!(s.sample_state, SAMPLE_SEED);
        assert_eq!(s.response_samples.len(), MAX_SAMPLES);
    }

    #[test]
    fn reservoir_past_capacity_is_pinned() {
        // 2^17 + 4096 monotone responses through the seeded reservoir:
        // the retained sample (hence the percentiles) is a deterministic
        // function of SAMPLE_SEED alone. The literals below pin it —
        // any change to the sampling law or seed shows up here.
        let feed = || {
            let mut s = SimStats::new(6);
            for i in 0..(MAX_SAMPLES as u64 + 4_096) {
                s.record_response(Micros(i as f64), true);
            }
            s
        };
        let s = feed();
        assert_eq!(s.response_samples.len(), MAX_SAMPLES);
        assert_eq!(s.responses_seen, MAX_SAMPLES as u64 + 4_096);
        assert_eq!(s, feed(), "reservoir must be run-to-run deterministic");
        let p50 = s.response_percentile(0.5).as_f64();
        let p99 = s.response_percentile(0.99).as_f64();
        let p999 = s.response_percentile(0.999).as_f64();
        assert_eq!(
            (p50, p99, p999),
            (67_564.0, 133_810.0, 135_031.0),
            "pinned percentiles moved — sampling law changed"
        );
    }

    #[test]
    fn tenant_stats_slo_accounting() {
        let mut t = TenantStats::new(200.0);
        t.served = 4;
        t.record_response(Micros(100.0));
        t.record_response(Micros(300.0));
        t.record_response(Micros(250.0));
        t.record_response(Micros(200.0)); // boundary: not a violation
        assert_eq!(t.slo_violations, 2);
        assert_eq!(t.slo_violation_rate(), 0.5);
        assert_eq!(t.max_response_us, 300.0);
        assert_eq!(t.mean_response(), Micros(212.5));
        assert_eq!(t.p50(), Micros(250.0));
        // No SLO ⇒ no violations counted.
        let mut free = TenantStats::new(0.0);
        free.record_response(Micros(1e9));
        assert_eq!(free.slo_violations, 0);
    }

    #[test]
    fn stage_accounting_and_derived_metrics() {
        let mut s = SimStats::new(6);
        s.record_stage(StageKind::Sense, Micros(90.0), Micros(10.0));
        s.record_stage(StageKind::Sense, Micros(90.0), Micros(0.0));
        s.record_stage(StageKind::Decode, Micros(5.0), Micros(0.0));
        s.makespan_us = 400.0;
        s.host_reads = 2;
        assert_eq!(s.stage(StageKind::Sense).ops, 2);
        assert_eq!(s.stage(StageKind::Sense).mean_latency(), Micros(90.0));
        assert_eq!(s.stage(StageKind::Sense).mean_wait(), Micros(5.0));
        assert_eq!(s.stage(StageKind::Transfer).ops, 0);
        assert_eq!(s.stage(StageKind::Transfer).mean_latency(), Micros::ZERO);
        // 180 µs of sensing across 2 dies over a 400 µs run.
        let util = s.stage_utilization(StageKind::Sense, 2);
        assert!((util - 180.0 / 800.0).abs() < 1e-12, "utilization {util}");
        let depth = s.mean_queue_depth(StageKind::Sense);
        assert!((depth - 10.0 / 400.0).abs() < 1e-12, "queue depth {depth}");
        // 2 requests in 400 µs = 5000 req/s.
        assert!((s.throughput_rps() - 5000.0).abs() < 1e-9);
        // Degenerate guards.
        assert_eq!(SimStats::new(6).throughput_rps(), 0.0);
        assert_eq!(SimStats::new(6).stage_utilization(StageKind::Sense, 4), 0.0);
        assert_eq!(s.stage_utilization(StageKind::Sense, 0), 0.0);
        assert_eq!(SimStats::new(6).mean_queue_depth(StageKind::Decode), 0.0);
    }

    #[test]
    #[should_panic(expected = "percentile out of range")]
    fn percentile_range_checked() {
        let _ = SimStats::new(6).response_percentile(1.5);
    }

    #[test]
    fn recovery_panel_accounting() {
        let mut s = SimStats::new(6);
        // Ladder depths 0..=8 fit the histogram (6 + 3 bins).
        assert_eq!(s.retry_depth_histogram.len(), 9);
        s.record_retry_depth(0);
        s.record_retry_depth(0);
        s.record_retry_depth(1);
        s.record_retry_depth(8);
        s.record_retry_depth(1000); // clamped into the last bin
        assert_eq!(s.retry_depth_histogram[0], 2);
        assert_eq!(s.retry_depth_histogram[1], 1);
        assert_eq!(s.retry_depth_histogram[8], 2);
        assert_eq!(s.max_retry_depth(), 8);
        assert_eq!(SimStats::new(6).max_retry_depth(), 0);
    }

    #[test]
    fn observed_uber_matches_hand_count() {
        let mut s = SimStats::new(6);
        s.reads_by_sensing_level[0] = 600;
        s.reads_by_sensing_level[4] = 300;
        s.reduced_reads = 100;
        assert_eq!(s.decoded_frames(), 1000);
        s.uncorrectable_reads = 2;
        let expected = 2.0 / (1000.0 * 32_768.0);
        assert!((s.observed_uber(32_768) - expected).abs() < 1e-18);
        // No frames read ⇒ UBER 0, not NaN.
        assert_eq!(SimStats::new(6).observed_uber(32_768), 0.0);
    }
}
