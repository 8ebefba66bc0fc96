//! Deterministic fault injection for the SSD simulator.
//!
//! Real controllers at the paper's stress point (raw BER ≈ 1e-2 at
//! 6000 P/E) do not live on the success path: frames fail to decode and
//! are re-read, programs fail status checks and blocks grow bad, dies
//! glitch and need resets. This module injects those faults
//! *deterministically*, under the same discipline as
//! `reliability::mc` — every draw comes from a counter-derived
//! SplitMix64 stream keyed by `(fault seed, stream kind, lpn, per-page
//! access index)`, so the outcome is a pure function of the configuration
//! and the logical access sequence, never of thread count, timing model
//! or scheduler.
//!
//! The read-fault model is anchored in the paper's Equation 1 (see
//! [`reliability::EccConfig`]): the controller provisions a correction
//! budget `k(L)` per sensing depth `L` so a frame at its class-boundary
//! BER fails with probability [`FaultConfig::frame_target`]. Because raw
//! bit errors in real NAND are correlated (they cluster along wordlines),
//! the iid binomial tail of Equation 1 is far too sharp to be used
//! directly — a fixed budget would make frame failure a step function of
//! BER. The model therefore evaluates the survival function on a
//! cluster-scaled code ([`FaultConfig::cluster`] raw bits per independent
//! error event), which widens the transition region to the gradual FER
//! ramp measured on real parts while keeping the Equation-1 machinery.
//!
//! Fault injection defaults **off**; a disabled [`FaultConfig`] leaves
//! every golden counter and published number untouched.

use std::collections::HashMap;

use flexlevel::PageColumn;
use ldpc::SensingSchedule;
use obs::splitmix64;
use reliability::EccConfig;
use serde::{Deserialize, Serialize};

/// Configuration of the fault-injection subsystem. Disabled by default;
/// every probability below is exercised only when `enabled` is set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Master switch; `false` (the default) injects nothing and draws
    /// nothing, keeping all golden counters bit-identical.
    pub enabled: bool,
    /// Seed of the per-page fault streams (independent of the data-age
    /// seed so fault and age randomness never alias).
    pub seed: u64,
    /// Multiplier on the initial frame-error rate — an accelerated-aging
    /// knob for short traces (`1.0` = the calibrated model).
    pub scale: f64,
    /// Frame-error probability of a read whose raw BER sits exactly at
    /// its sensing-class boundary: the residual failure rate the
    /// controller provisions for before the retry ladder.
    pub frame_target: f64,
    /// Raw bits per correlated error event; widens the Equation-1
    /// binomial transition to a realistic FER ramp (see module docs).
    pub cluster: u64,
    /// FER multiplier per progressive soft-sensing escalation rung.
    pub escalate_fer_factor: f64,
    /// FER multiplier of the final deep-calibration rung (per-die optimal
    /// shift search, beyond the discrete retry table).
    pub final_fer_factor: f64,
    /// Probability a page program fails its status check, retiring the
    /// block as grown-bad.
    pub program_fail_prob: f64,
    /// Probability a flash read hits a transient whole-die fault needing
    /// a reset before data can be sensed.
    pub die_fault_prob: f64,
    /// Time one die reset stalls the plane (µs).
    pub die_reset_us: f64,
    /// Host requests between patrol-scrub block visits (`0` disables the
    /// scrubber even with faults enabled).
    pub scrub_interval: u64,
    /// Modeled retention BER at which the scrubber refreshes (rewrites)
    /// a page it patrols.
    pub scrub_refresh_ber: f64,
}

impl Default for FaultConfig {
    fn default() -> FaultConfig {
        FaultConfig {
            enabled: false,
            seed: 0xFA17_5EED,
            scale: 1.0,
            frame_target: 1e-2,
            cluster: 64,
            escalate_fer_factor: 0.25,
            final_fer_factor: 0.1,
            program_fail_prob: 2e-4,
            die_fault_prob: 5e-5,
            die_reset_us: 2_000.0,
            scrub_interval: 500,
            scrub_refresh_ber: 8e-3,
        }
    }
}

impl FaultConfig {
    /// The default fault model with injection switched on.
    pub fn enabled() -> FaultConfig {
        FaultConfig {
            enabled: true,
            ..FaultConfig::default()
        }
    }

    /// Sets the fault-stream seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> FaultConfig {
        self.seed = seed;
        self
    }

    /// Sets the FER acceleration multiplier.
    #[must_use]
    pub fn with_scale(mut self, scale: f64) -> FaultConfig {
        self.scale = scale.max(0.0);
        self
    }

    /// Sets the program-status failure probability.
    #[must_use]
    pub fn with_program_fail_prob(mut self, p: f64) -> FaultConfig {
        self.program_fail_prob = p.clamp(0.0, 1.0);
        self
    }

    /// Sets the transient die-fault probability per flash read.
    #[must_use]
    pub fn with_die_fault_prob(mut self, p: f64) -> FaultConfig {
        self.die_fault_prob = p.clamp(0.0, 1.0);
        self
    }

    /// Sets the patrol-scrub visit interval in host requests.
    #[must_use]
    pub fn with_scrub_interval(mut self, requests: u64) -> FaultConfig {
        self.scrub_interval = requests;
        self
    }
}

/// Which independent per-page stream a draw comes from. Each stream has
/// its own counter, so interleaving (a scrub read between two host
/// reads, say) never shifts another stream's sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum StreamKind {
    /// Frame-decode outcome of a flash read.
    Read,
    /// Transient die fault on a flash read.
    Die,
    /// Program-status outcome of a page program.
    Program,
}

impl StreamKind {
    /// Every stream, in ascending tag order (the checkpoint order) and
    /// in discriminant order (the counter-column index).
    const ALL: [StreamKind; 3] = [StreamKind::Read, StreamKind::Die, StreamKind::Program];

    /// The stream's key in the draw derivation and in checkpoints.
    fn tag(self) -> u64 {
        match self {
            StreamKind::Read => 0x1D,
            StreamKind::Die => 0x2E,
            StreamKind::Program => 0x3F,
        }
    }

    /// The stream a checkpoint tag names, if any.
    pub(crate) fn from_tag(tag: u64) -> Option<StreamKind> {
        StreamKind::ALL.into_iter().find(|kind| kind.tag() == tag)
    }
}

/// A uniform draw in `[0, 1)` from the `(seed, kind, lpn, counter)` cell
/// of the fault stream — stateless, so any access order reproduces it.
fn stream_unit(seed: u64, kind: StreamKind, lpn: u64, counter: u64) -> f64 {
    let mut state = seed
        ^ kind.tag().wrapping_mul(0xA24B_AED4_963E_E407)
        ^ lpn.wrapping_mul(0x9FB2_1C65_1E98_DF25)
        ^ counter.wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    let _ = splitmix64(&mut state);
    let z = splitmix64(&mut state);
    (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Runtime state of the fault injector: the calibrated Equation-1
/// correction budgets, per-page stream counters, and an FER cache.
#[derive(Debug)]
pub struct FaultState {
    config: FaultConfig,
    /// Cluster-scaled code the FER survival function is evaluated on.
    cluster_code: EccConfig,
    /// Correction budget (cluster events) per sensing depth, calibrated
    /// so the class-boundary BER fails at `frame_target`.
    correction: Vec<u64>,
    /// Relative FER improvement of one retry-table Vref-shift re-read,
    /// derived from [`reliability::read_retry`] at the device's stress
    /// point (the calibrated-over-nominal BER ratio).
    retry_fer_factor: f64,
    /// Per-page access counters driving the streams, one column per
    /// [`StreamKind`] in `StreamKind::ALL` order.
    counters: [PageColumn<u64>; 3],
    /// FER memo keyed by `(BER bits, sensing depth)` — BER values come
    /// off the quantised reliability cache, so this stays small.
    fer_cache: HashMap<(u64, u32), f64>,
}

impl FaultState {
    /// Builds the injector for a sensing `schedule`. `retry_gain` is the
    /// calibrated-over-nominal BER ratio of the device's retry table at
    /// its stress point (see `ReliabilityState::retry_gain`); it becomes
    /// the FER improvement of the ladder's Vref-shift rung, clamped to a
    /// sane range.
    pub fn new(config: FaultConfig, schedule: &SensingSchedule, retry_gain: f64) -> FaultState {
        let paper = EccConfig::paper_ldpc();
        let cluster = config.cluster.max(1);
        let cluster_code = EccConfig {
            info_bits: (paper.info_bits / cluster).max(1),
            codeword_bits: (paper.codeword_bits / cluster).max(2),
        };
        let thresholds = schedule.thresholds();
        let max_levels = schedule.max_extra_levels();
        // Frame target expressed as the UBER Equation 1 computes
        // (failures per information bit of the cluster-scaled code).
        let target_uber = config.frame_target.clamp(1e-12, 1.0) / cluster_code.info_bits as f64;
        let correction = (0..=max_levels)
            .map(|level| {
                let boundary = match thresholds.get(level as usize) {
                    Some(&t) => t,
                    // The top class has no upper threshold: provision for
                    // moderately-past-worst data so the most stressed
                    // cells sit near (not over) the failure knee.
                    None => thresholds.last().copied().unwrap_or(1e-2) * 1.5,
                };
                cluster_code
                    .required_correction(boundary.clamp(0.0, 1.0), target_uber)
                    .unwrap_or(cluster_code.codeword_bits)
            })
            .collect();
        FaultState {
            retry_fer_factor: retry_gain.clamp(0.02, 0.5),
            config,
            cluster_code,
            correction,
            counters: [PageColumn::new(0), PageColumn::new(0), PageColumn::new(0)],
            fer_cache: HashMap::new(),
        }
    }

    /// The configuration driving the injector.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// FER improvement factor of a Vref-shift re-read (ladder rung 1).
    pub fn retry_fer_factor(&self) -> f64 {
        self.retry_fer_factor
    }

    /// Clears the per-page stream counters (used when the simulator
    /// resets for a measured run, so results do not depend on warmup).
    /// The FER memo is a pure function of its key and is kept.
    pub fn reset(&mut self) {
        self.counters.iter_mut().for_each(PageColumn::clear);
    }

    fn draw(&mut self, kind: StreamKind, lpn: u64) -> f64 {
        let counter = self.counters[kind as usize].get_mut(lpn);
        let index = *counter;
        *counter += 1;
        stream_unit(self.config.seed, kind, lpn, index)
    }

    /// Uniform draw deciding the decode outcome of `lpn`'s next read.
    pub fn read_draw(&mut self, lpn: u64) -> f64 {
        self.draw(StreamKind::Read, lpn)
    }

    /// Uniform draw deciding whether `lpn`'s next read hits a transient
    /// die fault.
    pub fn die_draw(&mut self, lpn: u64) -> f64 {
        self.draw(StreamKind::Die, lpn)
    }

    /// Uniform draw deciding the status of `lpn`'s next page program.
    pub fn program_draw(&mut self, lpn: u64) -> f64 {
        self.draw(StreamKind::Program, lpn)
    }

    /// Checkpoint view of the per-page stream counters as
    /// `(kind tag, lpn, count)` triples sorted by `(tag, lpn)`. The FER
    /// cache is pure memoisation and excluded.
    pub fn counters_snapshot(&self) -> Vec<(u64, u64, u64)> {
        StreamKind::ALL
            .into_iter()
            .flat_map(|kind| {
                self.counters[kind as usize]
                    .entries()
                    .map(move |(lpn, count)| (kind.tag(), lpn, count))
            })
            .collect()
    }

    /// Restores the per-page stream counters captured by
    /// [`counters_snapshot`](Self::counters_snapshot). Each column grows
    /// to the largest LPN listed, a zero count is no entry at all and an
    /// unknown tag is skipped, so callers holding untrusted counters
    /// bound their LPNs and reject zero counts and unknown tags first.
    pub fn restore_counters(&mut self, counters: &[(u64, u64, u64)]) {
        self.reset();
        for &(tag, lpn, count) in counters {
            if let Some(kind) = StreamKind::from_tag(tag) {
                self.counters[kind as usize].set(lpn, count);
            }
        }
    }

    /// Initial frame-error rate of a read at raw BER `ber` sensed with
    /// `levels` extra soft levels (scaled by the acceleration knob,
    /// memoised per quantised BER).
    pub fn frame_error_rate(&mut self, ber: f64, levels: u32) -> f64 {
        let level = (levels as usize).min(self.correction.len().saturating_sub(1));
        let key = (ber.to_bits(), level as u32);
        if let Some(&fer) = self.fer_cache.get(&key) {
            return fer;
        }
        let p = ber.clamp(0.0, 1.0);
        let base =
            self.cluster_code.uber(self.correction[level], p) * self.cluster_code.info_bits as f64;
        let fer = (self.config.scale * base).clamp(0.0, 1.0);
        self.fer_cache.insert(key, fer);
        fer
    }
}

/// A seeded, deterministic sudden-power-off plan.
///
/// The *where-exactly* of the cut — which journal record is the last to
/// survive, and whether the in-flight program leaves a torn page — is
/// derived from `(seed, request index)` with the same SplitMix64
/// discipline as the fault streams, so a crash point is a pure function
/// of the plan and the logical request sequence, never of thread count
/// or timing backend.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashPlan {
    /// Seed of the cut-point derivation stream.
    pub seed: u64,
    /// Power is cut after the request with this zero-based logical
    /// index is served (the crash lands somewhere inside its journal
    /// records).
    pub at_request: u64,
}

impl CrashPlan {
    /// Plan that cuts power after the request at zero-based `index`.
    pub fn at_request(seed: u64, index: u64) -> CrashPlan {
        CrashPlan {
            seed,
            at_request: index,
        }
    }

    /// Derives the exact cut inside the crashing request's journal
    /// window: given the journal length before and after the request was
    /// served, returns `(cut, torn)` — the number of journal records
    /// that survive (in `[records_before + 1, records_after]`, so the
    /// crash always lands inside the in-flight request) and whether the
    /// interrupted record additionally left a torn page. When the
    /// request appended nothing the cut degenerates to `records_before`.
    pub fn cut(
        &self,
        at_request: u64,
        records_before: usize,
        records_after: usize,
    ) -> (usize, bool) {
        if records_after <= records_before {
            return (records_before, false);
        }
        let mut state = self.seed ^ at_request.wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
        let _ = splitmix64(&mut state);
        let span = (records_after - records_before) as u64;
        let cut = records_before + 1 + (splitmix64(&mut state) % span) as usize;
        let torn = splitmix64(&mut state) & 1 == 1;
        (cut, torn)
    }

    /// Seeded sweep of `n` crash points over a journal of `len` records:
    /// `(cut, torn)` pairs, each cut in `[0, len]`. Used by the
    /// crash-torture harness to cover prefixes of a recorded journal
    /// deterministically.
    pub fn sweep_points(seed: u64, n: usize, len: usize) -> Vec<(usize, bool)> {
        let mut state = seed;
        let _ = splitmix64(&mut state);
        (0..n)
            .map(|_| {
                let cut = (splitmix64(&mut state) % (len as u64 + 1)) as usize;
                let torn = splitmix64(&mut state) & 1 == 1;
                (cut, torn)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::derived_schedule;

    fn state(config: FaultConfig) -> FaultState {
        FaultState::new(config, &derived_schedule(), 0.3)
    }

    #[test]
    fn disabled_is_the_default() {
        let c = FaultConfig::default();
        assert!(!c.enabled);
        assert!(FaultConfig::enabled().enabled);
        let c = FaultConfig::enabled()
            .with_seed(9)
            .with_scale(2.0)
            .with_program_fail_prob(0.5)
            .with_die_fault_prob(0.25)
            .with_scrub_interval(100);
        assert_eq!((c.seed, c.scale), (9, 2.0));
        assert_eq!((c.program_fail_prob, c.die_fault_prob), (0.5, 0.25));
        assert_eq!(c.scrub_interval, 100);
    }

    #[test]
    fn streams_are_deterministic_and_independent() {
        let mut a = state(FaultConfig::enabled());
        let mut b = state(FaultConfig::enabled());
        // Same access sequence reproduces exactly.
        let seq_a: Vec<f64> = (0..32).map(|i| a.read_draw(i % 5)).collect();
        let seq_b: Vec<f64> = (0..32).map(|i| b.read_draw(i % 5)).collect();
        assert_eq!(seq_a, seq_b);
        // Interleaving another stream does not shift the read stream.
        let mut c = state(FaultConfig::enabled());
        let interleaved: Vec<f64> = (0..32)
            .map(|i| {
                let _ = c.program_draw(i % 5);
                let _ = c.die_draw(i % 3);
                c.read_draw(i % 5)
            })
            .collect();
        assert_eq!(seq_a, interleaved);
        // Different seeds decorrelate.
        let mut d = state(FaultConfig::enabled().with_seed(1));
        let seq_d: Vec<f64> = (0..32).map(|i| d.read_draw(i % 5)).collect();
        assert_ne!(seq_a, seq_d);
    }

    #[test]
    fn draws_are_uniform_units() {
        let mut s = state(FaultConfig::enabled());
        let draws: Vec<f64> = (0..10_000).map(|i| s.read_draw(i)).collect();
        assert!(draws.iter().all(|&u| (0.0..1.0).contains(&u)));
        let mean = draws.iter().sum::<f64>() / draws.len() as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn reset_replays_the_streams() {
        let mut s = state(FaultConfig::enabled());
        let first: Vec<f64> = (0..8).map(|_| s.read_draw(7)).collect();
        s.reset();
        let second: Vec<f64> = (0..8).map(|_| s.read_draw(7)).collect();
        assert_eq!(first, second);
    }

    #[test]
    fn fer_grows_with_ber_and_shrinks_with_sensing() {
        let mut s = state(FaultConfig::enabled());
        let low = s.frame_error_rate(1e-3, 0);
        let high = s.frame_error_rate(1.6e-2, 0);
        assert!(high > low, "FER must grow with BER: {low} vs {high}");
        let deep = s.frame_error_rate(1.6e-2, 6);
        assert!(deep < high, "more sensing must cut FER: {high} vs {deep}");
        assert!((0.0..=1.0).contains(&deep));
    }

    #[test]
    fn fer_at_class_boundary_is_near_target() {
        // The calibration contract: a read at its class-boundary BER
        // fails with roughly frame_target probability.
        let schedule = derived_schedule();
        let mut s = state(FaultConfig::enabled());
        for (level, &boundary) in schedule.thresholds().iter().enumerate() {
            let fer = s.frame_error_rate(boundary, level as u32);
            assert!(
                fer <= FaultConfig::default().frame_target * 1.5,
                "level {level} boundary FER {fer} overshoots"
            );
        }
    }

    #[test]
    fn scale_accelerates_faults() {
        let mut base = state(FaultConfig::enabled());
        let mut fast = state(FaultConfig::enabled().with_scale(10.0));
        let b = base.frame_error_rate(1.2e-2, 4);
        let f = fast.frame_error_rate(1.2e-2, 4);
        assert!(f > b, "scaled FER {f} must exceed base {b}");
        assert!(f <= 1.0);
    }

    #[test]
    fn retry_gain_is_clamped() {
        let s = FaultState::new(FaultConfig::enabled(), &derived_schedule(), 1e-6);
        assert_eq!(s.retry_fer_factor(), 0.02);
        let s = FaultState::new(FaultConfig::enabled(), &derived_schedule(), 3.0);
        assert_eq!(s.retry_fer_factor(), 0.5);
    }

    #[test]
    fn counter_snapshot_round_trips_the_streams() {
        let mut a = state(FaultConfig::enabled());
        for i in 0..16 {
            let _ = a.read_draw(i % 5);
            let _ = a.program_draw(i % 3);
        }
        let snap = a.counters_snapshot();
        // Sorted and deterministic.
        assert!(snap.windows(2).all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)));
        let mut b = state(FaultConfig::enabled());
        b.restore_counters(&snap);
        // The restored injector continues the exact same streams.
        let next_a: Vec<f64> = (0..8).map(|i| a.read_draw(i % 5)).collect();
        let next_b: Vec<f64> = (0..8).map(|i| b.read_draw(i % 5)).collect();
        assert_eq!(next_a, next_b);
    }

    #[test]
    fn crash_cuts_are_deterministic_and_in_range() {
        let plan = CrashPlan::at_request(0xC4A5, 40);
        let (cut, torn) = plan.cut(40, 10, 18);
        assert_eq!((cut, torn), plan.cut(40, 10, 18));
        assert!((11..=18).contains(&cut));
        // No records appended: the cut degenerates, never torn.
        assert_eq!(plan.cut(40, 10, 10), (10, false));
        // Different request indices decorrelate.
        assert_ne!(plan.cut(41, 10, 18), plan.cut(42, 10, 18));
    }

    #[test]
    fn sweep_points_cover_the_journal() {
        let points = CrashPlan::sweep_points(0x5EED, 200, 1000);
        assert_eq!(points.len(), 200);
        assert_eq!(points, CrashPlan::sweep_points(0x5EED, 200, 1000));
        assert!(points.iter().all(|&(cut, _)| cut <= 1000));
        let distinct: std::collections::HashSet<usize> =
            points.iter().map(|&(cut, _)| cut).collect();
        assert!(
            distinct.len() > 100,
            "cuts should spread: {}",
            distinct.len()
        );
        assert!(points.iter().any(|&(_, torn)| torn));
        assert!(points.iter().any(|&(_, torn)| !torn));
    }
}
