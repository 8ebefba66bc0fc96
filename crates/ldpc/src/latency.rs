//! Read-latency model of an LDPC-protected NAND page read.
//!
//! A read costs: one sensing pass per sensing level (nominal + extra),
//! one bus transfer of the sensed page image per pass, and the decoder
//! runtime. The sensing/transfer constants come from Table 6 via
//! [`flash_model::NandTiming`]; the decoder constants model a hardware
//! min-sum engine. At six extra levels the total lands at ≈7× a
//! hard-decision read — the inflation the paper cites for BER 1e-2.

use flash_model::{Micros, NandTiming};
use serde::{Deserialize, Serialize};

use crate::sensing::FerMeasurement;

/// Latency model for LDPC-protected reads.
///
/// ```
/// use ldpc::ReadLatencyModel;
///
/// let m = ReadLatencyModel::paper_mlc();
/// // Soft sensing levels dominate the read cost.
/// assert!(m.read_latency(6, 10) > m.read_latency(0, 10) * 5.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReadLatencyModel {
    /// Device timing (sense, transfer, ReduceCode cycle).
    pub timing: NandTiming,
    /// Fixed decoder pipeline latency.
    pub decode_base: Micros,
    /// Additional latency per decoder iteration.
    pub decode_per_iteration: Micros,
}

impl ReadLatencyModel {
    /// The reproduction's default: Table 6 timing plus a hardware decoder
    /// at 2 µs setup + 1.5 µs/iteration.
    pub fn paper_mlc() -> ReadLatencyModel {
        ReadLatencyModel {
            timing: NandTiming::paper_mlc(),
            decode_base: Micros(2.0),
            decode_per_iteration: Micros(1.5),
        }
    }

    /// Latency of a read using `extra_levels` soft sensing levels and
    /// `iterations` decoder iterations.
    pub fn read_latency(&self, extra_levels: u32, iterations: u32) -> Micros {
        self.timing.read_transfer_latency(extra_levels)
            + self.decode_base
            + self.decode_per_iteration * iterations as f64
    }

    /// Decoder-only latency of a decode running `iterations` iterations
    /// (pipeline setup plus the per-iteration cost).
    pub fn decode_latency(&self, iterations: u32) -> Micros {
        self.decode_base + self.decode_per_iteration * iterations as f64
    }

    /// A monotone heuristic for expected decoder iterations at raw BER
    /// `ber`, calibrated against the min-sum decoder's measured behaviour
    /// (clean frames converge in 1–3 iterations; near-threshold frames
    /// take 15–30).
    pub fn typical_iterations(&self, ber: f64) -> u32 {
        let est = 2.0 + 900.0 * ber;
        est.clamp(1.0, 30.0) as u32
    }

    /// Convenience: latency of a read at raw BER `ber` needing
    /// `extra_levels`, with iterations from
    /// [`typical_iterations`](Self::typical_iterations).
    pub fn read_latency_at_ber(&self, extra_levels: u32, ber: f64) -> Micros {
        self.read_latency(extra_levels, self.typical_iterations(ber))
    }
}

/// Mean decoder iterations-to-converge, measured per sensing depth.
///
/// Indexed by extra sensing levels (0 through [`SLOTS`](Self::SLOTS)`-1`;
/// deeper reads saturate at the last slot). Built from a measured FER
/// ladder via [`from_ladder`](Self::from_ladder), it replaces the
/// [`typical_iterations`](ReadLatencyModel::typical_iterations) heuristic
/// with what the real decoder did — early convergence on clean frames
/// included.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IterationProfile {
    mean: [f64; IterationProfile::SLOTS],
}

impl IterationProfile {
    /// Number of sensing depths tracked: levels 0..=7, covering the
    /// paper's 0–6 extra-level range with headroom.
    pub const SLOTS: usize = 8;

    /// Builds a profile from per-depth mean iteration counts.
    ///
    /// # Panics
    ///
    /// Panics if any mean is not finite or is below 1 (every decode runs
    /// at least one iteration).
    pub fn new(mean: [f64; IterationProfile::SLOTS]) -> IterationProfile {
        for (level, &m) in mean.iter().enumerate() {
            assert!(
                m.is_finite() && m >= 1.0,
                "mean iterations at level {level} must be ≥ 1, got {m}"
            );
        }
        IterationProfile { mean }
    }

    /// Builds a profile from a measured sensing ladder (as
    /// [`measure_iteration_profile`](crate::sensing::measure_iteration_profile)
    /// measures it): each rung's mean iteration count fills its level
    /// slot, and unmeasured depths inherit the nearest shallower
    /// measurement. Returns `None` on an empty ladder.
    pub fn from_ladder(ladder: &[FerMeasurement]) -> Option<IterationProfile> {
        if ladder.is_empty() {
            return None;
        }
        let mut mean = [f64::NAN; IterationProfile::SLOTS];
        for m in ladder {
            let slot = (m.extra_levels as usize).min(IterationProfile::SLOTS - 1);
            mean[slot] = m.mean_iterations.max(1.0);
        }
        // Fill gaps forward from the nearest shallower rung, then any
        // leading gap backward from the first measured one.
        let first = mean
            .iter()
            .position(|m| m.is_finite())
            .expect("non-empty ladder has a measured rung");
        for slot in 0..first {
            mean[slot] = mean[first];
        }
        for slot in first + 1..IterationProfile::SLOTS {
            if !mean[slot].is_finite() {
                mean[slot] = mean[slot - 1];
            }
        }
        Some(IterationProfile::new(mean))
    }

    /// Mean iterations at `extra_levels` (saturating at the last slot).
    pub fn mean_iterations(&self, extra_levels: u32) -> f64 {
        self.mean[(extra_levels as usize).min(IterationProfile::SLOTS - 1)]
    }

    /// Integer iteration count at `extra_levels`: the rounded mean,
    /// clamped to the decoder's 1..=30 range.
    pub fn iterations(&self, extra_levels: u32) -> u32 {
        self.mean_iterations(extra_levels).round().clamp(1.0, 30.0) as u32
    }
}

impl Default for ReadLatencyModel {
    fn default() -> ReadLatencyModel {
        ReadLatencyModel::paper_mlc()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hard_read_baseline() {
        let m = ReadLatencyModel::paper_mlc();
        let hard = m.read_latency(0, 2);
        // 90 (sense) + 40 (transfer) + 2 + 3 = 135 µs
        assert_eq!(hard, Micros(135.0));
    }

    #[test]
    fn six_levels_is_about_seven_x() {
        let m = ReadLatencyModel::paper_mlc();
        let hard = m.read_latency(0, 2).as_f64();
        let soft = m.read_latency(6, 25).as_f64();
        let ratio = soft / hard;
        assert!(
            (6.0..8.0).contains(&ratio),
            "6 extra levels should cost ≈7× a hard read, got {ratio:.2}×"
        );
    }

    #[test]
    fn latency_monotone_in_levels_and_iterations() {
        let m = ReadLatencyModel::paper_mlc();
        assert!(m.read_latency(1, 5) > m.read_latency(0, 5));
        assert!(m.read_latency(1, 6) > m.read_latency(1, 5));
    }

    #[test]
    fn typical_iterations_monotone_and_clamped() {
        let m = ReadLatencyModel::paper_mlc();
        assert!(m.typical_iterations(0.0) >= 1);
        assert!(m.typical_iterations(1e-3) <= m.typical_iterations(1e-2));
        assert_eq!(m.typical_iterations(1.0), 30);
    }

    #[test]
    fn read_latency_at_ber_grows_with_ber() {
        let m = ReadLatencyModel::paper_mlc();
        assert!(m.read_latency_at_ber(0, 1e-2) > m.read_latency_at_ber(0, 1e-4));
    }

    #[test]
    fn iteration_profile_lookup_saturates() {
        let p = IterationProfile::new([2.0, 2.4, 3.6, 5.0, 8.0, 12.0, 18.0, 25.0]);
        assert_eq!(p.iterations(0), 2);
        assert_eq!(p.iterations(1), 2); // 2.4 rounds down
        assert_eq!(p.iterations(2), 4); // 3.6 rounds up
        assert_eq!(p.iterations(7), 25);
        assert_eq!(p.iterations(40), 25); // saturates at the last slot
    }

    #[test]
    fn iteration_profile_from_ladder_fills_gaps() {
        let rung = |extra_levels, mean_iterations| FerMeasurement {
            extra_levels,
            success_rate: 1.0,
            mean_iterations,
            raw_ber: 1e-3,
        };
        let p = IterationProfile::from_ladder(&[rung(1, 4.2), rung(3, 9.8)]).unwrap();
        assert_eq!(p.iterations(0), 4); // leading gap inherits level 1
        assert_eq!(p.iterations(1), 4);
        assert_eq!(p.iterations(2), 4); // gap inherits shallower rung
        assert_eq!(p.iterations(3), 10);
        assert_eq!(p.iterations(7), 10); // trailing gaps inherit deepest
        assert_eq!(IterationProfile::from_ladder(&[]), None);
    }

    #[test]
    #[should_panic(expected = "must be ≥ 1")]
    fn iteration_profile_rejects_sub_one_means() {
        let _ = IterationProfile::new([0.5; IterationProfile::SLOTS]);
    }
}
