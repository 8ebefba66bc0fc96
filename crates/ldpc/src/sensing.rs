//! Required-sensing-level estimation (the machinery behind Table 5).
//!
//! How many extra soft sensing levels does the LDPC decoder need before a
//! page is reliably decodable? Two paths answer that question:
//!
//! * [`decode_success_rate`] / [`minimum_levels`] — the *measured* path:
//!   run the real min-sum decoder over Monte-Carlo-corrupted codewords at
//!   each sensing precision and find the smallest one that decodes. This is
//!   what the Table 5 experiment binary uses.
//! * [`SensingSchedule`] — the *fast* path: a monotone raw-BER → levels
//!   lookup used by the SSD simulator, which needs millions of per-read
//!   queries. The default schedule reproduces the paper's published
//!   Table 4 → Table 5 mapping (first extra level triggered at BER
//!   4 × 10⁻³, §6.1) and can be re-derived from the measured path.

use std::sync::Arc;

use reliability::mc::{self, McOptions};
use serde::{Deserialize, Serialize};

use crate::channel::MlcReadChannel;
use crate::code::QcLdpcCode;
use crate::decoder::{DecoderGraph, MinSumDecoder};
use crate::encoder::{encode, random_info};
use crate::farm::{DecodeFarm, DecodeRequest};
use crate::quantized::{DecoderWorkspace, LlrQuantizer, QuantizedMinSumDecoder};

/// Outcome of a frame-error-rate measurement at one sensing precision.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FerMeasurement {
    /// Extra sensing levels used.
    pub extra_levels: u32,
    /// Fraction of frames decoded successfully.
    pub success_rate: f64,
    /// Mean decoder iterations over all trials.
    pub mean_iterations: f64,
    /// Raw channel BER observed during channel calibration.
    pub raw_ber: f64,
}

/// Measures the decoder's frame success rate over `trials` random
/// codewords transmitted through `channel`.
pub fn decode_success_rate<R: rand::Rng + ?Sized>(
    code: &QcLdpcCode,
    graph: &DecoderGraph,
    decoder: &MinSumDecoder,
    channel: &MlcReadChannel,
    trials: u32,
    rng: &mut R,
) -> (f64, f64) {
    assert!(trials > 0, "need at least one trial");
    let mut ws = DecoderWorkspace::new();
    let mut llrs = vec![0.0f32; code.codeword_bits()];
    let mut successes = 0u32;
    let mut iterations = 0u64;
    for _ in 0..trials {
        let info = random_info(code, rng);
        let cw = encode(code, &info).expect("random info has the right length");
        for (llr, &b) in llrs.iter_mut().zip(&cw) {
            *llr = channel.sample_llr(b, rng);
        }
        let out = decoder.decode_with(graph, &llrs, &mut ws);
        iterations += u64::from(out.iterations);
        if out.success && out.info_bits(code) == &info[..] {
            successes += 1;
        }
    }
    (
        successes as f64 / trials as f64,
        iterations as f64 / trials as f64,
    )
}

/// Batch width of [`measure_fer`]. Fixed — like the MC engine's shard
/// layout, it is part of the determinism contract: trials within a shard
/// decode in groups of this size, in order, so results are independent of
/// the thread count but would change under a different batch width.
pub const FER_BATCH: usize = 8;

/// Aggregate outcome of a [`measure_fer`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FerStats {
    /// Total frames decoded.
    pub trials: u64,
    /// Frames that failed to decode to the transmitted codeword.
    pub frame_errors: u64,
    /// Decoder iterations summed over all frames.
    pub total_iterations: u64,
}

impl FerStats {
    /// Frame error rate.
    pub fn fer(&self) -> f64 {
        self.frame_errors as f64 / self.trials as f64
    }

    /// Fraction of frames decoded successfully.
    pub fn success_rate(&self) -> f64 {
        1.0 - self.fer()
    }

    /// Mean decoder iterations per frame.
    pub fn mean_iterations(&self) -> f64 {
        self.total_iterations as f64 / self.trials as f64
    }
}

/// Measures the quantized batch decoder's frame error rate over `trials`
/// random codewords through `channel`, sharded across the deterministic
/// MC engine.
///
/// Each shard owns one [`DecoderWorkspace`] and decodes its trials in
/// fixed-order batches of [`FER_BATCH`] lanes, so the result is
/// bit-identical for every thread count (the PR 1 contract) while the
/// graph is traversed once per iteration for the whole batch.
///
/// # Panics
///
/// Panics if `trials == 0`.
pub fn measure_fer(
    code: &QcLdpcCode,
    decoder: &QuantizedMinSumDecoder,
    channel: &MlcReadChannel,
    quantizer: &LlrQuantizer,
    trials: u64,
    seed: u64,
    options: &McOptions,
) -> FerStats {
    assert!(trials > 0, "need at least one trial");
    let graph = DecoderGraph::cached(code);
    let table = channel.quantized_llr_table(quantizer);
    let shards = mc::run_trials(trials, seed, options, |_, shard_trials, rng| {
        fer_shard(code, &graph, decoder, channel, &table, shard_trials, rng)
    });
    let mut stats = FerStats {
        trials,
        frame_errors: 0,
        total_iterations: 0,
    };
    for (errors, iterations) in shards {
        stats.frame_errors += errors;
        stats.total_iterations += iterations;
    }
    stats
}

/// One MC shard of [`measure_fer`]: decode `shard_trials` frames in
/// fixed-order [`FER_BATCH`]-lane groups, returning `(frame_errors,
/// total_iterations)`. [`measure_fer`] and [`measure_fer_until`] share
/// it, and so one frame sequence.
fn fer_shard<R: rand::Rng + ?Sized>(
    code: &QcLdpcCode,
    graph: &DecoderGraph,
    decoder: &QuantizedMinSumDecoder,
    channel: &MlcReadChannel,
    table: &[i8],
    shard_trials: u64,
    rng: &mut R,
) -> (u64, u64) {
    let n = code.codeword_bits();
    let mut ws = DecoderWorkspace::new();
    let mut qllrs = vec![0i8; n * FER_BATCH];
    let mut sent = vec![0u8; n * FER_BATCH];
    let mut errors = 0u64;
    let mut iterations = 0u64;
    let mut remaining = shard_trials;
    while remaining > 0 {
        let lanes = remaining.min(FER_BATCH as u64) as usize;
        for lane in 0..lanes {
            let info = random_info(code, rng);
            let cw = encode(code, &info).expect("random info has the right length");
            for (bit, &b) in cw.iter().enumerate() {
                let region = channel.sample_region(b, rng);
                qllrs[bit * lanes + lane] = table[region];
                sent[bit * lanes + lane] = b;
            }
        }
        let out = decoder.decode_batch(graph, &qllrs[..n * lanes], lanes, &mut ws);
        for lane in 0..lanes {
            iterations += u64::from(out.iterations(lane));
            let ok = out.success(lane)
                && (0..n).all(|bit| out.hard_bit(lane, bit) == sent[bit * lanes + lane]);
            if !ok {
                errors += 1;
            }
        }
        remaining -= lanes as u64;
    }
    (errors, iterations)
}

/// [`measure_fer`] with a deterministic early-exit drain: stops
/// dispatching new shard waves once `target_errors` frame errors have
/// accumulated, so low-BER sweep points don't burn the full trial budget
/// after the estimate is already resolved.
///
/// Built on [`mc::run_trials_until`]: shards run in fixed waves of
/// [`mc::WAVE_SHARDS`] and the error count is only consulted between
/// waves, so the executed trial prefix — and every statistic — is
/// bit-identical for every thread count. `FerStats::trials` reports the
/// trials actually executed (`≤ max_trials`); each executed frame is
/// identical to the corresponding [`measure_fer`] frame, and when the
/// target is never reached the result equals
/// `measure_fer(.., max_trials, ..)` exactly.
///
/// # Panics
///
/// Panics if `max_trials == 0`.
#[allow(clippy::too_many_arguments)] // mirrors measure_fer + the stopping pair
pub fn measure_fer_until(
    code: &QcLdpcCode,
    decoder: &QuantizedMinSumDecoder,
    channel: &MlcReadChannel,
    quantizer: &LlrQuantizer,
    max_trials: u64,
    target_errors: u64,
    seed: u64,
    options: &McOptions,
) -> FerStats {
    assert!(max_trials > 0, "need at least one trial");
    let graph = DecoderGraph::cached(code);
    let table = channel.quantized_llr_table(quantizer);
    let shards = mc::run_trials_until(
        max_trials,
        seed,
        options,
        |_, shard_trials, rng| {
            let (errors, iterations) =
                fer_shard(code, &graph, decoder, channel, &table, shard_trials, rng);
            (shard_trials, errors, iterations)
        },
        |done| done.iter().map(|shard| shard.1).sum::<u64>() >= target_errors,
    );
    let mut stats = FerStats {
        trials: 0,
        frame_errors: 0,
        total_iterations: 0,
    };
    for (shard_trials, errors, iterations) in shards {
        stats.trials += shard_trials;
        stats.frame_errors += errors;
        stats.total_iterations += iterations;
    }
    stats
}

/// [`measure_fer`] through a shared [`DecodeFarm`] instead of per-shard
/// [`FER_BATCH`]-lane batches.
///
/// Frame generation reuses `measure_fer`'s shard layout and per-trial RNG
/// consumption order, so every frame is bit-identical to the
/// corresponding `measure_fer` frame; the frames are then submitted as
/// one request queue and packed into the farm's (wider) batches. Because
/// the quantized kernels are strictly lane-wise, re-batching cannot
/// change any verdict — this returns **exactly** `measure_fer`'s
/// statistics for the same `(trials, seed, options)` and the farm's
/// decoder, for every worker count and batch width.
///
/// # Panics
///
/// Panics if `trials == 0` or the farm was built for a different code.
pub fn measure_fer_farm(
    code: &QcLdpcCode,
    channel: &MlcReadChannel,
    quantizer: &LlrQuantizer,
    trials: u64,
    seed: u64,
    options: &McOptions,
    farm: &DecodeFarm,
) -> FerStats {
    assert!(trials > 0, "need at least one trial");
    let table = channel.quantized_llr_table(quantizer);
    let n = code.codeword_bits();
    let shards = mc::run_trials(trials, seed, options, |_, shard_trials, rng| {
        let mut requests = Vec::with_capacity(shard_trials as usize);
        for _ in 0..shard_trials {
            let info = random_info(code, rng);
            let cw = encode(code, &info).expect("random info has the right length");
            let mut qllrs = vec![0i8; n];
            for (bit, &b) in cw.iter().enumerate() {
                qllrs[bit] = table[channel.sample_region(b, rng)];
            }
            requests.push(DecodeRequest {
                qllrs,
                expected: Some(cw),
            });
        }
        requests
    });
    let requests: Vec<DecodeRequest> = shards.into_iter().flatten().collect();
    let verdicts = farm.decode_all(&requests);
    FerStats {
        trials,
        frame_errors: verdicts.iter().filter(|v| !v.correct).count() as u64,
        total_iterations: verdicts.iter().map(|v| u64::from(v.iterations)).sum(),
    }
}

/// Finds the minimum number of extra sensing levels (0..=`max_levels`)
/// at which the decoder reaches `target_success` over `trials` frames.
///
/// Returns the full measurement ladder; the first entry meeting the target
/// is the answer (callers may also inspect the whole curve). The channel
/// is obtained per precision via `make_channel(extra_levels)` —
/// typically [`MlcReadChannel::build_cached`], so repeated ladders over
/// the same stress grid reuse calibrations.
pub fn minimum_levels<F, R>(
    code: &QcLdpcCode,
    decoder: &MinSumDecoder,
    max_levels: u32,
    trials: u32,
    target_success: f64,
    mut make_channel: F,
    rng: &mut R,
) -> Vec<FerMeasurement>
where
    F: FnMut(u32) -> Arc<MlcReadChannel>,
    R: rand::Rng + ?Sized,
{
    let graph = DecoderGraph::cached(code);
    let mut ladder = Vec::new();
    for extra in 0..=max_levels {
        let channel = make_channel(extra);
        let (success_rate, mean_iterations) =
            decode_success_rate(code, &graph, decoder, &channel, trials, rng);
        ladder.push(FerMeasurement {
            extra_levels: extra,
            success_rate,
            mean_iterations,
            raw_ber: channel.raw_ber(),
        });
        if success_rate >= target_success {
            break;
        }
    }
    ladder
}

/// A monotone raw-BER → required-extra-sensing-levels lookup.
///
/// `max_ber[e]` is the highest raw BER at which `e` extra levels still meet
/// the UBER target; BERs beyond the last entry saturate at
/// `max_ber.len()` levels.
///
/// ```
/// use ldpc::SensingSchedule;
///
/// let sched = SensingSchedule::paper_anchor();
/// assert_eq!(sched.required_levels(1e-3), 0);   // low BER: hard decision
/// assert_eq!(sched.required_levels(1.61e-2), 6); // Table 5: 6000 P/E, 1 month
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SensingSchedule {
    max_ber: Vec<f64>,
}

impl SensingSchedule {
    /// Builds a schedule from per-level maximum BERs.
    ///
    /// # Panics
    ///
    /// Panics if the thresholds are empty or not strictly increasing.
    pub fn new(max_ber: Vec<f64>) -> SensingSchedule {
        assert!(!max_ber.is_empty(), "schedule needs at least one threshold");
        assert!(
            max_ber.windows(2).all(|w| w[0] < w[1]),
            "sensing thresholds must be strictly increasing"
        );
        SensingSchedule { max_ber }
    }

    /// The schedule consistent with the paper's §6.1 (first extra level at
    /// raw BER 4 × 10⁻³) and the published Table 4 → Table 5 mapping.
    ///
    /// Every (P/E, retention) grid point of Table 4's baseline column maps
    /// to exactly the extra-level count of Table 5 under this schedule.
    pub fn paper_anchor() -> SensingSchedule {
        SensingSchedule::new(vec![
            4.2e-3,  // 0 extra levels suffice up to here (the 4e-3 trigger)
            5.5e-3,  // 1
            7.0e-3,  // 2
            7.5e-3,  // 3
            1.25e-2, // 4
            1.45e-2, // 5
            1.7e-2,  // 6
        ])
    }

    /// Number of extra sensing levels required at raw BER `ber`.
    ///
    /// # Panics
    ///
    /// Panics if `ber` is negative or NaN.
    pub fn required_levels(&self, ber: f64) -> u32 {
        assert!(ber >= 0.0 && !ber.is_nan(), "invalid BER {ber}");
        for (e, &limit) in self.max_ber.iter().enumerate() {
            if ber <= limit {
                return e as u32;
            }
        }
        self.max_ber.len() as u32
    }

    /// The largest level count this schedule can demand.
    pub fn max_extra_levels(&self) -> u32 {
        self.max_ber.len() as u32
    }

    /// Per-level maximum BERs.
    pub fn thresholds(&self) -> &[f64] {
        &self.max_ber
    }

    /// Folds measured `(raw_ber, min_levels)` points into a schedule: the
    /// threshold for `e` levels is the highest BER whose measured minimum
    /// was `≤ e`, interpolated midway to the first BER that needed more.
    ///
    /// Points are sorted internally. Returns `None` if fewer than two
    /// distinct level counts were observed (nothing to calibrate).
    pub fn from_measurements(points: &[(f64, u32)]) -> Option<SensingSchedule> {
        if points.is_empty() {
            return None;
        }
        let mut sorted: Vec<(f64, u32)> = points.to_vec();
        sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite BER"));
        let max_level = sorted.iter().map(|p| p.1).max()?;
        if max_level == 0 {
            return None;
        }
        let mut thresholds = Vec::new();
        for e in 0..max_level {
            // Highest BER decodable with ≤ e levels.
            let below = sorted
                .iter()
                .filter(|p| p.1 <= e)
                .map(|p| p.0)
                .fold(f64::NEG_INFINITY, f64::max);
            // Lowest BER needing more than e levels.
            let above = sorted
                .iter()
                .filter(|p| p.1 > e)
                .map(|p| p.0)
                .fold(f64::INFINITY, f64::min);
            let threshold = if below.is_finite() && above.is_finite() {
                (below + above) / 2.0
            } else if below.is_finite() {
                below
            } else {
                above * 0.9
            };
            thresholds.push(threshold);
        }
        // Enforce strict monotonicity (measurement noise can invert points).
        for i in 1..thresholds.len() {
            if thresholds[i] <= thresholds[i - 1] {
                thresholds[i] = thresholds[i - 1] * 1.05;
            }
        }
        Some(SensingSchedule::new(thresholds))
    }
}

impl Default for SensingSchedule {
    fn default() -> SensingSchedule {
        SensingSchedule::paper_anchor()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{ChannelStress, SoftSensingConfig};
    use flash_model::{Hours, LevelConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn paper_anchor_reproduces_table5() {
        // Table 4 baseline BER (rows) → Table 5 extra levels.
        let sched = SensingSchedule::paper_anchor();
        let cases: &[(f64, u32)] = &[
            (0.000638, 0), // 2000 / 1 day
            (0.00184, 0),  // 2000 / 1 month
            (0.00260, 0),  // 3000 / 1 week
            (0.00459, 1),  // 3000 / 1 month
            (0.00229, 0),  // 4000 / 1 day
            (0.00456, 1),  // 4000 / 1 week
            (0.00778, 4),  // 4000 / 1 month
            (0.00359, 0),  // 5000 / 1 day
            (0.00457, 1),  // 5000 / 2 days
            (0.00699, 2),  // 5000 / 1 week
            (0.0120, 4),   // 5000 / 1 month
            (0.00484, 1),  // 6000 / 1 day
            (0.00613, 2),  // 6000 / 2 days
            (0.00961, 4),  // 6000 / 1 week
            (0.0161, 6),   // 6000 / 1 month
        ];
        for &(ber, want) in cases {
            assert_eq!(
                sched.required_levels(ber),
                want,
                "BER {ber} should need {want} levels"
            );
        }
    }

    #[test]
    fn required_levels_monotone() {
        let sched = SensingSchedule::paper_anchor();
        let mut prev = 0;
        for i in 0..200 {
            let ber = i as f64 * 1e-4;
            let e = sched.required_levels(ber);
            assert!(e >= prev);
            prev = e;
        }
        // Saturation above the last threshold.
        assert_eq!(sched.required_levels(0.5), sched.max_extra_levels());
    }

    #[test]
    fn schedule_validation() {
        assert_eq!(
            SensingSchedule::new(vec![1e-3, 2e-3]).required_levels(1.5e-3),
            1
        );
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn schedule_rejects_unsorted() {
        let _ = SensingSchedule::new(vec![2e-3, 1e-3]);
    }

    #[test]
    #[should_panic(expected = "at least one threshold")]
    fn schedule_rejects_empty() {
        let _ = SensingSchedule::new(vec![]);
    }

    #[test]
    fn from_measurements_interpolates() {
        let points = [(1e-3, 0u32), (3e-3, 0), (5e-3, 1), (7e-3, 2), (9e-3, 3)];
        let sched = SensingSchedule::from_measurements(&points).unwrap();
        assert_eq!(sched.max_extra_levels(), 3);
        assert_eq!(sched.required_levels(3.5e-3), 0); // below (3e-3+5e-3)/2
        assert_eq!(sched.required_levels(4.5e-3), 1);
        assert_eq!(sched.required_levels(8.5e-3), 3);
    }

    #[test]
    fn from_measurements_degenerate_cases() {
        assert_eq!(SensingSchedule::from_measurements(&[]), None);
        assert_eq!(SensingSchedule::from_measurements(&[(1e-3, 0)]), None);
    }

    #[test]
    fn decoder_ladder_improves_with_levels() {
        // At a harsh stress point, more sensing levels must not hurt the
        // success rate (and typically strictly help).
        let code = QcLdpcCode::small_test_code();
        let decoder = MinSumDecoder::new();
        let cfg = LevelConfig::normal_mlc();
        let mut rng = StdRng::seed_from_u64(21);
        let ladder = minimum_levels(
            &code,
            &decoder,
            4,
            40,
            0.99,
            |extra| {
                MlcReadChannel::build_cached(
                    &cfg,
                    crate::channel::PageKind::Lower,
                    ChannelStress::retention(6000, Hours::weeks(1.0)),
                    SoftSensingConfig::soft(extra),
                    20_000,
                    50 + extra as u64,
                )
            },
            &mut rng,
        );
        assert!(!ladder.is_empty());
        // Success rate should be non-decreasing along the ladder within
        // Monte-Carlo tolerance.
        for w in ladder.windows(2) {
            assert!(
                w[1].success_rate >= w[0].success_rate - 0.15,
                "ladder regressed: {ladder:?}"
            );
        }
    }

    #[test]
    fn measure_fer_counts_and_iterations_are_sane() {
        let code = QcLdpcCode::small_test_code();
        let channel = MlcReadChannel::build_cached(
            &LevelConfig::normal_mlc(),
            crate::channel::PageKind::Lower,
            ChannelStress::retention(5000, Hours::weeks(1.0)),
            SoftSensingConfig::soft(4),
            20_000,
            31,
        );
        let opts = mc::McOptions {
            min_shard_trials: 32,
            ..mc::McOptions::default()
        };
        let stats = measure_fer(
            &code,
            &QuantizedMinSumDecoder::new(),
            &channel,
            &LlrQuantizer::default(),
            100,
            17,
            &opts,
        );
        assert_eq!(stats.trials, 100);
        assert!(stats.frame_errors <= stats.trials);
        // Every frame executes at least one iteration.
        assert!(stats.total_iterations >= stats.trials);
        assert!((0.0..=1.0).contains(&stats.fer()));
        assert!((stats.success_rate() + stats.fer() - 1.0).abs() < 1e-12);
        assert!(stats.mean_iterations() >= 1.0);
    }
}
