//! Parity contract of the bit-sliced decode path (PR 7).
//!
//! The bit-plane kernel and the layered schedule are only allowed into
//! the hot path because they are provably output-compatible:
//!
//! 1. **Kernel parity is exact** — for the same schedule, the bit-plane
//!    kernel must reproduce the i8 SoA kernel's `(success, iterations,
//!    hard decision)` lane for lane, on clean frames and at raw BER
//!    1e-2, including batches wider than one 64-lane plane group.
//! 2. **Schedule parity is statistical** — layered is a different
//!    message-passing order, so outcomes may differ per frame; the
//!    paired success-count difference stays inside a 6σ discordant-pair
//!    bound (the same bound `quantized_parity.rs` uses for i8 vs f32),
//!    and layered must not need more iterations on average.
//! 3. **Batch width and the early-exit drain preserve the MC contract** —
//!    `measure_fer` keeps the statistics it had when it decoded 8-lane
//!    batches, and `measure_fer_until` is bit-identical across 1/2/8
//!    threads.

use flash_model::{Hours, LevelConfig};
use ldpc::bitplane::{transpose64, untranspose64};
use ldpc::{
    encode, measure_fer, measure_fer_until, random_info, ChannelStress, DecodeKernel, DecoderGraph,
    DecoderWorkspace, FerStats, LlrQuantizer, MlcReadChannel, PageKind, QcLdpcCode,
    QuantizedMinSumDecoder, Schedule, SoftSensingConfig, Q_MAX,
};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use reliability::mc::{McOptions, WAVE_SHARDS};

const LLR_MAG: f32 = 4.0;

fn bsc_batch(code: &QcLdpcCode, batch: usize, p: f64, rng: &mut StdRng) -> (Vec<i8>, Vec<u8>) {
    let n = code.codeword_bits();
    let q = LlrQuantizer::default();
    let mut qllrs = vec![0i8; n * batch];
    let mut sent = vec![0u8; n * batch];
    for lane in 0..batch {
        let cw = encode(code, &random_info(code, rng)).unwrap();
        for (bit, &b) in cw.iter().enumerate() {
            let observed = b ^ u8::from(p > 0.0 && rng.gen_bool(p));
            qllrs[bit * batch + lane] = q.quantize(if observed == 0 { LLR_MAG } else { -LLR_MAG });
            sent[bit * batch + lane] = b;
        }
    }
    (qllrs, sent)
}

/// Asserts the two kernels agree lane for lane on the same schedule:
/// same success flag, same iteration count, same hard decision bits.
fn assert_kernel_parity(schedule: Schedule, batch: usize, p: f64, seed: u64) {
    let code = QcLdpcCode::small_test_code();
    let graph = DecoderGraph::cached(&code);
    let n = code.codeword_bits();
    let mut rng = StdRng::seed_from_u64(seed);
    let (qllrs, _) = bsc_batch(&code, batch, p, &mut rng);

    let reference = QuantizedMinSumDecoder::new()
        .with_schedule(schedule)
        .with_kernel(DecodeKernel::I8Soa);
    let planes = reference.with_kernel(DecodeKernel::BitPlane);

    let mut ws_a = DecoderWorkspace::new();
    let mut ws_b = DecoderWorkspace::new();
    let a = reference.decode_batch(&graph, &qllrs, batch, &mut ws_a);
    let b = planes.decode_batch(&graph, &qllrs, batch, &mut ws_b);
    for lane in 0..batch {
        assert_eq!(
            a.success(lane),
            b.success(lane),
            "{schedule:?} success, lane {lane}"
        );
        assert_eq!(
            a.iterations(lane),
            b.iterations(lane),
            "{schedule:?} iterations, lane {lane}"
        );
        for bit in 0..n {
            assert_eq!(
                a.hard_bit(lane, bit),
                b.hard_bit(lane, bit),
                "{schedule:?} hard bit {bit}, lane {lane}"
            );
        }
    }
}

proptest! {
    /// 64 arbitrary lane bytes survive the plane transpose round trip.
    #[test]
    fn transpose_round_trips_arbitrary_lanes(seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut lanes = [0u8; 64];
        for lane in &mut lanes {
            *lane = rng.gen_range(0u32..256) as u8;
        }
        prop_assert_eq!(untranspose64(&transpose64(&lanes)), lanes);
    }

    /// Plane `k`, bit `j` is exactly bit `k` of lane `j` — the
    /// orientation every kernel loop depends on.
    #[test]
    fn transpose_orientation(lane in 0usize..64, bit in 0u32..8) {
        let mut lanes = [0u8; 64];
        lanes[lane] = 1u8 << bit;
        let planes = transpose64(&lanes);
        for (k, &plane) in planes.iter().enumerate() {
            let expected = if k as u32 == bit { 1u64 << lane } else { 0 };
            prop_assert_eq!(plane, expected, "plane {}", k);
        }
    }

    /// Exact kernel parity on mixed clean/noisy batches, both schedules,
    /// across batch widths that cover partial and multiple plane groups.
    #[test]
    fn kernels_agree_lane_for_lane(seed in 0u64..12, width in 0usize..4) {
        // One full plane group, partial second groups (36- and 2-lane),
        // and three exact groups. (Batches under 64 lanes fall back to
        // the reference kernel by design, so they are vacuous here.)
        let batch = [64usize, 100, 130, 192][width];
        assert_kernel_parity(Schedule::Flooding, batch, 1e-2, seed);
        assert_kernel_parity(Schedule::Layered, batch, 1e-2, 0xB17 ^ seed);
    }

    /// Clean frames: parity and success on both schedules and kernels.
    #[test]
    fn kernels_agree_on_clean_frames(seed in 0u64..12) {
        assert_kernel_parity(Schedule::Flooding, 66, 0.0, seed);
        assert_kernel_parity(Schedule::Layered, 66, 0.0, seed);
    }
}

/// Layered vs flooding at raw BER 1e-2: paired outcomes inside 6σ of the
/// discordant count, and layered converges in fewer sweeps on average —
/// the property the quantized-schedule tentpole is built on.
#[test]
fn layered_schedule_matches_flooding_outcomes_with_fewer_sweeps() {
    const FRAMES: usize = 600;
    const P: f64 = 1e-2;
    let code = QcLdpcCode::small_test_code();
    let graph = DecoderGraph::cached(&code);
    let flooding = QuantizedMinSumDecoder::new();
    let layered = flooding.with_schedule(Schedule::Layered);
    let mut rng = StdRng::seed_from_u64(0x1A7E);
    let mut ws = DecoderWorkspace::new();

    let (mut flood_ok, mut layer_ok, mut discordant) = (0u64, 0u64, 0u64);
    let (mut flood_iters, mut layer_iters) = (0u64, 0u64);
    for _ in 0..FRAMES {
        let (qllrs, sent) = bsc_batch(&code, 1, P, &mut rng);
        let f = flooding.decode(&graph, &qllrs, &mut ws);
        let l = layered.decode(&graph, &qllrs, &mut ws);
        let f_good = f.success && f.hard_decision == sent;
        let l_good = l.success && l.hard_decision == sent;
        flood_ok += u64::from(f_good);
        layer_ok += u64::from(l_good);
        discordant += u64::from(f_good != l_good);
        flood_iters += u64::from(f.iterations);
        layer_iters += u64::from(l.iterations);
    }
    assert!(flood_ok > 0 && layer_ok > 0, "channel too harsh");
    assert!(
        (flood_ok as usize) < FRAMES || (layer_ok as usize) < FRAMES,
        "channel too clean to compare schedules"
    );
    let sigma = (discordant.max(1) as f64).sqrt();
    let diff = (flood_ok as f64 - layer_ok as f64).abs();
    assert!(
        diff <= 6.0 * sigma,
        "layered diverges from flooding: |Δ successes| = {diff} > 6σ = {:.1}",
        6.0 * sigma
    );
    assert!(
        layer_iters < flood_iters,
        "layered should converge in fewer sweeps: layered {layer_iters} vs flooding {flood_iters}"
    );
}

/// Raw caller inputs outside ±Q_MAX silently fall back to the reference
/// kernel instead of corrupting the 5-bit magnitude planes — even at a
/// batch width the bit-plane kernel would otherwise claim.
#[test]
fn out_of_domain_llrs_fall_back_to_reference() {
    let code = QcLdpcCode::small_test_code();
    let graph = DecoderGraph::cached(&code);
    let n = code.codeword_bits();
    let batch = 64;
    let mut qllrs = vec![Q_MAX; n * batch];
    qllrs[17] = i8::MAX; // one lane outside the quantizer's ±Q_MAX domain
    let mut ws_a = DecoderWorkspace::new();
    let mut ws_b = DecoderWorkspace::new();
    let a = QuantizedMinSumDecoder::new()
        .with_kernel(DecodeKernel::I8Soa)
        .decode_batch(&graph, &qllrs, batch, &mut ws_a);
    let b = QuantizedMinSumDecoder::new()
        .with_kernel(DecodeKernel::BitPlane)
        .decode_batch(&graph, &qllrs, batch, &mut ws_b);
    for lane in 0..batch {
        assert_eq!(a.success(lane), b.success(lane), "lane {lane}");
        assert_eq!(a.iterations(lane), b.iterations(lane), "lane {lane}");
        for bit in 0..n {
            assert_eq!(a.hard_bit(lane, bit), b.hard_bit(lane, bit));
        }
    }
}

fn test_channel(seed: u64) -> std::sync::Arc<MlcReadChannel> {
    MlcReadChannel::build_cached(
        &LevelConfig::normal_mlc(),
        PageKind::Lower,
        ChannelStress::retention(6000, Hours::months(1.0)),
        SoftSensingConfig::hard_decision(),
        20_000,
        seed,
    )
}

/// `measure_fer` at the statistics it measured with 8-lane `i8` batches.
/// Today 32-trial shards decode one 33- or 34-lane `i8` batch each, and
/// a single 300-trial shard decodes four 64-lane bit-plane batches plus
/// a 44-lane `i8` tail: batch width and kernel must not shift a frame.
#[test]
fn measure_fer_is_pinned_across_batch_widths() {
    let code = QcLdpcCode::small_test_code();
    let decoder = QuantizedMinSumDecoder::new().with_schedule(Schedule::Layered);
    let quantizer = LlrQuantizer::default();
    let channel = test_channel(77);
    let sharded = McOptions {
        min_shard_trials: 32,
        ..McOptions::default()
    };
    let stats = |frame_errors, total_iterations| FerStats {
        trials: 300,
        frame_errors,
        total_iterations,
    };
    for threads in [1u32, 2, 8] {
        let run = |opts: McOptions| {
            measure_fer(
                &code,
                &decoder,
                &channel,
                &quantizer,
                300,
                9,
                &opts.with_threads(threads),
            )
        };
        assert_eq!(run(sharded), stats(58, 3343), "threads {threads}");
        assert_eq!(
            run(McOptions::default()),
            stats(60, 3384),
            "threads {threads}"
        );
    }
}

/// The early-exit drain: bit-identical across thread counts, equal to
/// `measure_fer` when the target is out of reach, and strictly cheaper
/// when the target is hit early.
#[test]
fn measure_fer_until_is_deterministic_and_stops_early() {
    let code = QcLdpcCode::small_test_code();
    let decoder = QuantizedMinSumDecoder::new();
    let quantizer = LlrQuantizer::default();
    let channel = test_channel(77);
    let base = McOptions {
        min_shard_trials: 16,
        ..McOptions::default()
    };
    const TRIALS: u64 = 640; // 40 shards of 16 → 5 waves

    // Unreachable target ⇒ the full run, exactly measure_fer.
    let full = measure_fer(&code, &decoder, &channel, &quantizer, TRIALS, 3, &base);
    let capped = measure_fer_until(
        &code,
        &decoder,
        &channel,
        &quantizer,
        TRIALS,
        u64::MAX,
        3,
        &base,
    );
    assert_eq!(full, capped);

    // Reachable target ⇒ stops on a wave boundary with fewer trials.
    assert!(full.frame_errors >= 2, "stress must produce frame errors");
    let early = measure_fer_until(&code, &decoder, &channel, &quantizer, TRIALS, 1, 3, &base);
    assert!(early.frame_errors >= 1);
    assert!(
        early.trials < TRIALS,
        "early exit should not run the full budget"
    );
    assert_eq!(
        early.trials % (16 * u64::from(WAVE_SHARDS)),
        0,
        "drain must stop on whole-wave boundaries"
    );

    // And the executed prefix is thread-count independent.
    for threads in [2u32, 8] {
        let parallel = measure_fer_until(
            &code,
            &decoder,
            &channel,
            &quantizer,
            TRIALS,
            1,
            3,
            &base.with_threads(threads),
        );
        assert_eq!(early, parallel, "threads {threads}");
    }
}
