//! Layered (turbo-decoding-message-passing) min-sum schedule.
//!
//! Flooding updates every check from the *previous* iteration's messages;
//! layered decoding sweeps checks sequentially and lets later checks in
//! the same iteration see the refreshed posteriors immediately. For QC
//! codes this typically halves the iterations to convergence — which in a
//! NAND controller halves the decode stage of the read latency — at
//! identical error-rate performance. The schedule ships as the 6-bit
//! [`Schedule::Layered`] of the quantized decoder; this module holds its
//! `i8` reference kernel, and the f32 flooding
//! [`MinSumDecoder`](crate::decoder::MinSumDecoder) stays the reference
//! it is tested against.

use crate::decoder::DecoderGraph;
use crate::quantized::{finish_failed, freeze_lanes, DecoderWorkspace, Schedule, Q_MAX};

/// Layered (row-staggered) schedule for the quantized batch decoder: the
/// `i8` structure-of-arrays reference kernel behind [`Schedule::Layered`].
///
/// State per lane is the `i16` posterior (bounded by ±(Q_MAX + 23), far
/// from overflow) plus the last `i8` c2v per edge. Each check recovers
/// its saturated v2c as `clamp(posterior − c2v, ±Q_MAX)`, runs the same
/// exact min/sign/α=3/4 datapath as flooding, and folds the fresh c2v
/// straight back into the posterior so later checks in the same sweep see
/// it. Hard decisions and per-lane freezing happen once per sweep, with
/// the flooding kernel's exact freeze semantics (shared helpers).
pub(crate) fn decode_batch_layered_i8(
    graph: &DecoderGraph,
    qllrs: &[i8],
    batch: usize,
    max_iterations: u32,
    ws: &mut DecoderWorkspace,
) {
    let n = graph.bit_count();
    let edges = graph.edge_count();
    ws.ensure_i8(graph, batch, Schedule::Layered);
    let DecoderWorkspace {
        q_c2v,
        q_post,
        q_vrow,
        hard,
        hard_out,
        min1,
        min2,
        sign,
        parity,
        unsat,
        done,
        success,
        iterations: lane_iterations,
        ..
    } = ws;
    let q_c2v = &mut q_c2v[..edges * batch];
    let q_post = &mut q_post[..n * batch];
    let hard = &mut hard[..n * batch];
    let hard_out = &mut hard_out[..n * batch];
    let min1 = &mut min1[..batch];
    let min2 = &mut min2[..batch];
    let sign = &mut sign[..batch];
    let parity = &mut parity[..batch];
    let unsat = &mut unsat[..batch];
    let done = &mut done[..batch];
    let success = &mut success[..batch];
    let lane_iterations = &mut lane_iterations[..batch];

    q_c2v.fill(0);
    done.fill(0);
    success.fill(0);
    lane_iterations.fill(0);
    for (p, &q) in q_post.iter_mut().zip(qllrs) {
        *p = i16::from(q);
    }

    let q_max = i16::from(Q_MAX);
    let mut remaining = batch;
    let mut iterations = 0;
    for sweep in 1..=max_iterations {
        iterations = sweep;
        for c in 0..graph.check_count() {
            let (lo, hi) = graph.check_edge_range(c);
            min1.fill(i16::MAX);
            min2.fill(i16::MAX);
            sign.fill(0);
            // Pass 1: recover saturated v2c rows, accumulate min/sign.
            for (i, e) in (lo..hi).enumerate() {
                let b = graph.edge_bit(e);
                let prow = &q_post[b * batch..(b + 1) * batch];
                let crow = &q_c2v[e * batch..(e + 1) * batch];
                let vrow = &mut q_vrow[i * batch..(i + 1) * batch];
                let lanes = vrow.iter_mut().zip(prow).zip(crow);
                for (((v, &p), &cm), ((m1, m2), sg)) in
                    lanes.zip(min1.iter_mut().zip(min2.iter_mut()).zip(sign.iter_mut()))
                {
                    let vv = (p - i16::from(cm)).clamp(-q_max, q_max) as i8;
                    *v = vv;
                    let mag = i16::from(vv).abs();
                    *sg ^= u8::from(vv < 0);
                    *m2 = (*m2).min(mag.max(*m1));
                    *m1 = (*m1).min(mag);
                }
            }
            // Pass 2: emit fresh c2v, apply it to the posterior at once.
            for (i, e) in (lo..hi).enumerate() {
                let b = graph.edge_bit(e);
                let prow = &mut q_post[b * batch..(b + 1) * batch];
                let crow = &mut q_c2v[e * batch..(e + 1) * batch];
                let vrow = &q_vrow[i * batch..(i + 1) * batch];
                let lanes = prow.iter_mut().zip(crow.iter_mut()).zip(vrow);
                for (((p, cm), &vv), ((&m1, &m2), &sg)) in
                    lanes.zip(min1.iter().zip(min2.iter()).zip(sign.iter()))
                {
                    let mag = i16::from(vv).abs();
                    let m = if mag == m1 { m2 } else { m1 };
                    let scaled = ((3 * m.min(q_max)) >> 2) as i8;
                    let neg = sg ^ u8::from(vv < 0);
                    let c_new = if neg != 0 { -scaled } else { scaled };
                    *p = i16::from(vv) + i16::from(c_new);
                    *cm = c_new;
                }
            }
        }
        // Hard decisions from the posterior, once per sweep.
        for (h, &p) in hard.iter_mut().zip(q_post.iter()) {
            *h = u8::from(p < 0);
        }
        // Per-lane syndrome, identical to the flooding kernel.
        unsat.fill(0);
        for c in 0..graph.check_count() {
            let (lo, hi) = graph.check_edge_range(c);
            parity.fill(0);
            for &b in &graph.edge_bits[lo..hi] {
                let hrow = &hard[b as usize * batch..(b as usize + 1) * batch];
                for (p, &h) in parity.iter_mut().zip(hrow) {
                    *p ^= h;
                }
            }
            for (u, &p) in unsat.iter_mut().zip(parity.iter()) {
                *u |= p;
            }
        }
        if freeze_lanes(
            n,
            batch,
            sweep,
            unsat,
            done,
            success,
            lane_iterations,
            hard,
            hard_out,
            &mut remaining,
        ) {
            break;
        }
    }
    finish_failed(n, batch, iterations, done, lane_iterations, hard, hard_out);
}

#[cfg(test)]
mod tests {
    use crate::code::QcLdpcCode;
    use crate::decoder::{DecodeOutcome, DecoderGraph, MinSumDecoder};
    use crate::encoder::{encode, random_info};
    use crate::quantized::{DecoderWorkspace, LlrQuantizer, QuantizedMinSumDecoder, Schedule};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn bsc_llrs<R: Rng>(cw: &[u8], p: f64, rng: &mut R) -> Vec<f32> {
        cw.iter()
            .map(|&bit| {
                let observed = bit ^ (rng.gen_bool(p) as u8);
                if observed == 0 {
                    4.0
                } else {
                    -4.0
                }
            })
            .collect()
    }

    /// One frame through the quantized decoder under `schedule`.
    fn decode_i8(
        graph: &DecoderGraph,
        llrs: &[f32],
        schedule: Schedule,
        max_iterations: u32,
    ) -> DecodeOutcome {
        let qllrs = LlrQuantizer::default().quantize_table(llrs);
        QuantizedMinSumDecoder::new()
            .with_schedule(schedule)
            .with_max_iterations(max_iterations)
            .decode(graph, &qllrs, &mut DecoderWorkspace::new())
    }

    #[test]
    fn clean_codeword_one_sweep() {
        let code = QcLdpcCode::small_test_code();
        let graph = DecoderGraph::new(&code);
        let mut rng = StdRng::seed_from_u64(1);
        let cw = encode(&code, &random_info(&code, &mut rng)).unwrap();
        let llrs = bsc_llrs(&cw, 0.0, &mut rng);
        let out = decode_i8(&graph, &llrs, Schedule::Layered, 30);
        assert!(out.success);
        assert_eq!(out.iterations, 1);
        assert_eq!(out.hard_decision, cw);
    }

    #[test]
    fn corrects_where_flooding_does() {
        // The 6-bit layered kernel against the f32 flooding reference.
        let code = QcLdpcCode::small_test_code();
        let graph = DecoderGraph::new(&code);
        let flooding = MinSumDecoder::new();
        let mut rng = StdRng::seed_from_u64(2);
        let mut layered_ok = 0;
        let mut flooding_ok = 0;
        for _ in 0..25 {
            let info = random_info(&code, &mut rng);
            let cw = encode(&code, &info).unwrap();
            let llrs = bsc_llrs(&cw, 0.006, &mut rng);
            if decode_i8(&graph, &llrs, Schedule::Layered, 30).success {
                layered_ok += 1;
            }
            if flooding.decode(&graph, &llrs).success {
                flooding_ok += 1;
            }
        }
        assert!(
            layered_ok >= flooding_ok - 1,
            "layered {layered_ok} vs flooding {flooding_ok}"
        );
    }

    #[test]
    fn converges_faster_than_flooding() {
        // The whole point of layered scheduling: same quantization, same
        // frames, fewer sweeps.
        let code = QcLdpcCode::paper_code();
        let graph = DecoderGraph::new(&code);
        let mut rng = StdRng::seed_from_u64(3);
        let mut layered_iters = 0u32;
        let mut flooding_iters = 0u32;
        for _ in 0..4 {
            let info = random_info(&code, &mut rng);
            let cw = encode(&code, &info).unwrap();
            let llrs = bsc_llrs(&cw, 4e-3, &mut rng);
            let l = decode_i8(&graph, &llrs, Schedule::Layered, 30);
            let f = decode_i8(&graph, &llrs, Schedule::Flooding, 30);
            assert!(l.success && f.success);
            layered_iters += l.iterations;
            flooding_iters += f.iterations;
        }
        assert!(
            layered_iters < flooding_iters,
            "layered {layered_iters} must beat flooding {flooding_iters}"
        );
    }

    #[test]
    fn fails_cleanly_on_garbage() {
        let code = QcLdpcCode::small_test_code();
        let graph = DecoderGraph::new(&code);
        let mut rng = StdRng::seed_from_u64(4);
        let cw = encode(&code, &random_info(&code, &mut rng)).unwrap();
        let llrs = bsc_llrs(&cw, 0.3, &mut rng);
        let out = decode_i8(&graph, &llrs, Schedule::Layered, 8);
        assert!(!out.success);
        assert_eq!(out.iterations, 8);
    }
}
