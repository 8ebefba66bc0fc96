//! Fixed-point, batched normalized min-sum decoding.
//!
//! NAND controllers do not decode with f32 message passing: they quantize
//! channel LLRs to a handful of bits (4–6 in shipping parts) and run the
//! min-sum datapath in narrow integers. This module reproduces that
//! datapath and exploits it for Monte-Carlo throughput:
//!
//! * [`LlrQuantizer`] — maps f32 LLRs onto 6-bit-saturated `i8` values
//!   (default step 0.5 LLR, clamp at ±[`Q_MAX`]);
//! * [`DecoderWorkspace`] — a reusable buffer arena so steady-state
//!   decoding performs **zero heap allocations**;
//! * [`QuantizedMinSumDecoder`] — the integer decoder. Its
//!   [`decode_batch`](QuantizedMinSumDecoder::decode_batch) entry point
//!   lays `B` codewords out structure-of-arrays (`buf[edge * B + lane]`),
//!   so every inner loop over the CSR Tanner graph is a contiguous sweep
//!   across the batch dimension that auto-vectorizes 16–32 lanes wide on
//!   `i8`/`i16` — the graph is traversed once per iteration for the whole
//!   batch instead of once per codeword.
//!
//! The check-node normalization α = 0.75 is computed exactly in integers
//! as `(3·m) >> 2`, and the sign/selection logic matches the f32 decoder
//! bit for bit (zero counts as positive), so hard decisions agree with
//! [`MinSumDecoder`](crate::decoder::MinSumDecoder) wherever quantization
//! does not flip a marginal message — see `tests/quantized_parity.rs` for
//! the statistical FER-parity bound.

use crate::decoder::{DecodeOutcome, DecoderGraph};

/// Saturation magnitude of quantized LLRs and messages: 6-bit symmetric,
/// i.e. values in `[-31, 31]`.
pub const Q_MAX: i8 = 31;

/// Message-passing schedule of the quantized decoder.
///
/// The schedule changes *how fast* frames converge (layered typically
/// halves the sweep count) but not *whether* the datapath is exact: each
/// schedule is implemented identically by both [`DecodeKernel`]s, so
/// outcomes are kernel-independent bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Schedule {
    /// Two-phase flooding: every check reads the previous iteration's
    /// messages. The reproduction's original (PR 2) schedule.
    Flooding,
    /// Row-staggered (layered) schedule: checks are processed
    /// sequentially and update the posterior immediately, so later checks
    /// in the same sweep see refreshed information — typically ~half the
    /// iterations of flooding at identical error-rate performance.
    Layered,
}

/// Inner-loop implementation executing the quantized message passing.
///
/// Both kernels compute the same integer algorithm; for any frame whose
/// quantized LLRs fit the ±[`Q_MAX`] domain (everything the
/// [`LlrQuantizer`] produces) their per-lane outcomes — success,
/// iteration count and every hard bit — are **bit-identical**. Inputs
/// outside that domain silently fall back to [`I8Soa`](Self::I8Soa),
/// which handles the full `i8` range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DecodeKernel {
    /// `i8` structure-of-arrays lane loops, relying on auto-vectorization
    /// across the batch dimension. The reference implementation.
    I8Soa,
    /// u64 bit-plane (bit-sliced) kernel: magnitudes live in five
    /// bit-planes, 64 codeword lanes per machine word, and the min/sign
    /// reductions are pure boolean algebra — see [`crate::bitplane`].
    BitPlane,
}

/// Maps f32 channel LLRs onto the decoder's `i8` domain.
///
/// `scale` is the number of quantization steps per unit LLR; the default
/// of 2.0 gives a step of 0.5 LLR and a representable range of ±15.5,
/// comfortably covering the channel's ±20-clamped region LLRs once
/// saturation is accounted for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LlrQuantizer {
    scale: f32,
}

impl LlrQuantizer {
    /// The default step of 0.5 LLR per code.
    pub const DEFAULT_SCALE: f32 = 2.0;

    /// Builds a quantizer with `scale` steps per unit LLR.
    ///
    /// # Panics
    ///
    /// Panics unless `scale` is finite and positive.
    pub fn new(scale: f32) -> LlrQuantizer {
        assert!(
            scale.is_finite() && scale > 0.0,
            "quantizer scale must be finite and positive, got {scale}"
        );
        LlrQuantizer { scale }
    }

    /// Steps per unit LLR.
    #[inline]
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Quantizes one LLR: round to the nearest step, saturate at ±[`Q_MAX`].
    #[inline]
    pub fn quantize(&self, llr: f32) -> i8 {
        let q = (llr * self.scale).round();
        q.clamp(f32::from(-Q_MAX), f32::from(Q_MAX)) as i8
    }

    /// Quantizes a whole LLR table (e.g. a channel's per-region LLRs).
    pub fn quantize_table(&self, llrs: &[f32]) -> Vec<i8> {
        llrs.iter().map(|&l| self.quantize(l)).collect()
    }
}

impl Default for LlrQuantizer {
    fn default() -> LlrQuantizer {
        LlrQuantizer::new(LlrQuantizer::DEFAULT_SCALE)
    }
}

/// Reusable decoder buffer arena.
///
/// All decode entry points size the arena lazily on first use and then
/// only ever reuse it, so a warm workspace makes decoding allocation-free.
/// Each kernel sizes only the buffers it touches: the bit-plane kernel
/// its planes plus the byte outcome arrays [`BatchOutcome`] reads, the
/// `i8` kernels their structure-of-arrays state for their schedule. One
/// workspace serves any mix of codes, batch sizes, schedules and kernels
/// (each buffer grows to the largest request that used it); it is
/// `Send`, so each Monte-Carlo shard owns one.
#[derive(Debug, Default)]
pub struct DecoderWorkspace {
    // Quantized batch state, structure-of-arrays with lane stride = batch.
    // `q_v2c` and `q_total` are flooding-only.
    pub(crate) q_v2c: Vec<i8>,
    pub(crate) q_c2v: Vec<i8>,
    pub(crate) q_total: Vec<i16>,
    pub(crate) hard: Vec<u8>,
    // Per-lane check-node scratch.
    pub(crate) min1: Vec<i16>,
    pub(crate) min2: Vec<i16>,
    pub(crate) sign: Vec<u8>,
    pub(crate) parity: Vec<u8>,
    pub(crate) unsat: Vec<u8>,
    pub(crate) done: Vec<u8>,
    // Layered-schedule state: i16 posteriors plus a per-check row of
    // saturated variable-to-check messages.
    pub(crate) q_post: Vec<i16>,
    pub(crate) q_vrow: Vec<i8>,
    // Per-lane outcomes, written by every kernel and read by
    // `BatchOutcome`.
    pub(crate) hard_out: Vec<u8>,
    pub(crate) success: Vec<u8>,
    pub(crate) iterations: Vec<u32>,
    // Bit-plane kernel state (u64 planes, 64 lanes per word).
    pub(crate) bp: crate::bitplane::PlaneBuffers,
    // f32 scalar state for `MinSumDecoder::decode_with`.
    v2c_f: Vec<f32>,
    c2v_f: Vec<f32>,
    total_f: Vec<f32>,
    hard_f: Vec<u8>,
}

pub(crate) fn grow<T: Clone + Default>(buf: &mut Vec<T>, len: usize) {
    if buf.len() < len {
        buf.resize(len, T::default());
    }
}

impl DecoderWorkspace {
    /// An empty workspace; buffers are sized on first decode.
    pub fn new() -> DecoderWorkspace {
        DecoderWorkspace::default()
    }

    /// Sizes the per-lane outcome arrays every kernel writes.
    fn ensure_outcomes(&mut self, bits: usize, batch: usize) {
        grow(&mut self.hard_out, bits * batch);
        grow(&mut self.success, batch);
        grow(&mut self.iterations, batch);
    }

    /// Sizes the `i8` structure-of-arrays state of `schedule`'s kernel.
    pub(crate) fn ensure_i8(&mut self, graph: &DecoderGraph, batch: usize, schedule: Schedule) {
        let bits = graph.bit_count();
        let edges = graph.edge_count();
        grow(&mut self.q_c2v, edges * batch);
        grow(&mut self.hard, bits * batch);
        grow(&mut self.min1, batch);
        grow(&mut self.min2, batch);
        grow(&mut self.sign, batch);
        grow(&mut self.parity, batch);
        grow(&mut self.unsat, batch);
        grow(&mut self.done, batch);
        match schedule {
            Schedule::Flooding => {
                grow(&mut self.q_v2c, edges * batch);
                grow(&mut self.q_total, batch);
            }
            Schedule::Layered => {
                grow(&mut self.q_post, bits * batch);
                grow(&mut self.q_vrow, graph.max_check_degree() * batch);
            }
        }
    }

    pub(crate) fn ensure_scalar_f32(&mut self, edges: usize, bits: usize) {
        grow(&mut self.v2c_f, edges);
        grow(&mut self.c2v_f, edges);
        grow(&mut self.total_f, bits);
        grow(&mut self.hard_f, bits);
    }

    pub(crate) fn scalar_f32_buffers(&mut self) -> (&mut [f32], &mut [f32], &mut [f32], &mut [u8]) {
        (
            &mut self.v2c_f,
            &mut self.c2v_f,
            &mut self.total_f,
            &mut self.hard_f,
        )
    }
}

/// Per-lane results of a batched decode, borrowed from the workspace.
///
/// Valid until the next decode call on the same workspace; copy what you
/// need (e.g. via [`lane_outcome`](BatchOutcome::lane_outcome)) to keep
/// results longer.
#[derive(Debug)]
pub struct BatchOutcome<'a> {
    batch: usize,
    bits: usize,
    success: &'a [u8],
    iterations: &'a [u32],
    hard: &'a [u8],
}

impl BatchOutcome<'_> {
    /// Number of lanes (codewords) in the batch.
    #[inline]
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// `true` if `lane`'s final hard decision satisfies every check.
    #[inline]
    pub fn success(&self, lane: usize) -> bool {
        self.success[lane] != 0
    }

    /// Iterations lane `lane` actually executed before converging (or the
    /// iteration cap on failure) — always ≥ 1.
    #[inline]
    pub fn iterations(&self, lane: usize) -> u32 {
        self.iterations[lane]
    }

    /// Hard decision of bit `bit` in lane `lane` (0 or 1).
    #[inline]
    pub fn hard_bit(&self, lane: usize, bit: usize) -> u8 {
        self.hard[bit * self.batch + lane]
    }

    /// Copies one lane out as a standalone [`DecodeOutcome`] (allocates).
    pub fn lane_outcome(&self, lane: usize) -> DecodeOutcome {
        DecodeOutcome {
            success: self.success(lane),
            iterations: self.iterations(lane),
            hard_decision: (0..self.bits).map(|b| self.hard_bit(lane, b)).collect(),
        }
    }
}

/// Fixed-point normalized min-sum decoder (flooding schedule, α = 3/4).
///
/// Messages are `i8` saturated at ±[`Q_MAX`]; bit totals accumulate in
/// `i16` (variable degree ≤ a few dozen keeps them far from overflow).
///
/// ```
/// use ldpc::{encode, DecoderGraph, DecoderWorkspace, LlrQuantizer, QcLdpcCode,
///            QuantizedMinSumDecoder};
///
/// # fn main() -> Result<(), ldpc::EncodeError> {
/// let code = QcLdpcCode::small_test_code();
/// let graph = DecoderGraph::new(&code);
/// let codeword = encode(&code, &vec![1u8; code.info_bits()])?;
/// let q = LlrQuantizer::default();
/// let qllrs: Vec<i8> = codeword
///     .iter()
///     .map(|&b| q.quantize(if b == 0 { 4.0 } else { -4.0 }))
///     .collect();
/// let mut ws = DecoderWorkspace::new();
/// let out = QuantizedMinSumDecoder::new().decode(&graph, &qllrs, &mut ws);
/// assert!(out.success);
/// assert_eq!(out.hard_decision, codeword);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuantizedMinSumDecoder {
    /// Maximum iterations (flooding) / sweeps (layered) before declaring
    /// failure.
    pub max_iterations: u32,
    /// Message-passing schedule. Changes convergence speed (and therefore
    /// outcomes); part of any determinism contract built on this decoder.
    pub schedule: Schedule,
    /// Inner-loop kernel. Bit-exact peers — switching kernels never
    /// changes outcomes, only throughput.
    pub kernel: DecodeKernel,
}

impl QuantizedMinSumDecoder {
    /// The reproduction's configuration: 30 iterations, flooding
    /// schedule, bit-plane kernel. The normalization is fixed at
    /// α = 3/4, computed exactly as `(3·m) >> 2`.
    pub fn new() -> QuantizedMinSumDecoder {
        QuantizedMinSumDecoder {
            max_iterations: 30,
            schedule: Schedule::Flooding,
            kernel: DecodeKernel::BitPlane,
        }
    }

    /// Returns the decoder with a different iteration/sweep cap.
    #[must_use]
    pub fn with_max_iterations(mut self, max_iterations: u32) -> QuantizedMinSumDecoder {
        self.max_iterations = max_iterations;
        self
    }

    /// Returns the decoder on a different schedule.
    #[must_use]
    pub fn with_schedule(mut self, schedule: Schedule) -> QuantizedMinSumDecoder {
        self.schedule = schedule;
        self
    }

    /// Returns the decoder pinned to a specific kernel (overriding the
    /// bit-plane default).
    #[must_use]
    pub fn with_kernel(mut self, kernel: DecodeKernel) -> QuantizedMinSumDecoder {
        self.kernel = kernel;
        self
    }

    /// Decodes a single codeword of quantized LLRs (positive ⇒ bit 0).
    ///
    /// # Panics
    ///
    /// Panics if `qllrs.len() != graph.bit_count()`.
    pub fn decode(
        &self,
        graph: &DecoderGraph,
        qllrs: &[i8],
        ws: &mut DecoderWorkspace,
    ) -> DecodeOutcome {
        let out = self.decode_batch(graph, qllrs, 1, ws);
        out.lane_outcome(0)
    }

    /// Decodes `batch` codewords laid out structure-of-arrays:
    /// `qllrs[bit * batch + lane]` is bit `bit` of codeword `lane`.
    ///
    /// All lanes run in lockstep over the shared graph; each lane freezes
    /// its hard decision and iteration count the moment its syndrome
    /// clears, and the sweep stops early once every lane is done. The
    /// result borrows the workspace — it is valid until the next decode.
    ///
    /// # Panics
    ///
    /// Panics if `batch == 0` or `qllrs.len() != bit_count · batch`.
    pub fn decode_batch<'w>(
        &self,
        graph: &DecoderGraph,
        qllrs: &[i8],
        batch: usize,
        ws: &'w mut DecoderWorkspace,
    ) -> BatchOutcome<'w> {
        assert!(batch > 0, "batch must be non-empty");
        let n = graph.bit_count();
        assert_eq!(
            qllrs.len(),
            n * batch,
            "LLR length must match codeword length times batch"
        );
        ws.ensure_outcomes(n, batch);
        // The bit-plane kernel stores magnitudes in five planes, so it
        // requires the ±Q_MAX domain the quantizer produces; raw caller
        // inputs outside it fall back to the full-range reference kernel.
        // It also retires a fixed 64 lanes per machine word, so batches
        // that cannot fill one lane group would mostly decode padding —
        // those run the reference kernel too. Both demotions are
        // invisible in the outputs: the kernels are bit-exact peers.
        let kernel = match self.kernel {
            DecodeKernel::BitPlane
                if batch >= crate::bitplane::LANES
                    && qllrs.iter().all(|&q| q.unsigned_abs() <= Q_MAX as u8) =>
            {
                DecodeKernel::BitPlane
            }
            _ => DecodeKernel::I8Soa,
        };
        match (self.schedule, kernel) {
            (Schedule::Flooding, DecodeKernel::I8Soa) => self.flood_i8(graph, qllrs, batch, ws),
            (Schedule::Layered, DecodeKernel::I8Soa) => crate::layered::decode_batch_layered_i8(
                graph,
                qllrs,
                batch,
                self.max_iterations,
                ws,
            ),
            (schedule, DecodeKernel::BitPlane) => crate::bitplane::decode_batch_planes(
                graph,
                qllrs,
                batch,
                self.max_iterations,
                schedule,
                ws,
            ),
        }
        BatchOutcome {
            batch,
            bits: n,
            success: &ws.success[..batch],
            iterations: &ws.iterations[..batch],
            hard: &ws.hard_out[..n * batch],
        }
    }

    /// The PR 2 reference kernel: flooding schedule over `i8`
    /// structure-of-arrays lanes.
    fn flood_i8(
        &self,
        graph: &DecoderGraph,
        qllrs: &[i8],
        batch: usize,
        ws: &mut DecoderWorkspace,
    ) {
        let n = graph.bit_count();
        let edges = graph.edge_count();
        ws.ensure_i8(graph, batch, Schedule::Flooding);
        // Exact-length local slices: every lane loop below runs over
        // equal-length slices via `zip`, which compiles to branch-free,
        // bounds-check-free code that auto-vectorizes across the batch.
        let q_v2c = &mut ws.q_v2c[..edges * batch];
        let q_c2v = &mut ws.q_c2v[..edges * batch];
        let q_total = &mut ws.q_total[..batch];
        let hard = &mut ws.hard[..n * batch];
        let hard_out = &mut ws.hard_out[..n * batch];
        let min1 = &mut ws.min1[..batch];
        let min2 = &mut ws.min2[..batch];
        let sign = &mut ws.sign[..batch];
        let parity = &mut ws.parity[..batch];
        let unsat = &mut ws.unsat[..batch];
        let done = &mut ws.done[..batch];
        let success = &mut ws.success[..batch];
        let lane_iterations = &mut ws.iterations[..batch];

        q_c2v.fill(0);
        done.fill(0);
        success.fill(0);
        lane_iterations.fill(0);
        // v2c initialised to channel values.
        for (e, &b) in graph.edge_bits.iter().enumerate() {
            let src = &qllrs[b as usize * batch..(b as usize + 1) * batch];
            q_v2c[e * batch..(e + 1) * batch].copy_from_slice(src);
        }

        let q_max = i16::from(Q_MAX);
        let mut remaining = batch;
        let mut iterations = 0;
        for iter in 1..=self.max_iterations {
            iterations = iter;
            // Check-node update: per-lane min / second-min of |v2c| and the
            // sign product, then c2v = sign · (3·min_excluding_self) >> 2.
            // The excluded-self select is value-based (`mag == min1` picks
            // min2): on ties min1 == min2, so it is exactly the classic
            // argmin-tracking formulation without the extra index lane.
            for c in 0..graph.check_count() {
                let (lo, hi) = graph.check_edge_range(c);
                min1.fill(i16::MAX);
                min2.fill(i16::MAX);
                sign.fill(0);
                for row in q_v2c[lo * batch..hi * batch].chunks_exact(batch) {
                    let lanes = min1.iter_mut().zip(min2.iter_mut()).zip(sign.iter_mut());
                    for (((m1, m2), sg), &v) in lanes.zip(row) {
                        let mag = i16::from(v).abs();
                        *sg ^= u8::from(v < 0);
                        *m2 = (*m2).min(mag.max(*m1));
                        *m1 = (*m1).min(mag);
                    }
                }
                let rows = q_v2c[lo * batch..hi * batch]
                    .chunks_exact(batch)
                    .zip(q_c2v[lo * batch..hi * batch].chunks_exact_mut(batch));
                for (vrow, crow) in rows {
                    let lanes = vrow.iter().zip(crow.iter_mut()).zip(min1.iter());
                    for (((&v, c), &m1), (&m2, &sg)) in lanes.zip(min2.iter().zip(sign.iter())) {
                        let mag = i16::from(v).abs();
                        let m = if mag == m1 { m2 } else { m1 };
                        let scaled = ((3 * m.min(q_max)) >> 2) as i8;
                        let neg = sg ^ u8::from(v < 0);
                        *c = if neg != 0 { -scaled } else { scaled };
                    }
                }
            }
            // Bit-node update and hard decision, one bit row at a time:
            // total = channel + Σ c2v, hard = sign(total), v2c = saturated
            // extrinsic difference.
            for b in 0..n {
                let qrow = &qllrs[b * batch..(b + 1) * batch];
                for (t, &q) in q_total.iter_mut().zip(qrow) {
                    *t = i16::from(q);
                }
                let (blo, bhi) = graph.bit_edge_range(b);
                for &e in &graph.bit_edges[blo..bhi] {
                    let row = &q_c2v[e as usize * batch..(e as usize + 1) * batch];
                    for (t, &m) in q_total.iter_mut().zip(row) {
                        *t += i16::from(m);
                    }
                }
                let hrow = &mut hard[b * batch..(b + 1) * batch];
                for (h, &t) in hrow.iter_mut().zip(q_total.iter()) {
                    *h = u8::from(t < 0);
                }
                for &e in &graph.bit_edges[blo..bhi] {
                    let base = e as usize * batch;
                    let vrow = q_v2c[base..base + batch].iter_mut();
                    let crow = q_c2v[base..base + batch].iter();
                    for ((v, &c), &t) in vrow.zip(crow).zip(q_total.iter()) {
                        *v = (t - i16::from(c)).clamp(-q_max, q_max) as i8;
                    }
                }
            }
            // Per-lane syndrome check; freeze lanes whose syndrome clears.
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
                iter,
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
}

/// Freezes every newly converged lane: marks it done/successful, records
/// its iteration count and snapshots its hard decision. Returns `true`
/// once every lane is frozen. Shared verbatim by the flooding and layered
/// `i8` kernels so their per-lane outcome semantics are identical.
#[allow(clippy::too_many_arguments)] // a hot-loop helper over workspace slices
pub(crate) fn freeze_lanes(
    n: usize,
    batch: usize,
    iter: u32,
    unsat: &[u8],
    done: &mut [u8],
    success: &mut [u8],
    lane_iterations: &mut [u32],
    hard: &[u8],
    hard_out: &mut [u8],
    remaining: &mut usize,
) -> bool {
    let frozen_before = batch - *remaining;
    for lane in 0..batch {
        if done[lane] == 0 && unsat[lane] == 0 {
            done[lane] = 1;
            success[lane] = 1;
            lane_iterations[lane] = iter;
            *remaining -= 1;
        }
    }
    if *remaining == 0 && frozen_before == 0 {
        // Everyone converged together (the clean-page common case):
        // snapshot the whole batch in one pass.
        hard_out.copy_from_slice(hard);
        return true;
    }
    for lane in 0..batch {
        if done[lane] != 0 && lane_iterations[lane] == iter {
            for b in 0..n {
                hard_out[b * batch + lane] = hard[b * batch + lane];
            }
        }
    }
    *remaining == 0
}

/// Lanes that never converged report the executed iteration count and
/// their final (failed) hard decision.
pub(crate) fn finish_failed(
    n: usize,
    batch: usize,
    iterations: u32,
    done: &[u8],
    lane_iterations: &mut [u32],
    hard: &[u8],
    hard_out: &mut [u8],
) {
    for lane in 0..batch {
        if done[lane] == 0 {
            lane_iterations[lane] = iterations;
            for b in 0..n {
                hard_out[b * batch + lane] = hard[b * batch + lane];
            }
        }
    }
}

impl Default for QuantizedMinSumDecoder {
    fn default() -> QuantizedMinSumDecoder {
        QuantizedMinSumDecoder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::QcLdpcCode;
    use crate::decoder::MinSumDecoder;
    use crate::encoder::{encode, random_info};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn bsc_qllrs<R: Rng>(cw: &[u8], p: f64, magnitude: f32, rng: &mut R) -> Vec<i8> {
        let q = LlrQuantizer::default();
        cw.iter()
            .map(|&bit| {
                let observed = bit ^ u8::from(rng.gen_bool(p));
                q.quantize(if observed == 0 { magnitude } else { -magnitude })
            })
            .collect()
    }

    #[test]
    fn quantizer_rounds_and_saturates() {
        let q = LlrQuantizer::default();
        assert_eq!(q.quantize(0.0), 0);
        assert_eq!(q.quantize(1.0), 2);
        assert_eq!(q.quantize(-1.0), -2);
        assert_eq!(q.quantize(0.26), 1); // rounds to nearest step
        assert_eq!(q.quantize(20.0), Q_MAX);
        assert_eq!(q.quantize(-20.0), -Q_MAX);
        assert_eq!(q.quantize(f32::INFINITY), Q_MAX);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn quantizer_rejects_bad_scale() {
        let _ = LlrQuantizer::new(0.0);
    }

    #[test]
    fn clean_codeword_decodes_in_one_iteration() {
        let code = QcLdpcCode::small_test_code();
        let graph = DecoderGraph::new(&code);
        let mut rng = StdRng::seed_from_u64(1);
        let cw = encode(&code, &random_info(&code, &mut rng)).unwrap();
        let qllrs = bsc_qllrs(&cw, 0.0, 8.0, &mut rng);
        let mut ws = DecoderWorkspace::new();
        let out = QuantizedMinSumDecoder::new().decode(&graph, &qllrs, &mut ws);
        assert!(out.success);
        assert_eq!(out.iterations, 1);
        assert_eq!(out.hard_decision, cw);
    }

    #[test]
    fn corrects_moderate_noise_like_f32() {
        let code = QcLdpcCode::small_test_code();
        let graph = DecoderGraph::new(&code);
        let decoder = QuantizedMinSumDecoder::new();
        let mut rng = StdRng::seed_from_u64(2);
        let mut ws = DecoderWorkspace::new();
        let mut successes = 0;
        let trials = 30;
        for _ in 0..trials {
            let info = random_info(&code, &mut rng);
            let cw = encode(&code, &info).unwrap();
            let qllrs = bsc_qllrs(&cw, 0.005, 4.0, &mut rng);
            let out = decoder.decode(&graph, &qllrs, &mut ws);
            if out.success && out.hard_decision == cw {
                successes += 1;
            }
        }
        assert!(
            successes >= trials - 1,
            "quantized decoder corrected only {successes}/{trials} at p=0.5%"
        );
    }

    #[test]
    fn batch_lanes_match_scalar_decodes_exactly() {
        // Lockstep batched decoding is the same algorithm as batch=1, so
        // every lane must agree bit-for-bit with its scalar decode.
        let code = QcLdpcCode::small_test_code();
        let graph = DecoderGraph::new(&code);
        let decoder = QuantizedMinSumDecoder::new();
        let mut rng = StdRng::seed_from_u64(3);
        let n = code.codeword_bits();
        let batch = 5;
        let mut frames = Vec::new();
        for _ in 0..batch {
            let cw = encode(&code, &random_info(&code, &mut rng)).unwrap();
            frames.push(bsc_qllrs(&cw, 0.02, 4.0, &mut rng));
        }
        let mut soa = vec![0i8; n * batch];
        for (lane, frame) in frames.iter().enumerate() {
            for (bit, &q) in frame.iter().enumerate() {
                soa[bit * batch + lane] = q;
            }
        }
        let mut ws = DecoderWorkspace::new();
        let mut scalar_outs = Vec::new();
        for frame in &frames {
            scalar_outs.push(decoder.decode(&graph, frame, &mut ws));
        }
        let batch_out = decoder.decode_batch(&graph, &soa, batch, &mut ws);
        for (lane, want) in scalar_outs.iter().enumerate() {
            assert_eq!(batch_out.lane_outcome(lane), *want, "lane {lane}");
        }
    }

    #[test]
    fn workspace_reuse_is_deterministic() {
        let code = QcLdpcCode::small_test_code();
        let graph = DecoderGraph::new(&code);
        let decoder = QuantizedMinSumDecoder::new();
        let mut rng = StdRng::seed_from_u64(4);
        let cw = encode(&code, &random_info(&code, &mut rng)).unwrap();
        let qllrs = bsc_qllrs(&cw, 0.03, 4.0, &mut rng);
        let mut ws = DecoderWorkspace::new();
        let first = decoder.decode(&graph, &qllrs, &mut ws);
        // Dirty the workspace with a different, noisier frame, then repeat.
        let other = bsc_qllrs(&cw, 0.3, 4.0, &mut rng);
        let _ = decoder.decode(&graph, &other, &mut ws);
        let second = decoder.decode(&graph, &qllrs, &mut ws);
        assert_eq!(first, second);
    }

    #[test]
    fn agrees_with_f32_on_clean_frames() {
        let code = QcLdpcCode::small_test_code();
        let graph = DecoderGraph::new(&code);
        let q = LlrQuantizer::default();
        let mut rng = StdRng::seed_from_u64(5);
        let mut ws = DecoderWorkspace::new();
        for _ in 0..5 {
            let cw = encode(&code, &random_info(&code, &mut rng)).unwrap();
            let llrs: Vec<f32> = cw
                .iter()
                .map(|&b| if b == 0 { 5.0 } else { -5.0 })
                .collect();
            let qllrs = q.quantize_table(&llrs);
            let f = MinSumDecoder::new().decode(&graph, &llrs);
            let i = QuantizedMinSumDecoder::new().decode(&graph, &qllrs, &mut ws);
            assert!(f.success && i.success);
            assert_eq!(f.hard_decision, i.hard_decision);
        }
    }

    #[test]
    fn fails_gracefully_under_extreme_noise() {
        let code = QcLdpcCode::small_test_code();
        let graph = DecoderGraph::new(&code);
        let decoder = QuantizedMinSumDecoder::new().with_max_iterations(10);
        let mut rng = StdRng::seed_from_u64(6);
        let cw = encode(&code, &random_info(&code, &mut rng)).unwrap();
        let qllrs = bsc_qllrs(&cw, 0.3, 4.0, &mut rng);
        let mut ws = DecoderWorkspace::new();
        let out = decoder.decode(&graph, &qllrs, &mut ws);
        assert!(!out.success);
        assert_eq!(out.iterations, 10);
    }

    #[test]
    fn early_lanes_freeze_their_iteration_count() {
        // A clean lane converges in 1 iteration even when batched with a
        // noisy lane that needs more.
        let code = QcLdpcCode::small_test_code();
        let graph = DecoderGraph::new(&code);
        let decoder = QuantizedMinSumDecoder::new();
        let mut rng = StdRng::seed_from_u64(7);
        let n = code.codeword_bits();
        let clean_cw = encode(&code, &random_info(&code, &mut rng)).unwrap();
        let clean = bsc_qllrs(&clean_cw, 0.0, 8.0, &mut rng);
        let noisy_cw = encode(&code, &random_info(&code, &mut rng)).unwrap();
        let noisy = bsc_qllrs(&noisy_cw, 0.02, 4.0, &mut rng);
        let mut soa = vec![0i8; n * 2];
        for bit in 0..n {
            soa[bit * 2] = clean[bit];
            soa[bit * 2 + 1] = noisy[bit];
        }
        let mut ws = DecoderWorkspace::new();
        let out = decoder.decode_batch(&graph, &soa, 2, &mut ws);
        assert!(out.success(0));
        assert_eq!(out.iterations(0), 1);
        assert!(out.iterations(1) >= out.iterations(0));
    }

    #[test]
    fn i8_kernels_size_only_their_schedule_state() {
        let code = QcLdpcCode::small_test_code();
        let graph = DecoderGraph::new(&code);
        let mut rng = StdRng::seed_from_u64(8);
        let qllrs: Vec<i8> = (0..code.codeword_bits() * 7)
            .map(|_| if rng.gen_bool(0.02) { -8 } else { 8 })
            .collect();
        let i8_decode = |schedule| {
            let mut ws = DecoderWorkspace::new();
            let _ = QuantizedMinSumDecoder::new()
                .with_kernel(DecodeKernel::I8Soa)
                .with_schedule(schedule)
                .decode_batch(&graph, &qllrs, 7, &mut ws);
            ws
        };
        let layered = i8_decode(Schedule::Layered);
        assert!(layered.q_v2c.is_empty() && layered.q_total.is_empty());
        assert!(!layered.q_post.is_empty() && !layered.q_c2v.is_empty());
        let flooding = i8_decode(Schedule::Flooding);
        assert!(flooding.q_post.is_empty() && flooding.q_vrow.is_empty());
        assert!(!flooding.q_v2c.is_empty() && !flooding.q_c2v.is_empty());
    }

    #[test]
    fn one_workspace_across_kernels_schedules_and_widths_matches_fresh_ones() {
        // Each kernel sizes only its own buffers, so a reused workspace
        // carries stale state of other shapes between calls; outcomes
        // must still equal a fresh workspace's, lane for lane.
        let code = QcLdpcCode::small_test_code();
        let graph = DecoderGraph::new(&code);
        let n = code.codeword_bits();
        let mut rng = StdRng::seed_from_u64(10);
        let runs = [
            (DecodeKernel::BitPlane, Schedule::Flooding, 64),
            (DecodeKernel::I8Soa, Schedule::Layered, 7),
            (DecodeKernel::BitPlane, Schedule::Layered, 128),
            (DecodeKernel::I8Soa, Schedule::Flooding, 1),
            (DecodeKernel::BitPlane, Schedule::Flooding, 100),
            (DecodeKernel::I8Soa, Schedule::Layered, 64),
            (DecodeKernel::BitPlane, Schedule::Layered, 64),
            (DecodeKernel::I8Soa, Schedule::Flooding, 70),
        ];
        let mut reused = DecoderWorkspace::new();
        for (kernel, schedule, batch) in runs {
            let mut soa = vec![0i8; n * batch];
            for lane in 0..batch {
                let cw = encode(&code, &random_info(&code, &mut rng)).unwrap();
                let frame = bsc_qllrs(&cw, 0.03, 4.0, &mut rng);
                for (bit, &q) in frame.iter().enumerate() {
                    soa[bit * batch + lane] = q;
                }
            }
            let decoder = QuantizedMinSumDecoder::new()
                .with_kernel(kernel)
                .with_schedule(schedule);
            let outcomes = |ws: &mut DecoderWorkspace| {
                let out = decoder.decode_batch(&graph, &soa, batch, ws);
                (0..batch)
                    .map(|lane| out.lane_outcome(lane))
                    .collect::<Vec<_>>()
            };
            let want = outcomes(&mut DecoderWorkspace::new());
            assert_eq!(
                outcomes(&mut reused),
                want,
                "{kernel:?} {schedule:?} batch {batch}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "LLR length")]
    fn llr_length_checked() {
        let code = QcLdpcCode::small_test_code();
        let graph = DecoderGraph::new(&code);
        let mut ws = DecoderWorkspace::new();
        let _ = QuantizedMinSumDecoder::new().decode(&graph, &[0i8; 3], &mut ws);
    }
}
