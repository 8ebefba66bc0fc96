//! u64 bit-plane (bit-sliced) quantized min-sum kernels.
//!
//! Instead of one `i8` per (edge, lane), this kernel stores each *bit* of
//! the quantized messages in its own `u64` plane: bit `j` of a plane word
//! belongs to codeword lane `j`, so **64 lanes advance per machine word**
//! on stable Rust with no `std::simd` or intrinsics. Messages are held in
//! sign-magnitude form — one sign plane plus five magnitude planes
//! (±[`Q_MAX`] fits five bits) — which makes the check-node min/sign
//! reduction pure boolean algebra:
//!
//! * compare via a ripple **borrow** chain (`a < b` ⇔ borrow out of
//!   `a - b`),
//! * select via `b ^ ((a ^ b) & mask)`,
//! * α = 3/4 via a ripple adder computing `3m` and dropping two planes,
//! * bit totals in `W`-plane two's complement (ripple carry), `W` sized
//!   from the graph's maximum bit degree and padded up to a compile-time
//!   plane count (8/12/16) so every ripple chain fully unrolls — extra
//!   sign-extension planes never change the represented value.
//!
//! Every operation is lane-wise, so the kernel reproduces the `i8`
//! structure-of-arrays reference (`QuantizedMinSumDecoder::decode_batch`
//! with [`DecodeKernel::I8Soa`](crate::quantized::DecodeKernel::I8Soa))
//! **bit for bit, lane for lane** — same hard decisions, same per-lane
//! iteration counts, same success flags — for both the flooding and the
//! layered [`Schedule`]. `tests/bitplane_parity.rs` pins that contract.
//!
//! Batches wider than 64 lanes run in independent 64-lane groups; partial
//! groups pad with zero-LLR lanes, which is sound because no operation
//! ever mixes lanes.

use crate::decoder::DecoderGraph;
use crate::quantized::{grow, DecoderWorkspace, Schedule, Q_MAX};

/// Codeword lanes per plane word.
pub const LANES: usize = 64;

/// Magnitude planes per message: [`Q_MAX`] = 31 fits five bits.
pub const MAG_PLANES: usize = 5;

/// Largest supported two's-complement plane count for bit totals.
const MAX_W: usize = 16;

/// Transposes an 8×8 bit matrix held in one `u64` (row `j` = byte `j`,
/// LSB-first within each row): bit `(j, k)` moves to bit `(k, j)`. An
/// involution. The three masked-swap steps are the classic Hacker's
/// Delight network.
#[inline]
fn transpose8x8(mut x: u64) -> u64 {
    let t = (x ^ (x >> 7)) & 0x00AA_00AA_00AA_00AA;
    x ^= t ^ (t << 7);
    let t = (x ^ (x >> 14)) & 0x0000_CCCC_0000_CCCC;
    x ^= t ^ (t << 14);
    let t = (x ^ (x >> 28)) & 0x0000_0000_F0F0_F0F0;
    x ^= t ^ (t << 28);
    x
}

/// Transposes 64 lane bytes into 8 bit-planes: bit `k` of lane `j` lands
/// in bit `j` of `planes[k]`. Inverse of [`untranspose64`].
pub fn transpose64(bytes: &[u8; 64]) -> [u64; 8] {
    let mut planes = [0u64; 8];
    for (g, chunk) in bytes.chunks_exact(8).enumerate() {
        let word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        let t = transpose8x8(word);
        for (k, plane) in planes.iter_mut().enumerate() {
            *plane |= ((t >> (8 * k)) & 0xFF) << (8 * g);
        }
    }
    planes
}

/// Scatters 8 bit-planes back into 64 lane bytes: bit `j` of `planes[k]`
/// lands in bit `k` of lane `j`. Inverse of [`transpose64`].
pub fn untranspose64(planes: &[u64; 8]) -> [u8; 64] {
    let mut bytes = [0u8; 64];
    for g in 0..8 {
        let mut word = 0u64;
        for (k, plane) in planes.iter().enumerate() {
            word |= ((plane >> (8 * g)) & 0xFF) << (8 * k);
        }
        let t = transpose8x8(word);
        bytes[8 * g..8 * g + 8].copy_from_slice(&t.to_le_bytes());
    }
    bytes
}

/// Plane-domain buffer arena of the bit-plane kernels, embedded in
/// [`DecoderWorkspace`]. Sized per 64-lane group (independent of the
/// batch width) and grown lazily like the rest of the workspace; each
/// schedule sizes only its own planes.
#[derive(Debug, Default)]
pub(crate) struct PlaneBuffers {
    /// Flooding-only: the variable-to-check messages.
    v2c_sign: Vec<u64>,
    v2c_mag: Vec<u64>,
    c2v_sign: Vec<u64>,
    c2v_mag: Vec<u64>,
    ch_sign: Vec<u64>,
    ch_mag: Vec<u64>,
    hard: Vec<u64>,
    hard_out: Vec<u64>,
    /// Layered-only: the posterior, `w` two's-complement planes per bit.
    post: Vec<u64>,
    /// Layered-only per-check scratch: saturated v2c of the current row.
    vrow_sign: Vec<u64>,
    vrow_mag: Vec<u64>,
}

impl PlaneBuffers {
    fn ensure(&mut self, graph: &DecoderGraph, w: usize, schedule: Schedule) {
        let edges = graph.edge_count();
        let bits = graph.bit_count();
        grow(&mut self.c2v_sign, edges);
        grow(&mut self.c2v_mag, edges * MAG_PLANES);
        grow(&mut self.ch_sign, bits);
        grow(&mut self.ch_mag, bits * MAG_PLANES);
        grow(&mut self.hard, bits);
        grow(&mut self.hard_out, bits);
        match schedule {
            Schedule::Flooding => {
                grow(&mut self.v2c_sign, edges);
                grow(&mut self.v2c_mag, edges * MAG_PLANES);
            }
            Schedule::Layered => {
                let max_check_degree = graph.max_check_degree();
                grow(&mut self.post, bits * w);
                grow(&mut self.vrow_sign, max_check_degree);
                grow(&mut self.vrow_mag, max_check_degree * MAG_PLANES);
            }
        }
    }
}

/// `mask ? a : b`, lane-wise.
#[inline(always)]
fn sel(mask: u64, a: u64, b: u64) -> u64 {
    b ^ ((a ^ b) & mask)
}

/// Lane mask of `a < b` over [`MAG_PLANES`]-bit unsigned magnitudes: the
/// borrow out of the ripple subtraction `a - b`.
#[inline(always)]
fn lt_mag(a: &[u64; MAG_PLANES], b: &[u64; MAG_PLANES]) -> u64 {
    let mut borrow = 0u64;
    for k in 0..MAG_PLANES {
        borrow = (!a[k] & b[k]) | ((!a[k] | b[k]) & borrow);
    }
    borrow
}

/// Lane mask of `a == b` over magnitudes.
#[inline(always)]
fn eq_mag(a: &[u64; MAG_PLANES], b: &[u64; MAG_PLANES]) -> u64 {
    let mut ne = 0u64;
    for k in 0..MAG_PLANES {
        ne |= a[k] ^ b[k];
    }
    !ne
}

/// `(3·m) >> 2` over magnitudes `m ≤ 31` — the exact integer α = 3/4 of
/// the reference kernel. `3m ≤ 93` fits seven planes; dropping the two
/// low planes is the `>> 2`.
#[inline(always)]
fn alpha34(m: &[u64; MAG_PLANES]) -> [u64; MAG_PLANES] {
    let mut t3 = [0u64; MAG_PLANES + 2];
    let mut carry = 0u64;
    for (k, out) in t3.iter_mut().enumerate() {
        let a = if k < MAG_PLANES { m[k] } else { 0 };
        let b = if (1..=MAG_PLANES).contains(&k) {
            m[k - 1]
        } else {
            0
        };
        *out = a ^ b ^ carry;
        carry = (a & b) | (carry & (a ^ b));
    }
    [t3[2], t3[3], t3[4], t3[5], t3[6]]
}

/// Initializes `t` (two's complement, `W` planes) to the sign-magnitude
/// value `(s, mag)`: `(mag ^ s) + s`, sign-extended.
#[inline(always)]
fn sm_init<const W: usize>(t: &mut [u64; W], s: u64, mag: &[u64; MAG_PLANES]) {
    let mut carry = s;
    for (k, out) in t.iter_mut().enumerate() {
        let a = if k < MAG_PLANES { mag[k] ^ s } else { s };
        *out = a ^ carry;
        carry &= a;
    }
}

/// Adds the sign-magnitude value `(s, mag)` into the two's-complement
/// accumulator `t` (ripple carry). Subtraction is the same call with the
/// sign plane complemented — valid for every lane including `mag == 0`.
#[inline(always)]
fn sm_add<const W: usize>(t: &mut [u64; W], s: u64, mag: &[u64; MAG_PLANES]) {
    let mut carry = s;
    for (k, acc) in t.iter_mut().enumerate() {
        let a = *acc;
        let b = if k < MAG_PLANES { mag[k] ^ s } else { s };
        *acc = a ^ b ^ carry;
        carry = (a & b) | (carry & (a ^ b));
    }
}

/// Clamps the two's-complement value `u` to ±[`Q_MAX`] and returns it in
/// sign-magnitude form — the plane-domain equivalent of
/// `(t as i16).clamp(-31, 31)`.
#[inline(always)]
fn clamp_q<const W: usize>(u: &[u64; W]) -> (u64, [u64; MAG_PLANES]) {
    let s = u[W - 1];
    let mut high_or = 0u64;
    let mut high_and = u64::MAX;
    let mut low_or = 0u64;
    for &plane in &u[MAG_PLANES..W] {
        high_or |= plane;
        high_and &= plane;
    }
    for &plane in &u[..MAG_PLANES] {
        low_or |= plane;
    }
    // Positive overflow: any plane above the magnitude field set.
    // Negative overflow (u < -31 ⇔ u ≤ -32): not (high planes all ones
    // and some low bit set).
    let over = (!s & high_or) | (s & !(high_and & low_or));
    // Two's-complement negate of the low field, for negative lanes.
    let mut neg = [0u64; MAG_PLANES];
    let mut carry = u64::MAX;
    for k in 0..MAG_PLANES {
        let a = !u[k];
        neg[k] = a ^ carry;
        carry &= a;
    }
    let mut mag = [0u64; MAG_PLANES];
    for k in 0..MAG_PLANES {
        // Saturated lanes take magnitude 31 = all ones.
        mag[k] = sel(s, neg[k], u[k]) | over;
    }
    (s, mag)
}

/// Borrows magnitude slot `index` of a plane buffer as a fixed-size
/// array, so downstream ripple loops see a compile-time length.
#[inline(always)]
fn mag_ref(buf: &[u64], index: usize) -> &[u64; MAG_PLANES] {
    buf[index * MAG_PLANES..(index + 1) * MAG_PLANES]
        .try_into()
        .expect("magnitude slot")
}

#[inline]
fn mag_at(buf: &[u64], index: usize) -> [u64; MAG_PLANES] {
    *mag_ref(buf, index)
}

/// Decodes `batch` structure-of-arrays codewords with the bit-plane
/// kernel, writing per-lane outcomes into the workspace's `success` /
/// `iterations` / `hard_out` arrays exactly like the `i8` kernels.
pub(crate) fn decode_batch_planes(
    graph: &DecoderGraph,
    qllrs: &[i8],
    batch: usize,
    max_iterations: u32,
    schedule: Schedule,
    ws: &mut DecoderWorkspace,
) {
    // Plane count of the two's-complement bit totals: flooding totals are
    // bounded by |channel| + deg·|c2v|max (the per-edge u drops one term,
    // so it is strictly inside that bound); layered posteriors by
    // Q_MAX + 23 (+23 for the in-flight subtraction).
    let c2v_max = i64::from((3 * Q_MAX) >> 2);
    let max_abs = match schedule {
        Schedule::Flooding => i64::from(Q_MAX) + c2v_max * graph.max_bit_degree() as i64,
        Schedule::Layered => i64::from(Q_MAX) + 2 * c2v_max,
    };
    let w = (64 - (max_abs as u64).leading_zeros() as usize) + 1;
    assert!(w <= MAX_W, "bit degree too large for the bit-plane kernel");
    // Pad the runtime requirement up to a compile-time plane count so the
    // ripple chains (`sm_init`/`sm_add`/`clamp_q`) fully unroll. Sign
    // extension makes the extra planes value-preserving, so any W ≥ w is
    // bit-exact; the paper's deg-4 code takes the W = 8 path.
    match w {
        0..=8 => decode_batch_w::<8>(graph, qllrs, batch, max_iterations, schedule, ws),
        9..=12 => decode_batch_w::<12>(graph, qllrs, batch, max_iterations, schedule, ws),
        _ => decode_batch_w::<MAX_W>(graph, qllrs, batch, max_iterations, schedule, ws),
    }
}

fn decode_batch_w<const W: usize>(
    graph: &DecoderGraph,
    qllrs: &[i8],
    batch: usize,
    max_iterations: u32,
    schedule: Schedule,
    ws: &mut DecoderWorkspace,
) {
    ws.bp.ensure(graph, W, schedule);
    let DecoderWorkspace {
        bp,
        hard_out,
        success,
        iterations,
        ..
    } = ws;
    for group in (0..batch).step_by(LANES) {
        let lanes = LANES.min(batch - group);
        decode_group::<W>(
            graph,
            qllrs,
            batch,
            group,
            lanes,
            max_iterations,
            schedule,
            bp,
            hard_out,
            success,
            iterations,
        );
    }
}

/// Loads the channel LLRs of one lane group into sign/magnitude planes.
/// Lanes beyond `lanes` pad with zero LLRs; they decode independently
/// (to the all-zero codeword, in one iteration) and are never read back.
fn load_channel(
    bp: &mut PlaneBuffers,
    qllrs: &[i8],
    batch: usize,
    group: usize,
    lanes: usize,
    n: usize,
) {
    let mut bytes = [0u8; 64];
    for b in 0..n {
        let row = &qllrs[b * batch + group..b * batch + group + lanes];
        for (dst, &q) in bytes.iter_mut().zip(row) {
            *dst = q as u8;
        }
        bytes[lanes..].fill(0);
        let planes = transpose64(&bytes);
        // |q| ≤ 31, so bit 7 is the sign and magnitude = (low5 ^ s) + s.
        let s = planes[7];
        let mut carry = s;
        for (k, &plane) in planes.iter().enumerate().take(MAG_PLANES) {
            let a = plane ^ s;
            bp.ch_mag[b * MAG_PLANES + k] = a ^ carry;
            carry &= a;
        }
        bp.ch_sign[b] = s;
    }
}

#[allow(clippy::too_many_arguments)] // one 64-lane group of the hot kernel
fn decode_group<const W: usize>(
    graph: &DecoderGraph,
    qllrs: &[i8],
    batch: usize,
    group: usize,
    lanes: usize,
    max_iterations: u32,
    schedule: Schedule,
    bp: &mut PlaneBuffers,
    hard_out: &mut [u8],
    success: &mut [u8],
    iterations: &mut [u32],
) {
    let n = graph.bit_count();
    let edges = graph.edge_count();
    load_channel(bp, qllrs, batch, group, lanes, n);
    bp.c2v_sign[..edges].fill(0);
    bp.c2v_mag[..edges * MAG_PLANES].fill(0);
    bp.hard[..n].fill(0);
    match schedule {
        Schedule::Flooding => {
            // v2c initialised to channel values.
            for (e, &b) in graph.edge_bits.iter().enumerate() {
                let b = b as usize;
                bp.v2c_sign[e] = bp.ch_sign[b];
                for k in 0..MAG_PLANES {
                    bp.v2c_mag[e * MAG_PLANES + k] = bp.ch_mag[b * MAG_PLANES + k];
                }
            }
        }
        Schedule::Layered => {
            // Posterior initialised to channel values, in two's complement.
            for b in 0..n {
                let post: &mut [u64; W] = (&mut bp.post[b * W..(b + 1) * W])
                    .try_into()
                    .expect("posterior slot");
                sm_init(post, bp.ch_sign[b], mag_ref(&bp.ch_mag, b));
            }
        }
    }

    let mut done = 0u64;
    let mut success_mask = 0u64;
    let mut lane_iter = [0u32; LANES];
    let mut executed = 0u32;
    for iter in 1..=max_iterations {
        executed = iter;
        match schedule {
            Schedule::Flooding => flood_iteration::<W>(graph, bp),
            Schedule::Layered => layered_sweep::<W>(graph, bp),
        }
        // Per-lane syndrome over the hard-decision planes.
        let mut unsat = 0u64;
        for c in 0..graph.check_count() {
            let (lo, hi) = graph.check_edge_range(c);
            let mut parity = 0u64;
            for &b in &graph.edge_bits[lo..hi] {
                parity ^= bp.hard[b as usize];
            }
            unsat |= parity;
        }
        // Freeze newly converged lanes: record their iteration count and
        // snapshot their hard decisions via plane masking.
        let newly = !unsat & !done;
        if newly != 0 {
            done |= newly;
            success_mask |= newly;
            let mut m = newly;
            while m != 0 {
                lane_iter[m.trailing_zeros() as usize] = iter;
                m &= m - 1;
            }
            for b in 0..n {
                bp.hard_out[b] = (bp.hard_out[b] & !newly) | (bp.hard[b] & newly);
            }
        }
        if done == u64::MAX {
            break;
        }
    }
    // Lanes that never converged report the executed iteration count and
    // their final (failed) hard decision.
    let rem = !done;
    if rem != 0 {
        let mut m = rem;
        while m != 0 {
            lane_iter[m.trailing_zeros() as usize] = executed;
            m &= m - 1;
        }
        for b in 0..n {
            bp.hard_out[b] = (bp.hard_out[b] & !rem) | (bp.hard[b] & rem);
        }
    }
    // Scatter the group's planes back into the byte-domain outputs.
    for j in 0..lanes {
        success[group + j] = ((success_mask >> j) & 1) as u8;
        iterations[group + j] = lane_iter[j];
    }
    for b in 0..n {
        let plane = bp.hard_out[b];
        let row = &mut hard_out[b * batch + group..b * batch + group + lanes];
        for (j, out) in row.iter_mut().enumerate() {
            *out = ((plane >> j) & 1) as u8;
        }
    }
}

/// One flooding iteration in the plane domain: check pass, bit pass,
/// hard decisions. Mirrors `QuantizedMinSumDecoder::flood_i8` exactly.
fn flood_iteration<const W: usize>(graph: &DecoderGraph, bp: &mut PlaneBuffers) {
    let n = graph.bit_count();
    // Check-node update. m1/m2 start at 31 (all magnitude planes set)
    // rather than the reference kernel's i16::MAX — equivalent, because
    // every magnitude is ≤ 31 and the reference clamps `m.min(31)`
    // before scaling.
    for c in 0..graph.check_count() {
        let (lo, hi) = graph.check_edge_range(c);
        let mut m1 = [u64::MAX; MAG_PLANES];
        let mut m2 = [u64::MAX; MAG_PLANES];
        let mut sg = 0u64;
        for e in lo..hi {
            sg ^= bp.v2c_sign[e];
            let mag = mag_ref(&bp.v2c_mag, e);
            let lt = lt_mag(mag, &m1);
            let mut mx = [0u64; MAG_PLANES];
            for k in 0..MAG_PLANES {
                mx[k] = sel(lt, m1[k], mag[k]); // max(mag, m1)
            }
            let lt2 = lt_mag(&m2, &mx);
            for k in 0..MAG_PLANES {
                m2[k] = sel(lt2, m2[k], mx[k]); // min(m2, max(mag, m1))
                m1[k] = sel(lt, mag[k], m1[k]); // min(m1, mag)
            }
        }
        // Scale once per check, select per edge: lane-wise select and
        // scale commute, so this equals the reference's per-edge scaling.
        let s1 = alpha34(&m1);
        let s2 = alpha34(&m2);
        for e in lo..hi {
            let eq = eq_mag(mag_ref(&bp.v2c_mag, e), &m1);
            for k in 0..MAG_PLANES {
                bp.c2v_mag[e * MAG_PLANES + k] = sel(eq, s2[k], s1[k]);
            }
            bp.c2v_sign[e] = sg ^ bp.v2c_sign[e];
        }
    }
    // Bit-node update: total = channel + Σ c2v in W-plane two's
    // complement, hard = sign plane, v2c = saturated extrinsic difference.
    for b in 0..n {
        let mut t = [0u64; W];
        sm_init(&mut t, bp.ch_sign[b], mag_ref(&bp.ch_mag, b));
        let (blo, bhi) = graph.bit_edge_range(b);
        for &e in &graph.bit_edges[blo..bhi] {
            let e = e as usize;
            sm_add(&mut t, bp.c2v_sign[e], mag_ref(&bp.c2v_mag, e));
        }
        bp.hard[b] = t[W - 1];
        for &e in &graph.bit_edges[blo..bhi] {
            let e = e as usize;
            let mut u = t;
            sm_add(&mut u, !bp.c2v_sign[e], mag_ref(&bp.c2v_mag, e));
            let (s, mag) = clamp_q(&u);
            bp.v2c_sign[e] = s;
            bp.v2c_mag[e * MAG_PLANES..(e + 1) * MAG_PLANES].copy_from_slice(&mag);
        }
    }
}

/// One layered sweep in the plane domain: per check, recover the
/// saturated v2c from the posterior, update min/sign, emit new c2v and
/// fold it straight back into the posterior. Mirrors
/// `layered::decode_batch_layered_i8` exactly.
fn layered_sweep<const W: usize>(graph: &DecoderGraph, bp: &mut PlaneBuffers) {
    let n = graph.bit_count();
    for c in 0..graph.check_count() {
        let (lo, hi) = graph.check_edge_range(c);
        let mut m1 = [u64::MAX; MAG_PLANES];
        let mut m2 = [u64::MAX; MAG_PLANES];
        let mut sg = 0u64;
        for (i, e) in (lo..hi).enumerate() {
            let b = graph.edge_bit(e);
            let mut u: [u64; W] = bp.post[b * W..(b + 1) * W]
                .try_into()
                .expect("posterior slot");
            sm_add(&mut u, !bp.c2v_sign[e], mag_ref(&bp.c2v_mag, e));
            let (vs, vm) = clamp_q(&u);
            bp.vrow_sign[i] = vs;
            bp.vrow_mag[i * MAG_PLANES..(i + 1) * MAG_PLANES].copy_from_slice(&vm);
            sg ^= vs;
            let lt = lt_mag(&vm, &m1);
            let mut mx = [0u64; MAG_PLANES];
            for k in 0..MAG_PLANES {
                mx[k] = sel(lt, m1[k], vm[k]);
            }
            let lt2 = lt_mag(&m2, &mx);
            for k in 0..MAG_PLANES {
                m2[k] = sel(lt2, m2[k], mx[k]);
                m1[k] = sel(lt, vm[k], m1[k]);
            }
        }
        let s1 = alpha34(&m1);
        let s2 = alpha34(&m2);
        for (i, e) in (lo..hi).enumerate() {
            let vs = bp.vrow_sign[i];
            let vm = mag_at(&bp.vrow_mag, i);
            let eq = eq_mag(&vm, &m1);
            let mut cm = [0u64; MAG_PLANES];
            for k in 0..MAG_PLANES {
                cm[k] = sel(eq, s2[k], s1[k]);
            }
            let cs = sg ^ vs;
            bp.c2v_sign[e] = cs;
            bp.c2v_mag[e * MAG_PLANES..(e + 1) * MAG_PLANES].copy_from_slice(&cm);
            // Posterior = saturated v2c + fresh c2v, applied immediately.
            let b = graph.edge_bit(e);
            let post: &mut [u64; W] = (&mut bp.post[b * W..(b + 1) * W])
                .try_into()
                .expect("posterior slot");
            sm_init(post, vs, &vm);
            sm_add(post, cs, &cm);
        }
    }
    for b in 0..n {
        bp.hard[b] = bp.post[b * W + W - 1];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::QcLdpcCode;
    use crate::quantized::{LlrQuantizer, QuantizedMinSumDecoder};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A fresh workspace after one 64-lane bit-plane decode of noisy
    /// all-zero codewords under `schedule`.
    fn workspace_after_bitplane_decode(schedule: Schedule) -> DecoderWorkspace {
        let graph = DecoderGraph::new(&QcLdpcCode::small_test_code());
        let q = LlrQuantizer::default();
        let mut rng = StdRng::seed_from_u64(9);
        let qllrs: Vec<i8> = (0..graph.bit_count() * LANES)
            .map(|_| q.quantize(if rng.gen_bool(0.02) { -4.0 } else { 4.0 }))
            .collect();
        let mut ws = DecoderWorkspace::new();
        let _ = QuantizedMinSumDecoder::new()
            .with_schedule(schedule)
            .decode_batch(&graph, &qllrs, LANES, &mut ws);
        ws
    }

    #[test]
    fn bitplane_decode_leaves_i8_buffers_empty() {
        for schedule in [Schedule::Flooding, Schedule::Layered] {
            let ws = workspace_after_bitplane_decode(schedule);
            assert!(ws.q_v2c.is_empty(), "{schedule:?}: q_v2c sized");
            assert!(ws.q_c2v.is_empty(), "{schedule:?}: q_c2v sized");
            assert!(ws.hard.is_empty(), "{schedule:?}: hard sized");
            assert!(ws.q_post.is_empty(), "{schedule:?}: q_post sized");
            assert!(!ws.hard_out.is_empty() && !ws.bp.c2v_mag.is_empty());
        }
    }

    #[test]
    fn bitplane_schedules_size_only_their_planes() {
        let layered = workspace_after_bitplane_decode(Schedule::Layered);
        assert!(layered.bp.v2c_sign.is_empty() && layered.bp.v2c_mag.is_empty());
        assert!(!layered.bp.post.is_empty());
        let flooding = workspace_after_bitplane_decode(Schedule::Flooding);
        assert!(flooding.bp.post.is_empty());
        assert!(flooding.bp.vrow_sign.is_empty() && flooding.bp.vrow_mag.is_empty());
        assert!(!flooding.bp.v2c_mag.is_empty());
    }

    /// Reference transpose: bit `k` of lane `j` → bit `j` of plane `k`.
    fn naive_transpose(bytes: &[u8; 64]) -> [u64; 8] {
        let mut planes = [0u64; 8];
        for (j, &byte) in bytes.iter().enumerate() {
            for (k, plane) in planes.iter_mut().enumerate() {
                *plane |= u64::from((byte >> k) & 1) << j;
            }
        }
        planes
    }

    #[test]
    fn transpose_matches_naive_reference() {
        let mut bytes = [0u8; 64];
        for (j, b) in bytes.iter_mut().enumerate() {
            *b = (j as u8).wrapping_mul(37).wrapping_add(11);
        }
        assert_eq!(transpose64(&bytes), naive_transpose(&bytes));
    }

    #[test]
    fn transpose_round_trips() {
        let mut bytes = [0u8; 64];
        for (j, b) in bytes.iter_mut().enumerate() {
            *b = (j as u8).wrapping_mul(201) ^ 0x5A;
        }
        assert_eq!(untranspose64(&transpose64(&bytes)), bytes);
    }

    #[test]
    fn clamp_matches_scalar_semantics() {
        // Sweep every representable value at W = 9 in lane 0 and compare
        // against the i16 clamp the reference kernel uses.
        for v in -200i32..=200 {
            let mut planes = [0u64; 9];
            let bits = (v as u32) & 0x1FF;
            for (k, plane) in planes.iter_mut().enumerate() {
                *plane = u64::from((bits >> k) & 1);
            }
            let (s, mag) = clamp_q(&planes);
            let mut got = 0i32;
            for (k, m) in mag.iter().enumerate() {
                got |= ((m & 1) as i32) << k;
            }
            if s & 1 == 1 {
                got = -got;
            }
            let want = v.clamp(-31, 31);
            assert_eq!(got, want, "clamp of {v}");
        }
    }

    #[test]
    fn alpha_scaling_matches_integer_formula() {
        for m in 0u32..=31 {
            let mut planes = [0u64; MAG_PLANES];
            for (k, plane) in planes.iter_mut().enumerate() {
                *plane = u64::from((m >> k) & 1);
            }
            let scaled = alpha34(&planes);
            let mut got = 0u32;
            for (k, s) in scaled.iter().enumerate() {
                got |= ((s & 1) as u32) << k;
            }
            assert_eq!(got, (3 * m) >> 2, "alpha of {m}");
        }
    }
}
