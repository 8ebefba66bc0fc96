//! Decoder engine comparison: scalar f32 min-sum vs the quantized i8
//! path, scalar and batched, plus the PR 7 kernel × schedule matrix
//! (i8 SoA vs bit-plane, flooding vs layered) across batch widths, on
//! the paper's rate-8/9 code.
//!
//! Prints a codewords/sec matrix and writes a machine-readable
//! `BENCH_decoder.json` (hand-formatted — the build has no serde_json)
//! so the decoder's perf trajectory can be tracked PR over PR. The
//! headline numbers are codewords/sec of the batched quantized decoder
//! vs the scalar f32 baseline at a 2Xnm-grade BER, and of the bit-sliced
//! layered engine vs the i8 flooding engine at batch 64
//! (`speedup_sliced_vs_i8_flood_batch64` — the PR 7 acceptance metric).
//!
//! Env knobs: `BENCH_QUICK=1` shrinks the workload for CI smoke runs;
//! `BENCH_DECODER_OUT` overrides the JSON path.
//!
//! Run: `cargo bench -p bench --bench decoder_batch`

use std::time::Instant;

use ldpc::{
    encode, random_info, DecodeKernel, DecoderGraph, DecoderWorkspace, LlrQuantizer, MinSumDecoder,
    QcLdpcCode, QuantizedMinSumDecoder, Schedule,
};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Batch width of the legacy `quantized_batch_cps` trajectory metric.
const BATCH: usize = 16;

/// Batch widths of the kernel × schedule matrix.
const MATRIX_BATCHES: [usize; 3] = [8, 16, 64];

/// The kernel × schedule engines under test. `i8_flood` is the PR 4
/// reference engine every other cell is measured against.
const ENGINES: [(&str, Schedule, DecodeKernel); 4] = [
    ("i8_flood", Schedule::Flooding, DecodeKernel::I8Soa),
    ("bitplane_flood", Schedule::Flooding, DecodeKernel::BitPlane),
    ("i8_layered", Schedule::Layered, DecodeKernel::I8Soa),
    (
        "bitplane_layered",
        Schedule::Layered,
        DecodeKernel::BitPlane,
    ),
];

fn quick_mode() -> bool {
    std::env::var("BENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty())
}

/// A workload: `frames` BSC-corrupted codewords of the paper code at flip
/// probability `ber`, as f32 LLRs, quantized LLRs, and the quantized
/// frames packed structure-of-arrays at every matrix batch width.
struct Workload {
    label: &'static str,
    ber: f64,
    f32_frames: Vec<Vec<f32>>,
    q_frames: Vec<Vec<i8>>,
    /// `(batch_width, SoA groups)` per entry of [`MATRIX_BATCHES`].
    q_batches: Vec<(usize, Vec<Vec<i8>>)>,
}

fn pack_soa(n: usize, frames: &[Vec<i8>], batch: usize) -> Vec<Vec<i8>> {
    frames
        .chunks(batch)
        .map(|chunk| {
            let mut soa = vec![0i8; n * chunk.len()];
            for (lane, frame) in chunk.iter().enumerate() {
                for (bit, &q) in frame.iter().enumerate() {
                    soa[bit * chunk.len() + lane] = q;
                }
            }
            soa
        })
        .collect()
}

fn build_workload(code: &QcLdpcCode, label: &'static str, ber: f64, frames: usize) -> Workload {
    let quantizer = LlrQuantizer::default();
    let mut rng = StdRng::seed_from_u64(0xD0DE + ber.to_bits());
    let n = code.codeword_bits();
    let mut f32_frames = Vec::with_capacity(frames);
    let mut q_frames = Vec::with_capacity(frames);
    for _ in 0..frames {
        let cw = encode(code, &random_info(code, &mut rng)).expect("valid info");
        let llrs: Vec<f32> = cw
            .iter()
            .map(|&bit| {
                let observed = bit ^ u8::from(rng.gen_bool(ber));
                if observed == 0 {
                    4.0
                } else {
                    -4.0
                }
            })
            .collect();
        q_frames.push(quantizer.quantize_table(&llrs));
        f32_frames.push(llrs);
    }
    let q_batches = MATRIX_BATCHES
        .iter()
        .map(|&batch| (batch, pack_soa(n, &q_frames, batch)))
        .collect();
    Workload {
        label,
        ber,
        f32_frames,
        q_frames,
        q_batches,
    }
}

/// Wall-clock codewords/sec of `decode_all` over `reps` repetitions
/// (best rep wins, to shave scheduler noise).
fn throughput(frames: usize, reps: usize, mut decode_all: impl FnMut()) -> f64 {
    decode_all(); // warmup
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        decode_all();
        best = best.min(start.elapsed().as_secs_f64());
    }
    frames as f64 / best
}

/// One engine × batch-width cell of the kernel matrix.
struct KernelCell {
    engine: &'static str,
    batch: usize,
    cps: f64,
}

struct PointResult {
    label: &'static str,
    ber: f64,
    scalar_f32_cps: f64,
    quantized_scalar_cps: f64,
    quantized_batch_cps: f64,
    kernel_matrix: Vec<KernelCell>,
}

impl PointResult {
    fn speedup_batch_vs_f32(&self) -> f64 {
        self.quantized_batch_cps / self.scalar_f32_cps
    }

    fn matrix_cps(&self, engine: &str, batch: usize) -> f64 {
        self.kernel_matrix
            .iter()
            .find(|c| c.engine == engine && c.batch == batch)
            .map(|c| c.cps)
            .expect("cell measured")
    }

    /// The PR 7 acceptance metric: bit-sliced layered engine vs the i8
    /// flooding reference at batch 64.
    fn speedup_sliced_vs_i8_flood_batch64(&self) -> f64 {
        self.matrix_cps("bitplane_layered", 64) / self.matrix_cps("i8_flood", 64)
    }
}

fn measure_point(
    code: &QcLdpcCode,
    graph: &DecoderGraph,
    w: &Workload,
    reps: usize,
) -> PointResult {
    let f32_decoder = MinSumDecoder::new();
    let q_decoder = QuantizedMinSumDecoder::new().with_kernel(DecodeKernel::I8Soa);
    let mut ws = DecoderWorkspace::new();
    let frames = w.f32_frames.len();
    let scalar_f32_cps = throughput(frames, reps, || {
        for llrs in &w.f32_frames {
            std::hint::black_box(f32_decoder.decode_with(graph, llrs, &mut ws).iterations);
        }
    });
    let quantized_scalar_cps = throughput(frames, reps, || {
        for qllrs in &w.q_frames {
            std::hint::black_box(q_decoder.decode(graph, qllrs, &mut ws).iterations);
        }
    });
    let n = code.codeword_bits();
    let batch16 = &w
        .q_batches
        .iter()
        .find(|(b, _)| *b == BATCH)
        .expect("batch 16 packed")
        .1;
    let quantized_batch_cps = throughput(frames, reps, || {
        for soa in batch16 {
            let lanes = soa.len() / n;
            let out = q_decoder.decode_batch(graph, soa, lanes, &mut ws);
            std::hint::black_box(out.iterations(lanes - 1));
        }
    });
    let mut kernel_matrix = Vec::new();
    for &(engine, schedule, kernel) in &ENGINES {
        let decoder = QuantizedMinSumDecoder::new()
            .with_schedule(schedule)
            .with_kernel(kernel);
        for (batch, groups) in &w.q_batches {
            let cps = throughput(frames, reps, || {
                for soa in groups {
                    let lanes = soa.len() / n;
                    let out = decoder.decode_batch(graph, soa, lanes, &mut ws);
                    std::hint::black_box(out.iterations(lanes - 1));
                }
            });
            kernel_matrix.push(KernelCell {
                engine,
                batch: *batch,
                cps,
            });
        }
    }
    PointResult {
        label: w.label,
        ber: w.ber,
        scalar_f32_cps,
        quantized_scalar_cps,
        quantized_batch_cps,
        kernel_matrix,
    }
}

fn write_json(path: &str, quick: bool, code: &QcLdpcCode, results: &[PointResult]) {
    let mut points = String::new();
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            points.push_str(",\n");
        }
        let mut matrix = String::new();
        for (j, cell) in r.kernel_matrix.iter().enumerate() {
            if j > 0 {
                matrix.push_str(",\n");
            }
            matrix.push_str(&format!(
                "      {{\"engine\": \"{}\", \"batch\": {}, \"cps\": {:.3}}}",
                cell.engine, cell.batch, cell.cps
            ));
        }
        points.push_str(&format!(
            concat!(
                "    {{\"label\": \"{}\", \"ber\": {}, ",
                "\"scalar_f32_cps\": {:.3}, \"quantized_scalar_cps\": {:.3}, ",
                "\"quantized_batch_cps\": {:.3}, \"speedup_batch_vs_f32\": {:.3},\n",
                "    \"speedup_sliced_vs_i8_flood_batch64\": {:.3},\n",
                "    \"kernel_matrix\": [\n{}\n    ]}}"
            ),
            r.label,
            r.ber,
            r.scalar_f32_cps,
            r.quantized_scalar_cps,
            r.quantized_batch_cps,
            r.speedup_batch_vs_f32(),
            r.speedup_sliced_vs_i8_flood_batch64(),
            matrix
        ));
    }
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"decoder_batch\",\n",
            "  \"quick\": {},\n",
            "  \"code\": {{\"n\": {}, \"k\": {}}},\n",
            "  \"batch\": {},\n",
            "  \"points\": [\n{}\n  ]\n",
            "}}\n"
        ),
        quick,
        code.codeword_bits(),
        code.info_bits(),
        BATCH,
        points
    );
    std::fs::write(path, json).expect("write BENCH_decoder.json");
    println!("\nwrote {path}");
}

fn main() {
    let code = QcLdpcCode::paper_code();
    let graph = DecoderGraph::cached(&code);
    let (frames, reps) = if quick_mode() { (64, 2) } else { (128, 3) };
    let workloads = [
        build_workload(&code, "clean", 0.0, frames),
        build_workload(&code, "ber_8e-3", 8e-3, frames),
    ];

    let results: Vec<PointResult> = workloads
        .iter()
        .map(|w| measure_point(&code, &graph, w, reps))
        .collect();
    println!("\n== codewords/sec (best of {reps} reps over {frames} frames)");
    for r in &results {
        println!(
            "{:>10}: scalar_f32 {:>9.1}  quantized_scalar {:>9.1}  quantized_batch{} {:>9.1}  (batch vs f32: {:.2}x)",
            r.label,
            r.scalar_f32_cps,
            r.quantized_scalar_cps,
            BATCH,
            r.quantized_batch_cps,
            r.speedup_batch_vs_f32()
        );
        for &batch in &MATRIX_BATCHES {
            let cells: Vec<String> = ENGINES
                .iter()
                .map(|&(engine, _, _)| format!("{engine} {:>9.1}", r.matrix_cps(engine, batch)))
                .collect();
            println!("            batch {batch:>2}: {}", cells.join("  "));
        }
        println!(
            "            sliced layered vs i8 flood @64: {:.2}x",
            r.speedup_sliced_vs_i8_flood_batch64()
        );
    }
    let path =
        std::env::var("BENCH_DECODER_OUT").unwrap_or_else(|_| "BENCH_decoder.json".to_string());
    write_json(&path, quick_mode(), &code, &results);
}
