//! Property-based tests over the workspace's core data structures and
//! invariants (proptest).

use flash_model::{CellMode, LevelConfig, Volts, VthLevel};
use flexlevel::{ReduceCode, ReducedCellPool};
use ldpc::{encode, DecoderGraph, MinSumDecoder, QcLdpcCode, SensingSchedule};
use proptest::prelude::*;
use reliability::SymbolCodec;
use ssd::{PageMapFtl, WriteBuffer};
use workloads::{decode as trace_decode, encode as trace_encode, IoOp, IoRequest, Trace};

proptest! {
    /// ReduceCode is involutive over its whole symbol space, and any
    /// single-cell distortion costs at most 2 bits.
    #[test]
    fn reduce_code_roundtrip_and_bounded_damage(value in 0u16..8, da in 0u8..3, db in 0u8..3) {
        let (a, b) = ReduceCode::encode_value(value);
        prop_assert_eq!(ReduceCode::decode_levels(a, b), value);
        let read = ReduceCode::decode_levels(VthLevel::new(da), VthLevel::new(db));
        let errs = (value ^ read).count_ones();
        prop_assert!(errs <= 3, "3-bit symbols can't disagree in more bits");
        // Single-level slips (distance 1 in exactly one cell) cost ≤ 2.
        let slip = (a.index().abs_diff(da) + b.index().abs_diff(db)) == 1;
        if slip {
            prop_assert!(errs <= 2, "one-level slip cost {errs} bits");
        }
    }

    /// Gray MLC codec: every one-level slip costs exactly one bit.
    #[test]
    fn gray_one_level_slip_single_bit(value in 0u16..4, up in proptest::bool::ANY) {
        let codec = reliability::GrayMlcCodec;
        let mut cells = [VthLevel::ERASED; 1];
        codec.encode(value, &mut cells);
        let idx = cells[0].index() as i8 + if up { 1 } else { -1 };
        if (0..=3).contains(&idx) {
            let read = codec.decode(&[VthLevel::new(idx as u8)]);
            prop_assert_eq!(codec.bit_errors(value, read), 1);
        }
    }

    /// LevelConfig classification is monotone in voltage: a higher Vth
    /// never reads as a lower level.
    #[test]
    fn classification_is_monotone(v1 in 0.0f64..5.0, v2 in 0.0f64..5.0) {
        let cfg = LevelConfig::normal_mlc();
        let (lo, hi) = if v1 <= v2 { (v1, v2) } else { (v2, v1) };
        prop_assert!(cfg.classify(Volts(lo)) <= cfg.classify(Volts(hi)));
    }

    /// The sensing schedule is monotone in BER.
    #[test]
    fn schedule_monotone(b1 in 0.0f64..0.05, b2 in 0.0f64..0.05) {
        let s = SensingSchedule::paper_anchor();
        let (lo, hi) = if b1 <= b2 { (b1, b2) } else { (b2, b1) };
        prop_assert!(s.required_levels(lo) <= s.required_levels(hi));
    }

    /// Every random information word encodes to a valid codeword
    /// (syndrome zero), and the codeword is systematic.
    #[test]
    fn ldpc_encoding_always_valid(seed in 0u64..1000) {
        use rand::{rngs::StdRng, SeedableRng};
        let code = QcLdpcCode::small_test_code();
        let mut rng = StdRng::seed_from_u64(seed);
        let info = ldpc::random_info(&code, &mut rng);
        let cw = encode(&code, &info).unwrap();
        prop_assert_eq!(code.syndrome_weight(&cw), 0);
        prop_assert_eq!(&cw[..code.info_bits()], &info[..]);
    }

    /// Any ≤3-bit corruption of a small-code codeword is corrected by the
    /// decoder at strong LLR magnitude.
    #[test]
    fn ldpc_corrects_small_corruptions(seed in 0u64..200, flips in prop::collection::vec(0usize..1280, 1..4)) {
        use rand::{rngs::StdRng, SeedableRng};
        let code = QcLdpcCode::small_test_code();
        let graph = DecoderGraph::new(&code);
        let decoder = MinSumDecoder::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let info = ldpc::random_info(&code, &mut rng);
        let cw = encode(&code, &info).unwrap();
        let mut llrs: Vec<f32> = cw.iter().map(|&b| if b == 0 { 5.0 } else { -5.0 }).collect();
        for &f in &flips {
            llrs[f] = -llrs[f].abs() * if cw[f] == 0 { 1.0 } else { -1.0 };
        }
        let out = decoder.decode(&graph, &llrs);
        prop_assert!(out.success);
        prop_assert_eq!(out.info_bits(&code), &info[..]);
    }

    /// The trace binary codec roundtrips arbitrary traces.
    #[test]
    fn trace_codec_roundtrip(
        name in "[a-z]{1,12}",
        reqs in prop::collection::vec(
            (0.0f64..1e9, 0u64..1_000_000, 1u32..64, proptest::bool::ANY),
            0..50,
        )
    ) {
        let mut arrival = 0.0;
        let requests: Vec<IoRequest> = reqs
            .into_iter()
            .map(|(gap, lpn, pages, is_read)| {
                arrival += gap;
                let op = if is_read { IoOp::Read } else { IoOp::Write };
                IoRequest::new(arrival, lpn, pages, op)
            })
            .collect();
        let trace = Trace { name, footprint_pages: 2_000_000, requests };
        let decoded = trace_decode(&trace_encode(&trace)).unwrap();
        prop_assert_eq!(decoded, trace);
    }

    /// FTL invariant: after any sequence of writes, the number of valid
    /// pages equals the number of distinct LPNs written, and every
    /// mapping points at a valid physical page.
    #[test]
    fn ftl_mapping_consistent(writes in prop::collection::vec((0u64..500, proptest::bool::ANY), 1..300)) {
        let geometry = flash_model::DeviceGeometry::scaled(16).unwrap();
        let mut ftl = PageMapFtl::new(geometry, 4);
        let mut written = std::collections::HashSet::new();
        for (lpn, reduced) in writes {
            let mode = if reduced { CellMode::Reduced } else { CellMode::Normal };
            // The mixed workload stays far below capacity; writes succeed.
            ftl.write(lpn, mode).unwrap();
            written.insert(lpn);
        }
        prop_assert_eq!(ftl.total_valid_pages(), written.len() as u64);
        for &lpn in &written {
            let (phys, _) = ftl.placement(lpn).unwrap();
            prop_assert!(ftl.geometry().contains(phys));
        }
    }

    /// Write buffer invariant: never exceeds capacity; a page is either
    /// buffered or was evicted/never written.
    #[test]
    fn buffer_capacity_respected(cap in 1u64..32, writes in prop::collection::vec(0u64..100, 0..200)) {
        let mut buf = WriteBuffer::new(cap);
        for lpn in writes {
            let _ = buf.write(lpn);
            prop_assert!(buf.len() <= cap);
        }
    }

    /// ReducedCell pool: insertions never exceed capacity and evictions
    /// only happen when full.
    #[test]
    fn pool_capacity_respected(cap in 1u64..16, inserts in prop::collection::vec(0u64..64, 0..200)) {
        let mut pool = ReducedCellPool::new(cap);
        for lpn in inserts {
            let was_full = pool.len() >= cap;
            let contained = pool.contains(lpn);
            let evicted = pool.insert(lpn);
            prop_assert!(pool.len() <= cap);
            if evicted.is_some() {
                prop_assert!(was_full && !contained, "eviction only on full-pool new inserts");
            }
        }
    }

    /// Device images round-trip bit-identically through the binary
    /// codec from any checkpoint position, and damaged bytes always
    /// surface as typed errors — never a panic, never a silent
    /// mis-restore.
    #[test]
    fn device_image_roundtrip_and_damage_typed(
        stop in 50u64..250,
        seed in 0u64..1_000,
        cases in prop::collection::vec((prop::bool::ANY, 0usize..1 << 20), 4),
    ) {
        use rand::{rngs::StdRng, SeedableRng};
        use ssd::{DeviceImage, Scheme, SsdConfig, SsdSimulator};

        let trace = workloads::WorkloadSpec::fin2()
            .with_requests(300)
            .with_footprint(500)
            .generate(&mut StdRng::seed_from_u64(seed));
        let config = SsdConfig::scaled(Scheme::FlexLevel, 16).with_seed(seed ^ 0xDEC0DE);
        let mut sim = SsdSimulator::new(config);
        sim.run_prefix(&trace, stop).unwrap();
        let image = sim.checkpoint().unwrap();

        let bytes = image.to_bytes();
        let decoded = DeviceImage::from_bytes(&bytes).unwrap();
        prop_assert_eq!(&decoded, &image, "decode is lossless");
        prop_assert_eq!(decoded.to_bytes(), bytes.clone(), "re-encode is bit-stable");

        for (truncate, at) in cases {
            if truncate {
                // Any strict prefix must fail with a typed error.
                let cut = at % bytes.len();
                prop_assert!(DeviceImage::from_bytes(&bytes[..cut]).is_err());
            } else {
                // A flipped bit either fails typed or decodes; it must
                // never panic, and a decode success must re-encode (the
                // flip landed in a value payload, not the framing).
                let mut damaged = bytes.clone();
                let pos = at % damaged.len();
                damaged[pos] ^= 1 << (at % 8);
                if let Ok(img) = DeviceImage::from_bytes(&damaged) {
                    let _ = img.to_bytes();
                }
            }
        }
    }

    /// Zipf sampler stays in range for arbitrary parameters.
    #[test]
    fn zipf_in_range(n in 1u64..10_000, theta in 0.0f64..2.0, seed in 0u64..1000) {
        use rand::{rngs::StdRng, SeedableRng};
        let z = workloads::ZipfSampler::new(n, theta);
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..100 {
            prop_assert!(z.sample(&mut rng) < n);
        }
    }
}
