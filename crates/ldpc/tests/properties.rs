//! Property-based tests of the LDPC stack.

use ldpc::{
    encode, random_info, DecoderGraph, DecoderWorkspace, LlrQuantizer, MinSumDecoder, QcLdpcCode,
    QuantizedMinSumDecoder, Schedule, SensingSchedule, SoftSensingConfig,
};
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

proptest! {
    /// Any valid (z, rows, cols) combination yields a consistent code:
    /// dimensions add up, every check touches distinct bits, and the
    /// all-zero word is a codeword.
    #[test]
    fn code_construction_consistent(z in 8usize..64, rows in 2usize..5, cols in 2usize..10) {
        let code = QcLdpcCode::new(z, rows, cols).unwrap();
        prop_assert_eq!(code.codeword_bits(), code.info_bits() + code.parity_bits());
        prop_assert_eq!(code.check_count(), code.parity_bits());
        let zero = vec![0u8; code.codeword_bits()];
        prop_assert_eq!(code.syndrome_weight(&zero), 0);
        for c in [0, code.check_count() / 2, code.check_count() - 1] {
            let bits = code.check_bits(c);
            let set: std::collections::HashSet<_> = bits.iter().collect();
            prop_assert_eq!(set.len(), bits.len(), "duplicate bits in check {}", c);
            prop_assert!(bits.iter().all(|&b| b < code.codeword_bits()));
        }
    }

    /// Random info words always encode to valid codewords for arbitrary
    /// code shapes.
    #[test]
    fn encode_valid_for_any_shape(z in 8usize..48, cols in 2usize..8, seed in 0u64..500) {
        let code = QcLdpcCode::new(z, 3, cols).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let info = random_info(&code, &mut rng);
        let cw = encode(&code, &info).unwrap();
        prop_assert_eq!(code.syndrome_weight(&cw), 0);
    }

    /// The f32 flooding reference and the shipped 6-bit layered schedule
    /// agree on success for correctable corruption (both must fix ≤2
    /// strong-LLR flips).
    #[test]
    fn schedules_agree_on_easy_frames(seed in 0u64..300, f1 in 0usize..1280, f2 in 0usize..1280) {
        let code = QcLdpcCode::small_test_code();
        let graph = DecoderGraph::new(&code);
        let mut rng = StdRng::seed_from_u64(seed);
        let info = random_info(&code, &mut rng);
        let cw = encode(&code, &info).unwrap();
        let mut llrs: Vec<f32> = cw.iter().map(|&b| if b == 0 { 5.0 } else { -5.0 }).collect();
        for f in [f1, f2] {
            llrs[f] = -llrs[f];
        }
        let flood = MinSumDecoder::new().decode(&graph, &llrs);
        let layer = QuantizedMinSumDecoder::new().with_schedule(Schedule::Layered).decode(
            &graph,
            &LlrQuantizer::default().quantize_table(&llrs),
            &mut DecoderWorkspace::new(),
        );
        prop_assert!(flood.success);
        prop_assert!(layer.success);
        prop_assert_eq!(flood.info_bits(&code), &info[..]);
        prop_assert_eq!(layer.info_bits(&code), &info[..]);
    }

    /// Soft-sensing threshold sets are always sorted, contain the
    /// boundary, and have the requested cardinality.
    #[test]
    fn threshold_sets_well_formed(extra in 0u32..12, boundary in 1.0f64..4.0, spacing in 0.005f64..0.1) {
        let cfg = SoftSensingConfig {
            extra_levels: extra,
            spacing: flash_model::Volts(spacing),
        };
        let t = cfg.thresholds(flash_model::Volts(boundary));
        prop_assert_eq!(t.len(), extra as usize + 1);
        prop_assert!(t.windows(2).all(|w| w[0] < w[1]), "sorted: {:?}", t);
        prop_assert!(t.iter().any(|&x| (x - boundary).abs() < 1e-12));
    }

    /// Schedules built from arbitrary monotone measurement sets stay
    /// monotone in required levels.
    #[test]
    fn schedule_from_measurements_monotone(
        points in prop::collection::vec((1e-4f64..5e-2, 0u32..7), 2..20),
        query in 0.0f64..0.1,
    ) {
        if let Some(schedule) = SensingSchedule::from_measurements(&points) {
            let a = schedule.required_levels(query);
            let b = schedule.required_levels(query * 1.5 + 1e-5);
            prop_assert!(b >= a);
            prop_assert!(a <= schedule.max_extra_levels());
        }
    }
}
