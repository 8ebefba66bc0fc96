//! LDPC coding for NAND flash: the error-correction substrate of the
//! FlexLevel reproduction (Guo et al., DAC 2015).
//!
//! The paper protects each 4 KB data block with a rate-8/9 soft-decision
//! LDPC code whose read cost grows with the number of extra *soft sensing
//! levels* the decoder needs. This crate implements the whole stack:
//!
//! * [`QcLdpcCode`] — quasi-cyclic code construction (`Z = 1024`, 4 × 36
//!   base matrix ⇒ n = 36 864, k = 32 768, rate exactly 8/9), 4-cycle free;
//! * [`encode`] — single-pass systematic encoding via the staircase parity
//!   structure;
//! * [`MinSumDecoder`] — normalized min-sum flooding decoder with early
//!   termination;
//! * [`QuantizedMinSumDecoder`] — the same decoder in 6-bit fixed point
//!   with a structure-of-arrays
//!   [`decode_batch`](quantized::QuantizedMinSumDecoder::decode_batch)
//!   path and a zero-allocation [`DecoderWorkspace`] — the Monte-Carlo
//!   hot path (see [`measure_fer`]);
//! * [`MlcReadChannel`] — the lower-page MLC read channel: soft sensing
//!   thresholds, Monte-Carlo-calibrated region LLRs, built directly on the
//!   `reliability` crate's noise models;
//! * [`SensingSchedule`] / [`minimum_levels`] — how many extra sensing
//!   levels a given raw BER demands (Table 5), both measured with the real
//!   decoder and as a fast lookup for the SSD simulator;
//! * [`ReadLatencyModel`] — sensing + transfer + decode latency (the ≈7×
//!   read inflation at BER 1e-2 that motivates FlexLevel).
//!
//! # Example: encode, corrupt, decode
//!
//! ```
//! use ldpc::{encode, DecoderGraph, MinSumDecoder, QcLdpcCode};
//!
//! # fn main() -> Result<(), ldpc::EncodeError> {
//! let code = QcLdpcCode::small_test_code();
//! let info = vec![1u8; code.info_bits()];
//! let codeword = encode(&code, &info)?;
//!
//! // Hard-decision LLRs with one corrupted bit.
//! let mut llrs: Vec<f32> = codeword.iter().map(|&b| if b == 0 { 5.0 } else { -5.0 }).collect();
//! llrs[7] = -llrs[7];
//!
//! let graph = DecoderGraph::new(&code);
//! let out = MinSumDecoder::new().decode(&graph, &llrs);
//! assert!(out.success);
//! assert_eq!(out.info_bits(&code), &info[..]);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bitplane;
pub mod channel;
pub mod code;
pub mod decoder;
pub mod encoder;
pub mod farm;
pub mod latency;
pub mod layered;
pub mod quantized;
pub mod sensing;

pub use channel::{ChannelStress, MlcReadChannel, PageKind, SoftSensingConfig};
pub use code::{CodeError, QcLdpcCode};
pub use decoder::{DecodeOutcome, DecoderGraph, MinSumDecoder};
pub use encoder::{encode, random_info, EncodeError};
pub use farm::{measure_iteration_profile, DecodeFarm, DecodeRequest, DecodeVerdict, FarmConfig};
pub use latency::{IterationProfile, ReadLatencyModel, ReadStageCosts};
pub use quantized::{
    BatchOutcome, DecodeKernel, DecoderWorkspace, LlrQuantizer, QuantizedMinSumDecoder, Schedule,
    Q_MAX,
};
pub use sensing::{
    decode_success_rate, measure_fer, measure_fer_farm, measure_fer_until, minimum_levels,
    FerMeasurement, FerStats, SensingSchedule, FER_BATCH,
};
