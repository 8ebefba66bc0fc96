//! NAND operation timing (paper Table 6 plus bus/codec constants).
//!
//! Table 6 specifies program 1000 µs, read (one sensing pass) 90 µs and
//! erase 3 ms for the modelled 2Xnm MLC part. Soft-decision LDPC reads add
//! one extra sensing pass *and* one extra page transfer per soft sensing
//! level; the transfer and decoder constants here are chosen so that six
//! extra levels inflate a read by ≈7×, the figure the paper cites for
//! BER ≈ 1e-2.

use serde::{Deserialize, Serialize};

use crate::units::Micros;

/// Timing parameters of one NAND device.
///
/// ```
/// use flash_model::NandTiming;
///
/// let t = NandTiming::paper_mlc();
/// assert_eq!(t.read_sense, flash_model::Micros(90.0));
/// // a hard-decision read: one sense + one transfer
/// let hard = t.read_sense + t.page_transfer;
/// assert!(hard.as_f64() > 90.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NandTiming {
    /// Full page program latency (ISPP loop), Table 6: 1000 µs.
    pub program: Micros,
    /// One sensing pass of a page read, Table 6: 90 µs.
    pub read_sense: Micros,
    /// Block erase latency, Table 6: 3 ms.
    pub erase: Micros,
    /// Transferring one page (plus ECC parity) over the chip bus.
    /// 16 KB at ≈400 MB/s ⇒ 40 µs.
    pub page_transfer: Micros,
    /// ReduceCode encode/decode adds one controller clock cycle
    /// (5 ns at 200 MHz — paper §4.3); negligible but modelled.
    pub reduce_code_cycle: Micros,
}

impl NandTiming {
    /// The Table 6 configuration.
    pub fn paper_mlc() -> NandTiming {
        NandTiming {
            program: Micros(1000.0),
            read_sense: Micros(90.0),
            erase: Micros::from_millis(3.0),
            page_transfer: Micros(40.0),
            reduce_code_cycle: Micros(0.005),
        }
    }

    /// Sensing-only latency of a read needing `extra_sensing_levels` soft
    /// sensing levels: one array-sensing pass per level (nominal + extra),
    /// each at a shifted reference voltage. This is the portion of a read
    /// that occupies the *die*; the matching bus time is
    /// [`transfer_latency`](Self::transfer_latency).
    pub fn sense_latency(&self, extra_sensing_levels: u32) -> Micros {
        self.read_sense * (1.0 + extra_sensing_levels as f64)
    }

    /// Bus-transfer-only latency of a read needing `extra_sensing_levels`
    /// soft sensing levels: every sensing pass ships one full page image
    /// to the controller, so transfer time scales with the pass count.
    /// This is the portion of a read that occupies the *channel*.
    pub fn transfer_latency(&self, extra_sensing_levels: u32) -> Micros {
        self.page_transfer * (1.0 + extra_sensing_levels as f64)
    }

    /// Latency of a read that needs `extra_sensing_levels` soft sensing
    /// levels, excluding decode time.
    ///
    /// Every extra level is an additional sensing pass at a shifted
    /// reference voltage and an additional transfer of the sensed page
    /// image to the controller (paper §2.2: "extra memory sensing overhead
    /// together with extra data transfer time"). Equals
    /// [`sense_latency`](Self::sense_latency) +
    /// [`transfer_latency`](Self::transfer_latency).
    pub fn read_transfer_latency(&self, extra_sensing_levels: u32) -> Micros {
        let passes = 1.0 + extra_sensing_levels as f64;
        self.read_sense * passes + self.page_transfer * passes
    }
}

impl Default for NandTiming {
    fn default() -> NandTiming {
        NandTiming::paper_mlc()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table6_constants() {
        let t = NandTiming::paper_mlc();
        assert_eq!(t.program, Micros(1000.0));
        assert_eq!(t.read_sense, Micros(90.0));
        assert_eq!(t.erase, Micros(3000.0));
    }

    #[test]
    fn extra_levels_scale_latency() {
        let t = NandTiming::paper_mlc();
        let hard = t.read_transfer_latency(0);
        assert_eq!(hard, Micros(130.0));
        let soft6 = t.read_transfer_latency(6);
        // Six extra levels ⇒ 7 passes ⇒ 7× the sensing+transfer time,
        // matching the paper's "7× higher read latency" at BER 1e-2.
        assert_eq!(soft6, Micros(7.0 * 130.0));
    }

    #[test]
    fn stage_split_sums_to_lumped_latency() {
        let t = NandTiming::paper_mlc();
        for levels in 0..=6 {
            assert_eq!(
                t.sense_latency(levels) + t.transfer_latency(levels),
                t.read_transfer_latency(levels),
                "sense + transfer must equal the lumped cost at {levels} levels"
            );
        }
        assert_eq!(t.sense_latency(0), Micros(90.0));
        assert_eq!(t.transfer_latency(0), Micros(40.0));
        assert_eq!(t.sense_latency(6), Micros(630.0));
    }

    #[test]
    fn reduce_code_overhead_is_negligible() {
        let t = NandTiming::paper_mlc();
        let plain = t.read_transfer_latency(0);
        let overhead = t.reduce_code_cycle.as_f64();
        assert!(overhead > 0.0);
        assert!(
            overhead / plain.as_f64() < 1e-4,
            "ReduceCode must cost well under 0.01% of a read"
        );
    }
}
