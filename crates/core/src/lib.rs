//! FlexLevel: selective threshold-voltage level reduction for LDPC latency
//! reduction in NAND flash.
//!
//! This crate is the primary contribution of the reproduction of Guo et
//! al., *FlexLevel: a Novel NAND Flash Storage System Design for LDPC
//! Latency Reduction* (DAC 2015). Soft-decision LDPC makes NAND reads up
//! to 7× slower when the raw bit error rate is high; FlexLevel removes the
//! need for soft sensing on exactly the data that would pay that cost:
//!
//! * [`nunma`] — the reduced-state (3-level) voltage schedules of Table 3.
//!   Dropping one `Vth` level widens every noise margin; NUNMA biases the
//!   margins toward retention loss, the dominant error source at high P/E.
//! * [`reduce_code`] — [`ReduceCode`]: 3 bits per 2-cell pair (Table 1),
//!   keeping 75 % of normal density with Gray-like single-bit error
//!   behaviour under level distortions.
//! * [`level_adjust`] — the two-step reduced-state program algorithm
//!   (Table 2) and the erase-gated mode switch between normal and reduced
//!   operation.
//! * [`accesseval`] — the FTL policy (§5): score LDPC overhead as
//!   `L_f × L_sensing`, keep only high-overhead data in the bounded,
//!   LRU-managed ReducedCell pool.
//! * [`page_state`] — dense LPN-indexed columns and the O(1) [`LruSet`]
//!   that hold AccessEval's and the simulator's per-page state.
//! * [`capacity`] — the capacity accounting behind the paper's headline
//!   "6 % capacity loss".
//!
//! # Example
//!
//! ```
//! use flexlevel::{FlexLevelConfig, NunmaScheme, ReduceCode};
//! use reliability::SymbolCodec;
//!
//! let config = FlexLevelConfig::paper();
//! assert_eq!(config.nunma, NunmaScheme::Nunma3);
//! // Reduced pages keep 75% density…
//! assert_eq!(ReduceCode.bits_per_symbol(), 3);
//! // …and the bounded pool keeps device-level loss near 6%.
//! assert!(config.capacity().loss_fraction() < 0.07);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod accesseval;
pub mod capacity;
pub mod level_adjust;
pub mod nunma;
pub mod nunma_search;
pub mod page_state;
pub mod reduce_code;
pub mod reduced_array;

pub use accesseval::{
    AccessEvalConfig, AccessEvalController, AccessEvalSnapshot, AccessEvalStats, HloIdentifier,
    Migration, Placement, ReducedCellPool, POOL_ENTRY_BYTES,
};
pub use capacity::{CapacityModel, REDUCED_MODE_LOSS};
pub use level_adjust::{
    ModeLockedError, ModeSwitch, PairProgramError, PairProgramState, ReducedCellPair,
};
pub use nunma::{NunmaConfig, NunmaScheme};
pub use nunma_search::{NunmaCandidate, SearchOptions};
pub use page_state::{LruSet, LruSnapshotError, PageColumn};
pub use reduce_code::{ReduceCode, REDUCE_CODE_BITS};
pub use reduced_array::{ReducedArrayError, ReducedWordline};

use serde::{Deserialize, Serialize};

/// Top-level FlexLevel deployment configuration (paper §6.2 defaults).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlexLevelConfig {
    /// Reduced-state voltage scheme (the paper deploys NUNMA 3).
    pub nunma: NunmaScheme,
    /// AccessEval policy parameters.
    pub access_eval: AccessEvalConfig,
    /// Raw device bytes.
    pub device_bytes: u64,
    /// Page size in bytes.
    pub page_bytes: u64,
}

impl FlexLevelConfig {
    /// The paper's evaluation configuration: 256 GB device, 16 KB pages,
    /// 64 GB ReducedCell pool, NUNMA 3, `L_f = L_sensing = 2`.
    pub fn paper() -> FlexLevelConfig {
        FlexLevelConfig {
            nunma: NunmaScheme::Nunma3,
            access_eval: AccessEvalConfig::paper(16 * 1024),
            device_bytes: 256 * (1 << 30),
            page_bytes: 16 * 1024,
        }
    }

    /// The capacity model implied by this configuration.
    pub fn capacity(&self) -> CapacityModel {
        CapacityModel::new(
            self.device_bytes,
            self.access_eval.pool_pages * self.page_bytes,
        )
    }
}

impl Default for FlexLevelConfig {
    fn default() -> FlexLevelConfig {
        FlexLevelConfig::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_consistency() {
        let cfg = FlexLevelConfig::paper();
        assert_eq!(cfg.nunma, NunmaScheme::Nunma3);
        let cap = cfg.capacity();
        assert_eq!(cap.pool_bytes, 64 * (1 << 30));
        assert!((cap.loss_fraction() - 0.0625).abs() < 1e-12);
    }

    #[test]
    fn default_is_paper() {
        assert_eq!(FlexLevelConfig::default(), FlexLevelConfig::paper());
    }
}
