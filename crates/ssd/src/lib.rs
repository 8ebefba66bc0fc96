//! Trace-driven SSD simulator for the FlexLevel evaluation.
//!
//! A FlashSim-equivalent substrate (the paper modified FlashSim \[20\] for
//! its §6.2 experiments): page-mapping FTL with greedy garbage
//! collection, a write-back buffer, per-block wear, per-page retention
//! ages, and LDPC-aware read latency. Four storage schemes are modelled
//! (`Scheme`): the unoptimised baseline, LDPC-in-SSD's progressive
//! sensing, LevelAdjust applied indiscriminately, and the full
//! LevelAdjust + AccessEval FlexLevel system.
//!
//! # Example
//!
//! ```
//! use rand::{rngs::StdRng, SeedableRng};
//! use ssd::{Scheme, SsdConfig, SsdSimulator};
//! use workloads::WorkloadSpec;
//!
//! let trace = WorkloadSpec::fin2()
//!     .with_requests(2_000)
//!     .with_footprint(1_000)
//!     .generate(&mut StdRng::seed_from_u64(1));
//!
//! let mut sim = SsdSimulator::new(SsdConfig::scaled(Scheme::FlexLevel, 64));
//! let stats = sim.run(&trace).expect("trace fits the device");
//! println!("mean response: {}", stats.mean_response());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod buffer;
pub mod config;
pub mod device;
pub mod events;
pub mod faults;
pub mod ftl;
pub mod lifetime;
pub mod obs;
pub mod pipeline;
pub mod recovery;
pub mod scenario;
mod scheduler;
pub mod serve;
pub mod sim;
pub mod stats;

pub use buffer::WriteBuffer;
pub use config::{Scheme, SsdConfig, TimingModel};
pub use device::{ReliabilityState, ResourcePool};
pub use events::{Event, EventQueue};
pub use faults::{CrashPlan, FaultConfig, FaultState};
pub use ftl::{
    BlockImage, FtlError, FtlImage, GcPolicy, JournalRecord, OpCost, PageMapFtl, RecoveryReport,
    TornPage,
};
pub use lifetime::LifetimeModel;
pub use obs::SimObserver;
pub use pipeline::{FlashOp, Stage, StageKind};
pub use recovery::{
    config_fingerprint, trace_fingerprint, DeviceImage, ImageError, RecoveryOutcome, RetryRung,
};
pub use scenario::{
    ClusterFaultConfig, EnvironmentConfig, EnvironmentState, ReadDisturbConfig, ScenarioSpec,
    ThermalGradientConfig,
};
pub use serve::{OverloadPolicy, ServeError, ServeOptions, TenantQos};
pub use sim::{CrashCut, SimError, SsdSimulator};
pub use stats::{SimStats, StageAccount, TenantStats};
