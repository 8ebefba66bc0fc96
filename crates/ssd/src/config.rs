//! SSD simulator configuration.
//!
//! Mirrors the evaluation setup of the paper's §6.2: a page-mapping FTL
//! over the Table 6 device with 27 % over-provisioning, a write-back
//! buffer, and one of four storage schemes (baseline, LDPC-in-SSD,
//! LevelAdjust-only, LevelAdjust+AccessEval).

use flash_model::{CellTech, DeviceGeometry, Hours};
use flexlevel::{AccessEvalConfig, NunmaScheme};
use ldpc::{IterationProfile, ReadLatencyModel, SensingSchedule};
use serde::{Deserialize, Serialize};

use crate::faults::FaultConfig;
use crate::ftl::GcPolicy;
use crate::scenario::EnvironmentConfig;

/// Which storage system design the simulator runs (the four systems of
/// Figure 6a).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Scheme {
    /// No optimisation: every read senses with the worst-case soft level
    /// count the current wear state could require.
    Baseline,
    /// LDPC-in-SSD (Zhao et al., FAST'13): progressive sensing — retry
    /// with one more soft level until the frame decodes.
    LdpcInSsd,
    /// LevelAdjust applied to as much of the device as over-provisioning
    /// allows, with no selectivity.
    LevelAdjustOnly,
    /// The full FlexLevel system: LevelAdjust + NUNMA applied only to the
    /// AccessEval-selected HLO data.
    FlexLevel,
}

impl Scheme {
    /// All four evaluated systems in the paper's order.
    pub const ALL: [Scheme; 4] = [
        Scheme::Baseline,
        Scheme::LdpcInSsd,
        Scheme::LevelAdjustOnly,
        Scheme::FlexLevel,
    ];

    /// Paper label.
    pub fn label(self) -> &'static str {
        match self {
            Scheme::Baseline => "baseline",
            Scheme::LdpcInSsd => "LDPC-in-SSD",
            Scheme::LevelAdjustOnly => "LevelAdjust-only",
            Scheme::FlexLevel => "LevelAdjust+AccessEval",
        }
    }

    /// `true` if the scheme stores any data in reduced-state pages.
    pub fn uses_reduced_pages(self) -> bool {
        matches!(self, Scheme::LevelAdjustOnly | Scheme::FlexLevel)
    }
}

/// How the simulator turns flash work into time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum TimingModel {
    /// The original FlashSim-style model: one busy horizon per channel; a
    /// request waits for its channel, pays its lumped latency, and
    /// background work extends the horizon behind it. The default, and
    /// the reference the golden counters are pinned against.
    #[default]
    SingleQueue,
    /// Discrete-event pipelined model: every operation is a chain of
    /// sense/transfer/decode/program/erase stages scheduled on per-plane,
    /// per-channel and per-decoder-slot busy horizons, so stages of
    /// different requests overlap (see [`crate::pipeline`]).
    Pipelined,
}

impl TimingModel {
    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            TimingModel::SingleQueue => "single-queue",
            TimingModel::Pipelined => "pipelined",
        }
    }
}

/// Full simulator configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SsdConfig {
    /// Device geometry (blocks, pages, over-provisioning).
    pub geometry: DeviceGeometry,
    /// Read/decode latency model (Table 6 timing).
    pub latency: ReadLatencyModel,
    /// Raw-BER → extra-sensing-levels schedule.
    pub schedule: SensingSchedule,
    /// Measured per-sensing-depth decoder iteration counts (e.g. from
    /// [`ldpc::measure_iteration_profile`], which `flexlevel-sim
    /// --measured-iterations` runs).
    /// When set, per-read decode latency charges the measured mean
    /// iterations at the read's sensing depth instead of the
    /// `typical_iterations` BER heuristic. `None` (the default) keeps the
    /// heuristic.
    pub measured_iterations: Option<IterationProfile>,
    /// Storage scheme under test.
    pub scheme: Scheme,
    /// Cell technology the device runs (SLC/MLC/TLC). The default
    /// [`CellTech::Mlc`] reproduces the paper's design point exactly;
    /// other technologies re-derive the level configurations and code
    /// densities from the N-level `flash-model` generalization.
    pub cell: CellTech,
    /// NUNMA configuration used by reduced-state pages.
    pub nunma: NunmaScheme,
    /// AccessEval policy (used by [`Scheme::FlexLevel`]).
    pub access_eval: AccessEvalConfig,
    /// Write-back buffer capacity in pages.
    pub buffer_pages: u64,
    /// Independent flash channels; requests are routed by LPN and queue
    /// per channel (1 = the paper's single-queue FlashSim model).
    pub channels: u32,
    /// Timing model: the classic single-queue horizon or the staged
    /// discrete-event pipeline.
    pub timing_model: TimingModel,
    /// NAND dies per channel (pipelined model only; sensing, programming
    /// and erasing parallelize across dies).
    pub dies_per_channel: u32,
    /// Planes per die (pipelined model only).
    pub planes_per_die: u32,
    /// Concurrent LDPC decoder slots in the controller (pipelined model
    /// only).
    pub decoder_slots: u32,
    /// GC trigger: collect when free blocks fall to this count.
    pub gc_low_watermark: u32,
    /// GC victim-selection policy.
    pub gc_policy: GcPolicy,
    /// Accumulated P/E cycles at simulation start (the paper sweeps
    /// 4000–6000).
    pub base_pe_cycles: u32,
    /// Maximum retention age of resident data; ages are drawn uniformly
    /// from `[0, max_data_age]` at first touch (steady-state assumption).
    pub max_data_age: Hours,
    /// Minimum effective over-provisioning fraction LevelAdjust-only must
    /// preserve when converting blocks to reduced mode.
    pub min_over_provisioning: f64,
    /// RNG seed for data ages.
    pub seed: u64,
    /// Fault-injection model (decode failures, program failures, die
    /// faults, patrol scrub). Disabled by default — golden counters and
    /// published numbers never see it.
    pub faults: FaultConfig,
    /// Hostile-environment scenario components (correlated clusters,
    /// thermal gradient, read disturb). Empty by default — an empty
    /// environment adds no state and leaves every golden counter
    /// untouched.
    pub environment: EnvironmentConfig,
    /// Worker threads for *independent* sweeps built on this config
    /// (trace × scheme fan-out, BER shards); `0` = auto, honouring the
    /// `FLEXLEVEL_THREADS` environment variable. The event loop of a
    /// single simulation instance is inherently serial and unaffected, as
    /// are its results: the engine's determinism contract guarantees
    /// thread count never changes any output.
    pub threads: u32,
}

impl SsdConfig {
    /// A scaled-down device (default 512 blocks ≈ 512 MB) with the
    /// paper's policy parameters, suitable for fast simulation. The
    /// AccessEval pool is scaled like the paper's: 64 GB of a 256 GB
    /// device = 25 % of the logical space.
    pub fn scaled(scheme: Scheme, blocks: u32) -> SsdConfig {
        let geometry = DeviceGeometry::scaled(blocks).expect("valid scaled geometry");
        let pool_pages = geometry.logical_pages() / 4 * 100 / 73; // 64/256 of raw ≈ logical/4·(100/73)
        SsdConfig {
            geometry,
            latency: ReadLatencyModel::paper_mlc(),
            schedule: crate::device::derived_schedule(),
            measured_iterations: None,
            scheme,
            cell: CellTech::Mlc,
            nunma: NunmaScheme::Nunma3,
            access_eval: AccessEvalConfig::paper(geometry.page_bytes() as u64)
                .with_pool_pages(pool_pages),
            buffer_pages: (geometry.logical_pages() / 128).max(16),
            channels: 1,
            timing_model: TimingModel::SingleQueue,
            dies_per_channel: 4,
            planes_per_die: 1,
            decoder_slots: 2,
            gc_low_watermark: 4,
            gc_policy: GcPolicy::Greedy,
            base_pe_cycles: 6000,
            max_data_age: Hours::months(1.0),
            min_over_provisioning: 0.04,
            seed: 42,
            faults: FaultConfig::default(),
            environment: EnvironmentConfig::default(),
            threads: 0,
        }
    }

    /// Installs a fault-injection configuration (use
    /// [`FaultConfig::enabled`] to switch injection on).
    #[must_use]
    pub fn with_faults(mut self, faults: FaultConfig) -> SsdConfig {
        self.faults = faults;
        self
    }

    /// Selects the cell technology (SLC/MLC/TLC).
    #[must_use]
    pub fn with_cell(mut self, cell: CellTech) -> SsdConfig {
        self.cell = cell;
        self
    }

    /// Installs hostile-environment scenario components.
    #[must_use]
    pub fn with_environment(mut self, environment: EnvironmentConfig) -> SsdConfig {
        self.environment = environment;
        self
    }

    /// Sets the starting wear level (Figure 6b sweeps this).
    #[must_use]
    pub fn with_base_pe(mut self, pe: u32) -> SsdConfig {
        self.base_pe_cycles = pe;
        self
    }

    /// Sets the data-age ceiling.
    #[must_use]
    pub fn with_max_age(mut self, age: Hours) -> SsdConfig {
        self.max_data_age = age;
        self
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> SsdConfig {
        self.seed = seed;
        self
    }

    /// Sets the channel count (parallel flash queues).
    #[must_use]
    pub fn with_channels(mut self, channels: u32) -> SsdConfig {
        self.channels = channels.max(1);
        self
    }

    /// Sets the worker-thread count for sweeps over this config
    /// (`0` = auto).
    #[must_use]
    pub fn with_threads(mut self, threads: u32) -> SsdConfig {
        self.threads = threads;
        self
    }

    /// Selects the timing model.
    #[must_use]
    pub fn with_timing_model(mut self, model: TimingModel) -> SsdConfig {
        self.timing_model = model;
        self
    }

    /// Sets dies per channel (pipelined model).
    #[must_use]
    pub fn with_dies_per_channel(mut self, dies: u32) -> SsdConfig {
        self.dies_per_channel = dies.max(1);
        self
    }

    /// Sets planes per die (pipelined model).
    #[must_use]
    pub fn with_planes_per_die(mut self, planes: u32) -> SsdConfig {
        self.planes_per_die = planes.max(1);
        self
    }

    /// Sets the controller decoder-slot count (pipelined model).
    #[must_use]
    pub fn with_decoder_slots(mut self, slots: u32) -> SsdConfig {
        self.decoder_slots = slots.max(1);
        self
    }

    /// Installs a measured iteration profile; per-read decode latency then
    /// uses it instead of the BER heuristic.
    #[must_use]
    pub fn with_measured_iterations(mut self, profile: IterationProfile) -> SsdConfig {
        self.measured_iterations = Some(profile);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_labels() {
        assert_eq!(Scheme::ALL.len(), 4);
        assert_eq!(Scheme::Baseline.label(), "baseline");
        assert_eq!(Scheme::FlexLevel.label(), "LevelAdjust+AccessEval");
        assert!(!Scheme::Baseline.uses_reduced_pages());
        assert!(!Scheme::LdpcInSsd.uses_reduced_pages());
        assert!(Scheme::LevelAdjustOnly.uses_reduced_pages());
        assert!(Scheme::FlexLevel.uses_reduced_pages());
    }

    #[test]
    fn scaled_config_proportions() {
        let cfg = SsdConfig::scaled(Scheme::FlexLevel, 512);
        assert_eq!(cfg.geometry.blocks(), 512);
        // Pool ≈ 25% of raw capacity (the paper's 64 GB of 256 GB).
        let pool_fraction = cfg.access_eval.pool_pages as f64 / cfg.geometry.total_pages() as f64;
        assert!(
            (pool_fraction - 0.25).abs() < 0.01,
            "pool fraction {pool_fraction}"
        );
        assert!(cfg.buffer_pages >= 16);
    }

    #[test]
    fn builders() {
        let cfg = SsdConfig::scaled(Scheme::Baseline, 64)
            .with_base_pe(4000)
            .with_max_age(Hours::weeks(1.0))
            .with_seed(7)
            .with_threads(3);
        assert_eq!(cfg.base_pe_cycles, 4000);
        assert_eq!(cfg.max_data_age, Hours::weeks(1.0));
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.threads, 3);
        assert_eq!(SsdConfig::scaled(Scheme::Baseline, 64).threads, 0);
    }

    #[test]
    fn timing_model_defaults_to_single_queue() {
        let cfg = SsdConfig::scaled(Scheme::Baseline, 64);
        assert_eq!(cfg.timing_model, TimingModel::SingleQueue);
        assert_eq!(TimingModel::default(), TimingModel::SingleQueue);
        assert_eq!(TimingModel::Pipelined.label(), "pipelined");
        let cfg = cfg
            .with_timing_model(TimingModel::Pipelined)
            .with_dies_per_channel(8)
            .with_planes_per_die(2)
            .with_decoder_slots(4);
        assert_eq!(cfg.timing_model, TimingModel::Pipelined);
        assert_eq!(cfg.dies_per_channel, 8);
        assert_eq!(cfg.planes_per_die, 2);
        assert_eq!(cfg.decoder_slots, 4);
        // Degenerate knob values clamp to 1.
        let cfg = cfg
            .with_dies_per_channel(0)
            .with_planes_per_die(0)
            .with_decoder_slots(0);
        assert_eq!(
            (cfg.dies_per_channel, cfg.planes_per_die, cfg.decoder_slots),
            (1, 1, 1)
        );
    }

    #[test]
    fn faults_default_off() {
        let cfg = SsdConfig::scaled(Scheme::FlexLevel, 64);
        assert!(!cfg.faults.enabled);
        let cfg = cfg.with_faults(FaultConfig::enabled().with_scale(2.0));
        assert!(cfg.faults.enabled);
        assert_eq!(cfg.faults.scale, 2.0);
    }

    #[test]
    fn cell_and_environment_default_to_the_design_point() {
        let cfg = SsdConfig::scaled(Scheme::FlexLevel, 64);
        assert_eq!(cfg.cell, CellTech::Mlc);
        assert!(!cfg.environment.is_enabled());
        let cfg = cfg.with_cell(CellTech::Tlc).with_environment(
            EnvironmentConfig::default()
                .with_thermal(crate::scenario::ThermalGradientConfig::default()),
        );
        assert_eq!(cfg.cell, CellTech::Tlc);
        assert!(cfg.environment.is_enabled());
    }

    #[test]
    fn measured_iterations_defaults_off() {
        let cfg = SsdConfig::scaled(Scheme::FlexLevel, 64);
        assert_eq!(cfg.measured_iterations, None);
        let profile = IterationProfile::new([2.0; IterationProfile::SLOTS]);
        let cfg = cfg.with_measured_iterations(profile);
        assert_eq!(cfg.measured_iterations, Some(profile));
    }
}
