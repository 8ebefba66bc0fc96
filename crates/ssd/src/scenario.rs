//! Composable hostile-environment scenarios and the named preset registry.
//!
//! The paper evaluates FlexLevel at one design point: MLC cells under a
//! spatially uniform i.i.d. raw-BER field. Real deployments are messier —
//! radiation events corrupt whole regions of a plane at once, a thermal
//! gradient across the package tilts BER by channel, and hot logical
//! pages accumulate read disturb between rewrites. This module prices
//! those environments without touching the golden path:
//!
//! * [`ClusterFaultConfig`] — spatially correlated error clusters
//!   (SEU/radiation style). Each cluster occupies a contiguous row window
//!   of *one* plane; membership is a pure function of the LPN's plane
//!   routing (the same channel-major mapping as
//!   [`crate::device::ResourcePool::plane_for`]) and the scenario seed,
//!   so it defeats the uniform-BER assumption while staying bit-identical
//!   across thread counts and timing backends.
//! * [`ThermalGradientConfig`] — a linear BER multiplier across channels:
//!   channel 0 is coolest (×1), the last channel hottest.
//! * [`ReadDisturbConfig`] — an additive BER term growing with the reads
//!   a page has absorbed since it was last programmed or refreshed; the
//!   patrol scrubber observes the disturbed BER and its refresh resets
//!   the counter, which is what makes the scrub interaction testable.
//!
//! All placement draws come from the same SplitMix64 keying as
//! [`crate::faults`], derived only from the scenario seed — never from
//! access order — so every component is deterministic by construction.
//! A default (empty) [`EnvironmentConfig`] adds no state and no draws:
//! golden counters never move.
//!
//! [`ScenarioSpec`] names ready-made combinations (`baseline`,
//! `seu-burst`, `thermal-tilt`, …) runnable via
//! `flexlevel-sim --scenario <name>` and pinned cell-by-cell in
//! `tests/scenario_matrix.rs`.

use flash_model::CellTech;
use flexlevel::PageColumn;
use serde::{Deserialize, Serialize};

use crate::config::SsdConfig;
use crate::faults::FaultConfig;
use obs::splitmix64;

/// Spatially correlated error clusters (SEU/radiation style).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterFaultConfig {
    /// Seed of the cluster-placement draws (independent of the fault and
    /// data-age seeds).
    pub seed: u64,
    /// Number of cluster events struck into the device.
    pub events: u32,
    /// Rows of a plane one cluster spans (a row is one page per plane in
    /// the channel-major interleaving).
    pub span_rows: u64,
    /// Multiplier on the raw BER of pages inside a cluster.
    pub ber_factor: f64,
    /// Multiplier on the frame-error rate of reads inside a cluster
    /// (applies only when fault injection is enabled).
    pub fer_factor: f64,
}

impl Default for ClusterFaultConfig {
    fn default() -> ClusterFaultConfig {
        ClusterFaultConfig {
            seed: 0x5EB_0057,
            events: 4,
            span_rows: 64,
            ber_factor: 4.0,
            fer_factor: 25.0,
        }
    }
}

/// Temperature-gradient BER modulation across channels.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThermalGradientConfig {
    /// BER multiplier at the hottest (last) channel; the gradient
    /// interpolates linearly down to ×1.0 at channel 0. With a single
    /// channel the whole device runs at the hottest factor.
    pub hottest_factor: f64,
}

impl Default for ThermalGradientConfig {
    fn default() -> ThermalGradientConfig {
        ThermalGradientConfig {
            hottest_factor: 3.0,
        }
    }
}

/// Read-disturb accumulation on logical pages.
///
/// The per-read increment is deliberately accelerated relative to real
/// parts (like [`FaultConfig::scale`]) so short regression traces make
/// the effect visible.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReadDisturbConfig {
    /// Additive raw-BER increment per flash read since the page was last
    /// programmed or refreshed.
    pub ber_per_read: f64,
    /// Cap on the accumulated additive term.
    pub cap: f64,
}

impl Default for ReadDisturbConfig {
    fn default() -> ReadDisturbConfig {
        ReadDisturbConfig {
            ber_per_read: 1e-3,
            cap: 3e-2,
        }
    }
}

/// Composable scenario components; all default **off** (an empty
/// environment injects nothing and keeps every golden counter).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct EnvironmentConfig {
    /// Spatially correlated error clusters.
    pub clusters: Option<ClusterFaultConfig>,
    /// Temperature gradient across channels.
    pub thermal: Option<ThermalGradientConfig>,
    /// Read-disturb accumulation.
    pub read_disturb: Option<ReadDisturbConfig>,
}

impl EnvironmentConfig {
    /// `true` when any component is active.
    pub fn is_enabled(&self) -> bool {
        self.clusters.is_some() || self.thermal.is_some() || self.read_disturb.is_some()
    }

    /// Adds a cluster-fault component.
    #[must_use]
    pub fn with_clusters(mut self, clusters: ClusterFaultConfig) -> EnvironmentConfig {
        self.clusters = Some(clusters);
        self
    }

    /// Adds a thermal-gradient component.
    #[must_use]
    pub fn with_thermal(mut self, thermal: ThermalGradientConfig) -> EnvironmentConfig {
        self.thermal = Some(thermal);
        self
    }

    /// Adds a read-disturb component.
    #[must_use]
    pub fn with_read_disturb(mut self, disturb: ReadDisturbConfig) -> EnvironmentConfig {
        self.read_disturb = Some(disturb);
        self
    }
}

/// One placed cluster: a contiguous row window of a single plane.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cluster {
    /// The plane the event struck (channel-major index).
    pub plane: u64,
    /// First affected row within the plane.
    pub row_start: u64,
    /// Rows affected.
    pub span_rows: u64,
}

impl Cluster {
    /// `true` if the (plane, row) coordinate lies inside this cluster.
    #[inline]
    pub fn contains(&self, plane: u64, row: u64) -> bool {
        self.plane == plane && row >= self.row_start && row < self.row_start + self.span_rows
    }
}

/// A keyed placement draw: pure function of `(seed, event, salt)`, so
/// cluster geometry never depends on access order, threads or timing.
fn placement_draw(seed: u64, event: u64, salt: u64) -> u64 {
    let mut state =
        seed ^ event.wrapping_mul(0x9FB2_1C65_1E98_DF25) ^ salt.wrapping_mul(0xA24B_AED4_963E_E407);
    let _ = splitmix64(&mut state);
    splitmix64(&mut state)
}

/// Runtime state of the scenario environment: precomputed cluster
/// geometry plus per-LPN read-disturb counters. Built only when the
/// configuration enables at least one component.
#[derive(Debug)]
pub struct EnvironmentState {
    config: EnvironmentConfig,
    channels: u64,
    plane_stride: u64,
    clusters: Vec<Cluster>,
    /// Flash reads absorbed per LPN since its last program/refresh
    /// (driven by logical access order only — thread/timing invariant).
    /// Zero for a page never read since its last program; grown only by
    /// [`record_read`](Self::record_read), so it stays unallocated unless
    /// read disturb is on.
    disturb: PageColumn<u64>,
}

impl EnvironmentState {
    /// Builds the environment for `config`, or `None` when every
    /// component is off (the golden path allocates nothing).
    pub fn new(config: &SsdConfig) -> Option<EnvironmentState> {
        if !config.environment.is_enabled() {
            return None;
        }
        let channels = config.channels.max(1) as u64;
        let dies = config.dies_per_channel.max(1) as u64;
        let planes = config.planes_per_die.max(1) as u64;
        let plane_count = channels * dies * planes;
        let plane_stride = plane_count;
        let rows = config.geometry.logical_pages().div_ceil(plane_count).max(1);
        let clusters = match &config.environment.clusters {
            Some(c) => (0..c.events as u64)
                .map(|event| {
                    let span = c.span_rows.clamp(1, rows);
                    let start_ceiling = rows - span + 1;
                    Cluster {
                        plane: placement_draw(c.seed, event, 0x11) % plane_count,
                        row_start: placement_draw(c.seed, event, 0x22) % start_ceiling,
                        span_rows: span,
                    }
                })
                .collect(),
            None => Vec::new(),
        };
        Some(EnvironmentState {
            config: config.environment.clone(),
            channels,
            plane_stride,
            clusters,
            disturb: PageColumn::new(0),
        })
    }

    /// The placed clusters (diagnostics and tests).
    pub fn clusters(&self) -> &[Cluster] {
        &self.clusters
    }

    /// The plane `lpn` routes to — the same channel-major mapping as
    /// [`crate::device::ResourcePool::plane_for`], a pure function of the
    /// LPN and the geometry knobs.
    #[inline]
    pub fn plane_of(&self, lpn: u64) -> u64 {
        lpn % self.plane_stride
    }

    /// The row of `lpn` within its plane.
    #[inline]
    pub fn row_of(&self, lpn: u64) -> u64 {
        lpn / self.plane_stride
    }

    /// `true` when `lpn` lies inside any placed cluster.
    pub fn in_cluster(&self, lpn: u64) -> bool {
        let (plane, row) = (self.plane_of(lpn), self.row_of(lpn));
        self.clusters.iter().any(|c| c.contains(plane, row))
    }

    /// Environment-adjusted raw BER of a read of `lpn`: the thermal
    /// multiplier for its channel, the cluster multiplier if it sits in a
    /// struck region, and the accumulated read-disturb term.
    pub fn adjust_ber(&self, lpn: u64, ber: f64) -> f64 {
        let mut ber = ber;
        if let Some(t) = &self.config.thermal {
            let frac = if self.channels > 1 {
                (lpn % self.channels) as f64 / (self.channels - 1) as f64
            } else {
                1.0
            };
            ber *= 1.0 + (t.hottest_factor - 1.0) * frac;
        }
        if let Some(c) = &self.config.clusters {
            if self.in_cluster(lpn) {
                ber *= c.ber_factor;
            }
        }
        if let Some(d) = &self.config.read_disturb {
            let reads = self.disturb.get(lpn);
            ber += (d.ber_per_read * reads as f64).min(d.cap);
        }
        ber.clamp(0.0, 0.5)
    }

    /// Frame-error-rate multiplier of a read of `lpn` (clusters only).
    pub fn fer_factor(&self, lpn: u64) -> f64 {
        match &self.config.clusters {
            Some(c) if self.in_cluster(lpn) => c.fer_factor.max(0.0),
            _ => 1.0,
        }
    }

    /// Records one flash read of `lpn` (read-disturb accumulation).
    pub fn record_read(&mut self, lpn: u64) {
        if self.config.read_disturb.is_some() {
            *self.disturb.get_mut(lpn) += 1;
        }
    }

    /// Records a program or refresh of `lpn`: the rewritten cells start
    /// clean, so the disturb counter resets.
    pub fn record_program(&mut self, lpn: u64) {
        if self.config.read_disturb.is_some() {
            self.disturb.remove(lpn);
        }
    }

    /// Clears accumulated per-page state (measured-run reset, mirroring
    /// [`crate::faults::FaultState::reset`]).
    pub fn reset(&mut self) {
        self.disturb.clear();
    }

    /// Checkpoint view of the read-disturb accumulators as `(lpn, reads)`
    /// pairs sorted by LPN. The cluster map and thermal tilt are pure
    /// functions of the configuration and need no checkpointing.
    pub fn disturb_snapshot(&self) -> Vec<(u64, u64)> {
        self.disturb.entries().collect()
    }

    /// Restores the read-disturb accumulators captured by
    /// [`disturb_snapshot`](Self::disturb_snapshot). The column grows to
    /// the largest LPN listed and a zero count is no entry at all, so
    /// callers holding untrusted counters bound their LPNs and reject
    /// zero counts first.
    pub fn restore_disturb(&mut self, disturb: &[(u64, u64)]) {
        self.disturb.clear();
        for &(lpn, reads) in disturb {
            self.disturb.set(lpn, reads);
        }
    }
}

/// A named, self-contained scenario: cell technology, fault model and
/// environment components, applied on top of any base configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Registry name (`--scenario <name>`).
    pub name: &'static str,
    /// One-line description (`--list-scenarios`).
    pub summary: &'static str,
    /// Cell technology the device runs.
    pub cell: CellTech,
    /// Channel-count override (thermal scenarios need a gradient to tilt).
    pub channels: Option<u32>,
    /// Starting-wear override.
    pub base_pe: Option<u32>,
    /// Fault-injection override (`None` keeps the base config's model).
    pub faults: Option<FaultConfig>,
    /// Environment components.
    pub environment: EnvironmentConfig,
}

impl ScenarioSpec {
    /// A spec that changes nothing: the paper's MLC design point.
    fn baseline() -> ScenarioSpec {
        ScenarioSpec {
            name: "baseline",
            summary: "the paper's MLC design point; leaves every golden counter untouched",
            cell: CellTech::Mlc,
            channels: None,
            base_pe: None,
            faults: None,
            environment: EnvironmentConfig::default(),
        }
    }

    /// Every named scenario, `baseline` first.
    pub fn registry() -> Vec<ScenarioSpec> {
        let stress = |scale: f64| FaultConfig {
            escalate_fer_factor: 0.7,
            final_fer_factor: 0.5,
            ..FaultConfig::enabled().with_scale(scale)
        };
        vec![
            ScenarioSpec::baseline(),
            ScenarioSpec {
                name: "seu-burst",
                summary: "radiation clusters: correlated error bursts co-located within planes",
                faults: Some(stress(4.0)),
                environment: EnvironmentConfig::default()
                    .with_clusters(ClusterFaultConfig::default()),
                ..ScenarioSpec::baseline()
            },
            ScenarioSpec {
                name: "thermal-tilt",
                summary: "linear temperature gradient across 4 channels (hottest 3x BER)",
                channels: Some(4),
                faults: Some(stress(4.0)),
                environment: EnvironmentConfig::default()
                    .with_thermal(ThermalGradientConfig::default()),
                ..ScenarioSpec::baseline()
            },
            ScenarioSpec {
                name: "read-disturb-hot",
                summary: "accelerated read disturb on hot LPNs, patrol scrub racing it",
                faults: Some(stress(4.0)),
                environment: EnvironmentConfig::default()
                    .with_read_disturb(ReadDisturbConfig::default()),
                ..ScenarioSpec::baseline()
            },
            ScenarioSpec {
                name: "tlc",
                summary: "mid-life TLC: 8 levels in the MLC window, fault-free",
                cell: CellTech::Tlc,
                base_pe: Some(3000),
                ..ScenarioSpec::baseline()
            },
            ScenarioSpec {
                name: "aged-tlc",
                summary: "worn TLC under fault injection with patrol scrub",
                cell: CellTech::Tlc,
                base_pe: Some(4500),
                faults: Some(stress(1.0)),
                ..ScenarioSpec::baseline()
            },
            ScenarioSpec {
                name: "hostile",
                summary: "everything at once: clusters + thermal tilt + read disturb",
                channels: Some(4),
                faults: Some(stress(2.0)),
                environment: EnvironmentConfig::default()
                    .with_clusters(ClusterFaultConfig::default())
                    .with_thermal(ThermalGradientConfig::default())
                    .with_read_disturb(ReadDisturbConfig::default()),
                ..ScenarioSpec::baseline()
            },
        ]
    }

    /// Registry names in registry order.
    pub fn names() -> Vec<&'static str> {
        ScenarioSpec::registry().iter().map(|s| s.name).collect()
    }

    /// Looks a scenario up by name.
    pub fn find(name: &str) -> Option<ScenarioSpec> {
        ScenarioSpec::registry()
            .into_iter()
            .find(|s| s.name == name)
    }

    /// Applies the scenario on top of `config`. `baseline` is the
    /// identity; other presets override only what they name.
    #[must_use]
    pub fn apply(&self, mut config: SsdConfig) -> SsdConfig {
        config.cell = self.cell;
        config.environment = self.environment.clone();
        if let Some(channels) = self.channels {
            config.channels = channels.max(1);
        }
        if let Some(pe) = self.base_pe {
            config.base_pe_cycles = pe;
        }
        if let Some(faults) = &self.faults {
            config.faults = faults.clone();
        }
        config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scheme;

    fn base() -> SsdConfig {
        SsdConfig::scaled(Scheme::FlexLevel, 64)
    }

    #[test]
    fn empty_environment_is_off() {
        assert!(!EnvironmentConfig::default().is_enabled());
        assert!(EnvironmentState::new(&base()).is_none());
    }

    #[test]
    fn baseline_is_identity() {
        let config = base().with_base_pe(6000).with_seed(7);
        let applied = ScenarioSpec::find("baseline")
            .unwrap()
            .apply(config.clone());
        assert_eq!(applied, config);
    }

    #[test]
    fn registry_is_wellformed() {
        let names = ScenarioSpec::names();
        assert!(names.len() >= 5, "at least 5 presets: {names:?}");
        assert_eq!(names[0], "baseline");
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "names are unique");
        for name in [
            "seu-burst",
            "thermal-tilt",
            "read-disturb-hot",
            "tlc",
            "aged-tlc",
        ] {
            assert!(ScenarioSpec::find(name).is_some(), "{name} registered");
        }
        assert!(ScenarioSpec::find("no-such-scenario").is_none());
    }

    #[test]
    fn clusters_are_colocated_and_deterministic() {
        let config = base().with_environment(
            EnvironmentConfig::default().with_clusters(ClusterFaultConfig::default()),
        );
        let a = EnvironmentState::new(&config).unwrap();
        let b = EnvironmentState::new(&config).unwrap();
        assert_eq!(a.clusters(), b.clusters());
        assert_eq!(a.clusters().len(), 4);
        let rows = config.geometry.logical_pages().div_ceil(4);
        for c in a.clusters() {
            assert!(c.plane < 4, "plane within 1 channel x 4 dies x 1 plane");
            assert!(c.row_start + c.span_rows <= rows);
        }
        // Membership is consistent with the plane routing.
        for lpn in 0..256u64 {
            if a.in_cluster(lpn) {
                let plane = a.plane_of(lpn);
                assert!(a.clusters().iter().any(|c| c.plane == plane));
            }
        }
    }

    #[test]
    fn thermal_tilts_by_channel() {
        let mut config =
            base()
                .with_channels(4)
                .with_environment(EnvironmentConfig::default().with_thermal(
                    ThermalGradientConfig {
                        hottest_factor: 3.0,
                    },
                ));
        let env = EnvironmentState::new(&config).unwrap();
        let cool = env.adjust_ber(0, 1e-3); // channel 0
        let hot = env.adjust_ber(3, 1e-3); // channel 3
        assert!((cool - 1e-3).abs() < 1e-12, "channel 0 is x1.0: {cool}");
        assert!((hot - 3e-3).abs() < 1e-12, "channel 3 is x3.0: {hot}");
        // Single channel: whole device at the hottest factor.
        config.channels = 1;
        let env = EnvironmentState::new(&config).unwrap();
        assert!((env.adjust_ber(0, 1e-3) - 3e-3).abs() < 1e-12);
    }

    #[test]
    fn read_disturb_accumulates_and_resets() {
        let config = base().with_environment(EnvironmentConfig::default().with_read_disturb(
            ReadDisturbConfig {
                ber_per_read: 1e-4,
                cap: 5e-4,
            },
        ));
        let mut env = EnvironmentState::new(&config).unwrap();
        assert_eq!(env.adjust_ber(7, 1e-3), 1e-3);
        for _ in 0..3 {
            env.record_read(7);
        }
        assert!((env.adjust_ber(7, 1e-3) - 1.3e-3).abs() < 1e-12);
        // The cap holds.
        for _ in 0..100 {
            env.record_read(7);
        }
        assert!((env.adjust_ber(7, 1e-3) - 1.5e-3).abs() < 1e-12);
        // A program wipes the accumulation.
        env.record_program(7);
        assert_eq!(env.adjust_ber(7, 1e-3), 1e-3);
        // Other pages were never touched.
        assert_eq!(env.adjust_ber(8, 1e-3), 1e-3);
    }

    #[test]
    fn cluster_fer_factor_applies_inside_only() {
        let config = base().with_environment(EnvironmentConfig::default().with_clusters(
            ClusterFaultConfig {
                events: 1,
                ..ClusterFaultConfig::default()
            },
        ));
        let env = EnvironmentState::new(&config).unwrap();
        let c = env.clusters()[0];
        let inside = c.plane + c.row_start * 4; // plane_stride = 4
        assert!(env.in_cluster(inside));
        assert_eq!(env.fer_factor(inside), 25.0);
        let outside = (c.plane + 1) % 4; // row 0 of a different plane
        if !env.in_cluster(outside) {
            assert_eq!(env.fer_factor(outside), 1.0);
        }
    }
}
