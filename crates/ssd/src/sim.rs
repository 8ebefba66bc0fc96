//! Trace-driven SSD simulation of the four storage schemes.
//!
//! The simulator replays a block trace through: the write-back buffer, the
//! page-mapping FTL (with greedy GC), the scheme-specific read path and —
//! for FlexLevel — the AccessEval controller. That *logical* layer is
//! shared by two timing models ([`TimingModel`]):
//!
//! * **SingleQueue** (default) — FlashSim's service model: a request
//!   waits for its channel to go idle, pays its lumped flash latency, and
//!   background work (buffer eviction, GC, migrations) extends the
//!   device-busy horizon behind it.
//! * **Pipelined** — a deterministic discrete-event schedule: every
//!   operation becomes a chain of sense/transfer/decode/program/erase
//!   stages (see [`crate::pipeline`]) scheduled on per-plane,
//!   per-channel and per-decoder-slot resources, so stages of different
//!   requests overlap. Background work runs as its own op chains instead
//!   of a scalar horizon extension. The schedule streams alongside the
//!   logical layer: events before each arrival are resolved before that
//!   request is served, so memory follows in-flight work, not trace
//!   length.
//!
//! Logical decisions depend only on request *order*, never on timing, so
//! both models produce bit-identical operation counters; only response
//! times, utilization and throughput differ.
//!
//! Before measurement every trace-footprint page is *preloaded* (written
//! once, uncharged): steady-state devices are full, which is what makes
//! garbage collection — and the LevelAdjust-only scheme's over-
//! provisioning loss — visible, exactly as the paper describes ("frequent
//! garbage collection incurred by over-provisioning space loss").
//!
//! # Serving architecture
//!
//! One serving loop drives both timing backends; [`run`], [`serve`],
//! [`run_prefix`] and [`resume`] all enter it. It has three layers:
//!
//! * **Request source** ([`workloads::RequestSource`]) — where requests
//!   come from: [`workloads::TraceSource`] replays a closed trace;
//!   [`workloads::OpenLoopSource`] generates multi-tenant open-loop
//!   arrivals. [`run`] is a thin wrapper over [`serve`] with a
//!   `TraceSource` and replay options. Sources must yield non-decreasing
//!   arrival times; the loop rejects one that does not
//!   ([`SimError::UnsortedArrivals`]).
//! * **Admission** — per-tenant admission control (the backpressure
//!   machinery in `crate::serve`) in front of the two timing
//!   backends. Admission always runs on the lumped single-queue clock,
//!   so admitted/dropped/deferred sets — and every logical counter — are
//!   bit-identical across backends. The single-queue backend records
//!   that lumped response as the measured one; the pipelined backend
//!   hands the admitted op chains to its streaming event scheduler.
//! * **Accounting** — run-wide [`SimStats`] plus per-tenant
//!   [`TenantStats`] (arrivals, drops, defers, latency SLO tracking),
//!   mirrored into `flexlevel-obs` with tenant labels. Both backends
//!   record a finished request through one recorder: the scheduler
//!   reports events to it, the single-queue backend calls it directly.
//!
//! [`run`]: SsdSimulator::run
//! [`serve`]: SsdSimulator::serve
//! [`run_prefix`]: SsdSimulator::run_prefix
//! [`resume`]: SsdSimulator::resume

use flash_model::{BlockId, CellMode, Micros};
use flexlevel::{AccessEvalController, Migration};
use workloads::{IoOp, IoRequest, RequestSource, TenantRequest, Trace, TraceSource};

use crate::buffer::WriteBuffer;
use crate::config::{Scheme, SsdConfig, TimingModel};
use crate::device::ReliabilityState;
use crate::faults::{CrashPlan, CrashTrigger, FaultState};
use crate::ftl::{FtlError, JournalRecord, OpCost, PageMapFtl, RecoveryReport, TornPage};
use crate::obs::SimObserver;
use crate::pipeline::FlashOp;
use crate::recovery;
use crate::recovery::{config_fingerprint, DeviceImage, ImageError};
use crate::scenario::EnvironmentState;
use crate::scheduler::{Event, Request, Scheduler};
use crate::serve::{Admit, Backpressure, ServeError, ServeOptions};
use crate::stats::{SimStats, TenantStats};

/// Simulation failures (propagated FTL space errors).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The FTL ran out of reclaimable space.
    Ftl(FtlError),
    /// The trace footprint exceeds the device's logical capacity.
    FootprintTooLarge {
        /// Pages the trace touches.
        footprint: u64,
        /// Pages the device exports.
        capacity: u64,
    },
    /// A [`CrashPlan`] cut power; the run is incomplete by design. The
    /// exact journal cut is available via
    /// [`SsdSimulator::crash_cut`].
    PowerLoss {
        /// Zero-based index of the request being served when power died.
        at_request: u64,
    },
    /// The source yielded a request arriving before its predecessor,
    /// breaking the [`RequestSource`] ordering contract (an unsorted
    /// trace file, for instance).
    UnsortedArrivals {
        /// Zero-based index of the out-of-order request.
        index: u64,
    },
}

impl From<FtlError> for SimError {
    fn from(e: FtlError) -> SimError {
        SimError::Ftl(e)
    }
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Ftl(e) => write!(f, "ftl: {e}"),
            SimError::FootprintTooLarge {
                footprint,
                capacity,
            } => write!(
                f,
                "trace footprint {footprint} pages exceeds device capacity {capacity}"
            ),
            SimError::PowerLoss { at_request } => {
                write!(f, "sudden power-off while serving request {at_request}")
            }
            SimError::UnsortedArrivals { index } => write!(
                f,
                "request {index} arrives before its predecessor (arrival times must not decrease)"
            ),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Ftl(e) => Some(e),
            SimError::FootprintTooLarge { .. }
            | SimError::PowerLoss { .. }
            | SimError::UnsortedArrivals { .. } => None,
        }
    }
}

/// Where exactly a [`CrashPlan`] cut the mapping journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashCut {
    /// Journal records that survived the crash (the cut prefix length).
    pub record: usize,
    /// Whether the interrupted record additionally left a torn page.
    pub torn: bool,
    /// Zero-based index of the request being served when power died.
    pub at_request: u64,
}

/// What the logical layer decided one page access costs: lumped
/// foreground/background time.
#[derive(Debug, Default)]
struct PageCharge {
    fg: Micros,
    bg: Micros,
}

/// A whole host request's lumped cost.
#[derive(Debug)]
struct RequestPlan {
    fg: Micros,
    bg: Micros,
    is_read: bool,
}

/// One request's foreground and background op chains for the pipelined
/// model. The serving loop reuses one pair of buffers across requests;
/// under the single-queue model they stay empty, so the hot path
/// allocates nothing.
#[derive(Debug, Default)]
struct OpChains {
    fg: Vec<FlashOp>,
    bg: Vec<FlashOp>,
}

/// Scheme-resolved cost of one flash read: the lumped foreground charge,
/// the sensing levels actually charged, and the decoder-stage duration
/// (including wasted progressive-sensing decode passes).
#[derive(Debug, Clone, Copy)]
struct ReadPlan {
    fg: Micros,
    levels: u32,
    decode: Micros,
    iterations: u32,
}

/// The trace-driven SSD simulator.
#[derive(Debug)]
pub struct SsdSimulator {
    config: SsdConfig,
    ftl: PageMapFtl,
    buffer: WriteBuffer,
    reliability: ReliabilityState,
    access_eval: Option<AccessEvalController>,
    stats: SimStats,
    /// Per-channel device-busy horizons (single-queue model).
    channel_free_at: Vec<Micros>,
    /// Host-written pages (for write amplification).
    host_pages_written: u64,
    /// LevelAdjust-only: cap on simultaneously reduced blocks.
    max_reduced_blocks: u32,
    /// Fault injector; `None` whenever `config.faults.enabled` is off, so
    /// the golden path never draws, prices or counts anything new.
    faults: Option<FaultState>,
    /// Scenario environment (clusters, thermal gradient, read disturb);
    /// `None` whenever `config.environment` is empty, so the golden path
    /// sees no adjustment and no per-page state.
    environment: Option<EnvironmentState>,
    /// Host requests since the last patrol-scrub visit.
    scrub_countdown: u64,
    /// Round-robin block cursor of the patrol scrubber.
    scrub_cursor: u32,
    /// Observability recorder; `None` (the default) disables every
    /// tracing/metrics code path — the `Option` check is the whole cost.
    obs: Option<Box<SimObserver>>,
    /// Zero-based index of the next request to pull from the source
    /// (advances during replay; restored by checkpoint/restore).
    request_cursor: u64,
    /// Stop bound for [`run_prefix`](Self::run_prefix): serving halts
    /// before the request at this cursor.
    stop_after: Option<u64>,
    /// Armed sudden-power-off plan; `None` (the default) never crashes.
    crash_plan: Option<CrashPlan>,
    /// Where the armed plan actually cut, once it fired.
    crash_cut: Option<CrashCut>,
    /// Time-series sampler state carried by a restored device image,
    /// handed to the next observer attached so a resumed campaign's
    /// series continues where the checkpointed run left off.
    restored_series: Option<obs::SeriesState>,
}

impl SsdSimulator {
    /// Builds a simulator for `config`.
    pub fn new(config: SsdConfig) -> SsdSimulator {
        let ftl = PageMapFtl::new(config.geometry, config.gc_low_watermark)
            .with_gc_policy(config.gc_policy);
        let buffer = WriteBuffer::new(config.buffer_pages);
        let reliability = ReliabilityState::with_cell(
            config.cell,
            config.nunma,
            config.max_data_age,
            config.seed,
        );
        let access_eval = match config.scheme {
            Scheme::FlexLevel => Some(AccessEvalController::new(config.access_eval)),
            _ => None,
        };
        let max_reduced_blocks = match config.scheme {
            Scheme::LevelAdjustOnly => {
                // Convert as many blocks as the minimum over-provisioning
                // allows: usable = total − reduced·(ppb/4) ≥ logical·(1+op),
                // keeping a few blocks of GC headroom above the watermark.
                let total = config.geometry.total_pages() as f64;
                let logical = config.geometry.logical_pages() as f64;
                let ppb = config.geometry.pages_per_block() as f64;
                let headroom = (config.gc_low_watermark.max(4) + 2) as f64 * ppb;
                let slack = total - logical * (1.0 + config.min_over_provisioning) - headroom;
                ((slack / (ppb / 4.0)).floor().max(0.0) as u32).min(config.geometry.blocks())
            }
            Scheme::FlexLevel => {
                // The pool bound, in blocks of reduced pages.
                let ppb = config.geometry.pages_per_block() as u64;
                (config.access_eval.pool_pages / (ppb * 3 / 4)) as u32
            }
            _ => 0,
        };
        let max_levels = config.schedule.max_extra_levels();
        let channel_free_at = vec![Micros::ZERO; config.channels.max(1) as usize];
        let faults = config.faults.enabled.then(|| {
            // The Vref-shift rung's gain comes from the device's actual
            // retry table at its starting wear (wires
            // `reliability::read_retry` into the recovery ladder).
            let gain = reliability.retry_gain(config.base_pe_cycles);
            FaultState::new(config.faults.clone(), &config.schedule, gain)
        });
        let environment = EnvironmentState::new(&config);
        SsdSimulator {
            config,
            ftl,
            buffer,
            reliability,
            access_eval,
            stats: SimStats::new(max_levels),
            channel_free_at,
            host_pages_written: 0,
            max_reduced_blocks,
            faults,
            environment,
            scrub_countdown: 0,
            scrub_cursor: 0,
            obs: None,
            request_cursor: 0,
            stop_after: None,
            crash_plan: None,
            crash_cut: None,
            restored_series: None,
        }
    }

    /// Attaches an observability recorder; subsequent runs record
    /// metrics, histograms and read spans into it. On a simulator built
    /// by [`restore`](Self::restore) from an image that carried
    /// time-series state, an observer with the series enabled resumes
    /// that series mid-window.
    pub fn attach_observer(&mut self, mut observer: SimObserver) {
        if let Some(state) = self.restored_series.take() {
            observer.restore_series(&state);
        }
        self.obs = Some(Box::new(observer));
    }

    /// Builder form of [`attach_observer`](Self::attach_observer).
    #[must_use]
    pub fn with_observer(mut self, observer: SimObserver) -> SsdSimulator {
        self.attach_observer(observer);
        self
    }

    /// The attached observer, if any.
    pub fn observer(&self) -> Option<&SimObserver> {
        self.obs.as_deref()
    }

    /// Detaches and returns the observer (typically after `run`, to
    /// export its recorder).
    pub fn take_observer(&mut self) -> Option<SimObserver> {
        self.obs.take().map(|b| *b)
    }

    /// The configuration under simulation.
    pub fn config(&self) -> &SsdConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Host pages written so far (for write amplification).
    pub fn host_pages_written(&self) -> u64 {
        self.host_pages_written
    }

    /// The FTL (inspection).
    pub fn ftl(&self) -> &PageMapFtl {
        &self.ftl
    }

    /// Runs the full experiment: preload the footprint, reset counters,
    /// replay the trace, and return the final statistics.
    ///
    /// Equivalent to [`serve`](Self::serve) with a
    /// [`TraceSource`] and [`ServeOptions::replay`] — no tenants, no
    /// admission control, bit-identical to the pre-serving simulator.
    ///
    /// # Errors
    ///
    /// [`SimError::FootprintTooLarge`] if the trace does not fit;
    /// [`SimError::Ftl`] if the device runs out of reclaimable space.
    pub fn run(&mut self, trace: &Trace) -> Result<&SimStats, SimError> {
        let mut source = TraceSource::new(trace);
        self.run_source(&mut source, &ServeOptions::replay())?;
        Ok(&self.stats)
    }

    /// Drains `source` through the scheduler under `options`: preload the
    /// footprint, reset counters, pull requests in arrival order through
    /// per-tenant admission control, and return the final statistics
    /// (including [`SimStats::tenants`] when `options` is tenanted).
    ///
    /// # Errors
    ///
    /// [`ServeError::QosMismatch`] if `options` defines fewer QoS entries
    /// than `source` has tenants; [`ServeError::Sim`] on simulation
    /// failure.
    pub fn serve<S: RequestSource>(
        &mut self,
        source: &mut S,
        options: &ServeOptions,
    ) -> Result<&SimStats, ServeError> {
        if options.tenanted() && (options.tenants.len() as u32) < source.tenants() {
            return Err(ServeError::QosMismatch {
                tenants: source.tenants(),
                qos: options.tenants.len(),
            });
        }
        self.run_source(source, options)?;
        Ok(&self.stats)
    }

    /// Preload, tenant set-up, then the serving loop: the body of
    /// [`run`](Self::run) and [`serve`](Self::serve).
    fn run_source<S: RequestSource>(
        &mut self,
        source: &mut S,
        options: &ServeOptions,
    ) -> Result<(), SimError> {
        self.preload_pages(source.footprint_pages())?;
        if options.tenanted() {
            self.stats.tenants = options
                .tenants
                .iter()
                .map(|qos| TenantStats::new(qos.slo_us))
                .collect();
            if let Some(o) = self.obs.as_mut() {
                o.ensure_tenants(options);
            }
        }
        self.serve_loop(source, options)
    }

    /// Writes every footprint page once (uncharged) so the device starts
    /// full, then zeroes the statistics.
    pub fn preload(&mut self, trace: &Trace) -> Result<(), SimError> {
        self.preload_pages(trace.footprint_pages)
    }

    /// [`preload`](Self::preload) against a bare footprint (what request
    /// sources report).
    fn preload_pages(&mut self, footprint_pages: u64) -> Result<(), SimError> {
        let capacity = self.ftl.logical_pages();
        if footprint_pages > capacity {
            return Err(SimError::FootprintTooLarge {
                footprint: footprint_pages,
                capacity,
            });
        }
        for lpn in 0..footprint_pages {
            let mode = self.preload_mode();
            self.ftl.write(lpn, mode)?;
        }
        self.stats = SimStats::new(self.config.schedule.max_extra_levels());
        self.host_pages_written = 0;
        if let Some(faults) = self.faults.as_mut() {
            faults.reset();
        }
        if let Some(env) = self.environment.as_mut() {
            env.reset();
        }
        self.scrub_countdown = 0;
        self.scrub_cursor = 0;
        self.request_cursor = 0;
        self.crash_cut = None;
        if let Some(o) = self.obs.as_mut() {
            o.reset();
        }
        Ok(())
    }

    /// Initial placement mode: LevelAdjust-only converts blocks up front;
    /// every other scheme starts all-normal (FlexLevel promotes on demand).
    fn preload_mode(&self) -> CellMode {
        if self.config.scheme == Scheme::LevelAdjustOnly
            && self.ftl.reduced_blocks() < self.max_reduced_blocks
        {
            CellMode::Reduced
        } else {
            CellMode::Normal
        }
    }

    /// `true` when the pipelined model runs (op chains must be built).
    fn pipelined(&self) -> bool {
        self.config.timing_model == TimingModel::Pipelined
    }

    /// Arms (or clears) a sudden-power-off plan. While armed, serving
    /// stops with [`SimError::PowerLoss`] when the trigger fires and
    /// [`crash_cut`](Self::crash_cut) reports where the mapping journal
    /// was cut.
    pub fn set_crash_plan(&mut self, plan: Option<CrashPlan>) {
        self.crash_plan = plan;
    }

    /// Where the armed crash plan cut the journal, once it fired.
    pub fn crash_cut(&self) -> Option<CrashCut> {
        self.crash_cut
    }

    /// Zero-based index of the next request to pull from the source.
    pub fn request_cursor(&self) -> u64 {
        self.request_cursor
    }

    /// Evaluates the armed crash plan against the request just served;
    /// on fire, derives the seeded journal cut and returns the error the
    /// serving loop must propagate.
    fn check_crash(&mut self, at: u64, arrival_us: f64, records_before: usize) -> Option<SimError> {
        let plan = self.crash_plan?;
        let fired = match plan.trigger {
            CrashTrigger::OpIndex(index) => at == index,
            CrashTrigger::SimTimeUs(t) => arrival_us >= t,
        };
        if !fired {
            return None;
        }
        let records_after = self.ftl.journal().map_or(0, <[_]>::len);
        let (record, torn) = plan.cut(at, records_before, records_after);
        self.crash_cut = Some(CrashCut {
            record,
            torn,
            at_request: at,
        });
        Some(SimError::PowerLoss { at_request: at })
    }

    /// Captures the complete device state as a restorable
    /// [`DeviceImage`] and switches the FTL's mapping journal on, so
    /// every subsequent mapping change is appended relative to this
    /// checkpoint. `trace_fingerprint` is left `0`; callers tying the
    /// image to a trace stamp it via [`recovery::trace_fingerprint`].
    ///
    /// # Errors
    ///
    /// [`ImageError::Invariant`] if the run is tenanted — per-tenant
    /// scheduler state is not checkpointable.
    pub fn checkpoint(&mut self) -> Result<DeviceImage, ImageError> {
        if !self.stats.tenants.is_empty() {
            return Err(ImageError::Invariant(
                "tenanted serve runs cannot be checkpointed".to_string(),
            ));
        }
        self.ftl.enable_journal();
        let (buffer, buffer_next_seq) = self.buffer.snapshot();
        let (ages, age_rng) = self.reliability.snapshot();
        Ok(DeviceImage {
            config_fingerprint: config_fingerprint(&self.config),
            trace_fingerprint: 0,
            request_cursor: self.request_cursor,
            ftl: self.ftl.snapshot(),
            buffer,
            buffer_next_seq,
            ages,
            age_rng,
            access_eval: self
                .access_eval
                .as_ref()
                .map(AccessEvalController::snapshot),
            fault_counters: self.faults.as_ref().map(FaultState::counters_snapshot),
            disturb: self
                .environment
                .as_ref()
                .map(EnvironmentState::disturb_snapshot),
            stats: self.stats.clone(),
            host_pages_written: self.host_pages_written,
            scrub_countdown: self.scrub_countdown,
            scrub_cursor: self.scrub_cursor,
            channel_free_at: self.channel_free_at.iter().map(|t| t.as_f64()).collect(),
            journal: Vec::new(),
            torn: None,
            crashed_at: None,
            series: self.obs.as_ref().and_then(|o| o.series_state()),
        })
    }

    /// Derives the post-crash device image: `base` (the last clean
    /// checkpoint) plus the journal prefix that reached the flash before
    /// power died, plus the torn page the interrupted program left, if
    /// any. The recovered state is then proven by
    /// [`PageMapFtl::recover`] against this image.
    ///
    /// # Errors
    ///
    /// [`ImageError::Invariant`] if no crash has fired or the journal is
    /// not enabled.
    pub fn crash_image(&self, base: &DeviceImage) -> Result<DeviceImage, ImageError> {
        let cut = self
            .crash_cut
            .ok_or_else(|| ImageError::Invariant("no crash has fired".to_string()))?;
        let journal = self
            .ftl
            .journal()
            .ok_or_else(|| ImageError::Invariant("mapping journal not enabled".to_string()))?;
        if cut.record > journal.len() {
            return Err(ImageError::Invariant(format!(
                "crash cut {} beyond journal length {}",
                cut.record,
                journal.len()
            )));
        }
        // The torn page is the *first lost* record — a program that was
        // in flight when power died. Only `Write` records leave one;
        // metadata-only records (erase, retire, commit) tear nothing.
        let torn = if cut.torn {
            match journal.get(cut.record) {
                Some(&JournalRecord::Write { block, page, .. }) => Some(TornPage { block, page }),
                _ => None,
            }
        } else {
            None
        };
        let mut image = base.clone();
        image.journal = journal[..cut.record].to_vec();
        image.torn = torn;
        image.crashed_at = Some(cut.at_request);
        Ok(image)
    }

    /// Rebuilds a simulator from a checkpoint image, ready to
    /// [`resume`](Self::resume) at `image.request_cursor`. The caller
    /// supplies the same configuration the checkpoint was taken under
    /// (verified by fingerprint). Crash images are restored from their
    /// *checkpoint-time* FTL: resumed serving re-executes the journaled
    /// suffix deterministically, which is what makes split runs
    /// bit-identical to uninterrupted ones.
    ///
    /// # Errors
    ///
    /// [`ImageError::ConfigMismatch`] on a fingerprint mismatch;
    /// [`ImageError::Invariant`] if the FTL image fails
    /// [`PageMapFtl::check_invariants`]; [`ImageError::Corrupt`] if any
    /// other component snapshot fails validation against the rebuilt
    /// simulator.
    pub fn restore(config: SsdConfig, image: &DeviceImage) -> Result<SsdSimulator, ImageError> {
        let expected = config_fingerprint(&config);
        if image.config_fingerprint != expected {
            return Err(ImageError::ConfigMismatch {
                expected,
                found: image.config_fingerprint,
            });
        }
        let mut sim = SsdSimulator::new(config);
        sim.ftl = PageMapFtl::from_image(&image.ftl)?;
        sim.buffer = WriteBuffer::from_snapshot(
            sim.config.buffer_pages,
            &image.buffer,
            image.buffer_next_seq,
        )
        .map_err(ImageError::Corrupt)?;
        sim.reliability.restore(&image.ages, image.age_rng);
        match (sim.access_eval.as_mut(), image.access_eval.as_ref()) {
            (Some(controller), Some(snapshot)) => {
                controller.restore(snapshot).map_err(ImageError::Corrupt)?;
            }
            (None, None) => {}
            _ => return Err(ImageError::Corrupt("AccessEval presence mismatch")),
        }
        match (sim.faults.as_mut(), image.fault_counters.as_ref()) {
            (Some(faults), Some(counters)) => faults.restore_counters(counters),
            (None, None) => {}
            _ => return Err(ImageError::Corrupt("fault-state presence mismatch")),
        }
        match (sim.environment.as_mut(), image.disturb.as_ref()) {
            (Some(env), Some(disturb)) => env.restore_disturb(disturb),
            (None, None) => {}
            _ => return Err(ImageError::Corrupt("environment presence mismatch")),
        }
        if image.channel_free_at.len() != sim.channel_free_at.len() {
            return Err(ImageError::Corrupt("channel count mismatch"));
        }
        if image.scrub_cursor >= sim.ftl.geometry().blocks() {
            return Err(ImageError::Corrupt("scrub cursor out of range"));
        }
        // Serving and reporting index the histograms by sensing level and
        // retry depth and sort the reservoir: hold the image's statistics
        // to the shapes `SimStats::new` gives this config's schedule.
        let (stats, fresh) = (&image.stats, &sim.stats);
        if stats.reads_by_sensing_level.len() != fresh.reads_by_sensing_level.len()
            || stats.retry_depth_histogram.len() != fresh.retry_depth_histogram.len()
        {
            return Err(ImageError::Corrupt("statistics histogram length mismatch"));
        }
        if !stats.response_samples.iter().all(|s| s.is_finite()) {
            return Err(ImageError::Corrupt("non-finite response sample"));
        }
        sim.stats = image.stats.clone();
        sim.host_pages_written = image.host_pages_written;
        sim.scrub_countdown = image.scrub_countdown;
        sim.scrub_cursor = image.scrub_cursor;
        sim.channel_free_at = image.channel_free_at.iter().map(|&us| Micros(us)).collect();
        sim.request_cursor = image.request_cursor;
        sim.restored_series = image.series.clone();
        Ok(sim)
    }

    /// Runs the first `stop` requests of `trace` — preload and counter
    /// reset included — then returns with the simulator *mid-run*, ready
    /// for [`checkpoint`](Self::checkpoint). Observability export is
    /// deliberately not finished: the run is not over.
    ///
    /// # Errors
    ///
    /// As [`run`](Self::run).
    pub fn run_prefix(&mut self, trace: &Trace, stop: u64) -> Result<&SimStats, SimError> {
        self.preload_pages(trace.footprint_pages)?;
        self.stop_after = Some(stop);
        let outcome = self.serve_loop(&mut TraceSource::new(trace), &ServeOptions::replay());
        self.stop_after = None;
        outcome?;
        Ok(&self.stats)
    }

    /// Continues serving `trace` from the current request cursor to the
    /// end — the second half of a checkpointed run, after
    /// [`restore`](Self::restore) or [`run_prefix`](Self::run_prefix).
    /// No preload, no counter reset; finishes observability export.
    ///
    /// # Errors
    ///
    /// As [`run`](Self::run); [`SimError::PowerLoss`] if an armed crash
    /// plan fires during the resumed portion.
    pub fn resume(&mut self, trace: &Trace) -> Result<&SimStats, SimError> {
        let mut source = TraceSource::starting_at(trace, self.request_cursor as usize);
        self.serve_loop(&mut source, &ServeOptions::replay())?;
        Ok(&self.stats)
    }

    /// Folds a recovery proof's outcome into the statistics (surfaced in
    /// the recovery panel and the observability export) before resuming.
    pub fn note_recovery(&mut self, report: &RecoveryReport, checkpoint_age_requests: u64) {
        self.stats.journal_replayed += report.journal_replayed;
        self.stats.torn_pages_discarded += report.torn_pages_discarded;
        self.stats.checkpoint_age_requests = checkpoint_age_requests;
    }

    /// The one serving loop behind every entry point: pulls `source`
    /// until it drains (or the [`run_prefix`](Self::run_prefix) bound
    /// stops it), then settles timing and — unless stopped early —
    /// flushes the final series window and finishes observability
    /// export. A prefix run's open window and unfinished export instead
    /// ride the device image into the resumed run, so a split campaign's
    /// outputs match an uninterrupted one's byte for byte.
    fn serve_loop<S: RequestSource>(
        &mut self,
        source: &mut S,
        options: &ServeOptions,
    ) -> Result<(), SimError> {
        let mut scheduler = self.pipelined().then(|| Scheduler::new(&self.config));
        // Admission runs on a copy of the lumped clock that only the
        // single-queue model keeps: under the pipelined model the
        // device's own horizons — and so its checkpoint images — never
        // move.
        let mut clock = self.channel_free_at.clone();
        let mut backpressure = Backpressure::new(options);
        let outcome = self.admit_all(
            source,
            options,
            &mut backpressure,
            &mut clock,
            scheduler.as_mut(),
        );
        if scheduler.is_none() {
            self.channel_free_at = clock;
        }
        outcome?;
        self.stats.makespan_us = match scheduler.as_mut() {
            Some(s) => {
                s.drain(None, |event| self.record(event));
                s.busy_until().as_f64()
            }
            None => self
                .channel_free_at
                .iter()
                .fold(0.0_f64, |acc, t| acc.max(t.as_f64())),
        };
        if self.stop_after.is_none() {
            if let Some(o) = self.obs.as_mut() {
                o.series_flush(&self.stats, &backpressure);
                o.finish_run(&self.stats, self.host_pages_written);
            }
        }
        Ok(())
    }

    /// Pulls requests in arrival order through admission control and the
    /// logical layer. An admitted request queues on the channel its
    /// first page maps to (no earlier than its submission time) of the
    /// lumped `clock`, pays its lumped latency, and background work
    /// extends the horizon behind it. Without a `scheduler` that lumped
    /// response is the measured one (the single-queue model); with one,
    /// the request's op chains go to the scheduler, which first resolves
    /// every event before the request's arrival.
    fn admit_all<S: RequestSource>(
        &mut self,
        source: &mut S,
        options: &ServeOptions,
        backpressure: &mut Backpressure,
        clock: &mut [Micros],
        mut scheduler: Option<&mut Scheduler>,
    ) -> Result<(), SimError> {
        let tenanted = options.tenanted();
        let mut last_arrival = f64::NEG_INFINITY;
        let mut ops = OpChains::default();
        while self
            .stop_after
            .is_none_or(|stop| self.request_cursor < stop)
        {
            let Some(TenantRequest { tenant, request }) = source.next_request() else {
                break;
            };
            let at = self.request_cursor;
            if request.arrival_us.total_cmp(&last_arrival).is_lt() {
                return Err(SimError::UnsortedArrivals { index: at });
            }
            last_arrival = request.arrival_us;
            let arrival = Micros(request.arrival_us);
            if let Some(s) = scheduler.as_deref_mut() {
                s.drain(Some(arrival), |event| self.record(event));
            }
            if let Some(o) = self.obs.as_mut() {
                o.on_arrival(request.arrival_us, &self.stats, backpressure);
            }
            self.request_cursor += 1;
            if tenanted {
                self.stats.tenants[tenant as usize].arrivals += 1;
            }
            let submit = match backpressure.admit(tenant, request.arrival_us) {
                Admit::Now => arrival,
                Admit::DeferredUntil(until) => {
                    self.stats.tenants[tenant as usize].deferred += 1;
                    Micros(until)
                }
                Admit::Drop => {
                    self.stats.tenants[tenant as usize].dropped += 1;
                    continue;
                }
            };
            if tenanted {
                if let Some(o) = self.obs.as_mut() {
                    o.set_tenant(tenant);
                }
            }
            let records_before = self.ftl.journal().map_or(0, <[_]>::len);
            let plan = self.serve_logical(&request, &mut ops)?;
            let channel = (request.lpn % clock.len() as u64) as usize;
            let start = submit.max(clock[channel]);
            clock[channel] = start + plan.fg + plan.bg;
            backpressure.commit(tenant, (start + plan.fg).as_f64());
            let lumped = (start - arrival) + plan.fg;
            if tenanted {
                if let Some(o) = self.obs.as_mut() {
                    o.tenant_lumped(tenant, lumped.as_f64());
                }
                let t = &mut self.stats.tenants[tenant as usize];
                t.served += 1;
                if plan.is_read {
                    t.reads += 1;
                } else {
                    t.writes += 1;
                }
            }
            let pending = Request {
                tenant,
                arrival,
                is_read: plan.is_read,
                obs_key: self.obs.as_mut().map_or(0, |o| o.end_request(arrival)),
            };
            match scheduler.as_deref_mut() {
                None => {
                    self.record(Event::Started(pending, start));
                    self.record(Event::Finished(pending, lumped));
                }
                Some(s) => s.admit(pending, submit, &ops.fg, &ops.bg, &self.config.latency),
            }
            self.ftl.record_commit(at);
            if let Some(err) = self.check_crash(at, request.arrival_us, records_before) {
                return Err(err);
            }
        }
        Ok(())
    }

    /// Records one finished request, stage or service start into
    /// [`SimStats`], the request's tenant and the observer: the one
    /// recording path of both timing backends. The pipelined scheduler
    /// reports its events here; the single-queue model reports each
    /// request's lumped response as it is admitted.
    fn record(&mut self, event: Event) {
        match event {
            Event::Started(request, start) => {
                if let Some(o) = self.obs.as_mut() {
                    o.started(request.obs_key, start);
                }
            }
            Event::Stage(kind, busy, wait) => {
                self.stats.record_stage(kind, busy, wait);
                if let Some(o) = self.obs.as_mut() {
                    o.record_stage(kind, busy, wait);
                }
            }
            Event::Finished(request, response) => {
                self.stats.record_response(response, request.is_read);
                let tenant = self.stats.tenants.get_mut(request.tenant as usize);
                let tenanted = tenant.is_some();
                if let Some(t) = tenant {
                    t.record_response(response);
                }
                if let Some(o) = self.obs.as_mut() {
                    o.finished(request.obs_key, response);
                    if tenanted {
                        o.tenant_response(request.tenant, response);
                    }
                }
            }
        }
    }

    /// Runs one request through the logical layer (buffer, FTL, wear,
    /// AccessEval), updating every operation counter and returning the
    /// request's cost plan; under the pipelined model `ops` is refilled
    /// with the request's op chains. Timing-model independent: decisions
    /// depend only on the order requests are presented, which both models
    /// keep equal to trace order.
    fn serve_logical(
        &mut self,
        request: &IoRequest,
        ops: &mut OpChains,
    ) -> Result<RequestPlan, SimError> {
        let mut plan = RequestPlan {
            fg: Micros::ZERO,
            bg: Micros::ZERO,
            is_read: request.op == IoOp::Read,
        };
        ops.fg.clear();
        ops.bg.clear();
        if let Some(o) = self.obs.as_mut() {
            o.begin_request(request.lpn, plan.is_read, request.arrival_us);
        }
        for lpn in request.lpns() {
            let lpn = lpn % self.ftl.logical_pages();
            let page = match request.op {
                IoOp::Read => self.read_page(lpn, ops)?,
                IoOp::Write => self.write_page(lpn, ops)?,
            };
            plan.fg += page.fg;
            plan.bg += page.bg;
        }
        match request.op {
            IoOp::Read => self.stats.host_reads += 1,
            IoOp::Write => self.stats.host_writes += 1,
        }
        // Patrol scrub: every `scrub_interval` host requests the chain
        // visits the next cold block as background work.
        if self.faults.is_some() && self.config.faults.scrub_interval > 0 {
            self.scrub_countdown += 1;
            if self.scrub_countdown >= self.config.faults.scrub_interval {
                self.scrub_countdown = 0;
                plan.bg += self.patrol_scrub(&mut ops.bg)?;
            }
        }
        Ok(plan)
    }

    /// Environment-adjusted raw BER of one flash read of `lpn`, also
    /// recording the read for read-disturb accumulation (the adjustment
    /// sees the disturb accumulated *before* this read). Identity, with
    /// no state touched, when no environment is configured. Recovery
    /// retry rungs re-read the same wordline but are not re-recorded — a
    /// deliberate simplification keeping disturb a function of the
    /// logical access sequence alone.
    fn environment_read(&mut self, lpn: u64, ber: f64) -> f64 {
        match self.environment.as_mut() {
            Some(env) => {
                let adjusted = env.adjust_ber(lpn, ber);
                env.record_read(lpn);
                adjusted
            }
            None => ber,
        }
    }

    /// Records a program/refresh of `lpn` with the environment: the
    /// rewritten page starts disturb-free. GC relocations are *not*
    /// reported — a deliberate approximation (relocation copies the
    /// already-disturbed data pattern).
    fn environment_program(&mut self, lpn: u64) {
        if let Some(env) = self.environment.as_mut() {
            env.record_program(lpn);
        }
    }

    /// Host read of one page.
    fn read_page(&mut self, lpn: u64, ops: &mut OpChains) -> Result<PageCharge, SimError> {
        let mut charge = PageCharge::default();
        if self.buffer.contains(lpn) {
            self.buffer.touch(lpn);
            self.stats.buffer_read_hits += 1;
            charge.fg = self.config.latency.timing.page_transfer;
            if let Some(o) = self.obs.as_mut() {
                o.span_stage("transfer", charge.fg);
            }
            if self.pipelined() {
                ops.fg.push(FlashOp::HostTransfer { lpn });
            }
            return Ok(charge);
        }
        self.stats.flash_reads += 1;
        let mode = self
            .ftl
            .placement(lpn)
            .map(|(_, mode)| mode)
            .unwrap_or(CellMode::Normal);
        let pe = self.effective_pe(lpn);
        let age = self.reliability.age(lpn);

        if mode == CellMode::Reduced {
            self.stats.reduced_reads += 1;
            // NUNMA 3 keeps reduced pages below the sensing trigger, but
            // weaker schemes (a NUNMA 1 deployment, or extreme stress) may
            // still need soft sensing — charge it honestly.
            let ber = self.reliability.ber(CellMode::Reduced, pe, age);
            let ber = self.environment_read(lpn, ber);
            let required = self.config.schedule.required_levels(ber);
            if let Some(ctrl) = self.access_eval.as_mut() {
                // Keep the pool's recency fresh; pooled reads need no
                // migrations.
                let _ = ctrl.on_read(lpn, required, self.config.schedule.max_extra_levels());
            }
            let cycle = self.config.latency.timing.reduce_code_cycle;
            let plan = if required == 0 {
                ReadPlan {
                    fg: self.config.latency.reduced_read_latency(),
                    levels: 0,
                    decode: self.config.latency.decode_latency(1) + cycle,
                    iterations: 1,
                }
            } else {
                let plan = self.read_plan(required, ber);
                ReadPlan {
                    fg: plan.fg + cycle,
                    decode: plan.decode + cycle,
                    ..plan
                }
            };
            self.sensed_read(lpn, ber, plan, &mut charge, ops);
            return Ok(charge);
        }

        let ber = self.reliability.ber(CellMode::Normal, pe, age);
        let ber = self.environment_read(lpn, ber);
        let required = self.config.schedule.required_levels(ber);
        let plan = self.read_plan(required, ber);
        let slot = required.min(self.config.schedule.max_extra_levels()) as usize;
        self.stats.reads_by_sensing_level[slot] += 1;
        self.sensed_read(lpn, ber, plan, &mut charge, ops);

        // AccessEval: evaluate the read and apply any migrations as
        // background work.
        let migrations = match self.access_eval.as_mut() {
            Some(ctrl) => ctrl.on_read(lpn, required, self.config.schedule.max_extra_levels()),
            None => Vec::new(),
        };
        for migration in migrations {
            charge.bg += self.apply_migration(migration, &mut ops.bg)?;
        }
        if let Some(ctrl) = self.access_eval.as_ref() {
            let s = ctrl.stats();
            self.stats.promotions = s.promotions;
            self.stats.demotions = s.demotions;
        }
        Ok(charge)
    }

    /// The tail every sensed (non-buffered) read shares: charges
    /// `plan.fg`, records the observer's sense/transfer/decode spans,
    /// queues the pipelined `FlashOp::Read` and applies read faults.
    fn sensed_read(
        &mut self,
        lpn: u64,
        ber: f64,
        plan: ReadPlan,
        charge: &mut PageCharge,
        ops: &mut OpChains,
    ) {
        charge.fg = plan.fg;
        if let Some(o) = self.obs.as_mut() {
            let t = &self.config.latency.timing;
            o.span_stage("sense", t.sense_latency(plan.levels));
            o.span_stage("transfer", t.transfer_latency(plan.levels));
            o.span_stage("decode", plan.decode);
            o.flash_read(plan.levels, plan.iterations);
        }
        if self.pipelined() {
            ops.fg.push(FlashOp::Read {
                lpn,
                extra_levels: plan.levels,
                decode: plan.decode,
            });
        }
        self.apply_read_faults(lpn, ber, plan.levels, charge, ops);
    }

    /// Expected decoder iterations for a read sensed with `levels` extra
    /// levels at raw BER `ber`: the measured profile when one is
    /// configured, otherwise the `typical_iterations` heuristic.
    fn decode_iterations(&self, levels: u32, ber: f64) -> u32 {
        match &self.config.measured_iterations {
            Some(profile) => profile.iterations(levels),
            None => self.config.latency.typical_iterations(ber),
        }
    }

    /// Scheme-specific cost of a normal-page read needing `required`
    /// extra sensing levels at raw BER `ber`: the lumped latency plus the
    /// (levels, decode-stage) split the pipelined model schedules.
    fn read_plan(&mut self, required: u32, ber: f64) -> ReadPlan {
        match self.config.scheme {
            Scheme::Baseline => {
                // No optimisation: the controller provisions sensing for
                // the worst-case data it might hold at this wear level.
                let worst = self.reliability.worst_case_ber(self.config.base_pe_cycles);
                let levels = self.config.schedule.required_levels(worst);
                let iterations = self.decode_iterations(levels, ber);
                ReadPlan {
                    fg: self.config.latency.read_latency(levels, iterations),
                    levels,
                    decode: self.config.latency.decode_latency(iterations),
                    iterations,
                }
            }
            _ => {
                // Progressive sensing (LDPC-in-SSD and the normal-page
                // path of both LevelAdjust schemes): retry with one more
                // soft level until the frame decodes. Sensing and
                // transfer accumulate to the same total as a one-shot
                // read at `required` levels; each failed attempt also
                // pays a decode pass, which lands on the decoder stage.
                let iterations = self.decode_iterations(required, ber);
                let latency = &self.config.latency;
                let one_shot = latency.read_latency(required, iterations);
                let wasted_decodes =
                    latency.decode_base + latency.decode_per_iteration * iterations as f64;
                let wasted = wasted_decodes * required as f64 * 0.5;
                ReadPlan {
                    fg: one_shot + wasted,
                    levels: required,
                    decode: latency.decode_latency(iterations) + wasted,
                    iterations,
                }
            }
        }
    }

    /// Host write of one page via the write-back buffer.
    fn write_page(&mut self, lpn: u64, ops: &mut OpChains) -> Result<PageCharge, SimError> {
        self.host_pages_written += 1;
        self.reliability.record_write(lpn);
        let mut charge = PageCharge {
            fg: self.config.latency.timing.page_transfer,
            ..PageCharge::default()
        };
        if self.pipelined() {
            ops.fg.push(FlashOp::HostTransfer { lpn });
        }
        if let Some(evicted) = self.buffer.write(lpn) {
            charge.bg += self.flush_page(evicted, &mut ops.bg)?;
        }
        Ok(charge)
    }

    /// Programs a buffered page to flash (eviction or shutdown flush).
    fn flush_page(&mut self, lpn: u64, ops: &mut Vec<FlashOp>) -> Result<Micros, SimError> {
        let mode = self.write_mode(lpn);
        let cost = self.ftl.write(lpn, mode)?;
        self.environment_program(lpn);
        let mut time = self.account(cost, lpn, ops);
        time += self.apply_program_fault(lpn, ops)?;
        Ok(time)
    }

    /// Resolves the fault draws of one flash read: a possible transient
    /// die fault (cleared by a reset that stalls the plane), then the
    /// frame-decode outcome. A failed decode climbs the
    /// [`crate::recovery`] ladder; every attempted rung is priced like a
    /// first-class read at that rung's sensing depth — it extends the
    /// foreground charge and, under the pipelined model, occupies die,
    /// channel and decoder resources. No-op with faults disabled.
    fn apply_read_faults(
        &mut self,
        lpn: u64,
        ber: f64,
        levels: u32,
        charge: &mut PageCharge,
        ops: &mut OpChains,
    ) {
        // Correlated clusters make frames inside the struck region harder
        // to decode than their (already cluster-elevated) BER alone says.
        let env_fer = self
            .environment
            .as_ref()
            .map_or(1.0, |env| env.fer_factor(lpn));
        let Some(faults) = self.faults.as_mut() else {
            return;
        };
        let cfg = self.config.faults.clone();
        let die_fault = faults.die_draw(lpn) < cfg.die_fault_prob;
        let u = faults.read_draw(lpn);
        let fer0 = (faults.frame_error_rate(ber, levels) * env_fer).clamp(0.0, 1.0);
        let retry_factor = faults.retry_fer_factor();
        if die_fault {
            self.stats.die_resets += 1;
            let reset = Micros(cfg.die_reset_us);
            charge.fg += reset;
            self.stats.recovery_latency_us += reset.as_f64();
            if let Some(o) = self.obs.as_mut() {
                o.span_stage("die_reset", reset);
                o.die_reset(lpn);
            }
            if self.pipelined() {
                ops.fg.push(FlashOp::DieReset {
                    lpn,
                    duration: reset,
                });
            }
        }
        if u >= fer0 {
            self.stats.record_retry_depth(0);
            if let Some(o) = self.obs.as_mut() {
                o.retry(lpn, 0, true);
            }
            return;
        }
        let outcome = recovery::resolve(
            u,
            fer0,
            levels,
            self.config.schedule.max_extra_levels(),
            retry_factor,
            cfg.escalate_fer_factor,
            cfg.final_fer_factor,
        );
        for rung in &outcome.rungs {
            let iterations = self.decode_iterations(rung.levels, ber);
            let attempt = self.config.latency.read_latency(rung.levels, iterations);
            charge.fg += attempt;
            self.stats.recovery_latency_us += attempt.as_f64();
            self.stats.flash_reads += 1;
            self.stats.retry_reads += 1;
            if let Some(o) = self.obs.as_mut() {
                o.span_stage("retry", attempt);
            }
            if self.pipelined() {
                ops.fg.push(FlashOp::Read {
                    lpn,
                    extra_levels: rung.levels,
                    decode: self.config.latency.decode_latency(iterations),
                });
            }
        }
        self.stats.record_retry_depth(outcome.depth());
        if let Some(o) = self.obs.as_mut() {
            o.retry(lpn, outcome.depth(), outcome.recovered);
        }
        if outcome.recovered {
            self.stats.recovered_reads += 1;
        } else {
            self.stats.uncorrectable_reads += 1;
        }
    }

    /// Draws the program-status stream for the page just programmed; a
    /// failure burns the failed ISPP attempt and retires the block as
    /// grown-bad, relocating its live pages and shrinking usable
    /// capacity. No-op with faults disabled.
    fn apply_program_fault(
        &mut self,
        lpn: u64,
        ops: &mut Vec<FlashOp>,
    ) -> Result<Micros, SimError> {
        let Some(faults) = self.faults.as_mut() else {
            return Ok(Micros::ZERO);
        };
        let prob = faults.config().program_fail_prob;
        if faults.program_draw(lpn) >= prob {
            return Ok(Micros::ZERO);
        }
        self.stats.program_failures += 1;
        // The failed ISPP attempt itself burned a program pulse before
        // the status check flagged it.
        let mut time = self.config.latency.timing.program;
        self.stats.flash_programs += 1;
        self.stats.recovery_latency_us += time.as_f64();
        if self.pipelined() {
            ops.push(FlashOp::Program { lpn });
        }
        let Some((phys, _)) = self.ftl.placement(lpn) else {
            return Ok(time);
        };
        let cost = self.ftl.retire_block(phys.block)?;
        self.stats.retired_blocks += 1;
        time += self.account(cost, lpn, ops);
        Ok(time)
    }

    /// One patrol-scrub visit: re-read every live page of the next
    /// non-retired block in round-robin order, refreshing (rewriting in
    /// place, age reset) any page whose modeled retention BER has crossed
    /// the refresh threshold. Runs as background work, so scrub traffic
    /// competes with host I/O exactly like GC does.
    fn patrol_scrub(&mut self, ops: &mut Vec<FlashOp>) -> Result<Micros, SimError> {
        let blocks = self.ftl.geometry().blocks();
        let mut target = None;
        for _ in 0..blocks {
            let candidate = BlockId(self.scrub_cursor);
            self.scrub_cursor = (self.scrub_cursor + 1) % blocks;
            if self.ftl.is_retired(candidate) {
                continue;
            }
            let lpns = self.ftl.block_lpns(candidate);
            if lpns.is_empty() {
                continue;
            }
            target = Some((candidate, lpns));
            break;
        }
        let Some((block, lpns)) = target else {
            return Ok(Micros::ZERO);
        };
        self.stats.scrub_runs += 1;
        let threshold = self.config.faults.scrub_refresh_ber;
        let mut time = Micros::ZERO;
        let mut visit_reads = 0u32;
        let mut visit_refreshes = 0u32;
        for lpn in lpns {
            visit_reads += 1;
            self.stats.scrub_reads += 1;
            self.stats.flash_reads += 1;
            time += self.config.latency.timing.read_transfer_latency(0);
            if self.pipelined() {
                ops.push(FlashOp::GcRead { lpn });
            }
            let Some((_, mode)) = self.ftl.placement(lpn) else {
                continue;
            };
            let pe = self.effective_pe(lpn);
            let age = self.reliability.age(lpn);
            let ber = self.reliability.ber(mode, pe, age);
            // The scrubber observes the page as the environment left it —
            // disturb-elevated BER is exactly what it exists to catch.
            let ber = self.environment_read(lpn, ber);
            if ber >= threshold {
                visit_refreshes += 1;
                self.stats.scrub_refreshes += 1;
                self.reliability.refresh(lpn);
                self.environment_program(lpn);
                let cost = self.ftl.write(lpn, mode)?;
                time += self.account(cost, lpn, ops);
            }
        }
        if let Some(o) = self.obs.as_mut() {
            o.scrub(block.0 as u64, visit_reads, visit_refreshes);
        }
        Ok(time)
    }

    /// Which mode a (re)written page should land in.
    fn write_mode(&mut self, lpn: u64) -> CellMode {
        match self.config.scheme {
            Scheme::Baseline | Scheme::LdpcInSsd => CellMode::Normal,
            Scheme::LevelAdjustOnly => {
                // Stay in the block mode the data already occupies; fresh
                // data fills reduced blocks while the cap allows.
                match self.ftl.placement(lpn) {
                    Some((_, mode)) => mode,
                    None if self.ftl.reduced_blocks() < self.max_reduced_blocks => {
                        CellMode::Reduced
                    }
                    None => CellMode::Normal,
                }
            }
            Scheme::FlexLevel => {
                let pooled = self
                    .access_eval
                    .as_ref()
                    .map(|c| matches!(c.placement(lpn), flexlevel::Placement::Reduced))
                    .unwrap_or(false);
                if pooled {
                    CellMode::Reduced
                } else {
                    CellMode::Normal
                }
            }
        }
    }

    /// Applies one AccessEval migration; returns its background cost and
    /// appends its op chain to `ops` under the pipelined model.
    fn apply_migration(
        &mut self,
        migration: Migration,
        ops: &mut Vec<FlashOp>,
    ) -> Result<Micros, SimError> {
        let lpn = migration.lpn();
        let mode = match migration {
            Migration::PromoteToReduced { .. } => CellMode::Reduced,
            Migration::DemoteToNormal { .. } => CellMode::Normal,
        };
        // Read the current copy, then rewrite it in the target mode.
        self.stats.flash_reads += 1;
        if self.pipelined() {
            ops.push(FlashOp::GcRead { lpn });
        }
        let read_cost = self.config.latency.timing.read_transfer_latency(0);
        let cost = self.ftl.write(lpn, mode)?;
        self.environment_program(lpn);
        Ok(read_cost + self.account(cost, lpn, ops))
    }

    /// Converts FTL op counts into device time, folds them into the
    /// statistics, and (pipelined model) appends the matching op chain.
    fn account(&mut self, cost: OpCost, lpn: u64, ops: &mut Vec<FlashOp>) -> Micros {
        if self.pipelined() {
            ops.extend(cost.flash_ops(lpn));
        }
        let t = &self.config.latency.timing;
        self.stats.flash_reads += cost.flash_reads;
        self.stats.flash_programs += cost.programs;
        self.stats.erases += cost.erases;
        self.stats.gc_runs += cost.gc_runs;
        self.stats.gc_migrated_pages += cost.gc_moved;
        t.read_transfer_latency(0) * cost.flash_reads as f64
            + t.program * cost.programs as f64
            + t.erase * cost.erases as f64
    }

    /// Wear of the block holding `lpn` (base device wear plus simulated
    /// erases).
    fn effective_pe(&self, lpn: u64) -> u32 {
        let extra = self
            .ftl
            .placement(lpn)
            .map(|(phys, _)| self.ftl.block_erases(phys.block))
            .unwrap_or(0);
        self.config.base_pe_cycles + extra
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use workloads::WorkloadSpec;

    fn small_trace(requests: u64, footprint: u64) -> Trace {
        WorkloadSpec::fin2()
            .with_requests(requests)
            .with_footprint(footprint)
            .generate(&mut StdRng::seed_from_u64(9))
    }

    fn run_scheme(scheme: Scheme, trace: &Trace) -> SimStats {
        let config = SsdConfig::scaled(scheme, 64);
        let mut sim = SsdSimulator::new(config);
        sim.run(trace).expect("simulation completes").clone()
    }

    #[test]
    fn all_schemes_complete() {
        let trace = small_trace(3_000, 2_000);
        for scheme in Scheme::ALL {
            let stats = run_scheme(scheme, &trace);
            assert_eq!(stats.host_requests(), 3_000, "{}", scheme.label());
            assert!(stats.mean_response().as_f64() > 0.0);
        }
    }

    #[test]
    fn footprint_must_fit() {
        let config = SsdConfig::scaled(Scheme::Baseline, 16);
        let capacity = config.geometry.logical_pages();
        let trace = small_trace(10, capacity + 1);
        let mut sim = SsdSimulator::new(config);
        assert!(matches!(
            sim.run(&trace),
            Err(SimError::FootprintTooLarge { .. })
        ));
    }

    #[test]
    fn unsorted_arrivals_are_rejected_on_both_backends() {
        use crate::config::TimingModel;
        let request = |arrival_us, lpn| IoRequest {
            arrival_us,
            lpn,
            pages: 1,
            op: IoOp::Read,
        };
        let trace = Trace {
            name: "unsorted".to_string(),
            footprint_pages: 64,
            requests: vec![
                request(10.0, 1),
                request(20.0, 2),
                request(20.0, 3),
                request(15.0, 4),
                request(30.0, 5),
            ],
        };
        for model in [TimingModel::SingleQueue, TimingModel::Pipelined] {
            let config = SsdConfig::scaled(Scheme::FlexLevel, 16).with_timing_model(model);
            let mut sim = SsdSimulator::new(config);
            let err = sim.run(&trace).expect_err("out-of-order arrival");
            assert_eq!(err, SimError::UnsortedArrivals { index: 3 }, "{model:?}");
            assert!(err.to_string().contains("request 3"));
            assert!(std::error::Error::source(&err).is_none());
            // Equal arrivals are in order: the prefix before the bad
            // request was served.
            assert_eq!(sim.stats().host_reads, 3);
        }
    }

    #[test]
    fn measured_iterations_profile_changes_read_latency() {
        // A profile pinning every depth at the minimum iteration count
        // must make reads cheaper than the BER heuristic (which charges
        // ≥ 2 iterations and grows with BER); the default (None) keeps
        // the heuristic byte-for-byte (covered by the golden test).
        use ldpc::IterationProfile;
        let trace = small_trace(3_000, 2_000);
        let heuristic = run_scheme(Scheme::LdpcInSsd, &trace).mean_response();
        let fast_profile = IterationProfile::new([1.0; IterationProfile::SLOTS]);
        let config =
            SsdConfig::scaled(Scheme::LdpcInSsd, 64).with_measured_iterations(fast_profile);
        let mut sim = SsdSimulator::new(config);
        let measured = sim
            .run(&trace)
            .expect("simulation completes")
            .mean_response();
        assert!(
            measured < heuristic,
            "single-iteration profile {measured} must beat heuristic {heuristic}"
        );
    }

    #[test]
    fn baseline_slowest_flexlevel_fastest() {
        // The Figure 6(a) ordering: baseline ≫ LDPC-in-SSD > FlexLevel,
        // with LevelAdjust-only above LDPC-in-SSD (GC thrash).
        let trace = small_trace(6_000, 2_500);
        let base = run_scheme(Scheme::Baseline, &trace).mean_response();
        let ldpc = run_scheme(Scheme::LdpcInSsd, &trace).mean_response();
        let flex = run_scheme(Scheme::FlexLevel, &trace).mean_response();
        assert!(
            base > ldpc,
            "baseline {base} must exceed LDPC-in-SSD {ldpc}"
        );
        assert!(
            ldpc > flex,
            "LDPC-in-SSD {ldpc} must exceed FlexLevel {flex}"
        );
    }

    #[test]
    fn flexlevel_promotes_hot_data() {
        let trace = small_trace(8_000, 1_000);
        let stats = run_scheme(Scheme::FlexLevel, &trace);
        assert!(stats.promotions > 0, "hot data must get promoted");
        assert!(stats.reduced_reads > 0, "pooled reads must be served");
    }

    #[test]
    fn flexlevel_writes_exceed_ldpc_in_ssd() {
        // Figure 7(a): migrations cost extra programs.
        let trace = small_trace(8_000, 1_000);
        let ldpc = run_scheme(Scheme::LdpcInSsd, &trace);
        let flex = run_scheme(Scheme::FlexLevel, &trace);
        assert!(
            flex.flash_programs >= ldpc.flash_programs,
            "FlexLevel programs {} must not be below LDPC-in-SSD {}",
            flex.flash_programs,
            ldpc.flash_programs
        );
    }

    #[test]
    fn level_adjust_only_garbage_collects_more() {
        // Figure 6(a)'s explanation: LevelAdjust-only loses
        // over-provisioning and thrashes GC under write pressure.
        let spec = WorkloadSpec::prj1() // write-heavy
            .with_requests(6_000)
            .with_footprint(2_500);
        let trace = spec.generate(&mut StdRng::seed_from_u64(5));
        let ldpc = run_scheme(Scheme::LdpcInSsd, &trace);
        let la_only = run_scheme(Scheme::LevelAdjustOnly, &trace);
        assert!(
            la_only.erases > ldpc.erases,
            "LevelAdjust-only erases {} must exceed LDPC-in-SSD {}",
            la_only.erases,
            ldpc.erases
        );
    }

    #[test]
    fn buffer_absorbs_rewrites() {
        let trace = small_trace(4_000, 500);
        let stats = run_scheme(Scheme::LdpcInSsd, &trace);
        assert!(
            stats.buffer_read_hits > 0,
            "hot reads should hit the buffer"
        );
    }

    #[test]
    fn lower_wear_needs_less_sensing() {
        // Figure 6(b) mechanism: at lower P/E the schedule demands fewer
        // levels, shrinking the baseline/FlexLevel gap.
        let trace = small_trace(4_000, 2_000);
        let young = {
            let config = SsdConfig::scaled(Scheme::LdpcInSsd, 64).with_base_pe(3000);
            let mut sim = SsdSimulator::new(config);
            sim.run(&trace).unwrap().clone()
        };
        let old = {
            let config = SsdConfig::scaled(Scheme::LdpcInSsd, 64).with_base_pe(6000);
            let mut sim = SsdSimulator::new(config);
            sim.run(&trace).unwrap().clone()
        };
        assert!(old.soft_read_fraction() > young.soft_read_fraction());
        assert!(old.mean_read_response() > young.mean_read_response());
    }

    #[test]
    fn deterministic_given_seed() {
        let trace = small_trace(2_000, 1_000);
        let a = run_scheme(Scheme::FlexLevel, &trace);
        let b = run_scheme(Scheme::FlexLevel, &trace);
        assert_eq!(a, b);
    }

    #[test]
    fn pipelined_matches_logical_counters_and_reports_stages() {
        use crate::config::TimingModel;
        let trace = small_trace(3_000, 1_500);
        let single = run_scheme(Scheme::FlexLevel, &trace);
        let config =
            SsdConfig::scaled(Scheme::FlexLevel, 64).with_timing_model(TimingModel::Pipelined);
        let mut sim = SsdSimulator::new(config);
        let piped = sim.run(&trace).expect("pipelined run completes").clone();
        // The logical layer is shared: every operation counter matches
        // the single-queue run exactly.
        assert_eq!(piped.host_reads, single.host_reads);
        assert_eq!(piped.host_writes, single.host_writes);
        assert_eq!(piped.buffer_read_hits, single.buffer_read_hits);
        assert_eq!(piped.flash_reads, single.flash_reads);
        assert_eq!(piped.flash_programs, single.flash_programs);
        assert_eq!(piped.erases, single.erases);
        assert_eq!(piped.gc_runs, single.gc_runs);
        assert_eq!(piped.gc_migrated_pages, single.gc_migrated_pages);
        assert_eq!(piped.promotions, single.promotions);
        assert_eq!(piped.reduced_reads, single.reduced_reads);
        assert_eq!(piped.reads_by_sensing_level, single.reads_by_sensing_level);
        // Per-stage accounting is populated (and absent in single-queue).
        use crate::pipeline::StageKind;
        assert_eq!(piped.stage_sense.ops, piped.flash_reads);
        assert!(piped.stage_transfer.ops > 0);
        assert!(piped.stage_decode.ops > 0);
        assert!(piped.stage_sense.busy_us > 0.0);
        assert!(piped.makespan_us > 0.0);
        assert!(piped.throughput_rps() > 0.0);
        assert!(piped.stage_utilization(StageKind::Sense, 4) > 0.0);
        assert_eq!(single.stage_sense.ops, 0);
        assert!(single.makespan_us > 0.0);
        // Every host request got a response.
        assert_eq!(piped.responses_seen, 3_000);
    }

    #[test]
    fn pipelined_deterministic_across_runs() {
        use crate::config::TimingModel;
        let trace = small_trace(2_000, 1_000);
        let run = || {
            let config = SsdConfig::scaled(Scheme::FlexLevel, 64)
                .with_timing_model(TimingModel::Pipelined)
                .with_dies_per_channel(4)
                .with_decoder_slots(2);
            let mut sim = SsdSimulator::new(config);
            sim.run(&trace).expect("run completes").clone()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn nunma3_pool_beats_nunma1_pool() {
        // The NUNMA ablation in miniature: weaker reduced-state voltages
        // leave pooled pages needing soft sensing at high stress, so a
        // NUNMA1 FlexLevel deployment must not beat NUNMA3.
        let trace = small_trace(6_000, 1_500);
        let run = |nunma| {
            let mut config = SsdConfig::scaled(Scheme::FlexLevel, 64);
            config.nunma = nunma;
            let mut sim = SsdSimulator::new(config);
            sim.run(&trace).unwrap().mean_response().as_f64()
        };
        let n1 = run(flexlevel::NunmaScheme::Nunma1);
        let n3 = run(flexlevel::NunmaScheme::Nunma3);
        assert!(n3 <= n1, "NUNMA3 {n3} must not lose to NUNMA1 {n1}");
    }

    #[test]
    fn wear_aware_policy_runs_and_matches_host_counters() {
        let trace = small_trace(3_000, 1_200);
        let mut config = SsdConfig::scaled(Scheme::LdpcInSsd, 64);
        config.gc_policy = crate::ftl::GcPolicy::WearAware;
        let mut sim = SsdSimulator::new(config);
        let stats = sim.run(&trace).unwrap().clone();
        assert_eq!(stats.host_requests(), 3_000);
        let (lo, hi) = sim.ftl().erase_spread();
        assert!(lo <= hi);
    }

    #[test]
    fn more_channels_reduce_queueing() {
        let trace = small_trace(6_000, 2_000);
        let run = |channels: u32| {
            let config = SsdConfig::scaled(Scheme::Baseline, 64).with_channels(channels);
            let mut sim = SsdSimulator::new(config);
            sim.run(&trace).unwrap().mean_response().as_f64()
        };
        let one = run(1);
        let four = run(4);
        assert!(
            four < one,
            "4 channels ({four}) must beat 1 channel ({one}) under load"
        );
    }

    #[test]
    fn stats_are_internally_consistent() {
        let trace = small_trace(5_000, 1_500);
        let stats = run_scheme(Scheme::FlexLevel, &trace);
        // Sensing histogram covers exactly the normal-page host reads.
        let histogram: u64 = stats.reads_by_sensing_level.iter().sum();
        assert!(
            histogram + stats.reduced_reads + stats.buffer_read_hits >= stats.host_reads,
            "every host read is a buffer hit, a reduced read, or a sensed read"
        );
        // GC relocations are included in flash programs.
        assert!(stats.flash_programs >= stats.gc_migrated_pages);
        // Erases equal GC runs in this FTL (one victim per run).
        assert_eq!(stats.erases, stats.gc_runs);
    }
}
