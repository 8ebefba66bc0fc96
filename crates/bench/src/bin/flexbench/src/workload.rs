//! The four workloads and what one rep of each does, through the public
//! APIs of `workloads`, `ldpc`, `ssd` and `obs`.
//!
//! A rep runs in its own child process (see `main.rs`), so its peak RSS
//! and its set-up cost (the LDPC channel cache is process-wide) belong to
//! that rep alone. Every rep records spans around each call it makes; the
//! `setup` and `timed` spans define `setup_s` and the timed phase.

use std::sync::Arc;

use flash_model::{Hours, LevelConfig};
use ldpc::{
    measure_iteration_profile, ChannelStress, FarmConfig, IterationProfile, LlrQuantizer,
    MlcReadChannel, PageKind, QcLdpcCode, QuantizedMinSumDecoder, Schedule, SoftSensingConfig,
};
use obs::{critical_path, export, Recorder};
use rand::{rngs::StdRng, SeedableRng};
use ssd::{
    DeviceImage, OverloadPolicy, ScenarioSpec, Scheme, ServeOptions, SimObserver, SimStats,
    SsdConfig, SsdSimulator, StageKind, TenantQos, TimingModel,
};
use workloads::{OpenLoopSource, TenantWorkload, Trace, WorkloadSpec};

use crate::json::{self, Json};
use crate::spans::{self, Span, Spans};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ReadHot,
    WriteChurn,
    PipelinedBurst,
    ServeHostile,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ReadHot,
        Workload::WriteChurn,
        Workload::PipelinedBurst,
        Workload::ServeHostile,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadHot => "read-hot",
            Workload::WriteChurn => "write-churn",
            Workload::PipelinedBurst => "pipelined-burst",
            Workload::ServeHostile => "serve-hostile",
        }
    }

    /// Why the workload is in the benchmark (one line; mirrored in
    /// `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::ReadHot => {
                "99% Zipf reads: stresses the read path and AccessEval where the paper's \
                 headline gap lives, while the FTL barely collects garbage"
            }
            Workload::WriteChurn => {
                "65% writes with a checkpoint/restore mid-run: buffer, GC and recovery dominate, \
                 and FlexLevel loses here"
            }
            Workload::PipelinedBurst => {
                "read burst at half the modelled saturation on the pipelined backend: the event \
                 queue and resource pools do the work, and memory grows with trace length"
            }
            Workload::ServeHostile => {
                "4 open-loop tenants under the hostile scenario with observer and exports: \
                 admission, fault recovery, LDPC calibration and obs run only here"
            }
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// What a child process is asked to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// One measured rep.
    Timed,
    /// One rep with a `SimObserver` attached, for the critical-path split.
    Traced,
    /// The runs the output checks compare the timed reps against.
    Reference,
    /// LDPC-in-SSD on the same input, plus the rate ladder.
    Comparison,
}

impl Mode {
    pub const ALL: [Mode; 4] = [Mode::Timed, Mode::Traced, Mode::Reference, Mode::Comparison];

    pub fn name(self) -> &'static str {
        match self {
            Mode::Timed => "timed",
            Mode::Traced => "traced",
            Mode::Reference => "reference",
            Mode::Comparison => "comparison",
        }
    }

    pub fn parse(name: &str) -> Option<Mode> {
        Mode::ALL.into_iter().find(|m| m.name() == name)
    }
}

const BLOCKS: u32 = 128;
/// Seed of the simulated device (data ages) and of its LDPC calibration.
/// `--seed` varies the workload's inputs, not the device under test.
const DEVICE_SEED: u64 = 7;
const BASE_PE: u32 = 6000;
/// Spans the traced replay pass keeps for the critical-path split.
const TRACED_SPAN_SAMPLE: usize = 10_000;
/// Offered rates of the `pipelined-burst` ladder (req/s).
const LADDER_RATES: [f64; 6] = [2000.0, 2500.0, 3000.0, 3500.0, 4000.0, 4500.0];
/// A ladder rung passes when its p99 stays within this limit (µs) ...
const LADDER_P99_LIMIT_US: f64 = 10_000.0;
/// ... and the device keeps up with this share of the offered rate.
const LADDER_KEEP_UP: f64 = 0.98;
/// Sizes are divided by this in `--quick` mode.
const QUICK_DIVISOR: u64 = 100;

/// Every parameter of one workload at one size. Its `Debug` form is the
/// workload fingerprint `compare` checks, so every knob a rep reads lives
/// here.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    pub workload: Workload,
    /// Seed of this workload's inputs, derived from `--seed` and the name.
    pub seed: u64,
    pub device_seed: u64,
    /// Requests offered per rep (all tenants together).
    pub requests: u64,
    pub blocks: u32,
    pub base_pe: u32,
    /// Share of the logical pages the inputs touch, in percent.
    pub footprint_pct: u64,
    /// Replay: `WorkloadSpec` the trace is drawn from.
    pub spec: &'static str,
    pub interarrival_scale: f64,
    pub timing: TimingModel,
    pub dies_per_channel: u32,
    pub decoder_slots: u32,
    /// Serving: tenants, each with its own rate (req/s).
    pub tenants: u32,
    pub tenant_rate: f64,
    pub queue_depth: u32,
    pub slo_us: f64,
    pub span_sample: usize,
    pub series_interval_us: u64,
    /// LDPC calibration frames per sensing depth (0 = no calibration).
    pub calibration_trials: u32,
    /// Requests per rung of the rate ladder (0 = no ladder).
    pub ladder_requests: u64,
}

impl Plan {
    pub fn new(workload: Workload, seed: u64, quick: bool) -> Plan {
        let divisor = if quick { QUICK_DIVISOR } else { 1 };
        let base = Plan {
            workload,
            seed: sub_seed(seed, workload.name()),
            device_seed: DEVICE_SEED,
            requests: 0,
            blocks: BLOCKS,
            base_pe: BASE_PE,
            footprint_pct: 70,
            spec: "web-1",
            interarrival_scale: 2.2,
            timing: TimingModel::SingleQueue,
            dies_per_channel: 4,
            decoder_slots: 2,
            tenants: 0,
            tenant_rate: 0.0,
            queue_depth: 0,
            slo_us: 0.0,
            span_sample: 0,
            series_interval_us: 0,
            calibration_trials: 0,
            ladder_requests: 0,
        };
        match workload {
            Workload::ReadHot => Plan {
                requests: 3_000_000 / divisor,
                ..base
            },
            Workload::WriteChurn => Plan {
                requests: 2_000_000 / divisor,
                spec: "prj-1",
                ..base
            },
            // Interarrival scale 0.3 offers about 2.2 k req/s, half the
            // modelled saturation; at 0.2 (3.3 k req/s) the tail swings by
            // a factor of two from seed to seed.
            Workload::PipelinedBurst => Plan {
                requests: 500_000 / divisor,
                interarrival_scale: 0.3,
                timing: TimingModel::Pipelined,
                ladder_requests: 100_000 / divisor,
                ..base
            },
            // 50 % footprint: at 70 % block retirement ends the run with
            // OutOfSpace. 500 k requests: at 2 M, 70 of 128 blocks retire
            // and the mean read swings by 45 % from seed to seed. 100 ms
            // series windows: at 1 ms the exports of 2 M requests took
            // 46 s and 8 GB.
            Workload::ServeHostile => Plan {
                requests: 500_000 / divisor,
                footprint_pct: 50,
                spec: "fin-2",
                tenants: 4,
                tenant_rate: 150.0,
                queue_depth: 32,
                slo_us: 2_000.0,
                span_sample: 1_000,
                series_interval_us: 100_000,
                calibration_trials: 16,
                ..base
            },
        }
    }

    /// Hex FNV-1a hash of every parameter except the input seed.
    pub fn fingerprint(&self) -> String {
        let unseeded = Plan {
            seed: 0,
            ..self.clone()
        };
        format!("{:016x}", fnv1a(format!("{unseeded:?}").as_bytes()))
    }

    fn workload_spec(&self) -> WorkloadSpec {
        WorkloadSpec::paper_suite()
            .into_iter()
            .find(|s| s.name == self.spec)
            .expect("plan names a paper workload")
    }

    fn footprint_pages(&self) -> u64 {
        let logical = SsdConfig::scaled(Scheme::FlexLevel, self.blocks)
            .geometry
            .logical_pages();
        logical * self.footprint_pct / 100
    }

    fn config(&self, scheme: Scheme, timing: TimingModel) -> SsdConfig {
        SsdConfig::scaled(scheme, self.blocks)
            .with_base_pe(self.base_pe)
            .with_seed(self.device_seed)
            .with_threads(1)
            .with_timing_model(timing)
            .with_dies_per_channel(self.dies_per_channel)
            .with_decoder_slots(self.decoder_slots)
    }

    fn serve_config(&self, scheme: Scheme, profile: IterationProfile) -> SsdConfig {
        ScenarioSpec::find("hostile")
            .expect("hostile scenario is registered")
            .apply(
                self.config(scheme, self.timing)
                    .with_measured_iterations(profile),
            )
    }

    fn trace(&self) -> Trace {
        self.workload_spec()
            .with_requests(self.requests)
            .with_footprint(self.footprint_pages())
            .with_interarrival_scale(self.interarrival_scale)
            .generate(&mut StdRng::seed_from_u64(self.seed))
    }

    /// Disjoint working sets, together covering the footprint, each with
    /// the workload spec's read mix, skew and request size.
    fn source(&self) -> OpenLoopSource {
        let spec = self.workload_spec();
        let working_set = self.footprint_pages() / u64::from(self.tenants);
        let per_tenant = self.requests / u64::from(self.tenants);
        let tenants = (0..u64::from(self.tenants))
            .map(|t| {
                TenantWorkload::new(t * working_set, working_set, self.tenant_rate)
                    .with_read_fraction(spec.read_fraction)
                    .with_zipf_theta(spec.zipf_theta)
                    .with_mean_request_pages(spec.mean_request_pages)
                    .with_requests(per_tenant)
            })
            .collect();
        OpenLoopSource::new(tenants, self.seed)
    }

    fn serve_options(&self) -> ServeOptions {
        let qos = TenantQos::default()
            .with_queue_depth(self.queue_depth)
            .with_policy(OverloadPolicy::Drop)
            .with_slo_us(self.slo_us);
        ServeOptions::uniform(self.tenants, qos)
    }

    fn calibration_frames(&self) -> u64 {
        IterationProfile::SLOTS as u64 * u64::from(self.calibration_trials)
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The seed of one workload's inputs: `--seed` mixed with the name, so
/// workloads sharing a seed do not share a random stream.
fn sub_seed(seed: u64, name: &str) -> u64 {
    let mut z = seed ^ fnv1a(name.as_bytes());
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What one child reports: named numbers, digests the parent compares
/// across reps and passes, failed output checks, and its spans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RepOutput {
    pub values: Vec<(String, f64)>,
    pub digests: Vec<(String, String)>,
    pub failures: Vec<String>,
    /// Set when the simulator returned an error; the rep counts as failed.
    pub error: Option<String>,
    pub spans: Vec<Span>,
}

impl RepOutput {
    fn set(&mut self, name: &str, value: f64) {
        self.values.push((name.to_string(), value));
    }

    fn digest(&mut self, name: &str, value: u64) {
        self.digests
            .push((name.to_string(), format!("{value:016x}")));
    }

    fn check(&mut self, ok: bool, failure: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(failure());
        }
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    pub fn digest_of(&self, name: &str) -> Option<&str> {
        self.digests
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn span_seconds(&self, name: &str) -> f64 {
        spans::seconds(&self.spans, name)
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "values",
                Json::obj(self.values.iter().map(|(k, v)| (k.clone(), Json::Num(*v)))),
            ),
            (
                "digests",
                Json::obj(self.digests.iter().map(|(k, v)| (k.clone(), Json::str(v)))),
            ),
            (
                "failures",
                Json::Arr(self.failures.iter().map(Json::str).collect()),
            ),
            ("error", self.error.as_ref().map_or(Json::Null, Json::str)),
            ("spans", spans::to_json(&self.spans)),
        ])
    }

    pub fn from_json(value: &Json) -> Result<RepOutput, String> {
        let object = |key: &str| {
            value
                .get(key)
                .and_then(Json::as_object)
                .ok_or_else(|| format!("rep output: missing {key}"))
        };
        let values = object("values")?
            .iter()
            .map(|(k, v)| {
                Ok((
                    k.clone(),
                    v.as_f64().ok_or("rep output: non-numeric value")?,
                ))
            })
            .collect::<Result<_, String>>()?;
        let digests = object("digests")?
            .iter()
            .map(|(k, v)| {
                Ok((
                    k.clone(),
                    v.as_str().ok_or("rep output: bad digest")?.to_string(),
                ))
            })
            .collect::<Result<_, String>>()?;
        let failures = value
            .get("failures")
            .and_then(Json::as_array)
            .ok_or("rep output: missing failures")?
            .iter()
            .map(|f| {
                f.as_str()
                    .map(str::to_string)
                    .ok_or("rep output: bad failure")
            })
            .collect::<Result<_, _>>()?;
        Ok(RepOutput {
            values,
            digests,
            failures,
            error: value
                .get("error")
                .and_then(Json::as_str)
                .map(str::to_string),
            spans: spans::from_json(value.get("spans").ok_or("rep output: missing spans")?)?,
        })
    }
}

/// Runs one rep of `plan` in this process.
pub fn run_rep(plan: &Plan, mode: Mode) -> RepOutput {
    let mut out = RepOutput::default();
    let mut rec = Spans::new();
    let result = rec.span("rep", |rec| match (plan.workload, mode) {
        (_, Mode::Comparison) => comparison(plan, rec, &mut out),
        (Workload::ServeHostile, Mode::Reference) => serve_reference(plan, rec, &mut out),
        (_, Mode::Reference) => replay_reference(plan, rec, &mut out),
        (Workload::ServeHostile, _) => serve_rep(plan, rec, &mut out),
        (Workload::WriteChurn, _) => split_rep(plan, mode == Mode::Traced, rec, &mut out),
        (_, _) => replay_rep(plan, mode == Mode::Traced, rec, &mut out),
    });
    out.error = result.err();
    out.spans = rec.into_vec();
    if matches!(mode, Mode::Timed | Mode::Traced) && out.error.is_none() {
        let setup_s = out.span_seconds("setup");
        let timed_s = out.span_seconds("timed");
        out.set("setup_s", setup_s);
        out.set("timed_s", timed_s);
        out.set("sim_rps", plan.requests as f64 / timed_s);
        host_layer_values(plan, &mut out);
    }
    if mode == Mode::Reference {
        let run_s = out.span_seconds("sim.run") + out.span_seconds("sim.serve");
        out.set("reference.run_s", run_s);
    }
    if let Some(mb) = peak_rss_mb() {
        out.set("peak_rss_mb", mb);
    }
    out
}

/// This process's peak resident set (`VmHWM`), in MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib * 1024.0 / 1e6)
}

/// Per-layer host times, from the spans of one rep. A layer the rep did
/// not call reads 0.
fn host_layer_values(plan: &Plan, out: &mut RepOutput) {
    let sum = |out: &RepOutput, names: &[&str]| -> f64 {
        names.iter().map(|name| out.span_seconds(name)).sum()
    };
    let from_spans: [(&str, &[&str]); 13] = [
        (
            "workloads.gen_s",
            &["workloads.generate", "workloads.source"],
        ),
        ("sim.new_s", &["sim.new"]),
        (
            "sim.run_s",
            &["sim.run", "sim.serve", "sim.run_prefix", "sim.resume"],
        ),
        ("recovery.prefix_s", &["sim.run_prefix"]),
        (
            "recovery.checkpoint_s",
            &["sim.checkpoint", "image.to_bytes"],
        ),
        ("recovery.restore_s", &["image.from_bytes", "sim.restore"]),
        ("recovery.resume_s", &["sim.resume"]),
        ("ldpc.calibrate_s", &["ldpc.calibrate"]),
        (
            "reliability.channel_build_s",
            &["reliability.channel_build"],
        ),
        ("obs.finish_s", &["obs.finish"]),
        ("obs.export_prom_s", &["export.prometheus"]),
        ("obs.export_chrome_s", &["export.chrome"]),
        ("obs.export_series_s", &["export.series"]),
    ];
    for (metric, names) in from_spans {
        let seconds = sum(out, names);
        out.set(metric, seconds);
    }
    let offered = plan.requests as f64;
    // The serving source is lazy: its generation cost lands in `sim.run_s`.
    let gen_s = sum(out, &["workloads.generate"]);
    out.set(
        "workloads.gen_req_per_s",
        if gen_s > 0.0 { offered / gen_s } else { 0.0 },
    );
    out.set(
        "sim.ns_per_req",
        out.value("sim.run_s").unwrap_or(0.0) * 1e9 / offered,
    );
    if plan.calibration_trials > 0 {
        let decode_s = sum(out, &["ldpc.calibrate"]) - sum(out, &["reliability.channel_build"]);
        let frames = plan.calibration_frames() as f64;
        out.set("ldpc.decode_s", decode_s);
        out.set("ldpc.frames", frames);
        out.set("ldpc.frames_per_s", frames / decode_s);
    }
}

/// Modelled end-to-end and per-layer values, and the digests the parent
/// compares across reps and passes.
fn modelled_values(plan: &Plan, stats: &SimStats, sim: &SsdSimulator, out: &mut RepOutput) {
    out.set("read_mean_us", stats.mean_read_response().as_f64());
    out.set("resp_p999_us", stats.response_percentile(0.999).as_f64());
    out.set("modelled_rps", stats.throughput_rps());
    out.set(
        "write_amp",
        stats.write_amplification(sim.host_pages_written()),
    );
    out.set(
        "capacity_loss_pct",
        f64::from(sim.ftl().reduced_blocks()) * 25.0 / f64::from(plan.blocks),
    );

    out.set("ftl.gc_runs", stats.gc_runs as f64);
    out.set("ftl.gc_migrated_pages", stats.gc_migrated_pages as f64);
    out.set("ftl.erases", stats.erases as f64);
    out.set("ftl.flash_programs", stats.flash_programs as f64);
    out.set(
        "ftl.flash_reads_per_host_read",
        ratio(stats.flash_reads, stats.host_reads),
    );
    let frames = stats.decoded_frames();
    out.set(
        "buffer.read_hit_frac",
        ratio(stats.buffer_read_hits, stats.buffer_read_hits + frames),
    );
    out.set("accesseval.promotions", stats.promotions as f64);
    out.set("accesseval.demotions", stats.demotions as f64);
    out.set(
        "accesseval.reduced_read_frac",
        ratio(stats.reduced_reads, frames),
    );
    out.set("ldpc.soft_read_frac", stats.soft_read_fraction());

    out.set("faults.retry_reads", stats.retry_reads as f64);
    out.set("faults.recovered_reads", stats.recovered_reads as f64);
    out.set(
        "faults.uncorrectable_reads",
        stats.uncorrectable_reads as f64,
    );
    out.set("faults.recovery_latency_us", stats.recovery_latency_us);
    out.set("faults.die_resets", stats.die_resets as f64);
    out.set("faults.retired_blocks", stats.retired_blocks as f64);
    out.set("faults.scrub_refreshes", stats.scrub_refreshes as f64);

    if !stats.tenants.is_empty() {
        let sum = |f: fn(&ssd::TenantStats) -> u64| stats.tenants.iter().map(f).sum::<u64>();
        let (arrivals, served) = (sum(|t| t.arrivals), sum(|t| t.served));
        let (dropped, violations) = (sum(|t| t.dropped), sum(|t| t.slo_violations));
        out.set("serve.dropped", dropped as f64);
        out.set("serve.slo_violations", violations as f64);
        out.set(
            "serve.worst_tenant_p99_us",
            stats
                .tenants
                .iter()
                .map(|t| t.p99().as_f64())
                .fold(0.0, f64::max),
        );
        let met = served.saturating_sub(violations + stats.uncorrectable_reads);
        out.set("serve.slo_met_frac", ratio(met, arrivals));
        out.set(
            "serve.failed_frac",
            ratio(dropped + stats.uncorrectable_reads, arrivals),
        );
    }

    for kind in StageKind::ALL {
        let account = stats.stage(kind);
        let label = kind.label();
        out.set(&format!("stage.{label}.ops"), account.ops as f64);
        out.set(&format!("stage.{label}.busy_us"), account.busy_us);
        out.set(&format!("stage.{label}.wait_us"), account.wait_us);
    }

    out.digest("stats", stats_digest(stats));
    out.digest("ftl", sim.ftl().digest());
    out.digest("logical", logical_digest(stats));
}

/// Digest of every statistic (`f64` `Debug` output round-trips, so equal
/// digests mean equal `SimStats`).
fn stats_digest(stats: &SimStats) -> u64 {
    fnv1a(format!("{stats:?}").as_bytes())
}

/// Digest of the logical counters, which both timing backends must agree
/// on.
fn logical_digest(stats: &SimStats) -> u64 {
    let counters = [
        stats.host_reads,
        stats.host_writes,
        stats.buffer_read_hits,
        stats.flash_reads,
        stats.flash_programs,
        stats.erases,
        stats.gc_runs,
        stats.gc_migrated_pages,
        stats.promotions,
        stats.demotions,
        stats.reduced_reads,
    ];
    fnv1a(format!("{counters:?}{:?}", stats.reads_by_sensing_level).as_bytes())
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Output checks every completed run must pass.
fn check_run(plan: &Plan, stats: &SimStats, sim: &SsdSimulator, out: &mut RepOutput) {
    if let Err(e) = sim.ftl().check_invariants() {
        out.failures.push(format!("ftl invariants: {e}"));
    }
    let served = stats.host_requests();
    if stats.tenants.is_empty() {
        out.check(served == plan.requests, || {
            format!(
                "conservation: served {served} of {} requests",
                plan.requests
            )
        });
        return;
    }
    let mut arrivals = 0;
    let mut tenant_served = 0;
    for (i, t) in stats.tenants.iter().enumerate() {
        out.check(t.arrivals == t.served + t.dropped, || {
            format!(
                "conservation: tenant {i} arrivals {} != served {} + dropped {}",
                t.arrivals, t.served, t.dropped
            )
        });
        arrivals += t.arrivals;
        tenant_served += t.served;
    }
    out.check(arrivals == plan.requests && tenant_served == served, || {
        format!(
            "conservation: {arrivals} arrivals of {} offered, tenants served {tenant_served}, \
                 device served {served}",
            plan.requests
        )
    });
}

/// Critical-path split of the observer's read spans.
fn path_values(recorder: &Recorder, out: &mut RepOutput) {
    let sorted = recorder.spans.sorted_spans();
    let Some(attribution) = critical_path(&sorted).into_iter().next() else {
        return;
    };
    for (prefix, c) in [
        ("path.mean", attribution.mean),
        ("path.p99", attribution.tail),
    ] {
        for (name, value) in [
            ("queue_us", c.queue_us),
            ("sense_us", c.sense_us),
            ("transfer_us", c.transfer_us),
            ("decode_us", c.decode_us),
            ("retry_us", c.retry_us),
            ("die_reset_us", c.die_reset_us),
            ("wait_us", c.wait_us),
        ] {
            out.set(&format!("{prefix}.{name}"), value);
        }
    }
}

fn sim_error(e: impl std::fmt::Display) -> String {
    format!("simulator: {e}")
}

/// `read-hot` and `pipelined-burst`: one replay of the trace.
fn replay_rep(
    plan: &Plan,
    traced: bool,
    rec: &mut Spans,
    out: &mut RepOutput,
) -> Result<(), String> {
    let (trace, mut sim) = rec.span("setup", |rec| {
        let trace = rec.span("workloads.generate", |_| plan.trace());
        let mut sim = rec.span("sim.new", |_| {
            SsdSimulator::new(plan.config(Scheme::FlexLevel, plan.timing))
        });
        if traced {
            sim.attach_observer(SimObserver::new(Scheme::FlexLevel, TRACED_SPAN_SAMPLE));
        }
        (trace, sim)
    });
    rec.span("timed", |rec| {
        rec.span("sim.run", |_| sim.run(&trace).map(|_| ()))
    })
    .map_err(sim_error)?;
    let stats = sim.stats().clone();
    modelled_values(plan, &stats, &sim, out);
    check_run(plan, &stats, &sim, out);
    if let Some(observer) = sim.take_observer() {
        path_values(&observer.into_recorder(), out);
    }
    Ok(())
}

/// `write-churn`: serve half the trace, checkpoint, serialize, restore and
/// resume; all of it is the timed phase.
fn split_rep(
    plan: &Plan,
    traced: bool,
    rec: &mut Spans,
    out: &mut RepOutput,
) -> Result<(), String> {
    let observer = || SimObserver::new(Scheme::FlexLevel, TRACED_SPAN_SAMPLE);
    let config = plan.config(Scheme::FlexLevel, plan.timing);
    let (trace, mut sim) = rec.span("setup", |rec| {
        let trace = rec.span("workloads.generate", |_| plan.trace());
        let mut sim = rec.span("sim.new", |_| SsdSimulator::new(config.clone()));
        if traced {
            sim.attach_observer(observer());
        }
        (trace, sim)
    });
    let mut recorder = Recorder::new();
    let image_bytes = rec.span("timed", |rec| -> Result<usize, String> {
        rec.span("sim.run_prefix", |_| {
            sim.run_prefix(&trace, plan.requests / 2).map(|_| ())
        })
        .map_err(sim_error)?;
        let image = rec
            .span("sim.checkpoint", |_| sim.checkpoint())
            .map_err(sim_error)?;
        let bytes = rec.span("image.to_bytes", |_| image.to_bytes());
        let image = rec
            .span("image.from_bytes", |_| DeviceImage::from_bytes(&bytes))
            .map_err(sim_error)?;
        if let Some(o) = sim.take_observer() {
            recorder.merge(&o.into_recorder());
        }
        sim = rec
            .span("sim.restore", |_| {
                SsdSimulator::restore(config.clone(), &image)
            })
            .map_err(sim_error)?;
        if traced {
            sim.attach_observer(observer());
        }
        rec.span("sim.resume", |_| sim.resume(&trace).map(|_| ()))
            .map_err(sim_error)?;
        Ok(bytes.len())
    })?;
    out.set("recovery.image_bytes", image_bytes as f64);
    let stats = sim.stats().clone();
    modelled_values(plan, &stats, &sim, out);
    check_run(plan, &stats, &sim, out);
    if let Some(o) = sim.take_observer() {
        recorder.merge(&o.into_recorder());
        path_values(&recorder, out);
    }
    Ok(())
}

/// Calibrates the decode-iteration profile with the real quantized
/// decoder, as `flexlevel-sim --measured-iterations` does, timing each
/// channel build inside the closure.
fn calibrate(plan: &Plan, rec: &mut Spans) -> IterationProfile {
    let stress = ChannelStress::retention(plan.base_pe, Hours::months(1.0));
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    rec.span("ldpc.calibrate", |rec| {
        measure_iteration_profile(
            &QcLdpcCode::paper_code(),
            &QuantizedMinSumDecoder::new().with_schedule(Schedule::Layered),
            &LlrQuantizer::default(),
            (IterationProfile::SLOTS - 1) as u32,
            plan.calibration_trials,
            plan.device_seed,
            FarmConfig::default().with_workers(workers as u32),
            |extra| -> Arc<MlcReadChannel> {
                rec.span("reliability.channel_build", |_| {
                    MlcReadChannel::build_cached(
                        &LevelConfig::normal_mlc(),
                        PageKind::Lower,
                        stress,
                        SoftSensingConfig::soft(extra),
                        20_000,
                        plan.device_seed ^ 0xCA11_B8A7 ^ u64::from(extra),
                    )
                })
            },
        )
        .0
    })
}

/// `serve-hostile`: open-loop tenants through admission control, with the
/// observer attached and its exports rendered to strings.
fn serve_rep(plan: &Plan, rec: &mut Spans, out: &mut RepOutput) -> Result<(), String> {
    let (mut source, mut sim) = rec.span("setup", |rec| {
        let source = rec.span("workloads.source", |_| plan.source());
        let profile = calibrate(plan, rec);
        let mut sim = rec.span("sim.new", |_| {
            SsdSimulator::new(plan.serve_config(Scheme::FlexLevel, profile))
        });
        rec.span("obs.attach", |_| {
            sim.attach_observer(
                SimObserver::new(Scheme::FlexLevel, plan.span_sample)
                    .with_series(plan.series_interval_us),
            )
        });
        (source, sim)
    });
    let options = plan.serve_options();
    let (recorder, prom, chrome, series) = rec.span("timed", |rec| -> Result<_, String> {
        rec.span("sim.serve", |_| {
            sim.serve(&mut source, &options).map(|_| ())
        })
        .map_err(sim_error)?;
        let recorder = rec.span("obs.finish", |_| {
            sim.take_observer()
                .expect("observer attached in setup")
                .into_recorder()
        });
        let prom = rec.span("export.prometheus", |_| {
            export::prometheus(&recorder.metrics)
        });
        let chrome = rec.span("export.chrome", |_| {
            export::chrome_trace_full(&recorder.spans, &recorder.series)
        });
        let series = rec.span("export.series", |_| export::series_jsonl(&recorder.series));
        Ok((recorder, prom, chrome, series))
    })?;
    let stats = sim.stats().clone();
    modelled_values(plan, &stats, &sim, out);
    check_run(plan, &stats, &sim, out);
    path_values(&recorder, out);

    let windows: usize = recorder.series.iter().map(|b| b.snapshots.len()).sum();
    out.set("obs.series_windows", windows as f64);
    out.set("obs.spans_recorded", recorder.spans.len() as f64);
    out.set(
        "obs.export_bytes",
        (prom.len() + chrome.len() + series.len()) as f64,
    );
    check_exports(&prom, &chrome, &series, windows, out);
    Ok(())
}

/// The exports parse: one series line per window, each a JSON object; a
/// Chrome trace with `traceEvents`; the host-reads counter family.
fn check_exports(prom: &str, chrome: &str, series: &str, windows: usize, out: &mut RepOutput) {
    let lines: Vec<&str> = series.lines().collect();
    out.check(lines.len() == windows && windows > 0, || {
        format!("series: {} lines for {windows} windows", lines.len())
    });
    if let Some((i, e)) = lines
        .iter()
        .enumerate()
        .find_map(|(i, l)| json::top_level_keys(l).err().map(|e| (i, e)))
    {
        out.failures.push(format!("series line {i}: {e}"));
    }
    match json::top_level_keys(chrome) {
        Ok(keys) => out.check(keys.iter().any(|k| k == "traceEvents"), || {
            "chrome trace: no traceEvents".to_string()
        }),
        Err(e) => out.failures.push(format!("chrome trace: {e}")),
    }
    out.check(
        prom.contains("# TYPE flexlevel_host_reads_total counter"),
        || "prometheus: no flexlevel_host_reads_total counter family".to_string(),
    );
}

/// Reference runs of the replay workloads: the uninterrupted `write-churn`
/// and the single-queue `pipelined-burst`.
fn replay_reference(plan: &Plan, rec: &mut Spans, out: &mut RepOutput) -> Result<(), String> {
    let timing = match plan.workload {
        Workload::WriteChurn => plan.timing,
        Workload::PipelinedBurst => TimingModel::SingleQueue,
        _ => return Ok(()),
    };
    let trace = rec.span("workloads.generate", |_| plan.trace());
    let mut sim = SsdSimulator::new(plan.config(Scheme::FlexLevel, timing));
    rec.span("sim.run", |_| sim.run(&trace).map(|_| ()))
        .map_err(sim_error)?;
    let stats = sim.stats().clone();
    check_run(plan, &stats, &sim, out);
    out.digest("stats", stats_digest(&stats));
    out.digest("logical", logical_digest(&stats));
    Ok(())
}

/// The unobserved `serve-hostile`: the observer must not change a single
/// statistic, and its wall-time difference is the observer overhead.
fn serve_reference(plan: &Plan, rec: &mut Spans, out: &mut RepOutput) -> Result<(), String> {
    let mut source = plan.source();
    let profile = calibrate(plan, rec);
    let mut sim = SsdSimulator::new(plan.serve_config(Scheme::FlexLevel, profile));
    rec.span("sim.serve", |_| {
        sim.serve(&mut source, &plan.serve_options()).map(|_| ())
    })
    .map_err(sim_error)?;
    let stats = sim.stats().clone();
    check_run(plan, &stats, &sim, out);
    out.digest("stats", stats_digest(&stats));
    Ok(())
}

/// LDPC-in-SSD on the same input (for the FlexLevel read gain) and, on
/// `pipelined-burst`, the rate ladder.
fn comparison(plan: &Plan, rec: &mut Spans, out: &mut RepOutput) -> Result<(), String> {
    let ldpc_stats = if plan.workload == Workload::ServeHostile {
        let mut source = plan.source();
        let profile = calibrate(plan, rec);
        let mut sim = SsdSimulator::new(plan.serve_config(Scheme::LdpcInSsd, profile));
        rec.span("sim.serve", |_| {
            sim.serve(&mut source, &plan.serve_options()).cloned()
        })
        .map_err(sim_error)?
    } else {
        let trace = rec.span("workloads.generate", |_| plan.trace());
        let mut sim = SsdSimulator::new(plan.config(Scheme::LdpcInSsd, plan.timing));
        rec.span("sim.run", |_| sim.run(&trace).cloned())
            .map_err(sim_error)?
    };
    out.set(
        "ldpc_read_mean_us",
        ldpc_stats.mean_read_response().as_f64(),
    );
    if plan.ladder_requests > 0 {
        let max_rate = rec.span("ladder", |_| rate_ladder(plan))?;
        out.set("pipeline.max_rate_at_slo_rps", max_rate);
    }
    Ok(())
}

/// The highest offered rate at which the first `ladder_requests` of the
/// trace, rescaled to that rate, keep p99 within the limit and the device
/// keeps up.
fn rate_ladder(plan: &Plan) -> Result<f64, String> {
    let mut base = plan.trace();
    base.requests.truncate(plan.ladder_requests as usize);
    let n = base.requests.len() as f64;
    let span_s = base.requests.last().map_or(0.0, |r| r.arrival_us) / 1e6;
    let mut best = 0.0;
    for rate in LADDER_RATES {
        let mut trace = base.clone();
        let stretch = (n / span_s) / rate;
        for request in &mut trace.requests {
            request.arrival_us *= stretch;
        }
        let mut sim = SsdSimulator::new(plan.config(Scheme::FlexLevel, plan.timing));
        let stats = sim.run(&trace).map_err(sim_error)?;
        let p99 = stats.response_percentile(0.99).as_f64();
        if p99 <= LADDER_P99_LIMIT_US && stats.throughput_rps() >= LADDER_KEEP_UP * rate {
            best = rate;
        }
    }
    Ok(best)
}
