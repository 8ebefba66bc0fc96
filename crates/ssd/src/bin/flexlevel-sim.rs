//! `flexlevel-sim` — command-line trace-driven SSD simulation.
//!
//! `flexlevel-sim --help` prints every flag (the `USAGE` text below).
//! Any of the output flags (or `--all-schemes`, which sources its
//! comparison table from the metrics registry) attaches the observability
//! recorder; without them the simulator runs with observability fully
//! disabled — the zero-overhead default.

use flash_model::{Hours, LevelConfig};
use ldpc::{
    measure_iteration_profile, ChannelStress, FarmConfig, IterationProfile, LlrQuantizer,
    MlcReadChannel, PageKind, QcLdpcCode, QuantizedMinSumDecoder, Schedule, SoftSensingConfig,
};
use obs::{export, Recorder};
use rand::{rngs::StdRng, SeedableRng};
use reliability::EccConfig;
use ssd::{
    FaultConfig, OverloadPolicy, ScenarioSpec, Scheme, ServeOptions, SimObserver, SimStats,
    SsdConfig, SsdSimulator, StageKind, TenantQos, TimingModel,
};
use workloads::{OpenLoopSource, TenantWorkload, WorkloadSpec};

struct Args {
    scheme: Scheme,
    workload: String,
    pe: u32,
    blocks: u32,
    requests: u64,
    seed: u64,
    channels: u32,
    timing: TimingModel,
    dies: u32,
    decoders: u32,
    all_schemes: bool,
    faults: bool,
    fault_scale: f64,
    fault_seed: Option<u64>,
    scrub_interval: Option<u64>,
    scenario: Option<String>,
    footprint: Option<u64>,
    measured_iterations: bool,
    metrics_out: Option<String>,
    trace_out: Option<String>,
    trace_jsonl: Option<String>,
    trace_sample: usize,
    series_out: Option<String>,
    series_interval_us: u64,
    progress: bool,
    serve: bool,
    tenants: u32,
    arrival_rates: Vec<f64>,
    queue_depth: u32,
    slo_us: f64,
    overload: OverloadPolicy,
    threads: u32,
    checkpoint_out: Option<String>,
    checkpoint_at: Option<u64>,
    crash_at: Option<u64>,
    restore: Option<String>,
}

impl Args {
    fn fault_config(&self) -> FaultConfig {
        let mut faults = FaultConfig::enabled().with_scale(self.fault_scale);
        if let Some(seed) = self.fault_seed {
            faults = faults.with_seed(seed);
        }
        if let Some(interval) = self.scrub_interval {
            faults = faults.with_scrub_interval(interval);
        }
        faults
    }
}

/// The one usage text: printed by `--help` and after a usage error.
const USAGE: &str = "\
flexlevel-sim — trace-driven SSD simulation of the FlexLevel schemes

USAGE: flexlevel-sim [FLAGS]

Device and workload:
  --scheme S            baseline | ldpc | la-only | flexlevel (default flexlevel)
  --all-schemes         run all four schemes and print a comparison
  --workload W          fin-2 | web-1 | web-2 | prj-1 | prj-2 | win-1 | win-2
                        (default fin-2)
  --requests N          trace length (default 30000)
  --footprint N         trace footprint in pages (default 70% of capacity;
                        a footprint beyond capacity fails the run, exit 1)
  --seed N              RNG seed (default 42)
  --pe N                starting P/E cycles (default 6000)
  --blocks N            device size in blocks of 1 MB, at least 1 (default 128)
  --scenario NAME       apply a named scenario preset (cell technology,
                        fault model, environment); unknown names exit 2
  --list-scenarios      print every registered scenario and exit

Timing:
  --timing M            single (lumped queue) | pipelined (discrete-event
                        sense/transfer/decode stages)   (default single)
  --channels N          parallel flash channels (default 1)
  --dies N              dies per channel, pipelined model (default 4)
  --decoders N          controller LDPC decoder slots, pipelined model
                        (default 2)
  --threads N           host worker threads for the decode farm and sweeps;
                        0 = FLEXLEVEL_THREADS or the machine (default 0).
                        Never changes results, only wall-clock time
  --measured-iterations calibrate decode latency from the quantized
                        layered decoder instead of the analytic curve

Faults:
  --faults              deterministic fault injection and recovery
  --fault-scale X       FER acceleration multiplier (default 1.0)
  --fault-seed N        fault-stream seed (default: the model seed)
  --scrub-interval N    host requests between patrol-scrub visits
                        (0 disables the scrubber)

Multi-tenant serving (open-loop instead of trace replay):
  --serve               each tenant submits at its own rate into a private
                        Zipf working set
  --tenants N           number of tenants, at least 1 (default 2)
  --arrival-rate R[,R]  per-tenant Poisson rate in req/s; a shorter list
                        cycles across tenants (default 10000)
  --queue-depth N       per-tenant in-flight cap, 0 = unlimited (default 0)
  --slo-us X            per-tenant response-time SLO in us, 0 = none
  --overload M          drop (reject over-cap arrivals) | defer (hold them;
                        the wait counts toward response time) (default drop)

Checkpoint / sudden power-off (replay mode, one scheme):
  --checkpoint-out F    stop after --checkpoint-at requests and write the
                        device image to F
  --checkpoint-at N     checkpoint after N requests (default half the
                        trace; 0 with --crash-at)
  --crash-at N          resume past the checkpoint and cut power while
                        serving request N (seeded journal cut, torn page);
                        the crash image goes to --checkpoint-out
  --restore F           load image F, prove crash recovery (journal replay
                        + invariant audit), resume to the end

Observability:
  --metrics-out F       Prometheus text exposition ('-' = stdout)
  --trace-out F         Chrome trace_event JSON (Perfetto, about:tracing)
  --trace-jsonl F       one JSON object per sampled read span
  --trace-sample N      keep a seeded reservoir of at most N spans
                        (0 = every span, the default)
  --series-out F        windowed time-series JSONL ('-' = stdout), keyed to
                        simulated time: identical across --threads, --timing
                        and --restore
  --series-interval-us N  series window in simulated us, at least 1
                        (default 1000)
  --progress            wall-clock heartbeat to stderr (~1/s)
  --help, -h            print this text and exit

Exit codes: 0 ok, 1 simulation/IO/decode failure, 2 usage,
            3 crash image fails recovery (journal replay or invariant audit)";

/// The value after `flag`, parsed as `T`; a missing or malformed value
/// is a usage error naming the flag.
fn value<T: std::str::FromStr>(
    flag: &str,
    it: &mut impl Iterator<Item = String>,
) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    let raw = it
        .next()
        .ok_or_else(|| format!("{flag} requires a value"))?;
    raw.parse().map_err(|e| format!("{flag}: {e}"))
}

/// [`value`] for counts that must be at least 1.
fn positive<T>(flag: &str, it: &mut impl Iterator<Item = String>) -> Result<T, String>
where
    T: std::str::FromStr + PartialEq + From<u8>,
    T::Err: std::fmt::Display,
{
    let n: T = value(flag, it)?;
    if n == T::from(0) {
        return Err(format!("{flag} must be at least 1"));
    }
    Ok(n)
}

/// Parses the command line (without the program name). `Ok(None)`
/// means an informational flag (`--help`, `--list-scenarios`) already
/// printed its output and the process should exit 0.
fn parse_args(argv: impl IntoIterator<Item = String>) -> Result<Option<Args>, String> {
    let mut args = Args {
        scheme: Scheme::FlexLevel,
        workload: "fin-2".to_string(),
        pe: 6000,
        blocks: 128,
        requests: 30_000,
        seed: 42,
        channels: 1,
        timing: TimingModel::SingleQueue,
        dies: 4,
        decoders: 2,
        all_schemes: false,
        faults: false,
        fault_scale: 1.0,
        fault_seed: None,
        scrub_interval: None,
        scenario: None,
        footprint: None,
        measured_iterations: false,
        metrics_out: None,
        trace_out: None,
        trace_jsonl: None,
        trace_sample: 0,
        series_out: None,
        series_interval_us: 1000,
        progress: false,
        serve: false,
        tenants: 2,
        arrival_rates: vec![10_000.0],
        queue_depth: 0,
        slo_us: 0.0,
        overload: OverloadPolicy::Drop,
        threads: 0,
        checkpoint_out: None,
        checkpoint_at: None,
        crash_at: None,
        restore: None,
    };
    let mut it = argv.into_iter();
    while let Some(token) = it.next() {
        let flag = token.as_str();
        let it = &mut it;
        match flag {
            "--scheme" => {
                args.scheme = match value::<String>(flag, it)?.as_str() {
                    "baseline" => Scheme::Baseline,
                    "ldpc" => Scheme::LdpcInSsd,
                    "la-only" => Scheme::LevelAdjustOnly,
                    "flexlevel" => Scheme::FlexLevel,
                    other => return Err(format!("unknown scheme '{other}'")),
                }
            }
            "--workload" => args.workload = value(flag, it)?,
            "--pe" => args.pe = value(flag, it)?,
            "--blocks" => args.blocks = positive(flag, it)?,
            "--requests" => args.requests = value(flag, it)?,
            "--seed" => args.seed = value(flag, it)?,
            "--channels" => args.channels = value(flag, it)?,
            "--timing" => {
                args.timing = match value::<String>(flag, it)?.as_str() {
                    "single" | "single-queue" => TimingModel::SingleQueue,
                    "pipelined" | "pipeline" => TimingModel::Pipelined,
                    other => return Err(format!("unknown timing model '{other}'")),
                }
            }
            "--dies" => args.dies = value(flag, it)?,
            "--decoders" => args.decoders = value(flag, it)?,
            "--all-schemes" => args.all_schemes = true,
            "--faults" => args.faults = true,
            "--fault-scale" => args.fault_scale = value(flag, it)?,
            "--fault-seed" => args.fault_seed = Some(value(flag, it)?),
            "--scrub-interval" => args.scrub_interval = Some(value(flag, it)?),
            "--scenario" => {
                let name: String = value(flag, it)?;
                if ScenarioSpec::find(&name).is_none() {
                    return Err(format!(
                        "unknown scenario '{name}' (valid: {})",
                        ScenarioSpec::names().join(", ")
                    ));
                }
                args.scenario = Some(name);
            }
            "--list-scenarios" => {
                for spec in ScenarioSpec::registry() {
                    println!("{:<18} {}", spec.name, spec.summary);
                }
                return Ok(None);
            }
            "--footprint" => args.footprint = Some(value(flag, it)?),
            "--serve" => args.serve = true,
            "--tenants" => args.tenants = positive(flag, it)?,
            "--arrival-rate" => {
                args.arrival_rates = value::<String>(flag, it)?
                    .split(',')
                    .map(|r| {
                        let rate = r
                            .trim()
                            .parse::<f64>()
                            .map_err(|e| format!("{flag}: {e}"))?;
                        if rate.is_finite() && rate > 0.0 {
                            Ok(rate)
                        } else {
                            Err(format!("{flag}: {rate} is not a positive rate"))
                        }
                    })
                    .collect::<Result<Vec<f64>, String>>()?;
            }
            "--queue-depth" => args.queue_depth = value(flag, it)?,
            "--slo-us" => args.slo_us = value(flag, it)?,
            "--overload" => {
                args.overload = match value::<String>(flag, it)?.as_str() {
                    "drop" => OverloadPolicy::Drop,
                    "defer" => OverloadPolicy::Defer,
                    other => return Err(format!("unknown overload policy '{other}'")),
                }
            }
            "--threads" => args.threads = value(flag, it)?,
            "--measured-iterations" => args.measured_iterations = true,
            "--checkpoint-out" => args.checkpoint_out = Some(value(flag, it)?),
            "--checkpoint-at" => args.checkpoint_at = Some(value(flag, it)?),
            "--crash-at" => args.crash_at = Some(value(flag, it)?),
            "--restore" => args.restore = Some(value(flag, it)?),
            "--metrics-out" => args.metrics_out = Some(value(flag, it)?),
            "--trace-out" => args.trace_out = Some(value(flag, it)?),
            "--trace-jsonl" => args.trace_jsonl = Some(value(flag, it)?),
            "--trace-sample" => args.trace_sample = value(flag, it)?,
            "--series-out" => args.series_out = Some(value(flag, it)?),
            "--series-interval-us" => args.series_interval_us = positive(flag, it)?,
            "--progress" => args.progress = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(None);
            }
            other => return Err(format!("unknown flag '{other}' (try --help)")),
        }
    }
    if args.checkpoint_at.is_some() && args.checkpoint_out.is_none() {
        return Err("--checkpoint-at requires --checkpoint-out".to_string());
    }
    if args.crash_at.is_some() && args.checkpoint_out.is_none() {
        return Err("--crash-at requires --checkpoint-out".to_string());
    }
    if args.restore.is_some() && (args.checkpoint_out.is_some() || args.crash_at.is_some()) {
        return Err("--restore cannot be combined with --checkpoint-out / --crash-at".to_string());
    }
    if (args.restore.is_some() || args.checkpoint_out.is_some()) && (args.serve || args.all_schemes)
    {
        return Err(
            "checkpoint/restore runs one scheme in replay mode (no --serve, no --all-schemes)"
                .to_string(),
        );
    }
    if let (Some(metrics), Some(series)) = (args.metrics_out.as_deref(), args.series_out.as_deref())
    {
        if metrics == series {
            return Err(if metrics == "-" {
                "--metrics-out - and --series-out - would interleave two formats on stdout"
                    .to_string()
            } else {
                format!(
                    "--metrics-out and --series-out both write to '{metrics}'; \
                     the second would overwrite the first"
                )
            });
        }
    }
    Ok(Some(args))
}

fn workload_by_name(name: &str) -> Option<WorkloadSpec> {
    WorkloadSpec::paper_suite()
        .into_iter()
        .find(|s| s.name == name)
}

fn print_recovery_panel(stats: &SimStats) {
    println!(
        "  recovery           : {} retried reads ({} recovered / {} uncorrectable)",
        stats.retry_reads, stats.recovered_reads, stats.uncorrectable_reads
    );
    let depth = stats.max_retry_depth();
    let histogram: Vec<String> = stats.retry_depth_histogram[1..=depth.max(1)]
        .iter()
        .enumerate()
        .map(|(i, n)| format!("d{}:{n}", i + 1))
        .collect();
    println!("  retry depths       : {}", histogram.join(" "));
    println!(
        "  grown bad blocks   : {} retired ({} program failures)",
        stats.retired_blocks, stats.program_failures
    );
    println!(
        "  patrol scrub       : {} runs, {} reads, {} refreshes",
        stats.scrub_runs, stats.scrub_reads, stats.scrub_refreshes
    );
    println!("  die resets         : {}", stats.die_resets);
    println!(
        "  recovery latency   : {:.0} us total",
        stats.recovery_latency_us
    );
    println!(
        "  observed UBER      : {:.3e} ({} frames decoded)",
        stats.observed_uber(EccConfig::paper_ldpc().info_bits),
        stats.decoded_frames()
    );
    print_crash_recovery_lines(stats);
}

/// The crash-recovery counters, printed only after a `--restore` of a
/// crash image (all three stay zero otherwise).
fn print_crash_recovery_lines(stats: &SimStats) {
    if stats.journal_replayed == 0
        && stats.torn_pages_discarded == 0
        && stats.checkpoint_age_requests == 0
    {
        return;
    }
    println!(
        "  crash recovery     : {} journal records replayed, {} torn pages discarded",
        stats.journal_replayed, stats.torn_pages_discarded
    );
    println!(
        "  checkpoint age     : {} requests",
        stats.checkpoint_age_requests
    );
}

/// Builds the configuration for one scheme from the CLI flags; returns
/// it together with whether fault injection ended up enabled (scenario
/// presets can switch faults on without `--faults`).
fn build_config(
    scheme: Scheme,
    args: &Args,
    measured: Option<IterationProfile>,
) -> (SsdConfig, bool) {
    let mut config = SsdConfig::scaled(scheme, args.blocks)
        .with_base_pe(args.pe)
        .with_seed(args.seed)
        .with_channels(args.channels)
        .with_timing_model(args.timing)
        .with_dies_per_channel(args.dies)
        .with_decoder_slots(args.decoders)
        .with_threads(args.threads);
    if let Some(profile) = measured {
        config = config.with_measured_iterations(profile);
    }
    if args.faults {
        config = config.with_faults(args.fault_config());
    }
    // The scenario preset applies last so its overrides (cell technology,
    // fault model, environment) win over the generic flags.
    if let Some(name) = args.scenario.as_deref() {
        let spec = ScenarioSpec::find(name).expect("scenario validated at parse time");
        config = spec.apply(config);
    }
    let faulty = config.faults.enabled;
    (config, faulty)
}

/// Builds the observer the CLI flags ask for: span sampling always,
/// plus the windowed time series and the progress heartbeat on demand.
fn build_observer(scheme: Scheme, args: &Args) -> SimObserver {
    let mut observer = SimObserver::new(scheme, args.trace_sample);
    if args.series_out.is_some() {
        observer = observer.with_series(args.series_interval_us);
    }
    if args.progress {
        observer = observer.with_progress();
    }
    observer
}

/// Builds the simulator for one scheme from the CLI flags; see
/// [`build_config`] for the `bool`.
fn build_simulator(
    scheme: Scheme,
    args: &Args,
    measured: Option<IterationProfile>,
    observe: bool,
) -> (SsdSimulator, bool) {
    let (config, faulty) = build_config(scheme, args, measured);
    let mut sim = SsdSimulator::new(config);
    if observe {
        sim.attach_observer(build_observer(scheme, args));
    }
    (sim, faulty)
}

/// Runs one scheme and prints its report; returns `None` if the
/// simulation failed (the caller finishes the remaining schemes and
/// exits non-zero at the end) and the recorded observability data
/// otherwise (`Some(None)` when observability is off).
fn run_one(
    scheme: Scheme,
    args: &Args,
    trace: &workloads::Trace,
    observe: bool,
    measured: Option<IterationProfile>,
) -> Option<Option<Recorder>> {
    let (mut sim, faulty) = build_simulator(scheme, args, measured, observe);
    match sim.run(trace) {
        Ok(_) => {
            print_report(scheme, args, sim.stats(), faulty);
            Some(sim.take_observer().map(SimObserver::into_recorder))
        }
        Err(e) => {
            eprintln!("--- {} ---", scheme.label());
            eprintln!("  simulation failed  : {e}");
            None
        }
    }
}

/// The replay-mode report for one completed scheme.
fn print_report(scheme: Scheme, args: &Args, stats: &SimStats, faulty: bool) {
    println!("--- {} ---", scheme.label());
    println!("  mean response      : {}", stats.mean_response());
    println!("  mean read response : {}", stats.mean_read_response());
    println!(
        "  host requests      : {} ({} reads / {} writes)",
        stats.host_requests(),
        stats.host_reads,
        stats.host_writes
    );
    println!("  buffer read hits   : {}", stats.buffer_read_hits);
    println!("  reduced-page reads : {}", stats.reduced_reads);
    println!(
        "  soft-read fraction : {:.1}%",
        stats.soft_read_fraction() * 100.0
    );
    println!(
        "  flash ops          : {} reads, {} programs, {} erases",
        stats.flash_reads, stats.flash_programs, stats.erases
    );
    println!(
        "  GC                 : {} runs, {} pages moved",
        stats.gc_runs, stats.gc_migrated_pages
    );
    if scheme == Scheme::FlexLevel {
        println!(
            "  AccessEval         : {} promotions, {} demotions",
            stats.promotions, stats.demotions
        );
    }
    if faulty {
        print_recovery_panel(stats);
    } else {
        print_crash_recovery_lines(stats);
    }
    if args.timing == TimingModel::Pipelined {
        println!(
            "  response p50/95/99 : {} / {} / {}",
            stats.response_percentile(0.50),
            stats.response_percentile(0.95),
            stats.response_percentile(0.99)
        );
        println!(
            "  makespan           : {:.0} us ({:.0} req/s)",
            stats.makespan_us,
            stats.throughput_rps()
        );
        let planes = args.channels * args.dies;
        for kind in StageKind::ALL {
            let units = match kind {
                StageKind::Transfer => args.channels,
                StageKind::Decode => args.decoders,
                _ => planes,
            };
            let account = stats.stage(kind);
            if account.ops == 0 {
                continue;
            }
            println!(
                "  stage {:<12} : {:>8} ops, mean {:>9}, wait {:>9}, util {:>5.1}%",
                kind.label(),
                account.ops,
                account.mean_latency(),
                account.mean_wait(),
                stats.stage_utilization(kind, units) * 100.0
            );
        }
    }
}

/// The open-loop tenant profiles for `--serve`: the device footprint is
/// split into disjoint per-tenant working sets, each inheriting the named
/// workload's read mix, Zipf skew and request sizes, with `--requests`
/// divided evenly across tenants and each tenant submitting Poisson
/// arrivals at its `--arrival-rate` entry (a shorter list cycles).
fn tenant_profiles(args: &Args, spec: &WorkloadSpec, footprint: u64) -> Vec<TenantWorkload> {
    let working_set = (footprint / u64::from(args.tenants)).max(1);
    let per_tenant_requests = (args.requests / u64::from(args.tenants)).max(1);
    (0..args.tenants)
        .map(|t| {
            let rate = args.arrival_rates[t as usize % args.arrival_rates.len()];
            TenantWorkload::new(u64::from(t) * working_set, working_set, rate)
                .with_read_fraction(spec.read_fraction)
                .with_zipf_theta(spec.zipf_theta)
                .with_mean_request_pages(spec.mean_request_pages)
                .with_requests(per_tenant_requests)
        })
        .collect()
}

/// Runs one scheme in `--serve` mode (multi-tenant open-loop generator
/// through the QoS scheduler) and prints the per-tenant report. Same
/// return contract as [`run_one`].
fn run_serve(
    scheme: Scheme,
    args: &Args,
    spec: &WorkloadSpec,
    footprint: u64,
    observe: bool,
    measured: Option<IterationProfile>,
) -> Option<Option<Recorder>> {
    let (mut sim, _) = build_simulator(scheme, args, measured, observe);
    let mut source = OpenLoopSource::new(tenant_profiles(args, spec, footprint), args.seed);
    let qos = TenantQos::default()
        .with_queue_depth(args.queue_depth)
        .with_policy(args.overload)
        .with_slo_us(args.slo_us);
    let options = ServeOptions::uniform(args.tenants, qos);
    match sim.serve(&mut source, &options) {
        Ok(_) => {
            let stats = sim.stats();
            println!("--- {} ---", scheme.label());
            println!("  mean response      : {}", stats.mean_response());
            println!(
                "  host requests      : {} ({} reads / {} writes)",
                stats.host_requests(),
                stats.host_reads,
                stats.host_writes
            );
            let (mut dropped, mut deferred) = (0u64, 0u64);
            for (t, tenant) in stats.tenants.iter().enumerate() {
                println!(
                    "  tenant {t} p50/p99/p999 : {} / {} / {}",
                    tenant.p50(),
                    tenant.p99(),
                    tenant.p999()
                );
                println!(
                    "  tenant {t} requests     : {} arrivals, {} served, {} dropped, {} deferred",
                    tenant.arrivals, tenant.served, tenant.dropped, tenant.deferred
                );
                if tenant.slo_target_us > 0.0 {
                    println!(
                        "  tenant {t} SLO          : {} violations ({:.2}% of served, target {:.0} us)",
                        tenant.slo_violations,
                        tenant.slo_violation_rate() * 100.0,
                        tenant.slo_target_us
                    );
                }
                dropped += tenant.dropped;
                deferred += tenant.deferred;
            }
            println!("  backpressure       : {dropped} dropped, {deferred} deferred");
            if args.timing == TimingModel::Pipelined {
                println!(
                    "  makespan           : {:.0} us ({:.0} req/s)",
                    stats.makespan_us,
                    stats.throughput_rps()
                );
            }
            Some(sim.take_observer().map(SimObserver::into_recorder))
        }
        Err(e) => {
            eprintln!("--- {} ---", scheme.label());
            eprintln!("  serving failed     : {e}");
            None
        }
    }
}

/// Renders a `(metric, per-scheme cell)` table with aligned columns.
fn render_table(header: &[&str], rows: &[(String, Vec<String>)]) -> String {
    let metric_width = rows
        .iter()
        .map(|(t, _)| t.len())
        .chain(std::iter::once("metric".len()))
        .max()
        .unwrap_or(6);
    let col_widths: Vec<usize> = header
        .iter()
        .enumerate()
        .map(|(c, h)| {
            rows.iter()
                .map(|(_, cells)| cells[c].len())
                .chain(std::iter::once(h.len()))
                .max()
                .unwrap_or(1)
        })
        .collect();
    let mut out = String::new();
    out.push_str(&format!("{:<metric_width$}", "metric"));
    for (c, h) in header.iter().enumerate() {
        out.push_str(&format!("  {:>width$}", h, width = col_widths[c]));
    }
    out.push('\n');
    for (title, cells) in rows {
        out.push_str(&format!("{title:<metric_width$}"));
        for (c, cell) in cells.iter().enumerate() {
            out.push_str(&format!("  {:>width$}", cell, width = col_widths[c]));
        }
        out.push('\n');
    }
    out
}

/// Where one comparison-table cell comes from in the registry.
#[derive(Clone, Copy)]
enum Cell {
    /// A counter family.
    Counter(&'static str),
    /// A gauge family, printed with this many decimals.
    Gauge(&'static str, usize),
    /// A quantile of a histogram family.
    Quantile(&'static str, f64),
}

/// The comparison-table rows every `--all-schemes` run prints.
#[rustfmt::skip]
const ROWS: [(&str, Cell); 18] = [
    ("mean response (us)",      Cell::Gauge("flexlevel_mean_response_us", 1)),
    ("mean read response (us)", Cell::Gauge("flexlevel_mean_read_response_us", 1)),
    ("p50 response (us)",       Cell::Quantile("flexlevel_response_us", 0.50)),
    ("p99 response (us)",       Cell::Quantile("flexlevel_response_us", 0.99)),
    ("p99 sensing levels",      Cell::Quantile("flexlevel_sensing_levels", 0.99)),
    ("host reads",              Cell::Counter("flexlevel_host_reads_total")),
    ("host writes",             Cell::Counter("flexlevel_host_writes_total")),
    ("buffer read hits",        Cell::Counter("flexlevel_buffer_read_hits_total")),
    ("reduced-page reads",      Cell::Counter("flexlevel_reduced_reads_total")),
    ("flash reads",             Cell::Counter("flexlevel_flash_reads_total")),
    ("flash programs",          Cell::Counter("flexlevel_flash_programs_total")),
    ("erases",                  Cell::Counter("flexlevel_erases_total")),
    ("GC runs",                 Cell::Counter("flexlevel_gc_runs_total")),
    ("GC pages moved",          Cell::Counter("flexlevel_gc_migrated_pages_total")),
    ("promotions",              Cell::Counter("flexlevel_promotions_total")),
    ("demotions",               Cell::Counter("flexlevel_demotions_total")),
    ("soft-read fraction",      Cell::Gauge("flexlevel_soft_read_fraction", 3)),
    ("write amplification",     Cell::Gauge("flexlevel_write_amplification", 2)),
];

/// The rows `--faults` adds.
#[rustfmt::skip]
const FAULT_ROWS: [(&str, Cell); 4] = [
    ("retry reads",         Cell::Counter("flexlevel_retry_reads_total")),
    ("recovered reads",     Cell::Counter("flexlevel_recovered_reads_total")),
    ("uncorrectable reads", Cell::Counter("flexlevel_uncorrectable_reads_total")),
    ("p99 retry depth",     Cell::Quantile("flexlevel_retry_depth", 0.99)),
];

/// The rows the pipelined model adds.
#[rustfmt::skip]
const PIPELINED_ROWS: [(&str, Cell); 2] = [
    ("throughput (req/s)", Cell::Gauge("flexlevel_throughput_rps", 0)),
    ("makespan (us)",      Cell::Gauge("flexlevel_makespan_us", 0)),
];

/// The `--all-schemes` comparison table, sourced entirely from the merged
/// metrics registry snapshot (not from ad-hoc `SimStats` plumbing).
fn comparison_table(recorder: &Recorder, schemes: &[Scheme], args: &Args) -> String {
    let reg = &recorder.metrics;
    let faults: &[(&str, Cell)] = if args.faults { &FAULT_ROWS } else { &[] };
    let pipelined: &[(&str, Cell)] = if args.timing == TimingModel::Pipelined {
        &PIPELINED_ROWS
    } else {
        &[]
    };
    let rows: Vec<(String, Vec<String>)> = ROWS
        .iter()
        .chain(faults)
        .chain(pipelined)
        .map(|&(title, cell)| {
            let cells = schemes
                .iter()
                .map(|s| {
                    let labels = [("scheme", s.label())];
                    match cell {
                        Cell::Counter(name) => {
                            reg.find_counter(name, &labels).map(|v| v.to_string())
                        }
                        Cell::Gauge(name, decimals) => reg
                            .find_gauge(name, &labels)
                            .map(|v| format!("{v:.decimals$}")),
                        Cell::Quantile(name, q) => reg
                            .find_histogram(name, &labels)
                            .filter(|h| h.count() > 0)
                            .map(|h| format!("{:.1}", h.quantile(q))),
                    }
                    .unwrap_or_else(|| "-".to_string())
                })
                .collect();
            (title.to_string(), cells)
        })
        .collect();
    let header: Vec<&str> = schemes.iter().map(|s| s.label()).collect();
    render_table(&header, &rows)
}

/// Per-stage × per-scheme latency breakdown (pipelined model), sourced
/// from the per-execution stage histograms.
fn stage_panel(recorder: &Recorder, schemes: &[Scheme]) -> String {
    let reg = &recorder.metrics;
    let mut rows = Vec::new();
    for kind in StageKind::ALL {
        for metric in ["busy", "wait"] {
            let name = format!("flexlevel_stage_{metric}_us");
            let cells: Vec<String> = schemes
                .iter()
                .map(|s| {
                    let labels = [("scheme", s.label()), ("stage", kind.label())];
                    match reg.find_histogram(&name, &labels) {
                        Some(h) if h.count() > 0 => {
                            format!("{:.1}/{:.1}", h.quantile(0.50), h.quantile(0.99))
                        }
                        _ => "-".to_string(),
                    }
                })
                .collect();
            if cells.iter().all(|c| c == "-") {
                continue;
            }
            rows.push((format!("{} {metric} p50/p99 (us)", kind.label()), cells));
        }
    }
    if rows.is_empty() {
        return String::new();
    }
    let header: Vec<&str> = schemes.iter().map(|s| s.label()).collect();
    render_table(&header, &rows)
}

/// Per-scheme critical-path attribution: where the sampled reads' time
/// goes (queue / sense / transfer / decode / retry / die reset / other
/// wait), for the mean read and for the p99 tail — answering "where
/// does p99 go" directly from the recorded spans.
fn attribution_panel(recorder: &Recorder, schemes: &[Scheme]) -> String {
    let spans = recorder.spans.sorted_spans();
    let attributions = obs::critical_path(&spans);
    if attributions.is_empty() {
        return String::new();
    }
    let find = |s: Scheme| attributions.iter().find(|a| a.scheme == s.label());
    let mut rows = vec![(
        "sampled reads (tail)".to_string(),
        schemes
            .iter()
            .map(|&s| {
                find(s).map_or("-".to_string(), |a| {
                    format!("{} ({})", a.reads, a.tail_reads)
                })
            })
            .collect(),
    )];
    rows.push((
        "p99 threshold (us)".to_string(),
        schemes
            .iter()
            .map(|&s| find(s).map_or("-".to_string(), |a| format!("{:.1}", a.p99_threshold_us)))
            .collect(),
    ));
    type Get = fn(&obs::PathComponents) -> f64;
    let components: [(&str, Get); 7] = [
        ("queue", |c| c.queue_us),
        ("sense", |c| c.sense_us),
        ("transfer", |c| c.transfer_us),
        ("decode", |c| c.decode_us),
        ("retry", |c| c.retry_us),
        ("die reset", |c| c.die_reset_us),
        ("wait", |c| c.wait_us),
    ];
    for (name, get) in components {
        let cells: Vec<String> = schemes
            .iter()
            .map(|&s| {
                find(s).map_or("-".to_string(), |a| {
                    format!("{:.1}/{:.1}", get(&a.mean), get(&a.tail))
                })
            })
            .collect();
        if cells.iter().all(|c| c == "-" || c == "0.0/0.0") {
            continue;
        }
        rows.push((format!("{name} mean/tail (us)"), cells));
    }
    let header: Vec<&str> = schemes.iter().map(|s| s.label()).collect();
    render_table(&header, &rows)
}

/// Calibrates the decode-latency iteration profile with the real
/// quantized decoder (`--measured-iterations`): all sensing depths'
/// frames go through one [`DecodeFarm`](ldpc::DecodeFarm) queue on the
/// layered schedule the hardware model assumes. Farm workers come from
/// the unified thread knob (`--threads`, falling back to
/// `FLEXLEVEL_THREADS` or the machine when 0) — worker count never
/// affects the measured profile, only wall-clock. The stress point is
/// the run's starting P/E at one month of retention — the harsh corner
/// the paper's Table 5 ladder is measured at. Deterministic in `--seed`.
fn calibrate_iteration_profile(args: &Args) -> IterationProfile {
    const TRIALS_PER_LEVEL: u32 = 16;
    let code = QcLdpcCode::paper_code();
    let decoder = QuantizedMinSumDecoder::new().with_schedule(Schedule::Layered);
    let stress = ChannelStress::retention(args.pe, Hours::months(1.0));
    let (profile, ladder) = measure_iteration_profile(
        &code,
        &decoder,
        &LlrQuantizer::default(),
        (IterationProfile::SLOTS - 1) as u32,
        TRIALS_PER_LEVEL,
        args.seed,
        FarmConfig::default().with_workers(args.threads),
        |extra| {
            MlcReadChannel::build_cached(
                &LevelConfig::normal_mlc(),
                PageKind::Lower,
                stress,
                SoftSensingConfig::soft(extra),
                20_000,
                args.seed ^ 0xCA11_B8A7 ^ u64::from(extra),
            )
        },
    );
    let means: Vec<String> = ladder
        .iter()
        .map(|rung| format!("{}:{:.1}", rung.extra_levels, rung.mean_iterations))
        .collect();
    println!(
        "measured iteration profile (P/E {}, 1 month, layered, {} frames/level): {}\n",
        args.pe,
        TRIALS_PER_LEVEL,
        means.join(" ")
    );
    profile
}

/// The checkpoint / sudden-power-off / restore flows (`--checkpoint-out`,
/// `--crash-at`, `--restore`); returns the process exit code.
///
/// Exit codes: `0` success, `1` simulation/IO/decode failure, `3` a
/// crash image whose recovered state fails the invariant audit.
fn run_spor(
    args: &Args,
    trace: &workloads::Trace,
    measured: Option<IterationProfile>,
    observe: bool,
) -> i32 {
    use ssd::{CrashPlan, DeviceImage, PageMapFtl, SimError};
    let scheme = args.scheme;
    if let Some(path) = args.restore.as_deref() {
        let image = match DeviceImage::load(path) {
            Ok(image) => image,
            Err(e) => {
                eprintln!("error: loading {path}: {e}");
                return 1;
            }
        };
        if let Err(e) = image.verify_trace(trace) {
            eprintln!("error: {e}");
            return 1;
        }
        let crashed = image.crashed_at.is_some() || !image.journal.is_empty();
        let mut recovery = None;
        if crashed {
            // Crash-consistency proof: replay the surviving journal onto
            // the checkpoint-time FTL and audit the result before the
            // deterministic re-execution resumes.
            let (_, report) = match PageMapFtl::recover(&image.ftl, &image.journal, image.torn) {
                Ok(outcome) => outcome,
                Err(e) => {
                    eprintln!("error: crash recovery failed: {e}");
                    return 3;
                }
            };
            let age = image
                .crashed_at
                .map_or(0, |at| (at + 1).saturating_sub(image.request_cursor));
            if let Some(at) = image.crashed_at {
                println!("crash image: power was lost while serving request {at}");
            }
            println!("recovered journal entries : {}", report.journal_replayed);
            println!(
                "torn pages discarded      : {}",
                report.torn_pages_discarded
            );
            println!("checkpoint age            : {age} requests\n");
            recovery = Some((report, age));
        }
        let (config, faulty) = build_config(scheme, args, measured);
        let mut sim = match SsdSimulator::restore(config, &image) {
            Ok(sim) => sim,
            Err(e) => {
                eprintln!("error: {e}");
                return 1;
            }
        };
        if observe {
            // `attach_observer` hands the image's time-series state to
            // the fresh observer, so the resumed series continues the
            // checkpointed run's mid-window.
            sim.attach_observer(build_observer(scheme, args));
        }
        if let Some((report, age)) = recovery {
            sim.note_recovery(&report, age);
        }
        match sim.resume(trace) {
            Ok(_) => {
                print_report(scheme, args, sim.stats(), faulty);
                if let Some(observer) = sim.take_observer() {
                    write_exports(args, &observer.into_recorder());
                }
                0
            }
            Err(e) => {
                eprintln!("error: resumed run failed: {e}");
                1
            }
        }
    } else {
        let path = args
            .checkpoint_out
            .as_deref()
            .expect("flags validated at parse time");
        let stop = args.checkpoint_at.unwrap_or(if args.crash_at.is_some() {
            0
        } else {
            args.requests / 2
        });
        if let Some(crash_at) = args.crash_at {
            if crash_at < stop {
                eprintln!("error: --crash-at {crash_at} precedes the checkpoint at {stop}");
                return 2;
            }
        }
        let (config, _) = build_config(scheme, args, measured);
        let mut sim = SsdSimulator::new(config);
        if observe {
            // The prefix run's unflushed time-series state rides the
            // checkpoint image (exports themselves only happen on
            // completed runs).
            sim.attach_observer(build_observer(scheme, args));
        }
        if let Err(e) = sim.run_prefix(trace, stop) {
            eprintln!("error: {e}");
            return 1;
        }
        let mut image = match sim.checkpoint() {
            Ok(image) => image,
            Err(e) => {
                eprintln!("error: {e}");
                return 1;
            }
        };
        image.trace_fingerprint = ssd::trace_fingerprint(trace);
        match args.crash_at {
            None => {
                if let Err(e) = image.save(path) {
                    eprintln!("error: writing {path}: {e}");
                    return 1;
                }
                println!("checkpoint after {stop} requests written to {path}");
                println!("resume with: flexlevel-sim --restore {path} (same flags)");
                0
            }
            Some(crash_at) => {
                sim.set_crash_plan(Some(CrashPlan::at_request(args.seed, crash_at)));
                match sim.resume(trace) {
                    Err(SimError::PowerLoss { at_request }) => {
                        let crash = match sim.crash_image(&image) {
                            Ok(crash) => crash,
                            Err(e) => {
                                eprintln!("error: {e}");
                                return 1;
                            }
                        };
                        if let Err(e) = crash.save(path) {
                            eprintln!("error: writing {path}: {e}");
                            return 1;
                        }
                        let appended = sim.ftl().journal().map_or(0, <[_]>::len);
                        println!(
                            "power lost serving request {at_request}: {} of {appended} \
                             journal records survived{}",
                            crash.journal.len(),
                            if crash.torn.is_some() {
                                ", one torn page"
                            } else {
                                ""
                            }
                        );
                        println!("crash image written to {path}");
                        0
                    }
                    Ok(_) => {
                        eprintln!(
                            "error: --crash-at {crash_at} never fired ({} requests served)",
                            sim.request_cursor()
                        );
                        1
                    }
                    Err(e) => {
                        eprintln!("error: {e}");
                        1
                    }
                }
            }
        }
    }
}

/// Writes `contents` to `path` (`-` = stdout, no trailer note), exiting
/// with a message on failure.
fn write_output(path: &str, contents: &str, what: &str) {
    if path == "-" {
        use std::io::Write;
        if let Err(e) = std::io::stdout().write_all(contents.as_bytes()) {
            eprintln!("error: writing {what} to stdout: {e}");
            std::process::exit(1);
        }
        return;
    }
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("error: writing {what} to {path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {what} to {path}");
}

/// Writes every requested observability artifact from `recorder`.
fn write_exports(args: &Args, recorder: &Recorder) {
    if let Some(path) = args.metrics_out.as_deref() {
        write_output(path, &export::prometheus(&recorder.metrics), "metrics");
    }
    if let Some(path) = args.trace_out.as_deref() {
        write_output(
            path,
            &export::chrome_trace_full(&recorder.spans, &recorder.series),
            "chrome trace",
        );
    }
    if let Some(path) = args.trace_jsonl.as_deref() {
        write_output(path, &export::span_jsonl(&recorder.spans), "span jsonl");
    }
    if let Some(path) = args.series_out.as_deref() {
        write_output(path, &export::series_jsonl(&recorder.series), "time series");
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Some(args)) => args,
        Ok(None) => return,
        Err(e) => {
            eprintln!("error: {e}");
            println!("{USAGE}");
            std::process::exit(2);
        }
    };
    let Some(spec) = workload_by_name(&args.workload) else {
        eprintln!("error: unknown workload '{}'", args.workload);
        std::process::exit(2);
    };
    let config = SsdConfig::scaled(Scheme::Baseline, args.blocks);
    let footprint = args
        .footprint
        .unwrap_or(config.geometry.logical_pages() * 7 / 10);
    let trace = (!args.serve).then(|| {
        spec.clone()
            .with_requests(args.requests)
            .with_footprint(footprint)
            .with_interarrival_scale(2.2)
            .generate(&mut StdRng::seed_from_u64(args.seed))
    });
    match trace.as_ref() {
        Some(trace) => println!(
            "workload {} | {} requests | {:.0}% reads | footprint {} pages | P/E {}\n",
            trace.name,
            trace.len(),
            trace.read_fraction() * 100.0,
            trace.footprint_pages,
            args.pe
        ),
        None => {
            let rates: Vec<String> = (0..args.tenants)
                .map(|t| {
                    format!(
                        "{:.0}",
                        args.arrival_rates[t as usize % args.arrival_rates.len()]
                    )
                })
                .collect();
            println!(
                "serving {} profile | {} tenants @ {} req/s | qd {} ({}) | \
                 {} requests | footprint {} pages | P/E {}\n",
                spec.name,
                args.tenants,
                rates.join("/"),
                args.queue_depth,
                args.overload.label(),
                args.requests,
                footprint,
                args.pe
            );
        }
    }
    // Observability is attached when an export was requested, or when the
    // multi-scheme comparison table (sourced from the registry) will run.
    let observe = args.metrics_out.is_some()
        || args.trace_out.is_some()
        || args.trace_jsonl.is_some()
        || args.series_out.is_some()
        || args.progress
        || args.all_schemes;
    let schemes: Vec<Scheme> = if args.all_schemes {
        Scheme::ALL.to_vec()
    } else {
        vec![args.scheme]
    };
    let measured = args
        .measured_iterations
        .then(|| calibrate_iteration_profile(&args));
    if args.checkpoint_out.is_some() || args.restore.is_some() {
        let trace = trace.as_ref().expect("checkpoint/restore is replay-only");
        std::process::exit(run_spor(&args, trace, measured, observe));
    }
    let mut failed = Vec::new();
    // Recorders merge in scheme order — a fixed order, so the combined
    // registry and trace are independent of anything but the runs.
    let mut combined: Option<Recorder> = None;
    for &scheme in &schemes {
        let outcome = match trace.as_ref() {
            Some(trace) => run_one(scheme, &args, trace, observe, measured),
            None => run_serve(scheme, &args, &spec, footprint, observe, measured),
        };
        match outcome {
            None => failed.push(scheme.label()),
            Some(None) => {}
            Some(Some(recorder)) => match combined.as_mut() {
                Some(c) => c.merge(&recorder),
                None => combined = Some(recorder),
            },
        }
    }
    if let Some(recorder) = combined.as_ref() {
        if args.all_schemes {
            println!("\n=== scheme comparison (from metrics registry) ===");
            print!("{}", comparison_table(recorder, &schemes, &args));
            if args.timing == TimingModel::Pipelined {
                let panel = stage_panel(recorder, &schemes);
                if !panel.is_empty() {
                    println!("\n=== per-stage latency breakdown (pipelined) ===");
                    print!("{panel}");
                }
            }
            let panel = attribution_panel(recorder, &schemes);
            if !panel.is_empty() {
                println!("\n=== critical-path attribution (sampled reads, where p99 goes) ===");
                print!("{panel}");
            }
        }
        write_exports(&args, recorder);
    }
    if !failed.is_empty() {
        eprintln!(
            "\nerror: {} scheme(s) failed: {}",
            failed.len(),
            failed.join(", ")
        );
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Flags named in `text`: whitespace-separated words starting `--`.
    fn flags_in(text: &str) -> Vec<&str> {
        text.split_whitespace()
            .map(|w| w.trim_end_matches(|c: char| !c.is_ascii_alphanumeric()))
            .filter(|w| w.starts_with("--") && w.len() > 2)
            .collect()
    }

    #[test]
    fn every_flag_in_the_usage_text_is_accepted() {
        let flags = flags_in(USAGE);
        assert!(flags.contains(&"--channels"), "--channels is documented");
        for flag in flags.iter().copied().chain(["-h"]) {
            let parsed = parse_args([flag.to_string(), "1".to_string()]);
            if let Err(e) = parsed {
                assert!(
                    !e.starts_with(&format!("unknown flag '{flag}'")),
                    "documented flag {flag} is rejected"
                );
            }
        }
    }

    #[test]
    fn malformed_values_name_the_flag() {
        let parse = |argv: &[&str]| parse_args(argv.iter().map(|a| a.to_string())).err();
        assert_eq!(
            parse(&["--pe", "x"]).as_deref(),
            Some("--pe: invalid digit found in string")
        );
        assert_eq!(
            parse(&["--channels"]).as_deref(),
            Some("--channels requires a value")
        );
        for flag in ["--blocks", "--tenants", "--series-interval-us"] {
            assert_eq!(
                parse(&[flag, "0"]),
                Some(format!("{flag} must be at least 1"))
            );
        }
    }
}
