//! Simulator-side observability: the bridge between [`SsdSimulator`] and
//! the `flexlevel-obs` recorder.
//!
//! A [`SimObserver`] is attached to a simulator before `run()`
//! ([`SsdSimulator::attach_observer`]); when absent, no observability
//! code executes at all — the `Option` check is the entire disabled-path
//! cost, which keeps golden fixtures and throughput untouched.
//!
//! When attached, the observer records two kinds of data:
//!
//! * **Event-time histograms** — response times, sensing depths, decoder
//!   iterations, recovery depths and (pipelined model) per-stage
//!   busy/wait times, observed as the simulation makes each decision.
//!   Stage histograms are recorded at the *same call site* as
//!   [`SimStats::record_stage`], so their counts reconcile exactly with
//!   [`StageAccount::ops`](crate::stats::StageAccount::ops).
//! * **End-of-run folds** — every `SimStats` counter is copied into the
//!   registry after the run (`SimObserver::finish_run`), guaranteeing
//!   the exported counters equal the golden counters by construction.
//!
//! Read requests additionally emit a structured [`ReadSpan`] with a
//! per-stage latency decomposition that sums to the request's flash
//! service time. Both timing backends complete a request the same way:
//! the logical layer builds the span skeleton and queues the request
//! (`end_request`), then the simulator's one recorder fills in its start
//! (`started`) and response (`finished`) times — at once under the
//! single-queue model, as the scheduler reports them under the pipelined
//! one. Each completion flushes the finished prefix of the
//! request-ordered queue, so spans and response observations are
//! emitted in request order — trace output is independent of event
//! interleaving — and the queue only holds requests still in flight.
//!
//! [`SsdSimulator`]: crate::sim::SsdSimulator
//! [`SsdSimulator::attach_observer`]: crate::sim::SsdSimulator::attach_observer
//! [`SimStats::record_stage`]: crate::stats::SimStats::record_stage

use std::collections::VecDeque;

use flash_model::Micros;
use obs::{
    EventKind, HistogramId, ReadSpan, Recorder, SeriesSampler, SeriesState, SpanOutcome,
    StageTiming, TraceEvent,
};

use crate::config::Scheme;
use crate::pipeline::StageKind;
use crate::serve::{Backpressure, ServeOptions};
use crate::stats::SimStats;

/// Reads one logical counter out of `SimStats`.
type CounterGetter = fn(&SimStats) -> u64;

/// The logical `SimStats` counters, in series column order: column
/// name, Prometheus help text and getter. Each is exported as the
/// counter `flexlevel_{column}_total` and as a series column. All are
/// functions of the request order alone, so the series is bit-identical
/// across thread counts and timing backends, and survives
/// checkpoint/resume (the counters ride the device image).
const COUNTERS: [(&str, &str, CounterGetter); 20] = [
    ("host_reads", "Host read requests served.", |s| s.host_reads),
    ("host_writes", "Host write requests served.", |s| {
        s.host_writes
    }),
    (
        "buffer_read_hits",
        "Host page reads served from the write buffer.",
        |s| s.buffer_read_hits,
    ),
    (
        "flash_reads",
        "Flash page reads (host + GC + migration + retry).",
        |s| s.flash_reads,
    ),
    (
        "flash_programs",
        "Flash page programs (host + GC + migration).",
        |s| s.flash_programs,
    ),
    ("erases", "Block erases.", |s| s.erases),
    ("gc_runs", "GC invocations.", |s| s.gc_runs),
    ("gc_migrated_pages", "Valid pages relocated by GC.", |s| {
        s.gc_migrated_pages
    }),
    (
        "promotions",
        "AccessEval promotions into reduced pages.",
        |s| s.promotions,
    ),
    (
        "demotions",
        "AccessEval demotions back to normal pages.",
        |s| s.demotions,
    ),
    (
        "reduced_reads",
        "Host page reads served from reduced-state pages.",
        |s| s.reduced_reads,
    ),
    (
        "retry_reads",
        "Extra flash read attempts spent by the recovery ladder.",
        |s| s.retry_reads,
    ),
    (
        "recovered_reads",
        "Frame reads recovered by the retry ladder.",
        |s| s.recovered_reads,
    ),
    (
        "uncorrectable_reads",
        "Frame reads the full ladder could not recover.",
        |s| s.uncorrectable_reads,
    ),
    (
        "program_failures",
        "Page programs that failed their status check.",
        |s| s.program_failures,
    ),
    ("retired_blocks", "Blocks retired as grown-bad.", |s| {
        s.retired_blocks
    }),
    (
        "die_resets",
        "Transient whole-die faults cleared by a reset.",
        |s| s.die_resets,
    ),
    ("scrub_runs", "Patrol-scrub block visits.", |s| s.scrub_runs),
    ("scrub_reads", "Pages read by the patrol scrubber.", |s| {
        s.scrub_reads
    }),
    (
        "scrub_refreshes",
        "Pages rewritten by the scrubber on retention-BER threshold.",
        |s| s.scrub_refreshes,
    ),
];

/// Gauge columns of the windowed time series. Derived from logical
/// count vectors only (never from measured response times, which differ
/// between timing backends): sensing-level and retry-depth quantiles,
/// the retry rate, and the observed UBER.
const SERIES_GAUGES: [&str; 5] = [
    "sensing_p50",
    "sensing_p99",
    "retry_depth_p99",
    "retry_rate",
    "observed_uber",
];

/// Quantile of a dense count vector (index = value), using the same
/// `round(q·(n−1))` rank convention as `SimStats::response_percentile`.
fn count_quantile(counts: &[u64], q: f64) -> f64 {
    let n: u64 = counts.iter().sum();
    if n == 0 {
        return 0.0;
    }
    let rank = (q * (n - 1) as f64).round() as u64;
    let mut seen = 0u64;
    for (value, &count) in counts.iter().enumerate() {
        seen += count;
        if seen > rank {
            return value as f64;
        }
    }
    (counts.len().saturating_sub(1)) as f64
}

/// Retry reads per host read (0 before any read).
fn retry_rate(stats: &SimStats) -> f64 {
    if stats.host_reads == 0 {
        return 0.0;
    }
    stats.retry_reads as f64 / stats.host_reads as f64
}

/// The windowed sampler plus the lumped per-tenant SLO tallies it
/// samples. Violations are judged against the *lumped* single-queue
/// response (the same virtual clock admission runs on), so the tallies
/// — unlike `TenantStats::slo_violations` — are identical between
/// timing backends and the tenant series stays backend-invariant.
#[derive(Debug)]
struct SeriesRecorder {
    sampler: SeriesSampler,
    /// Per-tenant SLO targets (µs; 0 = none), from `ServeOptions`.
    slo_targets: Vec<f64>,
    /// Per-tenant lumped-model SLO violations.
    lumped_violations: Vec<u64>,
    /// Per-tenant `(served, violations)` at the last emitted boundary,
    /// for the windowed burn-rate gauge.
    prev_burn: Vec<(u64, u64)>,
}

impl SeriesRecorder {
    /// Gathers the counter and gauge columns at window boundary `t_us`,
    /// advancing the burn-rate baselines.
    fn gather(
        &mut self,
        stats: &SimStats,
        backpressure: &Backpressure,
        t_us: f64,
    ) -> (Vec<u64>, Vec<f64>) {
        let mut counters: Vec<u64> = COUNTERS.iter().map(|&(_, _, get)| get(stats)).collect();
        let mut gauges = vec![
            count_quantile(&stats.reads_by_sensing_level, 0.5),
            count_quantile(&stats.reads_by_sensing_level, 0.99),
            count_quantile(&stats.retry_depth_histogram, 0.99),
            retry_rate(stats),
            stats.observed_uber(reliability::EccConfig::paper_ldpc().info_bits),
        ];
        for tenant in 0..self.slo_targets.len() {
            let zero = crate::stats::TenantStats::default();
            let t = stats.tenants.get(tenant).unwrap_or(&zero);
            let violations = self.lumped_violations[tenant];
            counters.extend([t.arrivals, t.served, t.dropped, t.deferred, violations]);
            gauges.push(backpressure.inflight_at(tenant as u32, t_us) as f64);
            let (prev_served, prev_violations) = self.prev_burn[tenant];
            let served = t.served - prev_served;
            let burned = violations - prev_violations;
            gauges.push(if served == 0 {
                0.0
            } else {
                burned as f64 / served as f64
            });
            self.prev_burn[tenant] = (t.served, violations);
        }
        (counters, gauges)
    }
}

/// Wall-clock heartbeat state for `--progress`. Emission timing is
/// wall-clock-gated and therefore nondeterministic, which is why the
/// heartbeat goes to stderr and never into a deterministic artifact.
#[derive(Debug)]
struct ProgressMeter {
    last: std::time::Instant,
    every: std::time::Duration,
}

/// Severity-ordered span outcome: later variants dominate earlier ones
/// when a multi-page request mixes outcomes.
const RANK_BUFFER_HIT: u8 = 0;
const RANK_SUCCESS: u8 = 1;
const RANK_RECOVERED: u8 = 2;
const RANK_UNCORRECTABLE: u8 = 3;

fn outcome_of(rank: u8) -> SpanOutcome {
    match rank {
        RANK_BUFFER_HIT => SpanOutcome::BufferHit,
        RANK_SUCCESS => SpanOutcome::Success,
        RANK_RECOVERED => SpanOutcome::Recovered,
        _ => SpanOutcome::Uncorrectable,
    }
}

/// Span fields the logical layer knows before timing is resolved.
#[derive(Debug, Default)]
struct PendingSpan {
    lpn: u64,
    tenant: u32,
    stages: Vec<StageTiming>,
    offset_us: f64,
    sensing_levels: u32,
    decode_iterations: u32,
    retry_rungs: u32,
    rank: u8,
}

/// One request's record between its logical phase and its completion.
#[derive(Debug)]
struct DeferredRequest {
    arrival: Micros,
    /// The arrival until the request is reported started (a request
    /// with no foreground device work never is).
    start: Micros,
    /// `None` until the request completes (a zero response is legal).
    response: Option<Micros>,
    span: Option<PendingSpan>,
}

/// Records metrics and read spans for one simulator run.
///
/// Histogram ids are registered at construction, so event-time recording
/// is an array index — no name lookups on the hot path.
#[derive(Debug)]
pub struct SimObserver {
    recorder: Recorder,
    scheme: &'static str,
    h_response: HistogramId,
    h_sensing: HistogramId,
    h_iterations: HistogramId,
    h_retry_depth: HistogramId,
    h_stage_busy: [HistogramId; StageKind::ALL.len()],
    h_stage_wait: [HistogramId; StageKind::ALL.len()],
    /// Per-tenant response histograms, indexed by tenant; registered by
    /// [`ensure_tenants`](Self::ensure_tenants) (empty for replay runs).
    h_tenant_response: Vec<HistogramId>,
    /// Tenant the request currently in the logical layer belongs to
    /// (0 — and never updated — for replay runs).
    current_tenant: u32,
    pending: Option<PendingSpan>,
    /// Requests not yet flushed, in request order; the front has key
    /// `deferred_base`.
    deferred: VecDeque<DeferredRequest>,
    deferred_base: u64,
    seq: u64,
    /// Windowed time-series sampler; `None` unless enabled via
    /// [`with_series`](Self::with_series).
    series: Option<SeriesRecorder>,
    /// Wall-clock heartbeat; `None` unless enabled via
    /// [`with_progress`](Self::with_progress).
    progress: Option<ProgressMeter>,
    /// Arrival time of the request currently in the logical layer;
    /// instant events are stamped with it so the event stream is a
    /// function of request order alone.
    current_arrival: f64,
    event_seq: u64,
}

impl SimObserver {
    /// Creates an observer for `scheme` whose span buffer keeps at most
    /// `span_sample` spans (`0` keeps every span).
    pub fn new(scheme: Scheme, span_sample: usize) -> SimObserver {
        let mut recorder = Recorder::with_span_sample(span_sample);
        let label = scheme.label();
        let scheme_labels: &[(&str, &str)] = &[("scheme", label)];
        let h_response = recorder.metrics.histogram(
            "flexlevel_response_us",
            "End-to-end host request response time (us).",
            scheme_labels,
        );
        let h_sensing = recorder.metrics.histogram(
            "flexlevel_sensing_levels",
            "Extra soft sensing levels charged per flash-served host read.",
            scheme_labels,
        );
        let h_iterations = recorder.metrics.histogram(
            "flexlevel_decode_iterations",
            "LDPC decoder iterations charged per flash-served host read.",
            scheme_labels,
        );
        let h_retry_depth = recorder.metrics.histogram(
            "flexlevel_retry_depth",
            "Recovery-ladder rungs climbed per faulted frame read.",
            scheme_labels,
        );
        let mut h_stage_busy = [h_response; StageKind::ALL.len()];
        let mut h_stage_wait = [h_response; StageKind::ALL.len()];
        for (i, kind) in StageKind::ALL.iter().enumerate() {
            let labels: &[(&str, &str)] = &[("scheme", label), ("stage", kind.label())];
            h_stage_busy[i] = recorder.metrics.histogram(
                "flexlevel_stage_busy_us",
                "Stage service time per execution (us, pipelined model).",
                labels,
            );
            h_stage_wait[i] = recorder.metrics.histogram(
                "flexlevel_stage_wait_us",
                "Stage queueing delay per execution (us, pipelined model).",
                labels,
            );
        }
        SimObserver {
            recorder,
            scheme: label,
            h_response,
            h_sensing,
            h_iterations,
            h_retry_depth,
            h_stage_busy,
            h_stage_wait,
            h_tenant_response: Vec::new(),
            current_tenant: 0,
            pending: None,
            deferred: VecDeque::new(),
            deferred_base: 0,
            seq: 0,
            series: None,
            progress: None,
            current_arrival: 0.0,
            event_seq: 0,
        }
    }

    /// Enables the windowed time series: one snapshot of every counter
    /// and gauge column per `interval_us` of simulated time (clamped to
    /// at least 1 µs). Sampling is keyed to request arrivals, so the
    /// series is bit-identical across thread counts and timing backends.
    #[must_use]
    pub fn with_series(mut self, interval_us: u64) -> SimObserver {
        self.series = Some(SeriesRecorder {
            sampler: SeriesSampler::new(
                self.scheme,
                interval_us,
                COUNTERS
                    .iter()
                    .map(|&(column, _, _)| column.to_string())
                    .collect(),
                SERIES_GAUGES.iter().map(|s| s.to_string()).collect(),
            ),
            slo_targets: Vec::new(),
            lumped_violations: Vec::new(),
            prev_burn: Vec::new(),
        });
        self
    }

    /// Enables the `--progress` heartbeat: roughly once per wall-clock
    /// second a one-line panel (sim time, ops, observed UBER, retry
    /// rate) is printed to stderr.
    #[must_use]
    pub fn with_progress(mut self) -> SimObserver {
        self.progress = Some(ProgressMeter {
            last: std::time::Instant::now(),
            every: std::time::Duration::from_secs(1),
        });
        self
    }

    /// The recorded data so far.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// Consumes the observer, yielding the recorded data. A flushed
    /// time series is appended to the recorder as a series block.
    pub fn into_recorder(mut self) -> Recorder {
        if let Some(series) = self.series.take() {
            self.recorder.series.push(series.sampler.into_block());
        }
        self.recorder
    }

    /// Clears recorded values and span state while keeping registered
    /// series valid; called by the simulator's preload so re-running a
    /// simulator does not double-count.
    pub(crate) fn reset(&mut self) {
        self.recorder.metrics.reset_values();
        self.recorder.spans.clear();
        self.pending = None;
        self.deferred.clear();
        self.deferred_base = 0;
        self.seq = 0;
        self.current_tenant = 0;
        self.current_arrival = 0.0;
        self.event_seq = 0;
        if let Some(series) = self.series.as_mut() {
            series.sampler.reset();
            series.lumped_violations.iter_mut().for_each(|v| *v = 0);
            series.prev_burn.iter_mut().for_each(|b| *b = (0, 0));
        }
    }

    /// Registers per-tenant response histograms — and, when the time
    /// series is enabled, per-tenant series columns plus SLO targets —
    /// for every tenant in `options` (idempotent: already-registered
    /// tenants keep their ids and columns).
    pub(crate) fn ensure_tenants(&mut self, options: &ServeOptions) {
        let n = options.tenants.len() as u32;
        for tenant in self.h_tenant_response.len() as u32..n {
            let t = tenant.to_string();
            let labels: &[(&str, &str)] = &[("scheme", self.scheme), ("tenant", &t)];
            self.h_tenant_response.push(self.recorder.metrics.histogram(
                "flexlevel_tenant_response_us",
                "Per-tenant host request response time (us).",
                labels,
            ));
        }
        if let Some(series) = self.series.as_mut() {
            for tenant in series.slo_targets.len()..options.tenants.len() {
                series.sampler.extend_schema(
                    &[
                        format!("t{tenant}_arrivals"),
                        format!("t{tenant}_served"),
                        format!("t{tenant}_dropped"),
                        format!("t{tenant}_deferred"),
                        format!("t{tenant}_slo_violations"),
                    ],
                    &[format!("t{tenant}_inflight"), format!("t{tenant}_slo_burn")],
                );
                series.slo_targets.push(options.tenants[tenant].slo_us);
                series.lumped_violations.push(0);
                series.prev_burn.push((0, 0));
            }
        }
    }

    /// Sets the tenant subsequent requests will be attributed to.
    pub(crate) fn set_tenant(&mut self, tenant: u32) {
        self.current_tenant = tenant;
    }

    /// Records one served request's response into its tenant's histogram.
    pub(crate) fn tenant_response(&mut self, tenant: u32, response: Micros) {
        if let Some(&id) = self.h_tenant_response.get(tenant as usize) {
            self.recorder.metrics.observe(id, response.as_f64());
        }
    }

    /// Starts the span of one host request; only reads build spans.
    /// `arrival_us` stamps any instant events the request triggers.
    pub(crate) fn begin_request(&mut self, lpn: u64, is_read: bool, arrival_us: f64) {
        self.current_arrival = arrival_us;
        self.pending = is_read.then(|| PendingSpan {
            lpn,
            tenant: self.current_tenant,
            ..PendingSpan::default()
        });
    }

    /// Appends one stage to the current request's span.
    pub(crate) fn span_stage(&mut self, stage: &'static str, duration: Micros) {
        if let Some(pending) = self.pending.as_mut() {
            pending.stages.push(StageTiming {
                stage,
                offset_us: pending.offset_us,
                duration_us: duration.as_f64(),
            });
            pending.offset_us += duration.as_f64();
        }
    }

    /// Records one flash-served host page read: its sensing depth and
    /// charged decoder iterations.
    pub(crate) fn flash_read(&mut self, levels: u32, iterations: u32) {
        self.recorder.metrics.observe(self.h_sensing, levels as f64);
        self.recorder
            .metrics
            .observe(self.h_iterations, iterations as f64);
        if let Some(pending) = self.pending.as_mut() {
            pending.rank = pending.rank.max(RANK_SUCCESS);
            pending.sensing_levels = pending.sensing_levels.max(levels);
            pending.decode_iterations = pending.decode_iterations.max(iterations);
        }
    }

    /// Records the resolved recovery ladder of one faulted frame read
    /// (`depth == 0` = clean first decode). Ladder climbs (`depth > 0`)
    /// additionally emit an instant trace event.
    pub(crate) fn retry(&mut self, lpn: u64, depth: usize, recovered: bool) {
        self.recorder
            .metrics
            .observe(self.h_retry_depth, depth as f64);
        if let Some(pending) = self.pending.as_mut() {
            pending.retry_rungs += depth as u32;
            if depth > 0 {
                pending.rank = pending.rank.max(if recovered {
                    RANK_RECOVERED
                } else {
                    RANK_UNCORRECTABLE
                });
            }
        }
        if depth > 0 {
            self.push_event(
                lpn,
                EventKind::Retry {
                    depth: depth as u32,
                    recovered,
                },
            );
        }
    }

    /// Emits an instant trace event for a transient die fault that
    /// interposed a reset before the read at `lpn` could be served.
    pub(crate) fn die_reset(&mut self, lpn: u64) {
        self.push_event(lpn, EventKind::DieReset);
    }

    /// Emits an instant trace event for one patrol-scrub visit of
    /// `block` (the event's `lpn` field carries the block id).
    pub(crate) fn scrub(&mut self, block: u64, reads: u32, refreshes: u32) {
        self.push_event(block, EventKind::Scrub { reads, refreshes });
    }

    fn push_event(&mut self, lpn: u64, kind: EventKind) {
        let event = TraceEvent {
            seq: self.event_seq,
            t_us: self.current_arrival,
            scheme: self.scheme,
            tenant: self.current_tenant,
            lpn,
            kind,
        };
        self.event_seq += 1;
        self.recorder.spans.push_event(event);
    }

    /// Arrival hook, called once per host request before its effects
    /// apply: prints the progress heartbeat when due (wall clock,
    /// stderr) and emits every time-series window whose boundary the
    /// arrival crossed. Windows close on arrivals — a trace property —
    /// so snapshots see identical state in every backend.
    pub(crate) fn on_arrival(&mut self, arrival_us: f64, stats: &SimStats, bp: &Backpressure) {
        if let Some(progress) = self.progress.as_mut() {
            if progress.last.elapsed() >= progress.every {
                progress.last = std::time::Instant::now();
                eprintln!(
                    "progress [{}]: sim {:.3} s, {} ops, uber {:.3e}, retry rate {:.5}",
                    self.scheme,
                    arrival_us / 1e6,
                    stats.host_requests(),
                    stats.observed_uber(reliability::EccConfig::paper_ldpc().info_bits),
                    retry_rate(stats),
                );
            }
        }
        if let Some(series) = self.series.as_mut() {
            while let Some(boundary) = series.sampler.due(arrival_us) {
                let (counters, gauges) = series.gather(stats, bp, boundary);
                series.sampler.emit(counters, gauges);
            }
        }
    }

    /// Flushes the final (possibly partial) time-series window.
    /// Idempotent; the backends call it once at the end of a completed
    /// run (never after a prefix or crash, whose unflushed state rides
    /// the device image instead).
    pub(crate) fn series_flush(&mut self, stats: &SimStats, bp: &Backpressure) {
        if let Some(series) = self.series.as_mut() {
            if let Some(boundary) = series.sampler.due(f64::INFINITY) {
                let (counters, gauges) = series.gather(stats, bp, boundary);
                series.sampler.flush(counters, gauges);
            }
        }
    }

    /// Tallies one served request's *lumped* response against its
    /// tenant's SLO (see [`SeriesRecorder`]); the call site is the
    /// backpressure commit, identical in both backends.
    pub(crate) fn tenant_lumped(&mut self, tenant: u32, response_us: f64) {
        if let Some(series) = self.series.as_mut() {
            if let Some(&target) = series.slo_targets.get(tenant as usize) {
                if target > 0.0 && response_us > target {
                    series.lumped_violations[tenant as usize] += 1;
                }
            }
        }
    }

    /// Snapshot of the sampler for the device image (`None` when the
    /// series is disabled).
    pub(crate) fn series_state(&self) -> Option<SeriesState> {
        self.series.as_ref().map(|s| s.sampler.state())
    }

    /// Rehydrates the sampler from a device-image snapshot. Returns
    /// `false` (leaving the fresh sampler in place) when the series is
    /// disabled or the snapshot's interval/schema does not match.
    pub(crate) fn restore_series(&mut self, state: &SeriesState) -> bool {
        self.series
            .as_mut()
            .is_some_and(|s| s.sampler.restore(state))
    }

    /// Ends the current request's logical phase and queues it until its
    /// timing is known; returns the key [`started`](Self::started) and
    /// [`finished`](Self::finished) name it by.
    pub(crate) fn end_request(&mut self, arrival: Micros) -> u64 {
        self.deferred.push_back(DeferredRequest {
            arrival,
            start: arrival,
            response: None,
            span: self.pending.take(),
        });
        self.deferred_base + self.deferred.len() as u64 - 1
    }

    /// Request `key` entered service at `start`.
    pub(crate) fn started(&mut self, key: u64, start: Micros) {
        self.deferred[(key - self.deferred_base) as usize].start = start;
    }

    /// Request `key` completed with `response`. Flushes the finished
    /// prefix of the queue — response observations and spans in request
    /// order, making trace/metric state independent of the scheduler's
    /// interleaving. Under the single-queue model every request finishes
    /// as it is admitted, so the queue flushes at once.
    pub(crate) fn finished(&mut self, key: u64, response: Micros) {
        self.deferred[(key - self.deferred_base) as usize].response = Some(response);
        while let Some(response) = self.deferred.front().and_then(|d| d.response) {
            let done = self.deferred.pop_front();
            self.deferred_base += 1;
            self.recorder
                .metrics
                .observe(self.h_response, response.as_f64());
            if let Some(DeferredRequest {
                arrival,
                start,
                span: Some(span),
                ..
            }) = done
            {
                self.emit_span(span, arrival, start, response);
            }
        }
    }

    /// Records one pipeline stage execution (same call site as
    /// [`SimStats::record_stage`], so counts reconcile exactly).
    pub(crate) fn record_stage(&mut self, kind: StageKind, busy: Micros, wait: Micros) {
        let i = kind as usize;
        self.recorder
            .metrics
            .observe(self.h_stage_busy[i], busy.as_f64());
        self.recorder
            .metrics
            .observe(self.h_stage_wait[i], wait.as_f64());
    }

    fn emit_span(
        &mut self,
        pending: PendingSpan,
        arrival: Micros,
        start: Micros,
        response: Micros,
    ) {
        let span = ReadSpan {
            seq: self.seq,
            lpn: pending.lpn,
            scheme: self.scheme,
            tenant: pending.tenant,
            arrival_us: arrival.as_f64(),
            start_us: start.as_f64(),
            response_us: response.as_f64(),
            sensing_levels: pending.sensing_levels,
            decode_iterations: pending.decode_iterations,
            retry_rungs: pending.retry_rungs,
            stages: pending.stages,
            outcome: outcome_of(pending.rank),
        };
        self.seq += 1;
        self.recorder.spans.push(span);
    }

    /// Folds the finished run's `SimStats` into the registry: every
    /// operation counter is copied verbatim (so exported counters equal
    /// the golden counters by construction) along with derived gauges.
    pub(crate) fn finish_run(&mut self, stats: &SimStats, host_pages_written: u64) {
        let scheme = self.scheme;
        let labels: &[(&str, &str)] = &[("scheme", scheme)];
        let registry = &mut self.recorder.metrics;
        let mut fold = |name: &str, help: &str, value: u64| {
            let id = registry.counter(name, help, labels);
            registry.set_counter(id, value);
        };
        for &(column, help, get) in &COUNTERS {
            fold(&format!("flexlevel_{column}_total"), help, get(stats));
        }
        // Recovery counters only exist after a crash-restore; gating on
        // nonzero keeps every pre-existing export byte-identical.
        if stats.journal_replayed > 0 {
            fold(
                "flexlevel_journal_replayed_total",
                "Mapping-journal records replayed during crash recovery.",
                stats.journal_replayed,
            );
        }
        if stats.torn_pages_discarded > 0 {
            fold(
                "flexlevel_torn_pages_discarded_total",
                "Torn (interrupted-program) pages discarded during recovery.",
                stats.torn_pages_discarded,
            );
        }
        if stats.checkpoint_age_requests > 0 {
            fold(
                "flexlevel_checkpoint_age_requests",
                "Requests served between the restored checkpoint and the crash.",
                stats.checkpoint_age_requests,
            );
        }
        for kind in StageKind::ALL {
            let stage_labels: &[(&str, &str)] = &[("scheme", scheme), ("stage", kind.label())];
            let account = stats.stage(kind);
            let ops = registry.counter(
                "flexlevel_stage_ops_total",
                "Stage executions (pipelined model).",
                stage_labels,
            );
            registry.set_counter(ops, account.ops);
            let busy = registry.gauge(
                "flexlevel_stage_busy_total_us",
                "Total stage busy time (us, pipelined model).",
                stage_labels,
            );
            registry.set_gauge(busy, account.busy_us);
            let wait = registry.gauge(
                "flexlevel_stage_wait_total_us",
                "Total stage wait time (us, pipelined model).",
                stage_labels,
            );
            registry.set_gauge(wait, account.wait_us);
        }
        let mut gauge = |name: &str, help: &str, value: f64| {
            let id = registry.gauge(name, help, labels);
            registry.set_gauge(id, value);
        };
        gauge(
            "flexlevel_makespan_us",
            "Schedule makespan (us).",
            stats.makespan_us,
        );
        gauge(
            "flexlevel_throughput_rps",
            "Host requests per second of makespan.",
            stats.throughput_rps(),
        );
        gauge(
            "flexlevel_mean_response_us",
            "Mean host request response time (us).",
            stats.mean_response().as_f64(),
        );
        gauge(
            "flexlevel_mean_read_response_us",
            "Mean host read response time (us).",
            stats.mean_read_response().as_f64(),
        );
        gauge(
            "flexlevel_p99_response_us",
            "99th-percentile host response time (us).",
            stats.response_percentile(0.99).as_f64(),
        );
        gauge(
            "flexlevel_soft_read_fraction",
            "Fraction of normal-page host reads needing soft sensing.",
            stats.soft_read_fraction(),
        );
        gauge(
            "flexlevel_write_amplification",
            "Flash programs per host-written page.",
            stats.write_amplification(host_pages_written),
        );
        gauge(
            "flexlevel_observed_uber",
            "Uncorrectable reads per information bit read.",
            stats.observed_uber(reliability::EccConfig::paper_ldpc().info_bits),
        );
        for (tenant, t) in stats.tenants.iter().enumerate() {
            let label = tenant.to_string();
            let tenant_labels: &[(&str, &str)] = &[("scheme", scheme), ("tenant", &label)];
            let mut fold = |name: &str, help: &str, value: u64| {
                let id = registry.counter(name, help, tenant_labels);
                registry.set_counter(id, value);
            };
            fold(
                "flexlevel_tenant_arrivals_total",
                "Requests the tenant submitted.",
                t.arrivals,
            );
            fold(
                "flexlevel_tenant_served_total",
                "Tenant requests admitted and completed.",
                t.served,
            );
            fold(
                "flexlevel_tenant_dropped_total",
                "Tenant requests rejected by queue-depth backpressure.",
                t.dropped,
            );
            fold(
                "flexlevel_tenant_deferred_total",
                "Tenant requests delayed by queue-depth backpressure.",
                t.deferred,
            );
            fold(
                "flexlevel_tenant_slo_violations_total",
                "Served tenant requests exceeding their SLO target.",
                t.slo_violations,
            );
            let mut gauge = |name: &str, help: &str, value: f64| {
                let id = registry.gauge(name, help, tenant_labels);
                registry.set_gauge(id, value);
            };
            gauge(
                "flexlevel_tenant_slo_target_us",
                "Tenant latency SLO target (us; 0 = none).",
                t.slo_target_us,
            );
            gauge(
                "flexlevel_tenant_mean_response_us",
                "Mean tenant response time (us).",
                t.mean_response().as_f64(),
            );
            gauge(
                "flexlevel_tenant_p50_response_us",
                "Median tenant response time (us).",
                t.p50().as_f64(),
            );
            gauge(
                "flexlevel_tenant_p99_response_us",
                "99th-percentile tenant response time (us).",
                t.p99().as_f64(),
            );
            gauge(
                "flexlevel_tenant_p999_response_us",
                "99.9th-percentile tenant response time (us).",
                t.p999().as_f64(),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_flush_in_request_order_as_the_finished_prefix_grows() {
        let mut o = SimObserver::new(Scheme::FlexLevel, 0);
        let arrival = |i: u64| Micros(10.0 * i as f64);
        let response = |i: u64| Micros(100.0 + i as f64);
        let keys: Vec<u64> = (0..3)
            .map(|i| {
                o.begin_request(i, true, arrival(i).as_f64());
                let key = o.end_request(arrival(i));
                o.started(key, arrival(i) + Micros(1.0));
                key
            })
            .collect();
        let mut flushed = Vec::new();
        for i in [2, 0, 1] {
            o.finished(keys[i as usize], response(i));
            let responses = o.recorder().metrics.histogram_value(o.h_response).count();
            flushed.push((o.recorder().spans.len(), responses));
        }
        assert_eq!(flushed, [(0, 0), (1, 1), (3, 3)]);
        for (i, span) in o.recorder().spans.spans().iter().enumerate() {
            let i = i as u64;
            assert_eq!((span.seq, span.lpn), (i, i));
            assert_eq!(span.arrival_us, arrival(i).as_f64());
            assert_eq!(span.start_us, arrival(i).as_f64() + 1.0);
            assert_eq!(span.response_us, response(i).as_f64());
        }
    }
}
