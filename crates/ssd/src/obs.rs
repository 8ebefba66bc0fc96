//! Simulator-side observability: the bridge between [`SsdSimulator`] and
//! the `flexlevel-obs` recorder.
//!
//! A [`SimObserver`] is attached to a simulator before `run()`
//! ([`SsdSimulator::attach_observer`]); when absent, no observability
//! code executes at all — the `Option` check is the entire disabled-path
//! cost, which keeps golden fixtures and throughput untouched.
//!
//! The observer learns about a run at two feed points; the logical layer
//! (buffer, FTL, read path, recovery ladder, patrol scrub) holds no
//! observer code:
//!
//! * **`end_request`** — once per admitted request, one walk of its
//!   foreground [`FlashOp`] chain (the chain both timing models run)
//!   reads off what the request did: each [`FlashOp::Read`]'s sensing
//!   depth and decoder iterations, the recovery ladder its
//!   [`FlashOp::Retry`] rungs climbed, its die resets and its read
//!   span's stages. The call adds what the chain does not carry: the
//!   request, its tenant, its lumped response for the SLO tally and the
//!   patrol-scrub visit it triggered.
//! * **`record`** — the simulator's one recording path reports timing:
//!   a request entering service, each pipeline stage (at the same call
//!   site as [`SimStats::record_stage`], so stage histogram counts equal
//!   [`StageAccount::ops`](crate::stats::StageAccount::ops)) and each
//!   completion.
//!
//! Besides these, `on_arrival` closes time-series windows and
//! `finish_run` folds every `SimStats` counter into the registry, so the
//! exported counters equal the golden counters by construction.
//!
//! Instant events are offered in the order the logical layer met them
//! (per page, die reset then ladder; the scrub visit last): reservoir
//! sampling keeps events by offer order. Each completion flushes the
//! finished prefix of the request-ordered queue, so spans and response
//! observations come out in request order — independent of event
//! interleaving — and the queue only holds requests still in flight.
//!
//! [`SsdSimulator`]: crate::sim::SsdSimulator
//! [`SsdSimulator::attach_observer`]: crate::sim::SsdSimulator::attach_observer
//! [`SimStats::record_stage`]: crate::stats::SimStats::record_stage

use std::collections::VecDeque;

use flash_model::Micros;
use ldpc::ReadLatencyModel;
use obs::{
    EventKind, HistogramId, ReadSpan, Recorder, SeriesSampler, SeriesState, SpanOutcome,
    StageTiming, TraceEvent,
};

use workloads::{IoOp, IoRequest};

use crate::config::Scheme;
use crate::pipeline::{FlashOp, StageKind};
use crate::scheduler::Event;
use crate::serve::{Backpressure, ServeOptions};
use crate::sim::ScrubVisit;
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

/// One request's record between its logical phase and its completion.
#[derive(Debug)]
struct DeferredRequest {
    /// `None` until the request completes (a zero response is legal).
    response: Option<Micros>,
    /// The request's tenant on tenanted runs.
    tenant: Option<u32>,
    /// A read's span. It starts at the arrival until the request is
    /// reported started (a request with no foreground device work never
    /// is); its sequence number and response are set when it flushes.
    span: Option<ReadSpan>,
}

/// The recovery ladder of one sensed page read, as its chain climbs it.
#[derive(Debug)]
struct Ladder {
    lpn: u64,
    /// Rungs climbed so far.
    depth: u32,
    /// Whether the last rung climbed decoded (`true` before any rung).
    recovered: bool,
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
    /// [`reset`](Self::reset) (empty for replay runs).
    h_tenant_response: Vec<HistogramId>,
    /// Whether the simulator draws read faults, so that every sensed
    /// read resolves a recovery ladder — observed even when it climbs no
    /// rung. Learned when the observer is attached.
    fault_draws: bool,
    /// Requests not yet flushed, in request order; the front has key
    /// `deferred_base`.
    deferred: VecDeque<DeferredRequest>,
    deferred_base: u64,
    /// Windowed time-series sampler; `None` unless enabled via
    /// [`with_series`](Self::with_series).
    series: Option<SeriesRecorder>,
    /// Wall-clock heartbeat; `None` unless enabled via
    /// [`with_progress`](Self::with_progress).
    progress: Option<ProgressMeter>,
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
            fault_draws: false,
            deferred: VecDeque::new(),
            deferred_base: 0,
            series: None,
            progress: None,
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

    /// Whether the simulator the observer is attached to draws read
    /// faults.
    pub(crate) fn set_fault_draws(&mut self, enabled: bool) {
        self.fault_draws = enabled;
    }

    /// Clears recorded values and span state while keeping registered
    /// series valid, then registers per-tenant response histograms —
    /// and, when the time series is enabled, per-tenant series columns
    /// plus SLO targets — for every tenant in `options` (already
    /// registered tenants keep their ids and columns). Called by the
    /// simulator's preload, so re-running a simulator does not
    /// double-count.
    pub(crate) fn reset(&mut self, options: &ServeOptions) {
        self.recorder.metrics.reset_values();
        self.recorder.spans.clear();
        self.deferred.clear();
        self.deferred_base = 0;
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
            series.sampler.reset();
            series.lumped_violations.iter_mut().for_each(|v| *v = 0);
            series.prev_burn.iter_mut().for_each(|b| *b = (0, 0));
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

    /// Offers one instant trace event, stamped with the arrival `t_us`
    /// and `tenant` of the request that caused it; its sequence number
    /// is its offer index.
    fn push_event(&mut self, t_us: f64, tenant: u32, lpn: u64, kind: EventKind) {
        self.recorder.spans.push_event(TraceEvent {
            seq: self.recorder.spans.events_offered(),
            t_us,
            scheme: self.scheme,
            tenant,
            lpn,
            kind,
        });
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

    /// Ends `request`'s logical phase and queues it until its timing is
    /// known; returns the key [`record`](Self::record) names it by.
    ///
    /// One walk of the foreground op chain `fg` observes each
    /// [`FlashOp::Read`]'s sensing depth and decoder iterations, the
    /// recovery ladder its [`FlashOp::Retry`] rungs climbed (when fault
    /// draws run) and its die resets, and gives a read its span: those
    /// facts plus the chain's stages, priced by `latency`. Instant events
    /// carry the arrival and `tenant` (0 on untenanted runs). On tenanted
    /// runs the `lumped` response is tallied against the tenant's SLO
    /// (see [`SeriesRecorder`]).
    pub(crate) fn end_request(
        &mut self,
        request: &IoRequest,
        tenant: Option<u32>,
        lumped: Micros,
        scrub: Option<ScrubVisit>,
        fg: &[FlashOp],
        latency: &ReadLatencyModel,
    ) -> u64 {
        let (t_us, tenant_id) = (request.arrival_us, tenant.unwrap_or(0));
        let mut span = (request.op() == IoOp::Read).then(|| ReadSpan {
            seq: 0,
            lpn: request.lpn(),
            scheme: self.scheme,
            tenant: tenant_id,
            arrival_us: t_us,
            start_us: t_us,
            response_us: 0.0,
            sensing_levels: 0,
            decode_iterations: 0,
            retry_rungs: 0,
            stages: Vec::new(),
            outcome: SpanOutcome::BufferHit,
        });
        let mut ladder = None;
        let mut offset_us = 0.0;
        for op in fg {
            match *op {
                FlashOp::Read {
                    lpn,
                    extra_levels,
                    iterations,
                    ..
                } => {
                    let iterations = u32::from(iterations);
                    self.close_ladder(ladder.take(), span.as_mut(), t_us, tenant_id);
                    let metrics = &mut self.recorder.metrics;
                    metrics.observe(self.h_sensing, extra_levels as f64);
                    metrics.observe(self.h_iterations, iterations as f64);
                    if let Some(span) = span.as_mut() {
                        span.outcome = span.outcome.max(SpanOutcome::Success);
                        span.sensing_levels = span.sensing_levels.max(extra_levels);
                        span.decode_iterations = span.decode_iterations.max(iterations);
                    }
                    ladder = self.fault_draws.then_some(Ladder {
                        lpn,
                        depth: 0,
                        recovered: true,
                    });
                }
                FlashOp::Retry { decoded, .. } => {
                    if let Some(ladder) = ladder.as_mut() {
                        ladder.depth += 1;
                        ladder.recovered = decoded;
                    }
                }
                FlashOp::DieReset { lpn, .. } => {
                    self.push_event(t_us, tenant_id, lpn, EventKind::DieReset);
                }
                _ => {}
            }
            if let Some(span) = span.as_mut() {
                op.for_each_span_stage(latency, |stage, duration| {
                    span.stages.push(StageTiming {
                        stage,
                        offset_us,
                        duration_us: duration.as_f64(),
                    });
                    offset_us += duration.as_f64();
                });
            }
        }
        self.close_ladder(ladder, span.as_mut(), t_us, tenant_id);
        if let Some(visit) = scrub {
            let kind = EventKind::Scrub {
                reads: visit.reads,
                refreshes: visit.refreshes,
            };
            // The event's `lpn` field carries the block id.
            self.push_event(t_us, tenant_id, u64::from(visit.block.0), kind);
        }
        if let (Some(tenant), Some(series)) = (tenant, self.series.as_mut()) {
            if let Some(&target) = series.slo_targets.get(tenant as usize) {
                if target > 0.0 && lumped.as_f64() > target {
                    series.lumped_violations[tenant as usize] += 1;
                }
            }
        }
        self.deferred.push_back(DeferredRequest {
            response: None,
            tenant,
            span,
        });
        self.deferred_base + self.deferred.len() as u64 - 1
    }

    /// Observes the resolved recovery ladder of one sensed page read
    /// (depth 0 = clean first decode) into the retry-depth histogram and
    /// the request's span; a ladder climb also emits an instant event.
    fn close_ladder(
        &mut self,
        ladder: Option<Ladder>,
        span: Option<&mut ReadSpan>,
        t_us: f64,
        tenant: u32,
    ) {
        let Some(Ladder {
            lpn,
            depth,
            recovered,
        }) = ladder
        else {
            return;
        };
        self.recorder
            .metrics
            .observe(self.h_retry_depth, depth as f64);
        if depth == 0 {
            return;
        }
        if let Some(span) = span {
            span.retry_rungs += depth;
            span.outcome = span.outcome.max(if recovered {
                SpanOutcome::Recovered
            } else {
                SpanOutcome::Uncorrectable
            });
        }
        self.push_event(t_us, tenant, lpn, EventKind::Retry { depth, recovered });
    }

    /// Records one event of the simulator's recording path: request
    /// `obs_key` entering service, one pipeline stage execution (same
    /// call site as [`SimStats::record_stage`], so counts reconcile
    /// exactly) or a completion. A completion feeds its tenant's
    /// histogram at once, in completion order, then flushes the finished
    /// prefix of the queue: response observations and spans in request
    /// order, independent of the scheduler's interleaving. Under the
    /// single-queue model every request finishes as it is admitted, so
    /// the queue flushes at once.
    ///
    /// [`SimStats::record_stage`]: crate::stats::SimStats::record_stage
    pub(crate) fn record(&mut self, event: Event) {
        let metrics = &mut self.recorder.metrics;
        match event {
            Event::Started(request, start) => {
                let queued = &mut self.deferred[(request.obs_key - self.deferred_base) as usize];
                if let Some(span) = queued.span.as_mut() {
                    span.start_us = start.as_f64();
                }
            }
            Event::Stage(kind, busy, wait) => {
                metrics.observe(self.h_stage_busy[kind as usize], busy.as_f64());
                metrics.observe(self.h_stage_wait[kind as usize], wait.as_f64());
            }
            Event::Finished(request, response) => {
                let done = &mut self.deferred[(request.obs_key - self.deferred_base) as usize];
                done.response = Some(response);
                if let Some(&id) = done
                    .tenant
                    .and_then(|t| self.h_tenant_response.get(t as usize))
                {
                    metrics.observe(id, response.as_f64());
                }
                while let Some(response) = self.deferred.front().and_then(|d| d.response) {
                    let span = self.deferred.pop_front().and_then(|d| d.span);
                    self.deferred_base += 1;
                    metrics.observe(self.h_response, response.as_f64());
                    if let Some(mut span) = span {
                        span.seq = self.recorder.spans.offered();
                        span.response_us = response.as_f64();
                        self.recorder.spans.push(span);
                    }
                }
            }
        }
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
    use flash_model::BlockId;
    use obs::SpanOutcome;

    use super::*;
    use crate::scheduler::Request;

    fn read(arrival_us: f64, lpn: u64) -> IoRequest {
        IoRequest::new(arrival_us, lpn, 1, IoOp::Read)
    }

    fn key(obs_key: u64) -> Request {
        Request {
            tenant: 0,
            arrival: Micros::ZERO,
            is_read: true,
            obs_key,
        }
    }

    #[test]
    fn spans_flush_in_request_order_as_the_finished_prefix_grows() {
        let mut o = SimObserver::new(Scheme::FlexLevel, 0);
        let latency = ReadLatencyModel::paper_mlc();
        let arrival = |i: u64| Micros(10.0 * i as f64);
        let response = |i: u64| Micros(100.0 + i as f64);
        let keys: Vec<u64> = (0..3)
            .map(|i| {
                let request = read(arrival(i).as_f64(), i);
                let k = o.end_request(&request, None, Micros::ZERO, None, &[], &latency);
                o.record(Event::Started(key(k), arrival(i) + Micros(1.0)));
                k
            })
            .collect();
        let mut flushed = Vec::new();
        for i in [2, 0, 1] {
            o.record(Event::Finished(key(keys[i as usize]), response(i)));
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

    /// One walk of a chain yields the span fields and the instant events,
    /// in the order the logical layer met them: per page its die reset
    /// then its ladder, the scrub visit last.
    #[test]
    fn end_request_reads_the_chain() {
        let mut o = SimObserver::new(Scheme::FlexLevel, 0);
        o.set_fault_draws(true);
        let latency = ReadLatencyModel::paper_mlc();
        let decode = Micros(5.0);
        let sensed = |lpn, extra_levels, iterations| FlashOp::Read {
            lpn,
            extra_levels,
            decode,
            iterations,
        };
        let rung = |lpn, decoded| FlashOp::Retry {
            lpn,
            extra_levels: 4,
            decode,
            decoded,
        };
        let chain = [
            sensed(7, 2, 9),
            FlashOp::DieReset {
                lpn: 7,
                duration: Micros(50.0),
            },
            rung(7, false),
            rung(7, true),
            FlashOp::HostTransfer { lpn: 8 },
            sensed(9, 3, 4),
            sensed(10, 0, 1),
            rung(10, false),
        ];
        let scrub = ScrubVisit {
            block: BlockId(3),
            reads: 12,
            refreshes: 2,
        };
        let request = IoRequest::new(40.0, 7, 4, IoOp::Read);
        let k = o.end_request(
            &request,
            Some(1),
            Micros::ZERO,
            Some(scrub),
            &chain,
            &latency,
        );
        o.record(Event::Finished(key(k), Micros(900.0)));
        let events: Vec<(u64, EventKind, u32, f64)> = o
            .recorder()
            .spans
            .events()
            .iter()
            .map(|e| (e.lpn, e.kind, e.tenant, e.t_us))
            .collect();
        let retry = |depth, recovered| EventKind::Retry { depth, recovered };
        assert_eq!(
            events,
            [
                (7, EventKind::DieReset, 1, 40.0),
                (7, retry(2, true), 1, 40.0),
                (10, retry(1, false), 1, 40.0),
                (
                    3,
                    EventKind::Scrub {
                        reads: 12,
                        refreshes: 2
                    },
                    1,
                    40.0
                ),
            ]
        );
        let span = &o.recorder().spans.spans()[0];
        assert_eq!((span.lpn, span.tenant), (7, 1));
        assert_eq!(span.sensing_levels, 3);
        assert_eq!(span.decode_iterations, 9);
        assert_eq!(span.retry_rungs, 3);
        assert_eq!(span.outcome, SpanOutcome::Uncorrectable);
        assert_eq!(span.stages.len(), 14);
        let depths = o.recorder().metrics.histogram_value(o.h_retry_depth);
        // One ladder per sensed read, the clean one included.
        assert_eq!((depths.count(), depths.sum()), (3, 3.0));
        let levels = o.recorder().metrics.histogram_value(o.h_sensing);
        assert_eq!((levels.count(), levels.sum()), (3, 5.0));
    }
}
