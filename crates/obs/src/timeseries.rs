//! Deterministic windowed time series over simulated time.
//!
//! A [`SeriesSampler`] divides simulated time into fixed windows of
//! `interval_us` microseconds — window *k* covers `[k·i, (k+1)·i)` — and
//! emits one [`SeriesSnapshot`] per window: the cumulative value of every
//! sampled counter at the window's end, the per-window delta, and a set
//! of gauges evaluated at the boundary.
//!
//! # Determinism contract
//!
//! The sampler is keyed **purely to simulated time**, never to wall
//! clock: the caller offers each request's *arrival* timestamp (which is
//! a property of the trace, identical across thread counts and timing
//! backends) and the sampler emits the pending windows *before* that
//! request's effects are applied. As long as the sampled values are
//! themselves logical (operation counters, admission state — not
//! measured response times), the resulting series is bit-identical
//! across 1/2/8 threads and both timing backends, and a checkpointed
//! and resumed run reproduces the uninterrupted series byte for byte
//! (the accumulated [`SeriesState`] rides the device image).
//!
//! The final, partial window is flushed exactly once at end-of-run via
//! [`SeriesSampler::flush`]; a run prefix that stops early for a
//! checkpoint does *not* flush, it snapshots its state instead.

/// One emitted window: cumulative and per-window counter values plus
/// boundary gauges, in the sampler's schema order.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesSnapshot {
    /// Window index (0-based).
    pub window: u64,
    /// Window end time in µs (`(window + 1) · interval`); the flushed
    /// final window keeps its nominal end time even when partial.
    pub t_us: f64,
    /// Cumulative counter values at the window end, schema order.
    pub cumulative: Vec<u64>,
    /// Counter increments within this window, schema order.
    pub delta: Vec<u64>,
    /// Gauge values evaluated at the window end, schema order.
    pub gauges: Vec<f64>,
}

/// A finished sampler's output: schema plus snapshots, detached from the
/// accumulation state so it can ride a [`crate::Recorder`] merge.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesBlock {
    /// Label of the scheme (or run) that produced the series.
    pub scheme: String,
    /// Counter column names, in snapshot vector order.
    pub counters: Vec<String>,
    /// Gauge column names, in snapshot vector order.
    pub gauges: Vec<String>,
    /// Emitted windows in window order.
    pub snapshots: Vec<SeriesSnapshot>,
}

/// Portable dump of a sampler's accumulation state, carried by the
/// device-image checkpoint so a resumed campaign continues its series
/// instead of restarting it. Schema names are not stored — the restoring
/// side reconstructs the sampler from the same CLI flags and
/// [`SeriesSampler::restore`] validates the arity.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesState {
    /// Sampling interval in µs.
    pub interval_us: u64,
    /// Index of the currently accumulating (unemitted) window.
    pub window: u64,
    /// Cumulative counter values at the last emitted boundary.
    pub last: Vec<u64>,
    /// Windows emitted so far.
    pub snapshots: Vec<SeriesSnapshot>,
}

/// Windowed snapshot engine; see the [module docs](self) for the
/// determinism contract.
#[derive(Debug, Clone, PartialEq)]
pub struct SeriesSampler {
    scheme: String,
    interval_us: u64,
    counters: Vec<String>,
    gauges: Vec<String>,
    window: u64,
    last: Vec<u64>,
    snapshots: Vec<SeriesSnapshot>,
    flushed: bool,
}

impl SeriesSampler {
    /// Creates a sampler with a fixed schema. `interval_us` is clamped
    /// to at least 1 µs.
    pub fn new(
        scheme: &str,
        interval_us: u64,
        counters: Vec<String>,
        gauges: Vec<String>,
    ) -> SeriesSampler {
        let last = vec![0; counters.len()];
        SeriesSampler {
            scheme: scheme.to_string(),
            interval_us: interval_us.max(1),
            counters,
            gauges,
            window: 0,
            last,
            snapshots: Vec::new(),
            flushed: false,
        }
    }

    /// Appends columns to the schema. Only legal before the first
    /// snapshot is emitted (panics otherwise) — used to add per-tenant
    /// columns once the serve path knows the tenant count.
    pub fn extend_schema(&mut self, counters: &[String], gauges: &[String]) {
        assert!(
            self.snapshots.is_empty() && self.window == 0,
            "series schema is frozen once the first window is emitted"
        );
        self.counters.extend(counters.iter().cloned());
        self.gauges.extend(gauges.iter().cloned());
        self.last.resize(self.counters.len(), 0);
    }

    /// The sampling interval in µs.
    pub fn interval_us(&self) -> u64 {
        self.interval_us
    }

    /// The scheme label snapshots are attributed to.
    pub fn scheme(&self) -> &str {
        &self.scheme
    }

    /// Counter column names, in vector order.
    pub fn counter_names(&self) -> &[String] {
        &self.counters
    }

    /// Windows emitted so far.
    pub fn snapshots(&self) -> &[SeriesSnapshot] {
        &self.snapshots
    }

    /// End time (µs) of the currently accumulating window — the next
    /// boundary to cross.
    fn boundary_us(&self) -> f64 {
        ((self.window + 1) * self.interval_us) as f64
    }

    /// If an event at `t_us` lies at or past the open window's end,
    /// returns that boundary time: the caller must gather the current
    /// values and [`emit`](Self::emit) before applying the event, then
    /// ask again (a large gap crosses several windows, each emitted with
    /// unchanged cumulative values). Returns `None` once `t_us` falls
    /// inside the open window.
    pub fn due(&self, t_us: f64) -> Option<f64> {
        let boundary = self.boundary_us();
        (t_us >= boundary).then_some(boundary)
    }

    /// Emits the open window with the given cumulative counter and
    /// boundary gauge values (schema order; lengths must match) and
    /// opens the next window.
    pub fn emit(&mut self, cumulative: Vec<u64>, gauges: Vec<f64>) {
        assert_eq!(cumulative.len(), self.counters.len(), "counter arity");
        assert_eq!(gauges.len(), self.gauges.len(), "gauge arity");
        let delta: Vec<u64> = cumulative
            .iter()
            .zip(&self.last)
            .map(|(now, before)| now.saturating_sub(*before))
            .collect();
        self.snapshots.push(SeriesSnapshot {
            window: self.window,
            t_us: self.boundary_us(),
            cumulative: cumulative.clone(),
            delta,
            gauges,
        });
        self.last = cumulative;
        self.window += 1;
    }

    /// Flushes the final, partial window at end-of-run. Idempotent: a
    /// second flush is a no-op, so the "last partial window" appears
    /// exactly once. The snapshot keeps the window's nominal end time.
    pub fn flush(&mut self, cumulative: Vec<u64>, gauges: Vec<f64>) {
        if self.flushed {
            return;
        }
        self.emit(cumulative, gauges);
        self.flushed = true;
    }

    /// Clears all accumulation (snapshots, deltas, window cursor) while
    /// keeping the schema, so a re-run reproduces the series from
    /// scratch.
    pub fn reset(&mut self) {
        self.window = 0;
        self.last = vec![0; self.counters.len()];
        self.snapshots.clear();
        self.flushed = false;
    }

    /// Snapshot of the accumulation state for checkpointing.
    pub fn state(&self) -> SeriesState {
        SeriesState {
            interval_us: self.interval_us,
            window: self.window,
            last: self.last.clone(),
            snapshots: self.snapshots.clone(),
        }
    }

    /// Restores a checkpointed accumulation state. Returns `false` (and
    /// leaves the sampler untouched) when the state does not match this
    /// sampler's interval or schema arity — e.g. a restore under
    /// different series flags.
    pub fn restore(&mut self, state: &SeriesState) -> bool {
        let arity_ok = state.last.len() == self.counters.len()
            && state.snapshots.iter().all(|s| {
                s.cumulative.len() == self.counters.len()
                    && s.delta.len() == self.counters.len()
                    && s.gauges.len() == self.gauges.len()
            });
        if state.interval_us != self.interval_us || !arity_ok {
            return false;
        }
        self.window = state.window;
        self.last = state.last.clone();
        self.snapshots = state.snapshots.clone();
        self.flushed = false;
        true
    }

    /// Consumes the sampler into its exportable block.
    pub fn into_block(self) -> SeriesBlock {
        SeriesBlock {
            scheme: self.scheme,
            counters: self.counters,
            gauges: self.gauges,
            snapshots: self.snapshots,
        }
    }
}

/// Per-read time attribution, averaged over a span population: where a
/// read's response time went, in µs per read.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PathComponents {
    /// Host-side queueing: service start − arrival.
    pub queue_us: f64,
    /// Sensing stage busy time.
    pub sense_us: f64,
    /// Channel transfer stage busy time.
    pub transfer_us: f64,
    /// LDPC decode stage busy time.
    pub decode_us: f64,
    /// Recovery-ladder retry stage busy time.
    pub retry_us: f64,
    /// Die-reset stage busy time.
    pub die_reset_us: f64,
    /// Residual device-side wait (response − queue − Σ stage busy):
    /// inter-stage waits under the pipelined backend, 0 under the
    /// lumped one.
    pub wait_us: f64,
}

impl PathComponents {
    /// Total accounted time per read (sums every component).
    pub fn total_us(&self) -> f64 {
        self.queue_us
            + self.sense_us
            + self.transfer_us
            + self.decode_us
            + self.retry_us
            + self.die_reset_us
            + self.wait_us
    }

    fn add_span(&mut self, span: &crate::span::ReadSpan) {
        let queue = (span.start_us - span.arrival_us).max(0.0);
        self.queue_us += queue;
        let mut busy = 0.0;
        for stage in &span.stages {
            busy += stage.duration_us;
            match stage.stage {
                "sense" => self.sense_us += stage.duration_us,
                "transfer" => self.transfer_us += stage.duration_us,
                "decode" => self.decode_us += stage.duration_us,
                "retry" => self.retry_us += stage.duration_us,
                "die_reset" => self.die_reset_us += stage.duration_us,
                // Unlabelled stages still count toward busy time; the
                // residual wait stays an underestimate, never negative.
                _ => self.wait_us += stage.duration_us,
            }
        }
        self.wait_us += (span.response_us - queue - busy).max(0.0);
    }

    fn scaled(mut self, inv: f64) -> PathComponents {
        self.queue_us *= inv;
        self.sense_us *= inv;
        self.transfer_us *= inv;
        self.decode_us *= inv;
        self.retry_us *= inv;
        self.die_reset_us *= inv;
        self.wait_us *= inv;
        self
    }
}

/// One scheme's critical-path attribution: the mean breakdown over all
/// its spans and over its p99 tail ("where does p99 go").
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeAttribution {
    /// Scheme label.
    pub scheme: String,
    /// Spans attributed.
    pub reads: u64,
    /// Mean per-read breakdown over every span.
    pub mean: PathComponents,
    /// Response time of the p99-rank span (µs); tail threshold.
    pub p99_threshold_us: f64,
    /// Spans in the tail (`response ≥ p99_threshold_us`).
    pub tail_reads: u64,
    /// Mean per-read breakdown over the tail population.
    pub tail: PathComponents,
}

/// Folds read spans into per-scheme wait/busy breakdowns. Spans must be
/// in canonical `(scheme, seq)` order (see
/// [`SpanBuffer::sorted_spans`](crate::span::SpanBuffer::sorted_spans));
/// output schemes follow first-appearance order.
pub fn critical_path(spans: &[&crate::span::ReadSpan]) -> Vec<SchemeAttribution> {
    let mut out: Vec<SchemeAttribution> = Vec::new();
    let mut i = 0;
    while i < spans.len() {
        let scheme = spans[i].scheme;
        let mut group: Vec<&crate::span::ReadSpan> = Vec::new();
        while i < spans.len() && spans[i].scheme == scheme {
            group.push(spans[i]);
            i += 1;
        }
        let mut mean = PathComponents::default();
        for span in &group {
            mean.add_span(span);
        }
        let mean = mean.scaled(1.0 / group.len() as f64);
        // Tail threshold: the response at rank round(0.99·(n−1)) of the
        // sorted responses — the same rank convention SimStats uses for
        // its reported percentiles.
        let mut responses: Vec<f64> = group.iter().map(|s| s.response_us).collect();
        responses.sort_by(f64::total_cmp);
        let rank = (0.99 * (responses.len() - 1) as f64).round() as usize;
        let threshold = responses[rank.min(responses.len() - 1)];
        let tail_spans: Vec<&&crate::span::ReadSpan> = group
            .iter()
            .filter(|s| s.response_us >= threshold)
            .collect();
        let mut tail = PathComponents::default();
        for span in &tail_spans {
            tail.add_span(span);
        }
        let tail = tail.scaled(1.0 / tail_spans.len().max(1) as f64);
        out.push(SchemeAttribution {
            scheme: scheme.to_string(),
            reads: group.len() as u64,
            mean,
            p99_threshold_us: threshold,
            tail_reads: tail_spans.len() as u64,
            tail,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{ReadSpan, SpanOutcome, StageTiming};

    fn sampler() -> SeriesSampler {
        SeriesSampler::new(
            "flexlevel",
            1000,
            vec!["reads".into(), "retries".into()],
            vec!["uber".into()],
        )
    }

    #[test]
    fn windows_emit_delta_and_cumulative() {
        let mut s = sampler();
        assert!(s.due(999.9).is_none());
        assert_eq!(s.due(1000.0), Some(1000.0));
        s.emit(vec![10, 1], vec![0.5]);
        assert!(s.due(1000.0).is_none());
        assert_eq!(s.due(2500.0), Some(2000.0));
        s.emit(vec![25, 1], vec![0.25]);
        assert!(s.due(2500.0).is_none());
        let snaps = s.snapshots();
        assert_eq!(snaps.len(), 2);
        assert_eq!(snaps[0].window, 0);
        assert_eq!(snaps[0].t_us, 1000.0);
        assert_eq!(snaps[0].cumulative, vec![10, 1]);
        assert_eq!(snaps[0].delta, vec![10, 1]);
        assert_eq!(snaps[1].delta, vec![15, 0]);
        assert_eq!(snaps[1].gauges, vec![0.25]);
    }

    #[test]
    fn empty_windows_emit_zero_deltas() {
        let mut s = sampler();
        // An arrival at 3.2 ms crosses three boundaries; the caller
        // emits each with the same (unchanged) cumulative values.
        let mut crossed = 0;
        while s.due(3200.0).is_some() {
            s.emit(vec![7, 0], vec![1.0]);
            crossed += 1;
        }
        assert_eq!(crossed, 3);
        assert_eq!(s.snapshots()[0].delta, vec![7, 0]);
        assert_eq!(s.snapshots()[1].delta, vec![0, 0]);
        assert_eq!(s.snapshots()[2].delta, vec![0, 0]);
    }

    #[test]
    fn flush_is_idempotent() {
        let mut s = sampler();
        s.flush(vec![3, 1], vec![0.0]);
        s.flush(vec![9, 9], vec![9.0]);
        assert_eq!(s.snapshots().len(), 1);
        assert_eq!(s.snapshots()[0].cumulative, vec![3, 1]);
    }

    #[test]
    fn state_round_trips_through_restore() {
        let mut s = sampler();
        s.emit(vec![10, 1], vec![0.5]);
        s.emit(vec![25, 1], vec![0.25]);
        let state = s.state();
        let mut fresh = sampler();
        assert!(fresh.restore(&state));
        fresh.emit(vec![30, 2], vec![0.1]);
        s.emit(vec![30, 2], vec![0.1]);
        assert_eq!(s.snapshots(), fresh.snapshots());
        // Mismatched interval or arity is rejected.
        let mut other = SeriesSampler::new("x", 500, vec!["reads".into()], vec![]);
        assert!(!other.restore(&state));
    }

    #[test]
    fn reset_clears_accumulation_but_keeps_schema() {
        let mut s = sampler();
        s.emit(vec![10, 1], vec![0.5]);
        s.reset();
        assert!(s.snapshots().is_empty());
        assert_eq!(s.due(1000.0), Some(1000.0));
        s.emit(vec![4, 4], vec![0.0]);
        assert_eq!(s.snapshots()[0].delta, vec![4, 4]);
    }

    #[test]
    fn extend_schema_only_before_first_window() {
        let mut s = sampler();
        s.extend_schema(&["t0_served".into()], &["t0_inflight".into()]);
        assert_eq!(s.counter_names().len(), 3);
        s.emit(vec![1, 2, 3], vec![0.0, 1.0]);
        assert_eq!(s.snapshots()[0].cumulative, vec![1, 2, 3]);
    }

    fn span(scheme: &'static str, queue: f64, sense: f64, retry: f64) -> ReadSpan {
        ReadSpan {
            seq: 0,
            lpn: 0,
            scheme,
            tenant: 0,
            arrival_us: 100.0,
            start_us: 100.0 + queue,
            response_us: queue + sense + retry + 5.0,
            sensing_levels: 1,
            decode_iterations: 3,
            retry_rungs: u32::from(retry > 0.0),
            stages: vec![
                StageTiming {
                    stage: "sense",
                    offset_us: 0.0,
                    duration_us: sense,
                },
                StageTiming {
                    stage: "retry",
                    offset_us: sense,
                    duration_us: retry,
                },
            ],
            outcome: SpanOutcome::Success,
        }
    }

    #[test]
    fn critical_path_folds_queue_busy_and_wait() {
        let spans = [
            span("flexlevel", 10.0, 80.0, 0.0),
            span("flexlevel", 30.0, 80.0, 400.0),
        ];
        let refs: Vec<&ReadSpan> = spans.iter().collect();
        let attr = critical_path(&refs);
        assert_eq!(attr.len(), 1);
        let a = &attr[0];
        assert_eq!(a.reads, 2);
        assert_eq!(a.mean.queue_us, 20.0);
        assert_eq!(a.mean.sense_us, 80.0);
        assert_eq!(a.mean.retry_us, 200.0);
        assert_eq!(a.mean.wait_us, 5.0);
        // p99 of two spans is the slower one.
        assert_eq!(a.p99_threshold_us, 515.0);
        assert_eq!(a.tail_reads, 1);
        assert_eq!(a.tail.retry_us, 400.0);
        let total = a.mean.total_us();
        assert!((total - (20.0 + 80.0 + 200.0 + 5.0)).abs() < 1e-9);
    }

    #[test]
    fn critical_path_groups_schemes_in_order() {
        let spans = [
            span("baseline", 1.0, 2.0, 0.0),
            span("flexlevel", 1.0, 2.0, 0.0),
        ];
        let refs: Vec<&ReadSpan> = spans.iter().collect();
        let attr = critical_path(&refs);
        assert_eq!(attr.len(), 2);
        assert_eq!(attr[0].scheme, "baseline");
        assert_eq!(attr[1].scheme, "flexlevel");
    }
}
