//! Structured per-request trace spans.
//!
//! Each serviced read produces a [`ReadSpan`]: where the request spent
//! its time (per-stage [`StageTiming`] entries), how deep the sensing
//! went, how many retry rungs the recovery ladder climbed, and how it
//! ended ([`SpanOutcome`]). Spans are collected into a [`SpanBuffer`]
//! which optionally down-samples with seeded reservoir sampling
//! ([`reservoir_offer`], the sampler `SimStats::record_response` also
//! uses), so trace volume is bounded and the kept subset is a pure
//! function of the span stream — never of wall clock or thread
//! scheduling.

use crate::sample::{reservoir_offer, SAMPLE_SEED};

/// Seed for the instant-event reservoir — a stream independent from the
/// span reservoir so event sampling never perturbs span sampling.
pub const EVENT_SAMPLE_SEED: u64 = 0x1E5E_4701_5EED_5A3B;

/// What an instant [`TraceEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// The recovery ladder was climbed for a read.
    Retry {
        /// Rungs climbed before the outcome.
        depth: u32,
        /// Whether the ladder ultimately corrected the read.
        recovered: bool,
    },
    /// A die-level reset interrupted service.
    DieReset,
    /// One patrol-scrub pass over a block.
    Scrub {
        /// Pages scrubbed in the pass.
        reads: u32,
        /// Pages refreshed (rewritten) because BER crossed threshold.
        refreshes: u32,
    },
}

impl EventKind {
    /// Stable lower-case label used in exports.
    pub fn label(self) -> &'static str {
        match self {
            EventKind::Retry { .. } => "retry",
            EventKind::DieReset => "die_reset",
            EventKind::Scrub { .. } => "scrub",
        }
    }
}

/// One instant event: a point on the timeline (recovery-ladder climb,
/// die reset, scrub pass) rather than an interval. Timestamps are the
/// triggering request's *arrival* time, which is a property of the trace
/// and therefore identical across thread counts and timing backends.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Emission sequence number within the producing run (0-based,
    /// independent of the span sequence).
    pub seq: u64,
    /// Event time in µs (triggering request's arrival).
    pub t_us: f64,
    /// Sensing-scheme label the run was configured with.
    pub scheme: &'static str,
    /// Tenant the triggering request belongs to (0 in replay runs).
    pub tenant: u32,
    /// Logical page the event concerns.
    pub lpn: u64,
    /// What happened.
    pub kind: EventKind,
}

/// How a read ultimately completed. Variants are ordered by severity, so
/// a multi-page read reports the `max` of its pages' outcomes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanOutcome {
    /// Served from the write buffer; no flash access.
    BufferHit,
    /// Decoded successfully on the first flash read.
    Success,
    /// Required the retry ladder but was eventually corrected.
    Recovered,
    /// Exhausted the retry ladder without correcting.
    Uncorrectable,
}

impl SpanOutcome {
    /// Stable lower-case label used in exports.
    pub fn label(self) -> &'static str {
        match self {
            SpanOutcome::BufferHit => "buffer_hit",
            SpanOutcome::Success => "success",
            SpanOutcome::Recovered => "recovered",
            SpanOutcome::Uncorrectable => "uncorrectable",
        }
    }
}

/// One pipeline stage's contribution to a span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageTiming {
    /// Stage label (e.g. `"sense"`, `"transfer"`, `"decode"`).
    pub stage: &'static str,
    /// Start offset in µs relative to the span's `start_us`.
    pub offset_us: f64,
    /// Stage duration in µs.
    pub duration_us: f64,
}

/// The full record of one serviced read request.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadSpan {
    /// Emission sequence number within the producing run (0-based).
    pub seq: u64,
    /// Logical page address of the read.
    pub lpn: u64,
    /// Sensing-scheme label the run was configured with.
    pub scheme: &'static str,
    /// Tenant the request belongs to (0 for single-client replay runs).
    pub tenant: u32,
    /// Request arrival time in µs.
    pub arrival_us: f64,
    /// Time service began in µs (arrival + queueing delay).
    pub start_us: f64,
    /// End-to-end response time in µs (completion − arrival).
    pub response_us: f64,
    /// Extra sensing levels used beyond hard-decision.
    pub sensing_levels: u32,
    /// LDPC decoder iterations charged for the read.
    pub decode_iterations: u32,
    /// Retry-ladder rungs climbed (0 when no fault was injected).
    pub retry_rungs: u32,
    /// Per-stage breakdown; durations sum to the flash service time.
    pub stages: Vec<StageTiming>,
    /// How the read completed.
    pub outcome: SpanOutcome,
}

/// A span collector with optional seeded reservoir sampling.
///
/// With `capacity == 0` every offered span is kept. Otherwise the buffer
/// holds a uniform sample of `capacity` spans via Algorithm R; because
/// the RNG is seeded and advances once per offered span, the kept subset
/// depends only on the order spans are offered.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanBuffer {
    spans: Vec<ReadSpan>,
    capacity: usize,
    offered: u64,
    rng: u64,
    events: Vec<TraceEvent>,
    events_offered: u64,
    events_rng: u64,
}

impl Default for SpanBuffer {
    fn default() -> SpanBuffer {
        SpanBuffer::unbounded()
    }
}

impl SpanBuffer {
    /// Creates a buffer that keeps every span.
    pub fn unbounded() -> SpanBuffer {
        SpanBuffer::with_capacity(0)
    }

    /// Creates a buffer keeping a uniform reservoir sample of at most
    /// `capacity` spans (`0` means unlimited).
    pub fn with_capacity(capacity: usize) -> SpanBuffer {
        SpanBuffer {
            spans: Vec::new(),
            capacity,
            offered: 0,
            rng: SAMPLE_SEED,
            events: Vec::new(),
            events_offered: 0,
            events_rng: EVENT_SAMPLE_SEED,
        }
    }

    /// Offers a span to the buffer.
    pub fn push(&mut self, span: ReadSpan) {
        self.offered += 1;
        reservoir_offer(
            &mut self.spans,
            self.capacity,
            self.offered,
            &mut self.rng,
            span,
        );
    }

    /// Offers an instant event to the buffer. Events use the same
    /// reservoir capacity as spans but an independent seeded stream, so
    /// adding event producers never changes which spans are kept.
    pub fn push_event(&mut self, event: TraceEvent) {
        self.events_offered += 1;
        reservoir_offer(
            &mut self.events,
            self.capacity,
            self.events_offered,
            &mut self.events_rng,
            event,
        );
    }

    /// Spans currently held, in reservoir order (exporters sort).
    pub fn spans(&self) -> &[ReadSpan] {
        &self.spans
    }

    /// Instant events currently held, in reservoir order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Total instant events offered (kept or sampled away).
    pub fn events_offered(&self) -> u64 {
        self.events_offered
    }

    /// Kept events sorted by `(scheme, seq)` — the canonical export
    /// order.
    pub fn sorted_events(&self) -> Vec<&TraceEvent> {
        let mut events: Vec<&TraceEvent> = self.events.iter().collect();
        events.sort_by(|a, b| a.scheme.cmp(b.scheme).then(a.seq.cmp(&b.seq)));
        events
    }

    /// Number of spans currently held.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the buffer holds no spans.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Total spans offered (kept or sampled away).
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Appends `other`'s kept spans. Buffers are merged in a fixed order
    /// (e.g. scheme registration order), so the combined trace is
    /// independent of how the producing runs were scheduled. The merged
    /// buffer keeps `self`'s capacity but does not re-sample.
    pub fn merge(&mut self, other: &SpanBuffer) {
        self.spans.extend(other.spans.iter().cloned());
        self.offered += other.offered;
        self.events.extend(other.events.iter().cloned());
        self.events_offered += other.events_offered;
    }

    /// The configured reservoir capacity (`0` = unlimited).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Resets to the empty state (same capacity, re-seeded sampler), so
    /// a fresh run reproduces the same sampling decisions.
    pub fn clear(&mut self) {
        self.spans.clear();
        self.offered = 0;
        self.rng = SAMPLE_SEED;
        self.events.clear();
        self.events_offered = 0;
        self.events_rng = EVENT_SAMPLE_SEED;
    }

    /// Kept spans sorted by `(scheme, seq)` — the canonical export order.
    pub fn sorted_spans(&self) -> Vec<&ReadSpan> {
        let mut spans: Vec<&ReadSpan> = self.spans.iter().collect();
        spans.sort_by(|a, b| a.scheme.cmp(b.scheme).then(a.seq.cmp(&b.seq)));
        spans
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(seq: u64, scheme: &'static str) -> ReadSpan {
        ReadSpan {
            seq,
            lpn: seq * 7,
            scheme,
            tenant: 0,
            arrival_us: seq as f64,
            start_us: seq as f64 + 0.5,
            response_us: 130.0,
            sensing_levels: 2,
            decode_iterations: 5,
            retry_rungs: 0,
            stages: vec![StageTiming {
                stage: "sense",
                offset_us: 0.0,
                duration_us: 90.0,
            }],
            outcome: SpanOutcome::Success,
        }
    }

    #[test]
    fn unbounded_keeps_everything_in_order() {
        let mut buffer = SpanBuffer::unbounded();
        for seq in 0..100 {
            buffer.push(span(seq, "flexlevel"));
        }
        assert_eq!(buffer.len(), 100);
        assert_eq!(buffer.offered(), 100);
        assert!(buffer.spans().windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn reservoir_caps_and_is_deterministic() {
        let run = || {
            let mut buffer = SpanBuffer::with_capacity(16);
            for seq in 0..1000 {
                buffer.push(span(seq, "baseline"));
            }
            buffer
        };
        let a = run();
        let b = run();
        assert_eq!(a.len(), 16);
        assert_eq!(a.offered(), 1000);
        assert_eq!(a, b);
        // The sample is spread across the stream, not just a prefix.
        assert!(a.spans().iter().any(|s| s.seq >= 500));
    }

    #[test]
    fn merge_concatenates_and_sorts_canonically() {
        let mut a = SpanBuffer::unbounded();
        a.push(span(1, "flexlevel"));
        let mut b = SpanBuffer::unbounded();
        b.push(span(0, "baseline"));
        a.merge(&b);
        assert_eq!(a.offered(), 2);
        let sorted = a.sorted_spans();
        assert_eq!(sorted[0].scheme, "baseline");
        assert_eq!(sorted[1].scheme, "flexlevel");
    }

    #[test]
    fn outcome_labels_are_stable() {
        assert_eq!(SpanOutcome::BufferHit.label(), "buffer_hit");
        assert_eq!(SpanOutcome::Uncorrectable.label(), "uncorrectable");
    }

    fn event(seq: u64, scheme: &'static str) -> TraceEvent {
        TraceEvent {
            seq,
            t_us: seq as f64 * 10.0,
            scheme,
            tenant: 0,
            lpn: seq,
            kind: EventKind::Retry {
                depth: 2,
                recovered: true,
            },
        }
    }

    #[test]
    fn events_reservoir_is_independent_of_spans() {
        let with_events = |n_events: u64| {
            let mut buffer = SpanBuffer::with_capacity(16);
            for seq in 0..1000 {
                buffer.push(span(seq, "baseline"));
                if seq < n_events {
                    buffer.push_event(event(seq, "baseline"));
                }
            }
            buffer
        };
        let none = with_events(0);
        let many = with_events(500);
        assert_eq!(
            none.spans(),
            many.spans(),
            "event stream must not move spans"
        );
        assert_eq!(many.events().len(), 16);
        assert_eq!(many.events_offered(), 500);
        assert_eq!(with_events(500), with_events(500));
    }

    #[test]
    fn events_merge_and_sort_canonically() {
        let mut a = SpanBuffer::unbounded();
        a.push_event(event(1, "flexlevel"));
        let mut b = SpanBuffer::unbounded();
        b.push_event(event(0, "baseline"));
        a.merge(&b);
        assert_eq!(a.events_offered(), 2);
        let sorted = a.sorted_events();
        assert_eq!(sorted[0].scheme, "baseline");
        assert_eq!(sorted[0].kind.label(), "retry");
        a.clear();
        assert!(a.events().is_empty());
        assert_eq!(a.events_offered(), 0);
    }
}
