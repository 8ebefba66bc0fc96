//! Zero-overhead observability for the FlexLevel simulator.
//!
//! Three pieces, all deterministic by construction:
//!
//! * [`Registry`] ([`registry`]) — counters, gauges and log-linear
//!   latency [`Histogram`]s ([`hist`]) addressed by copyable ids, so the
//!   hot path never allocates and never hashes.
//! * [`SpanBuffer`] ([`span`]) — structured per-read [`ReadSpan`] trace
//!   records with seeded reservoir sampling.
//! * [`export`] — Prometheus text exposition, span JSONL, and Chrome
//!   `trace_event` JSON renderers whose output is a pure function of the
//!   recorded data (bit-identical across thread counts).
//!
//! The consuming simulator threads an `Option<&mut Recorder>` (or an
//! `Option<Box<...>>` field); when `None`, no observability code runs at
//! all, which is how the layer stays zero-cost when disabled.

#![warn(missing_docs)]

pub mod export;
pub mod hist;
pub mod registry;
pub mod sample;
pub mod span;
pub mod timeseries;

pub use hist::Histogram;
pub use registry::{CounterId, GaugeId, HistogramId, MetricMeta, Registry};
pub use sample::{reservoir_offer, splitmix64, SAMPLE_SEED};
pub use span::{EventKind, ReadSpan, SpanBuffer, SpanOutcome, StageTiming, TraceEvent};
pub use timeseries::{
    critical_path, PathComponents, SchemeAttribution, SeriesBlock, SeriesSampler, SeriesSnapshot,
    SeriesState,
};

/// Bundles the metrics registry, span buffer and time series a run
/// records into.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Recorder {
    /// Counters, gauges and histograms for the run.
    pub metrics: Registry,
    /// Collected read spans.
    pub spans: SpanBuffer,
    /// Windowed time series, one block per producing run.
    pub series: Vec<SeriesBlock>,
}

impl Recorder {
    /// Creates a recorder that keeps every span.
    pub fn new() -> Recorder {
        Recorder::default()
    }

    /// Creates a recorder whose span buffer reservoir-samples down to at
    /// most `sample` spans (`0` keeps everything).
    pub fn with_span_sample(sample: usize) -> Recorder {
        Recorder {
            metrics: Registry::new(),
            spans: SpanBuffer::with_capacity(sample),
            series: Vec::new(),
        }
    }

    /// Folds another recorder into this one: metrics merge series-wise,
    /// spans concatenate, series blocks append. Call in a fixed order
    /// (e.g. scheme order) so the combined state is independent of run
    /// scheduling.
    pub fn merge(&mut self, other: &Recorder) {
        self.metrics.merge(&other.metrics);
        self.spans.merge(&other.spans);
        self.series.extend(other.series.iter().cloned());
    }
}
