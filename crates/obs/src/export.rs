//! Deterministic text exporters: span JSONL, Chrome `trace_event` JSON,
//! and Prometheus text exposition.
//!
//! All three formats are rendered by hand (no serializer dependency)
//! with fields in fixed order, series in registration order, and spans
//! in canonical `(scheme, seq)` order, so the bytes produced are a pure
//! function of the recorded data. Floats use Rust's shortest round-trip
//! `Display`, which is platform-independent.

use crate::hist::Histogram;
use crate::registry::Registry;
use crate::span::{EventKind, ReadSpan, SpanBuffer, TraceEvent};
use crate::timeseries::SeriesBlock;
use std::fmt::Write as _;

/// Appends `s` to `out`, escaped for a JSON or Prometheus quoted value:
/// `"`, `\` and newline are backslash-escaped, everything else passes
/// through.
fn push_escaped(out: &mut String, s: &str) {
    let mut rest = s;
    while let Some(i) = rest.find(['"', '\\', '\n']) {
        out.push_str(&rest[..i]);
        out.push_str(match rest.as_bytes()[i] {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            _ => "\\n",
        });
        rest = &rest[i + 1..];
    }
    out.push_str(rest);
}

/// Appends `sep` unless `out` still ends with `open`, the token that
/// opened the enclosing list — i.e. before every element but the first.
/// No element ends with its list's opening token, so the test is exact.
fn push_separator(out: &mut String, open: &str, sep: &str) {
    if !out.ends_with(open) {
        out.push_str(sep);
    }
}

/// Appends `k="v"` pairs, values escaped, comma-separated.
fn push_label_pairs(out: &mut String, labels: &[(String, String)]) {
    for (k, v) in labels {
        push_separator(out, "{", ",");
        out.push_str(k);
        out.push_str("=\"");
        push_escaped(out, v);
        out.push('"');
    }
}

/// Appends the Prometheus label block `{k="v",...}`; nothing when there
/// are no labels.
fn push_labels(out: &mut String, labels: &[(String, String)]) {
    if labels.is_empty() {
        return;
    }
    out.push('{');
    push_label_pairs(out, labels);
    out.push('}');
}

/// Appends a histogram bucket's label block: the series labels plus
/// `le="<upper>"` (`+Inf` for the unbounded bucket).
fn push_bucket_labels(out: &mut String, labels: &[(String, String)], upper: f64) {
    out.push('{');
    push_label_pairs(out, labels);
    push_separator(out, "{", ",");
    if upper.is_finite() {
        let _ = write!(out, "le=\"{upper}\"}}");
    } else {
        out.push_str("le=\"+Inf\"}");
    }
}

/// The distinct family names of `metas`, in first-appearance order.
fn family_order<'a>(names: impl Iterator<Item = &'a str>) -> Vec<&'a str> {
    let mut order: Vec<&str> = Vec::new();
    for name in names {
        if !order.contains(&name) {
            order.push(name);
        }
    }
    order
}

/// Renders `registry` in Prometheus text exposition format.
///
/// Families are emitted in first-registration order with all their
/// series grouped under one `# HELP`/`# TYPE` header (the exposition
/// format forbids interleaving a family's series with other families,
/// which merged multi-run registries would otherwise produce).
/// Histograms use sparse cumulative `_bucket{le="..."}` samples (only
/// buckets whose cumulative count changes are emitted, plus the
/// mandatory `le="+Inf"`), followed by `_sum` and `_count`.
pub fn prometheus(registry: &Registry) -> String {
    let mut out = String::new();
    let header = |out: &mut String, name: &str, help: &str, kind: &str| {
        let _ = writeln!(out, "# HELP {name} {help}");
        let _ = writeln!(out, "# TYPE {name} {kind}");
    };
    let counters: Vec<_> = registry.counters().collect();
    for family in family_order(counters.iter().map(|(m, _)| m.name.as_str())) {
        for (i, (meta, value)) in counters
            .iter()
            .filter(|(m, _)| m.name == family)
            .enumerate()
        {
            if i == 0 {
                header(&mut out, &meta.name, &meta.help, "counter");
            }
            out.push_str(&meta.name);
            push_labels(&mut out, &meta.labels);
            let _ = writeln!(out, " {value}");
        }
    }
    let gauges: Vec<_> = registry.gauges().collect();
    for family in family_order(gauges.iter().map(|(m, _)| m.name.as_str())) {
        for (i, (meta, value)) in gauges.iter().filter(|(m, _)| m.name == family).enumerate() {
            if i == 0 {
                header(&mut out, &meta.name, &meta.help, "gauge");
            }
            out.push_str(&meta.name);
            push_labels(&mut out, &meta.labels);
            let _ = writeln!(out, " {value}");
        }
    }
    let histograms: Vec<_> = registry.histograms().collect();
    for family in family_order(histograms.iter().map(|(m, _)| m.name.as_str())) {
        for (i, (meta, hist)) in histograms
            .iter()
            .filter(|(m, _)| m.name == family)
            .enumerate()
        {
            if i == 0 {
                header(&mut out, &meta.name, &meta.help, "histogram");
            }
            let mut cumulative = 0u64;
            for (index, count) in hist.nonzero_buckets() {
                cumulative += count;
                let (_, upper) = Histogram::bucket_bounds(index);
                let _ = write!(out, "{}_bucket", meta.name);
                push_bucket_labels(&mut out, &meta.labels, upper);
                let _ = writeln!(out, " {cumulative}");
            }
            if hist.bucket_count(crate::hist::NUM_BUCKETS - 1) == 0 {
                let _ = write!(out, "{}_bucket", meta.name);
                push_bucket_labels(&mut out, &meta.labels, f64::INFINITY);
                let _ = writeln!(out, " {cumulative}");
            }
            let _ = write!(out, "{}_sum", meta.name);
            push_labels(&mut out, &meta.labels);
            let _ = writeln!(out, " {}", hist.sum());
            let _ = write!(out, "{}_count", meta.name);
            push_labels(&mut out, &meta.labels);
            let _ = writeln!(out, " {}", hist.count());
        }
    }
    out
}

/// Appends one span as a JSON object (no trailing newline).
fn push_span(out: &mut String, span: &ReadSpan) {
    let _ = write!(
        out,
        "{{\"seq\":{},\"lpn\":{},\"scheme\":\"",
        span.seq, span.lpn
    );
    push_escaped(out, span.scheme);
    let _ = write!(
        out,
        concat!(
            "\",\"tenant\":{},\"arrival_us\":{},\"start_us\":{},\"response_us\":{},",
            "\"sensing_levels\":{},\"decode_iterations\":{},\"retry_rungs\":{},",
            "\"outcome\":\"{}\",\"stages\":["
        ),
        span.tenant,
        span.arrival_us,
        span.start_us,
        span.response_us,
        span.sensing_levels,
        span.decode_iterations,
        span.retry_rungs,
        span.outcome.label(),
    );
    for stage in &span.stages {
        push_separator(out, "[", ",");
        out.push_str("{\"stage\":\"");
        push_escaped(out, stage.stage);
        let _ = write!(
            out,
            "\",\"offset_us\":{},\"duration_us\":{}}}",
            stage.offset_us, stage.duration_us
        );
    }
    out.push_str("]}");
}

/// Renders the buffer as JSONL: one span object per line, in canonical
/// `(scheme, seq)` order.
pub fn span_jsonl(buffer: &SpanBuffer) -> String {
    let mut out = String::new();
    for span in buffer.sorted_spans() {
        push_span(&mut out, span);
        out.push('\n');
    }
    out
}

/// Appends `"name":value` members, comma-separated, continuing the JSON
/// object `out` is inside.
fn push_columns<T: std::fmt::Display>(out: &mut String, names: &[String], values: &[T]) {
    for (name, value) in names.iter().zip(values) {
        push_separator(out, "{", ",");
        out.push('"');
        push_escaped(out, name);
        let _ = write!(out, "\":{value}");
    }
}

/// Appends one snapshot's series as a JSON object with fixed field
/// order: scheme, window, window-end time, cumulative counters,
/// per-window deltas, boundary gauges.
fn push_series(out: &mut String, block: &SeriesBlock, snap: &crate::timeseries::SeriesSnapshot) {
    out.push_str("{\"scheme\":\"");
    push_escaped(out, &block.scheme);
    let _ = write!(
        out,
        "\",\"window\":{},\"t_us\":{},\"cum\":{{",
        snap.window, snap.t_us
    );
    push_columns(out, &block.counters, &snap.cumulative);
    out.push_str("},\"delta\":{");
    push_columns(out, &block.counters, &snap.delta);
    out.push_str("},\"gauges\":{");
    push_columns(out, &block.gauges, &snap.gauges);
    out.push_str("}}");
}

/// `blocks` in scheme order.
fn by_scheme(blocks: &[SeriesBlock]) -> Vec<&SeriesBlock> {
    let mut ordered: Vec<&SeriesBlock> = blocks.iter().collect();
    ordered.sort_by(|a, b| a.scheme.cmp(&b.scheme));
    ordered
}

/// Renders time-series blocks as JSONL: one snapshot object per line,
/// blocks in scheme order, snapshots in window order. Cumulative
/// counters are non-decreasing and `t_us` strictly increases within a
/// scheme, by construction of [`crate::timeseries::SeriesSampler`].
pub fn series_jsonl(blocks: &[SeriesBlock]) -> String {
    let mut out = String::new();
    for block in by_scheme(blocks) {
        for snap in &block.snapshots {
            push_series(&mut out, block, snap);
            out.push('\n');
        }
    }
    out
}

/// Appends one instant event as a Chrome `ph:"i"` object.
fn push_event(out: &mut String, event: &TraceEvent, tid: usize) {
    let cat = match event.kind {
        EventKind::Retry { .. } | EventKind::DieReset => "recovery",
        EventKind::Scrub { .. } => "scrub",
    };
    let _ = write!(
        out,
        concat!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\"s\":\"t\",",
            "\"pid\":1,\"tid\":{},\"ts\":{},\"args\":{{",
            "\"seq\":{},\"tenant\":{},\"lpn\":{}"
        ),
        event.kind.label(),
        cat,
        tid,
        event.t_us,
        event.seq,
        event.tenant,
        event.lpn,
    );
    let _ = match event.kind {
        EventKind::Retry { depth, recovered } => {
            write!(out, ",\"depth\":{depth},\"recovered\":{recovered}")
        }
        EventKind::DieReset => Ok(()),
        EventKind::Scrub { reads, refreshes } => {
            write!(out, ",\"reads\":{reads},\"refreshes\":{refreshes}")
        }
    };
    out.push_str("}}");
}

/// Renders the buffer in Chrome `trace_event` JSON format, loadable in
/// `chrome://tracing` and [Perfetto](https://ui.perfetto.dev).
///
/// Each scheme becomes one named track (`tid` = scheme order of first
/// appearance); each span emits a complete (`ph:"X"`) event covering the
/// whole request (queueing included) plus one nested complete event per
/// pipeline stage. Timestamps are in µs as the format requires.
///
/// Equivalent to [`chrome_trace_full`] with no time series.
pub fn chrome_trace(buffer: &SpanBuffer) -> String {
    chrome_trace_full(buffer, &[])
}

/// Like [`chrome_trace`], and additionally renders recovery/scrub
/// instant events (`ph:"i"`, with tenant and retry-depth args) on their
/// scheme's track, and each series block's per-window deltas and gauges
/// as counter tracks (`ph:"C"`) so Perfetto shows live series alongside
/// the spans. With no events and no series the output is byte-identical
/// to [`chrome_trace`].
pub fn chrome_trace_full(buffer: &SpanBuffer, series: &[SeriesBlock]) -> String {
    const OPEN: &str = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    const SEP: &str = ",\n";
    let spans = buffer.sorted_spans();
    let instants = buffer.sorted_events();
    let mut schemes: Vec<&str> = Vec::new();
    for span in &spans {
        if !schemes.contains(&span.scheme) {
            schemes.push(span.scheme);
        }
    }
    for event in &instants {
        if !schemes.contains(&event.scheme) {
            schemes.push(event.scheme);
        }
    }
    let tid = |scheme: &str| schemes.iter().position(|s| *s == scheme).unwrap() + 1;

    let mut out = String::from(OPEN);
    for scheme in &schemes {
        push_separator(&mut out, OPEN, SEP);
        let _ = write!(
            out,
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\"args\":{{\"name\":\"",
            tid(scheme)
        );
        push_escaped(&mut out, scheme);
        out.push_str("\"}}");
    }
    for span in &spans {
        let tid = tid(span.scheme);
        push_separator(&mut out, OPEN, SEP);
        let _ = write!(
            out,
            concat!(
                "{{\"name\":\"read lpn={}\",\"cat\":\"read\",\"ph\":\"X\",",
                "\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\"args\":{{",
                "\"seq\":{},\"tenant\":{},\"sensing_levels\":{},\"decode_iterations\":{},",
                "\"retry_rungs\":{},\"outcome\":\"{}\"}}}}"
            ),
            span.lpn,
            tid,
            span.arrival_us,
            span.response_us,
            span.seq,
            span.tenant,
            span.sensing_levels,
            span.decode_iterations,
            span.retry_rungs,
            span.outcome.label()
        );
        for stage in &span.stages {
            out.push_str(SEP);
            out.push_str("{\"name\":\"");
            push_escaped(&mut out, stage.stage);
            let _ = write!(
                out,
                "\",\"cat\":\"stage\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{}}}",
                tid,
                span.start_us + stage.offset_us,
                stage.duration_us
            );
        }
    }
    for event in &instants {
        push_separator(&mut out, OPEN, SEP);
        push_event(&mut out, event, tid(event.scheme));
    }
    for block in by_scheme(series) {
        for snap in &block.snapshots {
            push_separator(&mut out, OPEN, SEP);
            out.push_str("{\"name\":\"series ");
            push_escaped(&mut out, &block.scheme);
            let _ = write!(
                out,
                "\",\"ph\":\"C\",\"pid\":1,\"ts\":{},\"args\":{{",
                snap.t_us
            );
            push_columns(&mut out, &block.counters, &snap.delta);
            push_columns(&mut out, &block.gauges, &snap.gauges);
            out.push_str("}}");
        }
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{SpanOutcome, StageTiming};

    fn sample_buffer() -> SpanBuffer {
        let mut buffer = SpanBuffer::unbounded();
        buffer.push(ReadSpan {
            seq: 0,
            lpn: 42,
            scheme: "flexlevel",
            tenant: 0,
            arrival_us: 10.0,
            start_us: 12.5,
            response_us: 132.5,
            sensing_levels: 2,
            decode_iterations: 6,
            retry_rungs: 1,
            stages: vec![
                StageTiming {
                    stage: "sense",
                    offset_us: 0.0,
                    duration_us: 90.0,
                },
                StageTiming {
                    stage: "transfer",
                    offset_us: 90.0,
                    duration_us: 40.0,
                },
            ],
            outcome: SpanOutcome::Recovered,
        });
        buffer
    }

    #[test]
    fn jsonl_is_one_object_per_line_with_fixed_fields() {
        let text = span_jsonl(&sample_buffer());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1);
        assert!(lines[0].starts_with("{\"seq\":0,\"lpn\":42,\"scheme\":\"flexlevel\""));
        assert!(lines[0].contains("\"outcome\":\"recovered\""));
        assert!(lines[0].contains("\"stages\":[{\"stage\":\"sense\""));
    }

    #[test]
    fn chrome_trace_has_metadata_and_events() {
        let text = chrome_trace(&sample_buffer());
        assert!(text.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(text.contains("\"thread_name\""));
        assert!(text.contains("\"name\":\"read lpn=42\""));
        assert!(text.contains("\"ph\":\"X\""));
        assert!(text.contains("\"ts\":12.5"));
        // Balanced braces as a cheap well-formedness check.
        let open = text.matches('{').count();
        let close = text.matches('}').count();
        assert_eq!(open, close);
    }

    #[test]
    fn prometheus_renders_families_in_order() {
        let mut registry = Registry::new();
        let reads = registry.counter(
            "flexlevel_flash_reads_total",
            "Flash page reads issued.",
            &[("scheme", "flexlevel")],
        );
        registry.inc_by(reads, 12941);
        let reads_b = registry.counter(
            "flexlevel_flash_reads_total",
            "Flash page reads issued.",
            &[("scheme", "baseline")],
        );
        registry.inc_by(reads_b, 14000);
        let gauge = registry.gauge("flexlevel_makespan_us", "Run makespan.", &[]);
        registry.set_gauge(gauge, 2.5e6);
        let hist = registry.histogram("flexlevel_response_us", "Response times.", &[]);
        registry.observe(hist, 130.0);
        registry.observe(hist, 910.0);

        let text = prometheus(&registry);
        assert!(text.contains("# HELP flexlevel_flash_reads_total Flash page reads issued.\n"));
        assert!(text.contains("# TYPE flexlevel_flash_reads_total counter\n"));
        // One header for the family even with two series.
        assert_eq!(
            text.matches("# TYPE flexlevel_flash_reads_total").count(),
            1
        );
        assert!(text.contains("flexlevel_flash_reads_total{scheme=\"flexlevel\"} 12941\n"));
        assert!(text.contains("flexlevel_makespan_us 2500000\n"));
        assert!(text.contains("# TYPE flexlevel_response_us histogram\n"));
        assert!(text.contains("flexlevel_response_us_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("flexlevel_response_us_sum 1040\n"));
        assert!(text.contains("flexlevel_response_us_count 2\n"));
    }

    #[test]
    fn prometheus_groups_interleaved_families_after_merge() {
        // Merging per-run registries appends each run's series at the
        // end, so a family's series are no longer adjacent in
        // registration order; the exporter must still group them under a
        // single header (the exposition format forbids interleaving).
        let build = |scheme: &'static str| {
            let mut r = Registry::new();
            let c = r.counter("a_total", "A.", &[("scheme", scheme)]);
            r.inc_by(c, 1);
            let g = r.gauge("b", "B.", &[("scheme", scheme)]);
            r.set_gauge(g, 2.0);
            r
        };
        let mut merged = build("x");
        merged.merge(&build("y"));
        let text = prometheus(&merged);
        assert_eq!(text.matches("# TYPE a_total counter").count(), 1);
        assert_eq!(text.matches("# TYPE b gauge").count(), 1);
        let ax = text.find("a_total{scheme=\"x\"}").unwrap();
        let ay = text.find("a_total{scheme=\"y\"}").unwrap();
        let bx = text.find("b{scheme=\"x\"}").unwrap();
        assert!(ax < ay && ay < bx, "family series must stay grouped");
    }

    #[test]
    fn prometheus_buckets_are_cumulative() {
        let mut registry = Registry::new();
        let hist = registry.histogram("h", "two buckets", &[]);
        for _ in 0..3 {
            registry.observe(hist, 10.0);
        }
        registry.observe(hist, 1000.0);
        let text = prometheus(&registry);
        let bucket_lines: Vec<&str> = text.lines().filter(|l| l.starts_with("h_bucket")).collect();
        assert_eq!(bucket_lines.len(), 3); // two data buckets + +Inf
        assert!(bucket_lines[0].ends_with(" 3"));
        assert!(bucket_lines[1].ends_with(" 4"));
        assert!(bucket_lines[2].contains("le=\"+Inf\"} 4"));
    }

    fn sample_block() -> SeriesBlock {
        use crate::timeseries::SeriesSampler;
        let mut s = SeriesSampler::new(
            "flexlevel",
            1000,
            vec!["host_reads".into()],
            vec!["uber".into()],
        );
        s.emit(vec![12], vec![2.5e-9]);
        s.emit(vec![30], vec![1.25e-9]);
        s.into_block()
    }

    #[test]
    fn series_jsonl_is_one_snapshot_per_line() {
        let text = series_jsonl(&[sample_block()]);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[0],
            concat!(
                "{\"scheme\":\"flexlevel\",\"window\":0,\"t_us\":1000,",
                "\"cum\":{\"host_reads\":12},\"delta\":{\"host_reads\":12},",
                "\"gauges\":{\"uber\":0.0000000025}}"
            )
        );
        assert!(lines[1].contains("\"delta\":{\"host_reads\":18}"));
    }

    #[test]
    fn chrome_trace_full_adds_instants_and_counters() {
        use crate::span::{EventKind, TraceEvent};
        let mut buffer = sample_buffer();
        buffer.push_event(TraceEvent {
            seq: 0,
            t_us: 11.0,
            scheme: "flexlevel",
            tenant: 3,
            lpn: 42,
            kind: EventKind::Retry {
                depth: 2,
                recovered: true,
            },
        });
        let text = chrome_trace_full(&buffer, &[sample_block()]);
        assert!(text.contains("\"name\":\"retry\",\"cat\":\"recovery\",\"ph\":\"i\""));
        assert!(text.contains("\"tenant\":3,\"lpn\":42,\"depth\":2,\"recovered\":true"));
        assert!(text.contains("\"name\":\"series flexlevel\",\"ph\":\"C\""));
        assert!(text.contains("\"host_reads\":18"));
        let open = text.matches('{').count();
        let close = text.matches('}').count();
        assert_eq!(open, close);
        // Without events or series the full variant matches the basic one.
        assert_eq!(chrome_trace(&sample_buffer()), {
            chrome_trace_full(&sample_buffer(), &[])
        });
    }

    /// Scheme, stage, counter and label names carrying `"`, `\` and a
    /// newline, through all four exporters. The expected text pins every
    /// escaped byte: JSON and Prometheus quoted values escape exactly
    /// these three characters and pass everything else through.
    #[test]
    fn exporters_escape_quotes_backslashes_and_newlines() {
        use crate::span::{EventKind, TraceEvent};
        use crate::timeseries::SeriesSampler;
        const SCHEME: &str = "fl\"ex\\le\nvel";
        let mut buffer = SpanBuffer::unbounded();
        buffer.push(ReadSpan {
            seq: 3,
            lpn: 7,
            scheme: SCHEME,
            tenant: 1,
            arrival_us: 1.0,
            start_us: 2.5,
            response_us: 9.25,
            sensing_levels: 3,
            decode_iterations: 4,
            retry_rungs: 1,
            stages: vec![
                StageTiming {
                    stage: "se\"nse",
                    offset_us: 0.0,
                    duration_us: 5.0,
                },
                StageTiming {
                    stage: "de\\co\nde",
                    offset_us: 5.0,
                    duration_us: 3.25,
                },
            ],
            outcome: SpanOutcome::Recovered,
        });
        buffer.push_event(TraceEvent {
            seq: 0,
            t_us: 1.0,
            scheme: SCHEME,
            tenant: 1,
            lpn: 7,
            kind: EventKind::Scrub {
                reads: 64,
                refreshes: 2,
            },
        });
        buffer.push_event(TraceEvent {
            seq: 1,
            t_us: 2.0,
            scheme: SCHEME,
            tenant: 1,
            lpn: 7,
            kind: EventKind::Retry {
                depth: 2,
                recovered: false,
            },
        });
        buffer.push_event(TraceEvent {
            seq: 2,
            t_us: 3.0,
            scheme: SCHEME,
            tenant: 1,
            lpn: 7,
            kind: EventKind::DieReset,
        });
        let mut sampler = SeriesSampler::new(
            SCHEME,
            500,
            vec!["host\"reads".into(), "re\\tries\n".into()],
            vec!["u\"b\\e\nr".into()],
        );
        sampler.emit(vec![5, 1], vec![0.5]);
        sampler.emit(vec![9, 4], vec![2.0]);
        let series = [sampler.into_block()];
        let mut registry = Registry::new();
        let reads = registry.counter("reads_total", "Reads.", &[("scheme", SCHEME)]);
        registry.inc_by(reads, 5);
        let depth = registry.gauge("depth", "Depth.", &[("scheme", SCHEME), ("tenant", "t\"1")]);
        registry.set_gauge(depth, 1.5);
        let hist = registry.histogram("resp_us", "Response.", &[("scheme", SCHEME)]);
        registry.observe(hist, 12.0);

        assert_eq!(
            span_jsonl(&buffer),
            concat!(
                "{\"seq\":3,\"lpn\":7,\"scheme\":\"fl\\\"ex\\\\le\\nvel\",\"tenant\":1,\"arrival_us\":1,\"start_us\":2.5,\"response_us\":9.25,",
                "\"sensing_levels\":3,\"decode_iterations\":4,\"retry_rungs\":1,\"outcome\":\"recovered\",",
                "\"stages\":[{\"stage\":\"se\\\"nse\",\"offset_us\":0,\"duration_us\":5},",
                "{\"stage\":\"de\\\\co\\nde\",\"offset_us\":5,\"duration_us\":3.25}]}\n",
            )
        );
        assert_eq!(
            series_jsonl(&series),
            concat!(
                "{\"scheme\":\"fl\\\"ex\\\\le\\nvel\",\"window\":0,\"t_us\":500,\"cum\":{\"host\\\"reads\":5,\"re\\\\tries\\n\":1},\"delta\":{\"host\\\"reads\":5,\"re\\\\tries\\n\":1},\"gauges\":{\"u\\\"b\\\\e\\nr\":0.5}}\n",
                "{\"scheme\":\"fl\\\"ex\\\\le\\nvel\",\"window\":1,\"t_us\":1000,\"cum\":{\"host\\\"reads\":9,\"re\\\\tries\\n\":4},\"delta\":{\"host\\\"reads\":4,\"re\\\\tries\\n\":3},\"gauges\":{\"u\\\"b\\\\e\\nr\":2}}\n",
            )
        );
        assert_eq!(
            chrome_trace_full(&buffer, &series),
            concat!(
                "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n",
                "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{\"name\":\"fl\\\"ex\\\\le\\nvel\"}},\n",
                "{\"name\":\"read lpn=7\",\"cat\":\"read\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":1,\"dur\":9.25,\"args\":{\"seq\":3,\"tenant\":1,\"sensing_levels\":3,\"decode_iterations\":4,\"retry_rungs\":1,\"outcome\":\"recovered\"}},\n",
                "{\"name\":\"se\\\"nse\",\"cat\":\"stage\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":2.5,\"dur\":5},\n",
                "{\"name\":\"de\\\\co\\nde\",\"cat\":\"stage\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":7.5,\"dur\":3.25},\n",
                "{\"name\":\"scrub\",\"cat\":\"scrub\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":1,\"ts\":1,\"args\":{\"seq\":0,\"tenant\":1,\"lpn\":7,\"reads\":64,\"refreshes\":2}},\n",
                "{\"name\":\"retry\",\"cat\":\"recovery\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":1,\"ts\":2,\"args\":{\"seq\":1,\"tenant\":1,\"lpn\":7,\"depth\":2,\"recovered\":false}},\n",
                "{\"name\":\"die_reset\",\"cat\":\"recovery\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":1,\"ts\":3,\"args\":{\"seq\":2,\"tenant\":1,\"lpn\":7}},\n",
                "{\"name\":\"series fl\\\"ex\\\\le\\nvel\",\"ph\":\"C\",\"pid\":1,\"ts\":500,\"args\":{\"host\\\"reads\":5,\"re\\\\tries\\n\":1,\"u\\\"b\\\\e\\nr\":0.5}},\n",
                "{\"name\":\"series fl\\\"ex\\\\le\\nvel\",\"ph\":\"C\",\"pid\":1,\"ts\":1000,\"args\":{\"host\\\"reads\":4,\"re\\\\tries\\n\":3,\"u\\\"b\\\\e\\nr\":2}}\n",
                "]}\n",
            )
        );
        assert_eq!(
            prometheus(&registry),
            concat!(
                "# HELP reads_total Reads.\n",
                "# TYPE reads_total counter\n",
                "reads_total{scheme=\"fl\\\"ex\\\\le\\nvel\"} 5\n",
                "# HELP depth Depth.\n",
                "# TYPE depth gauge\n",
                "depth{scheme=\"fl\\\"ex\\\\le\\nvel\",tenant=\"t\\\"1\"} 1.5\n",
                "# HELP resp_us Response.\n",
                "# TYPE resp_us histogram\n",
                "resp_us_bucket{scheme=\"fl\\\"ex\\\\le\\nvel\",le=\"12.25\"} 1\n",
                "resp_us_bucket{scheme=\"fl\\\"ex\\\\le\\nvel\",le=\"+Inf\"} 1\n",
                "resp_us_sum{scheme=\"fl\\\"ex\\\\le\\nvel\"} 12\n",
                "resp_us_count{scheme=\"fl\\\"ex\\\\le\\nvel\"} 1\n",
            )
        );
    }

    #[test]
    fn exports_are_deterministic() {
        let build = || {
            let mut registry = Registry::new();
            let h = registry.histogram("h", "", &[("scheme", "x")]);
            for i in 0..100 {
                registry.observe(h, 10.0 + i as f64 * 3.7);
            }
            (prometheus(&registry), span_jsonl(&sample_buffer()))
        };
        assert_eq!(build(), build());
    }
}
