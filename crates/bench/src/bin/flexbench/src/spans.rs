//! Wall-clock spans recorded by the benchmark around each public call it
//! makes into the simulator crates. Spans nest (each knows its parent),
//! are kept in memory, and are written at the end as Chrome-trace JSON.

use std::time::Instant;

use crate::json::Json;

/// One timed interval, in nanoseconds from the start of its rep.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same rep.
    pub parent: Option<usize>,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Records the spans of one rep.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span called `name`; spans opened by `f` become
    /// its children.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    pub fn into_vec(self) -> Vec<Span> {
        self.spans
    }
}

/// Total seconds of every span called `name`.
pub fn seconds(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::seconds)
        .sum()
}

/// A span's duration minus the part of it its children cover.
pub fn self_ns(spans: &[Span], index: usize) -> u64 {
    let span = &spans[index];
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(index))
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    children.sort_unstable();
    let mut covered = 0;
    let mut reach = span.start_ns;
    for (start, end) in children {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    (span.end_ns - span.start_ns).saturating_sub(covered)
}

pub fn to_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::str(&s.name)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                ])
            })
            .collect(),
    )
}

pub fn from_json(value: &Json) -> Result<Vec<Span>, String> {
    let items = value.as_array().ok_or("spans: expected an array")?;
    items
        .iter()
        .map(|item| {
            let num = |key: &str| {
                item.get(key)
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("span: missing {key}"))
            };
            let start_ns = num("start_ns")? as u64;
            let end_ns = num("end_ns")? as u64;
            let parent = match item.get("parent") {
                Some(Json::Num(p)) => Some(*p as usize),
                _ => None,
            };
            if end_ns < start_ns || parent.is_some_and(|p| p >= items.len()) {
                return Err("span: inconsistent interval or parent".to_string());
            }
            Ok(Span {
                name: item
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("span: missing name")?
                    .to_string(),
                start_ns,
                end_ns,
                parent,
            })
        })
        .collect()
}

/// Renders reps as Chrome-trace JSON: one track per rep, one complete
/// event per span, with its parent, rep id and self time in `args`.
pub fn chrome_trace(reps: &[(String, Vec<Span>)]) -> String {
    let mut events = Vec::new();
    for (tid, (label, spans)) in reps.iter().enumerate() {
        events.push(Json::obj([
            ("name", Json::str("thread_name")),
            ("ph", Json::str("M")),
            ("pid", Json::Num(1.0)),
            ("tid", Json::Num(tid as f64)),
            ("args", Json::obj([("name", Json::str(label))])),
        ]));
        for (i, span) in spans.iter().enumerate() {
            events.push(Json::obj([
                ("name", Json::str(&span.name)),
                ("cat", Json::str("flexbench")),
                ("ph", Json::str("X")),
                ("pid", Json::Num(1.0)),
                ("tid", Json::Num(tid as f64)),
                ("ts", Json::Num(span.start_ns as f64 / 1e3)),
                ("dur", Json::Num((span.end_ns - span.start_ns) as f64 / 1e3)),
                (
                    "args",
                    Json::obj([
                        ("rep", Json::str(label)),
                        ("id", Json::Num(i as f64)),
                        (
                            "parent",
                            span.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("self_us", Json::Num(self_ns(spans, i) as f64 / 1e3)),
                    ]),
                ),
            ]));
        }
    }
    Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::str("ms")),
    ])
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        let spans = vec![
            span("rep", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),
            span("grandchild", 12, 20, Some(1)),
        ];
        assert_eq!(self_ns(&spans, 0), 50);
        assert_eq!(self_ns(&spans, 1), 22);
        assert_eq!(self_ns(&spans, 3), 8);
    }

    #[test]
    fn nesting_and_json_round_trip() {
        let mut rec = Spans::new();
        rec.span("outer", |rec| rec.span("inner", |_| ()));
        let spans = rec.into_vec();
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(from_json(&to_json(&spans)).unwrap(), spans);
        let trace = chrome_trace(&[("rep 0".to_string(), spans)]);
        assert_eq!(
            crate::json::top_level_keys(&trace).unwrap(),
            ["traceEvents", "displayTimeUnit"]
        );
    }
}
