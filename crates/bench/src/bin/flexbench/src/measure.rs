//! Runs the passes of one workload, turns the reps into medians and
//! quartiles, and applies the output checks that span reps and passes.

use std::time::{Duration, Instant};

use crate::catalog::{Better, END_TO_END, PER_LAYER};
use crate::json::Json;
use crate::spans::Span;
use crate::workload::{Mode, Plan, RepOutput, Workload};

/// Upper bound on timed reps per workload, whatever `--seconds` asks.
const MAX_REPS: usize = 64;

/// One child run to execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepRequest {
    pub workload: Workload,
    pub seed: u64,
    pub quick: bool,
    pub mode: Mode,
}

/// How a workload is measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Options {
    pub seed: u64,
    pub quick: bool,
    /// Timed reps to run at least.
    pub min_reps: usize,
    /// Time budget of the workload, every pass included: timed reps are
    /// added while the next is expected to end within it.
    pub seconds: Duration,
    /// Also run the traced and comparison passes for per-layer metrics.
    pub trace: bool,
}

/// Median and quartiles of a metric's values across reps.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub values: Vec<f64>,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Summary {
    /// Quartiles by the "exclusive" method of Python's
    /// `statistics.quantiles(values, n=4)`.
    pub fn of(values: Vec<f64>) -> Summary {
        let mut sorted = values.clone();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let (median, q1, q3) = match n {
            0 => (f64::NAN, f64::NAN, f64::NAN),
            1 => (sorted[0], sorted[0], sorted[0]),
            _ => {
                let quartile = |i: usize| {
                    let j = (i * (n + 1) / 4).clamp(1, n - 1);
                    // Negative when the clamp raised `j`, as in Python.
                    let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
                    (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
                };
                let median = if n % 2 == 1 {
                    sorted[n / 2]
                } else {
                    (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
                };
                (median, quartile(1), quartile(3))
            }
        };
        Summary {
            values,
            median,
            q1,
            q3,
        }
    }

    /// Distance between the quartiles as a share of the median.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs()
    }

    pub fn to_json(&self, unit: &str, better: Better) -> Json {
        Json::obj([
            ("unit", Json::str(unit)),
            ("better", Json::str(better.label())),
            ("median", Json::Num(self.median)),
            ("q1", Json::Num(self.q1)),
            ("q3", Json::Num(self.q3)),
            ("n", Json::Num(self.values.len() as f64)),
            (
                "values",
                Json::Arr(self.values.iter().copied().map(Json::Num).collect()),
            ),
        ])
    }

    pub fn from_json(value: &Json) -> Option<Summary> {
        let values = value
            .get("values")?
            .as_array()?
            .iter()
            .map(Json::as_f64)
            .collect::<Option<Vec<f64>>>()?;
        Some(Summary::of(values))
    }
}

/// One output check and its outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// Everything measured for one workload.
#[derive(Debug)]
pub struct WorkloadResult {
    pub workload: Workload,
    pub fingerprint: String,
    pub offered_per_rep: u64,
    pub reps: usize,
    pub failed_reps: usize,
    pub checks: Vec<Check>,
    /// One summary per end-to-end metric, in catalog order.
    pub end_to_end: Vec<Summary>,
    /// One value per per-layer metric, in catalog order (trace mode only).
    pub per_layer: Option<Vec<f64>>,
    /// Every pass's spans, labelled, for the Chrome trace.
    pub passes: Vec<(String, Vec<Span>)>,
}

impl WorkloadResult {
    pub fn correct(&self) -> bool {
        self.failed_reps == 0 && self.checks.iter().all(|c| c.ok)
    }

    pub fn to_json(&self) -> Json {
        let end_to_end = END_TO_END
            .iter()
            .zip(&self.end_to_end)
            .map(|(m, s)| (m.name, s.to_json(m.unit, m.better)));
        let mut fields = vec![
            ("name", Json::str(self.workload.name())),
            ("fingerprint", Json::str(&self.fingerprint)),
            ("offered_per_rep", Json::Num(self.offered_per_rep as f64)),
            ("reps", Json::Num(self.reps as f64)),
            ("failed_reps", Json::Num(self.failed_reps as f64)),
            ("correct", Json::Bool(self.correct())),
            (
                "checks",
                Json::Arr(
                    self.checks
                        .iter()
                        .map(|c| {
                            Json::obj([
                                ("name", Json::str(&c.name)),
                                ("ok", Json::Bool(c.ok)),
                                ("detail", Json::str(&c.detail)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("end_to_end", Json::obj(end_to_end)),
        ];
        if let Some(values) = &self.per_layer {
            let per_layer = PER_LAYER.iter().zip(values).map(|(m, v)| {
                (
                    m.name,
                    Json::obj([
                        ("unit", Json::str(m.unit)),
                        ("better", Json::str(m.better.label())),
                        ("value", Json::Num(*v)),
                    ]),
                )
            });
            fields.push(("per_layer", Json::obj(per_layer)));
        }
        Json::obj(fields)
    }
}

fn median_of(outputs: &[RepOutput], name: &str) -> Option<f64> {
    let values: Vec<f64> = outputs.iter().filter_map(|o| o.value(name)).collect();
    (!values.is_empty()).then(|| Summary::of(values).median)
}

/// Measures `workload`, running each pass through `exec` (a child process
/// in the real benchmark, a direct call in tests).
pub fn measure(
    workload: Workload,
    options: &Options,
    exec: &mut dyn FnMut(&RepRequest) -> Result<RepOutput, String>,
) -> WorkloadResult {
    let plan = Plan::new(workload, options.seed, options.quick);
    let mut checks = Vec::new();
    let mut passes = Vec::new();
    let mut run = |mode: Mode, label: String, checks: &mut Vec<Check>| -> Option<RepOutput> {
        let request = RepRequest {
            workload,
            seed: options.seed,
            quick: options.quick,
            mode,
        };
        let outcome = exec(&request).and_then(|out| match &out.error {
            Some(e) => Err(e.clone()),
            None => Ok(out),
        });
        match outcome {
            Ok(out) => {
                for failure in &out.failures {
                    checks.push(Check {
                        name: format!("{label} output"),
                        ok: false,
                        detail: failure.clone(),
                    });
                }
                passes.push((label, out.spans.clone()));
                Some(out)
            }
            Err(e) => {
                eprintln!("{}: {label} failed: {e}", workload.name());
                checks.push(Check {
                    name: format!("{label} completes"),
                    ok: false,
                    detail: e,
                });
                None
            }
        }
    };

    let start = Instant::now();
    let reference = run(Mode::Reference, "reference".to_string(), &mut checks);
    let (traced, comparison) = if options.trace {
        (
            run(Mode::Traced, "traced".to_string(), &mut checks),
            run(Mode::Comparison, "comparison".to_string(), &mut checks),
        )
    } else {
        (None, None)
    };
    // The other passes come first, so the budget bounds the whole run: a
    // timed rep starts only if one as long as the last should end within it.
    let mut timed = Vec::new();
    let mut reps = 0;
    let mut last_rep = Duration::ZERO;
    while reps < MAX_REPS
        && (reps < options.min_reps || start.elapsed() + last_rep < options.seconds)
    {
        let rep_start = Instant::now();
        if let Some(out) = run(Mode::Timed, format!("timed rep {reps}"), &mut checks) {
            timed.push(out);
        }
        last_rep = rep_start.elapsed();
        reps += 1;
    }
    let failed_reps = reps - timed.len();

    let mut check = |name: &str, ok: bool, detail: String| {
        checks.push(Check {
            name: name.to_string(),
            ok,
            detail,
        })
    };
    if let Some(first) = timed.first() {
        let same = |o: &RepOutput| {
            ["stats", "ftl"]
                .iter()
                .all(|d| o.digest_of(d) == first.digest_of(d))
        };
        let differing = timed.iter().filter(|o| !same(o)).count();
        check(
            "reps identical",
            differing == 0,
            format!("{differing} reps differ from the first in SimStats or FTL digest"),
        );
        let cross = match workload {
            Workload::ReadHot => None,
            Workload::WriteChurn => Some(("checkpoint split equals uninterrupted run", "stats")),
            Workload::PipelinedBurst => Some(("logical counters equal across backends", "logical")),
            Workload::ServeHostile => Some(("observer leaves SimStats unchanged", "stats")),
        };
        if let (Some((name, digest)), Some(reference)) = (cross, &reference) {
            let (a, b) = (first.digest_of(digest), reference.digest_of(digest));
            check(name, a.is_some() && a == b, format!("{a:?} vs {b:?}"));
        }
        if let Some(traced) = &traced {
            let (a, b) = (first.digest_of("stats"), traced.digest_of("stats"));
            check(
                "traced pass leaves SimStats unchanged",
                a == b,
                format!("{a:?} vs {b:?}"),
            );
        }
    }

    let end_to_end = END_TO_END
        .iter()
        .map(|m| Summary::of(timed.iter().filter_map(|o| o.value(m.name)).collect()))
        .collect::<Vec<_>>();
    let per_layer = options.trace.then(|| {
        per_layer_values(
            &plan,
            &timed,
            traced.as_ref(),
            reference.as_ref(),
            comparison.as_ref(),
        )
    });
    WorkloadResult {
        workload,
        fingerprint: plan.fingerprint(),
        offered_per_rep: plan.requests,
        reps,
        failed_reps,
        checks,
        end_to_end,
        per_layer,
        passes,
    }
}

/// Per-layer values: a rep's own numbers (median over the timed reps,
/// else the traced rep's), then the ones that compare two passes. A layer
/// the workload does not exercise reads 0.
fn per_layer_values(
    plan: &Plan,
    timed: &[RepOutput],
    traced: Option<&RepOutput>,
    reference: Option<&RepOutput>,
    comparison: Option<&RepOutput>,
) -> Vec<f64> {
    let from_reps =
        |name: &str| median_of(timed, name).or_else(|| traced.and_then(|t| t.value(name)));
    let timed_median = |name: &str| median_of(timed, name);
    let reference_run_s = reference.and_then(|r| r.value("reference.run_s"));
    let offered = plan.requests as f64;
    PER_LAYER
        .iter()
        .map(|m| {
            let derived = match m.name {
                "flexlevel.read_gain_pct" => comparison
                    .and_then(|c| c.value("ldpc_read_mean_us"))
                    .zip(timed_median("read_mean_us"))
                    .map(|(ldpc, flex)| (ldpc - flex) / ldpc * 100.0),
                "pipeline.max_rate_at_slo_rps" => {
                    comparison.and_then(|c| c.value("pipeline.max_rate_at_slo_rps"))
                }
                "sim.singlequeue_ns_per_req" if plan.workload == Workload::PipelinedBurst => {
                    reference_run_s.map(|s| s * 1e9 / offered)
                }
                "sim.pipelined_extra_ns_per_req" if plan.workload == Workload::PipelinedBurst => {
                    timed_median("sim.ns_per_req")
                        .zip(reference_run_s)
                        .map(|(ns, s)| ns - s * 1e9 / offered)
                }
                "obs.observer_overhead_pct" if plan.workload == Workload::ServeHostile => {
                    timed_median("sim.run_s")
                        .zip(reference_run_s)
                        .map(|(observed, bare)| (observed - bare) / bare * 100.0)
                }
                "bench.trace_overhead_pct" => traced
                    .and_then(|t| t.value("timed_s"))
                    .zip(timed_median("timed_s"))
                    .map(|(traced, timed)| (traced - timed) / timed * 100.0),
                name => from_reps(name),
            };
            derived.unwrap_or(0.0)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let s = Summary::of((1..=10).map(f64::from).collect());
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(vec![3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let s = Summary::of(vec![1.0, 2.0, 4.0, 8.0, 16.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 4.0, 12.0));
        assert!((s.spread() - 2.625).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(vec![1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    }
}
