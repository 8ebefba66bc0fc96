//! `flexbench compare`: one verdict per (workload, end-to-end metric)
//! between two `results.json` files.
//!
//! Host metrics follow the no-regression rule: the change's median may
//! not be worse than the base's by more than the metric's bound; where
//! the rep-to-rep spread is wider than the bound the verdict is
//! unresolved, unless every change rep beats every base rep. A gain needs
//! nine tenths of the rep pairs and a median difference larger than the
//! base's quartile spread. Modelled metrics repeat exactly for a fixed
//! seed, so any difference beyond [`MODELLED_TOLERANCE`] is a model
//! change and is reported as one.

use crate::catalog::{end_to_end, Better, Clock, EndToEnd, MODELLED_TOLERANCE};
use crate::json::Json;
use crate::measure::Summary;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    NoWorse,
    Regressed,
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::NoWorse => "no worse",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `change` is than `base`, as a share of `base`
/// (negative when better).
fn worsening(metric: &EndToEnd, base: f64, change: f64) -> f64 {
    let d = (change - base) / base.abs();
    match metric.better {
        Better::Lower => d,
        Better::Higher => -d,
    }
}

pub fn verdict(metric: &EndToEnd, base: &Summary, change: &Summary) -> Verdict {
    let worse = worsening(metric, base.median, change.median);
    if metric.clock == Clock::Modelled {
        return if worse.abs() <= MODELLED_TOLERANCE {
            Verdict::NoWorse
        } else if worse > 0.0 {
            Verdict::Regressed
        } else {
            Verdict::Improved
        };
    }
    let beats = |c: f64, b: f64| worsening(metric, b, c) < 0.0;
    let all_better = change
        .values
        .iter()
        .all(|&c| base.values.iter().all(|&b| beats(c, b)));
    if base.spread().max(change.spread()) > metric.bound {
        return if all_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    if worse > metric.bound {
        return Verdict::Regressed;
    }
    let pairs = base.values.len().min(change.values.len());
    let wins = base
        .values
        .iter()
        .zip(&change.values)
        .filter(|(&b, &c)| beats(c, b))
        .count();
    let clear = -worse * base.median.abs() > base.q3 - base.q1;
    if pairs > 0 && clear && wins * 10 >= pairs * 9 {
        Verdict::Improved
    } else {
        Verdict::NoWorse
    }
}

fn field<'a>(doc: &'a Json, key: &str) -> Result<&'a Json, String> {
    doc.get(key)
        .ok_or_else(|| format!("results file has no '{key}'"))
}

/// Compares two parsed results files; prints one row per (workload,
/// metric). Returns whether anything regressed, or why the two cannot be
/// compared.
pub fn compare(base: &Json, change: &Json) -> Result<bool, String> {
    for key in ["seed", "quick"] {
        let (a, b) = (field(base, key)?, field(change, key)?);
        if a != b {
            return Err(format!("runs differ in {key}: {a} vs {b}"));
        }
    }
    let workloads = |doc: &'_ Json| -> Result<Vec<Json>, String> {
        Ok(field(doc, "workloads")?
            .as_array()
            .ok_or("'workloads' is not an array")?
            .to_vec())
    };
    let (base_workloads, change_workloads) = (workloads(base)?, workloads(change)?);
    let name = |w: &Json| {
        w.get("name")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string()
    };
    let mut regressed = false;
    println!(
        "{:<16} {:<18} {:>36} {:>36}  verdict",
        "workload", "metric", "base median [q1, q3]", "change median [q1, q3]"
    );
    for b in &base_workloads {
        let workload = name(b);
        let Some(c) = change_workloads.iter().find(|c| name(c) == workload) else {
            println!("{workload:<16} (missing from the change; not compared)");
            continue;
        };
        let (fb, fc) = (b.get("fingerprint"), c.get("fingerprint"));
        if fb.is_none() || fb != fc {
            return Err(format!(
                "{workload}: workload fingerprints differ ({fb:?} vs {fc:?}); the runs measured \
                 different inputs"
            ));
        }
        let metrics = field(b, "end_to_end")?
            .as_object()
            .ok_or("'end_to_end' is not an object")?;
        for (metric_name, base_value) in metrics {
            let Some(metric) = end_to_end(metric_name) else {
                println!("{workload:<16} {metric_name:<18} (unknown metric; not compared)");
                continue;
            };
            let summaries = Summary::from_json(base_value).zip(
                c.get("end_to_end")
                    .and_then(|e| e.get(metric_name))
                    .and_then(Summary::from_json),
            );
            let Some((bs, cs)) =
                summaries.filter(|(b, c)| !b.values.is_empty() && !c.values.is_empty())
            else {
                println!("{workload:<16} {metric_name:<18} (no values on one side; unresolved)");
                continue;
            };
            let v = verdict(metric, &bs, &cs);
            regressed |= v == Verdict::Regressed;
            let cell = |s: &Summary| format!("{:.6} [{:.6}, {:.6}]", s.median, s.q1, s.q3);
            println!(
                "{workload:<16} {metric_name:<18} {:>36} {:>36}  {}",
                cell(&bs),
                cell(&cs),
                v.label()
            );
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn results(sim_rps: &[f64], read_mean: f64) -> Json {
        let summary = |values: &[f64]| Summary::of(values.to_vec()).to_json("x", Better::Lower);
        Json::obj([
            ("seed", Json::Num(11.0)),
            ("quick", Json::Bool(false)),
            (
                "workloads",
                Json::Arr(vec![Json::obj([
                    ("name", Json::str("read-hot")),
                    ("fingerprint", Json::str("00ff")),
                    (
                        "end_to_end",
                        Json::obj([
                            ("sim_rps", summary(sim_rps)),
                            ("read_mean_us", summary(&[read_mean; 5])),
                        ]),
                    ),
                ])]),
            ),
        ])
    }

    const BASE: [f64; 5] = [1.00e6, 1.01e6, 0.99e6, 1.005e6, 0.995e6];

    fn scaled(factor: f64) -> Vec<f64> {
        BASE.iter().map(|v| v * factor).collect()
    }

    #[test]
    fn flags_a_drop_beyond_the_bound_and_passes_3_percent() {
        let metric = end_to_end("sim_rps").unwrap();
        let beyond = 1.0 - metric.bound - 0.05;
        let base = results(&BASE, 800.0);
        assert_eq!(compare(&base, &results(&scaled(beyond), 800.0)), Ok(true));
        assert_eq!(compare(&base, &results(&scaled(0.97), 800.0)), Ok(false));
        let v = |f| verdict(metric, &Summary::of(BASE.to_vec()), &Summary::of(scaled(f)));
        assert_eq!(v(beyond), Verdict::Regressed);
        assert_eq!(v(0.97), Verdict::NoWorse);
        assert_eq!(v(1.2), Verdict::Improved);
    }

    #[test]
    fn modelled_metrics_must_match_exactly() {
        let base = results(&BASE, 800.0);
        assert_eq!(
            compare(&base, &results(&BASE, 800.0 * (1.0 + 1e-6))),
            Ok(true)
        );
        assert_eq!(
            compare(&base, &results(&BASE, 800.0 * (1.0 - 1e-6))),
            Ok(false)
        );
    }

    #[test]
    fn wide_spread_is_unresolved() {
        let metric = end_to_end("sim_rps").unwrap();
        let noisy = Summary::of(vec![0.5e6, 1.5e6, 1.0e6, 0.6e6, 1.4e6]);
        let v = verdict(metric, &noisy, &Summary::of(scaled(0.9)));
        assert_eq!(v, Verdict::Unresolved);
    }

    #[test]
    fn refuses_different_seeds_or_inputs() {
        let base = results(&BASE, 800.0);
        let mut other_seed = results(&BASE, 800.0);
        if let Json::Obj(pairs) = &mut other_seed {
            pairs[0].1 = Json::Num(12.0);
        }
        assert!(compare(&base, &other_seed).is_err());
        let text = results(&BASE, 800.0).to_string().replace("00ff", "00fe");
        assert!(compare(&base, &Json::parse(&text).unwrap()).is_err());
    }
}
