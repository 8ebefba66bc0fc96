//! Whole-benchmark tests: every workload passes its output checks at
//! quick size, failed reps are counted without stopping the set, the
//! metric catalog is well-formed and equals `BENCHMARK.json`, and
//! malformed arguments are rejected.

use std::time::Duration;

use crate::catalog::{END_TO_END, PER_LAYER};
use crate::json::Json;
use crate::measure::{measure, Options, RepRequest};
use crate::workload::{run_rep, Mode, Plan, RepOutput, Workload};
use crate::{parse_args, summary_line, Cli};

fn quick_options() -> Options {
    Options {
        seed: 5,
        quick: true,
        min_reps: 2,
        seconds: Duration::ZERO,
        trace: true,
    }
}

fn per_layer(result: &crate::measure::WorkloadResult, name: &str) -> f64 {
    let i = PER_LAYER.iter().position(|m| m.name == name).unwrap();
    result.per_layer.as_ref().unwrap()[i]
}

#[test]
fn every_workload_passes_its_output_checks_at_quick_size() {
    for workload in Workload::ALL {
        let mut exec = |request: &RepRequest| {
            let plan = Plan::new(request.workload, request.seed, request.quick);
            Ok(run_rep(&plan, request.mode))
        };
        let result = measure(workload, &quick_options(), &mut exec);
        let failed: Vec<_> = result.checks.iter().filter(|c| !c.ok).collect();
        assert!(result.correct(), "{}: {failed:?}", workload.name());
        assert_eq!(result.reps, 2);
        for (metric, summary) in END_TO_END.iter().zip(&result.end_to_end) {
            assert!(
                summary.median.is_finite() && summary.median > 0.0,
                "{} {}: {}",
                workload.name(),
                metric.name,
                summary.median
            );
        }
        // Each workload drives the layers it was chosen for.
        let exercised = match workload {
            Workload::ReadHot => "accesseval.promotions",
            Workload::WriteChurn => "recovery.image_bytes",
            Workload::PipelinedBurst => "sim.singlequeue_ns_per_req",
            Workload::ServeHostile => "obs.export_bytes",
        };
        assert!(per_layer(&result, exercised) > 0.0, "{}", workload.name());
        assert!(per_layer(&result, "path.mean.sense_us") > 0.0);
    }
}

#[test]
fn failed_reps_are_counted_not_fatal() {
    let mut exec = |request: &RepRequest| match request.mode {
        Mode::Timed => Ok(RepOutput {
            error: Some("simulator: ftl: no reclaimable space left on device".to_string()),
            ..RepOutput::default()
        }),
        _ => Err("child process died (signal: 9)".to_string()),
    };
    let options = Options {
        min_reps: 3,
        trace: false,
        ..quick_options()
    };
    let result = measure(Workload::WriteChurn, &options, &mut exec);
    assert_eq!((result.reps, result.failed_reps), (3, 3));
    assert!(!result.correct());
    assert!(result
        .checks
        .iter()
        .any(|c| !c.ok && c.name == "reference completes"));
    let line = summary_line(&result);
    assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
    assert_eq!(line.get("failed"), line.get("attempted"));
    assert_eq!(
        line.get("failed").and_then(Json::as_f64),
        Some(3.0 * 20_000.0)
    );
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn metric_names_are_well_formed_and_unique() {
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    let mut names: Vec<&str> = END_TO_END
        .iter()
        .map(|m| m.name)
        .chain(PER_LAYER.iter().map(|m| m.name))
        .collect();
    assert!(names.iter().all(|n| valid_name(n)), "{names:?}");
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), END_TO_END.len() + PER_LAYER.len());
    assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    let setup = crate::catalog::end_to_end("setup_s").unwrap();
    assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
}

#[test]
fn benchmark_json_matches_the_catalog() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = Json::parse(&text).unwrap();
    let list = |key: &str| doc.get(key).and_then(Json::as_array).unwrap().to_vec();
    let text_of = |v: &Json, key: &str| v.get(key).and_then(Json::as_str).unwrap().to_string();

    let workloads: Vec<(String, String)> = list("workloads")
        .iter()
        .map(|w| (text_of(w, "name"), text_of(w, "why")))
        .collect();
    let expected: Vec<(String, String)> = Workload::ALL
        .iter()
        .map(|w| (w.name().to_string(), w.why().to_string()))
        .collect();
    assert_eq!(workloads, expected);

    let end_to_end: Vec<(String, String, String, f64)> = list("end_to_end")
        .iter()
        .map(|m| {
            (
                text_of(m, "name"),
                text_of(m, "unit"),
                text_of(m, "better"),
                m.get("bound").and_then(Json::as_f64).unwrap(),
            )
        })
        .collect();
    let expected: Vec<(String, String, String, f64)> = END_TO_END
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                m.unit.to_string(),
                m.better.label().to_string(),
                m.bound,
            )
        })
        .collect();
    assert_eq!(end_to_end, expected);

    let per_layer: Vec<(String, String, String)> = list("per_layer")
        .iter()
        .map(|m| (text_of(m, "name"), text_of(m, "unit"), text_of(m, "better")))
        .collect();
    let expected: Vec<(String, String, String)> = PER_LAYER
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                m.unit.to_string(),
                m.better.label().to_string(),
            )
        })
        .collect();
    assert_eq!(per_layer, expected);
}

#[test]
fn malformed_arguments_are_errors_not_panics() {
    let parse = |args: &[&str]| parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    for bad in [
        &["run", "--seed", "x"][..],
        &["run", "--seed", "-1"],
        &["run", "--reps", "0"],
        &["run", "--reps"],
        &["run", "--workload", "nope"],
        &["run", "--trace", "2"],
        &["run", "--bogus"],
        &["compare", "one.json"],
        &["child", "--workload", "read-hot"],
        &[],
    ] {
        assert!(parse(bad).is_err(), "accepted {bad:?}");
    }
    let Ok(Cli::Run(run)) = parse(&[
        "run",
        "--workload",
        "read-hot",
        "--seed",
        "3",
        "--seconds",
        "10",
        "--trace",
        "1",
    ]) else {
        panic!("run with workload, seed, seconds and trace rejected");
    };
    assert_eq!(run.workloads, [Workload::ReadHot]);
    assert_eq!(run.options.seed, 3);
    assert_eq!(run.options.min_reps, 3);
    assert!(run.options.trace);
}
