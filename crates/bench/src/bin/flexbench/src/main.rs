//! flexbench: one command that measures the FlexLevel simulator end to
//! end (host speed and modelled device latency) on four workloads, with
//! per-layer attribution and output checks. See `README.md`.

mod catalog;
mod compare;
mod json;
mod measure;
mod spans;
mod workload;

#[cfg(test)]
mod tests;

use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;

use catalog::{END_TO_END, PER_LAYER};
use json::Json;
use measure::{measure, Options, RepRequest, WorkloadResult};
use workload::{run_rep, Mode, Plan, RepOutput, Workload};

/// Seed of the committed baselines and of runs without `--seed`.
const DEFAULT_SEED: u64 = 11;
/// Timed reps per workload when neither `--reps` nor `--seconds` is given.
const DEFAULT_REPS: usize = 5;
/// Timed reps per workload at least, when `--seconds` is given.
const MIN_TIMED_REPS: usize = 3;
const OUT_DIR: &str = "target/flexbench";

const USAGE: &str = "\
usage:
  flexbench run   [--workload W] [--seed N] [--reps N] [--seconds S] [--trace 0|1] [--quick]
  flexbench trace [--workload W] [--seed N] [--reps N] [--seconds S] [--quick]
  flexbench compare <base.json> <change.json>

  run       measures every workload (or only W) and prints each end-to-end metric
            as `workload metric value unit (median; q1, q3, n)`, then writes
            target/flexbench/results.json. With one workload the last line of
            output is a JSON summary. Exit 1 if an output check or a rep fails.
  trace     run --trace 1: also the traced and comparison passes, per-layer
            metrics, and target/flexbench/<W>.trace.json
  compare   one verdict per (workload, metric); exit 1 on a regression,
            2 when the runs differ in seed, size or workload fingerprint

  --workload W  read-hot | write-churn | pipelined-burst | serve-hostile
  --seed N      input seed (default 11)
  --reps N      timed reps per workload at least (default 5, or 3 with --seconds)
  --seconds S   time budget per workload, every pass included: add timed reps
                while the next should end within S seconds
  --quick       1/100 of the requests
";

#[derive(Debug, Clone, PartialEq)]
struct RunArgs {
    workloads: Vec<Workload>,
    options: Options,
}

#[derive(Debug, Clone, PartialEq)]
enum Cli {
    Run(RunArgs),
    Compare(String, String),
    /// Internal: one rep, run by the parent as a child process.
    Child(RepRequest),
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let (command, rest) = args.split_first().ok_or("missing command")?;
    if command == "compare" {
        return match rest {
            [base, change] => Ok(Cli::Compare(base.clone(), change.clone())),
            _ => Err("compare takes two results files".to_string()),
        };
    }
    if !matches!(command.as_str(), "run" | "trace" | "child") {
        return Err(format!("unknown command '{command}'"));
    }
    let mut workloads = Workload::ALL.to_vec();
    let mut seed = DEFAULT_SEED;
    let mut reps = None;
    let mut seconds = 0;
    let mut trace = command == "trace";
    let mut quick = false;
    let mut mode = None;
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let w = Workload::parse(name).ok_or(format!("unknown workload '{name}'"))?;
                workloads = vec![w];
            }
            "--seed" => {
                seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--reps" => {
                let n: usize = value()?.parse().map_err(|e| format!("--reps: {e}"))?;
                if n == 0 {
                    return Err("--reps must be at least 1".to_string());
                }
                reps = Some(n);
            }
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                };
            }
            "--quick" => quick = true,
            "--mode" if command == "child" => {
                let name = value()?;
                mode = Some(Mode::parse(name).ok_or(format!("unknown mode '{name}'"))?);
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if command == "child" {
        let (&[workload], Some(mode)) = (workloads.as_slice(), mode) else {
            return Err("child needs --workload and --mode".to_string());
        };
        return Ok(Cli::Child(RepRequest {
            workload,
            seed,
            quick,
            mode,
        }));
    }
    let default_reps = if seconds > 0 {
        MIN_TIMED_REPS
    } else {
        DEFAULT_REPS
    };
    Ok(Cli::Run(RunArgs {
        workloads,
        options: Options {
            seed,
            quick,
            min_reps: reps.unwrap_or(default_reps),
            seconds: Duration::from_secs(seconds),
            trace,
        },
    }))
}

/// Runs one rep in a child process of this executable and waits for it.
fn spawn_rep(request: &RepRequest) -> Result<RepOutput, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating flexbench: {e}"))?;
    let mut command = Command::new(exe);
    command
        .arg("child")
        .args(["--workload", request.workload.name()])
        .args(["--seed", &request.seed.to_string()])
        .args(["--mode", request.mode.name()])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if request.quick {
        command.arg("--quick");
    }
    let output = command
        .output()
        .map_err(|e| format!("starting child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    match stdout.lines().last().map(Json::parse) {
        Some(Ok(json)) if output.status.success() => RepOutput::from_json(&json),
        Some(Err(e)) if output.status.success() => Err(format!("child output: {e}")),
        _ => Err(format!("child process died ({})", output.status)),
    }
}

/// The machine and toolchain a results file was measured with.
fn environment() -> Json {
    let run = |program: &str, args: &[&str]| {
        Command::new(program)
            .args(args)
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        });
    // Only a checkout that is itself a git repository names its commit.
    let commit = Path::new(".git").exists().then(|| {
        run("git", &["rev-parse", "--short", "HEAD"]).map(|head| {
            let dirty = run("git", &["status", "--porcelain"]).is_some_and(|s| !s.is_empty());
            if dirty {
                format!("{head}-dirty")
            } else {
                head
            }
        })
    });
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let text = |v: Option<String>| Json::str(v.unwrap_or_else(|| "unknown".to_string()));
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        ("cpu", text(cpu)),
        ("rustc", text(run("rustc", &["-V"]))),
        ("commit", text(commit.flatten())),
    ])
}

fn print_result(result: &WorkloadResult) {
    let name = result.workload.name();
    println!(
        "== {name}: {} timed reps of {} requests, fingerprint {}",
        result.reps, result.offered_per_rep, result.fingerprint
    );
    println!("   ({})", result.workload.why());
    for (metric, summary) in END_TO_END.iter().zip(&result.end_to_end) {
        println!(
            "{name:<16} {:<18} {:>16.4} {:<6} (median; q1 {:.4}, q3 {:.4}, n {})",
            metric.name,
            summary.median,
            metric.unit,
            summary.q1,
            summary.q3,
            summary.values.len()
        );
    }
    for (metric, value) in PER_LAYER.iter().zip(result.per_layer.iter().flatten()) {
        println!(
            "{name:<16} {:<32} {value:>16.4} {}",
            metric.name, metric.unit
        );
    }
    let passed = result.checks.iter().filter(|c| c.ok).count();
    println!(
        "{name:<16} checks: {passed} of {} passed",
        result.checks.len()
    );
    for check in result.checks.iter().filter(|c| !c.ok) {
        println!("{name:<16} FAILED {}: {}", check.name, check.detail);
    }
}

/// The one-line JSON summary of a single-workload run: the per-layer
/// metrics when the run traced, the end-to-end ones otherwise.
fn summary_line(result: &WorkloadResult) -> Json {
    let metric = |value: f64, unit: &str| {
        Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
    };
    let metrics = if let Some(values) = &result.per_layer {
        Json::obj(
            PER_LAYER
                .iter()
                .zip(values)
                .map(|(m, &v)| (m.name, metric(v, m.unit))),
        )
    } else {
        Json::obj(
            END_TO_END
                .iter()
                .zip(&result.end_to_end)
                .map(|(m, s)| (m.name, metric(s.median, m.unit))),
        )
    };
    Json::obj([
        ("correct", Json::Bool(result.correct())),
        (
            "attempted",
            Json::Num((result.reps as u64 * result.offered_per_rep) as f64),
        ),
        (
            "failed",
            Json::Num((result.failed_reps as u64 * result.offered_per_rep) as f64),
        ),
        ("metrics", metrics),
    ])
}

fn write_file(path: &str, contents: &str) -> Result<(), String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("creating {OUT_DIR}: {e}"))?;
    std::fs::write(path, contents).map_err(|e| format!("writing {path}: {e}"))
}

fn run(args: &RunArgs) -> ExitCode {
    let options = &args.options;
    println!(
        "flexbench: seed {}, {} size, at least {} timed reps{}, nproc {}",
        options.seed,
        if options.quick { "quick" } else { "full" },
        options.min_reps,
        if options.seconds.is_zero() {
            String::new()
        } else {
            format!(" over {} s", options.seconds.as_secs())
        },
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let mut results = Vec::new();
    for &w in &args.workloads {
        let result = measure(w, options, &mut spawn_rep);
        print_result(&result);
        if options.trace {
            let path = format!("{OUT_DIR}/{}.trace.json", w.name());
            match write_file(&path, &spans::chrome_trace(&result.passes)) {
                Ok(()) => println!("wrote {path}"),
                Err(e) => eprintln!("error: {e}"),
            }
        }
        results.push(result);
    }
    let doc = Json::obj([
        ("seed", Json::Num(options.seed as f64)),
        ("quick", Json::Bool(options.quick)),
        ("env", environment()),
        (
            "workloads",
            Json::Arr(results.iter().map(WorkloadResult::to_json).collect()),
        ),
    ]);
    let path = format!("{OUT_DIR}/results.json");
    let wrote = write_file(&path, &format!("{doc}\n"));
    match &wrote {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("error: {e}"),
    }
    if let [result] = results.as_slice() {
        println!("{}", summary_line(result));
    }
    if wrote.is_ok() && results.iter().all(WorkloadResult::correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn compare_files(base: &str, change: &str) -> ExitCode {
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("reading {path}: {e}"))
            .and_then(|text| Json::parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    match load(base).and_then(|b| load(change).and_then(|c| compare::compare(&b, &c))) {
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: cannot compare: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok(Cli::Run(run_args)) => run(&run_args),
        Ok(Cli::Compare(base, change)) => compare_files(&base, &change),
        Ok(Cli::Child(request)) => {
            let plan = Plan::new(request.workload, request.seed, request.quick);
            println!("{}", run_rep(&plan, request.mode).to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
