//! CLI contract of the scenario engine: `--list-scenarios` enumerates
//! the registry, parse errors (unknown preset) exit 2 with the valid
//! names listed, and simulation failures exit 1 — two distinct failure
//! channels scripts can branch on.

use std::process::Command;

fn sim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_flexlevel-sim"))
}

#[test]
fn list_scenarios_prints_the_registry() {
    let out = sim().arg("--list-scenarios").output().expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    for name in ssd::ScenarioSpec::names() {
        assert!(
            stdout.lines().any(|l| l.starts_with(name)),
            "listing must include {name}:\n{stdout}"
        );
    }
}

#[test]
fn unknown_scenario_is_a_parse_error_listing_valid_names() {
    let out = sim()
        .args(["--scenario", "no-such-preset"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "parse errors exit 2");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(
        stderr.contains("unknown scenario 'no-such-preset'"),
        "stderr names the bad preset:\n{stderr}"
    );
    for name in ssd::ScenarioSpec::names() {
        assert!(
            stderr.contains(name),
            "stderr must list valid name {name}:\n{stderr}"
        );
    }
}

#[test]
fn zero_blocks_is_a_usage_error() {
    let out = sim().args(["--blocks", "0"]).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(
        stderr.contains("--blocks"),
        "stderr names the flag:\n{stderr}"
    );
}

#[test]
fn simulation_failure_exits_one() {
    // A footprint far beyond the 64-block device's capacity fails every
    // scheme's run — a *simulation* failure, not a parse failure.
    let out = sim()
        .args([
            "--blocks",
            "64",
            "--requests",
            "50",
            "--footprint",
            "99999999",
        ])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "sim failures exit 1");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(
        stderr.contains("exceeds device capacity"),
        "stderr explains the failure:\n{stderr}"
    );
}

#[test]
fn baseline_scenario_runs_clean() {
    let out = sim()
        .args([
            "--scenario",
            "baseline",
            "--blocks",
            "64",
            "--requests",
            "500",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "baseline scenario must succeed");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        stdout.contains("mean response"),
        "report printed:\n{stdout}"
    );
}

#[test]
fn fault_presets_surface_recovery_panel() {
    // A non-baseline preset that enables fault injection must print the
    // recovery panel even without `--faults` on the command line.
    let out = sim()
        .args([
            "--scenario",
            "seu-burst",
            "--blocks",
            "64",
            "--requests",
            "2000",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        stdout.contains("patrol scrub"),
        "fault panel printed:\n{stdout}"
    );
}
