//! CLI contract of the scenario engine: `--list-scenarios` enumerates
//! the registry, parse errors (unknown preset) exit 2 with the valid
//! names listed, simulation failures and damaged images exit 1, and a
//! crash image whose recovery audit fails exits 3 — distinct failure
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

/// `flag 0` is a usage error (exit 2) whose message names the flag.
fn assert_zero_is_a_usage_error(flag: &str) {
    let out = sim().args([flag, "0"]).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "usage errors exit 2");
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    assert!(stderr.contains(flag), "stderr names the flag:\n{stderr}");
}

#[test]
fn zero_blocks_is_a_usage_error() {
    assert_zero_is_a_usage_error("--blocks");
}

// The config would clamp these to 1 while the report divided by the raw
// flag (a pipelined `--decoders 0` run printed `util 0.0%`).
#[test]
fn zero_channels_is_a_usage_error() {
    assert_zero_is_a_usage_error("--channels");
}

#[test]
fn zero_dies_is_a_usage_error() {
    assert_zero_is_a_usage_error("--dies");
}

#[test]
fn zero_decoders_is_a_usage_error() {
    assert_zero_is_a_usage_error("--decoders");
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
fn unaddressable_footprint_exits_one_without_a_panic() {
    for serve in [false, true] {
        let mut cmd = sim();
        cmd.args(["--blocks", "64", "--requests", "50", "--footprint"])
            .arg(u64::MAX.to_string());
        if serve {
            cmd.arg("--serve");
        }
        let out = cmd.output().expect("binary runs");
        assert_eq!(out.status.code(), Some(1), "serve {serve}");
        let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
        assert!(
            stderr.contains("exceeds the request address space") && !stderr.contains("panicked"),
            "serve {serve}:\n{stderr}"
        );
    }
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

/// Checkpoints a small `--faults` run, applies `forge` to the image on
/// disk, and returns the exit code and stderr of restoring it.
fn restore_forged(name: &str, forge: impl FnOnce(&mut ssd::DeviceImage)) -> (Option<i32>, String) {
    let path =
        std::env::temp_dir().join(format!("flexlevel_cli_{name}_{}.bin", std::process::id()));
    let run = ["--blocks", "64", "--requests", "2000", "--faults"];
    let out = sim()
        .args(run)
        .arg("--checkpoint-out")
        .arg(&path)
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "checkpoint run succeeds");
    let mut image = ssd::DeviceImage::load(&path).expect("checkpoint loads");
    forge(&mut image);
    image.save(&path).expect("forged image saves");
    let out = sim()
        .args(run)
        .arg("--restore")
        .arg(&path)
        .output()
        .expect("binary runs");
    let _ = std::fs::remove_file(&path);
    let stderr = String::from_utf8(out.stderr).expect("utf-8 stderr");
    (out.status.code(), stderr)
}

#[test]
fn restore_rejects_a_forged_scrub_cursor() {
    // Accepted as-is, the cursor indexes past the block table on the
    // first patrol-scrub visit: a panic, exit 101.
    let (code, stderr) = restore_forged("cursor", |image| image.scrub_cursor = 1_000_000);
    assert_eq!(code, Some(1), "typed image error:\n{stderr}");
    assert!(stderr.contains("scrub cursor out of range"), "{stderr}");
}

#[test]
fn restore_rejects_forged_per_page_state() {
    // Per-page state lives in LPN-indexed columns: accepted as-is, a
    // forged LPN would size a column by it (an allocation failure, not
    // a typed error) and a zero counter would vanish on re-checkpoint.
    let (code, stderr) = restore_forged("age_lpn", |image| image.ages.push((u64::MAX, 1.0)));
    assert_eq!(code, Some(1), "typed image error:\n{stderr}");
    assert!(stderr.contains("data-age LPN out of range"), "{stderr}");
    let (code, stderr) = restore_forged("fault_tag", |image| {
        let counters = image
            .fault_counters
            .as_mut()
            .expect("--faults checkpoints counters");
        counters.push((0x77, 0, 1));
    });
    assert_eq!(code, Some(1), "typed image error:\n{stderr}");
    assert!(stderr.contains("unknown fault-stream tag"), "{stderr}");
}

#[test]
fn restore_rejects_a_written_block_in_the_free_pool() {
    let (code, stderr) = restore_forged("free", |image| {
        let ftl = &mut image.ftl;
        let written = (0..ftl.blocks)
            .find(|&b| ftl.block_states[b as usize].frontier > 0 && !ftl.free.contains(&b))
            .expect("the prefix wrote a block");
        ftl.free.push(written);
    });
    assert_eq!(code, Some(1), "typed image error:\n{stderr}");
    assert!(stderr.contains("is not erased"), "{stderr}");
}

#[test]
fn failed_crash_recovery_exits_three() {
    // The image decodes and fits the config, but its journal erases a
    // block past the end of the device: replay fails its audit, which
    // is the distinct exit 3, not a typed image error.
    let (code, stderr) = restore_forged("journal", |image| {
        image.journal.push(ssd::JournalRecord::Erase {
            block: flash_model::BlockId(u32::MAX),
        });
        image.crashed_at = Some(image.request_cursor);
    });
    assert_eq!(code, Some(3), "failed recovery audit:\n{stderr}");
    assert!(stderr.contains("crash recovery failed"), "{stderr}");
}

#[test]
fn crash_image_that_does_not_restore_exits_one() {
    // The image is restored before its journal is replayed, so a
    // checkpoint that fails to restore is a typed image error even when
    // the journal would also fail its audit.
    let (code, stderr) = restore_forged("unrestorable", |image| {
        let ftl = &mut image.ftl;
        let written = (0..ftl.blocks)
            .find(|&b| ftl.block_states[b as usize].frontier > 0 && !ftl.free.contains(&b))
            .expect("the prefix wrote a block");
        ftl.free.push(written);
        image.journal.push(ssd::JournalRecord::Erase {
            block: flash_model::BlockId(u32::MAX),
        });
        image.crashed_at = Some(image.request_cursor);
    });
    assert_eq!(code, Some(1), "typed image error:\n{stderr}");
    assert!(stderr.contains("is not erased"), "{stderr}");
}
