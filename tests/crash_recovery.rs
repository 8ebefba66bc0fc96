//! Crash-torture harness for the sudden-power-off recovery subsystem.
//!
//! Three layers of assurance, all fully deterministic:
//!
//! 1. **Checkpoint/restore fidelity** — a run split at an arbitrary
//!    request boundary (checkpoint → restore → resume) reproduces the
//!    uninterrupted run's `SimStats` bit-for-bit.
//! 2. **Crash-point sweep** — for three (scheme, scenario) combinations,
//!    210 seeded journal cuts (some with a torn trailing page) are each
//!    recovered onto the checkpoint image; every recovered FTL passes
//!    `check_invariants` and its logical→physical mapping matches an
//!    independent fold of the surviving journal prefix, so no
//!    acknowledged write is lost and no stale mapping is resurrected.
//! 3. **Crash → recover → resume** — full power-loss cycles through the
//!    simulator API (including pipelined and multi-threaded configs)
//!    finish with counters identical to the never-crashed golden run.

use obs::export;
use rand::{rngs::StdRng, SeedableRng};
use ssd::{
    CrashPlan, DeviceImage, FtlImage, JournalRecord, PageMapFtl, ScenarioSpec, Scheme, SimError,
    SimObserver, SimStats, SsdConfig, SsdSimulator, TimingModel, TornPage,
};
use std::collections::HashMap;
use workloads::{Trace, WorkloadSpec};

/// Shared torture workload: enough churn for thousands of journal
/// records (programs, GC erases, invalidations) on a 64-block device.
fn torture_trace() -> Trace {
    WorkloadSpec::fin2()
        .with_requests(3_000)
        .with_footprint(1_500)
        .generate(&mut StdRng::seed_from_u64(0xF1E2))
}

fn combo_config(scheme: Scheme, preset: &str) -> SsdConfig {
    let config = SsdConfig::scaled(scheme, 64).with_seed(7);
    ScenarioSpec::find(preset)
        .unwrap_or_else(|| panic!("unknown scenario preset {preset}"))
        .apply(config)
}

/// The backend-independent operation counters (the same set the
/// pipelined-vs-single-queue equivalence test pins).
fn logical_counters(stats: &SimStats) -> (Vec<u64>, Vec<u64>) {
    (
        vec![
            stats.host_reads,
            stats.host_writes,
            stats.buffer_read_hits,
            stats.flash_reads,
            stats.flash_programs,
            stats.erases,
            stats.gc_runs,
            stats.gc_migrated_pages,
            stats.promotions,
            stats.reduced_reads,
        ],
        stats.reads_by_sensing_level.clone(),
    )
}

/// Independently folds the checkpoint image plus a journal prefix into
/// the expected logical→physical mapping. This is the oracle the
/// recovered FTL is audited against: it shares no code with
/// `PageMapFtl::recover` beyond the record definitions.
fn expected_mapping(
    image: &FtlImage,
    journal: &[JournalRecord],
    torn: Option<TornPage>,
) -> HashMap<u64, (u32, u32)> {
    let mut map = HashMap::new();
    for (b, block) in image.block_states.iter().enumerate() {
        for (p, slot) in block.slots.iter().enumerate() {
            if let Some(lpn) = slot {
                map.insert(*lpn, (b as u32, p as u32));
            }
        }
    }
    for record in journal {
        match *record {
            JournalRecord::Write {
                lpn, block, page, ..
            }
            | JournalRecord::Map { lpn, block, page } => {
                map.insert(lpn, (block.0, page));
            }
            JournalRecord::Invalidate { lpn } => {
                map.remove(&lpn);
            }
            JournalRecord::Erase { .. }
            | JournalRecord::Retire { .. }
            | JournalRecord::Commit { .. } => {}
        }
    }
    if let Some(torn) = torn {
        map.retain(|_, &mut (b, p)| (b, p) != (torn.block.0, torn.page));
    }
    map
}

/// Audits a recovered FTL against the fold oracle: every surviving
/// journalled write must be readable at its journalled location (no
/// acknowledged-write loss) and nothing else may be mapped (no stale
/// reads through resurrected mappings).
fn audit_recovery(
    image: &FtlImage,
    journal: &[JournalRecord],
    torn: Option<TornPage>,
    recovered: &PageMapFtl,
) {
    let expected = expected_mapping(image, journal, torn);
    for (&lpn, &(block, page)) in &expected {
        let (phys, _mode) = recovered
            .placement(lpn)
            .unwrap_or_else(|| panic!("lpn {lpn} lost across recovery (cut {})", journal.len()));
        assert_eq!(
            (phys.block.0, phys.page),
            (block, page),
            "lpn {lpn} recovered to the wrong physical page"
        );
    }
    assert_eq!(
        recovered.total_valid_pages(),
        expected.len() as u64,
        "recovered FTL maps pages the journal prefix never acknowledged"
    );
}

#[test]
fn split_run_reproduces_uninterrupted_stats() {
    let trace = torture_trace();
    for scheme in [Scheme::Baseline, Scheme::FlexLevel] {
        let config = SsdConfig::scaled(scheme, 64).with_seed(7);
        let golden = {
            let mut sim = SsdSimulator::new(config.clone());
            sim.run(&trace).expect("golden run completes").clone()
        };

        let mut first = SsdSimulator::new(config.clone());
        first.run_prefix(&trace, 1_700).expect("prefix completes");
        let image = first.checkpoint().expect("checkpoint serializes");

        let mut second = SsdSimulator::restore(config, &image).expect("image restores");
        let resumed = second.resume(&trace).expect("resumed run completes");
        assert_eq!(
            resumed, &golden,
            "{scheme:?}: split run diverged from the uninterrupted run"
        );
    }
}

#[test]
fn crash_point_sweep_recovers_every_cut() {
    let combos = [
        (Scheme::FlexLevel, "baseline", 0xA11CEu64),
        (Scheme::FlexLevel, "tlc", 0xB0B5Eu64),
        (Scheme::Baseline, "read-disturb-hot", 0xCAB1Eu64),
    ];
    let trace = torture_trace();
    let mut total_points = 0usize;
    for (scheme, preset, seed) in combos {
        let config = combo_config(scheme, preset);
        let mut sim = SsdSimulator::new(config);
        sim.run_prefix(&trace, 0).expect("preload completes");
        let image = sim.checkpoint().expect("checkpoint serializes");
        sim.resume(&trace).expect("journaled run completes");
        let journal = sim.ftl().journal().expect("journal enabled").to_vec();
        assert!(
            journal.len() > 1_000,
            "{scheme:?}/{preset}: workload too small to torture ({} records)",
            journal.len()
        );

        // Replaying the whole journal must land exactly on the live
        // end-of-run FTL state.
        let (full, report) =
            PageMapFtl::recover(&image.ftl, &journal, None).expect("full replay succeeds");
        assert_eq!(full.digest(), sim.ftl().digest());
        assert_eq!(report.journal_replayed, journal.len() as u64);

        for (cut, torn_flag) in CrashPlan::sweep_points(seed, 70, journal.len()) {
            // A torn page is the program that power-failure interrupted:
            // the first record that did NOT survive, when it is a write.
            let torn = if torn_flag {
                match journal.get(cut) {
                    Some(&JournalRecord::Write { block, page, .. }) => {
                        Some(TornPage { block, page })
                    }
                    _ => None,
                }
            } else {
                None
            };
            let prefix = &journal[..cut];
            let (recovered, report) = PageMapFtl::recover(&image.ftl, prefix, torn)
                .unwrap_or_else(|e| panic!("{scheme:?}/{preset} cut {cut}: recovery failed: {e}"));
            if let Err(violation) = recovered.check_invariants() {
                panic!("{scheme:?}/{preset} cut {cut}: {violation}");
            }
            assert_eq!(report.journal_replayed, cut as u64);
            audit_recovery(&image.ftl, prefix, torn, &recovered);
            total_points += 1;
        }
    }
    assert!(
        total_points >= 200,
        "sweep only covered {total_points} crash points"
    );
}

#[test]
fn crash_restore_resume_matches_golden() {
    let trace = torture_trace();
    let config = combo_config(Scheme::FlexLevel, "baseline");
    let golden = {
        let mut sim = SsdSimulator::new(config.clone());
        sim.run(&trace).expect("golden run completes").clone()
    };

    for crash_at in [137u64, 1_500, 2_999] {
        let checkpoint_at = crash_at / 2;
        let mut sim = SsdSimulator::new(config.clone());
        sim.run_prefix(&trace, checkpoint_at)
            .expect("prefix completes");
        let base = sim.checkpoint().expect("checkpoint serializes");
        sim.set_crash_plan(Some(CrashPlan::at_request(0x5EED ^ crash_at, crash_at)));
        let err = sim.resume(&trace).expect_err("armed crash plan fires");
        assert!(
            matches!(err, SimError::PowerLoss { at_request } if at_request == crash_at),
            "unexpected error: {err}"
        );

        let crash = sim.crash_image(&base).expect("crash image serializes");
        assert_eq!(crash.crashed_at, Some(crash_at));

        // Recovery proof: the journal that survived the cut folds onto
        // the checkpoint into a consistent, audited FTL.
        let (recovered, _report) = PageMapFtl::recover(&crash.ftl, &crash.journal, crash.torn)
            .expect("post-crash recovery succeeds");
        recovered
            .check_invariants()
            .unwrap_or_else(|v| panic!("crash at {crash_at}: {v}"));
        audit_recovery(&crash.ftl, &crash.journal, crash.torn, &recovered);

        // Resume proof: re-execution from the checkpoint cursor ends
        // bit-identical to the run that never lost power.
        let mut resumed = SsdSimulator::restore(config.clone(), &crash).expect("image restores");
        let stats = resumed.resume(&trace).expect("resumed run completes");
        assert_eq!(
            stats, &golden,
            "crash at {crash_at}: resumed stats diverged from golden"
        );
    }
}

const SERIES_INTERVAL_US: u64 = 2_000;

/// Observer with series sampling, as `--series-out` builds one.
fn series_observer(scheme: Scheme) -> SimObserver {
    SimObserver::new(scheme, 100).with_series(SERIES_INTERVAL_US)
}

/// Renders a finished simulator's series as the JSONL the CLI writes.
fn series_of(sim: &mut SsdSimulator) -> String {
    let recorder = sim
        .take_observer()
        .expect("observer attached")
        .into_recorder();
    assert!(
        !recorder.series.is_empty(),
        "series sampling produced no block"
    );
    export::series_jsonl(&recorder.series)
}

/// A checkpointed-and-resumed campaign's `--series-out` JSONL is
/// byte-identical to the uninterrupted run's: the open window's
/// accumulation state rides the device image (wire v2) and the resumed
/// observer picks it up, so not a single window is lost, duplicated or
/// shifted. Also pins the image round-trip with a populated series.
#[test]
fn split_run_reproduces_series_byte_for_byte() {
    let trace = torture_trace();
    let config = combo_config(Scheme::FlexLevel, "baseline");
    let golden = {
        let mut sim =
            SsdSimulator::new(config.clone()).with_observer(series_observer(Scheme::FlexLevel));
        sim.run(&trace).expect("golden run completes");
        series_of(&mut sim)
    };

    let mut first =
        SsdSimulator::new(config.clone()).with_observer(series_observer(Scheme::FlexLevel));
    first.run_prefix(&trace, 1_700).expect("prefix completes");
    let image = first.checkpoint().expect("checkpoint serializes");
    assert!(
        image.series.is_some(),
        "checkpoint must carry the open series state"
    );
    let decoded = DeviceImage::from_bytes(&image.to_bytes()).expect("image round-trips");
    assert_eq!(
        decoded.series, image.series,
        "series state corrupted by the wire format"
    );

    let mut second = SsdSimulator::restore(config, &image).expect("image restores");
    second.attach_observer(series_observer(Scheme::FlexLevel));
    second.resume(&trace).expect("resumed run completes");
    assert_eq!(
        series_of(&mut second),
        golden,
        "checkpoint/resume changed the series JSONL"
    );
}

/// Same guarantee across an actual power loss: crash → recover from the
/// pre-crash checkpoint → resume ends with the identical series, because
/// the crash image carries the checkpoint-time series state and the
/// journaled suffix replays deterministically.
#[test]
fn crash_restore_reproduces_series_byte_for_byte() {
    let trace = torture_trace();
    let config = combo_config(Scheme::FlexLevel, "baseline");
    let golden = {
        let mut sim =
            SsdSimulator::new(config.clone()).with_observer(series_observer(Scheme::FlexLevel));
        sim.run(&trace).expect("golden run completes");
        series_of(&mut sim)
    };

    let mut sim =
        SsdSimulator::new(config.clone()).with_observer(series_observer(Scheme::FlexLevel));
    sim.run_prefix(&trace, 1_000).expect("prefix completes");
    let base = sim.checkpoint().expect("checkpoint serializes");
    sim.set_crash_plan(Some(CrashPlan::at_request(0x5EED, 2_200)));
    let err = sim.resume(&trace).expect_err("armed crash plan fires");
    assert!(matches!(err, SimError::PowerLoss { at_request: 2_200 }));

    let crash = sim.crash_image(&base).expect("crash image serializes");
    assert!(
        crash.series.is_some(),
        "crash image must carry the checkpoint-time series state"
    );
    let mut resumed = SsdSimulator::restore(config, &crash).expect("image restores");
    resumed.attach_observer(series_observer(Scheme::FlexLevel));
    resumed.resume(&trace).expect("resumed run completes");
    assert_eq!(
        series_of(&mut resumed),
        golden,
        "crash/restore changed the series JSONL"
    );
}

#[test]
fn resume_is_thread_count_invariant() {
    let trace = torture_trace();
    let golden = {
        let mut sim = SsdSimulator::new(combo_config(Scheme::FlexLevel, "baseline"));
        logical_counters(sim.run(&trace).expect("golden run completes"))
    };
    for threads in [1u32, 2, 8] {
        let config = combo_config(Scheme::FlexLevel, "baseline").with_threads(threads);
        let mut sim = SsdSimulator::new(config.clone());
        sim.run_prefix(&trace, 1_100).expect("prefix completes");
        let image = sim.checkpoint().expect("checkpoint serializes");
        let mut resumed = SsdSimulator::restore(config, &image).expect("image restores");
        let stats = resumed.resume(&trace).expect("resumed run completes");
        assert_eq!(
            logical_counters(stats),
            golden,
            "{threads}-thread resume changed logical counters"
        );
    }
}

#[test]
fn resume_is_backend_invariant() {
    let trace = torture_trace();
    let golden = {
        let mut sim = SsdSimulator::new(combo_config(Scheme::FlexLevel, "baseline"));
        logical_counters(sim.run(&trace).expect("golden run completes"))
    };

    // Full power-loss cycle on the pipelined backend: the crash fires in
    // the serving loop after the scheduler has resolved every event
    // before the crash arrival, so the crashed run carries partial
    // timing; only logical counters are compared here.
    let config =
        combo_config(Scheme::FlexLevel, "baseline").with_timing_model(TimingModel::Pipelined);
    let mut sim = SsdSimulator::new(config.clone());
    sim.run_prefix(&trace, 1_000).expect("prefix completes");
    let base = sim.checkpoint().expect("checkpoint serializes");
    sim.set_crash_plan(Some(CrashPlan::at_request(0xD1E5E1, 2_000)));
    let err = sim.resume(&trace).expect_err("armed crash plan fires");
    assert!(matches!(err, SimError::PowerLoss { at_request: 2_000 }));

    let crash = sim.crash_image(&base).expect("crash image serializes");
    let (recovered, _) = PageMapFtl::recover(&crash.ftl, &crash.journal, crash.torn)
        .expect("post-crash recovery succeeds");
    recovered
        .check_invariants()
        .expect("recovered FTL consistent");

    let mut resumed = SsdSimulator::restore(config, &crash).expect("image restores");
    let stats = resumed.resume(&trace).expect("resumed run completes");
    assert_eq!(
        logical_counters(stats),
        golden,
        "pipelined crash-resume changed logical counters"
    );
}
