//! Determinism and zero-perturbation guarantees of the observability
//! layer.
//!
//! The contract (DESIGN.md §5.4): exported artifacts are a pure function
//! of the simulated work — byte-identical no matter how many threads ran
//! the schemes; attaching an observer never changes a single simulated
//! number; and every derived metric reconciles exactly with the golden
//! `SimStats` counters it was folded from.

use obs::{export, Recorder};
use rand::{rngs::StdRng, SeedableRng};
use reliability::mc;
use ssd::{
    OverloadPolicy, ScenarioSpec, Scheme, ServeOptions, SimObserver, SimStats, SsdConfig,
    SsdSimulator, StageKind, TenantQos, TimingModel,
};
use workloads::{OpenLoopSource, TenantWorkload, Trace, WorkloadSpec};

/// Same knobs as the golden fixture, shrunk for test runtime.
fn fixture_trace() -> Trace {
    let config = SsdConfig::scaled(Scheme::Baseline, 64);
    let footprint = config.geometry.logical_pages() * 7 / 10;
    WorkloadSpec::prj1()
        .with_requests(4_000)
        .with_footprint(footprint)
        .with_interarrival_scale(2.2)
        .generate(&mut StdRng::seed_from_u64(0xF1E2))
}

fn config_for(scheme: Scheme, model: TimingModel) -> SsdConfig {
    SsdConfig::scaled(scheme, 64)
        .with_base_pe(6000)
        .with_seed(7)
        .with_timing_model(model)
}

/// Runs one observed simulation and returns its stats and recorder.
fn observed_run(scheme: Scheme, trace: &Trace, model: TimingModel) -> (SimStats, Recorder) {
    let mut sim =
        SsdSimulator::new(config_for(scheme, model)).with_observer(SimObserver::new(scheme, 100));
    sim.run(trace)
        .unwrap_or_else(|e| panic!("{} failed: {e}", scheme.label()));
    let stats = sim.stats().clone();
    let recorder = sim
        .take_observer()
        .expect("observer attached")
        .into_recorder();
    (stats, recorder)
}

/// Replays every scheme on `threads` worker threads and merges the
/// per-scheme recorders in fixed scheme order — the production pattern
/// `flexlevel-sim --all-schemes` uses.
fn merged_recorder(trace: &Trace, model: TimingModel, threads: u32) -> Recorder {
    let recorders = mc::parallel_map(Scheme::ALL.to_vec(), threads, |_, scheme| {
        observed_run(scheme, trace, model).1
    });
    let mut combined = Recorder::new();
    for recorder in &recorders {
        combined.merge(recorder);
    }
    combined
}

/// Every exported artifact — Prometheus text, span JSONL, Chrome trace —
/// is byte-identical whether the schemes ran on 1, 2 or 8 threads.
#[test]
fn exports_are_byte_identical_across_thread_counts() {
    let trace = fixture_trace();
    for model in [TimingModel::SingleQueue, TimingModel::Pipelined] {
        let base = merged_recorder(&trace, model, 1);
        let prom = export::prometheus(&base.metrics);
        let jsonl = export::span_jsonl(&base.spans);
        let chrome = export::chrome_trace(&base.spans);
        for threads in [2u32, 8] {
            let other = merged_recorder(&trace, model, threads);
            assert_eq!(
                prom,
                export::prometheus(&other.metrics),
                "{}: .prom drifted at {threads} threads",
                model.label()
            );
            assert_eq!(
                jsonl,
                export::span_jsonl(&other.spans),
                "{}: span JSONL drifted at {threads} threads",
                model.label()
            );
            assert_eq!(
                chrome,
                export::chrome_trace(&other.spans),
                "{}: Chrome trace drifted at {threads} threads",
                model.label()
            );
        }
    }
}

/// Attaching an observer must not perturb the simulation: the full
/// `SimStats` — every counter, latency sample and stage account — is
/// identical with and without one, under both timing models.
#[test]
fn observer_does_not_perturb_simulation() {
    let trace = fixture_trace();
    for model in [TimingModel::SingleQueue, TimingModel::Pipelined] {
        for scheme in Scheme::ALL {
            let mut bare = SsdSimulator::new(config_for(scheme, model));
            let untraced = bare
                .run(&trace)
                .unwrap_or_else(|e| panic!("{} failed: {e}", scheme.label()))
                .clone();
            let (traced, _) = observed_run(scheme, &trace, model);
            assert_eq!(
                untraced,
                traced,
                "{} / {}: observer perturbed the simulation",
                scheme.label(),
                model.label()
            );
        }
    }
}

/// The registry's logical counters are a timing-model invariant: both
/// backends replay the same logical simulation, so the folded counter
/// series match name-for-name, value-for-value.
#[test]
fn registry_counters_match_across_timing_models() {
    let trace = fixture_trace();
    for scheme in Scheme::ALL {
        let (_, single) = observed_run(scheme, &trace, TimingModel::SingleQueue);
        let (_, piped) = observed_run(scheme, &trace, TimingModel::Pipelined);
        let labels: &[(&str, &str)] = &[("scheme", scheme.label())];
        for name in [
            "flexlevel_host_reads_total",
            "flexlevel_host_writes_total",
            "flexlevel_buffer_read_hits_total",
            "flexlevel_flash_reads_total",
            "flexlevel_flash_programs_total",
            "flexlevel_erases_total",
            "flexlevel_gc_runs_total",
            "flexlevel_gc_migrated_pages_total",
            "flexlevel_promotions_total",
            "flexlevel_demotions_total",
            "flexlevel_reduced_reads_total",
        ] {
            let a = single.metrics.find_counter(name, labels);
            let b = piped.metrics.find_counter(name, labels);
            assert!(
                a.is_some(),
                "{}: {name} missing from registry",
                scheme.label()
            );
            assert_eq!(
                a,
                b,
                "{}: {name} differs across timing models",
                scheme.label()
            );
        }
    }
}

const SERIES_INTERVAL_US: u64 = 2_000;

/// Like [`observed_run`] but with windowed series sampling attached.
fn observed_series_run(scheme: Scheme, trace: &Trace, model: TimingModel) -> (SimStats, Recorder) {
    let observer = SimObserver::new(scheme, 100).with_series(SERIES_INTERVAL_US);
    let mut sim = SsdSimulator::new(config_for(scheme, model)).with_observer(observer);
    sim.run(trace)
        .unwrap_or_else(|e| panic!("{} failed: {e}", scheme.label()));
    let stats = sim.stats().clone();
    let recorder = sim
        .take_observer()
        .expect("observer attached")
        .into_recorder();
    (stats, recorder)
}

/// Series-enabled variant of [`merged_recorder`].
fn merged_series_recorder(trace: &Trace, model: TimingModel, threads: u32) -> Recorder {
    let recorders = mc::parallel_map(Scheme::ALL.to_vec(), threads, |_, scheme| {
        observed_series_run(scheme, trace, model).1
    });
    let mut combined = Recorder::new();
    for recorder in &recorders {
        combined.merge(recorder);
    }
    combined
}

/// The series JSONL is bit-identical across 1/2/8 worker threads *and*
/// across both timing backends: the sampler is keyed to trace arrival
/// times and samples only logical values, so neither the thread schedule
/// nor the timing model can leak into a single byte.
#[test]
fn series_jsonl_is_byte_identical_across_threads_and_backends() {
    let trace = fixture_trace();
    let single = merged_series_recorder(&trace, TimingModel::SingleQueue, 1);
    let golden = export::series_jsonl(&single.series);
    assert!(!golden.is_empty(), "series export produced no lines");
    for model in [TimingModel::SingleQueue, TimingModel::Pipelined] {
        for threads in [1u32, 2, 8] {
            if model == TimingModel::SingleQueue && threads == 1 {
                continue;
            }
            let other = merged_series_recorder(&trace, model, threads);
            assert_eq!(
                golden,
                export::series_jsonl(&other.series),
                "series JSONL drifted at {} / {threads} threads",
                model.label()
            );
        }
    }
}

/// Window bookkeeping is exact: windows are consecutive from 0 with
/// nominal end times, deltas telescope onto cumulative values, the last
/// (partial) window is flushed exactly once, and the final cumulative
/// row equals the end-of-run `SimStats` counters.
#[test]
fn series_windows_are_exact_and_final_flush_is_single() {
    let trace = fixture_trace();
    let last_arrival = trace.requests.last().expect("non-empty trace").arrival_us;
    let (stats, recorder) = observed_series_run(Scheme::FlexLevel, &trace, TimingModel::Pipelined);
    assert_eq!(recorder.series.len(), 1, "one block per run");
    let block = &recorder.series[0];
    assert_eq!(block.scheme, Scheme::FlexLevel.label());

    // Every boundary the trace crossed is emitted, plus exactly one
    // flush of the open partial window at end-of-run.
    let crossed = (last_arrival / SERIES_INTERVAL_US as f64).floor() as u64;
    assert_eq!(
        block.snapshots.len() as u64,
        crossed + 1,
        "expected {crossed} full windows + exactly one flushed partial window"
    );

    let mut prev: Option<&Vec<u64>> = None;
    for (k, snap) in block.snapshots.iter().enumerate() {
        assert_eq!(snap.window, k as u64, "windows must be consecutive");
        assert_eq!(
            snap.t_us,
            ((k as u64 + 1) * SERIES_INTERVAL_US) as f64,
            "window {k}: t_us must be the nominal window end"
        );
        assert_eq!(snap.cumulative.len(), block.counters.len());
        assert_eq!(snap.delta.len(), block.counters.len());
        assert_eq!(snap.gauges.len(), block.gauges.len());
        for (c, name) in block.counters.iter().enumerate() {
            let before = prev.map_or(0, |p| p[c]);
            assert!(
                snap.cumulative[c] >= before,
                "window {k}: {name} cumulative decreased"
            );
            assert_eq!(
                snap.delta[c],
                snap.cumulative[c] - before,
                "window {k}: {name} delta does not telescope"
            );
        }
        prev = Some(&snap.cumulative);
    }

    // The flushed row is the end-of-run state: its cumulative counters
    // match the golden SimStats exactly.
    let last = block.snapshots.last().expect("at least the flushed window");
    let col = |name: &str| {
        let i = block
            .counters
            .iter()
            .position(|n| n == name)
            .unwrap_or_else(|| panic!("{name} missing from series schema"));
        last.cumulative[i]
    };
    assert_eq!(col("host_reads"), stats.host_reads);
    assert_eq!(col("host_writes"), stats.host_writes);
    assert_eq!(col("flash_reads"), stats.flash_reads);
    assert_eq!(col("flash_programs"), stats.flash_programs);
    assert_eq!(col("erases"), stats.erases);
    assert_eq!(col("gc_runs"), stats.gc_runs);
    assert_eq!(col("retry_reads"), stats.retry_reads);
}

/// Histogram-derived stage metrics reconcile exactly with the golden
/// `StageAccount`s: for every stage, the busy/wait histogram populations
/// and the `flexlevel_stage_ops_total` counter all equal `ops`.
#[test]
fn stage_histograms_reconcile_with_stage_accounts() {
    let trace = fixture_trace();
    let (stats, recorder) = observed_run(Scheme::FlexLevel, &trace, TimingModel::Pipelined);
    let scheme = Scheme::FlexLevel.label();
    let mut total_ops = 0;
    for kind in StageKind::ALL {
        let ops = stats.stage(kind).ops;
        total_ops += ops;
        let labels: &[(&str, &str)] = &[("scheme", scheme), ("stage", kind.label())];
        let busy = recorder
            .metrics
            .find_histogram("flexlevel_stage_busy_us", labels)
            .unwrap_or_else(|| panic!("{} busy histogram missing", kind.label()));
        let wait = recorder
            .metrics
            .find_histogram("flexlevel_stage_wait_us", labels)
            .unwrap_or_else(|| panic!("{} wait histogram missing", kind.label()));
        assert_eq!(
            busy.count(),
            ops,
            "{}: busy histogram count != StageAccount ops",
            kind.label()
        );
        assert_eq!(
            wait.count(),
            ops,
            "{}: wait histogram count != StageAccount ops",
            kind.label()
        );
        assert_eq!(
            recorder
                .metrics
                .find_counter("flexlevel_stage_ops_total", labels),
            Some(ops),
            "{}: stage ops counter != StageAccount ops",
            kind.label()
        );
        let busy_total: f64 = stats.stage(kind).busy_us;
        assert!(
            (busy.sum() - busy_total).abs() <= busy_total.abs() * 1e-9,
            "{}: busy histogram sum {} != StageAccount busy_us {}",
            kind.label(),
            busy.sum(),
            busy_total
        );
    }
    assert!(total_ops > 0, "pipelined run recorded no stage executions");
}

/// Both timing backends record a finished request through one path: the
/// response histograms hold exactly the responses `SimStats` and each
/// tenant's stats counted, with the same maxima, on a replay and on a
/// two-tenant serve whose deferrals delay submission.
#[test]
fn response_histograms_match_stats_on_both_backends() {
    let scheme = Scheme::FlexLevel;
    let trace = fixture_trace();
    for model in [TimingModel::SingleQueue, TimingModel::Pipelined] {
        let (stats, recorder) = observed_run(scheme, &trace, model);
        assert!(stats.tenants.is_empty());
        assert_responses_match(&stats, &recorder, model);

        let mut sim = SsdSimulator::new(config_for(scheme, model))
            .with_observer(SimObserver::new(scheme, 100));
        let tenants = vec![
            TenantWorkload::new(0, 1_024, 2_000.0).with_requests(1_500),
            TenantWorkload::new(1_024, 1_024, 6_000.0).with_requests(1_500),
        ];
        let qos = TenantQos::default()
            .with_queue_depth(4)
            .with_policy(OverloadPolicy::Defer);
        let stats = sim
            .serve(
                &mut OpenLoopSource::new(tenants, 5),
                &ServeOptions::uniform(2, qos),
            )
            .expect("serving run succeeds")
            .clone();
        let recorder = sim
            .take_observer()
            .expect("observer attached")
            .into_recorder();
        assert_eq!(stats.tenants.len(), 2);
        assert!(stats.tenants.iter().any(|t| t.deferred > 0), "no deferral");
        assert_responses_match(&stats, &recorder, model);
    }
}

fn assert_responses_match(stats: &SimStats, recorder: &Recorder, model: TimingModel) {
    let scheme = Scheme::FlexLevel.label();
    let all = recorder
        .metrics
        .find_histogram("flexlevel_response_us", &[("scheme", scheme)])
        .expect("response histogram");
    assert!(stats.responses_seen > 0);
    assert_eq!(all.count(), stats.responses_seen, "{}", model.label());
    assert_eq!(all.max(), stats.max_response_us, "{}", model.label());
    for (tenant, t) in stats.tenants.iter().enumerate() {
        let id = tenant.to_string();
        let h = recorder
            .metrics
            .find_histogram(
                "flexlevel_tenant_response_us",
                &[("scheme", scheme), ("tenant", &id)],
            )
            .expect("tenant response histogram");
        assert!(t.served > 0);
        assert_eq!(h.count(), t.served, "{} tenant {tenant}", model.label());
        assert_eq!(
            h.max(),
            t.max_response_us,
            "{} tenant {tenant}",
            model.label()
        );
    }
}

/// Under the single-queue model a read span's stages, read off the
/// request's foreground op chain, account for its whole flash service
/// time: `(start − arrival) + Σ stages == response`, each stage starting
/// where the previous one ended. The hostile preset with a raised
/// die-fault rate puts buffer hits, sensed and reduced reads, retry
/// rungs and die resets into the spans of all four schemes.
///
/// The facts the observer reads off the chains also reconcile with the
/// `SimStats` counters the logical layer keeps: one span per host read,
/// span retry rungs against retry reads, one sensing-depth observation
/// per flash-served host read, the retry-depth histogram bin for bin,
/// and one instant event per die reset, ladder climb and scrub visit.
#[test]
fn single_queue_spans_conserve_response_time_under_hostile() {
    let trace = fixture_trace();
    let spec = ScenarioSpec::find("hostile").expect("preset registered");
    let mut labels = std::collections::BTreeSet::new();
    let mut reduced_reads = 0;
    for scheme in Scheme::ALL {
        let mut config = spec.apply(config_for(scheme, TimingModel::SingleQueue));
        config.faults = config.faults.with_die_fault_prob(2e-3);
        let mut sim = SsdSimulator::new(config).with_observer(SimObserver::new(scheme, 0));
        let stats = sim
            .run(&trace)
            .unwrap_or_else(|e| panic!("{} failed: {e}", scheme.label()))
            .clone();
        reduced_reads += stats.reduced_reads;
        let recorder = sim.take_observer().expect("observer").into_recorder();
        assert!(
            !recorder.spans.spans().is_empty(),
            "{}: no spans",
            scheme.label()
        );
        assert_read_facts_reconcile(scheme, &stats, &recorder);
        for span in recorder.spans.spans() {
            let mut service = 0.0;
            for stage in &span.stages {
                assert_eq!(stage.offset_us, service, "span {}", span.seq);
                service += stage.duration_us;
                labels.insert(stage.stage);
            }
            let total = (span.start_us - span.arrival_us) + service;
            assert!(
                (total - span.response_us).abs() <= 1e-9 * span.response_us,
                "{} span {}: {total} != {}",
                scheme.label(),
                span.seq,
                span.response_us
            );
        }
    }
    let expected = ["decode", "die_reset", "retry", "sense", "transfer"];
    assert_eq!(labels.into_iter().collect::<Vec<_>>(), expected);
    assert!(reduced_reads > 0, "no reduced reads");
}

/// The observer's read facts of one unsampled run equal the `SimStats`
/// counters of the same facts.
fn assert_read_facts_reconcile(scheme: Scheme, stats: &SimStats, recorder: &Recorder) {
    let label = scheme.label();
    let spans = recorder.spans.spans();
    assert_eq!(spans.len() as u64, stats.host_reads, "{label}: spans");
    let rungs: u64 = spans.iter().map(|s| u64::from(s.retry_rungs)).sum();
    assert_eq!(rungs, stats.retry_reads, "{label}: retry rungs");
    let histogram = |name: &str| {
        recorder
            .metrics
            .find_histogram(name, &[("scheme", label)])
            .unwrap_or_else(|| panic!("{label}: {name} missing"))
    };
    let sensed: u64 = stats.reads_by_sensing_level.iter().sum();
    assert_eq!(
        histogram("flexlevel_sensing_levels").count(),
        sensed + stats.reduced_reads,
        "{label}: sensing observations"
    );
    let depths = &stats.retry_depth_histogram;
    let depth_sum: u64 = depths.iter().enumerate().map(|(d, &n)| d as u64 * n).sum();
    let retry_depth = histogram("flexlevel_retry_depth");
    assert_eq!(
        (retry_depth.count(), retry_depth.sum()),
        (depths.iter().sum::<u64>(), depth_sum as f64),
        "{label}: retry depths"
    );
    let (mut die_resets, mut climbs, mut scrubs) = (0, 0, 0);
    for event in recorder.spans.events() {
        match event.kind {
            obs::EventKind::DieReset => die_resets += 1,
            obs::EventKind::Retry { .. } => climbs += 1,
            obs::EventKind::Scrub { .. } => scrubs += 1,
        }
    }
    assert_eq!(
        recorder.spans.events().len() as u64,
        recorder.spans.events_offered(),
        "{label}: events sampled away"
    );
    assert_eq!(die_resets, stats.die_resets, "{label}: die-reset events");
    assert_eq!(
        climbs,
        depths[1..].iter().sum::<u64>(),
        "{label}: retry events"
    );
    assert_eq!(scrubs, stats.scrub_runs, "{label}: scrub events");
    assert!(
        die_resets > 0 && climbs > 0 && scrubs > 0,
        "{label}: no events"
    );
}

/// FNV-1a 64 of one export's bytes.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Digests of the four text exports of one recorder: Prometheus, full
/// Chrome trace, span JSONL and series JSONL.
fn export_digests(recorder: &Recorder) -> [u64; 4] {
    [
        fnv1a(&export::prometheus(&recorder.metrics)),
        fnv1a(&export::chrome_trace_full(
            &recorder.spans,
            &recorder.series,
        )),
        fnv1a(&export::span_jsonl(&recorder.spans)),
        fnv1a(&export::series_jsonl(&recorder.series)),
    ]
}

/// The determinism tests compare exports with each other; this pins
/// their bytes (FNV-1a), so a change to what the observer records — or
/// to the order it offers spans and instant events to the sampling
/// reservoirs — fails here. Cases: a hostile FlexLevel replay under each
/// timing backend, and a hostile two-tenant pipelined serve with SLO
/// targets and deferrals. The single-queue replay keeps every span and
/// event, so the order events are offered within one request shows in
/// their sequence numbers; the others sample down to 50, so offer order
/// decides which survive.
#[test]
fn exports_are_pinned_by_digest() {
    let scheme = Scheme::FlexLevel;
    let trace = fixture_trace();
    let spec = ScenarioSpec::find("hostile").expect("preset registered");
    let observer = |sample| SimObserver::new(scheme, sample).with_series(SERIES_INTERVAL_US);
    let mut digests = Vec::new();
    for (model, sample) in [(TimingModel::SingleQueue, 0), (TimingModel::Pipelined, 50)] {
        let mut config = spec.apply(config_for(scheme, model));
        config.faults = config.faults.with_die_fault_prob(2e-3);
        let mut sim = SsdSimulator::new(config).with_observer(observer(sample));
        sim.run(&trace)
            .unwrap_or_else(|e| panic!("{} failed: {e}", model.label()));
        let recorder = sim.take_observer().expect("observer").into_recorder();
        assert!(recorder.spans.events_offered() > 50, "{}", model.label());
        digests.push(export_digests(&recorder));
    }
    let config = spec.apply(config_for(scheme, TimingModel::Pipelined));
    let mut sim = SsdSimulator::new(config).with_observer(observer(50));
    let tenants = vec![
        TenantWorkload::new(0, 1_024, 2_000.0).with_requests(1_500),
        TenantWorkload::new(1_024, 1_024, 6_000.0).with_requests(1_500),
    ];
    let qos = TenantQos::default()
        .with_queue_depth(4)
        .with_policy(OverloadPolicy::Defer)
        .with_slo_us(2_000.0);
    sim.serve(
        &mut OpenLoopSource::new(tenants, 5),
        &ServeOptions::uniform(2, qos),
    )
    .expect("serving run succeeds");
    assert!(sim.stats().tenants.iter().all(|t| t.deferred > 0));
    let recorder = sim.take_observer().expect("observer").into_recorder();
    assert!(recorder.spans.events_offered() > 50, "serve");
    digests.push(export_digests(&recorder));
    // Prometheus, Chrome trace, span JSONL, series JSONL per case. The
    // replays share a series: it samples logical counters only.
    assert_eq!(
        digests,
        [
            [
                0x3e81_0553_eb65_3eed,
                0x7e95_5aaf_e121_7312,
                0xa926_389f_88e1_07a7,
                0x217d_0641_435c_21a6,
            ],
            [
                0x05be_f08d_2f20_e07d,
                0x4465_6fca_0eeb_57b3,
                0xf29d_55ac_bfc5_1b9e,
                0x217d_0641_435c_21a6,
            ],
            [
                0xf6d1_ae5f_774e_47c4,
                0x541e_681f_803b_9035,
                0x00f1_4690_453e_b592,
                0x4784_c988_fec1_09d2,
            ],
        ],
        "export bytes moved"
    );
}
