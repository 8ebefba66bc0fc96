//! Cross-model integration tests for the two timing models.
//!
//! The pipelined discrete-event model must be a pure *timing* refinement
//! of the single-queue model: the logical layer (buffer, FTL, GC,
//! AccessEval, RNG draws) is shared, so every integer counter matches
//! bit-for-bit on any trace. On top of that the pipelined model must be
//! deterministic run-to-run, and extra parallel resources (dies,
//! decoder slots) must buy real throughput on a read-heavy trace.
//!
//! The pipelined schedule itself is pinned too: three configurations'
//! complete timing record (response moments, every stage account, the
//! makespan, per-tenant responses and a digest of the whole
//! [`SimStats`]) must reproduce bit for bit. Re-bless with
//! `cargo test -p bench --test timing_models -- --nocapture` (see
//! TESTING.md).

use rand::{rngs::StdRng, SeedableRng};
use ssd::{
    OverloadPolicy, ScenarioSpec, Scheme, ServeOptions, SimStats, SsdConfig, SsdSimulator,
    StageKind, TenantQos, TimingModel,
};
use workloads::{OpenLoopSource, TenantWorkload, Trace, WorkloadSpec};

/// The golden fixture trace (same knobs as `golden_sim.rs`).
fn golden_trace() -> Trace {
    let config = SsdConfig::scaled(Scheme::Baseline, 64);
    let footprint = config.geometry.logical_pages() * 7 / 10;
    WorkloadSpec::prj1()
        .with_requests(6_000)
        .with_footprint(footprint)
        .with_interarrival_scale(2.2)
        .generate(&mut StdRng::seed_from_u64(0xF1E2))
}

/// A read-heavy trace (web1 is 99% reads) with tight inter-arrivals so
/// the device saturates and parallelism is the bottleneck resource.
fn read_heavy_trace() -> Trace {
    let config = SsdConfig::scaled(Scheme::Baseline, 64);
    let footprint = config.geometry.logical_pages() / 2;
    WorkloadSpec::web1()
        .with_requests(8_000)
        .with_footprint(footprint)
        .with_interarrival_scale(0.05)
        .generate(&mut StdRng::seed_from_u64(0xB00C))
}

fn run_with(scheme: Scheme, trace: &Trace, model: TimingModel, dies: u32, slots: u32) -> SimStats {
    let config = SsdConfig::scaled(scheme, 64)
        .with_base_pe(6000)
        .with_seed(7)
        .with_timing_model(model)
        .with_dies_per_channel(dies)
        .with_decoder_slots(slots);
    let mut sim = SsdSimulator::new(config);
    sim.run(trace)
        .unwrap_or_else(|e| panic!("{} failed: {e}", scheme.label()))
        .clone()
}

fn counters(stats: &SimStats) -> [u64; 11] {
    [
        stats.host_reads,
        stats.host_writes,
        stats.buffer_read_hits,
        stats.flash_reads,
        stats.flash_programs,
        stats.erases,
        stats.gc_runs,
        stats.gc_migrated_pages,
        stats.promotions,
        stats.demotions,
        stats.reduced_reads,
    ]
}

/// Both timing models replay the same logical simulation: every integer
/// counter matches exactly for every scheme, even with parallel
/// resources configured, because decisions never depend on timing.
#[test]
fn pipelined_counters_match_single_queue_for_all_schemes() {
    let trace = golden_trace();
    for scheme in Scheme::ALL {
        let single = run_with(scheme, &trace, TimingModel::SingleQueue, 1, 1);
        let piped = run_with(scheme, &trace, TimingModel::Pipelined, 1, 1);
        assert_eq!(
            counters(&single),
            counters(&piped),
            "{}: pipelined counters drifted from single-queue",
            scheme.label()
        );
        let wide = run_with(scheme, &trace, TimingModel::Pipelined, 4, 4);
        assert_eq!(
            counters(&single),
            counters(&wide),
            "{}: counters must not depend on die/decoder parallelism",
            scheme.label()
        );
    }
}

/// The pipelined model is bit-identical run-to-run: full stats equality
/// including every latency sample, stage account and the makespan.
#[test]
fn pipelined_replay_is_bit_identical() {
    let trace = golden_trace();
    let a = run_with(Scheme::FlexLevel, &trace, TimingModel::Pipelined, 4, 2);
    let b = run_with(Scheme::FlexLevel, &trace, TimingModel::Pipelined, 4, 2);
    assert_eq!(a, b, "pipelined replay must be deterministic");
}

/// On a saturating read-heavy trace, extra dies and decoder slots raise
/// throughput: the whole point of splitting sense / transfer / decode is
/// that sensing on one die overlaps transfer and decode of another.
#[test]
fn multi_die_pipelined_beats_single_queue_throughput() {
    let trace = read_heavy_trace();
    let single = run_with(Scheme::FlexLevel, &trace, TimingModel::SingleQueue, 1, 1);
    let piped = run_with(Scheme::FlexLevel, &trace, TimingModel::Pipelined, 4, 2);
    assert!(
        piped.throughput_rps() > single.throughput_rps(),
        "pipelined 4-die throughput {:.0} req/s must beat single-queue {:.0} req/s",
        piped.throughput_rps(),
        single.throughput_rps()
    );
}

/// Pipelined runs populate per-stage accounting and ordered latency
/// percentiles; the single-queue model leaves stage accounts empty but
/// still reports a makespan.
#[test]
fn stage_accounting_and_percentiles_are_reported() {
    let trace = read_heavy_trace();
    let piped = run_with(Scheme::FlexLevel, &trace, TimingModel::Pipelined, 4, 2);

    assert_eq!(piped.stage(StageKind::Sense).ops, piped.flash_reads);
    assert!(piped.stage(StageKind::Transfer).ops > 0);
    assert!(piped.stage(StageKind::Decode).busy_us > 0.0);
    assert!(piped.makespan_us > 0.0);
    for kind in StageKind::ALL {
        let util = piped.stage_utilization(kind, 4);
        assert!(
            (0.0..=1.0).contains(&util),
            "{} utilization {util} out of range",
            kind.label()
        );
        assert!(piped.mean_queue_depth(kind) >= 0.0);
    }

    let p50 = piped.response_percentile(0.50);
    let p95 = piped.response_percentile(0.95);
    let p99 = piped.response_percentile(0.99);
    assert!(p50.as_f64() <= p95.as_f64() && p95.as_f64() <= p99.as_f64());

    let single = run_with(Scheme::FlexLevel, &trace, TimingModel::SingleQueue, 1, 1);
    assert_eq!(single.stage(StageKind::Sense).ops, 0);
    assert!(single.makespan_us > 0.0);
}

/// Every timing output of one run as a labelled record. Floats print in
/// Rust's shortest round-trip form, so string equality is bit equality;
/// the trailing FNV-1a digest of the `Debug` rendering covers the rest of
/// [`SimStats`] (reservoir samples included).
fn timing_record(s: &SimStats) -> String {
    let mut out = format!(
        "responses={} mean={:?} read_mean={:?} p99={:?} p999={:?} max={:?} makespan={:?}",
        s.responses_seen,
        s.mean_response().as_f64(),
        s.mean_read_response().as_f64(),
        s.response_percentile(0.99).as_f64(),
        s.response_percentile(0.999).as_f64(),
        s.max_response_us,
        s.makespan_us,
    );
    for kind in StageKind::ALL {
        let a = s.stage(kind);
        out += &format!(
            "\n{} ops={} busy={:?} wait={:?}",
            kind.label(),
            a.ops,
            a.busy_us,
            a.wait_us
        );
    }
    for (i, t) in s.tenants.iter().enumerate() {
        out += &format!(
            "\nt{i} served={} deferred={} mean={:?} p99={:?} p999={:?} max={:?} slo={}",
            t.served,
            t.deferred,
            t.mean_response().as_f64(),
            t.p99().as_f64(),
            t.p999().as_f64(),
            t.max_response_us,
            t.slo_violations,
        );
    }
    let digest = format!("{s:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        });
    out + &format!("\ndigest={digest:016x}")
}

/// The pinned pipelined device: FlexLevel, 4 dies per channel, 2 decoder
/// slots.
fn pinned_config() -> SsdConfig {
    SsdConfig::scaled(Scheme::FlexLevel, 64)
        .with_base_pe(6000)
        .with_seed(7)
        .with_timing_model(TimingModel::Pipelined)
        .with_dies_per_channel(4)
        .with_decoder_slots(2)
}

/// A web-1 read burst that queues without saturating the device.
fn pinned_web1_trace() -> Trace {
    let footprint = pinned_config().geometry.logical_pages() * 7 / 10;
    WorkloadSpec::web1()
        .with_requests(6_000)
        .with_footprint(footprint)
        .with_interarrival_scale(0.3)
        .generate(&mut StdRng::seed_from_u64(0x9E1B))
}

/// The three pinned runs plus a `run_prefix` + `resume` split of the
/// first, as (name, record) pairs.
fn pinned_runs() -> Vec<(&'static str, String)> {
    let trace = pinned_web1_trace();
    let replay = {
        let mut sim = SsdSimulator::new(pinned_config());
        timing_record(sim.run(&trace).expect("web-1 replay completes"))
    };
    let split = {
        let mut sim = SsdSimulator::new(pinned_config());
        sim.run_prefix(&trace, 2_500).expect("prefix completes");
        timing_record(sim.resume(&trace).expect("resume completes"))
    };
    // Bursts overflow a queue depth of 2 under the defer policy, so
    // deferred submissions land behind later arrivals of tenant 0.
    let deferred = {
        let mut sim = SsdSimulator::new(pinned_config());
        let mut source = OpenLoopSource::new(
            vec![
                TenantWorkload::new(0, 1_024, 150.0).with_requests(1_500),
                TenantWorkload::new(1_024, 1_024, 450.0).with_requests(1_500),
            ],
            0xF1E2,
        );
        let qos = TenantQos {
            queue_depth: 2,
            policy: OverloadPolicy::Defer,
            slo_us: 2_000.0,
        };
        let stats = sim
            .serve(&mut source, &ServeOptions::uniform(2, qos))
            .expect("deferred serve completes");
        assert!(stats.tenants[1].deferred > 0, "the defer path must run");
        timing_record(stats)
    };
    // The hostile preset with a raised die-fault rate: die resets and
    // patrol-scrub chains both reach the scheduler.
    let hostile = {
        let spec = ScenarioSpec::find("hostile").expect("preset registered");
        let mut config = spec.apply(pinned_config());
        config.faults = config.faults.with_die_fault_prob(2e-3);
        let mut sim = SsdSimulator::new(config);
        let stats = sim.run(&trace).expect("hostile replay completes");
        assert!(stats.die_resets > 0 && stats.scrub_runs > 0);
        timing_record(stats)
    };
    vec![
        ("web1-replay", replay),
        ("web1-split", split),
        ("two-tenant-defer", deferred),
        ("hostile", hostile),
    ]
}

/// Pinned timing records, in `pinned_runs` order.
const PINNED: [(&str, &str); 4] = [
    ("web1-replay", "responses=6000 mean=1803.6509046106207 read_mean=1821.7142900792649 p99=9986.220280281268 p999=18655.685647536302 max=44684.23180609883 makespan=2733710.612686322\nsense ops=11081 busy=3798180.0 wait=1666751.7027764053\ntransfer ops=12570 busy=1747640.0 wait=2866738.734330655\ndecode ops=10904 busy=975865.9350000116 wait=233.5265573207289\nprogram ops=289 busy=289000.0 wait=47360.0143602484\nerase ops=0 busy=0.0 wait=0.0\ndigest=c148b81caefb61be"),
    ("web1-split", "responses=6000 mean=1801.6100187908423 read_mean=1819.6461740653026 p99=9902.854206720134 p999=18655.685647536302 max=44684.23180609883 makespan=2733710.612686322\nsense ops=11081 busy=3798180.0 wait=1663251.0506959048\ntransfer ops=12570 busy=1747640.0 wait=2857460.745610009\ndecode ops=10904 busy=975865.9350000116 wait=233.5265573207289\nprogram ops=289 busy=289000.0 wait=47360.0143602484\nerase ops=0 busy=0.0 wait=0.0\ndigest=dbd46f29ec459c79"),
    ("two-tenant-defer", "responses=3000 mean=3347.8349095389935 read_mean=3561.1922562417817 p99=25398.809381438885 p999=34036.05955899961 max=37169.66164884984 makespan=9415335.995686065\nsense ops=4465 busy=1682640.0 wait=192856.21416286225\ntransfer ops=7289 busy=860800.0 wait=99895.00201615285\ndecode ops=4394 busy=440105.3400000022 wait=0.0\nprogram ops=1201 busy=1201000.0 wait=47363.70847879641\nerase ops=0 busy=0.0 wait=0.0\nt0 served=1500 deferred=186 mean=1850.337066904944 p99=15842.38315082388 p999=25398.809381438885 max=33977.39488411031 slo=377\nt1 served=1500 deferred=821 mean=4845.332752173079 p99=27172.948129409226 p999=34532.7031040868 max=37169.66164884984 slo=804\ndigest=6320e63d0536ab35"),
    ("hostile", "responses=6000 mean=2116.3434606967135 read_mean=2142.494719819031 p99=10319.259999999776 p999=16784.708613215524 max=19889.329164223192 makespan=2790238.802287381\nsense ops=14783 busy=6668180.0 wait=1146355.7136026267\ntransfer ops=16968 busy=3040000.0 wait=707399.8778537544\ndecode ops=13872 busy=1436855.3749998552 wait=56997.14767174935\nprogram ops=998 busy=998000.0 wait=53561.42423857143\nerase ops=0 busy=0.0 wait=0.0\ndigest=86213d4734b322cf"),
];

#[test]
fn pipelined_timing_is_pinned() {
    let runs = pinned_runs();
    for (name, record) in &runs {
        println!("(\"{name}\", {record:?}),");
    }
    for ((name, record), (pinned_name, pinned)) in runs.iter().zip(PINNED) {
        assert_eq!(*name, pinned_name);
        assert_eq!(record, pinned, "{name}: pipelined timing drifted");
    }
}
