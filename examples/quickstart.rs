//! Quickstart: the FlexLevel pipeline end to end in under a minute.
//!
//! 1. Estimate the raw BER of a worn baseline MLC cell and of a
//!    NUNMA-3 reduced-state cell.
//! 2. Ask the sensing schedule what each costs to read under LDPC.
//! 3. Replay an OLTP-like trace through the full FlexLevel SSD and
//!    compare its response time against LDPC-in-SSD.
//!
//! Run: `cargo run --release -p bench --example quickstart`

use flash_model::{Hours, LevelConfig};
use flexlevel::NunmaScheme;
use ldpc::{ReadLatencyModel, SensingSchedule};
use rand::{rngs::StdRng, SeedableRng};
use reliability::{analytic, InterferenceModel, ProgramModel, RetentionModel};
use ssd::{Scheme, SsdConfig, SsdSimulator};
use workloads::WorkloadSpec;

fn main() {
    // --- 1. Device-level BER at 6000 P/E after a month of retention ----
    let program = ProgramModel::default();
    let c2c = InterferenceModel::default();
    let retention = RetentionModel::paper();
    let stress = Some((&retention, 6000u32, Hours::months(1.0)));

    let baseline = analytic::estimate(
        &LevelConfig::normal_mlc(),
        &program,
        Some(&c2c),
        stress,
        2.0,
    );
    let reduced = analytic::estimate(
        &NunmaScheme::Nunma3.config().level_config(),
        &program,
        Some(&c2c),
        stress,
        1.5,
    );
    println!("raw BER at 6000 P/E, 1 month retention:");
    println!("  baseline MLC cell : {:.3e}", baseline.ber);
    println!("  NUNMA-3 reduced   : {:.3e}", reduced.ber);

    // --- 2. What does LDPC sensing cost at those BERs? ------------------
    let schedule = SensingSchedule::paper_anchor();
    let latency = ReadLatencyModel::paper_mlc();
    let base_levels = schedule.required_levels(baseline.ber);
    let reduced_levels = schedule.required_levels(reduced.ber);
    println!("\nextra soft sensing levels required:");
    println!(
        "  baseline: {} levels -> read ≈ {}",
        base_levels,
        latency.read_latency_at_ber(base_levels, baseline.ber)
    );
    println!(
        "  reduced : {} levels -> read ≈ {}",
        reduced_levels,
        // ReduceCode's one-cycle decode on top of a hard read.
        latency.read_latency(0, 1) + latency.timing.reduce_code_cycle
    );

    // --- 3. System-level: FlexLevel vs LDPC-in-SSD on an OLTP trace -----
    let trace = WorkloadSpec::fin2()
        .with_requests(20_000)
        .with_footprint(4_000)
        .generate(&mut StdRng::seed_from_u64(7));

    println!("\nreplaying {} requests of {}:", trace.len(), trace.name);
    let mut results = Vec::new();
    for scheme in [Scheme::LdpcInSsd, Scheme::FlexLevel] {
        let mut sim = SsdSimulator::new(SsdConfig::scaled(scheme, 128));
        let stats = sim.run(&trace).expect("trace fits the scaled device");
        println!(
            "  {:<22} mean response {} ({} promotions, {} reduced reads)",
            scheme.label(),
            stats.mean_response(),
            stats.promotions,
            stats.reduced_reads
        );
        results.push(stats.mean_response().as_f64());
    }
    println!(
        "\nFlexLevel speedup over LDPC-in-SSD: {:.1}%",
        (1.0 - results[1] / results[0]) * 100.0
    );
}
