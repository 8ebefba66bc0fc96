//! The metric catalog: every metric the benchmark reports, with its unit,
//! direction and (end-to-end only) regression bound. `BENCHMARK.json`
//! mirrors this table; a test keeps the two equal.

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Whose time a metric is in. Host metrics are measured on the machine
/// running the simulator and are noisy; modelled metrics are what the
/// simulated SSD would see and repeat exactly for a fixed seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    Host,
    Modelled,
}

/// An end-to-end metric, reported by every workload.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// a change counts as a regression. For modelled metrics it covers the
    /// spread across seeds; `compare` at one seed holds them to
    /// [`MODELLED_TOLERANCE`] instead.
    pub bound: f64,
    pub clock: Clock,
}

/// Relative difference under which two modelled values count as equal.
pub const MODELLED_TOLERANCE: f64 = 1e-9;

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    clock: Clock,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        clock,
    }
}

use Better::{Higher, Lower};
use Clock::{Host, Modelled};

pub const END_TO_END: &[EndToEnd] = &[
    e2e("sim_rps", "req/s", Higher, 0.25, Host),
    e2e("setup_s", "s", Lower, 0.25, Host),
    e2e("peak_rss_mb", "MB", Lower, 0.1, Host),
    e2e("read_mean_us", "us", Lower, 0.1, Modelled),
    e2e("resp_p999_us", "us", Lower, 0.25, Modelled),
    e2e("modelled_rps", "req/s", Higher, 0.05, Modelled),
    e2e("write_amp", "ratio", Lower, 0.1, Modelled),
    e2e("capacity_loss_pct", "%", Lower, 0.2, Modelled),
];

/// A per-layer metric, named `<layer>.<metric>`. Every workload reports
/// every one; a layer a workload does not exercise reports 0.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer { name, unit, better }
}

pub const PER_LAYER: &[Layer] = &[
    layer("workloads.gen_s", "s", Lower),
    layer("workloads.gen_req_per_s", "req/s", Higher),
    layer("sim.new_s", "s", Lower),
    layer("sim.run_s", "s", Lower),
    layer("sim.ns_per_req", "ns", Lower),
    layer("sim.singlequeue_ns_per_req", "ns", Lower),
    layer("sim.pipelined_extra_ns_per_req", "ns", Lower),
    layer("ftl.gc_runs", "count", Lower),
    layer("ftl.gc_migrated_pages", "count", Lower),
    layer("ftl.erases", "count", Lower),
    layer("ftl.flash_programs", "count", Lower),
    layer("ftl.flash_reads_per_host_read", "ratio", Lower),
    layer("buffer.read_hit_frac", "fraction", Higher),
    layer("accesseval.promotions", "count", Lower),
    layer("accesseval.demotions", "count", Lower),
    layer("accesseval.reduced_read_frac", "fraction", Higher),
    layer("ldpc.soft_read_frac", "fraction", Lower),
    layer("flexlevel.read_gain_pct", "%", Higher),
    layer("recovery.prefix_s", "s", Lower),
    layer("recovery.checkpoint_s", "s", Lower),
    layer("recovery.image_bytes", "B", Lower),
    layer("recovery.restore_s", "s", Lower),
    layer("recovery.resume_s", "s", Lower),
    layer("ldpc.calibrate_s", "s", Lower),
    layer("reliability.channel_build_s", "s", Lower),
    layer("ldpc.decode_s", "s", Lower),
    layer("ldpc.frames", "count", Higher),
    layer("ldpc.frames_per_s", "frames/s", Higher),
    layer("faults.retry_reads", "count", Lower),
    layer("faults.recovered_reads", "count", Higher),
    layer("faults.uncorrectable_reads", "count", Lower),
    layer("faults.recovery_latency_us", "us", Lower),
    layer("faults.die_resets", "count", Lower),
    layer("faults.retired_blocks", "count", Lower),
    layer("faults.scrub_refreshes", "count", Lower),
    layer("serve.dropped", "count", Lower),
    layer("serve.slo_violations", "count", Lower),
    layer("serve.worst_tenant_p99_us", "us", Lower),
    layer("serve.slo_met_frac", "fraction", Higher),
    layer("serve.failed_frac", "fraction", Lower),
    layer("pipeline.max_rate_at_slo_rps", "req/s", Higher),
    layer("obs.observer_overhead_pct", "%", Lower),
    layer("obs.finish_s", "s", Lower),
    layer("obs.export_prom_s", "s", Lower),
    layer("obs.export_chrome_s", "s", Lower),
    layer("obs.export_series_s", "s", Lower),
    layer("obs.export_bytes", "B", Lower),
    layer("obs.series_windows", "count", Lower),
    layer("obs.spans_recorded", "count", Lower),
    layer("stage.sense.ops", "count", Lower),
    layer("stage.sense.busy_us", "us", Lower),
    layer("stage.sense.wait_us", "us", Lower),
    layer("stage.transfer.ops", "count", Lower),
    layer("stage.transfer.busy_us", "us", Lower),
    layer("stage.transfer.wait_us", "us", Lower),
    layer("stage.decode.ops", "count", Lower),
    layer("stage.decode.busy_us", "us", Lower),
    layer("stage.decode.wait_us", "us", Lower),
    layer("stage.program.ops", "count", Lower),
    layer("stage.program.busy_us", "us", Lower),
    layer("stage.program.wait_us", "us", Lower),
    layer("stage.erase.ops", "count", Lower),
    layer("stage.erase.busy_us", "us", Lower),
    layer("stage.erase.wait_us", "us", Lower),
    layer("path.mean.queue_us", "us", Lower),
    layer("path.mean.sense_us", "us", Lower),
    layer("path.mean.transfer_us", "us", Lower),
    layer("path.mean.decode_us", "us", Lower),
    layer("path.mean.retry_us", "us", Lower),
    layer("path.mean.die_reset_us", "us", Lower),
    layer("path.mean.wait_us", "us", Lower),
    layer("path.p99.queue_us", "us", Lower),
    layer("path.p99.sense_us", "us", Lower),
    layer("path.p99.transfer_us", "us", Lower),
    layer("path.p99.decode_us", "us", Lower),
    layer("path.p99.retry_us", "us", Lower),
    layer("path.p99.die_reset_us", "us", Lower),
    layer("path.p99.wait_us", "us", Lower),
    layer("bench.trace_overhead_pct", "%", Lower),
];

/// The end-to-end metric called `name`.
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}
