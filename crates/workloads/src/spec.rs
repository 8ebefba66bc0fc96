//! Synthetic workload specifications modelled on the paper's seven traces.
//!
//! The original evaluation replays fin-2 (OLTP), web-1/web-2 (search
//! engine), prj-1/prj-2 (research project servers) and win-1/win-2 (PC)
//! block traces. Those traces are not redistributable, so this module
//! generates synthetic equivalents with matching first-order statistics —
//! read/write mix, popularity skew, sequentiality, request size and
//! arrival intensity — which are the only properties the FTL and
//! AccessEval policies observe. The per-workload parameters follow the
//! published characterisations of the UMass (Financial/WebSearch) and
//! MSR-Cambridge (proj) trace families.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::trace::{IoOp, IoRequest, Trace};
use crate::zipf::ZipfSampler;

/// Parameters of one synthetic workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Workload label.
    pub name: String,
    /// Fraction of requests that are reads.
    pub read_fraction: f64,
    /// Zipf skew of page popularity (0 = uniform).
    pub zipf_theta: f64,
    /// Logical footprint in pages.
    pub footprint_pages: u64,
    /// Fraction of requests continuing sequentially from the previous one.
    pub sequential_fraction: f64,
    /// Mean request length in pages (geometric distribution).
    pub mean_request_pages: f64,
    /// Mean exponential interarrival gap in microseconds.
    pub mean_interarrival_us: f64,
    /// Number of requests to generate.
    pub requests: u64,
    /// Fraction of writes that target the *read-hot* region of the
    /// address space (1.0 = reads and writes share one popularity
    /// ranking; 0.0 = disjoint hot sets). Real traces show substantial
    /// read/write asymmetry — OLTP index pages are read-hot but rarely
    /// rewritten — which is precisely the data AccessEval targets.
    pub read_write_overlap: f64,
}

impl WorkloadSpec {
    /// fin-2: the OLTP (UMass Financial2) profile — read-mostly, small
    /// random requests, strong skew, intense arrival rate.
    pub fn fin2() -> WorkloadSpec {
        WorkloadSpec {
            name: "fin-2".into(),
            read_fraction: 0.82,
            zipf_theta: 1.0,
            footprint_pages: 1 << 17,
            sequential_fraction: 0.05,
            mean_request_pages: 1.2,
            mean_interarrival_us: 1200.0,
            requests: 200_000,
            read_write_overlap: 0.4,
        }
    }

    /// web-1: search-engine (UMass WebSearch) profile — almost pure reads.
    pub fn web1() -> WorkloadSpec {
        WorkloadSpec {
            name: "web-1".into(),
            read_fraction: 0.99,
            zipf_theta: 0.9,
            footprint_pages: 1 << 18,
            sequential_fraction: 0.1,
            mean_request_pages: 2.0,
            mean_interarrival_us: 1500.0,
            requests: 200_000,
            read_write_overlap: 0.5,
        }
    }

    /// web-2: second search-engine volume, slightly less skewed.
    pub fn web2() -> WorkloadSpec {
        WorkloadSpec {
            name: "web-2".into(),
            read_fraction: 0.99,
            zipf_theta: 0.85,
            footprint_pages: 1 << 18,
            sequential_fraction: 0.1,
            mean_request_pages: 2.0,
            mean_interarrival_us: 1600.0,
            requests: 200_000,
            read_write_overlap: 0.5,
        }
    }

    /// prj-1: research-project file server (MSR proj) — write-heavy with
    /// long sequential runs.
    pub fn prj1() -> WorkloadSpec {
        WorkloadSpec {
            name: "prj-1".into(),
            read_fraction: 0.35,
            zipf_theta: 0.8,
            footprint_pages: 1 << 18,
            sequential_fraction: 0.4,
            mean_request_pages: 4.0,
            mean_interarrival_us: 3000.0,
            requests: 200_000,
            read_write_overlap: 0.6,
        }
    }

    /// prj-2: second project volume — read-mostly with sequential scans.
    pub fn prj2() -> WorkloadSpec {
        WorkloadSpec {
            name: "prj-2".into(),
            read_fraction: 0.75,
            zipf_theta: 0.8,
            footprint_pages: 1 << 18,
            sequential_fraction: 0.35,
            mean_request_pages: 3.0,
            mean_interarrival_us: 2200.0,
            requests: 200_000,
            read_write_overlap: 0.6,
        }
    }

    /// win-1: desktop PC profile — mixed read/write, moderate skew.
    pub fn win1() -> WorkloadSpec {
        WorkloadSpec {
            name: "win-1".into(),
            read_fraction: 0.60,
            zipf_theta: 0.95,
            footprint_pages: 1 << 17,
            sequential_fraction: 0.3,
            mean_request_pages: 2.5,
            mean_interarrival_us: 2500.0,
            requests: 200_000,
            read_write_overlap: 0.5,
        }
    }

    /// win-2: second PC profile.
    pub fn win2() -> WorkloadSpec {
        WorkloadSpec {
            name: "win-2".into(),
            read_fraction: 0.65,
            zipf_theta: 0.9,
            footprint_pages: 1 << 17,
            sequential_fraction: 0.25,
            mean_request_pages: 2.0,
            mean_interarrival_us: 2400.0,
            requests: 200_000,
            read_write_overlap: 0.5,
        }
    }

    /// All seven evaluation workloads in the paper's order.
    pub fn paper_suite() -> Vec<WorkloadSpec> {
        vec![
            WorkloadSpec::fin2(),
            WorkloadSpec::web1(),
            WorkloadSpec::web2(),
            WorkloadSpec::prj1(),
            WorkloadSpec::prj2(),
            WorkloadSpec::win1(),
            WorkloadSpec::win2(),
        ]
    }

    /// Rescales the footprint (for scaled-down simulated devices).
    #[must_use]
    pub fn with_footprint(mut self, pages: u64) -> WorkloadSpec {
        self.footprint_pages = pages.max(1);
        self
    }

    /// Rescales the request count.
    #[must_use]
    pub fn with_requests(mut self, requests: u64) -> WorkloadSpec {
        self.requests = requests;
        self
    }

    /// Scales the arrival intensity (`factor > 1` slows arrivals down).
    /// Experiments use this to keep even the slowest scheme below
    /// saturation on scaled-down devices.
    #[must_use]
    pub fn with_interarrival_scale(mut self, factor: f64) -> WorkloadSpec {
        self.mean_interarrival_us *= factor;
        self
    }

    /// Generates the synthetic trace deterministically from `seed`.
    ///
    /// Popularity ranks are scattered across the address space with a
    /// multiplicative hash so the hot set is not spatially contiguous.
    ///
    /// # Panics
    ///
    /// Panics if the footprint exceeds [`IoRequest::LPN_LIMIT`] pages.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> Trace {
        assert!(
            self.footprint_pages <= IoRequest::LPN_LIMIT,
            "footprint {} pages exceeds the 2^48-page request address space",
            self.footprint_pages
        );
        let zipf = ZipfSampler::new(self.footprint_pages, self.zipf_theta);
        let mut requests = Vec::with_capacity(self.requests as usize);
        let mut clock = 0.0f64;
        let mut cursor: Option<(u64, u32)> = None;
        let geometric_p = 1.0 / self.mean_request_pages.max(1.0);
        for _ in 0..self.requests {
            clock += -rng.gen::<f64>().max(f64::MIN_POSITIVE).ln() * self.mean_interarrival_us;
            // Request length: geometric with the configured mean, capped.
            let mut pages = 1u32;
            while pages < 16 && rng.gen::<f64>() > geometric_p {
                pages += 1;
            }
            let op = if rng.gen::<f64>() < self.read_fraction {
                IoOp::Read
            } else {
                IoOp::Write
            };
            let lpn = match cursor {
                Some((prev_lpn, prev_pages)) if rng.gen::<f64>() < self.sequential_fraction => {
                    (prev_lpn + prev_pages as u64) % self.footprint_pages
                }
                _ => {
                    let rank = zipf.sample(rng);
                    // Multiplicative scatter keeps the hot set spread out.
                    // Writes draw from a second scatter with probability
                    // (1 − read_write_overlap), giving read-hot pages that
                    // are not also write-hot (read/write asymmetry).
                    let scatter =
                        if op == IoOp::Write && rng.gen::<f64>() >= self.read_write_overlap {
                            0xD1B5_4A32_D192_ED03
                        } else {
                            0x9E37_79B9_7F4A_7C15
                        };
                    rank.wrapping_mul(scatter) % self.footprint_pages
                }
            };
            let pages = pages
                .min((self.footprint_pages - lpn).min(16) as u32)
                .max(1);
            requests.push(IoRequest::new(clock, lpn, pages, op));
            cursor = Some((lpn, pages));
        }
        Trace {
            name: self.name.clone(),
            footprint_pages: self.footprint_pages,
            requests,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn suite_has_seven_workloads() {
        let suite = WorkloadSpec::paper_suite();
        assert_eq!(suite.len(), 7);
        let names: Vec<&str> = suite.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            vec!["fin-2", "web-1", "web-2", "prj-1", "prj-2", "win-1", "win-2"]
        );
    }

    #[test]
    fn generated_traces_validate() {
        for spec in WorkloadSpec::paper_suite() {
            let spec = spec.with_requests(5_000).with_footprint(10_000);
            let mut rng = StdRng::seed_from_u64(1);
            let trace = spec.generate(&mut rng);
            assert_eq!(trace.len(), 5_000);
            trace
                .validate()
                .unwrap_or_else(|e| panic!("{}: {e}", spec.name));
        }
    }

    #[test]
    fn read_fractions_match_spec() {
        for spec in WorkloadSpec::paper_suite() {
            let spec = spec.with_requests(20_000);
            let mut rng = StdRng::seed_from_u64(2);
            let trace = spec.generate(&mut rng);
            assert!(
                (trace.read_fraction() - spec.read_fraction).abs() < 0.02,
                "{}: got {} want {}",
                spec.name,
                trace.read_fraction(),
                spec.read_fraction
            );
        }
    }

    #[test]
    fn web_workloads_are_read_dominated() {
        // The Figure 7 explanation relies on web-1/web-2 having very few
        // writes ("their original write numbers are low").
        for spec in [WorkloadSpec::web1(), WorkloadSpec::web2()] {
            assert!(spec.read_fraction >= 0.99);
        }
        assert!(
            WorkloadSpec::prj1().read_fraction < 0.5,
            "prj-1 write-heavy"
        );
    }

    #[test]
    #[should_panic(expected = "request address space")]
    fn unaddressable_footprint_rejected() {
        let _ = WorkloadSpec::fin2()
            .with_requests(1)
            .with_footprint(IoRequest::LPN_LIMIT + 1)
            .generate(&mut StdRng::seed_from_u64(1));
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = WorkloadSpec::fin2().with_requests(1_000);
        let a = spec.generate(&mut StdRng::seed_from_u64(7));
        let b = spec.generate(&mut StdRng::seed_from_u64(7));
        assert_eq!(a, b);
        let c = spec.generate(&mut StdRng::seed_from_u64(8));
        assert_ne!(a, c);
    }

    #[test]
    fn skew_produces_hot_pages() {
        let spec = WorkloadSpec::fin2()
            .with_requests(50_000)
            .with_footprint(10_000);
        let mut rng = StdRng::seed_from_u64(3);
        let trace = spec.generate(&mut rng);
        let mut counts = std::collections::HashMap::new();
        for r in &trace.requests {
            *counts.entry(r.lpn()).or_insert(0u64) += 1;
        }
        let mut sorted: Vec<u64> = counts.values().copied().collect();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        let top_decile: u64 = sorted.iter().take(sorted.len() / 10).sum();
        let total: u64 = sorted.iter().sum();
        assert!(
            top_decile as f64 / total as f64 > 0.5,
            "OLTP trace must concentrate accesses: top decile {}",
            top_decile as f64 / total as f64
        );
    }

    #[test]
    fn sequential_fraction_creates_runs() {
        let spec = WorkloadSpec::prj1().with_requests(20_000);
        let mut rng = StdRng::seed_from_u64(4);
        let trace = spec.generate(&mut rng);
        let sequential = trace
            .requests
            .windows(2)
            .filter(|w| w[1].lpn() == (w[0].lpn() + w[0].pages() as u64) % spec.footprint_pages)
            .count();
        let fraction = sequential as f64 / (trace.len() - 1) as f64;
        assert!(
            (fraction - spec.sequential_fraction).abs() < 0.05,
            "sequential fraction {fraction}"
        );
    }

    #[test]
    fn arrival_times_sorted_and_exponential() {
        let spec = WorkloadSpec::win1().with_requests(20_000);
        let mut rng = StdRng::seed_from_u64(5);
        let trace = spec.generate(&mut rng);
        let mut prev = 0.0;
        let mut total_gap = 0.0;
        for r in &trace.requests {
            assert!(r.arrival_us >= prev);
            total_gap += r.arrival_us - prev;
            prev = r.arrival_us;
        }
        let mean_gap = total_gap / trace.len() as f64;
        assert!(
            (mean_gap - spec.mean_interarrival_us).abs() / spec.mean_interarrival_us < 0.05,
            "mean interarrival {mean_gap}"
        );
    }

    #[test]
    fn request_lengths_near_mean() {
        let spec = WorkloadSpec::prj1().with_requests(20_000);
        let mut rng = StdRng::seed_from_u64(6);
        let trace = spec.generate(&mut rng);
        let mean =
            trace.requests.iter().map(|r| r.pages() as f64).sum::<f64>() / trace.len() as f64;
        assert!(
            (mean - spec.mean_request_pages).abs() < 0.8,
            "mean request pages {mean} vs {}",
            spec.mean_request_pages
        );
    }
}
