//! Open-loop, multi-tenant request sources.
//!
//! The closed-trace replay in [`Trace`] models *one* client that has already
//! decided every arrival time. Serving experiments need the opposite regime:
//! several tenants, each an **open-loop** generator that keeps submitting at
//! its own rate regardless of completions, so queueing and tail latency can
//! actually build up. This module provides:
//!
//! * [`RequestSource`] — the trait the simulator pulls requests from. The
//!   closed trace replay is one impl ([`TraceSource`]); the open-loop
//!   generator is another ([`OpenLoopSource`]).
//! * [`TenantWorkload`] + [`Interarrival`] — a per-tenant profile: arrival
//!   process, read mix, Zipf working set over an LPN range, request sizes.
//! * [`OpenLoopSource`] — merges the per-tenant streams into one
//!   arrival-ordered sequence. Every tenant owns a private SplitMix64
//!   stream derived from the base seed, so the merged sequence is
//!   bit-identical regardless of tenant count elsewhere or thread count in
//!   the consumer.

use crate::trace::{IoOp, IoRequest, Trace};
use crate::zipf::ZipfSampler;

/// One request tagged with the tenant that issued it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantRequest {
    /// Issuing tenant index (0-based).
    pub tenant: u32,
    /// The request itself; `arrival_us` is on the merged global clock.
    pub request: IoRequest,
}

/// A pull-based stream of arrival-ordered requests.
///
/// The simulator drains a source to completion; sources must yield requests
/// in non-decreasing `arrival_us` order and report the logical footprint the
/// device must be preloaded with before serving starts.
pub trait RequestSource {
    /// Next request in arrival order, or `None` when the stream is drained.
    fn next_request(&mut self) -> Option<TenantRequest>;

    /// Logical address space the stream touches, in pages.
    fn footprint_pages(&self) -> u64;

    /// Number of tenants this source multiplexes (≥ 1).
    fn tenants(&self) -> u32;
}

/// Closed-trace replay as a [`RequestSource`]: every request belongs to
/// tenant 0 and arrival times come verbatim from the trace.
#[derive(Debug)]
pub struct TraceSource<'a> {
    trace: &'a Trace,
    next: usize,
}

impl<'a> TraceSource<'a> {
    /// Wraps a trace for replay.
    pub fn new(trace: &'a Trace) -> TraceSource<'a> {
        TraceSource { trace, next: 0 }
    }

    /// Wraps a trace for replay starting at request index `next` — the
    /// resume path after a checkpoint restore. An index at or past the
    /// end yields an immediately-drained source.
    pub fn starting_at(trace: &'a Trace, next: usize) -> TraceSource<'a> {
        TraceSource { trace, next }
    }
}

impl RequestSource for TraceSource<'_> {
    fn next_request(&mut self) -> Option<TenantRequest> {
        let request = *self.trace.requests.get(self.next)?;
        self.next += 1;
        Some(TenantRequest { tenant: 0, request })
    }

    fn footprint_pages(&self) -> u64 {
        self.trace.footprint_pages
    }

    fn tenants(&self) -> u32 {
        1
    }
}

/// Arrival process for one tenant's open-loop stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Interarrival {
    /// Fixed-rate arrivals: exactly this many microseconds apart.
    Fixed(f64),
    /// Poisson arrivals with this mean interarrival in microseconds
    /// (exponential gaps).
    Poisson(f64),
}

impl Interarrival {
    /// Convenience: arrival process from a rate in requests per second.
    ///
    /// # Panics
    ///
    /// Panics if `requests_per_sec` is not positive and finite.
    pub fn poisson_rate(requests_per_sec: f64) -> Interarrival {
        assert!(
            requests_per_sec.is_finite() && requests_per_sec > 0.0,
            "invalid arrival rate {requests_per_sec}"
        );
        Interarrival::Poisson(1_000_000.0 / requests_per_sec)
    }

    fn next_gap(&self, u: f64) -> f64 {
        match *self {
            Interarrival::Fixed(gap) => gap,
            Interarrival::Poisson(mean) => -u.max(f64::MIN_POSITIVE).ln() * mean,
        }
    }
}

/// One tenant's workload profile for [`OpenLoopSource`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantWorkload {
    /// First LPN of this tenant's working set. Ranges may be disjoint
    /// (per-tenant namespaces) or overlapping (shared data).
    pub first_lpn: u64,
    /// Size of the working set in pages (≥ 1).
    pub working_set_pages: u64,
    /// Fraction of requests that are reads, in `[0, 1]`.
    pub read_fraction: f64,
    /// Zipf skew over the working set (0 = uniform).
    pub zipf_theta: f64,
    /// Mean request length in pages (geometric, capped at 16).
    pub mean_request_pages: f64,
    /// Arrival process.
    pub interarrival: Interarrival,
    /// Number of requests this tenant submits before its stream drains.
    pub requests: u64,
}

impl TenantWorkload {
    /// A read-heavy profile over `working_set_pages` pages starting at
    /// `first_lpn`, with Poisson arrivals at `requests_per_sec`.
    pub fn new(first_lpn: u64, working_set_pages: u64, requests_per_sec: f64) -> TenantWorkload {
        TenantWorkload {
            first_lpn,
            working_set_pages,
            read_fraction: 0.8,
            zipf_theta: 0.9,
            mean_request_pages: 2.0,
            interarrival: Interarrival::poisson_rate(requests_per_sec),
            requests: 1_000,
        }
    }

    /// Sets the read fraction.
    pub fn with_read_fraction(mut self, read_fraction: f64) -> TenantWorkload {
        self.read_fraction = read_fraction;
        self
    }

    /// Sets the Zipf skew.
    pub fn with_zipf_theta(mut self, zipf_theta: f64) -> TenantWorkload {
        self.zipf_theta = zipf_theta;
        self
    }

    /// Sets the mean request length in pages.
    pub fn with_mean_request_pages(mut self, mean: f64) -> TenantWorkload {
        self.mean_request_pages = mean;
        self
    }

    /// Sets the arrival process.
    pub fn with_interarrival(mut self, interarrival: Interarrival) -> TenantWorkload {
        self.interarrival = interarrival;
        self
    }

    /// Sets the number of requests the tenant submits.
    pub fn with_requests(mut self, requests: u64) -> TenantWorkload {
        self.requests = requests;
        self
    }

    fn validate(&self, tenant: usize) {
        assert!(
            self.working_set_pages > 0,
            "tenant {tenant}: empty working set"
        );
        assert!(
            self.first_lpn
                .checked_add(self.working_set_pages)
                .is_some_and(|end| end <= IoRequest::LPN_LIMIT),
            "tenant {tenant}: working set ends past lpn 2^48"
        );
        assert!(
            (0.0..=1.0).contains(&self.read_fraction),
            "tenant {tenant}: read fraction {} outside [0, 1]",
            self.read_fraction
        );
        assert!(
            self.mean_request_pages >= 1.0,
            "tenant {tenant}: mean request pages {} below 1",
            self.mean_request_pages
        );
        match self.interarrival {
            Interarrival::Fixed(gap) | Interarrival::Poisson(gap) => assert!(
                gap.is_finite() && gap > 0.0,
                "tenant {tenant}: invalid interarrival {gap}"
            ),
        }
    }
}

/// SplitMix64 step — the same generator `ssd::stats` uses for its reservoir,
/// chosen here so per-tenant streams are cheap, seedable and platform-stable.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform f64 in `[0, 1)` from one SplitMix64 output (53-bit mantissa).
fn unit_f64(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

struct TenantStream {
    profile: TenantWorkload,
    zipf: ZipfSampler,
    rng: u64,
    clock_us: f64,
    emitted: u64,
    pending: Option<IoRequest>,
}

impl TenantStream {
    fn refill(&mut self) {
        if self.pending.is_some() || self.emitted >= self.profile.requests {
            return;
        }
        self.emitted += 1;
        // Draw order is fixed (gap, op, rank, then length) so streams stay
        // bit-identical when profiles change only in parameter values.
        self.clock_us += self.profile.interarrival.next_gap(unit_f64(&mut self.rng));
        let op = if unit_f64(&mut self.rng) < self.profile.read_fraction {
            IoOp::Read
        } else {
            IoOp::Write
        };
        let rank = self.zipf.rank_for(unit_f64(&mut self.rng));
        // Scatter ranks across the working set so hot pages are not all
        // physically adjacent (same multiplicative hash as `spec::generate`).
        let offset = rank.wrapping_mul(0x9E37_79B9_7F4A_7C15) % self.profile.working_set_pages;
        let lpn = self.profile.first_lpn + offset;
        let geometric_p = 1.0 / self.profile.mean_request_pages;
        let mut pages = 1u32;
        while pages < 16 && unit_f64(&mut self.rng) > geometric_p {
            pages += 1;
        }
        let remaining = self.profile.working_set_pages - offset;
        let pages = pages.min(remaining.min(16) as u32).max(1);
        self.pending = Some(IoRequest::new(self.clock_us, lpn, pages, op));
    }
}

/// Deterministic multi-tenant open-loop generator.
///
/// Each tenant advances a private SplitMix64 stream (seed derived from the
/// base seed by tenant index), so adding, removing or re-rating one tenant
/// never perturbs another tenant's request sequence — only the interleaving.
/// Streams are merged by arrival time; ties go to the lowest tenant index.
///
/// ```
/// use workloads::{Interarrival, OpenLoopSource, RequestSource, TenantWorkload};
///
/// let tenants = vec![
///     TenantWorkload::new(0, 4_096, 20_000.0).with_requests(100),
///     TenantWorkload::new(4_096, 4_096, 5_000.0).with_requests(100),
/// ];
/// let mut source = OpenLoopSource::new(tenants, 42);
/// assert_eq!(source.tenants(), 2);
/// let first = source.next_request().unwrap();
/// assert!(first.request.arrival_us >= 0.0);
/// ```
pub struct OpenLoopSource {
    streams: Vec<TenantStream>,
    footprint_pages: u64,
}

impl std::fmt::Debug for OpenLoopSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OpenLoopSource")
            .field("tenants", &self.streams.len())
            .field("footprint_pages", &self.footprint_pages)
            .finish()
    }
}

impl OpenLoopSource {
    /// Builds a source over the given tenant profiles.
    ///
    /// # Panics
    ///
    /// Panics if `tenants` is empty or any profile is invalid (empty working
    /// set or one ending past [`IoRequest::LPN_LIMIT`], read fraction
    /// outside `[0, 1]`, non-positive interarrival).
    pub fn new(tenants: Vec<TenantWorkload>, seed: u64) -> OpenLoopSource {
        assert!(!tenants.is_empty(), "open-loop source needs >= 1 tenant");
        let mut footprint_pages = 0;
        let mut chain = seed;
        let streams = tenants
            .into_iter()
            .enumerate()
            .map(|(i, profile)| {
                profile.validate(i);
                footprint_pages =
                    footprint_pages.max(profile.first_lpn + profile.working_set_pages);
                let rng = splitmix64(&mut chain);
                TenantStream {
                    zipf: ZipfSampler::new(profile.working_set_pages, profile.zipf_theta),
                    profile,
                    rng,
                    clock_us: 0.0,
                    emitted: 0,
                    pending: None,
                }
            })
            .collect();
        OpenLoopSource {
            streams,
            footprint_pages,
        }
    }
}

impl RequestSource for OpenLoopSource {
    fn next_request(&mut self) -> Option<TenantRequest> {
        for stream in &mut self.streams {
            stream.refill();
        }
        let mut winner: Option<(usize, f64)> = None;
        for (i, stream) in self.streams.iter().enumerate() {
            let Some(pending) = &stream.pending else {
                continue;
            };
            // Strict `<` keeps ties on the lowest tenant index.
            let earlier = winner.is_none_or(|(_, best)| {
                pending.arrival_us.total_cmp(&best) == std::cmp::Ordering::Less
            });
            if earlier {
                winner = Some((i, pending.arrival_us));
            }
        }
        let (i, _) = winner?;
        let request = self.streams[i].pending.take()?;
        Some(TenantRequest {
            tenant: i as u32,
            request,
        })
    }

    fn footprint_pages(&self) -> u64 {
        self.footprint_pages
    }

    fn tenants(&self) -> u32 {
        self.streams.len() as u32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_tenants() -> Vec<TenantWorkload> {
        vec![
            TenantWorkload::new(0, 2_048, 10_000.0).with_requests(500),
            TenantWorkload::new(2_048, 2_048, 30_000.0)
                .with_requests(500)
                .with_read_fraction(0.5),
        ]
    }

    fn drain(source: &mut OpenLoopSource) -> Vec<TenantRequest> {
        std::iter::from_fn(|| source.next_request()).collect()
    }

    #[test]
    fn emits_exactly_requested_counts() {
        let mut source = OpenLoopSource::new(two_tenants(), 7);
        let all = drain(&mut source);
        assert_eq!(all.len(), 1_000);
        let t0 = all.iter().filter(|r| r.tenant == 0).count();
        assert_eq!(t0, 500);
        assert!(source.next_request().is_none());
    }

    #[test]
    fn arrivals_are_sorted_and_in_range() {
        let mut source = OpenLoopSource::new(two_tenants(), 7);
        let all = drain(&mut source);
        let footprint = source.footprint_pages();
        let mut last = 0.0f64;
        for r in &all {
            assert!(r.request.arrival_us >= last, "arrival order violated");
            last = r.request.arrival_us;
            assert!(r.request.lpn() + r.request.pages() as u64 <= footprint);
            assert!(r.request.pages() >= 1 && r.request.pages() <= 16);
            if r.tenant == 0 {
                assert!(r.request.lpn() < 2_048);
            } else {
                assert!(r.request.lpn() >= 2_048);
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = drain(&mut OpenLoopSource::new(two_tenants(), 99));
        let b = drain(&mut OpenLoopSource::new(two_tenants(), 99));
        assert_eq!(a, b);
        let c = drain(&mut OpenLoopSource::new(two_tenants(), 100));
        assert_ne!(a, c);
    }

    #[test]
    fn tenant_streams_are_independent_of_neighbors() {
        // Re-rating tenant 1 must not change tenant 0's request sequence
        // (only the interleaving).
        let base = drain(&mut OpenLoopSource::new(two_tenants(), 7));
        let mut hot = two_tenants();
        hot[1] = hot[1].with_interarrival(Interarrival::poisson_rate(300_000.0));
        let loaded = drain(&mut OpenLoopSource::new(hot, 7));
        let t0_base: Vec<_> = base.iter().filter(|r| r.tenant == 0).collect();
        let t0_loaded: Vec<_> = loaded.iter().filter(|r| r.tenant == 0).collect();
        assert_eq!(t0_base, t0_loaded);
    }

    #[test]
    fn fixed_interarrival_is_exact() {
        let tenants = vec![TenantWorkload::new(0, 64, 1.0)
            .with_interarrival(Interarrival::Fixed(50.0))
            .with_requests(10)];
        let mut source = OpenLoopSource::new(tenants, 1);
        let all = drain(&mut source);
        for (i, r) in all.iter().enumerate() {
            assert_eq!(r.request.arrival_us, 50.0 * (i + 1) as f64);
        }
    }

    #[test]
    fn zipf_skew_concentrates_accesses() {
        let tenants = vec![TenantWorkload::new(0, 10_000, 50_000.0)
            .with_zipf_theta(0.99)
            .with_requests(20_000)];
        let mut source = OpenLoopSource::new(tenants, 3);
        let mut counts = std::collections::HashMap::new();
        while let Some(r) = source.next_request() {
            *counts.entry(r.request.lpn()).or_insert(0u64) += 1;
        }
        let mut freqs: Vec<u64> = counts.values().copied().collect();
        freqs.sort_unstable_by(|a, b| b.cmp(a));
        let head: u64 = freqs.iter().take(freqs.len() / 10).sum();
        let total: u64 = freqs.iter().sum();
        assert!(
            head as f64 / total as f64 > 0.5,
            "head share {}",
            head as f64 / total as f64
        );
    }

    #[test]
    fn trace_source_replays_verbatim() {
        use crate::WorkloadSpec;
        use rand::{rngs::StdRng, SeedableRng};
        let trace = WorkloadSpec::web1()
            .with_requests(200)
            .generate(&mut StdRng::seed_from_u64(5));
        let mut source = TraceSource::new(&trace);
        assert_eq!(source.tenants(), 1);
        assert_eq!(source.footprint_pages(), trace.footprint_pages);
        let mut seen = 0;
        while let Some(r) = source.next_request() {
            assert_eq!(r.tenant, 0);
            assert_eq!(r.request, trace.requests[seen]);
            seen += 1;
        }
        assert_eq!(seen, trace.requests.len());
    }

    #[test]
    #[should_panic(expected = "needs >= 1 tenant")]
    fn empty_tenant_list_rejected() {
        let _ = OpenLoopSource::new(Vec::new(), 1);
    }

    #[test]
    #[should_panic(expected = "read fraction")]
    fn bad_read_fraction_rejected() {
        let _ = OpenLoopSource::new(
            vec![TenantWorkload::new(0, 64, 1.0).with_read_fraction(1.5)],
            1,
        );
    }

    #[test]
    #[should_panic(expected = "past lpn 2^48")]
    fn unpackable_working_set_rejected() {
        let _ = OpenLoopSource::new(
            vec![TenantWorkload::new(IoRequest::LPN_LIMIT - 8, 64, 1.0)],
            1,
        );
    }
}
