//! Block-level I/O trace representation.
//!
//! The FlexLevel evaluation replays block traces (fin-2, web-1/2, prj-1/2,
//! win-1/2) through the simulated SSD. Requests are page-granular: the
//! simulator's FTL maps one logical page to one physical flash page.

use serde::{Deserialize, Serialize};

/// Request direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum IoOp {
    /// Host read.
    Read,
    /// Host write.
    Write,
}

/// One host I/O request, 16 bytes in memory.
///
/// The arrival time is a plain field; the first page, the page count and
/// the direction share one packed word (`lpn` in the low 48 bits, `pages`
/// in the next 15, the op in the top bit), read through [`lpn`](Self::lpn),
/// [`pages`](Self::pages) and [`op`](Self::op). A replayed trace is a
/// `Vec` of these, so the packing is what bounds a long trace's memory.
/// On disk (`codec`, FXT1) each request stays a 24-byte record.
#[derive(Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IoRequest {
    /// Arrival time in microseconds from trace start.
    pub arrival_us: f64,
    packed: u64,
}

const LPN_BITS: u32 = 48;
const PAGES_BITS: u32 = 15;
const WRITE_BIT: u64 = 1 << (LPN_BITS + PAGES_BITS);

impl IoRequest {
    /// Exclusive upper bound on a request's first logical page (2^48).
    pub const LPN_LIMIT: u64 = 1 << LPN_BITS;
    /// Largest page count a request can carry (2^15 − 1). Zero is
    /// representable so [`Trace::validate`] can report it.
    pub const MAX_PAGES: u32 = (1 << PAGES_BITS) - 1;

    /// Packs one request.
    ///
    /// # Panics
    ///
    /// Panics if `lpn >= IoRequest::LPN_LIMIT` or
    /// `pages > IoRequest::MAX_PAGES`; [`try_new`](Self::try_new) is the
    /// fallible form for untrusted input.
    pub fn new(arrival_us: f64, lpn: u64, pages: u32, op: IoOp) -> IoRequest {
        IoRequest::try_new(arrival_us, lpn, pages, op)
            .unwrap_or_else(|| panic!("request out of range: lpn {lpn}, pages {pages}"))
    }

    /// Packs one request, or `None` if `lpn` or `pages` exceeds its limit.
    pub fn try_new(arrival_us: f64, lpn: u64, pages: u32, op: IoOp) -> Option<IoRequest> {
        if lpn >= IoRequest::LPN_LIMIT || pages > IoRequest::MAX_PAGES {
            return None;
        }
        let op = match op {
            IoOp::Read => 0,
            IoOp::Write => WRITE_BIT,
        };
        Some(IoRequest {
            arrival_us,
            packed: lpn | u64::from(pages) << LPN_BITS | op,
        })
    }

    /// First logical page touched.
    pub fn lpn(&self) -> u64 {
        self.packed & (IoRequest::LPN_LIMIT - 1)
    }

    /// Number of consecutive pages touched (≥ 1 in a valid trace).
    pub fn pages(&self) -> u32 {
        (self.packed >> LPN_BITS) as u32 & IoRequest::MAX_PAGES
    }

    /// Read or write.
    pub fn op(&self) -> IoOp {
        if self.packed & WRITE_BIT == 0 {
            IoOp::Read
        } else {
            IoOp::Write
        }
    }

    /// Iterates over the logical pages this request touches.
    pub fn lpns(&self) -> std::ops::Range<u64> {
        let lpn = self.lpn();
        lpn..lpn + self.pages() as u64
    }
}

impl std::fmt::Debug for IoRequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IoRequest")
            .field("arrival_us", &self.arrival_us)
            .field("lpn", &self.lpn())
            .field("pages", &self.pages())
            .field("op", &self.op())
            .finish()
    }
}

/// A complete trace plus the footprint it was generated against.
///
/// ```
/// use rand::{rngs::StdRng, SeedableRng};
/// use workloads::WorkloadSpec;
///
/// let trace = WorkloadSpec::web1()
///     .with_requests(1_000)
///     .generate(&mut StdRng::seed_from_u64(1));
/// let profile = trace.profile();
/// assert!(profile.read_fraction > 0.95); // search engines mostly read
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    /// Workload label (e.g. `"fin-2"`).
    pub name: String,
    /// Logical address space the trace touches, in pages.
    pub footprint_pages: u64,
    /// The requests, sorted by arrival time.
    pub requests: Vec<IoRequest>,
}

impl Trace {
    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// `true` if the trace has no requests.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Fraction of requests that are reads.
    pub fn read_fraction(&self) -> f64 {
        if self.requests.is_empty() {
            return 0.0;
        }
        self.requests
            .iter()
            .filter(|r| r.op() == IoOp::Read)
            .count() as f64
            / self.requests.len() as f64
    }

    /// Total pages read and written `(read_pages, written_pages)`.
    pub fn page_counts(&self) -> (u64, u64) {
        let mut reads = 0;
        let mut writes = 0;
        for r in &self.requests {
            match r.op() {
                IoOp::Read => reads += r.pages() as u64,
                IoOp::Write => writes += r.pages() as u64,
            }
        }
        (reads, writes)
    }

    /// Duration between first and last arrival, in microseconds.
    pub fn duration_us(&self) -> f64 {
        match (self.requests.first(), self.requests.last()) {
            (Some(first), Some(last)) => last.arrival_us - first.arrival_us,
            _ => 0.0,
        }
    }

    /// Validates internal consistency: arrivals sorted, pages within the
    /// footprint, request lengths positive.
    pub fn validate(&self) -> Result<(), TraceError> {
        let mut prev = f64::NEG_INFINITY;
        for (i, r) in self.requests.iter().enumerate() {
            if r.arrival_us < prev {
                return Err(TraceError::UnsortedArrivals { index: i });
            }
            prev = r.arrival_us;
            if r.pages() == 0 {
                return Err(TraceError::EmptyRequest { index: i });
            }
            match r.lpn().checked_add(r.pages() as u64) {
                Some(end) if end <= self.footprint_pages => {}
                _ => return Err(TraceError::OutOfFootprint { index: i }),
            }
        }
        Ok(())
    }
}

/// Aggregate statistics of a trace (for reports and the CLI).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceProfile {
    /// Total requests.
    pub requests: usize,
    /// Fraction of requests that are reads.
    pub read_fraction: f64,
    /// Pages read / written.
    pub read_pages: u64,
    /// Pages written.
    pub written_pages: u64,
    /// Distinct logical pages touched.
    pub unique_pages: u64,
    /// Mean request length in pages.
    pub mean_request_pages: f64,
    /// Mean interarrival gap in microseconds.
    pub mean_interarrival_us: f64,
    /// Fraction of page accesses landing on the hottest decile of
    /// touched pages (popularity skew).
    pub top_decile_share: f64,
}

impl Trace {
    /// Computes the aggregate profile of this trace.
    pub fn profile(&self) -> TraceProfile {
        let (read_pages, written_pages) = self.page_counts();
        let mut counts: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        let mut total_pages = 0u64;
        for r in &self.requests {
            for lpn in r.lpns() {
                *counts.entry(lpn).or_insert(0) += 1;
                total_pages += 1;
            }
        }
        let mut freqs: Vec<u64> = counts.values().copied().collect();
        freqs.sort_unstable_by(|a, b| b.cmp(a));
        let decile = (freqs.len() / 10).max(1);
        let top: u64 = freqs.iter().take(decile).sum();
        let mean_interarrival_us = if self.requests.len() > 1 {
            self.duration_us() / (self.requests.len() - 1) as f64
        } else {
            0.0
        };
        TraceProfile {
            requests: self.requests.len(),
            read_fraction: self.read_fraction(),
            read_pages,
            written_pages,
            unique_pages: counts.len() as u64,
            mean_request_pages: if self.requests.is_empty() {
                0.0
            } else {
                total_pages as f64 / self.requests.len() as f64
            },
            mean_interarrival_us,
            top_decile_share: if total_pages == 0 {
                0.0
            } else {
                top as f64 / total_pages as f64
            },
        }
    }
}

/// Trace consistency violations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceError {
    /// Request `index` arrives before its predecessor.
    UnsortedArrivals {
        /// Offending request index.
        index: usize,
    },
    /// Request `index` has zero length.
    EmptyRequest {
        /// Offending request index.
        index: usize,
    },
    /// Request `index` touches pages beyond the footprint.
    OutOfFootprint {
        /// Offending request index.
        index: usize,
    },
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::UnsortedArrivals { index } => {
                write!(f, "request {index} arrives before its predecessor")
            }
            TraceError::EmptyRequest { index } => write!(f, "request {index} has zero length"),
            TraceError::OutOfFootprint { index } => {
                write!(f, "request {index} exceeds the trace footprint")
            }
        }
    }
}

impl std::error::Error for TraceError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        Trace {
            name: "t".into(),
            footprint_pages: 100,
            requests: vec![
                IoRequest::new(0.0, 0, 4, IoOp::Read),
                IoRequest::new(10.0, 50, 2, IoOp::Write),
                IoRequest::new(30.0, 4, 1, IoOp::Read),
            ],
        }
    }

    #[test]
    fn stats() {
        let t = sample();
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        assert!((t.read_fraction() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(t.page_counts(), (5, 2));
        assert_eq!(t.duration_us(), 30.0);
    }

    #[test]
    fn lpn_iteration() {
        let r = IoRequest::new(0.0, 7, 3, IoOp::Write);
        let lpns: Vec<u64> = r.lpns().collect();
        assert_eq!(lpns, vec![7, 8, 9]);
    }

    /// A replayed trace is a `Vec<IoRequest>`, so this width is the
    /// trace's memory per request.
    #[test]
    fn requests_stay_two_words_wide() {
        assert_eq!(std::mem::size_of::<IoRequest>(), 16);
        assert_eq!(std::mem::size_of::<crate::TenantRequest>(), 24);
    }

    #[test]
    fn packing_round_trips_every_field_at_its_limits() {
        for lpn in [0, 1, 0xABCD_EF01_2345, IoRequest::LPN_LIMIT - 1] {
            for pages in [0, 1, 16, IoRequest::MAX_PAGES] {
                for op in [IoOp::Read, IoOp::Write] {
                    let r = IoRequest::new(-0.5, lpn, pages, op);
                    assert_eq!(
                        (r.arrival_us, r.lpn(), r.pages(), r.op()),
                        (-0.5, lpn, pages, op)
                    );
                }
            }
        }
        assert_eq!(
            IoRequest::try_new(0.0, IoRequest::LPN_LIMIT, 1, IoOp::Read),
            None
        );
        assert_eq!(
            IoRequest::try_new(0.0, 0, IoRequest::MAX_PAGES + 1, IoOp::Read),
            None
        );
    }

    #[test]
    #[should_panic(expected = "request out of range")]
    fn new_rejects_an_unpackable_lpn() {
        let _ = IoRequest::new(0.0, u64::MAX, 1, IoOp::Read);
    }

    #[test]
    fn debug_keeps_the_field_names() {
        assert_eq!(
            format!("{:?}", IoRequest::new(1.5, 7, 3, IoOp::Write)),
            "IoRequest { arrival_us: 1.5, lpn: 7, pages: 3, op: Write }"
        );
    }

    #[test]
    fn validation_passes_for_good_trace() {
        assert_eq!(sample().validate(), Ok(()));
    }

    #[test]
    fn validation_catches_unsorted() {
        let mut t = sample();
        t.requests[2].arrival_us = 5.0;
        assert_eq!(t.validate(), Err(TraceError::UnsortedArrivals { index: 2 }));
    }

    #[test]
    fn validation_catches_zero_length() {
        let mut t = sample();
        t.requests[1] = IoRequest::new(10.0, 50, 0, IoOp::Write);
        assert_eq!(t.validate(), Err(TraceError::EmptyRequest { index: 1 }));
    }

    #[test]
    fn validation_catches_footprint_overflow() {
        let mut t = sample();
        t.requests[1] = IoRequest::new(10.0, 99, 5, IoOp::Write);
        assert_eq!(t.validate(), Err(TraceError::OutOfFootprint { index: 1 }));
    }

    #[test]
    fn profile_of_sample() {
        let p = sample().profile();
        assert_eq!(p.requests, 3);
        assert!((p.read_fraction - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(p.read_pages, 5);
        assert_eq!(p.written_pages, 2);
        assert_eq!(p.unique_pages, 7); // pages 0..=4 plus 50, 51
        assert!((p.mean_request_pages - 7.0 / 3.0).abs() < 1e-12);
        assert!((p.mean_interarrival_us - 15.0).abs() < 1e-12);
        assert!(p.top_decile_share > 0.0 && p.top_decile_share <= 1.0);
    }

    #[test]
    fn profile_detects_skew() {
        use crate::spec::WorkloadSpec;
        use rand::{rngs::StdRng, SeedableRng};
        let skewed = WorkloadSpec::fin2()
            .with_requests(20_000)
            .with_footprint(5_000)
            .generate(&mut StdRng::seed_from_u64(1))
            .profile();
        let mut uniform_spec = WorkloadSpec::fin2();
        uniform_spec.zipf_theta = 0.0;
        let uniform = uniform_spec
            .with_requests(20_000)
            .with_footprint(5_000)
            .generate(&mut StdRng::seed_from_u64(1))
            .profile();
        assert!(
            skewed.top_decile_share > uniform.top_decile_share + 0.2,
            "skewed {} vs uniform {}",
            skewed.top_decile_share,
            uniform.top_decile_share
        );
    }

    #[test]
    fn empty_trace() {
        let t = Trace {
            name: "empty".into(),
            footprint_pages: 10,
            requests: vec![],
        };
        assert!(t.is_empty());
        assert_eq!(t.read_fraction(), 0.0);
        assert_eq!(t.duration_us(), 0.0);
        assert_eq!(t.validate(), Ok(()));
    }
}
