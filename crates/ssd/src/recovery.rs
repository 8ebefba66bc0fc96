//! Read error recovery and sudden-power-off recovery (SPOR).
//!
//! Two recovery layers live here. The first is the per-read **error
//! recovery ladder** below. The second is device-level **crash
//! recovery**: [`DeviceImage`] is a versioned, length-prefixed binary
//! checkpoint of everything mutable in the simulated device (FTL,
//! buffer, reliability accumulators, fault counters, statistics), and
//! together with the FTL's append-only mapping journal it makes the
//! device crash-consistent — see `PageMapFtl::recover` and DESIGN.md
//! §5.8.
//!
//! When a frame fails to decode (see [`crate::faults`]), the controller
//! does not give up — it climbs a deterministic escalation ladder, the
//! standard sequence of real parts and of the read-retry literature
//! (arXiv:2202.05661, arXiv:1309.0566):
//!
//! 1. **Vref-shift re-read** — re-sense at the *same* soft depth with the
//!    best [`reliability::RetryTable`] reference shift; the FER improves
//!    by the table's calibrated-over-nominal gain.
//! 2. **Progressive soft-sensing escalation** — re-read with one more
//!    extra level per rung up to the schedule maximum, each rung buying
//!    a further FER factor (more soft information, larger effective
//!    correction budget).
//! 3. **Final deep calibration** — a last full-depth attempt with per-die
//!    optimal-shift search beyond the discrete table.
//!
//! If the final rung also fails the sector is declared **uncorrectable**
//! (this model has no RAID layer above the ECC) and feeds the
//! [`reliability::uber`](reliability::EccConfig) data-loss accounting.
//!
//! The ladder is resolved against *one* uniform draw `u`: rung `r` is
//! attempted iff `u` falls below rung `r−1`'s failure rate, so the
//! attempt sequence is monotone by construction and the whole outcome is
//! a pure function of `(u, initial FER, rung factors)` — no extra
//! randomness, no order dependence. Each attempted rung is then *priced*
//! by the simulator exactly like a first-class read at that rung's
//! sensing depth, occupying die, channel and decoder resources in the
//! pipelined timing model.

/// One attempted rung of the recovery ladder.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryRung {
    /// Extra soft sensing levels this attempt was read with.
    pub levels: u32,
    /// Failure probability *after* this attempt (the chance the ladder
    /// continues past it).
    pub fer: f64,
}

/// The resolved outcome of one faulted read.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryOutcome {
    /// Every rung that was attempted, in order.
    pub rungs: Vec<RetryRung>,
    /// `true` if some rung decoded the frame; `false` declares the sector
    /// uncorrectable.
    pub recovered: bool,
}

impl RecoveryOutcome {
    /// Retry depth: the number of extra read attempts the ladder spent.
    pub fn depth(&self) -> usize {
        self.rungs.len()
    }
}

/// Deepest possible ladder for a read first sensed at `levels` of
/// `max_levels`: one Vref re-read, one escalation per remaining level,
/// and the final deep-calibration attempt.
pub fn max_depth(levels: u32, max_levels: u32) -> usize {
    max_levels.saturating_sub(levels) as usize + 2
}

/// Resolves the ladder for a read whose initial attempt failed: `u` is
/// the read's uniform fault draw (`u < fer0`), `fer0` the initial
/// frame-error rate at `levels` extra senses. `retry_factor`,
/// `escalate_factor` and `final_factor` are the FER multipliers of the
/// Vref rung, each escalation rung and the final deep rung; factors are
/// clamped to `(0, 1]` so the rung FERs decrease monotonically.
pub fn resolve(
    u: f64,
    fer0: f64,
    levels: u32,
    max_levels: u32,
    retry_factor: f64,
    escalate_factor: f64,
    final_factor: f64,
) -> RecoveryOutcome {
    let clamp = |f: f64| f.clamp(f64::MIN_POSITIVE, 1.0);
    let mut rungs = Vec::with_capacity(max_depth(levels, max_levels));
    let mut fer = fer0.clamp(0.0, 1.0);
    let attempt = |fer: f64, levels: u32, rungs: &mut Vec<RetryRung>| {
        rungs.push(RetryRung { levels, fer });
        u >= fer // recovered by this rung?
    };
    // Rung 1: Vref-shift re-read at the same sensing depth.
    fer *= clamp(retry_factor);
    if attempt(fer, levels, &mut rungs) {
        return RecoveryOutcome {
            rungs,
            recovered: true,
        };
    }
    // Rungs 2..: progressive escalation to deeper soft sensing.
    for deeper in (levels + 1)..=max_levels.max(levels) {
        fer *= clamp(escalate_factor);
        if attempt(fer, deeper, &mut rungs) {
            return RecoveryOutcome {
                rungs,
                recovered: true,
            };
        }
    }
    // Final rung: deep calibration at full depth; failure past this is
    // an uncorrectable sector.
    fer *= clamp(final_factor);
    let recovered = attempt(fer, max_levels.max(levels), &mut rungs);
    RecoveryOutcome { rungs, recovered }
}

// ---------------------------------------------------------------------
// Sudden-power-off recovery: the durable device image.
// ---------------------------------------------------------------------

use flash_model::{BlockId, CellMode};
use flexlevel::{AccessEvalSnapshot, AccessEvalStats};
use obs::{SeriesSnapshot, SeriesState};
use workloads::Trace;

use crate::config::SsdConfig;
use crate::ftl::{BlockImage, Fnv, FtlImage, GcPolicy, JournalRecord, TornPage};
use crate::stats::{SimStats, StageAccount, TenantStats};

/// Why a [`DeviceImage`] could not be decoded or restored. Corrupted or
/// truncated input always surfaces as one of these — never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ImageError {
    /// The byte stream ended before the encoded structure did.
    Truncated,
    /// The magic prefix is missing or wrong (not a device image).
    BadMagic,
    /// The format version is unknown to this build.
    BadVersion(u16),
    /// The image was checkpointed under a different simulator
    /// configuration.
    ConfigMismatch {
        /// Fingerprint of the configuration doing the restore.
        expected: u64,
        /// Fingerprint stored in the image.
        found: u64,
    },
    /// The image was checkpointed against a different trace.
    TraceMismatch {
        /// Fingerprint of the trace driving the resume.
        expected: u64,
        /// Fingerprint stored in the image.
        found: u64,
    },
    /// A structurally invalid encoding (bad tag, bad length, trailing
    /// bytes, out-of-range reference).
    Corrupt(&'static str),
    /// The decoded state violates an FTL invariant.
    Invariant(String),
}

impl std::fmt::Display for ImageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ImageError::Truncated => write!(f, "device image truncated"),
            ImageError::BadMagic => write!(f, "not a device image (bad magic)"),
            ImageError::BadVersion(v) => write!(f, "unsupported device-image version {v}"),
            ImageError::ConfigMismatch { expected, found } => write!(
                f,
                "image checkpointed under a different config \
                 (expected {expected:#018x}, found {found:#018x})"
            ),
            ImageError::TraceMismatch { expected, found } => write!(
                f,
                "image checkpointed against a different trace \
                 (expected {expected:#018x}, found {found:#018x})"
            ),
            ImageError::Corrupt(what) => write!(f, "corrupt device image: {what}"),
            ImageError::Invariant(what) => write!(f, "recovered state violates invariant: {what}"),
        }
    }
}

impl std::error::Error for ImageError {}

/// Fingerprint of a simulator configuration (FNV-1a over its canonical
/// debug rendering), stored in every [`DeviceImage`] so a restore under
/// a different configuration fails typed instead of diverging silently.
pub fn config_fingerprint(config: &SsdConfig) -> u64 {
    let mut h = Fnv::new();
    h.bytes(format!("{config:?}").as_bytes());
    h.0
}

/// Fingerprint of a trace (name, footprint and every request), stored in
/// the image when the checkpoint is tied to a specific replay so a
/// resume against a different trace fails typed. Zero means unchecked.
pub fn trace_fingerprint(trace: &Trace) -> u64 {
    let mut h = Fnv::new();
    h.bytes(trace.name.as_bytes());
    h.u64(trace.footprint_pages);
    h.u64(trace.requests.len() as u64);
    for r in &trace.requests {
        h.u64(r.arrival_us.to_bits());
        h.u64(r.lpn());
        h.u32(r.pages());
        h.byte(match r.op() {
            workloads::IoOp::Read => 0,
            workloads::IoOp::Write => 1,
        });
    }
    // Avoid colliding with the "unchecked" sentinel.
    if h.0 == 0 {
        1
    } else {
        h.0
    }
}

/// A durable checkpoint of the simulated device: everything mutable that
/// the next session (or crash recovery) needs to continue bit-identically
/// — FTL image and mapping journal, write buffer, per-page retention
/// ages and RNG state, AccessEval accumulators, fault-stream counters,
/// read-disturb counters, statistics, and the request cursor.
///
/// Serialized with the same conventions as `workloads::codec`: magic
/// prefix, version, little-endian, `u32`-length-prefixed collections,
/// presence-byte options, floats as IEEE-754 bits. Each layout is
/// declared once in this module — the field lists of `wire_struct!` and
/// the variant tags of `wire_enum!` — and both `to_bytes` and
/// `from_bytes` are generated from it. Pure caches (BER memos, FER
/// memos) are excluded — they repopulate deterministically.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceImage {
    /// Fingerprint of the [`SsdConfig`] the image was checkpointed under.
    pub config_fingerprint: u64,
    /// Fingerprint of the driving trace (`0` = not tied to a trace).
    pub trace_fingerprint: u64,
    /// Zero-based index of the next unserved request.
    pub request_cursor: u64,
    /// The FTL snapshot.
    pub ftl: FtlImage,
    /// Write-buffer entries as `(sequence, lpn)` in LRU order.
    pub buffer: Vec<(u64, u64)>,
    /// The buffer's next LRU sequence number.
    pub buffer_next_seq: u64,
    /// Per-page retention ages as `(lpn, hours)` sorted by LPN.
    pub ages: Vec<(u64, f64)>,
    /// Raw state of the age-sampling RNG.
    pub age_rng: [u64; 4],
    /// AccessEval accumulators (FlexLevel scheme only).
    pub access_eval: Option<AccessEvalSnapshot>,
    /// Fault-stream counters as `(kind tag, lpn, count)` sorted; `None`
    /// when fault injection is off.
    pub fault_counters: Option<Vec<(u64, u64, u64)>>,
    /// Read-disturb counters as `(lpn, reads)` sorted; `None` when no
    /// environment tracks disturb.
    pub disturb: Option<Vec<(u64, u64)>>,
    /// Statistics accumulated up to the checkpoint.
    pub stats: SimStats,
    /// Host pages written (lifetime accounting input).
    pub host_pages_written: u64,
    /// Requests until the next patrol-scrub visit.
    pub scrub_countdown: u64,
    /// The scrubber's block cursor.
    pub scrub_cursor: u32,
    /// Busy horizon per channel, µs (single-queue timing model).
    pub channel_free_at: Vec<f64>,
    /// Mapping-journal records appended after the checkpoint (empty for
    /// a clean checkpoint; non-empty when the image carries a crash).
    pub journal: Vec<JournalRecord>,
    /// Torn page left by a program the crash interrupted.
    pub torn: Option<TornPage>,
    /// Request index at which power was cut, if this image is a crash.
    pub crashed_at: Option<u64>,
    /// Time-series sampler state (emitted windows plus the open window's
    /// baselines), so a resumed campaign's series continues byte-for-byte
    /// where the checkpointed run left off. `None` when the checkpointed
    /// run recorded no series (including every version-1 image).
    pub series: Option<SeriesState>,
}

const IMAGE_MAGIC: &[u8; 4] = b"FXD1";
/// Version 2 appended the optional time-series state; version-1 images
/// (no series) still decode.
const IMAGE_VERSION: u16 = 2;

/// A device-image wire layout. `put` and `get` of every struct and enum
/// are generated from one declaration (`wire_struct!`, `wire_enum!`),
/// so the encoder and decoder cannot drift apart.
trait Wire: Sized {
    fn put(&self, buf: &mut Vec<u8>);
    fn get(d: &mut Dec<'_>) -> Result<Self, ImageError>;
}

/// Decoder cursor with explicit remaining-length checks; every short
/// read surfaces as [`ImageError::Truncated`].
struct Dec<'a> {
    data: &'a [u8],
    pos: usize,
    /// Format version read from the header; gates fields added later.
    version: u16,
}

impl<'a> Dec<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ImageError> {
        let out = self
            .data
            .get(self.pos..self.pos + n)
            .ok_or(ImageError::Truncated)?;
        self.pos += n;
        Ok(out)
    }
}

/// Little-endian fixed-width integers.
macro_rules! wire_int {
    ($($t:ty),+) => {$(
        impl Wire for $t {
            fn put(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }
            fn get(d: &mut Dec<'_>) -> Result<Self, ImageError> {
                let bytes = d.take(std::mem::size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(bytes.try_into().expect("exact width")))
            }
        }
    )+};
}
wire_int!(u8, u16, u32, u64);

impl Wire for f64 {
    fn put(&self, buf: &mut Vec<u8>) {
        self.to_bits().put(buf);
    }
    fn get(d: &mut Dec<'_>) -> Result<Self, ImageError> {
        u64::get(d).map(f64::from_bits)
    }
}

impl Wire for bool {
    fn put(&self, buf: &mut Vec<u8>) {
        u8::from(*self).put(buf);
    }
    fn get(d: &mut Dec<'_>) -> Result<Self, ImageError> {
        match u8::get(d)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(ImageError::Corrupt("boolean out of range")),
        }
    }
}

impl Wire for BlockId {
    fn put(&self, buf: &mut Vec<u8>) {
        self.0.put(buf);
    }
    fn get(d: &mut Dec<'_>) -> Result<Self, ImageError> {
        u32::get(d).map(BlockId)
    }
}

/// A presence byte (`0` absent, `1` present), then the value.
impl<T: Wire> Wire for Option<T> {
    fn put(&self, buf: &mut Vec<u8>) {
        match self {
            Some(v) => {
                1u8.put(buf);
                v.put(buf);
            }
            None => 0u8.put(buf),
        }
    }
    fn get(d: &mut Dec<'_>) -> Result<Self, ImageError> {
        match u8::get(d)? {
            0 => Ok(None),
            1 => T::get(d).map(Some),
            _ => Err(ImageError::Corrupt("presence byte out of range")),
        }
    }
}

/// A `u32` element count, then the elements.
impl<T: Wire> Wire for Vec<T> {
    fn put(&self, buf: &mut Vec<u8>) {
        let n = u32::try_from(self.len()).expect("image collections hold fewer than 2^32 items");
        n.put(buf);
        for v in self {
            v.put(buf);
        }
    }
    fn get(d: &mut Dec<'_>) -> Result<Self, ImageError> {
        let n = u32::get(d)? as usize;
        // A count can never exceed the bytes that remain (every element
        // that decodes is at least one byte) — reject absurd counts
        // before allocating.
        if n > d.data.len() - d.pos {
            return Err(ImageError::Truncated);
        }
        let mut out = Vec::new();
        for _ in 0..n {
            let v = T::get(d)?;
            // Allocate once the first element has decoded, so a forged
            // count of elements that never decode (`TenantStats`)
            // allocates nothing.
            out.reserve_exact(n - out.len());
            out.push(v);
        }
        Ok(out)
    }
}

/// The elements back to back, no count.
impl<T: Wire + Default, const N: usize> Wire for [T; N] {
    fn put(&self, buf: &mut Vec<u8>) {
        for v in self {
            v.put(buf);
        }
    }
    fn get(d: &mut Dec<'_>) -> Result<Self, ImageError> {
        let mut out: [T; N] = std::array::from_fn(|_| T::default());
        for v in &mut out {
            *v = T::get(d)?;
        }
        Ok(out)
    }
}

/// Tuples: the elements in order.
macro_rules! wire_tuple {
    ($($t:ident $i:tt),+) => {
        impl<$($t: Wire),+> Wire for ($($t,)+) {
            fn put(&self, buf: &mut Vec<u8>) {
                $(self.$i.put(buf);)+
            }
            fn get(d: &mut Dec<'_>) -> Result<Self, ImageError> {
                Ok(($($t::get(d)?,)+))
            }
        }
    };
}
wire_tuple!(A 0, B 1);
wire_tuple!(A 0, B 1, C 2);

/// Declares a struct's layout once: its fields in wire order. A field
/// marked `since V` is absent from images older than version `V` and
/// decodes to its default there.
macro_rules! wire_struct {
    (@get $d:ident) => { Wire::get($d)? };
    (@get $d:ident $v:literal) => {
        if $d.version >= $v { Wire::get($d)? } else { Default::default() }
    };
    ($($ty:ty { $($field:ident $(since $v:literal)?),+ $(,)? })+) => {$(
        impl Wire for $ty {
            fn put(&self, buf: &mut Vec<u8>) {
                $(self.$field.put(buf);)+
            }
            fn get(d: &mut Dec<'_>) -> Result<Self, ImageError> {
                Ok(Self { $($field: wire_struct!(@get d $($v)?),)+ })
            }
        }
    )+};
}

/// Declares an enum's layout once: a one-byte tag per variant, then the
/// variant's fields in wire order; any other tag is `Corrupt($what)`.
macro_rules! wire_enum {
    ($ty:ident, $what:literal { $($variant:ident = $tag:literal $({ $($field:ident),+ })?),+ $(,)? }) => {
        impl Wire for $ty {
            fn put(&self, buf: &mut Vec<u8>) {
                match self {
                    $($ty::$variant $({ $($field),+ })? => {
                        ($tag as u8).put(buf);
                        $($($field.put(buf);)+)?
                    })+
                }
            }
            fn get(d: &mut Dec<'_>) -> Result<Self, ImageError> {
                Ok(match u8::get(d)? {
                    $($tag => $ty::$variant $({ $($field: Wire::get(d)?),+ })?,)+
                    _ => return Err(ImageError::Corrupt($what)),
                })
            }
        }
    };
}

wire_enum!(CellMode, "cell mode out of range" { Normal = 0, Reduced = 1 });
wire_enum!(GcPolicy, "gc policy out of range" { Greedy = 0, WearAware = 1 });
wire_enum!(JournalRecord, "unknown journal record tag" {
    Write = 1 { lpn, block, page, mode },
    Invalidate = 2 { lpn },
    Map = 3 { lpn, block, page },
    Erase = 4 { block },
    Retire = 5 { block },
    Commit = 6 { request },
});

/// Tenanted (open-loop serving) state is not checkpointable: the image
/// stores only the tenant count, so a decoded tenant means a hand-edited
/// image.
impl Wire for TenantStats {
    fn put(&self, _: &mut Vec<u8>) {}
    fn get(_: &mut Dec<'_>) -> Result<Self, ImageError> {
        Err(ImageError::Corrupt("tenanted stats in device image"))
    }
}

wire_struct! {
    DeviceImage {
        config_fingerprint, trace_fingerprint, request_cursor, ftl, buffer,
        buffer_next_seq, ages, age_rng, access_eval, fault_counters, disturb,
        stats, host_pages_written, scrub_countdown, scrub_cursor,
        channel_free_at, journal, torn, crashed_at, series since 2,
    }
    FtlImage {
        blocks, pages_per_block, page_bytes, over_provisioning_pct,
        gc_low_watermark, gc_policy, block_states, free, frontier,
    }
    BlockImage { mode, frontier, valid, erases, retired, slots }
    TornPage { block, page }
    AccessEvalSnapshot { read_counts, reads_since_aging, pool, pool_next_seq, stats }
    AccessEvalStats { reads, reduced_hits, promotions, demotions }
    SimStats {
        host_reads, host_writes, buffer_read_hits, flash_reads, flash_programs,
        erases, gc_runs, gc_migrated_pages, promotions, demotions,
        reduced_reads, reads_by_sensing_level, total_response_us,
        read_response_us, max_response_us, response_samples, responses_seen,
        sample_state, makespan_us, retry_reads, recovered_reads,
        uncorrectable_reads, retry_depth_histogram, program_failures,
        retired_blocks, die_resets, scrub_runs, scrub_reads, scrub_refreshes,
        recovery_latency_us, stage_sense, stage_transfer, stage_decode,
        stage_program, stage_erase, tenants, journal_replayed,
        torn_pages_discarded, checkpoint_age_requests,
    }
    StageAccount { ops, busy_us, wait_us }
    SeriesState { interval_us, window, last, snapshots }
    SeriesSnapshot { window, t_us, cumulative, delta, gauges }
}

impl DeviceImage {
    /// Serializes the image to its versioned binary form.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(4096);
        buf.extend_from_slice(IMAGE_MAGIC);
        IMAGE_VERSION.put(&mut buf);
        self.put(&mut buf);
        buf
    }

    /// Decodes an image, verifying magic, version and structure.
    ///
    /// # Errors
    ///
    /// Any [`ImageError`]; truncated or corrupted input never panics.
    pub fn from_bytes(data: &[u8]) -> Result<DeviceImage, ImageError> {
        let mut d = Dec {
            data,
            pos: 0,
            version: 0,
        };
        if d.take(4)? != IMAGE_MAGIC {
            return Err(ImageError::BadMagic);
        }
        d.version = u16::get(&mut d)?;
        if d.version == 0 || d.version > IMAGE_VERSION {
            return Err(ImageError::BadVersion(d.version));
        }
        let image = DeviceImage::get(&mut d)?;
        if d.pos != data.len() {
            return Err(ImageError::Corrupt("trailing bytes"));
        }
        Ok(image)
    }

    /// Checks the image against the trace about to drive the resume; a
    /// `trace_fingerprint` of `0` means the image is not tied to any
    /// trace and always passes.
    ///
    /// # Errors
    ///
    /// [`ImageError::TraceMismatch`] if the image was checkpointed
    /// against a different trace.
    pub fn verify_trace(&self, trace: &Trace) -> Result<(), ImageError> {
        if self.trace_fingerprint == 0 {
            return Ok(());
        }
        let expected = trace_fingerprint(trace);
        if self.trace_fingerprint != expected {
            return Err(ImageError::TraceMismatch {
                expected,
                found: self.trace_fingerprint,
            });
        }
        Ok(())
    }

    /// Writes the image to `path`.
    ///
    /// # Errors
    ///
    /// Any I/O failure from the filesystem.
    pub fn save<P: AsRef<std::path::Path>>(&self, path: P) -> std::io::Result<()> {
        std::fs::write(path, self.to_bytes())
    }

    /// Reads an image from `path`; decode failures map to
    /// [`std::io::ErrorKind::InvalidData`], mirroring `workloads::codec`.
    ///
    /// # Errors
    ///
    /// I/O failures, or `InvalidData` wrapping the [`ImageError`].
    pub fn load<P: AsRef<std::path::Path>>(path: P) -> std::io::Result<DeviceImage> {
        let data = std::fs::read(path)?;
        DeviceImage::from_bytes(&data)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FACTORS: (f64, f64, f64) = (0.3, 0.25, 0.1);

    fn run(u: f64, fer0: f64, levels: u32) -> RecoveryOutcome {
        resolve(u, fer0, levels, 6, FACTORS.0, FACTORS.1, FACTORS.2)
    }

    #[test]
    fn shallow_fault_recovers_on_the_vref_rung() {
        // u just below fer0 but above fer0 × retry_factor: one re-read.
        let out = run(5e-3, 1e-2, 4);
        assert!(out.recovered);
        assert_eq!(out.depth(), 1);
        assert_eq!(out.rungs[0].levels, 4, "same depth, shifted references");
    }

    #[test]
    fn deeper_faults_climb_monotonically() {
        let out = run(1e-4, 1e-2, 3);
        assert!(out.recovered);
        assert!(out.depth() >= 2);
        // Sensing depth never decreases along the ladder.
        assert!(out.rungs.windows(2).all(|w| w[0].levels <= w[1].levels));
        // Rung FERs strictly decrease (factors < 1).
        assert!(out.rungs.windows(2).all(|w| w[0].fer > w[1].fer));
    }

    #[test]
    fn hopeless_draw_is_uncorrectable_at_max_depth() {
        let out = run(0.0, 1e-2, 2);
        assert!(!out.recovered);
        assert_eq!(out.depth(), max_depth(2, 6));
        assert_eq!(out.rungs.last().unwrap().levels, 6);
    }

    #[test]
    fn ladder_from_full_depth_has_two_rungs() {
        // A read already at max sensing can only Vref-retry and deep-cal.
        assert_eq!(max_depth(6, 6), 2);
        let out = run(0.0, 1e-2, 6);
        assert_eq!(out.depth(), 2);
        assert!(out.rungs.iter().all(|r| r.levels == 6));
    }

    #[test]
    fn depth_is_monotone_in_the_draw() {
        // Smaller u (a worse fault) never yields a shallower ladder.
        let mut prev = 0;
        for u in [9e-3, 2e-3, 4e-4, 1e-5, 1e-8, 0.0] {
            let d = run(u, 1e-2, 0).depth();
            assert!(d >= prev, "u={u}: depth {d} < {prev}");
            prev = d;
        }
        assert_eq!(prev, max_depth(0, 6));
    }

    #[test]
    fn degenerate_factors_are_clamped() {
        // Zero/negative factors must not freeze the ladder at fer 0-division
        // weirdness; they clamp to a tiny positive value, so the first
        // rung recovers anything with u > 0.
        let out = resolve(1e-300, 1.0, 0, 6, 0.0, -1.0, 0.0);
        assert!(out.recovered);
        assert_eq!(out.depth(), 1);
        // And a factor > 1 cannot make rungs *worse* than the last.
        let out = resolve(5e-3, 1e-2, 5, 6, 7.0, 7.0, 7.0);
        assert!(out.rungs.windows(2).all(|w| w[0].fer >= w[1].fer));
    }

    #[test]
    fn resolved_outcome_is_pure() {
        let a = run(3e-4, 8e-3, 1);
        let b = run(3e-4, 8e-3, 1);
        assert_eq!(a, b);
    }
}

#[cfg(test)]
mod image_tests {
    use super::*;
    use crate::config::{Scheme, SsdConfig};
    use crate::ftl::PageMapFtl;
    use crate::sim::SsdSimulator;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use workloads::WorkloadSpec;

    fn checkpointed(scheme: Scheme) -> (SsdConfig, Trace, DeviceImage) {
        let trace = WorkloadSpec::fin2()
            .with_requests(600)
            .with_footprint(1_200)
            .generate(&mut StdRng::seed_from_u64(11));
        let config = SsdConfig::scaled(scheme, 64).with_seed(3);
        let mut sim = SsdSimulator::new(config.clone());
        sim.run_prefix(&trace, 300).expect("prefix runs");
        let mut image = sim.checkpoint().expect("checkpoint");
        image.trace_fingerprint = trace_fingerprint(&trace);
        (config, trace, image)
    }

    #[test]
    fn image_round_trips_bit_identically() {
        for scheme in [Scheme::Baseline, Scheme::FlexLevel] {
            let (_, _, image) = checkpointed(scheme);
            let bytes = image.to_bytes();
            let back = DeviceImage::from_bytes(&bytes).expect("decodes");
            assert_eq!(back, image);
            assert_eq!(back.to_bytes(), bytes, "re-encoding must be stable");
        }
    }

    /// A clean checkpoint and the crash image of the same run, for one
    /// scheme under one scenario preset, optionally sampling a series.
    fn checkpoint_and_crash(
        scheme: Scheme,
        preset: &str,
        series: bool,
    ) -> (DeviceImage, DeviceImage) {
        let trace = WorkloadSpec::fin2()
            .with_requests(3_000)
            .with_footprint(1_500)
            .generate(&mut StdRng::seed_from_u64(0xF1E2));
        let config = crate::ScenarioSpec::find(preset)
            .expect("known preset")
            .apply(SsdConfig::scaled(scheme, 64).with_seed(7));
        let mut sim = SsdSimulator::new(config);
        if series {
            sim = sim.with_observer(crate::SimObserver::new(scheme, 100).with_series(2_000));
        }
        sim.run_prefix(&trace, 1_200).expect("prefix runs");
        let mut base = sim.checkpoint().expect("checkpoint");
        base.trace_fingerprint = trace_fingerprint(&trace);
        sim.set_crash_plan(Some(crate::CrashPlan::at_request(0x5EED, 2_400)));
        sim.resume(&trace).expect_err("armed crash plan fires");
        let crash = sim.crash_image(&base).expect("crash image");
        (base, crash)
    }

    /// The FXT1 bytes (FNV-1a of `workloads::encode`) and the
    /// `trace_fingerprint` images carry, for one fixed web-1 and one
    /// prj-1 trace. Both hash the request fields, not their in-memory
    /// layout, so a packing mistake in `IoRequest` fails here by name.
    #[test]
    fn trace_fingerprint_and_fxt1_bytes_are_pinned() {
        let pins: Vec<(u64, u64)> = [WorkloadSpec::web1(), WorkloadSpec::prj1()]
            .into_iter()
            .map(|spec| {
                let trace = spec
                    .with_requests(5_000)
                    .generate(&mut StdRng::seed_from_u64(0x7ACE));
                let mut h = Fnv::new();
                h.bytes(&workloads::encode(&trace));
                (trace_fingerprint(&trace), h.0)
            })
            .collect();
        assert_eq!(
            pins,
            [
                (0x9E10_EB04_6E75_B17A, 0x6F29_76C7_6E34_82F6),
                (0xEA74_0F49_F67F_E65F, 0x37F0_93E6_E131_B70D),
            ]
        );
    }

    /// The round-trip tests pass for any self-consistent layout; this
    /// pins the bytes themselves (FNV-1a of the encoding), so a silent
    /// format change fails here.
    #[test]
    fn wire_format_is_pinned() {
        let mut images = Vec::new();
        for (scheme, preset, series) in [
            (Scheme::Baseline, "baseline", false),
            (Scheme::FlexLevel, "baseline", false),
            (Scheme::LdpcInSsd, "hostile", false),
            (Scheme::FlexLevel, "hostile", true),
        ] {
            let (base, crash) = checkpoint_and_crash(scheme, preset, series);
            images.extend([base, crash]);
        }
        let last = images.last().expect("images");
        assert!(last.access_eval.is_some() && last.series.is_some());
        assert!(last.fault_counters.is_some() && last.disturb.is_some());
        assert!(!last.journal.is_empty() && last.crashed_at.is_some());
        // What these short runs never reach: a torn page, a retired
        // block, the wear-aware policy and every journal record kind.
        let mut rare = last.clone();
        rare.torn = Some(TornPage {
            block: BlockId(3),
            page: 9,
        });
        rare.ftl.block_states[0].retired = true;
        rare.ftl.gc_policy = GcPolicy::WearAware;
        rare.journal.extend([
            JournalRecord::Write {
                lpn: 1,
                block: BlockId(2),
                page: 3,
                mode: CellMode::Reduced,
            },
            JournalRecord::Invalidate { lpn: 4 },
            JournalRecord::Map {
                lpn: 5,
                block: BlockId(6),
                page: 7,
            },
            JournalRecord::Erase { block: BlockId(8) },
            JournalRecord::Retire { block: BlockId(9) },
            JournalRecord::Commit { request: 10 },
        ]);
        images.push(rare);
        let digests: Vec<u64> = images
            .iter()
            .map(|image| {
                let mut h = Fnv::new();
                h.bytes(&image.to_bytes());
                h.0
            })
            .collect();
        // Checkpoint then crash image per case, then `rare`. A digest
        // changes only with a format version bump (TESTING.md, tier 4).
        assert_eq!(
            digests,
            [
                0xdebd_4800_1bdc_c4f0,
                0x6311_3ec3_d115_2d60,
                0xbdba_9450_2a76_6571,
                0x41ad_8c0b_6ce6_dda3,
                0x7da1_8cd5_b60a_65c2,
                0x10e4_e9be_b93a_5c9b,
                0x421b_69c4_b647_7982,
                0xc444_b29d_444b_1103,
                0x5774_c688_a7ad_099b,
            ],
            "device-image bytes moved"
        );
    }

    #[test]
    fn version_one_images_still_decode() {
        // Version 1 predates the series field: same layout minus the
        // final presence byte.
        let (_, crash) = checkpoint_and_crash(Scheme::FlexLevel, "baseline", false);
        let mut bytes = crash.to_bytes();
        assert_eq!(
            bytes.pop(),
            Some(0),
            "series-less image ends in its presence byte"
        );
        bytes[4..6].copy_from_slice(&1u16.to_le_bytes());
        assert_eq!(DeviceImage::from_bytes(&bytes), Ok(crash));
    }

    #[test]
    fn restore_rejects_misshapen_statistics() {
        let (config, _, image) = checkpointed(Scheme::Baseline);
        assert!(SsdSimulator::restore(config.clone(), &image).is_ok());
        let edits: [fn(&mut SimStats); 3] = [
            |s| s.reads_by_sensing_level.clear(),
            |s| s.retry_depth_histogram.truncate(1),
            |s| s.response_samples.push(f64::NAN),
        ];
        for edit in edits {
            // A hand-edited image decodes fine; resuming it would index
            // past the histograms or sort a NaN, so restore refuses it.
            let mut edited = image.clone();
            edit(&mut edited.stats);
            let edited = DeviceImage::from_bytes(&edited.to_bytes()).expect("still decodes");
            assert!(matches!(
                SsdSimulator::restore(config.clone(), &edited),
                Err(ImageError::Corrupt(_))
            ));
        }
    }

    #[test]
    fn restore_rejects_an_out_of_range_scrub_cursor() {
        let (config, _, mut image) = checkpointed(Scheme::Baseline);
        image.scrub_cursor = 64;
        assert!(matches!(
            SsdSimulator::restore(config, &image),
            Err(ImageError::Corrupt("scrub cursor out of range"))
        ));
    }

    #[test]
    fn restore_audits_the_ftl_image() {
        // Each edit breaks one free-pool/frontier invariant while every
        // reference stays in range, so only the invariant audit sees it.
        let (config, _, image) = checkpointed(Scheme::Baseline);
        let ftl = &image.ftl;
        let written = (0..ftl.blocks)
            .find(|&b| ftl.block_states[b as usize].frontier > 0 && !ftl.free.contains(&b))
            .expect("the prefix wrote a block");
        let mut listed = image.clone();
        listed.ftl.free.push(written);
        let mut misplaced = image.clone();
        misplaced.ftl.frontier[0] = Some(ftl.free[0]);
        for (edited, expected) in [
            (listed, format!("free block {written} is not erased")),
            (
                misplaced,
                format!("frontier 0 points at free block {}", ftl.free[0]),
            ),
        ] {
            let errors = [
                PageMapFtl::from_image(&edited.ftl).err(),
                SsdSimulator::restore(config.clone(), &edited).err(),
            ];
            for error in errors {
                match error {
                    Some(ImageError::Invariant(what)) => {
                        assert!(what.starts_with(&expected), "{what}")
                    }
                    other => panic!("expected an invariant error, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn forged_geometry_is_rejected_before_allocating() {
        // The geometry header is not tied to the decoded block tables; a
        // forged one must fail typed instead of sizing the logical map.
        let (config, _, image) = checkpointed(Scheme::Baseline);
        let edits: [fn(&mut FtlImage); 3] = [
            |f| f.pages_per_block = u32::MAX,
            |f| f.blocks = u32::MAX,
            |f| (f.blocks, f.pages_per_block) = (u32::MAX, u32::MAX),
        ];
        for edit in edits {
            let mut edited = image.clone();
            edit(&mut edited.ftl);
            assert!(matches!(
                PageMapFtl::from_image(&edited.ftl),
                Err(ImageError::Corrupt(_))
            ));
            assert!(matches!(
                PageMapFtl::recover(&edited.ftl, &[], None),
                Err(ImageError::Corrupt(_))
            ));
            assert!(matches!(
                SsdSimulator::restore(config.clone(), &edited),
                Err(ImageError::Corrupt(_))
            ));
        }
    }

    /// A FlexLevel checkpoint under the `hostile` preset, so every
    /// per-page field (ages, buffer, read counters, pool, read disturb,
    /// fault counters) is present and non-empty.
    fn hostile_checkpoint() -> (SsdConfig, DeviceImage) {
        let trace = WorkloadSpec::fin2()
            .with_requests(3_000)
            .with_footprint(1_500)
            .generate(&mut StdRng::seed_from_u64(0xF1E2));
        let config = crate::ScenarioSpec::find("hostile")
            .expect("known preset")
            .apply(SsdConfig::scaled(Scheme::FlexLevel, 64).with_seed(7));
        let mut sim = SsdSimulator::new(config.clone());
        sim.run_prefix(&trace, 2_000).expect("prefix runs");
        let image = sim.checkpoint().expect("checkpoint");
        let eval = image
            .access_eval
            .as_ref()
            .expect("FlexLevel checkpoints AccessEval");
        assert!(!image.ages.is_empty() && !image.buffer.is_empty());
        assert!(!eval.read_counts.is_empty() && !eval.pool.is_empty());
        assert!(image.disturb.as_ref().is_some_and(|d| !d.is_empty()));
        assert!(image.fault_counters.as_ref().is_some_and(|c| !c.is_empty()));
        (config, image)
    }

    /// Forges an image given the device's logical page count.
    type Forgery = fn(&mut DeviceImage, u64);

    /// Applies each edit to a freshly encoded hostile checkpoint and
    /// expects the restore to fail with `ImageError::Corrupt(what)`.
    fn assert_forgeries_rejected(edits: &[(Forgery, &'static str)]) {
        let (config, image) = hostile_checkpoint();
        let logical = config.geometry.logical_pages();
        assert!(SsdSimulator::restore(config.clone(), &image).is_ok());
        for &(edit, what) in edits {
            let mut forged = image.clone();
            edit(&mut forged, logical);
            let forged = DeviceImage::from_bytes(&forged.to_bytes()).expect("still decodes");
            assert_eq!(
                SsdSimulator::restore(config.clone(), &forged).err(),
                Some(ImageError::Corrupt(what))
            );
        }
    }

    #[test]
    fn restore_bounds_data_ages() {
        assert_forgeries_rejected(&[
            (|i, n| i.ages.push((n, 1.0)), "data-age LPN out of range"),
            (|i, _| i.ages[0].1 = f64::NEG_INFINITY, "negative data age"),
            (|i, _| i.ages[0].1 = -1.0, "negative data age"),
        ]);
    }

    #[test]
    fn restore_bounds_buffered_pages() {
        assert_forgeries_rejected(&[(
            |i, _| i.buffer[0].1 = u64::MAX,
            "buffered LPN out of range",
        )]);
    }

    #[test]
    fn restore_bounds_read_counts() {
        fn eval(image: &mut DeviceImage) -> &mut AccessEvalSnapshot {
            image.access_eval.as_mut().expect("FlexLevel image")
        }
        assert_forgeries_rejected(&[
            (
                |i, n| eval(i).read_counts.push((n, 3)),
                "read-count LPN out of range",
            ),
            (|i, _| eval(i).read_counts[0].1 = 0, "zero read count"),
        ]);
    }

    #[test]
    fn restore_bounds_pooled_pages() {
        assert_forgeries_rejected(&[(
            |i, n| i.access_eval.as_mut().expect("FlexLevel image").pool[0].1 = n,
            "pooled LPN out of range",
        )]);
    }

    #[test]
    fn restore_bounds_read_disturb() {
        fn disturb(image: &mut DeviceImage) -> &mut Vec<(u64, u64)> {
            image.disturb.as_mut().expect("hostile tracks read disturb")
        }
        assert_forgeries_rejected(&[
            (
                |i, _| disturb(i)[0].0 = u64::MAX,
                "read-disturb LPN out of range",
            ),
            (|i, _| disturb(i)[0].1 = 0, "zero read-disturb count"),
        ]);
    }

    #[test]
    fn restore_bounds_fault_counters() {
        fn counters(image: &mut DeviceImage) -> &mut Vec<(u64, u64, u64)> {
            image
                .fault_counters
                .as_mut()
                .expect("hostile injects faults")
        }
        assert_forgeries_rejected(&[
            (
                |i, n| counters(i)[0].1 = n,
                "fault-counter LPN out of range",
            ),
            (|i, _| counters(i)[0].0 = 0x40, "unknown fault-stream tag"),
            (|i, _| counters(i)[0].2 = 0, "zero fault-stream count"),
        ]);
    }

    #[test]
    fn tenanted_stats_are_rejected() {
        let (_, _, mut image) = checkpointed(Scheme::Baseline);
        image.stats.tenants.push(crate::TenantStats::default());
        assert_eq!(
            DeviceImage::from_bytes(&image.to_bytes()),
            Err(ImageError::Corrupt("tenanted stats in device image"))
        );
    }

    #[test]
    fn every_truncation_fails_typed() {
        let (_, _, image) = checkpointed(Scheme::FlexLevel);
        let bytes = image.to_bytes();
        // Every strict prefix must produce an error, never a panic and
        // never a bogus image. Stride keeps the sweep fast; the edges
        // (empty, header, one-short) are hit explicitly.
        let edges = [0, 1, 3, IMAGE_MAGIC.len(), bytes.len() - 1];
        for len in (0..bytes.len()).step_by(131).chain(edges) {
            assert!(
                DeviceImage::from_bytes(&bytes[..len]).is_err(),
                "prefix of {len} bytes decoded"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let (_, _, image) = checkpointed(Scheme::Baseline);
        let mut bytes = image.to_bytes();
        bytes.push(0);
        assert_eq!(
            DeviceImage::from_bytes(&bytes),
            Err(ImageError::Corrupt("trailing bytes"))
        );
    }

    #[test]
    fn bad_magic_and_version_are_typed() {
        let (_, _, image) = checkpointed(Scheme::Baseline);
        let mut bytes = image.to_bytes();
        bytes[0] ^= 0xFF;
        assert_eq!(DeviceImage::from_bytes(&bytes), Err(ImageError::BadMagic));
        let mut bytes = image.to_bytes();
        bytes[4] = 0x7F;
        assert!(matches!(
            DeviceImage::from_bytes(&bytes),
            Err(ImageError::BadVersion(_))
        ));
    }

    #[test]
    fn corrupted_bytes_never_panic() {
        let (_, _, image) = checkpointed(Scheme::FlexLevel);
        let bytes = image.to_bytes();
        let mut state = 0x5EED_CAFE_u64;
        for _ in 0..256 {
            let mut mutated = bytes.clone();
            let r = obs::splitmix64(&mut state);
            let index = (r as usize) % mutated.len();
            mutated[index] ^= (1 << ((r >> 48) % 8)) as u8;
            // Either a typed error or a (different or identical) image —
            // the decoder must stay total.
            let _ = DeviceImage::from_bytes(&mutated);
        }
    }

    #[test]
    fn verify_trace_distinguishes_traces() {
        let (_, trace, image) = checkpointed(Scheme::Baseline);
        assert_eq!(image.verify_trace(&trace), Ok(()));
        let other = WorkloadSpec::fin2()
            .with_requests(600)
            .with_footprint(1_200)
            .generate(&mut StdRng::seed_from_u64(12));
        assert!(matches!(
            image.verify_trace(&other),
            Err(ImageError::TraceMismatch { .. })
        ));
        let mut untied = image.clone();
        untied.trace_fingerprint = 0;
        assert_eq!(untied.verify_trace(&other), Ok(()));
    }

    #[test]
    fn save_load_round_trips_via_disk() {
        let (_, _, image) = checkpointed(Scheme::Baseline);
        let path = std::env::temp_dir().join("flexlevel_image_roundtrip.bin");
        image.save(&path).expect("save");
        let back = DeviceImage::load(&path).expect("load");
        let _ = std::fs::remove_file(&path);
        assert_eq!(back, image);
    }
}
