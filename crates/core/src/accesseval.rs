//! AccessEval: identifying and placing high-LDPC-overhead data (paper §5).
//!
//! LevelAdjust costs 25 % of the capacity of whatever it is applied to, so
//! FlexLevel applies it only where it pays. AccessEval consists of:
//!
//! * the **HLO identifier** — scores each datum's LDPC overhead as
//!   `L_f × L_sensing` (read-frequency level × soft-sensing-level bucket;
//!   the paper uses N = M = 2 levels of each) and flags data whose score
//!   exceeds a threshold;
//! * the **ReducedCell pool** — an LRU-ordered, capacity-bounded set of
//!   logical pages currently stored in reduced-state cells (the paper caps
//!   it at 64 GB of the 256 GB device, bounding capacity loss at ≈6 %);
//! * the **AccessEval controller** — turns identifier verdicts into
//!   migrations: promote HLO data into reduced pages, demote the
//!   least-recently-accessed data back to normal pages when the pool
//!   fills.

use serde::{Deserialize, Serialize};

use crate::page_state::{LruSet, LruSnapshotError, PageColumn};

/// Configuration of the AccessEval policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccessEvalConfig {
    /// Number of read-frequency levels `N` (paper: 2).
    pub freq_levels: u32,
    /// Number of sensing-overhead buckets `M` (paper: 2).
    pub sensing_buckets: u32,
    /// A datum is HLO when `L_f × L_sensing` **exceeds** this value.
    /// With N = M = 2 the products are {1, 2, 4}; the default threshold 2
    /// selects data that is both hot *and* expensive to sense.
    pub overhead_threshold: u32,
    /// ReducedCell pool capacity in pages.
    pub pool_pages: u64,
    /// Read count at which a page reaches the top frequency level.
    pub hot_read_threshold: u32,
    /// Reads between aging passes (counters halve), keeping frequency
    /// levels reflective of the recent access pattern.
    pub aging_period: u64,
}

impl AccessEvalConfig {
    /// The paper's §6.2 settings for a device with `page_bytes`-sized
    /// pages: `L_f = L_sensing = 2`, 64 GB pool. The hot threshold and
    /// aging cadence implement the bloom-filter-style hot-data
    /// identification of \[13\]: a page must sustain several reads per
    /// aging window to stay "hot", which keeps migrations targeted at the
    /// genuinely read-hot working set instead of the long Zipf tail.
    pub fn paper(page_bytes: u64) -> AccessEvalConfig {
        AccessEvalConfig {
            freq_levels: 2,
            sensing_buckets: 2,
            overhead_threshold: 2,
            pool_pages: 64 * (1 << 30) / page_bytes,
            hot_read_threshold: 8,
            aging_period: 8192,
        }
    }

    /// Same policy scaled to a pool of `pool_pages` pages (for scaled-down
    /// simulated devices).
    pub fn with_pool_pages(mut self, pool_pages: u64) -> AccessEvalConfig {
        self.pool_pages = pool_pages;
        self
    }
}

impl Default for AccessEvalConfig {
    fn default() -> AccessEvalConfig {
        AccessEvalConfig::paper(16 * 1024)
    }
}

/// Scores LDPC overhead from read frequency and sensing cost.
#[derive(Debug, Clone)]
pub struct HloIdentifier {
    config: AccessEvalConfig,
    read_counts: PageColumn<ReadCount>,
    /// Aging passes so far (modulo rebasing); a count stored at epoch
    /// `e` has been halved `epoch_now − e` times since.
    epoch_now: u32,
    reads_since_aging: u64,
}

/// One page's read counter and the aging epoch it was last written in.
/// Aging is lazy: `k` integer halvings of an unsigned count equal one
/// shift by `k`, so the pending halvings are applied on the next access
/// instead of by a pass over every page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ReadCount {
    count: u32,
    epoch: u32,
}

impl ReadCount {
    const ZERO: ReadCount = ReadCount { count: 0, epoch: 0 };

    /// The count after the halvings pending since its epoch.
    #[inline]
    fn at(self, epoch_now: u32) -> u32 {
        self.count.checked_shr(epoch_now - self.epoch).unwrap_or(0)
    }
}

impl HloIdentifier {
    /// Creates an identifier with the given policy.
    pub fn new(config: AccessEvalConfig) -> HloIdentifier {
        HloIdentifier {
            config,
            read_counts: PageColumn::new(ReadCount::ZERO),
            epoch_now: 0,
            reads_since_aging: 0,
        }
    }

    /// Records a read of `lpn` and returns its current frequency level
    /// (1 ..= `freq_levels`).
    pub fn record_read(&mut self, lpn: u64) -> u32 {
        let epoch_now = self.epoch_now;
        let entry = self.read_counts.get_mut(lpn);
        let count = entry.at(epoch_now).saturating_add(1);
        *entry = ReadCount {
            count,
            epoch: epoch_now,
        };
        let level = self.freq_level_for_count(count);
        self.reads_since_aging += 1;
        if self.reads_since_aging >= self.config.aging_period {
            self.age();
        }
        level
    }

    /// Current frequency level of `lpn` without recording a read.
    pub fn freq_level(&self, lpn: u64) -> u32 {
        self.freq_level_for_count(self.read_counts.get(lpn).at(self.epoch_now))
    }

    fn freq_level_for_count(&self, count: u32) -> u32 {
        // Level k needs count ≥ hot_read_threshold^(k-1) scaled linearly:
        // with N=2 this is simply "hot" vs "cold" at the threshold.
        let n = self.config.freq_levels;
        if n <= 1 {
            return 1;
        }
        let step = self.config.hot_read_threshold.max(1);
        (1 + count / step).min(n)
    }

    /// Buckets an observed sensing cost (`extra_levels` out of
    /// `max_levels`) into 1 ..= `sensing_buckets` by dividing the level
    /// range evenly: with the paper's M = 2 over a 6-level schedule,
    /// bucket 2 means the *upper half* (≥ 4 extra levels) — the reads
    /// whose latency actually hurts.
    pub fn sensing_bucket(&self, extra_levels: u32, max_levels: u32) -> u32 {
        let m = self.config.sensing_buckets;
        if m <= 1 || max_levels == 0 {
            return 1;
        }
        (1 + extra_levels * m / (max_levels + 1)).min(m)
    }

    /// LDPC overhead score `L_f × L_sensing`.
    pub fn overhead(&self, freq_level: u32, sensing_bucket: u32) -> u32 {
        freq_level * sensing_bucket
    }

    /// Full evaluation: record the read and decide whether `lpn` is HLO
    /// at the observed sensing cost.
    pub fn evaluate(&mut self, lpn: u64, extra_levels: u32, max_levels: u32) -> bool {
        let freq = self.record_read(lpn);
        let sensing = self.sensing_bucket(extra_levels, max_levels);
        self.overhead(freq, sensing) > self.config.overhead_threshold
    }

    /// Forgets a page (overwritten or trimmed).
    pub fn invalidate(&mut self, lpn: u64) {
        self.read_counts.remove(lpn);
    }

    /// Ages all counters (halves them), dropping cold entries. O(1): the
    /// halving is applied to each page on its next access.
    pub fn age(&mut self) {
        self.reads_since_aging = 0;
        if self.epoch_now == u32::MAX {
            // Once per 2^32 passes: apply every pending shift so stored
            // epochs can restart at zero.
            let live = self.snapshot();
            self.restore(&live, 0);
        }
        self.epoch_now += 1;
    }

    fn live_counts(&self, epoch_now: u32) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.read_counts
            .entries()
            .map(move |(lpn, entry)| (lpn, entry.at(epoch_now)))
            .filter(|&(_, count)| count > 0)
    }

    /// Number of tracked pages (non-zero counters). Walks the column, so
    /// it is for diagnostics, not the request path.
    pub fn tracked_pages(&self) -> usize {
        self.live_counts(self.epoch_now).count()
    }

    /// The non-zero read counters as `(lpn, count)`, sorted by LPN.
    pub fn snapshot(&self) -> Vec<(u64, u32)> {
        self.live_counts(self.epoch_now).collect()
    }

    /// Replaces every counter with `read_counts` (as [`snapshot`]
    /// emits them) and the aging progress with `reads_since_aging`.
    ///
    /// [`snapshot`]: Self::snapshot
    fn restore(&mut self, read_counts: &[(u64, u32)], reads_since_aging: u64) {
        self.read_counts.clear();
        self.epoch_now = 0;
        for &(lpn, count) in read_counts {
            self.read_counts.set(lpn, ReadCount { count, epoch: 0 });
        }
        self.reads_since_aging = reads_since_aging;
    }
}

/// The ReducedCell pool: LRU-ordered set of pages stored in reduced-state
/// cells.
#[derive(Debug, Clone)]
pub struct ReducedCellPool {
    pages: LruSet,
}

/// Size of one ReducedCell pool metadata entry (paper §5: 4 bytes).
pub const POOL_ENTRY_BYTES: u64 = 4;

impl ReducedCellPool {
    /// Creates a pool holding at most `capacity` pages.
    pub fn new(capacity: u64) -> ReducedCellPool {
        ReducedCellPool {
            pages: LruSet::new(capacity),
        }
    }

    /// Pages currently in the pool.
    pub fn len(&self) -> u64 {
        self.pages.len()
    }

    /// `true` when no pages are pooled.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Maximum pages the pool may hold.
    pub fn capacity(&self) -> u64 {
        self.pages.capacity()
    }

    /// `true` if `lpn` is stored in reduced-state cells.
    pub fn contains(&self, lpn: u64) -> bool {
        self.pages.contains(lpn)
    }

    /// Marks `lpn` as recently accessed.
    pub fn touch(&mut self, lpn: u64) {
        self.pages.touch(lpn);
    }

    /// Inserts `lpn`, returning the evicted least-recently-used page if
    /// the pool was full. Inserting an existing page just touches it.
    pub fn insert(&mut self, lpn: u64) -> Option<u64> {
        self.pages.insert(lpn)
    }

    /// Removes and returns the least-recently-used page.
    pub fn pop_lru(&mut self) -> Option<u64> {
        self.pages.pop_lru()
    }

    /// Removes a specific page (overwrite/trim).
    pub fn remove(&mut self, lpn: u64) -> bool {
        self.pages.remove(lpn)
    }

    /// Metadata footprint of the pool at full occupancy (paper §5: 4-byte
    /// entries; 32 GB of 16 KB reduced pages ⇒ 8 MB).
    pub fn metadata_bytes(&self) -> u64 {
        self.capacity() * POOL_ENTRY_BYTES
    }
}

/// A migration the FTL must perform on behalf of AccessEval.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Migration {
    /// Rewrite `lpn` into reduced-state pages.
    PromoteToReduced {
        /// The logical page to promote.
        lpn: u64,
    },
    /// Rewrite `lpn` back into normal-state pages (pool eviction).
    DemoteToNormal {
        /// The logical page to demote.
        lpn: u64,
    },
}

impl Migration {
    /// The logical page being migrated.
    pub fn lpn(&self) -> u64 {
        match *self {
            Migration::PromoteToReduced { lpn } | Migration::DemoteToNormal { lpn } => lpn,
        }
    }
}

/// Counters describing the controller's behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccessEvalStats {
    /// Reads evaluated.
    pub reads: u64,
    /// Reads that hit data already in reduced-state pages.
    pub reduced_hits: u64,
    /// Promotions into the pool.
    pub promotions: u64,
    /// Demotions out of the pool (LRU evictions).
    pub demotions: u64,
}

/// Where a page's data currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Placement {
    /// Normal-state (4-level) pages.
    Normal,
    /// Reduced-state (3-level, ReduceCode) pages.
    Reduced,
}

/// Checkpoint view of an [`AccessEvalController`]'s mutable state,
/// canonicalised for byte-deterministic serialization: read counters
/// sorted by LPN, pool entries in LRU (sequence) order.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccessEvalSnapshot {
    /// HLO identifier read counters as `(lpn, count)`, sorted by LPN.
    pub read_counts: Vec<(u64, u32)>,
    /// Reads accumulated toward the next aging pass.
    pub reads_since_aging: u64,
    /// ReducedCell pool entries as `(sequence, lpn)` in sequence order.
    pub pool: Vec<(u64, u64)>,
    /// The pool's next LRU sequence number.
    pub pool_next_seq: u64,
    /// Behaviour counters at snapshot time.
    pub stats: AccessEvalStats,
}

/// The AccessEval controller: identifier + pool + migration policy.
///
/// ```
/// use flexlevel::{AccessEvalConfig, AccessEvalController, Migration, Placement};
///
/// let config = AccessEvalConfig::default().with_pool_pages(2);
/// let mut ctrl = AccessEvalController::new(config);
///
/// // A cold read of cheap data stays in normal pages.
/// let migrations = ctrl.on_read(7, 0, 6);
/// assert!(migrations.is_empty());
/// assert_eq!(ctrl.placement(7), Placement::Normal);
///
/// // Hot + expensive data gets promoted.
/// for _ in 0..8 { ctrl.on_read(42, 4, 6); }
/// assert_eq!(ctrl.placement(42), Placement::Reduced);
/// ```
#[derive(Debug, Clone)]
pub struct AccessEvalController {
    identifier: HloIdentifier,
    pool: ReducedCellPool,
    stats: AccessEvalStats,
}

impl AccessEvalController {
    /// Creates a controller with the given policy.
    pub fn new(config: AccessEvalConfig) -> AccessEvalController {
        AccessEvalController {
            pool: ReducedCellPool::new(config.pool_pages),
            identifier: HloIdentifier::new(config),
            stats: AccessEvalStats::default(),
        }
    }

    /// Processes a host read of `lpn` whose LDPC decode needed
    /// `extra_levels` (of a schedule maximum `max_levels`) *if served from
    /// normal pages*. Returns the migrations the FTL must perform.
    pub fn on_read(&mut self, lpn: u64, extra_levels: u32, max_levels: u32) -> Vec<Migration> {
        self.stats.reads += 1;
        if self.pool.contains(lpn) {
            self.stats.reduced_hits += 1;
            self.pool.touch(lpn);
            // Keep the frequency statistics warm for aging decisions.
            self.identifier.record_read(lpn);
            return Vec::new();
        }
        let mut migrations = Vec::new();
        if self.identifier.evaluate(lpn, extra_levels, max_levels) {
            if let Some(evicted) = self.pool.insert(lpn) {
                self.stats.demotions += 1;
                migrations.push(Migration::DemoteToNormal { lpn: evicted });
            }
            self.stats.promotions += 1;
            migrations.push(Migration::PromoteToReduced { lpn });
        }
        migrations
    }

    /// Where `lpn` currently lives.
    pub fn placement(&self, lpn: u64) -> Placement {
        if self.pool.contains(lpn) {
            Placement::Reduced
        } else {
            Placement::Normal
        }
    }

    /// Notifies the controller that `lpn` was overwritten or trimmed.
    /// Returns `true` if the page was occupying pool space.
    pub fn on_invalidate(&mut self, lpn: u64) -> bool {
        self.identifier.invalidate(lpn);
        self.pool.remove(lpn)
    }

    /// Behaviour counters.
    pub fn stats(&self) -> AccessEvalStats {
        self.stats
    }

    /// The ReducedCell pool.
    pub fn pool(&self) -> &ReducedCellPool {
        &self.pool
    }

    /// The HLO identifier.
    pub fn identifier(&self) -> &HloIdentifier {
        &self.identifier
    }

    /// Captures the controller's mutable state for checkpointing.
    pub fn snapshot(&self) -> AccessEvalSnapshot {
        AccessEvalSnapshot {
            read_counts: self.identifier.snapshot(),
            reads_since_aging: self.identifier.reads_since_aging,
            pool: self.pool.pages.entries(),
            pool_next_seq: self.pool.pages.next_seq(),
            stats: self.stats,
        }
    }

    /// Restores the state captured by [`snapshot`](Self::snapshot) into a
    /// controller built with the *same* configuration, validating the
    /// pool entries (untrusted input fails typed, never panics). The
    /// per-page columns grow to the largest LPN listed, so callers
    /// holding an untrusted snapshot bound its LPNs first.
    ///
    /// # Errors
    ///
    /// A static description of the first inconsistency found.
    pub fn restore(&mut self, snap: &AccessEvalSnapshot) -> Result<(), &'static str> {
        let pages = LruSet::from_entries(self.pool.capacity(), &snap.pool, snap.pool_next_seq);
        self.pool.pages = pages.map_err(|e| match e {
            LruSnapshotError::OverCapacity => "pool snapshot exceeds capacity",
            LruSnapshotError::SequenceNotBelowCounter => {
                "pool entry at or after the sequence counter"
            }
            LruSnapshotError::DuplicateSequence => "duplicate pool sequence",
            LruSnapshotError::DuplicatePage => "duplicate pooled page",
        })?;
        self.identifier
            .restore(&snap.read_counts, snap.reads_since_aging);
        self.stats = snap.stats;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config(pool: u64) -> AccessEvalConfig {
        AccessEvalConfig {
            freq_levels: 2,
            sensing_buckets: 2,
            overhead_threshold: 2,
            pool_pages: pool,
            hot_read_threshold: 4,
            aging_period: 1 << 20,
        }
    }

    #[test]
    fn paper_config_pool_size() {
        let cfg = AccessEvalConfig::paper(16 * 1024);
        // 64 GB of 16 KB pages.
        assert_eq!(cfg.pool_pages, 4 * 1024 * 1024);
        assert_eq!(cfg.freq_levels, 2);
        assert_eq!(cfg.sensing_buckets, 2);
    }

    #[test]
    fn metadata_budget_matches_paper() {
        // Paper §5: 32 GB of reduced pages at 16 KB/page and 4 B/entry
        // costs 8 MB of metadata.
        let pool = ReducedCellPool::new(32 * (1u64 << 30) / (16 * 1024));
        assert_eq!(pool.metadata_bytes(), 8 * (1 << 20));
    }

    #[test]
    fn freq_levels_grow_with_reads() {
        let mut id = HloIdentifier::new(small_config(8));
        assert_eq!(id.freq_level(1), 1);
        for _ in 0..3 {
            id.record_read(1);
        }
        assert_eq!(id.freq_level(1), 1, "below threshold stays cold");
        id.record_read(1);
        assert_eq!(id.freq_level(1), 2, "threshold reached");
    }

    #[test]
    fn sensing_buckets() {
        let id = HloIdentifier::new(small_config(8));
        assert_eq!(id.sensing_bucket(0, 6), 1, "hard decision is cheap");
        assert_eq!(id.sensing_bucket(1, 6), 1, "lower half stays bucket 1");
        assert_eq!(id.sensing_bucket(3, 6), 1);
        assert_eq!(id.sensing_bucket(4, 6), 2, "upper half is expensive");
        assert_eq!(id.sensing_bucket(6, 6), 2);
        // Degenerate cases.
        assert_eq!(id.sensing_bucket(3, 0), 1);
    }

    #[test]
    fn overhead_is_product() {
        let id = HloIdentifier::new(small_config(8));
        assert_eq!(id.overhead(2, 2), 4);
        assert_eq!(id.overhead(1, 2), 2);
        assert_eq!(id.overhead(2, 1), 2);
        assert_eq!(id.overhead(1, 1), 1);
    }

    #[test]
    fn only_hot_and_expensive_is_hlo() {
        let mut id = HloIdentifier::new(small_config(8));
        // Cold + expensive: overhead 1×2 = 2, not > 2.
        assert!(!id.evaluate(1, 4, 6));
        // Hot + cheap: overhead 2×1 = 2, not > 2.
        for _ in 0..10 {
            id.record_read(2);
        }
        assert!(!id.evaluate(2, 0, 6));
        // Hot + expensive: overhead 4 > 2.
        for _ in 0..10 {
            id.record_read(3);
        }
        assert!(id.evaluate(3, 4, 6));
    }

    #[test]
    fn aging_halves_counters() {
        let mut id = HloIdentifier::new(small_config(8));
        for _ in 0..8 {
            id.record_read(1);
        }
        id.record_read(2);
        assert_eq!(id.tracked_pages(), 2);
        id.age();
        assert_eq!(id.freq_level(1), 2, "8/2 = 4 still hot");
        assert_eq!(id.tracked_pages(), 1, "1/2 = 0 dropped");
        id.age();
        assert_eq!(id.freq_level(1), 1, "4/2 = 2 cooled off");
    }

    #[test]
    fn read_counter_stays_two_words() {
        // Bytes per logical page of the HLO column; DESIGN.md §5
        // budgets it.
        assert_eq!(std::mem::size_of::<ReadCount>(), 8);
    }

    #[test]
    fn lazy_aging_survives_the_epoch_rebase() {
        let mut id = HloIdentifier::new(small_config(8));
        id.epoch_now = u32::MAX - 1;
        for _ in 0..40 {
            id.record_read(1);
        }
        id.record_read(2);
        id.age();
        assert_eq!(id.epoch_now, u32::MAX);
        // The pass at the last epoch rebases every stored count to 0.
        id.age();
        assert_eq!(id.epoch_now, 1);
        assert_eq!(id.snapshot(), vec![(1, 10)], "40 >> 2, 1 >> 2 dropped");
        id.record_read(1);
        id.age();
        assert_eq!(id.snapshot(), vec![(1, 5)], "(10 + 1) >> 1");
        for _ in 0..3 {
            id.age();
        }
        assert_eq!(id.tracked_pages(), 0);
        assert_eq!(id.freq_level(1), 1);
    }

    #[test]
    fn pool_lru_eviction_order() {
        let mut pool = ReducedCellPool::new(2);
        assert!(pool.is_empty());
        assert_eq!(pool.insert(1), None);
        assert_eq!(pool.insert(2), None);
        // Touch 1 so 2 becomes LRU.
        pool.touch(1);
        assert_eq!(pool.insert(3), Some(2));
        assert!(pool.contains(1));
        assert!(pool.contains(3));
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn pool_reinsert_touches() {
        let mut pool = ReducedCellPool::new(2);
        pool.insert(1);
        pool.insert(2);
        // Re-inserting 1 must not evict, only refresh recency.
        assert_eq!(pool.insert(1), None);
        assert_eq!(pool.insert(3), Some(2));
    }

    #[test]
    fn pool_remove() {
        let mut pool = ReducedCellPool::new(2);
        pool.insert(1);
        assert!(pool.remove(1));
        assert!(!pool.remove(1));
        assert!(pool.is_empty());
    }

    #[test]
    fn touch_of_absent_page_is_noop() {
        let mut pool = ReducedCellPool::new(2);
        pool.touch(99);
        assert!(pool.is_empty());
    }

    #[test]
    fn controller_promotes_hot_expensive_data() {
        let mut ctrl = AccessEvalController::new(small_config(4));
        // Warm up LPN 5 past the hot threshold with expensive reads.
        let mut promoted = false;
        for _ in 0..8 {
            let migs = ctrl.on_read(5, 4, 6);
            if migs
                .iter()
                .any(|m| matches!(m, Migration::PromoteToReduced { lpn: 5 }))
            {
                promoted = true;
            }
        }
        assert!(promoted);
        assert_eq!(ctrl.placement(5), Placement::Reduced);
        assert_eq!(ctrl.stats().promotions, 1);
        // Subsequent reads hit the pool and need no migration.
        assert!(ctrl.on_read(5, 4, 6).is_empty());
        assert!(ctrl.stats().reduced_hits >= 1);
    }

    #[test]
    fn controller_demotes_lru_when_full() {
        let mut ctrl = AccessEvalController::new(small_config(1));
        for _ in 0..8 {
            ctrl.on_read(1, 4, 6);
        }
        assert_eq!(ctrl.placement(1), Placement::Reduced);
        for _ in 0..8 {
            ctrl.on_read(2, 4, 6);
        }
        // Pool holds one page: promoting 2 demoted 1.
        assert_eq!(ctrl.placement(2), Placement::Reduced);
        assert_eq!(ctrl.placement(1), Placement::Normal);
        assert_eq!(ctrl.stats().demotions, 1);
    }

    #[test]
    fn controller_invalidate_frees_pool_space() {
        let mut ctrl = AccessEvalController::new(small_config(1));
        for _ in 0..8 {
            ctrl.on_read(1, 4, 6);
        }
        assert!(ctrl.on_invalidate(1));
        assert_eq!(ctrl.placement(1), Placement::Normal);
        assert!(!ctrl.on_invalidate(1), "second invalidate is a no-op");
    }

    #[test]
    fn snapshot_round_trips_controller_state() {
        let mut ctrl = AccessEvalController::new(small_config(4));
        for lpn in 0..6 {
            for _ in 0..8 {
                ctrl.on_read(lpn, 4, 6);
            }
        }
        let snap = ctrl.snapshot();
        assert!(snap.read_counts.windows(2).all(|w| w[0].0 < w[1].0));
        let mut restored = AccessEvalController::new(small_config(4));
        restored.restore(&snap).unwrap();
        assert_eq!(restored.snapshot(), snap);
        // The restored controller behaves identically going forward.
        for _ in 0..8 {
            assert_eq!(ctrl.on_read(9, 4, 6), restored.on_read(9, 4, 6));
        }
        assert_eq!(ctrl.stats(), restored.stats());
        // Corrupted snapshots fail typed.
        let mut bad = snap.clone();
        bad.pool.push((bad.pool_next_seq + 7, 12345));
        assert!(AccessEvalController::new(small_config(4))
            .restore(&bad)
            .is_err());
    }

    #[test]
    fn cheap_reads_never_migrate() {
        let mut ctrl = AccessEvalController::new(small_config(4));
        for lpn in 0..100 {
            assert!(ctrl.on_read(lpn, 0, 6).is_empty());
        }
        assert_eq!(ctrl.stats().promotions, 0);
        assert!(ctrl.pool().is_empty());
    }
}
