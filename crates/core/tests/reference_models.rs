//! The dense per-page structures against the map-based ones they
//! replaced, kept here as reference models: the two-map LRU (LPN →
//! sequence hash map plus a sequence-ordered B-tree) that the
//! ReducedCell pool and the write buffer each carried, and HLO read
//! counters aged eagerly by a `retain` pass that halves every count.
//! Random operation sequences must give identical evictions, lengths,
//! snapshots, snapshot errors, frequency levels and tracked-page counts.

use std::collections::{BTreeMap, HashMap};

use flexlevel::{
    AccessEvalConfig, AccessEvalController, AccessEvalSnapshot, AccessEvalStats, HloIdentifier,
    LruSet,
};
use proptest::prelude::*;

/// The two-map LRU, with the pool's insert and the buffer's write.
#[derive(Debug, Clone)]
struct MapLru {
    capacity: u64,
    next_seq: u64,
    by_lpn: HashMap<u64, u64>,
    by_seq: BTreeMap<u64, u64>,
}

impl MapLru {
    fn new(capacity: u64) -> MapLru {
        MapLru {
            capacity,
            next_seq: 0,
            by_lpn: HashMap::new(),
            by_seq: BTreeMap::new(),
        }
    }

    fn len(&self) -> u64 {
        self.by_lpn.len() as u64
    }

    fn contains(&self, lpn: u64) -> bool {
        self.by_lpn.contains_key(&lpn)
    }

    fn touch(&mut self, lpn: u64) {
        if let Some(old_seq) = self.by_lpn.get(&lpn).copied() {
            self.by_seq.remove(&old_seq);
            let seq = self.next_seq;
            self.next_seq += 1;
            self.by_seq.insert(seq, lpn);
            self.by_lpn.insert(lpn, seq);
        }
    }

    /// The pool's insert: a held page is touched.
    fn insert(&mut self, lpn: u64) -> Option<u64> {
        if self.contains(lpn) {
            self.touch(lpn);
            return None;
        }
        let evicted = if self.len() >= self.capacity {
            self.pop_lru()
        } else {
            None
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        self.by_seq.insert(seq, lpn);
        self.by_lpn.insert(lpn, seq);
        evicted
    }

    /// The buffer's write: a held page is removed and re-added.
    fn write(&mut self, lpn: u64) -> Option<u64> {
        if let Some(old_seq) = self.by_lpn.remove(&lpn) {
            self.by_seq.remove(&old_seq);
        }
        let evicted = if self.by_lpn.len() as u64 >= self.capacity {
            self.pop_lru()
        } else {
            None
        };
        let seq = self.next_seq;
        self.next_seq += 1;
        self.by_lpn.insert(lpn, seq);
        self.by_seq.insert(seq, lpn);
        evicted
    }

    fn pop_lru(&mut self) -> Option<u64> {
        let (&seq, &lpn) = self.by_seq.iter().next()?;
        self.by_seq.remove(&seq);
        self.by_lpn.remove(&lpn);
        Some(lpn)
    }

    fn remove(&mut self, lpn: u64) -> bool {
        if let Some(seq) = self.by_lpn.remove(&lpn) {
            self.by_seq.remove(&seq);
            true
        } else {
            false
        }
    }

    fn snapshot(&self) -> Vec<(u64, u64)> {
        self.by_seq.iter().map(|(&seq, &lpn)| (seq, lpn)).collect()
    }

    /// The pool's restore, with its error strings.
    fn from_snapshot(
        capacity: u64,
        entries: &[(u64, u64)],
        next_seq: u64,
    ) -> Result<MapLru, &'static str> {
        if entries.len() as u64 > capacity {
            return Err("pool snapshot exceeds capacity");
        }
        let mut lru = MapLru::new(capacity);
        for &(seq, lpn) in entries {
            if seq >= next_seq {
                return Err("pool entry at or after the sequence counter");
            }
            if lru.by_seq.insert(seq, lpn).is_some() {
                return Err("duplicate pool sequence");
            }
            if lru.by_lpn.insert(lpn, seq).is_some() {
                return Err("duplicate pooled page");
            }
        }
        lru.next_seq = next_seq;
        Ok(lru)
    }
}

/// HLO read counters aged by halving every count at once.
#[derive(Debug, Clone)]
struct EagerHlo {
    config: AccessEvalConfig,
    read_counts: HashMap<u64, u32>,
    reads_since_aging: u64,
}

impl EagerHlo {
    fn new(config: AccessEvalConfig) -> EagerHlo {
        EagerHlo {
            config,
            read_counts: HashMap::new(),
            reads_since_aging: 0,
        }
    }

    fn level(&self, count: u32) -> u32 {
        let n = self.config.freq_levels;
        if n <= 1 {
            return 1;
        }
        (1 + count / self.config.hot_read_threshold.max(1)).min(n)
    }

    fn record_read(&mut self, lpn: u64) -> u32 {
        let count = self.read_counts.entry(lpn).or_insert(0);
        *count = count.saturating_add(1);
        let count = *count;
        let level = self.level(count);
        self.reads_since_aging += 1;
        if self.reads_since_aging >= self.config.aging_period {
            self.age();
        }
        level
    }

    fn freq_level(&self, lpn: u64) -> u32 {
        self.level(self.read_counts.get(&lpn).copied().unwrap_or(0))
    }

    fn age(&mut self) {
        self.reads_since_aging = 0;
        self.read_counts.retain(|_, c| {
            *c /= 2;
            *c > 0
        });
    }

    fn snapshot(&self) -> Vec<(u64, u32)> {
        let mut out: Vec<(u64, u32)> = self.read_counts.iter().map(|(&l, &c)| (l, c)).collect();
        out.sort_unstable();
        out
    }
}

const LPNS: u64 = 24;

/// One random LRU operation, drawn as `(kind, lpn)`.
#[derive(Debug, Clone, Copy)]
enum LruOp {
    Insert(u64),
    Write(u64),
    Touch(u64),
    Remove(u64),
    PopLru,
    Restore,
}

impl LruOp {
    /// Weights 4:3:3:2:1:1 over the fourteen kinds.
    fn from_draw((kind, lpn): (u8, u64)) -> LruOp {
        match kind {
            0..=3 => LruOp::Insert(lpn),
            4..=6 => LruOp::Write(lpn),
            7..=9 => LruOp::Touch(lpn),
            10..=11 => LruOp::Remove(lpn),
            12 => LruOp::PopLru,
            _ => LruOp::Restore,
        }
    }
}

/// One random HLO operation, drawn as `(kind, lpn)`.
#[derive(Debug, Clone, Copy)]
enum HloOp {
    Read(u64),
    Invalidate(u64),
    Age,
}

impl HloOp {
    /// Weights 8:1:1 over the ten kinds.
    fn from_draw((kind, lpn): (u8, u64)) -> HloOp {
        match kind {
            0..=7 => HloOp::Read(lpn),
            8 => HloOp::Invalidate(lpn),
            _ => HloOp::Age,
        }
    }
}

/// A restore-only controller snapshot carrying `pool`.
fn pool_snapshot(pool: Vec<(u64, u64)>, next_seq: u64) -> AccessEvalSnapshot {
    AccessEvalSnapshot {
        read_counts: Vec::new(),
        reads_since_aging: 0,
        pool,
        pool_next_seq: next_seq,
        stats: AccessEvalStats::default(),
    }
}

fn hlo_config(hot: u32, levels: u32, period: u64) -> AccessEvalConfig {
    AccessEvalConfig {
        freq_levels: levels,
        sensing_buckets: 2,
        overhead_threshold: 2,
        pool_pages: 4,
        hot_read_threshold: hot,
        aging_period: period,
    }
}

proptest! {
    /// Every LRU operation, and a snapshot round trip at any point,
    /// agrees with the two-map model.
    #[test]
    fn lru_set_matches_the_two_map_model(
        capacity in 0u64..6,
        ops in proptest::collection::vec((0u8..14, 0..LPNS), 0..200),
    ) {
        let mut model = MapLru::new(capacity);
        let mut lru = LruSet::new(capacity);
        for op in ops.into_iter().map(LruOp::from_draw) {
            match op {
                LruOp::Insert(lpn) => prop_assert_eq!(lru.insert(lpn), model.insert(lpn)),
                LruOp::Write(lpn) => prop_assert_eq!(lru.insert(lpn), model.write(lpn)),
                LruOp::Touch(lpn) => {
                    lru.touch(lpn);
                    model.touch(lpn);
                }
                LruOp::Remove(lpn) => prop_assert_eq!(lru.remove(lpn), model.remove(lpn)),
                LruOp::PopLru => prop_assert_eq!(lru.pop_lru(), model.pop_lru()),
                LruOp::Restore => {
                    let restored_model =
                        MapLru::from_snapshot(capacity, &model.snapshot(), model.next_seq);
                    let restored = LruSet::from_entries(capacity, &lru.entries(), lru.next_seq());
                    match (restored_model, restored) {
                        (Ok(m), Ok(l)) => (model, lru) = (m, l),
                        // Both refuse a zero-capacity set's one page.
                        (Err(_), Err(_)) => prop_assert_eq!(capacity, 0),
                        (m, l) => prop_assert!(false, "model {:?} vs set {:?}", m.err(), l.err()),
                    }
                }
            }
            prop_assert_eq!(lru.len(), model.len());
            prop_assert_eq!(lru.next_seq(), model.next_seq);
            prop_assert_eq!(lru.entries(), model.snapshot());
            for lpn in 0..LPNS {
                prop_assert_eq!(lru.contains(lpn), model.contains(lpn));
            }
        }
    }

    /// Arbitrary (mostly malformed) snapshots: the pool restores exactly
    /// when the two-map model does, to the same entries, and otherwise
    /// fails with the same error string.
    #[test]
    fn snapshot_validation_matches_the_two_map_model(
        capacity in 0u64..8,
        entries in proptest::collection::vec((0u64..12, 0u64..8), 0..8),
        next_seq in 0u64..14,
    ) {
        let model = MapLru::from_snapshot(capacity, &entries, next_seq);
        let mut controller = AccessEvalController::new(hlo_config(4, 2, 1 << 20).with_pool_pages(capacity));
        let restored = controller.restore(&pool_snapshot(entries.clone(), next_seq));
        match model {
            Ok(model) => {
                prop_assert_eq!(restored, Ok(()));
                let snap = controller.snapshot();
                prop_assert_eq!(snap.pool, model.snapshot());
                prop_assert_eq!(snap.pool_next_seq, next_seq);
                let lru = LruSet::from_entries(capacity, &entries, next_seq)
                    .expect("the set accepts what the pool accepts");
                prop_assert_eq!(lru.entries(), model.snapshot());
            }
            Err(what) => prop_assert_eq!(restored, Err(what)),
        }
    }

    /// Lazy epoch aging reproduces eager halving: the same frequency
    /// level on every read, the same tracked pages and the same snapshot
    /// after every operation.
    #[test]
    fn lazy_aging_matches_eager_halving(
        hot in 1u32..6,
        levels in 1u32..4,
        period in 1u64..24,
        ops in proptest::collection::vec((0u8..10, 0..LPNS), 0..240),
    ) {
        let config = hlo_config(hot, levels, period);
        let mut model = EagerHlo::new(config);
        let mut hlo = HloIdentifier::new(config);
        for op in ops.into_iter().map(HloOp::from_draw) {
            match op {
                HloOp::Read(lpn) => prop_assert_eq!(hlo.record_read(lpn), model.record_read(lpn)),
                HloOp::Invalidate(lpn) => {
                    hlo.invalidate(lpn);
                    model.read_counts.remove(&lpn);
                }
                HloOp::Age => {
                    hlo.age();
                    model.age();
                }
            }
            prop_assert_eq!(hlo.tracked_pages(), model.read_counts.len());
            prop_assert_eq!(hlo.snapshot(), model.snapshot());
        }
        for lpn in 0..LPNS {
            prop_assert_eq!(hlo.freq_level(lpn), model.freq_level(lpn));
        }
    }
}
