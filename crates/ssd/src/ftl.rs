//! Page-mapping flash translation layer with greedy garbage collection.
//!
//! The FTL maps logical pages to physical pages, maintains per-block
//! validity state and write frontiers, and reclaims space with greedy
//! (min-valid-count) garbage collection — the FlashSim configuration the
//! paper evaluates on. FlexLevel extends the classic design with *block
//! modes*: a block can operate in normal (4-level) or reduced (3-level,
//! ReduceCode) mode. A reduced block stores only 75 % as many pages, and
//! a block's mode can change only while it is erased.

use std::collections::VecDeque;

use flash_model::{BlockId, CellMode, DeviceGeometry, PhysicalPage};
use serde::{Deserialize, Serialize};

use crate::recovery::ImageError;

/// Flash operation counts produced by one FTL action; the simulator turns
/// these into latency and statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpCost {
    /// Physical page reads.
    pub flash_reads: u64,
    /// Physical page programs.
    pub programs: u64,
    /// Block erases.
    pub erases: u64,
    /// Garbage-collection invocations.
    pub gc_runs: u64,
    /// Valid pages relocated by GC.
    pub gc_moved: u64,
}

impl OpCost {
    /// Accumulates another cost into this one.
    pub fn add(&mut self, other: OpCost) {
        self.flash_reads += other.flash_reads;
        self.programs += other.programs;
        self.erases += other.erases;
        self.gc_runs += other.gc_runs;
        self.gc_moved += other.gc_moved;
    }

    /// Appends the counts to a request's op chain `ops`: every internal
    /// read becomes a sense+transfer copy, every program a
    /// transfer+program, every erase an erase stage. All ops are routed
    /// at `lpn` — the page whose write or migration triggered the work —
    /// which keeps the expansion deterministic without threading
    /// physical block numbers through the simulator.
    pub fn push_ops(&self, lpn: u64, ops: &mut Vec<crate::pipeline::FlashOp>) {
        use crate::pipeline::FlashOp;
        use std::iter::repeat_n;
        ops.extend(repeat_n(FlashOp::GcRead { lpn }, self.flash_reads as usize));
        ops.extend(repeat_n(FlashOp::Program { lpn }, self.programs as usize));
        ops.extend(repeat_n(FlashOp::Erase { lpn }, self.erases as usize));
    }
}

/// FTL failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FtlError {
    /// The logical page is outside the exported capacity.
    LpnOutOfRange {
        /// The offending logical page.
        lpn: u64,
    },
    /// No free block could be reclaimed — the device is overfilled (the
    /// logical working set exceeds what the current mode mix can store).
    OutOfSpace,
}

impl std::fmt::Display for FtlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FtlError::LpnOutOfRange { lpn } => write!(f, "logical page {lpn} out of range"),
            FtlError::OutOfSpace => write!(f, "no reclaimable space left on device"),
        }
    }
}

impl std::error::Error for FtlError {}

/// Page slots of a block in `mode`: ReduceCode stores 3 bits per 2
/// cells, so a reduced block holds 75 % of the slots.
fn usable_pages(mode: CellMode, pages_per_block: u32) -> u32 {
    match mode {
        CellMode::Normal => pages_per_block,
        CellMode::Reduced => pages_per_block * 3 / 4,
    }
}

/// Garbage-collection victim-selection policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum GcPolicy {
    /// Pure greedy: fewest valid pages wins (FlashSim default; what the
    /// paper evaluates on).
    #[default]
    Greedy,
    /// Greedy with wear leveling: ties on valid count break toward the
    /// least-erased block, spreading wear at zero extra relocation cost.
    WearAware,
}

/// One append-only journal entry: a primitive FTL mutation between a
/// checkpoint and a crash, in live mutation order. Replaying any journal
/// prefix over the checkpoint image reproduces the exact FTL state at
/// that point — this is what makes the device crash-consistent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalRecord {
    /// A page program: `lpn` landed at (`block`, `page`) in `mode`.
    Write {
        /// Logical page written.
        lpn: u64,
        /// Destination block.
        block: BlockId,
        /// Destination page slot within the block.
        page: u32,
        /// Cell mode of the destination block.
        mode: CellMode,
    },
    /// The previous copy of `lpn` was invalidated (overwrite or trim).
    Invalidate {
        /// Logical page whose mapping was dropped.
        lpn: u64,
    },
    /// A mapping restored without a program — the failed-retirement
    /// rollback re-exposing a copy that never left the flash array.
    Map {
        /// Logical page restored.
        lpn: u64,
        /// Block holding the surviving copy.
        block: BlockId,
        /// Page slot holding the surviving copy.
        page: u32,
    },
    /// `block` was erased and returned to the free pool (GC).
    Erase {
        /// The erased block.
        block: BlockId,
    },
    /// `block` was permanently retired as grown-bad.
    Retire {
        /// The retired block.
        block: BlockId,
    },
    /// The host request with this index was acknowledged: every record
    /// before this one is covered by the ack.
    Commit {
        /// Zero-based index of the acknowledged request in the trace.
        request: u64,
    },
}

/// A program interrupted by power loss. The page reads back
/// uncorrectable, so recovery must detect the slot and burn it — never
/// serve it as data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TornPage {
    /// Block holding the torn page.
    pub block: BlockId,
    /// Page slot within the block.
    pub page: u32,
}

/// What [`PageMapFtl::recover`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Journal records replayed onto the checkpoint image.
    pub journal_replayed: u64,
    /// Torn (interrupted-program) pages detected and discarded.
    pub torn_pages_discarded: u64,
}

/// One block's state: the live FTL's block table and an [`FtlImage`]
/// hold the same record.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockImage {
    /// Cell mode.
    pub mode: CellMode,
    /// Next unwritten page slot (`0..usable_pages`).
    pub frontier: u32,
    /// Valid (live) pages.
    pub valid: u32,
    /// Lifetime erase count.
    pub erases: u32,
    /// Grown-bad: the block failed a program status check and was
    /// permanently removed from service (never allocated, never a GC
    /// victim).
    pub retired: bool,
    /// Reverse map: which LPN each written page slot holds (`None` once
    /// invalidated).
    pub slots: Vec<Option<u64>>,
}

/// Durable snapshot of the FTL: geometry parameters, per-block state,
/// free-pool order and write frontiers. The logical→physical mapping is
/// *not* stored — [`PageMapFtl::from_image`] rebuilds it from the
/// per-block reverse maps and then audits the result (an LPN appearing
/// in two slots is corruption, not a valid state).
#[derive(Debug, Clone, PartialEq)]
pub struct FtlImage {
    /// Physical block count (geometry).
    pub blocks: u32,
    /// Pages per block (geometry).
    pub pages_per_block: u32,
    /// Page payload bytes (geometry).
    pub page_bytes: u32,
    /// Over-provisioning percent (geometry).
    pub over_provisioning_pct: u32,
    /// GC trigger watermark.
    pub gc_low_watermark: u32,
    /// GC victim policy.
    pub gc_policy: GcPolicy,
    /// Per-block state, indexed by block id.
    pub block_states: Vec<BlockImage>,
    /// Free-pool order, front (next allocation) first.
    pub free: Vec<u32>,
    /// Active write frontier per mode (normal, reduced).
    pub frontier: [Option<u32>; 2],
}

/// FNV-1a, the repo's standard content fingerprint (also used for the
/// config fingerprint in [`crate::recovery`]).
pub(crate) struct Fnv(pub(crate) u64);

impl Fnv {
    pub(crate) fn new() -> Fnv {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    pub(crate) fn byte(&mut self, b: u8) {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
    }

    pub(crate) fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.byte(b);
        }
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// The page-mapping FTL.
#[derive(Debug, Clone)]
pub struct PageMapFtl {
    geometry: DeviceGeometry,
    blocks: Vec<BlockImage>,
    mapping: Vec<Option<PhysicalPage>>,
    free: VecDeque<BlockId>,
    frontier: [Option<BlockId>; 2],
    gc_low_watermark: u32,
    gc_policy: GcPolicy,
    /// Guards against re-entrant GC: relocations allocate from the free
    /// pool only, so an overfilled device errors instead of recursing.
    gc_active: bool,
    /// Append-only mutation journal, `Some` only between a checkpoint
    /// and the next crash/checkpoint; `None` keeps steady-state runs
    /// allocation-free.
    journal: Option<Vec<JournalRecord>>,
    /// Mutations since the last periodic debug invariant sweep.
    ops_since_check: u64,
}

fn mode_index(mode: CellMode) -> usize {
    match mode {
        CellMode::Normal => 0,
        CellMode::Reduced => 1,
    }
}

impl PageMapFtl {
    /// Creates an FTL over `geometry` with all blocks free and in normal
    /// mode. GC triggers when the free-block count falls to
    /// `gc_low_watermark` (min 2: one per mode frontier must always be
    /// obtainable).
    pub fn new(geometry: DeviceGeometry, gc_low_watermark: u32) -> PageMapFtl {
        let blank = BlockImage {
            mode: CellMode::Normal,
            frontier: 0,
            valid: 0,
            erases: 0,
            retired: false,
            slots: vec![None; geometry.pages_per_block() as usize],
        };
        let blocks = vec![blank; geometry.blocks() as usize];
        PageMapFtl {
            geometry,
            blocks,
            mapping: vec![None; geometry.logical_pages() as usize],
            free: geometry.block_ids().collect(),
            frontier: [None, None],
            gc_low_watermark: gc_low_watermark.max(4),
            gc_policy: GcPolicy::Greedy,
            gc_active: false,
            journal: None,
            ops_since_check: 0,
        }
    }

    /// Selects the GC victim policy (default [`GcPolicy::Greedy`]).
    #[must_use]
    pub fn with_gc_policy(mut self, policy: GcPolicy) -> PageMapFtl {
        self.gc_policy = policy;
        self
    }

    /// The device geometry.
    pub fn geometry(&self) -> &DeviceGeometry {
        &self.geometry
    }

    /// Exported logical capacity in pages.
    pub fn logical_pages(&self) -> u64 {
        self.mapping.len() as u64
    }

    /// Where `lpn` currently lives, with the block's cell mode.
    pub fn placement(&self, lpn: u64) -> Option<(PhysicalPage, CellMode)> {
        let phys = (*self.mapping.get(lpn as usize)?)?;
        Some((phys, self.blocks[phys.block.0 as usize].mode))
    }

    /// Erase count of a block (its P/E wear within the simulation).
    pub fn block_erases(&self, block: BlockId) -> u32 {
        self.blocks[block.0 as usize].erases
    }

    /// Total erases across the device.
    pub fn total_erases(&self) -> u64 {
        self.blocks.iter().map(|b| b.erases as u64).sum()
    }

    /// Number of blocks currently operating in reduced mode.
    pub fn reduced_blocks(&self) -> u32 {
        self.blocks
            .iter()
            .filter(|b| b.mode == CellMode::Reduced)
            .count() as u32
    }

    /// Free (erased, unassigned) blocks.
    pub fn free_blocks(&self) -> u32 {
        self.free.len() as u32
    }

    /// Blocks retired as grown-bad.
    pub fn retired_blocks(&self) -> u32 {
        self.blocks.iter().filter(|b| b.retired).count() as u32
    }

    /// `true` if `block` has been retired from service.
    pub fn is_retired(&self, block: BlockId) -> bool {
        self.blocks[block.0 as usize].retired
    }

    /// The live logical pages currently stored in `block`, in slot order
    /// (patrol-scrub iteration and retirement relocation).
    pub fn block_lpns(&self, block: BlockId) -> Vec<u64> {
        self.blocks[block.0 as usize]
            .slots
            .iter()
            .flatten()
            .copied()
            .collect()
    }

    /// Permanently retires `block` as grown-bad: its live pages are
    /// relocated (read + program each, *no* erase — the block is dead,
    /// not recycled) and it never serves allocations or GC again, so the
    /// device's usable capacity shrinks by one block.
    ///
    /// Retiring an already-retired block is a no-op. Returns the flash
    /// work performed.
    ///
    /// # Errors
    ///
    /// [`FtlError::OutOfSpace`] if the relocations cannot be placed —
    /// enough grown-bad blocks legitimately make the device unusable.
    /// The failure is transactional per page: the page whose relocation
    /// failed keeps its original (still intact) copy, the block returns
    /// to service un-retired, and no mapping is lost. Pages already
    /// relocated stay at their new homes.
    pub fn retire_block(&mut self, block: BlockId) -> Result<OpCost, FtlError> {
        let mut cost = OpCost::default();
        let idx = block.0 as usize;
        if self.blocks[idx].retired {
            return Ok(cost);
        }
        // Remove the block from every allocation source *before*
        // relocating, so its pages cannot land back inside it. The
        // `Retire` record is journaled only once the block is empty.
        self.apply_retire(block);
        let mode = self.blocks[idx].mode;
        for lpn in self.block_lpns(block) {
            cost.flash_reads += 1;
            let old = self.mapping[lpn as usize];
            self.invalidate(lpn);
            if let Err(e) = self.program_next(lpn, mode, &mut cost) {
                // Out of space mid-retirement. The copy in this block
                // never left the array, so re-expose it rather than
                // lose an acknowledged write, and keep the block in
                // service: a partly-evacuated bad block beats a
                // corrupted frontier or a panic.
                if let Some(phys) = old {
                    self.apply_map(lpn, phys);
                }
                self.blocks[idx].retired = false;
                self.debug_full_check("failed retirement rollback");
                return Err(e);
            }
        }
        debug_assert_eq!(self.blocks[idx].valid, 0, "all live pages were relocated");
        self.journal_push(JournalRecord::Retire { block });
        self.debug_full_check("block retirement");
        Ok(cost)
    }

    /// Writes `lpn` into a page of the requested `mode`, invalidating any
    /// previous copy. Returns the flash operations performed (the program
    /// itself plus any garbage collection it triggered).
    ///
    /// # Errors
    ///
    /// [`FtlError::LpnOutOfRange`] for an invalid LPN;
    /// [`FtlError::OutOfSpace`] if GC cannot reclaim a free block.
    pub fn write(&mut self, lpn: u64, mode: CellMode) -> Result<OpCost, FtlError> {
        if lpn >= self.logical_pages() {
            return Err(FtlError::LpnOutOfRange { lpn });
        }
        let mut cost = OpCost::default();
        self.invalidate(lpn);
        self.program_next(lpn, mode, &mut cost)?;
        // Keep the free pool above the watermark for the next allocation.
        cost.add(self.collect_if_needed()?);
        self.debug_tick(lpn);
        Ok(cost)
    }

    /// Drops the mapping of `lpn` (overwrite or trim), marking its
    /// physical page invalid.
    pub fn invalidate(&mut self, lpn: u64) {
        if let Some(Some(phys)) = self.mapping.get(lpn as usize).copied() {
            let block = &mut self.blocks[phys.block.0 as usize];
            if block.slots[phys.page as usize].take().is_some() {
                block.valid -= 1;
            }
            self.mapping[lpn as usize] = None;
            self.journal_push(JournalRecord::Invalidate { lpn });
            self.debug_tick(lpn);
        }
    }

    // One applier per journal record kind. The live paths and
    // `recover` call the same function for a record, so replay matches
    // the live FTL by construction; `invalidate` is the `Invalidate`
    // applier. Replay runs with the journal off, so the pushes below
    // record only live mutations.

    /// `Write`: `lpn` lands on `phys`, the next slot of its block.
    /// Programming a block's first page takes it out of the free pool,
    /// switched to `mode` (legal: the block is erased); the block is
    /// then `mode`'s write frontier.
    fn apply_program(&mut self, lpn: u64, phys: PhysicalPage, mode: CellMode) {
        let block = &mut self.blocks[phys.block.0 as usize];
        if block.frontier == 0 {
            block.mode = mode;
            if let Some(at) = self.free.iter().position(|&b| b == phys.block) {
                self.free.remove(at);
            }
        }
        block.frontier += 1;
        self.link(lpn, phys);
        self.frontier[mode_index(mode)] = Some(phys.block);
        self.journal_push(JournalRecord::Write {
            lpn,
            block: phys.block,
            page: phys.page,
            mode,
        });
    }

    /// `Map`: re-exposes the surviving copy of `lpn` at `phys` without a
    /// program (the failed-retirement rollback).
    fn apply_map(&mut self, lpn: u64, phys: PhysicalPage) {
        self.link(lpn, phys);
        self.journal_push(JournalRecord::Map {
            lpn,
            block: phys.block,
            page: phys.page,
        });
    }

    /// Points `lpn` and the slot at `phys` at each other.
    fn link(&mut self, lpn: u64, phys: PhysicalPage) {
        let block = &mut self.blocks[phys.block.0 as usize];
        block.slots[phys.page as usize] = Some(lpn);
        block.valid += 1;
        self.mapping[lpn as usize] = Some(phys);
    }

    /// `Erase`: the emptied `block` reverts to an erased normal-mode
    /// block at the back of the free pool.
    fn apply_erase(&mut self, block: BlockId) {
        let state = &mut self.blocks[block.0 as usize];
        state.slots.iter_mut().for_each(|s| *s = None);
        state.frontier = 0;
        state.erases += 1;
        state.mode = CellMode::Normal;
        self.drop_frontier(block);
        self.free.push_back(block);
        self.journal_push(JournalRecord::Erase { block });
    }

    /// `Retire`: `block` leaves service — out of the free pool and off
    /// every write frontier. Journaling is left to
    /// [`retire_block`](Self::retire_block), which appends the record
    /// only after the block's pages are relocated.
    fn apply_retire(&mut self, block: BlockId) {
        self.drop_frontier(block);
        self.free.retain(|&b| b != block);
        self.blocks[block.0 as usize].retired = true;
    }

    fn drop_frontier(&mut self, block: BlockId) {
        for f in &mut self.frontier {
            if *f == Some(block) {
                *f = None;
            }
        }
    }

    /// Programs `lpn` into the next page slot of the `mode` frontier,
    /// opening the free pool's front block when the frontier is full.
    fn program_next(
        &mut self,
        lpn: u64,
        mode: CellMode,
        cost: &mut OpCost,
    ) -> Result<(), FtlError> {
        let idx = mode_index(mode);
        let usable = usable_pages(mode, self.geometry.pages_per_block());
        let next =
            self.frontier[idx].map(|b| PhysicalPage::new(b, self.blocks[b.0 as usize].frontier));
        let phys = match next {
            Some(phys) if phys.page < usable => phys,
            _ => {
                self.frontier[idx] = None; // frontier exhausted
                let block = match self.free.front() {
                    Some(&b) => b,
                    None if !self.gc_active => {
                        // Emergency reclaim: the caller's GC watermark keeps
                        // this rare, but frontier turnover can exhaust frees.
                        self.collect_once(cost)?;
                        *self.free.front().ok_or(FtlError::OutOfSpace)?
                    }
                    // Mid-GC allocations must come from the free pool: the
                    // watermark guarantees headroom, and re-entering GC here
                    // could recurse without bound on an overfilled device.
                    None => return Err(FtlError::OutOfSpace),
                };
                PhysicalPage::new(block, 0)
            }
        };
        self.apply_program(lpn, phys, mode);
        cost.programs += 1;
        Ok(())
    }

    /// Runs GC until the free pool is above the watermark, or until no
    /// block with reclaimable (invalid) pages remains — a device running
    /// at minimal over-provisioning legitimately idles below the
    /// watermark and reclaims lazily on demand.
    fn collect_if_needed(&mut self) -> Result<OpCost, FtlError> {
        let mut cost = OpCost::default();
        while (self.free.len() as u32) < self.gc_low_watermark {
            if !self.collect_once(&mut cost)? {
                break; // nothing reclaimable right now
            }
        }
        Ok(cost)
    }

    /// One greedy GC pass: relocate the min-valid block's live pages and
    /// erase it. Returns `Ok(false)` when no reclaimable victim exists.
    fn collect_once(&mut self, cost: &mut OpCost) -> Result<bool, FtlError> {
        let Some(victim) = self.pick_victim() else {
            return Ok(false);
        };
        self.gc_active = true;
        let result = self.collect_block(victim, cost);
        self.gc_active = false;
        result.map(|()| true)
    }

    fn collect_block(&mut self, victim: BlockId, cost: &mut OpCost) -> Result<(), FtlError> {
        cost.gc_runs += 1;
        let victim_mode = self.blocks[victim.0 as usize].mode;
        // Snapshot live pages; relocation programs invalidate them.
        for lpn in self.block_lpns(victim) {
            cost.flash_reads += 1;
            cost.gc_moved += 1;
            // Relocate within the same mode so pool/placement decisions
            // made by the policy layer survive GC.
            self.invalidate(lpn);
            self.program_next(lpn, victim_mode, cost)?;
        }
        debug_assert_eq!(
            self.blocks[victim.0 as usize].valid, 0,
            "all live pages were relocated"
        );
        self.apply_erase(victim);
        cost.erases += 1;
        self.debug_full_check("gc relocation");
        Ok(())
    }

    /// Greedy victim selection: the non-frontier, non-free block with the
    /// fewest valid pages (ties broken by lowest id). Blocks with no
    /// invalid pages are never picked — relocating them reclaims nothing
    /// and could cycle forever on a freshly filled device.
    fn pick_victim(&self) -> Option<BlockId> {
        // Score: (valid pages, tiebreak) — wear-aware mode breaks ties
        // (within one valid page) toward the least-erased block.
        let mut best: Option<(u32, u32, BlockId)> = None;
        for (i, block) in self.blocks.iter().enumerate() {
            let id = BlockId(i as u32);
            if block.retired {
                continue; // grown-bad: nothing to reclaim, ever
            }
            if self.frontier.contains(&Some(id)) {
                continue;
            }
            if block.frontier == 0 {
                continue; // unwritten (free or already erased)
            }
            if block.valid >= block.frontier {
                continue; // every written page is still valid
            }
            let tiebreak = match self.gc_policy {
                GcPolicy::Greedy => 0,
                GcPolicy::WearAware => block.erases,
            };
            let better = match best {
                None => true,
                // Strictly fewer valid pages always wins (same relocation
                // work as pure greedy); equal counts break toward the
                // policy's tiebreak (0 for greedy = first block wins).
                Some((v, t, _)) => block.valid < v || (block.valid == v && tiebreak < t),
            };
            if better {
                best = Some((block.valid, tiebreak, id));
            }
        }
        best.map(|(_, _, id)| id)
    }

    /// Spread of erase counts across blocks `(min, max)` — wear-leveling
    /// diagnostics.
    pub fn erase_spread(&self) -> (u32, u32) {
        let mut min = u32::MAX;
        let mut max = 0;
        for b in &self.blocks {
            min = min.min(b.erases);
            max = max.max(b.erases);
        }
        (if min == u32::MAX { 0 } else { min }, max)
    }

    /// Counts valid pages across the device (test/debug invariant).
    pub fn total_valid_pages(&self) -> u64 {
        self.blocks.iter().map(|b| b.valid as u64).sum()
    }

    /// Starts (or restarts) the append-only mutation journal: subsequent
    /// writes, invalidations, GC moves and retirements append
    /// [`JournalRecord`]s. The simulator calls this when it checkpoints;
    /// journaling is off by default.
    pub fn enable_journal(&mut self) {
        self.journal = Some(Vec::new());
    }

    /// The journal accumulated since [`enable_journal`](Self::enable_journal),
    /// or `None` when journaling is off.
    pub fn journal(&self) -> Option<&[JournalRecord]> {
        self.journal.as_deref()
    }

    /// Appends a [`JournalRecord::Commit`] marking host request
    /// `request` as acknowledged (no-op when journaling is off).
    pub fn record_commit(&mut self, request: u64) {
        self.journal_push(JournalRecord::Commit { request });
    }

    #[inline]
    fn journal_push(&mut self, record: JournalRecord) {
        if let Some(journal) = self.journal.as_mut() {
            journal.push(record);
        }
    }

    /// Debug-build consistency hooks on the write/invalidate hot path: a
    /// cheap local mapping↔reverse-map check on every mutation plus a
    /// full [`check_invariants`](Self::check_invariants) sweep every
    /// 1024 mutations.
    #[inline]
    fn debug_tick(&mut self, lpn: u64) {
        self.ops_since_check = self.ops_since_check.wrapping_add(1);
        #[cfg(debug_assertions)]
        {
            if let Some(Some(phys)) = self.mapping.get(lpn as usize).copied() {
                let slot = self.blocks[phys.block.0 as usize].slots[phys.page as usize];
                assert_eq!(
                    slot,
                    Some(lpn),
                    "mapping and reverse map disagree for lpn {lpn}"
                );
            }
            if self.ops_since_check >= 1024 {
                self.ops_since_check = 0;
                self.debug_full_check("periodic sweep");
            }
        }
        #[cfg(not(debug_assertions))]
        let _ = lpn;
    }

    /// Debug-build full invariant sweep; a violation is a simulator bug,
    /// so it panics with the failing invariant and the mutating context.
    fn debug_full_check(&self, context: &str) {
        #[cfg(debug_assertions)]
        if let Err(detail) = self.check_invariants() {
            panic!("FTL invariant violated after {context}: {detail}");
        }
        #[cfg(not(debug_assertions))]
        let _ = context;
    }

    /// Verifies every structural FTL invariant, returning a description
    /// of the first violation found:
    ///
    /// - every live LPN maps to exactly one valid physical page, and the
    ///   per-block reverse maps agree with the forward mapping;
    /// - per-block valid counts reconcile with the reverse maps;
    /// - no slot at or beyond a block's write frontier holds data, and
    ///   no frontier exceeds the block's usable pages;
    /// - the free pool holds only erased, unretired blocks, without
    ///   duplicates;
    /// - active write frontiers point at in-service blocks of the
    ///   matching mode that are not simultaneously free.
    ///
    /// Debug builds run this after GC and retirement and periodically
    /// during writes; [`from_image`](Self::from_image) and
    /// [`recover`](Self::recover) run it unconditionally on the state
    /// they rebuild.
    pub fn check_invariants(&self) -> Result<(), String> {
        let ppb = self.geometry.pages_per_block();
        if self.blocks.len() != self.geometry.blocks() as usize {
            return Err(format!(
                "block table holds {} entries for {} physical blocks",
                self.blocks.len(),
                self.geometry.blocks()
            ));
        }
        if self.mapping.len() != self.geometry.logical_pages() as usize {
            return Err(format!(
                "mapping holds {} entries for {} logical pages",
                self.mapping.len(),
                self.geometry.logical_pages()
            ));
        }
        for (i, block) in self.blocks.iter().enumerate() {
            if block.slots.len() != ppb as usize {
                return Err(format!(
                    "block {i}: reverse map has {} slots, geometry has {ppb}",
                    block.slots.len()
                ));
            }
            if block.frontier > usable_pages(block.mode, ppb) {
                return Err(format!(
                    "block {i}: frontier {} beyond {} usable pages",
                    block.frontier,
                    usable_pages(block.mode, ppb)
                ));
            }
            let mut valid = 0u32;
            for (page, slot) in block.slots.iter().enumerate() {
                let Some(lpn) = *slot else { continue };
                if page as u32 >= block.frontier {
                    return Err(format!(
                        "block {i} page {page}: data at or beyond frontier {}",
                        block.frontier
                    ));
                }
                valid += 1;
                let expected = PhysicalPage::new(BlockId(i as u32), page as u32);
                match self.mapping.get(lpn as usize) {
                    Some(Some(phys)) if *phys == expected => {}
                    Some(Some(phys)) => {
                        return Err(format!(
                            "lpn {lpn}: reverse map says block {i} page {page}, \
                             mapping says block {} page {}",
                            phys.block.0, phys.page
                        ));
                    }
                    Some(None) => {
                        return Err(format!(
                            "lpn {lpn}: live in block {i} page {page} but unmapped"
                        ));
                    }
                    None => {
                        return Err(format!(
                            "block {i} page {page}: slot holds out-of-range lpn {lpn}"
                        ));
                    }
                }
            }
            if valid != block.valid {
                return Err(format!(
                    "block {i}: valid count {} but {valid} live slots",
                    block.valid
                ));
            }
        }
        for (lpn, mapped) in self.mapping.iter().enumerate() {
            let Some(phys) = mapped else { continue };
            let slot = self
                .blocks
                .get(phys.block.0 as usize)
                .and_then(|b| b.slots.get(phys.page as usize))
                .copied()
                .flatten();
            if slot != Some(lpn as u64) {
                return Err(format!(
                    "lpn {lpn}: mapped to block {} page {} but that slot holds {slot:?}",
                    phys.block.0, phys.page
                ));
            }
        }
        let mut in_free = vec![false; self.blocks.len()];
        for &BlockId(b) in &self.free {
            let Some(state) = self.blocks.get(b as usize) else {
                return Err(format!("free pool references unknown block {b}"));
            };
            if in_free[b as usize] {
                return Err(format!("block {b} appears twice in the free pool"));
            }
            in_free[b as usize] = true;
            if state.retired {
                return Err(format!("retired block {b} in the free pool"));
            }
            if state.frontier != 0 || state.valid != 0 {
                return Err(format!(
                    "free block {b} is not erased (frontier {}, valid {})",
                    state.frontier, state.valid
                ));
            }
        }
        for (idx, entry) in self.frontier.iter().enumerate() {
            let Some(BlockId(b)) = *entry else { continue };
            let Some(state) = self.blocks.get(b as usize) else {
                return Err(format!("frontier {idx} references unknown block {b}"));
            };
            if state.retired {
                return Err(format!("frontier {idx} points at retired block {b}"));
            }
            if in_free[b as usize] {
                return Err(format!("frontier {idx} points at free block {b}"));
            }
            if mode_index(state.mode) != idx {
                return Err(format!(
                    "frontier {idx} points at block {b} of the wrong mode"
                ));
            }
        }
        Ok(())
    }

    /// FNV-1a fingerprint over the complete canonical FTL state:
    /// per-block metadata and reverse maps, the forward mapping, free
    /// order, frontiers and GC configuration. Two FTLs with equal
    /// digests are bit-identical for every observable purpose, which is
    /// how the crash-torture harness proves that full-journal recovery
    /// reproduces the live device.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::new();
        h.u64(self.blocks.len() as u64);
        for block in &self.blocks {
            h.byte(mode_index(block.mode) as u8);
            h.u32(block.frontier);
            h.u32(block.valid);
            h.u32(block.erases);
            h.byte(block.retired as u8);
            for slot in &block.slots {
                match slot {
                    Some(lpn) => {
                        h.byte(1);
                        h.u64(*lpn);
                    }
                    None => h.byte(0),
                }
            }
        }
        for mapped in &self.mapping {
            match mapped {
                Some(phys) => {
                    h.byte(1);
                    h.u32(phys.block.0);
                    h.u32(phys.page);
                }
                None => h.byte(0),
            }
        }
        h.u64(self.free.len() as u64);
        for &BlockId(b) in &self.free {
            h.u32(b);
        }
        for entry in &self.frontier {
            match entry {
                Some(BlockId(b)) => {
                    h.byte(1);
                    h.u32(*b);
                }
                None => h.byte(0),
            }
        }
        h.u32(self.gc_low_watermark);
        h.byte(match self.gc_policy {
            GcPolicy::Greedy => 0,
            GcPolicy::WearAware => 1,
        });
        h.0
    }

    /// Captures the FTL's durable state as an [`FtlImage`]. The journal
    /// is deliberately excluded — it is persisted separately so a
    /// checkpoint plus a journal tail reconstruct any later state.
    pub fn snapshot(&self) -> FtlImage {
        FtlImage {
            blocks: self.geometry.blocks(),
            pages_per_block: self.geometry.pages_per_block(),
            page_bytes: self.geometry.page_bytes(),
            over_provisioning_pct: self.geometry.over_provisioning_pct(),
            gc_low_watermark: self.gc_low_watermark,
            gc_policy: self.gc_policy,
            block_states: self.blocks.clone(),
            free: self.free.iter().map(|b| b.0).collect(),
            frontier: [self.frontier[0].map(|b| b.0), self.frontier[1].map(|b| b.0)],
        }
    }

    /// Rebuilds an FTL from a checkpoint image: reconstructs the
    /// forward mapping from the per-block reverse maps, then audits the
    /// result with [`check_invariants`](Self::check_invariants) — the
    /// same definition of a valid FTL that crash recovery and the live
    /// debug sweeps use. An untrusted image fails with a typed error,
    /// never a panic.
    ///
    /// # Errors
    ///
    /// [`ImageError::Corrupt`] on an invalid device geometry or block
    /// tables whose shape disagrees with it;
    /// [`ImageError::Invariant`] naming the first invariant the image
    /// violates (out-of-range references, an LPN in two slots,
    /// unreconciled valid counts, a written or retired block in the free
    /// pool, a misplaced write frontier).
    pub fn from_image(image: &FtlImage) -> Result<PageMapFtl, ImageError> {
        let geometry = DeviceGeometry::new(
            image.blocks,
            image.pages_per_block,
            image.page_bytes,
            image.over_provisioning_pct,
        )
        .map_err(|_| ImageError::Corrupt("invalid device geometry"))?;
        // The geometry fields are free-standing header values; the block
        // tables are decoded bytes. Holding the geometry to the tables'
        // shape bounds the map allocated below by the image's own size.
        if image.block_states.len() != geometry.blocks() as usize {
            return Err(ImageError::Corrupt("block state count mismatch"));
        }
        if image
            .block_states
            .iter()
            .any(|block| block.slots.len() != geometry.pages_per_block() as usize)
        {
            return Err(ImageError::Corrupt("reverse map length mismatch"));
        }
        // Out-of-range slots are skipped here and reported by the audit.
        let mut mapping = vec![None; geometry.logical_pages() as usize];
        for (b, block) in image.block_states.iter().enumerate() {
            for (page, lpn) in block.slots.iter().enumerate() {
                if let Some(entry) = lpn.and_then(|lpn| mapping.get_mut(lpn as usize)) {
                    *entry = Some(PhysicalPage::new(BlockId(b as u32), page as u32));
                }
            }
        }
        let ftl = PageMapFtl {
            geometry,
            blocks: image.block_states.clone(),
            mapping,
            free: image.free.iter().map(|&b| BlockId(b)).collect(),
            frontier: image.frontier.map(|f| f.map(BlockId)),
            gc_low_watermark: image.gc_low_watermark.max(4),
            gc_policy: image.gc_policy,
            gc_active: false,
            journal: None,
            ops_since_check: 0,
        };
        ftl.check_invariants().map_err(ImageError::Invariant)?;
        Ok(ftl)
    }

    /// Sudden-power-off recovery: [`from_image`](Self::from_image) of
    /// the checkpoint `image`, then [`replay`](Self::replay) of the
    /// surviving `journal` and `torn` page.
    ///
    /// # Errors
    ///
    /// As `from_image` for the image and `replay` for the journal.
    pub fn recover(
        image: &FtlImage,
        journal: &[JournalRecord],
        torn: Option<TornPage>,
    ) -> Result<(PageMapFtl, RecoveryReport), ImageError> {
        let mut ftl = PageMapFtl::from_image(image)?;
        let report = ftl.replay(journal, torn)?;
        Ok((ftl, report))
    }

    /// Replays a `journal` prefix (everything that reached the flash
    /// array before power was cut) onto this checkpoint-time FTL,
    /// discards a torn interrupted-program page if one is reported, and
    /// verifies the result with
    /// [`check_invariants`](Self::check_invariants). On error the FTL is
    /// left part-way through the replay.
    ///
    /// Replaying the *full* journal reproduces the live device's
    /// [`digest`](Self::digest) exactly; replaying any prefix yields the
    /// consistent intermediate state at that cut — both properties are
    /// enforced by the crash-torture harness.
    ///
    /// # Errors
    ///
    /// [`ImageError::Corrupt`] if a journal record does not apply to the
    /// state before it; [`ImageError::Invariant`] if the rebuilt state
    /// fails the invariant sweep.
    pub fn replay(
        &mut self,
        journal: &[JournalRecord],
        torn: Option<TornPage>,
    ) -> Result<RecoveryReport, ImageError> {
        let ppb = self.geometry.pages_per_block();
        let mut report = RecoveryReport::default();
        for record in journal {
            match *record {
                JournalRecord::Write {
                    lpn,
                    block,
                    page,
                    mode,
                } => {
                    let bidx = block.0 as usize;
                    if bidx >= self.blocks.len() || lpn >= self.logical_pages() {
                        return Err(ImageError::Corrupt("journal write out of range"));
                    }
                    if self.mapping[lpn as usize].is_some() {
                        return Err(ImageError::Corrupt("journal write over a live mapping"));
                    }
                    let state = &self.blocks[bidx];
                    if state.retired {
                        return Err(ImageError::Corrupt("journal write into a retired block"));
                    }
                    if state.frontier != 0 && state.mode != mode {
                        return Err(ImageError::Corrupt("journal write mode mismatch"));
                    }
                    if page != state.frontier || page >= usable_pages(mode, ppb) {
                        return Err(ImageError::Corrupt("journal write off the frontier"));
                    }
                    self.apply_program(lpn, PhysicalPage::new(block, page), mode);
                }
                JournalRecord::Invalidate { lpn } => self.invalidate(lpn),
                JournalRecord::Map { lpn, block, page } => {
                    let bidx = block.0 as usize;
                    if bidx >= self.blocks.len()
                        || lpn >= self.logical_pages()
                        || page >= self.blocks[bidx].frontier
                    {
                        return Err(ImageError::Corrupt("journal map out of range"));
                    }
                    if self.mapping[lpn as usize].is_some()
                        || self.blocks[bidx].slots[page as usize].is_some()
                    {
                        return Err(ImageError::Corrupt("journal map over live data"));
                    }
                    self.apply_map(lpn, PhysicalPage::new(block, page));
                }
                JournalRecord::Erase { block } => {
                    let bidx = block.0 as usize;
                    if bidx >= self.blocks.len() {
                        return Err(ImageError::Corrupt("journal erase out of range"));
                    }
                    if self.free.contains(&block) {
                        return Err(ImageError::Corrupt("journal erase of a free block"));
                    }
                    if self.blocks[bidx].valid != 0 {
                        return Err(ImageError::Corrupt("journal erase of a live block"));
                    }
                    self.apply_erase(block);
                }
                JournalRecord::Retire { block } => {
                    if block.0 as usize >= self.blocks.len() {
                        return Err(ImageError::Corrupt("journal retire out of range"));
                    }
                    self.apply_retire(block);
                }
                JournalRecord::Commit { .. } => {}
            }
            report.journal_replayed += 1;
        }
        if let Some(torn) = torn {
            let bidx = torn.block.0 as usize;
            if bidx < self.blocks.len() {
                let plausible = {
                    let state = &self.blocks[bidx];
                    !state.retired
                        && torn.page == state.frontier
                        && torn.page < usable_pages(state.mode, ppb)
                };
                if plausible {
                    // The interrupted program reached the array but its
                    // mapping update never did: the slot reads back
                    // uncorrectable, so burn it — advance the frontier
                    // past the dead page without mapping anything to it.
                    self.free.retain(|&b| b != torn.block);
                    self.blocks[bidx].frontier += 1;
                    report.torn_pages_discarded += 1;
                }
            }
        }
        self.check_invariants().map_err(ImageError::Invariant)?;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_ftl() -> PageMapFtl {
        // 16 blocks × 64 pages, 27% OP ⇒ 747 logical pages.
        PageMapFtl::new(DeviceGeometry::scaled(16).unwrap(), 2)
    }

    #[test]
    fn op_cost_expands_to_flash_ops() {
        use crate::pipeline::FlashOp;
        let cost = OpCost {
            flash_reads: 2,
            programs: 1,
            erases: 1,
            gc_runs: 1,
            gc_moved: 2,
        };
        // Ops are appended after whatever the chain already holds.
        let mut ops = vec![FlashOp::HostTransfer { lpn: 3 }];
        cost.push_ops(11, &mut ops);
        assert_eq!(
            ops,
            vec![
                FlashOp::HostTransfer { lpn: 3 },
                FlashOp::GcRead { lpn: 11 },
                FlashOp::GcRead { lpn: 11 },
                FlashOp::Program { lpn: 11 },
                FlashOp::Erase { lpn: 11 },
            ]
        );
        OpCost::default().push_ops(0, &mut ops);
        assert_eq!(ops.len(), 5);
    }

    #[test]
    fn write_then_read_placement() {
        let mut ftl = small_ftl();
        let cost = ftl.write(5, CellMode::Normal).unwrap();
        assert_eq!(cost.programs, 1);
        assert_eq!(cost.erases, 0);
        let (phys, mode) = ftl.placement(5).unwrap();
        assert_eq!(mode, CellMode::Normal);
        assert!(ftl.geometry().contains(phys));
        assert_eq!(ftl.placement(6), None);
    }

    #[test]
    fn rewrite_invalidates_old_copy() {
        let mut ftl = small_ftl();
        ftl.write(5, CellMode::Normal).unwrap();
        let first = ftl.placement(5).unwrap().0;
        ftl.write(5, CellMode::Normal).unwrap();
        let second = ftl.placement(5).unwrap().0;
        assert_ne!(first, second);
        assert_eq!(ftl.total_valid_pages(), 1);
    }

    #[test]
    fn out_of_range_rejected() {
        let mut ftl = small_ftl();
        let lpn = ftl.logical_pages();
        assert_eq!(
            ftl.write(lpn, CellMode::Normal),
            Err(FtlError::LpnOutOfRange { lpn })
        );
    }

    #[test]
    fn reduced_blocks_hold_three_quarters() {
        let mut ftl = small_ftl();
        let ppb = ftl.geometry().pages_per_block();
        // Fill one reduced block exactly: 48 pages.
        for lpn in 0..(ppb * 3 / 4) as u64 {
            ftl.write(lpn, CellMode::Reduced).unwrap();
        }
        assert_eq!(ftl.reduced_blocks(), 1);
        // The 49th write opens a second reduced block.
        ftl.write(100, CellMode::Reduced).unwrap();
        assert_eq!(ftl.reduced_blocks(), 2);
    }

    #[test]
    fn gc_reclaims_overwritten_space() {
        let mut ftl = small_ftl();
        let logical = ftl.logical_pages();
        // Write the whole logical space several times over; the device
        // must keep absorbing writes via GC.
        for round in 0..4 {
            for lpn in 0..logical {
                ftl.write(lpn, CellMode::Normal)
                    .unwrap_or_else(|e| panic!("round {round} lpn {lpn}: {e}"));
            }
        }
        assert_eq!(ftl.total_valid_pages(), logical);
        assert!(ftl.total_erases() > 0, "GC must have erased blocks");
        // Mapping stays consistent after heavy GC.
        for lpn in (0..logical).step_by(37) {
            let (phys, _) = ftl.placement(lpn).unwrap();
            assert!(ftl.geometry().contains(phys));
        }
    }

    #[test]
    fn gc_preserves_block_mode_of_relocated_data() {
        let mut ftl = small_ftl();
        let logical = ftl.logical_pages();
        // Put a quarter of the space in reduced pages, rest normal.
        for lpn in 0..logical {
            let mode = if lpn % 4 == 0 {
                CellMode::Reduced
            } else {
                CellMode::Normal
            };
            ftl.write(lpn, mode).unwrap();
        }
        // Churn normal pages to force GC.
        for _ in 0..3 {
            for lpn in (0..logical).filter(|l| l % 4 != 0) {
                ftl.write(lpn, CellMode::Normal).unwrap();
            }
        }
        // Reduced data must still live in reduced blocks.
        for lpn in (0..logical).filter(|l| l % 4 == 0) {
            let (_, mode) = ftl.placement(lpn).unwrap();
            assert_eq!(mode, CellMode::Reduced, "lpn {lpn} lost its mode");
        }
    }

    #[test]
    fn overfilled_reduced_device_errors() {
        // All-reduced operation drops usable capacity to 75% of raw; with
        // 27% OP the logical space no longer fits and the FTL must report
        // OutOfSpace rather than loop forever.
        let mut ftl = small_ftl();
        let logical = ftl.logical_pages();
        let mut failed = false;
        'outer: for _ in 0..3 {
            for lpn in 0..logical {
                if ftl.write(lpn, CellMode::Reduced).is_err() {
                    failed = true;
                    break 'outer;
                }
            }
        }
        assert!(
            failed,
            "the device cannot store 73% of raw in 75%-density pages plus frontier overheads"
        );
    }

    #[test]
    fn erase_counts_accumulate() {
        let mut ftl = small_ftl();
        let logical = ftl.logical_pages();
        for _ in 0..3 {
            for lpn in 0..logical {
                ftl.write(lpn, CellMode::Normal).unwrap();
            }
        }
        let total = ftl.total_erases();
        let max_block = (0..16).map(|b| ftl.block_erases(BlockId(b))).max().unwrap();
        assert!(
            total >= 16,
            "several blocks should have cycled, got {total}"
        );
        assert!(max_block >= 1);
    }

    #[test]
    fn invalidate_is_idempotent() {
        let mut ftl = small_ftl();
        ftl.write(9, CellMode::Normal).unwrap();
        ftl.invalidate(9);
        assert_eq!(ftl.placement(9), None);
        ftl.invalidate(9);
        assert_eq!(ftl.total_valid_pages(), 0);
    }

    #[test]
    fn wear_aware_gc_narrows_erase_spread() {
        let geometry = DeviceGeometry::scaled(16).unwrap();
        let run = |policy: GcPolicy| {
            let mut ftl = PageMapFtl::new(geometry, 4).with_gc_policy(policy);
            let logical = ftl.logical_pages();
            // Skewed rewrites: a hot tenth of the space is rewritten 9×
            // more often, concentrating invalidations.
            for round in 0..30u64 {
                for lpn in 0..logical / 10 {
                    ftl.write(lpn, CellMode::Normal).unwrap();
                }
                if round % 9 == 0 {
                    for lpn in logical / 10..logical {
                        ftl.write(lpn, CellMode::Normal).unwrap();
                    }
                }
            }
            ftl.erase_spread()
        };
        let (greedy_min, greedy_max) = run(GcPolicy::Greedy);
        let (wear_min, wear_max) = run(GcPolicy::WearAware);
        // Wear-aware must not widen the erase spread; with tie-breaking it
        // typically narrows it.
        assert!(
            wear_max - wear_min <= greedy_max - greedy_min,
            "wear-aware spread {}..{} vs greedy {}..{}",
            wear_min,
            wear_max,
            greedy_min,
            greedy_max
        );
    }

    #[test]
    fn retire_relocates_live_pages_and_shrinks_capacity() {
        let mut ftl = small_ftl();
        let logical = ftl.logical_pages();
        for lpn in 0..logical {
            ftl.write(lpn, CellMode::Normal).unwrap();
        }
        let (victim_page, _) = ftl.placement(0).unwrap();
        let victim = victim_page.block;
        let residents = ftl.block_lpns(victim);
        assert!(!residents.is_empty());
        let free_before = ftl.free_blocks();
        let cost = ftl.retire_block(victim).unwrap();
        // Every resident was read and re-programmed (emergency GC may add
        // more work on top); the dead block itself is never erased.
        assert!(cost.flash_reads as usize >= residents.len());
        assert!(cost.programs as usize >= residents.len());
        assert!(ftl.is_retired(victim));
        assert_eq!(ftl.retired_blocks(), 1);
        // All data survived, outside the dead block.
        assert_eq!(ftl.total_valid_pages(), logical);
        for lpn in residents {
            let (phys, _) = ftl.placement(lpn).unwrap();
            assert_ne!(phys.block, victim, "lpn {lpn} still in the dead block");
        }
        // The dead block never returns to the free pool.
        assert!(ftl.free_blocks() <= free_before);
        // Idempotent.
        assert_eq!(ftl.retire_block(victim).unwrap(), OpCost::default());
        assert_eq!(ftl.retired_blocks(), 1);
    }

    #[test]
    fn retired_blocks_are_never_reused_under_churn() {
        let mut ftl = small_ftl();
        let logical = ftl.logical_pages();
        for lpn in 0..logical {
            ftl.write(lpn, CellMode::Normal).unwrap();
        }
        let victim = ftl.placement(7).unwrap().0.block;
        ftl.retire_block(victim).unwrap();
        // Heavy rewrite churn with GC: the dead block must stay empty.
        for _ in 0..3 {
            for lpn in 0..logical {
                ftl.write(lpn, CellMode::Normal).unwrap();
            }
        }
        assert!(ftl.block_lpns(victim).is_empty());
        assert!(ftl.is_retired(victim));
        assert_eq!(ftl.total_valid_pages(), logical);
    }

    #[test]
    fn mass_retirement_exhausts_capacity() {
        // Retiring block after block must eventually surface OutOfSpace
        // instead of looping: capacity shrink is real.
        let mut ftl = small_ftl();
        let logical = ftl.logical_pages();
        for lpn in 0..logical {
            ftl.write(lpn, CellMode::Normal).unwrap();
        }
        let mut failed = false;
        for b in 0..ftl.geometry().blocks() {
            if ftl.retire_block(BlockId(b)).is_err() {
                failed = true;
                break;
            }
        }
        assert!(failed, "retiring every block must run out of space");
    }

    #[test]
    fn op_cost_accumulates() {
        let mut a = OpCost {
            flash_reads: 1,
            programs: 2,
            erases: 3,
            gc_runs: 4,
            gc_moved: 5,
        };
        a.add(OpCost {
            flash_reads: 10,
            programs: 20,
            erases: 30,
            gc_runs: 40,
            gc_moved: 50,
        });
        assert_eq!(a.flash_reads, 11);
        assert_eq!(a.programs, 22);
        assert_eq!(a.erases, 33);
        assert_eq!(a.gc_runs, 44);
        assert_eq!(a.gc_moved, 55);
    }

    /// A journaled FTL that has seen writes, overwrites, invalidates, GC
    /// and one retirement — the full record vocabulary.
    fn churned_journaled_ftl() -> (FtlImage, PageMapFtl) {
        let mut ftl = small_ftl();
        let logical = ftl.logical_pages();
        for lpn in 0..logical {
            ftl.write(lpn, CellMode::Normal).unwrap();
        }
        ftl.enable_journal();
        let image = ftl.snapshot();
        // Overwrite churn forces GC (erase + relocation records).
        for i in 0..2_000u64 {
            let lpn = (i.wrapping_mul(0x9E37_79B9_7F4A_7C15)) % logical;
            ftl.write(lpn, CellMode::Normal).unwrap();
            if i % 7 == 0 {
                ftl.invalidate((lpn + 13) % logical);
            }
            if i % 251 == 0 {
                ftl.record_commit(i);
            }
        }
        let victim = ftl.placement(3).unwrap().0.block;
        ftl.retire_block(victim).unwrap();
        (image, ftl)
    }

    #[test]
    fn retiring_the_frontier_block_is_safe() {
        let mut ftl = small_ftl();
        for lpn in 0..200 {
            ftl.write(lpn, CellMode::Normal).unwrap();
        }
        // The last write landed on the current normal-mode frontier block.
        let frontier = ftl.placement(199).unwrap().0.block;
        ftl.retire_block(frontier).unwrap();
        ftl.check_invariants().unwrap();
        assert!(ftl.is_retired(frontier));
        // Every page survived the relocation and writes keep working.
        assert_eq!(ftl.total_valid_pages(), 200);
        ftl.write(200, CellMode::Normal).unwrap();
        assert_ne!(ftl.placement(199).unwrap().0.block, frontier);
        ftl.check_invariants().unwrap();
    }

    #[test]
    fn failed_retirement_rolls_back_cleanly() {
        // Exhaust capacity, then retire blocks until relocation cannot
        // find a destination: the failure must be typed OutOfSpace and
        // leave every mapping intact (no panic, no corruption).
        let mut ftl = small_ftl();
        let logical = ftl.logical_pages();
        for lpn in 0..logical {
            ftl.write(lpn, CellMode::Normal).unwrap();
        }
        let mut failure = None;
        for b in 0..ftl.geometry().blocks() {
            match ftl.retire_block(BlockId(b)) {
                Ok(_) => ftl.check_invariants().unwrap(),
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            }
        }
        assert_eq!(failure, Some(FtlError::OutOfSpace));
        ftl.check_invariants().unwrap();
        assert_eq!(
            ftl.total_valid_pages(),
            logical,
            "no page lost to the rollback"
        );
        for lpn in 0..logical {
            assert!(ftl.placement(lpn).is_some(), "lpn {lpn} unmapped");
        }
    }

    #[test]
    fn snapshot_round_trips_through_image() {
        let (_, ftl) = churned_journaled_ftl();
        let restored = PageMapFtl::from_image(&ftl.snapshot()).unwrap();
        restored.check_invariants().unwrap();
        assert_eq!(restored.digest(), ftl.digest());
    }

    #[test]
    fn full_journal_replay_reproduces_the_live_digest() {
        let (image, ftl) = churned_journaled_ftl();
        let journal = ftl.journal().unwrap();
        assert!(journal.len() > 2_000, "churn must journal heavily");
        let (recovered, report) = PageMapFtl::recover(&image, journal, None).unwrap();
        recovered.check_invariants().unwrap();
        assert_eq!(recovered.digest(), ftl.digest());
        assert_eq!(report.journal_replayed, journal.len() as u64);
        assert_eq!(report.torn_pages_discarded, 0);
    }

    #[test]
    fn every_journal_prefix_recovers_consistently() {
        let (image, ftl) = churned_journaled_ftl();
        let journal = ftl.journal().unwrap();
        for cut in (0..=journal.len()).step_by(97) {
            let (recovered, report) = PageMapFtl::recover(&image, &journal[..cut], None)
                .unwrap_or_else(|e| panic!("prefix {cut}: {e}"));
            recovered
                .check_invariants()
                .unwrap_or_else(|e| panic!("prefix {cut}: {e}"));
            assert_eq!(report.journal_replayed, cut as u64);
        }
    }

    #[test]
    fn torn_page_is_detected_and_discarded() {
        let mut ftl = small_ftl();
        for lpn in 0..50 {
            ftl.write(lpn, CellMode::Normal).unwrap();
        }
        ftl.enable_journal();
        let image = ftl.snapshot();
        ftl.write(50, CellMode::Normal).unwrap();
        let journal = ftl.journal().unwrap().to_vec();
        let &JournalRecord::Write { block, page, .. } = &journal[0] else {
            panic!("first record must be the page program");
        };
        // Power died inside that program: no journal records survive,
        // but the flash holds a half-programmed (uncorrectable) page.
        let torn = TornPage { block, page };
        let (recovered, report) = PageMapFtl::recover(&image, &[], Some(torn)).unwrap();
        recovered.check_invariants().unwrap();
        assert_eq!(report.torn_pages_discarded, 1);
        assert_eq!(report.journal_replayed, 0);
        // The interrupted write was never acknowledged: lpn 50 must not
        // be mapped, and the burned slot must never be programmed again.
        assert_eq!(recovered.placement(50), None);
        let mut recovered = recovered;
        recovered.write(50, CellMode::Normal).unwrap();
        let after = recovered.placement(50).unwrap().0;
        assert!(
            after.block != block || after.page != page,
            "recovered FTL reused the torn slot"
        );
        recovered.check_invariants().unwrap();
    }
}
