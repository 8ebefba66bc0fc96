//! Dense per-page state: LPN-indexed columns and an O(1) LRU set.
//!
//! A simulated device keeps a handful of facts per logical page —
//! retention age, read count, ReducedCell-pool and write-buffer
//! membership, read-disturb and fault-stream counters — and consults
//! them on every host read. Logical page numbers are dense in
//! `0..logical_pages`, so each fact lives in a flat [`PageColumn`]
//! indexed by LPN: a lookup is one bounds check and one load, with no
//! hashing. A column grows on first write to the largest LPN written,
//! so a component that never runs allocates nothing, and its footprint
//! is one element per logical page (paper §5 sizes the pool's metadata
//! the same way, as a flat table of 4-byte entries).
//!
//! [`LruSet`] is the bounded, recency-ordered page set behind both the
//! ReducedCell pool and the write-back buffer: a slab of linked nodes
//! plus an LPN → slot column, so touch, insert, remove and eviction are
//! all O(1). Every node keeps the sequence number of its last access,
//! which is what checkpoints record.

use std::collections::BTreeMap;

/// Slot index meaning "no node".
const NIL: u32 = u32::MAX;

/// One value of type `T` per logical page, reading `empty` for pages
/// never written.
///
/// ```
/// use flexlevel::PageColumn;
///
/// let mut reads = PageColumn::new(0u64);
/// *reads.get_mut(7) += 2;
/// assert_eq!(reads.get(7), 2);
/// assert_eq!(reads.get(1_000), 0); // never written, never allocated
/// assert_eq!(reads.entries().collect::<Vec<_>>(), vec![(7, 2)]);
/// ```
#[derive(Debug, Clone)]
pub struct PageColumn<T> {
    cells: Vec<T>,
    empty: T,
}

impl<T: Copy + PartialEq> PageColumn<T> {
    /// An unallocated column whose every page reads `empty`.
    pub fn new(empty: T) -> PageColumn<T> {
        PageColumn {
            cells: Vec::new(),
            empty,
        }
    }

    /// The value of `lpn` (`empty` if never written).
    #[inline]
    pub fn get(&self, lpn: u64) -> T {
        usize::try_from(lpn)
            .ok()
            .and_then(|i| self.cells.get(i))
            .copied()
            .unwrap_or(self.empty)
    }

    /// Mutable access to `lpn`'s value, growing the column to cover it.
    ///
    /// # Panics
    ///
    /// If `lpn` does not fit the address space.
    #[inline]
    pub fn get_mut(&mut self, lpn: u64) -> &mut T {
        let i = usize::try_from(lpn).expect("LPN fits the address space");
        if i >= self.cells.len() {
            self.cells.resize(i + 1, self.empty);
        }
        &mut self.cells[i]
    }

    /// Sets `lpn`'s value, growing the column to cover it.
    #[inline]
    pub fn set(&mut self, lpn: u64, value: T) {
        *self.get_mut(lpn) = value;
    }

    /// Resets `lpn` to `empty` without growing the column.
    #[inline]
    pub fn remove(&mut self, lpn: u64) {
        if let Some(cell) = usize::try_from(lpn)
            .ok()
            .and_then(|i| self.cells.get_mut(i))
        {
            *cell = self.empty;
        }
    }

    /// Resets every page to `empty`.
    pub fn clear(&mut self) {
        self.cells.clear();
    }

    /// Every page whose value is not `empty`, as `(lpn, value)` in
    /// ascending LPN order.
    pub fn entries(&self) -> impl Iterator<Item = (u64, T)> + '_ {
        self.cells
            .iter()
            .enumerate()
            .filter(move |&(_, &v)| v != self.empty)
            .map(|(i, &v)| (i as u64, v))
    }
}

/// One slab node of an [`LruSet`]: the page, the sequence number of its
/// last access and its neighbours in recency order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LruNode {
    lpn: u64,
    seq: u64,
    /// Next older node (`NIL` at the LRU end).
    prev: u32,
    /// Next newer node (`NIL` at the MRU end).
    next: u32,
}

/// Why [`LruSet::from_entries`] refused a snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LruSnapshotError {
    /// More entries than the set's capacity.
    OverCapacity,
    /// An entry's sequence is at or after the sequence counter.
    SequenceNotBelowCounter,
    /// Two entries share a sequence number.
    DuplicateSequence,
    /// Two entries share a page.
    DuplicatePage,
}

/// A capacity-bounded set of logical pages in least-recently-used order.
///
/// Each insert or touch stamps the page with the next value of a
/// sequence counter, so recency order is sequence order and
/// [`entries`](Self::entries) is a canonical checkpoint.
///
/// ```
/// use flexlevel::LruSet;
///
/// let mut lru = LruSet::new(2);
/// assert_eq!(lru.insert(1), None);
/// assert_eq!(lru.insert(2), None);
/// lru.touch(1);
/// assert_eq!(lru.insert(3), Some(2)); // 2 was least recently used
/// assert_eq!(lru.entries(), vec![(2, 1), (3, 3)]);
/// ```
#[derive(Debug, Clone)]
pub struct LruSet {
    capacity: u64,
    next_seq: u64,
    /// Live nodes, dense: removal moves the last node into the hole.
    nodes: Vec<LruNode>,
    /// LPN → index into `nodes`, `NIL` when absent.
    slots: PageColumn<u32>,
    /// Least recently used node.
    head: u32,
    /// Most recently used node.
    tail: u32,
}

impl LruSet {
    /// An empty set that evicts once it holds `capacity` pages. A zero
    /// capacity still admits one page at a time: an insert evicts the
    /// resident page, if any, before adding the new one.
    pub fn new(capacity: u64) -> LruSet {
        LruSet {
            capacity,
            next_seq: 0,
            nodes: Vec::new(),
            slots: PageColumn::new(NIL),
            head: NIL,
            tail: NIL,
        }
    }

    /// Pages currently held.
    #[inline]
    pub fn len(&self) -> u64 {
        self.nodes.len() as u64
    }

    /// `true` when no pages are held.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The eviction bound.
    #[inline]
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// The sequence number the next insert or touch will take.
    #[inline]
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// `true` if `lpn` is held.
    #[inline]
    pub fn contains(&self, lpn: u64) -> bool {
        self.slots.get(lpn) != NIL
    }

    /// Marks `lpn` as most recently used; a page not held is ignored.
    pub fn touch(&mut self, lpn: u64) {
        let slot = self.slots.get(lpn);
        if slot == NIL {
            return;
        }
        if slot != self.tail {
            self.unlink(slot);
            self.link_tail(slot);
        }
        self.nodes[slot as usize].seq = self.take_seq();
    }

    /// Inserts `lpn` as most recently used, returning the least recently
    /// used page evicted to make room. Inserting a held page only
    /// touches it.
    pub fn insert(&mut self, lpn: u64) -> Option<u64> {
        if self.contains(lpn) {
            self.touch(lpn);
            return None;
        }
        let evicted = if self.len() >= self.capacity {
            self.pop_lru()
        } else {
            None
        };
        let seq = self.take_seq();
        self.push(lpn, seq);
        evicted
    }

    /// Removes `lpn`; `false` if it was not held.
    pub fn remove(&mut self, lpn: u64) -> bool {
        let slot = self.slots.get(lpn);
        if slot == NIL {
            return false;
        }
        self.remove_slot(slot);
        true
    }

    /// Removes and returns the least recently used page.
    pub fn pop_lru(&mut self) -> Option<u64> {
        (self.head != NIL).then(|| self.remove_slot(self.head))
    }

    /// Checkpoint view: `(sequence, lpn)` from least to most recently
    /// used (ascending sequence).
    pub fn entries(&self) -> Vec<(u64, u64)> {
        let mut out = Vec::with_capacity(self.nodes.len());
        let mut slot = self.head;
        while slot != NIL {
            let node = &self.nodes[slot as usize];
            out.push((node.seq, node.lpn));
            slot = node.next;
        }
        out
    }

    /// Rebuilds a set from [`entries`](Self::entries) (in any order) and
    /// the sequence counter, checking the entries one at a time in the
    /// order given.
    ///
    /// The LPN → slot column grows to the largest LPN listed, so callers
    /// holding untrusted entries bound their LPNs first.
    ///
    /// # Errors
    ///
    /// The first inconsistency: too many entries for `capacity`, then,
    /// entry by entry, a sequence at or after `next_seq`, a sequence
    /// already listed, or a page already listed.
    pub fn from_entries(
        capacity: u64,
        entries: &[(u64, u64)],
        next_seq: u64,
    ) -> Result<LruSet, LruSnapshotError> {
        if entries.len() as u64 > capacity {
            return Err(LruSnapshotError::OverCapacity);
        }
        // Restore-time only: orders the entries for linking and finds a
        // repeated sequence at the entry that repeats it.
        let mut by_seq = BTreeMap::new();
        let mut set = LruSet::new(capacity);
        for &(seq, lpn) in entries {
            if seq >= next_seq {
                return Err(LruSnapshotError::SequenceNotBelowCounter);
            }
            if by_seq.insert(seq, lpn).is_some() {
                return Err(LruSnapshotError::DuplicateSequence);
            }
            if set.contains(lpn) {
                return Err(LruSnapshotError::DuplicatePage);
            }
            // Marks the page held; `push` below stores its real slot.
            set.slots.set(lpn, 0);
        }
        for (seq, lpn) in by_seq {
            set.push(lpn, seq);
        }
        set.next_seq = next_seq;
        Ok(set)
    }

    fn take_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Appends a new node at the most-recently-used end.
    fn push(&mut self, lpn: u64, seq: u64) {
        let slot = u32::try_from(self.nodes.len())
            .ok()
            .filter(|&s| s != NIL)
            .expect("an LruSet holds fewer than 2^32 - 1 pages");
        self.nodes.push(LruNode {
            lpn,
            seq,
            prev: NIL,
            next: NIL,
        });
        self.link_tail(slot);
        self.slots.set(lpn, slot);
    }

    /// Detaches `slot` from the recency list.
    fn unlink(&mut self, slot: u32) {
        let LruNode { prev, next, .. } = self.nodes[slot as usize];
        match prev {
            NIL => self.head = next,
            p => self.nodes[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n as usize].prev = prev,
        }
    }

    /// Attaches a detached `slot` at the most-recently-used end.
    fn link_tail(&mut self, slot: u32) {
        let node = &mut self.nodes[slot as usize];
        node.prev = self.tail;
        node.next = NIL;
        match self.tail {
            NIL => self.head = slot,
            t => self.nodes[t as usize].next = slot,
        }
        self.tail = slot;
    }

    /// Removes the node at `slot`, moving the last node into its place,
    /// and returns the removed page.
    fn remove_slot(&mut self, slot: u32) -> u64 {
        self.unlink(slot);
        let lpn = self.nodes.swap_remove(slot as usize).lpn;
        self.slots.remove(lpn);
        if let Some(&moved) = self.nodes.get(slot as usize) {
            match moved.prev {
                NIL => self.head = slot,
                p => self.nodes[p as usize].next = slot,
            }
            match moved.next {
                NIL => self.tail = slot,
                n => self.nodes[n as usize].prev = slot,
            }
            self.slots.set(moved.lpn, slot);
        }
        lpn
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_page_state_stays_narrow() {
        // Bytes per held page of the LRU slab (its LPN → slot column is
        // a `u32` per logical page); DESIGN.md §5 budgets both.
        assert_eq!(std::mem::size_of::<LruNode>(), 24);
    }

    #[test]
    fn removal_keeps_links_consistent() {
        let mut lru = LruSet::new(8);
        for lpn in 0..6 {
            lru.insert(lpn);
        }
        // Remove from the middle, the MRU end and the LRU end; each
        // moves the last slab node into the hole.
        assert!(lru.remove(2));
        assert!(lru.remove(5));
        assert_eq!(lru.pop_lru(), Some(0));
        lru.touch(1);
        assert_eq!(lru.entries(), vec![(3, 3), (4, 4), (6, 1)]);
        assert_eq!(lru.len(), 3);
        assert!(!lru.contains(2) && lru.contains(4));
        assert_eq!(
            (lru.pop_lru(), lru.pop_lru(), lru.pop_lru(), lru.pop_lru()),
            (Some(3), Some(4), Some(1), None)
        );
        assert!(lru.is_empty());
    }

    #[test]
    fn zero_capacity_holds_one_page_at_a_time() {
        let mut lru = LruSet::new(0);
        assert_eq!(lru.insert(4), None);
        assert_eq!(lru.insert(5), Some(4));
        assert_eq!(lru.len(), 1);
        assert_eq!(
            LruSet::from_entries(0, &[(0, 5)], 1).err(),
            Some(LruSnapshotError::OverCapacity)
        );
    }

    #[test]
    fn column_reads_empty_beyond_its_end() {
        let mut column = PageColumn::new(f64::NEG_INFINITY);
        column.remove(9);
        assert_eq!(column.entries().count(), 0, "remove never grows");
        column.set(3, 1.5);
        assert_eq!(column.get(2), f64::NEG_INFINITY);
        assert_eq!(column.get(u64::MAX), f64::NEG_INFINITY);
        column.clear();
        assert_eq!(column.get(3), f64::NEG_INFINITY);
    }
}
