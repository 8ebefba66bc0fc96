//! Write-back buffer.
//!
//! The paper modified FlashSim "by adding a write-back write buffer"
//! (§6.2). Host writes land in the buffer and are acknowledged
//! immediately; dirty pages flush to flash on LRU eviction. Host reads
//! that hit the buffer skip the flash entirely.

use flexlevel::{LruSet, LruSnapshotError};

/// LRU write-back buffer over logical pages.
///
/// ```
/// use ssd::WriteBuffer;
///
/// let mut buf = WriteBuffer::new(2);
/// assert_eq!(buf.write(1), None);
/// assert_eq!(buf.write(1), None); // rewrite absorbed
/// assert_eq!(buf.write(2), None);
/// assert_eq!(buf.write(3), Some(1)); // LRU evicted to flash
/// ```
#[derive(Debug, Clone)]
pub struct WriteBuffer {
    pages: LruSet,
}

impl WriteBuffer {
    /// Creates a buffer holding at most `capacity` dirty pages.
    pub fn new(capacity: u64) -> WriteBuffer {
        WriteBuffer {
            pages: LruSet::new(capacity.max(1)),
        }
    }

    /// Dirty pages currently buffered.
    pub fn len(&self) -> u64 {
        self.pages.len()
    }

    /// `true` when the buffer holds no dirty pages.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Buffer capacity in pages.
    pub fn capacity(&self) -> u64 {
        self.pages.capacity()
    }

    /// `true` if `lpn` has a buffered (dirty) copy.
    pub fn contains(&self, lpn: u64) -> bool {
        self.pages.contains(lpn)
    }

    /// Buffers a write of `lpn`; returns the evicted dirty page that must
    /// now be programmed to flash, if the buffer overflowed.
    ///
    /// Rewriting a buffered page coalesces (no eviction, recency
    /// refreshed) — the write-absorption effect of a write-back buffer.
    pub fn write(&mut self, lpn: u64) -> Option<u64> {
        self.pages.insert(lpn)
    }

    /// Marks a buffered page as recently used (on a read hit).
    pub fn touch(&mut self, lpn: u64) {
        self.pages.touch(lpn);
    }

    /// Removes and returns the least-recently-written dirty page.
    pub fn pop_lru(&mut self) -> Option<u64> {
        self.pages.pop_lru()
    }

    /// Checkpoint view: `(sequence, lpn)` entries in LRU (sequence)
    /// order plus the sequence counter — enough to rebuild the buffer
    /// bit-identically, eviction order included.
    pub fn snapshot(&self) -> (Vec<(u64, u64)>, u64) {
        (self.pages.entries(), self.pages.next_seq())
    }

    /// Rebuilds a buffer from a [`snapshot`](Self::snapshot), validating
    /// the entries (untrusted input fails typed, never panics). The
    /// page index grows to the largest LPN listed, so callers holding an
    /// untrusted snapshot bound its LPNs first.
    ///
    /// # Errors
    ///
    /// A static description of the first inconsistency: capacity
    /// overflow, duplicate sequence or page, or a sequence at/after the
    /// counter.
    pub fn from_snapshot(
        capacity: u64,
        entries: &[(u64, u64)],
        next_seq: u64,
    ) -> Result<WriteBuffer, &'static str> {
        let pages =
            LruSet::from_entries(capacity.max(1), entries, next_seq).map_err(|e| match e {
                LruSnapshotError::OverCapacity => "buffer snapshot exceeds capacity",
                LruSnapshotError::SequenceNotBelowCounter => {
                    "buffer entry at or after the sequence counter"
                }
                LruSnapshotError::DuplicateSequence => "duplicate buffer sequence",
                LruSnapshotError::DuplicatePage => "duplicate buffered page",
            })?;
        Ok(WriteBuffer { pages })
    }

    /// Drains every dirty page (shutdown flush), LRU first.
    pub fn drain(&mut self) -> Vec<u64> {
        let mut out = Vec::with_capacity(self.pages.len() as usize);
        while let Some(lpn) = self.pop_lru() {
            out.push(lpn);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorbs_rewrites() {
        let mut buf = WriteBuffer::new(2);
        assert_eq!(buf.write(1), None);
        assert_eq!(buf.write(1), None, "rewrite coalesces");
        assert_eq!(buf.write(1), None);
        assert_eq!(buf.len(), 1);
    }

    #[test]
    fn evicts_lru_on_overflow() {
        let mut buf = WriteBuffer::new(2);
        buf.write(1);
        buf.write(2);
        assert_eq!(buf.write(3), Some(1));
        assert!(buf.contains(2));
        assert!(buf.contains(3));
        assert!(!buf.contains(1));
    }

    #[test]
    fn touch_protects_from_eviction() {
        let mut buf = WriteBuffer::new(2);
        buf.write(1);
        buf.write(2);
        buf.touch(1);
        assert_eq!(buf.write(3), Some(2));
        assert!(buf.contains(1));
    }

    #[test]
    fn rewrite_refreshes_recency() {
        let mut buf = WriteBuffer::new(2);
        buf.write(1);
        buf.write(2);
        buf.write(1); // 1 becomes most recent
        assert_eq!(buf.write(3), Some(2));
    }

    #[test]
    fn drain_returns_all_lru_first() {
        let mut buf = WriteBuffer::new(4);
        for lpn in [5, 6, 7] {
            buf.write(lpn);
        }
        buf.touch(5);
        assert_eq!(buf.drain(), vec![6, 7, 5]);
        assert!(buf.is_empty());
    }

    #[test]
    fn capacity_clamped_to_one() {
        let mut buf = WriteBuffer::new(0);
        assert_eq!(buf.capacity(), 1);
        assert_eq!(buf.write(1), None);
        assert_eq!(buf.write(2), Some(1));
    }
}
