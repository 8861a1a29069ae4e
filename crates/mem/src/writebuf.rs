//! A small asynchronous write buffer: executed stores park here and drain
//! into the cache hierarchy over cycles instead of committing
//! instantaneously.
//!
//! The buffer is a pure timing device — architectural memory state lives
//! in the emulator, so an entry is just "a store whose cache write is
//! still in flight". Each entry carries the absolute cycle its drain
//! completes; drains serialize through the single cache write port the
//! buffer owns, so entry *k* can never complete before entry *k − 1*. The
//! whole structure is lazily pruned against the current cycle, which keeps
//! it usable from the core's inert-span fast-forward (no
//! per-cycle tick required).

/// FIFO of in-flight store drains, keyed by absolute completion cycle.
#[derive(Clone, Debug, Default)]
pub struct WriteBuffer {
    /// Capacity in entries; `0` disables the buffer (stores drain
    /// instantaneously, the historical model).
    cap: usize,
    /// Completion cycles of in-flight drains, non-decreasing by
    /// construction (each push serializes behind the current tail).
    entries: Vec<u64>,
    /// Stores refused because the buffer was full at issue time.
    full_rejections: u64,
    /// Stores accepted into the buffer over the whole run.
    accepted: u64,
}

impl WriteBuffer {
    /// Creates an empty buffer with `cap` entries (`0` = disabled).
    #[must_use]
    pub fn new(cap: usize) -> WriteBuffer {
        WriteBuffer {
            cap,
            entries: Vec::new(),
            ..WriteBuffer::default()
        }
    }

    /// Whether the buffer models anything at all.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.cap != 0
    }

    /// Drops every drain that completed by `now`.
    pub fn prune(&mut self, now: u64) {
        // Entries are sorted, so completed drains form a prefix.
        let done = self.entries.iter().take_while(|&&t| t <= now).count();
        self.entries.drain(..done);
    }

    /// Whether a store issued at `now` would be refused for lack of an
    /// entry. Prunes first, so the answer reflects the current cycle.
    #[must_use]
    pub fn is_full_at(&mut self, now: u64) -> bool {
        if self.cap == 0 {
            return false;
        }
        self.prune(now);
        self.entries.len() >= self.cap
    }

    /// Records a refused store (kept separate from [`WriteBuffer::push`]
    /// so the caller can check-then-refuse without side effects).
    pub fn note_rejected(&mut self) {
        self.full_rejections += 1;
    }

    /// Accepts a store whose cache write would complete at `complete_at`
    /// in isolation; the entry serializes behind the buffer tail and the
    /// actual drain-completion cycle is returned.
    ///
    /// The caller must have checked [`WriteBuffer::is_full_at`] first.
    pub fn push(&mut self, now: u64, complete_at: u64) -> u64 {
        debug_assert!(self.cap == 0 || self.entries.len() < self.cap);
        let tail = self.entries.last().copied().unwrap_or(now);
        let done = complete_at.max(tail);
        self.entries.push(done);
        self.accepted += 1;
        done
    }

    /// Entries still draining at `now` (diagnostic).
    #[must_use]
    pub fn occupancy_at(&mut self, now: u64) -> usize {
        self.prune(now);
        self.entries.len()
    }

    /// Stores refused because the buffer was full.
    #[must_use]
    pub fn full_rejections(&self) -> u64 {
        self.full_rejections
    }

    /// Stores accepted into the buffer.
    #[must_use]
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Earliest cycle strictly after `now` at which an entry drains —
    /// when a full buffer next frees a slot. `None` when nothing is in
    /// flight past `now`.
    #[must_use]
    pub fn next_drain_after(&self, now: u64) -> Option<u64> {
        self.entries.iter().copied().find(|&t| t > now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_buffer_never_fills() {
        let mut wb = WriteBuffer::new(0);
        assert!(!wb.enabled());
        for _ in 0..100 {
            assert!(!wb.is_full_at(0));
            wb.push(0, 300);
        }
    }

    #[test]
    fn drains_serialize_behind_the_tail() {
        let mut wb = WriteBuffer::new(4);
        // A slow drain followed by a fast one: the fast one still waits.
        assert_eq!(wb.push(0, 300), 300);
        assert_eq!(wb.push(1, 3), 300);
        assert_eq!(wb.push(2, 500), 500);
    }

    #[test]
    fn full_buffer_frees_as_time_passes() {
        let mut wb = WriteBuffer::new(2);
        wb.push(0, 100);
        wb.push(0, 200);
        assert!(wb.is_full_at(50));
        assert_eq!(wb.next_drain_after(50), Some(100));
        assert!(!wb.is_full_at(100), "the head drain completed at 100");
        assert_eq!(wb.occupancy_at(150), 1);
        assert!(!wb.is_full_at(200));
        assert_eq!(wb.occupancy_at(200), 0);
    }

    #[test]
    fn rejections_are_counted_separately() {
        let mut wb = WriteBuffer::new(1);
        wb.push(0, 100);
        assert!(wb.is_full_at(10));
        wb.note_rejected();
        assert_eq!(wb.full_rejections(), 1);
        assert_eq!(wb.accepted(), 1);
    }
}
