//! Slotted pages.
//!
//! Layout (offsets in bytes):
//!
//! ```text
//! 0..2   n_slots   (u16)
//! 2..4   free_end  (u16)  — start of the record area, grows downward
//! 4..    slot array: per slot (offset u16, len u16)
//! ...    free space
//! ...    records, allocated from PAGE_SIZE downward
//! ```
//!
//! Slots are never reused after deletion so record ids stay stable for the
//! lifetime of the page (tombstones carry `offset == 0`).

/// Size of every page in bytes.
pub const PAGE_SIZE: usize = 8192;

const HEADER: usize = 4;
const SLOT: usize = 4;

/// A fixed-size slotted page.
pub struct Page {
    data: Box<[u8; PAGE_SIZE]>,
}

impl Default for Page {
    fn default() -> Self {
        Self::new()
    }
}

impl Page {
    /// An empty page.
    pub fn new() -> Self {
        let mut p = Page { data: Box::new([0u8; PAGE_SIZE]) };
        p.set_free_end(PAGE_SIZE as u16);
        p
    }

    fn n_slots(&self) -> u16 {
        u16::from_le_bytes([self.data[0], self.data[1]])
    }

    fn set_n_slots(&mut self, n: u16) {
        self.data[0..2].copy_from_slice(&n.to_le_bytes());
    }

    fn free_end(&self) -> u16 {
        u16::from_le_bytes([self.data[2], self.data[3]])
    }

    fn set_free_end(&mut self, v: u16) {
        self.data[2..4].copy_from_slice(&v.to_le_bytes());
    }

    fn slot_entry(&self, slot: u16) -> (u16, u16) {
        let base = HEADER + slot as usize * SLOT;
        (
            u16::from_le_bytes([self.data[base], self.data[base + 1]]),
            u16::from_le_bytes([self.data[base + 2], self.data[base + 3]]),
        )
    }

    fn set_slot_entry(&mut self, slot: u16, offset: u16, len: u16) {
        let base = HEADER + slot as usize * SLOT;
        self.data[base..base + 2].copy_from_slice(&offset.to_le_bytes());
        self.data[base + 2..base + 4].copy_from_slice(&len.to_le_bytes());
    }

    /// Bytes available for a new record (including its slot entry).
    pub fn free_space(&self) -> usize {
        self.free_end() as usize - (HEADER + self.n_slots() as usize * SLOT)
    }

    /// Largest record an *empty* page can hold.
    pub const fn max_record() -> usize {
        PAGE_SIZE - HEADER - SLOT
    }

    /// Number of slots ever allocated (live + tombstones).
    pub fn slot_count(&self) -> u16 {
        self.n_slots()
    }

    /// Insert a record; returns the slot, or `None` if it does not fit.
    pub fn insert(&mut self, record: &[u8]) -> Option<u16> {
        if record.len() + SLOT > self.free_space() {
            return None;
        }
        let slot = self.n_slots();
        let new_end = self.free_end() - record.len() as u16;
        self.data[new_end as usize..new_end as usize + record.len()].copy_from_slice(record);
        self.set_slot_entry(slot, new_end, record.len() as u16);
        self.set_free_end(new_end);
        self.set_n_slots(slot + 1);
        Some(slot)
    }

    /// Read the record in `slot`; `None` for deleted or unknown slots.
    pub fn get(&self, slot: u16) -> Option<&[u8]> {
        if slot >= self.n_slots() {
            return None;
        }
        let (offset, len) = self.slot_entry(slot);
        if offset == 0 {
            return None; // tombstone
        }
        Some(&self.data[offset as usize..offset as usize + len as usize])
    }

    /// Delete the record in `slot`; returns false if it was already gone.
    /// The space is not reclaimed (no compaction), but the slot id stays
    /// stable forever.
    pub fn delete(&mut self, slot: u16) -> bool {
        if slot >= self.n_slots() {
            return false;
        }
        let (offset, _) = self.slot_entry(slot);
        if offset == 0 {
            return false;
        }
        self.set_slot_entry(slot, 0, 0);
        true
    }

    /// Overwrite the record in `slot` in place. Only possible when the new
    /// record is no longer than the old one; returns false otherwise.
    pub fn update_in_place(&mut self, slot: u16, record: &[u8]) -> bool {
        if slot >= self.n_slots() {
            return false;
        }
        let (offset, len) = self.slot_entry(slot);
        if offset == 0 || record.len() > len as usize {
            return false;
        }
        self.data[offset as usize..offset as usize + record.len()].copy_from_slice(record);
        self.set_slot_entry(slot, offset, record.len() as u16);
        true
    }

    /// Iterate over live `(slot, record)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u16, &[u8])> {
        (0..self.n_slots()).filter_map(move |s| self.get(s).map(|r| (s, r)))
    }
}

impl std::fmt::Debug for Page {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Page")
            .field("slots", &self.n_slots())
            .field("free_space", &self.free_space())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_and_get() {
        let mut p = Page::new();
        let s0 = p.insert(b"hello").unwrap();
        let s1 = p.insert(b"world!").unwrap();
        assert_eq!(p.get(s0), Some(&b"hello"[..]));
        assert_eq!(p.get(s1), Some(&b"world!"[..]));
        assert_eq!(p.slot_count(), 2);
        assert_eq!(p.get(99), None);
    }

    #[test]
    fn delete_leaves_stable_tombstone() {
        let mut p = Page::new();
        let s0 = p.insert(b"a").unwrap();
        let s1 = p.insert(b"b").unwrap();
        assert!(p.delete(s0));
        assert!(!p.delete(s0));
        assert_eq!(p.get(s0), None);
        assert_eq!(p.get(s1), Some(&b"b"[..]));
        // New inserts never reuse the dead slot id.
        let s2 = p.insert(b"c").unwrap();
        assert_eq!(s2, 2);
    }

    #[test]
    fn fills_to_capacity() {
        let mut p = Page::new();
        let rec = [7u8; 100];
        let mut n = 0;
        while p.insert(&rec).is_some() {
            n += 1;
        }
        // Each record consumes 100 + 4 slot bytes out of 8188 usable.
        assert_eq!(n, (PAGE_SIZE - HEADER) / 104);
        assert!(p.free_space() < 104);
        // Everything is still readable.
        assert_eq!(p.iter().count(), n);
    }

    #[test]
    fn max_record_fits_exactly() {
        let mut p = Page::new();
        let rec = vec![1u8; Page::max_record()];
        assert!(p.insert(&rec).is_some());
        assert!(p.insert(b"x").is_none());
    }

    #[test]
    fn update_in_place_rules() {
        let mut p = Page::new();
        let s = p.insert(b"abcdef").unwrap();
        assert!(p.update_in_place(s, b"xyz"));
        assert_eq!(p.get(s), Some(&b"xyz"[..]));
        assert!(!p.update_in_place(s, b"longer than six"), "grew past original allocation");
        assert!(!p.update_in_place(9, b"x"));
        p.delete(s);
        assert!(!p.update_in_place(s, b"x"));
    }

    #[test]
    fn empty_record_allowed() {
        let mut p = Page::new();
        let s = p.insert(b"").unwrap();
        // Empty records are real (offset points into the record area).
        assert_eq!(p.get(s), Some(&b""[..]));
    }
}
