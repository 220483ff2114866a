//! Heap files: unordered record storage with stable record ids and
//! overflow chains for records larger than a page (whole chromosomes
//! easily exceed 8 KiB).
//!
//! A heap owns its slotted pages in memory. Reads borrow them (`&self`,
//! under the engine's read lock, so concurrent scans share them freely);
//! writes mutate them (`&mut self`, under the engine's write lock). Pages
//! are never written to disk: durability is the logical WAL plus snapshot
//! (see the `storage` module doc), and recovery rebuilds the heap by
//! replaying rows through the same `insert`.

use crate::error::{DbError, DbResult};
use crate::storage::page::Page;
use crate::tuple::{put_varint, take_slice, take_u8, take_varint};

/// A record id: page number plus slot within the page. Stable across the
/// record's lifetime (slots are tombstoned, never reused).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Rid {
    pub page: u32,
    pub slot: u16,
}

impl std::fmt::Display for Rid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({}, {})", self.page, self.slot)
    }
}

const INLINE: u8 = 0;
const OVERFLOW: u8 = 1;
/// Marker of an overflow chunk: an internal record, never a row.
const CHUNK: u8 = 2;
/// Chunk header inside an overflow record: next page (u32) + next slot (u16).
const CHUNK_HEADER: usize = 6;

/// An unordered heap of records: its pages, plus the live-record count.
#[derive(Default)]
pub struct HeapFile {
    pages: Vec<Page>,
    live: u64,
}

impl HeapFile {
    /// Number of live records.
    pub fn len(&self) -> u64 {
        self.live
    }

    /// True when no live records exist.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Number of allocated pages (heap + overflow).
    pub fn num_pages(&self) -> u32 {
        self.pages.len() as u32
    }

    /// Insert a record, returning its id.
    pub fn insert(&mut self, bytes: &[u8]) -> DbResult<Rid> {
        let record = if bytes.len() < Page::max_record() {
            inline_record(bytes)
        } else {
            let head = self.write_overflow_chain(bytes)?;
            overflow_stub(bytes.len(), head)
        };
        let rid = self.place(&record)?;
        self.live += 1;
        Ok(rid)
    }

    /// Read a record.
    pub fn get(&self, rid: Rid) -> DbResult<Option<Vec<u8>>> {
        match self.record(rid) {
            Some(rec) if rec.first() == Some(&INLINE) => Ok(Some(rec[1..].to_vec())),
            Some(stub) => self.expand(stub).map(Some),
            None => Ok(None),
        }
    }

    /// Delete a record (and its overflow chain). Returns false if already
    /// absent.
    pub fn delete(&mut self, rid: Rid) -> DbResult<bool> {
        let Some(stub) = self.record(rid) else { return Ok(false) };
        if stub.first() == Some(&OVERFLOW) {
            let (mut page, mut slot, _) = parse_overflow_stub(stub)?;
            while page != u32::MAX {
                let next = chunk_next(self.chunk(page, slot)?)?;
                self.pages[page as usize].delete(slot);
                (page, slot) = next;
            }
        }
        self.pages[rid.page as usize].delete(rid.slot);
        self.live -= 1;
        Ok(true)
    }

    /// Replace a record's contents. The record keeps its id when the new
    /// value fits in place; otherwise it moves and the new id is returned.
    pub fn update(&mut self, rid: Rid, bytes: &[u8]) -> DbResult<Rid> {
        let Some(old) = self.record(rid) else {
            return Err(DbError::Storage(format!("update of missing record {rid}")));
        };
        // In-place only for inline-to-inline shrinking updates (an
        // overflow stub must release its chain); anything else is delete +
        // insert (indexes are maintained by the caller).
        if old.first() == Some(&INLINE) && bytes.len() < Page::max_record() {
            let rec = inline_record(bytes);
            if self.pages[rid.page as usize].update_in_place(rid.slot, &rec) {
                return Ok(rid);
            }
        }
        self.delete(rid)?;
        self.insert(bytes)
    }

    /// Visit the live records of one page in slot order, each with its
    /// [`Rid`]. Inline payloads are visited on the page's own bytes;
    /// overflow stubs are expanded where they are found. Overflow chunks
    /// are internal records; only stubs are rows. Pages past the end visit
    /// nothing, which lets scans race ahead safely.
    pub fn page_visit_rows_rid(
        &self,
        page_no: u32,
        visit: &mut dyn FnMut(Rid, &[u8]) -> DbResult<()>,
    ) -> DbResult<()> {
        let Some(page) = self.pages.get(page_no as usize) else { return Ok(()) };
        for (slot, rec) in page.iter() {
            let rid = Rid { page: page_no, slot };
            match rec.first() {
                Some(&INLINE) => visit(rid, &rec[1..])?,
                Some(&OVERFLOW) => visit(rid, &self.expand(rec)?)?,
                _ => {}
            }
        }
        Ok(())
    }

    /// True when every live record on `page_no` is stored inline — the
    /// precondition for caching the page in columnar form. Pages with
    /// overflow stubs stay on the row path: their expanded payloads can
    /// dwarf the page (whole chromosomes), so a decoded columnar cache
    /// entry would pin unbounded memory.
    pub fn page_all_inline(&self, page_no: u32) -> bool {
        self.pages
            .get(page_no as usize)
            .is_none_or(|p| p.iter().all(|(_, rec)| rec.first() != Some(&OVERFLOW)))
    }

    // -- internals -----------------------------------------------------------

    /// The raw record (marker byte first) at `rid`, if live.
    fn record(&self, rid: Rid) -> Option<&[u8]> {
        self.pages.get(rid.page as usize)?.get(rid.slot)
    }

    /// One chunk of an overflow chain.
    fn chunk(&self, page: u32, slot: u16) -> DbResult<&[u8]> {
        self.record(Rid { page, slot })
            .ok_or_else(|| DbError::Storage("broken overflow chain".into()))
    }

    /// Place a small record on the tail page, allocating if needed.
    fn place(&mut self, record: &[u8]) -> DbResult<Rid> {
        let tail = self.pages.len() as u32;
        if let Some(slot) = self.pages.last_mut().and_then(|p| p.insert(record)) {
            return Ok(Rid { page: tail - 1, slot });
        }
        let mut fresh = Page::new();
        let slot = fresh
            .insert(record)
            .ok_or_else(|| DbError::Storage("record does not fit in an empty page".into()))?;
        self.pages.push(fresh);
        Ok(Rid { page: tail, slot })
    }

    /// Write `bytes` as a chain of chunk records; returns the head chunk's
    /// location. Chunks carry a marker byte distinct from INLINE/OVERFLOW so
    /// scans skip them.
    fn write_overflow_chain(&mut self, bytes: &[u8]) -> DbResult<(u32, u16)> {
        let payload = Page::max_record() - 1 - CHUNK_HEADER;
        // Write back-to-front so each chunk knows its successor.
        let (mut next_page, mut next_slot) = (u32::MAX, u16::MAX);
        for chunk in bytes.chunks(payload).rev() {
            let mut rec = Vec::with_capacity(1 + CHUNK_HEADER + chunk.len());
            rec.push(CHUNK);
            rec.extend_from_slice(&next_page.to_le_bytes());
            rec.extend_from_slice(&next_slot.to_le_bytes());
            rec.extend_from_slice(chunk);
            let rid = self.place(&rec)?;
            next_page = rid.page;
            next_slot = rid.slot;
        }
        Ok((next_page, next_slot))
    }

    /// Reassemble an overflow stub's payload from its chunk chain.
    fn expand(&self, stub: &[u8]) -> DbResult<Vec<u8>> {
        if stub.first() != Some(&OVERFLOW) {
            return Err(DbError::Storage("unrecognized record marker".into()));
        }
        let (mut page, mut slot, total) = parse_overflow_stub(stub)?;
        let mut out = Vec::with_capacity(total);
        while page != u32::MAX {
            let chunk = self.chunk(page, slot)?;
            (page, slot) = chunk_next(chunk)?;
            out.extend_from_slice(&chunk[1 + CHUNK_HEADER..]);
        }
        if out.len() != total {
            return Err(DbError::Storage(format!(
                "overflow chain length {} != declared {total}",
                out.len()
            )));
        }
        Ok(out)
    }
}

fn inline_record(bytes: &[u8]) -> Vec<u8> {
    let mut rec = Vec::with_capacity(1 + bytes.len());
    rec.push(INLINE);
    rec.extend_from_slice(bytes);
    rec
}

fn overflow_stub(total: usize, (page, slot): (u32, u16)) -> Vec<u8> {
    let mut rec = Vec::with_capacity(16);
    rec.push(OVERFLOW);
    put_varint(&mut rec, total as u64);
    rec.extend_from_slice(&page.to_le_bytes());
    rec.extend_from_slice(&slot.to_le_bytes());
    rec
}

fn parse_overflow_stub(stub: &[u8]) -> DbResult<(u32, u16, usize)> {
    let mut buf = &stub[1..];
    let total = take_varint(&mut buf)? as usize;
    let page_bytes = take_slice(&mut buf, 4)?;
    let slot_bytes = take_slice(&mut buf, 2)?;
    let page = u32::from_le_bytes(page_bytes.try_into().expect("4 bytes"));
    let slot = u16::from_le_bytes(slot_bytes.try_into().expect("2 bytes"));
    Ok((page, slot, total))
}

fn chunk_next(chunk: &[u8]) -> DbResult<(u32, u16)> {
    let mut buf = chunk;
    let _mark = take_u8(&mut buf)?;
    let page_bytes = take_slice(&mut buf, 4)?;
    let slot_bytes = take_slice(&mut buf, 2)?;
    Ok((
        u32::from_le_bytes(page_bytes.try_into().expect("4 bytes")),
        u16::from_le_bytes(slot_bytes.try_into().expect("2 bytes")),
    ))
}

impl std::fmt::Debug for HeapFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HeapFile")
            .field("live", &self.live)
            .field("pages", &self.pages.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every live record, by walking each page's rows.
    fn scan(h: &HeapFile) -> Vec<(Rid, Vec<u8>)> {
        let mut out = Vec::new();
        for page_no in 0..h.num_pages() {
            h.page_visit_rows_rid(page_no, &mut |rid, bytes| {
                out.push((rid, bytes.to_vec()));
                Ok(())
            })
            .unwrap();
        }
        out
    }

    #[test]
    fn insert_get_delete_small() {
        let mut h = HeapFile::default();
        let a = h.insert(b"alpha").unwrap();
        let b = h.insert(b"beta").unwrap();
        assert_eq!(h.len(), 2);
        assert_eq!(h.get(a).unwrap().as_deref(), Some(&b"alpha"[..]));
        assert_eq!(h.get(b).unwrap().as_deref(), Some(&b"beta"[..]));
        assert!(h.delete(a).unwrap());
        assert!(!h.delete(a).unwrap());
        assert_eq!(h.get(a).unwrap(), None);
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn get_of_unknown_rid_is_none() {
        let mut h = HeapFile::default();
        assert_eq!(h.get(Rid { page: 9, slot: 9 }).unwrap(), None);
        assert!(!h.delete(Rid { page: 9, slot: 0 }).unwrap());
    }

    #[test]
    fn many_records_spill_to_new_pages() {
        let mut h = HeapFile::default();
        let rids: Vec<Rid> =
            (0..1000).map(|i| h.insert(format!("record-{i:04}").as_bytes()).unwrap()).collect();
        assert!(h.num_pages() > 1);
        for (i, rid) in rids.iter().enumerate() {
            assert_eq!(h.get(*rid).unwrap().unwrap(), format!("record-{i:04}").into_bytes());
        }
        assert_eq!(scan(&h).len(), 1000);
    }

    #[test]
    fn large_record_overflow_roundtrip() {
        let mut h = HeapFile::default();
        // A 100 KiB "chromosome": far beyond one page.
        let big: Vec<u8> = (0..100_000u32).map(|i| (i % 251) as u8).collect();
        let small = h.insert(b"small").unwrap();
        let rid = h.insert(&big).unwrap();
        assert_eq!(h.get(rid).unwrap().unwrap(), big);
        assert_eq!(h.get(small).unwrap().as_deref(), Some(&b"small"[..]));
        // Scans see exactly the two logical records, not the chunks.
        let rows = scan(&h);
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().any(|(r, data)| *r == rid && *data == big));
    }

    #[test]
    fn page_visit_expands_stubs_in_slot_order() {
        // One page holding inline, overflow and inline records. `insert`
        // always lands a stub on a fresh page (its last chunk fills the
        // tail), so the page is assembled from the same internals.
        let mut h = HeapFile::default();
        let big: Vec<u8> = (0..20_000u32).map(|i| (i % 241) as u8).collect();
        let head = h.write_overflow_chain(&big).unwrap();
        let before = h.insert(b"before").unwrap();
        let stub = h.place(&overflow_stub(big.len(), head)).unwrap();
        h.live += 1;
        let after = h.insert(b"after").unwrap();
        assert!(stub.page == before.page && after.page == before.page);
        assert_eq!((before.slot, stub.slot, after.slot), (0, 1, 2));
        assert!(!h.page_all_inline(before.page));

        let mut seen = Vec::new();
        h.page_visit_rows_rid(before.page, &mut |rid, bytes| {
            seen.push((rid, bytes.to_vec()));
            Ok(())
        })
        .unwrap();
        assert_eq!(
            seen,
            vec![(before, b"before".to_vec()), (stub, big), (after, b"after".to_vec())]
        );
        assert_eq!(scan(&h).len(), 3);
    }

    #[test]
    fn delete_large_record_frees_logical_view() {
        let mut h = HeapFile::default();
        let big = vec![7u8; 50_000];
        let rid = h.insert(&big).unwrap();
        assert!(h.delete(rid).unwrap());
        assert_eq!(h.get(rid).unwrap(), None);
        assert_eq!(scan(&h).len(), 0);
        assert_eq!(h.len(), 0);
    }

    #[test]
    fn update_in_place_keeps_rid() {
        let mut h = HeapFile::default();
        let rid = h.insert(b"abcdef").unwrap();
        let same = h.update(rid, b"abc").unwrap();
        assert_eq!(same, rid);
        assert_eq!(h.get(rid).unwrap().as_deref(), Some(&b"abc"[..]));
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn growing_update_relocates() {
        let mut h = HeapFile::default();
        let rid = h.insert(b"ab").unwrap();
        // Fill the tail page a bit so in-place growth is impossible.
        let grown = vec![9u8; 5000];
        let new_rid = h.update(rid, &grown).unwrap();
        assert_eq!(h.get(new_rid).unwrap().unwrap(), grown);
        if new_rid != rid {
            assert_eq!(h.get(rid).unwrap(), None);
        }
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn update_small_to_large_to_small() {
        let mut h = HeapFile::default();
        let rid = h.insert(b"tiny").unwrap();
        let big = vec![1u8; 30_000];
        let rid2 = h.update(rid, &big).unwrap();
        assert_eq!(h.get(rid2).unwrap().unwrap(), big);
        let rid3 = h.update(rid2, b"tiny again").unwrap();
        assert_eq!(h.get(rid3).unwrap().as_deref(), Some(&b"tiny again"[..]));
        assert_eq!(scan(&h).len(), 1);
        // A payload short enough to fit over the stub still releases the
        // chain: every chunk slot is a tombstone afterwards.
        let rid4 = h.update(rid3, &big).unwrap();
        let rid5 = h.update(rid4, b"x").unwrap();
        assert_ne!(rid5, rid4);
        let chunks: usize =
            h.pages.iter().flat_map(Page::iter).filter(|(_, r)| r[0] == CHUNK).count();
        assert_eq!(chunks, 0);
    }

    #[test]
    fn update_missing_errors() {
        let mut h = HeapFile::default();
        assert!(h.update(Rid { page: 0, slot: 0 }, b"x").is_err());
    }

    #[test]
    fn page_batches_skip_chunks() {
        let mut h = HeapFile::default();
        h.insert(&vec![3u8; 40_000]).unwrap();
        assert_eq!(scan(&h).len(), 1);
        h.page_visit_rows_rid(999, &mut |rid, _| panic!("row {rid} past the end")).unwrap();
    }

    #[test]
    fn overflow_and_small_records_round_trip_across_pages() {
        let mut h = HeapFile::default();
        let big = vec![5u8; 60_000];
        let rid = h.insert(&big).unwrap();
        let small: Vec<Rid> =
            (0..200).map(|i| h.insert(format!("r{i}").as_bytes()).unwrap()).collect();
        assert!(h.num_pages() > 2);
        assert_eq!(h.get(rid).unwrap().unwrap(), big);
        for (i, r) in small.iter().enumerate() {
            assert_eq!(h.get(*r).unwrap().unwrap(), format!("r{i}").into_bytes());
        }
        let rows = scan(&h);
        assert_eq!(rows.len(), 201);
        assert_eq!(rows[0], (rid, big));
    }
}
