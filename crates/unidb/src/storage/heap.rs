//! Heap files: unordered record storage with stable record ids and
//! overflow chains for records larger than a page (whole chromosomes
//! easily exceed 8 KiB).

use crate::error::{DbError, DbResult};
use crate::storage::buffer::BufferPool;
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
/// Chunk header inside an overflow record: next page (u32) + next slot (u16).
const CHUNK_HEADER: usize = 6;

/// An unordered heap of records over a buffer pool.
pub struct HeapFile {
    pool: BufferPool,
    live: u64,
}

impl HeapFile {
    /// An empty heap over the given pool.
    pub fn new(pool: BufferPool) -> Self {
        HeapFile { pool, live: 0 }
    }

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
        self.pool.num_pages()
    }

    /// Buffer-pool statistics `(hits, misses, evictions)`.
    pub fn pool_stats(&self) -> (u64, u64, u64) {
        self.pool.stats()
    }

    /// Insert a record, returning its id.
    pub fn insert(&mut self, bytes: &[u8]) -> DbResult<Rid> {
        let record = if bytes.len() < Page::max_record() {
            let mut rec = Vec::with_capacity(1 + bytes.len());
            rec.push(INLINE);
            rec.extend_from_slice(bytes);
            rec
        } else {
            let (first_page, first_slot) = self.write_overflow_chain(bytes)?;
            let mut rec = Vec::with_capacity(16);
            rec.push(OVERFLOW);
            put_varint(&mut rec, bytes.len() as u64);
            rec.extend_from_slice(&first_page.to_le_bytes());
            rec.extend_from_slice(&first_slot.to_le_bytes());
            rec
        };
        let rid = self.place(&record)?;
        self.live += 1;
        Ok(rid)
    }

    /// Read a record.
    pub fn get(&self, rid: Rid) -> DbResult<Option<Vec<u8>>> {
        if rid.page >= self.pool.num_pages() {
            return Ok(None);
        }
        let stub = self.pool.with_page(rid.page, |p| p.get(rid.slot).map(<[u8]>::to_vec))?;
        let Some(stub) = stub else { return Ok(None) };
        self.expand(&stub).map(Some)
    }

    /// Delete a record (and its overflow chain). Returns false if already
    /// absent.
    pub fn delete(&mut self, rid: Rid) -> DbResult<bool> {
        if rid.page >= self.pool.num_pages() {
            return Ok(false);
        }
        let stub = self.pool.with_page(rid.page, |p| p.get(rid.slot).map(<[u8]>::to_vec))?;
        let Some(stub) = stub else { return Ok(false) };
        if stub.first() == Some(&OVERFLOW) {
            let (mut page, mut slot, _) = parse_overflow_stub(&stub)?;
            while page != u32::MAX {
                let chunk = self
                    .pool
                    .with_page(page, |p| p.get(slot).map(<[u8]>::to_vec))?
                    .ok_or_else(|| DbError::Storage("broken overflow chain".into()))?;
                let (next_page, next_slot) = chunk_next(&chunk)?;
                self.pool.with_page_mut(page, |p| p.delete(slot))?;
                page = next_page;
                slot = next_slot;
            }
        }
        self.pool.with_page_mut(rid.page, |p| p.delete(rid.slot))?;
        self.live -= 1;
        Ok(true)
    }

    /// Replace a record's contents. The record keeps its id when the new
    /// value fits in place; otherwise it moves and the new id is returned.
    pub fn update(&mut self, rid: Rid, bytes: &[u8]) -> DbResult<Rid> {
        // In-place only for inline-to-inline shrinking updates; anything
        // else is delete + insert (indexes are maintained by the caller).
        let existing = self.get(rid)?;
        if existing.is_none() {
            return Err(DbError::Storage(format!("update of missing record {rid}")));
        }
        if bytes.len() < Page::max_record() {
            let mut rec = Vec::with_capacity(1 + bytes.len());
            rec.push(INLINE);
            rec.extend_from_slice(bytes);
            let updated =
                self.pool.with_page_mut(rid.page, |p| p.update_in_place(rid.slot, &rec))?;
            if updated {
                return Ok(rid);
            }
        }
        self.delete(rid)?;
        self.insert(bytes)
    }

    /// Visit the live records of one page in slot order, each with its
    /// [`Rid`], without copying inline payloads out of the page first:
    /// `visit` runs on the page's own bytes under the latch. Pages past the
    /// end visit nothing, which lets scans race ahead safely. Overflow
    /// chunks are internal records; only stubs are rows. Overflow stubs
    /// can't be expanded there (`expand` re-enters the pool, which would
    /// deadlock under the page latch), so from the first stub onward
    /// `(slot, record)` pairs are buffered and visited after the latch
    /// drops — slot order is preserved either way, and the common
    /// all-inline page stays copy-free.
    pub fn page_visit_rows_rid(
        &self,
        page_no: u32,
        visit: &mut dyn FnMut(Rid, &[u8]) -> DbResult<()>,
    ) -> DbResult<()> {
        if page_no >= self.pool.num_pages() {
            return Ok(());
        }
        let mut tail: Vec<(u16, Vec<u8>)> = Vec::new();
        let mut failed = None;
        self.pool.with_page(page_no, |p| {
            for (slot, rec) in p.iter() {
                match rec.first() {
                    Some(&INLINE) if tail.is_empty() => {
                        if let Err(e) = visit(Rid { page: page_no, slot }, &rec[1..]) {
                            failed = Some(e);
                            return;
                        }
                    }
                    Some(&INLINE) | Some(&OVERFLOW) => tail.push((slot, rec.to_vec())),
                    _ => {}
                }
            }
        })?;
        if let Some(e) = failed {
            return Err(e);
        }
        for (slot, rec) in tail {
            let rid = Rid { page: page_no, slot };
            match rec.first() {
                Some(&INLINE) => visit(rid, &rec[1..])?,
                _ => visit(rid, &self.expand(&rec)?)?,
            }
        }
        Ok(())
    }

    /// True when every live record on `page_no` is stored inline — the
    /// precondition for caching the page in columnar form. Pages with
    /// overflow stubs stay on the row path: their expanded payloads can
    /// dwarf the page (whole chromosomes), so a decoded columnar cache
    /// entry would pin unbounded memory.
    pub fn page_all_inline(&self, page_no: u32) -> DbResult<bool> {
        if page_no >= self.pool.num_pages() {
            return Ok(true);
        }
        let mut all_inline = true;
        self.pool.with_page(page_no, |p| {
            for (_slot, rec) in p.iter() {
                if rec.first() == Some(&OVERFLOW) {
                    all_inline = false;
                    return;
                }
            }
        })?;
        Ok(all_inline)
    }

    /// Flush dirty pages to the store.
    pub fn flush(&mut self) -> DbResult<()> {
        self.pool.flush_all()
    }

    // -- internals -----------------------------------------------------------

    /// Place a small record on the tail page, allocating if needed.
    fn place(&mut self, record: &[u8]) -> DbResult<Rid> {
        let n = self.pool.num_pages();
        if n > 0 {
            let tail = n - 1;
            let slot = self.pool.with_page_mut(tail, |p| p.insert(record))?;
            if let Some(slot) = slot {
                return Ok(Rid { page: tail, slot });
            }
        }
        let fresh = self.pool.allocate()?;
        let slot = self
            .pool
            .with_page_mut(fresh, |p| p.insert(record))?
            .ok_or_else(|| DbError::Storage("record does not fit in an empty page".into()))?;
        Ok(Rid { page: fresh, slot })
    }

    /// Write `bytes` as a chain of chunk records; returns the head chunk's
    /// location. Chunks carry a marker byte distinct from INLINE/OVERFLOW so
    /// scans skip them.
    fn write_overflow_chain(&mut self, bytes: &[u8]) -> DbResult<(u32, u16)> {
        const CHUNK_MARK: u8 = 2;
        let payload = Page::max_record() - 1 - CHUNK_HEADER;
        let chunks: Vec<&[u8]> = bytes.chunks(payload).collect();
        // Write back-to-front so each chunk knows its successor.
        let (mut next_page, mut next_slot) = (u32::MAX, u16::MAX);
        for chunk in chunks.iter().rev() {
            let mut rec = Vec::with_capacity(1 + CHUNK_HEADER + chunk.len());
            rec.push(CHUNK_MARK);
            rec.extend_from_slice(&next_page.to_le_bytes());
            rec.extend_from_slice(&next_slot.to_le_bytes());
            rec.extend_from_slice(chunk);
            let rid = self.place(&rec)?;
            next_page = rid.page;
            next_slot = rid.slot;
        }
        Ok((next_page, next_slot))
    }

    /// Expand a stub into the full record bytes.
    fn expand(&self, stub: &[u8]) -> DbResult<Vec<u8>> {
        match stub.first() {
            Some(&INLINE) => Ok(stub[1..].to_vec()),
            Some(&OVERFLOW) => {
                let (mut page, mut slot, total) = parse_overflow_stub(stub)?;
                let mut out = Vec::with_capacity(total);
                while page != u32::MAX {
                    let chunk = self
                        .pool
                        .with_page(page, |p| p.get(slot).map(<[u8]>::to_vec))?
                        .ok_or_else(|| DbError::Storage("broken overflow chain".into()))?;
                    let (next_page, next_slot) = chunk_next(&chunk)?;
                    out.extend_from_slice(&chunk[1 + CHUNK_HEADER..]);
                    page = next_page;
                    slot = next_slot;
                }
                if out.len() != total {
                    return Err(DbError::Storage(format!(
                        "overflow chain length {} != declared {total}",
                        out.len()
                    )));
                }
                Ok(out)
            }
            _ => Err(DbError::Storage("unrecognized record marker".into())),
        }
    }
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
            .field("pages", &self.pool.num_pages())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::store::MemStore;

    fn heap() -> HeapFile {
        HeapFile::new(BufferPool::new(Box::new(MemStore::new()), 64))
    }

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
        let mut h = heap();
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
        let mut h = heap();
        assert_eq!(h.get(Rid { page: 9, slot: 9 }).unwrap(), None);
        assert!(!h.delete(Rid { page: 9, slot: 0 }).unwrap());
    }

    #[test]
    fn many_records_spill_to_new_pages() {
        let mut h = heap();
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
        let mut h = heap();
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
    fn delete_large_record_frees_logical_view() {
        let mut h = heap();
        let big = vec![7u8; 50_000];
        let rid = h.insert(&big).unwrap();
        assert!(h.delete(rid).unwrap());
        assert_eq!(h.get(rid).unwrap(), None);
        assert_eq!(scan(&h).len(), 0);
        assert_eq!(h.len(), 0);
    }

    #[test]
    fn update_in_place_keeps_rid() {
        let mut h = heap();
        let rid = h.insert(b"abcdef").unwrap();
        let same = h.update(rid, b"abc").unwrap();
        assert_eq!(same, rid);
        assert_eq!(h.get(rid).unwrap().as_deref(), Some(&b"abc"[..]));
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn growing_update_relocates() {
        let mut h = heap();
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
        let mut h = heap();
        let rid = h.insert(b"tiny").unwrap();
        let big = vec![1u8; 30_000];
        let rid2 = h.update(rid, &big).unwrap();
        assert_eq!(h.get(rid2).unwrap().unwrap(), big);
        let rid3 = h.update(rid2, b"tiny again").unwrap();
        assert_eq!(h.get(rid3).unwrap().as_deref(), Some(&b"tiny again"[..]));
        assert_eq!(scan(&h).len(), 1);
    }

    #[test]
    fn update_missing_errors() {
        let mut h = heap();
        assert!(h.update(Rid { page: 0, slot: 0 }, b"x").is_err());
    }

    #[test]
    fn page_batches_skip_chunks() {
        let mut h = heap();
        h.insert(&vec![3u8; 40_000]).unwrap();
        assert_eq!(scan(&h).len(), 1);
        h.page_visit_rows_rid(999, &mut |rid, _| panic!("row {rid} past the end")).unwrap();
    }

    #[test]
    fn works_with_tiny_buffer_pool() {
        // Eviction pressure: pool of 2 frames, data spanning many pages.
        let mut h = HeapFile::new(BufferPool::new(Box::new(MemStore::new()), 2));
        let big = vec![5u8; 60_000];
        let rid = h.insert(&big).unwrap();
        let small: Vec<Rid> =
            (0..200).map(|i| h.insert(format!("r{i}").as_bytes()).unwrap()).collect();
        assert_eq!(h.get(rid).unwrap().unwrap(), big);
        assert_eq!(h.get(small[0]).unwrap().as_deref(), Some(&b"r0"[..]));
        let (_, _, evictions) = h.pool_stats();
        assert!(evictions > 0);
    }

    #[test]
    fn injected_io_faults_surface_as_structured_errors() {
        // A heap over a file store on a faulty disk: every failure must be
        // a structured DbError::Io (no panic, no silent corruption), and
        // once the disk behaves again the heap must still be usable with
        // all successfully written data intact.
        use crate::error::DbError;
        use crate::storage::store::FileStore;
        use crate::storage::vfs::{FaultConfig, FaultVfs};

        let mut cfg = FaultConfig::transient(0xFA01);
        cfg.enospc_prob = 0.2;
        cfg.torn_write_prob = 0.2;
        let vfs = FaultVfs::new(cfg);
        vfs.disarm();
        let store = FileStore::open(&vfs, std::path::Path::new("/heap.pages")).unwrap();
        // Tiny pool so evictions force store writes mid-workload.
        let mut h = HeapFile::new(BufferPool::new(Box::new(store), 2));
        vfs.arm();
        let mut written = Vec::new();
        let mut io_errors = 0u32;
        for i in 0..100 {
            // Big enough that every few inserts open a new page, forcing
            // evictions (and thus store writes) through the 2-frame pool.
            let payload = format!("record-{i}-{}", "g".repeat(2500)).into_bytes();
            match h.insert(&payload) {
                Ok(rid) => written.push((rid, payload)),
                Err(DbError::Io(_)) => io_errors += 1,
                Err(other) => panic!("expected DbError::Io, got {other:?}"),
            }
        }
        assert!(io_errors > 0, "fault config injected nothing");
        vfs.disarm();
        for (rid, payload) in &written {
            match h.get(*rid) {
                Ok(Some(bytes)) => assert_eq!(&bytes, payload, "corrupt record at {rid}"),
                Ok(None) => panic!("successfully inserted record {rid} vanished"),
                Err(e) => panic!("read of {rid} failed after faults cleared: {e}"),
            }
        }
    }
}
