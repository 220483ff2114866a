//! The write-ahead log: logical redo records with CRC-framed entries.
//!
//! Recovery model: a database directory holds a snapshot (written at
//! checkpoint) plus this log of every mutation since. Opening the database
//! loads the snapshot and replays the log; a torn tail (crash mid-append)
//! is detected by the frame CRC and cleanly ignored.
//!
//! Records are *logical* (full row images, qualified table names) rather
//! than physical page deltas — the same format doubles as the transport
//! for ETL delta shipping.
//!
//! All file IO goes through the [`crate::storage::vfs::Vfs`] abstraction so
//! the crash-recovery tests can inject faults. [`WalWriter`] is written to
//! survive them: records are buffered in memory until `sync`, a failed
//! sync leaves the buffer intact for a later retry (so `Ok` from `sync`
//! means *everything* appended so far is durable, in order), and a torn
//! on-disk tail left by a failed write is truncated away before the next
//! attempt.

use crate::datum::{DataType, Datum};
use crate::error::{DbError, DbResult};
use crate::storage::vfs::{Vfs, VfsFile};
use crate::tuple::{self, put_varint, take_slice, take_u8, take_varint};
use std::path::Path;

/// One logical WAL record.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    CreateSpace {
        name: String,
        owner: String,
    },
    CreateTable {
        space: String,
        name: String,
        columns: Vec<(String, DataType, bool)>,
    },
    DropTable {
        space: String,
        name: String,
    },
    Insert {
        table: String,
        row: Vec<Datum>,
    },
    Delete {
        table: String,
        row: Vec<Datum>,
    },
    Update {
        table: String,
        old_row: Vec<Datum>,
        new_row: Vec<Datum>,
    },
    /// Marks a completed checkpoint; replay may start after the last one.
    Checkpoint,
    /// Index creation, B-tree or domain index alike: replay rebuilds the
    /// index from the rows already there, so the kind must be registered
    /// before recovery. A record written before indexes had kinds (op 8,
    /// `unique` only) decodes as kind `btree`.
    CreateIndex {
        table: String,
        column: String,
        kind: String,
        params: Vec<(String, Datum)>,
    },
    /// Opens an explicit transaction. Replay buffers subsequent records
    /// and applies them only when the matching [`WalRecord::TxnCommit`]
    /// arrives — a crash mid-transaction leaves its records invisible.
    TxnBegin,
    /// Commits the open transaction's buffered records.
    TxnCommit,
    /// Checkpoint epoch marker. The snapshot starts with its epoch and the
    /// WAL's first record names the epoch it continues from; a WAL carrying
    /// an older epoch than the snapshot is a leftover from a crash between
    /// snapshot rename and log truncation and is skipped, making replay
    /// idempotent.
    Epoch(u64),
}

const OP_CREATE_SPACE: u8 = 1;
const OP_CREATE_TABLE: u8 = 2;
const OP_DROP_TABLE: u8 = 3;
const OP_INSERT: u8 = 4;
const OP_DELETE: u8 = 5;
const OP_UPDATE: u8 = 6;
const OP_CHECKPOINT: u8 = 7;
const OP_CREATE_INDEX: u8 = 8;
const OP_TXN_BEGIN: u8 = 9;
const OP_TXN_COMMIT: u8 = 10;
const OP_EPOCH: u8 = 11;
/// `CreateIndex` with a kind and parameters; [`OP_CREATE_INDEX`] stays
/// readable as a B-tree.
const OP_CREATE_INDEX_OF_KIND: u8 = 12;

impl WalRecord {
    /// Serialize the record payload (without framing).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        match self {
            WalRecord::CreateSpace { name, owner } => {
                buf.push(OP_CREATE_SPACE);
                put_str(&mut buf, name);
                put_str(&mut buf, owner);
            }
            WalRecord::CreateTable { space, name, columns } => {
                buf.push(OP_CREATE_TABLE);
                put_str(&mut buf, space);
                put_str(&mut buf, name);
                put_varint(&mut buf, columns.len() as u64);
                for (cname, ty, nullable) in columns {
                    put_str(&mut buf, cname);
                    put_type(&mut buf, *ty);
                    buf.push(u8::from(*nullable));
                }
            }
            WalRecord::DropTable { space, name } => {
                buf.push(OP_DROP_TABLE);
                put_str(&mut buf, space);
                put_str(&mut buf, name);
            }
            WalRecord::Insert { table, row } => {
                buf.push(OP_INSERT);
                put_str(&mut buf, table);
                put_bytes(&mut buf, &tuple::encode_row(row));
            }
            WalRecord::Delete { table, row } => {
                buf.push(OP_DELETE);
                put_str(&mut buf, table);
                put_bytes(&mut buf, &tuple::encode_row(row));
            }
            WalRecord::Update { table, old_row, new_row } => {
                buf.push(OP_UPDATE);
                put_str(&mut buf, table);
                put_bytes(&mut buf, &tuple::encode_row(old_row));
                put_bytes(&mut buf, &tuple::encode_row(new_row));
            }
            WalRecord::Checkpoint => buf.push(OP_CHECKPOINT),
            WalRecord::CreateIndex { table, column, kind, params } => {
                buf.push(OP_CREATE_INDEX_OF_KIND);
                put_str(&mut buf, table);
                put_str(&mut buf, column);
                put_str(&mut buf, kind);
                put_varint(&mut buf, params.len() as u64);
                for (name, _) in params {
                    put_str(&mut buf, name);
                }
                let values: Vec<Datum> = params.iter().map(|(_, v)| v.clone()).collect();
                put_bytes(&mut buf, &tuple::encode_row(&values));
            }
            WalRecord::TxnBegin => buf.push(OP_TXN_BEGIN),
            WalRecord::TxnCommit => buf.push(OP_TXN_COMMIT),
            WalRecord::Epoch(e) => {
                buf.push(OP_EPOCH);
                put_varint(&mut buf, *e);
            }
        }
        buf
    }

    /// Deserialize a record payload.
    pub fn decode(mut buf: &[u8]) -> DbResult<Self> {
        let op = take_u8(&mut buf)?;
        let rec = match op {
            OP_CREATE_SPACE => {
                WalRecord::CreateSpace { name: take_str(&mut buf)?, owner: take_str(&mut buf)? }
            }
            OP_CREATE_TABLE => {
                let space = take_str(&mut buf)?;
                let name = take_str(&mut buf)?;
                let n = take_varint(&mut buf)? as usize;
                let mut columns = Vec::with_capacity(n);
                for _ in 0..n {
                    let cname = take_str(&mut buf)?;
                    let ty = take_type(&mut buf)?;
                    let nullable = take_u8(&mut buf)? != 0;
                    columns.push((cname, ty, nullable));
                }
                WalRecord::CreateTable { space, name, columns }
            }
            OP_DROP_TABLE => {
                WalRecord::DropTable { space: take_str(&mut buf)?, name: take_str(&mut buf)? }
            }
            OP_INSERT => WalRecord::Insert {
                table: take_str(&mut buf)?,
                row: tuple::decode_row(&take_bytes(&mut buf)?)?,
            },
            OP_DELETE => WalRecord::Delete {
                table: take_str(&mut buf)?,
                row: tuple::decode_row(&take_bytes(&mut buf)?)?,
            },
            OP_UPDATE => WalRecord::Update {
                table: take_str(&mut buf)?,
                old_row: tuple::decode_row(&take_bytes(&mut buf)?)?,
                new_row: tuple::decode_row(&take_bytes(&mut buf)?)?,
            },
            OP_CHECKPOINT => WalRecord::Checkpoint,
            OP_CREATE_INDEX => WalRecord::CreateIndex {
                table: take_str(&mut buf)?,
                column: take_str(&mut buf)?,
                kind: crate::index::BTREE.into(),
                params: vec![("unique".into(), Datum::Bool(take_u8(&mut buf)? != 0))],
            },
            OP_CREATE_INDEX_OF_KIND => {
                let table = take_str(&mut buf)?;
                let column = take_str(&mut buf)?;
                let kind = take_str(&mut buf)?;
                let n = take_varint(&mut buf)? as usize;
                let names = (0..n).map(|_| take_str(&mut buf)).collect::<DbResult<Vec<_>>>()?;
                let values = tuple::decode_row(&take_bytes(&mut buf)?)?;
                if values.len() != n {
                    return Err(DbError::Storage("index parameter count mismatch".into()));
                }
                let params = names.into_iter().zip(values).collect();
                WalRecord::CreateIndex { table, column, kind, params }
            }
            OP_TXN_BEGIN => WalRecord::TxnBegin,
            OP_TXN_COMMIT => WalRecord::TxnCommit,
            OP_EPOCH => WalRecord::Epoch(take_varint(&mut buf)?),
            other => return Err(DbError::Storage(format!("unknown WAL op {other}"))),
        };
        if !buf.is_empty() {
            return Err(DbError::Storage("trailing bytes in WAL record".into()));
        }
        Ok(rec)
    }
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_varint(buf, s.len() as u64);
    buf.extend_from_slice(s.as_bytes());
}

fn take_str(buf: &mut &[u8]) -> DbResult<String> {
    let len = take_varint(buf)? as usize;
    String::from_utf8(take_slice(buf, len)?.to_vec())
        .map_err(|_| DbError::Storage("invalid UTF-8 in WAL".into()))
}

fn put_bytes(buf: &mut Vec<u8>, b: &[u8]) {
    put_varint(buf, b.len() as u64);
    buf.extend_from_slice(b);
}

fn take_bytes(buf: &mut &[u8]) -> DbResult<Vec<u8>> {
    let len = take_varint(buf)? as usize;
    Ok(take_slice(buf, len)?.to_vec())
}

fn put_type(buf: &mut Vec<u8>, ty: DataType) {
    match ty {
        DataType::Bool => buf.push(0),
        DataType::Int => buf.push(1),
        DataType::Float => buf.push(2),
        DataType::Text => buf.push(3),
        DataType::Blob => buf.push(4),
        DataType::Opaque(id) => {
            buf.push(5);
            put_varint(buf, id as u64);
        }
    }
}

fn take_type(buf: &mut &[u8]) -> DbResult<DataType> {
    Ok(match take_u8(buf)? {
        0 => DataType::Bool,
        1 => DataType::Int,
        2 => DataType::Float,
        3 => DataType::Text,
        4 => DataType::Blob,
        5 => DataType::Opaque(take_varint(buf)? as u32),
        other => return Err(DbError::Storage(format!("unknown type tag {other}"))),
    })
}

// ---------------------------------------------------------------------------
// CRC32 (IEEE) for frame integrity
// ---------------------------------------------------------------------------

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc_table();

/// CRC32 (IEEE 802.3) of a byte string.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Writer / reader
// ---------------------------------------------------------------------------

/// Appends CRC-framed records to a log file, hardened against IO faults.
///
/// State machine: `append` only buffers (no IO, so it cannot fail and no
/// partial transaction ever reaches the disk behind the engine's back);
/// `sync` writes the whole buffer after `confirmed` and fsyncs. On any
/// failure the buffer is retained and the on-disk bytes past `confirmed`
/// are treated as garbage — the next `sync` truncates them away and
/// rewrites everything, so a successful `sync` always means "every record
/// appended so far is durable, in order".
pub struct WalWriter {
    file: Box<dyn VfsFile>,
    /// Bytes known durable and valid on disk.
    confirmed: u64,
    /// Framed records appended but not yet confirmed durable.
    buf: Vec<u8>,
    /// The file may hold garbage past `confirmed` (a torn write); it must
    /// be truncated before the next write.
    dirty_tail: bool,
    /// A requested truncation has not reached the disk yet; it must be
    /// applied (and fsynced) before anything else is written.
    pending_truncate: bool,
    records_written: u64,
    syncs: u64,
    sync_failures: u64,
}

impl WalWriter {
    /// Open the log, trusting the first `valid_len` bytes (as reported by
    /// [`read_log`]). Anything past that is a torn tail from a previous
    /// crash and is truncated away on the first sync.
    pub fn open(vfs: &dyn Vfs, path: &Path, valid_len: u64) -> DbResult<Self> {
        let mut file = vfs.open(path)?;
        let disk_len = file.len()?;
        Ok(WalWriter {
            file,
            confirmed: valid_len,
            buf: Vec::new(),
            dirty_tail: disk_len > valid_len,
            pending_truncate: false,
            records_written: 0,
            syncs: 0,
            sync_failures: 0,
        })
    }

    /// Open a fresh log at `path`, discarding any existing content.
    pub fn create(vfs: &dyn Vfs, path: &Path) -> DbResult<Self> {
        vfs.remove_file(path)?;
        WalWriter::open(vfs, path, 0)
    }

    /// Append one record to the in-memory tail. Framing:
    /// `len (u32 LE) | crc32 (u32 LE) | payload`. Durable only after the
    /// next successful [`WalWriter::sync`].
    pub fn append(&mut self, record: &WalRecord) {
        let payload = record.encode();
        self.buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.buf.extend_from_slice(&crc32(&payload).to_le_bytes());
        self.buf.extend_from_slice(&payload);
        self.records_written += 1;
    }

    /// Make every appended record durable. Retries any truncation or tail
    /// cleanup a previous failure left behind, in order, before writing.
    pub fn sync(&mut self) -> DbResult<()> {
        let mut span = genalg_obs::tracer().span("wal.sync");
        span.field("bytes", self.buf.len());
        match self.sync_inner() {
            Ok(()) => {
                self.syncs += 1;
                Ok(())
            }
            Err(e) => {
                self.sync_failures += 1;
                span.field("failed", true);
                Err(e)
            }
        }
    }

    fn sync_inner(&mut self) -> DbResult<()> {
        if self.pending_truncate {
            self.file.truncate(0)?;
            self.file.sync()?;
            self.pending_truncate = false;
            self.dirty_tail = false;
            self.confirmed = 0;
        }
        if self.dirty_tail {
            self.file.truncate(self.confirmed)?;
            self.file.sync()?;
            self.dirty_tail = false;
        }
        if self.buf.is_empty() {
            return Ok(());
        }
        // A failed write below may leave a torn tail past `confirmed`.
        self.dirty_tail = true;
        self.file.write_at(self.confirmed, &self.buf)?;
        self.file.sync()?;
        self.confirmed += self.buf.len() as u64;
        self.buf.clear();
        self.dirty_tail = false;
        Ok(())
    }

    /// Truncate the log (after a checkpoint has made it redundant),
    /// fsyncing the truncation before any new record can be written. On
    /// failure the truncation stays pending: no later write reaches the
    /// disk until a retry succeeds, so stale pre-checkpoint records can
    /// never be followed by post-checkpoint ones.
    pub fn truncate(&mut self) -> DbResult<()> {
        self.buf.clear();
        self.pending_truncate = true;
        self.sync()
    }

    /// Number of records appended through this writer.
    pub fn records_written(&self) -> u64 {
        self.records_written
    }

    /// Successful [`WalWriter::sync`] calls.
    pub fn syncs(&self) -> u64 {
        self.syncs
    }

    /// Failed [`WalWriter::sync`] calls (each leaves the buffer intact
    /// for a retry).
    pub fn sync_failures(&self) -> u64 {
        self.sync_failures
    }

    /// Bytes confirmed durable on disk.
    pub fn confirmed_len(&self) -> u64 {
        self.confirmed
    }
}

/// Read every intact record from a log file, with the byte length of the
/// valid prefix. A torn or corrupt tail ends the iteration silently
/// (crash-recovery semantics) — the returned length lets the writer resume
/// right where the intact records end — but corruption *before* intact
/// data is reported.
pub fn read_log_prefix(vfs: &dyn Vfs, path: &Path) -> DbResult<(Vec<WalRecord>, u64)> {
    let Some(bytes) = vfs.read_file(path)? else {
        return Ok((Vec::new(), 0));
    };
    let mut records = Vec::new();
    let mut pos = 0usize;
    while pos + 8 <= bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4 bytes"));
        if pos + 8 + len > bytes.len() {
            break; // torn tail
        }
        let payload = &bytes[pos + 8..pos + 8 + len];
        if crc32(payload) != crc {
            break; // corrupt frame: stop replay here
        }
        records.push(WalRecord::decode(payload)?);
        pos += 8 + len;
    }
    Ok((records, pos as u64))
}

/// [`read_log_prefix`] without the length, for callers that only replay.
pub fn read_log(vfs: &dyn Vfs, path: &Path) -> DbResult<Vec<WalRecord>> {
    read_log_prefix(vfs, path).map(|(records, _)| records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::vfs::{FaultConfig, FaultVfs};
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        PathBuf::from("/wal").join(name)
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::CreateSpace { name: "alice".into(), owner: "alice".into() },
            WalRecord::CreateTable {
                space: "public".into(),
                name: "genes".into(),
                columns: vec![
                    ("id".into(), DataType::Int, false),
                    ("seq".into(), DataType::Opaque(3), true),
                ],
            },
            WalRecord::Insert {
                table: "public.genes".into(),
                row: vec![Datum::Int(1), Datum::opaque(3, vec![9, 9])],
            },
            WalRecord::Update {
                table: "public.genes".into(),
                old_row: vec![Datum::Int(1), Datum::Null],
                new_row: vec![Datum::Int(1), Datum::Text("x".into())],
            },
            WalRecord::Delete { table: "public.genes".into(), row: vec![Datum::Int(1)] },
            WalRecord::DropTable { space: "public".into(), name: "genes".into() },
            WalRecord::CreateIndex {
                table: "public.genes".into(),
                column: "id".into(),
                kind: "btree".into(),
                params: vec![("unique".into(), Datum::Bool(true))],
            },
            WalRecord::CreateIndex {
                table: "public.genes".into(),
                column: "seq".into(),
                kind: "kmer".into(),
                params: vec![("k".into(), Datum::Int(8)), ("note".into(), Datum::Text("".into()))],
            },
            WalRecord::Checkpoint,
            WalRecord::TxnBegin,
            WalRecord::TxnCommit,
            WalRecord::Epoch(42),
        ]
    }

    #[test]
    fn record_encode_decode_roundtrip() {
        for rec in sample_records() {
            let enc = rec.encode();
            assert_eq!(WalRecord::decode(&enc).unwrap(), rec);
        }
    }

    /// A record written before indexes had kinds: op 8, table, column and
    /// the unique flag, byte for byte.
    #[test]
    fn old_create_index_records_decode_as_btrees() {
        for unique in [false, true] {
            let mut bytes = vec![OP_CREATE_INDEX, 8];
            bytes.extend_from_slice(b"public.t");
            bytes.push(2);
            bytes.extend_from_slice(b"id");
            bytes.push(u8::from(unique));
            let expected = WalRecord::CreateIndex {
                table: "public.t".into(),
                column: "id".into(),
                kind: "btree".into(),
                params: vec![("unique".into(), Datum::Bool(unique))],
            };
            assert_eq!(WalRecord::decode(&bytes).unwrap(), expected);
        }
    }

    #[test]
    fn crc32_known_value() {
        // Standard test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn write_and_read_back() {
        let vfs = FaultVfs::reliable();
        let path = tmp("roundtrip.wal");
        {
            let mut w = WalWriter::create(&vfs, &path).unwrap();
            for rec in sample_records() {
                w.append(&rec);
            }
            w.sync().unwrap();
            assert_eq!(w.records_written(), 12);
        }
        let back = read_log(&vfs, &path).unwrap();
        assert_eq!(back, sample_records());
    }

    #[test]
    fn torn_tail_ignored() {
        let vfs = FaultVfs::reliable();
        let path = tmp("torn.wal");
        let mut w = WalWriter::create(&vfs, &path).unwrap();
        w.append(&WalRecord::Checkpoint);
        w.sync().unwrap();
        // Append garbage simulating a crash mid-frame.
        let mut f = vfs.open(&path).unwrap();
        let len = f.len().unwrap();
        f.write_at(len, &[42, 0, 0, 0, 1, 2]).unwrap();
        let (back, valid) = read_log_prefix(&vfs, &path).unwrap();
        assert_eq!(back, vec![WalRecord::Checkpoint]);
        assert_eq!(valid, len, "valid prefix ends where the garbage starts");
    }

    /// A torn tail record with a CRC mismatch is dropped, not an error:
    /// replay returns every intact record before it.
    #[test]
    fn corrupt_crc_tail_dropped_not_error() {
        let vfs = FaultVfs::reliable();
        let path = tmp("crc.wal");
        let intact = vec![
            WalRecord::Checkpoint,
            WalRecord::CreateSpace { name: "x".into(), owner: "x".into() },
        ];
        let mut w = WalWriter::create(&vfs, &path).unwrap();
        for rec in &intact {
            w.append(rec);
        }
        w.append(&WalRecord::CreateSpace { name: "torn".into(), owner: "torn".into() });
        w.sync().unwrap();
        let valid_before = {
            let (records, valid) = read_log_prefix(&vfs, &path).unwrap();
            assert_eq!(records.len(), 3);
            valid
        };
        // Flip a byte in the last frame's payload: the CRC no longer
        // matches, so that record reads as a torn tail.
        let mut f = vfs.open(&path).unwrap();
        let last = f.len().unwrap() - 1;
        let mut b = [0u8; 1];
        assert_eq!(f.read_at(last, &mut b).unwrap(), 1);
        f.write_at(last, &[b[0] ^ 0xFF]).unwrap();
        let (back, valid) = read_log_prefix(&vfs, &path).unwrap();
        assert_eq!(back, intact, "intact prefix survives, torn record is dropped");
        assert!(valid < valid_before);
    }

    #[test]
    fn truncate_resets_log() {
        let vfs = FaultVfs::reliable();
        let path = tmp("trunc.wal");
        let mut w = WalWriter::create(&vfs, &path).unwrap();
        w.append(&WalRecord::Checkpoint);
        w.sync().unwrap();
        w.truncate().unwrap();
        assert!(read_log(&vfs, &path).unwrap().is_empty());
        // Still usable after truncation.
        w.append(&WalRecord::Checkpoint);
        w.sync().unwrap();
        assert_eq!(read_log(&vfs, &path).unwrap().len(), 1);
    }

    #[test]
    fn missing_file_is_empty_log() {
        let vfs = FaultVfs::reliable();
        assert!(read_log(&vfs, Path::new("/nonexistent/definitely.wal")).unwrap().is_empty());
    }

    /// A failed sync keeps the buffer: a later sync lands every record,
    /// in order, with nothing lost or duplicated.
    #[test]
    fn failed_sync_retries_buffered_records() {
        let path = tmp("retry.wal");
        let mut cfg = FaultConfig::reliable();
        cfg.sync_fail_prob = 1.0;
        let vfs = FaultVfs::new(cfg);
        vfs.disarm();
        let mut w = WalWriter::create(&vfs, &path).unwrap();
        w.append(&WalRecord::Epoch(1));
        vfs.arm();
        assert!(matches!(w.sync(), Err(DbError::Io(_))));
        w.append(&WalRecord::Checkpoint);
        assert!(matches!(w.sync(), Err(DbError::Io(_))));
        vfs.disarm();
        w.sync().unwrap();
        let back = read_log(&vfs, &path).unwrap();
        assert_eq!(back, vec![WalRecord::Epoch(1), WalRecord::Checkpoint]);
    }

    /// A torn write leaves garbage past the confirmed prefix; the next
    /// sync truncates it and rewrites, so readers never see the tear.
    #[test]
    fn torn_write_cleaned_up_on_retry() {
        let path = tmp("torn-retry.wal");
        let mut cfg = FaultConfig::reliable();
        cfg.torn_write_prob = 1.0;
        let vfs = FaultVfs::new(cfg);
        vfs.disarm();
        let mut w = WalWriter::create(&vfs, &path).unwrap();
        w.append(&WalRecord::CreateSpace { name: "a".into(), owner: "a".into() });
        w.sync().unwrap();
        w.append(&WalRecord::CreateSpace { name: "b".into(), owner: "b".into() });
        vfs.arm();
        assert!(matches!(w.sync(), Err(DbError::Io(_))));
        vfs.disarm();
        w.sync().unwrap();
        let back = read_log(&vfs, &path).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(w.confirmed_len(), vfs.open(&path).unwrap().len().unwrap());
    }

    /// A failed truncation stays pending: nothing is written until the
    /// retry succeeds, so stale records can never precede fresh ones.
    #[test]
    fn failed_truncate_blocks_writes_until_retried() {
        let path = tmp("trunc-fail.wal");
        let mut cfg = FaultConfig::reliable();
        cfg.sync_fail_prob = 1.0;
        let vfs = FaultVfs::new(cfg);
        vfs.disarm();
        let mut w = WalWriter::create(&vfs, &path).unwrap();
        w.append(&WalRecord::Epoch(7));
        w.sync().unwrap();
        vfs.arm();
        assert!(w.truncate().is_err());
        vfs.disarm();
        w.append(&WalRecord::Checkpoint);
        w.sync().unwrap();
        let back = read_log(&vfs, &path).unwrap();
        assert_eq!(back, vec![WalRecord::Checkpoint], "stale pre-truncate record discarded");
    }

    /// Opening at the valid prefix of a file with a torn tail resumes
    /// appending over the garbage.
    #[test]
    fn open_at_valid_prefix_overwrites_garbage() {
        let vfs = FaultVfs::reliable();
        let path = tmp("resume.wal");
        let mut w = WalWriter::create(&vfs, &path).unwrap();
        w.append(&WalRecord::Checkpoint);
        w.sync().unwrap();
        let mut f = vfs.open(&path).unwrap();
        let len = f.len().unwrap();
        f.write_at(len, &[9, 9, 9]).unwrap();
        let (records, valid) = read_log_prefix(&vfs, &path).unwrap();
        assert_eq!(records.len(), 1);
        let mut w = WalWriter::open(&vfs, &path, valid).unwrap();
        w.append(&WalRecord::Epoch(3));
        w.sync().unwrap();
        let back = read_log(&vfs, &path).unwrap();
        assert_eq!(back, vec![WalRecord::Checkpoint, WalRecord::Epoch(3)]);
    }
}
