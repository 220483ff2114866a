//! Row (tuple) serialization: rows are stored in pages as flat byte
//! strings with per-field type tags and varint framing.

use crate::datum::Datum;
use crate::error::{DbError, DbResult};
use std::sync::Arc;

/// A row of datums.
pub type Row = Vec<Datum>;

const T_NULL: u8 = 0;
const T_BOOL_FALSE: u8 = 1;
const T_BOOL_TRUE: u8 = 2;
const T_INT: u8 = 3;
const T_FLOAT: u8 = 4;
const T_TEXT: u8 = 5;
const T_BLOB: u8 = 6;
const T_OPAQUE: u8 = 7;

/// Serialize a row.
pub fn encode_row(row: &[Datum]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(16 * row.len());
    put_varint(&mut buf, row.len() as u64);
    for d in row {
        put_datum(&mut buf, d);
    }
    buf
}

/// Append one tagged datum to `buf`: the per-field encoding of
/// [`encode_row`].
fn put_datum(buf: &mut Vec<u8>, d: &Datum) {
    match d {
        Datum::Null => buf.push(T_NULL),
        Datum::Bool(false) => buf.push(T_BOOL_FALSE),
        Datum::Bool(true) => buf.push(T_BOOL_TRUE),
        Datum::Int(i) => {
            buf.push(T_INT);
            put_varint(buf, zigzag(*i));
        }
        Datum::Float(f) => {
            buf.push(T_FLOAT);
            buf.extend_from_slice(&f.to_bits().to_le_bytes());
        }
        Datum::Text(s) => {
            buf.push(T_TEXT);
            put_varint(buf, s.len() as u64);
            buf.extend_from_slice(s.as_bytes());
        }
        Datum::Blob(b) => {
            buf.push(T_BLOB);
            put_varint(buf, b.len() as u64);
            buf.extend_from_slice(b);
        }
        Datum::Opaque(ty, b) => {
            buf.push(T_OPAQUE);
            put_varint(buf, *ty as u64);
            put_varint(buf, b.len() as u64);
            buf.extend_from_slice(b);
        }
    }
}

/// Decode one tagged datum from the front of `buf`.
#[inline]
fn take_datum(buf: &mut &[u8]) -> DbResult<Datum> {
    let tag = take_u8(buf)?;
    Ok(match tag {
        T_NULL => Datum::Null,
        T_BOOL_FALSE => Datum::Bool(false),
        T_BOOL_TRUE => Datum::Bool(true),
        T_INT => Datum::Int(unzigzag(take_varint(buf)?)),
        T_FLOAT => {
            let bytes = take_slice(buf, 8)?;
            let mut arr = [0u8; 8];
            arr.copy_from_slice(bytes);
            Datum::Float(f64::from_bits(u64::from_le_bytes(arr)))
        }
        T_TEXT => {
            let len = take_varint(buf)? as usize;
            let bytes = take_slice(buf, len)?;
            Datum::Text(
                String::from_utf8(bytes.to_vec())
                    .map_err(|_| DbError::Storage("invalid UTF-8 in stored text".into()))?,
            )
        }
        T_BLOB => {
            let len = take_varint(buf)? as usize;
            Datum::Blob(take_slice(buf, len)?.to_vec())
        }
        T_OPAQUE => {
            let ty = take_varint(buf)? as u32;
            let len = take_varint(buf)? as usize;
            Datum::Opaque(ty, Arc::new(take_slice(buf, len)?.to_vec()))
        }
        other => return Err(DbError::Storage(format!("unknown datum tag {other}"))),
    })
}

/// Advance `buf` past one tagged datum without materializing it — the
/// sparse-decode fast path for columns no expression references.
#[inline]
fn skip_datum(buf: &mut &[u8]) -> DbResult<()> {
    let tag = take_u8(buf)?;
    match tag {
        T_NULL | T_BOOL_FALSE | T_BOOL_TRUE => {}
        T_INT => {
            take_varint(buf)?;
        }
        T_FLOAT => {
            take_slice(buf, 8)?;
        }
        T_TEXT | T_BLOB => {
            let len = take_varint(buf)? as usize;
            take_slice(buf, len)?;
        }
        T_OPAQUE => {
            take_varint(buf)?;
            let len = take_varint(buf)? as usize;
            take_slice(buf, len)?;
        }
        other => return Err(DbError::Storage(format!("unknown datum tag {other}"))),
    }
    Ok(())
}

/// Deserialize a row.
pub fn decode_row(buf: &[u8]) -> DbResult<Row> {
    decode_row_prefix(buf, usize::MAX)
}

/// Deserialize only the first `max_fields` fields of a row (the whole row
/// when it has fewer). Positional references below `max_fields` stay
/// valid; scans use this to skip decoding trailing columns no compiled
/// expression reads. Trailing-byte validation only applies to full
/// decodes — a prefix decode stops reading mid-payload by design.
pub fn decode_row_prefix(buf: &[u8], max_fields: usize) -> DbResult<Row> {
    let mut row = Vec::new();
    decode_row_prefix_into(&mut row, buf, max_fields)?;
    Ok(row)
}

/// [`decode_row_prefix`] into a caller-owned buffer, so hot scan loops can
/// reuse one allocation across rows. Clears `row` first.
pub fn decode_row_prefix_into(row: &mut Row, buf: &[u8], max_fields: usize) -> DbResult<()> {
    decode_row_cols_into(row, buf, max_fields, None)
}

/// Sparse column decode: like [`decode_row_prefix_into`], but when `mask`
/// is given, only fields whose mask bit is set are materialized — the
/// payload bytes of every other field are *skipped* (tag + length walk,
/// no allocation, no UTF-8 validation) and a `Datum::Null` placeholder
/// keeps positional references below `max_fields` valid. Fields at or
/// beyond `mask.len()` count as unreferenced.
///
/// A scan therefore decodes exactly the columns its plan references.
pub fn decode_row_cols_into(
    row: &mut Row,
    mut buf: &[u8],
    max_fields: usize,
    mask: Option<&[bool]>,
) -> DbResult<()> {
    row.clear();
    let n = take_varint(&mut buf)? as usize;
    // Every datum occupies at least one byte, so a count exceeding the
    // remaining payload is corrupt — reject before allocating.
    if n > buf.len() {
        return Err(DbError::Storage(format!(
            "row claims {n} fields but only {} bytes remain",
            buf.len()
        )));
    }
    let take = n.min(max_fields);
    row.reserve(take);
    // The dense loop is kept free of the per-field mask test: a scan whose
    // plan reads every column of its prefix takes it, and the branch (plus
    // the bounds lookup behind it) costs real throughput.
    match mask {
        None => {
            for _ in 0..take {
                row.push(take_datum(&mut buf)?);
            }
        }
        Some(m) => {
            for i in 0..take {
                if m.get(i).copied().unwrap_or(false) {
                    row.push(take_datum(&mut buf)?);
                } else {
                    skip_datum(&mut buf)?;
                    row.push(Datum::Null);
                }
            }
        }
    }
    if take == n && !buf.is_empty() {
        return Err(DbError::Storage(format!("{} trailing bytes after row", buf.len())));
    }
    Ok(())
}

fn zigzag(i: i64) -> u64 {
    ((i << 1) ^ (i >> 63)) as u64
}

fn unzigzag(u: u64) -> i64 {
    ((u >> 1) as i64) ^ -((u & 1) as i64)
}

pub(crate) fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

pub(crate) fn take_varint(buf: &mut &[u8]) -> DbResult<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = take_u8(buf)?;
        if shift >= 64 {
            return Err(DbError::Storage("varint too long".into()));
        }
        v |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

pub(crate) fn take_u8(buf: &mut &[u8]) -> DbResult<u8> {
    let (&b, rest) =
        buf.split_first().ok_or_else(|| DbError::Storage("unexpected end of row bytes".into()))?;
    *buf = rest;
    Ok(b)
}

pub(crate) fn take_slice<'a>(buf: &mut &'a [u8], len: usize) -> DbResult<&'a [u8]> {
    if buf.len() < len {
        return Err(DbError::Storage("row bytes truncated".into()));
    }
    let (head, rest) = buf.split_at(len);
    *buf = rest;
    Ok(head)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_row() -> Row {
        vec![
            Datum::Null,
            Datum::Bool(true),
            Datum::Bool(false),
            Datum::Int(-42),
            Datum::Int(i64::MAX),
            Datum::Float(1.5),
            Datum::Float(-0.0),
            Datum::Text("héllo".into()),
            Datum::Blob(vec![0, 255, 7]),
            Datum::opaque(9, vec![1, 2, 3]),
        ]
    }

    #[test]
    fn roundtrip() {
        let row = sample_row();
        let bytes = encode_row(&row);
        let back = decode_row(&bytes).unwrap();
        assert_eq!(back.len(), row.len());
        for (a, b) in row.iter().zip(&back) {
            // Compare through Debug because Datum's PartialEq unifies
            // Int/Float; here we want representation fidelity.
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
        }
    }

    #[test]
    fn empty_row() {
        let bytes = encode_row(&[]);
        assert_eq!(decode_row(&bytes).unwrap(), Vec::<Datum>::new());
    }

    #[test]
    fn zigzag_roundtrip() {
        for i in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(i)), i);
        }
    }

    #[test]
    fn sparse_decode_skips_unreferenced_columns() {
        let row = sample_row();
        let bytes = encode_row(&row);
        // Only columns 3 and 7 referenced; everything else must come back
        // as a Null placeholder at the right position.
        let mut mask = vec![false; row.len()];
        mask[3] = true;
        mask[7] = true;
        let mut out = Row::new();
        decode_row_cols_into(&mut out, &bytes, row.len(), Some(&mask)).unwrap();
        assert_eq!(out.len(), row.len());
        assert_eq!(format!("{:?}", out[3]), format!("{:?}", row[3]));
        assert_eq!(format!("{:?}", out[7]), format!("{:?}", row[7]));
        for (i, d) in out.iter().enumerate() {
            if i != 3 && i != 7 {
                assert!(matches!(d, Datum::Null), "col {i} should be a placeholder: {d:?}");
            }
        }
        // A mask shorter than the row treats the tail as unreferenced.
        let mut out = Row::new();
        decode_row_cols_into(&mut out, &bytes, row.len(), Some(&[true])).unwrap();
        assert_eq!(format!("{:?}", out[0]), format!("{:?}", row[0]));
        assert!(out[1..].iter().all(|d| matches!(d, Datum::Null)));
        // Truncated bytes still error even when the damaged field is
        // skipped rather than decoded.
        let mut out = Row::new();
        let mask = vec![false; row.len()];
        assert!(decode_row_cols_into(&mut out, &bytes[..bytes.len() - 1], row.len(), Some(&mask))
            .is_err());
    }

    #[test]
    fn corrupt_rows_rejected() {
        let row = sample_row();
        let bytes = encode_row(&row);
        assert!(decode_row(&bytes[..bytes.len() - 1]).is_err());
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(decode_row(&extra).is_err());
        assert!(decode_row(&[9, 99]).is_err());
    }
}
