//! Length-prefixed wire protocol.
//!
//! Every message is one **frame**: a `u32` big-endian payload length
//! followed by that many payload bytes. Payloads are a tagged binary
//! encoding (tag byte + fields); rows reuse the storage engine's tuple
//! format ([`unidb::tuple::encode_row`]), so a result row travels in
//! exactly the bytes it occupies on a page.
//!
//! ```text
//! frame    := len:u32_be payload[len]
//! request  := 0x01 kind:u8 name:str            -- OpenSession
//!           | 0x02 session:u64                 -- CloseSession
//!           | 0x03 session:u64 lang:u8 text:str-- Query (lang 0=SQL 1=BQL)
//! response := 0x01 session:u64                 -- SessionOpened
//!           | 0x02 resultset                   -- Ok
//!           | 0x03 code:u8 retry_ms:u64 msg:str-- Error
//! str      := len:u32_be utf8[len]
//! resultset:= ncols:u32 col:str* nrows:u32 (len:u32 rowbytes[len])*
//!             affected:u64 has_explain:u8 explain:str?
//! ```

use crate::error::ServerError;
use crate::session::SessionKind;
use std::io::{Read, Write};
use unidb::tuple::{decode_row, encode_row};
use unidb::ResultSet;

/// Frames larger than this are rejected as malformed (64 MiB).
pub const MAX_FRAME: u32 = 64 * 1024 * 1024;

/// What [`read_frame`] reserves before any payload byte has arrived.
const FIRST_CHUNK: usize = 64 * 1024;

/// Query language of a [`Request::Query`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lang {
    Sql,
    Bql,
}

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    OpenSession { kind: SessionKind },
    CloseSession { session: u64 },
    Query { session: u64, lang: Lang, text: String },
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    SessionOpened { session: u64 },
    Ok(ResultSet),
    Error(ServerError),
}

// -- frame transport ---------------------------------------------------------

/// Write one frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(payload.len()).map_err(|_| std::io::Error::other("frame too large"))?;
    if len > MAX_FRAME {
        return Err(std::io::Error::other("frame too large"));
    }
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Read one frame. `Ok(None)` means the peer closed the connection cleanly
/// (EOF before any length byte); EOF anywhere later is an error.
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Option<Vec<u8>>> {
    use std::io::ErrorKind::UnexpectedEof;
    let mut len_buf = [0u8; 4];
    match r.read_exact(&mut len_buf[..1]) {
        Ok(()) => {}
        Err(e) if e.kind() == UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    // Past the first byte the peer is mid-frame: EOF is an error from here.
    r.read_exact(&mut len_buf[1..])?;
    let len = u32::from_be_bytes(len_buf);
    if len > MAX_FRAME {
        return Err(std::io::Error::other("frame exceeds MAX_FRAME"));
    }
    // The declared length is only the peer's word: reserve a modest first
    // chunk and let the buffer grow with the bytes that actually arrive, so
    // a header alone cannot make the server allocate 64 MiB.
    let mut payload = Vec::with_capacity((len as usize).min(FIRST_CHUNK));
    r.take(u64::from(len)).read_to_end(&mut payload)?;
    if payload.len() < len as usize {
        return Err(std::io::Error::new(UnexpectedEof, "frame payload cut short"));
    }
    Ok(Some(payload))
}

// -- payload encoding --------------------------------------------------------

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_be_bytes());
    out.extend_from_slice(s.as_bytes());
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ServerError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| ServerError::Protocol("truncated frame".into()))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, ServerError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, ServerError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ServerError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> Result<String, ServerError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| ServerError::Protocol("invalid UTF-8 in frame".into()))
    }

    fn finish(&self) -> Result<(), ServerError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(ServerError::Protocol("trailing bytes in frame".into()))
        }
    }
}

impl Request {
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Request::OpenSession { kind } => {
                out.push(0x01);
                match kind {
                    SessionKind::Public => {
                        out.push(0);
                        put_str(&mut out, "");
                    }
                    SessionKind::User(name) => {
                        out.push(1);
                        put_str(&mut out, name);
                    }
                    SessionKind::Maintainer => {
                        out.push(2);
                        put_str(&mut out, "");
                    }
                }
            }
            Request::CloseSession { session } => {
                out.push(0x02);
                out.extend_from_slice(&session.to_be_bytes());
            }
            Request::Query { session, lang, text } => {
                out.push(0x03);
                out.extend_from_slice(&session.to_be_bytes());
                out.push(match lang {
                    Lang::Sql => 0,
                    Lang::Bql => 1,
                });
                put_str(&mut out, text);
            }
        }
        out
    }

    pub fn decode(payload: &[u8]) -> Result<Request, ServerError> {
        let mut c = Cursor::new(payload);
        let req = match c.u8()? {
            0x01 => {
                let kind_tag = c.u8()?;
                let name = c.str()?;
                let kind = match kind_tag {
                    0 => SessionKind::Public,
                    1 => SessionKind::User(name),
                    2 => SessionKind::Maintainer,
                    other => {
                        return Err(ServerError::Protocol(format!("bad session kind {other}")))
                    }
                };
                Request::OpenSession { kind }
            }
            0x02 => Request::CloseSession { session: c.u64()? },
            0x03 => {
                let session = c.u64()?;
                let lang = match c.u8()? {
                    0 => Lang::Sql,
                    1 => Lang::Bql,
                    other => return Err(ServerError::Protocol(format!("bad lang {other}"))),
                };
                Request::Query { session, lang, text: c.str()? }
            }
            other => return Err(ServerError::Protocol(format!("bad request tag {other:#x}"))),
        };
        c.finish()?;
        Ok(req)
    }
}

fn encode_result(out: &mut Vec<u8>, rs: &ResultSet) {
    out.extend_from_slice(&(rs.columns.len() as u32).to_be_bytes());
    for col in &rs.columns {
        put_str(out, col);
    }
    out.extend_from_slice(&(rs.rows.len() as u32).to_be_bytes());
    for row in &rs.rows {
        let bytes = encode_row(row);
        out.extend_from_slice(&(bytes.len() as u32).to_be_bytes());
        out.extend_from_slice(&bytes);
    }
    out.extend_from_slice(&rs.affected.to_be_bytes());
    match &rs.explain {
        Some(text) => {
            out.push(1);
            put_str(out, text);
        }
        None => out.push(0),
    }
}

fn decode_result(c: &mut Cursor<'_>) -> Result<ResultSet, ServerError> {
    let ncols = c.u32()? as usize;
    let mut columns = Vec::with_capacity(ncols.min(1024));
    for _ in 0..ncols {
        columns.push(c.str()?);
    }
    let nrows = c.u32()? as usize;
    let mut rows = Vec::with_capacity(nrows.min(1024));
    for _ in 0..nrows {
        let len = c.u32()? as usize;
        let bytes = c.take(len)?;
        rows.push(decode_row(bytes).map_err(|e| ServerError::Protocol(format!("bad row: {e}")))?);
    }
    let affected = c.u64()?;
    let explain = if c.u8()? == 1 { Some(c.str()?) } else { None };
    Ok(ResultSet { columns, rows, affected, explain })
}

/// Numeric error codes on the wire. Transaction-state errors (8) and
/// serialization conflicts (9) get their own codes so clients can
/// reconstruct the exact [`unidb::DbError`] variant — a retry loop must
/// distinguish "conflict, rerun from BEGIN" from everything else without
/// parsing message text. Other engine errors share code 2 and decode to
/// [`ServerError::Db`] with the message wrapped as an internal-format
/// string.
fn error_code(e: &ServerError) -> u8 {
    match e {
        ServerError::Busy { .. } => 1,
        ServerError::Db(unidb::DbError::Txn(_)) => 8,
        ServerError::Db(unidb::DbError::Conflict(_)) => 9,
        ServerError::Db(_) => 2,
        ServerError::UnknownSession => 3,
        ServerError::ReadOnly(_) => 4,
        ServerError::Bql(_) => 5,
        ServerError::Protocol(_) => 6,
        ServerError::Io(_) => 7,
    }
}

impl Response {
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            Response::SessionOpened { session } => {
                out.push(0x01);
                out.extend_from_slice(&session.to_be_bytes());
            }
            Response::Ok(rs) => {
                out.push(0x02);
                encode_result(&mut out, rs);
            }
            Response::Error(e) => {
                out.push(0x03);
                out.push(error_code(e));
                let retry = match e {
                    ServerError::Busy { retry_after_ms } => *retry_after_ms,
                    _ => 0,
                };
                out.extend_from_slice(&retry.to_be_bytes());
                // Exactly-reconstructable variants carry the bare inner
                // message; the decoder re-wraps it in the right variant.
                let msg = match e {
                    ServerError::Db(unidb::DbError::Txn(m))
                    | ServerError::Db(unidb::DbError::Conflict(m)) => m.clone(),
                    other => other.to_string(),
                };
                put_str(&mut out, &msg);
            }
        }
        out
    }

    pub fn decode(payload: &[u8]) -> Result<Response, ServerError> {
        let mut c = Cursor::new(payload);
        let resp = match c.u8()? {
            0x01 => Response::SessionOpened { session: c.u64()? },
            0x02 => Response::Ok(decode_result(&mut c)?),
            0x03 => {
                let code = c.u8()?;
                let retry = c.u64()?;
                let message = c.str()?;
                let err = match code {
                    1 => ServerError::Busy { retry_after_ms: retry },
                    2 => ServerError::Db(unidb::DbError::External(message)),
                    3 => ServerError::UnknownSession,
                    4 => ServerError::ReadOnly(message),
                    5 => ServerError::Bql(message),
                    7 => ServerError::Io(message),
                    8 => ServerError::Db(unidb::DbError::Txn(message)),
                    9 => ServerError::Db(unidb::DbError::Conflict(message)),
                    _ => ServerError::Protocol(message),
                };
                Response::Error(err)
            }
            other => return Err(ServerError::Protocol(format!("bad response tag {other:#x}"))),
        };
        c.finish()?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unidb::Datum;

    #[test]
    fn request_round_trip() {
        let reqs = [
            Request::OpenSession { kind: SessionKind::Public },
            Request::OpenSession { kind: SessionKind::User("alice".into()) },
            Request::OpenSession { kind: SessionKind::Maintainer },
            Request::CloseSession { session: 42 },
            Request::Query { session: 7, lang: Lang::Sql, text: "SELECT 1".into() },
            Request::Query { session: 7, lang: Lang::Bql, text: "FIND sequences".into() },
        ];
        for req in reqs {
            assert_eq!(Request::decode(&req.encode()).unwrap(), req);
        }
    }

    #[test]
    fn response_round_trip_with_rows() {
        let rs = ResultSet {
            columns: vec!["id".into(), "name".into()],
            rows: vec![
                vec![Datum::Int(1), Datum::Text("ata".into())],
                vec![Datum::Int(2), Datum::Null],
            ],
            affected: 0,
            explain: None,
        };
        let resp = Response::Ok(rs);
        assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);

        let busy = Response::Error(ServerError::Busy { retry_after_ms: 25 });
        assert_eq!(Response::decode(&busy.encode()).unwrap(), busy);
    }

    /// Transaction-state errors and serialization conflicts survive the
    /// wire as their exact `DbError` variants — clients branch on them.
    #[test]
    fn txn_errors_round_trip_exactly() {
        let txn =
            Response::Error(ServerError::Db(unidb::DbError::Txn("COMMIT without BEGIN".into())));
        assert_eq!(Response::decode(&txn.encode()).unwrap(), txn);
        let conflict = Response::Error(ServerError::Db(unidb::DbError::Conflict(
            "row was modified by a concurrent transaction".into(),
        )));
        assert_eq!(Response::decode(&conflict.encode()).unwrap(), conflict);
    }

    #[test]
    fn frame_round_trip_over_a_pipe() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap().unwrap(), b"");
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    #[test]
    fn malformed_frames_rejected() {
        assert!(Request::decode(&[0xff]).is_err());
        assert!(Request::decode(&[]).is_err());
        // Trailing garbage after a valid request.
        let mut bytes = Request::CloseSession { session: 1 }.encode();
        bytes.push(0);
        assert!(Request::decode(&bytes).is_err());
        // Oversized frame length.
        let mut r = &[0xff, 0xff, 0xff, 0xff, 0][..];
        assert!(read_frame(&mut r).is_err());
        // A header cut off after 1-3 bytes is not a clean close.
        for cut in 1..4 {
            let mut r = &[0u8, 0, 0, 5][..cut];
            let err = read_frame(&mut r).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "header of {cut} bytes");
        }
        // A peer that declares the largest frame and sends next to nothing
        // gets an error, not a 64 MiB buffer waiting to be filled.
        let mut bytes = MAX_FRAME.to_be_bytes().to_vec();
        bytes.extend_from_slice(b"abc");
        let err = read_frame(&mut &bytes[..]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    }
}
