//! Transports: a TCP listener speaking the frame protocol, and an
//! in-process client that takes the identical path without a socket (used
//! by tests and benches).
//!
//! Both funnel statements into `run_statement`: the thread that received
//! the statement — the connection's own, or the in-process caller's —
//! takes a permit from the [`Admission`] gate and executes it there. A
//! saturated server answers `Busy` instead of stacking connections.
//! Session management runs inline (cheap, never blocks on the engine); a
//! TCP connection may only use the sessions it opened itself, and whatever
//! it leaves open is closed when it goes away.

use crate::admission::Admission;
use crate::error::{ServerError, ServerResult};
use crate::protocol::{read_frame, write_frame, Lang, Request, Response};
use crate::service::{empty_result, QueryService, ServerConfig};
use crate::session::{SessionId, SessionKind};
use std::io::{BufReader, BufWriter};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use unidb::{Database, ResultSet};

/// The query server: service + admission gate, independent of transport.
pub struct Server {
    service: Arc<QueryService>,
    gate: Arc<Admission>,
    /// Background metrics sampler feeding `SHOW HISTORY` and the incident
    /// triggers; stops when dropped with the server (or on its own once
    /// the service is gone — the tick holds only a `Weak`).
    _sampler: Option<genalg_obs::Sampler>,
}

impl Server {
    /// Stand up a server over `db` with the given tuning.
    pub fn new(db: Arc<Database>, config: &ServerConfig) -> Self {
        let service = Arc::new(QueryService::new(db, config));
        let gate = Arc::new(Admission::new(
            config.workers,
            config.queue_capacity,
            Arc::clone(service.metrics()),
        ));
        let sampler = (config.sampler_interval_ms > 0).then(|| {
            let weak = Arc::downgrade(&service);
            genalg_obs::Sampler::spawn(
                std::time::Duration::from_millis(config.sampler_interval_ms),
                move || match weak.upgrade() {
                    Some(svc) => {
                        svc.sample_tick();
                        true
                    }
                    None => false,
                },
            )
        });
        Server { service, gate, _sampler: sampler }
    }

    /// The service behind this server (for stats inspection in tests).
    pub fn service(&self) -> &Arc<QueryService> {
        &self.service
    }

    /// The admission gate (tests hold its permits to saturate the server
    /// deterministically).
    pub fn admission(&self) -> &Admission {
        &self.gate
    }

    /// An in-process client sharing this server's admission gate.
    pub fn client(&self) -> Client {
        Client { service: Arc::clone(&self.service), gate: Arc::clone(&self.gate) }
    }

    /// Bind `addr` (e.g. `"127.0.0.1:0"`) and serve connections until the
    /// returned handle is stopped.
    pub fn listen(&self, addr: &str) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let service = Arc::clone(&self.service);
        let gate = Arc::clone(&self.gate);
        let accept_stop = Arc::clone(&stop);
        let thread = std::thread::Builder::new().name("genalg-accept".into()).spawn(move || {
            for conn in listener.incoming() {
                if accept_stop.load(Ordering::Relaxed) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                let service = Arc::clone(&service);
                let gate = Arc::clone(&gate);
                let _ = std::thread::Builder::new().name("genalg-conn".into()).spawn(move || {
                    let _ = serve_connection(&service, &gate, stream);
                });
            }
        })?;
        Ok(ServerHandle { addr: local_addr, stop, thread: Some(thread) })
    }
}

/// Handle to a listening server; stops the accept loop on drop.
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0 to the real port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting connections and join the accept thread. Established
    /// connections finish their in-flight request and close.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One statement, on the calling thread: through the admission gate, then
/// the service — the one path both transports share.
fn run_statement(
    service: &QueryService,
    gate: &Admission,
    session: SessionId,
    lang: Lang,
    text: &str,
) -> ServerResult<ResultSet> {
    gate.run(|queue_wait_us| service.execute_admitted(session, lang, text, queue_wait_us))?
}

fn serve_connection(
    service: &QueryService,
    gate: &Admission,
    stream: TcpStream,
) -> std::io::Result<()> {
    // Sessions this connection opened and has not closed. Ids are small
    // sequential integers, so honouring an id some *other* connection was
    // issued would let a `Public` client speak in a `Maintainer` session by
    // guessing it.
    let mut owned: Vec<u64> = Vec::new();
    let served = serve_requests(service, gate, stream, &mut owned);
    // Nobody can name what the connection left open any more. A
    // transaction rolled back here counts as reaped: its owner is gone,
    // exactly as if the idle sweep had found it.
    for session in owned {
        if service.close_session(SessionId(session)) {
            service.metrics().txn_reaped.fetch_add(1, Ordering::Relaxed);
        }
    }
    served
}

fn serve_requests(
    service: &QueryService,
    gate: &Admission,
    stream: TcpStream,
    owned: &mut Vec<u64>,
) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    while let Some(payload) = read_frame(&mut reader)? {
        let response = match Request::decode(&payload) {
            Ok(Request::OpenSession { kind }) => {
                let session = service.open_session(kind).0;
                owned.push(session);
                Response::SessionOpened { session }
            }
            Ok(Request::CloseSession { session } | Request::Query { session, .. })
                if !owned.contains(&session) =>
            {
                Response::Error(ServerError::UnknownSession)
            }
            Ok(Request::CloseSession { session }) => {
                owned.retain(|s| *s != session);
                service.close_session(SessionId(session));
                Response::Ok(empty_result())
            }
            Ok(Request::Query { session, lang, text }) => {
                match run_statement(service, gate, SessionId(session), lang, &text) {
                    Ok(rs) => Response::Ok(rs),
                    Err(e) => Response::Error(e),
                }
            }
            Err(e) => Response::Error(e),
        };
        write_frame(&mut writer, &response.encode())?;
    }
    Ok(())
}

/// In-process client: same admission control and statement path as TCP, no
/// socket. It is the embedding program itself, so it is trusted with any
/// session id, including ones a TCP connection opened.
#[derive(Clone)]
pub struct Client {
    service: Arc<QueryService>,
    gate: Arc<Admission>,
}

impl Client {
    /// Open a session.
    pub fn open(&self, kind: SessionKind) -> SessionId {
        self.service.open_session(kind)
    }

    /// Close a session.
    pub fn close(&self, id: SessionId) {
        self.service.close_session(id);
    }

    /// Run one SQL statement on the calling thread, admission permitting.
    pub fn query(&self, session: SessionId, sql: &str) -> ServerResult<ResultSet> {
        run_statement(&self.service, &self.gate, session, Lang::Sql, sql)
    }

    /// Run one BQL statement on the calling thread, admission permitting.
    pub fn query_bql(&self, session: SessionId, bql: &str) -> ServerResult<ResultSet> {
        run_statement(&self.service, &self.gate, session, Lang::Bql, bql)
    }
}

/// Blocking TCP client for tests and examples.
pub struct TcpClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl TcpClient {
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(TcpClient { reader, writer: BufWriter::new(stream) })
    }

    /// Send one request and read one response.
    pub fn request(&mut self, req: &Request) -> ServerResult<Response> {
        write_frame(&mut self.writer, &req.encode())?;
        let payload = read_frame(&mut self.reader)?
            .ok_or_else(|| ServerError::Io("server closed connection".into()))?;
        Response::decode(&payload)
    }

    /// Open a session, returning its id.
    pub fn open(&mut self, kind: SessionKind) -> ServerResult<u64> {
        match self.request(&Request::OpenSession { kind })? {
            Response::SessionOpened { session } => Ok(session),
            Response::Error(e) => Err(e),
            other => Err(ServerError::Protocol(format!("unexpected response {other:?}"))),
        }
    }

    /// Run one statement, returning its result set.
    pub fn query(&mut self, session: u64, lang: Lang, text: &str) -> ServerResult<ResultSet> {
        match self.request(&Request::Query { session, lang, text: text.into() })? {
            Response::Ok(rs) => Ok(rs),
            Response::Error(e) => Err(e),
            other => Err(ServerError::Protocol(format!("unexpected response {other:?}"))),
        }
    }

    /// Close a session on the server.
    pub fn close(&mut self, session: u64) -> ServerResult<()> {
        match self.request(&Request::CloseSession { session })? {
            Response::Ok(_) => Ok(()),
            Response::Error(e) => Err(e),
            other => Err(ServerError::Protocol(format!("unexpected response {other:?}"))),
        }
    }
}
