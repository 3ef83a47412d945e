//! The network front end: a framed-TCP server and client over
//! [`Server::handle_batch`], speaking the [`crate::wire`] protocol.
//!
//! ## Connection lifecycle
//!
//! [`NetServer::bind`] opens a nonblocking listener and the
//! [`exaclim_runtime::reactor::Reactor`] (raw `epoll`/`poll(2)` FFI, no
//! dependencies) that will watch it; [`NetServer::spawn`] starts the
//! server and returns a [`NetServerHandle`]. The server is
//! **event-driven**: one reactor thread multiplexes every connection as a
//! nonblocking frame state machine:
//!
//! * **header-scan** — bytes accumulate until the fixed 24-byte `ECN1`
//!   header is present and valid (bad magic/version/kind/cap frames are
//!   rejected from the header alone, before any payload is buffered),
//! * **payload-accumulate** — the checksummed payload fills; the buffer
//!   grows only as bytes arrive, never to the header's claimed length,
//! * **dispatch** — the decoded batch is queued to a small fixed set of
//!   dispatch workers ([`NetConfig::dispatch_threads`]) that run the
//!   in-process batch (which fans out over the shared worker pool —
//!   `EXACLIM_THREADS` still bounds *compute*) and hand the encoded
//!   response **body** — segments referencing the chunk cache, not a
//!   copied frame — back through the reactor's wakeup fd,
//! * **write-drain** — the response leaves frame by frame through a
//!   [`crate::wire::FrameStream`]: each fragment is cut on demand and
//!   written with gathered `writev` straight from the shared chunk
//!   buffers, so per-connection owned memory is bounded by one fragment's
//!   header + metadata ([`NetConfig::stream_chunk_bytes`] governs the
//!   fragment size) no matter how large the slice. At most one response
//!   is in flight per connection, read interest stays off until it
//!   drains, and a write budget of a few frames per readiness round keeps
//!   one fat response from starving its neighbours.
//!
//! Thread count is a constant (reactor + dispatch workers + the shared
//! pool), not a function of connection count: mostly-idle keep-alive
//! fleets cost a registration and a deadline each, nothing more. Idle,
//! half-open, and slowloris connections are reaped when
//! [`NetConfig::idle_timeout`] passes without a complete frame (counted
//! in [`NetStats::reaped_idle`]); connections queued past
//! [`NetConfig::max_connections`] wait in the listener backlog. Because
//! buffered bytes are re-parsed each time a response finishes, a client
//! may **pipeline**: write several request frames before reading the
//! first response — responses come back in order.
//!
//! Transport-level failures (bad magic, version mismatch, oversized or
//! corrupt frames) are answered best-effort with an error frame and then
//! the connection is closed — once framing is suspect, nothing after the
//! bad frame can be trusted. Per-request failures (unknown member, bad
//! range) travel *inside* a well-formed response frame and do not
//! disturb the connection or the rest of the batch.
//!
//! [`NetServerHandle::shutdown`] nudges the reactor through its wakeup
//! fd: the listener closes, idle connections close, connections with a
//! dispatched batch or a partially-written response drain first, and
//! every thread is joined before `shutdown` returns.
//!
//! The server needs a readiness reactor, so it runs on unix only; on
//! other targets [`NetServer::bind`] fails with
//! [`std::io::ErrorKind::Unsupported`]. The [`Client`] is portable.
//!
//! ## Example
//!
//! ```
//! use exaclim_serve::net::{Client, NetConfig, NetServer};
//! use exaclim_serve::{Catalog, Request, Response, ServeConfig, Server, SliceRequest};
//! use exaclim_store::{ArchiveWriter, Codec, FieldMeta};
//! use std::io::Cursor;
//! use std::sync::Arc;
//!
//! // An in-memory archive behind an in-process server…
//! let data: Vec<f64> = (0..4 * 12).map(f64::from).collect();
//! let mut w = ArchiveWriter::new(Cursor::new(Vec::new())).unwrap();
//! w.add_field("t2m", Codec::Raw64, FieldMeta::default(), 4, 5, &data).unwrap();
//! let (cursor, _) = w.finish().unwrap();
//! let mut catalog = Catalog::new();
//! catalog.open_archive_bytes("era5", cursor.into_inner()).unwrap();
//! let server = Arc::new(Server::new(catalog, ServeConfig::default()));
//!
//! // …served over loopback.
//! let handle = NetServer::bind("127.0.0.1:0", server, NetConfig::default())
//!     .unwrap()
//!     .spawn();
//! let mut client = Client::connect(handle.addr()).unwrap();
//! let responses = client
//!     .batch(&[Request::Slice(SliceRequest {
//!         archive: "era5".to_string(),
//!         member: "t2m".to_string(),
//!         range: 3..7,
//!     })])
//!     .unwrap();
//! let Ok(Response::Slice(slice)) = &responses[0] else { panic!() };
//! assert_eq!(slice.values, data[3 * 4..7 * 4]);
//! drop(client);
//! handle.shutdown();
//! ```

use crate::router::Router;
use crate::server::{ServeBackend, Server};
use server::{Reactor, Waker};
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

mod client;
/// The event loop: nonblocking frame state machines over the reactor.
#[cfg(unix)]
mod server;

pub use client::{Client, ClientConfig, ClientStats, RetryPolicy};

/// Tuning knobs of a [`NetServer`].
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Maximum concurrently open connections; further clients queue in
    /// the listener backlog until a slot frees up. A connection costs a
    /// reactor registration, not a thread, so this is cheap to raise.
    pub max_connections: usize,
    /// Reap a connection that goes this long without completing a frame
    /// (while idle or dribbling — slowloris) or without draining any
    /// response bytes (dead peer). `None` disables reaping. Connections
    /// whose batch is still executing are never reaped.
    pub idle_timeout: Option<Duration>,
    /// Dispatch workers that execute decoded batches (each batch still
    /// fans out over the shared worker pool). `0` sizes automatically
    /// from the pool's thread count.
    pub dispatch_threads: usize,
    /// Payload bytes per streamed response fragment. Responses larger
    /// than this go out as a sequence of CRC-checked stream frames
    /// instead of one monolithic frame, which is what bounds
    /// per-connection server memory; `0` disables streaming (every
    /// response is a single [`FrameKind::Response`](crate::wire::FrameKind::Response) frame).
    pub stream_chunk_bytes: usize,
    /// Overload protection: when this many batches are already queued
    /// for the dispatch workers, new request frames are **shed** —
    /// answered immediately with one retryable
    /// [`ServeError::Overloaded`](crate::ServeError::Overloaded) per request instead of joining a queue
    /// they would time out in. The connection stays open; a client with
    /// a [`RetryPolicy`] backs off and resubmits. `0` disables shedding.
    pub max_dispatch_backlog: usize,
    /// Backoff hint carried in shed responses'
    /// [`ServeError::Overloaded::retry_after_ms`](crate::ServeError::Overloaded::retry_after_ms).
    pub shed_retry_after_ms: u32,
}

impl Default for NetConfig {
    /// 4096 connections, 60 s idle deadline, auto-sized dispatch,
    /// 256 KiB stream fragments, shedding past 1024 queued batches with a
    /// 25 ms retry hint.
    fn default() -> Self {
        Self {
            max_connections: 4096,
            idle_timeout: Some(Duration::from_secs(60)),
            dispatch_threads: 0,
            stream_chunk_bytes: 256 << 10,
            max_dispatch_backlog: 1024,
            shed_retry_after_ms: 25,
        }
    }
}

/// Point-in-time transport counters of a [`NetServer`] (see
/// [`NetServerHandle::net_stats`]). Complements [`crate::ServeStats`],
/// which counts requests; these count connections, frames, and bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NetStats {
    /// Connections admitted over the server's lifetime.
    pub connections: u64,
    /// Connections open right now (gauge).
    pub open_connections: u64,
    /// High-water mark of concurrently open connections.
    pub peak_connections: u64,
    /// Request frames successfully read and decoded.
    pub frames_in: u64,
    /// Response frames written.
    pub frames_out: u64,
    /// Bytes received (headers + payloads of well-formed frames).
    pub bytes_in: u64,
    /// Bytes sent (headers + payloads).
    pub bytes_out: u64,
    /// Requests decoded out of request frames.
    pub requests: u64,
    /// Transport-level failures observed (malformed frames, socket
    /// errors); each also closed its connection.
    pub wire_errors: u64,
    /// Cross-thread reactor wakeups consumed (batch completions and
    /// shutdown nudges delivered through the wakeup fd).
    pub reactor_wakeups: u64,
    /// Connections reaped by the [`NetConfig::idle_timeout`] deadline
    /// (idle keep-alives, half-open peers, slowloris dribblers).
    pub reaped_idle: u64,
    /// Connections accepted but rejected before service (fd exhaustion,
    /// a socket that cannot be made nonblocking or registered with the
    /// reactor); the listener survives and keeps serving.
    pub rejected: u64,
    /// Responses that left as a sequence of stream fragments instead of
    /// one monolithic frame (see [`NetConfig::stream_chunk_bytes`]).
    pub streamed_responses: u64,
    /// Stream fragments written across all streamed responses.
    pub stream_frames_out: u64,
    /// High-water mark of bytes a single connection *owned* while a
    /// response drained: frame header + copied metadata, excluding
    /// shared chunk-cache references. The streaming wire path bounds
    /// this by roughly one stream fragment regardless of response size.
    pub peak_conn_buffered_bytes: u64,
    /// Histogram of frames per completed response, bucketed 1, 2, 3–4,
    /// 5–8, 9–16, 17–32, 33–64, 65+.
    pub frames_per_response: [u64; 8],
    /// Requests shed by overload protection: answered
    /// [`ServeError::Overloaded`](crate::ServeError::Overloaded) because the dispatch backlog was over
    /// [`NetConfig::max_dispatch_backlog`] when their frame arrived.
    pub shed: u64,
    /// Faults injected process-wide since start
    /// ([`exaclim_runtime::faults::injected`]); zero unless a fault plan
    /// is armed. Snapshotted here so chaos harnesses can assert the
    /// schedule actually fired from the same place they read transport
    /// counters.
    pub faults_injected: u64,
}

#[derive(Default)]
struct NetStatCells {
    connections: AtomicU64,
    open_connections: AtomicU64,
    peak_connections: AtomicU64,
    frames_in: AtomicU64,
    frames_out: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
    requests: AtomicU64,
    wire_errors: AtomicU64,
    reactor_wakeups: AtomicU64,
    reaped_idle: AtomicU64,
    rejected: AtomicU64,
    streamed_responses: AtomicU64,
    stream_frames_out: AtomicU64,
    peak_conn_buffered_bytes: AtomicU64,
    frames_per_response: [AtomicU64; 8],
    shed: AtomicU64,
}

/// Histogram bucket of a frames-per-response count: 1, 2, 3–4, 5–8,
/// 9–16, 17–32, 33–64, 65+.
fn frames_bucket(frames: u32) -> usize {
    match frames {
        0 | 1 => 0,
        2 => 1,
        3..=4 => 2,
        5..=8 => 3,
        9..=16 => 4,
        17..=32 => 5,
        33..=64 => 6,
        _ => 7,
    }
}

impl NetStatCells {
    fn snapshot(&self) -> NetStats {
        NetStats {
            connections: self.connections.load(Ordering::Relaxed),
            open_connections: self.open_connections.load(Ordering::Relaxed),
            peak_connections: self.peak_connections.load(Ordering::Relaxed),
            frames_in: self.frames_in.load(Ordering::Relaxed),
            frames_out: self.frames_out.load(Ordering::Relaxed),
            bytes_in: self.bytes_in.load(Ordering::Relaxed),
            bytes_out: self.bytes_out.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            wire_errors: self.wire_errors.load(Ordering::Relaxed),
            reactor_wakeups: self.reactor_wakeups.load(Ordering::Relaxed),
            reaped_idle: self.reaped_idle.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            streamed_responses: self.streamed_responses.load(Ordering::Relaxed),
            stream_frames_out: self.stream_frames_out.load(Ordering::Relaxed),
            peak_conn_buffered_bytes: self.peak_conn_buffered_bytes.load(Ordering::Relaxed),
            frames_per_response: std::array::from_fn(|i| {
                self.frames_per_response[i].load(Ordering::Relaxed)
            }),
            shed: self.shed.load(Ordering::Relaxed),
            faults_injected: exaclim_runtime::faults::injected(),
        }
    }

    /// One response fully written: bucket its frame count, and when it
    /// streamed, count the response and its fragments.
    fn response_written(&self, frames: u32, streamed: bool) {
        self.frames_per_response[frames_bucket(frames)].fetch_add(1, Ordering::Relaxed);
        if streamed {
            self.streamed_responses.fetch_add(1, Ordering::Relaxed);
            self.stream_frames_out
                .fetch_add(u64::from(frames), Ordering::Relaxed);
        }
    }

    /// Raise the per-connection owned-bytes high-water mark.
    fn note_conn_buffered(&self, owned: usize) {
        self.peak_conn_buffered_bytes
            .fetch_max(owned as u64, Ordering::Relaxed);
    }

    /// One connection admitted: bump the gauge and the high-water mark.
    fn conn_opened(&self) {
        let now = self.open_connections.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak_connections.fetch_max(now, Ordering::Relaxed);
    }

    /// One connection closed: drop the gauge.
    fn conn_closed(&self) {
        self.open_connections.fetch_sub(1, Ordering::Relaxed);
    }
}

/// State shared between the serving threads (reactor + dispatch workers)
/// and the [`NetServerHandle`].
struct NetShared {
    /// What decoded batches execute on: an in-process [`Server`]
    /// ([`NetServer::bind`]) or a [`Router`] scatter-gathering over
    /// backend shards ([`NetServer::bind_router`]).
    backend: Arc<dyn ServeBackend>,
    /// The in-process server when this front end is server-backed
    /// (`None` behind [`NetServer::bind_router`]).
    server: Option<Arc<Server>>,
    stats: NetStatCells,
    /// Set when shutdown begins; the reactor observes it on the next
    /// wakeup.
    shutdown: AtomicBool,
}

/// A bound-but-not-yet-serving network front end over a [`Server`].
pub struct NetServer {
    listener: TcpListener,
    addr: SocketAddr,
    reactor: Reactor,
    shared: Arc<NetShared>,
    config: NetConfig,
}

impl std::fmt::Debug for NetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServer")
            .field("addr", &self.addr)
            .field("max_connections", &self.config.max_connections)
            .finish()
    }
}

impl NetServer {
    /// Bind a listener on `addr` (use port 0 for an ephemeral port) over
    /// an existing in-process server.
    pub fn bind(
        addr: impl ToSocketAddrs,
        server: Arc<Server>,
        config: NetConfig,
    ) -> std::io::Result<Self> {
        Self::bind_backend(
            addr,
            Arc::clone(&server) as Arc<dyn ServeBackend>,
            Some(server),
            config,
        )
    }

    /// Bind a listener over a [`Router`]: the same ECN1 wire front end,
    /// but every decoded batch scatter-gathers over the router's backend
    /// shards instead of executing in-process. Clients cannot tell the
    /// difference — responses are bit-identical to a single server over
    /// the same catalog. [`NetServerHandle::server`] has no in-process
    /// server to return for a router-backed front end and panics;
    /// inspect the router you passed in instead.
    pub fn bind_router(
        addr: impl ToSocketAddrs,
        router: Arc<Router>,
        config: NetConfig,
    ) -> std::io::Result<Self> {
        Self::bind_backend(addr, router, None, config)
    }

    fn bind_backend(
        addr: impl ToSocketAddrs,
        backend: Arc<dyn ServeBackend>,
        server: Option<Arc<Server>>,
        config: NetConfig,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let reactor = Reactor::new()?;
        Ok(Self {
            listener,
            addr,
            reactor,
            shared: Arc::new(NetShared {
                backend,
                server,
                stats: NetStatCells::default(),
                shutdown: AtomicBool::new(false),
            }),
            config,
        })
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Start serving and return the controlling handle: dispatch
    /// workers plus the reactor thread (see the module docs).
    pub fn spawn(self) -> NetServerHandle {
        server::spawn(self)
    }
}

/// Controlling handle of a running [`NetServer`]: address, transport
/// stats, graceful shutdown. Dropping the handle shuts the server down.
pub struct NetServerHandle {
    addr: SocketAddr,
    shared: Arc<NetShared>,
    threads: Vec<std::thread::JoinHandle<()>>,
    /// Shutdown nudges the parked reactor through its wakeup fd.
    waker: Waker,
}

impl std::fmt::Debug for NetServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServerHandle")
            .field("addr", &self.addr)
            .finish()
    }
}

impl NetServerHandle {
    /// Address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The in-process server behind the wire.
    ///
    /// # Panics
    /// For a router-backed front end ([`NetServer::bind_router`]) there
    /// is no in-process server; inspect the [`Router`] instead.
    pub fn server(&self) -> &Arc<Server> {
        self.shared
            .server
            .as_ref()
            .expect("router-backed NetServer has no in-process Server")
    }

    /// Current transport counters.
    pub fn net_stats(&self) -> NetStats {
        self.shared.stats.snapshot()
    }

    /// Stop accepting, drain every open connection, and join all
    /// threads. Idempotent; also runs on drop.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        let threads = std::mem::take(&mut self.threads);
        if threads.is_empty() {
            return;
        }
        // Flag, nudge the parked reactor through the wakeup fd, and
        // join. The reactor closes the listener, closes idle connections,
        // lets dispatched batches and half-written responses drain, then
        // stops the dispatch workers.
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.waker.wake();
        for t in threads {
            let _ = t.join();
        }
    }
}

impl Drop for NetServerHandle {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Off unix there is no readiness reactor: [`Reactor::new`] reports
/// `Unsupported`, so [`NetServer::bind`] fails and nothing else here can
/// ever run.
#[cfg(not(unix))]
mod server {
    use super::{NetServer, NetServerHandle};
    use std::io;

    pub(super) enum Reactor {}
    pub(super) enum Waker {}

    impl Reactor {
        pub(super) fn new() -> io::Result<Self> {
            Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "the ECN1 server needs a unix readiness reactor (epoll or poll(2))",
            ))
        }
    }

    impl Waker {
        pub(super) fn wake(&self) {
            match *self {}
        }
    }

    pub(super) fn spawn(server: NetServer) -> NetServerHandle {
        match server.reactor {}
    }
}
