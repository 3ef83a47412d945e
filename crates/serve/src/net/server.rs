use super::{NetConfig, NetServer, NetServerHandle, NetShared};
use crate::error::{ServeError, WireError};
use crate::server::Request;
use crate::wire::{self, FrameKind, HEADER_LEN};
use exaclim_runtime::reactor::{Interest, Mode, Token};
pub(super) use exaclim_runtime::reactor::{Reactor, Waker};
use exaclim_store::crc32;
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The listener's reactor token; connections count up from 1.
const LISTENER: Token = Token(0);

/// A decoded request batch on its way to a dispatch worker.
struct Job {
    token: u64,
    id: u64,
    requests: Vec<Request>,
    /// When the request frame was parsed off the socket. Per-request
    /// deadline budgets ([`Request::WithDeadline`]) count from here,
    /// so queue time under backlog spends the budget.
    received: Instant,
}

/// A finished batch on its way back to the reactor: the encoded
/// response *body* — segments referencing chunk-cache buffers, not a
/// materialized frame. The reactor cuts it into wire frames on the
/// connection's write-drain.
struct Completion {
    token: u64,
    id: u64,
    body: wire::ResponseBody,
}

/// The bridge between the reactor thread and the dispatch workers:
/// jobs flow out through a condvar queue, completions flow back
/// through a mutexed vector plus a wakeup-fd nudge.
struct Dispatch {
    jobs: Mutex<(VecDeque<Job>, bool)>,
    jobs_cv: Condvar,
    completions: Mutex<Vec<Completion>>,
    waker: Waker,
    shared: Arc<NetShared>,
}

impl Dispatch {
    fn push(&self, job: Job) {
        self.jobs.lock().0.push_back(job);
        self.jobs_cv.notify_one();
    }

    fn close(&self) {
        self.jobs.lock().1 = true;
        self.jobs_cv.notify_all();
    }
}

/// Dispatch worker: pop a job, run the batch through the in-process
/// server (fanning out over the shared worker pool), encode the
/// response body — slice values as chunk-cache references, zero
/// copies — hand it back, nudge the reactor.
fn dispatch_worker(d: &Dispatch) {
    loop {
        let job = {
            let mut q = d.jobs.lock();
            loop {
                if let Some(job) = q.0.pop_front() {
                    break job;
                }
                if q.1 {
                    return;
                }
                d.jobs_cv.wait(&mut q);
            }
        };
        // Fault site `dispatch`, and panic containment: a panic on
        // this worker (injected or organic — a poisoned archive, a
        // bug in a product kernel) must not strand the requester or
        // kill the worker. Each request on the batch draws a typed
        // retryable [`ServeError::Internal`] instead, and the worker
        // survives to take the next job.
        let received = job.received;
        let requests = &job.requests;
        let backend = &d.shared.backend;
        let replies = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if let Some(action) = exaclim_runtime::faults::check("dispatch") {
                use exaclim_runtime::FaultAction;
                match action {
                    FaultAction::Delay(dur) | FaultAction::Stall(dur) => std::thread::sleep(dur),
                    FaultAction::Panic => panic!("injected dispatch fault"),
                    _ => {}
                }
            }
            backend.batch_replies_from(requests, received)
        }))
        .unwrap_or_else(|_| {
            job.requests
                .iter()
                .map(|_| {
                    crate::server::Reply::Full(Err(ServeError::Internal(
                        "request execution panicked".to_string(),
                    )))
                })
                .collect()
        });
        let body = wire::encode_reply_batch(replies);
        d.completions.lock().push(Completion {
            token: job.token,
            id: job.id,
            body,
        });
        d.waker.wake();
    }
}

/// Where a connection's state machine stands.
enum Phase {
    /// Accumulating request bytes (header-scan / payload-accumulate).
    Reading,
    /// A decoded batch is executing on a dispatch worker; read
    /// interest is off (one batch in flight per connection).
    Dispatched,
}

/// A response (or error) mid-drain: a [`wire::FrameStream`] cutting
/// the body into frames on demand, plus the frame currently leaving.
/// Only `cur`'s header (and small copied metadata runs) is owned;
/// payload bytes stay in the shared chunk cache until `writev` reads
/// them, which is what bounds per-connection memory.
struct Outgoing {
    stream: wire::FrameStream,
    /// The staged frame and how many of its bytes have left.
    cur: Option<(wire::OutFrame, usize)>,
    /// Response frames count toward `frames_out`/`bytes_out`;
    /// error frames do not.
    is_response: bool,
}

/// Frames drained per connection per readiness round. A fat streamed
/// response yields the reactor back after this many frames so its
/// neighbours get their turn (level-triggered readiness re-announces
/// the still-writable socket next round).
const FRAMES_PER_ROUND: u32 = 8;

/// One connection's nonblocking state machine.
struct Conn {
    stream: TcpStream,
    /// Unparsed request bytes (at most one frame plus whatever the
    /// socket delivered alongside it; read interest is off while a
    /// batch executes or a response drains). Grows only as bytes
    /// arrive: a header's claimed payload length reserves nothing.
    buf: Vec<u8>,
    phase: Phase,
    write: Option<Outgoing>,
    /// Close once the pending write drains (error frames, shutdown).
    close_after: bool,
    /// The peer's write side closed; whatever is buffered is all
    /// there will ever be.
    eof: bool,
    interest: Interest,
    /// Last time this connection completed a frame in or pushed
    /// response bytes out. The idle wheel is re-armed lazily from
    /// this on expiry instead of on every frame (hot connections
    /// would otherwise churn the deadline structure per frame).
    last_activity: Instant,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Self {
            stream,
            buf: Vec::new(),
            phase: Phase::Reading,
            write: None,
            close_after: false,
            eof: false,
            interest: Interest::READABLE,
            last_activity: Instant::now(),
        }
    }
}

/// What the frame parser decided about the head of `Conn::buf`.
#[derive(Debug)]
enum Parsed {
    /// Not enough bytes yet; keep reading.
    NeedMore,
    /// The peer closed cleanly between frames.
    CleanClose,
    /// Transport-level violation: answer with an error frame carrying
    /// this id and message, then close.
    Fail { id: u64, msg: String },
    /// A complete, checksum-valid request frame of `total` bytes: its
    /// decoded batch, or why the payload failed to decode.
    Request {
        id: u64,
        total: usize,
        requests: Result<Vec<Request>, WireError>,
    },
}

/// The reactor thread's whole world.
struct EventLoop {
    reactor: Reactor,
    listener: Option<TcpListener>,
    accepting: bool,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    scratch: Vec<u8>,
    draining: bool,
    dispatch: Arc<Dispatch>,
    shared: Arc<NetShared>,
    config: NetConfig,
}

/// Launch the server: dispatch workers plus the reactor thread, all
/// joined by [`NetServerHandle::shutdown`].
pub(super) fn spawn(server: NetServer) -> NetServerHandle {
    let addr = server.addr;
    let el = EventLoop::new(server);
    let waker = el.reactor.waker();
    let shared = Arc::clone(&el.shared);
    let workers = if el.config.dispatch_threads == 0 {
        exaclim_runtime::pool::global().threads().clamp(1, 8)
    } else {
        el.config.dispatch_threads
    };
    let mut threads = Vec::with_capacity(workers + 1);
    for i in 0..workers {
        let d = Arc::clone(&el.dispatch);
        threads.push(
            std::thread::Builder::new()
                .name(format!("exaclim-net-dispatch-{i}"))
                .spawn(move || dispatch_worker(&d))
                .expect("spawn dispatch worker"),
        );
    }
    threads.push(
        std::thread::Builder::new()
            .name("exaclim-net-reactor".to_string())
            .spawn(move || {
                let mut el = el;
                el.run();
                // No connection can produce work anymore: release the
                // dispatch workers so the handle can join them.
                el.dispatch.close();
            })
            .expect("spawn reactor thread"),
    );
    NetServerHandle {
        addr,
        shared,
        threads,
        waker,
    }
}

impl EventLoop {
    /// The loop over a bound server, with the dispatch queue it feeds
    /// but no worker threads yet.
    fn new(server: NetServer) -> Self {
        let NetServer {
            listener,
            reactor,
            shared,
            config,
            ..
        } = server;
        let dispatch = Arc::new(Dispatch {
            jobs: Mutex::new((VecDeque::new(), false)),
            jobs_cv: Condvar::new(),
            completions: Mutex::new(Vec::new()),
            waker: reactor.waker(),
            shared: Arc::clone(&shared),
        });
        Self {
            reactor,
            listener: Some(listener),
            accepting: false,
            conns: HashMap::new(),
            next_token: 1,
            scratch: vec![0u8; 64 * 1024],
            draining: false,
            dispatch,
            shared,
            config,
        }
    }

    fn run(&mut self) {
        if let Some(listener) = &self.listener {
            if self
                .reactor
                .register(
                    listener.as_raw_fd(),
                    LISTENER,
                    Interest::READABLE,
                    Mode::Level,
                )
                .is_err()
            {
                return;
            }
            self.accepting = true;
        }
        let mut events = Vec::new();
        let mut expired = Vec::new();
        loop {
            let woken = match self.reactor.poll(&mut events, &mut expired, None) {
                Ok(woken) => woken,
                Err(_) => {
                    // EBADF and friends are unrecoverable program
                    // bugs; anything transient deserves a breather,
                    // not a hot spin.
                    std::thread::sleep(Duration::from_millis(1));
                    false
                }
            };
            if woken {
                self.shared
                    .stats
                    .reactor_wakeups
                    .fetch_add(1, Ordering::Relaxed);
            }
            // Completions first: they free connections back into
            // write-drain before this round's readiness is handled.
            let done: Vec<Completion> = std::mem::take(&mut *self.dispatch.completions.lock());
            for completion in done {
                self.complete(completion);
            }
            if self.shared.shutdown.load(Ordering::SeqCst) && !self.draining {
                self.begin_drain();
            }
            for ev in events.drain(..) {
                if ev.token == LISTENER {
                    self.accept_burst();
                } else {
                    self.conn_event(ev);
                }
            }
            for token in expired.drain(..) {
                self.expire(token.0);
            }
            self.resume_accepting_if_room();
            if self.draining && self.conns.is_empty() {
                return;
            }
        }
    }

    /// A dispatch worker finished a batch for `token`: stage the body
    /// as a frame stream on the connection's write-drain.
    fn complete(&mut self, completion: Completion) {
        let Some(conn) = self.conns.get_mut(&completion.token) else {
            return; // connection died while its batch executed
        };
        match wire::FrameStream::response(
            completion.body,
            completion.id,
            self.config.stream_chunk_bytes,
        ) {
            Ok(stream) => {
                conn.phase = Phase::Reading;
                conn.write = Some(Outgoing {
                    stream,
                    cur: None,
                    is_response: true,
                });
                // Optimistic drain: the socket is almost always
                // writable, so most responses leave without waiting
                // for a readiness round trip.
                self.conn_write(completion.token);
            }
            // Response over the payload cap: close.
            Err(_) => self.close_conn(completion.token),
        }
    }

    /// Shutdown observed: stop accepting, close idle connections,
    /// and mark the busy ones to close as soon as they drain.
    fn begin_drain(&mut self) {
        self.draining = true;
        self.pause_accepting();
        // Dropping the listener refuses new connections outright.
        self.listener = None;
        let idle: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| c.write.is_none() && matches!(c.phase, Phase::Reading))
            .map(|(&t, _)| t)
            .collect();
        for token in idle {
            self.close_conn(token);
        }
        // Busy connections drain (dispatched batch → response write →
        // close). A deadline bounds the drain even when no idle
        // timeout is configured, so a dead peer cannot hang shutdown.
        let drain_deadline =
            Instant::now() + self.config.idle_timeout.unwrap_or(Duration::from_secs(5));
        let busy: Vec<u64> = self.conns.keys().copied().collect();
        for token in busy {
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.close_after = true;
            }
            self.reactor.set_deadline(Token(token), drain_deadline);
        }
    }

    fn pause_accepting(&mut self) {
        if self.accepting {
            let _ = self.reactor.deregister(LISTENER);
            self.accepting = false;
        }
    }

    fn resume_accepting_if_room(&mut self) {
        if self.accepting || self.draining || self.conns.len() >= self.config.max_connections {
            return;
        }
        if let Some(listener) = &self.listener {
            if self
                .reactor
                .register(
                    listener.as_raw_fd(),
                    LISTENER,
                    Interest::READABLE,
                    Mode::Level,
                )
                .is_ok()
            {
                self.accepting = true;
            }
        }
    }

    /// Accept everything the backlog has, up to the connection cap.
    fn accept_burst(&mut self) {
        loop {
            if self.draining {
                return;
            }
            if self.conns.len() >= self.config.max_connections {
                // At capacity: stop listening so a level-triggered
                // backlog does not spin the loop; the backlog itself
                // is the admission queue.
                self.pause_accepting();
                return;
            }
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        self.shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
                        continue; // dropped → closed
                    }
                    let _ = stream.set_nodelay(true);
                    let token = self.next_token;
                    self.next_token += 1;
                    if self
                        .reactor
                        .register(
                            stream.as_raw_fd(),
                            Token(token),
                            Interest::READABLE,
                            Mode::Level,
                        )
                        .is_err()
                    {
                        self.shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    self.shared
                        .stats
                        .connections
                        .fetch_add(1, Ordering::Relaxed);
                    self.shared.stats.conn_opened();
                    self.conns.insert(token, Conn::new(stream));
                    self.reset_deadline(token);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    // fd exhaustion or a reset mid-handshake: the
                    // connection is lost but the listener survives.
                    self.shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
                    return;
                }
            }
        }
    }

    /// Route one readiness event to the connection's state machine.
    fn conn_event(&mut self, ev: exaclim_runtime::reactor::Event) {
        let token = ev.token.0;
        let Some(conn) = self.conns.get(&token) else {
            return; // closed earlier this round
        };
        if ev.error {
            self.shared
                .stats
                .wire_errors
                .fetch_add(1, Ordering::Relaxed);
            self.close_conn(token);
            return;
        }
        if ev.writable && conn.write.is_some() {
            self.conn_write(token);
        }
        let Some(conn) = self.conns.get(&token) else {
            return;
        };
        if conn.write.is_none() && matches!(conn.phase, Phase::Reading) && !conn.eof {
            if ev.readable || ev.hangup {
                self.conn_read(token);
            }
        } else if ev.hangup && conn.write.is_none() && matches!(conn.phase, Phase::Reading) {
            // EOF already seen and nothing left to write: done.
            self.close_conn(token);
        }
    }

    /// Drain the socket into the connection's buffer, then parse.
    fn conn_read(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        // Fault site `net.read`. ShortRead caps this round at one
        // byte (the parser must already tolerate arbitrary
        // fragmentation — this proves it); Interrupt skips the round
        // as a kernel EINTR would (level-triggered readiness
        // re-announces the socket); Reset fails the connection as a
        // peer reset would. Delays run on the reactor thread — a
        // stalled event loop is exactly the pathology they model.
        let mut read_cap = self.scratch.len();
        if let Some(action) = exaclim_runtime::faults::check("net.read") {
            use exaclim_runtime::FaultAction;
            match action {
                FaultAction::ShortRead => read_cap = 1,
                FaultAction::Interrupt => return,
                FaultAction::Reset => {
                    self.shared
                        .stats
                        .wire_errors
                        .fetch_add(1, Ordering::Relaxed);
                    self.close_conn(token);
                    return;
                }
                FaultAction::Delay(dur) | FaultAction::Stall(dur) => std::thread::sleep(dur),
                _ => {}
            }
        }
        let mut failed = false;
        loop {
            match conn.stream.read(&mut self.scratch[..read_cap]) {
                Ok(0) => {
                    conn.eof = true;
                    break;
                }
                Ok(n) => {
                    conn.buf.extend_from_slice(&self.scratch[..n]);
                    if read_cap < self.scratch.len() {
                        break; // injected short read: one byte this round
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    failed = true;
                    break;
                }
            }
        }
        if failed {
            // Socket-level read failure (reset mid-frame, say): count
            // a wire error and close.
            self.shared
                .stats
                .wire_errors
                .fetch_add(1, Ordering::Relaxed);
            self.close_conn(token);
            return;
        }
        self.advance(token);
    }

    /// Run the frame parser over the head of the buffer and act on
    /// the outcome: dispatch, reject, wait, or close.
    fn advance(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.write.is_some() || matches!(conn.phase, Phase::Dispatched) {
            return; // back-pressure: one batch/response at a time
        }
        match parse_head(&conn.buf, conn.eof) {
            Parsed::NeedMore => self.sync_interest(token),
            Parsed::CleanClose => self.close_conn(token),
            Parsed::Fail { id, msg } => self.fail_conn(token, id, &msg),
            Parsed::Request {
                id,
                total,
                requests,
            } => {
                let stats = &self.shared.stats;
                stats.frames_in.fetch_add(1, Ordering::Relaxed);
                stats.bytes_in.fetch_add(total as u64, Ordering::Relaxed);
                let requests = match requests {
                    Ok(requests) => requests,
                    // Intact framing, bad payload: the stream may be
                    // desynced, so report and close.
                    Err(e) => return self.fail_conn(token, id, &e.to_string()),
                };
                stats
                    .requests
                    .fetch_add(requests.len() as u64, Ordering::Relaxed);
                let conn = self.conns.get_mut(&token).expect("conn just parsed");
                conn.buf.drain(..total);
                // A complete frame arrived: this peer is live.
                conn.last_activity = Instant::now();
                // Overload protection: past the dispatch backlog
                // threshold, shed instead of queueing doomed work. A
                // shed batch draws a well-formed response frame with
                // one retryable `Overloaded` per request — cheaper
                // than executing, and the connection stays open for
                // the retry.
                let backlog = self.config.max_dispatch_backlog;
                if backlog > 0 && self.dispatch.jobs.lock().0.len() >= backlog {
                    self.shed(token, id, requests.len());
                    return;
                }
                conn.phase = Phase::Dispatched;
                self.sync_interest(token);
                self.dispatch.push(Job {
                    token,
                    id,
                    requests,
                    received: Instant::now(),
                });
            }
        }
    }

    /// Answer a shed batch without dispatching: one retryable
    /// [`ServeError::Overloaded`] per request, staged on the
    /// write-drain like any other response. The connection stays
    /// open — shedding is back-pressure, not punishment.
    fn shed(&mut self, token: u64, id: u64, n_requests: usize) {
        self.shared
            .stats
            .shed
            .fetch_add(n_requests as u64, Ordering::Relaxed);
        let retry_after_ms = self.config.shed_retry_after_ms;
        let replies: Vec<crate::server::Reply> = (0..n_requests)
            .map(|_| crate::server::Reply::Full(Err(ServeError::Overloaded { retry_after_ms })))
            .collect();
        let body = wire::encode_reply_batch(replies);
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        match wire::FrameStream::response(body, id, self.config.stream_chunk_bytes) {
            Ok(stream) => {
                conn.write = Some(Outgoing {
                    stream,
                    cur: None,
                    is_response: true,
                });
                self.conn_write(token);
            }
            Err(_) => self.close_conn(token),
        }
    }

    /// Transport-level violation: count it, answer best-effort with
    /// an error frame, and close once (if) it drains.
    fn fail_conn(&mut self, token: u64, id: u64, msg: &str) {
        self.shared
            .stats
            .wire_errors
            .fetch_add(1, Ordering::Relaxed);
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let body = wire::ResponseBody::from_payload(wire::encode_error_payload(msg));
        match wire::FrameStream::single(FrameKind::Error, id, body) {
            Ok(stream) => {
                conn.close_after = true;
                conn.write = Some(Outgoing {
                    stream,
                    cur: None,
                    is_response: false,
                });
                self.conn_write(token);
            }
            Err(_) => self.close_conn(token),
        }
    }

    /// Drain pending response frames into the socket: cut frames on
    /// demand from the connection's [`wire::FrameStream`] and push
    /// each out with gathered `writev` straight from the shared
    /// chunk buffers, up to [`FRAMES_PER_ROUND`] frames per call so
    /// one fat streamed response cannot starve its neighbours
    /// (level-triggered readiness resumes it next round).
    fn conn_write(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.write.is_none() {
            return;
        }
        // Fault site `net.write`. Reset fails the connection as a
        // peer reset mid-response would (the client sees a truncated
        // stream); Interrupt yields the round; delays stall the
        // drain. Unrealizable actions degrade to no-ops.
        if let Some(action) = exaclim_runtime::faults::check("net.write") {
            use exaclim_runtime::FaultAction;
            match action {
                FaultAction::Reset => {
                    self.close_conn(token);
                    return;
                }
                FaultAction::Interrupt => return,
                FaultAction::Delay(dur) | FaultAction::Stall(dur) => std::thread::sleep(dur),
                _ => {}
            }
        }
        let mut failed = false;
        let mut progressed = false;
        let mut finished = false;
        let mut round = 0u32;
        'frames: loop {
            let out = conn.write.as_mut().expect("checked above");
            // Stage the next frame when none is mid-drain.
            if out.cur.is_none() {
                match out.stream.next_frame() {
                    Some(frame) => {
                        self.shared
                            .stats
                            .note_conn_buffered(frame.owned_len(out.stream.body()));
                        out.cur = Some((frame, 0));
                    }
                    None => {
                        finished = true;
                        break;
                    }
                }
            }
            let Outgoing {
                stream,
                cur,
                is_response,
            } = out;
            let (frame, written) = cur.as_mut().expect("staged above");
            let total = frame.total_len();
            let mut bufs: Vec<std::io::IoSlice<'_>> = Vec::new();
            while *written < total {
                bufs.clear();
                frame.remaining_slices(stream.body(), *written, &mut bufs, wire::MAX_WRITE_IOV);
                match conn.stream.write_vectored(&bufs) {
                    Ok(0) => {
                        failed = true;
                        break 'frames;
                    }
                    Ok(n) => {
                        *written += n;
                        progressed = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break 'frames,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => {
                        failed = true;
                        break 'frames;
                    }
                }
            }
            // One frame fully out: count it, drop its staging, move on.
            if *is_response {
                self.shared.stats.frames_out.fetch_add(1, Ordering::Relaxed);
                self.shared
                    .stats
                    .bytes_out
                    .fetch_add(total as u64, Ordering::Relaxed);
            }
            let was_last = frame.last;
            *cur = None;
            if was_last {
                finished = true;
                break;
            }
            // Fault site `net.write.frame`: between stream
            // fragments, where a stall holds the peer mid-reassembly
            // and a reset leaves it with a truncated stream.
            if let Some(action) = exaclim_runtime::faults::check("net.write.frame") {
                use exaclim_runtime::FaultAction;
                match action {
                    FaultAction::Delay(d) | FaultAction::Stall(d) => std::thread::sleep(d),
                    FaultAction::Reset => {
                        failed = true;
                        break 'frames;
                    }
                    _ => {}
                }
            }
            round += 1;
            if round >= FRAMES_PER_ROUND {
                break; // yield to the other connections this round
            }
        }
        if failed {
            // A failed write closes the connection without counting
            // a wire error.
            self.close_conn(token);
            return;
        }
        if finished {
            self.finish_write(token);
            return;
        }
        if progressed {
            // The peer is draining, just slowly — not idle.
            conn.last_activity = Instant::now();
        }
        self.sync_interest(token);
    }

    /// A whole response (or error frame) fully left the socket:
    /// bucket its frame count, close if it was a goodbye, otherwise
    /// re-parse whatever the client pipelined.
    fn finish_write(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let out = conn.write.take().expect("finish_write without a write");
        if out.is_response {
            self.shared
                .stats
                .response_written(out.stream.frames_emitted(), out.stream.is_streamed());
        }
        if conn.close_after {
            self.close_conn(token);
            return;
        }
        conn.last_activity = Instant::now();
        // Level-triggered readiness will not re-announce bytes we
        // already buffered: pipelined frames must be re-parsed now,
        // not when the socket next stirs.
        self.advance(token);
    }

    /// Keep the reactor's armed interest in sync with the state
    /// machine: write-drain → writable, dispatched → muted,
    /// reading → readable.
    fn sync_interest(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let want = if conn.write.is_some() {
            Interest::WRITABLE
        } else if matches!(conn.phase, Phase::Dispatched) {
            Interest::NONE
        } else {
            Interest::READABLE
        };
        if conn.interest != want {
            conn.interest = want;
            let _ = self.reactor.modify(Token(token), want);
        }
    }

    /// Arm the idle deadline, when one is configured. Called once at
    /// accept (and when a deadline needs explicit re-arming); hot
    /// connections only touch `Conn::last_activity` per frame, and
    /// [`EventLoop::expire`] re-arms lazily from that — one wheel
    /// operation per idle period instead of one per frame.
    fn reset_deadline(&mut self, token: u64) {
        if let Some(idle) = self.config.idle_timeout {
            self.reactor
                .set_deadline(Token(token), Instant::now() + idle);
        }
    }

    /// A deadline fired: reap the connection unless its batch is
    /// still executing (compute time is not idle time) or it was in
    /// fact recently active — deadlines are armed lazily, so the
    /// wheel entry of a busy connection is usually stale; re-arm it
    /// at the true idle deadline instead.
    fn expire(&mut self, token: u64) {
        let Some(conn) = self.conns.get(&token) else {
            return;
        };
        if matches!(conn.phase, Phase::Dispatched) {
            self.reset_deadline(token);
            return;
        }
        // While draining for shutdown the deadline set by
        // [`EventLoop::begin_drain`] is absolute: a peer draining
        // its half-written response slowly gets exactly that grace,
        // then a hard close (the client sees a typed truncated
        // stream) — progress must not extend shutdown forever.
        if !self.draining {
            if let Some(idle) = self.config.idle_timeout {
                let due = conn.last_activity + idle;
                if due > Instant::now() {
                    self.reactor.set_deadline(Token(token), due);
                    return;
                }
            }
        }
        self.shared
            .stats
            .reaped_idle
            .fetch_add(1, Ordering::Relaxed);
        self.close_conn(token);
    }

    fn close_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.reactor.deregister(Token(token));
            let _ = conn.stream.shutdown(Shutdown::Both);
            self.shared.stats.conn_closed();
        }
    }
}

/// Pure frame parser over the head of a connection's buffer; `eof`
/// says whether the peer's write side has closed. Splits cleanly from
/// the event loop so the bookkeeping above stays free of byte-level
/// detail. It only reads `buf`: a header claiming a large payload
/// reserves nothing, so a hostile peer ties up only the bytes it sends.
fn parse_head(buf: &[u8], eof: bool) -> Parsed {
    let truncated = |context| Parsed::Fail {
        id: 0,
        msg: WireError::Truncated { context }.to_string(),
    };
    if buf.len() < HEADER_LEN {
        return match (eof, buf.is_empty()) {
            (false, _) => Parsed::NeedMore,
            (true, true) => Parsed::CleanClose,
            (true, false) => truncated("frame header"),
        };
    }
    let header_bytes: [u8; HEADER_LEN] = buf[..HEADER_LEN].try_into().expect("header slice");
    let header = match wire::FrameHeader::decode(&header_bytes) {
        Ok(header) => header,
        Err(e) => {
            return Parsed::Fail {
                id: 0,
                msg: e.to_string(),
            }
        }
    };
    let total = HEADER_LEN + header.len as usize;
    if buf.len() < total {
        return if eof {
            truncated("frame payload")
        } else {
            Parsed::NeedMore
        };
    }
    let payload = &buf[HEADER_LEN..total];
    let actual = crc32(payload);
    if actual != header.crc {
        return Parsed::Fail {
            id: 0,
            msg: WireError::ChecksumMismatch {
                expected: header.crc,
                actual,
            }
            .to_string(),
        };
    }
    if header.kind != FrameKind::Request {
        return Parsed::Fail {
            id: header.id,
            msg: format!("unexpected frame kind {} from client", header.kind.id()),
        };
    }
    Parsed::Request {
        id: header.id,
        total,
        requests: wire::decode_request_batch(payload),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Catalog, ServeConfig, Server};

    fn request_frame(id: u64) -> Vec<u8> {
        let payload = wire::encode_request_batch(&[Request::Stats]);
        wire::encode_frame(FrameKind::Request, id, &payload).unwrap()
    }

    fn fail_msg(parsed: Parsed) -> (u64, String) {
        match parsed {
            Parsed::Fail { id, msg } => (id, msg),
            other => panic!("expected Fail, got {other:?}"),
        }
    }

    #[test]
    fn partial_header_needs_more() {
        let frame = request_frame(1);
        for cut in [0, 1, HEADER_LEN - 1] {
            assert!(matches!(parse_head(&frame[..cut], false), Parsed::NeedMore));
        }
        // A whole header with part of its payload waits too.
        let cut = frame.len() - 1;
        assert!(matches!(parse_head(&frame[..cut], false), Parsed::NeedMore));
    }

    #[test]
    fn eof_between_frames_is_a_clean_close() {
        assert!(matches!(parse_head(&[], true), Parsed::CleanClose));
    }

    #[test]
    fn eof_inside_a_frame_is_truncation() {
        let frame = request_frame(1);
        for (cut, context) in [
            (HEADER_LEN - 1, "frame header"),
            (frame.len() - 1, "frame payload"),
        ] {
            let (id, msg) = fail_msg(parse_head(&frame[..cut], true));
            assert_eq!(id, 0);
            assert_eq!(msg, WireError::Truncated { context }.to_string());
        }
    }

    #[test]
    fn bad_magic_fails_from_the_header() {
        let mut frame = request_frame(1);
        frame[..4].copy_from_slice(b"HTTP");
        let (id, msg) = fail_msg(parse_head(&frame[..HEADER_LEN], false));
        assert_eq!(id, 0);
        assert_eq!(msg, WireError::BadMagic(*b"HTTP").to_string());
    }

    #[test]
    fn versions_2_and_3_are_rejected_before_the_payload() {
        for old in [2, 3] {
            let mut frame = request_frame(1);
            frame[4] = old;
            let (id, msg) = fail_msg(parse_head(&frame[..HEADER_LEN], false));
            assert_eq!(id, 0);
            let want = WireError::Version {
                got: old,
                want: wire::VERSION,
            };
            assert_eq!(msg, want.to_string());
        }
    }

    #[test]
    fn crc_mismatch_fails() {
        let mut frame = request_frame(1);
        let last = frame.len() - 1;
        frame[last] ^= 0x01;
        let (id, msg) = fail_msg(parse_head(&frame, false));
        assert_eq!(id, 0);
        let want = WireError::ChecksumMismatch {
            expected: u32::from_le_bytes(frame[20..24].try_into().unwrap()),
            actual: crc32(&frame[HEADER_LEN..]),
        };
        assert_eq!(msg, want.to_string());
    }

    #[test]
    fn non_request_kind_echoes_its_frame_id() {
        let frame = wire::encode_frame(FrameKind::Response, 77, &[]).unwrap();
        let (id, msg) = fail_msg(parse_head(&frame, false));
        assert_eq!(id, 77);
        assert_eq!(msg, "unexpected frame kind 2 from client");
    }

    #[test]
    fn undecodable_payload_keeps_its_frame_id() {
        let frame = wire::encode_frame(FrameKind::Request, 9, &[0xFF; 3]).unwrap();
        match parse_head(&frame, false) {
            Parsed::Request {
                id: 9,
                total,
                requests: Err(_),
            } => assert_eq!(total, frame.len()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn pipelined_frames_parse_in_order() {
        let mut buf = request_frame(1);
        buf.extend_from_slice(&request_frame(2));
        let mut head = 0;
        for want in [1, 2] {
            match parse_head(&buf[head..], false) {
                Parsed::Request {
                    id,
                    total,
                    requests: Ok(requests),
                } => {
                    assert_eq!(id, want);
                    assert_eq!(requests, vec![Request::Stats]);
                    head += total;
                }
                other => panic!("frame {want}: {other:?}"),
            }
        }
        assert_eq!(head, buf.len());
        assert!(matches!(parse_head(&buf[head..], false), Parsed::NeedMore));
    }

    /// A 24-byte header claiming a `MAX_FRAME_PAYLOAD` payload, read
    /// through the real socket path: the connection buffer holds what
    /// arrived, not the gigabyte the header claims.
    #[test]
    fn hostile_length_claim_reserves_nothing() {
        let server = Arc::new(Server::new(Catalog::new(), ServeConfig::default()));
        let bound = NetServer::bind("127.0.0.1:0", server, NetConfig::default()).unwrap();
        let addr = bound.local_addr();
        let mut el = EventLoop::new(bound);
        let mut peer = TcpStream::connect(addr).unwrap();
        let header = wire::FrameHeader {
            kind: FrameKind::Request,
            stream: None,
            id: 1,
            len: wire::MAX_FRAME_PAYLOAD,
            crc: 0,
        };
        peer.write_all(&header.encode()).unwrap();
        peer.write_all(&[0u8; 1000]).unwrap();

        let deadline = Instant::now() + Duration::from_secs(10);
        while el.conns.is_empty() {
            assert!(Instant::now() < deadline, "connection never accepted");
            el.accept_burst();
        }
        let token = *el.conns.keys().next().unwrap();
        while el.conns[&token].buf.len() < HEADER_LEN + 1000 {
            assert!(Instant::now() < deadline, "bytes never arrived");
            el.conn_read(token);
            std::thread::sleep(Duration::from_millis(1));
        }
        let conn = &el.conns[&token];
        assert!(matches!(conn.phase, Phase::Reading));
        assert!(
            conn.buf.capacity() <= conn.buf.len() + el.scratch.len(),
            "{} bytes received, {} reserved",
            conn.buf.len(),
            conn.buf.capacity()
        );
    }
}
