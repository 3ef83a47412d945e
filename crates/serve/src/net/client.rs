//! The blocking ECN1 client: one reused connection, pipelining, and the
//! self-healing retry layer.

use crate::error::{ServeError, WireError};
use crate::product::{ProductData, ProductDescriptor, ScenarioSpec};
use crate::server::{Request, Response, ServeStats};
use crate::wire::{self, FrameKind};
use std::collections::VecDeque;
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Capped exponential backoff with decorrelated jitter and a retry
/// budget — the client half of the resilience layer (see
/// [`ClientConfig::retry`]).
///
/// Each retry draws its delay uniformly from `base_delay ..
/// min(max_delay, 3 × previous_delay)` — "decorrelated jitter", which
/// spreads a thundering herd of retrying clients across time instead of
/// synchronizing them into repeated stampedes. The jitter stream is
/// seeded, so a given client's backoff schedule is reproducible.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Most retries one operation (a [`Client::batch`] call, one
    /// [`Client::recv`]) may spend before the error is surfaced.
    pub max_retries: u32,
    /// Lower bound of every backoff delay.
    pub base_delay: Duration,
    /// Upper bound of every backoff delay (and of honored
    /// [`ServeError::Overloaded::retry_after_ms`] hints).
    pub max_delay: Duration,
    /// Seed of the jitter stream: same seed ⇒ same backoff schedule.
    pub seed: u64,
}

impl Default for RetryPolicy {
    /// 8 retries, 5 ms base, 1 s cap.
    fn default() -> Self {
        Self {
            max_retries: 8,
            base_delay: Duration::from_millis(5),
            max_delay: Duration::from_secs(1),
            seed: 0x5EED,
        }
    }
}

/// Connection and resilience knobs of a [`Client`] (see
/// [`Client::connect_with`]).
#[derive(Debug, Clone, Default)]
pub struct ClientConfig {
    /// Bound on establishing the TCP connection, applied per resolved
    /// address; `None` blocks on the OS default (which against a
    /// dead-but-routable address can be minutes).
    pub connect_timeout: Option<Duration>,
    /// Socket read timeout: a server that stops talking mid-frame
    /// surfaces as a retryable [`WireError::Io`] instead of a hang.
    pub read_timeout: Option<Duration>,
    /// Socket write timeout, same rationale as
    /// [`ClientConfig::read_timeout`].
    pub write_timeout: Option<Duration>,
    /// Label this connection's peer in transport errors
    /// ([`WireError::with_peer`]): a router pooling clients to N shards
    /// names each one (`shard-2@127.0.0.1:4042`), so a dead backend is
    /// attributable in logs and tests. `None` (the default) labels with
    /// the first resolved address.
    pub peer: Option<String>,
    /// Self-healing: `Some` arms transport-level reconnect-with-replay
    /// (every serving op is read-only, so replaying in-flight pipelined
    /// requests is safe) and batch-level retry of retryable per-request
    /// errors ([`ServeError::retryable`]), honoring the server's
    /// [`ServeError::Overloaded::retry_after_ms`] hint. `None` (the
    /// default) surfaces every failure immediately — behaviorally
    /// identical to the pre-resilience client.
    pub retry: Option<RetryPolicy>,
}

/// Resilience counters of one [`Client`] (see [`Client::client_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ClientStats {
    /// Retries spent: transport-level (reconnect + replay) and
    /// batch-level (retryable per-request errors) combined.
    pub retries: u64,
    /// Reconnect attempts made while self-healing.
    pub reconnects: u64,
}

/// A blocking client over one reused connection.
///
/// [`Client::batch`] is the wire twin of [`Server::handle_batch`](crate::Server::handle_batch): same
/// request slice in, same `Vec<Result<Response, ServeError>>` out,
/// bit-identical responses. For pipelining, [`Client::send`] and
/// [`Client::recv`] split the round trip: several batches may be in
/// flight on the connection at once, and responses arrive in send order.
///
/// Large responses arrive as CRC-checked stream fragments which
/// [`Client::recv`] reassembles transparently — the result is
/// bit-identical to the same response sent as a single frame.
///
/// With a [`RetryPolicy`] armed ([`ClientConfig::retry`]) the client
/// **self-heals**: retryable transport failures (resets, truncated
/// streams, socket errors — [`WireError::retryable`]) trigger a
/// reconnect that replays every in-flight batch under fresh frame ids,
/// and retryable per-request errors ([`ServeError::Overloaded`],
/// [`ServeError::Internal`]) make [`Client::batch`] back off and
/// resubmit. Without a policy every failure surfaces immediately.
pub struct Client {
    addrs: Vec<SocketAddr>,
    config: ClientConfig,
    /// Label stamped onto transport errors ([`ClientConfig::peer`], or
    /// the first resolved address).
    peer: String,
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    next_id: u64,
    /// Oldest-first in-flight batches: `(frame id, request count,
    /// requests)`. The count is checked against the response batch; the
    /// requests are retained (when a retry policy is armed) so a
    /// reconnect can replay them verbatim.
    in_flight: VecDeque<(u64, usize, Vec<Request>)>,
    stats: ClientStats,
    /// Jitter stream state (splitmix64 over [`RetryPolicy::seed`]).
    rng: u64,
    /// Previous backoff delay, feeding the decorrelated-jitter window.
    last_delay: Duration,
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("peer", &self.peer)
            .field("next_id", &self.next_id)
            .field("in_flight", &self.in_flight.len())
            .field("retries", &self.stats.retries)
            .finish()
    }
}

impl Client {
    /// Connect to a [`NetServer`](super::NetServer) with no timeouts and no retry policy.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, WireError> {
        Self::connect_with(addr, ClientConfig::default())
    }

    /// Connect with explicit [`ClientConfig`] — timeouts and, when
    /// [`ClientConfig::retry`] is `Some`, self-healing.
    pub fn connect_with(addr: impl ToSocketAddrs, config: ClientConfig) -> Result<Self, WireError> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs().map_err(WireError::from)?.collect();
        if addrs.is_empty() {
            return Err(WireError::Io("address resolved to nothing".to_string()));
        }
        let peer = config.peer.clone().unwrap_or_else(|| addrs[0].to_string());
        let stream = Self::open_stream(&addrs, &config).map_err(|e| e.with_peer(&peer))?;
        let reader_stream = stream.try_clone().map_err(WireError::from)?;
        let rng = config.retry.as_ref().map_or(1, |p| p.seed | 1);
        Ok(Self {
            addrs,
            config,
            peer,
            reader: BufReader::new(reader_stream),
            writer: BufWriter::new(stream),
            next_id: 1,
            in_flight: VecDeque::new(),
            stats: ClientStats::default(),
            rng,
            last_delay: Duration::ZERO,
        })
    }

    /// This client's resilience counters so far.
    pub fn client_stats(&self) -> ClientStats {
        self.stats
    }

    /// The peer label stamped onto this client's transport errors
    /// ([`ClientConfig::peer`], defaulting to the connected address).
    pub fn peer(&self) -> &str {
        &self.peer
    }

    /// Open one TCP connection to the first answering resolved address,
    /// honoring the configured timeouts.
    fn open_stream(addrs: &[SocketAddr], config: &ClientConfig) -> Result<TcpStream, WireError> {
        let mut last: Option<WireError> = None;
        for addr in addrs {
            let attempt = match config.connect_timeout {
                Some(timeout) => TcpStream::connect_timeout(addr, timeout),
                None => TcpStream::connect(addr),
            };
            match attempt {
                Ok(stream) => {
                    let _ = stream.set_nodelay(true);
                    let _ = stream.set_read_timeout(config.read_timeout);
                    let _ = stream.set_write_timeout(config.write_timeout);
                    return Ok(stream);
                }
                Err(e) => last = Some(WireError::from(e)),
            }
        }
        Err(last.unwrap_or_else(|| WireError::Io("address resolved to nothing".to_string())))
    }

    /// Whether `e` is worth another attempt under the armed policy.
    fn should_retry(&self, e: &WireError, attempt: u32) -> bool {
        e.retryable()
            && self
                .config
                .retry
                .as_ref()
                .is_some_and(|p| attempt < p.max_retries)
    }

    /// Sleep before a retry: the server's hint when it gave one,
    /// decorrelated jitter otherwise, both capped at
    /// [`RetryPolicy::max_delay`].
    fn sleep_backoff(&mut self, hint: Option<Duration>) {
        let Some(policy) = self.config.retry.clone() else {
            return;
        };
        let delay = hint
            .unwrap_or_else(|| self.next_backoff(&policy))
            .min(policy.max_delay);
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
    }

    /// Next decorrelated-jitter delay: uniform in
    /// `base .. min(cap, 3 × previous)`.
    fn next_backoff(&mut self, policy: &RetryPolicy) -> Duration {
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let base = policy.base_delay.max(Duration::from_micros(100));
        let prev = self.last_delay.max(base);
        let span = (prev * 3).min(policy.max_delay.max(base));
        let spread = (span.as_nanos().saturating_sub(base.as_nanos()).max(1)) as u64;
        let delay = base + Duration::from_nanos(z % spread);
        self.last_delay = delay;
        delay
    }

    /// Reconnect and replay every in-flight batch, oldest first, under
    /// fresh frame ids. Sound because every serving operation is
    /// read-only: replaying a request cannot double-apply anything, and
    /// the responses are bit-identical to what the lost connection would
    /// have carried.
    fn reconnect_and_replay(&mut self) -> Result<(), WireError> {
        self.stats.reconnects += 1;
        let stream = Self::open_stream(&self.addrs, &self.config)?;
        let reader_stream = stream.try_clone().map_err(WireError::from)?;
        self.reader = BufReader::new(reader_stream);
        self.writer = BufWriter::new(stream);
        for entry in self.in_flight.iter_mut() {
            let id = self.next_id;
            self.next_id += 1;
            let payload = wire::encode_request_batch(&entry.2);
            wire::write_frame_vectored(&mut self.writer, FrameKind::Request, id, &payload)?;
            entry.0 = id;
        }
        self.writer.flush().map_err(WireError::from)?;
        Ok(())
    }

    /// Write one request frame and flush it, consuming a frame id.
    fn write_batch_frame(&mut self, requests: &[Request]) -> Result<u64, WireError> {
        let id = self.next_id;
        self.next_id += 1;
        let payload = wire::encode_request_batch(requests);
        wire::write_frame_vectored(&mut self.writer, FrameKind::Request, id, &payload)?;
        self.writer.flush().map_err(WireError::from)?;
        Ok(id)
    }

    /// Send one request batch and return its frame id without waiting
    /// for the response — the pipelining half of [`Client::batch`].
    /// With a retry policy armed, a retryable transport failure here
    /// reconnects (replaying older in-flight batches) and tries again.
    pub fn send(&mut self, requests: &[Request]) -> Result<u64, WireError> {
        let mut attempt = 0u32;
        loop {
            match self.write_batch_frame(requests) {
                Ok(id) => {
                    // Retain the requests only when a policy might need
                    // to replay them; the hot no-retry path keeps its
                    // old zero-copy bookkeeping.
                    let stored = if self.config.retry.is_some() {
                        requests.to_vec()
                    } else {
                        Vec::new()
                    };
                    self.in_flight.push_back((id, requests.len(), stored));
                    return Ok(id);
                }
                Err(e) if self.should_retry(&e, attempt) => {
                    attempt += 1;
                    self.stats.retries += 1;
                    self.sleep_backoff(None);
                    // A failed reconnect leaves the dead socket in
                    // place; the next write fails and spends another
                    // attempt until the budget runs out.
                    let _ = self.reconnect_and_replay();
                }
                Err(e) => return Err(e.with_peer(&self.peer)),
            }
        }
    }

    /// Receive the response batch for the oldest in-flight
    /// [`Client::send`], reassembling streamed responses transparently:
    /// the read loop accepts stream fragments (in sequence order, on the
    /// expected frame id) until the `FIN` fragment lands, and decodes
    /// the reassembled payload exactly as it would a single response
    /// frame. An error frame is honored even mid-stream; a connection
    /// close or stray response frame mid-stream is
    /// [`WireError::StreamTruncated`]; a response batch whose length
    /// differs from the request batch's is [`WireError::Malformed`]. With
    /// a retry policy armed, a retryable transport failure reconnects,
    /// replays every in-flight batch, and resumes waiting.
    pub fn recv(&mut self) -> Result<Vec<Result<Response, ServeError>>, WireError> {
        if self.in_flight.is_empty() {
            return Err(WireError::Malformed(
                "recv with no request in flight".to_string(),
            ));
        }
        let mut attempt = 0u32;
        loop {
            let &(expected, count, _) = self.in_flight.front().expect("checked above");
            let outcome = self.recv_batch_frame(expected).and_then(|responses| {
                if responses.len() == count {
                    Ok(responses)
                } else {
                    Err(WireError::Malformed(format!(
                        "{} responses to a {count}-request batch",
                        responses.len()
                    )))
                }
            });
            match outcome {
                Ok(responses) => {
                    self.in_flight.pop_front();
                    return Ok(responses);
                }
                Err(e) if self.should_retry(&e, attempt) => {
                    attempt += 1;
                    self.stats.retries += 1;
                    self.sleep_backoff(None);
                    let _ = self.reconnect_and_replay();
                }
                Err(e) => {
                    self.in_flight.pop_front();
                    return Err(e.with_peer(&self.peer));
                }
            }
        }
    }

    /// One attempt at reading the response batch for frame `expected`.
    fn recv_batch_frame(
        &mut self,
        expected: u64,
    ) -> Result<Vec<Result<Response, ServeError>>, WireError> {
        let mut reasm = wire::StreamReassembler::new();
        loop {
            let (header, payload) = match wire::read_frame(&mut self.reader) {
                Ok(frame) => frame,
                Err(WireError::ConnectionClosed { .. } | WireError::Truncated { .. })
                    if reasm.in_progress() =>
                {
                    return Err(WireError::StreamTruncated)
                }
                Err(e) => return Err(e),
            };
            match header.kind {
                FrameKind::Stream => {
                    if !reasm.in_progress() && header.id != expected {
                        return Err(WireError::IdMismatch {
                            expected,
                            got: header.id,
                        });
                    }
                    match reasm.push(&header, &payload)? {
                        Some(done) => return wire::decode_response_batch(&done),
                        None => continue,
                    }
                }
                FrameKind::Response => {
                    if reasm.in_progress() {
                        return Err(WireError::StreamTruncated);
                    }
                    if header.id != expected {
                        return Err(WireError::IdMismatch {
                            expected,
                            got: header.id,
                        });
                    }
                    return wire::decode_response_batch(&payload);
                }
                FrameKind::Error => {
                    return Err(WireError::Remote(wire::decode_error_payload(&payload)?))
                }
                FrameKind::Request => {
                    return Err(WireError::Malformed(
                        "server sent a request frame".to_string(),
                    ))
                }
            }
        }
    }

    /// Submit one batch and wait for its responses — the network twin of
    /// [`Server::handle_batch`](crate::Server::handle_batch). With a retry policy armed, responses
    /// carrying retryable errors ([`ServeError::retryable`] — shedding,
    /// internal failures, transient archive I/O) make the whole batch
    /// back off and resubmit, honoring the server's
    /// [`ServeError::Overloaded::retry_after_ms`] hint when present;
    /// read-only semantics make the resubmission safe and the eventual
    /// responses bit-identical.
    pub fn batch(
        &mut self,
        requests: &[Request],
    ) -> Result<Vec<Result<Response, ServeError>>, WireError> {
        let budget = self.config.retry.as_ref().map_or(0, |p| p.max_retries);
        let mut attempt = 0u32;
        loop {
            self.send(requests)?;
            let responses = self.recv()?;
            let needs_retry = responses
                .iter()
                .any(|r| matches!(r, Err(e) if e.retryable()));
            if !needs_retry || attempt >= budget {
                return Ok(responses);
            }
            attempt += 1;
            self.stats.retries += 1;
            let hint = responses
                .iter()
                .filter_map(|r| match r {
                    Err(ServeError::Overloaded { retry_after_ms }) => {
                        Some(Duration::from_millis(u64::from(*retry_after_ms)))
                    }
                    _ => None,
                })
                .max();
            self.sleep_backoff(hint);
        }
    }

    /// Submit one request and wait for its response. The outer error is
    /// the transport, the inner the request itself.
    pub fn request(
        &mut self,
        request: &Request,
    ) -> Result<Result<Response, ServeError>, WireError> {
        let mut responses = self.batch(std::slice::from_ref(request))?;
        Ok(responses.pop().expect("recv checks the response count"))
    }

    /// Fetch the server's serving counters over the wire.
    pub fn stats(&mut self) -> Result<ServeStats, WireError> {
        match self.request(&Request::Stats)? {
            Ok(Response::Stats(stats)) => Ok(stats),
            Ok(other) => Err(WireError::Malformed(format!(
                "stats request answered with {other:?}"
            ))),
            Err(e) => Err(WireError::Remote(e.to_string())),
        }
    }

    /// Evaluate one derived product server-side — the network twin of a
    /// [`Request::Product`] through [`Server::handle_batch`](crate::Server::handle_batch). The result
    /// is bit-identical to the in-process evaluation of the same
    /// descriptor.
    pub fn scenario(&mut self, descriptor: &ProductDescriptor) -> Result<ProductData, WireError> {
        match self.request(&Request::Product(descriptor.clone()))? {
            Ok(Response::Product(data)) => Ok(data),
            Ok(other) => Err(WireError::Malformed(format!(
                "product request answered with {other:?}"
            ))),
            Err(e) => Err(WireError::Remote(e.to_string())),
        }
    }

    /// Run a stochastic ensemble server-side: `spec.realizations`
    /// emulator runs with decorrelated per-realization seeds, returned
    /// as one raw [`ProductData`] block (the network twin of
    /// [`Request::Ensemble`]).
    pub fn ensemble(&mut self, spec: &ScenarioSpec) -> Result<ProductData, WireError> {
        match self.request(&Request::Ensemble(spec.clone()))? {
            Ok(Response::Product(data)) => Ok(data),
            Ok(other) => Err(WireError::Malformed(format!(
                "ensemble request answered with {other:?}"
            ))),
            Err(e) => Err(WireError::Remote(e.to_string())),
        }
    }
}
