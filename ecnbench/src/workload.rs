//! The four closed-loop workloads: their seeded inputs, set-up, request
//! batches, answer checks, and the client loop that drives them.

use crate::cpu;
use crate::stats::{self, Tally};
use crate::trace::Tracer;
use exaclim::climate::{SyntheticEra5, SyntheticEra5Config};
use exaclim::store::{ArchiveReader, ArchiveWriter, Codec, FieldMeta};
use exaclim::{ClimateEmulator, EmulatorConfig, TrainedEmulator};
use exaclim_serve::{
    CacheStats, Catalog, Client, ClientStats, NetConfig, NetServer, NetServerHandle, NetStats,
    Request, Response, Router, RouterConfig, RouterStats, ServeConfig, ServeError, ServeStats,
    Server, ShardSpec, SliceRequest, WireError,
};
use std::io::Cursor;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Catalog name of the served archive.
pub const ARCHIVE: &str = "a";
/// Catalog name of the served emulator.
pub const EMULATOR: &str = "em";
/// Band-limit of the served emulator.
pub const EMULATE_L: usize = 24;
/// Steps per `Emulate` call.
pub const EMULATE_T: usize = 64;
/// Daily steps of training data (two years).
const TRAIN_DAYS: usize = 730;
/// Band-limit of the slice archives' synthetic grid: 18 × 33 = 594 points.
const SLICE_GRID_L: usize = 16;
/// Time steps per archive chunk.
const CHUNK_T: usize = 16;
/// Slices per batch.
pub const BATCH: usize = 32;
/// Backend shards behind the router.
pub const SHARDS: usize = 2;
/// Equal sub-windows of a closed loop; rates and CPU cost are the median
/// over them, so a host stall shorter than half the loop moves neither.
pub const WINDOWS: usize = 10;
/// Span name of one timed client call.
pub const CALL_SPAN: &str = "net.client_batch";
/// Warm-up calls per client at the end of set-up.
const WARMUP_CALLS: u64 = 2;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One client, `Emulate { t_max: 64 }` with a fresh seed per call.
    Emulate,
    /// Two clients, 32 × 48-step slices from a primed, cache-resident archive.
    SlicesHot,
    /// Two clients, 32 × 4-step slices over an archive ≥ 4× the cache budget.
    SlicesCold,
    /// Two clients, the hot batch shape over 8 members through a router.
    SlicesRouted,
}

/// Archive and cache shape of a workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Field members in the archive.
    pub members: usize,
    /// Time steps per member.
    pub t_max: usize,
    /// Steps per requested slice (0: the workload requests no slices).
    pub slice_t: u64,
    /// Chunk-cache budget of each server.
    pub cache_bytes: usize,
}

impl Kind {
    /// Every workload, in report order.
    pub const ALL: [Kind; 4] = [
        Kind::Emulate,
        Kind::SlicesHot,
        Kind::SlicesCold,
        Kind::SlicesRouted,
    ];

    /// The workload named `name`.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Emulate => "emulate",
            Kind::SlicesHot => "slices_hot",
            Kind::SlicesCold => "slices_cold",
            Kind::SlicesRouted => "slices_routed",
        }
    }

    /// Closed-loop clients: at most the core count of the reference host (2).
    pub fn clients(self) -> usize {
        match self {
            Kind::Emulate => 1,
            _ => 2,
        }
    }

    /// Whether clients talk to a router front end.
    pub fn routed(self) -> bool {
        self == Kind::SlicesRouted
    }

    /// Archive and cache shape.
    pub fn shape(self) -> Shape {
        let default_cache = ServeConfig::default().cache_bytes;
        match self {
            // The training data, served beside the emulator trained on it.
            Kind::Emulate => Shape {
                members: 1,
                t_max: TRAIN_DAYS,
                slice_t: 0,
                cache_bytes: default_cache,
            },
            Kind::SlicesHot => Shape {
                members: 1,
                t_max: 512,
                slice_t: 48,
                cache_bytes: default_cache,
            },
            // 8 × 512 steps × 594 points × 8 B ≈ 18.6 MiB decoded: 4.6× the budget.
            Kind::SlicesCold => Shape {
                members: 8,
                t_max: 512,
                slice_t: 4,
                cache_bytes: 4 << 20,
            },
            Kind::SlicesRouted => Shape {
                members: 8,
                t_max: 256,
                slice_t: 48,
                cache_bytes: default_cache,
            },
        }
    }
}

/// Member name of field member `m`.
pub fn member_name(m: usize) -> String {
    format!("m{m}")
}

/// SplitMix64: every seeded draw of the benchmark.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A value derived from the run seed and a path of indices.
pub fn derive(seed: u64, path: &[u64]) -> u64 {
    path.iter().fold(mix(seed), |acc, &p| mix(acc ^ p))
}

/// Inputs made from the seed before set-up starts: the simulated model
/// output the archive stores (and the emulator trains on).
pub struct Inputs {
    /// Workload.
    pub kind: Kind,
    /// Run seed.
    pub seed: u64,
    /// Grid and calendar of every member.
    pub meta: FieldMeta,
    /// Values per time slice.
    pub npoints: usize,
    /// Member fields, time-major.
    pub members: Vec<Vec<f64>>,
}

/// Generate a workload's inputs from the seed.
pub fn make_inputs(kind: Kind, seed: u64) -> Inputs {
    let shape = kind.shape();
    let grid_l = if kind == Kind::Emulate {
        EMULATE_L
    } else {
        SLICE_GRID_L
    };
    let mut config = SyntheticEra5Config::small_daily(grid_l);
    config.seed = derive(seed, &[0]);
    let generator = SyntheticEra5::new(config);
    let sets: Vec<_> = (0..shape.members as u64)
        .map(|m| generator.generate_member(m, shape.t_max))
        .collect();
    let first = &sets[0];
    Inputs {
        kind,
        seed,
        meta: FieldMeta {
            ntheta: first.ntheta,
            nphi: first.nphi,
            start_year: first.start_year,
            tau: first.tau,
        },
        npoints: first.npoints,
        members: sets.into_iter().map(|d| d.data).collect(),
    }
}

impl Inputs {
    /// The member data as a training dataset.
    pub fn dataset(&self, m: usize) -> exaclim::climate::Dataset {
        exaclim::climate::Dataset {
            data: self.members[m].clone(),
            t_max: self.kind.shape().t_max,
            npoints: self.npoints,
            ntheta: self.meta.ntheta,
            nphi: self.meta.nphi,
            start_year: self.meta.start_year,
            tau: self.meta.tau,
        }
    }

    /// Decoded bytes of the whole archive over the chunk-cache budget.
    pub fn working_set_ratio(&self) -> f64 {
        let shape = self.kind.shape();
        let bytes = shape.members * shape.t_max * self.npoints * 8;
        bytes as f64 / shape.cache_bytes as f64
    }

    /// Batch number `idx` of client `client`: seeded offsets and members,
    /// or a fresh emulate seed.
    pub fn batch(&self, client: usize, idx: u64) -> Vec<Request> {
        let base = derive(self.seed, &[1, client as u64, idx]);
        if self.kind == Kind::Emulate {
            return vec![Request::Emulate {
                emulator: EMULATOR.to_string(),
                t_max: EMULATE_T,
                seed: base,
            }];
        }
        let shape = self.kind.shape();
        let starts = shape.t_max as u64 - shape.slice_t + 1;
        (0..BATCH as u64)
            .map(|i| {
                let r = mix(base ^ i);
                let member = (r >> 40) as usize % shape.members;
                let t0 = (r & 0xFF_FFFF) % starts;
                Request::Slice(SliceRequest {
                    archive: ARCHIVE.to_string(),
                    member: member_name(member),
                    range: t0..t0 + shape.slice_t,
                })
            })
            .collect()
    }
}

/// Encode the inputs as an ECA1 archive (the store's write path).
pub fn write_archive(inputs: &Inputs) -> Vec<u8> {
    let mut w = ArchiveWriter::new(Cursor::new(Vec::new())).expect("in-memory archive opens");
    for (m, data) in inputs.members.iter().enumerate() {
        w.add_field(
            &member_name(m),
            Codec::F32Shuffle,
            inputs.meta,
            inputs.npoints,
            CHUNK_T,
            data,
        )
        .expect("in-memory archive accepts the member");
    }
    w.finish()
        .expect("in-memory archive finishes")
        .0
        .into_inner()
}

/// Train the served emulator on member 0 of an emulate workload's inputs.
pub fn train(inputs: &Inputs) -> TrainedEmulator {
    ClimateEmulator::train(&inputs.dataset(0), EmulatorConfig::small(EMULATE_L))
        .expect("training succeeds on the synthetic data")
}

/// What the servers serve: the archive and, for `emulate`, the emulator.
pub struct Content {
    /// ECA1 bytes.
    pub archive: Vec<u8>,
    /// Trained emulator, registered as [`EMULATOR`].
    pub emulator: Option<TrainedEmulator>,
    /// Chunk-cache budget.
    pub cache_bytes: usize,
}

impl Content {
    /// A fresh in-process server over this content, its cache primed
    /// with every chunk (the cold workload's budget keeps only the last).
    pub fn server(&self, inputs: &Inputs) -> Arc<Server> {
        let mut catalog = Catalog::new();
        catalog
            .open_archive_bytes(ARCHIVE, self.archive.clone())
            .expect("archive opens");
        if let Some(em) = &self.emulator {
            catalog
                .register_emulator(EMULATOR, em.clone())
                .expect("emulator registers");
        }
        let server = Arc::new(Server::new(
            catalog,
            ServeConfig {
                cache_bytes: self.cache_bytes,
                ..ServeConfig::default()
            },
        ));
        if inputs.kind != Kind::Emulate {
            let t_max = inputs.kind.shape().t_max as u64;
            let all: Vec<Request> = (0..inputs.members.len())
                .map(|m| {
                    Request::Slice(SliceRequest {
                        archive: ARCHIVE.to_string(),
                        member: member_name(m),
                        range: 0..t_max,
                    })
                })
                .collect();
            for r in server.handle_batch(&all) {
                r.expect("priming read succeeds");
            }
        }
        server
    }
}

/// A router front end over [`SHARDS`] warm backend servers.
pub struct Cluster {
    /// Backend servers (each serves the whole content).
    pub servers: Vec<Arc<Server>>,
    /// Backend network front ends.
    pub shards: Vec<NetServerHandle>,
    /// The router, with the default [`RouterConfig`].
    pub router: Arc<Router>,
    /// The router's network front end.
    pub front: NetServerHandle,
}

impl Cluster {
    /// Start the shards, connect the router, and bind its front end.
    pub fn start(content: &Content, inputs: &Inputs) -> Cluster {
        let servers: Vec<Arc<Server>> = (0..SHARDS).map(|_| content.server(inputs)).collect();
        let shards: Vec<NetServerHandle> = servers.iter().map(|s| bind(Arc::clone(s))).collect();
        let specs = shards
            .iter()
            .enumerate()
            .map(|(i, h)| ShardSpec::numbered(i, h.addr()))
            .collect();
        let router =
            Arc::new(Router::connect(specs, RouterConfig::default()).expect("router connects"));
        let front =
            NetServer::bind_router("127.0.0.1:0", Arc::clone(&router), NetConfig::default())
                .expect("router front binds")
                .spawn();
        Cluster {
            servers,
            shards,
            router,
            front,
        }
    }

    /// Stop the front end, then the shards.
    pub fn shutdown(self) {
        self.front.shutdown();
        for s in self.shards {
            s.shutdown();
        }
    }

    /// Transport counters of every shard.
    pub fn shard_stats(&self) -> Vec<NetStats> {
        self.shards.iter().map(|s| s.net_stats()).collect()
    }
}

fn bind(server: Arc<Server>) -> NetServerHandle {
    NetServer::bind("127.0.0.1:0", server, NetConfig::default())
        .expect("loopback bind")
        .spawn()
}

/// How clients reach the system.
pub enum Front {
    /// One server behind one network front end.
    Direct {
        /// The in-process server.
        server: Arc<Server>,
        /// Its network front end.
        handle: NetServerHandle,
    },
    /// A router over [`SHARDS`] backends.
    Routed(Cluster),
}

/// A system ready for the timed window.
pub struct System {
    /// What is served.
    pub content: Content,
    /// The front end.
    pub front: Front,
    /// Connected, warmed-up clients.
    pub clients: Vec<Client>,
    /// Seconds spent training the emulator (0 for slice workloads).
    pub train_s: f64,
}

impl System {
    /// Address the clients talk to.
    pub fn addr(&self) -> SocketAddr {
        match &self.front {
            Front::Direct { handle, .. } => handle.addr(),
            Front::Routed(c) => c.front.addr(),
        }
    }

    /// A server holding the whole content (the shard 0 server when routed).
    pub fn server(&self) -> &Arc<Server> {
        match &self.front {
            Front::Direct { server, .. } => server,
            Front::Routed(c) => &c.servers[0],
        }
    }

    /// Every in-process server.
    pub fn servers(&self) -> Vec<&Arc<Server>> {
        match &self.front {
            Front::Direct { server, .. } => vec![server],
            Front::Routed(c) => c.servers.iter().collect(),
        }
    }

    /// Counters now.
    pub fn counters(&self) -> Counters {
        let mut serve = ServeStats::default();
        let mut cache = CacheStats::default();
        for s in self.servers() {
            let st = s.stats();
            serve.chunk_touches += st.chunk_touches;
            serve.chunk_fetches += st.chunk_fetches;
            serve.chunk_decodes += st.chunk_decodes;
            let c = s.cache_stats();
            cache.hits += c.hits;
            cache.misses += c.misses;
            cache.evictions += c.evictions;
            cache.flight_waits += c.flight_waits;
        }
        let (front, shards, router) = match &self.front {
            Front::Direct { handle, .. } => (handle.net_stats(), Vec::new(), None),
            Front::Routed(c) => (
                c.front.net_stats(),
                c.shard_stats(),
                Some(c.router.router_stats()),
            ),
        };
        Counters {
            serve,
            cache,
            front,
            shards,
            router,
        }
    }

    /// Drop the clients and stop every server thread.
    pub fn shutdown(self) {
        drop(self.clients);
        match self.front {
            Front::Direct { handle, .. } => handle.shutdown(),
            Front::Routed(c) => c.shutdown(),
        }
    }
}

/// Build, train, bind, prime and warm up: everything before the first
/// timed call.
pub fn setup(inputs: &Inputs) -> System {
    let archive = write_archive(inputs);
    let t = Instant::now();
    let emulator = (inputs.kind == Kind::Emulate).then(|| train(inputs));
    let train_s = if emulator.is_some() {
        t.elapsed().as_secs_f64()
    } else {
        0.0
    };
    let content = Content {
        archive,
        emulator,
        cache_bytes: inputs.kind.shape().cache_bytes,
    };
    let front = if inputs.kind.routed() {
        Front::Routed(Cluster::start(&content, inputs))
    } else {
        let server = content.server(inputs);
        Front::Direct {
            handle: bind(Arc::clone(&server)),
            server,
        }
    };
    let mut system = System {
        content,
        front,
        clients: Vec::new(),
        train_s,
    };
    let addr = system.addr();
    for c in 0..inputs.kind.clients() {
        let mut client = Client::connect(addr).expect("client connects");
        for i in 0..WARMUP_CALLS {
            let batch = inputs.batch(c, u64::MAX - i);
            for r in client.batch(&batch).expect("warm-up call succeeds") {
                r.expect("warm-up request succeeds");
            }
        }
        system.clients.push(client);
    }
    system
}

/// Counter snapshot of a system.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    /// Summed over servers (chunk fields only).
    pub serve: ServeStats,
    /// Summed over servers (hit, miss, eviction and wait fields only).
    pub cache: CacheStats,
    /// The client-facing front end.
    pub front: NetStats,
    /// Backend shards (routed only).
    pub shards: Vec<NetStats>,
    /// Router (routed only).
    pub router: Option<RouterStats>,
}

/// What changed between two snapshots.
#[derive(Debug, Clone, Copy, Default)]
pub struct Window {
    /// Chunk touches before coalescing.
    pub chunk_touches: u64,
    /// Chunks resolved after coalescing.
    pub chunk_fetches: u64,
    /// Chunks read and decoded from the archive.
    pub chunk_decodes: u64,
    /// Cache hits.
    pub hits: u64,
    /// Cache misses.
    pub misses: u64,
    /// Cache evictions.
    pub evictions: u64,
    /// Single-flight waits.
    pub flight_waits: u64,
    /// Bytes the front end wrote.
    pub bytes_out: u64,
    /// Frames the front end wrote.
    pub frames_out: u64,
    /// Stream fragments the front end wrote.
    pub stream_frames_out: u64,
    /// Front-end reactor wake-ups.
    pub reactor_wakeups: u64,
    /// Wire errors on the front end and shards.
    pub wire_errors: u64,
    /// Requests shed by the front end and shards.
    pub shed: u64,
    /// Request frames the shards received (router sub-batches).
    pub shard_frames_in: u64,
    /// Requests the router routed.
    pub routed: u64,
    /// Router failovers.
    pub failovers: u64,
}

impl Counters {
    /// `self − before`.
    pub fn since(&self, before: &Counters) -> Window {
        let shards = |c: &Counters, f: fn(&NetStats) -> u64| c.shards.iter().map(f).sum::<u64>();
        let router = |c: &Counters| c.router.unwrap_or_default();
        Window {
            chunk_touches: self.serve.chunk_touches - before.serve.chunk_touches,
            chunk_fetches: self.serve.chunk_fetches - before.serve.chunk_fetches,
            chunk_decodes: self.serve.chunk_decodes - before.serve.chunk_decodes,
            hits: self.cache.hits - before.cache.hits,
            misses: self.cache.misses - before.cache.misses,
            evictions: self.cache.evictions - before.cache.evictions,
            flight_waits: self.cache.flight_waits - before.cache.flight_waits,
            bytes_out: self.front.bytes_out - before.front.bytes_out,
            frames_out: self.front.frames_out - before.front.frames_out,
            stream_frames_out: self.front.stream_frames_out - before.front.stream_frames_out,
            reactor_wakeups: self.front.reactor_wakeups - before.front.reactor_wakeups,
            wire_errors: self.front.wire_errors + shards(self, |s| s.wire_errors)
                - before.front.wire_errors
                - shards(before, |s| s.wire_errors),
            shed: self.front.shed + shards(self, |s| s.shed)
                - before.front.shed
                - shards(before, |s| s.shed),
            shard_frames_in: shards(self, |s| s.frames_in) - shards(before, |s| s.frames_in),
            routed: router(self).routed - router(before).routed,
            failovers: router(self).failovers - router(before).failovers,
        }
    }
}

/// Ground truth for answer checks: every member decoded by a sequential
/// [`ArchiveReader`] pass over the archive.
pub struct Reference {
    members: Vec<Vec<f64>>,
    npoints: usize,
}

impl Reference {
    /// Decode every member of `archive` sequentially.
    pub fn build(inputs: &Inputs, archive: &[u8]) -> Reference {
        let mut reader = ArchiveReader::new(Cursor::new(archive)).expect("archive parses");
        let members = (0..inputs.members.len())
            .map(|m| {
                reader
                    .read_field_all(&member_name(m))
                    .expect("sequential read succeeds")
            })
            .collect();
        Reference {
            members,
            npoints: inputs.npoints,
        }
    }
}

/// FNV-1a over the bit patterns of `values`.
pub fn fingerprint(values: &[f64]) -> u64 {
    values.iter().fold(0xCBF2_9CE4_8422_2325, |h, v| {
        (h ^ v.to_bits()).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// A call's answers that passed the on-line checks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Verified {
    /// Requests answered.
    pub requests: u64,
    /// Payload bytes answered (values × 8).
    pub bytes: u64,
    /// `(seed, fingerprint)` of an emulation still to compare with an
    /// in-process run after the timed window.
    pub pending: Option<(u64, u64)>,
}

/// Check one call's answers: slices bit-for-bit against the reference,
/// emulations by shape now and by fingerprint later.
pub fn verify(
    reference: &Reference,
    batch: &[Request],
    answers: &[Result<Response, ServeError>],
) -> Result<Verified, String> {
    if answers.len() != batch.len() {
        return Err(format!(
            "{} answers to {} requests",
            answers.len(),
            batch.len()
        ));
    }
    let mut out = Verified::default();
    for (request, answer) in batch.iter().zip(answers) {
        let answer = answer
            .as_ref()
            .map_err(|e| format!("request failed: {e}"))?;
        match (request, answer) {
            (Request::Slice(s), Response::Slice(d)) => {
                let m: usize = s.member[1..].parse().expect("member names are m<N>");
                let vps = reference.npoints;
                let want =
                    &reference.members[m][s.range.start as usize * vps..s.range.end as usize * vps];
                let same = d.archive == s.archive
                    && d.member == s.member
                    && d.range == s.range
                    && d.values_per_slice == vps as u64
                    && d.values.len() == want.len()
                    && d.values
                        .iter()
                        .zip(want)
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                if !same {
                    return Err(format!(
                        "slice {}[{:?}] differs from the sequential read",
                        s.member, s.range
                    ));
                }
                out.bytes += d.values.len() as u64 * 8;
            }
            (Request::Emulate { t_max, seed, .. }, Response::Emulate(ds)) => {
                if ds.t_max != *t_max || ds.data.len() != t_max * ds.npoints {
                    return Err(format!("emulation {seed} has the wrong shape"));
                }
                out.bytes += ds.data.len() as u64 * 8;
                out.pending = Some((*seed, fingerprint(&ds.data)));
            }
            _ => return Err("answer of the wrong kind".to_string()),
        }
        out.requests += 1;
    }
    Ok(out)
}

/// One timed client call.
#[derive(Debug, Clone)]
pub struct CallRecord {
    /// Client index.
    pub client: usize,
    /// Batch index within the client's sequence.
    pub idx: u64,
    /// Latency in milliseconds.
    pub ms: f64,
    /// CPU seconds the whole process had used since the loop started,
    /// read when the answer arrived.
    pub cpu_end_s: f64,
    /// CPU seconds the client thread then spent checking the answers.
    pub check_cpu_s: f64,
    /// When the answer arrived, in seconds since the loop started.
    pub end_s: f64,
    /// Checked answers, or why the call failed.
    pub outcome: Result<Verified, String>,
    /// The call's root span (traced loops only).
    pub span: Option<(u64, u64)>,
}

/// Result of one closed loop.
pub struct LoopResult {
    /// Every call, grouped by client.
    pub calls: Vec<CallRecord>,
    /// From the first send to the last answer.
    pub elapsed_s: f64,
    /// Summed client retry counters.
    pub client: ClientStats,
}

impl LoopResult {
    /// Latencies of every call, ascending.
    pub fn sorted_ms(&self) -> Vec<f64> {
        let mut v: Vec<f64> = self.calls.iter().map(|c| c.ms).collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Outcome counts (emulations not yet compared count as passed).
    pub fn tally(&self) -> Tally {
        let mut t = Tally::default();
        for c in &self.calls {
            t.record(c.outcome.is_ok());
        }
        t
    }

    /// The loop's calls as [`stats::Stamp`]s: verified work, CPU and
    /// answer-check CPU per answer.
    fn stamps(&self) -> Vec<stats::Stamp> {
        self.calls
            .iter()
            .map(|c| {
                let v = c.outcome.as_ref().ok();
                stats::Stamp {
                    end_s: c.end_s,
                    cpu_end_s: c.cpu_end_s,
                    check_cpu_s: c.check_cpu_s,
                    requests: v.map_or(0, |v| v.requests),
                    bytes: v.map_or(0, |v| v.bytes),
                }
            })
            .collect()
    }

    /// Verified requests and payload bytes per second: the median over
    /// [`WINDOWS`] equal sub-windows of the loop.
    pub fn rates(&self) -> (f64, f64) {
        stats::windowed_rates(&self.stamps(), self.elapsed_s, WINDOWS)
    }

    /// CPU milliseconds the system used per verified request, the median
    /// over [`WINDOWS`] sub-windows of the process's CPU time less the
    /// benchmark's own answer checks. Clients, transport, server and
    /// emulator all count; time spent waiting for a core does not.
    pub fn cpu_ms_per_req(&self) -> f64 {
        stats::windowed_cpu_ms_per_req(&self.stamps(), self.elapsed_s, WINDOWS)
    }

    /// Requests sent.
    pub fn requests_sent(&self, inputs: &Inputs) -> u64 {
        self.calls
            .iter()
            .map(|c| inputs.batch(c.client, c.idx).len() as u64)
            .sum()
    }

    /// The first failure, for the report.
    pub fn first_error(&self) -> Option<&str> {
        self.calls
            .iter()
            .find_map(|c| c.outcome.as_ref().err().map(String::as_str))
    }
}

/// Drive `clients` in a closed loop against `addr` for `seconds`: each
/// client sends its next batch only after the previous answer arrived
/// and was checked. Batch indices start at `first_idx`.
pub fn closed_loop(
    inputs: &Inputs,
    reference: &Reference,
    addr: SocketAddr,
    clients: &mut [Client],
    seconds: f64,
    first_idx: u64,
    tracer: Option<&Tracer>,
) -> LoopResult {
    let cpu_start = cpu::process_s();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let per_client: Vec<(Vec<CallRecord>, Instant, ClientStats)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                scope.spawn(move || {
                    let mut calls = Vec::new();
                    let mut idx = first_idx;
                    let mut reconnect_error: Option<WireError> = None;
                    while Instant::now() < deadline {
                        let batch = inputs.batch(c, idx);
                        let call = tracer.map(Tracer::call);
                        let t0 = Instant::now();
                        let answer = client.batch(&batch);
                        let t1 = Instant::now();
                        let cpu_end_s = cpu::process_s() - cpu_start;
                        let mut check_cpu_s = 0.0;
                        let span = tracer
                            .zip(call)
                            .map(|(tr, call)| (tr.record(CALL_SPAN, call, None, t0, t1), call));
                        let outcome = match answer {
                            Ok(answers) => {
                                let c0 = cpu::thread_s();
                                let checked = verify(reference, &batch, &answers);
                                check_cpu_s = cpu::thread_s() - c0;
                                checked
                            }
                            Err(e) => {
                                // A broken connection is replaced so one
                                // transport failure does not fail every
                                // later call of this client.
                                match Client::connect(addr) {
                                    Ok(fresh) => *client = fresh,
                                    Err(e2) => {
                                        reconnect_error = Some(e2);
                                        std::thread::sleep(Duration::from_millis(10));
                                    }
                                }
                                Err(format!("transport: {e}"))
                            }
                        };
                        calls.push(CallRecord {
                            client: c,
                            idx,
                            ms: (t1 - t0).as_secs_f64() * 1e3,
                            cpu_end_s,
                            check_cpu_s,
                            end_s: (t1 - start).as_secs_f64(),
                            outcome,
                            span,
                        });
                        idx += 1;
                    }
                    if let Some(e) = reconnect_error {
                        eprintln!("client {c}: reconnect failed: {e}");
                    }
                    (calls, Instant::now(), client.client_stats())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let end = per_client
        .iter()
        .map(|(_, end, _)| *end)
        .max()
        .unwrap_or(start);
    let mut client = ClientStats::default();
    for (_, _, s) in &per_client {
        client.retries += s.retries;
        client.reconnects += s.reconnects;
    }
    LoopResult {
        calls: per_client.into_iter().flat_map(|(c, _, _)| c).collect(),
        elapsed_s: (end - start).as_secs_f64(),
        client,
    }
}

/// Compare each pending emulation with an in-process run of the same
/// seed, and fail every call whose answer differs.
pub fn check_emulations(emulator: &TrainedEmulator, result: &mut LoopResult) {
    for call in &mut result.calls {
        let Some((seed, fp)) = call.outcome.as_ref().ok().and_then(|v| v.pending) else {
            continue;
        };
        let local = emulator
            .emulate(EMULATE_T, seed)
            .expect("in-process emulation succeeds");
        if fingerprint(&local.data) != fp {
            call.outcome = Err(format!(
                "emulation {seed} differs from an in-process run of the same seed"
            ));
        }
    }
}

/// Connect `n` fresh clients to `addr`.
pub fn connect(addr: SocketAddr, n: usize) -> Vec<Client> {
    (0..n)
        .map(|_| Client::connect(addr).expect("client connects"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_are_a_function_of_the_seed() {
        let inputs = Inputs {
            kind: Kind::SlicesCold,
            seed: 7,
            meta: FieldMeta::default(),
            npoints: 1,
            members: vec![Vec::new(); 8],
        };
        assert_eq!(inputs.batch(1, 3), inputs.batch(1, 3));
        assert_ne!(inputs.batch(1, 3), inputs.batch(0, 3));
        let shape = Kind::SlicesCold.shape();
        for r in inputs.batch(0, 0) {
            let Request::Slice(s) = r else { panic!() };
            assert!(s.range.end <= shape.t_max as u64);
            assert_eq!(s.range.end - s.range.start, shape.slice_t);
        }
    }

    #[test]
    fn cold_working_set_is_at_least_four_caches() {
        let shape = Kind::SlicesCold.shape();
        let bytes = shape.members * shape.t_max * 18 * 33 * 8;
        assert!(bytes >= 4 * shape.cache_bytes);
    }
}
