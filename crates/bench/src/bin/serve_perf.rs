//! Serving-path performance report: multi-threaded cold/warm slice reads
//! over the mutexed (buffered-file) and zero-copy (mmap) byte-source
//! backends, a scenario-engine workload (ensemble fan-out + derived
//! statistics through the product cache), plus a hot-chunk stampede
//! showing single-flight dedup.
//!
//! ```text
//! cargo run --release -p exaclim-bench --bin serve_perf [-- --json]
//! ```
//!
//! With `--json`, machine-readable results land in `BENCH_serve.json` in
//! the current directory, so the serving layer's perf trajectory is
//! recorded PR over PR. Knobs: `--threads N` (client threads, default 8),
//! `--batches N` (batches per thread, default 24), `--idle N` (standing
//! keep-alive connections in the `serve_net_idle` scenario, default 300),
//! `--shards N` (backend shards behind the `serve_cluster` router
//! scenario, default 4; 1/2/4-shard scaling is always recorded).

use exaclim::{ClimateEmulator, EmulatorConfig};
use exaclim_climate::{SyntheticEra5, SyntheticEra5Config};
use exaclim_cluster::{simulate_placement, Machine, MachineSpec, PlacementConfig, PlacementReport};
use exaclim_runtime::{faults, FaultAction, FaultPlan};
use exaclim_serve::{
    assign_primaries, Catalog, Client, ClientConfig, NetConfig, NetServer, ProductDescriptor,
    ProductSource, ProductStat, Request, Response, RetryPolicy, Router, RouterConfig, RouterStats,
    ScenarioSpec, ServeConfig, Server, ShardSpec, SliceRequest,
};
use exaclim_store::{open_file_source, ArchiveWriter, Codec, FieldMeta};
use std::io::Cursor;
use std::sync::Arc;
use std::time::{Duration, Instant};

const T_MAX: usize = 256;
const CHUNK_T: usize = 16;
const SLICE_T: u64 = 48;
const BATCH: usize = 32;

/// Scenario-engine workload shape: ensemble size and horizon per request.
const ENS_T: u64 = 64;
const ENS_R: u32 = 4;

/// One measured scenario.
struct Scenario {
    name: &'static str,
    backend: &'static str,
    threads: usize,
    batches_per_thread: usize,
    elapsed_s: f64,
    served_mib: f64,
    requests: u64,
    p50_us: f64,
    p95_us: f64,
}

impl Scenario {
    fn mib_per_s(&self) -> f64 {
        self.served_mib / self.elapsed_s
    }
    fn req_per_s(&self) -> f64 {
        self.requests as f64 / self.elapsed_s
    }
}

fn build_archive_file(path: &std::path::Path) -> (u64, usize) {
    let generator = SyntheticEra5::new(SyntheticEra5Config::small_daily(16));
    let data = generator.generate_member(0, T_MAX);
    let meta = FieldMeta {
        ntheta: data.ntheta,
        nphi: data.nphi,
        start_year: data.start_year,
        tau: data.tau,
    };
    let mut w = ArchiveWriter::new(Cursor::new(Vec::new())).unwrap();
    w.add_field(
        "t2m",
        Codec::F32Shuffle,
        meta,
        data.npoints,
        CHUNK_T,
        &data.data,
    )
    .unwrap();
    let (cursor, total) = w.finish().unwrap();
    std::fs::write(path, cursor.into_inner()).unwrap();
    (total, data.npoints)
}

/// Streaming-path counters captured from the hot `serve_net` scenario:
/// how many responses went out as CRC-checked stream fragments, the
/// fragment count, the per-connection owned-bytes high-water mark, and
/// the frames-per-response histogram (buckets 1, 2, 3–4, 5–8, 9–16,
/// 17–32, 33–64, 65+).
struct StreamCounters {
    streamed_responses: u64,
    stream_frames_out: u64,
    peak_conn_buffered_bytes: u64,
    frames_per_response: [u64; 8],
}

/// Drive the same workload as [`run_scenario`], but through the framed-TCP
/// wire over loopback: one reused connection per client thread.
fn run_net_scenario(
    server: Arc<Server>,
    threads: usize,
    batches_per_thread: usize,
    npoints: usize,
) -> (Scenario, StreamCounters) {
    let handle = NetServer::bind("127.0.0.1:0", server, NetConfig::default())
        .unwrap()
        .spawn();
    let addr = handle.addr();
    let start = Instant::now();
    let mut latencies: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads as u64)
            .map(|t| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    let batch = slice_batch(t);
                    let mut lat = Vec::with_capacity(batches_per_thread);
                    for _ in 0..batches_per_thread {
                        let t0 = Instant::now();
                        let responses = client.batch(&batch).unwrap();
                        lat.push(t0.elapsed().as_secs_f64() * 1e6);
                        for r in &responses {
                            assert!(matches!(r, Ok(Response::Slice(_))));
                        }
                    }
                    lat
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    let elapsed_s = start.elapsed().as_secs_f64();
    let stats = handle.net_stats();
    let streaming = StreamCounters {
        streamed_responses: stats.streamed_responses,
        stream_frames_out: stats.stream_frames_out,
        peak_conn_buffered_bytes: stats.peak_conn_buffered_bytes,
        frames_per_response: stats.frames_per_response,
    };
    handle.shutdown();
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let pct = |p: f64| latencies[((latencies.len() - 1) as f64 * p) as usize];
    let requests = (threads * batches_per_thread * BATCH) as u64;
    let served_mib = requests as f64 * SLICE_T as f64 * npoints as f64 * 8.0 / (1 << 20) as f64;
    (
        Scenario {
            name: "serve_net",
            backend: "mmap",
            threads,
            batches_per_thread,
            elapsed_s,
            served_mib,
            requests,
            p50_us: pct(0.50),
            p95_us: pct(0.95),
        },
        streaming,
    )
}

/// Connection-level gauges captured from the `serve_net_idle` scenario:
/// what a standing keep-alive fleet costs and how the reaper handles it.
struct NetCounters {
    open_connections: u64,
    peak_connections: u64,
    reactor_wakeups: u64,
    reaped_idle: u64,
}

/// The wire workload again, but with a fleet of idle keep-alive
/// connections standing alongside the hot clients — the "millions of
/// users" shape: most connections do nothing most of the time. Hot
/// throughput is measured with the fleet standing; then the server's
/// idle deadline reaps the fleet while the bench watches the gauges.
fn run_net_idle_scenario(
    server: Arc<Server>,
    threads: usize,
    batches_per_thread: usize,
    npoints: usize,
    idle_conns: usize,
) -> (Scenario, NetCounters) {
    let idle_timeout = Duration::from_millis(750);
    let config = NetConfig {
        max_connections: (idle_conns + threads + 16).max(1024),
        idle_timeout: Some(idle_timeout),
        ..NetConfig::default()
    };
    let handle = NetServer::bind("127.0.0.1:0", server, config)
        .unwrap()
        .spawn();
    let addr = handle.addr();
    let idle: Vec<Client> = (0..idle_conns)
        .map(|i| Client::connect(addr).unwrap_or_else(|e| panic!("idle connect {i}: {e}")))
        .collect();
    let start = Instant::now();
    let mut latencies: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads as u64)
            .map(|t| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    let batch = slice_batch(t);
                    let mut lat = Vec::with_capacity(batches_per_thread);
                    for _ in 0..batches_per_thread {
                        let t0 = Instant::now();
                        let responses = client.batch(&batch).unwrap();
                        lat.push(t0.elapsed().as_secs_f64() * 1e6);
                        for r in &responses {
                            assert!(matches!(r, Ok(Response::Slice(_))));
                        }
                    }
                    lat
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    let elapsed_s = start.elapsed().as_secs_f64();
    // The fleet sent nothing the whole run: give the idle deadline a
    // chance to reap all of it (bounded wait) so the artifact records
    // the reaper actually working, then count what's left.
    let reap_deadline = Instant::now() + Duration::from_secs(15);
    while handle.net_stats().reaped_idle < idle_conns as u64 && Instant::now() < reap_deadline {
        std::thread::sleep(Duration::from_millis(50));
    }
    let stats = handle.net_stats();
    let counters = NetCounters {
        open_connections: stats.open_connections,
        peak_connections: stats.peak_connections,
        reactor_wakeups: stats.reactor_wakeups,
        reaped_idle: stats.reaped_idle,
    };
    drop(idle);
    handle.shutdown();
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let pct = |p: f64| latencies[((latencies.len() - 1) as f64 * p) as usize];
    let requests = (threads * batches_per_thread * BATCH) as u64;
    let served_mib = requests as f64 * SLICE_T as f64 * npoints as f64 * 8.0 / (1 << 20) as f64;
    (
        Scenario {
            name: "serve_net_idle",
            backend: "mmap",
            threads,
            batches_per_thread,
            elapsed_s,
            served_mib,
            requests,
            p50_us: pct(0.50),
            p95_us: pct(0.95),
        },
        counters,
    )
}

/// Resilience counters recorded from the `serve_chaos` scenario: what
/// the seeded fault plan injected, how much work the saturated dispatch
/// queue shed, and what the self-healing clients spent absorbing it.
struct ChaosCounters {
    faults_injected: u64,
    shed: u64,
    client_retries: u64,
    client_reconnects: u64,
}

/// The wire workload under chaos: a deliberately starved dispatch path
/// (one worker, backlog cap of 1, every batch slowed by an injected
/// queue delay) plus seeded socket faults, driven by self-healing
/// clients. Throughput here is the *survivable* serve rate — every
/// response still checked — and the counters record the turbulence the
/// retry layer absorbed.
fn run_chaos_scenario(
    server: Arc<Server>,
    threads: usize,
    batches_per_thread: usize,
    npoints: usize,
) -> (Scenario, ChaosCounters) {
    let handle = NetServer::bind(
        "127.0.0.1:0",
        server,
        NetConfig {
            dispatch_threads: 1,
            max_dispatch_backlog: 1,
            shed_retry_after_ms: 2,
            ..NetConfig::default()
        },
    )
    .unwrap()
    .spawn();
    let addr = handle.addr();
    let injected_before = faults::injected();
    faults::install(
        FaultPlan::seeded(0xEC0C4A05)
            .rule("net.read", FaultAction::ShortRead, 0.02)
            .rule("net.read", FaultAction::Interrupt, 0.02)
            .rule("net.read", FaultAction::Reset, 0.005)
            .rule(
                "net.write",
                FaultAction::Delay(Duration::from_micros(100)),
                0.02,
            )
            .rule(
                "dispatch",
                FaultAction::Delay(Duration::from_micros(500)),
                1.0,
            ),
    );
    let start = Instant::now();
    let results: Vec<(Vec<f64>, u64, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads as u64)
            .map(|t| {
                scope.spawn(move || {
                    let mut client = Client::connect_with(
                        addr,
                        ClientConfig {
                            connect_timeout: Some(Duration::from_secs(5)),
                            read_timeout: Some(Duration::from_secs(5)),
                            write_timeout: Some(Duration::from_secs(5)),
                            retry: Some(RetryPolicy {
                                max_retries: 64,
                                base_delay: Duration::from_millis(1),
                                max_delay: Duration::from_millis(20),
                                seed: t,
                            }),
                            ..ClientConfig::default()
                        },
                    )
                    .unwrap();
                    let batch = slice_batch(t);
                    let mut lat = Vec::with_capacity(batches_per_thread);
                    for _ in 0..batches_per_thread {
                        let t0 = Instant::now();
                        let responses = client.batch(&batch).unwrap();
                        lat.push(t0.elapsed().as_secs_f64() * 1e6);
                        for r in &responses {
                            assert!(matches!(r, Ok(Response::Slice(_))));
                        }
                    }
                    let stats = client.client_stats();
                    (lat, stats.retries, stats.reconnects)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let elapsed_s = start.elapsed().as_secs_f64();
    let stats = handle.net_stats();
    let counters = ChaosCounters {
        faults_injected: faults::injected() - injected_before,
        shed: stats.shed,
        client_retries: results.iter().map(|(_, r, _)| r).sum(),
        client_reconnects: results.iter().map(|(_, _, r)| r).sum(),
    };
    faults::clear();
    handle.shutdown();
    let mut latencies: Vec<f64> = results.into_iter().flat_map(|(l, _, _)| l).collect();
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let pct = |p: f64| latencies[((latencies.len() - 1) as f64 * p) as usize];
    let requests = (threads * batches_per_thread * BATCH) as u64;
    let served_mib = requests as f64 * SLICE_T as f64 * npoints as f64 * 8.0 / (1 << 20) as f64;
    (
        Scenario {
            name: "serve_chaos",
            backend: "mmap",
            threads,
            batches_per_thread,
            elapsed_s,
            served_mib,
            requests,
            p50_us: pct(0.50),
            p95_us: pct(0.95),
        },
        counters,
    )
}

/// Members in the sharded-cluster archive: enough distinct routing keys
/// that a consistent-hash ring spreads the workload over every shard.
const CLUSTER_MEMBERS: usize = 64;
/// Grid points per step in the cluster archive (kept small: the cluster
/// scenario measures routing and scatter-gather, not decode).
const CLUSTER_VPS: usize = 64;

/// Router/cluster counters and the placement simulation's verdict on
/// the live ring, recorded from the `serve_cluster` scenario.
struct ClusterCounters {
    shards: usize,
    routed: u64,
    fanout_batches: u64,
    failovers: u64,
    sim_skew: f64,
    sim_fanout: f64,
    sim_speedup: f64,
    sim_efficiency: f64,
    /// Measured `(shards, mib_per_s)` at 1, 2, and 4 shards.
    scaling: Vec<(usize, f64)>,
}

/// An 8-member archive for the cluster scenario, so slice requests hash
/// to distinct `(archive, member)` ring keys.
fn cluster_archive_bytes() -> Vec<u8> {
    let meta = FieldMeta {
        ntheta: 8,
        nphi: 16,
        start_year: 2000,
        tau: 365,
    };
    let mut w = ArchiveWriter::new(Cursor::new(Vec::new())).unwrap();
    for m in 0..CLUSTER_MEMBERS {
        let phase = m as f64 * 0.7;
        let data: Vec<f64> = (0..CLUSTER_VPS * T_MAX)
            .map(|i| 260.0 + 25.0 * (i as f64 * 0.013 + phase).sin())
            .collect();
        w.add_field(
            &format!("m{m}"),
            Codec::F32Shuffle,
            meta,
            CLUSTER_VPS,
            CHUNK_T,
            &data,
        )
        .unwrap();
    }
    w.finish().unwrap().0.into_inner()
}

/// A batch of slices spread over the cluster archive's members, so the
/// router scatter-gathers nearly every batch.
fn cluster_slice_batch(thread: u64) -> Vec<Request> {
    (0..BATCH as u64)
        .map(|i| {
            let t0 = (thread * 13 + i * 7) % (T_MAX as u64 - SLICE_T);
            Request::Slice(SliceRequest {
                archive: "a".to_string(),
                member: format!("m{}", (thread + i * 3) % CLUSTER_MEMBERS as u64),
                range: t0..t0 + SLICE_T,
            })
        })
        .collect()
}

/// The placement simulation's verdict on the ring the router routes on:
/// each shard's primary-key count over the cluster archive's members
/// (default `RouterConfig` virtual nodes and seed), scored against the
/// Frontier machine model at the default replication with 64 KiB
/// responses and `BATCH`-request batches.
fn simulate_live_ring(labels: &[String]) -> PlacementReport {
    let config = RouterConfig::default();
    let keys: Vec<(String, String)> = (0..CLUSTER_MEMBERS)
        .map(|m| ("a".to_string(), format!("m{m}")))
        .collect();
    let mut shard_loads = vec![0.0; labels.len()];
    for shard in assign_primaries(labels, config.virtual_nodes, config.seed, &keys) {
        shard_loads[shard] += 1.0;
    }
    simulate_placement(
        &MachineSpec::of(Machine::Frontier),
        &PlacementConfig {
            shard_loads,
            replication: config.replication,
            avg_request_bytes: 64.0 * 1024.0,
            requests_per_batch: BATCH,
        },
    )
}

/// Drive the wire workload through a router-backed front end over
/// `shards` backend `NetServer`s (every shard opens the same archive;
/// default `RouterConfig` ring). Returns throughput plus the router's
/// counters and the placement simulation's verdict on its ring.
fn run_cluster_once(
    archive: &[u8],
    shards: usize,
    threads: usize,
    batches_per_thread: usize,
) -> (f64, f64, Vec<f64>, RouterStats, PlacementReport) {
    let backends: Vec<_> = (0..shards)
        .map(|_| {
            let mut catalog = Catalog::new();
            catalog.open_archive_bytes("a", archive.to_vec()).unwrap();
            let server = Arc::new(Server::new(catalog, ServeConfig::default()));
            NetServer::bind("127.0.0.1:0", server, NetConfig::default())
                .unwrap()
                .spawn()
        })
        .collect();
    let specs: Vec<ShardSpec> = backends
        .iter()
        .enumerate()
        .map(|(i, h)| ShardSpec::numbered(i, h.addr()))
        .collect();
    let labels: Vec<String> = specs.iter().map(|s| s.label.clone()).collect();
    let report = simulate_live_ring(&labels);
    let router = Arc::new(Router::connect(specs, RouterConfig::default()).unwrap());
    let front = NetServer::bind_router("127.0.0.1:0", Arc::clone(&router), NetConfig::default())
        .unwrap()
        .spawn();
    let addr = front.addr();

    let start = Instant::now();
    let mut latencies: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads as u64)
            .map(|t| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).unwrap();
                    let batch = cluster_slice_batch(t);
                    let mut lat = Vec::with_capacity(batches_per_thread);
                    for _ in 0..batches_per_thread {
                        let t0 = Instant::now();
                        let responses = client.batch(&batch).unwrap();
                        lat.push(t0.elapsed().as_secs_f64() * 1e6);
                        for r in &responses {
                            assert!(matches!(r, Ok(Response::Slice(_))));
                        }
                    }
                    lat
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    let elapsed_s = start.elapsed().as_secs_f64();
    let stats = router.router_stats();
    front.shutdown();
    for h in backends {
        h.shutdown();
    }
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let requests = (threads * batches_per_thread * BATCH) as u64;
    let served_mib = requests as f64 * SLICE_T as f64 * CLUSTER_VPS as f64 * 8.0 / (1 << 20) as f64;
    (elapsed_s, served_mib, latencies, stats, report)
}

/// The `serve_cluster` scenario: throughput at `--shards`, plus a
/// 1/2/4-shard scaling sweep. Measured numbers on a shared-loopback
/// bench box are contention-bound; the placement simulation's
/// machine-model prediction (`sim_speedup`) is the deterministic scaling
/// claim CI pins.
fn run_cluster_scenario(
    shards: usize,
    threads: usize,
    batches_per_thread: usize,
) -> (Scenario, ClusterCounters) {
    let archive = cluster_archive_bytes();
    let mut scaling = Vec::new();
    let mut main_run = None;
    let mut sweep: Vec<usize> = vec![1, 2, 4];
    if !sweep.contains(&shards) {
        sweep.push(shards);
    }
    for &s in &sweep {
        let (elapsed_s, served_mib, latencies, stats, report) =
            run_cluster_once(&archive, s, threads, batches_per_thread);
        if s <= 4 {
            scaling.push((s, served_mib / elapsed_s));
        }
        if s == shards {
            main_run = Some((elapsed_s, served_mib, latencies, stats, report));
        }
    }
    let (elapsed_s, served_mib, latencies, stats, report) = main_run.unwrap();
    let pct = |p: f64| latencies[((latencies.len() - 1) as f64 * p) as usize];
    let requests = (threads * batches_per_thread * BATCH) as u64;
    (
        Scenario {
            name: "serve_cluster",
            backend: "memory",
            threads,
            batches_per_thread,
            elapsed_s,
            served_mib,
            requests,
            p50_us: pct(0.50),
            p95_us: pct(0.95),
        },
        ClusterCounters {
            shards,
            routed: stats.routed,
            fanout_batches: stats.fanout_batches,
            failovers: stats.failovers,
            sim_skew: report.skew,
            sim_fanout: report.fanout,
            sim_speedup: report.speedup_vs_single,
            sim_efficiency: report.efficiency,
            scaling,
        },
    )
}

fn server_for(path: &std::path::Path, use_mmap: bool, cache_bytes: usize) -> Server {
    let mut catalog = Catalog::new();
    catalog
        .open_archive_source("a", open_file_source(path, use_mmap).unwrap())
        .unwrap();
    Server::new(
        catalog,
        ServeConfig {
            cache_bytes,
            cache_shards: 8,
            ..ServeConfig::default()
        },
    )
}

/// Like [`server_for`], but with a trained emulator registered so the
/// scenario engine has an ensemble source.
fn scenario_server_for(path: &std::path::Path) -> Server {
    let mut catalog = Catalog::new();
    catalog
        .open_archive_source("a", open_file_source(path, true).unwrap())
        .unwrap();
    let generator = SyntheticEra5::new(SyntheticEra5Config::small_daily(12));
    let training = generator.generate_member(0, 2 * 365);
    let emulator = ClimateEmulator::train(&training, EmulatorConfig::small(8))
        .expect("training succeeds at bench scale");
    catalog.register_emulator("em", emulator).unwrap();
    Server::new(catalog, ServeConfig::default())
}

/// A batch of overlapping slice reads, phase-shifted per thread so the
/// threads' working sets overlap without being identical.
fn slice_batch(thread: u64) -> Vec<Request> {
    (0..BATCH as u64)
        .map(|i| {
            let t0 = (thread * 13 + i * 7) % (T_MAX as u64 - SLICE_T);
            Request::Slice(SliceRequest {
                archive: "a".to_string(),
                member: "t2m".to_string(),
                range: t0..t0 + SLICE_T,
            })
        })
        .collect()
}

/// One scenario-engine batch: an ensemble fan-out plus derived
/// statistics over the archive and over fresh ensemble output. Seeds and
/// windows are phase-shifted per thread so threads share some product
/// descriptors (exercising the product cache) without all colliding.
fn product_batch(thread: u64) -> Vec<Request> {
    let t0 = (thread * 11) % (T_MAX as u64 - SLICE_T);
    let spec = |seed: u64| ScenarioSpec {
        emulator: "em".to_string(),
        t_max: ENS_T,
        seed,
        realizations: ENS_R,
    };
    vec![
        Request::Ensemble(spec(thread % 2)),
        Request::Product(ProductDescriptor {
            source: ProductSource::Member {
                archive: "a".to_string(),
                member: "t2m".to_string(),
            },
            stat: ProductStat::MeanStd,
            time: Some(t0..t0 + SLICE_T),
            space: None,
        }),
        Request::Product(ProductDescriptor {
            source: ProductSource::Ensemble(spec(7)),
            stat: ProductStat::TukeyExtremes { tail_per_mille: 25 },
            time: None,
            space: None,
        }),
        Request::Product(ProductDescriptor {
            source: ProductSource::Member {
                archive: "a".to_string(),
                member: "t2m".to_string(),
            },
            stat: ProductStat::Anomaly {
                archive: "a".to_string(),
                member: "t2m".to_string(),
            },
            time: Some(t0..t0 + SLICE_T),
            space: None,
        }),
    ]
}

/// Drive the scenario-engine workload: `threads × batches_per_thread`
/// mixed ensemble + derived-statistic batches against one server, so
/// repeat descriptors hit the product cache.
fn run_scenario_products(server: &Server, threads: usize, batches_per_thread: usize) -> Scenario {
    let start = Instant::now();
    let per_thread: Vec<(Vec<f64>, u64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads as u64)
            .map(|t| {
                scope.spawn(move || {
                    let batch = product_batch(t);
                    let mut lat = Vec::with_capacity(batches_per_thread);
                    let mut values = 0u64;
                    for _ in 0..batches_per_thread {
                        let t0 = Instant::now();
                        let responses = server.handle_batch(&batch);
                        lat.push(t0.elapsed().as_secs_f64() * 1e6);
                        for r in &responses {
                            match r {
                                Ok(Response::Product(p)) => values += p.values.len() as u64,
                                other => panic!("product request failed: {other:?}"),
                            }
                        }
                    }
                    (lat, values)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let elapsed_s = start.elapsed().as_secs_f64();
    let mut latencies: Vec<f64> = per_thread.iter().flat_map(|(l, _)| l.clone()).collect();
    let values: u64 = per_thread.iter().map(|(_, v)| v).sum();
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let pct = |p: f64| latencies[((latencies.len() - 1) as f64 * p) as usize];
    let requests = (threads * batches_per_thread * product_batch(0).len()) as u64;
    Scenario {
        name: "serve_scenario",
        backend: "mmap",
        threads,
        batches_per_thread,
        elapsed_s,
        served_mib: values as f64 * 8.0 / (1 << 20) as f64,
        requests,
        p50_us: pct(0.50),
        p95_us: pct(0.95),
    }
}

/// Drive `threads × batches_per_thread` batches and collect wall time +
/// per-batch latency.
fn run_scenario(
    name: &'static str,
    backend: &'static str,
    server: &Server,
    threads: usize,
    batches_per_thread: usize,
    npoints: usize,
) -> Scenario {
    let start = Instant::now();
    let mut latencies: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads as u64)
            .map(|t| {
                scope.spawn(move || {
                    let batch = slice_batch(t);
                    let mut lat = Vec::with_capacity(batches_per_thread);
                    for _ in 0..batches_per_thread {
                        let t0 = Instant::now();
                        let responses = server.handle_batch(&batch);
                        lat.push(t0.elapsed().as_secs_f64() * 1e6);
                        for r in &responses {
                            assert!(matches!(r, Ok(Response::Slice(_))));
                        }
                    }
                    lat
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    let elapsed_s = start.elapsed().as_secs_f64();
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let pct = |p: f64| latencies[((latencies.len() - 1) as f64 * p) as usize];
    let requests = (threads * batches_per_thread * BATCH) as u64;
    let served_mib = requests as f64 * SLICE_T as f64 * npoints as f64 * 8.0 / (1 << 20) as f64;
    Scenario {
        name,
        backend,
        threads,
        batches_per_thread,
        elapsed_s,
        served_mib,
        requests,
        p50_us: pct(0.50),
        p95_us: pct(0.95),
    }
}

/// Product-cache counters recorded from the scenario-engine workload:
/// hits, misses, flight leads, coalesced waits, and computed products.
struct ProductCounters {
    hits: u64,
    misses: u64,
    flight_leads: u64,
    flight_waits: u64,
    computes: u64,
}

/// The non-scenario summary blocks of the JSON artifact, bundled so the
/// writer's signature stays stable as blocks accrete.
struct JsonBlocks<'a> {
    speedup_cold: f64,
    stampede: (u64, u64, u64),
    product: &'a ProductCounters,
    net: &'a NetCounters,
    streaming: &'a StreamCounters,
    chaos: &'a ChaosCounters,
    cluster: &'a ClusterCounters,
}

fn write_json(path: &str, scenarios: &[Scenario], blocks: &JsonBlocks<'_>) {
    let JsonBlocks {
        speedup_cold,
        stampede,
        product,
        net,
        streaming,
        chaos,
        cluster,
    } = blocks;
    // Schema version of this file; bump when fields change meaning. The
    // env block records the matrix leg the run came from, so CI artifacts
    // from different legs are comparable at the top level.
    let threads_env = std::env::var("EXACLIM_THREADS").unwrap_or_else(|_| "default".to_string());
    let mmap_env = std::env::var("EXACLIM_MMAP").unwrap_or_else(|_| "default".to_string());
    let mut out = format!(
        "{{\n  \"bench\": \"serve\",\n  \"version\": 8,\n  \
         \"env\": {{\"EXACLIM_THREADS\": \"{threads_env}\", \"EXACLIM_MMAP\": \"{mmap_env}\"}},\n  \
         \"scenarios\": [\n"
    );
    for (i, s) in scenarios.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"backend\": \"{}\", \"threads\": {}, \"batches_per_thread\": {}, \
             \"elapsed_s\": {:.6}, \"served_mib\": {:.3}, \"mib_per_s\": {:.3}, \"req_per_s\": {:.1}, \
             \"p50_us\": {:.1}, \"p95_us\": {:.1}}}{}\n",
            s.name,
            s.backend,
            s.threads,
            s.batches_per_thread,
            s.elapsed_s,
            s.served_mib,
            s.mib_per_s(),
            s.req_per_s(),
            s.p50_us,
            s.p95_us,
            if i + 1 < scenarios.len() { "," } else { "" },
        ));
    }
    let (decodes, leads, waits) = stampede;
    out.push_str(&format!(
        "  ],\n  \"cold_mmap_over_mutexed_speedup\": {speedup_cold:.3},\n  \
         \"stampede\": {{\"chunk_decodes\": {decodes}, \"flight_leads\": {leads}, \"flight_waits\": {waits}}},\n  \
         \"product_cache\": {{\"hits\": {}, \"misses\": {}, \"flight_leads\": {}, \"flight_waits\": {}, \"computes\": {}}},\n  \
         \"net\": {{\"open_connections\": {}, \"peak_connections\": {}, \"reactor_wakeups\": {}, \"reaped_idle\": {}}},\n  \
         \"streaming\": {{\"streamed_responses\": {}, \"stream_frames_out\": {}, \"peak_conn_buffered_bytes\": {}, \
         \"frames_per_response\": [{}]}},\n  \
         \"chaos\": {{\"faults_injected\": {}, \"shed\": {}, \"client_retries\": {}, \"client_reconnects\": {}}},\n  \
         \"cluster\": {{\"shards\": {}, \"routed\": {}, \"fanout_batches\": {}, \"failovers\": {}, \
         \"sim\": {{\"skew\": {:.4}, \"fanout\": {:.4}, \"speedup_vs_single\": {:.4}, \"efficiency\": {:.4}}}, \
         \"scaling\": [{}]}}\n}}\n",
        product.hits, product.misses, product.flight_leads, product.flight_waits, product.computes,
        net.open_connections, net.peak_connections, net.reactor_wakeups, net.reaped_idle,
        streaming.streamed_responses, streaming.stream_frames_out, streaming.peak_conn_buffered_bytes,
        streaming
            .frames_per_response
            .iter()
            .map(|b| b.to_string())
            .collect::<Vec<_>>()
            .join(", "),
        chaos.faults_injected, chaos.shed, chaos.client_retries, chaos.client_reconnects,
        cluster.shards, cluster.routed, cluster.fanout_batches, cluster.failovers,
        cluster.sim_skew, cluster.sim_fanout, cluster.sim_speedup, cluster.sim_efficiency,
        cluster
            .scaling
            .iter()
            .map(|(s, mibs)| format!("{{\"shards\": {s}, \"mib_per_s\": {mibs:.3}}}"))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    std::fs::write(path, out).unwrap();
    println!("wrote {path}");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let flag = |name: &str, default: usize| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    };
    let threads = flag("--threads", 8);
    let batches = flag("--batches", 24);
    let idle_conns = flag("--idle", 300);
    let shards = flag("--shards", 4).max(1);

    let path = std::env::temp_dir().join(format!("exaclim_serve_perf_{}.eca1", std::process::id()));
    let (total, npoints) = build_archive_file(&path);
    println!("archive: {total} bytes on disk, {T_MAX} steps × {npoints} points, chunk_t {CHUNK_T}");
    println!(
        "workload: {threads} client threads × {batches} batches × {BATCH} slices of {SLICE_T} steps\n"
    );

    let mut scenarios = Vec::new();

    // Cold: zero cache budget — every batch decodes every touched chunk.
    // This is the fetch-path microscope: mutexed seek+read+copy vs.
    // lock-free borrowed mmap views.
    for (backend, use_mmap) in [("mutexed", false), ("mmap", true)] {
        let server = server_for(&path, use_mmap, 0);
        scenarios.push(run_scenario(
            "cold", backend, &server, threads, batches, npoints,
        ));
    }
    let speedup_cold = {
        let mutexed = scenarios[0].mib_per_s();
        let mapped = scenarios[1].mib_per_s();
        mapped / mutexed
    };

    // Warm: generous cache, primed — measures the hit path (identical for
    // both backends; run on mmap).
    {
        let server = server_for(&path, true, 256 << 20);
        for t in 0..threads as u64 {
            server.handle_batch(&slice_batch(t));
        }
        scenarios.push(run_scenario(
            "warm", "mmap", &server, threads, batches, npoints,
        ));
    }

    // Network: the warm-cache workload again, but spoken over the framed
    // TCP wire on loopback — the delta to "warm" is the protocol cost
    // (framing, CRC, socket round trip) at this batch size.
    let streaming = {
        let server = Arc::new(server_for(&path, true, 256 << 20));
        for t in 0..threads as u64 {
            server.handle_batch(&slice_batch(t));
        }
        let (scenario, streaming) = run_net_scenario(server, threads, batches, npoints);
        scenarios.push(scenario);
        streaming
    };

    // Network with a standing idle fleet: the same hot workload while
    // hundreds of keep-alive connections sit registered on the reactor —
    // the delta to "serve_net" is what an idle fleet costs the hot path
    // (the refactor's answer: a registration and a deadline, not a
    // thread), and the net gauges record the reaper clearing the fleet.
    let net = {
        let server = Arc::new(server_for(&path, true, 256 << 20));
        for t in 0..threads as u64 {
            server.handle_batch(&slice_batch(t));
        }
        let (scenario, net) = run_net_idle_scenario(server, threads, batches, npoints, idle_conns);
        scenarios.push(scenario);
        net
    };

    // Chaos: the wire workload under a seeded fault plan and a starved
    // dispatch queue — the throughput the serving stack sustains while
    // shedding overload and absorbing injected socket faults through
    // the clients' retry layer.
    let chaos = {
        let server = Arc::new(server_for(&path, true, 256 << 20));
        for t in 0..threads as u64 {
            server.handle_batch(&slice_batch(t));
        }
        let (scenario, chaos) = run_chaos_scenario(server, threads, batches, npoints);
        scenarios.push(scenario);
        chaos
    };

    // Cluster: the wire workload through a consistent-hash router over N
    // backend shards (default ring), plus a 1/2/4-shard scaling sweep. On
    // a shared bench box the measured sweep is contention-bound; the
    // deterministic scaling claim is the placement simulation's
    // machine-model prediction for the live ring.
    let cluster = {
        let (scenario, cluster) = run_cluster_scenario(shards, threads, batches);
        scenarios.push(scenario);
        cluster
    };

    // Scenario engine: mixed ensemble fan-out + derived statistics; the
    // repeat descriptors across batches land in the product cache, so
    // throughput here is the cached-product serve rate after the first
    // round computes each distinct product once.
    let product = {
        let server = scenario_server_for(&path);
        let scenario = run_scenario_products(&server, threads, batches);
        scenarios.push(scenario);
        let cache = server.product_cache_stats();
        ProductCounters {
            hits: cache.hits,
            misses: cache.misses,
            flight_leads: cache.flight_leads,
            flight_waits: cache.flight_waits,
            computes: server.stats().product_computes,
        }
    };

    // Stampede: every thread fires the same single-slice batch at a cold
    // server; the single-flight map must hold decodes at one per chunk.
    let stampede = {
        let server = server_for(&path, true, 256 << 20);
        let barrier = std::sync::Barrier::new(threads);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                let server = &server;
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    let batch = vec![Request::Slice(SliceRequest {
                        archive: "a".to_string(),
                        member: "t2m".to_string(),
                        range: 0..SLICE_T,
                    })];
                    for r in server.handle_batch(&batch) {
                        assert!(r.is_ok());
                    }
                });
            }
        });
        let stats = server.stats();
        let cache = server.cache_stats();
        (stats.chunk_decodes, cache.flight_leads, cache.flight_waits)
    };

    println!(
        "{:<9} {:<9} {:>10} {:>12} {:>10} {:>10}",
        "case", "backend", "MiB/s", "req/s", "p50 µs", "p95 µs"
    );
    for s in &scenarios {
        println!(
            "{:<9} {:<9} {:>10.1} {:>12.0} {:>10.1} {:>10.1}",
            s.name,
            s.backend,
            s.mib_per_s(),
            s.req_per_s(),
            s.p50_us,
            s.p95_us
        );
    }
    println!("\ncold {threads}-thread speedup (mmap over mutexed): {speedup_cold:.2}×");
    let (decodes, leads, waits) = stampede;
    println!(
        "stampede over {} unique chunks: {decodes} decodes, {leads} leads, {waits} coalesced waits",
        SLICE_T.div_ceil(CHUNK_T as u64)
    );
    println!(
        "product cache: {} hits, {} misses, {} leads, {} coalesced waits, {} computed products",
        product.hits, product.misses, product.flight_leads, product.flight_waits, product.computes
    );
    println!(
        "net ({idle_conns} idle + {threads} hot conns): peak {}, open at end {}, {} reactor wakeups, {} reaped idle",
        net.peak_connections, net.open_connections, net.reactor_wakeups, net.reaped_idle
    );
    println!(
        "streaming: {} streamed responses in {} fragments, peak {} owned bytes/conn, frames/resp histogram {:?}",
        streaming.streamed_responses,
        streaming.stream_frames_out,
        streaming.peak_conn_buffered_bytes,
        streaming.frames_per_response
    );
    println!(
        "chaos: {} faults injected, {} requests shed, clients spent {} retries and {} reconnects",
        chaos.faults_injected, chaos.shed, chaos.client_retries, chaos.client_reconnects
    );
    println!(
        "cluster ({} shards): {} routed, {} fan-out batches, {} failovers; sim skew {:.3}, \
         predicted {:.2}× single-shard ({:.0}% efficiency); measured scaling {}",
        cluster.shards,
        cluster.routed,
        cluster.fanout_batches,
        cluster.failovers,
        cluster.sim_skew,
        cluster.sim_speedup,
        100.0 * cluster.sim_efficiency,
        cluster
            .scaling
            .iter()
            .map(|(s, m)| format!("{s}→{m:.0} MiB/s"))
            .collect::<Vec<_>>()
            .join(", ")
    );

    if json {
        write_json(
            "BENCH_serve.json",
            &scenarios,
            &JsonBlocks {
                speedup_cold,
                stampede,
                product: &product,
                net: &net,
                streaming: &streaming,
                chaos: &chaos,
                cluster: &cluster,
            },
        );
    }
    std::fs::remove_file(&path).ok();
}
