//! The traced run's per-layer ledger: calls into each layer's public
//! functions, timed as spans from the benchmark's own code.

use crate::stats::{emulator_other_ms, median, ratio, stage_coverage};
use crate::trace::Tracer;
use crate::workload::{self, Content, Inputs, LoopResult, System, EMULATE_T};
use exaclim::linalg::{PrecisionPolicy, TiledMatrix};
use exaclim::mathkit::rng::StandardNormal;
use exaclim::runtime::{parallel_tile_cholesky, SchedulerKind};
use exaclim::sht::{analysis_batch, synthesis_batch, HarmonicCoeffs, ShtPlan};
use exaclim::stats::trend::TrendConfig;
use exaclim::stats::CoefficientSampler;
use exaclim::store::{Archive, Codec};
use exaclim::TrainedEmulator;
use exaclim_serve::wire::{decode_response_batch, encode_response_batch};
use exaclim_serve::Request;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use std::time::Instant;

/// Emulate calls timed per traced run.
const EMULATE_SAMPLES: u64 = 16;
/// Factorizations timed per precision policy.
const CHOLESKY_SAMPLES: usize = 3;
/// Network calls whose server work is replayed in-process.
pub const REPLAYS: usize = 24;
/// Archive chunks read per store pass.
const STORE_CHUNKS: usize = 96;

/// Stage times of the emulator, medians in milliseconds. `other_ms` and
/// `coverage` are medians of per-seed values, so each pairs a real call
/// with the replay of the same seed that ran right after it.
pub struct EmulatorLedger {
    /// `TrainedEmulator::emulate(64, seed)`.
    pub emulate_ms: f64,
    /// `ShtPlan::equiangular`.
    pub plan_ms: f64,
    /// `CoefficientSampler::sample_path`.
    pub sample_path_ms: f64,
    /// `synthesis_batch` over the 64 slices.
    pub synthesis_ms: f64,
    /// `TrendModel::mean_series` over every grid point.
    pub mean_series_ms: f64,
    /// `analysis_batch` over the 64 synthesized slices.
    pub analysis_ms: f64,
    /// `emulate_ms` minus the named stages.
    pub other_ms: f64,
    /// Share of `emulate_ms` the named stages account for.
    pub coverage: f64,
}

/// Time `TrainedEmulator::emulate` and, for the same seeds, a stage-by-stage
/// replay of its pipeline through the layers' public functions. The replay
/// must reproduce the emulation bit for bit, or the stage split is not the
/// pipeline's and the ledger is refused.
pub fn emulator(
    tracer: &Tracer,
    em: &TrainedEmulator,
    seeds: &[u64],
) -> Result<EmulatorLedger, String> {
    let cfg = &em.config;
    let npoints = em.npoints();
    let mut samples: Vec<[f64; 6]> = Vec::new();
    for &seed in seeds {
        let call = tracer.call();
        let (real, root, emulate_ms) = tracer.time("emulator.emulate", call, None, || {
            em.emulate(EMULATE_T, seed).expect("emulation succeeds")
        });
        let child = Some(root);
        let (plan, _, plan_ms) = tracer.time("sht.plan", call, child, || {
            ShtPlan::equiangular(cfg.lmax, em.ntheta, em.nphi)
        });
        let sampler = CoefficientSampler::new(em.var.clone(), em.factor.clone(), cfg.coeff_dim());
        let mut rng = StdRng::seed_from_u64(seed);
        let (path, _, sample_path_ms) = tracer.time("stats.sample_path", call, child, || {
            sampler.sample_path(EMULATE_T, &mut rng)
        });
        let coeffs: Vec<HarmonicCoeffs> = path
            .par_iter()
            .map(|f| HarmonicCoeffs::from_real_vector(cfg.lmax, f))
            .collect();
        let (z, _, synthesis_ms) = tracer.time("sht.synthesis", call, child, || {
            synthesis_batch(&plan, &coeffs)
        });
        let trend_cfg = TrendConfig {
            k_harmonics: cfg.k_harmonics,
            tau: cfg.tau,
            rho_grid: cfg.rho_grid.clone(),
            start_year: em.start_year,
        };
        let (means, _, mean_series_ms) = tracer.time("stats.mean_series", call, child, || {
            em.trend
                .par_iter()
                .map(|m| m.mean_series(&trend_cfg, &em.forcing, EMULATE_T))
                .collect::<Vec<_>>()
        });
        // Assembly is not a named stage: it belongs to emulator.other_ms.
        let (data, _, _) = tracer.time("emulator.assemble", call, child, || {
            let mut sn = StandardNormal::new();
            let mut data = vec![0.0f64; EMULATE_T * npoints];
            for t in 0..EMULATE_T {
                for p in 0..npoints {
                    let eps = sn.sample(&mut rng) * em.v2[p].sqrt();
                    data[t * npoints + p] =
                        means[p][t] + em.trend[p].sigma * (z[t * npoints + p] + eps);
                }
            }
            data
        });
        if data
            .iter()
            .zip(&real.data)
            .any(|(a, b)| a.to_bits() != b.to_bits())
        {
            return Err(format!(
                "the stage-by-stage replay of emulate(seed {seed}) differs from TrainedEmulator::emulate"
            ));
        }
        let analysis_call = tracer.call();
        let (_, _, analysis_ms) = tracer.time("sht.analysis", analysis_call, None, || {
            analysis_batch(&plan, &z, EMULATE_T)
        });
        samples.push([
            emulate_ms,
            plan_ms,
            sample_path_ms,
            synthesis_ms,
            mean_series_ms,
            analysis_ms,
        ]);
    }
    let col = |i: usize| median(&samples.iter().map(|s| s[i]).collect::<Vec<_>>());
    let per_seed = |f: fn(f64, &[f64]) -> f64| {
        median(
            &samples
                .iter()
                .map(|s| f(s[0], &s[1..5]))
                .collect::<Vec<_>>(),
        )
    };
    Ok(EmulatorLedger {
        other_ms: per_seed(emulator_other_ms),
        coverage: per_seed(stage_coverage),
        emulate_ms: col(0),
        plan_ms: col(1),
        sample_path_ms: col(2),
        synthesis_ms: col(3),
        mean_series_ms: col(4),
        analysis_ms: col(5),
    })
}

/// The emulate seeds of the workload's first client (fresh per call), or
/// for the slice workloads seeds derived the same way.
pub fn emulate_seeds(inputs: &Inputs) -> Vec<u64> {
    (0..EMULATE_SAMPLES)
        .map(|i| workload::derive(inputs.seed, &[1, 0, i]))
        .collect()
}

/// Median milliseconds of `parallel_tile_cholesky` on the trained
/// innovation covariance `Û = V Vᵀ`, per precision policy (DP, DP/SP, DP/HP).
pub fn cholesky(tracer: &Tracer, em: &TrainedEmulator) -> Result<[f64; 3], String> {
    let n = em.config.coeff_dim();
    let v = &em.factor;
    let mut u = vec![0.0f64; n * n];
    for i in 0..n {
        for j in 0..=i {
            let s: f64 = (0..=j).map(|k| v[i * n + k] * v[j * n + k]).sum();
            u[i * n + j] = s;
            u[j * n + i] = s;
        }
    }
    let policies = [
        ("linalg.cholesky_dp", PrecisionPolicy::dp()),
        ("linalg.cholesky_dp_sp", PrecisionPolicy::dp_sp()),
        ("linalg.cholesky_dp_hp", PrecisionPolicy::dp_hp()),
    ];
    let mut out = [0.0; 3];
    for (slot, (name, policy)) in out.iter_mut().zip(policies) {
        let mut times = Vec::new();
        for _ in 0..CHOLESKY_SAMPLES {
            let mut tiled = TiledMatrix::from_dense(&u, n, em.config.tile, &policy);
            let call = tracer.call();
            let (result, _, ms) = tracer.time(name, call, None, || {
                parallel_tile_cholesky(&mut tiled, em.config.workers, SchedulerKind::PriorityHeap)
            });
            result.map_err(|e| format!("{name} failed: {e}"))?;
            times.push(ms);
        }
        *slot = median(&times);
    }
    Ok(out)
}

/// Store-layer timings over the workload's own archive.
pub struct StoreLedger {
    /// Median microseconds of `Archive::read_field_chunk` (CRC + decode).
    pub chunk_read_us: f64,
    /// Decoded MiB per second of `Codec::decode` on the stored chunks.
    pub decode_mib_per_s: f64,
}

/// Read up to [`STORE_CHUNKS`] chunks of the archive, spread over its
/// members, through the store's public chunk API.
pub fn store(tracer: &Tracer, archive_bytes: &[u8]) -> StoreLedger {
    let archive = Archive::from_bytes(archive_bytes.to_vec()).expect("archive parses");
    let mut targets = Vec::new();
    for (m, member) in archive.members().iter().enumerate() {
        for c in 0..member.chunks.len() {
            targets.push((m, c));
        }
    }
    let step = targets.len().div_ceil(STORE_CHUNKS).max(1);
    let targets: Vec<_> = targets.into_iter().step_by(step).collect();
    let mut read_us = Vec::new();
    let (mut decoded_bytes, mut decode_s) = (0usize, 0.0f64);
    for &(m, c) in &targets {
        let call = tracer.call();
        let (values, _, ms) = tracer.time("store.read_field_chunk", call, None, || {
            archive.read_field_chunk(m, c).expect("chunk reads")
        });
        std::hint::black_box(&values);
        read_us.push(ms * 1e3);
        let member = &archive.members()[m];
        let codec = Codec::from_id(member.codec).expect("known codec");
        let stored = archive.read_chunk_stored(m, c).expect("chunk reads");
        let n = values.len();
        let (decoded, _, ms) = tracer.time("store.decode", call, None, || {
            codec.decode(&stored, n).expect("chunk decodes")
        });
        decoded_bytes += std::hint::black_box(decoded).len() * 8;
        decode_s += ms / 1e3;
    }
    StoreLedger {
        chunk_read_us: median(&read_us),
        decode_mib_per_s: decoded_bytes as f64 / (1 << 20) as f64 / decode_s,
    }
}

/// Serve and wire timings from in-process replays of traced calls.
pub struct ReplayLedger {
    /// Median `Server::handle_batch` milliseconds.
    pub handle_batch_ms: f64,
    /// Median `encode_response_batch` milliseconds.
    pub encode_ms: f64,
    /// Median `decode_response_batch` milliseconds.
    pub decode_ms: f64,
    /// Median `Router::handle_batch` milliseconds (routed workload only).
    pub router_handle_ms: Option<f64>,
}

/// Replay the first [`REPLAYS`] traced calls in-process, filing each
/// replay span under the call's root span: `Server::handle_batch` on a
/// server holding the whole content (under `Router::handle_batch` when
/// routed), then the response codec.
pub fn replay(
    tracer: &Tracer,
    inputs: &Inputs,
    system: &System,
    traced: &LoopResult,
) -> Result<ReplayLedger, String> {
    let router = match &system.front {
        workload::Front::Routed(c) => Some(&c.router),
        workload::Front::Direct { .. } => None,
    };
    let (mut handle, mut enc, mut dec, mut routed) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for rec in traced.calls.iter().take(REPLAYS) {
        let (root, call) = rec.span.expect("traced calls carry spans");
        let batch = inputs.batch(rec.client, rec.idx);
        let serve_parent = match router {
            Some(r) => {
                let (answers, id, ms) =
                    tracer.time("router.handle_batch", call, Some(root), || {
                        r.handle_batch(&batch)
                    });
                if answers.iter().any(|a| a.is_err()) {
                    return Err("a replayed router batch failed".to_string());
                }
                routed.push(ms);
                id
            }
            None => root,
        };
        let (answers, _, ms) = tracer.time("serve.handle_batch", call, Some(serve_parent), || {
            system.server().handle_batch(&batch)
        });
        if answers.iter().any(|a| a.is_err()) {
            return Err("a replayed server batch failed".to_string());
        }
        handle.push(ms);
        let (bytes, _, ms) = tracer.time("wire.encode_response", call, Some(root), || {
            encode_response_batch(&answers)
        });
        enc.push(ms);
        let (decoded, _, ms) = tracer.time("wire.decode_response", call, Some(root), || {
            decode_response_batch(&bytes)
        });
        dec.push(ms);
        if decoded.map_err(|e| e.to_string())? != answers {
            return Err("the response codec round trip is not exact".to_string());
        }
    }
    Ok(ReplayLedger {
        handle_batch_ms: median(&handle),
        encode_ms: median(&enc),
        decode_ms: median(&dec),
        router_handle_ms: (!routed.is_empty()).then(|| median(&routed)),
    })
}

/// Median `Router::handle_batch` milliseconds over the given batches.
pub fn router_handle(
    tracer: &Tracer,
    router: &exaclim_serve::Router,
    batches: &[Vec<Request>],
) -> f64 {
    let times: Vec<f64> = batches
        .iter()
        .map(|b| {
            let call = tracer.call();
            let (answers, _, ms) =
                tracer.time("router.handle_batch", call, None, || router.handle_batch(b));
            assert!(answers.iter().all(|a| a.is_ok()), "routed batch failed");
            ms
        })
        .collect();
    median(&times)
}

/// Median `Server::handle_batch` milliseconds on a server whose cache
/// holds the whole archive: the serve layer's work without the store.
pub fn serve_all_hits(content: &Content, inputs: &Inputs, batches: &[Vec<Request>]) -> f64 {
    let big = Content {
        archive: content.archive.clone(),
        emulator: None,
        cache_bytes: content.archive.len() * 8 + (64 << 20),
    };
    let server = big.server(inputs);
    let primed = server.stats().chunk_decodes;
    let times: Vec<f64> = batches
        .iter()
        .map(|b| {
            let t = Instant::now();
            let answers = server.handle_batch(b);
            let ms = t.elapsed().as_secs_f64() * 1e3;
            assert!(answers.iter().all(|a| a.is_ok()), "all-hit batch failed");
            ms
        })
        .collect();
    assert_eq!(
        server.stats().chunk_decodes,
        primed,
        "the all-hit server decoded"
    );
    median(&times)
}

/// Per-request rate of a window counter.
pub fn per(count: u64, requests: u64) -> f64 {
    ratio(count as f64, requests as f64)
}
