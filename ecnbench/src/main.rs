//! ECN1 benchmark: closed-loop workloads against an in-process `Server`
//! behind a `NetServer` on loopback, driven through the public `Client`,
//! with every answer checked.
//!
//! ```text
//! cargo run --release --offline --manifest-path ecnbench/Cargo.toml -- \
//!     --workload <emulate|slices_hot|slices_cold|slices_routed> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer
//! ledger (see `README.md` for every metric and the workload it should
//! move). The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. A failed answer or a
//! failed workload-validity check prints that object with `"correct":
//! false`, names the check on standard error, and exits with code 1.

mod cpu;
mod host;
mod ledger;
mod stats;
mod trace;
mod workload;

use exaclim_serve::NetStats;
use stats::{median, percentile, samples_beyond, tail_percentile, Tally, MIN_TAIL};
use std::time::Instant;
use trace::Tracer;
use workload::{Cluster, Front, Inputs, Kind, LoopResult, Reference, System, Window};

/// Set-ups per untraced run; `setup_s` is the median of their CPU time.
const SETUP_REPS: usize = 5;
/// Seconds of each closed loop the traced run adds for `router.hop_ms`.
const HOP_SECONDS: f64 = 2.0;
/// Highest cache hit ratio the cold workload may show. The hot workload's
/// own check (no decodes after priming) pins its hit ratio at 1.
const COLD_MAX_HIT_RATIO: f64 = 0.5;
/// Share of one emulate call the named stages must account for. Output
/// assembly and the per-call clones (`emulator.other_ms`) take about 10%
/// of a call at L = 24, T = 64 on a 2-core host, so per-seed coverage
/// centres near 0.9 and a 0.9 floor would fail the unchanged program at
/// random; a workload that stopped running its stages falls far below 0.8.
const MIN_STAGE_COVERAGE: f64 = 0.8;

/// End-to-end metrics in output order; `BENCHMARK.json` lists the same.
const END_TO_END: [&str; 3] = ["setup_s", "cpu_ms_per_req", "peak_rss_mib"];
/// Per-layer metrics in output order; `BENCHMARK.json` lists the same.
const PER_LAYER: [&str; 51] = [
    "wall.req_per_s",
    "wall.mib_per_s",
    "wall.p50_ms",
    "wall.p90_ms",
    "emulator.emulate_ms",
    "emulator.train_s",
    "emulator.other_ms",
    "emulator.stage_coverage",
    "sht.plan_ms",
    "sht.synthesis_ms",
    "sht.analysis_ms",
    "stats.sample_path_ms",
    "stats.mean_series_ms",
    "linalg.cholesky_ms.dp",
    "linalg.cholesky_ms.dp_sp",
    "linalg.cholesky_ms.dp_hp",
    "linalg.cholesky_flops",
    "store.chunk_read_us",
    "store.decode_mib_per_s",
    "store.decodes_per_req",
    "serve.handle_batch_ms",
    "serve.coalesce_ratio",
    "cache.hit_ratio",
    "cache.evictions_per_req",
    "cache.flight_waits",
    "wire.encode_response_ms",
    "wire.decode_response_ms",
    "wire.bytes_per_req",
    "net.transport_ms",
    "net.frames_out_per_req",
    "net.stream_frames_per_req",
    "net.reactor_wakeups_per_req",
    "net.wire_errors",
    "net.shed",
    "client.retries",
    "client.reconnects",
    "router.handle_batch_ms",
    "router.hop_ms",
    "router.fanout_per_batch",
    "router.routed_per_req",
    "router.failovers",
    "self.emulator_ms",
    "self.sht_ms",
    "self.stats_ms",
    "self.linalg_ms",
    "self.store_ms",
    "self.serve_ms",
    "self.wire_ms",
    "self.net_ms",
    "self.router_ms",
    "trace.overhead_ms",
];

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let kind = Kind::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must lie in (0, 600]".to_string());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    Ok(Args {
        kind,
        seed,
        seconds,
        trace,
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// What a run prints.
struct Outcome {
    tally: Tally,
    metrics: Vec<Metric>,
    /// Failed answer and validity checks, in the order found.
    problems: Vec<String>,
    /// Human-readable lines printed before the result.
    report: Vec<String>,
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ecnbench: {e}");
            eprintln!(
                "usage: ecnbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                Kind::ALL.map(Kind::name).join("|")
            );
            std::process::exit(2);
        }
    };
    let inputs = workload::make_inputs(args.kind, args.seed);
    println!("env {}", env_block(&args, &inputs));
    let mut outcome = if args.trace {
        run_traced(&args, &inputs)
    } else {
        run_untraced(&args, &inputs)
    };
    for m in outcome.metrics.iter().filter(|m| !m.value.is_finite()) {
        outcome
            .problems
            .push(format!("{} is not a finite number", m.name));
    }
    let expected: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if !outcome.metrics.is_empty() {
        let names: Vec<&str> = outcome.metrics.iter().map(|m| m.name).collect();
        assert_eq!(
            names, expected,
            "metric list out of step with its declaration"
        );
    }
    for line in &outcome.report {
        println!("{line}");
    }
    for p in &outcome.problems {
        eprintln!("ecnbench: CHECK FAILED [{}]: {p}", args.kind.name());
    }
    let correct = outcome.problems.is_empty() && outcome.tally.failed == 0;
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.tally.attempted,
        outcome.tally.failed,
        metrics.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

/// A number as JSON; a non-finite value prints as 0 and fails the run.
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

/// Host, build and workload facts that every number depends on.
fn env_block(args: &Args, inputs: &Inputs) -> String {
    let nproc = host::cores();
    let threads = std::env::var("EXACLIM_THREADS").unwrap_or_else(|_| "unset".to_string());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "{{\"nproc\": {nproc}, \"git_sha\": \"{}\", \"profile\": \"{profile}\", \
         \"EXACLIM_THREADS\": \"{threads}\", \"seed\": {}, \"workload\": \"{}\", \
         \"clients\": {}, \"loop\": \"closed\", \"working_set_to_cache\": {:.4}, \"seconds\": {}}}",
        git_sha(),
        args.seed,
        args.kind.name(),
        args.kind.clients(),
        inputs.working_set_ratio(),
        args.seconds,
    )
}

/// The checkout's commit, read from `.git` without running git; the
/// benchmark may run from a tree that is not a repository.
fn git_sha() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(sha) = read(&format!(".git/{reference}")) {
        return sha.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|sha| sha.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Peak resident memory of this process (VmHWM), in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Checks that hold on every run: the counters show the workload
/// exercising its layer.
fn counter_checks(kind: Kind, result: &LoopResult, window: &Window, problems: &mut Vec<String>) {
    let n = result.calls.len();
    match kind {
        Kind::Emulate => {}
        Kind::SlicesHot => {
            if window.chunk_decodes != 0 {
                problems.push(format!(
                    "slices_hot: store.decodes_per_req must be 0 after priming; \
                     {} chunks were decoded in the window",
                    window.chunk_decodes
                ));
            }
        }
        Kind::SlicesCold => {
            let hit = hit_ratio(window);
            if hit > COLD_MAX_HIT_RATIO {
                problems.push(format!(
                    "slices_cold: cache.hit_ratio {hit:.3} is not well below slices_hot's 1.0 \
                     (limit {COLD_MAX_HIT_RATIO})"
                ));
            }
        }
        Kind::SlicesRouted => {
            let fanout = stats::ratio(window.shard_frames_in as f64, n as f64);
            if fanout <= 1.0 {
                problems.push(format!(
                    "slices_routed: router.fanout_per_batch {fanout:.3} must exceed 1"
                ));
            }
        }
    }
}

fn hit_ratio(w: &Window) -> f64 {
    stats::ratio(w.hits as f64, (w.hits + w.misses) as f64)
}

/// Compare the pending emulations of a loop with in-process runs and
/// turn mismatches into failed calls.
fn settle_emulations(system: &System, result: &mut LoopResult) {
    if let Some(em) = &system.content.emulator {
        workload::check_emulations(em, result);
    }
}

fn loop_failures(result: &LoopResult, what: &str, problems: &mut Vec<String>) {
    if let Some(e) = result.first_error() {
        problems.push(format!(
            "{what}: {} of {} calls failed; first: {e}",
            result.tally().failed,
            result.calls.len()
        ));
    }
}

fn run_untraced(args: &Args, inputs: &Inputs) -> Outcome {
    let mut setup_cpu_s = Vec::new();
    let mut setup_wall_s = Vec::new();
    let mut system: Option<System> = None;
    for _ in 0..SETUP_REPS {
        if let Some(previous) = system.take() {
            previous.shutdown();
        }
        let (c, t) = (cpu::process_s(), Instant::now());
        system = Some(workload::setup(inputs));
        setup_wall_s.push(t.elapsed().as_secs_f64());
        setup_cpu_s.push(cpu::process_s() - c);
    }
    let mut system = system.expect("at least one set-up");
    let reference = Reference::build(inputs, &system.content.archive);
    let before = system.counters();
    let steal_before = host::steal_s();
    let addr = system.addr();
    let mut result = workload::closed_loop(
        inputs,
        &reference,
        addr,
        &mut system.clients,
        args.seconds,
        0,
        None,
    );
    let steal = host::steal_s().zip(steal_before).map(|(a, b)| a - b);
    let window = system.counters().since(&before);
    settle_emulations(&system, &mut result);
    system.shutdown();

    let mut problems = Vec::new();
    loop_failures(&result, "closed loop", &mut problems);
    counter_checks(args.kind, &result, &window, &mut problems);
    let tally = result.tally();
    let lat = result.sorted_ms();
    if samples_beyond(lat.len(), 90.0) < MIN_TAIL {
        problems.push(format!(
            "p90_ms has {} samples beyond it (of {}); at least {MIN_TAIL} are required",
            samples_beyond(lat.len(), 90.0),
            lat.len()
        ));
    }
    let (req_per_s, bytes_per_s) = result.rates();
    let mib_per_s = bytes_per_s / (1 << 20) as f64;
    let secs = result.elapsed_s;
    let setup = median(&setup_cpu_s);
    let cpu_ms = result.cpu_ms_per_req();
    let (p50, p90) = (percentile(&lat, 50.0), percentile(&lat, 90.0));
    let rss = peak_rss_mib();
    let metrics = vec![
        metric("setup_s", setup, "s"),
        metric("cpu_ms_per_req", cpu_ms, "ms"),
        metric("peak_rss_mib", rss, "MiB"),
    ];
    let tail = tail_percentile(lat.len()).map_or("none".to_string(), |p| {
        format!("p{p} = {:.3} ms", percentile(&lat, p))
    });
    let list = |v: &[f64]| {
        v.iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let report = vec![
        format!(
            "workload {}: {} client(s), closed loop, {:.1} s measured, host steal {}",
            args.kind.name(),
            args.kind.clients(),
            secs,
            steal.map_or("unknown".to_string(), |s| format!(
                "{:.1}% of the window's cores",
                100.0 * s / (secs * host::cores() as f64)
            )),
        ),
        format!(
            "  setup_s         {setup:.4} s CPU (median of {SETUP_REPS}: {}); wall {}",
            list(&setup_cpu_s),
            list(&setup_wall_s)
        ),
        format!(
            "  cpu_ms_per_req  {cpu_ms:.4} ms CPU per verified request (median of {} sub-windows; \
             answer checks left out)",
            workload::WINDOWS
        ),
        format!("  peak_rss_mib    {rss:.1} MiB"),
        format!(
            "  fail_frac       {} ({} of {} calls)",
            tally.fail_frac(),
            tally.failed,
            tally.attempted
        ),
        "  wall clock (reported, not bounded: it moves with the host's load):".to_string(),
        format!(
            "  req_per_s       {req_per_s:.1} 1/s (median of {} sub-windows)",
            workload::WINDOWS
        ),
        format!("  mib_per_s       {mib_per_s:.2} MiB/s"),
        format!("  p50_ms          {p50:.3} ms"),
        format!(
            "  p90_ms          {p90:.3} ms ({} samples, {} beyond p90; highest percentile with ≥{MIN_TAIL} beyond: {tail})",
            lat.len(),
            samples_beyond(lat.len(), 90.0)
        ),
    ];
    Outcome {
        tally,
        metrics,
        problems,
        report,
    }
}

fn run_traced(args: &Args, inputs: &Inputs) -> Outcome {
    let tracer = Tracer::new();
    let mut problems = Vec::new();
    let mut tally = Tally::default();
    let kind = args.kind;
    let mut system = workload::setup(inputs);
    let reference = Reference::build(inputs, &system.content.archive);
    let addr = system.addr();

    // Untraced, then traced: the same loop, half the window each.
    let before = system.counters();
    let mut plain = workload::closed_loop(
        inputs,
        &reference,
        addr,
        &mut system.clients,
        args.seconds / 2.0,
        0,
        None,
    );
    let window = system.counters().since(&before);
    let mut traced = workload::closed_loop(
        inputs,
        &reference,
        addr,
        &mut system.clients,
        args.seconds / 2.0,
        1 << 32,
        Some(&tracer),
    );
    settle_emulations(&system, &mut plain);
    settle_emulations(&system, &mut traced);
    for (r, what) in [(&plain, "untraced loop"), (&traced, "traced loop")] {
        loop_failures(r, what, &mut problems);
        tally.merge(r.tally());
    }
    counter_checks(kind, &plain, &window, &mut problems);
    let p50_plain = percentile(&plain.sorted_ms(), 50.0);
    let p50_traced = percentile(&traced.sorted_ms(), 50.0);
    let requests = plain.requests_sent(inputs);

    // serve and wire: in-process replays of traced calls.
    let replay = match ledger::replay(&tracer, inputs, &system, &traced) {
        Ok(r) => r,
        Err(e) => {
            problems.push(e);
            return failed_outcome(tally, problems);
        }
    };
    let replay_batches: Vec<_> = traced
        .calls
        .iter()
        .take(ledger::REPLAYS)
        .map(|c| inputs.batch(c.client, c.idx))
        .collect();

    // router: the same batches routed and direct, in this run.
    let router = match &system.front {
        Front::Routed(cluster) => {
            let shard = cluster.shards[0].addr();
            let mut clients = workload::connect(shard, kind.clients());
            let direct = workload::closed_loop(
                inputs,
                &reference,
                shard,
                &mut clients,
                HOP_SECONDS,
                2 << 32,
                None,
            );
            drop(clients);
            loop_failures(&direct, "direct-to-shard loop", &mut problems);
            tally.merge(direct.tally());
            RouterLedger {
                p50_routed: p50_plain,
                p50_direct: percentile(&direct.sorted_ms(), 50.0),
                handle_ms: replay
                    .router_handle_ms
                    .expect("routed replays time the router"),
                fanout_per_batch: stats::ratio(
                    window.shard_frames_in as f64,
                    plain.calls.len() as f64,
                ),
                routed_per_req: ledger::per(window.routed, requests),
                failovers: window.failovers,
            }
        }
        Front::Direct { .. } => {
            let cluster = Cluster::start(&system.content, inputs);
            let before = (cluster.router.router_stats(), cluster.shard_stats());
            let front = cluster.front.addr();
            let mut clients = workload::connect(front, kind.clients());
            let mut routed = workload::closed_loop(
                inputs,
                &reference,
                front,
                &mut clients,
                HOP_SECONDS,
                2 << 32,
                None,
            );
            drop(clients);
            settle_emulations(&system, &mut routed);
            loop_failures(&routed, "routed loop", &mut problems);
            tally.merge(routed.tally());
            let after = (cluster.router.router_stats(), cluster.shard_stats());
            let frames = |s: &[NetStats]| s.iter().map(|x| x.frames_in).sum::<u64>();
            let handle_ms = ledger::router_handle(&tracer, &cluster.router, &replay_batches);
            cluster.shutdown();
            RouterLedger {
                p50_routed: percentile(&routed.sorted_ms(), 50.0),
                p50_direct: p50_plain,
                handle_ms,
                fanout_per_batch: stats::ratio(
                    (frames(&after.1) - frames(&before.1)) as f64,
                    routed.calls.len() as f64,
                ),
                routed_per_req: ledger::per(
                    after.0.routed - before.0.routed,
                    routed.requests_sent(inputs),
                ),
                failovers: after.0.failovers - before.0.failovers,
            }
        }
    };

    // store, emulator, sht, stats and linalg.
    let store = ledger::store(&tracer, &system.content.archive);
    let serve_only_ms = (kind == Kind::SlicesCold)
        .then(|| ledger::serve_all_hits(&system.content, inputs, &replay_batches));
    let (emulator, train_s) = match &system.content.emulator {
        Some(em) => (em.clone(), system.train_s),
        None => {
            let em_inputs = workload::make_inputs(Kind::Emulate, args.seed);
            let t = Instant::now();
            let em = workload::train(&em_inputs);
            (em, t.elapsed().as_secs_f64())
        }
    };
    let seeds = ledger::emulate_seeds(inputs);
    let emu = match ledger::emulator(&tracer, &emulator, &seeds) {
        Ok(e) => e,
        Err(e) => {
            problems.push(e);
            return failed_outcome(tally, problems);
        }
    };
    let chol = match ledger::cholesky(&tracer, &emulator) {
        Ok(c) => c,
        Err(e) => {
            problems.push(e);
            return failed_outcome(tally, problems);
        }
    };
    let client_stats = (
        plain.client.retries + traced.client.retries,
        plain.client.reconnects + traced.client.reconnects,
    );
    system.shutdown();

    // Timing-based validity checks.
    let coverage = emu.coverage;
    if kind == Kind::Emulate && coverage < MIN_STAGE_COVERAGE {
        problems.push(format!(
            "emulate: the named stages cover {:.1}% of emulator.emulate_ms; at least {:.0}% is required",
            coverage * 100.0,
            MIN_STAGE_COVERAGE * 100.0
        ));
    }
    let decodes_per_batch = stats::ratio(window.chunk_decodes as f64, plain.calls.len() as f64);
    let store_ms_per_batch = decodes_per_batch * store.chunk_read_us / 1e3;
    if let Some(serve_ms) = serve_only_ms {
        if store_ms_per_batch <= serve_ms || store_ms_per_batch <= replay.encode_ms {
            problems.push(format!(
                "slices_cold: store decode + CRC ({store_ms_per_batch:.3} ms per batch) is not the \
                 largest server-side stage (serve without decodes {serve_ms:.3} ms, wire encode {:.3} ms)",
                replay.encode_ms
            ));
        }
    }
    if router.failovers != 0 {
        problems.push(format!(
            "router.failovers is {} on a fault-free run",
            router.failovers
        ));
    }

    // Self times over complete call trees: traced calls without replayed
    // children would count their whole duration as network time.
    let spans = tracer.spans();
    let replayed: std::collections::BTreeSet<u64> = spans
        .iter()
        .filter(|s| s.parent.is_some())
        .map(|s| s.call)
        .collect();
    let complete: Vec<trace::Span> = spans
        .iter()
        .filter(|s| s.name != workload::CALL_SPAN || replayed.contains(&s.call))
        .cloned()
        .collect();
    let self_ms = trace::layer_self_ms(&complete);
    let span_path = std::path::PathBuf::from(format!(
        ".bench_out/spans-{}-seed{}.jsonl",
        kind.name(),
        args.seed
    ));
    if let Err(e) = tracer.write_jsonl(&span_path) {
        eprintln!("ecnbench: could not write {}: {e}", span_path.display());
    }

    let n = emulator.config.coeff_dim() as f64;
    let per_req = |c: u64| ledger::per(c, requests);
    let self_of = |layer: &str| self_ms.get(layer).copied().unwrap_or(0.0);
    let (wall_req_per_s, wall_bytes_per_s) = plain.rates();
    let metrics = vec![
        metric("wall.req_per_s", wall_req_per_s, "1/s"),
        metric(
            "wall.mib_per_s",
            wall_bytes_per_s / (1 << 20) as f64,
            "MiB/s",
        ),
        metric("wall.p50_ms", p50_plain, "ms"),
        metric("wall.p90_ms", percentile(&plain.sorted_ms(), 90.0), "ms"),
        metric("emulator.emulate_ms", emu.emulate_ms, "ms"),
        metric("emulator.train_s", train_s, "s"),
        metric("emulator.other_ms", emu.other_ms, "ms"),
        metric("emulator.stage_coverage", coverage, "ratio"),
        metric("sht.plan_ms", emu.plan_ms, "ms"),
        metric("sht.synthesis_ms", emu.synthesis_ms, "ms"),
        metric("sht.analysis_ms", emu.analysis_ms, "ms"),
        metric("stats.sample_path_ms", emu.sample_path_ms, "ms"),
        metric("stats.mean_series_ms", emu.mean_series_ms, "ms"),
        metric("linalg.cholesky_ms.dp", chol[0], "ms"),
        metric("linalg.cholesky_ms.dp_sp", chol[1], "ms"),
        metric("linalg.cholesky_ms.dp_hp", chol[2], "ms"),
        metric("linalg.cholesky_flops", n * n * n / 3.0, "count"),
        metric("store.chunk_read_us", store.chunk_read_us, "us"),
        metric("store.decode_mib_per_s", store.decode_mib_per_s, "MiB/s"),
        metric(
            "store.decodes_per_req",
            per_req(window.chunk_decodes),
            "count",
        ),
        metric("serve.handle_batch_ms", replay.handle_batch_ms, "ms"),
        metric(
            "serve.coalesce_ratio",
            stats::ratio(window.chunk_fetches as f64, window.chunk_touches as f64),
            "ratio",
        ),
        metric("cache.hit_ratio", hit_ratio(&window), "ratio"),
        metric(
            "cache.evictions_per_req",
            per_req(window.evictions),
            "count",
        ),
        metric("cache.flight_waits", window.flight_waits as f64, "count"),
        metric("wire.encode_response_ms", replay.encode_ms, "ms"),
        metric("wire.decode_response_ms", replay.decode_ms, "ms"),
        metric("wire.bytes_per_req", per_req(window.bytes_out), "B"),
        metric(
            "net.transport_ms",
            stats::net_transport_ms(
                router.p50_direct,
                replay.handle_batch_ms,
                replay.encode_ms,
                replay.decode_ms,
            ),
            "ms",
        ),
        metric(
            "net.frames_out_per_req",
            per_req(window.frames_out),
            "count",
        ),
        metric(
            "net.stream_frames_per_req",
            per_req(window.stream_frames_out),
            "count",
        ),
        metric(
            "net.reactor_wakeups_per_req",
            per_req(window.reactor_wakeups),
            "count",
        ),
        metric("net.wire_errors", window.wire_errors as f64, "count"),
        metric("net.shed", window.shed as f64, "count"),
        metric("client.retries", client_stats.0 as f64, "count"),
        metric("client.reconnects", client_stats.1 as f64, "count"),
        metric("router.handle_batch_ms", router.handle_ms, "ms"),
        metric(
            "router.hop_ms",
            stats::router_hop_ms(router.p50_routed, router.p50_direct),
            "ms",
        ),
        metric("router.fanout_per_batch", router.fanout_per_batch, "count"),
        metric("router.routed_per_req", router.routed_per_req, "count"),
        metric("router.failovers", router.failovers as f64, "count"),
        metric("self.emulator_ms", self_of("emulator"), "ms"),
        metric("self.sht_ms", self_of("sht"), "ms"),
        metric("self.stats_ms", self_of("stats"), "ms"),
        metric("self.linalg_ms", self_of("linalg"), "ms"),
        metric("self.store_ms", self_of("store"), "ms"),
        metric("self.serve_ms", self_of("serve"), "ms"),
        metric("self.wire_ms", self_of("wire"), "ms"),
        metric("self.net_ms", self_of("net"), "ms"),
        metric("self.router_ms", self_of("router"), "ms"),
        metric("trace.overhead_ms", p50_traced - p50_plain, "ms"),
    ];
    let mut report = vec![format!(
        "traced run of {}: {} spans written to {}; untraced p50 {p50_plain:.3} ms, traced p50 \
         {p50_traced:.3} ms; stages cover {:.1}% of emulate",
        kind.name(),
        spans.len(),
        span_path.display(),
        coverage * 100.0
    )];
    report.extend(
        metrics
            .iter()
            .map(|x| format!("  {:<28} {:>14.4} {}", x.name, x.value, x.unit)),
    );
    Outcome {
        tally,
        metrics,
        problems,
        report,
    }
}

/// Router-layer numbers of a traced run.
struct RouterLedger {
    /// Median routed call.
    p50_routed: f64,
    /// Median call of the same batches sent straight to one shard.
    p50_direct: f64,
    /// Median in-process `Router::handle_batch`.
    handle_ms: f64,
    /// Shard request frames per routed batch.
    fanout_per_batch: f64,
    /// `RouterStats::routed` per request sent.
    routed_per_req: f64,
    /// `RouterStats::failovers`.
    failovers: u64,
}

fn failed_outcome(tally: Tally, problems: Vec<String>) -> Outcome {
    Outcome {
        tally,
        metrics: Vec::new(),
        problems,
        report: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_declares_every_workload_and_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let names: Vec<&str> = Kind::ALL
            .map(Kind::name)
            .into_iter()
            .chain(END_TO_END)
            .chain(PER_LAYER)
            .collect();
        for name in &names {
            assert!(
                spec.contains(&format!("\"name\": \"{name}\"")),
                "{name} is missing from BENCHMARK.json"
            );
        }
        assert_eq!(spec.matches("\"name\": ").count(), names.len());
    }
}
