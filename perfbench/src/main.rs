//! End-to-end and per-layer benchmark of the FastSC compile and serving
//! stack.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload suite_direct --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Every run compiles the workload in-process, sets up the served stack,
//! serves the workload over loopback TCP, then flushes an artifact store
//! and restarts from it, checking every output on the way. The last line
//! of standard output is one JSON object: end-to-end metrics with
//! `--trace 0`, per-layer metrics with `--trace 1`. `README.md`
//! documents the workloads and the metrics.

mod check;
mod serve;
mod spans;
mod stats;
mod workload;

use fastsc_bench::geomean;
use fastsc_core::batch::CompileJob;
use fastsc_core::router::route;
use fastsc_core::{CompileContext, CompiledProgram, Compiler, CompilerConfig, Strategy};
use fastsc_device::Device;
use fastsc_ir::decompose::decompose;
use fastsc_ir::optimize::peephole;
use fastsc_ir::qasm::from_qasm;
use fastsc_noise::{estimate, NoiseConfig};
use fastsc_service::{CompileService, RoundRobin};
use fastsc_workloads::scale_tiers;
use serve::{Load, Phase};
use spans::{fold_self_times, valid_metric_name, Recorder};
use stats::{percentile, quartiles};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use workload::{
    Workload, LO_PARTS, LO_RATE, PHASE_SHARES, ROUNDS, SAT_BURST, SAT_RATE, UNIQUE_PRIME,
    WINDOW,
};

/// Warm restarts per run; `store.restart_s` is the fastest.
const RESTART_REPS: usize = 5;
/// Requests served before the store flush; each restart serves them
/// again.
const STORE_REQUESTS: usize = 32;
/// Jobs per `compile_batch` call in the batch phase.
const BATCH_CHUNK: usize = 256;
/// Items the batch phase cycles through, at most: few enough chunks that
/// each one is compiled many times in a run, so its median time is
/// steady.
const BATCH_ITEMS: usize = 1024;
/// 1024-qubit programs compiled both whole and partitioned for
/// `core.partition.ratio`.
const PARTITION_SAMPLE: usize = 8;
/// Payloads parsed for `ir.qasm_parse_*`.
const PARSE_SAMPLE: usize = 2000;
/// The Fig. 9 plot floor: programs whose ColorDynamic success is below
/// it are left out of the ColorDynamic / Baseline U ratio, as the Fig. 9
/// binary leaves them out.
const PLOT_FLOOR: f64 = 1e-4;
/// Clamp of the geometric means, as the Fig. 9 binary applies it.
const GEOMEAN_FLOOR: f64 = 1e-6;
/// A served phase stops offering after this many times its planned
/// length, so a much slower stack still ends the run in time.
const SAT_OVERRUN: f64 = 5.0;
/// Where runs keep scratch files (the artifact store, span dumps),
/// relative to the working directory.
const SCRATCH_DIR: &str = ".perfbench";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: HashMap<&str, &str> = HashMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => {
                flags.insert(flag.as_str(), value.as_str());
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let get = |k: &str| flags.get(k).copied().ok_or_else(|| format!("missing {k}"));
    let seconds: f64 = get("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload: get("--workload")?.to_owned(),
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
    })
}

fn main() -> ExitCode {
    // One rayon worker, for the in-process batch and the server's
    // compiles alike: on a host of two shared cores, a second worker
    // beside the server's wire threads and the load generator
    // oversubscribes the cores, and the rates then measure the scheduler.
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                workload::NAMES.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let Some(w) = workload::build(&args.workload, args.seed, args.seconds) else {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    };
    let scratch = PathBuf::from(SCRATCH_DIR).join(format!("{}-{}", w.name, std::process::id()));
    std::fs::create_dir_all(&scratch).expect("scratch directory is writable");
    let mut rec = Recorder::new(args.trace);
    let (metrics, tally) = run(&w, args.seed, args.seconds, &mut rec, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    if args.trace {
        let dump =
            PathBuf::from(SCRATCH_DIR).join(format!("spans-{}-{}.jsonl", w.name, args.seed));
        std::fs::write(&dump, rec.to_json_lines()).expect("span dump is writable");
        eprintln!("benchmark-side spans written to {}", dump.display());
    }

    let mut body = Vec::new();
    for (name, value, unit) in &metrics.0 {
        assert!(valid_metric_name(name), "invalid metric name {name:?}");
        eprintln!("{name:>28} {value:>16.6} {unit}");
        body.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.wrong == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}

/// JSON has no NaN or infinity; a metric that could not be measured is
/// reported as `null`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// Metrics in output order: name, value, unit.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }
}

/// Correctness bookkeeping of one run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    wrong: u64,
}

impl Tally {
    /// Counts one operation; `problem` says what went wrong, if anything.
    /// `wrong` marks an incorrect output, as opposed to a failed
    /// operation.
    fn count(&mut self, problem: Option<String>, wrong: bool) {
        self.attempted += 1;
        if let Some(p) = problem {
            eprintln!("FAILED: {p}");
            self.failed += 1;
            self.wrong += u64::from(wrong);
        }
    }
}

/// In-process compilers, one per workload device, each over a context
/// built here (timed) with its static assignment solved.
struct InProcess {
    compilers: Vec<Compiler>,
    build_s: f64,
    statics_s: f64,
}

fn in_process(w: &Workload) -> InProcess {
    let mut out = InProcess { compilers: Vec::new(), build_s: 0.0, statics_s: 0.0 };
    for device in &w.devices {
        let t = Instant::now();
        let context = CompileContext::new(device.clone(), w.config).expect("context builds");
        out.build_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        context.statics().expect("static assignment solves");
        out.statics_s += t.elapsed().as_secs_f64();
        out.compilers.push(Compiler::with_context(Arc::new(context)));
    }
    out
}

/// The schedule digest of each (pool item, device) compiled in-process:
/// the reference every other path must match. Each schedule is checked
/// once, when first recorded.
struct References<'a> {
    w: &'a Workload,
    compilers: &'a [Compiler],
    digests: HashMap<(usize, usize), u64>,
}

impl References<'_> {
    /// Checks `compiled` (item `item` on device `device`) and records its
    /// digest.
    fn record(
        &mut self,
        item: usize,
        device: usize,
        compiled: &CompiledProgram,
        t: &mut Tally,
    ) {
        let it = &self.w.pool[item];
        let compiler = &self.compilers[device];
        let config = compiler.config();
        let routed = route(&it.circuit, compiler.device()).expect("program routes");
        let lowered = peephole(&decompose(&routed.circuit, config.decomposition));
        let verdict = check::check(
            compiler.device(),
            config.crosstalk_distance,
            config.smt_tolerance,
            &lowered,
            &compiled.schedule,
            it.strategy,
        );
        t.count(verdict.err().map(|v| format!("item {item} ({}): {v}", it.strategy)), true);
        self.digests.insert((item, device), compiled.schedule.stable_hash());
    }

    /// The digest of `item` compiled on `device`, compiling and checking
    /// it on first use.
    fn digest(&mut self, item: usize, device: usize, t: &mut Tally) -> Option<u64> {
        if !self.digests.contains_key(&(item, device)) {
            let it = &self.w.pool[item];
            match self.compilers[device].compile(&it.circuit, it.strategy) {
                Ok(compiled) => self.record(item, device, &compiled, t),
                Err(e) => {
                    t.count(Some(format!("compile of item {item}: {e}")), false);
                    return None;
                }
            }
        }
        self.digests.get(&(item, device)).copied()
    }
}

/// Checks one closed-loop answer (serving shard and schedule digest)
/// for `item` against a fresh in-process compile on that shard's device.
fn check_answer(
    refs: &mut References,
    tally: &mut Tally,
    item: usize,
    answer: Option<(usize, u64)>,
) {
    let problem = match answer {
        Some((shard, digest)) => {
            let device = refs.w.fleet[shard];
            (refs.digest(item, device, tally) != Some(digest))
                .then(|| format!("served schedule of item {item} differs from a fresh compile"))
        }
        None => Some(format!("request for item {item} failed")),
    };
    tally.count(problem, answer.is_some());
}

fn run(
    w: &Workload,
    seed: u64,
    seconds: f64,
    rec: &mut Recorder,
    scratch: &Path,
) -> (Metrics, Tally) {
    let traced = rec.enabled();
    let [serial_s, batch_s, _, _] = PHASE_SHARES.map(|s| s * seconds);
    let [lo_n, sat_n] = workload::slice_counts(seconds);
    let mut tally = Tally::default();

    // ---- In-process: contexts, then one checked compile of everything. ----
    let inproc = in_process(w);
    let mut refs = References { w, compilers: &inproc.compilers, digests: HashMap::new() };
    let quality_items: HashSet<usize> = w.quality.iter().flat_map(|&(a, b)| [a, b]).collect();
    let mut smt_calls = 0usize;
    let mut success: HashMap<usize, f64> = HashMap::new();
    for &i in w.items.iter().chain(&quality_items) {
        let it = &w.pool[i];
        let compiler = &inproc.compilers[it.device];
        match compiler.compile(&it.circuit, it.strategy) {
            Ok(compiled) => {
                smt_calls += compiled.stats.smt_calls;
                if quality_items.contains(&i) {
                    let report = estimate(
                        compiler.device(),
                        &compiled.schedule,
                        &NoiseConfig::default(),
                    );
                    success.insert(i, report.p_success);
                }
                refs.record(i, it.device, &compiled, &mut tally);
            }
            Err(e) => tally.count(Some(format!("compile of item {i}: {e}")), false),
        }
    }

    // ---- Served stack: cold set-up to first warm answer. ----
    let fleet_devices: Vec<_> = w.fleet.iter().map(|&d| w.devices[d].clone()).collect();
    let (mut server, first_setup) = set_up(&fleet_devices, w.config);
    let mut setups = vec![first_setup];
    // A repeating stream is measured in steady state: each distinct
    // request is served once first, so the rounds read the cache.
    if !w.unique {
        let mut distinct = w.stream.clone();
        distinct.sort_unstable();
        distinct.dedup();
        let mut client = serve::connect(&server);
        for (i, answer) in serve::serve_all(&mut client, &w.pool, &distinct) {
            check_answer(&mut refs, &mut tally, i, answer);
        }
    }

    // ---- Measured rounds. ----
    let mut serial = Serial::default();
    let mut batch = Batch::new(w, &inproc);
    let (mut lo, mut lo_traced, mut sat) = (Vec::new(), Vec::new(), Vec::new());
    let mut pos = 0usize;
    let mut phase = |load: Load, traced_phase: bool| {
        let p =
            serve::run_phase(&server, &w.pool, &w.stream, pos, !w.unique, load, traced_phase);
        pos += p.consumed;
        p
    };
    // A unique stream is measured in steady state too: its first requests
    // fill every shard's schedule cache, so the rounds find the caches
    // evicting, as sustained unique traffic keeps them.
    let mut prime = Vec::new();
    if w.unique {
        let max_seconds = SAT_OVERRUN * UNIQUE_PRIME as f64 / SAT_RATE;
        let load = Load { window: WINDOW, count: UNIQUE_PRIME, max_seconds };
        prime.push(phase(load, false));
    }
    let low = Load { window: 1, count: lo_n, max_seconds: SAT_OVERRUN * lo_n as f64 / LO_RATE };
    let burst = Load {
        window: WINDOW,
        count: SAT_BURST,
        max_seconds: SAT_OVERRUN * SAT_BURST as f64 / SAT_RATE,
    };
    for _ in 0..ROUNDS {
        // One more cold fleet per round, beside the idle served one, so
        // the set-ups sample the host's speed over the whole run.
        setups.push(set_up(&fleet_devices, w.config).1);
        serial_loop(w, &inproc, serial_s / ROUNDS as f64, rec, &mut serial);
        batch.run(batch_s / ROUNDS as f64, &refs, &mut tally);
        for _ in 0..LO_PARTS {
            lo.push(phase(low, false));
            if traced {
                lo_traced.push(phase(low, true));
            }
        }
        for _ in 0..sat_n / SAT_BURST {
            sat.push(phase(burst, false));
        }
    }
    let batch_rate = batch.compiled as f64 / batch.elapsed_s;
    let batch_slices = std::mem::take(&mut batch.slice_rates);
    let batch_per_s = batch.median_rate();
    drop(batch);

    // Every served schedule must equal a fresh in-process compile of the
    // same circuit and strategy on the device of the shard that served it.
    for p in prime.iter().chain(&lo).chain(&lo_traced).chain(&sat) {
        if p.ran_dry {
            tally.count(Some("request stream ran dry".into()), false);
        }
        for _ in 0..p.refused {
            tally.count(Some("submission refused".into()), false);
        }
        for o in &p.outcomes {
            let answered = o.ok && o.arrived.is_some();
            let problem = match (answered, o.shard) {
                (true, Some(shard)) => {
                    let want = refs.digest(o.item, w.fleet[shard], &mut tally);
                    (want != o.schedule_hash).then(|| {
                        format!(
                            "served schedule of item {} differs from a fresh compile",
                            o.item
                        )
                    })
                }
                _ => Some(format!("request for item {} failed: {:?}", o.item, o.code)),
            };
            tally.count(problem, answered);
        }
    }
    let per_burst: Vec<f64> = sat
        .iter()
        .map(|p| p.outcomes.iter().filter(|o| o.ok).count() as f64 / p.elapsed_s)
        .collect();
    // A stall of the host only ever lowers a burst's rate, and some last
    // for many bursts, so the rate the stack reaches is read from its
    // better bursts.
    let throughput = percentile(&per_burst, 90.0);
    let queue_stats = server.queue().stats();
    let cache = server.queue().service().cache_stats_total();
    server.shutdown();
    drop(server);

    // ---- Store: serve a few requests, flush, restart warm. ----
    let first: Vec<usize> = w.items.iter().copied().take(STORE_REQUESTS).collect();
    let store_path = scratch.join("artifacts.store");
    let store = serve::store_cycle(
        &fleet_devices,
        w.config,
        &store_path,
        &w.pool,
        &first,
        RESTART_REPS,
    );
    for &(item, answer) in &store.answers {
        check_answer(&mut refs, &mut tally, item, answer);
    }

    let mut m = Metrics::default();
    if !traced {
        let ok_frac = 1.0 - tally.failed as f64 / tally.attempted as f64;
        m.put("setup_s", median(&setups), "s");
        m.put("compile_p50_us", percentile(&serial.compile_us, 50.0), "us");
        m.put("compile_p99_us", low_quartile(&serial.per_slice(99.0)), "us");
        m.put("batch_per_s", batch_per_s, "programs/s");
        m.put(
            "success_geomean",
            geomean(&quality_cd(w, &success), GEOMEAN_FLOOR),
            "probability",
        );
        m.put("success_gain_vs_u", geomean(&quality_gain(w, &success), GEOMEAN_FLOOR), "x");
        m.put("lo_p50_ms", percentile(&latencies_ms(&lo), 50.0), "ms");
        m.put("throughput_per_s", throughput, "jobs/s");
        m.put("ok_frac", ok_frac, "ratio");
        m.put("peak_rss_mb", peak_rss_mb(), "MB");
        let (q, _) = quartiles(&serial.compile_us);
        let (b, _) = quartiles(&per_burst);
        let lo_rounds: Vec<f64> =
            lo.chunks(LO_PARTS).map(|parts| percentile(&latencies_ms(parts), 50.0)).collect();
        let sat_rounds: Vec<f64> = per_burst.chunks(sat_n / SAT_BURST).map(median).collect();
        eprintln!(
            "{}: per round: lo p50 {lo_rounds:.3?} ms; median burst {sat_rounds:.0?} jobs/s",
            w.name
        );
        eprintln!(
            "{}: set-ups {setups:.3?} s; batch {batch_slices:.0?} programs/s; saturation \
             bursts {:.0} / {:.0} / {:.0} jobs/s; {} serial compiles (quartiles {:.1} / {:.1} \
             / {:.1} us); served {} lo, {} saturation requests",
            w.name,
            b[0],
            b[1],
            b[2],
            serial.compile_us.len(),
            q[0],
            q[1],
            q[2],
            lo.iter().map(|p| p.outcomes.len()).sum::<usize>(),
            sat.iter().map(|p| p.outcomes.len()).sum::<usize>()
        );
        return (m, tally);
    }

    // ---- Traced pass: per-layer metrics. ----
    let parse_us = parse_payloads(w, rec, &mut tally);
    let (whole_us, part_us) = partition_compare(seed);
    let server_side = fold_server_traces(&lo_traced);
    let p = |name: &str, q: f64| {
        percentile(server_side.self_us.get(name).map_or(&[][..], |v| v), q)
    };
    let ack_us: Vec<f64> = lo_traced
        .iter()
        .flat_map(|p| &p.outcomes)
        .map(|o| o.acked.duration_since(o.sent).as_secs_f64() * 1e6)
        .collect();
    let late: Vec<f64> = lo.iter().chain(&lo_traced).flat_map(Phase::reaction_ms).collect();
    let smt_memo_len: usize = inproc
        .compilers
        .iter()
        .map(|c| c.context().map(|ctx| ctx.smt_memo_len()).unwrap_or(0))
        .sum();
    let untraced_p50 = percentile(&latencies_ms(&lo), 50.0);

    m.put("ir.qasm_parse_p50_us", percentile(&parse_us, 50.0), "us");
    m.put("ir.qasm_parse_p99_us", percentile(&parse_us, 99.0), "us");
    m.put("ir.lower_us", percentile(&serial.lower_us, 50.0), "us");
    m.put("core.router.route_us", percentile(&serial.route_us, 50.0), "us");
    m.put("core.engine_us", percentile(&serial.engine_us, 50.0), "us");
    m.put("core.context.build_s", inproc.build_s, "s");
    m.put("core.context.statics_s", inproc.statics_s, "s");
    m.put("core.context.smt_calls", smt_calls as f64, "count");
    m.put("core.context.smt_memo_len", smt_memo_len as f64, "count");
    m.put(
        "core.partition.ratio",
        percentile(&part_us, 50.0) / percentile(&whole_us, 50.0),
        "ratio",
    );
    m.put("core.whole_us", percentile(&whole_us, 50.0), "us");
    let serial_rate =
        serial.compile_us.len() as f64 / (serial.compile_us.iter().sum::<f64>() * 1e-6);
    m.put("core.batch.speedup", batch_rate / serial_rate, "ratio");
    m.put(
        "service.cache.hit_ratio",
        cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64,
        "ratio",
    );
    m.put("service.cache.evictions", cache.evictions as f64, "count");
    m.put("service.route_us", p("route", 50.0), "us");
    m.put("service.attempt_self_us", p("attempt", 50.0), "us");
    m.put("queue.admission_p50_us", p("admission", 50.0), "us");
    m.put("queue.admission_p99_us", p("admission", 99.0), "us");
    m.put("queue.wait_p50_us", p("queue_wait", 50.0), "us");
    m.put("queue.wait_p99_us", p("queue_wait", 99.0), "us");
    m.put("queue.rejected", queue_stats.rejected as f64, "count");
    m.put("queue.retried", queue_stats.retried as f64, "count");
    m.put("server.submit_ack_us", percentile(&ack_us, 50.0), "us");
    m.put("server.wire_us", percentile(&server_side.wire_us, 50.0), "us");
    m.put("store.flush_s", store.flush_s, "s");
    m.put("store.hydrate_s", median(&store.hydrate_s), "s");
    m.put("store.bytes_written", store.bytes_written as f64, "bytes");
    m.put("store.restart_s", fastest(&store.restart_s), "s");
    m.put(
        "telemetry.overhead_ratio",
        percentile(&latencies_ms(&lo_traced), 50.0) / untraced_p50,
        "ratio",
    );
    m.put("generator.late_p99_ms", percentile(&late, 99.0), "ms");
    m.put("generator.late_max_ms", percentile(&late, 100.0), "ms");
    m.put("budget.unattributed_share", percentile(&server_side.unattributed, 50.0), "ratio");
    (m, tally)
}

/// A cold fleet, timed until its warm-up has been served; `setup_s` is
/// the median over a run.
fn set_up(devices: &[Device], config: CompilerConfig) -> (fastsc_server::Server, f64) {
    let t = Instant::now();
    let (server, _) = serve::start(devices, config, None);
    serve::warm_up(&server);
    (server, t.elapsed().as_secs_f64())
}

/// What the serial loop measured, per compile.
#[derive(Default)]
struct Serial {
    compile_us: Vec<f64>,
    /// Where each slice starts in `compile_us`.
    slice_starts: Vec<usize>,
    /// Traced pass only: qubit routing, lowering, and the engine's share
    /// (compile minus the two) of the same input.
    route_us: Vec<f64>,
    lower_us: Vec<f64>,
    engine_us: Vec<f64>,
}

impl Serial {
    /// Each slice's `q`-th percentile compile time, µs.
    fn per_slice(&self, q: f64) -> Vec<f64> {
        let mut bounds = self.slice_starts.clone();
        bounds.push(self.compile_us.len());
        bounds.windows(2).map(|w| percentile(&self.compile_us[w[0]..w[1]], q)).collect()
    }
}

/// `Compiler::compile` in a closed loop on one thread, warm, for
/// `seconds`, continuing the cycle through the workload's items where
/// the last slice stopped.
fn serial_loop(
    w: &Workload,
    inproc: &InProcess,
    seconds: f64,
    rec: &mut Recorder,
    s: &mut Serial,
) {
    let traced = rec.enabled();
    let start = Instant::now();
    let first = s.compile_us.len();
    s.slice_starts.push(first);
    while s.compile_us.len() == first || start.elapsed().as_secs_f64() < seconds {
        let k = s.compile_us.len();
        let it = &w.pool[w.items[k % w.items.len()]];
        let compiler = &inproc.compilers[it.device];
        let id = k as u64;
        let root = rec.open(id, None, "item");
        if traced {
            // The layers the compile runs first, timed on the same input.
            let span = rec.open(id, Some(&root), "core.router.route");
            let routed = route(&it.circuit, compiler.device()).expect("program routes");
            s.route_us.push(rec.close(span) * 1e6);
            let span = rec.open(id, Some(&root), "ir.lower");
            let lowered =
                peephole(&decompose(&routed.circuit, compiler.config().decomposition));
            s.lower_us.push(rec.close(span) * 1e6);
            std::hint::black_box(lowered);
        }
        let span = rec.open(id, Some(&root), "core.compile");
        let out = compiler.compile(std::hint::black_box(&it.circuit), it.strategy);
        let us = rec.close(span) * 1e6;
        rec.close(root);
        std::hint::black_box(out.expect("a compile that succeeded once succeeds again"));
        s.compile_us.push(us);
        if traced {
            s.engine_us.push(us - s.route_us[k] - s.lower_us[k]);
        }
    }
}

/// The batch API: per device, a cache-less single-shard
/// `CompileService::compile_batch` (rayon pool of one worker) over chunks
/// of the workload's first [`BATCH_ITEMS`] items.
struct Batch<'a> {
    w: &'a Workload,
    services: BTreeMap<usize, CompileService>,
    chunks: Vec<(usize, Vec<usize>)>,
    /// Seconds of every `compile_batch` call, per chunk.
    chunk_s: Vec<Vec<f64>>,
    next: usize,
    compiled: usize,
    elapsed_s: f64,
    /// Each slice's rate, programs per second.
    slice_rates: Vec<f64>,
}

impl<'a> Batch<'a> {
    fn new(w: &'a Workload, inproc: &InProcess) -> Batch<'a> {
        let mut groups: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
        for &i in w.items.iter().take(BATCH_ITEMS) {
            groups.entry(w.pool[i].device).or_default().push(i);
        }
        let services = groups
            .keys()
            .map(|&d| {
                let mut service = CompileService::new(RoundRobin::new());
                service
                    .register_device_with_cache(w.devices[d].clone(), w.config, 0)
                    .expect("device frequency plan solves");
                // Start from the in-process context's solved state, so the
                // phase measures compiles, not a second statics solve.
                let ours = inproc.compilers[d].context().expect("context built");
                let theirs = service.shard_context(0).expect("shard context builds");
                if let Some(statics) = ours.export_statics() {
                    theirs.seed_statics(statics);
                }
                theirs.seed_smt_memo(ours.export_smt_memo());
                (d, service)
            })
            .collect();
        // The devices' chunks interleaved in proportion, so that every
        // stretch of the cycle, and so every slice, compiles the same mix.
        let mut keyed: Vec<(f64, usize, Vec<usize>)> = groups
            .iter()
            .flat_map(|(&d, items)| {
                let n = items.len().div_ceil(BATCH_CHUNK) as f64;
                items
                    .chunks(BATCH_CHUNK)
                    .enumerate()
                    .map(move |(j, c)| ((j as f64 + 0.5) / n, d, c.to_vec()))
            })
            .collect();
        keyed.sort_by(|a, b| a.0.total_cmp(&b.0));
        let chunks: Vec<_> = keyed.into_iter().map(|(_, d, c)| (d, c)).collect();
        Batch {
            w,
            services,
            chunk_s: vec![Vec::new(); chunks.len()],
            chunks,
            next: 0,
            compiled: 0,
            elapsed_s: 0.0,
            slice_rates: Vec::new(),
        }
    }

    /// Compiles chunks for `seconds`, at least one. The first pass over
    /// each chunk is checked against the in-process references.
    fn run(&mut self, seconds: f64, refs: &References, tally: &mut Tally) {
        let start = Instant::now();
        let first = self.next;
        let before = self.compiled;
        while self.next == first || start.elapsed().as_secs_f64() < seconds {
            let c = self.next % self.chunks.len();
            let (d, items) = &self.chunks[c];
            let jobs: Vec<CompileJob> = items
                .iter()
                .map(|&i| {
                    CompileJob::new(self.w.pool[i].circuit.clone(), self.w.pool[i].strategy)
                })
                .collect();
            let t = Instant::now();
            let results = self.services[d].compile_batch(jobs);
            self.chunk_s[c].push(t.elapsed().as_secs_f64());
            self.compiled += results.len();
            if self.next < self.chunks.len() {
                for (&i, r) in items.iter().zip(&results) {
                    let got = r.as_ref().ok().map(|r| r.compiled.schedule.stable_hash());
                    let problem = (got.is_none() || got != refs.digests.get(&(i, *d)).copied())
                        .then(|| {
                            format!("batch result of item {i} differs from Compiler::compile")
                        });
                    tally.count(problem, got.is_some());
                }
            }
            self.next += 1;
        }
        let elapsed = start.elapsed().as_secs_f64();
        self.elapsed_s += elapsed;
        self.slice_rates.push((self.compiled - before) as f64 / elapsed);
    }

    /// Programs per second over one pass of the chunks, each chunk timed
    /// by the median of its calls: a host stall slows a few calls, which
    /// the medians leave out.
    fn median_rate(&self) -> f64 {
        let (mut programs, mut seconds) = (0usize, 0.0);
        for ((_, items), times) in self.chunks.iter().zip(&self.chunk_s) {
            if !times.is_empty() {
                programs += items.len();
                seconds += median(times);
            }
        }
        programs as f64 / seconds
    }
}

/// ColorDynamic worst-case success of every quality program.
fn quality_cd(w: &Workload, success: &HashMap<usize, f64>) -> Vec<f64> {
    w.quality.iter().map(|(cd, _)| success[cd]).collect()
}

/// ColorDynamic / Baseline U success per quality program above the plot
/// floor, Baseline U clamped as the Fig. 9 binary clamps it.
fn quality_gain(w: &Workload, success: &HashMap<usize, f64>) -> Vec<f64> {
    w.quality
        .iter()
        .filter(|(cd, _)| success[cd] >= PLOT_FLOOR)
        .map(|(cd, u)| success[cd] / success[u].max(GEOMEAN_FLOOR))
        .collect()
}

/// Latencies of the successful requests of every slice, ms.
fn latencies_ms(slices: &[Phase]) -> Vec<f64> {
    slices.iter().flat_map(Phase::latencies_ms).collect()
}

/// The first quartile of per-slice timings. A stall of the host only
/// ever adds time, so the slices it hit read high and fall above the
/// quartile, while a change that slows every request moves every slice.
fn low_quartile(values: &[f64]) -> f64 {
    quartiles(values).0[0]
}

/// The median of repeated measurements.
fn median(values: &[f64]) -> f64 {
    quartiles(values).0[1]
}

/// The fastest of repeated timings: a stall of the host only ever adds
/// time, so the fastest repetition is the one it spared.
fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// `from_qasm` on the served payloads (up to [`PARSE_SAMPLE`] distinct
/// ones), each checked to parse back to its program. Returns µs each.
fn parse_payloads(w: &Workload, rec: &mut Recorder, tally: &mut Tally) -> Vec<f64> {
    let mut payloads = w.stream.clone();
    payloads.sort_unstable();
    payloads.dedup();
    let mut us = Vec::new();
    for (n, &i) in payloads.iter().take(PARSE_SAMPLE).enumerate() {
        let span = rec.open(n as u64, None, "ir.qasm_parse");
        let parsed = from_qasm(std::hint::black_box(&w.pool[i].qasm));
        us.push(rec.close(span) * 1e6);
        let same =
            parsed.is_ok_and(|c| c.structural_hash() == w.pool[i].circuit.structural_hash());
        tally.count((!same).then(|| format!("QASM of item {i} does not parse back")), true);
    }
    us
}

/// Whole-device and partitioned compiles of the 1024-qubit XEB scale tier
/// under ColorDynamic, both warm, interleaved: partitioning only engages
/// on 1000+ qubit devices, which no workload serves. Returns (whole µs,
/// partitioned µs).
fn partition_compare(seed: u64) -> (Vec<f64>, Vec<f64>) {
    let tier = scale_tiers()[2];
    let device = Device::grid(tier.side, tier.side, tier.seed);
    let compilers = [CompilerConfig::default(), CompilerConfig::with_partition_auto()]
        .map(|config| Compiler::new(device.clone(), config));
    let programs: Vec<_> = (0..PARTITION_SAMPLE as u64)
        .map(|i| tier.benchmark().build(seed.wrapping_add(i)))
        .collect();
    let mut us = [Vec::new(), Vec::new()];
    // Pass 0 warms both contexts and is not timed.
    for pass in 0..3 {
        for program in &programs {
            for (side, compiler) in compilers.iter().enumerate() {
                let t = Instant::now();
                let out = compiler.compile(program, Strategy::ColorDynamic);
                let elapsed = t.elapsed().as_secs_f64() * 1e6;
                std::hint::black_box(out.expect("ColorDynamic compiles"));
                if pass > 0 {
                    us[side].push(elapsed);
                }
            }
        }
    }
    let [whole, part] = us;
    (whole, part)
}

/// Server-side layers of traced jobs.
struct ServerSide {
    /// Self time per span name, µs, one entry per job.
    self_us: BTreeMap<String, Vec<f64>>,
    /// Client-observed latency minus the job's root span, µs.
    wire_us: Vec<f64>,
    /// Share of each job's client-observed latency that no named layer
    /// covers: the time outside the root span plus the root's self time.
    unattributed: Vec<f64>,
}

fn fold_server_traces(slices: &[Phase]) -> ServerSide {
    let mut out =
        ServerSide { self_us: BTreeMap::new(), wire_us: Vec::new(), unattributed: Vec::new() };
    for o in slices.iter().flat_map(|p| &p.outcomes).filter(|o| o.ok) {
        let (Some(tree), Some(arrived)) = (&o.trace, o.arrived) else { continue };
        let mut selfs = BTreeMap::new();
        fold_self_times(tree, &mut selfs);
        for name in ["admission", "queue_wait", "route", "attempt"] {
            let ns = selfs.get(name).copied().unwrap_or(0.0);
            out.self_us.entry(name.to_owned()).or_default().push(ns / 1e3);
        }
        let client_ns = arrived.duration_since(o.sent).as_secs_f64() * 1e9;
        out.wire_us.push((client_ns - tree.dur_ns()) / 1e3);
        let root_self = selfs.get(&tree.name).copied().unwrap_or(0.0);
        out.unattributed.push((client_ns - tree.dur_ns() + root_self) / client_ns);
    }
    out
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
