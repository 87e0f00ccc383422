//! The served stack over loopback TCP: start-up, the load generator and
//! the completion subscriber, the store flush and the warm restart.
//!
//! Load comes from one process: one connection submits, a second
//! connection of the same tenant subscribes to completions, so a slow
//! completion never holds up the submitter.

use crate::spans::Node;
use crate::workload::{warmup_circuit, Item};
use fastsc_core::{CompilerConfig, Strategy};
use fastsc_device::Device;
use fastsc_ir::qasm::to_qasm;
use fastsc_queue::{QueueConfig, QueueService};
use fastsc_server::{Client, Json, Server, TenantConfig};
use fastsc_service::{CapacityAware, CompileService};
use fastsc_store::ArtifactStore;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TOKEN: &str = "perfbench-token";
/// How long the subscriber waits for outstanding completions after the
/// last submission before it counts them as lost.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);
/// Longest wait for one warm-up or restart request.
const WAIT_MS: u64 = 60_000;

/// A tenant whose rate limit and quota never throttle the benchmark:
/// refusals would measure admission control, not the stack.
fn tenant() -> TenantConfig {
    TenantConfig {
        token: TOKEN.to_owned(),
        name: "perfbench".to_owned(),
        client: 1,
        max_inflight: 1 << 20,
        rate_per_sec: 1e9,
        burst: u32::MAX,
    }
}

/// An authenticated connection.
pub fn connect(server: &Server) -> Client {
    let mut client = Client::connect(server.addr()).expect("loopback connect");
    client.hello(TOKEN).expect("benchmark token authenticates");
    client
}

/// Starts a fleet over `devices` behind a queue and a loopback server,
/// with `store`, if any, attached before any shard joins. Returns the
/// server and the seconds the shards took to join (hydration, when a
/// store holds artifacts for them).
pub fn start(
    devices: &[Device],
    config: CompilerConfig,
    store: Option<Arc<ArtifactStore>>,
) -> (Server, f64) {
    let service = CompileService::new(CapacityAware::new());
    if let Some(store) = store {
        service.attach_store(store);
    }
    let joined = Instant::now();
    for device in devices {
        service.add_shard(device.clone(), config).expect("device frequency plan solves");
    }
    let join_s = joined.elapsed().as_secs_f64();
    for shard in 0..service.shard_count() {
        let context = service.shard_context(shard).expect("shard context builds");
        context.statics().expect("static assignment solves");
    }
    let queue = QueueService::new(service, QueueConfig::default());
    (Server::start(queue, vec![tenant()]).expect("loopback bind"), join_s)
}

/// Serves the warm-up program once under every strategy and waits for
/// each result, so the first measured request finds a warm stack.
pub fn warm_up(server: &Server) {
    let mut client = connect(server);
    let qasm = to_qasm(&warmup_circuit());
    for strategy in Strategy::all() {
        let job = client
            .submit(&qasm, &strategy.to_string(), "batch", None)
            .expect("warm-up submission admitted");
        let outcome = client.wait(job, WAIT_MS).expect("warm-up wait answers");
        assert!(outcome.is_some_and(|o| o.ok), "warm-up compile under {strategy} failed");
    }
}

/// How a phase offers its requests: `count` requests, each submitted as
/// soon as fewer than `window` are in flight (a closed loop); offering
/// stops early after `max_seconds`.
#[derive(Debug, Clone, Copy)]
pub struct Load {
    /// In-flight bound.
    pub window: usize,
    /// Requests offered.
    pub count: usize,
    /// Longest submission period.
    pub max_seconds: f64,
}

/// One request's fate.
#[derive(Debug)]
pub struct Outcome {
    /// Index into the workload pool.
    pub item: usize,
    /// When the submit call started.
    pub sent: Instant,
    /// When the submit call returned.
    pub acked: Instant,
    /// When the completion frame arrived; `None` when it never did.
    pub arrived: Option<Instant>,
    /// Completion frame fields.
    pub ok: bool,
    /// Serving shard.
    pub shard: Option<usize>,
    /// Schedule digest.
    pub schedule_hash: Option<u64>,
    /// Failure code.
    pub code: Option<String>,
    /// The job's server-side span tree (traced submissions only).
    pub trace: Option<Node>,
}

/// What one phase produced.
#[derive(Debug, Default)]
pub struct Phase {
    /// Requests whose submit was answered with a job id.
    pub outcomes: Vec<Outcome>,
    /// Submissions refused outright (error frame instead of a job).
    pub refused: usize,
    /// Stream positions consumed.
    pub consumed: usize,
    /// Whether the stream ended before the phase offered all it should.
    pub ran_dry: bool,
    /// From the first submission to the last completion, seconds.
    pub elapsed_s: f64,
}

impl Phase {
    /// Latencies from submission to completion of the successful
    /// requests, ms.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.outcomes
            .iter()
            .filter(|o| o.ok)
            .filter_map(|o| Some(o.arrived?.duration_since(o.sent).as_secs_f64() * 1e3))
            .collect()
    }

    /// With one request in flight: how long the generator took to submit
    /// each request after the previous one's completion arrived, ms.
    pub fn reaction_ms(&self) -> Vec<f64> {
        self.outcomes
            .windows(2)
            .filter_map(|w| Some(w[1].sent.duration_since(w[0].arrived?).as_secs_f64() * 1e3))
            .collect()
    }
}

/// Completions the subscriber received: job id, arrival, frame.
type Arrivals = Vec<(u64, Instant, Json)>;

/// Runs one phase: offers `stream[start..]` (wrapping around when
/// `wrap`) under `load`, and collects every completion.
pub fn run_phase(
    server: &Server,
    pool: &[Item],
    stream: &[usize],
    start: usize,
    wrap: bool,
    load: Load,
    traced: bool,
) -> Phase {
    let mut submitter = connect(server);
    let mut subscriber = connect(server);
    subscriber.subscribe().expect("subscription registers");
    let submitted = AtomicUsize::new(0);
    let completed = AtomicUsize::new(0);
    let done = AtomicBool::new(false);
    // The submitter sleeps while the window is full; each completion
    // wakes it.
    let submitter_thread = std::thread::current();
    let next = |k: usize| -> Option<usize> {
        let pos = start + k;
        match wrap {
            true => Some(stream[pos % stream.len()]),
            false => stream.get(pos).copied(),
        }
    };

    let (sent, arrivals, refused, t0, k, ran_dry) = std::thread::scope(|scope| {
        let listener = scope.spawn(|| {
            let mut arrivals: Arrivals = Vec::new();
            let mut done_at: Option<Instant> = None;
            loop {
                let all_in = done.load(Ordering::SeqCst)
                    && arrivals.len() >= submitted.load(Ordering::SeqCst);
                if all_in || done_at.is_some_and(|t| t.elapsed() > DRAIN_TIMEOUT) {
                    break arrivals;
                }
                match subscriber.next_event(Duration::from_millis(20)) {
                    Ok(Some(frame)) => {
                        let now = Instant::now();
                        if frame.get("type").and_then(Json::as_str) == Some("completion") {
                            let job = frame.get("job").and_then(Json::as_u64).unwrap_or(0);
                            arrivals.push((job, now, frame));
                            completed.fetch_add(1, Ordering::SeqCst);
                            submitter_thread.unpark();
                        }
                    }
                    Ok(None) => {}
                    Err(e) => panic!("subscriber connection failed: {e}"),
                }
                if done.load(Ordering::SeqCst) && done_at.is_none() {
                    done_at = Some(Instant::now());
                }
            }
        });

        let mut sent: Vec<(u64, usize, Instant, Instant)> = Vec::new();
        let mut refused = 0usize;
        let t0 = Instant::now();
        let mut k = 0usize;
        let mut ran_dry = false;
        'offer: loop {
            loop {
                if k >= load.count || t0.elapsed().as_secs_f64() >= load.max_seconds {
                    break 'offer;
                }
                let in_flight =
                    submitted.load(Ordering::SeqCst) - completed.load(Ordering::SeqCst);
                if in_flight < load.window {
                    break;
                }
                std::thread::park_timeout(Duration::from_millis(1));
            }
            let Some(item) = next(k) else {
                ran_dry = true;
                break;
            };
            k += 1;
            let request = &pool[item];
            let strategy = request.strategy.to_string();
            let t_send = Instant::now();
            let result = if traced {
                submitter.submit_traced(&request.qasm, &strategy, "batch", None)
            } else {
                submitter.submit(&request.qasm, &strategy, "batch", None)
            };
            let t_ack = Instant::now();
            match result {
                Ok(job) => {
                    sent.push((job, item, t_send, t_ack));
                    submitted.fetch_add(1, Ordering::SeqCst);
                }
                Err(e) => {
                    eprintln!("submit refused: {e}");
                    refused += 1;
                }
            }
        }
        done.store(true, Ordering::SeqCst);
        let arrivals = listener.join().expect("subscriber thread panicked");
        (sent, arrivals, refused, t0, k, ran_dry)
    });

    let mut by_job: std::collections::HashMap<u64, (Instant, Json)> =
        arrivals.into_iter().map(|(job, at, frame)| (job, (at, frame))).collect();
    let mut last = t0;
    let outcomes: Vec<Outcome> = sent
        .into_iter()
        .map(|(job, item, sent, acked)| {
            let got = by_job.remove(&job);
            let frame = got.as_ref().map(|(_, f)| f);
            let field = |k: &str| frame.and_then(|f| f.get(k));
            let arrived = got.as_ref().map(|(at, _)| *at);
            if let Some(at) = arrived {
                last = last.max(at);
            }
            Outcome {
                item,
                sent,
                acked,
                arrived,
                ok: field("ok").and_then(Json::as_bool).unwrap_or(false),
                shard: field("shard").and_then(Json::as_u64).map(|s| s as usize),
                schedule_hash: field("schedule_hash")
                    .and_then(Json::as_str)
                    .and_then(|h| u64::from_str_radix(h, 16).ok()),
                code: field("code").and_then(Json::as_str).map(str::to_owned),
                trace: field("trace").and_then(Node::from_json),
            }
        })
        .collect();
    Phase {
        consumed: k,
        ran_dry,
        elapsed_s: last.duration_since(t0).as_secs_f64(),
        outcomes,
        refused,
    }
}

/// What the store cycle measured.
#[derive(Debug)]
pub struct StoreCycle {
    /// Seconds to drain the fleet, which flushes it to the store.
    pub flush_s: f64,
    /// Store file size after the flush.
    pub bytes_written: u64,
    /// Per restart: seconds from opening the store until the restarted
    /// fleet has served the flushed requests again.
    pub restart_s: Vec<f64>,
    /// Per restart: seconds the shards took to join (hydration).
    pub hydrate_s: Vec<f64>,
    /// Item, serving shard and schedule digest of every answer, before
    /// the flush and after each restart.
    pub answers: Vec<(usize, Option<(usize, u64)>)>,
}

/// Serves `requests` on a fresh fleet with a store at `path` attached and
/// drains the fleet, which flushes it. Then, `restarts` times, starts a
/// fleet hydrated from that store and times it until it has served
/// `requests` again.
pub fn store_cycle(
    devices: &[Device],
    config: CompilerConfig,
    path: &Path,
    pool: &[Item],
    requests: &[usize],
    restarts: usize,
) -> StoreCycle {
    let _ = std::fs::remove_file(path);
    let store = Arc::new(ArtifactStore::open(path).expect("store opens"));
    let (mut server, _) = start(devices, config, Some(store));
    let mut client = connect(&server);
    let mut answers: Vec<(usize, Option<(usize, u64)>)> =
        serve_all(&mut client, pool, requests);
    let t = Instant::now();
    let service = server.queue().service();
    for shard in 0..service.shard_count() {
        service.drain_shard(shard);
    }
    let flush_s = t.elapsed().as_secs_f64();
    drop(client);
    server.shutdown();
    let bytes_written = std::fs::metadata(path).map(|md| md.len()).unwrap_or(0);

    let (mut restart_s, mut hydrate_s) = (Vec::new(), Vec::new());
    for _ in 0..restarts {
        let t = Instant::now();
        let store = Arc::new(ArtifactStore::open(path).expect("store reopens"));
        let (mut server, join_s) = start(devices, config, Some(store));
        let mut client = connect(&server);
        answers.extend(serve_all(&mut client, pool, requests));
        restart_s.push(t.elapsed().as_secs_f64());
        hydrate_s.push(join_s);
        drop(client);
        server.shutdown();
    }
    StoreCycle { flush_s, bytes_written, restart_s, hydrate_s, answers }
}

/// Submits every request in `requests`, then waits for each: per item,
/// the serving shard and schedule digest of a successful answer.
pub fn serve_all(
    client: &mut Client,
    pool: &[Item],
    requests: &[usize],
) -> Vec<(usize, Option<(usize, u64)>)> {
    let jobs: Vec<(usize, Option<u64>)> = requests
        .iter()
        .map(|&i| {
            let item = &pool[i];
            (i, client.submit(&item.qasm, &item.strategy.to_string(), "batch", None).ok())
        })
        .collect();
    jobs.into_iter()
        .map(|(i, job)| {
            let answer = job.and_then(|job| {
                let outcome = client.wait(job, WAIT_MS).ok()??;
                outcome.ok.then_some(())?;
                Some((usize::try_from(outcome.shard?).ok()?, outcome.schedule_hash?))
            });
            (i, answer)
        })
        .collect()
}
