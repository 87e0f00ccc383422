//! The workloads: which devices, programs and request streams each
//! one feeds the stack, all generated from the `--seed` argument.
//!
//! `README.md` in this directory records why each workload exists and
//! which layer it is meant to load.

use fastsc_bench::{device_for, SEED};
use fastsc_core::{CompilerConfig, Strategy};
use fastsc_device::{CouplerKind, Device};
use fastsc_ir::qasm::to_qasm;
use fastsc_ir::{Circuit, Gate};
use fastsc_service::ScheduleCache;
use fastsc_workloads::Benchmark;
use std::collections::{HashMap, HashSet};

/// Seeded program instances per (Fig. 9 program, strategy) in
/// `suite_direct`.
const SUITE_INSTANCES: u64 = 4;
/// Seeded instances of each Fig. 9 program of up to 16 qubits whose
/// quality a socket workload estimates.
const SOCKET_QUALITY_INSTANCES: u64 = 4;

/// One program under one strategy, bound to the in-process device that
/// compiles it.
#[derive(Debug, Clone)]
pub struct Item {
    /// The program.
    pub circuit: Circuit,
    /// Its OpenQASM text, as the wire carries it.
    pub qasm: String,
    /// The strategy.
    pub strategy: Strategy,
    /// Index into [`Workload::devices`].
    pub device: usize,
}

impl Item {
    fn new(circuit: Circuit, strategy: Strategy, device: usize) -> Item {
        Item { qasm: to_qasm(&circuit), circuit, strategy, device }
    }

    /// The identity the schedule cache keys on, minus the device.
    pub fn pair(&self) -> (u64, u8) {
        (self.circuit.structural_hash(), self.strategy.stable_code())
    }
}

/// Everything one workload feeds the stack.
#[derive(Debug)]
pub struct Workload {
    /// Workload name.
    pub name: &'static str,
    /// Compiler configuration, in-process and in the fleet.
    pub config: CompilerConfig,
    /// In-process devices.
    pub devices: Vec<Device>,
    /// Indices into `devices` that the served fleet registers, in shard
    /// order.
    pub fleet: Vec<usize>,
    /// Every distinct program the run compiles.
    pub pool: Vec<Item>,
    /// Indices into `pool` that the timed in-process loops compile.
    pub items: Vec<usize>,
    /// `(ColorDynamic, Baseline U)` index pairs into `pool` for the
    /// quality metrics.
    pub quality: Vec<(usize, usize)>,
    /// The served request stream, as indices into `pool`.
    pub stream: Vec<usize>,
    /// Whether the stream must hold no repeated (program, strategy) pair.
    pub unique: bool,
}

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 2] = ["suite_direct", "socket_unique"];

/// Phase lengths as shares of `--seconds`: serial compile loop, batch
/// loop, low-load loop (planned at [`LO_RATE`]), saturation (planned at
/// [`SAT_RATE`]).
pub const PHASE_SHARES: [f64; 4] = [0.3, 0.35, 0.05, 0.3];

/// Measured rounds: each phase runs as one slice per round, so the
/// host's speed, which drifts over seconds, reaches every metric alike.
pub const ROUNDS: usize = 9;

// Offered load, frozen: set once from the saturation throughput
// (`throughput_per_s`) of `socket_unique`, 4k to 5k jobs/s on a 2-vCPU
// VM, and never recomputed per run.

/// The low-load loop keeps one request in flight, so a request meets an
/// unloaded stack that went idle only a moment before. It offers this
/// many requests per second of its planned length (one request takes
/// 0.1–0.3 ms), ending sooner on a faster stack. An open loop
/// at 50–100 requests per second was tried first: between requests the
/// cores fell idle, and how fast the host woke them, which changed from
/// one stretch of minutes to the next, moved its median by 1.5–2.5x.
/// One at 1500 per second, 30% of saturation, was dropped too: one host
/// stall built a queue that the rate never drained.
pub const LO_RATE: f64 = 2000.0;
/// Low-load parts per round, each over a fresh pair of connections. A
/// connection's server threads keep their placement on the cores for the
/// connection's life, and a placement could add or save 0.3 ms a
/// request; more parts average over more placements.
pub const LO_PARTS: usize = 3;
/// In-flight bound of the saturation phase.
pub const WINDOW: usize = 128;
/// Requests per saturation burst. A saturation slice is a train of
/// bursts, each timed from its first submission to its last completion,
/// so that a high percentile of the burst rates shrugs off a host stall
/// that spoils some bursts.
pub const SAT_BURST: usize = 500;
/// Requests a unique stream serves, unmeasured, before the rounds: three
/// default schedule caches' worth, more than the two-shard fleet holds,
/// so that every shard's cache is full and evicting, and the SMT memo
/// warm, before anything is timed.
pub const UNIQUE_PRIME: usize = 3 * ScheduleCache::DEFAULT_CAPACITY;
/// The calibrated saturation throughput, jobs per second. A saturation
/// slice offers this many requests per second of its planned length, so
/// it ends sooner on a faster stack and never runs out of requests.
pub const SAT_RATE: f64 = 4000.0;

/// Requests in one low-load part and in one round's saturation slice
/// (whole bursts) at `seconds`; at least one of each.
pub fn slice_counts(seconds: f64) -> [usize; 2] {
    let [_, _, lo, sat] = PHASE_SHARES.map(|s| s * seconds / ROUNDS as f64);
    let bursts = ((SAT_RATE * sat / SAT_BURST as f64).round() as usize).max(1);
    [((LO_RATE * lo / LO_PARTS as f64).round() as usize).max(1), bursts * SAT_BURST]
}

/// SplitMix64: a tiny, well-mixed generator, so that inputs depend only
/// on the seed argument.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }
}

/// A two-qubit circuit no generator family produces; the served stack
/// warms up on it so warm-up never touches the measured stream's cache
/// entries.
pub fn warmup_circuit() -> Circuit {
    let mut c = Circuit::new(2);
    c.push1(Gate::H, 0).expect("valid operand");
    c.push2(Gate::Cz, 0, 1).expect("valid operands");
    c.push1(Gate::Rz(0.125), 1).expect("valid operand");
    c
}

/// Builds workload `name` from `seed`; `seconds` sizes the request
/// stream. `None` for an unknown name.
pub fn build(name: &str, seed: u64, seconds: f64) -> Option<Workload> {
    let mut rng = Rng::new(seed);
    let w = match name {
        "suite_direct" => suite_direct(&mut rng),
        "socket_unique" => socket_unique(&mut rng, seconds),
        _ => return None,
    };
    if w.unique {
        let warmup = warmup_circuit().structural_hash();
        let mut seen = HashSet::new();
        for &i in &w.stream {
            let pair = w.pool[i].pair();
            assert!(pair.0 != warmup, "{}: stream repeats the warm-up program", w.name);
            assert!(seen.insert(pair), "{}: stream repeats pair {pair:?}", w.name);
        }
    }
    Some(w)
}

/// Requests the served phases need over `seconds`.
fn stream_len(seconds: f64) -> usize {
    let [lo, sat] = slice_counts(seconds);
    // The traced pass runs the low-load phase twice: untraced, then traced.
    UNIQUE_PRIME + (2 * LO_PARTS * lo + sat) * ROUNDS
}

fn suite_direct(rng: &mut Rng) -> Workload {
    // Devices as `fastsc_bench::run_cell` builds them: the smallest square
    // mesh per program, and its tunable-coupler copy for Baseline G.
    // Meshes of one seed differ in size alone, so size and coupler kind
    // key them.
    let mut devices: Vec<Device> = Vec::new();
    let mut index: HashMap<(usize, bool), usize> = HashMap::new();
    let mut device_of = |n: usize, gmon: bool| {
        let base = device_for(n, SEED);
        *index.entry((base.n_qubits(), gmon)).or_insert_with(|| {
            devices.push(match gmon {
                true => base.with_coupler(CouplerKind::tunable(0.0)),
                false => base,
            });
            devices.len() - 1
        })
    };
    let mut pool = Vec::new();
    let mut quality = Vec::new();
    for _ in 0..SUITE_INSTANCES {
        for benchmark in Benchmark::fig9_suite() {
            let circuit = benchmark.build(rng.next_u64());
            let first = pool.len();
            for strategy in Strategy::all() {
                let dev = device_of(benchmark.n_qubits(), strategy == Strategy::BaselineG);
                pool.push(Item::new(circuit.clone(), strategy, dev));
            }
            quality.push((first + 4, first + 2));
        }
    }
    // The served fleet is the fixed-coupler meshes.
    let mut fleet: Vec<usize> =
        index.iter().filter(|((_, gmon), _)| !gmon).map(|(_, &d)| d).collect();
    fleet.sort_unstable();
    let items: Vec<usize> = (0..pool.len()).collect();
    // The served stream laps the distinct fixed-coupler pairs of the
    // suite in a seeded order, so after its first lap it is cache-served.
    let mut seen = HashSet::new();
    let mut lap: Vec<usize> = (0..pool.len())
        .filter(|&i| pool[i].strategy != Strategy::BaselineG && seen.insert(pool[i].pair()))
        .collect();
    shuffle(&mut lap, rng);
    Workload {
        name: "suite_direct",
        config: CompilerConfig::default(),
        devices,
        fleet,
        pool,
        items,
        quality,
        stream: lap,
        unique: false,
    }
}

/// Every program shape the socket workloads draw from: each family of
/// the paper at each size the 16-qubit fleet device holds. The stream
/// cycles through them in this fixed order, so a seed changes program
/// instances but never the mix.
fn socket_shapes() -> Vec<Benchmark> {
    let mut shapes = Vec::new();
    for n in 4..=16 {
        shapes.extend([
            Benchmark::Bv(n),
            Benchmark::Qaoa(n),
            Benchmark::Qgan(n),
            Benchmark::Ising(n),
        ]);
    }
    for p in 1..=15 {
        shapes.extend([4, 9, 16].map(|n| Benchmark::Xeb(n, p)));
    }
    shapes
}

/// The socket fleet device a program of `n` qubits compiles on in-process.
fn socket_device(n: usize) -> usize {
    usize::from(n > 9)
}

fn socket_unique(rng: &mut Rng, seconds: f64) -> Workload {
    let devices = vec![Device::grid(3, 3, 7), Device::grid(4, 4, 23)];
    let wanted = stream_len(seconds);
    let shapes = socket_shapes();
    let warmup = warmup_circuit().structural_hash();
    let mut pool: Vec<Item> = Vec::new();
    let mut seen = HashSet::new();
    let mut round = 0usize;
    while pool.len() < wanted {
        round += 1;
        assert!(round <= 10 * wanted, "socket_unique: too few distinct programs");
        for &benchmark in &shapes {
            let circuit = benchmark.build(rng.next_u64());
            for strategy in Strategy::all() {
                let device = socket_device(benchmark.n_qubits());
                let item = Item::new(circuit.clone(), strategy, device);
                // `Benchmark::Ising` ignores its seed and small instances
                // of other families repeat, so a pair already drawn is
                // skipped.
                if item.pair().0 != warmup && seen.insert(item.pair()) {
                    pool.push(item);
                }
            }
        }
    }
    pool.truncate(wanted);
    // Seeded order: every slice of the run offers the whole mix.
    let mut stream: Vec<usize> = (0..pool.len()).collect();
    shuffle(&mut stream, rng);
    let items = (0..pool.len()).collect();
    // Quality comes from the Fig. 9 programs the fleet can hold, so the
    // stream's mix does not decide it.
    let mut quality = Vec::new();
    for _ in 0..SOCKET_QUALITY_INSTANCES {
        for benchmark in Benchmark::fig9_suite().into_iter().filter(|b| b.n_qubits() <= 16) {
            let circuit = benchmark.build(rng.next_u64());
            let device = socket_device(benchmark.n_qubits());
            pool.push(Item::new(circuit.clone(), Strategy::ColorDynamic, device));
            pool.push(Item::new(circuit, Strategy::BaselineU, device));
            quality.push((pool.len() - 2, pool.len() - 1));
        }
    }
    Workload {
        name: "socket_unique",
        config: CompilerConfig::default(),
        devices,
        fleet: vec![0, 1],
        items,
        pool,
        quality,
        stream,
        unique: true,
    }
}

fn shuffle(v: &mut [usize], rng: &mut Rng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.range(0, i));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        let a = build("socket_unique", 7, 1.0).expect("known workload");
        let b = build("socket_unique", 7, 1.0).expect("known workload");
        assert_eq!(a.pool.len(), b.pool.len());
        assert!(a.pool.iter().zip(&b.pool).all(|(x, y)| x.qasm == y.qasm));
        let c = build("socket_unique", 8, 1.0).expect("known workload");
        assert!(a.pool.iter().zip(&c.pool).any(|(x, y)| x.qasm != y.qasm));
    }

    #[test]
    fn suite_stream_laps_a_fixed_set() {
        let w = build("suite_direct", 3, 1.0).expect("known workload");
        let distinct: HashSet<_> = w.stream.iter().map(|&i| w.pool[i].pair()).collect();
        assert_eq!(distinct.len(), w.stream.len(), "one lap, no repeats within it");
        assert!(w.stream.iter().all(|&i| w.pool[i].strategy != Strategy::BaselineG));
    }

    #[test]
    fn unknown_workload_is_refused() {
        assert!(build("nope", 1, 1.0).is_none());
    }
}
