//! Determinism regression tests: compilation is a pure function of
//! `(device seed, program seed, strategy)`. Two runs with the same seeds
//! must produce bit-identical schedules and success estimates — the
//! property the batch compiler's parallel/sequential equivalence and
//! every paper-figure reproduction rely on.

use fastsc::compiler::batch::{BatchCompiler, CompileJob};
use fastsc::compiler::{CompileContext, Compiler, CompilerConfig, Strategy};
use fastsc::device::Device;
use fastsc::noise::{estimate, NoiseConfig};
use fastsc::service::{
    CapacityAware, CompileService, Composite, FidelityAware, LeastLoaded, ProgramAffinity,
    RoundRobin, ShardPolicy,
};
use fastsc::workloads::Benchmark;
use std::sync::Arc;

#[test]
fn same_seed_same_schedule_all_strategies() {
    let program_a = Benchmark::Xeb(9, 5).build(42);
    let program_b = Benchmark::Xeb(9, 5).build(42);
    assert_eq!(program_a, program_b, "workload generation must be seed-deterministic");

    for strategy in Strategy::all() {
        let compiler_a = Compiler::new(Device::grid(3, 3, 7), CompilerConfig::default());
        let compiler_b = Compiler::new(Device::grid(3, 3, 7), CompilerConfig::default());
        let a = compiler_a.compile(&program_a, strategy).expect("compiles");
        let b = compiler_b.compile(&program_b, strategy).expect("compiles");
        assert_eq!(a.schedule, b.schedule, "{strategy} schedule is not reproducible");
        let pa = estimate(compiler_a.device(), &a.schedule, &NoiseConfig::default()).p_success;
        let pb = estimate(compiler_b.device(), &b.schedule, &NoiseConfig::default()).p_success;
        assert_eq!(
            pa.to_bits(),
            pb.to_bits(),
            "{strategy} p_success is not bit-identical: {pa} vs {pb}"
        );
    }
}

#[test]
fn shared_context_is_bit_identical_to_fresh_compilers() {
    // Device-wide precomputation (crosstalk graph, parking, static
    // colorings, SMT memo) lives in an Arc-shared CompileContext; a warm,
    // shared context must be invisible in the output. Compile each
    // strategy three ways — fresh compiler, shared context, shared
    // context again (memo now warm) — and demand bit-identical schedules
    // and success estimates.
    let program = Benchmark::Xeb(9, 5).build(42);
    let context = Arc::new(
        CompileContext::new(Device::grid(3, 3, 7), CompilerConfig::default())
            .expect("context builds"),
    );
    let shared_a = Compiler::with_context(Arc::clone(&context));
    let shared_b = Compiler::with_context(Arc::clone(&context));

    for strategy in Strategy::all() {
        let fresh = Compiler::new(Device::grid(3, 3, 7), CompilerConfig::default())
            .compile(&program, strategy)
            .expect("compiles");
        let warm_once = shared_a.compile(&program, strategy).expect("compiles");
        let warm_twice = shared_b.compile(&program, strategy).expect("compiles");
        assert_eq!(
            fresh.schedule, warm_once.schedule,
            "{strategy}: shared context diverged from a fresh compiler"
        );
        assert_eq!(
            warm_once.schedule, warm_twice.schedule,
            "{strategy}: a warm SMT memo changed the schedule"
        );
        let pf = estimate(context.device(), &fresh.schedule, &NoiseConfig::default()).p_success;
        let pw =
            estimate(context.device(), &warm_once.schedule, &NoiseConfig::default()).p_success;
        assert_eq!(pf.to_bits(), pw.to_bits(), "{strategy} p_success not bit-identical");
    }
}

#[test]
fn persistent_pool_parallel_matches_sequential_across_strategies() {
    // The batch front end fans out over the vendored rayon's persistent
    // worker pool; pooled parallel output must stay bit-identical to the
    // sequential reference path for every strategy.
    let jobs: Vec<CompileJob> = Strategy::all()
        .into_iter()
        .enumerate()
        .map(|(i, s)| CompileJob::new(Benchmark::Xeb(9, 4).build(i as u64), s))
        .collect();
    let batch = BatchCompiler::new(Device::grid(3, 3, 7), CompilerConfig::default());
    let sequential = batch.compile_batch_sequential(jobs.clone());
    let parallel = BatchCompiler::new(Device::grid(3, 3, 7), CompilerConfig::default())
        .num_threads(4)
        .compile_batch(jobs);
    assert_eq!(sequential.len(), parallel.len());
    for (i, (s, p)) in sequential.iter().zip(&parallel).enumerate() {
        let s = s.as_ref().expect("sequential slot compiles");
        let p = p.as_ref().expect("parallel slot compiles");
        assert_eq!(s.schedule, p.schedule, "slot {i} diverged across the worker pool");
    }
}

#[test]
fn batch_through_shared_context_matches_fresh_batch() {
    let context = Arc::new(
        CompileContext::new(Device::grid(3, 3, 7), CompilerConfig::default())
            .expect("context builds"),
    );
    let jobs: Vec<CompileJob> = Strategy::all()
        .into_iter()
        .map(|s| CompileJob::new(Benchmark::Qaoa(8).build(5), s))
        .collect();
    let via_context =
        BatchCompiler::from_context(Arc::clone(&context)).compile_batch(jobs.clone());
    let fresh = BatchCompiler::new(Device::grid(3, 3, 7), CompilerConfig::default())
        .compile_batch(jobs);
    for (i, (a, b)) in via_context.iter().zip(&fresh).enumerate() {
        assert_eq!(
            a.as_ref().expect("compiles").schedule,
            b.as_ref().expect("compiles").schedule,
            "slot {i}: context-backed batch diverged"
        );
    }
}

#[test]
fn sharded_service_compiles_are_bit_identical_to_fresh_single_device_compiles() {
    // The full service stack — shard routing, whole-schedule result
    // cache, work-stealing dispatch — must be invisible in the output:
    // every reply equals a fresh, cold, sequential compile of the same
    // job on the device it was routed to, for all five strategies and
    // every built-in policy (including the telemetry-driven
    // FidelityAware and Composite — placement by calibration data must
    // not touch what gets compiled, only where).
    let devices = [Device::grid(3, 3, 7), Device::grid(3, 3, 11)];
    let jobs: Vec<CompileJob> = Strategy::all()
        .into_iter()
        .enumerate()
        .map(|(i, s)| CompileJob::new(Benchmark::Xeb(9, 4).build(i as u64), s))
        .collect();

    let policies: Vec<Box<dyn ShardPolicy>> = vec![
        Box::new(RoundRobin::new()),
        Box::new(LeastLoaded::new()),
        Box::new(ProgramAffinity::new()),
        Box::new(CapacityAware::new()),
        Box::new(FidelityAware::new()),
        Box::new(Composite::standard()),
    ];
    for (round, policy) in policies.into_iter().enumerate() {
        let mut service = CompileService::new(RoundRobin::new());
        for device in &devices {
            service
                .register_device(device.clone(), CompilerConfig::default())
                .expect("registers");
        }
        service.set_policy_boxed(policy);
        let replies = service.compile_batch(jobs.clone());
        for (i, (reply, job)) in replies.iter().zip(&jobs).enumerate() {
            let reply = reply.as_ref().expect("compiles");
            let fresh = Compiler::new(devices[reply.shard].clone(), CompilerConfig::default())
                .compile(&job.program, job.strategy)
                .expect("compiles");
            assert_eq!(
                reply.compiled.schedule, fresh.schedule,
                "policy {round}, job {i} ({}): routed compile diverged from fresh",
                job.strategy
            );
            let pr = estimate(
                &devices[reply.shard],
                &reply.compiled.schedule,
                &NoiseConfig::default(),
            )
            .p_success;
            let pf = estimate(&devices[reply.shard], &fresh.schedule, &NoiseConfig::default())
                .p_success;
            assert_eq!(pr.to_bits(), pf.to_bits(), "job {i} p_success not bit-identical");
        }
    }
}

#[test]
fn fidelity_routed_compiles_repeat_bit_identically_across_services() {
    // FidelityAware consumes floating-point calibration scores; the
    // whole pipeline from profile construction to routed schedule must
    // still be reproducible run to run (same fleet, same jobs, same
    // shards, same bits).
    let build_service = || {
        let mut service = CompileService::new(FidelityAware::new());
        service
            .register_device(Device::grid(3, 3, 7), CompilerConfig::default())
            .expect("registers");
        service
            .register_device(Device::grid(3, 3, 11), CompilerConfig::default())
            .expect("registers");
        service
    };
    let jobs: Vec<CompileJob> = Strategy::all()
        .into_iter()
        .enumerate()
        .map(|(i, s)| CompileJob::new(Benchmark::Bv(4 + i).build(3), s))
        .collect();
    let a = build_service().compile_batch_sequential(jobs.clone());
    let b = build_service().compile_batch(jobs);
    for (i, (x, y)) in a.iter().zip(&b).enumerate() {
        let x = x.as_ref().expect("compiles");
        let y = y.as_ref().expect("compiles");
        assert_eq!(x.shard, y.shard, "slot {i}: fidelity routing not reproducible");
        assert_eq!(x.compiled.schedule, y.compiled.schedule, "slot {i} diverged");
    }
}

#[test]
fn warm_result_cache_hits_are_bit_identical_to_cold_compiles() {
    let service =
        CompileService::single_shard(Device::grid(3, 3, 7), CompilerConfig::default())
            .expect("builds");
    let jobs: Vec<CompileJob> = Strategy::all()
        .into_iter()
        .map(|s| CompileJob::new(Benchmark::Qaoa(8).build(5), s))
        .collect();
    let cold = service.compile_batch(jobs.clone());
    let warm = service.compile_batch(jobs.clone());
    for (i, ((c, w), job)) in cold.iter().zip(&warm).zip(&jobs).enumerate() {
        let c = c.as_ref().expect("cold compiles");
        let w = w.as_ref().expect("warm compiles");
        assert!(!c.cache_hit && w.cache_hit, "slot {i} cache provenance is wrong");
        assert_eq!(c.compiled.schedule, w.compiled.schedule, "slot {i} hit diverged");
        let fresh = Compiler::new(Device::grid(3, 3, 7), CompilerConfig::default())
            .compile(&job.program, job.strategy)
            .expect("compiles");
        assert_eq!(
            w.compiled.schedule, fresh.schedule,
            "slot {i} ({}): cached schedule diverged from a fresh compile",
            job.strategy
        );
    }
}

#[test]
fn work_stealing_batches_match_sequential_across_strategies() {
    // A deliberately skewed batch (heavy XEB jobs first, tiny BV jobs
    // after) exercises stealing: workers that finish their own deque
    // steal the tail of the busy worker's. Output must stay bit-identical
    // to the sequential reference, slot for slot.
    let mut jobs: Vec<CompileJob> = (0..4)
        .map(|i| CompileJob::new(Benchmark::Xeb(9, 12).build(i), Strategy::ColorDynamic))
        .collect();
    for (i, s) in (0..16).zip(Strategy::all().into_iter().cycle()) {
        jobs.push(CompileJob::new(Benchmark::Bv(5).build(i), s));
    }
    let batch = BatchCompiler::new(Device::grid(3, 3, 7), CompilerConfig::default());
    let sequential = batch.compile_batch_sequential(jobs.clone());
    let parallel = BatchCompiler::new(Device::grid(3, 3, 7), CompilerConfig::default())
        .num_threads(4)
        .compile_batch(jobs);
    for (i, (s, p)) in sequential.iter().zip(&parallel).enumerate() {
        assert_eq!(
            s.as_ref().expect("compiles").schedule,
            p.as_ref().expect("compiles").schedule,
            "slot {i} diverged under work stealing"
        );
    }
}

#[test]
fn queued_compiles_under_contention_match_fresh_sequential_compiles() {
    // The async front end adds admission, priority scheduling, and
    // micro-batched dispatch on top of the service — none of which may
    // touch the output. Two producer threads race all five strategies
    // through a two-shard queue; every reply must equal a fresh, cold,
    // sequential compile on the shard the job was routed to.
    use fastsc::queue::{Backpressure, QueueConfig, QueueService, Submission};
    use std::sync::Arc as StdArc;

    let devices = [Device::grid(3, 3, 7), Device::grid(3, 3, 11)];
    let mut service = CompileService::new(LeastLoaded::new());
    for device in &devices {
        service.register_device(device.clone(), CompilerConfig::default()).expect("registers");
    }
    let queue = StdArc::new(QueueService::new(
        service,
        QueueConfig {
            capacity: 4,
            backpressure: Backpressure::Block,
            max_batch: 3,
            ..QueueConfig::default()
        },
    ));
    let producers: Vec<_> = (0..2u64)
        .map(|producer| {
            let queue = StdArc::clone(&queue);
            std::thread::spawn(move || {
                Strategy::all()
                    .into_iter()
                    .enumerate()
                    .map(|(i, strategy)| {
                        let program = Benchmark::Xeb(9, 4).build(producer * 10 + i as u64);
                        let handle = queue
                            .submit(
                                Submission::new(CompileJob::new(program.clone(), strategy))
                                    .client(producer),
                            )
                            .expect("block mode always admits");
                        (program, strategy, handle)
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    for producer in producers {
        for (program, strategy, handle) in producer.join().expect("producer finishes") {
            let reply = handle.wait().expect("compiles");
            let fresh = Compiler::new(devices[reply.shard].clone(), CompilerConfig::default())
                .compile(&program, strategy)
                .expect("compiles");
            assert_eq!(
                reply.compiled.schedule, fresh.schedule,
                "{strategy}: queued schedule diverged from a fresh sequential compile"
            );
            let pq = estimate(
                &devices[reply.shard],
                &reply.compiled.schedule,
                &NoiseConfig::default(),
            )
            .p_success;
            let pf = estimate(&devices[reply.shard], &fresh.schedule, &NoiseConfig::default())
                .p_success;
            assert_eq!(pq.to_bits(), pf.to_bits(), "{strategy} p_success not bit-identical");
        }
    }
}

#[test]
fn socket_compiles_are_bit_identical_to_fresh_sequential_compiles() {
    // The network serving layer adds QASM serialization, a TCP round
    // trip, sessions, and the queue — and none of it may touch the
    // output. For every strategy, a program submitted as QASM over a
    // loopback socket must report the exact schedule digest of a fresh,
    // cold, sequential single-device compile of the same program.
    use fastsc::ir::qasm::{from_qasm, to_qasm};
    use fastsc::queue::QueueService;
    use fastsc::server::{Client, Server, TenantConfig};

    let programs = [Benchmark::Xeb(9, 5).build(42), Benchmark::Xeb(4, 3).build(7)];
    let mut service = CompileService::new(CapacityAware::new());
    service
        .register_device(Device::grid(3, 3, 7), CompilerConfig::default())
        .expect("registers");
    let queue = QueueService::with_defaults(service);
    let mut server = Server::start(queue, vec![TenantConfig::generous("suite", "suite", 1)])
        .expect("server starts");
    let mut client = Client::connect(server.addr()).expect("connects");
    client.hello("suite").expect("authenticates");

    for program in &programs {
        let qasm = to_qasm(program);
        // The wire format itself must be lossless first.
        assert_eq!(
            from_qasm(&qasm).expect("round-trips").structural_hash(),
            program.structural_hash(),
            "QASM serialization changed the circuit"
        );
        for strategy in Strategy::all() {
            let job = client
                .submit(&qasm, &strategy.to_string(), "interactive", None)
                .expect("submits");
            let outcome = client.wait(job, 60_000).expect("waits").expect("finishes");
            assert!(outcome.ok, "{strategy}: socket compile failed: {:?}", outcome.message);
            let fresh = Compiler::new(Device::grid(3, 3, 7), CompilerConfig::default())
                .compile(program, strategy)
                .expect("compiles");
            assert_eq!(
                outcome.schedule_hash,
                Some(fresh.schedule.stable_hash()),
                "{strategy}: socket schedule digest diverged from a fresh sequential compile"
            );
        }
    }
    server.shutdown();
}

#[test]
fn partitioned_compile_matches_whole_device_when_no_gate_crosses_a_boundary() {
    // Two disjoint 3x3 grids in one 18-qubit device, running a mirrored
    // XEB9 (every gate duplicated onto the second grid). The partition
    // plan (cap 9) recovers exactly the two components, so no gate
    // crosses a region boundary and the stitch pass has nothing to
    // defer: the partitioned schedule must be bit-identical to the
    // whole-device compile for every frequency-assigning strategy.
    //
    // BaselineU is the documented exemption. It assigns one shared
    // interaction frequency (the band center) and serializes *all*
    // two-qubit gates into distinct cycles device-wide; that global
    // serialization is exactly what per-region engines relax — each
    // region packs its own gates, so the merged schedule is shallower.
    // Frequencies are unchanged; only the cycle packing moves, and the
    // assertion documents that the schedules legitimately differ.
    use fastsc::device::DeviceBuilder;
    use fastsc::graph::Graph;
    use fastsc::ir::{Circuit, Instruction, Operands};

    let mut edges = Vec::new();
    for grid in 0..2usize {
        let off = grid * 9;
        for row in 0..3 {
            for col in 0..3 {
                let q = off + row * 3 + col;
                if col + 1 < 3 {
                    edges.push((q, q + 1));
                }
                if row + 1 < 3 {
                    edges.push((q, q + 3));
                }
            }
        }
    }
    let graph = Graph::with_edges(18, edges.iter().copied()).expect("edges are valid");
    let device = DeviceBuilder::new(graph).seed(7).build();

    let base = Benchmark::Xeb(9, 4).build(7);
    let mut program = Circuit::new(18);
    for inst in base.instructions() {
        program.push(*inst).expect("base operands fit");
        let shifted = match inst.operands {
            Operands::One(q) => Operands::One(q + 9),
            Operands::Two(a, b) => Operands::Two(a + 9, b + 9),
        };
        program
            .push(Instruction { gate: inst.gate, operands: shifted })
            .expect("mirrored operands fit");
    }

    let whole = Compiler::new(device.clone(), CompilerConfig::default());
    let part = Compiler::new(device, CompilerConfig::with_partition(9));
    for strategy in Strategy::all() {
        let w = whole.compile(&program, strategy).expect("compiles");
        let p = part.compile(&program, strategy).expect("compiles");
        if strategy == Strategy::BaselineU {
            assert_ne!(
                w.schedule, p.schedule,
                "BaselineU: regions serialize independently, so partitioned packing \
                 must differ from the device-wide serialization"
            );
        } else {
            assert_eq!(
                w.schedule, p.schedule,
                "{strategy}: partitioned compile diverged from whole-device with no \
                 boundary-crossing gates"
            );
        }
    }
}

#[test]
fn boundary_crossing_partitioned_compiles_are_reproducible() {
    // A 4x4 grid split at cap 8 has cut edges, so XEB16 sends gates
    // across the region boundary and the deferral stitch actually runs.
    // The partitioned output is then a different (valid) schedule from
    // the whole-device one, so bit-identity to the monolithic path is
    // not available as an oracle; instead, pin the stable hash the same
    // way the paper-figure reproductions pin theirs. Two fresh compilers
    // must agree with each other and with the pinned constant — any
    // change to region ordering, the wave gating, or the stitch's
    // deferral rule shows up here.
    let program = Benchmark::Xeb(16, 5).build(7);
    let compile = || {
        Compiler::new(Device::grid(4, 4, 7), CompilerConfig::with_partition(8))
            .compile(&program, Strategy::ColorDynamic)
            .expect("compiles")
    };
    let a = compile();
    let b = compile();
    assert_eq!(a.schedule, b.schedule, "partitioned compile is not reproducible");
    assert_eq!(
        a.schedule.stable_hash(),
        0x36df6030f449abf3,
        "boundary-crossing partitioned schedule changed; if intentional, re-pin"
    );
}

#[test]
fn auto_partitioned_sixteen_by_sixteen_compiles_are_reproducible() {
    // Auto-capped regions of a 16x16 mesh include one with no couplings:
    // its static coloring has zero colors, and Baseline S/G must take the
    // empty assignment instead of asking the solver for zero frequencies.
    // Every strategy must compile and reproduce bit-identically.
    let program = Benchmark::Xeb(256, 2).build(7);
    for seed in [2020, 7] {
        for strategy in Strategy::all() {
            let compile = || {
                Compiler::new(Device::grid(16, 16, seed), CompilerConfig::with_partition_auto())
                    .compile(&program, strategy)
                    .unwrap_or_else(|e| panic!("seed {seed}, {strategy}: {e}"))
            };
            let a = compile();
            assert_eq!(
                a.schedule,
                compile().schedule,
                "seed {seed}, {strategy}: auto-partitioned compile is not reproducible"
            );
        }
    }
}

#[test]
fn scalability_tiers_compile_partitioned_and_reproduce() {
    // The shared scalability ladder (64 / 256 / 1024-qubit grids with
    // proportional XEB programs) must compile through the partitioned
    // path at every tier — including the 1024-qubit tier the monolithic
    // benches never reach — and reproduce bit-identically across fresh
    // compilers. The 64-qubit tier is also checked against the
    // whole-device path for plain completion, keeping the two pipelines
    // comparable on the same workload family.
    use fastsc::workloads::scale_tiers;

    for tier in scale_tiers() {
        let program = tier.circuit();
        let compile = || {
            Compiler::new(
                Device::grid(tier.side, tier.side, tier.seed),
                CompilerConfig::with_partition(tier.partition_cap),
            )
            .compile(&program, Strategy::ColorDynamic)
            .expect("partitioned tier compiles")
        };
        let a = compile();
        assert!(a.schedule.depth() > 0, "{}: empty schedule", tier.label());
        let b = compile();
        assert_eq!(
            a.schedule,
            b.schedule,
            "{}: partitioned compile is not reproducible",
            tier.label()
        );
        if tier.n_qubits() == 64 {
            Compiler::new(
                Device::grid(tier.side, tier.side, tier.seed),
                CompilerConfig::default(),
            )
            .compile(&program, Strategy::ColorDynamic)
            .expect("whole-device tier compiles");
        }
    }
}

#[test]
fn tracing_on_off_and_sampled_are_invisible_in_compiled_output() {
    // The observability layer records the compile; it must never steer
    // it. Run the same jobs through identical two-shard queues under
    // every trace mode — off, every-job, deterministic sampling, and
    // per-submission opt-in — and demand the routed shard, the
    // schedule, and the success estimate stay bit-identical to the
    // untraced baseline (and to a fresh, cold, sequential compile).
    use fastsc::queue::{QueueService, Submission};
    use fastsc::telemetry::{set_trace_mode, TraceMode};

    let devices = [Device::grid(3, 3, 7), Device::grid(3, 3, 11)];
    let jobs: Vec<CompileJob> = Strategy::all()
        .into_iter()
        .enumerate()
        .map(|(i, s)| CompileJob::new(Benchmark::Xeb(9, 4).build(i as u64), s))
        .collect();
    // Submit-and-wait one job at a time under RoundRobin so routing is
    // a pure function of submission order — any divergence between
    // modes is then attributable to tracing, not dispatch timing.
    let run = |mode: TraceMode, explicit: bool| {
        set_trace_mode(mode);
        let mut service = CompileService::new(RoundRobin::new());
        for device in &devices {
            service
                .register_device(device.clone(), CompilerConfig::default())
                .expect("registers");
        }
        let queue = QueueService::with_defaults(service);
        let outcomes: Vec<_> = jobs
            .iter()
            .map(|job| {
                let mut submission = Submission::new(job.clone());
                if explicit {
                    submission = submission.traced();
                }
                let handle = queue.submit(submission).expect("admits");
                let reply = handle.wait().expect("compiles");
                let bits = estimate(
                    &devices[reply.shard],
                    &reply.compiled.schedule,
                    &NoiseConfig::default(),
                )
                .p_success
                .to_bits();
                let trace = queue.take_trace(handle.id());
                (reply.shard, reply.compiled.schedule.clone(), bits, trace.is_some())
            })
            .collect();
        set_trace_mode(TraceMode::Off);
        outcomes
    };

    let baseline = run(TraceMode::Off, false);
    assert!(baseline.iter().all(|(.., traced)| !traced), "mode off must record nothing");
    for (label, mode, explicit) in [
        ("explicitly traced submissions", TraceMode::Off, true),
        ("trace mode on", TraceMode::On, false),
        ("sampled tracing", TraceMode::Sampled(2), false),
    ] {
        let outcomes = run(mode, explicit);
        for (i, ((shard, schedule, bits, traced), (base_shard, base_schedule, base_bits, _))) in
            outcomes.iter().zip(&baseline).enumerate()
        {
            assert_eq!(shard, base_shard, "{label}: job {i} was routed elsewhere");
            assert_eq!(schedule, base_schedule, "{label}: job {i} schedule diverged");
            assert_eq!(bits, base_bits, "{label}: job {i} p_success not bit-identical");
            let fresh = Compiler::new(devices[*shard].clone(), CompilerConfig::default())
                .compile(&jobs[i].program, jobs[i].strategy)
                .expect("compiles");
            assert_eq!(
                *schedule, fresh.schedule,
                "{label}: job {i} diverged from a fresh sequential compile"
            );
            if explicit || mode == TraceMode::On {
                assert!(*traced, "{label}: job {i} must have parked a span tree");
            }
        }
    }
}

#[test]
fn different_device_seeds_change_frequencies() {
    // Counter-test: determinism must come from the seed, not from the
    // model ignoring it. Different fabrication seeds give different
    // sampled omega_max, hence different parking frequencies.
    let program = Benchmark::Xeb(9, 5).build(42);
    let a = Compiler::new(Device::grid(3, 3, 1), CompilerConfig::default())
        .compile(&program, Strategy::ColorDynamic)
        .expect("compiles");
    let b = Compiler::new(Device::grid(3, 3, 2), CompilerConfig::default())
        .compile(&program, Strategy::ColorDynamic)
        .expect("compiles");
    assert_ne!(a.schedule, b.schedule, "fabrication variation must depend on the device seed");
}

#[test]
fn different_program_seeds_change_xeb_layers() {
    let a = Benchmark::Xeb(9, 5).build(1);
    let b = Benchmark::Xeb(9, 5).build(2);
    assert_ne!(a, b, "XEB single-qubit layers must depend on the seed");
}

#[test]
fn faulty_then_failed_over_compiles_match_fresh_sequential_compiles() {
    // The fault-tolerance layer must never buy availability with
    // determinism: a job that fails transiently on one shard and is
    // retried onto another must produce exactly the schedule a fresh,
    // cold, sequential compile on the failover shard produces. Shard 0
    // rejects every attempt with an injected error; all five strategies
    // must land on shard 1 bit-identical.
    use fastsc::queue::{QueueConfig, QueueService, RetryPolicy, Submission};
    use fastsc::service::{FaultInjector, FaultKind, FaultPlan, FaultRule};
    use std::time::Duration;

    let devices = [Device::grid(3, 3, 7), Device::grid(3, 3, 11)];
    let mut service = CompileService::new(RoundRobin::new());
    for device in &devices {
        service.register_device(device.clone(), CompilerConfig::default()).expect("registers");
    }
    let plan = FaultPlan::new(71).rule(FaultRule::new(FaultKind::Error).on_shard(0));
    service.set_fault_injector(Some(Arc::new(FaultInjector::new(plan))));
    let queue = QueueService::new(
        service,
        QueueConfig {
            retry: RetryPolicy {
                base_backoff: Duration::from_millis(1),
                ..RetryPolicy::default()
            },
            ..QueueConfig::default()
        },
    );

    let submitted: Vec<_> = Strategy::all()
        .into_iter()
        .enumerate()
        .map(|(i, strategy)| {
            let program = Benchmark::Xeb(9, 4).build(100 + i as u64);
            let handle = queue
                .submit(Submission::new(CompileJob::new(program.clone(), strategy)))
                .expect("admits");
            (program, strategy, handle)
        })
        .collect();
    for (program, strategy, handle) in submitted {
        let reply = handle.wait().expect("fails over and compiles");
        assert_eq!(reply.shard, 1, "{strategy}: the retry must leave the faulty shard");
        let fresh = Compiler::new(devices[1].clone(), CompilerConfig::default())
            .compile(&program, strategy)
            .expect("compiles");
        assert_eq!(
            reply.compiled.schedule, fresh.schedule,
            "{strategy}: failed-over schedule diverged from a fresh sequential compile"
        );
        let pq =
            estimate(&devices[1], &reply.compiled.schedule, &NoiseConfig::default()).p_success;
        let pf = estimate(&devices[1], &fresh.schedule, &NoiseConfig::default()).p_success;
        assert_eq!(pq.to_bits(), pf.to_bits(), "{strategy} p_success not bit-identical");
    }
    assert!(queue.stats().retried >= 1, "the injected faults must have forced failovers");
}

// ---------------------------------------------------------------------
// Persistent artifact store: warm start, fleet pre-warming, corruption
// fallback. Store-served artifacts must be invisible in compiled output.
// ---------------------------------------------------------------------

fn store_test_path(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("fastsc-determinism-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("{tag}-{}.store", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

fn strategy_jobs(program: &fastsc::ir::Circuit) -> Vec<CompileJob> {
    Strategy::all().iter().map(|&s| CompileJob::new(program.clone(), s)).collect()
}

#[test]
fn store_warmed_compiles_are_bit_identical_to_cold_across_strategies() {
    use fastsc::store::ArtifactStore;

    let path = store_test_path("warm");
    let store = Arc::new(ArtifactStore::open(&path).expect("opens"));
    let program = Benchmark::Xeb(9, 5).build(42);

    // Cold process: attached store, every strategy compiled once, drain
    // flushes statics + SMT memo + all five schedules to disk.
    let cold = CompileService::new(RoundRobin::new());
    cold.add_shard_with_store(Device::grid(3, 3, 7), CompilerConfig::default(), &store)
        .expect("adds");
    let cold_replies = cold.compile_batch(strategy_jobs(&program));
    cold.drain_shard(0);
    assert!(store.stats().schedules >= 5, "drain persists every strategy's schedule");

    // Warm process: a fresh service hydrated from the same store. Every
    // strategy must be served from the pre-warmed cache, bit-identical
    // to both the cold run and a fresh sequential compile.
    let warm = CompileService::new(RoundRobin::new());
    warm.add_shard_with_store(Device::grid(3, 3, 7), CompilerConfig::default(), &store)
        .expect("adds");
    let warm_replies = warm.compile_batch(strategy_jobs(&program));
    for ((strategy, c), w) in Strategy::all().iter().zip(&cold_replies).zip(&warm_replies) {
        let c = c.as_ref().expect("cold compiles");
        let w = w.as_ref().expect("warm compiles");
        assert!(w.cache_hit, "{strategy}: not served from the store-warmed cache");
        assert_eq!(
            c.compiled.schedule, w.compiled.schedule,
            "{strategy}: store-warmed schedule diverged from the cold compile"
        );
        let fresh = Compiler::new(Device::grid(3, 3, 7), CompilerConfig::default())
            .compile(&program, *strategy)
            .expect("fresh compiles");
        assert_eq!(
            fresh.schedule, w.compiled.schedule,
            "{strategy}: store-warmed schedule diverged from a fresh sequential compile"
        );
    }
    let _ = std::fs::remove_file(&path);
}

#[test]
fn peer_imported_fleets_compile_bit_identically_across_strategies() {
    // Fleet pre-warming without shared disk: a donor fleet exports its
    // artifacts, a joining fleet imports them and must serve the same
    // bits from its pre-warmed cache for every strategy.
    let program = Benchmark::Xeb(9, 5).build(42);
    let donor = CompileService::new(RoundRobin::new());
    donor.add_shard(Device::grid(3, 3, 7), CompilerConfig::default()).expect("adds");
    let donor_replies = donor.compile_batch(strategy_jobs(&program));
    let bundle = donor.export_artifacts();

    let peer = CompileService::new(RoundRobin::new());
    peer.add_shard(Device::grid(3, 3, 7), CompilerConfig::default()).expect("adds");
    let report = peer.import_artifacts(&bundle);
    assert_eq!(report.schedules, 5, "every strategy's schedule is adopted: {report:?}");

    let peer_replies = peer.compile_batch(strategy_jobs(&program));
    for ((strategy, d), p) in Strategy::all().iter().zip(&donor_replies).zip(&peer_replies) {
        let d = d.as_ref().expect("donor compiles");
        let p = p.as_ref().expect("peer compiles");
        assert!(p.cache_hit, "{strategy}: not served from the imported cache");
        assert_eq!(
            d.compiled.schedule, p.compiled.schedule,
            "{strategy}: peer-imported schedule diverged from the donor"
        );
    }
}

#[test]
fn corrupted_or_alien_stores_fall_back_to_bit_identical_cold_compiles() {
    use fastsc::store::ArtifactStore;

    let path = store_test_path("corrupt");
    let program = Benchmark::Xeb(9, 5).build(42);
    {
        let store = Arc::new(ArtifactStore::open(&path).expect("opens"));
        let service = CompileService::new(RoundRobin::new());
        service
            .add_shard_with_store(Device::grid(3, 3, 7), CompilerConfig::default(), &store)
            .expect("adds");
        service.compile_batch(strategy_jobs(&program));
        service.drain_shard(0);
    }

    // Damage the file three ways; each warm start must still produce
    // schedules bit-identical to fresh sequential compiles — recovered
    // artifacts verify, everything else is recompiled cold.
    let pristine = std::fs::read(&path).expect("reads");
    let mut flipped = pristine.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x01;
    let truncated = pristine[..pristine.len() - 7].to_vec();
    let mut alien_version = pristine.clone();
    alien_version[11] = 0x7F; // unknown format version => read-only empty

    for (name, bytes) in
        [("flipped", flipped), ("truncated", truncated), ("alien-version", alien_version)]
    {
        std::fs::write(&path, &bytes).expect("writes damage");
        let store = Arc::new(ArtifactStore::open(&path).expect("open never fails"));
        let service = CompileService::new(RoundRobin::new());
        service
            .add_shard_with_store(Device::grid(3, 3, 7), CompilerConfig::default(), &store)
            .expect("warm start survives damage");
        let replies = service.compile_batch(strategy_jobs(&program));
        for (strategy, reply) in Strategy::all().iter().zip(&replies) {
            let reply = reply.as_ref().expect("compiles");
            let fresh = Compiler::new(Device::grid(3, 3, 7), CompilerConfig::default())
                .compile(&program, *strategy)
                .expect("fresh compiles");
            assert_eq!(
                fresh.schedule, reply.compiled.schedule,
                "{name}/{strategy}: damaged store changed compiled output"
            );
        }
    }
    let _ = std::fs::remove_file(&path);
}

// ---------------------------------------------------------------------
// Partition auto-cap and multi-thread region fan-out.
// ---------------------------------------------------------------------

#[test]
fn partition_auto_cap_matches_its_explicit_equivalent_and_fingerprints_apart() {
    use fastsc::compiler::partition::auto_region_cap;

    // auto() derives the cap from the device: on a 6x6 grid that is
    // max(ceil(36/8), 16) = 16, so the schedule must equal an explicit
    // cap-16 compile bit for bit...
    let program = Benchmark::Xeb(36, 4).build(7);
    let auto = Compiler::new(Device::grid(6, 6, 7), CompilerConfig::with_partition_auto())
        .compile(&program, Strategy::ColorDynamic)
        .expect("auto-cap compiles");
    assert_eq!(auto_region_cap(36), 16);
    let explicit = Compiler::new(Device::grid(6, 6, 7), CompilerConfig::with_partition(16))
        .compile(&program, Strategy::ColorDynamic)
        .expect("explicit-cap compiles");
    assert_eq!(
        auto.schedule, explicit.schedule,
        "auto cap resolved differently from its explicit equivalent"
    );
    // ...while the config fingerprints stay distinct: "auto" means "cap
    // follows the device", which is a different cache key than any
    // pinned cap.
    assert_ne!(
        CompilerConfig::with_partition_auto().fingerprint(),
        CompilerConfig::with_partition(16).fingerprint(),
        "auto and explicit caps must not share schedule-cache keys"
    );
    // And reproducibly: a second auto-cap compile is bit-identical.
    let again = Compiler::new(Device::grid(6, 6, 7), CompilerConfig::with_partition_auto())
        .compile(&program, Strategy::ColorDynamic)
        .expect("auto-cap recompiles");
    assert_eq!(auto.schedule, again.schedule, "auto-cap compile is not reproducible");
}

#[test]
fn multi_thread_region_fanout_matches_single_thread_bit_for_bit() {
    // The partition engine fans out over regions on multi-thread rayon
    // pools and runs inline on 1-thread pools; both paths must produce
    // identical bits for every strategy.
    let program = Benchmark::Xeb(16, 5).build(7);
    let compile = || {
        Compiler::new(Device::grid(4, 4, 7), CompilerConfig::with_partition(8))
            .compile(&program, Strategy::ColorDynamic)
            .expect("compiles")
    };
    let serial_pool = rayon::ThreadPoolBuilder::new().num_threads(1).build().expect("pool");
    let parallel_pool = rayon::ThreadPoolBuilder::new().num_threads(4).build().expect("pool");
    let serial = serial_pool.install(compile);
    let parallel = parallel_pool.install(compile);
    assert_eq!(
        serial.schedule, parallel.schedule,
        "region fan-out changed compiled output across pool sizes"
    );
    // compile_time is wall-clock; everything else in the stats must
    // agree exactly.
    assert_eq!(
        (serial.stats.lowered_gate_count, serial.stats.smt_calls, serial.stats.deferred_gates),
        (
            parallel.stats.lowered_gate_count,
            parallel.stats.smt_calls,
            parallel.stats.deferred_gates
        ),
        "stats diverged across pool sizes"
    );
}
