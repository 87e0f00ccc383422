//! Output check for compiled schedules, written from the paper's
//! definitions rather than from the engine: a schedule must execute
//! exactly the lowered program, keep each qubit's program order, place
//! two-qubit gates on couplings, and — for ColorDynamic — never run two
//! crosstalk-close couplings at colliding frequencies (paper Eqs. 2–3).

use fastsc_core::Strategy;
use fastsc_device::Device;
use fastsc_ir::{Circuit, Instruction};
use fastsc_noise::Schedule;
use std::collections::{BTreeMap, VecDeque};

/// A hashable identity of one instruction: gate tag, parameter bits and
/// operands in order.
type Key = (u8, u64, usize, usize);

fn key(inst: &Instruction) -> Key {
    let (tag, params) = inst.gate.stable_code();
    match inst.qubit_pair() {
        Some((a, b)) => (tag, params, a, b),
        None => (tag, params, inst.operands.first(), usize::MAX),
    }
}

/// Checks `schedule` against the `lowered` program it was compiled from.
///
/// `crosstalk_distance` and `tolerance` are the compile configuration's
/// crosstalk-graph distance and frequency tolerance (GHz).
///
/// # Errors
///
/// Describes the first violation found.
pub fn check(
    device: &Device,
    crosstalk_distance: usize,
    tolerance: f64,
    lowered: &Circuit,
    schedule: &Schedule,
    strategy: Strategy,
) -> Result<(), String> {
    let n = device.n_qubits();
    if schedule.n_qubits() != n {
        return Err(format!("schedule covers {} qubits, device {n}", schedule.n_qubits()));
    }

    // Each lowered gate exactly once: a multiset match.
    let mut want: BTreeMap<Key, i64> = BTreeMap::new();
    for inst in lowered.instructions() {
        *want.entry(key(inst)).or_insert(0) += 1;
    }
    for cycle in schedule.cycles() {
        for g in &cycle.gates {
            *want.entry(key(&g.instruction)).or_insert(0) -= 1;
        }
    }
    if let Some((k, surplus)) = want.iter().find(|(_, c)| **c != 0) {
        return Err(format!("gate {k:?} scheduled {} times too few", surplus));
    }

    // Program order on each qubit: the scheduled sequence of gates on a
    // qubit equals the lowered sequence on that qubit.
    let mut per_qubit: Vec<VecDeque<Key>> = vec![VecDeque::new(); n];
    for inst in lowered.instructions() {
        for q in inst.qubits() {
            per_qubit[q].push_back(key(inst));
        }
    }
    for (c, cycle) in schedule.cycles().iter().enumerate() {
        for g in &cycle.gates {
            let k = key(&g.instruction);
            for q in g.instruction.qubits() {
                if per_qubit[q].pop_front() != Some(k) {
                    return Err(format!("cycle {c}: gate {k:?} out of program order on q{q}"));
                }
            }
        }
    }

    // Two-qubit gates on couplings.
    let graph = device.connectivity();
    for (c, cycle) in schedule.cycles().iter().enumerate() {
        for g in &cycle.gates {
            if let Some((a, b)) = g.instruction.qubit_pair() {
                if !graph.has_edge(a, b) {
                    return Err(format!("cycle {c}: two-qubit gate on uncoupled q{a}-q{b}"));
                }
            }
        }
    }

    if strategy == Strategy::ColorDynamic {
        check_collisions(device, crosstalk_distance, tolerance, schedule)?;
    }
    Ok(())
}

/// Whether two interaction frequencies collide directly or through the
/// `|1>-|2>` sideband (paper Eqs. 2–3).
pub fn collide(fa: f64, fb: f64, alpha: f64, tol: f64) -> bool {
    (fa - fb).abs() < tol || (fa + alpha - fb).abs() < tol || (fb + alpha - fa).abs() < tol
}

/// No two couplings active in one cycle, within `distance` hops of each
/// other on the device graph, may sit at colliding frequencies.
fn check_collisions(
    device: &Device,
    distance: usize,
    tol: f64,
    schedule: &Schedule,
) -> Result<(), String> {
    let n = device.n_qubits();
    let alpha = device.qubits().iter().map(|q| q.anharmonicity).sum::<f64>() / n.max(1) as f64;
    let graph = device.connectivity();
    // gate_on[q]: index of the two-qubit gate on q in this cycle.
    let mut gate_on = vec![usize::MAX; n];
    let mut seen = vec![usize::MAX; n];
    for (c, cycle) in schedule.cycles().iter().enumerate() {
        let active: Vec<((usize, usize), f64)> = cycle
            .gates
            .iter()
            .filter_map(|g| Some((g.instruction.qubit_pair()?, g.interaction_freq?)))
            .collect();
        for (i, ((a, b), _)) in active.iter().enumerate() {
            gate_on[*a] = i;
            gate_on[*b] = i;
        }
        for (i, ((a, b), fa)) in active.iter().enumerate() {
            // Breadth-first search up to `distance` hops from the gate's
            // qubits; any other active gate met there is crosstalk-close.
            let mut frontier = vec![*a, *b];
            seen[*a] = i;
            seen[*b] = i;
            for _ in 0..distance {
                let mut next = Vec::new();
                for &u in &frontier {
                    for &v in graph.neighbors(u) {
                        if seen[v] != i {
                            seen[v] = i;
                            next.push(v);
                        }
                    }
                }
                for &v in &next {
                    let j = gate_on[v];
                    if j != usize::MAX && j > i && collide(*fa, active[j].1, alpha, tol) {
                        let (pa, pb) = active[j].0;
                        return Err(format!(
                            "cycle {c}: q{a}-q{b} at {fa} GHz collides with q{pa}-q{pb} at {} GHz",
                            active[j].1
                        ));
                    }
                }
                frontier = next;
            }
        }
        for ((a, b), _) in &active {
            gate_on[*a] = usize::MAX;
            gate_on[*b] = usize::MAX;
        }
        seen.fill(usize::MAX);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastsc_ir::Gate;
    use fastsc_noise::{Cycle, ScheduledGate};

    fn two_qubit(a: usize, b: usize, f: f64) -> ScheduledGate {
        let mut c = Circuit::new(4);
        c.push2(Gate::Cz, a, b).expect("valid operands");
        ScheduledGate { instruction: c.instructions()[0], interaction_freq: Some(f) }
    }

    fn schedule_of(device: &Device, cycles: Vec<Vec<ScheduledGate>>) -> Schedule {
        let mut s = Schedule::new(device.n_qubits());
        for gates in cycles {
            s.push_cycle(Cycle {
                gates,
                frequencies: vec![5.0; device.n_qubits()],
                active_couplings: Vec::new(),
                duration_ns: 10.0,
            });
        }
        s
    }

    fn lowered(pairs: &[(usize, usize)]) -> Circuit {
        let mut c = Circuit::new(4);
        for &(a, b) in pairs {
            c.push2(Gate::Cz, a, b).expect("valid operands");
        }
        c
    }

    #[test]
    fn accepts_a_sound_schedule_and_rejects_each_violation() {
        // 2x2 grid: 0-1, 0-2, 1-3, 2-3.
        let device = Device::grid(2, 2, 1);
        let program = lowered(&[(0, 1), (2, 3)]);
        let ok = schedule_of(&device, vec![vec![two_qubit(0, 1, 6.9), two_qubit(2, 3, 6.1)]]);
        assert_eq!(check(&device, 1, 1e-3, &program, &ok, Strategy::ColorDynamic), Ok(()));

        // Same frequency on crosstalk-adjacent couplings.
        let clash =
            schedule_of(&device, vec![vec![two_qubit(0, 1, 6.5), two_qubit(2, 3, 6.5)]]);
        assert!(check(&device, 1, 1e-3, &program, &clash, Strategy::ColorDynamic).is_err());
        // ... which only ColorDynamic promises to avoid.
        assert_eq!(check(&device, 1, 1e-3, &program, &clash, Strategy::BaselineN), Ok(()));

        // A gate missing, and a gate duplicated.
        let missing = schedule_of(&device, vec![vec![two_qubit(0, 1, 6.9)]]);
        assert!(check(&device, 1, 1e-3, &program, &missing, Strategy::BaselineN).is_err());
        let twice = schedule_of(
            &device,
            vec![vec![two_qubit(0, 1, 6.9), two_qubit(2, 3, 6.1)], vec![two_qubit(0, 1, 6.9)]],
        );
        assert!(check(&device, 1, 1e-3, &program, &twice, Strategy::BaselineN).is_err());

        // Program order on q1: (0,1) must run before (1,3).
        let ordered = lowered(&[(0, 1), (1, 3)]);
        let swapped =
            schedule_of(&device, vec![vec![two_qubit(1, 3, 6.9)], vec![two_qubit(0, 1, 6.9)]]);
        assert!(check(&device, 1, 1e-3, &ordered, &swapped, Strategy::BaselineN).is_err());

        // A two-qubit gate on a diagonal the grid does not couple.
        let diagonal = lowered(&[(0, 3)]);
        let off_grid = schedule_of(&device, vec![vec![two_qubit(0, 3, 6.9)]]);
        assert!(check(&device, 1, 1e-3, &diagonal, &off_grid, Strategy::BaselineN).is_err());
    }

    #[test]
    fn sideband_collisions_count() {
        assert!(collide(6.0, 6.0005, -0.2, 1e-3));
        assert!(collide(6.2, 6.0, -0.2, 1e-3));
        assert!(collide(6.0, 6.2, -0.2, 1e-3));
        assert!(!collide(6.0, 6.5, -0.2, 1e-3));
    }
}
