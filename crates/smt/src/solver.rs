//! DPLL-style case-split search over disjunctive difference clauses, with
//! theory propagation.
//!
//! The solver maintains a stack of chosen literals (one per decided clause)
//! and asks the theory core for feasibility of the hard constraints plus the
//! chosen literals after every decision, pruning infeasible branches early.
//! Clauses are decided in order of increasing literal count (all clauses
//! from the frequency optimizer are binary, but the engine is general).
//!
//! Alongside, each node keeps the shortest-path [`Closure`] of what every
//! acceptable leaf below it must contain, and cuts literals and subtrees
//! that would close a cycle below [`MARGIN`]; the crate docs give the
//! soundness argument.

use crate::problem::{DiffConstraint, Problem, Var};
use crate::theory::{self, Closure, EPSILON};

/// How far below zero a cycle must fall before propagation treats it as a
/// contradiction.
///
/// A leaf's Bellman–Ford check accepts a simple cycle of `L` edges down to
/// `-L · EPSILON`, so cutting is sound only for cycles well below that:
/// `MARGIN` is a thousand times `EPSILON`, and problems large enough in
/// variables or bound magnitude to approach it widen it (see
/// [`Search::new`]).
pub(crate) const MARGIN: f64 = 1e-6;

/// A satisfying assignment for a [`Problem`].
#[derive(Debug, Clone, PartialEq)]
pub struct Model {
    values: Vec<f64>, // index 0 is the zero variable (always 0.0)
}

impl Model {
    /// The value assigned to `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` does not belong to the problem that produced this
    /// model.
    pub fn value(&self, v: Var) -> f64 {
        self.values[v.0]
    }

    /// All user-variable values, in variable-creation order.
    pub fn values(&self) -> &[f64] {
        &self.values[1..]
    }

    /// Verifies this model against a problem, with `tol` slack per
    /// constraint. Useful in tests and debug assertions.
    pub fn satisfies(&self, p: &Problem, tol: f64) -> bool {
        p.hard.iter().all(|c| c.is_satisfied(&self.values, tol))
            && p.clauses.iter().all(|cl| cl.is_satisfied(&self.values, tol))
    }
}

impl Problem {
    /// Decides satisfiability and returns a model if one exists.
    ///
    /// The search explores at most `prod(|clause_i|)` theory checks but
    /// prunes aggressively: each partial choice set is checked for
    /// feasibility before descending, literals that would contradict the
    /// shortest-path closure of the current node are skipped, and clauses
    /// left with a single viable literal propagate it. Which model comes
    /// back is fixed by the order of the plain case split, so propagation
    /// changes only how fast it is found. A whole `smt_find` on ten colors
    /// (165 binary clauses per probe, about 25 probes) takes about 10 ms.
    pub fn solve(&self) -> Option<Model> {
        // Order clauses smallest-first to fail fast on tight disjunctions.
        let mut order: Vec<usize> = (0..self.clauses.len()).collect();
        order.sort_by_key(|&i| self.clauses[i].literals.len());
        Search::new(self, &order).run().map(|values| Model { values })
    }
}

/// One [`Problem::solve`] call: the decision stack plus per-depth
/// witnesses and closures, allocated as the search first reaches a depth
/// and reused by every later node there.
struct Search<'a> {
    problem: &'a Problem,
    order: &'a [usize],
    margin: f64,
    chosen: Vec<DiffConstraint>,
    /// `n_vars` values per depth: the Bellman–Ford witness of each node on
    /// the current path.
    witnesses: Vec<f64>,
    closure: Closure,
}

impl<'a> Search<'a> {
    fn new(problem: &'a Problem, order: &'a [usize]) -> Self {
        // Keep the margin far above both the slack a leaf accepts
        // (n · EPSILON) and the rounding of paths of up to n edges.
        let n = problem.n_vars as f64;
        let max_bound = problem
            .hard
            .iter()
            .chain(problem.clauses.iter().flat_map(|c| &c.literals))
            .map(|c| c.bound.abs())
            .filter(|b| b.is_finite())
            .fold(0.0, f64::max);
        Search {
            problem,
            order,
            margin: MARGIN.max(10.0 * n * EPSILON + 1e-13 * n * n * max_bound),
            chosen: Vec::with_capacity(order.len()),
            witnesses: Vec::new(),
            closure: Closure::new(problem.n_vars),
        }
    }

    fn run(mut self) -> Option<Vec<f64>> {
        for c in &self.problem.hard {
            if self.dead(0, c) {
                return None;
            }
            self.closure.add(0, c);
        }
        self.node(0)
    }

    /// Whether adding `c` to the closure at `depth` closes a cycle below
    /// the margin, so that no leaf holding both is accepted. Infinite
    /// bounds are never judged: the plain search gives them no meaning to
    /// preserve.
    fn dead(&self, depth: usize, c: &DiffConstraint) -> bool {
        let cycle = self.closure.cycle_with(depth, c);
        cycle < -self.margin && cycle.is_finite()
    }

    /// Unit propagation over the clauses not yet decided at `depth`: a
    /// clause with one live literal adds it to the closure, until nothing
    /// changes. Returns `false` when some clause has no live literal.
    fn propagate(&mut self, depth: usize) -> bool {
        let (problem, order) = (self.problem, self.order);
        loop {
            let mut grew = false;
            for &i in &order[depth..] {
                let mut live =
                    problem.clauses[i].literals.iter().filter(|l| !self.dead(depth, l));
                match (live.next(), live.next()) {
                    (None, _) => return false,
                    (Some(unit), None) => grew |= self.closure.add(depth, unit),
                    _ => {}
                }
            }
            if !grew {
                return true;
            }
        }
    }

    /// Explores the node at `depth`, whose closure already holds the hard
    /// constraints, the chosen literals, and the units propagated above.
    fn node(&mut self, depth: usize) -> Option<Vec<f64>> {
        if !self.propagate(depth) {
            return None;
        }
        // The witness is computed exactly as the plain search does: from
        // the hard constraints and the chosen literals alone.
        let n = self.problem.n_vars;
        let witness = depth * n..(depth + 1) * n;
        if self.witnesses.len() < witness.end {
            self.witnesses.resize(witness.end, 0.0);
        }
        let active = self.problem.hard.iter().chain(&self.chosen);
        if !theory::check(active, &mut self.witnesses[witness.clone()]) {
            return None;
        }
        let Some(&next) = self.order.get(depth) else {
            return Some(self.witnesses[witness].to_vec());
        };

        // Try literals the current witness satisfies first (they are most
        // likely to stay feasible), each group in clause order.
        let literals = &self.problem.clauses[next].literals;
        for satisfied in [true, false] {
            for literal in literals {
                if literal.is_satisfied(&self.witnesses[witness.clone()], EPSILON) != satisfied
                    || self.dead(depth, literal)
                {
                    continue;
                }
                self.closure.push(depth);
                self.closure.add(depth + 1, literal);
                self.chosen.push(*literal);
                let found = self.node(depth + 1);
                self.chosen.pop();
                if found.is_some() {
                    return found;
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn unconstrained_problem_is_sat() {
        let mut p = Problem::new();
        let _ = p.new_var();
        let model = p.solve().expect("no constraints");
        assert!(model.satisfies(&p, EPSILON));
    }

    #[test]
    fn simple_bounds_model_in_range() {
        let mut p = Problem::new();
        let x = p.new_var();
        p.add_bounds(x, 5.0, 7.0);
        let m = p.solve().expect("interval is satisfiable");
        assert!((5.0 - 1e-9..=7.0 + 1e-9).contains(&m.value(x)));
    }

    #[test]
    fn infeasible_bounds_unsat() {
        let mut p = Problem::new();
        let x = p.new_var();
        let zero_width = 6.0;
        p.add_bounds(x, zero_width, zero_width); // fine: x == 6
        p.add_ge(x, p.zero(), 8.0); // x >= 8 contradicts x <= 6
        assert!(p.solve().is_none());
    }

    #[test]
    fn two_vars_separation_clause() {
        let mut p = Problem::new();
        let x = p.new_var();
        let y = p.new_var();
        p.add_bounds(x, 0.0, 1.0);
        p.add_bounds(y, 0.0, 1.0);
        p.add_abs_ge(x, 0.0, y, 0.7);
        let m = p.solve().expect("0.7 separation fits in [0,1]");
        assert!((m.value(x) - m.value(y)).abs() >= 0.7 - 1e-9);
        assert!(m.satisfies(&p, EPSILON));
    }

    #[test]
    fn separation_too_wide_unsat() {
        let mut p = Problem::new();
        let x = p.new_var();
        let y = p.new_var();
        p.add_bounds(x, 0.0, 1.0);
        p.add_bounds(y, 0.0, 1.0);
        p.add_abs_ge(x, 0.0, y, 1.5);
        assert!(p.solve().is_none());
    }

    #[test]
    fn three_way_separation_packs_interval() {
        let mut p = Problem::new();
        let vars: Vec<Var> = (0..3).map(|_| p.new_var()).collect();
        for &v in &vars {
            p.add_bounds(v, 0.0, 1.0);
        }
        for i in 0..vars.len() {
            for j in (i + 1)..vars.len() {
                p.add_abs_ge(vars[i], 0.0, vars[j], 0.5);
            }
        }
        // 3 points pairwise >= 0.5 apart need an interval of length >= 1.0.
        let m = p.solve().expect("exactly fits");
        assert!(m.satisfies(&p, EPSILON));
        let mut vals: Vec<f64> = vars.iter().map(|&v| m.value(v)).collect();
        vals.sort_by(f64::total_cmp);
        assert!(vals[1] - vals[0] >= 0.5 - 1e-9);
        assert!(vals[2] - vals[1] >= 0.5 - 1e-9);
    }

    #[test]
    fn three_way_separation_overpacked_unsat() {
        let mut p = Problem::new();
        let vars: Vec<Var> = (0..3).map(|_| p.new_var()).collect();
        for &v in &vars {
            p.add_bounds(v, 0.0, 1.0);
        }
        for i in 0..vars.len() {
            for j in (i + 1)..vars.len() {
                p.add_abs_ge(vars[i], 0.0, vars[j], 0.51);
            }
        }
        assert!(p.solve().is_none());
    }

    #[test]
    fn sideband_constraint_with_anharmonicity() {
        // Mirrors the paper's Eq. (3): |x_i + alpha - x_j| >= delta with
        // alpha = -0.2 GHz. Place two interaction frequencies in [6, 7].
        let mut p = Problem::new();
        let x = p.new_var();
        let y = p.new_var();
        let alpha = -0.2;
        p.add_bounds(x, 6.0, 7.0);
        p.add_bounds(y, 6.0, 7.0);
        p.add_abs_ge(x, 0.0, y, 0.3);
        p.add_abs_ge(x, alpha, y, 0.3);
        p.add_abs_ge(y, alpha, x, 0.3);
        let m = p.solve().expect("plenty of room in 1 GHz");
        let (xv, yv) = (m.value(x), m.value(y));
        assert!((xv - yv).abs() >= 0.3 - 1e-9);
        assert!((xv + alpha - yv).abs() >= 0.3 - 1e-9);
        assert!((yv + alpha - xv).abs() >= 0.3 - 1e-9);
    }

    #[test]
    fn ordering_constraints_respected() {
        let mut p = Problem::new();
        let hi = p.new_var();
        let lo = p.new_var();
        p.add_bounds(hi, 0.0, 10.0);
        p.add_bounds(lo, 0.0, 10.0);
        p.add_ge(hi, lo, 2.0); // hi >= lo + 2
        let m = p.solve().expect("feasible");
        assert!(m.value(hi) - m.value(lo) >= 2.0 - 1e-9);
    }

    #[test]
    fn general_clause_three_literals() {
        let mut p = Problem::new();
        let x = p.new_var();
        p.add_bounds(x, 0.0, 10.0);
        // x <= 1 OR x <= 2 OR x >= 9 — trivially satisfiable.
        let z = p.zero();
        p.add_clause(vec![
            DiffConstraint { x, y: z, bound: 1.0 },
            DiffConstraint { x, y: z, bound: 2.0 },
            DiffConstraint { x: z, y: x, bound: -9.0 },
        ]);
        // Force x >= 5 so only the third literal can hold.
        p.add_ge(x, z, 5.0);
        let m = p.solve().expect("third literal satisfiable");
        assert!(m.value(x) >= 9.0 - 1e-9);
    }

    #[test]
    fn model_values_exposes_user_vars_only() {
        let mut p = Problem::new();
        let a = p.new_var();
        let b = p.new_var();
        p.add_bounds(a, 1.0, 1.0);
        p.add_bounds(b, 2.0, 2.0);
        let m = p.solve().expect("pinned values");
        assert_eq!(m.values().len(), 2);
        assert!((m.value(a) - 1.0).abs() < 1e-9);
        assert!((m.value(b) - 2.0).abs() < 1e-9);
    }

    /// The plain chronological case split [`Problem::solve`] grew from,
    /// kept as its oracle: no closure, no propagation, a fresh constraint
    /// list and Bellman–Ford distance vector at every node.
    mod reference {
        use crate::problem::{DiffConstraint, Problem};
        use crate::theory::EPSILON;

        /// Every value of the model (zero variable first), or `None`.
        pub(super) fn solve(p: &Problem) -> Option<Vec<f64>> {
            let mut order: Vec<usize> = (0..p.clauses.len()).collect();
            order.sort_by_key(|&i| p.clauses[i].literals.len());
            search(p, &order, 0, &mut Vec::new())
        }

        fn search(
            p: &Problem,
            order: &[usize],
            depth: usize,
            chosen: &mut Vec<DiffConstraint>,
        ) -> Option<Vec<f64>> {
            let mut active = p.hard.clone();
            active.extend_from_slice(chosen);
            let witness = check(p.n_vars, &active)?;
            if depth == order.len() {
                return Some(witness);
            }
            let clause = &p.clauses[order[depth]];
            let mut literal_order: Vec<&DiffConstraint> = clause.literals.iter().collect();
            literal_order.sort_by_key(|l| {
                if l.is_satisfied(&witness, EPSILON) {
                    0u8
                } else {
                    1u8
                }
            });
            for literal in literal_order {
                chosen.push(*literal);
                if let Some(model) = search(p, order, depth + 1, chosen) {
                    return Some(model);
                }
                chosen.pop();
            }
            None
        }

        fn check(n_vars: usize, constraints: &[DiffConstraint]) -> Option<Vec<f64>> {
            let mut dist = vec![0.0f64; n_vars];
            for _ in 0..n_vars.saturating_sub(1) {
                let mut changed = false;
                for c in constraints {
                    let candidate = dist[c.y.0] + c.bound;
                    if candidate < dist[c.x.0] - EPSILON {
                        dist[c.x.0] = candidate;
                        changed = true;
                    }
                }
                if !changed {
                    break;
                }
            }
            for c in constraints {
                if dist[c.y.0] + c.bound < dist[c.x.0] - EPSILON {
                    return None;
                }
            }
            let shift = dist[0];
            for d in &mut dist {
                *d -= shift;
            }
            Some(dist)
        }
    }

    /// `solve()` and the reference as raw bits, so `0.0`/`-0.0` and every
    /// last ulp count.
    fn solve_and_reference(p: &Problem) -> (Option<Vec<u64>>, Option<Vec<u64>>) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        (p.solve().map(|m| bits(&m.values)), reference::solve(p).map(|v| bits(&v)))
    }

    /// The paper's `smt_find` problem at one probe: `k` ordered values in
    /// `[lo, hi]`, the lowest at or above `floor`, every pair `delta`
    /// apart directly and at both sideband offsets `alpha`.
    fn smt_find_shaped(
        k: usize,
        lo: f64,
        hi: f64,
        alpha: f64,
        delta: f64,
        floor: f64,
    ) -> Problem {
        let mut p = Problem::new();
        let xs: Vec<Var> = (0..k).map(|_| p.new_var()).collect();
        for &x in &xs {
            p.add_bounds(x, lo, hi);
        }
        p.add_bounds(xs[k - 1], floor.min(hi), hi);
        for i in 0..k {
            for j in (i + 1)..k {
                p.add_abs_ge(xs[i], 0.0, xs[j], delta);
                p.add_abs_ge(xs[i], alpha, xs[j], delta);
                p.add_abs_ge(xs[j], alpha, xs[i], delta);
                p.add_ge(xs[i], xs[j], 0.0);
            }
        }
        p
    }

    /// A bound on a quarter grid half the time, so that exactly tight
    /// and zero-weight cycles come up often; continuous otherwise.
    fn bound() -> impl Strategy<Value = f64> {
        (any::<bool>(), -8i32..=8, -2.0f64..2.0).prop_map(|(grid, q, c)| {
            if grid {
                f64::from(q) * 0.25
            } else {
                c
            }
        })
    }

    fn literal(n: usize) -> impl Strategy<Value = DiffConstraint> {
        (0..=n, 0..=n, bound()).prop_map(|(x, y, bound)| DiffConstraint {
            x: Var(x),
            y: Var(y),
            bound,
        })
    }

    /// Up to six variables, random hard constraints, and clauses of one
    /// to three literals over them and the zero variable.
    fn difference_problem() -> impl Strategy<Value = Problem> {
        (1usize..=6)
            .prop_flat_map(|n| {
                let clauses = proptest::collection::vec(
                    proptest::collection::vec(literal(n), 1..=3),
                    0..8,
                );
                (Just(n), proptest::collection::vec(literal(n), 0..8), clauses)
            })
            .prop_map(|(n, hard, clauses)| {
                let mut p = Problem::new();
                for _ in 0..n {
                    let _ = p.new_var();
                }
                p.hard = hard;
                clauses.into_iter().for_each(|c| p.add_clause(c));
                p
            })
    }

    /// `smt_find` probes with `k <= 9`, a random band and anharmonicity,
    /// a separation up to 1.2x the widest that fits without sidebands,
    /// and a floor anywhere in the band: satisfiable and unsatisfiable
    /// probes near the boundary, where the search runs deepest.
    fn smt_find_problem() -> impl Strategy<Value = Problem> {
        (1usize..=9, 4.0f64..6.5, 0.05f64..1.5, -0.35f64..-0.05, 0.0f64..1.2, 0.0f64..1.0)
            .prop_map(|(k, lo, width, alpha, spread, rise)| {
                let delta = spread.powi(2) * width / (k.max(2) - 1) as f64;
                smt_find_shaped(k, lo, lo + width, alpha, delta, lo + rise.powi(3) * width)
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn solve_matches_reference_on_difference_problems(p in difference_problem()) {
            let (fast, plain) = solve_and_reference(&p);
            prop_assert_eq!(fast, plain);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn solve_matches_reference_on_smt_find_probes(p in smt_find_problem()) {
            let (fast, plain) = solve_and_reference(&p);
            prop_assert_eq!(fast, plain);
        }
    }

    #[test]
    fn smt_find_probe_sequences_match_reference() {
        // Every probe of both `smt_find` binary searches (separation,
        // then floor) for k = 1..=9, checked against the reference as
        // `maximize` builds it.
        let (lo, hi, alpha, tol) = (6.0, 6.855121122742719, -0.2, 1e-3);
        for k in 1..=9 {
            let build = |delta: f64, floor: f64| {
                let p = smt_find_shaped(k, lo, hi, alpha, delta, floor);
                let (fast, plain) = solve_and_reference(&p);
                assert_eq!(fast, plain, "k = {k}, delta = {delta}, floor = {floor}");
                p
            };
            let best = crate::maximize(0.0, hi - lo, tol, |d| build(d, lo)).expect("fits").best;
            crate::maximize(lo, hi, tol, |f| build((best - tol).max(0.0), f)).expect("fits");
        }
    }

    #[test]
    fn many_binary_clauses_match_reference() {
        // 8 colors in [6, 7] with sidebands: the size the static baseline
        // needs on a mesh, once where it fits and once where it does not.
        for (delta, fits) in [(0.05, true), (0.08, false)] {
            let p = smt_find_shaped(8, 6.0, 7.0, -0.2, delta, 6.0);
            let (fast, plain) = solve_and_reference(&p);
            assert_eq!(fast.is_some(), fits, "delta = {delta}");
            assert_eq!(fast, plain, "delta = {delta}");
        }
    }
}
