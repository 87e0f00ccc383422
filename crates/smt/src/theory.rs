//! Theory core: feasibility of a conjunction of difference constraints.
//!
//! A system `{ x_i - x_j <= c_ij }` is satisfiable over the reals iff its
//! *constraint graph* — an edge `j -> i` of weight `c_ij` per constraint —
//! has no negative-weight cycle. Shortest-path distances from a virtual
//! source connected to every node with weight 0 then form a satisfying
//! assignment (Bellman–Ford; see Cormen et al., §24.4).

use crate::problem::DiffConstraint;

/// Numeric slack used when comparing floating-point path lengths.
///
/// Constraint systems produced by the frequency optimizer have magnitudes
/// of a few GHz, so absolute 1e-9 (one Hz, in GHz units) is far below any
/// physically meaningful difference.
pub(crate) const EPSILON: f64 = 1e-9;

/// Decides a conjunction of difference constraints by Bellman–Ford over
/// `dist.len()` variables (including the zero variable at index 0).
///
/// Returns whether the conjunction is satisfiable; when it is, `dist`
/// holds a normalized witness (zero variable at exactly 0.0). `dist` is
/// caller-owned scratch, so the search allocates nothing per check.
pub(crate) fn check<'a, I>(constraints: I, dist: &mut [f64]) -> bool
where
    I: Iterator<Item = &'a DiffConstraint> + Clone,
{
    // dist[v]: shortest distance from the virtual source; starting at 0 for
    // every node is equivalent to an explicit source with 0-weight edges.
    dist.fill(0.0);

    // Bellman–Ford: n-1 relaxation rounds, then one detection round.
    // Early-exit when a round changes nothing.
    for _ in 0..dist.len().saturating_sub(1) {
        let mut changed = false;
        for c in constraints.clone() {
            // x - y <= bound  =>  edge y -> x with weight `bound`.
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
            return false;
        }
    }

    // Normalize so the zero variable sits at exactly 0.
    let shift = dist[0];
    for d in dist.iter_mut() {
        *d -= shift;
    }
    true
}

/// Shortest-path closure of a growing set of difference constraints, one
/// `n × n` matrix per search depth so that backtracking costs nothing.
///
/// Entry `(i, j)` of a level is the weight of the shortest path `i -> j`
/// over the edges added to that level (`+inf` when there is none), so
/// every model of those edges satisfies `x_j - x_i <= d(i, j)`. An edge
/// is added only when it closes no negative cycle; the graph of a level
/// therefore stays consistent and each entry is the weight of a simple
/// path, up to floating-point rounding.
#[derive(Debug)]
pub(crate) struct Closure {
    n: usize,
    levels: Vec<f64>,
    /// Scratch: row `v` of the level an edge `u -> v` joins.
    row: Vec<f64>,
}

impl Closure {
    /// Level 0 over `n` variables, with no edges.
    pub(crate) fn new(n: usize) -> Self {
        let mut levels = vec![f64::INFINITY; n * n];
        for i in 0..n {
            levels[i * n + i] = 0.0;
        }
        Closure { n, levels, row: vec![0.0; n] }
    }

    /// The weight of the cheapest cycle that adding `c` to level `depth`
    /// would close: `c.bound + d(c.x, c.y)`.
    pub(crate) fn cycle_with(&self, depth: usize, c: &DiffConstraint) -> f64 {
        c.bound + self.levels[depth * self.n * self.n + c.x.0 * self.n + c.y.0]
    }

    /// Overwrites level `depth + 1` with level `depth`.
    pub(crate) fn push(&mut self, depth: usize) {
        let size = self.n * self.n;
        let end = (depth + 2) * size;
        if self.levels.len() < end {
            self.levels.resize(end, 0.0);
        }
        self.levels.copy_within(depth * size..(depth + 1) * size, (depth + 1) * size);
    }

    /// Adds `c` (the edge `c.y -> c.x` of weight `c.bound`) to level
    /// `depth` in O(n²). Returns whether any entry shrank: `false` when
    /// the level already entails `c`, and when `c` would close a
    /// negative cycle (such an edge is left out, which only weakens what
    /// the level implies).
    pub(crate) fn add(&mut self, depth: usize, c: &DiffConstraint) -> bool {
        let cycle = self.cycle_with(depth, c);
        if cycle < 0.0 || cycle.is_nan() {
            return false;
        }
        let Closure { n, levels, row } = self;
        let (n, u, v, w) = (*n, c.y.0, c.x.0, c.bound);
        let d = &mut levels[depth * n * n..(depth + 1) * n * n];
        let shrank = w < d[u * n + v];
        if shrank {
            // d(i, j) = min(d(i, j), d(i, u) + w + d(v, j)). Row i is the
            // only row that updating row i changes, so d(i, u) is read
            // before it moves.
            row.copy_from_slice(&d[v * n..(v + 1) * n]);
            for i in 0..n {
                let to_u = d[i * n + u];
                if to_u == f64::INFINITY {
                    continue;
                }
                let via = to_u + w;
                for (entry, &from_v) in d[i * n..(i + 1) * n].iter_mut().zip(row.iter()) {
                    let candidate = via + from_v;
                    if candidate < *entry {
                        *entry = candidate;
                    }
                }
            }
        }
        shrank
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Var;

    fn le(x: usize, y: usize, bound: f64) -> DiffConstraint {
        DiffConstraint { x: Var(x), y: Var(y), bound }
    }

    /// The witness for `cs` over `n` variables, or `None` when unsatisfiable.
    fn solve(n: usize, cs: &[DiffConstraint]) -> Option<Vec<f64>> {
        let mut dist = vec![f64::NAN; n];
        check(cs.iter(), &mut dist).then_some(dist)
    }

    #[test]
    fn empty_system_is_sat() {
        assert_eq!(solve(3, &[]), Some(vec![0.0; 3]));
    }

    #[test]
    fn chain_is_sat_and_witness_satisfies() {
        // x1 - x2 <= -1 (x1 + 1 <= x2), x2 - x3 <= -1.
        let cs = [le(1, 2, -1.0), le(2, 3, -1.0)];
        let v = solve(4, &cs).expect("chain is satisfiable");
        for c in &cs {
            assert!(c.is_satisfied(&v, EPSILON), "violated: {c}");
        }
    }

    #[test]
    fn negative_cycle_is_unsat() {
        // x - y <= -1 and y - x <= 0 => (x - y) + (y - x) <= -1 => 0 <= -1.
        let cs = [le(1, 2, -1.0), le(2, 1, 0.0)];
        assert_eq!(solve(3, &cs), None);
    }

    #[test]
    fn zero_cycle_is_sat() {
        // x - y <= 0 and y - x <= 0 => x == y: satisfiable.
        let v = solve(3, &[le(1, 2, 0.0), le(2, 1, 0.0)]).expect("equality is satisfiable");
        assert!((v[1] - v[2]).abs() < 1e-9);
    }

    #[test]
    fn bounds_via_zero_variable() {
        // 5 <= x <= 7 as x - z <= 7, z - x <= -5.
        let v = solve(2, &[le(1, 0, 7.0), le(0, 1, -5.0)]).expect("interval is satisfiable");
        assert_eq!(v[0], 0.0);
        assert!((5.0..=7.0).contains(&v[1]), "x = {}", v[1]);
    }

    #[test]
    fn contradictory_bounds_unsat() {
        // x <= 1 and x >= 2.
        assert_eq!(solve(2, &[le(1, 0, 1.0), le(0, 1, -2.0)]), None);
    }

    #[test]
    fn witness_is_normalized() {
        // z - x <= -3 => x >= 3.
        let v = solve(2, &[le(0, 1, -3.0)]).expect("satisfiable");
        assert_eq!(v[0], 0.0);
        assert!(v[1] >= 3.0 - EPSILON);
    }

    #[test]
    fn closure_tracks_shortest_paths() {
        let mut closure = Closure::new(3);
        assert!(closure.add(0, &le(1, 0, 2.0))); // 0 -> 1, weight 2
        assert!(closure.add(0, &le(2, 1, 3.0))); // 1 -> 2, weight 3
        assert!(!closure.add(0, &le(2, 0, 9.0)), "0 -> 2 already costs 5");
        // x2 - x0 <= -6 would close the cycle 0 -> 1 -> 2 -> 0 of weight -1.
        assert_eq!(closure.cycle_with(0, &le(0, 2, -6.0)), -1.0);
        assert!(!closure.add(0, &le(0, 2, -6.0)), "negative cycles are left out");
        assert_eq!(closure.cycle_with(0, &le(0, 2, -6.0)), -1.0);
    }

    #[test]
    fn closure_levels_are_independent() {
        let mut closure = Closure::new(2);
        closure.push(0);
        assert!(closure.add(1, &le(1, 0, 1.0)));
        assert_eq!(closure.cycle_with(1, &le(0, 1, -1.5)), -0.5);
        assert_eq!(closure.cycle_with(0, &le(0, 1, -1.5)), f64::INFINITY);
        closure.push(0);
        assert_eq!(closure.cycle_with(1, &le(0, 1, -1.5)), f64::INFINITY, "push resets");
    }
}
