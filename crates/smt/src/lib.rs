//! A small Satisfiability-Modulo-Theories solver for **difference logic**
//! over the reals, replacing the Z3 dependency of the original FastSC
//! implementation.
//!
//! The paper's frequency assignment (§V-B3) asks for `|C|` frequencies
//! `x_c ∈ [ω_lo, ω_hi]` such that for every pair of colors
//!
//! ```text
//! |x_i - x_j|     >= δ        (direct resonance)
//! |x_i + α - x_j| >= δ        (sideband resonance, α = anharmonicity)
//! ```
//!
//! and then maximizes the separation threshold δ by binary search
//! (`smt_find`). After case-splitting each absolute value, every atom is a
//! *difference constraint* `x - y <= c`, a theory decidable by detecting
//! negative cycles in a weighted constraint graph (Bellman–Ford). This crate
//! implements exactly that fragment:
//!
//! * [`Problem`] — conjunction of hard difference constraints plus
//!   disjunctive [`Clause`]s (e.g. from absolute values);
//! * a DPLL-style case-split search with theory-level pruning and theory
//!   propagation (below);
//! * [`Model`] extraction from shortest-path potentials;
//! * [`maximize`] — binary search for the largest parameter for which a
//!   parameterized problem stays satisfiable.
//!
//! # Search and propagation
//!
//! The search decides clauses in a fixed order (fewest literals first)
//! and, at every node, computes a Bellman–Ford witness over the hard
//! constraints plus the literals chosen so far; it prunes when there is
//! none, and tries first the literals that witness already satisfies.
//! The first leaf whose witness exists is the model. That plain case
//! split fixes *which* model [`Problem::solve`] returns. Everything below
//! only makes it faster to reach.
//!
//! Each node also keeps the shortest-path closure `d` of the constraints
//! every acceptable leaf below it must contain (n × n for n variables,
//! updated in O(n²) per added edge and handed down the search). A literal
//! `x - y <= c` is *dead* when `c + d(x, y) < -MARGIN`, because adding it
//! would close a cycle of that weight. A child whose literal is dead is
//! never entered. An undecided clause with no live literal cuts the
//! node. An undecided clause with exactly one live literal adds that
//! literal to the closure: every acceptable leaf below must choose it.
//! Propagated literals feed the closure only. The witness of every node
//! still comes from the hard and chosen constraints, exactly as in the
//! plain case split.
//!
//! **Soundness.** A leaf is accepted when its Bellman–Ford potentials
//! satisfy every constraint to within `EPSILON` (1e-9). Summed around a
//! simple cycle of `L` edges, that bounds the cycle's weight below by
//! `-L · EPSILON`. So a leaf holding a simple cycle lighter than
//! `-n · EPSILON` is never accepted. The closure only takes edges that
//! close no negative cycle, so its entries are simple-path weights, and
//! a dead literal closes a simple cycle lighter than `-MARGIN`.
//! `MARGIN` is 1e-6, a thousand times `EPSILON`. That is far above
//! `n · EPSILON` plus the rounding of such paths for any problem this
//! workspace builds: at most a dozen variables with GHz-scale bounds.
//! Larger problems widen the margin with their size and their bound
//! magnitudes. So every cut removes only subtrees without an acceptable
//! leaf. The first acceptable leaf, and so the returned model, stays the
//! same to the bit.
//!
//! On the paper's workload this turns exhaustive enumeration into a
//! short search. Ten colors need about 10 ms per `smt_find` instead of
//! about 0.3 s.
//!
//! # Example: three frequencies in 1 GHz with 0.4 GHz separation
//!
//! ```
//! use fastsc_smt::Problem;
//!
//! let mut p = Problem::new();
//! let xs: Vec<_> = (0..3).map(|_| p.new_var()).collect();
//! for &x in &xs {
//!     p.add_bounds(x, 6.0, 7.0);
//! }
//! for i in 0..3 {
//!     for j in (i + 1)..3 {
//!         p.add_abs_ge(xs[i], 0.0, xs[j], 0.4); // |x_i - x_j| >= 0.4
//!     }
//! }
//! let model = p.solve().expect("three slots fit in 1 GHz at 0.4 GHz spacing");
//! let mut vals: Vec<f64> = xs.iter().map(|&x| model.value(x)).collect();
//! vals.sort_by(f64::total_cmp);
//! assert!(vals[1] - vals[0] >= 0.4 - 1e-9);
//! assert!(vals[2] - vals[1] >= 0.4 - 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod optimize;
mod problem;
mod solver;
mod theory;

pub use optimize::{maximize, MaximizeResult};
pub use problem::{Clause, DiffConstraint, Problem, Var};
pub use solver::Model;
