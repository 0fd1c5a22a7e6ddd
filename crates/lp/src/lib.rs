//! A small, dependency-free linear-programming solver.
//!
//! The Pareto modeler of Chakrabarti et al. (ICPP 2017, §III-D) scalarizes
//! its two objectives (makespan `v` and total dirty energy) into a single
//! linear program
//!
//! ```text
//! minimize   α·v + (1−α)·Σ_i k_i (m_i x_i + c_i)
//! subject to v ≥ m_i x_i + c_i          (for every node i)
//!            Σ_i x_i = N
//!            x_i ≥ 0
//! ```
//!
//! which is tiny (`p + 1` variables, `p + 1` constraints). Equal-finish
//! waterfilling does not solve it in general: the energy coefficients
//! `k_i` may be negative (nodes with surplus green energy), and at `α < 1`
//! levelling finish times is not the objective. It does have a closed
//! form, though: for a fixed `v` the energy term is a fractional knapsack
//! filled in ascending `k_i·m_i`, so the optimum sits at the lowest
//! feasible `v` or at a breakpoint of that fill.
//! `pareto_core::pareto::ParetoModeler::solve` plans with that breakpoint
//! walk, and this crate is its independent oracle in tests (and the
//! benchmark ledger's `lp.*` rows). It implements a dense **two-phase
//! primal simplex** with Bland's anti-cycling rule and reusable bases —
//! exact for problems of this scale and straightforward to audit.
//!
//! # Example
//!
//! ```
//! use pareto_lp::{Problem, Relation, SolveStatus};
//!
//! // minimize -x0 - 2 x1  s.t.  x0 + x1 <= 4,  x1 <= 3,  x >= 0
//! let mut p = Problem::minimize(vec![-1.0, -2.0]);
//! p.constrain(vec![1.0, 1.0], Relation::Le, 4.0);
//! p.constrain(vec![0.0, 1.0], Relation::Le, 3.0);
//! let sol = p.solve().unwrap();
//! assert_eq!(sol.status, SolveStatus::Optimal);
//! assert!((sol.objective - (-7.0)).abs() < 1e-9);
//! assert!((sol.x[0] - 1.0).abs() < 1e-9 && (sol.x[1] - 3.0).abs() < 1e-9);
//! ```

mod simplex;

pub use simplex::{Basis, LpError, Problem, Relation, Solution, SolveStatus, Solved, StartKind};
