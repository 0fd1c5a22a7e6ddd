//! Revised simplex with warm-startable, serializable bases.
//!
//! Problems are stated as `minimize c·x` over `x ≥ 0` with linear
//! constraints `a·x {≤,≥,=} b`. Internally each right-hand side is made
//! non-negative, slack/surplus columns are appended for inequalities, and
//! phase 1 minimizes the sum of artificial variables to find a basic
//! feasible point before phase 2 optimizes the true objective. Bland's rule
//! guarantees termination; the problems solved in this workspace have at
//! most a few dozen variables, so numerical drift is negligible at the
//! `1e-9` tolerance used throughout.
//!
//! Unlike a dense tableau, the solver works with an explicit basis (an LU
//! factorization of the basic columns, refreshed per pivot) over the
//! original standardized data. That makes the final basis a first-class,
//! serializable artifact ([`Basis`]) that callers can hold and re-seed via
//! [`Problem::solve_from`]: the basis is re-factorized against the new
//! problem, primal feasibility is repaired with bounded dual simplex steps,
//! and the remaining primal pivots start from a near-optimal vertex.
//!
//! Warm starts are *bit-identical* to cold solves: the optimal vertex is
//! always extracted canonically from the final basis (columns sorted
//! ascending, deterministic LU over the original standardized data), so the
//! extracted `(status, x, objective)` depends only on the final basis set,
//! not on the pivot path that reached it. A warm result is accepted only
//! when the final basis is provably the unique optimum (all nonbasic
//! reduced costs and all basic values clear a strict margin); otherwise the
//! solver deterministically falls back to the cold two-phase path, so a
//! warm caller can never observe a different `Solution` than a cold one.

use std::fmt;

/// Numerical tolerance for feasibility/optimality decisions.
const EPS: f64 = 1e-9;
/// Pivot magnitude below which an LU factorization is declared singular.
const SING_EPS: f64 = 1e-12;
/// Margin proving a basis is the *unique* optimum: every nonbasic reduced
/// cost and every basic value must exceed this. Chosen far above the float
/// noise of these few-dozen-variable problems (~1e-12) and below any
/// meaningful model distinction, so acceptance is conservative but common.
const UNIQ_EPS: f64 = 1e-7;
/// Hard iteration cap (defense in depth; Bland's rule already terminates).
const MAX_ITERS: usize = 100_000;

/// Constraint sense.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// `a·x ≤ b`
    Le,
    /// `a·x ≥ b`
    Ge,
    /// `a·x = b`
    Eq,
}

/// Outcome classification of a solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveStatus {
    /// An optimal basic feasible solution was found.
    Optimal,
    /// The feasible region is empty.
    Infeasible,
    /// The objective is unbounded below over the feasible region.
    Unbounded,
}

/// Errors from problem construction or solving.
#[derive(Debug, Clone, PartialEq)]
pub enum LpError {
    /// A constraint row has the wrong number of coefficients.
    DimensionMismatch { expected: usize, got: usize },
    /// A non-finite coefficient was supplied.
    NonFinite,
    /// The iteration cap was hit (should not happen with Bland's rule).
    IterationLimit,
}

impl fmt::Display for LpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LpError::DimensionMismatch { expected, got } => {
                write!(f, "constraint has {got} coefficients, expected {expected}")
            }
            LpError::NonFinite => write!(f, "non-finite coefficient"),
            LpError::IterationLimit => write!(f, "simplex iteration limit exceeded"),
        }
    }
}

impl std::error::Error for LpError {}

/// A solution returned by [`Problem::solve`].
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Final status; `x`/`objective` are meaningful only when `Optimal`.
    pub status: SolveStatus,
    /// Optimal values of the structural variables (same order as the costs).
    pub x: Vec<f64>,
    /// Optimal objective value `c·x` (+ any constant you add externally).
    pub objective: f64,
    /// Simplex pivots performed across both phases. For a warm solve this
    /// counts the pivots actually spent (including an abandoned warm attempt
    /// before a fallback), so it is the one field *not* covered by the
    /// warm/cold bit-identity contract on `(status, x, objective)`.
    pub iterations: usize,
}

/// How a [`Problem::solve_warm`] call reached its answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StartKind {
    /// No warm basis was supplied (or it was shape-incompatible on sight).
    Cold,
    /// The warm basis was re-seeded and the result accepted as provably
    /// identical to a cold solve.
    Warm,
    /// A warm basis was attempted but repair/acceptance failed; the
    /// returned solution comes from the deterministic cold fallback.
    WarmFallback,
}

/// A serializable simplex basis: the set of basic column indices of the
/// standardized problem (structural variables first, then one slack or
/// surplus column per row in row order, then artificials).
///
/// The column set is kept sorted, so two bases compare equal iff they
/// select the same columns regardless of the pivot order that produced
/// them. Bases holding artificial columns (redundant constraint rows)
/// are never produced for warm reuse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Basis {
    m: u32,
    n_struct: u32,
    cols: Vec<u32>,
}

/// Magic prefix of the [`Basis::encode`] byte format.
const BASIS_MAGIC: &[u8; 4] = b"PLB1";

impl Basis {
    /// Build a basis from raw column indices (sorted internally). Returns
    /// `None` if the column count does not match `m` or contains duplicates.
    pub fn from_columns(m: usize, n_struct: usize, mut cols: Vec<u32>) -> Option<Basis> {
        if cols.len() != m {
            return None;
        }
        cols.sort_unstable();
        if cols.windows(2).any(|w| w[0] == w[1]) {
            return None;
        }
        Some(Basis {
            m: m as u32,
            n_struct: n_struct as u32,
            cols,
        })
    }

    /// Number of constraint rows the basis was built for.
    pub fn num_rows(&self) -> usize {
        self.m as usize
    }

    /// Number of structural variables the basis was built for.
    pub fn num_structural(&self) -> usize {
        self.n_struct as usize
    }

    /// Basic column indices, sorted ascending.
    pub fn columns(&self) -> &[u32] {
        &self.cols
    }

    /// Serialize to a compact, versioned little-endian byte layout:
    /// `"PLB1" | m: u32 | n_struct: u32 | cols: u32 × m`.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(12 + 4 * self.cols.len());
        out.extend_from_slice(BASIS_MAGIC);
        out.extend_from_slice(&self.m.to_le_bytes());
        out.extend_from_slice(&self.n_struct.to_le_bytes());
        for c in &self.cols {
            out.extend_from_slice(&c.to_le_bytes());
        }
        out
    }

    /// Inverse of [`Basis::encode`]; `None` on any malformed input.
    pub fn decode(bytes: &[u8]) -> Option<Basis> {
        let rest = bytes.strip_prefix(BASIS_MAGIC)?;
        if rest.len() < 8 {
            return None;
        }
        let m = u32::from_le_bytes(rest[0..4].try_into().ok()?);
        let n_struct = u32::from_le_bytes(rest[4..8].try_into().ok()?);
        let body = &rest[8..];
        if body.len() != 4 * m as usize {
            return None;
        }
        let cols: Vec<u32> = body
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect();
        if cols.windows(2).any(|w| w[0] >= w[1]) {
            return None;
        }
        Some(Basis { m, n_struct, cols })
    }
}

/// A solve outcome carrying the reusable basis alongside the solution.
#[derive(Debug, Clone, PartialEq)]
pub struct Solved {
    /// The solution, bit-identical whether warm- or cold-started.
    pub solution: Solution,
    /// The optimal basis (present only when `status == Optimal`), suitable
    /// for re-seeding a related solve via [`Problem::solve_from`].
    pub basis: Option<Basis>,
    /// Whether the warm basis was used, unusable, or absent.
    pub start: StartKind,
}

/// A linear program `minimize c·x` over `x ≥ 0`.
#[derive(Debug, Clone)]
pub struct Problem {
    costs: Vec<f64>,
    rows: Vec<(Vec<f64>, Relation, f64)>,
}

impl Problem {
    /// Start a minimization problem with the given cost vector.
    pub fn minimize(costs: Vec<f64>) -> Self {
        Problem {
            costs,
            rows: Vec::new(),
        }
    }

    /// Start a maximization problem (costs are negated internally; the
    /// reported objective is negated back).
    pub fn maximize(costs: Vec<f64>) -> MaximizeProblem {
        MaximizeProblem {
            inner: Problem::minimize(costs.iter().map(|c| -c).collect()),
        }
    }

    /// Number of structural variables.
    pub fn num_vars(&self) -> usize {
        self.costs.len()
    }

    /// Add the constraint `coeffs·x  rel  rhs`. Arity is validated by the
    /// typed path in [`Problem::solve`] (`LpError::DimensionMismatch`), so
    /// malformed rows never panic.
    pub fn constrain(&mut self, coeffs: Vec<f64>, rel: Relation, rhs: f64) -> &mut Self {
        self.rows.push((coeffs, rel, rhs));
        self
    }

    fn validate(&self) -> Result<(), LpError> {
        if self.costs.iter().any(|c| !c.is_finite()) {
            return Err(LpError::NonFinite);
        }
        for (coeffs, _, rhs) in &self.rows {
            if coeffs.len() != self.costs.len() {
                return Err(LpError::DimensionMismatch {
                    expected: self.costs.len(),
                    got: coeffs.len(),
                });
            }
            if coeffs.iter().any(|c| !c.is_finite()) || !rhs.is_finite() {
                return Err(LpError::NonFinite);
            }
        }
        Ok(())
    }

    /// Validate inputs, then run two-phase simplex from scratch.
    pub fn solve(&self) -> Result<Solution, LpError> {
        Ok(self.solve_warm(None)?.solution)
    }

    /// Cold solve that also returns the optimal [`Basis`] for reuse.
    pub fn solve_cold(&self) -> Result<Solved, LpError> {
        self.solve_warm(None)
    }

    /// Warm-started solve seeded from a basis of a related problem (same
    /// standardized shape; typically the previous point of an alpha sweep
    /// or the pre-fault plan). Guaranteed to return the same
    /// `(status, x, objective)` as [`Problem::solve`]: when the repaired
    /// warm basis cannot be proven to be the unique cold optimum, the
    /// solver falls back to the cold path (`StartKind::WarmFallback`).
    pub fn solve_from(&self, warm: &Basis) -> Result<Solved, LpError> {
        self.solve_warm(Some(warm))
    }

    /// [`Problem::solve_from`] with an optional seed basis.
    pub fn solve_warm(&self, warm: Option<&Basis>) -> Result<Solved, LpError> {
        self.validate()?;
        let std = Standard::build(self);
        let mut warm_spent = 0;
        if let Some(basis) = warm {
            match try_warm(&std, basis) {
                WarmOutcome::Accepted(solved) => return Ok(solved),
                WarmOutcome::Abandoned { pivots } => warm_spent = pivots,
                WarmOutcome::Error(e) => return Err(e),
            }
        }
        let mut solved = solve_cold_std(&std)?;
        solved.solution.iterations += warm_spent;
        if warm.is_some() {
            solved.start = StartKind::WarmFallback;
        }
        Ok(solved)
    }
}

/// Builder wrapper so `maximize` reads naturally at call sites.
#[derive(Debug, Clone)]
pub struct MaximizeProblem {
    inner: Problem,
}

impl MaximizeProblem {
    /// Add the constraint `coeffs·x  rel  rhs`.
    pub fn constrain(&mut self, coeffs: Vec<f64>, rel: Relation, rhs: f64) -> &mut Self {
        self.inner.constrain(coeffs, rel, rhs);
        self
    }

    /// Solve; the objective is reported in maximization sign.
    pub fn solve(&self) -> Result<Solution, LpError> {
        let mut sol = self.inner.solve()?;
        sol.objective = -sol.objective;
        sol.x.truncate(self.inner.num_vars());
        Ok(sol)
    }
}

/// The standardized problem: `minimize costs·z` s.t. `A z = b`, `z ≥ 0`,
/// with non-negative `b` and columns `[structural | slack/surplus | artificial]`.
///
/// Column numbering is a pure function of the row list: every inequality
/// row gets exactly one slack (+1) or surplus (−1) column, assigned in row
/// order starting at `n_struct`; artificials follow from `art_start`.
struct Standard {
    m: usize,
    n_struct: usize,
    n_total: usize,
    art_start: usize,
    /// Column-major `m × n_total`; column `j` occupies `[j*m, (j+1)*m)`.
    cols: Vec<f64>,
    b: Vec<f64>,
    /// Phase-2 costs, padded with zeros for slack/artificials.
    costs: Vec<f64>,
    /// Initial (all-identity) basis for the cold phase-1 start: the row's
    /// slack for `≤` rows, its artificial otherwise.
    start_basis: Vec<usize>,
}

impl Standard {
    fn build(p: &Problem) -> Standard {
        let m = p.rows.len();
        let n_struct = p.costs.len();

        let mut n_slack = 0;
        let mut n_art = 0;
        for (_, rel, rhs) in &p.rows {
            // After rhs normalization the effective relation may flip.
            match effective_relation(*rel, *rhs) {
                Relation::Le => n_slack += 1,
                Relation::Ge => {
                    n_slack += 1;
                    n_art += 1;
                }
                Relation::Eq => n_art += 1,
            }
        }
        let n_total = n_struct + n_slack + n_art;
        let art_start = n_struct + n_slack;
        let mut cols = vec![0.0; m * n_total];
        let mut b = vec![0.0; m];
        let mut start_basis = vec![usize::MAX; m];

        let mut slack_col = n_struct;
        let mut art_col = art_start;
        for (r, (coeffs, rel, rhs)) in p.rows.iter().enumerate() {
            let (sign, rel) = if *rhs < 0.0 {
                (-1.0, flip(*rel))
            } else {
                (1.0, *rel)
            };
            for (j, &c) in coeffs.iter().enumerate() {
                cols[j * m + r] = sign * c;
            }
            b[r] = sign * rhs;
            match rel {
                Relation::Le => {
                    cols[slack_col * m + r] = 1.0;
                    start_basis[r] = slack_col;
                    slack_col += 1;
                }
                Relation::Ge => {
                    cols[slack_col * m + r] = -1.0; // surplus
                    slack_col += 1;
                    cols[art_col * m + r] = 1.0;
                    start_basis[r] = art_col;
                    art_col += 1;
                }
                Relation::Eq => {
                    cols[art_col * m + r] = 1.0;
                    start_basis[r] = art_col;
                    art_col += 1;
                }
            }
        }

        let mut costs = vec![0.0; n_total];
        costs[..n_struct].copy_from_slice(&p.costs);

        Standard {
            m,
            n_struct,
            n_total,
            art_start,
            cols,
            b,
            costs,
            start_basis,
        }
    }

    #[inline]
    fn col(&self, j: usize) -> &[f64] {
        &self.cols[j * self.m..(j + 1) * self.m]
    }
}

/// Dense LU factorization with deterministic partial pivoting (largest
/// absolute value; first row on exact ties).
struct Lu {
    m: usize,
    /// Row-major `m × m`: unit-diagonal `L` strictly below, `U` on/above.
    lu: Vec<f64>,
    /// `perm[i]` = index (into the supplied rows) stored at position `i`.
    perm: Vec<usize>,
}

impl Lu {
    /// Factor the matrix whose `k`-th column is `cols[k]` of `std`.
    fn factor(std: &Standard, basis: &[usize]) -> Option<Lu> {
        let m = std.m;
        let mut a = vec![0.0; m * m];
        for (k, &j) in basis.iter().enumerate() {
            let col = std.col(j);
            for r in 0..m {
                a[r * m + k] = col[r];
            }
        }
        let mut perm: Vec<usize> = (0..m).collect();
        for k in 0..m {
            let mut best = k;
            let mut best_abs = a[perm[k] * m + k].abs();
            for (i, &p) in perm.iter().enumerate().skip(k + 1) {
                let v = a[p * m + k].abs();
                if v > best_abs {
                    best = i;
                    best_abs = v;
                }
            }
            if best_abs <= SING_EPS {
                return None;
            }
            perm.swap(k, best);
            let pk = perm[k];
            let diag = a[pk * m + k];
            for &pi in perm.iter().skip(k + 1) {
                let f = a[pi * m + k] / diag;
                if f != 0.0 {
                    a[pi * m + k] = f;
                    for j in (k + 1)..m {
                        a[pi * m + j] -= f * a[pk * m + j];
                    }
                } else {
                    a[pi * m + k] = 0.0;
                }
            }
        }
        // Pack rows in permuted order so solves are cache-friendly.
        let mut lu = vec![0.0; m * m];
        for (i, &p) in perm.iter().enumerate() {
            lu[i * m..(i + 1) * m].copy_from_slice(&a[p * m..(p + 1) * m]);
        }
        Some(Lu { m, lu, perm })
    }

    /// Solve `B x = rhs` (rhs indexed by original row); result aligned with
    /// the basis column order used at factor time.
    // The index loops are the triangular solves as written on paper.
    #[allow(clippy::needless_range_loop)]
    fn solve(&self, rhs: &[f64], out: &mut [f64]) {
        let m = self.m;
        for (i, &p) in self.perm.iter().enumerate() {
            out[i] = rhs[p];
        }
        // Forward: L y = P rhs (unit diagonal).
        for i in 1..m {
            let mut acc = out[i];
            for k in 0..i {
                acc -= self.lu[i * m + k] * out[k];
            }
            out[i] = acc;
        }
        // Back: U x = y.
        for i in (0..m).rev() {
            let mut acc = out[i];
            for k in (i + 1)..m {
                acc -= self.lu[i * m + k] * out[k];
            }
            out[i] = acc / self.lu[i * m + i];
        }
    }

    /// Solve `Bᵀ y = rhs` (rhs aligned with basis order); result indexed by
    /// original row, ready for dotting against standardized columns.
    #[allow(clippy::needless_range_loop)]
    fn solve_t(&self, rhs: &[f64], out: &mut [f64]) {
        let m = self.m;
        let mut w = rhs.to_vec();
        // Forward: Uᵀ z = rhs (Uᵀ is lower-triangular).
        for i in 0..m {
            let mut acc = w[i];
            for k in 0..i {
                acc -= self.lu[k * m + i] * w[k];
            }
            w[i] = acc / self.lu[i * m + i];
        }
        // Back: Lᵀ u = z (unit diagonal).
        for i in (0..m).rev() {
            let mut acc = w[i];
            for k in (i + 1)..m {
                acc -= self.lu[k * m + i] * w[k];
            }
            w[i] = acc;
        }
        // y = Pᵀ u.
        for (i, &p) in self.perm.iter().enumerate() {
            out[p] = w[i];
        }
    }
}

/// Revised-simplex engine state: a basis column list with its current
/// factorization and basic values. Refactorized after every pivot — the
/// problems here are tiny, and a fresh LU per pivot keeps the arithmetic
/// deterministic and drift-free without eta-file machinery.
struct Engine<'a> {
    std: &'a Standard,
    /// Basic column per basis slot (unordered; slot order is meaningless).
    basis: Vec<usize>,
    in_basis: Vec<bool>,
    lu: Option<Lu>,
    /// Basic values `B⁻¹ b`, aligned with `basis` slots.
    xb: Vec<f64>,
    iterations: usize,
}

impl<'a> Engine<'a> {
    fn new(std: &'a Standard, basis: Vec<usize>) -> Engine<'a> {
        let mut in_basis = vec![false; std.n_total];
        for &j in &basis {
            in_basis[j] = true;
        }
        Engine {
            std,
            basis,
            in_basis,
            lu: None,
            xb: vec![0.0; std.m],
            iterations: 0,
        }
    }

    /// (Re-)factorize the current basis and refresh `xb`.
    fn refactor(&mut self) -> bool {
        match Lu::factor(self.std, &self.basis) {
            Some(lu) => {
                lu.solve(&self.std.b, &mut self.xb);
                self.lu = Some(lu);
                true
            }
            None => false,
        }
    }

    /// Simplex multipliers `y` solving `Bᵀ y = c_B` for the given costs.
    fn multipliers(&self, costs: &[f64]) -> Vec<f64> {
        let cb: Vec<f64> = self.basis.iter().map(|&j| costs[j]).collect();
        let mut y = vec![0.0; self.std.m];
        self.lu.as_ref().expect("factorized").solve_t(&cb, &mut y);
        y
    }

    fn reduced_cost(&self, costs: &[f64], y: &[f64], j: usize) -> f64 {
        costs[j] - dot(y, self.std.col(j))
    }

    fn replace(&mut self, slot: usize, entering: usize) -> bool {
        self.in_basis[self.basis[slot]] = false;
        self.in_basis[entering] = true;
        self.basis[slot] = entering;
        self.refactor()
    }

    /// Primal simplex with Bland's rule for the given cost vector,
    /// considering only columns `< col_limit` as entering candidates.
    /// Assumes the current basis is primal feasible.
    fn primal(&mut self, costs: &[f64], col_limit: usize) -> Result<SolveStatus, LpError> {
        loop {
            self.iterations += 1;
            if self.iterations > MAX_ITERS {
                return Err(LpError::IterationLimit);
            }
            let y = self.multipliers(costs);
            // Bland's rule: smallest-index column with negative reduced cost.
            let entering = (0..col_limit)
                .find(|&j| !self.in_basis[j] && self.reduced_cost(costs, &y, j) < -EPS);
            let Some(entering) = entering else {
                return Ok(SolveStatus::Optimal);
            };
            let mut d = vec![0.0; self.std.m];
            self.lu
                .as_ref()
                .expect("factorized")
                .solve(self.std.col(entering), &mut d);
            // Ratio test; Bland tie-break on smallest basis variable index.
            let mut leave: Option<(usize, f64)> = None;
            for (k, &dk) in d.iter().enumerate() {
                if dk > EPS {
                    let ratio = self.xb[k] / dk;
                    match leave {
                        None => leave = Some((k, ratio)),
                        Some((lk, lratio)) => {
                            if ratio < lratio - EPS
                                || (ratio < lratio + EPS && self.basis[k] < self.basis[lk])
                            {
                                leave = Some((k, ratio));
                            }
                        }
                    }
                }
            }
            let Some((slot, _)) = leave else {
                return Ok(SolveStatus::Unbounded);
            };
            if !self.replace(slot, entering) {
                // A pivot on |d| > EPS cannot produce a singular basis
                // outside of catastrophic conditioning; bail via the cap.
                return Err(LpError::IterationLimit);
            }
        }
    }

    /// Objective of the current basic solution under `costs`.
    fn objective(&self, costs: &[f64]) -> f64 {
        self.basis
            .iter()
            .zip(&self.xb)
            .map(|(&j, &v)| costs[j] * v)
            .sum()
    }

    /// After phase 1, pivot any artificial variable still in the basis out
    /// (it must sit at value 0). If its row has no eligible non-artificial
    /// column the row is redundant and the artificial stays basic at zero;
    /// phase 2 never lets artificials re-enter, and in exact arithmetic a
    /// redundant row's artificial remains zero at every basic solution.
    fn evict_artificials(&mut self) -> Result<(), LpError> {
        for slot in 0..self.std.m {
            if self.basis[slot] < self.std.art_start {
                continue;
            }
            let mut e = vec![0.0; self.std.m];
            e[slot] = 1.0;
            let mut w = vec![0.0; self.std.m];
            self.lu.as_ref().expect("factorized").solve_t(&e, &mut w);
            let replacement = (0..self.std.art_start)
                .find(|&j| !self.in_basis[j] && dot(&w, self.std.col(j)).abs() > EPS);
            if let Some(j) = replacement {
                if !self.replace(slot, j) {
                    return Err(LpError::IterationLimit);
                }
            }
        }
        Ok(())
    }
}

#[inline]
fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Extract the solution canonically from a final basis: columns sorted
/// ascending, one deterministic LU solve over the original standardized
/// data. The result depends only on the basis *set*, never on the pivot
/// path — this is what makes warm and cold solves bit-identical.
fn extract(std: &Standard, basis: &[usize], iterations: usize) -> Result<Solved, LpError> {
    let mut sorted: Vec<usize> = basis.to_vec();
    sorted.sort_unstable();
    let lu = Lu::factor(std, &sorted).ok_or(LpError::IterationLimit)?;
    let mut xb = vec![0.0; std.m];
    lu.solve(&std.b, &mut xb);
    let mut x = vec![0.0; std.n_struct];
    for (k, &j) in sorted.iter().enumerate() {
        if j < std.n_struct {
            x[j] = xb[k];
        }
    }
    let objective = std.costs[..std.n_struct]
        .iter()
        .zip(&x)
        .map(|(c, v)| c * v)
        .sum();
    let basis = Basis::from_columns(
        std.m,
        std.n_struct,
        sorted.iter().map(|&j| j as u32).collect(),
    );
    Ok(Solved {
        solution: Solution {
            status: SolveStatus::Optimal,
            x,
            objective,
            iterations,
        },
        basis,
        start: StartKind::Cold,
    })
}

/// Cold two-phase solve over a standardized problem.
fn solve_cold_std(std: &Standard) -> Result<Solved, LpError> {
    let mut eng = Engine::new(std, std.start_basis.clone());
    if !eng.refactor() {
        return Err(LpError::IterationLimit);
    }

    // ---- Phase 1: minimize the sum of artificial variables. ----
    if std.art_start < std.n_total {
        let phase1: Vec<f64> = (0..std.n_total)
            .map(|j| if j >= std.art_start { 1.0 } else { 0.0 })
            .collect();
        let status = eng.primal(&phase1, std.n_total)?;
        debug_assert_ne!(status, SolveStatus::Unbounded, "phase 1 is bounded below by 0");
        if eng.objective(&phase1) > 1e-7 {
            return Ok(Solved {
                solution: Solution {
                    status: SolveStatus::Infeasible,
                    x: vec![0.0; std.n_struct],
                    objective: 0.0,
                    iterations: eng.iterations,
                },
                basis: None,
                start: StartKind::Cold,
            });
        }
        eng.evict_artificials()?;
    }

    // ---- Phase 2: minimize the true objective over non-artificials. ----
    let status = eng.primal(&std.costs, std.art_start)?;
    if status == SolveStatus::Unbounded {
        return Ok(Solved {
            solution: Solution {
                status,
                x: vec![0.0; std.n_struct],
                objective: f64::NEG_INFINITY,
                iterations: eng.iterations,
            },
            basis: None,
            start: StartKind::Cold,
        });
    }
    extract(std, &eng.basis, eng.iterations)
}

enum WarmOutcome {
    Accepted(Solved),
    Abandoned { pivots: usize },
    Error(LpError),
}

/// Attempt a warm-started solve. Any condition that could make the result
/// diverge from the cold path — shape mismatch, singular basis, failed
/// dual repair, degeneracy, or a non-unique optimum — abandons the warm
/// attempt so the caller falls back to the cold solve.
fn try_warm(std: &Standard, warm: &Basis) -> WarmOutcome {
    if warm.num_rows() != std.m
        || warm.num_structural() != std.n_struct
        || warm.cols.iter().any(|&c| (c as usize) >= std.art_start)
    {
        return WarmOutcome::Abandoned { pivots: 0 };
    }
    let basis: Vec<usize> = warm.cols.iter().map(|&c| c as usize).collect();
    let mut eng = Engine::new(std, basis);
    if !eng.refactor() {
        return WarmOutcome::Abandoned { pivots: 0 };
    }

    // Repair primal feasibility with bounded dual simplex steps. This is
    // only sound while the basis stays dual feasible; otherwise fall back.
    if eng.xb.iter().any(|&v| v < -EPS) {
        let dual_cap = 4 * std.m + 16;
        let mut dual_steps = 0;
        loop {
            let y = eng.multipliers(&std.costs);
            let dual_ok = (0..std.art_start).all(|j| {
                eng.in_basis[j] || eng.reduced_cost(&std.costs, &y, j) > -EPS
            });
            if !dual_ok {
                return WarmOutcome::Abandoned {
                    pivots: eng.iterations,
                };
            }
            // Leaving slot: most negative basic value; smallest basis
            // column on near-ties, for determinism.
            let mut slot: Option<(usize, f64)> = None;
            for (k, &v) in eng.xb.iter().enumerate() {
                if v < -EPS {
                    match slot {
                        None => slot = Some((k, v)),
                        Some((sk, sv)) => {
                            if v < sv - EPS || (v < sv + EPS && eng.basis[k] < eng.basis[sk]) {
                                slot = Some((k, v));
                            }
                        }
                    }
                }
            }
            let Some((slot, _)) = slot else {
                break; // primal feasible again
            };
            dual_steps += 1;
            if dual_steps > dual_cap {
                return WarmOutcome::Abandoned {
                    pivots: eng.iterations,
                };
            }
            let mut e = vec![0.0; std.m];
            e[slot] = 1.0;
            let mut w = vec![0.0; std.m];
            eng.lu.as_ref().expect("factorized").solve_t(&e, &mut w);
            // Dual ratio test over columns that can restore feasibility.
            let mut enter: Option<(usize, f64)> = None;
            for j in 0..std.art_start {
                if eng.in_basis[j] {
                    continue;
                }
                let a_kj = dot(&w, std.col(j));
                if a_kj < -EPS {
                    let ratio = eng.reduced_cost(&std.costs, &y, j) / -a_kj;
                    match enter {
                        None => enter = Some((j, ratio)),
                        Some((_, er)) => {
                            if ratio < er - EPS {
                                enter = Some((j, ratio));
                            }
                        }
                    }
                }
            }
            let Some((entering, _)) = enter else {
                // No restoring column: the perturbed problem is primal
                // infeasible along this row; let the cold path classify it.
                return WarmOutcome::Abandoned {
                    pivots: eng.iterations,
                };
            };
            eng.iterations += 1;
            if !eng.replace(slot, entering) {
                return WarmOutcome::Abandoned {
                    pivots: eng.iterations,
                };
            }
        }
    }

    // Finish with primal pivots from the repaired vertex.
    let status = match eng.primal(&std.costs, std.art_start) {
        Ok(s) => s,
        Err(LpError::IterationLimit) => {
            return WarmOutcome::Abandoned {
                pivots: eng.iterations,
            }
        }
        Err(e) => return WarmOutcome::Error(e),
    };
    if status != SolveStatus::Optimal {
        // Unbounded (or anything unexpected): defer to the cold path so
        // status reporting stays byte-for-byte identical.
        return WarmOutcome::Abandoned {
            pivots: eng.iterations,
        };
    }

    // Accept only a provably unique optimum: strict margins on every
    // nonbasic reduced cost and every basic value guarantee the cold
    // two-phase path terminates at this same basis set, and canonical
    // extraction then yields bit-identical output.
    let y = eng.multipliers(&std.costs);
    let unique = (0..std.art_start)
        .all(|j| eng.in_basis[j] || eng.reduced_cost(&std.costs, &y, j) > UNIQ_EPS)
        && eng.xb.iter().all(|&v| v > UNIQ_EPS);
    if !unique {
        return WarmOutcome::Abandoned {
            pivots: eng.iterations,
        };
    }
    match extract(std, &eng.basis, eng.iterations) {
        Ok(mut solved) => {
            solved.start = StartKind::Warm;
            WarmOutcome::Accepted(solved)
        }
        Err(_) => WarmOutcome::Abandoned {
            pivots: eng.iterations,
        },
    }
}

fn flip(rel: Relation) -> Relation {
    match rel {
        Relation::Le => Relation::Ge,
        Relation::Ge => Relation::Le,
        Relation::Eq => Relation::Eq,
    }
}

fn effective_relation(rel: Relation, rhs: f64) -> Relation {
    if rhs < 0.0 {
        flip(rel)
    } else {
        rel
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-7
    }

    #[test]
    fn textbook_maximization() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 -> (2, 6), 36.
        let mut p = Problem::maximize(vec![3.0, 5.0]);
        p.constrain(vec![1.0, 0.0], Relation::Le, 4.0);
        p.constrain(vec![0.0, 2.0], Relation::Le, 12.0);
        p.constrain(vec![3.0, 2.0], Relation::Le, 18.0);
        let s = p.solve().unwrap();
        assert_eq!(s.status, SolveStatus::Optimal);
        assert!(close(s.objective, 36.0));
        assert!(close(s.x[0], 2.0) && close(s.x[1], 6.0));
    }

    #[test]
    fn minimization_with_ge_constraints() {
        // min 2x + 3y s.t. x + y >= 10, x >= 2, y >= 3 -> x=7,y=3 obj 23.
        let mut p = Problem::minimize(vec![2.0, 3.0]);
        p.constrain(vec![1.0, 1.0], Relation::Ge, 10.0);
        p.constrain(vec![1.0, 0.0], Relation::Ge, 2.0);
        p.constrain(vec![0.0, 1.0], Relation::Ge, 3.0);
        let s = p.solve().unwrap();
        assert_eq!(s.status, SolveStatus::Optimal);
        assert!(close(s.objective, 23.0), "objective {}", s.objective);
        assert!(close(s.x[0], 7.0) && close(s.x[1], 3.0));
    }

    #[test]
    fn equality_constraint() {
        // min x + y s.t. x + 2y = 4 -> y=2, x=0, obj 2.
        let mut p = Problem::minimize(vec![1.0, 1.0]);
        p.constrain(vec![1.0, 2.0], Relation::Eq, 4.0);
        let s = p.solve().unwrap();
        assert_eq!(s.status, SolveStatus::Optimal);
        assert!(close(s.objective, 2.0));
        assert!(close(s.x[1], 2.0));
    }

    #[test]
    fn detects_infeasible() {
        let mut p = Problem::minimize(vec![1.0]);
        p.constrain(vec![1.0], Relation::Le, 1.0);
        p.constrain(vec![1.0], Relation::Ge, 2.0);
        let s = p.solve().unwrap();
        assert_eq!(s.status, SolveStatus::Infeasible);
    }

    #[test]
    fn detects_unbounded() {
        // min -x with only x >= 0 constraint-free in that direction.
        let mut p = Problem::minimize(vec![-1.0, 0.0]);
        p.constrain(vec![0.0, 1.0], Relation::Le, 5.0);
        let s = p.solve().unwrap();
        assert_eq!(s.status, SolveStatus::Unbounded);
    }

    #[test]
    fn negative_rhs_normalization() {
        // x - y <= -2 with min x + y  ->  y >= x + 2, best x=0,y=2.
        let mut p = Problem::minimize(vec![1.0, 1.0]);
        p.constrain(vec![1.0, -1.0], Relation::Le, -2.0);
        let s = p.solve().unwrap();
        assert_eq!(s.status, SolveStatus::Optimal);
        assert!(close(s.objective, 2.0));
        assert!(close(s.x[0], 0.0) && close(s.x[1], 2.0));
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Multiple constraints meeting at a degenerate vertex.
        let mut p = Problem::maximize(vec![1.0, 1.0]);
        p.constrain(vec![1.0, 0.0], Relation::Le, 1.0);
        p.constrain(vec![1.0, 0.0], Relation::Le, 1.0);
        p.constrain(vec![1.0, 1.0], Relation::Le, 2.0);
        p.constrain(vec![0.0, 1.0], Relation::Le, 1.0);
        let s = p.solve().unwrap();
        assert_eq!(s.status, SolveStatus::Optimal);
        assert!(close(s.objective, 2.0));
    }

    #[test]
    fn redundant_equality_rows() {
        // Duplicate equality rows exercise the redundant-row path in
        // evict_artificials.
        let mut p = Problem::minimize(vec![1.0, 2.0]);
        p.constrain(vec![1.0, 1.0], Relation::Eq, 3.0);
        p.constrain(vec![1.0, 1.0], Relation::Eq, 3.0);
        let s = p.solve().unwrap();
        assert_eq!(s.status, SolveStatus::Optimal);
        assert!(close(s.objective, 3.0));
        assert!(close(s.x[0], 3.0));
    }

    #[test]
    fn partitioning_shaped_lp() {
        // The paper's LP with alpha=1 (pure makespan): 3 nodes with rates
        // implied by slopes m = [1, 2, 4] (time per element), c = 0,
        // N = 700. Optimal: x proportional to 1/m: x = [400, 200, 100],
        // v = 400.
        let n_nodes = 3;
        let m = [1.0, 2.0, 4.0];
        let total = 700.0;
        // Variables: [x0, x1, x2, v].
        let mut costs = vec![0.0; n_nodes + 1];
        costs[n_nodes] = 1.0; // minimize v
        let mut p = Problem::minimize(costs);
        for i in 0..n_nodes {
            // m_i x_i - v <= 0
            let mut row = vec![0.0; n_nodes + 1];
            row[i] = m[i];
            row[n_nodes] = -1.0;
            p.constrain(row, Relation::Le, 0.0);
        }
        let mut sum_row = vec![1.0; n_nodes + 1];
        sum_row[n_nodes] = 0.0;
        p.constrain(sum_row, Relation::Eq, total);
        let s = p.solve().unwrap();
        assert_eq!(s.status, SolveStatus::Optimal);
        assert!(close(s.objective, 400.0), "v = {}", s.objective);
        assert!(close(s.x[0], 400.0) && close(s.x[1], 200.0) && close(s.x[2], 100.0));
    }

    #[test]
    fn rejects_non_finite() {
        let mut p = Problem::minimize(vec![f64::NAN]);
        p.constrain(vec![1.0], Relation::Le, 1.0);
        assert_eq!(p.solve(), Err(LpError::NonFinite));
    }

    #[test]
    fn bad_arity_returns_typed_error_instead_of_panicking() {
        let mut p = Problem::minimize(vec![1.0, 2.0]);
        p.constrain(vec![1.0], Relation::Le, 1.0);
        assert_eq!(
            p.solve(),
            Err(LpError::DimensionMismatch {
                expected: 2,
                got: 1
            })
        );
        // Same through the maximize wrapper.
        let mut q = Problem::maximize(vec![1.0, 2.0]);
        q.constrain(vec![1.0, 2.0, 3.0], Relation::Ge, 1.0);
        assert_eq!(
            q.solve(),
            Err(LpError::DimensionMismatch {
                expected: 2,
                got: 3
            })
        );
    }

    #[test]
    fn zero_variable_problem() {
        let p = Problem::minimize(vec![]);
        let s = p.solve().unwrap();
        assert_eq!(s.status, SolveStatus::Optimal);
        assert_eq!(s.objective, 0.0);
    }

    // ---- Bland's-rule cycling regressions ----

    #[test]
    fn beale_cycling_example_terminates() {
        // Beale (1955): cycles forever under largest-coefficient pivoting;
        // Bland's rule must terminate at objective -0.05.
        let mut p = Problem::minimize(vec![-0.75, 150.0, -0.02, 6.0]);
        p.constrain(vec![0.25, -60.0, -0.04, 9.0], Relation::Le, 0.0);
        p.constrain(vec![0.5, -90.0, -0.02, 3.0], Relation::Le, 0.0);
        p.constrain(vec![0.0, 0.0, 1.0, 0.0], Relation::Le, 1.0);
        let s = p.solve().unwrap();
        assert_eq!(s.status, SolveStatus::Optimal);
        assert!(close(s.objective, -0.05), "objective {}", s.objective);
        assert!(s.iterations < 100, "iterations {}", s.iterations);
    }

    #[test]
    fn kuhn_degenerate_lp_terminates() {
        // A fully degenerate origin vertex (all rhs 0 except the box row):
        // every pivot has ratio 0 until the box constraint binds.
        let mut p = Problem::minimize(vec![-2.0, -3.0, 1.0, 12.0]);
        p.constrain(vec![-2.0, -9.0, 1.0, 9.0], Relation::Le, 0.0);
        p.constrain(vec![1.0 / 3.0, 1.0, -1.0 / 3.0, -2.0], Relation::Le, 0.0);
        p.constrain(vec![1.0, 1.0, 1.0, 1.0], Relation::Le, 10.0);
        let s = p.solve().unwrap();
        assert_eq!(s.status, SolveStatus::Optimal);
        assert!(s.iterations < 100, "iterations {}", s.iterations);
    }

    // ---- Basis / warm-start unit coverage ----

    fn sweep_problem(alpha: f64) -> Problem {
        // A partition-shaped LP whose objective is rescalarized by alpha,
        // mirroring ParetoModeler::solve.
        let slopes = [1.0e-3, 2.5e-3, 4.0e-3];
        let intercepts = [0.5, 0.1, 0.9];
        let greens = [2.0, 5.0, 1.0];
        let total = 5000.0;
        let p_nodes = slopes.len();
        let mut costs = vec![0.0; p_nodes + 1];
        for i in 0..p_nodes {
            costs[i] = (1.0 - alpha) * greens[i] * slopes[i];
        }
        costs[p_nodes] = alpha;
        let mut p = Problem::minimize(costs);
        for i in 0..p_nodes {
            let mut row = vec![0.0; p_nodes + 1];
            row[i] = slopes[i];
            row[p_nodes] = -1.0;
            p.constrain(row, Relation::Le, -intercepts[i]);
        }
        let mut sum_row = vec![1.0; p_nodes + 1];
        sum_row[p_nodes] = 0.0;
        p.constrain(sum_row, Relation::Eq, total);
        p
    }

    #[test]
    fn basis_roundtrips_through_bytes() {
        let solved = sweep_problem(0.7).solve_cold().unwrap();
        let basis = solved.basis.expect("optimal basis");
        let bytes = basis.encode();
        assert_eq!(Basis::decode(&bytes), Some(basis.clone()));
        // Corrupt each region and expect rejection.
        assert_eq!(Basis::decode(&bytes[1..]), None);
        let mut short = bytes.clone();
        short.pop();
        assert_eq!(Basis::decode(&short), None);
        let mut dup = bytes.clone();
        let off = 12;
        let first: [u8; 4] = dup[off..off + 4].try_into().unwrap();
        dup[off + 4..off + 8].copy_from_slice(&first); // duplicate column
        assert_eq!(Basis::decode(&dup), None);
    }

    #[test]
    fn warm_start_is_bit_identical_across_alpha_sweep() {
        let alphas = [0.999, 0.99, 0.9, 0.7, 0.5, 0.2, 0.0];
        let mut basis: Option<Basis> = None;
        let mut warm_hits = 0;
        for &alpha in &alphas {
            let p = sweep_problem(alpha);
            let cold = p.solve_cold().unwrap();
            let warm = p.solve_warm(basis.as_ref()).unwrap();
            assert_eq!(warm.solution.status, cold.solution.status);
            assert_eq!(warm.solution.x, cold.solution.x, "alpha {alpha}");
            assert_eq!(
                warm.solution.objective.to_bits(),
                cold.solution.objective.to_bits(),
                "alpha {alpha}"
            );
            assert_eq!(warm.basis, cold.basis);
            if warm.start == StartKind::Warm {
                warm_hits += 1;
                assert!(
                    warm.solution.iterations <= cold.solution.iterations,
                    "warm should not pivot more than cold at alpha {alpha}"
                );
            }
            basis = warm.basis;
        }
        assert!(warm_hits >= 3, "sweep should accept warm starts, got {warm_hits}");
    }

    #[test]
    fn warm_start_repairs_rhs_perturbation() {
        // Same structure, perturbed rhs (append-shaped change): the warm
        // basis is re-factorized and repaired, and must match cold bits.
        let base = sweep_problem(0.8);
        let basis = base.solve_cold().unwrap().basis.unwrap();
        let mut shifted = sweep_problem(0.8);
        // Rebuild with a larger total (equality rhs changes).
        shifted.rows.last_mut().unwrap().2 = 9000.0;
        let cold = shifted.solve_cold().unwrap();
        let warm = shifted.solve_from(&basis).unwrap();
        assert_eq!(warm.solution.x, cold.solution.x);
        assert_eq!(
            warm.solution.objective.to_bits(),
            cold.solution.objective.to_bits()
        );
        assert_eq!(warm.basis, cold.basis);
        assert_ne!(warm.start, StartKind::Cold);
    }

    #[test]
    fn incompatible_warm_basis_falls_back_to_cold() {
        let other = {
            let mut p = Problem::minimize(vec![1.0, 1.0]);
            p.constrain(vec![1.0, 2.0], Relation::Eq, 4.0);
            p.solve_cold().unwrap().basis.unwrap()
        };
        let p = sweep_problem(0.5);
        let cold = p.solve_cold().unwrap();
        let warm = p.solve_from(&other).unwrap();
        assert_eq!(warm.start, StartKind::WarmFallback);
        assert_eq!(warm.solution.x, cold.solution.x);
        assert_eq!(warm.basis, cold.basis);
    }

    #[test]
    fn infeasible_problem_with_warm_basis_reports_infeasible() {
        let donor = {
            let mut p = Problem::minimize(vec![1.0]);
            p.constrain(vec![1.0], Relation::Le, 1.0);
            p.solve_cold().unwrap().basis.unwrap()
        };
        let mut p = Problem::minimize(vec![1.0]);
        p.constrain(vec![1.0], Relation::Le, 1.0);
        p.constrain(vec![1.0], Relation::Ge, 2.0);
        let warm = p.solve_warm(Some(&donor)).unwrap();
        assert_eq!(warm.solution.status, SolveStatus::Infeasible);
        assert_eq!(warm.basis, None);
    }
}
