"""Exact revised simplex over the rationals, and the package's one
exact elimination routine.

Solves max c.x subject to A x = b, x >= 0 where every entry is an exact
rational.  The systems in this package are tiny (at most about nine
rows) but are solved many times, so the solver keeps an explicit basis
inverse and supports warm starts:

- a caller-supplied basis that is primal feasible for the new right
  hand side starts the primal simplex (zero pivots when it is already
  optimal);
- any other caller-supplied basis starts the dual simplex, which checks
  dual feasibility on the reduced costs of its first pricing pass; a
  previously optimal basis that went primal infeasible after a right
  hand side change passes, and is repaired in a few pivots (the dual
  simplex keeps every reduced cost <= 0, so its result is optimal);
- a basis that fails that check, or no basis, falls back to a
  two-phase solve with artificials, run on a second solver over the
  columns plus the artificials.

Bland's smallest-index rule is used for both entering and leaving
choices (and its dual analogue), so every loop terminates despite the
heavy degeneracy typical of these geometric LPs.

Pricing runs on plain integers.  The constructor writes each column as
an integer vector A_j over a positive integer e_j, and an objective as
integer numerators C_j over one denominator D.  A pricing pass forms
the dual vector y = c_B B^-1 in rationals (one entry per row), scales
it to integers Y / D_y, and prices column j as

    R_j = C_j D_y e_j - D (Y . A_j) = r_j D D_y e_j,

the reduced cost r_j = c_j - y . col_j times a positive integer.  Only
signs of R_j are read, except in the dual ratio test, which scales the
leaving row of B^-1 to integers as well: W_j = w_j D_b e_j, so R_j / W_j
is r_j / w_j times one positive factor common to all j, and ratios are
compared by cross-multiplication.  The primal simplex prices columns in
index order and stops at the first one that may enter.

Reduced costs do not depend on the right hand side, so a basis once
proved optimal stays dual feasible, and it is optimal again for every
right hand side on which it is primal feasible.  The solver therefore
keeps the last basis a warm solve proved optimal, in its order, with
its inverse.  Handed that basis again, it copies the inverse instead of
eliminating, and returns at once when the new basic solution is
nonnegative: the primal simplex would find no entering column there.

``eliminate`` computes the basis inverse, and also serves the geometry
(volumes, point-in-simplex weights) and the averageable map matrices.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import islice
from operator import mul

from ._rational import ONE, ZERO, Rat, scaled

Solution = namedtuple("Solution", "status value x basis")


def eliminate(rows, rhs=()):
    """Exact Gauss-Jordan elimination of the square matrix A = rows.

    rhs holds zero or more right-hand-side columns b_j.  Returns
    (det(A), X) where X[j] solves A x = b_j; X is None exactly when A
    is singular.  The pivot is the first nonzero entry of its column
    (exact arithmetic needs no magnitude pivoting), and rows with a zero
    there are skipped, which pays off on the sparse simplex bases.  With
    no rhs only the rows below each pivot are reduced, as det needs.
    """
    n = len(rows)
    width = n + len(rhs)
    aug = [list(row) + [b[i] for b in rhs] for i, row in enumerate(rows)]
    det = ONE
    for col in range(n):
        pivot_row = None
        for r in range(col, n):
            if aug[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            return ZERO, None
        if pivot_row != col:
            aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
            det = -det
        row_c = aug[col]
        pivot = row_c[col]
        det *= pivot
        inv = ONE / pivot
        for c in range(col, width):
            row_c[c] *= inv
        for r in range(0 if rhs else col + 1, n):
            row_r = aug[r]
            f = row_r[col]
            if r != col and f != 0:
                for c in range(col, width):
                    row_r[c] -= f * row_c[c]
    return det, [[row[n + j] for row in aug] for j in range(len(rhs))]


class ExactSimplexSolver:
    """Reusable solver for a fixed column set and objective."""

    def __init__(self, columns, objective):
        if not columns:
            raise ValueError("need at least one column")
        self.m = len(columns[0])
        self.cols = [tuple(Rat(v) for v in col) for col in columns]
        for col in self.cols:
            if len(col) != self.m:
                raise ValueError("ragged column lengths")
        if len(objective) != len(self.cols):
            raise ValueError("objective length mismatch")
        self.obj = [Rat(v) for v in objective]
        self._ints, dens = zip(*map(scaled, self.cols))
        nums, den = scaled(self.obj)
        # (c, C_j e_j, D) with c = C / D: what a pricing pass needs.
        self._pricing = (self.obj, [c * e for c, e in zip(nums, dens)], den)
        self._identity = [
            [ONE if c == r else ZERO for c in range(self.m)] for r in range(self.m)
        ]
        self._proved = None  # (basis, inverse) of the last warm solve proved optimal

    # -- basis linear algebra -------------------------------------------

    @staticmethod
    def _mat_vec(rows, vec):
        return [sum((r[i] * vec[i] for i in range(len(vec))), ZERO) for r in rows]

    @staticmethod
    def _pivot(binv, xb, basis, row, direction, entering):
        piv = direction[row]
        inv = ONE / piv
        binv[row] = [v * inv for v in binv[row]]
        xb[row] *= inv
        for r in range(len(binv)):
            if r != row and direction[r] != 0:
                f = direction[r]
                base = binv[row]
                target = binv[r]
                for c in range(len(base)):
                    target[c] -= f * base[c]
                xb[r] -= f * xb[row]
        basis[row] = entering

    # -- simplex phases --------------------------------------------------

    def _reduced_costs(self, binv, basis, pricing, allowed):
        """R_j for the columns j < allowed, lazily and in index order.

        R_j is the reduced cost r_j times the positive integer D D_y e_j,
        so it is 0 on every basic column.
        """
        obj, ce, den = pricing
        y = [
            sum((obj[j] * row[i] for j, row in zip(basis, binv)), ZERO)
            for i in range(self.m)
        ]
        ys, dy = scaled(y)
        return (
            cj * dy - den * sum(map(mul, ys, a))
            for cj, a in zip(islice(ce, allowed), self._ints)
        )

    def _primal(self, binv, xb, basis, pricing, allowed):
        while True:
            reduced = self._reduced_costs(binv, basis, pricing, allowed)
            entering = next((j for j, rj in enumerate(reduced) if rj > 0), None)
            if entering is None:
                return "optimal"
            d = self._mat_vec(binv, self.cols[entering])
            row = None
            best = None
            for r in range(self.m):
                if d[r] > 0:
                    ratio = xb[r] / d[r]
                    if best is None or ratio < best or (
                        ratio == best and basis[r] < basis[row]
                    ):
                        best = ratio
                        row = r
            if row is None:
                return "unbounded"
            self._pivot(binv, xb, basis, row, d, entering)

    def _dual(self, binv, xb, basis):
        while True:
            row = None
            for r in range(self.m):
                if xb[r] < 0 and (row is None or basis[r] < basis[row]):
                    row = r
            if row is None:
                return "optimal"
            reduced = list(self._reduced_costs(binv, basis, self._pricing, len(self.cols)))
            if any(rj > 0 for rj in reduced):
                return None  # not dual feasible (only possible before a pivot)
            # Entering: the smallest j minimising r_j / w_j over w_j < 0.
            # W_j = w_j D_b e_j, so for W_j, W_b < 0 that ratio is below
            # r_b / w_b exactly when R_j W_b < R_b W_j.  W_j >= 0 on
            # every basic column.
            brow, _ = scaled(binv[row])
            entering = None
            for j, (rj, a) in enumerate(zip(reduced, self._ints)):
                wj = sum(map(mul, brow, a))
                if wj < 0 and (entering is None or rj * wb < rb * wj):
                    entering, rb, wb = j, rj, wj
            if entering is None:
                return "infeasible"
            d = self._mat_vec(binv, self.cols[entering])
            self._pivot(binv, xb, basis, row, d, entering)

    # -- public entry points ----------------------------------------------

    def solve(self, rhs, basis=None) -> Solution:
        rhs = [Rat(v) for v in rhs]
        if len(rhs) != self.m:
            raise ValueError("rhs length mismatch")
        if basis is not None:
            basis = list(basis)
            proved = self._proved is not None and self._proved[0] == tuple(basis)
            if proved:
                binv = [row[:] for row in self._proved[1]]
            else:
                # The transposed basis (its columns as rows) eliminated
                # against the identity yields the rows of the inverse.
                _, binv = eliminate([self.cols[j] for j in basis], self._identity)
                if binv is None:
                    raise ValueError("starting basis is singular")
            xb = self._mat_vec(binv, rhs)
            if any(v < 0 for v in xb):
                status = self._dual(binv, xb, basis)
            elif proved:
                status = "optimal"
            else:
                status = self._primal(binv, xb, basis, self._pricing, len(self.cols))
            if status == "optimal":
                # binv belongs to this call, and nothing changes it after
                # the return; a later hit works on a copy.
                self._proved = (tuple(basis), binv)
            if status is not None:
                return self._solution(status, xb, basis)
        return self._two_phase(rhs)

    def _two_phase(self, rhs) -> Solution:
        m = self.m
        n_real = len(self.cols)
        signs = [ONE if v >= 0 else -ONE for v in rhs]
        art_cols = [
            tuple(signs[i] if r == i else ZERO for r in range(m)) for i in range(m)
        ]
        phase1 = ExactSimplexSolver(self.cols + art_cols, [ZERO] * n_real + [-ONE] * m)
        basis = list(range(n_real, n_real + m))
        binv = [list(col) for col in art_cols]  # diag(signs) is its own inverse
        xb = [abs(v) for v in rhs]
        status = phase1._primal(binv, xb, basis, phase1._pricing, n_real + m)
        if status != "optimal":  # pragma: no cover - phase 1 is bounded
            return Solution(status, None, None, None)
        if any(xb[r] != 0 for r in range(m) if basis[r] >= n_real):
            return Solution("infeasible", None, None, None)
        # Pivot zero-level artificials out where a real column allows it
        # (w_j is 0 on the real columns already basic).
        for r in range(m):
            if basis[r] >= n_real:
                brow, _ = scaled(binv[r])
                for j, a in enumerate(self._ints):
                    if sum(map(mul, brow, a)) != 0:
                        d = self._mat_vec(binv, self.cols[j])
                        self._pivot(binv, xb, basis, r, d, j)
                        break
        # Phase 2 prices the real columns only; basic artificials cost 0.
        obj, ce, den = self._pricing
        status = phase1._primal(binv, xb, basis, (obj + [ZERO] * m, ce, den), n_real)
        return self._solution(status, xb, basis)

    def _solution(self, status, xb, basis) -> Solution:
        if status != "optimal":
            return Solution(status, None, None, None)
        x = {}
        value = ZERO
        for r, j in enumerate(basis):
            if j < len(self.cols):
                x[j] = xb[r]
                value += self.obj[j] * xb[r]
        return Solution("optimal", value, x, tuple(basis))


def solve_lp(columns, objective, rhs):
    """One-shot two-phase solve; returns (status, value, x-dict)."""
    sol = ExactSimplexSolver(columns, objective).solve(rhs)
    return sol.status, sol.value, sol.x
