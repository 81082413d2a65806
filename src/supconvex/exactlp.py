"""Exact revised simplex over the rationals, and the package's one
exact elimination routine.

Solves max c.x subject to A x = b, x >= 0 where every entry is an exact
rational.  The systems in this package are tiny (at most about nine
rows) but are solved many times, so the solver keeps an explicit basis
inverse and supports warm starts:

- a caller-supplied basis that is primal feasible for the new right
  hand side starts the primal simplex (zero pivots when it is already
  optimal);
- a previously optimal basis that went primal infeasible after a right
  hand side change is repaired by the dual simplex;
- anything else falls back to a two-phase solve with artificials.

Bland's smallest-index rule is used for both entering and leaving
choices (and its dual analogue), so every loop terminates despite the
heavy degeneracy typical of these geometric LPs.

``eliminate`` computes the basis inverse, and also serves the geometry
(volumes, point-in-simplex weights) and the averageable map matrices.
"""

from __future__ import annotations

from collections import namedtuple

from ._rational import ONE, ZERO, Rat

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
        self._identity = [
            [ONE if c == r else ZERO for c in range(self.m)] for r in range(self.m)
        ]

    # -- basis linear algebra -------------------------------------------

    @staticmethod
    def _mat_vec(rows, vec):
        return [sum((r[i] * vec[i] for i in range(len(vec))), ZERO) for r in rows]

    def _column_through(self, binv, j):
        col = self.cols[j]
        return [sum((binv[r][i] * col[i] for i in range(self.m)), ZERO) for r in range(self.m)]

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

    def _reduced_costs(self, binv, basis, obj, allowed):
        cb = [obj[j] for j in basis]
        y = [
            sum((cb[r] * binv[r][i] for r in range(self.m)), ZERO)
            for i in range(self.m)
        ]
        in_basis = set(basis)
        out = {}
        for j in range(allowed):
            if j in in_basis:
                continue
            col = self.cols[j]
            rj = obj[j] - sum((y[i] * col[i] for i in range(self.m)), ZERO)
            out[j] = rj
        return out

    def _primal(self, binv, xb, basis, obj, allowed):
        while True:
            reduced = self._reduced_costs(binv, basis, obj, allowed)
            entering = None
            for j in sorted(reduced):
                if reduced[j] > 0:
                    entering = j
                    break
            if entering is None:
                return "optimal"
            d = self._column_through(binv, entering)
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

    def _dual(self, binv, xb, basis, obj, allowed):
        while True:
            row = None
            for r in range(self.m):
                if xb[r] < 0 and (row is None or basis[r] < basis[row]):
                    row = r
            if row is None:
                return "optimal"
            reduced = self._reduced_costs(binv, basis, obj, allowed)
            entering = None
            best = None
            for j in sorted(reduced):
                wj = sum(
                    (binv[row][i] * self.cols[j][i] for i in range(self.m)), ZERO
                )
                if wj < 0:
                    ratio = reduced[j] / wj
                    if best is None or ratio < best:
                        best = ratio
                        entering = j
            if entering is None:
                return "infeasible"
            d = self._column_through(binv, entering)
            self._pivot(binv, xb, basis, row, d, entering)

    # -- public entry points ----------------------------------------------

    def solve(self, rhs, basis=None) -> Solution:
        rhs = [Rat(v) for v in rhs]
        if len(rhs) != self.m:
            raise ValueError("rhs length mismatch")
        if basis is not None:
            basis = list(basis)
            # The transposed basis (its columns as rows) eliminated
            # against the identity yields the rows of the inverse.
            _, binv = eliminate([self.cols[j] for j in basis], self._identity)
            if binv is None:
                raise ValueError("starting basis is singular")
            xb = self._mat_vec(binv, rhs)
            if all(v >= 0 for v in xb):
                status = self._primal(binv, xb, basis, self.obj, len(self.cols))
                return self._solution(status, xb, basis)
            reduced = self._reduced_costs(binv, basis, self.obj, len(self.cols))
            if all(v <= 0 for v in reduced.values()):
                status = self._dual(binv, xb, basis, self.obj, len(self.cols))
                if status == "optimal":
                    status = self._primal(binv, xb, basis, self.obj, len(self.cols))
                return self._solution(status, xb, basis)
            # Neither primal nor dual feasible: fall through to two-phase.
        return self._two_phase(rhs)

    def _two_phase(self, rhs) -> Solution:
        m = self.m
        n_real = len(self.cols)
        saved_cols, saved_obj = self.cols, self.obj
        art_cols = []
        for i in range(m):
            col = [ZERO] * m
            col[i] = ONE if rhs[i] >= 0 else -ONE
            art_cols.append(tuple(col))
        self.cols = saved_cols + art_cols
        phase1_obj = [ZERO] * n_real + [-ONE] * m
        basis = list(range(n_real, n_real + m))
        binv = [
            [(ONE if rhs[r] >= 0 else -ONE) if c == r else ZERO for c in range(m)]
            for r in range(m)
        ]
        xb = [abs(v) for v in rhs]
        status = self._primal(binv, xb, basis, phase1_obj, n_real + m)
        if status != "optimal":  # pragma: no cover - phase 1 is bounded
            self.cols, self.obj = saved_cols, saved_obj
            return Solution(status, None, None, None)
        if any(xb[r] != 0 for r in range(m) if basis[r] >= n_real):
            self.cols, self.obj = saved_cols, saved_obj
            return Solution("infeasible", None, None, None)
        # Pivot zero-level artificials out where a real column allows it.
        for r in range(m):
            if basis[r] >= n_real:
                for j in range(n_real):
                    if j in basis:
                        continue
                    wj = sum(
                        (binv[r][i] * self.cols[j][i] for i in range(m)), ZERO
                    )
                    if wj != 0:
                        d = self._column_through(binv, j)
                        self._pivot(binv, xb, basis, r, d, j)
                        break
        phase2_obj = saved_obj + [ZERO] * m
        status = self._primal(binv, xb, basis, phase2_obj, n_real)
        self.cols, self.obj = saved_cols, saved_obj
        if status != "optimal":
            return Solution(status, None, None, None)
        return self._solution("optimal", xb, basis, n_real=n_real)

    def _solution(self, status, xb, basis, n_real=None) -> Solution:
        if status != "optimal":
            return Solution(status, None, None, None)
        limit = len(self.cols) if n_real is None else n_real
        x = {}
        value = ZERO
        for r, j in enumerate(basis):
            if j < limit:
                x[j] = xb[r]
                value += self.obj[j] * xb[r]
        return Solution("optimal", value, x, tuple(basis))


def solve_lp(columns, objective, rhs):
    """One-shot two-phase solve; returns (status, value, x-dict)."""
    sol = ExactSimplexSolver(columns, objective).solve(rhs)
    return sol.status, sol.value, sol.x
