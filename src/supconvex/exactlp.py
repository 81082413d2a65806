"""Exact revised simplex over the integers, and the package's one
exact elimination routine.

Solves max c.x subject to A x = b, x >= 0 where every entry of A, b
and c is an int; x and the optimal value are exact rationals.  The
systems in this package are tiny (at most about nine rows) but are
solved many times, so the solver keeps an explicit basis inverse, in
integers, and supports warm starts:

- a caller-supplied basis that is primal feasible for the new right
  hand side starts the primal simplex (zero pivots when it is already
  optimal);
- any other caller-supplied basis starts the dual simplex, which first
  checks dual feasibility on the reduced costs of every column; a
  previously optimal basis that went primal infeasible after a right
  hand side change passes, and is repaired in a few pivots (the dual
  simplex keeps every reduced cost <= 0, so its result is optimal);
- a basis that fails that check, or no basis, falls back to a
  two-phase solve with artificials, run on a second solver over the
  columns plus the artificials.

Bland's smallest-index rule is used for both entering and leaving
choices (and its dual analogue), so every loop terminates despite the
heavy degeneracy typical of these geometric LPs.

Columns, objective and right hand side must be ints; any other entry
(a Fraction, a float or a bool) raises TypeError naming it, since the
exact divisions below would floor a rational.  A caller with rational
data scales each row of [A | b] by a positive integer, which leaves x
unchanged, and the objective by one, which scales the value.  A basis
B is kept as det = |det B|, adj = det B^-1 and xb = adj b.  Column j
is priced as

    R_j = C_j det - (c_B adj) . A_j = r_j det,

so only signs of R_j are read, except in the ratio tests, which
cross-multiply: W_j = adj[row] . A_j is w_j times det, and xb and
d = adj A_enter are det times x_B and B^-1 A_enter.  The primal
simplex prices columns in index order and stops at the first one that
may enter.  The dual simplex forms the leaving row W = adj[row] . A
for every column at once, as a sum of the rows of A weighted by
adj[row], and prices only the columns its ratio test reads, those with
W_j < 0, from y = c_B adj formed once per pivot.  Its dual-feasibility
check is the one pass over every R_j, made before the first pivot (a
dual pivot keeps every R_j <= 0) and skipped for the basis the solver
last proved optimal (see below).  A pivot on d at p = d[row] is
Edmonds' update: every row r other than row becomes
(p adj[r] - d[r] adj[row]) // det, xb[r] likewise, and |p| is the new
det (adj and xb change sign when p < 0, as in every dual pivot).  The
division is exact because p times the new inverse is the new basis's
adjugate up to sign, an integer matrix.  A basis is first inverted
fraction-free too, by ``eliminate``.  A Solution holds its optimum in
integers, det and the pairs (B_r, xb[r]) with their costs, so the
value's numerator sum_r C_j xb[r], j = B_r, is one integer dot product;
x_j = xb[r] / det (a zero x_j is the shared ZERO) and the value are
made as rationals only when read.

Reduced costs do not depend on the right hand side, so a basis once
proved optimal stays dual feasible, and it is optimal again for every
right hand side on which it is primal feasible.  The solver therefore
keeps the last basis a warm solve proved optimal, in its order, with
its adj and det.  Handed that basis again, it reuses them instead of
eliminating, and returns at once when the new basic solution is
nonnegative: the primal simplex would find no entering column there.
Where it is not, the dual simplex starts on new outer lists (see
_pivot), without its dual-feasibility check, since the basis passed it
when it was proved optimal.  The very tuple the solve returned (Solution.basis), which is
the one kept, is known by identity and skips the checks of its column
indices too; any other basis is checked first and then compared by
value, as (2, 1.0) == (2, 1) and (True, 1) == (1, 1).

The dual simplex keeps what its steps decide.  A dual pivot's leaving
row is read off the right hand side, but given that row, the entering
column (Bland's ratio rule over W_j < 0) and the direction
d = adj A_enter depend only on the ordered basis, never on the right
hand side.  So every step is kept on the solver under (ordered basis,
leaving row), as (entering, d), or as "no column may enter", and a
step taken again is replayed: the same pivot is made through
``_pivot``, with nothing priced and no W formed.  A kept step also proves its basis dual
feasible, as only such bases are pivoted from.

``sweep`` runs the warm solves of a sequence of right hand sides in
one call, as the envelope does per lattice point.  The first point goes
through ``solve``; each later one starts from the basis the one before
proved optimal, and is returned at once where that basis is primal
feasible again.  With ``near``, where it is not, the sweep first tests
the bases proved at the listed earlier points, each distinct one once,
row by row: by the argument above, any that is primal feasible is
optimal, and is returned with no pricing.  Only then does the dual
simplex run, on new outer lists, so that no proved adj is changed (a
pivot replaces rows and never edits one).  Per point the sweep returns
the proved (basis, adj, det) and xb = adj b, in integers; no Solution
is made past the first point.

``eliminate``, the package's one elimination routine, works on
integers only and returns det A and det A times A^-1 b.  Besides the
basis inverse it serves the geometry (volumes, point-in-simplex
weights) and the averageable map matrices, on integer coordinates over
a common denominator.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import chain, islice
from operator import add, mul

from ._rational import ZERO, Rat


class Solution(namedtuple("Solution", "status basis det support")):
    """A solve's result in integers: support holds (j, X_j, c_j) per
    basic column j of the problem, in basis order, with x_j = X_j / det
    and c_j its cost, so the optimal value is num / det.  Every field but
    status is None unless status is "optimal".  value and x, the
    rational views, are made when read."""

    __slots__ = ()

    @property
    def num(self):
        return None if self.support is None else sum(v * c for _, v, c in self.support)

    @property
    def value(self):
        return None if self.support is None else Rat(self.num, self.det)

    @property
    def x(self):
        if self.support is None:
            return None
        det = self.det
        return {j: Rat(v, det) if v else ZERO for j, v, _ in self.support}


def _require_ints(name, values):
    """values, when every entry is an int (// floors a rational); else
    TypeError naming the first entry that is not."""
    if not set(map(type, values)) <= {int}:
        i, v = next((i, v) for i, v in enumerate(values) if type(v) is not int)
        raise TypeError(f"the simplex takes ints; {name} entry {i} is {v!r}")
    return values


def eliminate(rows, rhs=()):
    """Fraction-free Gauss-Jordan elimination of the square integer
    matrix A = rows.

    rhs holds zero or more integer right-hand-side columns b_j.  Returns
    (det(A), X) with X[j] = det(A) A^-1 b_j, an integer vector, or
    (0, None) when A is singular.  Each step pivots on p, the first
    nonzero entry of its column (exact arithmetic needs no magnitude
    pivoting), and replaces every other row r by
    (p row_r - row_r[col] row_pivot) // q, q the previous pivot; the
    division is exact, every entry being a minor of the augmented matrix
    (Bareiss 1968, Edmonds 1967), and the last pivot is +-det(A).  With
    no rhs only the rows below each pivot are reduced, as det needs.
    """
    n = len(rows)
    aug = [list(row) + [b[i] for b in rhs] for i, row in enumerate(rows)]
    if not set(map(type, chain.from_iterable(aug))) <= {int}:  # // floors a rational
        r, c, v = next((r, c, v) for r, row in enumerate(aug) for c, v in enumerate(row) if type(v) is not int)
        raise TypeError(f"eliminate takes ints; entry ({r}, {c}) of [A | b] is {v!r}")
    sign = prev = 1
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot_row is None:
            return 0, None
        if pivot_row != col:
            aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
            sign = -sign
        tail = aug[col][col + 1:]
        p = aug[col][col]
        for r in range(0 if rhs else col + 1, n):
            row_r = aug[r]
            f = row_r[col]
            if r != col and (f or p != prev):
                row_r[col + 1:] = [(p * a - f * b) // prev for a, b in zip(row_r[col + 1:], tail)]
        prev = p
    return sign * prev, [[sign * row[n + j] for row in aug] for j in range(len(rhs))]


class ExactSimplexSolver:
    """Reusable solver for a fixed column set and objective."""

    def __init__(self, columns, objective):
        if not columns:
            raise ValueError("need at least one column")
        self.m = len(columns[0])
        self._ints = tuple(_require_ints(f"column {j}", tuple(col)) for j, col in enumerate(columns))
        for col in self._ints:
            if len(col) != self.m:
                raise ValueError("ragged column lengths")
        if len(objective) != len(columns):
            raise ValueError("objective length mismatch")
        self._rows = tuple(zip(*self._ints))  # the columns, transposed
        self._costs = _require_ints("objective", list(objective))
        self._identity = [[int(c == r) for c in range(self.m)] for r in range(self.m)]
        # (basis, adj, det) of the basis the last warm solve or sweep
        # proved optimal, and the dual steps taken: (ordered basis,
        # leaving row) -> (entering, d), entering None where none may.
        self.proved = None
        self._steps = {}

    # -- basis linear algebra -------------------------------------------

    @staticmethod
    def _mat_vec(rows, vec):
        return [sum(map(mul, row, vec)) for row in rows]

    @staticmethod
    def _feasible(adj, b):
        """adj b, row by row, or None at the first negative entry."""
        xb = []
        for row in adj:
            v = sum(map(mul, row, b))
            if v < 0:
                return None
            xb.append(v)
        return xb

    @staticmethod
    def _pivot(adj, det, xb, basis, row, direction, entering):
        """Edmonds' update of (adj, xb) in place; returns the new det.

        Each row of adj that changes is replaced by a new list, never
        edited, so pivoting on a new outer list leaves the old inverse
        intact."""
        p = direction[row]
        div = det if p > 0 else -det  # a negative divisor keeps det > 0
        base, x_row = adj[row], xb[row]
        for r, f in enumerate(direction):
            if r != row:
                adj[r] = [(p * a - f * b) // div for a, b in zip(adj[r], base)]
                xb[r] = (p * xb[r] - f * x_row) // div
            elif p < 0:
                adj[r] = [-a for a in base]
                xb[r] = -x_row
        basis[row] = entering
        return abs(p)

    # -- simplex phases --------------------------------------------------

    @staticmethod
    def _prices(adj, basis, costs):
        """y = c_B adj, the simplex multipliers times det."""
        cb = [costs[j] for j in basis]
        return [sum(map(mul, cb, col)) for col in zip(*adj)]

    def _reduced_costs(self, adj, det, basis, costs, allowed):
        """R_j for the columns j < allowed, lazily and in index order.

        R_j is the reduced cost r_j times det, so it is 0 on every basic
        column.
        """
        y = self._prices(adj, basis, costs)
        return (
            cj * det - sum(map(mul, y, a))
            for cj, a in zip(islice(costs, allowed), self._ints)
        )

    def _primal(self, adj, det, xb, basis, costs, allowed):
        """Returns (status, det)."""
        while True:
            reduced = self._reduced_costs(adj, det, basis, costs, allowed)
            entering = next((j for j, rj in enumerate(reduced) if rj > 0), None)
            if entering is None:
                return "optimal", det
            d = self._mat_vec(adj, self._ints[entering])
            row = None
            for r in range(self.m):
                # xb[r] / d[r] below xb[row] / d[row], or tied at a
                # smaller basis index.
                if d[r] > 0 and (
                    row is None
                    or (xb[r] * d[row], basis[r]) < (xb[row] * d[r], basis[row])
                ):
                    row = r
            if row is None:
                return "unbounded", det
            det = self._pivot(adj, det, xb, basis, row, d, entering)

    def _dual(self, adj, det, xb, basis, check):
        """Returns (status, det); status None when not dual feasible.

        With check false the caller vouches that the basis is dual
        feasible, and no column is priced in full.  A step kept from an
        earlier run is replayed without pricing, and vouches too.
        """
        costs, ints, steps = self._costs, self._ints, self._steps
        while True:
            row = None
            for r in range(self.m):
                if xb[r] < 0 and (row is None or basis[r] < basis[row]):
                    row = r
            if row is None:
                return "optimal", det
            key = (tuple(basis), row)
            step = steps.get(key)
            if step is None:
                if check:
                    # Only the handed-in basis can fail: every dual pivot
                    # keeps all reduced costs <= 0.
                    if any(rj > 0 for rj in self._reduced_costs(adj, det, basis, costs, len(ints))):
                        return None, det
                # W = adj[row] . A over all columns, as a sum of the rows
                # of A; W_j >= 0 on every basic column.
                w = None
                for a, line in zip(adj[row], self._rows):
                    if a:
                        term = [a * v for v in line]
                        w = term if w is None else list(map(add, w, term))
                y = self._prices(adj, basis, costs)
                # Entering: the smallest j minimising r_j / w_j over
                # w_j < 0, which for W_j, W_b < 0 is below r_b / w_b
                # exactly when R_j W_b < R_b W_j.  Only these columns are
                # priced.
                entering = None
                for j, wj in enumerate(w):
                    if wj < 0:
                        rj = costs[j] * det - sum(map(mul, y, ints[j]))
                        if entering is None or rj * wb < rb * wj:
                            entering, rb, wb = j, rj, wj
                d = None if entering is None else self._mat_vec(adj, ints[entering])
                step = steps[key] = (entering, d)
            check = False
            entering, d = step
            if entering is None:
                return "infeasible", det
            det = self._pivot(adj, det, xb, basis, row, d, entering)

    # -- public entry points ----------------------------------------------

    def solve(self, rhs, basis=None) -> Solution:
        if len(rhs) != self.m:
            raise ValueError("rhs length mismatch")
        b = _require_ints("rhs", rhs)
        if basis is None:
            return self._two_phase(b)
        kept = self.proved
        hit = kept is not None and basis is kept[0]  # checked when it was proved
        if not hit:
            basis = list(basis)
            if len(basis) != self.m:
                raise ValueError("basis length mismatch")
            n_cols = len(self._ints)
            for j in basis:
                # Negative indices would wrap to the last columns.
                if type(j) is not int or not 0 <= j < n_cols:
                    raise ValueError(f"basis index {j!r} is not a column index in range({n_cols})")
            hit = kept is not None and kept[0] == tuple(basis)
        if hit:
            adj, det = kept[1], kept[2]
            xb = self._mat_vec(adj, b)
            if all(v >= 0 for v in xb):
                return self._solution("optimal", xb, det, kept[0])
            # Pivot on new outer lists, so that the kept inverse survives.
            adj, basis = list(adj), list(basis)
            status, det = self._dual(adj, det, xb, basis, False)
        else:
            # The transposed basis (its columns as rows) eliminated
            # against the identity yields the rows of the inverse.
            det, adj = eliminate([self._ints[j] for j in basis], self._identity)
            if adj is None:
                raise ValueError("starting basis is singular")
            if det < 0:
                det, adj = -det, [[-v for v in row] for row in adj]
            xb = self._mat_vec(adj, b)
            if any(v < 0 for v in xb):
                status, det = self._dual(adj, det, xb, basis, True)
            else:
                status, det = self._primal(adj, det, xb, basis, self._costs, len(self._ints))
        if status is None:
            return self._two_phase(b)
        sol = self._solution(status, xb, det, tuple(basis))
        if status == "optimal":
            # adj belongs to this call, and nothing changes it after the
            # return; a later hit pivots on a copy.
            self.proved = (sol.basis, adj, det)
        return sol

    def sweep(self, points, basis, near=None):
        """Per right hand side of points, in order, the proved optimal
        (basis, adj, det) and xb = adj b, warm started from basis.

        The first point is solved by solve.  Each later one first tries
        the basis proved at the point before it; then, with near, the
        bases proved at the earlier points near[i] (indices below i), in
        order, each distinct triple once, found by identity (hashing one
        would walk its whole inverse); then the dual simplex.  Every
        point is checked as solve checks its right hand side, before the
        first solve.  Raises ArithmeticError at a point with no optimum.
        """
        if any(len(b) != self.m for b in points):
            raise ValueError("rhs length mismatch")
        if not set(map(type, chain.from_iterable(points))) <= {int}:
            i = next(i for i, b in enumerate(points) if not set(map(type, b)) <= {int})
            _require_ints(f"point {i}", points[i])
        first = self.solve(points[0], basis)
        if first.status != "optimal":
            raise ArithmeticError(f"sweep LP status {first.status} at point 0")
        if self.proved is None or self.proved[0] is not first.basis:
            self.solve(points[0], first.basis)  # a two-phase solve keeps no basis
        kept = self.proved
        mat_vec, feasible = self._mat_vec, self._feasible
        results = [(kept, mat_vec(kept[1], points[0]))]
        for i in range(1, len(points)):
            b = points[i]
            xb = mat_vec(kept[1], b)
            if min(xb) < 0:
                tried = {id(kept)}
                for j in () if near is None else near[i]:
                    other = results[j][0]
                    if id(other) not in tried:
                        tried.add(id(other))
                        xo = feasible(other[1], b)
                        if xo is not None:  # dual feasible since proved, so optimal
                            kept, xb = other, xo
                            break
                else:
                    basis, adj, det = list(kept[0]), list(kept[1]), kept[2]
                    status, det = self._dual(adj, det, xb, basis, False)
                    if status != "optimal":
                        raise ArithmeticError(f"sweep LP status {status} at point {i}")
                    kept = (tuple(basis), adj, det)
            results.append((kept, xb))
        self.proved = kept
        return results

    def _two_phase(self, b) -> Solution:
        m = self.m
        n_real = len(self._ints)
        art_cols = tuple(
            tuple((1 if b[i] >= 0 else -1) if r == i else 0 for r in range(m))
            for i in range(m)
        )
        # Integer columns plus artificials need no conversion: skip __init__.
        phase1 = ExactSimplexSolver.__new__(ExactSimplexSolver)
        phase1.m, phase1._ints = m, self._ints + art_cols
        basis = list(range(n_real, n_real + m))
        adj = [list(col) for col in art_cols]  # diag(signs) is its own inverse
        xb = [abs(v) for v in b]
        status, det = phase1._primal(adj, 1, xb, basis, [0] * n_real + [-1] * m, n_real + m)
        if status != "optimal":  # pragma: no cover - phase 1 is bounded
            return Solution(status, None, None, None)
        if any(xb[r] != 0 for r in range(m) if basis[r] >= n_real):
            return Solution("infeasible", None, None, None)
        # Pivot zero-level artificials out where a real column allows it
        # (w_j is 0 on the real columns already basic).
        for r in range(m):
            if basis[r] >= n_real:
                for j, a in enumerate(self._ints):
                    if sum(map(mul, adj[r], a)) != 0:
                        d = self._mat_vec(adj, a)
                        det = self._pivot(adj, det, xb, basis, r, d, j)
                        break
        # Phase 2 prices the real columns only; basic artificials cost 0.
        status, det = phase1._primal(adj, det, xb, basis, self._costs + [0] * m, n_real)
        return self._solution(status, xb, det, tuple(basis))

    def _solution(self, status, xb, det, basis) -> Solution:
        if status != "optimal":
            return Solution(status, None, None, None)
        n_real, costs = len(self._ints), self._costs
        return Solution("optimal", basis, det, tuple((j, v, costs[j]) for j, v in zip(basis, xb) if j < n_real))


def solve_lp(columns, objective, rhs):
    """One-shot two-phase solve; returns (status, value, x-dict)."""
    sol = ExactSimplexSolver(columns, objective).solve(rhs)
    return sol.status, sol.value, sol.x
