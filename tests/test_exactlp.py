import re
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from oracles import _invert, dual_simplex_bland, lp_bruteforce

from supconvex import SplitMix64, exactlp
from supconvex.exactlp import ExactSimplexSolver, eliminate, solve_lp


def test_known_optimum():
    # max 3x + 2y  s.t.  x + y = 4, x - y = 2  ->  x = 3, y = 1
    columns = [[1, 1], [1, -1]]
    status, value, x = solve_lp(columns, [3, 2], [4, 2])
    assert status == "optimal"
    assert value == 11
    assert x == {0: Fraction(3), 1: Fraction(1)}


def test_nonnegativity_binds():
    # max x + y  s.t.  x + 2y = 2  over x, y >= 0  ->  x = 2, y = 0
    columns = [[1], [2]]
    status, value, x = solve_lp(columns, [1, 1], [2])
    assert status == "optimal"
    assert value == 2
    assert x == {0: Fraction(2)}


def test_infeasible():
    # x + y = -1 has no nonnegative solution
    columns = [[1], [1]]
    status, value, x = solve_lp(columns, [1, 1], [-1])
    assert status == "infeasible"
    assert value is None and x is None


def test_unbounded():
    # max 2x - y  s.t.  x - y = 0: x = y = t grows the objective forever
    columns = [[1], [-1]]
    status, value, x = solve_lp(columns, [2, -1], [0])
    assert status == "unbounded"


def test_degenerate_terminates():
    # Zero rhs makes every vertex maximally degenerate; Bland's rule
    # must still terminate with a definite status.
    columns = [[1, 0], [0, 1], [1, 1], [1, -1]]
    status, _value, _x = solve_lp(columns, [1, 1, 1, 1], [0, 0])
    assert status in ("optimal", "unbounded")


def test_warm_start_matches_cold():
    columns = [[1, 0], [0, 1], [1, 1], [2, 1]]
    objective = [1, 2, 4, 5]
    solver = ExactSimplexSolver(columns, objective)
    cold = solver.solve([3, 2])
    assert cold.status == "optimal"
    # Re-solve a nearby rhs starting from the previous optimal basis.
    warm = solver.solve([3, 3], basis=cold.basis)
    fresh = ExactSimplexSolver(columns, objective).solve([3, 3])
    assert warm.status == fresh.status == "optimal"
    assert warm.value == fresh.value


def test_exact_rationals_no_drift():
    # x / 3 + 2y / 3 = 1, its row times 3: answers must be exact, not
    # floating approximations.
    columns = [[1], [2]]
    status, value, x = solve_lp(columns, [1, 1], [3])
    assert status == "optimal"
    assert value == 3
    assert x == {0: Fraction(3)}
    # 3x + 6y = 1: a value and a weight of 1/3.
    status, value, x = solve_lp([[3], [6]], [1, 1], [1])
    assert (status, value, x) == ("optimal", Fraction(1, 3), {0: Fraction(1, 3)})
    assert type(value) is Fraction and type(x[0]) is Fraction


def test_input_validation():
    with pytest.raises(ValueError):
        ExactSimplexSolver([], [])
    with pytest.raises(ValueError):
        ExactSimplexSolver([[1], [1, 2]], [1, 1])
    with pytest.raises(ValueError):
        ExactSimplexSolver([[1]], [1, 2])
    solver = ExactSimplexSolver([[1]], [1])
    with pytest.raises(ValueError):
        solver.solve([1, 2])
    solver = ExactSimplexSolver([[1, 0], [0, 1], [1, 1]], [1, 1, 3])
    for basis in ((2,), (0, 1, 2)):
        with pytest.raises(ValueError, match="basis length mismatch"):
            solver.solve([1, 1], basis)
    for basis in ((-1, 1), (0, 3), (0, 1.0), (True, 1)):
        with pytest.raises(ValueError, match="not a column index in range\\(3\\)"):
            solver.solve([1, 2], basis)


def test_validation_after_a_proved_basis(monkeypatch):
    # No basis skips the index checks, not even one equal to the basis
    # the solver proved: (2, 1.0) == (2, 1) and (True, 1) == (1, 1), yet
    # neither is a basis.
    solver = ExactSimplexSolver([[1, 0], [0, 1], [1, 1]], [1, 1, 3])
    proved = solver.solve([1, 2], (2, 1))
    assert proved.status == "optimal" and proved.basis == (2, 1)
    for basis in ((2, 1.0), (2.0, True), (True, 1)):
        with pytest.raises(ValueError, match="not a column index in range\\(3\\)"):
            solver.solve([1, 2], basis)
    inverted = []
    monkeypatch.setattr(exactlp, "eliminate", lambda *a: inverted.append(a) or eliminate(*a))
    for basis in (proved.basis, list(proved.basis), tuple(list(proved.basis))):
        inverted.clear()
        assert solver.solve([1, 2], basis) == proved and len(inverted) == 1  # inverted again


# -- eliminate ---------------------------------------------------------------


def _perm_sign(perm):
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def _det_by_permutations(a):
    """Leibniz expansion: sum over permutations, no elimination."""
    n = len(a)
    total = Fraction(0)
    for perm in permutations(range(n)):
        term = Fraction(_perm_sign(perm))
        for i in range(n):
            term *= a[i][perm[i]]
        total += term
    return total


def _random_matrix(rng, n):
    """Small sparse integer matrix; about every fourth one is made
    singular by overwriting a row with a multiple of the next row."""
    a = [
        [
            0 if rng.next_below(3) == 0
            else (int(rng.next_below(9)) - 4) * (1 + rng.next_below(3))
            for _ in range(n)
        ]
        for _ in range(n)
    ]
    if n >= 2 and rng.next_below(4) == 0:
        i = rng.next_below(n)
        c = int(rng.next_below(5)) - 2
        a[i] = [c * x for x in a[(i + 1) % n]]
    return a


def test_eliminate_matches_oracle_inverse_and_leibniz_determinant():
    rng = SplitMix64(2024)
    singular = 0
    for trial in range(240):
        n = 1 + trial % 4
        a = _random_matrix(rng, n)
        identity = [[int(i == j) for j in range(n)] for i in range(n)]
        det, cols = eliminate(a, identity)
        inv = _invert([[Fraction(v) for v in row] for row in a])
        assert det == _det_by_permutations(a)
        if inv is None:
            singular += 1
            assert det == 0 and cols is None
            assert eliminate(a) == (0, None)
            continue
        # cols[j] is det times column j of the inverse, in integers.
        assert all(type(v) is int for col in cols for v in col)
        assert [[Fraction(v, det) for v in col] for col in cols] == [
            [inv[i][j] for i in range(n)] for j in range(n)
        ]
        assert eliminate(a) == (det, [])
        b = [[(int(rng.next_below(7)) - 3) * (1 + rng.next_below(4)) for _ in range(n)] for _ in range(2)]
        _, xs = eliminate(a, b)
        for x, rhs in zip(xs, b):
            assert [sum(a[i][c] * x[c] for c in range(n)) for i in range(n)] == [det * v for v in rhs]
    assert 40 <= singular <= 160, singular  # both branches well covered


def test_eliminate_determinant_sign_under_row_swaps():
    a = [
        [0, 2, 1],
        [3, 0, -1],
        [1, 2, 0],
    ]
    base = _det_by_permutations(a)
    assert base != 0
    for perm in permutations(range(3)):
        rows = [a[p] for p in perm]
        det, _ = eliminate(rows)
        assert det == _perm_sign(perm) * base
        assert eliminate(rows, [[1, 0, 0]])[0] == det  # the Gauss-Jordan path too
    for perm in permutations(range(4)):
        rows = [[int(perm[i] == j) for j in range(4)] for i in range(4)]
        assert eliminate(rows)[0] == _perm_sign(perm)


def test_eliminate_refuses_non_integers():
    # Exact // on a Fraction floors it: this call once returned (-1, [[0, -1]]).
    with pytest.raises(TypeError, match=r"entry \(0, 0\) of \[A \| b\] is Fraction\(1, 2\)"):
        eliminate([[Fraction(1, 2), 1], [1, Fraction(1, 3)]], [[1, 0]])
    with pytest.raises(TypeError, match=r"entry \(1, 2\) of \[A \| b\] is 0.5"):
        eliminate([[1, 0], [0, 1]], [[1, 0.5]])
    with pytest.raises(TypeError, match=r"entry \(0, 1\)"):
        eliminate([[1, True], [0, 1]])
    assert eliminate([]) == (1, [])


def test_simplex_refuses_non_integers():
    # // on a Fraction floors it: the solver takes ints, and a caller
    # scales rational rows and objectives to ints first.
    columns, objective, rhs = [[1, 0], [0, 1], [1, 1]], [1, 1, 3], [1, 2]
    for bad in (Fraction(1, 2), Fraction(2), 0.5, 1.0, True):
        named = re.escape(repr(bad))
        cols = [[1, 0], [0, bad], [1, 1]]
        for call in (lambda: ExactSimplexSolver(cols, objective), lambda: solve_lp(cols, objective, rhs)):
            with pytest.raises(TypeError, match=rf"the simplex takes ints; column 1 entry 1 is {named}$"):
                call()
        obj = [1, 1, bad]
        for call in (lambda: ExactSimplexSolver(columns, obj), lambda: solve_lp(columns, obj, rhs)):
            with pytest.raises(TypeError, match=rf"the simplex takes ints; objective entry 2 is {named}$"):
                call()
        solver = ExactSimplexSolver(columns, objective)
        kept = solver.solve(rhs, (2, 1)).basis  # proved optimal and kept
        for call in (
            lambda: solve_lp(columns, objective, [bad, 2]),
            lambda: solver.solve([bad, 2]),
            lambda: solver.solve([bad, 2], (0, 1)),
            lambda: solver.solve([bad, 2], kept),
        ):
            with pytest.raises(TypeError, match=rf"the simplex takes ints; rhs entry 0 is {named}$"):
                call()


def test_singular_starting_basis_is_rejected():
    columns = [[1, 0], [0, 1], [2, 0]]
    solver = ExactSimplexSolver(columns, [1, 1, 1])
    with pytest.raises(ValueError, match="starting basis is singular"):
        solver.solve([1, 1], basis=(0, 2))


# -- warm-start dispatch -----------------------------------------------------


def _record_paths(solver, monkeypatch):
    """Names of the simplex routines that solver.solve calls, in order."""
    taken = []
    for name in ("_primal", "_dual", "_two_phase"):
        method = getattr(solver, name)

        def spy(*args, _method=method, _name=name):
            taken.append(_name)
            return _method(*args)

        monkeypatch.setattr(solver, name, spy)
    return taken


def _assert_matches_cold(columns, objective, rhs, warm):
    cold = ExactSimplexSolver(columns, objective).solve(rhs)
    assert (warm.status, warm.value, warm.x) == (cold.status, cold.value, cold.x)


def test_dual_feasible_warm_basis_takes_the_dual_simplex(monkeypatch):
    # The k = 1, N = 2 envelope LP of f = (0, 1, 0): the optimal basis
    # (1, 2) at z = (1, 1) goes primal infeasible at z = (0, 2) but its
    # reduced costs stay <= 0.
    columns = [[0, 2], [1, 1], [2, 0]]
    objective = [0, 1, 0]
    solver = ExactSimplexSolver(columns, objective)
    taken = _record_paths(solver, monkeypatch)
    warm = solver.solve([0, 2], basis=(1, 2))
    assert taken == ["_dual"]
    assert warm.status == "optimal" and warm.value == 0
    assert warm.basis == (1, 0)
    _assert_matches_cold(columns, objective, [0, 2], warm)


def test_basis_neither_primal_nor_dual_feasible_falls_back_to_two_phase(monkeypatch):
    # Basis (2, 1) gives x_2 = -1 and column 0 a positive reduced cost,
    # so the dual simplex never runs.  Run from it anyway, it would end
    # at a primal feasible basis of value 0, below the optimum 1.
    columns = [[1, 0], [0, 1], [-1, 1], [1, 1]]
    objective = [0, 0, 1, 0]
    solver = ExactSimplexSolver(columns, objective)
    taken = _record_paths(solver, monkeypatch)
    warm = solver.solve([1, 1], basis=(2, 1))
    assert taken == ["_two_phase"]
    assert warm.status == "optimal" and warm.value == 1
    _assert_matches_cold(columns, objective, [1, 1], warm)


def test_dual_simplex_reports_infeasible(monkeypatch):
    # x_0 + x_2 = -1 has no nonnegative solution; the identity basis is
    # dual feasible (zero objective), so the dual simplex proves it.
    columns = [[1, 0], [0, 1], [1, 1]]
    objective = [0, 0, 0]
    solver = ExactSimplexSolver(columns, objective)
    taken = _record_paths(solver, monkeypatch)
    warm = solver.solve([-1, 2], basis=(0, 1))
    assert taken == ["_dual"]
    assert warm == ("infeasible", None, None, None)
    _assert_matches_cold(columns, objective, [-1, 2], warm)


# -- integer basis and pricing -----------------------------------------------


def _rational(rng):
    return Fraction(int(rng.next_below(9)) - 4, 1 + rng.next_below(6))


def _rational_lp(rng, m, n):
    """Random LP over denominators up to 6, which _int_lp scales to ints.
    Row 0 has positive entries and a positive right-hand side, so x is
    bounded."""
    columns = [
        [Fraction(1 + rng.next_below(5), 1 + rng.next_below(6))]
        + [_rational(rng) for _ in range(m - 1)]
        for _ in range(n)
    ]
    objective = [_rational(rng) for _ in range(n)]
    return columns, objective


def _rational_rhs(rng, m):
    return [Fraction(1 + rng.next_below(4), 1 + rng.next_below(3))] + [
        _rational(rng) for _ in range(m - 1)
    ]


# Every denominator of a _rational_lp or a _rational_rhs divides 60.  The
# solver takes row i of [A | b] times 60 (i + 1), which leaves x as it
# is, and the objective times OBJ_SCALE, which scales the value by it;
# the Fraction oracles read the rational data.
OBJ_SCALE = 60


def _times(values, scales):
    """The ints v * s, for rationals v whose products with s are integers."""
    out = [Fraction(v) * s for v, s in zip(values, scales)]
    assert all(v.denominator == 1 for v in out)
    return [v.numerator for v in out]


def _int_rows(vector):
    """A column or right hand side, entry i times 60 (i + 1)."""
    return _times(vector, [60 * (i + 1) for i in range(len(vector))])


def _int_lp(columns, objective):
    """(columns, objective) of a rational LP, scaled to ints."""
    return list(map(_int_rows, columns)), _times(objective, [OBJ_SCALE] * len(objective))


def test_rational_columns_match_the_vertex_oracle():
    rng = SplitMix64(31)
    statuses = set()
    for trial in range(120):
        m = 1 + trial % 3
        columns, objective = _rational_lp(rng, m, m + 2 + trial % 3)
        rhs = _rational_rhs(rng, m)
        best = lp_bruteforce(columns, objective, rhs)
        expected = ("infeasible", None) if best is None else ("optimal", best * OBJ_SCALE)
        ints, b = _int_lp(columns, objective), _int_rows(rhs)
        assert solve_lp(*ints, b)[:2] == expected
        statuses.add(expected[0])
        solver = ExactSimplexSolver(*ints)
        for basis in combinations(range(len(columns)), m):
            try:
                sol = solver.solve(b, basis)
            except ValueError:
                continue  # singular starting basis
            assert (sol.status, sol.value) == expected
    assert statuses == {"optimal", "infeasible"}


def _sign(v):
    return (v > 0) - (v < 0)


def _fraction_reduced_costs(columns, objective, basis, binv):
    m = len(basis)
    y = [sum(Fraction(objective[j]) * binv[r][i] for r, j in enumerate(basis)) for i in range(m)]
    return [
        Fraction(c) - sum(y[i] * Fraction(col[i]) for i in range(m))
        for c, col in zip(objective, columns)
    ]


def _integer_basis(columns, basis):
    """(adj, det) = (det B^-1, |det B|) for the basis B of integer
    columns, from the oracle inverse and the Leibniz determinant; None
    when B is singular."""
    matrix = [[Fraction(columns[j][i]) for j in basis] for i in range(len(columns[0]))]
    inverse = _invert(matrix)
    if inverse is None:
        return None
    det = abs(_det_by_permutations(matrix))
    return [[int(det * v) for v in row] for row in inverse], int(det)


def test_integer_reduced_costs_have_the_signs_of_the_fraction_ones():
    rng = SplitMix64(5)
    for trial in range(60):
        m = 1 + trial % 3
        columns, objective = _rational_lp(rng, m, m + 3)
        solver = ExactSimplexSolver(*_int_lp(columns, objective))
        for basis in combinations(range(len(columns)), m):
            binv = _invert([[Fraction(columns[j][i]) for j in basis] for i in range(m)])
            if binv is None:
                continue
            expected = _fraction_reduced_costs(columns, objective, basis, binv)
            adj, det = _integer_basis(solver._ints, basis)
            got = solver._reduced_costs(adj, det, list(basis), solver._costs, len(columns))
            assert list(map(_sign, got)) == list(map(_sign, expected))


def test_dual_ratio_tie_goes_to_the_smallest_index(monkeypatch):
    # From basis (0, 1) at rhs (-1, 1) row 0 leaves.  Columns 2 and 3,
    # over denominators 2 and 3, tie at r_j / w_j = 2; column 4's ratio
    # is 3.  The solver takes row 0 times 6, row 1 times 5 and the
    # objective times 2, where the tie is between different integer
    # R_j (-60, -80) and W_j (-15, -20).
    columns = [
        [1, 0], [0, 1], [Fraction(-1, 2), 0], [Fraction(-2, 3), 0], [-1, Fraction(1, 5)]
    ]
    objective = [1, 0, Fraction(-3, 2), -2, -4]
    basis, rhs = (0, 1), [-1, 1]
    int_columns = [[6, 0], [0, 5], [-3, 0], [-4, 0], [-6, 1]]
    int_objective, int_rhs = [2, 0, -3, -4, -8], [-6, 5]
    assert int_columns == [[6 * a, 5 * b] for a, b in columns]
    assert int_objective == [2 * c for c in objective] and int_rhs == [6 * rhs[0], 5 * rhs[1]]
    # The ratios recomputed in Fraction arithmetic.
    cols = [[Fraction(v) for v in col] for col in columns]
    binv = _invert([[cols[j][i] for j in basis] for i in range(2)])
    reduced = _fraction_reduced_costs(columns, objective, basis, binv)
    ratios = {}
    for j, col in enumerate(cols):
        w = sum(binv[0][i] * col[i] for i in range(2))
        if w < 0:
            ratios[j] = reduced[j] / w
    ties = [j for j, v in ratios.items() if v == min(ratios.values())]
    assert ties == [2, 3] and cols[2][0].denominator != cols[3][0].denominator

    solver = ExactSimplexSolver(int_columns, int_objective)
    adj, det = _integer_basis(solver._ints, basis)
    priced = list(solver._reduced_costs(adj, det, list(basis), solver._costs, len(columns)))
    assert list(map(_sign, priced)) == list(map(_sign, reduced))
    assert priced[2:4] == [-60, -80] and [adj[0][0] * col[0] for col in int_columns[2:4]] == [-15, -20]
    taken = _record_paths(solver, monkeypatch)
    entered = []
    pivot = solver._pivot
    monkeypatch.setattr(
        solver, "_pivot", lambda *a: entered.append(a[-1]) or pivot(*a)
    )
    sol = solver.solve(int_rhs, basis)
    assert taken == ["_dual"] and entered == [min(ties)]
    assert sol.basis == (2, 1) and sol.x == {2: 2, 1: 1} and sol.value == -3 * 2
    _assert_matches_cold(int_columns, int_objective, int_rhs, sol)


def test_every_pivot_keeps_the_integer_adjugate_and_determinant(monkeypatch):
    # After each pivot, det = |det B| and adj = det B^-1 over the integer
    # columns the solver pivots on (the artificials of a two-phase solve
    # are sign(b_i) e_i), and xb = adj b.
    pivot = ExactSimplexSolver._pivot
    kinds = Counter()
    lp = {}

    def checked_pivot(adj, det, xb, basis, row, direction, entering):
        caller = sys._getframe(1).f_code.co_name
        new_det = pivot(adj, det, xb, basis, row, direction, entering)
        kinds["drive-out" if caller == "_two_phase" else caller] += 1
        kinds["negative p"] += direction[row] < 0
        assert all(type(v) is int for v in [new_det, *xb, *(a for r in adj for a in r)])
        assert (adj, new_det) == _integer_basis(lp["columns"], basis)
        assert xb == [sum(map(lambda a, v: a * v, r, lp["b"])) for r in adj]
        return new_det

    monkeypatch.setattr(ExactSimplexSolver, "_pivot", staticmethod(checked_pivot))
    rng = SplitMix64(17)
    for trial in range(60):
        m = 1 + trial % 3
        columns, objective = _int_lp(*_rational_lp(rng, m, m + 2 + trial % 3))
        solver = ExactSimplexSolver(columns, objective)
        for rhs in (_int_rows(_rational_rhs(rng, m)), _int_rows([1] + [0] * (m - 1))):
            lp["b"] = rhs
            units = [[int(r == i) * (1 if v >= 0 else -1) for r in range(m)] for i, v in enumerate(rhs)]
            lp["columns"] = list(solver._ints) + units
            solver.solve(rhs)
            for basis in combinations(range(len(columns)), m):
                try:
                    solver.solve(rhs, basis)
                except ValueError:
                    continue  # singular starting basis
    assert kinds["_primal"] >= 2000 and kinds["_dual"] >= 100, kinds
    assert kinds["drive-out"] >= 20 and kinds["negative p"] >= 100, kinds


# -- warm solves on one solver -----------------------------------------------


def _outcome(solver, rhs, basis):
    try:
        return solver.solve(rhs, basis)
    except ValueError as exc:
        return f"ValueError: {exc}"


class _CountingSteps(dict):
    """A dual step cache that counts the kept steps read back."""

    hits = 0

    def get(self, key, default=None):
        step = super().get(key, default)
        self.hits += step is not None
        return step


def _replayer(columns, objective):
    """run(rhs, basis) solves on one solver, asserts that the outcome
    equals that of a solver which has never solved, and returns it with
    the number of kept dual steps the first solver replayed."""
    solver = ExactSimplexSolver(columns, objective)
    solver._steps = steps = _CountingSteps()

    def run(rhs, basis):
        before = steps.hits
        got = _outcome(solver, rhs, basis)
        assert got == _outcome(ExactSimplexSolver(columns, objective), rhs, basis)
        return got, steps.hits - before

    return run


def test_warm_solve_sequences_match_fresh_solvers():
    # The dual steps a solver keeps persist across its solves, and a
    # replayed one gives what a solver that has never solved computes.
    rng = SplitMix64(11)
    replayed = 0
    for trial in range(120):
        m = 1 + trial % 3
        columns, objective = _int_lp(*_rational_lp(rng, m, m + 2 + trial % 3))
        run = _replayer(columns, objective)
        kept = None
        for _ in range(8):
            choice = rng.next_below(4)
            if kept is None or choice == 0:
                pool = list(range(len(columns)))
                basis = tuple(pool.pop(rng.next_below(len(pool))) for _ in range(m))
            else:
                basis = kept[::-1] if choice == 1 else kept
            got, hits = run(_int_rows(_rational_rhs(rng, m)), basis)
            replayed += hits > 0
            if not isinstance(got, str) and got.status == "optimal":
                kept = got.basis
    assert replayed >= 40, replayed


# -- the sweep kernel ---------------------------------------------------------


def test_sweep_matches_one_solve_per_point():
    # Per point the kernel returns a proved basis with its exact integer
    # adj and det, xb = adj b >= 0, and the optimum a fresh solver finds;
    # so it does when it tests earlier points' bases first, and when it
    # starts from no basis, or from one the first point's LP rejects.
    rng = SplitMix64(41)
    swept = repaired = 0
    for trial in range(90):
        m = 1 + trial % 3
        columns, objective = _int_lp(*_rational_lp(rng, m, m + 3 + trial % 3))
        optima, points = [], []
        for _ in range(10):
            rhs = _int_rows(_rational_rhs(rng, m))
            sol = ExactSimplexSolver(columns, objective).solve(rhs)
            if sol.status == "optimal":
                optima.append(sol.value)
                points.append(rhs)
        if not points:
            continue
        start = (None, tuple(range(m)), ExactSimplexSolver(columns, objective).solve(points[0]).basis)[trial % 3]
        near = [list(range(i))[::-1] for i in range(len(points))]
        for neighbours in (None, near):
            solver = ExactSimplexSolver(columns, objective)
            try:
                results = solver.sweep(points, start, neighbours)
            except ValueError:
                assert start == tuple(range(m))  # a singular starting basis
                continue
            assert len(results) == len(points)
            for ((basis, adj, det), xb), b, value in zip(results, points, optima):
                assert (adj, det) == _integer_basis(columns, basis)
                assert xb == [sum(map(lambda a, v: a * v, row, b)) for row in adj] and min(xb) >= 0
                assert Fraction(sum(objective[j] * v for j, v in zip(basis, xb)), det) == value
            assert solver.proved is results[-1][0]
            swept += 1
            repaired += len({id(triple) for triple, _ in results}) > 1
    assert swept >= 120 and repaired >= 40, (swept, repaired)


def test_sweep_validates_its_points():
    solver = ExactSimplexSolver([[1, 0], [0, 1], [1, 1]], [1, 1, 3])
    with pytest.raises(ValueError, match="rhs length mismatch"):
        solver.sweep([[1, 2], [1]], (0, 1))
    with pytest.raises(TypeError, match=r"point 1 entry 0 is Fraction\(1, 1\)"):
        solver.sweep([[1, 2], [Fraction(1), 2]], (0, 1))
    assert solver.proved is None and solver._steps == {}
    assert solver.sweep([], (0, 1)) == []
    assert solver.proved is None and solver._steps == {}
    solver.solve([1, 2], (2, 1))  # proved optimal
    solver.solve([1, -1], (2, 1))  # infeasible, after two kept dual steps
    proved, steps = solver.proved, dict(solver._steps)
    assert proved[0] == (2, 1) and len(steps) == 2
    assert solver.sweep([], (0, 1)) == [] and solver.proved is proved and solver._steps == steps


# -- the dual simplex against a Fraction oracle -----------------------------


def _dual_spies(solver, monkeypatch):
    """Logs of solver's routines, its pivots as (row, entering) and the
    callers of its full pricing pass."""
    taken = _record_paths(solver, monkeypatch)
    pivots, priced = [], []
    pivot, reduced_costs = solver._pivot, solver._reduced_costs
    monkeypatch.setattr(solver, "_pivot", lambda *a: pivots.append((a[4], a[6])) or pivot(*a))

    def reduced_spy(*args):
        priced.append(sys._getframe(1).f_code.co_name)
        return reduced_costs(*args)

    monkeypatch.setattr(solver, "_reduced_costs", reduced_spy)
    return taken, pivots, priced


def _dual_matches_oracle(solver, spies, columns, objective, rhs, basis):
    """Solves from basis, which the oracle says needs the dual simplex,
    and compares everything with the oracle on the rational LP, which
    the solver holds scaled by _int_lp; returns the oracle's run."""
    taken, pivots, priced = spies
    for log in spies:
        log.clear()
    expected = dual_simplex_bland(columns, objective, rhs, basis)
    status, sequence, end_basis, x, value = expected
    sol = solver.solve(_int_rows(rhs), basis)
    assert taken == ["_dual"] and pivots == sequence
    if status == "optimal":
        assert (sol.status, sol.basis, sol.x) == (status, end_basis, x)
        assert sol.value == value * OBJ_SCALE
    else:
        assert status == "infeasible" and sol == (status, None, None, None)
    return expected, priced


def test_dual_simplex_pivots_like_the_fraction_oracle(monkeypatch):
    # Every nonsingular basis that is dual but not primal feasible, handed
    # in to a fresh solver (priced in full once, by solve), and every
    # basis a sweep proved optimal at its first point and repairs at its
    # second, where it is infeasible (never priced in full).
    rng = SplitMix64(23)
    handed = kept = pivots = infeasible = 0
    for trial in range(120):
        m = 1 + trial % 3
        columns, objective = _rational_lp(rng, m, m + 2 + trial % 3)
        rhs = _rational_rhs(rng, m)
        for basis in combinations(range(len(columns)), m):
            basis = basis[::(-1) ** trial]  # the leaving row's place varies
            if _invert([[Fraction(columns[j][i]) for j in basis] for i in range(m)]) is None:
                continue
            status, sequence = dual_simplex_bland(columns, objective, rhs, basis)[:2]
            if status is None or status == "optimal" and not sequence:
                continue  # not dual feasible, or primal feasible already
            solver = ExactSimplexSolver(*_int_lp(columns, objective))
            spies = _dual_spies(solver, monkeypatch)
            (status, sequence, *_), priced = _dual_matches_oracle(
                solver, spies, columns, objective, rhs, basis
            )
            assert priced == ["solve"]
            handed += 1
            pivots += len(sequence)
            infeasible += status == "infeasible"
        solver = ExactSimplexSolver(*_int_lp(columns, objective))
        taken, made, priced = spies = _dual_spies(solver, monkeypatch)
        for _ in range(6):
            rhs = _rational_rhs(rng, m)
            first = solver.solve(_int_rows(rhs))
            if first.status != "optimal":
                continue
            again = _rational_rhs(rng, m)
            status, sequence, end_basis, x, value = dual_simplex_bland(columns, objective, again, first.basis)
            if status == "optimal" and not sequence:
                continue  # still primal feasible: returned without pricing
            for log in spies:
                log.clear()
            points = [_int_rows(rhs), _int_rows(again)]
            if status == "infeasible":
                with pytest.raises(ArithmeticError, match="sweep LP status infeasible at point 1"):
                    solver.sweep(points, first.basis)
            else:
                (basis, _, det), xb = solver.sweep(points, first.basis)[1]
                assert (basis, {j: Fraction(v, det) for j, v in zip(basis, xb)}) == (end_basis, x)
                assert Fraction(sum(solver._costs[j] * v for j, v in zip(basis, xb)), det) == value * OBJ_SCALE
            # The first point's primal simplex prices once, finding its
            # basis optimal; the repair prices no column in full.
            assert taken == ["_primal", "_dual"] and made == sequence and priced == ["_primal"]
            kept += 1
            pivots += len(sequence)
    assert handed >= 150 and kept >= 120, (handed, kept)
    assert pivots >= 350 and infeasible >= 60, (pivots, infeasible)
