from fractions import Fraction
from itertools import permutations

import pytest
from oracles import _invert

from supconvex import SplitMix64
from supconvex.exactlp import ExactSimplexSolver, eliminate, solve_lp


def test_known_optimum():
    # max 3x + 2y  s.t.  x + y = 4, x - y = 2  ->  x = 3, y = 1
    columns = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(-1)]]
    status, value, x = solve_lp(
        columns, [Fraction(3), Fraction(2)], [Fraction(4), Fraction(2)]
    )
    assert status == "optimal"
    assert value == 11
    assert x == {0: Fraction(3), 1: Fraction(1)}


def test_nonnegativity_binds():
    # max x + y  s.t.  x + 2y = 2  over x, y >= 0  ->  x = 2, y = 0
    columns = [[Fraction(1)], [Fraction(2)]]
    status, value, x = solve_lp(columns, [Fraction(1), Fraction(1)], [Fraction(2)])
    assert status == "optimal"
    assert value == 2
    assert x == {0: Fraction(2)}


def test_infeasible():
    # x + y = -1 has no nonnegative solution
    columns = [[Fraction(1)], [Fraction(1)]]
    status, value, x = solve_lp(columns, [Fraction(1), Fraction(1)], [Fraction(-1)])
    assert status == "infeasible"
    assert value is None and x is None


def test_unbounded():
    # max 2x - y  s.t.  x - y = 0: x = y = t grows the objective forever
    columns = [[Fraction(1)], [Fraction(-1)]]
    status, value, x = solve_lp(columns, [Fraction(2), Fraction(-1)], [Fraction(0)])
    assert status == "unbounded"


def test_degenerate_terminates():
    # Zero rhs makes every vertex maximally degenerate; Bland's rule
    # must still terminate with a definite status.
    columns = [
        [Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(1)],
        [Fraction(1), Fraction(1)],
        [Fraction(1), Fraction(-1)],
    ]
    status, _value, _x = solve_lp(
        columns,
        [Fraction(1), Fraction(1), Fraction(1), Fraction(1)],
        [Fraction(0), Fraction(0)],
    )
    assert status in ("optimal", "unbounded")


def test_warm_start_matches_cold():
    columns = [
        [Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(1)],
        [Fraction(1), Fraction(1)],
        [Fraction(2), Fraction(1)],
    ]
    objective = [Fraction(1), Fraction(2), Fraction(4), Fraction(5)]
    solver = ExactSimplexSolver(columns, objective)
    cold = solver.solve([Fraction(3), Fraction(2)])
    assert cold.status == "optimal"
    # Re-solve a nearby rhs starting from the previous optimal basis.
    warm = solver.solve([Fraction(3), Fraction(3)], basis=cold.basis)
    fresh = ExactSimplexSolver(columns, objective).solve([Fraction(3), Fraction(3)])
    assert warm.status == fresh.status == "optimal"
    assert warm.value == fresh.value


def test_exact_rationals_no_drift():
    # 1/3 coefficients: answers must be exact, not floating approximations.
    columns = [[Fraction(1, 3)], [Fraction(2, 3)]]
    status, value, x = solve_lp(columns, [Fraction(1), Fraction(1)], [Fraction(1)])
    assert status == "optimal"
    assert value == 3
    assert x == {0: Fraction(3)}


def test_input_validation():
    with pytest.raises(ValueError):
        ExactSimplexSolver([], [])
    with pytest.raises(ValueError):
        ExactSimplexSolver([[Fraction(1)], [Fraction(1), Fraction(2)]], [1, 1])
    with pytest.raises(ValueError):
        ExactSimplexSolver([[Fraction(1)]], [1, 2])
    solver = ExactSimplexSolver([[Fraction(1)]], [Fraction(1)])
    with pytest.raises(ValueError):
        solver.solve([Fraction(1), Fraction(2)])


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
    """Small sparse Fraction matrix; about every fourth one is made
    singular by overwriting a row with a multiple of the next row."""
    a = [
        [
            Fraction(0) if rng.next_below(3) == 0
            else Fraction(int(rng.next_below(9)) - 4, 1 + rng.next_below(3))
            for _ in range(n)
        ]
        for _ in range(n)
    ]
    if n >= 2 and rng.next_below(4) == 0:
        i = rng.next_below(n)
        c = Fraction(int(rng.next_below(5)) - 2, 2)
        a[i] = [c * x for x in a[(i + 1) % n]]
    return a


def test_eliminate_matches_oracle_inverse_and_leibniz_determinant():
    rng = SplitMix64(2024)
    singular = 0
    for trial in range(240):
        n = 1 + trial % 4
        a = _random_matrix(rng, n)
        identity = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        det, cols = eliminate(a, identity)
        inv = _invert(a)
        assert det == _det_by_permutations(a)
        if inv is None:
            singular += 1
            assert det == 0 and cols is None
            assert eliminate(a) == (0, None)
            continue
        # cols[j] solves a x = e_j: column j of the inverse.
        assert cols == [[inv[i][j] for i in range(n)] for j in range(n)]
        assert eliminate(a) == (det, [])
        b = [[Fraction(int(rng.next_below(7)) - 3, 1 + rng.next_below(4)) for _ in range(n)] for _ in range(2)]
        _, xs = eliminate(a, b)
        for x, rhs in zip(xs, b):
            assert [sum(a[i][c] * x[c] for c in range(n)) for i in range(n)] == rhs
    assert 40 <= singular <= 160, singular  # both branches well covered


def test_eliminate_determinant_sign_under_row_swaps():
    a = [
        [Fraction(0), Fraction(2), Fraction(1)],
        [Fraction(3), Fraction(0), Fraction(-1)],
        [Fraction(1, 2), Fraction(1), Fraction(0)],
    ]
    base = _det_by_permutations(a)
    assert base != 0
    for perm in permutations(range(3)):
        rows = [a[p] for p in perm]
        det, _ = eliminate(rows)
        assert det == _perm_sign(perm) * base
    for perm in permutations(range(4)):
        rows = [[Fraction(int(perm[i] == j)) for j in range(4)] for i in range(4)]
        assert eliminate(rows)[0] == _perm_sign(perm)


def test_singular_starting_basis_is_rejected():
    columns = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)], [Fraction(2), Fraction(0)]]
    solver = ExactSimplexSolver(columns, [Fraction(1), Fraction(1), Fraction(1)])
    with pytest.raises(ValueError, match="starting basis is singular"):
        solver.solve([Fraction(1), Fraction(1)], basis=(0, 2))
