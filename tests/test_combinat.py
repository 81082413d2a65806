from fractions import Fraction
from math import comb, factorial

import pytest

from oracles import eulerian_by_descents
from supconvex import (
    asymptotic_bound,
    closed_form_constant,
    constant_report,
    descent_sum_constant,
    eulerian,
    power_sum_constant,
    rate_constant_conjectured,
    rate_constant_covering,
    sharp_constant,
    worpitzky_check,
)


def test_eulerian_matches_descent_enumeration():
    for k in range(1, 8):
        for l in range(k):
            assert eulerian(k, l) == eulerian_by_descents(k, l)


def test_eulerian_rows_sum_to_factorial():
    for k in range(1, 9):
        assert sum(eulerian(k, l) for l in range(k)) == factorial(k)


def test_eulerian_symmetry():
    for k in range(1, 9):
        for l in range(k):
            assert eulerian(k, l) == eulerian(k, k - 1 - l)


def test_eulerian_out_of_range():
    with pytest.raises(ValueError):
        eulerian(3, 3)
    with pytest.raises(ValueError):
        eulerian(3, -1)
    with pytest.raises(ValueError):
        eulerian(0, 0)


def test_eulerian_of_a_large_order():
    # A recursion over k would run 3000 deep; one descent has 2^k - k - 1
    # permutations.
    assert eulerian(3000, 1) == 2**3000 - 3001


def test_constant_examples():
    assert sharp_constant(1, 2) == Fraction(1, 2)
    assert sharp_constant(2, 3) == Fraction(5, 9)
    assert sharp_constant(3, 2) == Fraction(1, 4)
    assert sharp_constant(2, 2) == Fraction(3, 8)
    assert sharp_constant(2, 4) == Fraction(21, 32)
    assert sharp_constant(3, 3) == Fraction(4, 9)
    assert sharp_constant(1, 1) == 0
    # c(k, 2) is the pairwise inequality's constant (k+1)/2^(k+1).
    for k in range(1, 7):
        assert sharp_constant(k, 2) == power_sum_constant(k, 2) == Fraction(k + 1, 2 ** (k + 1))


def test_all_forms_agree():
    for k in range(1, 7):
        for n in range(1, 13):
            rep = constant_report(k, n)  # internal assertions cross-check
            assert rep.descent_sum == rep.power_sum
            if k <= 3:
                assert rep.closed_form == rep.descent_sum
            else:
                assert rep.closed_form is None
            assert descent_sum_constant(k, n) == power_sum_constant(k, n)


def test_closed_form_requires_small_k():
    with pytest.raises(ValueError):
        closed_form_constant(4, 5)


def test_worpitzky_identity():
    for k in range(1, 7):
        for n in range(1, 13):
            assert worpitzky_check(k, n)


def test_worpitzky_figure_instance():
    # n = 4, k = 2: the 16 triangles split as 10 upward and 6 downward.
    up = comb(5, 2) * eulerian(2, 0)
    down = comb(4, 2) * eulerian(2, 1)
    assert (up, down) == (10, 6)
    assert up + down == 4**2


def test_asymptotic_bound_examples():
    assert asymptotic_bound(2, 3) == Fraction(1, 9)
    assert asymptotic_bound(3, 4) == Fraction(-17, 64)
    for n in range(2, 51):
        assert asymptotic_bound(1, n) == sharp_constant(1, n)
    with pytest.raises(ValueError):
        asymptotic_bound(3, 3)


def test_asymptotic_bound_below_constant():
    for k in (2, 3):
        for n in range(k + 1, 30):
            assert asymptotic_bound(k, n) < sharp_constant(k, n)


def test_rate_constants():
    assert rate_constant_conjectured(1) == rate_constant_covering(1) == 1
    assert rate_constant_conjectured(2) == Fraction(3, 2)
    assert rate_constant_covering(2) == 4
    for k in range(2, 7):
        assert rate_constant_conjectured(k) < rate_constant_covering(k)


def test_invalid_domains():
    with pytest.raises(ValueError):
        sharp_constant(0, 2)
    with pytest.raises(ValueError):
        sharp_constant(2, 0)
