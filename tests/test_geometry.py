from fractions import Fraction
from itertools import permutations
from math import comb

import pytest

from supconvex import (
    DegenerateSimplexError,
    bary_point,
    barycenter,
    contains,
    lattice,
    relative_volume,
    simplex,
    simplices_interior_intersect,
    standard_simplex,
)


def test_lattice_counts_match_binomial():
    for k in range(1, 5):
        for n in (1, 2, 3, 4, 6, 8):
            assert len(lattice(k, n)) == comb(n + k, k)
    assert len(lattice(2, 12)) == comb(14, 2)


def test_lattice_order_and_membership():
    lat = lattice(2, 4)
    assert list(lat.int_points) == sorted(lat.int_points)
    tri = standard_simplex(2)
    for ints, p in zip(lat.int_points, lat.points):
        assert sum(ints) == 4
        assert p.total == 1
        assert contains(tri, p)


def test_lattice_example_k1():
    lat = lattice(1, 2)
    coords = [tuple(Fraction(int(c.numerator), int(c.denominator)) for c in p.coords) for p in lat.points]
    assert coords == [
        (Fraction(0), Fraction(1)),
        (Fraction(1, 2), Fraction(1, 2)),
        (Fraction(1), Fraction(0)),
    ]


def test_lattice_vertex_indices():
    lat = lattice(2, 3)
    idx = lat.vertex_indices()
    assert [lat.int_points[i] for i in idx] == [(3, 0, 0), (0, 3, 0), (0, 0, 3)]


def test_dimension_cap():
    with pytest.raises(ValueError):
        lattice(7, 2)
    with pytest.raises(ValueError):
        lattice(0, 2)
    with pytest.raises(ValueError, match="166676666850001 points"):
        lattice(3, 10**5)


def test_standard_simplex_volume_is_one():
    for k in range(1, 6):
        assert relative_volume(standard_simplex(k)) == 1


def test_half_scale_corner_volume():
    s = simplex([("1", "0", "0"), ("1/2", "1/2", "0"), ("1/2", "0", "1/2")])
    assert relative_volume(s) == Fraction(1, 4)


def test_medial_triangle_volume():
    s = simplex([("1/2", "1/2", "0"), ("0", "1/2", "1/2"), ("1/2", "0", "1/2")])
    assert relative_volume(s) == Fraction(1, 4)


def test_volume_invariant_under_relabelings():
    verts = [("1/2", "1/3", "1/6"), ("1/4", "1/4", "1/2"), ("1", "0", "0")]
    base = relative_volume(simplex(verts))
    assert base > 0
    for perm in permutations(range(3)):
        relabeled = [tuple(v[i] for i in perm) for v in verts]
        assert relative_volume(simplex(relabeled)) == base
    for order in permutations(verts):
        assert relative_volume(simplex(order)) == base


def test_degenerate_simplex_raises():
    s = simplex([("1", "0", "0"), ("0", "1", "0"), ("1/2", "1/2", "0")])
    with pytest.raises(DegenerateSimplexError):
        relative_volume(s)
    with pytest.raises(DegenerateSimplexError):
        contains(s, barycenter(2))


def test_contains_examples():
    tri = standard_simplex(2)
    assert contains(tri, barycenter(2))
    assert not contains(tri, bary_point(["3/2", "-1/4", "-1/4"]))
    corner = simplex([("1", "0", "0"), ("1/2", "1/2", "0"), ("1/2", "0", "1/2")])
    assert contains(corner, bary_point(["3/4", "1/8", "1/8"]))
    assert not contains(corner, barycenter(2))


def test_contains_dimension_mismatch():
    with pytest.raises(ValueError):
        contains(standard_simplex(2), bary_point(["1/2", "1/2"]))


def test_interior_intersection_basic():
    tri = standard_simplex(2)
    assert simplices_interior_intersect(tri, tri)
    a = simplex([("1", "0", "0"), ("1/2", "1/2", "0"), ("1/2", "0", "1/2")])
    b = simplex([("0", "1", "0"), ("1/2", "1/2", "0"), ("0", "1/2", "1/2")])
    # Corner cells meeting only along lower-dimensional sets.
    assert not simplices_interior_intersect(a, b)
    assert simplices_interior_intersect(tri, a)


def test_interior_intersection_shared_facet():
    up = simplex([("1/2", "1/2", "0"), ("0", "1/2", "1/2"), ("1/2", "0", "1/2")])
    corner = simplex([("1", "0", "0"), ("1/2", "1/2", "0"), ("1/2", "0", "1/2")])
    assert not simplices_interior_intersect(up, corner)


def test_interior_intersection_rejects_degenerate():
    flat = simplex([("1", "0", "0"), ("0", "1", "0"), ("1/2", "1/2", "0")])
    with pytest.raises(DegenerateSimplexError):
        simplices_interior_intersect(flat, standard_simplex(2))
