from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from oracles import vertex_usage_oracle
from supconvex import (
    SplitMix64,
    SubdivisionCell,
    bary_point,
    cell_contains,
    cell_vertices,
    classify_point,
    enumerate_shifts,
    eulerian,
    extremal_profile,
    hypersimplex_triangulation,
    hypersimplex_vertices,
    hypersimplex_volume,
    sharp_constant,
    simplex,
    simplices_interior_intersect,
    subdivide,
)
from supconvex.subdivision import CELL_CAP, cell_count


def test_enumerate_shifts_counts_and_order():
    shifts = enumerate_shifts(2, 2)
    assert shifts == [
        (0, 0, 2),
        (0, 1, 1),
        (0, 2, 0),
        (1, 0, 1),
        (1, 1, 0),
        (2, 0, 0),
    ]
    for k in range(1, 5):
        for total in range(5):
            assert len(enumerate_shifts(k, total)) == comb(total + k, k)


def test_hypersimplex_vertices():
    vs = hypersimplex_vertices(2, 1)
    assert vs == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    vs = hypersimplex_vertices(3, 2)
    assert len(vs) == comb(4, 2)
    assert all(sum(v) == 2 and set(v) <= {0, 1} for v in vs)


def test_hypersimplex_volume_is_eulerian():
    for k in range(1, 7):
        for m in range(1, k + 1):
            assert hypersimplex_volume(k, m) == eulerian(k, m - 1)


def test_hypersimplex_volume_examples():
    assert hypersimplex_volume(2, 2) == 1
    assert hypersimplex_volume(3, 2) == 4
    assert hypersimplex_volume(4, 2) == 11


def test_triangulation_interior_disjoint():
    for k, m in ((2, 2), (3, 2), (3, 3)):
        tri = hypersimplex_triangulation(k, m)
        assert len(tri) == hypersimplex_volume(k, m)
        as_simplices = [simplex([bary_point(v) for v in cell]) for cell in tri]
        for a, b in combinations(as_simplices, 2):
            assert not simplices_interior_intersect(a, b)


def test_triangulation_slice_k1_is_standard():
    (only,) = hypersimplex_triangulation(3, 1)
    assert set(only) == {
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
    }


def test_subdivide_counts():
    cells = subdivide(2, 4)
    by_m = {}
    for c in cells:
        by_m[c.m] = by_m.get(c.m, 0) + 1
    assert by_m == {1: 10, 2: 6}

    cells = subdivide(3, 2)
    by_m = {}
    for c in cells:
        by_m[c.m] = by_m.get(c.m, 0) + 1
    assert by_m == {1: 4, 2: 1}

    cells = subdivide(1, 3)
    assert [c.m for c in cells] == [1, 1, 1]


def test_subdivide_volumes_sum_to_one():
    for k in range(1, 4):
        for n in range(1, 6):
            cells = subdivide(k, n)
            assert sum(c.relative_volume() for c in cells) == 1


def test_classify_examples():
    loc = classify_point(
        2, 2, bary_point([Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)])
    )
    assert (loc.m, loc.shift, loc.on_boundary) == (1, (1, 0, 0), True)

    loc = classify_point(1, 3, bary_point([Fraction(5, 6), Fraction(1, 6)]))
    assert (loc.m, loc.shift, loc.on_boundary) == (1, (2, 0), False)

    loc = classify_point(2, 2, bary_point([Fraction(1, 3)] * 3))
    assert (loc.m, loc.shift, loc.on_boundary) == (2, (0, 0, 0), False)


def test_classify_lattice_points_use_m1_cell():
    # Vertices and edge midpoints of the n=2 subdivision sit on cell corners;
    # the classifier must still name a containing corner cell.
    v = bary_point([1, 0, 0])
    loc = classify_point(2, 2, v)
    assert loc.m == 1 and loc.on_boundary
    assert cell_contains(SubdivisionCell(2, loc.m, loc.shift), v)

    mid = bary_point([Fraction(1, 2), Fraction(1, 2), 0])
    loc = classify_point(2, 2, mid)
    assert loc.m == 1 and loc.on_boundary
    assert cell_contains(SubdivisionCell(2, loc.m, loc.shift), mid)
    # The closed cell at shift (1, 0, 0) ends where x_0 = 1/2.
    assert not cell_contains(SubdivisionCell(2, 1, (1, 0, 0)), bary_point([0, 1, 0]))


def test_classify_agrees_with_feasibility_oracle():
    for k in (1, 2):
        for n in (2, 3, 4):
            den = 2 * n
            for shift in enumerate_shifts(k, den):
                z = bary_point([Fraction(c, den) for c in shift])
                loc = classify_point(k, n, z)
                best, argmax = vertex_usage_oracle(k, n, tuple(z))
                if best == n:
                    assert loc.m == 1
                    assert loc.on_boundary
                else:
                    assert loc.m == n - best
                    assert loc.shift in argmax
                assert cell_contains(SubdivisionCell(n, loc.m, loc.shift), z)


def test_random_interior_points_land_in_exactly_one_cell():
    rng = SplitMix64(99)
    for k, n in ((1, 3), (2, 2), (2, 3), (3, 2)):
        cells = subdivide(k, n)
        done = 0
        while done < 40:
            raw = [1 + rng.next_below(95) for _ in range(k + 1)]
            total = sum(raw)
            z = bary_point([Fraction(r, total) for r in raw])
            homes = [c for c in cells if cell_contains(c, z, strict=True)]
            loc = classify_point(k, n, z)
            if loc.on_boundary:
                assert len(homes) == 0
                continue
            assert len(homes) == 1
            assert (homes[0].m, homes[0].shift) == (loc.m, loc.shift)
            done += 1


def test_cell_vertices_examples():
    # middle cell of the k=1, n=2 subdivision spans the two edge midpoints
    vs = cell_vertices(SubdivisionCell(2, 1, (0, 0)))
    assert {tuple(v) for v in vs} == {
        (Fraction(0), Fraction(1, 2)),
        (Fraction(1, 2), Fraction(0)),
    }
    # medial cell of the k=2, n=2 subdivision: the three edge midpoints
    vs = cell_vertices(SubdivisionCell(2, 2, (0, 0, 0)))
    assert all(sum(v) == 1 for v in vs)
    assert {tuple(sorted(v)) for v in vs} == {
        (Fraction(0), Fraction(1, 2), Fraction(1, 2))
    }


def test_value_on_cell():
    for c in subdivide(2, 2):
        assert c.value_on_cell == Fraction(2 - c.m, 2)
    for c in subdivide(3, 5):
        assert c.value_on_cell == Fraction(5 - c.m, 5)


def test_extremal_profile():
    prof = extremal_profile(2, 2)
    assert prof.ratio == Fraction(3, 8)
    by_m = {row.m: row for row in prof.per_m}
    assert by_m[1].cell_count == 3
    assert by_m[2].cell_count == 1

    prof = extremal_profile(3, 3)
    assert prof.ratio == Fraction(4, 9)

    for k in range(1, 4):
        for n in range(1, 5):
            assert extremal_profile(k, n).ratio == sharp_constant(k, n)


def test_profile_counts_are_binomials():
    for k in range(1, 4):
        for n in range(1, 6):
            prof = extremal_profile(k, n)
            for row in prof.per_m:
                assert row.cell_count == comb(n + k - row.m, k)
            assert cell_count(k, n) == len(subdivide(k, n))


def test_cell_cap_refuses_before_listing():
    # (2, 500) has exactly CELL_CAP cells and (2, 501) has 251,001.
    assert cell_count(2, 500) == CELL_CAP
    for call in (subdivide, extremal_profile):
        with pytest.raises(ValueError, match="251001 cells"):
            call(2, 501)


def test_invalid_inputs():
    with pytest.raises(ValueError):
        subdivide(0, 2)
    with pytest.raises(ValueError):
        subdivide(2, 0)
    with pytest.raises(ValueError):
        hypersimplex_volume(2, 3)
    with pytest.raises(ValueError):
        classify_point(2, 2, bary_point([Fraction(3, 2), Fraction(-1, 2), 0]))
    with pytest.raises(ValueError):
        classify_point(1, 2, bary_point([Fraction(1, 2), Fraction(1, 4)]))
