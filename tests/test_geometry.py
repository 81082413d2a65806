from collections import Counter
from fractions import Fraction
from itertools import permutations
from math import comb

import pytest
from oracles import fraction_contains, fraction_interior_intersect, fraction_relative_volume

from supconvex import (
    DegenerateSimplexError,
    Simplex,
    SplitMix64,
    bary_point,
    barycenter,
    contains,
    lattice,
    relative_volume,
    simplex,
    simplices_interior_intersect,
    standard_simplex,
)
from supconvex._rational import scaled
from supconvex.geometry import contains_points


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
    assert lat.index((1, 2, 0)) == lat.int_points.index((1, 2, 0))
    with pytest.raises(ValueError, match="not a lattice point"):
        lat.index((1, 1, 0))


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


def test_simplex_compares_values_not_spellings():
    half = Fraction(1, 2)
    spellings = [
        Simplex(((2, 0, 0), (1, 1, 0), (1, 0, 1)), 2),
        Simplex(((6, 0, 0), (3, 3, 0), (3, 0, 3)), 6),  # not in lowest terms
        simplex([(1, 0, 0), (Fraction(2, 4), Fraction(2, 4), 0), ("1/2", "0", "1/2")]),
        simplex([("1", 0, "0"), ("1/2", "0.5", 0), (half, 0, Fraction(3, 6))]),
        simplex([bary_point([1, 0, 0]), bary_point(["2/4", half, "0"]), (half, 0, half)]),
    ]
    for s in spellings:
        assert s == spellings[0] and hash(s) == hash(spellings[0])
        assert (s.rows, s.den) == (((2, 0, 0), (1, 1, 0), (1, 0, 1)), 2)
        assert s.vertices == tuple(map(bary_point, ([1, 0, 0], [half, half, 0], [half, 0, half])))
    assert simplex([(1, 0, 0), (half, half, 0), (0, 0, 1)]) != spellings[0]
    with pytest.raises(ValueError, match="share one dimension"):
        Simplex(((1, 0, 0), (0, 1)), 1)
    with pytest.raises(ValueError, match="need 3 vertices for a 2-simplex, got 2"):
        simplex([(1, 0, 0), (0, 1, 0)])


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
    # Disjoint closed corners: the LP has no feasible point at all.
    c = simplex([("1", "0", "0"), ("3/4", "1/4", "0"), ("3/4", "0", "1/4")])
    d = simplex([("0", "1", "0"), ("1/4", "3/4", "0"), ("0", "3/4", "1/4")])
    assert not simplices_interior_intersect(c, d)


def test_interior_intersection_shared_facet():
    up = simplex([("1/2", "1/2", "0"), ("0", "1/2", "1/2"), ("1/2", "0", "1/2")])
    corner = simplex([("1", "0", "0"), ("1/2", "1/2", "0"), ("1/2", "0", "1/2")])
    assert not simplices_interior_intersect(up, corner)


def test_interior_intersection_rejects_degenerate():
    flat = simplex([("1", "0", "0"), ("0", "1", "0"), ("1/2", "1/2", "0")])
    with pytest.raises(DegenerateSimplexError):
        simplices_interior_intersect(flat, standard_simplex(2))


# -- integer geometry against the Fraction oracles ---------------------------


def _rat(rng):
    """A rational in [-1, 2] over a denominator in 1..12."""
    q = 1 + rng.next_below(12)
    return Fraction(int(rng.next_below(3 * q + 1)) - q, q)


def _vertex(rng, k, total=1):
    head = [_rat(rng) for _ in range(k)]
    return bary_point(head + [total - sum(head)])


def _combination(verts, weights):
    return bary_point(
        [sum(w * v.coords[i] for v, w in zip(verts, weights)) for i in range(len(verts[0].coords))]
    )


def _weights(rng, d, zeros=0, negative=False):
    """Random weights summing to 1; the first `zeros` are 0, and with
    `negative` the last is below 0."""
    w = [Fraction(0)] * zeros
    w += [Fraction(1 + rng.next_below(6), 1 + rng.next_below(12)) for _ in range(d - zeros)]
    if negative:
        w[-1] = -w[-1]
    total = sum(w)
    return [x / total for x in w] if total else w


def _agree(integer, oracle, *args):
    """Both raise DegenerateSimplexError, or both return the same value."""
    try:
        want = oracle(*args)
    except DegenerateSimplexError:
        with pytest.raises(DegenerateSimplexError):
            integer(*args)
        return None
    assert integer(*args) == want
    return want


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_integer_geometry_matches_the_fraction_oracles(k):
    rng = SplitMix64(100 + k)
    d = k + 1
    seen = Counter()
    for trial in range(36):
        verts = [_vertex(rng, k) for _ in range(d)]
        if trial % 6 == 5:
            # Degenerate: the last vertex is an affine combination of the others.
            weights = [Fraction(3, 2), Fraction(-1, 2)] + [0] * (k - 2) if k > 1 else [1]
            verts[-1] = _combination(verts[:k], weights)
        s = simplex(verts)
        if _agree(relative_volume, fraction_relative_volume, s) is None:
            seen["degenerate"] += 1
            _agree(contains, fraction_contains, s, barycenter(k))
            for pair in ((s, standard_simplex(k)), (standard_simplex(k), s)):
                _agree(simplices_interior_intersect, fraction_interior_intersect, *pair)
            continue
        points = [
            _combination(verts, _weights(rng, d)),  # interior
            _combination(verts, _weights(rng, d, zeros=1 + trial % k if k > 1 else 1)),  # boundary
            _combination(verts, _weights(rng, d, negative=True)),  # outside
            _vertex(rng, k),
            _vertex(rng, k, total=Fraction(1 + rng.next_below(5), 3)),  # off {sum = 1} unless 3/3
        ]
        points.append(bary_point([c * Fraction(8, 7) for c in points[0].coords]))  # off {sum = 1}
        for p in points:
            seen[_agree(contains, fraction_contains, s, p)] += 1
        # Shared facet, apex across it (disjoint interiors) and apex on
        # the same side (overlap); a translate far away (closed-disjoint);
        # and an unrelated simplex.
        facet, apex = verts[:k], verts[k]
        centre = _combination(facet, [Fraction(1, k)] * k) if k > 1 else facet[0]
        across = bary_point([2 * c - a for c, a in zip(centre.coords, apex.coords)])
        inside = bary_point([(c + a) / 2 for c, a in zip(centre.coords, apex.coords)])
        shift = [Fraction(10), Fraction(-10)] + [Fraction(0)] * (d - 2)
        far = simplex([[c + t for c, t in zip(v.coords, shift)] for v in verts])
        pairs = [
            (simplex(facet + [across]), False),
            (simplex(facet + [inside]), True),
            (far, False),
            (s, True),
            (simplex([_vertex(rng, k) for _ in range(d)]), None),
        ]
        for other, want in pairs:
            got = _agree(simplices_interior_intersect, fraction_interior_intersect, s, other)
            assert want is None or got == want
            seen[("overlap", got)] += 1
    assert seen["degenerate"] >= 6
    assert seen[True] and seen[False], seen
    assert seen[("overlap", True)] and seen[("overlap", False)], seen


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_contains_points_agrees_with_contains_point_by_point(k):
    rng = SplitMix64(300 + k)
    d = k + 1
    seen = Counter()
    for trial in range(24):
        verts = [_vertex(rng, k) for _ in range(d)]
        if trial % 6 == 5:
            # Degenerate: the last vertex is an affine combination of the others.
            weights = [Fraction(3, 2), Fraction(-1, 2)] + [0] * (k - 2) if k > 1 else [1]
            verts[-1] = _combination(verts[:k], weights)
        s = simplex(verts)
        try:
            relative_volume(s)
        except DegenerateSimplexError:
            for xs in ([], [[1] + [0] * k]):
                with pytest.raises(DegenerateSimplexError):
                    contains_points(s, xs, 1)
            seen["degenerate"] += 1
            continue
        points = [_combination(verts, _weights(rng, d, zeros=z % d)) for z in range(4)]
        points += [_combination(verts, _weights(rng, d, negative=True)), _vertex(rng, k), *verts]
        points.append(bary_point([c * Fraction(8, 7) for c in points[0].coords]))  # off {sum = 1}
        want = [contains(s, p) for p in points]
        assert want == [fraction_contains(s, p) for p in points]
        # All points over their common denominator, in one call ...
        nums, q = scaled([c for p in points for c in p.coords])
        xs = [nums[i * d:(i + 1) * d] for i in range(len(points))]
        assert contains_points(s, xs, q) == want
        # ... and each over its own, and at a scaled-up denominator.
        for p, inside in zip(points, want):
            x, den = scaled(p.coords)
            assert contains_points(s, [x], den) == contains_points(s, [[3 * c for c in x]], 3 * den) == [inside]
        assert contains_points(s, [], q) == []
        seen.update(want)
    assert seen[True] and seen[False] and seen["degenerate"] >= 4, seen


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_contains_in_the_chart_matches_the_fraction_oracle(k):
    # Simplices in the hyperplanes {sum = 0}, through the origin, {sum = 1}
    # and {sum = 2/3}.  fraction_contains solves in the vertex frame,
    # which a simplex through the origin lacks; containment is affine, so
    # every simplex and point is also checked moved by e_0, which takes
    # {sum = 0} to {sum = 1}.
    rng = SplitMix64(500 + k)
    d = k + 1
    seen = Counter()

    def moved(p):
        return bary_point([c + (i == 0) for i, c in enumerate(p.coords)])

    for trial in range(30):
        total = (Fraction(0), Fraction(1), Fraction(2, 3))[trial % 3]
        while True:  # redraw coincident or affinely dependent vertices
            verts = [_vertex(rng, k, total) for _ in range(d)]
            s = simplex(verts)
            try:
                relative_volume(s)
                break
            except DegenerateSimplexError:
                seen["redrawn"] += 1
        points = [
            _combination(verts, _weights(rng, d)),  # interior
            _combination(verts, _weights(rng, d, zeros=1 + trial % k if k > 1 else 1)),  # boundary
            _combination(verts, _weights(rng, d, negative=True)),  # outside
            _vertex(rng, k, total),  # in the hyperplane
            *verts,
        ]
        # Off the hyperplane, over the interior point and over a vertex.
        points += [
            bary_point([c + Fraction(i == 0, 5) for i, c in enumerate(p.coords)])
            for p in points[:1] + verts[:1]
        ]
        got = [contains(s, p) for p in points]
        nums, q = scaled([c for p in points for c in p.coords])
        assert contains_points(s, [nums[i * d:(i + 1) * d] for i in range(len(points))], q) == got
        assert got == [fraction_contains(simplex(map(moved, verts)), moved(p)) for p in points]
        if total:
            assert got == [fraction_contains(s, p) for p in points]
        else:
            with pytest.raises(DegenerateSimplexError):
                fraction_contains(s, points[0])
        assert got[-2:] == [False, False]
        seen.update((total, inside) for inside in got)
    for total in (0, 1, Fraction(2, 3)):
        assert seen[(total, True)] and seen[(total, False)], seen


# -- facet separation before the overlap LP ----------------------------------


def _lp_calls(monkeypatch):
    """A list that gets one entry per exactlp.solve_lp call."""
    from supconvex import exactlp

    calls = []
    solve_lp = exactlp.solve_lp

    def spy(*args):
        calls.append(args)
        return solve_lp(*args)

    monkeypatch.setattr(exactlp, "solve_lp", spy)
    return calls


def _tetrahedron(points):
    """The simplex of the points (x, y, z) under the affine map
    p = 1/4 + (x, y, z, -x-y-z)/8 into {sum = 1}."""
    quarter = Fraction(1, 4)
    return simplex(
        [
            [quarter + Fraction(c) / 8 for c in (x, y, z, -x - y - z)]
            for x, y, z in (map(Fraction, p) for p in points)
        ]
    )


def test_edge_edge_pair_reaches_the_lp(monkeypatch):
    # A lies in z <= 0 and B in z >= 0; they meet where A's edge on the
    # x-axis crosses B's edge on the y-axis.  Only the plane z = 0,
    # through an edge of each, separates them: every facet plane of
    # either one cuts the other.
    a = _tetrahedron([(1, 0, 0), (-1, 0, 0), (0, 1, -1), (0, -1, -1)])
    b = _tetrahedron([(0, 1, 0), (0, -1, 0), (1, 0, 1), (-1, 0, 1)])
    # B's lower edge lowered to z = -1/2 runs through A's interior.
    sunk = _tetrahedron([(0, 1, "-1/2"), (0, -1, "-1/2"), (1, 0, 1), (-1, 0, 1)])
    calls = _lp_calls(monkeypatch)
    for pair, want in (((a, b), False), ((b, a), False), ((a, sunk), True), ((sunk, a), True)):
        before = len(calls)
        assert simplices_interior_intersect(*pair) is want
        assert len(calls) == before + 1, pair
        assert fraction_interior_intersect(*pair) is want


def test_separating_facet_skips_the_lp(monkeypatch):
    # Two corner cells of the 2-simplex: the line x_0 = 1/2 holds a
    # facet of each.
    a = simplex([("1", "0", "0"), ("1/2", "1/2", "0"), ("1/2", "0", "1/2")])
    b = simplex([("0", "1", "0"), ("1/2", "1/2", "0"), ("0", "1/2", "1/2")])
    calls = _lp_calls(monkeypatch)
    assert not simplices_interior_intersect(a, b)
    assert not simplices_interior_intersect(b, a)
    assert calls == []
    assert simplices_interior_intersect(standard_simplex(2), a)
    assert len(calls) == 1


def test_vertex_matrix_singular_but_chart_regular_goes_to_the_lp(monkeypatch):
    # Segments on the line {sum = 0} through the origin: their vertex
    # matrices are singular, yet their chart determinants are not zero,
    # and their frames are taken in the chart.  Touching segments are
    # separated by an end point; only overlapping ones reach the LP.
    seg = Simplex(((1, -1), (2, -2)), 1)
    touching = Simplex(((2, -2), (3, -3)), 1)
    across = simplex([("3/2", "-3/2"), ("3", "-3")])
    assert contains(seg, bary_point(["3/2", "-3/2"]))
    assert relative_volume(seg) == 1
    calls = _lp_calls(monkeypatch)
    cases = [((seg, seg), True, 1), ((seg, touching), False, 0), ((touching, seg), False, 0)]
    cases += [((seg, across), True, 1), ((across, seg), True, 1)]
    for pair, want, lp_calls in cases:
        before = len(calls)
        assert simplices_interior_intersect(*pair) is want
        assert len(calls) == before + lp_calls, pair
        assert fraction_interior_intersect(*pair) is want
    # Against a simplex in {sum = 1}, that simplex's frame separates.
    for pair in ((seg, standard_simplex(1)), (standard_simplex(1), seg)):
        before = len(calls)
        assert simplices_interior_intersect(*pair) is False
        assert len(calls) == before
        assert fraction_interior_intersect(*pair) is False


def test_degenerate_simplices_raise_before_the_facet_test(monkeypatch):
    flat = simplex([("1", "0", "0"), ("0", "1", "0"), ("1/2", "1/2", "0")])
    far = simplex([("10", "-10", "1"), ("11", "-10", "0"), ("10", "-9", "0")])
    calls = _lp_calls(monkeypatch)
    for pair in ((flat, far), (far, flat)):
        with pytest.raises(DegenerateSimplexError):
            simplices_interior_intersect(*pair)
    assert calls == []
