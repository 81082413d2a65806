import hashlib
from fractions import Fraction
from math import comb

import pytest

from supconvex import (
    GoodTranslate,
    bary_point,
    best_cover,
    cell_vertices,
    closure_good,
    contains,
    find_cover,
    relative_volume,
    replay_derivation,
    enumerate_shifts,
    scaled_simplex_cover,
    simplex,
    standard_simplex,
    subdivide,
)
from supconvex.cli import main
from supconvex.cover import MAX_REFINE, coverage_masks


def test_closure_k1_n2_level1():
    closure = closure_good(1, 2, 1, blend_rounds=1)
    assert not closure.truncated
    level1 = closure.at_level(1)
    by_offset = {t.offset: t.constant for t in level1}
    half = Fraction(1, 2)
    quarter = Fraction(1, 4)
    assert by_offset == {
        (half, Fraction(0)): 1,
        (Fraction(0), half): 1,
        (quarter, quarter): 2,
    }
    # a second blend round mixes the midpoint back with the corners
    deeper = {t.offset: t.constant for t in closure_good(1, 2, 1).at_level(1)}
    assert by_offset.items() <= deeper.items()
    assert deeper[(Fraction(1, 8), Fraction(3, 8))] == Fraction(5, 2)
    assert deeper[(Fraction(3, 8), Fraction(1, 8))] == Fraction(5, 2)


def test_closure_k2_n2_level1():
    closure = closure_good(2, 2, 1)
    level1 = closure.at_level(1)
    corners = [t for t in level1 if t.constant == 1]
    blends = [t for t in level1 if t.constant == 2]
    assert len(corners) == 3
    assert len(blends) == 3
    half = Fraction(1, 2)
    assert {t.offset for t in corners} == {
        (half, 0, 0),
        (0, half, 0),
        (0, 0, half),
    }
    quarter = Fraction(1, 4)
    assert {t.offset for t in blends} == {
        (quarter, quarter, 0),
        (quarter, 0, quarter),
        (0, quarter, quarter),
    }


def test_replay_derivations():
    closure = closure_good(2, 2, 2, budget=500)
    for t in closure.translates:
        again = replay_derivation(t.k, t.n, t.derivation)
        assert again.offset == t.offset
        assert again.level == t.level
        # replay recomputes a constant along one path; dedupe may have
        # kept a cheaper path, never a more expensive one
        assert again.constant >= t.constant


def test_translate_validation():
    with pytest.raises(ValueError):
        GoodTranslate(1, 2, 1, (Fraction(-1, 4), Fraction(3, 4)), 1, ("root",))
    with pytest.raises(ValueError):
        GoodTranslate(1, 2, 1, (Fraction(1, 4), Fraction(1, 2)), 1, ("root",))


def test_contains_point():
    t = GoodTranslate(1, 2, 1, (Fraction(1, 2), Fraction(0)), 1, ("root",))
    assert t.contains_point(bary_point([Fraction(3, 4), Fraction(1, 4)]))
    assert t.contains_point(bary_point([1, 0]))
    assert not t.contains_point(bary_point([Fraction(1, 4), Fraction(3, 4)]))


def test_find_cover_k1_n2_exact():
    cert = find_cover(1, 2, 1)
    assert cert is not None
    assert cert.count == 2
    assert cert.sum_constants == 2
    assert cert.derived_constant == Fraction(1, 4)
    assert cert.cert_resolution == 2


def test_find_cover_k2_n2_snapshot():
    cert = find_cover(2, 2, 1)
    assert cert is not None
    assert cert.level == 1
    assert cert.count == 6
    assert cert.sum_constants == 9
    assert cert.derived_constant == Fraction(1, 36)
    assert cert.cert_resolution == 4


def test_best_cover_returns_first_level():
    closure, cert = best_cover(1, 2, 2)
    assert cert is not None
    assert cert.level == 1
    assert cert.derived_constant == Fraction(1, 4)
    assert closure.at_level(1)


def test_find_cover_honest_failure():
    # The three corner translates of the k=2 subdivision miss the
    # barycenter (1/3, 1/3, 1/3): every offset has an entry 1/2 > 1/3,
    # so no refinement can help and the search must report failure.
    half = Fraction(1, 2)
    zero = Fraction(0)
    pool = [
        GoodTranslate(2, 2, 1, (half, zero, zero), 1, ("root",)),
        GoodTranslate(2, 2, 1, (zero, half, zero), 1, ("root",)),
        GoodTranslate(2, 2, 1, (zero, zero, half), 1, ("root",)),
    ]
    assert find_cover(2, 2, 1, translates=pool) is None


def test_scaled_simplex_cover_counts():
    for k in (1, 2, 3):
        for n in range(k + 1, 9):
            cover = scaled_simplex_cover(k, n)
            assert len(cover) == comb(n, k)
            for s in cover:
                assert relative_volume(s) == Fraction(k, n) ** k


def test_scaled_simplex_cover_matches_the_rational_construction():
    # The vertices (k e + v) / n, built from the standard simplex's
    # Fraction vertices, as the cover was built before it held integer rows.
    for k in (1, 2, 3):
        base = standard_simplex(k).vertices
        for n in range(k + 1, 7):
            want = tuple(
                simplex([[(k * c + s) / Fraction(n) for c, s in zip(e.coords, v)] for e in base])
                for v in enumerate_shifts(k, n - k)
            )
            assert scaled_simplex_cover(k, n) == want


def test_scaled_simplex_cover_k1_n2():
    cover = scaled_simplex_cover(1, 2)
    assert len(cover) == 2
    # each half contains its endpoint and the midpoint
    mid = bary_point([Fraction(1, 2), Fraction(1, 2)])
    for s in cover:
        assert contains(s, mid)


def test_scaled_simplex_cover_validation():
    with pytest.raises(ValueError):
        scaled_simplex_cover(2, 2)
    with pytest.raises(ValueError):
        scaled_simplex_cover(3, 3)


@pytest.mark.parametrize(
    "k, n, level",
    [(1, 2, 1), (1, 3, 1), (1, 4, 1), (2, 2, 1), (2, 3, 1), (3, 2, 1), (1, 2, 2)],
)
def test_coverage_masks_match_the_vertex_oracle(k, n, level):
    # A cell lies in a translate iff all its vertices do.
    pool = closure_good(k, n, level).at_level(level)
    for extra in range(MAX_REFINE + 1):
        resolution = n ** (level + extra)
        cells = subdivide(k, resolution)
        verts = [cell_vertices(cell) for cell in cells]
        for t, mask in zip(pool, coverage_masks(pool, cells, resolution), strict=True):
            oracle = sum(
                1 << idx
                for idx, vs in enumerate(verts)
                if all(t.contains_point(v) for v in vs)
            )
            assert mask == oracle, (t.offset, resolution)


# sha256 of the `cover --k K --n N --max-level L` output, recorded with the
# earlier certification that tested every cell vertex in Fraction arithmetic.
COVER_OUTPUTS = [
    (1, 2, 1, 0, "88dfddfc701ab3fc376162392c01937c548bc5a0e663013d6cfb452ffc5be364"),
    (1, 3, 1, 0, "1c35ebf6f06c0bdd0b18116523f5ac0c53163c9249d089d8740132053fabc1b5"),
    (1, 4, 1, 0, "4b2d24acf1da0a70197412a125b79a6fe671bac3789a89700101d967369845a0"),
    (2, 2, 1, 0, "983c8fb69184c1935d2563e1bee6d409701934b4539c43749ddccf4a621439c9"),
    (2, 3, 1, 0, "2a1f61e8b2f3e7078279a0f79cf9fb8fc19274649f4ff8b0e95a85356660cbd2"),
    (3, 2, 1, 2, "bc9c9ca587edffa3ff95baf348a0af95e141e2b4557da005a7f98a8cc90b2cd1"),
    (1, 2, 2, 0, "9fe46dccf0f7ae276c87dbf4f2763e80cddc2b3c8f649879beb50056a0b9fe88"),
    (2, 4, 1, 2, "3b9aa3efc9ef8a701815b14553e202dcd7aef5c2631cedcd2458594889a76069"),
    (3, 3, 1, 2, "f683d9ddd1adcf2e103210d0732af3485dbca68055e060063854701cb245b072"),
    (1, 3, 2, 0, "a09774b33276b893ae56737e590f017d9ef44f15ab8bbdc045dfc5ab61f93ffd"),
    (2, 2, 2, 0, "12e587cc94987d812801d424b9f87315587fb5e462210eaf0dc1ae4abfa63adb"),
    (2, 2, 3, 0, "f72ea1147e26f7f8bfeb49d0d5fc480dc398a024ae842afaef37acc991bed44d"),
]


@pytest.mark.parametrize("k, n, level, code, digest", COVER_OUTPUTS)
def test_cover_output_bytes_are_pinned(capsys, k, n, level, code, digest):
    assert main(["cover", "--k", str(k), "--n", str(n), "--max-level", str(level)]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
