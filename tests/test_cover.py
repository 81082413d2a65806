import hashlib
import random
from fractions import Fraction
from math import comb

import pytest

from oracles import fraction_closure, fraction_find_cover
from supconvex import (
    GoodTranslate,
    SubdivisionCell,
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
from supconvex.subdivision import cell_keys


def _offset(t):
    return tuple(Fraction(o, t.den) for o in t.offset)


def test_closure_k1_n2_level1():
    closure = closure_good(1, 2, 1)
    assert not closure.truncated
    by_offset = {_offset(t): t.constant for t in closure.at_level(1)}
    half = Fraction(1, 2)
    quarter = Fraction(1, 4)
    # the corners and the first blend round's midpoint
    assert {
        (half, Fraction(0)): 1,
        (Fraction(0), half): 1,
        (quarter, quarter): 2,
    }.items() <= by_offset.items()
    # a second blend round mixes the midpoint back with the corners
    assert by_offset[(Fraction(1, 8), Fraction(3, 8))] == Fraction(5, 2)
    assert by_offset[(Fraction(3, 8), Fraction(1, 8))] == Fraction(5, 2)


def test_closure_k2_n2_level1():
    closure = closure_good(2, 2, 1)
    level1 = closure.at_level(1)
    corners = [t for t in level1 if t.constant == 1]
    blends = [t for t in level1 if t.constant == 2]
    assert len(corners) == 3
    assert len(blends) == 3
    half = Fraction(1, 2)
    assert {_offset(t) for t in corners} == {
        (half, 0, 0),
        (0, half, 0),
        (0, 0, half),
    }
    quarter = Fraction(1, 4)
    assert {_offset(t) for t in blends} == {
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
    # Level-1 offsets at n = 2 are numerators over den = 8.
    with pytest.raises(ValueError):
        GoodTranslate(1, 2, 1, (-2, 6), 1, ("root",))  # (-1/4, 3/4)
    with pytest.raises(ValueError):
        GoodTranslate(1, 2, 1, (2, 4), 1, ("root",))  # (1/4, 1/2)


def test_thresholds():
    t = GoodTranslate(1, 2, 1, (4, 0), 1, ("root",))  # offset (1/2, 0)
    assert t.den == 8

    def inside(coords, resolution):
        return all(c >= m for c, m in zip(coords, t.thresholds(resolution)))

    assert inside((3, 1), 4)  # (3/4, 1/4)
    assert inside((1, 0), 1)  # the vertex (1, 0)
    assert not inside((1, 3), 4)  # (1/4, 3/4)
    assert t.thresholds(3) == (2, 0)  # ceil(3/2)


def test_replay_rejects_a_third_nested_blend():
    # Over den = 8 the corners of k = 1, n = 2 are (4, 0) and (0, 4); two
    # nested blends give (3, 1), and a third would need (3/16, 5/16).
    c0 = ("corner", 0, ("root",))
    c1 = ("corner", 1, ("root",))
    twice = ("blend", ("blend", c0, c1), c0)
    assert replay_derivation(1, 2, twice).offset == (3, 1)
    with pytest.raises(ValueError):
        replay_derivation(1, 2, ("blend", twice, c1))
    # Nested level-0 blends keep the offset 0, but the constant
    # 1 + 1/2 is not a multiple of that level's constant denominator 1.
    root = ("root",)
    with pytest.raises(ValueError):
        replay_derivation(1, 2, ("blend", ("blend", root, root), root))


def test_integer_cover_matches_the_fraction_oracles(monkeypatch):
    # The resolutions find_cover subdivides at show where it stopped, so a
    # proof that rejects a pool early is checked, not only its None.
    resolutions = []

    def cell_keys_at(k, resolution):
        resolutions.append(resolution)
        return cell_keys(k, resolution)

    monkeypatch.setattr("supconvex.cover.cell_keys", cell_keys_at)
    rng = random.Random(22)
    outcomes = set()
    refined = 0
    for k in (1, 2, 3):
        for n in (2, 3, 4):
            for level in (1, 2):
                budget = rng.choice((20, 60, 150))
                closure = closure_good(k, n, level, budget=budget)
                want, truncated = fraction_closure(k, n, level, budget=budget)
                assert [(t.level, _offset(t), t.constant) for t in closure.translates] == want
                assert closure.truncated == truncated
                pool = closure.at_level(level)
                if not pool:
                    continue
                oracle_pool = [(o, c) for lv, o, c in want if lv == level]
                picks = [range(len(pool))] + [
                    sorted(rng.sample(range(len(pool)), rng.randint(1, len(pool))))
                    for _ in range(2)
                ]
                for idx in picks:
                    resolutions.clear()
                    cert = find_cover(k, n, level, translates=[pool[i] for i in idx])
                    outcome, resolution, want_cert = fraction_find_cover(
                        k, n, level, [oracle_pool[i] for i in idx]
                    )
                    outcomes.add(outcome)
                    assert resolutions[-1] == resolution, (k, n, level, idx)
                    assert (cert is not None) == (outcome == "cover"), (k, n, level, idx)
                    if cert is not None:
                        chosen, total, derived = want_cert
                        assert [(_offset(t), t.constant) for t in cert.family] == chosen
                        assert cert.cert_resolution == resolution
                        assert (cert.sum_constants, cert.derived_constant) == (total, derived)
                        refined += resolution > n**level
    assert {"cover", "uncoverable", "too-many"} <= outcomes
    assert refined


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
    # The offsets are numerators over den = 8.
    pool = [
        GoodTranslate(2, 2, 1, (4, 0, 0), 1, ("root",)),
        GoodTranslate(2, 2, 1, (0, 4, 0), 1, ("root",)),
        GoodTranslate(2, 2, 1, (0, 0, 4), 1, ("root",)),
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
        keys = cell_keys(k, resolution)
        assert keys == [(cell.m, cell.shift) for cell in cells]
        verts = [cell_vertices(cell) for cell in cells]
        for t, mask in zip(pool, coverage_masks(pool, keys, resolution), strict=True):
            oracle = sum(
                1 << idx
                for idx, vs in enumerate(verts)
                if all(c >= o for v in vs for c, o in zip(v.coords, _offset(t)))
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


def test_closure_builds_one_translate_per_kept_offset(monkeypatch):
    # Candidates are integer pairs; a GoodTranslate is made, and
    # validated, only for each offset the closure returns.
    built = []
    post_init = GoodTranslate.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(GoodTranslate, "__post_init__", counted)
    for k, n, level, budget in ((1, 2, 2, 4000), (2, 3, 1, 4000), (2, 2, 2, 60), (3, 2, 1, 4000)):
        built.clear()
        closure = closure_good(k, n, level, budget=budget)
        assert len(built) == len(closure.translates), (k, n, level, budget)
    assert closure_good(2, 2, 2, budget=60).truncated


def test_find_cover_builds_no_subdivision_cell(monkeypatch):
    # The search reads the cells' (m, shift) keys alone, also where it
    # refines and where it proves a cell uncoverable.
    def refused(self, *args, **kwargs):
        raise AssertionError("find_cover built a SubdivisionCell")

    monkeypatch.setattr(SubdivisionCell, "__init__", refused)
    assert find_cover(2, 3, 1).cert_resolution == 27
    assert find_cover(2, 2, 1).cert_resolution == 4
    assert find_cover(3, 3, 1) is None
    corners = [GoodTranslate(2, 2, 1, o, 1, ("root",)) for o in ((4, 0, 0), (0, 4, 0), (0, 0, 4))]
    assert find_cover(2, 2, 1, translates=corners) is None
