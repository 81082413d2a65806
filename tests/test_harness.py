import json
import time
from fractions import Fraction

import pytest

import supconvex
from oracles import grid_representatives_scan, make_random_values
from supconvex import (
    SplitMix64,
    extremal_grid_report,
    function_digest,
    function_from_payload,
    function_payload,
    lattice,
    load_function,
    make_extremal,
    make_random,
    normalize_to_simplex_form,
    report_json,
    sampled_function,
    save_function,
    sharp_constant,
    subdivide,
    subdivision_svg,
    verify_nfold,
    verify_pair,
)
from supconvex.harness import RANDOM_DENOMINATOR

GOLDEN_RANDOM_DIGEST = (
    "6ac230f4e21d453efeb15c9f464a9946e29bfc86492f3306204b573705ed5491"
)

GOLDEN_EXTREMAL_REPORT = (
    '{"constant":"1/2","constant_kind":"sharp","k":1,"kind":"nfold",'
    '"lhs":"1/3","n":2,"provenance":{"f":"bfd71ff177a0c5fc9a1c72c2ddeed7'
    'aec047f3a70c5d481e06ffc56d7c161109","version":"0.1.0"},"ratio":"1",'
    '"resolution":2,"rhs":"1/3","tol_abs":"1/1000000000","tol_rel":"1/20",'
    '"verdict":"pass"}'
)

# verify_pair(make_random(2, 3, seed=1), make_random(2, 3, seed=2)).
GOLDEN_PAIR_REPORT = (
    '{"constant":"3/8","constant_kind":"sharp","k":2,"kind":"pair",'
    '"lhs":"367/1280","n":2,"provenance":{"f":"8a8a5fd8277d38ff392008afa4'
    '167865b7c37dd2de5e81fac0ad981782a171fd","g":"8d66f38a4fee1947a08b5caf'
    '4325309312e7997f3400d60ea67e35644acf4215","version":"0.1.0"},'
    '"ratio":"367/474","resolution":3,"rhs":"237/640","tol_abs":"1/1000000000",'
    '"tol_rel":"1/20","verdict":"pass"}'
)


def test_function_file_round_trip(tmp_path):
    f = make_random(2, 3, seed=42)
    path = tmp_path / "f.json"
    save_function(f, path)
    g = load_function(path)
    assert g.lattice == f.lattice
    assert list(g.values) == list(f.values)
    assert function_digest(g) == function_digest(f)


# function_digest of the k = 1, N = 3 function (1/2, -1/2, 0, 7), as
# the version that stored one Fraction per point wrote it.
GOLDEN_MIXED_DIGEST = "afd73a05ebd9dc1e0254480c3fca71ab09cfe8077ef479b5a5e7ec2a4e8f9b6e"


def test_representation_does_not_depend_on_how_a_function_was_built():
    lat = lattice(1, 3)
    rows = [[0, 3, 2, 4], [1, 2, -3, 6], [2, 1, 0, 5], [3, 0, 7, 1]]
    loaded = function_from_payload({"k": 1, "N": 3, "values": rows})
    built = sampled_function(lat, [Fraction(1, 2), Fraction(-1, 2), 0, 7])
    assert loaded == built and hash(loaded) == hash(built)
    assert (loaded.nums, loaded.den) == (built.nums, built.den) == ((1, -1, 0, 14), 2)
    assert loaded.values == built.values
    reduced = [[0, 3, 1, 2], [1, 2, -1, 2], [2, 1, 0, 1], [3, 0, 7, 1]]
    assert function_payload(loaded)["values"] == reduced
    assert function_digest(loaded) == function_digest(built) == GOLDEN_MIXED_DIGEST


def test_unreduced_rows_load_to_the_reduced_function():
    rows = [[0, 3, 2, 4], [1, 2, 1, 3], [2, 1, 0, 5], [3, 0, -14, 6]]
    reduced = [[0, 3, 1, 2], [1, 2, 1, 3], [2, 1, 0, 1], [3, 0, -7, 3]]
    loaded = function_from_payload({"k": 1, "N": 3, "values": rows})
    want = function_from_payload({"k": 1, "N": 3, "values": reduced})
    assert loaded == want
    assert (loaded.nums, loaded.den) == (want.nums, want.den) == ((3, 2, 0, -14), 6)
    assert function_payload(loaded)["values"] == reduced
    rng = SplitMix64(11)
    for seed in range(6):
        f = make_random(2, 5, seed=seed, roughness=Fraction(1, 2))
        doc = function_payload(f)
        for row in doc["values"]:
            factor = 1 + rng.next_below(6)
            row[-2:] = [row[-2] * factor, row[-1] * factor]
        g = function_from_payload(doc)
        assert g == f and (g.nums, g.den) == (f.nums, f.den)
        assert function_digest(g) == function_digest(f)


def test_payload_validation_rejects_bad_input():
    f = make_random(1, 2, seed=1)
    good = function_payload(f)

    bad = json.loads(json.dumps(good))
    bad["values"][0], bad["values"][1] = bad["values"][1], bad["values"][0]
    with pytest.raises(ValueError, match="out of order"):
        function_from_payload(bad)

    bad = json.loads(json.dumps(good))
    del bad["values"][0]
    with pytest.raises(ValueError, match="rows"):
        function_from_payload(bad)

    bad = json.loads(json.dumps(good))
    bad["values"][0][-1] = 0
    with pytest.raises(ValueError, match="denominator"):
        function_from_payload(bad)

    bad = json.loads(json.dumps(good))
    bad["values"][0][-2] = 1.5
    with pytest.raises(ValueError, match="integers"):
        function_from_payload(bad)

    bad = json.loads(json.dumps(good))
    bad["values"][0].append(7)
    with pytest.raises(ValueError, match="entries"):
        function_from_payload(bad)

    with pytest.raises(ValueError, match="missing"):
        function_from_payload({"k": 1, "N": 2})
    with pytest.raises(ValueError, match="object"):
        function_from_payload([1, 2, 3])
    with pytest.raises(ValueError, match="integers"):
        function_from_payload({"k": "1", "N": 2, "values": []})


def test_payload_rejects_bool_where_int_required():
    good = function_payload(make_random(1, 2, seed=1))
    for key in ("k", "N"):
        for value in (True, 1.0, "1", None):  # True == 1.0 == 1, so each could pass as 1
            bad = json.loads(json.dumps(good))
            bad[key] = value
            with pytest.raises(ValueError, match="k and N must be integers"):
                function_from_payload(bad)
    entries = [(0, 0, False), (1, -1, True), (1, -2, False)]
    # A float equal to the int it replaces; a string and None.
    for col in (0, -2, -1):  # a coordinate, the numerator, the denominator
        entries += [(1, col, float(good["values"][1][col])), (1, col, "1"), (1, col, None)]
    for row, col, value in entries:
        bad = json.loads(json.dumps(good))
        bad["values"][row][col] = value
        # A coordinate that is not equal to an int is out of order first.
        out_of_order = col == 0 and not isinstance(value, (int, float))
        message = "coordinates .* out of order" if out_of_order else f"row {row}: entries must be integers"
        with pytest.raises(ValueError, match=message):
            function_from_payload(bad)


@pytest.mark.parametrize(
    "doc",
    [
        {"k": 6, "N": 1000, "values": []},  # C(1006, 6) ~ 1.4e15 points
        {"k": 2, "N": 10**12, "values": [[0, 0, 10**12, 0, 1]]},
        {"k": 10**9, "N": 10**9, "values": []},
        {"k": 2, "N": 0, "values": []},
    ],
)
def test_payload_with_untrusted_sizes_fails_fast(doc):
    start = time.perf_counter()
    with pytest.raises(ValueError):
        function_from_payload(doc)
    assert time.perf_counter() - start < 1


def test_make_extremal_counts():
    f = make_extremal(3, 6)
    zeros = sum(1 for v in f.values if v == 0)
    minus = sum(1 for v in f.values if v == -1)
    assert zeros == 4
    assert minus == len(f.lattice) - 4 == 80


def test_make_random_deterministic_and_golden():
    f = make_random(2, 6, seed=1)
    g = make_random(2, 6, seed=1)
    assert list(f.values) == list(g.values)
    assert function_digest(f) == GOLDEN_RANDOM_DIGEST
    assert all(-1 <= v <= 0 for v in f.values)
    assert all(v * 64 == int(v * 64) for v in f.values)


def test_make_random_roughness():
    f = make_random(2, 6, seed=1, roughness=0)
    assert all(v == 0 for v in f.values)
    # roughness only gates values; the draw stream is consumed either
    # way, so the nonzero values of a rough function are a subset
    full = make_random(2, 6, seed=1, roughness=1)
    half = make_random(2, 6, seed=1, roughness="1/2")
    for hv, fv in zip(half.values, full.values):
        assert hv == fv or hv == 0
    assert any(hv != 0 for hv in half.values)
    assert any(hv == 0 and fv != 0 for hv, fv in zip(half.values, full.values))
    with pytest.raises(ValueError):
        make_random(1, 2, seed=1, roughness=2)


@pytest.mark.parametrize("roughness", [0, Fraction(1, 3), "0.5", 1])
def test_make_random_and_its_numerators_match_the_oracle(roughness):
    for k in range(1, 5):
        for resolution in range(1, 7):
            for seed in (0, 1, 7, 2024):
                lat = lattice(k, resolution)
                want = make_random_values(lat.int_points, resolution, seed, roughness)
                f = make_random(k, resolution, seed, roughness)
                assert f.lattice is lat
                assert list(f.values) == want
                assert all(type(v) is int for v in f.nums)
                assert RANDOM_DENOMINATOR % f.den == 0
                assert [Fraction(v, f.den) for v in f.nums] == want


def test_frozen_extremal_report():
    rep = verify_nfold(make_extremal(1, 2), 2)
    assert report_json(rep) == GOLDEN_EXTREMAL_REPORT
    # byte reproducibility
    assert report_json(verify_nfold(make_extremal(1, 2), 2)) == GOLDEN_EXTREMAL_REPORT
    # int tolerances are exact values too, written as rationals
    text = report_json(verify_nfold(make_extremal(1, 2), 2, 0, 1))
    assert '"tol_abs":"1","tol_rel":"0"' in text


def test_frozen_pair_report():
    f, g = make_random(2, 3, seed=1), make_random(2, 3, seed=2)
    assert report_json(verify_pair(f, g)) == GOLDEN_PAIR_REPORT


def test_degenerate_pass_for_constant_function():
    f = sampled_function(lattice(2, 3), [Fraction(2)] * 10)
    rep = verify_nfold(f, 2)
    assert rep.verdict == "pass-degenerate"
    assert rep.ratio is None
    assert rep.passed


def test_lattice_oscillation_fails_below_the_continuum_constant():
    # Documented behaviour, not a defect of the tolerance: lattice
    # witnesses cannot smooth an f that alternates at lattice scale, and
    # the ratio N / (3N - 4) tends to 1/3, not to c(1, 2) = 1/2.
    lat = lattice(1, 16)
    f = sampled_function(
        lat, [0] + [Fraction(-17, 22 if i % 2 else 11) for i in range(1, 16)] + [0]
    )
    rep = verify_nfold(f, 2)
    assert (rep.verdict, rep.ratio, rep.lhs, rep.rhs) == ("fail", Fraction(4, 11), Fraction(4, 11), 1)
    assert rep.constant == Fraction(1, 2)
    for resolution in range(4, 21, 2):
        values = [Fraction(-1, 2) if i % 2 else -1 for i in range(1, resolution)]
        alternating = sampled_function(lattice(1, resolution), [0] + values + [0])
        rep = verify_nfold(alternating, 2)
        assert rep.ratio == Fraction(resolution, 3 * resolution - 4)
        assert rep.verdict == ("pass" if resolution == 4 else "fail")


def test_verify_pair_failure_is_reported():
    # Adversarial pair: f's envelope gap is large but g is too negative
    # for the discrete witnesses to compensate at this resolution.
    lat = lattice(1, 2)
    f = sampled_function(lat, [0, -1, 0])
    g = sampled_function(lat, [-1, 0, -1])
    rep = verify_pair(f, g)
    assert rep.kind == "pair"
    assert rep.constant == Fraction(1, 2)
    assert rep.lhs == 0
    assert rep.rhs == Fraction(1, 3)
    assert rep.verdict == "fail"
    assert not rep.passed


def test_verify_pair_rejects_mismatched_lattices():
    f = make_random(2, 3, seed=1)
    with pytest.raises(ValueError, match="share a lattice"):
        verify_pair(f, make_random(2, 4, seed=1))


def test_verify_nfold_random_smoke():
    for i in range(20):
        f = make_random(2, 6, seed=7000 + i, roughness=1 if i % 2 else "2/3")
        rep = verify_nfold(f, 2)
        assert rep.passed, report_json(rep)


def test_nfold_report_is_invariant_under_affine_shift():
    # verify_nfold uses f as given, with nonzero vertex values; adding
    # an affine function, or normalising first, must not move lhs or rhs.
    rng = SplitMix64(31)
    lat = lattice(2, 4)
    f = sampled_function(
        lat, [Fraction(int(rng.next_below(21)) - 10, 4) for _ in lat.points]
    )
    a = (Fraction(3), Fraction(-5, 2), Fraction(1, 3))
    shifted = sampled_function(
        lat,
        [v + sum(c * x for c, x in zip(a, p.coords)) for v, p in zip(f.values, lat.points)],
    )
    for n in (2, 3):
        rep = verify_nfold(f, n)
        assert rep.rhs > 0
        for g in (shifted, normalize_to_simplex_form(f)):
            other = verify_nfold(g, n)
            assert (other.lhs, other.rhs) == (rep.lhs, rep.rhs)


def test_report_version_is_package_version():
    f = make_random(1, 3, seed=5)
    assert verify_nfold(f, 2).provenance["version"] == supconvex.__version__
    assert verify_pair(f, f).provenance["version"] == supconvex.__version__
    assert supconvex.__version__ == "0.1.0"


def test_extremal_grid_equalities():
    rep = extremal_grid_report(2, 2, 12)
    assert rep.ratio == Fraction(3, 8) == sharp_constant(2, 2)
    rep = extremal_grid_report(2, 4, 12)
    assert rep.ratio == Fraction(21, 32) == sharp_constant(2, 4)
    assert rep.rhs == 1
    assert len(rep.rows) == len(subdivide(2, 4))


def test_extremal_grid_missing_representative():
    # At resolution 4 the reversed cells of the n=2 subdivision contain
    # no strictly interior lattice point, so the pipeline must refuse.
    with pytest.raises(ValueError, match="representative"):
        extremal_grid_report(2, 2, 4)


@pytest.mark.parametrize("k, n, resolution", [(2, 3, 6), (3, 4, 12)])
def test_extremal_grid_multiples_of_lcm_can_miss_a_representative(k, n, resolution):
    # Both resolutions are multiples of lcm(1..max(n, k+1)), but N / n
    # < k + 1 leaves the level-1 cells without a strictly interior point.
    with pytest.raises(ValueError, match="no interior lattice representative"):
        extremal_grid_report(k, n, resolution)


def test_extremal_grid_at_n_times_k_plus_1():
    rep = extremal_grid_report(2, 3, 9)  # N / n = k + 1
    assert rep.ratio == Fraction(5, 9) == sharp_constant(2, 3)


def test_extremal_grid_k3_n4():
    # 969 lattice points, so its envelope sweep needs ENVELOPE_CAP >= 969.
    rep = extremal_grid_report(3, 4, 16)
    assert rep.ratio == Fraction(9, 16) == sharp_constant(3, 4)


@pytest.mark.parametrize(
    "k, n, resolutions",
    [(1, 2, (2, 3, 4, 5, 8)), (1, 3, (3, 6, 7, 9)), (1, 5, (5, 10, 11)),
     (2, 2, (4, 5, 6, 7, 10)), (2, 3, (6, 7, 9, 10, 12)), (2, 4, (8, 12, 13)),
     (3, 2, (4, 7, 8, 9)), (3, 3, (6, 9, 12, 13)), (3, 4, (12, 16))],
)
def test_grid_representatives_match_the_cell_scan(k, n, resolutions):
    found = missing = 0
    for resolution in resolutions:
        expected = grid_representatives_scan(k, n, resolution)
        if any(rep is None for _, _, rep in expected):
            with pytest.raises(ValueError, match="no interior lattice representative"):
                extremal_grid_report(k, n, resolution)
            missing += 1
            continue
        rows = extremal_grid_report(k, n, resolution).rows
        assert [row[:3] for row in rows] == expected
        found += 1
    assert found and missing


def test_subdivision_svg_counts():
    svg = subdivision_svg(4)
    assert svg.count('class="up"') == 10
    assert svg.count('class="down"') == 6
    svg = subdivision_svg(2)
    assert svg.count('class="up"') == 3
    assert svg.count('class="down"') == 1
    svg = subdivision_svg(1)
    assert svg.count('class="up"') == 1
    assert svg.count('class="down"') == 0
    assert svg.startswith("<svg") and svg.endswith("</svg>")
