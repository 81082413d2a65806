from fractions import Fraction
from itertools import permutations

import pytest

from oracles import best_sums_ordered, pair_bruteforce, supconv_bruteforce
from supconvex import (
    SplitMix64,
    concave_envelope,
    function_digest,
    function_from_payload,
    lattice,
    make_extremal,
    make_random,
    sampled_function,
    sup_convolve_n,
    sup_convolve_pair,
)
from supconvex import supconvolve
from supconvex.envelope import hull_candidates
from supconvex.supconvolve import _best_sums


def _func(k, resolution, values):
    return sampled_function(lattice(k, resolution), [Fraction(v) for v in values])


def test_n1_is_identity():
    f = make_random(2, 3, seed=5)
    assert sup_convolve_n(f, 1) is f


def test_extremal_k1_values():
    # f = 0 at the two endpoints, -1 in between; two witnesses can cover
    # any even point with endpoints, odd points need one interior copy.
    f = make_extremal(1, 4)
    conv = sup_convolve_n(f, 2)
    # int_points: (0,4),(1,3),(2,2),(3,1),(4,0)
    assert list(conv.values) == [
        Fraction(0),
        Fraction(-1, 2),
        Fraction(0),
        Fraction(-1, 2),
        Fraction(0),
    ]


def _mixed(k, resolution, seed):
    """Coprime denominators, large numerators, both signs, at every point
    including the vertices (where a witness sum reaches n*N)."""
    rng = SplitMix64(seed)
    pool = [
        Fraction(1, 3),
        Fraction(-5, 7),
        Fraction(11, 64),
        Fraction(10**12 + 1, 9),
        Fraction(-(10**15), 11),
        Fraction(2),
    ]
    lat = lattice(k, resolution)
    return sampled_function(lat, [pool[rng.next_below(len(pool))] for _ in lat.int_points])


def test_matches_bruteforce():
    # n = 5 and 6 put two or more functions in each half, and odd n grows
    # the right half by one more step; k = 3 at N = 4 or 5 with n = 3 or 2
    # (N not a multiple of n) makes the residue buckets uneven.
    cases = [
        (make_random(k, resolution, seed=10 * k + n), n)
        for k, resolution, n in (
            (1, 4, 2), (1, 4, 3), (2, 3, 2), (2, 3, 3), (2, 4, 2),
            (1, 4, 5), (1, 3, 6), (2, 3, 5), (2, 2, 6), (3, 4, 3),
        )
    ]
    cases += [
        (_mixed(k, resolution, seed=100 * k + n), n)
        for k, resolution, n in (
            (1, 5, 2), (1, 3, 4), (2, 3, 3), (2, 4, 4), (3, 2, 4), (3, 3, 3),
            (1, 5, 5), (2, 3, 6), (3, 5, 2), (3, 4, 3),
        )
    ]
    for f, n in cases:
        conv = sup_convolve_n(f, n)
        assert list(conv.values) == supconv_bruteforce(f, n)
        k, resolution = f.k, f.resolution
        # The last g equals f in value but is a distinct object.
        twin = sampled_function(f.lattice, list(f.values))
        for g in (_mixed(k, resolution, seed=7 + k), make_random(k, resolution, seed=n), twin):
            assert list(sup_convolve_pair(f, g).values) == pair_bruteforce(f, g)
            assert list(sup_convolve_pair(g, f).values) == pair_bruteforce(g, f)


def _numerators(rng, family, size):
    if family == "two-valued":  # ties everywhere
        return [rng.next_below(2) for _ in range(size)]
    if family == "negative":
        return [-rng.next_below(65) for _ in range(size)]
    # beyond 2**64, both signs
    return [(rng.next_u64() << 8) * (1 - 2 * rng.next_below(2)) + rng.next_below(3) for _ in range(size)]


def test_unordered_dp_matches_the_ordered_pair_dp():
    # m = 2..6 functions at k = 1..3, N both a multiple and not a
    # multiple of m; the lists are one object m times, distinct, or
    # equal in value but distinct objects (the pair form with g = f).
    rng = SplitMix64(91)
    cases = 0
    for k, sizes in ((1, (4, 7)), (2, (3, 4)), (3, (2, 3))):
        for resolution in sizes:
            lat = lattice(k, resolution)
            for m in range(2, 7):
                for family in ("two-valued", "negative", "large"):
                    one = _numerators(rng, family, len(lat))
                    for nums in (
                        [one] * m,
                        [_numerators(rng, family, len(lat)) for _ in range(m)],
                        [list(one) for _ in range(m)],
                    ):
                        assert _best_sums(lat, nums) == best_sums_ordered(lat.int_points, nums)
                        cases += 1
    assert cases == 3 * 2 * 5 * 3 * 3


def test_pair_of_equal_functions_matches_twofold():
    for seed in (3, 4):
        f = make_random(2, 3, seed=seed)
        assert list(sup_convolve_pair(f, f).values) == list(
            sup_convolve_n(f, 2).values
        )


def test_pair_of_equal_functions_builds_one_stage(monkeypatch):
    # For m = 2 both stages are the lattice itself; equal numerators
    # make them one stage joined with itself over unordered pairs.
    calls = []
    stage = supconvolve._stage

    def spy(nums, codes):
        calls.append(nums)
        return stage(nums, codes)

    monkeypatch.setattr(supconvolve, "_stage", spy)
    f = _mixed(2, 4, seed=5)
    twin = sampled_function(f.lattice, list(f.values))
    for g, stages in ((f, 1), (twin, 1), (make_random(2, 4, seed=5), 2)):
        calls.clear()
        assert list(sup_convolve_pair(f, g).values) == pair_bruteforce(f, g)
        assert len(calls) == stages


def test_pair_over_different_denominators_matches_bruteforce():
    rng = SplitMix64(33)
    for k, resolution in ((1, 5), (2, 4), (3, 2)):
        lat = lattice(k, resolution)
        thirds = sampled_function(lat, [Fraction(rng.next_below(7) - 3, 3) for _ in lat.points])
        sixtyfourths = sampled_function(lat, [Fraction(2 * rng.next_below(64) - 63, 64) for _ in lat.points])
        assert (thirds.den, sixtyfourths.den) == (3, 64)
        for f, g in ((thirds, sixtyfourths), (sixtyfourths, thirds)):
            assert list(sup_convolve_pair(f, g).values) == pair_bruteforce(f, g)


def test_kernels_never_build_the_rational_view():
    def load(seed, den):
        rng = SplitMix64(seed)
        rows = [[*p, rng.next_below(2 * den + 1) - den, den] for p in lattice(2, 4).int_points]
        return function_from_payload({"k": 2, "N": 4, "values": rows})

    f, g = load(1, 6), load(2, 64)
    made = [f, g, sup_convolve_n(f, 3), sup_convolve_pair(f, g), sup_convolve_pair(f, f)]
    for h in made:
        function_digest(h)
        hull_candidates(h)
    assert all("values" not in vars(h) for h in made)


def test_pair_examples():
    f = make_extremal(1, 2)
    conv = sup_convolve_pair(f, f)
    assert list(conv.values) == [0, 0, 0]

    g = _func(1, 2, [-1, -1, -1])
    conv = sup_convolve_pair(f, g)
    assert list(conv.values) == [Fraction(-1, 2)] * 3


def test_sandwich_between_function_and_envelope():
    for trial in range(12):
        k = 1 + trial % 2
        resolution = 2 + trial % 4
        n = 2 + trial % 2
        f = make_random(k, resolution, seed=2000 + trial)
        conv = sup_convolve_n(f, n)
        env = concave_envelope(f).values
        for v, c, e in zip(f.values, conv.values, env):
            assert v <= c <= e


def test_affine_equivariance():
    rng = SplitMix64(17)
    for trial in range(10):
        k = 1 + trial % 2
        resolution = 3
        n = 2 + trial % 2
        f = make_random(k, resolution, seed=2500 + trial)
        lat = f.lattice
        coeffs = [Fraction(rng.next_below(9)) - 4 for _ in range(k + 1)]
        shift = [
            sum(c * x for c, x in zip(coeffs, pt)) / resolution
            for pt in lat.int_points
        ]
        g = sampled_function(lat, [v + s for v, s in zip(f.values, shift)])
        conv_f = sup_convolve_n(f, n).values
        conv_g = sup_convolve_n(g, n).values
        assert all(b == a + s for a, b, s in zip(conv_f, conv_g, shift))


def test_positive_scaling():
    f = make_random(2, 3, seed=31)
    lat = f.lattice
    conv = sup_convolve_n(f, 2).values
    for lam in (Fraction(0), Fraction(1, 2), Fraction(2), Fraction(7, 3)):
        g = sampled_function(lat, [lam * v for v in f.values])
        scaled = sup_convolve_n(g, 2).values
        assert all(s == lam * c for s, c in zip(scaled, conv))


def test_coordinate_permutation_symmetry():
    f = make_random(2, 3, seed=47)
    lat = f.lattice
    conv = sup_convolve_n(f, 2)
    for perm in permutations(range(3)):
        permuted = sampled_function(
            lat,
            [
                f.value_at(tuple(pt[perm[i]] for i in range(3)))
                for pt in lat.int_points
            ],
        )
        conv_p = sup_convolve_n(permuted, 2)
        for pt in lat.int_points:
            assert conv_p.value_at(pt) == conv.value_at(
                tuple(pt[perm[i]] for i in range(3))
            )


def test_bad_inputs():
    f = make_random(1, 2, seed=1)
    g = make_random(1, 3, seed=1)
    with pytest.raises(ValueError):
        sup_convolve_pair(f, g)
    with pytest.raises(ValueError):
        sup_convolve_n(f, 0)
    with pytest.raises(ValueError, match="DP steps"):
        sup_convolve_n(f, 10**6)
