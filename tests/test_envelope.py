import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from oracles import (
    dual_simplex_bland,
    earlier_neighbours,
    envelope_bruteforce,
    envelope_full_sweep,
    envelope_sweep_by_solves,
    midpoint_triples,
    normalize_by_envelope,
)
from supconvex import (
    SampledFunction,
    SplitMix64,
    concave_envelope,
    envelope_values,
    evaluate_certificate,
    extremal_grid_report,
    lattice,
    load_function,
    make_extremal,
    make_random,
    normalize_to_simplex_form,
    sampled_function,
    save_function,
    scaled_simplex_cover,
    verify_nfold,
    verify_pair,
)
from supconvex.envelope import _neighbours, hull_candidates
from supconvex.exactlp import ExactSimplexSolver


def _func(k, resolution, values):
    return sampled_function(lattice(k, resolution), [Fraction(v) for v in values])


def test_constant_function_is_its_own_envelope():
    f = _func(1, 4, [3] * 5)
    res = concave_envelope(f)
    assert res.values == f.values


def test_single_dip_filled_in():
    # k=1, N=2, f = (0, -1, 0): envelope lifts the midpoint to 0.
    f = _func(1, 2, [0, -1, 0])
    res = concave_envelope(f)
    assert list(res.values) == [0, 0, 0]
    # midpoint certificate mixes the two endpoints (indices 0 and 2) equally
    cert = res.certificates[1]
    assert dict(cert) == {0: Fraction(1, 2), 2: Fraction(1, 2)}


def test_matches_bruteforce_k1():
    rng = SplitMix64(7)
    for resolution in (2, 3, 4, 5, 6):
        f = _func(
            1,
            resolution,
            [-Fraction(rng.next_below(9), 4) for _ in range(resolution + 1)],
        )
        assert list(concave_envelope(f).values) == envelope_bruteforce(f)


def test_matches_bruteforce_k2():
    for seed in (11, 12):
        f = make_random(2, 4, seed=seed)
        assert list(concave_envelope(f).values) == envelope_bruteforce(f)
    f = make_random(2, 6, seed=13)
    assert list(concave_envelope(f).values) == envelope_bruteforce(f)


def _general(k, resolution, seed):
    """Seeded general function, unlike make_random's normal form: nonzero
    vertex values (an affine part) plus either a concave bump with noise
    (even seeds) or a noisy floor with random spikes (odd seeds), over
    denominators 1 to 7.  Its envelope lies above the vertex plane, so
    the warm-started envelope LP pivots."""
    rng = SplitMix64(seed)

    def draw(lo, hi):
        return lo + rng.next_below(hi - lo + 1)

    verts = [Fraction((-1) ** draw(0, 1) * draw(1, 8), draw(1, 5)) for _ in range(k + 1)]
    height = Fraction(draw(2, 9), draw(1, 3))
    lat = lattice(k, resolution)
    values = []
    for ints in lat.int_points:
        z = [Fraction(c, resolution) for c in ints]
        value = sum(a * zi for a, zi in zip(verts, z))
        if resolution not in ints:
            noise = Fraction(draw(0, 6), draw(1, 7))
            if seed % 2 == 0:
                value += height * sum(zi * (1 - zi) for zi in z) - noise
            elif rng.next_below(4) == 0:
                value += 4 * noise + 1
            else:
                value -= noise
        values.append(value)
    return sampled_function(lat, values)


def _sweep_points(monkeypatch):
    """Per lattice point of every ExactSimplexSolver.sweep: its rhs, the
    basis handed in (the sweep's start, then the basis proved at the
    point before), the basis proved there, the simplex routines run for
    it and their pivots as (row, entering).  No routine runs where a
    proved basis holds, so nothing is priced there.  The first point's
    routines are those of its solve; a later point's dual run is the
    one whose xb the sweep returns for it."""
    points, runs, first = [], [], []
    sweep, solve, pivot = ExactSimplexSolver.sweep, ExactSimplexSolver.solve, ExactSimplexSolver._pivot

    def spy(name, fn):
        def wrapped(self, *args):
            runs.append((name, None if name == "_two_phase" else args[2], []))
            return fn(self, *args)

        return wrapped

    for name in ("_primal", "_dual", "_two_phase"):
        monkeypatch.setattr(ExactSimplexSolver, name, spy(name, getattr(ExactSimplexSolver, name)))

    def pivot_spy(*args):
        runs[-1][2].append((args[4], args[6]))
        return pivot(*args)

    def solve_spy(self, rhs, basis=None):
        sol = solve(self, rhs, basis)
        first.append(len(runs))
        return sol

    def sweep_spy(self, rhs_list, basis, near=None):
        runs.clear()
        first.clear()
        results = sweep(self, rhs_list, basis, near)
        later = {id(run[1]): run for run in runs[first[0]:]}
        handed = tuple(basis)
        for i, (rhs, ((proved, _, _), xb)) in enumerate(zip(rhs_list, results)):
            mine = runs[: first[0]] if i == 0 else [later[id(xb)]] if id(xb) in later else []
            points.append(
                {
                    "rhs": rhs,
                    "basis": handed,
                    "proved": proved,
                    "routines": [name for name, _, _ in mine],
                    "pivots": [p for _, _, made in mine for p in made],
                }
            )
            handed = proved
        assert len(later) == len(runs) - first[0]  # every later run repaired one point
        return results

    monkeypatch.setattr(ExactSimplexSolver, "_pivot", staticmethod(pivot_spy))
    monkeypatch.setattr(ExactSimplexSolver, "solve", solve_spy)
    monkeypatch.setattr(ExactSimplexSolver, "sweep", sweep_spy)
    return points


@pytest.mark.parametrize(
    "k, resolution, seeds", [(2, 3, (1, 2)), (2, 4, (3, 4)), (2, 5, (5,)), (3, 2, (7, 8)), (3, 3, (9,))]
)
def test_general_family_matches_bruteforce_and_pivots(monkeypatch, k, resolution, seeds):
    points = _sweep_points(monkeypatch)
    for seed in seeds:
        f = _general(k, resolution, seed)
        res = concave_envelope(f)
        assert list(res.values) == envelope_bruteforce(f)
        assert all(f.values[i] != 0 for i in f.lattice.vertex_indices())
        assert len({v.denominator for v in f.values}) > 2
        for i, p in enumerate(f.lattice.points):
            point, value, total = evaluate_certificate(res, i)
            assert (point, value, total) == (p, res.values[i], 1)
    solves = [point["routines"] for point in points]
    assert any("_dual" in routines for routines in solves)
    assert [] in solves  # a kept basis, feasible again, skips pricing


def test_warm_general_sweeps_dual_runs_match_the_oracle_and_never_price_in_full(monkeypatch):
    # Every point of a sweep after the first starts from the basis the
    # solver last proved optimal, so its dual simplex skips the full
    # dual-feasibility pass; its pivots, replayed or computed, match the
    # Fraction oracle's.  The solver sees the hull candidates only; the
    # oracle sees every lattice column, with basis and entering positions
    # mapped back.
    priced, solvers = [], []
    init, reduced_costs = ExactSimplexSolver.__init__, ExactSimplexSolver._reduced_costs

    def init_spy(self, columns, objective):
        solvers.append(columns)
        init(self, columns, objective)

    def reduced_spy(self, *args):
        priced.append(sys._getframe(1).f_code.co_name)
        return reduced_costs(self, *args)

    monkeypatch.setattr(ExactSimplexSolver, "__init__", init_spy)
    monkeypatch.setattr(ExactSimplexSolver, "_reduced_costs", reduced_spy)
    runs = _sweep_points(monkeypatch)
    duals = pivots = 0
    for k, resolution, seed in ((2, 6, 1), (2, 6, 2), (3, 4, 3), (3, 4, 4)):
        f = _general(k, resolution, seed)
        runs.clear()
        res = concave_envelope(f)
        kept = [f.lattice.index(column) for column in solvers[-1]]
        assert len(kept) < len(f.lattice)
        for run, value in zip(runs, res.values):
            if "_dual" in run["routines"]:
                basis = [kept[c] for c in run["basis"]]
                expected = dual_simplex_bland(f.lattice.int_points, f.values, run["rhs"], basis)
                mapped = [(row, kept[c]) for row, c in run["pivots"]]
                assert expected[:2] == ("optimal", mapped) and expected[4] == value
                duals += 1
                pivots += len(run["pivots"])
    assert duals >= 40 and pivots >= 90, (duals, pivots)
    assert set(priced) == {"_primal"}  # the spy sees the primal simplex price


# (k, N) per family of the prune tests: k = 1..4, several N each.
_PRUNE_SIZES = ((1, 2), (1, 5), (1, 9), (1, 16), (2, 3), (2, 6), (2, 8), (3, 2), (3, 4), (3, 5), (4, 2), (4, 3))


def _ties(k, resolution, seed):
    """Degenerate ties: values in {-1, 0, 1} (even seeds), or a concave
    min of two integer affine functions plus a 0/1 bump (odd seeds)."""
    rng = SplitMix64(seed)
    lat = lattice(k, resolution)
    if seed % 2 == 0:
        return sampled_function(lat, [rng.next_below(3) - 1 for _ in lat.int_points])
    return sampled_function(
        lat, [min(p[0] - p[1], p[1] + 2 * p[-1] - resolution) + rng.next_below(2) for p in lat.int_points]
    )


_PRUNE_FAMILIES = {
    "general": _general,
    "make_random": lambda k, resolution, seed: make_random(k, resolution, seed=seed, roughness=Fraction(seed % 4 + 1, 4)),
    "normalised": lambda k, resolution, seed: normalize_to_simplex_form(_general(k, resolution, seed)),
    "extremal": lambda k, resolution, seed: make_extremal(k, resolution),
    "ties": _ties,
}


def _midpoint_dropped(f):
    """Lattice indices failing the midpoint test, straight from the
    Fraction values and the coordinate tuples."""
    index = {p: i for i, p in enumerate(f.lattice.int_points)}
    dropped = set()
    for i, p in enumerate(f.lattice.int_points):
        for a in range(len(p)):
            for b in range(len(p)):
                hi = tuple(x + (t == a) - (t == b) for t, x in enumerate(p))
                lo = tuple(x - (t == a) + (t == b) for t, x in enumerate(p))
                if a != b and hi in index and lo in index:
                    if 2 * f.values[i] < f.values[index[hi]] + f.values[index[lo]]:
                        dropped.add(i)
    return dropped


@pytest.mark.parametrize("family", sorted(_PRUNE_FAMILIES))
def test_pruned_sweep_matches_the_full_sweep_byte_for_byte(family):
    dropped = total = 0
    for k, resolution in _PRUNE_SIZES:
        for seed in range(1, 5):
            f = _PRUNE_FAMILIES[family](k, resolution, seed)
            res = concave_envelope(f)
            assert repr((res.values, res.certificates)) == repr(envelope_full_sweep(f))
            dropped += len(f.lattice) - len(hull_candidates(f))
            total += len(f.lattice)
    assert 0 < dropped < total  # the prune bites on every family


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_one_move_table_gives_both_tables_it_replaced(k):
    for resolution in range(1, 7):
        lat = lattice(k, resolution)
        near, triples = _neighbours(lat)
        assert near == earlier_neighbours(lat)
        assert len(set(triples)) == len(triples)
        assert set(triples) == set(midpoint_triples(lat))
        assert _neighbours(lat) is _neighbours(lattice(k, resolution))  # built once


def _check_prune(f):
    res = concave_envelope(f)
    kept = hull_candidates(f)
    dropped = set(range(len(f.lattice))) - set(kept)
    assert kept == sorted(kept) and dropped == _midpoint_dropped(f)
    assert set(f.lattice.vertex_indices()) <= set(kept)
    for i in dropped:
        assert res.values[i] > f.values[i]
    assert not dropped & {j for cert in res.certificates for j, _ in cert}
    # The envelope passes every midpoint test, so its sweep drops nothing.
    assert hull_candidates(res.envelope) == list(range(len(f.lattice)))


def test_dropped_points_lie_strictly_below_the_envelope_and_support_nothing():
    for family in _PRUNE_FAMILIES.values():
        for k, resolution in _PRUNE_SIZES[::2]:
            for seed in (1, 2):
                _check_prune(family(k, resolution, seed))


def test_idempotent():
    for trial in range(50):
        k = 1 + trial % 2
        resolution = 2 + trial % 7
        f = make_random(k, resolution, seed=300 + trial)
        once = concave_envelope(f).envelope
        twice = concave_envelope(once)
        assert list(twice.values) == list(once.values)


def test_affine_equivariance():
    # env(f + a) == env(f) + a for affine a; check with random affine shifts.
    rng = SplitMix64(41)
    for trial in range(50):
        k = 1 + trial % 2
        resolution = 2 + trial % 5
        f = make_random(k, resolution, seed=600 + trial)
        coeffs = [Fraction(rng.next_below(7)) - 3 for _ in range(k + 1)]
        lat = f.lattice
        shift = [
            sum(c * x for c, x in zip(coeffs, pt)) / resolution
            for pt in lat.int_points
        ]
        g = sampled_function(lat, [v + s for v, s in zip(f.values, shift)])
        env_f = concave_envelope(f).values
        env_g = concave_envelope(g).values
        assert all(b == a + s for a, b, s in zip(env_f, env_g, shift))


def test_envelope_dominates_and_is_concave_on_lines():
    f = make_random(2, 4, seed=77)
    env = concave_envelope(f).values
    lat = f.lattice
    assert all(e >= v for e, v in zip(env, f.values))
    # midpoint concavity along every aligned collinear triple
    idx = {pt: i for i, pt in enumerate(lat.int_points)}
    for pt in lat.int_points:
        for d in ((2, -2, 0), (2, 0, -2), (0, 2, -2), (2, -1, -1), (-1, 2, -1), (-1, -1, 2)):
            lo = tuple(a - b for a, b in zip(pt, d))
            hi = tuple(a + b for a, b in zip(pt, d))
            if lo in idx and hi in idx:
                assert env[idx[pt]] >= (env[idx[lo]] + env[idx[hi]]) / 2


def test_concave_input_fixed():
    # min of two affine functions is concave; envelope must not move it.
    lat = lattice(2, 4)
    vals = [
        min(Fraction(a, 4), Fraction(2 * b + c, 8))
        for (a, b, c) in lat.int_points
    ]
    f = sampled_function(lat, vals)
    assert list(concave_envelope(f).values) == vals


def test_certificates_reconstruct():
    f = make_random(2, 5, seed=99)
    res = concave_envelope(f)
    lat = f.lattice
    for i in range(len(lat)):
        cert = res.certificates[i]
        assert 1 <= len(cert) <= 3  # at most k+1 support points
        point, value, total = evaluate_certificate(res, i)
        assert total == 1
        assert tuple(point) == lat.points[i].coords
        assert value == res.values[i]


def test_normalize_examples():
    f = _func(1, 2, [0, -1, 0])
    g = normalize_to_simplex_form(f)
    assert list(g.values) == [0, -1, 0]

    f = _func(1, 2, [2, 3, 6])
    g = normalize_to_simplex_form(f)
    assert list(g.values) == [0, -1, 0]

    # non-affine envelope: vertex values still pinned to zero
    f = _func(1, 4, [0, 5, 0, 0, 0])
    g = normalize_to_simplex_form(f)
    assert g.values[0] == 0 and g.values[-1] == 0


def test_normalize_idempotent():
    for trial in range(20):
        f = make_random(2, 3, seed=900 + trial)
        g = normalize_to_simplex_form(f)
        h = normalize_to_simplex_form(g)
        assert list(g.values) == list(h.values)


@st.composite
def small_functions(draw):
    k = draw(st.integers(min_value=1, max_value=2))
    resolution = draw(st.integers(min_value=1, max_value=3))
    lat = lattice(k, resolution)
    vals = draw(
        st.lists(
            st.fractions(min_value=-3, max_value=3, max_denominator=4),
            min_size=len(lat.points),
            max_size=len(lat.points),
        )
    )
    return sampled_function(lat, vals)


@settings(max_examples=30, deadline=None)
@given(small_functions())
def test_envelope_properties_hypothesis(f):
    res = concave_envelope(f)
    env = res.values
    assert all(e >= v for e, v in zip(env, f.values))
    # vertices of the simplex cannot be lifted: they are extreme points
    for vi in f.lattice.vertex_indices():
        assert env[vi] == f.values[vi]
    again = concave_envelope(res.envelope)
    assert list(again.values) == list(env)
    _check_prune(f)


def test_length_mismatch_raises():
    with pytest.raises(ValueError):
        sampled_function(lattice(1, 2), [Fraction(0)] * 2)


def test_sampled_function_checks_its_entries_and_reduces_them():
    lat = lattice(1, 2)
    for den in (0, -4, True, 2.0, Fraction(2)):
        with pytest.raises(ValueError, match=re.escape(f"denominator must be a positive int, got {den!r}")):
            SampledFunction(lat, (0, 1, 2), den)
    for bad, shown in ((True, "True"), (1.0, "1.0"), (Fraction(1, 2), "Fraction")):
        with pytest.raises(TypeError, match=f"numerator 1 must be an int, got {shown}"):
            SampledFunction(lat, (0, bad, 2), 4)
    with pytest.raises(ValueError, match="2 values for 3 lattice points"):
        SampledFunction(lat, (0, 1), 4)
    # Lowest terms: the sign lives on the numerators, zero is 0/1.
    f = SampledFunction(lat, [6, -4, 2], 8)
    assert (f.nums, f.den) == ((3, -2, 1), 4)
    assert f.values == (Fraction(3, 4), Fraction(-1, 2), Fraction(1, 4))
    assert f == SampledFunction(lat, (3, -2, 1), 4)
    zero = SampledFunction(lat, (0, 0, 0), 7)
    assert (zero.nums, zero.den) == ((0, 0, 0), 1)


def _benchmark_normalised(k, resolution, seed):
    """The benchmark's normalised family: 0 at the vertices, -j/64 with
    j uniform in 0..64 elsewhere."""
    rng = SplitMix64(seed)
    lat = lattice(k, resolution)
    return SampledFunction(lat, [0 if resolution in p else -rng.next_below(65) for p in lat.int_points], 64)


def _touching(k, resolution, seed):
    """A nonzero vertex plane minus make_random at roughness 1/2, so f
    equals the plane at about half of the interior points."""
    rng = SplitMix64(seed)
    verts = [Fraction(rng.next_below(17) - 8, rng.next_below(5) + 1) for _ in range(k + 1)]
    g = make_random(k, resolution, seed=seed, roughness=Fraction(1, 2))
    plane = [sum(a * Fraction(c, resolution) for a, c in zip(verts, p)) for p in g.lattice.int_points]
    return sampled_function(g.lattice, [a + v for a, v in zip(plane, g.values)])


_AFFINE_FAMILIES = {
    "make_random": lambda k, resolution, seed: make_random(k, resolution, seed=seed, roughness=Fraction(seed % 4 + 1, 4)),
    "extremal": lambda k, resolution, seed: make_extremal(k, resolution),
    "benchmark_normalised": _benchmark_normalised,
    "touching": _touching,
}


def _spy_solvers(monkeypatch):
    built = []
    init = ExactSimplexSolver.__init__

    def init_spy(self, columns, objective):
        built.append(len(columns))
        init(self, columns, objective)

    monkeypatch.setattr(ExactSimplexSolver, "__init__", init_spy)
    return built


@pytest.mark.parametrize("family", sorted(_AFFINE_FAMILIES))
def test_affine_envelopes_skip_the_solver_and_match_the_full_sweep(monkeypatch, family):
    # f <= its vertex plane A everywhere, so env = A: the sweep's vertex
    # basis never pivots, and the integer test returns the same values
    # and certificates without building a solver.
    built = _spy_solvers(monkeypatch)
    touched = 0
    for k, resolution in _PRUNE_SIZES + ((2, 10), (3, 8)):
        for seed in (1, 2, 3):
            f = _AFFINE_FAMILIES[family](k, resolution, seed)
            res = concave_envelope(f)
            assert built == []
            assert repr((res.values, res.certificates)) == repr(envelope_full_sweep(f))
            interior = [i for i, p in enumerate(f.lattice.int_points) if resolution not in p]
            touched += sum(res.values[i] == f.values[i] for i in interior)
            built.clear()  # the oracle's own solver
    if family == "touching":
        assert touched > 0


def test_one_point_above_the_vertex_plane_falls_back_to_the_sweep(monkeypatch):
    built = _spy_solvers(monkeypatch)
    for k, resolution in ((1, 5), (2, 6), (3, 4)):
        f = _touching(k, resolution, 2)
        plane = concave_envelope(f).values
        on_plane = [
            i for i, p in enumerate(f.lattice.int_points) if resolution not in p and plane[i] == f.values[i]
        ]
        nums = list(f.nums)
        nums[on_plane[-1]] += 1  # one unit of 1/den above the plane
        g = SampledFunction(f.lattice, nums, f.den)
        assert g.values[on_plane[-1]] == f.values[on_plane[-1]] + Fraction(1, f.den)
        built.clear()
        res = concave_envelope(g)
        assert len(built) == 1
        assert res.values[on_plane[-1]] == g.values[on_plane[-1]]
        assert repr((res.values, res.certificates)) == repr(envelope_full_sweep(g))


def test_rationals_stay_at_the_boundary(monkeypatch):
    # Reports, the DP and the envelope read numerators: on the pivoting
    # path and on the affine one, no input's rational view is made.
    built = _spy_solvers(monkeypatch)
    for f, g, solvers in (
        (_general(2, 5, 1), _general(2, 5, 2), 2),
        (make_random(2, 5, seed=1), _benchmark_normalised(2, 5, 2), 0),
    ):
        built.clear()
        verify_nfold(f, 3)
        verify_pair(f, g)
        assert len(built) == solvers  # one sweep per report, or none
        assert "values" not in vars(f) and "values" not in vars(g)
    # The envelope is the full sweep's values, as a sampled function.
    for family in _PRUNE_FAMILIES.values():
        for k, resolution in _PRUNE_SIZES:
            for seed in (1, 2):
                f = family(k, resolution, seed)
                env = concave_envelope(f).envelope
                assert env == sampled_function(f.lattice, envelope_full_sweep(f)[0])


def test_no_kernel_reads_the_lattice_points(tmp_path):
    # Lattices hold integer points; their rational view is made only on
    # demand, and no pipeline asks for it.
    lattice.cache_clear()
    lats = [lattice(2, 5), lattice(2, 6), lattice(2, 8)]
    save_function(_general(2, 5, 1), tmp_path / "f.json")
    f = load_function(tmp_path / "f.json")
    g, h = _general(2, 5, 2), make_random(2, 5, seed=1)
    verify_nfold(f, 3)
    verify_pair(f, g)
    for func in (f, h):  # the sweep, and the affine path
        res = concave_envelope(func)
        for i in range(len(func.lattice)):
            evaluate_certificate(res, i)
    normalize_to_simplex_form(f)
    extremal_grid_report(2, 2, 6)
    scaled_simplex_cover(2, 4)
    assert f.lattice is lats[0]
    for lat in lats:
        assert lattice(lat.k, lat.resolution) is lat  # the one the kernels used
        assert "points" not in vars(lat)


def test_normalize_matches_the_envelope_route_without_a_solver(monkeypatch):
    built = _spy_solvers(monkeypatch)
    for k, resolution in _PRUNE_SIZES:
        for seed in range(1, 5):
            f = _general(k, resolution, seed)
            built.clear()
            g = normalize_to_simplex_form(f)
            assert built == []
            assert g == normalize_by_envelope(f)
            assert all(g.nums[v] == 0 for v in f.lattice.vertex_indices())
    # No envelope is computed, so the envelope's size cap does not apply.
    lat = lattice(3, 21)  # 2024 points
    built.clear()
    g = normalize_to_simplex_form(SampledFunction(lat, [p[0] for p in lat.int_points], 1))
    assert built == [] and set(g.nums) == {0}


def test_oversized_lattice_raises_before_the_plane_test(monkeypatch):
    import supconvex.envelope as envelope

    tested = []
    monkeypatch.setattr(envelope, "_vertex_plane", lambda f: tested.append(f))
    lat = lattice(3, 21)  # 2024 points
    with pytest.raises(ValueError, match=r"envelope over 2024 lattice points \(cap 1771\)"):
        concave_envelope(SampledFunction(lat, [0] * len(lat), 1))
    assert tested == []


def _strictly_concave(k, resolution, seed):
    """-sum p_i^2 on the integer points, plus seed times an affine part:
    every point touches its envelope, so the prune keeps every column
    and the LPs are as degenerate as they get."""
    lat = lattice(k, resolution)
    return SampledFunction(lat, [seed * p[0] - sum(c * c for c in p) for p in lat.int_points], 1)


_VALUES_FAMILIES = {
    "general": _general,  # a concave bump at even seeds, spikes at odd ones
    "strictly_concave": _strictly_concave,
    "ties": _ties,
    "affine": _AFFINE_FAMILIES["make_random"],
}

# (k, N) of the values-sweep tests, and the sizes at which the
# brute-force oracle, which inverts every (k+1)-subset of the lattice
# columns in Fractions, takes well under a second (k = 4, N = 2 takes
# several).
_VALUES_SIZES = ((1, 3), (1, 9), (2, 3), (2, 4), (2, 8), (3, 2), (3, 4), (4, 2), (4, 3))
_ORACLE_SIZES = {(1, 3), (1, 9), (2, 3), (2, 4), (3, 2)}


@pytest.mark.parametrize("family", sorted(_VALUES_FAMILIES))
def test_envelope_values_match_the_certificate_sweep_and_the_oracle(family):
    for k, resolution in _VALUES_SIZES:
        for seed in (1, 2):
            f = _VALUES_FAMILIES[family](k, resolution, seed)
            env = envelope_values(f)
            assert env == concave_envelope(f).envelope
            if (k, resolution) in _ORACLE_SIZES and seed == 1:
                assert list(env.values) == envelope_bruteforce(f)


def _solve_bases(points):
    """[the basis handed in, the basis proved, whether the dual simplex
    ran] per point of _sweep_points."""
    return [[p["basis"], p["proved"], "_dual" in p["routines"]] for p in points]


def test_values_sweep_reuses_neighbour_bases_the_ordered_sweep_does_not_reach(monkeypatch):
    # A neighbour hit returns a proved basis other than the one handed in
    # without running the dual simplex; the ordered sweep never does.  At
    # degenerate points the hit may be another optimum than the ordered
    # sweep's, with the same value.
    points = _sweep_points(monkeypatch)
    hits = elsewhere = 0
    for family in ("general", "strictly_concave", "ties"):
        for k, resolution in ((2, 5), (2, 8), (3, 4)):
            for seed in (1, 2):
                f = _VALUES_FAMILIES[family](k, resolution, seed)
                points.clear()
                ordered = concave_envelope(f)
                calls = _solve_bases(points)
                if not calls:
                    continue  # the affine path
                assert all(b_in == b_out or dual for b_in, b_out, dual in calls[1:])
                ordered_bases = [b_out for _, b_out, _ in calls]
                points.clear()
                assert envelope_values(f) == ordered.envelope
                calls = _solve_bases(points)
                assert len(calls) == len(f.lattice)
                hits += sum(b_in != b_out and not dual for b_in, b_out, dual in calls[1:])
                elsewhere += sum(set(b_out) != set(o) for (_, b_out, _), o in zip(calls, ordered_bases))
    assert hits > 0 and elsewhere > 0, (hits, elsewhere)


def test_values_sweep_runs_fewer_dual_simplexes(monkeypatch):
    points = _sweep_points(monkeypatch)
    runs = {}
    for sweep in (concave_envelope, envelope_values):
        points.clear()
        for k, resolution, seed in ((2, 8, 1), (2, 8, 2), (3, 4, 3), (3, 4, 4)):
            sweep(_general(k, resolution, seed))
        runs[sweep] = sum(dual for _, _, dual in _solve_bases(points))
    assert 0 < runs[envelope_values] < runs[concave_envelope], runs


def _fractions_made(fn, *args):
    """(result, the number of Fraction constructions while fn ran)."""
    made = []
    new = Fraction.__new__.__code__

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is new:
            made.append(1)

    sys.setprofile(profile)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(None)
    return result, len(made)


def test_sweeps_make_no_fraction_but_the_printed_weights(monkeypatch):
    points = _sweep_points(monkeypatch)
    f = _general(2, 8, 1)
    env, made = _fractions_made(envelope_values, f)
    assert any(dual for _, _, dual in _solve_bases(points)) and made == 0
    res, made = _fractions_made(concave_envelope, f)
    assert res.envelope == env
    assert made == sum(len(cert) for cert in res.certificates)


def test_envelope_values_over_the_cap_raise_before_any_solver(monkeypatch):
    import supconvex.envelope as envelope

    built = _spy_solvers(monkeypatch)
    tested = []
    monkeypatch.setattr(envelope, "_vertex_plane", lambda f: tested.append(f))
    lat = lattice(3, 21)  # 2024 points
    with pytest.raises(ValueError, match=r"envelope over 2024 lattice points \(cap 1771\)"):
        envelope_values(SampledFunction(lat, [0] * len(lat), 1))
    assert tested == [] and built == []


def test_reports_and_the_plain_envelope_command_skip_certificates(monkeypatch, tmp_path, capsys):
    import supconvex.cli as cli
    import supconvex.harness as harness

    def refuse(f):
        raise AssertionError("certificate sweep")

    monkeypatch.setattr(harness, "concave_envelope", refuse)
    monkeypatch.setattr(cli, "concave_envelope", refuse)
    f, g = _general(2, 5, 1), _general(2, 5, 2)
    assert verify_nfold(f, 2).rhs == verify_pair(f, g).rhs > 0
    save_function(f, tmp_path / "f.json")
    assert cli.main(["envelope", "--input", str(tmp_path / "f.json")]) == 0
    assert '"certificates"' not in capsys.readouterr().out


def test_values_sweep_tests_each_proved_fallback_once(monkeypatch):
    # Earlier neighbours often share one proved triple, and the sweep
    # lists it once per neighbour.  A point tests each distinct triple
    # at most once, in the order of first listing, so the values are
    # unchanged.
    solves = []
    sweep, feasible = ExactSimplexSolver.sweep, ExactSimplexSolver._feasible

    def sweep_spy(self, points, basis, near=None):
        results = sweep(self, points, basis, near)
        tested = {}
        for b in feasible_calls:
            tested[b] = tested.get(b, 0) + 1
        for i in range(1, len(points)):
            ids = [id(results[j][0]) for j in near[i]] if near else []
            solves.append([len(set(ids)), len(ids), tested.get(points[i], 0)])
        return results

    def feasible_spy(adj, b):
        feasible_calls.append(b)
        return feasible(adj, b)

    feasible_calls = []
    monkeypatch.setattr(ExactSimplexSolver, "sweep", sweep_spy)
    monkeypatch.setattr(ExactSimplexSolver, "_feasible", staticmethod(feasible_spy))
    shared = 0
    for seed in range(1, 9):
        f = _general(2, 8, seed)
        solves.clear()
        feasible_calls.clear()
        env = envelope_values(f)
        assert all(tests <= distinct for distinct, _, tests in solves), seed
        shared += sum(tests > 0 and distinct < given for distinct, given, tests in solves)
        solves.clear()
        assert env == concave_envelope(f).envelope
    assert shared > 0


_KERNEL_FAMILIES = {
    "general": lambda k, resolution, seed: _general(k, resolution, 2 * seed),  # a concave bump
    "spikes": lambda k, resolution, seed: _general(k, resolution, 2 * seed - 1),
    "ties": _ties,
    "strictly_concave": _strictly_concave,
}
_KERNEL_SIZES = ((1, 4), (1, 11), (2, 3), (2, 6), (3, 3), (3, 4), (4, 2), (4, 3))


@pytest.mark.parametrize("family", sorted(_KERNEL_FAMILIES))
def test_sweep_kernel_matches_one_solve_per_point(monkeypatch, family):
    # The kernel against the per-point sweep it replaced: the certificate
    # sweep proves the same bases, values and certificates; the values
    # sweep the same values.
    swept = []
    sweep = ExactSimplexSolver.sweep

    def sweep_spy(self, points, basis, near=None):
        results = sweep(self, points, basis, near)
        swept.append([set(triple[0]) for triple, _ in results])
        return results

    monkeypatch.setattr(ExactSimplexSolver, "sweep", sweep_spy)
    pivoted = 0
    for k, resolution in _KERNEL_SIZES:
        for seed in (1, 2, 3):
            f = _KERNEL_FAMILIES[family](k, resolution, seed)
            swept.clear()
            res = concave_envelope(f)
            bases, values, certificates = zip(*envelope_sweep_by_solves(f, False))
            assert (res.values, res.certificates) == (values, certificates)
            if swept:  # else the affine path, which runs no sweep
                kept = hull_candidates(f)
                assert [{kept[c] for c in basis} for basis in swept[0]] == list(bases)
                pivoted += len(set(bases)) > 1
            _, values, _ = zip(*envelope_sweep_by_solves(f, True))
            assert envelope_values(f).values == values
    assert pivoted > 0


def test_certificate_sweep_replays_the_dual_steps_it_kept(monkeypatch):
    # A general k = 2, N = 8 sweep takes more dual steps than it computes:
    # a step is kept under (ordered basis, leaving row) and replayed.
    # Each kept step is the one a fresh solver takes from that basis at a
    # right hand side whose only negative basic value is in that row.
    solvers, taken = [], []
    init, pivot = ExactSimplexSolver.__init__, ExactSimplexSolver._pivot

    def init_spy(self, columns, objective):
        solvers.append((self, columns, objective))
        init(self, columns, objective)

    def pivot_spy(*args):
        if sys._getframe(1).f_code.co_name == "_dual":
            adj, det, xb, basis, row, d, entering = args
            taken.append(((tuple(basis), row), (entering, d)))
        return pivot(*args)

    monkeypatch.setattr(ExactSimplexSolver, "__init__", init_spy)
    monkeypatch.setattr(ExactSimplexSolver, "_pivot", staticmethod(pivot_spy))
    f = _general(2, 8, 1)
    res = concave_envelope(f)
    monkeypatch.undo()
    ((solver, columns, objective),) = solvers
    steps = solver._steps
    assert len(taken) > len(steps) > 0, (len(taken), len(steps))
    assert all(steps[key] == step for key, step in taken)
    for (basis, row), step in steps.items():
        x = [-1 if r == row else 1 for r in range(len(basis))]
        rhs = [sum(x[r] * columns[j][i] for r, j in enumerate(basis)) for i in range(len(basis))]
        fresh = ExactSimplexSolver(columns, objective)
        fresh.solve(rhs, basis)
        assert fresh._steps[basis, row] == step
    assert res.envelope == envelope_values(f)
