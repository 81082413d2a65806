"""Acceptance suite: one test per numbered criterion.

Each test prints a single "criterion N: PASS ..." line (visible with
pytest -s; under plain pytest the per-test PASSED/FAILED line carries
the same information).  Tolerances are pinned here, not defaulted:
tol_rel = 1/20, tol_abs = 1/10^9.  All other comparisons are exact.
"""

import time
from fractions import Fraction
from math import comb

from supconvex import (
    asymptotic_bound,
    averaging_certificate,
    bary_point,
    best_cover,
    cell_contains,
    classify_point,
    closed_form_constant,
    concave_envelope,
    descent_sum_constant,
    enumerate_shifts,
    eulerian,
    extremal_grid_report,
    extremal_profile,
    find_cover,
    lattice,
    make_random,
    medial_certificate,
    power_sum_constant,
    relative_volume,
    sampled_function,
    scaled_simplex_cover,
    sharp_constant,
    subdivide,
    SubdivisionCell,
    sup_convolve_n,
    verify_certificate,
    verify_nfold,
    verify_pair,
    worpitzky_check,
)
from oracles import vertex_usage_oracle

TOL_REL = Fraction(1, 20)
TOL_ABS = Fraction(1, 10**9)


def test_criterion_1_constants_agree():
    start = time.perf_counter()
    for k in (1, 2, 3):
        for n in range(2, 13):
            c = descent_sum_constant(k, n)
            assert power_sum_constant(k, n) == c
            assert closed_form_constant(k, n) == c
            assert extremal_profile(k, n).ratio == c
    assert sharp_constant(1, 2) == Fraction(1, 2)
    assert sharp_constant(2, 3) == Fraction(5, 9)
    assert sharp_constant(3, 2) == Fraction(1, 4)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s"
    print(f"criterion 1: PASS (all constant forms equal, k<=3, n<=12, {elapsed:.2f}s)")


def test_criterion_2_worpitzky():
    start = time.perf_counter()
    for k in range(1, 7):
        for n in range(1, 13):
            assert worpitzky_check(k, n)
    up = comb(5, 2) * eulerian(2, 0)
    down = comb(4, 2) * eulerian(2, 1)
    assert (up, down, up + down) == (10, 6, 16)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"criterion 2 took {elapsed:.2f}s"
    print(f"criterion 2: PASS (identity exact, k<=6, n<=12, {elapsed:.2f}s)")


def test_criterion_3_subdivision():
    start = time.perf_counter()
    for k in range(1, 4):
        for n in range(1, 7):
            cells = subdivide(k, n)
            by_m = {}
            for c in cells:
                by_m[c.m] = by_m.get(c.m, 0) + 1
            for m, count in by_m.items():
                assert count == comb(n + k - m, k)
            assert sum(c.relative_volume() for c in cells) == 1
    for k in (1, 2):
        for n in (2, 3, 4):
            den = 2 * n
            for ints in enumerate_shifts(k, den):
                z = bary_point([Fraction(c, den) for c in ints])
                loc = classify_point(k, n, z)
                best, argmax = vertex_usage_oracle(k, n, tuple(z))
                if best == n:
                    assert loc.m == 1 and loc.on_boundary
                else:
                    assert loc.m == n - best
                    assert loc.shift in argmax
                assert cell_contains(SubdivisionCell(n, loc.m, loc.shift), z)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"criterion 3 took {elapsed:.2f}s"
    print(f"criterion 3: PASS (counts, volumes, classifier vs oracle, {elapsed:.2f}s)")


def test_criterion_4_extremal_equality():
    start = time.perf_counter()
    for k in range(1, 4):
        for n in range(1, 7):
            assert extremal_profile(k, n).ratio == sharp_constant(k, n)
    for k in (1, 2):
        for n in (2, 3, 4):
            rep = extremal_grid_report(k, n, 12)
            assert rep.ratio == sharp_constant(k, n), (
                f"grid ratio {rep.ratio} != c({k},{n})"
            )
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"criterion 4 took {elapsed:.2f}s"
    print(f"criterion 4: PASS (profile and grid ratios equal c(k,n), {elapsed:.2f}s)")


def test_criterion_5_averageable_certificates():
    start = time.perf_counter()
    for k, m in ((1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (3, 3)):
        cert = averaging_certificate(k, m)
        report = verify_certificate(cert)
        assert report.passed, [
            (c.name, c.witness) for c in report.checks if not c.passed
        ]
    report = verify_certificate(medial_certificate())
    assert report.passed
    wedge = averaging_certificate(3, 2)
    assert wedge.jacobian == Fraction(1, 2)
    assert len(wedge.image_pieces) == 4
    for img in wedge.image_pieces:
        assert relative_volume(img) == Fraction(1, 8)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"criterion 5 took {elapsed:.2f}s"
    print(f"criterion 5: PASS (7 certificates verified, wedge jacobian 1/2, {elapsed:.2f}s)")


def test_criterion_6_pair_inequality():
    start = time.perf_counter()
    for k in (1, 2, 3):
        assert extremal_profile(k, 2).ratio == Fraction(k + 1, 2 ** (k + 1))
    failures = []
    for k in (1, 2):
        for t in range(50):
            seed = 5000 + 100 * k + t
            rough = 1 if t % 2 == 0 else "2/3"
            f = make_random(k, 12, seed=seed, roughness=rough)
            g = make_random(k, 12, seed=seed + 17, roughness=rough)
            rep = verify_pair(f, g, tol_rel=TOL_REL, tol_abs=TOL_ABS)
            if not rep.passed:
                failures.append((k, seed))
    assert not failures, f"pair inequality failed at {failures}"
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"criterion 6 took {elapsed:.2f}s"
    print(f"criterion 6: PASS (sharp ratio exact, 100 random pairs, {elapsed:.2f}s)")


def test_criterion_7_asymptotic_bound_and_cover():
    start = time.perf_counter()
    for k in (1, 2, 3):
        for n in range(k + 1, 51):
            bound = asymptotic_bound(k, n)
            c = sharp_constant(k, n)
            assert bound <= c
            if k == 1:
                assert bound == c
            else:
                assert bound < c
    for k in (1, 2, 3):
        for n in range(k + 1, 9):
            cover = scaled_simplex_cover(k, n)  # verifies coverage internally
            assert len(cover) == comb(n, k)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"criterion 7 took {elapsed:.2f}s"
    print(f"criterion 7: PASS (bound <= c with k=1 equality, covers verified, {elapsed:.2f}s)")


def test_criterion_8_good_translate_covers():
    start = time.perf_counter()
    cert = find_cover(1, 2, 1)
    assert cert is not None
    assert cert.count == 2
    assert cert.sum_constants == 2
    assert cert.derived_constant == Fraction(1, 4)

    # regression snapshot for the first nontrivial dimension
    closure, cert2 = best_cover(2, 2, 1)
    assert cert2 is not None
    assert cert2.derived_constant > 0
    assert (cert2.level, cert2.count, cert2.cert_resolution) == (1, 6, 4)
    assert cert2.sum_constants == 9
    assert cert2.derived_constant == Fraction(1, 36)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"criterion 8 took {elapsed:.2f}s"
    print(f"criterion 8: PASS (k=1 cover exact, k=2 snapshot 6 translates, {elapsed:.2f}s)")


def test_criterion_9_property_suites():
    start = time.perf_counter()
    failures = []
    for k in (1, 2):
        for n in (2, 3):
            for t in range(50):
                seed = 1000 * k + 100 * n + t
                rough = 1 if t % 2 == 0 else "2/3"
                f = make_random(k, 12, seed=seed, roughness=rough)
                rep = verify_nfold(f, n, tol_rel=TOL_REL, tol_abs=TOL_ABS)
                if not rep.passed:
                    failures.append((k, n, seed))
                conv = sup_convolve_n(f, n)
                env = concave_envelope(f)
                for fv, cv, ev in zip(f.values, conv.values, env.values):
                    assert fv <= cv <= ev
    assert not failures, f"n-fold inequality failed at {failures}"

    # exact affine equivariance: conv(f + a) == conv(f) + a
    for t in range(50):
        k = 1 + t % 2
        f = make_random(k, 6, seed=4000 + t)
        lat = f.lattice
        coeffs = [Fraction(3 - (t + j) % 7) for j in range(k + 1)]
        shift = [
            sum(c * x for c, x in zip(coeffs, pt)) / 6 for pt in lat.int_points
        ]
        g = sampled_function(lat, [v + s for v, s in zip(f.values, shift)])
        conv_f = sup_convolve_n(f, 2).values
        conv_g = sup_convolve_n(g, 2).values
        assert all(b == a + s for a, b, s in zip(conv_f, conv_g, shift))

    # exact positive scaling: conv(lam * f) == lam * conv(f)
    lams = (Fraction(0), Fraction(1, 2), Fraction(2), Fraction(7, 3))
    for t in range(50):
        k = 1 + t % 2
        f = make_random(k, 6, seed=4500 + t)
        conv_f = sup_convolve_n(f, 2).values
        lam = lams[t % 4]
        g = sampled_function(f.lattice, [lam * v for v in f.values])
        conv_g = sup_convolve_n(g, 2).values
        assert all(b == lam * a for a, b in zip(conv_f, conv_g))

    elapsed = time.perf_counter() - start
    print(f"criterion 9: PASS (200 trials, exact sandwich, invariants, {elapsed:.2f}s)")
