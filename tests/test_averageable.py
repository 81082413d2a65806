import dataclasses
import hashlib
from collections import Counter
from fractions import Fraction

import pytest

from supconvex import (
    AffinePiece,
    PLMap,
    UnsupportedCertificateError,
    averaging_certificate,
    bary_point,
    lattice,
    make_random,
    mean_value,
    medial_certificate,
    relative_volume,
    sampled_function,
    simplex,
    sup_convolve_n,
    verify_certificate,
)
from supconvex import averageable
from supconvex.cli import main

EXPECTED_JACOBIANS = {
    (1, 1): Fraction(1),
    (2, 1): Fraction(1),
    (2, 2): Fraction(1, 4),
    (3, 1): Fraction(1),
    (3, 2): Fraction(1, 2),
    (3, 3): Fraction(1, 27),
}


def test_certificate_table():
    for (k, m), jac in EXPECTED_JACOBIANS.items():
        cert = averaging_certificate(k, m)
        assert (cert.k, cert.m) == (k, m)
        assert len(cert.maps) == m
        assert cert.jacobian == jac
        assert cert.target.rel_volume == jac


def test_all_supported_certificates_verify():
    for k, m in EXPECTED_JACOBIANS:
        report = verify_certificate(averaging_certificate(k, m), trials=3)
        assert report.passed, [
            (c.name, c.witness) for c in report.checks if not c.passed
        ]


def test_wedge_details():
    cert = averaging_certificate(3, 2)
    identity, rotation = cert.maps
    assert len(identity.pieces) == 1
    assert len(rotation.pieces) == 4
    # four wedge domains of volume 1/4 each, images of volume 1/8
    for piece in rotation.pieces:
        assert relative_volume(piece.domain) == Fraction(1, 4)
        assert relative_volume(piece.image_simplex()) == Fraction(1, 4)
    assert len(cert.image_pieces) == 4
    for img in cert.image_pieces:
        assert relative_volume(img) == Fraction(1, 8)
    assert cert.jacobian == Fraction(1, 2)
    # the rotation advances each wedge onto the next one
    doms = [p.domain for p in rotation.pieces]
    for i, piece in enumerate(rotation.pieces):
        nxt = doms[(i + 1) % 4]
        img = piece.image_simplex()
        assert {v.coords for v in img.vertices} == {v.coords for v in nxt.vertices}


def test_wedge_rotation_fixes_axis():
    cert = averaging_certificate(3, 2)
    rotation = cert.maps[1]
    axis_a = bary_point([Fraction(1, 2), 0, Fraction(1, 2), 0])
    axis_b = bary_point([0, Fraction(1, 2), 0, Fraction(1, 2)])
    for p in (axis_a, axis_b):
        image = rotation.apply(p)
        assert tuple(image) == tuple(p)


def test_medial_certificate():
    cert = medial_certificate()
    assert (cert.k, cert.m) == (3, 2)
    assert cert.jacobian == Fraction(1, 4)
    assert cert.target.rel_volume == Fraction(1, 4)
    report = verify_certificate(cert, trials=3)
    assert report.passed


def test_cyclic_matrices_are_permutations():
    cert = averaging_certificate(3, 3)
    for mp in cert.maps:
        (piece,) = mp.pieces
        for row in piece.matrix:
            assert sorted(row) == [0, 0, 0, 1]
        assert all(o == 0 for o in piece.offset)
    for k in range(1, 5):
        d = k + 1
        identity = tuple(tuple(int(r == c) for c in range(d)) for r in range(d))
        (piece,) = averaging_certificate(k, 1).maps[0].pieces
        assert piece.matrix == identity
        assert all(o == 0 for o in piece.offset)
        # (1, 1) is served by the identity family, so build the rotations directly.
        maps = averageable._cyclic_certificate(k).maps
        assert [mp.name for mp in maps] == [f"rotate{i}" for i in range(k)]
        for i, mp in enumerate(maps):
            # rotate{i} sends e_j to e_(j+i mod k+1).
            rotation = tuple(
                tuple(int((r - i) % d == c) for c in range(d)) for r in range(d)
            )
            (piece,) = mp.pieces
            assert piece.matrix == rotation
            assert all(o == 0 for o in piece.offset)
    for cert in (averaging_certificate(3, 2), medial_certificate()):
        (piece,) = cert.maps[0].pieces
        assert cert.maps[0].name == "identity"
        assert piece.matrix == tuple(tuple(int(r == c) for c in range(4)) for r in range(4))


def test_piece_apply_matches_the_rational_formula():
    # Int and Fraction entries mixed, a distinct offset per row, and
    # points over mixed denominators.
    matrix = (
        (1, Fraction(1, 2), 0),
        (Fraction(-2, 3), 3, Fraction(1, 5)),
        (0, 0, Fraction(7, 4)),
    )
    offset = (Fraction(1, 3), -1, Fraction(2, 7))
    piece = AffinePiece(simplex([(1, 0, 0), (0, 1, 0), (0, 0, 1)]), matrix, offset)
    points = [*lattice(2, 3).points, bary_point(["1/6", "5/12", "5/12"]), bary_point([2, -1, 0])]
    for p in points:
        want = tuple(
            sum(a * x for a, x in zip(row, p.coords)) + o for row, o in zip(matrix, offset)
        )
        assert piece.apply(p).coords == want
        assert all(type(c) is Fraction for c in piece.apply(p).coords)


def test_corrupted_certificate_fails():
    cert = averaging_certificate(2, 2)
    bad_map = cert.maps[1]
    (piece,) = bad_map.pieces
    shifted = AffinePiece(
        piece.domain,
        piece.matrix,
        tuple(o + Fraction(1, 7) for o in piece.offset),
    )
    corrupted = dataclasses.replace(
        cert, maps=(cert.maps[0], PLMap(bad_map.name, (shifted,)))
    )
    report = verify_certificate(corrupted, trials=1)
    assert not report.passed
    failed = [c for c in report.checks if not c.passed]
    assert failed and all(c.witness for c in failed)


def _overlapping_domains(cert):
    # Two halves of T, each of volume 1/2, that share the corner at e_0.
    (piece,) = cert.maps[0].pieces
    halves = (
        simplex([(1, 0, 0), (0, 1, 0), (0, Fraction(1, 2), Fraction(1, 2))]),
        simplex([(1, 0, 0), (0, 0, 1), (Fraction(1, 2), Fraction(1, 2), 0)]),
    )
    pieces = tuple(dataclasses.replace(piece, domain=d) for d in halves)
    return dataclasses.replace(cert, maps=(PLMap("overlap", pieces),))


def _volume_halving(cert):
    # Columns are vertex images: e_2 goes to the midpoint of e_1 e_2.
    (piece,) = cert.maps[0].pieces
    half = Fraction(1, 2)
    matrix = ((1, 0, 0), (0, 1, half), (0, 0, half))
    squash = dataclasses.replace(piece, matrix=matrix)
    return dataclasses.replace(cert, maps=(PLMap("squash", (squash,)),))


def _inner_points_only(cert):
    # conv_1 = f, averaged over the points where f = -1 only.
    target = dataclasses.replace(cert.target, member=lambda p: max(p.coords) < 1)
    return dataclasses.replace(cert, target=target)


TAMPERED = [
    (_overlapping_domains, "domain-tiling:overlap", "pieces 0 and 1 overlap"),
    (_volume_halving, "piece-measure:squash", "piece 0 scales volume by 1/2"),
    (
        lambda c: dataclasses.replace(c, jacobian=Fraction(1, 3)),
        "average-jacobian",
        "piece 0 has jacobian 1, certificate says 1/3",
    ),
    (
        lambda c: dataclasses.replace(
            c, target=dataclasses.replace(c.target, rel_volume=Fraction(1, 3))
        ),
        "average-jacobian",
        "jacobian 1 differs from |S|/|T| = 1/3",
    ),
    (
        lambda c: dataclasses.replace(
            c, target=dataclasses.replace(c.target, member=lambda p: False)
        ),
        "transport",
        "no lattice points inside the target",
    ),
    (_inner_points_only, "transport", "function 0: -1 < -4/5 minus tolerance"),
]


@pytest.mark.parametrize("tamper, check, witness", TAMPERED)
def test_tampered_certificate_fails_the_named_check(tamper, check, witness):
    cert = tamper(averaging_certificate(2, 1))
    lat = lattice(2, 4)
    f = sampled_function(lat, [0 if 4 in pt else -1 for pt in lat.int_points])
    report = verify_certificate(cert, functions=[f])
    assert not report.passed
    failed = {c.name: c.witness for c in report.checks if not c.passed}
    assert failed.get(check) == witness, failed


def test_unsupported_families_raise():
    for k, m in ((4, 2), (2, 3), (5, 1), (4, 3)):
        with pytest.raises(UnsupportedCertificateError):
            averaging_certificate(k, m)


def test_explicit_functions_accepted():
    cert = averaging_certificate(2, 2)
    lat = lattice(2, 4)
    f = sampled_function(
        lat,
        [0 if 4 in pt else Fraction(-1, 2) for pt in lat.int_points],
    )
    report = verify_certificate(cert, functions=[f])
    assert report.passed


def test_target_membership_is_computed_once_per_lattice():
    cert = averaging_certificate(2, 2)
    asked = Counter()

    def member(p):
        asked[p.coords] += 1
        return cert.target.member(p)

    counted = dataclasses.replace(cert, target=dataclasses.replace(cert.target, member=member))
    verify_certificate(counted, functions=[])
    structural = asked.copy()  # the image-tiling check asks about vertices
    asked.clear()
    lattices = (lattice(2, 4), lattice(2, 6))
    functions = [
        sampled_function(
            lat, [0 if lat.resolution in pt else Fraction(-1, 2) for pt in lat.int_points]
        )
        for lat in lattices
    ]
    report = verify_certificate(counted, functions=functions + functions)
    assert report.passed
    transport = asked - structural
    # Each lattice gets its own mask, asked once per point and reused.
    assert transport == Counter(p.coords for lat in lattices for p in lat.points)


def test_transport_draws_each_function_as_it_is_checked(monkeypatch):
    events = []
    draw, convolve = averageable.random_numerators, averageable.best_sums_n
    monkeypatch.setattr(
        averageable, "random_numerators", lambda *a: events.append("draw") or draw(*a)
    )
    monkeypatch.setattr(
        averageable, "best_sums_n", lambda *a: events.append("convolve") or convolve(*a)
    )
    assert verify_certificate(averaging_certificate(2, 2), trials=3, seed=7).passed
    assert events == ["draw", "convolve"] * 3


def test_transport_fails_when_no_function_is_checked():
    report = verify_certificate(averaging_certificate(2, 2), functions=[])
    transport = report.checks[-1]
    assert transport.name == "transport"
    assert not transport.passed
    assert transport.witness == "no function checked"
    assert not report.passed
    assert all(c.passed for c in report.checks[:-1])


def test_trial_counts_outside_the_cap_are_refused():
    cert = averaging_certificate(2, 2)
    for trials in (0, -3, averageable.TRIALS_CAP + 1):
        with pytest.raises(ValueError, match="trials"):
            verify_certificate(cert, trials=trials)


def test_functions_of_another_dimension_are_refused():
    cases = (
        (averaging_certificate(2, 2), make_random(3, 4, 1)),
        (averaging_certificate(1, 1), make_random(2, 4, 1)),
        (medial_certificate(), make_random(2, 4, 1)),
        (medial_certificate(), make_random(4, 3, 1)),
    )
    for cert, f in cases:
        with pytest.raises(ValueError, match=f"k = {f.k}, certificate has k = {cert.k}"):
            verify_certificate(cert, functions=[f])


def _fraction_transport(cert, functions, tol_rel, tol_abs=Fraction(1, 10**9)):
    """The transport check on Fractions: sup_convolve_n, then the means."""
    vol = cert.target.rel_volume
    for t, f in enumerate(functions):
        conv = sup_convolve_n(f, cert.m)
        inside = [v for v, p in zip(conv.values, f.lattice.points) if cert.target.member(p)]
        if not inside:
            return False, "no lattice points inside the target"
        lhs, rhs = vol * mean_value(inside), vol * mean_value(f.values)
        if lhs < rhs - (tol_rel * abs(rhs) + tol_abs):
            return False, f"function {t}: {lhs} < {rhs} minus tolerance"
    return True, ""


def test_integer_transport_matches_the_fraction_route():
    # Values over mixed coprime denominators, nonzero at the vertices,
    # on two lattices per certificate; the tolerances give both verdicts.
    certs = [averaging_certificate(k, m) for k, m in EXPECTED_JACOBIANS]
    certs += [medial_certificate(), _inner_points_only(averaging_certificate(2, 1))]
    dens = (1, 2, 3, 5, 7, 11)
    verdicts = Counter()
    for cert in certs:
        functions = []
        for s, resolution in enumerate((3, 4, 3)):
            lat = lattice(cert.k, resolution)
            functions.append(
                sampled_function(
                    lat,
                    [
                        Fraction((5 * i + 3 * s) % 13 - 7, dens[(i + s) % len(dens)])
                        for i in range(len(lat))
                    ],
                )
            )
        for tol_rel in (Fraction(1, 20), Fraction(-1, 2), Fraction(-2)):
            transport = verify_certificate(cert, functions=functions, tol_rel=tol_rel).checks[-1]
            want = _fraction_transport(cert, functions, tol_rel)
            assert (transport.passed, transport.witness) == want
            verdicts[want[0]] += 1
    assert verdicts[True] and verdicts[False], verdicts


# sha256 of the CLI output for these arguments, each with --trials 8
# --seed 3, recorded when volumes, containment and map pieces were still
# computed by Fraction elimination.
AVERAGEABLE_OUTPUTS = [
    ("--k 1 --m 1", "3fe7fd3c89effeeac92c8bf8c103306d2e549fde303c9624f44868fb8096f3a3"),
    ("--k 2 --m 1", "12bbf42450ca45bcfb5ed07fa891f97a4d7ee7dea5a19736343c0c13bef0175b"),
    ("--k 2 --m 2", "3421cb6937ace55e99305d452dd8ab96a0cb496bbb90a608d8f6d452588bdbe7"),
    ("--k 3 --m 1", "c81f119d854116d3781564b727dad2e059dd03df3fd99debbd5147b4539f92b7"),
    ("--k 3 --m 3", "75ddccba7f66bc81d0b84d52d2bec8bd894cf591f48b3cd1b7aafd502b2fe5ee"),
    ("--k 4 --m 1", "226eed05fbe94e36d5ef394870b460e0899c34e4f526ecac3733c57e0065128a"),
    ("--k 4 --m 4", "75e02f0fbdf4db08a8da74a6511e01df24b8d0650e80460bc022a197132a9065"),
    ("--k 3 --m 2", "384d8daa74e07eac5d25332554db5462e4eabd0752bb5b07bf8be7823f19abbb"),
    ("--medial", "f91e40a7fabf947691eb7b41727239aa53fdfe4809da84acc1e46aec9aa95845"),
]


@pytest.mark.parametrize("args, digest", AVERAGEABLE_OUTPUTS)
def test_averageable_output_bytes_are_pinned(capsys, args, digest):
    assert main(["averageable", *args.split(), "--trials", "8", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_subdivide_output_bytes_are_pinned(capsys):
    assert main(["subdivide", "--k", "3", "--n", "3"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "e89fbe4f1c4dd0a1103fcfc0310dd446804d33400b06a117b43fecf76b9ea29f"
    )
