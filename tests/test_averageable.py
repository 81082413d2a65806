import dataclasses
import hashlib
from fractions import Fraction
from functools import partial
from math import lcm

import pytest
from oracles import sampled_transport

from supconvex import (
    AffinePiece,
    PLMap,
    UnsupportedCertificateError,
    averaging_certificate,
    bary_point,
    lattice,
    make_random,
    medial_certificate,
    relative_volume,
    sampled_function,
    simplex,
    standard_simplex,
    verify_certificate,
)
from supconvex import averageable, geometry, subdivision
from supconvex.cli import main

EXPECTED_JACOBIANS = {
    (1, 1): Fraction(1),
    (2, 1): Fraction(1),
    (2, 2): Fraction(1, 4),
    (3, 1): Fraction(1),
    (3, 2): Fraction(1, 2),
    (3, 3): Fraction(1, 27),
}


def _affine_piece(domain, matrix, offset):
    # x -> matrix x + offset, as the integer rows of [matrix | offset]
    # over their common denominator.
    entries = [[Fraction(v) for v in (*row, o)] for row, o in zip(matrix, offset)]
    den = lcm(*(v.denominator for row in entries for v in row))
    return AffinePiece(domain, tuple(tuple(int(v * den) for v in row) for row in entries), den)


def _matrix_and_offset(piece):
    rows = [[Fraction(c, piece.den) for c in row] for row in piece.rows]
    return tuple(tuple(row[:-1]) for row in rows), tuple(row[-1] for row in rows)


def test_certificate_table():
    for (k, m), jac in EXPECTED_JACOBIANS.items():
        cert = averaging_certificate(k, m)
        assert (cert.k, cert.m) == (k, m)
        assert len(cert.maps) == m
        assert cert.jacobian == jac
        assert cert.target.rel_volume == jac


def test_all_supported_certificates_verify():
    for k, m in EXPECTED_JACOBIANS:
        report = verify_certificate(averaging_certificate(k, m))
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
    report = verify_certificate(cert)
    assert report.passed


def test_cyclic_matrices_are_permutations():
    cert = averaging_certificate(3, 3)
    for mp in cert.maps:
        (piece,) = mp.pieces
        matrix, offset = _matrix_and_offset(piece)
        for row in matrix:
            assert sorted(row) == [0, 0, 0, 1]
        assert all(o == 0 for o in offset)
    for k in range(1, 5):
        d = k + 1
        identity = tuple(tuple(int(r == c) for c in range(d)) for r in range(d))
        (piece,) = averaging_certificate(k, 1).maps[0].pieces
        matrix, offset = _matrix_and_offset(piece)
        assert matrix == identity
        assert all(o == 0 for o in offset)
        # (1, 1) is served by the identity family, so build the rotations directly.
        maps = averageable._cyclic_certificate(k).maps
        assert [mp.name for mp in maps] == [f"rotate{i}" for i in range(k)]
        for i, mp in enumerate(maps):
            # rotate{i} sends e_j to e_(j+i mod k+1).
            rotation = tuple(
                tuple(int((r - i) % d == c) for c in range(d)) for r in range(d)
            )
            (piece,) = mp.pieces
            matrix, offset = _matrix_and_offset(piece)
            assert matrix == rotation
            assert all(o == 0 for o in offset)
    for cert in (averaging_certificate(3, 2), medial_certificate()):
        (piece,) = cert.maps[0].pieces
        assert cert.maps[0].name == "identity"
        matrix, _ = _matrix_and_offset(piece)
        assert matrix == tuple(tuple(int(r == c) for c in range(4)) for r in range(4))


def test_piece_apply_matches_the_rational_formula():
    # Int and Fraction entries mixed, a distinct offset per row, and
    # points over mixed denominators.
    matrix = (
        (1, Fraction(1, 2), 0),
        (Fraction(-2, 3), 3, Fraction(1, 5)),
        (0, 0, Fraction(7, 4)),
    )
    offset = (Fraction(1, 3), -1, Fraction(2, 7))
    piece = _affine_piece(simplex([(1, 0, 0), (0, 1, 0), (0, 0, 1)]), matrix, offset)
    points = [*lattice(2, 3).points, bary_point(["1/6", "5/12", "5/12"]), bary_point([2, -1, 0])]
    for p in points:
        want = tuple(
            sum(a * x for a, x in zip(row, p.coords)) + o for row, o in zip(matrix, offset)
        )
        assert piece.apply(p).coords == want
        assert all(type(c) is Fraction for c in piece.apply(p).coords)


def test_pieces_keep_a_positive_denominator():
    # Vertices listed in odd order give the domain a negative determinant.
    domain = simplex([(0, 1, 0), (1, 0, 0), (0, 0, 1)])
    images = simplex([(0, 0, 1), (0, 1, 0), (1, 0, 0)]).vertices
    piece = averageable._piece_from_vertex_images(domain, simplex(images))
    assert piece.den > 0
    assert tuple(map(piece.apply, domain.vertices)) == images
    assert relative_volume(piece.image_simplex()) == 1


def test_corrupted_certificate_fails():
    cert = averaging_certificate(2, 2)
    bad_map = cert.maps[1]
    (piece,) = bad_map.pieces
    matrix, offset = _matrix_and_offset(piece)
    shifted = _affine_piece(piece.domain, matrix, tuple(o + Fraction(1, 7) for o in offset))
    corrupted = dataclasses.replace(
        cert, maps=(cert.maps[0], PLMap(bad_map.name, (shifted,)))
    )
    report = verify_certificate(corrupted)
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
    squash = _affine_piece(piece.domain, matrix, _matrix_and_offset(piece)[1])
    return dataclasses.replace(cert, maps=(PLMap("squash", (squash,)),))


def _inner_points_only(cert):
    # conv_1 = f, averaged over the points where f = -1 only.
    target = dataclasses.replace(cert.target, member=lambda row, den: max(row) < den)
    return dataclasses.replace(cert, target=target)


E0, E1 = bary_point([1, 0]), bary_point([0, 1])
MID = bary_point([Fraction(1, 2), Fraction(1, 2)])


def _k1_map(name, first_images, second_images):
    # The k = 1 identity certificate, its map replaced by the pieces that
    # send the vertices of [e0, mid] and of [mid, e1] to the given images.
    domains = (simplex([E0.coords, MID.coords]), simplex([MID.coords, E1.coords]))
    # The one map is its own average, so its piece images are the
    # certificate's image pieces.
    images = (simplex(first_images), simplex(second_images))
    pieces = tuple(map(averageable._piece_from_vertex_images, domains, images))
    return dataclasses.replace(
        averaging_certificate(1, 1),
        maps=(PLMap(name, pieces),),
        image_pieces=tuple(p.image_simplex() for p in pieces),
    )


def _half_reflection(_cert):
    # Reflects [e0, mid] onto itself: not integral, yet it permutes L_4.
    return _k1_map("half-reflection", (MID, E0), (MID, E1))


def _folded(_cert):
    # Integral, but the coordinate swap on [mid, e1] folds it onto [e0, mid].
    return _k1_map("fold", (E0, MID), (MID, E0))


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
            c, target=dataclasses.replace(c.target, member=lambda row, den: False)
        ),
        "image-tiling",
        "vertex (Fraction(1, 1), Fraction(0, 1), Fraction(0, 1)) outside region",
    ),
    (
        _inner_points_only,
        "image-tiling",
        "vertex (Fraction(1, 1), Fraction(0, 1), Fraction(0, 1)) outside region",
    ),
    (_half_reflection, "transport", "half-reflection: piece 0 is not integral"),
    (_folded, "transport", "fold: does not permute L_4"),
]


@pytest.mark.parametrize("tamper, check, witness", TAMPERED)
def test_tampered_certificate_fails_the_named_check(tamper, check, witness):
    report = verify_certificate(tamper(averaging_certificate(2, 1)))
    assert not report.passed
    failed = {c.name: c.witness for c in report.checks if not c.passed}
    assert failed.get(check) == witness, failed


def test_half_reflection_fails_transport_alone():
    # Every structural check passes, the map permutes L_4, and the
    # sampled check passes on 200 functions.  Only integrality tells it
    # apart: it sends (2/3, 1/3) off L_3.
    cert = _half_reflection(None)
    report = verify_certificate(cert)
    assert [c.name for c in report.checks if not c.passed] == ["transport"]
    n = averageable.TRANSPORT_RESOLUTION
    lat = lattice(1, n)
    (mp,) = cert.maps
    images = sorted(tuple(c * n for c in mp.apply(p).coords) for p in lat.points)
    assert images == list(lat.int_points)
    off = mp.apply(bary_point([Fraction(2, 3), Fraction(1, 3)]))
    assert off.coords == (Fraction(5, 6), Fraction(1, 6))
    functions = [make_random(1, n, seed) for seed in range(200)]
    assert sampled_transport(cert, functions) == (True, "")


def test_overlapping_domains_still_fail_through_the_lp(monkeypatch):
    # The two halves share an interior, so no facet separates them and
    # the LP decides, once for the domains and once for their images
    # under the identity.
    calls = _lp_spy(monkeypatch)
    report = verify_certificate(_overlapping_domains(averaging_certificate(2, 1)))
    failed = {c.name: c.witness for c in report.checks if not c.passed}
    assert failed["domain-tiling:overlap"] == "pieces 0 and 1 overlap"
    assert failed["image-tiling"] == "pieces 0 and 1 overlap"
    assert len(calls) == 2


def test_family_without_its_m_maps_fails_average_jacobian():
    cert = averaging_certificate(3, 2)
    empty = verify_certificate(dataclasses.replace(cert, maps=()))
    assert not empty.passed
    assert [c.name for c in empty.checks] == ["average-jacobian", "image-tiling", "transport"]
    failed = {c.name: c.witness for c in empty.checks if not c.passed}
    assert failed["average-jacobian"] == "0 maps to average, certificate says m = 2"
    assert failed["image-tiling"] == "volumes sum to 0, want 1/2"
    # One map short: rotate1 / 2 sends T onto T / 2, which has the
    # jacobian and the volume of slice(2, 2) / 2 and every coordinate at
    # most 1/2, but lies on {sum = 1/2}, off T, so the map count and the
    # image vertices fail.
    cert = averaging_certificate(2, 2)
    short = verify_certificate(dataclasses.replace(cert, maps=cert.maps[1:]))
    failed = {c.name: c.witness for c in short.checks if not c.passed}
    assert failed == {
        "average-jacobian": "1 maps to average, certificate says m = 2",
        "image-tiling": "vertex (Fraction(0, 1), Fraction(1, 2), Fraction(0, 1)) outside region",
    }


def test_average_off_t_fails_image_tiling():
    # rotate1 with the offset of its last row lowered by 1: the average
    # with rotate0 maps T onto {sum = 1/2}.  Every image vertex has all
    # coordinates at most 1/2, so the slice's member accepts it; only
    # the test for T rejects it.
    cert = averaging_certificate(2, 2)
    rotate0, rotate1 = cert.maps
    (piece,) = rotate1.pieces
    matrix, offset = _matrix_and_offset(piece)
    lowered = _affine_piece(piece.domain, matrix, (*offset[:-1], offset[-1] - 1))
    tampered = dataclasses.replace(cert, maps=(rotate0, PLMap(rotate1.name, (lowered,))))
    images = [p.image_simplex() for p in averageable._average_pieces(tampered.maps, 2)]
    assert all(cert.target.member(row, s.den) for s in images for row in s.rows)
    report = verify_certificate(tampered)
    failed = {c.name: c.witness for c in report.checks if not c.passed}
    assert failed == {
        "image-tiling": "vertex (Fraction(1, 2), Fraction(1, 2), Fraction(-1, 2)) outside region",
        "transport": "rotate1: does not permute L_4",
    }


def test_claimed_image_pieces_must_be_the_average_images():
    # The CLI prints image_volumes from this field.
    cert = dataclasses.replace(averaging_certificate(3, 2), image_pieces=(standard_simplex(3),))
    report = verify_certificate(cert)
    failed = {c.name: c.witness for c in report.checks if not c.passed}
    assert failed == {"image-tiling": "image pieces differ from the average's images"}


@pytest.mark.parametrize("k, m", [(2, 1), (2, 2)])
def test_map_without_pieces_fails_domain_tiling(k, m):
    # The identity family's one map, or rotate0's partner, has no pieces.
    cert = averaging_certificate(k, m)
    maps = (*cert.maps[: m - 1], PLMap("empty", ()))
    report = verify_certificate(dataclasses.replace(cert, maps=maps))
    failed = {c.name: c.witness for c in report.checks if not c.passed}
    assert failed == {
        "domain-tiling:empty": "volumes sum to 0, want 1",
        "image-tiling": f"volumes sum to 0, want {cert.target.rel_volume}",
        "transport": "empty: does not permute L_4",
    }


def test_unsupported_families_raise():
    for k, m in ((4, 2), (2, 3), (5, 1), (4, 3)):
        with pytest.raises(UnsupportedCertificateError):
            averaging_certificate(k, m)


BUILDS = [partial(averaging_certificate, k, m) for k, m in ((1, 1), (2, 1), (3, 1), (4, 1))]
BUILDS += [partial(averaging_certificate, k, k) for k in (2, 3, 4)]
BUILDS += [partial(averaging_certificate, 3, 2), medial_certificate]
SUPPORTED = [build() for build in BUILDS]


def test_maps_permute_the_lattice_at_every_resolution():
    # The proof runs at one resolution; integral pieces that tile T make
    # it hold at all of them.  Checked both by the module's elimination
    # and point by point through PLMap.apply.
    for cert in SUPPORTED:
        for resolution in range(1, 9):
            lat = lattice(cert.k, resolution)
            for mp in cert.maps:
                assert averageable._permutation_witness(mp, lat) == "", (mp.name, resolution)
                images = sorted(tuple(c * resolution for c in mp.apply(p).coords) for p in lat.points)
                assert images == list(lat.int_points), (mp.name, resolution)


def test_proved_certificates_pass_the_sampled_oracle():
    for cert in SUPPORTED:
        assert verify_certificate(cert).passed
        functions = [
            make_random(cert.k, averageable.TRANSPORT_RESOLUTION, seed)
            for seed in range(2024, 2044)
        ]
        assert sampled_transport(cert, functions) == (True, ""), (cert.k, cert.m)


def test_explicit_functions_accepted():
    # The oracle takes explicit functions, and its tolerance still tells
    # a transported mean from one over the wrong target.
    lat = lattice(2, 4)
    half = sampled_function(lat, [0 if 4 in pt else Fraction(-1, 2) for pt in lat.int_points])
    assert sampled_transport(averaging_certificate(2, 2), [half]) == (True, "")
    spikes = sampled_function(lat, [0 if 4 in pt else -1 for pt in lat.int_points])
    cert = _inner_points_only(averaging_certificate(2, 1))
    assert sampled_transport(cert, [spikes]) == (False, "function 0: -1 < -4/5 minus tolerance")


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


def _lp_spy(monkeypatch):
    """A list that gets one entry per exactlp.solve_lp call."""
    from supconvex import exactlp

    calls = []
    solve_lp = exactlp.solve_lp

    def spy(*args):
        calls.append(args)
        return solve_lp(*args)

    monkeypatch.setattr(exactlp, "solve_lp", spy)
    return calls


def test_supported_tilings_are_proved_by_facets_alone(monkeypatch):
    # Every pair of domain pieces and of image pieces in the supported
    # certificates is separated by a facet plane of one of the two, so
    # no overlap LP runs.
    calls = _lp_spy(monkeypatch)
    for cert in SUPPORTED:
        assert verify_certificate(cert).passed, (cert.k, cert.m)
    assert calls == []


def test_one_verification_measures_each_distinct_simplex_once(monkeypatch):
    # The volumes of domains, piece images and average images are read
    # by several checks; each distinct simplex is measured once per call.
    calls = []
    relative_volume = averageable.relative_volume

    def spy(s):
        calls.append(s)
        return relative_volume(s)

    monkeypatch.setattr(averageable, "relative_volume", spy)
    for cert in (*SUPPORTED, _overlapping_domains(averaging_certificate(2, 1))):
        calls.clear()
        verify_certificate(cert)
        pieces = [p for mp in cert.maps for p in mp.pieces]
        measured = {p.domain for p in pieces} | {p.image_simplex() for p in pieces}
        averaged = averageable._average_pieces(cert.maps, cert.m)
        measured |= {p.domain for p in averaged} | {p.image_simplex() for p in averaged}
        assert len(calls) == len(set(calls)), (cert.k, cert.m)
        assert set(calls) == measured, (cert.k, cert.m)


def test_building_and_verifying_makes_no_rational_point(monkeypatch):
    # Construction, targets and checks run on integer rows.  The cached
    # slice volumes are cleared so that their triangulations are
    # measured again under the spy.
    made = []
    init = geometry.BaryPoint.__init__

    def spy(self, *args, **kwargs):
        made.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(geometry.BaryPoint, "__init__", spy)
    subdivision.hypersimplex_volume.cache_clear()
    subdivision.cell_volume.cache_clear()
    for build in BUILDS:
        assert verify_certificate(build()).passed
    assert made == []
