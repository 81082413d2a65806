"""Piecewise-affine map families whose average contracts T onto a
smaller region with constant jacobian.

An m-averageable family is m piecewise-affine maps H_1..H_m from the
standard simplex T to itself, each piece measure preserving
(|det| = 1), whose pointwise average is a generically bijective map
from T onto a target region S with constant jacobian |S|/|T|.  Such a
family transports the m-fold sup-convolution: averaging witnesses
H_1(x)..H_m(x) shows conv(f, m) on S dominates the push-forward of f,
which is the mechanism behind the lower-bound constants.

This module builds explicit certificates for the families

- (k, 1): the identity (trivially 1-averageable),
- (k, k): the cyclic coordinate rotations, averaging onto the scaled
  hypersimplex slice (1/k) * slice(k, k),
- (3, 2): the identity and a piecewise rotation of four wedges around
  the diagonal-midpoint axis, averaging onto (1/2) * slice(3, 2),
- a medial variant for k = 3: the identity and a single 3-cycle
  rotation, averaging onto a quarter-volume simplex,

and verifies any certificate from scratch: domain tilings, per-piece
measure preservation, the constant jacobian, the image tiling of the
target, and a check of the transport inequality on sampled functions.
All geometric checks are exact; only the transport check uses a
tolerance, because it compares lattice means at the fixed resolution
TRANSPORT_RESOLUTION, which stand in for the integrals over S and T.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._rational import ONE, ZERO, Rat, scaled
from .exactlp import eliminate
from .geometry import (
    BaryPoint,
    Simplex,
    contains,
    lattice,  # noqa: F401 - unused here; benchmarks/tracing.py wraps averageable.lattice
    relative_volume,
    simplices_interior_intersect,
    standard_simplex,
)
from .harness import DEFAULT_TOL_ABS, DEFAULT_TOL_REL, RANDOM_DENOMINATOR, random_numerators
from .subdivision import hypersimplex_vertices, hypersimplex_volume
from .supconvolve import best_sums_n
# Unused here; kept because benchmarks/tracing.py wraps this name in
# this module, and its trace mode fails without it.
from .supconvolve import sup_convolve_n  # noqa: F401


# Lattice resolution of the transport check's sampled functions.
TRANSPORT_RESOLUTION = 4
# Cap on the transport check's random trials.  On a 2-vCPU host the
# slowest trial, that of the (4, 4) certificate, takes 3-4.5 ms, and
# `averageable --k 4 --m 4` at the cap takes 15 s.
TRIALS_CAP = 5000


class UnsupportedCertificateError(ValueError):
    """Requested (k, m) family has no constructed certificate."""


@dataclass(frozen=True)
class AffinePiece:
    """x -> matrix @ x + offset on a simplex domain, in barycentric
    coordinates."""

    domain: Simplex
    matrix: tuple  # rows, each a tuple of rationals
    offset: tuple

    def apply(self, p: BaryPoint) -> BaryPoint:
        coords = tuple(
            sum((row[i] * p.coords[i] for i in range(len(row))), ZERO) + o
            for row, o in zip(self.matrix, self.offset)
        )
        return BaryPoint(coords)

    def image_simplex(self) -> Simplex:
        return Simplex(tuple(self.apply(v) for v in self.domain.vertices))


@dataclass(frozen=True)
class PLMap:
    name: str
    pieces: tuple

    def apply(self, p: BaryPoint) -> BaryPoint:
        for piece in self.pieces:
            if contains(piece.domain, p):
                return piece.apply(p)
        raise ValueError(f"point outside every domain piece of {self.name}")


@dataclass(frozen=True)
class TargetRegion:
    """Convex target S of the averaged map, with exact volume and an
    exact membership test."""

    name: str
    rel_volume: object
    member: object  # BaryPoint -> bool


@dataclass(frozen=True)
class AverageabilityCertificate:
    k: int
    m: int
    maps: tuple
    target: TargetRegion
    image_pieces: tuple
    jacobian: object


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    witness: str = ""


@dataclass(frozen=True)
class VerificationReport:
    passed: bool
    checks: tuple


# -- explicit constructions -----------------------------------------------


def _piece_from_vertex_images(domain: Simplex, images) -> AffinePiece:
    """The linear piece sending each domain vertex to its image.

    Vertices of a nondegenerate simplex in {sum = 1} are linearly
    independent, so a pure matrix (offset zero) always exists.
    """
    d = domain.k + 1
    # Row r of the matrix solves (vertex j) . row = (image j)[r] for all j.
    _, rows = eliminate(
        [v.coords for v in domain.vertices],
        [[images[j].coords[r] for j in range(d)] for r in range(d)],
    )
    if rows is None:
        raise ValueError("degenerate domain simplex")
    return AffinePiece(domain, tuple(tuple(row) for row in rows), (ZERO,) * d)


def _identity_map(tri: Simplex) -> PLMap:
    return PLMap("identity", (_piece_from_vertex_images(tri, tri.vertices),))


def _in_simplex(p: BaryPoint) -> bool:
    return all(c >= 0 for c in p.coords) and p.total == 1


def _midpoint(a: BaryPoint, b: BaryPoint) -> BaryPoint:
    half = Rat(1, 2)
    return BaryPoint(tuple((x + y) * half for x, y in zip(a.coords, b.coords)))


def _scaled_slice_region(k: int, m: int) -> TargetRegion:
    """(1/m) * slice(k, m) inside T: all coordinates at most 1/m."""
    vol = hypersimplex_volume(k, m) / Rat(m) ** k

    def member(p: BaryPoint) -> bool:
        return all(m * c <= 1 for c in p.coords)

    return TargetRegion(f"slice({k},{m})/{m}", vol, member)


def _average_pieces(maps, m: int):
    """Pieces of (H_1 + ... + H_m)/m.

    Supports the certificate shapes built here: at most one map is
    multi-piece, all others are single-piece with domain covering it.
    """
    multi = [mp for mp in maps if len(mp.pieces) > 1]
    if len(multi) > 1:
        raise UnsupportedCertificateError("more than one multi-piece map")
    inv_m = Rat(1, m)
    domains = multi[0].pieces if multi else (maps[0].pieces[0],)
    out = []
    for dom_piece in domains:
        d = dom_piece.domain.k + 1
        rows = [[ZERO] * d for _ in range(d)]
        offs = [ZERO] * d
        for mp in maps:
            piece = dom_piece if len(mp.pieces) > 1 else mp.pieces[0]
            for r in range(d):
                prow = piece.matrix[r]
                orow = rows[r]
                for c in range(d):
                    orow[c] += prow[c]
                offs[r] += piece.offset[r]
        matrix = tuple(tuple(v * inv_m for v in row) for row in rows)
        offset = tuple(v * inv_m for v in offs)
        out.append(AffinePiece(dom_piece.domain, matrix, offset))
    return tuple(out)


def averaging_certificate(k: int, m: int) -> AverageabilityCertificate:
    """Certificate for the supported families: (k, 1) and (k, k) for
    k <= 4, plus (3, 2)."""
    if m == 1 and 1 <= k <= 4:
        return _identity_certificate(k)
    if m == k and 1 <= k <= 4:
        return _cyclic_certificate(k)
    if (k, m) == (3, 2):
        return _wedge_certificate()
    raise UnsupportedCertificateError(f"no constructed family for (k, m) = ({k}, {m})")


def _finish(k, m, maps, target) -> AverageabilityCertificate:
    avg = _average_pieces(maps, m)
    images = tuple(p.image_simplex() for p in avg)
    jacobians = {relative_volume(img) / relative_volume(p.domain) for p, img in zip(avg, images)}
    if len(jacobians) != 1:
        raise ValueError("average jacobian is not constant across pieces")
    (jac,) = jacobians
    return AverageabilityCertificate(k, m, tuple(maps), target, images, jac)


def _identity_certificate(k: int) -> AverageabilityCertificate:
    target = TargetRegion("simplex", ONE, _in_simplex)
    return _finish(k, 1, (_identity_map(standard_simplex(k)),), target)


def _cyclic_certificate(k: int) -> AverageabilityCertificate:
    tri = standard_simplex(k)
    e = tri.vertices
    maps = tuple(
        PLMap(f"rotate{i}", (_piece_from_vertex_images(tri, e[i:] + e[:i]),))
        for i in range(k)
    )
    return _finish(k, k, maps, _scaled_slice_region(k, k))


def _wedge_certificate() -> AverageabilityCertificate:
    k = 3
    tri = standard_simplex(k)
    e = tri.vertices
    axis = (_midpoint(e[0], e[2]), _midpoint(e[1], e[3]))
    pieces = []
    for i in range(4):
        wedge = Simplex((e[i], e[(i + 1) % 4], axis[0], axis[1]))
        images = (e[(i + 1) % 4], e[(i + 2) % 4], axis[0], axis[1])
        pieces.append(_piece_from_vertex_images(wedge, images))
    rotation = PLMap("wedge-rotation", tuple(pieces))
    return _finish(k, 2, (_identity_map(tri), rotation), _scaled_slice_region(k, 2))


def medial_certificate() -> AverageabilityCertificate:
    """k = 3 variant: identity plus one 3-cycle of the first three
    vertices; the average contracts T onto a quarter-volume simplex."""
    k = 3
    tri = standard_simplex(k)
    e = tri.vertices
    images = (e[1], e[2], e[0], e[3])
    rotation = PLMap("three-cycle", (_piece_from_vertex_images(tri, images),))
    target_simplex = Simplex(
        (_midpoint(e[0], e[1]), _midpoint(e[1], e[2]), _midpoint(e[2], e[0]), e[3])
    )

    def member(p: BaryPoint) -> bool:
        return contains(target_simplex, p)

    target = TargetRegion("medial-cone", relative_volume(target_simplex), member)
    return _finish(k, 2, (_identity_map(tri), rotation), target)


# -- verification ----------------------------------------------------------


def _simplices_tile(simplices, expected_volume, inside, label):
    """Exact tiling check: volumes sum, pairwise disjoint interiors,
    vertices inside the ambient region."""
    total = sum((relative_volume(s) for s in simplices), Rat(0))
    if total != expected_volume:
        return CheckResult(label, False, f"volumes sum to {total}, want {expected_volume}")
    for s in simplices:
        for v in s.vertices:
            if not inside(v):
                return CheckResult(label, False, f"vertex {tuple(v.coords)} outside region")
    for i in range(len(simplices)):
        for j in range(i + 1, len(simplices)):
            if simplices_interior_intersect(simplices[i], simplices[j]):
                return CheckResult(label, False, f"pieces {i} and {j} overlap")
    return CheckResult(label, True)


def verify_certificate(
    cert: AverageabilityCertificate,
    functions=None,
    trials: int = 20,
    seed: int = 2024,
    tol_rel=DEFAULT_TOL_REL,
    tol_abs=DEFAULT_TOL_ABS,
) -> VerificationReport:
    """Re-derive and check every claim of a certificate from its maps.

    All structural checks are exact.  The final transport check uses
    the tolerance, because lattice means at the fixed resolution
    TRANSPORT_RESOLUTION stand in for the integrals.  It runs on the
    provided functions, which must have the certificate's k (ValueError
    otherwise), or on make_random(k, TRANSPORT_RESOLUTION, seed + t)
    for t < trials (0 at vertices, values in [-1, 0]), each drawn as
    the loop reaches it; trials must lie in 1..TRIALS_CAP.  Transport
    fails when no function was checked.  It runs on integer numerators
    over one denominator per function, and only the two compared means
    are rationals.  Target membership does not depend on the function,
    so it is computed once per distinct lattice.
    """
    if functions is None and not 1 <= trials <= TRIALS_CAP:
        raise ValueError(f"trials must be in 1..{TRIALS_CAP} (cap), got {trials}")
    checks = []
    for mp in cert.maps:
        checks.append(
            _simplices_tile(
                tuple(p.domain for p in mp.pieces), ONE, _in_simplex, f"domain-tiling:{mp.name}"
            )
        )
        ok = True
        for idx, piece in enumerate(mp.pieces):
            ratio = relative_volume(piece.image_simplex()) / relative_volume(piece.domain)
            if ratio != 1:
                checks.append(
                    CheckResult(
                        f"piece-measure:{mp.name}",
                        False,
                        f"piece {idx} scales volume by {ratio}",
                    )
                )
                ok = False
                break
        if ok:
            checks.append(CheckResult(f"piece-measure:{mp.name}", True))

    avg = _average_pieces(cert.maps, cert.m)
    images = tuple(p.image_simplex() for p in avg)
    jac_ok = True
    for idx, (piece, img) in enumerate(zip(avg, images)):
        ratio = relative_volume(img) / relative_volume(piece.domain)
        if ratio != cert.jacobian:
            checks.append(
                CheckResult(
                    "average-jacobian",
                    False,
                    f"piece {idx} has jacobian {ratio}, certificate says {cert.jacobian}",
                )
            )
            jac_ok = False
            break
    if jac_ok:
        if cert.jacobian != cert.target.rel_volume:
            checks.append(
                CheckResult(
                    "average-jacobian",
                    False,
                    f"jacobian {cert.jacobian} differs from |S|/|T| = {cert.target.rel_volume}",
                )
            )
        else:
            checks.append(CheckResult("average-jacobian", True))

    checks.append(
        _simplices_tile(images, cert.target.rel_volume, cert.target.member, "image-tiling")
    )

    if functions is None:
        samples = (
            (*random_numerators(cert.k, TRANSPORT_RESOLUTION, seed + t), RANDOM_DENOMINATOR)
            for t in range(trials)
        )
    else:
        samples = ((f.lattice, *scaled(f.values)) for f in functions)
    vol = cert.target.rel_volume
    transport_ok = True
    witness = ""
    target_masks = {}  # lattice -> per-point membership, independent of f
    t = -1
    for t, (lat, nums, den) in enumerate(samples):
        if lat.k != cert.k:
            raise ValueError(f"function {t} has k = {lat.k}, certificate has k = {cert.k}")
        best = best_sums_n(lat, nums, cert.m)
        mask = target_masks.get(lat)
        if mask is None:
            mask = target_masks[lat] = [cert.target.member(p) for p in lat.points]
        inside = [b for b, keep in zip(best, mask) if keep]
        if not inside:
            transport_ok = False
            witness = "no lattice points inside the target"
            break
        # vol * mean over S of conv_m(f) = sum(best) / (m * den), and
        # vol * mean over L of f = sum(nums) / den.
        lhs = Rat(vol.numerator * sum(inside), vol.denominator * cert.m * den * len(inside))
        rhs = Rat(vol.numerator * sum(nums), vol.denominator * den * len(nums))
        if lhs < rhs - (tol_rel * abs(rhs) + tol_abs):
            transport_ok = False
            witness = f"function {t}: {lhs} < {rhs} minus tolerance"
            break
    if t < 0:
        transport_ok = False
        witness = "no function checked"
    checks.append(CheckResult("transport", transport_ok, witness))

    return VerificationReport(all(c.passed for c in checks), tuple(checks))
