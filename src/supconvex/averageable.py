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
target, and the transport inequality on the lattice.  Every check is
exact.  The transport check proves that every piece of every map has
an integer matrix and that each map permutes the lattice L_N at
N = TRANSPORT_RESOLUTION.  Then, for every f on L_N at once,

    sum_x S_m(H_1 x + ... + H_m x) >= m sum_x f(x),

S_m(s) being the best sum of m values of f over lattice points that
sum to s, so no function is sampled and no tolerance is used.  A piece
holds the integer rows of [matrix | offset] over one positive
denominator, as a simplex holds its vertices: pieces are solved,
averaged, applied and tested for integrality on those rows, and only
the volumes and witnesses of the report are rational.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from operator import mul

from ._rational import ONE, Rat, scaled
from .exactlp import eliminate
from .geometry import (
    BaryPoint,
    Simplex,
    contains,
    contains_points,
    lattice,
    relative_volume,
    simplex,
    simplices_interior_intersect,
    standard_simplex,
)
from .subdivision import cell_volume
# Unused here; kept because benchmarks/tracing.py wraps this name in
# this module, and its trace mode fails without it.
from .supconvolve import sup_convolve_n  # noqa: F401


# Lattice resolution at which the transport check proves each map
# permutes the lattice.
TRANSPORT_RESOLUTION = 4


class UnsupportedCertificateError(ValueError):
    """Requested (k, m) family has no constructed certificate."""


@dataclass(frozen=True)
class AffinePiece:
    """x -> matrix @ x + offset on a simplex domain, in barycentric
    coordinates: rows are the integer rows of [matrix | offset] over
    the positive denominator den."""

    domain: Simplex
    rows: tuple
    den: int

    def _image(self, x, q):
        """Numerators over den * q of the image of the point x / q."""
        column = (*x, q)  # q is the offset column's coordinate
        return tuple(sum(map(mul, row, column)) for row in self.rows)

    def apply(self, p: BaryPoint) -> BaryPoint:
        x, q = scaled(p.coords)
        den = self.den * q
        return BaryPoint(tuple(Rat(v, den) for v in self._image(x, q)))

    def image_simplex(self) -> Simplex:
        dom = self.domain
        return Simplex(tuple(self._image(row, dom.den) for row in dom.rows), self.den * dom.den)


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
    # Row r of the matrix solves (vertex j) . row = (image j)[r] for all j.
    # With vertices rows / D and images W / E, that is rows (E row) = D W[:, r],
    # so the eliminated column r is det E times row r.
    image = simplex(images)
    rhs = [[domain.den * w[r] for w in image.rows] for r in range(domain.k + 1)]
    det, cols = eliminate(domain.rows, rhs)
    if cols is None:
        raise ValueError("degenerate domain simplex")
    sign = 1 if det > 0 else -1  # so that den = |det| E is positive
    rows = tuple((*(sign * v for v in col), 0) for col in cols)
    return AffinePiece(domain, rows, abs(det) * image.den)


def _identity_map(tri: Simplex) -> PLMap:
    return PLMap("identity", (_piece_from_vertex_images(tri, tri.vertices),))


def _in_simplex(p: BaryPoint) -> bool:
    return all(c >= 0 for c in p.coords) and p.total == 1


def _midpoint(a: BaryPoint, b: BaryPoint) -> BaryPoint:
    half = Rat(1, 2)
    return BaryPoint(tuple((x + y) * half for x, y in zip(a.coords, b.coords)))


def _scaled_slice_region(k: int, m: int) -> TargetRegion:
    """(1/m) * slice(k, m) inside T: all coordinates at most 1/m."""
    vol = cell_volume(k, m, m)

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
    out = []
    for dom_piece in multi[0].pieces if multi else (maps[0].pieces[0],):
        pieces = [dom_piece if len(mp.pieces) > 1 else mp.pieces[0] for mp in maps]
        den = lcm(*(p.den for p in pieces))
        per_piece = [[[c * (den // p.den) for c in row] for row in p.rows] for p in pieces]
        rows = tuple(tuple(map(sum, zip(*same_row))) for same_row in zip(*per_piece))
        out.append(AffinePiece(dom_piece.domain, rows, den * m))
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
        wedge = simplex((e[i], e[(i + 1) % 4], axis[0], axis[1]))
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
    target_simplex = simplex(
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


def _permutation_witness(mp: PLMap, lat) -> str:
    """Why mp is not an integral map that permutes the lattice lat, or
    "" when it is.

    Each lattice point goes to the first piece whose domain contains it,
    as in PLMap.apply: one contains_points call per piece tests all the
    points still unassigned.  A single piece needs no assignment, since
    the domain tiling proves its domain is T.
    """
    for idx, piece in enumerate(mp.pieces):
        if any(c % piece.den for row in piece.rows for c in row):
            return f"piece {idx} is not integral"
    n = lat.resolution
    if len(mp.pieces) == 1:
        owned = [(mp.pieces[0], lat.int_points)]
    else:
        owned, rest = [], lat.int_points
        for piece in mp.pieces:
            inside = contains_points(piece.domain, rest, n)
            owned.append((piece, [x for x, keep in zip(rest, inside) if keep]))
            rest = [x for x, keep in zip(rest, inside) if not keep]
    images = sorted(
        tuple(c // piece.den for c in piece._image(x, n)) for piece, points in owned for x in points
    )
    return "" if images == list(lat.int_points) else f"does not permute L_{n}"


def verify_certificate(cert: AverageabilityCertificate) -> VerificationReport:
    """Re-derive and check every claim of a certificate from its maps.

    Every check is exact.  The transport check proves the lattice form
    of the push-forward: every piece of every map is integral (its
    denominator divides every entry of its rows), and each map permutes the
    lattice L_N at N = TRANSPORT_RESOLUTION.  Then H_i x lies in L_N
    for every x in L_N, so S_m(H_1 x + ... + H_m x) >= f(H_1 x) + ...
    + f(H_m x), and summing over x, each sum over H_i x being a sum over
    L_N, gives m sum_x f(x) for every f at once.  That the average
    A(x) = (H_1 x + ... + H_m x)/m lies in the target is image-tiling's
    check: A is affine on each piece, S is convex, and every image
    vertex is checked to lie in S.
    """
    checks = []
    for mp in cert.maps:
        checks.append(
            _simplices_tile(
                tuple(p.domain for p in mp.pieces), ONE, _in_simplex, f"domain-tiling:{mp.name}"
            )
        )
        for idx, piece in enumerate(mp.pieces):
            ratio = relative_volume(piece.image_simplex()) / relative_volume(piece.domain)
            if ratio != 1:
                witness = f"piece {idx} scales volume by {ratio}"
                break
        else:
            witness = ""
        checks.append(CheckResult(f"piece-measure:{mp.name}", not witness, witness))

    # An empty family has no pieces to average, and so no image.
    avg = _average_pieces(cert.maps, cert.m) if cert.maps else ()
    images = tuple(p.image_simplex() for p in avg)
    for idx, (piece, img) in enumerate(zip(avg, images)):
        ratio = relative_volume(img) / relative_volume(piece.domain)
        if ratio != cert.jacobian:
            witness = f"piece {idx} has jacobian {ratio}, certificate says {cert.jacobian}"
            break
    else:
        witness = ""
        if len(cert.maps) != cert.m:
            witness = f"{len(cert.maps)} maps to average, certificate says m = {cert.m}"
        elif cert.jacobian != cert.target.rel_volume:
            witness = f"jacobian {cert.jacobian} differs from |S|/|T| = {cert.target.rel_volume}"
    checks.append(CheckResult("average-jacobian", not witness, witness))

    checks.append(
        _simplices_tile(images, cert.target.rel_volume, cert.target.member, "image-tiling")
    )

    lat = lattice(cert.k, TRANSPORT_RESOLUTION)
    witness = next(
        (f"{mp.name}: {w}" for mp in cert.maps if (w := _permutation_witness(mp, lat))), ""
    )
    checks.append(CheckResult("transport", not witness, witness))

    return VerificationReport(all(c.passed for c in checks), tuple(checks))
