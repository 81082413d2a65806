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
sum to s, so no function is sampled and no tolerance is used.  Pieces
are solved, applied and compared on integer numerators over one
denominator; the rational matrices and volumes are formed only for the
certificate and its report.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import mul

from ._rational import ONE, ZERO, Rat, scaled
from .exactlp import eliminate
from .geometry import (
    BaryPoint,
    Simplex,
    _integer_points,
    contains,
    lattice,
    relative_volume,
    simplices_interior_intersect,
    standard_simplex,
)
from .subdivision import hypersimplex_vertices, hypersimplex_volume
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
    coordinates."""

    domain: Simplex
    matrix: tuple  # rows, each a tuple of rationals
    offset: tuple

    @cached_property
    def _numerators(self):
        """(rows of [matrix | offset] as integers over den, den)."""
        d = len(self.offset)
        nums, den = scaled([*(v for row in self.matrix for v in row), *self.offset])
        return [nums[r * d:(r + 1) * d] + [nums[d * d + r]] for r in range(d)], den

    def apply(self, p: BaryPoint) -> BaryPoint:
        rows, den = self._numerators
        nums, p_den = scaled(p.coords)
        nums.append(p_den)  # the offset column's coordinate
        den *= p_den
        return BaryPoint(tuple(Rat(sum(map(mul, row, nums)), den) for row in rows))

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
    # Row r of the matrix solves (vertex j) . row = (image j)[r] for all j,
    # on integer coordinates over one denominator; rows[r] is det * row r.
    points, _ = _integer_points(domain.vertices + tuple(images))
    det, rows = eliminate(points[:d], [[image[r] for image in points[d:]] for r in range(d)])
    if rows is None:
        raise ValueError("degenerate domain simplex")
    return AffinePiece(domain, tuple(tuple(Rat(v, det) for v in row) for row in rows), (ZERO,) * d)


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
    out = []
    for dom_piece in multi[0].pieces if multi else (maps[0].pieces[0],):
        pieces = [dom_piece if len(mp.pieces) > 1 else mp.pieces[0] for mp in maps]
        matrix = tuple(
            tuple(sum(cells, ZERO) / m for cells in zip(*rows))
            for rows in zip(*(p.matrix for p in pieces))
        )
        offset = tuple(sum(offs, ZERO) / m for offs in zip(*(p.offset for p in pieces)))
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


def _permutation_witness(mp: PLMap, lat) -> str:
    """Why mp is not an integral map that permutes the lattice lat, or
    "" when it is.

    Each lattice point goes to the first piece whose domain contains it,
    as in PLMap.apply: one elimination per piece solves for the
    barycentric weights of all points still unassigned.  A single piece
    needs no assignment, since the domain tiling proves its domain is T.
    """
    for idx, piece in enumerate(mp.pieces):
        if piece._numerators[1] != 1:
            return f"piece {idx} is not integral"
    n = lat.resolution
    if len(mp.pieces) == 1:
        owned = [(mp.pieces[0], lat.int_points)]
    else:
        owned, rest = [], lat.int_points
        for piece in mp.pieces:
            # verts w = x / n as verts (n w) = den x, solved for X = det n w.
            verts, den = _integer_points(piece.domain.vertices)
            det, solution = eliminate(list(zip(*verts)), [[den * c for c in x] for x in rest])
            inside = [
                sum(ws) == det * n and all(w * det >= 0 for w in ws) for ws in solution
            ]
            owned.append((piece, [x for x, keep in zip(rest, inside) if keep]))
            rest = [x for x, keep in zip(rest, inside) if not keep]
    images = sorted(
        tuple(sum(map(mul, row, (*x, n))) for row in piece._numerators[0])
        for piece, points in owned
        for x in points
    )
    return "" if images == list(lat.int_points) else f"does not permute L_{n}"


def verify_certificate(cert: AverageabilityCertificate) -> VerificationReport:
    """Re-derive and check every claim of a certificate from its maps.

    Every check is exact.  The transport check proves the lattice form
    of the push-forward: every piece of every map is integral (its
    integer numerators have denominator 1), and each map permutes the
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

    avg = _average_pieces(cert.maps, cert.m)
    images = tuple(p.image_simplex() for p in avg)
    for idx, (piece, img) in enumerate(zip(avg, images)):
        ratio = relative_volume(img) / relative_volume(piece.domain)
        if ratio != cert.jacobian:
            witness = f"piece {idx} has jacobian {ratio}, certificate says {cert.jacobian}"
            break
    else:
        witness = ""
        if cert.jacobian != cert.target.rel_volume:
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
