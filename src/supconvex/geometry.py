"""Exact geometry on the standard simplex in barycentric coordinates.

A point of the standard k-simplex T is a tuple of k+1 nonnegative
rationals summing to 1.  Barycentric coordinates are the universal
coordinate system here: dilated simplices, subdivision cells, and
hypersimplex slices all live in hyperplanes {sum(x) = const} of the same
ambient space, so one chart serves them all.

Volumes are *relative*: the chart drops the last coordinate and measures
k-dimensional volume in the resulting affine chart, normalised so that
the standard simplex itself has volume exactly 1.  Parallel hyperplanes
{sum(x) = c} project through the same linear chart, so relative volumes
of simplices with different coordinate totals remain directly
comparable.

Everything is exact, with no floating point.  Volumes, containment and
overlap scale a simplex's vertices, and the query point, to integers
over one common denominator D and eliminate fraction-free
(exactlp.eliminate); only the returned volumes, |det| / D**k, are
rational.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb

from ._rational import ONE, ZERO, Rat, scaled
from .exactlp import eliminate

# Hard cap on the simplex dimension k.  Enumeration sizes grow like
# N**k; the cap keeps every public operation tractable.
DIM_CAP = 6
# Cap on the lattice size C(N + k, k).  On a 2-vCPU host the largest
# accepted lattices (k = 1..6) take 3.5-4.8 s and 0.28-0.33 GB for
# `supconvex random`.
LATTICE_CAP = 5 * 10**5


class DegenerateSimplexError(ValueError):
    """Raised when an operation needs affinely independent vertices."""


def _check_dim(k: int) -> None:
    if not 1 <= k <= DIM_CAP:
        raise ValueError(f"dimension k must be in 1..{DIM_CAP}, got {k}")


@dataclass(frozen=True)
class BaryPoint:
    """A point in barycentric coordinates (tuple of exact rationals)."""

    coords: tuple

    @property
    def dim(self) -> int:
        return len(self.coords) - 1

    @property
    def total(self):
        return sum(self.coords, ZERO)

    def __iter__(self):
        return iter(self.coords)


def bary_point(values) -> BaryPoint:
    """Coerce a sequence of rational-like values into a BaryPoint."""
    return BaryPoint(tuple(Rat(v) for v in values))


@dataclass(frozen=True)
class Simplex:
    """A k-simplex given by k+1 barycentric vertices.

    Construction is lightweight; degeneracy (zero volume) is detected by
    the operations that need nondegeneracy and signalled with
    DegenerateSimplexError.
    """

    vertices: tuple

    def __post_init__(self):
        dims = {v.dim for v in self.vertices}
        if len(dims) != 1:
            raise ValueError("simplex vertices must share one dimension")
        (d,) = dims
        if len(self.vertices) != d + 1:
            raise ValueError(
                f"need {d + 1} vertices for a {d}-simplex, got {len(self.vertices)}"
            )

    @property
    def k(self) -> int:
        return len(self.vertices) - 1


def simplex(points) -> Simplex:
    return Simplex(tuple(p if isinstance(p, BaryPoint) else bary_point(p) for p in points))


def standard_simplex(k: int) -> Simplex:
    _check_dim(k)
    verts = []
    for i in range(k + 1):
        coords = [ZERO] * (k + 1)
        coords[i] = ONE
        verts.append(BaryPoint(tuple(coords)))
    return Simplex(tuple(verts))


def barycenter(k: int) -> BaryPoint:
    return BaryPoint(tuple(Rat(1, k + 1) for _ in range(k + 1)))


def _integer_points(points):
    """Coordinates of points as integers over one common denominator D:
    (rows, D), rows[i][j] = D * points[i].coords[j]."""
    nums, den = scaled([c for p in points for c in p.coords])
    d = len(points[0].coords)
    return [nums[i:i + d] for i in range(0, len(nums), d)], den


def _chart_det(verts) -> int:
    """det of the integer vertex differences in the drop-last-coordinate
    chart; nonzero exactly when the simplex is nondegenerate."""
    base, k = verts[0], len(verts) - 1
    det, _ = eliminate([[v[j] - base[j] for j in range(k)] for v in verts[1:]])
    if det == 0:
        raise DegenerateSimplexError("zero-volume simplex")
    return det


def relative_volume(s: Simplex):
    """Volume of s divided by the volume of the standard simplex.

    |det| of the chart matrix of vertex differences, whose chart is
    chosen so the standard simplex has determinant exactly 1; computed
    on integer coordinates over D, it is |det| / D**k.
    """
    verts, den = _integer_points(s.vertices)
    return Rat(abs(_chart_det(verts)), den ** s.k)


def contains(s: Simplex, p: BaryPoint) -> bool:
    """Exact membership test: p lies in s (boundary included).

    Solves for the barycentric weights w of p with respect to the
    vertices of s, as X = det * w on integer coordinates over one
    denominator, and checks they are a convex combination.
    """
    if p.dim != s.k:
        raise ValueError("point and simplex dimensions differ")
    (*verts, point), _ = _integer_points(s.vertices + (p,))
    det, solution = eliminate(list(zip(*verts)), [point])  # vertices as columns
    if solution is None:
        raise DegenerateSimplexError("zero-volume simplex")
    weights = solution[0]
    return sum(weights) == det and all(w * det >= 0 for w in weights)


def simplices_interior_intersect(a: Simplex, b: Simplex) -> bool:
    """Whether two full-dimensional simplices share an interior point.

    Maximises t subject to: a point with all barycentric weights >= t in
    both simplices exists.  The optimum is positive exactly when the
    open interiors meet; infeasibility means even the closed simplices
    are disjoint.  The coordinate rows, scaled by the common denominator
    D of both vertex sets, make every column an integer vector.
    """
    # Looked up at call time, so that a wrapper installed on
    # exactlp.solve_lp (as benchmarks/tracing.py does) sees these solves.
    from .exactlp import solve_lp

    if a.k != b.k:
        raise ValueError("simplex dimensions differ")
    d = a.k + 1
    verts, _ = _integer_points(a.vertices + b.vertices)
    _chart_det(verts[:d])
    _chart_det(verts[d:])
    # Column for t: weights t on every vertex of a minus every vertex of b,
    # then the two weight-sum equations; then a's slack weights, and b's,
    # negated in the coordinate rows.
    t_col = [sum(col[:d]) - sum(col[d:]) for col in zip(*verts)] + [d, d]
    cols = [t_col] + [v + [1, 0] for v in verts[:d]] + [[-c for c in v] + [0, 1] for v in verts[d:]]
    status, value, _ = solve_lp(cols, [1] + [0] * (2 * d), [0] * d + [1, 1])
    if status == "infeasible":
        return False
    if status != "optimal":  # pragma: no cover - t is bounded by 1/(k+1)
        raise ArithmeticError(f"unexpected LP status {status}")
    return value > 0


class BaryLattice:
    """All points of T with coordinates that are multiples of 1/N.

    Points are stored as integer coordinate vectors (summing to N), in
    ascending lexicographic order.  The order is part of the contract:
    serialization and the warm-started envelope solver both rely on it.
    points, the BaryPoint view of rationals c / N, is made on first use;
    no kernel reads it.
    """

    def __init__(self, k: int, resolution: int):
        _check_dim(k)
        if resolution < 1:
            raise ValueError("resolution must be >= 1")
        size = comb(resolution + k, k)
        if size > LATTICE_CAP:
            raise ValueError(f"lattice k={k}, N={resolution} has {size} points (cap {LATTICE_CAP})")
        self.k = k
        self.resolution = resolution
        self.int_points = tuple(compositions(resolution, k + 1))
        self._index = {ints: i for i, ints in enumerate(self.int_points)}

    @cached_property
    def points(self) -> tuple:
        n = self.resolution
        return tuple(BaryPoint(tuple(Rat(c, n) for c in ints)) for ints in self.int_points)

    def __len__(self) -> int:
        return len(self.int_points)

    def index(self, int_coords) -> int:
        try:
            return self._index[tuple(int_coords)]
        except KeyError:
            raise ValueError(f"not a lattice point: {int_coords}") from None

    def vertex_indices(self):
        """Indices of the k+1 simplex vertices within the lattice."""
        out = []
        for i in range(self.k + 1):
            ints = [0] * (self.k + 1)
            ints[i] = self.resolution
            out.append(self._index[tuple(ints)])
        return tuple(out)

    def __eq__(self, other):
        return (
            isinstance(other, BaryLattice)
            and self.k == other.k
            and self.resolution == other.resolution
        )

    def __hash__(self):
        return hash((self.k, self.resolution))


@lru_cache(maxsize=8, typed=True)
def lattice(k: int, resolution: int) -> BaryLattice:
    """The lattice of denominator-resolution points of the k-simplex.

    A lattice is never modified after construction, so one instance per
    (k, resolution) is shared; the few most recent are kept, since the
    averageable transport check asks for the same one on every
    certificate of a given k.
    typed=True keeps lattice(True, N) from standing in for lattice(1, N).
    """
    return BaryLattice(k, resolution)


def compositions(total: int, parts: int):
    """Yield all nonnegative integer tuples of given length and sum.

    Ascending lexicographic order.
    """
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest
