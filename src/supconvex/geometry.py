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

Everything is exact; there is no floating point in this module.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._rational import ONE, ZERO, Rat
from .exactlp import eliminate

# Hard cap on the simplex dimension k.  Enumeration sizes grow like
# N**k; the cap keeps every public operation tractable.
DIM_CAP = 6


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


def _chart_rows(verts):
    """Rows of vertex differences in the drop-last-coordinate chart."""
    base = verts[0].coords
    k = len(verts) - 1
    return [
        [verts[i].coords[j] - base[j] for j in range(k)]
        for i in range(1, k + 1)
    ]


def relative_volume(s: Simplex):
    """Volume of s divided by the volume of the standard simplex.

    Computed as |det| of the chart matrix of vertex differences; the
    chart is chosen so the standard simplex has determinant exactly 1.
    """
    det, _ = eliminate(_chart_rows(s.vertices))
    if det == 0:
        raise DegenerateSimplexError("zero-volume simplex")
    return abs(det)


def contains(s: Simplex, p: BaryPoint) -> bool:
    """Exact membership test: p lies in s (boundary included).

    Solves for the barycentric weights of p with respect to the
    vertices of s and checks they are a convex combination.
    """
    if p.dim != s.k:
        raise ValueError("point and simplex dimensions differ")
    rows = list(zip(*(v.coords for v in s.vertices)))  # vertices as columns
    _, solution = eliminate(rows, [p.coords])
    if solution is None:
        raise DegenerateSimplexError("zero-volume simplex")
    weights = solution[0]
    if sum(weights, ZERO) != 1:
        return False
    return all(w >= 0 for w in weights)


def simplices_interior_intersect(a: Simplex, b: Simplex) -> bool:
    """Whether two full-dimensional simplices share an interior point.

    Maximises t subject to: a point with all barycentric weights >= t in
    both simplices exists.  The optimum is positive exactly when the
    open interiors meet; infeasibility means even the closed simplices
    are disjoint.
    """
    # Looked up at call time, so that a wrapper installed on
    # exactlp.solve_lp (as benchmarks/tracing.py does) sees these solves.
    from .exactlp import solve_lp

    if a.k != b.k:
        raise ValueError("simplex dimensions differ")
    relative_volume(a)
    relative_volume(b)
    k = a.k
    rows = k + 3  # k+1 coordinate equations, two weight-sum equations
    cols = []
    # Column for t: weights t on every vertex of a minus every vertex of b.
    t_col = [ZERO] * rows
    for v in a.vertices:
        for i in range(k + 1):
            t_col[i] += v.coords[i]
    for v in b.vertices:
        for i in range(k + 1):
            t_col[i] -= v.coords[i]
    t_col[k + 1] = Rat(k + 1)
    t_col[k + 2] = Rat(k + 1)
    cols.append(tuple(t_col))
    # Slack weights on a's vertices.
    for v in a.vertices:
        col = list(v.coords) + [ONE, ZERO]
        cols.append(tuple(col))
    # Slack weights on b's vertices, negated in the coordinate rows.
    for v in b.vertices:
        col = [-c for c in v.coords] + [ZERO, ONE]
        cols.append(tuple(col))
    objective = [ONE] + [ZERO] * (2 * (k + 1))
    rhs = [ZERO] * (k + 1) + [ONE, ONE]
    status, value, _ = solve_lp(cols, objective, rhs)
    if status == "infeasible":
        return False
    if status != "optimal":  # pragma: no cover - t is bounded by 1/(k+1)
        raise ArithmeticError(f"unexpected LP status {status}")
    return value > 0


class BaryLattice:
    """All points of T with coordinates that are multiples of 1/N.

    Points are stored both as integer coordinate vectors (summing to N)
    and as BaryPoints, in ascending lexicographic order of the integer
    vectors.  The order is part of the contract: serialization and the
    warm-started envelope solver both rely on it.
    """

    def __init__(self, k: int, resolution: int):
        _check_dim(k)
        if resolution < 1:
            raise ValueError("resolution must be >= 1")
        self.k = k
        self.resolution = resolution
        self.int_points = tuple(compositions(resolution, k + 1))
        n = Rat(resolution)
        self.points = tuple(
            BaryPoint(tuple(Rat(c) / n for c in ints)) for ints in self.int_points
        )
        self._index = {ints: i for i, ints in enumerate(self.int_points)}

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


def lattice(k: int, resolution: int) -> BaryLattice:
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
