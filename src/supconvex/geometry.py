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

Everything is exact, with no floating point.  A simplex holds its
vertices once, as integer rows over one positive denominator D in
lowest terms; simplex() is where rational vertices are scaled.
Volumes, containment and overlap eliminate on those rows fraction-free
(exactlp.eliminate); only the returned volumes, |det| / D**k, are
rational.  All three work in one chart, the drop-last-coordinate
chart, so a simplex is degenerate for each exactly when its chart
determinant is zero.  One solve gives the barycentric weights of
integer points x / q in a simplex's chart frame, and containment and
overlap both read it.
contains_points tests many points against one simplex in a single
elimination; contains scales its one query point to integers and calls
it, and the averageable transport check calls it once per map piece.
The overlap test first looks for a facet of either simplex with every
vertex of the other on its closed far side, from the weights of the
other's vertices, in integers; only a pair that no facet separates goes
to the exact LP.  The LP stays because facet separation is not
complete: from k = 3 on, two simplices may be separable only by a plane
through an edge of each.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import islice
from math import comb, gcd, lcm
from operator import mul

from ._rational import ZERO, Rat, scaled
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
    """A k-simplex given by k+1 barycentric vertices, vertex i being
    rows[i] / den: integer rows over one positive denominator, reduced
    to lowest terms on construction, so equal simplices compare and
    hash equal.

    Construction is lightweight; degeneracy (zero volume) is detected by
    the operations that need nondegeneracy and signalled with
    DegenerateSimplexError.
    """

    rows: tuple
    den: int

    def __post_init__(self):
        widths = {len(row) for row in self.rows}
        if len(widths) != 1:
            raise ValueError("simplex vertices must share one dimension")
        (d,) = widths
        if len(self.rows) != d:
            raise ValueError(f"need {d} vertices for a {d - 1}-simplex, got {len(self.rows)}")
        if self.den < 1:
            raise ValueError(f"simplex denominator must be positive, got {self.den}")
        g = gcd(self.den, *(c for row in self.rows for c in row))
        object.__setattr__(self, "rows", tuple(tuple(c // g for c in row) for row in self.rows))
        object.__setattr__(self, "den", self.den // g)

    @property
    def k(self) -> int:
        return len(self.rows) - 1

    @cached_property
    def vertices(self) -> tuple:
        """The vertices as BaryPoints of rationals rows[i] / den, made on
        first use."""
        den = self.den
        return tuple(BaryPoint(tuple(Rat(c, den) for c in row)) for row in self.rows)


def simplex(points) -> Simplex:
    """The simplex with the given vertices, BaryPoints or sequences of
    rational-like values, scaled to integers over one denominator."""
    coords = [p.coords if isinstance(p, BaryPoint) else bary_point(p).coords for p in points]
    nums, den = scaled([c for p in coords for c in p])
    it = iter(nums)
    return Simplex(tuple(tuple(islice(it, len(p))) for p in coords), den)


def standard_simplex(k: int) -> Simplex:
    _check_dim(k)
    return Simplex(tuple(tuple(int(i == j) for j in range(k + 1)) for i in range(k + 1)), 1)


def barycenter(k: int) -> BaryPoint:
    return BaryPoint(tuple(Rat(1, k + 1) for _ in range(k + 1)))


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
    on the integer rows over D, it is |det| / D**k.
    """
    return Rat(abs(_chart_det(s.rows)), s.den ** s.k)


def _frame_weights(s: Simplex, xs, q: int):
    """(det, X) with X[j] = det * q * w_j, w_j the barycentric weights
    of the point xs[j] / q with respect to the vertices rows / D in the
    chart of _chart_det, for integer vectors xs[j] over the positive q;
    (0, None) when the simplex is degenerate.

    w sums to 1 and matches the point in the chart coordinates (all but
    the last), so q w solves the integer system whose rows are the
    vertices' chart coordinates and a row of ones, against the columns
    (D x[:-1], q).  Its det is +- the chart det, so every nondegenerate
    simplex has a frame, also one in a hyperplane through the origin.
    A point off the simplex's hyperplane gets the weights of its chart
    projection.
    """
    coords = list(zip(*s.rows))
    coords[-1] = (1,) * len(s.rows)
    return eliminate(coords, [[s.den * c for c in x[:-1]] + [q] for x in xs])


def _facet_separates(det, weights) -> bool:
    """Whether every point, with weights X = (det, weights) in a
    simplex a's frame (from _frame_weights), has weight <= 0 for one
    vertex i of a, so that the hyperplane of a's facet opposite vertex
    i has all of them on its closed far side.

    The weights are affine in the chart coordinates, so every point of
    their hull has w_i <= 0 while every interior point of a has
    w_i > 0: given b's vertices, the chart projections, and so the
    simplices, have disjoint interiors.
    """
    return any(all(ws[i] * det <= 0 for ws in weights) for i in range(len(weights[0])))


def contains_points(s: Simplex, xs, q: int) -> list:
    """Exact membership of each point x / q in s (boundary included),
    for integer vectors x over one positive integer q, from one
    elimination.

    x / q is inside when its weights, X = det * q * w from
    _frame_weights, are all >= 0 and their combination of the
    vertices' last coordinates is x's, which puts x / q on the
    simplex's hyperplane.
    """
    det, solution = _frame_weights(s, xs, q)
    if solution is None:
        raise DegenerateSimplexError("zero-volume simplex")
    last = [row[-1] for row in s.rows]
    return [
        all(w * det >= 0 for w in ws) and sum(map(mul, ws, last)) == det * s.den * x[-1]
        for ws, x in zip(solution, xs)
    ]


def contains(s: Simplex, p: BaryPoint) -> bool:
    """Exact membership test: p lies in s (boundary included)."""
    if p.dim != s.k:
        raise ValueError("point and simplex dimensions differ")
    x, q = scaled(p.coords)
    return contains_points(s, [x], q)[0]


def simplices_interior_intersect(a: Simplex, b: Simplex) -> bool:
    """Whether two full-dimensional simplices share an interior point.

    First, in integers: each simplex's vertices are weighted in the
    other's frame (_frame_weights; a degenerate simplex has no frame and
    raises DegenerateSimplexError), and a facet of either simplex with
    every vertex of the other on its closed far side proves the
    interiors disjoint.  This settles the pieces of every tiling the
    averageable certificates build.  It is not complete (from k = 3 on, two
    simplices may be separable only by a plane through an edge of
    each), so every pair that no facet separates goes to the LP, which
    maximises t subject to: a point with all barycentric weights >= t in
    both simplices exists.  The optimum is positive exactly when the
    open interiors meet; infeasibility means even the closed simplices
    are disjoint.  Both row sets, brought over the lcm D of the two
    denominators, make every column an integer vector.
    """
    # Looked up at call time, so that a wrapper installed on
    # exactlp.solve_lp (as benchmarks/tracing.py does) sees these solves.
    from .exactlp import solve_lp

    if a.k != b.k:
        raise ValueError("simplex dimensions differ")
    d = a.k + 1
    # Each frame's det is +- the simplex's chart det, so a degenerate
    # simplex has none.
    frames = _frame_weights(a, b.rows, b.den), _frame_weights(b, a.rows, a.den)
    if any(weights is None for _, weights in frames):
        raise DegenerateSimplexError("zero-volume simplex")
    if any(_facet_separates(*frame) for frame in frames):
        return False
    den = lcm(a.den, b.den)
    verts = [[c * (den // s.den) for c in row] for s in (a, b) for row in s.rows]
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

    Ascending lexicographic order.  The prefixes of all but the last two
    parts are listed level by level, each with what it leaves of the
    total; the last two parts split that rest.
    """
    if parts == 1:
        yield (total,)
        return
    prefixes = [((), total)]
    for _ in range(parts - 2):
        prefixes = [(p + (c,), rest - c) for p, rest in prefixes for c in range(rest + 1)]
    for p, rest in prefixes:
        for c in range(rest + 1):
            yield (*p, c, rest - c)
