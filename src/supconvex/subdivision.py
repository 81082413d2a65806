"""Hypersimplex subdivision of the standard simplex.

Scaling the standard k-simplex T by n and cutting along all integer
hyperplanes {x_i = integer} tiles nT by translated hypersimplex slices:
for each level m in 1..min(k, n) and each nonnegative integer shift
vector v summing to n-m there is one cell (slice(k, m) + v)/n, where
slice(k, m) is the part of the unit cube [0,1]^(k+1) lying on
{sum(x) = m}.  The n-fold sup-convolution of the vertex indicator is
constant on the interior of each cell, which is what makes this
subdivision the backbone of every exact integral in the package.

Cells are classified by the floor rule: for z in T, v = floor(n z)
componentwise and m = n - sum(v).  Points with some n*z_i integral lie
on a cell boundary; the floor rule still assigns them a deterministic
cell, and the classification marks them as boundary points.  The rule
has one implementation, floor_rule, on a point's integer coordinates
over their common denominator: classify_point and the extremal grid
report's representative pass both call it.

Volumes come from an independent geometric route, a recursive
triangulation of the hypersimplex by pulling the lexicographically
smallest vertex, so that the classical count (the Eulerian number) can
be checked against exact determinants rather than assumed.  Every cell
of level m has the volume of slice(k, m) over n**k, which cell_volume
computes once per (k, m, n) for the cells, the subdivision's volume
check, the extremal profile and the averaging targets.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import cache, lru_cache
from itertools import combinations
from math import comb

from ._rational import ONE, Rat, scaled
from .geometry import BaryPoint, _check_dim, compositions, relative_volume, simplex

# Cap on the cells of one subdivision, checked before any is listed.
# On a 2-vCPU host the largest accepted `supconvex subdivide` runs
# (k = 1..6) take 7-8 s and 0.42-0.47 GB; `extremal --n` stays under 1 s.
CELL_CAP = 250_000


def enumerate_shifts(k: int, total: int):
    """All shift vectors: nonnegative integer (k+1)-tuples summing to total."""
    _check_dim(k)
    if total < 0:
        raise ValueError(f"shift total must be >= 0, got {total}")
    return list(compositions(total, k + 1))


def hypersimplex_vertices(k: int, m: int):
    """0/1 vectors of length k+1 with exactly m ones, lex ascending."""
    _check_slice(k, m)
    verts = []
    for ones in combinations(range(k + 1), m):
        v = [0] * (k + 1)
        for i in ones:
            v[i] = 1
        verts.append(tuple(v))
    verts.sort()
    return verts


@cache
def hypersimplex_triangulation(k: int, m: int):
    """Triangulate slice(k, m) into simplices with 0/1 vertices.

    Recursively cones the lex-smallest vertex over the facets that do
    not contain it; each facet is a lower-dimensional hypersimplex.
    Returns a tuple of simplices, each a tuple of k+1 integer vertices.
    """
    _check_slice(k, m)
    if m == 1:
        return (tuple(tuple(1 if j == i else 0 for j in range(k + 1)) for i in range(k + 1)),)
    if m == k:
        return (tuple(tuple(0 if j == i else 1 for j in range(k + 1)) for i in range(k + 1)),)
    apex = (0,) * (k + 1 - m) + (1,) * m
    out = []
    for i in range(k + 1 - m):
        # Facet {x_i = 1}, a slice(k-1, m-1); apex has 0 there.
        for sub in hypersimplex_triangulation(k - 1, m - 1):
            verts = tuple(v[:i] + (1,) + v[i:] for v in sub)
            out.append((apex,) + verts)
    for i in range(k + 1 - m, k + 1):
        # Facet {x_i = 0}, a slice(k-1, m); apex has 1 there.
        for sub in hypersimplex_triangulation(k - 1, m):
            verts = tuple(v[:i] + (0,) + v[i:] for v in sub)
            out.append((apex,) + verts)
    return tuple(out)


@cache
def hypersimplex_volume(k: int, m: int):
    """Relative volume of slice(k, m), from the exact triangulation."""
    return sum(
        (relative_volume(simplex(s)) for s in hypersimplex_triangulation(k, m)), Rat(0)
    )


@lru_cache(maxsize=256)
def cell_volume(k: int, m: int, n: int):
    """Relative volume of one level-m cell (slice(k, m) + shift)/n; the
    same for every shift."""
    return hypersimplex_volume(k, m) / Rat(n) ** k


@dataclass(frozen=True)
class SubdivisionCell:
    """One cell (slice(k, m) + shift)/n of the subdivision of T."""

    n: int
    m: int
    shift: tuple

    @property
    def k(self) -> int:
        return len(self.shift) - 1

    @property
    def value_on_cell(self):
        """n-fold sup-convolution of the vertex indicator on this cell."""
        return Rat(self.n - self.m, self.n)

    def relative_volume(self):
        return cell_volume(self.k, self.m, self.n)


def cell_count(k: int, n: int) -> int:
    """Number of cells of the subdivision of T at parameter n: the
    shifts of level m are the C(n - m + k, k) compositions of n - m."""
    return sum(comb(n - m + k, k) for m in range(1, min(k, n) + 1))


def _check_cells(k: int, n: int) -> None:
    _check_dim(k)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    count = cell_count(k, n)
    if count > CELL_CAP:
        raise ValueError(f"subdivision k={k}, n={n} has {count} cells (cap {CELL_CAP})")


def cell_keys(k: int, n: int):
    """The (m, shift) key of every cell of the subdivision of T at
    parameter n, exactness checked.

    Keys are ordered by level m, then lexicographically by shift.  Two
    exact checks run on every call: the keys are pairwise distinct,
    which by the floor rule means interiors are pairwise disjoint (an
    interior point z reconstructs its cell uniquely as v = floor(n z),
    m = n - sum(v)); and the relative volumes sum to 1.  subdivide
    builds its cells from these keys, and the cover search reads the
    keys alone.
    """
    _check_cells(k, n)
    keys = []
    total_volume = Rat(0)
    for m in range(1, min(k, n) + 1):
        shifts = enumerate_shifts(k, n - m)
        keys.extend((m, shift) for shift in shifts)
        total_volume += len(shifts) * cell_volume(k, m, n)
    assert len(set(keys)) == len(keys), "duplicate subdivision cells"
    assert total_volume == 1, f"cell volumes sum to {total_volume}, not 1"
    return keys


def subdivide(k: int, n: int):
    """All subdivision cells for T at parameter n, in the order of
    cell_keys, whose exactness checks they pass."""
    return [SubdivisionCell(n, m, shift) for m, shift in cell_keys(k, n)]


def cell_vertices(cell: SubdivisionCell):
    """Vertices of the cell as points of T (denominator n)."""
    n = Rat(cell.n)
    return [
        BaryPoint(tuple(Rat(u + s) / n for u, s in zip(vert, cell.shift)))
        for vert in hypersimplex_vertices(cell.k, cell.m)
    ]


def cell_contains(cell: SubdivisionCell, point: BaryPoint, strict: bool = False) -> bool:
    """Exact membership of a point of T in the cell (strict: interior)."""
    if point.dim != cell.k:
        raise ValueError("point and cell dimensions differ")
    for coord, s in zip(point.coords, cell.shift):
        y = cell.n * coord - s
        if strict:
            if not 0 < y < 1:
                return False
        elif not 0 <= y <= 1:
            return False
    return True


CellLocation = namedtuple("CellLocation", "m shift on_boundary")


def floor_rule(ints, q: int, n: int):
    """The floor rule at the point ints / q of T, in integers:
    (m, shift, on_boundary) with shift = floor(n ints / q) componentwise,
    m = n - sum(shift), and on_boundary when some n ints_i / q is an
    integer.  A point off every boundary lies in the interior of the
    cell (m, shift), and there 1 <= m <= min(k, n) for ints of length
    k + 1."""
    parts = [divmod(n * c, q) for c in ints]
    shift = tuple(floor for floor, _ in parts)
    return n - sum(shift), shift, not all(rest for _, rest in parts)


def classify_point(k: int, n: int, point: BaryPoint) -> CellLocation:
    """Locate a point of T in the subdivision by the floor rule, on the
    point's integer coordinates over their common denominator.

    Boundary points (some n*z_i integral) belong to several closed
    cells; the floor rule picks one deterministically and the result is
    flagged on_boundary.  Lattice points of resolution n, where the
    floor rule alone would give m = 0, are assigned to a level-1 cell by
    decrementing the first positive floor entry.
    """
    _check_dim(k)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if point.dim != k:
        raise ValueError("point dimension mismatch")
    if any(c < 0 for c in point.coords) or point.total != 1:
        raise ValueError("point must lie in the standard simplex")
    m, shift, boundary = floor_rule(*scaled(point.coords), n)
    if m == 0:
        i = next(i for i, f in enumerate(shift) if f > 0)
        return CellLocation(1, (*shift[:i], shift[i] - 1, *shift[i + 1:]), boundary)
    return CellLocation(m, shift, boundary)


PerLevel = namedtuple("PerLevel", "m cell_count cell_relative_volume value")


@dataclass(frozen=True)
class ExtremalProfile:
    """Exact integral data of the n-fold sup-convolution of the vertex
    indicator (1 at the k+1 vertices of T, 0 elsewhere).

    The convolution equals (n-m)/n on the interior of every level-m
    cell, the concave envelope of the indicator is the constant 1, and
    the indicator vanishes almost everywhere, so

        ratio = integral(convolution - f) / integral(envelope - f)
              = sum over m of cell_count * cell_volume * (n-m)/n.

    Shifting by an affine function (e.g. to the 0-at-vertices form with
    values in [-1, 0]) changes neither numerator nor denominator, so
    this ratio is convention-free.
    """

    k: int
    n: int
    per_m: tuple
    lhs_integral: object
    rhs_integral: object

    @property
    def ratio(self):
        return self.lhs_integral / self.rhs_integral


def extremal_profile(k: int, n: int) -> ExtremalProfile:
    _check_cells(k, n)
    rows = []
    lhs = Rat(0)
    covered = Rat(0)
    for m in range(1, min(k, n) + 1):
        count = len(enumerate_shifts(k, n - m))
        assert count == comb(n + k - m, k), f"cell count mismatch at m={m}"
        vol = cell_volume(k, m, n)
        value = Rat(n - m, n)
        rows.append(PerLevel(m, count, vol, value))
        lhs += count * vol * value
        covered += count * vol
    assert covered == 1, f"cell volumes sum to {covered}, not 1"
    return ExtremalProfile(k, n, tuple(rows), lhs, ONE)


def _check_slice(k: int, m: int) -> None:
    _check_dim(k)
    if not 1 <= m <= k:
        raise ValueError(f"slice level must be in 1..{k}, got {m}")
