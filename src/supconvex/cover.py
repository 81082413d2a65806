"""Covering constructions that certify lower-bound constants.

Two covering arguments live here.

First, the scaled-corner cover: for n >= k+1 the standard simplex T is
exactly the union of the translates (k*T + v)/n over shift vectors v
with sum n-k.  Counting translates gives the closed-form asymptotic
lower bound on the smoothing constant.

Second, the good-translate calculus.  A translate T' = o + T/n^level of
T is "good with constant C" when the n-fold sup-convolution machinery
forces conv values of at least (1 - epsilon*C)-quality on it; the two
production rules are

- corner contraction: from T' good with C, the translate pulled toward
  vertex i, offset ((n-1)e_i + o)/n at level+1, is good with
  1 + C/n^(k+1);
- blending: from same-level T', T'' good with C', C'', the Minkowski
  combination offset ((n-1)o' + o'')/n at the same level is good with
  1 + ((n-1)C' + C'')/n.

Offsets produced by blending carry denominators beyond n^level, so
offsets are stored as exact rationals with whatever denominator the
derivation produced.  A closure enumerates derivable translates level
by level (deduplicating by offset, keeping the smallest constant, with
a node budget); a cover certificate then selects a family A of level-l
translates covering T with |A| < n^(l(k+1)), which yields the positive
derived constant (1 - |A|/n^(l(k+1))) / sum of constants.

Cover certification subdivides T into hypersimplex cells and requires
every cell to sit inside one chosen translate.  The test is exact and
needs only integers: cell (m, s) at resolution R has the vertices
(u + s)/R over 0/1 vectors u with m <= k ones, so its coordinatewise
minimum is s/R, and the translate o + T/n^level is {p in T : p >= o};
hence the cell lies in the translate iff s_i >= ceil(R*o_i) for every
i.  Some coverable regions need cells finer than the translate scale
(a reversed middle cell never fits in an upright translate of its own
size), so certification may refine the cell resolution a bounded
number of times before giving up; a cell with a vertex or barycenter
outside every candidate translate is a proof that no refinement can
help, and the search reports failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

from ._rational import ONE, ZERO, Rat
from .geometry import BaryPoint, Simplex, _check_dim, lattice
from .subdivision import cell_vertices, enumerate_shifts, subdivide

# Cell refinements find_cover tries beyond the translate scale.
MAX_REFINE = 2

# Blends one closure may build; a round that would pass it raises
# ValueError before it starts.
BLEND_CAP = 450_000


@dataclass(frozen=True)
class GoodTranslate:
    """Translate offset + T/n^level, good with the given constant."""

    k: int
    n: int
    level: int
    offset: tuple
    constant: object
    derivation: tuple

    def __post_init__(self):
        if any(o < 0 for o in self.offset):
            raise ValueError("offset must be componentwise nonnegative")
        if sum(self.offset, ZERO) != 1 - self.scale:
            raise ValueError("offset total inconsistent with scale")

    @property
    def scale(self):
        return Rat(1, self.n**self.level)

    def contains_point(self, p: BaryPoint) -> bool:
        """p in offset + scale*T reduces to p >= offset componentwise
        (coordinate sums already match)."""
        return all(c >= o for c, o in zip(p.coords, self.offset))


@dataclass(frozen=True)
class ClosureResult:
    translates: tuple  # all levels, ordered by (level, offset)
    truncated: bool

    def at_level(self, level: int):
        return tuple(t for t in self.translates if t.level == level)


def _root_translate(k: int, n: int) -> GoodTranslate:
    return GoodTranslate(k, n, 0, tuple(ZERO for _ in range(k + 1)), ZERO, ("root",))


def _mix(n: int, p, q):
    """((n-1)*p + q)/n for rationals p and q, normalised once."""
    pd, qd = p.denominator, q.denominator
    return Rat((n - 1) * p.numerator * qd + q.numerator * pd, pd * qd * n)


def _corner_child(t: GoodTranslate, i: int) -> GoodTranslate:
    n = t.n
    offset = tuple(_mix(n, ONE if j == i else ZERO, o) for j, o in enumerate(t.offset))
    constant = 1 + t.constant / Rat(n) ** (t.k + 1)
    return GoodTranslate(t.k, n, t.level + 1, offset, constant, ("corner", i, t.derivation))


def _blend(a: GoodTranslate, b: GoodTranslate) -> GoodTranslate:
    if a.level != b.level:
        raise ValueError("blending requires equal levels")
    n = a.n
    offset = tuple(_mix(n, oa, ob) for oa, ob in zip(a.offset, b.offset))
    constant = 1 + _mix(n, a.constant, b.constant)
    return GoodTranslate(a.k, n, a.level, offset, constant, ("blend", a.derivation, b.derivation))


def replay_derivation(k: int, n: int, derivation) -> GoodTranslate:
    """Rebuild a translate from its derivation trace alone."""
    tag = derivation[0]
    if tag == "root":
        return _root_translate(k, n)
    if tag == "corner":
        return _corner_child(replay_derivation(k, n, derivation[2]), derivation[1])
    if tag == "blend":
        return _blend(replay_derivation(k, n, derivation[1]), replay_derivation(k, n, derivation[2]))
    raise ValueError(f"unknown derivation tag {tag!r}")


def closure_good(
    k: int, n: int, max_level: int, blend_rounds: int = 2, budget: int = 4000
) -> ClosureResult:
    """Enumerate derivable good translates up to max_level.

    Per offset the smallest known constant is kept.  Enumeration is
    deterministic: corner children of all previous-level translates,
    then a fixed number of blend rounds over the sorted current level.
    When the node budget is hit the result is returned with
    truncated=True rather than failing.  The budget is checked before
    each blend round and after the blends of each translate within
    it, so a truncated level passes the budget by less than one
    snapshot.  A round over s translates builds s*(s-1) blends, so a
    closure whose blends would pass BLEND_CAP raises ValueError before
    the round that would pass it.
    """
    _check_dim(k)
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if max_level < 0:
        raise ValueError("max_level must be >= 0")
    levels = [{(ZERO,) * (k + 1): _root_translate(k, n)}]
    truncated = False
    total = 1
    blends = 0
    for _ in range(max_level):
        current: dict = {}

        def consider(t: GoodTranslate) -> None:
            old = current.get(t.offset)
            if old is None or t.constant < old.constant:
                current[t.offset] = t

        for parent in levels[-1].values():
            for i in range(k + 1):
                consider(_corner_child(parent, i))
        for _ in range(blend_rounds):
            if total + len(current) > budget:
                truncated = True
                break
            snapshot = [current[o] for o in sorted(current)]
            blends += len(snapshot) * (len(snapshot) - 1)
            if blends > BLEND_CAP:
                raise ValueError(f"closure needs at least {blends} blends (cap {BLEND_CAP})")
            for a in snapshot:
                for b in snapshot:
                    if a is not b:
                        consider(_blend(a, b))
                # current only grows, so the level ends over budget.
                if total + len(current) > budget:
                    truncated = True
                    break
            if truncated:
                break
        total += len(current)
        levels.append(current)
        if total > budget:
            truncated = True
            break
    flat = []
    for level_map in levels:
        for offset in sorted(level_map):
            flat.append(level_map[offset])
    return ClosureResult(tuple(flat), truncated)


@dataclass(frozen=True)
class CoverCertificate:
    """A family of equal-level good translates covering T.

    count < n^(level*(k+1)) is enforced, so derived_constant > 0.
    """

    k: int
    n: int
    level: int
    family: tuple
    cert_resolution: int
    sum_constants: object
    derived_constant: object

    @property
    def count(self) -> int:
        return len(self.family)


def coverage_masks(translates, cells, resolution: int):
    """For each translate, the bitmask of the cells lying inside it.

    Bit idx stands for cells[idx], a cell of subdivide(k, resolution).
    at_least[i][c] holds the cells with shift[i] >= c; a translate's
    mask is the AND of at_least[i][ceil(resolution*o_i)] over its offset
    o.  Offsets are below 1, so every threshold is at most resolution,
    where the mask is empty (no cell has a shift entry that large).
    """
    at_least = [[0] * (resolution + 1) for _ in range(cells[0].k + 1)]
    for idx, cell in enumerate(cells):
        bit = 1 << idx
        for row, s in zip(at_least, cell.shift):
            row[s] |= bit
    for row in at_least:
        for c in range(resolution - 1, -1, -1):
            row[c] |= row[c + 1]
    masks = []
    for t in translates:
        mask = -1
        for row, o in zip(at_least, t.offset):
            mask &= row[ceil(resolution * o)]
        masks.append(mask)
    return masks


def find_cover(k: int, n: int, level: int, translates=None):
    """Select a covering family among level-`level` good translates.

    Certification subdivides T at resolution n^(level+r) for
    r = 0..MAX_REFINE and requires each cell inside a single chosen
    translate, tested by integer thresholds (coverage_masks); a greedy
    set cover picks the family.  Returns None when no admissible cover
    exists (some point provably uncovered, or the family is not smaller
    than the trivial count).
    """
    if level < 1:
        raise ValueError("cover level must be >= 1")
    if translates is None:
        translates = closure_good(k, n, level).at_level(level)
    pool = sorted(
        (t for t in translates if t.level == level),
        key=lambda t: (t.constant, t.offset),
    )
    if not pool:
        return None
    bound = n ** (level * (k + 1))
    for extra in range(MAX_REFINE + 1):
        resolution = n ** (level + extra)
        cells = subdivide(k, resolution)
        coverage = coverage_masks(pool, cells, resolution)
        all_cells = (1 << len(cells)) - 1
        union = 0
        for cov in coverage:
            union |= cov
        if union != all_cells:
            missed = all_cells & ~union
            for idx, cell in enumerate(cells):
                if not missed >> idx & 1:
                    continue
                verts = cell_vertices(cell)
                d = len(verts)
                bary = BaryPoint(
                    tuple(sum((v.coords[i] for v in verts), ZERO) / d for i in range(k + 1))
                )
                for p in verts + [bary]:
                    if not any(t.contains_point(p) for t in pool):
                        return None  # provably uncoverable, refinement useless
            continue  # coverable but cells too coarse; refine
        uncovered = all_cells
        chosen = []
        while uncovered:
            # Chosen translates gain nothing more, so they are never picked again.
            best_i = None
            best_gain = 0
            for i, cov in enumerate(coverage):
                gain = (cov & uncovered).bit_count()
                if gain > best_gain:
                    best_gain = gain
                    best_i = i
            if best_i is None:  # pragma: no cover - union covers all cells
                return None
            chosen.append(pool[best_i])
            uncovered &= ~coverage[best_i]
        if len(chosen) >= bound:
            return None
        total_constant = sum((t.constant for t in chosen), ZERO)
        derived = (1 - Rat(len(chosen), bound)) / total_constant
        assert derived > 0
        return CoverCertificate(
            k, n, level, tuple(chosen), resolution, total_constant, derived
        )
    return None


def best_cover(k: int, n: int, max_level: int, budget: int = 4000):
    """First level admitting a cover certificate, with its closure.

    Returns (closure, certificate or None).
    """
    closure = closure_good(k, n, max_level, budget=budget)
    for level in range(1, max_level + 1):
        cert = find_cover(k, n, level, translates=closure.at_level(level))
        if cert is not None:
            return closure, cert
    return closure, None


def scaled_simplex_cover(k: int, n: int):
    """The translates (k*T + v)/n over shifts v with sum n-k.

    For n >= k+1 these cover T exactly; coverage is verified on the
    resolution n*k lattice before returning.  There are C(n, k) of
    them, which is what the asymptotic lower bound counts.
    """
    _check_dim(k)
    if n < k + 1:
        raise ValueError(f"cover needs n >= k+1, got k={k}, n={n}")
    shifts = enumerate_shifts(k, n - k)
    # Vertex i of (k T + v) / n is (k e_i + v) / n.
    simplices = tuple(
        Simplex(tuple(tuple(k * (i == j) + s for j, s in enumerate(v)) for i in range(k + 1)), n)
        for v in shifts
    )
    # A point p = ints / (n k) lies in (k T + v) / n iff n p >= v, that
    # is, ints >= k v componentwise.
    for ints in lattice(k, n * k).int_points:
        covered = any(all(c >= k * s for c, s in zip(ints, v)) for v in shifts)
        if not covered:  # pragma: no cover - coverage is guaranteed for n >= k+1
            raise ArithmeticError(f"lattice point {ints} / {n * k} uncovered")
    return simplices
