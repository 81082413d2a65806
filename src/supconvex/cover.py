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

Every offset is an exact multiple of a power of n: a corner step and a
blend each divide by n once, and a closure runs BLEND_ROUNDS blend
rounds per level, so no level-l offset it builds nests more than
BLEND_ROUNDS blends.  All level-l offsets therefore share the
denominator den = n^(l*(BLEND_ROUNDS+1)), and a translate holds its
offset as integer numerators over that den.  The constants follow the
same count, a corner step dividing by n^(k+1) and a blend by n: all
level-l constants share the denominator constant_den(k, n, l) =
n^(l*(k+1+BLEND_ROUNDS)).  So corner and blend steps run on (offset,
constant numerator) pairs of integers, the closure, the coverage masks
and the uncovered-cell proof compare plain ints, and rationals are made
only for the translates a closure keeps and where a payload prints an
offset.  A closure enumerates derivable translates level by level
(deduplicating by offset, keeping the smallest constant, with a node
budget); a cover certificate then selects a family A of level-l
translates covering T with |A| < n^(l(k+1)), which yields the positive
derived constant (1 - |A|/n^(l(k+1))) / sum of constants.

Cover certification subdivides T into hypersimplex cells and requires
every cell to sit inside one chosen translate.  The test is exact and
needs only integers, and it reads the cells' (m, shift) keys
(subdivision.cell_keys), not cell objects.  The translate
o/den + T/n^level is {p in T : p >= o/den}, so a point c/R of T lies in
it iff c_i >= ceil(R*o_i/den) for every i (GoodTranslate.thresholds).
Cell (m, s) at resolution R has the vertices (u + s)/R over 0/1 vectors u
with m <= k ones, so its coordinatewise minimum is s/R, and the cell
lies in the translate iff s meets the thresholds at R.  Some coverable
regions need cells finer than the translate scale (a reversed middle
cell never fits in an upright translate of its own size), so
certification may refine the cell resolution a bounded number of times
before giving up; a cell with a vertex (u + s at resolution R) or
barycenter (the sum of its d vertices at resolution R*d) outside every
candidate translate is a proof that no refinement can help, and the
search reports failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from operator import add, ge

from ._rational import ZERO, Rat
from .geometry import Simplex, _check_dim, lattice
# Unused here; kept because benchmarks/tracing.py wraps these names in
# this module, and its trace mode fails without them.
from .subdivision import cell_vertices, subdivide  # noqa: F401
from .subdivision import cell_keys, enumerate_shifts, hypersimplex_vertices

# Cell refinements find_cover tries beyond the translate scale.
MAX_REFINE = 2

# Blend rounds a closure runs per level; they fix each level's offset
# denominator.
BLEND_ROUNDS = 2

# Blends one closure may build; a round that would pass it raises
# ValueError before it starts.
BLEND_CAP = 450_000


@dataclass(frozen=True)
class GoodTranslate:
    """Translate offset/den + T/n^level, good with the given constant.

    offset holds integer numerators over den, the one denominator
    n^(level*(BLEND_ROUNDS+1)) of every level-`level` offset a closure
    builds; the constant is an exact rational.
    """

    k: int
    n: int
    level: int
    offset: tuple
    constant: object
    derivation: tuple

    def __post_init__(self):
        if any(o < 0 for o in self.offset):
            raise ValueError("offset must be componentwise nonnegative")
        if sum(self.offset) * self.n**self.level != self.den * (self.n**self.level - 1):
            raise ValueError("offset total inconsistent with scale")

    @property
    def den(self) -> int:
        return self.n ** (self.level * (BLEND_ROUNDS + 1))

    def thresholds(self, resolution: int) -> tuple:
        """Per coordinate, the least c_i with c_i/resolution >= o_i/den,
        that is ceil(resolution*o_i/den): a point c/resolution of T lies
        in the translate iff c >= thresholds componentwise (the
        coordinate sums already match)."""
        den = self.den
        return tuple(-(-resolution * o // den) for o in self.offset)


@dataclass(frozen=True)
class ClosureResult:
    translates: tuple  # all levels, ordered by (level, offset)
    truncated: bool

    def at_level(self, level: int):
        return tuple(t for t in self.translates if t.level == level)


def constant_den(k: int, n: int, level: int) -> int:
    """The one denominator n^(level*(k+1+BLEND_ROUNDS)) of every
    level-`level` constant a closure builds."""
    return n ** (level * (k + 1 + BLEND_ROUNDS))


def _root_translate(k: int, n: int) -> GoodTranslate:
    return GoodTranslate(k, n, 0, (0,) * (k + 1), ZERO, ("root",))


def _corner(k: int, n: int, level: int, offset, num: int, i: int):
    """The (offset, constant numerator) of the corner child toward
    vertex i of the level-`level` translate (offset, num), over the next
    level's denominators."""
    # ((n-1)e_i + o/den)/n over den*n^(BLEND_ROUNDS+1), and
    # 1 + (num/cden)/n^(k+1) over cden*n^(k+1+BLEND_ROUNDS).
    corner = (n - 1) * n ** (level * (BLEND_ROUNDS + 1))
    lift = n**BLEND_ROUNDS
    one = constant_den(k, n, level) * n ** (k + 1)
    return (
        tuple((corner * (j == i) + o) * lift for j, o in enumerate(offset)),
        (one + num) * lift,
    )


def _blend(n: int, cden: int, a, b):
    """The blend ((n-1)a + b)/n of two same-level (offset, constant
    numerator) pairs over the level's denominators, the constant being
    1 + ((n-1)C_a + C_b)/n with 1 = cden/cden.

    Exact for at most BLEND_ROUNDS nested blends in one level.  A
    constant that cden cannot hold raises ValueError; an offset that the
    level's den cannot hold is floored, which GoodTranslate refuses.
    """
    (oa, ca), (ob, cb) = a, b
    num, rest = divmod((n - 1) * ca + cb, n)
    if rest:
        raise ValueError("blend constant is not a multiple of the level's constant denominator")
    return tuple(((n - 1) * x + y) // n for x, y in zip(oa, ob)), cden + num


def replay_derivation(k: int, n: int, derivation) -> GoodTranslate:
    """Rebuild a translate from its derivation trace alone, with the
    closure's integer corner and blend steps.

    Every trace a closure builds nests at most BLEND_ROUNDS blends in one
    level, and replays exactly.  A deeper trace can reach an offset or a
    constant that the level's denominators cannot hold; then the blend
    raises ValueError, or its floor division breaks the offset total and
    GoodTranslate raises ValueError.  Every node of the trace is checked.
    """

    def replay(trace):  # (translate, constant numerator)
        tag = trace[0]
        if tag == "root":
            return _root_translate(k, n), 0
        if tag == "corner":
            parent, num = replay(trace[2])
            level = parent.level + 1
            offset, num = _corner(k, n, parent.level, parent.offset, num, trace[1])
        elif tag == "blend":
            (a, an), (b, bn) = replay(trace[1]), replay(trace[2])
            if a.level != b.level:
                raise ValueError("blending requires equal levels")
            level = a.level
            offset, num = _blend(n, constant_den(k, n, level), (a.offset, an), (b.offset, bn))
        else:
            raise ValueError(f"unknown derivation tag {tag!r}")
        return GoodTranslate(k, n, level, offset, Rat(num, constant_den(k, n, level)), trace), num

    return replay(derivation)[0]


def closure_good(k: int, n: int, max_level: int, budget: int = 4000) -> ClosureResult:
    """Enumerate derivable good translates up to max_level.

    Per offset the smallest known constant is kept.  Enumeration is
    deterministic: corner children of all previous-level translates,
    then BLEND_ROUNDS blend rounds over the sorted current level, so
    every level-l offset is exact over n^(l*(BLEND_ROUNDS+1)) and every
    constant over constant_den(k, n, l).  Candidates are (offset,
    constant numerator) pairs, compared as integers; a GoodTranslate is
    built only for each offset the closure keeps.
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
    if budget < 1:  # the root alone would pass it
        raise ValueError(f"budget must be >= 1, got {budget}")
    # Per level, offset -> (constant numerator, derivation).
    levels = [{(0,) * (k + 1): (0, ("root",))}]
    truncated = False
    total = 1
    blends = 0
    for level in range(1, max_level + 1):
        current: dict = {}
        cden = constant_den(k, n, level)

        def consider(offset, num: int, derivation) -> None:
            old = current.get(offset)
            if old is None or num < old[0]:
                current[offset] = (num, derivation)

        for offset, (num, derivation) in levels[-1].items():
            for i in range(k + 1):
                consider(*_corner(k, n, level - 1, offset, num, i), ("corner", i, derivation))
        for _ in range(BLEND_ROUNDS):
            if total + len(current) > budget:
                truncated = True
                break
            snapshot = [(o, *current[o]) for o in sorted(current)]
            blends += len(snapshot) * (len(snapshot) - 1)
            if blends > BLEND_CAP:
                raise ValueError(f"closure needs at least {blends} blends (cap {BLEND_CAP})")
            for oa, ca, da in snapshot:
                for ob, cb, db in snapshot:
                    if oa is not ob:
                        consider(*_blend(n, cden, (oa, ca), (ob, cb)), ("blend", da, db))
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
    for level, level_map in enumerate(levels):
        cden = constant_den(k, n, level)
        for offset in sorted(level_map):
            num, derivation = level_map[offset]
            flat.append(GoodTranslate(k, n, level, offset, Rat(num, cden), derivation))
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


def coverage_masks(translates, keys, resolution: int):
    """For each translate, the bitmask of the cells lying inside it.

    Bit idx stands for the cell keys[idx] = (m, shift) of
    cell_keys(k, resolution).  at_least[i][c] holds the cells with
    shift[i] >= c; a translate's mask is the AND of at_least[i][c_i]
    over its thresholds c at this resolution.  Offsets are below 1, so
    every threshold is at most resolution, where the mask is empty (no
    cell has a shift entry that large).
    """
    at_least = [[0] * (resolution + 1) for _ in keys[0][1]]
    for idx, (_, shift) in enumerate(keys):
        bit = 1 << idx
        for row, s in zip(at_least, shift):
            row[s] |= bit
    for row in at_least:
        for c in range(resolution - 1, -1, -1):
            row[c] |= row[c + 1]
    masks = []
    for t in translates:
        mask = -1
        for row, c in zip(at_least, t.thresholds(resolution)):
            mask &= row[c]
        masks.append(mask)
    return masks


def find_cover(k: int, n: int, level: int, translates=None):
    """Select a covering family among level-`level` good translates.

    Certification lists the cell keys of T at resolution n^(level+r)
    for r = 0..MAX_REFINE (cell_keys) and requires each cell inside a
    single chosen translate, tested by integer thresholds
    (coverage_masks); a greedy set cover picks the family.  Returns
    None when no admissible cover exists (some point provably
    uncovered, or the family is not smaller than the trivial count).
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
        keys = cell_keys(k, resolution)
        coverage = coverage_masks(pool, keys, resolution)
        all_cells = (1 << len(keys)) - 1
        union = 0
        for cov in coverage:
            union |= cov
        if union != all_cells:
            missed = all_cells & ~union
            limits = cache(lambda res: [t.thresholds(res) for t in pool])
            for idx, (m, shift) in enumerate(keys):
                if not missed >> idx & 1:
                    continue
                verts = [tuple(map(add, u, shift)) for u in hypersimplex_vertices(k, m)]
                d = len(verts)
                # A vertex v at resolution R is d*v at R*d; the barycenter is
                # the sum of the d vertices at R*d.
                points = [tuple(d * c for c in v) for v in verts] + [tuple(map(sum, zip(*verts)))]
                if not all(any(all(map(ge, p, c)) for c in limits(resolution * d)) for p in points):
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
