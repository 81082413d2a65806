"""Discrete concave envelopes on the simplex lattice, solved exactly.

The discrete concave envelope of a function f sampled on the lattice of
denominator-N points of the standard k-simplex is, at each lattice
point z, the largest value of a convex combination of sample values
whose sample points average to z.  That is one small exact LP per
lattice point: maximise sum(w_p f(p)) over weights w with
sum(w_p p) = z, w >= 0, solved on integer coordinates N p and N z (the
weight-sum-1 constraint is implied because they all sum to N).

Before any LP, one integer pass compares f with its vertex plane
A(z) = sum_t f(vertex_t) z_t, the affine interpolant of the vertex
values.  If f <= A at every lattice point, as for an input in the
paper's normal form (0 at the vertices, f <= 0), then env = A: A is
concave and at least f, so no convex combination of f values exceeds
A(z), and the vertex combination attains it.  The sweep is then
skipped, and no solver is built.  Each value is A(z), and each
certificate is z's own vertex weights, the weights the sweep would
return, since from the vertex basis every reduced cost is <= 0 and
Bland's rule never pivots.  The pass stops at the first point above A,
so an input whose envelope lifts off the plane pays almost nothing for
it.

Otherwise the LPs run over the hull candidates only: a point p with
2 f(p) < f(p + d) + f(p - d) for some d = e_a - e_b lies strictly below
the envelope, so an optimal LP never weighs it, and its column is
dropped before the sweep (see hull_candidates).  The kept columns stay
in lattice order, so Bland's rule picks among them as before, and
certificate indices are mapped back to the lattice.

The k+1 vertex columns form a diagonal basis that is feasible for
every z, so the first point solves from there; subsequent points reuse
the previous optimal basis, which stays dual feasible when the right
hand side moves.  Where it is still primal feasible it is optimal
again, and the solver returns it without pricing, re-inverting or
re-checking it, being the tuple it returned; elsewhere the dual
simplex repairs it in a handful of pivots.  Being the basis the solver
last proved optimal, it skips the dual simplex's dual-feasibility
pass, and each pivot prices only the columns the ratio test reads.
The solver keeps each basis fraction-free, as integers adj = det B^-1
and det, so its pricing, ratio tests and pivots run in plain integers
(see exactlp).
Every envelope value comes with a certificate: the supporting lattice
points and exact weights realising it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gcd
from operator import mul

from ._rational import Rat, scaled
from .exactlp import ExactSimplexSolver
from .geometry import BaryLattice, BaryPoint

# Cap on the lattice size C(N + k, k) of one sweep, one LP per point
# over the hull candidates, O(|L| |candidates|) exact work.  It admits
# k = 3, N = 20 (1771 points).  On a 2-vCPU host the largest accepted
# sweeps of the benchmark's general (pivoting) family, which keep 27-51%
# of their columns, took 0.11 and 0.05 s (concave and spikes; k = 1,
# N = 1770), 0.8 and 0.2 s (k = 2, N = 58), 2.3 and 0.6 s (k = 3,
# N = 20), 3.4 and 0.7 s (k = 4, N = 11), 4.2 and 1.0 s (k = 5, N = 8)
# and 9.6 and 3.2 s (k = 6, N = 7, 1716 points).  A strictly concave f
# (-sum p_i^2) passes every midpoint test and keeps every column, so its
# sweeps still bound the cap: 1.8 s (k = 1), 7.1 s (k = 2), 12.6 s
# (k = 3), 10.3 s (k = 4), 12.2 s (k = 5) and 23-27 s (k = 6; 15-18 s
# adjusted for the host's speed).
ENVELOPE_CAP = 1771


@dataclass(frozen=True)
class SampledFunction:
    """Exact values on every point of a simplex lattice: nums[i] / den
    at lattice.points[i], in ascending lexicographic order of the
    integer coordinates.  The constructor puts (nums, den) in lowest
    terms, gcd(den, *nums) == 1, so equal functions have equal fields
    however they were built.  The kernels read nums and den; values,
    the rational view, is made on first use.
    """

    lattice: BaryLattice
    nums: tuple
    den: int

    def __post_init__(self):
        nums, den = tuple(self.nums), self.den
        if len(nums) != len(self.lattice):
            raise ValueError(f"{len(nums)} values for {len(self.lattice)} lattice points")
        if type(den) is not int or den <= 0:
            raise ValueError(f"denominator must be a positive int, got {den!r}")
        if not all(type(v) is int for v in nums):
            i = next(i for i, v in enumerate(nums) if type(v) is not int)
            raise TypeError(f"numerator {i} must be an int, got {nums[i]!r}")
        g = gcd(den, *nums)
        object.__setattr__(self, "nums", tuple(v // g for v in nums) if g > 1 else nums)
        object.__setattr__(self, "den", den // g)

    @cached_property
    def values(self) -> tuple:
        return tuple(Rat(v, self.den) for v in self.nums)

    @property
    def k(self) -> int:
        return self.lattice.k

    @property
    def resolution(self) -> int:
        return self.lattice.resolution

    def value_at(self, int_coords):
        return Rat(self.nums[self.lattice.index(int_coords)], self.den)


def sampled_function(lat: BaryLattice, values) -> SampledFunction:
    return SampledFunction(lat, *scaled([Rat(v) for v in values]))


@dataclass(frozen=True)
class EnvelopeResult:
    """Envelope values plus, per lattice point, the certificate
    ((point index, weight), ...) of the achieving convex combination."""

    function: SampledFunction
    values: tuple
    certificates: tuple

    def as_function(self) -> SampledFunction:
        return SampledFunction(self.function.lattice, *scaled(self.values))


def check_envelope_cap(lat: BaryLattice) -> None:
    """Raise ValueError when a sweep over lat would exceed ENVELOPE_CAP."""
    if len(lat) > ENVELOPE_CAP:
        raise ValueError(f"envelope over {len(lat)} lattice points (cap {ENVELOPE_CAP})")


@lru_cache(maxsize=8)
def _midpoint_triples(lat: BaryLattice):
    """(p, p + d, p - d) as lattice indices, for every point p and every
    d = e_a - e_b with both ends in the lattice."""
    triples = []
    for i, p in enumerate(lat.int_points):
        for b in range(lat.k + 1):
            for a in range(b):
                if p[a] and p[b]:
                    d = [(t == a) - (t == b) for t in range(lat.k + 1)]
                    hi = lat.index([x + y for x, y in zip(p, d)])
                    triples.append((i, hi, lat.index([x - y for x, y in zip(p, d)])))
    return tuple(triples)


def hull_candidates(f: SampledFunction):
    """Ascending lattice indices of the points p with 2 f(p) >=
    f(p + d) + f(p - d) for every d of _midpoint_triples.

    A point failing that midpoint test lies strictly below the envelope,
    so no optimal LP weighs it, and its column has a negative reduced
    cost in every dual feasible basis, so no dual pivot enters it.  The
    vertices have no such d and are always kept.
    """
    nums = f.nums
    below = {p for p, hi, lo in _midpoint_triples(f.lattice) if 2 * nums[p] < nums[hi] + nums[lo]}
    return [i for i in range(len(nums)) if i not in below]


@lru_cache(maxsize=8)
def _vertex_weights(lat: BaryLattice):
    """Per lattice point z, the certificate ((vertex index, z_t), ...)
    of z as the convex combination of the vertices, over the vertices
    with z_t > 0 in ascending lattice index."""
    weights = [Rat(c, lat.resolution) for c in range(lat.resolution + 1)]
    order = sorted(enumerate(lat.vertex_indices()), key=lambda tv: tv[1])
    return tuple(
        tuple((v, weights[ints[t]]) for t, v in order if ints[t]) for ints in lat.int_points
    )


def _vertex_plane(f: SampledFunction):
    """Numerators over den N of the vertex interpolant A, where
    A(z) = sum_t f(vertex_t) z_t, or None at the first point where f
    rises above it."""
    lat = f.lattice
    nums, resolution = f.nums, lat.resolution
    apex = [nums[v] for v in lat.vertex_indices()]
    plane = []
    for ints, num in zip(lat.int_points, nums):
        a = sum(map(mul, apex, ints))
        if resolution * num > a:
            return None
        plane.append(a)
    return plane


def concave_envelope(f: SampledFunction) -> EnvelopeResult:
    lat = f.lattice
    check_envelope_cap(lat)
    plane = _vertex_plane(f)
    if plane is not None:
        den = f.den * lat.resolution
        value = {a: Rat(a, den) for a in set(plane)}
        return EnvelopeResult(f, tuple(map(value.__getitem__, plane)), _vertex_weights(lat))
    kept = hull_candidates(f)
    solver = ExactSimplexSolver([lat.int_points[j] for j in kept], [f.values[j] for j in kept])
    basis = [kept.index(j) for j in lat.vertex_indices()]
    env_values = []
    certificates = []
    for i, ints in enumerate(lat.int_points):
        sol = solver.solve(ints, basis=basis)
        if sol.status != "optimal":  # pragma: no cover - LP is always feasible/bounded
            raise ArithmeticError(f"envelope LP status {sol.status}")
        assert sol.value >= f.values[i], "envelope fell below the function"
        env_values.append(sol.value)
        certificates.append(
            tuple((kept[c], w) for c, w in sorted(sol.x.items()) if w.numerator > 0)
        )
        basis = sol.basis
    return EnvelopeResult(f, tuple(env_values), tuple(certificates))


def normalize_to_simplex_form(f: SampledFunction) -> SampledFunction:
    """Subtract the affine interpolant of the envelope's vertex values.

    The result vanishes at every vertex of the simplex (the envelope
    always touches the function there, since a vertex admits only the
    trivial convex combination).  When the envelope is affine the
    result is additionally <= 0 everywhere; for general f it is not.
    The inequality reports do not call it: the sup-convolution and the
    envelope both commute with subtracting an affine function, so their
    gains over f are unchanged by the shift.
    """
    env = concave_envelope(f)
    lat = f.lattice
    verts = [env.values[i] for i in lat.vertex_indices()]
    affine = (sum((v * c for v, c in zip(verts, p.coords)), Rat(0)) for p in lat.points)
    return sampled_function(lat, [v - a for v, a in zip(f.values, affine)])


def evaluate_certificate(env: EnvelopeResult, i: int):
    """Recompute (combined point, combined value) of certificate i."""
    lat = env.function.lattice
    k = lat.k
    coords = [Rat(0)] * (k + 1)
    value = Rat(0)
    weight_total = Rat(0)
    for j, w in env.certificates[i]:
        value += w * env.function.values[j]
        weight_total += w
        for t, c in enumerate(lat.points[j].coords):
            coords[t] += w * c
    return BaryPoint(tuple(coords)), value, weight_total
