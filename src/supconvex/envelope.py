"""Discrete concave envelopes on the simplex lattice, solved exactly.

The discrete concave envelope of a function f sampled on the lattice of
denominator-N points of the standard k-simplex is, at each lattice
point z, the largest value of a convex combination of sample values
whose sample points average to z.  That is one small exact LP per
lattice point: maximise sum(w_p f(p)) over weights w with
sum(w_p p) = z, w >= 0, solved on integer coordinates N p and N z (the
weight-sum-1 constraint is implied because they all sum to N) with
f's numerators as the objective, so the LP takes ints only and its
optimum is the envelope's value times f's denominator.  The result is
the envelope as a SampledFunction, numerators over one denominator,
like f itself: no rational value of f is made.

Before any LP, one integer pass compares f with its vertex plane
A(z) = sum_t f(vertex_t) z_t, the affine interpolant of the vertex
values.  If f <= A at every lattice point, as for an input in the
paper's normal form (0 at the vertices, f <= 0), then env = A: A is
concave and at least f, so no convex combination of f values exceeds
A(z), and the vertex combination attains it.  The sweep is then
skipped, and no solver is built.  The envelope is the plane's
numerators over N times f's denominator, and each certificate is z's
own vertex weights, the weights the sweep would return, since from the
vertex basis every reduced cost is <= 0 and Bland's rule never pivots.
The pass stops at the first point above A, so an input whose envelope
lifts off the plane pays almost nothing for it.

Otherwise the LPs run over the hull candidates only: a point p with
2 f(p) < f(p + d) + f(p - d) for some d = e_a - e_b lies strictly below
the envelope, so an optimal LP never weighs it, and its column is
dropped before the sweep (see hull_candidates).  The kept columns stay
in lattice order, so Bland's rule picks among them as before, and
certificate indices are mapped back to the lattice.  The lattice moves
z -> z - e_a + e_b (a < b) are enumerated once per lattice
(_neighbours), into two tables: the midpoint triples this test reads,
and the earlier neighbours the values sweep below reads.

There are two sweeps, one per entry point, and both visit the points
in lattice order.  The k+1 vertex columns form a diagonal basis that is
feasible for every z, so the first point solves from there; subsequent
points hand the solver the basis it last returned, which stays dual
feasible when the right hand side moves, since reduced costs do not
depend on it.  Where that basis is still primal feasible it is optimal
again, and the solver returns it without pricing, re-inverting or
re-checking it, being the tuple it returned.

- concave_envelope, the ordered certificate sweep, repairs an
  infeasible basis by the dual simplex, which skips its
  dual-feasibility pass (the basis was proved optimal) and prices at
  each pivot only the columns its ratio test reads.  Its bases, pivots
  and certificates depend on nothing but f, and each value comes with
  its certificate: the supporting lattice points and their exact
  weights, the only rationals the sweep makes.
- envelope_values, the values sweep, serves the reports, which read
  only mean(env).  Before the dual simplex it tries the bases proved
  optimal at z's earlier neighbours, its moves z - e_a + e_b (a < b,
  at most k(k+1)/2 of them, nearest first): any of them that is primal
  feasible at z is optimal there (complementary slackness), and is
  returned without pricing.  On the benchmark's general k = 2, N = 8
  inputs that halves the dual runs, from 24.9 to 10.8 per sweep.  A
  reused basis can be another optimum than the ordered sweep's at a
  degenerate point, so this sweep returns values only; they are the
  same values.

The solver keeps each basis fraction-free, as integers adj = det B^-1
and det, so its pricing, ratio tests and pivots run in plain integers
(see exactlp), and each optimum is read as an integer numerator over
det; the sweep puts them over their lcm once, at its end.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import gcd, lcm
from operator import mul

from ._rational import Rat, scaled
from .exactlp import ExactSimplexSolver
from .geometry import BaryLattice, BaryPoint

# Cap on the lattice size C(N + k, k) of one sweep, one LP per point
# over the hull candidates, O(|L| |candidates|) exact work.  It admits
# k = 3, N = 20 (1771 points).  On a 2-vCPU host the largest accepted
# values sweeps (envelope_values) of the benchmark's general (pivoting)
# family, which keep 27-51% of their columns, took 0.07 and 0.01 s
# (concave and spikes; k = 1, N = 1770), 0.13 and 0.02 s (k = 2,
# N = 58), 0.8 and 0.07 s (k = 3, N = 20), 1.3-1.8 and 0.08 s (k = 4,
# N = 11), 2.5 and 0.1 s (k = 5, N = 8) and 5.2-5.5 and 0.2 s (k = 6,
# N = 7, 1716 points); certificate sweeps (concave_envelope) took
# 0.08-7.7 and 0.02-2.1 s.  A strictly concave f (-sum p_i^2) passes
# every midpoint test and keeps every column, so its sweeps still bound
# the cap.  Values sweeps took 1.1-1.5 s (k = 1; the same pivots as the
# certificate sweep), 5.9 s (k = 2), 9.4-12.2 s (k = 3), 8.9-9.2 s
# (k = 4), 9.3-9.4 s (k = 5) and 21-23 s (k = 6); certificate sweeps
# 1.2-2.0, 6.2-7.0, 10.1-12.5, 10.9-11.5, 11.9-14.3 and 25-30 s, wall
# time, one to three runs each.
ENVELOPE_CAP = 1771


@dataclass(frozen=True)
class SampledFunction:
    """Exact values on every point of a simplex lattice: nums[i] / den
    at lattice.int_points[i] / N, in ascending lexicographic order of
    the integer coordinates.  The constructor puts (nums, den) in lowest
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
    """The concave envelope of function, on the same lattice, plus, per
    lattice point, the certificate ((point index, weight), ...) of the
    achieving convex combination."""

    function: SampledFunction
    envelope: SampledFunction
    certificates: tuple

    @property
    def values(self) -> tuple:
        """The envelope's rational view."""
        return self.envelope.values


def check_envelope_cap(lat: BaryLattice) -> None:
    """Raise ValueError when a sweep over lat would exceed ENVELOPE_CAP."""
    if len(lat) > ENVELOPE_CAP:
        raise ValueError(f"envelope over {len(lat)} lattice points (cap {ENVELOPE_CAP})")


@lru_cache(maxsize=8)
def _neighbours(lat: BaryLattice):
    """The lattice moves z -> z - e_a + e_b (a < b), enumerated once, as
    two tables of lattice indices: per point z, its earlier neighbours,
    the moves of z, which precede z in lattice order, nearest first (a
    descending, then b ascending); and every midpoint triple
    (p, p + d, p - d) with d = e_a - e_b and both ends in the lattice,
    where p - d is p's move (a, b) and p is the move (a, b) of p + d."""
    k = lat.k
    moves = [  # per point, {(a, b): index of its move (a, b)}
        {
            (a, b): lat.index([c - (t == a) + (t == b) for t, c in enumerate(ints)])
            for a in range(k, -1, -1)
            if ints[a]
            for b in range(a + 1, k + 1)
        }
        for ints in lat.int_points
    ]
    near = tuple(tuple(found.values()) for found in moves)
    triples = tuple(
        (p, hi, moves[p][ab]) for hi, found in enumerate(moves) for ab, p in found.items() if ab in moves[p]
    )
    return near, triples


def hull_candidates(f: SampledFunction):
    """Ascending lattice indices of the points p with 2 f(p) >=
    f(p + d) + f(p - d) for every midpoint triple of _neighbours.

    A point failing that midpoint test lies strictly below the envelope,
    so no optimal LP weighs it, and its column has a negative reduced
    cost in every dual feasible basis, so no dual pivot enters it.  The
    vertices have no such d and are always kept.
    """
    nums = f.nums
    below = {p for p, hi, lo in _neighbours(f.lattice)[1] if 2 * nums[p] < nums[hi] + nums[lo]}
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


def _sweep(f: SampledFunction, certify: bool):
    """The envelope, and with certify the certificates (else None)."""
    lat = f.lattice
    check_envelope_cap(lat)
    plane = _vertex_plane(f)
    if plane is not None:
        env = SampledFunction(lat, plane, f.den * lat.resolution)
        return env, _vertex_weights(lat) if certify else None
    nums = f.nums
    kept = hull_candidates(f)
    solver = ExactSimplexSolver([lat.int_points[j] for j in kept], [nums[j] for j in kept])
    basis = [kept.index(j) for j in lat.vertex_indices()]
    near = None if certify else _neighbours(lat)[0]
    proved = []  # per visited point, the (basis, adj, det) its solve kept
    env_nums, dets, certificates = [], [], []  # env_nums[i] / dets[i]: env times f.den
    for i, ints in enumerate(lat.int_points):
        if near is not None:
            solver.fallbacks = [proved[j] for j in near[i]]
        sol = solver.solve(ints, basis=basis)
        if sol.status != "optimal":  # pragma: no cover - LP is always feasible/bounded
            raise ArithmeticError(f"envelope LP status {sol.status}")
        num, det = sol.num, sol.det
        assert num >= nums[i] * det, "envelope fell below the function"
        env_nums.append(num)
        dets.append(det)
        if certify:
            certificates.append(tuple((kept[c], Rat(w, det)) for c, w, _ in sorted(sol.support) if w > 0))
        else:
            proved.append(solver.proved)
        basis = sol.basis
    den = lcm(*dets)
    env = SampledFunction(lat, [v * (den // d) for v, d in zip(env_nums, dets)], den * f.den)
    return env, tuple(certificates) if certify else None


def concave_envelope(f: SampledFunction) -> EnvelopeResult:
    """The envelope of f with a certificate at every lattice point."""
    return EnvelopeResult(f, *_sweep(f, True))


def envelope_values(f: SampledFunction) -> SampledFunction:
    """The envelope of f alone: the same values as concave_envelope,
    from a sweep that also tries the bases proved at the point's earlier
    neighbours, and so may end on another optimal basis where the LP is
    degenerate."""
    return _sweep(f, False)[0]


def normalize_to_simplex_form(f: SampledFunction) -> SampledFunction:
    """Subtract the affine interpolant of f's vertex values.

    That is the envelope's vertex plane too, since the envelope touches
    f at every vertex (a vertex admits only the trivial convex
    combination), so no envelope is computed: the result is N f - A
    over N times f's denominator, with A the integer plane of
    _vertex_plane.  It vanishes at every vertex of the simplex.  When
    the envelope is affine the result is additionally <= 0 everywhere;
    for general f it is not.  The inequality reports do not call it:
    the sup-convolution and the envelope both commute with subtracting
    an affine function, so their gains over f are unchanged by the
    shift.
    """
    lat = f.lattice
    nums, resolution = f.nums, lat.resolution
    apex = [nums[v] for v in lat.vertex_indices()]
    shifted = [resolution * num - sum(map(mul, apex, ints)) for ints, num in zip(lat.int_points, nums)]
    return SampledFunction(lat, shifted, f.den * resolution)


def evaluate_certificate(env: EnvelopeResult, i: int):
    """Recompute (combined point, combined value, total weight) of
    certificate i, from the lattice's integer points and the function's
    numerators; it reads only env.function and env.certificates."""
    f = env.function
    lat = f.lattice
    cert = env.certificates[i]
    coords = (
        sum((w * lat.int_points[j][t] for j, w in cert), Rat(0)) / lat.resolution
        for t in range(lat.k + 1)
    )
    value = sum((w * f.nums[j] for j, w in cert), Rat(0)) / f.den
    return BaryPoint(tuple(coords)), value, sum((w for _, w in cert), Rat(0))
