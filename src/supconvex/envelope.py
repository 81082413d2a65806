"""Discrete concave envelopes on the simplex lattice, solved exactly.

The discrete concave envelope of a function f sampled on the lattice of
denominator-N points of the standard k-simplex is, at each lattice
point z, the largest value of a convex combination of sample values
whose sample points average to z.  That is one small exact LP per
lattice point: maximise sum(w_p f(p)) over weights w with
sum(w_p p) = z, w >= 0, solved on integer coordinates N p and N z (the
weight-sum-1 constraint is implied because they all sum to N).

The k+1 vertex columns form a diagonal basis that is feasible for
every z, so the first point solves from there; subsequent points reuse
the previous optimal basis, which stays dual feasible when the right
hand side moves.  Where it is still primal feasible it is optimal
again, and the solver returns it without pricing or re-inverting (at
every point after the first when the envelope is affine, as for a
normalised input); elsewhere the dual simplex repairs it in a handful
of pivots.  Being the basis the solver last proved optimal, it skips
the dual simplex's dual-feasibility pass, and each pivot prices only
the columns the ratio test reads.  The solver keeps each basis
fraction-free, as integers adj = det B^-1 and det, so its pricing,
ratio tests and pivots run in plain integers (see exactlp).
Every envelope value comes with a certificate: the supporting lattice
points and exact weights realising it.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._rational import Rat
from .exactlp import ExactSimplexSolver
from .geometry import BaryLattice, BaryPoint

# Cap on the lattice size C(N + k, k) of one sweep, one LP per point
# over every column, O(|L|^2) exact work.  It admits k = 3, N = 20
# (1771 points).  On a busy 2-vCPU host the largest accepted sweeps of
# general (pivoting) inputs take at most 0.2 s (k = 1, N = 1770),
# 2.5 s (k = 2, N = 58), 8.4 s (k = 3, N = 20), 10.2 s (k = 4,
# N = 11), 12.7 s (k = 5, N = 8) and 33.5 s (k = 6, N = 7, 1716
# points; 20-21 s adjusted for the host's speed).
ENVELOPE_CAP = 1771


@dataclass(frozen=True)
class SampledFunction:
    """Exact rational values on every point of a simplex lattice.

    values[i] corresponds to lattice.points[i]; the lattice order is
    ascending lexicographic on integer coordinates.
    """

    lattice: BaryLattice
    values: tuple

    def __post_init__(self):
        if len(self.values) != len(self.lattice):
            raise ValueError(
                f"{len(self.values)} values for {len(self.lattice)} lattice points"
            )

    @property
    def k(self) -> int:
        return self.lattice.k

    @property
    def resolution(self) -> int:
        return self.lattice.resolution

    def value_at(self, int_coords):
        return self.values[self.lattice.index(int_coords)]


def sampled_function(lat: BaryLattice, values) -> SampledFunction:
    return SampledFunction(lat, tuple(Rat(v) for v in values))


@dataclass(frozen=True)
class EnvelopeResult:
    """Envelope values plus, per lattice point, the certificate
    ((point index, weight), ...) of the achieving convex combination."""

    function: SampledFunction
    values: tuple
    certificates: tuple

    def as_function(self) -> SampledFunction:
        return SampledFunction(self.function.lattice, self.values)


def check_envelope_cap(lat: BaryLattice) -> None:
    """Raise ValueError when a sweep over lat would exceed ENVELOPE_CAP."""
    if len(lat) > ENVELOPE_CAP:
        raise ValueError(f"envelope over {len(lat)} lattice points (cap {ENVELOPE_CAP})")


def concave_envelope(f: SampledFunction) -> EnvelopeResult:
    lat = f.lattice
    check_envelope_cap(lat)
    solver = ExactSimplexSolver(lat.int_points, list(f.values))
    basis = lat.vertex_indices()
    env_values = []
    certificates = []
    for i, ints in enumerate(lat.int_points):
        sol = solver.solve(ints, basis=basis)
        if sol.status != "optimal":  # pragma: no cover - LP is always feasible/bounded
            raise ArithmeticError(f"envelope LP status {sol.status}")
        assert sol.value >= f.values[i], "envelope fell below the function"
        env_values.append(sol.value)
        certificates.append(
            tuple((j, w) for j, w in sorted(sol.x.items()) if w > 0)
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
    vertex_vals = [env.values[i] for i in lat.vertex_indices()]
    new_vals = []
    for i, point in enumerate(lat.points):
        affine = sum((v * c for v, c in zip(vertex_vals, point.coords)), Rat(0))
        new_vals.append(f.values[i] - affine)
    return SampledFunction(lat, tuple(new_vals))


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
