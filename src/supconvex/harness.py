"""Verification harness: inputs, inequality reports, exact pipelines.

This module is the batch layer the CLI drives.  It owns

- the function-file format (JSON with exact integer/rational entries),
- the two canonical generators: the normalized extremal function (0 at
  the vertices, -1 elsewhere) and seeded random functions,
- the inequality verifiers, which compare the lattice average of the
  n-fold (or pairwise) sup-convolution gain against the envelope gap
  scaled by the sharp constant, with an explicit tolerance that exists
  only because equal-weight lattice quadrature of a nonconstant
  integrand carries O(1/N) bias; every quantity in a report is an
  exact rational and only the pass/fail threshold consults the
  tolerance,
- the quadrature-free extremal pipeline: for the extremal function the
  sup-convolution is constant on the interior of every subdivision
  cell, so evaluating it at one interior lattice representative per
  cell and weighting by exact cell volumes gives integrals with no
  quadrature error at all; the resulting ratio must equal the sharp
  constant exactly, which crosses the dynamic-programming route against
  the combinatorial one,
- an SVG rendering of the k = 2 subdivision.

Function file schema (one JSON object):

    {"k": 2, "N": 4, "values": [[c_0, ..., c_k, num, den], ...]}

with rows in ascending lexicographic order of the integer coordinates
c (which sum to N), and num/den the exact value at that point.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from . import __version__
from ._rational import Rat, format_rat, scaled
from .combinat import sharp_constant
from .envelope import SampledFunction, check_envelope_cap, concave_envelope
# Unused here; kept because benchmarks/tracing.py wraps this name in
# this module, and its trace mode fails without it.
from .envelope import normalize_to_simplex_form  # noqa: F401
from .geometry import _check_dim, lattice
from .prng import SplitMix64
from .subdivision import cell_contains, cell_vertices, subdivide
from .supconvolve import check_dp_cap, sup_convolve_n, sup_convolve_pair

DEFAULT_TOL_REL = Rat(1, 20)
DEFAULT_TOL_ABS = Rat(1, 10**9)


# -- function files ---------------------------------------------------------


def function_payload(f: SampledFunction) -> dict:
    rows = []
    for ints, value in zip(f.lattice.int_points, f.values):
        rows.append(list(ints) + [int(value.numerator), int(value.denominator)])
    return {"k": f.k, "N": f.resolution, "values": rows}


def _is_int(v) -> bool:
    # JSON true/false load as bool, a subclass of int; reject them.
    return isinstance(v, int) and not isinstance(v, bool)


def function_from_payload(data) -> SampledFunction:
    """Validate a function-file document and build the function.  The
    row count is checked against C(N + k, k) before the lattice is
    built, so a short file claiming a huge N fails at once."""
    if not isinstance(data, dict):
        raise ValueError("function file must be a JSON object")
    missing = {"k", "N", "values"} - set(data)
    if missing:
        raise ValueError(f"function file missing keys: {sorted(missing)}")
    k, n_res, rows = data["k"], data["N"], data["values"]
    if not (_is_int(k) and _is_int(n_res)):
        raise ValueError("k and N must be integers")
    _check_dim(k)  # before comb(), which is slow for a huge k
    if n_res < 1:
        raise ValueError("resolution must be >= 1")
    if not isinstance(rows, list):
        raise ValueError("values must be a list of rows")
    expected = comb(n_res + k, k)
    if len(rows) != expected:
        raise ValueError(f"expected {expected} rows, got {len(rows)}")
    lat = lattice(k, n_res)
    values = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != k + 3:
            raise ValueError(f"row {i}: expected {k + 3} entries")
        ints, num, den = tuple(row[: k + 1]), row[k + 1], row[k + 2]
        if ints != lat.int_points[i]:
            raise ValueError(
                f"row {i}: coordinates {ints} out of order (want {lat.int_points[i]})"
            )
        if not all(_is_int(v) for v in row):
            raise ValueError(f"row {i}: entries must be integers")
        if den <= 0:
            raise ValueError(f"row {i}: denominator must be positive")
        values.append(Rat(num, den))
    return SampledFunction(lat, tuple(values))


def save_function(f: SampledFunction, path) -> None:
    with open(path, "w") as fh:
        json.dump(function_payload(f), fh)
        fh.write("\n")


def load_function(path) -> SampledFunction:
    with open(path) as fh:
        return function_from_payload(json.load(fh))


def function_digest(f: SampledFunction) -> str:
    blob = json.dumps(function_payload(f), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


# -- generators -------------------------------------------------------------


def make_extremal(k: int, resolution: int) -> SampledFunction:
    """0 at the k+1 vertices, -1 at every other lattice point."""
    lat = lattice(k, resolution)
    values = tuple(
        Rat(0) if resolution in ints else Rat(-1) for ints in lat.int_points
    )
    return SampledFunction(lat, values)


def make_random(k: int, resolution: int, seed: int, roughness=1) -> SampledFunction:
    """Seeded random function: 0 at vertices, values in [-1, 0] in
    steps of 1/64 elsewhere.

    roughness in [0, 1] is the fraction of non-vertex points that get a
    random value; the rest stay 0.  Fully deterministic in the seed.
    """
    rough = Rat(Fraction(str(roughness))) if isinstance(roughness, (str, float)) else Rat(roughness)
    if not 0 <= rough <= 1:
        raise ValueError("roughness must lie in [0, 1]")
    lat = lattice(k, resolution)
    rng = SplitMix64(seed)
    gate_num = int(rough.numerator)
    gate_den = int(rough.denominator)
    values = []
    for ints in lat.int_points:
        if resolution in ints:
            values.append(Rat(0))
            continue
        gate = rng.next_u64()
        draw = rng.next_below(65)
        if gate * gate_den < gate_num * (1 << 64):
            values.append(-Rat(draw, 64))
        else:
            values.append(Rat(0))
    return SampledFunction(lat, tuple(values))


def mean_value(values):
    """Exact mean of rational values (any iterable): one integer sum over
    their common denominator."""
    nums, den = scaled(tuple(values))
    return Rat(sum(nums), den * len(nums))


# -- inequality reports -------------------------------------------------------


@dataclass(frozen=True)
class InequalityReport:
    kind: str  # "nfold" or "pair"
    k: int
    n: int
    resolution: int
    constant: object
    constant_kind: str  # "sharp" or "conjectured"
    lhs: object
    rhs: object
    ratio: object  # None when rhs == 0
    tol_rel: object
    tol_abs: object
    verdict: str  # "pass", "pass-degenerate", or "fail"
    provenance: dict

    @property
    def passed(self) -> bool:
        return self.verdict != "fail"

    def to_payload(self) -> dict:
        return {
            "kind": self.kind,
            "k": self.k,
            "n": self.n,
            "resolution": self.resolution,
            "constant": format_rat(self.constant),
            "constant_kind": self.constant_kind,
            "lhs": format_rat(self.lhs),
            "rhs": format_rat(self.rhs),
            "ratio": None if self.ratio is None else format_rat(self.ratio),
            "tol_rel": format_rat(self.tol_rel),
            "tol_abs": format_rat(self.tol_abs),
            "verdict": self.verdict,
            "provenance": self.provenance,
        }


def report_json(report) -> str:
    """Canonical byte-stable JSON for a report payload."""
    payload = report.to_payload() if hasattr(report, "to_payload") else report
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _verdict(lhs, rhs, constant, tol_rel, tol_abs):
    if rhs == 0:
        return ("pass-degenerate" if lhs >= 0 else "fail"), None
    ok = lhs >= constant * rhs - (tol_rel * rhs + tol_abs)
    return ("pass" if ok else "fail"), lhs / rhs


def _check_caps(lat, m: int) -> None:
    """Both work budgets of a report (an m-function DP and an envelope
    sweep), checked before either kernel runs, so that an input over one
    cap is refused without first paying for the other kernel."""
    check_dp_cap(lat, m)
    check_envelope_cap(lat)


def verify_nfold(
    f: SampledFunction,
    n: int,
    tol_rel=DEFAULT_TOL_REL,
    tol_abs=DEFAULT_TOL_ABS,
) -> InequalityReport:
    """Check mean(conv_n(f) - f) >= c(k, n) * mean(env(f) - f).

    Both sides are exactly invariant under adding an affine function a
    to f, since conv_n(f - a) = conv_n(f) - a and env(f - a) =
    env(f) - a.  So f is used as given: subtracting the envelope's
    vertex interpolant first (normalize_to_simplex_form) would give the
    same exact lhs and rhs at the cost of a second envelope sweep.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    _check_caps(f.lattice, n)
    conv = sup_convolve_n(f, n)
    env = concave_envelope(f)
    mean_f = mean_value(f.values)
    lhs = mean_value(conv.values) - mean_f
    rhs = mean_value(env.values) - mean_f
    constant = sharp_constant(f.k, n)
    verdict, ratio = _verdict(lhs, rhs, constant, tol_rel, tol_abs)
    prov = {"f": function_digest(f), "version": __version__}
    return InequalityReport(
        "nfold", f.k, n, f.resolution, constant, "sharp" if f.k <= 3 else "conjectured",
        lhs, rhs, ratio, tol_rel, tol_abs, verdict, prov,
    )


def verify_pair(
    f: SampledFunction,
    g: SampledFunction,
    tol_rel=DEFAULT_TOL_REL,
    tol_abs=DEFAULT_TOL_ABS,
) -> InequalityReport:
    """Check mean(conv(f, g) - (f+g)/2) >= (k+1)/2^(k+1) * mean(env(f) - f).

    Unlike the n-fold check the left side is not invariant under
    shifting f alone by an affine function (the shift migrates to g),
    so both inputs are used exactly as given.
    """
    if f.lattice != g.lattice:
        raise ValueError("f and g must share a lattice")
    _check_caps(f.lattice, 2)
    conv = sup_convolve_pair(f, g)
    mean_f = mean_value(f.values)
    lhs = mean_value(conv.values) - (mean_f + mean_value(g.values)) / Rat(2)
    env = concave_envelope(f)
    rhs = mean_value(env.values) - mean_f
    k = f.k
    constant = Rat(k + 1, 2 ** (k + 1))
    verdict, ratio = _verdict(lhs, rhs, constant, tol_rel, tol_abs)
    prov = {
        "f": function_digest(f),
        "g": function_digest(g),
        "version": __version__,
    }
    return InequalityReport(
        "pair", k, 2, f.resolution, constant, "sharp" if k <= 3 else "conjectured",
        lhs, rhs, ratio, tol_rel, tol_abs, verdict, prov,
    )


# -- quadrature-free extremal pipeline ---------------------------------------


@dataclass(frozen=True)
class ExtremalGridReport:
    """Exact integrals of the extremal function's convolution gain,
    computed from DP values at interior cell representatives weighted
    by exact cell volumes (no quadrature bias)."""

    k: int
    n: int
    resolution: int
    rows: tuple  # (m, shift, representative ints, conv value) per cell
    lhs: object
    rhs: object

    @property
    def ratio(self):
        return self.lhs / self.rhs


def extremal_grid_report(k: int, n: int, resolution: int) -> ExtremalGridReport:
    """Cell-accounted integrals for the extremal function.

    Needs every subdivision cell to contain a strictly interior lattice
    point of the given resolution N, and raises ValueError otherwise.
    A multiple N of n with N / n >= k + 1 always suffices: scaled by n,
    a level-m cell is a slice of a unit cube, whose interior points on
    the 1/(N/n) grid need N / n >= (k + 1) / min(m, k + 1 - m).  Many
    other N work as well.
    """
    f = make_extremal(k, resolution)
    _check_caps(f.lattice, n)
    conv = sup_convolve_n(f, n)
    env = concave_envelope(f)
    lat = f.lattice
    rows = []
    lhs = Rat(0)
    rhs = Rat(0)
    for cell in subdivide(k, n):
        rep = None
        for idx, p in enumerate(lat.points):
            if cell_contains(cell, p, strict=True):
                rep = idx
                break
        if rep is None:
            raise ValueError(
                f"no interior lattice representative for cell (m={cell.m}, "
                f"shift={cell.shift}) at resolution {resolution}"
            )
        vol = cell.relative_volume()
        conv_val = conv.values[rep]
        rows.append((cell.m, cell.shift, lat.int_points[rep], conv_val))
        # f = -1 on cell interiors, so the gains are value - (-1).
        lhs += vol * (conv_val + 1)
        rhs += vol * (env.values[rep] + 1)
    return ExtremalGridReport(k, n, resolution, tuple(rows), lhs, rhs)


# -- rendering ----------------------------------------------------------------


def subdivision_svg(n: int) -> str:
    """SVG of the k = 2 subdivision: n(n+1)/2 upward cells shaded,
    n(n-1)/2 downward cells white."""
    size = 420.0
    pad = 10.0
    height = size * 0.8660254
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="0 0 {size + 2 * pad:.1f} {height + 2 * pad:.1f}">'
    ]
    for cell in subdivide(2, n):
        pts = []
        for v in cell_vertices(cell):
            a, b, c = (float(x) for x in v.coords)
            x = pad + (b + 0.5 * c) * size
            y = pad + (1.0 - c) * height
            pts.append(f"{x:.2f},{y:.2f}")
        css = "up" if cell.m == 1 else "down"
        fill = "#cbd5e1" if cell.m == 1 else "#ffffff"
        parts.append(
            f'<polygon class="{css}" points="{" ".join(pts)}" '
            f'fill="{fill}" stroke="#334155" stroke-width="1"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts)
