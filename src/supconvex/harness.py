"""Verification harness: inputs, inequality reports, exact pipelines.

This module is the batch layer the CLI drives.  It owns

- the function-file format (JSON with exact integer/rational entries),
  read and written as numerators, with no rational made per row,
- the two canonical generators: the normalized extremal function (0 at
  the vertices, -1 elsewhere) and seeded random functions,
- the inequality verifiers, which compare the lattice average of the
  n-fold (or pairwise) sup-convolution gain against the envelope gap
  scaled by the continuum sharp constant, with an explicit tolerance;
  every quantity in a report is an exact rational and only the
  pass/fail threshold consults the tolerance.  The discrete
  sup-convolution takes its witnesses on the lattice, so a function
  that oscillates at lattice scale can fall below the constant by a
  gap that does not shrink with N (see verify_nfold); a verdict is a
  statement about lattice means, not about the continuum inequality,
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
from dataclasses import dataclass, fields
from math import comb, gcd, lcm

from . import __version__
from ._rational import Rat, format_rat, parse_rat
from .combinat import sharp_constant
from .envelope import SampledFunction, check_envelope_cap, concave_envelope, envelope_values
# Unused here; kept because benchmarks/tracing.py wraps this name in
# this module, and its trace mode fails without it.
from .envelope import normalize_to_simplex_form  # noqa: F401
from .geometry import _check_dim, lattice
from .prng import SplitMix64
# Unused here; kept because benchmarks/tracing.py wraps this name in
# this module, and its trace mode fails without it.
from .subdivision import cell_contains  # noqa: F401
from .subdivision import cell_vertices, floor_rule, subdivide
from .supconvolve import check_dp_cap, sup_convolve_n, sup_convolve_pair

DEFAULT_TOL_REL = Rat(1, 20)
DEFAULT_TOL_ABS = Rat(1, 10**9)


# -- function files ---------------------------------------------------------


def function_payload(f: SampledFunction) -> dict:
    den = f.den
    rows = []
    for ints, num in zip(f.lattice.int_points, f.nums):
        g = gcd(num, den)
        rows.append([*ints, num // g, den // g])
    return {"k": f.k, "N": f.resolution, "values": rows}


def function_from_payload(data) -> SampledFunction:
    """Validate a function-file document and build the function.  The
    row count is checked against C(N + k, k) before the lattice is
    built, so a short file claiming a huge N fails at once.  The rows
    go over the lcm of their denominators, as written; SampledFunction
    puts the result in lowest terms, its one form, so reducing each row
    first would change nothing."""
    if not isinstance(data, dict):
        raise ValueError("function file must be a JSON object")
    missing = {"k", "N", "values"} - set(data)
    if missing:
        raise ValueError(f"function file missing keys: {sorted(missing)}")
    k, n_res, rows = data["k"], data["N"], data["values"]
    if {type(k), type(n_res)} != {int}:  # JSON true/false load as bool, an int subclass
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
    nums, dens = [], []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != k + 3:
            raise ValueError(f"row {i}: expected {k + 3} entries")
        ints, num, den = tuple(row[: k + 1]), row[k + 1], row[k + 2]
        if ints != lat.int_points[i]:
            raise ValueError(
                f"row {i}: coordinates {ints} out of order (want {lat.int_points[i]})"
            )
        if not set(map(type, row)) <= {int}:  # bools too
            raise ValueError(f"row {i}: entries must be integers")
        if den <= 0:
            raise ValueError(f"row {i}: denominator must be positive")
        nums.append(num)
        dens.append(den)
    common = lcm(*dens)
    return SampledFunction(lat, [v * (common // d) for v, d in zip(nums, dens)], common)


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
    return SampledFunction(lat, [0 if resolution in ints else -1 for ints in lat.int_points], 1)


# make_random's values are multiples of 1/RANDOM_DENOMINATOR.
RANDOM_DENOMINATOR = 64


def make_random(k: int, resolution: int, seed: int, roughness=1) -> SampledFunction:
    """Seeded random function: 0 at vertices, values in [-1, 0] in
    steps of 1/64 elsewhere.

    roughness in [0, 1] is the fraction of non-vertex points that get a
    random value; the rest stay 0.  Fully deterministic in the seed:
    each non-vertex point consumes one gate word and one draw from
    SplitMix64(seed), whether or not the roughness gate lets the draw
    through, so the stream never depends on the roughness.
    """
    rough = parse_rat(str(roughness)) if isinstance(roughness, (str, float)) else Rat(roughness)
    if not 0 <= rough <= 1:
        raise ValueError("roughness must lie in [0, 1]")
    lat = lattice(k, resolution)
    rng = SplitMix64(seed)
    gate_num = int(rough.numerator) << 64
    gate_den = int(rough.denominator)
    nums = []
    for ints in lat.int_points:
        if resolution in ints:
            nums.append(0)
            continue
        gate = rng.next_u64()
        draw = rng.next_below(RANDOM_DENOMINATOR + 1)
        nums.append(-draw if gate * gate_den < gate_num else 0)
    return SampledFunction(lat, nums, RANDOM_DENOMINATOR)


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
        # The fields in order, not copied: asdict's deep copy costs 20x.
        return {f.name: getattr(self, f.name) for f in fields(self)}


def report_json(report) -> str:
    """Canonical byte-stable JSON for a report payload."""
    payload = report.to_payload() if hasattr(report, "to_payload") else report
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), default=format_rat)


def _verdict(lhs, rhs, constant, tol_rel, tol_abs):
    if rhs == 0:
        return ("pass-degenerate" if lhs >= 0 else "fail"), None
    ok = lhs >= constant * rhs - (tol_rel * rhs + tol_abs)
    return ("pass" if ok else "fail"), lhs / rhs


def _report(kind: str, n: int, inputs, conv, tol_rel, tol_abs) -> InequalityReport:
    """The report on mean(conv - average of the inputs) >= c(k, n) *
    mean(env(f) - f), where f = inputs[0] and conv is their convolution.
    Every mean, of each input, conv and env(f), is computed once, from
    its numerators."""

    def mean(h):
        return Rat(sum(h.nums), h.den * len(h.nums))

    f = inputs[0]
    means = [mean(h) for h in inputs]
    lhs = mean(conv) - sum(means, Rat(0)) / len(means)
    rhs = mean(envelope_values(f)) - means[0]
    constant = sharp_constant(f.k, n)
    verdict, ratio = _verdict(lhs, rhs, constant, tol_rel, tol_abs)
    prov = {name: function_digest(h) for name, h in zip("fg", inputs)}
    prov["version"] = __version__
    return InequalityReport(
        kind, f.k, n, f.resolution, constant, "sharp" if f.k <= 3 else "conjectured",
        lhs, rhs, ratio, Rat(tol_rel), Rat(tol_abs), verdict, prov,
    )


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

    The means are over the lattice and conv_n takes lattice witnesses,
    while c(k, n) is the continuum constant, so a `fail` verdict shows
    that the lattice inequality fails for this f at this resolution,
    not that the continuum one does.  The gap is not an O(1/N)
    quadrature error that the tolerance absorbs: for k = 1 the
    alternating f = (0, -1/2, -1, -1/2, ..., -1/2, 0) has ratio
    N / (3N - 4) at even N (checked for 4 <= N <= 40 and N = 64),
    which tends to 1/3 against c(1, 2) = 1/2, and fails from N = 6 on.

    Both sides are exactly invariant under adding an affine function a
    to f, since conv_n(f - a) = conv_n(f) - a and env(f - a) =
    env(f) - a.  So f is used as given: subtracting its vertex
    interpolant first (normalize_to_simplex_form) would give the same
    exact lhs and rhs.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    _check_caps(f.lattice, n)
    return _report("nfold", n, (f,), sup_convolve_n(f, n), tol_rel, tol_abs)


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
    return _report("pair", 2, (f, g), sup_convolve_pair(f, g), tol_rel, tol_abs)


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

    Representatives come from one pass of subdivision.floor_rule over
    the lattice's integer points c / N: a point off every cell boundary
    lies strictly inside the cell (m, shift) the rule gives, and each
    cell takes the first such point in lattice order.
    """
    f = make_extremal(k, resolution)
    _check_caps(f.lattice, n)
    conv = sup_convolve_n(f, n)
    env = concave_envelope(f).envelope
    lat = f.lattice
    reps = {}
    for idx, ints in enumerate(lat.int_points):
        m, shift, on_boundary = floor_rule(ints, resolution, n)
        if not on_boundary:
            reps.setdefault((m, shift), idx)
    rows = []
    lhs = Rat(0)
    rhs = Rat(0)
    for cell in subdivide(k, n):
        rep = reps.get((cell.m, cell.shift))
        if rep is None:
            raise ValueError(
                f"no interior lattice representative for cell (m={cell.m}, "
                f"shift={cell.shift}) at resolution {resolution}"
            )
        vol = cell.relative_volume()
        conv_val = Rat(conv.nums[rep], conv.den)
        rows.append((cell.m, cell.shift, lat.int_points[rep], conv_val))
        # f = -1 on cell interiors, so the gains are value - (-1).
        lhs += vol * (conv_val + 1)
        rhs += vol * (Rat(env.nums[rep], env.den) + 1)
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
