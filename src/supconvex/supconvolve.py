"""Discrete sup-convolutions on the simplex lattice.

The n-fold sup-convolution averages n copies of f over all ways to
write n*z as a sum of n lattice points:

    conv(z) = max (f(x_1) + ... + f(x_n)) / n
              over lattice x_i with x_1 + ... + x_n = n z;

the pairwise form takes f(x) + g(y) over x + y = 2z instead.
Restricting the witnesses to lattice points makes this a pointwise
lower bound for the continuum sup-convolution; at the resolutions used
by the verification harness the bound is tight on the cell interiors
that drive the exact integral identities.

Both forms are one integer dynamic program: values enter as numerators
over the lcm of their denominators, and each lattice point as one
integer whose base-(m*N + 1) digits are its first k coordinates, so
adding codes adds points with no carries.  Stage j holds, for every
sum of j lattice points, the best numerator sum of f_1..f_j; stage
sizes are lattice sizes of dilated simplices, polynomial in N**k.
"""

from __future__ import annotations

from math import comb

from ._rational import Rat, scaled
from .envelope import SampledFunction

# Cap on (m - 1) * C(mN + k, k) * |L|, which bounds the (stage entry,
# lattice point) pairs the DP visits.  On a 2-vCPU host the largest
# accepted runs take up to 35 s and 0.45 GB.
DP_CAP = 6 * 10**8


def check_dp_cap(lat, m: int) -> None:
    """Raise ValueError when the DP over m functions on lat would exceed
    DP_CAP; one function (m = 1) needs no DP."""
    work = (m - 1) * comb(m * lat.resolution + lat.k, lat.k) * len(lat)
    if work > DP_CAP:
        raise ValueError(f"sup-convolution needs up to {work} DP steps (cap {DP_CAP})")


def _best_sums(functions):
    """Best f_1(x_1) + ... + f_m(x_m) for every sum x_1 + ... + x_m, as
    (stage, codes, den): codes[i] codes lattice point i, and
    stage[m * codes[i]] / den is the best sum of witnesses averaging to it.
    """
    lat = functions[0].lattice
    m = len(functions)
    check_dp_cap(lat, m)
    pts = lat.int_points
    base = m * lat.resolution + 1
    codes = [sum(c * base**i for i, c in enumerate(p[:-1])) for p in pts]
    flat, den = scaled([v for f in functions for v in f.values])
    nums = [flat[i * len(pts) : (i + 1) * len(pts)] for i in range(m)]
    stage = dict(zip(codes, nums[0]))
    for vals in nums[1:]:
        new_stage = {}
        get = new_stage.get
        terms = list(zip(codes, vals))
        for w_prev, acc in stage.items():
            for p, v in terms:
                w = w_prev + p
                cand = acc + v
                cur = get(w)
                if cur is None or cand > cur:
                    new_stage[w] = cand
        stage = new_stage
    return stage, codes, den


def sup_convolve_n(f: SampledFunction, n: int) -> SampledFunction:
    """n-fold discrete sup-convolution, exact."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n == 1:
        return f
    stage, codes, den = _best_sums([f] * n)
    return SampledFunction(f.lattice, tuple(Rat(stage[n * c], n * den) for c in codes))


def sup_convolve_pair(f: SampledFunction, g: SampledFunction) -> SampledFunction:
    """Two-function sup-convolution max (f(x) + g(y))/2 over x + y = 2z.

    f and g must be sampled on the same lattice.  Equals
    sup_convolve_n(f, 2) when f and g coincide.
    """
    if f.lattice != g.lattice:
        raise ValueError("functions live on different lattices")
    stage, codes, den = _best_sums([f, g])
    return SampledFunction(f.lattice, tuple(Rat(stage[2 * c], 2 * den) for c in codes))
