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

Both forms are one integer dynamic program over m functions: values
enter as numerators over the lcm of their denominators, and each
lattice point as one integer whose base-(m*N + 1) digits are its first
k coordinates, so adding codes adds points with no carries.  The stage
of functions f_1..f_j holds, for every sum of j lattice points, the best
numerator sum f_1(x_1) + ... + f_j(x_j); its size is the lattice size of
the simplex dilated by j, polynomial in N**k.

Only the sums m*z are read, so the DP meets in the middle.  It builds
the stage of the first floor(m/2) functions (left) and the stage of
the rest (right); when both halves carry the same functions, as in the
n-fold form, the half stage is built once, and for odd m the right
stage is that stage grown by one more step.  A sum x + y is m*z for a
lattice point z exactly when the first k coordinates of x + y are
multiples of m: the last one follows, because the coordinates total
m*N.  So the right stage is bucketed by the residues of its coordinates
mod m, and each left entry is paired only with the bucket that cancels
its residue, about |left| * |right| / m**k pairs.  For m = 2 both
stages are the lattice itself and the pairing is a parity filter.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from ._rational import Rat, scaled
from .envelope import SampledFunction

# Cap on (m - 1) * C(mN + k, k) * |L|, the work of a DP that builds every
# stage in full; it bounds the stage steps and (left, right) pairs the
# DP visits.  On a 2-vCPU host the largest accepted runs take up to 24 s
# (k = 1, N = 9999, n = 3) and under 40 MB; at k >= 2 up to 6 s.
DP_CAP = 6 * 10**8


def check_dp_cap(lat, m: int) -> None:
    """Raise ValueError when the DP over m functions on lat would exceed
    DP_CAP; one function (m = 1) needs no DP."""
    work = (m - 1) * comb(m * lat.resolution + lat.k, lat.k) * len(lat)
    if work > DP_CAP:
        raise ValueError(f"sup-convolution needs up to {work} DP steps (cap {DP_CAP})")


def _residue(code: int, base: int, m: int, k: int, sign: int) -> int:
    """The first k coordinates of a coded sum, times sign, mod m, as one
    integer in base m."""
    key = 0
    for _ in range(k):
        code, digit = divmod(code, base)
        key = key * m + sign * digit % m
    return key


@lru_cache(maxsize=16)
def _point_codes(lat, m: int):
    """(base, codes, residues, negated residues) of lat's points for a
    DP over m functions; the tiny DPs of the averageable transport check
    repeat one (lattice, m) many times."""
    base = m * lat.resolution + 1
    codes = tuple(sum(c * base**i for i, c in enumerate(p[:-1])) for p in lat.int_points)
    residues = tuple(_residue(c, base, m, lat.k, 1) for c in codes)
    negated = tuple(_residue(c, base, m, lat.k, -1) for c in codes)
    return base, codes, residues, negated


def _grow(stage: dict, codes, vals) -> dict:
    """The stage of one more function, with numerators vals."""
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
    return new_stage


def _stage(nums, codes) -> dict:
    stage = dict(zip(codes, nums[0]))
    for vals in nums[1:]:
        stage = _grow(stage, codes, vals)
    return stage


def _best_sums(lat, nums):
    """Best nums[0][x_1] + ... + nums[m-1][x_m] over lattice points with
    x_1 + ... + x_m = m * z, for every lattice point z in order; nums
    holds one list of integer numerators per function."""
    m = len(nums)
    check_dp_cap(lat, m)
    base, codes, residues, negated = _point_codes(lat, m)
    half = m // 2
    left = _stage(nums[:half], codes)
    if nums[half : 2 * half] == nums[:half]:
        right = _grow(left, codes, nums[-1]) if m % 2 else left
    else:
        right = _stage(nums[half:], codes)

    def keyed(stage, n_functions, cached, sign):
        if n_functions == 1:  # the stage is the lattice, in order
            return zip(cached, stage.items())
        return ((_residue(w, base, m, lat.k, sign), (w, v)) for w, v in stage.items())

    buckets = {}
    for key, entry in keyed(right, m - half, residues, 1):
        buckets.setdefault(key, []).append(entry)
    best = {}
    get = best.get
    for key, (x, u) in keyed(left, half, negated, -1):
        for y, v in buckets.get(key, ()):
            w = x + y
            cand = u + v
            cur = get(w)
            if cur is None or cand > cur:
                best[w] = cand
    return [best[m * c] for c in codes]


def best_sums_n(lat, nums, n: int):
    """n-fold best sums of integer numerators: for every lattice point z
    in order, the max of nums[x_1] + ... + nums[x_n] over lattice points
    with x_1 + ... + x_n = n * z.  For n = 1 this is nums itself."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n == 1:
        return nums
    return _best_sums(lat, [nums] * n)


def sup_convolve_n(f: SampledFunction, n: int) -> SampledFunction:
    """n-fold discrete sup-convolution, exact."""
    if n == 1:
        return f
    nums, den = scaled(f.values)
    best = best_sums_n(f.lattice, nums, n)
    return SampledFunction(f.lattice, tuple(Rat(b, n * den) for b in best))


def sup_convolve_pair(f: SampledFunction, g: SampledFunction) -> SampledFunction:
    """Two-function sup-convolution max (f(x) + g(y))/2 over x + y = 2z.

    f and g must be sampled on the same lattice.  Equals
    sup_convolve_n(f, 2) when f and g coincide.
    """
    if f.lattice != g.lattice:
        raise ValueError("functions live on different lattices")
    flat, den = scaled(f.values + g.values)
    size = len(f.lattice)
    best = _best_sums(f.lattice, [flat[:size], flat[size:]])
    return SampledFunction(f.lattice, tuple(Rat(b, 2 * den) for b in best))
