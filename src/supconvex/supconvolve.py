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
enter as their numerators f.nums over the lcm of their denominators,
and each lattice point as one integer whose base-(m*N + 1) digits are
its first k coordinates, so adding codes adds points with no carries.
The stage of functions f_1..f_j holds, for every sum of j lattice
points, the best numerator sum f_1(x_1) + ... + f_j(x_j); its size is
the lattice size of the simplex dilated by j, polynomial in N**k.

Only the sums m*z are read, so the DP meets in the middle.  It builds
the stage of the first floor(m/2) functions (left) and the stage of
the rest (right); when both halves carry the same functions, as in the
n-fold form, the half stage is built once, and for odd m the right
stage is that stage grown by one more step.  A sum x + y is m*z for a
lattice point z exactly when the first k coordinates of x + y are
multiples of m: the last one follows, because the coordinates total
m*N.  So the join goes class by class: the left entries whose
coordinates are r mod m meet only the right class -r, about
|left| * |right| / m**k pairs.  A stage's keys and classes depend only
on the lattice, m and its number of functions j (the sums of j lattice
points are the points of the lattice dilated by j), so they are cached
per (lattice, m), and each call looks its stage values up by key.

When the m functions are equal in value, (x, y) and (y, x) give one
sum, and each unordered pair is visited once: in the second stage,
grown from the lattice, and in the join of a stage with itself (even
m), where each pair of classes {r, -r} meets once and a class with
r = -r meets itself in a triangle.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, lcm

from .envelope import SampledFunction
from .geometry import compositions

# Cap on (m - 1) * C(mN + k, k) * |L|, the work of a DP that builds every
# stage in full; it bounds the stage steps and pairs the DP visits.  On
# a 2-vCPU host the largest accepted runs, cold in a fresh process, take
# up to 15 s (k = 1, N = 9999, n = 3) and under 40 MB; at k >= 2 up to 3 s.
DP_CAP = 6 * 10**8


def check_dp_cap(lat, m: int) -> None:
    """Raise ValueError when the DP over m functions on lat would exceed
    DP_CAP; one function (m = 1) needs no DP."""
    work = (m - 1) * comb(m * lat.resolution + lat.k, lat.k) * len(lat)
    if work > DP_CAP:
        raise ValueError(f"sup-convolution needs up to {work} DP steps (cap {DP_CAP})")


@lru_cache(maxsize=16)
def _layout(lat, m: int):
    """The codes of lat's points, times 1, m, half = floor(m/2) and
    m - half, and the keys of the stages of half and of m - half
    functions by class, {r: (-r, codes)}, r their first k coordinates
    mod m; repeated reports on one lattice reuse them."""
    base = m * lat.resolution + 1

    def code(p):
        return sum(c * base**i for i, c in enumerate(p[:-1]))

    def classes(j):
        out = {}
        for p in compositions(j * lat.resolution, lat.k + 1):
            r = tuple(c % m for c in p[:-1])
            out.setdefault(r, (tuple(-c % m for c in r), []))[1].append(code(p))
        return out

    half = m // 2
    codes = tuple(map(code, lat.int_points))
    left = classes(half)
    right = left if 2 * half == m else classes(m - half)
    return codes, *(tuple(t * c for c in codes) for t in (m, half, m - half)), left, right


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


def _square(codes, vals) -> dict:
    """The stage of two functions that both have numerators vals: x + y
    and y + x are one sum, so each unordered pair is visited once."""
    terms = list(zip(codes, vals))
    stage = {x + x: u + u for x, u in terms}
    get = stage.get
    while terms:
        x, u = terms.pop()
        for y, v in terms:
            w = x + y
            cand = u + v
            cur = get(w)
            if cur is None or cand > cur:
                stage[w] = cand
    return stage


def _stage(nums, codes) -> dict:
    if len(nums) > 1 and nums[1] == nums[0]:
        stage, rest = _square(codes, nums[0]), nums[2:]
    else:
        stage, rest = dict(zip(codes, nums[0])), nums[1:]
    for vals in rest:
        stage = _grow(stage, codes, vals)
    return stage


def _best_sums(lat, nums):
    """Best nums[0][x_1] + ... + nums[m-1][x_m] over lattice points with
    x_1 + ... + x_m = m * z, for every lattice point z in order; nums
    holds one sequence of integer numerators per function, all of one
    type, since the stage reuse below compares them by value."""
    m = len(nums)
    check_dp_cap(lat, m)
    codes, targets, left_diag, right_diag, left_classes, right_classes = _layout(lat, m)
    half = m // 2
    left = _stage(nums[:half], codes)
    if nums[half:] == nums[:half]:
        right = left
    elif half > 1 and nums[half:-1] == nums[:half]:  # at half = 1, _stage squares
        right = _grow(left, codes, nums[-1])
    else:
        right = _stage(nums[half:], codes)
    shared = right is left
    # Every z has the candidate x = half z, y = (m - half) z.
    best = {w: left[x] + right[y] for w, x, y in zip(targets, left_diag, right_diag)}
    for r, (neg, xs) in left_classes.items():
        if shared and neg < r:
            continue  # classes r and -r of one stage met when -r came up
        partner = right_classes.get(neg)
        if partner is None:
            continue
        xs = [(x, left[x]) for x in xs]
        # A class that pairs with itself in one stage is its own partner
        # list: each x popped from it meets the entries still in it, so
        # every unordered pair once.  Its pairs (x, x) are the candidates
        # above, x + x = m z forcing x = half z.
        ys = xs if shared and neg == r else [(y, right[y]) for y in partner[1]]
        while xs:
            x, u = xs.pop()
            for y, v in ys:
                cand = u + v
                if cand > best[w := x + y]:
                    best[w] = cand
    return [best[w] for w in targets]


def sup_convolve_n(f: SampledFunction, n: int) -> SampledFunction:
    """n-fold discrete sup-convolution, exact."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if n == 1:
        return f
    return SampledFunction(f.lattice, _best_sums(f.lattice, [f.nums] * n), n * f.den)


def sup_convolve_pair(f: SampledFunction, g: SampledFunction) -> SampledFunction:
    """Two-function sup-convolution max (f(x) + g(y))/2 over x + y = 2z.

    f and g must be sampled on the same lattice.  Equals
    sup_convolve_n(f, 2) when f and g coincide.
    """
    if f.lattice != g.lattice:
        raise ValueError("functions live on different lattices")
    den = lcm(f.den, g.den)
    nums = [tuple(v * (den // h.den) for v in h.nums) for h in (f, g)]
    return SampledFunction(f.lattice, _best_sums(f.lattice, nums), 2 * den)
