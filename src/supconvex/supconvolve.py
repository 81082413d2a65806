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
points are the points of the lattice dilated by j), so the keys and
classes of both halves are cached per (lattice, m); the keys of a stage
between are listed, a range of codes at a time, when the DP grows it.

Each stage, and the join's best sums, live in a table indexed by code.
The codes of j points are at most j*N*(m*N + 1)**(k-1).  A table is a
plain list over those slots where it has few slots per key of its stage
(the join's best sums also few per pair the join meets), and otherwise a
dict that starts with every key of its stage (for the join, the sums
m*z, the only ones it writes).  Every slot starts at one floor, below
any sum of 1..m numerators, so the first candidate for a slot replaces
it, and every pair loop is one body,
`if cand > t[w := x + y]: t[w] = cand`, with no test for a missing key.
Every key of a stage is a sum of its points, so no key of a built stage
holds the floor, and no other slot is read.

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

# Cap on (m - 1) * C(mN + k, k) * |L|, the work of a DP that builds every
# stage in full; it bounds the stage steps and pairs the DP visits.  On
# a 2-vCPU host the largest accepted runs, cold in a fresh process, take
# up to 7.5 s and 29 MiB (k = 1, N = 9999, n = 3); at k >= 2 up to 3.5 s
# (k = 2, N = 1, n = 736, 57 MiB).  The most memory, 126 MiB, goes to
# k = 3, N = 1, n = 171 (2.8 s), most of it the cached classes; the
# largest list, the best sums at k = 3, N = 9, n = 12 (1.3e6 slots),
# takes that run to 36 MiB, against 28 MiB as a dict.
DP_CAP = 6 * 10**8


def check_dp_cap(lat, m: int) -> None:
    """Raise ValueError when the DP over m functions on lat would exceed
    DP_CAP; one function (m = 1) needs no DP."""
    work = (m - 1) * comb(m * lat.resolution + lat.k, lat.k) * len(lat)
    if work > DP_CAP:
        raise ValueError(f"sup-convolution needs up to {work} DP steps (cap {DP_CAP})")


# A stage table is a list indexed by code when it has at most
# STAGE_SLOTS slots per key of its stage, and otherwise a dict over
# those keys.  A list slot takes 8 bytes and a dict key about 75 (its
# entry and its int), so no stage list takes twice the memory of its
# dict, and a list makes each pair's probe cheaper.  The join's best
# sums, of which it writes only the m z, are a list only when they also
# have at most JOIN_SLOTS slots per ordered pair the join meets.  The
# benchmark's DPs (k = 2, N = 10; k = 3, N = 8) have at most 14 slots
# per key and 2.4 per pair, and run 1.2-1.5 times as fast on lists as
# on dicts.  Dicts serve the half stages at k = 3, N = 1, n = 171 (23
# slots per key) and the best sums at k = 4, N = 13, n = 3 (2.9 per
# pair but 20 per key: as a list, 18 MiB more peak RSS and no faster)
# and at k = 5, N = 11, n = 2 (as a list, 1.6 times slower).
STAGE_SLOTS = 16
JOIN_SLOTS = 4


@lru_cache(maxsize=16)
def _layout(lat, m: int):
    """The codes of lat's points, times 1, m, half = floor(m/2) and
    m - half; the keys of the stages of half and of m - half functions
    by class, {r: (-r, codes)}, r their first k coordinates mod m;
    table(j, floor), a table for the stage of j < m functions, or for
    the join's best sums at j = m, with every slot at floor; and
    entries(j, stage), the (key, value) pairs of a built stage of j
    functions.  Repeated reports on one lattice reuse them."""
    k, res = lat.k, lat.resolution
    base = m * res + 1
    steps = [base**i for i in range(k)]

    def code(p):
        return sum(c * s for c, s in zip(p, steps))

    def span(j):
        # The codes whose k digits total at most j N, a digit at a time:
        # each code so far, with what it leaves of j N, spans a range.
        out, rests = [0], [j * res]
        for step in steps:
            pairs, out, rests = zip(out, rests), [], []
            for c, rest in pairs:
                out.extend(range(c, c + (rest + 1) * step, step))
                rests.extend(range(rest, -1, -1))
        return out

    half = m // 2
    codes = tuple(map(code, lat.int_points))
    targets = tuple(m * c for c in codes)
    known = {j: span(j) for j in (1, half, m - half)}

    def keys(j):
        return known[j] if j in known else span(j)

    def classes(j):
        out = {}
        for c in known[j]:
            r = tuple(c // s % base % m for s in steps)
            out.setdefault(r, (tuple(-d % m for d in r), []))[1].append(c)
        return out

    left = classes(half)
    right = left if 2 * half == m else classes(m - half)
    join = sum(len(xs) * len(right[neg][1]) for neg, xs in left.values() if neg in right)

    def table(j, floor):
        # The codes of j points are at most j N base**(k - 1).
        slots = j * res * base ** (k - 1) + 1
        if slots <= STAGE_SLOTS * comb(j * res + k, k) and (j < m or slots <= JOIN_SLOTS * join):
            return [floor] * slots
        return dict.fromkeys(keys(j) if j < m else targets, floor)

    def entries(j, stage):
        if type(stage) is dict:
            return stage.items()
        xs = keys(j)
        return zip(xs, map(stage.__getitem__, xs))

    diag = (tuple(t * c for c in codes) for t in (half, m - half))
    return codes, targets, *diag, left, right, table, entries


def _grow(entries, new, codes, vals):
    """Fill new, the table of one more function with numerators vals,
    from entries, the (key, value) pairs of the stage before."""
    terms = list(zip(codes, vals))
    for x, u in entries:
        for y, v in terms:
            cand = u + v
            if cand > new[w := x + y]:
                new[w] = cand
    return new


def _square(new, codes, vals):
    """Fill new, the table of two functions that both have numerators
    vals: x + y and y + x are one sum, so each unordered pair is
    visited once."""
    terms = list(zip(codes, vals))
    for x, u in terms:
        new[x + x] = u + u
    while terms:
        x, u = terms.pop()
        for y, v in terms:
            cand = u + v
            if cand > new[w := x + y]:
                new[w] = cand
    return new


def _stage(nums, codes, table, entries, floor):
    """The table of the stage of the functions with numerators nums."""
    if len(nums) > 1 and nums[1] == nums[0]:
        stage, j = _square(table(2, floor), codes, nums[0]), 2
    else:
        stage, j = table(1, floor), 1
        for x, u in zip(codes, nums[0]):
            stage[x] = u
    for vals in nums[j:]:
        stage = _grow(entries(j, stage), table(j + 1, floor), codes, vals)
        j += 1
    return stage


def _best_sums(lat, nums):
    """Best nums[0][x_1] + ... + nums[m-1][x_m] over lattice points with
    x_1 + ... + x_m = m * z, for every lattice point z in order; nums
    holds one sequence of integer numerators per function, all of one
    type, since the stage reuse below compares them by value."""
    m = len(nums)
    check_dp_cap(lat, m)
    codes, targets, left_diag, right_diag, left_classes, right_classes, table, entries = _layout(lat, m)
    # Below every sum of 1..m numerators, so the first candidate for a
    # slot always replaces it.
    low = min(map(min, nums))
    floor = min(low, m * low) - 1
    half = m // 2
    left = _stage(nums[:half], codes, table, entries, floor)
    if nums[half:] == nums[:half]:
        right = left
    elif half > 1 and nums[half:-1] == nums[:half]:  # at half = 1, _stage squares
        right = _grow(entries(half, left), table(half + 1, floor), codes, nums[-1])
    else:
        right = _stage(nums[half:], codes, table, entries, floor)
    shared = right is left
    # Every z has the candidate x = half z, y = (m - half) z.
    best = table(m, floor)
    for w, x, y in zip(targets, left_diag, right_diag):
        best[w] = left[x] + right[y]
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
