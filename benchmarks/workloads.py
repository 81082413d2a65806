"""Seeded inputs and item schedules for the benchmark workloads.

The inputs come from this file's own splitmix64 stream, so they do not
move when the package's generators change.  The program only ever sees
the function files written here and the CLI arguments of each item.

Two input families:

- normalised: 0 at the simplex vertices and values in [-1, 0] in steps
  of 1/64 elsewhere, the paper's normal form.  The concave envelope is
  identically 0, so the envelope LP never pivots and the sup-convolution
  DP does most of the work.
- general: nonzero vertex values (an affine part) plus either a concave
  bump with noise or a few positive spikes over a noisy floor.  The
  envelope lies above the vertex plane at most points, so the
  warm-started envelope LP pivots.

A workload is a list of items, each one argv for ``supconvex.cli.main``.
One pass over the list is a round; the closed loop repeats rounds, and
each round of a run draws its inputs from one of a few variants of the
seed, so a run measures many inputs and its figures depend less on any
one of them.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple

_MASK = (1 << 64) - 1

DEFAULT_SEED = 1


class SplitMix64:
    def __init__(self, seed: int):
        self.state = seed & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        return self.next_u64() % bound

    def between(self, lo: int, hi: int) -> int:
        """Integer in [lo, hi]."""
        return lo + self.below(hi - lo + 1)


def compositions(total: int, parts: int):
    """Integer points summing to total, ascending lexicographic (the
    order the function file format requires)."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in compositions(total - first, parts - 1):
            yield (first,) + rest


def lattice_size(k: int, resolution: int) -> int:
    return comb(resolution + k, k)


def _file(k: int, resolution: int, rows) -> dict:
    return {"k": k, "N": resolution, "values": rows}


def normalised(rng: SplitMix64, k: int, resolution: int) -> dict:
    rows = []
    for c in compositions(resolution, k + 1):
        num = 0 if resolution in c else -rng.below(65)
        rows.append(list(c) + [num, 64])
    return _file(k, resolution, rows)


def general(rng: SplitMix64, k: int, resolution: int, shape: str) -> dict:
    """Values over the common denominator 64 N^2.

    The affine part takes vertex values a_i/64 with a_i in [-64, 64].
    shape "concave" adds h/64 * sum z_i (1 - z_i) minus noise; shape
    "spikes" puts a noisy floor below the affine part and lifts a few
    random points above it.
    """
    n_res = resolution
    den = 64 * n_res * n_res
    verts = [rng.between(-64, 64) for _ in range(k + 1)]
    height = rng.between(16, 48)
    points = list(compositions(n_res, k + 1))
    spikes = set()
    if shape == "spikes":
        interior = [i for i, c in enumerate(points) if n_res not in c]
        while len(spikes) < min(k + 3, len(interior)):
            spikes.add(interior[rng.below(len(interior))])
    elif shape != "concave":
        raise ValueError(f"unknown shape {shape!r}")
    rows = []
    for i, c in enumerate(points):
        num = n_res * sum(a * ci for a, ci in zip(verts, c))
        if n_res not in c:
            noise = rng.below(17) * n_res * n_res
            if shape == "concave":
                num += height * sum(ci * (n_res - ci) for ci in c) - noise
            elif i in spikes:
                num += rng.between(8, 32) * n_res * n_res
            else:
                num -= noise
        rows.append(list(c) + [num, den])
    return _file(k, n_res, rows)


class Item(NamedTuple):
    """One request: argv with ``{file}`` placeholders, plus the sizes
    that the metadata and the computed per-layer counts need."""

    name: str
    argv: tuple
    k: int
    resolution: int  # N, or 0 when the item reads no function file
    n: int  # fold count, grid n, or m; 0 when it has none


# Resolutions per workload; tiny=True gives the smoke-test sizes.
_SIZES = {
    False: {"tiny": False, "k2": 10, "k3": 8, "grid": 10, "general": 8},
    True: {"tiny": True, "k2": 4, "k3": 2, "grid": 7, "general": 4},
}

# How the schedules are laid out.  A round of each workload takes about
# 3 s at the reference speed, so that even a run at half that speed
# times at least 100 items, and item_s_tail is always p90.  The items of
# a round fall into groups of similar time, far enough apart that the
# time order of a run's samples is the order of the groups.  The median
# and the 90th percentile then always fall inside one group, the same in
# every run however many rounds it has, instead of between two groups,
# where a small shift in the sample count moves them a lot.


def _supconv(path, n, k, res):
    return Item(f"supconv-n{n}-k{k}-N{res}", ("supconv", "--input", path, "--n", str(n)), k, res, n)


def _pair(f, g, k, res):
    return Item(f"supconv-pair-k{k}-N{res}", ("supconv", "--pair", f, g), k, res, 2)


def _verify_t1(path, n, k, res):
    return Item(f"verify-t1-n{n}-k{k}-N{res}", ("verify-t1", "--input", path, "--n", str(n)), k, res, n)


def _verify_t4(f, g, k, res):
    return Item(f"verify-t4-k{k}-N{res}", ("verify-t4", "--f", f, "--g", g), k, res, 2)


def _envelope(path, k, res):
    return Item(f"envelope-k{k}-N{res}", ("envelope", "--input", path, "--certificates"), k, res, 0)


def _grid(k, n, res):
    args = ("extremal", "--k", str(k), "--N", str(res), "--grid-n", str(n))
    return Item(f"extremal-grid-n{n}-k{k}-N{res}", args, k, res, n)


def _reports_normalised(rng, sizes):
    # 20 items in time groups (at the reference speed): 3 pairs (< 0.06
    # s); 3 three-fold convolutions and 2 grid reports (0.06-0.12 s); 3
    # four-fold convolutions and 3 three-fold reports (~0.17 s, the
    # median, a third of the way into the group); 5 four-fold reports
    # (~0.3 s, p90); one k = 3 three-fold convolution (~0.65 s).
    r2, r3 = sizes["k2"], sizes["k3"]
    files = {f"{x}2": normalised(rng, 2, r2) for x in "abcd"}
    files.update({f"{x}3": normalised(rng, 3, r3) for x in "ab"})
    items = [
        _pair("{a2}", "{b2}", 2, r2),
        _pair("{c2}", "{d2}", 2, r2),
        _pair("{a3}", "{b3}", 3, r3),
        *(_supconv(f"{{{x}2}}", 3, 2, r2) for x in "abc"),
        _grid(2, 2, sizes["grid"]),
        _grid(2, 3, sizes["grid"]),
        *(_supconv(f"{{{x}2}}", 4, 2, r2) for x in "bcd"),
        *(_verify_t1(f"{{{x}2}}", 3, 2, r2) for x in "abd"),
        *(_verify_t1(f"{{{x}2}}", 4, 2, r2) for x in "abcda"),
        _supconv("{b3}", 3, 3, r3),
    ]
    return files, items


def _reports_general(rng, sizes):
    # k = 3 is left out: one general k = 3, N = 8 envelope sweep takes
    # 4-6 s.  Every item reads its own functions; half are concave plus
    # noise and half spikes.  22 items: 7 envelopes and 7 pair reports
    # (0.07-0.13 s, the median), then 4 two-fold and 4 three-fold
    # reports (0.16-0.28 s, p90).
    res = sizes["general"]
    files, items = {}, []
    for i, shape in enumerate(("concave", "spikes") * 3 + ("concave",)):
        files[f"e{i}"] = general(rng, 2, res, shape)
        items.append(_envelope(f"{{e{i}}}", 2, res))
    for i in range(7):
        files[f"f{i}"] = general(rng, 2, res, ("spikes", "concave")[i % 2])
        files[f"g{i}"] = general(rng, 2, res, "concave")
        items.append(_verify_t4(f"{{f{i}}}", f"{{g{i}}}", 2, res))
    for i, shape in enumerate(("concave", "spikes") * 4):
        files[f"v{i}"] = general(rng, 2, res, shape)
        items.append(_verify_t1(f"{{v{i}}}", 2 if i < 4 else 3, 2, res))
    return files, items


def _certify(rng, sizes):
    # The transport check of each averageable item draws its functions
    # from --seed.  A passing report carries no witness, so the output
    # bytes do not depend on the seed.  --trials sets the number of tiny
    # N = 4 sup-convolutions; it is chosen so that all items but the two
    # covers take about as long as (3, 2), which keeps the median and the
    # tail steady.
    def averageable(k, m, trials=20, medial=False):
        args = ("averageable", "--medial") if medial else ("averageable", "--k", str(k), "--m", str(m))
        name = "averageable-medial" if medial else f"averageable-k{k}-m{m}-t{trials}"
        seed = str(rng.below(1 << 31))
        return Item(name, args + ("--trials", str(trials), "--seed", seed), k, 0, m)

    def cover(n, level):
        args = ("cover", "--k", "2", "--n", str(n), "--max-level", str(level))
        return Item(f"cover-k2-n{n}-l{level}", args, 2, 0, n)

    # 24 items: 2 covers (2, 2, 1) (< 0.01 s), 17 averageable items
    # (0.13-0.16 s, the median) and 5 covers (2, 3, 1) (~0.17 s, p90).
    # The cover (2, 2, 2) is left out: at 3-4 s it alone would take
    # more than a round's whole time.
    if sizes["tiny"]:
        return {}, [averageable(2, 2), cover(2, 1)]
    items = [cover(2, 1) for _ in range(2)]
    items += [averageable(2, 2, trials=160) for _ in range(5)]
    items += [averageable(3, 2) for _ in range(4)]
    items += [averageable(3, 2, medial=True) for _ in range(4)]
    items += [averageable(3, 3, trials=6) for _ in range(4)]
    items += [cover(3, 1) for _ in range(5)]
    return {}, items


WORKLOADS = {
    "reports-normalized": _reports_normalised,
    "reports-general": _reports_general,
    "certify": _certify,
}


def build(workload: str, seed: int, variant: int = 0, tiny: bool = False):
    """(files, items) of one round: files maps a placeholder name to a
    function-file document.  Each variant (0 <= variant < 256) of a seed
    draws fresh inputs for the same items."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    return WORKLOADS[workload](SplitMix64(seed << 8 | variant), _SIZES[tiny])
