"""Spans around the package's cross-module calls, recorded from outside.

The tracer edits no program source.  It replaces each public name that
one module of the package calls in another, in the namespace where the
caller looks it up (``supconvex.harness.sup_convolve_n``,
``supconvex.cli.verify_nfold``, ...), with a wrapper that records a
span: name, start, end, parent span and item id.  The envelope's LP
solver class is replaced in ``supconvex.envelope`` by a subclass whose
``solve`` records a span.  Spans stay in memory until the run ends.

A span is named ``<module>.<function>`` after the module that defines
the function, so each module of the package is one layer.  A layer's
self time is its spans' durations minus the time covered by their
direct children.
"""

from __future__ import annotations

import gzip
import json
from math import comb
from time import perf_counter

# (caller module, name looked up there, defining module).
PATCHES = (
    ("cli", "load_function", "harness"),
    ("cli", "function_payload", "harness"),
    ("cli", "verify_nfold", "harness"),
    ("cli", "verify_pair", "harness"),
    ("cli", "extremal_grid_report", "harness"),
    ("cli", "concave_envelope", "envelope"),
    ("cli", "sup_convolve_n", "supconvolve"),
    ("cli", "sup_convolve_pair", "supconvolve"),
    ("cli", "averaging_certificate", "averageable"),
    ("cli", "medial_certificate", "averageable"),
    ("cli", "verify_certificate", "averageable"),
    ("cli", "best_cover", "cover"),
    ("cli", "relative_volume", "geometry"),
    ("harness", "function_digest", "harness"),
    ("harness", "sharp_constant", "combinat"),
    ("harness", "concave_envelope", "envelope"),
    ("harness", "normalize_to_simplex_form", "envelope"),
    ("harness", "lattice", "geometry"),
    ("harness", "subdivide", "subdivision"),
    ("harness", "cell_contains", "subdivision"),
    ("harness", "sup_convolve_n", "supconvolve"),
    ("harness", "sup_convolve_pair", "supconvolve"),
    ("envelope", "concave_envelope", "envelope"),
    ("exactlp", "solve_lp", "exactlp"),
    ("averageable", "lattice", "geometry"),
    ("averageable", "contains", "geometry"),
    ("averageable", "relative_volume", "geometry"),
    ("averageable", "simplices_interior_intersect", "geometry"),
    ("averageable", "sup_convolve_n", "supconvolve"),
    ("cover", "closure_good", "cover"),
    ("cover", "find_cover", "cover"),
    ("cover", "subdivide", "subdivision"),
    ("cover", "cell_vertices", "subdivision"),
)

LAYERS = (
    "cli", "harness", "envelope", "exactlp", "supconvolve",
    "geometry", "subdivision", "combinat", "averageable", "cover",
)

# What each span keeps for the counts computed after the run, taken from
# (args, result) outside the span's own interval.
_KEEP = {
    "supconvolve.sup_convolve_n": lambda a, r: (a[0].k, a[0].resolution, len(a[0].lattice), a[1]),
    "supconvolve.sup_convolve_pair": lambda a, r: len(a[0].lattice),
    "envelope.concave_envelope": lambda a, r: r,
    "exactlp.solve": lambda a, r: (a[2], r.basis),
    "geometry.lattice": lambda a, r: len(r),
    "subdivision.subdivide": lambda a, r: len(r),
    "cover.closure_good": lambda a, r: (len(r.translates), r.truncated),
}

# Span fields.
NAME, START, END, PARENT, ITEM, KEPT = range(6)


class Tracer:
    def __init__(self, package):
        self.package = package  # the imported supconvex package
        self.spans = []
        self.item = -1
        self._stack = []
        self._saved = []

    def wrap(self, fn, name):
        spans, stack, keep = self.spans, self._stack, _KEEP.get(name)

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if keep is not None:
                rec[KEPT] = keep(args, result)
            return result

        return traced

    def _solver_class(self, base):
        solve = self.wrap(base.solve, "exactlp.solve")

        class TracedSolver(base):
            def solve(self, rhs, basis=None):
                return solve(self, rhs, basis)

        return TracedSolver

    def install(self) -> None:
        pkg = self.package
        for caller, attr, owner in PATCHES:
            module = getattr(pkg, caller)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(original, f"{owner}.{attr}"))
        envelope = pkg.envelope
        self._saved.append((envelope, "ExactSimplexSolver", envelope.ExactSimplexSolver))
        envelope.ExactSimplexSolver = self._solver_class(envelope.ExactSimplexSolver)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path, header: dict) -> None:
        """Spans as gzipped JSON lines after one header line; times are
        seconds from the first span."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with gzip.open(path, "wt") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for s in self.spans:
                row = [s[NAME], round(s[START] - t0, 7), round(s[END] - t0, 7), s[PARENT], s[ITEM]]
                fh.write(json.dumps(row) + "\n")


def self_times(spans):
    """Per-span self time: duration minus direct children's durations."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def dp_pairs(k: int, resolution: int, size: int, n: int) -> int:
    """(stage entry, lattice point) pairs the n-fold DP visits: stage j
    holds the C(jN+k, k) integer vectors summing to jN."""
    return sum(comb(j * resolution + k, k) for j in range(1, n)) * size


def layer_metrics(spans, rounds: int, items_per_round: int) -> dict:
    """Per-layer numbers, per traced round (one pass over the items)."""
    self_s = self_times(spans)
    calls, incl, excl = {}, {}, {}
    for s, own in zip(spans, self_s):
        name = s[NAME]
        calls[name] = calls.get(name, 0) + 1
        incl[name] = incl.get(name, 0.0) + s[END] - s[START]
        excl[name] = excl.get(name, 0.0) + own
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for name, t in excl.items():
        layer_self[name.split(".")[0]] += t

    def kept(name):
        return [s[KEPT] for s in spans if s[NAME] == name]

    n_calls = kept("supconvolve.sup_convolve_n")
    env = kept("envelope.concave_envelope")
    points = lifted = above = support = 0
    for res in env:
        lat = res.function.lattice
        f = res.function.values
        verts = [res.values[i] for i in lat.vertex_indices()]
        for i, p in enumerate(lat.points):
            plane = sum(v * c for v, c in zip(verts, p.coords))
            lifted += res.values[i] > plane
            above += res.values[i] > f[i]
            support += len(res.certificates[i])
        points += len(lat)
    solves = kept("exactlp.solve")
    held = sum(tuple(b_in or ()) == b_out for b_in, b_out in solves)
    changes = sum(len(set(b_out or ()) - set(b_in or ())) for b_in, b_out in solves)
    closures = kept("cover.closure_good")
    cover_cells = sum(
        s[KEPT] for s in spans
        if s[NAME] == "subdivision.subdivide" and s[PARENT] >= 0
        and spans[s[PARENT]][NAME] == "cover.find_cover"
    )

    def per_round(x):
        return x / rounds

    def c(name):
        return per_round(calls.get(name, 0))

    def t(name, table=incl):
        return per_round(table.get(name, 0.0))

    def share(num, den):
        return num / den if den else 0.0

    m = {
        "supconvolve.n_calls": c("supconvolve.sup_convolve_n"),
        "supconvolve.n_s": t("supconvolve.sup_convolve_n"),
        "supconvolve.n_pairs": per_round(sum(dp_pairs(*x) for x in n_calls)),
        "supconvolve.n_max_stage": max(
            (comb(n * res + k, k) for k, res, _, n in n_calls if n > 1), default=0
        ),
        "supconvolve.pair_calls": c("supconvolve.sup_convolve_pair"),
        "supconvolve.pair_s": t("supconvolve.sup_convolve_pair"),
        "supconvolve.pair_pairs": per_round(
            sum(size * size for size in kept("supconvolve.sup_convolve_pair"))
        ),
        "envelope.sweeps": c("envelope.concave_envelope"),
        "envelope.sweeps_per_item": share(calls.get("envelope.concave_envelope", 0), rounds * items_per_round),
        "envelope.sweep_s": t("envelope.concave_envelope"),
        "envelope.points": per_round(points),
        "envelope.normalize_self_s": t("envelope.normalize_to_simplex_form", excl),
        "envelope.support_mean": share(support, points),
        "envelope.lift_share": share(lifted, points),
        "envelope.above_f_share": share(above, points),
        "exactlp.solves": c("exactlp.solve"),
        "exactlp.solve_s": t("exactlp.solve"),
        "exactlp.warm_hold_ratio": share(held, len(solves)),
        "exactlp.basis_changes": per_round(changes),
        "exactlp.cold_calls": c("exactlp.solve_lp"),
        "exactlp.cold_s": t("exactlp.solve_lp"),
        "geometry.lattice_calls": c("geometry.lattice"),
        "geometry.lattice_s": t("geometry.lattice"),
        "geometry.lattice_points": per_round(sum(kept("geometry.lattice"))),
        "geometry.volume_calls": c("geometry.relative_volume"),
        "geometry.volume_s": t("geometry.relative_volume"),
        "geometry.intersect_calls": c("geometry.simplices_interior_intersect"),
        "geometry.intersect_s": t("geometry.simplices_interior_intersect"),
        "subdivision.subdivide_calls": c("subdivision.subdivide"),
        "subdivision.subdivide_s": t("subdivision.subdivide"),
        "subdivision.cell_scans": c("subdivision.cell_contains"),
        "subdivision.cell_scan_s": t("subdivision.cell_contains"),
        "combinat.constant_s": t("combinat.sharp_constant"),
        "averageable.build_s": t("averageable.averaging_certificate") + t("averageable.medial_certificate"),
        "averageable.verify_self_s": t("averageable.verify_certificate", excl),
        "cover.closure_s": t("cover.closure_good"),
        "cover.closure_nodes": per_round(sum(n for n, _ in closures)),
        "cover.truncated": per_round(sum(tr for _, tr in closures)),
        "cover.find_s": t("cover.find_cover"),
        "cover.cells": per_round(cover_cells),
        "harness.load_s": t("harness.load_function"),
        "harness.digest_s": t("harness.function_digest"),
        "harness.verify_self_s": t("harness.verify_nfold", excl) + t("harness.verify_pair", excl),
        "harness.grid_scan_self_s": t("harness.extremal_grid_report", excl),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = per_round(layer_self[layer])
    return m


def unit(name: str) -> str:
    """Unit of a per-layer metric.  Counts and times are per round;
    "computed" marks sizes derived from |L|, N, n and k rather than
    counted, and "pivots-lb" a lower bound on simplex pivots."""
    leaf = name.split(".", 1)[1]
    if leaf.endswith("_s"):
        return "s/round"
    if leaf.endswith(("_share", "_ratio")):
        return "ratio"
    return {
        "sweeps_per_item": "count/item",
        "support_mean": "points",
        "n_pairs": "computed/round",
        "pair_pairs": "computed/round",
        "n_max_stage": "computed-entries",
        "basis_changes": "pivots-lb/round",
    }.get(leaf, "count/round")
