"""Closed-loop benchmark of the supconvex command line.

    python3 benchmarks/run.py --workload reports-normalized --seed 1 --seconds 40 --trace 0

One client in one process sends the items of a workload to
``supconvex.cli.main(argv)`` in-process, each only after the previous
one has returned, and repeats the item list in rounds until the time is
used; each round takes fresh inputs from one of VARIANTS variants of the
seed.  The package is imported from ``src/`` of the checkout that holds
this file; nothing is installed.

End-to-end metrics, from untraced rounds.  Every time is adjusted for
the host's speed (see ``hostspeed.py``): a calibration probe runs before
and after each timed span, and the span's wall time is divided by the
host's slowness around it.  The wall-time figures are printed as
comments and kept in the report file.

- items_per_s: items completed per second of adjusted item time;
- item_s_p50, item_s_tail: adjusted per-item time, median and the
  highest of TAIL_LADDER's percentiles with at least ten items above it
  (the percentile and the sample count are printed);
- setup_s: median adjusted time of one set-up (package import, input
  generation, file writes); one set-up precedes the loop and
  SETUPS_PER_ROUND more follow each untraced round, each importing the
  package afresh and then putting back the modules the loop runs;
- peak_rss_mib: the process's peak resident set size.

failed_share (failed / attempted) is printed, and the result line
carries both counts.

Every item is checked after the timed loop: its exit code, the sha256 of
its output against the item's first output (and, where recorded, against
``reference_digests.json``), and an exact check from ``checks.py``.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0`` and the per-layer metrics with ``--trace 1``.  A traced run
alternates untraced and traced rounds, so the tracing overhead is
measured on the same inputs in the same process.  Run metadata, and with
``--trace 1`` the spans, are written under ``benchmarks/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from typing import NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUPS_PER_ROUND = 3
VARIANTS = 4  # input variants per run; rounds cycle through them
# The schedules in workloads.py give an untraced 40 s run at least 100
# items even at half the reference speed, so its tail is always p90.
TAIL_LADDER = (50, 75, 90)
TAIL_MIN_BEYOND = 10


class SetupError(Exception):
    pass


def import_package():
    """Import supconvex afresh from this checkout's src/."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "supconvex" or m.startswith("supconvex.")]:
        del sys.modules[name]
    try:
        pkg = importlib.import_module("supconvex")
        importlib.import_module("supconvex.cli")
    except ImportError as exc:
        raise SetupError(f"cannot import supconvex from {src}: {exc}") from None
    if not Path(pkg.__file__).resolve().is_relative_to(src.resolve()):
        raise SetupError(f"supconvex was imported from {pkg.__file__}, not from {src}")
    return pkg


def setup(workload: str, seed: int, workdir: Path, tiny: bool):
    """Import, generate the inputs of every variant and write them;
    returns (package, items, argvs) with argvs[variant][item]."""
    pkg = import_package()
    argvs = []
    for variant in range(VARIANTS):
        files, items = workloads.build(workload, seed, variant, tiny)
        vdir = workdir / f"v{variant}"
        vdir.mkdir(parents=True, exist_ok=True)
        paths = {}
        for name, doc in files.items():
            paths[name] = str(vdir / f"{name}.json")
            with open(paths[name], "w") as fh:
                fh.write(json.dumps(doc))
        argvs.append([[a.format(**paths) for a in item.argv] for item in items])
    return pkg, items, argvs


def _package_modules() -> dict:
    return {n: m for n, m in sys.modules.items() if n == "supconvex" or n.startswith("supconvex.")}


def timed_setup(clock, args, keep: bool):
    """Run setup(*args) as one timed span; returns (result, wall seconds,
    adjusted seconds).  Unless `keep`, the fresh import is dropped and
    the package modules that were loaded before are put back, so the
    loop goes on running the modules it started with."""
    saved = _package_modules()
    start = time.perf_counter()
    result = setup(*args)
    wall = time.perf_counter() - start
    adjusted = clock.adjust(wall)
    if not keep:
        for name in _package_modules():
            del sys.modules[name]
        sys.modules.update(saved)
    return result, wall, adjusted


def run_item(main, argv):
    """One request; returns (exit code or error text, seconds, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(argv)
        except Exception as exc:  # a crash is a failed item, not a failed run
            code = f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    if code != 0 and err.getvalue():
        code = f"{code}: {err.getvalue().strip()[:200]}"
    return code, elapsed, out.getvalue()


class Round(NamedTuple):
    traced: bool
    wall: list  # seconds per item
    adjusted: list  # host-speed-adjusted seconds per item


def closed_loop(pkg, argvs, seconds: float, clock, tracer=None, setup_args=None):
    """Repeat rounds of all items until the nearest whole number of
    rounds fills `seconds`.  With a tracer, every second round is traced.
    With setup_args, SETUPS_PER_ROUND timed set-ups follow each round.
    Returns (rounds, setups, outputs, first): rounds is a list of Round;
    setups a list of (wall, adjusted) seconds; outputs maps (variant,
    item) to a list of (code, sha256); first keeps the first stdout of
    each (variant, item) for the checks."""
    rounds, setups, outputs, first = [], [], {}, {}
    start = time.perf_counter()
    while True:
        # A traced run gives each variant an untraced and a traced round.
        variant = (len(rounds) // 2 if tracer else len(rounds)) % len(argvs)
        traced = tracer is not None and len(rounds) % 2 == 1
        main = pkg.cli.main
        if traced:
            tracer.install()
            main = tracer.wrap(main, "cli.main")
        wall, adjusted = [], []
        try:
            for i, argv in enumerate(argvs[variant]):
                if traced:
                    tracer.item = len(rounds) * len(argvs[variant]) + i
                code, elapsed, text = run_item(main, argv)
                wall.append(elapsed)
                adjusted.append(clock.adjust(elapsed))
                key = (variant, i)
                outputs.setdefault(key, []).append((code, hashlib.sha256(text.encode()).hexdigest()))
                first.setdefault(key, text)
        finally:
            if traced:
                tracer.uninstall()
        rounds.append(Round(traced, wall, adjusted))
        if setup_args is not None:
            for _ in range(SETUPS_PER_ROUND):
                setups.append(timed_setup(clock, setup_args, keep=False)[1:])
        elapsed = time.perf_counter() - start
        mean_round = elapsed / len(rounds)
        whole = tracer is None or len(rounds) % 2 == 0
        if whole and elapsed + mean_round / 2 >= seconds:
            return rounds, setups, outputs, first


def check_outputs(pkg, items, argvs, outputs, first, reference):
    """Count failed item runs: unexpected exit code, digest mismatch, or
    a failed exact check.  Returns (attempted, failed, messages)."""
    attempted = failed = 0
    messages = []
    for (variant, i), runs in outputs.items():
        key = reference_key(variant, i, items[i])
        attempted += len(runs)
        problem = checks.check(pkg, argvs[variant][i], first[variant, i])
        want = reference.get(key) if reference is not None else None
        first_sha = runs[0][1]
        for code, sha in runs:
            bad = problem
            if code != 0:
                bad = f"exit {code}"
            elif sha != first_sha:
                bad = "output differs from the item's first output"
            elif want is not None and sha != want:
                bad = "digest differs from the recorded reference"
            if bad:
                failed += 1
                messages.append(f"{key}: {bad}")
    return attempted, failed, messages


def reference_key(variant: int, index: int, item) -> str:
    return f"{variant}-{index:02d}-{item.name}"


def load_reference(workload: str, seed: int):
    """Recorded digests that apply to this seed, or None."""
    path = BENCH / "reference_digests.json"
    with open(path) as fh:
        entry = json.load(fh).get(workload)
    if entry is None or entry["seed"] not in (None, seed):
        return None
    return entry["items"]


def tail(times):
    """(percentile, value): the highest ladder percentile with at least
    TAIL_MIN_BEYOND items above it, else the median."""
    best = (50, statistics.median(times))
    cuts = statistics.quantiles(times, n=100, method="inclusive") if len(times) > 1 else []
    for p in TAIL_LADDER:
        if cuts and sum(t > cuts[p - 1] for t in times) >= TAIL_MIN_BEYOND:
            best = (p, cuts[p - 1])
    return best


def rate(times):
    """Items completed per second, over all of the item times."""
    return len(times) / sum(times)


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def metadata(pkg, workload, seed, items):
    rat = pkg._rational.Rat
    kinds = {}
    for item in items:
        size = workloads.lattice_size(item.k, item.resolution) if item.resolution else 0
        kinds[item.name] = {"k": item.k, "N": item.resolution, "n": item.n, "lattice": size}
    return {
        "workload": workload,
        "seed": seed,
        "backend": f"{rat.__module__}.{rat.__qualname__}",
        "python": platform.python_version(),
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "items_per_round": len(items),
        "item_kinds": kinds,
    }


def benchmark(workload: str, seed: int, seconds: float, traced: bool, tiny: bool = False):
    """Run one benchmark; returns (result object, report dict)."""
    workdir = OUT / f"work-{workload}-{seed}-{os.getpid()}"
    try:
        clock = hostspeed.HostClock()
        (pkg, items, argvs), *first_setup = timed_setup(clock, (workload, seed, workdir, tiny), keep=True)
        tracer = tracing.Tracer(pkg) if traced else None
        # Timed set-ups after each round write to their own directory.
        setup_args = None if traced else (workload, seed, workdir / "setup", tiny)
        rounds, setups, outputs, first = closed_loop(pkg, argvs, seconds, clock, tracer, setup_args)
        setups.insert(0, tuple(first_setup))
        reference = None if tiny else load_reference(workload, seed)
        attempted, failed, messages = check_outputs(pkg, items, argvs, outputs, first, reference)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [r for r in rounds if not r.traced]
    item_times = [t for r in plain for t in r.adjusted]
    wall_times = [t for r in plain for t in r.wall]
    tail_p, tail_s = tail(item_times)
    end_to_end = {
        "items_per_s": (rate(item_times), "1/s"),
        "item_s_p50": (statistics.median(item_times), "s"),
        "item_s_tail": (tail_s, "s"),
        "setup_s": (statistics.median(adjusted for _, adjusted in setups), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    wall = {
        "items_per_s": rate(wall_times),
        "item_s_p50": statistics.median(wall_times),
        "item_s_tail": tail(wall_times)[1],
        "setup_s": statistics.median(w for w, _ in setups),
    }
    report = {
        "meta": metadata(pkg, workload, seed, items),
        "rounds": len(plain),
        "round_s": [sum(r.adjusted) for r in plain],
        "item_s_by_name": {
            name: statistics.median(
                r.adjusted[i] for r in plain for i, item in enumerate(items) if item.name == name
            )
            for name in dict.fromkeys(item.name for item in items)
        },
        "samples": len(item_times),
        "setups": len(setups),
        "host_slowness": clock.mean_slowness(),
        "wall": wall,
        "tail_percentile": tail_p,
        "failed_share": failed / attempted,
        "failures": messages[:20],
        "reference_checked": reference is not None,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in end_to_end.items()},
    }
    metrics = report["end_to_end"]
    if traced:
        spans = tracer.spans
        traced_rounds = [r for r in rounds if r.traced]
        layers = tracing.layer_metrics(spans, len(traced_rounds), len(items))
        traced_times = [t for r in traced_rounds for t in r.adjusted]
        layers["trace.overhead_share"] = 1 - rate(traced_times) / rate(item_times)
        # Span times are wall times, so they are compared with wall time.
        layers["trace.items_self_s"] = sum(layers[f"{layer}.self_s"] for layer in tracing.LAYERS)
        layers["trace.untraced_round_s"] = sum(wall_times) / len(plain)
        metrics = {k: {"value": v, "unit": tracing.unit(k)} for k, v in layers.items()}
        report["per_layer"] = metrics
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{workload}-seed{seed}.jsonl.gz", report["meta"])
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return result, report


def summary_lines(report):
    meta = report["meta"]
    yield (
        f"# {meta['workload']} seed={meta['seed']} backend={meta['backend']} "
        f"python={meta['python']} nproc={meta['nproc']} commit={meta['commit']}"
    )
    for name, kind in meta["item_kinds"].items():
        yield f"#   item {name}: k={kind['k']} N={kind['N']} n={kind['n']} |L|={kind['lattice']}"
    yield (
        f"# closed loop, 1 client: {report['rounds']} untraced rounds, {report['samples']} items; "
        f"item_s_tail is p{report['tail_percentile']}"
    )
    yield (
        f"# {report['setups']} set-ups; host slowness {report['host_slowness']:.3f} "
        f"(mean probe over {hostspeed.REFERENCE_UNIT_S * 1e3:g} ms); wall-time figures: "
        + ", ".join(f"{k} {v:.6g}" for k, v in report["wall"].items())
    )
    yield f"# failed_share {report['failed_share']:.6g}"
    for message in report["failures"]:
        yield f"#   failed {message}"
    for section in ("end_to_end", "per_layer"):
        for name, m in report.get(section, {}).items():
            yield f"# {name} {m['value']:.6g} {m['unit']}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, report = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    for line in summary_lines(report):
        print(line)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
