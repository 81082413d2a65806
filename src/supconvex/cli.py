"""Command-line interface.

One subcommand per pipeline; every payload is JSON (default) or
flattened CSV, printed to stdout or written with --out.  Exit codes:
0 success, 2 a verification/inequality check failed, 1 usage or input
error.  Payloads hold exact values; the writers render every rational
as a "p/q" string (an integer-valued one as "p"), so no float is
printed.

``main`` builds its argument parser on the first call and reuses it for
every later call in the process: each ``parse_args`` returns a fresh
namespace, and usage errors raise instead of exiting, so no state is
carried from one call to the next.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from itertools import chain
from json.encoder import encode_basestring_ascii

from ._rational import Rat, format_rat, parse_rat
from .averageable import (
    UnsupportedCertificateError,
    averaging_certificate,
    medial_certificate,
    verify_certificate,
)
from .combinat import (
    asymptotic_bound,
    closed_form_constant,
    constant_report,
    rate_constant_conjectured,
    rate_constant_covering,
    worpitzky_check,
)
from .cover import best_cover
from .envelope import concave_envelope
from .geometry import bary_point, relative_volume
from .harness import (
    DEFAULT_TOL_ABS,
    DEFAULT_TOL_REL,
    extremal_grid_report,
    function_payload,
    load_function,
    make_extremal,
    make_random,
    subdivision_svg,
    verify_nfold,
    verify_pair,
)
from .subdivision import classify_point, extremal_profile, subdivide
from .supconvolve import sup_convolve_n, sup_convolve_pair


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 for usage problems, not argparse's 2
        raise _UsageError(message)


def _add_common(parser, suppress: bool) -> None:
    # The same flags are registered on the main parser (with real
    # defaults) and on every subparser (defaulting to SUPPRESS so a
    # pre-subcommand value is not stomped); both positions work.
    sup = argparse.SUPPRESS
    parser.add_argument(
        "--format", choices=("json", "csv"), default=sup if suppress else "json"
    )
    parser.add_argument(
        "--out",
        default=sup if suppress else None,
        help="write the payload to this file instead of stdout",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=sup if suppress else 1,
        help="seed for random generation",
    )


@functools.cache
def _build_parser() -> _Parser:
    # --help leaves out the docstring's last paragraph, on parser reuse.
    parser = _Parser(prog="supconvex", description=__doc__.rsplit("\n\n", 1)[0])
    _add_common(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("constants", help="exact smoothing constants and identities")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("subdivide", help="hypersimplex subdivision cells of T")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--svg", help="write an SVG rendering (k = 2 only) to this file")

    p = sub.add_parser("classify", help="locate a point in the subdivision")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--point", required=True, help="comma-separated barycentric coordinates, e.g. 1/2,1/4,1/4"
    )

    p = sub.add_parser("envelope", help="discrete concave envelope of a function file")
    p.add_argument("--input", required=True)
    p.add_argument("--certificates", action="store_true", help="include per-point certificates")

    p = sub.add_parser("supconv", help="n-fold or pairwise sup-convolution")
    p.add_argument("--input", help="function file for the n-fold form")
    p.add_argument("--n", type=int, help="fold count (with --input)")
    p.add_argument("--pair", nargs=2, metavar=("F", "G"), help="two function files")

    p = sub.add_parser("verify-t1", help="n-fold smoothing inequality report")
    p.add_argument("--input", required=True)
    p.add_argument("--n", type=int, required=True)
    _add_tolerances(p)

    p = sub.add_parser("verify-t4", help="pairwise smoothing inequality report")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    _add_tolerances(p)

    p = sub.add_parser("averageable", help="build and verify an averaging certificate")
    p.add_argument("--k", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--medial", action="store_true", help="the k = 3 medial variant")
    p.add_argument("--trials", type=int, help="ignored: the transport check samples nothing")

    p = sub.add_parser("cover", help="good-translate closure and cover certificate")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-level", type=int, required=True)
    p.add_argument("--budget", type=int, default=4000)
    p.add_argument("--traces", action="store_true", help="include derivation traces")

    p = sub.add_parser("extremal", help="extremal function file or its exact profile")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--N", type=int, dest="resolution", help="emit the function at this resolution")
    p.add_argument("--n", type=int, help="emit the exact analytic profile for this n")
    p.add_argument("--grid-n", type=int, help="with --N: cell-accounted grid report for this n")

    p = sub.add_parser("random", help="seeded random function file")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--N", type=int, dest="resolution", required=True)
    p.add_argument("--roughness", default="1", help="fraction of points randomized, e.g. 1 or 1/2")

    for sp in sub.choices.values():
        _add_common(sp, suppress=True)
    return parser


def _add_tolerances(p) -> None:
    p.add_argument("--tol-rel", default=None, help="relative tolerance (rational, default 1/20)")
    p.add_argument("--tol-abs", default=None, help="absolute tolerance (rational, default 1/10^9)")


def _tolerances(args):
    tol_rel = DEFAULT_TOL_REL if args.tol_rel is None else parse_rat(args.tol_rel)
    tol_abs = DEFAULT_TOL_ABS if args.tol_abs is None else parse_rat(args.tol_abs)
    return tol_rel, tol_abs


def _flatten(obj, prefix, rows) -> None:
    if isinstance(obj, dict):
        for key in obj:
            _flatten(obj[key], f"{prefix}.{key}" if prefix else str(key), rows)
    elif isinstance(obj, (list, tuple)):
        for i, item in enumerate(obj):
            _flatten(item, f"{prefix}[{i}]", rows)
    else:
        rows.append((prefix, "" if obj is None else str(obj)))


def _json_text(obj, pad="") -> str:
    """json.dumps(obj, indent=2, sort_keys=True, default=format_rat),
    byte for byte, without the pure-Python encoder that indent selects:
    a rational is written as the string format_rat gives, containers
    recurse (a tuple as a list), a list of equal-length int rows is
    formatted with one template, and any other leaf goes to json.dumps,
    its newlines indented to pad."""
    inner = pad + "  "
    kind = type(obj)
    if kind is str:
        return encode_basestring_ascii(obj)
    if kind is Rat:
        return '"' + format_rat(obj) + '"'
    if kind is int:
        return int.__repr__(obj)
    if kind is bool:
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if kind is dict and obj and all(type(key) is str for key in obj):
        items = (
            f"{encode_basestring_ascii(key)}: {_json_text(obj[key], inner)}" for key in sorted(obj)
        )
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    if (kind is list or kind is tuple) and obj:
        width = len(obj[0]) if type(obj[0]) in (list, tuple) else 0
        if (
            width
            and all(type(row) in (list, tuple) and len(row) == width for row in obj)
            and set(map(type, chain.from_iterable(obj))) == {int}
        ):
            row = "[" + ",".join(["\n" + inner + "  %d"] * width) + "\n" + inner + "]"
            items = (row % tuple(r) for r in obj)
        else:
            items = (_json_text(item, inner) for item in obj)
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    return json.dumps(obj, indent=2, sort_keys=True, default=format_rat).replace("\n", "\n" + pad)


def _emit(payload, args) -> None:
    if args.format == "csv":
        rows = []
        _flatten(payload, "", rows)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(("key", "value"))
        writer.writerows(rows)
        text = buf.getvalue()
    else:
        text = _json_text(payload) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# -- subcommand bodies: return (payload, exit_code) ---------------------------


def _cmd_constants(args):
    rep = constant_report(args.k, args.n)
    payload = {
        "k": rep.k,
        "n": rep.n,
        "descent_sum": rep.descent_sum,
        "power_sum": rep.power_sum,
        "closed_form": rep.closed_form,
        "covering_bound": rep.covering_bound,
        "rate_conjectured": rate_constant_conjectured(args.k),
        "rate_covering": rate_constant_covering(args.k),
        "worpitzky_ok": worpitzky_check(args.k, args.n),
        "sharp": args.k <= 3,
    }
    return payload, 0


def _cmd_subdivide(args):
    if args.svg and args.k != 2:
        raise _UsageError("--svg requires --k 2")
    cells = subdivide(args.k, args.n)
    payload = {
        "k": args.k,
        "n": args.n,
        "cell_count": len(cells),
        "cells": [
            {
                "m": c.m,
                "shift": c.shift,
                "value": c.value_on_cell,
                "volume": c.relative_volume(),
            }
            for c in cells
        ],
    }
    if args.svg:
        with open(args.svg, "w") as fh:
            fh.write(subdivision_svg(args.n))
    return payload, 0


def _cmd_classify(args):
    coords = [parse_rat(part) for part in args.point.split(",")]
    loc = classify_point(args.k, args.n, bary_point(coords))
    payload = {
        "k": args.k,
        "n": args.n,
        "point": coords,
        "m": loc.m,
        "shift": loc.shift,
        "on_boundary": loc.on_boundary,
    }
    return payload, 0


def _cmd_envelope(args):
    f = load_function(args.input)
    env = concave_envelope(f)
    payload = {"envelope": function_payload(env.envelope)}
    if args.certificates:
        payload["certificates"] = env.certificates
    return payload, 0


def _cmd_supconv(args):
    if args.pair and (args.input or args.n):
        raise _UsageError("--pair excludes --input/--n")
    if args.pair:
        f, g = (load_function(p) for p in args.pair)
        out = sup_convolve_pair(f, g)
    else:
        if not args.input or args.n is None:
            raise _UsageError("need --input and --n, or --pair")
        out = sup_convolve_n(load_function(args.input), args.n)
    return function_payload(out), 0


def _cmd_verify_t1(args):
    tol_rel, tol_abs = _tolerances(args)
    report = verify_nfold(load_function(args.input), args.n, tol_rel, tol_abs)
    return report.to_payload(), 0 if report.passed else 2


def _cmd_verify_t4(args):
    tol_rel, tol_abs = _tolerances(args)
    report = verify_pair(load_function(args.f), load_function(args.g), tol_rel, tol_abs)
    return report.to_payload(), 0 if report.passed else 2


def _cmd_averageable(args):
    if args.medial:
        cert = medial_certificate()
    else:
        if args.k is None or args.m is None:
            raise _UsageError("need --k and --m (or --medial)")
        cert = averaging_certificate(args.k, args.m)
    report = verify_certificate(cert)
    payload = {
        "k": cert.k,
        "m": cert.m,
        "target": {"name": cert.target.name, "volume": cert.target.rel_volume},
        "jacobian": cert.jacobian,
        "maps": [{"name": mp.name, "pieces": len(mp.pieces)} for mp in cert.maps],
        "image_volumes": [relative_volume(s) for s in cert.image_pieces],
        "checks": [
            {"name": c.name, "passed": c.passed, "witness": c.witness} for c in report.checks
        ],
        "passed": report.passed,
    }
    return payload, 0 if report.passed else 2


def _cmd_cover(args):
    closure, cert = best_cover(args.k, args.n, args.max_level, budget=args.budget)
    payload = {
        "k": args.k,
        "n": args.n,
        "closure_size": len(closure.translates),
        "truncated": closure.truncated,
        "found": cert is not None,
    }
    if cert is not None:
        family = []
        for t in cert.family:
            entry = {
                "level": t.level,
                "offset": t.offset,
                "constant": t.constant,
            }
            if args.traces:
                entry["derivation"] = t.derivation
            family.append(entry)
        payload["certificate"] = {
            "level": cert.level,
            "count": cert.count,
            "cert_resolution": cert.cert_resolution,
            "sum_constants": cert.sum_constants,
            "derived_constant": cert.derived_constant,
            "family": family,
        }
    return payload, 0 if cert is not None else 2


def _cmd_extremal(args):
    if args.resolution is None and args.n is None:
        raise _UsageError("need --N (function) and/or --n (profile)")
    if args.grid_n is not None:
        if args.resolution is None:
            raise _UsageError("--grid-n requires --N")
        rep = extremal_grid_report(args.k, args.grid_n, args.resolution)
        payload = {
            "k": rep.k,
            "n": rep.n,
            "N": rep.resolution,
            "lhs": rep.lhs,
            "rhs": rep.rhs,
            "ratio": rep.ratio,
            "cells": [
                {
                    "m": m,
                    "shift": shift,
                    "representative": rep_ints,
                    "value": val,
                }
                for m, shift, rep_ints, val in rep.rows
            ],
        }
        return payload, 0
    if args.n is not None:
        prof = extremal_profile(args.k, args.n)
        payload = {
            "k": prof.k,
            "n": prof.n,
            "lhs_integral": prof.lhs_integral,
            "rhs_integral": prof.rhs_integral,
            "ratio": prof.ratio,
            "per_m": [
                {
                    "m": row.m,
                    "cell_count": row.cell_count,
                    "cell_volume": row.cell_relative_volume,
                    "value": row.value,
                }
                for row in prof.per_m
            ],
        }
        return payload, 0
    return function_payload(make_extremal(args.k, args.resolution)), 0


def _cmd_random(args):
    f = make_random(args.k, args.resolution, args.seed, args.roughness)
    return function_payload(f), 0


_COMMANDS = {
    "constants": _cmd_constants,
    "subdivide": _cmd_subdivide,
    "classify": _cmd_classify,
    "envelope": _cmd_envelope,
    "supconv": _cmd_supconv,
    "verify-t1": _cmd_verify_t1,
    "verify-t4": _cmd_verify_t4,
    "averageable": _cmd_averageable,
    "cover": _cmd_cover,
    "extremal": _cmd_extremal,
    "random": _cmd_random,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        payload, code = _COMMANDS[args.command](args)
    except (_UsageError, ValueError, OSError, UnsupportedCertificateError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(payload, args)
    return code


if __name__ == "__main__":
    sys.exit(main())
