"""Exact checks on one item's output that hold for any seed.

Each check re-reads the item's input files with the package's own loader
and tests a property the paper guarantees:

- extremal grid report: the ratio equals sharp_constant(k, n);
- envelope with certificates: every certificate, re-evaluated with
  evaluate_certificate, gives its own lattice point, total weight 1 and
  the reported value, and that value is >= f there;
- verify-t1 / verify-t4: the verdict is not "fail" and the provenance
  digest is the input's function_digest;
- supconv: conv_n(f) >= f, and the pair form >= (f + g)/2, pointwise;
- averageable: the report passes;
- cover: a certificate is found; for (k, n, level) = (2, 2, 1) it has
  6 translates and derived constant 1/36.
"""

from __future__ import annotations

import json
from fractions import Fraction


def check(pkg, argv, text: str):
    """None when the output passes, else a one-line reason."""
    try:
        payload = json.loads(text)
        return _CHECKS[argv[0]](pkg, _options(argv[1:]), payload)
    except Exception as exc:  # malformed output is a failed check
        return f"check raised {type(exc).__name__}: {exc}"


def _options(args):
    """--flag value [value] pairs of an item's argv as a dict of lists."""
    out, key = {}, None
    for a in args:
        if a.startswith("--"):
            key = a[2:]
            out[key] = []
        else:
            out[key].append(a)
    return out


def _extremal(pkg, opts, payload):
    k, n = int(opts["k"][0]), int(opts["grid-n"][0])
    want = pkg.combinat.sharp_constant(k, n)
    if Fraction(payload["ratio"]) != want:
        return f"grid ratio {payload['ratio']} != sharp_constant({k}, {n}) = {want}"
    return None


def _envelope(pkg, opts, payload):
    f = pkg.harness.load_function(opts["input"][0])
    env = pkg.harness.function_from_payload(payload["envelope"])
    certs = tuple(
        tuple((j, pkg._rational.parse_rat(w)) for j, w in cert) for cert in payload["certificates"]
    )
    result = pkg.envelope.EnvelopeResult(f, env.values, certs)
    points = f.lattice.points
    for i, value in enumerate(env.values):
        point, combined, weight = pkg.envelope.evaluate_certificate(result, i)
        if point != points[i] or weight != 1 or combined != value or value < f.values[i]:
            return f"certificate {i} does not reproduce point {i}"
    return None


def _verify(pkg, opts, payload):
    if payload["verdict"] == "fail":
        return f"verdict fail (lhs {payload['lhs']}, rhs {payload['rhs']})"
    path = opts["input"][0] if "input" in opts else opts["f"][0]
    digest = pkg.harness.function_digest(pkg.harness.load_function(path))
    if payload["provenance"]["f"] != digest:
        return "provenance digest is not the input's function_digest"
    return None


def _supconv(pkg, opts, payload):
    load = pkg.harness.load_function
    conv = pkg.harness.function_from_payload(payload).values
    if "pair" in opts:
        f, g = (load(p).values for p in opts["pair"])
        floor = [(a + b) / 2 for a, b in zip(f, g)]
    else:
        floor = load(opts["input"][0]).values
    if any(c < v for c, v in zip(conv, floor)):
        return "sup-convolution below its trivial witness"
    return None


def _averageable(pkg, opts, payload):
    if payload["passed"] is not True:
        failed = [c["name"] for c in payload["checks"] if not c["passed"]]
        return f"certificate checks failed: {failed}"
    return None


def _cover(pkg, opts, payload):
    if not payload["found"]:
        return "no cover certificate"
    key = (opts["k"][0], opts["n"][0], opts["max-level"][0])
    cert = payload["certificate"]
    if key == ("2", "2", "1") and (cert["count"], cert["derived_constant"]) != (6, "1/36"):
        return f"cover (2,2,1) gave {cert['count']} translates, constant {cert['derived_constant']}"
    return None


_CHECKS = {
    "extremal": _extremal,
    "envelope": _envelope,
    "verify-t1": _verify,
    "verify-t4": _verify,
    "supconv": _supconv,
    "averageable": _averageable,
    "cover": _cover,
}
