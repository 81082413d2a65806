"""The package names that the benchmark in benchmarks/ looks up.

benchmarks/tracing.py wraps functions in the namespaces where package
modules look them up (``supconvex.harness.sup_convolve_n``, ...), and
benchmarks/run.py and benchmarks/checks.py read a few names directly.
A refactor that moves or drops one of them breaks the benchmark's
trace mode or its output checks without failing any other test.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"

# (module, name) read by benchmarks/run.py and benchmarks/checks.py.
READ_BY_RUNNER = (
    ("cli", "main"),
    ("_rational", "Rat"),
    ("_rational", "parse_rat"),
    ("combinat", "sharp_constant"),
    ("envelope", "EnvelopeResult"),
    ("envelope", "evaluate_certificate"),
    ("envelope", "ExactSimplexSolver"),
    ("harness", "load_function"),
    ("harness", "function_from_payload"),
    ("harness", "function_digest"),
)


def _tracing_patches():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PATCHES


def test_traced_names_resolve_in_their_callers():
    patches = _tracing_patches()
    assert patches
    for caller, name, owner in patches:
        found = getattr(importlib.import_module(f"supconvex.{caller}"), name, None)
        assert callable(found), f"supconvex.{caller}.{name} is missing"
        defined = getattr(importlib.import_module(f"supconvex.{owner}"), name)
        assert found is defined, f"supconvex.{caller}.{name} is not {owner}.{name}"


def test_names_read_by_the_benchmark_runner_exist():
    for module, name in READ_BY_RUNNER:
        assert hasattr(importlib.import_module(f"supconvex.{module}"), name), (module, name)
