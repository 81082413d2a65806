"""Record the sha256 of every item's output for the default seed.

    python3 benchmarks/record_reference.py

Run it only at a commit whose outputs are known to be right, and after a
change to the workloads.  A workload whose outputs are the same in every
input variant is stored with seed null: its output does not depend on
the seed, and run.py checks it at every seed.
"""

from __future__ import annotations

import hashlib
import json
import shutil

import run
import workloads


def digests(workload: str, seed: int) -> dict:
    workdir = run.OUT / f"record-{workload}-{seed}"
    try:
        pkg, items, argvs = run.setup(workload, seed, workdir, tiny=False)
        out = {}
        for variant, variant_argvs in enumerate(argvs):
            for i, (item, argv) in enumerate(zip(items, variant_argvs)):
                key = run.reference_key(variant, i, item)
                code, _, text = run.run_item(pkg.cli.main, argv)
                problem = run.checks.check(pkg, argv, text)
                if code != 0 or problem:
                    raise SystemExit(f"{workload} {key}: exit {code}, {problem}")
                out[key] = hashlib.sha256(text.encode()).hexdigest()
        return out
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> None:
    seed = workloads.DEFAULT_SEED
    reference = {}
    for workload in workloads.WORKLOADS:
        items = digests(workload, seed)
        per_item = {}
        for key, digest in items.items():
            per_item.setdefault(key.split("-", 1)[1], set()).add(digest)
        same = all(len(d) == 1 for d in per_item.values())
        reference[workload] = {"seed": None if same else seed, "items": items}
        print(workload, "seed-independent" if same else f"seed {seed}", len(items), "outputs")
    with open(run.BENCH / "reference_digests.json", "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
