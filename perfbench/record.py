"""Record expected.json: the digest of every pool job's output, and the golden fold types.

Usage, from the root of a checkout: python3 perfbench/record.py

Run it only on a commit whose outputs are known to be right; every later run
of the benchmark compares against what it writes.  Class counts are not taken
from here where Steinberg's count applies (see oracle.py).
"""

import json
import os
import shutil
import sys
import time

import jobs as job_pools
import run


def main():
    sys.path.insert(0, run.SRC)
    from rootfold import catalog
    golden = {p: run.oracle.type_string(t) for p, t in catalog.GOLDEN_FOLDS.items()}
    expected = {}
    os.makedirs(run.WORK, exist_ok=True)
    try:
        for workload in sorted(job_pools.POOLS):
            record_workload(workload, golden, expected)
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)
    with open(os.path.join(run.HERE, "expected.json"), "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")


def record_workload(workload, golden, expected):
    specs = job_pools.POOLS[workload]()
    p = run.run_pass(workload, specs, False, time.monotonic() + 3600)
    for i, spec in enumerate(specs):
        outcome = p["outcomes"][i]
        if not outcome["ok"]:
            raise SystemExit(f"{spec['id']}: {outcome['error']}")
        entry = run.record_entry(workload, spec, outcome)
        argv = spec.get("argv", [])
        if argv[:1] == ["fold"] and argv[2] in golden and "json" in argv:
            entry["golden_type"] = golden[argv[2]]
        expected[spec["id"]] = entry
    print(f"{workload}: {len(specs)} jobs in {p['wall_s']:.1f} s", file=sys.stderr)


if __name__ == "__main__":
    main()
