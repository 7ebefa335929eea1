"""Record ``reference.json`` from the current tree: one cold pass of the
ladder and of the basis scan, each report cut to what the benchmark checks.

    python3 perfbench/record_refs.py

Run it only at a commit whose reports are known good; every benchmark run
counts a prime as failed when its report differs from this file.
"""

from __future__ import annotations

import json
import sys
import tempfile

from worker import HERE, REFERENCE, SRC, WORKLOADS, project, run_workload


def main():
    sys.path.insert(0, str(SRC))
    import wplus

    reference = {}
    for workload in WORKLOADS:
        with tempfile.TemporaryDirectory(dir=HERE.parent) as cache_dir:
            reports = run_workload(
                wplus, workload, wplus.Config(cache_dir=cache_dir, jobs=1))
        reference[workload] = [project(workload, r) for r in reports]
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
