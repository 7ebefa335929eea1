"""One benchmark pass, in an interpreter of its own.

    python3 perfbench/worker.py --workload ladder --seed 1 --cache DIR \
        [--trace FILE]

Runs one workload against an empty cache directory, compares every prime's
report with ``reference.json`` and prints one JSON line: wall time of the
workload (import excluded) and its start and end on the monotonic clock,
peak RSS of this process, the primes attempted and the primes that failed.
With ``--trace`` the layer spans are installed first, written to FILE at
the end, and their per-layer metrics are added to the line.

A fresh interpreter and cache per pass keep in-process memos (such as the
j-coefficients behind the class polynomials) and cached bases from carrying
over, so that a cold pass is cold.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCE = HERE / "reference.json"

#: the ROADMAP prime ladder without 601 (see README.md)
LADDER = (67, 199, 389)
#: the wt(infinity) scan range of ``wplus scan --basis-only``
SCAN = (200, 400)
SCAN_FIELDS = ("p", "g_p", "g_plus", "pivots", "wt_inf", "good_basis",
               "status")
WORKLOADS = ("ladder", "basis-scan")


def run_workload(wplus, workload, config):
    """Reports, as JSON dicts, of one pass of the workload."""
    if workload == "basis-scan":
        return wplus.scan_primes(*SCAN, config, basis_only=True)["results"]
    return [wplus.verify_prime(p, config).to_json_dict() for p in LADDER]


def project(workload, report):
    """The part of a report that the reference records."""
    if workload == "ladder":
        return {k: v for k, v in report.items() if k != "timings_ms"}
    return {k: report[k] for k in SCAN_FIELDS}


def failed_primes(workload, reports, reference):
    """Primes of the reference whose report is missing, an error or a
    falsifier, or differs from the reference outside ``timings_ms``."""
    got = {r["p"]: r for r in reports}
    failed = []
    for ref in reference[workload]:
        report = got.get(ref["p"])
        if (report is None or report["status"] in ("error", "falsified")
                or project(workload, report) != ref):
            failed.append(ref["p"])
    return failed


def load_reference():
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--cache", required=True)
    parser.add_argument("--trace")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import wplus

    config = wplus.Config(cache_dir=args.cache, rng_seed=args.seed, jobs=1)
    tracer = None
    if args.trace:
        from tracer import Tracer, layer_metrics
        tracer = Tracer()
        missing = tracer.install()
        if missing:
            print(f"trace targets not found: {missing}", file=sys.stderr)
    start, t0 = time.monotonic(), time.perf_counter()
    reports = run_workload(wplus, args.workload, config)
    wall, end = time.perf_counter() - t0, time.monotonic()
    reference = load_reference()
    failed = failed_primes(args.workload, reports, reference)
    out = {
        "wall_s": wall,
        "start": start,
        "end": end,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(reference[args.workload]),
        "failed": failed,
    }
    if tracer is not None:
        tracer.uninstall()
        layers = layer_metrics(tracer.summary())
        layers["cache.bytes"] = sum(
            f.stat().st_size for f in Path(args.cache).rglob("*") if f.is_file())
        tracer.write(args.trace, workload=args.workload, seed=args.seed,
                     wall_s=wall, missing_targets=missing)
        out["layers"] = layers
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
