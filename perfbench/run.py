"""The wplus benchmark: cold prime ladder and basis scan.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 40 --trace 0

Run from the root of a checkout, on at least two CPUs.  Every pass runs in
a fresh interpreter (``worker.py``) against a fresh cache directory under
``.perfbench/``, with ``reference_loop.py`` running beside it on another
CPU.  Passes repeat until ``--seconds`` have gone by, at least one.  With
``--trace 0`` the last line of output holds the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` one more, traced pass follows and the
last line holds the per-layer metrics, its spans being written to
``.perfbench/trace-<workload>-<seed>.json``.  The line before the last one
holds the environment and the per-pass figures.  See README.md.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from worker import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKER = HERE / "worker.py"
REFERENCE_LOOP = HERE / "reference_loop.py"
#: fresh interpreters that import wplus, two at a time; their median is set-up
IMPORT_PROBES = 10
CHILD_TIMEOUT_S = 170


def child(*args):
    """Run one pass of worker.py; return the JSON object it prints last."""
    proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT,
                          capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker.py exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def import_seconds():
    """Interpreter start plus ``import wplus``, in a fresh interpreter.

    No timeout: waiting with one polls the child every 50 ms, which would
    round the reading up to that step.
    """
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c",
                    f"import sys; sys.path.insert(0, {str(SRC)!r}); "
                    "import wplus"],
                   cwd=ROOT, check=True)
    return time.perf_counter() - t0


def environment(seed):
    versions = {}
    for package in ("numpy", "sympy", "mpmath"):
        try:
            versions[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            versions[package] = None
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True,
                timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"python": sys.version.split()[0], **versions,
            "nproc": len(os.sched_getaffinity(0)), "commit": commit,
            "seed": seed}


def reference_pass(args, log):
    """Run one pass beside the reference loop; return the worker's result
    with ``round_s``, the mean time of the loop's rounds inside the pass,
    and ``wall_rel``, the pass's wall time in units of ``round_s``."""
    with open(log, "w", encoding="utf-8") as out:
        loop = subprocess.Popen([sys.executable, str(REFERENCE_LOOP)],
                                cwd=ROOT, stdout=out)
        try:
            result = child(*args)
        finally:
            loop.kill()
            loop.wait()
    rounds = []
    with open(log, encoding="utf-8") as fh:
        for line in fh:
            fields = line.split()
            if len(fields) == 2:
                start, end = map(float, fields)
                if result["start"] <= start and end <= result["end"]:
                    rounds.append(end - start)
    if not rounds:
        raise RuntimeError("the reference loop made no round inside the pass")
    result["round_s"] = statistics.mean(rounds)
    result["wall_rel"] = result["wall_s"] / result["round_s"]
    return result


def measure(workload, seed, seconds, trace, work):
    """Set up, run the passes and, if asked, the traced pass.

    Returns (end-to-end values, per-layer values or None, worker results
    of the untraced passes, worker results of the traced passes).
    """
    with ThreadPoolExecutor(2) as pool:
        setup_s = statistics.median(
            pool.map(lambda _: import_seconds(), range(IMPORT_PROBES)))
    passes = itertools.count()

    def one_pass(*extra):
        n = next(passes)
        return reference_pass(
            ["--workload", workload, "--seed", str(seed),
             "--cache", str(work / f"pass{n}"), *extra],
            work / f"rounds{n}.txt")

    results = []
    start = time.monotonic()
    while not results or time.monotonic() - start < seconds:
        results.append(one_pass())
    end_to_end = {
        "wall_rel": statistics.median(r["wall_rel"] for r in results),
        "setup_s": setup_s,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }
    per_layer, traced = None, []
    if trace:
        traced = [one_pass(
            "--trace", str(work.parent / f"trace-{workload}-{seed}.json"))]
        per_layer = dict(traced[0]["layers"])
        per_layer["trace.traced_wall_s"] = traced[0]["wall_s"]
        per_layer["trace.untraced_wall_s"] = statistics.median(
            r["wall_s"] for r in results)
        per_layer["trace.overhead_frac"] = (
            traced[0]["wall_rel"] / end_to_end["wall_rel"] - 1)
    return end_to_end, per_layer, results, traced


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "wplus" / "__init__.py").is_file():
        print(f"no wplus sources under {SRC}", file=sys.stderr)
        return 2
    if len(os.sched_getaffinity(0)) < 2:
        print("needs two CPUs: one for the pass, one for the reference loop",
              file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)

    state = ROOT / ".perfbench"
    state.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=state))
    try:
        end_to_end, per_layer, results, traced = measure(
            args.workload, args.seed, args.seconds, args.trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    checked = results + traced
    failed = [p for r in checked for p in r["failed"]]
    print(json.dumps({
        "environment": environment(args.seed),
        "workload": args.workload,
        "passes": [{k: r[k] for k in ("wall_s", "round_s", "wall_rel",
                                      "peak_rss_mb")}
                   for r in results],
        "setup_s": end_to_end["setup_s"],
        "failed_primes": failed,
    }))
    values, listed = ((per_layer, spec["per_layer"]) if args.trace
                      else (end_to_end, spec["end_to_end"]))
    print(json.dumps({
        "correct": not failed,
        "attempted": sum(r["attempted"] for r in checked),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
