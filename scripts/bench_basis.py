"""Record BENCH_basis.json: good-basis timings, this checkout against a
baseline checkout of wplus.

    python scripts/bench_basis.py --baseline DIR [--runs 3] [--out BENCH_basis.json]

Each measurement runs in a fresh interpreter that imports `wplus` from the
`src/` of one checkout, the two checkouts taking turns, `--runs` times:

- `scan`: the cold `scan_primes(200, 400, basis_only=True)` pass of the
  `basis-scan` benchmark workload, with an empty cache.
- `basis`: the cold `BasisComputer(p).basis((p + 1)//6 + 12)` at p = 1009
  and 2003, split into `space` (`ModSymSpace.__init__`), `hecke`
  (`BasisComputer._extend`: the Krylov columns and the Hecke operators
  they need), `pivots` (`linalg.pivot_columns` and, where it exists,
  `linalg.pivot_columns_mod`) and `echelon` (the rest: W_p, g+, the
  inverse of the pivot block, the reduction and its checks).  The parts
  are inclusive times of functions that never nest in each other, taken
  by wrappers installed from this script.

Both checkouts must give identical scan results (timings aside) and
identical `good_basis` payloads; the script stops otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_fppoly import check_checkout, child, environment, git_commit  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
BASIS_PRIMES = (1009, 2003)
SCAN = (200, 400)


def _timed(parts, name, fn):
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            parts[name] += time.perf_counter() - t0
    return wrapper


def _sha256(payload):
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()).hexdigest()


def measure(kind, arg):
    """Run inside the child interpreter; returns a JSON-ready dict."""
    import wplus
    from wplus import linalg, modsym
    from wplus.config import Config

    check_checkout()
    if kind == "scan":
        with tempfile.TemporaryDirectory() as cache_dir:
            t0 = time.perf_counter()
            scan = wplus.scan_primes(*SCAN, Config(cache_dir=cache_dir),
                                     basis_only=True)
            wall = time.perf_counter() - t0
        results = [{k: v for k, v in r.items() if k != "timings_ms"}
                   for r in scan["results"]]
        return {"timings_ms": {"total": 1e3 * wall}, "output": results}
    if kind == "basis":
        p = int(arg)
        parts = dict.fromkeys(("space", "hecke", "pivots"), 0.0)
        targets = [(modsym.ModSymSpace, "__init__", "space"),
                   (modsym.BasisComputer, "_extend", "hecke"),
                   (linalg, "pivot_columns", "pivots"),
                   (linalg, "pivot_columns_mod", "pivots")]
        for owner, attr, name in targets:
            if hasattr(owner, attr):
                setattr(owner, attr, _timed(parts, name, getattr(owner, attr)))
        t0 = time.perf_counter()
        gb = modsym.BasisComputer(p).basis((p + 1) // 6 + 12)
        total = time.perf_counter() - t0
        out = {name: 1e3 * s for name, s in parts.items()}
        out["echelon"] = 1e3 * total - sum(out.values())
        out["total"] = 1e3 * total
        return {"timings_ms": out, "output": {
            "g": gb.g, "pivots": gb.pivots,
            "payload_sha256": _sha256(modsym._basis_to_payload(gb))}}
    raise ValueError(f"unknown measurement {kind!r}")


def record(baseline, runs):
    sides = {"baseline": Path(baseline).resolve(), "change": ROOT}
    cases = [("scan", "scan", 0)] + [
        (f"basis_{p}", "basis", p) for p in BASIS_PRIMES]
    timings = {side: {key: [] for key, _, _ in cases} for side in sides}
    outputs = {}
    for key, kind, arg in cases:
        for run in range(runs):
            order = list(sides) if run % 2 == 0 else list(sides)[::-1]
            got = {side: child(sides[side], kind, arg, script=__file__)
                   for side in order}
            if got["baseline"]["output"] != got["change"]["output"]:
                raise SystemExit(f"outputs differ: {key}")
            outputs[key] = got["change"]["output"]
            for side in sides:
                timings[side][key].append(got[side]["timings_ms"])
    median = {side: {key: {k: round(statistics.median(s[k] for s in samples), 1)
                           for k in samples[0]}
                     for key, samples in by_case.items()}
              for side, by_case in timings.items()}
    return {
        "command": "python scripts/bench_basis.py --baseline DIR "
                   f"--runs {runs}",
        "environment": environment(),
        "commits": {side: git_commit(path) for side, path in sides.items()},
        "bases": {key: out for key, out in outputs.items() if key != "scan"},
        "cold_ms": {"median": median, "runs": timings},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--baseline", help="checkout to compare against")
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--out", default=str(ROOT / "BENCH_basis.json"))
    parser.add_argument("--measure", nargs=2, metavar=("KIND", "ARG"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.measure:
        print(json.dumps(measure(*args.measure)))
        return
    if not args.baseline:
        parser.error("--baseline is required")
    result = record(args.baseline, args.runs)
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result["cold_ms"]["median"], indent=1))


if __name__ == "__main__":
    main()
