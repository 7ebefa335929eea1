"""Record BENCH_fppoly.json: F_p[x] division timings, this checkout against a
baseline checkout of wplus.

    python scripts/bench_fppoly.py --baseline DIR [--runs 3] [--out BENCH_fppoly.json]

Three measurements, each made in a fresh interpreter that imports `wplus`
from the `src/` of one checkout, the two checkouts taking turns:

- `ladder`: cold `verify_prime` (empty cache) at p = 67, 199, 389, 601 and
  1009, with the report's per-stage `timings_ms` and the child's peak RSS
  after the run (`ru_maxrss`); `--runs` runs per prime and checkout.  The
  text report is formed after the peak is read, since it factors H.
- `layers`: `FpPoly.divmod` of a product of two residues, and `pow_mod`
  of a residue to the p-th power (the step of distinct-degree splitting),
  modulo seeded random polynomials of degree 100, 500 and 2000 over F_601;
  the median over repeats of at least 0.2 s.
- `factor`: `FpPoly.factor` of H at p = 389, 601 and 1009 (degrees 110,
  368 and 1306; H from the ladder runs of this checkout), median of 3.
- `split`: the check that S_q splits into quadratics, at p = 389, 601 and
  1009: `supersingular.factor_degrees`, or on a checkout without it the
  degrees of `FpPoly.factor`; the median over repeats of at least 0.2 s.

Both checkouts must give identical reports (timings aside) and text
reports, identical factorizations and identical split answers; the script
stops otherwise.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LADDER = (67, 199, 389, 601, 1009)
LAYER_P = 601
LAYER_DEGREES = (100, 500, 2000)
#: the H factored here come from the ladder runs, so each prime is in LADDER
FACTOR_PRIMES = (389, 601, 1009)


def _median_call_s(fn, min_total_s=0.2, min_reps=3):
    """Median seconds per call over repeats lasting at least min_total_s."""
    samples = []
    start = time.perf_counter()
    while len(samples) < min_reps or time.perf_counter() - start < min_total_s:
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples), len(samples)


def check_checkout():
    """In a child interpreter: stop unless wplus came from BENCH_CHECKOUT."""
    import wplus

    if Path(wplus.__file__).parents[2] != Path(os.environ["BENCH_CHECKOUT"]):
        raise RuntimeError(f"imported wplus from {wplus.__file__}")


def measure(kind, arg):
    """Run inside the child interpreter; returns a JSON-ready dict."""
    import random
    import resource

    from wplus.config import Config
    from wplus.fppoly import FpPoly
    from wplus.pipeline import verify_prime

    check_checkout()
    if kind == "ladder":
        with tempfile.TemporaryDirectory() as cache_dir:
            report = verify_prime(int(arg), Config(cache_dir=cache_dir))
        out = report.to_json_dict()
        timings = out.pop("timings_ms")
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return {"timings_ms": timings, "peak_rss_mb": rss, "report": out,
                "text": report.text_lines(),
                "H": [int(c) for c in report.polys["H"].coeffs]
                if "H" in report.polys else None}
    if kind == "layers":
        rng = random.Random(0)
        p = LAYER_P
        out = {}
        for n in LAYER_DEGREES:
            m = FpPoly(p, [rng.randrange(p) for _ in range(n)] + [1])
            a = FpPoly(p, [rng.randrange(p) for _ in range(n)])
            b = FpPoly(p, [rng.randrange(p) for _ in range(n)])
            ab = a * b
            div_s, div_reps = _median_call_s(lambda: ab.divmod(m))
            pow_s, pow_reps = _median_call_s(lambda: a.pow_mod(p, m))
            out[str(n)] = {"divmod_ms": 1e3 * div_s, "divmod_reps": div_reps,
                           "pow_mod_ms": 1e3 * pow_s, "pow_mod_reps": pow_reps}
        return out
    if kind == "factor":
        out = {}
        for p, coeffs in json.loads(Path(arg).read_text()).items():
            h = FpPoly(int(p), coeffs)
            result = []
            factor_s, reps = _median_call_s(
                lambda: result.append(h.factor()), min_total_s=0, min_reps=3)
            factors = [([int(c) for c in f.coeffs], e) for f, e in result[-1]]
            out[p] = {"degree": h.degree(), "factor_ms": 1e3 * factor_s,
                      "reps": reps,
                      "factor_degrees": [len(f) - 1 for f, _ in factors],
                      "factors": factors}
        return out
    if kind == "split":
        from wplus import supersingular

        s_q = supersingular.ss_polys(int(arg)).S_q
        degrees = getattr(supersingular, "factor_degrees", None) or (
            lambda f: {q.degree() for q, _ in f.factor()})
        result = []
        split_s, reps = _median_call_s(
            lambda: result.append(degrees(s_q) == {2}))
        return {"degree": s_q.degree(), "split_ms": 1e3 * split_s,
                "reps": reps, "splits": result[-1]}
    raise ValueError(f"unknown measurement {kind!r}")


def child(checkout, kind, arg, script=__file__):
    """Run ``script --measure kind arg`` in a fresh interpreter that imports
    wplus from checkout; return the JSON it prints."""
    env = dict(os.environ, PYTHONPATH=str(Path(checkout) / "src"),
               BENCH_CHECKOUT=str(checkout))
    proc = subprocess.run(
        [sys.executable, str(Path(script).resolve()), "--measure", kind,
         str(arg)], env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def git_commit(checkout):
    proc = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def environment():
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    versions = {}
    for package in ("numpy", "mpmath"):
        try:
            versions[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            versions[package] = None
    return {"python": platform.python_version(), **versions,
            "nproc": os.cpu_count(), "cpu": cpu, "platform": platform.platform()}


def record(baseline, runs):
    sides = {"baseline": Path(baseline).resolve(), "change": ROOT}
    ladder = {side: {str(p): [] for p in LADDER} for side in sides}
    rss = {side: {str(p): [] for p in LADDER} for side in sides}
    h = {}
    for p in LADDER:
        for run in range(runs):
            order = list(sides) if run % 2 == 0 else list(sides)[::-1]
            got = {side: child(sides[side], "ladder", p) for side in order}
            for part in ("report", "text"):
                if got["baseline"][part] != got["change"][part]:
                    raise SystemExit(f"{part}s differ at p = {p}")
            for side in sides:
                ladder[side][str(p)].append(got[side]["timings_ms"])
                rss[side][str(p)].append(got[side]["peak_rss_mb"])
            h[p] = got["change"]["H"]
    layers = {side: child(path, "layers", 0) for side, path in sides.items()}
    with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
        json.dump({str(p): h[p] for p in FACTOR_PRIMES}, fh)
    try:
        factor = {side: child(path, "factor", fh.name)
                  for side, path in sides.items()}
    finally:
        os.unlink(fh.name)
    for p in map(str, FACTOR_PRIMES):
        if (factor["baseline"][p].pop("factors")
                != factor["change"][p].pop("factors")):
            raise SystemExit(f"factorizations of H at p = {p} differ")
    split = {side: {str(p): child(path, "split", p) for p in FACTOR_PRIMES}
             for side, path in sides.items()}
    for p in map(str, FACTOR_PRIMES):
        if split["baseline"][p]["splits"] != split["change"][p]["splits"]:
            raise SystemExit(f"the S_q split checks differ at p = {p}")
    median = {side: {p: {k: round(statistics.median(r[k] for r in rs), 1)
                         for k in rs[0]}
                     for p, rs in by_p.items()}
              for side, by_p in ladder.items()}
    return {
        "command": "python scripts/bench_fppoly.py --baseline DIR "
                   f"--runs {runs}",
        "environment": environment(),
        "commits": {side: git_commit(path) for side, path in sides.items()},
        "ladder_cold_timings_ms": {"median": median, "runs": ladder},
        "ladder_peak_rss_mb": {
            "median": {side: {p: round(statistics.median(rs), 2)
                              for p, rs in by_p.items()}
                       for side, by_p in rss.items()},
            "runs": rss},
        "layers_p601": layers,
        "factor_H": factor,
        "split_S_q": split,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--baseline", help="checkout to compare against")
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--out", default=str(ROOT / "BENCH_fppoly.json"))
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
    print(json.dumps(result["ladder_cold_timings_ms"]["median"], indent=1))


if __name__ == "__main__":
    main()
