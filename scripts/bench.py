"""Record BENCH_<suite>.json: timings of this checkout against a baseline
checkout of wplus, whose outputs must agree.

    python scripts/bench.py {fppoly,basis,wronskian} --baseline DIR [--runs 3] [--out FILE]

Each measurement runs in a fresh interpreter that imports `wplus` from the
`src/` of one checkout; the checkouts take turns to go first, and the
script stops unless both give the same output.  The oldest usable baseline
is 2f49951, or 9d173ab for wronskian, which needs `GoodBasis.residues`.
The kinds marked * run `--runs` times, the rest once:

- fppoly: `ladder`* (cold `verify_prime` at 67, 199, 389, 601 and 1009:
  stage timings, then peak RSS, then the text report, which factors H);
  `layers` (`FpPoly.divmod` and `pow_mod` to the p-th power modulo seeded
  random polynomials of degree 100, 500 and 2000 over F_601); `factor`
  (`FpPoly.factor` of H from the ladder at 389, 601 and 1009); `split`
  (`factor_degrees(S_q) == {2}` at the same primes).
- basis: `scan`* (the cold `scan_primes(200, 400, basis_only=True)` of the
  `basis-scan` benchmark workload); `basis`* (cold
  `BasisComputer(p).basis((p + 1)//6 + 12)` at 1009 and 2003); both split
  into `ModSymSpace.__init__` (space), `BasisComputer._extend` (hecke), the
  pivot searches and the rest, by wrappers around functions that never
  nest.
- wronskian, from a cold good basis at 389, 601 and 1009, as the chain and
  its cross-check form them: `wx`* (`polynomial_wronskian` of the divisor
  polynomials P_i of the lifts), `lifts`* (Miller basis, lifts and P_i),
  `head`* (`integer_wronskian` of the head cut); then `class_poly`* (the
  first call in the interpreter, D = 1556 and 6044), `sweep`* (the 187
  discriminants 4p, and p if p = 3 mod 4, of 5 <= p < 700 into a fresh
  cache, whose files are hashed) and `verify`* (`ladder` at 601).
"""

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
from fractions import Fraction
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
LADDER = (67, 199, 389, 601, 1009)
LAYER_P = 601
LAYER_DEGREES = (100, 500, 2000)
#: the H factored here come from the ladder runs, so each prime is in LADDER
FACTOR_PRIMES = (389, 601, 1009)
BASIS_PRIMES = (1009, 2003)
SCAN = (200, 400)
CHAIN_PRIMES = (389, 601, 1009)
CLASS_POLY_D = (1556, 6044)
SWEEP_BELOW = 700


# --- measurements, each run in a child interpreter -------------------------
def _median_call_s(fn, min_total_s=0.2, min_reps=3):
    """Median seconds per call over repeats lasting at least min_total_s,
    the number of repeats and the last result."""
    samples = []
    start = time.perf_counter()
    while len(samples) < min_reps or time.perf_counter() - start < min_total_s:
        t0 = time.perf_counter()
        out = fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples), len(samples), out


def _clock(fn, *args):
    """fn(*args) and its wall time in ms."""
    t0 = time.perf_counter()
    out = fn(*args)
    return out, 1e3 * (time.perf_counter() - t0)


def _sha256(obj):
    # imported here: hashlib maps OpenSSL, 4 MB of the ladder's peak RSS
    import hashlib
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _ladder(p):
    import resource

    from wplus.config import Config
    from wplus.pipeline import verify_prime

    with tempfile.TemporaryDirectory() as cache_dir:
        report = verify_prime(p, Config(cache_dir=cache_dir))
    out = report.to_json_dict()
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {"timings_ms": out.pop("timings_ms"), "peak_rss_mb": rss,
            "output": {"report": out, "text": report.text_lines()}}


def _layers(_):
    import random

    from wplus.fppoly import FpPoly

    rng = random.Random(0)
    p = LAYER_P
    out = {}
    for n in LAYER_DEGREES:
        m = FpPoly(p, [rng.randrange(p) for _ in range(n)] + [1])
        a = FpPoly(p, [rng.randrange(p) for _ in range(n)])
        b = FpPoly(p, [rng.randrange(p) for _ in range(n)])
        ab = a * b
        div_s, div_reps, _ = _median_call_s(lambda: ab.divmod(m))
        pow_s, pow_reps, _ = _median_call_s(lambda: a.pow_mod(p, m))
        out[str(n)] = {"divmod_ms": 1e3 * div_s, "divmod_reps": div_reps,
                       "pow_mod_ms": 1e3 * pow_s, "pow_mod_reps": pow_reps}
    return {"output": None, **out}


def _factor(polys):
    """FpPoly.factor of each H in polys, {p: coefficients}."""
    from wplus.fppoly import FpPoly

    out, factors = {}, {}
    for p, coeffs in polys.items():
        h = FpPoly(int(p), coeffs)
        factor_s, reps, result = _median_call_s(h.factor, min_total_s=0)
        factors[p] = [([int(c) for c in f.coeffs], e) for f, e in result]
        out[p] = {"degree": h.degree(), "factor_ms": 1e3 * factor_s,
                  "reps": reps,
                  "factor_degrees": [f.degree() for f, _ in result]}
    return {"output": factors, **out}


def _split(p):
    from wplus import supersingular

    s_q = supersingular.ss_polys(p).S_q
    split_s, reps, splits = _median_call_s(
        lambda: supersingular.factor_degrees(s_q) == {2})
    return {"degree": s_q.degree(), "split_ms": 1e3 * split_s, "reps": reps,
            "output": splits}


def _basis_parts():
    """Wrap ModSymSpace.__init__ ("space"), BasisComputer._extend ("hecke")
    and the two pivot searches ("pivots"), functions that never nest, so
    that each adds its wall time to the returned dict."""
    from wplus import linalg, modsym

    parts = dict.fromkeys(("space", "hecke", "pivots"), 0.0)

    def timed(name, fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                parts[name] += time.perf_counter() - t0
        return wrapper

    for owner, attr, name in [(modsym.ModSymSpace, "__init__", "space"),
                              (modsym.BasisComputer, "_extend", "hecke"),
                              (linalg, "pivot_columns", "pivots"),
                              (linalg, "pivot_columns_mod", "pivots")]:
        setattr(owner, attr, timed(name, vars(owner)[attr]))
    return parts


def _split_ms(parts, total, rest):
    """parts in ms, with the remainder of total (ms) under rest."""
    out = {name: 1e3 * s for name, s in parts.items()}
    out[rest] = total - sum(out.values())
    out["total"] = total
    return out


def _scan(_):
    import wplus
    from wplus.config import Config

    parts = _basis_parts()
    with tempfile.TemporaryDirectory() as cache_dir:
        scan, wall = _clock(lambda: wplus.scan_primes(
            *SCAN, Config(cache_dir=cache_dir), basis_only=True))
    results = [{k: v for k, v in r.items() if k != "timings_ms"}
               for r in scan["results"]]
    return {"timings_ms": _split_ms(parts, wall, "rest"), "output": results}


def _basis(p):
    from wplus import modsym

    parts = _basis_parts()
    gb, total = _clock(
        lambda: modsym.BasisComputer(p).basis((p + 1) // 6 + 12))
    return {"timings_ms": _split_ms(parts, total, "echelon"), "output": {
        "g": gb.g, "pivots": gb.pivots,
        "payload_sha256": _sha256(modsym._basis_to_payload(gb))}}


def _chain_basis(p):
    """A cold good basis at the pivot precision, as verify_prime builds it."""
    from wplus.modsym import good_basis

    return good_basis(p, (p + 1) // 6 + 12)


def _lifts_and_polys(p, gb):
    """The lifts of the good basis gb, as rows of residues of q^0 .. q^(P-1),
    and their divisor polynomials P_i, as extract_Fp forms them."""
    from wplus import level1, weierstrass

    miller = level1.miller_basis_mod(p + 1, p, gb.precision)
    lifts = np.array([weierstrass.lift_to_level1(f, p, miller)
                      for f in gb.residues()])
    return lifts, level1.divisor_polynomials(lifts, p + 1, p)


def _wx(p):
    from wplus.weierstrass import polynomial_wronskian

    polys = _lifts_and_polys(p, _chain_basis(p))[1]
    w, wall = _clock(polynomial_wronskian, polys)
    return {"timings_ms": {"wx": wall}, "output": {
        "g": len(polys), "degree": w.degree(),
        "P_sha256": _sha256([[int(c) for c in f.coeffs] for f in polys]),
        "W_x_sha256": _sha256([int(c) for c in w.coeffs])}}


def _lifts(p):
    gb = _chain_basis(p)
    (lifts, polys), wall = _clock(_lifts_and_polys, p, gb)
    return {"timings_ms": {"lifts": wall}, "output": {
        "g": len(polys), "window": gb.precision,
        "lifts_sha256": _sha256([[int(c) for c in row] for row in lifts]),
        "P_sha256": _sha256([[int(c) for c in f.coeffs] for f in polys])}}


def _head(p):
    from wplus import weierstrass

    gb = _chain_basis(p)
    cuts = np.array(gb.pivots)[:, None] + np.arange(weierstrass._HEAD_TERMS)
    det, wall = _clock(weierstrass.integer_wronskian,
                       np.take_along_axis(gb.num, cuts, axis=1), gb.den,
                       gb.pivots)
    # the series of g weight-2 forms has weight 2g + g(g - 1)
    return {"timings_ms": {"head": wall}, "output": {
        "g": gb.g, "valuation": det.valuation, "precision": det.precision,
        "weight": gb.g * (gb.g + 1),
        "head_sha256": _sha256([str(Fraction(int(c), det.den))
                                for c in det.num])}}


def _class_poly(D):
    from wplus.supersingular import class_poly

    data, wall = _clock(class_poly, D)
    return {"timings_ms": {"class_poly": wall}, "output": {
        "h": data.h, "bits": data.float_precision_bits,
        "H_D_sha256": _sha256([str(c) for c in data.H_D])}}


def _sweep(_):
    import hashlib

    from wplus.cache import DiskCache
    from wplus.fppoly import is_prime
    from wplus.supersingular import class_poly

    discriminants = []
    for p in range(5, SWEEP_BELOW):
        if is_prime(p):
            discriminants += [4 * p] + ([p] if p % 4 == 3 else [])
    with tempfile.TemporaryDirectory() as cache_dir:
        cache = DiskCache(cache_dir)
        _, wall = _clock(lambda: [class_poly(D, cache=cache)
                                  for D in discriminants])
        digest = hashlib.sha256()
        for path in sorted(Path(cache_dir).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(cache_dir)).encode())
                digest.update(path.read_bytes())
    return {"timings_ms": {"sweep": wall}, "output": {
        "count": len(discriminants), "cache_sha256": digest.hexdigest()}}


#: kind -> measurement of one argument; each returns a JSON-ready dict whose
#: "output" both checkouts must agree on
MEASUREMENTS = {
    "ladder": _ladder, "layers": _layers, "factor": _factor,
    "split": _split, "scan": _scan, "basis": _basis, "wx": _wx,
    "lifts": _lifts, "head": _head, "class_poly": _class_poly,
    "sweep": _sweep}


def measure(kind, arg):
    """Run inside the child interpreter: stop unless wplus came from
    BENCH_CHECKOUT, then measure kind at arg, a JSON text."""
    import wplus

    if Path(wplus.__file__).parents[2] != Path(os.environ["BENCH_CHECKOUT"]):
        raise RuntimeError(f"imported wplus from {wplus.__file__}")
    if kind not in MEASUREMENTS:
        raise ValueError(f"unknown measurement {kind!r}")
    return MEASUREMENTS[kind](json.loads(arg))


# --- the parent: paired runs and the record ---------------------------------
def child(checkout, kind, arg):
    """Run ``bench.py --measure kind arg`` (arg as JSON) in a fresh
    interpreter that imports wplus from checkout; return the JSON it prints.
    A child that fails raises RuntimeError with its exit code and stderr."""
    env = dict(os.environ, PYTHONPATH=str(Path(checkout) / "src"),
               BENCH_CHECKOUT=str(checkout))
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--measure", kind,
         json.dumps(arg)], env=env, capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(
            f"measurement {kind} {arg} on {checkout} exited "
            f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout)


def paired(sides, cases, runs):
    """Measure each (key, kind, arg) of cases runs times per side, the sides
    taking turns to go first; stop unless each pair agrees on its output.
    Returns the outputs by key and the rest of each result by side and key."""
    outputs, stats = {}, {side: {} for side in sides}
    for key, kind, arg in cases:
        for run in range(runs):
            order = list(sides) if run % 2 == 0 else list(sides)[::-1]
            got = {side: child(sides[side], kind, arg) for side in order}
            outputs[key] = got["change"].pop("output")
            if got["baseline"].pop("output") != outputs[key]:
                raise SystemExit(f"outputs differ: {key}")
            for side in sides:
                stats[side].setdefault(key, []).append(got[side])
    return outputs, stats


def _medians(stats, field, digits=1):
    """The runs of field per side and key, and their (entrywise) medians."""
    runs = {side: {key: [s[field] for s in samples]
                   for key, samples in by_key.items()}
            for side, by_key in stats.items()}

    def median(xs):
        if isinstance(xs[0], dict):
            return {k: round(statistics.median(x[k] for x in xs), digits)
                    for k in xs[0]}
        return round(statistics.median(xs), digits)

    return {"median": {side: {key: median(xs) for key, xs in by_key.items()}
                       for side, by_key in runs.items()},
            "runs": runs}


def fppoly_suite(sides, runs):
    outputs, ladder = paired(
        sides, [(str(p), "ladder", p) for p in LADDER], runs)
    _, layers = paired(sides, [("layers", "layers", None)], 1)
    h = {str(p): outputs[str(p)]["report"]["polys"]["H"]
         for p in FACTOR_PRIMES}
    _, factor = paired(sides, [("factor", "factor", h)], 1)
    splits, split = paired(
        sides, [(str(p), "split", p) for p in FACTOR_PRIMES], 1)
    return {
        "ladder_cold_timings_ms": _medians(ladder, "timings_ms"),
        "ladder_peak_rss_mb": _medians(ladder, "peak_rss_mb", 2),
        "layers_p601": {side: layers[side]["layers"][0] for side in sides},
        "factor_H": {side: factor[side]["factor"][0] for side in sides},
        "split_S_q": {side: {p: {**samples[0], "splits": splits[p]}
                             for p, samples in split[side].items()}
                      for side in sides},
    }


def basis_suite(sides, runs):
    outputs, stats = paired(sides, [("scan", "scan", None)] + [
        (f"basis_{p}", "basis", p) for p in BASIS_PRIMES], runs)
    del outputs["scan"]
    return {"bases": outputs, "cold_ms": _medians(stats, "timings_ms")}


def wronskian_suite(sides, runs):
    outputs, stats = paired(
        sides, [(f"{kind}_{p}", kind, p)
                for kind in ("wx", "lifts", "head")
                for p in CHAIN_PRIMES]
        + [(f"class_poly_{D}", "class_poly", D) for D in CLASS_POLY_D]
        + [("sweep", "sweep", None), ("verify_601", "ladder", 601)], runs)
    del outputs["verify_601"]
    return {"outputs": outputs, "cold_ms": _medians(stats, "timings_ms")}


SUITES = {"fppoly": fppoly_suite, "basis": basis_suite,
          "wronskian": wronskian_suite}


def git_commit(checkout):
    proc = subprocess.run(["git", "-C", str(checkout), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def environment():
    try:
        cpu = next(line.split(":", 1)[1].strip() for line in
                   Path("/proc/cpuinfo").read_text().splitlines()
                   if line.startswith("model name"))
    except (OSError, StopIteration):
        cpu = None
    versions = {}
    for package in ("numpy", "mpmath"):
        try:
            versions[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            versions[package] = None
    return {"python": platform.python_version(), **versions,
            "nproc": os.cpu_count(), "cpu": cpu, "platform": platform.platform()}


def record(suite, baseline, runs):
    sides = {"baseline": Path(baseline).resolve(), "change": ROOT}
    return {
        "command": f"python scripts/bench.py {suite} --baseline DIR "
                   f"--runs {runs}",
        "environment": environment(),
        "commits": {side: git_commit(path) for side, path in sides.items()},
        **SUITES[suite](sides, runs),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("suite", nargs="?", choices=sorted(SUITES))
    parser.add_argument("--baseline", help="checkout to compare against")
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--out", help="default: BENCH_<suite>.json here")
    parser.add_argument("--measure", nargs=2, metavar=("KIND", "ARG"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.measure:
        print(json.dumps(measure(*args.measure)))
        return
    if not args.suite or not args.baseline:
        parser.error("a suite and --baseline are required")
    out = Path(args.out or ROOT / f"BENCH_{args.suite}.json")
    out.write_text(json.dumps(record(args.suite, args.baseline, args.runs),
                              indent=1) + "\n")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
