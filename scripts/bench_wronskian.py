"""Record BENCH_wronskian.json: the j-line Wronskian W_x(P), the lifts and
their divisor polynomials, the exact and mod-p Wronskian heads, the class
polynomials and a cold verify_prime(601), this checkout against a baseline
checkout of wplus.

    python scripts/bench_wronskian.py --baseline DIR [--runs 3] [--out BENCH_wronskian.json]

Each measurement runs in a fresh interpreter that imports `wplus` from the
`src/` of one checkout, the two checkouts taking turns, `--runs` times:

- `wx`: `polynomial_wronskian` of the divisor polynomials P_i of the lifts
  at p = 389, 601 and 1009, as `wronskian_divisor_polynomial` forms them.
- `lifts`: from the good basis at the pivot precision, its reduction mod p,
  the Miller basis of weight p + 1, the lifts and their divisor polynomials
  P_i, at p = 389, 601 and 1009, as `extract_Fp` forms them: on residue
  matrices (`GoodBasis.residues`, or `residue_matrix` in a checkout without
  it, and `divisor_polynomials`), or one `FpSeries` per form in a checkout
  that has no such routine.
- `head`: the exact theta-Wronskian of the head cut of the good basis (each
  f_j cut at q^(c_j + _HEAD_TERMS)) at p = 389, 601 and 1009, as the
  cross-check forms it: by `integer_wronskian` on the numerator rows and
  denominators of the basis, or on its forms in a checkout whose basis
  holds `QExpansion`s, or by `wronskian` over `Fraction` in a checkout that
  has no integer kernel.
- `modp_head`: the mod-p theta-Wronskian of the reduced head cut at
  p = 389, 601 and 1009, as the cross-check forms it: by `modp_wronskian`
  from the residue matrix of the basis (returning residues and a valuation,
  or an `FpSeries` in a checkout before that), or by `wronskian` of the
  reduced head cut over `FpSeries` in a checkout that has no int64 kernel;
  the reduction is made before the timer starts.
- `class_poly`: `class_poly(D)` at D = 1556 and 6044, the first call in the
  interpreter, so it includes the j-coefficients it needs.
- `sweep`: `class_poly` of all 187 discriminants of the primes 5 <= p < 700
  (4p, and p when p = 3 mod 4), in one interpreter, into a fresh disk cache.
- `verify`: cold `verify_prime(601)` (empty cache), with the report's
  per-stage `timings_ms`.

Both checkouts must give the same P_i and W_x, the same lifts, the same
heads, the same class polynomials, byte-identical cache files from the
sweep, and identical reports (timings aside); the script stops otherwise.
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

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_fppoly import check_checkout, child, environment, git_commit  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WX_PRIMES = (389, 601, 1009)
LIFT_PRIMES = (389, 601, 1009)
HEAD_PRIMES = (389, 601, 1009)
CLASS_POLY_D = (1556, 6044)
SWEEP_BELOW = 700
VERIFY_P = 601


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def _chain_basis(p):
    """A cold good basis at the pivot precision, as verify_prime builds it."""
    from wplus.modsym import good_basis

    return good_basis(p, (p + 1) // 6 + 12)


def _residues(gb):
    """The residues mod p of the good basis gb at its precision: from
    GoodBasis.residues, or from residue_matrix in a checkout without it."""
    if hasattr(gb, "residues"):
        return gb.residues()
    from wplus.series import residue_matrix

    if hasattr(gb, "num"):
        return residue_matrix(gb.num, gb.p, gb.precision, gb.den)
    return residue_matrix(gb.forms, gb.p, gb.precision)


def _lifts_and_polys(p, gb):
    """The lifts of the good basis gb, as rows of residues of q^0 .. q^(P-1),
    and their divisor polynomials P_i, as extract_Fp forms them: on residue
    matrices, or, in a checkout without divisor_polynomials, one FpSeries
    per form and one Level1Context(2d + 4, p) for the P_i."""
    from wplus import level1, weierstrass

    window = gb.precision
    miller = level1.miller_basis_mod(p + 1, p, window)
    divisor_polynomials = getattr(level1, "divisor_polynomials", None)
    if divisor_polynomials is not None:
        lifts = np.array([weierstrass.lift_to_level1(f, p, miller)
                          for f in _residues(gb)])
        return lifts, divisor_polynomials(lifts, p + 1, p)
    d = level1.weight_profile(p + 1).m
    lifts = [weierstrass.lift_to_level1(f, p, miller[1:]) for f in gb.forms]
    ctx = level1.Level1Context(2 * d + 4, p=p)
    polys = [level1.divisor_polynomial(f.truncate(f.valuation + d + 2), ctx)
             for f in lifts]
    return [f._window(0, window) for f in lifts], polys


def _divisor_polys(p):
    """The P_i of wronskian_divisor_polynomial, from a cold good basis at
    the pivot precision."""
    return _lifts_and_polys(p, _chain_basis(p))[1]


def _head_cut(gb):
    """The head the cross-check cuts from the good basis gb."""
    from wplus.weierstrass import _HEAD_TERMS

    return [f.truncate(min(c + _HEAD_TERMS, f.precision))
            for f, c in zip(gb.forms, gb.pivots)]


def _sweep_discriminants():
    from wplus.fppoly import is_prime

    out = []
    for p in range(5, SWEEP_BELOW):
        if is_prime(p):
            out += [4 * p] + ([p] if p % 4 == 3 else [])
    return out


def measure(kind, arg):
    """Run inside the child interpreter; returns a JSON-ready dict."""
    check_checkout()
    if kind == "wx":
        from wplus.weierstrass import polynomial_wronskian

        polys = _divisor_polys(int(arg))
        t0 = time.perf_counter()
        w = polynomial_wronskian(polys)
        wall = time.perf_counter() - t0
        return {"timings_ms": {"wx": 1e3 * wall}, "output": {
            "g": len(polys), "degree": w.degree(),
            "P_sha256": _sha256(json.dumps(
                [[int(c) for c in f.coeffs] for f in polys]).encode()),
            "W_x": [int(c) for c in w.coeffs]}}
    if kind == "lifts":
        p = int(arg)
        gb = _chain_basis(p)
        t0 = time.perf_counter()
        lifts, polys = _lifts_and_polys(p, gb)
        wall = time.perf_counter() - t0
        return {"timings_ms": {"lifts": 1e3 * wall}, "output": {
            "g": len(polys), "window": gb.precision,
            "lifts_sha256": _sha256(json.dumps(
                [[int(c) for c in row] for row in lifts]).encode()),
            "P_sha256": _sha256(json.dumps(
                [[int(c) for c in f.coeffs] for f in polys]).encode())}}
    if kind == "modp_head":
        from wplus import weierstrass

        p = int(arg)
        gb = _chain_basis(p)
        kernel = getattr(weierstrass, "modp_wronskian", None)
        if kernel is not None:
            rows = _residues(gb)
            t0 = time.perf_counter()
            det = kernel(rows, p, weierstrass._HEAD_TERMS)
        else:
            head = [f.reduce_mod(p) for f in _head_cut(gb)]
            t0 = time.perf_counter()
            det = weierstrass.wronskian(head)[0]
        wall = time.perf_counter() - t0
        # residues and a valuation, or an FpSeries in an older checkout
        coeffs, val = det if isinstance(det, tuple) else (det.coeffs,
                                                          det.valuation)
        return {"timings_ms": {"modp_head": 1e3 * wall}, "output": {
            "g": gb.g, "valuation": val, "precision": val + len(coeffs),
            "head": [int(c) for c in coeffs]}}
    if kind == "head":
        from wplus import weierstrass

        gb = _chain_basis(int(arg))
        if hasattr(gb, "num"):
            cuts = np.array(gb.pivots)[:, None] + np.arange(
                weierstrass._HEAD_TERMS)
            args = (np.take_along_axis(gb.num, cuts, axis=1), gb.den,
                    gb.pivots)
            kernel = weierstrass.integer_wronskian
        else:
            args = (_head_cut(gb),)
            kernel = getattr(weierstrass, "integer_wronskian",
                             lambda forms: weierstrass.wronskian(forms)[0])
        t0 = time.perf_counter()
        det = kernel(*args)
        wall = time.perf_counter() - t0
        if hasattr(det, "den"):
            # an ExactHead, integers over one denominator; the series of g
            # weight-2 forms has weight 2g + g(g - 1), and its lead V D is
            # nonzero
            from fractions import Fraction

            g = gb.g
            coeffs = [Fraction(int(c), det.den) for c in det.num]
            weight = 2 * g + g * (g - 1)
        else:
            coeffs, weight = det.coeffs, det.weight
        return {"timings_ms": {"head": 1e3 * wall}, "output": {
            "g": gb.g, "valuation": det.valuation,
            "precision": det.precision, "weight": weight,
            "head_sha256": _sha256(json.dumps(
                [str(c) for c in coeffs]).encode())}}
    if kind == "class_poly":
        from wplus.supersingular import class_poly

        t0 = time.perf_counter()
        data = class_poly(int(arg))
        wall = time.perf_counter() - t0
        return {"timings_ms": {"class_poly": 1e3 * wall}, "output": {
            "h": data.h, "bits": data.float_precision_bits,
            "H_D_sha256": _sha256(json.dumps(
                [str(c) for c in data.H_D]).encode())}}
    if kind == "sweep":
        from wplus.cache import DiskCache
        from wplus.supersingular import class_poly

        discriminants = _sweep_discriminants()
        with tempfile.TemporaryDirectory() as cache_dir:
            cache = DiskCache(cache_dir)
            t0 = time.perf_counter()
            for D in discriminants:
                class_poly(D, cache=cache)
            wall = time.perf_counter() - t0
            files = sorted(Path(cache_dir).rglob("*"))
            digest = hashlib.sha256()
            for path in files:
                if path.is_file():
                    digest.update(str(path.relative_to(cache_dir)).encode())
                    digest.update(path.read_bytes())
        return {"timings_ms": {"sweep": 1e3 * wall}, "output": {
            "count": len(discriminants), "cache_sha256": digest.hexdigest()}}
    if kind == "verify":
        from wplus.config import Config
        from wplus.pipeline import verify_prime

        with tempfile.TemporaryDirectory() as cache_dir:
            report = verify_prime(int(arg), Config(cache_dir=cache_dir))
        out = report.to_json_dict()
        timings = out.pop("timings_ms")
        return {"timings_ms": timings, "output": out}
    raise ValueError(f"unknown measurement {kind!r}")


def record(baseline, runs):
    sides = {"baseline": Path(baseline).resolve(), "change": ROOT}
    cases = ([(f"wx_{p}", "wx", p) for p in WX_PRIMES]
             + [(f"lifts_{p}", "lifts", p) for p in LIFT_PRIMES]
             + [(f"head_{p}", "head", p) for p in HEAD_PRIMES]
             + [(f"modp_head_{p}", "modp_head", p) for p in HEAD_PRIMES]
             + [(f"class_poly_{D}", "class_poly", D) for D in CLASS_POLY_D]
             + [("sweep", "sweep", 0), (f"verify_{VERIFY_P}", "verify",
                                        VERIFY_P)])
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
    for key, out in outputs.items():
        if key.startswith("wx_"):
            out["W_x_sha256"] = _sha256(json.dumps(out.pop("W_x")).encode())
    return {
        "command": "python scripts/bench_wronskian.py --baseline DIR "
                   f"--runs {runs}",
        "environment": environment(),
        "commits": {side: git_commit(path) for side, path in sides.items()},
        "outputs": {key: out for key, out in outputs.items()
                    if not key.startswith("verify_")},
        "cold_ms": {"median": median, "runs": timings},
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--baseline", help="checkout to compare against")
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--out", default=str(ROOT / "BENCH_wronskian.json"))
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
