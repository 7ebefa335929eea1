"""Per-prime verification pipeline and the multi-prime scan driver.

verify_prime fills one VerificationReport per prime, stage by stage: the
good basis, the supersingular split, the class-polynomial check and, on a
p-integral basis, the congruence chain (weierstrass.extract_Fp), which
writes into the same report.  report.settle() then sets the status, the
same rule for the full run and the basis-only run; a stage that raises
sets falsified (a FALSIFIERS error) or error instead.
"""

from __future__ import annotations

import time

from .cache import DiskCache, NullCache
from .config import Config
from .errors import FALSIFIERS
from .fppoly import is_prime
from .modsym import good_basis, pivot_precision
from .report import VerificationReport
from .supersingular import (ORACLE_BOUND, ss_oracle, ss_polys,
                            verify_fixedlinear)
from .weierstrass import basis_heads, extract_Fp


def _cache_for(config):
    if config.use_cache:
        return DiskCache(config.cache_dir)
    return NullCache()


def verify_prime(p, config=None, basis_only=False):
    """Full verification for one prime; never raises for math outcomes,
    returns a VerificationReport whose status encodes them."""
    config = config or Config()
    if not is_prime(p) or p < 5:
        raise ValueError(f"{p} is not a prime >= 5")
    cache = _cache_for(config)
    t_start = time.perf_counter()
    report = VerificationReport(p=p)
    try:
        t0 = time.perf_counter()
        gb = good_basis(p, pivot_precision(p), cache)
        report.timings_ms["basis_pivots"] = 1e3 * (time.perf_counter() - t0)
        report.g_p = gb.genus_x0
        report.g_plus = gb.g
        report.pivots = list(gb.pivots)
        report.wt_inf = gb.wt_infinity()
        report.good_basis = gb.p_integral
        report.checks["sturm_pivots"] = all(
            1 <= c <= (p + 1) // 6 for c in gb.pivots)

        if basis_only:
            report.settle()
            report.timings_ms["total"] = 1e3 * (time.perf_counter() - t_start)
            return report

        t0 = time.perf_counter()
        split = ss_polys(p)
        report.polys["S_p"] = split.S_p
        report.polys["S_l"] = split.S_l
        report.polys["S_q"] = split.S_q
        report.checks["ss_degree"] = split.S_p.degree() == gb.genus_x0 + 1
        report.checks["genus_quotient_count"] = (
            2 * gb.g == gb.genus_x0 + 1 - split.S_l.degree())
        if p <= ORACLE_BOUND:
            report.checks["deligne_oracle"] = ss_oracle(p) == split.S_p
        report.timings_ms["supersingular"] = 1e3 * (time.perf_counter() - t0)

        t0 = time.perf_counter()
        ok_fl, hp_mod, sigma = verify_fixedlinear(p, split, cache=cache)
        report.checks["fixedlinear"] = ok_fl
        report.polys["H_p_mod_p"] = hp_mod
        report.sigma = sigma
        report.checks["ramification_count"] = (
            2 * gb.g == gb.genus_x0 + 1 - sigma // 2)
        report.timings_ms["class_poly"] = 1e3 * (time.perf_counter() - t0)

        t0 = time.perf_counter()
        if gb.p_integral:
            extract_Fp(report, gb, split)
        report.timings_ms["chain"] = 1e3 * (time.perf_counter() - t0)
        report.basis_heads = basis_heads(gb)
        report.settle()
    except FALSIFIERS as exc:
        report.status = "falsified"
        report.error = f"{type(exc).__name__}: {exc}"
    except Exception as exc:
        report.status = "error"
        report.error = f"{type(exc).__name__}: {exc}"
    report.timings_ms["total"] = 1e3 * (time.perf_counter() - t_start)
    return report


def _scan_worker(args):
    p, config, basis_only = args
    try:
        return verify_prime(p, config, basis_only=basis_only).to_json_dict()
    except Exception as exc:
        return {"schema": VerificationReport.SCHEMA, "p": p, "status": "error",
                "error": f"{type(exc).__name__}: {exc}",
                "checks": {}, "polys": {}, "timings_ms": {},
                "g_p": None, "g_plus": None, "pivots": [], "wt_inf": None,
                "good_basis": None}


def scan_primes(pmin, pmax, config=None, basis_only=False):
    """Verify every prime in [pmin, pmax]; partial failures are recorded
    per prime and the scan continues.  Results are merged in prime order
    regardless of worker scheduling."""
    config = config or Config()
    primes = [p for p in range(max(pmin, 5), pmax + 1) if is_prime(p)]
    jobs = min(config.jobs, max(len(primes), 1))
    if jobs > 1:
        # imported here: it pulls in multiprocessing, which a serial run
        # never needs
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(
                _scan_worker, [(p, config, basis_only) for p in primes]))
    else:
        results = [_scan_worker((p, config, basis_only)) for p in primes]
    summary = {
        "count": len(results),
        "ok": sum(r["status"] == "ok" for r in results),
        "falsified": sum(r["status"] == "falsified" for r in results),
        "not_good_basis": sum(r["status"] == "not_good_basis" for r in results),
        "errors": sum(r["status"] == "error" for r in results),
        "wt_positive": [r["p"] for r in results
                        if r.get("wt_inf") not in (None, 0)],
    }
    return {"schema": VerificationReport.SCHEMA, "pmin": pmin, "pmax": pmax,
            "basis_only": basis_only, "results": results, "summary": summary}
