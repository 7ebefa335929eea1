"""Acceptance suite: each test prints one PASS/FAIL line for its criterion.

All comparisons are exact.  Run with `pytest tests/test_acceptance.py -v -s`
to see the per-criterion lines and timings.
"""

import random
import time
from fractions import Fraction

import pytest

from wplus import linalg
from wplus.config import Config
from wplus.fppoly import FpPoly, is_prime
from wplus.level1 import delta, eisenstein, gp_poly, square_divisor_relation
from wplus.modsym import ModSymSpace, atkin_lehner_plus, good_basis
from wplus.pipeline import scan_primes, verify_prime
from wplus.supersingular import ss_oracle, ss_polys, verify_fixedlinear

F1_67 = [1, 0, -3, -3, -3, 1, 4, 3]
F2_67 = [0, 1, -1, -3, 0, 0, 3, 4]
W67_HEAD = [1, -2, -6, 6, 15, 8]
# the primes in [67, 199] whose cusp is a Weierstrass point of X_0^+(p)
CUSP_WEIERSTRASS_67_199 = [109, 151, 173, 179, 193, 197]


def _line(number, ok, detail, elapsed):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {number}: {status} - {detail} ({elapsed:.1f}s)")
    return ok


@pytest.fixture(scope="module")
def scan_67_199():
    cfg = Config(use_cache=False, jobs=1)
    t0 = time.time()
    agg = scan_primes(67, 199, cfg)
    agg["elapsed"] = time.time() - t0
    return agg


def test_criterion_1_flagship_67():
    """Exact reproduction of the worked p = 67 example."""
    t0 = time.time()
    problems = []
    report = verify_prime(67, Config(use_cache=False))
    if report.status != "ok" or not report.all_checks_pass:
        problems.append("pipeline status")
    gb = good_basis(67, 9)
    if [gb.forms[0].coefficient(n) for n in range(1, 9)] != F1_67:
        problems.append("f_1 coefficients")
    if [gb.forms[1].coefficient(n) for n in range(1, 9)] != F2_67:
        problems.append("f_2 coefficients")
    from wplus.weierstrass import wronskian
    det, lead = wronskian([f.truncate(9) for f in gb.forms])
    if lead != 1 or [det.coefficient(n) for n in range(3, 9)] != W67_HEAD:
        problems.append("wronskian coefficients")
    x = FpPoly.x(67)
    lin1 = FpPoly(67, [1, 1])
    lin14 = FpPoly(67, [14, 1])
    q1 = FpPoly(67, [45, 8, 1])
    q2 = FpPoly(67, [24, 44, 1])
    h = FpPoly(67, [62, 10, 1])
    if report.polys["F_wtilde"] != x ** 4 * (lin1 * lin14) ** 6 * (q1 * q2 * h) ** 2:
        problems.append("averaged-wronskian divisor polynomial")
    if report.polys["S_p"] != lin1 * lin14 * q1 * q2:
        problems.append("supersingular polynomial")
    if report.polys["F_p"] != (q1 * q2 * h) ** 2:
        problems.append("F_p")
    if report.polys["F_p"] != report.polys["S_q"] ** 2 * h ** 2:
        problems.append("F_p vs S_q^2 H^2")
    if (report.epsilon_rho, report.epsilon_i) != (4, 0):
        problems.append("epsilon exponents")
    ok = _line(1, not problems, "p=67 worked example reproduced exactly",
               time.time() - t0)
    assert ok, f"criterion 1 failed: {problems}"


def test_criterion_2_main_theorem_scan(scan_67_199):
    """Every prime in [67, 199]: good basis, exact divisions, square H_1,
    gcd(H, S_p) reported, and the degree identity."""
    t0 = time.time() - scan_67_199["elapsed"]
    problems = []
    results = scan_67_199["results"]
    assert [r["p"] for r in results] == [p for p in range(67, 200) if is_prime(p)]
    for r in results:
        p = r["p"]
        if r["status"] != "ok":
            problems.append((p, "status", r["status"], r.get("error")))
            continue
        if not r["good_basis"]:
            problems.append((p, "good_basis"))
        for key in ("exact_divisions", "square_extraction", "degree_identity"):
            if r["checks"].get(key) is not True:
                problems.append((p, key))
        if "gcd_H_Sp_is_1" not in r["checks"]:
            problems.append((p, "gcd not reported"))
    ok = _line(2, not problems,
               f"main-theorem scan over {len(results)} primes in [67, 199]",
               time.time() - t0)
    assert ok, f"criterion 2 failed: {problems}"


def test_criterion_3_supersingular_oracle():
    """ss_polys = ss_oracle for 5 <= p <= 103, deg S_p = g_p + 1, and the
    conjugate-pair count matches the Atkin-Lehner quotient genus."""
    t0 = time.time()
    problems = []
    for p in range(5, 104):
        if not is_prime(p):
            continue
        split = ss_polys(p)
        if ss_oracle(p) != split.S_p:
            problems.append((p, "oracle mismatch"))
        space = ModSymSpace(p)
        if split.S_p.degree() != space.genus + 1:
            problems.append((p, "degree"))
        plus = atkin_lehner_plus(space)
        g_plus = len(plus[0]) if space.genus else 0
        if 2 * g_plus != space.genus + 1 - split.S_l.degree():
            problems.append((p, "pair count"))
    ok = _line(3, not problems,
               "independent supersingular oracle agrees for 5 <= p <= 103",
               time.time() - t0)
    assert ok, f"criterion 3 failed: {problems}"


def test_criterion_4_fixed_point_congruence():
    """H_p = S_l^2 mod p via the CM float pipeline, S_l squarefree,
    for every prime 5 <= p <= 199."""
    t0 = time.time()
    problems = []
    for p in range(5, 200):
        if not is_prime(p):
            continue
        ok_p, _, sigma = verify_fixedlinear(p)
        if not ok_p:
            problems.append(p)
    ok = _line(4, not problems,
               "fixed-point polynomial congruence for 5 <= p <= 199",
               time.time() - t0)
    assert ok, f"criterion 4 failed: {problems}"


def test_criterion_5_square_divisor_suite():
    """The six-case square formula on 60 randomized monomials covering
    every weight residue mod 12."""
    t0 = time.time()
    rng = random.Random(20260809)
    residues = {r: 0 for r in range(0, 12, 2)}
    cases = []
    while len(cases) < 60:
        i = rng.randrange(1, 4)
        a = rng.randrange(0, 6)
        b = rng.randrange(0, 4)
        k = 12 * i + 4 * a + 6 * b
        r = k % 12
        if residues[r] >= 12:
            continue
        residues[r] += 1
        cases.append((i, a, b, k))
    assert all(v > 0 for v in residues.values())
    problems = []
    for i, a, b, k in cases:
        prec = 2 * i + (2 * k) // 12 + 6
        f = delta(prec) ** i
        if a:
            f = f * eisenstein(4, prec) ** a
        if b:
            f = f * eisenstein(6, prec) ** b
        ok_case, _, _ = square_divisor_relation(f)
        if not ok_case:
            problems.append((i, a, b))
    ok = _line(5, not problems,
               "square divisor-polynomial formula on 60 random monomials",
               time.time() - t0)
    assert ok, f"criterion 5 failed: {problems}"


def test_criterion_6_correction_product_vs_closed_form():
    """Product form of the Eisenstein correction equals the closed form for
    every residue class of p mod 12 and 2 <= g <= 50."""
    t0 = time.time()
    for p in (13, 5, 7, 11):
        for g in range(2, 51):
            gp_poly(g, p)  # raises ClosedFormMismatchError on disagreement
    ok = _line(6, True, "correction polynomial closed form, g up to 50",
               time.time() - t0)
    assert ok


def test_criterion_7_wronskian_integrality(scan_67_199):
    """Every scanned good basis: p-integral Wronskian, Vandermonde leading
    coefficient prime to p, pivots within the Sturm bound."""
    t0 = time.time()
    problems = []
    for r in scan_67_199["results"]:
        p = r["p"]
        if r["checks"].get("sturm_pivots") is not True:
            problems.append((p, "sturm"))
        if r["g_plus"] >= 2:
            for key in ("wronskian_p_integral", "vandermonde_lead",
                        "wronskian_congruence"):
                if r["checks"].get(key) is not True:
                    problems.append((p, key))
    ok = _line(7, not problems,
               "Wronskian integrality and Vandermonde leading coefficients",
               time.time() - t0)
    assert ok, f"criterion 7 failed: {problems}"


def test_criterion_8_weierstrass_cusp_threshold(scan_67_199):
    """The cusp of the quotient curve against the threshold p = 389.

    (a) For every scanned p in [67, 199] with g+ >= 1, wt(infinity) = 0
        holds exactly when the supersingular-graph oracle
        (tests/graph_oracle.py) finds I, T_2, ..., T_{g+} linearly
        independent on the Frobenius anti-invariant part of the
        supersingular module.  The two statements are equivalent: the
        pivots are 1..g+ iff f -> (a_1(f), ..., a_{g+}(f)) is injective,
        and a_n(f) = a_1(T_n f) with the perfect pairing between the Hecke
        algebra and the forms turns that into independence of T_1..T_{g+}.
    (b) The primes in [67, 199] with wt(infinity) != 0 are exactly
        109, 151, 173, 179, 193 and 197.  Through (a) the oracle, which
        shares no code with the modular symbols, confirms every member and
        every non-member of this set.
    (c) wt(infinity) = 0 at p = 389.
    (d) wt(infinity) > 0 at every prime in (389, 440].
    """
    from graph_oracle import hecke_operators_on_plus_part
    t0 = time.time()
    cfg = Config(use_cache=False)
    below = scan_67_199["results"]
    disagree = []
    for r in below:
        g = r["g_plus"]
        if not g:
            continue
        ops = hecke_operators_on_plus_part(r["p"], g)
        flat = [[m[i][j] for i in range(len(m)) for j in range(len(m))]
                for m in ops]
        independent = len(ops[0]) == g and linalg.rank(flat) == g
        if independent != (r["wt_inf"] == 0):
            disagree.append((r["p"], r["wt_inf"], len(ops[0]), g))
    nonzero_below = sorted(r["p"] for r in below if r["wt_inf"] != 0)
    wt_389 = verify_prime(389, cfg, basis_only=True).wt_inf
    above = scan_primes(390, 440, cfg, basis_only=True)
    wt_above = {r["p"]: r["wt_inf"] for r in above["results"]}
    not_positive_above = sorted(p for p, w in wt_above.items() if not w > 0)
    clauses = {"a": not disagree,
               "b": nonzero_below == CUSP_WEIERSTRASS_67_199,
               "c": wt_389 == 0,
               "d": not not_positive_above}
    detail = (f"cusp weight nonzero in [67, 199] at {nonzero_below}, "
              f"graph oracle agrees at every prime with g+ >= 1; "
              f"zero at 389; positive on (389, 440] ({sorted(wt_above)})")
    _line(8, all(clauses.values()), detail, time.time() - t0)
    assert clauses["a"], (
        f"criterion 8 (a): modsym and the graph oracle disagree at "
        f"(p, wt_inf, oracle dim, g+) = {disagree}")
    assert clauses["b"], (
        f"criterion 8 (b): wt(infinity) != 0 in [67, 199] at "
        f"{nonzero_below}, expected {CUSP_WEIERSTRASS_67_199}")
    assert clauses["c"], f"criterion 8 (c): wt(infinity) = {wt_389} at 389"
    assert clauses["d"], (
        f"criterion 8 (d): wt(infinity) not positive at {not_positive_above}")


@pytest.mark.slow
def test_cold_601_end_to_end(tmp_path):
    # opt-in (pytest -m slow): the largest prime of the ladder, cold cache
    t0 = time.time()
    report = verify_prime(601, Config(cache_dir=tmp_path))
    ok = report.status == "ok" and all(report.checks.values())
    _line("601", ok, f"cold p = 601, g+ = {report.g_plus}, "
          f"{len(report.checks)} checks", time.time() - t0)
    assert report.status == "ok"
    assert report.checks and all(report.checks.values())
