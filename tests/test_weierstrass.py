import dataclasses
import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from wplus.errors import (ConsistencyError, NoLiftError, NotPIntegralError,
                          ParityViolationError, PrecisionError,
                          ZeroWronskianError)
from wplus.fppoly import FpPoly, is_prime
from wplus.level1 import (_e4_e6_delta, divisor_degree, divisor_expansion,
                          divisor_polynomials, gp_exponents, gp_poly,
                          miller_basis_mod)
from wplus.modsym import GoodBasis, good_basis
from wplus.report import VerificationReport
from wplus.series import FpSeries, QExpansion, residue_matrix
from wplus.supersingular import ss_polys
from wplus.weierstrass import (_HEAD_TERMS, ExactHead, _series_head,
                               cross_check_wronskian_congruence,
                               elliptic_exponents, extract_Fp,
                               gp_divides_power, integer_wronskian,
                               lift_to_level1, polynomial_wronskian, theta,
                               vandermonde, wronskian,
                               wronskian_divisor_polynomial)
from assembly_oracle import expanded_assembly, squared_route
from basis_oracle import basis_forms
from wronskian_oracle import (fraction_wronskian_head,
                              qseries_wronskian_divisor_polynomial,
                              series_polynomial_wronskian)

#: coefficients q^3 .. q^8 of the normalized Wronskian at p = 67, as printed
W67_HEAD = [1, -2, -6, 6, 15, 8]


def _chain_basis(p):
    """The good basis at the one precision the pipeline builds it at."""
    return good_basis(p, (p + 1) // 6 + 12)


def _old_window_basis(p):
    """The good basis at sum(c) + max(24, 4g), the q-series window that
    earlier releases extended the chain's basis to."""
    gb = _chain_basis(p)
    return good_basis(p, sum(gb.pivots) + max(24, 4 * gb.g))


def _lifts(p, gb):
    return lift_to_level1(gb.residues(), p)


def _jline(p, gb):
    """The lifts of the basis and F(W), lead of their Wronskian, as
    extract_Fp hands them to the cross-check."""
    lifts = _lifts(p, gb)
    return (lifts, *wronskian_divisor_polynomial(lifts, p))


def _as_qexpansion(head, g, level):
    """The ExactHead of a theta-Wronskian of g weight-2 forms as a
    QExpansion over Fraction, of weight 2g + g(g - 1)."""
    return QExpansion([Fraction(c, head.den) for c in head.num],
                      head.valuation, head.precision, 2 * g + g * (g - 1),
                      level)


def _integer_wronskian_of(forms):
    """integer_wronskian of weight-2 QExpansions of distinct valuations,
    each over the least common denominator of its head, through their least
    relative precision, as a QExpansion."""
    terms = min(f.precision - f.valuation for f in forms)
    dens = [math.lcm(*(c.denominator for c in f.coeffs[:terms]))
            for f in forms]
    rows = np.array([[int(c * d) for c in f.coeffs[:terms]]
                     for f, d in zip(forms, dens)], dtype=object)
    head = integer_wronskian(rows, dens, [f.valuation for f in forms])
    return _as_qexpansion(head, len(forms), forms[0].level)


def _chain(p, basis, split):
    """extract_Fp on a report that holds the basis and the split as
    verify_prime fills them in, then settled."""
    rep = VerificationReport(p=p, g_p=basis.genus_x0, g_plus=basis.g,
                             pivots=list(basis.pivots),
                             wt_inf=basis.wt_infinity(),
                             good_basis=basis.p_integral)
    rep.polys.update(S_p=split.S_p, S_l=split.S_l, S_q=split.S_q)
    extract_Fp(rep, basis, split)
    rep.settle()
    return rep


@pytest.fixture(scope="module")
def basis67():
    return _chain_basis(67)


@pytest.fixture(scope="module")
def report67(basis67):
    return _chain(67, basis67, ss_polys(67))


def test_theta_examples():
    q = QExpansion.from_dict({1: 1}, 5)
    assert theta(q).coefficient(1) == 1
    f = FpSeries(7, [3, 1, 4], 2, 5)
    tf = theta(f)
    assert tf.coefficients(5) == [0, 0, 6, 3, 2]  # n * a_n mod 7


def test_wronskian_single_form():
    f = QExpansion([1, 5], 1, 3, weight=2, level=11)
    det, lead = wronskian([f])
    assert det == f and lead == 1


def test_wronskian_vandermonde_leading():
    assert vandermonde([1, 2]) == 1
    assert vandermonde([1, 2, 4]) == (2 - 1) * (4 - 1) * (4 - 2)
    f1 = QExpansion([1, 0, 2], 1, 4, weight=2, level=11)
    f2 = QExpansion([1, 7], 2, 4, weight=2, level=11)
    det, lead = wronskian([f1, f2])
    assert det.valuation == 3
    assert lead == vandermonde([1, 2])


def test_wronskian_of_dependent_forms():
    f = QExpansion([1, 3, 1], 1, 4, weight=2, level=11)
    with pytest.raises(ZeroWronskianError):
        wronskian([f, f.scale(2)])


def test_wronskian_67_printed(basis67):
    det, lead = wronskian([f.truncate(10) for f in basis_forms(basis67)])
    assert lead == 1
    assert det.valuation == 3
    assert [det.coefficient(n) for n in range(3, 9)] == W67_HEAD


def test_lift_67_residual(basis67):
    forms = residue_matrix(basis_forms(basis67), 67, basis67.precision)
    lifts = lift_to_level1(forms[:1], 67)
    assert lifts.shape == (1, basis67.precision)
    assert np.array_equal(lifts, forms[:1])


def test_lift_of_miller_element_is_itself():
    p = 67
    miller = miller_basis_mod(p + 1, p, 20)
    assert np.array_equal(lift_to_level1(miller[3:4], p, miller), miller[3:4])
    # the window is the one the forms and the Miller basis share
    assert lift_to_level1(miller[1:, :12], p, miller).shape == (5, 12)


def _prime_above(bits):
    return next(n for n in range(2**bits + 1, 2**bits + 1000) if is_prime(n))


def test_lift_is_exact_past_the_old_int64_bound():
    # at p > 2^31 / sqrt(2) the d = 2 products of one lift coefficient could
    # pass 2^62, where int64 sums were refused; forms built on Python ints
    # from Miller-shaped rows h_i = q^i + O(q^(d+1)) lift to themselves, and
    # a form off their span does not
    p = _prime_above(31)
    d, n = 2, 8
    rng = random.Random(p)
    miller = np.zeros((d + 1, n), dtype=np.int64)
    for i in range(d + 1):
        miller[i, i] = 1
        miller[i, d + 1:] = [rng.randrange(p) for _ in range(n - d - 1)]
    rows = [[rng.randrange(p) for _ in range(d)] for _ in range(3)]
    forms = np.array([[sum(a * int(miller[t + 1, col])
                           for t, a in enumerate(row)) % p
                       for col in range(n)] for row in rows], dtype=np.int64)
    lifts = lift_to_level1(forms, p, miller)
    assert lifts.dtype == np.int64 and np.array_equal(lifts, forms)
    forms[1, -1] = (forms[1, -1] + 1) % p
    with pytest.raises(NoLiftError):
        lift_to_level1(forms, p, miller)


def test_lift_rejects_non_p_integral():
    f = QExpansion.from_dict({1: Fraction(1, 67)}, 10, weight=2, level=67)
    with pytest.raises(NotPIntegralError):
        lift_to_level1(residue_matrix([f], 67, 10), 67)


def test_lift_no_solution_raises():
    p = 67
    miller = miller_basis_mod(p + 1, p, 20)
    fake = np.zeros((1, 19), dtype=np.int64)
    fake[0, 1] = 1  # bare q is no form
    with pytest.raises(NoLiftError):
        lift_to_level1(fake, p, miller)
    with pytest.raises(PrecisionError):
        lift_to_level1(miller[1:, :6], p, miller)


def test_elliptic_exponents_67():
    e = elliptic_exponents(67, 2)
    assert (e.eps_rho, e.eps_i, e.alpha_rho, e.alpha_i) == (4, 0, 0, 1)
    assert e.k_tilde == 2 * 3 * 68 and e.k_star == e.k_tilde % 3


def test_elliptic_exponents_table_rows():
    # p = 1 mod 12: eps_rho = floor(2(g^2+g)/3), eps_i = (g^2+g)/2
    for g in (2, 3, 5):
        e = elliptic_exponents(13, g)
        assert e.eps_rho == (2 * (g * g + g)) // 3
        assert e.eps_i == (g * g + g) // 2
    # p = 11 mod 12, g = 2: both exponents vanish
    e = elliptic_exponents(11, 2)
    assert (e.eps_rho, e.eps_i) == (0, 0)


def test_extract_67_matches_printed_example(report67):
    rep = report67
    assert rep.status == "ok"
    assert (rep.epsilon_rho, rep.epsilon_i) == (4, 0)
    assert rep.polys["H"] == FpPoly(67, [62, 10, 1])
    sq = FpPoly(67, [45, 8, 1]) * FpPoly(67, [24, 44, 1])
    h = FpPoly(67, [62, 10, 1])
    assert rep.polys["F_p"] == (sq * h) ** 2
    assert all(rep.checks.values())


def test_extract_67_wtilde_assembly(basis67, report67):
    x = FpPoly.x(67)
    expected = (x ** 4 * (FpPoly(67, [1, 1]) * FpPoly(67, [14, 1])) ** 6
                * (FpPoly(67, [45, 8, 1]) * FpPoly(67, [24, 44, 1])
                   * FpPoly(67, [62, 10, 1])) ** 2)
    split = ss_polys(67)
    h, f_wtilde = squared_route(basis67, split)
    assert f_wtilde == expected
    assert h == report67.polys["H"]
    assert expanded_assembly(report67, split, f_wtilde)


#: primes p <= 449 at which the chain reaches theorem_assembly (g+ >= 2)
ASSEMBLY_PRIMES_TO_449 = 63


@pytest.mark.parametrize("primes", [
    pytest.param(tuple(p for p in range(5, 450) if is_prime(p)), id="to449"),
    pytest.param((601,), id="601", marks=pytest.mark.slow),
    pytest.param((1009,), id="1009", marks=pytest.mark.slow)])
def test_theorem_assembly_closed_form_matches_expanded(primes):
    # the three identities of the closed form against the expanded product,
    # and H from one exact division against the square root of num / den,
    # at every prime where the chain reaches the check
    checked = 0
    for p in primes:
        split = ss_polys(p)
        basis = _chain_basis(p)
        rep = _chain(p, basis, split)
        if rep.g_plus < 2:
            continue
        assert rep.status == "ok", p
        assert rep.checks["theorem_assembly"], p
        h, f_wtilde = squared_route(basis, split)
        assert rep.polys["H"] == h, p
        assert expanded_assembly(rep, split, f_wtilde), p
        checked += 1
    assert checked == (ASSEMBLY_PRIMES_TO_449 if len(primes) > 1 else 1)


def _patch_chain_division(monkeypatch, divide):
    """Patch FpPoly.exact_div so that the one call extract_Fp makes itself,
    H = N / D, returns divide(N, D); every other call divides."""
    exact_div = FpPoly.exact_div

    def patched(self, other):
        if sys._getframe(1).f_code is extract_Fp.__code__:
            return divide(self, other)
        return exact_div(self, other)

    monkeypatch.setattr(FpPoly, "exact_div", patched)


def test_theorem_assembly_rejects_a_wrong_square_root(basis67, monkeypatch):
    # H = N / D is the monic square root of num / den: a wrong quotient
    # fails (iii) H D = N, and the expanded identity of the oracle
    split = ss_polys(67)
    h, f_wtilde = squared_route(basis67, split)
    exact_div = FpPoly.exact_div
    _patch_chain_division(
        monkeypatch, lambda n, d: exact_div(n, d) * FpPoly.linear(67, 1))
    rep = _chain(67, basis67, split)
    assert rep.checks["exact_divisions"] and rep.checks["square_extraction"]
    assert rep.polys["H"] == h * FpPoly.linear(67, 1)
    assert not rep.checks["theorem_assembly"] and rep.status == "falsified"
    assert not expanded_assembly(rep, split, f_wtilde)


def test_theorem_assembly_rejects_a_short_S_tilde_l(basis67):
    # S~_l = x + 1 at 67; without it N / D gains the factor (x + 1)^g, so
    # H D = N still holds and only identities (i) and (ii) of the closed
    # form see the fault
    split = ss_polys(67)
    assert split.S_tilde_l == FpPoly(67, [1, 1])
    short = dataclasses.replace(split, S_tilde_l=FpPoly.one(67))
    rep = _chain(67, basis67, short)
    assert rep.checks["exact_divisions"] and rep.checks["square_extraction"]
    assert rep.polys["H"] == FpPoly(67, [62, 10, 1]) * FpPoly(67, [1, 1]) ** 2
    assert not rep.checks["theorem_assembly"] and rep.status == "falsified"
    assert not expanded_assembly(rep, short, squared_route(basis67, short)[1])


def test_exact_divisions_rejects_an_F_W_short_of_one_factor(monkeypatch):
    # S~_l = x + 1 and g = 2 at 67, so D holds (x + 1)^2 and F(W) holds it
    # exactly: an F(W) short of one factor x + 1 leaves a remainder, which
    # is a falsifier and stops the chain before F_p and H
    from wplus import weierstrass
    from wplus.config import Config
    from wplus.pipeline import verify_prime
    assert ss_polys(67).S_tilde_l == FpPoly(67, [1, 1])
    full = weierstrass.wronskian_divisor_polynomial

    def short(lifts, p, monos=None):
        fw, lead = full(lifts, p, monos)
        return fw.exact_div(FpPoly(p, [1, 1])), lead

    monkeypatch.setattr(weierstrass, "wronskian_divisor_polynomial", short)
    rep = verify_prime(67, Config(use_cache=False))
    assert rep.checks["exact_divisions"] is False
    assert rep.status == "falsified" and rep.error == ""
    assert "F_p" not in rep.polys and "H" not in rep.polys


def test_extract_small_genus_trivial():
    gb = good_basis(23, 10)
    rep = _chain(23, gb, ss_polys(23))
    assert rep.status == "ok"
    assert rep.polys["F_p"].is_one() and rep.polys["H"].is_one()


def test_extract_degree_identity_with_weierstrass_cusp():
    p = 109
    gb = _chain_basis(p)
    rep = _chain(p, gb, ss_polys(p))
    assert rep.status == "ok"
    assert rep.wt_inf == 1
    g = gb.g
    assert rep.polys["F_p"].degree() == 2 * (g ** 3 - g - 1)
    assert all(rep.checks.values())


@pytest.mark.parametrize("p", [67, 109, 199, 389]
                         + [pytest.param(p, marks=pytest.mark.slow)
                            for p in (601, 1009)])
def test_chain_report_independent_of_window(p):
    # the chain on the pivot-precision basis P = (p + 1)//6 + 12 against
    # the chain on the window of earlier releases: the pivots are gaps at
    # infinity on X_0^+(p), and the lifts' divisor polynomials fit in P
    gb, old = _chain_basis(p), _old_window_basis(p)
    assert old.precision != gb.precision == (p + 1) // 6 + 12
    assert max(gb.pivots) <= 2 * gb.g - 1
    assert max(gb.pivots) + divisor_degree(p + 1) + 2 <= gb.precision
    split = ss_polys(p)
    reports = [_chain(p, b, split) for b in (gb, old)]
    assert reports[0].status == "ok"
    dicts = [r.to_json_dict() for r in reports]
    for d in dicts:
        d.pop("timings_ms")
    assert dicts[0] == dicts[1]
    assert reports[0].text_lines() == reports[1].text_lines()


def test_extract_requires_precision(basis67):
    short = good_basis(67, 12)
    with pytest.raises(PrecisionError):
        _chain(67, short, ss_polys(67))


def test_cross_check_sensitivity(basis67):
    p = 67
    lifts, fw, lead = _jline(p, basis67)
    short = good_basis(p, 14)
    ok, _, v = cross_check_wronskian_congruence(short, lifts, fw, lead)
    assert ok and v == 1
    # perturbing one coefficient of b_1 must break the congruence
    bad = lifts.copy()
    bad[0, 4] = (bad[0, 4] + 1) % p
    ok_bad, _, _ = cross_check_wronskian_congruence(short, bad, fw, lead)
    assert not ok_bad


def test_cross_check_catches_basis_error_past_exact_head(basis67):
    # a wrong basis coefficient inside the window but past the exact head
    # q^(c_j + K) is invisible to the head and caught mod p
    p = 67
    lifts, fw, lead = _jline(p, basis67)
    ok, head, _ = cross_check_wronskian_congruence(basis67, lifts, fw, lead)
    assert ok
    n = basis67.pivots[0] + _HEAD_TERMS + 4
    assert n < basis67.precision
    num = basis67.num.copy()
    num[0, n] += basis67.den[0]                 # f_1 + q^n
    bad = GoodBasis(p, basis67.g, basis67.genus_x0, num, basis67.den,
                    basis67.pivots, True)
    ok_bad, head_bad, _ = cross_check_wronskian_congruence(bad, lifts, fw,
                                                           lead)
    assert head_bad == head
    assert not ok_bad


@pytest.mark.parametrize("past_head", [0, 12])
def test_cross_check_catches_lift_error_past_head(past_head):
    # a wrong lift coefficient past every head cut q^(c_j + K) but inside
    # the window is caught by the coefficientwise comparison with the forms;
    # the basis is at 27, the window of earlier releases at p = 67, so that
    # q^26 lies inside it
    p = 67
    gb = good_basis(p, 27)
    lifts, fw, lead = _jline(p, gb)
    assert cross_check_wronskian_congruence(gb, lifts, fw, lead)[0]
    n = max(gb.pivots) + _HEAD_TERMS + past_head
    assert n < gb.precision
    bad = lifts.copy()
    bad[-1, n] = (bad[-1, n] + 1) % p
    ok_bad, _, _ = cross_check_wronskian_congruence(gb, bad, fw, lead)
    assert not ok_bad


def test_cross_check_forms_one_head_sized_mod_p_wronskian(monkeypatch):
    # the lifts are compared with the forms, not through Wronskians on the
    # window: the only mod-p Wronskian is F(W) from extract_Fp, expanded to
    # a head of K terms, and no series elimination and no W_x run
    import wplus.weierstrass as ws
    p = 389
    gb = _chain_basis(p)
    lifts, fw, lead = _jline(p, gb)
    heads = []

    def recording(poly, k, terms):
        heads.append((k, terms))
        return divisor_expansion(poly, k, terms)

    def refuse(*args):
        raise AssertionError("a second Wronskian in the cross-check")

    monkeypatch.setattr(ws, "divisor_expansion", recording)
    monkeypatch.setattr(ws, "series_matrix_determinant", refuse)
    monkeypatch.setattr(ws, "polynomial_wronskian", refuse)
    ok, _, _ = cross_check_wronskian_congruence(gb, lifts, fw, lead)
    assert ok
    assert heads == [(gb.g * (gb.g + p), _HEAD_TERMS)]


def test_cross_check_compares_exact_head_with_mod_p_head():
    # the exact head reads the top K coefficients of F(W): at 389, where
    # deg F(W) = 300, a wrong coefficient of x^289 is refused, one of x^288
    # is not seen, and a wrong lead or degree is refused
    p = 389
    gb = _chain_basis(p)
    lifts, fw, lead = _jline(p, gb)
    d = fw.degree()
    assert d == 300
    assert cross_check_wronskian_congruence(gb, lifts, fw, lead)[0]

    def off(n):
        coeffs = fw.coeffs.copy()
        coeffs[n] = (coeffs[n] + 1) % p
        return FpPoly(p, coeffs)

    assert not cross_check_wronskian_congruence(
        gb, lifts, off(d - _HEAD_TERMS + 1), lead)[0]
    assert cross_check_wronskian_congruence(
        gb, lifts, off(d - _HEAD_TERMS), lead)[0]
    assert not cross_check_wronskian_congruence(
        gb, lifts, fw, (lead + 1) % p)[0]
    assert not cross_check_wronskian_congruence(
        gb, lifts, fw * FpPoly.x(p), lead)[0]


@pytest.mark.parametrize("p", [67, 109, 199])
def test_exact_head_matches_absolute_window(p):
    # the pivot-relative head against the exact Wronskian of the forms cut
    # at one absolute precision sum(c) + max(24, 4g), as it was formed before
    gb = _old_window_basis(p)
    window = gb.precision
    ok, head, v = cross_check_wronskian_congruence(gb, *_jline(p, gb))
    assert ok
    full, _ = wronskian([f.truncate(window) for f in basis_forms(gb)])
    assert head.valuation == full.valuation == sum(gb.pivots)
    assert head.precision == sum(gb.pivots) + _HEAD_TERMS < full.precision
    assert _as_qexpansion(head, gb.g, p) == full.truncate(head.precision)
    assert line_of(full.scale(Fraction(1, v)), 6) in (
        _chain(p, gb, ss_polys(p)).text_lines())


def line_of(w, nterms):
    """The report line of the Wronskian head w, a QExpansion over Fraction,
    written term by term from its Fractions."""
    parts, n = [], w.valuation
    while len(parts) < nterms and n < w.precision:
        c = w.coefficient(n)
        if c:
            mono = "q" if n == 1 else f"q^{n}"
            parts.append(mono if c == 1 else f"-{mono}" if c == -1
                         else f"{c}{mono}")
        n += 1
    return ("  wronskian = " + " + ".join(parts).replace("+ -", "- ")
            + f" + O(q^{n})")


@pytest.mark.parametrize("c, den, n, text", [
    (1, 1, 1, "q"), (-1, 1, 5, "-q^5"), (6, 3, 2, "2q^2"), (-3, 6, 4,
                                                            "-1/2q^4"),
    (4, 6, 0, "2/3q^0"), (-7, 7, 3, "-q^3")])
def test_series_head_writes_fractions_in_lowest_terms(c, den, n, text):
    head = ExactHead((0, c, 0), den, n - 1)
    assert _series_head(head) == f"{text} + O(q^{n + 2})"
    assert _series_head(head, 0) == f" + O(q^{n - 1})"
    w = QExpansion([Fraction(c, den), 0], n, n + 2)
    assert line_of(w, 8) == f"  wronskian = {text} + O(q^{n + 2})"


def _head_cut(gb):
    return [f.truncate(min(c + _HEAD_TERMS, f.precision))
            for f, c in zip(basis_forms(gb), gb.pivots)]


@pytest.mark.parametrize("p", [67, 199, 389])
def test_integer_head_matches_fraction_oracle(p):
    # the head the cross-check forms on integers, coefficient by coefficient
    # (and in valuation, precision and weight) against Fraction elimination
    gb = _chain_basis(p)
    ok, head, _ = cross_check_wronskian_congruence(gb, *_jline(p, gb))
    assert ok
    assert _as_qexpansion(head, gb.g, p) == fraction_wronskian_head(gb)
    assert head.valuation == sum(gb.pivots)


@pytest.mark.slow
@pytest.mark.parametrize("p", [601, 1009])
def test_integer_head_matches_fraction_oracle_large(p):
    # opt-in (pytest -m slow)
    gb = _chain_basis(p)
    assert _integer_wronskian_of(_head_cut(gb)) == fraction_wronskian_head(gb)


def _random_head(rng, g, p):
    """g forms of level p with distinct valuations, random rational
    coefficients whose denominators are prime to p, and relative
    precisions from 1 to 8."""
    dens = [d for d in range(1, 40) if d % p]
    forms = []
    for c in sorted(rng.sample(range(1, 3 * g + 4), g)):
        coeffs = [Fraction(rng.randrange(-30, 31), rng.choice(dens))
                  for _ in range(rng.randrange(1, 9))]
        coeffs[0] = coeffs[0] or Fraction(1, rng.choice(dens))
        forms.append(QExpansion(coeffs, c, c + len(coeffs), weight=2,
                                level=p))
    return forms


@pytest.mark.parametrize("p", [5, 7, 67])
def test_integer_wronskian_random_forms_match_fraction_route(p):
    rng = random.Random(p)
    for g in range(1, 7):
        for _ in range(4):
            forms = _random_head(rng, g, p)
            det = _integer_wronskian_of(forms)
            assert det == wronskian(forms)[0]
            assert det.precision == sum(f.valuation for f in forms) + min(
                f.precision - f.valuation for f in forms)
            # mod p when the lead V * prod lead(f_j) stays a p-unit
            if det.coefficient(det.valuation).numerator % p:
                red, _ = wronskian([f.reduce_mod(p) for f in forms])
                assert det.reduce_mod(p).agrees_with(red)


def test_integer_wronskian_refuses_inexact_division(monkeypatch):
    # a corrupted entry of the elimination makes the next division inexact:
    # with valuations 1, 3, 6, 10 the pivot of step 1 has constant term
    # V(1, 3) / 1! = 2, so an odd error in a step-2 product (the sixth)
    # leaves a remainder
    import wplus.weierstrass as ws
    forms = [QExpansion([1, n, 2 * n, -3], c, c + 4, weight=2, level=67)
             for n, c in enumerate((1, 3, 6, 10), start=1)]
    assert _integer_wronskian_of(forms) == wronskian(forms)[0]
    full = ws._truncated_product
    calls = []

    def corrupt(a, b):
        out = full(a, b)
        calls.append(out.shape)
        if len(calls) == 6:
            out[0, 0, 0] += 1
        return out

    monkeypatch.setattr(ws, "_truncated_product", corrupt)
    with pytest.raises(ConsistencyError, match="inexact"):
        _integer_wronskian_of(forms)
    assert len(calls) == 6


@pytest.mark.parametrize("valuations", [(1, 1), (1, 1, 3), (2, 3, 3, 5)])
def test_integer_wronskian_refuses_zero_pivot(valuations):
    # equal valuations make a leading minor of the constant terms vanish;
    # the pivot that carries it is refused before it divides anything
    forms = [QExpansion([1, n, 2 * n], c, c + 3, weight=2, level=67)
             for n, c in enumerate(valuations, start=1)]
    with pytest.raises(ConsistencyError, match="constant term 0"):
        _integer_wronskian_of(forms)


@pytest.mark.parametrize("p", [67, 199, 389])
def test_jline_head_matches_series_wronskian_of_head_cut(p):
    # lead D F(W)(j), expanded to K terms, against Gaussian elimination over
    # FpSeries on the reduced forms cut at q^(c_j + K)
    gb = _chain_basis(p)
    _, fw, lead = _jline(p, gb)
    head, val = divisor_expansion(fw, gb.g * (gb.g + p), _HEAD_TERMS)
    det = FpSeries(p, lead * head % p, val, val + _HEAD_TERMS)
    series, series_lead = wronskian([f.reduce_mod(p) for f in _head_cut(gb)])
    assert (det.valuation, det.precision) == (series.valuation,
                                              series.precision)
    assert det.agrees_with(series)
    assert series_lead == lead == vandermonde(gb.pivots) % p


@pytest.mark.parametrize("p", [67, 389, 2003])
def test_divisor_expansion_inverts_divisor_polynomials(p):
    # random forms of weight k with valuations from 0 to m(k): the head of
    # D F(f)(j) is the form's own, for every number of terms
    rng = random.Random(p)
    for k in (12, 26, p + 1):
        m = divisor_degree(k)
        width = 2 * m + 20
        miller = miller_basis_mod(k, p, width)
        rows = np.zeros((8, width), dtype=np.int64)
        for row in rows:
            start = rng.randrange(m + 1)
            coeffs = [rng.randrange(p) for _ in range(m + 1)]
            coeffs[start] = rng.randrange(1, p)
            row[:] = np.array(coeffs[start:]) @ miller[start:] % p
        for row, poly in zip(rows, divisor_polynomials(rows, k, p)):
            val = int(row.nonzero()[0][0])
            for terms in (1, 5, _HEAD_TERMS, 2 * m + 15 - val):
                head, v = divisor_expansion(poly, k, terms)
                assert v == val
                assert np.array_equal(head, row[val:val + terms])


def _integer_head(poly, k, terms):
    """The head of D F(j) for F = poly, as divisor_expansion gives it, from
    the form sum_t F_t Delta^(m-t) E_4^a E_6^b built on Python ints and
    reduced mod p only at the end."""
    p, d, m = poly.p, poly.degree(), divisor_degree(k)
    prec = m - d + terms
    e4, e6, dl = _e4_e6_delta(prec)
    form = np.zeros(prec, dtype=object)
    for t, c in enumerate(poly.coeffs):
        rem = k - 12 * (m - t)
        b = rem % 4 // 2
        mono = np.zeros(prec, dtype=object)
        mono[0] = int(c)
        for series, e in ((dl, m - t), (e4, (rem - 6 * b) // 4), (e6, b)):
            for _ in range(e):
                mono = np.convolve(mono, series)[:prec]
        form += mono
    return [int(c) % p for c in form[m - d:]]


def test_divisor_expansion_head_is_exact_past_the_old_int64_bound():
    # at p > 2^31 / sqrt(3) the 3 products of one head coefficient could
    # pass 2^62, where int64 sums were refused, and so could the monomial
    # rows' convolutions; the head is checked against the form built on
    # Python ints
    p, k, terms = _prime_above(31), 48, 5
    m = divisor_degree(k)
    rng = random.Random(p)
    poly = FpPoly(p, [rng.randrange(p) for _ in range(m)] + [1])
    head, v = divisor_expansion(poly, k, terms)
    assert v == m - poly.degree() and head.dtype == np.int64
    assert head.tolist() == _integer_head(poly, k, terms)


def test_divisor_expansion_exact_past_2_31_and_refuses_bad_degree():
    # at p > 2^31 the monomial rows' convolutions sum in Python ints, where
    # they were refused, and the head equals the form built on Python ints;
    # a degree above m(k), or the zero polynomial, is refused
    p = _prime_above(31)
    poly = FpPoly(p, [1, 1])
    head, v = divisor_expansion(poly, 24, 3)
    assert v == divisor_degree(24) - 1
    assert head.tolist() == _integer_head(poly, 24, 3)
    m = divisor_degree(24)
    with pytest.raises(ValueError):
        divisor_expansion(FpPoly(67, [1] * (m + 2)), 24, 3)
    with pytest.raises(ValueError):
        divisor_expansion(FpPoly.zero(67), 24, 3)


def _refuse_construction(self, *args, **kwargs):
    raise AssertionError(f"{type(self).__name__} built")


def test_chain_uses_no_fp_series_arithmetic(tmp_path, monkeypatch):
    # the pipeline runs on arrays: with FpSeries refused, a cold
    # verify_prime gives the report of an unpatched run, timings aside
    from wplus.config import Config
    from wplus.pipeline import verify_prime
    p = 389

    def report(cache_dir):
        out = verify_prime(p, Config(cache_dir=cache_dir)).to_json_dict()
        del out["timings_ms"]
        return out

    want = report(tmp_path / "unpatched")
    assert want["status"] == "ok"
    monkeypatch.setattr(FpSeries, "__init__", _refuse_construction)
    assert report(tmp_path / "patched") == want


def test_chain_uses_no_fraction_series_arithmetic(monkeypatch):
    # with QExpansion and FpSeries refused, the uncached basis, S_tilde and
    # the chain (the Miller basis, the lifts, the P_i, both Wronskian heads)
    # still run: none of them builds one
    p = 389
    monkeypatch.setattr(FpSeries, "__init__", _refuse_construction)
    monkeypatch.setattr(QExpansion, "__init__", _refuse_construction)
    assert _chain(p, _chain_basis(p), ss_polys(p)).status == "ok"


def test_non_integral_basis_reports_not_good(basis67, monkeypatch):
    # verify_prime runs the chain only on a p-integral basis
    from wplus import pipeline
    from wplus.config import Config
    doubted = GoodBasis(67, basis67.g, basis67.genus_x0, basis67.num,
                        basis67.den, basis67.pivots, p_integral=False)
    monkeypatch.setattr(pipeline, "good_basis", lambda *args: doubted)
    monkeypatch.setattr(pipeline, "extract_Fp", None)
    rep = pipeline.verify_prime(67, Config(use_cache=False))
    assert rep.status == "not_good_basis" and not rep.error
    assert rep.exit_code == 2
    assert "F_p" not in rep.polys and "H" not in rep.polys
    assert "chain" in rep.timings_ms


@pytest.mark.parametrize("fault, status", [
    pytest.param("division", "error", id="RuntimeError-error"),
    pytest.param("odd_u", "falsified", id="odd_u-falsified")])
def test_square_extraction_catches_only_odd_multiplicity(monkeypatch, tmp_path,
                                                         fault, status):
    # the chain takes no square root: H is one exact division, and
    # square_extraction reads the parity of the exponents u and v.  A fault
    # inside the division is an error; only an odd exponent, an odd
    # multiplicity of 0 in num / den, falsifies
    from wplus import weierstrass
    from wplus.config import Config
    from wplus.pipeline import verify_prime

    def broken(self):
        raise RuntimeError("sqrt called")

    monkeypatch.setattr(FpPoly, "sqrt", broken)
    assert verify_prime(67, Config(cache_dir=tmp_path)).status == "ok"
    if fault == "division":
        def planted(n, d):
            raise RuntimeError("planted")

        _patch_chain_division(monkeypatch, planted)
    else:
        exponents = weierstrass.elliptic_exponents

        def odd_u(p, g):
            exps = exponents(p, g)
            return dataclasses.replace(exps, delta_rho=exps.delta_rho + 1)

        monkeypatch.setattr(weierstrass, "elliptic_exponents", odd_u)
    rep = verify_prime(67, Config(use_cache=False))
    assert rep.status == status
    if fault == "odd_u":
        assert rep.checks["square_extraction"] is False
        assert not rep.error
    else:
        assert rep.error == "RuntimeError: planted"
        assert "exact_divisions" not in rep.checks


def test_polynomial_wronskian_small_cases(monkeypatch):
    # W_x(1 + x, x^2) = (1 + x) 2x - x^2 = 2x + x^2; one polynomial is itself
    p = 67
    assert polynomial_wronskian([FpPoly(p, [1, 1]), FpPoly(p, [0, 0, 1])]) \
        == FpPoly(p, [0, 2, 1])
    assert polynomial_wronskian([FpPoly(p, [3, 0, 5])]) == FpPoly(p, [3, 0, 5])
    # W_x(1 + x^2, x^4) = 4x^3 + 2x^5 needs 6 points, as does the bound 4:
    # a nonzero coefficient above the kernel's bound is refused
    import wplus.weierstrass as ws
    polys = [FpPoly(p, [1, 0, 1]), FpPoly(p, [0, 0, 0, 0, 1])]
    assert polynomial_wronskian(polys) == FpPoly(p, [0, 0, 0, 4, 0, 2])
    full = ws._determinant_by_interpolation
    monkeypatch.setattr(ws, "_determinant_by_interpolation",
                        lambda entries, p, bound: full(entries, p, bound - 1))
    with pytest.raises(ConsistencyError):
        polynomial_wronskian(polys)


@pytest.mark.parametrize("p", [67, 199, 389])
def test_polynomial_wronskian_matches_series_oracle(p):
    # the chain's P_i: at 389 the element of order N = 260 lies outside F_p
    gb = _chain_basis(p)
    polys = divisor_polynomials(_lifts(p, gb), p + 1, p)
    assert polynomial_wronskian(polys) == series_polynomial_wronskian(polys)


def _random_lists(p, seed):
    """Seeded lists of random polynomials over F_p: g from 1 to 5, degrees
    up to 14, and one list with a diagonal entry that vanishes at x = 1."""
    rng = random.Random(seed)
    lists = [[FpPoly(p, [-1, 1]), FpPoly(p, [1])],
             [FpPoly(p, [-1, 1]), FpPoly(p, [0, 3, 0, 1])]]
    for g in (1, 1, 2, 2, 3, 3, 4, 5):
        lists.append([FpPoly(p, [rng.randrange(p) for _ in range(
            rng.randrange(1, 15))] + [1]) for _ in range(g)])
    return lists


@pytest.mark.parametrize("p", [67, 389, 601, 2003])
def test_polynomial_wronskian_random_lists_match_series_oracle(p):
    for polys in _random_lists(p, p):
        assert polynomial_wronskian(polys) == series_polynomial_wronskian(polys)
    # a dependent list has Wronskian 0
    f, h = _random_lists(p, p + 1)[-1][:2]
    with pytest.raises(ZeroWronskianError):
        polynomial_wronskian([f, h, f * 3 + h * 5])
    with pytest.raises(ZeroWronskianError):
        series_polynomial_wronskian([f, h, f * 3 + h * 5])


@pytest.mark.parametrize("bits, degree", [(31, 2)])
def test_polynomial_wronskian_refuses_int64_overflow(monkeypatch, bits,
                                                     degree):
    # the evaluation and interpolation products are exact at any p; Fp2's
    # sums of three products of residues pass 2^62 at p > 2^31 / sqrt(3),
    # and it refuses before its table of inverses (16 GB at 2^31) is built
    import wplus.fppoly as fppoly
    p = _prime_above(bits)

    def never(*args):
        raise AssertionError("inverse table built before the int64 guard")

    monkeypatch.setattr(fppoly, "inverse_table", never)
    with pytest.raises(OverflowError):
        polynomial_wronskian([FpPoly(p, [1] * (degree + 1)), FpPoly(p, [0, 1])])


def _assert_routes_agree(p):
    gb = _chain_basis(p)
    fw, lead = wronskian_divisor_polynomial(_lifts(p, gb), p)
    assert (fw, lead) == qseries_wronskian_divisor_polynomial(p, gb)
    assert fw.degree() == divisor_degree(gb.g * (gb.g + p)) - sum(gb.pivots)
    assert lead == vandermonde(gb.pivots) % p


@pytest.mark.parametrize("p", [67, 109, 197, 199, 263, 389])
def test_jline_wronskian_matches_qseries_oracle(p):
    _assert_routes_agree(p)


@pytest.mark.slow
@pytest.mark.parametrize("p", [p for p in range(67, 450) if is_prime(p)]
                         + [601])
def test_jline_wronskian_matches_qseries_oracle_scan(p):
    # opt-in (pytest -m slow): every prime in [67, 449] with g+ >= 2, and 601
    if _chain_basis(p).g >= 2:
        _assert_routes_agree(p)


def _det_mod(rows, p):
    """Determinant mod p by Gaussian elimination on Python ints."""
    m = [row[:] for row in rows]
    det = 1
    for c in range(len(m)):
        r = next((r for r in range(c, len(m)) if m[r][c] % p), None)
        if r is None:
            return 0
        if r != c:
            m[c], m[r] = m[r], m[c]
            det = -det
        det = det * m[c][c] % p
        inv = pow(m[c][c], -1, p)
        for r in range(c + 1, len(m)):
            f = m[r][c] * inv % p
            m[r] = [(x - f * y) % p for x, y in zip(m[r], m[c])]
    return det % p


def _horner(coeffs, x, p):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


@pytest.mark.parametrize("p", [67, 199, 389])
def test_polynomial_wronskian_pointwise(p):
    # W_x(P)(x0) = det[P_j^(r)(x0)] at every x0 in F_p, by elimination that
    # shares no code with series_matrix_determinant; deg W_x < p here, so
    # the values fix the polynomial
    gb = _chain_basis(p)
    polys = divisor_polynomials(_lifts(p, gb), p + 1, p)
    w = [int(c) for c in polynomial_wronskian(polys).coeffs]
    assert 0 <= len(w) - 1 < p
    rows = [[[int(c) for c in f.coeffs] for f in polys]]
    for _ in range(gb.g - 1):
        rows.append([[n * c % p for n, c in enumerate(f)][1:]
                     for f in rows[-1]])
    for x0 in range(p):
        mat = [[_horner(f, x0, p) for f in row] for row in rows]
        assert _det_mod(mat, p) == _horner(w, x0, p)


def test_cold_verify_extends_basis_to_window_only(tmp_path):
    # one basis precision per prime, the pivot precision, and no Miller
    # basis in the cache
    from wplus.cache import DiskCache
    from wplus.config import Config
    from wplus.pipeline import verify_prime
    p = 389
    assert verify_prime(p, Config(cache_dir=tmp_path)).status == "ok"
    stored = DiskCache(tmp_path).get("good_basis", str(p))
    assert stored["precision"] == (p + 1) // 6 + 12
    assert sorted(d.name for d in tmp_path.iterdir()) == [
        "class_poly", "good_basis"]


def _gp_divides_by_power(g, p, s_l):
    """The test extract_Fp made before: gp_poly divides S_l^(g^2 + g)."""
    return (s_l ** (g * g + g) % gp_poly(g, p)).is_zero()


def test_gp_divides_power_matches_power_test():
    # the multiplicity comparison against the formed power, at every prime
    # in [5, 400] where the chain runs (g+ >= 2)
    from wplus.modsym import BasisComputer
    plus_genus = {p: BasisComputer(p).g for p in range(5, 401) if is_prime(p)}
    chain = {p: g for p, g in plus_genus.items() if g >= 2}
    assert len(chain) == 54
    for p, g in chain.items():
        s_l = ss_polys(p).S_l
        assert gp_divides_power(g, p, s_l) == _gp_divides_by_power(g, p, s_l)
        assert gp_divides_power(g, p, s_l)


@pytest.mark.parametrize("p, roots, expected", [
    (383, [5, 7], False),          # p = 11 mod 12: x and x - 1728 missing
    (383, [0, 7], False),          # x - 1728 missing
    (383, [1728 % 383, 9], False),  # x missing
    (383, [0, 1728 % 383], True),
    (367, [0, 3], False),          # p = 7 mod 12: x - 1728 missing
    (367, [1728 % 367, 1728 % 367, 3], True),
    (389, [5], False),             # p = 5 mod 12: gp = x^a, x missing
    (389, [0, 5], True),
    (397, [5], True),              # p = 1 mod 12: gp = 1
])
def test_gp_divides_power_on_built_s_l(p, roots, expected):
    g = 5
    s_l = FpPoly.from_roots(p, roots)
    assert gp_divides_power(g, p, s_l) is expected
    assert _gp_divides_by_power(g, p, s_l) is expected
