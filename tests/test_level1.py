import random
from fractions import Fraction

import pytest

import numpy as np

from basis_oracle import basis_forms
from level1_oracle import (series_divisor_polynomial, series_lift,
                           series_miller_basis)
from wplus.errors import (ClosedFormMismatchError, NoLiftError,
                          NonPolynomialQuotientError, PrecisionError)
from wplus.fppoly import FpPoly, is_prime
from wplus.level1 import (_e4_e6_delta, bernoulli, cp_factor, delta,
                          divisor_polynomial, divisor_polynomials, eisenstein,
                          gp_exponents, gp_poly, j_function, miller_basis,
                          miller_basis_mod, sigma_table,
                          square_divisor_relation, weight_profile)
from wplus.modsym import good_basis
from wplus.series import FpSeries, residue_matrix
from wplus.weierstrass import lift_to_level1

KNOWN_BERNOULLI = {
    0: Fraction(1), 1: Fraction(-1, 2), 2: Fraction(1, 6), 4: Fraction(-1, 30),
    6: Fraction(1, 42), 8: Fraction(-1, 30), 10: Fraction(5, 66),
    12: Fraction(-691, 2730),
}


def test_bernoulli_table():
    for n, v in KNOWN_BERNOULLI.items():
        assert bernoulli(n) == v
    assert bernoulli(7) == 0


def test_eisenstein_first_coefficients():
    # -2k/B_k * sigma_{k-1}(1), evaluated from the independent B table
    e4 = eisenstein(4, 4)
    assert e4.coefficient(0) == 1
    assert e4.coefficient(1) == Fraction(-8) / KNOWN_BERNOULLI[4]  # = 240
    assert e4.coefficient(1) == 240
    e6 = eisenstein(6, 4)
    assert e6.coefficient(1) == Fraction(-12) / KNOWN_BERNOULLI[6]  # = -504
    assert e6.coefficient(1) == -504
    for k in (8, 10, 14, 22):
        assert eisenstein(k, 3).coefficient(0) == 1


def test_sigma_table_brute_force():
    sig = sigma_table(3, 13)
    for n in range(1, 13):
        assert sig[n] == sum(d ** 3 for d in range(1, n + 1) if n % d == 0)


def test_delta_printed_coefficients():
    d = delta(6)
    assert [d.coefficient(n) for n in (1, 2, 3, 4)] == [1, -24, 252, -1472]
    assert d.valuation == 1 and d.weight == 12


def test_j_printed_coefficients():
    assert j_function(4) == [1, 744, 196884, 21493760, 864299970]


@pytest.mark.parametrize("n", [2, 3, 17, 100])
def test_j_on_integers_matches_rational_route(n):
    # c(-1) .. c(n - 1) as Python ints, against E_4^3 / Delta over Fraction
    # from the Bernoulli Eisenstein series of Level1Context, which is known
    # below q^n at precision n + 2
    from wplus.level1 import Level1Context
    coeffs = j_function(n)
    assert len(coeffs) == n + 1
    assert all(type(c) is int for c in coeffs)
    rational = Level1Context(n + 2).j_power(1)
    assert (rational.valuation, rational.precision) == (-1, n)
    assert coeffs == [rational.coefficient(k) for k in range(-1, n)]


def _jacobi_delta(prec):
    """q prod (1 - q^n)^24 below q^prec, in Python ints."""
    def mul(a, b):
        out = [0] * prec
        for i, x in enumerate(a):
            if x:
                for j in range(prec - i):
                    out[i + j] += x * b[j]
        return out
    eta = [1] + [0] * (prec - 1)
    for n in range(1, prec):
        for m in range(prec - 1, n - 1, -1):
            eta[m] -= eta[m - n]
    eta2 = mul(eta, eta)
    eta8 = mul(mul(eta2, eta2), mul(eta2, eta2))
    return [0] + mul(mul(eta8, eta8), eta8)[:prec - 1]


def test_level1_mod_p_matches_oracles():
    # Delta against the Jacobi product, E_4 and E_6 against the Q route
    prec = 320
    jacobi = _jacobi_delta(prec)
    e4, e6 = eisenstein(4, prec), eisenstein(6, prec)
    for p in (5, 7, 11, 13, 67, 389):
        e4_p, e6_p, delta_p = _e4_e6_delta(prec, p)
        assert delta_p.dtype == np.int64 and len(delta_p) == prec
        assert delta_p.tolist() == [c % p for c in jacobi]
        assert np.array_equal(residue_matrix([e4, e6], p, prec),
                              [e4_p, e6_p])


def test_weight_profile():
    for k in range(4, 400, 2):
        profile = weight_profile(k)
        a, b = profile.etilde_exponents
        assert k == 12 * profile.m + 4 * a + 6 * b
        assert profile.m == k // 12 - (1 if k % 12 == 2 else 0)


def test_divisor_polynomial_delta_and_e4cubed():
    assert divisor_polynomial(delta(16)) == [1]
    assert divisor_polynomial(eisenstein(4, 16) ** 3) == [0, 1]


def test_divisor_polynomial_weight_pminus1_mod_67():
    e66 = eisenstein(66, 30)
    assert e66.is_p_integral(67)
    reduced = residue_matrix([e66], 67, 30)
    assert reduced[0, :10].tolist() == [1] + [0] * 9
    pol = divisor_polynomials(reduced, 66, 67)[0]
    expect = FpPoly(67, [1, 1]) * FpPoly(67, [45, 8, 1]) * FpPoly(67, [24, 44, 1])
    assert pol == expect


def test_divisor_polynomial_rejects_non_forms():
    # perturbing one coefficient of Delta leaves a residue in the extraction
    good = delta(16)
    coeffs = [good.coefficient(n) for n in range(1, good.precision)]
    coeffs[5] += 1
    from wplus.series import QExpansion
    fake = QExpansion(coeffs, 1, good.precision, weight=12)
    with pytest.raises(NonPolynomialQuotientError):
        divisor_polynomial(fake)


def test_miller_basis_weight_12():
    basis = miller_basis(12, 8)
    assert len(basis) == 2
    d = delta(8)
    assert all(basis[1].coefficient(n) == d.coefficient(n) for n in range(8))
    assert basis[0].coefficient(0) == 1 and basis[0].coefficient(1) == 0


def test_miller_basis_weight_68_dimension():
    basis = miller_basis(68, 10)
    assert len(basis) == 6  # dim M_68 = floor(68/12) + 1


def test_miller_basis_integral_and_echelon():
    # sample of weights covering every residue class mod 12
    for k in (16, 36, 62, 98, 122, 130, 158, 200):
        basis = miller_basis(k, weight_profile(k).m + 4)
        d = len(basis) - 1
        for i, h in enumerate(basis):
            for n in range(h.precision):
                assert h.coefficient(n).denominator == 1
            for j in range(d + 1):
                assert h.coefficient(j) == (1 if j == i else 0)


def test_miller_round_trip_reproduces_forms():
    # one weight per residue class mod 12
    from wplus.level1 import Level1Context
    for k in (12, 26, 16, 30, 20, 34, 40, 68):
        profile = weight_profile(k)
        prec = profile.m + 6
        ctx = Level1Context(prec + profile.m + 2)
        for h in miller_basis(k, prec):
            pol = divisor_polynomial(h, ctx)
            recon = ctx.delta ** profile.m * ctx.etilde(k)
            acc = recon.scale(0)
            for t, c in enumerate(pol):
                if c:
                    acc = acc + (recon * ctx.j_power(t)).scale(c)
            for n in range(min(acc.precision, h.precision)):
                assert acc.coefficient(n) == h.coefficient(n)


def test_divisor_degree_is_m_of_k():
    for k in (12, 16, 26, 36, 68):
        basis = miller_basis(k, weight_profile(k).m + 4)
        pol = divisor_polynomial(basis[0])
        assert len(pol) - 1 == weight_profile(k).m


def test_miller_basis_mod_matches_rational():
    p = 67
    basis_q = miller_basis(68, 10)
    basis_p = miller_basis_mod(68, p, 10)
    assert basis_p.shape == (6, 10)
    assert np.array_equal(residue_matrix(basis_q, p, 10), basis_p)


@pytest.mark.parametrize("p", [67, 199, 389])
def test_miller_matrix_at_weight_p_plus_1_matches_rational(p):
    # the weight the chain lifts to, against the rational echelon basis
    # (integral and unimodular, so it reduces mod every p) and the series
    # route; the window is the one the chain builds at p
    d = weight_profile(p + 1).m
    prec = (p + 1) // 6 + 12
    basis_p = miller_basis_mod(p + 1, p, prec)
    assert basis_p.shape == (d + 1, prec)
    assert np.array_equal(basis_p[:, :d + 1], np.eye(d + 1, dtype=np.int64))
    rational = miller_basis(p + 1, d + 6)
    assert np.array_equal(residue_matrix(rational, p, d + 6),
                          basis_p[:, :d + 6])
    assert np.array_equal(
        residue_matrix(series_miller_basis(p + 1, p, prec), p, prec), basis_p)


def test_miller_basis_mod_is_exact_past_the_old_int64_bound():
    # at p > 2^31 / sqrt(3) the d + 1 = 3 products of one back-substitution
    # row could pass 2^62, where int64 sums were refused; the monomial rows
    # of that size are given, unit upper triangular on columns 0..d as
    # monomials_mod makes them, and the basis is checked against a
    # back-substitution on Python ints
    p = next(n for n in range(2**31 + 1, 2**31 + 1000) if is_prime(n))
    k, d, n = 24, 2, 7
    rng = random.Random(p)
    monos = np.zeros((d + 1, n), dtype=np.int64)
    for i in range(d + 1):
        monos[i, i] = 1
        monos[i, i + 1:] = [rng.randrange(p) for _ in range(n - i - 1)]
    expected = [[int(c) for c in row] for row in monos]
    for i in range(d - 1, -1, -1):
        expected[i] = [(c - sum(expected[i][j] * expected[j][col]
                                for j in range(i + 1, d + 1))) % p
                       for col, c in enumerate(expected[i])]
    basis = miller_basis_mod(k, p, n, monos)
    assert basis.dtype == np.int64
    assert basis.tolist() == expected
    assert np.array_equal(basis[:, :d + 1], np.eye(d + 1, dtype=np.int64))


def test_miller_basis_mod_short_window_and_bad_weights():
    # a window below d + 2 is widened to d + 2, as the series route does
    assert miller_basis_mod(68, 67, 3).shape == (6, 7)
    for k in (2, 3, 69):
        with pytest.raises(ValueError):
            miller_basis_mod(k, 67, 10)


def _chain_lifts(p):
    """The good basis at the pivot precision, reduced, and its lifts."""
    gb = good_basis(p, (p + 1) // 6 + 12)
    forms = residue_matrix(basis_forms(gb), p, gb.precision)
    return gb, forms, lift_to_level1(forms, p)


def _assert_lifts_and_polys_match_series_route(p):
    gb, forms, lifts = _chain_lifts(p)
    cusp = series_miller_basis(p + 1, p, gb.precision)[1:]
    series = [series_lift(f, p, cusp) for f in basis_forms(gb)]
    assert np.array_equal(residue_matrix(series, p, gb.precision), lifts)
    d = weight_profile(p + 1).m
    polys = divisor_polynomials(lifts, p + 1, p)
    assert polys == [series_divisor_polynomial(b.truncate(c + d + 2))
                     for b, c in zip(series, gb.pivots)]
    assert [f.degree() for f in polys] == [d - c for c in gb.pivots]


@pytest.mark.parametrize("p", [67, 199, 389]
                         + [pytest.param(p, marks=pytest.mark.slow)
                            for p in (601, 1009)])
def test_array_lifts_and_divisor_polynomials_match_series_route(p):
    _assert_lifts_and_polys_match_series_route(p)


@pytest.mark.parametrize("p", [p for p in range(5, 140) if is_prime(p)])
def test_divisor_polynomial_one_row_matches_series_route(p):
    # the supersingular route: S_tilde of ss_polys, from the residue row of
    # E_(p-1) = 1 mod p at weight p - 1, and one row of a Miller form of
    # weight p + 1 with a nonzero constant term
    from wplus.supersingular import ss_polys
    m = weight_profile(p - 1).m
    one = FpSeries.one(p, m + 4, weight=p - 1)
    assert ss_polys(p).S_tilde == series_divisor_polynomial(one)
    h0 = miller_basis_mod(p + 1, p, 0)[:1, :weight_profile(p + 1).m + 2]
    assert divisor_polynomials(h0, p + 1, p)[0] == series_divisor_polynomial(
        FpSeries(p, h0[0], 0, h0.shape[1], weight=p + 1))


def test_divisor_polynomials_refuse_non_forms():
    p = 199
    gb, forms, lifts = _chain_lifts(p)
    bad = lifts.copy()
    bad[1, gb.precision - 1] = (bad[1, gb.precision - 1] + 1) % p
    with pytest.raises(NonPolynomialQuotientError, match="row 1"):
        divisor_polynomials(bad, p + 1, p)
    with pytest.raises(NonPolynomialQuotientError):
        series_divisor_polynomial(FpSeries(p, bad[1], 0, gb.precision,
                                           weight=p + 1))
    # a window too short for the largest valuation, and a zero row
    top = max(gb.pivots)
    d = weight_profile(p + 1).m
    with pytest.raises(PrecisionError):
        divisor_polynomials(lifts[:, :top + d + 1], p + 1, p)
    assert divisor_polynomials(lifts[:, :top + d + 2], p + 1, p) \
        == divisor_polynomials(lifts, p + 1, p)
    with pytest.raises(ValueError):
        divisor_polynomials(np.zeros((1, 40), dtype=np.int64), p + 1, p)


def test_lifts_refuse_a_non_form():
    # bare q + q^2 is no weight-2 form of level 199, and its lift differs
    # from it on the window
    p = 199
    row = np.zeros((1, 30), dtype=np.int64)
    row[0, 1:3] = 1
    with pytest.raises(NoLiftError):
        lift_to_level1(row, p)
    with pytest.raises(NoLiftError):
        series_lift(FpSeries(p, row[0], 0, 30, weight=2), p,
                    series_miller_basis(p + 1, p, 30)[1:])


def test_cp_factor_cases():
    x = FpPoly.x(11)
    x1728 = FpPoly.linear(11, 1728)
    assert cp_factor(2, 11) == x * x1728          # (2, 11)
    assert cp_factor(8, 5) == FpPoly.x(5)         # (8, 5)
    assert cp_factor(2, 5) == FpPoly.x(5)
    assert cp_factor(6, 7) == FpPoly.linear(7, 1728)
    assert cp_factor(12, 13) == FpPoly.one(13)    # (0, 1)
    assert cp_factor(4, 11) == FpPoly.one(11)


def test_gp_poly_cases():
    # p = 7 mod 12, g = 2: (x - 1728)^1 = x + 14 mod 67
    assert gp_poly(2, 67) == FpPoly(67, [14, 1])
    # p = 1 mod 12: trivial for every g
    for g in (2, 3, 7):
        assert gp_poly(g, 13) == FpPoly.one(13)
    # p = 11 mod 12, g = 2: x^ceil(2/3) (x - 1728)^1
    assert gp_poly(2, 11) == FpPoly.x(11) * FpPoly.linear(11, 1728)


def test_gp_product_equals_closed_form_broadly():
    for p in (13, 5, 7, 11):
        for g in range(2, 21):
            gp_poly(g, p)  # raises ClosedFormMismatchError on disagreement


def test_square_divisor_relation_cases():
    d40 = delta(40)
    ok, direct, expected = square_divisor_relation(d40)   # k = 0 mod 12
    assert ok and direct == [1]
    f6 = eisenstein(6, 40) * d40                           # k = 6 mod 12
    ok, direct, expected = square_divisor_relation(f6)
    assert ok
    base = divisor_polynomial(f6)
    assert len(direct) - 1 == 2 * (len(base) - 1) + 1     # extra (x-1728)
    f4 = eisenstein(4, 40) * d40                           # k = 4 mod 12
    ok, _, _ = square_divisor_relation(f4)
    assert ok
