import random
from fractions import Fraction

import pytest

from wplus.errors import ClosedFormMismatchError, NonPolynomialQuotientError
from wplus.fppoly import FpPoly
from wplus.level1 import (Level1Context, bernoulli, cp_factor, delta,
                          divisor_polynomial, eisenstein, gp_exponents,
                          gp_poly, j_function,
                          miller_basis, miller_basis_mod, sigma_table,
                          square_divisor_relation, weight_profile)
from wplus.series import FpSeries

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
    j = j_function(4)
    assert j.valuation == -1 and j.precision == 4 and j.weight == 0
    assert [j.coefficient(n) for n in range(-1, 4)] == [
        1, 744, 196884, 21493760, 864299970]


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
        ctx = Level1Context(prec, p)
        assert ctx.delta.weight == 12 and ctx.delta.precision == prec
        assert ctx.delta.coefficients(prec) == [c % p for c in jacobi]
        assert ctx.e4 == e4.reduce_mod(p)
        assert ctx.e6 == e6.reduce_mod(p)


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
    reduced = e66.reduce_mod(67)
    assert reduced.coefficients(10) == [1] + [0] * 9
    pol = divisor_polynomial(reduced)
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
    for hq, hp in zip(basis_q, basis_p):
        assert hq.reduce_mod(p).agrees_with(hp)


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
