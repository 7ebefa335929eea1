"""Level-1 modular forms and divisor polynomials.

Provides q-expansions of the Eisenstein series E_k, the discriminant Delta,
the j-function, and the Victor Miller echelon basis of M_k, together with
the classical machinery that converts a weight-k form f with leading
coefficient 1 into the polynomial F(f, x) in x = j recording the zeros of f
away from the elliptic points: f = Delta^{m(k)} * Etilde_k * F(f, j).

Everything runs both over Q (QExpansion) and over F_p (FpSeries); the F_p
route is what the verification pipeline uses.  It never touches a rational
number: E_4 = 1 + 240 sum sigma_3(n) q^n and E_6 = 1 - 504 sum sigma_5(n) q^n
are integral, so their residues come straight from the divisor sums, and
Delta = (E_4^3 - E_6^2) / 1728 is formed by int64 convolutions mod p, where
1728 = 2^6 3^3 is a unit for p >= 5.  The same integer formulas, divided
exactly over Z, give j.  The rational route (eisenstein and delta through
the Bernoulli numbers) serves the Q-context and the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ClosedFormMismatchError, NonPolynomialQuotientError, PrecisionError
from .fppoly import FpPoly, convolve_mod
from .series import FpSeries, QExpansion

_bernoulli_cache = [Fraction(1), Fraction(-1, 2)]


def bernoulli(n):
    """Exact Bernoulli number B_n, by the convolution recurrence (cached)."""
    while len(_bernoulli_cache) <= n:
        m = len(_bernoulli_cache)
        binom = 1
        acc = Fraction(0)
        for j in range(m):
            acc += binom * _bernoulli_cache[j]
            binom = binom * (m + 1 - j) // (j + 1)
        _bernoulli_cache.append(-acc / (m + 1))
    return _bernoulli_cache[n]


def sigma_table(k, prec):
    """sigma_k(n) for 0 < n < prec as python ints (index 0 unused)."""
    out = [0] * max(prec, 1)
    for d in range(1, prec):
        dk = d ** k
        for m in range(d, prec, d):
            out[m] += dk
    return out


def eisenstein(k, prec):
    """E_k = 1 - (2k/B_k) sum sigma_{k-1}(n) q^n, exact rationals."""
    if k < 4 or k % 2:
        raise ValueError("Eisenstein series needs even weight k >= 4")
    factor = Fraction(-2 * k) / bernoulli(k)
    sig = sigma_table(k - 1, prec)
    coeffs = [Fraction(1)] + [factor * sig[n] for n in range(1, prec)]
    return QExpansion(coeffs, 0, prec, weight=k)


def delta(prec):
    """Delta = (E_4^3 - E_6^2)/1728 = q - 24q^2 + 252q^3 - 1472q^4 + ..."""
    if prec < 2:
        raise ValueError("prec must be at least 2")
    e4 = eisenstein(4, prec)
    e6 = eisenstein(6, prec)
    return (e4 ** 3 - e6 ** 2).scale(Fraction(1, 1728))


def _e4_e6_delta(prec, p=None):
    """Coefficients of q^0 .. q^(prec-1) of E_4, E_6 and Delta: int64
    residues mod p, or Python ints in object arrays when p is None.

    Delta = (E_4^3 - E_6^2) / 1728, divided exactly over Z, or multiplied by
    the inverse of 1728 mod p (p >= 5).
    """
    if prec < 2:
        raise ValueError("prec must be at least 2")
    e4 = 240 * np.array(sigma_table(3, prec), dtype=object)
    e6 = -504 * np.array(sigma_table(5, prec), dtype=object)
    e4[0] = e6[0] = 1
    if p is None:
        def mul(a, b):
            return np.convolve(a, b)[:prec]
    else:
        if p < 5:
            raise ValueError("p must be a prime >= 5")
        e4, e6 = ((x % p).astype(np.int64) for x in (e4, e6))

        def mul(a, b):
            return convolve_mod(a, b, p, prec)
    diff = mul(mul(e4, e4), e4) - mul(e6, e6)
    if p is None:
        return e4, e6, diff // 1728
    return e4, e6, diff * pow(1728, -1, p) % p


def _level1_mod(prec, p):
    """E_4, E_6 and Delta reduced mod p, as FpSeries of precision prec."""
    return tuple(FpSeries(p, c, 0, prec, weight=k)
                 for c, k in zip(_e4_e6_delta(prec, p), (4, 6, 12)))


def j_function(prec):
    """j = E_4^3 / Delta = q^{-1} + 744 + 196884 q + ..., known below q^prec.

    E_4 and Delta are integral and Delta / q = 1 - 24 q + ... is monic, so
    the quotient is computed exactly in Python integers.
    """
    if prec < 2:
        raise ValueError("prec must be at least 2")
    n = prec + 1                              # q^-1 .. q^(prec-1)
    e4, _, dl = _e4_e6_delta(n + 1)
    num = np.convolve(np.convolve(e4, e4)[:n], e4)[:n]
    unit = dl[1:]
    out = np.zeros(n, dtype=object)
    out[0] = num[0]
    for k in range(1, n):
        out[k] = num[k] - out[:k].dot(unit[k:0:-1])
    return QExpansion(out.tolist(), -1, prec)


@dataclass(frozen=True)
class EtildeSpec:
    """Auxiliary data for weight k: F(f,x) has degree m for forms with a
    nonzero constant term, and Etilde = E_4^a * E_6^b clears the forced
    zeros at the elliptic points."""

    k: int
    etilde_exponents: tuple
    m: int

    def __post_init__(self):
        a, b = self.etilde_exponents
        if self.k != 12 * self.m + 4 * a + 6 * b:
            raise ValueError("inconsistent weight decomposition")


_ETILDE_BY_RESIDUE = {0: (0, 0), 2: (2, 1), 4: (1, 0), 6: (0, 1), 8: (2, 0), 10: (1, 1)}


def weight_profile(k):
    """EtildeSpec for even weight k >= 0."""
    if k % 2:
        raise ValueError("odd weight")
    r = k % 12
    m = k // 12 - (1 if r == 2 else 0)
    return EtildeSpec(k, _ETILDE_BY_RESIDUE[r], m)


def divisor_degree(k):
    """Degree m(k) of the divisor polynomial of a weight-k form with
    nonzero constant term; equals dim M_k - 1."""
    return weight_profile(k).m


class Level1Context:
    """Shared level-1 series (E_4, E_6, Delta, j and its powers) at a fixed
    absolute precision, either over Q (p=None) or over F_p.

    The j-power cache is what makes repeated divisor extraction cheap.
    """

    def __init__(self, prec, p=None):
        self.p = p
        self.prec = prec
        if p is None:
            self.e4 = eisenstein(4, prec)
            self.e6 = eisenstein(6, prec)
            self.delta = delta(prec)
        else:
            self.e4, self.e6, self.delta = _level1_mod(prec, p)
        self._jpow = [self.delta / self.delta]  # exact one, right precision
        self._jpow.append(self.e4 ** 3 / self.delta)

    @property
    def j(self):
        return self._jpow[1]

    def j_power(self, t):
        while len(self._jpow) <= t:
            self._jpow.append(self._jpow[-1] * self._jpow[1])
        return self._jpow[t]

    def etilde(self, k):
        a, b = weight_profile(k).etilde_exponents
        return self.e4 ** a * self.e6 ** b


def context_precision_for(valuation, precision, k):
    """Absolute level-1 precision sufficient to extract the divisor
    polynomial of a weight-k series with the given window."""
    return precision - valuation + weight_profile(k).m + 2


def divisor_polynomial(f, ctx=None):
    """Divisor polynomial F(f, x) of a series f of even weight f.weight with
    leading coefficient 1: the unique polynomial with
    f = Delta^{m} * Etilde * F(f, j).

    For an FpSeries input the result is an FpPoly; for a QExpansion it is a
    list of Fractions (low degree first).  Extraction peels the top power of
    j and matches principal parts; any leftover series falsifies the claim
    that f is a genuine form of its weight and raises
    NonPolynomialQuotientError.
    """
    k = f.weight
    profile = weight_profile(k)
    m = profile.m
    if f.is_zero():
        raise ValueError("cannot extract the divisor polynomial of 0")
    if f.precision < f.valuation + m + 2:
        raise PrecisionError(
            f"need precision >= valuation + m(k) + 2 = {f.valuation + m + 2}, "
            f"have {f.precision}")
    modp = isinstance(f, FpSeries)
    if ctx is None:
        ctx = Level1Context(context_precision_for(f.valuation, f.precision, k),
                            p=f.p if modp else None)
    lead = f.coefficient(f.valuation)
    if lead != 1:
        raise ValueError("divisor polynomial expects leading coefficient 1")

    denom = ctx.delta ** m * ctx.etilde(k)
    quotient = f / denom
    deg = -quotient.valuation
    coeffs = [0] * (deg + 1) if deg >= 0 else []
    residue = quotient
    for t in range(deg, -1, -1):
        c = residue.coefficient(-t)
        if c:
            coeffs[t] = c
            residue = residue - ctx.j_power(t).scale(c) if modp \
                else residue - ctx.j_power(t).scale(c)
    if not residue.is_zero():
        raise NonPolynomialQuotientError(
            f"residual series nonzero at q^{residue.valuation}")
    if modp:
        return FpPoly(f.p, coeffs)
    return [Fraction(c) for c in coeffs]


def miller_basis(k, prec):
    """Echelonized integral basis h_0, ..., h_d of M_k over Q, with
    h_i = q^i + O(q^{d+1}) and d = m(k); h_1, ..., h_d span the cusp forms.

    Built from the monomials Delta^i E_4^a E_6^b; the elimination is
    unimodular and triangular, so integrality comes for free.
    """
    if k < 4 or k % 2:
        raise ValueError("need even weight k >= 4")
    d = weight_profile(k).m
    if prec < d + 2:
        prec = d + 2
    e4 = eisenstein(4, prec)
    e6 = eisenstein(6, prec)
    dl = delta(prec)
    monos = []
    for i in range(d + 1):
        rem = k - 12 * i
        b = 1 if rem % 4 else 0
        a = (rem - 6 * b) // 4
        monos.append(dl ** i * e4 ** a * e6 ** b)
    basis = [None] * (d + 1)
    for i in range(d, -1, -1):
        h = monos[i]
        for j in range(i + 1, d + 1):
            c = h.coefficient(j)
            if c:
                h = h - basis[j].scale(c)
        basis[i] = h
    return basis


def miller_basis_mod(k, p, prec):
    """Miller basis of M_k reduced mod p, as FpSeries (weight tag k)."""
    if k < 4 or k % 2:
        raise ValueError("need even weight k >= 4")
    d = weight_profile(k).m
    if prec < d + 2:
        prec = d + 2
    e4, e6, dl = _level1_mod(prec, p)
    dpow = FpSeries.one(p, prec)
    monos = []
    for i in range(d + 1):
        rem = k - 12 * i
        b = 1 if rem % 4 else 0
        a = (rem - 6 * b) // 4
        mono = dpow * e4 ** a
        if b:
            mono = mono * e6
        monos.append(FpSeries(p, mono.coeffs, mono.valuation, mono.precision, k))
        dpow = dpow * dl
    basis = [None] * (d + 1)
    for i in range(d, -1, -1):
        h = monos[i]
        for j in range(i + 1, d + 1):
            c = h.coefficient(j)
            if c:
                h = h - basis[j].scale(c)
        basis[i] = h
    return basis


def cp_factor(k, p):
    """Correction factor C_p(k; x) governing how divisor polynomials change
    under multiplication by E_{p-1} mod p, keyed on (k, p) modulo 12."""
    if p < 5:
        raise ValueError("p must be at least 5")
    key = (k % 12, p % 12)
    xpoly = FpPoly.x(p)
    x1728 = FpPoly.linear(p, 1728)
    if key in {(2, 5), (8, 5), (8, 11)}:
        return xpoly
    if key in {(2, 7), (6, 7), (10, 7), (6, 11), (10, 11)}:
        return x1728
    if key == (2, 11):
        return xpoly * x1728
    return FpPoly.one(p)


def gp_exponents(g, p):
    """Exponents (a, b) with closed form x^a (x-1728)^b of the accumulated
    Eisenstein correction, by p mod 12."""
    r = p % 12
    third = -((g * g - g) // -3)  # ceil
    half = (g * g - g) // 2
    if r == 1:
        return (0, 0)
    if r == 5:
        return (third, 0)
    if r == 7:
        return (0, half)
    if r == 11:
        return (third, half)
    raise ValueError("p must be coprime to 12")


def gp_poly(g, p):
    """Accumulated correction prod_s C_p(2g(g+p) + (g^2-g-s)(p-1); x).

    Every factor is a monomial in x and (x - 1728), so the product form is
    accumulated as a pair of exponents; a mismatch against the closed form
    would mean cp_factor is wrong and raises ClosedFormMismatchError.
    """
    if g < 2:
        raise ValueError("g must be at least 2")
    prod_x = prod_1728 = 0
    base = 2 * g * (g + p)
    for s in range(1, g * g - g + 1):
        c = cp_factor(base + (g * g - g - s) * (p - 1), p)
        if c.evaluate(0) == 0:
            prod_x += 1
        if c.evaluate(1728) == 0:
            prod_1728 += 1
        if c.degree() != (c.evaluate(0) == 0) + (c.evaluate(1728) == 0):
            raise ClosedFormMismatchError("unexpected correction factor")
    a, b = gp_exponents(g, p)
    if (prod_x, prod_1728) != (a, b):
        raise ClosedFormMismatchError(
            f"product and closed forms differ for g={g}, p={p}: "
            f"{(prod_x, prod_1728)} vs {(a, b)}")
    return FpPoly.x(p) ** a * FpPoly.linear(p, 1728) ** b


_SQUARE_FACTORS = {0: (0, 0), 2: (1, 1), 4: (0, 0), 6: (0, 1), 8: (1, 0), 10: (0, 1)}


def square_divisor_exponents(k):
    """(a, b) with F(f^2, x) = x^a (x-1728)^b F(f, x)^2 for f of weight k."""
    return _SQUARE_FACTORS[k % 12]


def qpoly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return out


def square_divisor_relation(f, ctx=None):
    """Check F(f^2, x) against x^a (x-1728)^b F(f, x)^2.

    Returns (ok, direct, expected) where direct is the divisor polynomial
    of f^2 and expected the case-formula product.
    """
    k = f.weight
    a, b = square_divisor_exponents(k)
    f2 = f * f
    direct = divisor_polynomial(f2, ctx)
    base = divisor_polynomial(f, ctx)
    if isinstance(f, FpSeries):
        expected = (FpPoly.x(f.p) ** a * FpPoly.linear(f.p, 1728) ** b
                    * base * base)
    else:
        expected = qpoly_mul(base, base)
        for _ in range(a):
            expected = qpoly_mul(expected, [Fraction(0), Fraction(1)])
        for _ in range(b):
            expected = qpoly_mul(expected, [Fraction(-1728), Fraction(1)])
    return expected == direct, direct, expected
