"""Level-1 modular forms and divisor polynomials.

Provides q-expansions of the Eisenstein series E_k, the discriminant Delta,
the j-function, and the Victor Miller echelon basis of M_k, together with
the classical machinery that converts a weight-k form f with leading
coefficient 1 into the polynomial F(f, x) in x = j recording the zeros of f
away from the elliptic points: f = Delta^{m(k)} * Etilde_k * F(f, j).

The F_p route is what the verification pipeline uses, and it runs on int64
residue arrays, one row per form, never on one series object per entry or
on a rational number.  E_4 = 1 + 240 sum sigma_3(n) q^n and
E_6 = 1 - 504 sum sigma_5(n) q^n are integral, so their residues come
straight from the divisor sums, and Delta = (E_4^3 - E_6^2) / 1728 is
formed by exact convolutions mod p (fppoly.convolve_mod), where
1728 = 2^6 3^3 is a unit for p >= 5.  The monomials Delta^i E_4^(a - 3i)
E_6^b of weight k are one power and then one product by
Delta / E_4^3 = 1/j per row; one back-substitution
turns them into the Miller basis mod p, peeling them off a matrix of
forms gives all the divisor polynomials at once (divisor_polynomials), and
the head of a form is read back from the top of its divisor polynomial
(divisor_expansion).
The same integer formulas, divided exactly over Z, give j.  The rational
route (eisenstein and delta through the Bernoulli numbers, QExpansion
arithmetic, Level1Context) serves divisor polynomials over Q and the
tests; it imports ``fractions`` and ``series`` on its first call, so the
F_p route loads neither.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ClosedFormMismatchError, NonPolynomialQuotientError, PrecisionError
from .fppoly import FpPoly, convolve_mod, int64_sums_fit, inverse_mod_xn
from .linalg import exact_matmul

_bernoulli_cache = []


def bernoulli(n):
    """Exact Bernoulli number B_n, by the convolution recurrence (cached)."""
    from fractions import Fraction

    if not _bernoulli_cache:
        _bernoulli_cache.extend([Fraction(1), Fraction(-1, 2)])
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
    from fractions import Fraction
    from .series import QExpansion

    if k < 4 or k % 2:
        raise ValueError("Eisenstein series needs even weight k >= 4")
    factor = Fraction(-2 * k) / bernoulli(k)
    sig = sigma_table(k - 1, prec)
    coeffs = [Fraction(1)] + [factor * sig[n] for n in range(1, prec)]
    return QExpansion(coeffs, 0, prec, weight=k)


def delta(prec):
    """Delta = (E_4^3 - E_6^2)/1728 = q - 24q^2 + 252q^3 - 1472q^4 + ..."""
    from fractions import Fraction

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


def j_function(prec):
    """The coefficients c(-1), c(0), ..., c(prec - 1) of
    j = E_4^3 / Delta = q^{-1} + 744 + 196884 q + ..., as Python ints.

    E_4 and Delta are integral and Delta / q = 1 - 24 q + ... is monic, so
    the quotient is computed exactly in Python integers.  As a series:
    QExpansion(j_function(prec), -1, prec).
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
    return out.tolist()


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
    """Shared level-1 series over Q (E_4, E_6, Delta, j and its powers) at a
    fixed absolute precision, for divisor polynomials of QExpansion forms.

    The j-power cache is what makes repeated divisor extraction cheap.
    """

    def __init__(self, prec):
        self.prec = prec
        self.e4 = eisenstein(4, prec)
        self.e6 = eisenstein(6, prec)
        self.delta = delta(prec)
        self._jpow = [self.delta / self.delta]  # exact one, right precision
        self._jpow.append(self.e4 ** 3 / self.delta)

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
    """Divisor polynomial F(f, x) over Q of a QExpansion f of even weight
    f.weight with leading coefficient 1: the unique polynomial with
    f = Delta^{m} * Etilde * F(f, j), as a list of Fractions (low degree
    first), peeled off the top power of j against the Level1Context ctx.
    Any leftover series falsifies the claim that f is a genuine form of its
    weight and raises NonPolynomialQuotientError.  Over F_p the divisor
    polynomials of residue rows come from divisor_polynomials.
    """
    from fractions import Fraction

    k = f.weight
    m = weight_profile(k).m
    if f.is_zero():
        raise ValueError("cannot extract the divisor polynomial of 0")
    if f.precision < f.valuation + m + 2:
        raise PrecisionError(
            f"need precision >= valuation + m(k) + 2 = {f.valuation + m + 2}, "
            f"have {f.precision}")
    if f.coefficient(f.valuation) != 1:
        raise ValueError("divisor polynomial expects leading coefficient 1")
    if ctx is None:
        ctx = Level1Context(context_precision_for(f.valuation, f.precision, k))
    quotient = f / (ctx.delta ** m * ctx.etilde(k))
    deg = -quotient.valuation
    coeffs = [0] * (deg + 1) if deg >= 0 else []
    residue = quotient
    for t in range(deg, -1, -1):
        c = residue.coefficient(-t)
        if c:
            coeffs[t] = c
            residue = residue - ctx.j_power(t).scale(c)
    if not residue.is_zero():
        raise NonPolynomialQuotientError(
            f"residual series nonzero at q^{residue.valuation}")
    return [Fraction(c) for c in coeffs]


def divisor_polynomials(forms, k, p, monos=None):
    """Divisor polynomials F(f, x) over F_p of weight-k forms f, given as the
    rows of an int64 array of the residues of q^0 .. q^(n-1); a list of
    FpPoly, one per row.  monos is monomials_mod(k, p, n), built when None;
    it is only read.

    With D = Delta^m Etilde_k, m = m(k), the monomial D j^t is row m - t of
    monomials_mod(k, p, n): it starts with q^(m - t), coefficient 1.  So
    f = D F(f, j) is peeled in one elimination over all rows at once: step
    i = 0, ..., m reads the coefficient of q^i of what is left as that of
    x^(m - i) and subtracts that multiple of monomial row i.  This is the
    peel of the top power of j from f / D, multiplied through by D, so no
    series is divided.  A residue left anywhere on the window falsifies
    that the row is a form of weight k: NonPolynomialQuotientError.
    PrecisionError unless n >= v + m + 2 for the largest row valuation v;
    OverflowError, before any arithmetic, when an int64 sum could wrap.
    """
    forms = np.asarray(forms, dtype=np.int64)
    rows, n = forms.shape
    m = weight_profile(k).m
    nonzero = forms != 0
    if not nonzero.any(axis=1).all():
        raise ValueError("cannot extract the divisor polynomial of 0")
    top = int(nonzero.argmax(axis=1).max())
    if n < top + m + 2:
        raise PrecisionError(
            f"need precision >= valuation + m(k) + 2 = {top + m + 2}, "
            f"have {n}")
    if not int64_sums_fit(2, p):
        raise OverflowError(f"modulus {p} too large for int64 row operations")
    if monos is None:
        monos = monomials_mod(k, p, n)
    elif monos.shape != (m + 1, n):
        raise ValueError(f"monomial rows of shape {monos.shape}, need "
                         f"{(m + 1, n)}")
    residue = forms.copy()
    coeffs = np.zeros((rows, m + 1), dtype=np.int64)
    for i in range(m + 1):
        c = residue[:, i].copy()
        coeffs[:, m - i] = c
        residue[:, i:] = (residue[:, i:] - c[:, None] * monos[i, i:]) % p
    left = residue.any(axis=1)
    if left.any():
        row = int(left.argmax())
        raise NonPolynomialQuotientError(
            f"row {row}: residual series nonzero at "
            f"q^{int(residue[row].nonzero()[0][0])}")
    return [FpPoly(p, c) for c in coeffs]


def divisor_expansion(poly, k, terms):
    """The head of the weight-k form f = D F(j), D = Delta^m Etilde_k, of
    the divisor polynomial F = poly over F_p, the inverse of
    divisor_polynomials on a head: (residues of q^v .. q^(v + terms - 1),
    v), v = m - deg F = ord f.  D j^t is monomial m - t, q^(m - t) + ..., so
    only the top `terms` coefficients of F and the heads of monomials
    v .. v + terms - 1 count (_monomial_rows): the head is one product
    (linalg.exact_matmul) of those coefficients with the monomial rows,
    row r shifted to q^(v + r).  ValueError unless 0 <= deg F <= m."""
    p, d = poly.p, poly.degree()
    m = weight_profile(k).m
    if not 0 <= d <= m:
        raise ValueError(f"degree {d} is no divisor polynomial of weight {k}")
    count = min(terms, d + 1)
    v = m - d
    rows = _monomial_rows(k, p, terms, v, count)
    shifted = np.zeros_like(rows)
    for r in range(count):
        shifted[r, r:] = rows[r, :terms - r]
    head = exact_matmul(poly.coeffs[::-1][:count], shifted) % p
    return head.astype(np.int64), v


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


def _series_power(a, e, p, n):
    """a^e mod (p, q^n) by square-and-multiply, for residues a (a[0] = 1)."""
    out = np.zeros(n, dtype=np.int64)
    out[0] = 1
    while e:
        if e & 1:
            out = convolve_mod(out, a, p, n)
        e >>= 1
        if e:
            a = convolve_mod(a, a, p, n)
    return out


def _monomial_rows(k, p, terms, first, count):
    """Residues of q^i .. q^(i + terms - 1) of the level-1 monomials
    Delta^i E_4^(a - 3i) E_6^b of weight k, i = first .. first + count - 1,
    as the rows of an int64 array.  1/j = Delta / E_4^3 = q u, u a unit, so
    monomial i is q^i E_4^a E_6^b u^i: row 0 is a power of E_4, times E_6
    when b = 1, times one power of u, and each later row is one product by
    u at the same precision."""
    b = k % 4 // 2
    e4, e6, dl = _e4_e6_delta(terms + 1, p)
    e4, e6 = e4[:terms], e6[:terms]
    e4_cubed = convolve_mod(convolve_mod(e4, e4, p, terms), e4, p, terms)
    u = convolve_mod(dl[1:], inverse_mod_xn(e4_cubed, p, terms), p, terms)
    out = np.empty((count, terms), dtype=np.int64)
    out[0] = _series_power(e4, (k - 6 * b) // 4, p, terms)
    if b:
        out[0] = convolve_mod(out[0], e6, p, terms)
    if first:
        out[0] = convolve_mod(out[0], _series_power(u, first, p, terms), p,
                              terms)
    for r in range(count - 1):
        out[r + 1] = convolve_mod(out[r], u, p, terms)
    return out


def monomials_mod(k, p, prec):
    """Residues mod p of q^0 .. q^(prec-1) of the level-1 monomials
    Delta^i E_4^(a - 3i) E_6^b of weight k, i = 0, ..., m(k), as the rows of
    an int64 array (_monomial_rows, shifted to q^i); row i is
    q^i + O(q^(i+1)), and equals D j^(m - i) for D = Delta^m Etilde_k."""
    m = weight_profile(k).m
    if m < 0:
        raise ValueError(f"M_{k} is zero")
    heads = _monomial_rows(k, p, prec, 0, m + 1)
    out = np.zeros_like(heads)
    for i in range(min(m + 1, prec)):
        out[i, i:] = heads[i, :prec - i]
    return out


def miller_basis_mod(k, p, prec, monos=None):
    """Miller basis of M_k reduced mod p: an int64 array of shape
    (d + 1, n), n = max(prec, d + 2), d = m(k), whose row i holds the
    residues of q^0, q^1, ... of h_i = q^i + O(q^(d+1)).  monos is
    monomials_mod(k, p, n), built when None; the basis is built on a copy.

    The monomial rows (monomials_mod) are unit upper triangular on the columns
    0..d, so one back-substitution, from the last row up, clears the
    columns above the diagonal, one product (linalg.exact_matmul) per row.
    """
    if k < 4 or k % 2:
        raise ValueError("need even weight k >= 4")
    d = weight_profile(k).m
    n = max(prec, d + 2)
    if monos is None:
        basis = monomials_mod(k, p, n)
    elif monos.shape != (d + 1, n):
        raise ValueError(f"monomial rows of shape {monos.shape}, need "
                         f"{(d + 1, n)}")
    else:
        basis = monos.copy()
    for i in range(d - 1, -1, -1):
        basis[i] = (basis[i]
                    - exact_matmul(basis[i, i + 1:d + 1], basis[i + 1:])) % p
    return basis


#: C_p(k; x) = x^a (x - 1728)^b as (a, b), keyed on (k mod 12, p mod 12);
#: every other key gives C_p = 1
_CP_EXPONENTS = {(2, 5): (1, 0), (8, 5): (1, 0), (8, 11): (1, 0),
                 (2, 7): (0, 1), (6, 7): (0, 1), (10, 7): (0, 1),
                 (6, 11): (0, 1), (10, 11): (0, 1), (2, 11): (1, 1)}


def cp_exponents(k, p):
    """Exponents (a, b) of C_p(k; x) = x^a (x - 1728)^b (cp_factor)."""
    if p < 5:
        raise ValueError("p must be at least 5")
    return _CP_EXPONENTS.get((k % 12, p % 12), (0, 0))


def cp_factor(k, p):
    """Correction factor C_p(k; x) governing how divisor polynomials change
    under multiplication by E_{p-1} mod p, keyed on (k, p) modulo 12."""
    a, b = cp_exponents(k, p)
    return FpPoly.x(p) ** a * FpPoly.linear(p, 1728) ** b


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


def gp_product_exponents(g, p):
    """Exponents (a, b) of the accumulated correction
    gp = prod_s C_p(2g(g+p) + (g^2-g-s)(p-1); x) = x^a (x - 1728)^b.

    The product form is summed factor by factor (cp_exponents), and a
    mismatch against the closed form gp_exponents would mean cp_factor is
    wrong and raises ClosedFormMismatchError; no polynomial is formed.
    """
    if g < 2:
        raise ValueError("g must be at least 2")
    prod_x = prod_1728 = 0
    base = 2 * g * (g + p)
    for s in range(1, g * g - g + 1):
        a, b = cp_exponents(base + (g * g - g - s) * (p - 1), p)
        prod_x += a
        prod_1728 += b
    a, b = gp_exponents(g, p)
    if (prod_x, prod_1728) != (a, b):
        raise ClosedFormMismatchError(
            f"product and closed forms differ for g={g}, p={p}: "
            f"{(prod_x, prod_1728)} vs {(a, b)}")
    return a, b


def gp_poly(g, p):
    """The accumulated correction gp = x^a (x - 1728)^b as a polynomial,
    (a, b) from gp_product_exponents."""
    a, b = gp_product_exponents(g, p)
    return FpPoly.x(p) ** a * FpPoly.linear(p, 1728) ** b


_SQUARE_FACTORS = {0: (0, 0), 2: (1, 1), 4: (0, 0), 6: (0, 1), 8: (1, 0), 10: (0, 1)}


def square_divisor_exponents(k):
    """(a, b) with F(f^2, x) = x^a (x-1728)^b F(f, x)^2 for f of weight k."""
    return _SQUARE_FACTORS[k % 12]


def square_divisor_relation(f, ctx=None):
    """Check F(f^2, x) against x^a (x-1728)^b F(f, x)^2 for a QExpansion f.

    Returns (ok, direct, expected) where direct is the divisor polynomial
    of f^2 and expected the case-formula product.
    """
    a, b = square_divisor_exponents(f.weight)
    direct = divisor_polynomial(f * f, ctx)
    base = divisor_polynomial(f, ctx)
    expected = np.convolve(base, base)
    for _ in range(a):
        expected = np.convolve(expected, [0, 1])
    for _ in range(b):
        expected = np.convolve(expected, [-1728, 1])
    expected = expected.tolist()
    return expected == direct, direct, expected
