"""Supersingular polynomials and CM class polynomials.

The production route computes the supersingular polynomial S_p from level-1
residues mod p: E_{p-1} reduces to the constant series 1 mod p (von
Staudt-Clausen puts exactly one factor p in the denominator of B_{p-1}), and
the divisor polynomial of its residue row (level1.divisor_polynomials) is
the supersingular polynomial with the j = 0, 1728 factors removed.  The
elliptic factors are restored from the classical membership criteria
(j = 0 supersingular iff p = 2 mod 3, j = 1728 iff p = 3 mod 4), and the
linear part is split off with gcd(S_p, x^p - x).

An independent oracle recomputes S_p for small p from first principles:
point counts over F_p for the linear part, and the Hasse polynomial in the
Legendre parameter, eliminated against the lambda-to-j cover by a resultant,
for the full polynomial.

Hilbert class polynomials are computed by enumerating reduced binary
quadratic forms and evaluating j at the CM points with mpmath big floats,
with precision escalation until the rounding residual is small.  mpmath is
imported on the first evaluation, so a run that reads its class polynomials
from the cache, or never needs one, does not load it.  Each form
sums the q-series of j to the length its own |q| = exp(-pi sqrt(D)/a)
needs, and the form (a, b, c) takes the complex conjugate of the j-value of
(a, -b, c).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (BoundExceededError, InexactDivisionError,
                     PrecisionExhaustedError, SplitDegreeMismatchError)
from .fppoly import FpPoly
from .level1 import divisor_polynomials, j_function, weight_profile
from .linalg import exact_matmul

#: upper bound for the point-counting oracle; the pipeline runs it up to here
ORACLE_BOUND = 103
#: class_poly doubles its working precision up to this factor times the start
_MAX_PRECISION_FACTOR = 16


@dataclass
class SupersingularSplit:
    """Supersingular polynomial of F_p and its standard factors.

    S_p = S_l * S_q where S_l collects the roots in F_p and S_q the
    conjugate quadratic pairs; S_tilde drops the elliptic j-invariants
    0 and 1728, and alpha_rho/alpha_i in {0,1} record whether those two
    are supersingular.
    """

    p: int
    S_p: FpPoly
    S_l: FpPoly
    S_q: FpPoly
    S_tilde: FpPoly
    S_tilde_l: FpPoly
    alpha_rho: int
    alpha_i: int


def factor_degrees(f):
    """The set of degrees of the irreducible factors of a nonzero f, by
    distinct-degree splitting of each squarefree part (no factor is split
    out)."""
    return {d for g, _ in f.squarefree_decomposition()
            for _, d in g.distinct_degree()}


def ss_polys(p):
    """Supersingular split of the prime p >= 5.

    E_{p-1} reduces mod p to the constant series 1: B_{p-1} has p-adic
    valuation -1 (von Staudt-Clausen), so every positive q-coefficient
    -2(p-1)/B_{p-1} * sigma(n) of E_{p-1} is divisible by p.  S_tilde is
    the divisor polynomial of its residue row [1, 0, ..., 0], of m(p-1) + 4
    terms.  S_q is checked to split into quadratics by factor_degrees,
    without factoring it; the least other degree is named in
    SplitDegreeMismatchError.
    """
    if p < 5:
        raise ValueError("p must be a prime >= 5")
    e_pm1 = np.zeros((1, weight_profile(p - 1).m + 4), dtype=np.int64)
    e_pm1[0, 0] = 1
    s_tilde = divisor_polynomials(e_pm1, p - 1, p)[0]
    alpha_rho = 1 if p % 3 == 2 else 0
    alpha_i = 1 if p % 4 == 3 else 0
    s_p = s_tilde
    if alpha_rho:
        s_p = s_p * FpPoly.x(p)
    if alpha_i:
        s_p = s_p * FpPoly.linear(p, 1728)
    # linear part: roots in F_p, i.e. gcd with x^p - x
    xp = FpPoly.x(p).pow_mod(p, s_p)
    s_l = s_p.gcd(xp - FpPoly.x(p))
    s_q = s_p.exact_div(s_l)
    if s_q.degree() % 2:
        raise SplitDegreeMismatchError("quadratic part has odd degree")
    other = factor_degrees(s_q) - {2}
    if other:
        raise SplitDegreeMismatchError(
            f"quadratic part has an irreducible factor of degree {min(other)}")
    s_tilde_l = s_l
    if alpha_rho:
        s_tilde_l = s_tilde_l.exact_div(FpPoly.x(p))
    if alpha_i:
        s_tilde_l = s_tilde_l.exact_div(FpPoly.linear(p, 1728))
    return SupersingularSplit(p, s_p, s_l, s_q, s_tilde, s_tilde_l,
                              alpha_rho, alpha_i)


# -- independent oracle --------------------------------------------------------

def _curve_for_j(j, p):
    """Short Weierstrass coefficients (a4, a6) of a curve with j-invariant j."""
    j %= p
    if j == 0:
        return 0, 1
    if j == 1728 % p:
        return 1, 0
    k = j * pow((1728 - j) % p, -1, p) % p
    return 3 * k % p, 2 * k % p


def is_supersingular_by_counting(j, p):
    """Point count test: E/F_p is supersingular iff #E(F_p) = p + 1."""
    a4, a6 = _curve_for_j(j, p)
    chi = np.full(p, -1, dtype=np.int64)
    chi[(np.arange(p, dtype=np.int64) ** 2) % p] = 1
    chi[0] = 0
    x = np.arange(p, dtype=np.int64)
    vals = (x * x % p * x + a4 * x + a6) % p
    return int(chi[vals].sum()) == 0


def hasse_polynomial(p):
    """sum_i binom(m, i)^2 lambda^i mod p with m = (p-1)/2; its roots are the
    supersingular Legendre parameters."""
    m = (p - 1) // 2
    c = np.zeros(m + 1, dtype=np.int64)
    b = 1
    for i in range(m + 1):
        c[i] = b * b % p
        b = b * (m - i) % p * pow(i + 1, -1, p) % p
    return FpPoly(p, c)


def ss_oracle(p):
    """Supersingular polynomial of p computed independently of any modular
    forms machinery.

    The Hasse polynomial H(lambda) is eliminated against the degree-6 cover
    j * lambda^2 (1-lambda)^2 = 256 (lambda^2 - lambda + 1)^3 by evaluating
    the resultant in lambda at deg-many j values and interpolating; the
    multiplicity artifacts of the cover are removed by taking the squarefree
    part, and membership of j = 0, 1728 is corrected by direct point counts.
    Primes above ORACLE_BOUND raise BoundExceededError.
    """
    if p > ORACLE_BOUND:
        raise BoundExceededError(f"oracle bound is {ORACLE_BOUND}, got {p}")
    if p < 5:
        raise ValueError("p must be a prime >= 5")
    h = hasse_polynomial(p)
    m = h.degree()
    # cover numerator 256 (l^2 - l + 1)^3 and j-coefficient -l^2 (1-l)^2
    lam = FpPoly.x(p)
    one = FpPoly.one(p)
    cov_const = (lam * lam - lam + one) ** 3 * 256
    cov_j = lam * lam * (one - lam) ** 2
    points = []
    values = []
    for j0 in range(m + 1):
        g = cov_const - cov_j * j0
        points.append(j0)
        values.append(h.resultant(g))
    rpoly = _lagrange_interpolate(points, values, p)
    s = rpoly.monic()
    s = s.exact_div(s.gcd(s.derivative()))
    # correct membership of the elliptic j-invariants by point counting
    for j0 in (0, 1728 % p):
        lin = FpPoly.linear(p, j0)
        while (s % lin).is_zero():
            s = s.exact_div(lin)
        if is_supersingular_by_counting(j0, p):
            s = s * lin
    # cross-check the linear part against raw point counts
    linear_roots = [j0 for j0 in range(p) if is_supersingular_by_counting(j0, p)]
    s_l = FpPoly.from_roots(p, linear_roots)
    xp = FpPoly.x(p).pow_mod(p, s)
    if s.gcd(xp - FpPoly.x(p)) != s_l:
        raise SplitDegreeMismatchError(
            "oracle resultant and point counts disagree on the linear part")
    return s


def _lagrange_interpolate(xs, ys, p):
    """Interpolating polynomial through (xs[i], ys[i]) over F_p, for
    distinct xs.

    The master polynomial M = prod (x - x_k) is formed once.  The numerator
    M / (x - x_i) of each Lagrange basis polynomial is one exact synthetic
    division of M, run for all i at once, and its value at x_i is the
    denominator; the interpolant is one product (linalg.exact_matmul) of
    the weights y_i / den_i with the numerators.
    """
    n = len(xs)
    x = np.array(xs, dtype=np.int64) % p
    master = FpPoly.from_roots(p, xs).coeffs
    # nums[i] = M / (x - x_i), low degree first; M is monic
    nums = np.zeros((n, n), dtype=np.int64)
    nums[:, n - 1] = 1
    for k in range(n - 1, 0, -1):
        nums[:, k - 1] = (master[k] + x * nums[:, k]) % p
    if ((master[0] + x * nums[:, 0]) % p).any():
        raise InexactDivisionError("an interpolation node is no root of M")
    dens = np.zeros(n, dtype=np.int64)
    for k in range(n - 1, -1, -1):
        dens = (dens * x + nums[:, k]) % p
    weights = np.array([y * pow(int(d), -1, p) % p
                        for y, d in zip(ys, dens)], dtype=np.int64)
    return FpPoly(p, exact_matmul(weights, nums) % p)


# -- class polynomials ---------------------------------------------------------

@dataclass
class ClassPolyData:
    """Hilbert class polynomial of discriminant -D with its reduced forms."""

    D: int
    h: int
    reduced_forms: list
    H_D: list  # integer coefficients, low degree first, monic
    float_precision_bits: int = 0


def reduced_forms(D):
    """Primitive reduced forms (a, b, c) of discriminant -D: gcd(a,b,c) = 1,
    b^2 - 4ac = -D, |b| <= a <= c, and b >= 0 when |b| = a or a = c.
    Their count is the class number h(-D)."""
    if D <= 0 or (-D) % 4 not in (0, 1):
        raise ValueError("need -D = 0 or 1 mod 4, D > 0")
    forms = []
    b = D % 2
    while 3 * b * b <= D:
        m = (b * b + D) // 4
        a = max(b, 1)
        while a * a <= m:
            if m % a == 0:
                c = m // a
                if math.gcd(math.gcd(a, b), c) == 1:
                    if b == 0 or a == b or a == c:
                        forms.append((a, b, c))
                    else:
                        forms.append((a, b, c))
                        forms.append((a, -b, c))
            a += 1
        b += 2
    forms.sort()
    return forms


def class_number(D):
    return len(reduced_forms(D))


def _qsize_bits(D, forms):
    """Sum over the forms of log2 |1/q(tau)| = pi sqrt(D) / (a ln 2): since
    |j(tau)| is about |1/q|, this estimates log2 |H_D(0)|, the bit size of
    the largest coefficient (within 2 bits for D = 268, 796, 199, 1556 and
    2404)."""
    return sum(math.pi * math.sqrt(D) / (a * math.log(2)) for a, _, _ in forms)


def _start_bits(D, forms):
    """Heuristic starting precision: 3.5/h times the total bit size of the
    per-form q-parameters, plus a fixed floor."""
    return 64 + math.ceil(3.5 * _qsize_bits(D, forms) / len(forms))


def _j_coefficients(nterms):
    """Integer q-coefficients of j, from q^{-1} on, cached and extended."""
    cache = _j_coefficients.cache
    if len(cache) < nterms:
        cache[:] = j_function(nterms)
    return cache[:nterms]


_j_coefficients.cache = []


def class_poly(D, cache=None):
    """Hilbert class polynomial of discriminant -D by CM evaluation.

    j is evaluated at tau = (-b + sqrt(-D))/(2a) for every reduced form via
    its q-expansion in mpmath arithmetic; the product of (x - j(tau)) is
    rounded to integers and the residual must stay below 0.01, doubling the
    working precision (up to _MAX_PRECISION_FACTOR times the start)
    otherwise.  Rungs below the estimated bit size of the largest
    coefficient cannot round it, so the doubling starts past them.
    """
    if cache is not None:
        payload = cache.get("class_poly", str(D))
        if payload is not None:
            return ClassPolyData(
                payload["D"], payload["h"],
                [tuple(f) for f in payload["reduced_forms"]],
                [int(c) for c in payload["H_D"]],
                payload["float_precision_bits"])
    # imported on a cache miss only (module docstring)
    import mpmath

    forms = reduced_forms(D)
    h = len(forms)
    bits = _start_bits(D, forms)
    start = bits
    size = _qsize_bits(D, forms)
    while bits < size and bits < start * _MAX_PRECISION_FACTOR:
        bits *= 2
    while True:
        with mpmath.workprec(bits):
            coeffs = _class_poly_attempt(D, forms, bits)
        if coeffs is not None:
            data = ClassPolyData(D, h, forms, coeffs, bits)
            if cache is not None:
                cache.put("class_poly", str(D), {
                    "D": D, "h": h,
                    "reduced_forms": [list(f) for f in forms],
                    "H_D": [str(c) for c in coeffs],
                    "float_precision_bits": bits,
                })
            return data
        if bits >= start * _MAX_PRECISION_FACTOR:
            raise PrecisionExhaustedError(
                f"rounding failed for D={D} at {bits} bits")
        bits *= 2


def _j_terms(D, a, bits):
    """Terms of the j-series, from q^-1 on, that bring |c_n q^n| below
    2^-(bits + 20) at a form with first coefficient a, where
    |q| = exp(-pi sqrt(D) / a)."""
    worst = math.pi * math.sqrt(D) / a
    n = 8
    while 4 * math.pi * math.sqrt(n) - worst * n > -(bits + 20) * math.log(2):
        n += 8
    return n + 2


def _class_poly_attempt(D, forms, bits):
    """Coefficients of prod (x - j(tau)) over the forms, rounded, or None
    when a residual reaches 0.01.  Each form sums the j-series to its own
    length; (a, b, c) and (a, -b, c) give tau and -conj(tau), so the second
    j-value is the conjugate of the first."""
    import mpmath

    sqrtD = mpmath.sqrt(D)
    cj = _j_coefficients(max(_j_terms(D, a, bits) for a, _, _ in forms))
    jvals = {}
    poly = [mpmath.mpc(1)]
    for a, b, c in forms:
        if (a, -b, c) in jvals:
            jval = mpmath.conj(jvals[a, -b, c])
        else:
            tau = (-b + sqrtD * 1j) / (2 * a)
            q = mpmath.exp(2j * mpmath.pi * tau)
            jval = mpmath.mpc(0)
            qpow = 1 / q
            for coeff in cj[:_j_terms(D, a, bits)]:
                jval += coeff * qpow
                qpow *= q
        jvals[a, b, c] = jval
        poly = [mpmath.mpc(0)] + poly
        for i in range(len(poly) - 1):
            poly[i] -= jval * poly[i + 1]
    out = []
    for z in poly:
        n_int = int(mpmath.nint(mpmath.re(z)))
        if abs(mpmath.re(z) - n_int) >= 0.01 or abs(mpmath.im(z)) >= 0.01:
            return None
        out.append(n_int)
    return out


def fixed_point_poly(p, cache=None):
    """Divisor polynomial of the Atkin-Lehner fixed points of X_0(p):
    the class polynomial of -4p, times the one of -p when p = 3 mod 4.
    Returns (integer coefficient list, degree sigma)."""
    if p < 5:
        raise ValueError("p must be >= 5")
    h4p = class_poly(4 * p, cache=cache).H_D
    if p % 4 == 3:
        hp = class_poly(p, cache=cache).H_D
        out = np.convolve(np.array(hp, dtype=object),
                          np.array(h4p, dtype=object)).tolist()
    else:
        out = h4p
    return out, len(out) - 1


def verify_fixedlinear(p, split=None, cache=None):
    """Check that the fixed-point polynomial reduces mod p to the square of
    the linear supersingular part, and that that part is squarefree.

    Returns (ok, H_p mod p as FpPoly, sigma).
    """
    if split is None:
        split = ss_polys(p)
    hp, sigma = fixed_point_poly(p, cache=cache)
    hp_mod = FpPoly(p, [c % p for c in hp])
    s_l = split.S_l
    squarefree = s_l.gcd(s_l.derivative()).is_one() if s_l.degree() > 0 else True
    ok = (hp_mod == s_l * s_l) and squarefree and sigma == 2 * s_l.degree()
    return ok, hp_mod, sigma
