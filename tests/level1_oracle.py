"""The per-form `FpSeries` routes to the Miller basis mod p, the level-1 lifts
and the divisor polynomials over F_p, kept as oracles for the residue-matrix
routes of `wplus.level1` and `wplus.weierstrass`.

Each Miller monomial Delta^i E_4^a E_6^b is formed from scratch by series
products and echelonized by series subtractions; each lift is a sum of
scaled Miller series; each divisor polynomial divides by Delta^m Etilde as a
Laurent series and peels powers of j = E_4^3 / Delta.  They share with the
package only the residues of E_4, E_6 and Delta (`_e4_e6_delta`), which
`test_level1` checks against the Jacobi product and the rational route.
"""

from wplus.errors import NoLiftError, NonPolynomialQuotientError, PrecisionError
from wplus.fppoly import FpPoly
from wplus.level1 import _e4_e6_delta, weight_profile
from wplus.series import FpSeries, QExpansion


def level1_series(prec, p):
    """E_4, E_6 and Delta reduced mod p, as FpSeries of precision prec."""
    return tuple(FpSeries(p, c, 0, prec, weight=k)
                 for c, k in zip(_e4_e6_delta(prec, p), (4, 6, 12)))


def series_miller_basis(k, p, prec):
    """Miller basis h_0, ..., h_d of M_k reduced mod p, as FpSeries."""
    d = weight_profile(k).m
    prec = max(prec, d + 2)
    e4, e6, dl = level1_series(prec, p)
    dpow = FpSeries.one(p, prec)
    monos = []
    for i in range(d + 1):
        rem = k - 12 * i
        b = 1 if rem % 4 else 0
        mono = dpow * e4 ** ((rem - 6 * b) // 4)
        if b:
            mono = mono * e6
        monos.append(FpSeries(p, mono.coeffs, mono.valuation, mono.precision,
                              k))
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


def series_lift(f, p, miller_cusp):
    """The weight-(p+1) lift of one weight-2 form f: sum_t a_t(f) h_t over
    the Miller cusp series h_1, ..., h_d; NoLiftError unless it agrees with
    f through the shared precision."""
    if isinstance(f, QExpansion):
        f = f.reduce_mod(p)
    prec = min(f.precision, min(h.precision for h in miller_cusp))
    lift = FpSeries.zero(p, prec, weight=p + 1)
    for t, h in enumerate(miller_cusp, start=1):
        c = f.coefficient(t)
        if c:
            lift = lift + h.truncate(prec).scale(c)
    if not lift.agrees_with(f, upto=prec):
        raise NoLiftError("residual nonzero")
    return lift


def series_divisor_polynomial(f):
    """F(f, x) of an FpSeries f of weight f.weight and leading coefficient 1,
    by Laurent division by Delta^m Etilde and peeling powers of j."""
    p, k = f.p, f.weight
    m = weight_profile(k).m
    a, b = weight_profile(k).etilde_exponents
    if f.precision < f.valuation + m + 2:
        raise PrecisionError("window too short")
    e4, e6, dl = level1_series(f.precision - f.valuation + m + 2, p)
    quotient = f / (dl ** m * e4 ** a * e6 ** b)
    j = e4 ** 3 / dl
    jpow = [dl / dl, j]
    deg = -quotient.valuation
    coeffs = [0] * (deg + 1) if deg >= 0 else []
    residue = quotient
    for t in range(deg, -1, -1):
        while len(jpow) <= t:
            jpow.append(jpow[-1] * j)
        c = residue.coefficient(-t)
        if c:
            coeffs[t] = c
            residue = residue - jpow[t].scale(c)
    if not residue.is_zero():
        raise NonPolynomialQuotientError(
            f"residual series nonzero at q^{residue.valuation}")
    return FpPoly(p, coeffs)
