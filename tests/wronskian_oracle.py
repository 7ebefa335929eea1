"""The q-series route to the divisor polynomial of the Wronskian of the
level-1 lifts, kept as an oracle for the j-line route of the chain; the
series route to the polynomial Wronskian W_x(P), kept as an oracle for its
evaluation-interpolation kernel; and the `Fraction` route to the exact
Wronskian head, kept as an oracle for its integer kernel.

The q-series route builds the good basis at sum(c) + m(k_W) + 2, a longer
window than the chain's (p + 1)//6 + 12; the lifts b_i are read off the
Miller cusp basis at that precision, one FpSeries per form
(`level1_oracle`), and their theta-Wronskian W (weight k_W = g(g + p),
valuation sum(c)) is then known far enough for the series peel of
`level1_oracle` to take off F(W, x), of degree m(k_W) - sum(c).
"""

from basis_oracle import basis_forms
from level1_oracle import (series_divisor_polynomial, series_lift,
                           series_miller_basis)
from wplus.errors import PrecisionError
from wplus.fppoly import FpPoly
from wplus.level1 import divisor_degree
from wplus.modsym import good_basis
from wplus.series import FpSeries
from wplus.weierstrass import _HEAD_TERMS, wronskian


def qseries_wronskian_divisor_polynomial(p, basis):
    """(F(W, x), leading coefficient of W) by the q-series route, for a good
    basis of S_2^+(p) with g >= 2 (built again here at the window it needs)."""
    g = basis.g
    prec = sum(basis.pivots) + divisor_degree(g * (g + p)) + 2
    cusp = series_miller_basis(p + 1, p, prec)[1:]
    lifts = [series_lift(f, p, cusp)
             for f in basis_forms(good_basis(p, prec))]
    det, lead = wronskian(lifts)
    return series_divisor_polynomial(det.scale(pow(lead, -1, p))), lead


def series_polynomial_wronskian(polys):
    """W_x(P) of polynomials P_1, ..., P_g over F_p through series.

    theta_x = x d/dx acts on the derivatives triangularly with diagonal x^r,
    so the theta-Wronskian of the P_j read as series in x is
    x^(g(g-1)/2) W_x(P).  Its degree is at most sum deg P_j, so series known
    through that degree determine it exactly.
    """
    p = polys[0].p
    n = sum(f.degree() for f in polys) + 1
    det, _ = wronskian([FpSeries(p, list(f.coeffs) + [0] * (n - len(f.coeffs)),
                                 0, n) for f in polys])
    if det.precision < n:
        raise PrecisionError(
            f"polynomial Wronskian known below x^{det.precision}, "
            f"its degree can reach {n - 1}")
    return FpPoly(p, det.coefficients(n)[len(polys) * (len(polys) - 1) // 2:])


def fraction_wronskian_head(basis):
    """The exact head of the theta-Wronskian of a good basis, each form cut
    at q^(c_j + K), K = _HEAD_TERMS, by Gaussian elimination over the
    Laurent series with `Fraction` coefficients (series_matrix_determinant)."""
    det, _ = wronskian([f.truncate(min(c + _HEAD_TERMS, f.precision))
                        for f, c in zip(basis_forms(basis),
                                        basis.pivots)])
    return det
