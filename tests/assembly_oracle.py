"""The congruence chain's last step by the long route, the oracle of H in
weierstrass.extract_Fp and of the closed form weierstrass.theorem_assembly.

squared_route forms F(W) from the basis, then
num = gp x^delta_rho (x - 1728)^delta_i F(W)^2 and
den = x^eps_rho (x - 1728)^eps_i E^(g^2+g) S~_l^(2g), divides num by den
exactly, takes H as the square root of the quotient (FpPoly.sqrt), and
forms F_W~ = S~^(g^2-g) num, the divisor polynomial of the averaged
Wronskian.  expanded_assembly forms S_l^(g^2+g) and the left side of

    x^eps_rho (x - 1728)^eps_i F_p S_l^(g^2+g) = F_W~

from the report's F_p = S_q^(g^2-g) H^2, so it shares none of the closed
form's three identities.
"""

from wplus.fppoly import FpPoly
from wplus.level1 import gp_poly
from wplus.weierstrass import (elliptic_exponents, lift_to_level1,
                               wronskian_divisor_polynomial)


def squared_route(basis, split):
    """(H, F_W~) for a p-integral basis of genus g >= 2 and its split, by
    the squared route; InexactDivisionError or OddMultiplicityError when
    num / den is no polynomial or no square."""
    p, g = basis.p, basis.g
    exps = elliptic_exponents(p, g)
    fw, _ = wronskian_divisor_polynomial(
        lift_to_level1(basis.residues(), p), p)
    x, x1728 = FpPoly.x(p), FpPoly.linear(p, 1728)
    num = (gp_poly(g, p) * x ** exps.delta_rho * x1728 ** exps.delta_i
           * fw * fw)
    elliptic = x ** exps.alpha_rho * x1728 ** exps.alpha_i
    den = (x ** exps.eps_rho * x1728 ** exps.eps_i
           * elliptic ** (g * g + g) * split.S_tilde_l ** (2 * g))
    return num.exact_div(den).sqrt(), split.S_tilde ** (g * g - g) * num


def expanded_assembly(report, split, f_wtilde):
    """Whether the expanded identity holds for a chain report of genus
    g >= 2 that reached F_p, the split it was run with, and F_W~ from
    squared_route."""
    p, g = report.p, report.g_plus
    exps = elliptic_exponents(p, g)
    lhs = (FpPoly.x(p) ** exps.eps_rho * FpPoly.linear(p, 1728) ** exps.eps_i
           * report.polys["F_p"] * split.S_l ** (g * (g + 1)))
    return lhs == f_wtilde
