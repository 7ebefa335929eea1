"""The assembled identity of the averaged Wronskian with every power formed,
the oracle of the closed form weierstrass.theorem_assembly:

    x^eps_rho (x - 1728)^eps_i F_p S_l^(g^2+g) = F_W~.

It reads the report's F_p = S_q^(g^2-g) H^2 and F_W~ = S~^(g^2-g) num
(f_wtilde),
and forms S_l^(g^2+g) and the left side, so it shares none of the closed
form's three identities.
"""

from wplus.fppoly import FpPoly
from wplus.weierstrass import elliptic_exponents


def expanded_assembly(report, split):
    """Whether the expanded identity holds for a chain report of genus
    g >= 2 that reached F_p, and the split it was run with."""
    p, g = report.p, report.g_plus
    exps = elliptic_exponents(p, g)
    lhs = (FpPoly.x(p) ** exps.eps_rho * FpPoly.linear(p, 1728) ** exps.eps_i
           * report.polys["F_p"] * split.S_l ** (g * (g + 1)))
    return lhs == report.f_wtilde
