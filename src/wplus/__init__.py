"""Weierstrass points on the Atkin-Lehner quotient of X_0(p), mod p.

For a prime p the package computes the reduced echelon basis of the
w_p-invariant weight-2 cusp forms, the supersingular polynomial and its
linear/quadratic split, the Hilbert class polynomials attached to the
w_p-fixed points, and the divisor polynomial F_p(x) of the Weierstrass
points of the quotient curve, verifying the congruence

    F_p(x) = S_q(x)^{g(g-1)} * H(x)^2  (mod p)

together with every identity used along the way.  Everything is exact:
integer arithmetic for the modular symbols and the good basis (numerator
rows over one denominator per form), int64 residue arrays and F_p[x] for
the mod-p chain, and big floats only inside the class-polynomial
evaluation (with verified integer rounding).  The rational q-expansions
(QExpansion) and the F_p series (FpSeries) serve the tests, their oracles
and the level-1 forms over Q; the pipeline builds neither, nor a Fraction.
So `import wplus` loads neither `fractions` nor `series`: the Q routes of
linalg and level1 import them on their first call, and wplus.series,
wplus.QExpansion and wplus.FpSeries resolve on first access.
"""

import importlib

from .config import Config
from .errors import WplusError
from .fppoly import FpPoly, is_prime, legendre
from .level1 import (bernoulli, cp_factor, delta, divisor_polynomial,
                     eisenstein, gp_poly, j_function, miller_basis,
                     square_divisor_relation, weight_profile)
from .modsym import GoodBasis, ModSymSpace, good_basis
from .pipeline import scan_primes, verify_prime
from .report import VerificationReport
from .supersingular import (ClassPolyData, SupersingularSplit, class_number,
                            class_poly, fixed_point_poly, reduced_forms,
                            ss_oracle, ss_polys, verify_fixedlinear)
from .weierstrass import (elliptic_exponents, extract_Fp, lift_to_level1,
                          theta, wronskian)

__version__ = "0.1.0"


def __getattr__(name):
    # PEP 562: the series module loads on the first access to it
    if name in ("series", "QExpansion", "FpSeries"):
        series = importlib.import_module(f"{__name__}.series")
        return series if name == "series" else getattr(series, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Config", "WplusError", "FpPoly", "is_prime", "legendre", "bernoulli",
    "cp_factor", "delta", "divisor_polynomial", "eisenstein", "gp_poly",
    "j_function", "miller_basis", "square_divisor_relation", "weight_profile",
    "GoodBasis", "ModSymSpace", "good_basis",
    "scan_primes", "verify_prime", "VerificationReport", "FpSeries",
    "QExpansion", "ClassPolyData", "SupersingularSplit",
    "class_number", "class_poly", "fixed_point_poly", "reduced_forms",
    "ss_oracle", "ss_polys", "verify_fixedlinear", "elliptic_exponents",
    "extract_Fp", "lift_to_level1", "theta", "wronskian",
]
