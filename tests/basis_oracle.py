"""The `Fraction` route to the good basis, kept as an oracle for the integer
numerator rows of `BasisComputer.basis` and for the cache codec.

It starts from the same Krylov columns and the same scaled inverse K of the
pivot block, and builds one `Fraction` per coefficient, (K span)[i, n] / k
at q^(n+1), and one `QExpansion` per form;
the payload is written from those Fractions, "numerator/denominator" each.
`basis_forms` views a GoodBasis the same way, one QExpansion per form.
"""

from fractions import Fraction

import numpy as np

from wplus.modsym import _PAYLOAD_VERSION
from wplus.series import QExpansion


def basis_forms(basis):
    """The forms of a GoodBasis as QExpansions over Fraction: num[i, n] /
    den[i] at q^n."""
    return [QExpansion([Fraction(int(c), d) for c in row], 0,
                       basis.precision, weight=2, level=basis.p)
            for row, d in zip(basis.num, basis.den)]


def fraction_forms(bc, prec):
    """The good basis of the BasisComputer bc at precision prec, as one
    QExpansion over Fraction per form."""
    if bc.g == 0:
        return []
    bc._extend(prec)
    span = np.array(bc._cols[:prec - 1]).T[bc.rows].astype(object)
    red = np.array(bc._kinv, dtype=object) @ span
    return [QExpansion([0] + [Fraction(int(v), bc._k) for v in row],
                       0, prec, weight=2, level=bc.p)
            for row in red]


def fraction_payload(bc, prec):
    """The good_basis cache payload of fraction_forms(bc, prec)."""
    forms = fraction_forms(bc, prec)
    return {
        "version": _PAYLOAD_VERSION,
        "p": bc.p,
        "g": bc.g,
        "genus_x0": bc.space.genus,
        "pivots": [c + 1 for c in bc._pivots] if forms else [],
        "precision": prec if forms else 0,
        "p_integral": all(f.is_p_integral(bc.p) for f in forms),
        "coefficients": [[f"{c.numerator}/{c.denominator}"
                          for c in f.coefficients(prec)] for f in forms],
    }
