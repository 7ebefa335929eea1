"""Factorization over F_p by the route the package used before the Frobenius
matrix, kept as an oracle for it: distinct-degree splitting with one
pow_mod(p) and one full gcd per degree, and Cantor-Zassenhaus equal-degree
splitting with a pow_mod by (p^d - 1)/2 per attempt.

It shares squarefree decomposition and the F_p[x] arithmetic (pow_mod, gcd,
exact division) with the package, and none of `fppoly.Frobenius`.
"""

import random

from wplus.fppoly import FpPoly


def distinct_degree(f):
    """On a monic squarefree f: list of (product of degree-d factors, d)."""
    p = f.p
    out = []
    h = FpPoly.x(p)
    d = 0
    while f.degree() > 2 * (d + 1) - 1 and f.degree() > 0:
        d += 1
        h = h.pow_mod(p, f)
        g = f.gcd(h - FpPoly.x(p))
        if g.degree() > 0:
            out.append((g, d))
            f = f.exact_div(g)
            h = h % f
    if f.degree() > 0:
        out.append((f, f.degree()))
    return out


#: attempts in a row that split nothing before equal_degree gives up
MAX_STALLS = 200


def equal_degree(f, d, rng):
    """Cantor-Zassenhaus split of a monic squarefree product of degree-d
    irreducibles (p odd).  ValueError when f is no such product: its degree
    is not a multiple of d, or MAX_STALLS attempts split nothing."""
    p = f.p
    if f.degree() % d:
        raise ValueError(f"degree {f.degree()} is not a multiple of {d}")
    if f.degree() == d:
        return [f]
    exp = (p ** d - 1) // 2
    for _ in range(MAX_STALLS):
        a = FpPoly(p, [rng.randrange(p) for _ in range(f.degree())])
        if a.degree() < 1:
            continue
        g = f.gcd(a)
        if not 0 < g.degree() < f.degree():
            g = f.gcd(a.pow_mod(exp, f) - FpPoly.one(p))
            if not 0 < g.degree() < f.degree():
                continue
        return equal_degree(g, d, rng) + equal_degree(f.exact_div(g), d, rng)
    raise ValueError(f"no split in {MAX_STALLS} attempts: not a product of "
                     f"degree-{d} irreducibles")


def factor(f, rng=None):
    """(monic irreducible, multiplicity) pairs of f, sorted by degree and
    coefficients, as FpPoly.factor returns them."""
    if rng is None:
        rng = random.Random(0)
    out = []
    for g, e in f.squarefree_decomposition():
        for h, d in distinct_degree(g):
            out.extend((q, e) for q in equal_degree(h, d, rng))
    out.sort(key=lambda qe: (qe[0].degree(), tuple(int(c) for c in qe[0].coeffs)))
    return out
