"""Independent Hecke oracle: the supersingular graph (Brandt matrix) method.

Nodes are the supersingular j-invariants over F_{p^2} (roots of the
supersingular polynomial), edges come from the classical modular
polynomials Phi_ell, and the Atkin-Lehner involution acts through the
p-power Frobenius on nodes: the anti-invariant subspace realizes the
w_p = +1 part of the weight-2 cusp forms.  Phi_ell is derived here from the
q-expansion of j, which is built here too.  Shares nothing with the modular
symbols implementation except the supersingular polynomial itself (which
the point-counting oracle validates separately).
"""

from fractions import Fraction
from functools import lru_cache

import numpy as np

from wplus import linalg
from wplus.supersingular import ss_polys

PHI2 = {
    (3, 0): 1, (0, 3): 1, (2, 2): -1,
    (2, 1): 1488, (1, 2): 1488,
    (2, 0): -162000, (0, 2): -162000,
    (1, 1): 40773375,
    (1, 0): 8748000000, (0, 1): 8748000000,
    (0, 0): -157464000000000,
}

PHI3 = {
    (4, 0): 1, (0, 4): 1, (3, 3): -1,
    (3, 2): 2232, (2, 3): 2232,
    (3, 1): -1069956, (1, 3): -1069956,
    (3, 0): 36864000, (0, 3): 36864000,
    (2, 2): 2587918086,
    (2, 1): 8900222976000, (1, 2): 8900222976000,
    (2, 0): 452984832000000, (0, 2): 452984832000000,
    (1, 1): -770845966336000000,
    (1, 0): 1855425871872000000000, (0, 1): 1855425871872000000000,
}

#: the primes ell whose Phi_ell the oracle derives: every T_n with n <= 10,
#: enough for g+ <= 10; Phi_11 derives too, but in about 9 s against 0.3 s
#: for Phi_7
PHI_PRIMES = (2, 3, 5, 7)


class Fp2:
    """F_{p^2} = F_p[s]/(s^2 - eps) with elements as (a, b) pairs."""

    def __init__(self, p):
        self.p = p
        self.eps = next(e for e in range(2, p)
                        if pow(e, (p - 1) // 2, p) == p - 1)

    def mul(self, x, y):
        p = self.p
        return ((x[0] * y[0] + x[1] * y[1] * self.eps) % p,
                (x[0] * y[1] + x[1] * y[0]) % p)

    def add(self, x, y):
        return ((x[0] + y[0]) % self.p, (x[1] + y[1]) % self.p)

    def pow(self, x, e):
        r = (1, 0)
        while e:
            if e & 1:
                r = self.mul(r, x)
            x = self.mul(x, x)
            e >>= 1
        return r

    def frobenius(self, x):
        return (x[0], (-x[1]) % self.p)

    def horner(self, coeffs, z):
        """Value at z of the polynomial with coefficients (low degree first)
        in F_{p^2}."""
        acc = (0, 0)
        for c in reversed(coeffs):
            acc = self.add(self.mul(acc, z), c)
        return acc


def _series_mul(a, b, prec):
    out = [0] * prec
    for i, x in enumerate(a[:prec]):
        if x:
            for k, y in enumerate(b[:prec - i]):
                out[i + k] += x * y
    return out


def _q_times_j(prec):
    """q j(q) = E_4^3 / prod (1 - q^n)^24 through q^(prec-1), exactly."""
    e4 = [1] + [240 * sum(d ** 3 for d in range(1, n + 1) if n % d == 0)
                for n in range(1, prec)]
    eta24 = [1] + [0] * (prec - 1)
    for n in range(1, prec):
        for _ in range(24):
            for k in range(prec - 1, n - 1, -1):
                eta24[k] -= eta24[k - n]
    num = _series_mul(_series_mul(e4, e4, prec), e4, prec)
    out = []
    for k in range(prec):  # eta24 has constant term 1: exact division
        out.append(num[k] - sum(out[i] * eta24[k - i] for i in range(k)))
    return out


def kronecker_congruent(ell, table):
    """Phi_ell = (X^ell - Y)(X - Y^ell) mod ell, coefficientwise."""
    target = {(ell + 1, 0): 1, (0, ell + 1): 1, (ell, ell): -1, (1, 1): -1}
    keys = set(table) | set(target)
    return all((table.get(k, 0) - target.get(k, 0)) % ell == 0 for k in keys)


@lru_cache(maxsize=None)
def modular_polynomial(ell):
    """Phi_ell(X, Y) as {(i, j): c}, ell in PHI_PRIMES, derived from
    Phi_ell(j(q), j(q^ell)) = 0.

    Ansatz: X^(ell+1) + Y^(ell+1) - X^ell Y^ell plus symmetric unknowns
    c_ij = c_ji for i, j <= ell.  The q-coefficients from q^(-ell(ell+1))
    up to q^ell give an exact linear system over Q, which must have a
    unique solution, and the solution must be integral.  The result is
    then checked three ways: equal to the table PHI2 / PHI3 where one is
    held, Kronecker's congruence, and the X^ell Y^(ell-1) coefficient
    744 ell.  Callers must not mutate the returned table, which is shared.
    """
    if ell not in PHI_PRIMES:
        raise ValueError(f"no modular polynomial for ell = {ell}; "
                         f"derived ones: {PHI_PRIMES}")
    top = ell * (ell + 1)  # pole order of Y^(ell+1) and X^ell Y^ell
    prec = top + ell + 1
    a = _q_times_j(prec)
    b = [0] * prec
    b[::ell] = a[:len(b[::ell])]
    apow, bpow = [[1] + [0] * (prec - 1)], [[1] + [0] * (prec - 1)]
    for _ in range(ell + 1):
        apow.append(_series_mul(apow[-1], a, prec))
        bpow.append(_series_mul(bpow[-1], b, prec))

    def column(i, j):
        # q-coefficients of X^i Y^j at q^e, -top <= e <= ell
        prod = _series_mul(apow[i], bpow[j], prec)
        shift = i + ell * j
        return [prod[e + shift] if 0 <= e + shift < prec else 0
                for e in range(-top, ell + 1)]

    def symmetric(i, j):
        if i == j:
            return column(i, i)
        return [x + y for x, y in zip(column(i, j), column(j, i))]

    unknowns = [(i, j) for i in range(ell + 1) for j in range(i + 1)
                if (i, j) != (ell, ell)]
    known = [x + y - z for x, y, z in zip(column(ell + 1, 0),
                                          column(0, ell + 1),
                                          column(ell, ell))]
    cols = [symmetric(i, j) for i, j in unknowns]
    aug = [[Fraction(c[r]) for c in cols] + [Fraction(-known[r])]
           for r in range(len(known))]
    red, pivots = linalg.rref(aug)
    if pivots != list(range(len(unknowns))):
        raise ArithmeticError(f"Phi_{ell}: the linear system has no unique "
                              f"solution (pivots {pivots})")
    table = {(ell + 1, 0): 1, (0, ell + 1): 1, (ell, ell): -1}
    for r, (i, j) in enumerate(unknowns):
        c = red[r][-1]
        if c.denominator != 1:
            raise ArithmeticError(f"Phi_{ell}: coefficient of X^{i}Y^{j} "
                                  f"is not integral ({c})")
        if c:
            table[(i, j)] = table[(j, i)] = int(c)
    reference = {2: PHI2, 3: PHI3}.get(ell)
    if reference is not None and table != reference:
        raise ArithmeticError(f"derived Phi_{ell} differs from the table")
    if not kronecker_congruent(ell, table):
        raise ArithmeticError(f"derived Phi_{ell} breaks Kronecker's "
                              f"congruence")
    if table.get((ell, ell - 1)) != 744 * ell:
        raise ArithmeticError(f"derived Phi_{ell}: X^{ell}Y^{ell - 1} "
                              f"coefficient is not {744 * ell}")
    return table


@lru_cache(maxsize=None)
def supersingular_nodes(p):
    """(F_{p^2}, tuple of the supersingular j-invariants), by evaluating
    the supersingular polynomial at every element of F_{p^2} at once."""
    assert p < 2 ** 31  # int64 products stay below 2^63
    field = Fp2(p)
    sp = ss_polys(p).S_p
    a, b = (x.ravel() for x in np.indices((p, p), dtype=np.int64))
    acc0, acc1 = np.zeros_like(a), np.zeros_like(a)
    for c in reversed([int(c) for c in sp.coeffs]):
        acc0, acc1 = ((acc0 * a + acc1 * b % p * field.eps + c) % p,
                      (acc0 * b + acc1 * a) % p)
    roots = np.flatnonzero((acc0 == 0) & (acc1 == 0))
    nodes = tuple((int(a[k]), int(b[k])) for k in roots)
    assert len(nodes) == sp.degree()
    return field, nodes


def brandt_matrix(p, ell):
    """ell-isogeny adjacency matrix on supersingular j-invariants, ell in
    PHI_PRIMES; entry (w, z) is the multiplicity of w as a root of
    Phi_ell(X, z), and every column sums to ell + 1."""
    assert p > ell + 1  # so that the multiplicity search below ends
    table = modular_polynomial(ell)
    field, nodes = supersingular_nodes(p)
    n = len(nodes)
    mat = [[0] * n for _ in range(n)]
    for j, z in enumerate(nodes):
        zpow = [field.pow(z, e) for e in range(ell + 2)]
        poly = [(0, 0)] * (ell + 2)  # Phi_ell(X, z), low degree first
        for (a, b), c in table.items():
            poly[a] = field.add(poly[a], field.mul((c % p, 0), zpow[b]))
        total = 0
        for i, w in enumerate(nodes):
            mult, deriv = 0, poly
            # deriv never vanishes: its degree is ell + 1 - mult, and
            # (ell + 1)! is prime to p
            while field.horner(deriv, w) == (0, 0):
                mult += 1
                deriv = [field.mul((k % p, 0), c)
                         for k, c in enumerate(deriv) if k]
            mat[i][j] = mult
            total += mult
        assert total == ell + 1
    return field, nodes, mat


def _plus_embedding(p):
    """Columns e_z - e_(z^p), one per Frobenius pair of nodes: a basis of
    the anti-invariant subspace."""
    field, nodes = supersingular_nodes(p)
    idx = {z: i for i, z in enumerate(nodes)}
    frob = [idx[field.frobenius(z)] for z in nodes]
    pairs = [(i, frob[i]) for i in range(len(nodes)) if i < frob[i]]
    vecs = []
    for i, j in pairs:
        v = [Fraction(0)] * len(nodes)
        v[i] = Fraction(1)
        v[j] = Fraction(-1)
        vecs.append(v)
    return [list(col) for col in zip(*vecs)]


def hecke_on_plus_part(p, ell):
    """Matrix of T_ell on the w_p = +1 cusp forms, via the Frobenius
    anti-invariant subspace of the supersingular module."""
    _, _, mat = brandt_matrix(p, ell)
    embed = _plus_embedding(p)
    matq = [[Fraction(c) for c in row] for row in mat]
    return linalg.solve(embed, linalg.mat_mul(matq, embed))


def rank(a):
    """Rank over Q of a matrix of rationals (lists of rows)."""
    return len(linalg.rref(a)[1])


def hecke_operators_on_plus_part(p, upto):
    """[T_1, ..., T_upto] on the w_p = +1 cusp forms (assumed nonzero),
    from the graph's T_ell by T_(ell^(k+1)) = T_ell T_(ell^k) -
    ell T_(ell^(k-1)) and multiplicativity.  Raises ValueError when some
    n <= upto has a prime factor outside PHI_PRIMES or equal to p."""
    ops = {1: linalg.identity(len(_plus_embedding(p)[0]))}
    for n in range(2, upto + 1):
        ell = next(d for d in range(2, n + 1) if n % d == 0)
        if ell not in PHI_PRIMES or ell == p:
            raise ValueError(f"T_{n} at p = {p} needs Phi_{ell}, which the "
                             f"oracle does not derive")
        power = ell
        while n % (power * ell) == 0:
            power *= ell
        if power < n:
            ops[n] = linalg.mat_mul(ops[power], ops[n // power])
        elif power == ell:
            ops[n] = hecke_on_plus_part(p, ell)
        else:
            prod = linalg.mat_mul(ops[ell], ops[n // ell])
            ops[n] = [[x - ell * y for x, y in zip(ra, rb)]
                      for ra, rb in zip(prod, ops[n // ell ** 2])]
    return [ops[n] for n in range(1, upto + 1)]
