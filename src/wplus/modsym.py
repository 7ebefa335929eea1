"""Weight-2 modular symbols for Gamma_0(p) and the good basis of S_2^+(p).

The space is presented on Manin symbols (c:d) over P^1(F_p), quotiented by
the two- and three-term relations and by the star involution (so complex
conjugation acts trivially and every Hecke eigenvalue appears once).  T_ell
acts on Manin symbols through a set of integer matrices of determinant ell,
applied to all symbols at once: Cremona's Heilbronn matrices for an odd
prime ell != p, Merel's matrices for ell = 2 and for U_p.  The coset
representatives acting on paths, brought back to Manin symbols by
continued-fraction convergents, remain as an independent route for tests.
See Cremona, "Algorithms for Modular Elliptic Curves", ch. 2, and Stein,
"Modular Forms: A Computational Approach", ch. 8-9.

Since every cusp form of prime level is new, the Atkin-Lehner involution
acts on the cuspidal subspace as -U_p, and its +1 eigenspace M+ corresponds
to the quotient curve.  M+ is free of rank one over the Hecke algebra, so
for a cyclic vector x of M+ each coordinate i gives a form
sum_n (T_n x)_i q^n of S_2^+(p), and these span it.  The unique reduced
echelon basis of the rows ((T_n x)_i)_{n < prec} is the good basis, with
pivots c_1 < ... < c_g.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import NamedTuple

import numpy as np

from . import linalg
from .errors import PrecisionError, WplusError
from .fppoly import is_prime
from .series import QExpansion

_ZERO = Fraction(0)
_ONE = Fraction(1)

#: payload version of cached good bases; any other version is a miss
_PAYLOAD_VERSION = 2
#: trial vectors y tried before giving up on finding a cyclic x
_TRIALS = 8


def merel_set(n):
    """Merel's matrices (a, b; c, d), det = n, a > b >= 0, d > c >= 0.

    Computes T_n on Manin symbols for every n, including n = level (U_n);
    slower to enumerate than Heilbronn's set, so only used where needed.
    """
    out = []
    for a in range(1, n + 1):
        for d in range((n + a - 1) // a, n + 2 - a):
            bc = a * d - n
            if bc == 0:
                out.extend((a, b, 0, d) for b in range(a))
                out.extend((a, 0, c, d) for c in range(1, d))
            elif d > 1:
                for b in range((bc - 1) // (d - 1) + 1, a):
                    if bc % b == 0:
                        out.append((a, b, bc // b, d))
    return out


def heilbronn_cremona(ell):
    """Cremona's Heilbronn matrices (a, b, c, d) of determinant ell, an odd
    prime, as an int64 array: (1, 0; 0, ell), then for each r with
    |r| <= ell // 2 the convergent matrices of ell / r under nearest-integer
    division, ties rounded away from zero.  All r advance together."""
    r = np.arange(-(ell // 2), ell // 2 + 1, dtype=np.int64)
    a, b = np.full_like(r, -ell), r
    x1, x2, y1, y2 = np.full_like(r, ell), -r, np.zeros_like(r), np.ones_like(r)
    out = [np.array([[1, 0, 0, ell]], dtype=np.int64)]
    while True:
        out.append(np.stack([x1, x2, y1, y2], axis=1))
        live = b != 0
        if not live.any():
            return np.concatenate(out)
        a, b, x1, x2, y1, y2 = (v[live] for v in (a, b, x1, x2, y1, y2))
        q = np.sign(a) * np.sign(b) * (
            (2 * np.abs(a) + np.abs(b)) // (2 * np.abs(b)))
        a, b = -b, a - b * q
        x1, x2 = x2, q * x2 - x1
        y1, y2 = y2, q * y2 - y1


class HeckeMatrix(NamedTuple):
    """An operator on the quotient, exactly: T = num / den, with num an
    integer matrix (int64, or Python ints where int64 could overflow)."""

    num: np.ndarray
    den: int

    def fractions(self):
        """The matrix as lists of Fractions."""
        return [[Fraction(int(x), self.den) for x in row] for row in self.num]


class _SignedUnionFind:
    """Union-find tracking x_i = +-x_root, with a kill flag for x = -x."""

    def __init__(self, n):
        self.parent = list(range(n))
        self.sign = [1] * n    # sign of node relative to its parent
        self.dead = [False] * n

    def find(self, i):
        path = []
        j = i
        while self.parent[j] != j:
            path.append(j)
            j = self.parent[j]
        root = j
        # compress, nearest-the-root first, keeping signs relative to root
        for node in reversed(path):
            par = self.parent[node]
            if par != root:
                self.sign[node] *= self.sign[par]
            self.parent[node] = root
        return (root, self.sign[i]) if path else (root, 1)

    def relate(self, i, j, s):
        """Impose x_i = s * x_j."""
        ri, si = self.find(i)
        rj, sj = self.find(j)
        if ri == rj:
            if si != s * sj:
                self.dead[ri] = True
            return
        self.parent[ri] = rj
        self.sign[ri] = si * s * sj
        if self.dead[ri]:
            self.dead[rj] = True

    def resolve(self, i):
        """(root, sign) with x_i = sign * x_root, or (root, 0) if killed."""
        r, s = self.find(i)
        if self.dead[r]:
            return r, 0
        return r, s


class ModSymSpace:
    """Star-quotient of weight-2 modular symbols for Gamma_0(p).

    Attributes:
        p, n:        prime level, n = p + 1 symbols
        dim:         dimension of the quotient (genus of X_0(p) plus one)
        genus:       dimension of the cuspidal subspace
        cuspidal:    dim x genus matrix over Q, columns a cuspidal basis
    """

    def __init__(self, p):
        if not is_prime(p) or p < 5:
            raise ValueError("level must be a prime >= 5")
        self.p = p
        n = p + 1
        self.n = n
        self._inv = np.zeros(p, dtype=np.int64)
        for c in range(1, p):
            self._inv[c] = pow(c, -1, p)

        # symbols: index 0 is (0:1), index 1+d is (1:d)
        pairs_c = np.concatenate([[0], np.ones(p, dtype=np.int64)])
        pairs_d = np.concatenate([[1], np.arange(p, dtype=np.int64)])
        self._sym_c = pairs_c
        self._sym_d = pairs_d

        def idx(c, d):
            c %= p
            d %= p
            if c == 0:
                return 0
            return 1 + d * int(self._inv[c]) % p

        self.index = idx

        # two-term, star, and three-term Manin relations
        uf = _SignedUnionFind(n)
        for i in range(n):
            c, d = int(pairs_c[i]), int(pairs_d[i])
            uf.relate(i, idx(-c, d), 1)       # star involution
            uf.relate(i, idx(d, -c), -1)      # x + xS = 0
        rows = []
        seen = set()
        for i in range(n):
            c, d = int(pairs_c[i]), int(pairs_d[i])
            j = idx(d, -c - d)
            k = idx(-c - d, c)
            key = min(i, j, k)
            if key in seen:
                continue
            seen.add(key)
            row = {}
            for t in (i, j, k):
                r, s = uf.resolve(t)
                if s:
                    row[r] = row.get(r, 0) + s
            if row:
                rows.append({c_: Fraction(v) for c_, v in row.items() if v})
        reducer = linalg.SparseRREF()
        for row in rows:
            reducer.add_row(row)
        pivot_rows = reducer.finish()

        roots = {uf.resolve(i)[0] for i in range(n) if uf.resolve(i)[1]}
        free = sorted(r for r in roots if r not in pivot_rows)
        self.free = free
        self.dim = len(free)
        pos = {r: t for t, r in enumerate(free)}

        # reduction map: R_num[t, i] / R_den is coordinate t of symbol i
        den = lcm(*(v.denominator for row in pivot_rows.values()
                    for v in row.values()))
        rnum = np.zeros((self.dim, n), dtype=np.int64)
        for i in range(n):
            r, s = uf.resolve(i)
            if s and r in pivot_rows:
                for c_, v in pivot_rows[r].items():
                    if c_ != r:
                        rnum[pos[c_], i] = -s * int(v * den)
            elif s:
                rnum[pos[r], i] = s * den
        self._r_den = den
        self._r_num = rnum
        self._r_max = int(np.abs(rnum).max())

        # boundary: symbols (0:1) and (1:0) hit the two cusps, others vanish
        boundary = (rnum[:, 0] - rnum[:, self.index(1, 0)]).tolist()
        kern = linalg.nullspace([boundary]) if any(boundary) \
            else linalg.identity(self.dim)
        self.cuspidal = linalg.transpose(kern) if kern \
            else [[] for _ in range(self.dim)]  # dim x genus
        self.genus = len(kern)

    def symbol_pair(self, i):
        return int(self._sym_c[i]), int(self._sym_d[i])

    def symbol_lift(self, i):
        """SL_2(Z) lift gamma of symbol i: bottom row is (c, d)."""
        c, d = self.symbol_pair(i)
        if c == 0:
            return (1, 0, 0, 1)
        return (0, -1, 1, d)

    def _count_images(self, mats):
        """counts[s, j] = number of matrices sending free symbol j to symbol
        s, for all free symbols in one pass; images (0:0) are dropped."""
        p, n = self.p, self.n
        a, b, c, d = np.asarray(mats, dtype=np.int64).T
        u0 = self._sym_c[self.free][:, None]
        v0 = self._sym_d[self.free][:, None]
        u = (u0 * a + v0 * c) % p
        v = (u0 * b + v0 * d) % p
        idx = np.where(u == 0, np.where(v == 0, n, 0), 1 + v * self._inv[u] % p)
        idx += (n + 1) * np.arange(self.dim)[:, None]
        counts = np.bincount(idx.ravel(), minlength=(n + 1) * self.dim)
        return counts.reshape(self.dim, n + 1)[:, :n].T

    def _accumulate_infty_path(self, num, den, coeff, out):
        """Manin symbols of the path from the infinite cusp to num/den, by
        continued-fraction convergents: the j-th term is the class of
        (q_j : (-1)^{j-1} q_{j-1})."""
        qm2, qm1 = 1, 0
        sgn = -1
        while den != 0:
            a = num // den
            qj = a * qm1 + qm2
            idx = self.index(qj, sgn * qm1)
            out[idx] = out.get(idx, 0) + coeff
            qm2, qm1 = qm1, qj
            num, den = den, num - a * den
            sgn = -sgn

    def _hecke_counts(self, ell):
        """Signed symbol counts of the T_ell image of every free symbol.

        Uses the coset representatives (1, j; 0, ell) for 0 <= j < ell,
        plus (ell, 0; 0, 1) when ell != p, acting on the path of each
        symbol; the image paths come back to Manin symbols through the
        convergents of their endpoints (Manin's trick).
        """
        reps = [(1, j, 0, ell) for j in range(ell)]
        if ell != self.p:
            reps.append((ell, 0, 0, 1))
        counts = np.zeros((self.n, self.dim), dtype=np.int64)
        for jcol, s in enumerate(self.free):
            g0, g1, g2, g3 = self.symbol_lift(s)
            acc = {}
            for r0, r1, r2, r3 in reps:
                m00 = r0 * g0 + r1 * g2
                m01 = r0 * g1 + r1 * g3
                m10 = r2 * g0 + r3 * g2
                m11 = r2 * g1 + r3 * g3
                # {M0, M(infty)} = {infty, M(infty)} - {infty, M0}
                if m10 != 0:
                    self._accumulate_infty_path(m00, m10, 1, acc)
                if m11 != 0:
                    self._accumulate_infty_path(m01, m11, -1, acc)
            for idx, cnt in acc.items():
                counts[idx, jcol] = cnt
        return counts

    def hecke_matrix(self, ell):
        """HeckeMatrix of T_ell on the quotient; ell must be prime, and
        ell = p gives U_p.  Heilbronn-Cremona matrices for odd ell != p,
        Merel's matrices otherwise."""
        mats = merel_set(ell) if ell in (2, self.p) else heilbronn_cremona(ell)
        return self._counts_to_matrix(self._count_images(mats))

    def hecke_matrix_path(self, ell):
        """T_ell by coset representatives acting on paths; kept only as an
        independent test oracle for the production route."""
        return self._counts_to_matrix(self._hecke_counts(ell))

    def hecke_matrix_merel(self, ell):
        """T_ell from Merel's determinant-ell matrices for every ell; kept as
        an independent cross-check."""
        return self._counts_to_matrix(self._count_images(merel_set(ell)))

    def _counts_to_matrix(self, counts):
        maxcount = int(np.abs(counts).max()) if counts.size else 0
        if self._r_max * maxcount * self.n < 2 ** 62:
            return HeckeMatrix(self._r_num @ counts, self._r_den)
        return HeckeMatrix(self._r_num.astype(object) @ counts.astype(object),
                           self._r_den)

    def restrict_to_cuspidal(self, t):
        """Matrix of t (over Q) on the cuspidal subspace, in the cuspidal
        basis."""
        if self.genus == 0:
            return []
        tc = linalg.mat_mul(t, self.cuspidal)
        sol = linalg.solve(self.cuspidal, tc)
        if sol is None:
            raise WplusError("operator does not preserve the cuspidal subspace")
        return sol


def build_space(p):
    """Construct the star-quotient symbol space for a prime level."""
    return ModSymSpace(p)


def atkin_lehner_plus(space):
    """Basis (genus x g matrix of columns) of the w_p = +1 cuspidal part.

    w_p acts as -U_p on the cuspidal subspace (prime level is all new), so
    this is the kernel of U_p + 1 in the cuspidal basis.
    """
    if space.genus == 0:
        return []
    u = space.restrict_to_cuspidal(space.hecke_matrix(space.p).fractions())
    g = space.genus
    usq = linalg.mat_mul(u, u)
    if usq != linalg.identity(g):
        raise WplusError("U_p is not an involution on the cuspidal subspace")
    up1 = [row[:] for row in u]
    for i in range(g):
        up1[i][i] += _ONE
    kern = linalg.nullspace(up1)
    return linalg.transpose(kern) if kern else [[] for _ in range(g)]


@dataclass
class GoodBasis:
    """Reduced echelon basis of the rational weight-2 forms invariant under
    the Atkin-Lehner involution: f_i = q^{c_i} + ... with c_1 < ... < c_g,
    and the pivot columns form an identity block (when the pivots are
    consecutive this is the classical f_i = q^{c_i} + O(q^{c_g+1})).
    ``computer`` is the BasisComputer that built it, None when the basis
    came from the cache."""

    p: int
    g: int
    genus_x0: int
    forms: list        # QExpansion, weight 2, level p
    pivots: list       # c_1 < ... < c_g
    p_integral: bool
    computer: BasisComputer | None = field(
        default=None, repr=False, compare=False)

    @property
    def precision(self):
        return self.forms[0].precision if self.forms else 0

    def wt_infinity(self):
        """Weierstrass weight of the cusp at infinity on the quotient curve:
        sum (c_j - j); zero exactly when the pivots are 1..g."""
        return sum(c - (j + 1) for j, c in enumerate(self.pivots))


def wt_infinity(basis):
    return basis.wt_infinity()


class BasisComputer:
    """Krylov good-basis engine for one prime, reusable across precisions.

    x = (1 - U_p) y for a cuspidal y with fixed small integer weights lies in
    M+; its columns T_n x are kept as Python-int vectors v_n with
    T_n x = v_n / d_n.  ``rows`` are g coordinates that are independent over
    n <= (p + 1) / 6 + 2, so x is cyclic and their forms span S_2^+(p).
    """

    def __init__(self, p):
        self.p = p
        self.space = space = ModSymSpace(p)
        self._hecke = {}
        self._cols, self._dens = [], []
        self.g = 0
        if space.genus == 0:
            return
        den = space._r_den
        up = self._t(p)
        scale = lcm(*(x.denominator for row in space.cuspidal for x in row))
        cusp = np.array([[int(x * scale) for x in row]
                         for row in space.cuspidal], dtype=object)
        upc = up @ cusp
        if not np.array_equal(up @ upc, den * den * cusp):
            raise WplusError("U_p is not an involution on the cuspidal subspace")
        minus = den * cusp - upc                   # den (1 - U_p) C
        self.g = len(linalg.pivot_columns(minus))
        if self.g == 0:
            return
        head = (p + 1) // 6 + 3                    # columns n < head
        for trial in range(_TRIALS):
            weights = np.array([(j + 1) ** trial for j in range(space.genus)],
                               dtype=object)
            x = minus @ weights
            if not np.array_equal(up @ x, -den * x):
                raise WplusError("x is not in the w_p = +1 space")
            self._cols, self._dens = [x], [1]
            self._extend(head)
            rows = linalg.pivot_columns(self._cols)   # independent coordinates
            if len(rows) > self.g:
                raise WplusError("a Hecke operator left the w_p = +1 space")
            if len(rows) == self.g:
                self.rows = rows
                return
        raise WplusError(f"no cyclic vector of the +1 space found for p={p}")

    def _t(self, ell):
        """Numerator of T_ell as Python ints; the denominator is _r_den."""
        t = self._hecke.get(ell)
        if t is None:
            t = self.space.hecke_matrix(ell).num.astype(object)
            self._hecke[ell] = t
        return t

    def _extend(self, upto):
        """Columns T_n x for every n < upto: T_{ell m} = T_ell T_m for ell
        not dividing m, T_{ell^{k+1} m} = T_ell T_{ell^k m} - ell T_{ell^{k-1} m},
        and U_p = -1 on M+."""
        cols, dens, den = self._cols, self._dens, self.space._r_den
        for n in range(len(cols) + 1, upto):
            ell = _smallest_prime_factor(n)
            m = n // ell
            if ell == self.p:
                cols.append(-cols[m - 1])
                dens.append(dens[m - 1])
                continue
            col = self._t(ell) @ cols[m - 1]
            if m % ell == 0:
                col -= ell * den * den * cols[m // ell - 1]
            cols.append(col)
            dens.append(den * dens[m - 1])

    def basis(self, prec):
        """GoodBasis at the given q-expansion precision."""
        if self.g == 0:
            return GoodBasis(self.p, 0, self.space.genus, [], [], True, self)
        self._extend(prec)
        cols = np.array(self._cols[:prec - 1], dtype=object).T   # dim x (prec-1)
        span = cols[self.rows]
        head = min(prec - 1, (self.p + 1) // 6 + 2)
        pivots = linalg.pivot_columns(span[:, :head])
        if len(pivots) != self.g:
            if prec <= (self.p + 1) // 6 + 1:
                raise PrecisionError(
                    f"precision {prec} too small to echelonize the basis "
                    f"(pivots can reach {(self.p + 1) // 6})")
            raise WplusError("Krylov rows do not span the +1 eigenspace")
        # rref = diag(d_P) B^{-1} span diag(1/d_n), B = span[:, pivots]
        inv = linalg.solve(span[:, pivots].tolist(), linalg.identity(self.g))
        k = lcm(*(x.denominator for row in inv for x in row))
        kinv = np.array([[int(x * k) for x in row] for row in inv], dtype=object)
        red = kinv @ span
        # every coordinate is the same combination of the rows, at every n
        other = cols[:, pivots] @ kinv
        if not np.array_equal(other @ span, k * cols):
            raise WplusError("a Hecke operator left the w_p = +1 space")
        dens = self._dens
        forms = []
        for i, c in enumerate(pivots):
            coeffs = [Fraction(dens[c] * int(v), k * dens[n])
                      for n, v in enumerate(red[i])]
            forms.append(QExpansion([_ZERO] + coeffs, 0, prec,
                                    weight=2, level=self.p))
        p_integral = all(f.is_p_integral(self.p) for f in forms)
        return GoodBasis(self.p, self.g, self.space.genus, forms,
                         [c + 1 for c in pivots], p_integral, self)


def _smallest_prime_factor(n):
    if n % 2 == 0:
        return 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return f
        f += 2
    return n


def good_basis(p, prec, cache=None, computer=None):
    """The reduced echelon basis of S_2^+(p) to the given precision.

    Results round-trip through the cache (kind ``good_basis``) when one is
    supplied; a cached basis of the current payload version and of at least
    the requested precision is reused, and anything else is recomputed and
    overwritten.  A miss extends ``computer`` (the ``computer`` of an earlier
    basis of p) when one is given, and builds a new BasisComputer otherwise.
    """
    if cache is not None:
        payload = cache.get("good_basis", str(p))
        if (payload is not None and payload.get("version") == _PAYLOAD_VERSION
                and payload["precision"] >= prec):
            return _basis_from_payload(payload, prec)
    gb = (computer or BasisComputer(p)).basis(prec)
    if cache is not None:
        cache.put("good_basis", str(p), _basis_to_payload(gb))
    return gb


def _basis_to_payload(gb):
    return {
        "version": _PAYLOAD_VERSION,
        "p": gb.p,
        "g": gb.g,
        "genus_x0": gb.genus_x0,
        "pivots": list(gb.pivots),
        "precision": gb.precision if gb.forms else 0,
        "p_integral": gb.p_integral,
        "coefficients": [[f"{c.numerator}/{c.denominator}" for c in f.coefficients(f.precision)]
                         for f in gb.forms],
    }


def _basis_from_payload(payload, prec):
    forms = []
    for coeffs in payload["coefficients"]:
        vals = [Fraction(s) for s in coeffs[:prec]]
        forms.append(QExpansion(vals, 0, prec, weight=2, level=payload["p"]))
    return GoodBasis(payload["p"], payload["g"], payload["genus_x0"], forms,
                     list(payload["pivots"]), payload["p_integral"])
