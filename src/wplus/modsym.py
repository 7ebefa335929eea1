"""Weight-2 modular symbols for Gamma_0(p) and the good basis of S_2^+(p).

The space is presented on Manin symbols (c:d) over P^1(F_p), quotiented by
the two- and three-term relations and by the star involution (so complex
conjugation acts trivially and every Hecke eigenvalue appears once).  The
star involution and the two-term involution S generate a Klein four-group
on the symbols, so those relations are read off its orbits, all symbols at
once; the three-term relations are then eliminated on Python ints.  T_ell
acts on Manin symbols through a set of integer matrices of determinant ell,
applied to all symbols at once: Cremona's Heilbronn matrices for an odd
prime ell != p, Merel's matrices for ell = 2.  U_p is never formed: the
Atkin-Lehner involution is the single matrix W_p = (0, -1; p, 0), whose
image of each symbol comes back through continued-fraction convergents.
See Cremona, "Algorithms for Modular Elliptic Curves", ch. 2, and Stein,
"Modular Forms: A Computational Approach", ch. 8-9.

Since every cusp form of prime level is new, the Atkin-Lehner involution
acts on the cuspidal subspace as -U_p, and its +1 eigenspace M+ corresponds
to the quotient curve.  M+ is free of rank one over the Hecke algebra, so
for a cyclic vector x of M+ each coordinate i gives a form
sum_n (T_n x)_i q^n of S_2^+(p), and these span it; x = (1 + W_p) y for a
y on four coordinates, tried in turn until x is cyclic.  The columns T_n x
are built level by level, by the number Omega(n) of prime factors of n and
then by its least prime factor ell, one product with T_ell per group; the
T_ell with ell^2 past the precision act on the support of y alone, all in
one image count.  The unique reduced echelon basis of the rows
((T_n x)_i)_{n < prec} is the good basis, with pivots c_1 < ... < c_g.
Every pivot of the three-term relations divides its row
(linalg.SparseRREF raises otherwise), so the reduction map, the Hecke
matrices and the Krylov vectors T_n x are integral.  The basis is
held on integers: a g x P numerator matrix and one least denominator D_i
per form, taken from K x span (see GoodBasis).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import gcd, isqrt, lcm

import numpy as np

from . import linalg
from .errors import NotPIntegralError, PrecisionError, WplusError
from .fppoly import inverse_table, is_prime

#: payload version of cached good bases; any other version is a miss
_PAYLOAD_VERSION = 2
#: trial vectors y tried before giving up on finding a cyclic x
_TRIALS = 8


def merel_set(n):
    """Merel's matrices (a, b; c, d), det = n, a > b >= 0, d > c >= 0.

    Computes T_n on Manin symbols for every n, including n = level (U_n);
    the enumeration is O(n^2) in Python, so production uses it for n = 2
    only.
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


@functools.lru_cache(maxsize=None)
def heilbronn_cremona(ell):
    """Cremona's Heilbronn matrices (a, b, c, d) of determinant ell, an odd
    prime, as a read-only int64 array: (1, 0; 0, ell), then for each r with
    |r| <= ell // 2 the convergent matrices of ell / r under nearest-integer
    division, ties rounded away from zero.  All r advance together.  The
    set depends on ell alone, so it is built once per process."""
    r = np.arange(-(ell // 2), ell // 2 + 1, dtype=np.int64)
    a, b = np.full_like(r, -ell), r
    x1, x2, y1, y2 = np.full_like(r, ell), -r, np.zeros_like(r), np.ones_like(r)
    out = [np.array([[1, 0, 0, ell]], dtype=np.int64)]
    while True:
        out.append(np.stack([x1, x2, y1, y2], axis=1))
        live = b != 0
        if not live.any():
            mats = np.concatenate(out)
            mats.flags.writeable = False
            return mats
        a, b, x1, x2, y1, y2 = (v[live] for v in (a, b, x1, x2, y1, y2))
        q = np.sign(a) * np.sign(b) * (
            (2 * np.abs(a) + np.abs(b)) // (2 * np.abs(b)))
        a, b = -b, a - b * q
        x1, x2 = x2, q * x2 - x1
        y1, y2 = y2, q * y2 - y1


class ModSymSpace:
    """Star-quotient of weight-2 modular symbols for Gamma_0(p).

    Attributes:
        p, n:        prime level, n = p + 1 symbols
        dim:         dimension of the quotient (genus of X_0(p) plus one)
        genus:       dimension of the cuspidal subspace
        boundary:    int64 vector b over the coordinates, the boundary map
    """

    def __init__(self, p):
        if not is_prime(p) or p < 5:
            raise ValueError("level must be a prime >= 5")
        self.p = p
        n = p + 1
        self.n = n
        # 1/c mod p for every c at once (and 0 for c = 0)
        self._inv = inverse_table(p)

        # symbols: index 0 is (0:1), index 1+d is (1:d)
        c = np.concatenate([[0], np.ones(p, dtype=np.int64)])
        d = np.concatenate([[1], np.arange(p, dtype=np.int64)])
        self._sym_c, self._sym_d = c, d

        # the star involution iota (c:d) -> (-c:d), with x = x iota, and
        # S (c:d) -> (d:-c), with x + x S = 0, generate a Klein four-group:
        # each orbit {i, iota i, S i, iota S i} is one coordinate x_root,
        # root its least symbol, with sign +1 on i and iota i and -1 on the
        # other two; it is killed when S i is i or iota i
        sym = np.arange(n)
        iota = self._indices(-c % p, d)
        s = self._indices(d, -c % p)
        root = np.minimum(np.minimum(sym, iota), np.minimum(s, iota[s]))
        sign = np.where((root == sym) | (root == iota), 1, -1)
        sign[(s == sym) | (s == iota)] = 0

        # three-term relations x + x tau + x tau^2 = 0, tau (c:d) ->
        # (d:-c-d), one row per tau-orbit, keyed by its least symbol
        j = self._indices(d, (-c - d) % p)
        k = self._indices((-c - d) % p, c)
        _, first = np.unique(np.minimum(np.minimum(sym, j), k),
                             return_index=True)
        terms = np.stack([first, j[first], k[first]])
        reducer = linalg.SparseRREF()
        for roots, signs in zip(root[terms].T.tolist(),
                                sign[terms].T.tolist()):
            row = {}
            for r, sg in zip(roots, signs):
                if sg:
                    row[r] = row.get(r, 0) + sg
            reducer.add_row(row)
        pivot_rows = reducer.finish()

        live = np.flatnonzero((root == sym) & (sign != 0)).tolist()
        free = [r for r in live if r not in pivot_rows]
        self.free = free
        self.dim = len(free)
        pos = {r: t for t, r in enumerate(free)}

        # reduction map: R_num[t, i] is coordinate t of symbol i; column r
        # of by_root is that of x_r for every live root r
        by_root = np.zeros((self.dim, n), dtype=np.int64)
        by_root[np.arange(self.dim), free] = 1
        for r, row in pivot_rows.items():
            for c_, v in row.items():
                if c_ != r:
                    by_root[pos[c_], r] = -v
        rnum = by_root[:, root]
        rnum *= sign
        self._r_num = rnum

        # boundary: symbols (0:1) and (1:0) hit the two cusps, others vanish
        self.boundary = rnum[:, 0] - rnum[:, self.index(1, 0)]
        if not self.boundary.any():
            raise WplusError("the boundary map vanishes")
        self.genus = self.dim - 1              # the kernel of a nonzero row

    def index(self, c, d):
        """Index of the Manin symbol (c:d), for Python ints."""
        c %= self.p
        d %= self.p
        if c == 0:
            return 0
        return 1 + d * int(self._inv[c]) % self.p

    def _indices(self, u, v):
        """Indices of the symbols (u:v) for int64 arrays u, v reduced mod p;
        the non-symbol (0:0) gets index n."""
        idx = self._inv[u]
        idx *= v
        idx %= self.p
        idx += 1
        zero = u == 0
        idx[zero] = np.where(v[zero] == 0, self.n, 0)
        return idx

    def symbol_pair(self, i):
        return int(self._sym_c[i]), int(self._sym_d[i])

    def symbol_lift(self, i):
        """SL_2(Z) lift gamma of symbol i: bottom row is (c, d)."""
        c, d = self.symbol_pair(i)
        if c == 0:
            return (1, 0, 0, 1)
        return (0, -1, 1, d)

    def _images(self, mats, symbols):
        """idx[j, i] = index of the image of symbols[j] under mats[i], all in
        one pass; the non-symbol (0:0) gets index n."""
        p = self.p
        a, b, c, d = np.asarray(mats, dtype=np.int64).T
        u0 = self._sym_c[symbols][:, None]
        v0 = self._sym_d[symbols][:, None]
        # in place where possible: every temporary is len(symbols) x
        # len(mats), and each fresh one of that size faults in new pages
        u = u0 * a
        u += v0 * c
        u %= p
        v = u0 * b
        v += v0 * d
        v %= p
        return self._indices(u, v)

    def _count_images(self, mats, symbols):
        """counts[s, j] = number of matrices sending symbols[j] to symbol s;
        images (0:0) are dropped."""
        n = self.n
        idx = self._images(mats, symbols)
        idx += (n + 1) * np.arange(len(symbols))[:, None]
        counts = np.bincount(idx.ravel(), minlength=(n + 1) * len(symbols))
        return counts.reshape(len(symbols), n + 1)[:, :n].T

    def _accumulate_infty_path(self, num, den, coeff, out):
        """Manin symbols of the path from the infinite cusp to num/den, by
        continued-fraction convergents: the j-th term is the class of
        (q_j : (-1)^{j-1} q_{j-1}).  den may be negative: floor division
        gives (-num)/(-den) the same partial quotients as num/den."""
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

    def _path_counts(self, mats):
        """Signed symbol counts of sum_M M g{0, infty} over the matrices M,
        for the lift g of every free symbol.  Each image path
        {M0, M(infty)} = {infty, M(infty)} - {infty, M0} comes back to Manin
        symbols through the convergents of its endpoints (Manin's trick)."""
        counts = np.zeros((self.n, self.dim), dtype=np.int64)
        for jcol, s in enumerate(self.free):
            g0, g1, g2, g3 = self.symbol_lift(s)
            acc = {}
            for r0, r1, r2, r3 in mats:
                m00 = r0 * g0 + r1 * g2
                m01 = r0 * g1 + r1 * g3
                m10 = r2 * g0 + r3 * g2
                m11 = r2 * g1 + r3 * g3
                if m10 != 0:
                    self._accumulate_infty_path(m00, m10, 1, acc)
                if m11 != 0:
                    self._accumulate_infty_path(m01, m11, -1, acc)
            for idx, cnt in acc.items():
                counts[idx, jcol] = cnt
        return counts

    def atkin_lehner_matrix(self):
        """Integer matrix of the Atkin-Lehner involution W_p = (0, -1; p, 0):
        one matrix acting on paths, so O(dim log p) steps in all."""
        return self._counts_to_matrix(self._path_counts([(0, -1, self.p, 0)]))

    def _hecke_mats(self, ell):
        if not is_prime(ell) or ell == self.p:
            raise ValueError(f"T_{ell}: ell must be prime and not the level")
        return merel_set(2) if ell == 2 else heilbronn_cremona(ell)

    def hecke_matrix(self, ell):
        """Integer matrix of T_ell on the quotient, for a prime ell != p:
        Merel's matrices for ell = 2, Heilbronn-Cremona matrices for odd
        ell.  ell = p is refused: the basis reaches U_p, which is -W_p on
        the cusp forms, through W_p."""
        return self._counts_to_matrix(
            self._count_images(self._hecke_mats(ell), self.free))

    def hecke_columns(self, ells, y):
        """T_ell y, one column per prime ell, for an integer vector y.  The
        matrices of all the T_ell form one set, each labelled by its ell,
        and the images of the free symbols in the support of y under it are
        added into one count, weighted by y, with no per-symbol axis; the
        symbols go one at a time, so that every temporary is one set long.
        The reduction map then runs once on the n x len(ells) block.  The
        count has the dtype of y, and each entry is at most sum|y| times
        the number of matrices in absolute value."""
        sets = [np.asarray(self._hecke_mats(ell)) for ell in ells]
        label = np.repeat(np.arange(len(ells)), [len(m) for m in sets])
        mats = np.concatenate(sets)
        counts = np.zeros((len(ells), self.n + 1), dtype=y.dtype)
        for j in np.flatnonzero(y):
            np.add.at(counts, (label, self._images(mats, self.free[j:j + 1])),
                      y[j])
        return self._counts_to_matrix(counts[:, :-1].T)

    def _counts_to_matrix(self, counts):
        """The reduction map applied to symbol counts, exactly."""
        return linalg.exact_matmul(self._r_num, counts)


@dataclass
class GoodBasis:
    """Reduced echelon basis of the rational weight-2 forms invariant under
    the Atkin-Lehner involution: f_i = q^{c_i} + ... with c_1 < ... < c_g,
    and the pivot columns form an identity block (when the pivots are
    consecutive this is the classical f_i = q^{c_i} + O(q^{c_g+1})).
    verify_prime builds it, and the chain reads it, at the one precision
    (p + 1)//6 + 12 (see extract_Fp).

    The coefficient of q^n in f_i is num[i, n] / den[i] for n < precision:
    num is a g x precision integer matrix (int64, or Python ints where
    int64 could overflow) and den[i] > 0 the least common denominator of
    f_i there, so f_i is p-integral exactly when p does not divide den[i].
    ``residues`` reduces the rows mod p for the chain."""

    p: int
    g: int
    genus_x0: int
    num: np.ndarray    # g x precision numerators, column n is q^n
    den: list          # D_1, ..., D_g
    pivots: list       # c_1 < ... < c_g
    p_integral: bool

    @property
    def precision(self):
        return self.num.shape[1]

    def residues(self):
        """Residues mod p of the coefficients of q^0 .. q^(precision - 1),
        one int64 row per form: each numerator row times one modular inverse
        of its denominator.  NotPIntegralError when p divides a den[i]."""
        inverses = []
        for i, d in enumerate(self.den):
            if d % self.p == 0:
                raise NotPIntegralError(
                    f"row {i} has denominator divisible by {self.p}")
            inverses.append(pow(d, -1, self.p))
        rows = (self.num % self.p).astype(np.int64)
        return rows * np.array(inverses, dtype=np.int64)[:, None] % self.p

    def wt_infinity(self):
        """Weierstrass weight of the cusp at infinity on the quotient curve:
        sum (c_j - j); zero exactly when the pivots are 1..g."""
        return sum(c - (j + 1) for j, c in enumerate(self.pivots))


def _least_denominators(num, den):
    """(num, den) with each row i and den[i] divided by their gcd, so that
    den[i] is the least common denominator of the row num[i] / den[i]."""
    common = [gcd(d, *row) for row, d in zip(num.tolist(), den)]
    num = num // np.array(common, dtype=num.dtype)[:, None]
    return num, [d // c for d, c in zip(den, common)]


class BasisComputer:
    """Krylov good-basis engine for one prime.

    Prime level is all new, so U_p = -w_p on S_2, and the +1 space of w_p is
    reached through the one matrix W_p rather than through U_p.  W_p acts as
    -1 on M modulo the cuspidal subspace C, so x = (1 + W_p) y lies in M+
    and in C for every y; trial t takes y = sum_j j e_(j + 4t mod dim),
    j = 1..4, both facts are checked exactly, and the next trial runs when x
    is not cyclic.  The columns T_n x are integer vectors (int64, or Python
    ints where a product could overflow), built a group of n at a time by
    ``_extend``.  W_p commutes with T_ell for ell != p, so
    T_ell x = (1 + W_p) T_ell y, and T_ell y needs the images of four
    symbols only.  ``rows`` are g coordinates that are independent
    over n <= (p + 1) / 6 + 2, so x is cyclic and their forms span S_2^+(p).

    Both pivot searches, for ``rows`` and for the echelon pivots of their
    forms, run modulo ``linalg.PIVOT_PRIME`` first.  The pivots are kept
    when the exact inverse of their block puts the rows in echelon shape,
    which proves them to be the pivots over Q and the rows independent;
    otherwise the exact ``linalg.pivot_columns`` decides.
    """

    def __init__(self, p):
        self.p = p
        self.space = space = ModSymSpace(p)
        self._steps = {}
        self._cols = []
        self.g = 0
        if space.genus == 0:
            return
        w = space.atkin_lehner_matrix()
        one = np.eye(space.dim, dtype=np.int64)
        if not np.array_equal(linalg.exact_matmul(w, w), one):
            raise WplusError("W_p is not an involution")
        self._plus_w = w + one
        self.g = _plus_dimension(space, w)
        if self.g == 0:
            return
        head = (p + 1) // 6 + 3                    # columns n < head
        for trial in range(_TRIALS):
            y = np.zeros(space.dim, dtype=np.int64)
            np.add.at(y, (np.arange(1, 5) + 4 * trial) % space.dim,
                      np.arange(1, 5))
            x = self._plus(y)
            if not np.array_equal(linalg.exact_matmul(w, x), x):
                raise WplusError("x is not in the w_p = +1 space")
            if linalg.exact_matmul(space.boundary, x):
                raise WplusError("x is not cuspidal")
            self._y = y
            self._cols = [x]
            self._extend(head)
            krylov = np.array(self._cols)          # row n - 1 is T_n x
            for search in (linalg.pivot_columns_mod, linalg.pivot_columns):
                rows = search(krylov)              # independent coordinates
                if len(rows) > self.g:
                    raise WplusError("a Hecke operator left the w_p = +1 space")
                echelon = len(rows) == self.g and self._echelon(
                    krylov[:, rows].T)
                if echelon:
                    self.rows = rows
                    self._pivots, self._k, self._kinv = echelon
                    return
        raise WplusError(f"no cyclic vector of the +1 space found for p={p}")

    def _plus(self, v):
        """(1 + W_p) v for an integer vector or matrix v."""
        return linalg.exact_matmul(self._plus_w, v)

    def _echelon(self, span):
        """(pivots, k, K) for the g x head matrix span of the Krylov rows, or
        None when its rank is below g.  K = k B^{-1} for the pivot block B,
        exactly; the pivots from the search mod PIVOT_PRIME are kept when
        K @ span is zero left of each pivot, and the exact search runs
        otherwise.  Columns from the last pivot on cannot break that shape,
        so only those before it are reduced."""
        for search in (linalg.pivot_columns_mod, linalg.pivot_columns):
            pivots = search(span)
            if len(pivots) != self.g or pivots != sorted(set(pivots)):
                continue
            try:
                k, kinv = linalg.scaled_inverse(span[:, pivots].tolist())
            except ValueError:
                continue
            kinv = np.array(kinv, dtype=object)
            red = linalg.exact_matmul(kinv, span[:, :pivots[-1]])
            if not any(red[i, :c].any() for i, c in enumerate(pivots)):
                return pivots, k, kinv
        return None

    def _step(self, ell):
        """[T_ell^t; -ell I], built once per ell: the row [T_m x, v] times
        it is T_ell T_m x - ell v, which is T_(ell m) x for v = T_(m/ell) x
        when ell divides m and for v = 0 otherwise."""
        if ell not in self._steps:
            t = self.space.hecke_matrix(ell)
            self._steps[ell] = np.concatenate(
                [t.T, -ell * np.eye(len(t), dtype=np.int64)])
        return self._steps[ell]

    def _extend(self, upto):
        """Columns T_n x for every n < upto, level by level: the new n are
        grouped by Omega(n), their number of prime factors with
        multiplicity, and within a level by their least prime factor ell, so
        that the sources n / ell and n / ell^2 are already there.  Each group
        is one product with ``_step(ell)``, by
        T_n = T_ell T_(n/ell) - ell T_(n/ell^2), the second term where
        ell^2 divides n; U_p = -1 on M+ gives T_n x = -T_(n/p) x, so no
        matrix of U_p is formed.  A prime ell != p with ell^2 >= upto occurs
        only as n = ell, and its matrix is never formed: W_p commutes with
        T_ell, so T_ell x = (1 + W_p) T_ell y, and all those T_ell y come
        from one ``hecke_columns``."""
        cols = self._cols
        start = len(cols) + 1
        cols += [None] * (upto - start)
        spf, omega = _factor_table(upto)
        groups = {}
        for n in range(start, upto):
            late = spf[n] == n != self.p and n * n >= upto
            groups.setdefault((omega[n], 0 if late else spf[n]), []).append(n)
        zero = np.zeros_like(cols[0])
        for (_, ell), ns in sorted(groups.items()):
            if not ell:
                block = self._plus(self.space.hecke_columns(ns, self._y)).T
            elif ell == self.p:
                block = [-cols[n // ell - 1] for n in ns]
            else:
                block = linalg.exact_matmul(np.hstack([
                    [cols[n // ell - 1] for n in ns],
                    [cols[n // ell ** 2 - 1] if n % ell ** 2 == 0 else zero
                     for n in ns]]), self._step(ell))
            for n, col in zip(ns, block):
                cols[n - 1] = col

    def basis(self, prec):
        """GoodBasis at the given q-expansion precision."""
        if self.g == 0:
            return GoodBasis(self.p, 0, self.space.genus,
                             np.zeros((0, max(prec, 0)), dtype=np.int64),
                             [], [], True)
        pivots = self._pivots
        if pivots[-1] >= prec - 1:
            if prec <= (self.p + 1) // 6 + 1:
                raise PrecisionError(
                    f"precision {prec} too small to echelonize the basis "
                    f"(pivots can reach {(self.p + 1) // 6})")
            raise WplusError("Krylov rows do not span the +1 eigenspace")
        self._extend(prec)
        cols = np.array(self._cols[:prec - 1]).T   # dim x (prec-1)
        span = cols[self.rows]
        # K span = k B^{-1} span for the pivot block B = span[:, pivots]
        k = self._k
        red = linalg.exact_matmul(self._kinv, span)
        # every coordinate is the same combination of the rows, at every n
        if not np.array_equal(linalg.exact_matmul(cols[:, pivots], red),
                              linalg.exact_scale(cols, k)):
            raise WplusError("a Hecke operator left the w_p = +1 space")
        # column n holds T_{n+1} x, so f_i = sum_n red[i, n] q^(n+1) / k
        num = np.zeros((self.g, prec), dtype=red.dtype)
        num[:, 1:] = red
        num, den = _least_denominators(num, [k] * self.g)
        return GoodBasis(self.p, self.g, self.space.genus, num, den,
                         [c + 1 for c in pivots],
                         all(d % self.p for d in den))


def _plus_dimension(space, w):
    """g+ = dim of the W_p = +1 cuspidal space, from the trace of W_p = w.

    W_p^2 = 1 (checked by the caller), and W_p swaps the two cusps, so the
    boundary row delta satisfies delta W_p = -delta (checked here): W_p
    preserves C = ker delta and acts as -1 on the
    quotient by C, which has dimension dim - genus = 1.  Hence
    tr W_p = (g+ - (genus - g+)) - 1 = 2 g+ - dim."""
    if not np.array_equal(linalg.exact_matmul(space.boundary, w),
                          -space.boundary):
        raise WplusError("W_p does not swap the cusps")
    twice = space.dim + int(np.trace(w))
    if twice % 2:
        raise WplusError("the trace of W_p is not that of an involution")
    return twice // 2


def _factor_table(upto):
    """The least prime factor and the number Omega(n) of prime factors,
    with multiplicity, of every n < upto: a sieve in which the least
    factor f <= sqrt(n) of n is the last written at n."""
    spf = np.arange(upto)
    for f in range(isqrt(upto), 1, -1):
        spf[f * f::f] = f
    spf, omega = spf.tolist(), [0] * upto
    for n in range(2, upto):
        omega[n] = omega[n // spf[n]] + 1
    return spf, omega


def pivot_precision(p):
    """P = (p + 1)//6 + 12, the one precision at which verify_prime builds
    the good basis and ``wplus basis`` caches it: every pivot is at most
    (p + 1)/6 (Sturm), and the chain reads K = 12 terms from each pivot on
    (see weierstrass.extract_Fp)."""
    return (p + 1) // 6 + 12


def good_basis(p, prec, cache=None):
    """The reduced echelon basis of S_2^+(p) to the given precision.

    Results round-trip through the cache (kind ``good_basis``) when one is
    supplied; a cached basis of the current payload version, of at least
    the requested precision and with every pivot below it (the rule of a
    cold computation, which raises PrecisionError otherwise), cut to prec,
    is reused once its forms pass the checks of ``_basis_from_payload``
    (the reduced echelon basis at a given precision is unique), and
    anything else is recomputed and overwritten.
    """
    if cache is not None:
        payload = cache.get("good_basis", str(p))
        if (payload is not None and payload.get("version") == _PAYLOAD_VERSION
                and payload["precision"] >= prec
                and all(c < prec for c in payload["pivots"])):
            gb = _basis_from_payload(payload, prec)
            if gb is not None:
                return gb
    gb = BasisComputer(p).basis(prec)
    if cache is not None:
        cache.put("good_basis", str(p), _basis_to_payload(gb))
    return gb


def _ratio(n, d):
    """n / d in lowest terms as "n/d", d > 0, as Fraction writes it."""
    c = gcd(n, d)
    return f"{n // c}/{d // c}"


def _parse_ratio(s):
    """(n, d) of a string "n/d" or "n"."""
    n, _, d = s.partition("/")
    return int(n), int(d or 1)


def _basis_to_payload(gb):
    return {
        "version": _PAYLOAD_VERSION,
        "p": gb.p,
        "g": gb.g,
        "genus_x0": gb.genus_x0,
        "pivots": list(gb.pivots),
        "precision": gb.precision,
        "p_integral": gb.p_integral,
        "coefficients": [[_ratio(n, d) for n in row]
                         for row, d in zip(gb.num.tolist(), gb.den)],
    }


def _basis_from_payload(payload, prec):
    """GoodBasis of a cached payload, cut at prec; None unless the forms
    have the identity block at the pivots and their p-integrality, over
    the stored precision, is the stored ``p_integral``."""
    p, pivots = payload["p"], payload["pivots"]
    rows, dens = [], []
    for strings in payload["coefficients"]:
        pairs = [_parse_ratio(s) for s in strings]
        d = lcm(*(b for _, b in pairs))
        if d == 0:
            return None
        rows.append([a * (d // b) for a, b in pairs])
        dens.append(d)
    if len(rows) != len(pivots):
        return None
    num, den = _least_denominators(
        _integer_matrix(rows, payload["precision"]), dens)
    if any(num[i, c] != den[i] * (i == j) for i in range(len(rows))
           for j, c in enumerate(pivots)):
        return None
    p_integral = all(d % p for d in den)
    if p_integral != payload["p_integral"]:
        return None
    num, den = _least_denominators(num[:, :prec], den)
    return GoodBasis(p, payload["g"], payload["genus_x0"], num, den,
                     list(pivots), p_integral)


def _integer_matrix(rows, width):
    """Rows of `width` Python ints as an int64 matrix, or as an object one
    where an entry does not fit int64."""
    if not rows:
        return np.zeros((0, width), dtype=np.int64)
    try:
        return np.array(rows, dtype=np.int64)
    except OverflowError:
        return np.array(rows, dtype=object)
