"""Exact linear algebra over Q and Z.

Small matrices over Q are lists of Fraction lists, reduced by plain Gaussian
elimination: reference routes for the tests, which import ``fractions`` on
their first call, so a run of the pipeline never loads it.  The
Manin-relation matrix gets a sparse routine on dicts of Python ints, which
divides each pivot row by its leading entry exactly and raises when that
entry does not divide the row.  Integer matrices are numpy arrays.  One rule decides where a sum of products is
exact: ``exact_dtype`` maps a bound on every partial sum to float64 (below
2^53, through BLAS), int64 (below 2^62) or Python ints.  ``exact_matmul``
multiplies integer matrices in that dtype, and ``fppoly.convolve_mod``
multiplies polynomials mod p in it; ``exact_matmul`` is also the one
product of residue matrices mod p (the Miller basis, the lifts and the
head expansion of level 1, W_x's evaluation and interpolation, the Lagrange
weights of the S_p oracle), each caller reducing the result mod p.  Pivots
are searched modulo the word-size prime ``PIVOT_PRIME`` in int64 or, as the
exact oracle, by fraction-free elimination, and the inverse is
fraction-free.
"""

from __future__ import annotations

from math import gcd

import numpy as np

#: the prime of ``pivot_columns_mod``: below 2^31, so that a product of two
#: residues fits in int64
PIVOT_PRIME = 2 ** 31 - 1
#: below this bound every integer, and so every partial sum of a product of
#: integers, is a float64 exactly, whatever the order of summation
_FLOAT64_EXACT = 2 ** 53
#: below this bound every partial sum fits an int64, with a bit to spare
_INT64_SAFE = 2 ** 62


def mat_copy(a):
    return [row[:] for row in a]


def identity(n):
    from fractions import Fraction

    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    from fractions import Fraction

    n, m, k = len(a), len(b[0]), len(b)
    out = [[Fraction(0)] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            c = ai[t]
            if c:
                bt = b[t]
                for j in range(m):
                    if bt[j]:
                        oi[j] += c * bt[j]
    return out


def rref(a):
    """Reduced row echelon form; returns (rref matrix, pivot column list)."""
    from fractions import Fraction

    m = mat_copy(a)
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pr = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def pivot_columns(a):
    """Pivot columns of an integer matrix: each column that is independent
    of the columns before it.  Fraction-free (Bareiss) elimination on Python
    ints, where every entry stays a minor of a, so each division is exact."""
    m = [[int(x) for x in row] for row in a]
    rows = len(m)
    pivots = []
    prev = 1
    for c in range(len(m[0]) if rows else 0):
        r = len(pivots)
        pr = next((i for i in range(r, rows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        piv = m[r]
        for i in range(r + 1, rows):
            f = m[i][c]
            m[i] = [(piv[c] * x - f * y) // prev for x, y in zip(m[i], piv)]
        prev = piv[c]
        pivots.append(c)
        if len(pivots) == rows:
            break
    return pivots


def _abs_max(a):
    return int(np.abs(a).max()) if a.size else 0


def exact_dtype(bound):
    """The narrowest dtype in which every sum of integer products whose
    partial sums stay below `bound` in absolute value is exact: float64
    below 2^53, int64 below 2^62, object (Python ints) otherwise."""
    if bound < _FLOAT64_EXACT:
        return np.float64
    if bound < _INT64_SAFE:
        return np.int64
    return object


def exact_matmul(a, b):
    """a @ b for integer arrays (int64 or Python-int object arrays), exactly.

    The bound max|a| * max|b| * inner bounds every partial sum, and the
    product runs in its exact_dtype; a float64 product comes back as
    int64."""
    a, b = np.asarray(a), np.asarray(b)
    dtype = exact_dtype(_abs_max(a) * _abs_max(b) * a.shape[-1])
    out = a.astype(dtype, copy=False) @ b.astype(dtype, copy=False)
    return out.astype(np.int64) if dtype is np.float64 else out


def exact_scale(a, k):
    """k a for an integer array a and an integer k, exactly: in int64 when
    |k| max|a| < 2^62, in Python ints otherwise."""
    a = np.asarray(a)
    if abs(k) * _abs_max(a) < _INT64_SAFE:
        return a.astype(np.int64, copy=False) * k
    return a.astype(object) * k


def pivot_columns_mod(a):
    """Pivot columns of the integer matrix a reduced modulo PIVOT_PRIME, by
    Gaussian elimination on int64 residues.

    The rank mod the prime is at most the rank over Q, and the pivots can
    differ from those of ``pivot_columns`` (a column divisible by the prime
    is no pivot here), so a caller certifies what it takes from them."""
    ell = PIVOT_PRIME
    m = np.asarray(a)
    if m.dtype.kind not in "iu":   # a list with ints past 2^63 can give float64
        m = np.asarray(a, dtype=object)
    m = (m % ell).astype(np.int64)
    rows = m.shape[0] if m.ndim == 2 else 0
    pivots = []
    for c in range(m.shape[1] if rows else 0):
        r = len(pivots)
        nonzero = np.flatnonzero(m[r:, c])
        if not nonzero.size:
            continue
        if nonzero[0]:
            m[[r, r + nonzero[0]]] = m[[r + nonzero[0], r]]
        piv = m[r, c:] * pow(int(m[r, c]), -1, ell) % ell
        below = r + nonzero[1:]
        if below.size:
            m[below, c:] = (m[below, c:] - m[below, c:c + 1] * piv) % ell
        pivots.append(c)
        if len(pivots) == rows:
            break
    return pivots


def scaled_inverse(a):
    """(k, K) with K = k a^{-1} for a square integer matrix a, where k > 0
    is the least common denominator of a^{-1}.

    Fraction-free (Bareiss) Gauss-Jordan on [a | I]: every entry stays a
    minor of the augmented matrix, so each division is exact, and at the
    end the left block is d I with d = +-det a.  Dividing d and the right
    block by their gcd leaves the least k.  Raises ValueError when a is
    singular."""
    n = len(a)
    m = [[int(x) for x in row] + [int(i == j) for j in range(n)]
         for i, row in enumerate(a)]
    prev = 1
    for c in range(n):
        pr = next((i for i in range(c, n) if m[i][c]), None)
        if pr is None:
            raise ValueError("singular matrix")
        m[c], m[pr] = m[pr], m[c]
        piv = m[c]
        for i in range(n):
            if i != c:
                f = m[i][c]
                m[i] = [(piv[c] * x - f * y) // prev
                        for x, y in zip(m[i], piv)]
        prev = piv[c]
    scale = gcd(prev, *(x for row in m for x in row[n:]))
    if prev < 0:
        scale = -scale
    return prev // scale, [[x // scale for x in row[n:]] for row in m]


def nullspace(a):
    """Basis (list of vectors) of the right kernel of a."""
    from fractions import Fraction

    if not a:
        return []
    red, pivots = rref(a)
    cols = len(a[0])
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def solve(a, b):
    """One solution x of a x = b, or None if inconsistent.

    b may be a vector or a matrix (list of columns given as a matrix with
    the same number of rows as a).
    """
    from fractions import Fraction

    vec = not isinstance(b[0], list)
    bm = [[x] for x in b] if vec else b
    rows, cols = len(a), len(a[0])
    aug = [a[i][:] + bm[i][:] for i in range(rows)]
    red, pivots = rref(aug)
    wid = len(bm[0])
    for r in range(len(pivots), rows):
        if any(red[r][cols + j] != 0 for j in range(wid)):
            return None
    if any(pc >= cols for pc in pivots):
        return None
    xm = [[Fraction(0)] * wid for _ in range(cols)]
    for r, pc in enumerate(pivots):
        for j in range(wid):
            xm[pc][j] = red[r][cols + j]
    return [row[0] for row in xm] if vec else xm


def charpoly(a):
    """Characteristic polynomial det(xI - a), Faddeev-LeVerrier.

    Returns coefficients low degree first, length n+1, leading 1.
    """
    from fractions import Fraction

    n = len(a)
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    m = identity(n)
    for k in range(1, n + 1):
        m = mat_mul(a, m)
        c = -sum((m[i][i] for i in range(n)), Fraction(0)) / k
        coeffs[n - k] = c
        for i in range(n):
            m[i][i] += c
    return coeffs


class SparseRREF:
    """Incremental reduced echelon form for sparse integer rows.

    Rows are dicts {column: int}.  A new pivot row is divided by its leading
    entry exactly, so every pivot row has leading entry 1 and stays on
    Python ints; ValueError, naming the column and the pivot, when that
    entry does not divide every entry of the row.  After feeding all rows,
    ``finish`` back-substitutes row by row, in descending order of the
    pivots: each row subtracts only the pivot rows whose columns it holds,
    which are final by then (a pivot row holds no column left of its
    pivot), so every pivot row ends up supported on its pivot column and
    free columns only.
    """

    def __init__(self):
        self.pivot_rows = {}

    def add_row(self, row):
        row = {c: v for c, v in row.items() if v}
        while row:
            c = min(row)
            piv = self.pivot_rows.get(c)
            if piv is None:
                lead = row[c]
                if any(v % lead for v in row.values()):
                    raise ValueError(f"the pivot {lead} at column {c} does "
                                     f"not divide its row")
                self.pivot_rows[c] = {k: v // lead for k, v in row.items()}
                return
            f = row[c]
            for k, v in piv.items():
                nv = row.get(k, 0) - f * v
                if nv:
                    row[k] = nv
                else:
                    row.pop(k, None)

    def finish(self):
        rows = self.pivot_rows
        for c in sorted(rows, reverse=True):
            row = rows[c]
            # a final row holds free columns only besides its pivot, so
            # substituting it brings in no pivot column
            for c2 in [k for k in row if k != c and k in rows]:
                f = row.pop(c2)
                for k, v in rows[c2].items():
                    if k != c2:
                        nv = row.get(k, 0) - f * v
                        if nv:
                            row[k] = nv
                        else:
                            row.pop(k, None)
        return rows
