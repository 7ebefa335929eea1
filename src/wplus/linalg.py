"""Exact linear algebra over Q, on lists of Fraction lists.

Matrices are small here (a few dozen rows), so plain Gaussian elimination
over Fraction is both exact and fast enough.  The one large system in the
package (the Manin-relation matrix) gets a dedicated sparse routine, and
integer matrices get a fraction-free pivot search and inverse.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

_ZERO = Fraction(0)
_ONE = Fraction(1)


def mat_copy(a):
    return [row[:] for row in a]


def identity(n):
    return [[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    n, m, k = len(a), len(b[0]), len(b)
    out = [[_ZERO] * m for _ in range(n)]
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


def mat_add(a, b, sb=1):
    return [[x + sb * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def transpose(a):
    return [list(col) for col in zip(*a)]


def rref(a):
    """Reduced row echelon form; returns (rref matrix, pivot column list)."""
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
        inv = _ONE / m[r][c]
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


def rank(a):
    return len(rref(a)[1])


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
    if not a:
        return []
    red, pivots = rref(a)
    cols = len(a[0])
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [_ZERO] * cols
        v[fc] = _ONE
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def solve(a, b):
    """One solution x of a x = b, or None if inconsistent.

    b may be a vector or a matrix (list of columns given as a matrix with
    the same number of rows as a).
    """
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
    xm = [[_ZERO] * wid for _ in range(cols)]
    for r, pc in enumerate(pivots):
        for j in range(wid):
            xm[pc][j] = red[r][cols + j]
    return [row[0] for row in xm] if vec else xm


def charpoly(a):
    """Characteristic polynomial det(xI - a), Faddeev-LeVerrier.

    Returns coefficients low degree first, length n+1, leading 1.
    """
    n = len(a)
    coeffs = [_ZERO] * (n + 1)
    coeffs[n] = _ONE
    m = identity(n)
    for k in range(1, n + 1):
        m = mat_mul(a, m)
        c = -sum((m[i][i] for i in range(n)), _ZERO) / k
        coeffs[n - k] = c
        for i in range(n):
            m[i][i] += c
    return coeffs


class SparseRREF:
    """Incremental reduced echelon form for sparse rational rows.

    Rows are dicts {column: Fraction}.  After feeding all rows, ``finish``
    back-substitutes so that every pivot row is supported on its pivot column
    and free columns only.
    """

    def __init__(self):
        self.pivot_rows = {}

    def add_row(self, row):
        row = {c: v for c, v in row.items() if v}
        while row:
            c = min(row)
            piv = self.pivot_rows.get(c)
            if piv is None:
                inv = _ONE / row[c]
                self.pivot_rows[c] = {k: v * inv for k, v in row.items()}
                return
            f = row[c]
            for k, v in piv.items():
                nv = row.get(k, _ZERO) - f * v
                if nv:
                    row[k] = nv
                else:
                    row.pop(k, None)

    def finish(self):
        for c in sorted(self.pivot_rows, reverse=True):
            row = self.pivot_rows[c]
            for c2, row2 in self.pivot_rows.items():
                if c2 == c or c not in row2:
                    continue
                f = row2.pop(c)
                for k, v in row.items():
                    if k == c:
                        continue
                    nv = row2.get(k, _ZERO) - f * v
                    if nv:
                        row2[k] = nv
                    else:
                        row2.pop(k, None)
        return self.pivot_rows
