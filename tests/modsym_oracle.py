"""Reference routes for `ModSymSpace`: the union-find quotient, the rational
w_p = +1 space and two spare routes to T_ell.

The union-find route to the Manin-relation quotient is kept as an oracle for
`ModSymSpace`, which reads the two-term and star relations as orbits.

Here each relation x_i = x_(iota i) (star) and x_i = -x_(S i) (two-term) is
imposed one symbol at a time through a signed union-find, on Python ints,
with one scalar index computation per symbol.  The roots are whatever the
unions leave, not orbit minima, so the free coordinates and the reduction
map differ from production's; tests compare what does not depend on the
coordinates.  The three-term relations are eliminated by the same
`linalg.SparseRREF`.
"""

from __future__ import annotations

import numpy as np

from wplus import linalg
from wplus.errors import WplusError
from wplus.modsym import merel_set


class SignedUnionFind:
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


class OracleRelations:
    """The star quotient of the Manin symbols of level p, symbol 0 being
    (0:1) and symbol 1 + d being (1:d), as ``ModSymSpace`` numbers them.

    Attributes: ``free`` (the free symbols), ``dim``, ``genus``, and the
    integer reduction map ``r_num``, column i the coordinates of symbol
    i."""

    def __init__(self, p):
        self.p = p
        n = p + 1

        def idx(c, d):
            c %= p
            d %= p
            if c == 0:
                return 0
            return 1 + d * pow(c, -1, p) % p

        pairs = [(0, 1)] + [(1, d) for d in range(p)]
        uf = SignedUnionFind(n)
        for i, (c, d) in enumerate(pairs):
            uf.relate(i, idx(-c, d), 1)       # star involution
            uf.relate(i, idx(d, -c), -1)      # x + xS = 0
        resolved = [uf.resolve(i) for i in range(n)]
        reducer = linalg.SparseRREF()
        seen = set()
        for i, (c, d) in enumerate(pairs):
            j = idx(d, -c - d)
            k = idx(-c - d, c)
            key = min(i, j, k)
            if key in seen:
                continue
            seen.add(key)
            row = {}
            for t in (i, j, k):
                r, s = resolved[t]
                if s:
                    row[r] = row.get(r, 0) + s
            reducer.add_row(row)
        pivot_rows = reducer.finish()

        roots = {r for r, s in resolved if s}
        self.free = sorted(r for r in roots if r not in pivot_rows)
        self.dim = len(self.free)
        pos = {r: t for t, r in enumerate(self.free)}
        scaled = {r: [(pos[c_], v) for c_, v in row.items() if c_ != r]
                  for r, row in pivot_rows.items()}
        rnum = np.zeros((self.dim, n), dtype=np.int64)
        for i, (r, s) in enumerate(resolved):
            if s and r in scaled:
                for t, v in scaled[r]:
                    rnum[t, i] = -s * v
            elif s:
                rnum[pos[r], i] = s
        self.r_num = rnum
        # the two cusps are the images of (0:1) and (1:0) = symbol 1
        self.genus = self.dim - bool((rnum[:, 0] - rnum[:, 1]).any())


# The rational route to the w_p = +1 space: the cuspidal basis, U_p from
# Merel's matrices and the kernel of U_p + 1 over Fraction.  Production
# reaches that space through W_p alone, on integers.


def cuspidal(space):
    """The kernel of the boundary map b, as dim rows of genus Python ints:
    column i is b_k e_i - b_i e_k for each i != k, with k the first nonzero
    entry of b."""
    b = space.boundary.tolist()
    k = next(i for i, x in enumerate(b) if x)
    others = [i for i in range(space.dim) if i != k]
    return [[b[k] if r == i else -b[i] if r == k else 0
             for i in others] for r in range(space.dim)]


def restrict_to_cuspidal(space, t):
    """Matrix of t (over Q) on the cuspidal subspace, in the basis
    cuspidal(space)."""
    if space.genus == 0:
        return []
    cusp = cuspidal(space)
    sol = linalg.solve(cusp, linalg.mat_mul(t, cusp))
    if sol is None:
        raise WplusError("operator does not preserve the cuspidal subspace")
    return sol


def hecke_matrix_path(space, ell):
    """T_ell by the coset representatives (1, j; 0, ell) for 0 <= j < ell,
    plus (ell, 0; 0, 1) when ell != p, acting on paths."""
    reps = [(1, j, 0, ell) for j in range(ell)]
    if ell != space.p:
        reps.append((ell, 0, 0, 1))
    return space._counts_to_matrix(space._path_counts(reps))


def hecke_matrix_merel(space, n):
    """T_n from Merel's determinant-n matrices, for every n >= 1; n = p
    gives U_p."""
    return space._counts_to_matrix(
        space._count_images(merel_set(n), space.free))


def atkin_lehner_plus(space):
    """Basis (genus x g matrix of columns) of the w_p = +1 cuspidal part.

    w_p acts as -U_p on the cuspidal subspace (prime level is all new), so
    this is the kernel of U_p + 1 in the basis cuspidal(space).
    """
    if space.genus == 0:
        return []
    u = restrict_to_cuspidal(space,
                             hecke_matrix_merel(space, space.p).tolist())
    g = space.genus
    if linalg.mat_mul(u, u) != linalg.identity(g):
        raise WplusError("U_p is not an involution on the cuspidal subspace")
    up1 = [row[:] for row in u]
    for i in range(g):
        up1[i][i] += 1
    kern = linalg.nullspace(up1)
    if not kern:
        return [[] for _ in range(g)]
    return [list(col) for col in zip(*kern)]
