"""Dense polynomials over F_p: arithmetic, factorization, square roots.

Coefficients are stored low degree first in an int64 numpy array with the
leading coefficient nonzero ([] is the zero polynomial), so FpPoly refuses
a modulus whose residues have products past int64.  Every product of
polynomials is convolve_mod, in the dtype that linalg.exact_dtype gives for
its length and modulus: float64 through BLAS, int64 or Python ints.
Long divisions multiply by the Newton inverse of the reversed divisor (von
zur Gathen and Gerhard, Modern Computer Algebra, ch. 9); pow_mod computes
that inverse once per call, and gcd runs Euclid on the arrays.

Factorization is squarefree decomposition, then distinct-degree and
equal-degree splitting on the Frobenius matrix of each squarefree part g
(von zur Gathen and Shoup, Comput. Complexity 2, 1992): Q, with row i equal
to x^(ip) mod g, is built once by float64 products, and h -> h^p mod g is
then one vector-matrix product.  Distinct-degree splitting steps
x^(p^d) through Q and takes one gcd per block of degrees; equal-degree
(Cantor-Zassenhaus) splitting forms a^((p^d - 1)/2) from the a^(p^i) that Q
gives, with random a drawn from random.Random(0); the sorted factors do not
depend on the draws.
"""

from __future__ import annotations

import random

import numpy as np

from .errors import InexactDivisionError, OddMultiplicityError
from .linalg import exact_dtype, exact_matmul

#: Divisions whose quotient has fewer coefficients than this run the
#: schoolbook loop; longer ones multiply by the Newton inverse of the
#: reversed divisor.  Timed at p = 601 with a fresh inverse, the loop stops
#: being faster between 12 and 16 coefficients for divisors of degree 50,
#: between 8 and 12 at degree 368 and between 4 and 8 at degree 2000.
NEWTON_MIN_QUOTIENT = 16

#: Float64 matrix products run in slices of the inner dimension holding at
#: most this many entries of the right factor.  On a 2-vCPU Xeon, OpenBLAS
#: spread whole products of one to three rows by 1306 x 1306 over its
#: threads and took 8 to 32 ms each; in slices they took 0.4 to 0.6 ms.
_MATMUL_SLICE_ENTRIES = 2**18

#: Distinct-degree splitting takes one gcd per block of this many degrees.
DDF_BLOCK = 8

#: Equal-degree splitting gives up after this many attempts in a row that
#: split no piece.  For odd p, a random attempt leaves a piece of two or
#: more degree-d factors unsplit with probability at most 5/9, or draws a
#: constant with probability at most 1/3, so a genuine input stalls this
#: long with probability below (8/9)^200 < 10^-10.
EDF_MAX_STALLS = 200


def int64_sums_fit(terms, p):
    """Whether an int64 sum of `terms` products of residues mod p is exact,
    for elementwise updates that run in int64 whatever the bound."""
    return exact_dtype(terms * (p - 1) ** 2) is not object


def _matmul_mod(a, b, p):
    """a @ b mod p, as int64, for arrays of residues a (a vector or a
    matrix) and b (a float64 matrix), summed in float64 over slices of b's
    rows.  Exact when b has fewer than 2^53 / (p - 1)^2 rows, which the
    caller checks."""
    rows = max(1, _MATMUL_SLICE_ENTRIES // b.shape[1])
    out = a[..., :rows] @ b[:rows]
    for s in range(rows, len(b), rows):
        out += a[..., s:s + rows] @ b[s:s + rows]
    return (out % p).astype(np.int64)


def convolve_mod(a, b, p, n=None):
    """Product of two int64 arrays of residues mod p (low degree first), mod
    p, as int64 residues: the first n coefficients, zero-padded, or all of
    them when n is None.

    Each coefficient sums at most min(len a, len b) products of residues,
    each at most (p - 1)^2, so the convolution runs in the exact_dtype of
    that bound, read from the lengths without scanning the residues.
    """
    dtype = exact_dtype(min(len(a), len(b)) * (p - 1) ** 2)
    out = np.convolve(np.asarray(a, dtype), np.asarray(b, dtype))[:n] % p
    out = out.astype(np.int64, copy=False)
    if n is not None and len(out) < n:
        out = np.pad(out, (0, n - len(out)))
    return out


def inverse_mod_xn(u, p, n):
    """Inverse of the power series u (int64 residues, u[0] a unit) modulo
    x^n, by Newton iteration: each step doubles the correct length."""
    x = np.array([pow(int(u[0]), -1, p)], dtype=np.int64)
    while len(x) < n:
        m = min(2 * len(x), n)
        two_minus = (-convolve_mod(u[:m], x, p, m)) % p
        two_minus[0] = (two_minus[0] + 2) % p
        x = convolve_mod(x, two_minus, p, m)
    return x[:n]


def _trim(c):
    """c without its high zero coefficients."""
    if not len(c) or c[-1]:
        return c
    nz = np.flatnonzero(c)
    return c[:nz[-1] + 1] if nz.size else c[:0]


def _reversed_inverse(b, p, k):
    """Inverse of rev(b) = x^deg b * b(1/x) modulo x^k, for the quotients of
    up to k coefficients that divide by the trimmed array b; None when
    those divisions are short and take the loop."""
    if k < NEWTON_MIN_QUOTIENT:
        return None
    return inverse_mod_xn(b[::-1], p, k)


def _divmod_arrays(a, b, p, rinv=None):
    """Quotient and trimmed remainder of the residue arrays a by b, with b
    trimmed and nonzero.

    The quotient q of k = len a - deg b coefficients is rev(q) = rev(a) *
    rev(b)^-1 mod x^k, and the remainder a - q*b on the low deg b terms;
    rinv, from _reversed_inverse, is used when it has at least k terms.
    Short quotients take the schoolbook loop, one quotient coefficient per
    step.
    """
    d = len(b) - 1
    k = len(a) - d
    if k <= 0:
        return a[:0], a
    if d == 0:
        return a * pow(int(b[0]), -1, p) % p, a[:0]
    if rinv is None or len(rinv) < k:
        rinv = _reversed_inverse(b, p, k)
    if rinv is None:
        r = a.copy()
        q = np.zeros(k, dtype=np.int64)
        inv = pow(int(b[-1]), -1, p)
        for i in range(len(r) - 1, d - 1, -1):
            c = int(r[i])
            if c:
                c = c * inv % p
                q[i - d] = c
                r[i - d:i + 1] = (r[i - d:i + 1] - c * b) % p
        return q, _trim(r[:d])
    q = convolve_mod(a[::-1][:k], rinv[:k], p, k)[::-1]
    r = (a[:d] - convolve_mod(q[:d], b[:d], p, d)) % p
    return q, _trim(r)


def legendre(a, p):
    """Legendre symbol (a/p) in {-1, 0, 1} for an odd prime p."""
    a %= p
    if a == 0:
        return 0
    t = pow(a, (p - 1) // 2, p)
    return 1 if t == 1 else -1


def is_prime(n):
    """Deterministic Miller-Rabin for n < 3.3 * 10^24."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FpPoly:
    """Polynomial over F_p, dense int64 coefficients low degree first."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p, coeffs):
        if (p - 1) ** 2 >= 2**63:
            raise ValueError(f"modulus {p} too large for int64 products")
        c = np.asarray(coeffs, dtype=np.int64) % p
        nz = np.nonzero(c)[0]
        self.p = p
        self.coeffs = c[:int(nz[-1]) + 1] if nz.size else c[:0]

    @classmethod
    def zero(cls, p):
        return cls(p, [])

    @classmethod
    def one(cls, p):
        return cls(p, [1])

    @classmethod
    def x(cls, p):
        return cls(p, [0, 1])

    @classmethod
    def linear(cls, p, root):
        """x - root."""
        return cls(p, [-root, 1])

    @classmethod
    def from_roots(cls, p, roots):
        f = cls.one(p)
        for r in roots:
            f = f * cls.linear(p, r)
        return f

    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return len(self.coeffs) == 0

    def is_one(self):
        return len(self.coeffs) == 1 and self.coeffs[0] == 1

    def __bool__(self):
        return not self.is_zero()

    def leading(self):
        if self.is_zero():
            raise ValueError("zero polynomial has no leading coefficient")
        return int(self.coeffs[-1])

    def is_monic(self):
        return not self.is_zero() and self.coeffs[-1] == 1

    def monic(self):
        if self.is_zero():
            return self
        inv = pow(self.leading(), -1, self.p)
        return FpPoly(self.p, (self.coeffs * inv) % self.p)

    def __eq__(self, other):
        if not isinstance(other, FpPoly):
            return NotImplemented
        return self.p == other.p and np.array_equal(self.coeffs, other.coeffs)

    def __hash__(self):
        return hash((self.p, self.coeffs.tobytes()))

    def _binop(self, other, sign):
        if self.p != other.p:
            raise ValueError("modulus mismatch")
        n = max(len(self.coeffs), len(other.coeffs))
        a = np.zeros(n, dtype=np.int64)
        a[:len(self.coeffs)] = self.coeffs
        a[:len(other.coeffs)] += sign * other.coeffs
        return FpPoly(self.p, a)

    def __add__(self, other):
        return self._binop(other, 1)

    def __sub__(self, other):
        return self._binop(other, -1)

    def __mul__(self, other):
        if isinstance(other, (int, np.integer)):
            return FpPoly(self.p, self.coeffs * (int(other) % self.p))
        if self.p != other.p:
            raise ValueError("modulus mismatch")
        if self.is_zero() or other.is_zero():
            return FpPoly.zero(self.p)
        return FpPoly(self.p, convolve_mod(self.coeffs, other.coeffs, self.p))

    __rmul__ = __mul__

    def __pow__(self, e):
        if e < 0:
            raise ValueError("negative powers not supported for FpPoly")
        result = FpPoly.one(self.p)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def divmod(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        q, r = _divmod_arrays(self.coeffs, other.coeffs, self.p)
        return FpPoly(self.p, q), FpPoly(self.p, r)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def exact_div(self, other):
        """Quotient, raising InexactDivisionError on a nonzero remainder."""
        q, r = self.divmod(other)
        if not r.is_zero():
            raise InexactDivisionError(
                f"division left a remainder of degree {r.degree()}")
        return q

    def gcd(self, other):
        """Monic gcd, by Euclid on the coefficient arrays."""
        a, b = self.coeffs, other.coeffs
        while len(b):
            a, b = b, _divmod_arrays(a, b, self.p)[1]
        return FpPoly(self.p, a).monic()

    def derivative(self):
        if self.degree() < 1:
            return FpPoly.zero(self.p)
        ns = np.arange(1, len(self.coeffs), dtype=np.int64) % self.p
        return FpPoly(self.p, (self.coeffs[1:] * ns) % self.p)

    def pow_mod(self, e, modulus):
        """self^e mod modulus, by square-and-multiply; every product is
        reduced with one Newton inverse of the reversed modulus."""
        if e < 0:
            raise ValueError("negative powers not supported for FpPoly")
        if modulus.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        p = self.p
        mod = _Reducer(modulus, len(self.coeffs))
        base = mod(self.coeffs)
        if e and not len(base):
            return FpPoly.zero(p)
        result = np.ones(1, dtype=np.int64)
        while e:
            if e & 1:
                result = mod.product(result, base)
            e >>= 1
            if e:
                base = mod.product(base, base)
        return FpPoly(p, result)

    def evaluate(self, x):
        acc = 0
        for c in self.coeffs[::-1]:
            acc = (acc * x + int(c)) % self.p
        return acc

    # -- factorization ---------------------------------------------------------

    def _pth_root(self):
        """For f with f' = 0, return g with g(x)^p = f(x); F_p-coefficient
        Frobenius is the identity, so g collects every p-th coefficient."""
        return FpPoly(self.p, self.coeffs[::self.p])

    def squarefree_decomposition(self):
        """List of (monic squarefree g_i, multiplicity e_i), pairwise coprime,
        with self = leading * prod g_i^e_i."""
        out = []
        stack = [(self.monic(), 1)]
        while stack:
            f, mult = stack.pop()
            if f.degree() < 1:
                continue
            fp = f.derivative()
            if fp.is_zero():
                stack.append((f._pth_root(), mult * self.p))
                continue
            t = f.gcd(fp)
            v = f.exact_div(t)
            k = 0
            while v.degree() > 0:
                k += 1
                w = v.gcd(t)
                z = v.exact_div(w)
                if z.degree() > 0:
                    out.append((z, mult * k))
                v = w
                t = t.exact_div(w)
            if t.degree() > 0:
                stack.append((t._pth_root(), mult * self.p))
        out.sort(key=lambda ge: (ge[1], ge[0].degree(), tuple(ge[0].coeffs)))
        return out

    def distinct_degree(self, frob=None):
        """On a monic squarefree input g: list of (product of the degree-d
        irreducible factors, d) for each d that occurs.  frob is
        Frobenius(g), built here when not given.

        h_d = x^(p^d) mod g steps through frob.  Each block of DDF_BLOCK
        degrees takes one gcd of the unsplit part f with the product of the
        h_d - x mod f, and only a block whose gcd is nontrivial is refined
        degree by degree.  Once deg f < 2(d + 1), f is irreducible.
        """
        p = self.p
        if frob is None:
            frob = Frobenius(self)
        x = FpPoly.x(p)
        f = self
        out = []
        h = _divmod_arrays(x.coeffs, self.coeffs, p)[1]
        d = 0
        block, acc = [], np.ones(1, dtype=np.int64)
        mod_f = _Reducer(f, self.degree())
        while 2 * (d + 1) <= f.degree():
            d += 1
            h = frob(h)
            h_x = FpPoly(p, h) - x
            block.append((d, h_x))
            acc = mod_f.product(acc, mod_f(h_x.coeffs))
            if len(block) < DDF_BLOCK and 2 * (d + 1) <= f.degree():
                continue
            found = f.gcd(FpPoly(p, acc))
            for e, h_x in block:
                if found.degree() < e:
                    break
                w = found.gcd(h_x)
                if w.degree() > 0:
                    out.append((w, e))
                    found = found.exact_div(w)
                    f = f.exact_div(w)
                    mod_f = _Reducer(f, self.degree())
            block, acc = [], np.ones(1, dtype=np.int64)
        if f.degree() > 0:
            out.append((f, f.degree()))
        return out

    def _equal_degree(self, d, frob, rng):
        """Cantor-Zassenhaus split of a monic squarefree product of
        degree-d irreducibles (p odd), where frob is the Frobenius modulo
        a multiple g of self.

        For random a of degree below n = deg self, a^((p^d - 1)/2) is
        (a a^p ... a^(p^(d-1)))^((p - 1)/2), the a^(p^i) mod g coming from
        frob.  Each a refines every piece still of degree above d by its
        gcd with a^((p^d - 1)/2) - 1.  ValueError when the input is no such
        product: a piece whose degree is not a multiple of d, or
        EDF_MAX_STALLS attempts in a row that split nothing.
        """
        p, n = self.p, self.degree()
        if n % d:
            raise ValueError(f"degree {n} is not a multiple of {d}")
        if n == d:
            return [self]
        if p == 2:
            raise ValueError("equal-degree splitting needs an odd p")
        mod_self = _Reducer(self, frob.n)
        done, pieces = [], [self]
        stalls = 0
        while pieces:
            if stalls == EDF_MAX_STALLS:
                raise ValueError(
                    f"no split in {stalls} attempts: not a product of "
                    f"degree-{d} irreducibles")
            stalls += 1
            power = prod = _trim(np.array(
                [rng.randrange(p) for _ in range(n)], dtype=np.int64))
            if len(prod) < 2:
                continue
            for _ in range(d - 1):
                power = frob(power)
                prod = mod_self.product(prod, mod_self(power))
            t = FpPoly(p, prod).pow_mod((p - 1) // 2, self) - FpPoly.one(p)
            unsplit = []
            for u in pieces:
                w = u.gcd(t)
                split = [u]
                if 0 < w.degree() < u.degree():
                    split = [w, u.exact_div(w)]
                    stalls = 0
                for v in split:
                    if v.degree() % d:
                        raise ValueError(
                            f"a piece of degree {v.degree()} is not a "
                            f"product of degree-{d} irreducibles")
                    (done if v.degree() == d else unsplit).append(v)
            pieces = unsplit
        return done

    def factor(self):
        """Full factorization into monic irreducibles.

        Returns a list of (irreducible FpPoly, multiplicity), sorted, with
        self = leading * prod.  Equal-degree splitting draws from
        random.Random(0); the sorted result does not depend on the draws.
        Raises OverflowError when a squarefree part of degree n has
        n (p - 1)^2 >= 2^53 (see Frobenius).
        """
        if self.is_zero():
            raise ValueError("cannot factor the zero polynomial")
        rng = random.Random(0)
        out = []
        for g, e in self.squarefree_decomposition():
            frob = Frobenius(g)
            for h, d in g.distinct_degree(frob):
                out.extend((f, e) for f in h._equal_degree(d, frob, rng))
        out.sort(key=lambda fe: (fe[0].degree(), tuple(int(c) for c in fe[0].coeffs)))
        return out

    def is_irreducible(self):
        """By distinct-degree splitting; raises OverflowError as factor
        does."""
        if self.degree() < 1:
            return False
        sq = self.squarefree_decomposition()
        if len(sq) != 1 or sq[0][1] != 1:
            return False
        g = sq[0][0]
        dd = g.distinct_degree()
        return len(dd) == 1 and dd[0][1] == self.degree()

    def sqrt(self):
        """Monic square root, by halving multiplicities in the squarefree
        decomposition; raises OddMultiplicityError if self is not a square."""
        if not self.is_monic():
            raise ValueError("sqrt expects a monic polynomial")
        if self.is_one():
            return self
        root = FpPoly.one(self.p)
        for g, e in self.squarefree_decomposition():
            if e % 2:
                raise OddMultiplicityError(
                    f"squarefree part of degree {g.degree()} has odd exponent {e}")
            root = root * g ** (e // 2)
        return root

    def resultant(self, other):
        """Resultant of self and other, by the Euclidean remainder sequence."""
        p = self.p
        f, g = self, other
        if f.is_zero() or g.is_zero():
            return 0
        res = 1
        while g.degree() > 0:
            r = f % g
            if r.is_zero():
                return 0
            res = res * pow(g.leading(), f.degree() - r.degree(), p) % p
            if (f.degree() * g.degree()) % 2:
                res = (-res) % p
            f, g = g, r
        return res * pow(g.leading(), f.degree(), p) % p

    def __repr__(self):
        if self.is_zero():
            return f"FpPoly(p={self.p}, 0)"
        terms = []
        for i in range(self.degree(), -1, -1):
            c = int(self.coeffs[i])
            if c:
                if i == 0:
                    terms.append(f"{c}")
                elif i == 1:
                    terms.append(f"{c}*x" if c != 1 else "x")
                else:
                    terms.append(f"{c}*x^{i}" if c != 1 else f"x^{i}")
        return f"FpPoly(p={self.p}, {' + '.join(terms)})"


class _Reducer:
    """Reduction modulo a nonzero f of arrays of at most `longest`
    coefficients, and products of residues modulo f, all with one Newton
    inverse of the reversed f (a product of two residues has at most
    deg f - 1 quotient terms)."""

    def __init__(self, f, longest):
        self.p, self.f = f.p, f.coeffs
        self.rinv = _reversed_inverse(
            f.coeffs, f.p, max(f.degree() - 1, longest - f.degree()))

    def __call__(self, a):
        return _divmod_arrays(a, self.f, self.p, self.rinv)[1]

    def product(self, a, b):
        """a * b mod f, for residues a and b; zero when either is."""
        if not (len(a) and len(b)):
            return a[:0]
        return self(convolve_mod(a, b, self.p))


class Frobenius:
    """The map h -> h^p on F_p[x]/(g), for a monic g of degree n >= 1.

    h has its coefficients in F_p, so h^p = sum h_i x^(ip): the map is the
    matrix Q whose row i is x^(ip) mod g.  Q is built by doubling: with rows
    0..k-1 known, rows k..2k-1 are Q[:k] T_k, where T_k multiplies by
    x^(kp) mod g, and x^(2kp) = x^(kp) T_k.  The products run in float64,
    exact because each entry sums at most n products of residues: the
    constructor raises OverflowError, before any arithmetic, unless
    linalg.exact_dtype gives float64 for n (p - 1)^2.  Q holds 8 n^2 bytes
    (14 MB for H at p = 1009, n = 1306), and building it holds two more
    matrices of that size.

    Q is kept in float64 and multiplied by _matmul_mod, not by
    linalg.exact_matmul: each call is one vector times the n x n matrix,
    and a bound scan of Q on every call would cost more than the product.
    """

    def __init__(self, g):
        p, n = g.p, g.degree()
        self.p, self.n, self.g = p, n, g
        if exact_dtype(n * (p - 1) ** 2) is not np.float64:
            raise OverflowError(
                f"modulus {p} too large for a float64 Frobenius matrix of "
                f"degree {n}")
        q = np.zeros((n, n))
        q[0, 0] = 1
        h = self._padded(FpPoly.x(p).pow_mod(p, g).coeffs)
        k = 1
        while k < n:
            t = self._times(h)
            m = min(k, n - k)
            q[k:k + m] = _matmul_mod(q[:m], t, p)
            if 2 * k < n:
                h = _matmul_mod(h, t, p)
            k *= 2
        self.matrix = q

    def _padded(self, h):
        """h as a float64 vector of n coefficients."""
        out = np.zeros(self.n)
        out[:len(h)] = h
        return out

    def _times(self, h):
        """Float64 matrix of multiplication by h mod g: row j is x^j h.

        Each row is the one before shifted up, plus its top coefficient
        times x^n = -(g - x^n) mod g.  Only that coefficient is reduced on
        the way; every entry stays below n p^2 < 2^62 until the whole
        matrix is reduced at the end."""
        p, n = self.p, self.n
        low = -self.g.coeffs[:n] % p
        t = np.empty((n, n), dtype=np.int64)
        t[0] = h
        for j in range(1, n):
            prev = t[j - 1]
            t[j, 0] = 0
            t[j, 1:] = prev[:-1]
            t[j] += int(prev[-1]) % p * low
        t %= p
        return t.astype(np.float64)

    def __call__(self, h):
        """h^p mod g, for an int64 array h of at most n residues."""
        return _trim(_matmul_mod(self._padded(h), self.matrix, self.p))


# -- F_{p^2} on pairs of int64 arrays ------------------------------------------

def inverse_table(p):
    """Array inv with inv[a] * a = 1 mod p for 0 < a < p, and inv[0] = 0:
    a^(p-2) by square-and-multiply on all residues at once."""
    base = np.arange(p, dtype=np.int64)
    out = np.ones(p, dtype=np.int64)
    e = p - 2
    while e:
        if e & 1:
            out = out * base % p
        e >>= 1
        if e:
            base = base * base % p
    return out


class Fp2:
    """F_{p^2} = F_p[w]/(w^2 - n), n the least quadratic non-residue mod p.

    An element is a pair (re, im) standing for re + im w, of Python ints or
    of int64 arrays of residues that broadcast together.  An elementwise
    int64 sum (mul, inverse, a row update of det) adds at most three
    products of residues, so the constructor raises OverflowError, before
    the table of inverses (8p bytes) is built, unless three fit; matvec
    multiplies exactly at any p (linalg.exact_matmul).
    """

    def __init__(self, p):
        if not int64_sums_fit(3, p):
            raise OverflowError(
                f"modulus {p} too large for int64 sums of 3 products")
        self.p = p
        self.n = next(a for a in range(2, p) if legendre(a, p) == -1)
        self.inv = inverse_table(p)

    def mul(self, x, y):
        (a, b), (c, d) = x, y
        p = self.p
        return (a * c + self.n * (b * d % p)) % p, (a * d + b * c) % p

    def inverse(self, x):
        """x^-1 = conj(x) / norm(x), with 0 for 0."""
        a, b = x
        p = self.p
        norm_inv = self.inv[(a * a - self.n * (b * b % p)) % p]
        return a * norm_inv % p, -b * norm_inv % p

    def power(self, x, e):
        out = (1, 0)
        while e:
            if e & 1:
                out = self.mul(out, x)
            e >>= 1
            if e:
                x = self.mul(x, x)
        return out

    def roots_of_unity(self, order):
        """(re, im) arrays of zeta^0, ..., zeta^(order - 1) for an element
        zeta of multiplicative order exactly `order`, a divisor of p^2 - 1:
        the first zeta = z^((p^2 - 1)/order), over z = a + b w with
        b = 1, 2, ..., whose powers below the order-th all differ from 1.
        The table doubles with each multiplication."""
        p = self.p
        cofactor, rest = divmod(p * p - 1, order)
        if rest:
            raise ValueError(f"{order} does not divide {p}^2 - 1")
        for b in range(1, p):
            for a in range(p):
                step = self.power((a, b), cofactor)
                re = np.ones(1, dtype=np.int64)
                im = np.zeros(1, dtype=np.int64)
                while len(re) < order:
                    hi_re, hi_im = self.mul((re, im), step)
                    re = np.concatenate([re, hi_re])
                    im = np.concatenate([im, hi_im])
                    step = self.mul(step, step)
                re, im = re[:order], im[:order]
                if not ((re[1:] == 1) & (im[1:] == 0)).any():
                    return re, im
        raise ArithmeticError(f"F_{p}^2 has no element of order {order}")

    def matvec(self, x, m):
        """x @ m for a vector x and a matrix m, each of the four products
        of parts by linalg.exact_matmul."""
        p = self.p
        (a, b), (c, d) = x, m
        ac, bd, ad, bc = (exact_matmul(u, v) % p
                          for u, v in ((a, c), (b, d), (a, d), (b, c)))
        return (ac + self.n * bd) % p, (ad + bc) % p

    def det(self, m):
        """Determinants of a stack of square matrices m = (re, im), each
        array of shape (points, g, g), by one Gaussian elimination over all
        of them at once with a pivot row chosen per matrix; a matrix with no
        pivot in a column has determinant 0."""
        p = self.p
        re, im = m[0].copy(), m[1].copy()
        points, g = re.shape[:2]
        rows = np.arange(points)
        det = np.ones(points, dtype=np.int64), np.zeros(points, dtype=np.int64)
        for c in range(g):
            nonzero = (re[:, c:, c] != 0) | (im[:, c:, c] != 0)
            piv = c + nonzero.argmax(axis=1)
            for a in (re, im):
                a[rows, c], a[rows, piv] = a[rows, piv], a[rows, c]
            sign = np.where(piv == c, 1, p - 1)
            pivot = re[:, c, c], im[:, c, c]
            det = self.mul(det, (pivot[0] * sign % p, pivot[1] * sign % p))
            if c + 1 == g:
                break
            inv = self.inverse(pivot)
            f_re, f_im = self.mul((re[:, c + 1:, c], im[:, c + 1:, c]),
                                  (inv[0][:, None], inv[1][:, None]))
            f_re, f_im, f_nim = (f[:, :, None] for f in
                                 (f_re, f_im, self.n * f_im % p))
            r_re, r_im = re[:, None, c, c + 1:], im[:, None, c, c + 1:]
            # row -= f * pivot row, with one reduction per part: each part
            # subtracts two products of residues from a residue
            re[:, c + 1:, c + 1:] = (re[:, c + 1:, c + 1:] - f_re * r_re
                                     - f_nim * r_im) % p
            im[:, c + 1:, c + 1:] = (im[:, c + 1:, c + 1:] - f_re * r_im
                                     - f_im * r_re) % p
        return det
