"""Dense polynomials over F_p: arithmetic, factorization, square roots.

Coefficients are stored low degree first in an int64 numpy array with the
leading coefficient nonzero ([] is the zero polynomial).  Long divisions
multiply by the Newton inverse of the reversed divisor (von zur Gathen and
Gerhard, Modern Computer Algebra, ch. 9); pow_mod computes that inverse once
per call, and gcd runs Euclid on the arrays.  Factorization is
squarefree decomposition, then distinct-degree splitting, then randomized
equal-degree (Cantor-Zassenhaus) splitting driven by an explicit seeded RNG
for reproducibility.
"""

from __future__ import annotations

import random

import numpy as np

from .errors import InexactDivisionError, OddMultiplicityError

#: np.convolve on int64 wraps silently once a sum of products reaches 2^63.
#: Each output term sums at most min(len a, len b) products of residues, each
#: below p^2, and convolve_mod refuses inputs that could reach this bound.
_CONV_GUARD = 2**62

#: Divisions whose quotient has fewer coefficients than this run the
#: schoolbook loop; longer ones multiply by the Newton inverse of the
#: reversed divisor.  Timed at p = 601 with a fresh inverse, the loop stops
#: being faster between 12 and 16 coefficients for divisors of degree 50,
#: between 8 and 12 at degree 368 and between 4 and 8 at degree 2000.
NEWTON_MIN_QUOTIENT = 16


def _convolution_fits(terms, p):
    """Whether an int64 sum of `terms` products of residues mod p is exact."""
    return terms * (p - 1) ** 2 < _CONV_GUARD


def convolve_mod(a, b, p, n=None):
    """Product of two int64 arrays of residues mod p (low degree first), mod
    p: the first n coefficients, zero-padded, or all of them when n is None.

    Raises OverflowError, before any arithmetic, when an int64 sum of
    products could overflow for this modulus and these lengths.
    """
    terms = min(len(a), len(b))
    if not _convolution_fits(terms, p):
        raise OverflowError(
            f"modulus {p} too large for an int64 convolution of {terms} terms")
    out = np.convolve(a, b)[:n] % p
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
    those divisions take the loop (short quotients, or a modulus too large
    for convolve_mod)."""
    if k < NEWTON_MIN_QUOTIENT or not _convolution_fits(k, p):
        return None
    return inverse_mod_xn(b[::-1], p, k)


def _divmod_arrays(a, b, p, rinv=None):
    """Quotient and trimmed remainder of the residue arrays a by b, with b
    trimmed and nonzero.

    The quotient q of k = len a - deg b coefficients is rev(q) = rev(a) *
    rev(b)^-1 mod x^k, and the remainder a - q*b on the low deg b terms;
    rinv, from _reversed_inverse, is used when it has at least k terms.
    Short quotients, and moduli too large for convolve_mod, take the
    schoolbook loop, one quotient coefficient per step.
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

    def __neg__(self):
        return FpPoly(self.p, -self.coeffs)

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

    def __floordiv__(self, other):
        return self.divmod(other)[0]

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
        m = modulus.coeffs
        rinv = None

        def mul_mod(a, b):
            nonlocal rinv
            c = convolve_mod(a, b, p)
            if rinv is None and len(c) >= len(m):
                # made for the first product that has a quotient; a product
                # of two residues has at most deg m - 1 quotient terms
                rinv = _reversed_inverse(m, p, len(m) - 2)
            return _divmod_arrays(c, m, p, rinv)[1]

        base = _divmod_arrays(self.coeffs, m, p)[1]
        if e and not len(base):
            return FpPoly.zero(p)
        result = np.ones(1, dtype=np.int64)
        while e:
            if e & 1:
                result = mul_mod(result, base)
            e >>= 1
            if e:
                base = mul_mod(base, base)
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

    def _distinct_degree(self):
        """On a monic squarefree input: list of (product of degree-d factors, d)."""
        f = self
        p = self.p
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

    def _equal_degree(self, d, rng):
        """Cantor-Zassenhaus split of a monic squarefree product of
        degree-d irreducibles (p odd)."""
        p = self.p
        if self.degree() == d:
            return [self]
        exp = (p ** d - 1) // 2
        while True:
            a = FpPoly(p, [rng.randrange(p) for _ in range(self.degree())])
            if a.degree() < 1:
                continue
            g = self.gcd(a)
            if 0 < g.degree() < self.degree():
                pass
            else:
                b = a.pow_mod(exp, self)
                g = self.gcd(b - FpPoly.one(p))
                if not (0 < g.degree() < self.degree()):
                    continue
            return (g._equal_degree(d, rng)
                    + self.exact_div(g)._equal_degree(d, rng))

    def factor(self, rng=None):
        """Full factorization into monic irreducibles.

        Returns a list of (irreducible FpPoly, multiplicity), sorted, with
        self = leading * prod.  The RNG drives equal-degree splitting only;
        pass a seeded random.Random for reproducible runs (default seed 0).
        """
        if self.is_zero():
            raise ValueError("cannot factor the zero polynomial")
        if rng is None:
            rng = random.Random(0)
        out = []
        for g, e in self.squarefree_decomposition():
            for h, d in g._distinct_degree():
                if h.degree() == d:
                    out.append((h, e))
                else:
                    out.extend((f, e) for f in h._equal_degree(d, rng))
        out.sort(key=lambda fe: (fe[0].degree(), tuple(int(c) for c in fe[0].coeffs)))
        return out

    def is_irreducible(self):
        if self.degree() < 1:
            return False
        sq = self.squarefree_decomposition()
        if len(sq) != 1 or sq[0][1] != 1:
            return False
        dd = sq[0][0]._distinct_degree()
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


def poly_factor(f, rng=None):
    """Module-level alias for FpPoly.factor."""
    return f.factor(rng)


def poly_sqrt(f):
    """Module-level alias for FpPoly.sqrt."""
    return f.sqrt()
