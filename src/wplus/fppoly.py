"""Dense polynomials over F_p: arithmetic, factorization, square roots.

Coefficients are stored low degree first in an int64 numpy array with the
leading coefficient nonzero ([] is the zero polynomial).  Factorization is
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


def convolve_mod(a, b, p, n=None):
    """Product of two int64 arrays of residues mod p (low degree first), mod
    p: the first n coefficients, zero-padded, or all of them when n is None.

    Raises OverflowError, before any arithmetic, when an int64 sum of
    products could overflow for this modulus and these lengths.
    """
    terms = min(len(a), len(b))
    if terms * (p - 1) ** 2 >= _CONV_GUARD:
        raise OverflowError(
            f"modulus {p} too large for an int64 convolution of {terms} terms")
    out = np.convolve(a, b)[:n] % p
    if n is not None and len(out) < n:
        out = np.pad(out, (0, n - len(out)))
    return out


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
        p = self.p
        r = self.coeffs.astype(np.int64).copy()
        d = other.degree()
        inv = pow(other.leading(), -1, p)
        q = np.zeros(max(len(r) - d, 0), dtype=np.int64)
        for i in range(len(r) - 1, d - 1, -1):
            c = r[i] % p
            if c:
                c = c * inv % p
                q[i - d] = c
                r[i - d:i + 1] = (r[i - d:i + 1] - c * other.coeffs) % p
        return FpPoly(p, q), FpPoly(p, r[:d] if d > 0 else r[:0])

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
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def derivative(self):
        if self.degree() < 1:
            return FpPoly.zero(self.p)
        ns = np.arange(1, len(self.coeffs), dtype=np.int64) % self.p
        return FpPoly(self.p, (self.coeffs[1:] * ns) % self.p)

    def pow_mod(self, e, modulus):
        result = FpPoly.one(self.p)
        base = self % modulus
        while e:
            if e & 1:
                result = (result * base) % modulus
            e >>= 1
            if e:
                base = (base * base) % modulus
        return result

    def evaluate(self, x):
        acc = 0
        for c in self.coeffs[::-1]:
            acc = (acc * x + int(c)) % self.p
        return acc

    def shift_x(self, e):
        """Multiply by x^e."""
        if self.is_zero():
            return self
        return FpPoly(self.p, np.concatenate([np.zeros(e, dtype=np.int64),
                                              self.coeffs]))

    def valuation_at(self, root):
        """Multiplicity of (x - root) in self."""
        f = self
        lin = FpPoly.linear(self.p, root)
        m = 0
        while not f.is_zero():
            q, r = f.divmod(lin)
            if not r.is_zero():
                break
            f = q
            m += 1
        return m

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
