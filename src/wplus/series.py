"""Truncated q-expansions with exact precision bookkeeping.

Two dense representations share one interface:

* ``QExpansion``   -- exact rational coefficients (fractions.Fraction),
* ``FpSeries``     -- coefficients in the prime field F_p (numpy int64).

A series stores the coefficients of q^n for valuation <= n < precision.
Every arithmetic operation computes the exact precision of its result; there
is no silent truncation.  Laurent tails (negative valuation, e.g. the
j-function) are allowed.  ``weight`` is formal bookkeeping: it adds under
multiplication, subtracts under division, and must match under addition.

``residue_matrix`` reduces series to one int64 row of residues each.  The
verification pipeline builds neither: it reduces the good basis from its
integer numerator rows (``GoodBasis.residues``), runs the chain on residue
arrays, and sums the q-series of j from a list of Python ints
(``level1.j_function``).  The users are the tests, their oracles and the
rational level-1 route.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .errors import NotPIntegralError, PrecisionError
from .fppoly import convolve_mod, inverse_mod_xn


def _mul_precision(va, pa, vb, pb):
    return min(pa + vb, pb + va)


def _div_precision(va, pa, vb, pb):
    return min(pa - vb, pb + va - 2 * vb)


class QExpansion:
    """q-expansion with exact rational coefficients."""

    __slots__ = ("coeffs", "valuation", "precision", "weight", "level")

    def __init__(self, coeffs, valuation, precision, weight=0, level=1):
        coeffs = [Fraction(c) for c in coeffs]
        # strip leading zeros, advancing the valuation
        while coeffs and coeffs[0] == 0:
            coeffs.pop(0)
            valuation += 1
        if not coeffs:
            valuation = precision
        if valuation > precision:
            raise ValueError("valuation exceeds precision")
        if len(coeffs) != precision - valuation:
            raise ValueError("coefficient window does not match precision")
        self.coeffs = tuple(coeffs)
        self.valuation = valuation
        self.precision = precision
        self.weight = weight
        self.level = level

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zero(cls, precision, weight=0, level=1):
        return cls([], precision, precision, weight, level)

    @classmethod
    def one(cls, precision, weight=0, level=1):
        return cls([1] + [0] * (precision - 1), 0, precision, weight, level)

    @classmethod
    def from_dict(cls, d, precision, weight=0, level=1):
        if not d:
            return cls.zero(precision, weight, level)
        v = min(d)
        coeffs = [d.get(n, 0) for n in range(v, precision)]
        return cls(coeffs, v, precision, weight, level)

    def is_zero(self):
        return not self.coeffs

    def coefficient(self, n):
        """Coefficient of q^n; raises if n is beyond the known window."""
        if n >= self.precision:
            raise PrecisionError(
                f"coefficient of q^{n} unknown (precision {self.precision})")
        if n < self.valuation:
            return Fraction(0)
        return self.coeffs[n - self.valuation]

    def coefficients(self, upto):
        """List of coefficients of q^0 .. q^(upto-1); valuation must be >= 0."""
        return [self.coefficient(n) for n in range(upto)]

    # -- arithmetic -----------------------------------------------------------

    def _check_compatible(self, other, add):
        if self.level != other.level:
            raise ValueError(f"level mismatch: {self.level} vs {other.level}")
        if add and self.weight != other.weight:
            raise ValueError(f"weight mismatch: {self.weight} vs {other.weight}")

    def __add__(self, other):
        self._check_compatible(other, add=True)
        prec = min(self.precision, other.precision)
        if self.is_zero() and other.is_zero():
            return QExpansion.zero(prec, self.weight, self.level)
        v = min(self.valuation, other.valuation, prec)
        coeffs = [
            (self.coeffs[n - self.valuation] if self.valuation <= n < self.precision else 0)
            + (other.coeffs[n - other.valuation] if other.valuation <= n < other.precision else 0)
            for n in range(v, prec)
        ]
        return QExpansion(coeffs, v, prec, self.weight, self.level)

    def __neg__(self):
        return QExpansion([-c for c in self.coeffs], self.valuation,
                          self.precision, self.weight, self.level)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_compatible(other, add=False)
        w = self.weight + other.weight
        prec = _mul_precision(self.valuation, self.precision,
                              other.valuation, other.precision)
        if self.is_zero() or other.is_zero():
            v = min(self.valuation + other.valuation, prec)
            return QExpansion([0] * (prec - v), v, prec, w, self.level)
        v = self.valuation + other.valuation
        n = prec - v
        a, b = self.coeffs, other.coeffs
        out = [Fraction(0)] * n
        for i, ai in enumerate(a):
            if i >= n:
                break
            if ai == 0:
                continue
            top = min(len(b), n - i)
            for j in range(top):
                if b[j]:
                    out[i + j] += ai * b[j]
        return QExpansion(out, v, prec, w, self.level)

    __rmul__ = __mul__

    def scale(self, c):
        c = Fraction(c)
        if c == 0:
            return QExpansion.zero(self.precision, self.weight, self.level)
        return QExpansion([c * x for x in self.coeffs], self.valuation,
                          self.precision, self.weight, self.level)

    def __truediv__(self, other):
        """Division; other must have a known nonzero coefficient."""
        self._check_compatible(other, add=False)
        if other.is_zero():
            raise ZeroDivisionError("division by a series with no known nonzero term")
        w = self.weight - other.weight
        va, vb = self.valuation, other.valuation
        prec = _div_precision(va, self.precision, vb, other.precision)
        v = va - vb
        n = prec - v
        if n <= 0:
            raise PrecisionError("no quotient coefficients determinable")
        if self.is_zero():
            return QExpansion([0] * n, v, prec, w, self.level)
        a = [self.coefficient(va + i) if va + i < self.precision else Fraction(0)
             for i in range(n)]
        b = [other.coefficient(vb + i) if vb + i < other.precision else Fraction(0)
             for i in range(n)]
        lead = b[0]
        out = [Fraction(0)] * n
        for k in range(n):
            acc = a[k]
            for i in range(k):
                if out[i]:
                    acc -= out[i] * b[k - i]
            out[k] = acc / lead
        return QExpansion(out, v, prec, w, self.level)

    def __pow__(self, e):
        if e < 0:
            return QExpansion.one(self.precision - self.valuation,
                                  0, self.level) / self ** (-e)
        result = None
        base = self
        while e:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if e:
                base = base * base
        if result is None:
            return QExpansion.one(self.precision, 0, self.level)
        return result

    def __eq__(self, other):
        if not isinstance(other, QExpansion):
            return NotImplemented
        return (self.coeffs == other.coeffs and self.valuation == other.valuation
                and self.precision == other.precision and self.weight == other.weight
                and self.level == other.level)

    def __hash__(self):
        return hash((self.coeffs, self.valuation, self.precision,
                     self.weight, self.level))

    # -- structural operations ------------------------------------------------

    def truncate(self, precision):
        if precision > self.precision:
            raise PrecisionError("cannot extend precision by truncation")
        return QExpansion(list(self.coeffs[:precision - self.valuation]),
                          self.valuation, precision, self.weight, self.level) \
            if precision > self.valuation else \
            QExpansion.zero(precision, self.weight, self.level)

    def theta(self):
        """Apply q d/dq: multiply the coefficient of q^n by n.

        The formal weight goes up by 2 so that Wronskian rows built from
        iterated theta derivatives stay weight-consistent.
        """
        coeffs = [n * c for n, c in
                  zip(range(self.valuation, self.precision), self.coeffs)]
        return QExpansion(coeffs, self.valuation, self.precision,
                          self.weight + 2, self.level)

    def is_p_integral(self, p):
        """True iff no coefficient denominator is divisible by p."""
        return all(c.denominator % p != 0 for c in self.coeffs)

    def _residues(self, p, upto):
        """int64 residues mod p of the coefficients of q^valuation ..
        q^(upto-1), one inverse per distinct denominator; NotPIntegralError
        unless they are p-integral."""
        inverses = {}
        out = []
        for n, c in enumerate(self.coeffs[:upto - self.valuation],
                              start=self.valuation):
            den = c.denominator
            inv = inverses.get(den)
            if inv is None:
                if den % p == 0:
                    raise NotPIntegralError(
                        f"coefficient of q^{n} has denominator divisible "
                        f"by {p}")
                inv = inverses[den] = pow(den, -1, p)
            out.append(c.numerator * inv % p)
        return np.array(out, dtype=np.int64)

    def reduce_mod(self, p):
        """Reduce to an FpSeries; requires p-integral coefficients."""
        return FpSeries(p, self._residues(p, self.precision), self.valuation,
                        self.precision, self.weight)

    def __repr__(self):
        terms = []
        for n in range(self.valuation, min(self.precision, self.valuation + 8)):
            c = self.coefficient(n)
            if c:
                terms.append(f"{c}*q^{n}")
        body = " + ".join(terms) if terms else "0"
        return f"QExpansion({body} + O(q^{self.precision}), weight={self.weight})"


class FpSeries:
    """q-expansion with coefficients in F_p, numpy-backed."""

    __slots__ = ("p", "coeffs", "valuation", "precision", "weight")

    def __init__(self, p, coeffs, valuation, precision, weight=0):
        coeffs = np.asarray(coeffs, dtype=np.int64) % p
        nz = np.nonzero(coeffs)[0]
        if nz.size:
            valuation += int(nz[0])
            coeffs = coeffs[nz[0]:]
        else:
            coeffs = coeffs[:0]
            valuation = precision
        if valuation > precision:
            raise ValueError("valuation exceeds precision")
        if len(coeffs) != precision - valuation:
            raise ValueError("coefficient window does not match precision")
        self.p = p
        self.coeffs = coeffs
        self.valuation = valuation
        self.precision = precision
        self.weight = weight

    @classmethod
    def zero(cls, p, precision, weight=0):
        return cls(p, [], precision, precision, weight)

    @classmethod
    def one(cls, p, precision, weight=0):
        c = np.zeros(precision, dtype=np.int64)
        c[0] = 1
        return cls(p, c, 0, precision, weight)

    def is_zero(self):
        return self.coeffs.size == 0

    def coefficient(self, n):
        if n >= self.precision:
            raise PrecisionError(
                f"coefficient of q^{n} unknown (precision {self.precision})")
        if n < self.valuation:
            return 0
        return int(self.coeffs[n - self.valuation])

    def coefficients(self, upto):
        return [self.coefficient(n) for n in range(upto)]

    def _check(self, other, add):
        if self.p != other.p:
            raise ValueError(f"modulus mismatch: {self.p} vs {other.p}")
        if add and self.weight != other.weight:
            raise ValueError(f"weight mismatch: {self.weight} vs {other.weight}")

    def _window(self, v, prec):
        """Coefficient array for exponents v .. prec-1, zero-padded."""
        out = np.zeros(prec - v, dtype=np.int64)
        lo = max(v, self.valuation)
        hi = min(prec, self.precision)
        if lo < hi:
            out[lo - v:hi - v] = self.coeffs[lo - self.valuation:hi - self.valuation]
        return out

    def __add__(self, other):
        self._check(other, add=True)
        prec = min(self.precision, other.precision)
        v = min(self.valuation, other.valuation, prec)
        return FpSeries(self.p, (self._window(v, prec) + other._window(v, prec)) % self.p,
                        v, prec, self.weight)

    def __neg__(self):
        return FpSeries(self.p, (-self.coeffs) % self.p, self.valuation,
                        self.precision, self.weight)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = c % self.p
        if c == 0:
            return FpSeries.zero(self.p, self.precision, self.weight)
        return FpSeries(self.p, (self.coeffs * c) % self.p, self.valuation,
                        self.precision, self.weight)

    def __mul__(self, other):
        if isinstance(other, (int, np.integer)):
            return self.scale(int(other))
        self._check(other, add=False)
        w = self.weight + other.weight
        prec = _mul_precision(self.valuation, self.precision,
                              other.valuation, other.precision)
        v = min(self.valuation + other.valuation, prec)
        if self.is_zero() or other.is_zero():
            return FpSeries(self.p, np.zeros(prec - v, dtype=np.int64), v, prec, w)
        conv = convolve_mod(self.coeffs, other.coeffs, self.p, prec - v)
        return FpSeries(self.p, conv, v, prec, w)

    __rmul__ = __mul__

    def _unit_inverse(self, nterms):
        """Inverse of the unit part (coeffs shifted to valuation 0), by Newton."""
        return inverse_mod_xn(self.coeffs, self.p, nterms)

    def __truediv__(self, other):
        self._check(other, add=False)
        if other.is_zero():
            raise ZeroDivisionError("division by a series with no known nonzero term")
        w = self.weight - other.weight
        va, vb = self.valuation, other.valuation
        prec = _div_precision(va, self.precision, vb, other.precision)
        v = va - vb
        n = prec - v
        if n <= 0:
            raise PrecisionError("no quotient coefficients determinable")
        if self.is_zero():
            return FpSeries(self.p, np.zeros(n, dtype=np.int64), v, prec, w)
        inv = other._unit_inverse(n)
        a = self._window(va, va + n)
        return FpSeries(self.p, convolve_mod(a, inv, self.p, n), v, prec, w)

    def __pow__(self, e):
        if e < 0:
            raise ValueError("negative powers not supported for FpSeries")
        result = None
        base = self
        while e:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if e:
                base = base * base
        if result is None:
            return FpSeries.one(self.p, self.precision)
        return result

    def __eq__(self, other):
        if not isinstance(other, FpSeries):
            return NotImplemented
        return (self.p == other.p and self.valuation == other.valuation
                and self.precision == other.precision and self.weight == other.weight
                and np.array_equal(self.coeffs, other.coeffs))

    def truncate(self, precision):
        if precision > self.precision:
            raise PrecisionError("cannot extend precision by truncation")
        if precision <= self.valuation:
            return FpSeries.zero(self.p, precision, self.weight)
        return FpSeries(self.p, self.coeffs[:precision - self.valuation],
                        self.valuation, precision, self.weight)

    def shift(self, n):
        return FpSeries(self.p, self.coeffs, self.valuation + n,
                        self.precision + n, self.weight)

    def theta(self):
        ns = np.arange(self.valuation, self.precision, dtype=np.int64) % self.p
        return FpSeries(self.p, (self.coeffs * ns) % self.p, self.valuation,
                        self.precision, self.weight + 2)

    def agrees_with(self, other, upto=None):
        """Coefficientwise equality through the shared known window."""
        self._check(other, add=False)
        prec = min(self.precision, other.precision)
        if upto is not None:
            prec = min(prec, upto)
        v = min(self.valuation, other.valuation, prec)
        return np.array_equal(self._window(v, prec), other._window(v, prec))

    def __repr__(self):
        terms = []
        for n in range(self.valuation, min(self.precision, self.valuation + 8)):
            c = self.coefficient(n)
            if c:
                terms.append(f"{c}*q^{n}")
        body = " + ".join(terms) if terms else "0"
        return f"FpSeries(p={self.p}, {body} + O(q^{self.precision}))"


def residue_matrix(forms, p, prec):
    """Residues mod p of the coefficients of q^0 .. q^(prec-1) of series of
    valuation >= 0, one int64 row per series.  A QExpansion is reduced
    first (NotPIntegralError unless it is p-integral); PrecisionError when a
    series is not known below q^prec.
    """
    out = np.zeros((len(forms), prec), dtype=np.int64)
    for row, f in zip(out, forms):
        if f.valuation < 0:
            raise ValueError("residue rows start at q^0")
        if f.precision < prec:
            raise PrecisionError(
                f"series known below q^{f.precision}, need q^{prec}")
        if f.valuation >= prec:
            continue
        if isinstance(f, QExpansion):
            row[f.valuation:] = f._residues(p, prec)
        elif f.p == p:
            row[f.valuation:] = f.coeffs[:prec - f.valuation]
        else:
            raise ValueError(f"modulus mismatch: {f.p} vs {p}")
    return out
