"""Eichler-Selberg trace formula for T_n on S_2(Gamma_0(p)).

An oracle for the Hecke layer that shares no code with the modular-symbols
routes: it uses only binary quadratic forms.  For a prime p with p not
dividing n and 4n < p^2 (so that no f with f^2 | 4n - t^2 is divisible by
p, and the local factor at p is just 1 + ((t^2 - 4n) / p)),

    tr T_n = sigma_1(n) + [n is a square] (p + 1) / 12
             - 1/2 sum_{t^2 < 4n} H(4n - t^2) (1 + ((t^2 - 4n) / p))
             - sum_{d | n} min(d, n / d),

with H the Hurwitz class number and ((a) / p) the Legendre symbol (Cohen
and Stromberg, "Modular Forms: A Classical Approach", ch. 12).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt

from wplus.supersingular import reduced_forms

#: reduced forms with extra automorphisms, and their weights in H(N)
_FORM_WEIGHTS = {(1, 0, 1): Fraction(1, 2), (1, 1, 1): Fraction(1, 3)}


@lru_cache(maxsize=None)
def hurwitz_class_number(N):
    """H(N) = sum of h_w(-N / f^2) over f^2 | N with -N / f^2 a
    discriminant, where h_w counts primitive reduced forms and weights
    x^2 + y^2 by 1/2 and x^2 + xy + y^2 by 1/3."""
    total = Fraction(0)
    for f in range(1, isqrt(N) + 1):
        D = N // (f * f)
        if N % (f * f) == 0 and (-D) % 4 in (0, 1):
            total += sum(_FORM_WEIGHTS.get(form, Fraction(1))
                         for form in reduced_forms(D))
    return total


def legendre(a, p):
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def hecke_trace(p, n):
    """tr T_n on S_2(Gamma_0(p)) for a prime p, p not dividing n, 4n < p^2."""
    if n % p == 0 or 4 * n >= p * p:
        raise ValueError("the formula here needs p not dividing n and 4n < p^2")
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    total = Fraction(sum(divisors))
    if isqrt(n) ** 2 == n:
        total += Fraction(p + 1, 12)
    for t in range(-isqrt(4 * n - 1), isqrt(4 * n - 1) + 1):
        total -= (hurwitz_class_number(4 * n - t * t)
                  * (1 + legendre(t * t - 4 * n, p)) / 2)
    total -= sum(min(d, n // d) for d in divisors)
    if total.denominator != 1:
        raise ArithmeticError(f"non-integral trace {total} at p={p}, n={n}")
    return int(total)
