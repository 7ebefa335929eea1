import random

import numpy as np
import pytest

from wplus.errors import OddMultiplicityError
from wplus.fppoly import (FpPoly, convolve_mod, is_prime, legendre,
                          poly_factor, poly_sqrt)
from wplus.level1 import _e4_e6_delta
from wplus.series import FpSeries


def s67_paper_factors():
    p = 67
    return [FpPoly(p, [1, 1]), FpPoly(p, [14, 1]),
            FpPoly(p, [45, 8, 1]), FpPoly(p, [24, 44, 1])]


def test_factor_supersingular_67():
    fac = s67_paper_factors()
    product = fac[0] * fac[1] * fac[2] * fac[3]
    found = poly_factor(product)
    assert sorted((f.degree(), tuple(map(int, f.coeffs))) for f, _ in found) \
        == sorted((f.degree(), tuple(map(int, f.coeffs))) for f in fac)
    assert all(e == 1 for _, e in found)
    assert all(f.is_monic() and f.is_irreducible() for f, _ in found)


def test_factor_x_squared():
    f = FpPoly(67, [0, 0, 1])
    assert f.factor() == [(FpPoly(67, [0, 1]), 2)]


def test_factor_square_of_quadratic():
    h = FpPoly(67, [62, 10, 1])
    assert (h * h).factor() == [(h, 2)]


def test_factor_refines_products():
    rng = random.Random(0)
    p = 31
    for _ in range(15):
        f = FpPoly(p, [rng.randrange(p) for _ in range(rng.randrange(2, 6))])
        g = FpPoly(p, [rng.randrange(p) for _ in range(rng.randrange(2, 6))])
        if f.degree() < 1 or g.degree() < 1:
            continue
        combined = sorted(
            ((tuple(map(int, q.coeffs)), e) for q, e in (f * g).factor()))
        merged = {}
        for q, e in f.factor() + g.factor():
            key = tuple(map(int, q.coeffs))
            merged[key] = merged.get(key, 0) + e
        assert combined == sorted(merged.items())


def test_factor_product_reconstructs():
    rng = random.Random(2)
    p = 101
    for _ in range(10):
        f = FpPoly(p, [rng.randrange(p) for _ in range(8)])
        if f.degree() < 1:
            continue
        rebuilt = FpPoly.one(p) * f.leading()
        for q, e in f.factor():
            rebuilt = rebuilt * q ** e
        assert rebuilt == f


def test_sqrt_examples():
    p = 67
    assert poly_sqrt(FpPoly(p, [1, 1]) ** 2) == FpPoly(p, [1, 1])
    h = FpPoly(p, [62, 10, 1])
    assert poly_sqrt(h * h) == h
    with pytest.raises(OddMultiplicityError):
        poly_sqrt(FpPoly(p, [0, 0, 0, 1]))


def test_sqrt_round_trip_random():
    rng = random.Random(4)
    p = 13
    for _ in range(20):
        f = FpPoly(p, [rng.randrange(p) for _ in range(5)] + [1])
        r = poly_sqrt(f * f)
        assert r * r == f * f
        assert r.is_monic()


def test_sqrt_of_pth_power_multiplicities():
    # exponents divisible by p exercise the p-th root branch
    p = 5
    f = FpPoly(p, [1, 1])
    g = poly_sqrt(f ** (2 * p))
    assert g == f ** p


def test_legendre_euler_criterion():
    # independent oracle: a is a QR mod p iff a = x^2 has a solution
    for p in (67, 101, 13):
        squares = {(x * x) % p for x in range(1, p)}
        for a in range(1, p):
            expected = 1 if a in squares else -1
            assert legendre(a, p) == expected
    assert legendre(-1, 67) == -1
    assert legendre(-3, 67) == 1
    assert legendre(0, 67) == 0


def test_exact_division_flags_remainders():
    from wplus.errors import InexactDivisionError
    p = 67
    f = FpPoly(p, [1, 1]) * FpPoly(p, [2, 1])
    assert f.exact_div(FpPoly(p, [1, 1])) == FpPoly(p, [2, 1])
    with pytest.raises(InexactDivisionError):
        f.exact_div(FpPoly(p, [5, 1]))


def test_resultant_against_root_products():
    # res(f, g) = lc(f)^deg g * lc(g)^deg f * prod (a_i - b_j) for split polys
    rng = random.Random(9)
    p = 101
    for _ in range(10):
        aa = [rng.randrange(p) for _ in range(3)]
        bb = [rng.randrange(p) for _ in range(2)]
        f = FpPoly.from_roots(p, aa)
        g = FpPoly.from_roots(p, bb)
        expected = 1
        for a in aa:
            for b in bb:
                expected = expected * (a - b) % p
        assert f.resultant(g) == expected


def test_gcd_and_powmod():
    p = 67
    f = FpPoly(p, [1, 1]) ** 2 * FpPoly(p, [3, 1])
    g = FpPoly(p, [1, 1]) * FpPoly(p, [5, 1])
    assert f.gcd(g) == FpPoly(p, [1, 1])
    # x^p mod (x^2+1): x^p = x * (x^2)^((p-1)/2) = x * (-1)^((p-1)/2)
    xp = FpPoly.x(p).pow_mod(p, FpPoly(p, [1, 0, 1]))
    assert xp == FpPoly(p, [0, pow(-1, (p - 1) // 2, p)])


def test_is_prime():
    assert is_prime(67) and is_prime(2) and is_prime(439)
    assert not is_prime(68) and not is_prime(1) and not is_prime(389 * 397)


def test_convolve_mod_matches_python_ints():
    rng = random.Random(11)
    p = 1000003
    a = [rng.randrange(p) for _ in range(40)]
    b = [rng.randrange(p) for _ in range(25)]
    ref = [sum(a[i] * b[k - i] for i in range(len(a)) if 0 <= k - i < len(b)) % p
           for k in range(len(a) + len(b) - 1)]
    got = convolve_mod(np.array(a), np.array(b), p)
    assert got.tolist() == ref
    assert convolve_mod(np.array(a), np.array(b), p, 70).tolist() == ref + [0] * 6


def test_int64_convolutions_refuse_large_moduli():
    # every int64 convolution goes through one guard; near 2^31 a sum of two
    # products of residues can overflow, so each route raises OverflowError
    # on these three-term inputs instead of wrapping silently
    p = 2**31 - 1
    assert is_prime(p)
    arr = np.array([1, 2, 3], dtype=np.int64)
    f = FpSeries(p, [1, 2, 3], 0, 3)
    poly = FpPoly(p, [1, 2, 3])
    routes = [lambda: convolve_mod(arr, arr, p), lambda: f * f,
              lambda: f._unit_inverse(3), lambda: f / f,
              lambda: poly * poly, lambda: _e4_e6_delta(3, p)]
    for route in routes:
        with pytest.raises(OverflowError):
            route()
