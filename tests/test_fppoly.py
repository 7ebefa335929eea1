import math
import random

import numpy as np
import pytest

from kronecker_oracle import kronecker_product
from wplus.errors import OddMultiplicityError
from wplus.fppoly import (NEWTON_MIN_QUOTIENT, Fp2, FpPoly, _reversed_inverse,
                          convolve_mod, inverse_table, is_prime, legendre)
from wplus.level1 import _e4_e6_delta
from wplus.series import FpSeries


def s67_paper_factors():
    p = 67
    return [FpPoly(p, [1, 1]), FpPoly(p, [14, 1]),
            FpPoly(p, [45, 8, 1]), FpPoly(p, [24, 44, 1])]


def test_factor_supersingular_67():
    fac = s67_paper_factors()
    product = fac[0] * fac[1] * fac[2] * fac[3]
    found = product.factor()
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
    assert (FpPoly(p, [1, 1]) ** 2).sqrt() == FpPoly(p, [1, 1])
    h = FpPoly(p, [62, 10, 1])
    assert (h * h).sqrt() == h
    with pytest.raises(OddMultiplicityError):
        FpPoly(p, [0, 0, 0, 1]).sqrt()


def test_sqrt_round_trip_random():
    rng = random.Random(4)
    p = 13
    for _ in range(20):
        f = FpPoly(p, [rng.randrange(p) for _ in range(5)] + [1])
        r = (f * f).sqrt()
        assert r * r == f * f
        assert r.is_monic()


def test_sqrt_of_pth_power_multiplicities():
    # exponents divisible by p exercise the p-th root branch
    p = 5
    f = FpPoly(p, [1, 1])
    g = (f ** (2 * p)).sqrt()
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


#: the least prime above 2^27: 40 (p - 1)^2 lies between 2^53 and 2^62
P27 = next(q for q in range(2**27 + 1, 2**27 + 200, 2) if is_prime(q))


@pytest.mark.parametrize("p, la, lb, dtype", [
    (1000003, 40, 25, np.float64), (P27, 40, 40, np.int64),
    (2**31 - 1, 40, 40, object)])
def test_convolve_mod_matches_kronecker_oracle(monkeypatch, p, la, lb, dtype):
    # one case per dtype that linalg.exact_dtype gives for min(la, lb)
    # (p - 1)^2, each asserting the dtype np.convolve ran in; inputs of
    # p - 1 only take the middle coefficients to that bound exactly
    convolve, seen = np.convolve, []

    def spy(a, b):
        seen.append((a.dtype, b.dtype))
        return convolve(a, b)

    monkeypatch.setattr(np, "convolve", spy)
    rng = random.Random(p)
    pairs = [([rng.randrange(p) for _ in range(la)],
              [rng.randrange(p) for _ in range(lb)]),
             ([p - 1] * la, [p - 1] * lb)]
    for a, b in pairs:
        arr_a, arr_b = np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)
        for n in (None, 7, la + lb + 5):
            got = convolve_mod(arr_a, arr_b, p, n)
            assert got.dtype == np.int64
            assert got.tolist() == kronecker_product(a, b, p, n)
    assert set(seen) == {(np.dtype(dtype), np.dtype(dtype))}


def test_convolutions_are_exact_at_large_moduli():
    # near 2^31 a sum of two products of residues passes 2^62, where every
    # int64 convolution was refused; each route now sums in Python ints and
    # equals its product on Python ints, on residues next to p that would
    # wrap an int64 sum of three products
    p = 2**31 - 1
    assert is_prime(p)
    a = [p - 1, p - 2, p - 3]
    want = kronecker_product(a, a, p)
    f = FpSeries(p, a, 0, 3)
    inverse = f._unit_inverse(3)
    assert kronecker_product(a, inverse.tolist(), p, 3) == [1, 0, 0]
    assert convolve_mod(np.array(a), np.array(a), p).tolist() == want
    assert (f * f).coeffs.tolist() == want[:3]
    assert f / f == FpSeries.one(p, 3)
    assert _coeffs(FpPoly(p, a) * FpPoly(p, a)) == want
    assert [x.tolist() for x in _e4_e6_delta(3, p)] == [
        [c % p for c in x] for x in _e4_e6_delta(3)]


def test_fppoly_refuses_moduli_past_int64_products():
    # at p = 2^61 - 1 a product of two residues is no int64: scaling x - 1
    # by p - 2 gave the constant term 9 instead of 2.  The largest modulus
    # kept has (p - 1)^2 just below 2^63, and there the scaling is exact
    p = 2**61 - 1
    assert is_prime(p)
    with pytest.raises(ValueError, match="too large"):
        FpPoly(p, [p - 1, 1])
    top = math.isqrt(2**63 - 1) + 1
    with pytest.raises(ValueError, match="too large"):
        FpPoly(top + 1, [1])
    assert _coeffs(FpPoly(top, [top - 1, 1]) * (top - 2)) == [2, top - 2]


def test_negative_powers_raise():
    f = FpPoly(67, [1, 1])
    with pytest.raises(ValueError):
        f ** -1
    with pytest.raises(ValueError):
        f.pow_mod(-1, FpPoly(67, [1, 0, 1]))


# -- oracles over Python-int lists, sharing no code with fppoly ---------------

def _strip(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def _oracle_add(a, b, p):
    n = max(len(a), len(b))
    return _strip((x + y) % p for x, y in zip(a + [0] * (n - len(a)),
                                              b + [0] * (n - len(b))))


def _oracle_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _strip(c % p for c in out)


def _oracle_divmod(a, b, p):
    """Schoolbook long division, one quotient coefficient per step."""
    r = [c % p for c in a]
    d = len(b) - 1
    inv = pow(b[-1], -1, p)
    q = [0] * max(len(r) - d, 0)
    for i in range(len(r) - 1, d - 1, -1):
        c = r[i] * inv % p
        q[i - d] = c
        for j, y in enumerate(b):
            r[i - d + j] = (r[i - d + j] - c * y) % p
    return _strip(q), _strip(r[:d])


def _oracle_gcd(a, b, p):
    a, b = _strip(a), _strip(b)
    while b:
        a, b = b, _oracle_divmod(a, b, p)[1]
    if not a:
        return a
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _oracle_pow_mod(a, e, m, p):
    result, base = [1], _oracle_divmod(a, m, p)[1]
    while e:
        if e & 1:
            result = _oracle_divmod(_oracle_mul(result, base, p), m, p)[1]
        base = _oracle_divmod(_oracle_mul(base, base, p), m, p)[1]
        e >>= 1
    return result


def _random_poly(rng, p, degree, monic=False):
    """Random coefficient list of exactly this degree; the leading
    coefficient is 1 when monic, else a nonzero residue other than 1."""
    lead = 1 if monic or p == 2 else rng.randrange(2, p)
    return [rng.randrange(p) for _ in range(degree)] + [lead]


def _coeffs(f):
    return [int(c) for c in f.coeffs]


#: (deg b, quotient length): degree-0 and linear divisors, quotients on both
#: sides of the loop/Newton threshold, and deg a < deg b (length 0).  Each
#: shape divides an exact multiple, the multiple plus a random remainder,
#: and a random dividend, by a monic and a non-monic divisor.
DIVISION_SHAPES = [(0, 1), (0, 40), (1, 3), (1, NEWTON_MIN_QUOTIENT + 5),
                   (5, 0), (12, NEWTON_MIN_QUOTIENT - 1),
                   (12, NEWTON_MIN_QUOTIENT), (12, NEWTON_MIN_QUOTIENT + 1),
                   (40, 2), (40, 3 * NEWTON_MIN_QUOTIENT), (60, 0),
                   (NEWTON_MIN_QUOTIENT, 90)]


@pytest.mark.parametrize("p", [5, 67, 389, 601, 2003])
def test_divmod_matches_schoolbook_oracle(p):
    rng = random.Random(p)
    for db, k in DIVISION_SHAPES:
        for monic in (True, False):
            b = _random_poly(rng, p, db, monic)
            qb = _oracle_mul(_random_poly(rng, p, k - 1) if k else [], b, p)
            r = [rng.randrange(p) for _ in range(db)]
            for a in (qb, _oracle_add(qb, r, p),
                      _random_poly(rng, p, db + k - 1)):
                got_q, got_r = FpPoly(p, a).divmod(FpPoly(p, b))
                want_q, want_r = _oracle_divmod(a, b, p)
                assert (_coeffs(got_q), _coeffs(got_r)) == (want_q, want_r), \
                    (p, db, k, monic)


@pytest.mark.parametrize("p", [5, 67, 389, 601, 2003])
def test_gcd_matches_oracle(p):
    rng = random.Random(10 * p + 1)
    for dg, df, dh in [(0, 7, 9), (1, 20, 18), (6, 30, 45), (25, 40, 3)]:
        g, f, h = (_random_poly(rng, p, d) for d in (dg, df, dh))
        a, b = _oracle_mul(g, f, p), _oracle_mul(g, h, p)
        got = FpPoly(p, a).gcd(FpPoly(p, b))
        assert _coeffs(got) == _oracle_gcd(a, b, p)
        assert got.degree() >= dg
    assert FpPoly(p, [3, 1]).gcd(FpPoly.zero(p)) == FpPoly(p, [3, 1])
    assert FpPoly.zero(p).gcd(FpPoly.zero(p)).is_zero()


@pytest.mark.parametrize("p", [5, 67, 389, 601, 2003])
def test_pow_mod_matches_oracle(p):
    rng = random.Random(10 * p + 2)
    for dm in (1, 2, 9, NEWTON_MIN_QUOTIENT, NEWTON_MIN_QUOTIENT + 2, 50):
        m = _random_poly(rng, p, dm, monic=dm % 2 == 0)
        a = _random_poly(rng, p, dm + 3)
        for e in (0, 1, 2, p, (p * p - 1) // 2):
            got = FpPoly(p, a).pow_mod(e, FpPoly(p, m))
            assert _coeffs(got) == _oracle_pow_mod(a, e, m, p), (p, dm, e)


def test_long_division_near_int64_limit():
    # near 2^31 every product of more than one term sums in Python ints, and
    # a long quotient takes Newton division as at any p: the inverse of the
    # reversed divisor is one on Python ints, and the quotient, remainder
    # and gcd equal the schoolbook oracles
    p = 2**31 - 1
    rng = random.Random(31)
    a = _random_poly(rng, p, 150)
    b = _random_poly(rng, p, 40)
    k = len(a) - len(b) + 1
    rinv = _reversed_inverse(np.array(b), p, k)
    assert kronecker_product(b[::-1], rinv.tolist(), p, k) == [1] + [0] * (k - 1)
    q, r = FpPoly(p, a).divmod(FpPoly(p, b))
    assert (_coeffs(q), _coeffs(r)) == _oracle_divmod(a, b, p)
    assert _coeffs(FpPoly(p, a).gcd(FpPoly(p, b))) == _oracle_gcd(a, b, p)


# -- F_{p^2} ------------------------------------------------------------------

def _pair_mul(x, y, n, p):
    return ((x[0] * y[0] + n * x[1] * y[1]) % p,
            (x[0] * y[1] + x[1] * y[0]) % p)


def _leibniz_det(mat, n, p):
    """Determinant over F_p[w]/(w^2 - n) on Python ints, by Laplace
    expansion along the first row."""
    if len(mat) == 1:
        return mat[0][0]
    out = (0, 0)
    for j, entry in enumerate(mat[0]):
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        term = _pair_mul(entry, _leibniz_det(minor, n, p), n, p)
        sign = 1 if j % 2 == 0 else -1
        out = ((out[0] + sign * term[0]) % p, (out[1] + sign * term[1]) % p)
    return out


@pytest.mark.parametrize("p", [5, 67, 389, 2003])
def test_fp2_field_and_roots_of_unity(p):
    field = Fp2(p)
    assert legendre(field.n, p) == -1
    assert all(legendre(a, p) == 1 for a in range(2, field.n))
    inv = inverse_table(p)
    assert inv[0] == 0 and all(a * int(inv[a]) % p == 1 for a in range(1, p))
    rng = random.Random(p)
    for _ in range(20):
        x = (rng.randrange(p), rng.randrange(1, p))
        assert field.mul(x, field.inverse(x)) == (1, 0)
    q = p * p - 1
    for order in (1, 2, p - 1, p + 1, q, next(d for d in range(p, q)
                                              if q % d == 0 and (p - 1) % d)):
        re, im = field.roots_of_unity(order)
        zeta = (int(re[1 % order]), int(im[1 % order]))
        assert field.mul((int(re[-1]), int(im[-1])), zeta) == (1, 0)
        assert all(field.mul((int(a), int(b)), zeta) == (int(c), int(d))
                   for a, b, c, d in zip(re, im, re[1:], im[1:]))
        assert len(set(zip(re.tolist(), im.tolist()))) == order
    with pytest.raises(ValueError):
        field.roots_of_unity(p)


@pytest.mark.parametrize("p", [67, 2003])
def test_fp2_det_matches_laplace_expansion(p):
    # sparse entries force row swaps, and some matrices are singular
    field = Fp2(p)
    rng = random.Random(p)
    for g in (1, 2, 3, 4):
        mats = []
        for _ in range(40):
            mats.append([[(rng.randrange(p), rng.randrange(p))
                          if rng.random() < 0.5 else (0, 0)
                          for _ in range(g)] for _ in range(g)])
        mats.append([[(0, 0)] * g for _ in range(g)])
        mats.append([row[:] for row in mats[0][:1]] * g)
        arr = np.array(mats, dtype=np.int64)
        re, im = field.det((arr[..., 0], arr[..., 1]))
        assert list(zip(re.tolist(), im.tolist())) == [
            _leibniz_det(m, field.n, p) for m in mats]
