import random

import pytest

from wplus import supersingular
from wplus.errors import BoundExceededError
from wplus.fppoly import FpPoly, is_prime
from wplus.modsym import ModSymSpace
from wplus.supersingular import (ClassPolyData, class_number, class_poly,
                                 fixed_point_poly,
                                 hasse_polynomial, is_supersingular_by_counting,
                                 reduced_forms, ss_oracle, ss_polys,
                                 verify_fixedlinear)

#: classical Hilbert class polynomial of discriminant -23 (class number 3)
H23 = [12771880859375, -5151296875, 3491750, 1]


def test_ss_small_primes_against_point_counts():
    # j = 0 over F_5 is supersingular (the curve y^2 = x^3 + 1 has 6 points)
    assert is_supersingular_by_counting(0, 5)
    assert ss_polys(5).S_p == FpPoly.x(5)
    # 1728 = 1 mod 11: both elliptic j-invariants are supersingular
    assert ss_polys(11).S_p == FpPoly.x(11) * FpPoly.linear(11, 1)
    assert ss_polys(13).S_p == FpPoly(13, [-5, 1])


def test_ss_67_printed_factorization():
    split = ss_polys(67)
    expected = (FpPoly(67, [1, 1]) * FpPoly(67, [14, 1])
                * FpPoly(67, [45, 8, 1]) * FpPoly(67, [24, 44, 1]))
    assert split.S_p == expected
    assert split.S_l == FpPoly(67, [1, 1]) * FpPoly(67, [14, 1])
    assert split.S_q == FpPoly(67, [45, 8, 1]) * FpPoly(67, [24, 44, 1])
    # x + 14 is x - 1728 mod 67
    assert (-1728) % 67 == 14
    assert split.alpha_rho == 0 and split.alpha_i == 1
    assert split.S_tilde_l == FpPoly(67, [1, 1])


def test_ss_split_structure():
    for p in (67, 101, 109, 139):
        split = ss_polys(p)
        assert split.S_l * split.S_q == split.S_p
        assert split.S_tilde_l * split.S_q == split.S_tilde
        assert all(f.degree() == 2 for f, _ in split.S_q.factor())
        assert all(f.degree() == 1 for f, _ in split.S_l.factor())
        assert split.alpha_rho == (1 if p % 3 == 2 else 0)
        assert split.alpha_i == (1 if p % 4 == 3 else 0)


def test_e_pm1_reduction_matches_true_eisenstein():
    # E_{p-1} really is the constant series 1 mod p, and the divisor
    # polynomial of its residue row is the S_tilde of ss_polys
    from wplus.level1 import divisor_polynomials, eisenstein, weight_profile
    from wplus.series import residue_matrix
    for p in (67, 101, 107):
        prec = weight_profile(p - 1).m + 4
        row = residue_matrix([eisenstein(p - 1, prec)], p, prec)
        assert row.tolist() == [[1] + [0] * (prec - 1)]
        assert divisor_polynomials(row, p - 1, p)[0] == ss_polys(p).S_tilde


def test_oracle_equivalence_spot():
    for p in (5, 13, 37, 67, 101, 103):
        assert ss_oracle(p) == ss_polys(p).S_p


def _lagrange_by_products(xs, ys, p):
    """Lagrange interpolation with each basis polynomial built from its
    n - 1 linear factors, as ss_oracle interpolated before the master
    polynomial; an oracle for supersingular._lagrange_interpolate."""
    out = FpPoly.zero(p)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        num = FpPoly.one(p)
        den = 1
        for k, xk in enumerate(xs):
            if k != i:
                num = num * FpPoly.linear(p, xk)
                den = den * (xi - xk) % p
        out = out + num * (yi * pow(den, -1, p) % p)
    return out


# 2^30 + 3: n (p - 1)^2 passes 2^62 from n = 4 on, where int64 sums of the
# interpolation product were refused
@pytest.mark.parametrize("p", [5, 67, 389, 2**30 + 3])
def test_lagrange_interpolation_hits_random_data(p):
    rng = random.Random(p)
    for n in (n for n in (1, 2, 3, 5, 20, 60) if n <= p):
        xs = rng.sample(range(p), n)
        ys = [rng.randrange(p) for _ in xs]
        f = supersingular._lagrange_interpolate(xs, ys, p)
        assert f.degree() < n
        assert [f.evaluate(x) for x in xs] == ys
        assert f == _lagrange_by_products(xs, ys, p)


def test_ss_oracle_unchanged_by_master_polynomial(monkeypatch):
    # every prime the oracle covers, against the product interpolation
    for p in [p for p in range(5, supersingular.ORACLE_BOUND + 1)
              if is_prime(p)]:
        fast = ss_oracle(p)
        with monkeypatch.context() as m:
            m.setattr(supersingular, "_lagrange_interpolate",
                      _lagrange_by_products)
            assert ss_oracle(p) == fast
        assert fast == ss_polys(p).S_p


def test_oracle_bound():
    with pytest.raises(BoundExceededError):
        ss_oracle(109)


def test_hasse_polynomial_degree():
    h = hasse_polynomial(13)
    assert h.degree() == 6
    assert h.coeffs[0] == 1


def test_ss_degree_is_genus_plus_one():
    for p in (11, 23, 67, 101):
        assert ss_polys(p).S_p.degree() == ModSymSpace(p).genus + 1


def test_class_poly_tiny():
    assert class_poly(3).H_D == [0, 1]
    assert class_poly(4).H_D == [-1728, 1]
    assert class_poly(7).H_D == [3375, 1]
    assert class_poly(23).H_D == H23


def test_reduced_forms_and_class_numbers():
    assert reduced_forms(20) == [(1, 0, 5), (2, 2, 3)]
    assert class_number(20) == 2
    assert class_number(67) == 1
    assert class_number(268) == 3
    assert class_number(436) == 6
    for a, b, c in reduced_forms(436):
        assert b * b - 4 * a * c == -436
        assert abs(b) <= a <= c


def test_class_poly_idempotent_at_higher_precision():
    import mpmath
    for D in (23, 68, 268):
        base = class_poly(D)
        bits = 2 * base.float_precision_bits
        with mpmath.workprec(bits):
            again = supersingular._class_poly_attempt(D, reduced_forms(D),
                                                      bits)
        assert base.H_D == again


def test_fixed_point_poly_degrees():
    h67, sigma67 = fixed_point_poly(67)
    assert sigma67 == class_number(67) + class_number(268) == 4
    # p = 1 mod 4: single class polynomial
    h13, sigma13 = fixed_point_poly(13)
    assert sigma13 == class_number(52)
    h5, sigma5 = fixed_point_poly(5)
    assert sigma5 == class_number(20) == 2


def test_fixedlinear_67():
    ok, hp_mod, sigma = verify_fixedlinear(67)
    assert ok and sigma == 4
    s_l = FpPoly(67, [1, 1]) * FpPoly(67, [14, 1])
    assert hp_mod == s_l * s_l


def test_fixedlinear_5():
    ok, hp_mod, sigma = verify_fixedlinear(5)
    assert ok
    assert hp_mod == FpPoly(5, [0, 0, 1])  # x^2


def test_fixedlinear_degree_identity():
    for p in (7, 11, 31, 97, 139):
        ok, hp_mod, sigma = verify_fixedlinear(p)
        assert ok
        assert sigma == 2 * ss_polys(p).S_l.degree()


def test_ramification_count_riemann_hurwitz():
    # 2 g_plus = genus + 1 - sigma/2, with g_plus from modular symbols
    from modsym_oracle import atkin_lehner_plus
    for p in (67, 101, 109):
        space = ModSymSpace(p)
        plus = atkin_lehner_plus(space)
        g_plus = len(plus[0]) if space.genus else 0
        _, sigma = fixed_point_poly(p)
        assert 2 * g_plus == space.genus + 1 - sigma // 2
        assert 2 * g_plus == space.genus + 1 - ss_polys(p).S_l.degree()


def test_class_poly_cache_round_trip(tmp_path):
    from wplus.cache import DiskCache
    cache = DiskCache(tmp_path)
    first = class_poly(268, cache=cache)
    second = class_poly(268, cache=cache)
    assert first.H_D == second.H_D
    assert (tmp_path / "class_poly" / "268.json").exists()


def test_class_poly_skips_rungs_below_the_coefficient_size(monkeypatch):
    # H_{-1556} has 710-bit coefficients; the rungs 177, 354 and 708 bits
    # cannot round them, so the first attempt is made at 1416 bits
    import wplus.supersingular as ss
    bits_tried = []
    attempt = ss._class_poly_attempt

    def counting(D, forms, bits):
        bits_tried.append(bits)
        return attempt(D, forms, bits)

    monkeypatch.setattr(ss, "_class_poly_attempt", counting)
    data = class_poly(1556)
    assert bits_tried == [1416]
    assert data.float_precision_bits == 1416
    assert max(abs(c) for c in data.H_D).bit_length() == 710
