import random
from fractions import Fraction

import numpy as np
import pytest

from wplus.errors import NotPIntegralError, PrecisionError
from wplus.series import FpSeries, QExpansion, residue_matrix

# the basis expansions printed for X_0^+(67), through q^8
F1_67 = {1: 1, 3: -3, 4: -3, 5: -3, 6: 1, 7: 4, 8: 3}
F2_67 = {2: 1, 3: -1, 4: -3, 7: 3, 8: 4}


def qexp(d, prec, weight=2, level=1):
    return QExpansion.from_dict(d, prec, weight=weight, level=level)


def test_self_division_is_one():
    a = qexp({1: 1, 2: -24, 3: 252, 4: -1472}, 5, weight=12)
    one = a / a
    assert one.valuation == 0
    assert one.coefficients(one.precision) == [1, 0, 0, 0]


def test_delta_times_j_is_e4_cubed():
    from wplus.level1 import delta, eisenstein, j_function
    prod = QExpansion(j_function(150), -1, 150) * delta(152)
    assert prod.precision == 151
    e43 = eisenstein(4, 151) ** 3
    for n in range(prod.precision):
        assert prod.coefficient(n) == e43.coefficient(n)


def test_basis_product_hand_multiplied():
    # (q - 3q^3 - ...) * (q^2 - q^3 - ...) starts q^3 - q^4 - 6q^5
    f1 = qexp(F1_67, 9, level=67)
    f2 = qexp(F2_67, 9, level=67)
    prod = f1 * f2
    assert prod.coefficient(3) == 1
    assert prod.coefficient(4) == -1
    assert prod.coefficient(5) == -6
    assert prod.weight == 4


def test_multiplication_precision_rule():
    a = qexp({1: 1}, 9)
    b = qexp({2: 5}, 7)
    prod = a * b
    assert prod.precision == min(9 + 2, 7 + 1)
    assert prod.valuation == 3


def test_division_precision_and_valuation():
    a = qexp({3: 2, 4: 1}, 10, weight=14)
    b = qexp({1: 2, 2: 6}, 10, weight=4)
    q = a / b
    assert q.valuation == 2
    assert q.weight == 10
    assert q.precision == min(10 - 1, 10 + 3 - 2)
    assert (q * b).coefficient(3) == 2


def test_division_by_zero_series():
    a = qexp({1: 1}, 5)
    z = QExpansion.zero(5)
    with pytest.raises(ZeroDivisionError):
        a / z


def test_mismatched_moduli_rejected():
    a = FpSeries(67, [1, 2], 0, 2)
    b = FpSeries(71, [1, 2], 0, 2)
    with pytest.raises(ValueError):
        a * b


def test_weight_mismatch_on_add():
    a = qexp({1: 1}, 5, weight=2)
    b = qexp({1: 1}, 5, weight=4)
    with pytest.raises(ValueError):
        a + b


def test_coefficient_beyond_precision_raises():
    a = qexp({1: 1}, 5)
    with pytest.raises(PrecisionError):
        a.coefficient(5)


def test_round_trip_random_series():
    rng = random.Random(7)
    for _ in range(25):
        prec = rng.randrange(4, 12)
        a = qexp({n: rng.randrange(-9, 10) for n in range(0, prec)}, prec)
        b = qexp({n: rng.randrange(-9, 10) for n in range(1, prec)}, prec)
        if b.is_zero():
            continue
        q = (a * b) / b
        for n in range(q.valuation, q.precision):
            assert q.coefficient(n) == a.coefficient(n)


def test_fp_round_trip_random():
    rng = random.Random(11)
    p = 101
    for _ in range(25):
        prec = rng.randrange(4, 40)
        a = FpSeries(p, [rng.randrange(p) for _ in range(prec)], 0, prec)
        b = FpSeries(p, [rng.randrange(p) for _ in range(prec - 1)], 1, prec)
        if b.is_zero():
            continue
        q = (a * b) / b
        assert q.agrees_with(a)


def test_is_p_integral():
    ok = qexp({0: 1, 1: Fraction(1, 2), 2: Fraction(3, 4)}, 3)
    assert ok.is_p_integral(67)
    bad = qexp({0: 1, 1: Fraction(1, 67)}, 2)
    assert not bad.is_p_integral(67)
    f1 = qexp(F1_67, 9, level=67)
    assert f1.is_p_integral(67)


def test_p_integral_stability():
    rng = random.Random(3)
    p = 67
    for _ in range(20):
        a = qexp({n: Fraction(rng.randrange(-20, 20), rng.choice([1, 2, 3, 5]))
                  for n in range(8)}, 8)
        b = qexp({n: Fraction(rng.randrange(-20, 20), rng.choice([1, 2, 4, 11]))
                  for n in range(8)}, 8)
        assert a.is_p_integral(p) and b.is_p_integral(p)
        assert (a + b).is_p_integral(p)
        assert (a * b).is_p_integral(p)


def test_reduce_mod_requires_p_integrality():
    bad = qexp({0: Fraction(1, 67)}, 2)
    with pytest.raises(NotPIntegralError):
        bad.reduce_mod(67)


def test_residue_matrix_rows():
    # one row per series from q^0, QExpansion rows reduced, zero rows zero
    p = 67
    f = qexp({1: Fraction(1, 2), 3: Fraction(-5, 3), 9: 4}, 10)
    g = FpSeries(p, [7, 0, 66, 0], 2, 6)
    zero = QExpansion.zero(10)
    rows = residue_matrix([f, g, zero], p, 6)
    assert rows.dtype.kind == "i" and rows.shape == (3, 6)
    assert rows[0].tolist() == [0, f.reduce_mod(p).coefficient(1), 0,
                                f.reduce_mod(p).coefficient(3), 0, 0]
    assert rows[1].tolist() == [0, 0, 7, 0, 66, 0]
    assert not rows[2].any()
    with pytest.raises(PrecisionError):
        residue_matrix([g], p, 7)
    with pytest.raises(NotPIntegralError):
        residue_matrix([qexp({2: Fraction(1, 67)}, 5)], p, 5)
    with pytest.raises(ValueError):
        residue_matrix([FpSeries(p, [1, 0, 0, 0], -1, 3)], p, 3)


def test_theta_basics():
    q = qexp({1: 1}, 5)
    assert q.theta().coefficients(5)[1] == 1
    dl = qexp({1: 1, 2: -24, 3: 252}, 4, weight=12)
    td = dl.theta()
    assert [td.coefficient(n) for n in (1, 2, 3)] == [1, -48, 756]
    assert td.weight == 14
    assert td.precision == dl.precision


def test_theta_preserves_congruences():
    rng = random.Random(5)
    p = 13
    a = qexp({n: rng.randrange(-40, 40) for n in range(1, 9)}, 9)
    b = qexp({n: a.coefficient(n) + p * rng.randrange(-3, 4)
              for n in range(1, 9)}, 9)
    assert a.theta().reduce_mod(p).agrees_with(b.theta().reduce_mod(p))


def test_fp_series_shift_truncate():
    f = FpSeries(7, [1, 2, 3], 1, 4)
    assert f.shift(2).valuation == 3
    t = f.truncate(2)
    assert t.precision == 2 and t.coefficients(2) == [0, 1]


def test_residue_matrix_of_numerator_rows():
    # GoodBasis.residues reduces rows of numerators over one denominator
    # each as residue_matrix reduces the QExpansions they stand for, with
    # one inverse per row, from int64 and from Python-int numerators
    from wplus.modsym import GoodBasis
    num = np.array([[0, 3, -5, 2 ** 40], [0, 0, 7, 1]])
    den = [6, 35]
    forms = [QExpansion([Fraction(int(c), d) for c in row], 0, 4)
             for row, d in zip(num, den)]
    for p in (11, 13):
        for rows in (num, num.astype(object)):
            basis = GoodBasis(p, 2, 0, rows, den, [1, 2], True)
            assert np.array_equal(basis.residues(),
                                  residue_matrix(forms, p, 4))
    with pytest.raises(NotPIntegralError):
        GoodBasis(7, 2, 0, num, den, [1, 2], False).residues()
