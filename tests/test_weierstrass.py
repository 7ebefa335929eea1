from fractions import Fraction

import pytest

from wplus.errors import (NoLiftError, NotPIntegralError, ParityViolationError,
                          PrecisionError, ZeroWronskianError)
from wplus.fppoly import FpPoly
from wplus.level1 import miller_basis_mod
from wplus.modsym import good_basis
from wplus.series import FpSeries, QExpansion
from wplus.supersingular import ss_polys
from wplus.weierstrass import (cross_check_wronskian_congruence,
                               elliptic_exponents, extract_Fp, lift_to_level1,
                               required_basis_precision, theta, vandermonde,
                               wronskian)

#: coefficients q^3 .. q^8 of the normalized Wronskian at p = 67, as printed
W67_HEAD = [1, -2, -6, 6, 15, 8]


@pytest.fixture(scope="module")
def basis67():
    gb0 = good_basis(67, 12)
    need = required_basis_precision(gb0.pivots, 67)
    return good_basis(67, need)


@pytest.fixture(scope="module")
def report67(basis67):
    return extract_Fp(67, basis67, ss_polys(67))


def test_theta_examples():
    q = QExpansion.from_dict({1: 1}, 5)
    assert theta(q).coefficient(1) == 1
    f = FpSeries(7, [3, 1, 4], 2, 5)
    tf = theta(f)
    assert tf.coefficients(5) == [0, 0, 6, 3, 2]  # n * a_n mod 7


def test_wronskian_single_form():
    f = QExpansion([1, 5], 1, 3, weight=2, level=11)
    det, lead = wronskian([f])
    assert det == f and lead == 1


def test_wronskian_vandermonde_leading():
    assert vandermonde([1, 2]) == 1
    assert vandermonde([1, 2, 4]) == (2 - 1) * (4 - 1) * (4 - 2)
    f1 = QExpansion([1, 0, 2], 1, 4, weight=2, level=11)
    f2 = QExpansion([1, 7], 2, 4, weight=2, level=11)
    det, lead = wronskian([f1, f2])
    assert det.valuation == 3
    assert lead == vandermonde([1, 2])


def test_wronskian_of_dependent_forms():
    f = QExpansion([1, 3, 1], 1, 4, weight=2, level=11)
    with pytest.raises(ZeroWronskianError):
        wronskian([f, f.scale(2)])


def test_wronskian_67_printed(basis67):
    det, lead = wronskian([f.truncate(10) for f in basis67.forms])
    assert lead == 1
    assert det.valuation == 3
    assert [det.coefficient(n) for n in range(3, 9)] == W67_HEAD


def test_lift_67_residual(basis67):
    lift = lift_to_level1(basis67.forms[0], 67)
    assert lift.weight == 68
    assert lift.agrees_with(basis67.forms[0].reduce_mod(67))


def test_lift_of_miller_element_is_itself():
    p = 67
    cusp = miller_basis_mod(p + 1, p, 20)[1:]
    target = cusp[2]
    as_weight2 = FpSeries(p, target.coeffs, target.valuation,
                          target.precision, weight=2)
    lift = lift_to_level1(as_weight2, p, cusp)
    assert lift.agrees_with(target)


def test_lift_rejects_non_p_integral():
    f = QExpansion.from_dict({1: Fraction(1, 67)}, 10, weight=2, level=67)
    with pytest.raises(NotPIntegralError):
        lift_to_level1(f, 67)


def test_lift_no_solution_raises():
    p = 67
    cusp = miller_basis_mod(p + 1, p, 20)[1:]
    fake = FpSeries(p, [1] + [0] * 17, 1, 19, weight=2)  # bare q is no form
    with pytest.raises(NoLiftError):
        lift_to_level1(fake, p, cusp)


def test_elliptic_exponents_67():
    e = elliptic_exponents(67, 2)
    assert (e.eps_rho, e.eps_i, e.alpha_rho, e.alpha_i) == (4, 0, 0, 1)
    assert e.k_tilde == 2 * 3 * 68 and e.k_star == e.k_tilde % 3


def test_elliptic_exponents_table_rows():
    # p = 1 mod 12: eps_rho = floor(2(g^2+g)/3), eps_i = (g^2+g)/2
    for g in (2, 3, 5):
        e = elliptic_exponents(13, g)
        assert e.eps_rho == (2 * (g * g + g)) // 3
        assert e.eps_i == (g * g + g) // 2
    # p = 11 mod 12, g = 2: both exponents vanish
    e = elliptic_exponents(11, 2)
    assert (e.eps_rho, e.eps_i) == (0, 0)


def test_extract_67_matches_printed_example(report67):
    rep = report67
    assert rep.status == "ok"
    assert (rep.epsilon_rho, rep.epsilon_i) == (4, 0)
    assert rep.polys["H"] == FpPoly(67, [62, 10, 1])
    sq = FpPoly(67, [45, 8, 1]) * FpPoly(67, [24, 44, 1])
    h = FpPoly(67, [62, 10, 1])
    assert rep.polys["F_p"] == (sq * h) ** 2
    assert all(rep.checks.values())


def test_extract_67_wtilde_assembly(report67):
    x = FpPoly.x(67)
    lin = lambda c: FpPoly.linear(67, c)
    expected = (x ** 4 * (FpPoly(67, [1, 1]) * FpPoly(67, [14, 1])) ** 6
                * (FpPoly(67, [45, 8, 1]) * FpPoly(67, [24, 44, 1])
                   * FpPoly(67, [62, 10, 1])) ** 2)
    assert report67.polys["F_wtilde"] == expected


def test_extract_small_genus_trivial():
    gb = good_basis(23, 10)
    rep = extract_Fp(23, gb, ss_polys(23))
    assert rep.status == "ok"
    assert rep.polys["F_p"].is_one() and rep.polys["H"].is_one()


def test_extract_degree_identity_with_weierstrass_cusp():
    p = 109
    gb0 = good_basis(p, 30)
    gb = good_basis(p, required_basis_precision(gb0.pivots, p))
    rep = extract_Fp(p, gb, ss_polys(p))
    assert rep.status == "ok"
    assert rep.wt_inf == 1
    g = gb.g
    assert rep.polys["F_p"].degree() == 2 * (g ** 3 - g - 1)
    assert all(rep.checks.values())


def test_extract_requires_precision(basis67):
    short = good_basis(67, 12)
    with pytest.raises(PrecisionError):
        extract_Fp(67, short, ss_polys(67))


def test_cross_check_sensitivity(basis67):
    p = 67
    lifts = [lift_to_level1(f, p) for f in basis67.forms]
    ok, _, v = cross_check_wronskian_congruence(basis67, lifts, p, prec=14)
    assert ok and v == 1
    # perturbing one coefficient of b_1 must break the congruence
    bad = FpSeries(p, lifts[0].coeffs.copy(), lifts[0].valuation,
                   lifts[0].precision, lifts[0].weight)
    bad.coeffs[3] = (bad.coeffs[3] + 1) % p
    ok_bad, _, _ = cross_check_wronskian_congruence(basis67, [bad, lifts[1]],
                                                    p, prec=14)
    assert not ok_bad


def test_non_integral_basis_reports_not_good(basis67):
    from wplus.modsym import GoodBasis
    doubted = GoodBasis(67, basis67.g, basis67.genus_x0, basis67.forms,
                        basis67.pivots, p_integral=False)
    rep = extract_Fp(67, doubted, ss_polys(67))
    assert rep.status == "not_good_basis"
    assert rep.exit_code == 2


def test_paranoid_route_agrees(basis67):
    gb0 = good_basis(67, 12)
    need = required_basis_precision(gb0.pivots, 67, paranoid=True)
    gb = good_basis(67, need)
    rep = extract_Fp(67, gb, ss_polys(67), paranoid=True)
    assert rep.checks["square_divisor_direct"]
    assert rep.status == "ok"
