from fractions import Fraction

import pytest

from wplus.errors import (NoLiftError, NotPIntegralError, ParityViolationError,
                          PrecisionError, ZeroWronskianError)
from wplus.fppoly import FpPoly, is_prime
from wplus.level1 import divisor_degree, divisor_polynomial, miller_basis_mod
from wplus.modsym import GoodBasis, good_basis
from wplus.series import FpSeries, QExpansion
from wplus.supersingular import ss_polys
from wplus.weierstrass import (_HEAD_TERMS, _series_head,
                               cross_check_wronskian_congruence,
                               elliptic_exponents, extract_Fp, lift_to_level1,
                               polynomial_wronskian, required_basis_precision,
                               theta, vandermonde, wronskian,
                               wronskian_divisor_polynomial)
from wronskian_oracle import qseries_wronskian_divisor_polynomial

#: coefficients q^3 .. q^8 of the normalized Wronskian at p = 67, as printed
W67_HEAD = [1, -2, -6, 6, 15, 8]


@pytest.fixture(scope="module")
def basis67():
    gb0 = good_basis(67, 12)
    need = required_basis_precision(gb0.pivots)
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
    gb = good_basis(p, required_basis_precision(gb0.pivots))
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


def test_cross_check_catches_basis_error_past_exact_head(basis67):
    # a wrong basis coefficient inside the mod-p window but past the exact
    # head q^(c_j + K) is invisible to the head and caught mod p
    p = 67
    lifts = [lift_to_level1(f, p) for f in basis67.forms]
    window = sum(basis67.pivots) + 24
    ok, head, _ = cross_check_wronskian_congruence(basis67, lifts, p,
                                                   prec=window)
    assert ok
    f1 = basis67.forms[0]
    n = basis67.pivots[0] + _HEAD_TERMS + 4
    assert n < min(window, f1.precision)
    coeffs = list(f1.coeffs)
    coeffs[n - f1.valuation] += 1
    bad_f1 = QExpansion(coeffs, f1.valuation, f1.precision, weight=2, level=p)
    bad = GoodBasis(p, basis67.g, basis67.genus_x0,
                    [bad_f1] + basis67.forms[1:], basis67.pivots, True)
    ok_bad, head_bad, _ = cross_check_wronskian_congruence(bad, lifts, p,
                                                           prec=window)
    assert head_bad == head
    assert not ok_bad


@pytest.mark.parametrize("past_head", [0, 12])
def test_cross_check_catches_lift_error_past_head(basis67, past_head):
    # a wrong lift coefficient past every head cut q^(c_j + K) but inside
    # the window is caught by the coefficientwise comparison with the forms
    p = 67
    window = required_basis_precision(basis67.pivots)
    lifts = [lift_to_level1(f.truncate(window), p) for f in basis67.forms]
    assert cross_check_wronskian_congruence(basis67, lifts, p, prec=window)[0]
    n = max(basis67.pivots) + _HEAD_TERMS + past_head
    assert n < window
    b = lifts[-1]
    bad = FpSeries(p, b.coeffs.copy(), b.valuation, b.precision, b.weight)
    bad.coeffs[n - b.valuation] = (bad.coeffs[n - b.valuation] + 1) % p
    ok_bad, _, _ = cross_check_wronskian_congruence(
        basis67, lifts[:-1] + [bad], p, prec=window)
    assert not ok_bad


def test_cross_check_forms_one_head_sized_mod_p_wronskian(monkeypatch):
    # the lifts are compared with the forms, not through Wronskians on the
    # window: the only mod-p Wronskian is that of the reduced head cut
    import wplus.weierstrass as ws
    p = 389
    gb = _window_basis(p)
    lifts = _window_lifts(p, gb)
    full = ws.wronskian
    lengths = []

    def recording(forms):
        if isinstance(forms[0], FpSeries):
            lengths.append(max(f.precision for f in forms))
        return full(forms)

    monkeypatch.setattr(ws, "wronskian", recording)
    ok, _, _ = cross_check_wronskian_congruence(
        gb, lifts, p, prec=required_basis_precision(gb.pivots))
    assert ok
    assert len(lengths) == 1
    assert lengths[0] <= max(gb.pivots) + _HEAD_TERMS


def test_cross_check_compares_exact_head_with_mod_p_head(basis67,
                                                        monkeypatch):
    # the reduction of the exact head must equal the mod-p Wronskian of the
    # reduced head cut; a mod-p determinant wrong past its lead is refused
    import wplus.weierstrass as ws
    p = 67
    lifts = [lift_to_level1(f, p) for f in basis67.forms]
    full = ws.wronskian

    def off(forms):
        det, lead = full(forms)
        if isinstance(det, FpSeries):
            det = FpSeries(p, det.coeffs.copy(), det.valuation, det.precision)
            det.coeffs[1] = (det.coeffs[1] + 1) % p
        return det, lead

    monkeypatch.setattr(ws, "wronskian", off)
    ok, _, _ = cross_check_wronskian_congruence(basis67, lifts, p, prec=14)
    assert not ok


@pytest.mark.parametrize("p", [67, 109, 199])
def test_exact_head_matches_absolute_window(p):
    # the pivot-relative head against the exact Wronskian of the forms cut
    # at one absolute precision sum(c) + max(24, 4g), as it was formed before
    gb0 = good_basis(p, (p + 1) // 6 + 12)
    gb = good_basis(p, required_basis_precision(gb0.pivots),
                    computer=gb0.computer)
    lifts = [lift_to_level1(f, p) for f in gb.forms]
    window = min(sum(gb.pivots) + max(24, 4 * gb.g), gb.precision)
    ok, head, v = cross_check_wronskian_congruence(gb, lifts, p, prec=window)
    assert ok
    full, _ = wronskian([f.truncate(window) for f in gb.forms])
    assert head.valuation == full.valuation == sum(gb.pivots)
    assert head.precision == sum(gb.pivots) + _HEAD_TERMS < full.precision
    assert head == full.truncate(head.precision)
    line = f"  wronskian = {_series_head(full.scale(Fraction(1, v)), 6)}"
    assert line in extract_Fp(p, gb, ss_polys(p)).text_lines()


def test_non_integral_basis_reports_not_good(basis67):
    from wplus.modsym import GoodBasis
    doubted = GoodBasis(67, basis67.g, basis67.genus_x0, basis67.forms,
                        basis67.pivots, p_integral=False)
    rep = extract_Fp(67, doubted, ss_polys(67))
    assert rep.status == "not_good_basis"
    assert rep.exit_code == 2


def test_polynomial_wronskian_small_cases(monkeypatch):
    # W_x(1 + x, x^2) = (1 + x) 2x - x^2 = 2x + x^2; one polynomial is itself
    p = 67
    assert polynomial_wronskian([FpPoly(p, [1, 1]), FpPoly(p, [0, 0, 1])]) \
        == FpPoly(p, [0, 2, 1])
    assert polynomial_wronskian([FpPoly(p, [3, 0, 5])]) == FpPoly(p, [3, 0, 5])
    # a determinant known only below x^(sum deg P) is refused
    import wplus.weierstrass as ws
    full = ws.wronskian

    def short(forms):
        det, lead = full(forms)
        return det.truncate(det.precision - 1), lead

    monkeypatch.setattr(ws, "wronskian", short)
    with pytest.raises(PrecisionError):
        polynomial_wronskian([FpPoly(p, [1, 1]), FpPoly(p, [0, 0, 1])])


def _window_basis(p):
    """The good basis extended once to the cross-check window, as the
    pipeline extends it."""
    gb = good_basis(p, (p + 1) // 6 + 12)
    need = required_basis_precision(gb.pivots)
    if gb.precision < need:
        gb = good_basis(p, need, computer=gb.computer)
    return gb


def _window_lifts(p, gb):
    window = required_basis_precision(gb.pivots)
    return [lift_to_level1(f.truncate(window), p) for f in gb.forms]


def _assert_routes_agree(p):
    gb = _window_basis(p)
    fw, lead = wronskian_divisor_polynomial(_window_lifts(p, gb), p)
    assert (fw, lead) == qseries_wronskian_divisor_polynomial(p, gb)
    assert fw.degree() == divisor_degree(gb.g * (gb.g + p)) - sum(gb.pivots)
    assert lead == vandermonde(gb.pivots) % p


@pytest.mark.parametrize("p", [67, 109, 197, 199, 263, 389])
def test_jline_wronskian_matches_qseries_oracle(p):
    _assert_routes_agree(p)


@pytest.mark.slow
@pytest.mark.parametrize("p", [p for p in range(67, 450) if is_prime(p)]
                         + [601])
def test_jline_wronskian_matches_qseries_oracle_scan(p):
    # opt-in (pytest -m slow): every prime in [67, 449] with g+ >= 2, and 601
    if good_basis(p, (p + 1) // 6 + 12).g >= 2:
        _assert_routes_agree(p)


def _det_mod(rows, p):
    """Determinant mod p by Gaussian elimination on Python ints."""
    m = [row[:] for row in rows]
    det = 1
    for c in range(len(m)):
        r = next((r for r in range(c, len(m)) if m[r][c] % p), None)
        if r is None:
            return 0
        if r != c:
            m[c], m[r] = m[r], m[c]
            det = -det
        det = det * m[c][c] % p
        inv = pow(m[c][c], -1, p)
        for r in range(c + 1, len(m)):
            f = m[r][c] * inv % p
            m[r] = [(x - f * y) % p for x, y in zip(m[r], m[c])]
    return det % p


def _horner(coeffs, x, p):
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % p
    return acc


@pytest.mark.parametrize("p", [67, 199, 389])
def test_polynomial_wronskian_pointwise(p):
    # W_x(P)(x0) = det[P_j^(r)(x0)] at every x0 in F_p, by elimination that
    # shares no code with series_matrix_determinant; deg W_x < p here, so
    # the values fix the polynomial
    gb = _window_basis(p)
    d = divisor_degree(p + 1)
    polys = [divisor_polynomial(b.truncate(c + d + 2))
             for b, c in zip(_window_lifts(p, gb), gb.pivots)]
    w = [int(c) for c in polynomial_wronskian(polys).coeffs]
    assert 0 <= len(w) - 1 < p
    rows = [[[int(c) for c in f.coeffs] for f in polys]]
    for _ in range(gb.g - 1):
        rows.append([[n * c % p for n, c in enumerate(f)][1:]
                     for f in rows[-1]])
    for x0 in range(p):
        mat = [[_horner(f, x0, p) for f in row] for row in rows]
        assert _det_mod(mat, p) == _horner(w, x0, p)


def test_cold_verify_extends_basis_to_window_only(tmp_path):
    # one basis precision per prime, and no Miller basis in the cache
    from wplus.cache import DiskCache
    from wplus.config import Config
    from wplus.pipeline import verify_prime
    p = 389
    assert verify_prime(p, Config(cache_dir=tmp_path)).status == "ok"
    stored = DiskCache(tmp_path).get("good_basis", str(p))
    assert stored["precision"] == max(
        (p + 1) // 6 + 12, sum(stored["pivots"]) + max(24, 4 * stored["g"]))
    assert sorted(d.name for d in tmp_path.iterdir()) == [
        "class_poly", "good_basis"]
